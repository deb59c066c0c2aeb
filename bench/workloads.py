"""The three fabric workloads: seeded inputs, timed operations, checks.

Every workload is a closed loop with one client in one thread: the next
operation starts when the previous one returns.  A run sets up its inputs,
makes one untimed pass over its operation schedule, which warms lazy
stores and yields the reference outputs, then repeats the schedule for the
requested seconds.  Each timed result must equal its reference, so the
timed work is checked too.  The set-up is repeated between loop cycles,
and ``setup_s`` is the median of all set-ups.

* ``build``   builds a 20k-word corpus from graph XML and from tables.
* ``query``   runs a seeded mix of eight query shapes against a 5k-word image.
* ``session`` runs one researcher's saves, store round trips, browsing and
  CLI streaming against the same 5k-word image.

Every workload reports every end-to-end metric.  Each metric is taken
from the operations of its own kind wherever they run:

* build metrics come from the build loop on ``build``, and from the set-up
  builds of the 5k-word image on ``query`` and ``session``;
* session metrics come from session rounds, which run on every workload:
  one per build cycle on ``build``, one per three query rounds on
  ``query``.  Query metrics come from the query mix on ``query`` and from
  the session rounds' queries elsewhere.  Session rounds use only light
  (non-join) query shapes, so join work stays on ``query``.

Timings are rescaled to one host speed.  The shared 2-core host this was
tuned on slows whole stretches of a run, tens of seconds long, by a
quarter and more, and the slowdown hits a pure-Python loop and the engine
alike.  So the run times a fixed pure-Python reference loop at most every
``PROBE_EVERY`` seconds, between operations, and multiplies each timing by
``REFERENCE_S`` over the median of the probes taken within ``PROBE_WINDOW``
seconds of it: it is the time the operation would take on a host where
the reference loop takes ``REFERENCE_S``.  A change to the engine moves the operation's time but not
the reference loop's.  Every distinct operation (one query text, one saved
query of one round, one browse step, ...) runs several times in a run; its
time is the median of its rescaled runs, and medians and percentiles are
then taken over the distinct operations.
"""

from __future__ import annotations

import bisect
import contextlib
import gc
import hashlib
import io
import itertools
import random
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Hashable

from fabric import annotations, cli, compiler, featuredoc, ingest, synth
from fabric.corpus import Corpus
from fabric.model import MonadSet
from fabric.query import evaluator, oracle, plan, syntax

from tracer import Tracer

SHAPES = (
    "posting",
    "adjacent_pair",
    "adjacent_chain",
    "gap_bounded",
    "nested",
    "nested_gap",
    "regex_not",
    "in_deep",
)
JOIN_SHAPES = ("adjacent_pair", "adjacent_chain", "gap_bounded", "nested_gap")
# What a researcher saves in one session round: the single-block and
# posting-led shapes, each once.
SESSION_SHAPES = ("posting", "phrase", "posting_nested", "in_deep")
CAP = 1000
CHAIN_CAP = 25  # `[word lex="L"] [word]` rescans every word per match
# Sample sizes, not usage data: 32 browse steps give browse_p90_us three
# steps above it in each round, and 100 rows is one screenful per format.
STREAM_LIMIT = 100
BROWSE_STEPS = 32
PAGE_SIZE = 10
NOW = "2020-01-01T00:00:00Z"  # fixed save time keeps stores byte-identical
AUTHOR = "bench"
QUERY_ROUNDS_PER_SESSION = 3
LOADS = 10  # loads of the served image per set-up, and per build cycle
SIDE_WORDS = 40  # oracle corpus; keeps brute force under its guard
BUILD_SETUPS = 2  # set-ups per run on build, where one set-up takes seconds
REFERENCE_LOOP = 10_000  # iterations of the host-speed probe's loop
REFERENCE_S = 0.0006  # the loop's time on the tuning host (2.1 GHz) when that is not slowed
PROBE_EVERY = 0.1  # seconds; often enough to follow the host's slow stretches
PROBE_WINDOW = 0.5  # seconds; a median over ~10 probes damps each probe's own noise


@dataclass(frozen=True)
class Sizes:
    build_words: int  # source corpus of the build workload
    serve_words: int  # image served to queries and sessions
    setups: int  # set-ups per run on query and session; setup_s is their median
    query_rounds: int  # distinct eight-shape rounds in the query schedule
    session_rounds: int  # distinct session rounds on the session workload


# Six query rounds give 48 distinct queries, each run about six times in
# 30 s; four session rounds give each phrase type one turn per shape.
FULL = Sizes(build_words=20_000, serve_words=5_000, setups=5, query_rounds=6, session_rounds=4)
TINY = Sizes(build_words=1_200, serve_words=800, setups=2, query_rounds=1, session_rounds=1)


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


class CheckFailed(Exception):
    """A correctness check failed on an operation's output."""


def reference() -> float:
    """Seconds taken by a fixed pure-Python loop: the host's current speed.
    The fastest of three runs, so that one preemption does not count as a
    slow host."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for i in range(REFERENCE_LOOP):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Recorder:
    """Samples, counts, failures and the result digest of one pass.

    ``samples[metric][op]`` holds the (start, end) clock readings of every
    run of one distinct operation ``op``; ``probes`` holds the (end, seconds)
    of every host-speed probe."""

    tracer: Tracer | None = None
    samples: dict[str, dict[Hashable, list[tuple[float, float]]]] = field(
        default_factory=lambda: defaultdict(lambda: defaultdict(list))
    )
    counts: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    streamed: dict[Hashable, int] = field(default_factory=dict)  # matches per CLI call
    probes: list[tuple[float, float]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    def op(self, name: str, fn: Callable[[], object]) -> object:
        """Run one operation in its own trace; count it and any failure."""
        self.attempted += 1
        self.probe()
        traced = self.tracer.operation(name) if self.tracer else contextlib.nullcontext()
        try:
            with traced:
                return fn()
        except Exception as exc:  # an operation failing is a result, not a crash
            self.fail(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def gate(self, name: str, fn: Callable[[], object]) -> None:
        """Run one standalone correctness check."""
        self.op("check." + name, fn)

    def fail(self, message: str) -> None:
        self.failed += 1
        self.failures.append(message)
        print(f"FAILED {message}", file=sys.stderr)

    def probe(self, force: bool = False) -> None:
        """Time the reference loop, unless the last probe is recent."""
        if force or not self.probes or time.perf_counter() - self.probes[-1][0] >= PROBE_EVERY:
            seconds = reference()
            self.probes.append((time.perf_counter(), seconds))

    def timed(self, metric: str, fn: Callable[[], object], key: Hashable = None) -> object:
        start = time.perf_counter()
        out = fn()
        self.samples[metric][key].append((start, time.perf_counter()))
        return out

    def typical(self, metric: str) -> dict[Hashable, float]:
        """Each distinct operation's median time, each run rescaled to the
        reference host speed by the probes near it."""
        ends = [end for end, _ in self.probes]

        def rescaled(start: float, end: float) -> float:
            first = bisect.bisect_left(ends, start - PROBE_WINDOW)
            last = bisect.bisect_right(ends, end + PROBE_WINDOW)
            # Every run has a probe just before it (``op``) and one after
            # it (the next ``op`` or the end of the pass).
            first, last = min(first, bisect.bisect_right(ends, start) - 1), max(last, bisect.bisect_left(ends, end) + 1)
            near = [seconds for _, seconds in self.probes[max(first, 0) : last]]
            return (end - start) * REFERENCE_S / statistics.median(near)

        return {k: statistics.median(rescaled(*run) for run in v) for k, v in self.samples[metric].items()}

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()


def require(ok: bool, check: str) -> None:
    if not ok:
        raise CheckFailed(check)


def fingerprint(value: object) -> str:
    return hashlib.sha256(repr(value).encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


def generator_counts(xml: Path, words: int) -> tuple[int, int, int, int]:
    """Words, nodes, features and edges as written by the generator, counted
    from its XML lines without going through the ingest layer."""
    nodes = features = 0
    with xml.open(encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("<node "):
                nodes += 1
            elif line.startswith("<a "):
                features += line.count("<f ")
    return words, nodes, features, 0


@dataclass
class Source:
    """One generated corpus in both source forms."""

    header: Path
    tsv: Path
    counts: tuple[int, int, int, int]


def make_source(directory: Path, words: int, seed: int) -> Source:
    header = synth.write_big_graf(directory, words=words, seed=seed)
    logical = ingest.parse_graf(header)
    tsv = synth.write_tabular(logical, directory / "tsv")
    return Source(header, tsv, generator_counts(directory / "big.xml", words))


@dataclass
class Built:
    image: Path
    data: bytes
    corpus: Corpus


def build_xml(rec: Recorder, src: Source, image: Path, docs: Path, key: str = "") -> Built:
    """Graph XML -> atomically written image -> loaded Corpus -> feature docs.
    ``key`` prefixes the sample names: set-up builds record as
    ``setup.build_s``."""

    def path() -> Corpus:
        compiler.compile_corpus(ingest.parse_graf(src.header), image)
        corpus = Corpus.from_file(image)
        featuredoc.render_docs(corpus, docs)
        return corpus

    corpus = rec.timed(key + "build_s", path)
    data = image.read_bytes()
    rec.counts[key + "image_bytes_per_word"].append(len(data) / src.counts[0])
    require(compiler.verify_image(image).ok, "verify_image reports problems")
    stats = corpus.stats()
    got = (stats.words, stats.nodes, stats.features, stats.edges)
    require(got == src.counts, f"loaded stats {got} differ from generator counts {src.counts}")
    return Built(image, data, corpus)


def time_loads(rec: Recorder, image: Path, metric: str, key: Hashable) -> None:
    """``LOADS`` loads of one image, as one distinct operation.

    ``load_ms`` always loads the 5k-word served image.  The 20k-word image
    of ``build`` outgrows the caches: on the tuning host its load time
    moved by 30% between runs of one seed, in step with no other metric,
    which no bound could hold.  Its load stays part of ``build_s``."""
    for _ in range(LOADS):
        rec.timed(metric, lambda: Corpus.from_file(image), key)


def build_tsv(rec: Recorder, src: Source, key: str = "") -> bytes:
    """Tabular source -> image bytes."""
    return rec.timed(key + "build_tsv_s", lambda: compiler.compile_to_bytes(ingest.parse_tabular(src.tsv))[0])


def docs_digest(docs: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(docs.iterdir()):
        h.update(p.name.encode("utf-8") + b"\0" + p.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# queries
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class QuerySpec:
    shape: str
    text: str
    cap: int


class QueryMaker:
    """Seeded query operands drawn from the corpus itself, so that every
    join has at least one match (the seed ignores ``timeout`` otherwise).
    Phrase types and gap limits take turns, so that each run covers all of
    them evenly."""

    def __init__(self, corpus: Corpus, rng: random.Random):
        self.c = corpus
        self.rng = rng
        self.words = list(corpus.nodes("word"))
        self.types = sorted({corpus.feature(p, "typ") for p in corpus.nodes("phrase")})
        self.turns: dict[str, int] = defaultdict(lambda: rng.randrange(len(self.types)))

    def lex(self, node: int) -> str:
        return self.c.feature(node, "lex")

    def make(self, shape: str) -> QuerySpec:
        q, rng = synth.quote_string, self.rng
        w = rng.randrange(len(self.words) - 1)
        a, b = self.lex(self.words[w]), self.lex(self.words[w + 1])
        turn = self.turns[shape] = self.turns[shape] + 1
        t, u = q(self.types[turn % len(self.types)]), q(rng.choice(self.types))
        cap = CAP
        if shape == "posting":
            text = f"[word lex={q(a)}]"
        elif shape == "adjacent_pair":
            text = f"[word lex={q(a)}] [word lex={q(b)}]"
        elif shape == "adjacent_chain":
            text, cap = f"[word lex={q(a)}] [word]", CHAIN_CAP
        elif shape == "gap_bounded":
            text = f"[phrase typ={t}] .. <= {1 + turn % 3} [phrase typ={u}]"
        elif shape == "nested":
            text = f"[clause [phrase typ={t}]]"
        elif shape == "nested_gap":
            text = f"[clause [phrase typ={t}] .. <= 1 [phrase typ={u}]]"
        elif shape == "regex_not":
            text = f"[sentence [word lex ~ {q('^' + a[0])} AND NOT text = {q(a)}]]"
        elif shape == "in_deep":
            text = f"[verse [clause [word lex IN ({q(a)}, {q(self.lex(rng.choice(self.words)))})]]]"
        elif shape == "phrase":
            text = f"[phrase typ={t}]"
        elif shape == "posting_nested":
            text = f"[clause [word lex={q(a)}]]"
        else:
            raise ValueError(f"unknown shape {shape!r}")
        return QuerySpec(shape, text, cap)

    def round(self) -> list[QuerySpec]:
        """All eight shapes once, in seeded order."""
        shapes = list(SHAPES)
        self.rng.shuffle(shapes)
        return [self.make(s) for s in shapes]


def gap_holds(gap, prev: MonadSet, nxt: MonadSet) -> bool:
    if gap.kind == syntax.ADJACENT:
        return prev.last + 1 == nxt.first
    return prev.last < nxt.first and (gap.limit is None or nxt.first - prev.last - 1 <= gap.limit)


def check_matches(corpus: Corpus, canon: dict[int, int], spec: QuerySpec, result) -> None:
    """Matches come in strictly increasing canonical order, and each one
    satisfies its otypes, gaps and nesting (checked with Corpus.monads)."""
    query = syntax.parse(spec.text)
    require(result.total == len(result.matches), f"{spec.shape}: total != len(matches)")
    require(result.total > 0, f"{spec.shape}: no match for {spec.text}")

    def ok(bs, trees, parent) -> bool:
        prev = None
        for j, (block, tree) in enumerate(zip(bs.blocks, trees)):
            if corpus.otype(tree.node) != block.otype:
                return False
            ms = corpus.monads(tree.node)
            if parent is not None and (tree.node == parent[0] or not ms.issubset(parent[1])):
                return False
            if j and not gap_holds(bs.gaps[j - 1], prev, ms):
                return False
            if block.children is not None and not ok(block.children, tree.children, (tree.node, ms)):
                return False
            prev = ms
        return len(trees) == len(bs.blocks)

    def preorder(trees):
        for t in trees:
            yield canon[t.node]
            yield from preorder(t.children)

    keys = [tuple(preorder(m)) for m in result.matches]
    require(all(x < y for x, y in zip(keys, keys[1:])), f"{spec.shape}: matches not in canonical order")
    require(all(ok(query.root, m, None) for m in result.matches), f"{spec.shape}: match breaks a gap or nesting")


def run_query(rec: Recorder, corpus: Corpus, spec: QuerySpec, metric: str, key: Hashable, reference=None):
    """One ``evaluate`` call, timed.  A traced pass then also takes the plan
    estimate and a bare enumeration to the same cap, for the per-layer
    split; they run after the timed call so that it sees the same
    conditions as in an untraced pass."""
    result = rec.timed(metric, lambda: evaluator.evaluate(corpus, spec.text, max_matches=spec.cap), key)
    if rec.tracer:
        estimate = sum(step.estimate for step in plan.explain(corpus, spec.text).steps)
        with rec.span("query.evaluator.enumerate"):
            for _ in itertools.islice(evaluator.iter_matches(corpus, spec.text), spec.cap + 1):
                pass
        rec.counts["matches"].append(result.total)
        rec.counts["candidates_est"].append(estimate)
        rec.counts["truncated"].append(int(result.truncated))
    if reference is not None:
        require(result == reference, f"{spec.shape}: result differs from the warm pass")
    return result


def oracle_gate(rec: Recorder, directory: Path, seed: int) -> None:
    """On a corpus small enough for brute force, ``evaluate`` equals
    ``brute_force_evaluate`` for every shape, three operand draws each."""
    header = synth.write_big_graf(directory, words=SIDE_WORDS, seed=seed)
    image = directory / "side.fab"
    compiler.compile_corpus(ingest.parse_graf(header), image)
    corpus = Corpus.from_file(image)
    maker = QueryMaker(corpus, random.Random(seed))
    for shape in SHAPES:
        for _ in range(3):
            text = maker.make(shape).text

            def check(text=text) -> None:
                fast = evaluator.evaluate(corpus, text)
                slow = oracle.brute_force_evaluate(corpus, text)
                require(fast == slow, f"oracle: evaluate != brute_force_evaluate for {text}")

            rec.gate(f"oracle.{shape}", check)


# ---------------------------------------------------------------------------
# session rounds
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SessionRound:
    """One researcher session: run and save queries, persist the store,
    browse, and stream query results through the CLI."""

    index: int
    saves: tuple[QuerySpec, ...]
    browse: tuple[tuple[int, ...], ...]  # seeded picks for each browse step


def make_session_round(maker: QueryMaker, index: int) -> SessionRound:
    saves = tuple(maker.make(s) for s in SESSION_SHAPES)
    browse = tuple(tuple(maker.rng.randrange(1 << 30) for _ in range(5)) for _ in range(BROWSE_STEPS))
    return SessionRound(index, saves, browse)


class Session:
    """Runs session rounds against one loaded image."""

    def __init__(self, corpus: Corpus, image: Path, work: Path):
        self.c = corpus
        self.image = image
        self.store_path = work / "store.json"
        self.nodes = {ot: list(corpus.nodes(ot)) for ot in ("word", "phrase", "sentence")}
        self.reference: dict[int, object] = {}

    def browse(self, picks: tuple[int, ...], store, saved: list) -> tuple:
        """One browse step: a passage's margin, a page of a saved query, and
        navigation from seeded nodes.  Taken as one operation, its latency
        has one mode instead of one per call kind."""
        c, words = self.c, self.nodes["word"]
        verses = [v for s in saved for v, _ in s.snapshot]
        s = saved[picks[0] % len(saved)]
        word = words[picks[2] % len(words)]
        return (
            annotations.margin(store, c, verses[picks[1] % len(verses)]),
            annotations.result_page(s, 1 + picks[1] % max(1, -(-s.verse_count // PAGE_SIZE)), PAGE_SIZE),
            c.up(word),
            c.down(self.nodes["phrase"][picks[3] % len(self.nodes["phrase"])]),
            c.text_of(self.nodes["sentence"][picks[4] % len(self.nodes["sentence"])]),
            c.passage_of(word),
        )

    def stream(self, rec: Recorder, key: Hashable, fmt: str, spec: QuerySpec, expected: int) -> str:
        """``fabric query`` in-process with stdout captured; checks the exit
        code and the row count."""
        out = io.StringIO()
        argv = ["query", str(self.image), "-q", spec.text, "--format", fmt, "--limit", str(STREAM_LIMIT)]

        def call() -> int:
            with contextlib.redirect_stdout(out):
                return cli.main(argv)

        code = rec.timed("stream", call, key)
        rec.streamed[key] = expected
        lines = out.getvalue().splitlines()
        blocks = len(syntax.parse(spec.text).blocks_preorder())
        want = {"tsv": expected * blocks, "json": expected, "text": expected + 1}[fmt]
        require(code == 0, f"cli {fmt}: exit code {code}")
        require(len(lines) == want, f"cli {fmt}: {len(lines)} lines, expected {want}")
        return out.getvalue()

    def persist(self, rec: Recorder, key: Hashable, store) -> bytes:
        """Export the store, import it back with verification, and check the
        round trip."""

        def round_trip():
            annotations.export_store(store, self.store_path)
            return annotations.import_store(self.store_path, self.c)

        back = rec.timed("persist", round_trip, key)
        first, second = self.store_path.read_bytes(), annotations.export_bytes(back)
        rec.counts["store_bytes"].append(len(first))
        require(first == second, "store: export -> import -> export is not byte-identical")
        for which in (store, back):
            require(which.verse_index() == which.rebuild_verse_index(), "store: verse_index != rebuild_verse_index")
        return first

    def run(self, rec: Recorder, rnd: SessionRound) -> None:
        """All operations of one round; outputs must equal the first pass."""
        outputs: list[object] = []
        store = annotations.AnnotationStore.for_corpus(self.c)
        saved = []
        for j, spec in enumerate(rnd.saves):
            result = rec.op(f"session.{spec.shape}", lambda: run_query(rec, self.c, spec, "session.query", (rnd.index, j)))
            s = rec.op(
                "save",
                lambda: rec.timed(
                    "save",
                    lambda: annotations.save_query(store, self.c, spec.text, name=f"q{j}", author=AUTHOR, now=NOW),
                    (rnd.index, j),
                ),
            )
            if s is not None:
                saved.append(s)
                rec.counts["snapshot_verses"].append(s.verse_count)
                rec.counts["snapshot_nodes"].append(sum(len(n) for _, n in s.snapshot))
            outputs.append((result, s))
        outputs.append(rec.op("persist", lambda: self.persist(rec, rnd.index, store)))
        for step, picks in enumerate(rnd.browse):
            outputs.append(
                rec.op("browse", lambda: rec.timed("browse", lambda: self.browse(picks, store, saved), (rnd.index, step)))
            )
        formats = itertools.cycle(("tsv", "json", "text"))
        for j, (fmt, spec, (result, _)) in enumerate(zip(formats, rnd.saves, outputs[: len(rnd.saves)])):
            expected = min(STREAM_LIMIT, result.total) if result is not None else 0
            outputs.append(rec.op(f"stream.{fmt}", lambda: self.stream(rec, (rnd.index, j), fmt, spec, expected)))
        ref = self.reference.setdefault(rnd.index, outputs)
        if ref is outputs:
            rec.digest.update(fingerprint(outputs).encode("ascii"))
        elif outputs != ref:
            rec.fail(f"session round {rnd.index}: outputs differ from the warm pass")


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Serving:
    built: Built
    session: Session
    rounds: list[SessionRound]
    maker: QueryMaker


def setup_serving(rec: Recorder, work: Path, seed: int, sizes: Sizes, session_rounds: int) -> Serving:
    """Generate the 5k-word corpus and build, check and load its image.
    On ``query`` and ``session`` these builds give the build metrics."""
    src = make_source(work / "serve", sizes.serve_words, seed)
    built = rec.op("setup.build_xml", lambda: build_xml(rec, src, work / "serve.fab", work / "serve-docs", "setup."))
    tsv = rec.op("setup.build_tsv", lambda: build_tsv(rec, src, "setup."))
    if built is None:
        raise CheckFailed("the served image did not build")
    rec.op("setup.load", lambda: time_loads(rec, built.image, "setup.load_ms", work))
    rec.gate("xml_equals_tsv", lambda: require(built.data == tsv, "XML and TSV images differ"))
    maker = QueryMaker(built.corpus, random.Random(seed))
    session = Session(built.corpus, built.image, work)
    rounds = [make_session_round(maker, i) for i in range(session_rounds)]
    return Serving(built, session, rounds, maker)


def schedule(rounds: list[list[QuerySpec]], first: int = 0):
    """Each query with its place in the schedule, which identifies it as a
    distinct operation even where two places drew the same text."""
    for r, specs in enumerate(rounds, first):
        for j, spec in enumerate(specs):
            yield (r, j), spec


def loop(seconds: float, cycle: Callable[[int], None], resetups: list[Callable[[], None]]) -> None:
    """Closed loop of whole cycles for ``seconds`` of cycle time, at least
    one.  The repeated set-ups run between cycles, spread evenly over the
    loop, so that their timings sample the whole run like the cycles do;
    their time is not loop time."""
    busy, done, parts = 0.0, 0, len(resetups) + 1
    for i in itertools.count():
        start = time.perf_counter()
        cycle(i)
        busy += time.perf_counter() - start
        while done < len(resetups) and busy >= seconds * (done + 1) / parts:
            resetups[done]()
            done += 1
        if busy >= seconds:
            return


def run_pass(workload: str, seed: int, seconds: float, sizes: Sizes, work: Path, tracer: Tracer | None) -> Recorder:
    """Set up, warm up and run one workload; returns everything measured."""
    if workload not in ("build", "query", "session"):
        raise ValueError(f"unknown workload {workload!r}")
    rec = Recorder(tracer)
    # The build and query loops end each cycle with a short session, always
    # the same one, so that its operations repeat often enough to take their median.
    session_rounds = sizes.session_rounds if workload == "session" else 1

    def setup(k: int) -> tuple[Serving, Source | None]:
        d = work / f"setup{k}"

        def inputs() -> tuple[Serving, Source | None]:
            big = make_source(d / "big", sizes.build_words, seed) if workload == "build" else None
            return setup_serving(rec, d, seed, sizes, session_rounds), big

        return rec.timed("setup_s", inputs, k)

    serving, big = setup(0)
    corpus = serving.built.corpus
    rec.digest.update(hashlib.sha256(serving.built.data).hexdigest().encode("ascii"))

    def resetup(k: int) -> None:
        again, _ = setup(k)
        shutil.rmtree(work / f"setup{k}")
        rec.gate("compile_twice_identical", lambda: require(again.built.data == serving.built.data, "compiling twice gave different bytes"))

    sessions = serving.rounds
    for rnd in sessions:  # warm pass: reference outputs and digest
        serving.session.run(rec, rnd)

    if workload == "build":
        d, first = work / "setup0", []

        def cycle(i: int) -> None:
            built = rec.op("build_xml", lambda: build_xml(rec, big, d / "big.fab", d / "big-docs"))
            docs = docs_digest(d / "big-docs")
            tsv = rec.op("build_tsv", lambda: build_tsv(rec, big))
            serving.session.run(rec, sessions[0])
            rec.op("load", lambda: time_loads(rec, serving.built.image, "load_ms", i))
            if built is None:
                return
            rec.gate("xml_equals_tsv", lambda: require(built.data == tsv, "XML and TSV images differ"))
            if not first:
                first.append((built.data, docs))
                rec.digest.update(fingerprint((hashlib.sha256(built.data).hexdigest(), docs)).encode("ascii"))
            else:
                rec.gate("compile_twice_identical", lambda: require((built.data, docs) == first[0], "rebuild gave other outputs"))

    elif workload == "query":
        rounds = [serving.maker.round() for _ in range(sizes.query_rounds)]
        canon = {node: i for i, node in enumerate(corpus.nodes())}
        references = {}
        for key, spec in schedule(rounds):  # warm pass
            result = rec.op(f"query.{spec.shape}", lambda: run_query(rec, corpus, spec, "query", key))
            references[key] = result
            rec.digest.update(fingerprint((spec.text, result)).encode("ascii"))
            if result is not None:
                rec.gate(f"order.{spec.shape}", lambda: check_matches(corpus, canon, spec, result))
        oracle_gate(rec, work / "side", seed)

        def cycle(i: int) -> None:
            for j in range(QUERY_ROUNDS_PER_SESSION):
                r = (i * QUERY_ROUNDS_PER_SESSION + j) % len(rounds)
                for key, spec in schedule(rounds[r : r + 1], r):
                    rec.op(f"query.{spec.shape}", lambda: run_query(rec, corpus, spec, "query", key, references[key]))
            serving.session.run(rec, sessions[0])

    else:

        def cycle(i: int) -> None:
            serving.session.run(rec, sessions[i % len(sessions)])

    # Timed samples start here; set-up samples keep accruing in the loop.
    for name in list(rec.samples):
        if not name.startswith("setup"):
            rec.samples[name].clear()
    # The loaded corpora live to the end of the pass: move them out of the
    # collector's reach, so that timed operations do not pay for rescanning
    # them.
    gc.collect()
    gc.freeze()
    try:
        count = BUILD_SETUPS if workload == "build" else sizes.setups
        loop(seconds, cycle, [lambda k=k: resetup(k) for k in range(1, count)])
        if tracer:  # every shape once, so each traced run reports every shape
            for key, spec in schedule([serving.maker.round()]):
                rec.op(f"query.{spec.shape}", lambda: run_query(rec, corpus, spec, "shape_check", key))
    finally:
        gc.unfreeze()
    rec.probe(force=True)
    return rec


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

SCALE = {"s": 1.0, "ms": 1e3, "us": 1e6}


def p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def end_to_end(rec: Recorder, wanted: list[tuple[str, str]]) -> dict[str, tuple[float, str, int]]:
    """The named end-to-end metrics as (value, unit, sample count).  Times
    are computed in seconds and scaled to the unit asked for; the sample
    count is the number of distinct operations behind the value."""
    t = {name: list(rec.typical(name).values()) for name in list(rec.samples)}
    for name in ("build_s", "build_tsv_s", "load_ms"):
        t[name] = t.get(name) or t["setup." + name]
    queries = t.get("query") or t["session.query"]
    stream = [(rec.streamed[key], s) for key, s in rec.typical("stream").items()]
    size = rec.counts.get("image_bytes_per_word") or rec.counts["setup.image_bytes_per_word"]
    med = statistics.median
    values = {
        "setup_s": (med(t["setup_s"]), len(t["setup_s"])),
        "build_s": (med(t["build_s"]), len(t["build_s"])),
        "build_tsv_s": (med(t["build_tsv_s"]), len(t["build_tsv_s"])),
        # A mean over the load operations: their levels are bimodal on the
        # tuning host, and a median of a few would jump between the modes.
        "load_ms": (statistics.fmean(t["load_ms"]), len(t["load_ms"])),
        "image_bytes_per_word": (med(size), len(size)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "queries_per_s": (len(queries) / sum(queries), len(queries)),
        "query_p50_ms": (med(queries), len(queries)),
        "query_p90_ms": (p90(queries), len(queries)),
        "save_p50_ms": (med(t["save"]), len(t["save"])),
        "save_p90_ms": (p90(t["save"]), len(t["save"])),
        "persist_ms": (med(t["persist"]), len(t["persist"])),
        "browse_p50_us": (med(t["browse"]), len(t["browse"])),
        "browse_p90_us": (p90(t["browse"]), len(t["browse"])),
        "stream_matches_per_s": (sum(n for n, _ in stream) / sum(s for _, s in stream), len(stream)),
        "ops_failed_frac": (rec.failed / rec.attempted, rec.attempted),
    }
    return {name: (SCALE.get(unit, 1.0) * values[name][0], unit, values[name][1]) for name, unit in wanted}
