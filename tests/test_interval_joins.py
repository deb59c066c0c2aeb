"""Differential tests of the interval joins at sizes the oracle refuses.

The evaluator's gap, containment and passage joins, ``Corpus.up``,
``Corpus.down``, ``Corpus.passage_of`` and ``build_snapshot`` are checked
against the plain nested scans in ``reference``.  The corpora are a
3k-word ``write_big_graf`` corpus, whose nodes are all contiguous, and
``random_corpus`` corpora, whose discontiguous phrases take the run-level
path.  Those are also checked with phrases as the passage otype, so that a
passage's envelope can overlap a node it does not meet.  The nested
shapes check the batched containment semi-join of nested blocks.  Every
query is evaluated at match-table chunk sizes 1, 2 and the default, and
``fabric query`` output is checked against a row-at-a-time rendering from
the scalar ``passage_of``, ``otype`` and ``text_of``.  In ``random_corpus``
discontiguous phrases never partly overlap one another, so the run-level
test is also checked on hand-built corpora whose phrases and verses are
arbitrary monad sets.  The evaluator's atom masks and passage join, which
run on corpus rows, are checked against their id-based forms in
``reference``, and posting-led blocks against the brute-force oracle, also
where a key's values are shared by two otypes.
The two relations every join ends in, ``Corpus._embeds`` and ``_meets``,
are checked against frozenset subset and intersection on every pair of
rows, and ``up``, ``passage_of`` and the passage join on corpora whose
first verse spans the whole text, or its first half, ahead of short ones.
Hand-built queries that reuse one ``Block`` object for equal blocks
evaluate, stream, explain and brute-force as their parsed text does.
"""

from __future__ import annotations

import functools
import json
import random
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fabric.annotations import AnnotationStore, build_snapshot, export_bytes, import_bytes, save_query
from fabric.cli import CliConfig, _stream_matches
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus
from fabric.errors import StoreError
from fabric.ingest import parse_graf
from fabric.model import CorpusMetadata, FeatureAssignment, LogicalCorpus, MonadSet, Node, Region
from fabric.query import evaluator, explain
from fabric.query.evaluator import ResultSet, _Eval, evaluate, iter_matches
from fabric.query.oracle import _expr_true, brute_force_evaluate
from fabric.query.syntax import BlockString, Not, Query, parse
from fabric.synth import quote_string, random_corpus, toy4, write_big_graf
from strategies import monad_sets

# The eight query shapes of the benchmark's query workload.
SHAPES = (
    "[word lex={a}]",
    "[word lex={a}] [word lex={b}]",
    "[word lex={a}] [word]",
    "[phrase typ={t}] .. <= {k} [phrase typ={u}]",
    "[clause [phrase typ={t}]]",
    "[clause [phrase typ={t}] .. <= 1 [phrase typ={u}]]",
    "[sentence [word lex ~ {head} AND NOT text = {a}]]",
    "[verse [clause [word lex IN ({a}, {b})]]]",
)

# Nested shapes for the containment semi-join: same-otype nesting (with
# discontiguous parents in random_corpus), two child blocks (a parent is
# pruned when either is empty), three levels with a gap inside, nested
# blocks under an outer gap, a posting-sourced parent, and a child
# constraint that matches nothing.
NESTED_SHAPES = (
    "[phrase [phrase]]",
    "[clause [phrase typ={t}] [phrase typ={u}]]",
    "[sentence [clause [phrase typ={t}] .. [word lex={a}]]]",
    "[clause [word lex={a}]] .. <= 2 [clause [word lex={b}]]",
    "[phrase typ={t} [word lex={a}]]",
    '[clause [word lex="no such lemma"]]',
)


class Scan:
    """The reference side: plain sets and lists from the logical corpus."""

    def __init__(self, logical):
        self.logical = logical
        self.corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
        self.monads = {n.id: reference.monad_set(n) for n in logical.nodes}
        self.order = reference.canonical_sorted(logical.nodes, logical.metadata)
        otype = {n.id: n.otype for n in logical.nodes}
        self.by_otype = {t: [n for n in self.order if otype[n] == t] for t in set(otype.values())}
        self.passages = self.by_otype.get(logical.metadata.passage_otype, [])
        self.cands: dict[int, list[int]] = {}  # by id of a parsed block

    def candidates(self, block) -> list[int]:
        if id(block) not in self.cands:
            nodes = self.by_otype.get(block.otype, [])
            if block.constraint is not None:
                nodes = [n for n in nodes if _expr_true(self.corpus, n, block.constraint)]
            self.cands[id(block)] = nodes
        return self.cands[id(block)]

    def joined(self, block) -> list[int]:
        """The block's candidates that embed a joined candidate of every
        child block: the evaluator's semi-join, by nested scans."""
        nodes, m = self.candidates(block), self.monads
        for child in block.children.blocks if block.children is not None else ():
            kids = self.joined(child)
            nodes = [n for n in nodes if any(reference.embeds(m[n], m[k], k == n) for k in kids)]
        return nodes

    def queries(self, rng: random.Random, shapes: tuple[str, ...] = SHAPES) -> list[str]:
        lexes = sorted({f.value for f in self.logical.features if f.key == "lex"})
        types = sorted({f.value for f in self.logical.features if f.key == "typ"})
        texts = []
        for shape in shapes:
            a, b = rng.choice(lexes), rng.choice(lexes)
            t, u = rng.choice(types), rng.choice(types)
            texts.append(
                shape.format(
                    a=quote_string(a),
                    b=quote_string(b),
                    t=quote_string(t),
                    u=quote_string(u),
                    k=rng.randint(0, 3),
                    head=quote_string("^" + a[0]),
                )
            )
        return texts

    def check_query(self, text: str) -> None:
        query = parse(text)
        self.cands.clear()
        if any(block.otype not in self.by_otype for block in query.blocks_preorder()):
            return
        ev = _Eval(self.corpus, query)
        for p, (rows, _), source in zip(ev.blocks, ev.join()[0], ev.sources):
            assert self.corpus._ids[rows].tolist() == self.joined(p.block), text
            # A source's estimate is exact: the posting list's length, or the otype's node count.
            if source.kind == "posting":
                assert source.estimate == len(ev._posting_rows(source)), text
            else:
                assert source.estimate == len(self.by_otype[p.block.otype]), text
        streamed = list(iter_matches(self.corpus, query))
        rows = [reference.flatten_match(match) for match in streamed]
        assert rows == reference.scan_matches(query.root, self.candidates, self.monads), text
        # Per cap: an eagerly built result, with the verses of the reference
        # snapshot, and that snapshot.
        cap = len(streamed) // 2
        want = {}
        for limit in (None, cap):
            kept = tuple(streamed[:limit])
            snapshot = self.snapshot(kept)
            eager = ResultSet(kept, len(kept), tuple(v for v, _ in snapshot), len(kept) < len(streamed))
            want[limit] = (eager, snapshot)
        first = {}
        for size in (1, 2, evaluator._CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluator, "_CHUNK", size)
                for limit, (eager, snapshot) in want.items():
                    result = evaluate(self.corpus, query, max_matches=limit)
                    # Between two evaluate results, == compares id columns.
                    assert result == first.setdefault(limit, result), (text, size, limit)
                    assert build_snapshot(self.corpus, result) == snapshot, (text, size, limit)
                    assert result == eager and eager == result, (text, size, limit)
                    assert repr(result) == repr(eager), (text, size, limit)
                assert save_without_trees(self.corpus, text, first[None]) == want[None][1], (text, size)

    def snapshot(self, matches) -> tuple:
        """The (verse, outermost nodes) pairs of matches, by nested scans."""
        outer = {tree.node for match in matches for tree in match}
        outer = [n for n in self.order if n in outer]
        verses = reference.passages_meeting(self.passages, outer, self.monads)
        return tuple((v, tuple(n for n in outer if self.monads[v] & self.monads[n])) for v in verses)

    def check_nodes(self, nodes: list[int], rng: random.Random) -> None:
        for node in nodes:
            assert self.corpus.down(node) == reference.down(node, self.order, self.monads)
            assert self.corpus.up(node) == reference.up(node, self.order, self.monads)
            otype = rng.choice(sorted(self.by_otype))
            typed = self.by_otype[otype]
            assert self.corpus.down(node, otype) == reference.down(node, typed, self.monads)
            assert self.corpus.up(node, otype) == reference.up(node, typed, self.monads)
            met = reference.passages_meeting(self.passages, [node], self.monads)
            assert self.corpus.passage_of(node) == (met[0] if met else None)


def save_without_trees(corpus: Corpus, text: str, result: ResultSet):
    """``save_query``'s snapshot, saved with ``MatchTree`` made to raise and
    ``Corpus._meeting`` counted: a save builds no tree and joins passages
    once.  Under the same patch, ``text`` evaluates equal to ``result``."""
    calls = []
    meeting = Corpus._meeting

    def counted(self, rows):
        calls.append(len(rows))
        return meeting(self, rows)

    def no_tree(*args):
        raise AssertionError("a MatchTree was built")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(evaluator, "MatchTree", no_tree)
        mp.setattr(Corpus, "_meeting", counted)
        saved = save_query(AnnotationStore.for_corpus(corpus), corpus, text, name="q", author="a")
        assert len(calls) == 1
        assert evaluate(corpus, text) == result
    return saved.snapshot


def cli_reference(corpus: Corpus, text: str, fmt: str) -> list[str]:
    """``fabric query`` output built one node at a time with the scalar
    ``passage_of``, ``otype`` and ``text_of``."""
    paths: list[str] = []

    def walk(bs, prefix: str) -> None:
        for i, block in enumerate(bs.blocks, start=1):
            paths.append(f"{prefix}{i}")
            if block.children is not None:
                walk(block.children, f"{prefix}{i}.")

    walk(parse(text).root, "")

    def label(node: int) -> str:
        verse = corpus.passage_of(node)
        if verse is None:
            return "-"
        ref = corpus.feature(verse, "ref")
        return f"n{verse}" if ref is None else ref

    lines = []
    result = evaluate(corpus, text)
    for i, match in enumerate(result.matches, start=1):
        nodes = reference.flatten_match(match)
        if fmt == "tsv":
            lines += [f"{i}\t{p}\tn{n}\t{corpus.otype(n)}\t{label(n)}" for p, n in zip(paths, nodes)]
        elif fmt == "json":
            entries = [
                {"path": p, "id": n, "otype": corpus.otype(n), "passage": label(n)} for p, n in zip(paths, nodes)
            ]
            lines.append(json.dumps({"match": i, "nodes": entries}))
        else:
            parts = []
            for p, n in zip(paths, nodes):
                word = corpus.otype(n) == corpus.metadata.slot_otype
                parts.append(f"[{p}] n{n}={corpus.otype(n)}" + (f" {corpus.text_of(n)!r}" if word else ""))
            lines.append(f"match {i} @ {label(nodes[0])}: {' '.join(parts)}")
    return lines + ([f"{result.total} match(es)"] if fmt == "text" else [])


@pytest.fixture(scope="module")
def big_scan(tmp_path_factory):
    header = write_big_graf(tmp_path_factory.mktemp("big"), words=3000, seed=11)
    return Scan(parse_graf(header))


def test_big_corpus_joins_match_scans(big_scan):
    rng = random.Random(5)
    for _ in range(2):
        for text in big_scan.queries(rng):
            big_scan.check_query(text)


def test_big_corpus_nested_joins_match_scans(big_scan):
    rng = random.Random(7)
    for text in big_scan.queries(rng, NESTED_SHAPES):
        big_scan.check_query(text)


def test_nested_query_honours_zero_timeout(big_scan):
    result = evaluate(big_scan.corpus, "[clause [phrase] [phrase]]", timeout=0)
    assert result.truncated and not result.matches
    assert evaluate(big_scan.corpus, "[clause [phrase] [phrase]]").matches


def test_capped_quadratic_query_expands_one_chunk(big_scan, monkeypatch):
    # 3000 words give about 4.5M matches: a capped evaluation must expand
    # one chunk of rows per block, plus the verse join of the kept matches.
    expanded = []
    pairs = Corpus._pairs

    def counted(start, stop):
        owner, pos = pairs(start, stop)
        expanded.append(len(owner))
        return owner, pos

    monkeypatch.setattr(evaluator, "_CHUNK", 64)
    monkeypatch.setattr(Corpus, "_pairs", staticmethod(counted))
    result = evaluate(big_scan.corpus, "[word] .. [word]", max_matches=10)
    assert result.total == 10 and result.truncated
    assert max(expanded) <= 64 and sum(expanded) <= 3 * 64


def test_big_corpus_traversal_matches_scans(big_scan):
    rng = random.Random(6)
    big_scan.check_nodes(rng.sample(big_scan.order, 60), rng)


@pytest.mark.parametrize("passage_otype", ["verse", "phrase"])
@pytest.mark.parametrize("seed", range(12))
def test_random_corpus_joins_match_scans(seed, passage_otype):
    rng = random.Random(seed)
    logical = random_corpus(rng, max_words=60, tricky_values=False)
    scan = Scan(replace(logical, metadata=replace(logical.metadata, passage_otype=passage_otype)))
    for text in scan.queries(rng):
        scan.check_query(text)
    scan.check_nodes(scan.order, rng)
    for text in scan.queries(rng, NESTED_SHAPES):
        scan.check_query(text)


@pytest.mark.parametrize("passage_otype", ["verse", "phrase"])
@pytest.mark.parametrize("seed", range(12))
def test_random_corpus_cli_rows_match_scalar_reference(seed, passage_otype, capsys, monkeypatch):
    rng = random.Random(seed)
    logical = random_corpus(rng, max_words=60, tricky_values=False)
    scan = Scan(replace(logical, metadata=replace(logical.metadata, passage_otype=passage_otype)))
    texts = scan.queries(rng) + scan.queries(rng, NESTED_SHAPES)
    texts = [t for t in texts if all(b.otype in scan.by_otype for b in parse(t).blocks_preorder())]
    want = {(t, fmt): cli_reference(scan.corpus, t, fmt) for t in texts for fmt in ("tsv", "json", "text")}

    def scalar_call(self, node):
        raise AssertionError("the query stream called Corpus.passage_of")

    monkeypatch.setattr(Corpus, "passage_of", scalar_call)
    for (text, fmt), lines in want.items():
        assert _stream_matches(scan.corpus, text, CliConfig(format=fmt)) == 0
        assert capsys.readouterr().out.splitlines() == lines, (text, fmt)


@st.composite
def multirun_corpora(draw):
    """One word per monad, plus verses and phrases whose monads are
    arbitrary sets: they overlap one another in part, run by run."""
    sets = draw(st.lists(monad_sets, min_size=1, max_size=8))
    otypes = draw(st.lists(st.sampled_from(("verse", "phrase")), min_size=len(sets), max_size=len(sets)))
    width = max(max(s) for s in sets)
    words = [Node(m, "word", MonadSet.from_monads([m])) for m in range(1, width + 1)]
    others = [Node(width + i, otype, s) for i, (otype, s) in enumerate(zip(otypes, sets), start=1)]
    return LogicalCorpus.assemble(
        text="w " * width,
        slots=[Region(2 * i, 2 * i + 1) for i in range(width)],
        nodes=words + others,
        metadata=CorpusMetadata(otypes=("verse", "phrase", "word")),
    )


@settings(max_examples=30, deadline=None)
@given(multirun_corpora())
def test_multirun_reconstruction_recompiles_to_the_same_bytes(logical):
    # A feature on every node, whose store names rows where the corpus
    # names ids; ids do not follow canonical order here.
    logical = LogicalCorpus.assemble(
        logical.text, logical.slots, logical.nodes,
        features=[FeatureAssignment("N", n.id, "n", str(n.id)) for n in logical.nodes],
        metadata=logical.metadata,
    )
    data, _ = compile_to_bytes(logical)
    rebuilt = Corpus.from_bytes(data).as_logical_corpus()
    assert rebuilt == logical
    assert compile_to_bytes(rebuilt)[0] == data


@settings(max_examples=80, deadline=None)
@given(multirun_corpora(), st.randoms(use_true_random=False))
def test_multirun_nodes_match_set_semantics(logical, rng):
    scan = Scan(logical)
    scan.check_nodes(scan.order, rng)
    for text in ("[phrase [phrase]]", "[verse [phrase]]", "[phrase [verse [word]]]", "[verse [verse]]"):
        scan.check_query(text)
    # Snapshot verification on import accepts every (verse, node) pair whose
    # monads meet, and rejects each pair whose envelopes overlap but monads
    # do not.
    m = scan.monads
    saved = save_query(AnnotationStore.for_corpus(scan.corpus), scan.corpus, "[word]", name="w", author="a")

    def verify(snapshot):
        store = AnnotationStore.for_corpus(scan.corpus)
        store.queries[saved.id] = replace(saved, snapshot=snapshot, verse_count=len(snapshot))
        import_bytes(export_bytes(store), scan.corpus)

    met = tuple((v, tuple(n for n in scan.order if m[v] & m[n])) for v in scan.passages)
    verify(met)
    for v, nodes in met:
        for n in scan.order:
            if not m[v] & m[n] and min(m[v]) <= max(m[n]) and min(m[n]) <= max(m[v]):
                with pytest.raises(StoreError, match=f"node {n} does not intersect verse {v}$"):
                    verify(tuple((u, ns + (n,) if u == v else ns) for u, ns in met))


def test_run_test_runs_once_per_join(monkeypatch):
    # Two containment joins and one passage join, however many pairs need
    # the run-level test.
    logical = random_corpus(random.Random(3), max_words=400, tricky_values=False)
    corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
    calls = []
    run_test = Corpus._run_test

    def counted(self, a, b, need, embed):
        calls.append(int(need.sum()))
        return run_test(self, a, b, need, embed)

    monkeypatch.setattr(Corpus, "_run_test", counted)
    assert evaluate(corpus, "[clause [phrase [word]]]").total
    assert len(calls) == 3 and sum(calls) > len(calls), calls


# TOY4, and random corpora with discontiguous phrases and tricky values.
ROW_CASES = ("toy4", "random0", "random4", "random9")


def row_case(case: str) -> LogicalCorpus:
    return toy4() if case == "toy4" else random_corpus(random.Random(int(case[6:])), max_words=60)


@functools.cache
def rows_corpus(case: str, passage_otype: str = "verse") -> Corpus:
    logical = row_case(case)
    logical = replace(logical, metadata=replace(logical.metadata, passage_otype=passage_otype))
    corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
    assert case == "toy4" or corpus._nruns.max() > 1
    return corpus


def atom_constraints(corpus: Corpus, key: str, rng: random.Random) -> list[str]:
    """Constraints of one atom on ``key``, or ``NOT`` of one: every string
    operator, and the ordered ones on an integer-typed key."""
    values = corpus.store(key).values
    a, b = quote_string(rng.choice(values)), quote_string(rng.choice(values))
    head = quote_string(re.escape(rng.choice(values)[:2]))
    int_typed = key in corpus.metadata.int_features
    absent = quote_string("999999" if int_typed else "no such value")
    texts = [f"{key} = {a}", f"{key} <> {a}", f"{key} IN ({a}, {b})", f"{key} ~ {head}", f"{key} = {absent}"]
    texts += [f"NOT {key} = {a}", f"NOT {key} ~ {head}"]
    if int_typed:
        bound = int(rng.choice(values))
        texts += [f"{key} {op} {bound}" for op in ("<", "<=", ">", ">=")] + [f"NOT {key} > {bound}"]
    return texts


@pytest.mark.parametrize("case", ROW_CASES)
def test_atom_masks_on_rows_match_id_reference(case):
    corpus = rows_corpus(case)
    rng = random.Random(case)
    rows = np.array(rng.choices(range(len(corpus)), k=2 * len(corpus)))  # unsorted, with repeats
    for key in corpus.feature_keys():
        assert np.any(corpus._row_codes(key) < 0), key  # some rows lack every key
        for constraint in atom_constraints(corpus, key, rng):
            text = f"[{corpus.metadata.slot_otype} {constraint}]"
            ev = _Eval(corpus, text)
            expr = ev.blocks[0].block.constraint
            atom = expr.inner if isinstance(expr, Not) else expr
            want = reference.atom_mask_by_ids(corpus, key, ev._value_mask(atom), corpus._ids[rows])
            assert np.array_equal(ev._expr_mask(expr, rows), ~want if expr is not atom else want), text


@pytest.mark.parametrize("passage_otype", ["verse", "phrase"])
@pytest.mark.parametrize("case", ROW_CASES)
def test_passage_join_on_rows_matches_id_reference(case, passage_otype):
    corpus = rows_corpus(case, passage_otype)
    rng = random.Random(case)
    n = len(corpus)
    for size in (0, 1, 5, n, 3 * n):
        rows = np.array(rng.choices(range(n), k=size), dtype=np.int64)  # unsorted, with repeats
        got = corpus._passages_meeting(rows)
        assert all(map(np.array_equal, got, reference.passages_meeting_by_ids(corpus, corpus._ids[rows]))), size
    # Two top-level blocks: their outer columns join unsorted, with repeats.
    for text in ("[phrase] .. [phrase]", "[word] [word]", "[clause [word]] .. [phrase]"):
        result = evaluate(corpus, text)
        outer = np.concatenate([col for col, p in zip(result._cols, parse(text).placed()) if p.parent is None])
        verses, *hits = reference.passages_meeting_by_ids(corpus, outer)
        assert result.verses == tuple(verses.tolist()), text
        assert all(map(np.array_equal, result._hits, hits)), text


def with_nodes(logical: LogicalCorpus, *nodes: Node) -> LogicalCorpus:
    return LogicalCorpus.assemble(
        logical.text, logical.slots, logical.nodes + nodes, logical.edges, logical.features, logical.metadata
    )


def check_relations(corpus: Corpus, logical: LogicalCorpus) -> None:
    """``Corpus._embeds`` and ``_meets`` against frozenset subset and
    intersection: on every ordered pair of rows, disjoint envelopes and
    each row with itself included, and with either side one row."""
    m = {n.id: reference.monad_set(n) for n in logical.nodes}
    rows = np.arange(len(corpus))
    sets = [m[int(i)] for i in corpus._ids]
    embeds = np.array([[a != b and sets[b] <= sets[a] for b in rows] for a in rows])
    meets = np.array([[bool(sets[a] & sets[b]) for b in rows] for a in rows])
    a, b = np.repeat(rows, len(rows)), np.tile(rows, len(rows))
    assert np.array_equal(corpus._embeds(a, b), embeds.ravel())
    assert np.array_equal(corpus._meets(a, b), meets.ravel())
    for row in rows.tolist():
        assert np.array_equal(corpus._embeds(row, rows), embeds[row])
        assert np.array_equal(corpus._embeds(rows, row), embeds[:, row])
        assert np.array_equal(corpus._meets(row, rows), meets[row])
        assert np.array_equal(corpus._meets(rows, row), meets[:, row])


@settings(max_examples=60, deadline=None)
@given(multirun_corpora())
def test_relations_match_set_semantics(logical):
    # A copy of the last node gives two rows with equal monads.
    last = logical.nodes[-1]
    logical = with_nodes(logical, Node(last.id + 1, last.otype, last.monads))
    check_relations(Corpus.from_bytes(compile_to_bytes(logical)[0]), logical)


@pytest.mark.parametrize("case", ROW_CASES)
def test_relations_on_rows_match_set_semantics(case):
    logical = row_case(case)
    assert len(set(map(reference.monad_set, logical.nodes))) < len(logical.nodes)  # some rows have equal monads
    check_relations(rows_corpus(case), logical)


@pytest.mark.parametrize("reach", ["whole", "half"])
@pytest.mark.parametrize("case", ROW_CASES)
def test_leading_long_passage_joins_match_scans(case, reach):
    # A verse from monad 1 over the whole text (or its first half) comes
    # ahead of the short verses in canonical order, so the running maximum
    # of the verses' last monads stays high from the first verse on.
    logical = row_case(case)
    width = len(logical.slots)
    long = Node(logical.nodes[-1].id + 1, "verse", MonadSet(((1, width if reach == "whole" else width // 2),)))
    scan = Scan(with_nodes(logical, long))
    rng = random.Random(case)
    scan.check_nodes(scan.order, rng)
    m = scan.monads
    for size in (1, 5, len(scan.order)):
        nodes = set(rng.sample(scan.order, size))
        verses = reference.passages_meeting(scan.passages, nodes, m)
        want = [[n for n in scan.order if n in nodes and m[v] & m[n]] for v in verses]
        got, met, bounds = scan.corpus._passages_meeting(scan.corpus._rows(sorted(nodes)))
        assert got.tolist() == verses, size
        assert [met[i:j].tolist() for i, j in zip(bounds, bounds[1:])] == want, size


@pytest.mark.parametrize("case", ROW_CASES)
def test_posting_led_blocks_match_oracle(case):
    corpus = rows_corpus(case)
    rng = random.Random(case)
    q = quote_string
    # The conjunctions drop word w from the posting list of its lex value.
    w = rng.choice(list(corpus.nodes("word")))
    a, t, b = q(corpus.feature(w, "lex")), q(corpus.feature(w, "text")), q(rng.choice(corpus.store("lex").values))
    queries = (
        f"[word lex = {a}]",
        f"[word lex IN ({a}, {b})]",
        f"[word lex = {a} AND NOT text = {t}]",
        f"[word text = {t} AND lex IN ({b}, {a})]",
        f"[phrase [word lex = {a}]]",
        f"[word lex = {b}] .. [word lex = {a} AND text <> {t}]",
    )
    bare = conjunction = 0
    for text in queries:
        ev = _Eval(corpus, text)
        for p, source in zip(ev.blocks, ev.sources):
            if p.block.otype == "word":
                assert source.kind == "posting", text
                bare += p.block.constraint is source.atom
                conjunction += p.block.constraint is not source.atom
        assert evaluate(corpus, text) == brute_force_evaluate(corpus, text), text
    assert bare and conjunction


def shared_key_corpus() -> LogicalCorpus:
    """Twelve words whose ids descend along the text, and eight phrases,
    three of them discontiguous.  ``tag`` sits on words and phrases with
    shared values ("d" on phrases only), ``cat`` on phrases only, and the
    integer-typed ``n`` stores 7 as "7" and as "07"."""
    words = [Node(200 - m, "word", MonadSet.from_monads([m])) for m in range(1, 13)]
    phrases = {
        101: ("1-3", "a", "k"), 102: ("4-5", "a", None), 103: ("1,5-6", "b", "k"), 104: ("7-8", "d", None),
        105: ("9-12", "a", None), 106: ("2-3,8", "b", None), 107: ("10-11", "d", "j"), 108: ("12", "d", None),
    }  # fmt: skip
    nodes = words + [Node(i, "phrase", MonadSet.parse(m)) for i, (m, _, _) in phrases.items()]
    nodes += [Node(301, "verse", MonadSet.parse("1-6")), Node(302, "verse", MonadSet.parse("7-12"))]
    features = [FeatureAssignment("N", w.id, "tag", "abc"[i % 3]) for i, w in enumerate(words)]
    features += [FeatureAssignment("N", w.id, "n", ("7", "07", "8")[i % 3]) for i, w in enumerate(words)]
    features += [FeatureAssignment("N", i, "tag", tag) for i, (_, tag, _) in phrases.items()]
    features += [FeatureAssignment("N", i, "cat", cat) for i, (_, _, cat) in phrases.items() if cat]
    features.append(FeatureAssignment("N", 105, "n", "7"))
    return LogicalCorpus.assemble(
        text="w " * 12,
        slots=[Region(2 * i, 2 * i + 1) for i in range(12)],
        nodes=nodes,
        features=features,
        metadata=CorpusMetadata(otypes=("verse", "phrase", "word"), int_features=frozenset({"n"})),
    )


# Each query's first block is posting-led.
SHARED_KEY_QUERIES = (
    '[word tag = "a"]',
    '[phrase tag = "a"]',
    '[word tag = "d"]',  # a value of phrases only
    '[word cat = "k"]',  # a key of phrases only
    '[word tag IN ("a", "c")]',
    '[word tag IN ("c", "no such tag")]',
    '[word tag IN ("no such tag", "nor this")]',
    "[word n = 7]",  # two dictionary codes
    '[phrase tag = "a" [word tag IN ("a", "b")]]',
    '[phrase tag = "d"] .. [word tag = "a" AND NOT n = 8]',
    '[word tag = "b"] .. <= 2 [word tag IN ("a", "c")]',
    '[phrase cat IN ("k", "j") [word n = 7] .. [word tag = "c"]]',
)


@pytest.mark.parametrize("text", SHARED_KEY_QUERIES)
def test_posting_index_of_a_key_on_two_otypes_matches_oracle(text):
    scan = Scan(shared_key_corpus())
    ev = _Eval(scan.corpus, text)
    assert ev.sources[0].kind == "posting"
    for p, (rows, _) in zip(ev.blocks, ev.join()[0]):
        assert scan.corpus._ids[rows].tolist() == scan.joined(p.block)
    want = brute_force_evaluate(scan.corpus, text)
    for size in (1, 2, evaluator._CHUNK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(evaluator, "_CHUNK", size)
            assert evaluate(scan.corpus, text) == want, size


def test_posting_index_is_built_once_per_key_and_otype():
    corpus = Corpus.from_bytes(compile_to_bytes(row_case("random4"))[0])
    a, b = (quote_string(v) for v in corpus.store("lex").values[:2])
    built = []

    class Counted(dict):
        def __setitem__(self, key, value):
            built.append(key)
            super().__setitem__(key, value)

    corpus._posting_index = Counted()
    for text in (f"[word lex = {a}]", f"[word lex = {b}]", f"[word lex IN ({a}, {b})]", f"[phrase [word lex = {b}]]"):
        assert evaluate(corpus, text) == brute_force_evaluate(corpus, text), text
    assert built == [("lex", "word")]


def shared_blocks(bs: BlockString, pool: dict) -> BlockString:
    """``bs`` rebuilt bottom-up with each set of equal blocks as one object."""
    rebuilt = (b if b.children is None else replace(b, children=shared_blocks(b.children, pool)) for b in bs.blocks)
    return BlockString(tuple(pool.setdefault(b, b) for b in rebuilt), bs.gaps)


# A block reused at two places of the query: two children of one parent
# (evaluated wrongly, by block identity, before blocks were keyed by their
# place), and two top-level blocks.
SHARED_TOY4 = ('[clause [phrase typ="NP" [word]] [phrase typ="VP" [word]]]', "[word][word]")


@pytest.mark.parametrize("case", ["toy4", "random1", "random2", "random3"])
def test_shared_block_objects_evaluate_as_parsed_text(case):
    logical = toy4() if case == "toy4" else random_corpus(random.Random(int(case[6:])), max_words=12)
    scan = Scan(logical)
    # Each shape as drawn, and with b = a and u = t, which makes equal blocks.
    twins = tuple(shape.replace("{b}", "{a}").replace("{u}", "{t}") for shape in SHAPES + NESTED_SHAPES)
    texts = scan.queries(random.Random(case), SHAPES + NESTED_SHAPES + twins)
    texts += SHARED_TOY4 if case == "toy4" else ()
    reused = 0
    for text in texts:
        parsed = parse(text)
        query = Query(shared_blocks(parsed.root, {}), text)
        assert query == parsed, text
        reused += len({id(p.block) for p in query.placed()}) < len(query.placed())
        assert brute_force_evaluate(scan.corpus, query) == brute_force_evaluate(scan.corpus, parsed), text
        for size in (1, 2, evaluator._CHUNK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(evaluator, "_CHUNK", size)
                for run in (evaluate, lambda c, q: list(iter_matches(c, q)), lambda c, q: explain(c, q).render()):
                    assert run(scan.corpus, query) == run(scan.corpus, parsed), (text, size)
    assert reused >= len(NESTED_SHAPES)
