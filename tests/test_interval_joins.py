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
arbitrary monad sets.
"""

from __future__ import annotations

import json
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fabric.annotations import AnnotationStore, _verify_snapshot, build_snapshot, save_query
from fabric.cli import CliConfig, _stream_matches
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus
from fabric.errors import StoreError
from fabric.ingest import parse_graf
from fabric.model import CorpusMetadata, LogicalCorpus, MonadSet, Node, Region
from fabric.query import evaluator
from fabric.query.evaluator import ResultSet, _Eval, evaluate, iter_matches
from fabric.query.oracle import _expr_true
from fabric.query.syntax import parse
from fabric.synth import quote_string, random_corpus, write_big_graf
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
        for block in query.blocks_preorder():
            assert self.corpus._ids[ev.candidates(block)[0]].tolist() == self.joined(block), text
            # A source's estimate is exact: the posting list's length, or the otype's node count.
            source = ev.source_for(block)
            if source.kind == "posting":
                assert source.estimate == len(ev._posting_rows(source)), text
            else:
                assert source.estimate == len(self.by_otype[block.otype]), text
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


@settings(max_examples=80, deadline=None)
@given(multirun_corpora(), st.randoms(use_true_random=False))
def test_multirun_nodes_match_set_semantics(logical, rng):
    scan = Scan(logical)
    scan.check_nodes(scan.order, rng)
    for text in ("[phrase [phrase]]", "[verse [phrase]]", "[phrase [verse [word]]]", "[verse [verse]]"):
        scan.check_query(text)
    # Snapshot verification accepts every (verse, node) pair whose monads
    # meet, and rejects each pair whose envelopes overlap but monads do not.
    m = scan.monads
    pairs = [(v, n) for v in scan.passages for n in scan.order]
    saved = save_query(AnnotationStore.for_corpus(scan.corpus), scan.corpus, "[word]", name="w", author="a")
    met = tuple((v, (n,)) for v, n in pairs if m[v] & m[n])
    _verify_snapshot(scan.corpus, replace(saved, snapshot=met))
    for v, n in pairs:
        if not m[v] & m[n] and min(m[v]) <= max(m[n]) and min(m[n]) <= max(m[v]):
            with pytest.raises(StoreError, match=f"node {n} does not intersect verse {v}$"):
                _verify_snapshot(scan.corpus, replace(saved, snapshot=met + ((v, (n,)),)))


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
