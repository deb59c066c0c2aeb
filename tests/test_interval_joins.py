"""Differential tests of the interval joins at sizes the oracle refuses.

The evaluator's gap, containment and passage joins, ``Corpus.up``,
``Corpus.down``, ``Corpus.passage_of`` and ``build_snapshot`` are checked
against the plain nested scans in ``reference``.  The corpora are a
3k-word ``write_big_graf`` corpus, whose nodes are all contiguous, and
``random_corpus`` corpora, whose discontiguous phrases take the run-level
path.  Those are also checked with phrases as the passage otype, so that a
passage's envelope can overlap a node it does not meet.  The nested
shapes check the batched containment semi-join of nested blocks.
"""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

import reference
from fabric.annotations import build_snapshot
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus
from fabric.ingest import parse_graf
from fabric.query.evaluator import _Eval, evaluate, iter_matches
from fabric.query.oracle import _expr_true
from fabric.query.syntax import parse
from fabric.synth import quote_string, random_corpus, write_big_graf

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
        result = evaluate(self.corpus, query)
        assert list(iter_matches(self.corpus, query)) == list(result.matches), text
        assert reference.result_rows(result) == reference.scan_matches(
            query.root, self.candidates, self.monads
        ), text
        outer = {tree.node for match in result.matches for tree in match}
        outer = [n for n in self.order if n in outer]
        verses = reference.passages_meeting(self.passages, outer, self.monads)
        assert list(result.verses) == verses, text
        assert build_snapshot(self.corpus, result) == tuple(
            (v, tuple(n for n in outer if self.monads[v] & self.monads[n])) for v in verses
        ), text

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
