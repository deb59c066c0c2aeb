import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fabric.cli import CliConfig, _stream_matches
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus, UnknownOtypeWarning
from fabric.model import (
    EDGE_KIND,
    CorpusMetadata,
    Edge,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
)
from fabric.query import evaluate
from fabric.synth import random_corpus, toy4


def load(logical) -> Corpus:
    return Corpus.from_bytes(compile_to_bytes(logical)[0])


class TestToy4Goldens:
    def test_canonical_order(self, toy4_corpus, golden):
        want = golden("toy4_core.json")
        assert list(toy4_corpus.nodes()) == want["canonical_order"]

    def test_per_otype_listing(self, toy4_corpus, golden):
        want = golden("toy4_core.json")
        assert list(toy4_corpus.nodes("word")) == want["nodes_word"]
        assert list(toy4_corpus.nodes("phrase")) == want["nodes_phrase"]

    def test_features(self, toy4_corpus, golden):
        want = golden("toy4_core.json")["features"]
        assert toy4_corpus.feature(3, "text") == want["n3_text"]
        assert toy4_corpus.feature(101, "typ") == want["n101_typ"]
        assert toy4_corpus.feature(101, "text") == want["n101_text"]

    def test_up_down(self, toy4_corpus, golden):
        want = golden("toy4_core.json")
        assert toy4_corpus.up(3) == want["up_n3"]
        assert toy4_corpus.down(101, "word") == want["down_n101_word"]
        assert toy4_corpus.up(301) == want["up_n301"]
        assert toy4_corpus.down(201) == want["down_n201"]

    def test_text_of(self, toy4_corpus, golden):
        want = golden("toy4_core.json")["text_of"]
        assert toy4_corpus.text_of(101) == want["n101"]
        assert toy4_corpus.text_of(4) == want["n4"]
        assert toy4_corpus.text_of(201) == want["n201"]

    def test_text_of_discontiguous_node(self, toy4_logical, golden):
        want = golden("toy4_core.json")["text_of"]["discontiguous_1_3"]
        extended = replace(
            toy4_logical,
            nodes=toy4_logical.nodes + (Node(401, "phrase", MonadSet.parse("1,3")),),
        )
        assert load(extended).text_of(401) == want
        slots = toy4_logical.slots
        assert reference.text_of(toy4_logical.text, slots, frozenset({1, 3})) == want

    def test_monad_rendering(self, toy4_corpus, golden):
        want = golden("toy4_core.json")["monads"]
        assert str(toy4_corpus.monads(101)) == want["n101"]
        assert str(toy4_corpus.monads(301)) == want["n301"]

    def test_stats(self, toy4_corpus, golden):
        want = golden("toy4_core.json")["stats"]
        stats = toy4_corpus.stats()
        assert (stats.words, stats.nodes, stats.features, stats.edges) == (
            want["words"],
            want["nodes"],
            want["features"],
            want["edges"],
        )

    def test_width_and_text(self, toy4_corpus):
        assert toy4_corpus.width == 4
        assert toy4_corpus.text == "the quick fox jumps"

    def test_otype_and_feature_keys(self, toy4_corpus):
        assert toy4_corpus.otype(101) == "phrase"
        assert set(toy4_corpus.feature_keys()) == {"lex", "text", "typ"}
        assert toy4_corpus.feature_keys(EDGE_KIND) == ()


class TestLookups:
    def test_slot_region(self, toy4_corpus):
        assert toy4_corpus.slot_region(1) == Region(0, 3)
        assert toy4_corpus.slot_region(4) == Region(14, 19)
        with pytest.raises(KeyError):
            toy4_corpus.slot_region(0)
        with pytest.raises(KeyError):
            toy4_corpus.slot_region(5)

    def test_unknown_node_raises(self, toy4_corpus):
        with pytest.raises(KeyError):
            toy4_corpus.monads(999)

    @pytest.mark.parametrize("node", [0, -1, 2**32, 2**70])
    def test_absent_and_out_of_range_ids_are_unknown(self, toy4_corpus, node):
        with pytest.raises(KeyError):
            toy4_corpus.monads(node)
        assert toy4_corpus.feature(node, "lex") is None

    def test_unknown_feature_key_is_none(self, toy4_corpus):
        assert toy4_corpus.feature(3, "nope") is None

    def test_unknown_otype_warns_and_yields_nothing(self, toy4_corpus):
        with pytest.warns(UnknownOtypeWarning):
            nodes = toy4_corpus.nodes("typo")  # at the call, not on the first step
        assert list(nodes) == []
        with pytest.warns(UnknownOtypeWarning):
            assert toy4_corpus.up(3, "typo") == []

    def test_queries_work_on_rows_alone(self, toy4_bytes, capsys):
        """A query and its streamed output never look a node up by id, so
        they never build the id-to-row map; the first lookup by id does."""
        corpus = Corpus.from_bytes(toy4_bytes)
        evaluate(corpus, '[clause [phrase typ="NP" [word]]]')
        for fmt in ("tsv", "text"):
            assert _stream_matches(corpus, '[phrase typ="NP" [word lex="fox"]]', CliConfig(format=fmt)) == 0
        assert "n301" in capsys.readouterr().out
        assert "_by_id" not in vars(corpus)
        assert corpus.feature(3, "lex") == "fox"
        assert "_by_id" in vars(corpus)

    def test_passage_of(self, toy4_corpus):
        assert toy4_corpus.passage_of(3) == 301
        assert toy4_corpus.passage_of(101) == 301
        assert toy4_corpus.passage_of(301) == 301

    def test_passage_of_without_passages(self, toy4_logical):
        verseless = replace(
            toy4_logical,
            nodes=tuple(n for n in toy4_logical.nodes if n.otype != "verse"),
        )
        assert load(verseless).passage_of(3) is None


class TestEdges:
    def corpus(self):
        base = toy4()
        extended = replace(
            base,
            edges=(Edge(1, 4, 3, "dep"), Edge(2, 4, 1, "dep"), Edge(3, 101, 102, "link")),
            features=base.features
            + (
                FeatureAssignment(EDGE_KIND, 1, "role", "subj"),
                FeatureAssignment(EDGE_KIND, 2, "role", "det"),
            ),
        )
        return load(extended)

    def test_edges_round_trip(self):
        corpus = self.corpus()
        got = sorted(corpus.edges(), key=lambda e: e.id)
        assert [(e.id, e.src, e.dst, e.label) for e in got] == [
            (1, 4, 3, "dep"),
            (2, 4, 1, "dep"),
            (3, 101, 102, "link"),
        ]
        assert set(corpus.edge_labels()) == {"dep", "link"}

    def test_edge_features(self):
        corpus = self.corpus()
        assert corpus.feature(1, "role", EDGE_KIND) == "subj"
        assert corpus.feature(3, "role", EDGE_KIND) is None
        assert corpus.feature_keys(EDGE_KIND) == ("role",)


class TestStructuralProperties:
    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_canonical_order_matches_reference(self, seed):
        logical = random_corpus(random.Random(seed), max_words=16)
        corpus = load(logical)
        assert list(corpus.nodes()) == reference.canonical_sorted(
            logical.nodes, logical.metadata
        )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_up_down_are_converse(self, seed):
        rng = random.Random(seed)
        logical = random_corpus(rng, max_words=12)
        corpus = load(logical)
        ids = [n.id for n in logical.nodes]
        for a in rng.sample(ids, min(6, len(ids))):
            for b in corpus.down(a):
                assert a in corpus.up(b)
            for b in corpus.up(a):
                assert a in corpus.down(b)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_down_matches_reference_containment(self, seed):
        rng = random.Random(seed)
        logical = random_corpus(rng, max_words=12)
        corpus = load(logical)
        by_id = {n.id: n for n in logical.nodes}
        order = reference.canonical_sorted(logical.nodes, logical.metadata)
        pos = {nid: i for i, nid in enumerate(order)}
        for a in rng.sample(list(by_id), min(5, len(by_id))):
            monads_a = reference.monad_set(by_id[a])
            want = sorted(
                (
                    nid
                    for nid, n in by_id.items()
                    if reference.embeds(monads_a, reference.monad_set(n), nid == a)
                ),
                key=pos.__getitem__,
            )
            assert corpus.down(a) == want

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_nodes_by_otype_partition_the_node_set(self, seed):
        corpus = load(random_corpus(random.Random(seed), max_words=14))
        per_otype = [nid for t in corpus.otypes() for nid in corpus.nodes(t)]
        assert sorted(per_otype) == sorted(corpus.nodes())

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_text_of_matches_reference(self, seed):
        rng = random.Random(seed)
        logical = random_corpus(rng, max_words=14)
        corpus = load(logical)
        for node in rng.sample(logical.nodes, min(6, len(logical.nodes))):
            want = reference.text_of(
                logical.text, logical.slots, reference.monad_set(node)
            )
            assert corpus.text_of(node.id) == want


def _one_char_slots(width: int) -> tuple[str, list[Region], list[Node]]:
    """A text of ``width`` one-character words, their regions and word nodes
    (ids 1..width)."""
    slots = [Region(i, i + 1) for i in range(width)]
    return "a" * width, slots, [Node(m, "word", MonadSet(((m, m),))) for m in range(1, width + 1)]


def tied_otypes_corpus() -> LogicalCorpus:
    """300 otypes, each with the same four spans, one of them a word's and
    one of two runs; ids fall as the rank rises, so only the otype key
    orders the ties."""
    text, slots, nodes = _one_char_slots(6)
    otypes = tuple(f"t{k:03d}" for k in range(300))
    spans = (((1, 6),), ((2, 3),), ((4, 4),), ((1, 1), (5, 6)))
    for k, otype in enumerate(otypes):
        for j, runs in enumerate(spans):
            nodes.append(Node(10_000 - 10 * k - j, otype, MonadSet(runs)))
    return LogicalCorpus.assemble(text=text, slots=slots, nodes=nodes, metadata=CorpusMetadata(otypes=otypes + ("word",)))


def wide_corpus() -> LogicalCorpus:
    """70,000 one-character words and a few long nodes near the end, so a
    first monad times (width + 1) passes 2**32."""
    width = 70_000
    text, slots, nodes = _one_char_slots(width)
    spans = (((1, width),), ((60_000, width),), ((69_990, width),), ((65_000, 65_010), (69_000, width)))
    for j, runs in enumerate(spans):
        for otype in ("sentence", "clause"):
            nodes.append(Node(3 * width - len(nodes), otype, MonadSet(runs)))
    return LogicalCorpus.assemble(
        text=text, slots=slots, nodes=nodes, metadata=CorpusMetadata(otypes=("sentence", "clause", "word"))
    )


class TestCanonicalPermutation:
    """The compiled row order against the four-key lexsort and the
    reference canonical sort."""

    @staticmethod
    def check(logical: LogicalCorpus) -> Corpus:
        corpus = load(logical)
        want = reference.canonical_permutation(corpus._ids, corpus._otype_code, corpus._first, corpus._last)
        assert want.tolist() == list(range(len(corpus)))
        assert list(corpus.nodes()) == reference.canonical_sorted(logical.nodes, logical.metadata)
        return corpus

    def test_random_corpora(self):
        multi = duplicates = 0
        for seed in range(60):
            logical = random_corpus(random.Random(seed), max_words=40)
            multi += sum(len(n.monads.runs) > 1 for n in logical.nodes)
            duplicates += len(logical.nodes) - len({(n.otype, n.monads) for n in logical.nodes})
            self.check(logical)
        assert multi and duplicates

    def test_more_than_256_otypes_tied_spans(self):
        corpus = self.check(tied_otypes_corpus())
        assert len(corpus.otypes()) > 256

    def test_key_past_32_bits(self):
        corpus = self.check(wide_corpus())
        assert int(corpus._first.max()) * (corpus.width + 1) > 2**32
