import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import reference
from fabric.model import (
    MonadSet,
    Node,
    Region,
    adjacent,
    canonical_compare,
    canonical_key,
    embeds,
    otype_rank_table,
    rank_otypes,
    sequence_before,
)
from fabric.synth import random_corpus
from strategies import monad_sets, monads


class TestRegion:
    def test_length(self):
        assert Region(2, 7).length == 5

    @pytest.mark.parametrize("start,end", [(-1, 3), (3, 3), (5, 2)])
    def test_rejects_degenerate_spans(self, start, end):
        with pytest.raises(ValueError):
            Region(start, end)


class TestMonadSet:
    @given(monads)
    def test_from_monads_runs_are_sorted_and_non_adjacent(self, ms):
        runs = MonadSet.from_monads(ms).runs
        for i, (first, last) in enumerate(runs):
            assert first <= last
            if i:
                assert runs[i - 1][1] + 1 < first

    @given(monads)
    def test_iteration_recovers_the_set(self, ms):
        built = MonadSet.from_monads(ms)
        assert set(built) == ms
        assert len(built) == len(ms)

    @given(monad_sets)
    def test_str_parse_round_trip(self, ms):
        assert MonadSet.parse(str(ms)) == ms

    def test_parse_examples(self):
        assert MonadSet.parse("1-3,5").runs == ((1, 3), (5, 5))
        assert MonadSet.parse(" 2 , 4-6 ").runs == ((2, 2), (4, 6))
        assert MonadSet.parse("1,2,3").runs == ((1, 3),)
        assert MonadSet.parse("").runs == ()
        # unordered and overlapping ranges merge into sorted maximal runs
        assert MonadSet.parse("5,1-3").runs == ((1, 3), (5, 5))
        assert MonadSet.parse("1-4,3-6,8").runs == ((1, 6), (8, 8))
        assert MonadSet.parse("2-3,1").runs == ((1, 3),)
        assert MonadSet.parse("1-10,2-3").runs == ((1, 10),)

    @given(
        st.text(alphabet="0123456789-٣² ", max_size=7)
        | st.tuples(st.integers(0, 9), st.integers(0, 12)).map(lambda ab: f"{ab[0]}-{ab[1]}")
    )
    def test_one_run_text_parses_as_through_the_general_path(self, text):
        """Text without a comma takes the one-run shortcut; the same range
        twice takes the general path, which must agree."""
        assume(text.strip())  # blank text is the empty set, and "," is malformed
        try:
            want = MonadSet.parse(f"{text},{text}")
        except ValueError:
            with pytest.raises(ValueError):
                MonadSet.parse(text)
        else:
            assert MonadSet.parse(text) == want

    @pytest.mark.parametrize("text", ["5-3", "a", "0", "1,2-", "-2", "1--3"])
    def test_parse_rejects_malformed_input(self, text):
        with pytest.raises(ValueError):
            MonadSet.parse(text)

    @pytest.mark.parametrize(
        "text,runs",
        [
            (" 2-2 ", ((2, 2),)),
            ("٣", ((3, 3),)),  # an Arabic-Indic three, which int() reads
            ("0", "malformed monad range '0'"),
            ("0-2", "malformed monad range '0-2'"),
            ("3-1", "malformed monad range '3-1'"),
            ("1-", "malformed monad range '1-'"),
            ("1 - 2", "malformed monad range '1 - 2'"),
            ("1-" + "9" * 20, ((1, 10**20 - 1),)),
            ("9" * 20, ((10**20 - 1, 10**20 - 1),)),
        ],
    )
    def test_parse_one_run_text(self, text, runs):
        if isinstance(runs, str):
            with pytest.raises(ValueError) as exc:
                MonadSet.parse(text)
            assert str(exc.value) == runs
        else:
            assert MonadSet.parse(text).runs == runs

    def test_direct_construction_rejects_unsorted_runs(self):
        with pytest.raises(ValueError):
            MonadSet(((3, 5), (1, 2)))
        with pytest.raises(ValueError):
            MonadSet(((1, 2), (3, 4)))  # adjacent runs must merge

    def test_empty_set_has_no_endpoints(self):
        empty = MonadSet(())
        with pytest.raises(ValueError):
            empty.first
        with pytest.raises(ValueError):
            empty.last

    @given(monads, monads)
    def test_issubset_matches_set_semantics(self, a, b):
        assert MonadSet.from_monads(a).issubset(MonadSet.from_monads(b)) == (a <= b)

    @given(monads, monads)
    def test_intersects_matches_set_semantics(self, a, b):
        got = MonadSet.from_monads(a).intersects(MonadSet.from_monads(b))
        assert got == bool(a & b)

    @given(monads)
    def test_contains_matches_membership(self, ms):
        built = MonadSet.from_monads(ms)
        for probe in range(1, max(ms) + 2):
            assert (probe in built) == (probe in ms)

    @given(monads)
    def test_endpoints(self, ms):
        built = MonadSet.from_monads(ms)
        assert built.first == min(ms)
        assert built.last == max(ms)


def _node(node_id, otype, *ms):
    return Node(node_id, otype, MonadSet.from_monads(ms))


class TestRelations:
    def test_pinned_reference_relations(self, toy4_corpus, golden):
        want = golden("toy4_core.json")["relations"]
        by_id = {n.id: n for n in toy4_corpus.as_logical_corpus().nodes}
        assert embeds(by_id[201], by_id[3]) == want["embeds_clause_word3"]
        assert embeds(by_id[101], by_id[4]) == want["embeds_phrase101_word4"]
        assert embeds(by_id[101], by_id[101]) == want["embeds_self"]
        assert sequence_before(by_id[201], by_id[101]) == want["before_clause201_phrase101"]
        assert sequence_before(by_id[1], by_id[2]) == want["before_word1_word2"]
        assert adjacent(by_id[1], by_id[2]) == want["adjacent_word1_word2"]
        assert adjacent(by_id[1], by_id[4]) == want["adjacent_word1_word4"]

    def test_equal_monad_distinct_nodes_embed_each_other(self):
        a = _node(1, "clause", 1, 2, 3)
        b = _node(2, "sentence", 1, 2, 3)
        assert embeds(a, b) and embeds(b, a)

    @given(monads, monads)
    def test_relations_match_reference(self, a, b):
        na, nb = _node(1, "phrase", *a), _node(2, "phrase", *b)
        assert embeds(na, nb) == reference.embeds(frozenset(a), frozenset(b), False)
        assert sequence_before(na, nb) == reference.sequence_before(frozenset(a), frozenset(b))
        assert adjacent(na, nb) == reference.adjacent(frozenset(a), frozenset(b))

    @given(monads)
    def test_embeds_is_irreflexive(self, ms):
        n = _node(7, "phrase", *ms)
        assert not embeds(n, n)


class TestCanonicalOrder:
    def test_pinned_comparator_examples(self, golden):
        want = golden("toy4_core.json")["comparator"]
        rank = {"clause": 0, "phrase": 1, "word": 2}
        clause = _node(10, "clause", 1, 2, 3, 4)
        phrase = _node(11, "phrase", 1, 2, 3)
        word2 = _node(2, "word", 2)
        assert (canonical_compare(clause, phrase, rank) < 0) == want[
            "clause_1_4_before_phrase_1_3"
        ]
        assert (canonical_compare(word2, clause, rank) > 0) == want["word_2_after_clause_1_4"]

    def test_compare_is_zero_only_on_the_same_node(self):
        rank = {"word": 0}
        a = _node(1, "word", 1)
        twin = _node(1, "word", 1)
        b = _node(2, "word", 1)
        assert canonical_compare(a, twin, rank) == 0
        assert canonical_compare(a, b, rank) != 0

    @settings(max_examples=40)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_sort_matches_first_principles_reference(self, seed):
        corpus = random_corpus(random.Random(seed), max_words=16)
        rank = otype_rank_table(corpus.metadata, {n.otype for n in corpus.nodes})
        got = [n.id for n in sorted(corpus.nodes, key=lambda n: canonical_key(n, rank))]
        assert got == reference.canonical_sorted(corpus.nodes, corpus.metadata)

    @settings(max_examples=25)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_comparator_is_a_strict_total_order(self, seed):
        rng = random.Random(seed)
        corpus = random_corpus(rng, max_words=10)
        rank = otype_rank_table(corpus.metadata, {n.otype for n in corpus.nodes})
        sample = rng.sample(corpus.nodes, min(8, len(corpus.nodes)))
        for a in sample:
            for b in sample:
                ab = canonical_compare(a, b, rank)
                ba = canonical_compare(b, a, rank)
                assert ab == -ba
                for c in sample:
                    if ab < 0 and canonical_compare(b, c, rank) < 0:
                        assert canonical_compare(a, c, rank) < 0


class TestOtypeRanks:
    def test_declared_then_extra_then_slot(self):
        from fabric.model import CorpusMetadata

        meta = CorpusMetadata(otypes=("verse", "clause", "word"), slot_otype="word")
        assert rank_otypes(meta, {"word", "zeta", "alpha", "clause"}) == (
            "verse",
            "clause",
            "alpha",
            "zeta",
            "word",
        )

    def test_declared_otypes_keep_rank_when_absent(self):
        from fabric.model import CorpusMetadata

        meta = CorpusMetadata(otypes=("book", "verse", "word"), slot_otype="word")
        with_nodes = otype_rank_table(meta, {"verse", "word"})
        assert with_nodes["verse"] == 1
