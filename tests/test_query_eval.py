import contextlib
import io
import random
import time
from itertools import groupby, islice

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import reference
from fabric.cli import main
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus
from fabric.errors import OracleGuardError, QueryError
from fabric.model import (
    CorpusMetadata,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
)
from fabric.query.evaluator import evaluate, iter_matches
from fabric.query.oracle import brute_force_evaluate
from fabric.query.plan import explain
from fabric.query.syntax import parse, quote_string
from fabric.synth import _QueryGen, random_corpus
from strategies import corpus_and_query


def rows(result):
    return [list(r) for r in reference.result_rows(result)]


def error_text(run, corpus, q):
    with pytest.raises(QueryError) as exc:
        run(corpus, q)
    return str(exc.value)


def words_corpus(count, freqs=None, metadata=None):
    """count words "w1 w2 ...", one verse over everything."""
    text = " ".join(f"w{i}" for i in range(1, count + 1))
    slots, nodes, features = [], [], []
    offset = 0
    for i in range(1, count + 1):
        token = f"w{i}"
        slots.append(Region(offset, offset + len(token)))
        offset += len(token) + 1
        nodes.append(Node(i, "word", MonadSet.from_monads([i])))
        features.append(FeatureAssignment("N", i, "text", token))
    nodes.append(Node(1000, "verse", MonadSet.from_monads(range(1, count + 1))))
    for nid, freq in (freqs or {}).items():
        features.append(FeatureAssignment("N", nid, "freq", str(freq)))
    logical = LogicalCorpus.assemble(
        text=text,
        slots=slots,
        nodes=nodes,
        features=features,
        metadata=metadata
        or CorpusMetadata(otypes=("verse", "word"), int_features=frozenset({"freq"})),
    )
    return Corpus.from_bytes(compile_to_bytes(logical)[0])


@pytest.fixture(scope="module")
def freq_corpus():
    # words 1..4 carry freq 1, 2, 3, except word 4 which has none
    return words_corpus(4, freqs={1: 1, 2: 2, 3: 3})


class TestGoldenQueries:
    def test_pinned_results(self, toy4_corpus, golden):
        for case in golden("toy4_queries.json")["queries"]:
            result = evaluate(toy4_corpus, case["q"])
            assert rows(result) == case["matches"], case["q"]
            assert list(result.verses) == case["verses"], case["q"]
            assert result.total == len(case["matches"])
            assert not result.truncated

    def test_oracle_agrees_with_pinned_results(self, toy4_corpus, golden):
        for case in golden("toy4_queries.json")["queries"]:
            result = brute_force_evaluate(toy4_corpus, case["q"])
            assert rows(result) == case["matches"], case["q"]
            assert list(result.verses) == case["verses"], case["q"]

    def test_pinned_plans(self, toy4_corpus, golden):
        want = golden("toy4_queries.json")
        assert explain(toy4_corpus, '[word lex="fox"]').render().splitlines() == want["plan_fox"]
        assert explain(toy4_corpus, "[word]").render().splitlines() == want["plan_word_scan"]


class TestPlans:
    def test_repeated_in_member_counts_once(self, toy4_corpus):
        plan = explain(toy4_corpus, '[word lex IN ("fox", "fox", "fox", "fox", "fox")]')
        assert plan.render().splitlines()[0] == (
            '[word] dictionary lookup lex→("fox", "fox", "fox", "fox", "fox"), 1 candidate'
        )

    def test_integer_equality_uses_posting_list(self, freq_corpus):
        plan = explain(freq_corpus, '[word freq="02"]')
        assert plan.render().splitlines()[0] == '[word] dictionary lookup freq→"02", 1 candidate'
        assert rows(evaluate(freq_corpus, '[word freq="02"]')) == [[2]]

    def test_rendered_operands_parse_back(self, toy4_corpus):
        members = ("fox", 'a"b', "c\\d", "e\tf")
        spelled = ", ".join(map(quote_string, members))
        for op, text in (("IN", f"[word lex IN ({spelled})]"), ("=", f"[word lex = {quote_string(''.join(members))}]")):
            operand = parse(text).root.blocks[0].constraint.operand
            line = explain(toy4_corpus, text).render().splitlines()[0]
            rendered = line.split("lex→", 1)[1].rsplit(", ", 1)[0]
            assert parse(f"[word lex {op} {rendered}]").root.blocks[0].constraint.operand == operand


class TestResultOrder:
    def test_sequence_results_are_lexicographic(self, toy4_corpus):
        result = evaluate(toy4_corpus, "[word] .. [word]")
        assert rows(result) == [
            [1, 2], [1, 3], [1, 4], [2, 3], [2, 4], [3, 4],
        ]

    def test_accepts_parsed_query_objects(self, toy4_corpus):
        from fabric.query.syntax import parse

        text = '[word lex="fox"]'
        assert rows(evaluate(toy4_corpus, parse(text))) == rows(evaluate(toy4_corpus, text))


class TestGapSemantics:
    def test_zero_limited_gap_equals_adjacency(self, toy4_corpus):
        limited = evaluate(toy4_corpus, "[word] .. <= 0 [word]")
        adjacent = evaluate(toy4_corpus, "[word][word]")
        assert rows(limited) == rows(adjacent) == [[1, 2], [2, 3], [3, 4]]

    def test_gap_limit_counts_skipped_monads(self, toy4_corpus):
        assert rows(evaluate(toy4_corpus, "[word] .. <= 1 [word]")) == [
            [1, 2], [1, 3], [2, 3], [2, 4], [3, 4],
        ]

    @pytest.mark.parametrize("limit", [2**63 - 1, 10**23])
    def test_huge_limits_mean_no_limit(self, toy4_corpus, limit):
        # No gap skips more monads than the corpus width, so any limit at
        # least that wide is no bound.
        q = f"[word] .. <= {limit} [word]"
        assert rows(evaluate(toy4_corpus, q)) == rows(brute_force_evaluate(toy4_corpus, q))
        assert rows(evaluate(toy4_corpus, q)) == rows(evaluate(toy4_corpus, "[word] .. [word]"))

    def test_gap_is_exclusive_of_overlap(self, toy4_corpus):
        # A phrase and a word inside it never form a sequence.
        assert rows(evaluate(toy4_corpus, '[phrase typ="NP"] .. [word text="fox"]')) == []


class TestAbsentKeys:
    def test_absent_key_makes_atom_false(self, freq_corpus):
        assert rows(evaluate(freq_corpus, "[word freq<>2]")) == [[1], [3]]

    def test_not_flips_absent_to_true(self, freq_corpus):
        assert rows(evaluate(freq_corpus, "[word NOT freq=2]")) == [[1], [3], [4]]

    def test_oracle_agrees_on_absent_keys(self, freq_corpus):
        for q in ("[word freq<>2]", "[word NOT freq=2]"):
            assert rows(brute_force_evaluate(freq_corpus, q)) == rows(evaluate(freq_corpus, q))


class TestIntegerSemantics:
    def test_ordered_comparison(self, freq_corpus):
        assert rows(evaluate(freq_corpus, "[word freq<3]")) == [[1], [2]]
        assert rows(evaluate(freq_corpus, "[word freq>=2]")) == [[2], [3]]

    def test_equality_parses_operands_numerically(self, freq_corpus):
        assert rows(evaluate(freq_corpus, "[word freq=2]")) == [[2]]
        assert rows(evaluate(freq_corpus, '[word freq="2"]')) == [[2]]
        assert rows(evaluate(freq_corpus, '[word freq="02"]')) == [[2]]

    def test_in_parses_members_numerically(self, freq_corpus):
        assert rows(evaluate(freq_corpus, '[word freq IN ("1", "03")]')) == [[1], [3]]

    def test_string_equality_on_plain_keys_is_exact(self, freq_corpus):
        assert rows(evaluate(freq_corpus, '[word text="w2"]')) == [[2]]
        assert rows(evaluate(freq_corpus, '[word text="W2"]')) == []


class TestRegexSemantics:
    def test_search_not_fullmatch(self, toy4_corpus):
        assert rows(evaluate(toy4_corpus, '[word text~"o"]')) == [[3]]
        assert rows(evaluate(toy4_corpus, '[word text~"u"]')) == [[2], [4]]

    def test_anchoring_is_explicit(self, toy4_corpus):
        assert rows(evaluate(toy4_corpus, '[word text~"^the$"]')) == [[1]]
        assert rows(evaluate(toy4_corpus, '[word text~"he"]')) == [[1]]


class TestErrors:
    CASES = [
        "[para]",
        '[word nope="1"]',
        '[word NOT nope="1"]',
        "[word text<5]",
        '[word text<5 OR nope="1"]',
        '[word nope="1"] [para]',
    ]

    @pytest.mark.parametrize("q", CASES)
    def test_evaluator_and_oracle_raise_alike(self, toy4_corpus, q):
        assert error_text(evaluate, toy4_corpus, q) == error_text(brute_force_evaluate, toy4_corpus, q)

    INT_CASES = [
        '[word freq<"3"]',
        '[word freq="x"]',
        '[word freq IN ("1", "x")]',
        "[word freq~\"3\"]",
    ]

    @pytest.mark.parametrize("q", INT_CASES[:3])
    def test_integer_operand_errors(self, freq_corpus, q):
        assert error_text(evaluate, freq_corpus, q) == error_text(brute_force_evaluate, freq_corpus, q)

    def test_regex_on_int_key_matches_stored_text(self, freq_corpus):
        # ~ stays a string operator even on integer-typed keys
        assert rows(evaluate(freq_corpus, '[word freq~"3"]')) == [[3]]

    def test_errors_come_before_any_matching(self, freq_corpus):
        # resolution errors fire even when another block could never match
        with pytest.raises(QueryError):
            evaluate(freq_corpus, '[word text="nope"][word text<1]')


class TestLimits:
    def test_max_matches_truncates(self, toy4_corpus):
        result = evaluate(toy4_corpus, "[word]", max_matches=2)
        assert result.total == 2
        assert result.truncated
        assert rows(result) == [[1], [2]]

    def test_negative_max_matches_keeps_none(self, toy4_corpus):
        result = evaluate(toy4_corpus, "[word]", max_matches=-1)
        assert result.total == 0 and result.truncated and result.verses == ()

    def test_zero_timeout_truncates(self, toy4_corpus):
        result = evaluate(toy4_corpus, "[word]", timeout=0)
        assert result.truncated

    def test_timeout_holds_when_nothing_matches(self):
        # Word 1 never follows four other words, so the join expands every
        # ordered 4-tuple of words, C(200, 4) = 64,684,950 prefixes, which
        # takes seconds even a chunk at a time, and yields nothing.
        corpus = words_corpus(200)
        started = time.monotonic()
        result = evaluate(corpus, '[word] .. [word] .. [word] .. [word] .. [word text="w1"]', timeout=0.1)
        assert time.monotonic() - started < 1.0
        assert result.truncated
        assert result.matches == ()

    def test_iter_matches_streams(self, toy4_corpus):
        first_two = list(islice(iter_matches(toy4_corpus, "[word]"), 2))
        assert [reference.flatten_match(m) for m in first_two] == [(1,), (2,)]

    def test_verses_cover_only_outer_matches(self, toy4_corpus):
        result = evaluate(toy4_corpus, '[word lex="fox"]')
        assert result.verses == (301,)


class TestOracleGuard:
    def test_large_product_is_refused(self):
        corpus = words_corpus(22)
        with pytest.raises(OracleGuardError):
            brute_force_evaluate(corpus, "[word][word][word]")

    def test_small_product_is_fine(self):
        corpus = words_corpus(22)
        result = brute_force_evaluate(corpus, "[word][word]")
        assert result.total == 21

    def test_guard_ignores_constraints(self):
        # the guard is computed before constraints remove candidates
        corpus = words_corpus(22)
        with pytest.raises(OracleGuardError):
            brute_force_evaluate(corpus, '[word text="w1"][word][word]')

    def test_evaluator_has_no_guard(self):
        corpus = words_corpus(22)
        result = evaluate(corpus, "[word][word][word]")
        assert result.total == 20  # windows of three consecutive words


class TestRandomEquivalence:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corpus_and_query())
    def test_evaluate_matches_oracle(self, pair):
        corpus, query = pair
        try:
            fast = evaluate(corpus, query)
        except QueryError:
            with pytest.raises(QueryError):
                brute_force_evaluate(corpus, query)
            return
        slow = brute_force_evaluate(corpus, query)
        assert reference.result_rows(fast) == reference.result_rows(slow), query
        assert fast.verses == slow.verses, query
        assert fast.total == slow.total


class TestQueryMaker:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_keys_by_otype_follow_the_features(self, seed):
        corpus = Corpus.from_bytes(compile_to_bytes(random_corpus(random.Random(seed)))[0])
        want = {
            otype: [key for key in corpus.feature_keys() if any(corpus.feature(n, key) is not None for n in corpus.nodes(otype))]
            for otype in corpus.otypes()
        }
        assert _QueryGen(random.Random(0), corpus).keys_by_otype == want


class TestBlockNumbering:
    """Match-table columns, plan lines and CLI paths all follow the one
    pre-order numbering of ``Query.placed``."""

    def check(self, corpus, text, image_path):
        try:
            result = evaluate(corpus, text)
        except QueryError:
            return
        placed = parse(text).placed()
        for k, p in enumerate(placed):
            assert {corpus.otype(n) for n in result._cols[k].tolist()} <= {p.block.otype}, text
        steps = explain(corpus, text).steps
        assert [(s.depth, s.otype) for s in steps] == [(p.depth, p.block.otype) for p in placed], text
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["query", str(image_path), "-q", text, "--format", "tsv"]) == 0
        lines = [line.split("\t") for line in out.getvalue().splitlines()]
        matches = [[path for _, path, *_ in rows] for _, rows in groupby(lines, key=lambda row: row[0])]
        assert matches == [[p.path for p in placed]] * result.total, text

    def test_golden_queries(self, toy4_corpus, toy4_tree, golden):
        for case in golden("toy4_queries.json")["queries"]:
            self.check(toy4_corpus, case["q"], toy4_tree / "toy4.fab")
        assert [p.path for p in parse("[verse [clause [phrase]]]").placed()] == ["1", "1.1", "1.1.1"]

    @settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(corpus_and_query())
    def test_random_queries(self, tmp_path_factory, pair):
        corpus, text = pair
        image_path = tmp_path_factory.mktemp("numbering") / "random.fab"
        image_path.write_bytes(corpus._data)
        self.check(corpus, text, image_path)
