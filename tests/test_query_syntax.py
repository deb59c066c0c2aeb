import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fabric.errors import QuerySyntaxError
from fabric.query.evaluator import evaluate
from fabric.query.plan import explain
from fabric.query.syntax import (
    ADJACENT,
    GAP,
    MAX_NESTING,
    And,
    Atom,
    Gap,
    Not,
    Or,
    _lex,
    parse,
)


class TestGoldenAst:
    def test_nested_query_shape(self, golden):
        want = golden("toy4_queries.json")["ast_nested"]
        query = parse('[phrase typ="NP" [word lex="fox"]]')
        block = query.root.blocks[0]
        assert block.otype == want["otype"]
        assert block.constraint == Atom(*want["constraint"])
        child = block.children.blocks[0]
        assert child.otype == want["child_otype"]
        assert child.constraint == Atom(*want["child_constraint"])

    def test_error_position(self, golden):
        want = golden("toy4_queries.json")["syntax_error"]
        with pytest.raises(QuerySyntaxError) as exc:
            parse(want["q"])
        assert exc.value.line == want["line"]
        assert exc.value.column == want["column"]
        assert list(exc.value.expected) == want["expected"]

    def test_error_message_carries_position(self, golden):
        want = golden("toy4_queries.json")["syntax_error"]
        with pytest.raises(QuerySyntaxError, match=r"line 1, column 12"):
            parse(want["q"])


class TestGaps:
    def test_juxtaposition_is_adjacent(self):
        query = parse("[word][word]")
        assert query.root.gaps == (Gap(ADJACENT),)

    def test_dotdot_is_unbounded(self):
        query = parse("[word] .. [word]")
        assert query.root.gaps == (Gap(GAP, None),)

    def test_bounded_gap(self):
        query = parse("[word] .. <= 3 [word]")
        assert query.root.gaps == (Gap(GAP, 3),)

    def test_gap_count_matches_blocks(self):
        query = parse("[word][word] .. [word]")
        assert len(query.root.blocks) == 3
        assert query.root.gaps == (Gap(ADJACENT), Gap(GAP, None))

    def test_gap_limit_must_be_an_integer(self):
        with pytest.raises(QuerySyntaxError):
            parse("[word] .. <= lots [word]")

    @pytest.mark.parametrize("limit", ["-1", "-07"])
    def test_negative_gap_limit_is_rejected_at_its_token(self, limit):
        # N counts monads; before, a negative N parsed and matched nothing.
        with pytest.raises(QuerySyntaxError, match=f"gap limit {int(limit)} is negative at line 2, column 7") as exc:
            parse(f"[word]\n.. <= {limit} [word]")
        assert (exc.value.line, exc.value.column) == (2, 7)

    def test_minus_zero_gap_limit_is_zero(self):
        assert parse("[word] .. <= -0 [word]").root.gaps == (Gap(GAP, 0),)

    def test_gap_limit_longer_than_int_reads_is_rejected_at_its_token(self):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(QuerySyntaxError) as exc:
            parse("[word]\n.. <= " + "9" * (limit + 1) + " [word]")
        assert str(exc.value) == f"integer has {limit + 1} digits, more than {limit} at line 2, column 7"


class TestOperators:
    def test_string_equality(self):
        atom = parse('[word text="the"]').root.blocks[0].constraint
        assert atom == Atom("text", "=", "the")

    def test_integer_literal_operand(self):
        atom = parse("[word freq=3]").root.blocks[0].constraint
        assert atom == Atom("freq", "=", 3)
        assert isinstance(atom.operand, int)

    @pytest.mark.parametrize("sign", ["", "-"])
    def test_operand_longer_than_int_reads_is_rejected_at_its_token(self, toy4_corpus, sign):
        limit = sys.get_int_max_str_digits()
        with pytest.raises(QuerySyntaxError) as exc:
            evaluate(toy4_corpus, "[word lex = " + sign + "9" * (limit + 1) + "]")
        assert str(exc.value) == f"integer has {limit + 1} digits, more than {limit} at line 1, column 13"

    def test_operand_of_as_many_digits_as_int_reads(self):
        digits = "9" * sys.get_int_max_str_digits()
        assert parse(f"[word freq={digits}]").root.blocks[0].constraint == Atom("freq", "=", int(digits))

    def test_quoted_integer_stays_a_string(self):
        atom = parse('[word freq="3"]').root.blocks[0].constraint
        assert atom.operand == "3"
        assert isinstance(atom.operand, str)

    @pytest.mark.parametrize("op", ["<>", "<", "<=", ">", ">="])
    def test_comparison_operators(self, op):
        atom = parse(f"[word freq{op}5]").root.blocks[0].constraint
        assert atom == Atom("freq", op, 5)

    def test_in_list(self):
        atom = parse('[word lex IN ("a", "b", "c")]').root.blocks[0].constraint
        assert atom == Atom("lex", "IN", ("a", "b", "c"))

    def test_in_requires_parenthesized_strings(self):
        with pytest.raises(QuerySyntaxError):
            parse("[word lex IN (1, 2)]")

    def test_regex_is_compiled_at_parse_time(self):
        atom = parse('[word text~"^qu"]').root.blocks[0].constraint
        assert atom.pattern is not None
        assert atom.pattern.search("quick")

    def test_bad_regex_is_a_syntax_error(self):
        with pytest.raises(QuerySyntaxError, match="bad regex"):
            parse('[word text~"("]')

    def test_regex_operand_must_be_a_string(self):
        with pytest.raises(QuerySyntaxError):
            parse("[word text~3]")


class TestBooleanStructure:
    def test_and_binds_tighter_than_or(self):
        expr = parse('[word a="1" AND b="2" OR c="3"]').root.blocks[0].constraint
        assert isinstance(expr, Or)
        assert len(expr.parts) == 2
        assert isinstance(expr.parts[0], And)
        assert expr.parts[1] == Atom("c", "=", "3")

    def test_parentheses_override_precedence(self):
        expr = parse('[word a="1" AND (b="2" OR c="3")]').root.blocks[0].constraint
        assert isinstance(expr, And)
        assert isinstance(expr.parts[1], Or)

    def test_not_binds_one_atom(self):
        expr = parse('[word NOT a="1" AND b="2"]').root.blocks[0].constraint
        assert isinstance(expr, And)
        assert expr.parts[0] == Not(Atom("a", "=", "1"))
        assert expr.parts[1] == Atom("b", "=", "2")

    def test_not_on_group_is_rejected(self):
        with pytest.raises(QuerySyntaxError):
            parse('[word NOT (a="1" OR b="2")]')

    def test_lowercase_keywords_are_not_keywords(self):
        with pytest.raises(QuerySyntaxError):
            parse('[word not a="1"]')
        with pytest.raises(QuerySyntaxError):
            parse('[word a="1" or b="2"]')


class TestStringsAndComments:
    def test_escapes(self):
        atom = parse('[word text="a\\"b\\\\c\\n"]').root.blocks[0].constraint
        assert atom.operand == 'a"b\\c\n'

    def test_bad_escape(self):
        with pytest.raises(QuerySyntaxError, match="bad string escape"):
            parse('[word text="a\\qb"]')

    @pytest.mark.parametrize("query,message", [
        ('[word text="a\\qb"]', "bad string escape \\q at line 1, column 14"),
        ('[word text="\\\\\\n\\"\\x"]', "bad string escape \\x at line 1, column 19"),
        ('[word]\n  [word text IN ("a", "b\\tc\\é")]', "bad string escape \\é at line 2, column 28"),
    ])
    def test_bad_escape_names_the_backslash(self, query, message):
        with pytest.raises(QuerySyntaxError) as exc:
            parse(query)
        assert str(exc.value) == message

    def test_unterminated_string(self):
        with pytest.raises(QuerySyntaxError, match="unterminated string"):
            parse('[word text="abc]')

    def test_comments_are_ignored(self):
        query = parse('// heading\n[word // inline\n text="the"]')
        assert query.root.blocks[0].constraint == Atom("text", "=", "the")

    def test_multiline_error_positions(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse('[word]\n[word text=@"x"]')
        assert exc.value.line == 2

    def test_unexpected_character(self):
        with pytest.raises(QuerySyntaxError, match="unexpected character"):
            parse("[word] %")


# Pieces of query text, tokens and broken tokens, plus any non-ASCII character.
LEX_PIECES = (
    "[", "]", "(", ")", ",", '"', "\\", "//", "..", ".", "<=", "<", ">", "=", "~",
    "0", "42", "-", "a", "Z", "_", "OR", "IN", "NOT", " ", "\t", "\r", "\n", "%",
)  # fmt: skip


@settings(max_examples=400, deadline=None)
@given(st.lists(st.one_of(st.sampled_from(LEX_PIECES), st.characters(min_codepoint=128, blacklist_categories=("Cs",)))))
def test_lexer_equals_the_one_match_at_a_time_reference(pieces):
    text = "".join(pieces)
    try:
        want = reference.lex(text)
    except QuerySyntaxError as exc:
        with pytest.raises(QuerySyntaxError) as got:
            _lex(text)
        assert (str(got.value), got.value.line, got.value.column) == (str(exc), exc.line, exc.column)
    else:
        assert _lex(text) == want


class TestStructureErrors:
    def test_empty_query(self):
        with pytest.raises(QuerySyntaxError):
            parse("")

    def test_block_needs_an_otype(self):
        with pytest.raises(QuerySyntaxError, match="expected an otype"):
            parse("[]")

    def test_trailing_tokens_rejected(self):
        with pytest.raises(QuerySyntaxError, match="after query"):
            parse("[word]]")

    def test_missing_operand(self):
        with pytest.raises(QuerySyntaxError):
            parse("[word text=]")

    def test_missing_operator(self):
        with pytest.raises(QuerySyntaxError, match="comparison operator"):
            parse('[word text "x"]')


def nested(blocks: int, parens: int) -> str:
    """``blocks`` nested word blocks, the innermost with its constraint
    inside ``parens`` parentheses."""
    return "[word " * blocks + "(" * parens + 'lex="fox"' + ")" * parens + "]" * blocks


class TestNesting:
    @pytest.mark.parametrize("blocks", [1, MAX_NESTING // 2, MAX_NESTING])
    def test_query_at_the_bound_runs(self, toy4_corpus, blocks):
        text = nested(blocks, MAX_NESTING - blocks)
        assert len(parse(text).placed()) == blocks
        assert evaluate(toy4_corpus, text).total == (blocks == 1)
        assert len(explain(toy4_corpus, text).steps) == blocks

    @pytest.mark.parametrize("blocks", [1, MAX_NESTING // 2, MAX_NESTING + 1, 600])
    def test_one_level_deeper_is_a_syntax_error(self, blocks):
        # Refused at the opening token that crosses the bound, however deep
        # the query goes on to nest.
        text = nested(blocks, max(MAX_NESTING + 1 - blocks, 0) + 400 * (blocks == 1))
        opening = [i for i, ch in enumerate(text) if ch in "[("]
        with pytest.raises(QuerySyntaxError, match=f"deeper than {MAX_NESTING} levels") as exc:
            parse(text)
        assert (exc.value.line, exc.value.column) == (1, opening[MAX_NESTING] + 1)


class TestQueryObject:
    def test_text_is_preserved(self):
        text = '[word lex="fox"] // find the fox'
        assert parse(text).text == text

    def test_placed_records_parent_sibling_gap_depth_and_path(self):
        query = parse("[clause [phrase] .. <= 2 [phrase [word]]] [clause]")
        got = [(p.block.otype, p.parent, p.prev, p.gap, p.depth, p.path) for p in query.placed()]
        assert got == [
            ("clause", None, None, None, 0, "1"),
            ("phrase", 0, None, None, 1, "1.1"),
            ("phrase", 0, 1, Gap(GAP, 2), 1, "1.2"),
            ("word", 2, None, None, 2, "1.2.1"),
            ("clause", None, 0, Gap(ADJACENT), 0, "2"),
        ]

    def test_blocks_preorder(self):
        query = parse("[verse [clause [phrase]] [clause]] .. [verse]")
        assert [b.otype for b in query.blocks_preorder()] == [
            "verse",
            "clause",
            "phrase",
            "clause",
            "verse",
        ]
