"""Query language lexer, parser, and AST.

Grammar (normative):

    query        := blockstring ;
    blockstring  := block { gap block } ;
    gap          := /* empty = ADJACENT */ | ".." | ".." "<=" INTEGER /* >= 0 */ ;
    block        := "[" OTYPE [ constraints ] [ blockstring ] "]" ;
    constraints  := disjunct { "OR" disjunct } ;
    disjunct     := conjunct { "AND" conjunct } ;
    conjunct     := [ "NOT" ] atom | "(" constraints ")" ;
    atom         := KEY op operand ;
    op           := "=" | "<>" | "~" | "IN" | "<" | "<=" | ">" | ">=" ;
    operand      := STRING | INTEGER | "(" STRING { "," STRING } ")" ;

Whitespace between tokens is insignificant; ``//`` starts a comment running
to end of line; STRING is double-quoted with backslash escapes.  Keywords
(OR, AND, NOT, IN) are uppercase; NOT binds to a single atom, never to a
parenthesized group.  Regex operands (``~``) are compiled at parse time and
use search semantics: unanchored unless ``^``/``$`` are written.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import NamedTuple, Union

from ..errors import QuerySyntaxError

ADJACENT = "adjacent"
GAP = "gap"

_KEYWORDS = frozenset({"OR", "AND", "NOT", "IN"})

MAX_NESTING = 100  # blocks and parentheses open at once; each is a level of recursion

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<dotdot>\.\.)
    | (?P<punct>[\[\](),])
    | (?P<op><=|>=|<>|[=<>~])
    | (?P<int>-?[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<badstring>"(?:[^"\\\n]|\\.)*)
    | (?P<bad>.)
    """,
    re.VERBOSE,
)

_STRING_ESCAPES = {'"': '"', "\\": "\\", "n": "\n", "t": "\t", "r": "\r"}
_QUOTE_ESCAPES = {value: "\\" + escape for escape, value in _STRING_ESCAPES.items()}
_STRING_ESCAPE_RE = re.compile(r"\\(.)")


class Token(NamedTuple):
    type: str  # one of: [ ] ( ) , .. op int ident string keyword eof
    text: str
    line: int
    column: int


# Token type by regex group; punctuation is its own type, and an ident may be a keyword.
_TYPES = {"dotdot": "..", "op": "op", "int": "int", "string": "string"}


def _lex(text: str) -> list[Token]:
    tokens: list[Token] = []
    line = 1
    line_start = 0
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        value = m.group()
        if kind == "ws" or kind == "comment":
            if "\n" in value:
                line += value.count("\n")
                line_start = m.start() + value.rindex("\n") + 1
            continue
        column = m.start() - line_start + 1
        if kind == "ident":
            tokens.append(Token("keyword" if value in _KEYWORDS else "ident", value, line, column))
        elif kind == "punct":
            tokens.append(Token(value, value, line, column))
        elif kind in _TYPES:
            tokens.append(Token(_TYPES[kind], value, line, column))
        elif kind == "badstring":
            raise QuerySyntaxError("unterminated string", line=line, column=column)
        elif kind == "bad":
            raise QuerySyntaxError(f"unexpected character {value!r}", line=line, column=column)
    tokens.append(Token("eof", "", line, len(text) - line_start + 1))
    return tokens


def _unescape_string(token: Token) -> str:
    """A STRING token's value; the lexer puts a character after every
    backslash."""

    def sub(m: re.Match[str]) -> str:
        if m[1] not in _STRING_ESCAPES:
            raise QuerySyntaxError(f"bad string escape {m[0]}", line=token.line, column=token.column + 1 + m.start())
        return _STRING_ESCAPES[m[1]]

    return _STRING_ESCAPE_RE.sub(sub, token.text[1:-1])


def quote_string(value: str) -> str:
    """``value`` as a STRING token; ``_unescape_string`` reads it back."""
    return '"' + "".join(_QUOTE_ESCAPES.get(ch, ch) for ch in value) + '"'


# ---------------------------------------------------------------------------
# AST
# ---------------------------------------------------------------------------

Expr = Union["Atom", "Not", "And", "Or"]


@dataclass(frozen=True, slots=True)
class Atom:
    """One comparison: key op operand.

    ``operand`` is a str for =/<>/~, an int for integer comparisons (and for
    =/<> written with an integer literal), or a tuple of strings for IN.
    ``pattern`` carries the compiled regex for ``~`` and never participates
    in equality.
    """

    key: str
    op: str
    operand: str | int | tuple[str, ...]
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)
    pattern: re.Pattern[str] | None = field(default=None, compare=False, repr=False)


@dataclass(frozen=True, slots=True)
class Not:
    inner: Atom


@dataclass(frozen=True, slots=True)
class And:
    parts: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Or:
    parts: tuple[Expr, ...]


@dataclass(frozen=True, slots=True)
class Gap:
    """Relation required between consecutive blocks of a block string."""

    kind: str  # ADJACENT or GAP
    limit: int | None = None  # max monads skipped, None = unbounded


@dataclass(frozen=True, slots=True)
class Block:
    otype: str
    constraint: Expr | None
    children: "BlockString | None"
    line: int = field(default=0, compare=False)
    column: int = field(default=0, compare=False)


@dataclass(frozen=True, slots=True)
class BlockString:
    blocks: tuple[Block, ...]
    gaps: tuple[Gap, ...]  # len(gaps) == len(blocks) - 1

    def __post_init__(self) -> None:
        if len(self.gaps) != max(len(self.blocks) - 1, 0):
            raise ValueError("need exactly one gap between consecutive blocks")


@dataclass(frozen=True, slots=True)
class Placed:
    """One block at its place in the query: the pre-order indices of its
    parent and previous sibling (None where there is none), the gap after
    that sibling, its nesting depth and its path label ("1", "1.2")."""

    block: Block
    parent: int | None
    prev: int | None
    gap: Gap | None
    depth: int
    path: str


def _place(bs: BlockString, parent: int | None, out: list[Placed]) -> None:
    up = None if parent is None else out[parent]
    prev = None
    for i, block in enumerate(bs.blocks):
        depth, path = (0, str(i + 1)) if up is None else (up.depth + 1, f"{up.path}.{i + 1}")
        out.append(Placed(block, parent, prev, bs.gaps[i - 1] if i else None, depth, path))
        prev = len(out) - 1
        if block.children is not None:
            _place(block.children, prev, out)


@dataclass(frozen=True, slots=True)
class Query:
    root: BlockString
    text: str = field(default="", compare=False)

    def placed(self) -> tuple[Placed, ...]:
        """Every block once, in pre-order: the one numbering of blocks that
        match-table columns, plan lines and CLI paths share."""
        out: list[Placed] = []
        _place(self.root, None, out)
        return tuple(out)

    def blocks_preorder(self) -> tuple[Block, ...]:
        return tuple(p.block for p in self.placed())


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0
        depth = 0
        for tok in self.tokens:
            depth += (tok.type in ("[", "(")) - (tok.type in ("]", ")"))
            if depth > MAX_NESTING:
                raise self.fail(f"query nests deeper than {MAX_NESTING} levels of blocks and parentheses", tok)

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message: str, token: Token, expected: tuple[str, ...] = ()) -> QuerySyntaxError:
        return QuerySyntaxError(message, line=token.line, column=token.column, expected=expected)

    def integer(self, token: Token) -> int:
        """An INTEGER token's value; one longer than ``int`` reads is an error."""
        try:
            return int(token.text)
        except ValueError:
            digits = len(token.text.lstrip("-"))
            raise self.fail(f"integer has {digits} digits, more than {sys.get_int_max_str_digits()}", token) from None

    def expect(self, type_: str) -> Token:
        tok = self.peek()
        if tok.type != type_:
            got = tok.text or "end of input"
            raise self.fail(f"expected {type_!r}, got {got!r}", tok, expected=(type_,))
        return self.advance()

    def parse_query(self) -> Query:
        root = self.parse_blockstring()
        tok = self.peek()
        if tok.type != "eof":
            raise self.fail(f"unexpected {tok.text!r} after query", tok, expected=("end of input",))
        return Query(root=root, text=self.text)

    def parse_blockstring(self) -> BlockString:
        blocks = [self.parse_block()]
        gaps: list[Gap] = []
        while True:
            tok = self.peek()
            if tok.type == "[":
                gaps.append(Gap(ADJACENT))
                blocks.append(self.parse_block())
            elif tok.type == "..":
                self.advance()
                nxt = self.peek()
                if nxt.type == "op" and nxt.text == "<=":
                    self.advance()
                    limit_tok = self.expect("int")
                    limit = self.integer(limit_tok)
                    if limit < 0:
                        raise self.fail(f"gap limit {limit} is negative", limit_tok, expected=("integer >= 0",))
                    gaps.append(Gap(GAP, limit))
                else:
                    gaps.append(Gap(GAP))
                blocks.append(self.parse_block())
            else:
                break
        return BlockString(blocks=tuple(blocks), gaps=tuple(gaps))

    def parse_block(self) -> Block:
        open_tok = self.expect("[")
        otype_tok = self.peek()
        if otype_tok.type != "ident":
            raise self.fail("expected an otype name", otype_tok, expected=("otype",))
        self.advance()
        constraint: Expr | None = None
        if self.peek().type in ("ident", "(") or (
            self.peek().type == "keyword" and self.peek().text == "NOT"
        ):
            constraint = self.parse_constraints()
        children: BlockString | None = None
        if self.peek().type == "[":
            children = self.parse_blockstring()
        self.expect("]")
        return Block(
            otype=otype_tok.text,
            constraint=constraint,
            children=children,
            line=open_tok.line,
            column=open_tok.column,
        )

    def parse_constraints(self) -> Expr:
        parts = [self.parse_disjunct()]
        while self.peek().type == "keyword" and self.peek().text == "OR":
            self.advance()
            parts.append(self.parse_disjunct())
        return parts[0] if len(parts) == 1 else Or(parts=tuple(parts))

    def parse_disjunct(self) -> Expr:
        parts = [self.parse_conjunct()]
        while self.peek().type == "keyword" and self.peek().text == "AND":
            self.advance()
            parts.append(self.parse_conjunct())
        return parts[0] if len(parts) == 1 else And(parts=tuple(parts))

    def parse_conjunct(self) -> Expr:
        tok = self.peek()
        if tok.type == "keyword" and tok.text == "NOT":
            self.advance()
            atom = self.parse_atom()
            return Not(inner=atom)
        if tok.type == "(":
            self.advance()
            inner = self.parse_constraints()
            self.expect(")")
            return inner
        return self.parse_atom()

    def parse_atom(self) -> Atom:
        key_tok = self.peek()
        if key_tok.type != "ident":
            got = key_tok.text or "end of input"
            raise self.fail(f"expected a feature key, got {got!r}", key_tok, expected=("feature key",))
        self.advance()
        op_tok = self.peek()
        if op_tok.type == "keyword" and op_tok.text == "IN":
            self.advance()
            return self._parse_in(key_tok)
        if op_tok.type != "op":
            raise self.fail(
                f"expected a comparison operator, got {op_tok.text or 'end of input'!r}",
                op_tok,
                expected=("=", "<>", "~", "IN", "<", "<=", ">", ">="),
            )
        self.advance()
        op = op_tok.text
        val_tok = self.peek()
        if op == "~":
            if val_tok.type != "string":
                raise self.fail("regex operand must be a string", val_tok, expected=("string",))
            self.advance()
            source = _unescape_string(val_tok)
            try:
                pattern = re.compile(source)
            except re.error as exc:
                raise self.fail(f"bad regex: {exc}", val_tok) from None
            return Atom(
                key=key_tok.text, op=op, operand=source,
                line=key_tok.line, column=key_tok.column, pattern=pattern,
            )
        if val_tok.type == "string":
            self.advance()
            operand: str | int = _unescape_string(val_tok)
        elif val_tok.type == "int":
            self.advance()
            operand = self.integer(val_tok)
        else:
            raise self.fail(
                f"expected a string or integer operand, got {val_tok.text or 'end of input'!r}",
                val_tok,
                expected=("string", "integer"),
            )
        return Atom(key=key_tok.text, op=op, operand=operand, line=key_tok.line, column=key_tok.column)

    def _parse_in(self, key_tok: Token) -> Atom:
        self.expect("(")
        members = [_unescape_string(self.expect("string"))]
        while self.peek().type == ",":
            self.advance()
            members.append(_unescape_string(self.expect("string")))
        self.expect(")")
        return Atom(
            key=key_tok.text, op="IN", operand=tuple(members),
            line=key_tok.line, column=key_tok.column,
        )


def parse(text: str) -> Query:
    """Parse query text into a Query AST.

    Raises QuerySyntaxError with line, column, and the expected-token set.
    """
    return _Parser(text).parse_query()
