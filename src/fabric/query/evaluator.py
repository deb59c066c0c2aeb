"""Index-driven query evaluation.

Semantics (shared with the brute-force oracle, which implements them
independently):

* a block matches node n iff n's otype equals the block's otype and the
  constraint expression is true on n's features;
* an atom on a key the node does not carry is false (so ``NOT`` of it is
  true); ``=``/``<>``/``IN`` compare strings, or integers when the key is
  declared integer-typed; ``~`` uses regex search; ``<``/``<=``/``>``/``>=``
  require an integer-typed key;
* nested blocks match nodes embedded in their parent's node (monad subset,
  distinct node);
* consecutive blocks in a block string satisfy their gap: juxtaposition
  means adjacency, ``..`` means strictly before, ``.. <= k`` bounds the
  monads skipped;
* matches are emitted in lexicographic order of the canonical positions of
  matched nodes in query pre-order.

Each atom is decided once, as a boolean mask over its key's value
dictionary (one entry per dictionary code): a node satisfies the atom iff
it carries the key and the mask holds at its value's code.  That mask gives
the atom on any set of corpus rows, in one gather through the key's cached
per-row code column (``Corpus._row_codes``, -1 on rows without the key,
which read an appended False); its posting list on an otype; and the
number of the store's entries whose code it holds, over every otype.

Candidate generation follows rarest-posting-first: a block whose constraint
conjunctively requires an ``=`` or ``IN`` atom can start from that atom's
posting list instead of the full otype list when the store-wide count is
shorter; the chosen source is what ``explain`` reports.  The list is read
from ``Corpus._postings``, the key's per-otype index, built once per corpus,
which holds each code's rows in canonical order: one code's group, or the
groups of several merged by one sort of canonical positions.  A block whose
whole constraint is that atom keeps the posting list unfiltered.

Nested blocks are joined first, in one pass over the blocks in reverse
pre-order (``_Eval.join``), children before parents: a block keeps the
candidates that embed a candidate of every child block, and each child
block gets, as a CSR, which of its candidates each kept node embeds.  All
per-block state is indexed by the block's ``Query.placed()`` number, not
by the ``Block`` object, so a hand-built query may reuse one ``Block``.
The join then emits a match table, one column per block in pre-order,
grown a block at a time (see ``_expand``) in chunks of at most ``_CHUNK`` rows, prefix tables
included.  A row grows by one slice of the block's candidates: at the top
level the gap's window or all of them, under a parent the parent
candidate's CSR segment, searched for the gap's window only after a
previous sibling.  It comes out in the oracle's order with no sort; ``iter_matches``
streams it chunk by chunk, ``max_matches`` cuts after the chunks it needs,
and the deadline is checked before the first chunk and at every chunk.

``evaluate`` keeps the table's node-id columns and builds no ``MatchTree``:
``matches`` is built from them when first read (``repr`` reads it), and
``==`` between two such results compares the columns.  Its passage join
runs on the table's outer row columns as they come, unsorted and with
repeats, and also gives each verse's outermost nodes, for
``build_snapshot``.
"""

from __future__ import annotations

import time
from contextlib import suppress
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..corpus import Corpus
from ..errors import QueryError
from ..model import heads
from .syntax import ADJACENT, And, Atom, Block, BlockString, Expr, Not, Query, parse


@dataclass(frozen=True, slots=True)
class MatchTree:
    """One matched node plus one subtree per nested block (same shape as
    the query)."""

    node: int
    children: tuple["MatchTree", ...] = ()


Match = tuple[MatchTree, ...]


def _shape(bs: BlockString) -> tuple:
    """The block tree of ``bs``: per block, None for a leaf, else the shape
    of its children."""
    return tuple(None if block.children is None else _shape(block.children) for block in bs.blocks)


def _trees(shape: tuple, ids: Iterator[list[int]]) -> Iterator[Match]:
    """One tuple of trees per row for the blocks of ``shape``, taking each
    block's id column, then its children's, from ``ids``."""
    return zip(
        *[map(MatchTree, next(ids)) if kids is None else map(MatchTree, next(ids), _trees(kids, ids)) for kids in shape]
    )


class ResultSet:
    """All matches of a query in deterministic order.

    ``verses`` lists the distinct passage-otype nodes whose monads intersect
    any outermost matched node, in canonical order.  ``truncated`` is set
    when max_matches or timeout cut enumeration short.  An ``evaluate``
    result holds the match table's node-id columns (``_cols``, in query
    pre-order) instead of ``matches``, and builds it on first read.
    """

    __slots__ = ("_matches", "total", "verses", "truncated", "_shape", "_cols", "_hits")

    def __init__(self, matches: tuple[Match, ...], total: int, verses: tuple[int, ...], truncated: bool = False):
        self._matches, self.total, self.verses, self.truncated = matches, total, verses, truncated
        self._shape = self._cols = self._hits = None

    @property
    def matches(self) -> tuple[Match, ...]:
        if self._matches is None:
            self._matches = tuple(_trees(self._shape, iter([col.tolist() for col in self._cols])))
        return self._matches

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ResultSet):
            return NotImplemented
        if (self.total, self.verses, self.truncated) != (other.total, other.verses, other.truncated):
            return False
        if self._cols is None or other._cols is None:
            return self.matches == other.matches
        return self._shape == other._shape and all(map(np.array_equal, self._cols, other._cols))

    def __hash__(self) -> int:
        return hash((self.matches, self.total, self.verses, self.truncated))

    def __repr__(self) -> str:
        return (
            f"ResultSet(matches={self.matches!r}, total={self.total!r}, "
            f"verses={self.verses!r}, truncated={self.truncated!r})"
        )


@dataclass(frozen=True, slots=True)
class Source:
    """Candidate source chosen for a block (also surfaced by explain): the
    otype's rows, or the posting list of the nodes whose ``atom`` holds."""

    kind: str  # "otype" or "posting"
    otype: str
    estimate: int = 0
    atom: Atom | None = None


# Rows per chunk of the match table, and of every prefix table behind it.
_CHUNK = 1 << 13

_COMPARE = {"<": np.less, "<=": np.less_equal, ">": np.greater, ">=": np.greater_equal}


def _atoms(expr: Expr | None) -> Iterator[Atom]:
    """Every atom of the constraint, left to right."""
    if isinstance(expr, Atom):
        yield expr
    elif isinstance(expr, Not):
        yield expr.inner
    elif expr is not None:
        for part in expr.parts:
            yield from _atoms(part)


def _conjunctive_spine(expr: Expr | None) -> list[Atom]:
    """Atoms that every match of the constraint must satisfy."""
    if isinstance(expr, Atom):
        return [expr]
    if isinstance(expr, And):
        return [atom for part in expr.parts for atom in _conjunctive_spine(part)]
    return []  # Or / Not never guarantee an atom


def _as_int(key: str, operand: str | int) -> int:
    try:
        return int(operand)
    except (TypeError, ValueError):
        raise QueryError(
            f"feature {key!r} is integer-typed but operand {operand!r} is not an integer"
        ) from None


class _Eval:
    """One evaluation of a query (parsed here when given as text) on a
    corpus.  ``blocks`` is the query's ``placed()`` records: block k is
    match-table column k.  ``timeout`` (seconds) starts once the query is
    parsed."""

    def __init__(self, corpus: Corpus, query: Query | str, timeout: float | None = None):
        self.c = corpus
        self.q = parse(query) if isinstance(query, str) else query
        self.deadline = None if timeout is None else time.monotonic() + timeout
        self.blocks = self.q.placed()
        self.stopped: str | None = None  # why table() ended early: "limit" or "timeout"
        self._masks: dict[Atom, np.ndarray] = {}
        # Resolve in the oracle's order, so errors come before any matching
        # work and the first one reported is the oracle's.
        for block in (p.block for p in self.blocks):
            if block.otype not in corpus._otype_rank:
                raise QueryError(f"unknown otype {block.otype!r}")
            for atom in _atoms(block.constraint):
                self._value_mask(atom)
        self.sources = [self._source(p.block) for p in self.blocks]

    # -- atoms ------------------------------------------------------------------

    def _value_mask(self, atom: Atom) -> np.ndarray:
        """Which values of ``atom.key``'s dictionary satisfy the atom, by
        dictionary code; the atom is validated on first use."""
        mask = self._masks.get(atom)
        if mask is not None:
            return mask
        store = self.c.store(atom.key)
        if store is None:
            raise QueryError(f"unknown feature key {atom.key!r}")
        values, op = store.values, atom.op
        int_typed = atom.key in self.c.metadata.int_features
        if op in _COMPARE:
            if not int_typed:
                raise QueryError(
                    f"feature {atom.key!r} is not integer-typed; {op} needs an integer-typed key"
                )
            if not isinstance(atom.operand, int):
                raise QueryError(f"{op} on {atom.key!r} needs an integer operand")
        members = atom.operand if op == "IN" else (atom.operand,)
        if op == "~":
            assert atom.pattern is not None
            mask = np.fromiter(
                (atom.pattern.search(v) is not None for v in values), dtype=bool, count=len(values)
            )
        elif int_typed:
            ints = self.c.int_values(atom.key)
            mask = np.zeros(len(values), dtype=bool)
            for m in members:  # type: ignore[union-attr]
                mask |= _COMPARE.get(op, np.equal)(ints, _as_int(atom.key, m))
        else:
            mask = np.zeros(len(values), dtype=bool)
            for m in members:  # type: ignore[union-attr]
                with suppress(ValueError):  # a value no node carries
                    mask[values.index(str(m))] = True
        mask = self._masks[atom] = ~mask if op == "<>" else mask
        return mask

    def _atom_mask(self, atom: Atom, rows: np.ndarray) -> np.ndarray:
        # A row without the key has code -1, which reads the appended False.
        return np.append(self._value_mask(atom), False)[self.c._row_codes(atom.key)[rows]]

    def _expr_mask(self, expr: Expr, rows: np.ndarray) -> np.ndarray:
        if isinstance(expr, Atom):
            return self._atom_mask(expr, rows)
        if isinstance(expr, Not):
            return ~self._atom_mask(expr.inner, rows)
        if isinstance(expr, And):
            mask = self._expr_mask(expr.parts[0], rows)
            for part in expr.parts[1:]:
                mask &= self._expr_mask(part, rows)
            return mask
        mask = self._expr_mask(expr.parts[0], rows)
        for part in expr.parts[1:]:
            mask |= self._expr_mask(part, rows)
        return mask

    # -- candidate generation -------------------------------------------------

    def _source(self, block: Block) -> Source:
        source = Source(kind="otype", otype=block.otype, estimate=len(self.c._rows_for_otype(block.otype)[0]))
        for atom in _conjunctive_spine(block.constraint):
            if atom.op in ("=", "IN"):
                counts = self.c.store(atom.key).value_counts()  # type: ignore[union-attr]
                estimate = int(counts[self._value_mask(atom)].sum())
                if estimate < source.estimate:
                    source = Source(kind="posting", otype=block.otype, estimate=estimate, atom=atom)
        return source

    def _posting_rows(self, source: Source) -> np.ndarray:
        """The rows of the source's otype whose atom holds, in canonical
        order: one code's group of ``Corpus._postings``, or several merged."""
        assert source.atom is not None
        rows, offsets = self.c._postings(source.atom.key, source.otype)
        codes = np.flatnonzero(self._value_mask(source.atom))
        if len(codes) == 1:
            return rows[offsets[codes[0]] : offsets[codes[0] + 1]]
        _, pos = self.c._pairs(offsets[codes], offsets[codes + 1])
        return self.c._canon[np.sort(self.c._canon_pos[rows[pos]])]

    def join(self) -> tuple[list, list]:
        """Each block's candidates, by block number: its rows in canonical
        order with their first monads.  A block with children keeps only
        the rows that embed a candidate of every child block, so the blocks
        are joined in reverse pre-order, children first.  The second list
        holds, per child block, a CSR over its parent's kept rows: parent
        row k embeds the child candidates ``kids[offsets[k]:offsets[k + 1]]``,
        ascending (None for a top-level block)."""
        cands: list = [None] * len(self.blocks)
        csr: list = [None] * len(self.blocks)
        children: list[list[int]] = [[] for _ in self.blocks]
        for j, p in enumerate(self.blocks):
            if p.parent is not None:
                children[p.parent].append(j)
        for k in reversed(range(len(self.blocks))):
            block, source = self.blocks[k].block, self.sources[k]
            rows = self._posting_rows(source) if source.kind == "posting" else self.c._rows_for_otype(block.otype)[0]
            # A posting list holds exactly the nodes its atom is true on.
            if block.constraint is not None and block.constraint is not source.atom and len(rows):
                rows = rows[self._expr_mask(block.constraint, rows)]
            if children[k]:
                pairs = [self.c._inside_many(*cands[j], rows) for j in children[k]]
                keep = np.ones(len(rows), dtype=bool)
                for parent, _ in pairs:
                    has = np.zeros(len(rows), dtype=bool)
                    has[parent] = True
                    keep &= has
                for j, (parent, kids) in zip(children[k], pairs):
                    # The pairs ascend by parent: each kept row's run of them is its segment.
                    sel = keep[parent]
                    csr[j] = (np.append(np.flatnonzero(heads(parent[sel])), np.count_nonzero(sel)), kids[sel])
                rows = rows[keep]
            cands[k] = (rows, self.c._first[rows])
        return cands, csr

    # -- the match table --------------------------------------------------------

    def table(self, limit: int | None = None) -> Iterator[list[np.ndarray]]:
        """The match table in chunks of at most ``_CHUNK`` rows, in the
        oracle's order: one int64 column of corpus rows per block, in query
        pre-order.  It ends early, setting ``stopped``, once a further row
        would pass ``limit`` (the chunk is cut to the limit, none kept for a
        negative one) or at the deadline."""
        kept = 0
        try:
            self._check_deadline()
            cands, csr = self.join()
            steps = [self._step(k, cands, csr) for k in range(len(self.blocks))]
            for cols in self._expand(steps, [np.zeros(1, dtype=np.int64)]):
                if limit is not None and kept + len(cols[0]) > limit:
                    cols, self.stopped = [col[: max(limit - kept, 0)] for col in cols], "limit"
                kept += len(cols[0])
                yield [rows[col] for (rows, _), col in zip(cands, cols[1:])]
                if self.stopped:
                    return
        except TimeoutError:
            self.stopped = "timeout"

    def _step(self, k: int, cands: list, csr: list) -> tuple:
        """The expansion step of block ``k``, given ``join()``'s lists: a
        function from the prefix table's columns to the slice
        ``start:stop`` of the block's candidates that extends each row, and
        the candidate index at each position of those slices (None where it
        is the position).  Column 0 of the table is a one-row root; block k
        is column k + 1."""
        p, firsts = self.blocks[k], cands[k][1]
        n = len(firsts)
        lo, hi, prev = np.zeros(1, dtype=np.intp), np.full(1, n), 0  # the root's one row: every candidate
        if p.prev is not None:
            # After the previous sibling's candidate: the block starts in
            # after..after+limit; adjacency is limit 0.  No gap skips more
            # monads than the corpus width, which stands for no limit and
            # for any larger one.
            limit = 0 if p.gap.kind == ADJACENT else p.gap.limit
            limit = self.c.width if limit is None else min(limit, self.c.width)
            after = self.c._last[cands[p.prev][0]] + 1
            lo, hi, prev = *self.c._window(firsts, after, after + limit), p.prev + 1
        if p.parent is None:
            return lambda cols: (lo[cols[prev]], hi[cols[prev]]), None
        offsets, kids = csr[k]
        parent = p.parent + 1
        if p.prev is None:  # the parent candidate's whole CSR segment
            return lambda cols: (offsets[cols[parent]], offsets[cols[parent] + 1]), kids
        # Within a segment the window is one search on the key segment * n + candidate.
        keys = np.repeat(np.arange(len(offsets) - 1) * n, np.diff(offsets)) + kids

        def bounds(cols: list[np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
            seg = cols[parent] * n
            return keys.searchsorted(seg + lo[cols[prev]]), keys.searchsorted(seg + hi[cols[prev]])

        return bounds, kids

    def _expand(self, steps: list[tuple], cols: list[np.ndarray]) -> Iterator[list[np.ndarray]]:
        """Extend each row of the prefix table ``cols`` (candidate indices)
        by the next step's block, at most ``_CHUNK`` rows at a time: by each
        of the block's candidates in the CSR segment of the row's parent
        candidate that lies in the gap's window after the row's previous
        sibling candidate.  Rows keep their order and new candidates ascend
        within a row, so the table stays sorted."""
        if len(cols) > len(steps):
            yield cols
            return
        bounds, kids = steps[len(cols) - 1]
        start, stop = bounds(cols)
        counts = stop - start
        ends = np.cumsum(counts)
        total = int(ends[-1]) if len(ends) else 0
        for first in range(0, total, _CHUNK):
            self._check_deadline()
            i, lo, hi = 0, start, stop
            if total > _CHUNK:
                # Rows i..j hold the pairs first..first+_CHUNK: clip their slices.
                last = first + _CHUNK
                i, j = ends.searchsorted(first, side="right"), ends.searchsorted(last) + 1
                lo = start[i:j] + np.maximum(first - (ends[i:j] - counts[i:j]), 0)
                hi = stop[i:j] - np.maximum(ends[i:j] - last, 0)
            owner, pos = self.c._pairs(lo, hi)
            owner += i
            yield from self._expand(steps, [col[owner] for col in cols] + [pos if kids is None else kids[pos]])

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() >= self.deadline:
            raise TimeoutError


def iter_matches(corpus: Corpus, query: Query | str) -> Iterator[Match]:
    """Stream matches in deterministic order, one chunk of the match table
    at a time."""
    ev = _Eval(corpus, query)
    shape = _shape(ev.q.root)
    return (match for cols in ev.table() for match in _trees(shape, iter([corpus._ids[col].tolist() for col in cols])))


def evaluate(
    corpus: Corpus,
    query: Query | str,
    *,
    max_matches: int | None = None,
    timeout: float | None = None,
) -> ResultSet:
    """Evaluate a query, returning every match unless limits cut off.

    ``max_matches`` bounds the number of matches kept; ``timeout`` (seconds)
    bounds wall time, checked before the first chunk of the match table and
    at every chunk the join expands, so it holds even when nothing matches.
    Either cutoff sets ``truncated``.
    """
    ev = _Eval(corpus, query, timeout)
    chunks = list(ev.table(max_matches))
    total = sum(len(cols[0]) for cols in chunks)
    empty = np.empty(0, dtype=np.int64)
    rows = [np.concatenate([empty] + [c[k] for c in chunks]) for k in range(len(ev.blocks))]
    verses, *hits = corpus._passages_meeting(np.concatenate([r for r, p in zip(rows, ev.blocks) if p.parent is None]))
    result = ResultSet(None, total, tuple(verses.tolist()), ev.stopped is not None)  # type: ignore[arg-type]
    result._shape, result._cols, result._hits = _shape(ev.q.root), [corpus._ids[r] for r in rows], hits
    return result
