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

Candidate generation follows rarest-posting-first: a block whose constraint
conjunctively requires ``key = value`` (or IN) can start from that value's
posting list instead of the full otype list; the chosen source is what
``explain`` reports.

Nested blocks are joined before enumeration, in one batched containment
semi-join per block with children: the block's candidates keep only the
nodes that embed a candidate of every child block, child blocks first, and
each child block records which of its candidates each kept node embeds.
Enumeration then walks those lists and filters consecutive blocks by their
gaps, one canonical-order window per previous node.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..corpus import Corpus, FeatureStore
from ..errors import QueryError
from .syntax import ADJACENT, And, Atom, Block, BlockString, Expr, Not, Query, parse


@dataclass(frozen=True, slots=True)
class MatchTree:
    """One matched node plus one subtree per nested block (same shape as
    the query)."""

    node: int
    children: tuple["MatchTree", ...] = ()


Match = tuple[MatchTree, ...]


@dataclass(frozen=True, slots=True)
class ResultSet:
    """All matches of a query in deterministic order.

    ``verses`` lists the distinct passage-otype nodes whose monads intersect
    any outermost matched node, in canonical order.  ``truncated`` is set
    when max_matches or timeout cut enumeration short.
    """

    matches: tuple[Match, ...]
    total: int
    verses: tuple[int, ...]
    truncated: bool = False


@dataclass(frozen=True, slots=True)
class Source:
    """Candidate source chosen for a block (also surfaced by explain)."""

    kind: str  # "otype" or "posting"
    otype: str
    key: str | None = None
    operand: str | tuple[str, ...] | None = None
    estimate: int = 0


def _conjunctive_spine(expr: Expr | None) -> list[Atom]:
    """Atoms that every match of the constraint must satisfy."""
    if expr is None:
        return []
    if isinstance(expr, Atom):
        return [expr]
    if isinstance(expr, And):
        out: list[Atom] = []
        for part in expr.parts:
            out.extend(_conjunctive_spine(part))
        return out
    return []  # Or / Not never guarantee an atom


class _Eval:
    def __init__(self, corpus: Corpus, query: Query, deadline: float | None = None):
        self.c = corpus
        self.q = query
        self.deadline = deadline
        self._counts: dict[str, np.ndarray] = {}
        self._int_dicts: dict[str, np.ndarray] = {}
        self._regex_masks: dict[tuple[str, str], np.ndarray] = {}
        self._cands: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._csr: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        self._sources: dict[int, Source] = {}
        for block in query.blocks_preorder():
            self._resolve_block(block)

    # -- resolution (errors before any matching work) ------------------------

    def _resolve_block(self, block: Block) -> None:
        if block.otype not in self.c._otype_rank:
            raise QueryError(f"unknown otype {block.otype!r}")
        if block.constraint is not None:
            self._resolve_expr(block.constraint)

    def _resolve_expr(self, expr: Expr) -> None:
        if isinstance(expr, Atom):
            self._resolve_atom(expr)
        elif isinstance(expr, Not):
            self._resolve_atom(expr.inner)
        else:
            for part in expr.parts:
                self._resolve_expr(part)

    def _resolve_atom(self, atom: Atom) -> None:
        store = self.c.store(atom.key)
        if store is None:
            raise QueryError(f"unknown feature key {atom.key!r}")
        int_typed = atom.key in self.c.metadata.int_features
        if atom.op in ("<", "<=", ">", ">="):
            if not int_typed:
                raise QueryError(
                    f"feature {atom.key!r} is not integer-typed; {atom.op} needs an integer-typed key"
                )
            if not isinstance(atom.operand, int):
                raise QueryError(f"{atom.op} on {atom.key!r} needs an integer operand")
        elif int_typed and atom.op in ("=", "<>"):
            self._int_operand(atom)
        elif int_typed and atom.op == "IN":
            for member in atom.operand:  # type: ignore[union-attr]
                self._int_member(atom.key, member)

    def _int_operand(self, atom: Atom) -> int:
        if isinstance(atom.operand, int):
            return atom.operand
        try:
            return int(atom.operand)  # type: ignore[arg-type]
        except (TypeError, ValueError):
            raise QueryError(
                f"feature {atom.key!r} is integer-typed but operand {atom.operand!r} is not an integer"
            ) from None

    def _int_member(self, key: str, member: str) -> int:
        try:
            return int(member)
        except ValueError:
            raise QueryError(
                f"feature {key!r} is integer-typed but IN member {member!r} is not an integer"
            ) from None

    # -- vectorized atom evaluation ------------------------------------------

    def _store_counts(self, key: str, store: FeatureStore) -> np.ndarray:
        counts = self._counts.get(key)
        if counts is None:
            counts = store.value_counts()
            self._counts[key] = counts
        return counts

    def _int_dict(self, key: str, store: FeatureStore) -> np.ndarray:
        ivals = self._int_dicts.get(key)
        if ivals is None:
            ivals = np.fromiter((int(v) for v in store.values), dtype=np.int64, count=len(store.values))
            self._int_dicts[key] = ivals
        return ivals

    def _presence_codes(self, store: FeatureStore, ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(store.targets) == 0:
            zeros = np.zeros(len(ids), dtype=np.int64)
            return np.zeros(len(ids), dtype=bool), zeros
        idx = np.searchsorted(store.targets, ids)
        idx = np.minimum(idx, len(store.targets) - 1)
        present = store.targets[idx] == ids
        codes = store.codes[idx].astype(np.int64)
        return present, codes

    def _code_of(self, store: FeatureStore, value: str) -> int | None:
        try:
            return store.values.index(value)
        except ValueError:
            return None

    def _atom_mask(self, atom: Atom, ids: np.ndarray) -> np.ndarray:
        store = self.c.store(atom.key)
        assert store is not None
        present, codes = self._presence_codes(store, ids)
        int_typed = atom.key in self.c.metadata.int_features
        op = atom.op
        if op in ("<", "<=", ">", ">="):
            vals = self._int_dict(atom.key, store)[codes]
            k = atom.operand
            if op == "<":
                return present & (vals < k)
            if op == "<=":
                return present & (vals <= k)
            if op == ">":
                return present & (vals > k)
            return present & (vals >= k)
        if op in ("=", "<>"):
            if int_typed:
                vals = self._int_dict(atom.key, store)[codes]
                hit = vals == self._int_operand(atom)
            else:
                code = self._code_of(store, str(atom.operand))
                hit = codes == code if code is not None else np.zeros(len(ids), dtype=bool)
            return present & (hit if op == "=" else ~hit)
        if op == "IN":
            members = atom.operand  # tuple[str, ...]
            if int_typed:
                vals = self._int_dict(atom.key, store)[codes]
                wanted = np.asarray([self._int_member(atom.key, m) for m in members], dtype=np.int64)
                return present & np.isin(vals, wanted)
            member_codes = [c for c in (self._code_of(store, m) for m in members) if c is not None]
            if not member_codes:
                return np.zeros(len(ids), dtype=bool)
            return present & np.isin(codes, np.asarray(member_codes, dtype=np.int64))
        # op == "~"
        mask_key = (atom.key, atom.operand)  # pattern source string
        value_mask = self._regex_masks.get(mask_key)
        if value_mask is None:
            assert atom.pattern is not None
            value_mask = np.fromiter(
                (atom.pattern.search(v) is not None for v in store.values),
                dtype=bool,
                count=len(store.values),
            )
            self._regex_masks[mask_key] = value_mask
        if len(value_mask) == 0:
            return np.zeros(len(ids), dtype=bool)
        return present & value_mask[codes]

    def _expr_mask(self, expr: Expr, ids: np.ndarray) -> np.ndarray:
        if isinstance(expr, Atom):
            return self._atom_mask(expr, ids)
        if isinstance(expr, Not):
            return ~self._atom_mask(expr.inner, ids)
        if isinstance(expr, And):
            mask = self._expr_mask(expr.parts[0], ids)
            for part in expr.parts[1:]:
                mask &= self._expr_mask(part, ids)
            return mask
        mask = self._expr_mask(expr.parts[0], ids)
        for part in expr.parts[1:]:
            mask |= self._expr_mask(part, ids)
        return mask

    # -- candidate generation -------------------------------------------------

    def source_for(self, block: Block) -> Source:
        cached = self._sources.get(id(block))
        if cached is not None:
            return cached
        otype_count = len(self.c._rows_for_otype(block.otype)[0])
        best = Source(kind="otype", otype=block.otype, estimate=otype_count)
        for atom in _conjunctive_spine(block.constraint):
            if atom.op not in ("=", "IN") or atom.key in self.c.metadata.int_features:
                continue
            store = self.c.store(atom.key)
            counts = self._store_counts(atom.key, store)
            if atom.op == "=":
                code = self._code_of(store, str(atom.operand))
                estimate = int(counts[code]) if code is not None else 0
                operand: str | tuple[str, ...] = str(atom.operand)
            else:
                codes = [self._code_of(store, m) for m in atom.operand]
                estimate = sum(int(counts[c]) for c in codes if c is not None)
                operand = atom.operand
            if estimate < best.estimate:
                best = Source(
                    kind="posting", otype=block.otype, key=atom.key, operand=operand, estimate=estimate
                )
        self._sources[id(block)] = best
        return best

    def _posting_rows(self, source: Source) -> np.ndarray:
        store = self.c.store(source.key)
        if isinstance(source.operand, tuple):
            wanted = [self._code_of(store, m) for m in source.operand]
            sel = np.isin(store.codes, np.asarray([c for c in wanted if c is not None], dtype=np.int64))
        else:
            code = self._code_of(store, source.operand)
            if code is None:
                return np.empty(0, dtype=np.int64)
            sel = store.codes == code
        targets = store.targets[sel]
        # Every feature target is a node id (validated at compile time), so the
        # searchsorted positions are exact rows.
        return np.searchsorted(self.c._ids, targets).astype(np.int64)

    def candidates(self, block: Block) -> tuple[np.ndarray, np.ndarray]:
        """Rows matching this block, in canonical order, with their first
        monads.  A block with children keeps only the rows that embed a
        candidate of every child block (a semi-join, run bottom-up), and
        records for each child block which of its candidates every kept row
        embeds."""
        cached = self._cands.get(id(block))
        if cached is not None:
            return cached
        source = self.source_for(block)
        if source.kind == "posting":
            rows = self._posting_rows(source)
            rows = rows[self.c._otype_code[rows] == self.c._otype_rank[block.otype]]
            rows = rows[np.argsort(self.c._canon_pos[rows], kind="stable")]
        else:
            rows = self.c._rows_for_otype(block.otype)[0]
        if block.constraint is not None and len(rows):
            rows = rows[self._expr_mask(block.constraint, self.c._ids[rows])]
        if block.children is not None:
            rows = self._semi_join(rows, block.children.blocks)
        cached = self._cands[id(block)] = (rows, self.c._first[rows])
        return cached

    def _semi_join(self, rows: np.ndarray, children: tuple[Block, ...]) -> np.ndarray:
        """The parent ``rows`` that embed a candidate of every child block.
        Caches, per child block, a CSR over the kept rows: row k embeds the
        child candidates ``kids[offsets[k]:offsets[k + 1]]``, ascending."""
        pairs = [self.c._inside_many(*self.candidates(child), rows) for child in children]
        keep = np.ones(len(rows), dtype=bool)
        for parent, _ in pairs:
            keep &= np.bincount(parent, minlength=len(rows)) > 0
        renumber = np.cumsum(keep) - 1
        for child, (parent, kids) in zip(children, pairs):
            sel = keep[parent]
            counts = np.bincount(renumber[parent[sel]], minlength=int(keep.sum()))
            self._csr[id(child)] = (np.concatenate(([0], np.cumsum(counts))), kids[sel])
        return rows[keep]

    # -- enumeration -----------------------------------------------------------

    def iter_blockstring(self, bs: BlockString, parent: int | None) -> Iterator[Match]:
        """Matches of a block string: at the top level when ``parent`` is
        None, else inside candidate number ``parent`` of the parent block,
        whose embedded children the semi-join's CSRs list."""
        blocks = bs.blocks
        cands = []
        for b in blocks:
            rows, firsts = self.candidates(b)
            if parent is None:
                cands.append((np.arange(len(rows)), rows, firsts))
            else:
                offsets, kids = self._csr[id(b)]
                idx = kids[offsets[parent] : offsets[parent + 1]]
                cands.append((idx, rows[idx], firsts[idx]))

        def rec(i: int, prev_row: int, acc: list[MatchTree]) -> Iterator[Match]:
            if i == len(blocks):
                yield tuple(acc)
                return
            block = blocks[i]
            idx, rows, firsts = cands[i]
            if i:
                # The block starts in after..after+limit, up to the last monad
                # when unbounded; adjacency is limit 0.
                gap, after = bs.gaps[i - 1], int(self.c._last[prev_row]) + 1
                limit = 0 if gap.kind == ADJACENT else gap.limit
                start, stop = self.c._window(firsts, after, self.c.width if limit is None else after + limit)
                idx, rows = idx[start:stop], rows[start:stop]
            for k, row in zip(idx.tolist(), rows.tolist()):
                if self.deadline is not None and time.monotonic() >= self.deadline:
                    raise TimeoutError
                node = int(self.c._ids[row])
                if block.children is None:
                    acc.append(MatchTree(node=node))
                    yield from rec(i + 1, row, acc)
                    acc.pop()
                else:
                    for kids in self.iter_blockstring(block.children, k):
                        acc.append(MatchTree(node=node, children=kids))
                        yield from rec(i + 1, row, acc)
                        acc.pop()

        yield from rec(0, -1, [])


def _as_query(query: Query | str) -> Query:
    return parse(query) if isinstance(query, str) else query


def iter_matches(corpus: Corpus, query: Query | str) -> Iterator[Match]:
    """Stream matches in deterministic order without materializing them."""
    q = _as_query(query)
    return _Eval(corpus, q).iter_blockstring(q.root, None)


def evaluate(
    corpus: Corpus,
    query: Query | str,
    *,
    max_matches: int | None = None,
    timeout: float | None = None,
) -> ResultSet:
    """Evaluate a query, returning every match unless limits cut off.

    ``max_matches`` bounds the number of matches kept; ``timeout`` (seconds)
    bounds wall time, checked at every candidate the join visits, so it
    holds even when nothing matches.  Either cutoff sets ``truncated``.
    """
    q = _as_query(query)
    deadline = None if timeout is None else time.monotonic() + timeout
    matches: list[Match] = []
    truncated = False
    try:
        for match in _Eval(corpus, q, deadline).iter_blockstring(q.root, None):
            if max_matches is not None and len(matches) >= max_matches:
                truncated = True
                break
            matches.append(match)
    except TimeoutError:
        truncated = True
    return ResultSet(
        matches=tuple(matches),
        total=len(matches),
        verses=tuple(corpus._passages_meeting(tree.node for match in matches for tree in match)),
        truncated=truncated,
    )
