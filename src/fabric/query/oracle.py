"""Exhaustive reference evaluator.

This is the semantic authority the fast evaluator is tested against.  It
shares only the AST types and the result container with the evaluator; the
matching logic is written independently, against the public Corpus API
(nodes / feature / monads), as a direct transcription of the semantics:
enumerate every assignment of nodes to blocks, keep those where all block
constraints, parent embeddings, and gap relations hold, then sort by the
canonical positions of the assigned nodes in query pre-order.  Block k is
the k-th record of ``Query.placed()`` and position k of an assignment.

A size guard refuses corpora where the candidate-tuple space (product of
per-block otype counts) exceeds 10,000: beyond that, exhaustive enumeration
stops being a practical oracle.
"""

from __future__ import annotations

import itertools

from ..corpus import Corpus
from ..errors import OracleGuardError, QueryError
from ..model import MonadSet
from .evaluator import Match, MatchTree, ResultSet
from .syntax import ADJACENT, And, Atom, Expr, Gap, Not, Or, Query, parse

GUARD_LIMIT = 10_000


def _atom_true(corpus: Corpus, node: int, atom: Atom) -> bool:
    value = corpus.feature(node, atom.key)
    if value is None:
        return False
    int_typed = atom.key in corpus.metadata.int_features
    op = atom.op
    if op in ("<", "<=", ">", ">="):
        stored = int(value)
        bound = atom.operand
        assert isinstance(bound, int)
        if op == "<":
            return stored < bound
        if op == "<=":
            return stored <= bound
        if op == ">":
            return stored > bound
        return stored >= bound
    if op in ("=", "<>"):
        if int_typed:
            equal = int(value) == int(atom.operand)  # type: ignore[arg-type]
        elif isinstance(atom.operand, int):
            equal = value == str(atom.operand)
        else:
            equal = value == atom.operand
        return equal if op == "=" else not equal
    if op == "IN":
        members = atom.operand
        assert isinstance(members, tuple)
        if int_typed:
            return int(value) in {int(m) for m in members}
        return value in members
    assert atom.pattern is not None
    return atom.pattern.search(value) is not None


def _expr_true(corpus: Corpus, node: int, expr: Expr) -> bool:
    if isinstance(expr, Atom):
        return _atom_true(corpus, node, expr)
    if isinstance(expr, Not):
        return not _atom_true(corpus, node, expr.inner)
    if isinstance(expr, And):
        return all(_expr_true(corpus, node, p) for p in expr.parts)
    assert isinstance(expr, Or)
    return any(_expr_true(corpus, node, p) for p in expr.parts)


def _check_resolvable(corpus: Corpus, query: Query) -> None:
    known_otypes = set(corpus.otypes())
    int_keys = corpus.metadata.int_features

    def check_atom(atom: Atom) -> None:
        if corpus.store(atom.key) is None:
            raise QueryError(f"unknown feature key {atom.key!r}")
        if atom.op in ("<", "<=", ">", ">="):
            if atom.key not in int_keys:
                raise QueryError(
                    f"feature {atom.key!r} is not integer-typed; {atom.op} needs an integer-typed key"
                )
            if not isinstance(atom.operand, int):
                raise QueryError(f"{atom.op} on {atom.key!r} needs an integer operand")
        elif atom.key in int_keys and atom.op in ("=", "<>", "IN"):
            members = atom.operand if isinstance(atom.operand, tuple) else (atom.operand,)
            for m in members:
                try:
                    int(m)
                except (TypeError, ValueError):
                    raise QueryError(
                        f"feature {atom.key!r} is integer-typed but operand {m!r} is not an integer"
                    ) from None

    def check_expr(expr: Expr) -> None:
        if isinstance(expr, Atom):
            check_atom(expr)
        elif isinstance(expr, Not):
            check_atom(expr.inner)
        else:
            for p in expr.parts:
                check_expr(p)

    for block in query.blocks_preorder():
        if block.otype not in known_otypes:
            raise QueryError(f"unknown otype {block.otype!r}")
        if block.constraint is not None:
            check_expr(block.constraint)


def _gap_holds(gap: Gap, prev: MonadSet, nxt: MonadSet) -> bool:
    if gap.kind == ADJACENT:
        return prev.last + 1 == nxt.first
    if not prev.last < nxt.first:
        return False
    return gap.limit is None or nxt.first - prev.last - 1 <= gap.limit


def brute_force_evaluate(corpus: Corpus, query: Query | str) -> ResultSet:
    """Evaluate by exhaustive enumeration; identical output to evaluate."""
    q = parse(query) if isinstance(query, str) else query
    _check_resolvable(corpus, q)
    placed = q.placed()
    pre_blocks = [p.block for p in placed]

    by_otype: dict[str, list[int]] = {}
    for block in pre_blocks:
        if block.otype not in by_otype:
            by_otype[block.otype] = list(corpus.nodes(block.otype))

    space = 1
    for block in pre_blocks:
        space *= len(by_otype[block.otype])
        if space > GUARD_LIMIT:
            raise OracleGuardError(
                f"candidate space exceeds {GUARD_LIMIT} tuples; corpus too large for the oracle"
            )

    # Constraint prefiltering only removes assignments that the per-block
    # constraint check would reject anyway; the guard above is computed on
    # the unfiltered otype counts.
    candidates: list[list[int]] = []
    for block in pre_blocks:
        nodes = by_otype[block.otype]
        if block.constraint is not None:
            nodes = [n for n in nodes if _expr_true(corpus, n, block.constraint)]
        candidates.append(nodes)

    monads: dict[int, MonadSet] = {}

    def monads_of(node: int) -> MonadSet:
        ms = monads.get(node)
        if ms is None:
            ms = corpus.monads(node)
            monads[node] = ms
        return ms

    def structure_ok(assign: tuple[int, ...]) -> bool:
        """Block k's node (assign[k]) is embedded in its parent's and
        satisfies the gap after its previous sibling's."""
        for node, p in zip(assign, placed):
            if p.parent is not None:
                up = assign[p.parent]
                if node == up or not monads_of(node).issubset(monads_of(up)):
                    return False
            if p.prev is not None and not _gap_holds(p.gap, monads_of(assign[p.prev]), monads_of(node)):
                return False
        return True

    def build(assign: tuple[int, ...]) -> Match:
        """The match of ``assign``, built from the last block back, so that
        each block's subtrees exist before its own tree."""
        kids: list[list[MatchTree]] = [[] for _ in range(len(placed) + 1)]  # the last list holds the top level
        for k in reversed(range(len(placed))):
            tree = MatchTree(node=assign[k], children=tuple(reversed(kids[k])))
            kids[-1 if placed[k].parent is None else placed[k].parent].append(tree)
        return tuple(reversed(kids[-1]))

    canon_pos = {node: i for i, node in enumerate(corpus.nodes())}
    found: list[tuple[tuple[int, ...], Match]] = []
    for assign in itertools.product(*candidates):
        if structure_ok(assign):
            key = tuple(canon_pos[n] for n in assign)
            found.append((key, build(assign)))
    found.sort(key=lambda pair: pair[0])
    matches = tuple(m for _, m in found)

    verses: list[int] = []
    if corpus.metadata.passage_otype in set(corpus.otypes()):
        outer: list[MonadSet] = []
        for match in matches:
            outer.extend(monads_of(t.node) for t in match)
        for verse in corpus.nodes(corpus.metadata.passage_otype):
            vset = monads_of(verse)
            if any(vset.intersects(ms) for ms in outer):
                verses.append(verse)

    return ResultSet(matches=matches, total=len(matches), verses=tuple(verses), truncated=False)
