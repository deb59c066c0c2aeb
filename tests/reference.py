"""First-principles re-implementations used as test oracles.

Everything here works on plain Python sets and lists, deliberately
avoiding the package's own data structures, so a bug in the engine cannot
hide inside the expectation.
"""

from __future__ import annotations

from collections import Counter


def monad_set(node) -> frozenset[int]:
    """Node's monads as a plain frozenset, via public iteration."""
    return frozenset(node.monads)


def rank_table(declared: tuple[str, ...], present: set[str], slot_otype: str) -> dict[str, int]:
    order = [t for t in declared if t != slot_otype]
    order += sorted(t for t in present - set(declared) if t != slot_otype)
    order.append(slot_otype)
    return {t: i for i, t in enumerate(order)}


def sort_key(monads: frozenset[int], rank: int, node_id: int):
    return (min(monads), -max(monads), rank, node_id)


def canonical_sorted(nodes, metadata) -> list[int]:
    """Node ids in canonical order, computed straight from the definition."""
    ranks = rank_table(
        metadata.otypes, {n.otype for n in nodes}, metadata.slot_otype
    )
    ordered = sorted(
        nodes, key=lambda n: sort_key(monad_set(n), ranks[n.otype], n.id)
    )
    return [n.id for n in ordered]


def embeds(a_monads: frozenset[int], b_monads: frozenset[int], same_node: bool) -> bool:
    return not same_node and b_monads <= a_monads


def sequence_before(a_monads: frozenset[int], b_monads: frozenset[int]) -> bool:
    return max(a_monads) < min(b_monads)


def adjacent(a_monads: frozenset[int], b_monads: frozenset[int]) -> bool:
    return max(a_monads) + 1 == min(b_monads)


def gap_holds(gap, prev: frozenset[int], nxt: frozenset[int]) -> bool:
    """Gap between consecutive blocks: adjacency, or strictly before with
    at most ``gap.limit`` monads skipped when a limit is given."""
    if gap.kind == "adjacent":
        return adjacent(prev, nxt)
    return sequence_before(prev, nxt) and (gap.limit is None or min(nxt) - max(prev) - 1 <= gap.limit)


def scan_matches(root, candidates, monads: dict[int, frozenset[int]]) -> list[tuple[int, ...]]:
    """Matches of a parsed query as pre-order node tuples, by nested scans:
    every candidate of a block is tested against its parent (containment)
    and its predecessor (gap).  ``candidates(block)`` lists the nodes that
    match the block alone, in canonical order."""

    def walk(bs, parent):
        def rec(i, prev):
            if i == len(bs.blocks):
                yield ()
                return
            block = bs.blocks[i]
            for node in candidates(block):
                if parent is not None and not embeds(monads[parent], monads[node], node == parent):
                    continue
                if i and not gap_holds(bs.gaps[i - 1], monads[prev], monads[node]):
                    continue
                inner = walk(block.children, node) if block.children is not None else [()]
                for kids in inner:
                    for rest in rec(i + 1, node):
                        yield (node,) + kids + rest

        return list(rec(0, None))

    return walk(root, None)


def down(node: int, order: list[int], monads: dict[int, frozenset[int]]) -> list[int]:
    """Nodes embedded in ``node``, in the given (canonical) order."""
    return [n for n in order if embeds(monads[node], monads[n], n == node)]


def up(node: int, order: list[int], monads: dict[int, frozenset[int]]) -> list[int]:
    """Nodes embedding ``node``, in the given (canonical) order."""
    return [n for n in order if embeds(monads[n], monads[node], n == node)]


def passages_meeting(
    passages: list[int], nodes: list[int], monads: dict[int, frozenset[int]]
) -> list[int]:
    """Those passages, in the given order, sharing a monad with any node."""
    return [p for p in passages if any(monads[p] & monads[n] for n in nodes)]


def text_of(text: str, slots, monads: frozenset[int]) -> str:
    pieces = []
    prev_end = None
    for m in sorted(monads):
        region = slots[m - 1]
        if prev_end is not None and region.start != prev_end:
            pieces.append(" ")
        pieces.append(text[region.start : region.end])
        prev_end = region.end
    return "".join(pieces)


def frequency(values) -> list[tuple[str, int]]:
    counts = Counter(values)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def flatten_match(match) -> tuple[int, ...]:
    """Match tree tuple -> node ids in query pre-order."""
    out: list[int] = []

    def walk(trees) -> None:
        for tree in trees:
            out.append(tree.node)
            walk(tree.children)

    walk(match)
    return tuple(out)


def result_rows(result) -> list[tuple[int, ...]]:
    return [flatten_match(m) for m in result.matches]
