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


def validate(corpus):
    """The structural validator as one loop over the corpus's objects,
    issue for issue what ``fabric.ingest.validate`` reports from columns.
    It is the engine's validator from before the columns, plus the two
    checks added with them: ids past the image format's 32 bits, and
    integer values past int64."""
    from fabric.ingest import ValidationIssue, ValidationReport
    from fabric.model import RESERVED_CONTAINMENT_LABELS

    errors = []
    warns = []

    def err(code, where, message):
        errors.append(ValidationIssue(code=code, message=message, where=where))

    def in_u32(value):
        return 0 <= value <= 2**32 - 1

    width = len(corpus.slots)
    if width == 0:
        err("NO_SLOTS", "slots", "corpus has no slots")
    text_len = len(corpus.text)
    for i, region in enumerate(corpus.slots, start=1):
        if region.end > text_len:
            err("REGION_BOUNDS", f"slot {i}", f"region ends at {region.end}, text has {text_len} characters")
        if i < width and region.end > corpus.slots[i].start:
            err("SLOT_OVERLAP", f"slot {i}", f"region overlaps or disorders slot {i + 1}")

    node_ids = set()
    slot_owner = {}
    for node in corpus.nodes:
        where = f"node {node.id}"
        if node.id in node_ids:
            err("DUPLICATE_NODE_ID", where, "node id is not unique")
            continue
        node_ids.add(node.id)
        if not in_u32(node.id):
            err("ID_RANGE", where, f"node id {node.id} exceeds the 32-bit image format limit")
        if len(node.monads) == 0:
            err("EMPTY_MONADS", where, "node has an empty monad set")
            continue
        if node.monads.last > width or node.monads.first < 1:
            err("MONAD_RANGE", where, f"monads {node.monads} outside 1..{width}")
        if node.otype == corpus.metadata.slot_otype:
            if len(node.monads) != 1:
                err("SLOT_ARITY", where, "slot-type node must own exactly one monad")
            else:
                m = node.monads.first
                if m in slot_owner:
                    err("DUPLICATE_SLOT_NODE", where, f"monad {m} already owned by node {slot_owner[m]}")
                else:
                    slot_owner[m] = node.id
    for m in range(1, width + 1):
        if m not in slot_owner:
            err("MISSING_SLOT_NODE", f"slot {m}", "no slot-type node owns this monad")

    declared = set(corpus.metadata.otypes)
    if declared:
        for otype in sorted({n.otype for n in corpus.nodes} - declared):
            warns.append(
                ValidationIssue(
                    code="UNDECLARED_OTYPE",
                    message=f"otype {otype!r} is not in the declared rank list",
                    where=f"otype {otype}",
                )
            )

    edge_ids = set()
    for edge in corpus.edges:
        where = f"edge {edge.id}"
        if edge.id in edge_ids:
            err("DUPLICATE_EDGE_ID", where, "edge id is not unique")
            continue
        edge_ids.add(edge.id)
        if not in_u32(edge.id):
            err("ID_RANGE", where, f"edge id {edge.id} exceeds the 32-bit image format limit")
        for end, role in ((edge.src, "from"), (edge.dst, "to")):
            if end not in node_ids:
                err("DANGLING_EDGE", where, f"{role} references unknown node {end}")
        if edge.src == edge.dst and edge.label in RESERVED_CONTAINMENT_LABELS:
            err("SELF_CONTAINMENT", where, f"self-loop with containment label {edge.label!r}")

    seen_features = set()
    for f in corpus.features:
        where = f"feature {f.kind}:{f.target}:{f.key}"
        if f.kind not in ("N", "E"):
            err("BAD_KIND", where, f"feature kind must be N or E, got {f.kind!r}")
            continue
        pool = node_ids if f.kind == "N" else edge_ids
        if f.target not in pool:
            err("DANGLING_TARGET", where, f"feature targets unknown {'node' if f.kind == 'N' else 'edge'} {f.target}")
        triple = (f.kind, f.target, f.key)
        if triple in seen_features:
            err("DUPLICATE_FEATURE", where, "more than one value for this target and key")
        seen_features.add(triple)
        if f.key in corpus.metadata.int_features:
            try:
                ok = -(2**63) <= int(f.value) < 2**63
            except ValueError:
                ok = False
            if not ok:
                err("INT_VALUE", where, f"key {f.key!r} is integer-typed but value is {f.value!r}")

    def ordered(issues):
        return tuple(sorted(issues, key=lambda i: (i.file or "", i.line or 0, i.code, i.where or "", i.message)))

    return ValidationReport(errors=ordered(errors), warnings=ordered(warns))
