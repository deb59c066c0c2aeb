"""Core corpus data model.

An immutable primary text is annotated by a graph of nodes and edges.  The
atomic textual unit is the *monad* (word position); slot k owns a character
region of the text, and every node is anchored to a non-empty set of monads.
The two structural relations of the whole engine, embedding (monad-set
containment) and sequence (monad order), are defined here, together with the
canonical total order used for every deterministic traversal.

All values are frozen dataclasses: safe to share across threads, never
mutated after construction.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Iterator

NODE_KIND = "N"
EDGE_KIND = "E"

# Self-loops are rejected for these labels; anything else may loop.
RESERVED_CONTAINMENT_LABELS = frozenset({"parent"})

_RANGE_RE = re.compile(r"(\d+)(?:-(\d+))?$")


@dataclass(frozen=True, slots=True)
class Region:
    """Half-open character span [start, end) over the primary text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if not (0 <= self.start < self.end):
            raise ValueError(f"bad region ({self.start}, {self.end}): need 0 <= start < end")

    @property
    def length(self) -> int:
        return self.end - self.start


@dataclass(frozen=True, slots=True)
class MonadSet:
    """Non-empty set of monad numbers, kept as sorted maximal runs.

    ``runs`` holds inclusive (first, last) pairs, ascending and non-adjacent,
    so a contiguous object costs one pair regardless of its width.  The empty
    set is representable (``runs == ()``) so that validation, not
    construction, rejects it; every corpus that passes validation has only
    non-empty sets.
    """

    runs: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        prev_last = None
        for first, last in self.runs:
            if first < 1 or last < first:
                raise ValueError(f"bad monad run {first}-{last}")
            if prev_last is not None and first <= prev_last + 1:
                raise ValueError("runs must be sorted and non-adjacent")
            prev_last = last

    @classmethod
    def from_monads(cls, monads: Iterable[int]) -> "MonadSet":
        return cls._merged((m, m) for m in monads)

    @classmethod
    def _merged(cls, ranges: Iterable[tuple[int, int]]) -> "MonadSet":
        """The set of inclusive (first, last) ranges given in any order:
        sorted, then merged into maximal runs where they overlap or touch."""
        runs: list[tuple[int, int]] = []
        for first, last in sorted(ranges):
            if runs and first <= runs[-1][1] + 1:
                runs[-1] = (runs[-1][0], max(runs[-1][1], last))
            else:
                runs.append((first, last))
        return cls(tuple(runs))

    @classmethod
    def parse(cls, text: str) -> "MonadSet":
        """Parse the canonical form, e.g. ``"1-3,5"``. Empty text is the empty set."""
        text = text.strip()
        if not text:
            return cls(())
        ranges: list[tuple[int, int]] = []
        for part in text.split(","):
            part = part.strip()
            m = _RANGE_RE.fullmatch(part)
            if m is None:
                raise ValueError(f"malformed monad range {part!r}")
            first = int(m.group(1))
            last = int(m.group(2)) if m.group(2) else first
            if first < 1 or last < first:
                raise ValueError(f"malformed monad range {part!r}")
            ranges.append((first, last))
        return cls._merged(ranges)

    def __str__(self) -> str:
        return ",".join(f"{a}-{b}" if a != b else f"{a}" for a, b in self.runs)

    def __iter__(self) -> Iterator[int]:
        for first, last in self.runs:
            yield from range(first, last + 1)

    def __len__(self) -> int:
        return sum(last - first + 1 for first, last in self.runs)

    def __contains__(self, monad: int) -> bool:
        for first, last in self.runs:
            if first <= monad <= last:
                return True
            if first > monad:
                return False
        return False

    @property
    def first(self) -> int:
        if not self.runs:
            raise ValueError("empty monad set has no first monad")
        return self.runs[0][0]

    @property
    def last(self) -> int:
        if not self.runs:
            raise ValueError("empty monad set has no last monad")
        return self.runs[-1][1]

    def issubset(self, other: "MonadSet") -> bool:
        it = iter(other.runs)
        cur = next(it, None)
        for first, last in self.runs:
            while cur is not None and cur[1] < first:
                cur = next(it, None)
            if cur is None or not (cur[0] <= first and last <= cur[1]):
                return False
        return True

    def intersects(self, other: "MonadSet") -> bool:
        a, b = self.runs, other.runs
        i = j = 0
        while i < len(a) and j < len(b):
            if a[i][1] < b[j][0]:
                i += 1
            elif b[j][1] < a[i][0]:
                j += 1
            else:
                return True
        return False


@dataclass(frozen=True, slots=True)
class Node:
    """An annotated object: a typed, monad-anchored unit of the corpus."""

    id: int
    otype: str
    monads: MonadSet


@dataclass(frozen=True, slots=True)
class Edge:
    """A labelled link between two nodes."""

    id: int
    src: int
    dst: int
    label: str


@dataclass(frozen=True, slots=True)
class FeatureAssignment:
    """One (target, key) -> value fact; ``kind`` is "N" (node) or "E" (edge)."""

    kind: str
    target: int
    key: str
    value: str


@dataclass(frozen=True, slots=True)
class CorpusStats:
    words: int
    nodes: int
    features: int
    edges: int


@dataclass(frozen=True, slots=True)
class CorpusMetadata:
    """Corpus-level declarations carried from ingest through the image.

    ``otypes`` is the declared rank list; otypes seen on nodes but absent
    here rank after the declared ones, alphabetically, and the slot otype
    always ranks last.  ``int_features`` names the keys whose values are
    integers for the purpose of ordered comparison in queries.
    """

    otypes: tuple[str, ...] = ()
    slot_otype: str = "word"
    int_features: frozenset[str] = frozenset()
    passage_otype: str = "verse"
    provenance: tuple[str, ...] = ()


@dataclass(frozen=True, slots=True)
class LogicalCorpus:
    """The fully assembled in-memory corpus.

    Collections are normalized (slots by index, nodes and edges by id,
    features by (kind, target, key)), so equality between two corpora is
    plain field equality.  Slot k (1-based) owns region ``slots[k-1]``.
    """

    text: str
    slots: tuple[Region, ...]
    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]
    features: tuple[FeatureAssignment, ...]
    metadata: CorpusMetadata

    @classmethod
    def assemble(
        cls,
        text: str,
        slots: Iterable[Region],
        nodes: Iterable[Node],
        edges: Iterable[Edge] = (),
        features: Iterable[FeatureAssignment] = (),
        metadata: CorpusMetadata = CorpusMetadata(),
    ) -> "LogicalCorpus":
        """Build a corpus with collections sorted into canonical storage order."""
        return cls(
            text=text,
            slots=tuple(slots),
            nodes=tuple(sorted(nodes, key=lambda n: n.id)),
            edges=tuple(sorted(edges, key=lambda e: e.id)),
            features=tuple(sorted(features, key=lambda f: (f.kind, f.target, f.key))),
            metadata=metadata,
        )

    def stats(self) -> CorpusStats:
        words = sum(1 for n in self.nodes if n.otype == self.metadata.slot_otype)
        return CorpusStats(
            words=words,
            nodes=len(self.nodes),
            features=len(self.features),
            edges=len(self.edges),
        )

    def present_otypes(self) -> tuple[str, ...]:
        return rank_otypes(self.metadata, {n.otype for n in self.nodes})


def rank_otypes(metadata: CorpusMetadata, present: Iterable[str]) -> tuple[str, ...]:
    """Full otype list in rank order.

    Declared otypes first in declaration order, then undeclared ones
    alphabetically, with the slot otype forced to the very end.  Declared
    otypes are kept even when no node carries them, so the rank of an otype
    never depends on which nodes happen to exist.
    """
    seen = set(metadata.otypes) | set(present) | {metadata.slot_otype}
    declared = [t for t in metadata.otypes if t != metadata.slot_otype]
    extra = sorted(t for t in seen - set(metadata.otypes) if t != metadata.slot_otype)
    return tuple(dict.fromkeys(declared + extra + [metadata.slot_otype]))


def otype_rank_table(metadata: CorpusMetadata, present: Iterable[str]) -> dict[str, int]:
    return {t: i for i, t in enumerate(rank_otypes(metadata, present))}


def canonical_key(node: Node, rank: dict[str, int]) -> tuple[int, int, int, int]:
    """Sort key of the canonical order: first monad ascending, last monad
    descending (embedders before their parts), otype rank, id."""
    return (node.monads.first, -node.monads.last, rank[node.otype], node.id)


def canonical_compare(a: Node, b: Node, rank: dict[str, int]) -> int:
    """-1 if a comes before b, +1 after, 0 only for the same node."""
    if a.id == b.id:
        return 0
    return -1 if canonical_key(a, rank) < canonical_key(b, rank) else 1


def embeds(a: Node, b: Node) -> bool:
    """True iff b's monads are contained in a's and the nodes are distinct."""
    return a.id != b.id and b.monads.issubset(a.monads)


def sequence_before(a: Node, b: Node) -> bool:
    return a.monads.last < b.monads.first


def adjacent(a: Node, b: Node) -> bool:
    return a.monads.last + 1 == b.monads.first
