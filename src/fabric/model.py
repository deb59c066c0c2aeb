"""Core corpus data model.

An immutable primary text is annotated by a graph of nodes and edges.  The
atomic textual unit is the *monad* (word position); slot k owns a character
region of the text, and every node is anchored to a non-empty set of monads.
The two structural relations of the whole engine, embedding (monad-set
containment) and sequence (monad order), are defined here, together with the
canonical total order used for every deterministic traversal.

All values are frozen dataclasses: safe to share across threads, never
mutated after construction.  ``Columns`` is the same corpus as flat arrays,
the form the validator and the compiler read.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator, NamedTuple, Sequence

import numpy as np

NODE_KIND = "N"
EDGE_KIND = "E"

# Self-loops are rejected for these labels; anything else may loop.
RESERVED_CONTAINMENT_LABELS = frozenset({"parent"})

_RANGE_RE = re.compile(r"(\d+)(?:-(\d+))?$")


def region_problem(start: int, end: int) -> str | None:
    """Why [start, end) is no region, or None when it is one."""
    return None if 0 <= start < end else f"bad region ({start}, {end}): need 0 <= start < end"


@dataclass(frozen=True, slots=True)
class Region:
    """Half-open character span [start, end) over the primary text."""

    start: int
    end: int

    def __post_init__(self) -> None:
        problem = region_problem(self.start, self.end)
        if problem:
            raise ValueError(problem)

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


_I64_MIN, _I64_MAX = -(2**63), 2**63 - 1


def _ids(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """Python ints (or an array that casts safely to int64) as int64; when
    one is past that range, all as exact Python ints (an object array), so
    that validation compares and names each id as given.  Such an id fails
    validation as past 32 bits, or as a reference to no node or edge but
    one with such an id."""
    if isinstance(values, np.ndarray) and np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64, copy=False)
    try:
        return np.fromiter(values, np.int64, len(values))
    except OverflowError:
        return np.array(list(values), dtype=object)


def _ints(values: Sequence[int] | np.ndarray) -> np.ndarray:
    """``_ids`` as int64, with a value past that range clipped to it: it
    fails validation all the same, as a monad past the slots or a region
    past the text."""
    values = _ids(values)
    if values.dtype == object:
        return np.fromiter((min(max(v, _I64_MIN), _I64_MAX) for v in values.tolist()), np.int64, len(values))
    return values


def gather(offsets: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ragged rows ``rows`` of a column with row i at
    ``offsets[i]:offsets[i + 1]``: their own offsets, and the flat index
    of each of their elements."""
    starts, sizes = offsets[:-1][rows], np.diff(offsets)[rows]
    out = np.zeros(len(rows) + 1, np.int64)
    np.cumsum(sizes, out=out[1:])
    return out, np.repeat(starts - out[:-1], sizes) + np.arange(out[-1])


def heads(*columns: np.ndarray) -> np.ndarray:
    """Where each run of equal rows starts, as a mask: the first row, and
    every row that differs from the one before it in some column."""
    head = np.zeros(len(columns[0]), dtype=bool)
    head[:1] = True
    for col in columns:
        head[1:] |= col[1:] != col[:-1]
    return head


def repeats(*columns: np.ndarray) -> np.ndarray:
    """Which rows repeat the values of an earlier row in every column."""
    order = np.lexsort(columns[::-1])
    out = np.empty(len(order), dtype=bool)
    out[order] = ~heads(*(col[order] for col in columns))
    return out


def flat_runs(runs: Sequence[tuple[tuple[int, int], ...]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Monad sets given as run tuples, as ``Columns`` holds them: the
    offsets of each set's runs, and the first and last monad of each run."""
    offsets = np.zeros(len(runs) + 1, np.int64)
    np.cumsum(np.fromiter(map(len, runs), np.int64, len(runs)), out=offsets[1:])
    bounds = _ints(list(chain.from_iterable(chain.from_iterable(runs))))
    return offsets, bounds[0::2], bounds[1::2]


class Coded(NamedTuple):
    """A string column: codes into its distinct strings, sorted, so that
    code order is string order and every string is used."""

    codes: np.ndarray
    strings: tuple[str, ...]

    @classmethod
    def of(cls, values: Sequence[str]) -> "Coded":
        strings = sorted(set(values))
        index = {s: i for i, s in enumerate(strings)}
        return cls(np.fromiter(map(index.__getitem__, values), np.int64, len(values)), tuple(strings))

    def code(self, value: str) -> int:
        """The code of ``value``; -1 when no row has it."""
        return self.strings.index(value) if value in self.strings else -1

    def take(self, rows: np.ndarray) -> "Coded":
        return Coded(self.codes[rows], self.strings)

    def decoded(self) -> list[str]:
        return list(map(self.strings.__getitem__, self.codes.tolist()))


@dataclass(frozen=True, eq=False)
class Columns:
    """A corpus as flat int64 arrays, row for row.

    Slot k is ``slot_start[k-1]``..``slot_end[k-1]``.  Node i owns the
    monad runs ``first[j]``..``last[j]`` for j in ``runs[i]:runs[i + 1]``.
    Edges are (``edge_id``, ``src``, ``dst``, ``label``) rows; features are
    (``kind``, ``target``, ``key``, ``value``) rows.  An id column with an
    id past int64 holds Python ints instead (``_ids``).
    """

    slot_start: np.ndarray
    slot_end: np.ndarray
    node_id: np.ndarray
    otype: Coded
    runs: np.ndarray
    first: np.ndarray
    last: np.ndarray
    edge_id: np.ndarray
    src: np.ndarray
    dst: np.ndarray
    label: Coded
    kind: Coded
    target: np.ndarray
    key: Coded
    value: Coded

    @classmethod
    def build(
        cls,
        slots: tuple[Sequence[int], Sequence[int]],
        nodes: tuple[Sequence[int], Sequence[str], tuple[np.ndarray, np.ndarray, np.ndarray]],
        edges: tuple[Sequence[int], Sequence[int], Sequence[int], Sequence[str]],
        features: tuple[Sequence[str], Sequence[int], Sequence[str], Sequence[str]],
    ) -> "Columns":
        """Columns from one sequence (or array) per column, rows in order:
        slot starts and ends; node ids, otypes and runs (as ``flat_runs``
        gives them); edge ids, sources, targets and labels; feature kinds,
        targets, keys and values."""
        (starts, ends), (ids, otypes, (offsets, first, last)), (eids, srcs, dsts, labels), (
            kinds, targets, keys, values,
        ) = (slots, nodes, edges, features)
        return cls(
            _ints(starts), _ints(ends), _ids(ids), Coded.of(otypes), _ints(offsets), _ints(first), _ints(last),
            _ids(eids), _ids(srcs), _ids(dsts), Coded.of(labels),
            Coded.of(kinds), _ids(targets), Coded.of(keys), Coded.of(values),
        )

    def assembled(self) -> "Columns":
        """The same rows in ``LogicalCorpus.assemble``'s order: nodes and
        edges by id, features by (kind, target, key), ties kept in order."""
        n = np.argsort(self.node_id, kind="stable")
        e = np.argsort(self.edge_id, kind="stable")
        f = np.lexsort((self.key.codes, self.target, self.kind.codes))
        runs, j = gather(self.runs, n)
        return Columns(
            self.slot_start, self.slot_end, self.node_id[n], self.otype.take(n), runs, self.first[j], self.last[j],
            self.edge_id[e], self.src[e], self.dst[e], self.label.take(e),
            self.kind.take(f), self.target[f], self.key.take(f), self.value.take(f),
        )

    def monad_set(self, row: int) -> MonadSet:
        a, b = self.runs[row], self.runs[row + 1]
        return MonadSet(tuple(zip(self.first[a:b].tolist(), self.last[a:b].tolist())))

    def monad_sets(self) -> list[MonadSet]:
        runs, offsets = list(zip(self.first.tolist(), self.last.tolist())), self.runs.tolist()
        return [MonadSet(tuple(runs[a:b])) for a, b in zip(offsets, offsets[1:])]


# How each collection of a corpus handed over as columns is built on first read.
_MATERIALIZE = {
    "slots": lambda c: tuple(map(Region, c.slot_start.tolist(), c.slot_end.tolist())),
    "nodes": lambda c: tuple(map(Node, c.node_id.tolist(), c.otype.decoded(), c.monad_sets())),
    "edges": lambda c: tuple(map(Edge, c.edge_id.tolist(), c.src.tolist(), c.dst.tolist(), c.label.decoded())),
    "features": lambda c: tuple(
        map(FeatureAssignment, c.kind.decoded(), c.target.tolist(), c.key.decoded(), c.value.decoded())
    ),
}


@dataclass(frozen=True)
class LogicalCorpus:
    """The fully assembled in-memory corpus.

    Collections are normalized (slots by index, nodes and edges by id,
    features by (kind, target, key)), so equality between two corpora is
    plain field equality.  Slot k (1-based) owns region ``slots[k-1]``.

    A front end hands its corpus over as ``Columns`` (``from_columns``):
    ``slots``, ``nodes``, ``edges`` and ``features`` are then materialized
    on first read, and compiling never reads them.  A corpus built from
    objects gets its columns in one pass on first use.
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

    @classmethod
    def from_columns(cls, text: str, columns: Columns, metadata: CorpusMetadata) -> "LogicalCorpus":
        """A corpus whose collections are ``columns``, already in
        ``assemble``'s order."""
        corpus = object.__new__(cls)
        for name, value in (("text", text), ("metadata", metadata), ("_columns", columns)):
            object.__setattr__(corpus, name, value)
        return corpus

    def __getattr__(self, name: str):
        # Reached only for an attribute never set: a collection of a corpus
        # made by ``from_columns``, read for the first time.
        if name not in _MATERIALIZE or "_columns" not in self.__dict__:
            raise AttributeError(name)
        value = _MATERIALIZE[name](self.__dict__["_columns"])
        object.__setattr__(self, name, value)
        return value

    @property
    def columns(self) -> Columns:
        columns = self.__dict__.get("_columns")
        if columns is None:
            nodes, edges, features = self.nodes, self.edges, self.features
            columns = Columns.build(
                ([r.start for r in self.slots], [r.end for r in self.slots]),
                ([n.id for n in nodes], [n.otype for n in nodes], flat_runs([n.monads.runs for n in nodes])),
                ([e.id for e in edges], [e.src for e in edges], [e.dst for e in edges], [e.label for e in edges]),
                ([f.kind for f in features], [f.target for f in features], [f.key for f in features],
                 [f.value for f in features]),
            )
            object.__setattr__(self, "_columns", columns)
        return columns

    def stats(self) -> CorpusStats:
        c = self.columns
        words = np.count_nonzero(c.otype.codes == c.otype.code(self.metadata.slot_otype))
        return CorpusStats(
            words=int(words), nodes=len(c.node_id), features=len(c.target), edges=len(c.edge_id)
        )

    def present_otypes(self) -> tuple[str, ...]:
        return rank_otypes(self.metadata, self.columns.otype.strings)


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
