"""Read-only corpus API over a compiled image.

``Corpus.from_file`` reads the image into memory and maps its sections
onto numpy views without copying the node tables; opening a corpus costs
integrity checks plus one sort, not a parse.  All arrays are read-only
views of the image bytes.

Node identity in this API is the integer node id.  Canonical order is
(first monad asc, last monad desc, otype rank asc, id asc).
"""

from __future__ import annotations

import json
import warnings
from functools import cached_property
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

from . import image
from .errors import ImageError
from .model import (
    EDGE_KIND,
    NODE_KIND,
    CorpusMetadata,
    CorpusStats,
    Edge,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
)

_KINDS = (NODE_KIND, EDGE_KIND)


class UnknownOtypeWarning(UserWarning):
    """Asked for nodes of an otype the corpus does not contain."""


# What decoding a malformed section raises: counts past the payload's end,
# codes past a table, bad UTF-8 or JSON, metadata of the wrong shape.
_DECODE_ERRORS = (ValueError, IndexError, KeyError, TypeError)


def _bad_section(name: str, exc: Exception) -> ImageError:
    return ImageError("BAD_SECTION", f"section {name} cannot be decoded: {exc}", section=name)


def _u32view(buf: memoryview, offset: int, count: int) -> np.ndarray:
    arr = np.frombuffer(buf, dtype="<u4", count=count, offset=offset)
    return arr


def _find(arr: np.ndarray, value: int) -> int:
    """Position of ``value`` in the sorted u32 array ``arr``, or -1.  The
    search key is a u32 scalar, so numpy does not copy ``arr`` to a wider
    type on every call."""
    if 0 <= value < 2**32:
        i = int(arr.searchsorted(np.uint32(value)))
        if i < len(arr) and int(arr[i]) == value:
            return i
    return -1


def _unpack_strtable(buf: memoryview) -> tuple[str, ...]:
    count = int(_u32view(buf, 0, 1)[0])
    offsets = _u32view(buf, 8, count + 1)
    blob = bytes(buf[8 + 4 * (count + 1) :])
    return tuple(blob[offsets[i] : offsets[i + 1]].decode("utf-8") for i in range(count))


class FeatureStore:
    """One (kind, key) feature table: sorted targets, dictionary codes."""

    __slots__ = ("targets", "codes", "values")

    def __init__(self, payload: memoryview):
        count = int(_u32view(payload, 0, 1)[0])
        self.targets = _u32view(payload, 8, count)
        self.codes = _u32view(payload, 8 + 4 * count, count)
        self.values = _unpack_strtable(payload[8 + 8 * count :])

    def __len__(self) -> int:
        return len(self.targets)

    def code_of(self, target: int) -> int | None:
        i = _find(self.targets, target)
        return None if i < 0 else int(self.codes[i])

    def get(self, target: int) -> str | None:
        code = self.code_of(target)
        return None if code is None else self.values[code]

    def items(self) -> Iterator[tuple[int, str]]:
        for i in range(len(self.targets)):
            yield int(self.targets[i]), self.values[int(self.codes[i])]

    def value_counts(self) -> np.ndarray:
        """Occurrences per dictionary code (codes are frequency-ordered)."""
        return np.bincount(self.codes, minlength=len(self.values))


class Corpus:
    """A loaded image: verified once, then served from read-only views."""

    def __init__(self, data: bytes):
        self._data = data
        entries = image.read_directory(data)
        image.verify_sections(data, entries)
        view = memoryview(data)
        payloads = {e.id: view[e.offset : e.offset + e.length] for e in entries}

        section = ""  # the section being decoded, for the error

        def need(sid: int) -> memoryview:
            nonlocal section
            section = image.section_name(sid)
            if sid not in payloads:
                raise ImageError("BAD_DIRECTORY", f"image is missing section {section}", section=section)
            return payloads[sid]

        # A section whose CRC holds can still be malformed (a count past its
        # end, bad JSON): decoding errors become ImageError, not tracebacks.
        try:
            self.text: str = bytes(need(image.TEXT)).decode("utf-8")

            slots = need(image.SLOTS)
            width = int(_u32view(slots, 0, 1)[0])
            self._slot_starts = _u32view(slots, 8, width)
            self._slot_ends = _u32view(slots, 8 + 4 * width, width)

            self._otypes = _unpack_strtable(need(image.OTYPES))
            self._otype_rank = {name: i for i, name in enumerate(self._otypes)}

            pool = need(image.MONADPOOL)
            pool_count = int(_u32view(pool, 0, 1)[0])
            run_count = int(_u32view(pool, 4, 1)[0])
            self._set_offsets = _u32view(pool, 8, pool_count + 1)
            base = 8 + 4 * (pool_count + 1)
            self._run_first = _u32view(pool, base, run_count)
            self._run_last = _u32view(pool, base + 4 * run_count, run_count)

            nodes = need(image.NODES)
            n = int(_u32view(nodes, 0, 1)[0])
            self._ids = _u32view(nodes, 8, n)
            self._otype_code = _u32view(nodes, 8 + 4 * n, n)
            self._monad_idx = _u32view(nodes, 8 + 8 * n, n)
            if n and int(self._otype_code.max()) >= len(self._otypes):
                raise ValueError(f"otype code past the {len(self._otypes)}-entry otype table")

            # Per-node monad envelope, derived from the pool in one gather.
            sets = self._monad_idx.astype(np.int64)
            self._first = self._run_first[self._set_offsets[sets]].astype(np.int64)
            self._last = self._run_last[self._set_offsets[sets + 1] - 1].astype(np.int64)
            self._nruns = np.diff(self._set_offsets.astype(np.int64))[sets]

            # Canonical permutation; lexsort treats its last key as primary.
            self._canon = np.lexsort((self._ids, self._otype_code, -self._last, self._first))
            self._canon_pos = np.empty(n, dtype=np.int64)
            self._canon_pos[self._canon] = np.arange(n)

            self._edge_labels = _unpack_strtable(need(image.EDGELABELS))
            edges = need(image.EDGES)
            e = int(_u32view(edges, 0, 1)[0])
            self._edge_ids = _u32view(edges, 8, e)
            self._edge_src = _u32view(edges, 8 + 4 * e, e)
            self._edge_dst = _u32view(edges, 8 + 8 * e, e)
            self._edge_label_code = _u32view(edges, 8 + 12 * e, e)

            meta = json.loads(bytes(need(image.METADATA)).decode("utf-8"))
            self.metadata = CorpusMetadata(
                otypes=tuple(meta["otypes"]),
                slot_otype=meta["slot_otype"],
                int_features=frozenset(meta["int_features"]),
                passage_otype=meta["passage_otype"],
                provenance=tuple(meta["provenance"]),
            )

            stats = np.frombuffer(need(image.STATS), dtype="<u8", count=4)
            self._stats = CorpusStats(
                words=int(stats[0]), nodes=int(stats[1]), features=int(stats[2]), edges=int(stats[3])
            )

            findex = need(image.FEATINDEX)
            fcount = int(_u32view(findex, 0, 1)[0])
            fids = _u32view(findex, 8, fcount)
            fkinds = _u32view(findex, 8 + 4 * fcount, fcount)
            foffsets = _u32view(findex, 8 + 8 * fcount, fcount + 1)
            fblob = bytes(findex[8 + 8 * fcount + 4 * (fcount + 1) :])
            self._feature_sections: dict[tuple[str, str], int] = {}
            for i in range(fcount):
                key = fblob[foffsets[i] : foffsets[i + 1]].decode("utf-8")
                self._feature_sections[(_KINDS[int(fkinds[i])], key)] = int(fids[i])
            for sid in self._feature_sections.values():
                need(sid)  # stores decode lazily, but must exist now
        except _DECODE_ERRORS as exc:
            raise _bad_section(section, exc) from None
        self._payloads = payloads
        self._stores: dict[tuple[str, str], FeatureStore] = {}
        self._otype_rows: dict[str | None, tuple[np.ndarray, np.ndarray]] = {}
        self._runmax: dict[str | None, np.ndarray] = {}

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> Corpus:
        return cls(data)

    @classmethod
    def from_file(cls, path: str | Path) -> Corpus:
        return cls(Path(path).read_bytes())

    @cached_property
    def fingerprint(self) -> str:
        """SHA-256 over the image bytes; identifies this exact compile."""
        return image.fingerprint(self._data)

    # -- low-level accessors ------------------------------------------------

    def __len__(self) -> int:
        return len(self._ids)

    @property
    def width(self) -> int:
        """Number of slots (monads)."""
        return len(self._slot_starts)

    def stats(self) -> CorpusStats:
        return self._stats

    def otypes(self) -> tuple[str, ...]:
        """All otypes in rank order; the slot otype is last."""
        return self._otypes

    def feature_keys(self, kind: str = NODE_KIND) -> tuple[str, ...]:
        return tuple(sorted(key for k, key in self._feature_sections if k == kind))

    def store(self, key: str, kind: str = NODE_KIND) -> FeatureStore | None:
        sid = self._feature_sections.get((kind, key))
        if sid is None:
            return None
        cached = self._stores.get((kind, key))
        if cached is None:
            try:
                cached = FeatureStore(self._payloads[sid])
            except _DECODE_ERRORS as exc:
                raise _bad_section(image.section_name(sid), exc) from None
            self._stores[(kind, key)] = cached
        return cached

    def _row(self, node: int) -> int:
        i = _find(self._ids, node)
        if i < 0:
            raise KeyError(f"no node with id {node}")
        return i

    def _rows(self, nodes: list[int]) -> np.ndarray:
        """Rows of the given node ids, -1 for an id the corpus lacks; ids
        of any size are accepted."""
        ids = np.fromiter((n if 0 <= n < 2**32 else -1 for n in nodes), dtype=np.int64, count=len(nodes))
        rows = np.minimum(np.searchsorted(self._ids, ids), len(self._ids) - 1)
        return np.where(self._ids[rows] == ids, rows, -1)

    def _runs(self, row: int) -> tuple[np.ndarray, np.ndarray]:
        """First and last monads of the row's runs."""
        s = self._monad_idx[row]
        lo, hi = self._set_offsets[s], self._set_offsets[s + 1]
        return self._run_first[lo:hi], self._run_last[lo:hi]

    def _monad_set(self, row: int) -> MonadSet:
        firsts, lasts = self._runs(row)
        return MonadSet(tuple(zip(firsts.tolist(), lasts.tolist())))

    def monads(self, node: int) -> MonadSet:
        return self._monad_set(self._row(node))

    def otype(self, node: int) -> str:
        return self._otypes[int(self._otype_code[self._row(node)])]

    # -- traversal ----------------------------------------------------------

    def _rows_for_otype(self, otype: str | None) -> tuple[np.ndarray, np.ndarray]:
        """Rows of one otype (all rows for None, none for an otype the corpus
        lacks) in canonical order, with their first monads; cached."""
        cached = self._otype_rows.get(otype)
        if cached is None:
            rows = self._canon
            if otype is not None:
                rows = rows[self._otype_code[rows] == self._otype_rank.get(otype, -1)]
            cached = self._otype_rows[otype] = (rows, self._first[rows])
        return cached

    def _last_runmax(self, otype: str | None) -> np.ndarray:
        """Running maximum of the last monads of ``_rows_for_otype(otype)``'s
        rows; cached."""
        cached = self._runmax.get(otype)
        if cached is None:
            rows = self._rows_for_otype(otype)[0]
            cached = self._runmax[otype] = np.maximum.accumulate(self._last[rows])
        return cached

    def _typed_rows(self, otype: str | None) -> tuple[np.ndarray, np.ndarray]:
        """``_rows_for_otype``, warning about an otype the corpus lacks."""
        if otype is not None and otype not in self._otype_rank:
            warnings.warn(f"unknown otype {otype!r}", UnknownOtypeWarning, stacklevel=3)
        return self._rows_for_otype(otype)

    def nodes(self, otype: str | None = None) -> Iterator[int]:
        """All nodes in canonical order, optionally restricted to one otype.

        An unknown otype yields nothing but warns immediately, since it is
        more often a typo than an intentionally empty selection.
        """
        return (int(self._ids[row]) for row in self._typed_rows(otype)[0])

    def feature(self, target: int, key: str, kind: str = NODE_KIND) -> str | None:
        """Value of a feature, or None when the target has no value for it."""
        store = self.store(key, kind)
        return None if store is None else store.get(target)

    @staticmethod
    def _window(firsts: np.ndarray, lo: int | np.ndarray, hi: int | np.ndarray) -> tuple:
        """The interval primitive.  Canonical order is first-monad-major, so
        the rows of a canonical-order array whose first monad lies in lo..hi
        form one slice, ``start:stop``, found in ``firsts`` (those rows'
        first monads).  Given arrays of bounds, it finds one slice each."""
        return firsts.searchsorted(lo), firsts.searchsorted(hi + 1)

    @staticmethod
    def _exact(a, b, need: np.ndarray, test: Callable[[int, int], bool]) -> np.ndarray:
        """Mask over pairs of rows ``a`` and ``b`` (either may be one row)
        that passed an envelope test: ``test(a, b)`` where ``need`` is set,
        True elsewhere, where the envelope test is already exact."""
        keep = ~need
        idx = np.flatnonzero(need)
        if len(idx):
            a, b = np.broadcast_to(a, need.shape)[idx], np.broadcast_to(b, need.shape)[idx]
            keep[idx] = [test(x, y) for x, y in zip(a.tolist(), b.tolist())]
        return keep

    def _covers(self, outer: int, inner: int) -> bool:
        """Whether row ``outer``'s monads include all of row ``inner``'s."""
        ofirst, olast = self._runs(outer)
        ifirst, ilast = self._runs(inner)
        j = np.searchsorted(ofirst, ifirst, side="right") - 1
        return bool(np.all((j >= 0) & (ilast <= olast[j])))

    def _meets(self, a: int, b: int) -> bool:
        """Whether rows ``a`` and ``b`` share a monad."""
        afirst, alast = self._runs(a)
        bfirst, blast = self._runs(b)
        j = np.searchsorted(afirst, blast, side="right") - 1
        return bool(np.any((j >= 0) & (alast[j] >= bfirst)))

    @staticmethod
    def _pairs(start: np.ndarray, stop: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Expand one slice ``start[i]:stop[i]`` per row i into pairs (i,
        position), grouped by i and ascending within each group."""
        counts = stop - start
        owner = np.repeat(np.arange(len(counts)), counts)
        return owner, np.repeat(start - np.cumsum(counts) + counts, counts) + np.arange(counts.sum())

    def _inside(self, rows: np.ndarray, firsts: np.ndarray, row: int) -> np.ndarray:
        """Those of the canonical-order ``rows`` (first monads ``firsts``)
        embedded in ``row``: monad subset, ``row`` itself excluded."""
        start, stop = self._window(firsts, self._first[row], self._last[row])
        cand = rows[start:stop]
        cand = cand[(self._last[cand] <= self._last[row]) & (cand != row)]
        if self._nruns[row] > 1:  # else the envelope test is exact
            cand = cand[self._exact(row, cand, np.ones_like(cand, dtype=bool), self._covers)]
        return cand

    def _inside_many(
        self, rows: np.ndarray, firsts: np.ndarray, parents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``_inside`` for every row of ``parents`` at once: the pairs (i, j)
        with ``rows[j]`` embedded in ``parents[i]``, ordered by i, then j."""
        i, j = self._pairs(*self._window(firsts, self._first[parents], self._last[parents]))
        outer, inner = parents[i], rows[j]
        keep = (self._last[inner] <= self._last[outer]) & (inner != outer)
        i, j, outer, inner = i[keep], j[keep], outer[keep], inner[keep]
        keep = self._exact(outer, inner, self._nruns[outer] > 1, self._covers)
        return i[keep], j[keep]

    @cached_property
    def _passages(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Passage rows in canonical order, their first monads, and the
        widest passage envelope (computed on first use)."""
        prows, pfirsts = self._rows_for_otype(self.metadata.passage_otype)
        return prows, pfirsts, int((self._last[prows] - pfirsts).max(initial=0)) + 1

    def _passages_meeting(self, nodes: Iterable[int]) -> dict[int, list[int]]:
        """Passage node -> those of the given (existing) nodes whose monads
        meet it.  Keys and each list follow canonical order."""
        prows, pfirsts, span = self._passages
        rows = np.searchsorted(self._ids, np.unique(np.fromiter(nodes, dtype=np.int64)))
        rows = rows[np.argsort(self._canon_pos[rows])]
        # A passage meeting a row starts in first-span+1..last of the row:
        # one window per row, as in passage_of.
        owner, pos = self._pairs(*self._window(pfirsts, self._first[rows] - span + 1, self._last[rows]))
        pair_rows, pair_ps = rows[owner], prows[pos]
        meet = self._last[pair_ps] >= self._first[pair_rows]
        pair_ps, pair_rows = pair_ps[meet], pair_rows[meet]
        multi = (self._nruns[pair_ps] > 1) | (self._nruns[pair_rows] > 1)
        meet = self._exact(pair_ps, pair_rows, multi, self._meets)
        hits: dict[int, list[int]] = {}
        for p, node in zip(pair_ps[meet].tolist(), self._ids[pair_rows[meet]].tolist()):
            hits.setdefault(p, []).append(node)
        return {int(self._ids[p]): hits[p] for p in sorted(hits, key=self._canon_pos.__getitem__)}

    def up(self, node: int, otype: str | None = None) -> list[int]:
        """Nodes embedding this one (monad superset, self excluded), in
        canonical order; optionally one otype only."""
        row = self._row(node)
        rows, firsts = self._typed_rows(otype)
        # Ancestors start at or before the row, in a prefix of canonical
        # order, and end at or after it, which the running maximum of last
        # monads bounds from below.
        lo = self._last_runmax(otype).searchsorted(self._last[row])
        cand = rows[lo : self._window(firsts, 1, self._first[row])[1]]
        cand = cand[(self._last[cand] >= self._last[row]) & (cand != row)]
        return self._ids[cand[self._exact(cand, row, self._nruns[cand] > 1, self._covers)]].tolist()

    def down(self, node: int, otype: str | None = None) -> list[int]:
        """Nodes embedded in this one (monad subset, self excluded), in
        canonical order; optionally one otype only."""
        row = self._row(node)
        return self._ids[self._inside(*self._typed_rows(otype), row)].tolist()

    def text_of(self, node: int) -> str:
        """Primary text covered by the node's monads, in ascending monad
        order: slot substrings concatenate directly when their character
        regions touch, and are joined with a single space otherwise."""
        row = self._row(node)
        pieces: list[str] = []
        prev_end = -1
        for a, b in self._monad_set(row).runs:
            for m in range(a, b + 1):
                start, end = int(self._slot_starts[m - 1]), int(self._slot_ends[m - 1])
                if prev_end >= 0 and start != prev_end:
                    pieces.append(" ")
                pieces.append(self.text[start:end])
                prev_end = end
        return "".join(pieces)

    def passage_of(self, node: int) -> int | None:
        """First passage-otype node (canonical order) whose monads intersect
        this node's, or None when no passage touches it."""
        prows, pfirsts, span = self._passages
        if not len(prows):
            return None
        # The window and tests of _passages_meeting for one row; its batched
        # form costs over twice as much per call.
        row = self._row(node)
        first, last = self._first[row], self._last[row]
        cand = prows[slice(*self._window(pfirsts, first - span + 1, last))]
        cand = cand[self._last[cand] >= first]
        cand = cand[self._exact(cand, row, (self._nruns[cand] > 1) | (self._nruns[row] > 1), self._meets)]
        return int(self._ids[cand[0]]) if len(cand) else None

    def slot_region(self, monad: int) -> Region:
        if not 1 <= monad <= self.width:
            raise KeyError(f"monad {monad} outside 1..{self.width}")
        return Region(int(self._slot_starts[monad - 1]), int(self._slot_ends[monad - 1]))

    def edges(self) -> Iterator[Edge]:
        for i in range(len(self._edge_ids)):
            yield Edge(
                id=int(self._edge_ids[i]),
                src=int(self._edge_src[i]),
                dst=int(self._edge_dst[i]),
                label=self._edge_labels[int(self._edge_label_code[i])],
            )

    def edge_labels(self) -> tuple[str, ...]:
        return self._edge_labels

    # -- reconstruction ------------------------------------------------------

    def as_logical_corpus(self) -> LogicalCorpus:
        """Rebuild the logical corpus this image was compiled from."""
        slots = tuple(
            Region(int(self._slot_starts[i]), int(self._slot_ends[i])) for i in range(self.width)
        )
        nodes = [
            Node(
                id=int(self._ids[i]),
                otype=self._otypes[int(self._otype_code[i])],
                monads=self._monad_set(i),
            )
            for i in range(len(self._ids))
        ]
        features = [
            FeatureAssignment(kind=kind, target=target, key=key, value=value)
            for (kind, key) in sorted(self._feature_sections)
            for target, value in self.store(key, kind).items()
        ]
        return LogicalCorpus.assemble(
            text=self.text,
            slots=slots,
            nodes=nodes,
            edges=list(self.edges()),
            features=features,
            metadata=self.metadata,
        )
