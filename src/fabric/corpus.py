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
from typing import Iterator

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


def _find(arr: np.ndarray, value: int) -> int:
    """Position of ``value`` in the sorted u32 array ``arr``, or -1.  The
    search key is a u32 scalar, so numpy does not copy ``arr`` to a wider
    type on every call."""
    if 0 <= value < 2**32:
        i = int(arr.searchsorted(np.uint32(value)))
        if i < len(arr) and int(arr[i]) == value:
            return i
    return -1


def _find_all(arr: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Positions of ``values`` in the sorted u32 array ``arr``, -1 for each
    value it lacks (every value outside 0..2**32-1 included).  The search
    keys are u32, as in ``_find``."""
    inside = (values >= 0) & (values < 2**32)
    keys = values.astype(np.uint32)
    pos = arr.searchsorted(keys)
    hit = inside & (pos < len(arr))
    hit[hit] = arr[pos[hit]] == keys[hit]
    return np.where(hit, pos, -1)


class FeatureStore:
    """One (kind, key) feature table: sorted targets, dictionary codes."""

    __slots__ = ("targets", "codes", "values", "ints")

    def __init__(self, payload: memoryview):
        count, _ = image.head(payload)
        self.targets, self.codes, dictionary = image.unpack(payload, count, count)
        self.values, _ = image.unpack(dictionary, strings=True)
        self.ints: np.ndarray | None = None  # the values as int64, for an integer-typed key
        if np.any(self.targets[1:] <= self.targets[:-1]):
            raise ValueError("targets are not strictly ascending")
        if count and int(self.codes.max()) >= len(self.values):
            raise ValueError(f"value code past the {len(self.values)}-entry dictionary")

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
            width, _ = image.head(slots)
            self._slot_starts, self._slot_ends, _ = image.unpack(slots, width, width)

            self._otypes, _ = image.unpack(need(image.OTYPES), strings=True)
            self._otype_rank = {name: i for i, name in enumerate(self._otypes)}

            pool = need(image.MONADPOOL)
            sets, runs = image.head(pool)
            self._set_offsets, self._run_first, self._run_last, _ = image.unpack(pool, sets + 1, runs, runs)
            offsets = self._set_offsets.astype(np.int64)
            sizes = np.diff(offsets)
            if offsets[0] != 0 or offsets[-1] != runs or sizes.min(initial=1) <= 0:
                raise ValueError(f"set offsets do not ascend strictly from 0 to the run count {runs}")
            if runs and (int(self._run_first.min()) < 1 or int(self._run_last.max()) > width):
                raise ValueError(f"a monad run lies outside 1..{width}")
            if np.any(self._run_first > self._run_last):
                raise ValueError("a run's first monad is past its last")
            if runs > sets:  # some set has more than one run
                # Each run after the first of its set starts past the one
                # before it, with a gap.
                multi = np.flatnonzero(sizes > 1)
                _, later = self._pairs(offsets[multi] + 1, offsets[multi + 1])
                if np.any(self._run_first[later] <= self._run_last[later - 1].astype(np.int64) + 1):
                    raise ValueError("the runs of a set do not ascend with a gap between them")

            nodes = need(image.NODES)
            n, _ = image.head(nodes)
            self._ids, self._otype_code, self._monad_idx, _ = image.unpack(nodes, n, n, n)
            if n and int(self._otype_code.max()) >= len(self._otypes):
                raise ValueError(f"otype code past the {len(self._otypes)}-entry otype table")
            if np.any(self._ids[1:] <= self._ids[:-1]):
                raise ValueError("node ids are not strictly ascending")

            # Per-node monad envelope, derived from the pool in one gather.
            sets = self._monad_idx.astype(np.int64)
            self._first = self._run_first[self._set_offsets[sets]].astype(np.int64)
            self._last = self._run_last[self._set_offsets[sets + 1] - 1].astype(np.int64)
            self._nruns = sizes[sets]

            # Canonical permutation; lexsort treats its last key as primary.
            self._canon = np.lexsort((self._ids, self._otype_code, -self._last, self._first))
            self._canon_pos = np.empty(n, dtype=np.int64)
            self._canon_pos[self._canon] = np.arange(n)

            self._edge_labels, _ = image.unpack(need(image.EDGELABELS), strings=True)
            edges = need(image.EDGES)
            e, _ = image.head(edges)
            self._edge_ids, self._edge_src, self._edge_dst, self._edge_label_code, _ = image.unpack(
                edges, e, e, e, e
            )
            if e and int(self._edge_label_code.max()) >= len(self._edge_labels):
                raise ValueError(f"edge label code past the {len(self._edge_labels)}-entry label table")
            if e and np.any(_find_all(self._ids, np.concatenate((self._edge_src, self._edge_dst))) < 0):
                raise ValueError("an edge endpoint is not a node id")
            ids = np.sort(self._edge_ids)
            if np.any(ids[1:] == ids[:-1]):
                raise ValueError("edge ids are not unique")

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
            fcount, _ = image.head(findex)
            fids, fkinds, keys, _ = image.unpack(findex, fcount, fcount, strings=True)
            self._feature_sections: dict[tuple[str, str], int] = {
                (_KINDS[kind], key): sid for sid, kind, key in zip(fids.tolist(), fkinds.tolist(), keys)
            }
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

    def int_values(self, key: str, kind: str = NODE_KIND) -> np.ndarray:
        """The dictionary of the integer-typed (kind, key) store as int64,
        decoded once.  The compiler admits only such values, so one that
        does not decode makes the store a bad section."""
        store = self.store(key, kind)
        if store.ints is None:
            try:
                store.ints = np.fromiter(map(int, store.values), dtype=np.int64, count=len(store.values))
            except (ValueError, OverflowError) as exc:
                raise _bad_section(image.section_name(self._feature_sections[(kind, key)]), exc) from None
        return store.ints

    @cached_property
    def _edges_by_id(self) -> tuple[np.ndarray, np.ndarray]:
        """Edge ids ascending, with the label code of each.  EDGES is ordered
        by label, not by id, so every lookup of an edge by id goes through
        this index."""
        order = np.argsort(self._edge_ids, kind="stable")
        return self._edge_ids[order], self._edge_label_code[order]

    def _group_codes(self, key: str, kind: str) -> np.ndarray:
        """The group of each target of the (kind, key) store, in the store's
        order: a node's otype code, an edge's label code."""
        ids, codes = (self._ids, self._otype_code) if kind == NODE_KIND else self._edges_by_id
        rows = _find_all(ids, self.store(key, kind).targets)
        if np.any(rows < 0):
            section = image.section_name(self._feature_sections[(kind, key)])
            raise ImageError("BAD_SECTION", f"section {section} has a target the image lacks", section=section)
        return codes[rows]

    def _row(self, node: int) -> int:
        i = _find(self._ids, node)
        if i < 0:
            raise KeyError(f"no node with id {node}")
        return i

    def _rows(self, nodes: list[int]) -> np.ndarray:
        """Rows of the given node ids, -1 for an id the corpus lacks; ids
        of any size are accepted."""
        ids = np.fromiter((n if 0 <= n < 2**32 else -1 for n in nodes), dtype=np.int64, count=len(nodes))
        return _find_all(self._ids, ids)

    def _monad_set(self, row: int) -> MonadSet:
        s = self._monad_idx[row]
        runs = slice(self._set_offsets[s], self._set_offsets[s + 1])
        return MonadSet(tuple(zip(self._run_first[runs].tolist(), self._run_last[runs].tolist())))

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

    @cached_property
    def _run_keys(self) -> np.ndarray:
        """Every run's key for ``_run_test``, set index * (width + 1) + first
        monad; it ascends, since sets are stored in order and so are the
        runs within a set."""
        sizes = np.diff(self._set_offsets)
        return np.repeat(np.arange(len(sizes), dtype=np.int64) * (self.width + 1), sizes) + self._run_first

    def _run_test(self, a, b, need: np.ndarray, embed: bool) -> np.ndarray:
        """Mask over pairs of rows ``a`` and ``b`` (either may be one row)
        that passed an envelope test: where ``need`` is set, whether ``a``'s
        monads include all of ``b``'s (``embed``) or share one with them;
        True elsewhere, where the envelope test is exact.  One search on
        ``_run_keys`` finds, for each run of ``b`` in every pair, the last
        run of ``a`` starting at or before the run's first monad, which must
        cover it (embedding), or its last monad, which must overlap it."""
        keep = ~need
        idx = np.flatnonzero(need)
        if len(idx):
            a, b = np.broadcast_to(a, need.shape)[idx], np.broadcast_to(b, need.shape)[idx]
            start = self._set_offsets[self._monad_idx[b]].astype(np.int64)
            owner, run = self._pairs(start, start + self._nruns[b])
            first, last = self._run_first[run], self._run_last[run]
            probe, reach = (first, last) if embed else (last, first)
            sa = self._monad_idx[a][owner].astype(np.int64)
            j = self._run_keys.searchsorted(sa * (self.width + 1) + probe, side="right") - 1
            hit = (j >= self._set_offsets[sa]) & (self._run_last[j] >= reach)
            placed = np.bincount(owner[hit], minlength=len(idx))
            keep[idx] = placed == self._nruns[b] if embed else placed > 0
        return keep

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
            cand = cand[self._run_test(row, cand, np.ones_like(cand, dtype=bool), True)]
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
        keep = self._run_test(outer, inner, self._nruns[outer] > 1, True)
        return i[keep], j[keep]

    @cached_property
    def _passages(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Passage rows in canonical order, their first monads, and the
        widest passage envelope (computed on first use)."""
        prows, pfirsts = self._rows_for_otype(self.metadata.passage_otype)
        return prows, pfirsts, int((self._last[prows] - pfirsts).max(initial=0)) + 1

    def _meeting(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, passage row) whose monads meet those of ``rows[i]``,
        ordered by i, then by canonical order of the passages."""
        prows, pfirsts, span = self._passages
        # A passage meeting a row starts in first-span+1..last of the row:
        # one window per row, as in passage_of.
        owner, pos = self._pairs(*self._window(pfirsts, self._first[rows] - span + 1, self._last[rows]))
        pair_rows, pair_ps = rows[owner], prows[pos]
        meet = self._last[pair_ps] >= self._first[pair_rows]
        owner, pair_rows, pair_ps = owner[meet], pair_rows[meet], pair_ps[meet]
        multi = (self._nruns[pair_ps] > 1) | (self._nruns[pair_rows] > 1)
        meet = self._run_test(pair_ps, pair_rows, multi, False)
        return owner[meet], pair_ps[meet]

    def _first_passages(self, rows: np.ndarray) -> np.ndarray:
        """``passage_of`` for every row at once: the row of the first passage
        meeting each row, -1 where none does."""
        owner, ps = self._meeting(rows)
        head = np.ones(len(owner), dtype=bool)
        head[1:] = owner[1:] != owner[:-1]
        first = np.full(len(rows), -1, dtype=np.int64)
        first[owner[head]] = ps[head]
        return first

    def _passages_meeting(self, nodes: np.ndarray) -> tuple[list[int], list[tuple[int, ...]]]:
        """The passage nodes meeting any of the given (existing) node ids,
        each with those of the ids whose monads meet it; both canonical."""
        rows = _find_all(self._ids, np.unique(nodes))
        rows = rows[np.argsort(self._canon_pos[rows])]
        owner, ps = self._meeting(rows)
        # Group the pairs by passage; a stable sort keeps each group's nodes
        # in canonical order.
        order = np.argsort(self._canon_pos[ps], kind="stable")
        ps, met = ps[order], self._ids[rows[owner[order]]].tolist()
        heads = np.flatnonzero(np.diff(ps, prepend=-1))
        bounds = heads.tolist() + [len(met)]
        return self._ids[ps[heads]].tolist(), [tuple(met[a:b]) for a, b in zip(bounds, bounds[1:])]

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
        return self._ids[cand[self._run_test(cand, row, self._nruns[cand] > 1, True)]].tolist()

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
        # Serves single-node browsing: the window and tests of _meeting for
        # one row, since the batched form costs over twice as much per call.
        # Match tables take their passages from _first_passages instead.
        row = self._row(node)
        first, last = self._first[row], self._last[row]
        cand = prows[slice(*self._window(pfirsts, first - span + 1, last))]
        cand = cand[self._last[cand] >= first]
        cand = cand[self._run_test(cand, row, (self._nruns[cand] > 1) | (self._nruns[row] > 1), False)]
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
