"""Read-only corpus API over a compiled image.

``Corpus.from_file`` reads the image into memory and maps its sections
onto read-only numpy views of the image bytes.  Opening a corpus costs
integrity checks, whole-array passes over the NODES and MULTIRUN tables,
and one sort: of the u32 node ids, which finds a repeated id and looks up
the edge endpoints.  Besides the views, the load keeps each row's first
and last monad, read from NODES as columns, and its run count as int64
(``load_profile`` has the time of each phase).  A row of one run is its
envelope; only the rows of several runs are listed in MULTIRUN, whose
rows and run offsets the load keeps as int64 too.

Node identity in this API is the integer node id; inside, a node is its
row.  The compiler writes the rows in canonical order (first monad asc,
last monad desc, otype rank asc, id asc), and node feature stores name
their targets by row, so the load only checks that order.  It reads
(first, last) as one u64 key, first * (width + 1) - last, which the
checked bounds 1 <= first, last <= width < 2**32 keep in 1..2**64-1.

Other arrays are built on first use and cached per corpus: the map from
an id to its row (``_by_id``); each feature store, decoded and checked
(``store``); per node-feature key, the dictionary code at every corpus
row, -1 where the row lacks the key (``_row_codes``); per (node-feature
key, otype), the rows carrying the key grouped by code, in canonical order
within a code (``_postings``, the index posting lists are read from); per
otype, its rows in canonical order (``_rows_for_otype``) and the running
maximum of their last monads (``_last_runmax``); the keys of MULTIRUN's
runs (``_run_keys``); and the edges by id (``_edges_by_id``).

Every monad join is a slice of canonical order (``_window`` or
``_reach``), its pairs (``_pairs``) and one relation on them all:
``_embeds`` or ``_meets``, the embedding and intersection of monad sets.
"""

from __future__ import annotations

import json
import struct
from functools import cached_property
from pathlib import Path
from time import perf_counter
from typing import Iterator

import numpy as np

from . import image
from .errors import ImageError, warn
from .model import (
    EDGE_KIND,
    NODE_KIND,
    Columns,
    CorpusMetadata,
    CorpusStats,
    Edge,
    LogicalCorpus,
    MonadSet,
    Region,
    heads,
)

_KINDS = (NODE_KIND, EDGE_KIND)


class UnknownOtypeWarning(UserWarning):
    """Asked for nodes of an otype the corpus does not contain."""


# What decoding a malformed section raises: counts past the payload's end,
# codes past a table, bad UTF-8 or JSON, JSON nested too deeply for the
# decoder, metadata of the wrong shape, a payload shorter than its head.
_DECODE_ERRORS = (ValueError, IndexError, KeyError, TypeError, RecursionError, struct.error)
_STATS = struct.Struct("<4Q")
_RUN_OFFSETS = "the run offsets do not ascend from 0 to the run count {}, two runs a row or more"


def _meta_field(meta: dict, key: str, many: bool = False):
    """A METADATA field as the compiler writes it: a string, or with
    ``many`` a list of strings."""
    value = meta[key]
    if not (isinstance(value, list) and all(isinstance(v, str) for v in value) if many else isinstance(value, str)):
        raise TypeError(f"metadata {key!r} is not {'a list of strings' if many else 'a string'}")
    return value


def _bad_section(name: str, exc: Exception) -> ImageError:
    return ImageError("BAD_SECTION", f"section {name} cannot be decoded: {exc}", section=name)


def _lacks_target(name: str) -> ImageError:
    return ImageError("BAD_SECTION", f"section {name} has a target the image lacks", section=name)


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
    """One (kind, key) feature table: sorted targets (rows in a node
    store, edge ids in an edge store), dictionary codes."""

    __slots__ = ("targets", "codes", "values", "ints", "counts")

    def __init__(self, payload: memoryview):
        count, _ = image.head(payload)
        self.targets, self.codes, dictionary = image.unpack(payload, count, count)
        self.values, _ = image.unpack(dictionary, strings=True)
        self.ints: np.ndarray | None = None  # the values as int64, for an integer-typed key
        self.counts: np.ndarray | None = None  # value_counts(), once read
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

    def value_counts(self) -> np.ndarray:
        """Occurrences per dictionary code (codes are frequency-ordered),
        counted once."""
        if self.counts is None:
            self.counts = np.bincount(self.codes, minlength=len(self.values))
        return self.counts


class Corpus:
    """A loaded image: verified once, then served from read-only views.

    ``load_profile`` holds the seconds each phase of the load took: the
    file read (``from_file`` only), the directory, the CRC-32s, the NODES
    checks (``nodes``: its monad bounds, the id sort, the int64 casts, the
    slot rule and canonical order), the decoding and checks of every other
    section, MULTIRUN's included (``decode``),
    and the ``total``, of which the phases are parts."""

    def __init__(self, data: bytes):
        start = perf_counter()
        self._data = data
        entries = image.read_directory(data)
        listed = perf_counter()
        image.verify_sections(data, entries)
        checked = perf_counter()
        view = memoryview(data)
        payloads = {e.id: view[e.offset : e.offset + e.length] for e in entries}

        section = 0  # the id of the section being decoded, named for the error

        def need(sid: int) -> memoryview:
            nonlocal section
            section = sid
            if sid not in payloads:
                name = image.section_name(sid)
                raise ImageError("BAD_DIRECTORY", f"image is missing section {name}", section=name)
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

            meta = json.loads(bytes(need(image.METADATA)).decode("utf-8"))
            self.metadata = CorpusMetadata(
                otypes=tuple(_meta_field(meta, "otypes", many=True)),
                slot_otype=_meta_field(meta, "slot_otype"),
                int_features=frozenset(_meta_field(meta, "int_features", many=True)),
                passage_otype=_meta_field(meta, "passage_otype"),
                provenance=tuple(_meta_field(meta, "provenance", many=True)),
            )

            nodes_from = perf_counter()
            nodes = need(image.NODES)
            n, _ = image.head(nodes)
            self._ids, self._otype_code, first, last, _ = image.unpack(nodes, n, n, n, n)
            if n and int(self._otype_code.max()) >= len(self._otypes):
                raise ValueError(f"otype code past the {len(self._otypes)}-entry otype table")
            if (first > last).any():
                raise ValueError("a node's first monad is past its last")
            if n and (int(first.min()) < 1 or int(last.max()) > width):
                raise ValueError(f"a node's monads lie outside 1..{width}")
            ids = np.sort(self._ids)
            if (ids[1:] == ids[:-1]).any():
                raise ValueError("node ids are not unique")

            # Each row's first and last monad, as int64: the type of every
            # key and bound computed from them.
            self._first, self._last = first.astype(np.int64), last.astype(np.int64)
            # The compiler's slot rules: each slot-type node owns one monad
            # (first == last: the runs of a row have gaps between them), and
            # these cover 1..width once each.  Elementwise passes and one
            # compress: indexing by the interleaved slot mask costs more.
            slot = self._otype_code == self._otype_rank.get(self.metadata.slot_otype, -1)
            if (slot & (self._last != self._first)).any():
                raise ValueError("a slot-type node does not own exactly one monad")
            owned = self._first.compress(slot)
            seen = np.zeros(width + 1, dtype=bool)
            seen[owned] = True
            if len(owned) != width or not seen[1:].all():
                raise ValueError(f"slot-type nodes do not own the monads 1..{width} once each")

            # Rows are in canonical order: the u64 key of (first asc, last
            # desc) ascends, and (otype rank, id) where two rows tie on it.
            key = self._first.view(np.uint64) * np.uint64(width + 1) - self._last.view(np.uint64)
            tie = np.flatnonzero(key[1:] <= key[:-1])
            if len(tie):
                a, b = (self._otype_code[i] * np.uint64(2**32) + self._ids[i] for i in (tie, tie + 1))
                if (key[tie + 1] != key[tie]).any() or (b <= a).any():
                    raise ValueError("node rows are not in canonical order")
            nodes_to = perf_counter()

            # The rows of several runs, each with the offset of its runs.
            # Every other row is the one run its envelope spans.
            multirun = need(image.MULTIRUN)
            m, r = image.head(multirun)
            rows, offsets, self._run_first, self._run_last, _ = image.unpack(multirun, m, m + 1, r, r)
            self._multi_rows, self._multi_offsets = rows.astype(np.int64), offsets.astype(np.int64)
            self._nruns = np.ones(n, np.int64)
            if offsets[0] != 0 or offsets[-1] != r:
                raise ValueError(_RUN_OFFSETS.format(r))
            if m:  # else there is no run, and nothing more to check
                if (rows[1:] <= rows[:-1]).any() or rows[-1] >= n:
                    raise ValueError(f"the rows do not ascend strictly below the node count {n}")
                offsets = self._multi_offsets
                self._nruns[rows] = sizes = np.diff(offsets)
                if sizes.min() < 2:
                    raise ValueError(_RUN_OFFSETS.format(r))
                if int(self._run_first.min()) < 1 or int(self._run_last.max()) > width:
                    raise ValueError(f"a monad run lies outside 1..{width}")
                run_first, run_last = self._run_first.astype(np.int64), self._run_last.astype(np.int64)
                if (run_first > run_last).any():
                    raise ValueError("a run's first monad is past its last")
                # Each run after the first of its row starts past the one
                # before it, with a gap.
                gap = run_first[1:] > run_last[:-1] + 1
                gap[offsets[1:-1] - 1] = True
                if not gap.all():
                    raise ValueError("the runs of a row do not ascend with a gap between them")
                if (run_first[offsets[:-1]] != self._first[rows]).any() or (
                    run_last[offsets[1:] - 1] != self._last[rows]
                ).any():
                    raise ValueError("a row's runs do not start at its first monad and end at its last")

            self._edge_labels, _ = image.unpack(need(image.EDGELABELS), strings=True)
            edges = need(image.EDGES)
            e, _ = image.head(edges)
            self._edge_ids, self._edge_src, self._edge_dst, self._edge_label_code, _ = image.unpack(
                edges, e, e, e, e
            )
            if e and int(self._edge_label_code.max()) >= len(self._edge_labels):
                raise ValueError(f"edge label code past the {len(self._edge_labels)}-entry label table")
            if e and (_find_all(ids, np.concatenate((self._edge_src, self._edge_dst))) < 0).any():
                raise ValueError("an edge endpoint is not a node id")
            ids = np.sort(self._edge_ids)
            if (ids[1:] == ids[:-1]).any():
                raise ValueError("edge ids are not unique")

            stats = _STATS.unpack_from(need(image.STATS))
            self._stats = CorpusStats(*stats)
            # The feature count would need every store's head, and stores decode lazily.
            for what, said, has in zip(("words", "nodes", "edges"), stats[:2] + stats[3:], (width, n, e)):
                if said != has:
                    raise ValueError(f"counts {said} {what}, the image has {has}")

            findex = need(image.FEATINDEX)
            fcount, _ = image.head(findex)
            fids, fkinds, keys, _ = image.unpack(findex, fcount, fcount, strings=True)
            self._feature_sections: dict[tuple[str, str], int] = {
                (_KINDS[kind], key): sid for sid, kind, key in zip(fids.tolist(), fkinds.tolist(), keys)
            }
            for sid in self._feature_sections.values():
                need(sid)  # stores decode lazily, but must exist now
        except _DECODE_ERRORS as exc:
            raise _bad_section(image.section_name(section), exc) from None
        decoded = perf_counter()
        self._payloads = payloads
        self._stores: dict[tuple[str, str], FeatureStore] = {}
        self._otype_rows: dict[str | None, tuple[np.ndarray, np.ndarray]] = {}
        self._codes: dict[str, np.ndarray] = {}
        self._posting_index: dict[tuple[str, str], tuple[np.ndarray, np.ndarray]] = {}
        self._runmax: dict[str | None, np.ndarray] = {}
        node_checks = nodes_to - nodes_from
        self.load_profile: dict[str, float] = {
            "directory": listed - start,
            "crc": checked - listed,
            "decode": decoded - checked - node_checks,
            "nodes": node_checks,
        }
        self.load_profile["total"] = perf_counter() - start

    # -- construction -------------------------------------------------------

    @classmethod
    def from_bytes(cls, data: bytes) -> Corpus:
        return cls(data)

    @classmethod
    def from_file(cls, path: str | Path) -> Corpus:
        start = perf_counter()
        data = Path(path).read_bytes()
        read = perf_counter() - start
        corpus = cls(data)
        corpus.load_profile = {"read": read, **corpus.load_profile}
        corpus.load_profile["total"] += read
        return corpus

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
            # A node store's targets are rows; they ascend, so the last bounds all.
            if kind == NODE_KIND and len(cached) and int(cached.targets[-1]) >= len(self._ids):
                raise _lacks_target(image.section_name(sid))
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

    def _row_codes(self, key: str) -> np.ndarray:
        """The dictionary code of the node store ``key`` at every corpus
        row, -1 where the row's node lacks the key; cached.  The codes are
        numpy's index type, which a gather through them need not convert;
        the scatter goes through the targets as that type too, which costs
        less than through u32."""
        cached = self._codes.get(key)
        if cached is None:
            store = self.store(key)
            cached = self._codes[key] = np.full(len(self._ids), -1, dtype=np.intp)
            cached[store.targets.astype(np.intp)] = store.codes
        return cached

    def _group_codes(self, key: str, kind: str) -> np.ndarray:
        """The group of each target of the (kind, key) store, in the store's
        order: a node's otype code, an edge's label code.  The compiler
        admits no edge target but an edge id, so another makes the store a
        bad section."""
        targets = self.store(key, kind).targets
        if kind == NODE_KIND:
            return self._otype_code[targets.astype(np.intp)]
        ids, labels = self._edges_by_id
        rows = ids.searchsorted(targets)
        # A store's targets ascend, and so do their rows: the last bounds all.
        if len(rows) and (rows[-1] >= len(ids) or np.any(ids[rows] != targets)):
            raise _lacks_target(image.section_name(self._feature_sections[(kind, key)]))
        return labels[rows]

    def _postings(self, key: str, otype: str) -> tuple[np.ndarray, np.ndarray]:
        """The rows of ``otype`` that carry the node key ``key``, grouped by
        dictionary code and in canonical order within a code, with the
        bounds of each code's group: code k's rows are
        ``rows[offsets[k]:offsets[k + 1]]``; cached.  One value sort of
        ``code << 32 | row`` orders them, both parts being below 2**32."""
        cached = self._posting_index.get((key, otype))
        if cached is None:
            store = self.store(key)
            mine = self._otype_code[store.targets.astype(np.intp)] == self._otype_rank.get(otype, -1)
            keys = np.sort(store.codes.compress(mine).astype(np.uint64) << np.uint64(32) | store.targets.compress(mine))
            offsets = keys.searchsorted(np.arange(len(store.values) + 1, dtype=np.uint64) << np.uint64(32))
            cached = self._posting_index[(key, otype)] = ((keys & np.uint64(2**32 - 1)).astype(np.intp), offsets)
        return cached

    @cached_property
    def _by_id(self) -> tuple[np.ndarray, np.ndarray]:
        """Node ids ascending, and the row of each followed by -1, the row
        at the position ``_find`` gives for an id the corpus lacks: the map
        from an id to its row, built on the first lookup by id."""
        rows = np.argsort(self._ids)
        return self._ids[rows], np.append(rows, -1)

    def _find_row(self, node: int) -> int:
        """The row of node id ``node``, or -1."""
        ids, rows = self._by_id
        return int(rows[_find(ids, node)])

    def _row(self, node: int) -> int:
        row = self._find_row(node)
        if row < 0:
            raise KeyError(f"no node with id {node}")
        return row

    def _rows(self, nodes: list[int] | np.ndarray) -> np.ndarray:
        """Rows of the given node ids, -1 for an id the corpus lacks; ids
        of any size are accepted."""
        try:
            wanted = np.asarray(nodes, dtype=np.int64)
        except OverflowError:  # an id past int64, which no node has
            wanted = np.fromiter((n if 0 <= n < 2**32 else -1 for n in nodes), dtype=np.int64, count=len(nodes))
        ids, rows = self._by_id
        return rows[_find_all(ids, wanted)]

    def _monad_set(self, row: int) -> MonadSet:
        if self._nruns.item(row) == 1:
            return MonadSet(((self._first.item(row), self._last.item(row)),))
        entry = int(self._multi_rows.searchsorted(row))
        runs = slice(self._multi_offsets.item(entry), self._multi_offsets.item(entry + 1))
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
            if otype is None:
                rows = np.arange(len(self._ids))
            else:
                rows = np.flatnonzero(self._otype_code == self._otype_rank.get(otype, -1))
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
            warn(f"unknown otype {otype!r}", UnknownOtypeWarning)
        return self._rows_for_otype(otype)

    def nodes(self, otype: str | None = None) -> Iterator[int]:
        """All nodes in canonical order, optionally restricted to one otype.

        An unknown otype yields nothing but warns immediately, since it is
        more often a typo than an intentionally empty selection.
        """
        return iter(self._ids[self._typed_rows(otype)[0]].tolist())

    def feature(self, target: int, key: str, kind: str = NODE_KIND) -> str | None:
        """Value of a feature, or None when the target has no value for it."""
        store = self.store(key, kind)
        return None if store is None else store.get(self._find_row(target) if kind == NODE_KIND else target)

    @staticmethod
    def _window(firsts: np.ndarray, lo: int | np.ndarray, hi: int | np.ndarray) -> tuple:
        """The interval primitive.  Canonical order is first-monad-major, so
        the rows of a canonical-order array whose first monad lies in lo..hi
        form one slice, ``start:stop``, found in ``firsts`` (those rows'
        first monads).  Given arrays of bounds, it finds one slice each."""
        return firsts.searchsorted(lo), firsts.searchsorted(hi + 1)

    @cached_property
    def _run_keys(self) -> np.ndarray:
        """Every MULTIRUN run's key for ``_run_test``, the row's entry *
        (width + 1) + first monad; it ascends, since the rows are stored in
        order and so are the runs within a row."""
        entries = np.arange(len(self._multi_rows), dtype=np.int64) * (self.width + 1)
        return np.repeat(entries, np.diff(self._multi_offsets)) + self._run_first

    def _runs(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Every run of each of ``rows``: the position in ``rows`` of its
        row, and its first and last monad; grouped by position, ascending
        within a group.  A row of one run is its envelope; one of several
        is found in MULTIRUN by one search on its rows."""
        counts = self._nruns[rows]
        multi = counts > 1
        start = np.zeros(len(rows), np.int64)
        start[multi] = self._multi_offsets[self._multi_rows.searchsorted(rows[multi])]
        owner, run = self._pairs(start, start + counts)
        first, last = self._first[rows[owner]], self._last[rows[owner]]
        listed = multi[owner]
        first[listed], last[listed] = self._run_first[run[listed]], self._run_last[run[listed]]
        return owner, first, last

    def _run_test(self, a, b, need: np.ndarray, embed: bool) -> np.ndarray:
        """Mask over pairs of rows ``a`` and ``b`` (either may be one row)
        that passed an envelope test: where ``need`` is set, whether ``a``'s
        monads include all of ``b``'s (``embed``, where ``a`` has several
        runs) or share one with them (where either has); True elsewhere,
        where the envelope test is exact.  One search on ``_run_keys``
        finds, for each run of ``b`` in every pair, the last run of ``a``
        starting at or before the run's first monad, which must cover it
        (embedding), or its last monad, which must overlap it."""
        keep = ~need
        idx = need.nonzero()[0]
        if len(idx):
            a, b = np.broadcast_to(a, need.shape)[idx], np.broadcast_to(b, need.shape)[idx]
            if not embed:  # meeting is symmetric: put the row of several runs on a's side
                several = self._nruns[a] > 1
                a, b = np.where(several, a, b), np.where(several, b, a)
            owner, first, last = self._runs(b)
            probe, reach = (first, last) if embed else (last, first)
            entry = self._multi_rows.searchsorted(a)[owner]
            j = self._run_keys.searchsorted(entry * (self.width + 1) + probe, side="right") - 1
            hit = (j >= self._multi_offsets[entry]) & (self._run_last[j] >= reach)
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

    def _embeds(self, outer, inner) -> np.ndarray:
        """Mask over pairs of rows ``outer`` and ``inner`` (either may be one
        row): whether ``outer``'s monads include all of ``inner``'s, a row
        never embedding itself.  The envelopes settle every pair whose
        outer row has one run."""
        keep = (self._first[outer] <= self._first[inner]) & (self._last[inner] <= self._last[outer]) & (outer != inner)
        return keep & self._run_test(outer, inner, keep & (self._nruns[outer] > 1), True)

    def _meets(self, a, b) -> np.ndarray:
        """Mask over pairs of rows ``a`` and ``b`` (either may be one row):
        whether their monads share one.  The envelopes settle every pair of
        two rows of one run each."""
        keep = (self._first[a] <= self._last[b]) & (self._first[b] <= self._last[a])
        return keep & self._run_test(a, b, keep & ((self._nruns[a] > 1) | (self._nruns[b] > 1)), False)

    def _reach(self, otype: str | None, lo: int | np.ndarray, hi: int | np.ndarray) -> tuple:
        """The slice ``start:stop`` of ``_rows_for_otype(otype)``'s rows
        that holds every row starting at or before monad ``hi`` and ending
        at or after monad ``lo``: those that meet lo..hi, or, with the
        bounds swapped, span it.  Given arrays of bounds, one slice each."""
        return self._last_runmax(otype).searchsorted(lo), self._rows_for_otype(otype)[1].searchsorted(hi + 1)

    def _inside_many(
        self, rows: np.ndarray, firsts: np.ndarray, parents: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, j) with ``rows[j]`` (canonical order, first monads
        ``firsts``) embedded in ``parents[i]``, ordered by i, then j."""
        i, j = self._pairs(*self._window(firsts, self._first[parents], self._last[parents]))
        keep = self._embeds(parents[i], rows[j])
        return i[keep], j[keep]

    def _meeting(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The pairs (i, passage row) whose monads meet those of ``rows[i]``,
        ordered by i, then by canonical order of the passages."""
        passage = self.metadata.passage_otype
        owner, pos = self._pairs(*self._reach(passage, self._first[rows], self._last[rows]))
        ps = self._rows_for_otype(passage)[0][pos]
        meet = self._meets(ps, rows[owner])
        return owner[meet], ps[meet]

    def _first_passages(self, rows: np.ndarray) -> np.ndarray:
        """``passage_of`` for every row at once: the row of the first passage
        meeting each row, -1 where none does."""
        owner, ps = self._meeting(rows)
        head = heads(owner)
        first = np.full(len(rows), -1, dtype=np.int64)
        first[owner[head]] = ps[head]
        return first

    def _passages_meeting(self, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The passage nodes meeting any of the given rows (in any order,
        repeats allowed), and the ids of the rows meeting each: passage k's
        are ``met[bounds[k]:bounds[k + 1]]``.  Both are in canonical order."""
        rows = np.sort(rows)
        rows = rows[heads(rows)]
        owner, ps = self._meeting(rows)
        # Group the pairs by passage; a stable sort keeps each group's nodes
        # in canonical order.
        order = np.argsort(ps, kind="stable")
        ps, met = ps[order], self._ids[rows[owner[order]]]
        starts = np.flatnonzero(heads(ps))
        return self._ids[ps[starts]], met, np.append(starts, len(met))

    def up(self, node: int, otype: str | None = None) -> list[int]:
        """Nodes embedding this one (monad superset, self excluded), in
        canonical order; optionally one otype only."""
        row = self._row(node)
        cand = self._typed_rows(otype)[0][slice(*self._reach(otype, self._last[row], self._first[row]))]
        return self._ids[cand[self._embeds(cand, row)]].tolist()

    def down(self, node: int, otype: str | None = None) -> list[int]:
        """Nodes embedded in this one (monad subset, self excluded), in
        canonical order; optionally one otype only."""
        row = self._row(node)
        rows, firsts = self._typed_rows(otype)
        cand = rows[slice(*self._window(firsts, self._first[row], self._last[row]))]
        return self._ids[cand[self._embeds(row, cand)]].tolist()

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
        # Serves single-node browsing: _meeting for one row, since the
        # batched form costs over twice as much per call.  Match tables
        # take their passages from _first_passages instead.
        row = self._row(node)
        passage = self.metadata.passage_otype
        cand = self._rows_for_otype(passage)[0][slice(*self._reach(passage, self._first[row], self._last[row]))]
        cand = cand[self._meets(cand, row)]
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
        """Rebuild the logical corpus this image was compiled from, as
        columns gathered from the image's arrays: each row's runs are its
        envelope or its MULTIRUN entry."""
        _, first, last = self._runs(np.arange(len(self._ids)))
        offsets = np.append(0, np.cumsum(self._nruns))
        kinds, targets, keys, values = [], [], [], []
        for kind, key in self._feature_sections:
            store = self.store(key, kind)
            kinds += [kind] * len(store)
            targets += (self._ids[store.targets] if kind == NODE_KIND else store.targets).tolist()
            keys += [key] * len(store)
            values += map(store.values.__getitem__, store.codes.tolist())
        columns = Columns.build(
            (self._slot_starts, self._slot_ends),
            (self._ids, list(map(self._otypes.__getitem__, self._otype_code.tolist())),
             (offsets, first, last)),
            (self._edge_ids, self._edge_src, self._edge_dst,
             list(map(self._edge_labels.__getitem__, self._edge_label_code.tolist()))),
            (kinds, targets, keys, values),
        )
        return LogicalCorpus.from_columns(self.text, columns.assembled(), self.metadata)
