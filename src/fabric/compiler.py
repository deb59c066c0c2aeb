"""Compiling a LogicalCorpus into image bytes.

``compile_to_bytes`` is the one gate in front of every image: it runs the
structural validator (``ingest.validate``) and refuses an invalid corpus
before any byte is built, whether the corpus came from a front end, was
built by hand or was read back from an image.  Both the validator and
``build_sections`` read only the corpus's columns (``model.Columns``),
never its node, edge or feature objects.

Compilation is deterministic: the same corpus always produces the same
bytes.  Everything variable is given a fixed order: nodes in canonical
order (node feature stores name them by row), edges by (label, source,
id), feature stores by (kind, key), value dictionaries by descending
frequency with lexicographic tie-break, the rows of several monad runs
ascending, edge labels lexicographically.
"""

from __future__ import annotations

import contextlib
import json
import os
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import image
from .ingest import _U32_MAX, _check, validate
from .model import EDGE_KIND, NODE_KIND, CorpusStats, LogicalCorpus, gather, rank_otypes

_KIND_CODE = {NODE_KIND: 0, EDGE_KIND: 1}


@dataclass(frozen=True, slots=True)
class CompileSummary:
    total_bytes: int
    elapsed_seconds: float
    stats: CorpusStats
    sections: tuple[tuple[str, int], ...]  # (name, payload length)
    dictionaries: tuple[tuple[str, int], ...]  # ("N:lex", distinct values)


def build_sections(corpus: LogicalCorpus) -> tuple[list[tuple[int, bytes]], list[tuple[str, int]]]:
    """Produce (section_id, payload) pairs plus dictionary-size bookkeeping,
    from the columns of a validated corpus."""
    c, meta = corpus.columns, corpus.metadata
    if len(corpus.text) > _U32_MAX:
        raise ValueError(f"text length {len(corpus.text)} exceeds the 32-bit image format limit")
    sections: list[tuple[int, bytes]] = [
        (image.TEXT, corpus.text.encode("utf-8")),
        (image.SLOTS, image.pack(len(c.slot_start), c.slot_start, c.slot_end)),
    ]

    ranked = list(rank_otypes(meta, c.otype.strings))
    sections.append((image.OTYPES, image.pack(len(ranked), strings=ranked)))

    # Nodes in canonical order, so that a row is a canonical position: by
    # (first asc, last desc) as one u64 key, first * (width + 1) - last,
    # then by otype rank, then by id (the sort is stable, and by_id puts the
    # nodes in id order).  A row holds its node's first and last monad.
    otype_rank = np.array([ranked.index(t) for t in c.otype.strings], dtype=np.int64)[c.otype.codes]
    by_id = np.argsort(c.node_id, kind="stable")
    first, last = c.first[c.runs[:-1]], c.last[c.runs[1:] - 1]
    span = first.view(np.uint64) * np.uint64(len(c.slot_start) + 1) - last.view(np.uint64)
    canon = by_id[np.lexsort((otype_rank[by_id], span[by_id]))]
    sections.append((image.NODES, image.pack(len(canon), c.node_id[canon], otype_rank[canon], first[canon], last[canon])))

    # The rows of more than one run, ascending, each with its own runs.
    multi = np.flatnonzero(np.diff(c.runs)[canon] > 1)
    offsets, flat = gather(c.runs, canon[multi])
    sections.append((image.MULTIRUN, image.pack(len(multi), multi, offsets, c.first[flat], c.last[flat], extra=len(flat))))

    labels = list(c.label.strings)
    sections.append((image.EDGELABELS, image.pack(len(labels), strings=labels)))
    e = np.lexsort((c.edge_id, c.src, c.label.codes))
    sections.append((image.EDGES, image.pack(len(e), c.edge_id[e], c.src[e], c.dst[e], c.label.codes[e])))

    meta_json = json.dumps(
        {
            "format_version": image.FORMAT_VERSION,
            "slot_otype": meta.slot_otype,
            "passage_otype": meta.passage_otype,
            "otypes": list(meta.otypes),
            "int_features": sorted(meta.int_features),
            "provenance": list(meta.provenance),
        },
        ensure_ascii=False,
        sort_keys=True,
        separators=(",", ":"),
    )
    sections.append((image.METADATA, meta_json.encode("utf-8")))

    stats = corpus.stats()
    sections.append(
        (
            image.STATS,
            np.asarray([stats.words, stats.nodes, stats.features, stats.edges], dtype="<u8").tobytes(),
        )
    )

    # One store per (kind, key), N before E, keys in lexicographic order;
    # each sorted by target: a node's row, an edge's id.  The validator
    # refuses a repeated (kind, target, key), so one sort of store << 32 |
    # target orders them.  Value codes follow value order, so a stable sort
    # on descending count orders each dictionary by frequency, ties broken
    # lexicographically.
    nkeys = len(c.key.strings)
    store = (c.kind.codes == c.kind.code(EDGE_KIND)) * nkeys + c.key.codes
    on_node = store < nkeys
    row = np.empty(len(canon), np.int64)
    row[canon] = np.arange(len(canon))
    target = c.target.copy()
    target[on_node] = row[by_id[c.node_id[by_id].searchsorted(target[on_node])]]
    rows = np.argsort(store << 32 | target)
    stores, starts = np.unique(store[rows], return_index=True)
    bounds = [*starts.tolist(), len(rows)]
    dict_sizes: list[tuple[str, int]] = []
    index_ids, kinds, keys = [], [], []
    for n, (s, a, b) in enumerate(zip(stores.tolist(), bounds, bounds[1:])):
        kind, key = (EDGE_KIND, NODE_KIND)[s < nkeys], c.key.strings[s % nkeys]
        r = rows[a:b]
        codes, inverse, counts = np.unique(c.value.codes[r], return_inverse=True, return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        recode = np.empty_like(by_count)
        recode[by_count] = np.arange(len(by_count))
        values = list(map(c.value.strings.__getitem__, codes[by_count].tolist()))
        dict_sizes.append((f"{kind}:{key}", len(values)))
        store_payload = image.pack(len(r), target[r], recode[inverse], extra=len(values))
        sections.append((image.FEATURE_BASE + n, store_payload + image.pack(len(values), strings=values)))
        index_ids.append(image.FEATURE_BASE + n)
        kinds.append(_KIND_CODE[kind])
        keys.append(key)
    sections.append((image.FEATINDEX, image.pack(len(keys), index_ids, kinds, strings=keys)))

    return sections, dict_sizes


def compile_to_bytes(corpus: LogicalCorpus) -> tuple[bytes, CompileSummary]:
    """Validate and compile; returns the image bytes and a summary.  Raises
    ValidationFailure on a structural error and warns (IngestWarning) on
    the validator's warnings."""
    started = time.perf_counter()
    _check(validate(corpus))
    sections, dict_sizes = build_sections(corpus)
    data = image.build_image(sections)
    names = dict(image.SECTION_NAMES)
    for i, (store_name, _) in enumerate(dict_sizes):
        names[image.FEATURE_BASE + i] = f"feature {store_name}"
    summary = CompileSummary(
        total_bytes=len(data),
        elapsed_seconds=time.perf_counter() - started,
        stats=corpus.stats(),
        sections=tuple((names[sid], len(payload)) for sid, payload in sorted(sections)),
        dictionaries=tuple(dict_sizes),
    )
    return data, summary


def _write_atomic(out_path: str | Path, data: bytes) -> None:
    """Write a file atomically: the target either keeps its old content or
    holds the complete new bytes, never a torn write."""
    path = Path(out_path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError) and exc.filename is not None:  # name the target, not the temp file
            raise OSError(exc.errno, exc.strerror, str(out_path)) from None
        raise


def compile_corpus(corpus: LogicalCorpus, out_path: str | Path) -> CompileSummary:
    """Compile to a file, written atomically."""
    data, summary = compile_to_bytes(corpus)
    _write_atomic(out_path, data)
    return summary


def verify_image(path: str | Path) -> image.ImageCheck:
    """Integrity scan of an image file."""
    return image.check_image(Path(path).read_bytes())
