"""Compiling a validated LogicalCorpus into image bytes.

Compilation is deterministic: the same corpus always produces the same
bytes.  Everything variable is given a fixed order: nodes by id, edges by
id, feature stores by (kind, key), value dictionaries by descending
frequency with lexicographic tie-break, the monad-set pool by its run
tuples, edge labels lexicographically.
"""

from __future__ import annotations

import json
import os
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import image
from .errors import ValidationFailure
from .ingest import validate
from .model import EDGE_KIND, NODE_KIND, CorpusStats, LogicalCorpus, rank_otypes

_U32_MAX = 2**32 - 1
_KIND_CODE = {NODE_KIND: 0, EDGE_KIND: 1}


@dataclass(frozen=True, slots=True)
class CompileSummary:
    total_bytes: int
    elapsed_seconds: float
    stats: CorpusStats
    sections: tuple[tuple[str, int], ...]  # (name, payload length)
    dictionaries: tuple[tuple[str, int], ...]  # ("N:lex", distinct values)


def _u32(values) -> bytes:
    arr = np.asarray(values, dtype="<u4")
    return arr.tobytes()


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise ValueError(f"{what} {value} exceeds the 32-bit image format limit")
    return value


def _pack_strtable(strings: list[str]) -> bytes:
    blob = bytearray()
    offsets = [0]
    for s in strings:
        blob += s.encode("utf-8")
        offsets.append(len(blob))
    return _u32([len(strings), 0]) + _u32(offsets) + bytes(blob)


def _value_dictionary(values: Counter[str]) -> dict[str, int]:
    """Dictionary codes: most frequent first, ties broken lexicographically."""
    ordered = sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))
    return {value: code for code, (value, _) in enumerate(ordered)}


def build_sections(corpus: LogicalCorpus) -> tuple[list[tuple[int, bytes]], list[tuple[str, int]]]:
    """Produce (section_id, payload) pairs plus dictionary-size bookkeeping."""
    sections: list[tuple[int, bytes]] = []
    dict_sizes: list[tuple[str, int]] = []

    sections.append((image.TEXT, corpus.text.encode("utf-8")))

    _check_u32(len(corpus.text), "text length")
    starts = [r.start for r in corpus.slots]
    ends = [r.end for r in corpus.slots]
    sections.append((image.SLOTS, _u32([len(corpus.slots), 0]) + _u32(starts) + _u32(ends)))

    ranked = list(rank_otypes(corpus.metadata, {n.otype for n in corpus.nodes}))
    rank = {otype: i for i, otype in enumerate(ranked)}
    sections.append((image.OTYPES, _pack_strtable(ranked)))

    # Monad-set pool: distinct run tuples in lexicographic order.
    pool_index: dict[tuple[tuple[int, int], ...], int] = {}
    for node in corpus.nodes:
        pool_index.setdefault(node.monads.runs, 0)
    ordered_sets = sorted(pool_index)
    pool_index = {runs: i for i, runs in enumerate(ordered_sets)}
    set_offsets = [0]
    run_first: list[int] = []
    run_last: list[int] = []
    for runs in ordered_sets:
        for first, last in runs:
            run_first.append(first)
            run_last.append(_check_u32(last, "monad"))
        set_offsets.append(len(run_first))
    sections.append(
        (
            image.MONADPOOL,
            _u32([len(ordered_sets), len(run_first)]) + _u32(set_offsets) + _u32(run_first) + _u32(run_last),
        )
    )

    node_ids = [_check_u32(n.id, "node id") for n in corpus.nodes]
    otype_codes = [rank[n.otype] for n in corpus.nodes]
    monad_idx = [pool_index[n.monads.runs] for n in corpus.nodes]
    sections.append(
        (image.NODES, _u32([len(corpus.nodes), 0]) + _u32(node_ids) + _u32(otype_codes) + _u32(monad_idx))
    )

    labels = sorted({e.label for e in corpus.edges})
    label_code = {label: i for i, label in enumerate(labels)}
    sections.append((image.EDGELABELS, _pack_strtable(labels)))
    edges = sorted(corpus.edges, key=lambda e: (label_code[e.label], e.src, e.id))
    sections.append(
        (
            image.EDGES,
            _u32([len(edges), 0])
            + _u32([_check_u32(e.id, "edge id") for e in edges])
            + _u32([e.src for e in edges])
            + _u32([e.dst for e in edges])
            + _u32([label_code[e.label] for e in edges]),
        )
    )

    meta = corpus.metadata
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

    # One store per (kind, key), N before E, keys in lexicographic order.
    grouped: dict[tuple[str, str], list[tuple[int, str]]] = {}
    for f in corpus.features:
        grouped.setdefault((f.kind, f.key), []).append((f.target, f.value))
    ordered_keys = sorted(grouped, key=lambda kk: (_KIND_CODE[kk[0]], kk[1]))
    index_ids: list[int] = []
    index_kinds: list[int] = []
    key_offsets = [0]
    key_blob = bytearray()
    for i, (kind, key) in enumerate(ordered_keys):
        pairs = sorted(grouped[(kind, key)])
        codes_by_value = _value_dictionary(Counter(v for _, v in pairs))
        dict_sizes.append((f"{kind}:{key}", len(codes_by_value)))
        values = sorted(codes_by_value, key=codes_by_value.get)
        payload = (
            _u32([len(pairs), len(values)])
            + _u32([t for t, _ in pairs])
            + _u32([codes_by_value[v] for _, v in pairs])
            + _pack_strtable(values)
        )
        sid = image.FEATURE_BASE + i
        sections.append((sid, payload))
        index_ids.append(sid)
        index_kinds.append(_KIND_CODE[kind])
        key_blob += key.encode("utf-8")
        key_offsets.append(len(key_blob))
    sections.append(
        (
            image.FEATINDEX,
            _u32([len(ordered_keys), 0])
            + _u32(index_ids)
            + _u32(index_kinds)
            + _u32(key_offsets)
            + bytes(key_blob),
        )
    )

    return sections, dict_sizes


def compile_to_bytes(corpus: LogicalCorpus) -> tuple[bytes, CompileSummary]:
    """Validate and compile; returns the image bytes and a summary."""
    started = time.perf_counter()
    report = validate(corpus)
    if not report.ok:
        raise ValidationFailure(report)
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
    fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def compile_corpus(corpus: LogicalCorpus, out_path: str | Path) -> CompileSummary:
    """Compile to a file, written atomically."""
    data, summary = compile_to_bytes(corpus)
    _write_atomic(out_path, data)
    return summary


def verify_image(path: str | Path) -> image.ImageCheck:
    """Integrity scan of an image file."""
    return image.check_image(Path(path).read_bytes())
