"""Compiling a LogicalCorpus into image bytes.

``compile_to_bytes`` is the one gate in front of every image: it runs the
structural validator (``ingest.validate``) and refuses an invalid corpus
before any byte is built, whether the corpus came from a front end, was
built by hand or was read back from an image.

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
from .ingest import _check, validate
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


def _check_u32(value: int, what: str) -> int:
    if not 0 <= value <= _U32_MAX:
        raise ValueError(f"{what} {value} exceeds the 32-bit image format limit")
    return value


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
    sections.append((image.SLOTS, image.pack(len(corpus.slots), starts, ends)))

    nodes = sorted(corpus.nodes, key=lambda n: n.id)
    ranked = list(rank_otypes(corpus.metadata, {n.otype for n in nodes}))
    rank = {otype: i for i, otype in enumerate(ranked)}
    sections.append((image.OTYPES, image.pack(len(ranked), strings=ranked)))

    # Monad-set pool: distinct run tuples in lexicographic order.
    pool_index: dict[tuple[tuple[int, int], ...], int] = {}
    for node in nodes:
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
        (image.MONADPOOL, image.pack(len(ordered_sets), set_offsets, run_first, run_last, extra=len(run_first)))
    )

    node_ids = [_check_u32(n.id, "node id") for n in nodes]
    otype_codes = [rank[n.otype] for n in nodes]
    monad_idx = [pool_index[n.monads.runs] for n in nodes]
    sections.append((image.NODES, image.pack(len(nodes), node_ids, otype_codes, monad_idx)))

    labels = sorted({e.label for e in corpus.edges})
    label_code = {label: i for i, label in enumerate(labels)}
    sections.append((image.EDGELABELS, image.pack(len(labels), strings=labels)))
    edges = sorted(corpus.edges, key=lambda e: (label_code[e.label], e.src, e.id))
    sections.append(
        (
            image.EDGES,
            image.pack(
                len(edges),
                [_check_u32(e.id, "edge id") for e in edges],
                [e.src for e in edges],
                [e.dst for e in edges],
                [label_code[e.label] for e in edges],
            ),
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
    index_ids = [image.FEATURE_BASE + i for i in range(len(ordered_keys))]
    for sid, (kind, key) in zip(index_ids, ordered_keys):
        pairs = sorted(grouped[(kind, key)])
        codes_by_value = _value_dictionary(Counter(v for _, v in pairs))
        dict_sizes.append((f"{kind}:{key}", len(codes_by_value)))
        values = sorted(codes_by_value, key=codes_by_value.get)
        targets, codes = [t for t, _ in pairs], [codes_by_value[v] for _, v in pairs]
        store = image.pack(len(pairs), targets, codes, extra=len(values))
        sections.append((sid, store + image.pack(len(values), strings=values)))
    kinds = [_KIND_CODE[kind] for kind, _ in ordered_keys]
    keys = [key for _, key in ordered_keys]
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
    try:
        fd, tmp = tempfile.mkstemp(dir=str(path.parent) or ".", prefix=path.name + ".", suffix=".tmp")
    except OSError as exc:  # name the target, not the temp file beside it
        raise OSError(exc.errno, exc.strerror, str(out_path)) from None
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
