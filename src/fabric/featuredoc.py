"""Feature documentation generated from the corpus itself.

For every (otype, key) pair of a node feature and every (edge label, key)
pair of an edge feature that actually occurs, a frequency table of the
values, rendered both machine-readable and human-readable:
``<otype>.<key>.{txt,json}`` and ``edge-<label>.<key>.{txt,json}``, plus an
index (``index.json``, ``index.txt``) tying the set together.  File names
write "%", ".", "/", "\\", "~" and control characters as "%XX" (see
``_stem``), and a name past 255 UTF-8 bytes is cut short and ends in "~"
and a hash (see ``_file_name``).  Regenerating over the same image
produces identical files.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus
from .model import EDGE_KIND, NODE_KIND

TRUNCATE_AT = 120
_UNSAFE_RE = re.compile(r"[%./\\~\x00-\x1f\x7f]")
_NAME_MAX = 255  # the longest file name, in bytes, most file systems allow


@dataclass(frozen=True, slots=True)
class FrequencyTable:
    """Value frequencies for one feature key on one otype (or edge label)."""

    otype: str
    key: str
    kind: str
    total: int
    entries: tuple[tuple[str, int], ...]  # count desc, ties by value asc


def _group_names(corpus: Corpus, kind: str) -> tuple[str, ...]:
    return corpus.otypes() if kind == NODE_KIND else corpus.edge_labels()


def _tables(corpus: Corpus, key: str, kind: str) -> dict[str, FrequencyTable]:
    """The table of every group (otype or edge label) that carries a value
    of (kind, key), by group name.  One count over the store's (group,
    value code) cells, so it holds only the cells that occur."""
    store = corpus.store(key, kind)
    if store is None:
        raise KeyError(f"no {kind!r} feature named {key!r}")
    size = len(store.values)
    cells = corpus._group_codes(key, kind).astype(np.int64) * size + store.codes
    cells, counts = np.unique(cells, return_counts=True)
    groups, codes = np.divmod(cells, size)
    names = _group_names(corpus, kind)
    tables = {}
    for group in np.unique(groups).tolist():
        mine = groups == group
        values = [store.values[c] for c in codes[mine].tolist()]
        entries = sorted(zip(values, counts[mine].tolist()), key=lambda p: (-p[1], p[0]))
        tables[names[group]] = FrequencyTable(names[group], key, kind, int(counts[mine].sum()), tuple(entries))
    return tables


def feature_frequency(
    corpus: Corpus, otype: str, key: str, kind: str = NODE_KIND
) -> FrequencyTable:
    """Count values of ``key`` over nodes of ``otype`` (or edges, kind "E").

    For edges, ``otype`` names the edge label.
    """
    tables = _tables(corpus, key, kind)
    if otype not in _group_names(corpus, kind):
        raise KeyError(f"unknown {'otype' if kind == NODE_KIND else 'edge label'} {otype!r}")
    return tables.get(otype, FrequencyTable(otype, key, kind, 0, ()))


def _truncate(value: str) -> str:
    if len(value) <= TRUNCATE_AT:
        return value
    return value[: TRUNCATE_AT - 1] + "…"


def _title(table: FrequencyTable) -> str:
    return f"{table.otype}.{table.key}" if table.kind == NODE_KIND else f"edge {table.otype}.{table.key}"


def _stem(table: FrequencyTable) -> str:
    """The table's file name without its suffix.  Each "%", ".", "/", "\\",
    "~" and control character of the otype (or label) and key becomes "%XX",
    its code point in hex, and so does the "-" of a node otype that starts
    "edge-": so every table has its own file, inside the directory."""
    otype, key = (_UNSAFE_RE.sub(lambda m: f"%{ord(m[0]):02X}", name) for name in (table.otype, table.key))
    return f"{re.sub('^edge-', 'edge%2D', otype)}.{key}" if table.kind == NODE_KIND else f"edge-{otype}.{key}"


def _file_name(stem: str, ext: str) -> str:
    """``stem.ext``; where that passes ``_NAME_MAX`` UTF-8 bytes, a prefix
    of the stem cut at a character boundary, "~" and 16 hex digits of the
    SHA-256 of the whole stem.  ``_stem`` writes no "~", so a shortened
    name never equals a name kept whole."""
    name = f"{stem}.{ext}"
    if len(name.encode()) <= _NAME_MAX:
        return name
    tail = f"~{hashlib.sha256(stem.encode()).hexdigest()[:16]}.{ext}"
    return stem.encode()[: _NAME_MAX - len(tail)].decode("utf-8", "ignore") + tail


def _render_txt(table: FrequencyTable) -> str:
    lines = [
        _title(table),
        f"total assignments: {table.total}",
        f"distinct values: {len(table.entries)}",
        "",
    ]
    width = max((len(str(c)) for _v, c in table.entries), default=1)
    for value, count in table.entries:
        lines.append(f"{count:>{width}}  {_truncate(value)}")
    return "\n".join(lines) + "\n"


def _render_json(table: FrequencyTable) -> str:
    doc = {
        "otype": table.otype,
        "key": table.key,
        "kind": table.kind,
        "total": table.total,
        "values": [{"value": v, "count": c} for v, c in table.entries],
    }
    return json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"


def render_docs(corpus: Corpus, out_dir: str | Path) -> list[str]:
    """Write the documentation set under ``out_dir``; return the file names.
    Node tables come first, by (otype, key), then edge tables, by (label,
    key)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    stats = corpus.stats()
    written: list[str] = []
    index_rows = []
    lines = [
        "feature documentation",
        f"corpus fingerprint: {corpus.fingerprint}",
        f"nodes: {stats.nodes}, features: {stats.features}",
        "",
    ]
    for kind in (NODE_KIND, EDGE_KIND):
        found = [t for key in corpus.feature_keys(kind) for t in _tables(corpus, key, kind).values()]
        for table in sorted(found, key=lambda t: (t.otype, t.key)):
            files = [_file_name(_stem(table), ext) for ext in ("txt", "json")]
            (out / files[0]).write_text(_render_txt(table), encoding="utf-8")
            (out / files[1]).write_text(_render_json(table), encoding="utf-8")
            written += files
            index_rows.append(
                {
                    "otype": table.otype,
                    "key": table.key,
                    "kind": kind,
                    "total": table.total,
                    "distinct": len(table.entries),
                    "files": files,
                }
            )
            lines.append(f"{_title(table)}: {table.total} assignments, {len(table.entries)} distinct values")

    index_doc = {
        "corpus_fingerprint": corpus.fingerprint,
        "stats": {
            "words": stats.words,
            "nodes": stats.nodes,
            "edges": stats.edges,
            "features": stats.features,
        },
        "tables": index_rows,
    }
    (out / "index.json").write_text(
        json.dumps(index_doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n",
        encoding="utf-8",
    )
    (out / "index.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    written += ["index.json", "index.txt"]
    return written
