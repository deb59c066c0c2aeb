"""Parsing external corpus representations into a LogicalCorpus.

Two interchangeable front ends are supported:

* a graph XML dialect (``parse_graf``): a header file names the primary-text
  file and one or more annotation XML files;
* a tabular directory (``parse_tabular``): ``text.txt`` plus TSV tables, a
  convenient format for authoring test corpora by hand.

Both report problems only a source file shows (bad headers, rows, ids,
links or monad sets) with file, line and xml:id, and abort with the full
report; an unused region is only a warning.  Neither builds a node, edge or
feature object: each fills flat columns (``model.Columns``), sorted into
``LogicalCorpus.assemble``'s order, and the corpus materializes its
objects only when something reads them.

Structural invariants of the corpus itself are checked once, by
``validate`` at compile time (``compiler.compile_to_bytes``): numpy passes
over the columns, which a corpus built from objects gets in one pass.
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

import numpy as np

from .errors import IngestError, ValidationFailure
from .model import (
    EDGE_KIND,
    NODE_KIND,
    RESERVED_CONTAINMENT_LABELS,
    Columns,
    CorpusMetadata,
    LogicalCorpus,
    MonadSet,
    region_problem,
)

XML_ID = "{http://www.w3.org/XML/1998/namespace}id"
_U32_MAX = 2**32 - 1  # the widest id the image format stores

_ANCHORS_RE = re.compile(r"\s*(-?\d+)\s+(-?\d+)\s*")
_ID_HEAD = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_ID_SUFFIX_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.\-]*?(\d+)$|^(\d+)$")


class IngestWarning(UserWarning):
    """Non-fatal oddity noticed while parsing (e.g. an unused region)."""


@dataclass(frozen=True, slots=True)
class ValidationIssue:
    code: str
    message: str
    file: str | None = None
    line: int | None = None
    where: str | None = None


@dataclass(frozen=True, slots=True)
class ValidationReport:
    errors: tuple[ValidationIssue, ...]
    warnings: tuple[ValidationIssue, ...]

    @property
    def ok(self) -> bool:
        return not self.errors


def _sorted_issues(issues: Iterable[ValidationIssue]) -> tuple[ValidationIssue, ...]:
    return tuple(
        sorted(
            issues,
            key=lambda i: (i.file or "", i.line or 0, i.code, i.where or "", i.message),
        )
    )


def _report(errors: list[ValidationIssue], warns: list[ValidationIssue]) -> ValidationReport:
    return ValidationReport(errors=_sorted_issues(errors), warnings=_sorted_issues(warns))


def _repeats(*columns: np.ndarray) -> np.ndarray:
    """Which rows repeat the values of an earlier row in every column."""
    order = np.lexsort(columns[::-1])
    same = np.ones(max(len(order) - 1, 0), dtype=bool)
    for col in columns:
        ordered = col[order]
        same &= ordered[1:] == ordered[:-1]
    out = np.zeros(len(order), dtype=bool)
    out[order[1:]] = same
    return out


def _is_int64(value: str) -> bool:
    """Whether ``value`` is an integer text whose value fits in int64, the
    width queries compare integer-typed values at."""
    try:
        return -(2**63) <= int(value) < 2**63
    except ValueError:
        return False


def validate(corpus: LogicalCorpus) -> ValidationReport:
    """Check every structural invariant of the corpus's columns; an empty
    error list means the corpus is accepted for compilation.  Where rows
    repeat a node id, an edge id, a feature or a slot's owner, the first
    row counts and the later ones are reported."""
    c = corpus.columns
    meta = corpus.metadata
    errors: list[ValidationIssue] = []

    def err(code: str, rows: np.ndarray, where: Callable[[int], str], message: Callable[[int], str]) -> None:
        errors.extend(ValidationIssue(code=code, message=message(i), where=where(i)) for i in rows.tolist())

    width, text_len = len(c.slot_start), len(corpus.text)
    if width == 0:
        errors.append(ValidationIssue(code="NO_SLOTS", message="corpus has no slots", where="slots"))
    slot_at = lambda i: f"slot {i + 1}"
    err("REGION_BOUNDS", np.flatnonzero(c.slot_end > text_len), slot_at,
        lambda i: f"region ends at {c.slot_end[i]}, text has {text_len} characters")
    err("SLOT_OVERLAP", np.flatnonzero(c.slot_end[:-1] > c.slot_start[1:]), slot_at,
        lambda i: f"region overlaps or disorders slot {i + 2}")

    ids = c.node_id
    node_at = lambda i: f"node {ids[i]}"
    dup = _repeats(ids)
    err("DUPLICATE_NODE_ID", np.flatnonzero(dup), node_at, lambda i: "node id is not unique")
    err("ID_RANGE", np.flatnonzero(~dup & ((ids < 0) | (ids > _U32_MAX))), node_at,
        lambda i: f"node id {ids[i]} exceeds the 32-bit image format limit")
    nruns = np.diff(c.runs)
    err("EMPTY_MONADS", np.flatnonzero(~dup & (nruns == 0)), node_at, lambda i: "node has an empty monad set")
    live = ~dup & (nruns > 0)
    lo, hi = np.zeros(len(ids), np.int64), np.zeros(len(ids), np.int64)
    lo[live], hi[live] = c.first[c.runs[:-1][live]], c.last[c.runs[1:][live] - 1]
    err("MONAD_RANGE", np.flatnonzero(live & ((hi > width) | (lo < 1))), node_at,
        lambda i: f"monads {c.monad_set(i)} outside 1..{width}")
    covered = np.zeros(len(c.first) + 1, np.int64)
    np.cumsum(c.last - c.first + 1, out=covered[1:])
    size = covered[c.runs[1:]] - covered[c.runs[:-1]]
    slot = live & (c.otype.codes == c.otype.code(meta.slot_otype))
    err("SLOT_ARITY", np.flatnonzero(slot & (size != 1)), node_at,
        lambda i: "slot-type node must own exactly one monad")
    owners = np.flatnonzero(slot & (size == 1))
    later = _repeats(lo[owners])
    owner_of = dict(zip(lo[owners[~later]].tolist(), ids[owners[~later]].tolist()))
    err("DUPLICATE_SLOT_NODE", owners[later], node_at,
        lambda i: f"monad {lo[i]} already owned by node {owner_of[int(lo[i])]}")
    owned = np.zeros(width + 1, dtype=bool)
    owned[lo[owners][lo[owners] <= width]] = True
    err("MISSING_SLOT_NODE", np.flatnonzero(~owned[1:]), slot_at, lambda i: "no slot-type node owns this monad")

    warns = [
        ValidationIssue(
            code="UNDECLARED_OTYPE",
            message=f"otype {otype!r} is not in the declared rank list",
            where=f"otype {otype}",
        )
        for otype in (sorted(set(c.otype.strings) - set(meta.otypes)) if meta.otypes else ())
    ]

    edge_at = lambda i: f"edge {c.edge_id[i]}"
    edup = _repeats(c.edge_id)
    err("DUPLICATE_EDGE_ID", np.flatnonzero(edup), edge_at, lambda i: "edge id is not unique")
    err("ID_RANGE", np.flatnonzero(~edup & ((c.edge_id < 0) | (c.edge_id > _U32_MAX))), edge_at,
        lambda i: f"edge id {c.edge_id[i]} exceeds the 32-bit image format limit")
    for role, end in (("from", c.src), ("to", c.dst)):
        err("DANGLING_EDGE", np.flatnonzero(~edup & ~np.isin(end, ids)), edge_at,
            lambda i: f"{role} references unknown node {end[i]}")
    containment = [i for i, label in enumerate(c.label.strings) if label in RESERVED_CONTAINMENT_LABELS]
    err("SELF_CONTAINMENT", np.flatnonzero(~edup & (c.src == c.dst) & np.isin(c.label.codes, containment)),
        edge_at, lambda i: f"self-loop with containment label {c.label.strings[c.label.codes[i]]!r}")

    kind = lambda i: c.kind.strings[c.kind.codes[i]]
    feature_at = lambda i: f"feature {kind(i)}:{c.target[i]}:{c.key.strings[c.key.codes[i]]}"
    on_node, on_edge = c.kind.codes == c.kind.code(NODE_KIND), c.kind.codes == c.kind.code(EDGE_KIND)
    good = on_node | on_edge
    err("BAD_KIND", np.flatnonzero(~good), feature_at, lambda i: f"feature kind must be N or E, got {kind(i)!r}")
    err("DANGLING_TARGET", np.flatnonzero((on_node & ~np.isin(c.target, ids)) | (on_edge & ~np.isin(c.target, c.edge_id))),
        feature_at, lambda i: f"feature targets unknown {'node' if kind(i) == NODE_KIND else 'edge'} {c.target[i]}")
    rows = np.flatnonzero(good)
    err("DUPLICATE_FEATURE", rows[_repeats(c.kind.codes[rows], c.target[rows], c.key.codes[rows])], feature_at,
        lambda i: "more than one value for this target and key")
    int_rows = good & np.isin(c.key.codes, [i for i, key in enumerate(c.key.strings) if key in meta.int_features])
    not_ints = [v for v in np.unique(c.value.codes[int_rows]).tolist() if not _is_int64(c.value.strings[v])]
    err("INT_VALUE", np.flatnonzero(int_rows & np.isin(c.value.codes, not_ints)), feature_at,
        lambda i: f"key {c.key.strings[c.key.codes[i]]!r} is integer-typed but value is "
        f"{c.value.strings[c.value.codes[i]]!r}")

    return _report(errors, warns)


def _check(report: ValidationReport) -> None:
    """Raise on any error in the report, else warn about each warning."""
    if not report.ok:
        raise ValidationFailure(report)
    for w in report.warnings:
        warnings.warn(f"{w.code}: {w.message}", IngestWarning, stacklevel=3)


# ---------------------------------------------------------------------------
# header / metadata files (shared key=value syntax)
# ---------------------------------------------------------------------------

_LIST_SPLIT_RE = re.compile(r"[,\s]+")


def _parse_keyvalue(path: Path) -> dict[str, list[tuple[int, str]]]:
    entries: dict[str, list[tuple[int, str]]] = {}
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except FileNotFoundError:
        raise IngestError("file not found", file=str(path)) from None
    except UnicodeDecodeError as exc:
        raise IngestError(f"not valid UTF-8: {exc}", file=str(path)) from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise IngestError(f"expected key=value, got {line!r}", file=str(path), line=lineno)
        key, _, value = line.partition("=")
        entries.setdefault(key.strip(), []).append((lineno, value.strip()))
    return entries


def _single(entries: dict[str, list[tuple[int, str]]], key: str, path: Path) -> str | None:
    """The value of a key given at most once, None when it is absent."""
    values = entries.get(key)
    if not values:
        return None
    if len(values) > 1:
        raise IngestError(f"key {key!r} given more than once", file=str(path), line=values[1][0])
    return values[0][1]


def _metadata_from_entries(
    entries: dict[str, list[tuple[int, str]]], path: Path
) -> CorpusMetadata:
    otypes_raw = _single(entries, "otypes", path)
    otypes = tuple(t for t in _LIST_SPLIT_RE.split(otypes_raw or "") if t)
    intfeat_raw = _single(entries, "intfeatures", path)
    int_features = frozenset(t for t in _LIST_SPLIT_RE.split(intfeat_raw or "") if t)
    provenance = tuple(v for _, v in entries.get("provenance", ()))
    return CorpusMetadata(
        otypes=otypes,
        slot_otype=_single(entries, "slot_otype", path) or "word",
        int_features=int_features,
        passage_otype=_single(entries, "passage_otype", path) or "verse",
        provenance=provenance,
    )


def _read_text_file(path: Path) -> str:
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise IngestError("primary text file not found", file=str(path)) from None
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise IngestError(f"primary text is not valid UTF-8: {exc}", file=str(path)) from None


# ---------------------------------------------------------------------------
# graph XML front end
# ---------------------------------------------------------------------------


def extract_id(token: str) -> int | None:
    """Numeric identity of an xml:id: its decimal suffix (``n101`` -> 101)."""
    digits = token[1:] if token[:1] in _ID_HEAD else token
    if digits.isdecimal():  # the usual forms: digits, or one letter and digits
        return int(digits)
    m = _ID_SUFFIX_RE.match(token)
    if m is None:
        return None
    return int(m.group(1) or m.group(2))


def parse_graf(header_path: str | Path) -> LogicalCorpus:
    """Parse a header file plus the annotation XML files it references."""
    header = Path(header_path)
    entries = _parse_keyvalue(header)
    base = header.parent

    def need(key: str) -> str:
        value = _single(entries, key, header)
        if value is None:
            raise IngestError(f"header is missing {key}=", file=str(header))
        return value

    metadata = _metadata_from_entries(entries, header)
    text = _read_text_file(base / need("text"))
    anno_paths = [base / p for p in _LIST_SPLIT_RE.split(need("annotations")) if p]
    if not anno_paths:
        raise IngestError("header names no annotation files", file=str(header))

    issues: list[ValidationIssue] = []
    soft: list[ValidationIssue] = []
    regions: dict[str, tuple[int, int, str]] = {}  # xid -> (start, end, file)
    word_nodes: list[tuple[str, str, str]] = []  # (xid, region ref, file)
    other_nodes: list[tuple[str, str, str, str]] = []  # (xid, otype, monads, file)
    edges_raw: list[tuple[str, str, str, str, str]] = []  # (xid, from, to, label, file)
    annos: list[tuple[str, str, str, str]] = []  # (ref, key, value, file) of each <f>
    # A dict of str keys and None values, not a set: the collector does not
    # track it, so it adds nothing to the cost of each full collection.
    seen_xids: dict[str, None] = {}

    def data_err(code: str, message: str, file: str, where: str | None = None) -> None:
        issues.append(ValidationIssue(code=code, message=message, file=file, where=where))

    for anno_path in anno_paths:
        fname = str(anno_path)
        if not anno_path.exists():
            raise IngestError("annotation file not found", file=fname)
        try:
            stream = ET.iterparse(fname, events=("start", "end"))
            _, root = next(stream)
        except ET.ParseError as exc:
            raise IngestError(f"malformed XML: {exc.msg}", file=fname, line=exc.position[0]) from None
        if root.tag != "graph":
            raise IngestError(f"root element must be <graph>, got <{root.tag}>", file=fname)

        def claim_xid(elem: ET.Element, what: str) -> str | None:
            xid = elem.get(XML_ID)
            if xid is None:
                data_err("MISSING_XMLID", f"<{what}> has no xml:id", fname)
                return None
            if xid in seen_xids:
                data_err("DUPLICATE_XMLID", f"xml:id {xid!r} used more than once", fname, where=xid)
                return None
            seen_xids[xid] = None
            return xid

        try:
            for event, elem in stream:
                if event == "start":
                    continue
                tag = elem.tag
                if tag == "region":
                    xid = claim_xid(elem, "region")
                    if xid is not None:
                        anchors = _ANCHORS_RE.fullmatch(elem.get("anchors") or "")
                        if anchors is None:
                            data_err("BAD_ANCHORS", f"region {xid!r}: anchors must be two integers", fname, where=xid)
                        else:
                            regions[xid] = (int(anchors[1]), int(anchors[2]), fname)
                elif tag == "node":
                    xid = claim_xid(elem, "node")
                    if xid is not None:
                        links = elem.findall("link")
                        monads = elem.get("monads")
                        otype = elem.get("otype")
                        if links:
                            targets = (links[0].get("targets") or "").split()
                            if len(links) > 1 or len(targets) != 1:
                                data_err("BAD_LINK", f"node {xid!r} must link exactly one region", fname, where=xid)
                            elif monads is not None:
                                data_err("BAD_LINK", f"node {xid!r} has both a link and monads", fname, where=xid)
                            elif otype not in (None, metadata.slot_otype):
                                data_err("BAD_OTYPE", f"linked node {xid!r} cannot have otype {otype!r}", fname, where=xid)
                            else:
                                word_nodes.append((xid, targets[0], fname))
                        elif monads is not None:
                            if otype is None:
                                data_err("MISSING_OTYPE", f"node {xid!r} has no otype", fname, where=xid)
                            else:
                                other_nodes.append((xid, otype, monads, fname))
                        else:
                            data_err("UNANCHORED_NODE", f"node {xid!r} has neither a link nor monads", fname, where=xid)
                elif tag == "edge":
                    xid = claim_xid(elem, "edge")
                    src, dst = elem.get("from"), elem.get("to")
                    if xid is not None:
                        if src is None or dst is None:
                            data_err("BAD_EDGE", f"edge {xid!r} needs from and to", fname, where=xid)
                        else:
                            edges_raw.append((xid, src, dst, elem.get("label") or "", fname))
                elif tag == "a":
                    ref = elem.get("ref")
                    if ref is None:
                        data_err("BAD_ANNOTATION", "<a> has no ref", fname)
                    else:
                        for f in elem.findall("f"):
                            name, value = f.get("name"), f.get("value")
                            if name is None or value is None:
                                data_err("BAD_FEATURE", f"<f> under {ref!r} needs name and value", fname, where=ref)
                            else:
                                annos.append((ref, name, value, fname))
                else:
                    continue
                root.clear()
        except ET.ParseError as exc:
            raise IngestError(f"malformed XML: {exc.msg}", file=fname, line=exc.position[0]) from None

    # Slot assembly: word regions sorted by start become slots 1..W.
    no_region = (0, 0, "")
    spans = [regions.get(ref, no_region)[:2] for _, ref, _ in word_nodes]
    starts: list[int] = []
    ends: list[int] = []
    ids: list[int] = []
    node_of: dict[str, int] = {}  # xid -> id of each node accepted, and of each edge
    edge_of: dict[str, int] = {}
    used_regions: set[str] = set()

    def node_id_of(xid: str, fname: str) -> int | None:
        nid = extract_id(xid)
        if nid is None or nid < 1:
            data_err("BAD_ID", f"xml:id {xid!r} has no positive decimal suffix", fname, where=xid)
            return None
        return nid

    for i in sorted(range(len(spans)), key=spans.__getitem__):
        xid, region_ref, fname = word_nodes[i]
        region = regions.get(region_ref)
        if region is None:
            data_err("DANGLING_LINK", f"node {xid!r} links unknown region {region_ref!r}", fname, where=xid)
            continue
        if region_ref in used_regions:
            data_err("REGION_REUSED", f"region {region_ref!r} linked by more than one node", fname, where=xid)
            continue
        used_regions.add(region_ref)
        nid = node_id_of(xid, fname)
        if nid is None:
            continue
        start, end, _ = region
        if not 0 <= start < end:
            data_err("BAD_ANCHORS", f"region {region_ref!r}: {region_problem(start, end)}", fname, where=xid)
            continue
        starts.append(start)
        ends.append(end)
        ids.append(nid)
        node_of[xid] = nid

    for xid in sorted(set(regions) - used_regions):
        soft.append(
            ValidationIssue(
                code="UNUSED_REGION",
                message=f"region {xid!r} is not linked by any node",
                file=regions[xid][2],
                where=xid,
            )
        )

    otypes = [metadata.slot_otype] * len(ids)
    runs = [((k, k),) for k in range(1, len(ids) + 1)]
    for xid, otype, monads_text, fname in other_nodes:
        nid = node_id_of(xid, fname)
        if nid is None:
            continue
        try:
            monads = MonadSet.parse(monads_text)
        except ValueError as exc:
            data_err("BAD_MONADS", f"node {xid!r}: {exc}", fname, where=xid)
            continue
        ids.append(nid)
        otypes.append(otype)
        runs.append(monads.runs)
        node_of[xid] = nid

    edges: list[tuple[int, int, int, str]] = []
    for xid, src_ref, dst_ref, label, fname in edges_raw:
        eid = node_id_of(xid, fname)
        if eid is None:
            continue
        src, dst = node_of.get(src_ref), node_of.get(dst_ref)
        if src is None or dst is None:
            data_err("DANGLING_EDGE_REF", f"edge {xid!r} references unknown node", fname, where=xid)
            continue
        edges.append((eid, src, dst, label))
        edge_of[xid] = eid

    kinds = [NODE_KIND if ref in node_of else EDGE_KIND if ref in edge_of else None for ref, _, _, _ in annos]
    for (ref, _, _, fname), kind in zip(annos, kinds):
        if kind is None:
            data_err("DANGLING_REF", f"annotation references unknown id {ref!r}", fname, where=ref)

    _check(_report(issues, soft))  # from here on, every ref was found
    features = (
        kinds,
        [(node_of if kind == NODE_KIND else edge_of)[ref] for (ref, _, _, _), kind in zip(annos, kinds)],
        [key for _, key, _, _ in annos],
        [value for _, _, value, _ in annos],
    )
    return _assembled(text, (starts, ends), (ids, otypes, runs), edges, features, metadata)


def _assembled(text, slots, nodes, edges, features, metadata) -> LogicalCorpus:
    """A front end's corpus: its rows as columns, in ``assemble``'s order.
    ``edges`` is a list of row tuples."""
    columns = Columns.build(slots, nodes, tuple(zip(*edges)) or ((),) * 4, features)
    return LogicalCorpus.from_columns(text, columns.assembled(), metadata)


# ---------------------------------------------------------------------------
# tabular front end
# ---------------------------------------------------------------------------

_TSV_HEADERS = {
    "slots.tsv": ["slot_index", "start", "end"],
    "nodes.tsv": ["node_id", "otype", "monadset"],
    "features.tsv": ["kind", "target_id", "key", "value"],
    "edges.tsv": ["edge_id", "from", "to", "label"],
}

_UNESCAPE = {"\\\\": "\\", "\\t": "\t", "\\n": "\n", "\\r": "\r"}
_ESCAPE_RE = re.compile(r"\\[\\tnr]|\\")


def escape_cell(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace("\t", "\\t").replace("\n", "\\n").replace("\r", "\\r")
    )


def unescape_cell(cell: str) -> str:
    if "\\" not in cell:
        return cell

    def sub(m: re.Match[str]) -> str:
        token = m.group(0)
        if token == "\\":
            raise ValueError("dangling backslash")
        return _UNESCAPE[token]

    return _ESCAPE_RE.sub(sub, cell)


def _read_tsv(path: Path, issues: list[ValidationIssue]) -> list[tuple[int, list[str]]]:
    rows: list[tuple[int, list[str]]] = []
    expected = _TSV_HEADERS[path.name]
    header_seen = False
    for lineno, raw in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if not raw.strip() or raw.startswith("#"):
            continue
        cells = raw.split("\t")
        if not header_seen:
            if cells != expected:
                issues.append(
                    ValidationIssue(
                        code="BAD_HEADER",
                        message=f"expected header {expected}, got {cells}",
                        file=str(path),
                        line=lineno,
                    )
                )
                return []
            header_seen = True
            continue
        if len(cells) != len(expected):
            issues.append(
                ValidationIssue(
                    code="BAD_ROW",
                    message=f"expected {len(expected)} columns, got {len(cells)}",
                    file=str(path),
                    line=lineno,
                )
            )
            continue
        rows.append((lineno, cells))
    if not header_seen:
        issues.append(
            ValidationIssue(code="BAD_HEADER", message="missing header line", file=str(path))
        )
    return rows


def parse_tabular(directory: str | Path) -> LogicalCorpus:
    """Parse a tabular corpus directory (text.txt plus TSV tables)."""
    base = Path(directory)
    if not base.is_dir():
        raise IngestError("not a directory", file=str(base))
    for required in ("text.txt", "slots.tsv", "nodes.tsv", "features.tsv"):
        if not (base / required).exists():
            raise IngestError(f"missing {required}", file=str(base / required))

    meta_path = base / "meta.txt"
    if meta_path.exists():
        metadata = _metadata_from_entries(_parse_keyvalue(meta_path), meta_path)
    else:
        metadata = CorpusMetadata()
    text = _read_text_file(base / "text.txt")

    issues: list[ValidationIssue] = []

    def row_err(path: Path, lineno: int, code: str, message: str) -> None:
        issues.append(ValidationIssue(code=code, message=message, file=str(path), line=lineno))

    def parse_int(path: Path, lineno: int, cell: str, what: str) -> int | None:
        try:
            return int(cell)
        except ValueError:
            row_err(path, lineno, "BAD_INT", f"{what} must be an integer, got {cell!r}")
            return None

    def parse_id(path: Path, lineno: int, cell: str, what: str) -> int | None:
        # Bare integer, or an XML-style token with a decimal suffix ("n9").
        nid = extract_id(cell)
        if nid is None or nid < 1:
            row_err(path, lineno, "BAD_ID", f"{what} must be a positive id, got {cell!r}")
            return None
        return nid

    slots_path = base / "slots.tsv"
    slot_rows: dict[int, tuple[int, int]] = {}
    for lineno, cells in _read_tsv(slots_path, issues):
        idx = parse_int(slots_path, lineno, cells[0], "slot_index")
        start = parse_int(slots_path, lineno, cells[1], "start")
        end = parse_int(slots_path, lineno, cells[2], "end")
        if idx is None or start is None or end is None:
            continue
        if idx in slot_rows:
            row_err(slots_path, lineno, "DUPLICATE_SLOT", f"slot {idx} defined twice")
            continue
        problem = region_problem(start, end)
        if problem:
            row_err(slots_path, lineno, "BAD_REGION", problem)
            continue
        slot_rows[idx] = (start, end)
    if slot_rows and sorted(slot_rows) != list(range(1, len(slot_rows) + 1)):
        row_err(slots_path, 0, "SLOT_NUMBERING", "slot indices must be dense 1..W")
    regions = [slot_rows[i] for i in sorted(slot_rows)]

    nodes_path = base / "nodes.tsv"
    ids: list[int] = []
    otypes: list[str] = []
    runs: list[tuple[tuple[int, int], ...]] = []
    for lineno, cells in _read_tsv(nodes_path, issues):
        nid = parse_id(nodes_path, lineno, cells[0], "node_id")
        try:
            monads = MonadSet.parse(cells[2])
        except ValueError as exc:
            row_err(nodes_path, lineno, "BAD_MONADS", str(exc))
            continue
        if nid is None:
            continue
        ids.append(nid)
        otypes.append(cells[1])
        runs.append(monads.runs)

    features_path = base / "features.tsv"
    features: tuple[list[str], list[int], list[str], list[str]] = ([], [], [], [])
    kinds, targets, keys, values = features
    for lineno, cells in _read_tsv(features_path, issues):
        target = parse_id(features_path, lineno, cells[1], "target_id")
        if target is None:
            continue
        try:
            value = unescape_cell(cells[3])
        except ValueError as exc:
            row_err(features_path, lineno, "BAD_ESCAPE", str(exc))
            continue
        kinds.append(cells[0])
        targets.append(target)
        keys.append(cells[2])
        values.append(value)

    edges_path = base / "edges.tsv"
    edges: list[tuple[int, int, int, str]] = []
    if edges_path.exists():
        for lineno, cells in _read_tsv(edges_path, issues):
            eid = parse_id(edges_path, lineno, cells[0], "edge_id")
            src = parse_id(edges_path, lineno, cells[1], "from")
            dst = parse_id(edges_path, lineno, cells[2], "to")
            if eid is None or src is None or dst is None:
                continue
            edges.append((eid, src, dst, cells[3]))

    _check(_report(issues, []))
    return _assembled(text, tuple(zip(*regions)) or ((), ()), (ids, otypes, runs), edges, features, metadata)
