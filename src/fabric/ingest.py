"""Parsing external corpus representations into a LogicalCorpus.

Two interchangeable front ends are supported:

* a graph XML dialect (``parse_graf``): a header file names the primary-text
  file and one or more annotation XML files;
* a tabular directory (``parse_tabular``): ``text.txt`` plus TSV tables, a
  convenient format for authoring test corpora by hand.

Both report problems only a source file shows (bad headers, rows, ids,
links or monad sets) with file, line and xml:id, and abort with the full
report; an unused region is only a warning.  Structural invariants of the
corpus itself are checked once, by ``validate`` at compile time
(``compiler.compile_to_bytes``).
"""

from __future__ import annotations

import re
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from .errors import IngestError, ValidationFailure
from .model import (
    EDGE_KIND,
    NODE_KIND,
    RESERVED_CONTAINMENT_LABELS,
    CorpusMetadata,
    Edge,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
)

XML_ID = "{http://www.w3.org/XML/1998/namespace}id"

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


def validate(corpus: LogicalCorpus) -> ValidationReport:
    """Check every structural invariant; an empty error list means the corpus
    is accepted for compilation."""
    errors: list[ValidationIssue] = []
    warns: list[ValidationIssue] = []

    def err(code: str, where: str, message: str) -> None:
        errors.append(ValidationIssue(code=code, message=message, where=where))

    width = len(corpus.slots)
    if width == 0:
        err("NO_SLOTS", "slots", "corpus has no slots")
    text_len = len(corpus.text)
    for i, region in enumerate(corpus.slots, start=1):
        if region.end > text_len:
            err("REGION_BOUNDS", f"slot {i}", f"region ends at {region.end}, text has {text_len} characters")
        if i < width and region.end > corpus.slots[i].start:
            err("SLOT_OVERLAP", f"slot {i}", f"region overlaps or disorders slot {i + 1}")

    node_ids: set[int] = set()
    slot_owner: dict[int, int] = {}
    for node in corpus.nodes:
        where = f"node {node.id}"
        if node.id in node_ids:
            err("DUPLICATE_NODE_ID", where, "node id is not unique")
            continue
        node_ids.add(node.id)
        if len(node.monads) == 0:
            err("EMPTY_MONADS", where, "node has an empty monad set")
            continue
        if node.monads.last > width or node.monads.first < 1:
            err("MONAD_RANGE", where, f"monads {node.monads} outside 1..{width}")
        if node.otype == corpus.metadata.slot_otype:
            if len(node.monads) != 1:
                err("SLOT_ARITY", where, "slot-type node must own exactly one monad")
            else:
                m = node.monads.first
                if m in slot_owner:
                    err("DUPLICATE_SLOT_NODE", where, f"monad {m} already owned by node {slot_owner[m]}")
                else:
                    slot_owner[m] = node.id
    for m in range(1, width + 1):
        if m not in slot_owner:
            err("MISSING_SLOT_NODE", f"slot {m}", "no slot-type node owns this monad")

    declared = set(corpus.metadata.otypes)
    if declared:
        for otype in sorted({n.otype for n in corpus.nodes} - declared):
            warns.append(
                ValidationIssue(
                    code="UNDECLARED_OTYPE",
                    message=f"otype {otype!r} is not in the declared rank list",
                    where=f"otype {otype}",
                )
            )

    edge_ids: set[int] = set()
    for edge in corpus.edges:
        where = f"edge {edge.id}"
        if edge.id in edge_ids:
            err("DUPLICATE_EDGE_ID", where, "edge id is not unique")
            continue
        edge_ids.add(edge.id)
        for end, role in ((edge.src, "from"), (edge.dst, "to")):
            if end not in node_ids:
                err("DANGLING_EDGE", where, f"{role} references unknown node {end}")
        if edge.src == edge.dst and edge.label in RESERVED_CONTAINMENT_LABELS:
            err("SELF_CONTAINMENT", where, f"self-loop with containment label {edge.label!r}")

    seen_features: set[tuple[str, int, str]] = set()
    for f in corpus.features:
        where = f"feature {f.kind}:{f.target}:{f.key}"
        if f.kind not in (NODE_KIND, EDGE_KIND):
            err("BAD_KIND", where, f"feature kind must be N or E, got {f.kind!r}")
            continue
        pool = node_ids if f.kind == NODE_KIND else edge_ids
        if f.target not in pool:
            err("DANGLING_TARGET", where, f"feature targets unknown {'node' if f.kind == NODE_KIND else 'edge'} {f.target}")
        triple = (f.kind, f.target, f.key)
        if triple in seen_features:
            err("DUPLICATE_FEATURE", where, "more than one value for this target and key")
        seen_features.add(triple)
        if f.key in corpus.metadata.int_features:
            try:
                int(f.value)
            except ValueError:
                err("INT_VALUE", where, f"key {f.key!r} is integer-typed but value is {f.value!r}")

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
    annos: list[tuple[str, str, str, str]] = []  # (ref, key, value, file)
    seen_xids: set[str] = set()

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
        except StopIteration:
            raise IngestError("malformed XML: empty document", file=fname) from None
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
            seen_xids.add(xid)
            return xid

        try:
            for event, elem in stream:
                if event != "end" or elem.tag not in ("region", "node", "edge", "a"):
                    continue
                if elem.tag == "region":
                    xid = claim_xid(elem, "region")
                    anchors = (elem.get("anchors") or "").split()
                    if xid is not None:
                        if len(anchors) != 2 or not all(a.lstrip("-").isdigit() for a in anchors):
                            data_err("BAD_ANCHORS", f"region {xid!r}: anchors must be two integers", fname, where=xid)
                        else:
                            regions[xid] = (int(anchors[0]), int(anchors[1]), fname)
                elif elem.tag == "node":
                    xid = claim_xid(elem, "node")
                    if xid is None:
                        pass
                    else:
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
                elif elem.tag == "edge":
                    xid = claim_xid(elem, "edge")
                    src, dst = elem.get("from"), elem.get("to")
                    if xid is not None:
                        if src is None or dst is None:
                            data_err("BAD_EDGE", f"edge {xid!r} needs from and to", fname, where=xid)
                        else:
                            edges_raw.append((xid, src, dst, elem.get("label") or "", fname))
                elif elem.tag == "a":
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
                root.clear()
        except ET.ParseError as exc:
            raise IngestError(f"malformed XML: {exc.msg}", file=fname, line=exc.position[0]) from None

    # Slot assembly: word regions sorted by start become slots 1..W.
    ordered = sorted(word_nodes, key=lambda w: (regions[w[1]][0], regions[w[1]][1]) if w[1] in regions else (0, 0))
    slots: list[Region] = []
    nodes: list[Node] = []
    xid_kind: dict[str, tuple[str, int]] = {}
    used_regions: set[str] = set()

    def node_id_of(xid: str, fname: str) -> int | None:
        nid = extract_id(xid)
        if nid is None or nid < 1:
            data_err("BAD_ID", f"xml:id {xid!r} has no positive decimal suffix", fname, where=xid)
            return None
        return nid

    slot_index = 0
    for xid, region_ref, fname in ordered:
        if region_ref not in regions:
            data_err("DANGLING_LINK", f"node {xid!r} links unknown region {region_ref!r}", fname, where=xid)
            continue
        if region_ref in used_regions:
            data_err("REGION_REUSED", f"region {region_ref!r} linked by more than one node", fname, where=xid)
            continue
        used_regions.add(region_ref)
        start, end, _ = regions[region_ref]
        nid = node_id_of(xid, fname)
        if nid is None:
            continue
        try:
            slots.append(Region(start, end))
        except ValueError as exc:
            data_err("BAD_ANCHORS", f"region {region_ref!r}: {exc}", fname, where=xid)
            continue
        slot_index += 1
        nodes.append(Node(id=nid, otype=metadata.slot_otype, monads=MonadSet(((slot_index, slot_index),))))
        xid_kind[xid] = (NODE_KIND, nid)

    for xid in sorted(set(regions) - used_regions):
        soft.append(
            ValidationIssue(
                code="UNUSED_REGION",
                message=f"region {xid!r} is not linked by any node",
                file=regions[xid][2],
                where=xid,
            )
        )

    for xid, otype, monads_text, fname in other_nodes:
        nid = node_id_of(xid, fname)
        if nid is None:
            continue
        try:
            monads = MonadSet.parse(monads_text)
        except ValueError as exc:
            data_err("BAD_MONADS", f"node {xid!r}: {exc}", fname, where=xid)
            continue
        nodes.append(Node(id=nid, otype=otype, monads=monads))
        xid_kind[xid] = (NODE_KIND, nid)

    edges: list[Edge] = []
    for xid, src_ref, dst_ref, label, fname in edges_raw:
        eid = node_id_of(xid, fname)
        if eid is None:
            continue
        src = xid_kind.get(src_ref)
        dst = xid_kind.get(dst_ref)
        if src is None or src[0] != NODE_KIND or dst is None or dst[0] != NODE_KIND:
            data_err("DANGLING_EDGE_REF", f"edge {xid!r} references unknown node", fname, where=xid)
            continue
        edges.append(Edge(id=eid, src=src[1], dst=dst[1], label=label))
        xid_kind[xid] = (EDGE_KIND, eid)

    features: list[FeatureAssignment] = []
    for ref, key, value, fname in annos:
        target = xid_kind.get(ref)
        if target is None:
            data_err("DANGLING_REF", f"annotation references unknown id {ref!r}", fname, where=ref)
            continue
        features.append(FeatureAssignment(kind=target[0], target=target[1], key=key, value=value))

    _check(_report(issues, soft))
    return LogicalCorpus.assemble(
        text=text, slots=slots, nodes=nodes, edges=edges, features=features, metadata=metadata
    )


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
    slot_rows: dict[int, Region] = {}
    for lineno, cells in _read_tsv(slots_path, issues):
        idx = parse_int(slots_path, lineno, cells[0], "slot_index")
        start = parse_int(slots_path, lineno, cells[1], "start")
        end = parse_int(slots_path, lineno, cells[2], "end")
        if idx is None or start is None or end is None:
            continue
        if idx in slot_rows:
            row_err(slots_path, lineno, "DUPLICATE_SLOT", f"slot {idx} defined twice")
            continue
        try:
            slot_rows[idx] = Region(start, end)
        except ValueError as exc:
            row_err(slots_path, lineno, "BAD_REGION", str(exc))
    if slot_rows and sorted(slot_rows) != list(range(1, len(slot_rows) + 1)):
        row_err(slots_path, 0, "SLOT_NUMBERING", "slot indices must be dense 1..W")
    slots = tuple(slot_rows[i] for i in sorted(slot_rows)) if slot_rows else ()

    nodes_path = base / "nodes.tsv"
    nodes: list[Node] = []
    for lineno, cells in _read_tsv(nodes_path, issues):
        nid = parse_id(nodes_path, lineno, cells[0], "node_id")
        try:
            monads = MonadSet.parse(cells[2])
        except ValueError as exc:
            row_err(nodes_path, lineno, "BAD_MONADS", str(exc))
            continue
        if nid is None:
            continue
        nodes.append(Node(id=nid, otype=cells[1], monads=monads))

    features_path = base / "features.tsv"
    features: list[FeatureAssignment] = []
    for lineno, cells in _read_tsv(features_path, issues):
        target = parse_id(features_path, lineno, cells[1], "target_id")
        if target is None:
            continue
        try:
            value = unescape_cell(cells[3])
        except ValueError as exc:
            row_err(features_path, lineno, "BAD_ESCAPE", str(exc))
            continue
        features.append(FeatureAssignment(kind=cells[0], target=target, key=cells[2], value=value))

    edges_path = base / "edges.tsv"
    edges: list[Edge] = []
    if edges_path.exists():
        for lineno, cells in _read_tsv(edges_path, issues):
            eid = parse_id(edges_path, lineno, cells[0], "edge_id")
            src = parse_id(edges_path, lineno, cells[1], "from")
            dst = parse_id(edges_path, lineno, cells[2], "to")
            if eid is None or src is None or dst is None:
                continue
            edges.append(Edge(id=eid, src=src, dst=dst, label=cells[3]))

    _check(_report(issues, []))
    return LogicalCorpus.assemble(
        text=text, slots=slots, nodes=nodes, edges=edges, features=features, metadata=metadata
    )
