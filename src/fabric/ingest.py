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

Both decode a column at a time.  ``parse_tabular`` splits each file into
rows (at "\n" only) and cells with a few passes over its bytes.
``parse_graf`` reads the XML in two stages over the same chunks of each
file.  Stage 1 checks the file with one bare ``pyexpat`` pass (no handlers,
no namespaces).  Stage 2 reads the dialect the writers emit (five element
forms with double-quoted attributes in a fixed order, UTF-8, no DOCTYPE,
comment, CDATA, processing instruction or ``xmlns``) with one compiled
byte regex per form, and decodes each field column with one join, one
UTF-8 decode and one split.  A call with any other file, or with a
repeated xml:id, runs the handler scan instead: one namespaced ``pyexpat``
pass per file whose handlers append attribute values, which gives every
report and error.  Either scan only fills one table per element form
(``_Fields``).  Then ``_parse_graf`` alone resolves xml:ids: links against
the regions', edge ends and annotation refs against one index of nodes,
then edges, and it files each report through one locator.  Column
decoders read whole columns of ids and integers (both front ends) and of
monad sets (``parse_tabular``) with numpy, and hand only the cells they
cannot read (anything but plain ASCII numbers and one-run sets) to one
per-row fallback, whose decoders (``extract_id``, ``int``,
``MonadSet.parse``) only decode; each front end reports a column's
rejected rows once the column is done.  ``parse_graf`` hands every node's
monad text to that fallback, so ``MonadSet.parse`` reads each one.

Structural invariants of the corpus itself are checked once, by
``validate`` at compile time (``compiler.compile_to_bytes``): numpy passes
over the columns, which a corpus built from objects gets in one pass.
"""

from __future__ import annotations

import gc
import re
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import contains
from pathlib import Path
from typing import Callable, Iterator
from xml.parsers import expat

import numpy as np

from .errors import IngestError, ValidationFailure, warn
from .model import (
    EDGE_KIND,
    NODE_KIND,
    RESERVED_CONTAINMENT_LABELS,
    Columns,
    CorpusMetadata,
    LogicalCorpus,
    MonadSet,
    flat_runs,
    gather,
    heads,
    region_problem,
    repeats,
)

_XML_ID = "http://www.w3.org/XML/1998/namespace}id"  # as expat names it, with "}" between namespace and name
_PARENT = {"link": "node", "f": "a"}  # the child elements ``parse_graf`` reads, and their parents
_U32_MAX = 2**32 - 1  # the widest id the image format stores

_ANCHORS_RE = re.compile(r"\s*(-?\d+)\s+(-?\d+)\s*", re.ASCII)
_ID_SUFFIX_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*?(\d+)|(\d+)", re.ASCII)  # with ``fullmatch``


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


def _report(errors: list[ValidationIssue], warns: list[ValidationIssue]) -> ValidationReport:
    key = lambda i: (i.file or "", i.line or 0, i.code, i.where or "", i.message)
    return ValidationReport(errors=tuple(sorted(errors, key=key)), warnings=tuple(sorted(warns, key=key)))


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
    dup = repeats(ids)
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
    later = repeats(lo[owners])
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
    edup = repeats(c.edge_id)
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
    err("DUPLICATE_FEATURE", rows[repeats(c.kind.codes[rows], c.target[rows], c.key.codes[rows])], feature_at,
        lambda i: "more than one value for this target and key")
    int_rows = good & np.isin(c.key.codes, [i for i, key in enumerate(c.key.strings) if key in meta.int_features])
    # A value must be an integer that fits in int64, the width queries compare integer-typed values at.
    codes = np.unique(c.value.codes[int_rows])
    values, ok = _int_column(_take(c.value.strings, codes))
    ok &= np.fromiter((-(2**63) <= v < 2**63 for v in values.tolist()), bool, len(codes))
    err("INT_VALUE", np.flatnonzero(int_rows & np.isin(c.value.codes, codes[~ok])), feature_at,
        lambda i: f"key {c.key.strings[c.key.codes[i]]!r} is integer-typed but value is "
        f"{c.value.strings[c.value.codes[i]]!r}")

    return _report(errors, warns)


def _check(report: ValidationReport) -> None:
    """Raise on any error in the report, else warn about each warning."""
    if not report.ok:
        raise ValidationFailure(report)
    for w in report.warnings:
        warn(f"{w.code}: {w.message}", IngestWarning)


# ---------------------------------------------------------------------------
# header / metadata files (shared key=value syntax)
# ---------------------------------------------------------------------------

_LIST_SPLIT_RE = re.compile(r"[,\s]+")


def _text(path: Path, what: str = "") -> str:
    """The file's UTF-8 text; ``what`` ("primary text") names the file in
    the messages."""
    try:
        return path.read_bytes().decode("utf-8")
    except FileNotFoundError:
        raise IngestError(f"{what} file not found".lstrip(), file=str(path)) from None
    except UnicodeDecodeError as exc:
        message = f"{what} is not valid UTF-8" if what else "not valid UTF-8"
        raise IngestError(f"{message}: {exc}", file=str(path)) from None


def _parse_keyvalue(path: Path) -> dict[str, list[tuple[int, str]]]:
    r"""Key=value lines, split at "\n" only (stripping each line drops a
    "\r" before it)."""
    entries: dict[str, list[tuple[int, str]]] = {}
    for lineno, raw in enumerate(_text(path).split("\n"), start=1):
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


def _metadata_from_entries(entries: dict[str, list[tuple[int, str]]], path: Path) -> CorpusMetadata:
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


# ---------------------------------------------------------------------------
# column decoders (ids and integers in both front ends and ``validate``, monad sets in tables)
# ---------------------------------------------------------------------------
#
# Each decodes a whole column of source text with a few numpy passes and
# hands only the cells it cannot take to ``_fallback``, which runs the
# per-row decoder.  The bulk pass takes a subset of what the per-row
# decoder accepts, so values are the per-row decoder's.  No decoder files
# a report: the caller reports the rows a column rejects.


def _digits(chars: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The value of each token ``chars[starts:ends]`` that is 1 to 18
    ASCII digits, and which tokens those are: Horner's rule, one character
    position at a time for every token at once."""
    size = ends - starts
    ok = (size >= 1) & (size <= 18)  # 18 digits always fit in int64
    value = np.zeros(len(size), np.int64)
    for k in range(int(size[ok].max(initial=0)), 0, -1):  # the k-th character from the end
        inside = size >= k
        digit = chars[ends - k] - 48  # uint8, so anything below "0" wraps past 9
        ok &= ~inside | (digit < 10)
        value = value * 10 + digit * inside
    return value, ok


def _numbers(cells: list[str], head: bool = False, dash: bool = False) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The plain numbers of a column: cells of 1 to 18 ASCII digits; with
    ``head``, after one ASCII letter or "_" (an id such as ``n12``); with
    ``dash``, also two such numbers joined by "-" (a run such as ``3-5``).
    Returns each cell's first and last number (the same when it holds one)
    and which cells are plain; other cells' numbers mean nothing."""
    size = np.fromiter(map(len, cells), np.int64, len(cells))
    ends = np.cumsum(size)
    starts = ends - size
    # A character past ASCII becomes one "?", so it is never a digit.
    chars = np.frombuffer("".join(cells).encode("ascii", "replace"), np.uint8)
    if head:
        lead = np.zeros(len(cells), np.uint8)
        lead[size > 0] = chars[starts[size > 0]]
        starts += ((lead | 32) - 97 < 26) | (lead == 95)
    mid = ends.copy()  # where the first number ends
    if dash:  # a cell with more dashes keeps one inside a number and is not plain
        at = np.flatnonzero(chars == 45)
        mid[np.searchsorted(ends, at, side="right")] = at
    first, ok = _digits(chars, starts, mid)
    if not dash:
        return first, first, ok
    last, ok_last = _digits(chars, np.minimum(mid + 1, ends), ends)
    one = mid == ends
    return first, np.where(one, first, last), ok & (one | ok_last)


def _positive_id(cell: str) -> int:
    """A cell's id as ``extract_id`` reads it, when that is at least 1."""
    nid = extract_id(cell)
    if not nid:
        raise ValueError(f"no positive id in {cell!r}")
    return nid


def _runs(text: str) -> tuple[tuple[int, int], ...]:
    return MonadSet.parse(text).runs  # looked up at each call: the traced bench swaps it


def _fallback(ok: np.ndarray, cells: list[str], slow: Callable[[str], object]) -> tuple[np.ndarray, list, np.ndarray, dict]:
    """The one place that runs a per-row decoder: hand each cell where ``ok``
    is false to ``slow``, which returns its value or raises ``ValueError``.
    The rows it decodes, their values, which rows are decoded now, and the
    error text of each row it rejects."""
    rows, got, why = [], [], {}
    for i in np.flatnonzero(~ok).tolist():
        try:
            got.append(slow(cells[i]))
            rows.append(i)
        except ValueError as exc:
            why[i] = str(exc)
    ok = ok.copy()
    ok[rows] = True
    return np.array(rows, np.int64), got, ok, why


def _column(values: np.ndarray, ok: np.ndarray, cells: list[str], slow: Callable[[str], int]) -> tuple[np.ndarray, np.ndarray]:
    rows, got, ok, _ = _fallback(ok, cells, slow)
    try:
        values[rows] = got
    except OverflowError:  # exact Python ints
        values = values.astype(object)
        values[rows] = got
    return values, ok


def _int_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """An integer column, as ``int()`` reads it: values and which rows
    decoded."""
    values, _, ok = _numbers(cells)
    return _column(values, ok, cells, int)


def _id_column(cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """An id column, as ``extract_id`` reads ids, each at least 1: values
    and which rows decoded."""
    values, _, ok = _numbers(cells, head=True)
    return _column(values, ok & (values >= 1), cells, _positive_id)


def _monad_column(cells: list[str]) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], np.ndarray, dict[int, str]]:
    """A monad set column: its runs as ``Columns`` holds them, which rows
    decoded, and why each other row did not.  One-run text goes straight
    into the run arrays; only the rest is parsed into run tuples."""
    lo, hi, one = _numbers(cells, dash=True)
    one &= (lo >= 1) & (lo <= hi)
    rows, got, ok, why = _fallback(one, cells, _runs)
    size = one.astype(np.int64)
    size[rows] = list(map(len, got))
    offsets = np.zeros(len(cells) + 1, np.int64)
    np.cumsum(size, out=offsets[1:])
    first, last = np.empty(offsets[-1], np.int64), np.empty(offsets[-1], np.int64)
    first[offsets[:-1][one]], last[offsets[:-1][one]] = lo[one], hi[one]
    at = gather(offsets, rows)[1]
    first[at], last[at] = flat_runs(got)[1:]
    return (offsets, first, last), ok, why


def _take(values: list, rows: np.ndarray) -> list:
    """The items of a list at an index array, or where a mask is set."""
    if rows.dtype == bool:
        return list(compress(values, rows.tolist()))
    return list(map(values.__getitem__, rows.tolist()))


# ---------------------------------------------------------------------------
# graph XML front end
# ---------------------------------------------------------------------------


def extract_id(token: str) -> int | None:
    """Numeric identity of an xml:id: its decimal suffix (``n101`` -> 101),
    ASCII digits at the very end of the token."""
    m = _ID_SUFFIX_RE.fullmatch(token)
    if m is None:
        return None
    return int(m.group(1) or m.group(2))


_REGION, _WORD, _NODE, _EDGE, _ANNO = range(5)  # the tables of ``parse_graf``'s scan


class _Fields:
    """What a scan of the annotation files reads: one table per element
    form, each a list of field columns in document order, the issues it
    met, and each table's length at the end of each file.  Column 0 is
    the row's xml:id, or an annotation's ref:

    * ``_REGION``: xml:id, start and end anchor texts (``_parse_graf``
      reads them as ints);
    * ``_WORD``, the nodes that link a region: xml:id, region ref;
    * ``_NODE``, the nodes with monads: xml:id, otype, monad text;
    * ``_EDGE``: xml:id, from, to, label;
    * ``_ANNO``, one row per <f>: ref, name, value."""

    def __init__(self) -> None:
        self.tables: list[list[list[str]]] = [[[] for _ in range(width)] for width in (3, 2, 3, 4, 3)]
        self.issues: list[ValidationIssue] = []
        self.file_ends: list[list[int]] = [[] for _ in self.tables]

    def error(self, code: str, message: str, file: str, where: str | None = None) -> None:
        self.issues.append(ValidationIssue(code=code, message=message, file=file, where=where))

    def end_file(self) -> None:
        for ends, table in zip(self.file_ends, self.tables):
            ends.append(len(table[0]))


@contextmanager
def _collector_paused() -> Iterator[None]:
    """Pause the cyclic garbage collector, which would walk every item of
    a scan's row lists at each full collection; a parse makes no cycles."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@contextmanager
def _expat(fname: str) -> Iterator[expat.XMLParserType]:
    """The handler scan's expat parser: a namespaced name reads
    "uri}name", an undeclared or external entity in content is an
    ``IngestError``, and so is malformed XML, with its line."""

    def undefined(name: str, parameter: bool = False) -> None:
        if not parameter:
            at = (name, parser.CurrentLineNumber, parser.CurrentColumnNumber)
            raise IngestError("malformed XML: undefined entity &%s;: line %d, column %d" % at, file=fname, line=at[1])

    parser = expat.ParserCreate(namespace_separator="}")
    parser.SkippedEntityHandler = undefined
    parser.ExternalEntityRefHandler = lambda context, *_: undefined(context.rsplit("\f", 1)[-1])
    try:
        yield parser
    except expat.ExpatError as exc:
        raise IngestError(f"malformed XML: {exc}", file=fname, line=exc.lineno) from None
    finally:  # ``undefined`` refers to the parser: a cycle would keep the scan's lists alive
        del parser


# Stage 2 reads the dialect the writers emit (``synth.write_graf`` and
# ``write_big_graf``): an optional UTF-8 declaration, a bare <graph> root,
# and elements of five forms, each attribute double-quoted, in this order,
# after one space, with no tab, CR or LF in a value.  A value is what expat
# returns once its references are replaced; targets are plain ASCII.
# Stage 1 runs expat without namespace processing: every form's element
# and attribute names are fixed and ``xml:`` is their only prefix, so a
# file that holds another namespace construct has a "<" outside the forms.
_PROLOG_RE = re.compile(rb'(?:<\?xml version="1\.0"(?: encoding="(?i:utf-8)")?\?>\s*)?<graph>')
_REGION_RE = re.compile(rb'<region xml:id="([^"\t\n\r]*)" anchors="([0-9]+) ([0-9]+)"/>')
_WORD_RE = re.compile(rb'<node xml:id="([^"\t\n\r]*)"><link targets="([!#-%\'-;=-~]+)"/></node>')
_NODE_RE = re.compile(rb'<node xml:id="([^"\t\n\r]*)" otype="([^"\t\n\r]*)" monads="([^"\t\n\r]*)"/>')
_EDGE_RE = re.compile(rb'<edge xml:id="([^"\t\n\r]*)" from="([^"\t\n\r]*)" to="([^"\t\n\r]*)" label="([^"\t\n\r]*)"/>')
_ANNO_RE = re.compile(rb'<a ref="([^"\t\n\r]*)">((?:<f name="[^"\t\n\r]*" value="[^"\t\n\r]*"/>)+)</a>')
_F_RE = re.compile(rb'<f name="([^"\t\n\r]*)" value="([^"\t\n\r]*)"/>')
_CHUNK = 1 << 16  # bytes read at a time: stage 2 never holds a whole file, nor a buffer that grows with it
_REF_RE = re.compile(r"&(?:#x([0-9A-Fa-f]+)|#([0-9]+)|(amp|lt|gt|quot|apos));")
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _entity(m: re.Match[str]) -> str:
    hexa, decimal, name = m.groups()
    return _ENTITIES[name] if name else chr(int(hexa, 16) if hexa else int(decimal))


def _strings(values: tuple[bytes, ...]) -> list[str]:
    """A column of attribute values as expat returns them: one join, one
    UTF-8 decode and one split.  Stage 1 has checked every reference, and
    expat allows no NUL, so NUL separates the values."""
    if not values:
        return []
    text = b"\0".join(values).decode()
    if "&" in text:
        text = _REF_RE.sub(_entity, text)
    return text.split("\0")


def _byte_scan(paths: list[Path]) -> _Fields | None:
    """Stage 2: the field lists of files in the writers' dialect, read
    with one compiled regex per element form, while stage 1, one bare
    expat pass, checks each file.  None, to leave the call to the handler
    scan, when a file cannot be read or is not well-formed, when any "<"
    in it lies outside a recognised form (a DOCTYPE, comment, CDATA
    section or processing instruction, an ``xmlns``, another encoding,
    attributes in another order or quoting, or an element the scan would
    report), or when an xml:id repeats."""
    s = _Fields()
    try:
        if not all(_read_file(s, path) for path in paths):
            return None
    except (OSError, expat.ExpatError):
        return None
    xids = [table[0] for table in s.tables[:_ANNO]]
    if len(set(chain.from_iterable(xids))) != sum(map(len, xids)):
        return None
    return s


def _read_file(s: _Fields, path: Path) -> bool:
    """Feed a file to a bare expat parser and append the rows of its forms
    to the field lists, a chunk at a time; whether every "<" in it lies in
    a form."""
    parser = expat.ParserCreate()
    with open(path, "rb") as source:
        buf = source.read(_CHUNK)
        parser.Parse(buf, not buf)
        prolog = _PROLOG_RE.match(buf)
        if prolog is None:
            return False
        seen = prolog[0].count(b"<")
        held = seen + 1  # the "<" the forms hold, </graph> included
        start = prolog.end()
        while buf:
            more = source.read(_CHUNK)
            parser.Parse(more, not more)
            # No form holds a LF, so none crosses a cut made after one.
            stop = (buf.rfind(b"\n<", start) + 1 or start) if more else len(buf)
            held += _read_forms(s, buf, start, stop)
            seen += buf.count(b"<", start, stop)
            buf, start = buf[stop:] + more, 0
    s.end_file()
    return held == seen


def _read_forms(s: _Fields, data: bytes, start: int, stop: int) -> int:
    """Append the rows of the forms in ``data[start:stop]`` to the field
    lists; returns the number of "<" they hold."""
    held = 0
    for form, lt, table in zip((_REGION_RE, _WORD_RE, _NODE_RE, _EDGE_RE), (1, 3, 1, 1), s.tables):
        matches = form.findall(data, start, stop)
        held += lt * len(matches)
        for column, values in zip(table, zip(*matches)):
            column += _strings(values)
    annos = _ANNO_RE.findall(data, start, stop)
    refs, inners = zip(*annos) if annos else ((), ())
    fs = _F_RE.findall(b"".join(inners))
    anno_ref, *anno_fields = s.tables[_ANNO]
    anno_ref += chain.from_iterable(map(repeat, _strings(refs), map(bytes.count, inners, repeat(b"<"))))
    for column, values in zip(anno_fields, zip(*fs)):
        column += _strings(values)
    return held + 2 * len(annos) + len(fs)


def _handler_scan(paths: list[Path], slot_otype: str) -> _Fields:
    """The field lists of any graph XML files, and the issues met: one
    expat pass per file whose handlers append attribute values."""
    s = _Fields()
    data_err, seen_xids = s.error, set()

    def add(table: int, *row: str) -> None:
        for column, value in zip(s.tables[table], row):
            column.append(value)

    for anno_path in paths:
        fname = str(anno_path)
        if not anno_path.exists():
            raise IngestError("annotation file not found", file=fname)
        # One expat pass: each start pushes (tag, attributes, kids), handing
        # a <link> to the <node> and an <f> to the <a> that is its parent,
        # as ``findall`` on direct children would; each end pops its element
        # and fills the field lists.  Ids are claimed at end tags, so of two
        # nested duplicates the inner one counts.  A namespaced tag reads
        # "uri}tag" and matches nothing.
        stack: list[tuple[str, dict[str, str], list[dict[str, str]]]] = []

        def claim_xid(attrs: dict[str, str], what: str) -> str | None:
            xid = attrs.get(_XML_ID)
            if xid is None:
                data_err("MISSING_XMLID", f"<{what}> has no xml:id", fname)
                return None
            if xid in seen_xids:
                data_err("DUPLICATE_XMLID", f"xml:id {xid!r} used more than once", fname, where=xid)
                return None
            seen_xids.add(xid)
            return xid

        def start(tag: str, attrs: dict[str, str]) -> None:
            if not stack and tag != "graph":  # a namespaced root is named "{uri}tag"
                raise IngestError(f"root element must be <graph>, got <{'{' if '}' in tag else ''}{tag}>", file=fname)
            if stack and stack[-1][0] == _PARENT.get(tag):
                stack[-1][2].append(attrs)
            stack.append((tag, attrs, []))

        def end(_: str) -> None:
            tag, attrs, kids = stack.pop()
            if tag == "region":
                xid = claim_xid(attrs, "region")
                if xid is not None:
                    anchors = _ANCHORS_RE.fullmatch(attrs.get("anchors") or "")
                    if anchors is None:
                        data_err("BAD_ANCHORS", f"region {xid!r}: anchors must be two integers", fname, where=xid)
                    else:
                        add(_REGION, xid, anchors[1], anchors[2])
            elif tag == "node":
                xid = claim_xid(attrs, "node")
                if xid is not None:
                    monads, otype = attrs.get("monads"), attrs.get("otype")
                    if kids:
                        targets = (kids[0].get("targets") or "").split()
                        if len(kids) > 1 or len(targets) != 1:
                            data_err("BAD_LINK", f"node {xid!r} must link exactly one region", fname, where=xid)
                        elif monads is not None:
                            data_err("BAD_LINK", f"node {xid!r} has both a link and monads", fname, where=xid)
                        elif otype not in (None, slot_otype):
                            data_err("BAD_OTYPE", f"linked node {xid!r} cannot have otype {otype!r}", fname, where=xid)
                        else:
                            add(_WORD, xid, targets[0])
                    elif monads is not None:
                        if otype is None:
                            data_err("MISSING_OTYPE", f"node {xid!r} has no otype", fname, where=xid)
                        else:
                            add(_NODE, xid, otype, monads)
                    else:
                        data_err("UNANCHORED_NODE", f"node {xid!r} has neither a link nor monads", fname, where=xid)
            elif tag == "edge":
                xid = claim_xid(attrs, "edge")
                src, dst = attrs.get("from"), attrs.get("to")
                if xid is not None:
                    if src is None or dst is None:
                        data_err("BAD_EDGE", f"edge {xid!r} needs from and to", fname, where=xid)
                    else:
                        add(_EDGE, xid, src, dst, attrs.get("label") or "")
            elif tag == "a":
                ref = attrs.get("ref")
                if ref is None:
                    data_err("BAD_ANNOTATION", "<a> has no ref", fname)
                else:
                    for f in kids:
                        name, value = f.get("name"), f.get("value")
                        if name is None or value is None:
                            data_err("BAD_FEATURE", f"<f> under {ref!r} needs name and value", fname, where=ref)
                        else:
                            add(_ANNO, ref, name, value)

        with _expat(fname) as parser, open(fname, "rb") as source:
            parser.StartElementHandler, parser.EndElementHandler = start, end
            parser.ParseFile(source)
        s.end_file()
    return s


def parse_graf(header_path: str | Path) -> LogicalCorpus:
    """Parse a header file plus the annotation XML files it references,
    with stage 2, or the handler scan where stage 2 declines."""
    return _parse_graf(header_path, lambda paths, slot_otype: _byte_scan(paths) or _handler_scan(paths, slot_otype))


@_collector_paused()
def _parse_graf(header_path: str | Path, scan: Callable[[list[Path], str], _Fields]) -> LogicalCorpus:
    """``parse_graf`` with the scan that reads the annotation files."""
    header = Path(header_path)
    entries = _parse_keyvalue(header)
    base = header.parent

    def need(key: str) -> str:
        value = _single(entries, key, header)
        if value is None:
            raise IngestError(f"header is missing {key}=", file=str(header))
        return value

    metadata = _metadata_from_entries(entries, header)
    text = _text(base / need("text"), "primary text")
    anno_paths = [base / p for p in _LIST_SPLIT_RE.split(need("annotations")) if p]
    if not anno_paths:
        raise IngestError("header names no annotation files", file=str(header))

    s = scan(anno_paths, metadata.slot_otype)
    [(region_xid, region_start, region_end), (word_xid, word_ref), (node_xid, node_otype, node_monads),
     (edge_xid, edge_src, edge_dst, edge_label), (anno_ref, anno_key, anno_value)] = s.tables
    warns: list[ValidationIssue] = []

    def report(code: str, table: int, rows: np.ndarray, message: Callable[[int], str],
               into: list[ValidationIssue] = s.issues) -> None:
        """File an issue on each of some rows of a table, in the row's file
        and with its column 0 as ``where``."""
        where, ends = s.tables[table][0], s.file_ends[table]
        into.extend(ValidationIssue(code, message(i), str(anno_paths[bisect_right(ends, i)]), where=where[i])
                    for i in rows.tolist())

    def id_column(table: int, rows: np.ndarray, cells: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """The ids of some rows of a table, given their xml:ids ``cells``,
        and which rows have one; the others are reported."""
        values, ok = _id_column(cells)
        xids = s.tables[table][0]
        report("BAD_ID", table, rows[~ok], lambda i: f"xml:id {xids[i]!r} has no positive decimal suffix")
        return values, ok

    def resolve(index: dict[str, int], refs: list[str]) -> np.ndarray:  # the row each ref names, or -1
        return np.fromiter(map(index.get, refs, repeat(-1)), np.int64, len(refs))

    # Slot assembly: word regions sorted by start become slots 1..W.  A word
    # with no region, or one whose anchors int() refuses, sorts as (0, 0).
    (starts, a), (ends, b) = _int_column(region_start), _int_column(region_end)
    report("BAD_ANCHORS", _REGION, np.flatnonzero(~(a & b)), lambda i: f"region {region_xid[i]!r}: anchors must be two integers")
    ref_row = resolve(dict(zip(_take(region_xid, a & b), np.flatnonzero(a & b).tolist())), word_ref)
    span_start, span_end = np.append(starts, 0)[ref_row], np.append(ends, 0)[ref_row]
    order = np.lexsort((span_end, span_start))
    linked = ref_row[order] >= 0
    reused = linked & repeats(ref_row[order])  # a later word on a region already linked
    report("DANGLING_LINK", _WORD, order[~linked], lambda i: f"node {word_xid[i]!r} links unknown region {word_ref[i]!r}")
    report("REGION_REUSED", _WORD, order[reused], lambda i: f"region {word_ref[i]!r} linked by more than one node")
    rows = order[linked & ~reused]
    word_ids, ok = id_column(_WORD, rows, _take(word_xid, rows))
    bad = ok & ~((span_start[rows] >= 0) & (span_start[rows] < span_end[rows]))
    report("BAD_ANCHORS", _WORD, rows[bad],
           lambda i: f"region {word_ref[i]!r}: {region_problem(span_start[i], span_end[i])}")
    words, word_ids = rows[ok & ~bad], word_ids[ok & ~bad]
    used = np.zeros(len(region_xid), dtype=bool)
    used[ref_row[order[linked]]] = True
    report("UNUSED_REGION", _REGION, np.flatnonzero(~used),
           lambda i: f"region {region_xid[i]!r} is not linked by any node", into=warns)

    node_ids, ok = id_column(_NODE, np.arange(len(node_xid)), node_xid)
    # The monad text of each node with an id goes to ``MonadSet.parse``, one
    # node at a time, with no bulk pass (``_monad_column``): the traced
    # bench times these calls (``model.monadset_parse_s``) and requires them
    # on every XML build.  A node without an id counts as decoded.
    rows, got, parsed, why = _fallback(~ok, node_monads, _runs)
    report("BAD_MONADS", _NODE, np.flatnonzero(~parsed), lambda i: f"node {node_xid[i]!r}: {why[i]}")
    ids, otypes, (offsets, first, last) = node_ids[rows], _take(node_otype, rows), flat_runs(got)
    del got
    width = len(words)
    monad = np.arange(1, width + 1, dtype=np.int64)  # slot k owns monad k
    nodes = (
        np.concatenate((word_ids, ids)),
        [metadata.slot_otype] * width + otypes,
        (np.concatenate((monad - 1, offsets + width)), np.concatenate((monad, first)), np.concatenate((monad, last))),
    )
    # Edge ends resolve against the nodes alone; annotation refs also against the edges kept, appended below.
    index = dict(zip(_take(word_xid, words) + _take(node_xid, rows), range(len(nodes[0]))))

    edge_ids, ok = id_column(_EDGE, np.arange(len(edge_xid)), edge_xid)
    rows = np.flatnonzero(ok)
    src, dst = (resolve(index, _take(refs, rows)) for refs in (edge_src, edge_dst))
    found = (src >= 0) & (dst >= 0)
    report("DANGLING_EDGE_REF", _EDGE, rows[~found], lambda i: f"edge {edge_xid[i]!r} references unknown node")
    rows = rows[found]
    edges = (edge_ids[rows], nodes[0][src[found]], nodes[0][dst[found]], _take(edge_label, rows))
    index.update(zip(_take(edge_xid, rows), range(len(nodes[0]), len(nodes[0]) + len(rows))))

    at = resolve(index, anno_ref)
    report("DANGLING_REF", _ANNO, np.flatnonzero(at < 0), lambda i: f"annotation references unknown id {anno_ref[i]!r}")

    _check(_report(s.issues, warns))  # from here on, every ref was found
    targets = np.concatenate((nodes[0], edges[0]))[at]
    kinds = np.where(at < len(nodes[0]), NODE_KIND, EDGE_KIND).tolist()
    slots = (span_start[words], span_end[words])
    return _assembled(text, slots, nodes, edges, (kinds, targets, anno_key, anno_value), metadata)


def _assembled(text, slots, nodes, edges, features, metadata) -> LogicalCorpus:
    """A front end's corpus: its columns, in ``assemble``'s order."""
    columns = Columns.build(slots, nodes, edges, features)
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
    def sub(m: re.Match[str]) -> str:
        token = m.group(0)
        if token == "\\":
            raise ValueError("dangling backslash")
        return _UNESCAPE[token]

    return _ESCAPE_RE.sub(sub, cell)


def _table(path: Path, issues: list[ValidationIssue]) -> tuple[list[int], list[list[str]]]:
    r"""A TSV file's data rows: their line numbers, and their cells as one
    list per column.  Rows are split at "\n" only, each without one
    trailing "\r".  Blank rows and rows starting with "#" are skipped;
    the first other row must be the header.  A row with another number of
    cells is reported and left out."""
    expected = _TSV_HEADERS[path.name]
    data = _text(path).encode().replace(b"\r\n", b"\n").removesuffix(b"\r")
    buf = np.frombuffer(data, np.uint8)
    breaks = np.flatnonzero(buf == 10)
    start = np.append(0, breaks + 1)  # where each line starts
    size = np.append(breaks, len(buf)) - start
    lead = np.zeros(len(start), np.uint8)  # each line's first byte, 0 when it has none
    lead[size > 0] = buf[start[size > 0]]
    line = lambda i: data[start[i] : start[i] + size[i]].decode()
    # Only a line that starts with an ASCII space or control character, or
    # with a character past ASCII, can be all whitespace.
    blank = size == 0
    for i in np.flatnonzero((size > 0) & ((lead <= 32) | (lead >= 128))).tolist():
        blank[i] = not line(i).strip()
    kept = np.flatnonzero(~blank & (lead != 35))  # "#" starts a comment
    no_rows: tuple[list[int], list[list[str]]] = ([], [[] for _ in expected])
    if not len(kept):
        issues.append(ValidationIssue("BAD_HEADER", "missing header line", str(path)))
        return no_rows
    header = line(kept[0]).split("\t")
    if header != expected:
        issues.append(ValidationIssue("BAD_HEADER", f"expected header {expected}, got {header}", str(path), int(kept[0]) + 1))
        return no_rows
    rows = kept[1:]
    width = np.bincount(np.searchsorted(breaks, np.flatnonzero(buf == 9)), minlength=len(start))[rows] + 1
    for i in np.flatnonzero(width != len(expected)).tolist():
        issues.append(ValidationIssue("BAD_ROW", f"expected {len(expected)} columns, got {width[i]}", str(path), int(rows[i]) + 1))
    rows = rows[width == len(expected)]
    # Every good row with the "\n" after it, which becomes one more tab.
    keep = np.zeros(len(start), dtype=bool)
    keep[rows] = True
    body = buf[np.repeat(keep, size + 1)[: len(buf)]].tobytes().replace(b"\n", b"\t")
    cells = body.decode().split("\t")[: len(rows) * len(expected)]
    return (rows + 1).tolist(), [cells[k :: len(expected)] for k in range(len(expected))]


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
    text = _text(base / "text.txt", "primary text")

    issues: list[ValidationIssue] = []

    def report(path: Path, lines: list[int], code: str, rows: np.ndarray, message: Callable[[int], str]) -> None:
        """File an issue on each of some rows of a table, at its line."""
        issues.extend(ValidationIssue(code, message(i), str(path), lines[i]) for i in rows.tolist())

    def ints(path: Path, lines: list[int], cells: list[str], what: str) -> tuple[np.ndarray, np.ndarray]:
        values, ok = _int_column(cells)
        report(path, lines, "BAD_INT", np.flatnonzero(~ok), lambda i: f"{what} must be an integer, got {cells[i]!r}")
        return values, ok

    def ids(path: Path, lines: list[int], cells: list[str], what: str) -> tuple[np.ndarray, np.ndarray]:
        # Bare integer, or an XML-style token with a decimal suffix ("n9").
        values, ok = _id_column(cells)
        report(path, lines, "BAD_ID", np.flatnonzero(~ok), lambda i: f"{what} must be a positive id, got {cells[i]!r}")
        return values, ok

    slots_path = base / "slots.tsv"
    linenos, cells = _table(slots_path, issues)
    (idx, a), (start, b), (end, c) = (ints(slots_path, linenos, *col) for col in zip(cells, _TSV_HEADERS[slots_path.name]))
    rows = np.flatnonzero(a & b & c)
    idx, start, end, linenos = idx[rows], start[rows], end[rows], _take(linenos, rows)
    fine = (start >= 0) & (start < end)
    # A row repeats a slot when an earlier row with its index took the
    # slot, which a row with a bad region does not.
    order = np.argsort(idx, kind="stable")
    took = np.cumsum(fine[order]) - fine[order]  # slots taken before each row, in index order
    again = np.empty(len(order), dtype=bool)
    again[order] = took > took[np.maximum.accumulate(np.where(heads(idx[order]), np.arange(len(order)), 0))]
    report(slots_path, linenos, "DUPLICATE_SLOT", np.flatnonzero(again), lambda i: f"slot {idx[i]} defined twice")
    report(slots_path, linenos, "BAD_REGION", np.flatnonzero(~again & ~fine), lambda i: region_problem(start[i], end[i]))
    taken = np.flatnonzero(fine & ~again)
    taken = taken[np.argsort(idx[taken], kind="stable")]
    if len(taken) and not np.array_equal(idx[taken], np.arange(1, len(taken) + 1)):
        issues.append(ValidationIssue("SLOT_NUMBERING", "slot indices must be dense 1..W", str(slots_path), 0))

    nodes_path = base / "nodes.tsv"
    linenos, (id_cells, otypes, monad_cells) = _table(nodes_path, issues)
    node_ids, a = ids(nodes_path, linenos, id_cells, "node_id")
    (offsets, first, last), b, why = _monad_column(monad_cells)
    report(nodes_path, linenos, "BAD_MONADS", np.flatnonzero(~b), why.__getitem__)
    keep = a & b
    offsets, at = gather(offsets, np.flatnonzero(keep))
    nodes = (node_ids[keep], _take(otypes, keep), (offsets, first[at], last[at]))

    features_path = base / "features.tsv"
    linenos, (kinds, target_cells, keys, values) = _table(features_path, issues)
    targets, ok = ids(features_path, linenos, target_cells, "target_id")
    escaped = ok & np.fromiter(map(contains, values, repeat("\\")), bool, len(values))
    rows, got, done, why = _fallback(~escaped, values, unescape_cell)
    for i, value in zip(rows.tolist(), got):
        values[i] = value
    report(features_path, linenos, "BAD_ESCAPE", np.flatnonzero(~done), why.__getitem__)
    ok &= done
    features = (_take(kinds, ok), targets[ok], _take(keys, ok), _take(values, ok))

    edges_path = base / "edges.tsv"
    edges: tuple = ((), (), (), ())
    if edges_path.exists():
        linenos, cells = _table(edges_path, issues)
        (eids, e), (src, f), (dst, g) = (ids(edges_path, linenos, *col) for col in zip(cells, ("edge_id", "from", "to")))
        ok = e & f & g
        edges = (eids[ok], src[ok], dst[ok], _take(cells[3], ok))

    _check(_report(issues, []))
    return _assembled(text, (start[taken], end[taken]), nodes, edges, features, metadata)
