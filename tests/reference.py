"""First-principles re-implementations used as test oracles.

Everything here works on plain Python sets and lists (or, for
``canonical_permutation``, one numpy lexsort), deliberately avoiding the
package's own data structures, so a bug in the engine cannot
hide inside the expectation.  The exceptions are ``atom_mask_by_ids`` and
``passages_meeting_by_ids``: the engine's earlier id-based forms of two
steps that now run on corpus rows, kept to check those rows against,
and ``import_store_bytes``, which fills the package's ``AnnotationStore``
and ``SavedQuery``, the types the import it checks is compared in.
``lex`` is the query lexer's earlier form, one ``match`` call per token.
"""

from __future__ import annotations

import re
from collections import Counter

import numpy as np


def monad_set(node) -> frozenset[int]:
    """Node's monads as a plain frozenset, via public iteration."""
    return frozenset(node.monads)


def rank_table(declared: tuple[str, ...], present: set[str], slot_otype: str) -> dict[str, int]:
    order = [t for t in declared if t != slot_otype]
    order += sorted(t for t in present - set(declared) if t != slot_otype)
    order.append(slot_otype)
    return {t: i for i, t in enumerate(order)}


def sort_key(monads: frozenset[int], rank: int, node_id: int):
    return (min(monads), -max(monads), rank, node_id)


def canonical_sorted(nodes, metadata) -> list[int]:
    """Node ids in canonical order, computed straight from the definition."""
    ranks = rank_table(
        metadata.otypes, {n.otype for n in nodes}, metadata.slot_otype
    )
    ordered = sorted(
        nodes, key=lambda n: sort_key(monad_set(n), ranks[n.otype], n.id)
    )
    return [n.id for n in ordered]


def canonical_permutation(ids, otype_code, first, last) -> np.ndarray:
    """Rows in canonical order by one four-key lexsort over a loaded
    corpus's columns (``last`` signed); lexsort treats its last key as
    primary."""
    return np.lexsort((ids, otype_code, -last, first))


def atom_mask_by_ids(corpus, key: str, value_mask: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Whether each node id carries ``key`` with a value whose dictionary
    code ``value_mask`` holds: one search of the ids' rows in the key's
    store, whose targets are rows."""
    from fabric.corpus import _find_all

    store = corpus.store(key)
    pos = _find_all(store.targets, corpus._rows(ids))
    hit = pos >= 0
    hit[hit] = value_mask[store.codes[pos[hit]]]
    return hit


def passages_meeting_by_ids(corpus, nodes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The passage ids meeting any of the (existing) node ids, the ids
    meeting each and the group bounds, as ``Corpus._passages_meeting``
    gives them: found through the ids, deduplicated with ``np.unique``;
    rows are canonical positions, so sorting them puts them in canonical
    order."""
    rows = np.sort(corpus._rows(np.unique(nodes)))
    owner, ps = corpus._meeting(rows)
    order = np.argsort(ps, kind="stable")
    ps, met = ps[order], corpus._ids[rows[owner[order]]]
    heads = np.flatnonzero(np.diff(ps, prepend=-1))
    return corpus._ids[ps[heads]], met, np.append(heads, len(met))


def embeds(a_monads: frozenset[int], b_monads: frozenset[int], same_node: bool) -> bool:
    return not same_node and b_monads <= a_monads


def sequence_before(a_monads: frozenset[int], b_monads: frozenset[int]) -> bool:
    return max(a_monads) < min(b_monads)


def adjacent(a_monads: frozenset[int], b_monads: frozenset[int]) -> bool:
    return max(a_monads) + 1 == min(b_monads)


def gap_holds(gap, prev: frozenset[int], nxt: frozenset[int]) -> bool:
    """Gap between consecutive blocks: adjacency, or strictly before with
    at most ``gap.limit`` monads skipped when a limit is given."""
    if gap.kind == "adjacent":
        return adjacent(prev, nxt)
    return sequence_before(prev, nxt) and (gap.limit is None or min(nxt) - max(prev) - 1 <= gap.limit)


def scan_matches(root, candidates, monads: dict[int, frozenset[int]]) -> list[tuple[int, ...]]:
    """Matches of a parsed query as pre-order node tuples, by nested scans:
    every candidate of a block is tested against its parent (containment)
    and its predecessor (gap).  ``candidates(block)`` lists the nodes that
    match the block alone, in canonical order."""

    def walk(bs, parent):
        def rec(i, prev):
            if i == len(bs.blocks):
                yield ()
                return
            block = bs.blocks[i]
            for node in candidates(block):
                if parent is not None and not embeds(monads[parent], monads[node], node == parent):
                    continue
                if i and not gap_holds(bs.gaps[i - 1], monads[prev], monads[node]):
                    continue
                inner = walk(block.children, node) if block.children is not None else [()]
                for kids in inner:
                    for rest in rec(i + 1, node):
                        yield (node,) + kids + rest

        return list(rec(0, None))

    return walk(root, None)


def down(node: int, order: list[int], monads: dict[int, frozenset[int]]) -> list[int]:
    """Nodes embedded in ``node``, in the given (canonical) order."""
    return [n for n in order if embeds(monads[node], monads[n], n == node)]


def up(node: int, order: list[int], monads: dict[int, frozenset[int]]) -> list[int]:
    """Nodes embedding ``node``, in the given (canonical) order."""
    return [n for n in order if embeds(monads[n], monads[node], n == node)]


def passages_meeting(
    passages: list[int], nodes: list[int], monads: dict[int, frozenset[int]]
) -> list[int]:
    """Those passages, in the given order, sharing a monad with any node."""
    return [p for p in passages if any(monads[p] & monads[n] for n in nodes)]


def text_of(text: str, slots, monads: frozenset[int]) -> str:
    pieces = []
    prev_end = None
    for m in sorted(monads):
        region = slots[m - 1]
        if prev_end is not None and region.start != prev_end:
            pieces.append(" ")
        pieces.append(text[region.start : region.end])
        prev_end = region.end
    return "".join(pieces)


def frequency(values) -> list[tuple[str, int]]:
    counts = Counter(values)
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))


def flatten_match(match) -> tuple[int, ...]:
    """Match tree tuple -> node ids in query pre-order."""
    out: list[int] = []

    def walk(trees) -> None:
        for tree in trees:
            out.append(tree.node)
            walk(tree.children)

    walk(match)
    return tuple(out)


def result_rows(result) -> list[tuple[int, ...]]:
    return [flatten_match(m) for m in result.matches]


def validate(corpus):
    """The structural validator as one loop over the corpus's objects,
    issue for issue what ``fabric.ingest.validate`` reports from columns.
    It is the engine's validator from before the columns, plus the two
    checks added with them: ids past the image format's 32 bits, and
    integer values past int64."""
    from fabric.ingest import ValidationIssue, ValidationReport
    from fabric.model import RESERVED_CONTAINMENT_LABELS

    errors = []
    warns = []

    def err(code, where, message):
        errors.append(ValidationIssue(code=code, message=message, where=where))

    def in_u32(value):
        return 0 <= value <= 2**32 - 1

    width = len(corpus.slots)
    if width == 0:
        err("NO_SLOTS", "slots", "corpus has no slots")
    text_len = len(corpus.text)
    for i, region in enumerate(corpus.slots, start=1):
        if region.end > text_len:
            err("REGION_BOUNDS", f"slot {i}", f"region ends at {region.end}, text has {text_len} characters")
        if i < width and region.end > corpus.slots[i].start:
            err("SLOT_OVERLAP", f"slot {i}", f"region overlaps or disorders slot {i + 1}")

    node_ids = set()
    slot_owner = {}
    for node in corpus.nodes:
        where = f"node {node.id}"
        if node.id in node_ids:
            err("DUPLICATE_NODE_ID", where, "node id is not unique")
            continue
        node_ids.add(node.id)
        if not in_u32(node.id):
            err("ID_RANGE", where, f"node id {node.id} exceeds the 32-bit image format limit")
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

    edge_ids = set()
    for edge in corpus.edges:
        where = f"edge {edge.id}"
        if edge.id in edge_ids:
            err("DUPLICATE_EDGE_ID", where, "edge id is not unique")
            continue
        edge_ids.add(edge.id)
        if not in_u32(edge.id):
            err("ID_RANGE", where, f"edge id {edge.id} exceeds the 32-bit image format limit")
        for end, role in ((edge.src, "from"), (edge.dst, "to")):
            if end not in node_ids:
                err("DANGLING_EDGE", where, f"{role} references unknown node {end}")
        if edge.src == edge.dst and edge.label in RESERVED_CONTAINMENT_LABELS:
            err("SELF_CONTAINMENT", where, f"self-loop with containment label {edge.label!r}")

    seen_features = set()
    for f in corpus.features:
        where = f"feature {f.kind}:{f.target}:{f.key}"
        if f.kind not in ("N", "E"):
            err("BAD_KIND", where, f"feature kind must be N or E, got {f.kind!r}")
            continue
        pool = node_ids if f.kind == "N" else edge_ids
        if f.target not in pool:
            err("DANGLING_TARGET", where, f"feature targets unknown {'node' if f.kind == 'N' else 'edge'} {f.target}")
        triple = (f.kind, f.target, f.key)
        if triple in seen_features:
            err("DUPLICATE_FEATURE", where, "more than one value for this target and key")
        seen_features.add(triple)
        if f.key in corpus.metadata.int_features:
            try:
                ok = -(2**63) <= int(f.value) < 2**63
            except ValueError:
                ok = False
            if not ok:
                err("INT_VALUE", where, f"key {f.key!r} is integer-typed but value is {f.value!r}")

    def ordered(issues):
        return tuple(sorted(issues, key=lambda i: (i.file or "", i.line or 0, i.code, i.where or "", i.message)))

    return ValidationReport(errors=ordered(errors), warnings=ordered(warns))


def parse_tabular(directory):
    """The tabular front end one row at a time: the engine's parser from
    before its columns were decoded in bulk, with rows split at "\\n" only
    and a trailing "\\r" dropped, building the corpus from objects.
    Returns the corpus, or raises ``ValidationFailure`` with every row
    report (or ``IngestError``) as ``fabric.ingest.parse_tabular`` does."""
    from pathlib import Path

    from fabric.errors import IngestError, ValidationFailure
    from fabric.ingest import (
        ValidationIssue,
        ValidationReport,
        _metadata_from_entries,
        _parse_keyvalue,
        extract_id,
        unescape_cell,
    )
    from fabric.model import (
        CorpusMetadata,
        Edge,
        FeatureAssignment,
        LogicalCorpus,
        MonadSet,
        Node,
        Region,
        region_problem,
    )

    headers = {
        "slots.tsv": ["slot_index", "start", "end"],
        "nodes.tsv": ["node_id", "otype", "monadset"],
        "features.tsv": ["kind", "target_id", "key", "value"],
        "edges.tsv": ["edge_id", "from", "to", "label"],
    }
    base = Path(directory)
    if not base.is_dir():
        raise IngestError("not a directory", file=str(base))
    for required in ("text.txt", "slots.tsv", "nodes.tsv", "features.tsv"):
        if not (base / required).exists():
            raise IngestError(f"missing {required}", file=str(base / required))
    meta_path = base / "meta.txt"
    metadata = (
        _metadata_from_entries(_parse_keyvalue(meta_path), meta_path) if meta_path.exists() else CorpusMetadata()
    )
    text = (base / "text.txt").read_bytes().decode("utf-8")
    issues = []

    def row_err(path, lineno, code, message):
        issues.append(ValidationIssue(code=code, message=message, file=str(path), line=lineno))

    def read(path):
        rows = []
        expected = headers[path.name]
        header_seen = False
        for lineno, raw in enumerate(path.read_bytes().decode("utf-8").split("\n"), start=1):
            if raw.endswith("\r"):
                raw = raw[:-1]
            if not raw.strip() or raw.startswith("#"):
                continue
            cells = raw.split("\t")
            if not header_seen:
                if cells != expected:
                    row_err(path, lineno, "BAD_HEADER", f"expected header {expected}, got {cells}")
                    return []
                header_seen = True
                continue
            if len(cells) != len(expected):
                row_err(path, lineno, "BAD_ROW", f"expected {len(expected)} columns, got {len(cells)}")
                continue
            rows.append((lineno, cells))
        if not header_seen:
            issues.append(ValidationIssue(code="BAD_HEADER", message="missing header line", file=str(path)))
        return rows

    def parse_int(path, lineno, cell, what):
        try:
            return int(cell)
        except ValueError:
            row_err(path, lineno, "BAD_INT", f"{what} must be an integer, got {cell!r}")
            return None

    def parse_id(path, lineno, cell, what):
        nid = extract_id(cell)
        if nid is None or nid < 1:
            row_err(path, lineno, "BAD_ID", f"{what} must be a positive id, got {cell!r}")
            return None
        return nid

    slots_path = base / "slots.tsv"
    slot_rows = {}
    for lineno, cells in read(slots_path):
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

    nodes_path = base / "nodes.tsv"
    nodes = []
    for lineno, cells in read(nodes_path):
        nid = parse_id(nodes_path, lineno, cells[0], "node_id")
        try:
            monads = MonadSet.parse(cells[2])
        except ValueError as exc:
            row_err(nodes_path, lineno, "BAD_MONADS", str(exc))
            continue
        if nid is None:
            continue
        nodes.append(Node(nid, cells[1], monads))

    features_path = base / "features.tsv"
    features = []
    for lineno, cells in read(features_path):
        target = parse_id(features_path, lineno, cells[1], "target_id")
        if target is None:
            continue
        try:
            value = unescape_cell(cells[3])
        except ValueError as exc:
            row_err(features_path, lineno, "BAD_ESCAPE", str(exc))
            continue
        features.append(FeatureAssignment(cells[0], target, cells[2], value))

    edges_path = base / "edges.tsv"
    edges = []
    if edges_path.exists():
        for lineno, cells in read(edges_path):
            eid = parse_id(edges_path, lineno, cells[0], "edge_id")
            src = parse_id(edges_path, lineno, cells[1], "from")
            dst = parse_id(edges_path, lineno, cells[2], "to")
            if eid is None or src is None or dst is None:
                continue
            edges.append(Edge(eid, src, dst, cells[3]))

    if issues:
        ordered = sorted(issues, key=lambda i: (i.file or "", i.line or 0, i.code, i.where or "", i.message))
        raise ValidationFailure(ValidationReport(errors=tuple(ordered), warnings=()))
    slots = [Region(*slot_rows[i]) for i in sorted(slot_rows)]
    return LogicalCorpus.assemble(text, slots, nodes, edges, features, metadata)


# ---------------------------------------------------------------------------
# the annotation store, one saved query at a time
# ---------------------------------------------------------------------------


def _json_array(items: list[str], pad: str) -> str:
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def saved_query_text(saved) -> str:
    """One saved query as an entry of the store file's query list, laid out
    as ``json.dumps(indent=2, sort_keys=True)`` lays it out: the leaves by
    the json module, the snapshot as three nested arrays per verse."""
    import json

    string = json.JSONEncoder(ensure_ascii=False).encode
    leaves = {
        "id": saved.id, "name": saved.name, "author": saved.author, "query": saved.query_text,
        "description": saved.description, "is_public": saved.is_public, "created": saved.created,
        "modified": saved.modified, "match_count": saved.match_count, "verse_count": saved.verse_count,
    }
    doc = {key: string(value) for key, value in leaves.items()}
    doc["snapshot"] = _json_array(
        [
            _json_array([str(verse), _json_array(list(map(str, nodes)), " " * 10)], " " * 8)
            for verse, nodes in saved.snapshot
        ],
        " " * 6,
    )
    inner = "\n      "
    return "{" + inner + ("," + inner).join(f"{string(k)}: {doc[k]}" for k in sorted(doc)) + "\n    }"


_STORE_FIELD_TYPES = {
    "id": int, "name": str, "author": str, "query": str, "description": str, "is_public": bool,
    "created": str, "modified": str, "match_count": int, "verse_count": int, "snapshot": list,
}


def import_store_bytes(data: bytes, corpus=None):
    """``annotations.import_bytes`` one saved query at a time: each entry
    is checked, then verified against the corpus, before the next is read;
    the verse index is then built through ``AnnotationStore._index_add``,
    in id order.  The checks and their
    order are the import's: an entry's fields, its snapshot's shape, its id
    and name, ``verse_count``, then each verse in turn for a repeat or an
    empty node list, then the corpus.  Verification works id by id through
    ``Corpus.otype`` and ``Corpus.monads``, on monad sets."""
    import json
    import warnings

    from fabric.annotations import FORMAT_VERSION, AnnotationStore, SavedQuery, StaleStoreWarning
    from fabric.errors import StoreError

    def require(condition: bool, message: str) -> None:
        if not condition:
            raise StoreError(message)

    try:
        doc = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # bad UTF-8 or JSON, or a number longer than ``int`` reads
        raise StoreError(f"store file is not valid JSON: {exc}") from None
    require(isinstance(doc, dict), "store file must hold a JSON object")
    version = doc.get("format_version")
    require(type(version) is int and version == FORMAT_VERSION, f"unsupported store format_version {version!r}")
    fingerprint = doc.get("corpus_fingerprint")
    require(isinstance(fingerprint, str), "corpus_fingerprint must be a string")
    queries = doc.get("queries")
    require(isinstance(queries, list), "queries must be a list")
    stale = corpus is not None and corpus.fingerprint != fingerprint
    if stale:
        warnings.warn(
            "store was written for a different corpus image; snapshots marked stale",
            StaleStoreWarning,
            stacklevel=2,
        )
    store = AnnotationStore(fingerprint)
    seen_names: set[tuple[str, str]] = set()
    for entry in queries:
        require(isinstance(entry, dict), "each query must be a JSON object")
        try:
            fields = {key: entry[key] for key in _STORE_FIELD_TYPES}
        except KeyError as exc:
            raise StoreError(f"malformed saved query entry: no field {exc}") from None
        for key, kind in _STORE_FIELD_TYPES.items():
            require(type(fields[key]) is kind, f"saved query field {key!r} must be {kind.__name__}")
        require(
            all(type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is list
                and {*map(type, p[1])} <= {int} for p in fields["snapshot"]),
            "saved query field 'snapshot' must hold [verse, [node, ...]] integer pairs",
        )
        fields["snapshot"] = tuple((verse, tuple(nodes)) for verse, nodes in fields["snapshot"])
        fields["query_text"] = fields.pop("query")
        saved = SavedQuery(**fields, corpus_fingerprint=fingerprint, stale=stale)
        require(saved.id not in store.queries, f"duplicate saved-query id {saved.id}")
        require(
            (saved.author, saved.name) not in seen_names,
            f"duplicate (author, name): {saved.author!r}, {saved.name!r}",
        )
        seen_names.add((saved.author, saved.name))
        require(saved.verse_count == len(saved.snapshot), "verse_count does not match snapshot")
        verses: set[int] = set()
        for verse, nodes in saved.snapshot:
            where = f"saved query {saved.id}: verse {verse}"
            require(verse not in verses, f"{where} is listed twice")
            require(len(nodes) > 0, f"{where} lists no matched node")
            for i, node in enumerate(nodes):
                require(node not in nodes[:i], f"{where} lists node {node} twice")
            verses.add(verse)
        if corpus is not None and not stale:
            _verify_saved_query(corpus, saved)
        store.queries[saved.id] = saved
    for qid in sorted(store.queries):
        store._index_add(store.queries[qid])
    store._next_id = max(store.queries, default=0) + 1
    return store


def _verify_saved_query(corpus, saved) -> None:
    """Every id in snapshot order must exist, each verse as a passage node;
    then every node must share a monad with its verse."""
    from fabric.errors import StoreError

    passage = corpus.metadata.passage_otype
    for verse, nodes in saved.snapshot:
        try:
            otype = corpus.otype(verse)
        except KeyError:
            raise StoreError(f"saved query {saved.id}: unknown verse node {verse}") from None
        if otype != passage:
            raise StoreError(f"saved query {saved.id}: node {verse} is not a {passage}")
        for node in nodes:
            try:
                corpus.monads(node)
            except KeyError:
                raise StoreError(f"saved query {saved.id}: unknown matched node {node}") from None
    for verse, nodes in saved.snapshot:
        for node in nodes:
            if not frozenset(corpus.monads(verse)) & frozenset(corpus.monads(node)):
                raise StoreError(f"saved query {saved.id}: node {node} does not intersect verse {verse}")


# ---------------------------------------------------------------------------
# the query lexer, one token at a time
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>[ \t\r\n]+)
    | (?P<comment>//[^\n]*)
    | (?P<dotdot>\.\.)
    | (?P<punct>[\[\](),])
    | (?P<op><=|>=|<>|[=<>~])
    | (?P<int>-?[0-9]+)
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<badstring>"(?:[^"\\\n]|\\.)*)
    """,
    re.VERBOSE,
)


def lex(text: str) -> list[tuple[str, str, int, int]]:
    """(type, text, line, column) per token, ending with an eof token;
    raises ``QuerySyntaxError`` as ``fabric.query.syntax._lex`` does."""
    from fabric.errors import QuerySyntaxError

    tokens = []
    pos = 0
    line = 1
    line_start = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {text[pos]!r}", line=line, column=pos - line_start + 1)
        kind = m.lastgroup
        value = m.group(0)
        column = pos - line_start + 1
        if kind == "punct":
            tokens.append((value, value, line, column))
        elif kind == "dotdot":
            tokens.append(("..", value, line, column))
        elif kind in ("op", "int", "string"):
            tokens.append((kind, value, line, column))
        elif kind == "ident":
            tokens.append(("keyword" if value in ("OR", "AND", "NOT", "IN") else "ident", value, line, column))
        elif kind == "badstring":
            raise QuerySyntaxError("unterminated string", line=line, column=column)
        newlines = value.count("\n")
        if newlines:
            line += newlines
            line_start = pos + value.rindex("\n") + 1
        pos = m.end()
    tokens.append(("eof", "", line, len(text) - line_start + 1))
    return tokens
