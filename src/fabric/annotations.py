"""Queries as annotations: saved queries with result snapshots.

A saved query records its text, authorship metadata, and a snapshot: the
passage (verse) nodes whose monads intersect an outermost matched node,
each with those matched nodes.  The snapshot anchors the query to passages,
so browsing a passage can surface every stored query that hits it (the
margin), and result lists paginate by passage.

The store is one versioned JSON file, deterministic byte-for-byte, bound to
a corpus image by its fingerprint.  Importing against a differently
fingerprinted corpus marks every record stale instead of rejecting it; the
snapshots stay readable but are no longer claimed to be reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from itertools import chain
from pathlib import Path

import numpy as np

from .compiler import _write_atomic
from .corpus import Corpus
from .errors import StoreError, warn
from .model import _ids, repeats
from .query.evaluator import ResultSet, evaluate

FORMAT_VERSION = 1

Snapshot = tuple[tuple[int, tuple[int, ...]], ...]


class StaleStoreWarning(UserWarning):
    """Store was written against a different compile of the corpus."""


@dataclass(frozen=True, slots=True)
class SavedQuery:
    id: int
    name: str
    author: str
    query_text: str
    description: str
    is_public: bool
    created: str  # ISO-8601 UTC
    modified: str
    corpus_fingerprint: str
    snapshot: Snapshot  # (verse node, matched outermost nodes), canonical order
    match_count: int
    verse_count: int
    stale: bool = field(default=False, compare=False)


@dataclass(frozen=True, slots=True)
class ResultPage:
    """One page of a saved query's verse list, plus navigation."""

    page: int  # 1-based; 0 when there are no pages
    total_pages: int
    entries: Snapshot
    first: int | None
    prev: int | None
    next: int | None
    last: int | None
    clamped: bool


def _now_utc() -> str:
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def build_snapshot(corpus: Corpus, result: ResultSet) -> Snapshot:
    """Denormalize a result into (verse, outermost matched nodes) pairs.
    An ``evaluate`` result keeps them from the passage join it ran for
    ``verses``; any other result's outermost nodes are joined here, and a
    node id the corpus lacks is a ``KeyError``, as ``Corpus.monads`` gives."""
    hits = result._hits
    if hits is None:
        nodes = [tree.node for match in result.matches for tree in match]
        rows = corpus._rows(nodes)
        for i in np.flatnonzero(rows < 0)[:1].tolist():
            raise KeyError(f"no node with id {nodes[i]}")
        hits = corpus._passages_meeting(rows)[1:]
    met, bounds = hits[0].tolist(), hits[1].tolist()
    return tuple(zip(result.verses, (tuple(met[a:b]) for a, b in zip(bounds, bounds[1:]))))


class AnnotationStore:
    """Mutable collection of saved queries for one compiled corpus."""

    def __init__(self, corpus_fingerprint: str):
        self.corpus_fingerprint = corpus_fingerprint
        self.queries: dict[int, SavedQuery] = {}
        # verse -> {saved query id: the verse's position in its snapshot}, ids ascending
        self._verse_index: dict[int, dict[int, int]] = {}
        self._next_id = 1

    @classmethod
    def for_corpus(cls, corpus: Corpus) -> "AnnotationStore":
        return cls(corpus.fingerprint)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, AnnotationStore):
            return NotImplemented
        return (
            self.corpus_fingerprint == other.corpus_fingerprint
            and self.queries == other.queries
        )

    def verse_index(self) -> dict[int, list[int]]:
        """Verse node -> ids of saved queries whose snapshot contains it."""
        return {v: list(qids) for v, qids in self._verse_index.items()}

    def rebuild_verse_index(self) -> dict[int, list[int]]:
        """Recompute the index from snapshots (invariant: equals stored)."""
        index: dict[int, list[int]] = {}
        for qid in sorted(self.queries):
            for verse, _nodes in self.queries[qid].snapshot:
                index.setdefault(verse, []).append(qid)
        return index

    def _index_add(self, saved: SavedQuery) -> None:
        """Index a saved query whose id is past every indexed one."""
        for pos, (verse, _nodes) in enumerate(saved.snapshot):
            self._verse_index.setdefault(verse, {})[saved.id] = pos

    def by_author_name(self, author: str, name: str) -> SavedQuery | None:
        for saved in self.queries.values():
            if saved.author == author and saved.name == name:
                return saved
        return None


def save_query(
    store: AnnotationStore,
    corpus: Corpus,
    query_text: str,
    *,
    name: str,
    author: str,
    description: str = "",
    is_public: bool = True,
    now: str | None = None,
) -> SavedQuery:
    """Evaluate a query and persist it with its snapshot.

    Rejects a duplicate (author, name) pair; evaluation errors propagate.
    """
    if store.corpus_fingerprint != corpus.fingerprint:
        raise StoreError("store is bound to a different corpus image")
    if store.by_author_name(author, name) is not None:
        raise StoreError(f"author {author!r} already has a query named {name!r}")
    result = evaluate(corpus, query_text)
    snapshot = build_snapshot(corpus, result)
    stamp = now if now is not None else _now_utc()
    saved = SavedQuery(
        id=store._next_id,
        name=name,
        author=author,
        query_text=query_text,
        description=description,
        is_public=is_public,
        created=stamp,
        modified=stamp,
        corpus_fingerprint=corpus.fingerprint,
        snapshot=snapshot,
        match_count=result.total,
        verse_count=len(snapshot),
    )
    store._next_id += 1
    store.queries[saved.id] = saved
    store._index_add(saved)
    return saved


def margin(
    store: AnnotationStore,
    corpus: Corpus,
    passage: int,
    *,
    author: str | None = None,
    public_only: bool = False,
) -> list[tuple[SavedQuery, tuple[int, ...]]]:
    """Saved queries whose snapshot touches this passage, with the matched
    nodes inside it; ordered by author, then name."""
    try:
        otype = corpus.otype(passage)
    except KeyError:
        raise StoreError(f"unknown passage node {passage}") from None
    if otype != corpus.metadata.passage_otype:
        raise StoreError(
            f"node {passage} is a {otype}, not a {corpus.metadata.passage_otype}"
        )
    entries: list[tuple[SavedQuery, tuple[int, ...]]] = []
    for qid, pos in store._verse_index.get(passage, {}).items():
        saved = store.queries[qid]
        if author is not None and saved.author != author:
            continue
        if public_only and not saved.is_public:
            continue
        entries.append((saved, saved.snapshot[pos][1]))
    entries.sort(key=lambda e: (e[0].author, e[0].name, e[0].id))
    return entries


def result_page(saved: SavedQuery, page: int, page_size: int) -> ResultPage:
    """One page of the snapshot verse list (1-based pages).

    Out-of-range pages clamp to the nearest valid page with ``clamped`` set.
    An empty snapshot has zero pages and disabled navigation.
    """
    if page_size < 1:
        raise ValueError("page_size must be at least 1")
    total = len(saved.snapshot)
    total_pages = (total + page_size - 1) // page_size
    if total_pages == 0:
        return ResultPage(
            page=0, total_pages=0, entries=(),
            first=None, prev=None, next=None, last=None, clamped=False,
        )
    actual = min(max(page, 1), total_pages)
    lo = (actual - 1) * page_size
    return ResultPage(
        page=actual,
        total_pages=total_pages,
        entries=saved.snapshot[lo : lo + page_size],
        first=1,
        prev=actual - 1 if actual > 1 else None,
        next=actual + 1 if actual < total_pages else None,
        last=total_pages,
        clamped=actual != page,
    )


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


_string = json.JSONEncoder(ensure_ascii=False).encode  # one leaf, by the C encoder


def _array(items: list[str], pad: str) -> str:
    """A JSON array of encoded items, laid out as ``json.dumps(indent=2)``
    lays it out at indentation ``pad``."""
    if not items:
        return "[]"
    inner = "\n" + pad + "  "
    return "[" + inner + ("," + inner).join(items) + "\n" + pad + "]"


def _object(doc: dict, pad: str) -> str:
    """A JSON object whose values are already encoded, keys sorted, laid
    out as ``json.dumps(indent=2, sort_keys=True)`` at indentation ``pad``."""
    inner = "\n" + pad + "  "
    return "{" + inner + ("," + inner).join(f"{_string(k)}: {doc[k]}" for k in sorted(doc)) + "\n" + pad + "}"


# The type of each saved-query field, matched exactly: a bool is no int.
_FIELD_TYPES = {
    "id": int, "name": str, "author": str, "query": str, "description": str, "is_public": bool,
    "created": str, "modified": str, "match_count": int, "verse_count": int, "snapshot": list,
}
_ATTRIBUTES = {"query": "query_text"}  # the fields whose SavedQuery attribute is named otherwise

# One snapshot pair as ``json.dumps(indent=2)`` lays it out inside a saved
# query: the verse, then its nodes joined by ``_NODES``.
_PAIR = "[\n          %s,\n          [\n            %s\n          ]\n        ]"
_EMPTY_PAIR = "[\n          %s,\n          []\n        ]"
_NODES = ",\n            "


def _saved_query_text(saved: SavedQuery) -> str:
    """One saved query, encoded as an entry of the store's query list."""
    doc = {key: _string(getattr(saved, _ATTRIBUTES.get(key, key))) for key in _FIELD_TYPES if key != "snapshot"}
    doc["snapshot"] = _array(
        [_PAIR % (verse, _NODES.join(map(str, nodes))) if nodes else _EMPTY_PAIR % verse
         for verse, nodes in saved.snapshot],
        " " * 6,
    )
    return _object(doc, " " * 4)


def export_bytes(store: AnnotationStore) -> bytes:
    """Serialize deterministically: same store, same bytes.  The bytes are
    those of ``json.dumps(doc, ensure_ascii=False, sort_keys=True,
    indent=2)`` plus a newline, written here because ``indent`` would turn
    the C encoder off."""
    doc = {
        "format_version": _string(FORMAT_VERSION),
        "corpus_fingerprint": _string(store.corpus_fingerprint),
        "queries": _array([_saved_query_text(store.queries[qid]) for qid in sorted(store.queries)], "  "),
    }
    return (_object(doc, "") + "\n").encode("utf-8")


def export_store(store: AnnotationStore, path: str | Path) -> None:
    """Write the store file atomically: old content or new, never torn."""
    _write_atomic(path, export_bytes(store))


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise StoreError(message)


_SHAPE = "saved query field 'snapshot' must hold [verse, [node, ...]] integer pairs"


def import_bytes(data: bytes, corpus: Corpus | None = None) -> AnnotationStore:
    """Parse a store file; verify snapshots when the corpus is supplied.

    With a matching corpus, snapshot invariants are enforced (every verse is
    a passage node, every matched node intersects it).  With a different
    fingerprint, records are marked stale and a warning is issued instead.
    Of several problems, the one of the first entry in file order is
    reported, as if each entry were read and verified before the next.
    """
    try:
        doc = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise StoreError(f"store file is not valid JSON: {exc}") from None
    _require(isinstance(doc, dict), "store file must hold a JSON object")
    version = doc.get("format_version")
    _require(type(version) is int and version == FORMAT_VERSION, f"unsupported store format_version {version!r}")
    fingerprint = doc.get("corpus_fingerprint")
    _require(isinstance(fingerprint, str), "corpus_fingerprint must be a string")
    queries = doc.get("queries")
    _require(isinstance(queries, list), "queries must be a list")

    stale = corpus is not None and corpus.fingerprint != fingerprint
    if stale:
        warn("store was written for a different corpus image; snapshots marked stale", StaleStoreWarning)

    store = AnnotationStore(fingerprint)
    seen_names: set[tuple[str, str]] = set()
    verses: list[int] = []  # the verse of every pair of the entries read, in file order
    counts: list[int] = []  # the number of nodes of each
    nodes: list[int] = []  # and the nodes, in file order
    pending = None
    try:
        for entry in queries:
            _require(isinstance(entry, dict), "each query must be a JSON object")
            try:
                fields = {key: entry[key] for key in _FIELD_TYPES}
            except KeyError as exc:
                raise StoreError(f"malformed saved query entry: no field {exc}") from None
            for key, kind in _FIELD_TYPES.items():
                _require(type(fields[key]) is kind, f"saved query field {key!r} must be {kind.__name__}")
            snap = fields["snapshot"]
            pairs = {*map(type, snap)} <= {list} and {*map(len, snap)} <= {2}
            entry_verses, entry_nodes = zip(*snap) if pairs and snap else ((), ())
            _require(pairs and {*map(type, entry_verses)} <= {int} and {*map(type, entry_nodes)} <= {list}, _SHAPE)
            entry_flat = [*chain.from_iterable(entry_nodes)]
            _require({*map(type, entry_flat)} <= {int}, _SHAPE)
            fields["snapshot"] = tuple(zip(entry_verses, map(tuple, entry_nodes)))
            fields["query_text"] = fields.pop("query")
            saved = SavedQuery(**fields, corpus_fingerprint=fingerprint, stale=stale)
            _require(saved.id not in store.queries, f"duplicate saved-query id {saved.id}")
            _require(
                (saved.author, saved.name) not in seen_names,
                f"duplicate (author, name): {saved.author!r}, {saved.name!r}",
            )
            seen_names.add((saved.author, saved.name))
            _require(saved.verse_count == len(saved.snapshot), "verse_count does not match snapshot")
            store.queries[saved.id] = saved
            verses += entry_verses
            counts += map(len, entry_nodes)
            nodes += entry_flat
    except StoreError as exc:
        pending = exc  # reported only if the entries before this one pass
    _check_snapshots(list(store.queries.values()), verses, counts, nodes, corpus if not stale else None)
    if pending is not None:
        raise pending
    for qid in sorted(store.queries):
        store._index_add(store.queries[qid])
    store._next_id = max(store.queries, default=0) + 1
    return store


def _check_snapshots(
    entries: list[SavedQuery], verses: list[int], counts: list[int], nodes: list[int], corpus: Corpus | None
) -> None:
    """Check the snapshots of ``entries`` all at once, and raise the fault
    of the first failing entry.  ``verses`` and ``counts`` give each pair's
    verse and number of nodes, in file order, and ``nodes`` all their nodes
    in a row.  An entry fails first on a verse that repeats or lists no
    node or one node twice; then, given a corpus, on the first id in
    snapshot order that is no node or a verse that is no passage; then on
    the first node that does not meet its verse."""
    entry_of = np.repeat(np.arange(len(entries)), [len(saved.snapshot) for saved in entries])
    sizes = np.fromiter(counts, dtype=np.intp, count=len(counts))
    owner = np.repeat(np.arange(len(verses)), sizes)  # the pair of each node
    ids = verses + nodes
    id_array = _ids(ids)  # an id past int64 is compared as a Python int
    nv = len(verses)
    faults = []  # (entry, rank within the entry, pair, verse 0 or node 1, message)

    def fault(pair: int, rank: int, sub: int, message: str) -> None:
        entry = int(entry_of[pair])
        faults.append((entry, rank, pair, sub, f"saved query {entries[entry].id}: {message}"))

    for i in np.flatnonzero(repeats(entry_of, id_array[:nv]))[:1].tolist():
        fault(i, 0, 0, f"verse {verses[i]} is listed twice")
    for i in np.flatnonzero(sizes == 0)[:1].tolist():
        fault(i, 0, 1, f"verse {verses[i]} lists no matched node")
    for k in np.flatnonzero(repeats(owner, id_array[nv:]))[:1].tolist():
        fault(owner[k], 0, 1, f"verse {verses[owner[k]]} lists node {ids[nv + k]} twice")
    if corpus is not None:
        rows = corpus._rows(id_array)
        v, n = rows[:nv], rows[nv:]
        passage = corpus.metadata.passage_otype
        for i in np.flatnonzero((v < 0) | (corpus._otype_code[v] != corpus._otype_rank.get(passage, -1)))[:1].tolist():
            fault(i, 1, 0, f"unknown verse node {verses[i]}" if v[i] < 0 else f"node {verses[i]} is not a {passage}")
        for k in np.flatnonzero(n < 0)[:1].tolist():
            fault(owner[k], 1, 1, f"unknown matched node {ids[nv + k]}")
        # Every (verse, node) pair at once.
        for k in np.flatnonzero(~corpus._meets(v[owner], n))[:1].tolist():
            fault(owner[k], 2, 1, f"node {ids[nv + k]} does not intersect verse {verses[owner[k]]}")
    if faults:
        raise StoreError(min(faults)[-1])


def import_store(path: str | Path, corpus: Corpus | None = None) -> AnnotationStore:
    return import_bytes(Path(path).read_bytes(), corpus)
