"""Seeded synthesis of corpora and queries for tests and benchmarks.

Everything here is deterministic given a ``random.Random``: the same seed
produces the same corpus, the same files, the same queries.  The writers
are exact inverses of the ingest parsers, so a generated corpus survives
``write_graf`` -> ``parse_graf`` and ``write_tabular`` -> ``parse_tabular``
unchanged; tests lean on that for round-trip checks.  Both writers format
their files straight from the corpus's columns (``LogicalCorpus.columns``),
one line per element or row, and build no object per row.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Iterable, Iterator
from xml.sax.saxutils import escape

import numpy as np

from .corpus import Corpus
from .ingest import escape_cell
from .model import (
    EDGE_KIND,
    NODE_KIND,
    Coded,
    Columns,
    CorpusMetadata,
    Edge,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
    heads,
)
from .query.oracle import GUARD_LIMIT
from .query.syntax import quote_string

_LEMMAS = [
    "the", "quick", "fox", "jump", "lazy", "dog", "run", "river", "stone",
    "old", "king", "speak", "word", "light", "dark", "see", "go", "house",
    "tree", "bird",
]
_SUFFIXES = ["", "", "", "s", "ed", "ing"]
_PHRASE_TYPES = ["NP", "VP", "PP", "AdvP"]
_ROLES = ["det", "mod", "obj", "subj"]
_TRICKY_VALUES = [
    "tab\there",
    "line\nbreak",
    "back\\slash",
    'quo"te',
    "uniאcode",
    "  padded  ",
    "carriage\rreturn",
]


# ---------------------------------------------------------------------------
# the reference corpus
# ---------------------------------------------------------------------------


def toy4() -> LogicalCorpus:
    """The four-word reference corpus used across the documentation."""
    text = "the quick fox jumps"
    slots = [Region(0, 3), Region(4, 9), Region(10, 13), Region(14, 19)]
    words = ["the", "quick", "fox", "jumps"]
    lemmas = ["the", "quick", "fox", "jump"]
    nodes = [
        Node(id=i + 1, otype="word", monads=MonadSet.from_monads([i + 1]))
        for i in range(4)
    ]
    nodes += [
        Node(id=101, otype="phrase", monads=MonadSet.parse("1-3")),
        Node(id=102, otype="phrase", monads=MonadSet.parse("4")),
        Node(id=201, otype="clause", monads=MonadSet.parse("1-4")),
        Node(id=301, otype="verse", monads=MonadSet.parse("1-4")),
    ]
    features = []
    for i in range(4):
        features.append(FeatureAssignment(NODE_KIND, i + 1, "text", words[i]))
        features.append(FeatureAssignment(NODE_KIND, i + 1, "lex", lemmas[i]))
    features.append(FeatureAssignment(NODE_KIND, 101, "typ", "NP"))
    features.append(FeatureAssignment(NODE_KIND, 102, "typ", "VP"))
    metadata = CorpusMetadata(
        otypes=("book", "chapter", "verse", "sentence", "clause", "phrase", "word"),
    )
    return LogicalCorpus.assemble(
        text=text, slots=slots, nodes=nodes, features=features, metadata=metadata
    )


# ---------------------------------------------------------------------------
# random corpora
# ---------------------------------------------------------------------------


def _partition(rng: random.Random, width: int, lo: int, hi: int) -> list[tuple[int, int]]:
    """Split 1..width into contiguous runs of length lo..hi."""
    spans = []
    start = 1
    while start <= width:
        size = min(rng.randint(lo, hi), width - start + 1)
        spans.append((start, start + size - 1))
        start += size
    return spans


def random_corpus(
    rng: random.Random,
    *,
    max_words: int = 24,
    tricky_values: bool = True,
) -> LogicalCorpus:
    """A small, structurally varied corpus: partitioned verses, sentences
    that may cross verse boundaries, occasionally discontiguous phrases,
    occasional equal-monad duplicates, and feature gaps."""
    width = rng.randint(3, max(3, max_words))

    # primary text and slot regions
    pieces: list[str] = []
    slots: list[Region] = []
    pos = 0
    lemma_of: list[str] = []
    for i in range(width):
        if i:
            sep = rng.choices([" ", "  ", ", ", "\n"], weights=[84, 6, 6, 4])[0]
            pieces.append(sep)
            pos += len(sep)
        lemma = rng.choice(_LEMMAS)
        word = lemma + rng.choice(_SUFFIXES)
        pieces.append(word)
        slots.append(Region(pos, pos + len(word)))
        pos += len(word)
        lemma_of.append(lemma)
    if rng.random() < 0.3:
        pieces.append(".")
    text = "".join(pieces)

    # structural records: (otype, monads, {key: value})
    # 6 feature keys in total: text, lex, freq on words; typ on phrases;
    # ref on verses; role on dependency edges
    records: list[tuple[str, MonadSet, dict[str, str]]] = []
    for m in range(1, width + 1):
        lex = lemma_of[m - 1]
        if tricky_values and rng.random() < 0.08:
            lex = rng.choice(_TRICKY_VALUES)
        feats = {
            "text": text[slots[m - 1].start : slots[m - 1].end],
            "lex": lex,
        }
        if rng.random() < 0.7:
            feats["freq"] = str(rng.randint(-5, 400))
        records.append(("word", MonadSet(((m, m),)), feats))

    verses = _partition(rng, width, 2, 6)
    for i, (a, b) in enumerate(verses, start=1):
        records.append(("verse", MonadSet(((a, b),)), {"ref": f"B {1 + i // 10}:{i}"}))

    if rng.random() < 0.7:
        for a, b in _partition(rng, width, 3, 8):
            records.append(("sentence", MonadSet(((a, b),)), {}))

    clause_spans = _partition(rng, width, 2, 6)
    for a, b in clause_spans:
        records.append(("clause", MonadSet(((a, b),)), {}))

    phrase_records: list[tuple[str, MonadSet, dict[str, str]]] = []
    for a, b in clause_spans:
        start = a
        while start <= b:
            size = min(rng.randint(1, 3), b - start + 1)
            end = start + size - 1
            monads = MonadSet(((start, end),))
            # occasionally skip the middle of a long span: discontiguous set
            if size == 3 and rng.random() < 0.35:
                monads = MonadSet(((start, start), (end, end)))
            phrase_records.append(("phrase", monads, {"typ": rng.choice(_PHRASE_TYPES)}))
            start = end + 1
    if phrase_records and rng.random() < 0.4:
        # equal-monad duplicate, to exercise the id tie-break in ordering
        otype, monads, _ = rng.choice(phrase_records)
        phrase_records.append((otype, monads, {"typ": rng.choice(_PHRASE_TYPES)}))
    records.extend(phrase_records)

    ids = rng.sample(range(1, 7 * len(records) + 1), len(records))
    nodes = []
    features = []
    id_by_index: dict[int, int] = {}
    for idx, ((otype, monads, feats), nid) in enumerate(zip(records, ids)):
        nodes.append(Node(id=nid, otype=otype, monads=monads))
        id_by_index[idx] = nid
        for key in sorted(feats):
            features.append(FeatureAssignment(NODE_KIND, nid, key, feats[key]))

    # dependency edges between words of the same clause
    edges = []
    word_id = {m: id_by_index[m - 1] for m in range(1, width + 1)}
    edge_pool = iter(rng.sample(range(1, 10 * width + 20), width + 10))
    for a, b in clause_spans:
        for m in range(a, b + 1):
            if b > a and rng.random() < 0.45:
                head = rng.choice([h for h in range(a, b + 1) if h != m])
                eid = next(edge_pool)
                edges.append(Edge(id=eid, src=word_id[m], dst=word_id[head], label="dep"))
                if rng.random() < 0.6:
                    features.append(
                        FeatureAssignment(EDGE_KIND, eid, "role", rng.choice(_ROLES))
                    )

    otypes = ["verse", "sentence", "clause", "phrase", "word"]
    metadata = CorpusMetadata(
        otypes=tuple(otypes),
        slot_otype="word",
        int_features=frozenset({"freq"}),
        passage_otype="verse",
        provenance=("synthetic", f"width={width}"),
    )
    return LogicalCorpus.assemble(
        text=text, slots=slots, nodes=nodes, edges=edges, features=features, metadata=metadata
    )


# ---------------------------------------------------------------------------
# writers (inverses of the ingest parsers)
# ---------------------------------------------------------------------------


def _metadata_value(field: str, value: str, *, name: bool = True) -> str:
    """A value written unescaped on a ``field=`` line.  The reader splits
    lines at LF and strips them, and splits lists of otype and feature
    names at commas and whitespace, so a value that would not read back as
    written is a ``ValueError`` naming the field."""
    if "\r" in value or "\n" in value:
        why = "holds a CR or LF"
    elif value != value.strip():
        why = "starts or ends with whitespace"
    elif name and not value:
        why = "is empty"
    elif name and re.search(r"[,\s]", value):
        why = "holds a comma or whitespace"
    else:
        return value
    raise ValueError(f"metadata {field} {value!r} {why}, so it would not read back as written")


def _metadata_lines(metadata: CorpusMetadata) -> list[str]:
    """The key=value lines of the metadata; raises ``ValueError`` for a
    value they cannot hold."""
    lines = []
    if metadata.otypes:
        lines.append("otypes=" + ",".join(_metadata_value("otypes", t) for t in metadata.otypes))
    lines.append("slot_otype=" + _metadata_value("slot_otype", metadata.slot_otype))
    lines.append("passage_otype=" + _metadata_value("passage_otype", metadata.passage_otype))
    if metadata.int_features:
        names = sorted(metadata.int_features)
        lines.append("intfeatures=" + ",".join(_metadata_value("intfeatures", k) for k in names))
    for entry in metadata.provenance:
        lines.append("provenance=" + _metadata_value("provenance", entry, name=False))
    return lines


def _graf_header(base: Path, stem: str, meta: list[str]) -> Path:
    """Write the header of ``stem``'s text and XML files and metadata lines ``meta``."""
    _write_rows(base / f"{stem}.graf", f"text={stem}.txt\nannotations={stem}.xml", "{}", meta)
    return base / f"{stem}.graf"


_ATTR_ENTITIES = {'"': "&quot;", "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"}


def _quoted(value: str) -> str:
    """``quoteattr``'s escaping, always in double quotes: stage 2 of ``parse_graf`` reads no other."""
    return f'"{escape(value, _ATTR_ENTITIES)}"'


def _joined(items: list[str], offsets: list[int], sep: str) -> Iterator[str]:
    """``sep.join(items[offsets[i]:offsets[i + 1]])`` for each i."""
    return map(sep.join, map(items.__getitem__, map(slice, offsets[:-1], offsets[1:])))


def _monad_texts(c: Columns) -> Iterator[str]:
    """Each node's monad set as ``MonadSet`` writes it, e.g. ``1-3,5``."""
    runs = [f"{a}-{b}" if a != b else f"{a}" for a, b in zip(c.first.tolist(), c.last.tolist())]
    return _joined(runs, c.runs.tolist(), ",")


def write_graf(corpus: LogicalCorpus, directory: str | Path, *, stem: str = "corpus") -> Path:
    """Write the graph XML form, one element per line (an ``<a>`` with its
    ``<f>`` children on one), straight from ``corpus.columns``; returns the
    header path for ``parse_graf``.  Metadata the header cannot hold is a
    ``ValueError``, raised before any file is written."""
    meta = _metadata_lines(corpus.metadata)
    c = corpus.columns
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    (base / f"{stem}.txt").write_bytes(corpus.text.encode("utf-8"))

    regions = map('<region xml:id="r{}" anchors="{} {}"/>'.format,
                  range(1, len(c.slot_start) + 1), c.slot_start.tolist(), c.slot_end.tolist())
    # A slot-type node links the region of its one monad; any other node names its otype and monads.
    slot, otypes = c.otype.code(corpus.metadata.slot_otype), list(map(_quoted, c.otype.strings))
    nodes = [
        f'<node xml:id="n{i}"><link targets="r{m}"/></node>' if t == slot
        else f'<node xml:id="n{i}" otype={otypes[t]} monads="{m}"/>'
        for i, t, m in zip(c.node_id.tolist(), c.otype.codes.tolist(), _monad_texts(c))
    ]
    labels = list(map(_quoted, c.label.strings))
    edges = map('<edge xml:id="e{}" from="n{}" to="n{}" label={}/>'.format,
                c.edge_id.tolist(), c.src.tolist(), c.dst.tolist(), map(labels.__getitem__, c.label.codes.tolist()))
    # Features come sorted by (kind, target, key): one <a> per (kind, target) run.
    names, values = list(map(_quoted, c.key.strings)), list(map(_quoted, c.value.strings))
    fs = list(map("<f name={} value={}/>".format,
                  map(names.__getitem__, c.key.codes.tolist()), map(values.__getitem__, c.value.codes.tolist())))
    starts = np.flatnonzero(heads(c.kind.codes, c.target))
    prefix = ["n" if kind == NODE_KIND else "e" for kind in c.kind.strings]
    annotations = map('<a ref="{}{}">{}</a>'.format, map(prefix.__getitem__, c.kind.codes[starts].tolist()),
                      c.target[starts].tolist(), _joined(fs, [*starts.tolist(), len(fs)], ""))
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<graph>", *regions, *nodes, *edges, *annotations, "</graph>"]
    (base / f"{stem}.xml").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return _graf_header(base, stem, meta)


_BREAKS_RE = re.compile("[\t\r\n]")


def _check_cells(corpus: LogicalCorpus, table: str, **columns: Coded) -> None:
    """The tabular form keeps otypes, kinds, keys and labels unescaped: a
    ``ValueError`` names the first row of ``table`` with a tab, CR or LF in
    one of ``columns`` (the row's fields of those names, checked in order).
    Each distinct string is checked once, and a row object is built only
    for the error."""
    bad = [np.array([bool(_BREAKS_RE.search(s)) for s in col.strings], bool)[col.codes] for col in columns.values()]
    for i in np.flatnonzero(np.logical_or.reduce(bad))[:1].tolist():
        row = getattr(corpus, table)[i]
        what = next(field for field, b in zip(columns, bad) if b[i])
        value = getattr(row, what)
        raise ValueError(f"{row}: {what} {value!r} holds a tab, CR or LF, which a tabular cell cannot hold")


def _write_rows(path: Path, header: str, row: str, *columns: Iterable) -> None:
    """A TSV file: the header, then ``row`` formatted with one item of each column per line."""
    path.write_text("\n".join([header, *map(row.format, *columns)]) + "\n", encoding="utf-8")


def write_tabular(corpus: LogicalCorpus, directory: str | Path) -> Path:
    """Write the tabular form; returns the directory for ``parse_tabular``.
    Feature values are escaped; an otype, kind, key or label holding a tab,
    CR or LF is a ``ValueError`` naming its row, and metadata ``meta.txt``
    cannot hold one naming its field, raised before any file is written.
    Each table is written straight from ``corpus.columns``."""
    meta = _metadata_lines(corpus.metadata)
    c = corpus.columns
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    (base / "text.txt").write_bytes(corpus.text.encode("utf-8"))
    (base / "meta.txt").write_text("\n".join(meta) + "\n", encoding="utf-8")
    _write_rows(base / "slots.tsv", "slot_index\tstart\tend", "{}\t{}\t{}",
                range(1, len(c.slot_start) + 1), c.slot_start.tolist(), c.slot_end.tolist())

    _check_cells(corpus, "nodes", otype=c.otype)
    _write_rows(base / "nodes.tsv", "node_id\totype\tmonadset", "n{}\t{}\t{}",
                c.node_id.tolist(), c.otype.decoded(), _monad_texts(c))

    _check_cells(corpus, "features", kind=c.kind, key=c.key)
    values = list(map(escape_cell, c.value.strings))
    _write_rows(base / "features.tsv", "kind\ttarget_id\tkey\tvalue", "{}\t{}\t{}\t{}",
                c.kind.decoded(), c.target.tolist(), c.key.decoded(), map(values.__getitem__, c.value.codes.tolist()))

    if len(c.edge_id):
        _check_cells(corpus, "edges", label=c.label)
        _write_rows(base / "edges.tsv", "edge_id\tfrom\tto\tlabel", "{}\t{}\t{}\t{}",
                    c.edge_id.tolist(), c.src.tolist(), c.dst.tolist(), c.label.decoded())
    return base


# ---------------------------------------------------------------------------
# random queries
# ---------------------------------------------------------------------------

class _QueryGen:
    """Corpus-aware random query synthesis that stays within the oracle guard."""

    TRIES = 60  # block strings drawn before ``generate`` falls back to one block

    def __init__(self, rng: random.Random, corpus: Corpus) -> None:
        self.rng = rng
        self.corpus = corpus
        self.counts = {t: sum(1 for _ in corpus.nodes(t)) for t in corpus.otypes()}
        self.int_keys = corpus.metadata.int_features
        self.keys_by_otype: dict[str, list[str]] = {t: [] for t in corpus.otypes()}
        self.values: dict[str, list[str]] = {}
        for key in corpus.feature_keys():
            store = corpus.store(key)
            self.values[key] = list(store.values)
            for code in np.unique(corpus._group_codes(key, NODE_KIND)).tolist():
                self.keys_by_otype[corpus.otypes()[code]].append(key)

    def _pick_otype(self) -> str:
        rng = self.rng
        present = [t for t, c in self.counts.items() if c]
        if rng.random() < 0.05:
            absent = [t for t, c in self.counts.items() if not c]
            if absent:
                return rng.choice(absent)
        weights = [max(self.counts[t], 1) for t in present]
        return rng.choices(present, weights=weights)[0]

    def _operand_value(self, key: str) -> str:
        rng = self.rng
        pool = self.values.get(key, [])
        if pool and rng.random() < 0.75:
            return rng.choice(pool)
        if key in self.int_keys:
            return str(rng.randint(-10, 500))
        return rng.choice(["zzz", "missing", "NPX", "b\\d"])

    def _int_operand(self, key: str) -> str:
        pool = self.values.get(key, [])
        if pool and self.rng.random() < 0.7:
            return self.rng.choice(pool)
        return str(self.rng.randint(-10, 500))

    def _atom(self, otype: str) -> str:
        rng = self.rng
        keys = self.keys_by_otype.get(otype) or list(self.values)
        if not keys:
            keys = ["text"]
        key = rng.choice(keys)
        if rng.random() < 0.15:
            other = [k for k in self.values if k not in keys]
            if other:
                key = rng.choice(other)  # absent on this otype: atom is false
        if key in self.int_keys:
            op = rng.choice(["=", "<>", "<", "<=", ">", ">=", "IN"])
            if op == "IN":
                vals = [self._int_operand(key) for _ in range(rng.randint(1, 3))]
                return f"{key} IN ({', '.join(quote_string(v) for v in vals)})"
            value = self._int_operand(key)
            if op in ("=", "<>") and rng.random() < 0.5:
                return f"{key} {op} {quote_string(value)}"
            return f"{key} {op} {value}"
        op = rng.choice(["=", "=", "<>", "~", "IN"])
        if op == "IN":
            vals = [self._operand_value(key) for _ in range(rng.randint(1, 3))]
            return f"{key} IN ({', '.join(quote_string(v) for v in vals)})"
        if op == "~":
            sample = self._operand_value(key)
            frag = sample[self.rng.randint(0, max(0, len(sample) - 2)) :][:3]
            pattern = re.escape(frag) if frag else "."
            if rng.random() < 0.3:
                pattern = "^" + pattern
            return f"{key} ~ {quote_string(pattern)}"
        return f"{key} {op} {quote_string(self._operand_value(key))}"

    def _constraints(self, otype: str) -> str:
        rng = self.rng
        n = rng.choices([0, 1, 2], weights=[25, 55, 20])[0]
        if n == 0:
            return ""
        parts = []
        for _ in range(n):
            atom = self._atom(otype)
            if rng.random() < 0.18:
                atom = f"NOT {atom}"
            parts.append(atom)
        if n == 1:
            return parts[0]
        joiner = rng.choice([" AND ", " OR "])
        body = joiner.join(parts)
        if rng.random() < 0.25:
            extra = self._atom(otype)
            body = f"({body}) {rng.choice(['AND', 'OR'])} {extra}"
        return body

    def _gap(self) -> str:
        roll = self.rng.random()
        if roll < 0.4:
            return " "
        if roll < 0.8:
            return " .. "
        return f" .. <= {self.rng.randint(0, 6)} "

    def _blockstring(self, budget: list[int], depth: int) -> tuple[str, list[str]] | None:
        rng = self.rng
        n = rng.choices([1, 2, 3], weights=[50, 35, 15])[0]
        texts = []
        otypes = []
        for i in range(n):
            if budget[0] <= 0:
                break
            budget[0] -= 1
            otype = self._pick_otype()
            otypes.append(otype)
            inner = ""
            if depth < 2 and budget[0] > 0 and rng.random() < 0.4:
                child = self._blockstring(budget, depth + 1)
                if child is not None:
                    inner_text, inner_otypes = child
                    inner = " " + inner_text
                    otypes.extend(inner_otypes)
            constraint = self._constraints(otype)
            sep = " " if constraint else ""
            texts.append(f"[{otype}{sep}{constraint}{inner}]")
        if not texts:
            return None
        out = texts[0]
        for t in texts[1:]:
            out += self._gap() + t
        return out, otypes

    def generate(self) -> str:
        for _ in range(self.TRIES):
            budget = [4]
            made = self._blockstring(budget, 0)
            if made is None:
                continue
            text, otypes = made
            product = 1
            for t in otypes:
                product *= self.counts.get(t, 0)
                if product > GUARD_LIMIT:
                    break
            if product <= GUARD_LIMIT:
                return text
        # fall back to something that always fits
        return "[word]" if self.counts.get("word", 0) <= GUARD_LIMIT else "[verse]"


def random_query(rng: random.Random, corpus: Corpus) -> str:
    """A syntactically valid random query whose unfiltered candidate product
    stays at or below the brute-force guard."""
    return _QueryGen(rng, corpus).generate()


# ---------------------------------------------------------------------------
# the large benchmark corpus (streamed)
# ---------------------------------------------------------------------------


def write_big_graf(
    directory: str | Path, *, words: int = 500_000, seed: int = 0
) -> Path:
    """Stream a large corpus to disk without materializing it in memory.

    Produces >= ``words`` slots and, counting the structural layers
    (chunk every 2 words, phrases of 1..3, clauses of 4..7, sentences of
    8..14, verses of 16..28), more than two nodes per word overall.
    """
    rng = random.Random(seed)
    base = Path(directory)
    base.mkdir(parents=True, exist_ok=True)
    text_path = base / "big.txt"
    xml_path = base / "big.xml"

    layers = [
        ("chunk", lambda: 2),
        ("phrase", lambda: rng.randint(1, 3)),
        ("clause", lambda: rng.randint(4, 7)),
        ("sentence", lambda: rng.randint(8, 14)),
        ("verse", lambda: rng.randint(16, 28)),
    ]
    # [start, target_size] per layer
    state = [[1, sizer()] for _, sizer in layers]

    next_id = words + 1
    with text_path.open("w", encoding="utf-8", newline="") as tf, xml_path.open(
        "w", encoding="utf-8", newline=""
    ) as xf:
        xf.write('<?xml version="1.0" encoding="utf-8"?>\n<graph>\n')
        pos = 0
        for m in range(1, words + 1):
            lemma = _LEMMAS[rng.randrange(len(_LEMMAS))]
            word = lemma + _SUFFIXES[rng.randrange(len(_SUFFIXES))]
            if m > 1:
                tf.write(" ")
                pos += 1
            start = pos
            tf.write(word)
            pos += len(word)
            xf.write(f'<region xml:id="r{m}" anchors="{start} {pos}"/>\n')
            xf.write(f'<node xml:id="n{m}"><link targets="r{m}"/></node>\n')
            xf.write(
                f'<a ref="n{m}"><f name="text" value={_quoted(word)}/>'
                f'<f name="lex" value={_quoted(lemma)}/></a>\n'
            )
            for li, (otype, sizer) in enumerate(layers):
                st = state[li]
                filled = m - st[0] + 1
                if filled >= st[1] or m == words:
                    nid = next_id
                    next_id += 1
                    monads = f"{st[0]}-{m}" if m > st[0] else f"{st[0]}"
                    xf.write(f'<node xml:id="n{nid}" otype="{otype}" monads="{monads}"/>\n')
                    if otype == "phrase":
                        typ = _PHRASE_TYPES[rng.randrange(len(_PHRASE_TYPES))]
                        xf.write(f'<a ref="n{nid}"><f name="typ" value="{typ}"/></a>\n')
                    elif otype == "verse":
                        xf.write(f'<a ref="n{nid}"><f name="ref" value="B {nid}"/></a>\n')
                    st[0] = m + 1
                    st[1] = sizer()
        xf.write("</graph>\n")

    otypes = (*reversed([otype for otype, _ in layers]), "word")
    return _graf_header(base, "big", _metadata_lines(CorpusMetadata(otypes=otypes)))
