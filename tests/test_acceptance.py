"""Release gate for the engine.

Eight end-to-end checks, one test each, covering round-trip identity,
oracle equivalence, load-speed scaling, ordering laws, the reference
golden suite, snapshot soundness, pagination arithmetic, and an optional
check against a full-scale external corpus.

Every test prints exactly one ``ACCEPTANCE n: PASS/FAIL - detail`` line
on the real terminal (bypassing pytest capture) so a full run reads as a
checklist.  The printed line never substitutes for the assertions.
"""

from __future__ import annotations

import functools
import gc
import json
import math
import os
import time
from pathlib import Path
from random import Random

import pytest

import reference
from fabric.annotations import (
    AnnotationStore,
    SavedQuery,
    build_snapshot,
    export_bytes,
    import_bytes,
    margin,
    result_page,
    save_query,
)
from fabric.compiler import compile_corpus, compile_to_bytes
from fabric.corpus import Corpus
from fabric.errors import QueryError, QuerySyntaxError
from fabric.featuredoc import feature_frequency, render_docs
from fabric.image import read_directory
from fabric.ingest import parse_graf, parse_tabular
from fabric.model import MonadSet, canonical_compare, otype_rank_table
from fabric.query.evaluator import evaluate
from fabric.query.oracle import brute_force_evaluate
from fabric.query.plan import explain
from fabric.query.syntax import Atom, parse
from fabric.synth import (
    random_corpus,
    random_query,
    toy4,
    write_big_graf,
    write_graf,
    write_tabular,
)

STAMP = "2024-01-01T00:00:00Z"


class _Gate:
    """Collects problems for one criterion; prints the verdict line."""

    def __init__(self, capsys, number: int) -> None:
        self.capsys = capsys
        self.number = number
        self.problems: list[str] = []

    def check(self, condition: bool, message: str) -> bool:
        if not condition:
            self.problems.append(message)
        return condition

    def finish(self, detail: str) -> None:
        verdict = "PASS" if not self.problems else "FAIL"
        with self.capsys.disabled():
            print(f"ACCEPTANCE {self.number}: {verdict} - {detail}", flush=True)
        assert not self.problems, (
            f"criterion {self.number}: "
            + "; ".join(self.problems[:10])
            + (f" (+{len(self.problems) - 10} more)" if len(self.problems) > 10 else "")
        )


def _bounded_corpus(seed: int, *, max_words: int) -> tuple[object, int]:
    """A random corpus within the criterion-1 bounds, rerolling rare
    oversize draws (returns the corpus and how many rerolls it took)."""
    rerolls = 0
    while True:
        logical = random_corpus(Random(seed + rerolls * 100_000), max_words=max_words)
        if (
            len(logical.slots) <= 50
            and len(logical.nodes) <= 200
            and len(logical.present_otypes()) <= 5
            and len({f.key for f in logical.features}) <= 6
        ):
            return logical, rerolls
        rerolls += 1


def test_criterion_1_round_trip_identity(tmp_path, capsys):
    gate = _Gate(capsys, 1)
    started = time.perf_counter()
    rerolls = 0
    for seed in range(1, 101):
        logical, extra = _bounded_corpus(seed, max_words=50)
        rerolls += extra
        work = tmp_path / f"c{seed}"
        if seed % 2:
            ingested = parse_graf(write_graf(logical, work))
        else:
            ingested = parse_tabular(write_tabular(logical, work))
        if not gate.check(ingested == logical, f"seed {seed}: writer/parser mismatch"):
            continue
        data, _ = compile_to_bytes(ingested)
        loaded = Corpus.from_bytes(data).as_logical_corpus()
        gate.check(loaded == ingested, f"seed {seed}: load(compile(x)) != x")
    elapsed = time.perf_counter() - started
    gate.check(elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s")
    gate.finish(
        f"100/100 corpora round-tripped exactly through both source forms "
        f"in {elapsed:.1f}s"
        + (f" ({rerolls} oversize draws rerolled)" if rerolls else "")
    )


def test_criterion_2_oracle_equivalence(capsys):
    gate = _Gate(capsys, 2)
    started = time.perf_counter()
    checked = error_pairs = 0
    seed = 0
    while checked + error_pairs < 500:
        seed += 1
        if seed > 2000:
            gate.problems.append("could not draw 500 pairs in 2000 attempts")
            break
        rng = Random(20_000 + seed)
        logical = random_corpus(rng, max_words=40)
        corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
        qtext = random_query(rng, corpus)
        try:
            got = evaluate(corpus, qtext)
        except QueryError:
            try:
                brute_force_evaluate(corpus, qtext)
            except QueryError:
                error_pairs += 1
                continue
            gate.problems.append(f"seed {seed}: evaluator rejected, oracle accepted: {qtext!r}")
            continue
        except Exception as exc:  # keep the verdict line even on a crash
            gate.problems.append(f"seed {seed}: evaluate crashed on {qtext!r}: {exc!r}")
            continue
        try:
            want = brute_force_evaluate(corpus, qtext)
        except Exception as exc:
            gate.problems.append(f"seed {seed}: oracle crashed on {qtext!r}: {exc!r}")
            continue
        checked += 1
        ok = (
            reference.result_rows(got) == reference.result_rows(want)
            and got.verses == want.verses
            and got.total == want.total
            and not got.truncated
        )
        gate.check(ok, f"seed {seed}: divergence on {qtext!r}")
    elapsed = time.perf_counter() - started
    gate.check(elapsed < 300.0, f"suite took {elapsed:.1f}s, budget is 300s")
    gate.finish(
        f"{checked} result-bearing pairs equivalent (rows, order, verses, totals), "
        f"{error_pairs} error-parity pairs, in {elapsed:.1f}s"
    )


@pytest.mark.slow
def test_criterion_3_load_speed_ratio(tmp_path_factory, capsys):
    gate = _Gate(capsys, 3)
    work = tmp_path_factory.mktemp("big")
    header = write_big_graf(work, words=500_000, seed=0)

    started = time.perf_counter()
    logical = parse_graf(header)
    ingest_seconds = time.perf_counter() - started

    stats = logical.stats()
    gate.check(stats.words >= 500_000, f"only {stats.words} slots generated")
    gate.check(stats.nodes >= 1_000_000, f"only {stats.nodes} nodes generated")

    image_path = work / "big.fab"
    compile_corpus(logical, image_path)
    words, nodes = stats.words, stats.nodes
    del logical, stats
    gc.collect()

    started = time.perf_counter()
    corpus = Corpus.from_file(image_path)
    load_seconds = time.perf_counter() - started

    gate.check(corpus.stats().words == words, "image word count drifted")
    gate.check(corpus.stats().nodes == nodes, "image node count drifted")
    ratio = load_seconds / ingest_seconds
    gate.check(
        ratio <= 0.1,
        f"load/ingest ratio {ratio:.3f} exceeds 0.100 "
        f"(ingest {ingest_seconds:.1f}s, load {load_seconds:.2f}s)",
    )
    advisory = "met" if load_seconds < 5.0 else "missed (advisory only)"
    gate.finish(
        f"{words:,} slots, {nodes:,} nodes: ingest {ingest_seconds:.1f}s, "
        f"load {load_seconds:.2f}s, ratio {ratio:.3f} (required <= 0.100); "
        f"5s advisory {advisory}; image {image_path.stat().st_size / 1e6:.1f} MB"
    )


def test_criterion_4_canonical_order_laws(capsys):
    gate = _Gate(capsys, 4)
    rng = Random(40_000)
    prepared = []
    for i in range(20):
        logical = random_corpus(Random(41_000 + i), max_words=30)
        rank = otype_rank_table(logical.metadata, logical.present_otypes())
        prepared.append((list(logical.nodes), rank))

    embed_premises = 0
    for i in range(5_000):
        nodes, rank = prepared[i % len(prepared)]
        a, b = rng.choice(nodes), rng.choice(nodes)
        gate.check(canonical_compare(a, a, rank) == 0, f"pair {i}: a < a for {a.id}")
        cab = canonical_compare(a, b, rank)
        cba = canonical_compare(b, a, rank)
        if a.id == b.id:
            gate.check(cab == 0 and cba == 0, f"pair {i}: same node compares nonzero")
        else:
            gate.check(
                (cab < 0) != (cba < 0) and cab != 0,
                f"pair {i}: antisymmetry broken for {a.id},{b.id}",
            )
        for outer, inner, sign in ((a, b, cab), (b, a, cba)):
            mo, mi = set(outer.monads), set(inner.monads)
            if mi < mo and (min(mi) != min(mo) or max(mi) != max(mo)):
                embed_premises += 1
                gate.check(
                    sign < 0,
                    f"pair {i}: embedder {outer.id} does not precede {inner.id}",
                )

    transitive_premises = 0
    for i in range(5_000):
        nodes, rank = prepared[(i * 7) % len(prepared)]
        trio = [rng.choice(nodes) for _ in range(3)]
        order = functools.cmp_to_key(lambda x, y: canonical_compare(x, y, rank))
        s0, s1, s2 = sorted(trio, key=order)
        if canonical_compare(s0, s1, rank) < 0 and canonical_compare(s1, s2, rank) < 0:
            transitive_premises += 1
            gate.check(
                canonical_compare(s0, s2, rank) < 0,
                f"triple {i}: transitivity broken for {s0.id},{s1.id},{s2.id}",
            )

    gate.check(embed_premises >= 500, f"only {embed_premises} embedder premises drawn")
    gate.check(transitive_premises >= 2_000, f"only {transitive_premises} ordered triples drawn")
    gate.finish(
        f"10,000 samples (5,000 pairs, 5,000 triples): irreflexive, antisymmetric, "
        f"transitive, embedder-first ({embed_premises} subset premises, "
        f"{transitive_premises} ordered triples)"
    )


def _norm_snapshot(snapshot) -> list:
    return [[verse, list(nodes)] for verse, nodes in snapshot]


def test_criterion_5_golden_suite(tmp_path, capsys, golden):
    gate = _Gate(capsys, 5)
    logical = toy4()
    data, _ = compile_to_bytes(logical)
    corpus = Corpus.from_bytes(data)
    by_id = {node.id: node for node in logical.nodes}
    rank = otype_rank_table(logical.metadata, logical.present_otypes())

    # -- core: stats, ordering, traversal, features, text, relations
    core = golden("toy4_core.json")
    st = corpus.stats()
    gate.check(
        [st.words, st.nodes, st.features, st.edges]
        == [core["stats"][k] for k in ("words", "nodes", "features", "edges")],
        "core: stats",
    )
    gate.check(
        [n for n in corpus.nodes()] == core["canonical_order"], "core: canonical order"
    )
    gate.check(list(corpus.nodes("word")) == core["nodes_word"], "core: word nodes")
    gate.check(list(corpus.nodes("phrase")) == core["nodes_phrase"], "core: phrase nodes")
    gate.check(corpus.feature(3, "text") == core["features"]["n3_text"], "core: n3 text")
    gate.check(corpus.feature(101, "typ") == core["features"]["n101_typ"], "core: n101 typ")
    gate.check(corpus.feature(101, "text") is None, "core: n101 text absent")
    gate.check(corpus.up(3) == list(core["up_n3"]), "core: up(n3)")
    gate.check(corpus.down(101, "word") == list(core["down_n101_word"]), "core: down(n101)")
    gate.check(corpus.up(301) == list(core["up_n301"]), "core: up(n301)")
    gate.check(corpus.down(201) == list(core["down_n201"]), "core: down(n201)")
    gate.check(corpus.text_of(101) == core["text_of"]["n101"], "core: text_of(n101)")
    gate.check(corpus.text_of(4) == core["text_of"]["n4"], "core: text_of(n4)")
    gate.check(corpus.text_of(201) == core["text_of"]["n201"], "core: text_of(n201)")
    gate.check(
        reference.text_of(logical.text, logical.slots, frozenset({1, 3}))
        == core["text_of"]["discontiguous_1_3"],
        "core: discontiguous text",
    )
    from fabric.model import adjacent, embeds, sequence_before

    rel = core["relations"]
    gate.check(embeds(by_id[201], by_id[3]) is rel["embeds_clause_word3"], "core: embeds 201>3")
    gate.check(
        embeds(by_id[101], by_id[4]) is rel["embeds_phrase101_word4"], "core: embeds 101>4"
    )
    gate.check(embeds(by_id[201], by_id[201]) is rel["embeds_self"], "core: embeds self")
    gate.check(
        sequence_before(by_id[201], by_id[101]) is rel["before_clause201_phrase101"],
        "core: before 201,101",
    )
    gate.check(sequence_before(by_id[1], by_id[2]) is rel["before_word1_word2"], "core: before 1,2")
    gate.check(adjacent(by_id[1], by_id[2]) is rel["adjacent_word1_word2"], "core: adjacent 1,2")
    gate.check(adjacent(by_id[1], by_id[4]) is rel["adjacent_word1_word4"], "core: adjacent 1,4")
    cmp = core["comparator"]
    gate.check(
        (canonical_compare(by_id[201], by_id[101], rank) < 0)
        is cmp["clause_1_4_before_phrase_1_3"],
        "core: comparator clause/phrase",
    )
    gate.check(
        (canonical_compare(by_id[2], by_id[201], rank) > 0) is cmp["word_2_after_clause_1_4"],
        "core: comparator word/clause",
    )
    gate.check(str(corpus.monads(101)) == core["monads"]["n101"], "core: monads n101")
    gate.check(str(corpus.monads(301)) == core["monads"]["n301"], "core: monads n301")

    # -- image: structural facts about the compiled bytes
    img = golden("toy4_image.json")
    gate.check(data[:8] == img["magic"].encode(), "image: magic")
    gate.check(int.from_bytes(data[8:10], "little") == img["format_version"], "image: version")
    gate.check(st.nodes == img["node_entries"], "image: node entries")
    gate.check(corpus.width == img["slots"], "image: slot count")
    for key, size in img["dictionaries"].items():
        store = corpus.store(key)
        gate.check(store is not None and len(store.values) == size, f"image: {key} dictionary")
    gate.check(
        sorted(corpus.store("lex").values) == img["lex_values_sorted"], "image: lex values"
    )
    gate.check(
        list(corpus.store("typ").values) == img["typ_dictionary_order"], "image: typ order"
    )
    present = {entry.name for entry in read_directory(data)}
    wanted = {name.lower() for name in img["sections_present"]}
    gate.check(wanted <= present, f"image: sections missing {wanted - present}")

    # -- queries: results, verses, plans, AST shape, error position
    q = golden("toy4_queries.json")
    for case in q["queries"]:
        got = evaluate(corpus, case["q"])
        want_rows = [tuple(row) for row in case["matches"]]
        gate.check(
            reference.result_rows(got) == want_rows, f"queries: matches for {case['q']!r}"
        )
        gate.check(list(got.verses) == case["verses"], f"queries: verses for {case['q']!r}")
        oracle = brute_force_evaluate(corpus, case["q"])
        gate.check(
            reference.result_rows(oracle) == want_rows, f"queries: oracle for {case['q']!r}"
        )
    gate.check(
        explain(corpus, '[word lex="fox"]').render().splitlines() == q["plan_fox"],
        "queries: fox plan",
    )
    gate.check(
        explain(corpus, "[word]").render().splitlines() == q["plan_word_scan"],
        "queries: scan plan",
    )
    ast = q["ast_nested"]
    block = parse('[phrase typ="NP" [word lex="fox"]]').root.blocks[0]
    gate.check(block.otype == ast["otype"], "queries: ast otype")
    gate.check(block.constraint == Atom(*ast["constraint"]), "queries: ast constraint")
    child = block.children.blocks[0]
    gate.check(child.otype == ast["child_otype"], "queries: ast child otype")
    gate.check(child.constraint == Atom(*ast["child_constraint"]), "queries: ast child constraint")
    err = q["syntax_error"]
    try:
        parse(err["q"])
        gate.problems.append("queries: syntax error not raised")
    except QuerySyntaxError as exc:
        gate.check(
            exc.line == err["line"]
            and exc.column == err["column"]
            and list(exc.expected) == err["expected"],
            "queries: error position",
        )

    # -- annotations: snapshot, margin, pagination
    ann = golden("toy4_annotations.json")
    store = AnnotationStore.for_corpus(corpus)
    saved = save_query(
        store, corpus, '[word lex="fox"]', name="fox-query", author="ada", now=STAMP
    )
    gate.check(_norm_snapshot(saved.snapshot) == ann["fox_snapshot"], "annotations: snapshot")
    gate.check(saved.verse_count == ann["fox_verse_count"], "annotations: verse count")
    gate.check(saved.match_count == ann["fox_match_count"], "annotations: match count")
    got_margin = [[entry.name, list(nodes)] for entry, nodes in margin(store, corpus, 301)]
    gate.check(got_margin == ann["margin_n301"], "annotations: margin")
    pg = ann["pagination"]
    big_snapshot = tuple((v, (v,)) for v in range(1, pg["total_verses"] + 1))
    big_saved = SavedQuery(
        id=1, name="big", author="ada", query_text="[word]", description="",
        is_public=True, created=STAMP, modified=STAMP,
        corpus_fingerprint="0" * 64, snapshot=big_snapshot,
        match_count=pg["total_verses"], verse_count=pg["total_verses"],
    )
    first = result_page(big_saved, 1, pg["page_size"])
    last = result_page(big_saved, pg["total_pages"], pg["page_size"])
    gate.check(first.total_pages == pg["total_pages"], "annotations: page count")
    gate.check(len(last.entries) == pg["last_page_entries"], "annotations: last page size")
    toy = ann["toy_page"]
    page = result_page(saved, 1, 25)
    gate.check(
        page.page == toy["page"]
        and page.total_pages == toy["total_pages"]
        and _norm_snapshot(page.entries) == toy["entries"]
        and page.clamped is toy["clamped"],
        "annotations: toy page",
    )

    # -- feature documentation: tables and generated files
    doc = golden("toy4_featuredoc.json")
    for label, (otype, key) in {
        "phrase_typ": ("phrase", "typ"),
        "word_lex": ("word", "lex"),
        "word_text": ("word", "text"),
    }.items():
        table = feature_frequency(corpus, otype, key)
        gate.check(
            [[v, c] for v, c in table.entries] == doc[label], f"featuredoc: {label}"
        )
    out_dir = tmp_path / "docs"
    written = render_docs(corpus, out_dir)
    gate.check(sorted(written) == doc["doc_files"], "featuredoc: file set")
    index = json.loads((out_dir / "index.json").read_text(encoding="utf-8"))
    gate.check(len(index["tables"]) == doc["table_count"], "featuredoc: table count")

    # -- command line: pinned TSV, info document, exit codes
    from fabric.cli import main

    cli = golden("toy4_cli.json")
    image_path = tmp_path / "toy4.fab"
    compile_corpus(logical, image_path)

    def run(*argv: str) -> tuple[int, str]:
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out

    code, out = run("query", str(image_path), "-q", '[word lex="fox"]', "--format", "tsv")
    gate.check(code == 0 and out.splitlines() == cli["query_fox_tsv"], "cli: query tsv")
    code, out = run("info", str(image_path), "--format", "json")
    info = json.loads(out) if out else {}
    gate.check(
        code == 0 and all(info.get(k) == v for k, v in cli["info_json_subset"].items()),
        "cli: info json",
    )
    codes = cli["exit_codes"]
    gate.check(run("info", str(image_path))[0] == codes["ok"], "cli: ok exit")
    gate.check(
        run("query", str(image_path), "-q", "[word")[0] == codes["user_error"],
        "cli: user error exit",
    )
    corrupted = bytearray(image_path.read_bytes())
    corrupted[-1] ^= 0xFF
    bad_path = tmp_path / "bad.fab"
    bad_path.write_bytes(bytes(corrupted))
    gate.check(run("info", str(bad_path))[0] == codes["corrupt"], "cli: corrupt exit")

    gate.finish(
        "all six golden files re-verified live: core, image, queries, "
        "annotations, featuredoc, cli"
    )


def test_criterion_6_snapshot_soundness(capsys):
    gate = _Gate(capsys, 6)
    saved_total = stores = 0
    seed = 0
    while saved_total < 50:
        seed += 1
        if seed > 400:
            gate.problems.append("could not save 50 queries in 400 attempts")
            break
        rng = Random(60_000 + seed)
        logical = random_corpus(rng, max_words=30)
        corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
        store = AnnotationStore.for_corpus(corpus)
        for k in range(rng.randint(1, 3)):
            if saved_total >= 50:
                break
            qtext = random_query(rng, corpus)
            try:
                saved = save_query(
                    store, corpus, qtext,
                    name=f"q{k}", author=rng.choice(["ada", "lin", "kim"]),
                    is_public=bool(rng.getrandbits(1)),
                )
            except QueryError:
                continue
            saved_total += 1
            snap = build_snapshot(corpus, evaluate(corpus, saved.query_text))
            gate.check(
                snap == saved.snapshot,
                f"seed {seed}: re-evaluation differs for {qtext!r}",
            )
            gate.check(
                saved.verse_count == len(saved.snapshot),
                f"seed {seed}: verse count drifted",
            )
        if not store.queries:
            continue
        stores += 1
        blob = export_bytes(store)
        imported = import_bytes(blob, corpus)
        gate.check(export_bytes(imported) == blob, f"seed {seed}: export not byte-identical")
        gate.check(imported == store, f"seed {seed}: imported store differs")
    gate.finish(
        f"{saved_total} saved queries re-evaluated to identical snapshots; "
        f"{stores} stores export/import byte-identically"
    )


def _synthetic_saved(total: int) -> SavedQuery:
    snapshot = tuple((v, (v,)) for v in range(1, total + 1))
    return SavedQuery(
        id=1, name="n", author="a", query_text="[word]", description="",
        is_public=True, created=STAMP, modified=STAMP,
        corpus_fingerprint="0" * 64, snapshot=snapshot,
        match_count=total, verse_count=total,
    )


def test_criterion_7_pagination_arithmetic(capsys, golden):
    gate = _Gate(capsys, 7)
    pg = golden("toy4_annotations.json")["pagination"]
    saved = _synthetic_saved(pg["total_verses"])
    size = pg["page_size"]
    first = result_page(saved, 1, size)
    gate.check(first.total_pages == pg["total_pages"], "page count")
    gate.check(len(first.entries) == size, "first page size")
    last = result_page(saved, pg["total_pages"], size)
    gate.check(len(last.entries) == pg["last_page_entries"], "last page size")
    gate.check(last.next is None and last.last == pg["total_pages"], "last page links")

    collected = []
    for number in range(1, first.total_pages + 1):
        collected.extend(result_page(saved, number, size).entries)
    gate.check(tuple(collected) == saved.snapshot, "pages do not partition the snapshot")

    rng = Random(70_000)
    draws = 0
    for _ in range(200):
        total = rng.randint(0, 400)
        size = rng.randint(1, 40)
        saved = _synthetic_saved(total)
        probe = result_page(saved, 1, size)
        want_pages = math.ceil(total / size)
        if not gate.check(
            probe.total_pages == want_pages, f"total {total} size {size}: page count"
        ):
            continue
        pieces = [result_page(saved, n, size).entries for n in range(1, want_pages + 1)]
        flat = tuple(entry for piece in pieces for entry in piece)
        gate.check(flat == saved.snapshot, f"total {total} size {size}: coverage")
        gate.check(
            all(len(piece) == size for piece in pieces[:-1]),
            f"total {total} size {size}: non-final page short",
        )
        if pieces:
            gate.check(
                1 <= len(pieces[-1]) <= size, f"total {total} size {size}: final page"
            )
        draws += 1
    gate.check(draws >= 150, f"only {draws} random partitions checked")
    gate.finish(
        f"{pg['total_verses']:,} verses at {pg['page_size']}/page -> "
        f"{pg['total_pages']} pages, last holds {pg['last_page_entries']}; "
        f"partition property held on {draws} random snapshot sizes"
    )


def test_criterion_8_full_scale_corpus(capsys):
    path = os.environ.get("FABRIC_ETCBC")
    if not path:
        with capsys.disabled():
            print(
                "ACCEPTANCE 8: SKIP - set FABRIC_ETCBC to a corpus header "
                "to check full-scale counts",
                flush=True,
            )
        pytest.skip("FABRIC_ETCBC not set; full-scale corpus not supplied")
    gate = _Gate(capsys, 8)
    header = Path(path)
    if header.is_dir():
        candidates = sorted(header.glob("*.graf"))
        gate.check(bool(candidates), f"no .graf header under {header}")
        if not candidates:
            gate.finish("no header found")
        header = candidates[0]
    logical = parse_graf(header)
    stats = logical.stats()
    gate.check(stats.words == 426_555, f"words {stats.words:,}, expected 426,555")
    gate.check(stats.nodes == 945_726, f"nodes {stats.nodes:,}, expected 945,726")
    note = (
        "matches the published assignment count"
        if stats.features == 25_504_388
        else "assignment count is edition-dependent, reported only"
    )
    gate.finish(
        f"words {stats.words:,}, nodes {stats.nodes:,}, "
        f"features {stats.features:,} ({note})"
    )
