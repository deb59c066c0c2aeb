import json
import os
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabric.annotations import (
    AnnotationStore,
    SavedQuery,
    StaleStoreWarning,
    build_snapshot,
    export_bytes,
    export_store,
    import_bytes,
    import_store,
    margin,
    result_page,
    save_query,
)
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus
from fabric.errors import QueryError, StoreError
from fabric.query import evaluator
from fabric.query.evaluator import evaluate
from fabric.query.oracle import brute_force_evaluate
from fabric.synth import random_corpus, random_query

STAMP = "2024-01-01T00:00:00Z"


def fox_store(corpus):
    store = AnnotationStore.for_corpus(corpus)
    saved = save_query(
        store,
        corpus,
        '[word lex="fox"]',
        name="fox-query",
        author="ada",
        description="find the fox",
        now=STAMP,
    )
    return store, saved


def synthetic(snapshot, qid=1, name="q", author="a"):
    return SavedQuery(
        id=qid,
        name=name,
        author=author,
        query_text="[word]",
        description="",
        is_public=True,
        created=STAMP,
        modified=STAMP,
        corpus_fingerprint="f" * 64,
        snapshot=tuple(snapshot),
        match_count=len(snapshot),
        verse_count=len(snapshot),
    )


class TestSnapshots:
    def test_pinned_fox_snapshot(self, toy4_corpus, golden):
        want = golden("toy4_annotations.json")
        _, saved = fox_store(toy4_corpus)
        assert saved.snapshot == tuple(
            (verse, tuple(nodes)) for verse, nodes in want["fox_snapshot"]
        )
        assert saved.verse_count == want["fox_verse_count"]
        assert saved.match_count == want["fox_match_count"]

    def test_snapshot_lists_only_outermost_nodes(self, toy4_corpus):
        result = evaluate(toy4_corpus, '[phrase typ="NP" [word lex="fox"]]')
        snapshot = build_snapshot(toy4_corpus, result)
        assert snapshot == ((301, (101,)),)

    def test_snapshot_reproduces_after_round_trip(self, toy4_corpus):
        store, saved = fox_store(toy4_corpus)
        again = import_bytes(export_bytes(store), toy4_corpus)
        result = evaluate(toy4_corpus, saved.query_text)
        assert again.queries[saved.id].snapshot == build_snapshot(toy4_corpus, result)

    def test_timestamps_respect_now(self, toy4_corpus):
        _, saved = fox_store(toy4_corpus)
        assert saved.created == STAMP and saved.modified == STAMP


class TestSaveWithoutTrees:
    QUERIES = ('[word lex="fox"]', '[phrase typ="NP" [word]]', "[word] [word]", "[verse]")

    def test_save_builds_no_tree_and_joins_passages_once(self, toy4_corpus, monkeypatch):
        results = [evaluate(toy4_corpus, q) for q in self.QUERIES]
        want = [build_snapshot(toy4_corpus, result) for result in results]
        calls = []
        meeting = Corpus._meeting

        def counted(self, rows):
            calls.append(len(rows))
            return meeting(self, rows)

        def no_tree(*args):
            raise AssertionError("a MatchTree was built")

        monkeypatch.setattr(evaluator, "MatchTree", no_tree)
        monkeypatch.setattr(Corpus, "_meeting", counted)
        store = AnnotationStore.for_corpus(toy4_corpus)
        for i, (query, snapshot, result) in enumerate(zip(self.QUERIES, want, results)):
            calls.clear()
            saved = save_query(store, toy4_corpus, query, name=f"q{i}", author="ada", now=STAMP)
            assert saved.snapshot == snapshot and len(calls) == 1
            assert evaluate(toy4_corpus, query) == result

    def test_oracle_result_snapshots_like_evaluate(self, toy4_corpus):
        for query in self.QUERIES:
            result = evaluate(toy4_corpus, query)
            assert build_snapshot(toy4_corpus, brute_force_evaluate(toy4_corpus, query)) == build_snapshot(
                toy4_corpus, result
            )


class TestSaveRules:
    def test_duplicate_author_name_rejected(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        with pytest.raises(StoreError, match="already has"):
            save_query(store, toy4_corpus, "[word]", name="fox-query", author="ada")

    def test_same_name_different_author_is_fine(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        saved = save_query(store, toy4_corpus, "[word]", name="fox-query", author="grace")
        assert saved.id == 2

    def test_store_is_bound_to_its_corpus(self, toy4_corpus):
        store = AnnotationStore("0" * 64)
        with pytest.raises(StoreError, match="different corpus"):
            save_query(store, toy4_corpus, "[word]", name="x", author="a")

    def test_query_errors_propagate(self, toy4_corpus):
        store = AnnotationStore.for_corpus(toy4_corpus)
        with pytest.raises(QueryError):
            save_query(store, toy4_corpus, "[nothing]", name="x", author="a")
        assert store.queries == {}

    def test_ids_are_sequential(self, toy4_corpus):
        store = AnnotationStore.for_corpus(toy4_corpus)
        first = save_query(store, toy4_corpus, "[word]", name="a", author="a")
        second = save_query(store, toy4_corpus, "[verse]", name="b", author="a")
        assert (first.id, second.id) == (1, 2)


class TestMargin:
    def test_pinned_margin(self, toy4_corpus, golden):
        want = golden("toy4_annotations.json")["margin_n301"]
        store, _ = fox_store(toy4_corpus)
        got = [[saved.name, list(nodes)] for saved, nodes in margin(store, toy4_corpus, 301)]
        assert got == want

    def test_author_filter(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        save_query(store, toy4_corpus, "[word]", name="all-words", author="grace")
        assert [s.name for s, _ in margin(store, toy4_corpus, 301, author="grace")] == [
            "all-words"
        ]

    def test_public_only_filter(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        save_query(
            store, toy4_corpus, "[word]", name="mine", author="ada", is_public=False
        )
        names = [s.name for s, _ in margin(store, toy4_corpus, 301, public_only=True)]
        assert names == ["fox-query"]

    def test_ordering_is_author_then_name(self, toy4_corpus):
        store = AnnotationStore.for_corpus(toy4_corpus)
        save_query(store, toy4_corpus, "[word]", name="zz", author="ada")
        save_query(store, toy4_corpus, "[verse]", name="aa", author="ada")
        save_query(store, toy4_corpus, "[clause]", name="mm", author="alan")
        got = [(s.author, s.name) for s, _ in margin(store, toy4_corpus, 301)]
        assert got == [("ada", "aa"), ("ada", "zz"), ("alan", "mm")]

    def test_unknown_passage_rejected(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        with pytest.raises(StoreError, match="unknown passage"):
            margin(store, toy4_corpus, 999)

    def test_non_passage_node_rejected(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        with pytest.raises(StoreError, match="not a verse"):
            margin(store, toy4_corpus, 3)

    def test_untouched_verse_is_empty(self, toy4_corpus):
        store = AnnotationStore.for_corpus(toy4_corpus)
        assert margin(store, toy4_corpus, 301) == []


class TestPagination:
    def test_pinned_arithmetic(self, golden):
        want = golden("toy4_annotations.json")["pagination"]
        snapshot = [(i, (i,)) for i in range(1, want["total_verses"] + 1)]
        saved = synthetic(snapshot)
        page = result_page(saved, 1, want["page_size"])
        assert page.total_pages == want["total_pages"]
        last = result_page(saved, want["total_pages"], want["page_size"])
        assert len(last.entries) == want["last_page_entries"]
        assert last.next is None and last.last == want["total_pages"]

    def test_pinned_toy_page(self, toy4_corpus, golden):
        want = golden("toy4_annotations.json")["toy_page"]
        _, saved = fox_store(toy4_corpus)
        page = result_page(saved, want["page"], 25)
        assert page.page == want["page"]
        assert page.total_pages == want["total_pages"]
        assert [[v, list(ns)] for v, ns in page.entries] == want["entries"]
        assert page.clamped == want["clamped"]

    def test_navigation_links(self):
        saved = synthetic([(i, ()) for i in range(1, 10)])
        middle = result_page(saved, 2, 3)
        assert (middle.first, middle.prev, middle.next, middle.last) == (1, 1, 3, 3)
        first = result_page(saved, 1, 3)
        assert first.prev is None and first.next == 2

    def test_out_of_range_pages_clamp(self):
        saved = synthetic([(i, ()) for i in range(1, 10)])
        high = result_page(saved, 99, 3)
        assert high.page == 3 and high.clamped
        low = result_page(saved, 0, 3)
        assert low.page == 1 and low.clamped

    def test_empty_snapshot_has_zero_pages(self):
        page = result_page(synthetic([]), 1, 25)
        assert page.page == 0 and page.total_pages == 0
        assert page.entries == ()
        assert page.first is None and page.last is None
        assert not page.clamped

    def test_page_size_must_be_positive(self):
        with pytest.raises(ValueError):
            result_page(synthetic([(1, ())]), 1, 0)

    @given(
        st.integers(min_value=0, max_value=400),
        st.integers(min_value=1, max_value=40),
    )
    def test_pages_partition_the_snapshot(self, total, page_size):
        saved = synthetic([(i, (i,)) for i in range(1, total + 1)])
        pages = [
            result_page(saved, p, page_size)
            for p in range(1, result_page(saved, 1, page_size).total_pages + 1)
        ]
        joined = tuple(entry for page in pages for entry in page.entries)
        assert joined == saved.snapshot
        for page in pages[:-1]:
            assert len(page.entries) == page_size
        if pages:
            assert 1 <= len(pages[-1].entries) <= page_size


class TestPersistence:
    def test_export_is_deterministic(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        assert export_bytes(store) == export_bytes(store)

    def test_export_import_export_is_byte_identical(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        data = export_bytes(store)
        again = import_bytes(data, toy4_corpus)
        assert export_bytes(again) == data
        assert again == store

    def test_file_round_trip(self, tmp_path, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        path = tmp_path / "store.json"
        export_store(store, path)
        assert import_store(path, toy4_corpus) == store

    def test_failed_export_keeps_the_old_store(self, tmp_path, toy4_corpus, monkeypatch):
        store, _ = fox_store(toy4_corpus)
        path = tmp_path / "store.json"
        export_store(store, path)
        before = path.read_bytes()
        save_query(store, toy4_corpus, "[word]", name="words", author="ada", now=STAMP)

        def refuse(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", refuse)
        with pytest.raises(OSError, match="disk full"):
            export_store(store, path)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["store.json"]

    def test_document_shape(self, toy4_corpus):
        store, saved = fox_store(toy4_corpus)
        doc = json.loads(export_bytes(store))
        assert doc["format_version"] == 1
        assert doc["corpus_fingerprint"] == toy4_corpus.fingerprint
        entry = doc["queries"][0]
        assert entry["query"] == saved.query_text
        assert entry["snapshot"] == [[301, [3]]]
        assert "stale" not in entry

    def test_export_ends_with_newline(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        assert export_bytes(store).endswith(b"\n")

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_export_is_the_json_modules_layout(self, data):
        """The hand-written layout is byte for byte that of the json module
        with ``indent=2``, control and non-ASCII characters included."""
        text = st.text(alphabet=st.characters(blacklist_categories=("Cs",)), max_size=12)
        number = st.integers(min_value=-(2**40), max_value=2**40)
        snapshot = st.lists(st.tuples(number, st.lists(number, max_size=3).map(tuple)), max_size=3).map(tuple)
        store = AnnotationStore(data.draw(text))
        for _ in range(data.draw(st.integers(0, 3))):
            saved = SavedQuery(
                id=data.draw(number), name=data.draw(text), author=data.draw(text), query_text=data.draw(text),
                description=data.draw(text), is_public=data.draw(st.booleans()), created=data.draw(text),
                modified=data.draw(text), corpus_fingerprint=store.corpus_fingerprint, snapshot=data.draw(snapshot),
                match_count=data.draw(number), verse_count=data.draw(number),
            )
            store.queries[saved.id] = saved
        doc = {
            "format_version": 1,
            "corpus_fingerprint": store.corpus_fingerprint,
            "queries": [
                {
                    "id": q.id, "name": q.name, "author": q.author, "query": q.query_text,
                    "description": q.description, "is_public": q.is_public, "created": q.created,
                    "modified": q.modified, "match_count": q.match_count, "verse_count": q.verse_count,
                    "snapshot": [[verse, list(nodes)] for verse, nodes in q.snapshot],
                }
                for q in (store.queries[i] for i in sorted(store.queries))
            ],
        }
        want = json.dumps(doc, ensure_ascii=False, sort_keys=True, indent=2) + "\n"
        assert export_bytes(store) == want.encode("utf-8")


class TestImportValidation:
    def doc(self, toy4_corpus, **edits):
        store, _ = fox_store(toy4_corpus)
        doc = json.loads(export_bytes(store))
        doc.update(edits)
        return doc

    def dump(self, doc):
        return json.dumps(doc).encode("utf-8")

    def test_rejects_bad_json(self):
        with pytest.raises(StoreError, match="not valid JSON"):
            import_bytes(b"{nope")

    def test_rejects_wrong_version(self, toy4_corpus):
        doc = self.doc(toy4_corpus, format_version=9)
        with pytest.raises(StoreError, match="format_version"):
            import_bytes(self.dump(doc))

    def test_rejects_duplicate_ids(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        doc["queries"] = doc["queries"] * 2
        with pytest.raises(StoreError, match="duplicate saved-query id"):
            import_bytes(self.dump(doc))

    def test_rejects_duplicate_author_name(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        twin = dict(doc["queries"][0], id=2)
        doc["queries"] = [doc["queries"][0], twin]
        with pytest.raises(StoreError, match=r"duplicate \(author, name\)"):
            import_bytes(self.dump(doc))

    def test_rejects_verse_count_mismatch(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        doc["queries"][0]["verse_count"] = 7
        with pytest.raises(StoreError, match="verse_count"):
            import_bytes(self.dump(doc))

    def test_rejects_missing_fields(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        del doc["queries"][0]["author"]
        with pytest.raises(StoreError, match="malformed"):
            import_bytes(self.dump(doc))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("snapshot", [[301, "23"]]),
            ("snapshot", [[301, [True]]]),
            ("snapshot", [[301.0, [3]]]),
            ("snapshot", [[301, [3], []]]),
            ("snapshot", "ab"),
            ("is_public", "no"),
            ("is_public", 1),
            ("id", 1.9),
            ("id", True),
            ("verse_count", "1"),
            ("name", 7),
            ("created", None),
        ],
    )
    def test_rejects_mistyped_fields(self, toy4_corpus, field, value):
        # Types are checked, not coerced: "23" is not the nodes 2 and 3,
        # [True] is not node 1 and "no" is not True.
        doc = self.doc(toy4_corpus)
        doc["queries"][0][field] = value
        with pytest.raises(StoreError, match=f"saved query field '{field}' must "):
            import_bytes(self.dump(doc))

    def test_verifies_verse_is_a_passage_node(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        doc["queries"][0]["snapshot"] = [[3, [3]]]
        with pytest.raises(StoreError, match="not a verse"):
            import_bytes(self.dump(doc), toy4_corpus)

    @pytest.mark.parametrize("node", [999, 2**70, -1], ids=["absent", "beyond_64_bits", "negative"])
    def test_verifies_nodes_exist(self, toy4_corpus, node):
        doc = self.doc(toy4_corpus)
        doc["queries"][0]["snapshot"] = [[301, [node]]]
        doc["queries"][0]["verse_count"] = 1
        with pytest.raises(StoreError, match="unknown matched node"):
            import_bytes(self.dump(doc), toy4_corpus)

    def test_reports_the_first_bad_id_in_snapshot_order(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        doc["queries"][0]["snapshot"] = [[301, [999]], [3, [3]]]
        doc["queries"][0]["verse_count"] = 2
        with pytest.raises(StoreError, match="unknown matched node 999"):
            import_bytes(self.dump(doc), toy4_corpus)

    def test_verifies_intersection(self):
        # two verses; a node from the second cannot sit in the first's margin
        from fabric.model import (
            CorpusMetadata,
            FeatureAssignment,
            LogicalCorpus,
            MonadSet,
            Node,
            Region,
        )

        logical = LogicalCorpus.assemble(
            text="aa bb",
            slots=(Region(0, 2), Region(3, 5)),
            nodes=(
                Node(1, "word", MonadSet.from_monads([1])),
                Node(2, "word", MonadSet.from_monads([2])),
                Node(10, "verse", MonadSet.from_monads([1])),
                Node(11, "verse", MonadSet.from_monads([2])),
            ),
            features=(FeatureAssignment("N", 1, "text", "aa"),),
            metadata=CorpusMetadata(otypes=("verse", "word")),
        )
        corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
        store = AnnotationStore.for_corpus(corpus)
        doc = json.loads(export_bytes(store))
        doc["queries"] = [
            dict(
                id=1, name="bad", author="a", query="[word]", description="",
                is_public=True, created=STAMP, modified=STAMP,
                match_count=1, verse_count=1, snapshot=[[10, [2]]],
            )
        ]
        with pytest.raises(StoreError, match="does not intersect"):
            import_bytes(self.dump(doc), corpus)

    def test_verifies_intersection_run_by_run(self):
        # With phrases as passages, a discontiguous phrase's envelope covers
        # words it does not meet; listing such words under it must fail, and
        # the first such pair in snapshot order is reported.
        logical = random_corpus(random.Random(2), max_words=60, tricky_values=False)
        logical = replace(logical, metadata=replace(logical.metadata, passage_otype="phrase"))
        monads = {n.id: frozenset(n.monads) for n in logical.nodes}
        corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
        store = AnnotationStore.for_corpus(corpus)
        save_query(store, corpus, "[word]", name="w", author="a", now=STAMP)
        doc = json.loads(export_bytes(store))
        assert import_bytes(self.dump(doc), corpus) == store
        snapshot = doc["queries"][0]["snapshot"]
        words = list(corpus.nodes("word"))
        bad = [
            (entry, w)
            for entry in snapshot
            for w in words
            if min(monads[entry[0]]) <= min(monads[w]) <= max(monads[entry[0]]) and not monads[entry[0]] & monads[w]
        ]
        assert len(bad) >= 2
        for entry, w in bad:
            entry[1].append(w)
        (verse, _), node = bad[0]
        with pytest.raises(StoreError, match=f"node {node} does not intersect verse {verse}$"):
            import_bytes(self.dump(doc), corpus)

    def test_skips_snapshot_checks_without_a_corpus(self, toy4_corpus):
        doc = self.doc(toy4_corpus)
        doc["queries"][0]["snapshot"] = [[3, [999]]]
        store = import_bytes(self.dump(doc))
        assert store.queries[1].snapshot == ((3, (999,)),)


class TestStaleness:
    def other_corpus(self):
        return Corpus.from_bytes(compile_to_bytes(random_corpus(random.Random(9)))[0])

    def test_fingerprint_mismatch_marks_stale_and_warns(self, toy4_corpus):
        store, saved = fox_store(toy4_corpus)
        data = export_bytes(store)
        with pytest.warns(StaleStoreWarning):
            imported = import_bytes(data, self.other_corpus())
        assert all(q.stale for q in imported.queries.values())

    def test_stale_flag_never_serializes(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        data = export_bytes(store)
        with pytest.warns(StaleStoreWarning):
            imported = import_bytes(data, self.other_corpus())
        assert export_bytes(imported) == data

    def test_matching_corpus_is_not_stale(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        imported = import_bytes(export_bytes(store), toy4_corpus)
        assert not any(q.stale for q in imported.queries.values())

    def test_stale_is_ignored_by_equality(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        with pytest.warns(StaleStoreWarning):
            imported = import_bytes(export_bytes(store), self.other_corpus())
        assert imported == store


class TestVerseIndex:
    def test_rebuild_matches_incremental(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        save_query(store, toy4_corpus, "[word]", name="w", author="ada")
        save_query(store, toy4_corpus, "[verse]", name="v", author="ada")
        assert store.verse_index() == store.rebuild_verse_index()

    def test_index_survives_import(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        imported = import_bytes(export_bytes(store), toy4_corpus)
        assert imported.verse_index() == imported.rebuild_verse_index() == {301: [1]}

    def test_index_stays_sorted_after_an_unordered_import(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        save_query(store, toy4_corpus, "[word]", name="w", author="ada")
        save_query(store, toy4_corpus, "[verse]", name="v", author="ada")
        doc = json.loads(export_bytes(store))
        doc["queries"] = [doc["queries"][i] for i in (2, 0, 1)]
        imported = import_bytes(json.dumps(doc).encode("utf-8"), toy4_corpus)
        assert imported.verse_index() == imported.rebuild_verse_index() == store.verse_index()
        assert all(qids == sorted(qids) for qids in imported.verse_index().values())

    def test_next_id_continues_after_import(self, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        imported = import_bytes(export_bytes(store), toy4_corpus)
        saved = save_query(imported, toy4_corpus, "[word]", name="w", author="ada")
        assert saved.id == 2

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_saved_queries_round_trip(self, seed):
        rng = random.Random(seed)
        corpus = Corpus.from_bytes(compile_to_bytes(random_corpus(rng))[0])
        store = AnnotationStore.for_corpus(corpus)
        for i in range(3):
            try:
                save_query(
                    store, corpus, random_query(rng, corpus),
                    name=f"q{i}", author="fuzz", now=STAMP,
                )
            except QueryError:
                continue
        data = export_bytes(store)
        again = import_bytes(data, corpus)
        assert again == store
        assert export_bytes(again) == data
        assert again.verse_index() == again.rebuild_verse_index()
