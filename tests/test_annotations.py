import json
import os
import random
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fabric.annotations import (
    AnnotationStore,
    SavedQuery,
    StaleStoreWarning,
    _saved_query_text,
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
from fabric.query.evaluator import MatchTree, ResultSet, evaluate
from fabric.query.oracle import brute_force_evaluate
from fabric.synth import random_corpus, random_query, toy4

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


def two_verses():
    """Words 1 and 2 on monads 1 and 2, in verses 10 and 11."""
    from fabric.model import CorpusMetadata, FeatureAssignment, LogicalCorpus, MonadSet, Node, Region

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
    return Corpus.from_bytes(compile_to_bytes(logical)[0])


def entry(qid, snapshot, name=None):
    """A store file's saved-query entry with the given snapshot."""
    return dict(
        id=qid, name=name or f"q{qid}", author="a", query="[word]", description="",
        is_public=True, created=STAMP, modified=STAMP,
        match_count=len(snapshot), verse_count=len(snapshot), snapshot=snapshot,
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

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_snapshot_of_the_passage_join_equals_one_from_matches(self, seed):
        """``evaluate`` keeps its passage join's grouped ids; a result that
        holds only matches joins its outermost nodes in ``build_snapshot``."""
        rng = random.Random(seed)
        corpus = Corpus.from_bytes(compile_to_bytes(random_corpus(rng, max_words=40))[0])
        result = evaluate(corpus, random_query(rng, corpus))
        plain = ResultSet(result.matches, result.total, result.verses, result.truncated)
        assert result._hits is not None and plain._hits is None
        assert build_snapshot(corpus, plain) == build_snapshot(corpus, result)
        assert plain == result

    @pytest.mark.parametrize("node", [999999, -1, 2**64])
    def test_snapshot_of_a_node_the_corpus_lacks_is_a_key_error(self, toy4_corpus, node):
        """A hand-built result names no row of the corpus for an unknown id,
        and no other row is filed in its place."""
        result = ResultSet(((MatchTree(1),), (MatchTree(node),)), 2, (301,))
        with pytest.raises(KeyError, match=f"no node with id {node}"):
            build_snapshot(toy4_corpus, result)


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

    def test_export_onto_a_directory_names_the_store(self, tmp_path, toy4_corpus):
        store, _ = fox_store(toy4_corpus)
        path = tmp_path / "store.json"
        path.mkdir()
        with pytest.raises(OSError) as exc:
            export_store(store, path)
        assert exc.value.filename == str(path)
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
        number = st.integers(min_value=-(2**70), max_value=2**70)
        snapshot = st.lists(st.tuples(number, st.lists(number, max_size=8).map(tuple)), max_size=8).map(tuple)
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

    def test_rejects_json_nested_too_deeply(self):
        with pytest.raises(StoreError, match="not valid JSON"):
            import_bytes(b"[" * 200_000 + b"]" * 200_000)

    @pytest.mark.parametrize("load", [import_bytes, reference.import_store_bytes], ids=["package", "reference"])
    def test_rejects_a_number_longer_than_int_reads(self, toy4_corpus, load):
        data = self.dump(self.doc(toy4_corpus)).replace(b'"format_version": 1', b'"format_version": ' + b"9" * 5000)
        with pytest.raises(StoreError, match="^store file is not valid JSON: "):
            load(data)

    def test_rejects_wrong_version(self, toy4_corpus):
        doc = self.doc(toy4_corpus, format_version=9)
        with pytest.raises(StoreError, match="format_version"):
            import_bytes(self.dump(doc))

    @pytest.mark.parametrize("load", [import_bytes, reference.import_store_bytes], ids=["package", "reference"])
    @pytest.mark.parametrize("version", [True, 1.0, "1"])
    def test_version_must_be_the_integer_one(self, toy4_corpus, load, version):
        doc = self.doc(toy4_corpus, format_version=version)
        with pytest.raises(StoreError) as exc:
            load(self.dump(doc))
        assert str(exc.value) == f"unsupported store format_version {version!r}"

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

    @pytest.mark.parametrize(
        "snapshot, problem",
        [
            ([[301, [3]], [301, [3]]], "verse 301 is listed twice"),
            ([[301, [3, 4, 3]]], "verse 301 lists node 3 twice"),
            ([[301, []]], "verse 301 lists no matched node"),
        ],
        ids=["repeated_verse", "repeated_node", "no_node"],
    )
    @pytest.mark.parametrize("with_corpus", [True, False], ids=["corpus", "no_corpus"])
    def test_rejects_repeats_and_empty_node_lists(self, toy4_corpus, snapshot, problem, with_corpus):
        # build_snapshot writes none of these; a repeated verse would show
        # its query twice in the margin.
        doc = self.doc(toy4_corpus)
        doc["queries"][0].update(snapshot=snapshot, verse_count=len(snapshot))
        with pytest.raises(StoreError, match=rf"^saved query 1: {problem}$"):
            import_bytes(self.dump(doc), toy4_corpus if with_corpus else None)

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
        corpus = two_verses()
        doc = json.loads(export_bytes(AnnotationStore.for_corpus(corpus)))
        doc["queries"] = [entry(1, [[10, [2]]])]
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


class TestImportErrorOrder:
    """Import reports the first failing entry in file order; within one
    entry a bad id, in snapshot order, comes before a pair that does not
    meet, and a structural fault of an entry is reported only when every
    entry before it verifies."""

    def store_file(self, corpus, *entries):
        doc = json.loads(export_bytes(AnnotationStore.for_corpus(corpus)))
        doc["queries"] = list(entries)
        return json.dumps(doc).encode("utf-8")

    def test_an_earlier_entry_that_does_not_meet_wins(self):
        corpus = two_verses()
        data = self.store_file(corpus, entry(1, [[10, [2]]]), entry(2, [[11, [999]]]))
        with pytest.raises(StoreError, match=r"^saved query 1: node 2 does not intersect verse 10$"):
            import_bytes(data, corpus)

    def test_a_bad_entry_wins_over_a_later_duplicate_id(self, toy4_corpus):
        data = self.store_file(toy4_corpus, entry(1, [[999, [3]]]), entry(1, [[301, [3]]], name="twin"))
        with pytest.raises(StoreError, match=r"^saved query 1: unknown verse node 999$"):
            import_bytes(data, toy4_corpus)
        with pytest.raises(StoreError, match=r"^duplicate saved-query id 1$"):
            import_bytes(data)

    def test_an_unknown_node_wins_over_an_earlier_pair_that_does_not_meet(self):
        corpus = two_verses()
        data = self.store_file(corpus, entry(1, [[10, [2]], [11, [999]]]))
        with pytest.raises(StoreError, match=r"^saved query 1: unknown matched node 999$"):
            import_bytes(data, corpus)

    def test_an_unknown_verse_wins_over_its_unknown_node(self, toy4_corpus):
        data = self.store_file(toy4_corpus, entry(1, [[301, [3]], [999, [998]]]))
        with pytest.raises(StoreError, match=r"^saved query 1: unknown verse node 999$"):
            import_bytes(data, toy4_corpus)

    @pytest.mark.parametrize("node", [2**70, -1])
    def test_an_out_of_range_node_in_a_later_entry(self, toy4_corpus, node):
        data = self.store_file(toy4_corpus, entry(1, [[301, [3]]]), entry(2, [[301, [1, node]]]))
        with pytest.raises(StoreError, match=rf"^saved query 2: unknown matched node {node}$"):
            import_bytes(data, toy4_corpus)


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

    def test_warning_names_the_callers_line(self, toy4_corpus, tmp_path):
        store, _ = fox_store(toy4_corpus)
        (tmp_path / "s.json").write_bytes(export_bytes(store))
        for load in (lambda c: import_bytes(export_bytes(store), c), lambda c: import_store(tmp_path / "s.json", c)):
            with pytest.warns(StaleStoreWarning) as records:
                load(self.other_corpus())
            assert [r.filename for r in records] == [__file__]

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

    def test_index_stays_sorted_after_a_descending_import(self, toy4_corpus):
        store = AnnotationStore.for_corpus(toy4_corpus)
        for i, query in enumerate(("[word]", '[word lex="fox"]', "[verse]", "[phrase]")):
            save_query(store, toy4_corpus, query, name=f"q{i}", author="ada", now=STAMP)
        doc = json.loads(export_bytes(store))
        doc["queries"].reverse()
        imported = import_bytes(json.dumps(doc).encode("utf-8"), toy4_corpus)
        assert imported == store
        assert imported.verse_index() == imported.rebuild_verse_index() == {301: [1, 2, 3, 4]}

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
        # Every verse's margin, the last of a long snapshot too, lists the
        # nodes its pair holds, in the saved store and the imported one.
        for which in (store, again):
            for saved in which.queries.values():
                for verse, nodes in saved.snapshot:
                    assert dict((s.id, n) for s, n in margin(which, corpus, verse))[saved.id] == nodes


def _differential_corpora():
    """toy4, random corpora with discontiguous nodes and without, and one
    whose passages are discontiguous phrases."""
    corpora = [Corpus.from_bytes(compile_to_bytes(toy4())[0])]
    multi = plain = 0
    for seed in range(100):
        c = Corpus.from_bytes(compile_to_bytes(random_corpus(random.Random(seed), max_words=40))[0])
        if c._nruns.max() > 1 and multi < 5:
            corpora.append(c)
            multi += 1
        elif c._nruns.max() == 1 and plain < 2:
            corpora.append(c)
            plain += 1
    logical = random_corpus(random.Random(2), max_words=60, tricky_values=False)
    logical = replace(logical, metadata=replace(logical.metadata, passage_otype="phrase"))
    corpora.append(Corpus.from_bytes(compile_to_bytes(logical)[0]))
    return corpora


def _saved_store(corpus, rng):
    store = AnnotationStore.for_corpus(corpus)
    for i in range(rng.randint(2, 5)):
        try:
            save_query(store, corpus, random_query(rng, corpus), name=f"q{i}", author="fuzz", now=STAMP)
        except QueryError:
            continue
    return store


_BAD_IDS = (999_999, -1, 2**32, 2**63, 2**70, -(2**70))


def _mutate(doc, corpus, rng):
    """One mutation of a store document, drawn at random."""
    entries = doc["queries"]
    if not entries:
        return
    e = rng.choice(entries)
    snapshot = e.get("snapshot")  # an earlier mutation may have dropped or retyped it
    pairs = [p for p in snapshot if type(p) is list and len(p) == 2 and type(p[1]) is list] if type(snapshot) is list else []
    ids = list(corpus.nodes())
    kind = rng.randrange(13)
    if kind == 0:
        del e[rng.choice(sorted(e))]
    elif kind == 1:
        e[rng.choice(sorted(e))] = rng.choice(["x", 1.5, True, None, [], 7, [[1, "2"]], [[1]]])
    elif kind == 2 and pairs:  # another node of the corpus in place of a verse
        rng.choice(pairs)[0] = rng.choice(ids)
    elif kind == 3 and pairs:  # a bad or foreign node added
        rng.choice(pairs)[1].insert(rng.randint(0, 1), rng.choice(_BAD_IDS))
    elif kind == 4 and pairs:  # a node of the corpus, which may lie outside its verse
        nodes = rng.choice(pairs)[1]
        if nodes:
            nodes[rng.randrange(len(nodes))] = rng.choice(ids)
    elif kind == 5:
        e["id"] = rng.choice(entries).get("id")
    elif kind == 6:
        twin = rng.choice(entries)
        e["author"], e["name"] = twin.get("author"), twin.get("name")
    elif kind == 7 and type(e.get("verse_count")) is int:
        e["verse_count"] += rng.choice([-1, 1])
    elif kind == 8 and pairs:  # a verse repeated
        snapshot.insert(rng.randint(0, len(pairs)), json.loads(json.dumps(rng.choice(pairs))))
        e["verse_count"] = len(snapshot)
    elif kind == 9 and pairs:  # a node repeated under its verse
        nodes = rng.choice(pairs)[1]
        if nodes:
            nodes.insert(rng.randint(0, len(nodes)), rng.choice(nodes))
    elif kind == 10 and pairs:
        rng.choice(pairs)[1].clear()
    elif kind == 11:
        entries.reverse()
    elif pairs:  # a verse or node swapped for a bad id
        pair = rng.choice(pairs)
        if rng.random() < 0.5 or not pair[1]:
            pair[0] = rng.choice(_BAD_IDS)
        else:
            pair[1][rng.randrange(len(pair[1]))] = rng.choice(_BAD_IDS)


def _outcome(read, data, corpus, home):
    """What ``read`` makes of the store file ``data`` checked against
    ``corpus``, with the margin of every indexed verse on ``home``, the
    corpus the store was saved from (or the error that margin raises)."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", StaleStoreWarning)
            store = read(data, corpus)
    except StoreError as exc:
        return "error", str(exc)
    stale = {qid: saved.stale for qid, saved in store.queries.items()}
    margins = {}
    for verse in store.verse_index():
        try:
            margins[verse] = margin(store, home, verse)
        except StoreError as exc:
            margins[verse] = str(exc)
    return store, store.verse_index(), store._next_id, stale, margins


class TestImportAgainstReference:
    """Import and export against their one-query-at-a-time forms in
    ``reference``, on stores saved from real queries and then mutated."""

    def test_mutated_stores_import_like_the_reference(self):
        rng = random.Random(17)
        corpora = _differential_corpora()
        other = corpora[1]
        imported = failed = 0
        for corpus in corpora:
            for _ in range(40):
                store = _saved_store(corpus, rng)
                doc = json.loads(export_bytes(store))
                for _ in range(rng.choice([1, 1, 2, 3])):
                    _mutate(doc, corpus, rng)
                data = json.dumps(doc).encode("utf-8")
                for against in (corpus, None, other):
                    got = _outcome(import_bytes, data, against, corpus)
                    assert got == _outcome(reference.import_store_bytes, data, against, corpus), doc
                    failed += got[0] == "error"
                    imported += got[0] != "error"
        assert imported > 100 and failed > 300

    def test_export_equals_the_reference(self):
        rng = random.Random(5)
        for corpus in _differential_corpora():
            for _ in range(5):
                store = _saved_store(corpus, rng)
                for saved in store.queries.values():
                    assert _saved_query_text(saved) == reference.saved_query_text(saved)
                assert export_bytes(import_bytes(export_bytes(store), corpus)) == export_bytes(store)
