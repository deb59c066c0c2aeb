import json
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from fabric.compiler import compile_to_bytes
from fabric.corpus import Corpus
from fabric.featuredoc import TRUNCATE_AT, feature_frequency, render_docs
from fabric.model import EDGE_KIND, Edge, FeatureAssignment
from fabric.synth import random_corpus, toy4


def load(logical):
    return Corpus.from_bytes(compile_to_bytes(logical)[0])


class TestGoldenTables:
    def test_pinned_frequencies(self, toy4_corpus, golden):
        want = golden("toy4_featuredoc.json")
        for otype, key, field in (
            ("phrase", "typ", "phrase_typ"),
            ("word", "lex", "word_lex"),
            ("word", "text", "word_text"),
        ):
            table = feature_frequency(toy4_corpus, otype, key)
            assert [[v, c] for v, c in table.entries] == want[field]
            assert table.total == sum(c for _v, c in table.entries)

    def test_pinned_file_set(self, tmp_path, toy4_corpus, golden):
        want = golden("toy4_featuredoc.json")
        written = render_docs(toy4_corpus, tmp_path)
        assert sorted(written) == want["doc_files"]
        assert sorted(p.name for p in tmp_path.iterdir()) == want["doc_files"]
        index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        assert len(index["tables"]) == want["table_count"]

    def test_index_document(self, tmp_path, toy4_corpus):
        render_docs(toy4_corpus, tmp_path)
        index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        assert index["corpus_fingerprint"] == toy4_corpus.fingerprint
        assert index["stats"]["features"] == 10
        totals = {(r["otype"], r["key"]): r["total"] for r in index["tables"]}
        assert totals == {("phrase", "typ"): 2, ("word", "lex"): 4, ("word", "text"): 4}


class TestOrdering:
    def test_count_desc_then_value_asc(self, toy4_logical):
        skewed = replace(
            toy4_logical,
            features=toy4_logical.features
            + (
                FeatureAssignment("N", 201, "typ", "NP"),
                FeatureAssignment("N", 301, "typ", "AA"),
            ),
        )
        # typ values: phrase NP, phrase VP, clause NP, verse AA
        table = feature_frequency(load(skewed), "phrase", "typ")
        assert table.entries == (("NP", 1), ("VP", 1))
        all_typ = [
            feature_frequency(load(skewed), t, "typ").entries
            for t in ("clause", "verse")
        ]
        assert all_typ == [(("NP", 1),), (("AA", 1),)]

    def test_index_lists_tables_by_otype_then_key(self, tmp_path, toy4_logical):
        # typ on verse, clause and phrase, whose otype ranks run against
        # their names' order
        extra = (FeatureAssignment("N", 201, "typ", "NP"), FeatureAssignment("N", 301, "typ", "AA"))
        render_docs(load(replace(toy4_logical, features=toy4_logical.features + extra)), tmp_path)
        index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        rows = [(r["otype"], r["key"]) for r in index["tables"]]
        assert rows == sorted(rows) and ("verse", "typ") in rows

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_matches_reference_counter(self, seed):
        logical = random_corpus(random.Random(seed))
        corpus = load(logical)
        group_of = {("N", n.id): n.otype for n in logical.nodes}
        group_of.update({("E", e.id): e.label for e in logical.edges})
        for kind in ("N", "E"):
            for key in corpus.feature_keys(kind):
                values_by_group: dict[str, list[str]] = {}
                for f in logical.features:
                    if f.kind == kind and f.key == key:
                        values_by_group.setdefault(group_of[kind, f.target], []).append(f.value)
                for group, values in values_by_group.items():
                    table = feature_frequency(corpus, group, key, kind)
                    assert list(table.entries) == reference.frequency(values)
                    assert table.total == len(values)


class TestEdgeTables:
    def corpus(self):
        base = toy4()
        return load(
            replace(
                base,
                edges=(Edge(1, 4, 3, "dep"), Edge(2, 4, 1, "dep"), Edge(3, 101, 102, "link")),
                features=base.features
                + (
                    FeatureAssignment(EDGE_KIND, 1, "role", "subj"),
                    FeatureAssignment(EDGE_KIND, 2, "role", "subj"),
                    FeatureAssignment(EDGE_KIND, 3, "role", "link"),
                ),
            )
        )

    def test_edge_frequency_is_per_label(self):
        corpus = self.corpus()
        dep = feature_frequency(corpus, "dep", "role", EDGE_KIND)
        assert dep.entries == (("subj", 2),)
        link = feature_frequency(corpus, "link", "role", EDGE_KIND)
        assert link.entries == (("link", 1),)

    def test_edge_docs_are_written(self, tmp_path):
        written = render_docs(self.corpus(), tmp_path)
        assert "edge-dep.role.txt" in written
        assert "edge-link.role.json" in written

    def test_label_order_is_not_id_order(self, tmp_path):
        # EDGES is ordered by label, so edge 2 ("a") is stored before edge 1.
        base = toy4()
        corpus = load(
            replace(
                base,
                edges=(Edge(1, 4, 3, "z"), Edge(2, 4, 1, "a"), Edge(3, 101, 102, "z")),
                features=base.features
                + (
                    FeatureAssignment(EDGE_KIND, 1, "role", "subj"),
                    FeatureAssignment(EDGE_KIND, 2, "role", "obj"),
                    FeatureAssignment(EDGE_KIND, 3, "role", "subj"),
                ),
            )
        )
        assert feature_frequency(corpus, "a", "role", EDGE_KIND).entries == (("obj", 1),)
        assert feature_frequency(corpus, "z", "role", EDGE_KIND).entries == (("subj", 2),)
        render_docs(corpus, tmp_path)
        index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        edge_rows = [(r["otype"], r["key"], r["total"]) for r in index["tables"] if r["kind"] == EDGE_KIND]
        assert edge_rows == [("a", "role", 1), ("z", "role", 2)]

    def test_unknown_edge_label(self):
        with pytest.raises(KeyError):
            feature_frequency(self.corpus(), "nope", "role", EDGE_KIND)


class TestErrors:
    def test_unknown_key(self, toy4_corpus):
        with pytest.raises(KeyError):
            feature_frequency(toy4_corpus, "word", "nope")

    def test_unknown_otype(self, toy4_corpus):
        with pytest.raises(KeyError):
            feature_frequency(toy4_corpus, "nope", "text")

    def test_key_on_wrong_otype_is_empty(self, toy4_corpus):
        table = feature_frequency(toy4_corpus, "verse", "lex")
        assert table.total == 0 and table.entries == ()


class TestRendering:
    def long_value_corpus(self):
        base = toy4()
        long_value = "x" * 150
        features = tuple(
            f if not (f.target == 101 and f.key == "typ") else replace(f, value=long_value)
            for f in base.features
        )
        return load(replace(base, features=features)), long_value

    def test_txt_truncates_long_values(self, tmp_path):
        corpus, long_value = self.long_value_corpus()
        render_docs(corpus, tmp_path)
        txt = (tmp_path / "phrase.typ.txt").read_text(encoding="utf-8")
        assert long_value not in txt
        truncated = long_value[: TRUNCATE_AT - 1] + "…"
        assert truncated in txt

    def test_json_keeps_full_values(self, tmp_path):
        corpus, long_value = self.long_value_corpus()
        render_docs(corpus, tmp_path)
        doc = json.loads((tmp_path / "phrase.typ.json").read_text(encoding="utf-8"))
        assert {"value": long_value, "count": 1} in doc["values"]

    def test_short_values_are_untouched(self, tmp_path, toy4_corpus):
        render_docs(toy4_corpus, tmp_path)
        txt = (tmp_path / "word.lex.txt").read_text(encoding="utf-8")
        assert "fox" in txt and "…" not in txt

    def test_regeneration_is_identical(self, tmp_path, toy4_corpus):
        first = tmp_path / "a"
        second = tmp_path / "b"
        render_docs(toy4_corpus, first)
        render_docs(toy4_corpus, second)
        for path in sorted(first.iterdir()):
            assert path.read_bytes() == (second / path.name).read_bytes()

    def test_totals_reconcile_with_stats(self, tmp_path, toy4_corpus):
        render_docs(toy4_corpus, tmp_path)
        index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        assert sum(r["total"] for r in index["tables"]) == toy4_corpus.stats().features


def renamed(otypes, edges=(), features=()):
    """toy4 with the otypes of some nodes replaced (by node id), declared
    in the rank list, plus edges and features."""
    base = toy4()
    nodes = tuple(replace(n, otype=otypes.get(n.id, n.otype)) for n in base.nodes)
    metadata = replace(base.metadata, otypes=base.metadata.otypes + tuple(otypes.values()))
    return load(replace(base, nodes=nodes, edges=edges, features=base.features + features, metadata=metadata))


class TestFileNames:
    """A file name writes "%", ".", "/", "\\" and control characters of an
    otype, label or key as "%XX": each table gets its own file, inside the
    output directory, and a plain name is kept as it is."""

    def test_names_stay_inside_the_directory(self, tmp_path):
        corpus = renamed({301: ""}, features=(FeatureAssignment("N", 301, "/../../escaped", "v"),))
        out = tmp_path / "a" / "b" / "out"
        written = render_docs(corpus, out)
        assert ".%2F%2E%2E%2F%2E%2E%2Fescaped.txt" in written
        assert sorted(p.relative_to(out).as_posix() for p in tmp_path.rglob("*") if p.is_file()) == sorted(written)

    def test_control_character_in_a_key(self, tmp_path):
        corpus = renamed({}, features=(FeatureAssignment("N", 301, "k\0e\ty", "v"),))
        written = render_docs(corpus, tmp_path)
        assert "verse.k%00e%09y.txt" in written
        doc = json.loads((tmp_path / "verse.k%00e%09y.json").read_text(encoding="utf-8"))
        assert (doc["key"], doc["values"]) == ("k\0e\ty", [{"value": "v", "count": 1}])

    def test_long_names_are_cut_at_a_character(self, tmp_path):
        """A name past 255 bytes keeps a prefix that ends on a whole
        character, then "~" and a hash; a key's own "~" is escaped, so no
        name kept whole holds one."""
        long_key, tilde = FeatureAssignment("N", 301, "\u00e9" * 150, "v"), FeatureAssignment("N", 301, "a~b", "w")
        corpus = renamed({}, features=(long_key, tilde))
        written = render_docs(corpus, tmp_path)
        assert "verse.a%7Eb.txt" in written
        long = [name for name in written if "\u00e9" in name]
        assert len(long) == 2
        for name in long:
            assert re.fullmatch("verse\\.\u00e9+~[0-9a-f]{16}\\.(txt|json)", name)
            assert len(name.encode()) <= 255

    def test_names_that_would_share_a_file(self, tmp_path):
        """Read as another split at a dot, or as an edge label's table, the
        first four would collide in pairs; a "%" is escaped too, so no name
        can spell another's escape."""
        corpus = renamed(
            {101: "a.b", 102: "a", 201: "edge-dep", 301: "x%2Fy"},
            edges=(Edge(1, 4, 3, "dep"),),
            features=(
                FeatureAssignment("N", 101, "c", "1"),
                FeatureAssignment("N", 102, "b.c", "2"),
                FeatureAssignment("N", 201, "role", "3"),
                FeatureAssignment(EDGE_KIND, 1, "role", "4"),
                FeatureAssignment("N", 301, "k", "5"),
            ),
        )
        written = render_docs(corpus, tmp_path)
        names = ["a%2Eb.c", "a.b%2Ec", "edge%2Ddep.role", "edge-dep.role", "x%252Fy.k"]
        assert {f"{name}.json" for name in names} <= set(written)
        assert len(set(written)) == len(written) == len(list(tmp_path.iterdir()))
        index = json.loads((tmp_path / "index.json").read_text(encoding="utf-8"))
        assert sorted(f for row in index["tables"] for f in row["files"]) == sorted(written[:-2])
