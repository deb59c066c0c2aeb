import dataclasses
import gc
import random
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from fabric.compiler import compile_corpus, compile_to_bytes
from fabric.errors import IngestError, ValidationFailure
from fabric.ingest import (
    IngestWarning,
    _byte_scan,
    _handler_scan,
    _parse_graf,
    escape_cell,
    extract_id,
    parse_graf,
    parse_tabular,
    unescape_cell,
    validate,
)
from fabric.model import (
    CorpusMetadata,
    Edge,
    FeatureAssignment,
    LogicalCorpus,
    MonadSet,
    Node,
    Region,
)
from fabric.synth import random_corpus, toy4, write_big_graf, write_graf, write_tabular
import reference
from strategies import cell_text


def codes(exc: ValidationFailure) -> set[str]:
    return {issue.code for issue in exc.value.report.errors}


def tiny(
    text="ab cd",
    slots=(Region(0, 2), Region(3, 5)),
    nodes=(
        Node(1, "word", MonadSet.from_monads([1])),
        Node(2, "word", MonadSet.from_monads([2])),
    ),
    edges=(),
    features=(),
    metadata=CorpusMetadata(otypes=("phrase", "word")),
):
    return LogicalCorpus.assemble(
        text=text, slots=slots, nodes=nodes, edges=edges, features=features, metadata=metadata
    )


class TestToy4Ingest:
    def test_graf_matches_builder(self, toy4_tree, toy4_logical):
        assert parse_graf(toy4_tree / "graf" / "toy4.graf") == toy4_logical

    def test_tabular_matches_builder(self, toy4_tree, toy4_logical):
        assert parse_tabular(toy4_tree / "tabular") == toy4_logical

    def test_front_ends_compile_to_identical_bytes(self, toy4_tree):
        from_graf = parse_graf(toy4_tree / "graf" / "toy4.graf")
        from_tabular = parse_tabular(toy4_tree / "tabular")
        assert compile_to_bytes(from_graf)[0] == compile_to_bytes(from_tabular)[0]

    @pytest.mark.parametrize("key_values", ["graf/c.graf", "tabular/meta.txt"])
    def test_byte_order_mark_before_key_values_is_dropped(self, tmp_path, toy4_logical, key_values):
        write_graf(toy4_logical, tmp_path / "graf", stem="c")
        write_tabular(toy4_logical, tmp_path / "tabular")
        path = tmp_path / key_values
        path.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        assert parse_graf(tmp_path / "graf" / "c.graf") == toy4_logical
        assert parse_tabular(tmp_path / "tabular") == toy4_logical

    def test_builder_corpus_is_valid(self, toy4_logical):
        report = validate(toy4_logical)
        assert report.ok and not report.warnings

    def test_builder_stats(self, toy4_logical, golden):
        want = golden("toy4_core.json")["stats"]
        stats = toy4_logical.stats()
        assert stats.words == want["words"]
        assert stats.nodes == want["nodes"]
        assert stats.features == want["features"]
        assert stats.edges == want["edges"]


class TestValidate:
    def check(self, corpus, code):
        report = validate(corpus)
        assert code in {i.code for i in report.errors}, report

    def test_no_slots(self):
        self.check(tiny(slots=(), nodes=()), "NO_SLOTS")

    def test_region_bounds(self):
        self.check(tiny(slots=(Region(0, 2), Region(3, 9))), "REGION_BOUNDS")

    def test_slot_overlap(self):
        self.check(tiny(slots=(Region(0, 3), Region(2, 5))), "SLOT_OVERLAP")

    def test_duplicate_node_id(self):
        dup = tiny(
            nodes=(
                Node(1, "word", MonadSet.from_monads([1])),
                Node(1, "word", MonadSet.from_monads([2])),
            )
        )
        self.check(dup, "DUPLICATE_NODE_ID")

    def test_empty_monads(self):
        bad = tiny(
            nodes=(
                Node(1, "word", MonadSet.from_monads([1])),
                Node(2, "word", MonadSet.from_monads([2])),
                Node(3, "phrase", MonadSet(())),
            )
        )
        self.check(bad, "EMPTY_MONADS")

    def test_monad_range(self):
        bad = tiny(
            nodes=(
                Node(1, "word", MonadSet.from_monads([1])),
                Node(2, "word", MonadSet.from_monads([2])),
                Node(3, "phrase", MonadSet.from_monads([1, 2, 3])),
            )
        )
        self.check(bad, "MONAD_RANGE")

    def test_slot_arity(self):
        bad = tiny(
            nodes=(
                Node(1, "word", MonadSet.from_monads([1, 2])),
                Node(2, "word", MonadSet.from_monads([2])),
            )
        )
        self.check(bad, "SLOT_ARITY")

    def test_duplicate_slot_node(self):
        bad = tiny(
            nodes=(
                Node(1, "word", MonadSet.from_monads([1])),
                Node(2, "word", MonadSet.from_monads([1])),
            )
        )
        self.check(bad, "DUPLICATE_SLOT_NODE")

    def test_missing_slot_node(self):
        bad = tiny(nodes=(Node(1, "word", MonadSet.from_monads([1])),))
        self.check(bad, "MISSING_SLOT_NODE")

    def test_undeclared_otype_is_a_warning(self):
        corpus = tiny(
            nodes=(
                Node(1, "word", MonadSet.from_monads([1])),
                Node(2, "word", MonadSet.from_monads([2])),
                Node(3, "para", MonadSet.from_monads([1, 2])),
            )
        )
        report = validate(corpus)
        assert report.ok
        assert {w.code for w in report.warnings} == {"UNDECLARED_OTYPE"}
        with pytest.warns(IngestWarning, match="UNDECLARED_OTYPE"):
            compile_to_bytes(corpus)

    def test_duplicate_edge_id(self):
        bad = tiny(edges=(Edge(1, 1, 2, "dep"), Edge(1, 2, 1, "dep")))
        self.check(bad, "DUPLICATE_EDGE_ID")

    def test_dangling_edge(self):
        self.check(tiny(edges=(Edge(1, 1, 99, "dep"),)), "DANGLING_EDGE")

    def test_self_containment(self):
        self.check(tiny(edges=(Edge(1, 1, 1, "parent"),)), "SELF_CONTAINMENT")

    def test_self_loop_with_plain_label_is_fine(self):
        assert validate(tiny(edges=(Edge(1, 1, 1, "coref"),))).ok

    def test_bad_feature_kind(self):
        self.check(tiny(features=(FeatureAssignment("X", 1, "text", "ab"),)), "BAD_KIND")

    def test_dangling_feature_target(self):
        self.check(tiny(features=(FeatureAssignment("N", 42, "text", "ab"),)), "DANGLING_TARGET")

    def test_duplicate_feature(self):
        bad = tiny(
            features=(
                FeatureAssignment("N", 1, "text", "ab"),
                FeatureAssignment("N", 1, "text", "xy"),
            )
        )
        self.check(bad, "DUPLICATE_FEATURE")

    def test_int_value(self):
        bad = tiny(
            features=(FeatureAssignment("N", 1, "freq", "lots"),),
            metadata=CorpusMetadata(otypes=("word",), int_features=frozenset({"freq"})),
        )
        self.check(bad, "INT_VALUE")

    def test_int_value_beyond_int64(self):
        bad = tiny(
            features=(FeatureAssignment("N", 1, "freq", str(2**63)),),
            metadata=CorpusMetadata(otypes=("word",), int_features=frozenset({"freq"})),
        )
        self.check(bad, "INT_VALUE")

    @pytest.mark.parametrize("nid", [2**32, 2**63, 2**70, -1])
    def test_node_id_beyond_the_image_format(self, nid):
        words = (Node(1, "word", MonadSet.from_monads([1])), Node(2, "word", MonadSet.from_monads([2])))
        report = validate(tiny(nodes=words + (Node(nid, "phrase", MonadSet.from_monads([1, 2])),)))
        assert [(i.code, "32-bit" in i.message) for i in report.errors] == [("ID_RANGE", True)]

    def test_ids_past_int64_are_reported_as_given(self):
        """Two different ids past int64 are no duplicate; each report names
        its own id, as do the references to no node past int64."""
        words = (Node(1, "word", MonadSet.from_monads([1])), Node(2, "word", MonadSet.from_monads([2])))
        phrases = (Node(2**71, "phrase", MonadSet.from_monads([1, 2])), Node(2**70, "phrase", MonadSet.from_monads([2])))
        report = validate(tiny(nodes=words + phrases, edges=(Edge(3, 1, 2**72, "dep"),),
                               features=(FeatureAssignment("N", 2**73, "k", "v"),)))
        assert [(i.code, i.where, i.message) for i in report.errors] == [
            ("DANGLING_EDGE", "edge 3", f"to references unknown node {2**72}"),
            ("DANGLING_TARGET", f"feature N:{2**73}:k", f"feature targets unknown node {2**73}"),
            ("ID_RANGE", f"node {2**70}", f"node id {2**70} exceeds the 32-bit image format limit"),
            ("ID_RANGE", f"node {2**71}", f"node id {2**71} exceeds the 32-bit image format limit"),
        ]

    def test_widest_ids_the_image_format_stores(self):
        words = (Node(1, "word", MonadSet.from_monads([1])), Node(2, "word", MonadSet.from_monads([2])))
        top = 2**32 - 1
        assert validate(tiny(nodes=words + (Node(top, "phrase", MonadSet.from_monads([1])),))).ok
        assert validate(tiny(edges=(Edge(top, 1, 2, "dep"),))).ok

    def test_edge_id_beyond_the_image_format(self):
        report = validate(tiny(edges=(Edge(2**32, 1, 2, "dep"),)))
        assert [(i.code, i.where) for i in report.errors] == [("ID_RANGE", f"edge {2**32}")]

    def test_failure_message_counts_remaining_errors(self):
        report = validate(tiny(slots=(), nodes=()))
        exc = ValidationFailure(report)
        first = report.errors[0]
        assert str(exc).startswith(f"{first.code}: {first.message}")
        if len(report.errors) > 1:
            assert f"(+{len(report.errors) - 1} more)" in str(exc)


@st.composite
def broken_corpora(draw):
    """A random corpus with one to five defects of the kinds ``validate``
    reports, as a hand-built corpus in canonical order or in the order the
    defects were appended."""
    corpus = random_corpus(random.Random(draw(st.integers(0, 2**32 - 1))), max_words=10)
    slots, nodes, edges, features = list(corpus.slots), list(corpus.nodes), list(corpus.edges), list(corpus.features)
    width, slot = len(corpus.slots), corpus.metadata.slot_otype
    ids = [n.id for n in nodes]
    some_id = st.sampled_from(ids + [max(ids) + 1, 2**32 - 1, 2**32])
    new_id = st.sampled_from([max(ids) + 1, max(ids) + 2, 2**32 - 1, 2**32])
    monads = st.frozensets(st.integers(1, width + 2), max_size=3).map(MonadSet.from_monads)
    otype = st.sampled_from(sorted({n.otype for n in nodes}) + ["para"])
    for defect in draw(st.lists(st.integers(0, 7), min_size=1, max_size=5)):
        if defect == 0:  # a repeated node id, any monads (empty, past the text, a second owner)
            nodes.append(Node(draw(st.sampled_from(ids)), draw(otype), draw(monads)))
        elif defect == 1:  # a new node: a multi-monad slot, a doubly owned slot, an id past 32 bits
            one = st.integers(1, width).map(lambda m: MonadSet.from_monads([m]))
            nodes.append(Node(draw(new_id), draw(st.sampled_from([slot, "phrase"])), draw(st.one_of(monads, one))))
        elif defect == 2 and nodes:  # a node gone: a missing slot, dangling edges and targets
            nodes.pop(draw(st.integers(0, len(nodes) - 1)))
        elif defect == 3:  # an edge: dangling, a containment self-loop, an id repeated or past 32 bits
            src = draw(some_id)
            dst = draw(st.sampled_from([src, draw(some_id)]))
            edge_id = draw(st.sampled_from([e.id for e in edges] + [1, 2**32]))
            edges.append(Edge(edge_id, src, dst, draw(st.sampled_from(["parent", "role"]))))
        elif defect in (4, 5):  # a feature: a bad kind, a dangling or repeated target, a non-integer
            kind = draw(st.sampled_from(["N", "E", "X"]))
            target = draw(st.sampled_from([f.target for f in features] + [e.id for e in edges] + [99_999]))
            key = draw(st.sampled_from(["freq", "lex", "typ"]))
            value = draw(st.sampled_from(["7", " 8 ", "lots", "1_0", "²", str(2**63), ""]))
            features.append(FeatureAssignment(kind, target, key, value))
        elif defect == 6 and features:  # a repeated feature
            features.append(dataclasses.replace(draw(st.sampled_from(features)), value="again"))
        elif defect == 7 and slots:  # a slot region past the text or over the next one, or no slots at all
            i = draw(st.integers(0, len(slots) - 1))
            slots[i] = Region(slots[i].start, slots[i].end + draw(st.integers(1, 3)))
            slots = slots if draw(st.integers(0, 9)) else []
    if draw(st.booleans()):
        return LogicalCorpus.assemble(corpus.text, slots, nodes, edges, features, corpus.metadata)
    return dataclasses.replace(
        corpus, slots=tuple(slots), nodes=tuple(nodes), edges=tuple(edges), features=tuple(features)
    )


class TestValidateAgainstOracle:
    @settings(max_examples=300, deadline=None)
    @given(broken_corpora())
    def test_reports_equal_the_object_loop(self, corpus):
        assert validate(corpus) == reference.validate(corpus)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_valid_corpora_pass_both(self, seed):
        corpus = random_corpus(random.Random(seed))
        assert validate(corpus) == reference.validate(corpus)


class TestTabularParsing:
    def write(self, tmp_path, **overrides):
        files = {
            "text.txt": "ab cd",
            "slots.tsv": "slot_index\tstart\tend\n1\t0\t2\n2\t3\t5\n",
            "nodes.tsv": "node_id\totype\tmonadset\nn1\tword\t1\nn2\tword\t2\n",
            "features.tsv": "kind\ttarget_id\tkey\tvalue\nN\tn1\ttext\tab\n",
            "meta.txt": "otypes=phrase,word\n",
        }
        files.update(overrides)
        for name, content in files.items():
            (tmp_path / name).write_text(content, encoding="utf-8")
        return tmp_path

    def test_minimal_directory_parses(self, tmp_path):
        corpus = parse_tabular(self.write(tmp_path))
        assert corpus.stats().words == 2
        assert corpus.features[0].value == "ab"

    def test_missing_required_file(self, tmp_path):
        base = self.write(tmp_path)
        (base / "slots.tsv").unlink()
        with pytest.raises(IngestError, match="missing slots.tsv"):
            parse_tabular(base)

    def test_error_carries_file_and_line(self, tmp_path):
        with pytest.raises(IngestError, match=r"not a directory"):
            parse_tabular(tmp_path / "absent")

    def test_malformed_monad_range(self, tmp_path):
        base = self.write(
            tmp_path,
            **{"nodes.tsv": "node_id\totype\tmonadset\nn9\tphrase\t5-3\n"},
        )
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_MONADS" in codes(exc)

    def test_bad_header(self, tmp_path):
        base = self.write(tmp_path, **{"slots.tsv": "slot\tstart\tend\n1\t0\t2\n"})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_HEADER" in codes(exc)

    def test_bad_row_width(self, tmp_path):
        base = self.write(tmp_path, **{"slots.tsv": "slot_index\tstart\tend\n1\t0\n2\t3\t5\n"})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_ROW" in codes(exc)

    def test_bad_int(self, tmp_path):
        base = self.write(tmp_path, **{"slots.tsv": "slot_index\tstart\tend\n1\tzero\t2\n"})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_INT" in codes(exc)

    def test_bad_id(self, tmp_path):
        base = self.write(
            tmp_path, **{"nodes.tsv": "node_id\totype\tmonadset\n-n1-\tword\t1\n"}
        )
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_ID" in codes(exc)

    def test_duplicate_slot_index(self, tmp_path):
        base = self.write(
            tmp_path, **{"slots.tsv": "slot_index\tstart\tend\n1\t0\t2\n1\t3\t5\n"}
        )
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "DUPLICATE_SLOT" in codes(exc)

    def test_sparse_slot_numbering(self, tmp_path):
        base = self.write(
            tmp_path, **{"slots.tsv": "slot_index\tstart\tend\n1\t0\t2\n3\t3\t5\n"}
        )
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "SLOT_NUMBERING" in codes(exc)

    def test_bad_region(self, tmp_path):
        base = self.write(tmp_path, **{"slots.tsv": "slot_index\tstart\tend\n1\t2\t2\n2\t3\t5\n"})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_REGION" in codes(exc)

    def test_bad_escape(self, tmp_path):
        base = self.write(
            tmp_path,
            **{"features.tsv": "kind\ttarget_id\tkey\tvalue\nN\tn1\ttext\tbad\\x\n"},
        )
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert "BAD_ESCAPE" in codes(exc)

    # Slot 2 has no word node: every row is well formed, the corpus is not.
    ONE_WORD = {"nodes.tsv": "node_id\totype\tmonadset\nn1\tword\t1\n"}

    def test_structural_defect_is_left_to_the_compiler(self, tmp_path):
        corpus = parse_tabular(self.write(tmp_path, **self.ONE_WORD))
        assert [n.id for n in corpus.nodes] == [1]

    def test_compiler_rejects_structural_defect(self, tmp_path):
        corpus = parse_tabular(self.write(tmp_path, **self.ONE_WORD))
        target = tmp_path / "out.fab"
        target.write_bytes(b"previous image")
        with pytest.raises(ValidationFailure) as exc:
            compile_corpus(corpus, target)
        assert codes(exc) == {"MISSING_SLOT_NODE"}
        assert target.read_bytes() == b"previous image"

    def test_comments_and_blank_lines_are_skipped(self, tmp_path):
        base = self.write(
            tmp_path,
            **{
                "slots.tsv": "# layout\n\nslot_index\tstart\tend\n1\t0\t2\n\n2\t3\t5\n",
            },
        )
        assert len(parse_tabular(base).slots) == 2

    SLOTS = "slot_index\tstart\tend\n"
    NODES = "node_id\totype\tmonadset\n"
    FEATURES = "kind\ttarget_id\tkey\tvalue\n"
    EDGES = "edge_id\tfrom\tto\tlabel\n"

    @pytest.mark.parametrize(
        "name,content,want",
        [
            (
                "slots.tsv", "# c\n\nslot\tstart\tend\n1\t0\t2\n",
                [("BAD_HEADER", 3, "expected header ['slot_index', 'start', 'end'], got ['slot', 'start', 'end']")],
            ),
            ("nodes.tsv", "# only a comment\n\n", [("BAD_HEADER", None, "missing header line")]),
            ("slots.tsv", SLOTS + "1\t0\t2\n2\t3\n", [("BAD_ROW", 3, "expected 3 columns, got 2")]),
            ("slots.tsv", SLOTS + "1\t0\t2\n2\t3\t5\t\n", [("BAD_ROW", 3, "expected 3 columns, got 4")]),
            ("slots.tsv", SLOTS + "1\t0\t2\n2\tzero\t5\n", [("BAD_INT", 3, "start must be an integer, got 'zero'")]),
            (
                "slots.tsv", SLOTS + "x\t0\t2\n2\t3\ty\n",
                [
                    ("BAD_INT", 2, "slot_index must be an integer, got 'x'"),
                    ("BAD_INT", 3, "end must be an integer, got 'y'"),
                ],
            ),
            (
                "nodes.tsv", NODES + "n1\tword\t1\n-n1-\tword\t2\n",
                [("BAD_ID", 3, "node_id must be a positive id, got '-n1-'")],
            ),
            (
                "nodes.tsv", NODES + "n1\tword\t1\nn0\tword\t5-3\n",
                [
                    ("BAD_ID", 3, "node_id must be a positive id, got 'n0'"),
                    ("BAD_MONADS", 3, "malformed monad range '5-3'"),
                ],
            ),
            (
                "features.tsv", FEATURES + "N\tt1x\ttext\tbad\\x\n",
                [("BAD_ID", 2, "target_id must be a positive id, got 't1x'")],
            ),
            (
                "edges.tsv", EDGES + "0\tn1\tn2\tl\ne1\tn?\tx2y\tl\n",
                [
                    ("BAD_ID", 2, "edge_id must be a positive id, got '0'"),
                    ("BAD_ID", 3, "from must be a positive id, got 'n?'"),
                    ("BAD_ID", 3, "to must be a positive id, got 'x2y'"),
                ],
            ),
            (
                "nodes.tsv", NODES + "n1\tword\t1\nn2\tword\t2\nn3\tphrase\t1-2,x\n",
                [("BAD_MONADS", 4, "malformed monad range 'x'")],
            ),
            ("slots.tsv", SLOTS + "1\t0\t2\n3\t3\t5\n", [("SLOT_NUMBERING", 0, "slot indices must be dense 1..W")]),
            (
                "slots.tsv", SLOTS + "1\t0\t2\n2\t3\t3\n",
                [("BAD_REGION", 3, "bad region (3, 3): need 0 <= start < end")],
            ),
            ("features.tsv", FEATURES + "N\tn1\ttext\tbad\\x\n", [("BAD_ESCAPE", 2, "dangling backslash")]),
            (
                "slots.tsv", SLOTS + "1\t0\t2\n1\t3\t5\n1\t5\t4\n2\t3\t5\n",
                [
                    ("DUPLICATE_SLOT", 3, "slot 1 defined twice"),
                    ("DUPLICATE_SLOT", 4, "slot 1 defined twice"),
                ],
            ),
            # A row with a bad region takes no slot: the later row with its
            # index is accepted.
            (
                "slots.tsv", SLOTS + "1\t2\t2\n1\t0\t2\n2\t3\t5\n",
                [("BAD_REGION", 2, "bad region (2, 2): need 0 <= start < end")],
            ),
        ],
        ids=[
            "bad-header", "missing-header", "short-row", "long-row", "bad-int", "bad-ints",
            "bad-node-id", "zero-id-and-bad-monads", "bad-target", "bad-edge-ids", "bad-monad-list",
            "slot-numbering", "bad-region", "bad-escape", "duplicate-slot", "duplicate-of-bad-region",
        ],
    )
    def test_reports_each_row_defect(self, tmp_path, name, content, want):
        base = self.write(tmp_path, **{name: content})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        got = [(i.code, i.file, i.line, i.where, i.message) for i in exc.value.report.errors]
        assert got == [(code, str(base / name), line, None, message) for code, line, message in want]
        assert exc.value.report.warnings == ()


    def test_slot_values_past_int64_are_reported_exactly(self, tmp_path):
        big = 2**70
        base = self.write(tmp_path, **{"slots.tsv": self.SLOTS + f"1\t0\t2\n{big}\t3\t5\n{big}\t3\t5\n2\t{2**64}\t5\n"})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        got = [(i.code, i.line, i.message) for i in exc.value.report.errors]
        assert got == [
            ("SLOT_NUMBERING", 0, "slot indices must be dense 1..W"),
            ("DUPLICATE_SLOT", 4, f"slot {big} defined twice"),
            ("BAD_REGION", 5, f"bad region ({2**64}, 5): need 0 <= start < end"),
        ]


def _with_feature(corpus, key, value):
    extra = FeatureAssignment("N", corpus.nodes[0].id, key, value)
    return LogicalCorpus.assemble(
        corpus.text, corpus.slots, corpus.nodes, corpus.edges, corpus.features + (extra,), corpus.metadata
    )


class TestTabularRows:
    r"""Rows end at "\n" only (after one "\r"): any other line break is data."""

    @pytest.mark.parametrize(
        "char", ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"],
        ids=["U+2028", "U+2029", "U+0085", "x0b", "x0c", "x1c", "x1d", "x1e"],
    )
    def test_line_break_in_a_cell_round_trips(self, tmp_path, toy4_logical, char):
        corpus = _with_feature(toy4_logical, f"key{char}", f"a{char}b")
        assert parse_tabular(write_tabular(corpus, tmp_path)) == corpus

    def test_crlf_files_parse_as_lf(self, tmp_path, toy4_logical):
        base = write_tabular(toy4_logical, tmp_path)
        for path in base.iterdir():
            if path.suffix in (".tsv", ".txt") and path.name != "text.txt":
                path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        assert b"\r\n" in (base / "nodes.tsv").read_bytes()
        assert parse_tabular(base) == toy4_logical

    def test_invalid_utf8_is_an_ingest_error(self, tmp_path, toy4_logical):
        base = write_tabular(toy4_logical, tmp_path)
        with (base / "nodes.tsv").open("ab") as f:
            f.write(b"n9\tword\t\xff\n")
        with pytest.raises(IngestError, match="not valid UTF-8") as exc:
            parse_tabular(base)
        assert exc.value.file == str(base / "nodes.tsv")

    @pytest.mark.parametrize("field,value", [("otype", "a\tb"), ("key", "a\nb"), ("label", "a\rb")])
    def test_writer_rejects_a_cell_it_cannot_write(self, tmp_path, toy4_logical, field, value):
        c = toy4_logical
        if field == "otype":
            row = dataclasses.replace(c.nodes[0], otype=value)
            c = dataclasses.replace(c, nodes=(row,) + c.nodes[1:])
        elif field == "key":
            c = _with_feature(c, value, "v")
            row = next(f for f in c.features if f.key == value)
        else:
            row = Edge(9, 1, 2, value)
            c = dataclasses.replace(c, edges=(row,))
        with pytest.raises(ValueError) as exc:
            write_tabular(c, tmp_path)
        assert str(exc.value) == f"{row}: {field} {value!r} holds a tab, CR or LF, which a tabular cell cannot hold"

    @pytest.mark.parametrize(
        "nodes,edges,features,named",
        [
            # "a\tx" sorts first, but node 1 is written first
            ([Node(1, "b\tx", MonadSet.parse("1")), Node(2, "a\tx", MonadSet.parse("2"))], [], [], (0, "otype")),
            # nodes before features, features before edges
            ([Node(1, "word", MonadSet.parse("1")), Node(2, "a\rx", MonadSet.parse("2"))], [Edge(1, 1, 2, "l\n")],
             [FeatureAssignment("N", 1, "k\n", "v")], (1, "otype")),
            ([], [Edge(1, 1, 2, "l\n")], [FeatureAssignment("N", 2, "k\t", "v")], (0, "key")),
            # in one row the kind comes before the key; an earlier row's key before a later row's kind
            ([], [], [FeatureAssignment("N\t", 1, "k\t", "v")], (0, "kind")),
            ([], [], [FeatureAssignment("N", 1, "b\t", "v"), FeatureAssignment("N\t", 2, "a", "v")], (0, "key")),
            ([], [Edge(1, 1, 2, "b\n"), Edge(2, 2, 1, "a\n")], [], (0, "label")),
        ],
    )
    def test_writer_names_the_first_bad_row_in_write_order(self, tmp_path, nodes, edges, features, named):
        c = tiny(nodes=nodes or tiny().nodes, edges=edges, features=features)
        row, field = named
        row = (c.features if field in ("kind", "key") else c.edges if field == "label" else c.nodes)[row]
        with pytest.raises(ValueError) as exc:
            write_tabular(c, tmp_path)
        value = getattr(row, field)
        assert str(exc.value) == f"{row}: {field} {value!r} holds a tab, CR or LF, which a tabular cell cannot hold"

    @pytest.mark.parametrize("seed", range(8))
    def test_corpus_from_objects_and_from_columns_write_the_same_bytes(self, tmp_path, seed):
        """A corpus built with ``assemble`` and the same corpus as a front
        end hands it over, as columns with no objects."""
        made, twin = (random_corpus(random.Random(seed)) if seed else toy4() for _ in range(2))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            parsed = parse_graf(write_graf(twin, tmp_path / "graf"))  # the writer reads the twin's columns
        assert twin == made
        assert "_columns" not in vars(made) and "nodes" not in vars(parsed)
        written = [write_tabular(c, tmp_path / name) for c, name in ((made, "objects"), (parsed, "columns"))]
        files = [{p.name: p.read_bytes() for p in base.iterdir()} for base in written]
        assert files[0] == files[1] and "nodes.tsv" in files[0]

    def test_empty_and_multi_run_monad_sets_round_trip(self, tmp_path):
        """Four nodes with four runs in all, not one each."""
        nodes = tiny().nodes + (Node(3, "phrase", MonadSet.parse("1,3")), Node(4, "phrase", MonadSet(())))
        corpus = tiny(text="ab cd ef", slots=tiny().slots + (Region(6, 8),), nodes=nodes)
        assert len(corpus.columns.first) == len(corpus.nodes)
        rows = (write_tabular(corpus, tmp_path) / "nodes.tsv").read_text(encoding="utf-8").split("\n")
        assert rows[1:-1] == [f"n{n.id}\t{n.otype}\t{n.monads}" for n in nodes]
        assert rows[3:] == ["n3\tphrase\t1,3", "n4\tphrase\t", ""]
        assert parse_tabular(tmp_path) == corpus


# "\u0663" is an Arabic-Indic three, which int() reads; "\u00b2" a superscript two, which it does not.
_NUMBERS = ["1_0", " 5", "5 ", "+5", "\u0663", "n\u0663", "\u00b2", "n0", "0", "00012", "n00012", "_7", "ab12", "a.b-3", "n-1", "7n", "", "x"]
_HUGE = [str(2**63 - 1), str(2**63), "n" + str(2**64 + 3), "9" * 25]
_MONADS = ["3-1", "1-3,5", "2-2", "1,1", " 1-2", "1 - 2", "1--2", "-", "1-", "0", "0-2", "2,1", "1-" + "9" * 20, "\u0663"]
_VALUES = ["bad\\", "a\\tb", "\\q", "\u2028", "x\x85y", "\x0c", "#"]
_ROWS = ["", "   ", "# note", "#\tx", "\t", " \t ", "\x1c"]
_COLUMNS = {  # what each column holds, by file
    "slots.tsv": ("int", "int", "int"),
    "nodes.tsv": ("id", "text", "monads"),
    "features.tsv": ("text", "id", "text", "value"),
    "edges.tsv": ("id", "id", "id", "text"),
}


@st.composite
def mutated_tables(draw):
    """A ``write_tabular`` directory as text, with a few rows or cells
    changed: odd numbers and ids, monad sets and values, extra or missing
    tabs, blank, comment and duplicated rows, and CRLF line ends."""
    corpus = random_corpus(random.Random(draw(st.integers(0, 2**32 - 1))), max_words=10)
    with tempfile.TemporaryDirectory() as tmp:
        base = write_tabular(corpus, Path(tmp))
        files = {path.name: path.read_text(encoding="utf-8") for path in base.iterdir()}
    for _ in range(draw(st.integers(0, 10))):
        name = draw(st.sampled_from(sorted(n for n in files if n in _COLUMNS)))
        lines = files[name].split("\n")
        row = draw(st.integers(1, len(lines) - 1))
        op = draw(st.sampled_from(["cell"] * 8 + ["tab", "cut", "insert", "dup", "header"]))
        if op == "header":
            row = 0
        cells = lines[row].split("\t")
        if op == "cell":
            col = draw(st.integers(0, len(cells) - 1))
            kind = _COLUMNS[name][min(col, len(_COLUMNS[name]) - 1)]
            pool = {
                "int": _NUMBERS + _HUGE, "id": _NUMBERS + _HUGE, "monads": _MONADS + _NUMBERS,
                "value": _VALUES, "text": ["", " ", "x y", "#a", "\u2028"],
            }[kind]
            cells[col] = draw(st.sampled_from(pool))
            lines[row] = "\t".join(cells)
        elif op == "tab":
            at = draw(st.integers(0, len(lines[row])))
            lines[row] = lines[row][:at] + "\t" + lines[row][at:]
        elif op in ("cut", "header") and len(cells) > 1:
            lines[row] = "\t".join(cells[:-1])
        elif op == "insert":
            lines.insert(row, draw(st.sampled_from(_ROWS)))
        elif op == "dup":
            lines.insert(row, lines[row])
        files[name] = "\n".join(lines)
    if draw(st.booleans()):
        name = draw(st.sampled_from(sorted(files)))
        if name != "text.txt":
            files[name] = files[name].replace("\n", "\r\n")
    return files


def _outcome(parse, base):
    """What a parser makes of a directory: its columns, or its report."""
    try:
        columns = parse(base).columns
    except ValidationFailure as exc:
        return exc.report
    except IngestError as exc:
        return (str(exc), exc.file, exc.line)
    return [
        (f, (v.codes.tolist(), v.strings) if isinstance(v, tuple) else v.tolist())
        for f, v in vars(columns).items()
    ]


class TestTabularAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(mutated_tables())
    def test_corpus_or_report_equals_the_row_at_a_time_parser(self, tmp_path_factory, files):
        base = tmp_path_factory.mktemp("tab")
        for name, content in files.items():
            (base / name).write_bytes(content.encode("utf-8"))
        assert _outcome(parse_tabular, base) == _outcome(reference.parse_tabular, base)


class TestIdsPastInt64:
    """Ids past int64 read from a source are reported as the source gives
    them: one ID_RANGE each, and no DUPLICATE_NODE_ID between two of them."""

    WANT = [(code, f"node {nid}") for code, nid in (("ID_RANGE", 88888888888888888888), ("ID_RANGE", 99999999999999999999))]

    def test_tables(self, tmp_path):
        write_tabular(toy4(), tmp_path)
        with open(tmp_path / "nodes.tsv", "a", encoding="utf-8") as nodes:
            nodes.write("n99999999999999999999\tphrase\t1\nn88888888888888888888\tphrase\t2\n")
        assert [(i.code, i.where) for i in validate(parse_tabular(tmp_path)).errors] == self.WANT

    @pytest.mark.parametrize("scan", ["stage 2", "handler scan"])
    def test_graph_xml_ids(self, tmp_path, scan):
        (tmp_path / "c.txt").write_text("ab", encoding="utf-8")
        (tmp_path / "c.xml").write_text(
            '<graph><region xml:id="r1" anchors="0 2"/><node xml:id="n1"><link targets="r1"/></node>'
            '<node xml:id="n99999999999999999999" otype="phrase" monads="1"/>'
            '<node xml:id="x88888888888888888888" otype="phrase" monads="1"/></graph>',
            encoding="utf-8",
        )
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=c.xml\n", encoding="utf-8")
        corpus = parse_graf(tmp_path / "c.graf") if scan == "stage 2" else _parse_graf(tmp_path / "c.graf", _handler_scan)
        assert [(i.code, i.where) for i in validate(corpus).errors] == self.WANT


class TestWarningsNameTheCaller:
    """A warning names the line that called into fabric, not a frame of
    fabric or of ``contextlib``.  ``parse_tabular`` files no warning."""

    def graf(self, tmp_path):
        (tmp_path / "c.txt").write_text("ab", encoding="utf-8")
        (tmp_path / "c.xml").write_text(
            '<graph><region xml:id="r1" anchors="0 2"/><region xml:id="r9" anchors="0 1"/>'
            '<node xml:id="n1"><link targets="r1"/></node></graph>',
            encoding="utf-8",
        )
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=c.xml\n", encoding="utf-8")
        return tmp_path / "c.graf"

    @pytest.mark.parametrize("scan", ["stage 2", "handler scan"])
    def test_parse_graf(self, tmp_path, scan):
        with pytest.warns(IngestWarning, match="UNUSED_REGION") as records:
            parse_graf(self.graf(tmp_path)) if scan == "stage 2" else _parse_graf(self.graf(tmp_path), _handler_scan)
        assert [r.filename for r in records] == [__file__]

    def test_compile(self, tmp_path):
        corpus = tiny(nodes=(Node(1, "word", MonadSet.from_monads([1])), Node(2, "word", MonadSet.from_monads([2])),
                             Node(3, "para", MonadSet.from_monads([1, 2]))))
        for build in (lambda: compile_to_bytes(corpus), lambda: compile_corpus(corpus, tmp_path / "c.fab")):
            with pytest.warns(IngestWarning, match="UNDECLARED_OTYPE") as records:
                build()
            assert [r.filename for r in records] == [__file__]


class TestGrafParsing:
    def header(self, tmp_path, xml, meta_lines=("otypes=phrase,word",)):
        (tmp_path / "c.txt").write_text("ab cd", encoding="utf-8")
        (tmp_path / "c.xml").write_text(xml, encoding="utf-8")
        lines = ["text=c.txt", "annotations=c.xml", *meta_lines]
        (tmp_path / "c.graf").write_text("\n".join(lines) + "\n", encoding="utf-8")
        return tmp_path / "c.graf"

    BASE = """<graph>
<region xml:id="r1" anchors="0 2"/>
<region xml:id="r2" anchors="3 5"/>
<node xml:id="n1"><link targets="r1"/></node>
<node xml:id="n2"><link targets="r2"/></node>
{extra}
</graph>
"""

    def test_minimal_graph_parses(self, tmp_path):
        corpus = parse_graf(self.header(tmp_path, self.BASE.format(extra="")))
        assert corpus.stats().words == 2
        assert corpus.slots == (Region(0, 2), Region(3, 5))

    def test_missing_header_key(self, tmp_path):
        (tmp_path / "c.txt").write_text("ab cd", encoding="utf-8")
        (tmp_path / "c.graf").write_text("text=c.txt\n", encoding="utf-8")
        with pytest.raises(IngestError, match="annotations="):
            parse_graf(tmp_path / "c.graf")

    def test_missing_text_file(self, tmp_path):
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=c.xml\n", encoding="utf-8")
        with pytest.raises(IngestError, match="not found"):
            parse_graf(tmp_path / "c.graf")

    def test_duplicate_xmlid(self, tmp_path):
        xml = self.BASE.format(extra='<node xml:id="n1" otype="phrase" monads="1-2"/>')
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(self.header(tmp_path, xml))
        assert "DUPLICATE_XMLID" in codes(exc)

    def test_bad_anchors(self, tmp_path):
        xml = self.BASE.format(extra="").replace('anchors="0 2"', 'anchors="0"')
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(self.header(tmp_path, xml))
        assert "BAD_ANCHORS" in codes(exc)

    def test_dangling_link(self, tmp_path):
        xml = self.BASE.format(extra='<node xml:id="n3"><link targets="r9"/></node>')
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(self.header(tmp_path, xml))
        assert "DANGLING_LINK" in codes(exc)

    def test_bad_monads_attribute(self, tmp_path):
        xml = self.BASE.format(extra='<node xml:id="n3" otype="phrase" monads="2-1"/>')
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(self.header(tmp_path, xml))
        assert "BAD_MONADS" in codes(exc)

    def test_unused_region_warns(self, tmp_path):
        xml = """<graph>
<region xml:id="r1" anchors="0 2"/>
<region xml:id="r2" anchors="3 5"/>
<region xml:id="r3" anchors="3 5"/>
<node xml:id="n1"><link targets="r1"/></node>
<node xml:id="n2"><link targets="r2"/></node>
</graph>
"""
        with pytest.warns(IngestWarning, match="UNUSED_REGION"):
            parse_graf(self.header(tmp_path, xml))

    @pytest.mark.parametrize("scan", ["stage 2", "handler scan"])
    def test_reports_name_the_file_of_their_row(self, tmp_path, scan):
        """With two annotation files, each report made after the scan names
        the file that holds its row."""
        (tmp_path / "c.txt").write_text("ab cd", encoding="utf-8")
        (tmp_path / "a.xml").write_text("""<graph>
<region xml:id="r1" anchors="0 2"/>
<region xml:id="r3" anchors="3 5"/>
<node xml:id="n1"><link targets="r1"/></node>
<node xml:id="n4" otype="phrase" monads="2-1"/>
<edge xml:id="e1" from="n1" to="n7" label="dep"/>
</graph>
""", encoding="utf-8")
        (tmp_path / "b.xml").write_text("""<graph>
<region xml:id="r2" anchors="3 5"/>
<node xml:id="n2"><link targets="r2"/></node>
<node xml:id="n3"><link targets="r9"/></node>
<node xml:id="x" otype="phrase" monads="1"/>
<a ref="n8"><f name="k" value="v"/></a>
</graph>
""", encoding="utf-8")
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=a.xml b.xml\n", encoding="utf-8")
        assert _byte_scan([tmp_path / "a.xml", tmp_path / "b.xml"]) is not None  # stage 2 reads these files
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(tmp_path / "c.graf") if scan == "stage 2" else _parse_graf(tmp_path / "c.graf", _handler_scan)
        report = exc.value.report
        assert [(i.code, Path(i.file).name, i.where) for i in report.errors] == [
            ("BAD_MONADS", "a.xml", "n4"),
            ("DANGLING_EDGE_REF", "a.xml", "e1"),
            ("BAD_ID", "b.xml", "x"),
            ("DANGLING_LINK", "b.xml", "n3"),
            ("DANGLING_REF", "b.xml", "n8"),
        ]
        assert [(i.code, Path(i.file).name, i.where) for i in report.warnings] == [("UNUSED_REGION", "a.xml", "r3")]

    def test_not_xml(self, tmp_path):
        with pytest.raises(IngestError):
            parse_graf(self.header(tmp_path, "not xml at all"))

    @pytest.mark.parametrize(
        "extra,code,where,message",
        [
            ('<node otype="phrase" monads="1-2"/>', "MISSING_XMLID", None, "<node> has no xml:id"),
            (
                '<node xml:id="n3"><link targets="r1"/><link targets="r2"/></node>',
                "BAD_LINK", "n3", "node 'n3' must link exactly one region",
            ),
            (
                '<node xml:id="n3"><link targets="r1 r2"/></node>',
                "BAD_LINK", "n3", "node 'n3' must link exactly one region",
            ),
            (
                '<node xml:id="n3" monads="1"><link targets="r1"/></node>',
                "BAD_LINK", "n3", "node 'n3' has both a link and monads",
            ),
            (
                '<node xml:id="n3" otype="phrase"><link targets="r1"/></node>',
                "BAD_OTYPE", "n3", "linked node 'n3' cannot have otype 'phrase'",
            ),
            ('<node xml:id="n3" monads="1-2"/>', "MISSING_OTYPE", "n3", "node 'n3' has no otype"),
            ('<node xml:id="n3"/>', "UNANCHORED_NODE", "n3", "node 'n3' has neither a link nor monads"),
            ('<edge xml:id="e1" from="n1"/>', "BAD_EDGE", "e1", "edge 'e1' needs from and to"),
            (
                '<edge xml:id="e1" from="n1" to="n9"/>',
                "DANGLING_EDGE_REF", "e1", "edge 'e1' references unknown node",
            ),
            ('<a><f name="k" value="v"/></a>', "BAD_ANNOTATION", None, "<a> has no ref"),
            ('<a ref="n1"><f name="k"/></a>', "BAD_FEATURE", "n1", "<f> under 'n1' needs name and value"),
            (
                '<a ref="n9"><f name="k" value="v"/></a>',
                "DANGLING_REF", "n9", "annotation references unknown id 'n9'",
            ),
            (
                '<node xml:id="n3"><link targets="r2"/></node>',
                "REGION_REUSED", "n3", "region 'r2' linked by more than one node",
            ),
            (
                '<node xml:id="nx" otype="phrase" monads="1-2"/>',
                "BAD_ID", "nx", "xml:id 'nx' has no positive decimal suffix",
            ),
        ],
    )
    def test_reports_each_source_defect(self, tmp_path, extra, code, where, message):
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(self.header(tmp_path, self.BASE.format(extra=extra)))
        got = [(i.code, i.file, i.line, i.where, i.message) for i in exc.value.report.errors]
        assert got == [(code, str(tmp_path / "c.xml"), None, where, message)]

    @pytest.mark.parametrize(
        "xml,line,message",
        [
            ("<corpus/>", None, "root element must be <graph>, got <corpus>"),
            ("", 1, "malformed XML: no element found: line 1, column 0"),
            (
                BASE.format(extra="").replace('"r1"/></node>', '"r1"/></node', 1),
                5,
                "malformed XML: not well-formed (invalid token): line 5, column 0",
            ),
            (  # 80 kB: the parser's line and text wherever it stops
                BASE.format(extra='<a ref="n1"><f name="k" value="v"/></a>\n' * 2000 + '<a ref="n1">< /a>'),
                2006,
                "malformed XML: not well-formed (invalid token): line 2006, column 13",
            ),
            (
                BASE.format(extra="").replace("<graph>", '<graph xmlns="urn:x">'),
                None,
                "root element must be <graph>, got <{urn:x}graph>",
            ),
        ],
        ids=["not-a-graph", "empty", "malformed", "malformed-past-64kb", "default-namespace"],
    )
    def test_unreadable_xml(self, tmp_path, xml, line, message):
        with pytest.raises(IngestError) as exc:
            parse_graf(self.header(tmp_path, xml))
        assert (exc.value.file, exc.value.line) == (str(tmp_path / "c.xml"), line)
        assert str(exc.value).endswith(message)

    def test_namespaced_elements_and_attributes_are_ignored(self, tmp_path):
        extra = (
            '<x:node xmlns:x="urn:x" xml:id="n3" otype="phrase" monads="1-2"/>'
            '<node xml:id="n4" otype="phrase" monads="1-2" x:monads="1" xmlns:x="urn:x"/>'
        )
        corpus = parse_graf(self.header(tmp_path, self.BASE.format(extra=extra)))
        assert [(n.id, str(n.monads)) for n in corpus.nodes] == [(1, "1"), (2, "2"), (4, "1-2")]

    def test_of_nested_duplicate_ids_the_first_to_end_counts(self, tmp_path):
        """The inner node ends first, so it claims n3 (and lacks an otype);
        the outer one is the duplicate."""
        extra = '<node xml:id="n3" otype="phrase" monads="1-2"><node xml:id="n3" monads="1"/></node>'
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(self.header(tmp_path, self.BASE.format(extra=extra)))
        got = [(i.code, i.where, i.message) for i in exc.value.report.errors]
        assert got == [
            ("DUPLICATE_XMLID", "n3", "xml:id 'n3' used more than once"),
            ("MISSING_OTYPE", "n3", "node 'n3' has no otype"),
        ]

    def test_links_and_features_count_only_as_direct_children(self, tmp_path):
        extra = (
            '<node xml:id="n3" otype="phrase" monads="1-2"><q><link targets="r1"/></q></node>'
            '<a ref="n1"><q><f name="k" value="v"/></q><f name="lex" value="ab"/></a>'
            '<q><f name="k" value="w"/></q>'
        )
        corpus = parse_graf(self.header(tmp_path, self.BASE.format(extra=extra)))
        assert [(n.id, n.otype) for n in corpus.nodes] == [(1, "word"), (2, "word"), (3, "phrase")]
        assert corpus.features == (FeatureAssignment("N", 1, "lex", "ab"),)

    def test_latin1_file_parses_as_its_utf8_twin(self, tmp_path):
        xml = self.BASE.format(extra='<a ref="n1"><f name="lex" value="café ½"/></a>')
        corpora = []
        for encoding in ("ISO-8859-1", "UTF-8"):
            base = tmp_path / encoding
            base.mkdir()
            header = self.header(base, "")
            (base / "c.xml").write_bytes(f'<?xml version="1.0" encoding="{encoding}"?>\n{xml}'.encode(encoding))
            corpora.append(parse_graf(header))
        assert corpora[0] == corpora[1]
        assert corpora[0].features[0].value == "café ½"

    @pytest.mark.parametrize("encoding,reason", [
        ("shift_jis", "multi-byte encodings are not supported"), ("bogus", "unknown encoding: bogus"),
    ])
    def test_encoding_the_parser_cannot_read(self, tmp_path, encoding, reason):
        header = self.header(tmp_path, f'<?xml version="1.0" encoding="{encoding}"?>\n' + self.BASE.format(extra=""))
        assert _byte_scan([tmp_path / "c.xml"]) is None
        with pytest.raises(IngestError) as exc:
            parse_graf(header)
        assert (exc.value.file, exc.value.line) == (str(tmp_path / "c.xml"), 1)
        assert str(exc.value).endswith(f"unsupported XML encoding: {reason}")

    def test_a_handler_fault_is_not_an_encoding_error(self, tmp_path, monkeypatch):
        class Faulty:
            def fullmatch(self, text):
                raise ValueError("a fault in a handler")

        header = self.header(tmp_path, "<!-- to the handler scan -->\n" + self.BASE.format(extra=""))
        monkeypatch.setattr("fabric.ingest._ANCHORS_RE", Faulty())
        with pytest.raises(ValueError, match="a fault in a handler"):
            parse_graf(header)

    @pytest.mark.parametrize(
        "graf,text,name,line,message",
        [
            (None, b"ab cd", "c.graf", None, "file not found"),
            ("text=c.txt\nannotations=c.xml\njunk\n", b"ab cd", "c.graf", 3, "expected key=value, got 'junk'"),
            ("text=c.txt\ntext=c.txt\nannotations=c.xml\n", b"ab cd", "c.graf", 2, "key 'text' given more than once"),
            ("text=c.txt\nannotations= ,\n", b"ab cd", "c.graf", None, "header names no annotation files"),
            ("text=c.txt\nannotations=c.xml d.xml\n", b"ab cd", "d.xml", None, "annotation file not found"),
            (
                "text=c.txt\nannotations=c.xml\n", b"ab\xffcd", "c.txt", None,
                "primary text is not valid UTF-8: 'utf-8' codec can't decode byte 0xff in position 2: invalid start byte",
            ),
        ],
        ids=["no-header", "no-equals", "key-twice", "no-annotation-files", "missing-annotation-file", "text-not-utf8"],
    )
    def test_unreadable_source(self, tmp_path, graf, text, name, line, message):
        header = self.header(tmp_path, self.BASE.format(extra=""))
        (tmp_path / "c.txt").write_bytes(text)
        if graf is None:
            header.unlink()
        else:
            header.write_text(graf, encoding="utf-8")
        with pytest.raises(IngestError) as exc:
            parse_graf(header)
        assert (exc.value.file, exc.value.line) == (str(tmp_path / name), line)
        assert str(exc.value).endswith(message)

    @pytest.mark.parametrize(
        "doctype,content,message",
        [
            (
                '<!DOCTYPE graph SYSTEM "g.dtd">', '<f name="k" value="v"/>&undeclared;',
                "malformed XML: undefined entity &undeclared;: line 4, column 35",
            ),
            (
                '<!DOCTYPE graph [<!ENTITY e SYSTEM "x.txt">]>', "&e;",
                "malformed XML: undefined entity &e;: line 4, column 12",
            ),
        ],
        ids=["undeclared", "external"],
    )
    def test_entity_in_content_that_the_parser_does_not_expand(self, tmp_path, doctype, content, message):
        """The DOCTYPE sends the file to the handler scan, whose parser
        refuses an undeclared or external entity where content is read."""
        xml = self.BASE.format(extra="").replace('<region xml:id="r2" anchors="3 5"/>', f'<a ref="n1">{content}</a>')
        header = self.header(tmp_path, f"{doctype}\n{xml}")
        assert _byte_scan([tmp_path / "c.xml"]) is None
        with pytest.raises(IngestError) as exc:
            parse_graf(header)
        assert (exc.value.file, exc.value.line) == (str(tmp_path / "c.xml"), 4)
        assert str(exc.value).endswith(message)

    @pytest.mark.parametrize(
        "anchors,shown", [("3 3", "3, 3"), ("10 2", "10, 2"), ("2" * 20 + " " + "1" * 20, "2" * 20 + ", " + "1" * 20)]
    )
    def test_word_region_that_stage_two_reads_but_is_no_region(self, tmp_path, anchors, shown):
        xml = self.BASE.format(extra="").replace('anchors="3 5"', f'anchors="{anchors}"')
        header = self.header(tmp_path, xml)
        assert _byte_scan([tmp_path / "c.xml"]) is not None
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(header)
        got = [(i.code, i.file, i.line, i.where, i.message) for i in exc.value.report.errors]
        message = f"region 'r2': bad region ({shown}): need 0 <= start < end"
        assert got == [("BAD_ANCHORS", str(tmp_path / "c.xml"), None, "n2", message)]

    def test_anchor_past_int64_is_left_to_the_compiler(self, tmp_path):
        """An anchor is read exactly and the slot column clips it, so the
        validator reports the region as past the text."""
        xml = self.BASE.format(extra="").replace('anchors="3 5"', 'anchors="3 99999999999999999999"')
        corpus = parse_graf(self.header(tmp_path, xml))
        assert corpus.slots == (Region(0, 2), Region(3, 2**63 - 1))
        assert [(i.code, i.where) for i in validate(corpus).errors] == [("REGION_BOUNDS", "slot 2")]


class TestAsciiDigits:
    """An id's number and a region's anchors are ASCII digits: "\\u0663" is
    an Arabic-Indic three, which ``int()`` would read, and an id's digits
    end the id, so a trailing LF is no longer dropped."""

    @pytest.mark.parametrize(
        "xml_id,shown",
        [("n3&#10;", "n3\n"), ("n&#x663;", "n\u0663"), ("&#x663;", "\u0663")],
        ids=["trailing-lf", "arabic-indic-digit", "digit-alone"],
    )
    def test_graf_id(self, tmp_path, xml_id, shown):
        extra = f'<node xml:id="{xml_id}" otype="phrase" monads="1-2"/>'
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(TestGrafParsing().header(tmp_path, TestGrafParsing.BASE.format(extra=extra)))
        got = [(i.code, i.where, i.message) for i in exc.value.report.errors]
        assert got == [("BAD_ID", shown, f"xml:id {shown!r} has no positive decimal suffix")]

    @pytest.mark.parametrize(
        "anchors", ["&#x660; &#x662;", "0&#xa0;2", "&#xff10; 2"], ids=["arabic-indic", "nbsp", "fullwidth"]
    )
    def test_graf_anchors(self, tmp_path, anchors):
        extra = f'<region xml:id="r3" anchors="{anchors}"/>'
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(TestGrafParsing().header(tmp_path, TestGrafParsing.BASE.format(extra=extra)))
        got = [(i.code, i.where, i.message) for i in exc.value.report.errors]
        assert got == [("BAD_ANCHORS", "r3", "region 'r3': anchors must be two integers")]

    @pytest.mark.parametrize("cell", ["n٣", "٣", "e١٢"])
    def test_tabular_id(self, tmp_path, cell):
        nodes = f"node_id\totype\tmonadset\nn1\tword\t1\n{cell}\tword\t2\n"
        base = TestTabularParsing().write(tmp_path, **{"nodes.tsv": nodes})
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        got = [(i.code, i.line, i.message) for i in exc.value.report.errors]
        assert got == [("BAD_ID", 3, f"node_id must be a positive id, got {cell!r}")]


_GRAF_SNIPPETS = [
    '<node xml:id="n900" otype="phrase" monads="1"/>',
    '<node xml:id="n901" otype="phrase" monads="2-1"/>',
    '<node xml:id="n902"><link targets="r1"/></node>',
    '<node xml:id="n903"><link targets="r999"/></node>',
    '<region xml:id="r900" anchors="3 3"/>',
    '<region xml:id="r901" anchors="0 2" note="x"/>',
    '<region xml:id="r902" anchors="0\t2"/>',
    '<region xml:id="r903" anchors="&#x660; &#x662;"/>',
    '<edge xml:id="e900" from="n1" to="n999" label="x"/>',
    '<edge xml:id="e901" to="n1" from="n2" label="x"/>',
    '<a ref="n999"><f name="k" value="v"/></a>',
    '<a ref="n1"><f name="note" value="a &amp; b&#10;c&#x5d0;&lt;&quot;&#9;&#13;"/></a>',
    '<a ref="n1"><f name="k" value="a\nb"/></a>',
    '<a ref="n1"><q><f name="k" value="v"/></q></a>',
    '<a ref="n1"></a>',
    '<a ref="n1"><f name="k" value="&undefined;"/></a>',
    '<a ref="n1"><f name="k" value="&e;"/></a>',
    '<node xml:id="nx" otype="phrase" monads="1"/>',
    '<node xml:id="n1&#10;" otype="phrase" monads="1"/>',
    '<node xml:id="&#110;904" otype="phrase" monads="1"/>',
    '<node xml:id="n905" otype="phrase"/>',
    '<node otype="phrase" monads="1"/>',
    "<node xml:id='n906' otype=\"phrase\" monads=\"1\"/>",
    '<node xmlns="urn:x" xml:id="n907" otype="phrase" monads="1"/>',
    '<x:node xmlns:x="urn:x" xml:id="n908" otype="phrase" monads="1"/>',
    '<!-- <region xml:id="r904" anchors="0 1"/> -->',
    '<![CDATA[<region xml:id="r905" anchors="0 1"/>]]>',
    '<?pi <node xml:id="n909" otype="phrase" monads="1"/>?>',
    "text &amp; &#60; more",
    "&e;",
    "<graph/>",
    "</graph>",
    "<node",
]
_DOCTYPES = ["<!DOCTYPE graph>", '<!DOCTYPE graph [<!ENTITY e "x&#10;y">]>', '<!DOCTYPE graph SYSTEM "g.dtd">']
_ATTR_VALUES = [
    "&amp;", "a&#10;b", "&#9;", "&lt;&gt;", "&quot;&apos;", "&#x5d0;", "x&#13;&#10;y", "\t", "&#32;n1", "", "n 1",
]
_ATTR_RE = re.compile(r'="([^"]*)"')


@st.composite
def mutated_grafs(draw):
    """A ``write_graf`` header and XML of toy4 or a small random corpus,
    maybe split into two annotation files, with a few lines inserted,
    deleted or duplicated, attribute values, order or quoting changed, a
    DOCTYPE or ``xmlns`` added, or another encoding: file names and
    bytes, and the annotation files in header order."""
    seed = draw(st.integers(0, 2**32 - 1))
    corpus = toy4() if seed % 8 == 0 else random_corpus(random.Random(seed), max_words=10)
    with tempfile.TemporaryDirectory() as tmp:
        write_graf(corpus, Path(tmp), stem="m")
        header, xml = ((Path(tmp) / f"m.{ext}").read_text(encoding="utf-8") for ext in ("graf", "xml"))
        text = (Path(tmp) / "m.txt").read_bytes()
    declaration, root, *elements = xml.split("\n")[:-2]
    parts = [elements]
    if draw(st.booleans()):
        cut = draw(st.integers(0, len(elements)))
        parts = [elements[:cut], elements[cut:]]
    docs = [[declaration, root, *part, "</graph>", ""] for part in parts]
    for _ in range(draw(st.integers(0, 4))):
        lines = docs[draw(st.integers(0, len(docs) - 1))]
        row = draw(st.integers(0, len(lines) - 1))
        ops = ["insert"] * 4 + ["delete", "dup", "value", "value", "order", "quote", "doctype", "xmlns"]
        op = draw(st.sampled_from(ops))
        attrs = list(_ATTR_RE.finditer(lines[row]))
        if op == "insert":
            lines.insert(row, draw(st.sampled_from(_GRAF_SNIPPETS)))
        elif op == "delete":
            del lines[row]
        elif op == "dup":
            lines.insert(row, lines[row])
        elif op == "value" and attrs:
            a = attrs[draw(st.integers(0, len(attrs) - 1))]
            lines[row] = lines[row][: a.start(1)] + draw(st.sampled_from(_ATTR_VALUES)) + lines[row][a.end(1) :]
        elif op == "order":
            lines[row] = re.sub(r'(<\w+) (\S+="[^"]*") (\S+="[^"]*")', r"\1 \3 \2", lines[row], count=1)
        elif op == "quote" and attrs:
            a = attrs[draw(st.integers(0, len(attrs) - 1))]
            if "'" not in a[1]:
                lines[row] = lines[row][: a.start()] + f"='{a[1]}'" + lines[row][a.end() :]
        elif op == "doctype":
            lines.insert(1, draw(st.sampled_from(_DOCTYPES)))
        elif op == "xmlns":
            lines[row] = lines[row].replace(">", draw(st.sampled_from([' xmlns="urn:x">', ' xmlns:x="urn:x">'])), 1)
    files = {"m.graf": header.encode(), "m.txt": text}
    names = [f"m{k}.xml" for k in range(len(docs))]
    files["m.graf"] = header.replace("annotations=m.xml", "annotations=" + " ".join(names)).encode()
    for name, lines in zip(names, docs):
        encoding = draw(st.sampled_from(["utf-8"] * 6 + ["ISO-8859-1", "UTF-16", "none"]))
        doc = "\n".join(lines)
        if encoding == "none":
            files[name] = doc.replace(declaration, "", 1).lstrip("\n").encode()
        else:
            doc = doc.replace('encoding="utf-8"', f'encoding="{encoding}"', 1)
            files[name] = doc.encode(encoding, "xmlcharrefreplace")
    return files, names


def _graf_outcome(parse, header):
    """What a graph XML parser makes of a header: its corpus, its report
    or its error, and the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            got = parse(header)
        except ValidationFailure as exc:
            got = exc.report
        except IngestError as exc:
            got = (str(exc), exc.file, exc.line)
    return got, [(w.category, str(w.message)) for w in caught]


class TestGrafStages:
    """``parse_graf`` reads files in the writers' dialect with one bare
    expat pass and compiled byte regexes (stage 2), and any other file with
    the handler scan; both give the same corpus, report and error."""

    @settings(max_examples=300, deadline=None)
    @given(mutated_grafs())
    def test_stage_two_equals_the_handler_scan(self, tmp_path_factory, source):
        files, names = source
        base = tmp_path_factory.mktemp("graf")
        for name, content in files.items():
            (base / name).write_bytes(content)
        paths = [base / name for name in names]
        fields = _byte_scan(paths)
        event("stage 2" if fields else "handler scan")
        if fields is not None:
            assert vars(fields) == vars(_handler_scan(paths, "word"))
        handlers = lambda header: _parse_graf(header, _handler_scan)
        assert _graf_outcome(parse_graf, base / "m.graf") == _graf_outcome(handlers, base / "m.graf")

    @staticmethod
    def assert_stage_two(paths):
        fields = _byte_scan(paths)
        assert fields is not None
        assert vars(fields) == vars(_handler_scan(paths, "word"))

    def test_big_graf_takes_stage_two(self, tmp_path):
        write_big_graf(tmp_path, words=500, seed=1)
        self.assert_stage_two([tmp_path / "big.xml"])

    @pytest.mark.parametrize("seed,reference", [(3, "&#"), (5, "&#"), (7, "&#"), (10, "&quot;"), (16, "&quot;")])
    def test_random_corpora_take_stage_two(self, tmp_path, seed, reference):
        """These corpora hold tabs, CRs and LFs, or the value ``quo"te``,
        which ``write_graf`` writes as references inside double quotes."""
        write_graf(random_corpus(random.Random(seed), max_words=10), tmp_path, stem="m")
        assert reference in (tmp_path / "m.xml").read_text(encoding="utf-8")
        self.assert_stage_two([tmp_path / "m.xml"])

    def test_every_random_corpus_takes_stage_two(self, tmp_path):
        for seed in range(200):
            write_graf(random_corpus(random.Random(seed)), tmp_path, stem=f"m{seed}")
        assert [seed for seed in range(200) if _byte_scan([tmp_path / f"m{seed}.xml"]) is None] == []

    @pytest.mark.parametrize("value", ["", "a&b<c>d", " \"'<&>\t\r\nא "], ids=["plain", "markup", "both-quotes"])
    def test_toy4_takes_stage_two(self, tmp_path, toy4_logical, value):
        c = toy4_logical
        corpus = LogicalCorpus.assemble(c.text, c.slots, c.nodes, (Edge(7, 1, 2, value),),
                                        c.features + (FeatureAssignment("N", 101, "note", value),), c.metadata)
        write_graf(corpus, tmp_path, stem="m")
        self.assert_stage_two([tmp_path / "m.xml"])

    def test_handler_scan_leaves_no_cycle(self, tmp_path):
        """With the collector off, a fallback parse leaves nothing that
        only a collection would free."""
        header = write_graf(toy4(), tmp_path, stem="m")
        xml = tmp_path / "m.xml"
        xml.write_bytes(xml.read_bytes().replace(b"<graph>", b"<graph><!-- to the handler scan -->", 1))
        assert _byte_scan([xml]) is None
        enabled = gc.isenabled()
        gc.disable()
        try:
            gc.collect()
            _parse_graf(header, _handler_scan)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()

    def test_latin1_and_namespaced_files_take_the_handler_scan(self, tmp_path):
        """The inputs of two ``TestGrafParsing`` tests."""
        base = TestGrafParsing.BASE
        namespaced = tmp_path / "namespaced.xml"
        namespaced.write_text(base.format(extra=(
            '<x:node xmlns:x="urn:x" xml:id="n3" otype="phrase" monads="1-2"/>'
            '<node xml:id="n4" otype="phrase" monads="1-2" x:monads="1" xmlns:x="urn:x"/>'
        )), encoding="utf-8")
        latin1 = tmp_path / "latin1.xml"
        xml = base.format(extra='<a ref="n1"><f name="lex" value="café ½"/></a>')
        latin1.write_bytes(f'<?xml version="1.0" encoding="ISO-8859-1"?>\n{xml}'.encode("ISO-8859-1"))
        assert _byte_scan([namespaced]) is None
        assert _byte_scan([latin1]) is None
        utf8 = tmp_path / "utf8.xml"  # the latin-1 file's twin
        utf8.write_bytes(f'<?xml version="1.0" encoding="UTF-8"?>\n{xml}'.encode("UTF-8"))
        self.assert_stage_two([utf8])


class TestPerRowFallback:
    """Which cells reach ``MonadSet.parse``, the per-row decoder of monad
    texts, and what becomes of a number ``int()`` refuses for its length."""

    @pytest.fixture()
    def parsed(self, monkeypatch):
        """The texts ``MonadSet.parse`` is called on, in call order."""
        texts, parse = [], MonadSet.parse.__func__
        monkeypatch.setattr(MonadSet, "parse", classmethod(lambda cls, text: texts.append(text) or parse(cls, text)))
        return texts

    @pytest.mark.parametrize("scan", ["stage 2", "handler scan"])
    def test_graf_parses_each_node_once(self, tmp_path, parsed, scan):
        header = write_big_graf(tmp_path, words=2000, seed=1)
        monads = re.findall(r'<node [^>]*monads="([^"]*)"', (tmp_path / "big.xml").read_text(encoding="utf-8"))
        parse_graf(header) if scan == "stage 2" else _parse_graf(header, _handler_scan)
        assert len(monads) > 2000
        assert parsed == monads

    def test_tables_parse_only_sets_of_more_than_one_run(self, tmp_path, parsed):
        want = []
        for seed in range(20):
            base = write_tabular(random_corpus(random.Random(seed)), tmp_path / str(seed))
            rows = (base / "nodes.tsv").read_text(encoding="utf-8").splitlines()[1:]
            want.append([cell for cell in (row.split("\t")[2] for row in rows) if "," in cell])
        got = []
        for seed in range(20):
            parsed.clear()
            parse_tabular(tmp_path / str(seed))
            got.append(list(parsed))
        assert sum(map(len, want)) > 0
        assert got == want

    HUGE = "9" * 5000  # past the digits ``int()`` converts

    @pytest.mark.parametrize("name,column,code", [
        ("nodes.tsv", 0, "BAD_ID"), ("features.tsv", 1, "BAD_ID"), ("slots.tsv", 0, "BAD_INT"),
    ])
    def test_table_number_past_the_digit_limit_is_reported(self, tmp_path, name, column, code):
        base = write_tabular(toy4(), tmp_path)
        lines = (base / name).read_text(encoding="utf-8").split("\n")
        cells = lines[1].split("\t")
        cells[column] = self.HUGE
        lines[1] = "\t".join(cells)
        (base / name).write_text("\n".join(lines), encoding="utf-8")
        with pytest.raises(ValidationFailure) as exc:
            parse_tabular(base)
        assert [(i.file, i.line) for i in exc.value.report.errors if i.code == code] == [(str(base / name), 2)]

    @pytest.mark.parametrize("scan", ["stage 2", "handler scan"])
    @pytest.mark.parametrize("old,new,code,where", [
        ('xml:id="n1"><link', f'xml:id="n{HUGE}"><link', "BAD_ID", f"n{HUGE}"),
        ('anchors="0 ', f'anchors="{HUGE} ', "BAD_ANCHORS", "r1"),
    ], ids=["id", "anchor"])
    def test_graf_number_past_the_digit_limit_is_reported(self, tmp_path, scan, old, new, code, where):
        xml = TestGrafParsing.BASE.format(extra="").replace(old, new)
        header = TestGrafParsing().header(tmp_path, xml)
        with pytest.raises(ValidationFailure) as exc:
            parse_graf(header) if scan == "stage 2" else _parse_graf(header, _handler_scan)
        assert [i.where for i in exc.value.report.errors if i.code == code] == [where]


class TestCellEscaping:
    @given(cell_text)
    def test_round_trip(self, value):
        assert unescape_cell(escape_cell(value)) == value

    @given(cell_text)
    def test_escaped_cell_never_breaks_a_row(self, value):
        escaped = escape_cell(value)
        assert "\t" not in escaped and "\n" not in escaped and "\r" not in escaped

    def test_examples(self):
        assert escape_cell("a\tb") == "a\\tb"
        assert escape_cell("a\\b") == "a\\\\b"
        assert unescape_cell("a\\nb") == "a\nb"
        with pytest.raises(ValueError):
            unescape_cell("dangling\\")


class TestExtractId:
    @pytest.mark.parametrize(
        "token,want",
        [("n101", 101), ("word_12", 12), ("7", 7), ("e4", 4), ("abc", None), ("", None),
         ("n05", 5), ("n1\n", None), ("n\u0663", None), ("\u0663", None), ("n\uff11", None)],
    )
    def test_examples(self, token, want):
        assert extract_id(token) == want


class TestMetadataParsing:
    def test_header_metadata(self, tmp_path):
        (tmp_path / "t.txt").write_text("ab cd", encoding="utf-8")
        (tmp_path / "a.xml").write_text(
            TestGrafParsing.BASE.format(
                extra='<node xml:id="n3" otype="verse" monads="1-2"/>'
            ),
            encoding="utf-8",
        )
        (tmp_path / "h.graf").write_text(
            "text=t.txt\n"
            "annotations=a.xml\n"
            "# comment line\n"
            "otypes=verse, phrase word\n"
            "slot_otype=word\n"
            "intfeatures=freq\n"
            "passage_otype=verse\n"
            "provenance=first hop\n"
            "provenance=second hop\n",
            encoding="utf-8",
        )
        corpus = parse_graf(tmp_path / "h.graf")
        meta = corpus.metadata
        assert meta.otypes == ("verse", "phrase", "word")
        assert meta.slot_otype == "word"
        assert meta.int_features == frozenset({"freq"})
        assert meta.passage_otype == "verse"
        assert meta.provenance == ("first hop", "second hop")


def _graf(corpus, directory):
    return write_graf(corpus, directory, stem="m")


_READERS = {write_tabular: parse_tabular, _graf: parse_graf}


class TestMetadataWriting:
    """Both writers put metadata on key=value lines, which the reader splits
    at LF and strips, splitting the otypes and intfeatures lists at commas
    and whitespace: what those lines cannot hold is refused."""

    @staticmethod
    def with_value(meta: CorpusMetadata, field: str, value: str) -> CorpusMetadata:
        if field == "otypes":
            return dataclasses.replace(meta, otypes=meta.otypes + (value,))
        if field == "intfeatures":
            return dataclasses.replace(meta, int_features=meta.int_features | {value})
        if field == "provenance":
            return dataclasses.replace(meta, provenance=meta.provenance + ("first hop", value))
        return dataclasses.replace(meta, **{field: value})

    @pytest.mark.parametrize("writer", list(_READERS), ids=["tabular", "graf"])
    @pytest.mark.parametrize(
        "field,value,why",
        [
            ("provenance", "a\nb", "holds a CR or LF"),
            ("provenance", "a\rb", "holds a CR or LF"),
            ("provenance", " a", "starts or ends with whitespace"),
            ("provenance", "a\t", "starts or ends with whitespace"),
            ("slot_otype", "word\n", "holds a CR or LF"),
            ("passage_otype", " verse", "starts or ends with whitespace"),
            ("passage_otype", "", "is empty"),
            ("otypes", "a,b", "holds a comma or whitespace"),
            ("otypes", "a b", "holds a comma or whitespace"),
            ("otypes", "", "is empty"),
            ("intfeatures", "f,g", "holds a comma or whitespace"),
            ("intfeatures", "f\u2028g", "holds a comma or whitespace"),
        ],
    )
    def test_writer_rejects_metadata_it_cannot_write(self, tmp_path, toy4_logical, writer, field, value, why):
        corpus = dataclasses.replace(toy4_logical, metadata=self.with_value(toy4_logical.metadata, field, value))
        with pytest.raises(ValueError) as exc:
            writer(corpus, tmp_path / "out")
        assert str(exc.value) == f"metadata {field} {value!r} {why}, so it would not read back as written"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("writer", list(_READERS), ids=["tabular", "graf"])
    def test_metadata_round_trips(self, tmp_path, toy4_logical, writer):
        meta = CorpusMetadata(
            otypes=("book", "chapter", "verse", "sentence", "clause", "phrase", "ph-2", "word"),
            slot_otype="word",
            int_features=frozenset({"freq", "n_2"}),
            passage_otype="verse",
            provenance=("", "a = b", "#not a comment", "in\tner", "x\x0by", "\u05d1\u05e8\u05d0\u05e9\u05d9\u05ea"),
        )
        corpus = dataclasses.replace(toy4_logical, metadata=meta)
        out = writer(corpus, tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            assert _READERS[writer](out).metadata == meta


class TestSerializerRoundTrip:
    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_graf_round_trip(self, tmp_path_factory, seed):
        corpus = random_corpus(random.Random(seed))
        out = tmp_path_factory.mktemp("graf")
        write_graf(corpus, out, stem="rt")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            assert parse_graf(out / "rt.graf") == corpus

    @pytest.mark.parametrize(
        "value",
        ['say "hi"', "it's", "\"'", "a<b", "a&b", "a>b", "]]>", "a\tb", "a\rb", "a\nb", "a\r\nb",
         "בְּרֵאשִׁית", "", " \"'<&>\t\r\nא "],
        ids=["double", "single", "both", "lt", "amp", "gt", "cdata-end", "tab", "cr", "lf", "crlf",
             "hebrew", "empty", "all"],
    )
    def test_graf_round_trips_awkward_values_and_labels(self, tmp_path, toy4_logical, value):
        """Feature values and edge labels are attribute values in the graph
        XML: quotes, markup characters and whitespace must come back as written."""
        c = toy4_logical
        extra = (FeatureAssignment("N", 101, "note", value), FeatureAssignment("E", 7, "role", value))
        corpus = LogicalCorpus.assemble(
            c.text, c.slots, c.nodes, (Edge(7, 1, 2, value), Edge(8, 2, 1, "dep")), c.features + extra, c.metadata
        )
        assert parse_graf(write_graf(corpus, tmp_path)) == corpus

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_tabular_round_trip(self, tmp_path_factory, seed):
        corpus = random_corpus(random.Random(seed))
        out = tmp_path_factory.mktemp("tab")
        write_tabular(corpus, out)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", IngestWarning)
            assert parse_tabular(out) == corpus
