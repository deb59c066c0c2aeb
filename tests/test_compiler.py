import contextlib
import dataclasses
import functools
import json
import random
import re
import struct
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fabric import image
from fabric.cli import main
from fabric.compiler import compile_corpus, compile_to_bytes, verify_image
from fabric.errors import FabricError, ImageError, ValidationFailure
from fabric.corpus import Corpus
from fabric.featuredoc import render_docs
from fabric.model import Edge, FeatureAssignment, LogicalCorpus, MonadSet, Node, Region
from fabric.query import evaluate
from fabric.synth import random_corpus, toy4

HEADER = struct.Struct("<8sHHI")
IMAGE_FORMAT_DOC = Path(__file__).parent.parent / "docs" / "image-format.md"


def corrupt(data: bytes, offset: int) -> bytes:
    out = bytearray(data)
    out[offset] ^= 0xFF
    return bytes(out)


def rewrite_section(data: bytes, name: str, at: int, new: bytes) -> bytes:
    """Overwrite payload bytes of one section and recompute its CRC, so the
    image passes every checksum but holds a malformed section."""
    out = bytearray(data)
    entries = image.read_directory(data)
    i, e = next((i, e) for i, e in enumerate(entries) if e.name == name)
    out[e.offset + at : e.offset + at + len(new)] = new
    crc_at = HEADER.size + 32 * i + 24  # the CRC field of directory entry i
    struct.pack_into("<I", out, crc_at, zlib.crc32(out[e.offset : e.offset + e.length]))
    return bytes(out)


def replace_section(data: bytes, name: str, payload: bytes) -> bytes:
    """The image with one section's payload replaced by one of any length,
    every CRC recomputed."""
    view = memoryview(data)
    sections = [(e.id, bytes(view[e.offset : e.offset + e.length])) for e in image.read_directory(data)]
    return image.build_image([(sid, payload if image.section_name(sid) == name else old) for sid, old in sections])


def bad_otype_code(data: bytes) -> bytes:
    """The image with node row 0's otype code set to the first code past
    the otype table."""
    corpus = Corpus.from_bytes(data)
    return rewrite_section(data, "nodes", 8 + 4 * len(corpus), struct.pack("<I", len(corpus.otypes())))


def swapped_node_rows(data: bytes, a: int, b: int) -> bytes:
    """The image with NODES rows ``a`` and ``b`` swapped in all three
    columns, so the rows leave canonical order."""
    corpus = Corpus.from_bytes(data)
    for col, column in enumerate((corpus._ids, corpus._otype_code, corpus._monad_idx)):
        for row, value in ((a, column[b]), (b, column[a])):
            data = rewrite_section(data, "nodes", 8 + 4 * (col * len(corpus) + row), struct.pack("<I", int(value)))
    return data


def swapped_tied_rows(data: bytes) -> bytes:
    """TOY4 with rows 0 and 1 (sentence 301 and clause 201, both on monads
    1-4) swapped: out of rank order."""
    return swapped_node_rows(data, 0, 1)


def swapped_word_rows(data: bytes) -> bytes:
    """TOY4 with rows 3 and 4 (words 1 and 2) swapped: out of first-monad
    order."""
    return swapped_node_rows(data, 3, 4)


def repeated_node_id(data: bytes) -> bytes:
    """The image with the last NODES row's id set to row 0's; the rows stay
    in canonical order."""
    corpus = Corpus.from_bytes(data)
    return rewrite_section(data, "nodes", 8 + 4 * (len(corpus) - 1), struct.pack("<I", int(corpus._ids[0])))


def run_past_the_text(data: bytes) -> bytes:
    """The image with the pool's last run ending 5 monads past the text."""
    corpus = Corpus.from_bytes(data)
    pool = next(e for e in image.read_directory(data) if e.name == "monadpool")
    sets, runs = image.head(memoryview(data)[pool.offset : pool.offset + pool.length])
    last_run_last = 8 + 4 * (sets + 1 + 2 * runs - 1)
    return rewrite_section(data, "monadpool", last_run_last, struct.pack("<I", corpus.width + 5))


def pool_layout(data: bytes) -> tuple[int, int]:
    """The set and run counts of the monad pool: its set offsets start at
    payload byte 8, run firsts at 8 + 4 * (sets + 1), run lasts after those."""
    pool = next(e for e in image.read_directory(data) if e.name == "monadpool")
    return image.head(memoryview(data)[pool.offset : pool.offset + pool.length])


def set_offsets_from_one(data: bytes) -> bytes:
    """The image with the pool's first set offset 1, not 0."""
    return rewrite_section(data, "monadpool", 8, struct.pack("<I", 1))


def set_offsets_decreasing(data: bytes) -> bytes:
    """The image with the pool's second and third set offsets (1 and 2)
    swapped."""
    return rewrite_section(data, "monadpool", 12, struct.pack("<II", 2, 1))


def set_offsets_past_the_runs(data: bytes) -> bytes:
    """The image with the pool's last set offset one past the run count."""
    sets, runs = pool_layout(data)
    return rewrite_section(data, "monadpool", 8 + 4 * sets, struct.pack("<I", runs + 1))


def run_first_past_last(data: bytes) -> bytes:
    """The image with the pool's first run (1..1) starting at monad 2."""
    sets, _ = pool_layout(data)
    return rewrite_section(data, "monadpool", 8 + 4 * (sets + 1), struct.pack("<I", 2))


def string_offsets_decreasing(data: bytes) -> bytes:
    """The image with the second and third string offsets of OTYPES
    swapped."""
    first, second, _ = (len(s.encode()) for s in Corpus.from_bytes(data).otypes()[:3])
    return rewrite_section(data, "otypes", 12, struct.pack("<II", first + second, first))


def string_offsets_past_the_end(data: bytes) -> bytes:
    """The image with the last string offset of OTYPES one past its blob."""
    otypes = Corpus.from_bytes(data).otypes()
    end = sum(len(s.encode()) for s in otypes)
    return rewrite_section(data, "otypes", 8 + 4 * len(otypes), struct.pack("<I", end + 1))


def two_run_set(data: bytes) -> tuple[int, list[int], list[int]]:
    """The payload offset of the first run of the pool's first two-run set,
    and the firsts and lasts of its runs."""
    corpus = Corpus.from_bytes(data)
    offsets = corpus._set_offsets.tolist()
    at = next(a for a, b in zip(offsets, offsets[1:]) if b - a == 2)
    sets, _ = pool_layout(data)
    return 8 + 4 * (sets + 1 + at), corpus._run_first[at : at + 2].tolist(), corpus._run_last[at : at + 2].tolist()


def swapped_runs(data: bytes) -> bytes:
    """The image with the two runs of a two-run set swapped."""
    at, firsts, lasts = two_run_set(data)
    _, runs = pool_layout(data)
    out = rewrite_section(data, "monadpool", at, struct.pack("<II", *firsts[::-1]))
    return rewrite_section(out, "monadpool", at + 4 * runs, struct.pack("<II", *lasts[::-1]))


def adjacent_runs(data: bytes) -> bytes:
    """The image with the second run of a two-run set starting right after
    the first ends."""
    at, _, lasts = two_run_set(data)
    return rewrite_section(data, "monadpool", at + 4, struct.pack("<I", lasts[0] + 1))


def lex_store(data: bytes) -> tuple[str, list[int]]:
    """The section name of the ``lex`` node feature store, and its targets."""
    corpus = Corpus.from_bytes(data)
    return image.section_name(corpus._feature_sections[("N", "lex")]), corpus.store("lex").targets.tolist()


def lex_code_past_the_dictionary(data: bytes) -> bytes:
    """The image with the first lex value code set to the first code past
    the store's dictionary."""
    name, targets = lex_store(data)
    size = len(Corpus.from_bytes(data).store("lex").values)
    return rewrite_section(data, name, 8 + 4 * len(targets), struct.pack("<I", size))


def swapped_lex_targets(data: bytes) -> bytes:
    """The image with the first two lex targets swapped."""
    name, targets = lex_store(data)
    return rewrite_section(data, name, 8, struct.pack("<II", targets[1], targets[0]))


def repeated_lex_target(data: bytes) -> bytes:
    """The image with the second lex target set to the first."""
    name, targets = lex_store(data)
    return rewrite_section(data, name, 12, struct.pack("<I", targets[0]))


def lex_target_past_the_rows(data: bytes) -> bytes:
    """The image with the last lex target set to the node count, one past
    the last row; the targets still ascend."""
    name, targets = lex_store(data)
    return rewrite_section(data, name, 4 + 4 * len(targets), struct.pack("<I", len(Corpus.from_bytes(data))))


def monad_set_of(data: bytes, node: int, donor: int) -> bytes:
    """The image with the NODES monad set index of ``node``'s row set to
    that of ``donor``'s."""
    corpus = Corpus.from_bytes(data)
    at = 8 + 4 * (2 * len(corpus) + corpus._row(node))
    return rewrite_section(data, "nodes", at, struct.pack("<I", int(corpus._monad_idx[corpus._row(donor)])))


def wide_word(data: bytes) -> bytes:
    """TOY4 with word 3 given phrase 101's monads 1-3."""
    return monad_set_of(data, 3, 101)


def twice_owned_monad(data: bytes) -> bytes:
    """TOY4 with word 3 given word 2's monad: monad 2 has two slot nodes,
    monad 3 none."""
    return monad_set_of(data, 3, 2)


def edge_label_past_the_table(data: bytes) -> bytes:
    """The image with edge row 0's label code set to the first code past
    the edge label table."""
    corpus = Corpus.from_bytes(data)
    first_label = 8 + 12 * len(corpus._edge_ids)
    return rewrite_section(data, "edges", first_label, struct.pack("<I", len(corpus.edge_labels())))


def edge_from_no_node(data: bytes) -> bytes:
    """The image with edge row 0's source set to 0, which is no node's id."""
    first_src = 8 + 4 * len(Corpus.from_bytes(data)._edge_ids)
    return rewrite_section(data, "edges", first_src, struct.pack("<I", 0))


def repeated_edge_id(data: bytes) -> bytes:
    """The image with edge row 1's id set to edge row 0's."""
    return rewrite_section(data, "edges", 12, struct.pack("<I", int(Corpus.from_bytes(data)._edge_ids[0])))


def stats_words_past_the_width(data: bytes) -> bytes:
    """TOY4 with STATS (words, nodes, features, edges as u64) counting 5
    words over its 4 slots."""
    return rewrite_section(data, "stats", 0, struct.pack("<Q", 5))


def stats_nodes_miscounted(data: bytes) -> bytes:
    """TOY4 with STATS counting 12,345 nodes."""
    return rewrite_section(data, "stats", 8, struct.pack("<Q", 12_345))


def stats_edges_miscounted(data: bytes) -> bytes:
    """TOY4, which has no edges, with STATS counting one."""
    return rewrite_section(data, "stats", 24, struct.pack("<Q", 1))


# (section, payload offset, new bytes): counts past the payload's end, and
# METADATA that is not JSON.
MALFORMED = [
    ("nodes", 0, struct.pack("<I", 10**6)),
    ("slots", 0, struct.pack("<I", 10**6)),
    ("otypes", 0, struct.pack("<I", 10**6)),
    ("metadata", 0, b"["),
    ("monadpool", 0, struct.pack("<I", 10**6)),
    ("edges", 0, struct.pack("<I", 10**6)),
    ("edgelabels", 0, struct.pack("<I", 10**6)),
    ("featindex", 0, struct.pack("<I", 10**6)),
]

@functools.cache
def fuzz_images() -> tuple[bytes, ...]:
    """TOY4, and random corpora with two-run sets and edges."""
    return tuple(compile_to_bytes(c)[0] for c in (toy4(), *(random_corpus(random.Random(s)) for s in (0, 6, 10))))


# (section, rewrite): sections that decode but contradict the image.
CONTRADICTORY = [
    ("nodes", swapped_tied_rows),
    ("nodes", swapped_word_rows),
    ("nodes", repeated_node_id),
    ("nodes", wide_word),
    ("nodes", twice_owned_monad),
    ("monadpool", run_past_the_text),
    ("monadpool", set_offsets_from_one),
    ("monadpool", set_offsets_decreasing),
    ("monadpool", set_offsets_past_the_runs),
    ("monadpool", run_first_past_last),
    ("otypes", string_offsets_decreasing),
    ("otypes", string_offsets_past_the_end),
    ("stats", stats_words_past_the_width),
    ("stats", stats_nodes_miscounted),
    ("stats", stats_edges_miscounted),
]


class TestDeterminism:
    def test_same_corpus_same_bytes(self, toy4_bytes):
        again, _ = compile_to_bytes(toy4())
        assert again == toy4_bytes

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_corpora_compile_deterministically(self, seed):
        corpus = random_corpus(random.Random(seed))
        assert compile_to_bytes(corpus)[0] == compile_to_bytes(corpus)[0]

    def test_node_order_does_not_change_the_bytes(self, toy4_logical, toy4_bytes):
        reversed_nodes = dataclasses.replace(toy4_logical, nodes=tuple(reversed(toy4_logical.nodes)))
        assert compile_to_bytes(reversed_nodes)[0] == toy4_bytes

    def test_fingerprint_tracks_content(self, toy4_bytes, toy4_corpus):
        other = random_corpus(random.Random(5))
        assert Corpus.from_bytes(compile_to_bytes(other)[0]).fingerprint != toy4_corpus.fingerprint


class TestLayout:
    def test_magic_and_version(self, toy4_bytes, golden):
        want = golden("toy4_image.json")
        magic, version, _flags, count = HEADER.unpack_from(toy4_bytes, 0)
        assert magic == want["magic"].encode("ascii")
        assert version == want["format_version"]
        assert count > 0

    def test_sections_present_and_aligned(self, toy4_bytes, golden):
        want = golden("toy4_image.json")
        entries = image.read_directory(toy4_bytes)
        names = [e.name for e in entries]
        for expected in want["sections_present"]:
            assert expected.lower() in names
        for e in entries:
            assert e.offset % 8 == 0

    def test_node_and_slot_counts(self, toy4_bytes, golden):
        want = golden("toy4_image.json")
        corpus = Corpus.from_bytes(toy4_bytes)
        assert corpus.stats().nodes == want["node_entries"]
        assert corpus.width == want["slots"]

    def test_dictionary_sizes_and_order(self, toy4_bytes, golden):
        want = golden("toy4_image.json")
        corpus = Corpus.from_bytes(toy4_bytes)
        for key, size in want["dictionaries"].items():
            assert len(corpus.store(key).values) == size
        assert sorted(corpus.store("lex").values) == want["lex_values_sorted"]
        # Frequency ties break lexicographically, so the typ dictionary
        # order is stable across compiles.
        assert list(corpus.store("typ").values) == want["typ_dictionary_order"]

    def test_summary_reports_sections_and_sizes(self, toy4_logical):
        data, summary = compile_to_bytes(toy4_logical)
        assert summary.total_bytes == len(data)
        assert summary.stats == toy4_logical.stats()
        assert dict(summary.dictionaries)["N:lex"] == 4
        section_names = [name for name, _ in summary.sections]
        assert "text" in section_names and "nodes" in section_names


class TestCorruption:
    def test_bad_magic(self, toy4_bytes):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(corrupt(toy4_bytes, 0))
        assert exc.value.code == "NOT_A_FABRIC_IMAGE"

    def test_unsupported_version(self, toy4_bytes):
        out = bytearray(toy4_bytes)
        struct.pack_into("<H", out, 8, 99)
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(bytes(out))
        assert exc.value.code == "UNSUPPORTED_VERSION"

    def test_truncated(self, toy4_bytes):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(toy4_bytes[: len(toy4_bytes) - 9])
        assert exc.value.code == "TRUNCATED"

    def test_shorter_than_header(self):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(b"FAB")
        assert exc.value.code == "NOT_A_FABRIC_IMAGE"

    def test_not_an_image_at_all(self):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(b"\x00" * 64)
        assert exc.value.code == "NOT_A_FABRIC_IMAGE"

    def test_payload_flip_fails_crc(self, toy4_bytes):
        entries = image.read_directory(toy4_bytes)
        text = next(e for e in entries if e.name == "text")
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(corrupt(toy4_bytes, text.offset))
        assert exc.value.code == "SECTION_CRC"
        assert exc.value.section == "text"

    def test_every_section_is_covered_by_a_crc(self, toy4_bytes):
        for entry in image.read_directory(toy4_bytes):
            if entry.length == 0:
                continue
            with pytest.raises(ImageError) as exc:
                Corpus.from_bytes(corrupt(toy4_bytes, entry.offset))
            assert exc.value.code == "SECTION_CRC"

    @pytest.mark.parametrize("name,at,new", MALFORMED, ids=[m[0] for m in MALFORMED])
    def test_malformed_section_is_an_image_error(self, toy4_bytes, name, at, new):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(rewrite_section(toy4_bytes, name, at, new))
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", name)

    def test_deeply_nested_metadata_is_an_image_error(self, toy4_bytes, tmp_path, capsys):
        bad = tmp_path / "bad.fab"
        bad.write_bytes(replace_section(toy4_bytes, "metadata", b"[" * 100_000 + b"]" * 100_000))
        with pytest.raises(ImageError) as exc:
            Corpus.from_file(bad)
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", "metadata")
        assert main(["info", str(bad)]) == 2
        assert "section metadata" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field,value", [("passage_otype", ["verse"]), ("int_features", "lex"), ("otypes", ["word", 3])]
    )
    def test_metadata_of_the_wrong_shape_is_an_image_error(self, toy4_bytes, tmp_path, capsys, field, value):
        entry = next(e for e in image.read_directory(toy4_bytes) if e.name == "metadata")
        meta = json.loads(toy4_bytes[entry.offset : entry.offset + entry.length])
        bad = tmp_path / "bad.fab"
        bad.write_bytes(replace_section(toy4_bytes, "metadata", json.dumps({**meta, field: value}).encode()))
        with pytest.raises(ImageError) as exc:
            Corpus.from_file(bad)
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", "metadata")
        assert main(["query", str(bad), "-q", '[word lex="fox"]']) == 2
        assert "section metadata" in capsys.readouterr().err

    def test_malformed_feature_store_is_an_image_error(self, toy4_bytes):
        store = next(e.name for e in image.read_directory(toy4_bytes) if e.id >= image.FEATURE_BASE)
        corpus = Corpus.from_bytes(rewrite_section(toy4_bytes, store, 0, struct.pack("<I", 10**6)))
        with pytest.raises(ImageError) as exc:
            for key in corpus.feature_keys():  # stores are decoded on first use
                corpus.store(key)
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", store)

    def test_malformed_section_exits_two(self, toy4_bytes, tmp_path, capsys):
        bad = tmp_path / "bad.fab"
        bad.write_bytes(rewrite_section(toy4_bytes, "nodes", 0, struct.pack("<I", 10**6)))
        assert main(["info", str(bad)]) == 2
        assert "section nodes" in capsys.readouterr().err

    def test_otype_code_past_the_table_is_an_image_error(self, toy4_bytes):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(bad_otype_code(toy4_bytes))
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", "nodes")

    @pytest.mark.parametrize("args", [["info"], ["query", "-q", "[word]"]], ids=["info", "query"])
    def test_otype_code_past_the_table_exits_two(self, toy4_bytes, tmp_path, capsys, args):
        bad = tmp_path / "bad.fab"
        bad.write_bytes(bad_otype_code(toy4_bytes))
        assert main([args[0], str(bad), *args[1:]]) == 2
        assert "section nodes" in capsys.readouterr().err

    @pytest.mark.parametrize("name,rewrite", CONTRADICTORY, ids=[f.__name__ for _, f in CONTRADICTORY])
    def test_contradictory_section_is_an_image_error(self, toy4_bytes, name, rewrite):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(rewrite(toy4_bytes))
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", name)

    @pytest.mark.parametrize("args", [["info"], ["query", "-q", "[word]"]], ids=["info", "query"])
    @pytest.mark.parametrize("name,rewrite", CONTRADICTORY, ids=[f.__name__ for _, f in CONTRADICTORY])
    def test_contradictory_section_exits_two(self, toy4_bytes, tmp_path, capsys, name, rewrite, args):
        bad = tmp_path / "bad.fab"
        bad.write_bytes(rewrite(toy4_bytes))
        assert main([args[0], str(bad), *args[1:]]) == 2
        assert f"section {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("rewrite", [lex_code_past_the_dictionary, swapped_lex_targets, repeated_lex_target])
    def test_contradictory_feature_store(self, toy4_bytes, tmp_path, capsys, rewrite):
        name, _ = lex_store(toy4_bytes)
        bad = tmp_path / "bad.fab"
        bad.write_bytes(rewrite(toy4_bytes))
        corpus = Corpus.from_file(bad)  # stores are decoded on first use
        with pytest.raises(ImageError) as exc:
            corpus.store("lex")
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", name)
        assert main(["query", str(bad), "-q", '[word lex="fox"]']) == 2
        assert f"section {name}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "rewrite,message",
        [
            (swapped_tied_rows, "node rows are not in canonical order"),
            (swapped_word_rows, "node rows are not in canonical order"),
            (repeated_node_id, "node ids are not unique"),
        ],
        ids=["tied", "words", "repeated-id"],
    )
    def test_node_rows_in_canonical_order_with_unique_ids(self, toy4_bytes, rewrite, message):
        with pytest.raises(ImageError, match=message) as exc:
            Corpus.from_bytes(rewrite(toy4_bytes))
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", "nodes")

    def test_feature_target_the_image_lacks(self, toy4_bytes, tmp_path, capsys):
        name, _ = lex_store(toy4_bytes)
        bad = tmp_path / "bad.fab"
        bad.write_bytes(lex_target_past_the_rows(toy4_bytes))
        with pytest.raises(ImageError) as exc:
            render_docs(Corpus.from_file(bad), tmp_path / "docs")
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", name)
        assert main(["features", str(bad), str(tmp_path / "docs")]) == 2
        assert f"section {name}" in capsys.readouterr().err

    @pytest.mark.parametrize("target", [8, 150, 10**6])  # toy4 has 8 rows
    # The posting index checks every target of the key's store, so a
    # posting query on another value of the key fails too.
    @pytest.mark.parametrize(
        "query",
        ['[word lex="jump"]', '[word lex="jump" OR lex="fox"]', '[word lex="fox"]'],
        ids=["posting", "or", "other-posting"],
    )
    def test_query_on_a_target_the_image_lacks(self, toy4_bytes, tmp_path, capsys, target, query):
        name, targets = lex_store(toy4_bytes)
        assert targets[3] == Corpus.from_bytes(toy4_bytes)._row(4)  # "jump", at payload offset 20; the targets still ascend
        bad = tmp_path / "bad.fab"
        bad.write_bytes(rewrite_section(toy4_bytes, name, 20, struct.pack("<I", target)))
        corpus = Corpus.from_file(bad)
        for _ in range(2):  # a failed first read leaves nothing cached
            with pytest.raises(ImageError, match="has a target the image lacks") as exc:
                evaluate(corpus, query)
            assert (exc.value.code, exc.value.section) == ("BAD_SECTION", name)
        assert main(["query", str(bad), "-q", query]) == 2
        assert f"section {name} has a target the image lacks" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [["info"], ["query", "-q", "[word]"]], ids=["info", "query"])
    @pytest.mark.parametrize("rewrite", [swapped_runs, adjacent_runs])
    def test_contradictory_runs(self, tmp_path, capsys, rewrite, args):
        bad = tmp_path / "bad.fab"
        bad.write_bytes(rewrite(compile_to_bytes(random_corpus(random.Random(0)))[0]))
        with pytest.raises(ImageError) as exc:
            Corpus.from_file(bad)
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", "monadpool")
        assert main([args[0], str(bad), *args[1:]]) == 2
        assert "section monadpool" in capsys.readouterr().err

    @pytest.mark.parametrize("rewrite", [edge_label_past_the_table, edge_from_no_node, repeated_edge_id])
    def test_contradictory_edges(self, tmp_path, capsys, rewrite):
        bad = tmp_path / "bad.fab"
        bad.write_bytes(rewrite(compile_to_bytes(random_corpus(random.Random(3)))[0]))
        with pytest.raises(ImageError) as exc:
            Corpus.from_file(bad)
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", "edges")
        assert main(["info", str(bad)]) == 2
        assert "section edges" in capsys.readouterr().err

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_rewritten_bytes_fail_cleanly(self, data):
        """1-4 bytes of one section rewritten, its CRC recomputed: either the
        load raises ImageError, or querying (one atom per feature key too),
        browsing the image and writing its feature docs raise nothing but
        FabricError, and the docs stay inside their directory."""
        raw = data.draw(st.sampled_from(fuzz_images()))
        entry = data.draw(st.sampled_from([e for e in image.read_directory(raw) if e.length]))
        byte = st.tuples(st.integers(0, entry.length - 1), st.integers(0, 255))
        for at, value in data.draw(st.lists(byte, min_size=1, max_size=4)):
            raw = rewrite_section(raw, entry.name, at, bytes([value]))
        try:
            corpus = Corpus.from_bytes(raw)
        except ImageError:
            return
        with contextlib.suppress(FabricError):
            evaluate(corpus, f"[{corpus.metadata.slot_otype}]")
        for key in corpus.feature_keys():
            for atom in ('="1"', '~"1"', "<2")[: 3 if key in corpus.metadata.int_features else 2]:
                with contextlib.suppress(FabricError):
                    evaluate(corpus, f"[{corpus.metadata.slot_otype} {key}{atom}]")
        for node in corpus.nodes():
            with contextlib.suppress(FabricError):
                corpus.up(node), corpus.down(node), corpus.text_of(node), corpus.passage_of(node)
        with tempfile.TemporaryDirectory() as tmp, contextlib.suppress(FabricError):
            render_docs(corpus, Path(tmp) / "docs")
            assert {p.parent for p in Path(tmp).rglob("*") if p.is_file()} == {Path(tmp) / "docs"}

    def test_int_store_value_that_is_no_integer(self):
        data = compile_to_bytes(random_corpus(random.Random(0)))[0]
        name = image.section_name(Corpus.from_bytes(data)._feature_sections[("N", "freq")])
        length = next(e.length for e in image.read_directory(data) if e.name == name)
        corpus = Corpus.from_bytes(rewrite_section(data, name, length - 1, b"x"))  # the last value's last byte
        with pytest.raises(ImageError) as exc:
            evaluate(corpus, '[word freq="1"]')
        assert (exc.value.code, exc.value.section) == ("BAD_SECTION", name)

    def test_feature_index_naming_a_missing_section(self, toy4_bytes):
        with pytest.raises(ImageError) as exc:
            Corpus.from_bytes(rewrite_section(toy4_bytes, "featindex", 8, struct.pack("<I", 9999)))
        assert (exc.value.code, exc.value.section) == ("BAD_DIRECTORY", "feature[9743]")

    def test_verify_reports_instead_of_raising(self, toy4_bytes):
        entries = image.read_directory(toy4_bytes)
        text = next(e for e in entries if e.name == "text")
        check = image.check_image(corrupt(toy4_bytes, text.offset))
        assert not check.ok
        assert any("SECTION_CRC" in p for p in check.problems)
        bad = {name for name, _, good in check.sections if not good}
        assert bad == {"text"}

    def test_verify_ok_on_good_image(self, toy4_bytes):
        check = image.check_image(toy4_bytes)
        assert check.ok and not check.problems


class TestFileWriting:
    def test_compile_writes_a_loadable_file(self, tmp_path, toy4_logical, toy4_bytes):
        out = tmp_path / "toy.fab"
        summary = compile_corpus(toy4_logical, out)
        assert out.read_bytes() == toy4_bytes
        assert summary.total_bytes == len(toy4_bytes)
        assert verify_image(out).ok
        assert Corpus.from_file(out).stats().nodes == 8

    def test_no_temp_residue(self, tmp_path, toy4_logical):
        compile_corpus(toy4_logical, tmp_path / "toy.fab")
        assert [p.name for p in tmp_path.iterdir()] == ["toy.fab"]

    def test_invalid_corpus_never_touches_the_target(self, tmp_path, toy4_logical):
        out = tmp_path / "toy.fab"
        compile_corpus(toy4_logical, out)
        before = out.read_bytes()
        from dataclasses import replace

        broken = replace(toy4_logical, slots=())
        with pytest.raises(ValidationFailure):
            compile_corpus(broken, out)
        assert out.read_bytes() == before

    def test_rejects_ids_beyond_u32(self, toy4_logical):
        from dataclasses import replace

        big = replace(
            toy4_logical,
            nodes=toy4_logical.nodes + (Node(2**33, "phrase", MonadSet.from_monads([1])),),
        )
        with pytest.raises(ValidationFailure, match="32-bit"):
            compile_to_bytes(big)


class TestMonadPool:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_pool_holds_each_distinct_set_once_in_run_tuple_order(self, seed):
        logical = random_corpus(random.Random(seed), max_words=60)
        corpus = Corpus.from_bytes(compile_to_bytes(logical)[0])
        offsets, firsts, lasts = (a.tolist() for a in (corpus._set_offsets, corpus._run_first, corpus._run_last))
        pool = [tuple(zip(firsts[a:b], lasts[a:b])) for a, b in zip(offsets, offsets[1:])]
        assert pool == sorted({n.monads.runs for n in logical.nodes})


def _toy4_with(nodes=(), edges=(), features=None):
    """TOY4 with more nodes and edges, and its features replaced."""
    c = toy4()
    features = c.features if features is None else features
    return LogicalCorpus.assemble(c.text, c.slots, c.nodes + nodes, edges, features, c.metadata)


# (name, corpus): images the rebuild must read back exactly.
REBUILT = [
    ("no_edges", toy4),
    ("no_features", lambda: _toy4_with(features=())),
    ("edge_features", lambda: _toy4_with(
        edges=(Edge(5, 1, 2, "dep"), Edge(3, 2, 1, "dep"), Edge(9, 3, 3, "ref")),
        features=toy4().features + (FeatureAssignment("E", 5, "role", "subj"), FeatureAssignment("E", 9, "role", "")),
    )),
    ("multi_run_nodes", lambda: _toy4_with(
        nodes=(Node(401, "phrase", MonadSet.parse("1,3-4")), Node(402, "clause", MonadSet.parse("1,3")))
    )),
]


class TestRoundTrip:
    @pytest.mark.parametrize("make", [make for _, make in REBUILT], ids=[name for name, _ in REBUILT])
    def test_hand_built_corpora_reconstruct_exactly(self, make):
        corpus = make()
        data, _ = compile_to_bytes(corpus)
        rebuilt = Corpus.from_bytes(data).as_logical_corpus()
        assert rebuilt == corpus
        assert compile_to_bytes(rebuilt)[0] == data

    def test_toy4_reconstructs_exactly(self, toy4_corpus, toy4_logical):
        assert toy4_corpus.as_logical_corpus() == toy4_logical

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_random_corpora_reconstruct_exactly(self, seed):
        corpus = random_corpus(random.Random(seed))
        data, _ = compile_to_bytes(corpus)
        assert Corpus.from_bytes(data).as_logical_corpus() == corpus

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_recompiling_a_reconstruction_is_byte_identical(self, seed):
        corpus = random_corpus(random.Random(seed))
        data, _ = compile_to_bytes(corpus)
        rebuilt = Corpus.from_bytes(data).as_logical_corpus()
        assert compile_to_bytes(rebuilt)[0] == data


u32s = st.lists(st.integers(min_value=0, max_value=2**32 - 1), max_size=6)


class TestTableCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(u32s, max_size=4),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.one_of(st.none(), st.lists(st.text(max_size=8), max_size=5)),
        st.integers(min_value=0, max_value=2**32 - 1),
        st.binary(max_size=9),
    )
    @example([[], []], 0, [], 0, b"")
    @example([[7]], 0, ["", "אֱלֹהִים", "λόγος", "x"], 1, b"")
    def test_unpack_returns_what_pack_wrote(self, columns, count, strings, extra, tail):
        if strings is not None:
            count = len(strings)
        payload = memoryview(image.pack(count, *columns, extra=extra, strings=strings) + tail)
        assert image.head(payload) == (count, extra)
        *got, rest = image.unpack(payload, *map(len, columns), strings=strings is not None)
        if strings is not None:
            assert got.pop() == tuple(strings)
        assert [col.tolist() for col in got] == columns
        assert not any(col.flags.writeable for col in got)
        assert bytes(rest) == tail


class TestFormatDoc:
    def test_every_section_id_is_in_the_section_table(self):
        doc = IMAGE_FORMAT_DOC.read_text(encoding="utf-8")
        for sid, name in image.SECTION_NAMES.items():
            assert re.search(rf"^\|\s*{sid}\s*\|\s*{name.upper()}\s*\|", doc, re.M), name


class TestBuildImage:
    def test_duplicate_section_ids_rejected(self):
        with pytest.raises(ValueError):
            image.build_image([(1, b"a"), (1, b"b")])

    def test_directory_must_be_ascending(self, toy4_bytes):
        out = bytearray(toy4_bytes)
        first = HEADER.size
        second = first + 32
        chunk = bytes(out[first : first + 32])
        out[first : first + 32] = out[second : second + 32]
        out[second : second + 32] = chunk
        with pytest.raises(ImageError) as exc:
            image.read_directory(bytes(out))
        assert exc.value.code == "BAD_DIRECTORY"
