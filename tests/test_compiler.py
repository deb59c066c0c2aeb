import random
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fabric import image
from fabric.cli import main
from fabric.compiler import compile_corpus, compile_to_bytes, verify_image
from fabric.errors import ImageError, ValidationFailure
from fabric.corpus import Corpus
from fabric.model import MonadSet, Node, Region
from fabric.synth import random_corpus, toy4

HEADER = struct.Struct("<8sHHI")


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


def bad_otype_code(data: bytes) -> bytes:
    """The image with node row 0's otype code set to the first code past
    the otype table."""
    corpus = Corpus.from_bytes(data)
    return rewrite_section(data, "nodes", 8 + 4 * len(corpus), struct.pack("<I", len(corpus.otypes())))


# (section, payload offset, new bytes): counts past the payload's end, and
# METADATA that is not JSON.
MALFORMED = [
    ("nodes", 0, struct.pack("<I", 10**6)),
    ("slots", 0, struct.pack("<I", 10**6)),
    ("otypes", 0, struct.pack("<I", 10**6)),
    ("metadata", 0, b"["),
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
        with pytest.raises(ValueError, match="32-bit"):
            compile_to_bytes(big)


class TestRoundTrip:
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
