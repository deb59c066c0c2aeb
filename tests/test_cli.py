import ast
import json
import os
import random
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from fabric.cli import main
from fabric.compiler import compile_corpus, compile_to_bytes
from fabric.corpus import Corpus
from fabric.ingest import parse_graf, parse_tabular
from fabric.model import FeatureAssignment
from fabric.query import evaluator
from fabric.query.syntax import MAX_NESTING
from fabric.synth import random_corpus, random_query, toy4, write_graf, write_tabular

SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(scope="module")
def tree(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    logical = toy4()
    graf = root / "graf"
    tabular = root / "tabular"
    graf.mkdir()
    tabular.mkdir()
    write_graf(logical, graf, stem="toy4")
    write_tabular(logical, tabular)
    compile_corpus(logical, root / "toy4.fab")
    return root


@pytest.fixture()
def image(tree):
    return str(tree / "toy4.fab")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_pinned_codes(self, tree, image, capsys, golden):
        want = golden("toy4_cli.json")["exit_codes"]
        ok, _, _ = run(capsys, "info", image)
        assert ok == want["ok"]
        user, _, _ = run(capsys, "query", image, "-q", "[nope]")
        assert user == want["user_error"]
        bad = tree / "bad.fab"
        data = bytearray((tree / "toy4.fab").read_bytes())
        data[-1] ^= 0xFF
        bad.write_bytes(bytes(data))
        corrupt, _, err = run(capsys, "info", str(bad))
        assert corrupt == want["corrupt"]
        assert "corrupt image" in err

    def test_missing_image_is_a_user_error(self, capsys, tree):
        code, _, err = run(capsys, "info", str(tree / "absent.fab"))
        assert code == 1
        assert "not found" in err

    @pytest.mark.parametrize(
        "argv,named",
        [
            ("annotate {tree}/toy4.fab {tmp}/no/s.json save -q [word] --name a --author b", "{tmp}/no/s.json"),
            ("annotate {tree}/toy4.fab {tmp} list", None),
            ("compile {tree}/graf/toy4.graf {tmp}/no/out.fab", "{tmp}/no/out.fab"),
            ("features {tree}/toy4.fab {tree}/toy4.fab", None),
            ("info {tmp}", None),
            ("query {tmp} -q [word]", None),
        ],
        ids=["save-into-missing-dir", "store-is-a-dir", "compile-into-missing-dir", "docs-into-a-file",
             "info-of-a-dir", "query-of-a-dir"],
    )
    def test_unusable_path_is_a_user_error(self, capsys, tree, tmp_path, argv, named):
        code, _, err = run(capsys, *(arg.format(tree=tree, tmp=tmp_path) for arg in argv.split()))
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("fabric: ")
        if named is not None:  # the path as given, not a temp or lock file beside it
            assert err == f"fabric: {named.format(tmp=tmp_path)}: No such file or directory\n"

    def test_broken_pipe_exits_zero(self, capsys, image, monkeypatch):
        from fabric import cli

        def closed_reader(*args):
            raise BrokenPipeError

        monkeypatch.setitem(cli._COMMANDS, "info", closed_reader)
        assert run(capsys, "info", image) == (0, "", "")

    def test_usage_error_is_exit_one(self, capsys, image):
        code = main(["query", image])  # neither -q nor -f
        capsys.readouterr()
        assert code == 1

    def test_conflicting_query_sources(self, capsys, image):
        code = main(["query", image, "-q", "[word]", "-f", "x"])
        capsys.readouterr()
        assert code == 1

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0
        capsys.readouterr()

    def test_one_process_runs_like_separate_processes(self, image, capsys, tmp_path):
        # The parser is built once per process; a usage error must leave it
        # fit for the commands after it.
        calls = [
            ["query", image],
            ["query", image, "-q", "[word] [word]", "--limit", "2"],
            ["annotate", image, "{store}", "save", "-q", '[word lex="fox"]', "--name", "f", "--author", "ada"],
        ]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        apart = []
        for argv in calls:
            argv = [a.format(store=tmp_path / "apart.json") for a in argv]
            done = subprocess.run(
                [sys.executable, "-m", "fabric.cli", *argv], capture_output=True, text=True, env=env, timeout=120
            )
            apart.append((done.returncode, done.stdout, done.stderr))
        together = [run(capsys, *[a.format(store=tmp_path / "together.json") for a in argv]) for argv in calls]
        assert together == apart
        assert [code for code, _, _ in together] == [1, 0, 0]


def test_import_loads_no_xml_parser():
    """Only a graph XML file that stage 2 declines needs one."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = "import sys, fabric.cli; print(sorted(m for m in sys.modules if 'expat' in m or m.startswith('xml')))"
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


def test_text_query_loads_no_masked_arrays(image):
    """``np.unique`` imports ``numpy.ma`` on first use; a text-format query
    streams its slot texts without it."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys; from fabric.cli import main; "
        f"code = main(['query', {image!r}, '-q', '[phrase [word]]', '--format', 'text']); "
        "print(code, 'numpy.ma' in sys.modules)"
    )
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "'the'" in done.stdout and done.stdout.splitlines()[-1] == "0 False"


class TestSampleScript:
    def test_make_sample_writes_toy4_in_every_form(self, tmp_path):
        """``scripts/make_sample.py`` writes graph XML, tables and an image,
        and each loads back as the four-word sample corpus."""
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
        script = Path(SRC).parent / "scripts" / "make_sample.py"
        done = subprocess.run([sys.executable, str(script), str(tmp_path)], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.splitlines()[0] == f"wrote {tmp_path / 'toy4.graf'}"
        assert parse_graf(tmp_path / "toy4.graf") == toy4()
        assert parse_tabular(tmp_path / "toy4-tabular") == toy4()
        image = (tmp_path / "toy4.fab").read_bytes()
        assert image == compile_to_bytes(toy4())[0]
        assert Corpus.from_bytes(image).stats() == toy4().stats()


class TestCompile:
    def test_compile_onto_a_directory_names_it(self, tree, capsys, tmp_path):
        out = tmp_path / "out.fab"
        out.mkdir()
        code, _, err = run(capsys, "compile", str(tree / "graf" / "toy4.graf"), str(out))
        assert code == 1
        assert err == f"fabric: {out}: Is a directory\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out.fab"]  # no temp file is left

    def test_compile_graf(self, tree, capsys, tmp_path):
        out = tmp_path / "out.fab"
        code, stdout, _ = run(capsys, "compile", str(tree / "graf" / "toy4.graf"), str(out))
        assert code == 0
        assert out.read_bytes() == (tree / "toy4.fab").read_bytes()
        assert "4 words" in stdout and "8 nodes" in stdout

    def test_compile_tabular_directory(self, tree, capsys, tmp_path):
        out = tmp_path / "out.fab"
        code, _, _ = run(capsys, "compile", str(tree / "tabular"), str(out))
        assert code == 0
        assert out.read_bytes() == (tree / "toy4.fab").read_bytes()

    def test_compile_json_format(self, tree, capsys, tmp_path):
        out = tmp_path / "out.fab"
        code, stdout, _ = run(
            capsys, "compile", str(tree / "graf" / "toy4.graf"), str(out), "--format", "json"
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["stats"] == {"words": 4, "nodes": 8, "edges": 0, "features": 10}
        assert doc["bytes"] == out.stat().st_size

    def test_validation_failures_list_every_issue(self, capsys, tmp_path):
        src = tmp_path / "bad"
        src.mkdir()
        (src / "text.txt").write_text("ab cd", encoding="utf-8")
        (src / "slots.tsv").write_text(
            "slot_index\tstart\tend\n1\t0\t2\n2\t3\t9\n", encoding="utf-8"
        )
        (src / "nodes.tsv").write_text(
            "node_id\totype\tmonadset\nn1\tword\t1\n", encoding="utf-8"
        )
        (src / "features.tsv").write_text("kind\ttarget_id\tkey\tvalue\n", encoding="utf-8")
        code, _, err = run(capsys, "compile", str(src), str(tmp_path / "x.fab"))
        assert code == 1
        assert "REGION_BOUNDS" in err and "MISSING_SLOT_NODE" in err

    @pytest.mark.parametrize("xml_id", ["n99999999999", "n99999999999999999999"])
    def test_id_past_the_image_format_is_a_validation_failure(self, capsys, tmp_path, xml_id):
        (tmp_path / "c.txt").write_text("ab", encoding="utf-8")
        (tmp_path / "c.xml").write_text(
            '<graph><region xml:id="r1" anchors="0 2"/><node xml:id="n1"><link targets="r1"/></node>'
            f'<node xml:id="{xml_id}" otype="phrase" monads="1"/></graph>',
            encoding="utf-8",
        )
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=c.xml\n", encoding="utf-8")
        code, stdout, err = run(capsys, "compile", str(tmp_path / "c.graf"), str(tmp_path / "x.fab"))
        assert (code, stdout) == (1, "")
        assert err.count("fabric:") == 1 and "ID_RANGE" in err and "32-bit" in err

    @pytest.mark.parametrize("encoding,reason", [
        ("shift_jis", "multi-byte encodings are not supported"), ("bogus", "unknown encoding: bogus"),
    ])
    def test_xml_encoding_the_parser_cannot_read_is_one_line(self, capsys, tmp_path, encoding, reason):
        header = write_graf(toy4(), tmp_path, stem="c")
        xml = tmp_path / "c.xml"
        xml.write_bytes(xml.read_bytes().replace(b'encoding="utf-8"', f'encoding="{encoding}"'.encode(), 1))
        code, stdout, err = run(capsys, "compile", str(header), str(tmp_path / "x.fab"))
        assert (code, stdout, err) == (1, "", f"fabric: {xml}:1: unsupported XML encoding: {reason}\n")

    def test_validation_failures_as_json(self, capsys, tmp_path):
        src = tmp_path / "bad"
        src.mkdir()
        (src / "text.txt").write_text("ab", encoding="utf-8")
        (src / "slots.tsv").write_text("slot_index\tstart\tend\n", encoding="utf-8")
        (src / "nodes.tsv").write_text("node_id\totype\tmonadset\n", encoding="utf-8")
        (src / "features.tsv").write_text("kind\ttarget_id\tkey\tvalue\n", encoding="utf-8")
        code, _, err = run(
            capsys, "compile", str(src), str(tmp_path / "x.fab"), "--format", "json"
        )
        assert code == 1
        doc = json.loads(err)
        assert doc["error"] == "validation failed"
        assert any(i["code"] == "NO_SLOTS" for i in doc["issues"])


class TestWarnings:
    """A warning is one line on stderr in the chosen format, beside the
    command's own output."""

    @pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
    def test_unused_region(self, capsys, tmp_path, fmt):
        (tmp_path / "c.txt").write_text("ab", encoding="utf-8")
        (tmp_path / "c.xml").write_text(
            '<graph><region xml:id="r1" anchors="0 2"/><region xml:id="r9" anchors="0 1"/>'
            '<node xml:id="n1"><link targets="r1"/></node></graph>',
            encoding="utf-8",
        )
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=c.xml\n", encoding="utf-8")
        code, stdout, err = run(capsys, "compile", str(tmp_path / "c.graf"), str(tmp_path / "c.fab"), "--format", fmt)
        assert code == 0 and stdout.count("\n") == 1 and (tmp_path / "c.fab").exists()
        message = "UNUSED_REGION: region 'r9' is not linked by any node"
        assert err == (json.dumps({"warning": message}) if fmt == "json" else f"fabric: warning: {message}") + "\n"

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
    def test_unused_region_raised_as_error(self, capsys, tmp_path, fmt):
        # As under ``python -W error``: one error line, exit 1, no image.
        (tmp_path / "c.txt").write_text("ab", encoding="utf-8")
        (tmp_path / "c.xml").write_text(
            '<graph><region xml:id="r1" anchors="0 2"/><region xml:id="r9" anchors="0 1"/>'
            '<node xml:id="n1"><link targets="r1"/></node></graph>',
            encoding="utf-8",
        )
        (tmp_path / "c.graf").write_text("text=c.txt\nannotations=c.xml\n", encoding="utf-8")
        code, stdout, err = run(capsys, "compile", str(tmp_path / "c.graf"), str(tmp_path / "c.fab"), "--format", fmt)
        assert code == 1 and stdout == "" and not (tmp_path / "c.fab").exists()
        message = "UNUSED_REGION: region 'r9' is not linked by any node"
        assert err == (json.dumps({"error": message, "exit": 1}) if fmt == "json" else f"fabric: {message}") + "\n"

    @pytest.mark.parametrize("fmt", ["text", "tsv", "json"])
    def test_stale_store(self, image, capsys, tmp_path, fmt):
        store = tmp_path / "store.json"
        run(capsys, "annotate", image, str(store), "save", "-q", "[word]", "--name", "w", "--author", "ada")
        doc = json.loads(store.read_text(encoding="utf-8"))
        store.write_text(json.dumps({**doc, "corpus_fingerprint": "0" * 64}), encoding="utf-8")
        code, stdout, err = run(capsys, "annotate", image, str(store), "list", "--format", fmt)
        assert code == 0 and "stale" in stdout
        message = "store was written for a different corpus image; snapshots marked stale"
        assert err == (json.dumps({"warning": message}) if fmt == "json" else f"fabric: warning: {message}") + "\n"


class TestInfo:
    def test_text(self, image, capsys):
        code, stdout, _ = run(capsys, "info", image)
        assert code == 0
        assert "words:        4" in stdout
        assert "verse" in stdout

    def test_json_subset(self, image, capsys, golden):
        want = golden("toy4_cli.json")["info_json_subset"]
        code, stdout, _ = run(capsys, "info", image, "--format", "json")
        assert code == 0
        doc = json.loads(stdout)
        for key, value in want.items():
            assert doc[key] == value
        assert doc["otypes"][-1] == "word"
        assert len(doc["fingerprint"]) == 64

    def test_tsv(self, image, capsys):
        code, stdout, _ = run(capsys, "info", image, "--format", "tsv")
        assert code == 0
        rows = dict(line.split("\t") for line in stdout.splitlines())
        assert rows == {"words": "4", "nodes": "8", "edges": "0", "features": "10"}


class TestQuery:
    def test_pinned_tsv(self, image, capsys, golden):
        want = golden("toy4_cli.json")["query_fox_tsv"]
        code, stdout, _ = run(
            capsys, "query", image, "-q", '[word lex="fox"]', "--format", "tsv"
        )
        assert code == 0
        assert stdout.splitlines() == want

    def test_text_output(self, image, capsys):
        code, stdout, _ = run(capsys, "query", image, "-q", '[word lex="fox"]')
        assert code == 0
        assert "match 1 @ n301" in stdout
        assert "n3=word" in stdout and "'fox'" in stdout
        assert stdout.splitlines()[-1] == "1 match(es)"

    @pytest.mark.parametrize("case", ["toy4", "random7"])
    def test_text_output_shows_text_of_every_slot_node(self, tmp_path, capsys, monkeypatch, case):
        data, _ = compile_to_bytes(random_corpus(random.Random(7), max_words=40) if case == "random7" else toy4())
        (tmp_path / "c.fab").write_bytes(data)
        corpus = Corpus.from_file(tmp_path / "c.fab")
        monkeypatch.setattr(evaluator, "_CHUNK", 5)  # several chunks
        code, stdout, _ = run(capsys, "query", str(tmp_path / "c.fab"), "-q", "[word]")
        assert code == 0
        lines = [re.fullmatch(r"match \d+ @ .*?: \[1\] n(\d+)=word (.*)", line) for line in stdout.splitlines()[:-1]]
        got = {int(m[1]): ast.literal_eval(m[2]) for m in lines}
        assert got == {n: corpus.text_of(n) for n in corpus.nodes("word")}

    def test_json_lines(self, image, capsys):
        code, stdout, _ = run(
            capsys, "query", image, "-q", "[word][word]", "--format", "json"
        )
        assert code == 0
        lines = [json.loads(line) for line in stdout.splitlines()]
        assert [m["match"] for m in lines] == [1, 2, 3]
        assert lines[0]["nodes"][0] == {
            "path": "1", "id": 1, "otype": "word", "passage": "n301",
        }

    def test_nested_paths(self, image, capsys):
        code, stdout, _ = run(
            capsys, "query", image, "-q", "[verse [clause [phrase]]]", "--format", "tsv"
        )
        assert code == 0
        paths = [line.split("\t")[1] for line in stdout.splitlines()]
        assert paths == ["1", "1.1", "1.1.1", "1", "1.1", "1.1.1"]

    def test_limit(self, image, capsys):
        code, stdout, _ = run(capsys, "query", image, "-q", "[word]", "--limit", "2")
        assert code == 0
        assert stdout.splitlines()[-1] == "2 match(es) (limit reached)"

    def test_limit_equal_to_the_matches_cuts_nothing(self, image, capsys):
        code, stdout, _ = run(capsys, "query", image, "-q", "[word]", "--limit", "4")
        assert code == 0
        assert stdout.splitlines()[-1] == "4 match(es)"

    @pytest.mark.parametrize("limit", ["1", "2", "5", "6"])
    def test_limit_cuts_alike_at_every_chunk_size(self, image, capsys, monkeypatch, limit):
        # [word] .. [word] has 6 matches on toy4, so only 6 cuts nothing.
        argv = ("query", image, "-q", "[word] .. [word]", "--limit", limit)
        want = run(capsys, *argv)
        assert want[1].splitlines()[-1] == f"{limit} match(es)" + (" (limit reached)" if limit != "6" else "")
        for size in (1, 2, 3):
            monkeypatch.setattr(evaluator, "_CHUNK", size)
            assert run(capsys, *argv) == want

    @pytest.mark.parametrize("query", ["[verse [clause [phrase]]]", '[word lex="no such lemma"]'])
    def test_zero_timeout_stops_the_stream(self, image, capsys, query):
        code, stdout, err = run(capsys, "query", image, "-q", query, "--timeout", "0")
        assert code == 0
        assert stdout.splitlines() == ["0 match(es) (timeout)"]
        code, stdout, err = run(capsys, "query", image, "-q", query, "--timeout", "0", "--format", "tsv")
        assert code == 0 and stdout == ""
        assert err.splitlines() == ["fabric: timeout after 0.0s, 0 match(es) shown"]
        code, stdout, err = run(capsys, "query", image, "-q", query, "--timeout", "0", "--format", "json")
        assert code == 0 and stdout == ""
        assert json.loads(err) == {"error": "timeout after 0.0s, 0 match(es) shown", "exit": 0}

    @pytest.mark.parametrize(
        "flag,value",
        [("--limit", "\u0662"), ("--limit", " 2_0 "), ("--limit", "2_0"), ("--limit", "+2"), ("--limit", "2\n"),
         ("--limit", "\uff12"), ("--limit", "-\u0662"), ("--timeout", "nan"), ("--timeout", "\u0661"),
         ("--timeout", "inf"), ("--timeout", "1e3"), ("--timeout", "-1"), ("--timeout", " 1"), ("--timeout", ".5")],
    )
    def test_numbers_are_ascii_only(self, image, capsys, flag, value):
        """``int`` or ``float`` reads each of these as a number."""
        code, stdout, err = run(capsys, "query", image, "-q", "[word]", flag, value)
        assert (code, stdout) == (1, "")
        kind = "int" if flag == "--limit" else "float"
        assert err.splitlines()[-1] == f"fabric query: error: argument {flag}: invalid {kind} value: {value!r}"

    @pytest.mark.parametrize(
        "argv,last",
        [(("--limit", "-1"), "0 match(es) (limit reached)"), (("--limit", "3"), "3 match(es) (limit reached)"),
         (("--timeout", "0.0"), "0 match(es) (timeout)"), (("--timeout", "60.25"), "4 match(es)")],
    )
    def test_ascii_numbers(self, image, capsys, argv, last):
        code, stdout, _ = run(capsys, "query", image, "-q", "[word]", *argv)
        assert code == 0
        assert stdout.splitlines()[-1] == last

    def test_generous_timeout_changes_nothing(self, image, capsys):
        plain = run(capsys, "query", image, "-q", "[verse [clause [phrase]]]")
        assert run(capsys, "query", image, "-q", "[verse [clause [phrase]]]", "--timeout", "60") == plain

    @pytest.mark.parametrize("limit", [2**63 - 1, 10**23])
    def test_huge_gap_limit(self, image, capsys, limit):
        code, stdout, err = run(capsys, "query", image, "-q", f"[word] .. <= {limit} [word]")
        assert (code, err) == (0, "")
        assert stdout.splitlines()[-1] == "6 match(es)"  # as brute_force_evaluate finds on toy4

    def test_query_file(self, image, capsys, tmp_path):
        qfile = tmp_path / "q.fql"
        qfile.write_text('[word lex="fox"] // comment\n', encoding="utf-8")
        code, stdout, _ = run(capsys, "query", image, "-f", str(qfile), "--format", "tsv")
        assert code == 0
        assert stdout.splitlines() == ["1\t1\tn3\tword\tn301"]

    def test_missing_query_file(self, image, capsys):
        code, _, err = run(capsys, "query", image, "-f", "absent.fql")
        assert code == 1
        assert "query file not found" in err

    def test_query_file_not_utf8(self, image, capsys, tmp_path):
        path = tmp_path / "latin1.fql"
        path.write_bytes('[word lex="caf\u00e9"]'.encode("latin-1"))
        code, out, err = run(capsys, "query", image, "-f", str(path))
        assert (code, out) == (1, "")
        assert err == f"fabric: query file is not UTF-8: {path}: invalid continuation byte at byte 14\n"

    def test_query_nested_past_the_bound(self, image, capsys):
        deep = "[word " * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1)
        code, out, err = run(capsys, "query", image, "-q", deep)
        assert (code, out) == (1, "")
        where = f"at line 1, column {6 * MAX_NESTING + 1}"
        assert err == f"fabric: query nests deeper than {MAX_NESTING} levels of blocks and parentheses {where}\n"

    def test_negative_gap_limit_is_a_syntax_error(self, image, capsys):
        code, out, err = run(capsys, "query", image, "-q", "[word] .. <= -1 [word]")
        assert (code, out) == (1, "")
        assert err == "fabric: gap limit -1 is negative at line 1, column 14 (expected integer >= 0)\n"

    def test_integer_longer_than_int_reads_is_a_syntax_error(self, image, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "query", image, "-q", "[word lex = " + "9" * (limit + 1) + "]")
        assert (code, out) == (1, "")
        assert err == f"fabric: integer has {limit + 1} digits, more than {limit} at line 1, column 13\n"

    def test_syntax_error_reports_position(self, image, capsys):
        code, _, err = run(capsys, "query", image, "-q", "[word][word")
        assert code == 1
        assert "line 1, column 12" in err

    def test_json_error_envelope(self, image, capsys):
        code, _, err = run(
            capsys, "query", image, "-q", "[nope]", "--format", "json"
        )
        assert code == 1
        doc = json.loads(err)
        assert "unknown otype" in doc["error"]
        assert doc["exit"] == 1


class TestRepl:
    def feed(self, monkeypatch, lines):
        it = iter(lines)

        def fake_input(prompt=""):
            try:
                return next(it)
            except StopIteration:
                raise EOFError

        monkeypatch.setattr("builtins.input", fake_input)

    def test_query_loop(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, ['[word lex="fox"]', ":quit"])
        code, stdout, err = run(capsys, "repl", image)
        assert code == 0
        assert "loaded" in err
        assert "match 1" in stdout

    def test_eof_ends_cleanly(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, [])
        assert run(capsys, "repl", image)[0] == 0

    def test_errors_do_not_end_the_loop(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, ["[nope]", '[word lex="fox"]', ":quit"])
        code, stdout, err = run(capsys, "repl", image)
        assert code == 0
        assert "unknown otype" in err
        assert "match 1" in stdout

    def test_limit_command(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, [":limit 2", "[word]", ":limit off", "[word]", ":quit"])
        code, stdout, _ = run(capsys, "repl", image)
        assert code == 0
        assert "2 match(es) (limit reached)" in stdout
        assert "4 match(es)" in stdout

    def test_limit_takes_ascii_numbers_only(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, [":limit \u0662", ":limit 2_0", "[word]", ":limit -1", "[word]", ":quit"])
        code, stdout, err = run(capsys, "repl", image)
        assert code == 0
        assert err.count("usage: :limit N | :limit off") == 2
        assert stdout.splitlines()[-1] == "0 match(es) (limit reached)"
        assert "4 match(es)" in stdout

    @pytest.mark.parametrize("flag,value", [("--limit", "\u0662"), ("--timeout", "nan")])
    def test_options_take_ascii_numbers_only(self, image, capsys, flag, value):
        assert run(capsys, "repl", image, flag, value)[:2] == (1, "")

    def test_timeout_default(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, ["[word]", ":quit"])
        code, stdout, _ = run(capsys, "repl", image, "--timeout", "0")
        assert code == 0
        assert "0 match(es) (timeout)" in stdout

    def test_explain_command(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, [":explain [word]", ":quit"])
        code, stdout, _ = run(capsys, "repl", image)
        assert code == 0
        assert "otype scan" in stdout

    def test_load_command(self, image, capsys, monkeypatch, tree):
        self.feed(monkeypatch, [":load " + image, '[word lex="fox"]', ":quit"])
        code, stdout, err = run(capsys, "repl", image)
        assert code == 0
        assert err.count("loaded") == 2
        assert "match 1" in stdout

    @pytest.mark.parametrize("case", ["directory", "missing", "corrupt"])
    def test_failed_load_keeps_the_corpus(self, image, capsys, monkeypatch, tmp_path, case):
        target = tmp_path / "x.fab"
        if case == "directory":
            target.mkdir()
        elif case == "corrupt":
            target.write_bytes(Path(image).read_bytes()[:-9])
        self.feed(monkeypatch, [f":load {target}", '[word lex="fox"]', ":quit"])
        code, stdout, err = run(capsys, "repl", image)
        assert code == 0
        assert stdout.splitlines() == ["match 1 @ n301: [1] n3=word 'fox'", "1 match(es)"]
        failed = err.splitlines()[2]
        assert failed == {"directory": f"error: {target}: Is a directory",
                          "missing": f"error: {target}: image file not found"}.get(case, failed)
        assert failed.startswith("error: ") and err.count("loaded") == 1

    def test_unknown_command(self, image, capsys, monkeypatch):
        self.feed(monkeypatch, [":bogus", ":quit"])
        code, _, err = run(capsys, "repl", image)
        assert code == 0
        assert "unknown command" in err


class TestFeatures:
    def test_writes_docs(self, image, capsys, tmp_path):
        out = tmp_path / "docs"
        code, stdout, _ = run(capsys, "features", image, str(out))
        assert code == 0
        assert (out / "index.json").exists()
        assert (out / "word.lex.txt").exists()
        assert "wrote" in stdout

    def test_json_format_lists_files(self, image, capsys, tmp_path):
        out = tmp_path / "docs"
        code, stdout, _ = run(capsys, "features", image, str(out), "--format", "json")
        assert code == 0
        doc = json.loads(stdout)
        assert "index.json" in doc["files"]

    def test_key_with_a_slash(self, capsys, tmp_path):
        base = toy4()
        image = tmp_path / "slash.fab"
        compile_corpus(replace(base, features=base.features + (FeatureAssignment("N", 301, "a/b", "v"),)), image)
        code, stdout, _ = run(capsys, "features", str(image), str(tmp_path / "docs"), "--format", "json")
        assert code == 0
        assert "verse.a%2Fb.txt" in json.loads(stdout)["files"]
        assert (tmp_path / "docs" / "verse.a%2Fb.txt").is_file()

    def test_keys_too_long_for_a_file_name(self, capsys, tmp_path):
        """Two 300-character keys that share their first 280 characters."""
        base = toy4()
        keys = ["k" * 280 + "a" * 20, "k" * 280 + "b" * 20]
        image = tmp_path / "long.fab"
        features = base.features + tuple(FeatureAssignment("N", 301, key, "v") for key in keys)
        compile_corpus(replace(base, features=features), image)
        out = tmp_path / "docs"
        code, stdout, _ = run(capsys, "features", str(image), str(out), "--format", "json")
        assert code == 0
        files = json.loads(stdout)["files"]
        assert max(len(name.encode()) for name in files) <= 255
        assert sorted(p.name for p in out.iterdir()) == sorted(files)
        index = json.loads((out / "index.json").read_text(encoding="utf-8"))
        assert sorted(name for row in index["tables"] for name in row["files"]) == sorted(files[:-2])
        long = [name for row in index["tables"] if row["key"] in keys for name in row["files"]]
        assert len(set(long)) == 4


class TestAnnotate:
    def test_save_list_margin_page(self, image, capsys, tmp_path):
        store = str(tmp_path / "store.json")

        code, stdout, _ = run(
            capsys, "annotate", image, store, "save",
            "-q", '[word lex="fox"]', "--name", "fox-query", "--author", "ada",
        )
        assert code == 0
        assert "1 match(es) in 1 verse(s)" in stdout

        code, stdout, _ = run(capsys, "annotate", image, store, "list")
        assert code == 0
        assert "fox-query" in stdout and "public" in stdout

        code, stdout, _ = run(
            capsys, "annotate", image, store, "margin", "--passage", "n301"
        )
        assert code == 0
        assert "ada/fox-query" in stdout and "n3" in stdout

        code, stdout, _ = run(
            capsys, "annotate", image, store, "page", "--id", "1"
        )
        assert code == 0
        assert "page 1/1" in stdout
        assert "n301: n3" in stdout

    def test_store_file_is_canonical(self, image, capsys, tmp_path):
        from fabric.annotations import export_bytes, import_store
        from fabric.corpus import Corpus

        store_path = tmp_path / "store.json"
        run(
            capsys, "annotate", image, str(store_path), "save",
            "-q", "[word]", "--name", "w", "--author", "ada",
        )
        corpus = Corpus.from_file(image)
        assert export_bytes(import_store(store_path, corpus)) == store_path.read_bytes()

    def test_duplicate_save_fails(self, image, capsys, tmp_path):
        store = str(tmp_path / "store.json")
        args = (
            "annotate", image, store, "save",
            "-q", "[word]", "--name", "w", "--author", "ada",
        )
        assert run(capsys, *args)[0] == 0
        code, _, err = run(capsys, *args)
        assert code == 1
        assert "already has" in err

    def test_concurrent_saves_both_land(self, image, capsys, tmp_path, monkeypatch):
        import threading
        import time

        from fabric import cli
        from fabric.annotations import import_store

        store = str(tmp_path / "store.json")
        save = ("annotate", image, store, "save", "-q", "[word]", "--author", "ada", "--name")
        assert run(capsys, *save, "first")[0] == 0

        def slow_import(*args, **kwargs):
            loaded = import_store(*args, **kwargs)
            time.sleep(0.3)  # both saves now hold a store read before either writes
            return loaded

        monkeypatch.setattr(cli, "import_store", slow_import)
        codes: list[int] = []
        threads = [threading.Thread(target=lambda n=n: codes.append(main([*save, n]))) for n in ("a", "b")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
            assert not t.is_alive()
        assert codes == [0, 0]
        monkeypatch.undo()
        assert len(import_store(store).queries) == 3

    def test_private_saves_and_filters(self, image, capsys, tmp_path):
        store = str(tmp_path / "store.json")
        run(
            capsys, "annotate", image, store, "save",
            "-q", "[word]", "--name", "mine", "--author", "ada", "--private",
        )
        code, stdout, _ = run(
            capsys, "annotate", image, store, "margin",
            "--passage", "301", "--format", "json",
        )
        assert code == 0
        assert json.loads(stdout)[0]["name"] == "mine"
        code, stdout, _ = run(
            capsys, "annotate", image, store, "margin",
            "--passage", "301", "--public-only", "--format", "json",
        )
        assert code == 0
        assert json.loads(stdout) == []

    def test_margin_on_non_passage_node(self, image, capsys, tmp_path):
        store = str(tmp_path / "store.json")
        code, _, err = run(
            capsys, "annotate", image, store, "margin", "--passage", "n3"
        )
        assert code == 1
        assert "not a verse" in err

    @pytest.mark.parametrize("raw", ["n\u0663\u0660\u0661", "\u0663\u0660\u0661", "n\uff13\uff10\uff11", "n301\n", "+301"])
    def test_margin_takes_ascii_ids_only(self, image, capsys, tmp_path, raw):
        """Each of these reads as 301 under ``int``."""
        store = str(tmp_path / "store.json")
        code, stdout, err = run(capsys, "annotate", image, store, "margin", "--passage", raw)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [f"fabric: not a node id: {raw!r}"]

    def test_store_nested_too_deeply(self, image, capsys, tmp_path):
        store = tmp_path / "store.json"
        store.write_bytes(b"[" * 200_000 + b"]" * 200_000)
        code, stdout, err = run(capsys, "annotate", image, str(store), "list")
        assert (code, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("fabric: store file is not valid JSON: ")

    def test_store_number_longer_than_int_reads(self, image, capsys, tmp_path):
        store = tmp_path / "store.json"
        store.write_text('{"format_version": ' + "9" * (sys.get_int_max_str_digits() + 1) + "}")
        code, stdout, err = run(capsys, "annotate", image, str(store), "list")
        assert (code, stdout) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("fabric: store file is not valid JSON: ")

    def test_page_unknown_id(self, image, capsys, tmp_path):
        store = str(tmp_path / "store.json")
        code, _, err = run(capsys, "annotate", image, store, "page", "--id", "9")
        assert code == 1
        assert "no saved query" in err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_page_size_below_one(self, image, capsys, tmp_path, size):
        store = str(tmp_path / "store.json")
        run(capsys, "annotate", image, store, "save", "-q", "[word]", "--name", "w", "--author", "ada")
        code, stdout, err = run(capsys, "annotate", image, store, "page", "--id", "1", "--page-size", size)
        assert (code, stdout) == (1, "")
        assert err.splitlines() == [f"fabric: --page-size must be at least 1, not {size}"]

    @pytest.mark.parametrize("flag", ["--id", "--page", "--page-size"])
    @pytest.mark.parametrize("value", ["\u0661", "\uff11", " 1", "1_0", "+1"])
    def test_page_takes_ascii_numbers_only(self, image, capsys, tmp_path, flag, value):
        store = str(tmp_path / "store.json")
        run(capsys, "annotate", image, store, "save", "-q", "[word]", "--name", "w", "--author", "ada")
        argv = {"--id": "1", "--page": "1", "--page-size": "1", flag: value}
        code, stdout, err = run(capsys, "annotate", image, store, "page", *[a for kv in argv.items() for a in kv])
        assert (code, stdout) == (1, "")
        assert err.splitlines()[-1].endswith(f" error: argument {flag}: invalid int value: {value!r}")

    def test_page_of_a_stale_verse_past_int64(self, image, capsys, tmp_path):
        store = tmp_path / "store.json"
        run(capsys, "annotate", image, str(store), "save", "-q", "[word]", "--name", "w", "--author", "ada")
        doc = json.loads(store.read_text(encoding="utf-8"))
        doc["corpus_fingerprint"] = "0" * 64
        doc["queries"][0]["snapshot"] = [[2**70, [1]]]
        store.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, _ = run(capsys, "annotate", image, str(store), "page", "--id", "1")
        assert (code, stdout) == (0, f"page 1/1\nn{2**70}: n1\n")
        code, stdout, _ = run(capsys, "annotate", image, str(store), "page", "--id", "1", "--format", "json")
        assert (code, json.loads(stdout)["entries"]) == (0, [{"verse": 2**70, "nodes": [1]}])

    def test_page_json(self, image, capsys, tmp_path):
        store = str(tmp_path / "store.json")
        run(
            capsys, "annotate", image, store, "save",
            "-q", '[word lex="fox"]', "--name", "fox", "--author", "ada",
        )
        code, stdout, _ = run(
            capsys, "annotate", image, store, "page", "--id", "1", "--format", "json"
        )
        assert code == 0
        doc = json.loads(stdout)
        assert doc["page"] == 1 and doc["total_pages"] == 1
        assert doc["entries"] == [{"verse": 301, "nodes": [3]}]

    def test_list_rejects_a_repeated_verse(self, image, capsys, tmp_path):
        store = tmp_path / "store.json"
        run(capsys, "annotate", image, str(store), "save", "-q", '[word lex="fox"]', "--name", "f", "--author", "ada")
        doc = json.loads(store.read_text(encoding="utf-8"))
        doc["queries"][0].update(snapshot=[[301, [3]], [301, [3]]], verse_count=2)
        store.write_text(json.dumps(doc), encoding="utf-8")
        code, stdout, err = run(capsys, "annotate", image, str(store), "list")
        assert (code, stdout) == (1, "")
        assert err.splitlines() == ["fabric: saved query 1: verse 301 is listed twice"]

    def test_store_commands_agree_with_the_api(self, capsys, tmp_path):
        """Saves through the command, then every read of the store in both
        formats, each against what the API gives on the same store."""
        from fabric.annotations import import_store, margin, result_page

        rng = random.Random(11)
        image, path = str(tmp_path / "r.fab"), str(tmp_path / "store.json")
        compile_corpus(random_corpus(rng, max_words=40), image)
        corpus = Corpus.from_file(image)
        queries = ["[word]", "[phrase]", "[clause [word]]", "[sentence]"] + [random_query(rng, corpus) for _ in range(4)]
        for i, query in enumerate(queries):
            private = ["--private"] if i % 3 == 2 else []
            code, _, err = run(capsys, "annotate", image, path, "save", "-q", query, "--name", f"q{i}",
                               "--author", ("ada", "bob")[i % 2], *private)
            assert code == 0 or err.startswith("fabric: ")
        store = import_store(path, corpus)
        saved = sorted(store.queries.values(), key=lambda s: s.id)
        assert len(saved) >= 4

        def both(*argv):
            code, text, _ = run(capsys, "annotate", image, path, *argv)
            code_json, doc, _ = run(capsys, "annotate", image, path, *argv, "--format", "json")
            assert code == code_json == 0
            return text.splitlines(), json.loads(doc)

        text, doc = both("list")
        assert text == [
            f"{s.id}\t{s.name}\t{s.author}\t{'public' if s.is_public else 'private'}\t"
            f"{s.match_count} match(es), {s.verse_count} verse(s)"
            for s in saved
        ]
        assert doc == [
            {"id": s.id, "name": s.name, "author": s.author, "public": s.is_public,
             "matches": s.match_count, "verses": s.verse_count, "stale": False}
            for s in saved
        ]
        for passage in list(corpus.nodes("verse")):
            entries = margin(store, corpus, passage)
            text, doc = both("margin", "--passage", str(passage))
            assert text == [f"{s.author}/{s.name} (query {s.id}): " + ", ".join(f"n{n}" for n in nodes)
                            for s, nodes in entries]
            assert doc == [{"id": s.id, "name": s.name, "author": s.author, "nodes": list(nodes)} for s, nodes in entries]
        for s in saved:
            for number in (1, 2, 9):
                page = result_page(s, number, 2)
                text, doc = both("page", "--id", str(s.id), "--page", str(number), "--page-size", "2")
                labels = [corpus.feature(verse, "ref") for verse, _ in page.entries]
                assert text == [f"page {page.page}/{page.total_pages}" + (" (clamped)" if page.clamped else "")] + [
                    f"{f'n{verse}' if label is None else label}: " + ", ".join(f"n{n}" for n in nodes)
                    for label, (verse, nodes) in zip(labels, page.entries)
                ]
                assert doc == {
                    "page": page.page, "total_pages": page.total_pages, "clamped": page.clamped,
                    "entries": [{"verse": verse, "nodes": list(nodes)} for verse, nodes in page.entries],
                }


class TestEdgeCorpus:
    """Every command on an image with edge features; EDGES orders its rows
    by label, not by id."""

    def test_commands(self, capsys, tmp_path):
        import random

        from fabric.compiler import compile_to_bytes
        from fabric.synth import random_corpus, write_graf

        logical = random_corpus(random.Random(4))
        roles = [f for f in logical.features if f.kind == "E"]
        source = str(write_graf(logical, tmp_path / "graf", stem="r4"))
        image, store, docs = str(tmp_path / "r4.fab"), str(tmp_path / "store.json"), tmp_path / "docs"

        assert run(capsys, "compile", source, image)[0] == 0
        assert Path(image).read_bytes() == compile_to_bytes(logical)[0]
        code, stdout, _ = run(capsys, "info", image, "--format", "json")
        info = json.loads(stdout)
        assert code == 0 and (info["edges"], info["edge_feature_keys"]) == (len(logical.edges), ["role"])
        code, stdout, _ = run(capsys, "query", image, "-q", "[word]")
        assert code == 0 and stdout.endswith(f"{len(logical.slots)} match(es)\n")
        assert run(capsys, "features", image, str(docs))[0] == 0
        index = json.loads((docs / "index.json").read_text(encoding="utf-8"))
        edge_tables = [(r["otype"], r["key"], r["total"]) for r in index["tables"] if r["kind"] == "E"]
        assert edge_tables == [("dep", "role", len(roles))]
        assert (docs / "edge-dep.role.txt").exists()
        save = ("annotate", image, store, "save", "-q", "[word]", "--name", "w", "--author", "ada")
        assert run(capsys, *save)[0] == 0
        code, stdout, _ = run(capsys, "annotate", image, store, "list")
        assert code == 0 and stdout.startswith("1\tw\tada\tpublic")


# Every call of the transcript, run once per format with "--format FMT"
# appended.  ROOT holds toy4 as graph XML, tables and an image, and a bad
# tabular source; each format saves into a store of its own.
TRANSCRIPT_CALLS = [
    ["compile", "ROOT/tabular", "ROOT/out-FMT.fab"],
    ["compile", "ROOT/bad", "ROOT/bad-FMT.fab"],
    ["info", "ROOT/toy4.fab"],
    ["info", "ROOT/absent.fab"],
    ["query", "ROOT/toy4.fab", "-q", "[verse [clause [phrase]]]"],
    ["query", "ROOT/toy4.fab", "-q", "[nope]"],
    ["query", "ROOT/toy4.fab", "-q", "[word][word"],
    ["query", "ROOT/toy4.fab", "-q", "[word]", "--limit", "2"],
    ["features", "ROOT/toy4.fab", "ROOT/docs-FMT"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "list"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "save", "-q", '[word lex="fox"]', "--name", "fox",
     "--author", "ada", "--description", "the fox"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "save", "-q", "[word]", "--name", "words",
     "--author", "bob", "--private"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "save", "-q", "[phrase]", "--name", "fox",
     "--author", "ada"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "list"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "margin", "--passage", "n301"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "margin", "--passage", "301", "--public-only"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "margin", "--passage", "n3"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "page", "--id", "2"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "page", "--id", "2", "--page", "9", "--page-size", "1"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "page", "--id", "9"],
    ["annotate", "ROOT/toy4.fab", "ROOT/store-FMT.json", "page", "--id", "1", "--page-size", "0"],
]


def cli_transcript(root: Path) -> list[dict]:
    """Each transcript call in each format, run in-process in order: its
    argv, exit code, stdout and stderr, with ``root`` written ROOT and
    compile's elapsed time masked."""
    import contextlib
    import io

    logical = toy4()
    for name in ("graf", "tabular", "bad"):
        (root / name).mkdir()
    write_graf(logical, root / "graf", stem="toy4")
    write_tabular(logical, root / "tabular")
    compile_corpus(logical, root / "toy4.fab")
    (root / "bad" / "text.txt").write_text("ab cd", encoding="utf-8")
    (root / "bad" / "slots.tsv").write_text("slot_index\tstart\tend\n1\t0\t2\n2\t3\t9\n", encoding="utf-8")
    (root / "bad" / "nodes.tsv").write_text("node_id\totype\tmonadset\nn1\tword\t1\n", encoding="utf-8")
    (root / "bad" / "features.tsv").write_text("kind\ttarget_id\tkey\tvalue\n", encoding="utf-8")

    def mask(text: str) -> str:
        text = re.sub(r"\(\d+\.\d\ds\)$", "(S.SSs)", text.replace(str(root), "ROOT"), flags=re.M)
        return re.sub(r'"seconds": [0-9.e-]+', '"seconds": "S"', text)

    calls = []
    for fmt in ("text", "json", "tsv"):
        for call in TRANSCRIPT_CALLS:
            argv = [arg.replace("FMT", fmt) for arg in call] + ["--format", fmt]
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([arg.replace("ROOT", str(root)) for arg in argv])
            calls.append({"argv": argv, "exit": code, "stdout": mask(out.getvalue()), "stderr": mask(err.getvalue())})
    return calls


def test_transcript_of_every_subcommand_in_every_format(tmp_path, golden):
    """stdout, stderr and the exit code of every subcommand but ``repl``,
    in each format, on toy4 and on its error paths."""
    want = golden("toy4_cli_transcript.json")["calls"]
    got = cli_transcript(tmp_path)
    assert [c["argv"] for c in got] == [c["argv"] for c in want]
    for call, expected in zip(got, want):
        assert call == expected
