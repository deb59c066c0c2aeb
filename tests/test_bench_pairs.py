"""The pure parts of ``scripts/bench_pairs.py``: seed lists, quartiles and
the pair summary that decides a claimed gain."""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location("bench_pairs", Path(__file__).parents[1] / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def pairs(parent: list[float], change: list[float], name: str = "build_s") -> list[dict]:
    return [{"parent": {"metrics": {name: p}}, "change": {"metrics": {name: c}}} for p, c in zip(parent, change)]


@pytest.mark.parametrize("text,want", [("5", [5]), ("22-31", list(range(22, 32))), ("1,4", [1, 4])])
def test_seeds(text, want):
    assert bench_pairs._seeds(text) == want


def test_spread_of_one_value_is_that_value():
    assert bench_pairs._spread([0.5]) == {"median": 0.5, "q1": 0.5, "q3": 0.5}


def test_spread_quartiles():
    assert bench_pairs._spread([1.0, 2.0, 3.0, 4.0, 5.0]) == {"median": 3.0, "q1": 2.0, "q3": 4.0}


class TestSummarize:
    def test_lower_is_better_counts_a_lower_change_as_a_win(self):
        s = bench_pairs.summarize(pairs([1.0, 1.0, 1.0], [0.5, 1.5, 1.0]), {"build_s": "lower"})["build_s"]
        assert (s["wins"], s["losses"]) == (1, 1)  # the tie counts for neither

    def test_higher_is_better_by_default(self):
        s = bench_pairs.summarize(pairs([1.0, 1.0, 1.0], [0.5, 1.5, 1.0], "queries_per_s"), {})["queries_per_s"]
        assert (s["wins"], s["losses"]) == (1, 1)
        s = bench_pairs.summarize(pairs([1.0, 1.0], [2.0, 3.0], "queries_per_s"), {"queries_per_s": "lower"})
        assert (s["queries_per_s"]["wins"], s["queries_per_s"]["losses"]) == (0, 2)

    def test_sides_get_median_and_quartiles(self):
        s = bench_pairs.summarize(pairs([1.0, 2.0, 3.0, 4.0, 5.0], [5.0, 4.0, 3.0, 2.0, 1.0]), {"build_s": "lower"})
        assert s["build_s"]["parent"] == s["build_s"]["change"] == {"median": 3.0, "q1": 2.0, "q3": 4.0}

    def test_metric_missing_from_a_run_is_left_out(self):
        runs = pairs([1.0, 1.0], [0.5, 0.5])
        runs[1]["change"]["metrics"] = {"other": 1.0}
        assert bench_pairs.summarize(runs, {"build_s": "lower"}) == {}

    # Ten pairs; the parent's quartiles are 0.62 and 0.6375, a spread of 0.0175.
    PARENT = [0.60, 0.61, 0.62, 0.62, 0.62, 0.63, 0.63, 0.64, 0.64, 0.65]

    @pytest.mark.parametrize(
        "change,wins,gain",
        [
            ([p - 0.1 for p in PARENT], 10, True),
            ([p - 0.1 for p in PARENT[:9]] + [0.70], 9, True),  # nine tenths of the pairs are enough
            ([p - 0.1 for p in PARENT[:8]] + [0.70, 0.70], 8, False),  # eight are not
            ([p - 0.01 for p in PARENT], 10, False),  # every pair won, but inside the parent's spread
        ],
        ids=["all-won", "nine-won", "eight-won", "inside-spread"],
    )
    def test_gain_rule(self, change, wins, gain):
        s = bench_pairs.summarize(pairs(self.PARENT, change), {"build_s": "lower"})["build_s"]
        assert s["wins"] == wins
        assert s["gain"] is gain

    def test_gain_for_a_higher_is_better_metric(self):
        runs = pairs(self.PARENT, [p + 0.1 for p in self.PARENT], "queries_per_s")
        assert bench_pairs.summarize(runs, {"queries_per_s": "higher"})["queries_per_s"]["gain"] is True
        assert bench_pairs.summarize(runs, {"queries_per_s": "lower"})["queries_per_s"]["gain"] is False

    @pytest.mark.parametrize(
        "better,change,worse",
        [
            ("lower", [1.26, 1.26, 1.26], True),  # above 1.0 * (1 + 0.25)
            ("lower", [1.24, 1.24, 1.24], False),
            ("lower", [0.5, 0.5, 0.5], False),
            ("higher", [0.74, 0.74, 0.74], True),  # below 1.0 * (1 - 0.25)
            ("higher", [0.76, 0.76, 0.76], False),
            ("higher", [2.0, 2.0, 2.0], False),
        ],
    )
    def test_worse_than_the_bound(self, better, change, worse):
        s = bench_pairs.summarize(pairs([1.0, 1.0, 1.0], change), {"build_s": better}, {"build_s": 0.25})
        assert s["build_s"]["worse"] is worse

    def test_worse_reads_the_medians(self):
        # Two of three pairs past the bound: the median is, so the metric is worse.
        s = bench_pairs.summarize(pairs([1.0, 1.0, 1.0], [1.3, 1.3, 0.5]), {"build_s": "lower"}, {"build_s": 0.25})
        assert s["build_s"]["worse"] is True
        s = bench_pairs.summarize(pairs([1.0, 1.0, 1.0], [1.3, 0.5, 0.5]), {"build_s": "lower"}, {"build_s": 0.25})
        assert s["build_s"]["worse"] is False

    def test_a_metric_with_no_bound_is_never_worse(self):
        s = bench_pairs.summarize(pairs([1.0, 1.0], [9.0, 9.0]), {"build_s": "lower"})
        assert s["build_s"]["worse"] is False

    def test_main_prints_worse(self, tmp_path, capsys, monkeypatch):
        spec = {"end_to_end": [{"name": "build_s", "better": "lower", "bound": 0.25}]}
        for side in ("parent", "change"):
            (tmp_path / side).mkdir()
            (tmp_path / side / "BENCHMARK.json").write_text(json.dumps(spec), encoding="utf-8")
        monkeypatch.setattr(
            bench_pairs, "run_once",
            lambda checkout, *_: {"ok": True, "digest": "d", "metrics": {"build_s": 1.0 if checkout.name == "parent" else 2.0}},
        )
        argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "build", "--seeds", "1-2",
                "--out", str(tmp_path / "out.json")]
        assert bench_pairs.main(argv) == 0
        row = next(line for line in capsys.readouterr().out.splitlines() if line.startswith("build_s"))
        assert row.endswith("  WORSE")
        assert json.loads((tmp_path / "out.json").read_text(encoding="utf-8"))["build"]["summary"]["build_s"]["worse"] is True
