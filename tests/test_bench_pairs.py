"""The pure parts of ``scripts/bench_pairs.py``: seed lists, quartiles and
the pair summary that decides a claimed gain."""

import importlib.util
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
