#!/usr/bin/env python3
"""Run the benchmark on two checkouts in alternating pairs and compare them.

    python3 scripts/bench_pairs.py PARENT CHANGE --workload query --seeds 22-31 --seconds 30 --out BENCH_<n>.json

PARENT and CHANGE are two checkouts of this repository, each with its own
``bench/run.py`` and ``src/``.  For each seed, one pair of runs is made,
``bench/run.py --workload W --seed N --seconds S --trace 0`` in each
checkout; the side that runs first alternates from pair to pair.  The
script prints, for every metric both sides report, each side's median and
quartiles, the change's median over the parent's, and the pairs the
change won and lost (ties count for neither; "better" is read from the
change's ``BENCHMARK.json``).  A metric is marked as a gain when the
change won at least nine tenths of the pairs and its median is better by
more than the distance between the parent's quartiles, and as WORSE when
the change's median is worse than the parent's by more than the metric's
``bound`` there (a ``lower`` metric above the parent's median times
1 + bound, a ``higher`` one below it times 1 - bound).

The two result digests of each seed must be equal.  The runs and the
summary are written under the workload's name into ``--out``, the
committed ``BENCH_<n>.json`` of a change, keeping the other workloads
already in that file.  The exit code is 1 when any run failed or any pair
of digests differs, else 0.  Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def _seeds(text: str) -> list[int]:
    """``22-31`` or ``22,25,30``."""
    if "-" in text:
        first, last = map(int, text.split("-"))
        return list(range(first, last + 1))
    return [int(seed) for seed in text.split(",")]


def _args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=_seeds, required=True, help="first-last, or a comma-separated list")
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--tiny", action="store_true", help="pass --tiny to bench/run.py")
    p.add_argument("--out", type=Path, required=True, help="JSON file of the runs")
    return p.parse_args(argv)


def run_once(checkout: Path, workload: str, seed: int, seconds: float, tiny: bool) -> dict:
    """One ``bench/run.py`` run: its exit code, result digest and JSON line."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    cmd += ["--trace", "0"] + (["--tiny"] if tiny else [])
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    digest = next((line.split(":", 1)[1].strip() for line in lines if line.startswith("result digest")), None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    ok = proc.returncode == 0 and result["correct"] and digest is not None
    if not ok:
        print(f"run failed in {checkout} (seed {seed}, exit {proc.returncode}):", proc.stderr[-2000:], file=sys.stderr)
    return {
        "exit": proc.returncode,
        "ok": ok,
        "digest": digest,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: m["value"] for name, m in result["metrics"].items()},
    }


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3}


def summarize(pairs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per metric both sides report in every pair: each side's median and
    quartiles, the pairs the change won and lost, whether it is a gain, and
    whether it is worse than its bound (a metric with no bound never is)."""
    names = set.intersection(*(set(pair[side]["metrics"]) for pair in pairs for side in SIDES))
    out = {}
    for name in sorted(names):
        sign = -1 if better.get(name, "higher") == "lower" else 1
        values = {side: [pair[side]["metrics"][name] for pair in pairs] for side in SIDES}
        diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
        parent, change = _spread(values["parent"]), _spread(values["change"])
        wins, losses = sum(d > 0 for d in diffs), sum(d < 0 for d in diffs)
        gain = wins >= 0.9 * len(pairs) and sign * (change["median"] - parent["median"]) > parent["q3"] - parent["q1"]
        bound = (bounds or {}).get(name)
        # Past the parent's median moved by the bound in the worse direction.
        worse = bound is not None and sign * (change["median"] - parent["median"] * (1 - sign * bound)) < 0
        out[name] = {"parent": parent, "change": change, "wins": wins, "losses": losses, "gain": gain, "worse": worse}
    return out


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"] if "bound" in m}
    pairs, bad = [], False
    for k, seed in enumerate(args.seeds):
        order = SIDES if k % 2 == 0 else SIDES[::-1]
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run_once(getattr(args, side), args.workload, seed, args.seconds, args.tiny)
        same = pair["parent"]["digest"] == pair["change"]["digest"]
        pair["digests_equal"] = same
        bad |= not (same and pair["parent"]["ok"] and pair["change"]["ok"])
        pairs.append(pair)
        print(f"seed {seed}: {order[0]} first, digests {'equal' if same else 'DIFFER'}", flush=True)
    summary = summarize(pairs, better, bounds)
    print(f"-- {args.workload}: {len(pairs)} pairs, {args.seconds:g} s runs --")
    print(f"{'metric':26s} {'parent median [q1, q3]':>31s} {'change median [q1, q3]':>32s}   ratio  won lost")
    for name, s in summary.items():
        p, c = s["parent"], s["change"]
        ratio = c["median"] / p["median"] if p["median"] else float("nan")
        print(
            f"{name:26s} {p['median']:12.5g} [{p['q1']:.5g}, {p['q3']:.5g}]".ljust(58)
            + f"{c['median']:12.5g} [{c['q1']:.5g}, {c['q3']:.5g}]".ljust(33)
            + f"{ratio:7.3f} {s['wins']:4d} {s['losses']:4d}{'  gain' if s['gain'] else ''}{'  WORSE' if s['worse'] else ''}"
        )
    record = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    record[args.workload] = {
        "command": f"bench/run.py --workload {args.workload} --seed N --seconds {args.seconds:g} --trace 0"
        + (" --tiny" if args.tiny else ""),
        "pairs": pairs,
        "summary": summary,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"runs written to {args.out}")
    if bad:
        print("FAILED: a run failed or two digests differ", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
