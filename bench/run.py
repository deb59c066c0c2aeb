#!/usr/bin/env python3
"""Run one fabric benchmark workload and print its metrics.

    python3 bench/run.py --workload query --seed 1 --seconds 20 --trace 0

The engine is imported from ``src/`` of the checkout this file sits in.
With ``--trace 0`` the run prints every end-to-end metric; with
``--trace 1`` it runs the workload twice, untraced and then traced, each
for half the seconds, and prints the per-layer metrics, the tracing
overhead and the self time of every span name.  The metric names and
units are those of ``BENCHMARK.json``.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("build", "query", "session")
# Printed by name with its unit, but no JSON metric: it is 0 on a correct
# run, and the JSON line carries it as ``failed`` / ``attempted``.
NOT_IN_JSON = ("ops_failed_frac", "ratio")


def _args(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="small corpora, for the smoke test")
    return p.parse_args(argv)


def _import_engine() -> None:
    """Put the checkout's own sources first on the path, or fail."""
    src = ROOT / "src"
    if not (src / "fabric" / "__init__.py").is_file():
        sys.exit(f"bench: no engine sources at {src / 'fabric'}; run from a full checkout")
    sys.path.insert(0, str(src))
    import fabric

    if Path(fabric.__file__).resolve().parent != (src / "fabric").resolve():
        sys.exit(f"bench: imported fabric from {fabric.__file__}, not from {src}")


def _show(metrics: dict[str, tuple[float, str, int]]) -> None:
    for name, (value, unit, n) in metrics.items():
        print(f"{name:44s} {value:14.6g} {unit:7s} n={n}")


def _self_times(tracer) -> None:
    total: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, tracer.self_times()):
        total[span.name] += own
        calls[span.name] += 1
    print("-- self time by span (s, calls) --")
    for name in sorted(total, key=total.get, reverse=True):
        print(f"{name:44s} {total[name]:14.6f} s       calls={calls[name]}")


def main(argv: list[str] | None = None) -> int:
    args = _args(argv)
    if args.seconds <= 0:
        sys.exit("bench: --seconds must be positive")
    _import_engine()
    import workloads
    from layers import layer_metrics
    from tracer import Tracer

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    end_to_end = [(m["name"], m["unit"]) for m in spec["end_to_end"]] + [NOT_IN_JSON]
    per_layer = [(m["name"], m["unit"]) for m in spec["per_layer"]]
    sizes = workloads.TINY if args.tiny else workloads.FULL
    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if not args.trace:
            rec = workloads.run_pass(args.workload, args.seed, args.seconds, sizes, work, None)
            metrics = workloads.end_to_end(rec, end_to_end)
            recs = [rec]
        else:
            half = args.seconds / 2
            plain = workloads.run_pass(args.workload, args.seed, half, sizes, work / "plain", None)
            base = workloads.end_to_end(plain, end_to_end)
            tracer = Tracer()
            with tracer.instrument():
                rec = workloads.run_pass(args.workload, args.seed, half, sizes, work / "traced", tracer)
            traced = workloads.end_to_end(rec, end_to_end)
            if plain.digest.hexdigest() != rec.digest.hexdigest():
                rec.fail("trace: the traced run's result digest differs from the untraced run's")
            metrics = layer_metrics(tracer, rec, per_layer)
            enum = {s: metrics[f"query.evaluator.enumerate_ms.{s}"][0] for s in workloads.SHAPES}
            share = sum(enum[s] for s in workloads.JOIN_SHAPES) / sum(enum.values())
            print(f"join shapes' share of the eight shapes' enumeration time: {share:.3f}")
            recs = [plain, rec]
            overhead = {k: (traced[k][0] - base[k][0], traced[k][1], traced[k][2]) for k in traced}
            out = ROOT / ".bench_out" / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(out)
            print(
                "-- tracing overhead: traced minus untraced, from one pair of passes;"
                f" spans written to {out.relative_to(ROOT)} --"
            )
            _show({f"overhead.{k}": v for k, v in overhead.items()})
            _self_times(tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r.attempted for r in recs)
    failed = sum(r.failed for r in recs)
    print(f"-- {args.workload} seed={args.seed} trace={args.trace} --")
    _show(metrics)
    probes = [seconds for r in recs for _, seconds in r.probes]
    print(
        f"reference loop: median {1e3 * statistics.median(probes):.4f} ms over {len(probes)} probes;"
        f" times are rescaled to {1e3 * workloads.REFERENCE_S:g} ms"
    )
    print(f"result digest (sha256): {rec.digest.hexdigest()}")
    for r in recs:
        for message in r.failures:
            print(f"FAILED {message}")
    shown = {k: v for k, v in metrics.items() if k != NOT_IN_JSON[0]}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit, _) in shown.items()},
    }
    print(json.dumps(result), flush=True)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
