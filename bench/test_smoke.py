"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q bench/test_smoke.py

Every workload runs briefly, untraced and traced.  Each run must pass
every check and print every metric that BENCHMARK.json names; the
untraced run also prints the end-to-end metrics that are no JSON metric
(``ops_failed_frac``).  A checkout without the engine sources must fail
without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
# Printed by name with its unit, but no JSON metric: it is 0 on a correct
# run, and the JSON line carries it as ``failed`` / ``attempted``.
NOT_IN_JSON = (("ops_failed_frac", "ratio"),)


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_every_check_and_prints_every_metric(workload: str, trace: str) -> None:
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds", "1", "--trace", trace, "--tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0 or name == "query.evaluator.truncated", name
    lines = proc.stdout.splitlines()
    if trace == "0":
        for name, unit in [(m["name"], m["unit"]) for m in wanted] + list(NOT_IN_JSON):
            assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in lines), name
    else:
        assert any(line.startswith("overhead.build_s") for line in lines)
        assert any(line.startswith("-- self time by span") for line in lines)
    assert any(line.startswith("result digest (sha256): ") for line in lines)


def test_fails_without_engine_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "query", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
