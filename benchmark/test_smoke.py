"""Smoke test of the benchmark itself: every workload at a tiny size.

Run from the repository root with ``python3 -m pytest benchmark/test_smoke.py``.
Each run must exit 0, print every metric BENCHMARK.json names with its
unit, fail no operation, and repeat its work counts exactly.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from run import COUNT_METRICS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _bench(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0.2",
           "--trace", str(trace), "--size", "tiny"]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


@functools.cache
def run(workload: str, trace: int, attempt: int = 0) -> tuple[dict, dict]:
    proc = _bench(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    *_, report_line, result_line = proc.stdout.strip().splitlines()
    return json.loads(report_line)["report"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_present_and_no_errors(workload, trace, kind):
    report, result = run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], report["errors"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert report["error_rate"] == {"value": 0.0, "unit": "ratio"}
    want = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == want
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_counts_repeat_across_runs(workload):
    first = run(workload, 1)[1]["metrics"]
    second = run(workload, 1, attempt=1)[1]["metrics"]
    assert {n: first[n] for n in COUNT_METRICS} == {n: second[n] for n in COUNT_METRICS}


def test_refuses_without_program_sources():
    bare = ROOT / ".splitcut_bench" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(ROOT / "benchmark", bare / "benchmark", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = _bench(bare, WORKLOADS[0], 0)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""
