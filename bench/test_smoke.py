"""Smoke test of the benchmark at tiny sizes: every metric is emitted and
every gate passes.  No timing thresholds.

    PYTHONPATH=src python -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
from run import END_TO_END

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fit-long", "gemm-pipeline", "matrix-io")

# Printed on the workload's metric lines, beside the end-to-end metrics that
# the result line carries for every workload.
PRINTED = {
    "fit-long": {"pass_s", "fit_elems_per_s", "failed_frac"},
    "gemm-pipeline": {"pass_s", "gemm_macs_per_s", "dot_us_p50", "dot_us_p99", "failed_frac"},
    "matrix-io": {"pass_s", "failed_frac"},
}


def run_bench(workload, trace, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--size", "tiny",
         "--seconds", "0.3", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


def printed_metrics(stdout: str) -> dict:
    out = {}
    for line in stdout.splitlines():
        if line.startswith("metric "):
            _, name, value, unit, *_ = line.split()
            out[name] = (float(value), unit)
    return out


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_and_every_gate_passes(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = [n for n, _, _ in (spans.PER_LAYER if trace else END_TO_END)]
    assert sorted(result["metrics"]) == sorted(expected)
    for metric in result["metrics"].values():
        assert set(metric) == {"value", "unit"}
        assert isinstance(metric["value"], float)
    printed = printed_metrics(proc.stdout)
    assert set(expected) | PRINTED[workload] <= set(printed)
    assert printed["failed_frac"][0] == 0.0
    assert proc.stdout.startswith("env python=")


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == spans.PER_LAYER


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run_bench("gemm-pipeline", 0, cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
