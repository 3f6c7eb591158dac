"""Smoke-scale self-test of the benchmark harness.

Runs every workload untraced and traced on tiny inputs and checks the
output contract: the last line is the result, every metric named in
``BENCHMARK.json`` is present with its unit, and the output checks pass.
Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "7",
                "--seconds", "0", "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        metric = result["metrics"][entry["name"]]
        assert metric["unit"] == entry["unit"]
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0, entry["name"]


def test_traced_run_separates_the_layers():
    proc = _run(ROOT, "--workload", "benign", "--seed", "7",
                "--seconds", "0", "--trace", "1", "--scale", "smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    value = {name: entry["value"] for name, entry in metrics.items()}
    assert value["crypto.busy_us"] == 0 and value["sandbox.assess_us"] == 0
    assert value["trace.accounted_share"] > 0.9
    assert value["core.engine.calls.close"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
