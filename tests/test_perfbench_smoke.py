"""Smoke test of the traced benchmark run: one traced round per workload.

`python3 perfbench/run.py --workload W --seconds 0 --trace 1` must end its
standard output with the result line, and that line must carry every
per-layer metric BENCHMARK.json declares. A function a metric keys on that
is renamed or deleted, or output printed after the result, fails here.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in BENCHMARK["workloads"]])
def test_traced_run_ends_in_a_full_result_line(workload):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seconds", "0", "--trace", "1"]
    run = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
    lines = run.stdout.splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])
    assert result["correct"] is True and result["failed"] == 0
    assert {m["name"] for m in BENCHMARK["per_layer"]} <= set(result["metrics"])
    assert detail["missing_metrics"] == []
