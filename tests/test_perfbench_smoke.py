"""Smoke test of the benchmark script at a three-iteration budget (~5 s)."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_poisson_run_smoke():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-run",
         "--max-iter", "3", "--seconds", "0"],
        cwd=ROOT, text=True, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
