"""Smoke tests of the benchmark script.

The three-iteration run (~5 s) checks that the script works; the full
poisson-run budget (~7 s) is the only budget at which the script compares
every CSV and plot sha256 with ``perfbench/reference.json``, so it is the
test that pins the recorded CSV bytes.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _poisson_run(*extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poisson-run",
         "--seconds", "0", *extra],
        cwd=ROOT, text=True, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
    return summary


def test_perfbench_poisson_run_smoke():
    _poisson_run("--max-iter", "3")


def test_perfbench_poisson_run_csv_bytes_match_reference():
    _poisson_run("--seed", "0")
