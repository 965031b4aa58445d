"""Smoke tests of the benchmark script.

The three-iteration run (~5 s) checks that the script works.  At the full
budget and seed 0 the script compares each workload's output with
``perfbench/reference.json``: every CSV and plot sha256 for poisson-run,
which pins the recorded CSV bytes, and the winner table for the two tune
workloads (~5-10 s each).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _workload(name, *extra):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seconds", "0", *extra],
        cwd=ROOT, text=True, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-3000:]
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] is True
    assert summary["failed"] == 0
    assert summary["attempted"] > 0
    return summary


def test_perfbench_poisson_run_smoke():
    _workload("poisson-run", "--max-iter", "3")


def test_perfbench_poisson_run_csv_bytes_match_reference():
    _workload("poisson-run", "--seed", "0")


@pytest.mark.parametrize("name", ["poisson-tune", "phase-tune"])
def test_perfbench_tune_winners_match_reference(name):
    _workload(name, "--seed", "0")
