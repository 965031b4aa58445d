#!/usr/bin/env python3
"""Self-test of the benchmark at a tiny budget (about a minute on 2 cores).

    python3 perfbench/selftest.py

1. Smoke: ``run.py --workload all`` at ``--max-iter 3`` prints every
   end-to-end metric for every workload, with no failed cell.
2. Exact counts: two traced runs of each workload agree exactly on the
   counts listed in ``EXACT``, and the traced predictions hold:
   ``kernels.solve_increasing.calls`` is 0 on both Poisson workloads and
   positive on phase-tune, and tune makes at most 2 recorder observes per
   cell.
Exits non-zero with a message on the first failure.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = [sys.executable, str(HERE / "run.py")]
TINY = ["--seed", "0", "--seconds", "1", "--max-iter", "3"]
END_TO_END = ("wall_s", "iters_per_s", "setup_s", "peak_rss_mb",
              "stationarity_reduction_digits")
EXACT = ("domains.is_interior.calls_per_iter", "problems.grads_rowwise.calls",
         "kernels.solve_increasing.f_evals", "diagnostics.Recorder.observe.calls")


def result(args) -> dict:
    proc = subprocess.run(RUN + args, cwd=HERE.parent, text=True,
                          capture_output=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"FAIL: run.py {' '.join(args)} exited "
                         f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check(ok, message):
    if not ok:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def main() -> int:
    smoke = result(["--workload", "all", "--trace", "0"] + TINY)
    check(smoke["correct"] and smoke["failed"] == 0,
          f"smoke run of every workload: {smoke['failed']} failed cells")
    for name in ("poisson-tune", "poisson-run", "phase-tune"):
        missing = [m for m in END_TO_END if f"{name}/{m}" not in smoke["metrics"]]
        check(not missing, f"{name} prints every end-to-end metric {missing or ''}")

        a, b = (result(["--workload", name, "--trace", "1"] + TINY)["metrics"]
                for _ in range(2))
        for metric in EXACT:
            check(a[metric]["value"] == b[metric]["value"],
                  f"{name} {metric} repeats exactly ({a[metric]['value']})")
        solves = a["kernels.solve_increasing.calls"]["value"]
        if name == "phase-tune":
            check(solves > 0, f"{name} uses the iterative inverse ({solves} calls)")
        else:
            check(solves == 0, f"{name} never calls solve_increasing")
        if name.endswith("-tune"):
            observes = a["diagnostics.Recorder.observe.calls"]["value"]
            cells = a["cli.execute_run.calls"]["value"]
            check(observes <= 2 * cells,
                  f"{name} observes {observes} times for {cells} cells")
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
