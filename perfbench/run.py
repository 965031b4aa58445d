#!/usr/bin/env python3
"""Benchmark of ``dualmix tune`` and ``dualmix run`` (see README.md here).

    python3 perfbench/run.py --workload poisson-tune --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, one process each

``--trace 0`` times whole workload calls, untraced, and prints the end-to-end
metrics; times are divided by the host factor that ``host.HostProbe``
measures between cells.  ``--trace 1`` makes one untraced call, then traced calls, and prints
the per-layer metrics, a per-cell breakdown and the tracing overhead.  The
last line of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` (cells) and ``metrics``.  Details and the environment go to
``perfbench/out/``.
"""

import os

# One process, one BLAS thread: pinned before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("poisson-tune", "poisson-run", "phase-tune")
SETUP_PROBES = 5
CHILD_TIMEOUT = 170


def import_dualmix():
    """Import dualmix from this checkout's ``src``, or exit with an error."""
    pkg = SRC / "dualmix"
    if not (pkg / "__init__.py").is_file():
        sys.exit(f"error: no dualmix package at {pkg}")
    sys.path.insert(0, str(SRC))
    import dualmix
    if Path(dualmix.__file__).resolve().parent != pkg.resolve():
        sys.exit(f"error: imported dualmix from {dualmix.__file__}, not {pkg}")
    warnings.simplefilter("ignore", RuntimeWarning)  # diverging cells overflow
    return dualmix


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------


def _cgroup_cpu_quota() -> str:
    for path in ("/sys/fs/cgroup/cpu.max", "/sys/fs/cgroup/cpu/cpu.cfs_quota_us"):
        try:
            return f"{path}: {Path(path).read_text().strip()}"
        except OSError:
            continue
    return "unreadable"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                             capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cgroup_cpu_quota": _cgroup_cpu_quota(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "git_commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------


def setup_probe(name, seed):
    """Child process: time import + config parse + the first cell's problem,
    kernel, mixing matrix and L.  Prints those seconds and the median host
    factor of five probe slices (after one past first-call costs)."""
    t0 = time.perf_counter()
    import_dualmix()
    import workloads
    from dualmix import cli
    cfg = workloads.WORKLOADS[name].config(seed)
    prob = cli.build_problem(cfg, cfg.seeds[0])
    kernel = cli.build_kernel(cfg, prob.d)
    cli.build_mixing(cfg, prob.m)
    cli.resolve_L(cfg, prob, kernel, cfg.seeds[0])
    setup = time.perf_counter() - t0
    from host import HostProbe
    probe = HostProbe()
    factors = [probe.slice()[1] for _ in range(6)][1:]
    print(repr(setup), repr(statistics.median(factors)))


def setup_seconds(name, seed) -> list:
    """``(raw seconds, host factor)`` of each of SETUP_PROBES fresh processes."""
    probes = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(seed)],
            cwd=ROOT, text=True, capture_output=True, timeout=CHILD_TIMEOUT,
            check=True)
        setup, host = map(float, out.stdout.strip().splitlines()[-1].split())
        probes.append((setup, host))
    return probes


# ---------------------------------------------------------------------------
# Workload calls
# ---------------------------------------------------------------------------


def run_calls(w, cfg, seed, max_iter, workdir, seconds, tracer=None) -> list:
    """Call the workload until the next call would end after ``seconds``
    (at least once).  Returns one dict per call.  A host probe slice runs
    before each call, after each cell and after the call; ``wall`` excludes
    the slices and ``norm`` is the call's time at quiet-host speed."""
    import workloads
    from host import HostProbe, normalized_seconds
    probe = HostProbe()
    factors, slice_s = [], [0.0]

    def after_cell():
        seconds, factor = probe.slice()
        factors.append(factor)
        slice_s[0] += seconds
        if tracer is not None:
            tracer.exclude(seconds)

    log = workloads.CellLog(tracer, after_cell)
    calls = []
    start = time.perf_counter()
    with (tracer or contextlib.nullcontext()), log:
        while True:
            log.cells = []
            if tracer is not None:
                tracer.reset()
            factors[:] = [probe.slice()[1]]
            slice_s[0] = 0.0
            t0 = time.perf_counter()
            try:
                output = workloads.call(w, cfg, max_iter, workdir)
            except Exception:
                traceback.print_exc()
                output = None
            wall = time.perf_counter() - t0 - slice_s[0]
            factors.append(probe.slice()[1])
            calls.append({
                "wall": wall, "norm": normalized_seconds(wall, log.cells, factors),
                "host": statistics.fmean(factors),
                "output": output, "cells": log.cells,
                "failed": sorted(workloads.failed_cells(w, seed, max_iter,
                                                        log, output)),
                "agg": None if tracer is None else tracer.agg,
                "f_evals": None if tracer is None else tracer.f_evals,
            })
            ok = [c["wall"] + slice_s[0] for c in calls if c["output"] is not None]
            elapsed = time.perf_counter() - start
            if not ok or elapsed + statistics.median(ok) > seconds:
                return calls


def _quantile(values, q):
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[int(q * 100) - 1]


def normalized_wall(calls) -> float:
    """Median wall time of the completed calls, in quiet-host seconds."""
    return statistics.median(c["norm"] for c in calls if c["output"] is not None)


def end_to_end(calls, setup) -> dict:
    ok = [c for c in calls if c["output"] is not None]
    wall = normalized_wall(ok)
    cells = ok[0]["cells"]
    iters = sum(c["iters"] for c in cells)
    done = [c for c in cells if c["status"] == "done"]
    return {
        "wall_s": (wall, "s"),
        "iters_per_s": (iters / wall, "1/s"),
        "setup_s": (statistics.median(raw / host for raw, host in setup), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "stationarity_reduction_digits": (statistics.fmean(
            math.log10(c["stat0"] / c["stat_final"]) for c in done), "digits"),
    }


def final_stationarity_gmean(calls) -> float:
    """Printed, not gated: it moves 10-30% between seeds with the instance."""
    cells = next(c["cells"] for c in calls if c["output"] is not None)
    return math.exp(statistics.fmean(math.log(c["stat_final"]) for c in cells
                                      if c["status"] == "done"))


def per_layer(cfg, traced, untraced_wall) -> dict:
    """Per-layer metrics of one workload call: counts from the first traced
    call (they repeat exactly), times as medians over the traced calls."""
    import workloads
    from spans import fold

    def layers(call):
        total = {}
        for cell_layers in fold(call["agg"]).values():
            for name, rec in cell_layers.items():
                acc = total.setdefault(name, [0, 0.0, 0.0])
                for i in range(3):
                    acc[i] += rec[i]
        return total

    per_call = [layers(c) for c in traced]
    first = per_call[0]
    cells = traced[0]["cells"]
    iters = sum(c["iters"] for c in cells)

    def calls(name):
        return first.get(name, [0])[0]

    def seconds(name, i):
        return statistics.median(lc.get(name, [0, 0.0, 0.0])[i] for lc in per_call)

    cell_walls = [rec[2] for (cell, span), rec in traced[0]["agg"].items()
                  if span == "cli.execute_run"]
    m, n, d = (cfg.problem[k] for k in ("m", "n", "d"))
    mix_products = sum(workloads.MIX_PRODUCTS[c["kind"]] * c["iters"] for c in cells)
    metrics = {
        "cli.execute_run.calls": (calls("cli.execute_run"), "count"),
        "cli.execute_run.p50_s": (_quantile(cell_walls, 0.5), "s"),
        "cli.execute_run.p90_s": (_quantile(cell_walls, 0.9), "s"),
        "cli.build_problem.total_s": (seconds("cli.build_problem", 2), "s"),
        "cli.resolve_L.total_s": (seconds("cli.resolve_L", 2), "s"),
        "cli.build_mixing.total_s": (seconds("cli.build_mixing", 2), "s"),
        "problems.grads_rowwise.calls": (calls("problems.grads_rowwise"), "count"),
        "problems.grads_rowwise.self_s": (seconds("problems.grads_rowwise", 1), "s"),
        # computed, not measured: the two m x n x d contractions
        "problems.grads_rowwise.flops_per_call": (4 * m * n * d, "flop"),
        "algorithms.run.self_s": (seconds("algorithms.run", 1), "s"),
        "algorithms.clip_rows.calls": (calls("algorithms.clip_rows"), "count"),
        "algorithms.clip_rows.self_s": (seconds("algorithms.clip_rows", 1), "s"),
        # computed: W is a dense m x m array, so each product is a dense GEMM
        "algorithms.W_matmul.flops_per_iter": (
            mix_products * 2 * m * m * d / max(iters, 1), "flop/iter"),
        "algorithms.W_matmul.bytes_per_iter": (
            mix_products * 8 * (m * m + 2 * m * d) / max(iters, 1), "B/iter"),
        "domains.is_interior.calls": (calls("domains.is_interior"), "count"),
        "domains.is_interior.self_s": (seconds("domains.is_interior", 1), "s"),
        "domains.is_interior.calls_per_iter": (
            calls("domains.is_interior") / max(iters, 1), "1/iter"),
    }
    for fn in ("grad", "grad_conj", "hess_solve", "hess_diag"):
        metrics[f"kernels.{fn}.calls"] = (calls(f"kernels.{fn}"), "count")
        metrics[f"kernels.{fn}.self_s"] = (seconds(f"kernels.{fn}", 1), "s")
    metrics.update({
        "kernels.solve_increasing.calls": (calls("kernels.solve_increasing"), "count"),
        "kernels.solve_increasing.self_s": (seconds("kernels.solve_increasing", 1), "s"),
        "kernels.solve_increasing.f_evals": (sum(traced[0]["f_evals"].values()), "count"),
        "diagnostics.Recorder.observe.calls": (calls("diagnostics.Recorder.observe"), "count"),
        "diagnostics.Recorder.observe.self_s": (seconds("diagnostics.Recorder.observe", 1), "s"),
        "diagnostics.consensus_potential.self_s": (seconds("diagnostics.consensus_potential", 1), "s"),
        "diagnostics.optimality_measure.self_s": (seconds("diagnostics.optimality_measure", 1), "s"),
        "diagnostics.stationarity.self_s": (seconds("diagnostics.stationarity", 1), "s"),
        "problems.value.calls": (calls("problems.value"), "count"),
        "problems.value.self_s": (seconds("problems.value", 1), "s"),
        "problems.grad.calls": (calls("problems.grad"), "count"),
        "problems.grad.self_s": (seconds("problems.grad", 1), "s"),
        "diagnostics.records_to_csv.total_s": (seconds("diagnostics.records_to_csv", 2), "s"),
        "io.bytes_written": (traced[0]["output"].get("bytes_written", 0), "B"),
        "trace.iters": (iters, "count"),
        "trace.wall_s": (normalized_wall(traced), "s"),
    })
    metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
    return metrics


CELL_COLUMNS = ("cli.execute_run", "problems.grads_rowwise", "kernels.grad_conj",
                "kernels.solve_increasing", "domains.is_interior",
                "diagnostics.Recorder.observe", "algorithms.run")


def cell_table(call) -> list:
    """Per-cell rows of one traced call: iterations, the cell's wall time
    (total of cli.execute_run) and the self time of the main layers."""
    from spans import fold
    per_cell = fold(call["agg"])
    rows = []
    for c in call["cells"]:
        layers = per_cell.get(c["key"], {})
        row = {"cell": c["key"], "status": c.get("status"), "iters": c.get("iters"),
               "f_evals": call["f_evals"].get(c["key"], 0),
               "layers": {k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
                          for k, v in sorted(layers.items())}}
        rows.append(row)
    rows.append({"cell": "batch", "layers": {
        k: {"calls": v[0], "self_s": v[1], "total_s": v[2]}
        for k, v in sorted(per_cell.get("batch", {}).items())}})
    return rows


def print_cells(rows):
    head = "cell".ljust(34) + "iters".rjust(6) + "".join(
        c.split(".")[-1][:13].rjust(14) for c in CELL_COLUMNS)
    print("per-cell self time [s] (cli.execute_run: cell wall time) of the "
          "first traced call:")
    print("  " + head)
    for row in rows:
        vals = []
        for col in CELL_COLUMNS:
            rec = row["layers"].get(col)
            v = 0.0 if rec is None else rec["total_s" if col == "cli.execute_run"
                                             else "self_s"]
            vals.append(f"{v:14.4f}")
        iters = "" if row.get("iters") is None else str(row["iters"])
        print("  " + row["cell"][:34].ljust(34) + iters.rjust(6) + "".join(vals))


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def run_one(args) -> int:
    import_dualmix()
    import workloads
    from spans import Tracer
    w = workloads.WORKLOADS[args.workload]
    max_iter = args.max_iter or w.max_iter
    env = environment()
    print(f"workload {w.name}: {w.entry} over {w.cells} cells, budget "
          f"max_iter={max_iter}, seed {args.seed}, {args.seconds} s")
    print("environment: " + json.dumps(env, sort_keys=True))
    setup = [] if args.trace else setup_seconds(w.name, args.seed)
    cfg = w.config(args.seed)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(exist_ok=True)
    try:
        workloads.warm_up(cfg)
        if args.trace:
            untraced = run_calls(w, cfg, args.seed, max_iter, workdir, 0)
            spent = sum(c["wall"] for c in untraced)
            traced = run_calls(w, cfg, args.seed, max_iter, workdir,
                               max(args.seconds - spent, 0), tracer=Tracer())
            calls = untraced + traced
        else:
            calls = run_calls(w, cfg, args.seed, max_iter, workdir, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = w.cells * len(calls)
    failed = sum(len(c["failed"]) for c in calls)
    for c in calls:
        if c["failed"]:
            print(f"FAILED cells: {c['failed']}")
    ok = [c for c in calls if c["output"] is not None]
    untraced = [c for c in ok if c["agg"] is None]
    traced_ok = [c for c in ok if c["agg"] is not None]
    if not untraced or (args.trace and not traced_ok):
        print("error: no workload call completed", file=sys.stderr)
        return 1
    walls = [c["wall"] for c in untraced]
    print(f"calls: {len(calls)}; untraced raw wall median {statistics.median(walls):.4f} s, "
          f"max {max(walls):.4f} s over n={len(walls)} (too few for a high "
          f"percentile); host factors " + ", ".join(f"{c['host']:.3f}" for c in calls))
    print(f"fail_ratio {failed / attempted:.4g} ({failed}/{attempted} cells); "
          f"final_stationarity_gmean {final_stationarity_gmean(calls):.6g}")
    detail = {"workload": w.name, "seed": args.seed, "max_iter": max_iter,
              "seconds": args.seconds, "environment": env,
              "setup_probes": setup,
              "calls": [{"wall": c["wall"], "norm": c["norm"], "host": c["host"],
                         "traced": c["agg"] is not None,
                         "failed": c["failed"], "cells": c["cells"]}
                        for c in calls]}
    if args.trace:
        metrics = per_layer(cfg, traced_ok, normalized_wall(untraced))
        detail["per_cell"] = cell_table(traced_ok[0])
        print_cells(detail["per_cell"])
        print(f"tracing overhead: {metrics['trace.overhead_s'][0]:.4f} s per call "
              f"(traced {metrics['trace.wall_s'][0]:.4f} s over n={len(traced_ok)}, "
              f"untraced {normalized_wall(untraced):.4f} s, quiet-host seconds)")
    else:
        metrics = end_to_end(calls, setup)
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:16.6g} {unit}")
    detail["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (OUT / f"{w.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1, default=str) + "\n")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": detail["metrics"]}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak RSS is the workload's own."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        if args.max_iter:
            cmd += ["--max-iter", str(args.max_iter)]
        proc = subprocess.run(cmd, cwd=ROOT, text=True, capture_output=True,
                              timeout=CHILD_TIMEOUT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode or 1
        results[name] = json.loads(lines[-1])
    names = list(results["poisson-tune"]["metrics"])
    print("\n" + "metric".ljust(40) + "".join(n.rjust(16) for n in results))
    for metric in names:
        unit = results["poisson-tune"]["metrics"][metric]["unit"]
        print(f"{metric} [{unit}]".ljust(40) + "".join(
            f"{r['metrics'][metric]['value']:16.6g}" for r in results.values()))
    print("fail_ratio".ljust(40) + "".join(
        f"{r['failed'] / r['attempted']:16.6g}" for r in results.values()))
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}/{k}": v for n, r in results.items()
                    for k, v in r["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0,
                   help="picks problem and graph seeds (taken modulo 2^32)")
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure for about this long")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--max-iter", type=int, default=None,
                   help="override the workload's iteration budget (smoke tests)")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    args.seed %= 2**32
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
