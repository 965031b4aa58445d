"""Experiment runner CLI: run / tune / certify / check-invariants."""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

from . import algorithms, config, diagnostics, hruc, invariants, kernels, \
    network, problems
from .errors import DualmixError

OUTPUT_ROOT_ENV = "DUALMIX_OUT"


# ---------------------------------------------------------------------------
# Experiment assembly
# ---------------------------------------------------------------------------


def build_problem(cfg: config.ExperimentConfig, seed: int):
    spec = dict(cfg.problem)
    spec["seed"] = seed  # batch seed replaces the spec seed per replica
    return problems.problem_from_spec(spec)


def build_kernel(cfg: config.ExperimentConfig, dim: int):
    return kernels.kernel_from_spec(cfg.kernel, dim)


def build_mixing(cfg: config.ExperimentConfig, m: int):
    graph = network.graph_from_spec(cfg.graph, m)
    return network.metropolis_weights(graph)


def resolve_L(cfg, prob, kernel, seed) -> float:
    if cfg.L is not None:
        return float(cfg.L)
    if "L_exact" in prob.meta:
        return float(prob.meta["L_exact"])
    return problems.estimate_rel_smoothness(prob, kernel, n_samples=50,
                                            seed=[seed, 23])


def kernel_for_algorithm(kind: str, kernel, x0):
    """The kinds in ``algorithms.SHIFTED`` (DDA) run over the kernel shifted
    so the initial point minimizes it."""
    if kind not in algorithms.SHIFTED:
        return kernel
    shift = np.asarray(x0, dtype=float) - kernel.minimizer()
    return kernels.shifted(kernel, shift)


@dataclass
class Assembly:
    """One seed's ``(prob, kernel, mix, x0, L)``, shared by all of its cells:
    everything a cell needs that does not depend on its algorithm.

    ``batch`` holds the configs of cells planned to step together (see
    :func:`execute_run`) and ``stepped`` their results until each cell's
    call collects its own."""

    prob: object
    kernel: object
    mix: object
    x0: np.ndarray
    L: float
    batch: list = field(default_factory=list)
    stepped: dict = field(default_factory=dict)

    def algo_config(self, algo_spec, max_iter=None, eta=None, delta=None):
        """The :class:`algorithms.AlgoConfig` of a cell, with ``eta`` and
        ``delta`` overriding the spec's and ``auto`` values resolved."""
        spec = dict(algo_spec)
        if eta is not None:
            spec["eta"] = eta
        if delta is not None:
            spec["delta"] = delta
        if spec.get("eta") == "auto" or spec.get("delta") == "auto":
            eta_auto, delta_auto, _ = algorithms.compliant_parameters(
                self.kernel, self.L, self.mix.rho, self.prob.m)
            if spec.get("eta") == "auto":
                spec["eta"] = eta_auto
            if spec.get("delta") == "auto":
                spec["delta"] = delta_auto
        return algorithms.AlgoConfig.from_spec(spec, max_iter)


def assemble(cfg, seed) -> Assembly:
    """Build one seed's :class:`Assembly`."""
    prob = build_problem(cfg, seed)
    kernel = build_kernel(cfg, prob.d)
    mix = build_mixing(cfg, prob.m)
    x0 = config.initial_point(cfg, prob, kernel, seed)
    L = resolve_L(cfg, prob, kernel, seed)
    return Assembly(prob, kernel, mix, x0, L)


def execute_run(cfg, algo_spec, seed, *, max_iter=None, record_every=1,
                eta=None, delta=None, run_id=None, assembly=None):
    """Execute one (algorithm, seed) cell; returns (result, meta).

    ``assembly`` is the seed's :class:`Assembly`, built here when it is not
    given.  The call for a cell among the configs in ``assembly.batch``
    steps that whole batch together, with this call's ``record_every`` and
    run id; the other cells' results wait in ``assembly.stepped`` for their
    own calls.  Each equals its run alone bit for bit.
    """
    if assembly is None:
        assembly = assemble(cfg, seed)
    acfg = assembly.algo_config(algo_spec, max_iter, eta, delta)
    rid = run_id or f"{acfg.algorithm}_s{seed}"
    result = assembly.stepped.pop(acfg, None)
    if result is None:
        cfgs = [acfg]
        if acfg in assembly.batch:
            cfgs, assembly.batch = assembly.batch, []
        kernel = kernel_for_algorithm(acfg.algorithm, assembly.kernel,
                                      assembly.x0)
        results = dict(zip(cfgs, algorithms.run(
            assembly.prob, kernel, assembly.mix, cfgs, assembly.x0,
            L=assembly.L, run_id=rid, record_every=record_every)))
        result = results.pop(acfg)
        assembly.stepped.update(results)
    meta = {"rho": assembly.mix.rho, "L": assembly.L, "eta": acfg.eta,
            "delta": acfg.delta,
            "graph_retries": getattr(assembly.mix.graph, "retries", 0),
            "seed": seed, "run_id": rid, "algorithm": acfg.algorithm}
    return result, meta


# ---------------------------------------------------------------------------
# Tuning
# ---------------------------------------------------------------------------


def _final_metric(result, metric: str) -> float:
    if result.status == "diverged":
        return math.inf
    rec = result.records[-1]
    val = getattr(rec, metric)
    return val if math.isfinite(val) else math.inf


def _fill_rel_error(results):
    """Set every record's ``rel_error`` to its ``f_bar`` minus the smallest
    finite ``f_bar`` over all records of ``results``; returns that minimum
    (nan when there is none)."""
    results = list(results)
    finite_f = [r.f_bar for result in results for r in result.records
                if math.isfinite(r.f_bar)]
    f_star = min(finite_f) if finite_f else math.nan
    for result in results:
        for r in result.records:
            if math.isfinite(r.f_bar):
                r.rel_error = r.f_bar - f_star
    return f_star


def _tune_grid(cfg):
    """Every (algorithm index, eta, delta) cell of the tuning grid, in table
    order; delta is None for algorithms that do not clip."""
    for ai, spec in enumerate(cfg.algorithms):
        deltas = cfg.tuning["delta_grid"] \
            if spec["kind"] in algorithms.CLIPPED else [None]
        for eta in cfg.tuning["eta_grid"]:
            for delta in deltas:
                yield ai, float(eta), None if delta is None else float(delta)


def tune(cfg: config.ExperimentConfig, threads=1, max_iter=None) -> dict:
    """Grid-search eta (and delta for dmgt) per algorithm.

    Every cell runs for the full iteration budget on every seed; a cell's
    score is the seed-mean of the final selection metric, diverged runs
    scoring worst.  Ties break toward smaller eta, then smaller delta.
    ``rel_error`` is measured against the smallest finite ``f_bar`` over
    every record of the tune.  Seeds go one after another, each assembled
    once; the cells of one (seed, algorithm) step together as one batch,
    and every cell's result equals its standalone run bit for bit.
    ``threads`` is accepted and ignored: the cells run in one thread.
    """
    metric = cfg.tuning["select_by"]
    grid = list(_tune_grid(cfg))
    results = {}
    for seed in cfg.seeds:
        assembly = assemble(cfg, seed)
        for ai, spec in enumerate(cfg.algorithms):
            cells = [(eta, delta) for a, eta, delta in grid if a == ai]
            assembly.batch = [assembly.algo_config(spec, max_iter, eta, delta)
                              for eta, delta in cells]
            for eta, delta in cells:
                result, _ = execute_run(
                    cfg, spec, seed, max_iter=max_iter, record_every=0,
                    eta=eta, delta=delta, assembly=assembly)
                # the records are all a score needs; the final state would
                # keep the batch's arrays alive
                results[(ai, eta, delta), seed] = algorithms.RunResult(
                    records=result.records, system=None, status=result.status)
        del assembly
    if metric == "rel_error":
        _fill_rel_error(results.values())
    best = {}
    for ai, eta, delta in grid:
        vals = [_final_metric(results[(ai, eta, delta), s], metric)
                for s in cfg.seeds]
        mean = math.inf if any(not math.isfinite(v) for v in vals) \
            else sum(vals) / len(vals)
        key = (mean, eta, math.inf if delta is None else delta)
        if ai not in best or key < best[ai][0]:
            best[ai] = (key, eta, delta, mean)

    table = {}
    for ai, (_, eta, delta, mean) in best.items():
        kind = cfg.algorithms[ai]["kind"]
        name = f"{kind}#{ai}"
        if not math.isfinite(mean):
            table[name] = {"kind": kind, "status": "all-diverged",
                           "eta": None, "delta": None, "metric": None}
        else:
            table[name] = {"kind": kind, "status": "ok", "eta": eta,
                           "delta": delta, "metric": mean}
    return table


# ---------------------------------------------------------------------------
# Batch execution
# ---------------------------------------------------------------------------


def run_batch(cfg: config.ExperimentConfig, out_dir, threads=1,
              max_iter=None) -> dict:
    """Run every (algorithm, seed) cell and write CSVs, plot data, manifest.

    Outputs are byte-deterministic for a fixed config: every cell is an
    independent deterministic computation and files are written serially in
    sorted order after all cells complete.  They are written into a staging
    directory beside ``out_dir`` and then moved into it one by one with
    ``os.replace``, the manifest last as the commit marker.  On failure only
    the staging directory is removed, so a previous batch in ``out_dir``
    stays as it was.  Seeds go one after another, each assembled once, and
    cells one at a time; ``threads`` is accepted and ignored.
    """
    out = Path(out_dir)
    out.parent.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=f".{out.name}.", suffix=".staging",
                                  dir=out.parent))
    try:
        results = {}
        for seed in cfg.seeds:
            assembly = assemble(cfg, seed)
            for ai, spec in enumerate(cfg.algorithms):
                results[ai, seed] = execute_run(
                    cfg, spec, seed, max_iter=max_iter, record_every=1,
                    run_id=f"{ai:02d}_{spec['kind']}_s{seed}",
                    assembly=assembly)
            del assembly
        f_star = _fill_rel_error(result for result, _ in results.values())

        written = []

        def write(name, text):
            (stage / name).write_text(text, encoding="utf-8")
            written.append(name)

        csv_files = []
        for cell in sorted(results):
            result, meta = results[cell]
            fname = f"run_{meta['run_id']}.csv"
            write(fname, diagnostics.records_to_csv(result.records))
            csv_files.append(fname)

        for metric in ("stationarity", "rel_error", "f_bar"):
            write(f"plot_{metric}.csv", _plot_data(results, metric))

        manifest = {
            "config": yaml.safe_load(config.serialize(cfg)),
            "config_hash": hashlib.sha256(
                config.serialize(cfg).encode()).hexdigest(),
            "seeds": cfg.seeds,
            "f_star": None if math.isnan(f_star) else f_star,
            "runs": [
                {k: results[cell][1][k]
                 for k in ("run_id", "algorithm", "seed", "eta", "delta",
                           "rho", "L", "graph_retries")}
                | {"status": results[cell][0].status,
                   "diverged_at": results[cell][0].diverged_at,
                   "reason": results[cell][0].reason}
                for cell in sorted(results)
            ],
            "csv_files": csv_files,
        }
        for entry in manifest["runs"]:
            if entry["delta"] is not None and math.isinf(entry["delta"]):
                entry["delta"] = "inf"
        write("manifest.json",
              json.dumps(manifest, indent=2, sort_keys=True) + "\n")

        out.mkdir(exist_ok=True)
        for name in written:
            os.replace(stage / name, out / name)
        return manifest
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def _plot_data(results, metric) -> str:
    ids = [meta["run_id"] for _, meta in
           (results[c] for c in sorted(results))]
    series = {}
    tmax = 0
    for cell in sorted(results):
        result, meta = results[cell]
        vals = {r.t: getattr(r, metric) for r in result.records}
        series[meta["run_id"]] = vals
        tmax = max(tmax, max(vals) if vals else 0)
    lines = ["t," + ",".join(ids)]
    for t in range(tmax + 1):
        row = [str(t)]
        for rid in ids:
            v = series[rid].get(t)
            row.append("" if v is None or not math.isfinite(v)
                       else f"{v:.17g}")
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _resolve_out(path_str) -> Path:
    p = Path(path_str)
    root = os.environ.get(OUTPUT_ROOT_ENV)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _cmd_run(args):
    cfg = config.parse_config(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    out = _resolve_out(args.out or cfg.output)
    manifest = run_batch(cfg, out, max_iter=args.max_iter)
    print(f"wrote {len(manifest['csv_files'])} run files to {out}")
    for entry in manifest["runs"]:
        print(f"  {entry['run_id']}: status={entry['status']} "
              f"eta={entry['eta']:g} rho={entry['rho']:.4f}")
    return 0


def _cmd_tune(args):
    cfg = config.parse_config(args.config)
    if args.seed is not None:
        cfg.seeds = [args.seed]
    table = tune(cfg, max_iter=args.max_iter)
    any_diverged_all = False
    for name, row in table.items():
        if row["status"] == "all-diverged":
            any_diverged_all = True
            print(f"{name}: every grid cell diverged")
        else:
            delta = "" if row["delta"] is None else f" delta={row['delta']:g}"
            print(f"{name}: eta={row['eta']:g}{delta} "
                  f"({cfg.tuning['select_by']}={row['metric']:.6g})")
    if args.out:
        out = _resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(table, indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    return 1 if any_diverged_all and args.strict else 0


def _cmd_certify(args):
    spec = yaml.safe_load(args.kernel)
    if isinstance(spec, str):
        spec = {"kind": spec}
    kernel = kernels.kernel_from_spec(spec, args.dim)
    deltas = [float(s) for s in args.deltas.split(",")]
    report = hruc.certify(kernel, deltas, args.samples, args.seed,
                          floor=args.floor)
    print(report.summary())
    if args.out:
        out = _resolve_out(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(report.csv_rows(), encoding="utf-8")
        print(f"rows written to {out}")
    return 0 if report.consistent else 1


def _cmd_check(args):
    failures = invariants.run_all(verbose=True)
    print(f"{len(invariants.CHECKS) - failures}/{len(invariants.CHECKS)} "
          f"checks passed")
    return 1 if failures else 0


def _iter_budget(text) -> int:
    if not text.isdecimal():
        raise argparse.ArgumentTypeError(
            f"must be a nonnegative integer, got {text!r}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="dualmix",
        description="Decentralized mirror-descent experiments")
    sub = p.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None,
                        help="override the config seed list with one seed")
    common.add_argument("--out", default=None, help="output path")
    common.add_argument("--max-iter", type=_iter_budget, default=None,
                        help="override every algorithm's iteration budget")

    pr = sub.add_parser("run", parents=[common],
                        help="run a batch and write CSV/plot data/manifest")
    pr.add_argument("config")
    pr.set_defaults(fn=_cmd_run)

    pt = sub.add_parser("tune", parents=[common],
                        help="grid-search step sizes per algorithm")
    pt.add_argument("config")
    pt.add_argument("--strict", action="store_true",
                    help="exit nonzero if an algorithm diverges everywhere")
    pt.set_defaults(fn=_cmd_tune)

    pc = sub.add_parser("certify", help="empirically certify a kernel modulus")
    pc.add_argument("--kernel", required=True,
                    help="YAML kernel spec, e.g. '{kind: power, mu: 1, r: 2}'")
    pc.add_argument("--dim", type=int, default=5)
    pc.add_argument("--deltas", default="0.01,0.1,1")
    pc.add_argument("--samples", type=int, default=1000)
    pc.add_argument("--seed", type=int, default=7)
    pc.add_argument("--floor", type=float, default=0.1,
                    help="near-boundary offset of the interior sampler")
    pc.add_argument("--out", default=None)
    pc.set_defaults(fn=_cmd_certify)

    pk = sub.add_parser("check-invariants",
                        help="execute the runnable property suite")
    pk.set_defaults(fn=_cmd_check)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (DualmixError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
