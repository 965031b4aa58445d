"""The three benchmark workloads, the per-cell log, and the output checks.

Each workload is one call of a public entry point, ``cli.tune`` or
``cli.run_batch``, with ``threads=1``.  Its cells run one after another
(a closed loop of one caller).  The seed argument picks the problem seeds
and the graph seed; seed 0 is the desk configuration of the acceptance
suite (problem seeds 1, 2, 3 and graph seed 7).
"""

from __future__ import annotations

import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

from dualmix import cli, config

from spans import BATCH, cell_key

DEFAULT_SEED = 0
REFERENCE = Path(__file__).resolve().parent / "reference.json"

_POISSON = """
problem: {{kind: poisson, d: 200, n: 50, m: 8, seed: 1}}
kernel: {{kind: burg, mu: 1.0}}
graph: {{kind: erdos_renyi, p: 0.5, seed: {graph_seed}}}
algorithms:
{algorithms}
tuning:
  eta_grid: [1.0e-4, 1.0e-3, 1.0e-2, 1.0e-1, 1.0]
  delta_grid: [1.0e-2, 1.0e-1, 1.0, 10.0]
  select_by: stationarity
seeds: [{s1}, {s2}, {s3}]
init: {{kind: random_positive, scale: 1.0}}
"""

# The eta grid stops at 5e-3: from 1e-2 up, dgt and dmd blow up on some
# problem seeds and not on others, and a blown-up cell costs 2-5x a normal
# one in the inverse solver, so the work per call would depend on the seed.
_PHASE = """
problem: {{kind: phase_retrieval, d: 50, n: 100, m: 10, noise_sd: 0.1, seed: 1}}
kernel: {{kind: quartic}}
graph: {{kind: ring}}
algorithms:
{algorithms}
tuning:
  eta_grid: [1.0e-4, 1.0e-3, 3.0e-3, 5.0e-3]
  delta_grid: [0.1, 1.0, 10.0]
  select_by: stationarity
seeds: [{s1}, {s2}]
init: {{kind: gauss, scale: 1.0}}
"""

_TUNE_ALGOS = ("{kind: dmgt}", "{kind: dmd}", "{kind: dgt}", "{kind: dda}")
# the poisson-tune winners at the default seed and budget
_RUN_ALGOS = ("{kind: dmgt, eta: 0.1, delta: 1.0}", "{kind: dmd, eta: 0.01}",
              "{kind: dgt, eta: 0.01}", "{kind: dda, eta: 0.01}")

# W @ (.) products per iteration of each step rule (algorithms.py)
MIX_PRODUCTS = {"dmgt": 2, "dda": 2, "dmd": 1, "dgt": 2}


@dataclass(frozen=True)
class Workload:
    name: str
    entry: str          # "tune" or "run"
    template: str
    algorithms: tuple   # YAML entries of the config's algorithm list
    max_iter: int       # the stated iteration budget of every cell
    cells: int          # cells per call

    def config_text(self, seed: int) -> str:
        algos = "\n".join(f"  - {a}" for a in self.algorithms)
        return self.template.format(
            algorithms=algos, graph_seed=seed + 7,
            s1=seed + 1, s2=seed + 2, s3=seed + 3)

    def config(self, seed: int):
        return config.parse_config_text(self.config_text(seed))


WORKLOADS = {
    w.name: w for w in (
        Workload("poisson-tune", "tune", _POISSON, _TUNE_ALGOS,
                 max_iter=200, cells=(20 + 5 + 5 + 5) * 3),
        Workload("poisson-run", "run", _POISSON, _RUN_ALGOS,
                 max_iter=300, cells=4 * 3),
        Workload("phase-tune", "tune", _PHASE, _TUNE_ALGOS[:3],
                 max_iter=200, cells=(12 + 4 + 4) * 2),
    )
}


class CellLog:
    """Wraps ``cli.execute_run`` to log every cell's outcome and wall time.

    It also tells an active tracer which cell its spans belong to, and calls
    ``after_cell()`` once each cell has ended.  The wrapper runs once per
    cell, so its own cost is negligible next to a cell.
    """

    def __init__(self, tracer=None, after_cell=None):
        self.tracer = tracer
        self.after_cell = after_cell
        self.cells = []

    def __enter__(self):
        self._original = cli.execute_run
        cli.execute_run = self._run
        return self

    def __exit__(self, *exc):
        cli.execute_run = self._original
        return False

    def _run(self, cfg, algo_spec, seed, **kwargs):
        key = cell_key(algo_spec, seed, kwargs.get("eta"), kwargs.get("delta"))
        entry = {"key": key, "kind": algo_spec["kind"],
                 "run_id": kwargs.get("run_id")}
        self.cells.append(entry)
        if self.tracer is not None:
            self.tracer.cell = key
        t0 = time.perf_counter()
        try:
            result, meta = self._original(cfg, algo_spec, seed, **kwargs)
        except Exception as exc:
            entry["error"] = f"{type(exc).__name__}: {exc}"
            raise
        finally:
            entry["wall"] = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.cell = BATCH
            if self.after_cell is not None:
                self.after_cell()
        entry.update(status=result.status, iters=result.system.t,
                     diverged_at=result.diverged_at,
                     stat0=result.records[0].stationarity,
                     stat_final=result.records[-1].stationarity)
        return result, meta


def call(workload: Workload, cfg, max_iter: int, workdir: Path) -> dict:
    """One workload call; returns what the checks need."""
    if workload.entry == "tune":
        table = cli.tune(cfg, threads=1, max_iter=max_iter)
        return {"winners": {name: {k: row[k] for k in ("eta", "delta", "status")}
                            for name, row in table.items()}}
    out = workdir / "batch"
    try:
        manifest = cli.run_batch(cfg, out, threads=1, max_iter=max_iter)
        files = sorted(out.iterdir())
        runs = {}
        for entry in manifest["runs"]:
            text = (out / f"run_{entry['run_id']}.csv").read_text()
            rows = text.splitlines()
            col = rows[0].split(",").index("stationarity")
            runs[entry["run_id"]] = {
                "status": entry["status"], "diverged_at": entry["diverged_at"],
                "rows": len(rows) - 1,
                "stat_final": float(rows[-1].split(",")[col]),
            }
        return {
            "runs": runs,
            "sha256": {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                       for p in files if p.suffix == ".csv"},
            "bytes_written": sum(p.stat().st_size for p in files),
        }
    finally:
        shutil.rmtree(out, ignore_errors=True)


def reference_view(workload: Workload, output: dict) -> dict:
    """The part of a call's output that is compared against reference.json."""
    if workload.entry == "tune":
        return {"winners": output["winners"]}
    return {"runs": {rid: {"status": r["status"],
                           "diverged_at": r["diverged_at"]}
                     for rid, r in output["runs"].items()},
            "sha256": output["sha256"]}


def failed_cells(workload: Workload, seed: int, max_iter: int, log: CellLog,
                 output: dict | None) -> set:
    """Keys of the cells that raised, are missing, or fail an output check.

    Structural checks run on every seed: every cell present, status done or
    diverged, a finite final stationarity for done cells, and (for run) a CSV
    row count that agrees with the budget or ``diverged_at``.  At the default
    seed and budget the output must also equal the stored reference.
    Divergence is an experimental outcome, not a failure.
    """
    bad = {c["key"] for c in log.cells
           if "error" in c or c["status"] not in ("done", "diverged")
           or (c["status"] == "done" and not math.isfinite(c["stat_final"]))}
    bad |= {f"missing#{i}" for i in range(len(log.cells), workload.cells)}
    if output is None:
        return bad
    keys_by_kind = {}
    for c in log.cells:
        keys_by_kind.setdefault(c["kind"], set()).add(c["key"])
    key_of_run = {c["run_id"]: c["key"] for c in log.cells}
    if workload.entry == "run":
        for rid, r in output["runs"].items():
            done_ok = r["status"] == "done" and r["rows"] == max_iter + 1 \
                and math.isfinite(r["stat_final"])
            div_ok = r["status"] == "diverged" and r["diverged_at"] is not None \
                and r["diverged_at"] <= r["rows"] <= r["diverged_at"] + 1
            if not (done_ok or div_ok):
                bad.add(key_of_run.get(rid, f"run:{rid}"))
    if seed != DEFAULT_SEED or max_iter != workload.max_iter:
        return bad
    ref = json.loads(REFERENCE.read_text())[workload.name]
    got = reference_view(workload, output)
    if workload.entry == "tune":
        for name, row in ref["winners"].items():
            if got["winners"].get(name) != row:
                kind = name.split("#")[0]  # tune names rows "<kind>#<index>"
                bad |= keys_by_kind.get(kind, {f"winner:{name}"})
    else:
        for rid, row in ref["runs"].items():
            csv = f"run_{rid}.csv"
            if got["runs"].get(rid) != row or \
                    got["sha256"].get(csv) != ref["sha256"][csv]:
                bad.add(key_of_run.get(rid, f"run:{rid}"))
        if any(got["sha256"].get(f) != h for f, h in ref["sha256"].items()
               if f.startswith("plot_")):
            bad |= {c["key"] for c in log.cells}
    return bad


def warm_up(cfg):
    """Run one short cell so lazy imports and first-call costs are paid
    before timing starts."""
    cli.execute_run(cfg, cfg.algorithms[0], cfg.seeds[0], max_iter=2,
                    record_every=1)
