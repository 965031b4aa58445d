"""Run metrics: stationarity, consensus/descent potentials, optimality measure.

The analysis potentials are evaluated in the proxy local norm taken at the
averaged dual iterate (the theta = 0 choice of the interpolation point).
That choice is exact in Euclidean geometry; elsewhere the relative Hessian
regularity keeps it within a (1 + zeta(delta)) factor of any admissible
interpolation, which is what the 1.1 assertion slack accounts for.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

BND_TOL = 1e-12

CSV_COLUMNS = [
    "run_id", "algorithm", "kernel", "t", "f_bar", "stationarity", "rel_error",
    "consensus_primal", "consensus_dual", "E_t_proxy", "M_t_proxy", "G_proxy",
    "clipped", "status",
]


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


@dataclass
class RunRecord:
    run_id: str
    algorithm: str
    kernel: str
    t: int
    f_bar: float
    stationarity: float
    consensus_primal: float
    consensus_dual: float
    E_t_proxy: float
    M_t_proxy: float
    G_proxy: float = math.nan
    rel_error: float = math.nan
    clipped: bool = False
    status: str = "running"

    def csv_row(self) -> str:
        vals = [self.run_id, self.algorithm, self.kernel, _fmt(self.t),
                _fmt(self.f_bar), _fmt(self.stationarity), _fmt(self.rel_error),
                _fmt(self.consensus_primal), _fmt(self.consensus_dual),
                _fmt(self.E_t_proxy), _fmt(self.M_t_proxy), _fmt(self.G_proxy),
                _fmt(self.clipped), self.status]
        return ",".join(vals)


def records_to_csv(records) -> str:
    buf = io.StringIO()
    buf.write(",".join(CSV_COLUMNS) + "\n")
    for r in records:
        buf.write(r.csv_row() + "\n")
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Pointwise metrics
# ---------------------------------------------------------------------------


def stationarity(prob, kernel, x) -> float:
    """Distance from grad f(x) to the negative normal cone of the feasible set.

    Interior points reduce to the plain gradient norm; at an active bound the
    coordinate contributes only the infeasible part of the gradient (the
    componentwise projection residual).
    """
    x = np.asarray(x, dtype=float)
    g = prob.grad(x)
    dom = prob.domain
    r = g.copy()
    at_lo = np.isfinite(dom.lo) & (x - dom.lo <= BND_TOL)
    at_hi = np.isfinite(dom.hi) & (dom.hi - x <= BND_TOL)
    # at a lower bound, -N contains all v >= 0: only the negative part remains
    r[at_lo] = np.minimum(g[at_lo], 0.0)
    r[at_hi] = np.maximum(g[at_hi], 0.0)
    return float(np.linalg.norm(r))


def local_stationarity(prob, kernel, x) -> float:
    """Dual local norm of the gradient, sqrt(grad f^T hess h(x)^{-1} grad f).

    This is the kernel geometry in which the optimality measure weighs the
    dual step.  It equals the gradient norm for the Euclidean kernel, and it
    vanishes at a KKT point whose active coordinates sit on a boundary where
    the inverse Hessian of h goes to zero (Burg, Boltzmann-Shannon), which
    interior iterates approach while their normal-cone stationarity stays
    near the gradient norm at the optimum.
    """
    x = np.asarray(x, dtype=float)
    g = prob.grad(x)
    return math.sqrt(float(g @ kernel.hess_solve(x, g)))


def dual_average(system, kernel):
    """zbar and xbar = grad h*(zbar) for the current state."""
    zbar = system.Z.mean(axis=0)
    return zbar, kernel.grad_conj(zbar)


def xi_const(L, rho, lambda_val) -> float:
    return 32.0 * L * L * lambda_val * lambda_val / (1.0 - rho) ** 2


def lambda_of(kernel, m, rho, delta) -> float:
    """1 + zeta(sqrt(20 m) * delta / (1 - rho))."""
    if not math.isfinite(delta):
        return 1.0 if kernel.zeta(1.0) == 0.0 else math.inf
    return 1.0 + kernel.zeta(math.sqrt(20.0 * m) / (1.0 - rho) * delta)


def consensus_potential(system, kernel, L, rho, lambda_val) -> float:
    """E_t: tracker disagreement plus xi-weighted dual disagreement, both in
    the inverse-Hessian norm at the averaged dual iterate."""
    return _consensus(system, kernel, dual_average(system, kernel),
                      xi_const(L, rho, lambda_val))


def descent_potential(system, prob, kernel, L, rho, lambda_val,
                      f_bar=None, E=None) -> float:
    """M_t = f(xbar) + E_t / (8 L)."""
    if f_bar is None or E is None:
        dual = dual_average(system, kernel)
        if f_bar is None:
            f_bar = prob.value(dual[1])
        if E is None:
            E = _consensus(system, kernel, dual, xi_const(L, rho, lambda_val))
    return float(f_bar) + E / (8.0 * L)


def optimality_measure(system, system_next, kernel, L, eta, rho,
                       lambda_val) -> float:
    """G at iteration t from the (t, t+1) state pair.

    Combines the dual residual |zbar' - zbar|^2 in the proxy norm, the
    Bregman residual of the averaged primal iterates, and the consensus
    potential, with the weights of the convergence analysis.
    """
    dual = dual_average(system, kernel)
    E = _consensus(system, kernel, dual, xi_const(L, rho, lambda_val))
    return _optimality(kernel, dual, dual_average(system_next, kernel), E,
                       L, eta, rho)


def _consensus(system, kernel, dual, xi) -> float:
    """E_t of a state whose ``dual_average`` is ``dual``: one inverse-Hessian
    solve at xbar on the stacked tracker and dual deviations."""
    zbar, xbar = dual
    m = system.X.shape[0]
    Yc = system.Y - system.Y.mean(axis=0)
    Zc = system.Z - zbar
    dev = np.concatenate([Yc, Zc])
    H = kernel.hess_solve(np.broadcast_to(xbar, dev.shape), dev)
    with np.errstate(over="ignore"):  # diverging runs may overflow to inf
        total = float(np.sum(H[:m] * Yc) + xi * np.sum(H[m:] * Zc))
    return total / m


def _optimality(kernel, dual, dual_next, E, L, eta, rho) -> float:
    """G from the dual averages of a (t, t+1) pair and E_t of state t."""
    zbar, xbar = dual
    dz = dual_next[0] - zbar
    dual_sq = float(dz @ kernel.hess_solve(xbar, dz))
    breg = kernel.bregman(xbar, dual_next[1])
    return (dual_sq / (12.0 * eta * eta)
            + (L / eta) * breg
            + (1.0 - rho) / (32.0 * L * eta) * E)


def case1_optimality(system, L, eta, rho) -> float:
    """Specialized optimality measure for the identity-quadratic kernel:
    (1/12 + L eta / 2) |ybar|^2 plus the weighted plain consensus errors."""
    m = system.X.shape[0]
    ybar = system.Y.mean(axis=0)
    xbar = system.X.mean(axis=0)
    xi = xi_const(L, rho, 1.0)
    cons = float(np.sum((system.Y - ybar) ** 2)
                 + xi * np.sum((system.X - xbar) ** 2)) / m
    return ((1.0 / 12.0 + L * eta / 2.0) * float(ybar @ ybar)
            + (1.0 - rho) / (32.0 * L * eta) * cons)


def theorem_bound_check(records, f0, f_lower, eta, T, euclidean=True):
    """Check min_{t<T} G <= slack * (f(x0) - flow) / (T eta).

    Exact (slack 1) for Euclidean kernels, slack 1.1 for proxy-norm
    geometries.  Returns (holds, margin) with margin = rhs - min G.
    """
    gs = [r.G_proxy for r in records if r.t < T and math.isfinite(r.G_proxy)]
    if not gs:
        raise ValueError("no finite optimality measures among the records")
    slack = 1.0 if euclidean else 1.1
    rhs = slack * (f0 - f_lower) / (T * eta)
    g_min = min(gs)
    return g_min <= rhs, rhs - g_min


# ---------------------------------------------------------------------------
# Invariant residuals used by the property suites
# ---------------------------------------------------------------------------


def tracking_residual(system, prob) -> float:
    """|ybar - (1/m) sum_i grad f_i(x_i)|: zero under gradient tracking."""
    ybar = system.Y.mean(axis=0)
    gbar = prob.grads_rowwise(system.X).mean(axis=0)
    return float(np.linalg.norm(ybar - gbar))


def clipping_bound_residuals(prev, cur, delta, rho):
    """Signed residuals (lhs - rhs) of the three iterate bounds under
    clipping; all three are nonpositive when the bounds hold."""
    m = prev.Z.shape[0]
    zbar_prev = prev.Z.mean(axis=0)
    zbar_cur = cur.Z.mean(axis=0)
    r1 = float(np.linalg.norm(zbar_prev - zbar_cur)) - delta
    r2 = (float(np.linalg.norm(prev.Z - zbar_prev, ord="fro"))
          - math.sqrt(3.0 * m) / (1.0 - rho) * delta)
    r3 = (float(np.linalg.norm(prev.Z - cur.Z, ord="fro"))
          - math.sqrt(20.0 * m) / (1.0 - rho) * delta)
    return r1, r2, r3


# ---------------------------------------------------------------------------
# Recorder
# ---------------------------------------------------------------------------


class Recorder:
    """Builds the per-iteration record stream for one run.

    The optimality measure of iteration t needs the successor state, so the
    record for t is back-filled when t+1 arrives; the final record keeps
    G = nan.  Each state's dual average and consensus potential are computed
    once, and only those of the last observed state are kept for that
    back-fill.
    """

    def __init__(self, prob, kernel, rho, L, eta, delta, run_id="run",
                 algorithm="", m=None):
        self.prob = prob
        self.kernel = kernel
        self.rho = rho
        self.L = L
        self.eta = eta
        self.delta = delta
        self.run_id = run_id
        self.algorithm = algorithm
        m = prob.m if m is None else m
        lam = lambda_of(kernel, m, rho, delta)
        self.lambda_val = lam if math.isfinite(lam) else 1.0
        self._xi = xi_const(L, rho, self.lambda_val)
        self.records = []
        self._prev = None      # (dual average, E) of the last observed state

    def observe(self, system, clipped=False, status="running"):
        dual = dual_average(system, self.kernel)
        if self._prev is not None and self.records:
            last = self.records[-1]
            if math.isnan(last.G_proxy):
                prev_dual, prev_E = self._prev
                last.G_proxy = _optimality(self.kernel, prev_dual, dual, prev_E,
                                           self.L, self.eta, self.rho)
        rec = self._make_record(system, dual, clipped=clipped, status=status)
        self.records.append(rec)
        self._prev = (dual, rec.E_t_proxy)
        return rec

    def mark_final(self, status):
        if self.records:
            self.records[-1].status = status

    def _make_record(self, system, dual, clipped, status):
        zbar, xbar = dual
        f_bar = self.prob.value(xbar)
        stat = stationarity(self.prob, self.kernel, xbar)
        xbar_rows = system.X.mean(axis=0)
        cons_p = float(np.sum((system.X - xbar_rows) ** 2)) / system.X.shape[0]
        cons_d = float(np.sum((system.Z - zbar) ** 2)) / system.Z.shape[0]
        E = _consensus(system, self.kernel, dual, self._xi)
        M = f_bar + E / (8.0 * self.L)
        return RunRecord(
            run_id=self.run_id, algorithm=self.algorithm,
            kernel=self.kernel.name, t=system.t, f_bar=f_bar,
            stationarity=stat, consensus_primal=cons_p, consensus_dual=cons_d,
            E_t_proxy=E, M_t_proxy=M, clipped=clipped, status=status,
        )
