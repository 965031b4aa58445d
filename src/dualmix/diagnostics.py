"""Run metrics: stationarity, consensus/descent potentials, optimality measure.

The analysis potentials are evaluated in the proxy local norm taken at the
averaged dual iterate (the theta = 0 choice of the interpolation point).
That choice is exact in Euclidean geometry; elsewhere the relative Hessian
regularity keeps it within a (1 + zeta(delta)) factor of any admissible
interpolation, which is what the 1.1 assertion slack accounts for.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

BND_TOL = 1e-12

CSV_COLUMNS = [
    "run_id", "algorithm", "kernel", "t", "f_bar", "stationarity", "rel_error",
    "consensus_primal", "consensus_dual", "E_t_proxy", "M_t_proxy", "G_proxy",
    "clipped", "status",
]


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
        """One CSV line: integers and flags as digits, floats with 17
        significant digits (they round-trip), and no line terminator."""
        return (f"{self.run_id},{self.algorithm},{self.kernel},{self.t:d},"
                f"{self.f_bar:.17g},{self.stationarity:.17g},"
                f"{self.rel_error:.17g},{self.consensus_primal:.17g},"
                f"{self.consensus_dual:.17g},{self.E_t_proxy:.17g},"
                f"{self.M_t_proxy:.17g},{self.G_proxy:.17g},"
                f"{self.clipped:d},{self.status}")


def records_to_csv(records) -> str:
    lines = [",".join(CSV_COLUMNS)] + [r.csv_row() for r in records]
    return "\n".join(lines) + "\n"


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
    return _stationarity(prob.domain, x, prob.grad(x))


def _stationarity(dom, x, g) -> float:
    """:func:`stationarity` at ``x`` from the gradient ``g`` there.  An
    infinite bound is never within BND_TOL of x: the gap is inf or nan."""
    at_lo = x - dom.lo <= BND_TOL
    at_hi = dom.hi - x <= BND_TOL
    if at_lo.any() or at_hi.any():
        r = g.copy()
        # at a lower bound, -N contains all v >= 0: only the negative
        # part remains
        r[at_lo] = np.minimum(g[at_lo], 0.0)
        r[at_hi] = np.maximum(g[at_hi], 0.0)
        g = r
    return float(np.linalg.norm(g))


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
    zbar, xbar = dual_average(system, kernel)
    return _consensus(system.Y, system.Z - zbar, kernel.hess_solver(xbar),
                      xi_const(L, rho, lambda_val))


def descent_potential(system, prob, kernel, L, rho, lambda_val,
                      f_bar=None, E=None) -> float:
    """M_t = f(xbar) + E_t / (8 L)."""
    if f_bar is None:
        f_bar = prob.value(dual_average(system, kernel)[1])
    if E is None:
        E = consensus_potential(system, kernel, L, rho, lambda_val)
    return float(f_bar) + E / (8.0 * L)


def optimality_measure(system, system_next, kernel, L, eta, rho,
                       lambda_val) -> float:
    """G at iteration t from the (t, t+1) state pair.

    Combines the dual residual |zbar' - zbar|^2 in the proxy norm, the
    Bregman residual of the averaged primal iterates, and the consensus
    potential, with the weights of the convergence analysis.
    """
    zbar, xbar = dual_average(system, kernel)
    solve = kernel.hess_solver(xbar)
    E = _consensus(system.Y, system.Z - zbar, solve,
                   xi_const(L, rho, lambda_val))
    zbar_next, xbar_next = dual_average(system_next, kernel)
    return _optimality(solve, zbar_next - zbar,
                       kernel.bregman(xbar, xbar_next), E, L, eta, rho)


def _consensus(Y, Zc, solve, xi) -> float:
    """E_t of a state with trackers ``Y`` and dual deviations ``Zc = Z -
    zbar``, where ``solve`` is the inverse Hessian at xbar."""
    Yc = Y - Y.mean(axis=0)
    HY, HZ = solve(Yc), solve(Zc)
    with np.errstate(over="ignore"):  # diverging runs may overflow to inf
        total = float((HY * Yc).sum() + xi * (HZ * Zc).sum())
    return total / Y.shape[0]


def _optimality(solve, dz, breg, E, L, eta, rho) -> float:
    """G of iteration t from the inverse Hessian at xbar_t, the dual step
    dz = zbar_{t+1} - zbar_t, D_h(xbar_t, xbar_{t+1}) and E_t."""
    dual_sq = float(dz @ solve(dz))
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
    G = nan.  Each state is evaluated once: its dual average, one
    ``value_and_grad`` of the problem at xbar, one inverse Hessian at xbar
    (where xbar passes its one interior check), and h(xbar).  The last
    state's dual average, Hessian, h(xbar) and E are kept for the back-fill,
    whose Bregman term evaluates h and grad h at the new xbar unchecked.
    """

    def __init__(self, prob, kernel, rho, L, eta, delta, run_id="run",
                 algorithm=""):
        self.prob = prob
        self.kernel = kernel
        self.rho = rho
        self.L = L
        self.eta = eta
        self.delta = delta
        self.run_id = run_id
        self.algorithm = algorithm
        lam = lambda_of(kernel, prob.m, rho, delta)
        self.lambda_val = lam if math.isfinite(lam) else 1.0
        self._xi = xi_const(L, rho, self.lambda_val)
        self.records = []
        self._prev = None   # (zbar, xbar, solve, h(xbar), E) of the last state

    def observe(self, system):
        kernel = self.kernel
        X, Y, Z = system.X, system.Y, system.Z
        m = X.shape[0]
        zbar, xbar = dual_average(system, kernel)
        solve = kernel.hess_solver(xbar)  # xbar's one interior check
        h = kernel._value(xbar)
        f_bar, g = self.prob.value_and_grad(xbar)
        Zc = Z - zbar
        E = _consensus(Y, Zc, solve, self._xi)
        if self.records and math.isnan(self.records[-1].G_proxy):
            zbar0, xbar0, solve0, h0, E0 = self._prev
            self.records[-1].G_proxy = _optimality(
                solve0, zbar - zbar0, kernel._bregman(xbar0, xbar, h0, h),
                E0, self.L, self.eta, self.rho)
        rec = RunRecord(
            run_id=self.run_id, algorithm=self.algorithm, kernel=kernel.name,
            t=system.t, f_bar=f_bar,
            stationarity=_stationarity(self.prob.domain, xbar, g),
            consensus_primal=float(((X - X.mean(axis=0)) ** 2).sum()) / m,
            consensus_dual=float((Zc ** 2).sum()) / m,
            E_t_proxy=E, M_t_proxy=f_bar + E / (8.0 * self.L),
            clipped=system.clipped, status="running",
        )
        self.records.append(rec)
        self._prev = (zbar, xbar, solve, h, E)
        return rec

    def mark_final(self, status):
        if self.records:
            self.records[-1].status = status
