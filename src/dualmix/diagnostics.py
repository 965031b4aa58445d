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

from .errors import DIVERGENCE

BND_TOL = 1e-12
# States a recorder evaluates in one pass; measured on the recorded Poisson
# batch of perfbench's poisson-run workload
CHUNK = 32

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


def stationarity(prob, x) -> float:
    """Distance from grad f(x) to the negative normal cone of the feasible set.

    Interior points reduce to the plain gradient norm; at an active bound the
    coordinate contributes only the infeasible part of the gradient (the
    componentwise projection residual).
    """
    x = np.asarray(x, dtype=float)
    return float(np.linalg.norm(_normal_residual(prob.domain, x, prob.grad(x))))


def _normal_residual(dom, x, g):
    """The gradients ``g`` at points ``x`` (..., d) less their parts in the
    negative normal cone, whose norms are the stationarity.  An infinite
    bound is never within BND_TOL of x: the gap is inf or nan."""
    at_lo = x - dom.lo <= BND_TOL
    at_hi = dom.hi - x <= BND_TOL
    if at_lo.any() or at_hi.any():
        # at a lower bound, -N contains all v >= 0: only the negative
        # part remains
        g = np.where(at_hi, np.maximum(g, 0.0),
                     np.where(at_lo, np.minimum(g, 0.0), g))
    return g


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
    return float(_consensus(_deviations(system, zbar), kernel.hess_solver(xbar),
                            xi_const(L, rho, lambda_val)))


def descent_potential(system, prob, kernel, L, rho, lambda_val) -> float:
    """M_t = f(xbar) + E_t / (8 L)."""
    xbar = dual_average(system, kernel)[1]
    E = consensus_potential(system, kernel, L, rho, lambda_val)
    return float(prob.value(xbar)) + E / (8.0 * L)


def optimality_measure(system, system_next, kernel, L, eta, rho,
                       lambda_val) -> float:
    """G at iteration t from the (t, t+1) state pair.

    Combines the dual residual |zbar' - zbar|^2 in the proxy norm, the
    Bregman residual of the averaged primal iterates, and the consensus
    potential, with the weights of the convergence analysis.
    """
    zbar, xbar = dual_average(system, kernel)
    solve = kernel.hess_solver(xbar)
    E = _consensus(_deviations(system, zbar), solve,
                   xi_const(L, rho, lambda_val))
    zbar_next, xbar_next = dual_average(system_next, kernel)
    dz = zbar_next - zbar
    return float(_optimality(float(dz @ solve(dz)),
                             kernel.bregman(xbar, xbar_next), E, L, eta, rho))


def _deviations(system, zbar):
    """[Y - ybar, Z - zbar] of one state, (2, m, d)."""
    return np.stack([system.Y - system.Y.mean(axis=0), system.Z - zbar])


def _consensus(dev, solve, xi):
    """E_t of states from their tracker and dual deviations ``dev = [Y -
    ybar, Z - zbar]``, (2, ..., m, d), solved together by ``solve``, the
    inverse Hessian at xbar.  Each state's m*d products add as one
    contiguous row."""
    H = solve(dev)  # a fresh array: the products go in place
    H *= dev
    sums = _state_sum(H)
    return (sums[0] + xi * sums[1]) / dev.shape[-2]


def _state_sum(A):
    """The sum of each (m, d) block of A (..., m, d), as ``A.sum()`` adds
    one block."""
    return A.reshape(A.shape[:-2] + (-1,)).sum(axis=-1)


def _row_dot(u, v):
    """Dot products of the rows of u and v (..., d): a (1, d) @ (d, 1)
    product per row, which rounds like ``np.dot`` of the two rows."""
    return (u[..., None, :] @ v[..., :, None])[..., 0, 0]


def _successive_divergences(kernel, xs):
    """Bregman divergences D_h(x_t, x_{t+1}) of successive points ``xs``
    (K, 1, d), unchecked, each with the bits of ``kernel.bregman``."""
    h, x = kernel._value(xs)[:, 0], xs[:, 0]
    return h[:-1] - h[1:] - _row_dot(kernel._grad(xs[1:])[:, 0], x[:-1] - x[1:])


def _optimality(dual_sq, breg, E, L, eta, rho):
    """G of iteration t from the dual step's squared local norm
    dz . hess h(xbar_t)^{-1} dz, with dz = zbar_{t+1} - zbar_t,
    D_h(xbar_t, xbar_{t+1}) and E_t."""
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

    ``observe`` buffers a state, and ``flush`` evaluates the buffered
    states in one pass over stacked (K, m, d) arrays: their dual averages,
    one ``grad_conj`` and one inverse Hessian at the K points xbar (the
    chunk's one interior check), h(xbar), one ``value_and_grad`` of the
    problem there, and from these every column of the records.  The
    optimality measure of iteration t needs the successor state, so a chunk
    starts with the state recorded last before it, evaluated again, whose
    G it back-fills; the final record keeps G = nan.  Its Bregman term
    evaluates grad h at each new xbar unchecked.  Every record has the bits
    of its state evaluated alone.
    """

    def __init__(self, prob, kernel, rho, L, eta, delta, run_id="run",
                 algorithm=""):
        self.prob = prob
        self.kernel = kernel
        self.rho = rho
        self.L = L
        self.eta = eta
        self.run_id = run_id
        self.algorithm = algorithm
        lam = lambda_of(kernel, prob.m, rho, delta)
        self.lambda_val = lam if math.isfinite(lam) else 1.0
        self._xi = xi_const(L, rho, self.lambda_val)
        self.records = []
        self._buffer = []   # (system, row) of the states not evaluated yet
        self._last = None   # (system, row) of the state recorded last
        self._work = None   # X, Y and Z of a chunk, stacked (3, K, m, d)

    def observe(self, system, row=None):
        """Buffer a state: row ``row`` of the batch ``system``, or
        ``system`` itself when ``row`` is None.  Systems are immutable, so
        nothing is copied."""
        self._buffer.append((system, row))

    @property
    def pending(self) -> int:
        return len(self._buffer)

    def flush(self):
        """Record the buffered states.

        Returns ``(states, cut)``: the states now recorded, preceded by the
        one recorded last before them (if any), as ``(system, row)`` pairs,
        and whether the last of them ends the record stream because its
        f_bar or stationarity is not finite (past t = 0).  The states
        buffered after it are dropped.  A chunk whose evaluation raises a
        divergence error is redone state by state, so the state that raises
        does so as if alone, after the states before it are recorded.
        """
        new, self._buffer = self._buffer, []
        if not new:
            return [], False
        try:
            return self._record(new)
        except DIVERGENCE:
            pass  # some state raised: redo the chunk one state at a time
        states = [] if self._last is None else [self._last]
        for state in new:
            states.append(state)
            if self._record([state])[1]:
                return states, True
        return states, False

    def _record(self, new):
        """Evaluate the states ``new`` after the last recorded one, append
        their records up to the first that ends the stream, and back-fill
        the G of the record before them."""
        states = new if self._last is None else [self._last] + new
        cols = self._evaluate(states)
        f_bar, stat, G = cols["f_bar"], cols["stationarity"], cols["G"]
        if self._last is not None:
            self.records[-1].G_proxy = G[0]
        for i in range(len(states) - len(new), len(states)):
            system, row = states[i]
            cut = system.t > 0 and not (math.isfinite(f_bar[i])
                                        and math.isfinite(stat[i]))
            self.records.append(RunRecord(
                run_id=self.run_id, algorithm=self.algorithm,
                kernel=self.kernel.name, t=system.t, f_bar=f_bar[i],
                stationarity=stat[i],
                consensus_primal=cols["consensus_primal"][i],
                consensus_dual=cols["consensus_dual"][i],
                E_t_proxy=cols["E"][i], M_t_proxy=cols["M"][i],
                G_proxy=G[i] if i < len(G) and not cut else math.nan,
                clipped=bool(system.clipped if row is None
                             else system.clipped[row]),
                status="running"))
            if cut:
                self._last = states[i]
                return states[:i + 1], True
        self._last = states[-1]
        return states, False

    def _evaluate(self, states):
        """The record columns of ``states``, ``(system, row)`` pairs, as
        lists of floats; ``G`` pairs each state with the next."""
        # a diverging state overflows here: a non-finite f_bar or
        # stationarity, not a warning, ends its cell
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            kernel, L, n = self.kernel, self.L, len(states)
            if self._work is None or self._work.shape[1] < n:
                # kept from chunk to chunk: fresh (K, m, d) arrays would be
                # fresh pages, whose first touch costs more than the arithmetic
                self._work = np.empty((3, n) + states[0][0].Z.shape[-2:])
            work = self._work[:, :n]
            for f, out in zip("XYZ", work):
                np.stack([getattr(s, f) if r is None else getattr(s, f)[r]
                          for s, r in states], out=out)
            X, dev = work[0], work[1:]  # dev = [Y, Z], centred in place below
            Y, Z = dev
            m = Z.shape[-2]
            zbar = Z.mean(axis=-2, keepdims=True)
            # the kernel sees K points of one row each, (K, 1, d): a matrix
            # product then rounds per point, as at one point (d,)
            xs = kernel.grad_conj(zbar)
            solve = kernel.hess_solver(xs)  # the chunk's one interior check
            xbar = xs[:, 0]
            f_bar, g = self.prob.value_and_grad(xbar)
            Y -= Y.mean(axis=-2, keepdims=True)
            Z -= zbar
            E = _consensus(dev, solve, self._xi)
            # the last state's step pairs with no successor: its dz is zero
            dz = np.diff(zbar, axis=0, append=zbar[-1:])
            G = _optimality(_row_dot(dz, solve(dz))[:-1, 0],
                            _successive_divergences(kernel, xs), E[:-1],
                            L, self.eta, self.rho)
            r = _normal_residual(self.prob.domain, xbar, g)
            stat = np.sqrt(_row_dot(r, r))
            X -= X.mean(axis=-2, keepdims=True)
            cols = {
                "f_bar": f_bar, "stationarity": stat, "G": G, "E": E,
                "M": f_bar + E / (8.0 * L),
                "consensus_primal": _state_sum(np.square(X, out=X)) / m,
                "consensus_dual": _state_sum(np.square(Z, out=Z)) / m,
            }
            return {k: v.tolist() for k, v in cols.items()}

    def mark_final(self, status):
        if self.records:
            self.records[-1].status = status
