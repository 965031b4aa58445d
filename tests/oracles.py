"""Pointwise references for the tests, each written from its formula.

The recorder (``diagnostics.Recorder``) evaluates every recorded column in
one pass per chunk of states.  These are the same quantities at one state,
or one point, from the definitions of the analysis, with public oracles
only: no private helper of ``dualmix`` is reused, so a test that holds the
recorder to them does not check the recorder against itself.  The
potentials are taken in the proxy local norm at the averaged dual iterate.
"""

from __future__ import annotations

import numpy as np

from dualmix.diagnostics import BND_TOL, xi_const
from dualmix.problems import EPS_TV


def stationarity(prob, x) -> float:
    """Distance from grad f(x) to the negative normal cone of the feasible
    set: at a lower bound (within BND_TOL) only the negative part of the
    gradient coordinate counts, at an upper bound only the positive part."""
    x = np.asarray(x, dtype=float)
    g = prob.grad(x)
    at_lo = x - prob.domain.lo <= BND_TOL
    at_hi = prob.domain.hi - x <= BND_TOL
    r = np.where(at_hi, np.maximum(g, 0.0),
                 np.where(at_lo, np.minimum(g, 0.0), g))
    return float(np.linalg.norm(r))


def dual_average(system, kernel):
    """zbar, the agents' mean dual iterate, and xbar = grad h*(zbar)."""
    zbar = system.Z.mean(axis=0)
    return zbar, kernel.grad_conj(zbar)


def consensus_potential(system, kernel, L, rho, lambda_val) -> float:
    """E_t = (1/m) sum_i (|y_i - ybar|^2 + xi |z_i - zbar|^2) in the norm
    of hess h(xbar)^{-1}, xi = 32 L^2 lambda^2 / (1 - rho)^2, with one
    inverse-Hessian solve on the stacked deviations [Y - ybar; Z - zbar]."""
    m = system.X.shape[0]
    zbar, xbar = dual_average(system, kernel)
    Yc = system.Y - system.Y.mean(axis=0)
    Zc = system.Z - zbar
    dev = np.concatenate([Yc, Zc])
    H = kernel.hess_solve(np.broadcast_to(xbar, dev.shape), dev)
    xi = xi_const(L, rho, lambda_val)
    return float(np.sum(H[:m] * Yc) + xi * np.sum(H[m:] * Zc)) / m


def descent_potential(system, prob, kernel, L, rho, lambda_val) -> float:
    """M_t = f(xbar) + E_t / (8 L)."""
    xbar = dual_average(system, kernel)[1]
    E = consensus_potential(system, kernel, L, rho, lambda_val)
    return float(prob.value(xbar)) + E / (8.0 * L)


def optimality_measure(system, system_next, kernel, L, eta, rho,
                       lambda_val) -> float:
    """G_t = |dz|^2 / (12 eta^2) + (L / eta) D_h(xbar_t, xbar_{t+1})
    + (1 - rho) / (32 L eta) E_t, with dz = zbar_{t+1} - zbar_t in the norm
    of hess h(xbar_t)^{-1}."""
    zbar, xbar = dual_average(system, kernel)
    zbar_next, xbar_next = dual_average(system_next, kernel)
    dz = zbar_next - zbar
    E = consensus_potential(system, kernel, L, rho, lambda_val)
    return (float(dz @ kernel.hess_solve(xbar, dz)) / (12.0 * eta * eta)
            + (L / eta) * kernel.bregman(xbar, xbar_next)
            + (1.0 - rho) / (32.0 * L * eta) * E)


def case1_optimality(system, L, eta, rho) -> float:
    """G for the identity-quadratic kernel: (1/12 + L eta / 2) |ybar|^2
    plus the weighted plain consensus errors."""
    m = system.X.shape[0]
    ybar = system.Y.mean(axis=0)
    xbar = system.X.mean(axis=0)
    xi = xi_const(L, rho, 1.0)
    cons = float(np.sum((system.Y - ybar) ** 2)
                 + xi * np.sum((system.X - xbar) ** 2)) / m
    return ((1.0 / 12.0 + L * eta / 2.0) * float(ybar @ ybar)
            + (1.0 - rho) / (32.0 * L * eta) * cons)


def dual_lipschitz_residual(kernel, f_grad, f_L, z, x, y) -> float:
    """Residual of the dual-space Lipschitz bound; nonpositive when it holds.

    |grad f(y) - grad f(x)|_{H*} - L (1 + zeta(delta)) |grad h(y) - grad
    h(x)|_{H*}, with H* the inverse kernel Hessian at grad h*(z) and delta
    the larger of the two dual distances to z.
    """
    z, x, y = (np.asarray(v, dtype=float) for v in (z, x, y))
    gx, gy = kernel.grad(x), kernel.grad(y)
    delta = max(float(np.linalg.norm(gx - z)), float(np.linalg.norm(gy - z)))
    xz = kernel.grad_conj(z)

    def dual_norm(u):
        return float(np.sqrt(np.dot(u, kernel.hess_solve(xz, u))))

    lhs = dual_norm(np.asarray(f_grad(y), dtype=float)
                    - np.asarray(f_grad(x), dtype=float))
    return lhs - f_L * (1.0 + kernel.zeta(delta)) * dual_norm(gy - gx)


def tv_value(X, eps=EPS_TV) -> float:
    """Smoothed isotropic TV of an image: sum sqrt(dv^2 + dh^2 + eps^2),
    with replicate boundaries (the last row and column differ by 0)."""
    dv = np.diff(X, axis=0, append=X[-1:, :])
    dh = np.diff(X, axis=1, append=X[:, -1:])
    return float(np.sqrt(dv * dv + dh * dh + eps * eps).sum())
