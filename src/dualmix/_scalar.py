"""Safeguarded scalar inversion for strictly increasing C^1 functions.

Vectorized over numpy arrays: every element solves ``f(t) = z`` on its own
open interval.  Used for the coordinatewise and radial mirror-map inverses
that have no closed form.
"""

from __future__ import annotations

import numpy as np

from .errors import NoConvergence

TOL_INV = 1e-12
MAX_ITER = 100


def solve_increasing(f, fprime, z, lo, hi, t0=None, tol=TOL_INV, max_iter=MAX_ITER):
    """Solve ``f(t) = z`` elementwise for strictly increasing ``f``.

    ``lo``/``hi`` are the (open) interval endpoints, broadcastable to
    ``z.shape``; infinite endpoints are allowed.  Returns ``t`` with
    ``|f(t) - z| <= tol * (1 + |z|)`` elementwise, raising
    :class:`NoConvergence` with the worst residual otherwise.

    The bracket is grown geometrically from ``t0`` (finite intervals shrink
    toward the endpoint instead), then safeguarded Newton iterates are
    clipped into the current bracket, which bisection keeps shrinking.
    Every element is solved as if alone: it stops at its first iterate
    within tolerance, whatever the other elements still need.
    """
    z = np.asarray(z, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), z.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), z.shape)

    if t0 is None:
        mid_lo = np.where(np.isfinite(lo), lo, -1.0)
        mid_hi = np.where(np.isfinite(hi), hi, 1.0)
        t0 = 0.5 * (mid_lo + mid_hi)
    t = np.broadcast_to(np.asarray(t0, dtype=float), z.shape).copy()

    # Grow a sign-changing bracket [a, b] around the root.  Both np.where
    # branches evaluate, so arithmetic on infinite endpoints is masked.
    a = t.copy()
    b = t.copy()
    lo_fin = np.isfinite(lo)
    hi_fin = np.isfinite(hi)
    lo_safe = np.where(lo_fin, lo, 0.0)
    hi_safe = np.where(hi_fin, hi, 0.0)
    need_lo = f(a) > z
    step = np.ones_like(t)
    for _ in range(200):
        if not np.any(need_lo):
            break
        a_new = np.where(
            lo_fin,
            lo_safe + 0.5 * (a - lo_safe),  # halve the gap to a finite endpoint
            np.where(a < 0, a * 2 - step, a - step),
        )
        a = np.where(need_lo, a_new, a)
        step = np.where(need_lo, step * 2, step)
        need_lo = f(a) > z
    if np.any(need_lo):
        raise NoConvergence("failed to bracket below", residual=float(np.max(f(a) - z)))

    need_hi = f(b) < z
    step = np.ones_like(t)
    for _ in range(200):
        if not np.any(need_hi):
            break
        b_new = np.where(
            hi_fin,
            hi_safe - 0.5 * (hi_safe - b),
            np.where(b > 0, b * 2 + step, b + step),
        )
        b = np.where(need_hi, b_new, b)
        step = np.where(need_hi, step * 2, step)
        need_hi = f(b) < z
    if np.any(need_hi):
        raise NoConvergence("failed to bracket above", residual=float(np.max(z - f(b))))

    t = 0.5 * (a + b)
    tol_vec = tol * (1.0 + np.abs(z))
    for _ in range(max_iter):
        resid = f(t) - z
        converged = np.abs(resid) <= tol_vec
        if np.all(converged):
            return t
        below = resid < 0
        a = np.where(below, t, a)
        b = np.where(below, b, t)
        with np.errstate(divide="ignore", invalid="ignore"):
            t_newton = t - resid / fprime(t)
        bad = ~np.isfinite(t_newton) | (t_newton <= a) | (t_newton >= b)
        # a converged element keeps its first converged iterate, so its root
        # depends on its own input only, not on the other elements'
        t = np.where(converged, t, np.where(bad, 0.5 * (a + b), t_newton))

    resid = np.abs(f(t) - z)
    if np.all(resid <= tol_vec):
        return t
    raise NoConvergence(
        f"scalar inverse did not converge in {max_iter} iterations",
        residual=float(np.max(resid)),
    )
