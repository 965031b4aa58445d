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


def _grow(f, z, t, end, side):
    """The bracket's upper (``side = 1``) or lower (``-1``) end: ``t`` moved
    toward ``end`` until ``f`` passes ``z``.  The steps, written for the upper
    end on ``u = side * t``, halve the gap to a finite end or double an
    outward step; negation is exact, so the lower end mirrors them exactly.
    """
    fin = np.isfinite(end)
    e = np.where(fin, side * end, 0.0)
    u = side * t
    need = side * f(t) < side * z
    step = np.ones_like(t)
    for _ in range(200):
        if not np.any(need):
            break
        u_new = np.where(fin, e - 0.5 * (e - u),
                         np.where(u > 0, u * 2 + step, u + step))
        u = np.where(need, u_new, u)
        step = np.where(need, step * 2, step)
        need = side * f(side * u) < side * z
    if np.any(need):
        raise NoConvergence(
            f"failed to bracket {'above' if side > 0 else 'below'}",
            residual=float(np.max(side * (z - f(side * u)))))
    return side * u


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

    # a sign-changing bracket [a, b] around the root
    a = _grow(f, z, t, lo, -1)
    b = _grow(f, z, t, hi, 1)

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
