"""Feasible-set descriptors for kernels and problems.

Domains are axis-aligned boxes (possibly unbounded), which covers every
catalogue kernel: all of R^d, the positive orthant, and [-1, 1]^d.  The
simplex-supported entropy is handled as an orthant domain with a flag that
only affects how interior base points are sampled.
"""

from __future__ import annotations

import numpy as np

from .diagnostics import _row_dot
from .errors import DomainViolation

# Points closer than this to a finite boundary are rejected: gradient blow-up
# makes round-off meaningless there.
BOUNDARY_GUARD = 1e-14


class Domain:
    """Per-coordinate interval domain ``prod_i (lo_i, hi_i)``.

    ``lo`` and ``hi`` broadcast against ``(dim,)``; infinite endpoints encode
    unbounded sides.  All kernel evaluations happen on the open interior.
    """

    def __init__(self, dim, lo=-np.inf, hi=np.inf, simplex=False):
        self.dim = int(dim)
        self.lo = np.broadcast_to(np.asarray(lo, dtype=float), (self.dim,)).copy()
        self.hi = np.broadcast_to(np.asarray(hi, dtype=float), (self.dim,)).copy()
        if np.any(self.lo >= self.hi):
            raise ValueError("empty domain interval")
        self.simplex = bool(simplex)
        self._lo_side = _finite_side(self.lo)
        self._hi_side = _finite_side(self.hi)

    @property
    def kind(self) -> str:
        if self.simplex:
            return "simplex"
        lo_all = self.lo[0] if np.all(self.lo == self.lo[0]) else None
        hi_all = self.hi[0] if np.all(self.hi == self.hi[0]) else None
        if lo_all == -np.inf and hi_all == np.inf:
            return "reals"
        if lo_all == 0.0 and hi_all == np.inf:
            return "orthant"
        if lo_all == -1.0 and hi_all == 1.0:
            return "box"
        return "interval"

    def is_interior(self, x) -> bool:
        """Finite, of last dimension ``dim``, and more than BOUNDARY_GUARD
        inside every finite bound; unbounded sides are not tested."""
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.dim or not np.isfinite(x).all():
            return False
        if self._lo_side is not None:
            cols, lo = self._lo_side
            if not (x[..., cols] - lo > BOUNDARY_GUARD).all():
                return False
        if self._hi_side is not None:
            cols, hi = self._hi_side
            if not (hi - x[..., cols] > BOUNDARY_GUARD).all():
                return False
        return True

    def require_interior(self, x, what="point"):
        if not self.is_interior(x):
            raise DomainViolation(
                f"{what} is outside the open domain {self.describe()} "
                f"(boundary guard {BOUNDARY_GUARD:g})"
            )

    def describe(self) -> str:
        kind = self.kind
        if kind == "interval":
            return f"interval^{self.dim}"
        return f"{kind}(d={self.dim})"

    def shift(self, s) -> "Domain":
        """Domain of x -> x - s precomposition: intervals translated by s."""
        s = np.broadcast_to(np.asarray(s, dtype=float), (self.dim,))
        return Domain(self.dim, self.lo + s, self.hi + s, simplex=False)

    def scale(self, a) -> "Domain":
        """Domain of x -> a*x precomposition, a positive (per-coordinate)."""
        a = np.broadcast_to(np.asarray(a, dtype=float), (self.dim,))
        if np.any(a == 0):
            raise ValueError("zero scaling")
        lo = np.where(a > 0, self.lo / a, self.hi / a)
        hi = np.where(a > 0, self.hi / a, self.lo / a)
        return Domain(self.dim, lo, hi, simplex=False)

    def intersect(self, other: "Domain") -> "Domain":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return Domain(
            self.dim,
            np.maximum(self.lo, other.lo),
            np.minimum(self.hi, other.hi),
            simplex=self.simplex or other.simplex,
        )

    def concat(self, other: "Domain") -> "Domain":
        return Domain(
            self.dim + other.dim,
            np.concatenate([self.lo, other.lo]),
            np.concatenate([self.hi, other.hi]),
            simplex=False,
        )

    def sample_interior(self, rng, n, floor=0.1):
        """Draw ``n`` interior points, shaped ``(n, dim)``.

        Standard normals mapped into the domain: raw for the whole space,
        absolute value plus ``floor`` toward the lower bound for one-sided
        intervals, tanh squashing for bounded intervals, softmax for the
        simplex.  The ``floor`` keeps one-sided samples away from the
        boundary while still covering near-boundary regions as it shrinks.
        """
        g = rng.standard_normal((n, self.dim))
        if self.simplex:
            e = np.exp(g - g.max(axis=1, keepdims=True))
            return e / e.sum(axis=1, keepdims=True)
        lo_fin = np.isfinite(self.lo)
        hi_fin = np.isfinite(self.hi)
        x = np.empty_like(g)
        both = lo_fin & hi_fin
        if np.any(both):
            mid = 0.5 * (self.lo[both] + self.hi[both])
            half = 0.5 * (self.hi[both] - self.lo[both])
            x[:, both] = mid + half * np.tanh(g[:, both]) * (1 - 1e-7)
        low_only = lo_fin & ~hi_fin
        if np.any(low_only):
            x[:, low_only] = self.lo[low_only] + np.abs(g[:, low_only]) + floor
        high_only = hi_fin & ~lo_fin
        if np.any(high_only):
            x[:, high_only] = self.hi[high_only] - np.abs(g[:, high_only]) - floor
        free = ~lo_fin & ~hi_fin
        if np.any(free):
            x[:, free] = g[:, free]
        return x


def safe_eps(domain, x, base=1e-6):
    """Central-difference step for unit directions at ``x``: ``base * (1 +
    |x|)``, capped at a quarter of the gap to the nearest finite bound so
    that x +- eps*v stays strictly inside; ``base`` if that is not positive.

    A point gives a float; rows ``x`` (..., d) give one step per row, each
    with the bits of the step at that row alone."""
    x = np.asarray(x, dtype=float)
    lo_gap = np.min(np.where(np.isfinite(domain.lo), x - domain.lo, np.inf),
                    axis=-1)
    hi_gap = np.min(np.where(np.isfinite(domain.hi), domain.hi - x, np.inf),
                    axis=-1)
    # |x| as np.linalg.norm forms it: the square root of np.dot(x, x)
    eps = np.minimum(base * (1.0 + np.sqrt(_row_dot(x, x))),
                     0.25 * np.minimum(lo_gap, hi_gap))
    eps = np.where(np.isfinite(eps) & (eps > 0), eps, base)
    return eps if eps.ndim else float(eps)


def _finite_side(bound):
    """``(cols, bound[cols])`` for the finite entries of ``bound``, where
    ``cols`` is a full slice when every entry is finite; None when none is."""
    finite = np.isfinite(bound)
    if finite.all():
        return slice(None), bound
    if not finite.any():
        return None
    cols = np.flatnonzero(finite)
    return cols, bound[cols]


def reals(dim) -> Domain:
    return Domain(dim)


def orthant(dim) -> Domain:
    return Domain(dim, lo=0.0)


def box(dim, lo=-1.0, hi=1.0) -> Domain:
    return Domain(dim, lo=lo, hi=hi)


def simplex(dim) -> Domain:
    return Domain(dim, lo=0.0, simplex=True)
