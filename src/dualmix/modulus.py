"""Distortion moduli: the nondecreasing functions bounding relative Hessian drift.

A modulus ``zeta`` maps a dual-space radius ``delta >= 0`` to an upper bound on
the relative Hessian gap of a kernel.  Every modulus here satisfies
``zeta(0) == 0``, continuity, and monotonicity by construction.  Combinator
kernels build compound moduli (max, positive combination, argument scaling)
out of the analytic atoms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field


class DistortionModulus:
    """Base class; subclasses implement ``_zeta`` on scalars >= 0."""

    def __call__(self, delta: float) -> float:
        if delta < 0:
            raise ValueError("delta must be >= 0")
        return self._zeta(delta)

    def _zeta(self, delta):
        raise NotImplementedError

    def largest_delta(self, target: float, cap: float = 1e9) -> float:
        """Largest ``delta <= cap`` with ``zeta(delta) <= target``, by bisection.

        Monotonicity makes the feasible set an interval anchored at 0.
        """
        if target < 0:
            raise ValueError("target must be nonnegative")
        if self(cap) <= target:
            return cap
        lo, hi = 0.0, cap
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self(mid) <= target:
                lo = mid
            else:
                hi = mid
        return lo


@dataclass(frozen=True)
class ZeroModulus(DistortionModulus):
    """zeta(delta) = 0 (Euclidean-type kernels)."""

    def _zeta(self, delta):
        return 0.0


@dataclass(frozen=True)
class ExpLinearModulus(DistortionModulus):
    """zeta(delta) = exp(c * delta) - 1 with c > 0."""

    c: float = 1.0

    def __post_init__(self):
        if self.c <= 0:
            raise ValueError("c must be positive")

    def _zeta(self, delta):
        arg = self.c * delta
        return math.expm1(arg) if arg < 700.0 else math.inf


@dataclass(frozen=True)
class PowerPairModulus(DistortionModulus):
    """zeta(delta) = c1 * delta**a + c2 * delta**b (polynomial moduli)."""

    c1: float = 1.0
    a: float = 1.0
    c2: float = 1.0
    b: float = 1.0

    def __post_init__(self):
        if min(self.c1, self.c2) < 0 or min(self.a, self.b) <= 0:
            raise ValueError("coefficients must be >= 0 and exponents > 0")

    def _zeta(self, delta):
        return self.c1 * delta**self.a + self.c2 * delta**self.b


@dataclass(frozen=True)
class ScaledModulus(DistortionModulus):
    """zeta(delta) = kappa * inner(delta / c): affine-composition modulus."""

    inner: DistortionModulus = field(default_factory=ZeroModulus)
    kappa: float = 1.0
    c: float = 1.0

    def __post_init__(self):
        if self.kappa <= 0 or self.c <= 0:
            raise ValueError("kappa and c must be positive")

    def _zeta(self, delta):
        return self.kappa * self.inner(delta / self.c)


@dataclass(frozen=True)
class MaxModulus(DistortionModulus):
    """Pointwise max of component moduli (concatenation / separable sums)."""

    parts: tuple = ()

    def __post_init__(self):
        if not self.parts:
            raise ValueError("need at least one component")

    def _zeta(self, delta):
        return max(p(delta) for p in self.parts)


@dataclass(frozen=True)
class SumModulus(DistortionModulus):
    """Nonnegative combination sum_i w_i * zeta_i(delta)."""

    terms: tuple = ()  # pairs (weight, modulus)

    def __post_init__(self):
        if not self.terms:
            raise ValueError("need at least one term")
        if any(w < 0 for w, _ in self.terms):
            raise ValueError("weights must be >= 0")

    def _zeta(self, delta):
        return sum(w * m(delta) for w, m in self.terms)


def separable_modulus(G: float, H: float) -> ExpLinearModulus:
    """Modulus exp(G*H*delta) - 1 from the separable sufficient conditions.

    ``G`` bounds the Lipschitz constant of the log second derivative in the
    reparametrized coordinate, ``H`` converts a dual-space radius into a
    radius for that coordinate.
    """
    if G <= 0 or H <= 0:
        raise ValueError("G and H must be positive")
    return ExpLinearModulus(G * H)


def self_concordant_modulus(M: float, mu: float) -> ExpLinearModulus:
    """Modulus exp(2*M*delta/sqrt(mu)) - 1 for M-self-concordant,
    mu-strongly convex kernels."""
    if M <= 0 or mu <= 0:
        raise ValueError("M and mu must be positive")
    return ExpLinearModulus(2.0 * M / math.sqrt(mu))
