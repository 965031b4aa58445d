"""Legendre distance-generating kernels and their combinator calculus.

Every kernel exposes value / mirror map / Hessian / inverse mirror map
oracles together with an analytic distortion modulus bounding its relative
Hessian drift.  Two structural families cover the whole catalogue:

* separable kernels (Euclidean, entropies, Hellinger): diagonal Hessians,
  coordinatewise inverses;
* radial kernels (power, norm exponential): gradient ``s(|x|) * x``, Hessian
  ``a*I + b*x*x^T``, radius-only inverse.

Affine composition, concatenation, and sums close the catalogue under the
modulus calculus (condition-number scaling, pointwise max, weighted sum);
the preconditioned Euclidean kernel ``x^T A x / 2`` is the identity one
composed with a Cholesky factor of ``A``.

All vector arguments accept shape ``(..., d)`` with batched leading axes;
``hess_matrix`` returns ``(..., d, d)``.  Each class writes only its
unchecked math, ``_value``, ``_grad`` and (if separable) ``_hess_diag``;
the public ``value``, ``grad`` and ``hess_diag`` of :class:`Kernel` check
the shape and the open domain once and then call them, and no
``_``-prefixed oracle checks the domain.  A :class:`SeparableKernel` writes
the scalar profile ``_phi``, its elementwise ``_grad`` and ``_hess_diag``,
and an optional closed-form inverse ``_conj_scalar``, as ``_NegLog`` in
``tests/test_hruc.py`` does.  Every separable kernel, sums and
concatenations included, inverts its mirror map coordinatewise unless it
has a closed form (a concatenation part by part).  A non-separable sum
inverts by a damped Newton method that stops and damps each point on its
own, so a point's inverse does not depend on the batch it is in.
"""

from __future__ import annotations

import math

import numpy as np

from . import _spec, domains
from ._scalar import TOL_INV, solve_increasing
from .errors import (
    ModeMismatch,
    NoConvergence,
    NotInImage,
    SingularHessian,
    SingularMatrix,
)
from .modulus import (
    DistortionModulus,
    ExpLinearModulus,
    MaxModulus,
    PowerPairModulus,
    ScaledModulus,
    SumModulus,
    ZeroModulus,
    self_concordant_modulus,
    separable_modulus,
)


class Kernel:
    """Base class: a Legendre kernel with an attached distortion modulus.

    Subclasses write the unchecked oracles ``_value``, ``_grad`` and, when
    separable, ``_hess_diag`` (the Hessian diagonal); the checked public
    oracles are written once here."""

    def __init__(self, dim, domain, modulus, name):
        self.dim = int(dim)
        self.domain = domain
        self.modulus = modulus
        self.name = name

    # -- core oracles ------------------------------------------------------

    def value(self, x):
        return self._value(self._checked(x))

    def grad(self, x):
        return self._grad(self._checked(x))

    def grad_conj(self, z):
        raise NotImplementedError

    def hess_apply(self, x, v):
        raise NotImplementedError

    def hess_solve(self, x, v):
        return self.hess_solver(x)(v)

    def hess_solver(self, x):
        """``v -> hess h(x)^{-1} v``.  The Hessian at ``x`` is built, and ``x``
        passes the interior check, once; every call rounds like
        ``hess_solve(x, v)``.  A diagonal Hessian divides; any other is
        solved densely."""
        d = self.hess_diag(x)
        if d is not None:
            return lambda v: np.asarray(v, dtype=float) / d
        H = self.hess_matrix(self._checked(x))
        return lambda v: np.linalg.solve(
            H, np.asarray(v, dtype=float)[..., None])[..., 0]

    def hess_matrix(self, x):
        """Dense Hessian, ``(..., d, d)`` at points ``(..., d)``: column i
        is ``hess_apply`` of the i-th unit vector (diagnostic use)."""
        x = np.asarray(x, dtype=float)
        X = np.broadcast_to(x[..., None, :], x.shape + (self.dim,))
        E = np.tile(np.eye(self.dim), x.shape[:-1] + (1, 1))
        return np.swapaxes(self.hess_apply(X, E), -1, -2)

    def hess_diag(self, x):
        """Diagonal of the Hessian if it is diagonal, else ``None``."""
        if not self.separable:
            return None
        d2 = self._hess_diag(self._checked(x))
        if not np.isfinite(d2).all() or (d2 <= 0).any():
            raise SingularHessian(f"{self.name}: nonpositive Hessian diagonal")
        return d2

    @property
    def separable(self) -> bool:
        return False

    # -- unchecked oracles, for float arrays that passed the checks ----------

    def _checked(self, x):
        """``x`` as a float array, after the shape and interior checks."""
        x = _check_shape(x, self.dim)
        self.domain.require_interior(x)
        return x

    def _value(self, x):
        raise NotImplementedError

    def _grad(self, x):
        raise NotImplementedError

    def _hess_diag(self, x):
        raise NotImplementedError

    # -- derived quantities ------------------------------------------------

    def bregman(self, u, v) -> float:
        """D_h(u, v) = h(u) - h(v) - <grad h(v), u - v>."""
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        self.domain.require_interior(u, "first Bregman argument")
        self.domain.require_interior(v, "second Bregman argument")
        return float(self._value(u) - self._value(v)
                     - np.dot(self._grad(v), u - v))

    def zeta(self, delta) -> float:
        return float(self.modulus(delta))

    def minimizer(self):
        """The interior point with vanishing mirror map."""
        return self.grad_conj(np.zeros(self.dim))

    def sample_interior(self, rng, n, floor=0.1):
        return self.domain.sample_interior(rng, n, floor=floor)

    def with_modulus(self, modulus: DistortionModulus, name=None) -> "Kernel":
        """Copy of this kernel certified against a different modulus."""
        import copy

        other = copy.copy(self)
        other.modulus = modulus
        if name is not None:
            other.name = name
        return other

    # -- inverse mirror maps without a closed form ---------------------------

    def _invert_coordinatewise(self, z):
        """Separable kernels: solve ``_grad(x) = z`` coordinate by coordinate
        inside the domain's bounds."""
        lo = np.broadcast_to(self.domain.lo, z.shape)
        hi = np.broadcast_to(self.domain.hi, z.shape)
        try:
            return solve_increasing(self._grad, self._hess_diag, z, lo, hi)
        except NoConvergence as exc:
            raise NotInImage(f"{self.name}: dual vector not attained ({exc})") from exc

    def _newton_conj(self, z, x0, tol=TOL_INV, max_iter=100):
        """Damped Newton solve of ``grad(x) = z`` from ``x0``, point by
        point: each point (a vector along the last axis) stops at its own
        tolerance and halves its own step, so its inverse depends on that
        point alone, whatever the batch it is in."""
        z = np.asarray(z, dtype=float)
        x = np.array(x0, dtype=float).reshape(-1, self.dim)
        zs = z.reshape(-1, self.dim)
        bound = tol * (1.0 + np.linalg.norm(zs, axis=-1))
        live = np.arange(len(zs))  # the points not yet within tolerance
        for it in range(max_iter + 1):
            r = zs[live] - self.grad(x[live])
            nr = np.linalg.norm(r, axis=-1)
            far = nr > bound[live]
            live, r, nr = live[far], r[far], nr[far]
            if not len(live):
                return x.reshape(z.shape)
            if it == max_iter:
                raise NoConvergence("inverse mirror map stalled",
                                    residual=float(nr.max()))
            xl = x[live]
            step = self.hess_solve(xl, r)
            alpha = np.ones((len(live), 1))
            for _ in range(60):
                cand = xl + alpha * step
                out = np.array([not self.domain.is_interior(c) for c in cand])
                if not out.any():
                    break
                alpha[out] *= 0.5
            else:
                raise NoConvergence("line search left the domain",
                                    residual=float(nr.max()))
            x[live] = cand

    def __repr__(self):
        return f"<{type(self).__name__} {self.name} d={self.dim}>"


def _check_shape(x, dim, what="vector"):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != dim:
        raise ValueError(f"{what} has trailing dimension {x.shape[-1]}, expected {dim}")
    return x


def _norm(v):
    """Euclidean norm over the last axis, rescaled where the squares of a
    finite ``v`` overflow."""
    with np.errstate(over="ignore"):
        n = np.asarray(np.linalg.norm(v, axis=-1))
    if np.isinf(n).any():
        over = np.isinf(n) & np.isfinite(v).all(axis=-1)
        w = v[over]
        top = np.abs(w).max(axis=-1, keepdims=True)
        n[over] = top[..., 0] * np.linalg.norm(w / top, axis=-1)
    return n


# ---------------------------------------------------------------------------
# Separable kernels
# ---------------------------------------------------------------------------


class SeparableKernel(Kernel):
    """h(x) = sum_i phi(x_i) + const with a shared scalar profile phi."""

    const = 0.0

    def _phi(self, t):
        raise NotImplementedError

    def _conj_scalar(self, z):
        """Closed-form inverse of ``_grad`` or ``None``."""
        return None

    @property
    def separable(self):
        return True

    def _value(self, x):
        return self._phi(x).sum(axis=-1) + self.const

    def hess_apply(self, x, v):
        return self.hess_diag(x) * np.asarray(v, dtype=float)

    def grad_conj(self, z):
        z = _check_shape(z, self.dim, "dual vector")
        closed = self._conj_scalar(z)
        return self._invert_coordinatewise(z) if closed is None else closed


class Euclidean(SeparableKernel):
    """|x|^2 / 2 on the whole space.  ``_value`` sums the squares directly,
    not through a profile ``_phi``."""

    def __init__(self, dim):
        super().__init__(dim, domains.reals(dim), ZeroModulus(), "euclidean")

    def _value(self, x):
        return 0.5 * np.sum(x * x, axis=-1)

    def _grad(self, t):
        return t

    def _hess_diag(self, t):
        return np.ones_like(t)

    def _conj_scalar(self, z):
        return z.copy()  # a fresh array: an iterate X must not alias Z


class BoltzmannShannon(SeparableKernel):
    """Negative entropy sum x*log(x) - x on the positive orthant."""

    def __init__(self, dim):
        super().__init__(dim, domains.orthant(dim), separable_modulus(1.0, 1.0),
                         "boltzmann_shannon")

    def _phi(self, t):
        return t * np.log(t) - t

    def _grad(self, t):
        return np.log(t)

    def _hess_diag(self, t):
        return 1.0 / t

    def _conj_scalar(self, z):
        return np.exp(z)


class Burg(SeparableKernel):
    """Regularized Burg entropy mu/2 |x|^2 - sum log(x)."""

    def __init__(self, dim, mu=1.0):
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)
        super().__init__(dim, domains.orthant(dim),
                         ExpLinearModulus(1.0 / math.sqrt(mu)), f"burg(mu={mu:g})")

    def _phi(self, t):
        return 0.5 * self.mu * t * t - np.log(t)

    # _grad and _conj_scalar are on the step path: they write their
    # temporaries in place, with the bits of the formulas in the comments

    def _grad(self, t):
        # mu * t - 1 / t
        r = 1.0 / t
        return np.subtract(self.mu * t, r, out=r)

    def _hess_diag(self, t):
        return self.mu + 1.0 / (t * t)

    def _conj_scalar(self, z):
        # the positive root of mu*t^2 - z*t - 1 = 0,
        # (z + sqrt(z * z + 4 mu)) / (2 mu)
        t = z * z
        t += 4.0 * self.mu
        np.sqrt(t, out=t)
        np.add(z, t, out=t)
        t /= 2.0 * self.mu
        return t


class Tsallis(SeparableKernel):
    """Regularized Tsallis entropy mu/2 |x|^2 + (1 - sum x^q)/(1-q).

    The modulus derivation lives on the positive orthant; the nominal
    simplex support only steers interior sampling (see the certifier).
    """

    def __init__(self, dim, mu=1.0, q=0.5):
        if not 0.0 < q < 1.0:
            raise ValueError("q must lie in (0, 1)")
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)
        self.q = float(q)
        coeff = q ** ((q - 3.0) / (2.0 - q)) * mu ** ((q - 1.0) / (2.0 - q))
        super().__init__(dim, domains.simplex(dim), ExpLinearModulus(coeff),
                         f"tsallis(mu={mu:g},q={q:g})")
        self.const = 1.0 / (1.0 - q)

    def _phi(self, t):
        return 0.5 * self.mu * t * t - t**self.q / (1.0 - self.q)

    def _grad(self, t):
        return self.mu * t - (self.q / (1.0 - self.q)) * t ** (self.q - 1.0)

    def _hess_diag(self, t):
        return self.mu + self.q * t ** (self.q - 2.0)


class ExponentialEntropy(SeparableKernel):
    """mu/2 |x|^2 + sum exp(x) on the whole space."""

    def __init__(self, dim, mu=1.0):
        if mu <= 0:
            raise ValueError("mu must be positive")
        self.mu = float(mu)
        super().__init__(dim, domains.reals(dim), ExpLinearModulus(1.0 / mu),
                         f"exponential(mu={mu:g})")

    def _phi(self, t):
        return 0.5 * self.mu * t * t + np.exp(t)

    def _grad(self, t):
        return self.mu * t + np.exp(t)

    def _hess_diag(self, t):
        return self.mu + np.exp(t)


class Harmonic(SeparableKernel):
    """Generalized harmonic sum mu/2 |x|^2 + sum x^(-p) on the orthant."""

    def __init__(self, dim, mu=1.0, p=1.0):
        if mu <= 0 or p <= 0:
            raise ValueError("mu and p must be positive")
        self.mu = float(mu)
        self.p = float(p)
        coeff = mu ** (-(p + 1.0) / (p + 2.0))
        super().__init__(dim, domains.orthant(dim), ExpLinearModulus(coeff),
                         f"harmonic(mu={mu:g},p={p:g})")

    def _phi(self, t):
        return 0.5 * self.mu * t * t + t ** (-self.p)

    def _grad(self, t):
        return self.mu * t - self.p * t ** (-self.p - 1.0)

    def _hess_diag(self, t):
        return self.mu + self.p * (self.p + 1.0) * t ** (-self.p - 2.0)


class Hellinger(SeparableKernel):
    """-sum sqrt(1 - x^2) on the open box (-1, 1)^d.

    The log second derivative has exact Lipschitz constant 3/2 in the dual
    coordinate (sup of 3t*sqrt(1-t^2)), hence the exp(1.5*delta)-1 modulus.
    """

    def __init__(self, dim):
        super().__init__(dim, domains.box(dim), ExpLinearModulus(1.5), "hellinger")

    def _phi(self, t):
        return -np.sqrt(1.0 - t * t)

    def _grad(self, t):
        return t / np.sqrt(1.0 - t * t)

    def _hess_diag(self, t):
        return (1.0 - t * t) ** (-1.5)

    def _conj_scalar(self, z):
        z = np.clip(z, -1e150, 1e150)  # the root rounds to +-1; z * z stays finite
        return z / np.sqrt(1.0 + z * z)


# ---------------------------------------------------------------------------
# Radial kernels: grad h(x) = s(|x|) x, Hessian a*I + b*x*x^T
# ---------------------------------------------------------------------------


class RadialKernel(Kernel):
    def _val_radius(self, t):
        raise NotImplementedError

    def _s(self, t):
        """Gradient multiplier: grad h = s(|x|) x."""
        raise NotImplementedError

    def _b(self, t):
        """Rank-one Hessian coefficient s'(t)/t, with the t=0 limit."""
        raise NotImplementedError

    def _g(self, t):
        """Dual radius |grad h| = s(t) * t, strictly increasing on [0, inf)."""
        return self._s(t) * t

    def _g_prime(self, t):
        raise NotImplementedError

    def _g_inv(self, s):
        """Closed-form inverse of ``_g`` or ``None``."""
        return None

    def _value(self, x):
        # every radius goes through the scalar math of a lone point, whose
        # power numpy may round differently from its array power
        t = np.linalg.norm(x, axis=-1)
        if t.ndim == 0:
            return self._val_radius(t)
        return np.array([self._val_radius(ti) for ti in t.ravel()]
                        ).reshape(t.shape)

    def _grad(self, x):
        t = np.linalg.norm(x, axis=-1, keepdims=True)
        return self._s(t) * x

    def _coeffs(self, x):
        t = np.linalg.norm(x, axis=-1, keepdims=True)
        a = self._s(t)
        b = np.where(t > 0, self._b(np.maximum(t, 1e-300)), 0.0)
        return t, a, b

    def hess_apply(self, x, v):
        x = _check_shape(x, self.dim)
        v = np.asarray(v, dtype=float)
        _, a, b = self._coeffs(x)
        inner = np.sum(x * v, axis=-1, keepdims=True)
        return a * v + b * inner * x

    def hess_solver(self, x):
        # Sherman-Morrison on a*I + b*x*x^T (a > 0, a + b|x|^2 > 0)
        x = self._checked(x)
        t, a, b = self._coeffs(x)
        if np.any(a <= 0):
            raise SingularHessian(f"{self.name}: nonpositive radial coefficient")
        denom = a * (a + b * t * t)

        def solve(v):
            v = np.asarray(v, dtype=float)
            inner = np.sum(x * v, axis=-1, keepdims=True)
            return v / a - (b * inner / denom) * x
        return solve

    def grad_conj(self, z):
        z = _check_shape(z, self.dim, "dual vector")
        tz = _norm(z)
        t = np.zeros_like(tz)
        big = tz > 1e-300
        if np.any(big):
            t_big = self._g_inv(tz[big])
            if t_big is None:
                t_big = solve_increasing(
                    self._g, self._g_prime, tz[big],
                    lo=np.zeros_like(tz[big]), hi=np.full_like(tz[big], np.inf),
                    t0=np.ones_like(tz[big]),
                )
            t[big] = t_big
        scale = np.where(big, t / np.where(big, tz, 1.0), 1.0 / self._s(np.zeros_like(tz)))
        return z * scale[..., None]


class PowerKernel(RadialKernel):
    """mu/2 |x|^2 + |x|^(r+2)/(r+2) on the whole space, r > 0."""

    def __init__(self, dim, mu=1.0, r=2.0):
        if mu <= 0 or r <= 0:
            raise ValueError("mu and r must be positive")
        self.mu = float(mu)
        self.r = float(r)
        coeff = max(10.0, r * r * 2.0 ** (r + 1.0))
        mod = PowerPairModulus(
            c1=coeff / mu ** (1.0 + 1.0 / r), a=1.0,
            c2=coeff / mu ** (1.0 + r), b=r,
        )
        super().__init__(dim, domains.reals(dim), mod, f"power(mu={mu:g},r={r:g})")

    def _val_radius(self, t):
        return 0.5 * self.mu * t * t + t ** (self.r + 2.0) / (self.r + 2.0)

    def _s(self, t):
        return self.mu + t**self.r

    def _b(self, t):
        return self.r * t ** (self.r - 2.0)

    def _g_prime(self, t):
        return self.mu + (self.r + 1.0) * t**self.r

    def _g_inv(self, s):
        if self.r != 2.0:
            return None
        # the real root of mu*t + t^3 = s (Bolte, Sabach, Teboulle and
        # Vaisbourd 2018), in a form that does not cancel; one Newton step
        # removes the rounding of asinh, which grows with log(s)
        mu = self.mu
        c = math.sqrt(mu / 3.0)
        t = 2.0 * c * np.sinh(np.arcsinh(s * (1.5 / (mu * c))) / 3.0)
        return t - (mu * t + t**3 - s) / (mu + 3.0 * t * t)


class NormExponential(RadialKernel):
    """exp(|x|^2 / 2): 1-strongly convex and 1-self-concordant."""

    def __init__(self, dim):
        super().__init__(dim, domains.reals(dim), self_concordant_modulus(1.0, 1.0),
                         "norm_exponential")

    def _val_radius(self, t):
        return np.exp(0.5 * t * t)

    def _s(self, t):
        return np.exp(0.5 * t * t)

    def _b(self, t):
        return np.exp(0.5 * t * t)

    def _g_prime(self, t):
        return (1.0 + t * t) * np.exp(0.5 * t * t)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


class AffineKernel(Kernel):
    """phi(x) = c * h(A x + b) with nonsingular A: 1-D is diagonal (None is
    all ones), 2-D dense."""

    def __init__(self, base: Kernel, c=1.0, A=None, b=None):
        if c <= 0:
            raise ValueError("c must be positive")
        self.base = base
        self.c = float(c)
        self.b = np.zeros(base.dim) if b is None else np.asarray(b, dtype=float)
        if self.b.shape != (base.dim,):
            raise ValueError("b has wrong shape")
        A = np.ones(base.dim) if A is None else np.asarray(A, dtype=float)
        if A.ndim == 1:
            if A.shape != (base.dim,) or np.any(A == 0):
                raise SingularMatrix("diagonal scaling must be nonzero")
            kappa = float(np.max(np.abs(A)) / np.min(np.abs(A)))
            dom = base.domain.shift(-self.b).scale(A)
        else:
            if A.shape != (base.dim, base.dim):
                raise ValueError("A has wrong shape")
            sv = np.linalg.svd(A, compute_uv=False)
            if sv[-1] <= max(1e-12 * sv[0], 1e-300):
                raise SingularMatrix("A is numerically singular")
            if base.domain.kind != "reals":
                raise ModeMismatch(
                    "dense affine composition requires a full-space base domain"
                )
            self._Ainv = np.linalg.inv(A)
            kappa = float(sv[0] / sv[-1])
            dom = base.domain
        self.A = A
        mod = base.modulus
        if kappa != 1.0 or c != 1.0:
            mod = ScaledModulus(inner=base.modulus, kappa=kappa, c=self.c)
        super().__init__(base.dim, dom, mod, f"affine[{base.name}]")

    def _push(self, x):
        x = _check_shape(x, self.dim)
        if self.A.ndim == 1:
            return x * self.A + self.b
        return x @ self.A.T + self.b

    @property
    def separable(self):
        return self.base.separable and self.A.ndim == 1

    def _value(self, x):
        return self.c * self.base._value(self._push(x))

    def _grad(self, x):
        # c A^T grad h(A x + b)
        g = self.base._grad(self._push(x))
        if self.A.ndim == 1:
            return self.c * self.A * g
        return self.c * (g @ self.A)

    def _hess_diag(self, x):
        return self.c * self.A * self.A * self.base._hess_diag(self._push(x))

    def grad_conj(self, z):
        z = _check_shape(z, self.dim, "dual vector")
        # A^{-1} (grad h*(A^{-T} z / c) - b)
        if self.A.ndim == 1:
            return (self.base.grad_conj(z / (self.A * self.c)) - self.b) / self.A
        y = self.base.grad_conj(z @ self._Ainv / self.c)
        return (y - self.b) @ self._Ainv.T

    def hess_apply(self, x, v):
        v = np.asarray(v, dtype=float)
        if self.A.ndim == 1:
            return self.c * self.A * self.base.hess_apply(self._push(x), self.A * v)
        return self.c * (self.base.hess_apply(self._push(x), v @ self.A.T) @ self.A)

    def hess_solver(self, x):
        solve = self.base.hess_solver(self._push(x))
        if self.A.ndim == 1:
            return lambda v: (solve(np.asarray(v, dtype=float) / self.A)
                              / (self.A * self.c))
        return lambda v: (solve(np.asarray(v, dtype=float) @ self._Ainv)
                          @ self._Ainv.T / self.c)


class ConcatKernel(Kernel):
    """Block-separable kernel over the product domain of its parts."""

    def __init__(self, parts):
        parts = list(parts)
        if not parts:
            raise ValueError("need at least one kernel")
        self.parts = parts
        dom = parts[0].domain
        for p in parts[1:]:
            dom = dom.concat(p.domain)
        dims = [p.dim for p in parts]
        self.offsets = np.concatenate([[0], np.cumsum(dims)])
        mods = [p.modulus for p in parts]
        mod = mods[0] if len(mods) == 1 else MaxModulus(parts=tuple(mods))
        super().__init__(sum(dims), dom, mod,
                         "concat[" + ",".join(p.name for p in parts) + "]")

    def _blocks(self, x):
        return [x[..., self.offsets[i]:self.offsets[i + 1]] for i in range(len(self.parts))]

    @property
    def separable(self):
        return all(p.separable for p in self.parts)

    def _value(self, x):
        return sum(p._value(b) for p, b in zip(self.parts, self._blocks(x)))

    def _grad(self, x):
        return np.concatenate(
            [p._grad(b) for p, b in zip(self.parts, self._blocks(x))], axis=-1)

    def _hess_diag(self, x):
        return np.concatenate(
            [p._hess_diag(b) for p, b in zip(self.parts, self._blocks(x))], axis=-1)

    def grad_conj(self, z):
        z = _check_shape(z, self.dim, "dual vector")
        return np.concatenate(
            [p.grad_conj(b) for p, b in zip(self.parts, self._blocks(z))], axis=-1)

    def hess_apply(self, x, v):
        v = np.asarray(v, dtype=float)
        return np.concatenate(
            [p.hess_apply(b, w) for p, b, w in
             zip(self.parts, self._blocks(x), self._blocks(v))], axis=-1)

    def hess_solver(self, x):
        solves = [p.hess_solver(b) for p, b in zip(self.parts, self._blocks(x))]
        return lambda v: np.concatenate(
            [solve(w) for solve, w in
             zip(solves, self._blocks(np.asarray(v, dtype=float)))], axis=-1)


class SumKernel(Kernel):
    """phi = h1 + h2 on the intersected domain, modulus supplied by `combine`."""

    def __init__(self, k1: Kernel, k2: Kernel, modulus, name=None):
        if k1.dim != k2.dim:
            raise ValueError("dimension mismatch")
        dom = k1.domain.intersect(k2.domain)
        self.k1 = k1
        self.k2 = k2
        super().__init__(k1.dim, dom, modulus,
                         name or f"sum[{k1.name},{k2.name}]")

    @property
    def separable(self):
        return self.k1.separable and self.k2.separable

    def _value(self, x):
        return self.k1._value(x) + self.k2._value(x)

    def _grad(self, x):
        return self.k1._grad(x) + self.k2._grad(x)

    def _hess_diag(self, x):
        return self.k1._hess_diag(x) + self.k2._hess_diag(x)

    def hess_apply(self, x, v):
        return self.k1.hess_apply(x, v) + self.k2.hess_apply(x, v)

    def grad_conj(self, z):
        z = _check_shape(z, self.dim, "dual vector")
        if self.separable:
            return self._invert_coordinatewise(z)
        x0 = np.broadcast_to(self._interior_point(), z.shape)
        return self._newton_conj(z, x0)

    def _interior_point(self):
        lo = np.where(np.isfinite(self.domain.lo), self.domain.lo, -1.0)
        hi = np.where(np.isfinite(self.domain.hi), self.domain.hi, 1.0)
        return 0.5 * (lo + hi)


# ---------------------------------------------------------------------------
# Public combinator operations
# ---------------------------------------------------------------------------


def concat(kernels) -> Kernel:
    """Block-separable concatenation; modulus is the pointwise max."""
    kernels = list(kernels)
    if len(kernels) == 1:
        return kernels[0]
    if all(isinstance(k, Euclidean) for k in kernels):
        return Euclidean(sum(k.dim for k in kernels))
    return ConcatKernel(kernels)


def affine_compose(kernel: Kernel, c=1.0, A=None, b=None) -> Kernel:
    """Kernel x -> c * h(A x + b); modulus kappa_A * zeta(delta / c)."""
    return AffineKernel(kernel, c=c, A=A, b=b)


def shifted(kernel: Kernel, shift) -> Kernel:
    """Kernel x -> h(x - shift), as used by dual-averaging baselines."""
    shift = np.asarray(shift, dtype=float)
    k = AffineKernel(kernel, c=1.0, A=None, b=-shift)
    k.name = f"shifted[{kernel.name}]"
    return k


def combine(h1: Kernel, h2: Kernel, mode: str, kappa_h=None, kappa_g=None) -> Kernel:
    """Sum kernel h1 + h2 under one of the closedness modes.

    ``quadratic-shift`` requires h2 to be the identity quadratic and keeps
    h1's modulus; ``coordinate-separable`` requires both summands separable
    and takes the pointwise max; ``cross-monotone`` takes caller-supplied
    Hessian condition-number bounds and uses the weighted-sum modulus.
    """
    if mode == "quadratic-shift":
        if not isinstance(h2, Euclidean):
            raise ModeMismatch("quadratic-shift requires h2 = |x|^2 / 2")
        modulus = h1.modulus
    elif mode == "coordinate-separable":
        if not (h1.separable and h2.separable):
            raise ModeMismatch("both kernels must be coordinate-separable")
        modulus = MaxModulus(parts=(h1.modulus, h2.modulus))
    elif mode == "cross-monotone":
        if kappa_h is None or kappa_g is None:
            raise ModeMismatch("cross-monotone needs kappa_h and kappa_g bounds")
        if kappa_h < 1 or kappa_g < 1:
            raise ModeMismatch("condition numbers are >= 1")
        modulus = SumModulus(terms=(
            (math.sqrt(kappa_h), h2.modulus),
            (math.sqrt(kappa_g), h1.modulus),
        ))
    else:
        raise ModeMismatch(f"unknown combination mode {mode!r}")
    return SumKernel(h1, h2, modulus)


# ---------------------------------------------------------------------------
# Catalogue
# ---------------------------------------------------------------------------

# the catalogue kernels whose factory is their class, under their kind's name
boltzmann_shannon = BoltzmannShannon
burg = Burg
power = PowerKernel
tsallis = Tsallis
exponential_entropy = ExponentialEntropy
norm_exponential = NormExponential
harmonic = Harmonic
hellinger = Hellinger


def euclidean(dim, A=None) -> Kernel:
    """|x|^2 / 2, or x^T A x / 2 = |L^T x|^2 / 2 with A = L L^T positive
    definite: the identity kernel composed with L^T."""
    if A is None:
        return Euclidean(dim)
    A = np.asarray(A, dtype=float)
    if A.shape != (dim, dim) or not np.allclose(A, A.T, atol=1e-12):
        raise ValueError("A must be a symmetric (dim, dim) matrix")
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrix("preconditioner is not positive definite") from exc
    k = affine_compose(Euclidean(dim), A=L.T)
    k.name = "euclidean(A)"
    return k


def quartic(dim) -> PowerKernel:
    """|x|^4/4 + |x|^2/2: the power kernel at mu=1, r=2."""
    k = PowerKernel(dim, mu=1.0, r=2.0)
    k.name = "quartic"
    return k


def fermi_dirac(dim) -> Kernel:
    """sum x log x + (1-x) log(1-x) on (0,1)^d, built from the combinators."""
    left = boltzmann_shannon(dim)
    right = affine_compose(boltzmann_shannon(dim), c=1.0,
                           A=-np.ones(dim), b=np.ones(dim))
    k = combine(left, right, "coordinate-separable")
    k.name = "fermi_dirac"
    return k


def lipschitz_hessian(dim, mu=1.0, r=1.0) -> Kernel:
    """A strongly convex kernel with Lipschitz Hessian: the power kernel at
    exponent r, certified with exp(rho*delta/mu^2)-1 where rho = 3r+|r(r-2)|."""
    rho_lip = 3.0 * r + abs(r * (r - 2.0))
    k = power(dim, mu=mu, r=r).with_modulus(
        ExpLinearModulus(rho_lip / mu**2), name=f"lipschitz_hessian(mu={mu:g},r={r:g})")
    return k


def self_concordant_instance(dim, M=1.0, mu=1.0) -> Kernel:
    """Representative of the self-concordant class: norm exponential (M=mu=1)."""
    if (M, mu) != (1.0, 1.0):
        raise ValueError("only the M=mu=1 representative is instantiated")
    return norm_exponential(dim).with_modulus(
        self_concordant_modulus(M, mu), name="self_concordant")


def table_catalogue(dim, mu=1.0, rs=(0.5, 1.0, 2.0), q=0.5, p=1.0, M=1.0):
    """The full kernel table at the given parameters, keyed by row name."""
    rows = {
        "euclidean": euclidean(dim),
        "boltzmann_shannon": boltzmann_shannon(dim),
        "lipschitz_hessian": lipschitz_hessian(dim, mu=mu, r=1.0),
        "tsallis": tsallis(dim, mu=mu, q=q),
        "burg": burg(dim, mu=mu),
        "exponential": exponential_entropy(dim, mu=mu),
        "norm_exponential": norm_exponential(dim),
        "harmonic": harmonic(dim, mu=mu, p=p),
        "hellinger": hellinger(dim),
        "self_concordant": self_concordant_instance(dim, M=M, mu=1.0),
    }
    for r in rs:
        rows[f"power_r{r:g}"] = power(dim, mu=mu, r=r)
    return rows


# ---------------------------------------------------------------------------
# Config-facing constructor
# ---------------------------------------------------------------------------


def _shifted_spec(dim, base, shift) -> Kernel:
    """The ``shifted`` config kind: ``base`` is itself a kernel spec."""
    if np.shape(shift) != (dim,):
        raise ValueError(f"shift must be a vector of length {dim}")
    return shifted(_spec.build(KERNELS, base, "kernel.base", dim), shift)


# kind: constructor, which takes the dimension first and the spec's keys
KERNELS = {
    "euclidean": euclidean,
    "boltzmann_shannon": boltzmann_shannon,
    "burg": burg,
    "power": power,
    "quartic": quartic,
    "tsallis": tsallis,
    "exponential": exponential_entropy,
    "norm_exponential": norm_exponential,
    "harmonic": harmonic,
    "hellinger": hellinger,
    "fermi_dirac": fermi_dirac,
    "shifted": _shifted_spec,
}


def kernel_from_spec(spec: dict, dim: int) -> Kernel:
    """Build a kernel from a config mapping like {kind: power, mu: 1, r: 2};
    a bad spec raises :class:`ValidationError` naming its key path.

    ``{kind: shifted, base: {...}, shift: [..]}`` wraps another spec.
    """
    return _spec.build(KERNELS, spec, "kernel", dim)
