"""Objective suites and synthetic data generation.

Three families: quadratic consensus (testing), phase retrieval with the
quartic geometry, and Poisson inverse problems (dense sensing or blurred
imaging with a smoothed total-variation penalty) with the Burg geometry.
Data generation is deterministic given the seed; the Poisson sampler is
hand-rolled from uniforms so the byte stream never depends on numpy's
internal distribution algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from . import _spec, domains
from .errors import SamplingExhausted


# ---------------------------------------------------------------------------
# Deterministic Poisson sampling
# ---------------------------------------------------------------------------

def _poisson_inverse_transform(rng, lam):
    """Sequential inverse transform; exact, intended for lam < 30."""
    u = rng.random()
    p = math.exp(-lam)
    cdf = p
    k = 0
    # mean + 40*sqrt(mean) standard deviations is unreachable in double precision
    kmax = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    while u > cdf and k < kmax:
        k += 1
        p *= lam / k
        cdf += p
    return k


def poisson_sample(rng, lam):
    """Exact Poisson draws from the generator's uniform stream.

    Means below 30 use inverse transform; larger means split recursively
    via Poisson(a+b) = Poisson(a) + Poisson(b), which keeps every step in
    the numerically safe regime.
    """
    lam = np.asarray(lam, dtype=float)
    out = np.empty(lam.shape, dtype=np.int64)
    flat = lam.ravel()
    res = out.ravel()
    for idx, lam_i in enumerate(flat):
        if lam_i < 0:
            raise ValueError("Poisson mean must be nonnegative")
        total = 0
        stack = [float(lam_i)]
        while stack:
            cur = stack.pop()
            if cur == 0.0:
                continue
            if cur < 30.0:
                total += _poisson_inverse_transform(rng, cur)
            else:
                stack.append(0.5 * cur)
                stack.append(0.5 * cur)
        res[idx] = total
    return out.reshape(lam.shape)


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass
class Problem:
    """m local objectives over a shared domain, with gradient oracles.

    Families whose local objectives depend on x only through A_i x keep
    their data stacked in ``rows`` (see :class:`_Rows`); ``locals`` then
    holds views of those stacks.
    """

    name: str
    m: int
    d: int
    locals: list                      # objects with .value(x) and .grad(x)
    domain: domains.Domain
    f_lower: float = 0.0
    x_true: np.ndarray = None
    meta: dict = field(default_factory=dict)
    rows: "_Rows" = None

    def value(self, x) -> float:
        if self.rows is not None:
            values = self.rows.values(x)
        else:
            values = (loc.value(x) for loc in self.locals)
        return float(sum(values) / self.m)

    def grad(self, x) -> np.ndarray:
        if self.rows is not None:
            grads = iter(self.rows.grads(x))
        else:
            grads = (loc.grad(x) for loc in self.locals)
        g = next(grads).astype(float, copy=True)
        for gi in grads:
            g += gi
        return g / self.m

    def local_grad(self, i, x) -> np.ndarray:
        return self.locals[i].grad(x)

    def grads_rowwise(self, X) -> np.ndarray:
        """Per-agent gradients of the m rows of X, stacked (m, d)."""
        if self.rows is not None:
            return self.rows.grads_rowwise(X)
        return np.stack([self.locals[i].grad(X[i]) for i in range(self.m)])

    def permuted(self, perm) -> "Problem":
        """Same problem with agents relabelled by the permutation."""
        import copy

        p = copy.copy(self)
        if self.rows is not None:
            p.rows = self.rows.permuted(perm)
            p.locals = p.rows.locals
        else:
            p.locals = [self.locals[j] for j in perm]
        return p


class _Rows:
    """Stacked data of a family whose local objective reads x only through
    A_i x: the (m, n, d) designs ``A`` and the (m, n) observations ``b``.

    ``values(x)`` and ``grads(x)`` give the m local values and gradients at
    one point from a single stacked product A x, with the same
    floating-point operations as the per-agent ``local`` objects, which are
    views of the stacks.
    """

    local = None

    def __init__(self, A, b):
        self.A = A
        self.b = b
        self.n = A.shape[1]
        self.locals = [self.local(A[i], b[i]) for i in range(A.shape[0])]

    def permuted(self, perm):
        return type(self)(self.A[perm], self.b[perm])

    def _AT_dot(self, W):
        """A_i^T w_i for every agent, stacked (m, d)."""
        return (self.A.transpose(0, 2, 1) @ W[..., None])[..., 0]


# ---------------------------------------------------------------------------
# Quadratic consensus (test problem)
# ---------------------------------------------------------------------------


class _QuadraticLocal:
    def __init__(self, Q, c):
        self.Q = Q
        self.c = c

    def value(self, x):
        r = np.asarray(x, dtype=float) - self.c
        return 0.5 * float(r @ self.Q @ r)

    def grad(self, x):
        return self.Q @ (np.asarray(x, dtype=float) - self.c)


def quadratic_consensus(d, m, seed=0, cond=10.0) -> Problem:
    """Strongly convex quadratics with distinct centers; exact L and f*."""
    rng = np.random.default_rng(seed)
    locs = []
    for _ in range(m):
        M = rng.standard_normal((d, d))
        Q, _ = np.linalg.qr(M)
        vals = np.exp(rng.uniform(0.0, np.log(cond), d))
        Q = (Q * vals) @ Q.T
        Q = 0.5 * (Q + Q.T)
        locs.append(_QuadraticLocal(Q, rng.standard_normal(d)))
    Qbar = sum(loc.Q for loc in locs) / m
    rhs = sum(loc.Q @ loc.c for loc in locs) / m
    x_star = np.linalg.solve(Qbar, rhs)
    prob = Problem(
        name="quadratic", m=m, d=d, locals=locs, domain=domains.reals(d),
        x_true=x_star,
    )
    prob.f_lower = prob.value(x_star)
    prob.meta["L_exact"] = float(max(np.linalg.norm(loc.Q, 2) for loc in locs))
    return prob


# ---------------------------------------------------------------------------
# Entropy-matched test problem (Boltzmann-Shannon geometry)
# ---------------------------------------------------------------------------


class _EntropyLocal:
    """c * sum(x log x - x) + a.x: Hessian is exactly c * diag(1/x)."""

    def __init__(self, c, a):
        self.c = c
        self.a = a

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return self.c * float(np.sum(x * np.log(x) - x)) + float(self.a @ x)

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        return self.c * np.log(x) + self.a


def entropy_consensus(d, m, seed=0) -> Problem:
    """Orthant problem exactly smooth relative to Boltzmann-Shannon."""
    rng = np.random.default_rng(seed)
    cs = rng.uniform(0.5, 2.0, m)
    As = rng.uniform(0.0, 1.0, (m, d))
    locs = [_EntropyLocal(float(cs[i]), As[i]) for i in range(m)]
    cbar = float(np.mean(cs))
    abar = As.mean(axis=0)
    # coordinatewise minimum of cbar*(t log t - t) + abar_j t is -cbar*exp(-abar_j/cbar)
    f_lower = float(-cbar * np.sum(np.exp(-abar / cbar)))
    prob = Problem(
        name="entropy", m=m, d=d, locals=locs, domain=domains.orthant(d),
        f_lower=f_lower,
    )
    prob.meta["L_exact"] = float(np.max(cs))
    return prob


# ---------------------------------------------------------------------------
# Phase retrieval
# ---------------------------------------------------------------------------


class _PhaseRetrievalLocal:
    def __init__(self, A, b):
        self.A = A  # (n, d) sensing vectors as rows
        self.b = b
        self.n = A.shape[0]

    def value(self, x):
        r = self.b - (self.A @ np.asarray(x, dtype=float)) ** 2
        return float(np.sum(r * r)) / self.n

    def grad(self, x):
        ax = self.A @ np.asarray(x, dtype=float)
        r = self.b - ax * ax
        return (-4.0 / self.n) * (self.A.T @ (r * ax))


class _PhaseRetrievalRows(_Rows):
    local = _PhaseRetrievalLocal

    def values(self, x):
        r = self.b - (self.A @ np.asarray(x, dtype=float)) ** 2
        return np.sum(r * r, axis=-1) / self.n

    def grads(self, x):
        ax = self.A @ np.asarray(x, dtype=float)
        r = self.b - ax * ax
        return (-4.0 / self.n) * self._AT_dot(r * ax)

    def grads_rowwise(self, X):
        ax = np.einsum("mnd,md->mn", self.A, X)
        w = (self.b - ax * ax) * ax
        return (-4.0 / self.n) * np.einsum("mnd,mn->md", self.A, w)


def phase_retrieval(d, n, m, noise_sd, seed=0) -> Problem:
    """Quartic sensing: f_i(x) = (1/n) sum_l (b - <a, x>^2)^2.

    Sensing vectors are standard normal, measurements are squared inner
    products with the ground truth plus Gaussian noise of the given standard
    deviation.  Pairs with the quartic kernel |x|^4/4 + |x|^2/2.
    """
    rng = np.random.default_rng(seed)
    x_true = rng.uniform(0.0, 1.0, d)
    As, bs = [], []
    for _ in range(m):
        A = rng.standard_normal((n, d))
        b = (A @ x_true) ** 2
        if noise_sd > 0:
            b = b + noise_sd * rng.standard_normal(n)
        As.append(A)
        bs.append(b)
    rows = _PhaseRetrievalRows(np.stack(As), np.stack(bs))
    return Problem(
        name="phase_retrieval", m=m, d=d, locals=rows.locals,
        domain=domains.reals(d), f_lower=0.0, x_true=x_true, rows=rows,
    )


# ---------------------------------------------------------------------------
# Poisson inverse
# ---------------------------------------------------------------------------

_KL_FLOOR = 1e-300


def _kl_rows(b, ax):
    """Generalized KL divergence of ``b`` from ``ax``, summed over the last axis."""
    ax = np.maximum(ax, _KL_FLOOR)
    terms = np.where(b > 0, b * np.log(np.maximum(b, _KL_FLOOR) / ax) - b, 0.0)
    return np.sum(terms + ax, axis=-1)


def _kl_value(b, ax):
    return float(_kl_rows(b, ax))


class _PoissonLocal:
    def __init__(self, A, b):
        self.A = A
        self.b = b

    def value(self, x):
        return _kl_value(self.b, self.A @ np.asarray(x, dtype=float))

    def grad(self, x):
        ax = np.maximum(self.A @ np.asarray(x, dtype=float), _KL_FLOOR)
        return self.A.T @ (1.0 - self.b / ax)


class _PoissonRows(_Rows):
    local = _PoissonLocal

    def values(self, x):
        return _kl_rows(self.b, self.A @ np.asarray(x, dtype=float))

    def grads(self, x):
        ax = np.maximum(self.A @ np.asarray(x, dtype=float), _KL_FLOOR)
        return self._AT_dot(1.0 - self.b / ax)

    def grads_rowwise(self, X):
        ax = np.maximum(np.einsum("mnd,md->mn", self.A, X), _KL_FLOOR)
        return np.einsum("mnd,mn->md", self.A, 1.0 - self.b / ax)


def poisson_inverse(d, n, m, seed=0) -> Problem:
    """Generalized KL fit of Poisson counts against a nonnegative design.

    Design entries are absolute Student-t(5) draws (all-zero rows are
    resampled), counts follow Poisson(A x_true).  Pairs with the regularized
    Burg entropy on the open positive orthant; L_analytic = max_i |b_i|_1 is
    a valid relative-smoothness modulus.
    """
    rng = np.random.default_rng(seed)
    x_true = rng.uniform(0.0, 1.0, d)
    As, bs = [], []
    for _ in range(m):
        A = np.abs(rng.standard_t(5, size=(n, d)))
        for _ in range(100):
            dead = np.nonzero(A.sum(axis=1) == 0.0)[0]
            if len(dead) == 0:
                break
            A[dead] = np.abs(rng.standard_t(5, size=(len(dead), d)))
        As.append(A)
        bs.append(poisson_sample(rng, A @ x_true).astype(float))
    rows = _PoissonRows(np.stack(As), np.stack(bs))
    prob = Problem(
        name="poisson_inverse", m=m, d=d, locals=rows.locals,
        domain=domains.orthant(d), f_lower=0.0, x_true=x_true, rows=rows,
    )
    prob.meta["L_analytic"] = float(max(np.sum(b) for b in bs))
    return prob


# ---------------------------------------------------------------------------
# TV-regularized Poisson deblurring
# ---------------------------------------------------------------------------

EPS_TV = 1e-10


def phantom_image(d_img) -> np.ndarray:
    """Deterministic piecewise-constant test image in [0, 255]."""
    X = np.full((d_img, d_img), 40.0)
    q = max(1, d_img // 4)
    X[q:3 * q, q:3 * q] = 200.0
    X[: d_img // 2, 3 * q:] = 120.0
    ii, jj = np.meshgrid(np.arange(d_img), np.arange(d_img), indexing="ij")
    disk = (ii - 0.7 * d_img) ** 2 + (jj - 0.3 * d_img) ** 2 <= (d_img / 6.0) ** 2
    X[disk] = 255.0
    return X


def _line_stencil(length, angle):
    """Normalized stencil of a length-`length` segment at the given angle,
    rasterized with bilinear splatting."""
    half = (length - 1) / 2.0
    r = int(np.ceil(half)) + 1
    size = 2 * r + 1
    K = np.zeros((size, size))
    n_pts = max(2 * length, 8)
    ts = np.linspace(-half, half, n_pts)
    for t in ts:
        y = t * math.sin(angle) + r
        x = t * math.cos(angle) + r
        i0, j0 = int(np.floor(y)), int(np.floor(x))
        fy, fx = y - i0, x - j0
        K[i0, j0] += (1 - fy) * (1 - fx)
        K[i0, j0 + 1] += (1 - fy) * fx
        K[i0 + 1, j0] += fy * (1 - fx)
        K[i0 + 1, j0 + 1] += fy * fx
    return K / K.sum()


def blur_matrix(d_img, length, angle) -> scipy.sparse.csr_matrix:
    """Sparse matrix of the motion-blur convolution with replicate padding,
    acting on row-major flattened d_img x d_img images."""
    K = _line_stencil(length, angle)
    r = K.shape[0] // 2
    rows, cols, vals = [], [], []
    for p in range(d_img):
        for q in range(d_img):
            out = p * d_img + q
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    w = K[di + r, dj + r]
                    if w == 0.0:
                        continue
                    ii = min(max(p + di, 0), d_img - 1)
                    jj = min(max(q + dj, 0), d_img - 1)
                    rows.append(out)
                    cols.append(ii * d_img + jj)
                    vals.append(w)
    M = scipy.sparse.coo_matrix((vals, (rows, cols)),
                                shape=(d_img * d_img, d_img * d_img))
    return M.tocsr()


def tv_value(X, eps=EPS_TV) -> float:
    """Smoothed isotropic TV with replicate boundary differences."""
    dv = np.diff(X, axis=0, append=X[-1:, :])
    dh = np.diff(X, axis=1, append=X[:, -1:])
    return float(np.sum(np.sqrt(dv * dv + dh * dh + eps * eps)))


def tv_grad(X, eps=EPS_TV) -> np.ndarray:
    dv = np.diff(X, axis=0, append=X[-1:, :])
    dh = np.diff(X, axis=1, append=X[:, -1:])
    s = np.sqrt(dv * dv + dh * dh + eps * eps)
    gv = dv / s
    gh = dh / s
    g = -gv - gh
    g[1:, :] += gv[:-1, :]
    g[:, 1:] += gh[:, :-1]
    return g


class _TVDeblurLocal:
    def __init__(self, A, b, lam, d_img):
        self.A = A
        self.b = b
        self.lam = lam
        self.d_img = d_img

    def value(self, x):
        x = np.asarray(x, dtype=float)
        val = _kl_value(self.b, self.A @ x)
        return val + self.lam * tv_value(x.reshape(self.d_img, self.d_img))

    def grad(self, x):
        x = np.asarray(x, dtype=float)
        ax = np.maximum(self.A @ x, _KL_FLOOR)
        g = self.A.T @ (1.0 - self.b / ax)
        return g + self.lam * tv_grad(x.reshape(self.d_img, self.d_img)).ravel()


def tv_deblur(d_img, m, blur_len=5, alpha=10.0, lambda_tv=1e-4, seed=0) -> Problem:
    """Poisson deblurring of a synthetic phantom with a smoothed TV penalty.

    Each agent observes the phantom through a motion blur at one of eight
    angles (indexed by agent id modulo 8), corrupted by scaled Poisson noise
    B ~ Poisson(alpha * A(X)) / alpha.
    """
    if d_img < 4:
        raise ValueError("need d_img >= 4")
    rng = np.random.default_rng(seed)
    X_true = phantom_image(d_img)
    x_true = X_true.ravel()
    locs = []
    for i in range(m):
        angle = (i % 8) * math.pi / 8.0
        A = blur_matrix(d_img, blur_len, angle)
        lam_img = alpha * np.asarray(A @ x_true)
        b = poisson_sample(rng, lam_img).astype(float) / alpha
        locs.append(_TVDeblurLocal(A, b, lambda_tv, d_img))
    return Problem(
        name="tv_deblur", m=m, d=d_img * d_img, locals=locs,
        domain=domains.orthant(d_img * d_img), f_lower=0.0, x_true=x_true,
        meta={"alpha": alpha, "lambda_tv": lambda_tv, "blur_len": blur_len},
    )


# ---------------------------------------------------------------------------
# Relative smoothness estimation and image quality
# ---------------------------------------------------------------------------


def estimate_rel_smoothness(prob: Problem, kernel, n_samples=100, seed=0,
                            inflation=1.2) -> float:
    """Monte-Carlo upper estimate of the relative-smoothness modulus.

    Samples interior points and unit directions, compares the objective
    curvature |v' f'' v| (Hessian-vector products by central differences of
    the gradient) against the kernel curvature v' h'' v, and returns the
    inflated maximum ratio.
    """
    rng = np.random.default_rng(seed)
    X = kernel.sample_interior(rng, n_samples)
    ratio_max = 0.0
    used = 0
    for i in range(n_samples):
        x = X[i]
        if not prob.domain.is_interior(x):
            continue
        v = rng.standard_normal(prob.d)
        v /= np.linalg.norm(v)
        lo_gap = np.min(np.where(np.isfinite(prob.domain.lo),
                                 x - prob.domain.lo, np.inf))
        hi_gap = np.min(np.where(np.isfinite(prob.domain.hi),
                                 prob.domain.hi - x, np.inf))
        eps = min(1e-5 * (1.0 + float(np.linalg.norm(x))),
                  0.25 * min(lo_gap, hi_gap))
        if not np.isfinite(eps) or eps <= 0:
            eps = 1e-5
        denom_all = kernel.hess_apply(x, v) @ v
        for idx in range(prob.m):
            hv = (prob.local_grad(idx, x + eps * v)
                  - prob.local_grad(idx, x - eps * v)) / (2.0 * eps)
            num = abs(float(hv @ v))
            ratio_max = max(ratio_max, num / float(denom_all))
        used += 1
    if used == 0:
        raise SamplingExhausted("no interior sample lay in the problem domain")
    return inflation * ratio_max


def psnr(X, X_ref, peak=255.0) -> float:
    """Peak signal-to-noise ratio in dB; identical images give +inf."""
    X = np.asarray(X, dtype=float)
    X_ref = np.asarray(X_ref, dtype=float)
    if X.shape != X_ref.shape:
        raise ValueError("shape mismatch")
    mse = float(np.mean((X - X_ref) ** 2))
    if mse == 0.0:
        return math.inf
    return 10.0 * math.log10(peak * peak / mse)


# ---------------------------------------------------------------------------
# Config-facing constructor
# ---------------------------------------------------------------------------


# kind: (constructor, allowed keys, domain); the domain is read from the
# spec's keys, so a config is checked without generating its data
PROBLEMS = {
    "quadratic": (quadratic_consensus, {"d", "m", "seed", "cond"},
                  lambda d, **_: domains.reals(d)),
    "entropy": (entropy_consensus, {"d", "m", "seed"},
                lambda d, **_: domains.orthant(d)),
    "phase_retrieval": (phase_retrieval, {"d", "n", "m", "noise_sd", "seed"},
                        lambda d, **_: domains.reals(d)),
    "poisson": (poisson_inverse, {"d", "n", "m", "seed"},
                lambda d, **_: domains.orthant(d)),
    "tv_deblur": (tv_deblur, {"d_img", "m", "blur_len", "alpha", "lambda_tv",
                              "seed"},
                  lambda d_img, **_: domains.orthant(d_img * d_img)),
}


def problem_from_spec(spec: dict) -> Problem:
    return _spec.build(PROBLEMS, spec, "problem")


def spec_domain(spec: dict) -> domains.Domain:
    """Domain of the problem a spec describes, without generating its data."""
    (_, _, domain), kwargs = _spec.check(PROBLEMS, spec, "problem")
    return _spec.call(domain, "problem", **kwargs)
