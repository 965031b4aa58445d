"""Objective suites and synthetic data generation.

Five families, each a :class:`Problem` subclass built from stacked
per-agent arrays: quadratic consensus and an entropy-matched problem (test
problems with exact constants), phase retrieval with the quartic geometry,
and Poisson inverse problems (dense sensing, or blurred imaging with a
smoothed total-variation penalty) with the Burg geometry.
Data generation is deterministic given the seed; the Poisson sampler is
hand-rolled from uniforms so the byte stream never depends on numpy's
internal distribution algorithms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import _spec, domains
from .errors import SamplingExhausted


# ---------------------------------------------------------------------------
# Deterministic Poisson sampling
# ---------------------------------------------------------------------------

def poisson_sample(rng, lam):
    """Exact Poisson draws from the generator's uniform stream.

    A mean of 30 or more is halved j times, until it is below 30, and its
    draw is the sum of 2^j draws at the halved mean, since Poisson(a + b) =
    Poisson(a) + Poisson(b); this keeps every inversion in the numerically
    safe regime.  Each such leaf takes one uniform, in order, mean by mean
    (a zero mean takes none), and is inverted by a sequential search of
    the CDF, all leaves at once with the operations of one leaf's search.
    """
    lam = np.asarray(lam, dtype=float)
    if not ((lam >= 0) & (lam < math.inf)).all():
        raise ValueError("Poisson mean must be finite and nonnegative")
    leaf = lam.ravel().copy()
    halvings = np.zeros(leaf.shape, dtype=np.int64)
    while (big := leaf >= 30.0).any():
        leaf[big] *= 0.5
        halvings[big] += 1
    owner = np.repeat(np.arange(leaf.size),
                      np.where(leaf > 0, 2 ** halvings, 0))
    u = rng.random(owner.size)
    # math.exp, not np.exp, whose rounding may differ between builds
    p = np.array([math.exp(-x) for x in leaf])[owner]
    cdf = p.copy()
    mean = leaf[owner]
    # mean + 40*sqrt(mean) standard deviations is unreachable in double precision
    kmax = (mean + 40.0 * np.sqrt(mean) + 50.0).astype(np.int64)
    k = np.zeros(owner.size, dtype=np.int64)
    ratio = np.empty_like(p)
    on = u > cdf
    while on.any():  # p *= mean / k; cdf += p, on the leaves still searching
        k += on
        np.divide(mean, k, out=ratio, where=on)
        np.multiply(p, ratio, out=p, where=on)
        np.add(cdf, p, out=cdf, where=on)
        on &= (u > cdf) & (k < kmax)
    counts = np.bincount(owner, weights=k, minlength=leaf.size)
    return counts.astype(np.int64).reshape(lam.shape)


# ---------------------------------------------------------------------------
# Problem container
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class Problem:
    """m local objectives f_i over a shared domain, f = (1/m) sum_i f_i.

    Each family is a subclass that holds its data as arrays stacked along a
    leading agent axis, reads ``m`` and ``d`` from them, and provides two
    oracles: ``_values(x)``, the m local values, (..., m), and
    ``_grads(x)``, the m local gradients, (..., m, d), at a point x (d,) or
    at points (..., 1, d), whose agent axis of one broadcasts against the
    agents.  ``grads_rowwise(X)`` is agent i's gradient at row i of X,
    (m, d): ``_grads(X)`` unless a family overrides it.  X may carry
    leading axes, (..., m, d), one per stacked batch of cells.  Every point
    and every (m, d) block of a stacked call rounds as its own call.
    ``value`` and ``grad`` add the agents in order, from agent 0, and then
    divide by m: recorded CSVs are byte-checked, and a vectorized mean
    would round differently.  ``value_and_grad`` returns the bits of both
    from one ``_values_and_grads`` pass, which families that read x through
    a design product override to form that product once.  It also takes
    points (..., d), each rounding as its own call.
    ``permuted`` reindexes the arrays named in ``_stacked``.
    """

    name: str
    domain: domains.Domain
    f_lower: float = 0.0
    x_true: np.ndarray = None
    meta: dict = field(default_factory=dict)
    m: int = field(init=False)
    d: int = field(init=False)

    _stacked = ()

    def value(self, x) -> float:
        return self._mean_value(self._values(np.asarray(x, dtype=float)))

    def grad(self, x) -> np.ndarray:
        return self._mean_grad(self._grads(np.asarray(x, dtype=float)))

    def value_and_grad(self, x):
        """``(value(x), grad(x))``, bit for bit, from one
        ``_values_and_grads`` call; at points (..., d), the values (...,)
        and gradients (..., d) of every point."""
        x = np.asarray(x, dtype=float)
        vals, G = self._values_and_grads(x if x.ndim == 1 else x[..., None, :])
        return self._mean_value(vals), self._mean_grad(G)

    def _values_and_grads(self, x):
        return self._values(x), self._grads(x)

    def grads_rowwise(self, X):
        return self._grads(X)

    def _mean_value(self, vals):
        """Mean over the last (agent) axis, the agents added in order from
        0 as Python's ``sum`` adds them; a float at one point.  A numpy
        reduction along a lone contiguous axis adds pairwise."""
        total = 0 + vals[..., 0]
        for i in range(1, self.m):
            total = total + vals[..., i]
        total = total / self.m
        return float(total) if np.ndim(total) == 0 else total

    def _mean_grad(self, G) -> np.ndarray:
        """Mean over the agent axis of G (..., m, d), added in order."""
        g = G[..., 0, :].copy()
        for i in range(1, self.m):
            g += G[..., i, :]
        return g / self.m

    def permuted(self, perm) -> "Problem":
        """Same problem with agents relabelled by the permutation."""
        return replace(self, **{k: getattr(self, k)[perm]
                                for k in self._stacked})


# ---------------------------------------------------------------------------
# Quadratic consensus (test problem)
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class Quadratic(Problem):
    """f_i(x) = (x - c_i)' Q_i (x - c_i) / 2; ``Q`` (m, d, d), ``c`` (m, d)."""

    Q: np.ndarray
    c: np.ndarray
    _stacked = ("Q", "c")

    def __post_init__(self):
        self.m, self.d = self.c.shape

    def _values(self, x):
        # per-agent (1, d) products round like agent i's r @ Q_i @ r
        r = (x - self.c)[..., None, :]
        return 0.5 * ((r @ self.Q) @ np.swapaxes(r, -1, -2))[..., 0, 0]

    def _grads(self, x):
        return (self.Q @ (x - self.c)[..., None])[..., 0]


def quadratic_consensus(d, m, seed=0, cond=10.0) -> Problem:
    """Strongly convex quadratics with distinct centers; exact L and f*."""
    rng = np.random.default_rng(seed)
    Q = np.empty((m, d, d))
    c = np.empty((m, d))
    for i in range(m):
        U, _ = np.linalg.qr(rng.standard_normal((d, d)))
        vals = np.exp(rng.uniform(0.0, np.log(cond), d))
        Qi = (U * vals) @ U.T
        Q[i] = 0.5 * (Qi + Qi.T)
        c[i] = rng.standard_normal(d)
    Qbar = sum(Q) / m
    rhs = sum((Q @ c[..., None])[..., 0]) / m
    x_star = np.linalg.solve(Qbar, rhs)
    prob = Quadratic(name="quadratic", domain=domains.reals(d), x_true=x_star,
                     Q=Q, c=c)
    prob.f_lower = prob.value(x_star)
    prob.meta["L_exact"] = float(max(np.linalg.norm(Qi, 2) for Qi in Q))
    return prob


# ---------------------------------------------------------------------------
# Entropy-matched test problem (Boltzmann-Shannon geometry)
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class Entropy(Problem):
    """f_i(x) = c_i sum(x log x - x) + a_i.x, whose Hessian is exactly
    c_i diag(1/x); ``c`` (m,), ``a`` (m, d)."""

    c: np.ndarray
    a: np.ndarray
    _stacked = ("c", "a")

    def __post_init__(self):
        self.m, self.d = self.a.shape

    def _values(self, x):
        # a (1, d) @ (d, 1) product per agent rounds like a_i @ x
        return (self.c * np.sum(x * np.log(x) - x, axis=-1)
                + (self.a[:, None, :] @ x[..., None])[..., 0, 0])

    def _grads(self, x):
        return self.c[:, None] * np.log(x) + self.a


def entropy_consensus(d, m, seed=0) -> Problem:
    """Orthant problem exactly smooth relative to Boltzmann-Shannon."""
    rng = np.random.default_rng(seed)
    cs = rng.uniform(0.5, 2.0, m)
    As = rng.uniform(0.0, 1.0, (m, d))
    cbar = float(np.mean(cs))
    abar = As.mean(axis=0)
    # coordinatewise minimum of cbar*(t log t - t) + abar_j t is -cbar*exp(-abar_j/cbar)
    f_lower = float(-cbar * np.sum(np.exp(-abar / cbar)))
    prob = Entropy(name="entropy", domain=domains.orthant(d), f_lower=f_lower,
                   c=cs, a=As)
    prob.meta["L_exact"] = float(np.max(cs))
    return prob


# ---------------------------------------------------------------------------
# Families that read x only through A_i x
# ---------------------------------------------------------------------------


@dataclass(kw_only=True)
class Design(Problem):
    """Designs ``A`` (m, n, d), one sensing vector per row, and
    observations ``b`` (m, n).

    ``_values`` and ``_grads`` round exactly like agent i's own products
    ``A_i @ x`` and ``A_i.T @ w``; they are ``_values_at`` and ``_grads_at``
    of the stacked product ``A @ x`` (m, n), which ``_values_and_grads``
    forms once for both.  ``_grads_at(ax, AT)`` takes the ``A^T`` product
    as an argument, so ``grads_rowwise`` shares its formula while keeping
    the two einsums that the reference CSVs were recorded with.  (The
    class is public so that perfbench's tracer, which skips ``_`` names,
    times ``grads_rowwise``.)
    """

    A: np.ndarray
    b: np.ndarray
    _stacked = ("A", "b")

    def __post_init__(self):
        self.m, _, self.d = self.A.shape

    def _values(self, x):
        return self._values_at(self._design(x))

    def _grads(self, x):
        return self._grads_at(self._design(x), self._AT_dot)

    def _values_and_grads(self, x):
        ax = self._design(x)
        return self._values_at(ax), self._grads_at(ax, self._AT_dot)

    def grads_rowwise(self, X):
        ax = np.einsum("mnd,...md->...mn", self.A, X)
        return self._grads_at(
            ax, lambda W: np.einsum("mnd,...mn->...md", self.A, W))

    def _design(self, x):
        """A_i x for every agent, (..., m, n): an (n, d) @ (d, 1) product
        per agent and point, which rounds like ``A_i @ x``."""
        return (self.A @ x[..., None])[..., 0]

    def _AT_dot(self, W):
        """A_i^T w_i for every agent, stacked (m, d)."""
        return (self.A.transpose(0, 2, 1) @ W[..., None])[..., 0]


class PhaseRetrieval(Design):
    """f_i(x) = (1/n) sum_l (b_il - <a_il, x>^2)^2."""

    def _values_at(self, ax):
        r = self.b - ax ** 2
        return np.sum(r * r, axis=-1) / self.A.shape[1]

    def _grads_at(self, ax, AT):
        r = self.b - ax * ax
        return (-4.0 / self.A.shape[1]) * AT(r * ax)


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
    return PhaseRetrieval(name="phase_retrieval", domain=domains.reals(d),
                          f_lower=0.0, x_true=x_true, A=np.stack(As),
                          b=np.stack(bs))


_KL_FLOOR = 1e-300


def _kl_rows(b, ax):
    """Generalized KL divergence of ``b`` from ``ax``, summed over the last
    axis; each row adds pairwise, as a contiguous row does, whatever the
    layout of ``ax``."""
    ax = np.maximum(ax, _KL_FLOOR)
    terms = np.where(b > 0, b * np.log(np.maximum(b, _KL_FLOOR) / ax) - b, 0.0)
    return np.ascontiguousarray(terms + ax).sum(axis=-1)


class Poisson(Design):
    """f_i(x) = KL(b_i, A_i x), the generalized Kullback-Leibler divergence."""

    def _values_at(self, ax):
        return _kl_rows(self.b, ax)

    def _grads_at(self, ax, AT):
        # AT(1 - b / max(ax, floor)), its temporaries in one buffer
        w = np.maximum(ax, _KL_FLOOR)
        np.divide(self.b, w, out=w)
        np.subtract(1.0, w, out=w)
        return AT(w)


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
    prob = Poisson(name="poisson_inverse", domain=domains.orthant(d),
                   f_lower=0.0, x_true=x_true, A=np.stack(As), b=np.stack(bs))
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


def blur_entries(d_img, length, angle):
    """Entries ``(rows, cols, vals)`` of the motion-blur convolution with
    replicate padding, acting on row-major flattened d_img x d_img images,
    in the order of a loop over pixels, then over the nonzero stencil
    entries row by row.  Clipping at the border repeats (row, col) pairs."""
    K = _line_stencil(length, angle)
    r = K.shape[0] // 2
    di, dj = np.nonzero(K)
    n = d_img * d_img
    p, q = np.divmod(np.arange(n), d_img)
    ii = np.clip(p[:, None] + (di - r), 0, d_img - 1)
    jj = np.clip(q[:, None] + (dj - r), 0, d_img - 1)
    return (np.repeat(np.arange(n), len(di)), (ii * d_img + jj).ravel(),
            np.tile(K[di, dj], n))


def row_layout(rows, cols, vals, n):
    """Gather layout ``(idx, w)``, (s, n), of the n x n matrix with entries
    ``vals`` at ``(rows, cols)``: row p of a product is the sum over slots k
    of ``w[k, p] * v[idx[k, p]]``, its columns in increasing order, then
    padding of zero weight at index p.  Repeated (row, col) entries are
    added in their given order, as CSR's ``sum_duplicates`` adds them."""
    order = np.argsort(rows * n + cols, kind="stable")
    rows, cols = rows[order], cols[order]
    first = np.ones(len(rows), dtype=bool)
    first[1:] = (rows[1:] != rows[:-1]) | (cols[1:] != cols[:-1])
    merged = np.zeros(np.count_nonzero(first))
    np.add.at(merged, np.cumsum(first) - 1, vals[order])  # from 0.0
    rows, cols = rows[first], cols[first]
    counts = np.bincount(rows, minlength=n)
    slot = np.arange(len(rows)) - (np.cumsum(counts) - counts)[rows]
    idx = np.tile(np.arange(n), (counts.max(), 1))
    w = np.zeros(idx.shape)
    idx[slot, rows] = cols
    w[slot, rows] = merged
    return idx, w


def transposed_layout(layout):
    """The :func:`row_layout` of the transpose of a layout's matrix, whose
    entries are the layout's nonzero weights."""
    idx, w = layout
    row, slot = np.nonzero(w.T)  # in row order, which the sort keeps
    return row_layout(idx[slot, row], row, w[slot, row], w.shape[1])


def _block_diagonal(layouts):
    """The layout (s, m n) of the block diagonal of m layouts (s_i, n),
    each one's indices shifted into its block and its rows padded to s
    slots as :func:`row_layout` pads them."""
    s, n = max(len(idx) for idx, _ in layouts), layouts[0][0].shape[1]
    idx = np.tile(np.arange(len(layouts) * n), (s, 1))
    w = np.zeros(idx.shape)
    for i, (ix, wi) in enumerate(layouts):
        idx[:len(ix), i * n:(i + 1) * n] = ix + i * n
        w[:len(wi), i * n:(i + 1) * n] = wi
    return idx, w


def _gather(layout, V):
    """The product of a layout with each vector of V (..., n): slot by
    slot, from 0.0, as a CSR row product adds its columns (a sum over a
    leading axis adds in order)."""
    idx, w = layout
    terms = np.take(V, idx, axis=-1)
    terms *= w
    return terms.sum(axis=-2)


def tv_value(X, eps=EPS_TV) -> float:
    """Smoothed isotropic TV with replicate boundary differences."""
    return float(_tv_values(X, eps))


def _tv_values(X, eps=EPS_TV):
    """:func:`tv_value` of each image in the last two axes."""
    dv = np.diff(X, axis=-2, append=X[..., -1:, :])
    dh = np.diff(X, axis=-1, append=X[..., :, -1:])
    s = np.sqrt(dv * dv + dh * dh + eps * eps)
    return s.reshape(s.shape[:-2] + (-1,)).sum(axis=-1)


def tv_grad(X, eps=EPS_TV) -> np.ndarray:
    """Gradient of :func:`tv_value` of each image in the last two axes."""
    dv = np.diff(X, axis=-2, append=X[..., -1:, :])
    dh = np.diff(X, axis=-1, append=X[..., :, -1:])
    s = np.sqrt(dv * dv + dh * dh + eps * eps)
    gv = dv / s
    gh = dh / s
    g = -gv - gh
    g[..., 1:, :] += gv[..., :-1, :]
    g[..., :, 1:] += gh[..., :, :-1]
    return g


@dataclass(kw_only=True)
class TVDeblur(Problem):
    """f_i(x) = KL(b_i, A_i x) + lam TV(x) on a d_img x d_img image, ``b``
    (m, d).  ``A`` is the :func:`row_layout` (s, m d) of the block diagonal
    of the m blur matrices, which acts on the agents' flattened points, and
    ``AT`` is the layout of its transpose.  ``_values_at`` and
    ``_grads_at`` take the forward product and the images of ``_forward``,
    which ``_values_and_grads`` forms once for both."""

    A: tuple
    AT: tuple
    b: np.ndarray
    lam: float
    d_img: int = field(init=False)

    def __post_init__(self):
        self.m, self.d = self.b.shape
        self.d_img = math.isqrt(self.d)

    def _blocks(self, layout, X):
        """The layout's product with X (..., m, d), agent by agent; a
        shared x (d,) or (..., 1, d) serves all."""
        lead = X.shape[:-2]
        flat = np.broadcast_to(X, lead + self.b.shape).reshape(lead + (-1,))
        return _gather(layout, flat).reshape(lead + self.b.shape)

    def _values(self, x):
        return self._values_at(*self._forward(x))

    def _grads(self, X):
        return self._grads_at(*self._forward(X))

    def _values_and_grads(self, x):
        ax, images = self._forward(x)
        return self._values_at(ax, images), self._grads_at(ax, images)

    def _forward(self, X):
        """The blurred points A X (..., m, d) and the images of X."""
        return (self._blocks(self.A, X),
                X.reshape(X.shape[:-1] + (self.d_img, self.d_img)))

    def _values_at(self, ax, images):
        return _kl_rows(self.b, ax) + self.lam * _tv_values(images)

    def _grads_at(self, ax, images):
        g = self._blocks(self.AT, 1.0 - self.b / np.maximum(ax, _KL_FLOOR))
        tv = tv_grad(images).reshape(images.shape[:-2] + (self.d,))
        return g + self.lam * tv

    def permuted(self, perm):
        perm = np.asarray(perm)
        cols = (perm[:, None] * self.d + np.arange(self.d)).ravel()
        # each index moves with its agent's block
        shift = np.repeat((np.arange(self.m) - perm) * self.d, self.d)
        return replace(self, b=self.b[perm], **{
            k: (idx[:, cols] + shift, w[:, cols])
            for k, (idx, w) in (("A", self.A), ("AT", self.AT))})


def tv_deblur(d_img, m, blur_len=5, alpha=10.0, lambda_tv=1e-4, seed=0) -> Problem:
    """Poisson deblurring of a synthetic phantom with a smoothed TV penalty.

    Each agent observes the phantom through a motion blur at one of eight
    angles (indexed by agent id modulo 8), corrupted by scaled Poisson noise
    B ~ Poisson(alpha * A(X)) / alpha.
    """
    if d_img < 4:
        raise ValueError("need d_img >= 4")
    rng = np.random.default_rng(seed)
    x_true = phantom_image(d_img).ravel()
    n = d_img * d_img
    # agents i and i + 8 share an angle, so each distinct layout is built once
    by_angle = [row_layout(*blur_entries(d_img, blur_len, k * math.pi / 8.0), n)
                for k in range(min(m, 8))]
    T_by_angle = [transposed_layout(layout) for layout in by_angle]
    A = _block_diagonal([by_angle[i % 8] for i in range(m)])
    AT = _block_diagonal([T_by_angle[i % 8] for i in range(m)])
    lam_img = alpha * _gather(A, np.tile(x_true, m)).reshape(m, n)
    b = np.stack([poisson_sample(rng, lam) for lam in lam_img])
    return TVDeblur(
        name="tv_deblur", domain=domains.orthant(n), f_lower=0.0,
        x_true=x_true,
        meta={"alpha": alpha, "lambda_tv": lambda_tv, "blur_len": blur_len},
        A=A, AT=AT, b=b.astype(float) / alpha,
        lam=lambda_tv,
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
        eps = domains.safe_eps(prob.domain, x, base=1e-5)
        denom = float(kernel.hess_apply(x, v) @ v)
        HV = (prob._grads(x + eps * v)
              - prob._grads(x - eps * v)) / (2.0 * eps)
        for hvp in HV:  # one dot per agent: a stacked HV @ v rounds differently
            ratio_max = max(ratio_max, abs(float(hvp @ v)) / denom)
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
