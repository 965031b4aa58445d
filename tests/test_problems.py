import math

import numpy as np
import pytest
import scipy.sparse

from conftest import fd_gradient, safe_eps
import oracles
from dualmix import domains, kernels, problems


def _check_gradients(prob, n_pts=100, tol=1e-6, seed=0):
    rng = np.random.default_rng(seed)
    X = prob.domain.sample_interior(rng, n_pts)
    worst = 0.0
    for i in range(n_pts):
        x = X[i]
        eps = safe_eps(prob.domain, x)
        g = prob.grad(x)
        gf = fd_gradient(prob.value, x, eps)
        worst = max(worst, float(np.max(np.abs(g - gf)))
                    / (1.0 + float(np.max(np.abs(g)))))
    assert worst <= tol, worst


# ---------------------------------------------------------------------------
# Phase retrieval
# ---------------------------------------------------------------------------


def test_phase_retrieval_interpolation():
    prob = problems.phase_retrieval(d=6, n=10, m=4, noise_sd=0.0, seed=3)
    assert prob.value(prob.x_true) == pytest.approx(0.0, abs=1e-20)
    np.testing.assert_allclose(prob.grad(prob.x_true), 0.0, atol=1e-12)


def test_phase_retrieval_hand_case():
    # d=1, n=1, a=1, b=1, x=0: f = (1-0)^2 = 1, grad = -4(1-0)*0*1 = 0
    prob = problems.PhaseRetrieval(name="phase_retrieval",
                                   domain=domains.reals(1),
                                   A=np.array([[[1.0]]]), b=np.array([[1.0]]))
    x = np.array([0.0])
    assert prob.value(x) == pytest.approx(1.0)
    assert prob.grad(x) == pytest.approx(0.0)


def test_phase_retrieval_gradients():
    _check_gradients(problems.phase_retrieval(d=8, n=12, m=3, noise_sd=0.1,
                                              seed=1))


# ---------------------------------------------------------------------------
# Poisson inverse
# ---------------------------------------------------------------------------


def test_poisson_perfect_fit_is_stationary():
    data = problems.poisson_inverse(d=5, n=8, m=2, seed=0)
    x = np.abs(np.random.default_rng(1).standard_normal(5)) + 0.5
    A = data.A[:1]
    prob = problems.Poisson(name="poisson_inverse", domain=data.domain, A=A,
                            b=A @ x)  # exact fit
    assert prob.value(x) == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(prob.grad(x), 0.0, atol=1e-10)


def test_poisson_hand_case():
    # d=1, n=1, A=1, b=0, x=1: f = 0 - 0 + 1, grad = 1 (0 log 0 := 0)
    prob = problems.Poisson(name="poisson_inverse", domain=domains.orthant(1),
                            A=np.array([[[1.0]]]), b=np.array([[0.0]]))
    x = np.array([1.0])
    assert prob.value(x) == pytest.approx(1.0)
    assert prob.grad(x) == pytest.approx(1.0)


def test_poisson_gradients_and_nonnegativity():
    prob = problems.poisson_inverse(d=8, n=10, m=3, seed=2)
    _check_gradients(prob)
    rng = np.random.default_rng(5)
    X = prob.domain.sample_interior(rng, 50)
    assert all(prob.value(X[i]) >= 0.0 for i in range(50))


def test_poisson_design_has_no_zero_rows():
    prob = problems.poisson_inverse(d=4, n=30, m=5, seed=9)
    for A in prob.A:
        assert np.all(A.sum(axis=1) > 0)
        assert np.all(A >= 0)


def test_poisson_batch_grad_matches_local_grads():
    prob = problems.poisson_inverse(d=7, n=6, m=4, seed=4)
    X = prob.domain.sample_interior(np.random.default_rng(0), 4)
    np.testing.assert_allclose(
        prob.grads_rowwise(X),
        np.stack([_local(prob, i, X[i])[1] for i in range(4)]),
        rtol=1e-12)


def _kl_local(A, b, x):
    """Generalized KL divergence of b from A x and its gradient."""
    ax = np.maximum(A @ x, 1e-300)
    terms = np.where(b > 0, b * np.log(np.maximum(b, 1e-300) / ax) - b, 0.0)
    return float(np.sum(terms + ax)), A.T @ (1.0 - b / ax)


def _layout_csr(layout):
    """The scipy CSR matrix that a :func:`problems.row_layout` holds: its
    products add the same terms in the same order as the layout's, and
    those of its transpose as the transposed layout's."""
    idx, w = layout
    slot, row = np.nonzero(w)
    return scipy.sparse.csr_matrix((w[slot, row], (row, idx[slot, row])),
                                   shape=(w.shape[1], w.shape[1]))


def _spd(d, seed=0):
    B = np.random.default_rng(seed).standard_normal((d, d))
    return B @ B.T / d + np.eye(d)


def _local(prob, i, x):
    """f_i(x) and grad f_i(x), written out for agent i from its family's
    formula and its slice of the stacked data."""
    if prob.name == "quadratic":
        r = x - prob.c[i]
        return 0.5 * float(r @ prob.Q[i] @ r), prob.Q[i] @ r
    if prob.name == "entropy":
        return (prob.c[i] * float(np.sum(x * np.log(x) - x))
                + float(prob.a[i] @ x), prob.c[i] * np.log(x) + prob.a[i])
    if prob.name == "phase_retrieval":
        A, b = prob.A[i], prob.b[i]
        ax = A @ x
        r = b - ax * ax
        return (float(np.sum(r * r)) / len(b),
                (-4.0 / len(b)) * (A.T @ (r * ax)))
    if prob.name == "poisson_inverse":
        return _kl_local(prob.A[i], prob.b[i], x)
    assert prob.name == "tv_deblur"
    value, g = _kl_local(_layout_csr(prob.A[prob.angle[i]]), prob.b[i], x)
    image = x.reshape(prob.d_img, prob.d_img)
    return (value + prob.lam * oracles.tv_value(image),
            g + prob.lam * problems.tv_grad(image).ravel())


# more than 8 agents: there numpy's pairwise sum over the agent axis would
# differ from the agent-order sum, so a vectorized mean is caught
_STACKED_FAMILIES = {
    "quadratic": lambda seed: problems.quadratic_consensus(d=6, m=9, seed=seed),
    "entropy": lambda seed: problems.entropy_consensus(d=12, m=10, seed=seed),
    "poisson": lambda seed: problems.poisson_inverse(d=30, n=12, m=9, seed=seed),
    "phase_retrieval": lambda seed: problems.phase_retrieval(
        d=20, n=15, m=10, noise_sd=0.1, seed=seed),
    "tv_deblur": lambda seed: problems.tv_deblur(d_img=5, m=9, blur_len=3,
                                                 seed=seed),
}
# grads_rowwise of these two is an einsum over the stacks, which rounds
# differently from agent i's matrix-vector products
_ROWWISE_RTOL = {"poisson": 1e-12, "phase_retrieval": 1e-12}


def _agent_loop(prob, x):
    """f(x) and grad f(x) accumulated agent by agent from :func:`_local`."""
    terms = [_local(prob, i, x) for i in range(prob.m)]
    value = float(sum(v for v, _ in terms) / prob.m)
    g = terms[0][1].astype(float, copy=True)
    for _, gi in terms[1:]:
        g += gi
    return value, g / prob.m


def _check_rowwise(family, got, expected):
    if family in _ROWWISE_RTOL:
        np.testing.assert_allclose(got, expected, rtol=_ROWWISE_RTOL[family])
    else:
        assert np.array_equal(got, expected)


@pytest.mark.parametrize("family", sorted(_STACKED_FAMILIES))
def test_stacked_value_grad_equal_agent_loop_bitwise(family):
    # the recorder's f(xbar) and stationarity go into byte-checked CSVs, so
    # the stacked evaluation must reproduce the per-agent loop exactly
    for seed in (1, 2, 3):
        prob = _STACKED_FAMILIES[family](seed)
        X = prob.domain.sample_interior(np.random.default_rng(seed), 40)
        for x in X:
            value, g = _agent_loop(prob, x)
            assert prob.value(x) == value
            assert np.array_equal(prob.grad(x), g)
            # the recorder's one-pass pair must carry the same bits
            f_pair, g_pair = prob.value_and_grad(x)
            assert f_pair == value and type(f_pair) is float
            assert np.array_equal(g_pair, g)
        _check_rowwise(family, prob.grads_rowwise(X[:prob.m]),
                       np.stack([_local(prob, i, X[i])[1]
                                 for i in range(prob.m)]))


@pytest.mark.parametrize("family", sorted(_STACKED_FAMILIES))
def test_value_and_grad_at_stacked_points_equals_each_point_bitwise(family):
    # the recorder evaluates a chunk of K states' xbar in one call, and each
    # row must keep the bits of its own call; K = 1 included, where a
    # numpy mean over the agent axis would add pairwise
    prob = _STACKED_FAMILIES[family](3)
    rng = np.random.default_rng(11)
    for K in (1, 2, 17):
        X = prob.domain.sample_interior(rng, K)
        f, g = prob.value_and_grad(X)
        assert f.shape == (K,) and g.shape == (K, prob.d)
        for k in range(K):
            fk, gk = prob.value_and_grad(X[k])
            assert f[k] == fk and g[k].tobytes() == gk.tobytes(), (K, k)


@pytest.mark.parametrize("family", ["poisson", "phase_retrieval"])
def test_design_product_per_point_is_the_matrix_vector_product(family):
    # one (n, d) @ (d, 1) product per agent and point rounds like A_i @ x
    prob = _STACKED_FAMILIES[family](1)
    X = prob.domain.sample_interior(np.random.default_rng(5), 40)
    stacked = prob._design(X[:, None, :])
    for k, x in enumerate(X):
        assert stacked[k].tobytes() == (prob.A @ x).tobytes()
        assert prob._design(x).tobytes() == (prob.A @ x).tobytes()


@pytest.mark.parametrize("family", sorted(_STACKED_FAMILIES))
def test_grads_rowwise_batch_equals_each_block_bitwise(family):
    # the batched engine stacks B cells as (B, m, d); each cell's gradients
    # must not depend on B
    prob = _STACKED_FAMILIES[family](2)
    rng = np.random.default_rng(7)
    for B in (1, 3, 20):
        Xb = prob.domain.sample_interior(rng, B * prob.m).reshape(
            B, prob.m, prob.d)
        got = prob.grads_rowwise(Xb)
        assert got.shape == Xb.shape
        for b in range(B):
            assert got[b].tobytes() == prob.grads_rowwise(Xb[b]).tobytes(), \
                (B, b)


@pytest.mark.parametrize("family", sorted(_STACKED_FAMILIES))
def test_permuted_stacked_problem_follows_permutation(family):
    prob = _STACKED_FAMILIES[family](1)
    perm = [3, 0, 4, 1, 2] + list(range(5, prob.m))
    p = prob.permuted(perm)
    assert (p.m, p.d) == (prob.m, prob.d)
    X = prob.domain.sample_interior(np.random.default_rng(5), prob.m)
    for i, j in enumerate(perm):
        value, g = _local(p, i, X[i])
        value_j, g_j = _local(prob, j, X[i])
        assert value == value_j
        assert np.array_equal(g, g_j)
    _check_rowwise(family, p.grads_rowwise(X),
                   np.stack([_local(prob, j, X[i])[1]
                             for i, j in enumerate(perm)]))
    for x in X:
        value, g = _agent_loop(p, x)
        assert p.value(x) == value
        assert np.array_equal(p.grad(x), g)
        assert p.value(x) == pytest.approx(prob.value(x), rel=1e-12)


def test_estimate_rel_smoothness_is_the_per_agent_loop_bitwise():
    # each agent's ratio takes its own 1-D dot hv_i @ v; a stacked HV @ v
    # rounds differently, and the estimated L feeds the recorded E, M and G.
    # The quartic kernel's hess_apply is radial, not a diagonal product.
    cases = [
        (problems.poisson_inverse(d=40, n=10, m=8, seed=1), kernels.burg),
        (problems.phase_retrieval(d=12, n=10, m=9, noise_sd=0.1, seed=2),
         kernels.quartic),
        (problems.tv_deblur(d_img=5, m=3, seed=1), kernels.burg),
        # a dense preconditioner, whose hess_apply on stacked rows is a
        # matrix product that rounds unlike the product with one row
        (problems.phase_retrieval(d=24, n=10, m=9, noise_sd=0.1, seed=2),
         lambda d: kernels.euclidean(d, A=_spd(d))),
    ]
    for prob, kernel in cases:
        k = kernel(prob.d)
        for seed in (1, 2, 3):
            rng = np.random.default_rng(seed)
            X = k.sample_interior(rng, 20)
            ratio_max = 0.0
            for x in X:
                assert prob.domain.is_interior(x)
                v = rng.standard_normal(prob.d)
                v /= np.linalg.norm(v)
                eps = safe_eps(prob.domain, x, base=1e-5)
                denom = float(k.hess_apply(x, v) @ v)
                for i in range(prob.m):
                    hvp = (_local(prob, i, x + eps * v)[1]
                           - _local(prob, i, x - eps * v)[1]) / (2.0 * eps)
                    ratio_max = max(ratio_max, abs(float(hvp @ v)) / denom)
            assert problems.estimate_rel_smoothness(
                prob, k, n_samples=20, seed=seed) == 1.2 * ratio_max


# ---------------------------------------------------------------------------
# Poisson sampling
# ---------------------------------------------------------------------------


def test_poisson_sampler_moments():
    rng = np.random.default_rng(0)
    for lam in (0.5, 7.0, 29.9, 85.0, 1300.0):
        draws = problems.poisson_sample(rng, np.full(4000, lam))
        mean = draws.mean()
        var = draws.var()
        assert mean == pytest.approx(lam, rel=0.05)
        assert var == pytest.approx(lam, rel=0.15)


def test_poisson_sampler_deterministic():
    a = problems.poisson_sample(np.random.default_rng(42), np.full(100, 50.0))
    b = problems.poisson_sample(np.random.default_rng(42), np.full(100, 50.0))
    assert np.array_equal(a, b)
    assert problems.poisson_sample(np.random.default_rng(0),
                                   np.zeros(3)).tolist() == [0, 0, 0]


def test_poisson_sampler_exact_pmf_small_mean():
    # inverse transform must reproduce the exact pmf; chi-square-ish check
    lam = 3.0
    draws = problems.poisson_sample(np.random.default_rng(7),
                                    np.full(20000, lam))
    for k in range(6):
        p_emp = np.mean(draws == k)
        p_true = math.exp(-lam) * lam**k / math.factorial(k)
        assert p_emp == pytest.approx(p_true, abs=0.012)


def _scalar_inverse_transform(rng, lam):
    u = rng.random()
    p = math.exp(-lam)
    cdf = p
    k = 0
    kmax = int(lam + 40.0 * math.sqrt(lam) + 50.0)
    while u > cdf and k < kmax:
        k += 1
        p *= lam / k
        cdf += p
    return k


def _scalar_poisson_sample(rng, lam):
    """The one-draw-at-a-time sampler that ``poisson_sample`` vectorizes:
    a mean of 30 or more splits into two halves, and a smaller positive
    one takes one uniform and a sequential search of its CDF."""
    lam = np.asarray(lam, dtype=float)
    out = np.empty(lam.shape, dtype=np.int64)
    res = out.ravel()
    for idx, lam_i in enumerate(lam.ravel()):
        total = 0
        stack = [float(lam_i)]
        while stack:
            cur = stack.pop()
            if cur == 0.0:
                continue
            if cur < 30.0:
                total += _scalar_inverse_transform(rng, cur)
            else:
                stack.append(0.5 * cur)
                stack.append(0.5 * cur)
        res[idx] = total
    return out


@pytest.mark.parametrize("seed", range(6))
def test_poisson_sampler_is_the_scalar_sampler_bitwise(seed):
    # the same counts from the same uniforms, which leave the generator at
    # the same place
    means = [np.linspace(0.0, 3000.0, 301), np.array([0.0, 29.999, 30.0, 1e-300]),
             np.array(7.5), 2550.0 * problems.phantom_image(32) / 255.0]
    for lam in means:
        a, b = np.random.default_rng(seed), np.random.default_rng(seed)
        got, want = problems.poisson_sample(a, lam), _scalar_poisson_sample(b, lam)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert np.array_equal(got, want)
        assert a.random() == b.random()


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_poisson_sampler_rejects_a_bad_mean(lam):
    with pytest.raises(ValueError):
        problems.poisson_sample(np.random.default_rng(0), [1.0, lam])


@pytest.mark.parametrize("seed", [0, 1, 5])
def test_poisson_data_is_the_scalar_samplers_bitwise(seed, monkeypatch):
    built = [problems.poisson_inverse(d=30, n=20, m=3, seed=seed),
             problems.tv_deblur(d_img=8, m=3, seed=seed)]
    monkeypatch.setattr(problems, "poisson_sample", _scalar_poisson_sample)
    want = [problems.poisson_inverse(d=30, n=20, m=3, seed=seed),
            problems.tv_deblur(d_img=8, m=3, seed=seed)]
    assert np.array_equal(built[0].A, want[0].A)
    for got, ref in zip(built[1].A + built[1].AT, want[1].A + want[1].AT):
        assert np.array_equal(got, ref)
    for got, ref in zip(built, want):
        assert got.b.tobytes() == ref.b.tobytes()


# ---------------------------------------------------------------------------
# TV deblurring
# ---------------------------------------------------------------------------


def test_tv_constant_image_collapses_to_eps():
    X = np.full((6, 6), 3.0)
    assert oracles.tv_value(X) == pytest.approx(36 * problems.EPS_TV)


def test_tv_gradient_matches_fd():
    rng = np.random.default_rng(3)
    X = rng.random((5, 5)) * 10 + 1
    g = problems.tv_grad(X)
    eps = 1e-6
    for idx in [(0, 0), (2, 3), (4, 4), (1, 1)]:
        E = np.zeros_like(X)
        E[idx] = eps
        fd = (oracles.tv_value(X + E) - oracles.tv_value(X - E)) / (2 * eps)
        assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_tv_deblur_perfect_fit():
    data = problems.tv_deblur(d_img=6, m=2, blur_len=3, lambda_tv=0.0, seed=0)
    # agent 0 alone, with its angle's layouts
    prob = problems.TVDeblur(name="tv_deblur", domain=data.domain,
                             A=data.A[:1], AT=data.AT[:1],
                             angle=np.zeros(1, dtype=int),
                             b=(_layout_csr(data.A[0]) @ data.x_true)[None],
                             lam=0.0)
    assert prob.value(data.x_true) == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(prob.grad(data.x_true), 0.0, atol=1e-9)


def test_tv_deblur_gradients():
    prob = problems.tv_deblur(d_img=8, m=3, blur_len=4, seed=1)
    rng = np.random.default_rng(11)
    X = rng.random((5, prob.d)) * 200 + 5
    worst = 0.0
    for i in range(5):
        x = X[i]
        g = prob.grad(x)
        gf = fd_gradient(prob.value, x, 1e-4)
        worst = max(worst, float(np.max(np.abs(g - gf)))
                    / (1.0 + float(np.max(np.abs(g)))))
    assert worst <= 1e-5


def test_tv_deblur_value_and_grad_blurs_forward_once(monkeypatch):
    # one forward product serves the value and the gradient, then one
    # transpose product
    prob = problems.tv_deblur(d_img=4, m=3, blur_len=3, seed=0)
    layouts, blocks = [], prob._blocks

    def counted(layout, X):
        layouts.append("A" if layout is prob.A else "AT")
        return blocks(layout, X)

    monkeypatch.setattr(prob, "_blocks", counted)
    for x in (np.full(prob.d, 0.5), np.full((5, prob.d), 0.5)):
        layouts.clear()
        prob.value_and_grad(x)
        assert layouts == ["A", "AT"]


def test_blur_matrix_is_stochastic_nonnegative():
    layout = problems.row_layout(*problems.blur_entries(6, 4, 0.3), 36)
    idx, w = layout
    assert idx.shape == w.shape and idx.shape[1] == 36
    assert w.min() >= 0 and idx.min() >= 0 and idx.max() < 36
    # padding, zero weights after the last entry, points at the row itself
    pad = np.cumsum(w[::-1] > 0, axis=0)[::-1] == 0
    assert (idx == np.arange(36))[pad].all()
    np.testing.assert_allclose(w.sum(axis=0), 1.0, rtol=1e-12)
    # replicate padding preserves constants
    np.testing.assert_allclose(problems._gather(layout, np.ones(36)),
                               np.ones(36), rtol=1e-12)


def _loop_blur_layout(d_img, length, angle):
    """The pixel-by-pixel loop that ``blur_entries`` and ``row_layout``
    vectorize: every nonzero stencil entry of every pixel, its index
    clipped to the image, and the layout whose rows add the entries of a
    column in loop order, from 0.0, columns in increasing order."""
    K = problems._line_stencil(length, angle)
    r = K.shape[0] // 2
    n = d_img * d_img
    entries, rows = [], [{} for _ in range(n)]
    for p in range(d_img):
        for q in range(d_img):
            for di in range(-r, r + 1):
                for dj in range(-r, r + 1):
                    w = K[di + r, dj + r]
                    if w == 0.0:
                        continue
                    ii = min(max(p + di, 0), d_img - 1)
                    jj = min(max(q + dj, 0), d_img - 1)
                    row, col = p * d_img + q, ii * d_img + jj
                    entries.append((row, col, w))
                    rows[row][col] = rows[row].get(col, 0.0) + w
    s = max(len(row) for row in rows)
    idx = np.tile(np.arange(n), (s, 1))
    weights = np.zeros((s, n))
    for p, row in enumerate(rows):
        for k, col in enumerate(sorted(row)):
            idx[k, p], weights[k, p] = col, row[col]
    return entries, idx, weights


@pytest.mark.parametrize("d_img", [1, 2, 3, 6, 13])
def test_blur_matrix_is_the_loop_bitwise(d_img):
    # small images clip most stencil entries onto a few border pixels, so
    # row_layout merges many duplicates, whose bits depend on their order
    for length in (2, 3, 5, 9):
        for k in range(8):
            entries = problems.blur_entries(d_img, length, k * math.pi / 8.0)
            idx, w = problems.row_layout(*entries, d_img * d_img)
            want, want_idx, want_w = _loop_blur_layout(d_img, length,
                                                       k * math.pi / 8.0)
            assert list(zip(*(e.tolist() for e in entries))) == want
            assert idx.dtype == np.intp and idx.tobytes() == want_idx.tobytes()
            assert w.dtype == want_w.dtype and w.tobytes() == want_w.tobytes()


def _scipy_blur(d_img, length, angle):
    """The blur as a scipy CSR matrix: ``tocsr`` sums duplicates in entry
    order while a row holds at most 16 entries (beyond that its sort is
    unstable), and a product adds a row's columns in order from 0.0."""
    rows, cols, vals = problems.blur_entries(d_img, length, angle)
    n = d_img * d_img
    return scipy.sparse.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


@pytest.mark.parametrize("d_img", [4, 5, 8, 13])
def test_blur_layout_products_are_scipys_bitwise(d_img):
    # blur_len <= 6 keeps every row within tocsr's stable sort; no config,
    # invariant or workload uses a longer blur
    V = np.random.default_rng(d_img).random((3, d_img * d_img)) * 200 + 5
    for length in range(2, 7):
        for k in range(8):
            M = _scipy_blur(d_img, length, k * math.pi / 8.0)
            layout = problems.row_layout(
                *problems.blur_entries(d_img, length, k * math.pi / 8.0),
                d_img * d_img)
            for L, ref in ((layout, M), (problems.transposed_layout(layout),
                                         M.T)):
                got = problems._gather(L, V)
                assert got.tobytes() == (ref @ V.T).T.copy().tobytes()
                assert got[0].tobytes() == (ref @ V[0]).tobytes()


def test_tv_deblur_gradients_are_the_scipy_products_bitwise():
    prob = problems.tv_deblur(d_img=8, m=10, blur_len=5, seed=3)
    A = scipy.sparse.block_diag([_scipy_blur(8, 5, (i % 8) * math.pi / 8.0)
                                 for i in range(prob.m)], format="csr")
    X = np.random.default_rng(4).random((prob.m, prob.d)) * 200 + 5
    ax = np.maximum(A @ X.ravel(), 1e-300)
    g = (A.T @ (1.0 - prob.b.ravel() / ax)).reshape(X.shape)
    tv = problems.tv_grad(X.reshape(prob.m, 8, 8)).reshape(X.shape)
    assert prob.grads_rowwise(X).tobytes() == (g + prob.lam * tv).tobytes()


def test_tv_deblur_pads_each_angle_to_its_own_longest_row():
    prob = problems.tv_deblur(8, 8, blur_len=5)
    for layouts in (prob.A, prob.AT):
        assert [len(idx) for idx, _ in layouts] == [5, 11, 13, 11,
                                                     5, 11, 13, 11]


def test_phantom_deterministic():
    a = problems.phantom_image(16)
    b = problems.phantom_image(16)
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() <= 255


# ---------------------------------------------------------------------------
# Data determinism
# ---------------------------------------------------------------------------


def test_generation_is_seed_deterministic():
    a = problems.poisson_inverse(d=6, n=5, m=3, seed=123)
    b = problems.poisson_inverse(d=6, n=5, m=3, seed=123)
    assert np.array_equal(a.A, b.A)
    assert np.array_equal(a.b, b.b)
    c = problems.phase_retrieval(d=6, n=5, m=3, noise_sd=0.1, seed=77)
    d = problems.phase_retrieval(d=6, n=5, m=3, noise_sd=0.1, seed=77)
    assert np.array_equal(c.b[2], d.b[2])


# ---------------------------------------------------------------------------
# Relative smoothness estimation
# ---------------------------------------------------------------------------


def test_estimate_identity_when_f_equals_h():
    k = kernels.boltzmann_shannon(4)
    # f_i = sum(x log x - x), the kernel itself: entropy with c = 1, a = 0
    prob = problems.Entropy(name="h", domain=k.domain, c=np.ones(2),
                            a=np.zeros((2, 4)))
    L = problems.estimate_rel_smoothness(prob, k, n_samples=60, seed=0,
                                         inflation=1.0)
    assert L == pytest.approx(1.0, rel=1e-4)


def test_estimate_quadratic_below_operator_norm():
    rng = np.random.default_rng(8)
    prob = problems.quadratic_consensus(d=6, m=3, seed=8)
    k = kernels.euclidean(6)
    L_norm = prob.meta["L_exact"]
    L_hat = problems.estimate_rel_smoothness(prob, k, n_samples=300, seed=1,
                                             inflation=1.0)
    # random Rayleigh quotients stay below the operator norm but approach it
    assert L_hat <= L_norm * (1 + 1e-9)
    assert L_hat >= 0.3 * L_norm


def test_estimate_finite_for_experiment_pairs():
    vals = []
    for seed in range(20):
        prob = problems.phase_retrieval(d=6, n=8, m=2, noise_sd=0.1, seed=seed)
        L = problems.estimate_rel_smoothness(prob, kernels.quartic(6),
                                             n_samples=40, seed=seed)
        assert math.isfinite(L) and L > 0
        vals.append(L)
    prob = problems.poisson_inverse(d=6, n=8, m=2, seed=0)
    L = problems.estimate_rel_smoothness(prob, kernels.burg(6), n_samples=40,
                                         seed=0)
    assert math.isfinite(L) and L > 0


def test_estimate_repeatability_same_seed():
    prob = problems.phase_retrieval(d=6, n=8, m=2, noise_sd=0.1, seed=5)
    k = kernels.quartic(6)
    a = problems.estimate_rel_smoothness(prob, k, n_samples=50, seed=9)
    b = problems.estimate_rel_smoothness(prob, k, n_samples=50, seed=9)
    assert a == b


# ---------------------------------------------------------------------------
# PSNR
# ---------------------------------------------------------------------------


def test_quadratic_consensus_exact_constants():
    prob = problems.quadratic_consensus(d=5, m=4, seed=0)
    # f_lower is attained at the solved minimizer
    g = prob.grad(prob.x_true)
    np.testing.assert_allclose(g, 0.0, atol=1e-10)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(5)
        assert prob.value(x) >= prob.f_lower - 1e-12


def test_entropy_consensus_lower_bound():
    prob = problems.entropy_consensus(d=5, m=3, seed=2)
    rng = np.random.default_rng(1)
    X = prob.domain.sample_interior(rng, 200)
    vals = [prob.value(X[i]) for i in range(200)]
    assert min(vals) >= prob.f_lower - 1e-12
    _check_gradients(prob, n_pts=30)


_SMALL_SPECS = {
    "quadratic": {"d": 4, "m": 2},
    "entropy": {"d": 4, "m": 2},
    "phase_retrieval": {"d": 4, "n": 3, "m": 2, "noise_sd": 0.1},
    "poisson": {"d": 4, "n": 3, "m": 2},
    "tv_deblur": {"d_img": 4, "m": 2},
}


@pytest.mark.parametrize("kind", sorted(problems.PROBLEMS))
def test_spec_domain_is_the_built_problems_domain(kind):
    # config validation reads the domain from the spec without building
    spec = {"kind": kind, **_SMALL_SPECS[kind]}
    built = problems.problem_from_spec(spec).domain
    read = problems.spec_domain(spec)
    assert read.dim == built.dim
    np.testing.assert_array_equal(read.lo, built.lo)
    np.testing.assert_array_equal(read.hi, built.hi)


def test_tv_deblur_builds_each_angle_once_with_the_same_bits():
    # agents i and i + 8 share a blur angle; sharing its layouts must give
    # each agent, and b, exactly what one blur matrix per agent made
    d_img, m, blur_len, alpha, seed = 6, 10, 3, 10.0, 4
    n = d_img * d_img
    prob = problems.tv_deblur(d_img, m, blur_len=blur_len, alpha=alpha,
                              seed=seed)
    assert len(prob.A) == len(prob.AT) == 8
    blurs = [problems.blur_entries(d_img, blur_len, (i % 8) * math.pi / 8.0)
             for i in range(m)]
    for layouts, want in ((prob.A, problems.row_layout), (
            prob.AT, lambda r, c, v, n: problems.transposed_layout(
                problems.row_layout(r, c, v, n)))):
        for i, entries in enumerate(blurs):
            idx, w = layouts[prob.angle[i]]
            ref_idx, ref_w = want(*entries, n)
            assert np.array_equal(idx, ref_idx)
            assert np.array_equal(w, ref_w)
    rng = np.random.default_rng(seed)
    x_true = problems.phantom_image(d_img).ravel()
    b = np.stack([problems.poisson_sample(
        rng, alpha * (_scipy_blur(d_img, blur_len, (i % 8) * math.pi / 8.0)
                      @ x_true)).astype(float) / alpha for i in range(m)])
    assert np.array_equal(prob.b, b)
