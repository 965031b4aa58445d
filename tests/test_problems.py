import math

import numpy as np
import pytest

from conftest import fd_gradient, safe_eps
from dualmix import kernels, problems


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
    prob = problems.phase_retrieval(d=1, n=1, m=1, noise_sd=0.0, seed=0)
    loc = prob.locals[0]
    loc.A = np.array([[1.0]])
    loc.b = np.array([1.0])
    x = np.array([0.0])
    assert loc.value(x) == pytest.approx(1.0)
    assert loc.grad(x) == pytest.approx(0.0)


def test_phase_retrieval_gradients():
    _check_gradients(problems.phase_retrieval(d=8, n=12, m=3, noise_sd=0.1,
                                              seed=1))


# ---------------------------------------------------------------------------
# Poisson inverse
# ---------------------------------------------------------------------------


def test_poisson_perfect_fit_is_stationary():
    prob = problems.poisson_inverse(d=5, n=8, m=2, seed=0)
    loc = prob.locals[0]
    x = np.abs(np.random.default_rng(1).standard_normal(5)) + 0.5
    loc.b = loc.A @ x  # exact fit
    assert loc.value(x) == pytest.approx(0.0, abs=1e-10)
    np.testing.assert_allclose(loc.grad(x), 0.0, atol=1e-10)


def test_poisson_hand_case():
    # d=1, n=1, A=1, b=0, x=1: f = 0 - 0 + 1, grad = 1 (0 log 0 := 0)
    prob = problems.poisson_inverse(d=1, n=1, m=1, seed=0)
    loc = prob.locals[0]
    loc.A = np.array([[1.0]])
    loc.b = np.array([0.0])
    x = np.array([1.0])
    assert loc.value(x) == pytest.approx(1.0)
    assert loc.grad(x) == pytest.approx(1.0)


def test_poisson_gradients_and_nonnegativity():
    prob = problems.poisson_inverse(d=8, n=10, m=3, seed=2)
    _check_gradients(prob)
    rng = np.random.default_rng(5)
    X = prob.domain.sample_interior(rng, 50)
    assert all(prob.value(X[i]) >= 0.0 for i in range(50))


def test_poisson_design_has_no_zero_rows():
    prob = problems.poisson_inverse(d=4, n=30, m=5, seed=9)
    for loc in prob.locals:
        assert np.all(loc.A.sum(axis=1) > 0)
        assert np.all(loc.A >= 0)


def test_poisson_batch_grad_matches_local_grads():
    prob = problems.poisson_inverse(d=7, n=6, m=4, seed=4)
    X = prob.domain.sample_interior(np.random.default_rng(0), 4)
    np.testing.assert_allclose(
        prob.grads_rowwise(X),
        np.stack([prob.locals[i].grad(X[i]) for i in range(4)]),
        rtol=1e-12)


# more than 8 agents: there numpy's pairwise sum over the agent axis would
# differ from the agent-order sum, so a vectorized mean is caught
_STACKED_FAMILIES = {
    "poisson": lambda seed: problems.poisson_inverse(d=30, n=12, m=9, seed=seed),
    "phase_retrieval": lambda seed: problems.phase_retrieval(
        d=20, n=15, m=10, noise_sd=0.1, seed=seed),
}


def _agent_loop(prob, x):
    """f(x) and grad f(x) accumulated agent by agent over ``prob.locals``."""
    value = float(sum(loc.value(x) for loc in prob.locals) / prob.m)
    g = prob.locals[0].grad(x).astype(float, copy=True)
    for loc in prob.locals[1:]:
        g += loc.grad(x)
    return value, g / prob.m


@pytest.mark.parametrize("family", sorted(_STACKED_FAMILIES))
def test_stacked_value_grad_equal_agent_loop_bitwise(family):
    # the recorder's f(xbar) and stationarity go into byte-checked CSVs, so
    # the stacked evaluation must reproduce the per-agent loop exactly
    for seed in (1, 2, 3):
        prob = _STACKED_FAMILIES[family](seed)
        for loc in prob.locals:
            assert np.shares_memory(loc.A, prob.rows.A)
            assert np.shares_memory(loc.b, prob.rows.b)
        X = prob.domain.sample_interior(np.random.default_rng(seed), 40)
        for x in X:
            value, g = _agent_loop(prob, x)
            assert prob.value(x) == value
            assert np.array_equal(prob.grad(x), g)


@pytest.mark.parametrize("family", sorted(_STACKED_FAMILIES))
def test_permuted_stacked_problem_follows_permutation(family):
    prob = _STACKED_FAMILIES[family](1)
    perm = [3, 0, 4, 1, 2] + list(range(5, prob.m))
    p = prob.permuted(perm)
    X = prob.domain.sample_interior(np.random.default_rng(5), prob.m)
    for i, j in enumerate(perm):
        assert np.array_equal(p.locals[i].A, prob.locals[j].A)
    np.testing.assert_allclose(
        p.grads_rowwise(X),
        np.stack([prob.locals[j].grad(X[i]) for i, j in enumerate(perm)]),
        rtol=1e-12)
    for x in X:
        value, g = _agent_loop(p, x)
        assert p.value(x) == value
        assert np.array_equal(p.grad(x), g)
        assert p.value(x) == pytest.approx(prob.value(x), rel=1e-12)


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


# ---------------------------------------------------------------------------
# TV deblurring
# ---------------------------------------------------------------------------


def test_tv_constant_image_collapses_to_eps():
    X = np.full((6, 6), 3.0)
    assert problems.tv_value(X) == pytest.approx(36 * problems.EPS_TV)


def test_tv_gradient_matches_fd():
    rng = np.random.default_rng(3)
    X = rng.random((5, 5)) * 10 + 1
    g = problems.tv_grad(X)
    eps = 1e-6
    for idx in [(0, 0), (2, 3), (4, 4), (1, 1)]:
        E = np.zeros_like(X)
        E[idx] = eps
        fd = (problems.tv_value(X + E) - problems.tv_value(X - E)) / (2 * eps)
        assert g[idx] == pytest.approx(fd, rel=1e-5, abs=1e-8)


def test_tv_deblur_perfect_fit():
    prob = problems.tv_deblur(d_img=6, m=2, blur_len=3, lambda_tv=0.0, seed=0)
    loc = prob.locals[0]
    loc.b = np.asarray(loc.A @ prob.x_true)
    assert loc.value(prob.x_true) == pytest.approx(0.0, abs=1e-9)
    np.testing.assert_allclose(loc.grad(prob.x_true), 0.0, atol=1e-9)


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


def test_blur_matrix_is_stochastic_nonnegative():
    A = problems.blur_matrix(6, 4, 0.3)
    assert A.shape == (36, 36)
    assert A.min() >= 0
    np.testing.assert_allclose(np.asarray(A.sum(axis=1)).ravel(), 1.0,
                               rtol=1e-12)
    # replicate padding preserves constants
    np.testing.assert_allclose(A @ np.ones(36), np.ones(36), rtol=1e-12)


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
    for la, lb in zip(a.locals, b.locals):
        assert np.array_equal(la.A, lb.A)
        assert np.array_equal(la.b, lb.b)
    c = problems.phase_retrieval(d=6, n=5, m=3, noise_sd=0.1, seed=77)
    d = problems.phase_retrieval(d=6, n=5, m=3, noise_sd=0.1, seed=77)
    assert np.array_equal(c.locals[2].b, d.locals[2].b)


# ---------------------------------------------------------------------------
# Relative smoothness estimation
# ---------------------------------------------------------------------------


def test_estimate_identity_when_f_equals_h():
    k = kernels.boltzmann_shannon(4)

    class _HLocal:
        def value(self, x):
            return k.value(x)

        def grad(self, x):
            return k.grad(x)

    prob = problems.Problem(name="h", m=2, d=4, locals=[_HLocal(), _HLocal()],
                            domain=k.domain)
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


def test_psnr_values():
    X = problems.phantom_image(8)
    assert problems.psnr(X, X) == math.inf
    assert problems.psnr(X + 1.0, X) == pytest.approx(
        10 * math.log10(255.0**2), rel=1e-12)
    assert problems.psnr(np.zeros((4, 4)), np.full((4, 4), 255.0)) == \
        pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ValueError):
        problems.psnr(np.zeros((2, 2)), np.zeros((3, 3)))


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
