import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import catalogue, fd_gradient, safe_eps
from dualmix import diagnostics, domains, kernels
from dualmix._scalar import solve_increasing
from dualmix.errors import (DomainViolation, ModeMismatch, NoConvergence,
                            SingularMatrix)
from dualmix.modulus import self_concordant_modulus, separable_modulus


# ---------------------------------------------------------------------------
# Frozen example values (oracles computed by hand / closed form)
# ---------------------------------------------------------------------------


def test_euclidean_values():
    k = kernels.euclidean(2)
    x = np.array([3.0, 4.0])
    assert k.value(x) == pytest.approx(12.5)
    np.testing.assert_allclose(k.grad(x), x)
    np.testing.assert_allclose(k.grad_conj(x), x)
    np.testing.assert_allclose(k.hess_apply(x, np.array([1.0, 2.0])),
                               [1.0, 2.0])
    assert k.bregman(np.array([1.0, 0.0]), np.array([0.0, 0.0])) == \
        pytest.approx(0.5)
    assert k.zeta(12.3) == 0.0


def test_boltzmann_shannon_values():
    k = kernels.boltzmann_shannon(2)
    assert k.value(np.array([1.0, 1.0])) == pytest.approx(-2.0)
    np.testing.assert_allclose(k.grad(np.array([math.e, 1.0])), [1.0, 0.0],
                               atol=1e-14)
    np.testing.assert_allclose(k.grad_conj(np.array([0.0, 1.0])),
                               [1.0, math.e])
    np.testing.assert_allclose(k.hess_apply(np.array([0.5, 2.0]),
                                            np.array([1.0, 1.0])),
                               [2.0, 0.5])
    # generalized KL divergence: sum u log(u/v) - u + v
    got = k.bregman(np.array([1.0, 1.0]), np.array([math.e, math.e]))
    assert got == pytest.approx(2.0 * (math.e - 2.0), rel=1e-12)
    assert k.zeta(1.0) == pytest.approx(math.e - 1.0)


def test_burg_values():
    k = kernels.burg(1, mu=1.0)
    assert k.value(np.array([1.0])) == pytest.approx(0.5)
    np.testing.assert_allclose(k.grad_conj(np.array([0.0])), [1.0])
    assert k.zeta(1.0) == pytest.approx(math.e - 1.0)
    k4 = kernels.burg(1, mu=4.0)
    assert k4.zeta(2.0) == pytest.approx(math.e - 1.0)  # exp(delta/sqrt(mu))-1


def test_power_kernel_values():
    k = kernels.power(2, mu=1.0, r=1.0)
    np.testing.assert_allclose(k.grad(np.array([1.0, 0.0])), [2.0, 0.0])
    np.testing.assert_allclose(
        k.hess_apply(np.array([1.0, 0.0]), np.array([0.0, 1.0])), [0.0, 2.0])
    assert k.zeta(1.0) == pytest.approx(20.0)  # max{10, 4} * (1 + 1)
    q = kernels.quartic(2)
    x = np.array([1.0, 1.0])
    assert q.value(x) == pytest.approx(0.25 * 4.0 + 0.5 * 2.0)


@pytest.mark.parametrize("mu", [0.5, 1.0, 3.0])
def test_power_r2_radius_inverse_is_closed_form(mu):
    k = kernels.power(3, mu=mu, r=2.0)
    s = np.logspace(-300.0, 300.0, 6001)
    t = k._g_inv(s)
    assert np.all(np.abs(k._g(t) - s) <= 1e-14 * (1.0 + s))
    assert np.all(np.diff(t) > 0.0)
    # the iterative solve brackets roots between about 1e-60 and 1e180 only
    mid = (s >= 1e-50) & (s <= 1e150)
    t_solve = solve_increasing(k._g, k._g_prime, s[mid], np.zeros_like(s[mid]),
                               np.full_like(s[mid], np.inf),
                               t0=np.ones_like(s[mid]))
    # both residuals are within TOL_INV (1 + s), so the roots are within
    # twice that over the slope
    gap = 2.0 * kernels.TOL_INV * (1.0 + s[mid]) / k._g_prime(t[mid])
    assert np.all(np.abs(t[mid] - t_solve) <= gap)
    x = np.random.default_rng(5).standard_normal((40, 3)) \
        * np.logspace(-8.0, 8.0, 40)[:, None]
    np.testing.assert_allclose(k.grad_conj(k.grad(x)), x, rtol=1e-14)
    Z = np.random.default_rng(4).standard_normal((20, 6, 3)) * 30.0
    X = k.grad_conj(Z)
    for b in range(len(Z)):
        assert X[b].tobytes() == k.grad_conj(Z[b]).tobytes(), b


def test_only_radial_kernels_without_a_closed_form_call_the_solver(monkeypatch):
    def solver(*args, **kwargs):
        raise AssertionError("solve_increasing called")

    monkeypatch.setattr(kernels, "solve_increasing", solver)
    z = np.random.default_rng(6).standard_normal((4, 5))
    q = kernels.quartic(5)
    np.testing.assert_allclose(q.grad(q.grad_conj(z)), z, rtol=1e-14)
    with pytest.raises(AssertionError, match="solve_increasing called"):
        kernels.power(5, r=1.5).grad_conj(z)


def test_quartic_inverts_a_huge_dual_radius():
    # the squares of z overflow, and the solver brackets radii up to about 1e180
    k = kernels.quartic(4)
    z = np.array([1e200, -1e200, 3e199, 0.0]) / math.sqrt(2.09)
    assert kernels._norm(z) == pytest.approx(1e200, rel=1e-15)
    x = k.grad_conj(z)
    assert np.isfinite(x).all()
    assert np.max(np.abs(k.grad(x) - z)) <= 1e-14 * np.max(np.abs(z))


def test_hellinger_closed_form_inverse():
    k = kernels.hellinger(3)
    z = np.array([-2.0, 0.0, 5.0])
    x = k.grad_conj(z)
    np.testing.assert_allclose(k.grad(x), z, atol=1e-12)
    assert np.all(np.abs(x) < 1.0)


def test_hellinger_inverse_of_a_huge_dual_vector_is_on_the_boundary():
    # z * z overflows beyond about 1e154; the inverse must not fall back to
    # an interior 0 there, or a diverging run would pass the domain check
    k = kernels.hellinger(2)
    x = k.grad_conj(np.array([1e160, 1.0]))
    assert x[0] == 1.0 and x[1] == 1.0 / math.sqrt(2.0)
    assert k.grad_conj(np.array([-1e300, np.inf]))[0] == -1.0
    assert not k.domain.is_interior(x)
    # up to 1e150 the closed form keeps its bits
    z = np.concatenate([np.logspace(-300, 150, 91), -np.logspace(-300, 150, 91),
                        [0.0, -0.0, 1e150, -1e150]])
    with np.errstate(over="raise"):
        assert k.grad_conj(np.stack([z, z], axis=-1))[:, 0].tobytes() == \
            (z / np.sqrt(1.0 + z * z)).tobytes()


def test_shifted_kernel_is_its_base_at_x_minus_shift_bitwise(any_kernel):
    # dual averaging runs over the shifted kernel: each oracle is the base's
    # at x - s, and the inverse the base's plus s, bit for bit
    base = any_kernel
    rng = np.random.default_rng(21)
    s = rng.uniform(-2.0, 2.0, base.dim)
    k = kernels.shifted(base, s)
    X = base.sample_interior(rng, 6) + s
    V = rng.standard_normal(X.shape)
    Y = X - s
    assert k.value(X).tobytes() == base.value(Y).tobytes()
    assert k.grad(X).tobytes() == base.grad(Y).tobytes()
    assert k.hess_apply(X, V).tobytes() == base.hess_apply(Y, V).tobytes()
    assert k.hess_solver(X)(V).tobytes() == base.hess_solver(Y)(V).tobytes()
    Z = base.grad(Y) + 0.3 * V
    assert k.grad_conj(Z).tobytes() == (base.grad_conj(Z) + s).tobytes()


def test_bregman_basics(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(11)
    X = k.sample_interior(rng, 6)
    for i in range(3):
        u, v = X[2 * i], X[2 * i + 1]
        assert k.bregman(u, u) == pytest.approx(0.0, abs=1e-12)
        d = k.bregman(u, v)
        assert d >= -1e-12
        if not np.allclose(u, v):
            assert d > 0.0


def test_domain_violations():
    bs = kernels.boltzmann_shannon(2)
    with pytest.raises(DomainViolation):
        bs.value(np.array([1.0, 0.0]))
    with pytest.raises(DomainViolation):
        bs.grad(np.array([-1.0, 1.0]))
    h = kernels.hellinger(1)
    with pytest.raises(DomainViolation):
        h.value(np.array([1.0]))
    # every kernel checks its point, the whole-space ones for finiteness
    for k in (kernels.quartic(2), kernels.euclidean(2)):
        with pytest.raises(DomainViolation):
            k.value(np.array([np.nan, 1.0]))
        with pytest.raises(DomainViolation):
            k.grad(np.array([1.0, np.inf]))


# ---------------------------------------------------------------------------
# Oracle consistency across the whole catalogue
# ---------------------------------------------------------------------------


def test_gradient_matches_finite_differences(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(7)
    X = k.sample_interior(rng, 100)
    worst = 0.0
    for i in range(100):
        x = X[i]
        eps = safe_eps(k.domain, x)
        g = k.grad(x)
        gf = fd_gradient(k.value, x, eps)
        worst = max(worst, float(np.max(np.abs(g - gf)))
                    / (1.0 + float(np.max(np.abs(g)))))
    assert worst <= 1e-6


def test_hessian_matches_gradient_differences(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(13)
    X = k.sample_interior(rng, 100)
    worst = 0.0
    for i in range(100):
        x = X[i]
        eps = safe_eps(k.domain, x, base=1e-6)
        v = rng.standard_normal(k.dim)
        v /= np.linalg.norm(v)
        hvp = k.hess_apply(x, v)
        hvp_fd = (k.grad(x + eps * v) - k.grad(x - eps * v)) / (2.0 * eps)
        worst = max(worst, float(np.max(np.abs(hvp - hvp_fd)))
                    / (1.0 + float(np.max(np.abs(hvp)))))
    assert worst <= 1e-5


def test_inverse_mirror_map_consistency(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(5)
    X = k.sample_interior(rng, 50)
    Z = k.grad(X) + 0.5 * rng.standard_normal((50, k.dim))
    Xi = k.grad_conj(Z)
    resid = np.linalg.norm(k.grad(Xi) - Z, axis=1)
    assert np.all(resid <= 1e-8 * (1.0 + np.linalg.norm(Z, axis=1)))
    # both directions of the inversion identity
    np.testing.assert_allclose(k.grad_conj(k.grad(X[0])), X[0], rtol=1e-8,
                               atol=1e-10)


def test_hess_solve_inverts_hess_apply(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(23)
    X = k.sample_interior(rng, 10)
    for i in range(10):
        v = rng.standard_normal(k.dim)
        w = k.hess_solve(X[i], k.hess_apply(X[i], v))
        np.testing.assert_allclose(w, v, rtol=1e-9, atol=1e-11)


def test_hess_matrix_spd(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(29)
    X = k.sample_interior(rng, 5)
    for i in range(5):
        H = k.hess_matrix(X[i])
        np.testing.assert_allclose(H, H.T, atol=1e-10 * (1 + np.abs(H).max()))
        assert np.min(np.linalg.eigvalsh(H)) > 0


def test_three_point_identity(any_kernel):
    k = any_kernel
    rng = np.random.default_rng(31)
    X = k.sample_interior(rng, 300)
    for i in range(100):
        x, y, z = X[3 * i], X[3 * i + 1], X[3 * i + 2]
        lhs = k.bregman(x, z) - k.bregman(x, y) - k.bregman(y, z)
        rhs = float((k.grad(y) - k.grad(z)) @ (x - y))
        assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(rhs))


def test_essential_smoothness_gradient_blowup():
    # Legendre property: the mirror map diverges along boundary sequences
    cases = [
        (kernels.boltzmann_shannon(1), np.array([1.0]), np.array([0.0])),
        (kernels.burg(1), np.array([1.0]), np.array([0.0])),
        (kernels.harmonic(1), np.array([1.0]), np.array([0.0])),
        (kernels.hellinger(1), np.array([0.0]), np.array([1.0])),
        (kernels.fermi_dirac(1), np.array([0.5]), np.array([1.0])),
    ]
    for k, x0, xb in cases:
        norms = [np.linalg.norm(k.grad(x0 + (xb - x0) * (1 - 10.0**-j)))
                 for j in range(2, 13)]
        assert norms == sorted(norms)
        assert norms[-1] > 5.0 * norms[0]


# ---------------------------------------------------------------------------
# Moduli
# ---------------------------------------------------------------------------


def test_modulus_monotone_zero_at_zero(any_kernel):
    k = any_kernel
    assert k.zeta(0.0) == 0.0
    grid = np.logspace(-6, 2, 50)
    vals = [k.zeta(d) for d in grid]
    assert all(a <= b + 1e-15 for a, b in zip(vals, vals[1:]))


@given(st.floats(min_value=0.0, max_value=50.0),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=100, deadline=None)
def test_modulus_monotone_hypothesis(d1, d2):
    mod = separable_modulus(1.3, 0.7)
    lo, hi = sorted([d1, d2])
    assert mod(lo) <= mod(hi) + 1e-12


def test_modulus_constructors():
    assert separable_modulus(1.0, 1.0)(1.0) == pytest.approx(math.e - 1.0)
    # Burg's table row via the sufficient conditions: G = 1/sqrt(mu), H = 1
    mu = 4.0
    assert separable_modulus(1.0 / math.sqrt(mu), 1.0)(2.0) == \
        pytest.approx(kernels.burg(1, mu=mu).zeta(2.0))
    assert self_concordant_modulus(1.0, 1.0)(1.0) == \
        pytest.approx(math.expm1(2.0))
    # Lipschitz-Hessian instance: M = rho/(2 mu^1.5) gives exp(rho d/mu^2)-1
    rho_lip, mu = 3.0, 2.0
    got = self_concordant_modulus(rho_lip / (2 * mu**1.5), mu)(0.7)
    assert got == pytest.approx(math.expm1(rho_lip * 0.7 / mu**2))
    for mod in (separable_modulus(2.0, 0.5), self_concordant_modulus(1.0, 4.0)):
        assert mod(0.0) == 0.0


def test_matrix_sqrt_norm_bound():
    # |A B^-1 - I| <= alpha implies |A^1/2 B^-1/2| <= sqrt(1+alpha)
    rng = np.random.default_rng(17)
    for _ in range(200):
        d = int(rng.integers(2, 8))
        Qa = rng.standard_normal((d, d))
        Qb = rng.standard_normal((d, d))
        A = Qa @ Qa.T + 0.1 * np.eye(d)
        B = Qb @ Qb.T + 0.1 * np.eye(d)
        alpha = np.linalg.norm(A @ np.linalg.inv(B) - np.eye(d), 2)
        va, Va = np.linalg.eigh(A)
        vb, Vb = np.linalg.eigh(B)
        As = (Va * np.sqrt(va)) @ Va.T
        Binvs = (Vb / np.sqrt(vb)) @ Vb.T
        assert np.linalg.norm(As @ Binvs, 2) <= \
            math.sqrt(1.0 + alpha) * (1.0 + 1e-10)


# ---------------------------------------------------------------------------
# Combinators
# ---------------------------------------------------------------------------


def test_concat():
    k = kernels.concat([kernels.euclidean(2), kernels.euclidean(3)])
    assert k.dim == 5 and k.zeta(1.0) == 0.0
    bs = kernels.concat([kernels.boltzmann_shannon(2),
                         kernels.boltzmann_shannon(3)])
    assert bs.zeta(1.0) == pytest.approx(math.e - 1.0)
    mixed = kernels.concat([kernels.euclidean(1), kernels.boltzmann_shannon(1)])
    assert mixed.zeta(1.0) == pytest.approx(math.e - 1.0)
    x = np.array([0.3, 0.7])
    assert mixed.value(x) == pytest.approx(
        kernels.euclidean(1).value(x[:1])
        + kernels.boltzmann_shannon(1).value(x[1:]))
    np.testing.assert_allclose(mixed.grad_conj(mixed.grad(x)), x, rtol=1e-10)


def test_affine_compose():
    bs = kernels.boltzmann_shannon(1)
    same = kernels.affine_compose(bs, c=1.0)
    assert same.zeta(0.8) == pytest.approx(bs.zeta(0.8))
    # Fermi-Dirac's second term: x -> BS(1 - x), kappa = 1
    flip = kernels.affine_compose(bs, c=1.0, A=-np.ones(1), b=np.ones(1))
    assert flip.zeta(1.0) == pytest.approx(math.e - 1.0)
    x = np.array([0.25])
    assert flip.value(x) == pytest.approx(bs.value(1.0 - x))
    np.testing.assert_allclose(flip.grad(x), -bs.grad(1.0 - x))
    scaled = kernels.affine_compose(kernels.euclidean(1), c=2.0)
    assert scaled.zeta(5.0) == 0.0
    with pytest.raises(SingularMatrix):
        kernels.affine_compose(kernels.euclidean(2), A=np.zeros((2, 2)))


def test_affine_compose_dense_consistency():
    rng = np.random.default_rng(41)
    A = rng.standard_normal((3, 3)) + 3 * np.eye(3)
    b = rng.standard_normal(3)
    base = kernels.power(3, mu=1.0, r=2.0)
    k = kernels.affine_compose(base, c=1.5, A=A, b=b)
    x = rng.standard_normal(3)
    assert k.value(x) == pytest.approx(1.5 * base.value(A @ x + b))
    eps = 1e-6
    np.testing.assert_allclose(k.grad(x), fd_gradient(k.value, x, eps),
                               rtol=1e-6, atol=1e-8)
    z = k.grad(x)
    np.testing.assert_allclose(k.grad_conj(z), x, rtol=1e-8, atol=1e-10)
    v = rng.standard_normal(3)
    np.testing.assert_allclose(k.hess_solve(x, k.hess_apply(x, v)), v,
                               rtol=1e-9, atol=1e-12)


def test_combine_modes():
    bs = kernels.boltzmann_shannon(2)
    euc = kernels.euclidean(2)
    qs = kernels.combine(bs, euc, "quadratic-shift")
    assert qs.zeta(1.0) == pytest.approx(math.e - 1.0)
    cs = kernels.combine(bs, kernels.boltzmann_shannon(2),
                         "coordinate-separable")
    assert cs.zeta(0.5) == pytest.approx(bs.zeta(0.5))
    cm = kernels.combine(bs, kernels.burg(2), "cross-monotone",
                         kappa_h=1.0, kappa_g=1.0)
    assert cm.zeta(0.5) == pytest.approx(bs.zeta(0.5) + kernels.burg(2).zeta(0.5))
    with pytest.raises(ModeMismatch):
        kernels.combine(bs, kernels.burg(2), "quadratic-shift")
    with pytest.raises(ModeMismatch):
        kernels.combine(bs, kernels.power(2), "coordinate-separable")
    with pytest.raises(ModeMismatch):
        kernels.combine(bs, kernels.burg(2), "cross-monotone")


def test_newton_inverse_halves_its_step_back_into_the_domain(monkeypatch):
    # a full Newton step from the start point leaves the orthant here: the
    # line search halves it, 6 times in all, and the solve still ends
    # within TOL_INV (1 + |z|) (at a residual of 2.1e-11 on x86-64)
    k = kernels.combine(kernels.burg(3), kernels.power(3), "cross-monotone",
                        kappa_h=2, kappa_g=3)
    is_interior = k.domain.is_interior
    verdicts = []

    def logged(x):
        verdicts.append(is_interior(x))
        return verdicts[-1]

    monkeypatch.setattr(k.domain, "is_interior", logged)
    z = np.array([-50.0, -3.0, 2.0])
    x = k.grad_conj(z)
    assert verdicts.count(False) == 6
    assert np.linalg.norm(z - k.grad(x)) \
        <= kernels.TOL_INV * (1.0 + np.linalg.norm(z))


def test_fermi_dirac_derived_kernel():
    k = kernels.fermi_dirac(2)
    x = np.array([0.2, 0.8])
    expected = np.sum(x * np.log(x) + (1 - x) * np.log(1 - x))
    # built as BS(x) + BS(1-x): carries the extra -x - (1-x) = -1 per coord
    assert k.value(x) == pytest.approx(expected - 2.0)
    np.testing.assert_allclose(k.grad(x), np.log(x / (1 - x)), rtol=1e-12)
    z = np.array([-1.0, 2.0])
    np.testing.assert_allclose(k.grad_conj(z), 1 / (1 + np.exp(-z)),
                               rtol=1e-10)
    assert k.zeta(1.0) == pytest.approx(math.e - 1.0)


@pytest.mark.parametrize("second, mode", [
    (kernels.euclidean(3), "quadratic-shift"),
    (kernels.burg(3), "coordinate-separable"),
])
def test_separable_sum_over_a_concatenation_inverts(second, mode):
    k = kernels.combine(
        kernels.concat([kernels.burg(2), kernels.boltzmann_shannon(1)]),
        second, mode)
    assert k.separable
    X = k.sample_interior(np.random.default_rng(8), 20)
    np.testing.assert_allclose(k.grad_conj(k.grad(X)), X, rtol=1e-10)
    np.testing.assert_allclose(k.hess_matrix(X[0]), np.diag(k.hess_diag(X[0])))


def test_dense_sum_oracles_take_batches():
    k = kernels.combine(kernels.power(3), kernels.euclidean(3), "quadratic-shift")
    assert not k.separable and k.hess_diag(np.ones(3)) is None
    rng = np.random.default_rng(9)
    X = rng.standard_normal((4, 3))
    V = rng.standard_normal((4, 3))
    H = k.hess_matrix(X)
    assert H.shape == (4, 3, 3)
    Z = 3.0 * k.grad(X)
    Y = k.grad_conj(Z)
    solved = k.hess_solver(X)(V)
    for i in range(4):
        np.testing.assert_array_equal(H[i], k.hess_matrix(X[i]))
        np.testing.assert_allclose(H[i] @ solved[i], V[i], atol=1e-12)
        np.testing.assert_allclose(solved[i], k.hess_solve(X[i], V[i]),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(Y[i], k.grad_conj(Z[i]), rtol=0, atol=1e-12)
    np.testing.assert_allclose(k.grad(Y), Z, rtol=1e-12)


def test_shifted_kernel():
    base = kernels.burg(2)
    s = np.array([0.5, -0.25])
    k = kernels.shifted(base, s)
    x = np.array([1.2, 0.4])
    assert k.value(x) == pytest.approx(base.value(x - s))
    np.testing.assert_allclose(k.minimizer(), base.minimizer() + s)
    assert not k.domain.is_interior(s)  # boundary moved with the shift


def test_quadratic_preconditioned():
    rng = np.random.default_rng(2)
    M = rng.standard_normal((3, 3))
    A = M @ M.T + np.eye(3)
    k = kernels.euclidean(3, A=A)
    x = rng.standard_normal(3)
    assert k.value(x) == pytest.approx(0.5 * x @ A @ x)
    np.testing.assert_allclose(k.grad(x), A @ x, rtol=1e-12)
    np.testing.assert_allclose(k.grad_conj(A @ x), x, rtol=1e-10)
    assert k.zeta(3.0) == 0.0


def test_quadratic_maps_an_overflowed_dual_vector_to_a_rejected_point():
    # an overflowed dual iterate must reach the step engine's interior
    # check, which ends the cell as diverged, and not raise from the solve
    A = np.array([[4.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 2.0]])
    Z = np.array([[np.inf, 0.0, 0.0], [1.0, 2.0, 3.0]])
    for k in (kernels.euclidean(3), kernels.euclidean(3, A=A)):
        with np.errstate(invalid="ignore"):
            X = k.grad_conj(Z)
        assert not np.isfinite(X[0]).all() and np.isfinite(X[1]).all()
        with pytest.raises(DomainViolation):
            k.domain.require_interior(X, "updated primal iterate")


# ---------------------------------------------------------------------------
# Reused Hessian solves and the unchecked Bregman divergence
# ---------------------------------------------------------------------------


def _combinator_kernels(dim=5):
    """Combinator forms beyond the table: the shifted kernel of dda, a dense
    Euclidean preconditioner, a diagonal affine map and a concatenation."""
    B = np.random.default_rng(3).standard_normal((dim, dim))
    return {
        "shifted_burg": kernels.shifted(kernels.burg(dim), np.full(dim, 0.3)),
        "euclidean_A": kernels.euclidean(dim, A=B @ B.T + dim * np.eye(dim)),
        "affine_diag_burg": kernels.affine_compose(
            kernels.burg(dim), c=2.0, A=np.linspace(0.5, 2.0, dim)),
        "concat_burg_quartic": kernels.concat(
            [kernels.burg(2), kernels.quartic(dim - 2)]),
    }


_ALL_KERNELS = sorted(catalogue()) + sorted(_combinator_kernels())


def _kernel(name):
    return {**catalogue(), **_combinator_kernels()}[name]


@pytest.mark.parametrize("name", _ALL_KERNELS)
def test_unchecked_bregman_equals_bregman_bitwise(name):
    # the recorder's Bregman term of G takes a chunk's points at once, as
    # (K, 1, d); each entry must have the bits of bregman of its pair
    k = _kernel(name)
    X = k.sample_interior(np.random.default_rng(4), 60)
    breg = diagnostics._successive_divergences(k, X[:, None, :])
    for i in range(len(X) - 1):
        assert breg[i] == k.bregman(X[i], X[i + 1]), i


@pytest.mark.parametrize("name", _ALL_KERNELS)
def test_hess_solver_rounds_like_hess_solve(name):
    # the recorder solves a stacked (2m, d) block at one xbar of shape (d,);
    # that must give the bits of a solve at xbar broadcast over the rows
    k = _kernel(name)
    rng = np.random.default_rng(6)
    X = k.sample_interior(rng, 20)
    V = rng.standard_normal((6, k.dim))
    for x in X:
        solve = k.hess_solver(x)
        assert np.array_equal(solve(V[0]), k.hess_solve(x, V[0]))
        assert np.array_equal(solve(V),
                              k.hess_solve(np.broadcast_to(x, V.shape), V))


@pytest.mark.parametrize("name", _ALL_KERNELS)
def test_hess_matrix_takes_batches(name):
    k = _kernel(name)
    X = k.sample_interior(np.random.default_rng(12), 6).reshape(2, 3, k.dim)
    H = k.hess_matrix(X)
    assert H.shape == (2, 3, k.dim, k.dim)
    for i, j in np.ndindex(2, 3):
        assert np.array_equal(H[i, j], k.hess_matrix(X[i, j]))


def test_bregman_checks_each_argument_once(monkeypatch):
    calls = []
    is_interior = domains.Domain.is_interior

    def counted(self, x):
        calls.append(1)
        return is_interior(self, x)

    monkeypatch.setattr(domains.Domain, "is_interior", counted)
    k = kernels.burg(4)
    k.bregman(np.full(4, 0.5), np.full(4, 2.0))
    assert len(calls) == 2
    with pytest.raises(DomainViolation, match="second Bregman argument"):
        k.bregman(np.full(4, 0.5), np.zeros(4))


def _scalar_case(name):
    """(f, f', z, lo, hi, t0) of a kernel's scalar inverse, with targets
    spread over many magnitudes so that elements converge at different
    Newton iterations."""
    rng = np.random.default_rng(11)
    if name == "quartic":  # radial: the dual radius |grad h| = g(|x|)
        k = kernels.quartic(4)
        z = np.exp(rng.uniform(-12.0, 12.0, 60))
        return k._g, k._g_prime, z, np.zeros_like(z), np.full_like(z, np.inf), \
            np.ones_like(z)
    k = kernels.tsallis(4)  # separable, no closed-form inverse
    z = rng.standard_normal(60) * 10.0 ** rng.uniform(-3.0, 3.0, 60)
    return k._grad, k._hess_diag, z, np.zeros_like(z), np.full_like(z, np.inf), None


@pytest.mark.parametrize("name", ["quartic", "tsallis"])
def test_solve_increasing_solves_each_element_as_if_alone(name):
    # a batch of cells shares one call; an element's root must not depend
    # on which other elements it was solved with
    f, fprime, z, lo, hi, t0 = _scalar_case(name)
    t = solve_increasing(f, fprime, z, lo, hi, t0=t0)
    for i in range(len(z)):
        one = slice(i, i + 1)
        alone = solve_increasing(f, fprime, z[one], lo[one], hi[one],
                                 t0=None if t0 is None else t0[one])
        assert alone.tobytes() == t[one].tobytes(), i
    # quartic inverts in closed form, so power r=1.5 takes the radial solve
    k = kernels.power(5, r=1.5) if name == "quartic" else kernels.tsallis(5)
    Z = np.random.default_rng(4).standard_normal((20, 6, 5)) * 30.0
    X = k.grad_conj(Z)
    for b in range(len(Z)):
        assert X[b].tobytes() == k.grad_conj(Z[b]).tobytes(), b


def test_no_convergence_reports_the_worst_residual():
    f, fprime, z, lo, hi, t0 = _scalar_case("tsallis")
    with pytest.raises(NoConvergence) as info:
        solve_increasing(f, fprime, z, lo, hi, max_iter=2)
    worst = 0.0
    for i in range(len(z)):
        one = slice(i, i + 1)
        try:
            solve_increasing(f, fprime, z[one], lo[one], hi[one], max_iter=2)
        except NoConvergence as exc:
            worst = max(worst, exc.residual)
    assert info.value.residual == worst > 0.0
