import math

import numpy as np
import pytest

from conftest import catalogue
from dualmix import domains, hruc, kernels, problems
from dualmix.errors import SamplingExhausted
from dualmix.modulus import separable_modulus


def test_gap_frozen_values():
    assert hruc.relative_hessian_gap(kernels.euclidean(3),
                                     np.array([1.0, 2.0, 3.0]),
                                     np.array([-1.0, 0.0, 5.0])) == 0.0
    bs = kernels.boltzmann_shannon(1)
    got = hruc.relative_hessian_gap(bs, np.array([math.e]), np.array([1.0]))
    assert got == pytest.approx(1.0 - 1.0 / math.e, rel=1e-12)
    x = np.array([0.4, 1.3])
    assert hruc.relative_hessian_gap(kernels.burg(2), x, x) == 0.0


def test_gap_dense_matches_diagonal_path():
    # the dense route must agree with the diagonal shortcut on separable kernels
    k = kernels.burg(3)
    rng = np.random.default_rng(1)
    X = k.sample_interior(rng, 4)
    for i in range(2):
        x, y = X[2 * i], X[2 * i + 1]
        diag_gap = hruc.relative_hessian_gap(k, x, y)
        M = k.hess_matrix(x) @ np.linalg.inv(k.hess_matrix(y)) - np.eye(3)
        assert diag_gap == pytest.approx(np.linalg.norm(M, 2), rel=1e-10)


def test_gap_asymmetry_one_sided():
    # R_h(x, y) != R_h(y, x) in general; only the defining bound is asserted
    k = kernels.boltzmann_shannon(1)
    x, y = np.array([3.0]), np.array([1.0])
    gxy = hruc.relative_hessian_gap(k, x, y)
    gyx = hruc.relative_hessian_gap(k, y, x)
    assert gxy != pytest.approx(gyx)
    delta = k.dual_dist(x, y)
    assert max(gxy, gyx) <= k.zeta(delta) * (1 + 1e-12)


def test_certify_catalogue_smoke():
    # the full-scale sweep lives in the acceptance suite; this one is quick
    for name, k in catalogue(4).items():
        report = hruc.certify(k, [0.05, 0.5], 100, seed=7)
        assert report.consistent, f"{name}: {report.violations[:1]}"
        assert report.n_samples == 100
        assert len(report.worst_gap) == 2
        assert all(g <= z * (1 + hruc.CERT_TOL)
                   for g, z in zip(report.worst_gap, report.analytic_zeta))


def test_certify_deterministic():
    k = kernels.burg(4)
    a = hruc.certify(k, [0.1, 1.0], 50, seed=3)
    b = hruc.certify(k, [0.1, 1.0], 50, seed=3)
    assert a.worst_gap == b.worst_gap
    c = hruc.certify(k, [0.1, 1.0], 50, seed=4)
    assert a.worst_gap != c.worst_gap


def test_certify_flags_understated_modulus():
    # a kernel certified against half its true modulus must be falsified
    k = kernels.boltzmann_shannon(3).with_modulus(
        kernels.ExpLinearModulus(0.2), name="understated")
    report = hruc.certify(k, [1.0], 400, seed=0)
    assert not report.consistent
    x, y, delta, gap = report.violations[0]
    assert gap > k.zeta(delta)
    assert hruc.relative_hessian_gap(k, x, y) == pytest.approx(gap)


def test_certify_concat_respects_component_max():
    parts = [kernels.boltzmann_shannon(2), kernels.burg(2, mu=1.0)]
    joined = kernels.concat(parts)
    report = hruc.certify(joined, [0.1, 1.0], 300, seed=11)
    assert report.consistent
    for g, d in zip(report.worst_gap, report.delta_grid):
        assert g <= max(p.zeta(d) for p in parts) * (1 + 1e-9)


def test_certify_affine_composition():
    rng = np.random.default_rng(8)
    M = rng.standard_normal((4, 4))
    A = M + 4 * np.eye(4)  # condition number far below 10
    assert np.linalg.cond(A) <= 10
    base = kernels.power(4, mu=1.0, r=2.0)
    k = kernels.affine_compose(base, c=1.7, A=A, b=rng.standard_normal(4))
    kappa = np.linalg.cond(A)
    report = hruc.certify(k, [0.1, 1.0], 200, seed=5)
    assert report.consistent
    for g, d in zip(report.worst_gap, report.delta_grid):
        assert g <= kappa * base.zeta(d / 1.7) * (1 + 1e-9)


def test_hellinger_falsifies_unit_rate_modulus():
    # The correct Hellinger modulus grows at rate 3/2 in the dual distance;
    # certifying against exp(delta)-1 finds counterexamples, while the
    # attached exp(1.5 delta)-1 is consistent.
    wrong = kernels.hellinger(5).with_modulus(kernels.ExpLinearModulus(1.0))
    report = hruc.certify(wrong, [1.0], 1000, seed=7)
    assert not report.consistent
    right = hruc.certify(kernels.hellinger(5), [1.0], 1000, seed=7)
    assert right.consistent


# ---------------------------------------------------------------------------
# Dual Lipschitz bound
# ---------------------------------------------------------------------------


def test_dual_lipschitz_euclidean_quadratic():
    rng = np.random.default_rng(21)
    d = 6
    M = rng.standard_normal((d, d))
    Q = M @ M.T + 0.5 * np.eye(d)
    L = float(np.linalg.norm(Q, 2))
    k = kernels.euclidean(d)
    grad = lambda x: Q @ x  # noqa: E731
    for _ in range(500):
        z = rng.standard_normal(d)
        x = z + 0.5 * rng.standard_normal(d)
        y = z + 0.5 * rng.standard_normal(d)
        assert hruc.dual_lipschitz_residual(k, grad, L, z, x, y) <= 1e-9


def test_dual_lipschitz_trivial_cases():
    k = kernels.burg(3)
    rng = np.random.default_rng(2)
    x = k.sample_interior(rng, 1)[0]
    z = k.grad(x)
    assert hruc.dual_lipschitz_residual(k, lambda v: np.log(v), 1.0,
                                        z, x, x) <= 0.0


def test_dual_lipschitz_burg_poisson():
    # The Monte-Carlo smoothness estimate is not a valid global modulus here
    # (random-direction Rayleigh quotients miss the directional maximum), so
    # the bound is checked against the analytic modulus |b|_1, which the
    # estimate must stay below.
    prob = problems.poisson_inverse(d=12, n=10, m=3, seed=5)
    k = kernels.burg(12)
    L = prob.meta["L_analytic"]
    L_hat = problems.estimate_rel_smoothness(prob, k, n_samples=500, seed=1)
    assert L_hat <= L
    rng = np.random.default_rng(33)
    base = k.sample_interior(rng, 500)
    worst = -math.inf
    for i in range(500):
        z = k.grad(base[i])
        u1 = rng.standard_normal(12)
        u2 = rng.standard_normal(12)
        u1 *= 0.5 * rng.random() / np.linalg.norm(u1)
        u2 *= 0.5 * rng.random() / np.linalg.norm(u2)
        x = k.grad_conj(z + u1)
        y = k.grad_conj(z + u2)
        worst = max(worst, hruc.dual_lipschitz_residual(k, prob.grad, L, z, x, y))
    assert worst <= 1e-9


def test_certify_rejects_bad_arguments():
    with pytest.raises(ValueError):
        hruc.certify(kernels.euclidean(2), [], 10, seed=0)
    with pytest.raises(ValueError):
        hruc.certify(kernels.euclidean(2), [0.1], 0, seed=0)


class _NegLog(kernels.SeparableKernel):
    """phi(t) = -log t on the orthant: its gradient -1/t is negative, so no
    dual vector with a coordinate >= 0 has a preimage."""

    def __init__(self, dim):
        super().__init__(dim, domains.orthant(dim), separable_modulus(1.0, 1.0),
                         "neglog")

    def _phi(self, t):
        return -np.log(t)

    def _grad(self, t):
        return -1.0 / t

    def _hess_diag(self, t):
        return 1.0 / (t * t)


def test_certify_skips_and_counts_rejected_dual_samples():
    # at d=2 some perturbed duals stay negative: the batch inverse fails and
    # the per-sample fallback certifies the rest
    k, shapes = _NegLog(2), []
    grad_conj = k.grad_conj
    k.grad_conj = lambda z: shapes.append(np.shape(z)) or grad_conj(z)
    report = hruc.certify(k, [1e6], 200, seed=0)
    assert shapes == [(200, 2)] + [(2,)] * 200
    assert report.n_samples == 200 and len(report.worst_gap) == 1
    # at d=10 almost every sample has a coordinate >= 0
    with pytest.raises(SamplingExhausted, match="200/200 dual samples rejected"):
        hruc.certify(_NegLog(10), [1e6], 200, seed=0)
