"""Runnable property suite behind the ``check-invariants`` CLI subcommand.

Each check is a pure function returning (ok, detail).  They mirror the
lemma-level claims the package is built on: oracle consistency, kernel
identities, certified moduli, mixing contraction, clipping bounds, and
tracking.
"""

from __future__ import annotations

import contextlib
import math
import zlib

import numpy as np

from . import algorithms, diagnostics, hruc, kernels, network, problems
from .domains import safe_eps
from .modulus import DistortionModulus


def fd_gradient(fun, x, eps):
    """Central-difference gradient, the independent oracle for grad checks."""
    x = np.asarray(x, dtype=float)
    g = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = eps
        g[i] = (fun(x + e) - fun(x - e)) / (2.0 * eps)
    return g


def _composite_kernels(d=4):
    """The combinator calculus beyond the table: a shift, diagonal and dense
    affine maps, a concatenation, and separable and dense sums."""
    burg_bs = kernels.concat([kernels.burg(2), kernels.boltzmann_shannon(d - 2)])
    A = np.eye(d) + 0.4 * np.tri(d, k=-1) - 0.3 * np.tri(d, k=-1).T
    return [
        kernels.shifted(kernels.burg(d), np.full(d, 0.3)),
        kernels.affine_compose(kernels.boltzmann_shannon(d), c=1.7,
                               A=np.array([2.5, 1.0, 3.0, 0.5]), b=np.ones(d)),
        kernels.affine_compose(kernels.power(d), c=1.5, A=A, b=np.full(d, 0.2)),
        kernels.concat([kernels.burg(2), kernels.quartic(d - 2)]),
        kernels.combine(burg_bs, kernels.euclidean(d), "quadratic-shift"),
        kernels.combine(kernels.power(d), kernels.euclidean(d), "quadratic-shift"),
    ]


def _test_kernels(d=4, n_pts=20, seed=3):
    cat = kernels.table_catalogue(d)
    cat["fermi_dirac"] = kernels.fermi_dirac(d)
    cat.update((k.name, k) for k in _composite_kernels(d))
    worst_g, worst_h, worst_inv, worst_tp = 0.0, 0.0, 0.0, 0.0
    for k in cat.values():
        rng = np.random.default_rng([seed, zlib.crc32(k.name.encode())])
        X = k.sample_interior(rng, n_pts + 2)
        for i in range(n_pts):
            x = X[i]
            eps = safe_eps(k.domain, x)
            g = k.grad(x)
            gf = fd_gradient(k.value, x, eps)
            worst_g = max(worst_g, float(np.max(np.abs(g - gf)))
                          / (1.0 + float(np.max(np.abs(g)))))
            v = rng.standard_normal(d)
            v /= np.linalg.norm(v)
            hvp = k.hess_apply(x, v)
            hvp_fd = (k.grad(x + eps * v) - k.grad(x - eps * v)) / (2 * eps)
            worst_h = max(worst_h, float(np.max(np.abs(hvp - hvp_fd)))
                          / (1.0 + float(np.max(np.abs(hvp)))))
            z = k.grad(x) + 0.3 * rng.standard_normal(d)
            xi = k.grad_conj(z)
            worst_inv = max(worst_inv, float(np.linalg.norm(k.grad(xi) - z))
                            / (1.0 + float(np.linalg.norm(z))))
        # three-point identity on interior triples
        for i in range(5):
            x, y, z3 = X[i], X[i + 1], X[i + 2]
            lhs = k.bregman(x, z3) - k.bregman(x, y) - k.bregman(y, z3)
            rhs = float((k.grad(y) - k.grad(z3)) @ (x - y))
            worst_tp = max(worst_tp, abs(lhs - rhs) / (1.0 + abs(rhs)))
    ok = worst_g < 5e-5 and worst_h < 5e-4 and worst_inv < 1e-8 and worst_tp < 1e-10
    return ok, (f"grad fd {worst_g:.2e}, hess fd {worst_h:.2e}, "
                f"inverse {worst_inv:.2e}, three-point {worst_tp:.2e}")


def _test_moduli(d=4):
    """zeta(0) = 0 and monotone, and delta < 0 rejected, for the table, the
    composite kernels, Fermi-Dirac and a cross-monotone sum, whose moduli
    cover every modulus class."""
    ks = [*kernels.table_catalogue(d).values(), *_composite_kernels(d),
          kernels.fermi_dirac(d),
          kernels.combine(kernels.burg(d), kernels.power(d), "cross-monotone",
                          kappa_h=2.0, kappa_g=3.0)]
    grid = np.logspace(-4, 1, 30)
    ok = {type(k.modulus) for k in ks} == {
        c for c in DistortionModulus.__subclasses__()
        if c.__module__ == DistortionModulus.__module__}
    for k in ks:
        vals = [k.zeta(r) for r in grid]
        ok = ok and k.zeta(0.0) == 0.0 and all(
            a <= b + 1e-15 for a, b in zip(vals, vals[1:]))
        with contextlib.suppress(ValueError):
            k.modulus(-1e-3)
            ok = False  # reached only if delta < 0 was accepted
    return ok, (f"zeta(0)=0 and monotone on a log grid, delta < 0 rejected; "
                f"{len(ks)} kernels, every modulus class")


def _test_certification(d=4, seed=7):
    """HRUC consistent with the attached modulus, delta = 0 included, on the
    table, Fermi-Dirac and the composite kernels."""
    ks = [*kernels.table_catalogue(d).values(), kernels.fermi_dirac(d),
          *_composite_kernels(d)]
    deltas = [0.0, 0.01, 0.1, 1.0]
    bad = [k.name for k in ks
           if not hruc.certify(k, deltas, 200, seed=seed).consistent]
    return not bad, (f"{len(ks)} kernels at delta in {deltas}, 200 samples; "
                     f"violations: {bad or 'none'}")


def _test_matrix_bound(n_cases=50, seed=11):
    rng = np.random.default_rng(seed)
    worst = -math.inf
    for _ in range(n_cases):
        d = rng.integers(2, 7)
        Qa = rng.standard_normal((d, d))
        Qb = rng.standard_normal((d, d))
        A = Qa @ Qa.T + 0.2 * np.eye(d)
        B = Qb @ Qb.T + 0.2 * np.eye(d)
        alpha = np.linalg.norm(A @ np.linalg.inv(B) - np.eye(d), 2)
        lhs = np.linalg.norm(network._sqrtm_spd(A)
                             @ np.linalg.inv(network._sqrtm_spd(B)), 2)
        worst = max(worst, lhs - math.sqrt(1 + alpha) * (1 + 1e-10))
    return worst <= 0, f"max residual {worst:.2e}"


def _test_mixing_and_contraction(n_cases=50, seed=5):
    rng = np.random.default_rng(seed)
    ok = True
    for c in range(n_cases):
        m = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        spec = ({"kind": "erdos_renyi", "p": 0.5,
                 "seed": int(rng.integers(0, 10**6))},
                {"kind": "ring"}, {"kind": "complete"})[c % 3]
        mix = network.metropolis_weights(network.graph_from_spec(spec, m))
        mix.validate()
        Q = rng.standard_normal((d, d))
        H = Q @ Q.T + 0.3 * np.eye(d)
        alpha = (1 - mix.rho) / 2
        E = rng.standard_normal((d, d))
        E = 0.5 * (E + E.T)
        E *= 0.9 * alpha / max(np.linalg.norm(E, 2), 1e-12)
        Hs = network._sqrtm_spd(H)
        H_plus = Hs @ (np.eye(d) + E) @ Hs
        V = rng.standard_normal((m, d))
        U = rng.standard_normal((m, d))
        ok = ok and network.contraction_check(mix, H, H_plus, V, U)
    return ok, (f"{n_cases} random contraction instances on erdos_renyi, "
                "ring and complete graphs")


def _test_clip(seed=2):
    """``clip_rows`` on 200 cells of 3 rows, each with its own eta, delta."""
    rng = np.random.default_rng(seed)
    V = rng.standard_normal((200, 3, 5)) * rng.uniform(0, 10, (200, 3, 1))
    eta, delta = rng.uniform(0.01, 2.0, (2, 200, 1, 1))
    C, clipped = algorithms.clip_rows(V, eta, delta)
    small = (eta * np.linalg.norm(V, axis=-1, keepdims=True) <= delta)[..., 0]
    zero, zero_clipped = algorithms.clip_rows(np.zeros((1, 3, 5)), 0.1, 1.0)
    ok = (np.all(np.linalg.norm(C, axis=-1) <= delta[..., 0] * (1 + 1e-12))
          and np.allclose(C[small], (eta * V)[small])
          and np.array_equal(clipped, ~small.all(axis=-1))
          and np.all(zero == 0) and not zero_clipped.any())
    return ok, "norm cap and small-step linearity"


def _test_run_invariants(seed=9):
    prob = problems.quadratic_consensus(d=6, m=5, seed=seed)
    mix = network.metropolis_weights(network.erdos_renyi(5, 0.6, seed=seed))
    k = kernels.euclidean(6)
    L = prob.meta["L_exact"]
    cfg = algorithms.AlgoConfig(algorithm="dmgt", eta=0.02, delta=0.5,
                                max_iter=60)
    worst_track, worst_clip = 0.0, -math.inf

    def hook(t, prev, cur):
        nonlocal worst_track, worst_clip
        worst_track = max(worst_track, diagnostics.tracking_residual(cur, prob))
        rs = diagnostics.clipping_bound_residuals(prev, cur, cfg.delta, mix.rho)
        worst_clip = max(worst_clip, *rs)

    res = algorithms.run(prob, k, mix, cfg, x0=np.zeros(6), L=L, hooks=[hook])
    ok = (res.status == "done" and worst_track < 1e-10
          and worst_clip <= 1e-10)
    return ok, (f"tracking {worst_track:.2e}, clip-bound residual "
                f"{worst_clip:.2e}")


def _test_problem_gradients(seed=4):
    """``grad`` against central differences of ``value``, and row i of
    ``grads_rowwise``, the step's oracle, against those of agent i's value."""
    probs = [
        problems.phase_retrieval(d=8, n=6, m=3, noise_sd=0.1, seed=seed),
        problems.poisson_inverse(d=8, n=6, m=3, seed=seed),
        problems.tv_deblur(d_img=6, m=2, blur_len=3, seed=seed),
    ]
    worst = 0.0
    for prob in probs:
        rng = np.random.default_rng([seed, 1])
        X = prob.domain.sample_interior(rng, 10)
        G = prob.grads_rowwise(X[:prob.m])
        cases = [(prob.grad(x), prob.value, x) for x in X] + [
            (G[i], lambda x, i=i: prob._values(x)[i], X[i])
            for i in range(prob.m)]
        for g, fun, x in cases:
            gf = fd_gradient(fun, x, safe_eps(prob.domain, x))
            worst = max(worst, float(np.max(np.abs(g - gf)))
                        / (1.0 + float(np.max(np.abs(g)))))
    return worst < 1e-5, f"worst relative gradient error {worst:.2e}"


CHECKS = [
    ("kernel oracles (fd, inverse, three-point)", _test_kernels),
    ("distortion moduli (zero at 0, monotone)", _test_moduli),
    ("HRUC certification", _test_certification),
    ("matrix square-root norm bound", _test_matrix_bound),
    ("mixing matrices and contraction", _test_mixing_and_contraction),
    ("clipping operator", _test_clip),
    ("tracking identity and iterate bounds", _test_run_invariants),
    ("problem gradient oracles", _test_problem_gradients),
]


def run_all(verbose=True):
    """Run every check; returns the number of failures."""
    failures = 0
    for name, fn in CHECKS:
        try:
            ok, detail = fn()
        except Exception as exc:  # noqa: BLE001 - report, don't crash the suite
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        failures += 0 if ok else 1
        if verbose:
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return failures
