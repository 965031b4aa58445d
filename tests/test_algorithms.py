import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dualmix import algorithms, cli, diagnostics, kernels, network, problems
from dualmix.algorithms import AlgoConfig


def _quad_setup(d=6, m=5, seed=0, p=0.6, gseed=3):
    prob = problems.quadratic_consensus(d=d, m=m, seed=seed)
    mix = network.metropolis_weights(network.erdos_renyi(m, p, seed=gseed))
    return prob, mix, kernels.euclidean(d), prob.meta["L_exact"]


def _quad_grad(prob, i, x):
    """Gradient Q_i (x - c_i) of agent i's quadratic."""
    return prob.Q[i] @ (x - prob.c[i])


# ---------------------------------------------------------------------------
# Clipping operator
# ---------------------------------------------------------------------------


def test_clip_frozen_examples():
    V = np.array([[3.0, 4.0]])
    np.testing.assert_allclose(algorithms.clip_rows(V, 0.1, 1.0)[0], [[0.3, 0.4]])
    np.testing.assert_allclose(algorithms.clip_rows(V, 1.0, 1.0)[0], [[0.6, 0.8]])
    np.testing.assert_allclose(algorithms.clip_rows(np.zeros((1, 3)), 0.5, 1.0)[0],
                               np.zeros((1, 3)))


def _clip_batches(B):
    """(V, eta, delta): a (B, 3, 4) batch with per-cell (B, 1, 1) columns."""
    cols = arrays(np.float64, (B, 1, 1), elements=st.floats(1e-6, 1e3))
    return st.tuples(arrays(np.float64, (B, 3, 4),
                            elements=st.floats(-1e6, 1e6, allow_nan=False)),
                     cols, cols)


@given(st.integers(1, 4).flatmap(_clip_batches))
@settings(max_examples=200, deadline=None)
def test_clip_properties(case):
    V, eta, delta = case
    C, clipped = algorithms.clip_rows(V, eta, delta)
    norms = np.linalg.norm(C, axis=-1, keepdims=True)
    small = eta * np.linalg.norm(V, axis=-1, keepdims=True) <= delta
    assert np.all(norms <= delta * (1 + 1e-9))
    np.testing.assert_allclose(np.where(small, C, 0.0),
                               np.where(small, eta * V, 0.0), rtol=1e-12, atol=0)
    np.testing.assert_allclose(norms[~small],
                               np.broadcast_to(delta, norms.shape)[~small],
                               rtol=1e-9)
    # the flag says whether any row of the cell was clipped
    assert np.array_equal(clipped, ~small.all(axis=(1, 2)))
    for b in range(len(V)):  # each cell as its own (1, m, d) call
        one = slice(b, b + 1)
        C1, clipped1 = algorithms.clip_rows(V[one], eta[one], delta[one])
        assert C1.tobytes() == C[one].tobytes()
        assert clipped1.tolist() == clipped[one].tolist()


def test_clip_rows_is_bitwise_the_nested_where_formula():
    # the formula clip_rows had before, written out
    def nested_where(V, eta, delta):
        norms = np.linalg.norm(V, axis=1, keepdims=True)
        factors = np.where(norms > 0, np.minimum(
            eta, delta / np.where(norms > 0, norms, 1.0)), eta)
        return V * factors, bool(np.any(eta * norms > delta))

    tiny = np.finfo(float).tiny
    rows = {
        "zero": [0.0, 0.0, 0.0],
        "subnormal": [5e-324, 0.0, -1e-320],
        "tiny": [tiny, -tiny, 0.0],
        "huge": [1e200, -3e199, 0.0],
        "overflowing": [1e300, 1e300, 0.0],
        "at delta": [2.0, 0.0, 0.0],       # eta * |v| = 0.5 * 2 = delta
        "below": [0.3, -0.4, 0.0],
        "above": [30.0, 40.0, -1.0],
        "nan": [np.nan, 1.0, 0.0],
    }
    for name, row in rows.items():
        for others in ([], [[0.25, 0.5, 1.0]]):
            V = np.array([row] + others)
            for eta, delta in ((0.5, 1.0), (0.1, 0.3), (1e-3, 1e-300),
                               (2.0, 1e300)):
                with np.errstate(over="ignore", invalid="ignore"):
                    got_S, got_clipped = algorithms.clip_rows(V, eta, delta)
                    want_S, want_clipped = nested_where(V, eta, delta)
                assert got_S.tobytes() == want_S.tobytes(), (name, eta, delta)
                assert got_clipped == want_clipped, (name, eta, delta)


def test_clip_rows_zero_row_raises_no_warning():
    with np.errstate(all="raise"):
        S, clipped = algorithms.clip_rows(np.zeros((2, 3)), 0.5, 1.0)
    assert not clipped
    assert S.tobytes() == np.zeros((2, 3)).tobytes()


def test_clip_rows_reports_events():
    V = np.array([[3.0, 4.0], [0.1, 0.0]])
    S, clipped = algorithms.clip_rows(V, 1.0, 1.0)
    assert clipped
    np.testing.assert_allclose(S[0], [0.6, 0.8])
    np.testing.assert_allclose(S[1], [0.1, 0.0])
    _, clipped2 = algorithms.clip_rows(V, 0.1, 10.0)
    assert not clipped2


# ---------------------------------------------------------------------------
# Step rules against independent recursions
# ---------------------------------------------------------------------------


def test_dmgt_matches_independent_gradient_tracking():
    # Euclidean geometry, huge clipping radius: the update must equal
    # z+ = W (z - eta y), y+ = W y + grad f(x+) - grad f(x), coded here
    # from scratch.
    prob, mix, k, L = _quad_setup()
    eta = 0.02
    cfg = AlgoConfig("dmgt", eta=eta, delta=1e9, max_iter=50)
    x0 = np.arange(prob.d, dtype=float) / prob.d
    res = algorithms.run(prob, k, mix, cfg, x0, L=L)

    W = mix.W
    X = np.tile(x0, (prob.m, 1))
    G = np.stack([_quad_grad(prob, i, X[i]) for i in range(prob.m)])
    Y = G.copy()
    for _ in range(50):
        X = W @ (X - eta * Y)
        G_new = np.stack([_quad_grad(prob, i, X[i]) for i in range(prob.m)])
        Y = W @ Y + G_new - G
        G = G_new
    np.testing.assert_allclose(res.system.X, X, atol=1e-10, rtol=0)
    np.testing.assert_allclose(res.system.Y, Y, atol=1e-10, rtol=0)


def test_dmgt_single_agent_is_clipped_mirror_descent():
    prob = problems.entropy_consensus(d=4, m=1, seed=2)
    mix = network.MixingMatrix(m=1, W=np.ones((1, 1)), rho=0.0)
    k = kernels.boltzmann_shannon(4)
    eta, delta = 0.3, 0.2
    cfg = AlgoConfig("dmgt", eta=eta, delta=delta, max_iter=40)
    x0 = np.full(4, 0.7)
    res = algorithms.run(prob, k, mix, cfg, x0, L=1.0)

    x = x0.copy()
    for _ in range(40):
        z = k.grad(x) - algorithms.clip_rows(prob.grad(x)[None], eta, delta)[0][0]
        x = k.grad_conj(z)
    np.testing.assert_allclose(res.system.X[0], x, rtol=1e-10)


def test_dmgt_scalar_trace():
    # 1-D Boltzmann-Shannon, m=1, f(x) = x: hand-rolled scalar recursion;
    # f is the entropy family with c = 0, a = 1
    prob = problems.Entropy(name="lin",
                            domain=kernels.boltzmann_shannon(1).domain,
                            f_lower=-math.inf, c=np.zeros(1),
                            a=np.ones((1, 1)))
    mix = network.MixingMatrix(m=1, W=np.ones((1, 1)), rho=0.0)
    k = kernels.boltzmann_shannon(1)
    eta, delta = 0.5, 1.0
    cfg = AlgoConfig("dmgt", eta=eta, delta=delta, max_iter=3)
    res = algorithms.run(prob, k, mix, cfg, np.array([1.0]), L=1.0)
    z, y = math.log(1.0), 1.0
    for _ in range(3):
        z = z - min(eta, delta / abs(y)) * y
        y = 1.0  # gradient of x is constant
    assert res.system.Z[0, 0] == pytest.approx(z, rel=1e-12)
    assert res.system.X[0, 0] == pytest.approx(math.exp(z), rel=1e-12)


def test_dmgt_y0_zero_stationary_start():
    # Algorithm's literal Y0 = 0 with m=1: the first step leaves X fixed and
    # Y stays zero for a constant-gradient objective.
    prob = problems.quadratic_consensus(d=3, m=1, seed=0)
    k, L = kernels.euclidean(3), prob.meta["L_exact"]
    mix = network.MixingMatrix(m=1, W=np.ones((1, 1)), rho=0.0)
    cfg = AlgoConfig("dmgt", eta=0.1, delta=1.0, max_iter=1, y0="zero")
    x0 = np.zeros(3)
    sys0 = algorithms.init_system(prob, k, x0, cfg)
    assert np.all(sys0.Y == 0.0)
    res = algorithms.run(prob, k, mix, cfg, x0, L=L)
    np.testing.assert_allclose(res.system.X, sys0.X, atol=1e-15)


def test_dmd_step_hand_rolled():
    # 1-D Burg kernel, m=2, single-edge mixing: check one step of
    # grad h(x+) = grad h(W x) - eta grad f(x) coordinatewise.
    prob = problems.entropy_consensus(d=1, m=2, seed=1)
    mix = network.metropolis_weights(network.Graph(2, [(0, 1)]))
    k = kernels.burg(1)
    eta = 0.05
    cfg = AlgoConfig("dmd", eta=eta, max_iter=1)
    x0 = np.array([0.8])
    res = algorithms.run(prob, k, mix, cfg, x0, L=1.0)
    for i in range(2):
        mixed = 0.5 * (x0[0] + x0[0])
        grad_i = prob.c[i] * math.log(x0[0]) + prob.a[i, 0]
        z = (mixed - 1 / mixed) - eta * grad_i
        x_next = (z + math.sqrt(z * z + 4)) / 2
        assert res.system.X[i, 0] == pytest.approx(x_next, rel=1e-12)


def test_dmd_consensus_start_mixing_is_identity():
    prob, mix, k, L = _quad_setup()
    x0 = np.full(prob.d, 0.3)
    cfg = AlgoConfig("dmd", eta=0.01, max_iter=1)
    res = algorithms.run(prob, k, mix, cfg, x0, L=L)
    # W 1 = 1: the mixed point equals x0, so the step uses local gradients only
    for i in range(prob.m):
        expected = x0 - 0.01 * _quad_grad(prob, i, x0)
        np.testing.assert_allclose(res.system.X[i], expected, rtol=1e-12)


@pytest.mark.parametrize("algorithm", ["dmd", "dgt"])
def test_mirror_step_checks_each_iterate_once(algorithm, monkeypatch):
    # the mixed iterate and the update pass one interior check each; the
    # mirror map at the mixed iterate does not check it again
    prob = problems.entropy_consensus(d=4, m=4, seed=6)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.boltzmann_shannon(4)
    cfg = AlgoConfig(algorithm, eta=0.1, max_iter=1)
    s = algorithms.init_system(prob, k, np.full(4, 0.25), cfg)
    checked = []
    is_interior = type(k.domain).is_interior
    monkeypatch.setattr(type(k.domain), "is_interior",
                        lambda dom, x: checked.append(1) or is_interior(dom, x))
    algorithms._STEPS[algorithm](s, prob, k, mix.W, 0.1, None)
    assert len(checked) == 2


def test_dgt_single_agent_is_centralized_mirror_descent():
    prob = problems.entropy_consensus(d=3, m=1, seed=4)
    mix = network.MixingMatrix(m=1, W=np.ones((1, 1)), rho=0.0)
    k = kernels.boltzmann_shannon(3)
    cfg = AlgoConfig("dgt", eta=0.2, max_iter=30)
    x0 = np.full(3, 0.5)
    res = algorithms.run(prob, k, mix, cfg, x0, L=1.0)
    x = x0.copy()
    for _ in range(30):
        x = k.grad_conj(k.grad(x) - 0.2 * prob.grad(x))
    np.testing.assert_allclose(res.system.X[0], x, rtol=1e-10)


def test_dgt_dmgt_average_agrees_after_first_step_euclidean():
    prob, mix, k, L = _quad_setup()
    x0 = np.full(prob.d, 0.25)
    res_t = algorithms.run(prob, k, mix, AlgoConfig("dmgt", eta=0.03,
                                                    delta=1e9, max_iter=1),
                           x0, L=L)
    res_g = algorithms.run(prob, k, mix, AlgoConfig("dgt", eta=0.03,
                                                    max_iter=1), x0, L=L)
    np.testing.assert_allclose(res_t.system.Z.mean(axis=0),
                               res_g.system.Z.mean(axis=0), rtol=1e-12)


def test_dda_equals_unclipped_dmgt_on_unshifted_kernel():
    prob = problems.entropy_consensus(d=4, m=4, seed=6)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.boltzmann_shannon(4)
    x0 = np.full(4, 0.6)
    res_a = algorithms.run(prob, k, mix,
                           AlgoConfig("dda", eta=0.05, max_iter=25), x0, L=1.0)
    res_b = algorithms.run(prob, k, mix,
                           AlgoConfig("dmgt", eta=0.05, delta=1e12,
                                      max_iter=25), x0, L=1.0)
    np.testing.assert_allclose(res_a.system.X, res_b.system.X, rtol=1e-12)


def test_dda_shifted_kernel_minimized_at_start():
    k = kernels.burg(5)
    x0 = np.abs(np.random.default_rng(0).standard_normal(5)) + 0.2
    tilted = kernels.shifted(k, x0 - k.minimizer())
    np.testing.assert_allclose(tilted.grad(x0), 0.0, atol=1e-12)
    np.testing.assert_allclose(tilted.minimizer(), x0, rtol=1e-12)


# ---------------------------------------------------------------------------
# Run-level invariants
# ---------------------------------------------------------------------------


def test_tracking_identity_along_runs():
    prob, mix, k, L = _quad_setup()
    x0 = np.zeros(prob.d)
    for algo, extra in (("dmgt", {"delta": 0.5}), ("dgt", {}), ("dda", {})):
        worst = 0.0

        def hook(t, prev, cur):
            nonlocal worst
            worst = max(worst, diagnostics.tracking_residual(cur, prob))

        cfg = AlgoConfig(algo, eta=0.02, max_iter=60, **extra)
        algorithms.run(prob, k, mix, cfg, x0, L=L, hooks=[hook])
        assert worst <= 1e-10, algo


def test_z_rows_remain_dual_images():
    prob = problems.entropy_consensus(d=4, m=5, seed=3)
    mix = network.metropolis_weights(network.erdos_renyi(5, 0.7, seed=1))
    k = kernels.boltzmann_shannon(4)
    worst = 0.0

    def hook(t, prev, cur):
        nonlocal worst
        worst = max(worst, float(np.max(np.abs(k.grad(cur.X) - cur.Z))))

    cfg = AlgoConfig("dmgt", eta=0.1, delta=0.3, max_iter=50)
    algorithms.run(prob, k, mix, cfg, np.full(4, 0.5), L=1.0, hooks=[hook])
    assert worst <= 1e-10


def test_clipping_bounds_forced_clipping():
    # tiny delta forces clipping every round; the iterate bounds must hold
    prob, mix, k, L = _quad_setup(d=5, m=6, seed=9, gseed=5)
    delta = 1e-3
    cfg = AlgoConfig("dmgt", eta=10.0, delta=delta, max_iter=200)
    worst = -math.inf
    clipped_any = False

    def hook(t, prev, cur):
        nonlocal worst, clipped_any
        worst = max(worst, *diagnostics.clipping_bound_residuals(
            prev, cur, delta, mix.rho))
        clipped_any = clipped_any or cur.clipped

    algorithms.run(prob, k, mix, cfg, np.ones(5), L=L, hooks=[hook])
    assert clipped_any
    assert worst <= 1e-10


def test_permutation_equivariance():
    prob, mix, k, L = _quad_setup(d=4, m=5, seed=11, gseed=7)
    burg_prob = problems.poisson_inverse(d=6, n=5, m=5, seed=1)
    cases = (
        (prob, mix, k, L, np.full(4, 0.2)),
        # a second family: permuted() must reindex the design stacks that
        # grads_rowwise reads
        (burg_prob, network.metropolis_weights(network.ring_graph(5)),
         kernels.burg(6), burg_prob.meta["L_analytic"], np.full(6, 0.5)),
    )
    perm = np.array([3, 0, 4, 1, 2])
    P = np.eye(5)[perm]
    cfg = AlgoConfig("dmgt", eta=0.05, delta=0.4, max_iter=25)
    for prob, mix, k, L, x0 in cases:
        mix_p = network.MixingMatrix(m=5, W=P @ mix.W @ P.T, rho=mix.rho)
        prob_p = prob.permuted(perm)
        res = algorithms.run(prob, k, mix, cfg, x0, L=L)
        res_p = algorithms.run(prob_p, k, mix_p, cfg, x0, L=L)
        assert res.status == res_p.status == "done"
        np.testing.assert_allclose(res_p.system.X, res.system.X[perm],
                                   rtol=1e-10, atol=1e-12)


def test_algo_config_rejects_a_negative_budget():
    with pytest.raises(ValueError, match="max_iter must be nonnegative"):
        AlgoConfig("dmd", eta=0.1, max_iter=-4)
    assert AlgoConfig("dmd", eta=0.1, max_iter=0).max_iter == 0


def test_record_every_accepts_only_zero_and_one():
    prob, mix, k, L = _quad_setup()
    cfg = AlgoConfig("dmgt", eta=0.05, delta=0.7, max_iter=3)
    for every in (2, 5, -1):
        with pytest.raises(ValueError, match="record_every"):
            algorithms.run(prob, k, mix, cfg, np.zeros(prob.d), L=L,
                           record_every=every)
    assert len(algorithms.run(prob, k, mix, cfg, np.zeros(prob.d), L=L,
                              record_every=0).records) == 2


def test_run_zero_iterations_yields_initial_record():
    prob, mix, k, L = _quad_setup()
    cfg = AlgoConfig("dmgt", eta=0.1, delta=1.0, max_iter=0)
    res = algorithms.run(prob, k, mix, cfg, np.zeros(prob.d), L=L)
    assert len(res.records) == 1
    assert res.records[0].t == 0
    assert res.status == "done"


def test_run_deterministic_record_stream():
    prob, mix, k, L = _quad_setup()
    cfg = AlgoConfig("dmgt", eta=0.05, delta=0.7, max_iter=30)
    r1 = algorithms.run(prob, k, mix, cfg, np.zeros(prob.d), L=L)
    r2 = algorithms.run(prob, k, mix, cfg, np.zeros(prob.d), L=L)
    assert [rec.csv_row() for rec in r1.records] == \
        [rec.csv_row() for rec in r2.records]


def test_divergence_is_frozen_not_raised():
    # Burg geometry with an absurd step: the dual iterates overflow and the
    # run must freeze with a recorded divergence, not crash
    prob = problems.poisson_inverse(d=5, n=4, m=3, seed=0)
    mix = network.metropolis_weights(network.complete_graph(3))
    k = kernels.shifted(kernels.burg(5), np.full(5, 3.0))  # domain x > 3
    cfg = AlgoConfig("dda", eta=1e8, max_iter=50)
    res = algorithms.run(prob, k, mix, cfg, np.full(5, 4.0), L=1.0)
    assert res.status == "diverged"
    assert res.records[-1].status == "diverged"
    assert res.diverged_at is not None


def test_compliant_parameters_satisfy_hypotheses():
    for k, m, rho in ((kernels.boltzmann_shannon(3), 8, 0.4),
                      (kernels.burg(3), 5, 0.7),
                      (kernels.euclidean(3), 4, 0.5)):
        L = 2.0
        eta, delta, lam = algorithms.compliant_parameters(k, L, rho, m)
        assert k.zeta(2 * delta) <= (1 - rho) / 2 + 1e-12
        assert lam == pytest.approx(
            1 + k.zeta(math.sqrt(20 * m) / (1 - rho) * delta))
        assert eta == pytest.approx((1 - rho) ** 2 / (25 * L * lam**2))
    # Euclidean: unconstrained radius hits the cap
    _, delta_euc, lam_euc = algorithms.compliant_parameters(
        kernels.euclidean(3), 1.0, 0.5, 4)
    assert delta_euc == pytest.approx(1e9)
    assert lam_euc == 1.0


def test_config_validation():
    with pytest.raises(ValueError):
        AlgoConfig("sgd", eta=0.1)
    with pytest.raises(ValueError):
        AlgoConfig("dmgt", eta=-1.0)
    with pytest.raises(ValueError):
        AlgoConfig("dmgt", eta=0.1, y0="both")


def test_unrecorded_run_observes_a_nonfinite_final_state_once():
    prob = problems.quadratic_consensus(3, 3, 0)
    mix = network.metropolis_weights(network.complete_graph(3))
    value_and_grad, points = prob.value_and_grad, []

    def value_inf_after_first(x):  # the final state's objective overflows
        # the recorder evaluates its states together: count them one by one
        f, g = value_and_grad(x)
        f = np.array(f)
        for i in np.ndindex(f.shape):
            points.append(1)
            if len(points) > 1:
                f[i] = math.inf
        return f, g

    prob.value_and_grad = value_inf_after_first
    cfg = AlgoConfig("dmgt", eta=0.05, delta=0.7, max_iter=3)
    res = algorithms.run(prob, kernels.euclidean(3), mix, cfg, np.zeros(3),
                         L=prob.meta["L_exact"], record_every=0)
    assert [r.t for r in res.records] == [0, 3]
    assert (res.status, res.diverged_at, res.reason) == \
        ("diverged", 3, "non-finite metric")
    assert math.isnan(res.records[-1].G_proxy)


def test_recorded_nonfinite_metric_ends_a_cell_alone():
    # dgt at eta=3 overflows the recorded metrics before the iterates turn
    # non-finite; batched with a finishing cell, each equals its run alone
    prob = problems.quadratic_consensus(d=3, m=4, seed=0)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.euclidean(3)
    cfgs = [AlgoConfig("dgt", eta=eta, max_iter=400) for eta in (3.0, 0.05)]
    seen = []

    def hook(t, prev, cur):
        seen.append((t, prev.t, cur.t))

    batch = algorithms.run(prob, k, mix, cfgs, np.zeros(3), L=1.0,
                           hooks=[hook])
    batch_seen, seen = seen, []
    alone = [algorithms.run(prob, k, mix, c, np.zeros(3), L=1.0,
                            hooks=[hook]) for c in cfgs]
    bad = alone[0]
    assert (bad.status, bad.diverged_at, bad.reason) == \
        ("diverged", 105, "non-finite metric")
    assert len(bad.records) == 106 and alone[1].status == "done"
    # the hooks see the step into the cut state and nothing after it (t =
    # 105 is inside a recorder chunk); in the batch, the cells of a step in
    # row order
    assert seen == [(t, t, t + 1) for t in range(105)] \
        + [(t, t, t + 1) for t in range(400)]
    assert batch_seen == [(t, t, t + 1) for t in range(400)
                          for _ in range(2 if t < 105 else 1)]
    for b, a in zip(batch, alone):
        assert (b.status, b.diverged_at, b.reason) == \
            (a.status, a.diverged_at, a.reason)
        assert [r.csv_row() for r in b.records] == \
            [r.csv_row() for r in a.records]


# ---------------------------------------------------------------------------
# Cells whose dual iterates coincide share the step's tail
# ---------------------------------------------------------------------------


def _counting_blocks(prob, monkeypatch):
    """Record the number of (m, d) blocks of each batched gradient call."""
    blocks, grads_rowwise = [], prob.grads_rowwise

    def counted(X):
        if X.ndim == 3:
            blocks.append(len(X))
        return grads_rowwise(X)

    monkeypatch.setattr(prob, "grads_rowwise", counted)
    return blocks


def _twin_case(kernel, etas, max_iter=60):
    """dmgt on a small Poisson instance over a grid of etas and deltas:
    delta 1e-3 clips at every step, and 1e6 and 1e9 never clip."""
    prob = problems.poisson_inverse(d=6, n=5, m=4, seed=2)
    mix = network.metropolis_weights(network.ring_graph(4))
    cfgs = [AlgoConfig("dmgt", eta=eta, delta=delta, max_iter=max_iter)
            for eta in etas for delta in (1e-3, 1e6, 1e9)]
    return prob, mix, kernel, cfgs, np.full(6, 0.5)


def _runs_alone(prob, kernel, mix, cfgs, x0):
    """Each cell's run alone, and the number of distinct trajectories at
    each step: the distinct Z+ of the cells that take that step."""
    results, Zs = [], {}
    for cfg in cfgs:
        def hook(t, prev, cur):
            Zs.setdefault(t, set()).add(cur.Z.tobytes())
        results.append(algorithms.run(prob, kernel, mix, cfg, x0, L=1.0,
                                      hooks=[hook]))
    return results, [len(Zs[t]) for t in sorted(Zs)]


def _assert_cells_equal(results, alone):
    for res, ref in zip(results, alone):
        assert (res.status, res.diverged_at, res.reason) == \
            (ref.status, ref.diverged_at, ref.reason)
        assert [r.csv_row() for r in res.records] == \
            [r.csv_row() for r in ref.records]
        for f in ("X", "Z", "Y"):
            assert getattr(res.system, f).tobytes() == \
                getattr(ref.system, f).tobytes()


def test_twin_cells_share_the_gradient_and_equal_their_runs(monkeypatch):
    prob, mix, k, cfgs, x0 = _twin_case(kernels.burg(6), etas=(0.01, 0.1))
    alone, distinct = _runs_alone(prob, k, mix, cfgs, x0)
    blocks = _counting_blocks(prob, monkeypatch)
    results = algorithms.run(prob, k, mix, cfgs, x0, L=1.0)
    assert [sum(r.clipped for r in res.records) for res in results] == \
        [60, 0, 0] * 2
    # a cell clipped at every step takes steps of length delta whatever
    # its eta: the two clipped cells and the two unclipped pairs make 3
    assert distinct == [3] * 60
    assert blocks == distinct
    _assert_cells_equal(results, alone)


def test_twins_survive_a_dropped_cell(monkeypatch):
    # at eta = 1 the unclipped cells leave the domain mid-run; they are
    # rows 1 and 2 of the batch, so the later cells move up two rows
    prob, mix, k, cfgs, x0 = _twin_case(kernels.boltzmann_shannon(6),
                                        etas=(1.0, 0.01, 0.1))
    alone, distinct = _runs_alone(prob, k, mix, cfgs, x0)
    blocks = _counting_blocks(prob, monkeypatch)
    results = algorithms.run(prob, k, mix, cfgs, x0, L=1.0)
    t = results[1].diverged_at
    assert 0 < t < 59
    assert [(r.status, r.diverged_at) for r in results] == \
        [("done", None)] + [("diverged", t)] * 2 + [("done", None)] * 6
    assert results[1].reason.startswith("DomainViolation")
    assert distinct == [4] * t + [3] * (60 - t)
    # the failed step is redone cell by cell, and the two failing cells
    # raise before their gradients
    assert blocks == distinct[:t] + [1] * 7 + distinct[t + 1:]
    _assert_cells_equal(results, alone)


def test_twins_part_on_a_signed_zero_or_a_nan_payload(monkeypatch):
    prob = problems.poisson_inverse(d=3, n=4, m=2, seed=0)
    k = kernels.burg(3)
    blocks = _counting_blocks(prob, monkeypatch)
    Z = np.zeros((3, 2, 3))
    Z[1, 1, 2] = -0.0  # the same value as cell 0's, with other bits
    X, G, twin = algorithms._primal_and_grads(prob, k, Z, np.zeros(3, int))
    # cell 2 keeps its twin, cell 1 parts from it
    assert twin.tolist() == [0, 1, 0] and blocks == [2]
    assert X[0].tobytes() == X[1].tobytes() == X[2].tobytes()
    assert G[0].tobytes() == G[1].tobytes() == G[2].tobytes()
    nans = np.full((2, 1, 1), np.nan)
    nans[1].view(np.int64)[...] += 1  # another NaN payload
    assert algorithms._regroup(np.zeros(2, int), nans) is None


def test_a_newton_inverted_kernel_steps_each_cell_as_alone():
    # a non-separable sum inverts its mirror map by Newton's method, which
    # stops and damps each point on its own
    prob = problems.quadratic_consensus(3, 4)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.combine(kernels.power(3), kernels.euclidean(3),
                        "quadratic-shift")
    x0 = np.full(3, 0.5)
    for algorithm in ("dmgt", "dgt", "dmd"):
        cfgs = [AlgoConfig(algorithm, eta=eta, max_iter=40,
                           delta=1.0 if algorithm == "dmgt" else math.inf)
                for eta in (0.01, 0.03, 0.1, 0.3)]
        results = algorithms.run(prob, k, mix, cfgs, x0, L=1.0)
        alone = [algorithms.run(prob, k, mix, c, x0, L=1.0) for c in cfgs]
        _assert_cells_equal(results, alone)


# ---------------------------------------------------------------------------
# The step rules write in place into their own arrays only
# ---------------------------------------------------------------------------


def _step_cases():
    """(problem, kernel, x0) for Burg, Euclidean (whose ``_grad`` returns
    its argument) and quartic geometry."""
    return (
        (problems.poisson_inverse(d=5, n=4, m=3, seed=0), kernels.burg(5),
         np.full(5, 0.5)),
        (problems.quadratic_consensus(d=5, m=3, seed=0), kernels.euclidean(5),
         np.full(5, 0.5)),
        (problems.phase_retrieval(d=5, n=6, m=3, noise_sd=0.1, seed=0),
         kernels.quartic(5), np.full(5, 0.5)),
    )


def _batch_start(prob, kernel, x0, algorithm, B):
    """B cells at the initial state, all twins of cell 0."""
    s0 = algorithms.init_system(prob, kernel, x0, AlgoConfig(algorithm, 0.1))
    return algorithms.AgentSystem(
        *(np.repeat(a[None], B, axis=0) for a in (s0.X, s0.Z, s0.Y, s0.grads)),
        clipped=np.zeros(B, dtype=bool), twin=np.zeros(B, int))


@pytest.mark.parametrize("algorithm", algorithms.ALGORITHMS)
def test_a_step_leaves_its_input_and_returns_unaliased_arrays(algorithm):
    W = network.metropolis_weights(network.ring_graph(3)).W
    # cells 0 and 1 are twins: they take the same step
    eta = np.array([0.01, 0.01, 0.02])[:, None, None]
    delta = np.array([1e-3, 1e-3, 1e6])[:, None, None] \
        if algorithm in algorithms.CLIPPED else None
    step = algorithms._STEPS[algorithm]
    for prob, kernel, x0 in _step_cases():
        s = _batch_start(prob, kernel, x0, algorithm, 3)
        for _ in range(2):
            s = step(s, prob, kernel, W, eta, delta)
        assert s.twin.tolist() == [0, 0, 2], kernel.name
        fields = ("X", "Z", "Y", "grads")
        before = [getattr(s, f).tobytes() for f in fields]
        new = step(s, prob, kernel, W, eta, delta)
        assert [getattr(s, f).tobytes() for f in fields] == before
        outs = {f: getattr(new, f) for f in fields}
        if algorithm == "dmd":  # Y+ is G+ by design
            assert outs.pop("Y") is new.grads
        for f, a in outs.items():
            for g in fields:
                assert not np.shares_memory(a, getattr(s, g)), (f, g)
            for g, b in outs.items():
                assert f == g or not np.shares_memory(a, b), (f, g)


def _written_out_step(algorithm, s, prob, kernel, W, eta, delta):
    """A step rule as its docstring writes it, every operation out of place,
    with the Burg mirror maps and the Poisson gradient written out too."""
    X, Z, Y, G = s

    def grad_h(x):
        if isinstance(kernel, kernels.Burg):
            return kernel.mu * x - 1.0 / x
        return kernel._grad(x)

    def grad_h_conj(z):
        if isinstance(kernel, kernels.Burg):
            return (z + np.sqrt(z * z + 4.0 * kernel.mu)) / (2.0 * kernel.mu)
        return kernel.grad_conj(z)

    def grads(x):
        if isinstance(prob, problems.Poisson):
            ax = np.einsum("mnd,...md->...mn", prob.A, x)
            return np.einsum("mnd,...mn->...md", prob.A,
                             1.0 - prob.b / np.maximum(ax, 1e-300))
        return prob.grads_rowwise(x)

    if algorithm == "dmgt":
        norms = np.sqrt((Y * Y).sum(axis=-1, keepdims=True))
        ratios = np.divide(delta, norms, out=np.full_like(norms, np.inf),
                           where=norms > 0)
        Z1 = W @ (Z - Y * np.fmin(eta, ratios))
    elif algorithm == "dda":
        Z1 = W @ (Z - eta * Y)
    else:
        Z1 = grad_h(W @ X) - eta * (G if algorithm == "dmd" else Y)
    X1 = grad_h_conj(Z1)
    G1 = grads(X1)
    return X1, Z1, G1 if algorithm == "dmd" else W @ Y + G1 - G, G1


@pytest.mark.parametrize("algorithm", algorithms.ALGORITHMS)
def test_the_step_rules_are_their_formulas_bitwise(algorithm):
    W = network.metropolis_weights(network.ring_graph(3)).W
    eta = np.array([0.002, 0.01, 0.05])[:, None, None]
    delta = np.array([1e-2, 0.1, 1e6])[:, None, None] \
        if algorithm in algorithms.CLIPPED else None
    step = algorithms._STEPS[algorithm]
    burg_case, _, quartic_case = _step_cases()
    for prob, kernel, x0 in (burg_case, quartic_case):
        s = _batch_start(prob, kernel, x0, algorithm, 3)
        ref = (s.X, s.Z, s.Y, s.grads)
        for t in range(20):
            s = step(s, prob, kernel, W, eta, delta)
            ref = _written_out_step(algorithm, ref, prob, kernel, W, eta,
                                    delta)
            for f, want in zip(("X", "Z", "Y", "grads"), ref):
                got = getattr(s, f)
                assert (got.view(np.int64) == want.view(np.int64)).all(), \
                    (kernel.name, t, f)


# Each family's cells in (algorithm, eta) order, with eta 10 before 1e3, at
# record_every 0 and then 1: "done", or how and at which step the cell
# diverged ("domain" DomainViolation, "iterate" non-finite iterate, "metric"
# non-finite metric)
_DIVERGENCE_MATRIX = {
    "quadratic-euclidean": (
        lambda: problems.quadratic_consensus(d=3, m=4, seed=0),
        kernels.euclidean, 0.0,
        ("done", "done", "domain 154", "iterate 77",
         "iterate 154", "iterate 77", "domain 173", "domain 81"),
        ("done", "done", "metric 78", "metric 39",
         "metric 78", "metric 39", "metric 87", "metric 41")),
    "entropy-boltzmann_shannon": (
        lambda: problems.entropy_consensus(d=3, m=4, seed=0),
        kernels.boltzmann_shannon, 0.5,
        ("done", "done", "domain 1", "domain 0",
         "domain 1", "domain 0", "iterate 1", "domain 0"),
        ("done", "done", "domain 1", "domain 0",
         "domain 1", "domain 0", "iterate 1", "domain 0")),
    "poisson-burg": (
        lambda: problems.poisson_inverse(d=4, n=5, m=4, seed=0),
        kernels.burg, 0.5,
        ("done", "done", "done", "done",
         "domain 17", "domain 5", "domain 1", "domain 1"),
        ("done", "done", "done", "done",
         "domain 17", "domain 5", "metric 1", "metric 1")),
    "poisson-boltzmann_shannon": (
        lambda: problems.poisson_inverse(d=4, n=5, m=4, seed=0),
        kernels.boltzmann_shannon, 0.5,
        ("done", "done", "domain 1", "domain 0",
         "domain 1", "domain 0", "domain 1", "domain 0"),
        ("done", "done", "domain 1", "domain 0",
         "domain 1", "domain 0", "metric 1", "domain 0")),
    "phase_retrieval-quartic": (
        lambda: problems.phase_retrieval(d=3, n=6, m=4, noise_sd=0.0, seed=0),
        kernels.quartic, 0.5,
        ("done", "done", "domain 121", "iterate 68",
         "domain 121", "iterate 68", "domain 134", "domain 71"),
        ("done", "done", "metric 61", "metric 35",
         "metric 61", "metric 35", "metric 68", "metric 36")),
    "tv_deblur-burg": (
        lambda: problems.tv_deblur(4, 4, blur_len=3), kernels.burg, 0.5,
        ("done", "done", "done", "done",
         "domain 215", "domain 153", "done", "domain 150"),
        ("done", "done", "done", "done",
         "domain 215", "domain 153", "done", "metric 150")),
}


@pytest.mark.parametrize("family", _DIVERGENCE_MATRIX)
def test_diverging_steps_raise_no_warning_from_the_step_rules(family):
    # every algorithm diverges somewhere at these steps; recorded or not,
    # each cell ends with a status and a reason, and nothing warns on the
    # way, from any file
    make, kernel, x0, *want = _DIVERGENCE_MATRIX[family]
    prob = make()
    x0 = np.full(prob.d, x0)
    mix = network.metropolis_weights(network.ring_graph(4))
    reasons = {"domain": "DomainViolation", "iterate": "non-finite iterate",
               "metric": "non-finite metric"}
    for record_every, cells in enumerate(want):
        got = []
        for algorithm in algorithms.ALGORITHMS:
            for eta in (10.0, 1e3):
                delta = 1.0 if algorithm == "dmgt" else math.inf
                cfg = AlgoConfig(algorithm, eta=eta, max_iter=500, delta=delta)
                k = cli.kernel_for_algorithm(algorithm, kernel(prob.d), x0)
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter("always")
                    res = algorithms.run(prob, k, mix, cfg, x0, L=1.0,
                                         record_every=record_every)
                assert not [(w.filename, w.lineno) for w in caught
                            if issubclass(w.category, RuntimeWarning)], \
                    (record_every, algorithm, eta)
                got.append((res.status, res.diverged_at,
                            res.reason.split(":")[0]))
        assert got == [("done", None, "") if c == "done" else
                       ("diverged", int(c.split()[1]), reasons[c.split()[0]])
                       for c in cells], record_every
