import math

import numpy as np
import pytest

import oracles
from dualmix import algorithms, cli, diagnostics, domains, kernels, network, \
    problems
from dualmix.algorithms import AgentSystem, AlgoConfig
from dualmix.errors import NotInImage, SingularHessian


def _system(X, Z, Y, t=0):
    return AgentSystem(X=np.asarray(X, float), Z=np.asarray(Z, float),
                       Y=np.asarray(Y, float), grads=np.zeros_like(X), t=t)


# ---------------------------------------------------------------------------
# Stationarity
# ---------------------------------------------------------------------------


def test_stationarity_unconstrained():
    prob = problems.quadratic_consensus(d=4, m=3, seed=0)
    assert oracles.stationarity(prob, prob.x_true) == \
        pytest.approx(0.0, abs=1e-10)
    x = prob.x_true + 1.0
    assert oracles.stationarity(prob, x) == \
        pytest.approx(np.linalg.norm(prob.grad(x)))


def test_stationarity_orthant_interior_is_gradient_norm():
    prob = problems.poisson_inverse(d=5, n=6, m=2, seed=1)
    x = np.full(5, 0.5)
    assert oracles.stationarity(prob, x) == \
        pytest.approx(np.linalg.norm(prob.grad(x)))


def _zero_quadratic(domain):
    """f = 0 on ``domain``, a stand-in whose ``grad`` a test then replaces."""
    return problems.Quadratic(name="g", domain=domain,
                              Q=np.zeros((1, domain.dim, domain.dim)),
                              c=np.zeros((1, domain.dim)))


def test_stationarity_orthant_active_projection():
    # x_1 active, grad = (-2, 3, 0): the projection onto -N keeps the
    # nonnegative part at the active coordinate, so the residual is
    # (min(g_1, 0), g_2, g_3) with norm sqrt(13).  (g_1 = -2 means descent
    # into the feasible region is still possible, so it must count.)
    prob = _zero_quadratic(problems.domains.orthant(3))
    prob.grad = lambda x: np.array([-2.0, 3.0, 0.0])
    x = np.array([0.0, 1.0, 1.0])
    got = oracles.stationarity(prob, x)
    # independent oracle: minimize |g - v| over v in -N = {v1 >= 0, v2=v3=0}
    oracle = math.sqrt(min(-2.0, 0.0) ** 2 + 3.0**2 + 0.0**2)
    assert got == pytest.approx(oracle)
    # a nonnegative gradient at the active coordinate is absorbed entirely
    prob.grad = lambda x: np.array([2.0, 3.0, 0.0])
    assert oracles.stationarity(prob, x) == \
        pytest.approx(3.0)


def test_stationarity_box_faces():
    prob = _zero_quadratic(problems.domains.box(2))
    prob.grad = lambda x: np.array([-1.5, 2.5])
    # at the upper face the positive part remains; at the lower the negative
    assert oracles.stationarity(prob, np.array([1.0, -1.0])) == \
        pytest.approx(0.0, abs=1e-15)
    assert oracles.stationarity(prob, np.array([-1.0, 1.0])) == \
        pytest.approx(math.hypot(1.5, 2.5))


def test_local_stationarity_vanishes_at_boundary_active_optimum():
    # On the orthant the minimizer is max(c, 0), active where c_i < 0 with
    # gradient -c_i there.  Interior points approaching it keep the full
    # gradient norm as normal-cone stationarity, while the Burg local norm
    # goes to 0 because the inverse Hessian x^2 / (mu x^2 + 1) does.
    c = np.array([-2.0, 1.5, -0.5, 3.0])
    # f(x) = |x - c|^2 / 2: the quadratic family with Q = I
    prob = problems.Quadratic(name="shifted_square",
                              domain=problems.domains.orthant(4),
                              Q=np.eye(4)[None], c=c[None])
    k = kernels.burg(4)
    x_star = np.maximum(c, 0.0)
    c_active = np.linalg.norm(c[c < 0])
    locs = []
    for eps in (1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        x = x_star + eps
        assert oracles.stationarity(prob, x) >= c_active
        locs.append(diagnostics.local_stationarity(prob, k, x))
    assert all(b < a for a, b in zip(locs, locs[1:]))
    assert locs[-1] < 1e-5 * locs[0]


def test_local_stationarity_euclidean_is_gradient_norm():
    prob = problems.quadratic_consensus(d=5, m=3, seed=2)
    x = np.random.default_rng(4).standard_normal(5)
    k = kernels.euclidean(5)
    assert diagnostics.local_stationarity(prob, k, x) == \
        pytest.approx(oracles.stationarity(prob, x), rel=1e-14)


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


def test_consensus_potential_zero_at_consensus():
    k = kernels.euclidean(2)
    X = np.tile([1.0, 2.0], (3, 1))
    s = _system(X, X, np.tile([0.5, 0.5], (3, 1)))
    prob = problems.quadratic_consensus(d=2, m=3, seed=0)
    assert oracles.consensus_potential(s, k, 1.0, 0.5, 1.0) == \
        pytest.approx(0.0, abs=1e-20)


def test_consensus_potential_euclidean_hand_value():
    # m=2, trackers (1,),(-1,), z at consensus, L=lambda=1, rho=0:
    # E = (1/2)(1 + 1) = 1 and the xi term vanishes
    k = kernels.euclidean(1)
    X = np.array([[2.0], [2.0]])
    Y = np.array([[1.0], [-1.0]])
    s = _system(X, X, Y)
    assert oracles.consensus_potential(s, k, 1.0, 0.0, 1.0) == \
        pytest.approx(1.0)


def test_consensus_potential_xi_scaling():
    k = kernels.euclidean(2)
    rng = np.random.default_rng(0)
    X = rng.standard_normal((4, 2))
    s = _system(X, X, np.zeros((4, 2)))
    e1 = oracles.consensus_potential(s, k, 1.0, 0.5, 1.0)
    e2 = oracles.consensus_potential(s, k, 2.0, 0.5, 1.0)
    assert e2 == pytest.approx(4.0 * e1)  # xi scales with L^2


def test_lambda_of_values():
    assert diagnostics.lambda_of(kernels.euclidean(3), 5, 0.3, 2.0) == 1.0
    bs = kernels.boltzmann_shannon(3)
    got = diagnostics.lambda_of(bs, 1, 0.0, 0.1)
    assert got == pytest.approx(math.exp(math.sqrt(20.0) * 0.1))
    assert diagnostics.lambda_of(bs, 4, 0.5, 0.0) == 1.0
    assert diagnostics.lambda_of(kernels.euclidean(2), 3, 0.5, math.inf) == 1.0
    assert math.isinf(diagnostics.lambda_of(bs, 3, 0.5, math.inf))


def test_optimality_measure_zero_at_fixed_point():
    k = kernels.euclidean(2)
    X = np.tile([0.3, -0.1], (3, 1))
    s0 = _system(X, X, np.zeros((3, 2)), t=0)
    s1 = _system(X, X, np.zeros((3, 2)), t=1)
    assert oracles.optimality_measure(s0, s1, k, 1.0, 0.1, 0.2, 1.0) == \
        pytest.approx(0.0, abs=1e-20)


def test_optimality_measure_hand_built_euclidean():
    k = kernels.euclidean(1)
    L, eta, rho, lam = 2.0, 0.1, 0.25, 1.0
    X0 = np.array([[1.0], [3.0]])
    Y0 = np.array([[0.5], [1.5]])
    X1 = np.array([[0.8], [2.6]])
    s0 = _system(X0, X0, Y0, t=0)
    s1 = _system(X1, X1, Y0, t=1)
    dz = X1.mean() - X0.mean()
    term1 = dz * dz / (12 * eta * eta)
    term2 = (L / eta) * 0.5 * dz * dz
    xi = 32 * L * L / (1 - rho) ** 2
    E = 0.5 * ((0.5 - 1.0) ** 2 + (1.5 - 1.0) ** 2 + xi * (1.0 + 1.0))
    term3 = (1 - rho) / (32 * L * eta) * E
    got = oracles.optimality_measure(s0, s1, k, L, eta, rho, lam)
    assert got == pytest.approx(term1 + term2 + term3, rel=1e-12)


def test_case1_formula_matches_generic_on_runs():
    prob = problems.quadratic_consensus(d=5, m=4, seed=3)
    mix = network.metropolis_weights(network.erdos_renyi(4, 0.8, seed=2))
    k = kernels.euclidean(5)
    L = prob.meta["L_exact"]
    eta = 0.5 * (1 - mix.rho) ** 2 / (25 * L)
    cfg = AlgoConfig("dmgt", eta=eta, delta=1e9, max_iter=40)
    pairs = []
    algorithms.run(prob, k, mix, cfg, np.zeros(5), L=L,
                   hooks=[lambda t, a, b: pairs.append((a, b))])
    for prev, cur in pairs:
        general = oracles.optimality_measure(prev, cur, k, L, eta,
                                             mix.rho, 1.0)
        special = oracles.case1_optimality(prev, L, eta, mix.rho)
        assert abs(general - special) <= 1e-10 * (1.0 + abs(special))


def test_descent_potential_composition():
    prob = problems.quadratic_consensus(d=3, m=3, seed=1)
    k = kernels.euclidean(3)
    rng = np.random.default_rng(4)
    X = rng.standard_normal((3, 3))
    s = _system(X, X, rng.standard_normal((3, 3)))
    L = 2.0
    E = oracles.consensus_potential(s, k, L, 0.4, 1.0)
    M = oracles.descent_potential(s, prob, k, L, 0.4, 1.0)
    xbar = k.grad_conj(s.Z.mean(axis=0))
    assert M == pytest.approx(prob.value(xbar) + E / (8 * L), rel=1e-12)


def test_theorem_bound_check_requires_finite_G():
    rec = diagnostics.RunRecord(run_id="r", algorithm="dmgt", kernel="euc",
                                t=0, f_bar=1.0, stationarity=1.0,
                                consensus_primal=0, consensus_dual=0,
                                E_t_proxy=0, M_t_proxy=1.0)
    with pytest.raises(ValueError):
        diagnostics.theorem_bound_check([rec], 1.0, 0.0, 0.1, 1)
    rec.G_proxy = 2.0
    ok, margin = diagnostics.theorem_bound_check([rec], 1.0, 0.0, 0.1, 1)
    assert ok == (2.0 <= 1.0 / 0.1) and margin == pytest.approx(8.0)


# ---------------------------------------------------------------------------
# Records and CSV schema
# ---------------------------------------------------------------------------


def test_csv_schema_and_precision():
    rec = diagnostics.RunRecord(
        run_id="a", algorithm="dmgt", kernel="burg(mu=1)", t=3,
        f_bar=1.0 / 3.0, stationarity=2e-7, consensus_primal=0.0,
        consensus_dual=1e-30, E_t_proxy=5.5, M_t_proxy=6.0, G_proxy=math.nan,
        rel_error=0.25, clipped=True, status="running")
    row = rec.csv_row()
    cells = row.split(",")
    assert len(cells) == len(diagnostics.CSV_COLUMNS)
    assert cells[0] == "a" and cells[3] == "3"
    assert cells[4] == f"{1.0 / 3.0:.17g}"
    assert float(cells[4]) == 1.0 / 3.0  # 17 significant digits round-trip
    assert cells[12] == "1" and cells[13] == "running"
    text = diagnostics.records_to_csv([rec])
    header = text.splitlines()[0]
    assert header == ",".join(diagnostics.CSV_COLUMNS)


def test_recorder_backfills_G_and_marks_final():
    prob = problems.quadratic_consensus(d=3, m=3, seed=2)
    mix = network.metropolis_weights(network.complete_graph(3))
    k = kernels.euclidean(3)
    cfg = AlgoConfig("dmgt", eta=0.05, delta=1e9, max_iter=5)
    res = algorithms.run(prob, k, mix, cfg, np.zeros(3), L=prob.meta["L_exact"])
    assert len(res.records) == 6
    assert all(math.isfinite(r.G_proxy) for r in res.records[:-1])
    assert math.isnan(res.records[-1].G_proxy)
    assert res.records[-1].status == "done"
    assert all(r.status == "running" for r in res.records[:-1])


def _two_solve_consensus(s, k, L, rho, lam):
    """E_t with one inverse-Hessian solve per block, written out."""
    m = s.X.shape[0]
    xbar = k.grad_conj(s.Z.mean(axis=0))
    Yc = s.Y - s.Y.mean(axis=0)
    Zc = s.Z - s.Z.mean(axis=0)
    HY = k.hess_solve(np.broadcast_to(xbar, Yc.shape), Yc)
    HZ = k.hess_solve(np.broadcast_to(xbar, Zc.shape), Zc)
    xi = diagnostics.xi_const(L, rho, lam)
    return float(np.sum(HY * Yc) + xi * np.sum(HZ * Zc)) / m


# long enough for the recorder's chunks to cross two boundaries and for
# the run to end in the middle of a chunk
_RECORDED_ITERS = 80


def _recorded_case(case):
    """One short run of a (problem, kernel, algorithm) case used by the CSV
    equivalence tests: its result, every state it passed through, and the
    parameters its recorder used."""
    if case.startswith("poisson"):
        prob = problems.poisson_inverse(d=8, n=6, m=4, seed=2)
        kernel, x0, L = kernels.burg(8), np.full(8, 0.5), prob.meta["L_analytic"]
    elif case.startswith("quadraticA"):
        prob = problems.quadratic_consensus(d=5, m=4, seed=2)
        B = np.random.default_rng(2).standard_normal((5, 5))
        kernel = kernels.euclidean(5, A=B @ B.T + 5.0 * np.eye(5))
        x0, L = np.zeros(5), prob.meta["L_exact"]
    elif case.startswith("entropy"):
        prob = problems.entropy_consensus(d=5, m=4, seed=2)
        kernel, x0 = kernels.boltzmann_shannon(5), np.full(5, 0.5)
        L = prob.meta["L_exact"]
    elif case.startswith("tv"):
        prob = problems.tv_deblur(d_img=4, m=4, blur_len=3, seed=2)
        kernel, x0, L = kernels.burg(16), np.full(16, 50.0), 1.0
    else:
        prob = problems.phase_retrieval(d=6, n=12, m=4, noise_sd=0.1, seed=2)
        kernel, x0, L = kernels.quartic(6), np.full(6, 0.3), 50.0
    algo = case.split("-")[1]
    delta = 1.0 if algo == "dmgt" else math.inf
    if algo == "dda":
        kernel = cli.kernel_for_algorithm("dda", kernel, x0)
    mix = network.metropolis_weights(network.ring_graph(4))
    cfg = AlgoConfig(algo, eta=1e-3, delta=delta, max_iter=_RECORDED_ITERS)
    states = []

    def keep(t, prev, cur):
        if not states:
            states.append(prev)
        states.append(cur)

    res = algorithms.run(prob, kernel, mix, cfg, x0, L=L, run_id="r",
                         hooks=[keep])
    lam = diagnostics.lambda_of(kernel, prob.m, mix.rho, delta)
    lam = lam if math.isfinite(lam) else 1.0
    return res, states, prob, kernel, L, cfg.eta, mix.rho, lam


_CSV_CASES = ["poisson-dmgt", "poisson-dda", "phase-dgt", "quadraticA-dmgt",
              "entropy-dmd", "tv-dmgt"]


def test_recorded_cases_cross_two_chunk_boundaries_and_end_mid_chunk():
    states = _RECORDED_ITERS + 1
    assert 2 * diagnostics.CHUNK < states < 3 * diagnostics.CHUNK


@pytest.mark.parametrize("case", _CSV_CASES)
def test_recorder_rows_equal_public_metrics(case):
    res, states, prob, k, L, eta, rho, lam = _recorded_case(case)
    assert res.status == "done" and len(res.records) == len(states) == 81
    for t, s in enumerate(states):
        zbar, xbar = oracles.dual_average(s, k)
        last = t + 1 == len(states)
        want = diagnostics.RunRecord(
            run_id="r", algorithm=case.split("-")[1], kernel=k.name, t=s.t,
            f_bar=prob.value(xbar),
            stationarity=oracles.stationarity(prob, xbar),
            consensus_primal=float(np.sum((s.X - s.X.mean(axis=0)) ** 2)) / prob.m,
            consensus_dual=float(np.sum((s.Z - zbar) ** 2)) / prob.m,
            E_t_proxy=oracles.consensus_potential(s, k, L, rho, lam),
            M_t_proxy=oracles.descent_potential(s, prob, k, L, rho, lam),
            G_proxy=(math.nan if last else oracles.optimality_measure(
                s, states[t + 1], k, L, eta, rho, lam)),
            clipped=s.clipped, status="done" if last else "running")
        assert res.records[t].csv_row() == want.csv_row()


@pytest.mark.parametrize("case", _CSV_CASES)
def test_consensus_potential_stacked_solve_equals_two_solves(case):
    # the reference E_t takes one solve on [Y - ybar; Z - zbar] at xbar
    # broadcast over the rows, as the reference CSVs were recorded; it must
    # give the bits of one solve per block, or recorded E, M and G would move
    _, states, _, k, L, _, rho, lam = _recorded_case(case)
    for s in states:
        assert oracles.consensus_potential(s, k, L, rho, lam) == \
            _two_solve_consensus(s, k, L, rho, lam)


def test_a_run_whose_last_state_closes_a_chunk_ends_with_an_empty_flush():
    # the 32nd state fills the chunk, so the final flush finds no state;
    # the rows are a longer run's first 32, the last one done without a G
    prob = problems.quadratic_consensus(d=5, m=4, seed=1)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.euclidean(5)
    runs = [algorithms.run(prob, k, mix,
                           AlgoConfig("dmgt", eta=0.05, delta=0.7,
                                      max_iter=max_iter), np.zeros(5), L=1.0)
            for max_iter in (diagnostics.CHUNK - 1, 2 * diagnostics.CHUNK)]
    short, long = (r.records for r in runs)
    assert runs[0].status == "done" and len(short) == diagnostics.CHUNK
    assert [r.csv_row() for r in short[:-1]] == \
        [r.csv_row() for r in long[:diagnostics.CHUNK - 1]]
    long[diagnostics.CHUNK - 1].G_proxy = math.nan
    long[diagnostics.CHUNK - 1].status = "done"
    assert short[-1].csv_row() == long[diagnostics.CHUNK - 1].csv_row()


def test_recorder_checks_and_builds_the_hessian_once_per_chunk(monkeypatch):
    # each chunk's xbar pass one interior check and get one Hessian
    # diagonal, shared by E_t, the dual term of G and the Bregman term; dda's
    # shifted kernel pushes its points once per oracle and chunk: the
    # Hessian, h and grad h, where per-state evaluation pushed 3 per state
    counts = {"is_interior": 0, "hess_diag": 0, "_push": 0, "chunks": 0}
    flushing = []

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            if flushing:
                counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    recorder_flush = diagnostics.Recorder.flush

    def flush(self):
        counts["chunks"] += self.pending > 0
        flushing.append(1)
        try:
            return recorder_flush(self)
        finally:
            flushing.pop()

    monkeypatch.setattr(domains.Domain, "is_interior",
                        counted("is_interior", domains.Domain.is_interior))
    monkeypatch.setattr(kernels.SeparableKernel, "hess_diag",
                        counted("hess_diag", kernels.SeparableKernel.hess_diag))
    monkeypatch.setattr(kernels.AffineKernel, "_push",
                        counted("_push", kernels.AffineKernel._push))
    monkeypatch.setattr(diagnostics.Recorder, "flush", flush)
    for case in ("poisson-dmgt", "poisson-dda"):
        counts.update(is_interior=0, hess_diag=0, _push=0, chunks=0)
        res, *_ = _recorded_case(case)
        assert res.status == "done" and len(res.records) == 81
        assert all(math.isfinite(r.G_proxy) for r in res.records[:-1])
        assert counts["chunks"] == 3  # 81 states in chunks of 32, 32 and 17
        assert counts["is_interior"] <= counts["chunks"] <= len(res.records)
        assert counts["hess_diag"] <= counts["chunks"]
        assert counts["_push"] == (3 * counts["chunks"] if case.endswith("dda")
                                   else 0)


def test_batched_record_forms_round_like_one_state():
    # the recorder's chunk pass keeps each state's bits through these forms
    rng = np.random.default_rng(8)
    for m, d in ((4, 6), (8, 200), (10, 50)):
        Z = rng.standard_normal((17, m, d)) * 10.0 ** rng.integers(-3, 4, (17, 1, 1))
        u, v = Z[:, 0], Z[:, 1]
        dots, sums = diagnostics._row_dot(u, v), diagnostics._state_sum(Z)
        means = Z.mean(axis=-2)
        for k in range(17):
            assert dots[k] == np.dot(u[k], v[k])
            assert np.sqrt(diagnostics._row_dot(u, u)[k]) == np.linalg.norm(u[k])
            assert sums[k] == Z[k].sum()
            assert means[k].tobytes() == Z[k].mean(axis=0).tobytes()


def test_a_chunk_state_that_raises_ends_the_stream_alone(monkeypatch):
    # a divergence error in a chunk's pass is redone state by state: the
    # state that raises ends the stream, with no record of its own, after
    # the states before it are recorded with the records of a clean run
    # (the last one without its G)
    prob = problems.quadratic_consensus(d=5, m=4, seed=1)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.euclidean(5)
    cfg = AlgoConfig("dmgt", eta=0.05, delta=0.7, max_iter=40)
    states = []
    clean = algorithms.run(prob, k, mix, cfg, np.zeros(5), L=1.0,
                           hooks=[lambda t, prev, cur: states.append(cur)])
    bad = k.grad_conj(states[20].Z.mean(axis=0))  # t = 21, second flush
    hess_solver = k.hess_solver

    def singular_at_bad(x):
        if (np.asarray(x) == bad).all(axis=-1).any():
            raise SingularHessian("singular at the marked state")
        return hess_solver(x)

    monkeypatch.setattr(k, "hess_solver", singular_at_bad)
    rec = diagnostics.Recorder(prob, k, mix.rho, 1.0, cfg.eta, cfg.delta,
                               run_id="run", algorithm="dmgt")
    rec.observe(algorithms.init_system(prob, k, np.zeros(5), cfg))
    for s in states[:15]:
        rec.observe(s)
    rec.flush()
    for s in states[15:31]:
        rec.observe(s)
    reason = "SingularHessian: singular at the marked state"
    assert rec.flush()[1] == reason
    assert [r.t for r in rec.records] == list(range(21))
    want = [r.csv_row() for r in clean.records[:21]]
    clean.records[20].G_proxy = math.nan
    assert [r.csv_row() for r in rec.records] == \
        want[:20] + [clean.records[20].csv_row()]
    # a recorded run ends diverged there
    res = algorithms.run(prob, k, mix, cfg, np.zeros(5), L=1.0)
    assert (res.status, res.diverged_at, res.reason, res.system.t) == \
        ("diverged", 21, reason, 21)
    assert [r.t for r in res.records] == list(range(21))


def _quad_dmgt(max_iter=40):
    prob = problems.quadratic_consensus(d=5, m=4, seed=1)
    mix = network.metropolis_weights(network.ring_graph(4))
    cfg = AlgoConfig("dmgt", eta=0.05, delta=0.7, max_iter=max_iter)
    return prob, mix, kernels.euclidean(5), cfg


def test_a_G_pairs_a_state_only_with_its_successor():
    # an unrecorded run evaluates states 0 and T together: G_0 pairs state 0
    # with its successor only at T = 1, where it has the recorded run's bits
    for max_iter in (40, 1):
        prob, mix, k, cfg = _quad_dmgt(max_iter)
        rows = [algorithms.run(prob, k, mix, cfg, np.zeros(5), L=1.0,
                               record_every=every).records
                for every in (0, 1)]
        unrecorded, recorded = rows[0], [rows[1][0], rows[1][-1]]
        assert [r.t for r in unrecorded] == [0, max_iter]
        assert math.isfinite(recorded[0].G_proxy)
        if max_iter > 1:
            recorded[0].G_proxy = math.nan
        assert math.isnan(unrecorded[-1].G_proxy)
        assert [r.csv_row() for r in unrecorded] == \
            [r.csv_row() for r in recorded]


def test_a_chunk_ends_at_a_nonfinite_metric_before_a_state_that_raises(
        monkeypatch):
    # the chunk's pass raises at state 12, so it is redone state by state,
    # and the stream ends first at state 10, whose objective is not finite
    prob, mix, k, cfg = _quad_dmgt()
    states = []
    algorithms.run(prob, k, mix, cfg, np.zeros(5), L=1.0,
                   hooks=[lambda t, prev, cur: states.append(cur)])
    inf_at, raise_at = (k.grad_conj(states[t - 1].Z.mean(axis=0))
                        for t in (10, 12))
    value_and_grad, hess_solver = prob.value_and_grad, k.hess_solver

    def value_inf_at_state_10(x):
        f, g = value_and_grad(x)
        return np.where((x == inf_at).all(axis=-1), math.inf, f), g

    def singular_at_state_12(x):
        if (np.asarray(x) == raise_at).all(axis=-1).any():
            raise SingularHessian("singular at state 12")
        return hess_solver(x)

    monkeypatch.setattr(prob, "value_and_grad", value_inf_at_state_10)
    monkeypatch.setattr(k, "hess_solver", singular_at_state_12)
    rec = diagnostics.Recorder(prob, k, mix.rho, 1.0, cfg.eta, cfg.delta)
    rec.observe(algorithms.init_system(prob, k, np.zeros(5), cfg))
    for s in states[:20]:
        rec.observe(s)
    got, reason = rec.flush()
    assert reason == "non-finite metric" and got[-1][0].t == 10
    assert [r.t for r in rec.records] == list(range(11))
    assert rec.records[-1].f_bar == math.inf


def test_an_unrecorded_final_state_that_raises_ends_its_cell_alone(
        monkeypatch):
    # cell 0's state at max_iter cannot be evaluated: it ends diverged
    # there, without a record of it, and cell 1 finishes; a recorded run
    # ends cell 0 at the same t, with the same reason
    prob, mix, k, cfg = _quad_dmgt(max_iter=10)
    cfgs = [cfg, AlgoConfig("dmgt", eta=0.02, delta=0.7, max_iter=10)]
    states = []
    algorithms.run(prob, k, mix, cfg, np.zeros(5), L=1.0,
                   hooks=[lambda t, prev, cur: states.append(cur)])
    bad = k.grad_conj(states[-1].Z.mean(axis=0))
    hess_solver = k.hess_solver

    def singular_at_bad(x):
        if (np.asarray(x) == bad).all(axis=-1).any():
            raise SingularHessian("singular at the final state")
        return hess_solver(x)

    monkeypatch.setattr(k, "hess_solver", singular_at_bad)
    reason = "SingularHessian: singular at the final state"
    for every, ts, good_ts in ((0, [0], [0, 10]),
                               (1, list(range(10)), list(range(11)))):
        bad_cell, good = algorithms.run(prob, k, mix, cfgs, np.zeros(5),
                                        L=1.0, record_every=every)
        assert (bad_cell.status, bad_cell.diverged_at, bad_cell.reason,
                bad_cell.system.t) == ("diverged", 10, reason, 10)
        assert [r.t for r in bad_cell.records] == ts
        assert bad_cell.records[-1].status == "diverged"
        assert good.status == "done"
        assert [r.t for r in good.records] == good_ts


def test_a_diverged_cell_skips_its_final_observation_alone(monkeypatch):
    # cell 0's step out of state 5 raises, so its final state is state 5,
    # whose evaluation raises as well; it keeps its initial record, which
    # shared a chunk with that state, and cell 1 keeps both of its records
    prob = problems.quadratic_consensus(d=5, m=4, seed=1)
    mix = network.metropolis_weights(network.ring_graph(4))
    k = kernels.euclidean(5)
    cfgs = [AlgoConfig("dmgt", eta=eta, delta=0.7, max_iter=10)
            for eta in (0.05, 0.02)]
    states = []
    algorithms.run(prob, k, mix, cfgs[0], np.zeros(5), L=1.0,
                   hooks=[lambda t, prev, cur: states.append(cur)])
    step_in, final = states[5].Z, states[4].Z  # Z at t = 6 and t = 5
    grad_conj = k.grad_conj

    def marked(z):
        z = np.asarray(z)
        rows = z.reshape(-1, z.shape[-1])
        return ((rows == step_in[0]).all(axis=-1).any()
                or (rows == final.mean(axis=0)).all(axis=-1).any())

    def not_in_image_when_marked(z):
        if marked(z):
            raise NotInImage("marked dual vector")
        return grad_conj(z)

    monkeypatch.setattr(k, "grad_conj", not_in_image_when_marked)
    bad, good = algorithms.run(prob, k, mix, cfgs, np.zeros(5), L=1.0,
                               record_every=0)
    assert (bad.status, bad.diverged_at, bad.reason) == \
        ("diverged", 5, "NotInImage: marked dual vector")
    assert bad.system.t == 5 and [r.t for r in bad.records] == [0]
    assert good.status == "done" and [r.t for r in good.records] == [0, 10]
