import numpy as np
import pytest

from dualmix import network
from dualmix.errors import Disconnected, PreconditionViolated


def test_metropolis_complete_graph():
    mix = network.metropolis_weights(network.complete_graph(4))
    np.testing.assert_allclose(mix.W, np.full((4, 4), 0.25))
    assert mix.rho == pytest.approx(0.0, abs=1e-14)


def test_metropolis_four_cycle():
    mix = network.metropolis_weights(network.ring_graph(4))
    # circulant eigenvalues (1/3)(1 + 2 cos(2 pi k / 4))
    assert mix.rho == pytest.approx(1.0 / 3.0, rel=1e-12)
    off = mix.W[0, 1]
    assert off == pytest.approx(1.0 / 3.0)
    assert mix.W[0, 0] == pytest.approx(1.0 / 3.0)


def test_metropolis_single_edge():
    mix = network.metropolis_weights(network.Graph(2, [(0, 1)]))
    np.testing.assert_allclose(mix.W, [[0.5, 0.5], [0.5, 0.5]])
    assert mix.rho == pytest.approx(0.0, abs=1e-14)


def _per_edge_metropolis(graph):
    """The Metropolis weights written out edge by edge: the degrees from an
    adjacency filled per edge, W_ij = 1/(1 + max(deg_i, deg_j)) per edge,
    and the diagonal filling each row's remaining mass."""
    A = np.zeros((graph.m, graph.m))
    for i, j in graph.edges:
        A[i, j] = A[j, i] = 1.0
    deg = A.sum(axis=1)
    W = np.zeros((graph.m, graph.m))
    for i, j in graph.edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return W, network.spectral_gap(W)


def _graph_grid():
    for m in range(1, 25):
        yield network.complete_graph(m)
    for m in range(2, 25):
        yield network.ring_graph(m)
        for p in (0.1, 0.3, 0.5, 0.9, 1.0):
            for seed in (0, 3):
                try:
                    yield network.erdos_renyi(m, p, seed=seed)
                except Disconnected:  # p too small to connect m vertices
                    pass


def test_metropolis_weights_match_the_per_edge_formula_bitwise():
    # W's bits reach every output through the mixing products and rho
    count = 0
    for g in _graph_grid():
        mix = network.metropolis_weights(g)
        W, rho = _per_edge_metropolis(g)
        assert mix.W.tobytes() == W.tobytes(), (g.m, g.edges)
        assert mix.rho == rho
        count += 1
    assert count > 250


# (m, p, seed) -> (retries, edges) of the connected draw
_ERDOS_RENYI_DRAWS = {
    (6, 0.25, 3): (0, [(0, 1), (0, 2), (0, 5), (1, 4), (2, 3)]),
    (5, 0.3, 0): (2, [(0, 1), (0, 4), (1, 2), (1, 4), (3, 4)]),
    (4, 0.6, 7): (1, [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    (10, 0.1, 2): (237, [(0, 4), (1, 6), (2, 6), (3, 5), (3, 7), (4, 9),
                         (5, 7), (5, 9), (6, 8), (6, 9), (8, 9)]),
}


@pytest.mark.parametrize("key", sorted(_ERDOS_RENYI_DRAWS))
def test_erdos_renyi_draws_are_pinned(key):
    m, p, seed = key
    g = network.erdos_renyi(m, p, seed=seed)
    assert (g.retries, g.edges) == _ERDOS_RENYI_DRAWS[key]
    assert all(type(i) is int and type(j) is int for i, j in g.edges)


def test_ring_edges():
    assert network.ring_graph(2).edges == [(0, 1)]
    assert network.ring_graph(5).edges == [(0, 1), (0, 4), (1, 2), (2, 3),
                                           (3, 4)]


def test_metropolis_requires_connected():
    with pytest.raises(Disconnected):
        network.metropolis_weights(network.Graph(3, [(0, 1)]))


def test_erdos_renyi_reproducible_and_connected():
    g1 = network.erdos_renyi(32, 0.3, seed=7)
    g2 = network.erdos_renyi(32, 0.3, seed=7)
    assert g1.edges == g2.edges
    assert g1.is_connected()
    g3 = network.erdos_renyi(32, 0.3, seed=8)
    assert g3.edges != g1.edges


def test_erdos_renyi_extremes():
    g = network.erdos_renyi(4, 1.0, seed=0)
    assert len(g.edges) == 6  # complete graph
    g2 = network.erdos_renyi(2, 1.0, seed=0)
    assert g2.edges == [(0, 1)]
    with pytest.raises(ValueError):
        network.erdos_renyi(1, 0.5, seed=0)
    with pytest.raises(ValueError):
        network.erdos_renyi(4, 0.0, seed=0)


def test_erdos_renyi_retries_recorded():
    # tiny p forces regeneration; the substream index is recorded
    g = network.erdos_renyi(6, 0.25, seed=3)
    assert g.retries >= 0
    assert g.is_connected()


def test_mixing_invariants_random_graphs():
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(2, 20))
        g = network.erdos_renyi(m, 0.5, seed=int(rng.integers(10**6)))
        mix = network.metropolis_weights(g)
        mix.validate()
        assert np.max(np.abs(mix.W - mix.W.T)) <= 1e-14
        ones = np.ones(m)
        assert np.max(np.abs(mix.W @ ones - ones)) <= 1e-12
        assert np.min(mix.W) >= 0.0
        assert mix.rho < 1.0


def test_rho_decreases_along_densifying_chain():
    # ring(8) -> ring + diameters -> complete: a verified nested chain.
    # (Monotonicity does NOT hold for arbitrary edge additions under
    # Metropolis weights: C4 plus one chord raises rho from 1/3 to 1/2.)
    m = 8
    ring = network.ring_graph(m)
    with_diam = network.Graph(m, sorted(ring.edges + [(i, i + m // 2)
                                                      for i in range(m // 2)]))
    chain = [ring, with_diam, network.complete_graph(m)]
    rhos = [network.metropolis_weights(g).rho for g in chain]
    assert rhos[0] > rhos[1] > rhos[2]
    assert rhos[2] == pytest.approx(0.0, abs=1e-14)


def test_rho_not_monotone_counterexample():
    # documents the spec-level caveat above
    c4 = network.metropolis_weights(network.ring_graph(4))
    chord = network.Graph(4, sorted(network.ring_graph(4).edges + [(0, 2)]))
    c4_chord = network.metropolis_weights(chord)
    assert c4.rho == pytest.approx(1.0 / 3.0)
    assert c4_chord.rho == pytest.approx(0.5)
    assert c4_chord.rho > c4.rho


def _spd(rng, d, shift=0.3):
    Q = rng.standard_normal((d, d))
    return Q @ Q.T + shift * np.eye(d)


def test_contraction_trivial_cases():
    mix = network.metropolis_weights(network.complete_graph(3))
    d = 4
    V = np.tile(np.arange(d, dtype=float), (3, 1))
    U = np.zeros((3, d))
    H = np.eye(d)
    assert network.contraction_check(mix, H, H, V, U)
    # rho = 0: full averaging kills any disagreement
    V2 = np.random.default_rng(0).standard_normal((3, d))
    assert network.contraction_check(mix, H, H, V2, U)


def test_contraction_random_instances():
    rng = np.random.default_rng(42)
    count = 0
    while count < 200:
        m = int(rng.integers(2, 17))
        d = int(rng.integers(1, 9))
        g = network.erdos_renyi(m, 0.6, seed=int(rng.integers(10**6)))
        mix = network.metropolis_weights(g)
        H = _spd(rng, d)
        alpha = (1.0 - mix.rho) / 2.0
        E = rng.standard_normal((d, d))
        E = 0.5 * (E + E.T)
        E *= 0.95 * alpha / max(np.linalg.norm(E, 2), 1e-12)
        vals, vecs = np.linalg.eigh(H)
        Hs = (vecs * np.sqrt(vals)) @ vecs.T
        H_plus = Hs @ (np.eye(d) + E) @ Hs
        V = 3.0 * rng.standard_normal((m, d))
        U = rng.standard_normal((m, d))
        assert network.contraction_check(mix, H, H_plus, V, U, slack=1e-10)
        count += 1


def test_contraction_hypothesis_enforced():
    rng = np.random.default_rng(1)
    mix = network.metropolis_weights(network.ring_graph(6))
    d = 3
    H = np.eye(d)
    H_plus = 10.0 * np.eye(d)  # ratio 10 >> 1 + (1-rho)/2
    with pytest.raises(PreconditionViolated):
        network.contraction_check(mix, H, H_plus,
                                  rng.standard_normal((6, d)),
                                  rng.standard_normal((6, d)))


def test_graph_from_spec():
    assert len(network.graph_from_spec({"kind": "complete"}, 5).edges) == 10
    assert len(network.graph_from_spec({"kind": "ring"}, 5).edges) == 5
    g = network.graph_from_spec({"kind": "erdos_renyi", "p": 0.4, "seed": 2}, 8)
    assert g.is_connected()
    with pytest.raises(ValueError):
        network.graph_from_spec({"kind": "star"}, 4)
    with pytest.raises(ValueError):
        network.graph_from_spec({"kind": "ring", "p": 0.5}, 4)
