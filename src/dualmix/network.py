"""Communication graphs and doubly stochastic mixing matrices."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _spec
from .errors import Disconnected, DisconnectedAfterRetries, PreconditionViolated

MAX_GRAPH_RETRIES = 1000
# MixingMatrix.validate's tolerances on symmetry and on the unit row and
# column sums (and the most negative weight)
SYM_TOL = 1e-14
STOCH_TOL = 1e-12


@dataclass
class Graph:
    """Undirected simple graph on vertices 0..m-1; ``A`` is its adjacency
    matrix, built once from ``edges``."""

    m: int
    edges: list  # sorted (i, j) pairs with i < j
    retries: int = 0  # regenerations needed to reach connectivity
    A: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.A = np.zeros((self.m, self.m))
        i, j = np.array(self.edges, dtype=int).reshape(-1, 2).T
        self.A[i, j] = self.A[j, i] = 1.0

    def is_connected(self) -> bool:
        seen = np.zeros(self.m, dtype=bool)
        frontier = np.arange(self.m) == 0
        while frontier.any():
            seen |= frontier
            frontier = self.A[frontier].any(axis=0) & ~seen
        return bool(seen.all())


def complete_graph(m: int) -> Graph:
    return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def ring_graph(m: int) -> Graph:
    if m < 2:
        raise ValueError("ring needs m >= 2")
    # at m == 2 the closing edge (0, 1) is the first one
    return Graph(m, sorted({(i, i + 1) for i in range(m - 1)} | {(0, m - 1)}))


def erdos_renyi(m: int, p: float = 0.3, seed: int = 0) -> Graph:
    """Connected Erdos-Renyi draw; resamples with fresh substreams until
    connected (at most MAX_GRAPH_RETRIES attempts, retry count recorded)."""
    if m < 2:
        raise ValueError("need m >= 2")
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if int(seed) < 0:
        raise ValueError("seed must be nonnegative")
    iu, ju = np.triu_indices(m, k=1)
    for attempt in range(MAX_GRAPH_RETRIES):
        rng = np.random.default_rng([int(seed), attempt])
        mask = rng.random(len(iu)) < p
        g = Graph(m, list(zip(iu[mask].tolist(), ju[mask].tolist())),
                  retries=attempt)
        if g.is_connected():
            return g
    raise DisconnectedAfterRetries(
        f"no connected graph in {MAX_GRAPH_RETRIES} attempts (m={m}, p={p})")


# kind: constructor, which takes the agent count and then the spec's keys
GRAPHS = {
    "erdos_renyi": erdos_renyi,
    "complete": complete_graph,
    "ring": ring_graph,
}


def graph_from_spec(spec: dict, m: int) -> Graph:
    return _spec.build(GRAPHS, spec, "graph", m)


@dataclass
class MixingMatrix:
    """Symmetric doubly stochastic weights with spectral gap rho < 1."""

    m: int
    W: np.ndarray
    rho: float
    graph: Graph = None

    def validate(self):
        W = self.W
        if np.max(np.abs(W - W.T)) > SYM_TOL:
            raise ValueError("mixing matrix is not symmetric")
        ones = np.ones(self.m)
        if np.max(np.abs(W @ ones - ones)) > STOCH_TOL:
            raise ValueError("row sums differ from 1")
        if np.max(np.abs(ones @ W - ones)) > STOCH_TOL:
            raise ValueError("column sums differ from 1")
        if np.min(W) < -STOCH_TOL:
            raise ValueError("negative mixing weight")
        if not self.rho < 1.0:
            raise ValueError(f"spectral gap rho={self.rho} is not < 1")
        return self


def spectral_gap(W: np.ndarray) -> float:
    """|W - (1/m) 1 1^T| in spectral norm, via a symmetric eigensolve."""
    m = W.shape[0]
    J = np.full((m, m), 1.0 / m)
    return float(np.max(np.abs(np.linalg.eigvalsh(W - J))))


def metropolis_weights(graph: Graph) -> MixingMatrix:
    """Metropolis-Hastings weights: W_ij = 1/(1 + max(deg_i, deg_j)) on edges,
    diagonal fills the remaining mass.  Connected graphs give rho < 1."""
    if not graph.is_connected():
        raise Disconnected("metropolis weights require a connected graph")
    deg = graph.A.sum(axis=1)
    W = graph.A / (1.0 + np.maximum.outer(deg, deg))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return MixingMatrix(m=graph.m, W=W, rho=spectral_gap(W),
                        graph=graph).validate()


def _sqrtm_spd(H: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(H)
    if np.min(vals) <= 0:
        raise PreconditionViolated("matrix is not positive definite")
    return (vecs * np.sqrt(vals)) @ vecs.T


def contraction_check(mix: MixingMatrix, H: np.ndarray, H_plus: np.ndarray,
                      V: np.ndarray, U: np.ndarray, slack: float = 1e-10) -> bool:
    """Check the weighted-norm consensus contraction for V+ = W V + U.

    Hypothesis: |(H+)^(1/2) H^(-1/2)|^2 <= 1 + (1-rho)/2 for SPD H, H+.
    Conclusion (checked within relative ``slack``):
    sum_i |v_i^+ - vbar^+|^2_{H+} <= rho sum_i |v_i - vbar|^2_H
                                     + 3/(1-rho) sum_i |u_i|^2_H.
    """
    W, rho = mix.W, mix.rho
    Hs = _sqrtm_spd(H)
    Hps = _sqrtm_spd(H_plus)
    ratio = np.linalg.norm(Hps @ np.linalg.inv(Hs), 2) ** 2
    if ratio > 1.0 + (1.0 - rho) / 2.0 + 1e-12:
        raise PreconditionViolated(
            f"norm-transition bound {ratio:.6g} exceeds 1 + (1-rho)/2")
    V = np.asarray(V, dtype=float)
    U = np.asarray(U, dtype=float)
    V_plus = W @ V + U

    def disagreement(M, S):
        centered = M - M.mean(axis=0, keepdims=True)
        return float(np.sum((centered @ S) * centered))

    lhs = disagreement(V_plus, H_plus)
    rhs = rho * disagreement(V, H) + 3.0 / (1.0 - rho) * float(np.sum((U @ H) * U))
    return lhs <= rhs + slack * (1.0 + abs(rhs))
