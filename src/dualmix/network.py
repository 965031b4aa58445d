"""Communication graphs and doubly stochastic mixing matrices."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _spec
from .errors import Disconnected, DisconnectedAfterRetries, PreconditionViolated

MAX_GRAPH_RETRIES = 1000


@dataclass
class Graph:
    """Undirected simple graph on vertices 0..m-1."""

    m: int
    edges: list  # sorted (i, j) pairs with i < j
    retries: int = 0  # regenerations needed to reach connectivity

    def adjacency(self) -> np.ndarray:
        A = np.zeros((self.m, self.m))
        for i, j in self.edges:
            A[i, j] = A[j, i] = 1.0
        return A

    def degrees(self) -> np.ndarray:
        return self.adjacency().sum(axis=1)

    def is_connected(self) -> bool:
        if self.m == 1:
            return True
        A = self.adjacency()
        seen = np.zeros(self.m, dtype=bool)
        stack = [0]
        seen[0] = True
        while stack:
            u = stack.pop()
            for v in np.nonzero(A[u])[0]:
                if not seen[v]:
                    seen[v] = True
                    stack.append(int(v))
        return bool(seen.all())


def complete_graph(m: int) -> Graph:
    return Graph(m, [(i, j) for i in range(m) for j in range(i + 1, m)])


def ring_graph(m: int) -> Graph:
    if m < 2:
        raise ValueError("ring needs m >= 2")
    if m == 2:
        return Graph(2, [(0, 1)])
    return Graph(m, sorted((i, (i + 1) % m) if i < (i + 1) % m else ((i + 1) % m, i)
                           for i in range(m)))


def _erdos_renyi_values(p: float = 0.3, seed: int = 0) -> None:
    """The checks of erdos_renyi's spec values, which need no draw."""
    if not 0.0 < p <= 1.0:
        raise ValueError("p must lie in (0, 1]")
    if int(seed) < 0:
        raise ValueError("seed must be nonnegative")


def erdos_renyi(m: int, p: float = 0.3, seed: int = 0) -> Graph:
    """Connected Erdos-Renyi draw; resamples with fresh substreams until
    connected (at most MAX_GRAPH_RETRIES attempts, retry count recorded)."""
    if m < 2:
        raise ValueError("need m >= 2")
    _erdos_renyi_values(p, seed)
    iu, ju = np.triu_indices(m, k=1)
    for attempt in range(MAX_GRAPH_RETRIES):
        rng = np.random.default_rng([int(seed), attempt])
        mask = rng.random(len(iu)) < p
        g = Graph(m, [(int(i), int(j)) for i, j in zip(iu[mask], ju[mask])],
                  retries=attempt)
        if g.is_connected():
            return g
    raise DisconnectedAfterRetries(
        f"no connected graph in {MAX_GRAPH_RETRIES} attempts (m={m}, p={p})")


# kind: (constructor, value check); the constructor takes the agent count
# and then the spec's keys, the value check only the keys, so a config is
# checked without drawing its graph
GRAPHS = {
    "erdos_renyi": (erdos_renyi, _erdos_renyi_values),
    "complete": (complete_graph, lambda: None),
    "ring": (ring_graph, lambda: None),
}


def graph_from_spec(spec: dict, m: int) -> Graph:
    return _spec.build(GRAPHS, spec, "graph", m)


def check_graph_spec(spec: dict) -> None:
    """Check a graph spec's keys and values without drawing the graph."""
    (_, check), kwargs = _spec.check(GRAPHS, spec, "graph", lead=1)
    _spec.call(check, "graph", **kwargs)


@dataclass
class MixingMatrix:
    """Symmetric doubly stochastic weights with spectral gap rho < 1."""

    m: int
    W: np.ndarray
    rho: float
    graph: Graph = None

    def validate(self, sym_tol=1e-14, stoch_tol=1e-12):
        W = self.W
        if np.max(np.abs(W - W.T)) > sym_tol:
            raise ValueError("mixing matrix is not symmetric")
        ones = np.ones(self.m)
        if np.max(np.abs(W @ ones - ones)) > stoch_tol:
            raise ValueError("row sums differ from 1")
        if np.max(np.abs(ones @ W - ones)) > stoch_tol:
            raise ValueError("column sums differ from 1")
        if np.min(W) < -stoch_tol:
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
    m = graph.m
    deg = graph.degrees()
    W = np.zeros((m, m))
    for i, j in graph.edges:
        w = 1.0 / (1.0 + max(deg[i], deg[j]))
        W[i, j] = W[j, i] = w
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    return MixingMatrix(m=m, W=W, rho=spectral_gap(W), graph=graph).validate()


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
