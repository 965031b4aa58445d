"""The four decentralized mirror algorithms over a shared agent state.

All methods run synchronous rounds over a fixed mixing matrix:

* ``dmgt``: dual mixing with gradient tracking and step clipping,
* ``dmd``:  primal mix-then-mirror with local gradient directions,
* ``dgt``:  primal mixing with gradient tracking,
* ``dda``:  constant-step dual averaging with tracking, i.e. the unclipped
  dual-mixing recursion run over a shifted kernel.

Steps are pure: they consume one :class:`AgentSystem` and return the next.
A run that leaves the attainable domain or produces non-finite state is
frozen with status ``diverged`` rather than raising, since baseline
nonconvergence is itself an experimental observable.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import (
    DomainViolation,
    NoConvergence,
    NotInImage,
    SingularHessian,
)


@dataclass(frozen=True)
class AgentSystem:
    """Stacked per-agent state: rows of X are primal iterates, Z their dual
    images, Y the update directions (trackers for the GT methods)."""

    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    grads: np.ndarray  # per-agent local gradients at X, cached for GT
    t: int = 0
    clipped: bool = False


@dataclass(frozen=True)
class AlgoConfig:
    algorithm: str
    eta: float
    delta: float = math.inf        # clipping radius, finite only for dmgt
    max_iter: int = 100
    y0: str = "grad"               # 'grad' | 'zero'
    L: float = None                # relative smoothness override

    def __post_init__(self):
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}")
        for name in ("eta", "delta"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if self.y0 not in ("grad", "zero"):
            raise ValueError("y0 must be 'grad' or 'zero'")
        if not self.max_iter >= 0:
            raise ValueError("max_iter must be nonnegative")

    @classmethod
    def from_spec(cls, spec: dict, max_iter=None) -> "AlgoConfig":
        """Config of an ``algorithms`` entry of an experiment config, with
        numeric ``eta``/``delta``; ``max_iter`` overrides its budget."""
        return cls(
            algorithm=spec.get("kind"),
            eta=float(spec.get("eta", 0.1)),
            delta=float(spec.get("delta", math.inf)),
            max_iter=int(spec.get("max_iter", 1000) if max_iter is None
                         else max_iter),
            y0=spec.get("y0", "grad"),
        )


@dataclass
class RunResult:
    records: list
    system: AgentSystem
    status: str                 # 'done' | 'diverged'
    diverged_at: int = None
    reason: str = ""

    @property
    def diverged(self):
        return self.status == "diverged"


def clip(v, eta, delta):
    """v * min(eta, delta / |v|): an eta-scaling that caps the norm at delta.

    A zero (or underflowing) norm lands in the small-step branch, so the
    result is eta * v there.
    """
    v = np.asarray(v, dtype=float)
    nv = float(np.linalg.norm(v))
    if eta * nv <= delta:
        return eta * v
    return v * (delta / nv)


def clip_rows(V, eta, delta):
    """Row-wise clipping; also reports whether any row was actually clipped.

    An infinite ``delta`` clips nothing, so the norms are not computed: a
    row whose norm overflows would otherwise give inf/inf = nan.
    """
    V = np.asarray(V, dtype=float)
    if delta == math.inf:
        return V * eta, False
    norms = np.linalg.norm(V, axis=1, keepdims=True)
    # delta / 0 counts as inf, so a zero (or nan) row keeps the factor eta
    ratios = np.divide(delta, norms, out=np.full_like(norms, np.inf),
                       where=norms > 0)
    return V * np.minimum(eta, ratios), bool(np.any(eta * norms > delta))


def init_system(prob, kernel, x0, cfg: AlgoConfig) -> AgentSystem:
    """Consensus initialization: identical rows, dual images, tracker per y0.

    ``y0='grad'`` seeds the trackers with the local gradients so the
    tracking identity holds from t = 0; ``y0='zero'`` reproduces the literal
    all-zeros initialization (whose tracking identity then carries a
    constant offset).
    """
    x0 = np.asarray(x0, dtype=float)
    kernel.domain.require_interior(x0, "initial point")
    X = np.tile(x0, (prob.m, 1))
    Z = np.tile(kernel.grad(x0), (prob.m, 1))
    grads = prob.grads_rowwise(X)
    if cfg.algorithm == "dmd" or cfg.y0 == "grad":
        Y = grads.copy()
    else:
        Y = np.zeros_like(X)
    return AgentSystem(X=X, Z=Z, Y=Y, grads=grads, t=0)


def _dual_mix_step(s: AgentSystem, prob, kernel, W, eta, delta, track=True):
    S, was_clipped = clip_rows(s.Y, eta, delta)
    Z1 = W @ (s.Z - S)
    X1 = kernel.grad_conj(Z1)
    kernel.domain.require_interior(X1, "updated primal iterate")
    G1 = prob.grads_rowwise(X1)
    Y1 = W @ s.Y + G1 - s.grads if track else G1
    return AgentSystem(X=X1, Z=Z1, Y=Y1, grads=G1, t=s.t + 1,
                       clipped=was_clipped)


def dmgt_step(s: AgentSystem, prob, kernel, W, cfg: AlgoConfig) -> AgentSystem:
    """Dual mixing with clipped tracker steps:
    Z+ = W (Z - clip(Y)); X+ = grad h*(Z+); Y+ = W Y + grad f(X+) - grad f(X)."""
    return _dual_mix_step(s, prob, kernel, W, cfg.eta, cfg.delta)


def dda_step(s: AgentSystem, prob, kernel, W, cfg: AlgoConfig) -> AgentSystem:
    """Constant-step dual averaging with tracking: the unclipped dual-mixing
    recursion.  The caller supplies the shifted kernel."""
    return _dual_mix_step(s, prob, kernel, W, cfg.eta, math.inf)


def dmd_step(s: AgentSystem, prob, kernel, W, cfg: AlgoConfig) -> AgentSystem:
    """Mix-then-mirror with local gradients:
    grad h(X+) = grad h(W X) - eta grad f(X)."""
    Xmix = W @ s.X
    kernel.domain.require_interior(Xmix, "mixed primal iterate")
    Z1 = kernel.grad(Xmix) - cfg.eta * s.grads
    X1 = kernel.grad_conj(Z1)
    kernel.domain.require_interior(X1, "updated primal iterate")
    G1 = prob.grads_rowwise(X1)
    return AgentSystem(X=X1, Z=Z1, Y=G1, grads=G1, t=s.t + 1)


def dgt_step(s: AgentSystem, prob, kernel, W, cfg: AlgoConfig) -> AgentSystem:
    """Mix-then-mirror with gradient tracking:
    Z+ = grad h(W X) - eta Y; Y+ = W Y + grad f(X+) - grad f(X)."""
    Xmix = W @ s.X
    kernel.domain.require_interior(Xmix, "mixed primal iterate")
    Z1 = kernel.grad(Xmix) - cfg.eta * s.Y
    X1 = kernel.grad_conj(Z1)
    kernel.domain.require_interior(X1, "updated primal iterate")
    G1 = prob.grads_rowwise(X1)
    Y1 = W @ s.Y + G1 - s.grads
    return AgentSystem(X=X1, Z=Z1, Y=Y1, grads=G1, t=s.t + 1)


_STEPS = {"dmgt": dmgt_step, "dmd": dmd_step, "dgt": dgt_step, "dda": dda_step}
ALGORITHMS = tuple(_STEPS)

_DIVERGENCE_ERRORS = (DomainViolation, NotInImage, NoConvergence, SingularHessian)


def _finite(s: AgentSystem) -> bool:
    """Z, Y and the cached gradients are finite.  X needs no check: every
    step rule has passed it through ``require_interior``, which rejects
    non-finite entries."""
    return bool(np.isfinite(s.Z).all() and np.isfinite(s.Y).all()
                and np.isfinite(s.grads).all())


def _observe_finite(recorder, system) -> bool:
    """Record ``system``; False when its objective or stationarity is not finite."""
    rec = recorder.observe(system, clipped=system.clipped, status="running")
    return math.isfinite(rec.f_bar) and math.isfinite(rec.stationarity)


def run(prob, kernel, mixing, cfg: AlgoConfig, x0, L=None, run_id="run",
        record_every=1, recorder=None, hooks=()) -> RunResult:
    """Execute ``cfg.max_iter`` synchronous rounds of the chosen step rule.

    ``record_every=1`` emits a full diagnostics record per iteration (plus
    the initial state); ``record_every=0`` records only the initial and
    final states, which is what grid tuning needs.  Other values raise
    ``ValueError``: a stride k > 1 is not implemented yet (ROADMAP item 3).
    Hooks are called as ``hook(t, prev_system, next_system)`` after every
    accepted step.  Divergence (domain exit, failed inversion, non-finite
    state) freezes the run with status ``diverged``.  Everything is
    deterministic given the inputs; no randomness is consumed here.
    """
    if record_every not in (0, 1):
        raise ValueError(f"record_every must be 0 or 1, got {record_every!r}")
    W = mixing.W
    rho = mixing.rho
    step = _STEPS[cfg.algorithm]
    if recorder is None:
        L_eff = L if L is not None else (cfg.L if cfg.L is not None else 1.0)
        recorder = diagnostics.Recorder(
            prob, kernel, rho, L_eff, cfg.eta, cfg.delta,
            run_id=run_id, algorithm=cfg.algorithm)
    system = init_system(prob, kernel, x0, cfg)
    recorder.observe(system, clipped=False, status="running")
    status, diverged_at, reason = "done", None, ""
    emit_all = record_every == 1
    for t in range(cfg.max_iter):
        try:
            new_system = step(system, prob, kernel, W, cfg)
        except _DIVERGENCE_ERRORS as exc:
            status, diverged_at, reason = "diverged", t, f"{type(exc).__name__}: {exc}"
            break
        if not _finite(new_system):
            status, diverged_at = "diverged", t + 1
            reason = "non-finite iterate"
            system = new_system
            break
        for hook in hooks:
            hook(t, system, new_system)
        system = new_system
        if emit_all and not _observe_finite(recorder, system):
            status, diverged_at, reason = "diverged", system.t, "non-finite metric"
            break
    if not emit_all and system.t > 0 and _finite(system):
        # the final state, observed once; a diverged run's may admit no record
        if status == "done":
            if not _observe_finite(recorder, system):
                status, diverged_at, reason = "diverged", system.t, "non-finite metric"
        else:
            with contextlib.suppress(*_DIVERGENCE_ERRORS):
                recorder.observe(system, clipped=system.clipped, status="running")
    recorder.mark_final(status)
    return RunResult(records=recorder.records, system=system, status=status,
                     diverged_at=diverged_at, reason=reason)


def compliant_parameters(kernel, L, rho, m, delta_cap=1e9):
    """Step size and clipping radius satisfying the convergence hypotheses.

    delta is the largest radius with zeta(2 delta) <= (1 - rho)/2 (found by
    bisection on the monotone modulus, capped at ``delta_cap``); eta is
    (1 - rho)^2 / (25 L lambda^2) with lambda = 1 + zeta(sqrt(20 m) delta /
    (1 - rho)).
    """
    target = (1.0 - rho) / 2.0
    delta = 0.5 * kernel.modulus.largest_delta(target, cap=2.0 * delta_cap)
    lam = diagnostics.lambda_of(kernel, m, rho, delta)
    if not math.isfinite(lam):
        raise ValueError("lambda diverged; reduce delta_cap")
    eta = (1.0 - rho) ** 2 / (25.0 * L * lam * lam)
    return eta, delta, lam
