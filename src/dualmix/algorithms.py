"""The four decentralized mirror algorithms over a shared agent state.

All methods run synchronous rounds over a fixed mixing matrix:

* ``dmgt``: dual mixing with gradient tracking and step clipping,
* ``dmd``:  primal mix-then-mirror with local gradient directions,
* ``dgt``:  primal mixing with gradient tracking,
* ``dda``:  constant-step dual averaging with tracking, i.e. the unclipped
  dual-mixing recursion run over a shifted kernel.

Steps are pure: they consume one :class:`AgentSystem` and return the next.
One engine, :func:`run`, steps a batch of cells that share a problem,
kernel, network, initial point and algorithm and differ in ``eta`` and
``delta``; a single run is a batch of one.  Cells whose dual iterates
have the same bits share the inverse mirror map and the gradient: each
distinct trajectory is stepped once.  The usual case is a dmgt grid over
delta, whose cells with one eta follow one trajectory until their delta
starts to clip.  A cell that leaves the attainable domain or produces
non-finite state is frozen with status ``diverged`` rather than raising,
since baseline nonconvergence is itself an experimental observable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import diagnostics
from .errors import DIVERGENCE


@dataclass(frozen=True)
class AgentSystem:
    """Stacked per-agent state: rows of X are primal iterates, Z their dual
    images, Y the update directions (trackers for the GT methods).

    The engine steps B cells at once: its systems carry a leading cell axis,
    (B, m, d), and ``clipped`` is then a (B,) mask.  ``cell(b)`` is one
    cell's (m, d) system.  ``twin`` (B,) gives each cell the first cell of
    its group, whose Z has the same bits; it is None when every cell is
    its own twin, and always for a single cell."""

    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    grads: np.ndarray  # per-agent local gradients at X, cached for GT
    t: int = 0
    clipped: bool = False
    twin: np.ndarray = None

    def cell(self, b, copy=False) -> "AgentSystem":
        """Cell b's system: views into the batch, or copies that do not
        keep the whole batch's arrays alive."""
        X, Z, Y, grads = self.X[b], self.Z[b], self.Y[b], self.grads[b]
        if copy:
            X, Z, Y, grads = X.copy(), Z.copy(), Y.copy(), grads.copy()
        return AgentSystem(X, Z, Y, grads, self.t, bool(self.clipped[b]))

    def cells(self, rows) -> "AgentSystem":
        """The batch of the given rows (an index array in increasing order,
        or a mask).  A kept cell whose twin is dropped takes the first kept
        cell of its group as its twin."""
        twin = None
        if self.twin is not None:
            _, first, group = np.unique(self.twin[rows], return_index=True,
                                        return_inverse=True)
            twin = _distinct_or_none(first[group])
        return AgentSystem(X=self.X[rows], Z=self.Z[rows], Y=self.Y[rows],
                           grads=self.grads[rows], t=self.t,
                           clipped=self.clipped[rows], twin=twin)


def _distinct_or_none(twin):
    """``twin``, or None when every cell is its own twin."""
    return None if (twin == np.arange(len(twin))).all() else twin


def _regroup(twin, Z):
    """The twins of the cells of Z (B, m, d), given their twins before it
    (None stays None).  A cell keeps its twin while their Z have the same
    bits, compared as int64 patterns so that -0.0 and +0.0, or two NaN
    payloads, never meet; only cells with a twin are compared.  The cells
    that part from their twins are regrouped among themselves by their
    bytes."""
    if twin is None:
        return None
    rows = np.flatnonzero(twin != np.arange(len(twin)))
    bits = Z.view(np.int64)
    parted = rows[(bits[rows] != bits[twin[rows]]).any(axis=(-2, -1))]
    if len(parted):
        twin, first = twin.copy(), {}
        for r in parted:
            twin[r] = first.setdefault(Z[r].tobytes(), r)
    return _distinct_or_none(twin)


@dataclass(frozen=True)
class AlgoConfig:
    algorithm: str
    eta: float
    delta: float = math.inf        # clipping radius, finite only for dmgt
    max_iter: int = 1000
    y0: str = "grad"               # 'grad' | 'zero'

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
        for key in ("eta", "delta", "max_iter"):
            if isinstance(spec.get(key), bool):  # YAML true and false are ints
                raise ValueError(f"{key} must be a number, not a boolean")
        return cls(
            algorithm=spec.get("kind"),
            eta=float(spec.get("eta", 0.1)),
            delta=float(spec.get("delta", cls.delta)),
            max_iter=int(spec.get("max_iter", cls.max_iter) if max_iter is None
                         else max_iter),
            y0=spec.get("y0", cls.y0),
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


def clip_rows(V, eta, delta):
    """Row-wise clipping of ``V`` (..., m, d); also reports, per leading
    index, whether any row was actually clipped.  ``eta`` and ``delta``
    broadcast against the row norms (..., m, 1).

    An infinite ``delta`` clips nothing: a row whose norm overflows gives
    inf/inf = nan there, which ``fmin`` passes over to keep the factor eta.
    """
    V = np.asarray(V, dtype=float)
    # np.linalg.norm's own formula for a single axis, without its dispatch
    out = V * V
    norms = out.sum(axis=-1, keepdims=True)
    np.sqrt(norms, out=norms)
    # delta / 0 counts as inf, so a zero (or nan) row keeps the factor eta
    ratios = np.divide(delta, norms, out=np.full_like(norms, np.inf),
                       where=norms > 0)
    return (np.multiply(V, np.fmin(eta, ratios), out=out),
            (eta * norms > delta).any(axis=(-2, -1)))


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


# Every step maps a batch (B, m, d) to the next one.  ``eta`` and ``delta``
# are (B, 1, 1) columns, one entry per cell (``delta`` is None for the kinds
# that do not clip), and every operation acts on each cell on its own, so a
# cell's bits do not depend on the batch it is in.  That also lets a cell
# whose Z+ has the bits of its twin's take its twin's X+ and gradients.
#
# A step writes its large intermediate results in place, which saves the
# allocator from mapping fresh pages for each (B, m, d) temporary.  It writes
# only into an array allocated in the same function or returned fresh by a
# call made there, never into an array of a system: recorders, hooks and
# finished cells keep systems.  Each ufunc gets the operands of the written-
# out formula in the same order, so the bits are those of the formula.  The
# results checked at once by ``require_interior`` or ``_finite`` may overflow
# on a diverging cell, so their operations do not warn.


def _primal_and_grads(prob, kernel, Z1, twin):
    """X+ = grad h*(Z+), checked to be interior, the gradients at X+, and
    the twins of Z+'s cells (``_regroup``).  Each distinct cell is mapped
    once; a cell with a twin gets a copy of its twin's results."""
    twin = _regroup(twin, Z1)
    firsts = slot = slice(None)
    if twin is not None:
        firsts, slot = np.unique(twin, return_inverse=True)
    X1 = kernel.grad_conj(Z1[firsts])
    kernel.domain.require_interior(X1, "updated primal iterate")
    with np.errstate(over="ignore", invalid="ignore"):  # Y+ is checked
        G1 = prob.grads_rowwise(X1)
    return X1[slot], G1[slot], twin


def _tracker(W, s, G1):
    """Y+ = W Y + G+ - G."""
    Y1 = W @ s.Y
    Y1 += G1
    Y1 -= s.grads
    return Y1


def dual_mix_step(s: AgentSystem, prob, kernel, W, eta, delta) -> AgentSystem:
    """Dual mixing with clipped tracker steps (dmgt; dda runs it unclipped,
    over the shifted kernel):
    Z+ = W (Z - clip(Y)); X+ = grad h*(Z+); Y+ = W Y + grad f(X+) - grad f(X)."""
    if delta is None:  # s.clipped is then the all-False mask it started as
        with np.errstate(over="ignore", invalid="ignore"):
            S, was_clipped = eta * s.Y, s.clipped
    else:
        S, was_clipped = clip_rows(s.Y, eta, delta)
    with np.errstate(over="ignore", invalid="ignore"):
        Z1 = W @ np.subtract(s.Z, S, out=S)
    X1, G1, twin = _primal_and_grads(prob, kernel, Z1, s.twin)
    return AgentSystem(X=X1, Z=Z1, Y=_tracker(W, s, G1), grads=G1,
                       t=s.t + 1, clipped=was_clipped, twin=twin)


def _mirror_step(s: AgentSystem, prob, kernel, W, eta, direction):
    """grad h(X+) = grad h(W X) - eta * direction."""
    Xmix = W @ s.X
    kernel.domain.require_interior(Xmix, "mixed primal iterate")
    Z1 = kernel._grad(Xmix)  # Xmix itself (Euclidean), which is this step's own
    with np.errstate(over="ignore", invalid="ignore"):
        Z1 -= eta * direction
    return (Z1, *_primal_and_grads(prob, kernel, Z1, s.twin))


def dmd_step(s: AgentSystem, prob, kernel, W, eta, delta) -> AgentSystem:
    """Mix-then-mirror with local gradients:
    grad h(X+) = grad h(W X) - eta grad f(X)."""
    Z1, X1, G1, twin = _mirror_step(s, prob, kernel, W, eta, s.grads)
    return AgentSystem(X=X1, Z=Z1, Y=G1, grads=G1, t=s.t + 1,
                       clipped=s.clipped, twin=twin)  # never clipped


def dgt_step(s: AgentSystem, prob, kernel, W, eta, delta) -> AgentSystem:
    """Mix-then-mirror with gradient tracking:
    Z+ = grad h(W X) - eta Y; Y+ = W Y + grad f(X+) - grad f(X)."""
    Z1, X1, G1, twin = _mirror_step(s, prob, kernel, W, eta, s.Y)
    return AgentSystem(X=X1, Z=Z1, Y=_tracker(W, s, G1), grads=G1,
                       t=s.t + 1, clipped=s.clipped, twin=twin)  # never clipped


_STEPS = {"dmgt": dual_mix_step, "dmd": dmd_step, "dgt": dgt_step,
          "dda": dual_mix_step}
ALGORITHMS = tuple(_STEPS)
# the kinds whose steps are clipped at radius delta, so tune grids delta too
CLIPPED = ("dmgt",)
# the kinds that run over the kernel shifted so that x0 minimizes it
SHIFTED = ("dda",)


def _finite(s: AgentSystem):
    """Per cell: Z and Y are finite.  X needs no check: every step rule has
    passed it through ``require_interior``, which rejects non-finite
    entries.  Nor do the gradients G+: every step rule's Y+ is G+ or
    W Y + G+ - G, and in floating point either is non-finite wherever G+
    is."""
    return (np.isfinite(s.Z) & np.isfinite(s.Y)).all(axis=(-2, -1))


def _step_each(step, s, args, eta, delta):
    """Step the batch ``s``.  Returns the next batch and ``{row: reason}``
    for the rows whose step raised a divergence error; those rows keep
    their state.  A batch that raises is redone one cell at a time, so
    each cell raises exactly what it raises alone, and the cells are then
    regrouped with their twins.  Reasons are kept as text: a kept
    exception's traceback would hold the batch's arrays in a reference
    cycle."""
    try:
        return step(s, *args, eta, delta), {}
    except DIVERGENCE:
        pass  # some cell raised: redo the step cell by cell to find which
    cells, raised = [], {}
    for r in range(len(eta)):
        cell = s.cells([r])
        try:
            cell = step(cell, *args, eta[[r]],
                        None if delta is None else delta[[r]])
        except DIVERGENCE as exc:
            raised[r] = f"{type(exc).__name__}: {exc}"
        cells.append(cell)
    new = {f: np.concatenate([getattr(c, f) for c in cells])
           for f in ("X", "Z", "Y", "grads", "clipped")}
    return AgentSystem(t=s.t + 1, twin=_regroup(s.twin, new["Z"]),
                       **new), raised


def run(prob, kernel, mixing, cfg, x0, L=None, run_id="run",
        record_every=1, hooks=()):
    """Execute ``max_iter`` synchronous rounds of the chosen step rule.

    ``cfg`` is one :class:`AlgoConfig`, which returns one
    :class:`RunResult`, or a sequence of them that share the algorithm,
    ``max_iter`` and ``y0``, which returns one result per config.  Those
    cells are stepped together as one batch, and each cell's result equals
    bit for bit its run alone.  ``record_every=1`` emits a full diagnostics
    record per iteration (plus the initial state); ``record_every=0``
    records only the initial and final states, which is what grid tuning
    needs.  Other values raise ``ValueError``: a stride k > 1 is not
    implemented yet.  Recorded states are buffered and evaluated
    ``diagnostics.CHUNK`` at a time, when a cell ends and at the end of the
    run; a state whose objective or stationarity is not finite ends its
    cell there, and the steps taken after it are dropped.

    Hooks are called as ``hook(t, prev_system, next_system)`` with one
    cell's systems for each of its accepted steps, in step order.  With
    ``record_every=0`` they run after each step.  With ``record_every=1``
    they run when the steps' states are evaluated, for each step up to the
    state that ends the cell, the cells of a step in row order.
    Divergence (domain exit, failed inversion, non-finite state) freezes a
    cell with status ``diverged`` and takes it out of the batch.
    Everything is deterministic given the inputs; no randomness is
    consumed here.
    """
    if record_every not in (0, 1):
        raise ValueError(f"record_every must be 0 or 1, got {record_every!r}")
    cfgs = [cfg] if isinstance(cfg, AlgoConfig) else list(cfg)
    head = cfgs[0]
    if any((c.algorithm, c.max_iter, c.y0)
           != (head.algorithm, head.max_iter, head.y0) for c in cfgs):
        raise ValueError("the cells of a batch share algorithm, max_iter and y0")
    recorders = [diagnostics.Recorder(
        prob, kernel, mixing.rho, 1.0 if L is None else L,
        c.eta, c.delta, run_id=run_id, algorithm=c.algorithm) for c in cfgs]
    step = _STEPS[head.algorithm]
    args = (prob, kernel, mixing.W)
    etas = np.array([c.eta for c in cfgs])[:, None, None]
    deltas = np.array([c.delta for c in cfgs])[:, None, None] \
        if head.algorithm in CLIPPED else None
    eta, delta = etas, deltas
    s0 = init_system(prob, kernel, x0, head)
    # every cell starts from the one initial state: a twin of cell 0
    system = AgentSystem(*(np.repeat(a[None], len(cfgs), axis=0)
                           for a in (s0.X, s0.Z, s0.Y, s0.grads)),
                         clipped=np.zeros(len(cfgs), dtype=bool),
                         twin=_distinct_or_none(np.zeros(len(cfgs), int)))
    live = np.arange(len(cfgs))  # the cell of each row of the batch
    ends = {}  # cell -> (status, diverged_at, reason, final system)
    for c, recorder in enumerate(recorders):
        recorder.observe(system, c)
    emit_all = record_every == 1

    def drop(*systems):
        """``systems`` (batches whose rows are the live cells) without the
        rows of the cells that have ended."""
        nonlocal live, eta, delta
        rows = np.array([c not in ends for c in live], dtype=bool)
        if rows.all():
            return systems
        live, eta = live[rows], etas[live[rows]]
        delta = None if deltas is None else deltas[live]
        return tuple(s.cells(rows) for s in systems)

    def record():
        """Evaluate the live cells' buffered states, call the hooks on their
        steps, and end each cell at a state whose metrics are not finite."""
        flushed = [(c, *recorders[c].flush()) for c in live]
        longest = max((len(states) for _, states, _ in flushed), default=0)
        for i in range(1, longest if hooks else 0):
            for _, states, _ in flushed:
                if i < len(states):
                    (prev, p), (cur, q) = states[i - 1], states[i]
                    for hook in hooks:
                        hook(prev.t, prev.cell(p), cur.cell(q))
        for c, states, cut in flushed:
            if cut:
                cur, q = states[-1]
                ends[c] = ("diverged", cur.t, "non-finite metric",
                           cur.cell(q, copy=True))

    for t in range(head.max_iter):
        new, raised = _step_each(step, system, args, eta, delta)
        keep = _finite(new)
        if raised or not keep.all():
            if emit_all:
                record()  # a non-finite metric up to t ends a cell first
            for r, reason in raised.items():
                ends.setdefault(live[r], ("diverged", t, reason,
                                          system.cell(r, copy=True)))
            for q in np.flatnonzero(~keep):
                ends.setdefault(live[q], ("diverged", t + 1,
                                          "non-finite iterate",
                                          new.cell(q, copy=True)))
            system, new = drop(system, new)
        if hooks and not emit_all:
            for q in range(len(live)):
                for hook in hooks:
                    hook(t, system.cell(q), new.cell(q))
        system = new
        if emit_all and len(live):
            for q, c in enumerate(live):
                recorders[c].observe(system, q)
            if recorders[live[0]].pending >= diagnostics.CHUNK:
                record()
                system, = drop(system)
        if not len(live):
            break
    if emit_all:
        record()
    for r, c in enumerate(live):
        ends.setdefault(c, ("done", None, "", system.cell(r)))
    results = []
    for c, recorder in enumerate(recorders):
        status, diverged_at, reason, final = ends[c]
        if not emit_all:
            if final.t > 0 and _finite(final):
                recorder.observe(final)  # the final state, observed once
            try:
                cut = recorder.flush()[1]
            except DIVERGENCE:
                # a diverged run's final state may admit no record
                if status == "done" or not recorder.records:
                    raise
                cut = False
            if cut and status == "done":
                status, diverged_at = "diverged", final.t
                reason = "non-finite metric"
        recorder.mark_final(status)
        results.append(RunResult(records=recorder.records, system=final,
                                 status=status, diverged_at=diverged_at,
                                 reason=reason))
    return results[0] if isinstance(cfg, AlgoConfig) else results


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
