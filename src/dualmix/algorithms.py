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
``delta``; a single run is a batch of one.  The batch holds one row per
distinct state, and each cell maps to its row.  A step forms each cell's
coefficient (dmgt's clip factor, or eta) and keeps the cells of a state
together while their coefficients have the same bits; every other part of
the step (the clipped step, the mixing products, the inverse mirror map,
the interior check, the gradient, the tracker and the finiteness check)
then runs once per state.  The usual case is a dmgt grid over delta, whose
cells with one eta follow one trajectory until their delta starts to
clip.  A cell that leaves the attainable domain or produces non-finite
state is frozen with status ``diverged`` rather than raising, since
baseline nonconvergence is itself an experimental observable.
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

    The engine steps B cells at once, and cells in the same state share its
    arrays: a batch's X, Z, Y and grads are (D, m, d), one row per distinct
    state, and ``row`` (B,) is each cell's row.  ``clipped`` is a (B,) mask,
    per cell, since the cells of one state can differ in it at the clip
    boundary.  Rows are numbered in the order of their first cells, so
    D = B exactly when each cell has a row of its own, its own index.
    ``cell(b)`` is one cell's (m, d) system, whose ``row`` is None."""

    X: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    grads: np.ndarray  # per-agent local gradients at X, cached for GT
    t: int = 0
    clipped: bool = False
    row: np.ndarray = None

    def cell(self, b, copy=False) -> "AgentSystem":
        """Cell b's system: views into the batch, or copies that do not
        keep the whole batch's arrays alive."""
        r = self.row[b]
        X, Z, Y, grads = self.X[r], self.Z[r], self.Y[r], self.grads[r]
        if copy:
            X, Z, Y, grads = X.copy(), Z.copy(), Y.copy(), grads.copy()
        return AgentSystem(X, Z, Y, grads, self.t, bool(self.clipped[b]))

    def cells(self, keep) -> "AgentSystem":
        """The batch of the cells ``keep`` (an index array in increasing
        order, or a mask), holding only the rows they refer to."""
        rows = self.row[keep]
        row, first = _numbering(rows.tolist())
        rows = rows[first]
        return AgentSystem(X=self.X[rows], Z=self.Z[rows], Y=self.Y[rows],
                           grads=self.grads[rows], t=self.t,
                           clipped=self.clipped[keep], row=row)


def _numbering(keys):
    """Number the distinct ``keys`` in the order of their first appearance.
    Returns each key's number (B,) and, for each number, the position of
    the key's first appearance."""
    number = {}
    row = np.array([number.setdefault(k, len(number)) for k in keys],
                   dtype=int)
    return row, np.unique(row, return_index=True)[1]


def _per_cell(s, A):
    """``A`` (D, ...), one entry per row of ``s``, as one entry per cell:
    ``A`` itself when each cell has its own row, or ``s`` is one cell."""
    if s.row is None or len(s.row) == len(s.X):
        return A
    return A[s.row]


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


def _row_norms(V):
    """The Euclidean norms of the rows of ``V`` (..., m, d), as (..., m, 1):
    np.linalg.norm's own formula for a single axis, without its dispatch."""
    norms = (V * V).sum(axis=-1, keepdims=True)
    return np.sqrt(norms, out=norms)


def _clip_factor(norms, eta, delta):
    """The clip factor fmin(eta, delta / norm) of each row norm in
    ``norms`` (..., m, 1), and per leading index whether any row was
    actually clipped.

    An infinite ``delta`` clips nothing: a row whose norm overflows gives
    inf/inf = nan there, which ``fmin`` passes over to keep the factor eta.
    """
    # delta / 0 counts as inf, so a zero (or nan) row keeps the factor eta
    ratios = np.divide(delta, norms, out=np.full_like(norms, np.inf),
                       where=norms > 0)
    return np.fmin(eta, ratios), (eta * norms > delta).any(axis=(-2, -1))


def clip_rows(V, eta, delta):
    """Row-wise clipping of ``V`` (..., m, d), each row scaled by
    ``_clip_factor``; also reports, per leading index, whether any row was
    actually clipped.  ``eta`` and ``delta`` broadcast against the row
    norms (..., m, 1)."""
    V = np.asarray(V, dtype=float)
    factor, clipped = _clip_factor(_row_norms(V), eta, delta)
    return V * factor, clipped


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


# Every step maps a batch to the next one.  ``eta`` and ``delta`` are
# (B, 1, 1) columns, one entry per cell (``delta`` is None for the kinds
# that do not clip), and every operation acts on each row on its own, so a
# cell's bits do not depend on the batch it is in.  A step first forms each
# cell's coefficient (``_states``); cells whose coefficients have the bits
# of their row's first cell take the same step, so the rest of the step
# runs once per row of the next batch.
#
# A step writes its large intermediate results in place, which saves the
# allocator from mapping fresh pages for each (D, m, d) temporary.  It writes
# only into an array allocated in the same function or returned fresh by a
# call made there, never into an array of a system: recorders, hooks and
# finished cells keep systems.  Each ufunc gets the operands of the written-
# out formula in the same order, so the bits are those of the formula.


def _states(s, eta, delta):
    """Each cell's step coefficient and the rows of the next batch.

    The coefficient is dmgt's clip factor of each tracker row, from row
    norms formed once per row of ``s``, or ``eta`` for the kinds that do
    not clip.  The cells of a row stay together while their coefficients
    have the bits of the row's first cell's; the others get new rows,
    keyed by their row and their coefficient's bits, compared as int64
    patterns so that -0.0 and +0.0, or two NaN payloads, never meet.
    Returns ``src``, the row of ``s`` that each next row steps from (None:
    its own), the coefficient of each next row, each cell's next row and
    each cell's clip flag."""
    if delta is None:  # s.clipped is then the all-False mask it started as
        coef, clipped = eta, s.clipped
    else:
        coef, clipped = _clip_factor(_per_cell(s, _row_norms(s.Y)), eta,
                                     delta)
    row = s.row
    if row is None or len(row) == len(s.X):  # each cell has its own row
        return None, coef, row, clipped
    bits = coef.view(np.int64)
    first = np.unique(row, return_index=True)[1]
    if (bits == bits[first][row]).all():
        return None, coef[first], row, clipped
    row, first = _numbering(zip(row.tolist(), (b.tobytes() for b in bits)))
    return s.row[first], coef[first], row, clipped


def _take(A, src):
    """The rows ``src`` of A, or A itself when ``src`` is None."""
    return A if src is None else A[src]


def _primal_and_grads(prob, kernel, Z1):
    """X+ = grad h*(Z+), checked to be interior, and the gradients at X+."""
    X1 = kernel.grad_conj(Z1)
    kernel.domain.require_interior(X1, "updated primal iterate")
    return X1, prob.grads_rowwise(X1)


def _tracker(W, s, G1, src):
    """Y+ = W Y + G+ - G."""
    Y1 = _take(W @ s.Y, src)
    Y1 += G1
    Y1 -= _take(s.grads, src)
    return Y1


def dual_mix_step(s: AgentSystem, prob, kernel, W, eta, delta) -> AgentSystem:
    """Dual mixing with clipped tracker steps (dmgt; dda runs it unclipped,
    over the shifted kernel):
    Z+ = W (Z - clip(Y)); X+ = grad h*(Z+); Y+ = W Y + grad f(X+) - grad f(X)."""
    src, coef, row, clipped = _states(s, eta, delta)
    S = np.multiply(_take(s.Y, src), coef)
    Z1 = W @ np.subtract(_take(s.Z, src), S, out=S)
    X1, G1 = _primal_and_grads(prob, kernel, Z1)
    return AgentSystem(X=X1, Z=Z1, Y=_tracker(W, s, G1, src), grads=G1,
                       t=s.t + 1, clipped=clipped, row=row)


def _mirror_step(s: AgentSystem, prob, kernel, W, eta, direction):
    """grad h(X+) = grad h(W X) - eta * direction."""
    src, eta, row, clipped = _states(s, eta, None)  # never clipped
    Xmix = W @ s.X
    kernel.domain.require_interior(Xmix, "mixed primal iterate")
    # Xmix itself (Euclidean), which is this step's own
    Z1 = _take(kernel._grad(Xmix), src)
    Z1 -= eta * _take(direction, src)
    return (src, row, clipped, Z1, *_primal_and_grads(prob, kernel, Z1))


def dmd_step(s: AgentSystem, prob, kernel, W, eta, delta) -> AgentSystem:
    """Mix-then-mirror with local gradients:
    grad h(X+) = grad h(W X) - eta grad f(X)."""
    _, row, clipped, Z1, X1, G1 = _mirror_step(s, prob, kernel, W, eta,
                                               s.grads)
    return AgentSystem(X=X1, Z=Z1, Y=G1, grads=G1, t=s.t + 1,
                       clipped=clipped, row=row)


def dgt_step(s: AgentSystem, prob, kernel, W, eta, delta) -> AgentSystem:
    """Mix-then-mirror with gradient tracking:
    Z+ = grad h(W X) - eta Y; Y+ = W Y + grad f(X+) - grad f(X)."""
    src, row, clipped, Z1, X1, G1 = _mirror_step(s, prob, kernel, W, eta,
                                                 s.Y)
    return AgentSystem(X=X1, Z=Z1, Y=_tracker(W, s, G1, src), grads=G1,
                       t=s.t + 1, clipped=clipped, row=row)


_STEPS = {"dmgt": dual_mix_step, "dmd": dmd_step, "dgt": dgt_step,
          "dda": dual_mix_step}
ALGORITHMS = tuple(_STEPS)
# the kinds whose steps are clipped at radius delta, so tune grids delta too
CLIPPED = ("dmgt",)
# the kinds that run over the kernel shifted so that x0 minimizes it
SHIFTED = ("dda",)
# the largest clipping radius compliant_parameters returns: a kernel whose
# modulus stays within its target everywhere (zeta = 0) gets this one
DELTA_CAP = 1e9


def _finite(s: AgentSystem):
    """Per cell: Z and Y are finite.  X needs no check: every step rule has
    passed it through ``require_interior``, which rejects non-finite
    entries.  Nor do the gradients G+: every step rule's Y+ is G+ or
    W Y + G+ - G, and in floating point either is non-finite wherever G+
    is."""
    return _per_cell(s, (np.isfinite(s.Z) & np.isfinite(s.Y)).all(
        axis=(-2, -1)))


def _step_each(step, s, args, eta, delta):
    """Step the batch ``s``.  Returns the next batch and ``{cell: reason}``
    for the cells whose step raised a divergence error; those cells keep
    their state.  A batch that raises is redone one state at a time: the
    cells of a row of ``_states`` take bit-identical steps, so each row's
    first cell steps alone and raises exactly what each of its cells
    raises alone.  Reasons are kept as text: a kept exception's traceback
    would hold the batch's arrays in a reference cycle."""
    try:
        return step(s, *args, eta, delta), {}
    except DIVERGENCE:
        pass  # some state raised: redo the step state by state to find which
    _, _, row, clipped = _states(s, eta, delta)
    states, raised = [], {}
    for r, b in enumerate(np.unique(row, return_index=True)[1]):
        cell = s.cells([b])
        try:
            cell = step(cell, *args, eta[[b]],
                        None if delta is None else delta[[b]])
        except DIVERGENCE as exc:
            raised.update(dict.fromkeys(np.flatnonzero(row == r).tolist(),
                                        f"{type(exc).__name__}: {exc}"))
        states.append(cell)
    new = {f: np.concatenate([getattr(c, f) for c in states])
           for f in ("X", "Z", "Y", "grads")}
    return AgentSystem(t=s.t + 1, row=row, clipped=clipped, **new), raised


def run(prob, kernel, mixing, cfg, x0, L, run_id="run",
        record_every=1, hooks=()):
    """Execute ``max_iter`` synchronous rounds of the chosen step rule.

    ``cfg`` is one :class:`AlgoConfig`, which returns one
    :class:`RunResult`, or a sequence of them that share the algorithm,
    ``max_iter`` and ``y0``, which returns one result per config.  Those
    cells are stepped together as one batch, and each cell's result equals
    bit for bit its run alone.  ``record_every`` picks the states the
    engine observes: every state at 1; at 0, what grid tuning needs, the
    initial state and the state each cell ends on, when it ends (the state
    before a step that raised, or the last state at ``max_iter``).  Other
    values raise ``ValueError``: a stride k > 1 is not implemented yet.
    Observed states are evaluated ``diagnostics.CHUNK`` at a time at most.
    One whose objective or stationarity is not finite, or whose evaluation
    raises a divergence error, ends its cell there unless a step ended it
    first, and the steps taken after it are dropped.

    Hooks are called as ``hook(t, prev_system, next_system)`` with one
    cell's systems for each of its accepted steps, in step order.  With
    ``record_every=0`` they run after each step.  With ``record_every=1``
    they run when the steps' states are evaluated, for each step up to the
    state that ends the cell, the cells of a step in batch order.
    Divergence (domain exit, failed inversion, non-finite state or metric,
    a state the recorder cannot evaluate) freezes a cell with status
    ``diverged`` and takes it out of the batch; the other cells go on.
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
        prob, kernel, mixing.rho, L, c.eta, c.delta, run_id=run_id,
        algorithm=c.algorithm) for c in cfgs]
    step = _STEPS[head.algorithm]
    args = (prob, kernel, mixing.W)
    etas = np.array([c.eta for c in cfgs])[:, None, None]
    deltas = np.array([c.delta for c in cfgs])[:, None, None] \
        if head.algorithm in CLIPPED else None
    eta, delta = etas, deltas
    s0 = init_system(prob, kernel, x0, head)
    # every cell starts from the one initial state, row 0
    system = AgentSystem(*(a[None] for a in (s0.X, s0.Z, s0.Y, s0.grads)),
                         clipped=np.zeros(len(cfgs), dtype=bool),
                         row=np.zeros(len(cfgs), dtype=int))
    live = np.arange(len(cfgs))  # the config of each cell of the batch
    ends = {}  # cell -> (status, diverged_at, reason, final system)
    for c, recorder in enumerate(recorders):
        recorder.observe(system, c)
    emit_all = record_every == 1

    def end(c, t, reason, batch, q):
        """End cell ``c`` diverged at ``t`` on a copy of cell ``q`` of
        ``batch``, unless it has ended already."""
        if c not in ends:
            ends[c] = ("diverged", t, reason, batch.cell(q, copy=True))

    def drop(*systems):
        """``systems`` (batches whose cells are the live ones) without the
        cells that have ended."""
        nonlocal live, eta, delta
        keep = np.array([c not in ends for c in live], dtype=bool)
        if keep.all():
            return systems
        live, eta = live[keep], etas[live[keep]]
        delta = None if deltas is None else deltas[live]
        return tuple(s.cells(keep) for s in systems)

    def record(cells):
        """Evaluate the buffered states of ``cells``, call the hooks of a
        recorded run on their steps, and end each cell at the state that
        ends its record stream."""
        flushed = [(c, *recorders[c].flush()) for c in cells]
        longest = max((len(states) for _, states, _ in flushed), default=0)
        for i in range(1, longest if emit_all and hooks else 0):
            for _, states, _ in flushed:
                if i < len(states):
                    (prev, p), (cur, q) = states[i - 1], states[i]
                    for hook in hooks:
                        hook(prev.t, prev.cell(p), cur.cell(q))
        for c, states, reason in flushed:
            if reason:
                cur, q = states[-1]
                end(c, cur.t, reason, cur, q)

    for t in range(head.max_iter):
        # a diverging cell overflows anywhere in its step; every output is
        # checked before use (X by require_interior, Z and Y by _finite, the
        # gradients through Y), so the cell ends with a status, not a warning
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            new, raised = _step_each(step, system, args, eta, delta)
        keep = _finite(new)
        if raised or not keep.all():
            if emit_all:
                record(live)  # a metric up to t ends a cell first
            for q, reason in raised.items():
                end(live[q], t, reason, system, q)
                if t and not emit_all:  # the state it ends on, end's copy
                    recorders[live[q]].observe(ends[live[q]][3])
            for q in np.flatnonzero(~keep):
                end(live[q], t + 1, "non-finite iterate", new, q)
            system, new = drop(system, new)
        if hooks and not emit_all:
            for q in range(len(live)):
                for hook in hooks:
                    hook(t, system.cell(q), new.cell(q))
        system = new
        if len(live) and (emit_all or t + 1 == head.max_iter):
            for q, c in enumerate(live):
                recorders[c].observe(system, q)
            if recorders[live[0]].pending >= diagnostics.CHUNK:
                record(live)
                system, = drop(system)
        if not len(live):
            break
    record(range(len(cfgs)))
    for q, c in enumerate(live):
        ends.setdefault(c, ("done", None, "", system.cell(q)))
    results = []
    for c, recorder in enumerate(recorders):
        status, diverged_at, reason, final = ends[c]
        recorder.mark_final(status)
        results.append(RunResult(records=recorder.records, system=final,
                                 status=status, diverged_at=diverged_at,
                                 reason=reason))
    return results[0] if isinstance(cfg, AlgoConfig) else results


def compliant_parameters(kernel, L, rho, m):
    """Step size and clipping radius satisfying the convergence hypotheses.

    delta is the largest radius with zeta(2 delta) <= (1 - rho)/2 (found by
    bisection on the monotone modulus, capped at ``DELTA_CAP``); eta is
    (1 - rho)^2 / (25 L lambda^2) with lambda = 1 + zeta(sqrt(20 m) delta /
    (1 - rho)).
    """
    target = (1.0 - rho) / 2.0
    delta = 0.5 * kernel.modulus.largest_delta(target, cap=2.0 * DELTA_CAP)
    lam = diagnostics.lambda_of(kernel, m, rho, delta)
    if not math.isfinite(lam):
        raise ValueError(
            f"{kernel.name}: lambda = 1 + zeta(sqrt(20 m) delta / (1 - rho)) "
            f"is not finite at the compliant delta = {delta:g} (m = {m:g}, "
            f"rho = {rho:g})")
    eta = (1.0 - rho) ** 2 / (25.0 * L * lam * lam)
    return eta, delta, lam
