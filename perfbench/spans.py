"""Call-boundary tracing of the dualmix modules, installed from outside.

Nothing under ``src/`` is edited.  :class:`Tracer` replaces every public
function and every public method of the traced modules by a wrapper that
times the call, and restores the originals on exit.  A span's self time is
its duration minus the durations of the traced calls made inside it, so the
self times of one call tree add up to its wall time.

Spans are not kept one by one (a tune call makes a few hundred thousand of
them).  They are folded as they close into ``(cell, span name) -> [calls,
self_s, total_s]``.  A cell is one ``cli.execute_run`` call; spans outside
any cell (config parsing, tune's table, run_batch's writes) go to the cell
``"batch"``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

# The modules on the run/tune path.  hruc, modulus and invariants are not.
TRACED_MODULES = ("cli", "config", "problems", "network", "kernels",
                  "domains", "algorithms", "diagnostics")

BATCH = "batch"


def cell_key(algo_spec, seed, eta=None, delta=None) -> str:
    """The cell a ``cli.execute_run(cfg, algo_spec, seed, ...)`` call runs."""
    eta = algo_spec.get("eta") if eta is None else eta
    delta = algo_spec.get("delta") if delta is None else delta
    key = f"{algo_spec['kind']} eta={eta:g}"
    if delta is not None:
        key += f" delta={delta:g}"
    return f"{key} seed={seed}"


def layer_name(span: str) -> str:
    """Metric name of a span: the class is dropped from method spans, so
    ``kernels.AffineKernel.grad`` and ``kernels.SeparableKernel.grad`` both
    count as ``kernels.grad``.  The recorder keeps its class, because its
    method names (``observe``) say nothing without it."""
    parts = span.split(".")
    if len(parts) == 3 and parts[1] != "Recorder":
        return f"{parts[0]}.{parts[2]}"
    return span


class Tracer:
    """Context manager that traces the dualmix modules while active."""

    def __init__(self):
        self._patched = []       # (owner, attribute, original)
        self._stack = []         # child time of every open span
        self.cell = BATCH
        self.agg = {}            # (cell, span) -> [calls, self_s, total_s]
        self.f_evals = {}        # cell -> evaluations of solve_increasing's f

    def exclude(self, seconds):
        """Take ``seconds`` of non-program work done inside the innermost
        open span out of that span's self time."""
        if self._stack:
            self._stack[-1] += seconds

    def reset(self):
        self.cell = BATCH
        self.agg = {}
        self.f_evals = {}

    # -- installation ------------------------------------------------------

    def __enter__(self):
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"dualmix.{short}")
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) \
                        != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    self._patch(mod, name, f"{short}.{name}")
                elif inspect.isclass(obj):
                    for attr, val in list(vars(obj).items()):
                        if not attr.startswith("_") and inspect.isfunction(val):
                            self._patch(obj, attr, f"{short}.{name}.{attr}")
        # kernels holds its own reference to the scalar solver
        self._patch(importlib.import_module("dualmix.kernels"),
                    "solve_increasing", "kernels.solve_increasing")
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()
        return False

    def _patch(self, owner, attr, span):
        original = vars(owner)[attr]
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, span,
                                        count_f=(attr == "solve_increasing")))

    def _wrap(self, fn, span, count_f=False):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count_f:
                args = (tracer._counting(args[0]),) + args[1:]
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                key = (tracer.cell, span)
                rec = tracer.agg.get(key)
                if rec is None:
                    tracer.agg[key] = [1, dt - child, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt - child
                    rec[2] += dt

        return traced

    def _counting(self, f):
        cell = self.cell

        def counted(t):
            self.f_evals[cell] = self.f_evals.get(cell, 0) + 1
            return f(t)

        return counted


def fold(agg) -> dict:
    """``{cell: {layer: [calls, self_s, total_s]}}`` from a tracer's ``agg``,
    with spans merged by :func:`layer_name`."""
    out = {}
    for (cell, span), rec in agg.items():
        acc = out.setdefault(cell, {}).setdefault(layer_name(span), [0, 0.0, 0.0])
        for i in range(3):
            acc[i] += rec[i]
    return out
