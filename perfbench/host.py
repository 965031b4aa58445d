"""Host speed probe: a fixed slice of work timed next to the program's.

On a shared VM the same single-threaded work can take 1.8x longer for
minutes at a time, and process CPU time slows with it, so it is not
preemption.  Raw wall times then spread 15-35% between runs.  The benchmark
runs :meth:`HostProbe.slice` before a workload call, after every cell and
after the call, and divides each cell's time by the host factor measured
around it: the slice's time over ``QUIET_S``, its time on a quiet host.
The slice does not use dualmix but does the same kind of work: small numpy
arrays driven from Python.
"""

from __future__ import annotations

import time

import numpy as np

QUIET_S = 0.005  # one slice on a quiet 2-core Xeon VM
_ITERS = 50


class HostProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._A = np.abs(rng.standard_normal((8, 50, 200)))
        self._X = rng.random((8, 200)) + 0.1
        self._W = np.full((8, 8), 1.0 / 8.0)

    def slice(self) -> tuple:
        """Run the slice once; returns ``(seconds, host factor)``."""
        A, X, W = self._A, self._X, self._W
        t0 = time.perf_counter()
        for _ in range(_ITERS):
            ax = np.maximum(np.einsum("mnd,md->mn", A, X), 1e-300)
            G = np.einsum("mnd,mn->md", A, 1.0 - 2.0 / ax)
            norms = np.linalg.norm(G, axis=1, keepdims=True)
            X = W @ (X - 1e-9 * G * np.minimum(1.0, 1.0 / norms))
            if not (np.all(np.isfinite(X)) and np.all(X > 0)):
                raise ArithmeticError("host probe left the positive orthant")
        seconds = time.perf_counter() - t0
        return seconds, seconds / QUIET_S


def normalized_seconds(wall, cells, factors) -> float:
    """A call's time at quiet-host speed.

    ``factors[0]`` was measured before the call, ``factors[i + 1]`` after
    cell ``i`` and ``factors[-1]`` after the call; ``wall`` excludes the
    slices run during the call.  Each cell is divided by the mean of the two
    factors around it, the rest of the call by the mean of all of them.
    """
    in_cells = sum(c["wall"] for c in cells)
    scaled = sum(c["wall"] / ((factors[i] + factors[i + 1]) / 2)
                 for i, c in enumerate(cells))
    return scaled + (wall - in_cells) * len(factors) / sum(factors)
