"""Numeric certification of relative Hessian regularity.

The certifier is a falsification test: it samples pairs at bounded
dual-space distance, measures the worst relative Hessian gap, and compares
it with the kernel's analytic modulus.  A clean report means "consistent
with" the modulus over the sampled region; it is not a proof.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

import numpy as np

from .errors import NotInImage, SamplingExhausted
from .kernels import Kernel

CERT_TOL = 1e-9
# a delta = 0 pair (x, grad_conj(grad(x))) differs by the inverse's error,
# which peaks near a bound: gaps of 1.8e-11 for Fermi-Dirac's iterative
# inverse and 1.7e-9 for Hellinger's closed form at the sampler's 1e-7 margin
GAP_FLOOR = 1e-8


def relative_hessian_gap(kernel: Kernel, x, y):
    """Spectral norm of H(x) H(y)^{-1} - I for the kernel Hessian H, one per
    pair of stacked points x, y (..., d); a float for a single pair.

    Diagonal Hessians reduce to max_i |d_x[i]/d_y[i] - 1|; otherwise the
    small dense products are formed and their largest singular values taken.
    Each pair rounds as if it were alone.
    """
    dx = kernel.hess_diag(x)
    if dx is not None:
        gap = np.max(np.abs(dx / kernel.hess_diag(y) - 1.0), axis=-1)
    else:
        HxT, HyT = (np.swapaxes(kernel.hess_matrix(p), -1, -2) for p in (x, y))
        M = np.swapaxes(np.linalg.solve(HyT, HxT), -1, -2) - np.eye(kernel.dim)
        gap = np.linalg.norm(M, 2, axis=(-2, -1))
    return float(gap) if gap.ndim == 0 else gap


@dataclass
class HrucReport:
    """Per-delta worst observed gap against the analytic modulus."""

    kernel_id: str
    delta_grid: list
    worst_gap: list
    analytic_zeta: list
    n_samples: int
    violations: list = field(default_factory=list)  # (x, y, delta, gap)
    notes: str = ""

    @property
    def consistent(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"kernel: {self.kernel_id}  ({self.n_samples} samples per delta)",
            f"{'delta':>10}  {'worst gap':>14}  {'analytic zeta':>14}  status",
        ]
        violated = {(delta, gap) for _, _, delta, gap in self.violations}
        for d, g, z in zip(self.delta_grid, self.worst_gap, self.analytic_zeta):
            lines.append(
                f"{d:>10.4g}  {g:>14.6e}  {z:>14.6e}  "
                + ("VIOLATION" if (d, g) in violated else "consistent")
            )
        if self.notes:
            lines.append(f"note: {self.notes}")
        return "\n".join(lines)

    def csv_rows(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["delta", "worst_gap", "analytic_zeta", "n_samples"])
        for d, g, z in zip(self.delta_grid, self.worst_gap, self.analytic_zeta):
            writer.writerow([f"{d:.17g}", f"{g:.17g}", f"{z:.17g}", self.n_samples])
        return buf.getvalue()


def certify(kernel: Kernel, delta_grid, n_samples: int, seed: int,
            floor: float = 0.1) -> HrucReport:
    """Sample pairs with dual distance <= delta and record the worst gap.

    Base points come from the kernel's interior sampler; the second point is
    the inverse mirror image of a uniformly drawn dual perturbation, so the
    pair's dual distance equals the perturbation norm by construction.
    Each delta gets its own substream keyed by (seed, delta index) and the
    whole sample matrix is drawn before any evaluation, so the max-reduction
    is order-independent and reproducible under any parallel schedule.
    A worst gap violates the modulus when it exceeds zeta(delta) by more
    than the relative CERT_TOL plus the absolute GAP_FLOOR.
    """
    delta_grid = [float(d) for d in delta_grid]
    if not delta_grid or n_samples < 1:
        raise ValueError("need a nonempty grid and at least one sample")
    zetas = [kernel.zeta(delta) for delta in delta_grid]
    worst, violations = [], []
    for j, delta in enumerate(delta_grid):
        rng = np.random.default_rng([seed, j])
        X = kernel.sample_interior(rng, n_samples, floor=floor)
        # uniform in the delta-ball: direction times radius^(1/d) scaling
        U = rng.standard_normal(X.shape)
        U /= np.linalg.norm(U, axis=1, keepdims=True)
        U *= delta * rng.random((n_samples, 1)) ** (1.0 / kernel.dim)
        Z = kernel.grad(X) + U
        kept = np.ones(n_samples, dtype=bool)
        try:
            Y = kernel.grad_conj(Z)
        except NotInImage:  # retried point by point; the unattained drop out
            Y = np.empty_like(X)
            for i in range(n_samples):
                try:
                    Y[i] = kernel.grad_conj(Z[i])
                except NotInImage:
                    kept[i] = False
        rejected = n_samples - int(kept.sum())
        if rejected > 0.99 * n_samples:
            raise SamplingExhausted(
                f"{kernel.name}: {rejected}/{n_samples} dual samples rejected")
        X, Y = X[kept], Y[kept]
        gaps = relative_hessian_gap(kernel, X, Y)
        gaps = np.where(gaps > 0.0, gaps, 0.0)  # a NaN gap is never the worst
        i = int(np.argmax(gaps))
        worst.append(float(gaps[i]))
        if worst[-1] > zetas[j] * (1.0 + CERT_TOL) + GAP_FLOOR:
            violations.append((X[i].copy(), Y[i].copy(), delta, worst[-1]))
    notes = "interior sampling only; boundary pairs are never drawn"
    if kernel.domain.simplex:
        notes += "; simplex-supported kernel sampled on the simplex interior, " \
                 "conjugate images range over the positive orthant"
    return HrucReport(
        kernel_id=kernel.name,
        delta_grid=delta_grid,
        worst_gap=worst,
        analytic_zeta=zetas,
        n_samples=n_samples,
        violations=violations,
        notes=notes,
    )
