"""Cauchy-convergence reports over scale grids.

A report records function values on a (point x scale) grid, a per-point
Cauchy verdict over a window of the last scales (finite, and mutually within
``tol``), per-point limit estimates (the value at the final scale), and an
overall verdict.  The window holds the scales within half a decade (10**0.5)
of the final one, at least three and never the first, so a grid needs four
(on a single scale the verdict would pass trivially).  A denser grid cannot
narrow it, and as the geometric ratio is periodic in log eps with a period
of log10(1/p) decades, it covers a full period for every p >= 10**-0.5.
Diagnostics that additionally require a nondegenerate limit set
``nondegenerate``; the overall ``verdict`` is then
converged-and-nondegenerate.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ConvergenceReport", "build_report", "DEFAULT_CAUCHY_TOL"]

# the fewest scales a Cauchy verdict compares, the factor in scale it spans,
# and the spread it allows by default
CAUCHY_WINDOW = 3
CAUCHY_SPAN = 10**0.5
DEFAULT_CAUCHY_TOL = 1e-3


def _check_tol(tol: float, name: str = "tol") -> None:
    """Refuse a tolerance that is NaN or negative: either makes every verdict
    negative whatever the values."""
    if math.isnan(tol) or tol < 0.0:
        raise DomainError(f"{name} must be >= 0, got {tol!r}")


@dataclass(frozen=True)
class ConvergenceReport:
    scale_name: str          # "eps" or "n"
    scales: tuple            # grid of scales, in evaluation order
    point_name: str          # "uv" or "x"
    points: tuple            # (u, v) pairs or plain x values
    values: np.ndarray       # shape (len(points), len(scales))
    tol: float
    window: int
    converged_per_point: tuple
    converged: bool
    limit_table: tuple       # (point, limit estimate) pairs
    nondegenerate: bool | None = None

    @property
    def verdict(self) -> bool:
        return self.converged and self.nondegenerate is not False


def build_report(
    scale_name: str,
    scales,
    point_name: str,
    points,
    values: np.ndarray,
    tol: float,
    nondegenerate: bool | None = None,
) -> ConvergenceReport:
    _check_tol(tol)
    values = np.asarray(values, dtype=float)
    if values.shape != (len(points), len(scales)):
        raise DomainError(
            f"values shape {values.shape} does not match "
            f"{len(points)} points x {len(scales)} scales"
        )
    if len(scales) < CAUCHY_WINDOW + 1:
        raise DomainError(
            f"need at least {CAUCHY_WINDOW + 1} scales for a Cauchy window of "
            f"{CAUCHY_WINDOW}, got {len(scales)}"
        )
    near = 0  # the scales within the span of the last, a suffix of a monotone grid
    for s in reversed(scales):
        if not 1.0 / CAUCHY_SPAN <= s / scales[-1] <= CAUCHY_SPAN:
            break
        near += 1
    window = min(len(scales) - 1, max(CAUCHY_WINDOW, near))
    tail = values[:, -window:]
    with np.errstate(invalid="ignore"):  # inf - inf; such a row fails anyway
        spread = np.ptp(tail, axis=1)
    per_point = tuple((np.isfinite(tail).all(axis=1) & (spread <= tol)).tolist())
    limits = tuple(zip(points, values[:, -1].tolist()))
    return ConvergenceReport(
        scale_name=scale_name,
        scales=tuple(scales),
        point_name=point_name,
        points=tuple(points),
        values=values,
        tol=tol,
        window=window,
        converged_per_point=per_point,
        converged=all(per_point),
        limit_table=limits,
        nondegenerate=nondegenerate,
    )
