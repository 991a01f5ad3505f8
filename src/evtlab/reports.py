"""Cauchy-convergence reports over scale grids.

A report records function values on a (point x scale) grid, a per-point
Cauchy verdict over the last ``window`` scales, per-point limit estimates
(the value at the final scale), and an overall verdict.  A grid needs at
least ``window + 1`` scales, so the verdict never covers the whole sweep
(on a single scale it would pass trivially).  Diagnostics that
additionally require a nondegenerate limit set ``nondegenerate``; the
overall ``verdict`` is then converged-and-nondegenerate.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = ["ConvergenceReport", "cauchy_converged", "build_report"]

CAUCHY_WINDOW = 3


def cauchy_converged(values, tol: float, window: int = CAUCHY_WINDOW) -> bool:
    """True iff the last ``window`` values are finite and mutually within tol."""
    arr = np.asarray(values, dtype=float)
    tail = arr[-min(window, arr.size):]
    if not np.all(np.isfinite(tail)):
        return False
    return float(np.max(tail) - np.min(tail)) <= tol


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
    window: int = CAUCHY_WINDOW,
    nondegenerate: bool | None = None,
) -> ConvergenceReport:
    values = np.asarray(values, dtype=float)
    if values.shape != (len(points), len(scales)):
        raise DomainError(
            f"values shape {values.shape} does not match "
            f"{len(points)} points x {len(scales)} scales"
        )
    if len(scales) < window + 1:
        raise DomainError(
            f"need at least {window + 1} scales for a Cauchy window of {window}, "
            f"got {len(scales)}"
        )
    per_point = tuple(cauchy_converged(row, tol, window) for row in values)
    limits = tuple((p, float(values[i, -1])) for i, p in enumerate(points))
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
