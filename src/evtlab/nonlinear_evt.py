"""Nonlinear normalization: g_n(M_n) can converge to any prescribed law.

For a uniform base, g_n(x) = G_inv(exp(-n(1-x))) maps the maximum of n
uniforms into a sample whose law converges to the target G; for a general
continuous base the same works through its survival function S = 1 - F,
g_n(x) = G_inv(exp(-n S(x))), which keeps the mass 1 - F(x) would cancel.
Discrete bases are refused: their cdf never takes the intermediate values
the construction needs, which is exactly the obstruction the geometric law
exhibits.

``convergence_diagnostic`` tabulates the normalized profiles h_n over an
(x, n) grid, one base tail-quantile call (at the tail masses of the chosen
``HnVariant``) and one g_n call per n over all x,
applies the Cauchy verdict per x, and checks that the limit profile is
nondegenerate; the overall verdict is the conjunction.
"""

import math
from dataclasses import dataclass

import numpy as np

from .dist import CONTINUOUS, Distribution, tail_quantile
from .errors import DomainError, UnsupportedBaseError
from .linear_evt import norming_constants
from .maxima import HnVariant, _h_n_args, spot_check_monotone
from .reports import DEFAULT_CAUCHY_TOL, ConvergenceReport, _check_tol, build_report
from .stats import _scalar_or_array

__all__ = [
    "DEFAULT_NONDEG_TOL",
    "DEFAULT_N_GRID",
    "default_x_grid",
    "build_g_n",
    "build_g_n_general",
    "NormalizerSequence",
    "nondegeneracy_check",
    "convergence_diagnostic",
]

DEFAULT_NONDEG_TOL = 1e-6
DEFAULT_N_GRID = (100, 1000, 10000, 100000)

_TINY = np.nextafter(0.0, 1.0)


def default_x_grid(count: int = 32):
    """Geometric grid on [1/16, 16], the scale window the diagnostics use."""
    return np.geomspace(1.0 / 16.0, 16.0, count)


def _g_n(target: Distribution, n: int, survival):
    """g_n(x) = G_inv(exp(-n S(x))) for the base survival function S.

    A level exp(-n S(x)) that underflows to 0 is floored at the smallest
    positive double, so the map stays total and monotone; one that rounds
    to 1 is a ``DomainError``, as G_inv(1) is no value of g_n.
    """
    if not isinstance(n, (int, np.integer)) or n < 1:
        raise DomainError(f"n must be a positive integer, got {n!r}")

    def g(x):
        arr = np.asarray(x, dtype=float)
        if np.any(np.isnan(arr)):
            raise DomainError(f"g_{n}: x must not be NaN")
        level = np.exp(-float(n) * survival(arr))
        saturated = np.flatnonzero(level >= 1.0)
        if saturated.size:
            raise DomainError(
                f"n = {n}: the level exp(-n(1 - F(x))) rounds to 1 at "
                f"x = {float(arr.flat[saturated[0]])!r}, where G_inv(1) is no value of g_n"
            )
        return _scalar_or_array(x, target.quantile(np.maximum(level, _TINY)))

    return g


def build_g_n(target: Distribution, n: int):
    """g_n(x) = G_inv(exp(-n(1-x))) for a uniform base; nondecreasing in x."""
    return _g_n(target, n, lambda x: 1.0 - x)


def build_g_n_general(target: Distribution, base: Distribution, n: int):
    """g_n(x) = G_inv(exp(-n S(x))) through a continuous base's S = 1 - F.

    Refuses a discrete base: a step cdf skips the levels the construction
    must pass through, so no such g_n can work.
    """
    if base.kind != CONTINUOUS:
        raise UnsupportedBaseError(
            f"base {base.name!r} is {base.kind}; the construction needs a "
            "continuous cdf"
        )
    return _g_n(target, n, base.sf)


@dataclass(frozen=True)
class NormalizerSequence:
    """A base law plus a builder n -> g_n of monotone normalizers."""

    base: Distribution
    builder: callable
    direction: str = "nondecreasing"

    @classmethod
    def from_target(cls, target: Distribution, base: Distribution) -> "NormalizerSequence":
        return cls(base=base, builder=lambda n: build_g_n_general(target, base, n))

    @classmethod
    def affine(cls, base: Distribution) -> "NormalizerSequence":
        def builder(n):
            nc = norming_constants(base, n)

            def g(x):
                return (np.asarray(x, dtype=float) - nc.b_n) / nc.a_n

            return g

        # a_n < 0 flips orientation
        return cls(base=base, builder=builder, direction="nonincreasing")


def nondegeneracy_check(values, tol: float) -> bool:
    """True iff the profile {(x, h(x))} varies by more than ``tol``.

    Needs at least two points with distinct x to be meaningful.
    """
    _check_tol(tol, "nondegeneracy tol")
    pts = [(float(x), float(h)) for x, h in values]
    if len({x for x, _ in pts}) < 2:
        raise DomainError("nondegeneracy check needs >= 2 distinct x values")
    hs = [h for _, h in pts]
    return (max(hs) - min(hs)) > tol


def convergence_diagnostic(
    normalizer: NormalizerSequence,
    x_grid=None,
    n_grid=DEFAULT_N_GRID,
    variant: HnVariant = HnVariant.LINEAR_FORM,
    tol: float = DEFAULT_CAUCHY_TOL,
    nondeg_tol: float = DEFAULT_NONDEG_TOL,
) -> ConvergenceReport:
    """Tabulate h_n(x) = g_n(Q_base(1 - .)) over (x, n) and judge convergence.

    Each x row gets the Cauchy verdict over the last three n; the limit
    estimate is the value at the largest n, and the limit profile must be
    nondegenerate at ``nondeg_tol``.  The g_n at the smallest and largest n
    are monotonicity spot-checked on their actual evaluation range before
    use.
    """
    xs = np.asarray(default_x_grid() if x_grid is None else x_grid, dtype=float)
    ns = [int(n) for n in n_grid]
    if xs.size == 0 or len(ns) == 0:
        raise DomainError("x_grid and n_grid must be nonempty")
    if np.any(np.isnan(xs)) or np.any(xs <= 0.0):
        raise DomainError("x_grid must be positive")
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise DomainError("n_grid must be strictly increasing")
    variant = HnVariant(variant)
    values = np.empty((xs.size, len(ns)))
    for j, n in enumerate(ns):
        g = normalizer.builder(n)
        qs = tail_quantile(normalizer.base, _h_n_args(n, xs, variant))
        values[:, j] = g(qs)
        if n in (ns[0], ns[-1]):
            lo, hi = float(np.min(qs)), float(np.max(qs))
            if math.isfinite(lo) and math.isfinite(hi) and lo < hi:
                spot_check_monotone(g, lo, hi, normalizer.direction)
    limits = values[:, -1]
    nondeg = nondegeneracy_check(zip(xs, limits), nondeg_tol)
    return build_report(
        "n", ns, "x", [float(x) for x in xs], values, tol, nondegenerate=nondeg
    )

