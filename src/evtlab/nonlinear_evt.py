"""Nonlinear normalization: g_n(M_n) can converge to any prescribed law.

For a uniform base, g_n(x) = G_inv(exp(-n(1-x))) maps the maximum of n
uniforms into a sample whose law converges to the target G; for a general
continuous base the same works through its survival function S = 1 - F,
g_n(x) = G_inv(exp(-n S(x))), which keeps the mass 1 - F(x) would cancel.
Discrete bases are refused: their cdf never takes the intermediate values
the construction needs, which is exactly the obstruction the geometric law
exhibits.

``convergence_diagnostic`` tabulates the normalized profiles h_n over an
(x, n) grid in one pass: one base tail-quantile call at the tail masses of
the chosen ``HnVariant`` for every (n, x), and one g_n call, built for the
whole n column, over all of them.  It applies the Cauchy verdict per x,
and checks that the limit profile is nondegenerate; the overall verdict is
the conjunction.
"""

from dataclasses import dataclass

import numpy as np

from .dist import CONTINUOUS, Distribution, tail_quantile
from .errors import DomainError, UnsupportedBaseError
from .linear_evt import _norming_arrays
from .maxima import HnVariant, _h_n_args, _indices, _spot_check
from .reports import DEFAULT_CAUCHY_TOL, ConvergenceReport, build_report
from .stats import _grid, _integer, _real, _reals, _scalar_or_array

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
    """Geometric grid of ``count`` points on [1/16, 16], the diagnostics' window."""
    return np.geomspace(1.0 / 16.0, 16.0, _integer(count, "count"))


def _g_n(target: Distribution, n, survival):
    """g_n(x) = G_inv(exp(-n S(x))) for the base survival function S.

    ``n`` is an integer from 1 to 2**960, or a column of them that the
    returned g broadcasts against its argument (each n taken as float(n)).  A level
    exp(-n S(x)) that underflows to 0 is floored at the smallest positive
    double, so the map stays total and monotone; one that rounds to 1 is a
    ``DomainError`` naming the first such (n, x) in flat order, as G_inv(1)
    is no value of g_n.
    """
    nf = np.asarray(_indices(n), dtype=float)

    def g(x):
        arr = _reals(x, "x", "[-inf, inf]")
        level = np.exp(-nf * survival(arr))
        saturated = level >= 1.0
        if saturated.any():
            i = np.argmax(saturated)  # the first, in flat order
            n_i, x_i = (np.broadcast_to(v, level.shape).flat[i] for v in (n, arr))
            raise DomainError(
                f"n = {n_i}: the level exp(-n(1 - F(x))) rounds to 1 at "
                f"x = {float(x_i)!r}, where G_inv(1) is no value of g_n"
            )
        return _scalar_or_array(x, target.quantile(np.maximum(level, _TINY)))

    return g


def build_g_n(target: Distribution, n):
    """g_n(x) = G_inv(exp(-n(1-x))) for a uniform base; nondecreasing in x."""
    return _g_n(target, n, lambda x: 1.0 - x)


def build_g_n_general(target: Distribution, base: Distribution, n):
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
    """A base law plus a builder n -> g_n of monotone normalizers.

    ``builder(n)`` takes an int n or a column of them (an (k, 1) array of
    Python ints), and the g it returns broadcasts against its argument:
    built for the column, g maps a (k, m) array row by row, row j through
    g_n at the j-th n.  ``convergence_diagnostic`` checks each n of its grid
    (an integer from 1 to 2**960), builds g once for the whole grid, and
    once more for the column of the first and last n, whose g it
    spot-checks for monotonicity in one call on both rows of points.
    """

    base: Distribution
    builder: callable
    direction: str = "nondecreasing"

    @classmethod
    def from_target(cls, target: Distribution, base: Distribution) -> "NormalizerSequence":
        return cls(base=base, builder=lambda n: build_g_n_general(target, base, n))

    @classmethod
    def affine(cls, base: Distribution) -> "NormalizerSequence":
        def builder(n):
            a, b = _norming_arrays(base, n)

            def g(x):
                return (_reals(x, "x", "[-inf, inf]") - b) / a

            return g

        # a_n < 0 flips orientation
        return cls(base=base, builder=builder, direction="nonincreasing")


def nondegeneracy_check(values, tol: float) -> bool:
    """True iff the profile {(x, h(x))} varies by more than ``tol``.

    Needs two distinct x; x and h are reals, inf but not NaN (``stats._reals``).
    """
    pts = list(values)
    return _varies([x for x, _ in pts], [h for _, h in pts], tol)


def _varies(xs, hs, tol) -> bool:
    """``nondegeneracy_check`` of the x and h columns, taken as arrays."""
    tol = _real(tol, "nondegeneracy tol", "[0, inf]")
    xs = _reals(xs, "nondegeneracy x", "[-inf, inf]")
    hs = _reals(hs, "nondegeneracy h", "[-inf, inf]")
    if not xs.min() < xs.max():  # xs holds no NaN
        raise DomainError("nondegeneracy check needs >= 2 distinct x values")
    return float(hs.max()) - float(hs.min()) > tol  # in Python floats: inf - inf is nan, no warning


def convergence_diagnostic(
    normalizer: NormalizerSequence,
    x_grid=None,
    n_grid=DEFAULT_N_GRID,
    variant: HnVariant = HnVariant.LINEAR_FORM,
    tol: float = DEFAULT_CAUCHY_TOL,
    nondeg_tol: float = DEFAULT_NONDEG_TOL,
) -> ConvergenceReport:
    """Tabulate h_n(x) = g_n(Q_base(1 - .)) over (x, n) and judge convergence.

    Each x row gets the Cauchy verdict over the report's window of n
    (``build_report``); the limit estimate is the value at the largest n, and
    the limit profile must be nondegenerate at ``nondeg_tol``.  The grid is
    one pass: the builder is called once with the n column, and its g once on
    every tail quantile.  The g_n at the smallest and largest n are then
    monotonicity spot-checked on their actual evaluation range, as
    ``spot_check_monotone`` checks one: the builder is called once more with
    the column of those two n, and its g once on both rows of points (a row
    whose range is one point is left out).  Where several (n, x) fail, the
    first failure in n-major order is named within the first stage that
    fails: the builder, the tail masses, the tail quantiles, g, then the
    spot checks, the smallest n first.
    """
    ns = _indices(np.asarray(n_grid, dtype=object))
    ns = _grid(ns, "n_grid", order=1, least=1, int64=False).tolist()
    xs = _grid(default_x_grid() if x_grid is None else x_grid, "x_grid")
    variant = HnVariant(variant)
    # one pass over the n-major (n, x) grid; the report wants (x, n)
    n_col = np.array(ns, dtype=object)[:, None]
    g = normalizer.builder(n_col)
    qs = tail_quantile(normalizer.base, _h_n_args(n_col, xs, variant))
    values = np.asarray(g(qs), dtype=float).T
    ends = sorted({0, len(ns) - 1})
    lo, hi = qs[ends].min(axis=1), qs[ends].max(axis=1)  # finite, as tail quantiles are
    checked = lo < hi
    if checked.any():
        g = normalizer.builder(n_col[ends][checked])
        _spot_check(g, lo[checked], hi[checked], normalizer.direction)
    nondeg = _varies(xs, values[:, -1], nondeg_tol)
    return build_report("n", ns, "x", xs.tolist(), values, tol, nondegenerate=nondeg)

