"""Nonlinear normalization: g_n(M_n) can converge to any prescribed law.

``build_g_n_general`` builds g_n(x) = G_inv(exp(-n S(x))) from a continuous
base's survival function S = 1 - F (S(x) = 1 - x for a uniform base), which
keeps the mass 1 - F(x) would cancel; g_n maps the maximum of n draws from
the base into a sample whose law converges to the target G.
Discrete bases are refused: their cdf never takes the intermediate values
the construction needs, which is exactly the obstruction the geometric law
exhibits.

The normalized maximum profile h_n(x) = g_n(Q(1 - eps)) is taken at the
base tail quantile, with the tail mass in one of two forms (``HnVariant``):
``exp_form`` eps = 1 - exp(-x/n) or ``linear_form`` eps = x/n.  They agree
as n grows (exp_form >= linear_form for nondecreasing g_n); the gap at
fixed x shrinks like x**2/(2n).  ``convergence_diagnostic`` tabulates h_n
over an (x, n) grid in one pass: one base tail-quantile call at the tail
masses of every (n, x), and one g_n call, built for the whole n column,
over all of them.  It applies the Cauchy verdict per x, spot-checks the
monotonicity of the g_n at the smallest and largest n, and checks that the
limit profile is nondegenerate; the overall verdict is the conjunction.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import CONTINUOUS, Distribution, _finite_quantiles
from .errors import ContractViolationError, DomainError, UnsupportedBaseError
from .linear_evt import _norming_arrays
from .reports import DEFAULT_CAUCHY_TOL, ConvergenceReport, build_report
from .stats import (
    _cells, _first, _grid, _indices, _integer, _ordered, _real, _reals, _scalar_or_array, _vector
)

__all__ = [
    "DEFAULT_NONDEG_TOL",
    "DEFAULT_N_GRID",
    "HnVariant",
    "default_x_grid",
    "build_g_n_general",
    "NormalizerSequence",
    "convergence_diagnostic",
]

DEFAULT_NONDEG_TOL = 1e-6
DEFAULT_N_GRID = (100, 1000, 10000, 100000)

_TINY = np.nextafter(0.0, 1.0)
_DIRECTIONS = ("nondecreasing", "nonincreasing")


def default_x_grid(count: int = 32):
    """Geometric grid of ``count`` points on [1/16, 16], the diagnostics' window."""
    return np.geomspace(1.0 / 16.0, 16.0, _integer(count, "count"))


class HnVariant(str, Enum):
    EXP_FORM = "exp_form"
    LINEAR_FORM = "linear_form"

    @classmethod
    def _missing_(cls, value):
        # Enum re-raises this, a ValueError, in place of its own bare one
        choices = [v.value for v in cls]
        raise DomainError(f"variant must be one of {choices}, got {value!r}")


def _h_n_args(n, x, variant: HnVariant):
    """The base tail masses of h_n at the positive reals in array x,
    checked to lie in (0, 1): 1 - exp(-x/n) or x/n.

    ``n`` is a checked index (``stats._indices``), an int or a column of them,
    broadcast against x; the first mass outside (0, 1) in flat (n-major)
    order is the one named.
    """
    nf = np.asarray(n, dtype=float)
    if variant is HnVariant.EXP_FORM:
        args = -np.expm1(-x / nf)
        msg = "exp_form: 1 - exp(-x/n) = {arg} left (0, 1) for x={x}, n={n}"
    else:
        args = x / nf
        msg = "linear_form: x must lie in (0, n), got x={x}, n={n}"
    i = _first((args > 0.0) & (args < 1.0))  # the first mass outside, in flat order
    if i >= 0:
        x, n = (np.broadcast_to(v, args.shape).flat[i] for v in (x, n))
        raise DomainError(msg.format(arg=args.flat[i], x=x, n=n))
    return args


_SPOT_CHECK_POINTS = 200
# the points of a spot check are _RAMP * step + lo, as np.linspace forms them
_RAMP = np.arange(float(_SPOT_CHECK_POINTS))
_LARGEST = np.finfo(float).max


def _spot_check(g, lo, hi, direction: str) -> None:
    """Spot-check that ``g`` is ``direction`` ("nondecreasing", else
    nonincreasing) on each row [lo, hi]: lo and hi are float arrays of one
    shape, () or (k,), with lo < hi in every entry, and ``g`` is called once
    on an array of shape lo.shape + (200,), each row's points
    ``np.linspace(lo, hi, 200)``, or where hi - lo overflows the points of
    [lo/2, hi/2] doubled, so they stay finite.  No stream is drawn from.

    Raises ``ContractViolationError`` on a violation beyond float slack, and
    on a NaN value of g, naming the first such point: a monotone g has an
    ordered value at every point.  Values of +-inf are ordered like others;
    the slack comes from the finite values alone, and inf next to the same
    inf is no step.  The rows are checked in order, and within a row a NaN
    value before the order of the values.
    """
    lo, hi = lo[..., None], hi[..., None]
    with np.errstate(over="ignore"):
        span = hi - lo
    wide = _first(np.isfinite(span)) >= 0
    if wide:  # the span overflows only with both ends beyond 2**970, where halving is exact
        scale = np.where(np.isfinite(span), 1.0, 2.0)
        lo, hi = lo / scale, hi / scale
        span = hi - lo
    step = span / (_SPOT_CHECK_POINTS - 1)
    if np.count_nonzero(step) < step.size:  # a subnormal span: np.linspace scales the ramp first
        pts = np.where(step == 0.0, _RAMP / (_SPOT_CHECK_POINTS - 1) * span, _RAMP * step)
    else:
        pts = _RAMP * step
    pts += lo
    pts[..., -1:] = hi
    if wide:
        pts *= scale
    vals = np.asarray(g(pts), dtype=float)
    with np.errstate(invalid="ignore", over="ignore"):  # inf - inf is nan, no step
        steps = vals[..., 1:] - vals[..., :-1]
    # sizes capped at the largest double: a step to or from +-inf, itself +-inf
    # or nan, is judged by its sign alone, not by an infinite slack
    size = np.minimum(np.abs(vals), _LARGEST)
    tol = 1e-9 * np.maximum(1.0, np.maximum(size[..., :-1], size[..., 1:]))
    bad = steps < -tol if direction == "nondecreasing" else steps > tol
    if _first(bad, True) < 0 and not math.isnan(vals.min()):  # the min is nan if any value is
        return
    rows = (np.reshape(a, (-1, a.shape[-1])) for a in (pts, vals, np.isnan(vals), bad))
    for p, v, at_nan, at_bad in zip(*rows):
        if at_nan.any():
            i = int(np.argmax(at_nan))
            raise ContractViolationError(
                f"g({p[i]}) = nan: a {direction} g has a value at every point"
            )
        if at_bad.any():
            i = int(np.argmax(at_bad))
            raise ContractViolationError(
                f"g is not {direction}: g({p[i]}) = {v[i]} vs g({p[i + 1]}) = {v[i + 1]}"
            )


def _g_n(target: Distribution, n, survival):
    """g_n(x) = G_inv(exp(-n S(x))) for the base survival function S.

    ``n`` is a checked integer from 1 to 2**960, or a column of them that the
    returned g broadcasts against its argument (each n taken as float(n)).  A level
    exp(-n S(x)) that underflows to 0 is floored at the smallest positive
    double, so the map stays total and monotone; one that rounds to 1 is a
    ``DomainError`` naming the first such (n, x) in flat order, as G_inv(1)
    is no value of g_n.
    """
    minus_n = -np.asarray(n, dtype=float)

    def g(x):
        arr = _reals(x, "x", "[-inf, inf]")
        level = np.exp(minus_n * survival(arr))
        i = _first(level >= 1.0, True)  # the first, in flat order
        if i >= 0:
            n_i, x_i = (np.broadcast_to(v, level.shape).flat[i] for v in (n, arr))
            raise DomainError(
                f"n = {n_i}: the level exp(-n(1 - F(x))) rounds to 1 at "
                f"x = {float(x_i)!r}, where G_inv(1) is no value of g_n"
            )
        return _scalar_or_array(arr, target.quantile(np.maximum(level, _TINY)))

    return g


def _continuous_sf(base: Distribution):
    """The survival function of a continuous base; a discrete base is refused."""
    if base.kind != CONTINUOUS:
        raise UnsupportedBaseError(
            f"base {base.name!r} is {base.kind}; the construction needs a "
            "continuous cdf"
        )
    return base.sf


def build_g_n_general(target: Distribution, base: Distribution, n):
    """g_n(x) = G_inv(exp(-n S(x))) through a continuous base's S = 1 - F.

    Refuses a discrete base: a step cdf skips the levels the construction
    must pass through, so no such g_n can work.
    """
    sf = _continuous_sf(base)
    return _g_n(target, _indices(n), sf)


@dataclass(frozen=True)
class NormalizerSequence:
    """A base law plus a builder n -> g_n of monotone normalizers.

    The builder contract: ``builder(n)`` gets n already checked, an int from
    1 to 2**960 or a column of them (a (k, 1) object array of Python ints),
    and does not check it again (``affine``'s refuses an n below 3, which
    its mass 2/n needs); ``build_g_n_general`` checks an n from outside.
    The g it returns checks its own argument and broadcasts against it:
    built for the column, g maps a (k, m) array row by row, row j through
    g_n at the j-th n.  ``convergence_diagnostic`` checks each n
    of its grid once, builds g once for the whole grid, and once more for
    the column of the first and last n, whose g it spot-checks for
    monotonicity in one call on both rows of points.  ``direction`` is the
    monotonicity of every g_n, "nondecreasing" or "nonincreasing".
    """

    base: Distribution
    builder: callable
    direction: str = "nondecreasing"

    def __post_init__(self):
        if self.direction not in _DIRECTIONS:
            raise DomainError(
                f"direction must be one of {list(_DIRECTIONS)}, got {self.direction!r}"
            )

    @classmethod
    def from_target(cls, target: Distribution, base: Distribution) -> "NormalizerSequence":
        sf = _continuous_sf(base)
        return cls(base=base, builder=lambda n: _g_n(target, n, sf))

    @classmethod
    def affine(cls, base: Distribution) -> "NormalizerSequence":
        def builder(n):
            if np.min(n) < 3:
                _indices(n, least=3)  # refuses, naming the first n below 3
            a, b = _norming_arrays(base, n)

            def g(x):
                return (_reals(x, "x", "[-inf, inf]") - b) / a

            return g

        # a_n < 0 flips orientation
        return cls(base=base, builder=builder, direction="nonincreasing")


def _varies(xs, hs, tol: float) -> bool:
    """True iff the profile {(x, h(x))} varies by more than ``tol``: the
    nondegeneracy check of a limit profile.  ``xs`` and ``tol`` come checked,
    and ``xs`` must hold two distinct x; h, made by user code, is checked
    here as reals, inf but not NaN (``stats._reals``)."""
    hs = _reals(hs, "nondegeneracy h", "[-inf, inf]")
    if _first(xs == xs[0]) < 0:  # xs holds no NaN
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
    monotonicity spot-checked, at 200 points each, on their actual
    evaluation range (``_spot_check``): the builder is called once
    more with the column of those two n, and its g once on both rows of
    points (a row whose range is one point is left out).  Where several
    (n, x) fail, the first failure in n-major order is named within the
    first stage that fails: the builder, the tail masses, the tail
    quantiles, g, then the spot checks, the smallest n first.
    """
    # Python ints, so the order of n past 2**53 is decided exactly
    ns = _indices(np.asarray(n_grid, dtype=object))
    ns = _ordered(_vector(ns, "n_grid"), "n_grid", 1)
    xs = _grid(default_x_grid() if x_grid is None else x_grid, "x_grid")
    variant = HnVariant(variant)
    _cells(xs.size, ns.size, "x_grid of {} points by n_grid of {} points")
    # one pass over the n-major (n, x) grid; the report wants (x, n)
    n_col = ns[:, None]
    g = normalizer.builder(n_col)
    qs = _finite_quantiles(normalizer.base, _h_n_args(n_col, xs, variant), tail=True)
    values = np.asarray(g(qs), dtype=float).T
    ends = sorted({0, ns.size - 1})
    edges = qs[ends]
    lo, hi = edges.min(axis=1), edges.max(axis=1)  # finite, as tail quantiles are
    checked = lo < hi
    if np.count_nonzero(checked):
        g = normalizer.builder(n_col[ends][checked])
        _spot_check(g, lo[checked], hi[checked], normalizer.direction)
    nondeg = _varies(xs, values[:, -1], _real(nondeg_tol, "nondegeneracy tol", "[0, inf]"))
    return build_report("n", ns.tolist(), "x", xs.tolist(), values, tol, nondegenerate=nondeg)

