"""Laws of maxima and their normalized evaluation forms.

For M_n the maximum of n iid draws from a base law F, the cdf is F(x)**n,
taken as exp(n log1p(-S(x))) from the survival function S = 1 - F so that
it keeps every bit of S at any n.  M_n has the exact single-draw
representation Q(exp(-omega/n)) with omega standard exponential and Q the
strict generalized inverse of F, that is, the tail quantile Q(1 - eps) at
eps = 1 - exp(-omega/n), computed as -expm1(-omega/n).  Both samplers below
consume uniforms from the same stream contract, so they can be compared
seed-for-seed; the exponential-representation route is the one that stays
cheap at large n.

``h_n_eval`` evaluates a monotone normalizer g against the base tail
quantile in three algebraically equivalent forms that differ in how the
tail mass is parametrized:

* ``exp_form``       g(Q(1 - eps)) at eps = 1 - exp(-x/n)
* ``linear_form``    g(Q(1 - eps)) at eps = x/n
* ``epsilon_form``   g(Q(1 - eps)) at eps*x, with the index n = floor(1/eps)

The two parametrizations agree as n grows (exp_form >= linear_form for
nondecreasing g); the gap at fixed x shrinks like x**2/(2n).  One helper
builds and checks these tail masses over a whole x grid, at one n or at a
column of n values; ``h_n_eval`` is its one-point form and
``convergence_diagnostic`` calls it once, with its whole n column.
"""

import functools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

import numpy as np

from .dist import Distribution, _finite_quantiles, tail_quantile
from .errors import ContractViolationError, DomainError
from .geometric import _cdf_of_max
from .stats import (
    _integer, _real, _reals, _scalar_or_array, make_rng, standard_exponential, uniform_open
)

__all__ = [
    "MaxLaw",
    "max_cdf",
    "sample_max_direct",
    "sample_max_exponential_rep",
    "HnVariant",
    "h_n_eval",
    "floor_reciprocal",
    "spot_check_monotone",
]

# Largest n a law of maxima accepts.  Up to here the tail masses 2/n and
# omega/n (omega >= 2**-53 from the uniform stream) stay normal doubles.
_N_MAX = 2**960


def _indices(n, least: int = 1):
    """The index n of a law of maxima, an int or an array of them, checked entry
    by entry as an integer (``stats._integer``) from ``least`` to 2**960; an
    array comes back in n's shape as Python ints, which keep each n exact."""
    if isinstance(n, np.ndarray):
        checked = [_indices(m, least) for m in n.ravel().tolist()]
        return np.array(checked, dtype=object).reshape(n.shape)
    n = _integer(n, "n", least)
    if n > _N_MAX:
        raise DomainError(
            f"n = {n} is too large: the tail masses 2/n and omega/n stay normal "
            "doubles only up to n = 2**960"
        )
    return n


# Most uniforms ``sample_max_direct`` holds at once (4 MB).  Not smaller:
# a freed 4 MB block raises glibc's mmap threshold to 4 MB and its trim
# threshold to 8 MB, so the 800 kB arrays of 1e5 points made next are
# served from the heap without page faults.  With blocks of 2**16 to 2**18,
# a pass of the benchmark's sampling cases took 6k to 19k minor faults and
# up to 1.4x the time, against 31 faults at 2**19.
_DIRECT_BLOCK = 2**19


@dataclass(frozen=True)
class MaxLaw:
    """The law of the maximum of ``n`` iid draws from ``base``."""

    base: Distribution
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _indices(_integer(self.n, "n")))  # one n, not a column


def max_cdf(law: MaxLaw, x):
    """P{M_n <= x} = F(x)**n, computed as exp(n log1p(-S(x)))."""
    arr = _reals(x, "x", "[-inf, inf]")
    return _scalar_or_array(x, _cdf_of_max(float(law.n), law.base.sf(arr)))


def sample_max_direct(law: MaxLaw, rng, count: int | None = None):
    """Maximum of n quantile-transform draws, ``count`` times.

    Q is nondecreasing, so Q(max U_i) is pointwise identical to the maximum
    of the per-draw transforms.  The (count, n) uniforms are drawn in
    row-major blocks of at most 2**19, so memory stays bounded, but time is
    O(count * n); use the exponential representation for large n.
    """
    size = 1 if count is None else _integer(count, "count")
    # row-major blocks keep the stream order of one (size, n) draw
    width = min(law.n, _DIRECT_BLOCK)
    rows = _DIRECT_BLOCK // width
    u = np.zeros(size)
    for r in range(0, size, rows):
        block = u[r : r + rows]
        for c in range(0, law.n, width):
            part = uniform_open(rng, (block.size, min(width, law.n - c)))
            np.maximum(block, part.max(axis=1), out=block)
            del part  # not held while the next block is drawn
    x = _finite_quantiles(law.base, u)
    return float(x[0]) if count is None else x


def sample_max_exponential_rep(law: MaxLaw, rng, count: int | None = None):
    """M_n sampled as Q(exp(-omega/n)), omega = -log(1 - U).

    The base law's tail quantile is taken at the tail mass
    eps = -expm1(-omega/n), which keeps every bit of omega/n at any n.  The
    uniform stream gives omega in [2**-53, 36.8], so eps lies in (0, 1) for
    every n the law accepts and no draw is ever redrawn.
    """
    size = 1 if count is None else _integer(count, "count")
    omega = standard_exponential(rng, size)
    x = _finite_quantiles(law.base, -np.expm1(-omega / law.n), tail=True)
    return float(x[0]) if count is None else x


class HnVariant(str, Enum):
    EXP_FORM = "exp_form"
    LINEAR_FORM = "linear_form"
    EPSILON_FORM = "epsilon_form"


def floor_reciprocal(eps: float) -> int:
    """floor(1/eps) on the exact binary value of eps, with intent guard.

    Computed in exact rational arithmetic, so the sandwich
    1/(n+1) < eps <= 1/n holds for the value returned.  When 1/eps lands
    within 1e-9 below the next integer (eps entered as a rounded 1/n), that
    integer is returned instead.
    """
    r = 1 / Fraction(_real(eps, "eps", "(0, 1]"))
    n = int(r)  # exact floor for positive rationals
    if (n + 1) - r < Fraction(1, 10**9):
        return n + 1
    return n


def _h_n_args(n, x, variant: HnVariant, eps: float | None = None):
    """The base tail masses of h_n at the positive reals in array x,
    checked to lie in (0, 1): 1 - exp(-x/n), x/n, or eps*x.

    ``n`` is an int or a column of them, broadcast against x; the first
    mass outside (0, 1) in flat (n-major) order is the one named.
    """
    nf = np.asarray(_indices(n), dtype=float)
    variant = HnVariant(variant)
    if eps is not None and variant is not HnVariant.EPSILON_FORM:
        raise DomainError(f"eps is for epsilon_form alone, got eps={eps!r} with {variant.value}")
    if variant is HnVariant.EXP_FORM:
        args = -np.expm1(-x / nf)
        msg = "exp_form: 1 - exp(-x/n) = {arg} left (0, 1) for x={x}, n={n}"
    elif variant is HnVariant.LINEAR_FORM:
        args = x / nf
        msg = "linear_form: x must lie in (0, n), got x={x}, n={n}"
    else:
        if eps is None:
            args = x / nf
        else:
            idx = floor_reciprocal(eps)
            for m in np.ravel(n).tolist():
                if idx != m:
                    raise DomainError(
                        f"epsilon_form: floor(1/eps) = {idx} does not match n = {m}"
                    )
            args = np.broadcast_to(eps * x, np.broadcast_shapes(np.shape(nf), x.shape))
        msg = "epsilon_form: eps*x = {arg} left (0, 1) for x={x}, n={n}"
    inside = (args > 0.0) & (args < 1.0)
    if not inside.all():
        i = np.argmin(inside)  # the first mass outside, in flat order
        x, n = (np.broadcast_to(v, args.shape).flat[i] for v in (x, n))
        raise DomainError(msg.format(arg=args.flat[i], x=x, n=n))
    return args


def h_n_eval(
    g,
    base: Distribution,
    n: int,
    x: float,
    variant: HnVariant = HnVariant.EXP_FORM,
    eps: float | None = None,
) -> float:
    """Evaluate the normalized maximum profile h_n(x) = g(Q(1 - .)) at one point.

    ``g`` must be monotone on the base quantile's range (use
    ``spot_check_monotone`` to validate a candidate) and accept arrays.  Only
    ``epsilon_form`` takes ``eps``: omit it to use the exact rational 1/n; a
    supplied eps must satisfy floor(1/eps) == n so that g is evaluated at its
    own index.  This is the one-point form of ``convergence_diagnostic``'s
    grid, and agrees with it bit for bit.
    """
    args = _h_n_args(n, np.array([_real(x, "x", "(0, inf)")]), variant, eps)
    return float(np.asarray(g(tail_quantile(base, args)), dtype=float)[0])


_SPOT_CHECK_SEED = 0x6D6F6E6F  # fixed: the check must not perturb caller streams
_SPOT_CHECK_POINTS = 200


@functools.cache
def _spot_check_fractions() -> np.ndarray:
    """The spot check's 200 fixed fractions of [lo, hi], drawn once per
    process and read-only, as every check shares them."""
    u = make_rng(_SPOT_CHECK_SEED).random(_SPOT_CHECK_POINTS)
    u.setflags(write=False)
    return u


def spot_check_monotone(g, lo: float, hi: float, direction: str = "nondecreasing") -> None:
    """Spot-check monotonicity of ``g`` on [lo, hi] at 200 random points.

    Raises ``ContractViolationError`` on a violation beyond float slack.
    The points come from a fixed-seed generator of their own, so results
    are deterministic and no caller's stream moves.
    """
    if direction not in ("nondecreasing", "nonincreasing"):
        raise DomainError(f"unknown direction {direction!r}")
    lo, hi = _real(lo, "lo"), _real(hi, "hi")
    if not lo < hi:
        raise DomainError(f"need finite lo < hi, got [{lo}, {hi}]")
    pts = np.sort(lo + (hi - lo) * _spot_check_fractions())
    vals = np.asarray(g(pts), dtype=float)
    diffs = np.diff(vals)
    tol = 1e-9 * np.maximum(1.0, np.maximum(np.abs(vals[:-1]), np.abs(vals[1:])))
    bad = diffs < -tol if direction == "nondecreasing" else diffs > tol
    if np.any(bad):
        i = int(np.flatnonzero(bad)[0])
        raise ContractViolationError(
            f"g is not {direction}: g({pts[i]}) = {vals[i]} vs "
            f"g({pts[i + 1]}) = {vals[i + 1]}"
        )
