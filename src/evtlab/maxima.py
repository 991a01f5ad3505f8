"""Laws of maxima and their normalized evaluation forms.

For M_n the maximum of n iid draws from a base law F, the cdf is F(x)**n,
taken as exp(n log1p(-S(x))) from the survival function S = 1 - F so that
it keeps every bit of S at any n.  M_n has the exact single-draw
representation Q(exp(-omega/n)) with omega standard exponential and Q the
strict generalized inverse of F, that is, the tail quantile Q(1 - eps) at
eps = 1 - exp(-omega/n), computed as -expm1(-omega/n).  Both samplers below
consume uniforms from the same stream contract, so they can be compared
seed-for-seed; the exponential-representation route is the one that stays
cheap at large n.  Both samplers cut their work into even ranges, one per
usable CPU, that run side by side and draw disjoint parts of one
counter-based stream (``stats._split_draw``), with the bits and the stream
end of a one-thread draw; ``max_cdf`` is one pass on the calling thread.

The normalized maximum profile h_n(x) = g(Q(1 - eps)) of a monotone
normalizer g is taken at the base tail quantile in two forms that differ in
how the tail mass is parametrized (``HnVariant``):

* ``exp_form``       eps = 1 - exp(-x/n)
* ``linear_form``    eps = x/n

The two forms agree as n grows (exp_form >= linear_form for
nondecreasing g); the gap at fixed x shrinks like x**2/(2n).  One helper
builds and checks these tail masses over a whole x grid, at one n or at a
column of n values; ``nonlinear_evt.convergence_diagnostic`` calls it once,
with its whole n column, and spot-checks the monotonicity of g here too.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import Distribution, _finite_quantiles
from .errors import ContractViolationError, DomainError
from .geometric import _cdf_of_max
from .stats import (
    _count, _exponential_of, _first, _integer, _open_draw, _open_words, _reals,
    _scalar_or_array, _split_draw, _uniform_open, _word_generators,
)

__all__ = [
    "MaxLaw",
    "max_cdf",
    "sample_max_direct",
    "sample_max_exponential_rep",
    "HnVariant",
]

# Largest n a law of maxima accepts.  Up to here the tail masses 2/n and
# omega/n (omega >= 2**-53 from the uniform stream) stay normal doubles.
_N_MAX = 2**960


def _indices(n, least: int = 1):
    """The index n of a law of maxima, an int or an array of them, checked as an
    integer (``stats._integer``) from ``least`` to 2**960; an array comes back in
    n's shape as Python ints, which keep each n exact.  An array of Python ints
    is checked in one pass; it is walked entry by entry only to name a bad one."""
    if isinstance(n, np.ndarray):
        ms = n.ravel().tolist()
        if not (set(map(type, ms)) == {int} and least <= min(ms) and max(ms) <= _N_MAX):
            ms = [_indices(m, least) for m in ms]
        return np.array(ms, dtype=object).reshape(n.shape)
    n = _integer(n, "n", least)
    if n > _N_MAX:
        raise DomainError(
            f"n = {n} is too large: the tail masses 2/n and omega/n stay normal "
            "doubles only up to n = 2**960"
        )
    return n


# Most uniforms one range of ``sample_max_direct`` holds at once (1 MB, as
# doubles or as raw words, which fits in a core's L2 cache); a draw split
# over k ranges holds k such blocks.  They stay in the heap, which ``stats``
# sets up at import (the note above ``stats._cuts``).
_DIRECT_BLOCK = 2**17

# Most uniforms ``sample_max_direct`` draws in one call, count * n: about 14 s
# of Philox words and row maxima on one thread of a 2-vCPU x86-64 host (3.2 ns
# a word), and about 7 s split over both.  The exponential representation
# draws count uniforms at any n.
_DIRECT_BUDGET = 2**32


@dataclass(frozen=True)
class MaxLaw:
    """The law of the maximum of ``n`` iid draws from ``base``."""

    base: Distribution
    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _indices(_integer(self.n, "n")))  # one n, not a column


def max_cdf(law: MaxLaw, x):
    """P{M_n <= x} = F(x)**n, computed as exp(n log1p(-S(x))), in one pass
    on the calling thread."""
    arr = _reals(x, "x", "[-inf, inf]")
    return _scalar_or_array(arr, _cdf_of_max(float(law.n), law.base.sf(arr)))


def _row_maxima(u, n: int, rng) -> bool:
    """Raise ``u`` (zeros) to the row maxima of a (u.size, n) draw from
    ``rng``: raw words of its bit generator where u holds words, else its
    open uniforms.  Row-major blocks of at most ``_DIRECT_BLOCK`` keep the
    stream order of one draw.  Whether a zero was redrawn, which moves the
    stream on by a word."""
    width = min(n, _DIRECT_BLOCK)
    rows = _DIRECT_BLOCK // width
    draw = _open_words if u.dtype == np.uint64 else _uniform_open
    redrawn = False
    for r in range(0, u.size, rows):
        block = u[r : r + rows]
        for c in range(0, n, width):
            part, zero = draw(rng, (block.size, min(width, n - c)))
            redrawn |= zero
            np.maximum(block, part.max(axis=1), out=block)
            del part  # not held while the next block is drawn
    return redrawn


def sample_max_direct(law: MaxLaw, rng, count: int):
    """An array of ``count`` maxima of n quantile-transform draws each.

    Q is nondecreasing, so Q(max U_i) is pointwise identical to the maximum
    of the per-draw transforms.  The (count, n) uniforms are drawn in
    row-major blocks of at most 2**17 (1 MB) a range, so a draw holds a
    block a range beside its maxima and its output, 16 B a row, but time is
    O(count * n): above 2**32 draws (``_DIRECT_BUDGET``) the call is a
    ``DomainError``; use the exponential representation for large n.  Where
    the generator's doubles are its raw words shifted
    (``stats._word_generators``), the maxima are taken on the words and only
    the maxima become doubles, in the words' own array: the same uniforms,
    and the same stream position, as ``uniform_open`` gives.  Q of each
    range's maxima is written into its slice of the output (``_split_draw``).
    """
    size = _count(count)
    n = law.n
    if size * n > _DIRECT_BUDGET:
        raise DomainError(
            f"count * n = {size} * {n} draws is above the direct sampler's budget of "
            f"2**32 = {_DIRECT_BUDGET}; the exponential representation "
            "(sample_max_exponential_rep, --method exprep) draws count uniforms at any n"
        )
    on_words = type(getattr(rng, "bit_generator", None)) in _word_generators()

    def draw(gen, rows):
        top = np.zeros(rows, dtype=np.uint64 if on_words else float)
        return top, _row_maxima(top, n, gen)

    def transform(top, out):
        if on_words:  # the words' doubles, formed in their own array
            np.right_shift(top, np.uint64(11), out=top)
            top = np.multiply(top, 2.0**-53, out=top.view(float))
        _finite_quantiles(law.base, top, out)

    return _split_draw(rng, size, n, draw, transform)


def sample_max_exponential_rep(law: MaxLaw, rng, count: int):
    """An array of ``count`` draws of M_n, each Q(exp(-omega/n)) with
    omega = -log(1 - U).

    The base law's tail quantile is taken at the tail mass
    eps = -expm1(-omega/n), formed in omega's array, which keeps every bit
    of omega/n at any n, and written into the output: a draw holds 16 B a
    value, and 1 B more while its values are checked.  The uniform stream
    gives omega in [2**-53, 36.8], so eps lies in (0, 1) for every n the law
    accepts and no draw is ever redrawn.
    """
    minus_n = -float(law.n)

    def transform(u, out):
        eps = _exponential_of(u)  # omega, in u's array
        np.divide(eps, minus_n, out=eps)  # -omega/n: the sign of a quotient is exact
        np.expm1(eps, out=eps)
        _finite_quantiles(law.base, np.negative(eps, out=eps), out, tail=True)

    return _open_draw(rng, _count(count), transform)


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

    ``n`` is a checked index (``_indices``), an int or a column of them,
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
