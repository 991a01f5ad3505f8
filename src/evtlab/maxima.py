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

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dist import Distribution, _finite_quantiles
from .errors import ContractViolationError, DomainError
from .geometric import _cdf_of_max
from .stats import (
    _integer, _reals, _scalar_or_array, standard_exponential, uniform_open
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
        ints = all(type(m) is int for m in ms)
        if not (ints and (not ms or least <= min(ms) and max(ms) <= _N_MAX)):
            ms = [_indices(m, least) for m in ms]
        return np.array(ms, dtype=object).reshape(n.shape)
    n = _integer(n, "n", least)
    if n > _N_MAX:
        raise DomainError(
            f"n = {n} is too large: the tail masses 2/n and omega/n stay normal "
            "doubles only up to n = 2**960"
        )
    return n


# Most uniforms ``sample_max_direct`` holds at once (4 MB, as doubles or as
# raw words).  Not smaller: a freed 4 MB block raises glibc's mmap threshold
# to 4 MB and its trim threshold to 8 MB, so the 800 kB arrays of 1e5 points
# made next are served from the heap without page faults.  With blocks of
# 2**16 to 2**18, a pass of the benchmark's sampling cases took 6k to 19k
# minor faults and up to 1.4x the time, against 31 faults at 2**19.
_DIRECT_BLOCK = 2**19

# the words below this one give the double 0.0, which ``uniform_open`` redraws
_ZERO_WORDS = 2**11


@functools.cache
def _word_generators():
    """The bit generators whose ``Generator.random`` double is the raw 64-bit
    word w as (w >> 11) * 2**-53 (MT19937 builds its doubles from two 32-bit
    words); looked up on first use, so that no import loads numpy.random."""
    return (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


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


def _open_words(bitgen, shape):
    """Raw words of ``bitgen`` in ``shape``, none of which gives the double
    0.0: such a word is redrawn in stream order, as ``uniform_open`` redraws
    a zero."""
    words = bitgen.random_raw(shape)
    while not words.min() >= _ZERO_WORDS:  # one reduction; a zero is all but never there
        zero = words < _ZERO_WORDS
        words[zero] = bitgen.random_raw(int(zero.sum()))
    return words


def sample_max_direct(law: MaxLaw, rng, count: int):
    """An array of ``count`` maxima of n quantile-transform draws each.

    Q is nondecreasing, so Q(max U_i) is pointwise identical to the maximum
    of the per-draw transforms.  The (count, n) uniforms are drawn in
    row-major blocks of at most 2**19, so memory stays bounded, but time is
    O(count * n); use the exponential representation for large n.  Where
    the generator's doubles are its raw words shifted (``_word_generators``),
    the maxima are taken on the words and only the maxima become doubles: the
    same uniforms, and the same stream position, as ``uniform_open`` gives.
    """
    size = _integer(count, "count")
    # row-major blocks keep the stream order of one (size, n) draw
    width = min(law.n, _DIRECT_BLOCK)
    rows = _DIRECT_BLOCK // width
    bitgen = getattr(rng, "bit_generator", None)
    on_words = type(bitgen) in _word_generators()
    u = np.zeros(size, dtype=np.uint64 if on_words else float)
    for r in range(0, size, rows):
        block = u[r : r + rows]
        for c in range(0, law.n, width):
            shape = (block.size, min(width, law.n - c))
            part = _open_words(bitgen, shape) if on_words else uniform_open(rng, shape)
            np.maximum(block, part.max(axis=1), out=block)
            del part  # not held while the next block is drawn
    if on_words:
        u = np.multiply(u >> np.uint64(11), 2.0**-53)
    return _finite_quantiles(law.base, u)


def sample_max_exponential_rep(law: MaxLaw, rng, count: int):
    """An array of ``count`` draws of M_n, each Q(exp(-omega/n)) with
    omega = -log(1 - U).

    The base law's tail quantile is taken at the tail mass
    eps = -expm1(-omega/n), formed in omega's array, which keeps every bit
    of omega/n at any n.  The uniform stream gives omega in [2**-53, 36.8],
    so eps lies in (0, 1) for every n the law accepts and no draw is ever
    redrawn.
    """
    eps = standard_exponential(rng, _integer(count, "count"))
    np.divide(eps, -float(law.n), out=eps)  # -omega/n: the sign of a quotient is exact
    np.expm1(eps, out=eps)
    return _finite_quantiles(law.base, np.negative(eps, out=eps), tail=True)


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
    inside = (args > 0.0) & (args < 1.0)
    if not inside.all():
        i = np.argmin(inside)  # the first mass outside, in flat order
        x, n = (np.broadcast_to(v, args.shape).flat[i] for v in (x, n))
        raise DomainError(msg.format(arg=args.flat[i], x=x, n=n))
    return args


_SPOT_CHECK_POINTS = 200
# the points of a spot check are _RAMP * step + lo, as np.linspace forms them
_RAMP = np.arange(float(_SPOT_CHECK_POINTS))


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
    wide = not np.isfinite(span).all()
    if wide:  # the span overflows only with both ends beyond 2**970, where halving is exact
        scale = np.where(np.isfinite(span), 1.0, 2.0)
        lo, hi = lo / scale, hi / scale
        span = hi - lo
    step = span / (_SPOT_CHECK_POINTS - 1)
    if (step == 0.0).any():  # a subnormal span: np.linspace scales the ramp first
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
    size = np.abs(vals)
    tol = 1e-9 * np.maximum(1.0, np.maximum(size[..., :-1], size[..., 1:]))
    # a step to or from +-inf is judged by its sign alone, not by an infinite slack
    if direction == "nondecreasing":
        bad = (steps < -tol) | (steps == -np.inf)
    else:
        bad = (steps > tol) | (steps == np.inf)
    if not (bad.any() or math.isnan(vals.min())):  # the min is nan if any value is
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
