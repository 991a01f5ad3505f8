"""The law of M_n, the maximum of n iid draws from a base law F.

The cdf of M_n is F(x)**n, taken as exp(n log1p(-S(x))) from the survival
function S = 1 - F so that it keeps every bit of S at any n.  M_n has the
exact single-draw representation Q(exp(-omega/n)) with omega standard
exponential and Q the strict generalized inverse of F, that is, the tail
quantile Q(1 - eps) at eps = 1 - exp(-omega/n), computed as -expm1(-omega/n).
Both samplers below consume uniforms from the same stream contract, so they
can be compared seed-for-seed; the exponential-representation route is the
one that stays cheap at large n.  Both samplers cut their work into even
ranges, one per usable CPU, that run side by side and draw disjoint parts of
one counter-based stream (``stats._split_draw``), with the bits and the
stream end of a one-thread draw; ``max_cdf`` is one pass on the calling
thread.
"""

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dist import Distribution, _finite_quantiles
from .errors import DomainError
from .geometric import _cdf_of_max
from .stats import (
    _count, _exponential_of, _indices, _integer, _open_draw, _reals, _row_maxima,
    _scalar_or_array, _split_draw,
)

__all__ = [
    "MaxLaw",
    "max_cdf",
    "sample_max_direct",
    "sample_max_exponential_rep",
]

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


def sample_max_direct(law: MaxLaw, rng, count: int):
    """An array of ``count`` maxima of n quantile-transform draws each.

    Q is nondecreasing, so Q(max U_i) is pointwise identical to the maximum
    of the per-draw transforms.  The (count, n) uniforms are drawn in
    row-major blocks of at most 2**17 (1 MB) a range, so a draw holds a
    block a range beside its maxima and its output, 16 B a row, but time is
    O(count * n): above 2**32 draws (``_DIRECT_BUDGET``) the call is a
    ``DomainError``; use the exponential representation for large n.  Each
    range takes its row maxima (``stats._row_maxima``), on the raw words
    where the generator's doubles are its words shifted: the same uniforms,
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
    return _split_draw(
        rng, size, n, partial(_row_maxima, n=n), partial(_finite_quantiles, law.base)
    )


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
