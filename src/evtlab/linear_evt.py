"""Linear (affine) normalization of maxima and the attraction criterion.

The whole linear theory is parametrized by the family

    k_rho(u) = (u**rho - 1)/rho   (rho != 0),      k_0(u) = log(u),

strictly increasing in u with k_rho(1) = 0.  A law F lies in a linear
domain of attraction iff the ratio of upper-quantile increments

    [Q(1 - eps*u) - Q(1 - eps)] / [Q(1 - eps*v) - Q(1 - eps)]

converges as eps -> 0, in which case the limit is k_rho(u)/k_rho(v) and the
tail increment r(eps) = Q(1-eps) - Q(1-2eps) is regularly varying of index
rho, which is how ``estimate_rho`` reads rho off a scale sweep.  Each sweep
builds its tail masses (eps*u, 2*eps, 1/n, ...) and takes all their tail
quantiles Q(1 - mass) in one call of the law's ``tail``, so no level
1 - mass is ever rounded; ``dehaan_test`` tabulates the ratio for every
(u, v) pair at every scale of its sweep.  With the canonical constants
b_n = Q(1-1/n) and a_n = Q(1-2/n) - b_n (note a_n <= 0), (M_n - b_n)/a_n
converges in law to k_rho(omega)/k_rho(2) with omega standard
exponential; ``limit_cdf`` is that limit law.  The sign of rho
separates the three classical types: rho < 0 heavy tail (frechet), rho = 0
(gumbel), rho > 0 bounded tail (weibull).
"""

import math
from dataclasses import dataclass

import numpy as np

from .dist import Distribution, _finite_quantiles, tail_quantile
from .errors import (
    ContractViolationError,
    DegenerateNormalizationError,
    DegenerateTailError,
    DomainError,
    InconsistentTailError,
)
from .maxima import _indices
from .reports import DEFAULT_CAUCHY_TOL, ConvergenceReport, build_report
from .stats import _grid, _real, _reals, _scalar_or_array

__all__ = [
    "RHO_SERIES_BAND",
    "DEFAULT_UV_GRID",
    "DEFAULT_CAUCHY_TOL",
    "DEFAULT_CLASSIFY_TOL",
    "DEFAULT_EPS_GRID",
    "DEFAULT_RHO_W",
    "k_rho",
    "dehaan_test",
    "RhoEstimate",
    "estimate_rho",
    "NormingConstants",
    "norming_constants",
    "limit_cdf",
    "TypeClass",
    "classify_type",
]

# |rho| at or below this band uses a 3-term series in z = rho*log(u); the
# closed form loses all significance there.
RHO_SERIES_BAND = 1e-6

DEFAULT_UV_GRID = tuple(
    (u, v) for u in (0.25, 0.5, 2.0, 4.0) for v in (0.25, 0.5, 2.0, 4.0) if u != v
)
DEFAULT_CLASSIFY_TOL = 1e-2
# the strictly decreasing geometric scale sweep; read-only, as every caller
# that takes the default shares this one array
DEFAULT_EPS_GRID = np.geomspace(1e-2, 1e-6, 16)
DEFAULT_EPS_GRID.flags.writeable = False
# the scale ratio w of estimate_rho's r(eps*w)/r(eps)
DEFAULT_RHO_W = 2.0


def k_rho(rho: float, u):
    """k_rho(u) = (u**rho - 1)/rho, continuously extended through rho = 0."""
    rho = _real(rho, "rho")
    arr = _reals(u, "u", "(0, inf]")
    log_u = np.log(arr)
    if rho == 0.0:
        out = log_u
    elif abs(rho) > RHO_SERIES_BAND:
        out = (arr**rho - 1.0) / rho
    else:
        z = rho * log_u
        out = log_u * (1.0 + z / 2.0 + z * z / 6.0)
    return _scalar_or_array(u, out)


def _validate_eps(eps: float, factor: float):
    """Refuse a coarsest scale ``eps``, checked by the grid rule, with eps * factor >= 1."""
    if eps * factor >= 1.0:
        raise DomainError(f"eps * {factor} must stay below 1, got eps={eps}")


def _dehaan_grid(dist: Distribution, uv_grid, scales):
    """The (u, v) pairs as floats, and the ratio for every pair (rows) at
    every strictly decreasing scale (columns), from one tail-quantile call at
    the (3, pairs, scales) tail masses eps*{1, u, v}."""
    pairs = [(_real(u, "u", "(0, inf)"), _real(v, "v", "(0, inf)")) for u, v in uv_grid]
    if not pairs:
        raise DomainError("uv_grid must be nonempty")
    if any(v == 1.0 for _, v in pairs):
        raise DomainError("v = 1 makes the denominator identically zero")
    _validate_eps(scales[0], max(1.0, max(map(max, pairs))))
    eps = np.asarray(scales, dtype=float)
    factors = np.array([(1.0, u, v) for u, v in pairs], dtype=float).T
    # checked: eps*u with u < 1 underflows to 0 at a subnormal eps
    q = tail_quantile(dist, factors[:, :, None] * eps)
    num, den = q[1] - q[0], q[2] - q[0]
    flat = np.argwhere(den == 0.0)
    if flat.size:
        i, j = flat[0]
        (u, v), e = pairs[i], float(eps[j])
        raise DegenerateTailError(
            f"flat upper quantile: Q(1-{e}*{v}) == Q(1-{e}) for {dist.name} "
            f"at (u, v, eps) = ({u}, {v}, {e})"
        )
    return pairs, num / den


def dehaan_test(
    dist: Distribution,
    eps_grid=DEFAULT_EPS_GRID,
    uv_grid=DEFAULT_UV_GRID,
    tol: float = DEFAULT_CAUCHY_TOL,
) -> ConvergenceReport:
    """Evaluate the attraction criterion on a scale sweep.

    The ratio [Q(1-eps*u) - Q(1-eps)] / [Q(1-eps*v) - Q(1-eps)] is tabulated
    per (u, v) pair across the strictly decreasing ``eps_grid``; a pair
    converges when its values over the report's window (``build_report``)
    sit within ``tol`` of each other, and the limit table holds the value at
    the smallest scale.  A vanishing denominator (a flat upper quantile
    between the two tail masses) raises ``DegenerateTailError`` with the
    first offending (u, v, eps) attached.
    """
    scales = _grid(eps_grid, "eps_grid", order=-1)
    pairs, values = _dehaan_grid(dist, uv_grid, scales)
    return build_report("eps", scales.tolist(), "uv", pairs, values, tol)


@dataclass(frozen=True)
class RhoEstimate:
    """Per-scale index estimates; ``rho`` is the value at the finest scale,
    ``spread`` the max-min over the stabilized (second) half of the sweep."""

    rho: float
    per_scale: tuple  # (eps, rho_hat) pairs, coarse to fine
    spread: float


def estimate_rho(
    dist: Distribution, eps_grid=DEFAULT_EPS_GRID, w: float = DEFAULT_RHO_W
) -> RhoEstimate:
    """Read rho off the regular variation of r(eps) = Q(1-eps) - Q(1-2eps).

    Per scale, rho_hat(eps) = log(r(eps*w)/r(eps)) / log(w).  A vanishing
    r raises ``DegenerateTailError``; r changing sign across scales raises
    ``InconsistentTailError`` (it cannot for a true quantile).
    """
    w = _real(w, "w", "(1, inf)")
    scales = _grid(eps_grid, "eps_grid", order=-1)
    _validate_eps(scales[0], 2.0 * w)
    # q[j, i, k] = Q(1 - m_k*e_i) at e = (eps_j, eps_j*w) and m = (1, 2)
    masses = scales[:, None, None] * np.array([1.0, w])[:, None] * np.array([1.0, 2.0])
    # every factor is >= 1 and scales[0] * 2w < 1, so each mass lies in (0, 1)
    q = _finite_quantiles(dist, masses, tail=True)
    r = q[..., 0] - q[..., 1]
    zero = np.argwhere(r == 0.0)
    if zero.size:
        j, i = zero[0]
        raise DegenerateTailError(
            f"tail increment r({float(masses[j, i, 0])}) = 0 for {dist.name}"
        )
    if np.any(r > 0.0) and np.any(r < 0.0):
        raise InconsistentTailError("tail increment changed sign across scales")
    rho_hat = np.log(r[:, 1] / r[:, 0]) / math.log(w)
    tail = rho_hat[rho_hat.size // 2 :]
    return RhoEstimate(
        rho=float(rho_hat[-1]),
        per_scale=tuple(zip(scales.tolist(), rho_hat.tolist())),
        spread=float(tail.max() - tail.min()),
    )


@dataclass(frozen=True)
class NormingConstants:
    """b_n = Q(1 - 1/n) and a_n = Q(1 - 2/n) - b_n; a_n is always <= 0."""

    n: int
    a_n: float
    b_n: float


def _norming_arrays(dist: Distribution, n):
    """a_n and b_n at the int n, or at each entry of an array of ints, as
    float arrays of n's shape, from one tail-quantile call at the masses 1/n
    and 2/n.  Each n is a checked index from 3 on (``_indices``), so every
    mass lies in (0, 1); the first n whose a_n is not negative is refused."""
    ns = np.ravel(n).tolist()
    q = _finite_quantiles(dist, np.array([[1.0 / m for m in ns], [2.0 / m for m in ns]]), tail=True)
    b, a = q[0], q[1] - q[0]
    negative = a < 0.0
    if not negative.all():
        i = np.argmin(negative)  # the first n whose a_n is not negative
        if a[i] == 0.0:
            raise DegenerateNormalizationError(
                f"a_n = 0 at n = {ns[i]} for {dist.name}: the upper quantile is flat "
                "between tail masses 2/n and 1/n"
            )
        raise ContractViolationError(
            f"quantile is not monotone: a_n = {float(a[i])} > 0 at n = {ns[i]}"
        )
    return a.reshape(np.shape(n)), b.reshape(np.shape(n))


def norming_constants(dist: Distribution, n: int) -> NormingConstants:
    """Canonical affine constants at index n, from the tail masses 1/n and
    2/n (requires 3 <= n <= 2**960, so 2/n < 1 is a normal double); the
    one-point form of the constants the affine normalizer takes at a whole
    n column."""
    n = _indices(n, least=3)
    a, b = _norming_arrays(dist, n)
    return NormingConstants(n=n, a_n=float(a), b_n=float(b))


def limit_cdf(rho: float, x):
    """cdf of k_rho(omega)/k_rho(2), omega standard exponential.

    G_rho(x) = 1 - exp(-v) with v = k_rho^{-1}(x * k_rho(2)) (2**x at
    rho = 0), taken in the one form -expm1(-v), which keeps the relative
    precision of v in the lower tail, where v is small; outside the
    inverse's range the value clamps to 0 (rho > 0) or 1 (rho < 0).
    G_rho(0) equals 1 - 1/e for every rho, and rho must be finite.
    """
    rho = _real(rho, "rho")
    arr = _reals(x, "x", "[-inf, inf]")
    v = np.empty(arr.shape)  # an ndarray for a 0-d x too
    # a subnormal rho would lose t's bits below, and G_rho is G_0 there: the
    # two differ by about rho x**2, far below an ulp wherever G is not 0 or 1
    gumbel = abs(rho) < 2.0**-1022
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        if gumbel:
            np.exp2(arr, out=v)
        else:
            # v = (1 + t)**(1/rho) on the inverse's range t > -1, with
            # t = x(2**rho - 1), which is 0 at x = 0 whatever rho
            try:
                slope = math.expm1(rho * math.log(2.0))
            except OverflowError:  # 2**rho past the largest double
                slope = math.inf
            t = np.multiply(arr, slope, out=v)
            if slope == math.inf:
                t[arr == 0.0] = 0.0
            outside = t <= -1.0
            # only 2**rho - 1 > 0 takes a finite x to t = inf (x = inf comes
            # out of either branch as v = inf)
            far = t == math.inf if rho > 0.0 else False
            np.log1p(t, out=v)
            np.divide(v, rho, out=v)
            np.exp(v, out=v)
            if np.any(far):
                # t overflows: log(1 + t) is taken as
                # rho log 2 + log(x(1 - 2**-rho) + 2**-rho)
                s = 2.0**-rho
                v[far] = np.exp(math.log(2.0) + np.log(arr[far] * (1.0 - s) + s) / rho)
    np.negative(v, out=v)
    np.expm1(v, out=v)
    np.negative(v, out=v)
    if not gumbel:
        np.copyto(v, 0.0 if rho > 0.0 else 1.0, where=outside)
    return _scalar_or_array(x, v)


@dataclass(frozen=True)
class TypeClass:
    """Classical type read off the sign of rho."""

    kind: str  # "frechet" | "gumbel" | "weibull"
    rho: float


def classify_type(rho: float, tol: float = DEFAULT_CLASSIFY_TOL) -> TypeClass:
    """rho < -tol: frechet; |rho| <= tol: gumbel; rho > tol: weibull."""
    rho, tol = _real(rho, "rho"), _real(tol, "tol", "[0, inf]")
    if rho < -tol:
        kind = "frechet"
    elif rho > tol:
        kind = "weibull"
    else:
        kind = "gumbel"
    return TypeClass(kind=kind, rho=rho)
