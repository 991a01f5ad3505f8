"""The geometric law and its oscillating maxima.

For success parameter p the cdf is the step F(t) = 1 - p**(floor(t)+1)
on t >= 0, whose upper quantiles move in integer jumps of size governed by
theta = -1/log(p), which ``GeometricParams`` derives from p alone.  Because
frac(theta * log n) is dense in [0, 1] but never settles, the probability
P{M_n <= floor(theta log n) + q} oscillates persistently between
exp(-p**(q+1)) and exp(-p**q); no choice of constants removes the
oscillation.  This module provides the closed-form sf/cdf/quantile
steps (the quantile is the law's ``tail``, reached through
``dist.tail_quantile``), the law of a maximum exp(n log1p(-S)) from a
survival function S, the hardened floor of theta*log n that gives a scan's
levels, a constructive search for fractional parts, the oscillation scan
itself, and the geometrically spaced subsequences along which the probe
does converge.  Integer grids (the n of
a scan, the k of a subsequence) take ints below 2**63 in magnitude, and
refuse a float, integral or not, rather than truncate it (``stats._grid``).
The real arguments p, theta, x, y and c take an int, a float or a numpy
real in their interval (``stats._real``), and the arrays t of the sf and
cdf any array-like of them (``stats._reals``).

Floor hardening: whenever theta*log n (or log u / log p) lands within 1e-9
of an integer k, the ambiguity is resolved by comparing n * p**k against 1
(respectively u against p**k) in integers, from the exact binary values of
p and u as integer ratios, so dyadic cases such as p = 1/2, n = 2**k come
out exact.
The floors are taken over whole arrays; only the entries inside the band
are resolved one at a time.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, SearchHorizonError
from .stats import _first, _grid, _integer, _real, _reals, _scalar_or_array

__all__ = [
    "GeometricParams",
    "geom_sf",
    "geom_cdf",
    "frac_log_search",
    "OscillationReport",
    "oscillation_scan",
    "subsequence_generator",
    "DEFAULT_CLUSTER_CS",
]

NEAR_INTEGER_BAND = 1e-9
# the fractional-part values c whose cluster limits a scan reports by default
DEFAULT_CLUSTER_CS = (0.0, 0.5, 0.9)
# Beyond this exponent the exact integer comparison is pointless (and slow);
# the float floor is unambiguous anyway at such scales.
_EXACT_POW_LIMIT = 200_000


@dataclass(frozen=True)
class GeometricParams:
    """Success parameter p in (0, 1), with the step scale theta = -1/log(p)."""

    p: float

    def __post_init__(self):
        object.__setattr__(self, "p", _real(self.p, "p", "(0, 1)"))

    @property
    def theta(self) -> float:
        return -1.0 / math.log(self.p)


def geom_sf(params: GeometricParams, t):
    """S(t) = p**(floor(t)+1) for t >= 0, and 1 for t < 0."""
    arr = _reals(t, "t", "[-inf, inf]")
    return _scalar_or_array(arr, _geom_sf(params, arr))


def _geom_sf(params: GeometricParams, arr):
    """``geom_sf`` at a checked array of reals or integers, as a float array."""
    return np.where(arr < 0.0, 1.0, params.p ** (np.floor(np.maximum(arr, 0.0)) + 1.0))


def geom_cdf(params: GeometricParams, t):
    """F(t) = 1 - S(t) = 1 - p**(floor(t)+1) for t >= 0, and 0 for t < 0.
    Where S > 1/2, 1 - S would cancel (p near 1), so F is taken there as
    -expm1((floor(t)+1) log p)."""
    arr = _reals(t, "t", "[-inf, inf]")
    k = np.floor(np.maximum(arr, 0.0)).ravel() + 1.0
    out = 1.0 - params.p**k
    near = out < 0.5  # exactly where S > 1/2
    out[near] = -np.expm1(k[near] * math.log(params.p))
    out[arr.ravel() < 0.0] = 0.0
    return _scalar_or_array(arr, out.reshape(arr.shape))


def _cdf_of_max(n, sf):
    """P{M_n <= x} = F(x)**n as exp(n log1p(-S(x))): exact in the survival
    function S at any n, where F**n loses what 1 - S rounds away.  Formed
    in one array of its own, never in the law's ``sf`` output."""
    out = np.empty(np.shape(sf))  # an ndarray for a 0-d sf too
    np.negative(sf, out=out)
    with np.errstate(divide="ignore"):
        np.log1p(out, out=out)
    np.multiply(n, out, out=out)
    return np.exp(out, out=out)


def _floor_log_ratio(p: float, ratio, exact_u):
    """floor(ratio) over a 1-d array of ratios log u / log p.

    Entries within ``NEAR_INTEGER_BAND`` of an integer k are settled exactly:
    log u <= k log p  <=>  u <= p**k  (log p < 0), with ``exact_u(i)`` the
    exact u of entry i as an integer ratio (num, den) and p its binary value
    p_num / p_den, compared in integers as u_num * p_den**k <= u_den * p_num**k.
    """
    out = np.floor(ratio)
    nearest = np.rint(ratio)
    p_num, p_den = p.as_integer_ratio()
    for i in np.flatnonzero(np.abs(ratio - nearest) < NEAR_INTEGER_BAND):
        k = int(nearest[i])
        if 0 <= k <= _EXACT_POW_LIMIT:
            u_num, u_den = exact_u(i)
            out[i] = k if u_num * p_den**k <= u_den * p_num**k else k - 1
    return out


def _geom_quantile(params: GeometricParams, u):
    """The upper quantile floor(log u / log p), the smallest t with
    p**floor(t+1) < u, at the tail masses u in (0, 1], as a float array of u's
    shape.  This is the geometric law's ``tail``, and its ``quantile`` at 1 - u:
    a tiny u makes that mass 1.0, where the value is 0, as Q(u) is."""
    arr = np.asarray(u, dtype=float)
    flat = arr.ravel()
    out = _floor_log_ratio(
        params.p, np.log(flat) / math.log(params.p), lambda i: float(flat[i]).as_integer_ratio()
    )
    return out.reshape(arr.shape)


_SEARCH_CHUNK = 1 << 16
# blocks settled per block step: each takes a few predicate evaluations, so a
# block step costs about what an integer step of _SEARCH_CHUNK points does
_BLOCK_CHUNK = 1 << 12
# the search works in int64; below 2**62 its bracket arithmetic cannot overflow
_SEARCH_CEILING = 2**62


def sufficient_horizon(theta: float, x: float, y: float) -> int:
    """A horizon guaranteed to contain some n with frac(theta log n) in [x, y].

    Once q >= theta*log(1/(exp((y-x)/theta) - 1)) - x, the real interval
    [exp((q+x)/theta), exp((q+y)/theta)] has length >= 1 and so contains an
    integer witness; the bound is the right endpoint of the first such
    interval.  A theta, x or y outside theta > 0 and 0 <= x < y <= 1, or a
    theta so small or so large that the bound is not a finite float, is a
    ``DomainError``; ``frac_log_search`` makes this one check too.
    """
    theta = _real(theta, "theta", "(0, inf)")
    x, y = _real(x, "x", "[0, 1]"), _real(y, "y", "[0, 1]")
    if not x < y:
        raise DomainError(f"x must be below y, got x={x}, y={y}")
    try:
        growth = math.expm1((y - x) / theta)
        q_star = theta * math.log(1.0 / growth) - x
        q_hat = max(0, math.ceil(q_star))
        return int(math.ceil(math.exp((q_hat + y) / theta)))
    except (OverflowError, ZeroDivisionError, ValueError):
        raise DomainError(
            f"theta={theta!r} is out of range: the sufficient horizon of "
            f"[{x}, {y}] is not a finite float"
        ) from None


def _first_reaching(theta: float, x: float, qs: np.ndarray, cap: int) -> tuple:
    """For each block q, the smallest n in [1, cap] with theta*log(n) >= q + x,
    and its theta*np.log(n).

    cap + 1 stands for none.  The test is ``theta*np.log(n) - q >= x``, which
    is monotone in n and, for n in block q, is the search's own frac >= x.
    ceil(exp((q + x)/theta)) is a first guess, and one pass tests both ends
    of the bracket [guess - 1, guess] at every block.  Below 2**50 that pass
    settles each block whose guess is the answer, most of them.  Galloping
    and bisection take the rest: a guess that exp rounded across the
    boundary, one at cap + 1, and every guess from 2**50 on, whose bracket
    is widened by guess >> 50 on each side (near 2**62 the guess is off by
    thousands).
    """
    top = cap + 1
    # q + x >= 0, so every guess is at least 1; lo may be 0, whose log is -inf
    with np.errstate(over="ignore", divide="ignore"):
        guess = np.ceil(np.minimum(np.exp((qs + x) / theta), float(top)))
        guess = np.minimum(guess.astype(np.int64), top)
        # [lo, hi] brackets the answer once n = lo misses and n = hi reaches;
        # n = 0 misses and n = top reaches by convention
        wide = guess >> 50
        lo, hi = guess - 1 - wide, np.minimum(guess + wide, top)
        t = theta * np.log(np.array((lo, hi)))
    seed = t - qs >= x
    t = t[1]
    if np.count_nonzero(wide) or np.count_nonzero(seed[1] > seed[0]) < qs.size:
        step = 1 + wide
        i = seed[0].nonzero()[0]
        while i.size:
            hi[i] = lo[i]
            step[i] = np.minimum(step[i], 1 << 60) * 2
            lo[i] = np.maximum(lo[i] - step[i], 0)
            i = i[lo[i] > 0]
            i = i[theta * np.log(lo[i]) - qs[i] >= x]
        i = (~seed[1] & (hi < top)).nonzero()[0]
        while i.size:
            lo[i] = hi[i]
            step[i] = np.minimum(step[i], 1 << 60) * 2
            hi[i] = np.minimum(hi[i] + step[i], top)
            i = i[hi[i] < top]
            i = i[theta * np.log(hi[i]) - qs[i] < x]
        i = (hi - lo > 1).nonzero()[0]
        while i.size:
            mid = lo[i] + (hi[i] - lo[i]) // 2
            up = theta * np.log(mid) - qs[i] >= x
            hi[i[up]] = mid[up]
            lo[i[~up]] = mid[~up]
            i = i[hi[i] - lo[i] > 1]
        t = theta * np.log(hi)
    return hi, t


def frac_log_search(theta: float, x: float, y: float, n_max: int):
    """Smallest n <= n_max with frac(theta * log n) in [x, y].

    Returns ``(n, frac_value, horizon)`` where ``horizon`` is the precomputed
    sufficient bound.  If ``n_max`` is below the bound a warning is issued
    before searching; exhausting the search raises ``SearchHorizonError``
    carrying the bound.

    The search walks blocks.  Block q holds the n with floor(theta log n) = q,
    and frac(theta log n) rises through it, so its hits form one run that
    starts at its first n with theta log n >= q + x.  ceil(exp((q+x)/theta))
    is that n for most blocks below 2**50, and a bracket search from it
    finds the rest (``_first_reaching``).  Below n of about theta a block is
    shorter than one integer, so each step takes either the next 2**12
    blocks or the next 2**16 integers, whichever reaches the larger n.  On a
    2-vCPU x86-64 Xeon with AVX-512, an integer step takes about 0.23 ms and
    a block step about 0.08 ms below 2**50, rising to 1.5 ms near 2**62.  A
    search that returns n, or fails at N = min(n_max, 2**62), takes about
    min(n / 2**16, theta*log(n) / 2**12) + 1 steps (n replaced by N).  The
    search stops at 2**62 whatever ``n_max`` is.
    ``n`` and ``frac_value`` are those of a plain scan of
    ``theta*np.log(n)`` over 1..n_max, bit for bit.
    """
    horizon = sufficient_horizon(theta, x, y)  # checks theta, x and y as reals
    theta, x, y, n_max = float(theta), float(x), float(y), _integer(n_max, "n_max")
    if n_max < horizon:
        warnings.warn(
            f"n_max={n_max} is below the sufficient horizon {horizon}; "
            "the search may fail",
            stacklevel=2,
        )
    cap = min(n_max, _SEARCH_CEILING)
    last_block = math.floor(theta * np.log(np.array([cap], dtype=np.int64)).item())
    # every n below n_next misses, and so does every n in a block below q_next
    n_next, q_next = 1, 0
    while n_next <= cap and q_next <= last_block:
        blocks = min(_BLOCK_CHUNK, last_block + 1 - q_next)
        # the blocks reach about n = exp((q_next + blocks)/theta)
        if (q_next + blocks) / theta > math.log(n_next + _SEARCH_CHUNK):
            ns, t = _first_reaching(theta, x, np.arange(q_next, q_next + blocks, dtype=float), cap)
            q_next += blocks
            n_next = max(n_next, int(ns[-1]))
        else:
            ns = np.arange(n_next, min(n_next + _SEARCH_CHUNK, cap + 1), dtype=np.int64)
            n_next = int(ns[-1]) + 1
            t = theta * np.log(ns)
        frac = t - np.floor(t)
        hit = _first((frac >= x) & (frac <= y), True)
        if hit >= 0 and ns[hit] <= cap:  # a block step gives cap + 1 for none
            return int(ns[hit]), float(frac[hit]), horizon
        q_next = max(q_next, math.floor(t[-1]))
    searched = n_max if cap == n_max else f"2**62 (the search's ceiling; n_max={n_max})"
    raise SearchHorizonError(
        f"no n <= {searched} with frac(theta log n) in [{x}, {y}]; "
        f"a horizon of {horizon} suffices",
        sufficient_horizon=horizon,
    )


@dataclass(frozen=True)
class OscillationReport:
    """Scan of P{M_n <= floor(theta log n) + q} over a grid of n.

    ``levels`` holds the probed integer level for each n, ``probs`` the exact
    probability (1 - p**(level+1))**n.  The lim inf / lim sup estimates are
    taken over the tail half of the grid; ``cluster_points`` pairs each
    requested fractional-part value c with its analytic cluster limit
    exp(-p**(q+1-c)).
    """

    params: GeometricParams
    q: int
    n_values: np.ndarray
    levels: np.ndarray
    probs: np.ndarray
    lim_inf_est: float
    lim_sup_est: float
    cluster_points: tuple


def _cluster_limit(params: GeometricParams, q: int, c: float) -> float:
    """The limit exp(-p**(q+1-c)) of the probe along subsequences with
    frac(theta log n) -> c, at a checked int q that keeps the levels of
    ``oscillation_scan`` in int64, and a float c in [0, 1)."""
    exponent = q + 1 - c
    # the limit exp(-p**exponent) is 0.0 once p**exponent passes e**7, well
    # before p**exponent itself overflows (a very negative q)
    if exponent * math.log(params.p) > 7.0:
        return 0.0
    return math.exp(-params.p**exponent)


def oscillation_scan(
    params: GeometricParams,
    q: int,
    n_values,
    cluster_cs=DEFAULT_CLUSTER_CS,
) -> OscillationReport:
    """Probe P{M_n <= floor(theta log n) + q} across ``n_values``.

    Probabilities are computed from the survival function at the probed
    level m, exp(n * log1p(-p**(m+1))), to keep large-n values exact to
    machine precision; a level below zero has S = 1 and probability 0.
    """
    ns = _grid(n_values, "n_values", order=1, least=1)
    q = _integer(q, "q", least=None)
    t = params.theta * np.log(ns)
    levels = _floor_log_ratio(params.p, t, lambda i: (1, int(ns[i]))).astype(np.int64)
    # checked in Python ints, as int64 arithmetic would wrap or overflow; the
    # shift through the lowest level stays in int64 whenever the result does
    low = int(levels.min())
    if not -(2**63) <= low + q <= int(levels.max()) + q < 2**63:
        raise DomainError(f"q = {q} takes the levels floor(theta log n) + q out of int64")
    levels = (levels - low) + (low + q)
    probs = _cdf_of_max(ns, _geom_sf(params, levels))
    tail = probs[probs.size // 2 :]
    cs = [_real(c, "c", "[0, 1)") for c in cluster_cs]
    cluster = tuple((c, _cluster_limit(params, q, c)) for c in cs)
    return OscillationReport(
        params=params,
        q=q,
        n_values=ns,
        levels=levels,
        probs=probs,
        lim_inf_est=float(np.min(tail)),
        lim_sup_est=float(np.max(tail)),
        cluster_points=cluster,
    )


def subsequence_generator(params: GeometricParams, c: float, k_range) -> np.ndarray:
    """n_k = round(exp((k+c)/theta)): along these, frac(theta log n_k) -> c.

    Consecutive entries grow by the factor 1/p, so the gaps n_{k+1} - n_k
    grow geometrically.  Rounding collisions (two k mapping to one n) are
    reported via a warning and deduplicated.
    """
    c = _real(c, "c", "[0, 1)")
    ks = _grid(k_range, "k_range", least=0)
    log_inv_p = math.log(1.0 / params.p)
    # an exponent past log(2**62) + 1 is refused below whatever its value;
    # capping it there keeps math.exp from overflowing first
    cap = math.log(2.0**62) + 1.0
    vals = np.array([math.exp(min((int(k) + c) * log_inv_p, cap)) for k in ks])
    if np.any(vals > 2**62):
        raise DomainError("k_range entries overflow the integer range")
    ns = np.rint(vals).astype(np.int64)
    unique = np.unique(ns)
    if unique.size < ns.size:
        warnings.warn(
            f"{ns.size - unique.size} rounding collision(s) in the subsequence; "
            "deduplicated",
            stacklevel=2,
        )
    return unique
