"""Seeded random streams and Kolmogorov-Smirnov distances.

Random streams follow a counter-based contract: ``make_rng(seed, stream)``
yields a platform-independent sequence determined by the pair alone, and
distinct stream ids derived from one seed never overlap.  Every sampler in
the package draws its uniforms from such a stream through ``uniform_open``,
which redraws an exact zero in stream order, and exponential variates are
always derived as ``-log(1 - U)`` from the same uniform source, so coupled
experiments are reproducible per seed.  The direct maxima sampler
(``maxima.sample_max_direct``) alone reads the generator's raw words, and
gets the same uniforms from them.  A bulk draw is checked with one ``min``
reduction and transformed in its own array.

KS verdicts use the asymptotic two-sided thresholds ``c(alpha)/sqrt(n_eff)``
at the two supported levels; no p-values are computed.  Each sample is
checked and sorted once, and its empirical cdf is read off the sorted copy
(``_sorted_sample``).  The one-sample statistic checks the cdf's values
with one ``min`` and one ``max`` and never writes into them, as a law may
return an array of its own.

The package checks its integer, grid, real and real-array arguments here
(``_integer``, ``_grid``, ``_real``, ``_reals``; a draw's ``size`` through
``_integer`` too): none takes a bool, parses a string or reads NaN, and each
refusal is a ``DomainError`` naming it.  Each argument is checked once: a
public function is its checks plus a private kernel that takes checked
values, and an internal caller, whose values are checked or built inside
the kernel's domain, calls the kernel, not the public function.
"""

# the np.random.Generator annotations stay text, so importing loads no numpy.random
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError

__all__ = [
    "KS_CRITICAL",
    "make_rng",
    "uniform_open",
    "standard_exponential",
    "KsResult",
    "ks_one_sample",
    "ks_two_sample",
]

# Asymptotic two-sided Kolmogorov quantiles; threshold(alpha) = c / sqrt(n_eff).
KS_CRITICAL = {0.05: 1.358, 0.01: 1.628}

_MIN_KS_SAMPLES = 20


def _scalar_or_array(x, out):
    """``out`` as a float when the argument ``x`` was a scalar, else as a
    float array: the return convention of every vectorized function here."""
    if np.ndim(x) == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int, for an int or numpy integer of at least ``least`` (None:
    any); a bool, a float or a string is a ``DomainError``, never truncated or parsed."""
    if not _is_int(value) or (least is not None and value < least):
        kinds = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        kind = kinds.get(least, f"an integer >= {least}")
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return int(value)


_REALS = (float, int, np.floating, np.integer)


@functools.cache
def _bounds(interval: str):
    """``interval``, written as "(0, 1]" and the like, as (lo, hi, lo in, hi in);
    cached, as each call site passes one literal interval."""
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "[", interval[-1] == "]"


def _real(value, name: str, interval: str = "(-inf, inf)") -> float:
    """``value`` as a float, for an int, a float or a numpy real in ``interval``;
    a bool, a string, None, NaN or an int past the largest double is a
    ``DomainError`` that names the argument and the interval, never parsed."""
    lo, hi, lo_in, hi_in = _bounds(interval)
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the largest double
            x = np.nan
        if (lo < x or lo_in and lo == x) and (x < hi or hi_in and x == hi):  # NaN fails
            return x
    raise DomainError(f"{name} must be a real number in {interval}, got {value!r}")


def _reals(values, name: str, interval: str) -> np.ndarray:
    """``values`` as a float array of their shape, for an array-like of ints or
    floats in ``interval``; a bool (in a list too), string or object entry, or
    an entry outside the interval (NaN too), is a ``DomainError`` that names
    the argument and the dtype, or the interval and the first bad entry."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {raw.dtype} entries")
    # numpy reads a bool among numbers as 0 or 1, so a sequence is checked entry by entry
    if raw.ndim and not isinstance(values, np.ndarray):
        if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat)):
            raise DomainError(f"{name} must be real numbers, got bool entries")
    arr = raw.astype(float, copy=False)
    lo, hi, lo_in, hi_in = _bounds(interval)
    if arr.size:
        # NaN carries through min, so "[-inf, inf]" costs one min, and a 0-d array none
        low = float(arr.min()) if arr.ndim else float(arr)
        high = float(arr.max()) if arr.ndim and (hi < np.inf or not hi_in) else low
        if not ((lo < low or lo_in and lo == low) and (high < hi or hi_in and high == hi)):
            inside = ((lo < arr) | lo_in & (lo == arr)) & ((arr < hi) | hi_in & (arr == hi))
            bad = raw.flat[np.argmin(inside)].item()  # the first, in flat order
            raise DomainError(f"{name} must be real numbers in {interval}, got {bad!r}")
    return arr


def _vector(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, refused unless it is a nonempty 1-d array."""
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d grid, got shape {arr.shape}")
    return arr


def _ordered(grid: np.ndarray, name: str, order: int) -> np.ndarray:
    """``grid``, refused unless strictly increasing (``order`` 1) or decreasing (-1)."""
    steps = grid[1:] > grid[:-1] if order > 0 else grid[1:] < grid[:-1]
    if not steps.all():
        way, i = ("increasing" if order > 0 else "decreasing"), steps.argmin()
        raise DomainError(f"{name} must be strictly {way}, got {grid.tolist()[i : i + 2]}")
    return grid


def _grid(values, name: str, order: int = 0, least: int | None = None):
    """``values`` as a nonempty 1-d grid (``_vector``), strictly ordered if
    asked (``_ordered``): a float grid of positive finite reals (``_reals``
    in (0, inf)), or with ``least`` an int64 grid of integers >= ``least``,
    taken as ``_integer`` takes one (a float, integral or not, a bool or a
    string is refused, never truncated).  Anything else is a ``DomainError``
    that names the grid."""
    arr = _vector(np.asarray(values), name)
    if least is None:
        grid = _reals(values, name, "(0, inf)")
    else:  # a numpy integer array is checked whole, anything else entry by entry
        kind = arr.dtype.kind
        if kind != "i" and not (kind == "u" and arr.max() < 2**63):
            bad = [v for v in arr.tolist() if not (_is_int(v) and -(2**63) <= v < 2**63)]
            if bad:
                raise DomainError(
                    f"{name} must be integers of magnitude below 2**63, got {bad[0]!r}"
                )
        grid = arr.astype(np.int64)
        if grid.min() < least:
            i = np.argmax(grid < least)
            raise DomainError(f"{name} must be integers >= {least}, got {arr.tolist()[i]!r}")
    return _ordered(grid, name, order) if order else grid


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream): same pair, same sequence.

    Sub-streams with distinct ids are the only sanctioned way to run
    samplers in parallel under one seed.  Both must be integers, both
    non-negative.
    """
    seed, stream = _integer(seed, "seed", 0), _integer(stream, "stream", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _size(size):
    """``size`` as numpy's shape argument, for an int or a tuple of ints, each
    non-negative, taken as ``_integer`` takes one."""
    if isinstance(size, tuple):
        return tuple(_integer(m, "size", 0) for m in size)
    return _integer(size, "size", 0)


def uniform_open(rng: np.random.Generator, size):
    """An array of ``size`` uniform draws in the open interval (0, 1).

    Exact zeros (probability 2**-53 per draw) are redrawn in stream order,
    so quantile transforms never see an endpoint.
    """
    u = rng.random(_size(size))
    while u.size and not u.min() > 0.0:  # one reduction; a zero is all but never there
        zero = u == 0.0
        u[zero] = rng.random(int(zero.sum()))
    return u


def standard_exponential(rng: np.random.Generator, size):
    """An array of ``size`` draws omega = -log(1 - U) with U from the shared
    uniform source, formed in U's own array."""
    u = uniform_open(rng, size)
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def _sorted_sample(samples) -> np.ndarray:
    """``samples`` checked as reals (inf but not NaN) and sorted: the sample's
    right-continuous empirical cdf at x is the count of entries <= x over n."""
    return np.sort(_reals(samples, "samples", "[-inf, inf]"))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n_effective: float
    threshold: float
    passed: bool


def _threshold(alpha: float, n_effective: float) -> float:
    alpha = _real(alpha, "alpha", "(0, 1)")
    if alpha not in KS_CRITICAL:
        raise DomainError(f"alpha must be one of {sorted(KS_CRITICAL)}, got {alpha!r}")
    return KS_CRITICAL[alpha] / np.sqrt(n_effective)


def ks_one_sample(samples, cdf, alpha: float = 0.05) -> KsResult:
    """Sup-distance between the sample ECDF and ``cdf``, with verdict.

    D- takes F(s), not the left limit F(s-), so at an atom of ``cdf`` the
    statistic is overstated by up to the atom's mass; the exact statistic
    would make the threshold conservative there (Conover, JASA 1972).
    """
    s = _sorted_sample(samples)
    n = s.size
    if n < _MIN_KS_SAMPLES:
        raise DomainError(f"one-sample KS requires >= {_MIN_KS_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(s), dtype=float)
    if not (f.min() >= 0.0 and f.max() <= 1.0):  # NaN carries through min
        raise ContractViolationError("cdf returned values outside [0, 1]")
    # D+ = max((i + 1)/n - f) = 1/n - min(f - i/n) and D- = max(f - i/n),
    # with d = f - i/n built in the ramp's array, as f may be the law's own
    d = np.arange(n, dtype=float)
    np.divide(d, n, out=d)
    np.subtract(f, d, out=d)
    stat = float(max(d.max(), 1.0 / n - d.min(), 0.0))
    thr = float(_threshold(alpha, n))
    return KsResult(stat, float(n), thr, stat < thr)


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Sup-distance between two sample ECDFs, with verdict at ``alpha``."""
    sa, sb = _sorted_sample(a), _sorted_sample(b)
    na, nb = sa.size, sb.size
    if na < _MIN_KS_SAMPLES or nb < _MIN_KS_SAMPLES:
        raise DomainError(
            f"two-sample KS requires >= {_MIN_KS_SAMPLES} samples on each side"
        )
    grid = np.concatenate([sa, sb])
    # each sample's right-continuous empirical cdf at every point of both
    fa, fb = (np.searchsorted(s, grid, side="right") / s.size for s in (sa, sb))
    stat = float(np.max(np.abs(fa - fb)))
    n_eff = na * nb / (na + nb)
    thr = float(_threshold(alpha, n_eff))
    return KsResult(stat, float(n_eff), thr, stat < thr)
