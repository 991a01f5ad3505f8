"""Seeded random streams, empirical CDFs, and Kolmogorov-Smirnov distances.

Random streams follow a counter-based contract: ``make_rng(seed, stream)``
yields a platform-independent sequence determined by the pair alone, and
distinct stream ids derived from one seed never overlap.  Every sampler in
the package draws its uniforms from such a stream, and exponential variates
are always derived as ``-log(1 - U)`` from the same uniform source, so
coupled experiments are reproducible per seed.

KS verdicts use the asymptotic two-sided thresholds ``c(alpha)/sqrt(n_eff)``
at the two supported levels; no p-values are computed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError

__all__ = [
    "KS_CRITICAL",
    "make_rng",
    "uniform_open",
    "standard_exponential",
    "EmpiricalCdf",
    "ecdf_eval",
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


def _grid(values, name: str, order: int = 0, least: int | None = None, int64: bool = True):
    """``values`` as a nonempty 1-d grid, strictly increasing (``order`` 1) or
    decreasing (-1) if asked: a float grid of positive finite reals, or with
    ``least`` an int64 grid of integers >= ``least``, taken as ``_integer``
    takes one (a float, integral or not, a bool or a string is refused, never
    truncated).  ``int64`` False keeps Python ints past int64 exact in an
    object array.  Anything else is a ``DomainError`` that names the grid."""
    arr = np.asarray(values)
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d grid, got shape {arr.shape}")
    kind = arr.dtype.kind
    if least is None:
        if kind not in "iuf":
            raise DomainError(f"{name} must be real numbers, got {arr.dtype} entries")
        grid = np.asarray(arr, dtype=float)
        if not (grid.min() > 0.0 and grid.max() < np.inf):  # NaN fails both
            i = np.argmin(np.isfinite(grid) & (grid > 0.0))
            raise DomainError(f"{name} must be positive finite reals, got {arr.tolist()[i]!r}")
    else:  # a numpy integer array is checked whole, anything else entry by entry
        top = 2**63 if int64 else np.inf
        if kind != "i" and not (kind == "u" and arr.max() < top):
            bad = [v for v in arr.tolist() if not (_is_int(v) and -top <= v < top)]
            if bad:
                fit = " of magnitude below 2**63" if int64 else ""
                raise DomainError(f"{name} must be integers{fit}, got {bad[0]!r}")
        grid = arr if kind == "O" and not int64 else arr.astype(np.int64)
        if grid.min() < least:
            i = np.argmax(grid < least)
            raise DomainError(f"{name} must be integers >= {least}, got {arr.tolist()[i]!r}")
    if order:
        steps = grid[1:] > grid[:-1] if order > 0 else grid[1:] < grid[:-1]
        if not steps.all():
            way, i = ("increasing" if order > 0 else "decreasing"), steps.argmin()
            raise DomainError(f"{name} must be strictly {way}, got {grid.tolist()[i : i + 2]}")
    return grid


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream): same pair, same sequence.

    Sub-streams with distinct ids are the only sanctioned way to run
    samplers in parallel under one seed.  Both must be integers, both
    non-negative.
    """
    seed, stream = _integer(seed, "seed", 0), _integer(stream, "stream", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def uniform_open(rng: np.random.Generator, size=None):
    """Uniform draws in the open interval (0, 1).

    Exact zeros (probability 2**-53 per draw) are redrawn so quantile
    transforms never see an endpoint.
    """
    if size is None:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        return u
    u = rng.random(size)
    mask = u == 0.0
    while np.any(mask):
        u[mask] = rng.random(int(mask.sum()))
        mask = u == 0.0
    return u


def standard_exponential(rng: np.random.Generator, size=None):
    """omega = -log(1 - U) with U from the shared uniform source."""
    return -np.log1p(-uniform_open(rng, size))


@dataclass(frozen=True)
class EmpiricalCdf:
    """Right-continuous empirical distribution of a sample."""

    sorted_samples: np.ndarray

    @classmethod
    def from_samples(cls, samples) -> "EmpiricalCdf":
        arr = np.sort(np.asarray(samples, dtype=float))
        if arr.size == 0:
            raise DomainError("empirical cdf requires at least one sample")
        if np.any(np.isnan(arr)):
            raise DomainError("samples must not contain NaN")
        return cls(arr)

    @property
    def size(self) -> int:
        return int(self.sorted_samples.size)


def ecdf_eval(ecdf: EmpiricalCdf, x):
    """Fraction of samples <= x; right-continuous in x."""
    idx = np.searchsorted(ecdf.sorted_samples, x, side="right")
    return _scalar_or_array(x, idx / ecdf.size)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n_effective: float
    threshold: float
    passed: bool


def _threshold(alpha: float, n_effective: float) -> float:
    try:
        c = KS_CRITICAL[alpha]
    except KeyError:
        raise DomainError(
            f"alpha must be one of {sorted(KS_CRITICAL)}, got {alpha}"
        ) from None
    return c / np.sqrt(n_effective)


def ks_one_sample(samples, cdf, alpha: float = 0.05) -> KsResult:
    """Sup-distance between the sample ECDF and ``cdf``, with verdict.

    D- takes F(s), not the left limit F(s-), so at an atom of ``cdf`` the
    statistic is overstated by up to the atom's mass; the exact statistic
    would make the threshold conservative there (Conover, JASA 1972).
    """
    s = EmpiricalCdf.from_samples(samples).sorted_samples
    n = s.size
    if n < _MIN_KS_SAMPLES:
        raise DomainError(f"one-sample KS requires >= {_MIN_KS_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(s), dtype=float)
    if not ((f >= 0.0) & (f <= 1.0)).all():  # NaN fails both
        raise ContractViolationError("cdf returned values outside [0, 1]")
    # D+ = max((i + 1)/n - f) = 1/n - min(f - i/n) and D- = max(f - i/n)
    d = f - np.arange(n) / n
    stat = float(max(d.max(), 1.0 / n - d.min(), 0.0))
    thr = float(_threshold(alpha, n))
    return KsResult(stat, float(n), thr, stat < thr)


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Sup-distance between two sample ECDFs, with verdict at ``alpha``."""
    ea, eb = EmpiricalCdf.from_samples(a), EmpiricalCdf.from_samples(b)
    if ea.size < _MIN_KS_SAMPLES or eb.size < _MIN_KS_SAMPLES:
        raise DomainError(
            f"two-sample KS requires >= {_MIN_KS_SAMPLES} samples on each side"
        )
    grid = np.concatenate([ea.sorted_samples, eb.sorted_samples])
    stat = float(np.max(np.abs(ecdf_eval(ea, grid) - ecdf_eval(eb, grid))))
    n_eff = ea.size * eb.size / (ea.size + eb.size)
    thr = float(_threshold(alpha, n_eff))
    return KsResult(stat, float(n_eff), thr, stat < thr)
