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


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream): same pair, same sequence.

    Sub-streams with distinct ids are the only sanctioned way to run
    samplers in parallel under one seed.  Both must be non-negative.
    """
    seed, stream = int(seed), int(stream)
    if seed < 0 or stream < 0:
        raise DomainError(
            f"seed and stream must be non-negative, got seed={seed}, stream={stream}"
        )
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
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n < _MIN_KS_SAMPLES:
        raise DomainError(f"one-sample KS requires >= {_MIN_KS_SAMPLES} samples, got {n}")
    f = np.asarray(cdf(s), dtype=float)
    if np.any(np.isnan(f)) or np.any(f < 0.0) or np.any(f > 1.0):
        raise ContractViolationError("cdf returned values outside [0, 1]")
    i = np.arange(n)
    d_minus = np.max(f - i / n)
    d_plus = np.max((i + 1) / n - f)
    stat = float(max(d_plus, d_minus, 0.0))
    thr = float(_threshold(alpha, n))
    return KsResult(stat, float(n), thr, stat < thr)


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Sup-distance between two sample ECDFs, with verdict at ``alpha``."""
    sa = np.sort(np.asarray(a, dtype=float))
    sb = np.sort(np.asarray(b, dtype=float))
    if sa.size < _MIN_KS_SAMPLES or sb.size < _MIN_KS_SAMPLES:
        raise DomainError(
            f"two-sample KS requires >= {_MIN_KS_SAMPLES} samples on each side"
        )
    grid = np.concatenate([sa, sb])
    fa = np.searchsorted(sa, grid, side="right") / sa.size
    fb = np.searchsorted(sb, grid, side="right") / sb.size
    stat = float(np.max(np.abs(fa - fb)))
    n_eff = sa.size * sb.size / (sa.size + sb.size)
    thr = float(_threshold(alpha, n_eff))
    return KsResult(stat, float(n_eff), thr, stat < thr)
