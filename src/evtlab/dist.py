"""Distribution models with generalized-inverse quantiles.

The quantile convention throughout is the strict generalized inverse
Q(u) = inf{x : F(x) > u}.  For continuous strictly increasing laws this is
the ordinary inverse; at an atom it picks the atom's location for every u
in the closed step [F(x-), F(x)), which is what makes the step-law algebra
in the geometric module come out exactly.

Beside Q every law carries its tail quantile Q(1 - eps), computed from the
tail mass eps itself (de Haan's U(t) = Q(1 - 1/t) at t = 1/eps).  The
upper-tail theory is stated in eps, and ``tail_quantile`` keeps it exact
where the level 1 - eps would round: for eps below 2**-54 the level is
1.0, and well above that it has already lost the low bits of eps.  The
two forms agree wherever 1 - u is exact, as on the samplers' 2**-53 grid.

A family's parameters are real arguments (``stats._real``): an int, a
float or a numpy real in the family's range, kept in ``params`` as floats.
The u and eps of ``quantile`` and ``tail_quantile`` are real arrays in (0, 1)
(``stats._reals``); a law's own callables are unchecked kernels behind them.
Distribution values are immutable; their callables are pure,
numpy-vectorized, and safe to share across threads.  Built-in families use
closed forms (the normal law delegates to scipy's ndtr/ndtri, importing
scipy.special on its first evaluation, so ``import evtlab`` never loads it);
``numeric_quantile`` provides an independent bisection route for arbitrary
monotone cdfs, from the fixed bracket [-1, 1] doubled outward.
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import geometric as _geom
from .errors import BracketingError, ContractViolationError, DomainError
from .stats import _integer, _real, _reals, _scalar_or_array, uniform_open

__all__ = [
    "Distribution",
    "uniform",
    "exponential",
    "pareto",
    "normal",
    "degenerate",
    "geometric",
    "quantile",
    "tail_quantile",
    "numeric_quantile",
    "sample_quantile_transform",
    "parse_distribution",
    "spec_string",
    "CONTINUOUS",
    "DISCRETE",
]

CONTINUOUS = "continuous"
DISCRETE = "discrete"


@dataclass(frozen=True)
class Distribution:
    """A named law: vectorized cdf F and survival function 1 - F, strict
    generalized-inverse quantile Q(u), tail quantile Q(1 - eps) taken at the
    tail mass eps, and kind tag ('continuous' or 'discrete')."""

    name: str
    cdf: callable
    sf: callable
    quantile: callable
    tail: callable
    kind: str
    params: dict = field(default_factory=dict)

    def __repr__(self) -> str:  # params only; callables are noise
        return f"Distribution({spec_string(self)!r})"


def quantile(dist: Distribution, u):
    """Q(u) = inf{x : F(x) > u} for u in (0, 1); endpoints are rejected, and a
    non-finite value is a ``DomainError`` naming the first such u and the law."""
    return _scalar_or_array(u, _finite_quantiles(dist, _reals(u, "quantile argument u", "(0, 1)")))


def _finite_quantiles(dist: Distribution, arg, tail: bool = False):
    """Q(u) at the array u, or with ``tail`` Q(1 - eps) at the array eps; a
    non-finite value is a ``DomainError`` naming the first such u or eps."""
    fn, value, name = (dist.tail, "Q(1 - eps)", "eps") if tail else (dist.quantile, "Q(u)", "u")
    with np.errstate(over="ignore"):
        out = np.asarray(fn(arg), dtype=float)
    finite = np.isfinite(out)
    if not finite.all():
        i = np.argmin(finite)  # the first non-finite value, in flat order
        raise DomainError(
            f"{value} = {out.flat[i]} is not finite at {name} = "
            f"{float(arg.flat[i])!r} for {spec_string(dist)}"
        )
    return out


def tail_quantile(dist: Distribution, eps):
    """Q(1 - eps) for tail masses eps in (0, 1), computed from eps itself.

    A non-finite value is a ``DomainError`` naming the first such eps and
    the law."""
    arr = _reals(eps, "tail mass eps", "(0, 1)")
    return _scalar_or_array(eps, _finite_quantiles(dist, arr, tail=True))


def uniform(a: float = 0.0, b: float = 1.0) -> Distribution:
    a, b = _real(a, "a"), _real(b, "b")
    if b <= a:
        raise DomainError(f"uniform requires a < b, got a={a}, b={b}")
    width = b - a

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0)

    def sf(x):
        return np.clip((b - np.asarray(x, dtype=float)) / width, 0.0, 1.0)

    def q(u):
        return a + np.asarray(u, dtype=float) * width

    def tail(eps):
        return a + (1.0 - np.asarray(eps, dtype=float)) * width

    return Distribution("uniform", cdf, sf, q, tail, CONTINUOUS, {"a": a, "b": b})


def exponential(rate: float = 1.0) -> Distribution:
    rate = _real(rate, "rate", "(0, inf)")

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        return np.where(arr < 0.0, 0.0, -np.expm1(-rate * np.maximum(arr, 0.0)))

    def sf(x):
        return np.exp(-rate * np.maximum(np.asarray(x, dtype=float), 0.0))

    def q(u):
        return -np.log1p(-np.asarray(u, dtype=float)) / rate

    def tail(eps):
        return -np.log(np.asarray(eps, dtype=float)) / rate

    return Distribution("exponential", cdf, sf, q, tail, CONTINUOUS, {"rate": rate})


def pareto(alpha: float = 1.0) -> Distribution:
    alpha = _real(alpha, "alpha", "(0, inf)")

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        return np.where(arr < 1.0, 0.0, 1.0 - np.maximum(arr, 1.0) ** (-alpha))

    def sf(x):
        return np.maximum(np.asarray(x, dtype=float), 1.0) ** (-alpha)

    def tail(eps):
        return np.asarray(eps, dtype=float) ** (-1.0 / alpha)

    def q(u):
        return tail(1.0 - np.asarray(u, dtype=float))

    return Distribution("pareto", cdf, sf, q, tail, CONTINUOUS, {"alpha": alpha})


def normal(mu: float = 0.0, sigma: float = 1.0) -> Distribution:
    mu, sigma = _real(mu, "mu"), _real(sigma, "sigma", "(0, inf)")

    # scipy.special is imported on first use, so that no other law pays for it
    def cdf(x):
        from scipy.special import ndtr

        return ndtr((np.asarray(x, dtype=float) - mu) / sigma)

    def sf(x):
        from scipy.special import ndtr

        return ndtr((mu - np.asarray(x, dtype=float)) / sigma)

    def q(u):
        from scipy.special import ndtri

        return mu + sigma * ndtri(np.asarray(u, dtype=float))

    def tail(eps):
        from scipy.special import ndtri

        return mu - sigma * ndtri(np.asarray(eps, dtype=float))

    return Distribution("normal", cdf, sf, q, tail, CONTINUOUS, {"mu": mu, "sigma": sigma})


def degenerate(c: float = 0.0) -> Distribution:
    c = _real(c, "c")

    def cdf(x):
        return np.where(np.asarray(x, dtype=float) >= c, 1.0, 0.0)

    def sf(x):
        return np.where(np.asarray(x, dtype=float) >= c, 0.0, 1.0)

    def q(u):
        return np.full_like(np.asarray(u, dtype=float), c)

    return Distribution("degenerate", cdf, sf, q, q, DISCRETE, {"c": c})


def geometric(p: float = 0.5) -> Distribution:
    params = _geom.GeometricParams(p)

    cdf = partial(_geom.geom_cdf, params)
    sf = partial(_geom.geom_sf, params)
    tail = partial(_geom.geom_quantile, params)

    def q(u):
        return tail(1.0 - np.asarray(u, dtype=float))

    return Distribution("geometric", cdf, sf, q, tail, DISCRETE, {"p": params.p})


_PROB_TOL = 1e-12
_X_RTOL = 1e-12
_MONOTONE_SLACK = 1e-12
# doublings of the bracket [-1, 1]: 1100 carry it past every finite double
_MAX_EXPANSIONS = 1100


def _checked_cdf(cdf, x: float) -> float:
    v = float(cdf(x))
    if not 0.0 <= v <= 1.0:  # NaN fails too
        raise ContractViolationError(f"cdf({x}) = {v} is outside [0, 1]")
    return v


def numeric_quantile(cdf, u: float) -> float:
    """Invert a monotone cdf by bisection: the infimum-side root of F(x) > u.

    The bracket [-1, 1] is expanded outward, doubling its step, until it
    straddles level u, then bisected until either the probability gap
    across the bracket is below 1e-12 or the bracket width is below 1e-12
    relative.  The returned point always satisfies F(x) > u, so at a jump
    it converges to the jump location from above.  A cdf value that breaks
    monotonicity along the way raises ``ContractViolationError``.
    """
    u = _real(u, "quantile argument u", "(0, 1)")
    lo, hi = -1.0, 1.0
    f_lo, f_hi = _checked_cdf(cdf, lo), _checked_cdf(cdf, hi)
    step = hi - lo
    for _ in range(_MAX_EXPANSIONS):
        if f_hi > u:
            break
        lo, f_lo = hi, f_hi
        step *= 2.0
        hi = hi + step
        f_hi = _checked_cdf(cdf, hi)
    else:
        raise BracketingError(
            f"cdf never exceeded u={u} after {_MAX_EXPANSIONS} expansions"
        )
    step = hi - lo
    for _ in range(_MAX_EXPANSIONS):
        if f_lo <= u:
            break
        hi, f_hi = lo, f_lo
        step *= 2.0
        lo = lo - step
        f_lo = _checked_cdf(cdf, lo)
    else:
        raise BracketingError(
            f"cdf never fell to u={u} after {_MAX_EXPANSIONS} expansions"
        )
    # invariant: f_lo <= u < f_hi
    for _ in range(20000):
        if f_hi - f_lo <= _PROB_TOL:
            return hi
        if hi - lo <= _X_RTOL * max(1.0, abs(lo), abs(hi)):
            return hi
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:  # bracket exhausted float resolution
            return hi
        f_mid = _checked_cdf(cdf, mid)
        if f_mid < f_lo - _MONOTONE_SLACK or f_mid > f_hi + _MONOTONE_SLACK:
            raise ContractViolationError(
                f"cdf is not monotone: F({mid}) = {f_mid} outside "
                f"[F({lo}) = {f_lo}, F({hi}) = {f_hi}]"
            )
        if f_mid <= u:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    raise BracketingError("bisection failed to converge")


def sample_quantile_transform(dist: Distribution, rng, count: int):
    """``count`` draws of Q(U) with U uniform on (0, 1) from ``rng``.

    For uniform(0, 1) the output is bit-identical to the raw uniform stream;
    discrete laws are sampled exactly through the same route.
    """
    return _finite_quantiles(dist, uniform_open(rng, _integer(count, "count")))


_FAMILIES = {
    "uniform": (uniform, ("a", "b")),
    "exponential": (exponential, ("rate",)),
    "pareto": (pareto, ("alpha",)),
    "normal": (normal, ("mu", "sigma")),
    "degenerate": (degenerate, ("c",)),
    "geometric": (geometric, ("p",)),
}


def parse_distribution(text: str) -> Distribution:
    """Parse ``family:param=value[,param=value]``, e.g. ``pareto:alpha=2``.

    Parameters are optional and default per family; ``uniform:`` and plain
    ``uniform`` both denote uniform(0, 1).
    """
    if not isinstance(text, str) or not text.strip():
        raise DomainError("distribution spec must be a nonempty string")
    name, _, rest = text.strip().partition(":")
    name = name.strip()
    if name not in _FAMILIES:
        raise DomainError(
            f"unknown family {name!r}; choose from {sorted(_FAMILIES)}"
        )
    factory, keys = _FAMILIES[name]
    kwargs = {}
    if rest.strip():
        for item in rest.split(","):
            key, eq, value = item.partition("=")
            key = key.strip()
            if not eq or key not in keys:
                raise DomainError(
                    f"bad parameter {item!r} for family {name!r}; "
                    f"valid keys: {list(keys)}"
                )
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise DomainError(f"parameter {key!r} has non-numeric value {value!r}")
    return factory(**kwargs)


def spec_string(dist: Distribution) -> str:
    """Canonical ``family:param=value`` form; parses back to an equal law."""
    body = ",".join(f"{k}={v:.17g}" for k, v in dist.params.items())
    return f"{dist.name}:{body}"
