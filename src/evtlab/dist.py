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
(``stats._reals``); a law's own callables are unchecked kernels behind them,
but for the geometric law's ``cdf`` and ``sf``, the checked ``geom_cdf`` and
``geom_sf``.
Distribution values are immutable; their callables are pure,
numpy-vectorized, and safe to share across threads.  Every family's Q and
tail quantile are closed forms (the normal law delegates to scipy's
ndtr/ndtri, importing scipy.special on its first evaluation, so
``import evtlab`` never loads it).
"""

from dataclasses import dataclass, field
from functools import partial

import numpy as np

from . import geometric as _geom
from .errors import DomainError
from .stats import _count, _first, _open_draw, _real, _reals, _scalar_or_array

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
    tail mass eps, and kind tag ('continuous' or 'discrete').

    The families' ``quantile`` and ``tail`` also take ``out``, a float array
    of the argument's shape: they write their values into it and return it,
    with no array of their own, and the samplers hand them their output.
    The geometric law's, which reread u near an integer, and the callables
    of a law built by hand may take the argument alone: a sampler copies
    their values into its output, with the same bits.  No callable writes
    its argument."""

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
    arr = _reals(u, "quantile argument u", "(0, 1)")
    return _scalar_or_array(arr, _finite_quantiles(dist, arr))


def _takes_out(fn) -> bool:
    """Whether the law's callable ``fn`` is a function with a parameter
    ``out``, as the families' kernels are; a partial or another callable is
    called on its argument alone."""
    code = getattr(fn, "__code__", None)
    names = code.co_varnames[: code.co_argcount + code.co_kwonlyargcount] if code else ()
    return "out" in names


def _into(x, out):
    """``out``, or a new float array of ``x``'s shape: the array a family's
    kernel writes its values into and returns."""
    return np.empty_like(x, dtype=float) if out is None else out


def _finite_quantiles(dist: Distribution, arg, out=None, tail: bool = False):
    """Q(u) at the array u, or with ``tail`` Q(1 - eps) at the array eps, in
    ``out`` if given, a float array of arg's shape; a non-finite value is a
    ``DomainError`` naming the first such u or eps, which is never written.
    A callable with an ``out`` parameter is handed ``out``; an array a
    callable returns that is not ``out`` is copied in."""
    fn = dist.tail if tail else dist.quantile
    with np.errstate(over="ignore"):
        res = fn(arg, out=out) if out is not None and _takes_out(fn) else fn(arg)
    if out is None:
        out = np.asarray(res, dtype=float)
    elif res is not out:
        out[...] = res
    i = _first(np.isfinite(out))
    if i >= 0:
        value, name = ("Q(1 - eps)", "eps") if tail else ("Q(u)", "u")
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
    return _scalar_or_array(arr, _finite_quantiles(dist, arr, tail=True))


def uniform(a: float = 0.0, b: float = 1.0) -> Distribution:
    a, b = _real(a, "a"), _real(b, "b")
    if b <= a:
        raise DomainError(f"uniform requires a < b, got a={a}, b={b}")
    width = b - a
    if width == np.inf:  # cdf and sf would divide by it
        raise DomainError(f"uniform requires a finite width b - a, got a={a}, b={b}")

    def cdf(x):
        return np.clip((np.asarray(x, dtype=float) - a) / width, 0.0, 1.0)

    def sf(x):
        return np.clip((b - np.asarray(x, dtype=float)) / width, 0.0, 1.0)

    def q(u, out=None):
        out = np.multiply(u, width, out=_into(u, out))
        return np.add(a, out, out=out)

    def tail(eps, out=None):
        out = np.subtract(1.0, eps, out=_into(eps, out))
        out *= width
        return np.add(a, out, out=out)

    return Distribution("uniform", cdf, sf, q, tail, CONTINUOUS, {"a": a, "b": b})


def exponential(rate: float = 1.0) -> Distribution:
    rate = _real(rate, "rate", "(0, inf)")

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        return np.where(arr < 0.0, 0.0, -np.expm1(-rate * np.maximum(arr, 0.0)))

    def sf(x):
        return np.exp(-rate * np.maximum(np.asarray(x, dtype=float), 0.0))

    def q(u, out=None):
        out = np.negative(u, out=_into(u, out))
        np.log1p(out, out=out)
        np.negative(out, out=out)
        return np.divide(out, rate, out=out)

    def tail(eps, out=None):
        out = np.log(eps, out=_into(eps, out))
        np.negative(out, out=out)
        return np.divide(out, rate, out=out)

    return Distribution("exponential", cdf, sf, q, tail, CONTINUOUS, {"rate": rate})


def pareto(alpha: float = 1.0) -> Distribution:
    alpha = _real(alpha, "alpha", "(0, inf)")

    def cdf(x):
        arr = np.asarray(x, dtype=float)
        # 1 - x**-alpha would cancel near x = 1; expm1 keeps the small cdf there
        return np.where(arr < 1.0, 0.0, -np.expm1(-alpha * np.log(np.maximum(arr, 1.0))))

    def sf(x):
        return np.maximum(np.asarray(x, dtype=float), 1.0) ** (-alpha)

    def tail(eps, out=None):
        out = _into(eps, out)
        out[...] = eps
        out **= -1.0 / alpha  # the ** operator's own kernel: it takes x ** -1.0 as 1/x
        return out

    def q(u, out=None):
        out = np.subtract(1.0, u, out=_into(u, out))
        out **= -1.0 / alpha
        return out

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

    def q(u, out=None):
        from scipy.special import ndtri

        out = ndtri(u, out=_into(u, out))
        out *= sigma
        return np.add(mu, out, out=out)

    def tail(eps, out=None):
        from scipy.special import ndtri

        out = ndtri(eps, out=_into(eps, out))
        out *= sigma
        return np.subtract(mu, out, out=out)

    return Distribution("normal", cdf, sf, q, tail, CONTINUOUS, {"mu": mu, "sigma": sigma})


def degenerate(c: float = 0.0) -> Distribution:
    c = _real(c, "c")

    def cdf(x):
        return np.where(np.asarray(x, dtype=float) >= c, 1.0, 0.0)

    def sf(x):
        return np.where(np.asarray(x, dtype=float) >= c, 0.0, 1.0)

    def q(u, out=None):
        out = _into(u, out)
        out.fill(c)
        return out

    return Distribution("degenerate", cdf, sf, q, q, DISCRETE, {"c": c})


def geometric(p: float = 0.5) -> Distribution:
    params = _geom.GeometricParams(p)

    cdf = partial(_geom.geom_cdf, params)
    sf = partial(_geom.geom_sf, params)
    tail = partial(_geom._geom_quantile, params)

    def q(u):
        return tail(1.0 - np.asarray(u, dtype=float))

    return Distribution("geometric", cdf, sf, q, tail, DISCRETE, {"p": params.p})


def sample_quantile_transform(dist: Distribution, rng, count: int):
    """``count`` draws of Q(U) with U uniform on (0, 1) from ``rng``.

    For uniform(0, 1) the output is bit-identical to the raw uniform stream;
    discrete laws are sampled exactly through the same route.  Q is written
    into the output from the uniforms, which stay as drawn, so a draw holds
    16 B a value, and 1 B more while its values are checked.  Where the
    generator can move on by any number of words (Philox, PCG64 and
    PCG64DXSM), a draw of at least 2**15 values is cut into even ranges,
    one per usable CPU, each drawn and transformed into its slice of the
    output on a thread of its own (``stats._split_draw``): the samples, the
    first u a non-finite Q(u) is named at, and the stream's end do not
    depend on the number of CPUs.
    """
    return _open_draw(rng, _count(count), partial(_finite_quantiles, dist))


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
    ``uniform`` both denote uniform(0, 1).  Each key may be given once: a
    repeated key, as in ``normal:mu=0,mu=5``, is a ``DomainError``.
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
            if key in kwargs:
                raise DomainError(f"parameter {key!r} is given twice in {text!r}")
            try:
                kwargs[key] = float(value)
            except ValueError:
                raise DomainError(f"parameter {key!r} has non-numeric value {value!r}")
    return factory(**kwargs)


def spec_string(dist: Distribution) -> str:
    """Canonical ``family:param=value`` form; parses back to an equal law."""
    body = ",".join(f"{k}={v:.17g}" for k, v in dist.params.items())
    return f"{dist.name}:{body}"
