"""Distribution families and the strict generalized inverse."""

import dataclasses
import math
import os
import re
import subprocess
import sys
from decimal import MIN_EMIN, Decimal, localcontext
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.dist import CONTINUOUS, DISCRETE
from evtlab.errors import DomainError

CONTINUOUS_FAMILIES = [e.uniform(), e.exponential(), e.pareto(2.0), e.normal()]
ALL_FAMILIES = CONTINUOUS_FAMILIES + [e.degenerate(1.5), e.geometric(0.5)]


# ---------------------------------------------------------------- quantile

def test_quantile_examples():
    assert e.quantile(e.uniform(), 0.3) == 0.3
    assert e.quantile(e.exponential(), 1.0 - math.exp(-2.0)) == pytest.approx(2.0, abs=1e-15)
    assert e.quantile(e.geometric(0.5), 7.0 / 8.0) == 3.0


def test_geometric_quantile_matches_brute_force_scan():
    # oracle: smallest integer t with F(t) > u, scanned directly
    dist = e.geometric(0.5)
    rng = e.make_rng(29)
    for u in rng.random(200) * 0.998 + 0.001:
        t = 0
        while float(dist.cdf(float(t))) <= u:
            t += 1
        assert e.quantile(dist, float(u)) == float(t)


@pytest.mark.parametrize("p", [0.5, 0.2])
def test_geometric_quantile_takes_a_tiny_u(p):
    # the law's quantile is its tail at 1 - u, which rounds to 1.0 below
    # u = 2**-54; the tail mass 1.0 was refused there, naming a value nobody
    # passed, though Q(u) = 0 as F(0) = 1 - p > u
    law = e.geometric(p)
    for u in (1e-20, 2.0**-54, 5e-324):
        assert math.copysign(1.0, e.quantile(law, u)) == 1.0 and e.quantile(law, u) == 0.0
    assert e.quantile(law, [1e-20, 2.0**-53]).tolist() == [0.0, 0.0]
    # a tail mass of 1 is still refused where a caller passes it
    refusal = r"^tail mass eps must be real numbers in \(0, 1\), got 1.0$"
    with pytest.raises(DomainError, match=refusal):
        e.tail_quantile(law, 1.0)


def test_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.2, math.nan):
        with pytest.raises(DomainError):
            e.quantile(e.uniform(), bad)


# ---------------------------------------------------------------- tail quantile

def test_tail_quantile_closed_forms_at_tiny_tail_masses():
    # masses whose level 1 - eps rounds to 1 (or nearly) in doubles
    eps = np.array([1e-3, 2.0**-54, 1e-20, 1e-300])
    assert np.array_equal(e.tail_quantile(e.pareto(2.0), eps), eps**-0.5)
    assert np.array_equal(e.tail_quantile(e.pareto(1.0), eps), 1.0 / eps)
    assert np.array_equal(e.tail_quantile(e.exponential(2.0), eps), -np.log(eps) / 2.0)
    ref = [-NormalDist().inv_cdf(x) for x in eps]
    assert e.tail_quantile(e.normal(), eps) == pytest.approx(ref, rel=1e-14)
    assert e.tail_quantile(e.normal(1.0, 2.0), 1e-20) == pytest.approx(1.0 + 2.0 * ref[2], rel=1e-14)
    assert e.tail_quantile(e.uniform(2.0, 6.0), 0.25) == 5.0
    assert e.tail_quantile(e.degenerate(1.5), 1e-300) == 1.5
    # geometric p = 1/2: the tail mass 2**-k sits on the step k
    assert e.tail_quantile(e.geometric(0.5), 2.0**-60) == 60.0
    assert e.tail_quantile(e.geometric(0.5), 0.75 * 2.0**-60) == 60.0


def test_tail_quantile_domain_errors():
    for bad in (0.0, 1.0, -0.2, 1.2, math.nan):
        with pytest.raises(DomainError, match="tail mass eps"):
            e.tail_quantile(e.exponential(), bad)


@pytest.mark.parametrize("bad", [math.nan, 0.0, -0.0, 1.0, math.inf, -math.inf])
def test_unit_interval_refusals_keep_their_message(bad):
    # NaN is refused too; an array is refused for one bad entry, which is named
    for call, name in ((e.quantile, "quantile argument u"), (e.tail_quantile, "tail mass eps")):
        for arg in (bad, np.array([0.5, bad, 0.25])):
            with pytest.raises(DomainError) as info:
                call(e.exponential(), arg)
            assert str(info.value) == f"{name} must be real numbers in (0, 1), got {bad!r}"


def test_tail_quantile_refuses_a_non_finite_value():
    # 1e-5**(-100) overflows: the first such eps and the law are named
    eps = np.array([0.5, 1e-2, 1e-5, 1e-7])
    message = r"Q\(1 - eps\) = inf is not finite at eps = 1e-05 for pareto:alpha=0.01"
    with pytest.raises(DomainError, match=message):
        e.tail_quantile(e.pareto(0.01), eps)


def test_quantile_refuses_a_non_finite_value():
    # (1 - u)**(-100) overflows at u = 0.99999, as Q(1 - eps) does at eps = 1e-5
    message = r"Q\(u\) = inf is not finite at u = 0.99999 for pareto:alpha=0.01"
    with pytest.raises(DomainError, match=message):
        e.quantile(e.pareto(0.01), 0.99999)
    with pytest.raises(DomainError, match=message):
        e.quantile(e.pareto(0.01), np.array([0.5, 0.99999, 0.9999999]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(len(ALL_FAMILIES))),
    st.one_of(
        st.integers(1, 2**53 - 1), st.integers(1, 2**20), st.integers(2**53 - 2**20, 2**53 - 1)
    ),
)
def test_quantile_and_tail_agree_on_the_sampling_grid(family, k):
    # on the uniform stream's grid u = k * 2**-53, 1 - u is exact; both ends
    # of the grid are drawn often, where one of u and 1 - u is tiny
    dist, u = ALL_FAMILIES[family], k * 2.0**-53
    q, t = float(dist.quantile(np.array([u]))[0]), float(dist.tail(np.array([1.0 - u]))[0])
    assert abs(q - t) <= np.spacing(max(abs(q), abs(t)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(range(len(ALL_FAMILIES))),
    st.one_of(st.floats(-4.0, 64.0), st.floats(-1e300, 1e300)),
)
def test_cdf_and_survival_function_agree(family, x):
    # cdf + sf = 1 up to the rounding of each, counted exactly; where the
    # cdf is written as 1 - S it is that bit for bit, and pareto's, written
    # as -expm1(-alpha ln x), is held to its 40-digit value instead
    dist = ALL_FAMILIES[family]
    f, s = float(dist.cdf(np.array([x]))[0]), float(dist.sf(np.array([x]))[0])
    assert abs(Fraction(f) + Fraction(s) - 1) <= Fraction(2) ** -52
    if dist.name in ("degenerate", "geometric"):
        assert f == 1.0 - s
    if dist.name == "pareto":
        ref = _pareto_cdf_40_digits(2.0, x)
        assert abs(Decimal(f) - ref) <= ref * Decimal(2.0**-52)


def _pareto_cdf_40_digits(alpha, x):
    # 1 - x**-alpha = 1 - exp(-alpha ln x) at the exact doubles, in 40 digits
    if x <= 1.0:
        return Decimal(0)
    with localcontext() as ctx:
        ctx.prec = 40
        return 1 - (-Decimal(alpha) * Decimal(x).ln()).exp()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.7])
def test_pareto_cdf_keeps_its_small_values_near_one(alpha):
    # 1 - x**-alpha cancels there: 5.4e-2 relative off at alpha 3.7, x = 1 + 2**-52
    x = 1.0 + 2.0 ** -np.arange(1.0, 53.0)
    for xi, fi in zip(x.tolist(), e.pareto(alpha).cdf(x).tolist()):
        ref = _pareto_cdf_40_digits(alpha, xi)
        assert abs(Decimal(fi) - ref) <= ref * Decimal(2.0**-52), xi


GEOMETRIC_P = [1e-100, 1e-10, 1e-3, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 0.99, 0.999,
               1 - 1e-4, 1 - 1e-6, 1 - 1e-8, 1 - 1e-10]
GEOMETRIC_K = [0, 1, 2, 3, 4, 5, 7, 10, 20, 50, 100, 300, 1000, 10**4, 10**5, 3 * 10**5, 10**6]


@pytest.mark.parametrize("p", GEOMETRIC_P)
def test_geometric_cdf_keeps_its_small_values_near_p_one(p):
    # 1 - p**(k+1) cancels there: 1.0e-10 relative off at p = 1 - 1e-10, k = 2
    cdf = e.geometric(p).cdf(np.array(GEOMETRIC_K, dtype=float))
    for k, fk in zip(GEOMETRIC_K, cdf.tolist()):
        with localcontext() as ctx:
            ctx.prec, ctx.Emin = 40, MIN_EMIN  # p**(k+1) reaches 1e-100000100
            ref = 1 - Decimal(p) ** (k + 1)
        assert abs(Decimal(fk) - ref) <= ref * Decimal(2.0**-52), k


def test_quantile_vectorized_and_monotone():
    u = np.linspace(0.001, 0.999, 500)
    for dist in ALL_FAMILIES:
        q = e.quantile(dist, u)
        assert q.shape == u.shape
        assert np.all(np.diff(q) >= 0.0)


def test_galois_inequalities_all_families():
    # F(Q(u)) >= u and F(Q(u) - delta) <= u, with float slack 1e-12
    rng = e.make_rng(31)
    u = rng.random(1000) * 0.998 + 0.001
    for dist in ALL_FAMILIES:
        q = e.quantile(dist, u)
        scale = np.maximum(1.0, np.abs(q))
        f_at = np.asarray(dist.cdf(q), dtype=float)
        f_below = np.asarray(dist.cdf(q - 1e-9 * scale), dtype=float)
        assert np.all(f_at >= u - 1e-12), dist.name
        assert np.all(f_below <= u + 1e-12), dist.name


def test_quantile_roundtrip_continuous():
    rng = e.make_rng(37)
    u = rng.random(500) * 0.998 + 0.001
    for dist in CONTINUOUS_FAMILIES:
        back = np.asarray(dist.cdf(e.quantile(dist, u)), dtype=float)
        assert np.max(np.abs(back - u)) <= 1e-10, dist.name


# ------------------------------------------- the closed forms against bisection

def _infimum(holds):
    """The least double x at which the monotone predicate ``holds`` is true,
    found by doubling a bracket and bisecting it down to adjacent doubles: an
    oracle that knows nothing of any law's closed form."""
    lo, hi = -1.0, 1.0
    while holds(lo):
        lo *= 2.0
    while not holds(hi):
        hi *= 2.0
    while True:
        mid = 0.5 * lo + 0.5 * hi  # halves first: no overflow near the largest doubles
        if not lo < mid < hi:
            return hi
        if holds(mid):
            hi = mid
        else:
            lo = mid


FAMILY_IDS = [dist.name for dist in ALL_FAMILIES]


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=FAMILY_IDS)
def test_quantile_is_the_bisection_inverse_of_the_cdf(dist):
    # Q(u) = inf{x : F(x) > u}
    rng = e.make_rng(41)
    for u in rng.random(50) * 0.98 + 0.01:
        want = _infimum(lambda x, u=float(u): float(dist.cdf(x)) > u)
        got = e.quantile(dist, float(u))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (dist.name, u)


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=FAMILY_IDS)
def test_tail_quantile_is_the_bisection_inverse_of_the_sf(dist):
    # Q(1 - eps) = inf{x : S(x) < eps}, down to tail masses 1 - u cannot hold
    for eps in np.geomspace(1e-12, 0.5, 30):
        want = _infimum(lambda x, eps=float(eps): float(dist.sf(x)) < eps)
        got = e.tail_quantile(dist, float(eps))
        assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), (dist.name, eps)


# geometric(0.5) has atoms at 0, 1, 2, ... with F(k) = 1 - 2**-(k + 1)
@pytest.mark.parametrize(
    "dist,u,atom",
    [
        (e.geometric(0.5), 0.25, 0.0),
        (e.geometric(0.5), 0.5, 1.0),
        (e.geometric(0.5), 0.7, 1.0),
        (e.geometric(0.5), 0.75, 2.0),
        (e.geometric(0.5), 0.99, 6.0),
        (e.degenerate(2.0), 0.5, 2.0),
        (e.degenerate(2.0), 0.99, 2.0),
    ],
    ids=lambda v: getattr(v, "name", None),
)
def test_quantile_lands_on_the_infimum_side_of_a_flat_region(dist, u, atom):
    q = e.quantile(dist, u)
    assert q == atom
    assert float(dist.cdf(q)) > u
    assert float(dist.cdf(np.nextafter(q, -np.inf))) <= u


@pytest.mark.parametrize("c", [1e300, -1e300, 1.5e-300, -1.5e-300])
def test_quantile_reaches_the_extreme_doubles(c):
    law = e.degenerate(c)
    assert e.quantile(law, 0.5) == c
    assert e.tail_quantile(law, 0.5) == c
    oracle = _infimum(lambda x: float(law.cdf(x)) > 0.5)
    assert oracle >= c and oracle - c <= 1e-12 * abs(c)


def test_cdf_right_continuity():
    for dist in CONTINUOUS_FAMILIES:
        xs = e.quantile(dist, np.linspace(0.05, 0.95, 50))
        up = np.asarray(dist.cdf(np.nextafter(xs, np.inf)), dtype=float)
        at = np.asarray(dist.cdf(xs), dtype=float)
        assert np.max(np.abs(up - at)) <= 1e-12
    # discrete: the step value holds on [k, k+1), so cdf(t) = cdf(floor(t))
    g = e.geometric(0.5)
    t = np.array([0.0, 0.3, 0.9999, 1.0, 2.5, 7.0001])
    assert np.array_equal(g.cdf(t), g.cdf(np.floor(t)))


def test_kind_tags():
    assert e.uniform().kind == CONTINUOUS
    assert e.geometric(0.5).kind == DISCRETE
    assert e.degenerate(2.0).kind == DISCRETE


def test_family_parameter_validation():
    with pytest.raises(DomainError):
        e.uniform(1.0, 1.0)
    with pytest.raises(DomainError):
        e.exponential(0.0)
    with pytest.raises(DomainError):
        e.pareto(-1.0)
    with pytest.raises(DomainError):
        e.normal(0.0, 0.0)
    with pytest.raises(DomainError):
        e.degenerate(math.inf)


def test_scipy_special_is_imported_on_a_normal_laws_first_use():
    # a fresh interpreter: this one has scipy loaded by the imports above
    script = """
import sys
import evtlab, evtlab.cli
from evtlab.errors import DomainError
law = evtlab.normal(1.0, 2.0)
try:
    evtlab.normal(0.0, 0.0)
except DomainError:
    pass
else:
    sys.exit("normal(0, 0) was accepted")
before = "scipy.special" in sys.modules
law.cdf(0.0)
print(before, "scipy.special" in sys.modules)
"""
    src = os.path.dirname(os.path.dirname(e.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert done.stdout.split() == ["False", "True"]


@pytest.mark.parametrize("mu,sigma", [(0.0, 1.0), (1.5, 0.25), (-3.0, 7.0)])
def test_normal_is_scipy_special_bit_for_bit(mu, sigma):
    from scipy.special import ndtr, ndtri

    law = e.normal(mu, sigma)
    x = mu + sigma * np.linspace(-40.0, 40.0, 161)
    u = np.concatenate([np.geomspace(1e-300, 0.25, 40), np.linspace(0.26, 1.0 - 2.0**-53, 40)])
    assert np.array_equal(law.cdf(x), ndtr((x - mu) / sigma))
    assert np.array_equal(law.sf(x), ndtr((mu - x) / sigma))
    assert np.array_equal(law.quantile(u), mu + sigma * ndtri(u))
    assert np.array_equal(law.tail(u), mu - sigma * ndtri(u))


# ---------------------------------------------------------------- sampling

def test_sample_quantile_transform_uniform_is_raw_stream():
    samples = e.sample_quantile_transform(e.uniform(), e.make_rng(43), 1000)
    raw = e.uniform_open(e.make_rng(43), 1000)
    assert np.array_equal(samples, raw)


def test_sample_quantile_transform_degenerate_is_constant():
    samples = e.sample_quantile_transform(e.degenerate(2.5), e.make_rng(47), 100)
    assert np.all(samples == 2.5)


def test_sample_quantile_transform_exponential_ks():
    samples = e.sample_quantile_transform(e.exponential(), e.make_rng(53), 100_000)
    assert e.ks_one_sample(samples, e.exponential().cdf, alpha=0.05).passed


def test_sample_quantile_transform_count_validation():
    with pytest.raises(DomainError):
        e.sample_quantile_transform(e.uniform(), e.make_rng(0), 0)


def _pareto_failure(rng):
    with pytest.raises(DomainError, match=r"^Q\(u\) = inf is not finite at u = ") as failure:
        e.sample_quantile_transform(e.pareto(alpha=0.002), rng, 10**5)
    return str(failure.value), rng.random(), int(rng.integers(0, 2**32, dtype=np.uint32))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_a_split_draw_raises_the_one_part_error(on_cpus, cpus):
    # Q(u) = (1 - u)**-500 overflows above u = 0.76: each part names its own
    # first such u, with no warning, and the error of the first part is the
    # one-part draw's; the stream ends where the one-part draw leaves it
    on_cpus(1)
    want = _pareto_failure(e.make_rng(3, 1))
    raised = on_cpus(cpus).raised
    assert _pareto_failure(e.make_rng(3, 1)) == want
    assert raised and set(raised) == {DomainError}


def test_each_part_runs_under_the_callers_error_state(on_cpus):
    # a worker thread inherits no numpy error state, neither numpy 2's
    # context variable nor numpy 1's per-thread state
    on_cpus(3)
    seen = []

    def quantile(u):
        seen.append(np.geterr())
        return u

    law = dataclasses.replace(e.uniform(), quantile=quantile)
    with np.errstate(divide="ignore", invalid="raise", under="warn"):
        want = dict(np.geterr(), over="ignore")  # the quantiles ignore an overflow
        e.sample_quantile_transform(law, e.make_rng(1), 10**5)
    assert seen == [want] * 3


# ---------------------------------------------------------------- spec strings

def test_parse_distribution_round_trip():
    for dist in ALL_FAMILIES:
        again = e.parse_distribution(e.spec_string(dist))
        assert again.name == dist.name
        assert again.params == dist.params


def test_repr_is_the_spec_string():
    assert repr(e.pareto(2.0)) == "Distribution('pareto:alpha=2')"
    spec = "normal:mu=1,sigma=3"
    assert repr(e.parse_distribution(spec)) == f"Distribution({spec!r})"


def test_parse_distribution_forms():
    assert e.parse_distribution("uniform:").name == "uniform"
    assert e.parse_distribution("uniform").params == {"a": 0.0, "b": 1.0}
    d = e.parse_distribution("pareto:alpha=2")
    assert d.params["alpha"] == 2.0
    d = e.parse_distribution("normal:mu=1,sigma=3")
    assert (d.params["mu"], d.params["sigma"]) == (1.0, 3.0)


def test_parse_distribution_errors():
    for bad in ("", "cauchy:", "uniform:c=1", "pareto:alpha=two", "pareto:alpha"):
        with pytest.raises(DomainError):
            e.parse_distribution(bad)


@pytest.mark.parametrize(
    "spec,key",
    [
        ("normal:mu=0,mu=5", "mu"),
        ("uniform:a=0,b=1,a=0.5", "a"),
        ("pareto:alpha=2, alpha=2", "alpha"),
    ],
)
def test_parse_distribution_refuses_a_repeated_key(spec, key):
    # the last value would otherwise win without a word
    with pytest.raises(DomainError, match=f"parameter '{key}' is given twice in '{spec}'"):
        e.parse_distribution(spec)


def test_uniform_refuses_a_width_that_overflows():
    # b - a = inf would make cdf and sf 0 at every inner x, without a word
    message = "uniform requires a finite width b - a, got a=-1e+308, b=1e+308"
    with pytest.raises(DomainError, match=re.escape(message)):
        e.uniform(-1e308, 1e308)
    with pytest.raises(DomainError, match=re.escape(message)):
        e.parse_distribution("uniform:a=-1e308,b=1e308")
    widest = e.uniform(-8.9e307, 8.9e307)  # the width is below the largest double
    assert widest.cdf(0.0) == widest.sf(0.0) == 0.5
    assert e.max_cdf(e.MaxLaw(widest, 2), 0.0) == 0.25
