"""Distribution families, the strict generalized inverse, numeric inversion."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.dist import CONTINUOUS, DISCRETE
from evtlab.errors import BracketingError, ContractViolationError, DomainError

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
    # cdf is written as 1 - S it is that bit for bit
    dist = ALL_FAMILIES[family]
    f, s = float(dist.cdf(np.array([x]))[0]), float(dist.sf(np.array([x]))[0])
    assert abs(Fraction(f) + Fraction(s) - 1) <= Fraction(2) ** -52
    if dist.name in ("pareto", "degenerate", "geometric"):
        assert f == 1.0 - s


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


# ---------------------------------------------------------------- numeric inversion

def test_numeric_quantile_trivial_examples():
    assert e.numeric_quantile(e.uniform().cdf, 0.7) == pytest.approx(0.7, abs=1e-10)
    assert e.numeric_quantile(e.normal().cdf, 0.5) == pytest.approx(0.0, abs=1e-10)


def test_numeric_quantile_against_independent_bisection_oracle():
    # plain bisection on the cdf, driven to 1e-15 on the x axis
    cdf = e.normal().cdf
    lo, hi = -10.0, 10.0
    while hi - lo > 1e-15:
        mid = 0.5 * (lo + hi)
        if float(cdf(mid)) > 0.975:
            hi = mid
        else:
            lo = mid
    assert e.numeric_quantile(cdf, 0.975) == pytest.approx(hi, abs=1e-9)


def test_numeric_quantile_agrees_with_analytic_quantiles():
    rng = e.make_rng(41)
    u_vals = rng.random(50) * 0.98 + 0.01
    for dist in ALL_FAMILIES:
        for u in u_vals:
            got = e.numeric_quantile(dist.cdf, float(u))
            want = e.quantile(dist, float(u))
            assert abs(got - want) <= 1e-9, (dist.name, u)


def test_numeric_quantile_lands_on_infimum_side_of_flat_regions():
    # step cdf: the strict inverse of any u in [0.5, 1) is the atom at 2
    step = lambda x: 0.5 if x < 2.0 else 1.0
    for u in (0.5, 0.7, 0.99):
        got = e.numeric_quantile(step, u)
        assert abs(got - 2.0) <= 1e-9
        assert step(got) > u


def test_numeric_quantile_detects_non_monotone_cdf():
    def dip(x):
        x = float(x)
        v = 0.9 - x if 0.2 <= x < 0.55 else x
        return min(1.0, max(0.0, v))

    with pytest.raises(ContractViolationError):
        e.numeric_quantile(dip, 0.5)


def test_numeric_quantile_bracketing_error():
    # the bracket doubles past every finite double, then gives up
    capped = lambda x: min(0.4, max(0.0, float(x)))
    with pytest.raises(BracketingError, match="never exceeded u=0.7 after 1100 expansions"):
        e.numeric_quantile(capped, 0.7)
    floored = lambda x: max(0.6, min(1.0, float(x)))
    with pytest.raises(BracketingError, match="never fell to u=0.3 after 1100 expansions"):
        e.numeric_quantile(floored, 0.3)


def test_numeric_quantile_reaches_the_extreme_doubles():
    # the fixed bracket [-1, 1] reaches jumps near either end of the doubles
    for jump in (1e300, -1e300, 1.5e-300):
        q = e.numeric_quantile(lambda x, j=jump: 1.0 if x >= j else 0.0, 0.5)
        assert q >= jump and q - jump <= 1e-12 * max(1.0, abs(jump))


def test_numeric_quantile_rejects_cdf_range_violations():
    # F(-1) = -1 at the bracket's first end
    with pytest.raises(ContractViolationError):
        e.numeric_quantile(lambda x: float(x), 0.5)


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


# ---------------------------------------------------------------- spec strings

def test_parse_distribution_round_trip():
    for dist in ALL_FAMILIES:
        again = e.parse_distribution(e.spec_string(dist))
        assert again.name == dist.name
        assert again.params == dist.params


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
