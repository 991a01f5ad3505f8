"""Max laws, both samplers, and the three h_n evaluation forms."""

import math

import numpy as np
import pytest

import evtlab as e
from evtlab import maxima
from evtlab.errors import ContractViolationError, DomainError
from evtlab.maxima import HnVariant


# ---------------------------------------------------------------- max_cdf

def test_max_cdf_examples():
    # exp(n log1p(-S)) against the closed forms F(x)**n, to 2**-52
    assert abs(e.max_cdf(e.MaxLaw(e.uniform(), 3), 0.5) - 0.125) <= 2.0**-52
    assert abs(e.max_cdf(e.MaxLaw(e.geometric(0.5), 2), 0.0) - 0.25) <= 2.0**-52
    for dist in (e.uniform(), e.exponential(), e.geometric(0.5)):
        law = e.MaxLaw(dist, 1)
        x = np.linspace(-1.0, 5.0, 50)
        assert np.max(np.abs(e.max_cdf(law, x) - dist.cdf(x))) <= 2.0**-52


@pytest.mark.parametrize(
    "n", [10**9, 10**12, 10**15, 10**17, 2**900], ids=["1e9", "1e12", "1e15", "1e17", "2**900"]
)
def test_max_cdf_keeps_the_tail_mass_at_huge_n(n):
    # pareto(1) at x = n: S = 1/n, and (1 - 1/n)**n = e**-1 (1 - 1/(2n) + O(n**-2));
    # a power of F = 1 - 1/n would lose what 1 - 1/n rounds away (1.0 at 1e17)
    got = e.max_cdf(e.MaxLaw(e.pareto(1.0), n), float(n))
    assert got == pytest.approx(math.exp(n * math.log1p(-1.0 / n)), rel=1e-15)
    assert abs(got - math.exp(-1.0) * (1.0 - 0.5 / n)) <= 1e-15


def test_max_cdf_normal_at_b_n():
    # S(b_n) = 1/n up to the ndtr/ndtri round trip, about 7e-15 relative
    n = 10**12
    got = e.max_cdf(e.MaxLaw(e.normal(), n), e.tail_quantile(e.normal(), 1.0 / n))
    assert got == pytest.approx(math.exp(-1.0) * (1.0 - 0.5 / n), rel=1e-13)


def test_max_cdf_power_identity_uniform():
    x = np.linspace(0.0, 1.0, 100)
    for n in range(1, 11):
        got = e.max_cdf(e.MaxLaw(e.uniform(), n), x)
        assert np.max(np.abs(got - x**n)) <= 1e-15


def test_max_cdf_monotonicity():
    x = np.linspace(0.5, 3.0, 40)
    law = e.MaxLaw(e.exponential(), 5)
    assert np.all(np.diff(e.max_cdf(law, x)) >= 0.0)
    # decreasing in n wherever F(x) < 1
    f1 = e.max_cdf(e.MaxLaw(e.exponential(), 2), x)
    f2 = e.max_cdf(e.MaxLaw(e.exponential(), 8), x)
    assert np.all(f2 < f1)


def test_max_cdf_rejects_nan_and_bad_n():
    with pytest.raises(DomainError):
        e.max_cdf(e.MaxLaw(e.uniform(), 3), math.nan)
    with pytest.raises(DomainError):
        e.MaxLaw(e.uniform(), 0)


# ---------------------------------------------------------------- samplers

class _FixedUniform:
    """Stub stream returning a prescribed uniform sequence."""

    def __init__(self, values):
        self.values = list(values)

    def random(self, size=None):
        if size is None:
            return self.values.pop(0)
        if np.ndim(size) == 0:
            return np.array([self.values.pop(0) for _ in range(int(size))])
        out = np.array([self.values.pop(0) for _ in range(int(np.prod(size)))])
        return out.reshape(size)


def test_exponential_rep_formula_uniform_base():
    # u = 1 - e^{-1} gives omega = 1, so M_10 = e^{-1/10}
    rng = _FixedUniform([1.0 - math.exp(-1.0)])
    got = e.sample_max_exponential_rep(e.MaxLaw(e.uniform(), 10), rng)
    assert got == pytest.approx(math.exp(-0.1), abs=1e-15)


def test_exponential_rep_formula_exponential_base():
    omega = 0.8
    rng = _FixedUniform([1.0 - math.exp(-omega)])
    n = 7
    got = e.sample_max_exponential_rep(e.MaxLaw(e.exponential(), n), rng)
    assert got == pytest.approx(-math.log(1.0 - math.exp(-omega / n)), abs=1e-12)


def test_direct_sampler_dominates_every_draw():
    # reconstruct the raw draws from the same stream
    law = e.MaxLaw(e.uniform(), 6)
    got = e.sample_max_direct(law, e.make_rng(61), 200)
    u = e.uniform_open(e.make_rng(61), (200, 6))
    assert np.array_equal(got, u.max(axis=1))
    assert np.all(got[:, None] >= u)


@pytest.mark.parametrize("count,n", [(1, 3), (5, 3), (4, 7), (3, 8), (3, 20), (1, 23)])
def test_direct_sampler_blocks_match_the_one_shot_draw(count, n, monkeypatch):
    # a block of 7 uniforms: several rows per block, one row per block, and
    # rows longer than a block all keep the stream order of the full draw
    monkeypatch.setattr(maxima, "_DIRECT_BLOCK", 7)
    law = e.MaxLaw(e.pareto(2.0), n)
    got = e.sample_max_direct(law, e.make_rng(5), count)
    u = e.uniform_open(e.make_rng(5), (count, n)).max(axis=1)
    assert np.array_equal(got, law.base.quantile(u))


def test_direct_sampler_scalar_mode():
    a = e.sample_max_direct(e.MaxLaw(e.uniform(), 4), e.make_rng(67))
    b = e.sample_max_direct(e.MaxLaw(e.uniform(), 4), e.make_rng(67), 1)
    assert isinstance(a, float)
    assert a == b[0]


def test_direct_sampler_matches_power_law():
    samples = e.sample_max_direct(e.MaxLaw(e.uniform(), 10), e.make_rng(71), 100_000)
    assert e.ks_one_sample(samples, lambda x: np.asarray(x) ** 10, alpha=0.05).passed


def test_samplers_agree_in_distribution():
    for base in (e.exponential(), e.geometric(0.5)):
        law = e.MaxLaw(base, 10)
        a = e.sample_max_direct(law, e.make_rng(3, stream=1), 10_000)
        b = e.sample_max_exponential_rep(law, e.make_rng(3, stream=2), 10_000)
        assert e.ks_two_sample(a, b, alpha=0.01).passed, base.name


def test_sampler_count_validation():
    with pytest.raises(DomainError):
        e.sample_max_direct(e.MaxLaw(e.uniform(), 2), e.make_rng(0), 0)
    with pytest.raises(DomainError):
        e.sample_max_exponential_rep(e.MaxLaw(e.uniform(), 2), e.make_rng(0), -1)


@pytest.mark.parametrize("n", [2**53 + 1, 10**15, 10**21])
def test_exponential_rep_follows_the_exact_frechet_law_at_huge_n(n):
    # pareto(1): P{M_n <= x} = (1 - 1/x)**n; the tail mass -expm1(-omega/n)
    # keeps omega/n whole where exp(-omega/n) would round to 1
    count = 20_000
    m = e.sample_max_exponential_rep(e.MaxLaw(e.pareto(1.0), n), e.make_rng(0), count)
    assert np.unique(m).size == count
    exact = lambda x: np.exp(n * np.log1p(-1.0 / np.asarray(x)))
    assert e.ks_one_sample(m, exact, alpha=0.01).passed


def test_exponential_rep_tail_mass_is_omega_over_n():
    # u = 1 - e^{-1} gives omega = 1: M_n = Q(1 - eps) at eps = -expm1(-1/n)
    for n in (10**15, 10**21, 2**960):
        rng = _FixedUniform([1.0 - math.exp(-1.0)])
        got = e.sample_max_exponential_rep(e.MaxLaw(e.pareto(1.0), n), rng)
        assert got == pytest.approx(float(n), rel=1e-15)


def test_max_law_refuses_n_beyond_2_960():
    e.MaxLaw(e.uniform(), 2**960)
    with pytest.raises(DomainError, match=r"n = \d+ is too large.*2\*\*960"):
        e.MaxLaw(e.uniform(), 2**960 + 1)


# ---------------------------------------------------------------- h_n forms

def test_linear_form_identity_uniform():
    for n in (3, 10, 1000):
        for x in (0.25, 1.0, 2.5):
            got = e.h_n_eval(lambda t: t, e.uniform(), n, x, HnVariant.LINEAR_FORM)
            assert got == 1.0 - x / n


def test_exp_form_series_bound():
    # g_n(t) = n(1-t): n(1 - e^{-x/n}) approaches x, error at most x^2/(2n)
    for n in (100, 10_000, 1_000_000):
        for x in (0.5, 2.0, 5.0):
            g = lambda t: n * (1.0 - t)
            got = e.h_n_eval(g, e.uniform(), n, x, HnVariant.EXP_FORM)
            # 1 - exp(-x/n) cancels at ulp(1)/2 and g multiplies that by n
            assert abs(got - x) <= x * x / (2.0 * n) + 2e-16 * n


def test_linear_form_cancellation():
    # g_n(t) = n(1-t) recovers x; exact for dyadic x with power-of-two n
    for j in (7, 10, 16):
        n = 2**j
        for x in (0.0625, 0.5, 1.0, 8.0):
            g = lambda t: n * (1.0 - t)
            assert e.h_n_eval(g, e.uniform(), n, x, HnVariant.LINEAR_FORM) == x
    for n in (3, 49, 997):
        for x in (0.3, 1.0, 2.7):
            g = lambda t: n * (1.0 - t)
            got = e.h_n_eval(g, e.uniform(), n, x, HnVariant.LINEAR_FORM)
            assert got == pytest.approx(x, rel=1e-12)


def test_exp_form_dominates_linear_form_and_gap_shrinks():
    # for nondecreasing g: exp(-x/n) >= 1 - x/n pointwise
    g = lambda t: np.asarray(e.exponential().quantile(np.asarray(t)), dtype=float)
    for x in (0.5, 2.0, 6.0):
        gaps = []
        for n in (1_000, 1_000_000):
            hi = e.h_n_eval(g, e.uniform(), n, x, HnVariant.EXP_FORM)
            lo = e.h_n_eval(g, e.uniform(), n, x, HnVariant.LINEAR_FORM)
            assert hi >= lo
            gaps.append(hi - lo)
        assert gaps[1] < gaps[0]


def test_epsilon_form_matches_linear_form_at_exact_rational():
    for n in (5, 64, 1000):
        for x in (0.5, 2.0):
            a = e.h_n_eval(lambda t: t, e.uniform(), n, x, HnVariant.EPSILON_FORM)
            b = e.h_n_eval(lambda t: t, e.uniform(), n, x, HnVariant.LINEAR_FORM)
            assert a == b


def test_epsilon_form_index_validation():
    # eps = 1/8 indexes g_8; any other n is a contract break
    e.h_n_eval(lambda t: t, e.uniform(), 8, 0.5, HnVariant.EPSILON_FORM, eps=0.125)
    with pytest.raises(DomainError, match="epsilon_form"):
        e.h_n_eval(lambda t: t, e.uniform(), 9, 0.5, HnVariant.EPSILON_FORM, eps=0.125)


def test_h_n_domain_errors_name_the_variant():
    with pytest.raises(DomainError, match="linear_form"):
        e.h_n_eval(lambda t: t, e.uniform(), 5, 5.0, HnVariant.LINEAR_FORM)
    with pytest.raises(DomainError, match="epsilon_form"):
        e.h_n_eval(lambda t: t, e.uniform(), 5, 6.0, HnVariant.EPSILON_FORM)
    with pytest.raises(DomainError):
        e.h_n_eval(lambda t: t, e.uniform(), 5, -1.0, HnVariant.EXP_FORM)
    with pytest.raises(DomainError):
        e.h_n_eval(lambda t: t, e.uniform(), 5, 0.0, HnVariant.LINEAR_FORM)


# ---------------------------------------------------------------- floor_reciprocal

def test_floor_reciprocal_round_trip():
    # eps entered as the rounded 1/n must index g_n itself
    for n in range(1, 1001):
        assert e.floor_reciprocal(1.0 / n) == n


def test_floor_reciprocal_sandwich_cases():
    assert e.floor_reciprocal(1.0) == 1
    assert e.floor_reciprocal(0.3) == 3
    assert e.floor_reciprocal(0.2) == 5
    assert e.floor_reciprocal(1e-6) == 1_000_000
    # strictly between two reciprocals: plain floor
    assert e.floor_reciprocal(0.15) == 6


def test_floor_reciprocal_validation():
    for bad in (0.0, -0.5, 1.5, math.nan):
        with pytest.raises(DomainError):
            e.floor_reciprocal(bad)


# ---------------------------------------------------------------- monotone spot check

def test_spot_check_monotone_accepts_and_rejects():
    e.spot_check_monotone(lambda x: np.asarray(x) ** 3, -2.0, 2.0)
    e.spot_check_monotone(lambda x: -np.asarray(x), 0.0, 1.0, direction="nonincreasing")
    with pytest.raises(ContractViolationError):
        e.spot_check_monotone(np.sin, 0.0, 10.0)
    with pytest.raises(DomainError):
        e.spot_check_monotone(lambda x: x, 0.0, 1.0, direction="sideways")
    with pytest.raises(DomainError):
        e.spot_check_monotone(lambda x: x, 1.0, 1.0)
