"""Geometric law: exact step algebra, fractional-part search, oscillation."""

import importlib
import math
import time
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.cli import _table
from evtlab.errors import DomainError, SearchHorizonError
from evtlab.geometric import GeometricParams, sufficient_horizon

# the module itself: the package's name ``geometric`` is the distribution
geometric = importlib.import_module("evtlab.geometric")


# ---------------------------------------------------------------- params

def test_params_derive_theta():
    gp = GeometricParams(0.5)
    assert gp.theta == pytest.approx(1.0 / math.log(2.0), rel=1e-15)
    for p in (0.5, 0.3, 1e-300, 1.0 - 2.0**-53):
        assert GeometricParams(p).theta == -1.0 / math.log(p)


def test_params_validation():
    for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
        with pytest.raises(DomainError):
            GeometricParams(bad)
    with pytest.raises(TypeError):  # theta is derived from p, never given
        GeometricParams(0.5, theta=2.0)


# ---------------------------------------------------------------- cdf / quantile

def test_geom_cdf_examples():
    gp = GeometricParams(0.5)
    assert e.geom_cdf(gp, 0.0) == 0.5
    assert e.geom_cdf(gp, -0.5) == 0.0
    assert e.geom_cdf(gp, 2.9) == 0.875
    t = np.array([-1.0, 0.0, 0.5, 1.0, 2.9])
    assert e.geom_cdf(gp, t).tolist() == [0.0, 0.5, 0.5, 0.75, 0.875]
    with pytest.raises(DomainError):
        e.geom_cdf(gp, math.nan)


@pytest.mark.parametrize("p", [0.5, 0.2])
def test_geom_cdf_just_below_an_integer(p):
    # floor(t) + 1, not floor(t + 1): t + 1 rounds up to k + 1 at t just below k
    law = e.geometric(p)
    for k in range(1, 61):
        assert law.cdf(float(np.nextafter(k, 0.0))) == 1.0 - p**k


def test_geom_tail_quantile_examples():
    # the argument is the tail mass u: value = floor(log u / log p)
    law = e.geometric(0.5)
    assert e.tail_quantile(law, [1.0 / 8.0, 1.0 / 7.0, 0.9]).tolist() == [3.0, 2.0, 0.0]
    for bad in (0.0, 1.0):
        with pytest.raises(DomainError):
            e.tail_quantile(law, bad)


def test_geom_tail_quantile_brute_force_oracle():
    # smallest t with p^{floor(t+1)} < u, scanned on the integer support
    rng = e.make_rng(107)
    for _ in range(300):
        p = 0.05 + 0.9 * rng.random()
        u = rng.random() * 0.998 + 0.001
        k = 0
        while p ** (k + 1) >= u:
            k += 1
        assert e.tail_quantile(e.geometric(p), u) == float(k), (p, u)


def test_geom_tail_quantile_exact_dyadic_hits():
    # u = p^k exactly: the strict convention must land on k, not k-1
    got = e.tail_quantile(e.geometric(0.5), 2.0 ** -np.arange(1, 51))
    assert got.tolist() == list(range(1, 51))


def test_geom_galois_inequalities_random_pairs():
    rng = e.make_rng(109)
    for _ in range(10_000):
        p = 0.05 + 0.9 * rng.random()
        gp = GeometricParams(p)
        level = rng.random() * 0.998 + 0.001  # cdf level, tail mass 1-level
        q = e.tail_quantile(e.geometric(p), 1.0 - level)
        assert e.geom_cdf(gp, q) >= level - 1e-12
        assert e.geom_cdf(gp, q - 1e-9) <= level + 1e-12


def test_oscillation_levels_at_exact_powers():
    # theta log n = k exactly at n = 2**k (p = 1/2), and just below k at 2**k - 1
    gp = GeometricParams(0.5)
    ks = np.arange(1, 51)
    assert e.oscillation_scan(gp, 0, 2**ks).levels.tolist() == ks.tolist()
    assert e.oscillation_scan(gp, 0, 2 ** ks[1:] - 1).levels.tolist() == (ks[1:] - 1).tolist()


@pytest.mark.parametrize("p", [0.5, 0.2, 0.1, 1 - 2**-30])
def test_floor_log_ratio_matches_a_fraction_reference(p):
    # tail masses u and indices n = 1/u at and next to p**k, k up to 200,
    # where log u / log p lands within the band of k; the integer comparison
    # gives the floors that rational arithmetic gives
    ks = range(201)
    us = [u for k in ks for u in np.nextafter(p**k, [0.0, p**k, 1.0]) if 0.0 < u < 1.0]
    ns = [round(p**-k) + d for k in ks if p**-k < 2**62 for d in (-1, 0, 1)]
    ns = [n for n in ns if n >= 1]
    cases = [(math.log(u), Fraction(u), u.as_integer_ratio()) for u in us]
    cases += [(-math.log(n), Fraction(1, n), (1, n)) for n in ns]
    ratio = np.array([log_u for log_u, _, _ in cases]) / math.log(p)
    banded = np.abs(ratio - np.rint(ratio)) < geometric.NEAR_INTEGER_BAND
    assert banded.sum() >= 100
    expected = np.floor(ratio)
    for i in np.flatnonzero(banded):
        k = int(np.rint(ratio[i]))
        expected[i] = k if cases[i][1] <= Fraction(p) ** k else k - 1
    got = geometric._floor_log_ratio(p, ratio, lambda i: cases[i][2])
    assert got.tolist() == expected.tolist()


# ---------------------------------------------------------------- frac search

def test_frac_log_search_examples():
    n, frac, _ = e.frac_log_search(1.0, 0.0, 1.0, 10)
    assert (n, frac) == (1, 0.0)
    n, frac, _ = e.frac_log_search(1.0 / math.log(2.0), 0.4, 0.6, 100)
    assert n == 3
    assert frac == pytest.approx(math.log2(3.0) - 1.0, abs=1e-12)
    n, frac, _ = e.frac_log_search(1.0, 0.6, 0.7, 100)
    assert n == 2
    assert frac == pytest.approx(math.log(2.0), abs=1e-12)


def test_frac_log_search_finds_smallest_witness():
    theta, x, y = 2.3, 0.25, 0.35
    n, frac, horizon = e.frac_log_search(theta, x, y, 100_000)
    assert x <= frac <= y
    assert n <= horizon
    t = theta * np.log(np.arange(1, n))
    earlier = t - np.floor(t)
    assert not np.any((earlier >= x) & (earlier <= y))


def test_frac_log_search_horizon_bound_random():
    rng = e.make_rng(113)
    for _ in range(100):
        theta = 0.2 + 4.8 * rng.random()
        x = rng.random() * 0.9
        y = x + 0.05 + (0.95 - x - 0.05) * rng.random()
        horizon = sufficient_horizon(theta, x, y)
        n, frac, _ = e.frac_log_search(theta, x, y, horizon)
        assert x <= frac <= y
        t = theta * math.log(n)
        assert x <= t - math.floor(t) <= y


def test_frac_log_search_exhaustion_and_warning():
    # [0.32, 0.33] misses every frac(5 log n) for n <= 10
    with pytest.warns(UserWarning, match="horizon"):
        with pytest.raises(SearchHorizonError) as exc_info:
            e.frac_log_search(5.0, 0.32, 0.33, 10)
    bound = exc_info.value.sufficient_horizon
    assert bound == sufficient_horizon(5.0, 0.32, 0.33)
    assert bound > 10
    n, frac, _ = e.frac_log_search(5.0, 0.32, 0.33, bound)
    assert 0.32 <= frac <= 0.33


def test_frac_log_search_validation():
    with pytest.raises(DomainError):
        e.frac_log_search(-1.0, 0.1, 0.2, 10)
    with pytest.raises(DomainError):
        e.frac_log_search(math.nan, 0.1, 0.2, 10)
    with pytest.raises(DomainError):
        e.frac_log_search(1.0, 0.5, 0.4, 10)
    with pytest.raises(DomainError):
        e.frac_log_search(1.0, 0.1, 0.2, 0)


def _scan(theta, x, y, n_max):
    """The oracle: a linear scan of 1..n_max with the search's own predicate.

    Returns ``(n, frac)`` of the first n with frac(theta*log n) in [x, y], or
    None.  It is the search the block walk replaced, so the two must agree
    bit for bit wherever the scan finishes.
    """
    chunk = 1 << 16
    for lo in range(1, n_max + 1, chunk):
        ns = np.arange(lo, min(lo + chunk, n_max + 1), dtype=np.int64)
        t = theta * np.log(ns)
        frac = t - np.floor(t)
        hits = np.flatnonzero((frac >= x) & (frac <= y))
        if hits.size:
            return int(ns[hits[0]]), float(frac[hits[0]])
    return None


@st.composite
def windows(draw):
    """theta from 0.05 to 9e4, so that integer steps (n below about theta)
    and block steps both run, alone and mixed; windows from about 1e-8 wide
    to [0, 1]; n_max up to 2e5, often beyond the first 2**16 integers."""
    theta = draw(st.sampled_from((0.05, 0.3, 2.0, 15.0, 100.0, 700.0, 5e3, 3e4)))
    theta *= draw(st.floats(1.0, 3.0))
    x = draw(st.one_of(st.just(0.0), st.floats(0.0, 0.999)))
    width = draw(st.floats(1.0, 10.0)) * 10.0 ** -draw(st.integers(0, 8))
    y = draw(st.one_of(st.just(min(1.0, x + width)), st.just(1.0)))
    n_max = draw(st.one_of(st.integers(1, 200_000), st.integers(65_537, 200_000)))
    return theta, x, y, n_max


@settings(max_examples=300, deadline=None, derandomize=True)
@given(windows())
@example((1.0, 0.0, 1e-6, 200_000))  # x = 0: n = 1, where theta log n = 0
@example((3e4, 0.0, 1e-6, 200_000))
@example((0.05, 0.9, 1.0, 200_000))  # y = 1, and no hit below n = 2e5
@example((2000.0, 0.3, 0.300001, 200_000))  # integer steps, then blocks
def test_frac_log_search_matches_the_linear_scan(window):
    theta, x, y, n_max = window
    horizon = sufficient_horizon(theta, x, y)
    expected = _scan(theta, x, y, n_max)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            found = e.frac_log_search(theta, x, y, n_max)
        except SearchHorizonError as exc:
            assert exc.sufficient_horizon == horizon
            found = None
    assert found == (None if expected is None else (*expected, horizon))
    # one below-horizon warning exactly when n_max < horizon, and nothing else
    assert [w.category for w in caught] == [UserWarning] * (n_max < horizon)


@pytest.mark.parametrize("theta", [500.0, 2000.0, 5000.0])
def test_frac_log_search_mixes_integer_and_block_steps(theta, monkeypatch):
    # blocks are shorter than an integer below n = theta: the first steps
    # take 2**16 integers each, and blocks take over further out
    first_blocks = []
    real = geometric._first_reaching

    def recorded(theta, x, qs, cap):
        first_blocks.append(int(qs[0]))
        return real(theta, x, qs, cap)

    monkeypatch.setattr(geometric, "_first_reaching", recorded)
    rng = np.random.default_rng(int(theta))
    for _ in range(20):
        x = 0.99 * rng.random()
        y = x + 10.0 ** rng.uniform(-7.0, -5.0)
        expected = _scan(theta, x, y, 200_000)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            try:
                found = e.frac_log_search(theta, x, y, 200_000)[:2]
            except SearchHorizonError:
                found = None
        assert found == expected, (x, y)
    assert first_blocks and min(first_blocks) > 0


def test_frac_log_search_narrow_window_at_the_ceiling():
    x = 0.123456789012
    y = x + 1e-12
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        n, frac, horizon = e.frac_log_search(1.0, x, y, 2**62)
    assert time.perf_counter() - start < 1.0
    assert n <= horizon
    # n is a hit, and none of the 2**16 integers below it is
    t = np.log(np.arange(n - (1 << 16), n + 1, dtype=np.int64))
    fracs = t - np.floor(t)
    assert np.flatnonzero((fracs >= x) & (fracs <= y)).tolist() == [1 << 16]
    assert fracs[-1] == frac


def test_frac_log_search_ends_at_once_when_no_block_can_hit():
    # theta log n < 0.44 for every n <= 2**62: block 0 holds every n and
    # none reaches frac 0.5; a scan of the 10**12 integers would take hours
    start = time.perf_counter()
    with pytest.warns(UserWarning, match="horizon"):
        with pytest.raises(SearchHorizonError, match="no n <= 1000000000000 "):
            e.frac_log_search(0.01, 0.5, 0.6, 10**12)
    assert time.perf_counter() - start < 1.0


def test_frac_log_search_names_its_ceiling():
    # n_max is above the sufficient horizon (about 1.1e26), so no warning,
    # but the search stops at 2**62
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SearchHorizonError, match=r"no n <= 2\*\*62 .*n_max=10{30}"):
            e.frac_log_search(0.01, 0.5, 0.6, 10**30)


@pytest.mark.parametrize(
    "theta, x, y",
    [
        (math.inf, 0.1, 0.2),  # (y - x)/theta = 0: no growth to invert
        (1e-300, 0.1, 0.2),  # expm1((y - x)/theta) overflows
        (1e-3, 0.5, 0.9),  # expm1 is finite, exp((q + y)/theta) overflows
        (1e307, 0.1, 0.2),  # theta*log(1/growth) overflows
    ],
)
def test_theta_out_of_range_is_a_domain_error(theta, x, y):
    with pytest.raises(DomainError, match="theta"):
        sufficient_horizon(theta, x, y)
    with pytest.raises(DomainError, match="theta"):
        e.frac_log_search(theta, x, y, 10)


# ---------------------------------------------------------------- oscillation

def test_oscillation_scan_stays_in_the_analytic_band():
    gp = GeometricParams(0.5)
    n_values = np.unique(np.round(np.geomspace(1e3, 1e6, 256)).astype(np.int64))
    report = e.oscillation_scan(gp, 0, n_values)
    # limits exp(-p^{1-c}) for c in [0,1): band [e^{-1}, e^{-1/2}]
    assert np.all(report.probs >= math.exp(-1.0) - 0.01)
    assert np.all(report.probs <= math.exp(-0.5) + 0.01)
    assert report.lim_sup_est - report.lim_inf_est >= 0.2
    assert report.lim_inf_est <= report.lim_sup_est
    assert np.all((report.probs >= 0.0) & (report.probs <= 1.0))


def test_oscillation_scan_high_offset_pins_probability_near_one():
    gp = GeometricParams(0.5)
    n_values = np.unique(np.round(np.geomspace(1e3, 1e6, 64)).astype(np.int64))
    report = e.oscillation_scan(gp, 10, n_values)
    assert np.all(report.probs >= 0.999)


def test_oscillation_probe_matches_max_cdf():
    # cross-module consistency of the probe against F(x)^n
    for p, hi, cnt in ((0.5, 1e6, 64), (0.3, 1e4, 32)):
        gp = GeometricParams(p)
        dist = e.geometric(p)
        nv = np.unique(np.round(np.geomspace(1e3, hi, cnt)).astype(np.int64))
        report = e.oscillation_scan(gp, 0, nv)
        for n, m, prob in zip(report.n_values, report.levels, report.probs):
            alt = e.max_cdf(e.MaxLaw(dist, int(n)), float(m))
            assert abs(prob - alt) <= 1e-12, (p, n)


def test_oscillation_scan_negative_levels_give_zero():
    gp = GeometricParams(0.5)
    report = e.oscillation_scan(gp, -5, np.array([2, 4, 8]))
    assert np.all(report.probs == 0.0)


def test_oscillation_scan_validation():
    gp = GeometricParams(0.5)
    with pytest.raises(DomainError):
        e.oscillation_scan(gp, 0, [])
    with pytest.raises(DomainError):
        e.oscillation_scan(gp, 0, [10, 10, 20])
    with pytest.raises(DomainError):
        e.oscillation_scan(gp, 0, [0, 5])


@pytest.mark.parametrize(
    "n_values",
    [[1.5, 2.7, 3.9], [10, 20.5], [np.nan], [2**63], [10, 2**63], [2**64], [10**400]],
)
def test_oscillation_scan_refuses_a_non_integer_or_int64_overflowing_n(n_values):
    # a plain int64 cast would probe n = 1, 2, 3 or raise a bare OverflowError
    with pytest.raises(DomainError, match="n_values must be integers"):
        e.oscillation_scan(GeometricParams(0.5), 0, n_values)


def test_oscillation_scan_accepts_the_int64_top():
    # an integral float grid is refused (tests/test_grid_rule.py)
    gp = GeometricParams(0.5)
    top = e.oscillation_scan(gp, 0, [2**63 - 1])
    assert top.levels.tolist() == [62]


@pytest.mark.parametrize("q", [2**63 - 8, 10**20, -(2**63) - 10])
def test_oscillation_scan_refuses_a_q_that_takes_a_level_out_of_int64(q):
    # the levels at n = 1000 and 10**6 are 9 + q and 19 + q; int64 addition
    # would wrap 2**63 - 8 to negative levels with probability 0
    with pytest.raises(DomainError, match=f"q = {q} takes the levels"):
        e.oscillation_scan(GeometricParams(0.5), q, [1000, 10**6])


def test_oscillation_scan_accepts_a_q_at_the_int64_edges():
    gp = GeometricParams(0.5)
    top = e.oscillation_scan(gp, 2**63 - 1 - 19, [1000, 10**6])
    assert top.levels.tolist() == [2**63 - 11, 2**63 - 1]
    assert top.probs.tolist() == [1.0, 1.0]
    bottom = e.oscillation_scan(gp, -(2**63) - 9, [1000, 10**6])
    assert bottom.levels.tolist() == [-(2**63), -(2**63) + 10]
    assert bottom.probs.tolist() == [0.0, 0.0]
    assert [v for _, v in bottom.cluster_points] == [0.0, 0.0, 0.0]
    assert [v for _, v in top.cluster_points] == [1.0, 1.0, 1.0]


def _cluster_reference(p, q, c):
    """exp(-p**(q + 1 - c)), which is 0 where the power overflows."""
    try:
        return math.exp(-(p ** (q + 1 - c)))
    except OverflowError:
        return 0.0


@pytest.mark.parametrize("p", [0.5, 0.2, 0.9])
def test_cluster_points_are_the_analytic_limits(p):
    # q = -12 at p = 1/2 is past the cut where the limit is 0.0 without the
    # power, -11 to -9 are before it, and p**(q + 1 - c) overflows at -2000
    gp, cs = GeometricParams(p), (0.0, 0.25, 0.5, 0.9)
    for q in (-2000, -12, -11, -10, -9, -1, 0, 1, 5, 60):
        points = e.oscillation_scan(gp, q, [1000, 10**6], cs).cluster_points
        assert points == tuple((c, _cluster_reference(p, q, c)) for c in cs), q
    assert dict(e.oscillation_scan(gp, 0, [1000], (0.0, 0.5)).cluster_points) == {
        0.0: math.exp(-p), 0.5: math.exp(-(p**0.5))
    }
    with pytest.raises(DomainError):
        e.oscillation_scan(gp, 0, [1000], (1.0,))


# ---------------------------------------------------------------- subsequences

def test_subsequence_dyadic_is_exact_powers_of_two():
    gp = GeometricParams(0.5)
    ns = e.subsequence_generator(gp, 0.0, range(1, 21))
    assert np.array_equal(ns, 2 ** np.arange(1, 21))
    t = gp.theta * np.log(ns.astype(float))
    assert np.max(np.abs(t - np.rint(t))) < 1e-9  # frac(theta log n_k) -> 0


def test_subsequence_probe_converges_to_cluster_limit():
    gp = GeometricParams(0.5)
    ns = e.subsequence_generator(gp, 0.5, range(10, 21))
    report = e.oscillation_scan(gp, 0, ns)
    target = math.exp(-(2.0**-0.5))
    assert report.probs[-1] == pytest.approx(target, abs=1e-3)
    # the dyadic subsequence approaches the c = 0 value from the same scan
    ns0 = e.subsequence_generator(gp, 0.0, range(10, 21))
    report0 = e.oscillation_scan(gp, 0, ns0)
    assert report0.probs[-1] == pytest.approx(math.exp(-0.5), abs=1e-3)


def test_two_subsequences_witness_non_convergence():
    # limits along c = 0 and c = 0.9 differ by more than 0.15
    gp = GeometricParams(0.5)
    lo = e.oscillation_scan(gp, 0, e.subsequence_generator(gp, 0.9, range(12, 25)))
    hi = e.oscillation_scan(gp, 0, e.subsequence_generator(gp, 0.0, range(12, 25)))
    assert hi.probs[-1] - lo.probs[-1] > 0.15
    limits = dict(hi.cluster_points)
    assert abs(limits[0.0] - limits[0.9]) > 0.15


def test_subsequence_gap_ratios_approach_inverse_p():
    gp = GeometricParams(0.5)
    ns = e.subsequence_generator(gp, 0.3, range(25, 36)).astype(float)
    ratios = ns[1:] / ns[:-1]
    assert np.max(np.abs(ratios - 2.0)) <= 1e-6
    gaps = np.diff(ns)
    assert np.all(gaps[1:] > gaps[:-1])  # gaps grow geometrically


def test_subsequence_collision_warning():
    gp = GeometricParams(0.9)  # ratio e^{1/theta} = 1/0.9, heavy rounding overlap
    with pytest.warns(UserWarning, match="collision"):
        ns = e.subsequence_generator(gp, 0.0, range(1, 12))
    assert np.all(np.diff(ns) > 0)


def test_subsequence_validation():
    gp = GeometricParams(0.5)
    with pytest.raises(DomainError):
        e.subsequence_generator(gp, 1.0, range(1, 5))
    with pytest.raises(DomainError):
        e.subsequence_generator(gp, 0.5, [])
    with pytest.raises(DomainError):
        e.subsequence_generator(gp, 0.0, [200])  # overflows 2^62


@pytest.mark.parametrize(
    "p,k_range",
    [(0.5, [63]), (0.5, [64]), (0.5, [10**6]), (1e-300, [2]), (0.5, [10, 2**63]), (0.5, [1.5])],
)
def test_subsequence_refuses_k_before_math_exp_overflows(p, k_range):
    # exp((k + c) log(1/p)) overflows a double at k = 10**6 for p = 0.5
    with pytest.raises(DomainError, match="k_range"):
        e.subsequence_generator(GeometricParams(p), 0.0, k_range)


def test_subsequence_keeps_every_accepted_k():
    # up to the 2**62 ceiling the values are round(exp((k + c) log(1/p)))
    for p, c in ((0.5, 0.0), (0.5, 0.25), (0.3, 0.9)):
        log_inv_p = math.log(1.0 / p)
        top = int(62 * math.log(2.0) / log_inv_p - c)
        ks = range(0, top)
        expected = [round(math.exp((k + c) * log_inv_p)) for k in ks]
        assert e.subsequence_generator(GeometricParams(p), c, ks).tolist() == expected


# ---------------------------------------------------------------- serialization

def test_oscillation_report_serialization():
    gp = GeometricParams(0.5)
    report = e.oscillation_scan(gp, 0, np.array([100, 1000, 10_000]))
    header, rows, body = _table(report)
    d = body()
    assert header == ["n", "m", "probability"]
    assert len(rows) == 3
    assert d["p"] == 0.5 and d["q"] == 0
    assert len(d["probability"]) == 3
    assert [c for c, _ in d["cluster_points"]] == [0.0, 0.5, 0.9]
    assert (report.n_values.tolist(), report.probs.tolist()) == (d["n"], d["probability"])
