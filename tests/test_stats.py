"""Stream contract and KS distances."""

import numpy as np
import pytest
import scipy.stats

import evtlab as e
from evtlab.errors import ContractViolationError, DomainError
from evtlab.stats import _sorted_sample


# ---------------------------------------------------------------- streams

# Frozen draws pin the counter-based contract: same (seed, stream) pair,
# same sequence, on any platform.
FROZEN_DRAWS = {
    (0, 0): [0.72119675254057791, 0.026925274171797242, 0.40253821645302268],
    (1, 0): [0.21212740841070776, 0.82099489794407932, 0.65158326178918735],
    (0, 1): [0.67443816402275103, 0.47889683767985269, 0.30998762221501774],
    (123456789, 7): [0.22507013816004962, 0.39126450162977222, 0.75324988817032279],
}


def test_make_rng_frozen_sequence():
    for (seed, stream), expect in FROZEN_DRAWS.items():
        got = e.make_rng(seed, stream).random(3)
        assert got.tolist() == expect


def test_make_rng_reproducible_and_stream_independent():
    a = e.make_rng(42).random(100)
    b = e.make_rng(42).random(100)
    c = e.make_rng(42, stream=1).random(100)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_make_rng_refuses_negative_seed_or_stream():
    with pytest.raises(DomainError, match="non-negative"):
        e.make_rng(-1)
    with pytest.raises(DomainError, match="non-negative"):
        e.make_rng(0, stream=-1)


def test_uniform_open_redraws_zeros():
    class _Stub:
        # the first draw holds an exact zero, redrawn from the next draw
        def __init__(self):
            self.arrays = iter([np.array([0.5, 0.0, 0.75]), np.array([0.125])])

        def random(self, size):
            return next(self.arrays)[:size]

    out = e.uniform_open(_Stub(), 3)
    assert out.tolist() == [0.5, 0.125, 0.75]
    assert np.all(out > 0.0)


def test_standard_exponential_coupled_to_uniform_source():
    # omega = -log(1 - U) from the same stream, draw for draw
    u = e.uniform_open(e.make_rng(7), 1000)
    w = e.standard_exponential(e.make_rng(7), 1000)
    assert np.array_equal(w, -np.log1p(-u))
    assert np.all(w > 0.0)


# ------------------------------------------------- the KS sample's empirical cdf

def _ecdf(samples, x):
    """The empirical cdf the KS statistics read off a checked, sorted sample."""
    s = _sorted_sample(samples)
    return np.searchsorted(s, x, side="right") / s.size


@pytest.mark.parametrize(
    "samples,x,want",
    [
        ([1.0, 2.0, 3.0], 2.0, 2.0 / 3.0),
        ([1.0, 2.0, 3.0], 0.5, 0.0),
        ([1.0, 2.0, 3.0], 3.5, 1.0),
        # at a jump the value equals the value just above, not just below
        ([0.0, 1.0, 1.0, 2.0], 1.0, 0.75),
        ([0.0, 1.0, 1.0, 2.0], np.nextafter(1.0, 2.0), 0.75),
        ([0.0, 1.0, 1.0, 2.0], np.nextafter(1.0, 0.0), 0.25),
    ],
)
def test_the_sorted_sample_gives_the_right_continuous_ecdf(samples, x, want):
    assert _ecdf(samples, x) == want


@pytest.mark.parametrize("seed", range(4))
def test_the_sorted_sample_ecdf_matches_a_brute_force_count(seed):
    rng = e.make_rng(3, seed)
    samples = rng.normal(size=500)
    for x in rng.normal(size=200):
        assert _ecdf(samples, x) == np.sum(samples <= x) / samples.size


def test_the_sorted_sample_refuses_nan():
    message = r"^samples must be real numbers in \[-inf, inf\], got nan$"
    with pytest.raises(DomainError, match=message):
        _sorted_sample([1.0, np.nan])


# ---------------------------------------------------------------- one-sample KS

@pytest.mark.parametrize("seed", range(5))
def test_ks_one_sample_matches_a_brute_force_count(seed):
    # D = sup |F_n - F| over the sample, from both sides of each jump of F_n
    rng = e.make_rng(5, seed)
    x = rng.normal(size=40 + 7 * seed)
    f = e.normal().cdf(x)
    below = np.array([np.mean(x < s) for s in x])
    at = np.array([np.mean(x <= s) for s in x])
    brute = max(np.max(at - f), np.max(f - below))
    assert e.ks_one_sample(x, e.normal().cdf).statistic == pytest.approx(brute, abs=1e-15)


def test_ks_one_sample_matches_scipy():
    rng = e.make_rng(11)
    x = rng.normal(size=1000)
    ours = e.ks_one_sample(x, e.normal().cdf)
    ref = scipy.stats.kstest(x, scipy.stats.norm.cdf)
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-14)


def test_ks_one_sample_calibration_over_seeds():
    # samples truly from the target: pass rate tracks 1 - alpha
    counts = {}
    for alpha in (0.05, 0.01):
        counts[alpha] = sum(
            e.ks_one_sample(
                e.sample_quantile_transform(e.uniform(), e.make_rng(s), 10_000),
                e.uniform().cdf,
                alpha=alpha,
            ).passed
            for s in range(100)
        )
    assert counts[0.05] >= 88
    assert counts[0.01] >= 95


def test_ks_one_sample_wrong_law_fails_loudly():
    # uniform samples against the exponential cdf: sup gap > 0.3
    x = e.sample_quantile_transform(e.uniform(), e.make_rng(5), 10_000)
    res = e.ks_one_sample(x, e.exponential().cdf)
    assert res.statistic > 0.3
    assert not res.passed


def test_ks_one_sample_constant_samples():
    x = np.full(100, 0.4)
    res = e.ks_one_sample(x, e.uniform().cdf)
    assert res.statistic >= 0.5
    assert not res.passed


def test_ks_one_sample_handles_atoms_exactly():
    # half the mass at one point: both one-sided gaps must be probed
    x = np.concatenate([np.full(50, 0.5), np.linspace(0.51, 0.99, 50)])
    res = e.ks_one_sample(x, e.uniform().cdf)
    brute = max(
        max(abs(np.mean(x <= t) - t), abs(np.mean(x < t) - t))
        for t in np.unique(x)
    )
    assert res.statistic == pytest.approx(brute, abs=1e-14)


def test_ks_one_sample_validation():
    with pytest.raises(DomainError):
        e.ks_one_sample(np.linspace(0, 1, 10), e.uniform().cdf)
    with pytest.raises(DomainError):
        e.ks_one_sample(np.linspace(0.01, 0.99, 100), e.uniform().cdf, alpha=0.1)
    with pytest.raises(ContractViolationError):
        e.ks_one_sample(np.linspace(0.01, 0.99, 100), lambda x: 2.0 * np.asarray(x))


def test_ks_one_sample_refuses_a_nan_cdf_and_leaves_its_output_alone():
    x = np.linspace(0.01, 0.99, 100)
    f = np.linspace(0.01, 0.99, 100)
    for bad in (np.nan, -1e-300, 1.0 + 2.0**-52):
        g = f.copy()
        g[7] = bad
        with pytest.raises(ContractViolationError, match="outside"):
            e.ks_one_sample(x, lambda s, g=g: g)
    e.ks_one_sample(x, lambda s: f)
    assert np.array_equal(f, np.linspace(0.01, 0.99, 100))


def test_ks_refuses_a_nan_sample():
    # the samples are at fault, not the cdf, and no statistic is returned
    x = np.linspace(0.01, 0.99, 100)
    x[7] = np.nan
    y = np.linspace(0.01, 0.99, 50)
    for call in (
        lambda: e.ks_one_sample(x, e.uniform().cdf),
        lambda: e.ks_two_sample(x, y),
        lambda: e.ks_two_sample(y, x),
    ):
        with pytest.raises(DomainError, match=r"^samples must be real numbers in \[-inf, inf\]"):
            call()


# ---------------------------------------------------------------- two-sample KS

def test_ks_two_sample_identical_and_disjoint():
    x = np.linspace(0.0, 1.0, 50)
    same = e.ks_two_sample(x, x.copy())
    assert same.statistic == 0.0
    assert same.passed
    apart = e.ks_two_sample(x, x + 10.0)
    assert apart.statistic == 1.0
    assert not apart.passed


def test_ks_two_sample_matches_scipy():
    rng = e.make_rng(13)
    a, b = rng.normal(size=300), rng.normal(size=400) + 0.1
    ours = e.ks_two_sample(a, b)
    ref = scipy.stats.ks_2samp(a, b, method="asymp")
    assert ours.statistic == pytest.approx(ref.statistic, abs=1e-14)
    assert ours.n_effective == pytest.approx(300 * 400 / 700)


def test_ks_two_sample_empirical_cdfs_are_right_continuous_at_ties():
    # integer samples tie within and across the two sides; each side's
    # empirical cdf at a tie counts every entry equal to it, as scipy's does
    rng = e.make_rng(19)
    for na, nb, top in [(50, 60, 3), (200, 150, 10), (20, 20, 1)]:
        a, b = rng.integers(0, top + 1, na).astype(float), rng.integers(0, top + 1, nb)
        ours = e.ks_two_sample(a, b).statistic
        assert ours == scipy.stats.ks_2samp(a, b, method="asymp").statistic
        brute = max(abs(np.mean(a <= t) - np.mean(b <= t)) for t in np.union1d(a, b))
        assert ours == brute


@pytest.mark.parametrize("seed", range(5))
def test_ks_two_sample_matches_a_brute_force_count(seed):
    rng = e.make_rng(7, seed)
    a, b = rng.normal(size=30 + 7 * seed), rng.normal(size=45) + 0.2
    brute = max(abs(np.mean(a <= t) - np.mean(b <= t)) for t in np.concatenate([a, b]))
    assert e.ks_two_sample(a, b).statistic == brute


def test_ks_refuses_an_empty_sample():
    x = np.linspace(0.01, 0.99, 50)
    for call in (
        lambda: e.ks_one_sample([], e.uniform().cdf),
        lambda: e.ks_two_sample([], x),
        lambda: e.ks_two_sample(x, []),
    ):
        with pytest.raises(DomainError, match=">= 20 samples"):
            call()


def test_ks_two_sample_sampler_equivalence():
    law = e.MaxLaw(e.uniform(), 10)
    wins = sum(
        e.ks_two_sample(
            e.sample_max_direct(law, e.make_rng(s, stream=1), 10_000),
            e.sample_max_exponential_rep(law, e.make_rng(s, stream=2), 10_000),
            alpha=0.01,
        ).passed
        for s in range(10)
    )
    assert wins >= 9


def test_ks_statistic_invariances():
    rng = e.make_rng(17)
    a, b = rng.normal(size=100), rng.normal(size=120)
    base = e.ks_two_sample(a, b).statistic
    # permutation of either sample changes nothing
    assert e.ks_two_sample(rng.permutation(a), b).statistic == base
    # a strictly increasing transform applied to both sides changes nothing
    t = lambda x: np.exp(x) + x
    assert e.ks_two_sample(t(a), t(b)).statistic == base
    # same for one-sample when the cdf is transported along the transform
    one = e.ks_one_sample(a, e.normal().cdf).statistic
    transported = e.ks_one_sample(np.exp(a), lambda y: e.normal().cdf(np.log(y)))
    assert transported.statistic == pytest.approx(one, abs=1e-14)


def test_ks_result_threshold_table():
    res = e.ks_one_sample(np.linspace(0.001, 0.999, 400), e.uniform().cdf, alpha=0.01)
    assert res.threshold == pytest.approx(1.628 / np.sqrt(400))
    assert res.passed == (res.statistic < res.threshold)
