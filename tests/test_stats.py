"""Stream contract, empirical CDFs, and KS distances."""

import numpy as np
import pytest
import scipy.stats

import evtlab as e
from evtlab.errors import ContractViolationError, DomainError


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
        # first scalar draw is an exact zero; the array path gets one too
        def __init__(self):
            self.scalar = iter([0.0, 0.25])
            self.arrays = iter([np.array([0.5, 0.0, 0.75]), np.array([0.125])])

        def random(self, size=None):
            if size is None:
                return next(self.scalar)
            return next(self.arrays)[:size] if np.ndim(size) == 0 else None

    stub = _Stub()
    assert e.uniform_open(stub) == 0.25
    out = e.uniform_open(stub, 3)
    assert out.tolist() == [0.5, 0.125, 0.75]
    assert np.all(out > 0.0)


def test_standard_exponential_coupled_to_uniform_source():
    # omega = -log(1 - U) from the same stream, draw for draw
    u = e.uniform_open(e.make_rng(7), 1000)
    w = e.standard_exponential(e.make_rng(7), 1000)
    assert np.array_equal(w, -np.log1p(-u))
    assert np.all(w > 0.0)


# ---------------------------------------------------------------- ecdf

def test_ecdf_examples():
    ec = e.EmpiricalCdf.from_samples([1.0, 2.0, 3.0])
    assert e.ecdf_eval(ec, 2.0) == pytest.approx(2.0 / 3.0)
    assert e.ecdf_eval(ec, 0.5) == 0.0
    assert e.ecdf_eval(ec, 3.5) == 1.0


def test_ecdf_matches_brute_force_count():
    rng = e.make_rng(3)
    samples = rng.normal(size=500)
    ec = e.EmpiricalCdf.from_samples(samples)
    queries = rng.normal(size=200)
    for x in queries:
        brute = np.sum(samples <= x) / samples.size
        assert e.ecdf_eval(ec, float(x)) == brute


def test_ecdf_right_continuous_at_jumps():
    ec = e.EmpiricalCdf.from_samples([0.0, 1.0, 1.0, 2.0])
    # value at the jump equals the value just above, not just below
    assert e.ecdf_eval(ec, 1.0) == 0.75
    assert e.ecdf_eval(ec, np.nextafter(1.0, 2.0)) == 0.75
    assert e.ecdf_eval(ec, np.nextafter(1.0, 0.0)) == 0.25


def test_ecdf_rejects_bad_input():
    with pytest.raises(DomainError):
        e.EmpiricalCdf.from_samples([])
    with pytest.raises(DomainError):
        e.EmpiricalCdf.from_samples([1.0, np.nan])


# ---------------------------------------------------------------- one-sample KS

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
