"""Max laws, both samplers, and the three h_n evaluation forms."""

import hashlib
import math
import os
import re
import sys
import threading
import time
import timeit
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab import dist, geometric, linear_evt, maxima, nonlinear_evt, stats
from evtlab.errors import ContractViolationError, DomainError
from evtlab.geometric import _cdf_of_max
from evtlab.maxima import HnVariant

from conftest import COUNTER, SPLIT_STREAMS, _next_draws, _stream


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


def test_cdf_of_max_leaves_the_survival_function_alone():
    sf = np.array([0.5, 0.25, 0.0, 1.0])
    got = _cdf_of_max(3.0, sf)
    assert got.tolist() == pytest.approx([0.125, 0.421875, 1.0, 0.0], rel=2.0**-50)
    assert sf.tolist() == [0.5, 0.25, 0.0, 1.0]
    for scalar in (0.5, np.array(0.5), np.float64(0.5)):
        assert float(_cdf_of_max(3.0, scalar)) == got[0]
    assert e.max_cdf(e.MaxLaw(e.uniform(), 3), np.array(0.5)) == got[0]


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

    def random(self, size):
        if np.ndim(size) == 0:
            return np.array([self.values.pop(0) for _ in range(int(size))])
        out = np.array([self.values.pop(0) for _ in range(int(np.prod(size)))])
        return out.reshape(size)


def test_exponential_rep_formula_uniform_base():
    # u = 1 - e^{-1} gives omega = 1, so M_10 = e^{-1/10}
    rng = _FixedUniform([1.0 - math.exp(-1.0)])
    (got,) = e.sample_max_exponential_rep(e.MaxLaw(e.uniform(), 10), rng, 1)
    assert got == pytest.approx(math.exp(-0.1), abs=1e-15)


def test_exponential_rep_formula_exponential_base():
    omega = 0.8
    rng = _FixedUniform([1.0 - math.exp(-omega)])
    n = 7
    (got,) = e.sample_max_exponential_rep(e.MaxLaw(e.exponential(), n), rng, 1)
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


def _direct_on_doubles(law, rng, count):
    """The direct sampler as ``uniform_open`` blocks of doubles, the route it
    takes for every generator whose doubles are not its shifted raw words."""
    width = min(law.n, maxima._DIRECT_BLOCK)
    rows = maxima._DIRECT_BLOCK // width
    u = np.zeros(count)
    for r in range(0, count, rows):
        block = u[r : r + rows]
        for c in range(0, law.n, width):
            part = e.uniform_open(rng, (block.size, min(width, law.n - c)))
            np.maximum(block, part.max(axis=1), out=block)
    return law.base.quantile(u)


BIT_GENERATORS = (
    np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64, np.random.MT19937
)


@pytest.mark.parametrize("bit_generator", BIT_GENERATORS, ids=lambda g: g.__name__)
@pytest.mark.parametrize("n", [1, 7, 2**19, 2**19 + 3], ids=["1", "7", "2**19", "2**19+3"])
@pytest.mark.parametrize("count", [1, 2])
@settings(max_examples=3, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**64 - 1), drawn=st.integers(0, 5))
def test_word_maxima_are_the_maxima_of_uniform_open(bit_generator, n, count, seed, drawn):
    # the same maxima, and the same next draw, from a stream that may sit
    # inside a generator's buffered block
    streams = [np.random.Generator(bit_generator(seed)) for _ in range(2)]
    for rng in streams:
        rng.random(drawn)
    law = e.MaxLaw(e.uniform(), n)
    got = e.sample_max_direct(law, streams[0], count)
    want = _direct_on_doubles(law, streams[1], count)
    assert np.array_equal(got, want) and got.dtype == want.dtype
    assert streams[0].random() == streams[1].random()


class _Words:
    """A bit generator that hands out fixed raw words, in order."""

    def __init__(self, words):
        self.words = list(words)

    def random_raw(self, size):
        k = int(np.prod(size))
        out, self.words = self.words[:k], self.words[k:]
        return np.array(out, dtype=np.uint64).reshape(size)


class _WordStream:
    """A generator whose doubles are its raw words as (w >> 11) * 2**-53."""

    def __init__(self, words):
        self.bit_generator = _Words(words)

    def random(self, size):
        return (self.bit_generator.random_raw(size) >> np.uint64(11)) * 2.0**-53


def test_zero_words_are_redrawn_in_stream_order():
    # words below 2**11 are the double 0.0; each is redrawn in flat order,
    # and a redraw that is again below 2**11 is redrawn in the next round
    rng = _WordStream([0, 2**63, 2**11 - 1, 2**11, 5, 2**12, 2**13, 2**14])
    got, redrawn = stats._open_words(rng, (2, 2))
    assert got.dtype == np.uint64
    assert got.tolist() == [[2**13, 2**63], [2**12, 2**11]]
    assert rng.bit_generator.words == [2**14] and redrawn
    assert stats._open_words(_WordStream([2**11, 2**14]), 2)[1] is False


def test_direct_sampler_redraws_a_zero_word_as_uniform_open_redraws_a_zero(monkeypatch):
    # no seed is known to reach a zero word, so the words are set by hand:
    # one zero in each row, and one of their two redraws is a zero again
    words = [2**40, 2**10, 2**20, 2**30, 2**50, 0, 2**60, 5, 2**61, 2**62]
    law = e.MaxLaw(e.uniform(), 3)
    for module in (stats, maxima):
        monkeypatch.setattr(module, "_word_generators", lambda: (_Words,))
    on_words = _WordStream(words)
    got = e.sample_max_direct(law, on_words, 2)
    for module in (stats, maxima):
        monkeypatch.setattr(module, "_word_generators", lambda: ())
    on_doubles = _WordStream(words)
    assert np.array_equal(got, e.sample_max_direct(law, on_doubles, 2))
    assert got.tolist() == [2.0**-4, 2.0**-3]
    assert on_words.bit_generator.words == on_doubles.bit_generator.words == [2**62]


def _split_draw(monkeypatch, on_cpus, cpus, stream, count, n):
    """The direct sampler's maxima over ``cpus`` usable CPUs, with blocks of 8
    words and parts of at least 4, the part counts of its splits, and the
    generator it drew from."""
    monkeypatch.setattr(maxima, "_DIRECT_BLOCK", 8)
    monkeypatch.setattr(stats, "_PART", 4)
    used = on_cpus(cpus).parts
    rng = _stream(stream)
    return e.sample_max_direct(e.MaxLaw(e.uniform(), n), rng, count), used, rng


@pytest.mark.parametrize("stream", SPLIT_STREAMS)
@pytest.mark.parametrize("count,n", [(17, 3), (5, 11), (9, 8), (2, 1)])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4, 5])
def test_split_draw_is_the_one_thread_draw(monkeypatch, on_cpus, stream, count, n, cpus):
    # each part is moved on by the words of the rows before it, so any number
    # of parts gives the maxima, and the stream end, of one thread; a part
    # starts anywhere in a block (8 // n rows of n words here), and takes at
    # least 4 words and one row
    got, used, rng = _split_draw(monkeypatch, on_cpus, cpus, stream, count, n)
    parts = max(1, min(cpus, count * n // 4, count))
    if stream.partition("-")[0] not in COUNTER:  # a generator that cannot move on draws whole
        parts = 1
    assert used == ([parts] if parts > 1 else [])
    assert np.array_equal(got, e.uniform_open(_stream(stream), (count, n)).max(axis=1))
    reference = _stream(stream)
    reference.random((count, n))
    assert _next_draws(rng) == _next_draws(reference)


@pytest.mark.parametrize("stream", ["Philox-0", "Philox-1", "PCG64-0"])
@pytest.mark.parametrize("count,n", [(40, 3), (12, 11)])
@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_split_draw_redraws_a_zero_word_in_stream_order(
    monkeypatch, on_cpus, stream, count, n, cpus
):
    # with one word in 4 taken as a zero, zeros fall in every part, and the
    # whole draw runs again on one thread, which redraws each block's zeros
    # after its words
    monkeypatch.setattr(stats, "_ZERO_WORDS", 2**62)
    calls = []
    row_maxima = maxima._row_maxima
    monkeypatch.setattr(maxima, "_row_maxima", lambda *a: calls.append(a) or row_maxima(*a))
    got, used, rng = _split_draw(monkeypatch, on_cpus, cpus, stream, count, n)
    assert used == [cpus] and len(calls) == cpus + 1
    assert calls[-1][0].size == count and calls[-1][2] is rng
    want, _, one = _split_draw(monkeypatch, on_cpus, 1, stream, count, n)
    assert np.array_equal(got, want)
    assert _next_draws(rng) == _next_draws(one)


def test_split_draw_with_more_parts_than_cores_switching_often(monkeypatch):
    # eight parts, and a thread switch every microsecond: each part writes
    # its own rows and its own generator only, so every draw is the one of a
    # single thread
    monkeypatch.setattr(maxima, "_DIRECT_BLOCK", 64)
    monkeypatch.setattr(stats, "_PART", 1024)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 8)
    law = e.MaxLaw(e.uniform(), 7)
    want = e.uniform_open(_stream("Philox-1"), (4000, 7)).max(axis=1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            assert np.array_equal(e.sample_max_direct(law, _stream("Philox-1"), 4000), want)
    finally:
        sys.setswitchinterval(interval)


class _Boom(Exception):
    pass


@pytest.mark.parametrize("where", ["worker", "caller"])
def test_a_failing_part_leaves_the_stream_unmoved(monkeypatch, where):
    # the exception of any part reaches the caller with its own type, once
    # every part has ended, and the caller's generator is not moved on
    row_maxima = maxima._row_maxima
    main = threading.main_thread()
    ended = []

    def failing(*args):
        row_maxima(*args)
        if (threading.current_thread() is main) == (where == "caller"):
            raise _Boom(where)
        time.sleep(0.05)  # a part that does not fail ends well after one that does
        ended.append(args[0].size)

    monkeypatch.setattr(maxima, "_row_maxima", failing)
    monkeypatch.setattr(maxima, "_DIRECT_BLOCK", 8)
    monkeypatch.setattr(stats, "_PART", 4)
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 3)  # 3 parts of 10 rows
    rng = _stream("Philox-1")
    with pytest.raises(_Boom, match=where):
        e.sample_max_direct(e.MaxLaw(e.uniform(), 3), rng, 30)
    assert ended == [10] * (2 if where == "caller" else 1)
    assert _next_draws(rng) == _next_draws(_stream("Philox-1"))


def test_direct_rows_are_cut_evenly(monkeypatch):
    # a part starts at an even share of the rows, wherever that falls in a
    # block: 1 000 and 1 000 rows at the benchmark's shape, whose blocks are
    # 262 rows
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 2)
    starts = []
    moved_on = stats._moved_on
    monkeypatch.setattr(stats, "_moved_on", lambda *a: starts.append(a[2]) or moved_on(*a))
    got = e.sample_max_direct(e.MaxLaw(e.uniform(), 2000), _stream("Philox-1"), 2000)
    assert starts == [0, 1000 * 2000]
    assert np.array_equal(got, e.uniform_open(_stream("Philox-1"), (2000, 2000)).max(axis=1))
    monkeypatch.setattr(stats, "_usable_cpus", lambda: 5)
    assert stats._cuts(17 * stats._PART, 17) == [0, 3, 6, 10, 13, 17]


def test_usable_cpus_are_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert stats._usable_cpus() == len(os.sched_getaffinity(0))
    else:
        assert stats._usable_cpus() == (os.cpu_count() or 1)


def _digest(a) -> str:
    return hashlib.sha256(np.asarray(a, dtype="<f8").tobytes()).hexdigest()[:16]


@pytest.mark.parametrize(
    "base,sample,cdf,statistic",
    [
        (e.pareto(1.0), "052d7405b06dc21b", "1786a2ed302620fc", "0x1.6b4aa123c2069p-9"),
        (e.normal(), "2d79a30bf9820b58", "8ce7656349fd7a07", "0x1.6b4aa123c1369p-9"),
    ],
    ids=["pareto1", "normal"],
)
def test_sampling_path_keeps_its_bits(base, sample, cdf, statistic):
    # sampler, exact law and KS statistic at 1e5 points, pinned bit for bit:
    # formed in place or in fewer passes, each gives the bits it gave
    law = e.MaxLaw(base, 10**6)
    m = e.sample_max_exponential_rep(law, e.make_rng(1, 2), 10**5)
    assert _digest(m) == sample
    assert _digest(e.max_cdf(law, m)) == cdf
    assert e.ks_one_sample(m, lambda x: e.max_cdf(law, x)).statistic.hex() == statistic
    direct = e.sample_max_direct(e.MaxLaw(e.normal(), 5000), e.make_rng(1, 3), 200)
    assert _digest(direct) == "ef32d3b5d00f7f60"


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


class _NoDraws:
    # a stream whose every use fails, with the attribute named
    def __getattr__(self, name):
        raise LookupError(name)


@pytest.mark.parametrize("count,n", [(1, 10**12), (2**12, 2**20 + 1), (2**27, 2**960)])
def test_direct_sampler_refuses_more_than_2_32_draws_before_drawing(count, n):
    law = e.MaxLaw(e.uniform(), n)
    message = (
        rf"^count \* n = {count} \* {n} draws is above the direct sampler's budget of "
        r"2\*\*32 = 4294967296; .*--method exprep"
    )

    def refused():
        with pytest.raises(DomainError, match=message):
            e.sample_max_direct(law, _NoDraws(), count)

    assert min(timeit.repeat(refused, number=1, repeat=5)) < 1e-3
    # at the budget the call passes its checks and reaches the stream
    with pytest.raises(LookupError):
        e.sample_max_direct(e.MaxLaw(e.uniform(), 2**32 // count), _NoDraws(), count)


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
        (got,) = e.sample_max_exponential_rep(e.MaxLaw(e.pareto(1.0), n), rng, 1)
        assert got == pytest.approx(float(n), rel=1e-15)


def test_max_law_refuses_n_beyond_2_960():
    e.MaxLaw(e.uniform(), 2**960)
    with pytest.raises(DomainError, match=r"n = \d+ is too large.*2\*\*960"):
        e.MaxLaw(e.uniform(), 2**960 + 1)


# ---------------------------------------------------------------- h_n forms

def _h_n(g, base, ns, xs, variant, direction="nondecreasing"):
    """h_n(x) = g_n(Q(1 - eps)) over the (x, n) grid, from one
    ``convergence_diagnostic``, with g_n(t) = g(n, t) (n as a float)."""
    def builder(col):
        nf = np.asarray(col, dtype=float)
        return lambda t: g(nf, t)

    seq = e.NormalizerSequence(base, builder, direction)
    return e.convergence_diagnostic(seq, xs, ns, variant).values


def test_linear_form_identity_uniform():
    ns, xs = (3, 10, 100, 1000), (0.25, 1.0, 2.5)
    values = _h_n(lambda n, t: t, e.uniform(), ns, xs, HnVariant.LINEAR_FORM)
    assert values.tolist() == [[1.0 - x / n for n in ns] for x in xs]


def test_exp_form_series_bound():
    # g_n(t) = n(1-t): n(1 - e^{-x/n}) approaches x, error at most x^2/(2n)
    ns, xs = (100, 10_000, 1_000_000, 10**7), (0.5, 2.0, 5.0)
    g = lambda n, t: n * (1.0 - t)  # noqa: E731
    values = _h_n(g, e.uniform(), ns, xs, HnVariant.EXP_FORM, "nonincreasing")
    for i, x in enumerate(xs):
        for j, n in enumerate(ns):
            # 1 - exp(-x/n) cancels at ulp(1)/2 and g multiplies that by n
            assert abs(values[i, j] - x) <= x * x / (2.0 * n) + 2e-16 * n


def test_linear_form_cancellation():
    # g_n(t) = n(1-t) recovers x; exact for dyadic x with power-of-two n
    g = lambda n, t: n * (1.0 - t)  # noqa: E731
    xs = (0.0625, 0.5, 1.0, 8.0)
    values = _h_n(g, e.uniform(), (2**7, 2**10, 2**13, 2**16), xs, "linear_form", "nonincreasing")
    assert values.tolist() == [[x] * 4 for x in xs]
    xs = (0.3, 1.0, 2.7)
    values = _h_n(g, e.uniform(), (3, 49, 101, 997), xs, "linear_form", "nonincreasing")
    assert values == pytest.approx(np.array([[x] * 4 for x in xs]), rel=1e-12)


def test_exp_form_dominates_linear_form_and_gap_shrinks():
    # for nondecreasing g: exp(-x/n) >= 1 - x/n pointwise
    g = lambda n, t: e.exponential().quantile(t)  # noqa: E731
    ns, xs = (1_000, 10_000, 100_000, 1_000_000), (0.5, 2.0, 6.0)
    hi = _h_n(g, e.uniform(), ns, xs, HnVariant.EXP_FORM)
    lo = _h_n(g, e.uniform(), ns, xs, HnVariant.LINEAR_FORM)
    assert (hi >= lo).all()
    gaps = hi - lo
    assert (gaps[:, -1] < gaps[:, 0]).all()


@pytest.mark.parametrize(
    "variant,ns,x,message",
    [
        ("linear_form", (5, 6, 7, 8), 5.0, "linear_form: x must lie in (0, n), got x=5.0, n=5"),
        ("linear_form", (5, 6, 7, 8), 6.0, "linear_form: x must lie in (0, n), got x=6.0, n=5"),
        ("linear_form", tuple(2**960 - k for k in (3, 2, 1, 0)), 1e300,
         f"got x=1e+300, n={2**960 - 3}"),
        # the mass rounds to 1 from x/n = 40 on, and to 0 below the least subnormal
        ("exp_form", (1, 2, 3, 4), 40.0,
         "exp_form: 1 - exp(-x/n) = 1.0 left (0, 1) for x=40.0, n=1"),
        ("exp_form", (5, 6, 7, 8), 1e300, "= 1.0 left (0, 1) for x=1e+300, n=5"),
        ("exp_form", (10, 100, 1000, 2**960), 1e-300,
         f"= 0.0 left (0, 1) for x=1e-300, n={2**960}"),
    ],
)
def test_h_n_domain_errors_name_the_variant(variant, ns, x, message):
    # the first mass outside (0, 1) in n-major order is named, with its exact n
    with pytest.raises(DomainError, match=re.escape(message)):
        _h_n(lambda n, t: t, e.uniform(), ns, (0.5, x), variant)


def test_h_n_args_take_a_column_of_n():
    # row j of the n-major grid is the tail masses at the j-th n, bit for bit
    xs = np.geomspace(0.01, 9.0, 7)
    ns = [10, 1000, 2**60 + 1]
    col = np.array(ns, dtype=object)[:, None]
    for variant in HnVariant:
        grid = maxima._h_n_args(col, xs, variant)
        assert grid.shape == (3, 7)
        for j, n in enumerate(ns):
            assert grid[j].tolist() == maxima._h_n_args(n, xs, variant).tolist()
    # the first mass outside (0, 1) in n-major order is named, with its exact n
    col = np.array([10, 2**80 + 1, 2**81], dtype=object)[:, None]
    message = f"exp_form: 1 - exp(-x/n) = 0.0 left (0, 1) for x=1e-300, n={2**80 + 1}"
    with pytest.raises(DomainError, match=re.escape(message)):
        maxima._h_n_args(col, np.array([1.0, 1e-300]), HnVariant.EXP_FORM)
    # the helper takes n checked; the entry points check it, once
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    with pytest.raises(DomainError, match="n must be a positive integer, got 0"):
        e.convergence_diagnostic(seq, xs, (5, 0), HnVariant.LINEAR_FORM)


def test_indices_check_an_array_in_one_pass_and_name_a_bad_entry():
    ns = maxima._indices(np.array([[3], [2**960], [7]], dtype=object))
    assert ns.shape == (3, 1) and ns.ravel().tolist() == [3, 2**960, 7]
    # a numpy integer leaves the one-pass check, and is taken as an int
    ns = maxima._indices(np.array([3, np.int64(5)], dtype=object))
    assert ns.tolist() == [3, 5] and all(type(n) is int for n in ns)
    assert maxima._indices(np.array([], dtype=object)).shape == (0,)
    for bad, message in [
        (True, "n must be a positive integer, got True"),
        (np.int64(0), "n must be a positive integer, got np.int64(0)"),
        (2.0, "n must be a positive integer, got 2.0"),
        (2**960 + 1, f"n = {2**960 + 1} is too large"),
    ]:
        with pytest.raises(DomainError, match=re.escape(message)):
            maxima._indices(np.array([3, bad, 0], dtype=object))
    with pytest.raises(DomainError, match=re.escape("n must be an integer >= 3, got 2")):
        maxima._indices(np.array([4, 2, 1]), least=3)


def _count_calls(monkeypatch, check):
    """The list of the name arguments (None for ``_indices``) of every call of
    the check ``check`` made through any module's binding of it."""
    calls = []
    for mod in (stats, dist, geometric, maxima, linear_evt, nonlinear_evt):
        if hasattr(mod, check):

            def counted(value, *args, fn=getattr(mod, check), **kwargs):
                calls.append(args[0] if args and isinstance(args[0], str) else None)
                return fn(value, *args, **kwargs)

            monkeypatch.setattr(mod, check, counted)
    return calls


def test_each_argument_is_checked_once(monkeypatch):
    indices, reals = _count_calls(monkeypatch, "_indices"), _count_calls(monkeypatch, "_reals")
    seq = e.NormalizerSequence.from_target(e.exponential(), e.pareto(2.0))
    e.convergence_diagnostic(seq, n_grid=(100, 1000, 10_000, 100_000))
    assert len(indices) == 1
    del indices[:], reals[:]
    e.norming_constants(e.geometric(0.5), 100)
    assert (len(indices), reals) == (1, [])
    del reals[:]
    e.dehaan_test(e.geometric(0.5), uv_grid=((3.0, 4.0),))
    assert [name for name in reals if "mass" in name] == ["tail mass eps"]
    del reals[:]
    e.ks_two_sample(np.linspace(0.0, 1.0, 50), np.linspace(0.0, 1.0, 60))
    assert reals == ["samples", "samples"]


# ---------------------------------------------------------------- monotone spot check

def _spot_check_row(g, lo, hi, direction="nondecreasing"):
    """``maxima._spot_check`` of the one row [lo, hi]."""
    maxima._spot_check(g, np.float64(lo), np.float64(hi), direction)


def test_spot_check_accepts_and_rejects():
    # the diagnostic spot-checks g_n on the tail quantiles, here in about [2, 14]
    def diagnostic(g, direction="nondecreasing"):
        seq = e.NormalizerSequence(e.exponential(), lambda n: g, direction)
        return e.convergence_diagnostic(seq, n_grid=(100, 1000, 10_000, 100_000))

    diagnostic(lambda t: (t - 7.0) ** 3)
    diagnostic(lambda t: -t, direction="nonincreasing")
    with pytest.raises(ContractViolationError, match="^g is not nondecreasing: g"):
        diagnostic(np.sin)
    with pytest.raises(ContractViolationError, match="^g is not nonincreasing: g"):
        diagnostic(lambda t: t, direction="nonincreasing")


def test_spot_check_refuses_g_on_the_widest_ranges_and_at_nan():
    # where hi - lo overflows, np.linspace(lo, hi) gives inf and nan points,
    # past which any g would pass; a nan difference exceeds no slack
    with pytest.raises(ContractViolationError, match=r"not nondecreasing: g\(-1e\+308\)"):
        _spot_check_row(lambda t: -t, -1e308, 1e308)
    with pytest.raises(ContractViolationError, match="not nondecreasing"):
        _spot_check_row(np.sin, -1e308, 1e308)
    nan_above_half = lambda t: np.where(t > 0.5, np.nan, t)  # noqa: E731
    with pytest.raises(ContractViolationError, match=r"g\(0\.50251256281407\d*\) = nan"):
        _spot_check_row(nan_above_half, 0.0, 1.0)


@pytest.mark.parametrize(
    "lo,hi",
    [(-1e308, 1e308), (-sys.float_info.max, sys.float_info.max), (-1.5e308, 2.0**1023),
     (-1e308, 7e307), (0.0, 1.0)],
)
def test_spot_check_points_are_finite_and_linspace_where_the_span_is(lo, hi):
    seen = []
    _spot_check_row(lambda t: seen.append(t) or t, lo, hi)
    pts = seen[0]
    assert np.isfinite(pts).all() and pts[0] == lo and pts[-1] == hi
    assert np.all(np.diff(pts) > 0)
    if math.isfinite(hi - lo):
        assert pts.tobytes() == np.linspace(lo, hi, 200).tobytes()


@pytest.mark.parametrize(
    "g,refused",
    [
        (lambda t: np.where(t < 0.5, np.inf, -np.inf), "g(0.49748743718592964) = inf vs"),
        (lambda t: np.where(t < 0.5, 1e300, -np.inf), "g(0.49748743718592964) = 1e+300 vs"),
        (lambda t: np.where(t < 0.5, np.inf, 0.0), "g(0.49748743718592964) = inf vs"),
        # a finite drop past the largest double is a step of -inf
        (lambda t: np.where(t < 0.5, 1.7e308, -1.7e308), "g(0.49748743718592964) = 1.7e+308 vs"),
        (lambda t: np.where(t < 0.5, 0.0, np.inf), None),
        (lambda t: np.where(t < 0.5, -np.inf, np.inf), None),
    ],
)
def test_spot_check_orders_infinite_values_by_their_sign(g, refused):
    # the slack comes from finite values, so a step to or from +-inf is never
    # inside it; inf next to the same inf is no step; and none warns
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if refused is None:
            _spot_check_row(g, 0.0, 1.0)
        else:
            with pytest.raises(ContractViolationError, match=re.escape(refused)):
                _spot_check_row(g, 0.0, 1.0)


@pytest.mark.parametrize("step", [np.inf, 1e300, 1.7e308])
def test_spot_check_orders_infinite_values_by_their_sign_either_way(step):
    # the mirror of the nondecreasing table: a nonincreasing g may step down
    # to -inf or from +inf, but not up to +inf or from -inf
    up = lambda t: np.where(t < 0.5, -step, np.inf)  # noqa: E731
    down = lambda t: np.where(t < 0.5, np.inf, -step)  # noqa: E731
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        _spot_check_row(down, 0.0, 1.0, "nonincreasing")
        with pytest.raises(ContractViolationError, match=r"^g is not nonincreasing: g\(0\.497"):
            _spot_check_row(up, 0.0, 1.0, "nonincreasing")


def test_spot_check_rows_are_the_one_row_checks_in_one_call():
    # each row's points are np.linspace's (halved and doubled where the span
    # overflows), g is called once on all rows, and the failure named is the
    # first the one-row checks name in turn
    rng = np.random.default_rng(7)
    ends = np.sort(rng.normal(size=(300, 2)) * 10.0 ** rng.integers(-300, 300, (300, 1)), axis=1)
    ends = np.concatenate([ends, [[-1e308, 1e308], [-1.5e308, 2.0**1023], [0.0, 5e-323]]])
    lo, hi = ends[ends[:, 0] < ends[:, 1]].T
    seen = []
    maxima._spot_check(lambda t: seen.append(t) or t, lo, hi, "nondecreasing")
    (pts,) = seen
    assert pts.shape == (lo.size, 200)
    for row, a, b in zip(pts, lo.tolist(), hi.tolist()):
        if math.isfinite(b - a):
            assert row.tobytes() == np.linspace(a, b, 200).tobytes()
        else:
            assert row.tobytes() == (np.linspace(a / 2, b / 2, 200) * 2).tobytes()

    def one_row_failure(g, a, b, direction):
        try:
            _spot_check_row(g, a, b, direction)
        except ContractViolationError as exc:
            return str(exc)

    drop_above = lambda c: lambda t: np.where(t > c, t - 1.0, t)  # noqa: E731
    nan_above = lambda c: lambda t: np.where(t > c, np.nan, t)  # noqa: E731
    rows = [
        # a step down in both rows: the first row's is named
        ((drop_above(0.5), drop_above(1.5)), (0.0, 1.0), (1.0, 2.0)),
        # a step down in the first row and a NaN in the second: the step down
        ((drop_above(0.5), nan_above(1.5)), (0.0, 1.0), (1.0, 2.0)),
        # a NaN after a step down in one row: the NaN
        ((lambda t: np.where(t > 0.7, np.nan, np.where(t > 0.3, t - 1.0, t)),) * 2,
         (0.0, 1.0), (0.0, 1.0)),
        # only the second row fails
        ((lambda t: t, drop_above(1.5)), (0.0, 1.0), (1.0, 2.0)),
    ]
    for (g0, g1), (lo0, hi0), (lo1, hi1) in rows:
        def g(t):
            assert t.shape == (2, 200)
            return np.stack([g0(t[0]), g1(t[1])])

        expected = one_row_failure(g0, lo0, hi0, "nondecreasing")
        expected = expected or one_row_failure(g1, lo1, hi1, "nondecreasing")
        with pytest.raises(ContractViolationError) as info:
            maxima._spot_check(g, np.array([lo0, lo1]), np.array([hi0, hi1]), "nondecreasing")
        assert str(info.value) == expected
