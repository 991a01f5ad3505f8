"""Stream contract, split draws and KS distances."""

import dataclasses
import functools
import importlib
import os
import pkgutil
import re
import signal
import subprocess
import sys
import threading
import time
import timeit
import warnings

import numpy as np
import pytest
import scipy.stats

import evtlab as e
from evtlab import stats
from evtlab.errors import ContractViolationError, DomainError
from evtlab.stats import _sorted_sample

from conftest import COUNTER, SPLIT_STREAMS, _next_draws, _stream


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


class _Doubles:
    """A generator that hands out fixed doubles, in order."""

    def __init__(self, doubles):
        self.doubles = list(doubles)

    def random(self, size):
        out, self.doubles = self.doubles[:size], self.doubles[size:]
        return np.array(out)


def test_uniform_open_says_whether_it_redrew_a_zero():
    # zeros are redrawn in flat order, and a redraw that is again a zero is
    # redrawn in the next round; 2**-53, the least double of a word that is
    # not a zero word, is kept
    rng = _Doubles([0.5, 0.0, 0.0, 0.75, 0.0, 0.25, 0.125, 0.375])
    u, redrawn = stats._uniform_open(rng, 4)
    assert u.tolist() == [0.5, 0.125, 0.25, 0.75] and redrawn is True
    assert rng.doubles == [0.375]
    u, redrawn = stats._uniform_open(_Doubles([0.5, 2.0**-53, 0.25]), 2)
    assert u.tolist() == [0.5, 2.0**-53] and redrawn is False


def test_standard_exponential_coupled_to_uniform_source():
    # omega = -log(1 - U) from the same stream, draw for draw
    u = e.uniform_open(e.make_rng(7), 1000)
    w = e.standard_exponential(e.make_rng(7), 1000)
    assert np.array_equal(w, -np.log1p(-u))
    assert np.all(w > 0.0)


# ------------------------------------------------------- the bound on draws

class _Refused(Exception):
    pass


class _NoDraws:
    """A stream whose every use fails: a refusal must come before any draw,
    and a call that passes its checks ends at the draw with ``_Refused``."""

    def __getattr__(self, name):
        raise _Refused(name)


LAW = e.MaxLaw(e.uniform(), 10)
# (entry point, the argument's name); each takes the stream and the count or size
DRAW_SITES = {
    "sample_quantile_transform": (
        lambda rng, v: e.sample_quantile_transform(e.uniform(), rng, v), "count"
    ),
    "sample_max_direct": (lambda rng, v: e.sample_max_direct(LAW, rng, v), "count"),
    "sample_max_exponential_rep": (
        lambda rng, v: e.sample_max_exponential_rep(LAW, rng, v), "count"
    ),
    "uniform_open": (e.uniform_open, "size"),
    "standard_exponential": (e.standard_exponential, "size"),
}


def _best_seconds(call) -> float:
    return min(timeit.repeat(call, number=1, repeat=5))


@pytest.mark.parametrize("site", DRAW_SITES)
@pytest.mark.parametrize("value", [2**27 + 1, 10**12, 2**64])
def test_a_draw_past_2_27_values_is_refused_before_drawing(site, value):
    call, name = DRAW_SITES[site]
    message = rf"^{name} = {value} asks for {value} draws; one call draws at most 2\*\*27 = 134217728 "

    def refused():
        with pytest.raises(DomainError, match=message):
            call(_NoDraws(), value)

    assert _best_seconds(refused) < 1e-3


@pytest.mark.parametrize("draw", [e.uniform_open, e.standard_exponential])
def test_a_shape_is_bounded_by_its_number_of_values(draw):
    with pytest.raises(DomainError, match=r"^size = \(16384, 8193\) asks for 134234112 draws"):
        draw(_NoDraws(), (2**14, 2**13 + 1))
    with pytest.raises(_Refused):  # 2**27 values: past the check, at the draw
        draw(_NoDraws(), (2**14, 2**13))


@pytest.mark.parametrize("site", DRAW_SITES)
def test_the_draw_bound_is_inclusive(site):
    call, _ = DRAW_SITES[site]
    with pytest.raises(_Refused):
        call(_NoDraws(), 2**27)


# ------------------------------------------------------------- split draws

SPLIT_SIZES = (2**15 - 1, 2**15, 2**15 + 1, 10**5 + 3)
LAWS = {
    "uniform": e.uniform(),
    "exponential": e.exponential(),
    "pareto2": e.pareto(2.0),
    "normal": e.normal(),
    "degenerate": e.degenerate(0.0),
    "geometric": e.geometric(0.5),
}
SAMPLERS = {
    "quantile_transform": e.sample_quantile_transform,
    "exprep": lambda law, rng, size: e.sample_max_exponential_rep(e.MaxLaw(law, 10**6), rng, size),
}


def _sampled(on_cpus, cpus, sampler, law, stream, size):
    used = on_cpus(cpus).parts
    rng = _stream(stream)
    return SAMPLERS[sampler](law, rng, size), _next_draws(rng), used


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("stream", SPLIT_STREAMS)
@pytest.mark.parametrize("size", SPLIT_SIZES)
@pytest.mark.parametrize("cpus", [2, 3, 4, 5])
def test_a_split_draw_is_the_one_part_draw(on_cpus, sampler, stream, size, cpus):
    # each part starts at its first row's word, so any number of parts gives
    # the samples, and the stream end, of one part; a part takes at least
    # 2**14 values, and only a generator that moves on by any number of
    # words splits
    law = LAWS["exponential"]
    want, want_next, _ = _sampled(on_cpus, 1, sampler, law, stream, size)
    got, got_next, used = _sampled(on_cpus, cpus, sampler, law, stream, size)
    assert np.array_equal(got, want) and got_next == want_next
    parts = min(cpus, size // 2**14) if stream.partition("-")[0] in COUNTER else 1
    assert used == ([parts] if parts > 1 else [])


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("cpus", [2, 5])
def test_every_law_splits_to_the_one_part_draw(on_cpus, sampler, law, cpus):
    want, want_next, _ = _sampled(on_cpus, 1, sampler, LAWS[law], "Philox-1", 10**5 + 3)
    got, got_next, used = _sampled(on_cpus, cpus, sampler, LAWS[law], "Philox-1", 10**5 + 3)
    assert np.array_equal(got, want) and got_next == want_next
    assert used == [cpus]


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("shape", [2**15 - 1, 10**5 + 3, (7, 14287)])
@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_max_cdf_splits_nothing_on_any_cpu_count(on_cpus, law, shape, cpus):
    # the pass over x is one pass on the calling thread, whatever its size,
    # its shape and the CPUs: the law's sf is called once, on the whole x;
    # x holds the law's maxima, and both infinities
    max_law = e.MaxLaw(LAWS[law], 10**6)
    x = e.sample_max_exponential_rep(max_law, e.make_rng(4), int(np.prod(shape)))
    x[[0, -1]] = -np.inf, np.inf
    x = x.reshape(shape)
    on_cpus(1)
    want = e.max_cdf(max_law, x)
    passes = []

    def sf(v):
        passes.append((threading.current_thread(), v.shape))
        return max_law.base.sf(v)

    used = on_cpus(cpus).parts
    got = e.max_cdf(e.MaxLaw(dataclasses.replace(max_law.base, sf=sf), max_law.n), x)
    assert used == [] and passes == [(threading.current_thread(), x.shape)]
    assert got.shape == x.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("stream", ["Philox-1", "Philox-half", "PCG64-0"])
@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_a_zero_word_draws_the_whole_draw_again_on_one_thread(
    monkeypatch, on_cpus, sampler, stream, cpus
):
    # with one word in 4 taken as a zero, every part sees one, and the draw
    # is made again on one thread from where the stream stood; the parts
    # draw through ``_uniform_open`` too, between the two one-thread draws
    monkeypatch.setattr(stats, "_ZERO_WORDS", 2**62)
    calls = []
    uniform_open = stats._uniform_open
    monkeypatch.setattr(stats, "_uniform_open", lambda *a: calls.append(a[1]) or uniform_open(*a))
    law = LAWS["normal"]
    want, want_next, _ = _sampled(on_cpus, 1, sampler, law, stream, 10**5 + 3)
    got, got_next, used = _sampled(on_cpus, cpus, sampler, law, stream, 10**5 + 3)
    assert np.array_equal(got, want) and got_next == want_next
    parts = np.diff([(10**5 + 3) * i // cpus for i in range(cpus + 1)]).tolist()
    assert used == [cpus] and calls[0] == calls[-1] == 10**5 + 3
    assert sorted(calls[1:-1]) == sorted(parts)


def test_split_draws_share_one_pool_of_daemon_threads(on_cpus):
    on_cpus(3)
    law = LAWS["uniform"]
    e.sample_quantile_transform(law, e.make_rng(1), 10**5)
    threads = threading.enumerate()
    for seed in range(5):
        e.sample_quantile_transform(law, e.make_rng(seed), 10**5)
    assert threading.enumerate() == threads
    workers = [t for t in threads if t.name == "evtlab-part"]
    assert len(workers) >= 2 and all(t.daemon for t in workers)


def test_callers_on_several_threads_share_the_pool(on_cpus):
    # four callers split draws of three parts each into one pool, with a
    # thread switch every microsecond: each gets the draws of one thread
    on_cpus(3)
    law = LAWS["exponential"]
    want = [e.sample_quantile_transform(law, e.make_rng(seed), 10**5) for seed in range(4)]
    got = [[] for _ in want]

    def caller(seed):
        for _ in range(5):
            got[seed].append(e.sample_quantile_transform(law, e.make_rng(seed), 10**5))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller, args=(seed,)) for seed in range(4)]
        for thread in callers:
            thread.start()
        for thread in callers:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in callers)
    for draws, one in zip(got, want):
        assert len(draws) == 5 and all(np.array_equal(draw, one) for draw in draws)


def test_one_range_runs_on_the_caller_as_it_is(monkeypatch):
    # no pool, no mark and no error state of its own: the task runs as the
    # caller would run it, and its exception reaches the caller as it is
    def no_pool(workers):
        raise AssertionError("a one-range call asked for the pool")

    monkeypatch.setattr(stats, "_tasks", no_pool)
    seen = []

    def task(a, b):
        seen.append((a, b, threading.current_thread(), getattr(stats._worker, "in_part", False)))

    stats._in_parallel(task, [0, 7])
    assert seen == [(0, 7, threading.current_thread(), False)]
    with pytest.raises(KeyError, match="boom"):
        stats._in_parallel(lambda a, b: {}["boom"], [0, 3])
    # every split path below two parts' worth takes one range, and so no pool
    assert stats._cuts(2 * stats._PART - 1, 10) == [0, 10]
    law = e.MaxLaw(e.normal(), 10)
    x = e.sample_quantile_transform(law.base, e.make_rng(1), 2 * stats._PART - 1)
    m = e.sample_max_exponential_rep(law, e.make_rng(2), 2 * stats._PART - 1)
    e.ks_one_sample(m, lambda v: e.max_cdf(law, v))
    e.sample_max_direct(law, e.make_rng(3), 100)
    assert x.size == m.size == 2 * stats._PART - 1


def test_only_stats_binds_the_split_hook():
    # on_cpus records the splits through stats._in_parallel alone, so no
    # other module may call a copy of it that the fixture would miss
    names = [f"evtlab.{m.name}" for m in pkgutil.iter_modules(e.__path__)]
    bound = [name for name in names if hasattr(importlib.import_module(name), "_in_parallel")]
    assert bound == ["evtlab.stats"]


def test_a_part_splits_nothing_on_any_thread(on_cpus):
    # a worker that split would wait on the pool it belongs to, and the
    # caller's part 0 on a pool its other parts keep busy
    on_cpus(2)
    seen = []

    def quantile(u):
        seen.append((threading.current_thread().name, len(stats._cuts(10**6, 10**6)) - 1))
        return u

    law = dataclasses.replace(LAWS["uniform"], quantile=quantile)
    e.sample_quantile_transform(law, e.make_rng(1), 10**5)
    assert sorted(seen) == [("MainThread", 1), ("evtlab-part", 1)]
    assert len(stats._cuts(10**6, 10**6)) - 1 == 2  # the mark ends with the part


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_builds_a_pool_of_its_own(on_cpus):
    # the parent's worker threads do not run in a forked child: a child that
    # kept the parent's pool would wait for ever on its first split
    used = on_cpus(2).parts
    law = LAWS["normal"]
    want = e.sample_quantile_transform(law, e.make_rng(5), 10**5)
    assert used == [2] and stats._pool is not None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DeprecationWarning)  # a fork of a threaded process
        pid = os.fork()
    if pid == 0:  # the child: never returns into the test run
        code = 1
        try:
            fresh = stats._pool is None
            got = e.sample_quantile_transform(law, e.make_rng(5), 10**5)
            if fresh and used == [2, 2] and np.array_equal(got, want):
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60.0
    while not (ended := os.waitpid(pid, os.WNOHANG))[0]:
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("the forked child's split draw did not end within 60 s")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(ended[1]) == 0


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs an affinity mask")
def test_one_usable_cpu_takes_one_part_and_starts_no_thread():
    # a fresh interpreter on one CPU of its mask, as under ``taskset -c 0``
    script = """
import os, threading
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
import evtlab as e
from evtlab import stats
law = e.MaxLaw(e.normal(), 2000)
e.sample_quantile_transform(law.base, e.make_rng(1), 10**5)
m = e.sample_max_exponential_rep(law, e.make_rng(2), 10**5)
e.max_cdf(law, m)
e.ks_one_sample(m, lambda x: e.max_cdf(law, x))
e.sample_max_direct(law, e.make_rng(3), 2000)
print(stats._usable_cpus(), stats._pool, threading.active_count())
"""
    src = os.path.dirname(os.path.dirname(e.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert done.stdout.split() == ["1", "None", "1"]


def test_the_values_not_the_cpus_bound_the_ranges_and_threads():
    # a fresh interpreter that reports 64 usable CPUs: a draw of 2**15 - 1
    # values is one range and starts no thread, and one of 2**17 values is
    # 2**17 // _PART = 8 ranges, the caller's and 7 on as many pool threads
    script = """
import threading
import evtlab as e
from evtlab import stats
stats._usable_cpus = lambda: 64
in_parallel, parts = stats._in_parallel, []
stats._in_parallel = lambda task, cuts: parts.append(len(cuts) - 1) or in_parallel(task, cuts)
law = e.exponential()
e.sample_quantile_transform(law, e.make_rng(1), 2**15 - 1)
print(parts, stats._pool, threading.active_count())
e.sample_quantile_transform(law, e.make_rng(1), 2**17)
workers = [t for t in threading.enumerate() if t.name == "evtlab-part"]
print(parts, stats._pool_size, threading.active_count(), len(workers))
"""
    src = os.path.dirname(os.path.dirname(e.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), check=True,
    )
    assert done.stdout.splitlines() == ["[] None 1", "[8] 7 8 7"]


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


@pytest.mark.parametrize("n,at", [(100, 7), (10**5 + 3, 7), (10**5 + 3, 10**5 - 5)])
def test_ks_one_sample_refuses_a_nan_cdf_and_leaves_its_output_alone(on_cpus, n, at):
    # at 1e5 + 3 points the check splits in two, and the bad value lies in
    # the first or in the last part; no array the cdf returned is written
    used = on_cpus(2).parts
    x = np.linspace(0.01, 0.99, n)
    for bad in (np.nan, -1e-300, 1.0 + 2.0**-52, None):
        returned = []

        def cdf(s, bad=bad):  # the uniform law's, with ``bad`` at x[at]
            f = s.copy()
            if bad is not None:
                f[s == x[at]] = bad
            returned.append((f, f.tobytes()))
            return f

        if bad is None:
            assert e.ks_one_sample(x, cdf) == e.ks_one_sample(x, e.uniform().cdf)
        else:
            with pytest.raises(ContractViolationError, match="outside"):
                e.ks_one_sample(x, cdf)
        assert returned and all(f.tobytes() == bits for f, bits in returned)
    assert used == ([2] * 5 if n > 2**15 else [])


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


@pytest.mark.parametrize(
    "call,shape",
    [
        (lambda cdf: e.ks_one_sample(np.linspace(0.01, 0.99, 100).reshape(10, 10), cdf), (10, 10)),
        (lambda cdf: e.ks_one_sample(np.full((2, 2**15), 0.5), cdf), (2, 32768)),
        (lambda cdf: e.ks_one_sample(0.5, cdf), ()),
        (lambda cdf: e.ks_one_sample(np.float64(0.5), cdf), ()),
        (lambda cdf: e.ks_two_sample(np.full((1, 50), 0.5), np.full(50, 0.5)), (1, 50)),
        (lambda cdf: e.ks_two_sample(np.full(50, 0.5), [np.full(50, 0.5)]), (1, 50)),
        (lambda cdf: e.ks_two_sample(0.5, np.full(50, 0.5)), ()),
        (lambda cdf: e.ks_two_sample(np.full(50, 0.5), np.empty((0, 3))), (0, 3)),
    ],
)
def test_ks_refuses_a_sample_that_is_not_1d(on_cpus, call, shape):
    # a typed refusal naming the shape, before any sort, split or cdf call
    used = on_cpus(2).parts
    seen = []
    message = rf"^samples must be a 1-d array, got shape {re.escape(str(shape))}$"
    with pytest.raises(DomainError, match=message):
        call(lambda s: seen.append(s) or e.uniform().cdf(s))
    assert seen == [] and used == []


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


# ---------------------------------------------------------- split KS checks

KS_SIZES = (2 * stats._PART - 1, 2 * stats._PART, 2 * stats._PART + 1, 10**5 + 3)
_MAX_LAW = e.MaxLaw(e.normal(), 10**6)
_NORMING = e.norming_constants(_MAX_LAW.base, _MAX_LAW.n)


@functools.cache
def _ks_case(case, size):
    """(a read-only sample of ``size`` values, the cdf it is checked against)."""
    rng = e.make_rng(8, size)
    normal = e.sample_quantile_transform(e.normal(), rng, size)
    if case in LAWS:  # the geometric law's sample is all ties
        x, cdf = e.sample_quantile_transform(LAWS[case], rng, size), LAWS[case].cdf
    elif case == "max_cdf":
        x = e.sample_max_exponential_rep(_MAX_LAW, rng, size)
        cdf = lambda v: e.max_cdf(_MAX_LAW, v)
    elif case == "limit_cdf":
        m = e.sample_max_exponential_rep(_MAX_LAW, rng, size)
        x, cdf = (m - _NORMING.b_n) / _NORMING.a_n, lambda z: e.limit_cdf(0.0, z)
    elif case == "constant":
        x, cdf = np.full(size, 0.25), e.uniform().cdf
    elif case == "infinities":
        x, cdf = normal, e.normal().cdf
        x[rng.integers(0, size, 50)] = np.inf
        x[rng.integers(0, size, 50)] = -np.inf
    elif case == "signed zeros":  # the exponential cdf keeps the zero's sign
        x, cdf = np.abs(normal) - 1.0, e.exponential().cdf
        x[rng.random(size) < 0.3] = 0.0
        x[rng.random(size) < 0.3] = -0.0
    else:
        x, cdf = np.sort(normal), e.normal().cdf
        if case == "reversed":
            x = x[::-1].copy()
    x.flags.writeable = False
    return x, cdf


KS_CASES = (
    *LAWS, "max_cdf", "limit_cdf", "constant", "infinities", "signed zeros", "sorted", "reversed"
)


@pytest.mark.parametrize("case", KS_CASES)
@pytest.mark.parametrize("size", KS_SIZES)
@pytest.mark.parametrize("cpus", [2, 3, 4, 5])
def test_a_split_ks_check_is_the_one_part_check(on_cpus, case, size, cpus):
    # each part sorts the values of its ranks, so the parts hold the sorted
    # sample, and each d_i is the one-part check's double
    sample, cdf = _ks_case(case, size)
    x = sample.copy()
    on_cpus(1)
    want = e.ks_one_sample(x, cdf)
    used = on_cpus(cpus).parts
    got = e.ks_one_sample(x, cdf)
    assert got.statistic.hex() == want.statistic.hex()
    assert (got.threshold, got.passed, got.n_effective) == (
        want.threshold, want.passed, want.n_effective
    )
    assert x.tobytes() == sample.tobytes()  # the caller's array is not written
    parts = min(cpus, size // stats._PART)
    assert used == ([parts] if parts > 1 else [])


def test_a_ks_check_of_the_exact_law_splits_once(on_cpus):
    # the check's sample is split once; max_cdf, its cdf, is one pass in
    # each part
    used = on_cpus(2).parts
    law = e.MaxLaw(e.normal(), 10**6)
    m = e.sample_max_exponential_rep(law, e.make_rng(1, 2), 10**5)
    used.clear()
    e.ks_one_sample(m, lambda x: e.max_cdf(law, x))
    assert used == [2]


def _cdf_failure(x, cdf):
    with pytest.raises(ValueError) as failure:
        e.ks_one_sample(x, cdf)
    return type(failure.value), str(failure.value)


@pytest.mark.parametrize("cpus", [2, 3, 5])
def test_a_split_ks_check_raises_the_one_part_error(on_cpus, cpus):
    # the cdf refuses values past the sample's 99th percentile, which lie
    # in the last part only, and names the first it was given; parts are in
    # value order, so that is the one-part check's first bad value
    x = e.sample_quantile_transform(e.normal(), e.make_rng(6), 10**5 + 3)
    top = np.quantile(x, 0.99)

    def cdf(s):
        if s[-1] > top:
            raise ValueError(f"no cdf at {s[s > top][0]!r}")
        return e.normal().cdf(s)

    on_cpus(1)
    want = _cdf_failure(x, cdf)
    used = on_cpus(cpus).parts
    assert _cdf_failure(x, cdf) == want
    assert used == [cpus]


def test_each_ks_part_runs_under_the_callers_error_state(on_cpus):
    used = on_cpus(3).parts
    seen = []

    def cdf(s):
        seen.append(np.geterr())
        return e.uniform().cdf(s)

    x = e.sample_quantile_transform(e.uniform(), e.make_rng(1), 10**5)
    used.clear()
    with np.errstate(divide="ignore", invalid="raise", under="warn"):
        want = np.geterr()
        e.ks_one_sample(x, cdf)
    assert used == [3] and seen == [want] * 3
