"""Seeded random streams and Kolmogorov-Smirnov distances.

Random streams follow a counter-based contract: ``make_rng(seed, stream)``
yields a platform-independent sequence determined by the pair alone, and
distinct stream ids derived from one seed never overlap.  Every sampler in
the package draws its uniforms from such a stream through ``uniform_open``'s
kernel, which redraws an exact zero in stream order, and exponential variates
are always derived as ``-log(1 - U)`` from the same uniform source, so coupled
experiments are reproducible per seed.  One call draws at most 2**27 values
(``_MAX_DRAWS``, 1 GiB of doubles): a larger ``count`` or ``size`` is a
``DomainError`` before anything is drawn.  The direct maxima sampler
(``maxima.sample_max_direct``) alone reads the generator's raw words, and
gets the same uniforms from them through the same loop (``_redrawn``).  A
bulk draw is checked with one ``min`` reduction, and its values are written
into the output array, so a sampler holds its uniforms and its output; the
heap is set up at import to keep those arrays off glibc's mmap path (the
note above ``_cuts``).

The bulk samplers split a draw of at least two parts' worth (``_PART``
values a part) into even row ranges, one per usable CPU (``_cuts``), where
the generator's doubles are its raw words and it can move on by any number
of them (``advance``: Philox and the PCG64s, in ``_word_generators``; Salmon
et al., SC 2011).  Each range is drawn from a copy of the generator moved on
to its first word and transformed on the same thread, into its own slice of
the output array (``_split_draw``).  The first range runs on the caller and
the others on one pool of worker threads for the process, built at the
first split and again in a forked child (``_in_parallel``).  The words, and
so the values and the stream's end, are those of a one-thread draw; if any
range sees a word that gives 0.0, which one thread redraws in stream order,
the whole draw runs again on one thread.  A thread running a range, the
caller's too, splits nothing further.  A draw of ``values`` values takes at
most min(CPUs, values // 2**14) ranges and as many pool threads less one,
and a split direct draw holds a 1 MB block a range (``maxima._DIRECT_BLOCK``).

KS verdicts use the asymptotic two-sided thresholds ``c(alpha)/sqrt(n_eff)``
at the two supported levels; no p-values are computed.  Each sample is
checked once as a 1-d array of reals (``_sample``; another shape is a
``DomainError``), and its empirical cdf is read off a sorted copy.  The
one-sample check of a sample of two parts' worth partitions the copy at
the range cuts, so that each range's slice holds the values of its ranks,
and each range sorts its slice, evaluates the cdf on it and returns the
largest and least of F(s_i) - i/n on its own thread: the ranges together
are the sorted sample, and the statistic is the one-thread double.  It
checks the cdf's values with one ``min`` and one ``max`` a range and never
writes into them, as a law may return an array of its own.

The package checks its integer, grid, real and real-array arguments here
(``_integer``, ``_grid``, ``_real``, ``_reals``; a draw's ``size`` through
``_integer`` too): none takes a bool, parses a string or reads NaN, and each
refusal is a ``DomainError`` naming it.  Each argument is checked once: a
public function is its checks plus a private kernel that takes checked
values, and an internal caller, whose values are checked or built inside
the kernel's domain, calls the kernel, not the public function.  A check
of many values checks the array, then walks: one pass over the array (a
``min`` and a ``max``, or ``_first``, the ``argmin`` of a mask), and only
a failed pass walks the entries, to name the first bad one.
"""

# the np.random.Generator annotations stay text, so importing loads no numpy.random
from __future__ import annotations

import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ContractViolationError, DomainError

__all__ = [
    "KS_CRITICAL",
    "make_rng",
    "uniform_open",
    "standard_exponential",
    "KsResult",
    "ks_one_sample",
    "ks_two_sample",
]

# Asymptotic two-sided Kolmogorov quantiles; threshold(alpha) = c / sqrt(n_eff).
KS_CRITICAL = {0.05: 1.358, 0.01: 1.628}

_MIN_KS_SAMPLES = 20

# Most values one call draws: 2**27 doubles are 1 GiB
_MAX_DRAWS = 2**27

# Most cells one grid diagnostic evaluates, rows by columns: at this bound
# `evtlab nonlinear` peaks at about 250 MB, written as CSV or as JSON
_MAX_CELLS = 2**22


def _scalar_or_array(arr: np.ndarray, out):
    """``out`` as a float when ``arr``, the checked argument, is 0-d, else as a
    float array: the return convention of every vectorized function here."""
    if arr.ndim == 0:
        return float(out)
    return np.asarray(out, dtype=float)


def _first(mask: np.ndarray, value: bool = False) -> int:
    """The flat index of the first entry ``value`` of the bool array ``mask``, or
    -1 if none: one ``argmin`` (``argmax`` for True), which stops there."""
    i = int(mask.argmax() if value else mask.argmin()) if mask.size else 0
    return i if mask.size and mask.item(i) is value else -1


def _is_int(value) -> bool:
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _integer(value, name: str, least: int | None = 1) -> int:
    """``value`` as an int, for an int or numpy integer of at least ``least`` (None:
    any); a bool, a float or a string is a ``DomainError``, never truncated or parsed."""
    if not _is_int(value) or (least is not None and value < least):
        kinds = {None: "an integer", 0: "a non-negative integer", 1: "a positive integer"}
        kind = kinds.get(least, f"an integer >= {least}")
        raise DomainError(f"{name} must be {kind}, got {value!r}")
    return int(value)


_REALS = (float, int, np.floating, np.integer)


@functools.cache
def _bounds(interval: str):
    """``interval``, written as "(0, 1]" and the like, as (lo, hi, lo in, hi in);
    cached, as each call site passes one literal interval."""
    lo, hi = interval[1:-1].split(",")
    return float(lo), float(hi), interval[0] == "[", interval[-1] == "]"


def _real(value, name: str, interval: str = "(-inf, inf)") -> float:
    """``value`` as a float, for an int, a float or a numpy real in ``interval``;
    a bool, a string, None, NaN or an int past the largest double is a
    ``DomainError`` that names the argument and the interval, never parsed."""
    lo, hi, lo_in, hi_in = _bounds(interval)
    if isinstance(value, _REALS) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:  # an int past the largest double
            x = np.nan
        if (lo < x or lo_in and lo == x) and (x < hi or hi_in and x == hi):  # NaN fails
            return x
    raise DomainError(f"{name} must be a real number in {interval}, got {value!r}")


def _reals(values, name: str, interval: str) -> np.ndarray:
    """``values`` as a float array of their shape, for an array-like of ints or
    floats in ``interval``; a bool (in a list too), string or object entry, or
    an entry outside the interval (NaN too), is a ``DomainError`` that names
    the argument and the dtype, or the interval and the first bad entry."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise DomainError(f"{name} must be real numbers, got {raw.dtype} entries")
    # numpy reads a bool among numbers as 0 or 1, so a sequence is checked entry by entry
    if not isinstance(values, np.ndarray) and raw.ndim:
        if not {bool, np.bool_}.isdisjoint(map(type, np.asarray(values, dtype=object).flat)):
            raise DomainError(f"{name} must be real numbers, got bool entries")
    arr = raw.astype(float, copy=False)
    lo, hi, lo_in, hi_in = _bounds(interval)
    if arr.size:
        # NaN carries through min, so "[-inf, inf]" costs one min, and a 0-d array none
        low = float(arr.min()) if arr.ndim else float(arr)
        high = float(arr.max()) if arr.ndim and (hi < np.inf or not hi_in) else low
        if not ((lo < low or lo_in and lo == low) and (high < hi or hi_in and high == hi)):
            inside = ((lo < arr) | lo_in & (lo == arr)) & ((arr < hi) | hi_in & (arr == hi))
            bad = raw.flat[np.argmin(inside)].item()  # the first, in flat order
            raise DomainError(f"{name} must be real numbers in {interval}, got {bad!r}")
    return arr


def _vector(arr: np.ndarray, name: str) -> np.ndarray:
    """``arr``, refused unless it is a nonempty 1-d array."""
    if arr.ndim != 1 or arr.size == 0:
        raise DomainError(f"{name} must be a nonempty 1-d grid, got shape {arr.shape}")
    return arr


def _ordered(grid: np.ndarray, name: str, order: int) -> np.ndarray:
    """``grid``, refused unless strictly increasing (``order`` 1) or decreasing (-1)."""
    steps = grid[1:] > grid[:-1] if order > 0 else grid[1:] < grid[:-1]
    i = _first(steps)
    if i >= 0:
        way = "increasing" if order > 0 else "decreasing"
        raise DomainError(f"{name} must be strictly {way}, got {grid.tolist()[i : i + 2]}")
    return grid


def _grid(values, name: str, order: int = 0, least: int | None = None):
    """``values`` as a nonempty 1-d grid (``_vector``), strictly ordered if
    asked (``_ordered``): a float grid of positive finite reals (``_reals``
    in (0, inf)), or with ``least`` an int64 grid of integers >= ``least``,
    taken as ``_integer`` takes one (a float, integral or not, a bool or a
    string is refused, never truncated).  Anything else is a ``DomainError``
    that names the grid."""
    arr = _vector(np.asarray(values), name)
    if least is None:
        grid = _reals(values, name, "(0, inf)")
    else:  # a numpy integer array is checked whole, anything else entry by entry
        kind = arr.dtype.kind
        if kind != "i" and not (kind == "u" and arr.max() < 2**63):
            bad = [v for v in arr.tolist() if not (_is_int(v) and -(2**63) <= v < 2**63)]
            if bad:
                raise DomainError(
                    f"{name} must be integers of magnitude below 2**63, got {bad[0]!r}"
                )
        grid = arr.astype(np.int64)
        i = _first(grid >= least)
        if i >= 0:
            raise DomainError(f"{name} must be integers >= {least}, got {arr.tolist()[i]!r}")
    return _ordered(grid, name, order) if order else grid


def make_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Counter-based generator for (seed, stream): same pair, same sequence.

    Sub-streams with distinct ids are the only sanctioned way to run
    samplers in parallel under one seed.  Both must be integers, both
    non-negative.
    """
    seed, stream = _integer(seed, "seed", 0), _integer(stream, "stream", 0)
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(stream,))
    return np.random.Generator(np.random.Philox(ss))


def _bounded(value, name: str):
    """``value`` of the argument ``name``, a checked count or shape, refused
    when it asks for more than ``_MAX_DRAWS`` values."""
    draws = math.prod(value) if isinstance(value, tuple) else value
    if draws > _MAX_DRAWS:
        raise DomainError(
            f"{name} = {value!r} asks for {draws} draws; one call draws at most "
            f"2**27 = {_MAX_DRAWS} (1 GiB of doubles)"
        )
    return value


def _cells(rows: int, columns: int, grids: str) -> None:
    """Refuse a grid of ``rows`` by ``columns`` cells above ``_MAX_CELLS``, with
    ``grids`` a template naming both; called before any array of the grid is built."""
    if rows * columns > _MAX_CELLS:
        raise DomainError(
            f"{grids.format(rows, columns)} is {rows * columns} cells; one call "
            f"evaluates at most 2**22 = {_MAX_CELLS}"
        )


def _count(count) -> int:
    """A sampler's ``count``: a positive integer (``_integer``) of at most ``_MAX_DRAWS``."""
    return _bounded(_integer(count, "count"), "count")


def _size(size):
    """``size`` as numpy's shape argument, for an int or a tuple of ints, each
    non-negative, taken as ``_integer`` takes one, of at most ``_MAX_DRAWS``
    values in all."""
    if isinstance(size, tuple):
        return _bounded(tuple(_integer(m, "size", 0) for m in size), "size")
    return _bounded(_integer(size, "size", 0), "size")


# the words below this one give the double 0.0, which ``uniform_open`` redraws
_ZERO_WORDS = 2**11


def _redrawn(draw, size, least):
    """``draw(size)`` with each value below ``least``, a zero, redrawn in stream
    order, a round's zeros in flat order; and whether any value was redrawn."""
    values = draw(size)
    redrawn = False
    while values.size and not values.min() >= least:  # one reduction; a zero is all but never there
        zero = values < least
        values[zero] = draw(int(zero.sum()))
        redrawn = True
    return values, redrawn


def _uniform_open(rng: np.random.Generator, size):
    """``uniform_open``'s draw, for a ``size`` already checked, and whether any
    zero, the double of a word below ``_ZERO_WORDS`` (read at each call), was redrawn."""
    return _redrawn(rng.random, size, _ZERO_WORDS * 2.0**-64)


def _open_words(rng: np.random.Generator, size):
    """The raw words behind ``_uniform_open(rng, size)`` where rng's doubles are
    its words shifted (``_word_generators``), and whether any was redrawn."""
    return _redrawn(rng.bit_generator.random_raw, size, _ZERO_WORDS)


# Least values one range of a split pass takes: a pass of fewer than two
# ranges' worth runs on the caller alone.  On a 2-vCPU x86-64 host a pool
# round trip costs about 20 us, and a range of 2**14 values about 70 us to
# draw and take exponential quantiles of, 200 us with normal quantiles.
_PART = 2**14


@functools.cache
def _word_generators():
    """The bit generators whose ``Generator.random`` double is the raw 64-bit
    word w as (w >> 11) * 2**-53 (MT19937 builds its doubles from two 32-bit
    words); looked up on first use, so that no import loads numpy.random.
    Those that can move on by any number of words (``advance``; not SFC64)
    split a draw (``_split_draw``)."""
    return (np.random.Philox, np.random.PCG64, np.random.PCG64DXSM, np.random.SFC64)


def _usable_cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not every platform has it
        return os.cpu_count() or 1


def _moved_on(bitgen, state, words: int):
    """A new bit generator of ``bitgen``'s type, at ``state`` moved on by
    ``words`` raw words."""
    gen = type(bitgen)(0)  # the seed only builds it; the state is set next
    gen.state = state
    if type(gen) is np.random.Philox:  # advance drops the words left in its buffer of four
        left = 4 - state["buffer_pos"]
        if words > left:
            gen.random_raw(left)
            gen.advance((words - left) // 4)
            words = (words - left) % 4
        gen.random_raw(words)
    else:
        gen.advance(words)
    return gen


# The pool: a task queue and the worker threads that serve it, started at
# the first split and as a split needs more; a forked child has only the
# thread that forked, so it builds its own.
_pool_lock = threading.Lock()
_pool = None  # the task queue
_pool_size = 0  # the worker threads serving it
_worker = threading.local()  # .in_part is set while a thread runs a range of a split


def _forget_pool():
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _work(tasks):
    """A worker thread of the pool: for each (run, i, done) task, run(i),
    which raises nothing, then release ``done``."""
    while True:
        run, i, done = tasks.get()
        run(i)
        done.release()


def _tasks(workers: int):
    """The pool's task queue, served by at least ``workers`` threads."""
    global _pool, _pool_size
    with _pool_lock:
        if _pool is None:
            from queue import SimpleQueue  # not at import: a process may never split

            _pool, _pool_size = SimpleQueue(), 0
        while _pool_size < workers:
            threading.Thread(target=_work, args=(_pool,), name="evtlab-part", daemon=True).start()
            _pool_size += 1
        return _pool


# glibc maps every block of at least its mmap threshold afresh, 128 kB at
# start, and raises the threshold to the size of a freed mapped block, and
# its trim threshold to twice that, for the whole process (mallopt(3)).  This
# one 4 MB block, allocated and freed at import, so keeps the arrays of a bulk
# pass, 1e5-point arrays and the direct sampler's 1 MB blocks
# (``maxima._DIRECT_BLOCK``) among them, in the heap, split or not; while the
# threshold is below their size, each is mapped and unmapped anew, page
# faults and all.  On a 2-vCPU x86-64 host, with 1 MB direct blocks but this
# block freed only when the first split starts the pool, a pass of the
# benchmark's sampling cases on one CPU, where nothing splits, took 11 900
# minor faults and 119-141 ms, against 0.1 faults and 91-96 ms with it freed
# at import; on both CPUs 0.2 to 5 faults a pass.
np.empty(2**19)


def _cuts(values: int, rows: int) -> list:
    """The bounds of the even ranges a pass over ``rows`` rows of ``values``
    values in all is split into, [0, ..., rows]: one range per usable CPU,
    each of at least ``_PART`` values and one row, or [0, rows] for a pass
    of fewer than two ranges' worth.  A thread running a range of a split,
    the caller's too, splits nothing: a pool thread would wait on the pool
    it belongs to, and the caller on a pool its other ranges keep busy."""
    if values < 2 * _PART or getattr(_worker, "in_part", False):
        return [0, rows]
    parts = min(_usable_cpus(), values // _PART, rows)
    return [rows * i // parts for i in range(parts + 1)]


def _in_parallel(task, cuts) -> None:
    """task(a, b) for each range [a, b) between neighbours of ``cuts``.  A
    single range runs on the caller as it is.  Of several, the first runs
    on the calling thread and the others on the pool's threads, each under
    the caller's numpy error state, which a thread does not inherit, and
    marked as running a range, so that nothing it calls splits again
    (``_cuts``); once every range has ended, the first exception, in range
    order, is raised."""
    parts = len(cuts) - 1
    if parts == 1:
        task(*cuts)
        return
    errors = [None] * parts
    errstate = np.geterr()

    def run(i):
        _worker.in_part = True
        try:
            with np.errstate(**errstate):
                task(cuts[i], cuts[i + 1])
        except BaseException as exc:  # raised on the calling thread below
            errors[i] = exc
        finally:
            _worker.in_part = False

    tasks = _tasks(parts - 1)
    waits = []
    for i in range(1, parts):
        done = threading.Lock()
        done.acquire()
        tasks.put((run, i, done))
        waits.append(done)
    try:
        run(0)
    finally:
        for done in waits:
            done.acquire()
    for exc in errors:
        if exc is not None:
            raise exc


def _split_draw(rng, rows: int, width: int, draw, transform):
    """The values of ``rows`` rows of ``width`` words each drawn from ``rng``,
    as one float array: in even row ranges side by side (``_cuts``) where
    rng's bit generator is in ``_word_generators`` and has ``advance``.

    ``draw(gen, k)`` draws k rows from the generator ``gen`` and returns them
    and whether it redrew a zero word (``_ZERO_WORDS``), and ``transform(drawn,
    out)`` writes their values into ``out``, the range's rows of the output, on
    the same thread.  A range draws from a copy of rng moved on to its first
    row's first word, so the ranges draw the words one thread would.  The
    draw runs on one thread, from rng, where there is one range and where
    any range redrew a zero word, which one thread redraws in stream order;
    else rng is moved on to the draw's end once every range has drawn.  The
    first exception in range order is raised once every range has ended,
    with rng at the draw's end if a transform raised it and unmoved if a
    draw did.
    """
    bitgen = getattr(rng, "bit_generator", None)
    cuts = _cuts(rows * width, rows)
    out = np.empty(rows)
    if len(cuts) > 2 and type(bitgen) in _word_generators() and hasattr(bitgen, "advance"):
        state = bitgen.state
        gens = {a: np.random.Generator(_moved_on(bitgen, state, a * width)) for a in cuts[:-1]}
        redrawn = {}  # whether each range that drew redrew a zero word, by its first row

        def part(a, b):
            drawn, redrawn[a] = draw(gens[a], b - a)
            if not redrawn[a]:
                transform(drawn, out[a:b])

        error = None
        try:
            _in_parallel(part, cuts)
        except Exception as exc:  # raised below, unless one thread draws again
            error = exc
        if True not in redrawn.values():
            # the last range ends where one thread would, but for the half word
            if len(redrawn) == len(gens):
                end = gens[cuts[-2]].bit_generator.state
                end["has_uint32"], end["uinteger"] = state["has_uint32"], state["uinteger"]
                bitgen.state = end
            if error is not None:
                raise error
            return out
    transform(draw(rng, rows)[0], out)
    return out


def _open_draw(rng, size: int, transform):
    """The values ``transform(u, out)`` writes into ``out`` from the uniforms
    ``u`` of ``_uniform_open(rng, size)``, for a ``transform`` that maps each
    alone to a value, split as ``_split_draw`` splits it."""
    return _split_draw(rng, size, 1, _uniform_open, transform)


def uniform_open(rng: np.random.Generator, size):
    """An array of ``size`` uniform draws in the open interval (0, 1).

    Exact zeros (probability 2**-53 per draw) are redrawn in stream order,
    so quantile transforms never see an endpoint.
    """
    return _uniform_open(rng, _size(size))[0]


def _exponential_of(u):
    """omega = -log(1 - u), formed in the array of uniforms ``u``."""
    np.negative(u, out=u)
    np.log1p(u, out=u)
    return np.negative(u, out=u)


def standard_exponential(rng: np.random.Generator, size):
    """An array of ``size`` draws omega = -log(1 - U) with U from the shared
    uniform source, formed in U's own array."""
    return _exponential_of(_uniform_open(rng, _size(size))[0])


def _sample(samples) -> np.ndarray:
    """``samples`` checked as a 1-d array of reals (inf but not NaN); another
    shape is a ``DomainError`` that names it."""
    x = _reals(samples, "samples", "[-inf, inf]")
    if x.ndim != 1:
        raise DomainError(f"samples must be a 1-d array, got shape {x.shape}")
    return x


def _sorted_sample(samples) -> np.ndarray:
    """``samples`` checked (``_sample``) and sorted: the sample's
    right-continuous empirical cdf at x is the count of entries <= x over n."""
    return np.sort(_sample(samples))


@dataclass(frozen=True)
class KsResult:
    statistic: float
    n_effective: float
    threshold: float
    passed: bool


def _threshold(alpha: float, n_effective: float) -> float:
    alpha = _real(alpha, "alpha", "(0, 1)")
    if alpha not in KS_CRITICAL:
        raise DomainError(f"alpha must be one of {sorted(KS_CRITICAL)}, got {alpha!r}")
    return KS_CRITICAL[alpha] / np.sqrt(n_effective)


def _ks_ends(s: np.ndarray, cdf, a: int, n: int):
    """The largest and least of d_i = F(s_i) - i/n over the slice ``s`` of a
    sample of ``n`` values that holds its ranks a, a + 1, ...: s is sorted in
    place, and F's values are checked but never written."""
    s.sort()
    f = np.asarray(cdf(s), dtype=float)
    if not (f.min() >= 0.0 and f.max() <= 1.0):  # NaN carries through min
        raise ContractViolationError("cdf returned values outside [0, 1]")
    d = np.arange(a, a + s.size, dtype=float)
    np.divide(d, n, out=d)
    np.subtract(f, d, out=d)
    return d.max(), d.min()


def ks_one_sample(samples, cdf, alpha: float = 0.05) -> KsResult:
    """Sup-distance between the sample ECDF and ``cdf``, with verdict.

    ``cdf`` must map each value alone: a sample of at least two ranges'
    worth is cut at its ranks into even ranges (``_cuts``), and ``cdf`` is
    called on each range's sorted values, on several threads at once.

    D- takes F(s), not the left limit F(s-), so at an atom of ``cdf`` the
    statistic is overstated by up to the atom's mass; the exact statistic
    would make the threshold conservative there (Conover, JASA 1972).
    """
    x = _sample(samples)
    n = x.size
    if n < _MIN_KS_SAMPLES:
        raise DomainError(f"one-sample KS requires >= {_MIN_KS_SAMPLES} samples, got {n}")
    # D+ = max((i + 1)/n - f) = 1/n - min(f - i/n) and D- = max(f - i/n),
    # over the sorted sample; each range sorts the values of its ranks, which
    # a partition of a copy of x at the range cuts puts in its slice
    cuts = _cuts(n, n)
    s = np.partition(x, cuts[1:-1]) if len(cuts) > 2 else x.copy()
    ends = []
    _in_parallel(lambda a, b: ends.append(_ks_ends(s[a:b], cdf, a, n)), cuts)
    highs, lows = zip(*ends)
    stat = float(max(max(highs), 1.0 / n - min(lows), 0.0))
    thr = float(_threshold(alpha, n))
    return KsResult(stat, float(n), thr, stat < thr)


def ks_two_sample(a, b, alpha: float = 0.05) -> KsResult:
    """Sup-distance between two sample ECDFs, with verdict at ``alpha``."""
    sa, sb = _sorted_sample(a), _sorted_sample(b)
    na, nb = sa.size, sb.size
    if na < _MIN_KS_SAMPLES or nb < _MIN_KS_SAMPLES:
        raise DomainError(
            f"two-sample KS requires >= {_MIN_KS_SAMPLES} samples on each side"
        )
    grid = np.concatenate([sa, sb])
    # each sample's right-continuous empirical cdf at every point of both
    fa, fb = (np.searchsorted(s, grid, side="right") / s.size for s in (sa, sb))
    stat = float(np.max(np.abs(fa - fb)))
    n_eff = na * nb / (na + nb)
    thr = float(_threshold(alpha, n_eff))
    return KsResult(stat, float(n_eff), thr, stat < thr)
