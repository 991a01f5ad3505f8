"""Helpers of the split-draw tests in several modules: the streams a split
starts from, the draws after it, and the ``on_cpus`` fixture."""

import types

import numpy as np
import pytest

from evtlab import stats

# Philox with 0, 3, 2 and 1 words left in its buffer of four, and with a
# 32-bit half word kept for the next 32-bit draw; the two PCG generators,
# which move on by any number of words too; SFC64, which cannot, and
# MT19937, whose doubles take two words
SPLIT_STREAMS = (
    "Philox-0", "Philox-1", "Philox-2", "Philox-3", "Philox-half",
    "PCG64-0", "PCG64DXSM-3", "SFC64-1", "MT19937-1",
)
# the generators of those streams that split a draw
COUNTER = ("Philox", "PCG64", "PCG64DXSM")


def _stream(name):
    kind, _, drawn = name.partition("-")
    rng = np.random.Generator(getattr(np.random, kind)(9))
    if drawn == "half":
        rng.integers(0, 2**32, dtype=np.uint32)
    else:
        rng.random(int(drawn))
    return rng


def _next_draws(rng):
    # a double, then a 32-bit draw, which a generator may take from half a word
    return rng.random(), int(rng.integers(0, 2**32, dtype=np.uint32))


@pytest.fixture
def on_cpus(monkeypatch):
    """``on_cpus(cpus)`` splits over ``cpus`` usable CPUs from then on, and
    returns the record of the splits made after it: the range count of each
    split of two ranges or more (``.parts``), and the type of each exception
    a range raised (``.raised``).  The hook replaces ``stats._in_parallel``,
    which every split calls."""
    in_parallel = stats._in_parallel
    record = types.SimpleNamespace(parts=[], raised=[])

    def recording(task, cuts):
        if len(cuts) > 2:
            record.parts.append(len(cuts) - 1)

        def part(a, b):
            try:
                return task(a, b)
            except BaseException as exc:
                record.raised.append(type(exc))
                raise

        return in_parallel(part, cuts)

    monkeypatch.setattr(stats, "_in_parallel", recording)

    def split(cpus):
        nonlocal record
        monkeypatch.setattr(stats, "_usable_cpus", lambda: cpus)
        record = types.SimpleNamespace(parts=[], raised=[])
        return record

    return split
