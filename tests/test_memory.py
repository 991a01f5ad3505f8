"""Memory bounded by the draw: the direct sampler's blocks, the quantile
samplers' two arrays, the CLI's sample writer and its JSON writer of a
convergence report.

Peaks are read with ``tracemalloc``, which sees numpy's buffers as well as
Python's objects, so they hold on any host and any number of CPUs; the
resident set size and page faults depend on glibc and the host, and are
measured outside the tests (README)."""

import os
import tracemalloc

import numpy as np
import pytest
from scipy.special import ndtri

import evtlab as e
from evtlab import cli, stats
from evtlab.dist import CONTINUOUS, Distribution
from evtlab.errors import DomainError

LAWS = {
    "uniform": e.uniform(),
    "exponential": e.exponential(),
    "pareto2": e.pareto(2.0),
    "normal": e.normal(),
    "degenerate": e.degenerate(0.0),
    "geometric": e.geometric(0.5),
}
# the laws whose kernels take ``out``: the geometric law's reread u near an
# integer, and keep an array of their own
IN_PLACE = [name for name in LAWS if name != "geometric"]
SAMPLERS = {
    "quantile_transform": e.sample_quantile_transform,
    "exprep": lambda law, rng, size: e.sample_max_exponential_rep(e.MaxLaw(law, 10**6), rng, size),
}
# bytes a call may hold beyond its arrays: generators, closures, the pool's
# tasks and the like
SLACK = 2**16


def _traced_peak(call):
    """The traced peak of ``call()`` in bytes above what was held before it,
    and its result, which is held at the peak too."""
    tracemalloc.start()
    try:
        result = call()
        return tracemalloc.get_traced_memory()[1], result
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_direct_draw_holds_a_block_a_range(on_cpus, cpus):
    # 2 000 rows of n = 2 000: each range holds one block of 2**17 words
    # (1 MB), and the draw its maxima and its output, 8 B a row each
    law = e.MaxLaw(e.normal(), 2000)
    record = on_cpus(cpus)
    call = lambda: e.sample_max_direct(law, e.make_rng(1, 3), 2000)  # noqa: E731
    call()  # scipy's import and the pool's threads are no part of a draw
    peak, m = _traced_peak(call)
    assert record.parts == ([cpus] * 2 if cpus > 1 else [])
    assert peak <= cpus * stats._DIRECT_BLOCK * 8 + 2 * 8 * m.size + SLACK


@pytest.mark.parametrize("law", IN_PLACE)
@pytest.mark.parametrize("sampler", SAMPLERS)
@pytest.mark.parametrize("cpus", [1, 2, 8])
def test_a_sampler_holds_its_uniforms_and_its_output(on_cpus, sampler, law, cpus):
    # 17 B a value: Q is written into the output, which a range gets its
    # slice of, from the uniforms, which stay as drawn, and checked through
    # a mask of 1 B a value
    on_cpus(cpus)
    call = lambda: SAMPLERS[sampler](LAWS[law], e.make_rng(2), 10**6)  # noqa: E731
    call()  # scipy's import and the pool's threads are no part of a draw
    peak, x = _traced_peak(call)
    assert x.size == 10**6 and peak <= 17 * x.size + SLACK


def _held_law(held):
    """A law built by hand whose callables take one argument and return a
    slice of the caller's array ``held``."""
    return Distribution(
        "held", lambda x: x, lambda x: 1.0 - x,
        lambda u: held[: u.size], lambda eps: held[: eps.size], CONTINUOUS,
    )


@pytest.mark.parametrize("cpus", [1, 2])
def test_no_sampler_writes_a_callers_array(on_cpus, cpus):
    on_cpus(cpus)
    held = np.full(10**6, 0.25)
    law = _held_law(held)
    x = e.sample_quantile_transform(law, e.make_rng(3), 10**6)
    m = e.sample_max_exponential_rep(e.MaxLaw(law, 10), e.make_rng(3), 10**6)
    d = e.sample_max_direct(e.MaxLaw(law, 2), e.make_rng(3), 10**5)
    assert (held == 0.25).all()
    for values in (x, m, d):
        assert (values == 0.25).all() and not np.shares_memory(values, held)


@pytest.mark.parametrize("law", LAWS)
def test_no_kernel_writes_its_argument(law):
    dist = LAWS[law]
    u = np.linspace(0.001, 0.999, 999)
    before = u.copy()
    for kernel in (dist.quantile, dist.tail):
        kernel(u)
        if law in IN_PLACE:
            kernel(u, out=np.empty_like(u))
    e.quantile(dist, u)
    e.tail_quantile(dist, u)
    assert np.array_equal(u, before)


# each in-place kernel beside the one expression it replaced, which pins its
# bits: -1/alpha of -1.0 and -2.0 take the ** operator's reciprocal and square
REFERENCES = [
    (e.uniform(-1.0, 3.0), lambda u: -1.0 + u * 4.0, lambda eps: -1.0 + (1.0 - eps) * 4.0),
    (e.exponential(2.5), lambda u: -np.log1p(-u) / 2.5, lambda eps: -np.log(eps) / 2.5),
    *[(e.pareto(a), lambda u, s=-1.0 / a: np.asarray(1.0 - u) ** s, lambda eps, s=-1.0 / a: eps ** s)
      for a in (2.0, 1.0, 0.5, 0.3)],
    (e.normal(1.0, 3.0), lambda u: 1.0 + 3.0 * ndtri(u), lambda eps: 1.0 - 3.0 * ndtri(eps)),
    (e.degenerate(2.0), lambda u: np.full_like(u, 2.0), lambda eps: np.full_like(eps, 2.0)),
]


@pytest.mark.parametrize("dist, q, tail", REFERENCES, ids=[repr(r[0]) for r in REFERENCES])
def test_a_kernel_writes_into_out_the_bits_of_its_expression(dist, q, tail):
    # into out, into its own array, and at a scalar, which the expression
    # took as a 0-d array: numpy's scalar ** may round otherwise
    u = np.linspace(0.001, 0.999, 999)
    for kernel, reference in ((dist.quantile, q), (dist.tail, tail)):
        want = reference(u).tobytes()
        out = np.empty_like(u)
        assert kernel(u, out=out) is out and out.tobytes() == want
        assert kernel(u).tobytes() == want
        assert float(kernel(0.3)) == float(reference(np.asarray(0.3)))


@pytest.mark.parametrize("law", LAWS)
@pytest.mark.parametrize("cpus", [1, 3])
def test_a_law_of_one_argument_callables_samples_the_same_bits(on_cpus, law, cpus):
    # a law built by hand whose quantile and tail take u alone: its values
    # are copied into the output, with the bits of the family's kernels
    # are copied into the output, with the bits of the family's kernels; so
    # are those of callables that take ``out`` but return an array of their own
    dist = LAWS[law]
    by_hand = Distribution(
        dist.name, dist.cdf, dist.sf, lambda u: dist.quantile(u), lambda eps: dist.tail(eps),
        dist.kind,
    )
    own_array = Distribution(
        dist.name, dist.cdf, dist.sf, lambda u, out=None: dist.quantile(u),
        lambda eps, out=None: dist.tail(eps), dist.kind,
    )
    on_cpus(cpus)
    for built in (by_hand, own_array):
        for sampler in SAMPLERS.values():
            want = sampler(dist, e.make_rng(5), 10**5 + 3)
            assert sampler(built, e.make_rng(5), 10**5 + 3).tobytes() == want.tobytes()
        want = e.sample_max_direct(e.MaxLaw(dist, 7), e.make_rng(5), 10**4)
        got = e.sample_max_direct(e.MaxLaw(built, 7), e.make_rng(5), 10**4)
        assert got.tobytes() == want.tobytes()


# the first u, or eps, whose quantile overflows, on any number of ranges
REFUSALS = [
    (e.sample_quantile_transform, "Q(u) = inf is not finite at u = 0.9365806243183282"),
    (lambda law, rng, size: e.sample_max_exponential_rep(e.MaxLaw(law, 1), rng, size),
     "Q(1 - eps) = inf is not finite at eps = 0.021760666692670183"),
    (lambda law, rng, size: e.sample_max_direct(e.MaxLaw(law, 3), rng, size),
     "Q(u) = inf is not finite at u = 0.9365806243183282"),
]


@pytest.mark.parametrize("sampler,message", REFUSALS, ids=["qt", "exprep", "direct"])
@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_refusal_names_the_first_uniform(on_cpus, sampler, message, cpus):
    on_cpus(cpus)
    with pytest.raises(DomainError) as failure:
        sampler(e.pareto(alpha=0.002), e.make_rng(3, 1), 10**5)
    assert str(failure.value) == message + " for pareto:alpha=0.002"


# most bytes a value the CLI's sample and max runs hold, traced: the
# sampler's uniforms, output and finiteness mask; the writer holds the output
# and one chunk of rows at a time, about 150 B a row, which fits in the 9 B a
# value left beside the output from about 20 chunks on
CLI_BYTES_PER_VALUE = 17
CLI_COUNT = 24 * cli._CHUNK + 5


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("command", ["sample", "max"])
def test_sample_and_max_write_in_bounded_memory(command, fmt):
    argv = {
        "sample": ["sample", "--dist", "exponential:rate=1"],
        "max": ["max", "--dist", "exponential:rate=1", "--n", "10", "--method", "exprep"],
    }[command]
    cli.run(argv + ["--count", "10", "--out", os.devnull])
    count = CLI_COUNT
    peak, code = _traced_peak(
        lambda: cli.run(argv + ["--count", str(count), "--format", fmt, "--out", os.devnull])
    )
    assert code == 0 and peak <= CLI_BYTES_PER_VALUE * count + SLACK


# a convergence report of 4096 x-points by 16 n: 16 chunks of CSV rows
NONLINEAR = [
    "nonlinear", "--base", "pareto:alpha=2", "--target", "exponential:rate=1",
    "--n", "10:10000:16", "--out", os.devnull,
]


def test_a_convergence_report_writes_json_in_the_memory_of_csv():
    # the JSON body is json's tokens joined a chunk at a time, so it holds no
    # more than the CSV rows, about 60 B a cell; the whole text at once, as
    # json.dumps builds it, takes about 200 B a cell
    assert cli.run(NONLINEAR + ["--x", "0.5:4:16"]) == 0  # imports are no part of a run
    peaks = {}
    for fmt in ("csv", "json"):
        argv = NONLINEAR + ["--x", "0.5:4:4096", "--format", fmt]
        peaks[fmt], code = _traced_peak(lambda: cli.run(argv))  # noqa: B023
        assert code == 0
    assert peaks["json"] <= peaks["csv"] + SLACK
