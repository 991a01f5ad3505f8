"""One rule for every integer argument: n, count, n_max, size, seed, stream and q.

Each is an int or a numpy integer at or above its least value; a bool, a
float (integral or not) or a numeric string is refused, never truncated or
parsed, and an index of a law of maxima stops at 2**960.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.errors import DomainError
from evtlab.geometric import cluster_limit, floor_theta_log_n

HUGE = 2**1100  # past 2**1024, where float(n) overflows
SEQ = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
LAW = e.MaxLaw(e.uniform(), 10)
PARAMS = e.GeometricParams(0.5)


def _diagnostic(v):
    # the bad n first, or last when it is huge, so the grid stays increasing
    ns = (100, 1000, 10_000, v) if v is HUGE else (v, 10**6, 10**7, 10**8)
    return e.convergence_diagnostic(SEQ, x_grid=(0.25, 0.5), n_grid=ns)


# (entry point, the argument's name, its least value, whether 2**960 caps it)
SITES = {
    "MaxLaw": (lambda v: e.MaxLaw(e.uniform(), v), "n", 1, True),
    "h_n_eval": (lambda v: e.h_n_eval(lambda t: t, e.uniform(), v, 0.5), "n", 1, True),
    "build_g_n": (lambda v: e.build_g_n(e.exponential(), v), "n", 1, True),
    "build_g_n_general": (
        lambda v: e.build_g_n_general(e.exponential(), e.uniform(), v), "n", 1, True
    ),
    "convergence_diagnostic": (_diagnostic, "n", 1, True),
    "norming_constants": (lambda v: e.norming_constants(e.pareto(1.0), v), "n", 3, True),
    "sample_max_direct": (lambda v: e.sample_max_direct(LAW, e.make_rng(0), v), "count", 1, False),
    "sample_max_exponential_rep": (
        lambda v: e.sample_max_exponential_rep(LAW, e.make_rng(0), v), "count", 1, False
    ),
    "sample_quantile_transform": (
        lambda v: e.sample_quantile_transform(e.uniform(), e.make_rng(0), v), "count", 1, False
    ),
    "floor_theta_log_n": (lambda v: floor_theta_log_n(PARAMS, v), "n", 1, False),
    "frac_log_search": (lambda v: e.frac_log_search(1.0, 0.0, 0.5, v), "n_max", 1, False),
    "default_x_grid": (lambda v: e.default_x_grid(v), "count", 1, False),
    "uniform_open": (lambda v: e.uniform_open(e.make_rng(0), v), "size", 0, False),
    "standard_exponential": (lambda v: e.standard_exponential(e.make_rng(0), v), "size", 0, False),
    "make_rng seed": (lambda v: e.make_rng(v), "seed", 0, False),
    "make_rng stream": (lambda v: e.make_rng(0, v), "stream", 0, False),
}
BAD = {"2.5": 2.5, "100.7": 100.7, "True": True, "'3'": "3", "0": 0, "-1": -1}
CASES = [
    (site, label, value)
    for site, (_, _, least, capped) in SITES.items()
    for label, value in [*BAD.items(), *([("2**1100", HUGE)] if capped else [])]
    if not (least == 0 and value == 0)
]


@pytest.mark.parametrize(
    "site,value", [(s, v) for s, _, v in CASES], ids=[f"{s}-{label}" for s, label, _ in CASES]
)
def test_a_bad_integer_is_a_domain_error(site, value):
    call, name, _, _ = SITES[site]
    with pytest.raises(DomainError, match=rf"^({name} must be |n = \d+ is too large)"):
        call(value)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(17, 2**62 - 4), st.integers(0, 2**63 - 1), st.integers(1, 64))
def test_a_numpy_integer_gives_the_bits_of_its_int(n, seed, small):
    def outputs(cast):
        rng = e.make_rng(cast(seed), cast(small))
        base = e.pareto(2.0)
        ns = np.array([n, n + 1, n + 2, n + 3], dtype=np.int64)
        grid = ns if cast is np.int64 else tuple(int(m) for m in ns)
        return [
            e.sample_max_exponential_rep(e.MaxLaw(base, cast(n)), rng, cast(small)).tolist(),
            e.sample_max_direct(e.MaxLaw(base, cast(small)), rng, cast(small)).tolist(),
            e.sample_quantile_transform(base, rng, cast(small)).tolist(),
            e.h_n_eval(lambda t: t, base, cast(n), 0.5),
            e.build_g_n(e.exponential(), cast(n))(np.array([0.5, 1.0 - 1e-9])).tolist(),
            e.norming_constants(base, cast(n)),
            floor_theta_log_n(PARAMS, cast(n)),
            e.frac_log_search(1.0, 0.25, 0.5, cast(10**6)),
            e.convergence_diagnostic(
                e.NormalizerSequence.from_target(e.exponential(), base), n_grid=grid
            ).values.tolist(),
            e.convergence_diagnostic(
                e.NormalizerSequence.affine(base), n_grid=grid
            ).values.tolist(),
        ]

    assert outputs(np.int64) == outputs(int)


@pytest.mark.parametrize("draw", [e.uniform_open, e.standard_exponential])
def test_a_size_is_an_integer_or_a_tuple_of_them(draw):
    # 2.5, True and "3" reached numpy, which raised a bare TypeError or drew one value
    for size in [(2, 2.5), (True, 3), ("3",), (-1,), [2, 3]]:
        with pytest.raises(DomainError, match="^size must be "):
            draw(e.make_rng(0), size)
    for size, shape in [((2, 3), (2, 3)), ((), ()), (np.int64(4), (4,)), (0, (0,))]:
        assert draw(e.make_rng(0), size).shape == shape
    assert np.array_equal(draw(e.make_rng(0), (np.int64(2), 3)), draw(e.make_rng(0), (2, 3)))


@pytest.mark.parametrize("q", [2.5, True, "3"], ids=["2.5", "True", "'3'"])
def test_cluster_limit_refuses_a_q_that_is_no_integer(q):
    # 2.5 gave 0.8825 and True ran as q = 1 (0.7022); "3" raised a bare TypeError
    with pytest.raises(DomainError, match="^q must be an integer"):
        cluster_limit(PARAMS, q, 0.5)
