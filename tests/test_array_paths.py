"""Property tests for the array paths of the grid diagnostics.

Each diagnostic is one array expression, and each scalar function is the
one-point grid of the same code.  Three kinds of property pin that down:

* the geometric floors equal an exact integer/``Fraction`` reference at
  every n in [1, 2**62] and every tail mass, including the exact powers
  ``p**k`` and their neighbours, where the float floor alone is ambiguous;
* each scalar wrapper equals its grid entry bit for bit.  A wrapper that
  passed a 0-d array would not: numpy's ``**`` can round a 0-d argument
  differently from a 1-d one;
* each grid stays within a few ulps of the per-point loop of scalar
  ``tail_quantile`` calls it replaced.  The two round differently (numpy's
  array ``**`` and ``expm1`` against the C library's), so the bound is a few
  units of 2**-53.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.geometric import GeometricParams, floor_theta_log_n

PS = (0.5, 0.25, 0.3, 0.2)
N_MAX = 2**62
SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)
ULP = 2.0**-53


def exact_floor_log(u: Fraction, p: float) -> int:
    """floor(log u / log p) for rational u in (0, 1]: the largest k >= 0 with
    u <= p**k, p taken at its binary value."""
    pk = Fraction(p)
    k = max(0, math.floor(math.log(float(u)) / math.log(p)) - 1)
    while k > 0 and u > pk**k:
        k -= 1
    while u <= pk ** (k + 1):
        k += 1
    return k


@st.composite
def n_near_a_power(draw, p):
    """round(p**-k) + d for d in {-1, 0, 1}: n where theta*log n is near k."""
    k = draw(st.integers(0, math.floor(math.log(N_MAX) / -math.log(p))))
    n = round(p**-k) + draw(st.sampled_from((-1, 0, 1)))
    return min(max(n, 1), N_MAX)


@st.composite
def p_and_ns(draw):
    p = draw(st.sampled_from(PS))
    n = st.one_of(st.integers(1, N_MAX), n_near_a_power(p))
    ns = sorted(set(draw(st.lists(n, min_size=1, max_size=24))))
    return p, ns


@SETTINGS
@given(p_and_ns(), st.integers(-2, 3))
@example((0.5, [1, 2, 2**31 - 1, 2**31, 2**62]), 0)
def test_oscillation_levels_equal_the_exact_floor(p_ns, q):
    p, ns = p_ns
    params = GeometricParams(p)
    report = e.oscillation_scan(params, q, ns)
    floors = (report.levels - q).tolist()
    assert floors == [exact_floor_log(Fraction(1, n), p) for n in ns]
    assert floors == [floor_theta_log_n(params, n) for n in ns]


@SETTINGS
@given(p_and_ns(), st.integers(-2, 3))
def test_oscillation_probs_match_the_per_point_loop(p_ns, q):
    p, ns = p_ns
    report = e.oscillation_scan(GeometricParams(p), q, ns)
    for n, m, prob in zip(ns, report.levels.tolist(), report.probs.tolist()):
        if m < 0:
            assert prob == 0.0
            continue
        exponent = n * math.log1p(-(p ** (m + 1)))
        # a relative error of a few ulps in the exponent, and one in exp
        rel = 8 * ULP * (1.0 + abs(exponent))
        assert prob == pytest.approx(math.exp(exponent), rel=rel, abs=1e-300)


@st.composite
def p_and_tail_masses(draw):
    p = draw(st.sampled_from(PS))
    power = st.integers(1, 200).map(lambda k: p**k)
    near_power = st.tuples(power, st.sampled_from((0.0, 1.0))).map(
        lambda t: float(np.nextafter(t[0], t[1]))
    )
    mass = st.one_of(
        st.floats(1e-200, 1.0, exclude_max=True), power, near_power
    ).filter(lambda u: 0.0 < u < 1.0)
    return p, draw(st.lists(mass, min_size=1, max_size=24))


@SETTINGS
@given(p_and_tail_masses())
@example((0.5, [0.5, 0.25, 2.0**-60, 1.0 / 3.0]))
def test_geom_quantile_arrays_equal_the_exact_floor(p_us):
    p, us = p_us
    params = GeometricParams(p)
    got = e.geom_quantile(params, np.array(us))
    assert got.tolist() == [float(exact_floor_log(Fraction(u), p)) for u in us]
    assert [e.geom_quantile(params, u) for u in us] == got.tolist()
    if len(us) % 2 == 0:  # the same entries in a 2-d layout
        shaped = e.geom_quantile(params, np.array(us).reshape(2, -1))
        assert shaped.ravel().tolist() == got.tolist()


LAWS = {
    "pareto2": e.pareto(2.0),
    "pareto0.7": e.pareto(0.7),
    "exponential": e.exponential(3.0),
    "normal": e.normal(),
    "uniform": e.uniform(),
}
FACTORS = (0.25, 0.5, 2.0, 3.0, 4.0)
eps_grids = st.lists(
    st.floats(1e-12, 1e-2), min_size=4, max_size=6, unique=True
).map(lambda xs: sorted(xs, reverse=True))
uv_pairs = st.lists(
    st.tuples(st.sampled_from(FACTORS), st.sampled_from(FACTORS)).filter(
        lambda uv: uv[0] != uv[1]
    ),
    min_size=1,
    max_size=3,
)


@SETTINGS
@given(st.sampled_from(sorted(LAWS)), eps_grids, uv_pairs)
@example("pareto2", [0.01, 1e-3, 1e-4, 1e-5], [(2.0, 4.0)])  # 1 - (1 - 0.01) != 0.01
def test_dehaan_ratio_is_its_grid_entry(law, grid, pairs):
    dist = LAWS[law]
    values = e.dehaan_test(dist, grid, pairs).values
    for i, (u, v) in enumerate(pairs):
        for j, eps in enumerate(grid):
            assert e.dehaan_ratio(dist, u, v, eps) == values[i, j]


@SETTINGS
@given(st.sampled_from(sorted(LAWS)), eps_grids, uv_pairs)
def test_dehaan_and_rho_match_the_per_point_loop(law, grid, pairs):
    dist = LAWS[law]

    def t(mass):
        return e.tail_quantile(dist, mass)

    values = e.dehaan_test(dist, grid, pairs).values
    for i, (u, v) in enumerate(pairs):
        for j, eps in enumerate(grid):
            t0 = t(eps)
            ratio = (t(eps * u) - t0) / (t(eps * v) - t0)
            assert values[i, j] == pytest.approx(ratio, rel=64 * ULP)
    per_scale = e.estimate_rho(dist, grid).per_scale
    for eps, rho_hat in per_scale:
        r0 = t(eps) - t(2.0 * eps)
        r1 = t(2.0 * eps) - t(4.0 * eps)
        loop = math.log(r1 / r0) / math.log(2.0)
        assert rho_hat == pytest.approx(loop, abs=64 * ULP)


SEQUENCES = {
    "uniform-exponential": (e.uniform(), e.exponential()),
    "pareto2-normal": (e.pareto(2.0), e.normal()),
    "exponential-pareto1": (e.exponential(), e.pareto(1.0)),
}
n_grids = st.lists(
    st.integers(10, 10**6), min_size=4, max_size=5, unique=True
).map(sorted)
x_grids = st.lists(st.floats(1e-3, 9.0), min_size=2, max_size=6, unique=True)


@SETTINGS
@given(
    st.sampled_from(sorted(SEQUENCES)),
    st.sampled_from(list(e.HnVariant)),
    x_grids,
    n_grids,
)
def test_h_n_eval_is_its_grid_entry(name, variant, xs, ns):
    base, target = SEQUENCES[name]
    seq = e.NormalizerSequence.from_target(target, base)
    values = e.convergence_diagnostic(seq, xs, ns, variant).values
    for j, n in enumerate(ns):
        g = seq.builder(n)
        for i, x in enumerate(xs):
            assert e.h_n_eval(g, base, n, x, variant) == values[i, j]


@SETTINGS
@given(
    st.sampled_from(sorted(SEQUENCES)),
    st.sampled_from(list(e.HnVariant)),
    x_grids,
    n_grids,
)
def test_convergence_diagnostic_matches_the_per_point_loop(name, variant, xs, ns):
    base, target = SEQUENCES[name]
    seq = e.NormalizerSequence.from_target(target, base)
    values = e.convergence_diagnostic(seq, xs, ns, variant).values
    for j, n in enumerate(ns):
        g = seq.builder(n)
        for i, x in enumerate(xs):
            mass = -math.expm1(-x / n) if variant is e.HnVariant.EXP_FORM else x / n
            want = g(e.tail_quantile(base, mass))
            assert values[i, j] == pytest.approx(want, rel=64 * ULP)


AFFINE_BASES = {
    "uniform": e.uniform(),
    "exponential": e.exponential(),
    "pareto2": e.pareto(2.0),
    "geometric0.5": e.geometric(0.5),
}


@SETTINGS
@given(st.sampled_from(sorted(AFFINE_BASES)), x_grids, n_grids)
@example("pareto2", [0.5, 1.0, 2.0], [10, 100, 10**5, 10**6])
def test_affine_diagnostic_equals_the_per_n_loop(name, xs, ns):
    # the grid's array constants and the per-n loop of norming_constants give
    # the same bits, so == holds, not just a few ulps
    base = AFFINE_BASES[name]
    values = e.convergence_diagnostic(e.NormalizerSequence.affine(base), xs, ns).values
    for j, n in enumerate(ns):
        nc = e.norming_constants(base, n)
        loop = (e.tail_quantile(base, np.array(xs) / n) - nc.b_n) / nc.a_n
        assert values[:, j].tolist() == loop.tolist()
