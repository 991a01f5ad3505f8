"""Prescribed-limit normalizers and the convergence/nondegeneracy diagnostic."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest

import evtlab as e
from evtlab.dist import CONTINUOUS, Distribution
from evtlab.errors import (
    ContractViolationError,
    DegenerateNormalizationError,
    DomainError,
    UnsupportedBaseError,
)
from evtlab.nonlinear_evt import HnVariant, NormalizerSequence, _spot_check


# ---------------------------------------------------------------- g_n builders

def test_uniform_base_and_target_is_the_exponential_map():
    # S(x) = 1 - x on [0, 1]; keep n(1-x) below the exp underflow threshold
    # so equality is exact
    for n, lo in ((1, 0.0), (10, 0.0), (1000, 0.3)):
        x = np.linspace(lo, 0.999, 200)
        g = e.build_g_n_general(e.uniform(), e.uniform(), n)
        assert np.array_equal(g(x), np.exp(-n * (1.0 - x)))


def test_uniform_base_worked_points():
    n = 100
    x = 1.0 - math.log(2.0) / n  # n(1-x) = log 2, so the argument is 1/2
    assert abs(e.build_g_n_general(e.normal(), e.uniform(), n)(x)) <= 1e-9
    got = e.build_g_n_general(e.exponential(), e.uniform(), n)(x)
    assert got == pytest.approx(math.log(2.0), abs=1e-12)


def test_uniform_base_rejects_x_at_or_above_one():
    g = e.build_g_n_general(e.uniform(), e.uniform(), 5)
    for bad in (1.0, 1.5):
        with pytest.raises(DomainError):
            g(bad)


def test_uniform_base_exponential_target_formula():
    # G_inv(exp(-n(1-x))) = -log(1 - exp(-n(1-x))) for the exponential target
    x = np.linspace(0.001, 0.999, 200)
    for n in (2, 50):
        got = e.build_g_n_general(e.exponential(), e.uniform(), n)(x)
        assert got == pytest.approx(-np.log1p(-np.exp(-n * (1.0 - x))), rel=1e-12)


def test_build_g_n_general_exponential_base_formula():
    # F(x) = 1 - e^{-x} gives g_n(x) = exp(-n e^{-x})
    x = np.linspace(1.0, 10.0, 50)
    for n in (10, 100):
        got = e.build_g_n_general(e.uniform(), e.exponential(), n)(x)
        want = np.exp(-n * np.exp(-x))
        assert np.max(np.abs(got / want - 1.0)) <= 1e-10


def test_build_g_n_general_keeps_the_base_tail_mass():
    # pareto(2) base, exponential target: g(x) = -log(-expm1(-n x**-2)), which
    # the level exp(-n S) carries to 2**-53/(n S) relative in 1 - level; at
    # x = 1e12 the level rounds to 1, and G_inv(1) is no value of g_n
    n = 10**6
    g = e.build_g_n_general(e.exponential(), e.pareto(2.0), n)
    for x, rel in ((1e5, 1e-10), (1e7, 1e-10), (1e9, 1e-6)):
        assert g(x) == pytest.approx(-math.log(-math.expm1(-n * x**-2.0)), rel=rel)
    for x, first in ((1e12, 1e12), (np.array([1e5, 1e12, 1e14]), 1e12)):
        message = f"n = {n}: the level exp(-n(1 - F(x))) rounds to 1 at x = {first!r}"
        with pytest.raises(DomainError, match=re.escape(message)):
            g(x)


def test_build_g_n_general_refuses_discrete_base():
    with pytest.raises(UnsupportedBaseError):
        e.build_g_n_general(e.uniform(), e.geometric(0.5), 10)
    with pytest.raises(UnsupportedBaseError):
        e.build_g_n_general(e.normal(), e.degenerate(0.0), 10)


def test_from_target_refuses_a_discrete_base_when_built():
    # as build_g_n_general does, not at each later call of the builder
    for base in (e.geometric(0.5), e.degenerate(0.0)):
        with pytest.raises(UnsupportedBaseError, match=f"base '{base.name}' is discrete"):
            NormalizerSequence.from_target(e.exponential(), base)


def test_build_g_n_general_validation():
    with pytest.raises(DomainError):
        e.build_g_n_general(e.uniform(), e.uniform(), 0)
    g = e.build_g_n_general(e.uniform(), e.exponential(), 5)
    with pytest.raises(DomainError):
        g(math.nan)


# ---------------------------------------------------------------- limit-law identity

def test_g_n_of_max_has_target_law():
    # the core claim: g_n(M_n) converges in law to the target
    n, reps = 10_000, 100_000
    base = e.uniform()
    law = e.MaxLaw(base, n)
    for target in (e.uniform(), e.exponential(), e.normal()):
        g = e.build_g_n_general(target, base, n)
        m = e.sample_max_exponential_rep(law, e.make_rng(97, stream=5), reps)
        ks = e.ks_one_sample(g(m), target.cdf, alpha=0.01)
        assert ks.statistic <= 0.02, target.name


def test_g_n_of_max_general_base():
    n, reps = 10_000, 100_000
    base = e.exponential()
    g = e.build_g_n_general(e.exponential(), base, n)
    m = e.sample_max_exponential_rep(e.MaxLaw(base, n), e.make_rng(101, stream=1), reps)
    ks = e.ks_one_sample(g(m), e.exponential().cdf, alpha=0.01)
    assert ks.statistic <= 0.02


# ---------------------------------------------------------------- nondegeneracy

def test_diagnostic_nondegeneracy_needs_two_distinct_x():
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    for x_grid in ([1.0], [1.0, 1.0]):
        with pytest.raises(DomainError, match="needs >= 2 distinct x values"):
            e.convergence_diagnostic(seq, x_grid=x_grid)


def test_diagnostic_constant_g_is_degenerate():
    seq = NormalizerSequence(e.uniform(), lambda n: lambda x: np.zeros(np.shape(x)))
    report = e.convergence_diagnostic(seq)
    assert report.converged and report.nondegenerate is False and not report.verdict


# g(q) as a function of (n, q); with a uniform base, the linear form's tail
# quantile is q = 1 - x/n, so the limit profile is h(x) = g(n, 1 - x/n) at
# the largest n.  Each g is nondecreasing in q, as the spot check asks.
PROFILES = {
    "-x": lambda n, q: n * (q - 1.0),
    "1e-9 (-x)": lambda n, q: 1e-9 * n * (q - 1.0),
    "step at x = 1": lambda n, q: np.where(n * (1.0 - q) <= 1.0, 1.0, 0.0),
    "-log x": lambda n, q: -np.log(n * (1.0 - q)),
    "-inf past x = 1": lambda n, q: np.where(n * (1.0 - q) <= 1.0, 0.0, -np.inf),
}


@pytest.mark.parametrize(
    "profile,nondeg_tol,nondegenerate",
    [
        ("-x", 1e-6, True),
        ("1e-9 (-x)", 1e-6, False),
        ("1e-9 (-x)", 0.0, True),
        ("step at x = 1", 0.5, True),
        ("step at x = 1", 1.0, False),  # a range of 1 does not exceed 1
        ("-log x", 1e-6, True),
        ("-inf past x = 1", 1e300, True),
    ],
)
def test_diagnostic_nondegeneracy_examples(profile, nondeg_tol, nondegenerate):
    g = PROFILES[profile]
    seq = NormalizerSequence(e.uniform(), lambda n: lambda q: g(np.asarray(n, dtype=float), q))
    report = e.convergence_diagnostic(
        seq, np.geomspace(0.1, 10.0, 20), (1024, 2048, 4096, 8192), nondeg_tol=nondeg_tol
    )
    assert report.nondegenerate is nondegenerate


def test_diagnostic_refuses_a_nan_limit_profile_that_passed_the_spot_check():
    # g is NaN only next to the middle tail quantile at the largest n,
    # 1 - 1/10_000, which falls between two of the spot check's 200 points
    q = 1.0 - 1.0 / 10_000
    seq = NormalizerSequence(
        e.uniform(), lambda n: lambda x: np.where(np.abs(x - q) < 1e-12, np.nan, x)
    )
    with pytest.raises(DomainError, match=r"^nondegeneracy h must be real numbers in .*, got nan$"):
        e.convergence_diagnostic(seq, [0.5, 1.0, 2.0], (100, 1000, 10_000))


# ---------------------------------------------------------------- diagnostics

def test_diagnostic_construction_uniform_base():
    # linear_form cancels n: h_n(x) = G_inv(e^{-x}) for every n
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    report = e.convergence_diagnostic(seq, n_grid=(32, 100, 316, 1000))
    assert report.verdict
    assert report.nondegenerate
    assert np.max(np.ptp(report.values, axis=1)) <= 1e-12
    for x, lim in report.limit_table:
        assert lim == pytest.approx(-math.log(-math.expm1(-x)), abs=1e-9)


def test_diagnostic_exact_cancellation_on_dyadic_grid():
    # powers of two make 1 - x/n, n(1 - t), and exp arguments all exact
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    x_grid = np.ldexp(1.0, np.arange(-4, 5))
    report = e.convergence_diagnostic(seq, x_grid=x_grid, n_grid=(64, 256, 1024, 4096))
    assert np.max(np.ptp(report.values, axis=1)) == 0.0


def test_diagnostic_affine_uniform_base():
    # (Q(1 - x/n) - b_n)/a_n = x - 1 for the uniform law
    seq = e.NormalizerSequence.affine(e.uniform())
    report = e.convergence_diagnostic(seq)
    assert report.verdict
    for x, lim in report.limit_table:
        assert lim == pytest.approx(x - 1.0, abs=1e-9)


def test_diagnostic_affine_geometric_fails():
    # p = 1/2: a_n = -1 always, and h_n(x) jumps with frac(log2 n); the
    # probe rows never settle, which is the non-attraction phenomenon
    seq = e.NormalizerSequence.affine(e.geometric(0.5))
    report = e.convergence_diagnostic(seq)
    assert not report.converged
    assert not report.verdict


def test_diagnostic_affine_refuses_an_n_below_3():
    # b_n and a_n take the tail mass 2/n, which is 1 at n = 2
    seq = e.NormalizerSequence.affine(e.pareto(2.0))
    with pytest.raises(DomainError, match=r"^n must be an integer >= 3, got 2$"):
        e.convergence_diagnostic(seq, n_grid=(2, 10, 100, 1000))


@pytest.mark.filterwarnings("error")
def test_diagnostic_affine_geometric_degenerate_constants():
    # p = 0.2 at n = 100 has a_n = 0; the builder itself must refuse, before
    # any division by a_n (which would warn, and warnings are errors here)
    seq = e.NormalizerSequence.affine(e.geometric(0.2))
    with pytest.raises(DegenerateNormalizationError, match="a_n = 0 at n = 100 for geometric"):
        e.convergence_diagnostic(seq, n_grid=(100, 1000, 10_000))


@pytest.mark.filterwarnings("error")
def test_diagnostic_affine_refuses_a_positive_a_n_before_dividing():
    # a tail quantile that decreases below the mass 1/8 gives a_n > 0 from
    # n = 8 on; the first such n of the column is named
    def tail(eps):
        eps = np.asarray(eps, dtype=float)
        return np.where(eps > 0.125, -np.log(eps), np.log(eps))

    law = e.exponential()
    bad = Distribution("bent", law.cdf, law.sf, law.quantile, tail, CONTINUOUS)
    seq = e.NormalizerSequence.affine(bad)
    with pytest.raises(ContractViolationError, match="a_n = .* > 0 at n = 8$"):
        e.convergence_diagnostic(seq, [0.5, 1.0], n_grid=(4, 8, 16, 32))


def test_diagnostic_builds_g_once_for_the_n_column():
    # one builder call for the whole grid, and one for the spot checks' column
    # of the first and last n
    seen = []
    target, base = e.exponential(), e.pareto(2.0)

    def builder(n):
        seen.append(n)
        return e.build_g_n_general(target, base, n)

    ns = (20, 100, 1000, 10_000)
    e.convergence_diagnostic(NormalizerSequence(base, builder), n_grid=ns)
    column, ends = seen
    assert column.shape == (4, 1) and column.ravel().tolist() == list(ns)
    assert ends.shape == (2, 1) and ends.tolist() == [[20], [10_000]]


def _defective_builder(defects):
    """A builder of g(x) = x with, at each n in ``defects``, a step down by 1
    past x = c ("drop") or a NaN past x = c ("nan")."""

    def builder(n):
        col = np.asarray(n, dtype=float)

        def g(x):
            x = np.asarray(x, dtype=float)
            out = x
            for m, kind, c in defects:
                out = np.where((col == m) & (x > c), np.nan if kind == "nan" else out - 1.0, out)
            return out

        return g

    return builder


@pytest.mark.parametrize(
    "defects,named,kind",
    [
        # both ends fail: the first n is named before the last
        ([(100, "drop", 0.9), (10_000, "drop", 0.999)], 100, "not nondecreasing"),
        ([(100, "drop", 0.9), (10_000, "nan", 0.999)], 100, "not nondecreasing"),
        # in one row a NaN is named before a step down that comes first
        ([(10_000, "drop", 0.999), (10_000, "nan", 0.9999)], 10_000, "= nan"),
        ([(100, "drop", 0.9), (100, "nan", 0.95), (10_000, "drop", 0.999)], 100, "= nan"),
    ],
)
def test_diagnostic_spot_checks_name_the_first_failure_of_the_one_row_checks(
    defects, named, kind
):
    base, ns = e.uniform(), (100, 1000, 10_000)
    builder = _defective_builder(defects)
    xs = e.default_x_grid()
    qs = e.tail_quantile(base, xs / named)
    with pytest.raises(ContractViolationError) as one_row:
        _spot_check(builder(named), qs.min(), qs.max(), "nondecreasing")
    with pytest.raises(ContractViolationError) as info:
        e.convergence_diagnostic(NormalizerSequence(base, builder), n_grid=ns)
    assert str(info.value) == str(one_row.value) and kind in str(info.value)


def test_diagnostic_saturation_names_the_exact_n():
    # uniform base: 1 - x/n rounds to 1 at n = 2**60 + 1 for every x <= 16, so
    # the level saturates there alone; the message names n itself, not the
    # double 2**60 it rounds to
    seq = e.NormalizerSequence.from_target(e.normal(), e.uniform())
    message = "n = 1152921504606846977: the level exp(-n(1 - F(x))) rounds to 1 at x = 1.0"
    with pytest.raises(DomainError, match=re.escape(message)):
        e.convergence_diagnostic(seq, n_grid=(10**3, 10**6, 10**9, 2**60 + 1))


def test_diagnostic_limit_matches_law_of_h_omega():
    # when the diagnostic converges to h, g_n(M_n) must match h(omega)
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    report = e.convergence_diagnostic(seq)
    assert report.verdict
    h = lambda w: -np.log(-np.expm1(-np.asarray(w, dtype=float)))
    omega = e.standard_exponential(e.make_rng(21), 20_000)
    n = 10_000
    g = e.build_g_n_general(e.exponential(), e.uniform(), n)
    m = e.sample_max_exponential_rep(e.MaxLaw(e.uniform(), n), e.make_rng(22), 20_000)
    assert e.ks_two_sample(h(omega), g(m), alpha=0.01).passed


def test_diagnostic_exp_form_converges_too():
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    report = e.convergence_diagnostic(seq, variant=HnVariant.EXP_FORM)
    assert report.verdict
    for x, lim in report.limit_table:
        assert lim == pytest.approx(-math.log(-math.expm1(-x)), abs=1e-4)


def test_diagnostic_grid_validation():
    seq = e.NormalizerSequence.from_target(e.uniform(), e.uniform())
    with pytest.raises(DomainError):
        e.convergence_diagnostic(seq, x_grid=[])
    with pytest.raises(DomainError):
        e.convergence_diagnostic(seq, x_grid=[-1.0, 1.0])
    with pytest.raises(DomainError):
        e.convergence_diagnostic(seq, n_grid=(100, 100))


def test_default_x_grid_window():
    xs = e.default_x_grid()
    assert xs.size == 32
    assert xs[0] == pytest.approx(1.0 / 16.0)
    assert xs[-1] == pytest.approx(16.0)


def test_a_grid_past_the_cell_budget_is_refused_before_it_is_built():
    # 2**11 x points by 2**11 + 1 n values is past 2**22 cells: refused, both
    # sizes named, in under a millisecond, and no builder call made
    seq = dataclasses.replace(  # a builder call would raise TypeError
        NormalizerSequence.from_target(e.exponential(), e.uniform()), builder=None
    )
    xs, ns = np.geomspace(0.5, 4.0, 2**11), np.arange(10, 10 + 2**11 + 1)
    message = "x_grid of 2048 points by n_grid of 2049 points is 4196352 cells; one call "
    with pytest.raises(DomainError, match=re.escape(message)):
        e.convergence_diagnostic(seq, xs, ns)
    took = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            e.convergence_diagnostic(seq, xs, ns)
        took.append(time.perf_counter() - start)
    assert min(took) < 1e-3
