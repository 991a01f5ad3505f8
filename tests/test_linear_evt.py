"""The k_rho family, attraction criterion, rho estimate, and the limit law."""

import argparse
import dataclasses
import json
import math
import re
import time
import warnings
from decimal import Decimal, localcontext

import numpy as np
import pytest

import evtlab as e
from evtlab import cli
from evtlab.dist import CONTINUOUS, Distribution
from evtlab.errors import (
    ContractViolationError,
    DegenerateNormalizationError,
    DegenerateTailError,
    DomainError,
    InconsistentTailError,
)
from evtlab.linear_evt import DEFAULT_EPS_GRID, DEFAULT_UV_GRID


# ---------------------------------------------------------------- k_rho

def test_k_rho_examples():
    assert e.k_rho(0.0, math.e) == 1.0
    for rho in (-2.0, -0.5, 0.0, 1e-9, 1.0, 3.0):
        assert e.k_rho(rho, 1.0) == 0.0
    assert e.k_rho(1.0, 3.0) == 2.0
    assert abs(e.k_rho(1e-8, 2.0) - math.log(2.0)) <= 1e-7


def test_k_rho_continuity_bound_near_zero():
    # |k_rho(u) - log u| <= |rho| (log u)^2 e^{|rho log u|} / 2
    u = np.geomspace(0.01, 100.0, 50)
    for rho in (1e-8, -1e-8, 1e-7, -1e-7):
        lhs = np.abs(e.k_rho(rho, u) - np.log(u))
        bound = abs(rho) * np.log(u) ** 2 * np.exp(abs(rho) * np.abs(np.log(u))) / 2.0
        # the lhs itself rounds at ulp(log u) ~ 1e-15; cushion above that
        assert np.all(lhs <= bound + 1e-14)


def test_k_rho_strictly_increasing():
    u = np.geomspace(0.05, 50.0, 200)
    for rho in (-1.5, -0.5, -1e-7, 0.0, 1e-7, 0.5, 2.0):
        assert np.all(np.diff(e.k_rho(rho, u)) > 0.0)


def test_k_rho_validation():
    with pytest.raises(DomainError):
        e.k_rho(0.5, 0.0)
    with pytest.raises(DomainError):
        e.k_rho(0.5, -1.0)
    with pytest.raises(DomainError):
        e.k_rho(math.nan, 1.0)


@pytest.mark.parametrize(
    "rho,limit",
    [
        (-1e-7, 1e7), (1e-7, math.inf), (-1e-6, 1e6), (1e-6, math.inf),
        (-5e-324, math.inf), (-2e-6, 5e5), (2e-6, math.inf),
    ],
)
def test_k_rho_at_infinity_is_its_limit(rho, limit):
    # k_rho(inf) = -1/rho for rho < 0 (inf once that overflows) and inf for
    # rho > 0, inside the series band |rho| <= 1e-6 as outside it
    assert e.k_rho(rho, math.inf) == limit
    out = e.k_rho(rho, [2.0, math.inf, 0.5])
    assert out.tolist() == [e.k_rho(rho, 2.0), limit, e.k_rho(rho, 0.5)]
    assert np.all(np.isfinite(e.k_rho(rho, [0.5, 2.0])))


@pytest.mark.parametrize("rho", [math.inf, -math.inf, math.nan])
def test_non_finite_rho_is_refused(rho):
    with pytest.raises(DomainError, match=r"rho must be a real number in \(-inf, inf\)"):
        e.k_rho(rho, 2.0)
    with pytest.raises(DomainError, match=r"rho must be a real number in \(-inf, inf\)"):
        e.limit_cdf(rho, 0.5)


# ---------------------------------------------------------------- de Haan ratios

def test_dehaan_uniform_ratios_are_exact():
    # tail masses near 1 cost ~2e-16/eps, so stay at moderate eps
    values = e.dehaan_test(e.uniform(), (1e-2, 5e-3, 2e-3, 1e-3), [(2.0, 4.0)]).values
    assert values == pytest.approx(np.full((1, 4), 1.0 / 3.0), abs=1e-12)


def test_dehaan_exponential_ratios_are_exact():
    pairs = ((2.0, 4.0), (0.25, 4.0), (3.0, 0.5))
    values = e.dehaan_test(e.exponential(), (1e-2, 1e-3, 1e-4, 1e-5), pairs).values
    for row, (u, v) in zip(values, pairs):
        assert row == pytest.approx(np.full(4, math.log(u) / math.log(v)), abs=1e-11)


def test_dehaan_pareto_ratio_limit():
    limit = (2.0**-0.5 - 1.0) / (4.0**-0.5 - 1.0)
    report = e.dehaan_test(e.pareto(2.0), (1e-3, 1e-4, 1e-5, 1e-6), [(2.0, 4.0)])
    got = report.values[0, -1]
    assert got == pytest.approx(limit, abs=1e-3)
    assert got == pytest.approx(0.5857864, abs=1e-3)


def test_dehaan_ratios_are_scale_free_for_analytic_families():
    for dist in (e.uniform(), e.exponential(), e.pareto(2.0)):
        values = e.dehaan_test(dist, (1e-2, 1e-3, 1e-4, 1e-5), [(2.0, 4.0)]).values
        assert np.abs(np.diff(values[0, :3])).max() <= 1e-12, dist.name


def test_dehaan_test_pair_and_scale_validation():
    scales = (1e-2, 1e-3, 1e-4, 1e-5)
    with pytest.raises(DomainError, match="v = 1 makes the denominator identically zero"):
        e.dehaan_test(e.uniform(), scales, [(2.0, 1.0)])
    with pytest.raises(DomainError, match=r"^u must be a real number in \(0, inf\)"):
        e.dehaan_test(e.uniform(), scales, [(-2.0, 4.0)])
    with pytest.raises(DomainError, match=r"^eps \* 4.0 must stay below 1, got eps=0.3$"):
        e.dehaan_test(e.uniform(), (0.3, 0.1, 0.01, 0.001), [(2.0, 4.0)])
    with pytest.raises(DegenerateTailError):
        e.dehaan_test(e.degenerate(0.0), scales, [(2.0, 4.0)])


# ---------------------------------------------------------------- dehaan_test

# a bad u or v and the message that names it; "'4'" is the string "4"
BAD_UV = {
    "bool": (True, "True"),
    "string": ("4", "'4'"),
    "nan": (math.nan, "nan"),
    "zero": (0.0, "0.0"),
    "inf": (math.inf, "inf"),
}


@pytest.mark.parametrize("at", range(4), ids=["u0", "v0", "u1", "v1"])
@pytest.mark.parametrize("label", BAD_UV)
def test_the_pair_check_names_the_first_bad_u_or_v(label, at):
    # the first bad entry in pair order, u before v, is named, whatever comes
    # after it: a second bad entry, or a v = 1, which is checked only once
    # every entry is a real number in (0, inf)
    bad, text = BAD_UV[label]
    flat = [2.0, 4.0, 0.5, 3.0, 0.25, 1.0, 0.125, 8.0]
    flat[at] = bad
    for second in (False, True):
        if second:
            flat[at + 2] = True
        pairs = list(zip(flat[0::2], flat[1::2]))
        with pytest.raises(DomainError) as failure:
            e.dehaan_test(e.pareto(2.0), uv_grid=pairs)
        assert str(failure.value) == f"{'uv'[at % 2]} must be a real number in (0, inf), got {text}"


def test_the_pair_check_takes_every_real_and_refuses_v_at_1():
    # ints, numpy reals and lists are taken as float pairs, with the ratios
    # of the float pairs; v = 1 is refused once every entry is real
    want = e.dehaan_test(e.pareto(2.0), uv_grid=[(2.0, 4.0), (0.5, 3.0)])
    for pairs in ([(2, 4), (0.5, 3)], [(np.float64(2.0), np.int64(4)), [0.5, 3.0]]):
        got = e.dehaan_test(e.pareto(2.0), uv_grid=pairs)
        assert got.points == want.points and got.values.tobytes() == want.values.tobytes()
        assert all(type(w) is float for pair in got.points for w in pair)
    for pairs in ([(2.0, 1.0)], [(2.0, 4.0), (0.5, 1)], [(2.0, 1.0), (3.0, 1.0)]):
        with pytest.raises(DomainError, match="^v = 1 makes the denominator identically zero$"):
            e.dehaan_test(e.pareto(2.0), uv_grid=pairs)


def test_dehaan_test_uniform_converges_to_k1_ratios():
    report = e.dehaan_test(e.uniform())
    assert report.converged
    for (u, v), lim in report.limit_table:
        assert lim == pytest.approx((1.0 - u) / (1.0 - v), abs=1e-8)
        assert lim == pytest.approx(e.k_rho(1.0, u) / e.k_rho(1.0, v), abs=1e-8)


def test_dehaan_test_exponential_converges_to_k0_ratios():
    report = e.dehaan_test(e.exponential())
    assert report.converged
    for (u, v), lim in report.limit_table:
        assert lim == pytest.approx(math.log(u) / math.log(v), abs=1e-8)


def test_dehaan_test_geometric_does_not_converge():
    # p = 1/2: Q(1 - s) = floor(log2(1/s)), so the increment against u = 3
    # flips between -1 and -2 with frac(log2(1/eps)) while v = 4 shifts by
    # exactly -2; the ratio oscillates between 1/2 and 1 at all scales.
    report = e.dehaan_test(e.geometric(0.5), uv_grid=((3.0, 4.0), (3.0, 2.0)))
    assert not report.converged
    for j, eps in enumerate(report.scales):
        x = math.log2(1.0 / eps)
        num = math.floor(x - math.log2(3.0)) - math.floor(x)
        assert report.values[0, j] == num / -2.0
        assert report.values[1, j] == num / -1.0
    flat = report.values[0]
    assert flat.min() == 0.5 and flat.max() == 1.0


def test_dehaan_test_propagates_degenerate_tail_with_context():
    # p = 0.3 has flat quantile steps wide enough to pin u and 1 together
    with pytest.raises(DegenerateTailError, match=r"\(u, v, eps\)"):
        e.dehaan_test(e.geometric(0.3))


def test_dehaan_test_grid_validation():
    with pytest.raises(DomainError):
        e.dehaan_test(e.uniform(), eps_grid=[1e-2, 1e-3, 1e-4])  # too few
    with pytest.raises(DomainError):
        e.dehaan_test(e.uniform(), eps_grid=[1e-4, 1e-3, 1e-2, 1e-1])  # increasing
    with pytest.raises(DomainError):
        e.dehaan_test(e.uniform(), uv_grid=())


def test_default_uv_grid_shape():
    assert len(DEFAULT_UV_GRID) == 12
    assert all(u != v for u, v in DEFAULT_UV_GRID)
    assert len(DEFAULT_EPS_GRID) == 16
    assert np.all(np.diff(DEFAULT_EPS_GRID) < 0.0)
    assert not DEFAULT_EPS_GRID.flags.writeable
    with pytest.raises(ValueError):
        DEFAULT_EPS_GRID[0] = 0.5


# ---------------------------------------------------------------- estimate_rho

def test_estimate_rho_analytic_families():
    for dist, true_rho in ((e.uniform(), 1.0), (e.exponential(), 0.0),
                           (e.pareto(2.0), -0.5)):
        est = e.estimate_rho(dist)
        assert abs(est.rho - true_rho) <= 1e-9, dist.name
        assert est.spread <= 1e-9
        assert est.rho == est.per_scale[-1][1]
        assert len(est.per_scale) == 16
        for _, r in est.per_scale:
            assert abs(r - true_rho) <= 1e-9


def test_estimate_rho_degenerate_tail():
    # geometric p = 0.2 at eps = 0.01: both tail masses sit on one step
    with pytest.raises(DegenerateTailError):
        e.estimate_rho(e.geometric(0.2), eps_grid=[0.01])


def test_estimate_rho_inconsistent_tail():
    # crafted quantile whose tail increment changes sign across scales
    def tail(eps):
        s = np.asarray(eps, dtype=float)
        return np.where(s > 0.005, -s, s)

    def q(u):
        return tail(1.0 - np.asarray(u, dtype=float))

    crafted = Distribution(
        "crafted", lambda x: x, lambda x: 1.0 - x, q, tail, CONTINUOUS
    )
    with pytest.raises(InconsistentTailError):
        e.estimate_rho(crafted, eps_grid=[1e-2, 1e-3, 1e-4, 1e-5])


def test_estimate_rho_validation():
    with pytest.raises(DomainError):
        e.estimate_rho(e.uniform(), w=1.0)
    with pytest.raises(DomainError):
        e.estimate_rho(e.uniform(), eps_grid=[0.4])  # 2*w*eps >= 1


def test_estimate_rho_at_eps_whose_level_rounds_to_one():
    # 1 - 1e-17 == 1.0, but the tail masses themselves are exact: pareto(2)
    # gives rho_hat = -1/2 and exponential 0 to rounding at every scale
    grid = [1e-2, 1e-8, 1e-17, 1e-18]
    for dist, rho in ((e.pareto(2.0), -0.5), (e.exponential(), 0.0)):
        est = e.estimate_rho(dist, grid)
        assert [x for x, _ in est.per_scale] == grid
        for _, rho_hat in est.per_scale:
            assert abs(rho_hat - rho) <= 1e-13
        assert est.spread <= 1e-13


def test_estimate_rho_refuses_a_non_finite_tail_quantile():
    with pytest.raises(DomainError, match=r"not finite at eps = .* for pareto:alpha=0.01"):
        e.estimate_rho(e.pareto(0.01))


# ---------------------------------------------------------------- norming constants

def test_norming_constants_examples():
    for n in (10, 100, 1000):
        nc = e.norming_constants(e.exponential(), n)
        assert nc.a_n == pytest.approx(-math.log(2.0), abs=1e-12)
        assert nc.b_n == pytest.approx(math.log(n), abs=1e-12)
    nc = e.norming_constants(e.uniform(), 100)
    assert nc.b_n == pytest.approx(0.99, abs=1e-15)
    assert nc.a_n == pytest.approx(-0.01, abs=1e-15)
    nc = e.norming_constants(e.pareto(1.0), 10)
    assert nc.b_n == pytest.approx(10.0, rel=1e-12)
    assert nc.a_n == pytest.approx(-5.0, rel=1e-12)


def test_norming_constants_sign_and_validation():
    for dist in (e.uniform(), e.exponential(), e.pareto(2.0), e.normal()):
        assert e.norming_constants(dist, 50).a_n < 0.0
    with pytest.raises(DomainError):
        e.norming_constants(e.uniform(), 2)


def test_norming_constants_from_tail_masses_at_huge_n():
    # pareto(1): b_n = n and a_n = -n/2 at every n, not only where 1 - 1/n
    # keeps the bits of 1/n
    for n in (10**7, 10**15, 10**20, 2**960):
        nc = e.norming_constants(e.pareto(1.0), n)
        assert nc.b_n == pytest.approx(float(n), rel=1e-15)
        assert nc.a_n == pytest.approx(-float(n) / 2.0, rel=1e-15)
    nc = e.norming_constants(e.exponential(), 10**288)
    assert nc.b_n == pytest.approx(288.0 * math.log(10.0), rel=1e-15)
    assert nc.a_n == pytest.approx(-math.log(2.0), rel=1e-12)
    with pytest.raises(DomainError, match=r"too large.*2\*\*960"):
        e.norming_constants(e.pareto(1.0), 2**960 + 1)


@pytest.mark.parametrize("n", [3, 2**53 + 1, 2**960])
def test_norming_constants_at_the_edges_of_n(n):
    # pareto(1)'s tail quantile is 1/eps, so b_n = 1/(1/n) and a_n = 1/(2/n) - b_n
    # in doubles; n itself is kept as the int it was given, 2**53 + 1 too
    b = 1.0 / (1.0 / n)
    a = 1.0 / (2.0 / n) - b
    for given in [n, np.int64(n)] if n < 2**63 else [n]:
        nc = e.norming_constants(e.pareto(1.0), given)
        assert type(nc.n) is int and nc.n == n
        assert (nc.a_n, nc.b_n) == (a, b)
    # the affine normalizer takes the same constants at a column of n
    g = e.NormalizerSequence.affine(e.pareto(1.0)).builder(np.array([[3], [n]], dtype=object))
    assert g(np.zeros((2, 1))).ravel().tolist() == [-3.0 / -1.5, -b / a]


@pytest.mark.parametrize(
    "n,message",
    [(2, "n must be an integer >= 3, got 2"), (2**960 + 1, f"n = {2**960 + 1} is too large")],
)
def test_norming_constants_refuse_n_past_the_edges(n, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}"):
        e.norming_constants(e.pareto(1.0), n)


def test_norming_constants_degenerate_geometric():
    # p = 0.2, n = 100: tail masses 0.01 and 0.02 share the quantile step
    with pytest.raises(DegenerateNormalizationError, match="flat"):
        e.norming_constants(e.geometric(0.2), 100)
    # p = 0.5 never degenerates: the step between 2/n and 1/n is always 1
    nc = e.norming_constants(e.geometric(0.5), 100)
    assert (nc.a_n, nc.b_n) == (-1.0, 6.0)


def test_norming_constants_detects_non_monotone_quantile():
    bad = Distribution("bad", lambda x: x, lambda x: 1.0 - x,
                       lambda u: -np.asarray(u, dtype=float),
                       lambda eps: np.asarray(eps, dtype=float) - 1.0, CONTINUOUS)
    with pytest.raises(ContractViolationError):
        e.norming_constants(bad, 10)


# ---------------------------------------------------------------- limit law

def test_limit_cdf_anchor_at_zero():
    for rho in (-2.0, -1.0, -0.5, 0.0, 1e-9, 0.5, 1.0, 3.0):
        assert abs(e.limit_cdf(rho, 0.0) - (1.0 - math.exp(-1.0))) <= 1e-12


def test_limit_cdf_worked_values():
    assert e.limit_cdf(0.0, 1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)
    assert e.limit_cdf(-1.0, 1.0) == pytest.approx(1.0 - math.exp(-2.0), abs=1e-14)


def test_limit_cdf_is_a_cdf_with_clamps():
    x = np.linspace(-50.0, 50.0, 2001)
    for rho in (-1.0, -0.5, 0.0, 0.5, 1.0):
        g = e.limit_cdf(rho, x)
        assert np.all(np.diff(g) >= 0.0)
        assert np.all((g >= 0.0) & (g <= 1.0))
        # negative rho only reaches 0 polynomially on the left
        assert g[0] <= 0.05 and g[-1] >= 0.95
    # rho > 0: support is bounded below at -1/(rho k_rho(2))
    assert e.limit_cdf(1.0, -1.0) == 0.0
    assert e.limit_cdf(1.0, -1.5) == 0.0
    # rho < 0: support is bounded above at -1/(rho k_rho(2))
    assert e.limit_cdf(-1.0, 2.0) == 1.0
    assert e.limit_cdf(-1.0, 5.0) == 1.0


def _limit_cdf_reference(rho: float, x: float) -> float:
    # 1 - exp(-(1 + x(2**rho - 1))**(1/rho)) at 50 digits, through
    # log(1 + x(2**rho - 1)) = rho log 2 + log(x + (1 - x) 2**-rho)
    with localcontext() as ctx:
        ctx.prec = 50
        r, xd = Decimal(rho), Decimal(x)
        inner = xd + (1 - xd) * Decimal(2) ** -r
        return float(1 - (-(Decimal(2).ln() + inner.ln() / r).exp()).exp())


@pytest.mark.parametrize(
    "rho,x,ref",
    [
        # 1 - exp(-2**x) is 2**x to within 2**(x - 1) relative
        (0.0, -60.0, 2.0**-60),
        (0.0, -1000.0, 2.0**-1000),  # 9.33e-302; 1 - exp(-v) gave 0.0
        (-0.5, -1e6, _limit_cdf_reference(-0.5, -1e6)),  # 1 - exp(-v) was 1.0e-6 off
    ],
)
def test_limit_cdf_keeps_its_lower_tail(rho, x, ref):
    assert abs(e.limit_cdf(rho, x) - ref) <= 1e-15 * ref
    assert abs(e.limit_cdf(rho, np.array([x, 0.0]))[0] - ref) <= 1e-15 * ref


def test_limit_cdf_at_a_subnormal_rho_is_the_gumbel_law():
    # t = x(2**rho - 1) is subnormal there, and log1p(t)/rho kept none of
    # its bits: limit_cdf(5e-324, -3) gave 0.0486 (0.1266 before) for 0.1175
    x = np.array([-1e3, -3.0, 0.0, 1.0, 40.0])
    for rho in (5e-324, -5e-324, 2.0**-1023):
        assert np.array_equal(e.limit_cdf(rho, x), e.limit_cdf(0.0, x))
    assert e.limit_cdf(2.0**-1022, -3.0) == pytest.approx(e.limit_cdf(0.0, -3.0), rel=1e-15)


def test_limit_cdf_takes_0d_input_and_leaves_x_alone():
    x = np.linspace(-3.0, 3.0, 13)
    for rho in (-1.0, 0.0, 0.5, 2000.0):
        got = e.limit_cdf(rho, x)
        assert np.array_equal(x, np.linspace(-3.0, 3.0, 13))
        at_0d = [e.limit_cdf(rho, np.array(v)) for v in x]
        assert all(type(g) is float for g in at_0d)
        assert at_0d == pytest.approx(got.tolist(), rel=1e-15, abs=0.0)


@pytest.mark.parametrize(
    "rho,xs",
    [
        # 2**rho itself overflows
        (1024.5, [1e-300, 1e-3, 0.25, 0.5, 1.0, 2.0, 6.0, 1e300]),
        (2000.0, [1e-300, 1e-3, 0.25, 0.5, 1.0, 2.0, 6.0, 1e300]),
        (1e308, [1e-300, 1e-3, 0.25, 0.5, 1.0, 2.0, 6.0, 1e300]),
        # 2**rho is finite, x(2**rho - 1) is not
        (1000.0, [1e10, 1e100, 1e300]),
        (2.0, [1e308]),
    ],
)
def test_limit_cdf_where_x_times_2_to_the_rho_overflows(rho, xs):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = e.limit_cdf(rho, np.array(xs))
        edges = e.limit_cdf(rho, np.array([-np.inf, -1.0, 0.0, np.inf]))
    for x, g in zip(xs, got):
        ref = _limit_cdf_reference(rho, x)
        assert abs(g - ref) <= 2 * math.ulp(ref), (x, g, ref)
    assert edges.tolist() == [0.0, 0.0, 1.0 - math.exp(-1.0), 1.0]
    if rho == 2000.0:
        assert got[3] == pytest.approx(1.0 - math.exp(-(2.0 ** (1999 / 2000))), rel=1e-15)


def test_limit_cdf_below_the_overflow_keeps_its_formula():
    # 2**1000 is finite: the direct inverse (1 + t)**(1/rho) stays in use, with
    # no overflow, and is within 2 ulps of the 50-digit reference: log1p, the
    # division, exp and expm1 each round once, and G's condition in v is below
    # 1.  A bound, not the bits of one formula, since numpy's exp and expm1
    # round differently with and without their AVX-512 kernels
    x = np.array([-1.0, 0.0, 1e-300, 1e-10, 0.1, 0.5, 1.0, 2.0, 6.0, 100.0, 1e5])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = e.limit_cdf(1000.0, x)
    assert got[0] == 0.0
    for xi, g in zip(x[1:].tolist(), got[1:].tolist()):
        ref = _limit_cdf_reference(1000.0, xi)
        assert abs(g - ref) <= 2 * math.ulp(ref), (xi, g, ref)


def test_limit_cdf_monte_carlo_oracle():
    # frequency of k_rho(omega)/k_rho(2) <= x within 3 binomial sigma
    omega = e.standard_exponential(e.make_rng(83), 1_000_000)
    for rho in (-0.5, 0.0, 1.0):
        z = e.k_rho(rho, omega) / e.k_rho(rho, 2.0)
        for x in (-0.5, 0.0, 0.7, 1.5):
            g = e.limit_cdf(rho, x)
            freq = float(np.mean(z <= x))
            sigma = math.sqrt(max(g * (1.0 - g), 1e-12) / z.size)
            assert abs(freq - g) <= 3.0 * sigma + 1e-9, (rho, x)


def test_normalized_maxima_match_limit_cdf():
    # (M_n - b_n)/a_n at n = 10^4 against G_rho, all three families
    n, reps = 10_000, 100_000
    for dist, rho in ((e.uniform(), 1.0), (e.exponential(), 0.0),
                      (e.pareto(2.0), -0.5)):
        nc = e.norming_constants(dist, n)
        m = e.sample_max_exponential_rep(e.MaxLaw(dist, n), e.make_rng(89, stream=3), reps)
        z = (m - nc.b_n) / nc.a_n
        ks = e.ks_one_sample(z, lambda x: e.limit_cdf(rho, x), alpha=0.01)
        assert ks.statistic <= 0.02, dist.name


# ---------------------------------------------------------------- classification

def test_classify_type_mapping():
    assert e.classify_type(-0.5).kind == "frechet"
    assert e.classify_type(0.0).kind == "gumbel"
    assert e.classify_type(1.0).kind == "weibull"
    assert e.classify_type(0.005).kind == "gumbel"  # default tol 1e-2
    assert e.classify_type(0.005, tol=0.0).kind == "weibull"
    assert e.classify_type(0.0, tol=0.0).kind == "gumbel"
    with pytest.raises(DomainError):
        e.classify_type(0.0, tol=-1.0)


def test_classify_type_end_to_end_from_estimates():
    for dist, kind in ((e.pareto(2.0), "frechet"), (e.exponential(), "gumbel"),
                       (e.uniform(), "weibull")):
        est = e.estimate_rho(dist)
        assert e.classify_type(est.rho).kind == kind


def test_three_types_monte_carlo():
    # the named laws behind each type, at n = 10^4 with 2*10^4 reps
    n, reps = 10_000, 20_000
    m = e.sample_max_exponential_rep(e.MaxLaw(e.pareto(2.0), n), e.make_rng(11), reps)
    frechet_cdf = lambda x: np.exp(-np.minimum(np.asarray(x, dtype=float), 1e300) ** -2.0)
    assert e.ks_one_sample(m / math.sqrt(n), frechet_cdf, alpha=0.01).passed
    m = e.sample_max_exponential_rep(e.MaxLaw(e.exponential(), n), e.make_rng(12), reps)
    gumbel_cdf = lambda x: np.exp(-np.exp(-np.asarray(x, dtype=float)))
    assert e.ks_one_sample(m - math.log(n), gumbel_cdf, alpha=0.01).passed
    m = e.sample_max_exponential_rep(e.MaxLaw(e.uniform(), n), e.make_rng(13), reps)
    assert e.ks_one_sample(n * (1.0 - m), e.exponential().cdf, alpha=0.01).passed


# ---------------------------------------------------------------- serialization

def test_report_serialization_fields(capsys):
    def written(command, fmt="csv", **args):
        # the text a subcommand's builder writes, with no config
        (header, rows, body), _ = command(argparse.Namespace(**args))
        cli._emit("-", fmt, {}, header, rows, body)
        return capsys.readouterr().out

    dehaan = dict(dist=e.uniform(), eps=DEFAULT_EPS_GRID, uv=DEFAULT_UV_GRID, tol=1e-3)
    lines = written(cli._dehaan, **dehaan).splitlines()
    assert lines[0] == "eps,u,v,ratio"
    assert len(lines) == 1 + 12 * 16
    d = json.loads(written(cli._dehaan, "json", **dehaan))
    for key in ("grid", "values", "verdict", "limit_table"):
        assert key in d
    lines = written(cli._rho, dist=e.uniform(), eps=DEFAULT_EPS_GRID, w=2.0).splitlines()
    assert lines[0] == "eps,rho_hat"
    assert len(lines) == 1 + 16
    nc = e.norming_constants(e.exponential(), 100)
    d = json.loads(written(cli._norming, "json", dist=e.exponential(), n=100))
    assert d == {"config": {}, "n": 100, "a_n": nc.a_n, "b_n": nc.b_n}


def test_a_grid_past_the_cell_budget_is_refused_before_it_is_built():
    # 64 pairs by 2**16 + 1 scales is past 2**22 cells: refused, both sizes
    # named, in under a millisecond, before any tail quantile
    law = dataclasses.replace(e.pareto(2.0), tail=None)  # a call would raise TypeError
    pairs = [(2.0 + k / 64, 4.0) for k in range(64)]
    scales = np.geomspace(1e-2, 1e-6, 2**16 + 1)
    message = "uv_grid of 64 pairs by eps_grid of 65537 points is 4194368 cells; one call "
    with pytest.raises(DomainError, match=re.escape(message)):
        e.dehaan_test(law, scales, pairs)
    took = []
    for _ in range(5):
        start = time.perf_counter()
        with pytest.raises(DomainError):
            e.dehaan_test(law, scales, pairs)
        took.append(time.perf_counter() - start)
    assert min(took) < 1e-3
