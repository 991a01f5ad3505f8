"""One rule for every real argument: law parameters, eps, u, v, w, x, y,
theta, rho, c, lo, hi, the KS alpha and every tolerance.

Each is an int, a float or a numpy real inside its interval, taken as a
float; a bool, a string, None, NaN, an int past the largest double or a
value outside the interval is a ``DomainError`` that names the argument and
its interval, never parsed or run as a number.

Real arrays (the u, eps, x and t a law or a limit law is evaluated at, KS
samples, a normalizer's argument) follow the same rule
entry by entry: any array-like of ints or floats inside the interval, taken
as a float array of its shape.  A bool, string or object entry (None, an int
past int64) is refused with the dtype named, a bool among numbers in a list
or tuple too, and an entry outside the interval, NaN included, with the
first such entry named.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.errors import DomainError
from evtlab.geometric import cluster_limit, sufficient_horizon
from evtlab.reports import build_report

PARAMS = e.GeometricParams(0.5)
PARETO = e.pareto(2.0)
SEQ = e.NormalizerSequence.from_target(e.exponential(), e.uniform())


def _identity(t):
    return t


def _spot_points(lo, hi):
    # spot_check_monotone returns None; the points it evaluates are its output
    seen = []
    e.spot_check_monotone(lambda t: seen.append(t.tolist()) or t, lo, hi)
    return seen


# name: (call, the argument's name, its interval, a float32-exact range of
# good values for the bit-identity property, or None)
SITES = {
    "uniform a": (lambda v: e.uniform(v, 2.0**20), "a", "(-inf, inf)", (-64.0, 64.0)),
    "uniform b": (lambda v: e.uniform(-(2.0**20), v), "b", "(-inf, inf)", (-64.0, 64.0)),
    "exponential": (e.exponential, "rate", "(0, inf)", (2.0**-8, 64.0)),
    "pareto": (e.pareto, "alpha", "(0, inf)", (0.25, 16.0)),
    "normal mu": (e.normal, "mu", "(-inf, inf)", (-64.0, 64.0)),
    "normal sigma": (lambda v: e.normal(0.0, v), "sigma", "(0, inf)", (2.0**-8, 64.0)),
    "degenerate": (e.degenerate, "c", "(-inf, inf)", (-64.0, 64.0)),
    "geometric": (e.geometric, "p", "(0, 1)", (2.0**-6, 1.0 - 2.0**-6)),
    "GeometricParams": (e.GeometricParams, "p", "(0, 1)", (2.0**-6, 1.0 - 2.0**-6)),
    "frac_log_search theta": (
        lambda v: e.frac_log_search(v, 0.6, 0.7, 10**6), "theta", "(0, inf)", (1.0, 4.0)
    ),
    "frac_log_search x": (
        lambda v: e.frac_log_search(1.0, v, 0.96875, 10**6), "x", "[0, 1]", (0.0, 0.875)
    ),
    "frac_log_search y": (
        lambda v: e.frac_log_search(1.0, 0.0, v, 10**6), "y", "[0, 1]", (0.125, 1.0)
    ),
    "sufficient_horizon theta": (
        lambda v: sufficient_horizon(v, 0.6, 0.7), "theta", "(0, inf)", (1.0, 4.0)
    ),
    "sufficient_horizon x": (
        lambda v: sufficient_horizon(1.0, v, 0.96875), "x", "[0, 1]", (0.0, 0.875)
    ),
    "sufficient_horizon y": (
        lambda v: sufficient_horizon(1.0, 0.0, v), "y", "[0, 1]", (0.125, 1.0)
    ),
    "cluster_limit": (lambda v: cluster_limit(PARAMS, 0, v), "c", "[0, 1)", (0.0, 0.96875)),
    "oscillation_scan": (
        lambda v: e.oscillation_scan(PARAMS, 0, (10, 20, 30), (v,)).cluster_points,
        "c", "[0, 1)", (0.0, 0.96875),
    ),
    "subsequence_generator": (
        lambda v: e.subsequence_generator(PARAMS, v, (1, 2, 3)), "c", "[0, 1)", (0.0, 0.96875)
    ),
    "k_rho": (lambda v: e.k_rho(v, np.array([0.5, 2.0])), "rho", "(-inf, inf)", (-4.0, 4.0)),
    "limit_cdf": (
        lambda v: e.limit_cdf(v, np.array([-1.0, 0.5, 3.0])), "rho", "(-inf, inf)", (-4.0, 4.0)
    ),
    "classify_type rho": (e.classify_type, "rho", "(-inf, inf)", (-4.0, 4.0)),
    "classify_type tol": (lambda v: e.classify_type(0.5, v), "tol", "[0, inf]", (0.0, 2.0)),
    "dehaan_ratio u": (
        lambda v: e.dehaan_ratio(PARETO, v, 4.0, 1e-3), "u", "(0, inf)", (0.125, 64.0)
    ),
    "dehaan_ratio v": (
        lambda v: e.dehaan_ratio(PARETO, 2.0, v, 1e-3), "v", "(0, inf)", (2.0, 64.0)
    ),
    "dehaan_ratio eps": (
        lambda v: e.dehaan_ratio(PARETO, 2.0, 4.0, v), "eps", "(0, inf)", (2.0**-20, 0.125)
    ),
    "dehaan_test u": (
        lambda v: e.dehaan_test(PARETO, uv_grid=[(v, 4.0)]), "u", "(0, inf)", (0.125, 64.0)
    ),
    "dehaan_test v": (
        lambda v: e.dehaan_test(PARETO, uv_grid=[(2.0, v)]), "v", "(0, inf)", (2.0, 64.0)
    ),
    "dehaan_test tol": (lambda v: e.dehaan_test(PARETO, tol=v), "tol", "[0, inf]", (0.0, 2.0)),
    "estimate_rho w": (lambda v: e.estimate_rho(PARETO, w=v), "w", "(1, inf)", (1.125, 16.0)),
    "h_n_eval x": (
        lambda v: e.h_n_eval(_identity, e.uniform(), 10, v), "x", "(0, inf)", (2.0**-8, 8.0)
    ),
    "spot_check_monotone lo": (
        lambda v: _spot_points(v, 100.0), "lo", "(-inf, inf)", (-64.0, 64.0)
    ),
    "spot_check_monotone hi": (
        lambda v: _spot_points(-100.0, v), "hi", "(-inf, inf)", (-64.0, 64.0)
    ),
    "build_report": (
        lambda v: build_report("n", (1, 2, 3, 4), "x", (0.5,), [[1.0, 1.0, 1.25, 1.5]], v),
        "tol", "[0, inf]", (0.0, 2.0),
    ),
    "convergence_diagnostic tol": (
        lambda v: e.convergence_diagnostic(SEQ, (0.25, 0.5), tol=v), "tol", "[0, inf]", (0.0, 2.0)
    ),
    "convergence_diagnostic nondeg_tol": (
        lambda v: e.convergence_diagnostic(SEQ, (0.25, 0.5), nondeg_tol=v),
        "nondegeneracy tol", "[0, inf]", (0.0, 0.125),
    ),
    # the two levels with a KS threshold are no range for the property
    "ks_one_sample alpha": (
        lambda v: e.ks_one_sample(np.linspace(0.01, 0.99, 50), _identity, v),
        "alpha", "(0, 1)", None,
    ),
    "ks_two_sample alpha": (
        lambda v: e.ks_two_sample(np.linspace(0.01, 0.99, 50), np.linspace(0.0, 1.0, 60), v),
        "alpha", "(0, 1)", None,
    ),
}


def _just_outside(interval):
    lo, hi = (float(t) for t in interval[1:-1].split(","))
    if math.isfinite(lo):
        return lo if interval[0] == "(" else np.nextafter(lo, -math.inf)
    if math.isfinite(hi):
        return hi if interval[-1] == ")" else np.nextafter(hi, math.inf)
    return -math.inf


def _bad_values(interval):
    bad = {"True": True, "'0.5'": "0.5", "None": None, "nan": math.nan, "10**400": 10**400}
    if not interval.endswith("inf]"):
        bad["inf"] = math.inf
    bad["outside"] = float(_just_outside(interval))
    return bad


CASES = [
    (site, label, value)
    for site, (_, _, interval, _) in SITES.items()
    for label, value in _bad_values(interval).items()
]


@pytest.mark.parametrize(
    "site,value", [(s, v) for s, _, v in CASES], ids=[f"{s}-{label}" for s, label, _ in CASES]
)
def test_a_bad_real_is_a_domain_error(site, value):
    call, name, interval, _ = SITES[site]
    message = rf"^{re.escape(name)} must be a real number in {re.escape(interval)}, got "
    with pytest.raises(DomainError, match=message):
        call(value)


X = np.array([-1.0, 0.5, 2.0, 50.0])
EPS = np.array([0.25, 1e-3, 1e-9])


def _bits(out):
    """The output as text that tells every bit apart (repr keeps -0.0 and nan)."""
    if isinstance(out, e.Distribution):
        out = (out.params, out.cdf(X), out.sf(X), out.tail(EPS))
    elif isinstance(out, e.ConvergenceReport):
        out = (out.points, out.values, out.tol, out.converged_per_point, out.nondegenerate)
    if isinstance(out, tuple):
        return repr(tuple(_bits(part) for part in out))
    if isinstance(out, np.ndarray):
        return repr(out.tolist())
    return repr(out)


@pytest.mark.parametrize("site", sorted(s for s, (*_, good) in SITES.items() if good))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_real_gives_the_bits_of_its_float(site, data):
    call, _, _, (lo, hi) = SITES[site]
    values = st.floats(lo, hi, width=32)
    if math.ceil(lo) <= hi:  # the range holds an integer: draw integers too
        values = st.one_of(st.integers(math.ceil(lo), math.floor(hi)).map(float), values)
    value = data.draw(values)
    integral = value.is_integer() and math.copysign(1.0, value) > 0  # -0.0 is no int
    casts = [np.float64, np.float32] + ([int, np.int64] if integral else [])
    expected = _bits(call(value))
    for cast in casts:
        assert _bits(call(cast(value))) == expected, cast


# -------------------------------------------------------------- real arrays

UNIFORM50 = np.linspace(0.01, 0.99, 50)


# name: (call, the argument's name, its interval, a float32-exact range of
# good entries and the fewest entries a good array needs, or None)
ARRAY_SITES = {
    "quantile": (
        lambda v: e.quantile(e.exponential(), v), "quantile argument u", "(0, 1)",
        ((2.0**-6, 1.0 - 2.0**-6), 1),
    ),
    "tail_quantile": (
        lambda v: e.tail_quantile(PARETO, v), "tail mass eps", "(0, 1)",
        ((2.0**-20, 1.0 - 2.0**-6), 1),
    ),
    "geom_quantile": (
        lambda v: e.geom_quantile(PARAMS, v), "tail mass u", "(0, 1)",
        ((2.0**-20, 1.0 - 2.0**-6), 1),
    ),
    "max_cdf": (
        lambda v: e.max_cdf(e.MaxLaw(e.pareto(1.0), 3), v), "x", "[-inf, inf]", ((-4.0, 64.0), 1)
    ),
    "limit_cdf": (lambda v: e.limit_cdf(0.5, v), "x", "[-inf, inf]", ((-4.0, 4.0), 1)),
    "k_rho": (lambda v: e.k_rho(0.5, v), "u", "(0, inf]", ((2.0**-8, 64.0), 1)),
    "geom_sf": (lambda v: e.geom_sf(PARAMS, v), "t", "[-inf, inf]", ((-4.0, 64.0), 1)),
    "geom_cdf": (lambda v: e.geom_cdf(PARAMS, v), "t", "[-inf, inf]", ((-4.0, 64.0), 1)),
    "geometric cdf": (lambda v: e.geometric(0.5).cdf(v), "t", "[-inf, inf]", ((-4.0, 64.0), 1)),
    "geometric sf": (lambda v: e.geometric(0.5).sf(v), "t", "[-inf, inf]", ((-4.0, 64.0), 1)),
    "ks_one_sample": (
        lambda v: e.ks_one_sample(v, e.uniform().cdf), "samples", "[-inf, inf]",
        ((2.0**-6, 1.0 - 2.0**-6), 20),
    ),
    "ks_two_sample a": (
        lambda v: e.ks_two_sample(v, UNIFORM50), "samples", "[-inf, inf]", ((0.0, 1.0), 20)
    ),
    "ks_two_sample b": (
        lambda v: e.ks_two_sample(UNIFORM50, v), "samples", "[-inf, inf]", ((0.0, 1.0), 20)
    ),
    "build_g_n g": (
        lambda v: e.build_g_n(e.exponential(), 10)(v), "x", "[-inf, inf]", ((-4.0, 0.875), 1)
    ),
    "build_g_n_general g": (
        lambda v: e.build_g_n_general(e.exponential(), e.pareto(2.0), 10)(v), "x", "[-inf, inf]",
        ((-4.0, 64.0), 1),
    ),
    "NormalizerSequence.affine g": (
        lambda v: e.NormalizerSequence.affine(PARETO).builder(10)(v), "x", "[-inf, inf]",
        ((-64.0, 64.0), 1),
    ),
    # the float branch of the grid rule; ordered grids are no range for the property
    "dehaan_test eps_grid": (
        lambda v: e.dehaan_test(PARETO, v), "eps_grid", "(0, inf)", None
    ),
    "estimate_rho eps_grid": (
        lambda v: e.estimate_rho(PARETO, v), "eps_grid", "(0, inf)", None
    ),
    "convergence_diagnostic x_grid": (
        lambda v: e.convergence_diagnostic(SEQ, v), "x_grid", "(0, inf)", None
    ),
}


def _bad_arrays(interval):
    """label: (a bad array, the first bad entry it holds, or None for a dtype refusal)."""
    bad = {
        "strings": (np.array(["0.5", "0.25"]), None),
        "string list": (["0.5", 0.25], None),
        "bools": (np.array([True, False]), None),
        "bool among floats": ([0.5, True], None),
        "None": ([None], None),
        "past int64": ([2**70], None),
        "nan in the middle": (np.array([0.5, math.nan, 0.25]), math.nan),
    }
    if interval != "[-inf, inf]":  # only NaN leaves that one
        outside = float(_just_outside(interval))
        bad["outside"] = ([0.5, 0.25, outside, math.nan], outside)
    return bad


ARRAY_CASES = [
    (site, label, *case)
    for site, (_, _, interval, _) in ARRAY_SITES.items()
    for label, case in _bad_arrays(interval).items()
]


@pytest.mark.parametrize(
    "site,values,first",
    [(s, v, f) for s, _, v, f in ARRAY_CASES],
    ids=[f"{s}-{label}" for s, label, _, _ in ARRAY_CASES],
)
def test_a_bad_real_array_is_a_domain_error_that_names_it(site, values, first):
    call, name, interval, _ = ARRAY_SITES[site]
    message = rf"^{re.escape(name)} must be real numbers"
    if first is None:
        message += r", got \S+ entries$"
    else:
        message += rf" in {re.escape(interval)}, got {first!r}$"
    with pytest.raises(DomainError, match=message):
        call(values)


def test_the_first_bad_entry_is_named_in_flat_order():
    message = r"^tail mass eps must be real numbers in \(0, 1\), got 1.5$"
    with pytest.raises(DomainError, match=message):
        e.tail_quantile(PARETO, np.array([[0.5, 0.25], [1.5, math.nan]]))
    with pytest.raises(DomainError, match=r"got -1$"):  # an int entry is named as given
        e.k_rho(0.5, np.array([[3, 2], [-1, 0]]))


def test_an_empty_real_array_passes():
    assert e.quantile(e.exponential(), []).shape == (0,)
    assert e.max_cdf(e.MaxLaw(e.uniform(), 3), np.empty((2, 0))).shape == (2, 0)


@pytest.mark.parametrize("site", sorted(s for s, (*_, good) in ARRAY_SITES.items() if good))
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_a_real_array_gives_the_bits_of_its_float64_array(site, data):
    call, _, _, ((lo, hi), least) = ARRAY_SITES[site]
    integral = math.ceil(lo) < math.floor(hi) and data.draw(st.booleans())
    entries = st.integers(math.ceil(lo), math.floor(hi)).map(float) if integral else (
        st.floats(lo, hi, width=32)
    )
    values = data.draw(st.lists(entries, min_size=least, max_size=least + 4))
    expected = _bits(call(np.array(values, dtype=np.float64)))
    casts = [list, tuple, lambda v: np.array(v, dtype=np.float32)]
    if integral:
        casts.append(lambda v: np.array(v, dtype=np.int64))
    for cast in casts:
        assert _bits(call(cast(values))) == expected, cast


# the examples that ran as numbers before the array rule, with how each refusal begins
MOTIVATION = [
    (lambda: e.quantile(e.exponential(), "0.5"), "quantile argument u must be "),
    (lambda: e.tail_quantile(e.pareto(2.0), ["0.25", 0.01]), "tail mass eps must be "),
    (lambda: e.limit_cdf(0.0, "0.5"), "x must be "),
    (lambda: e.geom_sf(PARAMS, "2"), "t must be "),
    (lambda: e.max_cdf(e.MaxLaw(e.pareto(1.0), 3), True), "x must be "),
    (lambda: e.max_cdf(e.MaxLaw(e.pareto(1.0), 3), [True, 2.0]), "x must be "),
    (lambda: e.limit_cdf(0.0, [True, 0.5]), "x must be "),
    (lambda: e.ks_one_sample([str(v) for v in UNIFORM50], e.uniform().cdf), "samples must be "),
    (lambda: e.ks_one_sample([*UNIFORM50, math.nan], e.uniform().cdf), "samples must be "),
    (lambda: e.ks_two_sample([str(v) for v in UNIFORM50], UNIFORM50), "samples must be "),
    (lambda: e.ks_two_sample(UNIFORM50, [*UNIFORM50, True]), "samples must be "),
    (lambda: e.ks_two_sample(UNIFORM50, [*UNIFORM50, math.nan]), "samples must be "),
    (lambda: sufficient_horizon(True, 0.1, 0.2), "theta must be "),
    (lambda: sufficient_horizon(1.0, 0.5, 0.2), "x must be below y, got x=0.5, y=0.2"),
]


@pytest.mark.parametrize("call,start", MOTIVATION, ids=[str(i) for i in range(len(MOTIVATION))])
def test_what_ran_as_a_number_is_a_domain_error_that_names_it(call, start):
    with pytest.raises(DomainError, match=f"^{re.escape(start)}"):
        call()

