"""One rule for every real argument: law parameters, eps, u, v, w, x, y,
theta, rho, c, lo, hi, the KS alpha and every tolerance.

Each is an int, a float or a numpy real inside its interval, taken as a
float; a bool, a string, None, NaN, an int past the largest double or a
value outside the interval is a ``DomainError`` that names the argument and
its interval, never parsed or run as a number.
"""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import evtlab as e
from evtlab.errors import DomainError
from evtlab.geometric import cluster_limit
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
    "numeric_quantile": (
        lambda v: e.numeric_quantile(e.exponential().cdf, v),
        "quantile argument u", "(0, 1)", (2.0**-6, 1.0 - 2.0**-6),
    ),
    "frac_log_search theta": (
        lambda v: e.frac_log_search(v, 0.6, 0.7, 10**6), "theta", "(0, inf)", (1.0, 4.0)
    ),
    "frac_log_search x": (
        lambda v: e.frac_log_search(1.0, v, 0.96875, 10**6), "x", "[0, 1]", (0.0, 0.875)
    ),
    "frac_log_search y": (
        lambda v: e.frac_log_search(1.0, 0.0, v, 10**6), "y", "[0, 1]", (0.125, 1.0)
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
    "floor_reciprocal": (e.floor_reciprocal, "eps", "(0, 1]", (2.0**-20, 1.0)),
    "h_n_eval x": (
        lambda v: e.h_n_eval(_identity, e.uniform(), 10, v), "x", "(0, inf)", (2.0**-8, 8.0)
    ),
    "h_n_eval eps": (
        lambda v: e.h_n_eval(_identity, e.uniform(), 1, 0.5, "epsilon_form", v),
        "eps", "(0, 1]", (0.5078125, 1.0),
    ),
    "spot_check_monotone lo": (
        lambda v: _spot_points(v, 100.0), "lo", "(-inf, inf)", (-64.0, 64.0)
    ),
    "spot_check_monotone hi": (
        lambda v: _spot_points(-100.0, v), "hi", "(-inf, inf)", (-64.0, 64.0)
    ),
    "nondegeneracy_check": (
        lambda v: e.nondegeneracy_check([(0.0, 1.0), (1.0, 2.0)], v),
        "nondegeneracy tol", "[0, inf]", (0.0, 2.0),
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
    if not (site == "h_n_eval eps" and value is None)  # None there asks for the exact 1/n
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
