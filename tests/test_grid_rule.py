"""One rule for every grid argument: eps, x, n and k grids.

Each grid is a nonempty 1-d array.  A float grid (eps, x) holds positive
finite reals; an integer grid (the n of a scan, the k of a subsequence)
holds ints or numpy integers below 2**63, never floats, at or above its
least value.  eps grids are strictly decreasing and n grids strictly
increasing.  Anything else is a ``DomainError`` that names the grid, never a
bare numpy error.
"""

import numpy as np
import pytest

import evtlab as e
from evtlab.errors import DomainError
from evtlab.stats import _grid

SEQ = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
PARAMS = e.GeometricParams(0.5)
NAN, INF = float("nan"), float("inf")

# entry point -> (call, the grid's name, the name an entry-level refusal
# gives, a valid grid, whether the grid is ordered)
SITES = {
    "dehaan_test": (
        lambda g: e.dehaan_test(e.pareto(2.0), g), "eps_grid", "eps_grid",
        [1e-2, 1e-3, 1e-4, 1e-5], True,
    ),
    "estimate_rho": (
        lambda g: e.estimate_rho(e.pareto(2.0), g), "eps_grid", "eps_grid",
        [1e-2, 1e-3, 1e-4, 1e-5], True,
    ),
    "convergence_diagnostic x_grid": (
        lambda g: e.convergence_diagnostic(SEQ, x_grid=g), "x_grid", "x_grid",
        [0.25, 0.5, 1.0], False,
    ),
    # each n goes through the one integer rule of an index first
    "convergence_diagnostic n_grid": (
        lambda g: e.convergence_diagnostic(SEQ, n_grid=g), "n_grid", "n",
        [100, 1000, 10_000, 100_000], True,
    ),
    "oscillation_scan": (
        lambda g: e.oscillation_scan(PARAMS, 0, g), "n_values", "n_values",
        [1000, 2000, 4000], True,
    ),
    "subsequence_generator": (
        lambda g: e.subsequence_generator(PARAMS, 0.0, g), "k_range", "k_range",
        [1, 2, 3], False,
    ),
}
INTEGER_GRIDS = {"convergence_diagnostic n_grid", "oscillation_scan", "subsequence_generator"}


def _bad_grids(site):
    _, _, _, good, ordered = SITES[site]
    floor = -1 if site == "subsequence_generator" else 0  # at or below the least
    bad = {
        "scalar": (good[0], False),
        "2-d": ([good], False),
        "empty": ([], False),
        "NaN": ([*good[:-1], NAN], True),
        "inf": ([*good[:-1], INF], True),
        "non-positive": ([floor, *good[1:]], True),
    }
    if ordered:
        bad["out of order"] = (good[::-1], False)
    if site in INTEGER_GRIDS:
        bad["float"] = (np.array(good, dtype=float), True)
        if site != "convergence_diagnostic n_grid":
            bad["bool"] = (np.array([True, True]), False)
            bad["string"] = ([str(v) for v in good], False)
    return bad


CASES = [(site, label, *case) for site in SITES for label, case in _bad_grids(site).items()]


@pytest.mark.parametrize(
    "site,grid,entry_level",
    [(s, g, lvl) for s, _, g, lvl in CASES],
    ids=[f"{s}-{label}" for s, label, _, _ in CASES],
)
def test_a_bad_grid_is_a_domain_error_that_names_it(site, grid, entry_level):
    call, name, entry_name, _, _ = SITES[site]
    with pytest.raises(DomainError, match=rf"^{entry_name if entry_level else name} must be "):
        call(grid)


@pytest.mark.parametrize("site", sorted(SITES))
def test_the_valid_grid_of_each_site_runs(site):
    call, _, _, good, _ = SITES[site]
    call(good)


def test_an_integer_grid_comes_back_as_int64():
    for values in ([1000, 2000], np.array([1000, 2000], dtype=np.uint64), (1000, 2000)):
        assert e.oscillation_scan(PARAMS, 0, values).n_values.dtype == np.int64


def test_an_n_grid_past_int64_is_ordered_exactly():
    # 2**70 and 2**70 + 1 are one double; the order is decided in Python ints
    ns = np.array([2**70, 2**70 + 1], dtype=object)
    assert _grid(ns, "n_grid", order=1, least=1, int64=False).tolist() == ns.tolist()
    with pytest.raises(DomainError, match="^n_grid must be strictly increasing"):
        _grid(ns[::-1], "n_grid", order=1, least=1, int64=False)
    with pytest.raises(DomainError, match="^n_values must be integers of magnitude below 2"):
        _grid(ns, "n_values", order=1, least=1)


@pytest.mark.parametrize("q", [2.5, True, "3", np.float64(1.0)])
def test_oscillation_scan_refuses_a_q_that_is_no_integer(q):
    # q was truncated with int(q): 2.5 ran as 2, True as 1 and "3" as 3
    with pytest.raises(DomainError, match="^q must be an integer"):
        e.oscillation_scan(PARAMS, q, [10, 100, 1000])


def test_oscillation_scan_takes_any_integer_q():
    for q in (-3, 0, np.int64(2)):
        assert e.oscillation_scan(PARAMS, q, [1000]).q == int(q)
