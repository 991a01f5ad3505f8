"""Convergence report bookkeeping."""

import warnings

import numpy as np
import pytest

import evtlab as e
from evtlab.cli import _table
from evtlab.errors import DomainError
from evtlab.linear_evt import DEFAULT_UV_GRID
from evtlab.reports import CAUCHY_WINDOW, build_report


def _per_point(rows, tol):
    values = np.array(rows, dtype=float)
    scales = tuple(range(1, values.shape[1] + 1))
    points = tuple(float(i) for i in range(values.shape[0]))
    return build_report("n", scales, "x", points, values, tol).converged_per_point


def test_cauchy_verdict_uses_only_the_window_tail():
    rows = [
        [100.0, 1.0, 1.0, 1.0],
        [1.0, 1.0, 1.0, 100.0],
        [9.0, 0.0, 0.5, 1.0],  # spread exactly at tol counts as converged
        [9.0, 0.0, 0.5, 1.0 + 1e-12],
    ]
    assert _per_point(rows, 1.0) == (True, False, True, False)
    assert _per_point([[5.0, 2.0, 2.0, 2.0]], 0.0) == (True,)


def test_cauchy_verdict_rejects_nonfinite():
    rows = [
        [1.0, 1.0, 1.0, np.nan],
        [1.0, 1.0, np.inf, 1.0],
        [1.0, np.inf, np.inf, np.inf],  # inf - inf is nan: refused, no warning
        [np.nan, 1.0, 1.0, 1.0],  # nonfinite outside the window is ignored
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _per_point(rows, 1.0) == (False, False, False, True)


@pytest.mark.parametrize("tol", [np.nan, -1e-9])
def test_build_report_refuses_nan_or_negative_tol(tol):
    with pytest.raises(DomainError, match="tol must be >= 0"):
        build_report("n", (1, 2, 3, 4), "x", (0.5,), np.ones((1, 4)), tol)


def test_build_report_per_point_and_overall():
    values = np.array([[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 3.0, 4.0]])
    rep = build_report("n", (10, 100, 1000, 10_000), "x", (0.5, 2.0), values, tol=1e-6)
    assert rep.converged_per_point == (True, False)
    assert not rep.converged
    assert not rep.verdict
    assert rep.limit_table == ((0.5, 1.0), (2.0, 4.0))
    assert all(type(limit) is float for _, limit in rep.limit_table)
    assert rep.window == CAUCHY_WINDOW


def test_build_report_shape_mismatch():
    with pytest.raises(DomainError):
        build_report("n", (1, 2, 3, 4), "x", (0.5,), np.ones((1, 2)), tol=1.0)


def test_build_report_needs_one_scale_more_than_the_window():
    with pytest.raises(DomainError, match="at least 4 scales"):
        build_report("n", (1, 2, 3), "x", (0.5,), np.ones((1, 3)), tol=1.0)
    assert build_report("n", (1, 2, 3, 4), "x", (0.5,), np.ones((1, 4)), 1.0).converged


def test_verdict_folds_in_nondegeneracy():
    values = np.ones((1, 4))
    base = dict(
        scale_name="n", scales=(1, 2, 3, 4), point_name="x", points=(1.0,),
        values=values, tol=1e-9,
    )
    assert build_report(**base).verdict  # nondegenerate unknown: converged decides
    assert build_report(**base, nondegenerate=True).verdict
    assert not build_report(**base, nondegenerate=False).verdict


def test_csv_layout_for_uv_and_plain_points():
    values = np.array([[1.0, 2.0, 5.0, 6.0], [3.0, 4.0, 7.0, 8.0]])
    scales = (0.1, 0.01, 0.001, 0.0001)
    rep = build_report("eps", scales, "uv", ((2.0, 4.0), (0.5, 4.0)), values, 1.0)
    header, rows, _ = _table(rep)
    assert header == ["eps", "u", "v", "ratio"]
    assert rows[0] == (0.1, 2.0, 4.0, 1.0)
    assert rows[5] == (0.01, 0.5, 4.0, 4.0)

    values = np.array([[7.0, 8.0, 9.0, 10.0]])
    rep = build_report("n", (10, 100, 1000, 10_000), "x", (1.5,), values, 1.0)
    header, rows, _ = _table(rep)
    assert header == ["n", "x", "value"]
    assert rows == [(10, 1.5, 7.0), (100, 1.5, 8.0), (1000, 1.5, 9.0), (10_000, 1.5, 10.0)]


def test_json_round_trip_keys():
    values = np.array([[0.0, 1.0, 2.0, 3.0]])
    rep = build_report("n", (1, 2, 3, 4), "x", (0.25,), values, tol=0.5)
    _, _, d = _table(rep)
    assert d["scale"] == "n" and d["point"] == "x"
    assert d["grid"] == [1, 2, 3, 4]
    assert d["points"] == [0.25]
    assert d["values"] == [[0.0, 1.0, 2.0, 3.0]]
    assert d["converged_per_point"] == [False]
    assert d["limit_table"] == [[0.25, 3.0]]
    assert "nondegenerate" not in d
    _, _, d2 = _table(build_report("n", (1, 2, 3, 4), "x", (0.25,), values, 0.5,
                                   nondegenerate=False))
    assert d2["nondegenerate"] is False and d2["verdict"] is False


@pytest.mark.parametrize("count,window", [(16, 3), (64, 8), (256, 32), (1024, 128)])
def test_the_verdict_does_not_flip_with_grid_density(count, window):
    # the window holds the scales within half a decade of the last, so a
    # denser grid widens it in points, not narrows it in scale; the geometric
    # ratio (period log10(2) = 0.3 decade) and the normal one (second-order
    # bias) are never converged at tol 1e-3
    grid = np.geomspace(1e-2, 1e-6, count)
    for law, uv in ((e.geometric(0.5), ((3.0, 4.0),)), (e.normal(), DEFAULT_UV_GRID)):
        report = e.dehaan_test(law, grid, uv)
        assert report.window == window
        assert not report.converged


def test_a_grid_shorter_than_the_span_is_judged_on_all_but_its_first_scale():
    values = np.array([[100.0, 1.0, 1.0, 1.0], [1.0, 2.0, 1.0, 1.0]])
    report = build_report("n", (1000, 1001, 1002, 1003), "x", (0.5, 2.0), values, 0.5)
    assert report.window == 3
    assert report.converged_per_point == (True, False)
    dense = build_report("eps", tuple(np.geomspace(1e-3, 1e-3 / 3, 10)), "x", (0.5,),
                         np.r_[9.0, np.ones(9)][None, :], 0.0)
    assert dense.window == 9 and dense.converged


def test_the_n_window_spans_half_a_decade_too():
    # 15 811 < 50 000 / 10**0.5 < 20 000: the last four n are within the span
    seq = e.NormalizerSequence.from_target(e.exponential(), e.uniform())
    ns = (100, 1000, 10_000, 20_000, 30_000, 40_000, 50_000)
    assert e.convergence_diagnostic(seq, n_grid=ns).window == 4
