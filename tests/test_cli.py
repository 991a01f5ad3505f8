"""Command-line interface: exit codes, output layout, determinism."""

import argparse
import contextlib
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import time
import timeit
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import test_golden
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

import evtlab
from evtlab import cli, stats
from evtlab.reports import build_report

# Everything here must appear verbatim (prefixed with "evtlab ") in README.md;
# test_readme_documents_the_examples keeps the two in sync.
EXAMPLES = [
    ("sample --dist exponential:rate=1 --count 5 --seed 7", 0),
    ("max --dist uniform:a=0,b=1 --n 100 --count 5 --method exprep --seed 7", 0),
    ("dehaan --dist pareto:alpha=2 --eps 1e-2:1e-6 --uv 2,4 --format json", 0),
    ("rho --dist pareto:alpha=2", 0),
    ("norming --dist geometric:p=0.5 --n 100", 0),
    ("norming --dist geometric:p=0.2 --n 100", 2),
    ("limit-law --rho 0 --x=-2:6:33", 0),
    ("nonlinear --base uniform:a=0,b=1 --target exponential:rate=1", 0),
    ("nonlinear --base geometric:p=0.5 --normalizer affine", 3),
    ("geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64", 3),
    ("geom-oscillate --p 0.5 --q 0 --n 1024:1048576:11", 0),
    ("geom-density --theta 1 --x 0.6 --y 0.7", 0),
    ("geom-density --theta 1 --x 0.1 --y 0.1000000001 --n-max 100000000000000000000", 0),
]


def _parse_csv(text: str):
    lines = text.splitlines()
    config = {}
    i = 0
    while lines[i].startswith("# "):
        key, _, value = lines[i][2:].partition("=")
        config[key] = value
        i += 1
    header = lines[i].split(",")
    rows = [line.split(",") for line in lines[i + 1 :]]
    return config, header, rows


def test_readme_documents_the_examples():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    for cmdline, _ in EXAMPLES:
        assert f"evtlab {cmdline}" in readme, cmdline


def test_readme_library_use_runs_as_written():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library use", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})  # its asserts are the checks


@pytest.mark.parametrize("cmdline,expected", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_examples_exit_codes(cmdline, expected, capsys):
    assert cli.run(shlex.split(cmdline)) == expected
    capsys.readouterr()


def test_sample_csv_layout(capsys):
    assert cli.run(shlex.split("sample --dist exponential:rate=1 --count 3 --seed 5")) == 0
    config, header, rows = _parse_csv(capsys.readouterr().out)
    assert config == {
        "subcommand": "sample",
        "seed": "5",
        "format": "csv",
        "dist": "exponential:rate=1",
        "count": "3",
    }
    assert header == ["index", "value"]
    assert [r[0] for r in rows] == ["0", "1", "2"]
    assert all(float(r[1]) > 0.0 for r in rows)


def test_repeat_runs_are_byte_identical(tmp_path):
    for cmdline in (
        "sample --dist normal:mu=0,sigma=1 --count 50 --seed 11",
        "dehaan --dist pareto:alpha=2 --uv 2,4 --format json",
    ):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.run(shlex.split(cmdline) + ["--out", str(a)]) == 0
        assert cli.run(shlex.split(cmdline) + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


def test_seed_env_var_matches_explicit_flag(tmp_path, monkeypatch):
    base = "sample --dist uniform:a=0,b=1 --count 10"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "42")
    assert cli.run(shlex.split(base) + ["--out", str(tmp_path / "env.csv")]) == 0
    monkeypatch.delenv(cli.SEED_ENV_VAR)
    assert cli.run(shlex.split(base) + ["--seed", "42", "--out", str(tmp_path / "flag.csv")]) == 0
    assert (tmp_path / "env.csv").read_bytes() == (tmp_path / "flag.csv").read_bytes()


def test_bad_seed_env_var_is_a_domain_error(monkeypatch, capsys):
    monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
    assert cli.run(shlex.split("sample --dist uniform:a=0,b=1")) == 2
    assert cli.SEED_ENV_VAR in capsys.readouterr().err


def test_negative_seed_is_a_domain_error(monkeypatch, capsys):
    assert cli.run(shlex.split("sample --dist uniform:a=0,b=1 --seed -1")) == 2
    assert "seed" in capsys.readouterr().err
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-3")
    assert cli.run(shlex.split("max --dist uniform:a=0,b=1 --n 5 --count 2")) == 2
    out, err = capsys.readouterr()
    assert out == "" and "seed" in err


def test_exprep_at_huge_n_returns_at_once(capsys):
    n = 10**21
    argv = f"max --dist pareto:alpha=1 --n {n} --method exprep"
    start = time.perf_counter()
    assert cli.run(shlex.split(argv)) == 0
    assert time.perf_counter() - start < 1.0
    _, _, rows = _parse_csv(capsys.readouterr().out)
    values = np.array([float(r[1]) for r in rows])
    # M_n = Q(1 - eps) = 1/eps with eps = -expm1(-omega/n) and omega <= 36.8
    assert len(rows) == 1000 and np.unique(values).size == values.size
    assert np.all(values >= n / 36.8)


@pytest.mark.parametrize(
    "argv",
    ["norming --dist pareto:alpha=1 --n {n}", "max --dist pareto:alpha=1 --n {n} --method exprep"],
)
def test_n_beyond_2_960_is_a_domain_error(argv, capsys):
    n = 10**400  # beyond any float: 1.0/n raises OverflowError
    assert cli.run(shlex.split(argv.format(n=n))) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"n = {n} is too large" in err and "2**960" in err


@pytest.mark.parametrize(
    "argv,name",
    [
        ("rho --dist pareto:alpha=2", "rho"),  # draws nothing
        ("sample --dist uniform:a=0,b=1 --count 3", "sample"),
    ],
)
def test_every_subcommand_refuses_a_negative_seed(argv, name, monkeypatch, capsys):
    assert cli.run(shlex.split(argv) + ["--seed", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"evtlab {name}: seed must be non-negative, got -1\n"
    monkeypatch.setenv(cli.SEED_ENV_VAR, "-3")
    assert cli.run(shlex.split(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"evtlab {name}: seed must be non-negative, got -3\n"


def test_a_uniform_width_that_overflows_is_a_domain_error(capsys):
    assert cli.run(shlex.split("sample --dist uniform:a=-1e308,b=1e308")) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert "finite width b - a, got a=-1e+308, b=1e+308" in err


def test_norming_at_n_whose_level_rounds_to_one(capsys):
    n = 10**20  # 1 - 1/n == 1.0; the tail masses 1/n and 2/n are exact
    assert cli.run(shlex.split(f"norming --dist pareto:alpha=1 --n {n}")) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["n", "a_n", "b_n"]
    assert rows == [[str(n), "-5e+19", "1e+20"]]


def test_dehaan_at_eps_whose_level_rounds_to_one(capsys):
    # scales down to 1e-20, far below 2**-54 where 1 - eps == 1.0
    argv = "dehaan --dist pareto:alpha=2 --eps 1e-2:1e-20 --uv 2,4"
    assert cli.run(shlex.split(argv)) == 0
    _, _, rows = _parse_csv(capsys.readouterr().out)
    assert len(rows) == 16
    ratios = [float(r[-1]) for r in rows]
    # the pareto(2) ratio is 2 - sqrt(2) at every scale
    assert ratios == pytest.approx([2.0 - math.sqrt(2.0)] * 16, rel=4 * 2.0**-52)


@pytest.mark.parametrize("command", ["rho", "dehaan"])
def test_non_finite_tail_quantile_is_a_domain_error(command, capsys):
    # pareto(0.01): Q(1 - eps) = eps**-100 overflows on the default grids
    assert cli.run([command, "--dist", "pareto:alpha=0.01"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "is not finite at eps = " in err and "pareto:alpha=0.01" in err


@pytest.mark.parametrize("command", ["rho", "dehaan"])
def test_a_scale_whose_product_overflows_is_refused_in_one_line(command, capsys):
    # eps * 4 overflows a double: no numpy overflow warning comes before the
    # refusal (the argv fuzz test found one)
    assert cli.run([command, "--dist", "pareto:", "--eps=1e308"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"evtlab {command}: eps * 4.0 must stay below 1, got eps=1e+308\n"


@pytest.mark.parametrize("variant", ["linear", "exp"])
def test_nonlinear_refuses_n_where_the_base_cdf_saturates(variant, capsys):
    argv = f"nonlinear --base uniform:a=0,b=1 --target normal --n 1e3:1e18:4 --variant {variant}"
    assert cli.run(shlex.split(argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "n = 1000000000000000000: the level exp(-n(1 - F(x))) rounds to 1" in err


def test_nonlinear_keeps_the_base_tail_mass(capsys):
    # pareto(2) base: S(Q(1 - eps)) = eps, so each value is ndtri(exp(-n*eps))
    # at the exp variant's eps = -expm1(-x/n); forming 1 - F(x) instead loses
    # up to 3e-10 here
    argv = "nonlinear --base pareto:alpha=2 --target normal --variant exp --n 10:1e6:6"
    assert cli.run(shlex.split(argv)) == 3  # not converged at tol 1e-3; the table is written
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["n", "x", "value"] and len(rows) == 6 * 32
    n = np.array([float(r[0]) for r in rows])
    eps = -np.expm1(-np.array([float(r[1]) for r in rows]) / n)
    want = ndtri(np.exp(-n * eps))
    assert np.max(np.abs(np.array([float(r[2]) for r in rows]) - want)) <= 1e-14


@pytest.mark.parametrize(
    "argv, message",
    [
        ("max --n 1000 --count 5 --method exprep", "Q(1 - eps) = inf is not finite at eps = "),
        ("max --n 1000 --count 5 --method direct", "Q(u) = inf is not finite at u = "),
        ("sample --count 5000", "Q(u) = inf is not finite at u = "),
    ],
)
def test_samplers_refuse_a_non_finite_draw(argv, message, capsys):
    # pareto(0.01): Q(u) = (1 - u)**-100 overflows for u above 1 - 10**-3.08
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        assert cli.run(shlex.split(argv) + ["--dist", "pareto:alpha=0.01"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert message in err and "pareto:alpha=0.01" in err


def test_integer_grid_beyond_int64_is_a_usage_error(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's cast warning would raise here
        assert cli.run(shlex.split("geom-oscillate --n 1e3:1e19:4")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "2**63" in err


@pytest.mark.parametrize("grid", ["100", "100:1000:2", "100:10000:3"])
def test_nonlinear_needs_four_values_of_n(grid, capsys):
    argv = f"nonlinear --base geometric:p=0.5 --normalizer affine --n {grid}"
    assert cli.run(shlex.split(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and "at least 4 scales" in err


def test_max_json_body(capsys):
    argv = "max --dist uniform:a=0,b=1 --n 3 --count 4 --method direct --seed 1 --format json"
    assert cli.run(shlex.split(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["config"]["method"] == "direct"
    assert doc["config"]["n"] == 3
    assert len(doc["samples"]) == 4
    assert all(0.0 < x < 1.0 for x in doc["samples"])


def test_dehaan_json_limit_table(capsys):
    argv = "dehaan --dist pareto:alpha=2 --eps 1e-2:1e-6 --uv 2,4 --format json"
    assert cli.run(shlex.split(argv)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is True and doc["verdict"] is True
    ((point, limit),) = doc["limit_table"]
    assert point == [2.0, 4.0]
    # limit k_{-1/2}(2)/k_{-1/2}(4) = (2^{-1/2}-1)/(4^{-1/2}-1)
    assert limit == pytest.approx((2**-0.5 - 1.0) / (4**-0.5 - 1.0), abs=1e-9)
    assert doc["config"]["uv"] == "2,4"


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_dehaan_config_keeps_every_digit_of_uv(fmt, capsys):
    # the config's uv round-trips at 17 digits, as the table's u and v do
    argv = f"dehaan --dist pareto:alpha=2 --uv 0.1234567891,2 --format {fmt}"
    assert cli.run(shlex.split(argv)) == 0
    out = capsys.readouterr().out
    config = json.loads(out)["config"] if fmt == "json" else _parse_csv(out)[0]
    assert config["uv"] == "0.12345678910000001,2"


def test_dehaan_flipping_ratios_exit_3(capsys):
    argv = "dehaan --dist geometric:p=0.5 --uv 3,4 --format json"
    assert cli.run(shlex.split(argv)) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False and doc["verdict"] is False
    assert set(doc["values"][0]) == {0.5, 1.0}


def test_norming_csv_and_degenerate_error(capsys):
    assert cli.run(shlex.split("norming --dist geometric:p=0.5 --n 100")) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["n", "a_n", "b_n"]
    assert rows == [["100", "-1", "6"]]

    assert cli.run(shlex.split("norming --dist geometric:p=0.2 --n 100")) == 2
    err = capsys.readouterr().err
    assert err.startswith("evtlab norming:") and "flat" in err


def test_limit_law_csv_json_agree_exactly(capsys):
    argv = "limit-law --rho 0 --x 0:1:2"
    assert cli.run(shlex.split(argv)) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["x", "G"]
    csv_g = [float(r[1]) for r in rows]
    assert cli.run(shlex.split(argv + " --format json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["G"] == csv_g  # %.17g round trips the exact doubles
    assert csv_g[0] == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
    assert csv_g[1] == pytest.approx(1.0 - math.exp(-2.0), abs=1e-15)


def test_nonlinear_json_verdicts(capsys):
    ok = "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1 --format json"
    assert cli.run(shlex.split(ok)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is True and doc["nondegenerate"] is True
    assert doc["config"]["normalizer"] == "construction"

    bad = "nonlinear --base geometric:p=0.5 --normalizer affine --format json"
    assert cli.run(shlex.split(bad)) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is False


@pytest.mark.parametrize(
    "fmt,entry",
    [("csv", "\n# variant={}\n"), ("json", '\n    "variant": "{}",\n')],
    ids=["csv", "json"],
)
@pytest.mark.parametrize(
    "law",
    [
        "--base pareto:alpha=2 --target normal",
        "--base uniform:a=0,b=1 --target exponential:rate=1 --n 100:1e5:4",
        "--base geometric:p=0.5 --normalizer affine",  # exit 3: not converged
    ],
    ids=["pareto", "uniform", "geometric"],
)
def test_nonlinear_variant_epsilon_is_an_alias_of_linear(law, fmt, entry, capsys):
    # the same bytes as linear but for the variant config entry, which keeps its name
    argv = f"nonlinear {law} --format {fmt} --variant "
    code, out = cli.run(shlex.split(argv + "linear")), capsys.readouterr().out
    alias = cli.run(shlex.split(argv + "epsilon")), capsys.readouterr().out
    assert entry.format("linear") in out
    assert alias == (code, out.replace(entry.format("linear"), entry.format("epsilon")))


def test_geom_oscillate_spread_keys(capsys):
    argv = "geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64 --format json"
    assert cli.run(shlex.split(argv)) == 3
    doc = json.loads(capsys.readouterr().out)
    assert doc["spread"] > 0.2
    assert doc["converged"] is False
    assert [c for c, _ in doc["cluster_points"]] == [0.0, 0.5, 0.9]

    # along n_k = 2^k the probe settles at exp(-1/2)
    dyadic = "geom-oscillate --p 0.5 --q 0 --n 1024:1048576:11 --format json"
    assert cli.run(shlex.split(dyadic)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["spread"] <= 1e-2
    assert doc["probability"][-1] == pytest.approx(math.exp(-0.5), abs=1e-4)


def test_geom_density_output(capsys):
    assert cli.run(shlex.split("geom-density --theta 1 --x 0.6 --y 0.7")) == 0
    _, header, rows = _parse_csv(capsys.readouterr().out)
    assert header == ["n", "frac", "sufficient_horizon"]
    assert rows[0][0] == "2"
    assert float(rows[0][1]) == pytest.approx(math.log(2.0), abs=1e-12)


def test_geom_density_finds_a_far_witness_in_a_narrow_window(capsys):
    argv = "geom-density --theta 1 --x 0.1 --y 0.1000000001 --n-max 100000000000000000000"
    start = time.perf_counter()
    assert cli.run(shlex.split(argv)) == 0
    assert time.perf_counter() - start < 1.0
    _, _, rows = _parse_csv(capsys.readouterr().out)
    n, frac = int(rows[0][0]), float(rows[0][1])
    assert 1e10 < n < 2e10 and 0.1 <= frac <= 0.1000000001


@pytest.mark.parametrize(
    "argv,name",
    [
        ("geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64 --tol nan", "tol"),
        ("geom-oscillate --p 0.5 --q 0 --n 1024:1048576:11 --tol -0.5", "tol"),
        ("dehaan --dist pareto:alpha=2 --tol nan", "tol"),
        ("dehaan --dist pareto:alpha=2 --tol=-1e-3", "tol"),
        ("nonlinear --base uniform:a=0,b=1 --target exponential:rate=1 --tol nan", "tol"),
        ("nonlinear --base uniform:a=0,b=1 --target exponential:rate=1 --nondeg-tol nan",
         "nondegeneracy tol"),
        ("nonlinear --base uniform:a=0,b=1 --target exponential:rate=1 --nondeg-tol -1",
         "nondegeneracy tol"),
    ],
)
def test_nan_or_negative_tolerance_is_a_domain_error(argv, name, capsys):
    # a NaN tol fails every comparison: geom-oscillate used to exit 0 while
    # writing "converged": false, dehaan and nonlinear to exit 3
    assert cli.run(shlex.split(argv + " --format json")) == 2
    out, err = capsys.readouterr()
    assert out == "" and f"{name} must be a real number in [0, inf]" in err


@pytest.mark.parametrize("tol", ["0.5", "0", "1e-9"])
def test_geom_oscillate_exit_code_matches_its_verdict(tol, capsys):
    argv = f"geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64 --tol {tol} --format json"
    code = cli.run(shlex.split(argv))
    doc = json.loads(capsys.readouterr().out)
    assert doc["converged"] is (doc["spread"] <= float(tol))
    assert code == (0 if doc["converged"] else 3)


@pytest.mark.parametrize("rho", ["inf", "-inf", "nan"])
def test_limit_law_refuses_a_non_finite_rho(rho, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(shlex.split(f"limit-law --rho={rho} --x 0.5")) == 2
    out, err = capsys.readouterr()
    assert out == "" and "rho must be a real number in (-inf, inf)" in err


def test_limit_law_beyond_the_overflow_of_2_to_the_rho(capsys):
    # 2**2000 overflows; the limit law still gives 1 - exp(-2**(1999/2000))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.run(shlex.split("limit-law --rho 2000 --x 0.5 --format json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["G"] == [pytest.approx(1.0 - math.exp(-(2.0 ** (1999 / 2000))), rel=1e-15)]


def test_geom_oscillate_refuses_a_q_beyond_int64(capsys):
    # the top level on 10:100 is floor(log2(100)) + q = 6 + q
    for q in (10**20, 2**63 - 6):
        assert cli.run(shlex.split(f"geom-oscillate --q {q} --n 10:100:4")) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"q = {q}" in err

    assert cli.run(shlex.split(f"geom-oscillate --q {2**63 - 7} --n 10:100:4 --format json")) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"][-1] == 2**63 - 1 and doc["probability"] == [1.0] * 4


def test_default_grids_are_shared_but_never_written(capsys):
    from evtlab.linear_evt import DEFAULT_EPS_GRID

    parser = cli.build_parser()
    assert cli.build_parser() is parser  # built once per process
    grids = [DEFAULT_EPS_GRID] + [
        getattr(parser.parse_args(shlex.split(line)), name)
        for line, name in (
            ("limit-law --rho 1", "x"),
            ("nonlinear --base uniform", "x"),
            ("geom-oscillate", "n"),
        )
    ]
    assert not any(grid.flags.writeable for grid in grids)
    defaults = (
        "dehaan --dist pareto:alpha=2",
        "rho --dist pareto:alpha=2",
        "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1",
        "limit-law --rho 0.5",
        "geom-oscillate --p 0.5",
    )
    explicit = (
        "dehaan --dist pareto:alpha=2 --eps 1e-1:1e-3:5 --uv 3,4 --uv 0.5,2",
        "rho --dist pareto:alpha=2 --eps 1e-1:1e-3:5",
        "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1 --n 10:1e4:5",
        "limit-law --rho 0.5 --x=-1:1:5",
        "geom-oscillate --p 0.5 --n 10:1e4:8",
    )

    def outputs(lines):
        out = []
        for line in lines:
            cli.run(shlex.split(line))
            out.append(capsys.readouterr().out)
        return out

    first = outputs(defaults)
    outputs(explicit)
    assert outputs(defaults) == first

    # a usage error part-way through a subcommand's options leaves the
    # shared parser as it was for the next run
    again = "geom-oscillate --p 0.5 --n 10:1e4:8"
    before = outputs([again])
    assert cli.run(shlex.split("geom-oscillate --n 10:1e4:8 --cluster-c x,y")) == 1
    assert capsys.readouterr().out == ""
    assert outputs([again]) == before


@pytest.mark.parametrize("theta", ["inf", "1e-300"])
def test_geom_density_refuses_theta_out_of_range(theta, capsys):
    assert cli.run(shlex.split(f"geom-density --theta {theta} --x 0.1 --y 0.2")) == 2
    out, err = capsys.readouterr()
    assert out == "" and "theta" in err


@pytest.mark.parametrize(
    "argv",
    [
        "geom-oscillate --n 1:1e6:1000000000",
        "dehaan --dist pareto:alpha=2 --eps 1e-2:1e-6:1048577",
        "limit-law --rho 0 --x=-2:6:5000000",
    ],
)
def test_range_point_count_is_refused_before_allocating(argv, monkeypatch, capsys):
    # without the ceiling numpy would be asked for the whole grid (7.45 GiB
    # for the first line); here it may not even be asked
    for name in ("geomspace", "linspace"):
        real = getattr(np, name)

        def bounded(start, stop, num, real=real):
            assert num <= cli.MAX_RANGE_POINTS, f"asked numpy for {num} points"
            return real(start, stop, num)

        monkeypatch.setattr(np, name, bounded)
    assert cli.run(shlex.split(argv)) == 1
    out, err = capsys.readouterr()
    assert out == "" and "at most 2**20" in err


class _NoDraws:
    # a stream whose every use fails, with the attribute named
    def __getattr__(self, name):
        raise AssertionError(f"the stream was used: {name}")


@pytest.mark.parametrize(
    "argv,err",
    [
        ("sample --dist exponential:rate=1 --count 1000000000000",
         "evtlab sample: count = 1000000000000 asks for 1000000000000 draws; "
         "one call draws at most 2**27 = 134217728 (1 GiB of doubles)"),
        ("max --dist uniform:a=0,b=1 --method exprep --count 1000000000000",
         "evtlab max: count = 1000000000000 asks for 1000000000000 draws; "
         "one call draws at most 2**27 = 134217728 (1 GiB of doubles)"),
        ("max --dist uniform:a=0,b=1 --method direct --n 1000000000000 --count 1",
         "evtlab max: count * n = 1 * 1000000000000 draws is above the direct sampler's budget "
         "of 2**32 = 4294967296; the exponential representation "
         "(sample_max_exponential_rep, --method exprep) draws count uniforms at any n"),
    ],
)
def test_sampler_work_past_its_bound_exits_2_before_drawing(argv, err, monkeypatch):
    # a count of 1e12 asked numpy for 8 TB, and a direct draw of 1e12 words
    # ran for hours: both are refused before the stream is touched
    monkeypatch.setattr(cli, "make_rng", lambda seed: _NoDraws())
    argv = shlex.split(argv)
    assert min(timeit.repeat(lambda: cli.run(argv), number=1, repeat=5)) < 1e-3
    assert _outcome(argv) == (2, "", err + "\n")


def test_range_point_count_ceiling_is_inclusive():
    assert cli._parse_range(f"1:2:{cli.MAX_RANGE_POINTS}").size == cli.MAX_RANGE_POINTS


_RANGE_ENDS = st.floats(2.0**-4, 2.0**62)


@st.composite
def _int_range_texts(draw):
    """An increasing, decreasing, single-value or duplicate-heavy integer range."""
    kind = draw(st.sampled_from(["one", "increasing", "decreasing", "duplicates"]))
    start = draw(_RANGE_ENDS)
    if kind == "one":
        return repr(start)
    if kind == "duplicates":  # up to 4096 points over a span of at most 4
        stop = start + draw(st.floats(0.0, 4.0))
        if draw(st.booleans()):
            start, stop = stop, start
    else:
        stop = draw(_RANGE_ENDS.filter(lambda v: v != start))
        if (start < stop) != (kind == "increasing"):
            start, stop = stop, start
    return f"{start!r}:{stop!r}:{draw(st.integers(2, 4096))}"


@settings(max_examples=200, deadline=None)
@given(_int_range_texts())
def test_an_integer_range_is_its_ascending_distinct_ints(text):
    want = np.unique(np.rint(cli._parse_range(text)).astype(np.int64))  # the reference
    got = cli._int_range(text)
    assert got.dtype == np.int64 and got.tolist() == want.tolist()


_CHOICES = (
    "'sample', 'max', 'dehaan', 'rho', 'norming', 'limit-law', 'nonlinear', "
    "'geom-oscillate', 'geom-density'"
)


def test_usage_errors_exit_1(capsys):
    for argv, err in (
        ("frobnicate --dist uniform:a=0,b=1",
         f"evtlab: argument command: invalid choice: 'frobnicate' (choose from {_CHOICES})"),
        ("sample --dist uniform:a=0,b=1 --bogus-flag 3",
         "evtlab: unrecognized arguments: --bogus-flag 3"),
        ("sample", "evtlab sample: the following arguments are required: --dist"),
        ("dehaan --dist uniform:a=0,b=1 --eps 1e-2:1e-6:1",
         "evtlab dehaan: argument --eps: range '1e-2:1e-6:1' needs at least 2 points"),
        ("dehaan --dist uniform:a=0,b=1 --uv 2;4",
         "evtlab dehaan: argument --uv: bad pair '2;4'; expected u,v"),
        ("geom-oscillate --cluster-c x,y",
         "evtlab geom-oscillate: argument --cluster-c: 'x' in 'x,y' is not a number"),
    ):
        assert cli.run(shlex.split(argv)) == 1, argv
        assert capsys.readouterr() == ("", err + "\n"), argv


def _outcome(argv):
    # (exit code or SystemExit code, stdout, stderr) of one run
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.run(argv)
        except SystemExit as exc:
            code = ("exit", exc.code)
    return code, out.getvalue(), err.getvalue()


def _same_namespace(a, b):
    assert list(vars(a)) == list(vars(b))
    for key, value in vars(a).items():
        other = vars(b)[key]
        assert type(value) is type(other), key
        if isinstance(value, np.ndarray):
            assert value.dtype == other.dtype and np.array_equal(value, other), key
        else:
            assert value == other, key


@pytest.mark.parametrize("fmt", test_golden.FORMATS)
@pytest.mark.parametrize("line", test_golden.COMMANDS)
def test_a_subcommand_line_gets_the_top_level_namespace(line, fmt):
    argv = shlex.split(line) + ["--format", fmt]
    _same_namespace(cli._parse(argv), cli.build_parser().parse_args(argv))


def test_a_subcommand_line_is_parsed_once(monkeypatch):
    calls = []
    real = cli._Parser.parse_known_args

    def counted(self, *args, **kwargs):
        calls.append(self.prog)
        return real(self, *args, **kwargs)

    monkeypatch.setattr(cli._Parser, "parse_known_args", counted)
    cli._parse(shlex.split("dehaan --dist pareto:alpha=2 --eps 1e-2:1e-6 --uv 2,4"))
    assert calls == ["evtlab dehaan"]
    calls.clear()
    with pytest.raises(cli._UsageError, match="^evtlab: unrecognized arguments: x --y$"):
        cli._parse(shlex.split("rho --dist pareto:alpha=2 x --y"))
    assert calls == ["evtlab rho"]


@pytest.mark.parametrize("argv", [[], ["-h"], ["frobnicate"], ["sample", "-h"], ["--", "sample"]])
def test_help_and_missing_or_unknown_commands_run_as_at_the_top_level(argv, monkeypatch):
    # help exits 0 with the text on stdout; no command or an unknown one is
    # a usage error; each as when the top-level parser reads every argument
    routed = _outcome(argv)
    monkeypatch.setattr(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv))
    assert routed == _outcome(argv)
    code, out, err = routed
    if argv[-1:] == ["-h"]:
        usage = " ".join(["usage: evtlab", *argv[:-1]])
        assert code == ("exit", 0) and out.startswith(usage + " [-h]") and err == ""
    else:
        assert code == 1 and out == "" and err.startswith("evtlab: ")


# cells that a 17-digit writer must keep apart from their neighbours: signed
# zeros, subnormals, infinities, nan, and integral floats of 1e17 and up,
# which a str of an int would write out in full
_SPECIAL = st.sampled_from(
    [-0.0, 0.0, 5e-324, -2.0**-1070, 2.0**-1022, math.inf, -math.inf, math.nan, 1e17, 2.0**60]
)
_CELLS = st.one_of(_SPECIAL, st.floats(), st.floats(1e17, 1e308), st.floats(-1e308, -1e17))


def _cell(v) -> str:
    # the rule applied to every cell on its own: a float to 17 significant
    # digits, anything else through str
    return f"{v:.17g}" if isinstance(v, float) else str(v)


def _convergence_rows(report):
    # the raw cells of every row, point-major
    values = report.values.tolist()
    if report.point_name == "uv":
        header = [report.scale_name, "u", "v", "ratio"]
        rows = [
            (float(s), float(u), float(v), r)
            for (u, v), row in zip(report.points, values)
            for s, r in zip(report.scales, row)
        ]
    else:
        header = [report.scale_name, report.point_name, "value"]
        rows = [
            (s, float(p), r)
            for p, row in zip(report.points, values)
            for s, r in zip(report.scales, row)
        ]
    return header, rows


@st.composite
def _reports(draw):
    if draw(st.booleans()):
        scales = draw(st.lists(st.floats(5e-324, 1e308), min_size=4, max_size=6))
        points = draw(st.lists(st.tuples(_CELLS, _CELLS), min_size=1, max_size=4))
        layout = ("eps", "uv")
    else:
        scales = draw(st.lists(st.integers(1, 2**960), min_size=4, max_size=6))
        points = draw(st.lists(_CELLS, min_size=1, max_size=4))
        layout = ("n", "x")
    values = draw(st.lists(
        st.lists(_CELLS, min_size=len(scales), max_size=len(scales)),
        min_size=len(points), max_size=len(points),
    ))
    return build_report(layout[0], scales, layout[1], points, np.array(values), 1e-3)


# integers past 1e17, where "%.17g" would round what str writes in full
_INTS = st.integers(-(2**63), 2**63 - 1)
_COLUMN = st.lists(_CELLS, min_size=1, max_size=6)


@st.composite
def _tables(draw):
    """A table of each kind the CLI writes, made by the subcommand's own
    builder from drawn cells (the library call it makes patched to return
    them), with its header and the raw cells of its rows."""
    kind = draw(st.sampled_from(
        ["convergence", "samples", "oscillation", "limit-law", "rho", "norming", "geom-density"]
    ))
    if kind == "convergence":
        report = draw(_reports())
        return cli._convergence(report)[0], _convergence_rows(report)
    if kind == "samples":
        values = draw(_COLUMN)
        return cli._samples(np.array(values)), (["index", "value"], list(enumerate(values)))
    if kind == "oscillation":
        probs = draw(_COLUMN)
        ns, ms = (draw(st.lists(_INTS, min_size=len(probs), max_size=len(probs))) for _ in "nm")
        report = evtlab.OscillationReport(
            evtlab.GeometricParams(0.5), 0, np.array(ns, dtype=np.int64),
            np.array(ms, dtype=np.int64), np.array(probs), 0.0, 1.0, ((0.5, 0.25),),
        )
        args = argparse.Namespace(p=0.5, q=0, n=None, tol=0.5, cluster_c=(0.5,))
        with mock.patch.object(cli, "oscillation_scan", lambda *a: report):
            table, _ = cli._geom_oscillate(args)
        return table, (["n", "m", "probability"], list(zip(ns, ms, probs)))
    if kind == "limit-law":
        xs = draw(_COLUMN)
        gs = draw(st.lists(_CELLS, min_size=len(xs), max_size=len(xs)))
        args = argparse.Namespace(rho=0.0, x=np.array(xs))
        with mock.patch.object(cli, "limit_cdf", lambda rho, x: np.array(gs)):
            table, _ = cli._limit_law(args)
        return table, (["x", "G"], list(zip(xs, gs)))
    if kind == "rho":
        pairs = draw(st.lists(st.tuples(_CELLS, _CELLS), min_size=1, max_size=6))
        report = evtlab.RhoEstimate(0.5, tuple(pairs), 0.25)
        args = argparse.Namespace(dist=None, eps=None, w=None)
        with mock.patch.object(cli, "estimate_rho", lambda *a: report):
            table, _ = cli._rho(args)
        return table, (["eps", "rho_hat"], pairs)
    if kind == "norming":
        row = (draw(st.integers(3, 2**960)), draw(_CELLS), draw(_CELLS))
        args = argparse.Namespace(dist=None, n=None)
        with mock.patch.object(cli, "norming_constants", lambda *a: evtlab.NormingConstants(*row)):
            table, _ = cli._norming(args)
        return table, (["n", "a_n", "b_n"], [row])
    row = (draw(st.integers(1, 2**70)), draw(_CELLS), draw(st.integers(1, 2**70)))
    args = argparse.Namespace(theta=1.0, x=0.5, y=0.75, n_max=10)
    with mock.patch.object(cli, "frac_log_search", lambda *a: row):
        table, _ = cli._geom_density(args)
    return table, (["n", "frac", "sufficient_horizon"], [row])


@st.composite
def _configs(draw):
    """A parsed argument namespace holding each kind of config value, and the
    config text the per-cell rule reads from it."""
    grid = draw(_COLUMN)
    pairs = draw(st.lists(st.tuples(_CELLS, _CELLS), min_size=1, max_size=4))
    cs = draw(st.lists(_CELLS, min_size=1, max_size=4))
    seed, tol = draw(st.integers(0, 2**70)), draw(_CELLS)
    args = argparse.Namespace(
        command="dehaan", seed=seed, format="csv", out="-", dist=evtlab.pareto(2.0),
        eps=np.array(grid), uv=tuple(pairs), cluster_c=tuple(cs), tol=tol, target=None,
    )
    lines = [
        "subcommand=dehaan", f"seed={seed}", "format=csv", "dist=pareto:alpha=2",
        "eps=" + ",".join(map(_cell, grid)),
        "uv=" + ";".join(f"{_cell(u)},{_cell(v)}" for u, v in pairs),
        "cluster_c=" + ",".join(map(_cell, cs)),
        f"tol={_cell(tol)}", "target=",
    ]
    return args, "".join(f"# {line}\n" for line in lines)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_configs(), _tables())
def test_csv_writes_every_cell_by_the_float_rule(config, table):
    # each table is written through one row template and each range string
    # in one format operation; the bytes must be those of formatting every
    # cell of every row, and every value of every range, on its own
    (args, config_text), ((header, rows, body), (names, cells)) = config, table
    assert header == names
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit("-", "csv", cli._config(args), header, rows, body)
    lines = [",".join(header)] + [",".join(map(_cell, row)) for row in cells]
    assert out.getvalue() == config_text + "\n".join(lines) + "\n"


def test_json_output_formats_no_csv_line(monkeypatch):
    # a convergence report's CSV lines are made only when they are written
    report = evtlab.dehaan_test(evtlab.pareto(2.0))
    monkeypatch.setattr(cli, "_fmt", None)  # a call would raise
    (header, rows, body), _ = cli._convergence(report)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli._emit("-", "json", {}, header, rows, body)
    assert json.loads(out.getvalue())["values"] == body["values"]


BAD_RANGE = "needs at least 2 points"
TOO_MANY = "expected start:stop[:count]"
NOT_POSITIVE = "geometric range endpoints must be positive"
NOT_FINITE = "range endpoints must be finite"
DEHAAN = "dehaan --dist pareto:alpha=2"
NONLINEAR = "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1"
OVER_BUDGET = "cells; one call evaluates at most 2**22 = 4194304"


@pytest.mark.parametrize(
    "command,option,value,reason",
    [
        (DEHAAN, "--eps", "1e-2:1e-6:1", BAD_RANGE),
        (DEHAAN, "--eps", "1e-2:1e-6:x", "'x' in '1e-2:1e-6:x' is not an integer"),
        (DEHAAN, "--eps", "1e-2:1e-6:4:5", TOO_MANY),
        (DEHAAN, "--eps", "a:1e-6", "'a' in 'a:1e-6' is not a number"),
        (DEHAAN, "--eps", "0:1", f"{NOT_POSITIVE}, got '0:1'"),
        (NONLINEAR, "--n", "10:1e4:1", BAD_RANGE),
        (NONLINEAR, "--n", "10:1e4:2.5", "'2.5' in '10:1e4:2.5' is not an integer"),
        (NONLINEAR, "--n", "10:1e4:8:2", TOO_MANY),
        (NONLINEAR, "--n", "10:ten", "'ten' in '10:ten' is not a number"),
        (NONLINEAR, "--n", "-10:1e4", NOT_POSITIVE),
        ("geom-oscillate", "--n", "1:1:1", BAD_RANGE),
        ("geom-oscillate", "--n", "1e3:1e6:64:1", TOO_MANY),
        ("geom-oscillate", "--n", "1e3:many", "'many' in '1e3:many' is not a number"),
        ("geom-oscillate", "--n", "0:1e6", NOT_POSITIVE),
        (NONLINEAR, "--x", "1:2:0", BAD_RANGE),
        (NONLINEAR, "--x", "1:2:3:4", TOO_MANY),
        (NONLINEAR, "--x", "1:two", "'two' in '1:two' is not a number"),
        (NONLINEAR, "--x", "0:2", NOT_POSITIVE),
        # one value follows the rule of a range's endpoints
        (DEHAAN, "--eps", "0", f"{NOT_POSITIVE}, got '0'"),
        ("rho --dist pareto:alpha=2", "--eps", "-1e-3", f"{NOT_POSITIVE}, got '-1e-3'"),
        (NONLINEAR, "--n", "0", f"{NOT_POSITIVE}, got '0'"),
        (NONLINEAR, "--x", "0", f"{NOT_POSITIVE}, got '0'"),
        ("geom-oscillate", "--n", "-5", f"{NOT_POSITIVE}, got '-5'"),
        (NONLINEAR, "--x", "one", "'one' in 'one' is not a number"),
        ("limit-law --rho 0", "--x", "-2:6:1", BAD_RANGE),
        ("limit-law --rho 0", "--x", "-2:6:,", "',' in '-2:6:,' is not an integer"),
        ("limit-law --rho 0", "--x", "-2:6:3:4", TOO_MANY),
        ("limit-law --rho 0", "--x", "-2:six", "'six' in '-2:six' is not a number"),
        # refused before numpy sees them, which would warn on stderr first
        ("geom-oscillate", "--n", "1e3:inf:4", f"{NOT_FINITE}, got '1e3:inf:4'"),
        (DEHAAN, "--eps", "1e-2:inf:4", f"{NOT_FINITE}, got '1e-2:inf:4'"),
        ("limit-law --rho 0", "--x", "-inf:inf:3", f"{NOT_FINITE}, got '-inf:inf:3'"),
        ("limit-law --rho 0", "--x", "1e308:-1e308:5",
         "range '1e308:-1e308:5' spans more than the largest double"),
        (DEHAAN, "--uv", "1", "bad pair '1'; expected u,v"),
        (DEHAAN, "--uv", "1,2,3", "bad pair '1,2,3'; expected u,v"),
        (DEHAAN, "--uv", "1,b", "'b' in '1,b' is not a number"),
        ("geom-oscillate", "--cluster-c", "x,y", "'x' in 'x,y' is not a number"),
        ("geom-oscillate", "--cluster-c", "0.5,", "'' in '0.5,' is not a number"),
        ("geom-oscillate", "--cluster-c", "0.5;0.7", "'0.5;0.7' in '0.5;0.7' is not a number"),
        # two ranges each within the cap whose product is past the library's
        # cell budget: a domain error (exit 2) on the command's own line
        (f"{NONLINEAR} --n 10:10000:1048576", "--x", "0.5:4:1048576",
         "evtlab nonlinear: x_grid of 1048576 points by n_grid of 9991 points is "
         f"10476322816 {OVER_BUDGET}"),
        (f"{NONLINEAR} --n 10:10000:128", "--x", "0.5:4:65536",
         "evtlab nonlinear: x_grid of 65536 points by n_grid of 125 points is "
         f"8192000 {OVER_BUDGET}"),
        (DEHAAN, "--eps", "1e-2:1e-6:1048576",
         "evtlab dehaan: uv_grid of 12 pairs by eps_grid of 1048576 points is "
         f"12582912 {OVER_BUDGET}"),
    ],
)
def test_malformed_option_values_say_why(command, option, value, reason, capsys):
    # argparse prints an ArgumentTypeError's own message after the option's
    # name; a ValueError would show only the name of the private type function
    domain = reason.startswith("evtlab ")
    assert cli.run(shlex.split(command) + [f"{option}={value}"]) == (2 if domain else 1)
    out, err = capsys.readouterr()
    if domain:
        assert out == "" and err.startswith(reason)
    else:
        assert out == "" and f"argument {option}: " in err and reason in err
    assert not re.search(r"\b_\w", err), err
    assert err.count("\n") == 1, err


def test_a_library_warning_is_one_line_on_stderr(capsys):
    # n_max is far below the horizon at theta = 1e300: frac_log_search warns
    argv = shlex.split("geom-density --theta 1e300 --x 0 --y 1")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.run(argv) == 0
    quiet = capsys.readouterr()
    assert quiet.err == "" and quiet.out.splitlines()[-1].startswith("1,0,")
    shown = warnings.showwarning
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)  # not once per process
        for _ in range(2):
            assert cli.run(argv) == 0
            out, err = capsys.readouterr()
            assert out == quiet.out
            assert err.startswith(
                "evtlab geom-density: warning: n_max=1000000 is below the sufficient horizon 9"
            )
            assert err.endswith("; the search may fail\n") and err.count("\n") == 1, err
            assert warnings.showwarning is shown


def test_a_failed_run_writes_its_error_line_alone(capsys):
    # n_max is below the horizon, so frac_log_search warns, and then finds no
    # n: the error names the horizon, and the warning before it is not written
    # (the argv fuzz test found the two lines)
    argv = shlex.split("geom-density --theta 1 --x 0.25 --y 1 --n-max 1")
    with warnings.catch_warnings():
        warnings.simplefilter("always", UserWarning)
        assert cli.run(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "evtlab geom-density: no n <= 1 with frac(theta log n) in [0.25, 1.0]; "
        "a horizon of 3 suffices\n"
    )


@pytest.mark.parametrize("x", ["0", "-1.5", "0.5"])
def test_one_value_of_a_linear_range_may_be_any_real(x, capsys):
    assert cli.run(["limit-law", "--rho", "0", f"--x={x}"]) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith(f"{float(x):.17g},")


@pytest.mark.parametrize(
    "command,spec,key",
    [
        ("sample --dist", "normal:mu=0,mu=5", "mu"),
        ("nonlinear --target exponential:rate=1 --base", "uniform:a=0,b=1,a=0.5", "a"),
        ("nonlinear --base uniform:a=0,b=1 --target", "exponential:rate=1,rate=2", "rate"),
    ],
)
def test_repeated_law_parameter_exits_2(command, spec, key, capsys):
    assert cli.run(shlex.split(command) + [spec]) == 2
    message = f"evtlab {command.split()[0]}: parameter '{key}' is given twice in '{spec}'\n"
    assert capsys.readouterr() == ("", message)


def test_unknown_family_exit_2(capsys):
    assert cli.run(shlex.split("sample --dist cauchy:x=1")) == 2
    assert "cauchy" in capsys.readouterr().err


def test_unwritable_path_exit_4(capsys):
    argv = "sample --dist uniform:a=0,b=1 --count 1 --out /nonexistent_dir_xyz/out.csv"
    assert cli.run(shlex.split(argv)) == 4
    assert "cannot write output" in capsys.readouterr().err


def test_main_entry_point(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["evtlab", "limit-law", "--rho", "1", "--x", "0.5"])
    assert cli.main() == 0
    assert capsys.readouterr().out != ""


def test_numpy_random_is_imported_on_the_first_command_that_draws():
    # a fresh interpreter: this one has numpy.random loaded by the tests; the
    # README command lines that draw nothing run first, each at its exit code
    runs = [(c, code) for c, code in EXAMPLES if c.split()[0] not in ("sample", "max")]
    runs.append(("sample --dist exponential:rate=1", 0))
    script = f"""
import contextlib, io, shlex, sys
import evtlab, evtlab.cli
seen = ["numpy.random" in sys.modules]
with contextlib.redirect_stdout(io.StringIO()):
    for argv, code in {runs!r}:
        assert evtlab.cli.run(shlex.split(argv)) == code, argv
        seen.append("numpy.random" in sys.modules)
print(*seen)
"""
    src = str(Path(evtlab.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, check=True
    )
    assert len(runs) == 12 and done.stdout.split() == ["False"] * 12 + ["True"]


@pytest.mark.parametrize("module", ["evtlab", "evtlab.cli"])
@pytest.mark.parametrize(
    "argv,golden",
    [("norming --dist geometric:p=0.5 --n 100", "05-norming.csv"),
     ("sample --dist cauchy:x=1", "27-sample.csv")],
)
def test_python_dash_m_runs_the_command_line(module, argv, golden):
    # python -m evtlab[.cli] ARGS writes the golden bytes of evtlab ARGS and
    # exits with its code
    goldens = Path(__file__).parent / "golden"
    env = {k: v for k, v in os.environ.items() if k != cli.SEED_ENV_VAR}
    src = str(Path(evtlab.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", module, *shlex.split(argv)],
        capture_output=True, env=env, timeout=60,
    )
    assert done.stdout == (goldens / golden).read_bytes()
    assert done.returncode == json.loads((goldens / "exit_codes.json").read_text())[golden]


# Option values at the edges of what the double, int64 and int parsers take:
# signed zeros and subnormals, the largest doubles, the infinities and NaN,
# 2**63 and 2**960 +- 1, digit strings past a double's range and past
# Python's 4 300-digit int limit, the empty string, and a few plain values
EXTREMES = (
    "0", "-0", "0.0", "-0.0", "5e-324", "-5e-324", "1e308", "-1e308", "inf", "-inf", "nan",
    str(2**63), str(-(2**63)), str(2**960 - 1), str(2**960 + 1),
    "1" * 400, "9" * 5000, "0." + "0" * 400 + "1", "", "1", "2", "3", "0.5", "-1",
)
_VALUE = st.sampled_from(EXTREMES)
_RANGE = st.lists(_VALUE, min_size=1, max_size=3).map(":".join)
_LIST = st.lists(_VALUE, min_size=1, max_size=3).map(",".join)
# a law spec: one of each family, or one whose keys may be empty, unknown or
# given twice and whose values are EXTREMES
_LAW = st.one_of(
    st.sampled_from([
        "uniform", "exponential", "pareto:alpha=2", "pareto:alpha=0.01", "normal",
        "degenerate:c=1", "geometric:p=0.5",
    ]),
    st.builds(
        lambda family, items: f"{family}:" + ",".join(f"{k}={v}" for k, v in items),
        st.sampled_from(
            ["uniform", "exponential", "pareto", "normal", "degenerate", "geometric", "x"]
        ),
        st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "rate", "alpha", "mu", "sigma", "c", "p", ""]), _VALUE
            ),
            max_size=3,
        ),
    ),
)


def _or_extreme(*plain):
    return st.one_of(st.sampled_from(plain), _VALUE)


# no large finite theta: a search's cost grows with theta (frac_log_search)
_LARGE = ("1e308", str(2**63), str(2**960 - 1), str(2**960 + 1))
_THETA = st.sampled_from(["100"] + [v for v in EXTREMES if v not in _LARGE])
# each command's required options first; a count or n is at most 1000 unless
# it is one of EXTREMES, so a draw is of a few thousand values at most, or is
# refused by its budget before drawing
FUZZ_OPTIONS = {
    "sample": ({"--dist": _LAW}, {"--count": _or_extreme("5")}),
    "max": (
        {"--dist": _LAW},
        {
            "--n": _or_extreme("10", "1000"),
            "--count": _or_extreme("5"),
            "--method": st.sampled_from(["direct", "exprep", ""]),
        },
    ),
    "dehaan": ({"--dist": _LAW}, {"--eps": _RANGE, "--uv": _LIST, "--tol": _VALUE}),
    "rho": ({"--dist": _LAW}, {"--eps": _RANGE, "--w": _VALUE}),
    "norming": ({"--dist": _LAW, "--n": _or_extreme("100")}, {}),
    "limit-law": ({"--rho": _VALUE}, {"--x": _RANGE}),
    "nonlinear": (
        {"--base": _LAW},
        {
            "--target": _LAW,
            "--normalizer": st.sampled_from(["construction", "affine", ""]),
            "--variant": st.sampled_from(["exp", "linear", "epsilon", ""]),
            "--x": _RANGE,
            "--n": _RANGE,
            "--tol": _VALUE,
            "--nondeg-tol": _VALUE,
        },
    ),
    "geom-oscillate": (
        {},
        {
            "--p": _or_extreme("0.25"),
            "--q": _VALUE,
            "--n": _RANGE,
            "--tol": _VALUE,
            "--cluster-c": _LIST,
        },
    ),
    "geom-density": (
        {"--theta": _THETA, "--x": _or_extreme("0.25"), "--y": _or_extreme("0.75")},
        {"--n-max": _VALUE},
    ),
}
_COMMON = {"--seed": _VALUE, "--format": st.sampled_from(["csv", "json", ""])}


@st.composite
def _argv(draw, command):
    required, optional = FUZZ_OPTIONS[command]
    optional = {**optional, **_COMMON}
    pairs = [(name, draw(values)) for name, values in required.items()]
    # an option may come twice, which argparse resolves to its last value
    names = draw(st.lists(st.sampled_from(sorted(optional)), max_size=4))
    pairs += [(name, draw(optional[name])) for name in names]
    return [command] + [f"{name}={value}" for name, value in pairs]


@pytest.mark.parametrize("command", FUZZ_OPTIONS)
@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_argv_keeps_the_exit_code_contract(command, data):
    # whatever the values, a run ends with a code of the contract and at most
    # one line on stderr, never a traceback or a raw warning
    argv = data.draw(_argv(command))
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2, 3), (argv, code, err)
    assert "Traceback" not in out + err and "Warning" not in err, (argv, err)
    if err:
        usage = code == 1 and err.startswith("usage:")
        assert usage or (err.count("\n") == 1 and err.startswith(f"evtlab {command}:")), (
            argv, err
        )
    if code == 0:
        assert out, argv


@st.composite
def _over_the_budget(draw):
    """The argv of a nonlinear or dehaan run whose grid product is past the
    library's cell budget, with every point count at most the CLI's cap,
    and that product."""
    cap, cells = cli.MAX_RANGE_POINTS, stats._MAX_CELLS
    if draw(st.booleans()):
        xs = draw(st.integers(cells // cap + 1, cap))
        ns = draw(st.integers(max(2, cells // xs + 1), cap))
        # the n grid rounds to distinct integers from 1e9 on, so it keeps all ns points
        argv = [f"--x=0.5:4:{xs}", f"--n=1e9:1e15:{ns}"]
        return ["nonlinear", "--base", "uniform", "--target", "exponential", *argv], xs * ns
    pairs = draw(st.integers(1, 12))
    assume(pairs * cap > cells)
    scales = draw(st.integers(cells // pairs + 1, cap))
    uv = [f"--uv={i + 2},{i + 3}" for i in range(pairs)]
    return ["dehaan", "--dist", "pareto:alpha=2", f"--eps=1e-2:1e-6:{scales}", *uv], pairs * scales


@settings(max_examples=10, deadline=None, derandomize=True)
@given(case=_over_the_budget())
def test_every_grid_past_the_cell_budget_is_refused(case):
    # a refused run builds no product grid: exit 2 and one line naming it
    argv, cells = case
    assert cells > stats._MAX_CELLS
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code == 2 and out == "", (argv, code, err)
    assert err.count("\n") == 1 and err.startswith(f"evtlab {argv[0]}:"), (argv, err)
    assert f" is {cells} cells; " in err, (argv, err)
