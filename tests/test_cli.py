"""Command-line interface: exit codes, output layout, determinism."""

import json
import math
import shlex
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtri

from evtlab import cli

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
    assert out == "" and f"{name} must be >= 0" in err


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
    assert out == "" and "rho must be a finite real number" in err


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


def test_range_point_count_ceiling_is_inclusive():
    assert cli._parse_range(f"1:2:{cli.MAX_RANGE_POINTS}").size == cli.MAX_RANGE_POINTS


def test_usage_errors_exit_1(capsys):
    for argv in (
        "frobnicate --dist uniform:a=0,b=1",
        "sample --dist uniform:a=0,b=1 --bogus-flag 3",
        "sample",
        "dehaan --dist uniform:a=0,b=1 --eps 1e-2:1e-6:1",
        "dehaan --dist uniform:a=0,b=1 --uv 2;4",
        "geom-oscillate --cluster-c x,y",
    ):
        assert cli.run(shlex.split(argv)) == 1, argv
        assert capsys.readouterr().err != ""


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
