"""Command-line front end.

Every subcommand writes a single CSV or JSON report that embeds the fully
resolved configuration (including the seed), so identical invocations
produce byte-identical output.  Exit codes: 0 success, 1 usage error,
2 domain/precondition error, 3 negative mathematical verdict (a diagnostic
that did not converge or degenerated), 4 unwritable output path.
"""

import argparse
import functools
import json
import os
import sys

import numpy as np

from .dist import Distribution, parse_distribution, sample_quantile_transform, spec_string
from .errors import DomainError, EvtLabError
from .geometric import (
    DEFAULT_CLUSTER_CS, GeometricParams, OscillationReport, frac_log_search, oscillation_scan
)
from .linear_evt import (
    DEFAULT_EPS_GRID,
    DEFAULT_RHO_W,
    DEFAULT_UV_GRID,
    NormingConstants,
    RhoEstimate,
    dehaan_test,
    estimate_rho,
    limit_cdf,
    norming_constants,
)
from .maxima import HnVariant, MaxLaw, sample_max_direct, sample_max_exponential_rep
from .nonlinear_evt import (
    DEFAULT_N_GRID, DEFAULT_NONDEG_TOL, NormalizerSequence, convergence_diagnostic, default_x_grid
)
from .reports import DEFAULT_CAUCHY_TOL, ConvergenceReport, _check_tol
from .stats import make_rng

__all__ = ["main", "run"]

SEED_ENV_VAR = "EVTLAB_SEED"
DEFAULT_RANGE_POINTS = 16
# a range's point count is refused above this before anything is allocated
MAX_RANGE_POINTS = 2**20
# options that name a law: run parses them before the subcommand sees them
_LAW_ARGS = ("dist", "base", "target")
# options that say how to run and where to write, outside the embedded config
_RUN_ARGS = ("command", "seed", "format", "out")

_VARIANTS = {
    "exp": HnVariant.EXP_FORM,
    "linear": HnVariant.LINEAR_FORM,
    "epsilon": HnVariant.EPSILON_FORM,
}


class _UsageError(Exception):
    pass


class _AppendPair(argparse.Action):
    # repeatable --uv whose first use replaces the default grid, not extends it
    def __call__(self, parser, namespace, value, option_string=None):
        given = getattr(namespace, self.dest)
        setattr(namespace, self.dest, (() if given is self.default else given) + (value,))


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract here is 1
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _parse_range(text: str, count: int = DEFAULT_RANGE_POINTS, spacing: str = "geometric"):
    """``start:stop[:count]`` grids; geometric spacing unless told otherwise."""
    parts = text.split(":")
    if len(parts) == 1:
        return np.array([float(parts[0])])
    if len(parts) == 3:
        count = int(parts[2])
    elif len(parts) != 2:
        raise ValueError(f"bad range {text!r}; expected start:stop[:count]")
    start, stop = float(parts[0]), float(parts[1])
    if count < 2:
        raise ValueError("range needs at least 2 points")
    if count > MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} asks for {count} points; at most 2**20 = {MAX_RANGE_POINTS}"
        )
    if spacing == "geometric":
        if start <= 0.0 or stop <= 0.0:
            raise ValueError("geometric range endpoints must be positive")
        return np.geomspace(start, stop, count)
    return np.linspace(start, stop, count)


def _geometric_range(text: str):
    return _parse_range(text, spacing="geometric")


def _linear_range(text: str):
    return _parse_range(text, spacing="linear")


def _int_range(text: str):
    vals = np.rint(_parse_range(text))
    # the int64 cast is undefined at and beyond 2**63 (and for nan)
    if not np.all(np.abs(vals) < 2.0**63):
        raise argparse.ArgumentTypeError(
            f"integer grid {text!r} must stay below 2**63 in magnitude"
        )
    return np.unique(vals.astype(np.int64))


def _uv_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad pair {text!r}; expected u,v")
    return float(parts[0]), float(parts[1])


def _float_list(text: str):
    return tuple(float(v) for v in text.split(","))


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _range_str(values) -> str:
    return ",".join(_fmt(float(v)) for v in np.asarray(values).ravel())


def _config_value(value):
    if isinstance(value, Distribution):
        return spec_string(value)
    if isinstance(value, np.ndarray):
        return _range_str(value)
    if value is None:
        return ""
    if isinstance(value, tuple):
        if isinstance(value[0], tuple):
            return ";".join(f"{u:g},{v:g}" for u, v in value)
        return ",".join(_fmt(v) for v in value)
    return value


def _config(args) -> dict:
    """The resolved configuration, options in the order they are declared."""
    config = {"subcommand": args.command, "seed": args.seed, "format": args.format}
    for key, value in vars(args).items():
        if key not in _RUN_ARGS:
            config[key] = _config_value(value)
    return config


def _emit(path: str, fmt: str, config: dict, header, rows, json_body: dict) -> None:
    if fmt == "json":
        text = json.dumps({"config": config, **json_body}, indent=2) + "\n"
    else:
        lines = [f"# {k}={_fmt(v)}" for k, v in config.items()]
        lines.append(",".join(header))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _resolve_seed(args) -> int:
    seed = args.seed
    if seed is None:
        raw = os.environ.get(SEED_ENV_VAR, "0")
        try:
            seed = int(raw)
        except ValueError:
            raise DomainError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}")
    if seed < 0:
        raise DomainError(f"seed must be non-negative, got {seed}")
    return seed


def _point(p):
    return list(p) if isinstance(p, tuple) else float(p)


def _table(result):
    """The CSV header and rows and the JSON body of a diagnostic's result.

    This is the one place that knows how each result type is written out.
    """
    if isinstance(result, RhoEstimate):
        per_scale = [[float(e), float(r)] for e, r in result.per_scale]
        body = {"rho": result.rho, "spread": result.spread, "per_scale": per_scale}
        return ["eps", "rho_hat"], [tuple(pair) for pair in per_scale], body
    if isinstance(result, NormingConstants):
        body = {"n": result.n, "a_n": result.a_n, "b_n": result.b_n}
        return list(body), [tuple(body.values())], body
    if isinstance(result, OscillationReport):
        ns, ms, probs = result.n_values.tolist(), result.levels.tolist(), result.probs.tolist()
        body = {
            "p": result.params.p,
            "theta": result.params.theta,
            "q": result.q,
            "n": ns,
            "m": ms,
            "probability": probs,
            "lim_inf_est": result.lim_inf_est,
            "lim_sup_est": result.lim_sup_est,
            "cluster_points": [[float(c), float(v)] for c, v in result.cluster_points],
        }
        return ["n", "m", "probability"], list(zip(ns, ms, probs)), body
    if isinstance(result, ConvergenceReport):
        values = result.values.tolist()
        cells = [
            (s, p, v)
            for p, row in zip(result.points, values)
            for s, v in zip(result.scales, row)
        ]
        if result.point_name == "uv":
            header = [result.scale_name, "u", "v", "ratio"]
            rows = [(float(s), float(u), float(v), r) for s, (u, v), r in cells]
        else:
            header = [result.scale_name, result.point_name, "value"]
            rows = [(s, float(p), v) for s, p, v in cells]
        body = {
            "scale": result.scale_name,
            "grid": list(result.scales),
            "point": result.point_name,
            "points": [_point(p) for p in result.points],
            "values": values,
            "tol": result.tol,
            "window": result.window,
            "converged_per_point": list(result.converged_per_point),
            "converged": result.converged,
            "verdict": result.verdict,
            "limit_table": [[_point(p), float(v)] for p, v in result.limit_table],
        }
        if result.nondegenerate is not None:
            body["nondegenerate"] = result.nondegenerate
        return header, rows, body
    raise TypeError(f"no output layout for {type(result).__name__}")


def _samples(xs):
    values = [float(x) for x in xs]
    return ["index", "value"], list(enumerate(values)), {"samples": values}


def _sample(args):
    return _samples(sample_quantile_transform(args.dist, make_rng(args.seed), args.count)), 0


def _max(args):
    law = MaxLaw(args.dist, args.n)
    sampler = sample_max_direct if args.method == "direct" else sample_max_exponential_rep
    return _samples(sampler(law, make_rng(args.seed), args.count)), 0


def _dehaan(args):
    report = dehaan_test(args.dist, args.eps, args.uv, args.tol)
    return _table(report), 0 if report.verdict else 3


def _rho(args):
    return _table(estimate_rho(args.dist, args.eps, args.w)), 0


def _norming(args):
    return _table(norming_constants(args.dist, args.n)), 0


def _limit_law(args):
    xs, gs = args.x.tolist(), limit_cdf(args.rho, args.x).tolist()
    return (["x", "G"], list(zip(xs, gs)), {"rho": args.rho, "x": xs, "G": gs}), 0


def _nonlinear(args):
    if args.normalizer == "affine":
        seq = NormalizerSequence.affine(args.base)
    elif args.target is None:
        raise DomainError("--target is required for the construction normalizer")
    else:
        seq = NormalizerSequence.from_target(args.target, args.base)
    report = convergence_diagnostic(
        seq, args.x, args.n, _VARIANTS[args.variant], args.tol, args.nondeg_tol
    )
    return _table(report), 0 if report.verdict else 3


def _geom_oscillate(args):
    _check_tol(args.tol)
    report = oscillation_scan(GeometricParams(args.p), args.q, args.n, args.cluster_c)
    spread = report.lim_sup_est - report.lim_inf_est
    converged = spread <= args.tol
    header, rows, body = _table(report)
    body |= {"spread": spread, "converged": converged}
    return (header, rows, body), 0 if converged else 3


def _geom_density(args):
    n, frac, horizon = frac_log_search(args.theta, args.x, args.y, args.n_max)
    body = {"n": n, "frac": frac, "sufficient_horizon": horizon}
    return (list(body), [(n, frac, horizon)], body), 0


# Each subcommand computes ((header, rows, body), exit code) from the parsed
# arguments; run resolves the seed and the law specs before and writes the
# output after.
_COMMANDS = {
    "sample": _sample,
    "max": _max,
    "dehaan": _dehaan,
    "rho": _rho,
    "norming": _norming,
    "limit-law": _limit_law,
    "nonlinear": _nonlinear,
    "geom-oscillate": _geom_oscillate,
    "geom-density": _geom_density,
}


def _frozen(values: np.ndarray) -> np.ndarray:
    # a default of the one shared parser: every run reads this same array
    values.setflags(write=False)
    return values


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; its defaults are shared and read-only."""
    parser = _Parser(prog="evtlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def common(p):
        p.add_argument("--seed", type=int, default=None,
                       help=f"random seed (default: ${SEED_ENV_VAR} or 0)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default="-", help="output path, or - for stdout")

    p = sub.add_parser("sample", help="quantile-transform sampling")
    p.add_argument("--dist", required=True)
    p.add_argument("--count", type=int, default=1000)
    common(p)

    p = sub.add_parser("max", help="sample maxima of n iid draws")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, default=10)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--method", choices=("direct", "exprep"), default="direct")
    common(p)

    p = sub.add_parser("dehaan", help="attraction criterion scale sweep")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", type=_geometric_range, default=DEFAULT_EPS_GRID,
                   help="geometric scale grid start:stop[:count]")
    p.add_argument("--uv", type=_uv_pair, action=_AppendPair, default=DEFAULT_UV_GRID,
                   help="u,v pair (repeatable; default: a 12-pair grid)")
    p.add_argument("--tol", type=float, default=DEFAULT_CAUCHY_TOL)
    common(p)

    p = sub.add_parser("rho", help="estimate the attraction index rho")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", type=_geometric_range, default=DEFAULT_EPS_GRID)
    p.add_argument("--w", type=float, default=DEFAULT_RHO_W)
    common(p)

    p = sub.add_parser("norming", help="canonical affine constants a_n, b_n")
    p.add_argument("--dist", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p)

    p = sub.add_parser("limit-law", help="tabulate the limit cdf for a given rho")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--x", type=_linear_range, default=_frozen(_linear_range("-2:6:33")),
                   help="linear grid start:stop[:count]")
    common(p)

    p = sub.add_parser("nonlinear", help="normalizer-sequence convergence diagnostic")
    p.add_argument("--base", required=True)
    p.add_argument("--target", default=None)
    p.add_argument("--normalizer", choices=("construction", "affine"),
                   default="construction")
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="linear")
    p.add_argument("--x", type=_geometric_range, default=_frozen(default_x_grid()),
                   help="geometric grid (default: 32 points on [1/16, 16])")
    p.add_argument("--n", type=_int_range, default=DEFAULT_N_GRID)
    p.add_argument("--tol", type=float, default=DEFAULT_CAUCHY_TOL)
    p.add_argument("--nondeg-tol", type=float, default=DEFAULT_NONDEG_TOL)
    common(p)

    p = sub.add_parser("geom-oscillate", help="oscillating maxima probe (geometric law)")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=int, default=0)
    p.add_argument("--n", type=_int_range, default=_frozen(_int_range("1e3:1e6:64")))
    p.add_argument("--tol", type=float, default=1e-2,
                   help="spread above which the probe counts as oscillating")
    p.add_argument("--cluster-c", type=_float_list, default=DEFAULT_CLUSTER_CS)
    common(p)

    p = sub.add_parser("geom-density", help="find n with frac(theta log n) in [x, y]")
    p.add_argument("--theta", type=float, required=True)
    p.add_argument("--x", type=float, required=True)
    p.add_argument("--y", type=float, required=True)
    p.add_argument("--n-max", type=int, default=1_000_000)
    common(p)

    return parser


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    try:
        args.seed = _resolve_seed(args)
        for name in _LAW_ARGS:
            if getattr(args, name, None) is not None:
                setattr(args, name, parse_distribution(getattr(args, name)))
        config = _config(args)
        (header, rows, body), code = _COMMANDS[args.command](args)
        _emit(args.out, args.format, config, header, rows, body)
        return code
    except EvtLabError as exc:
        print(f"evtlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"evtlab {args.command}: cannot write output: {exc}", file=sys.stderr)
        return 4


def main() -> int:
    return run(sys.argv[1:])
