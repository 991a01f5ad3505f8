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
import math
import os
import sys
import warnings
from itertools import chain, islice, repeat

import numpy as np

from .dist import Distribution, parse_distribution, sample_quantile_transform, spec_string
from .errors import DomainError, EvtLabError
from .geometric import DEFAULT_CLUSTER_CS, GeometricParams, frac_log_search, oscillation_scan
from .linear_evt import (
    DEFAULT_EPS_GRID,
    DEFAULT_RHO_W,
    DEFAULT_UV_GRID,
    dehaan_test,
    estimate_rho,
    limit_cdf,
    norming_constants,
)
from .maxima import MaxLaw, sample_max_direct, sample_max_exponential_rep
from .nonlinear_evt import (
    DEFAULT_N_GRID, DEFAULT_NONDEG_TOL, HnVariant, NormalizerSequence, convergence_diagnostic,
    default_x_grid,
)
from .reports import DEFAULT_CAUCHY_TOL
from .stats import _real, make_rng

__all__ = ["main", "run"]

SEED_ENV_VAR = "EVTLAB_SEED"
DEFAULT_RANGE_POINTS = 16
# a range's point count is refused above this before anything is allocated
MAX_RANGE_POINTS = 2**20
# options that name a law: run parses them before the subcommand sees them
_LAW_ARGS = ("dist", "base", "target")
# options that say how to run and where to write, outside the embedded config
_RUN_ARGS = ("command", "seed", "format", "out")
# rows one format operation writes: a larger table is written in chunks of
# this many rows, so the writer holds one chunk's cells and text at a time,
# about 150 B a row of a sample's CSV table (0.6 MB)
_CHUNK = 2**12

_VARIANTS = {
    "exp": HnVariant.EXP_FORM,
    "linear": HnVariant.LINEAR_FORM,
    # kept so that existing command lines run: without an eps it always had linear's mass x/n
    "epsilon": HnVariant.LINEAR_FORM,
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


def _number(part: str, text: str, kind=float):
    # argparse prints an ArgumentTypeError's message, but for a ValueError only
    # the name of the type function, which here is private
    try:
        return kind(part)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise argparse.ArgumentTypeError(f"{part!r} in {text!r} is not {noun}") from None


def _parse_range(text: str, count: int = DEFAULT_RANGE_POINTS, spacing: str = "geometric"):
    """``start:stop[:count]`` grids, or one value; geometric spacing, whose
    values must be positive, unless told otherwise.  Endpoints must be
    finite, and so must stop - start."""
    parts = text.split(":")
    if len(parts) == 3:
        count = _number(parts[2], text, int)
    elif len(parts) > 3:
        raise argparse.ArgumentTypeError(f"bad range {text!r}; expected start:stop[:count]")
    ends = [_number(part, text) for part in parts[:2]]
    if count < 2:
        raise argparse.ArgumentTypeError(f"range {text!r} needs at least 2 points")
    if count > MAX_RANGE_POINTS:
        raise argparse.ArgumentTypeError(
            f"range {text!r} asks for {count} points; at most 2**20 = {MAX_RANGE_POINTS}"
        )
    if not all(map(math.isfinite, ends)):
        raise argparse.ArgumentTypeError(f"range endpoints must be finite, got {text!r}")
    # in Python floats, so an overflow is inf and no numpy warning
    if not math.isfinite(ends[-1] - ends[0]):
        raise argparse.ArgumentTypeError(f"range {text!r} spans more than the largest double")
    if spacing == "geometric" and any(end <= 0.0 for end in ends):
        raise argparse.ArgumentTypeError(
            f"geometric range endpoints must be positive, got {text!r}"
        )
    if len(ends) == 1:
        return np.array(ends)
    if spacing == "geometric":
        return np.geomspace(*ends, count)
    return np.linspace(*ends, count)


def _linear_range(text: str):
    return _parse_range(text, spacing="linear")


def _int_range(text: str):
    vals = np.rint(_parse_range(text))
    # the int64 cast is undefined at and beyond 2**63 (and for nan)
    if not np.all(np.abs(vals) < 2.0**63):
        raise argparse.ArgumentTypeError(
            f"integer grid {text!r} must stay below 2**63 in magnitude"
        )
    # ascending, each value once: a sort, then each value that differs from the
    # one before it (np.unique's hash table took 0.9 s on 2**20 points, 2-vCPU x86-64)
    ints = np.sort(vals.astype(np.int64))
    return ints[np.concatenate(([True], ints[1:] != ints[:-1]))]


def _uv_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"bad pair {text!r}; expected u,v")
    return _number(parts[0], text), _number(parts[1], text)


def _float_list(text: str):
    return tuple(_number(v, text) for v in text.split(","))


def _fmt(v) -> str:
    """The conversion that writes the cell ``v``: a float to 17 significant
    digits, which read back as the same double, anything else through str."""
    return "%.17g" if isinstance(v, float) else "%s"


def _range_str(values) -> str:
    """A grid, or a tuple of floats or of pairs, as one config string in one
    format operation: floats comma-joined, pairs joined by ';'."""
    arr = np.asarray(values, dtype=float)
    cells = ",".join(["%.17g"] * arr.shape[-1])
    return ";".join([cells] * (arr.size // arr.shape[-1])) % tuple(arr.ravel().tolist())


def _config_value(value):
    if isinstance(value, Distribution):
        return spec_string(value)
    if isinstance(value, (np.ndarray, tuple)):
        return _range_str(value)
    if value is None:
        return ""
    return value


def _config(args) -> dict:
    """The resolved configuration, options in the order they are declared."""
    config = {"subcommand": args.command, "seed": args.seed, "format": args.format}
    for key, value in vars(args).items():
        if key not in _RUN_ARGS:
            config[key] = _config_value(value)
    return config


def _csv(config: dict, header, rows):
    """The CSV text, in parts: a ``# key=value`` line per config entry, the
    header and the rows, in chunks of ``_CHUNK`` rows, each part written by
    one format operation; the first part holds all three, and a table of
    one chunk is that part alone.  A row's template takes each column's
    conversion from the column's first cell, as every column holds one
    type, and is repeated over every cell of a chunk's rows, flattened into
    one tuple; cell text is never part of a template."""
    head = "".join([f"# %s={_fmt(v)}\n" for v in config.values()])
    rows = iter(rows)
    cells = tuple(chain.from_iterable(islice(rows, _CHUNK)))
    line = ",".join(map(_fmt, cells[: len(header)])) + "\n"
    yield "".join([
        head % tuple(chain.from_iterable(config.items())),
        ",".join(header) + "\n",
        (line * (len(cells) // len(header))) % cells,
    ])
    while len(cells) == _CHUNK * len(header):  # a full chunk: more rows may follow
        cells = tuple(chain.from_iterable(islice(rows, _CHUNK)))
        if cells:
            yield (line * (len(cells) // len(header))) % cells


def _json(config: dict, body):
    """The text of ``json.dumps({"config": config, **body}, indent=2)`` and a
    newline, in parts.  A body whose last value is a nonempty float array,
    a sample of finite values, has that array written in chunks of
    ``_CHUNK`` values, each by one format operation, with the float repr
    json writes.  Any other body, a convergence report's lists among them,
    is json's encoder's tokens, ``_CHUNK`` to a part; json.dumps joins all."""
    doc = {"config": config, **body}
    key, values = next(reversed(doc.items()))
    if not (isinstance(values, np.ndarray) and values.size):
        tokens = chain(json.JSONEncoder(indent=2).iterencode(doc), ["\n"])
        while text := "".join(islice(tokens, _CHUNK)):
            yield text
        return
    head = json.dumps({**doc, key: []}, indent=2)[:-3]  # up to the array's "["
    for i in range(0, values.size, _CHUNK):
        chunk = values[i : i + _CHUNK].tolist()
        text = (",\n    %r" * len(chunk)) % tuple(chunk)
        yield head + text[1:] if i == 0 else text
    yield "\n  ]\n}\n"


def _emit(path: str, fmt: str, config: dict, header, rows, body) -> None:
    # rows are iterated only when CSV is written; body, the JSON body, is a
    # dict of the result's own values, whose tuples json writes as arrays
    parts = _json(config, body) if fmt == "json" else _csv(config, header, rows)
    if path == "-":
        sys.stdout.writelines(parts)
    else:
        with open(path, "w", newline="") as fh:
            fh.writelines(parts)


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


def _texts(values) -> list:
    """The cell text of each of ``values``, a column of one type, made in one
    format operation."""
    return ("\n".join([_fmt(values[0])] * len(values)) % tuple(values)).split("\n")


def _convergence_rows(result, values):
    """The CSV rows of a convergence report, point-major, made only when they
    are written.  Its rows repeat each scale once per point and each point
    once per scale, so each scale and point is formatted once per report
    (``_texts``) and the rows carry that text."""
    if result.point_name == "uv":
        scales = _texts([float(s) for s in result.scales])
        us = _texts([float(u) for u, _ in result.points])
        vs = _texts([float(v) for _, v in result.points])
        for u, v, row in zip(us, vs, values):
            yield from zip(scales, repeat(u), repeat(v), row)
    else:
        scales = _texts(list(result.scales))
        for p, row in zip(_texts([float(p) for p in result.points]), values):
            yield from zip(scales, repeat(p), row)


def _convergence(report):
    """A convergence report's table, JSON body and exit code: 3 when its
    verdict fails."""
    values = report.values.tolist()
    if report.point_name == "uv":
        header = [report.scale_name, "u", "v", "ratio"]
    else:
        header = [report.scale_name, report.point_name, "value"]
    body = {
        "scale": report.scale_name,
        "grid": report.scales,
        "point": report.point_name,
        "points": report.points,
        "values": values,
        "tol": report.tol,
        "window": report.window,
        "converged_per_point": report.converged_per_point,
        "converged": report.converged,
        "verdict": report.verdict,
        "limit_table": report.limit_table,
    }
    if report.nondegenerate is not None:
        body["nondegenerate"] = report.nondegenerate
    return (header, _convergence_rows(report, values), body), 0 if report.verdict else 3


def _record(body):
    """A one-row table whose columns are the keys of its JSON body."""
    return (list(body), [tuple(body.values())], body), 0


def _samples(xs):
    """A sample's table: its rows are made a chunk at a time as they are
    written, and its JSON body holds the array, which ``_json`` writes."""
    chunks = (xs[i : i + _CHUNK].tolist() for i in range(0, xs.size, _CHUNK))
    rows = enumerate(chain.from_iterable(chunks))
    return ["index", "value"], rows, {"samples": xs}


def _sample(args):
    return _samples(sample_quantile_transform(args.dist, make_rng(args.seed), args.count)), 0


def _max(args):
    law = MaxLaw(args.dist, args.n)
    sampler = sample_max_direct if args.method == "direct" else sample_max_exponential_rep
    return _samples(sampler(law, make_rng(args.seed), args.count)), 0


def _dehaan(args):
    return _convergence(dehaan_test(args.dist, args.eps, args.uv, args.tol))


def _rho(args):
    est = estimate_rho(args.dist, args.eps, args.w)
    body = {"rho": est.rho, "spread": est.spread, "per_scale": est.per_scale}
    return (["eps", "rho_hat"], est.per_scale, body), 0


def _norming(args):
    nc = norming_constants(args.dist, args.n)
    return _record({"n": nc.n, "a_n": nc.a_n, "b_n": nc.b_n})


def _limit_law(args):
    xs, gs = args.x.tolist(), limit_cdf(args.rho, args.x).tolist()
    return (["x", "G"], zip(xs, gs), {"rho": args.rho, "x": xs, "G": gs}), 0


def _nonlinear(args):
    if args.normalizer == "affine":
        seq = NormalizerSequence.affine(args.base)
    elif args.target is None:
        raise DomainError("--target is required for the construction normalizer")
    else:
        seq = NormalizerSequence.from_target(args.target, args.base)
    return _convergence(convergence_diagnostic(
        seq, args.x, args.n, _VARIANTS[args.variant], args.tol, args.nondeg_tol
    ))


def _geom_oscillate(args):
    tol = _real(args.tol, "tol", "[0, inf]")
    report = oscillation_scan(GeometricParams(args.p), args.q, args.n, args.cluster_c)
    ns, ms, probs = report.n_values.tolist(), report.levels.tolist(), report.probs.tolist()
    spread = report.lim_sup_est - report.lim_inf_est
    body = {
        "p": report.params.p,
        "theta": report.params.theta,
        "q": report.q,
        "n": ns,
        "m": ms,
        "probability": probs,
        "lim_inf_est": report.lim_inf_est,
        "lim_sup_est": report.lim_sup_est,
        "cluster_points": report.cluster_points,
        "spread": spread,
        "converged": spread <= tol,
    }
    return (["n", "m", "probability"], zip(ns, ms, probs), body), 0 if body["converged"] else 3


def _geom_density(args):
    n, frac, horizon = frac_log_search(args.theta, args.x, args.y, args.n_max)
    return _record({"n": n, "frac": frac, "sufficient_horizon": horizon})


# Each subcommand computes ((header, rows, body), exit code) from the parsed
# arguments, with rows iterated only when CSV is written and body the JSON
# body, a dict; run resolves the seed and the law specs before, writes after.
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
    parser.commands = sub.choices  # the subcommand parsers by name, which _parse calls

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
    p.add_argument("--eps", type=_parse_range, default=DEFAULT_EPS_GRID,
                   help="geometric scale grid start:stop[:count]")
    p.add_argument("--uv", type=_uv_pair, action=_AppendPair, default=DEFAULT_UV_GRID,
                   help="u,v pair (repeatable; default: a 12-pair grid)")
    p.add_argument("--tol", type=float, default=DEFAULT_CAUCHY_TOL)
    common(p)

    p = sub.add_parser("rho", help="estimate the attraction index rho")
    p.add_argument("--dist", required=True)
    p.add_argument("--eps", type=_parse_range, default=DEFAULT_EPS_GRID)
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
    p.add_argument("--variant", choices=sorted(_VARIANTS), default="linear",
                   help="tail mass 1 - exp(-x/n) (exp) or x/n (linear); "
                   "epsilon: an alias of linear")
    p.add_argument("--x", type=_parse_range, default=_frozen(default_x_grid()),
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


def _parse(argv) -> argparse.Namespace:
    """argv parsed once: by its subcommand's own parser when ``argv[0]`` names
    one, which gives the namespace the top-level parser would give, and
    otherwise (no argv, ``-h``, an unknown command) by the top-level parser."""
    parser = build_parser()
    sub = parser.commands.get(argv[0]) if argv else None
    if sub is None:
        return parser.parse_args(argv)
    args, extras = sub.parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def run(argv) -> int:
    """Parse argv (no program name) and execute; returns the exit code.  A
    library warning goes to stderr as one line, as an error does, once the
    report is written; a run that fails writes its one error line alone."""
    try:
        args = _parse(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    shown, notes = warnings.showwarning, []
    warnings.showwarning = lambda message, *_, **__: notes.append(
        f"evtlab {args.command}: warning: {message}\n"
    )
    try:
        args.seed = _resolve_seed(args)
        for name in _LAW_ARGS:
            if getattr(args, name, None) is not None:
                setattr(args, name, parse_distribution(getattr(args, name)))
        (header, rows, body), code = _COMMANDS[args.command](args)
        # formed once the command has run: a refused run formats none of its grids
        _emit(args.out, args.format, _config(args), header, rows, body)
        sys.stderr.writelines(notes)
        return code
    except EvtLabError as exc:
        print(f"evtlab {args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"evtlab {args.command}: cannot write output: {exc}", file=sys.stderr)
        return 4
    finally:
        warnings.showwarning = shown


def main() -> int:
    return run(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
