"""CLI output compared byte for byte against recorded golden output.

Each command line below runs in CSV and in JSON; ``tests/golden/`` holds
the exact stdout of every run, and ``tests/golden/exit_codes.json`` its exit
code.  After a deliberate output change, record the fixture again with

    PYTHONPATH=src python tests/test_golden.py

and say in CHANGES.md which bytes changed and why.
"""

import contextlib
import io
import json
import os
import shlex
import sys
from pathlib import Path

import pytest

from evtlab import cli

GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

COMMANDS = [
    # the README command lines
    "sample --dist exponential:rate=1 --count 5 --seed 7",
    "max --dist uniform:a=0,b=1 --n 100 --count 5 --method exprep --seed 7",
    "dehaan --dist pareto:alpha=2 --eps 1e-2:1e-6 --uv 2,4",
    "dehaan --dist geometric:p=0.5 --uv 3,4",
    "rho --dist pareto:alpha=2",
    "norming --dist geometric:p=0.5 --n 100",
    "norming --dist geometric:p=0.2 --n 100",
    "limit-law --rho 0 --x=-2:6:33",
    "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1",
    "nonlinear --base geometric:p=0.5 --normalizer affine",
    "geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64",
    "geom-oscillate --p 0.5 --q 0 --n 1024:1048576:11",
    "geom-density --theta 1 --x 0.6 --y 0.7",
    # the acceptance suite's criterion-10 lines not already above
    "sample --dist normal:mu=0,sigma=1 --count 100 --seed 3",
    "max --dist exponential:rate=1 --n 50 --count 100 --method exprep --seed 3",
    "dehaan --dist pareto:alpha=2 --uv 2,4",
    "rho --dist exponential:rate=1",
    "norming --dist pareto:alpha=1 --n 10",
    "limit-law --rho -0.5 --x=-2:6:33",
    # defaults and options the lines above leave out
    "dehaan --dist uniform:a=0,b=1",
    "dehaan --dist exponential:rate=2 --eps 1e-3:1e-5:5 --uv 0.5,2 --uv 4,0.25 --tol 1e-2",
    "max --dist pareto:alpha=2 --n 20 --count 5 --method direct --seed 7",
    "rho --dist uniform:a=0,b=1 --eps 1e-2:1e-4:4 --w 3",
    "limit-law --rho 1 --x 0.5",
    "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1 --variant exp"
    " --x 0.5:4:5 --n 10:10000:5 --tol 1e-2 --nondeg-tol 1e-3",
    "geom-oscillate --p 0.3 --q 1 --n 10:1000:8 --tol 0.5 --cluster-c 0.1,0.7",
    "geom-density --theta 2 --x 0.25 --y 0.5 --n-max 1000",
    # error exits: nothing on stdout
    "sample --dist cauchy:x=1",
    "nonlinear --base uniform:a=0,b=1",
]
FORMATS = ("csv", "json")
CASES = [(i, argv, fmt) for i, argv in enumerate(COMMANDS) for fmt in FORMATS]


def _golden_name(i: int, argv: str, fmt: str) -> str:
    return f"{i:02d}-{argv.split()[0]}.{fmt}"


def _run(argv: str, fmt: str):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(shlex.split(argv) + ["--format", fmt])
    return code, out.getvalue()


@pytest.mark.parametrize("i,argv,fmt", CASES, ids=[f"{a} [{f}]" for _, a, f in CASES])
def test_cli_matches_golden_bytes(i, argv, fmt, monkeypatch):
    monkeypatch.delenv(cli.SEED_ENV_VAR, raising=False)
    name = _golden_name(i, argv, fmt)
    code, out = _run(argv, fmt)
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out.encode() == (GOLDEN / name).read_bytes()


def _record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for i, argv, fmt in CASES:
        name = _golden_name(i, argv, fmt)
        codes[name], out = _run(argv, fmt)
        (GOLDEN / name).write_bytes(out.encode())
    EXIT_CODES.write_text(json.dumps(codes, indent=1) + "\n")


if __name__ == "__main__":
    if cli.SEED_ENV_VAR in os.environ:
        sys.exit(f"unset {cli.SEED_ENV_VAR} before recording")
    _record()
