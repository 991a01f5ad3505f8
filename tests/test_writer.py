"""The sample writer streams its table in chunks of rows: the bytes are those
of one-shot references kept here, at counts around the chunk size, for every
sampling command, written to stdout and to a file."""

import contextlib
import io
import json
import sys
from itertools import chain

import pytest

import evtlab as e
from evtlab import cli

CHUNK = cli._CHUNK
COUNTS = (1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5)
SEED = 11
COMMANDS = {
    "sample": (["sample", "--dist", "exponential:rate=1"], {"dist": "exponential:rate=1"}),
    "max-direct": (
        ["max", "--dist", "normal", "--n", "3", "--method", "direct"],
        {"dist": "normal:mu=0,sigma=1", "n": 3},
    ),
    "max-exprep": (
        ["max", "--dist", "pareto:alpha=2", "--n", "1000", "--method", "exprep"],
        {"dist": "pareto:alpha=2", "n": 1000},
    ),
}


def _one_shot_csv(config, header, rows):
    """The CSV text as one format operation over every cell of every row,
    through the row template the writer uses."""
    fmt = lambda v: "%.17g" if isinstance(v, float) else "%s"  # noqa: E731
    head = "".join([f"# %s={fmt(v)}\n" for v in config.values()])
    cells = tuple(chain.from_iterable(rows))
    line = ",".join(map(fmt, cells[: len(header)])) + "\n"
    return "".join([
        head % tuple(chain.from_iterable(config.items())),
        ",".join(header) + "\n",
        (line * (len(cells) // len(header))) % cells,
    ])


def _reference(command, count, fmt):
    """The bytes of a run, from the library's samples written at once."""
    argv, options = COMMANDS[command]
    law = e.parse_distribution(argv[2])
    if argv[0] == "sample":
        values = e.sample_quantile_transform(law, e.make_rng(SEED), count)
        config = {"count": count}
    else:
        sampler = e.sample_max_direct if argv[-1] == "direct" else e.sample_max_exponential_rep
        values = sampler(e.MaxLaw(law, options["n"]), e.make_rng(SEED), count)
        config = {"n": options["n"], "count": count, "method": argv[-1]}
    config = {"subcommand": argv[0], "seed": SEED, "format": fmt, "dist": options["dist"], **config}
    values = values.tolist()
    if fmt == "json":
        return json.dumps({"config": config, "samples": values}, indent=2) + "\n"
    return _one_shot_csv(config, ["index", "value"], enumerate(values))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("count", COUNTS, ids=["1", "chunk-1", "chunk", "chunk+1", "3chunk+5"])
@pytest.mark.parametrize("command", COMMANDS)
def test_a_streamed_table_is_the_one_shot_text(command, count, fmt, tmp_path):
    want = _reference(command, count, fmt)
    argv = COMMANDS[command][0] + ["--count", str(count), "--seed", str(SEED), "--format", fmt]
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0
    assert out.getvalue() == want
    path = tmp_path / f"out.{fmt}"
    assert cli.run(argv + ["--out", str(path)]) == 0
    assert path.read_bytes() == want.encode()


class _Out(io.StringIO):
    """A stdout that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.writes = []

    def write(self, text):
        self.writes.append(len(text))
        return super().write(text)


def test_a_table_of_one_chunk_is_one_write(monkeypatch):
    # the config lines, the header and every row in one format operation
    # and one write; a larger table takes one write more per chunk
    for count, fmt in [(CHUNK, "csv"), (CHUNK + 1, "csv"), (2 * CHUNK, "json")]:
        monkeypatch.setattr("sys.stdout", _Out())
        argv = ["sample", "--dist", "uniform", "--count", str(count), "--format", fmt]
        assert cli.run(argv) == 0
        assert len(sys.stdout.writes) == {CHUNK: 1, CHUNK + 1: 2, 2 * CHUNK: 3}[count]


def test_a_convergence_report_streams_the_one_shot_json(monkeypatch):
    # the encoder's tokens and a newline, _CHUNK to a write, are json.dumps's
    # text: 7 writes for the 26 746 tokens of 1024 x by 16 n, and one for a
    # body of fewer than _CHUNK tokens, as the default grid's 558
    argv = ["nonlinear", "--base", "pareto:alpha=2", "--target", "exponential:rate=1"]
    for grid, parts in [([], 1), (["--x", "0.5:4:1024", "--n", "10:10000:16"], 7)]:
        monkeypatch.setattr("sys.stdout", _Out())
        assert cli.run(argv + grid + ["--format", "json"]) == 0
        text = sys.stdout.getvalue()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"
        assert len(sys.stdout.writes) == parts
