"""The benchmark's workloads and the closed loop that runs them.

Every workload is a fixed list of cases run one at a time in one fresh
process (the machine has two cores, so no pool).  A case is a call into
evtlab plus the oracle check of its output; a pass runs every case once, in
order, and the loop runs whole passes while the next one fits in the time
budget, so every run sees the same mix of cases.  The first pass over the
cases belongs to the set-up (``worker.py``) and is not in the timed loop: a
cost moved out of ``import evtlab`` into first use is still paid in the
set-up time, so both sides of such a trade show in ``setup_s``.  The seed
moves the sampler streams and where the ``frac_log_search`` windows sit; the
grids stay fixed.
"""

import contextlib
import dataclasses
import hashlib
import importlib
import io
import math
import time
from collections import namedtuple

import numpy as np

import oracle

Case = namedtuple("Case", "id call check")

# Users meet evtlab through these: the README command lines through
# evtlab.cli.run.  The cold import they pay first is this workload's set-up
# (a fresh process per command was too noisy to compare runs: see run.py).
CLI = "cli"
# The scalar-quantile grid loops behind the diagnostics (one quantile call
# per grid point); import barely registers here.
DIAGNOSTICS = "diagnostics"
# Bulk array work on the same dist layer: calls of 1e5 points each (and one
# 32 MB direct sampler), so numpy kernels and memory set the cost, not the
# scalar path.
SAMPLING = "sampling"

# (argv, output format, exit code the README states); "{seed}" takes the
# workload seed in the two sampling commands.
CLI_COMMANDS = (
    ("sample --dist exponential:rate=1 --count 5 --seed {seed}", "csv", 0),
    ("max --dist uniform:a=0,b=1 --n 100 --count 5 --method exprep --seed {seed}", "csv", 0),
    ("dehaan --dist pareto:alpha=2 --eps 1e-2:1e-6 --uv 2,4 --format json", "json", 0),
    ("rho --dist pareto:alpha=2", "csv", 0),
    ("norming --dist geometric:p=0.5 --n 100", "csv", 0),
    ("limit-law --rho 0 --x=-2:6:33", "csv", 0),
    ("dehaan --dist geometric:p=0.5 --uv 3,4", "csv", 3),
    ("norming --dist geometric:p=0.2 --n 100", "csv", 2),
    ("nonlinear --base uniform:a=0,b=1 --target exponential:rate=1", "csv", 0),
    ("nonlinear --base geometric:p=0.5 --normalizer affine", "csv", 3),
    ("geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64", "csv", 3),
    ("geom-oscillate --p 0.5 --q 0 --n 1024:1048576:11", "csv", 0),
    ("geom-density --theta 1 --x 0.6 --y 0.7", "csv", 0),
)


def cli(e, seed):
    command = importlib.import_module("evtlab.cli")

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = command.run(argv)
        return rc, out.getvalue()

    cases = []
    for i, (line, fmt, rc) in enumerate(CLI_COMMANDS):
        argv = line.format(seed=seed).split()
        cases.append(Case(
            f"cli.{i + 1:02d}.{argv[0]}",
            lambda argv=argv: run(argv),
            lambda r, argv=argv, fmt=fmt, rc=rc: oracle.check_cli(argv, fmt, rc, *r),
        ))
    return cases


# -- diagnostics -----------------------------------------------------------
# Grids are 4 to 9 times smaller than the roadmap's largest baseline sizes
# (12 pairs x 256 scales, 512 x 8, 96k values, a 1e-9 window at n ~ 2e8): a
# case then takes milliseconds, a run repeats it about a hundred times, and
# its best run stays put; at the baseline sizes the figures spread by
# 0.29-0.41 between runs when the host was busy.  The geometric case whose
# verdict is wrong at 256 scales keeps its 256 scales.
EPS_GRID = np.geomspace(1e-2, 1e-6, 64)
X_GRID_POINTS = 64
N_GRID = tuple(int(n) for n in np.unique(np.rint(np.geomspace(100, 100_000, 8))))
OSCILLATION_N = np.unique(np.rint(np.geomspace(1e3, 1e8, 10_000)).astype(np.int64))
DYADIC_K = tuple(range(10, 27))
FRAC_WIDTHS = tuple(10.0**-k for k in range(1, 10))
FRAC_N_MAX = 10**12
# n = 3 to 1e6 are right at the seed; n = 1e7 to 1e15 hold a known defect
NORMING_N = {"small": (3,) + tuple(10**k for k in range(1, 7)),
             "large": tuple(10**k for k in range(7, 16))}


def frac_windows(seed):
    """One window per width, centred on frac(log n*) for a seeded n*.

    The search cost is linear in the witness, so n* is drawn from a narrow
    band around 0.005/width: the cost barely depends on the seed, and the
    chance that a smaller n also falls in the window is under 1 percent.
    n* is then a witness the oracle knows, and the answer may not exceed it.
    """
    rng = np.random.default_rng(seed)
    windows = []
    for width in FRAC_WIDTHS:
        base = max(16, round(0.005 / width))
        while True:
            n_star = base + int(rng.integers(0, max(base // 50, 1000)))
            centre = math.log(n_star) % 1.0
            x, y = centre - width / 2, centre + width / 2
            if 0.0 <= x and y <= 1.0:
                windows.append((width, x, y, n_star))
                break
    return windows


def diagnostics(e, seed):
    eps_min = float(EPS_GRID[-1])
    attracted = (
        ("pareto2", e.pareto(2.0), -0.5),
        ("exponential", e.exponential(), 0.0),
        ("normal", e.normal(), 0.0),
        ("uniform", e.uniform(), 1.0),
    )
    geometric = e.geometric(0.5)
    xs = e.default_x_grid(X_GRID_POINTS)
    constructions = (
        ("uniform-exponential", e.NormalizerSequence.from_target(e.exponential(), e.uniform()), "exponential"),
        ("pareto2-normal", e.NormalizerSequence.from_target(e.normal(), e.pareto(2.0)), "normal"),
    )
    affine = e.NormalizerSequence.affine(geometric)
    params = e.GeometricParams(0.5)
    dyadic = np.array([2**k for k in DYADIC_K], dtype=np.int64)
    pareto1 = e.pareto(1.0)

    cases = []
    for name, law, rho in attracted:
        cases.append(Case(
            f"dehaan.{name}",
            lambda law=law: e.dehaan_test(law, EPS_GRID),
            lambda r, rho=rho, name=name: oracle.check_dehaan(r, rho, eps_min, name),
        ))
    for count in (16, 256):
        grid = np.geomspace(1e-2, 1e-6, count)  # 256: a known defect
        cases.append(Case(
            f"dehaan.geometric.s{count}",
            lambda grid=grid: e.dehaan_test(geometric, grid, ((3.0, 4.0),)),
            oracle.check_not_converged,
        ))
    for name, law, rho in attracted:
        cases.append(Case(
            f"rho.{name}",
            lambda law=law: e.estimate_rho(law, EPS_GRID),
            lambda r, rho=rho, name=name: oracle.check_rho(r, rho, eps_min, name),
        ))
    for name, seq, target in constructions:
        cases.append(Case(
            f"nonlinear.{name}",
            lambda seq=seq: e.convergence_diagnostic(seq, xs, N_GRID),
            lambda r, target=target: oracle.check_construction(r, xs, N_GRID[-1], target),
        ))
    cases.append(Case(
        "nonlinear.geometric-affine",
        lambda: e.convergence_diagnostic(affine, xs, N_GRID),
        oracle.check_affine_geometric,
    ))
    cases.append(Case(
        "oscillation.full",
        lambda: e.oscillation_scan(params, 0, OSCILLATION_N),
        oracle.check_oscillation,
    ))
    cases.append(Case(
        "oscillation.dyadic",
        lambda: e.oscillation_scan(params, 0, dyadic),
        lambda r: oracle.check_dyadic(r, DYADIC_K),
    ))
    for width, x, y, n_star in frac_windows(seed):
        cases.append(Case(
            f"frac.w{width:.0e}",
            lambda x=x, y=y: e.frac_log_search(1.0, x, y, FRAC_N_MAX),
            lambda r, x=x, y=y, n_star=n_star: oracle.check_frac_window(r, x, y, n_star),
        ))
    for size, ns in NORMING_N.items():
        cases.append(Case(
            f"norming.pareto1.{size}",
            lambda ns=ns: [e.norming_constants(pareto1, n) for n in ns],
            lambda r: oracle.check_norming(r, 1.0),
        ))
    return cases


# -- sampling --------------------------------------------------------------
# 1e5 draws, not 1e6: a case then takes milliseconds, a run repeats it a
# hundred times or more, and its best run stays put; at 1e6 the figures spread
# by 0.13-0.20 between runs.  The n = 1e15 failures show at either size.
SAMPLE_COUNT = 10**5
EXPREP_N = (10**2, 10**6, 10**12, 10**15)
DIRECT_SHAPE = (2000, 2000)  # (count, n): a 32 MB uniform array


def sampling(e, seed):
    families = (
        ("uniform", e.uniform()),
        ("exponential", e.exponential()),
        ("pareto2", e.pareto(2.0)),
        ("normal", e.normal()),
        ("degenerate", e.degenerate(0.0)),
        ("geometric", e.geometric(0.5)),
    )
    maxima = (("pareto1", e.pareto(1.0), -1.0), ("normal", e.normal(), 0.0))
    cases = []

    def quantile_transform(law, stream):
        x = e.sample_quantile_transform(law, e.make_rng(seed, stream), SAMPLE_COUNT)
        return x, e.ks_one_sample(x, law.cdf)

    def exprep(law, rho, stream):
        # the README's library flow: sample, KS against the exact law, then
        # normalize with a_n, b_n and KS against the limit law
        m = e.sample_max_exponential_rep(law, e.make_rng(seed, stream), SAMPLE_COUNT)
        exact = e.ks_one_sample(m, lambda x: e.max_cdf(law, x))
        nc = e.norming_constants(law.base, law.n)
        limit = e.ks_one_sample((m - nc.b_n) / nc.a_n, lambda z: e.limit_cdf(rho, z))
        return m, exact, limit

    def direct_vs_exprep(law, stream):
        count = DIRECT_SHAPE[0]
        a = e.sample_max_direct(law, e.make_rng(seed, stream), count)
        b = e.sample_max_exponential_rep(law, e.make_rng(seed, stream + 1), count)
        return a, b, e.ks_one_sample(a, lambda x: e.max_cdf(law, x)), e.ks_two_sample(a, b)

    for name, law in families:
        stream = len(cases)
        cases.append(Case(
            f"qt.{name}",
            lambda law=law, stream=stream: quantile_transform(law, stream),
            lambda r, name=name: oracle.check_quantile_transform(r, name),
        ))
    for name, base, rho in maxima:
        for n in EXPREP_N:
            stream = len(cases)
            law = e.MaxLaw(base, n)
            cases.append(Case(
                f"exprep.{name}.n1e{round(math.log10(n))}",
                lambda law=law, rho=rho, stream=stream: exprep(law, rho, stream),
                lambda r, name=name, n=n: oracle.check_maxima(r[0], name, n),
            ))
    law = e.MaxLaw(e.normal(), DIRECT_SHAPE[1])
    stream = len(cases)
    cases.append(Case(
        "direct.normal",
        lambda: direct_vs_exprep(law, stream),
        lambda r: oracle.check_direct(r, "normal", DIRECT_SHAPE[1]),
    ))
    return cases


WORKLOADS = {CLI: cli, DIAGNOSTICS: diagnostics, SAMPLING: sampling}


# -- the closed loop -------------------------------------------------------
def timed(call):
    """(seconds, output, error text) of one call; an exception is a result."""
    start = time.perf_counter()
    try:
        out = call()
    except Exception as exc:  # the loop records the failure and goes on
        return time.perf_counter() - start, None, f"raised {type(exc).__name__}: {exc}"
    return time.perf_counter() - start, out, None


def fingerprint(value):
    """Digest of a case output; equal digests mean bit-identical outputs."""
    digest = hashlib.blake2b(digest_size=16)

    def feed(v):
        if dataclasses.is_dataclass(v):
            for f in dataclasses.fields(v):
                feed(getattr(v, f.name))
        elif isinstance(v, np.ndarray):
            digest.update(f"{v.dtype}{v.shape}".encode())
            digest.update(np.ascontiguousarray(v).data)
        elif isinstance(v, (tuple, list)):
            digest.update(b"(")
            for item in v:
                feed(item)
            digest.update(b")")
        else:
            digest.update(repr(v).encode())

    feed(value)
    return digest.hexdigest()


class InProcess:
    """Runs cases in this process.  A case's first output goes through its
    oracle check; every later output must be bit-identical to the first, so
    the verdict carries over without repeating the (slower) oracle."""

    def __init__(self):
        self.first = {}  # case id -> (fingerprint, verdict)

    def __call__(self, case):
        latency, out, error = timed(case.call)
        if error:
            return latency, error
        digest = fingerprint(out)
        if case.id not in self.first:
            self.first[case.id] = (digest, case.check(out))
        expected, verdict = self.first[case.id]
        return latency, verdict if digest == expected else "output differs from the first run"


def within_budget(start, seconds, last_pass):
    """True while another pass as long as the last one ends within budget."""
    return time.perf_counter() - start + last_pass <= seconds


def run_passes(cases, seconds, execute):
    """Whole passes over ``cases`` while the next one fits in ``seconds``.

    ``execute(case)`` returns ``(latency_s, failure or None)``; the result
    is the list of ``[case id, latency_s, failure]`` records, in order.
    """
    records = []
    start = time.perf_counter()
    last_pass = 0.0
    while not records or within_budget(start, seconds, last_pass):
        began = time.perf_counter()
        for case in cases:
            latency, failure = execute(case)
            records.append([case.id, latency, failure])
        last_pass = time.perf_counter() - began
    return records
