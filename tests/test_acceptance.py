"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
Every test recomputes its quantity from scratch at the advertised tolerance;
nothing here depends on the other test modules.
"""

import math
import shlex

import numpy as np

import evtlab as e
from evtlab import cli
from evtlab.geometric import sufficient_horizon

_SEED = 20260825  # acceptance-local; module tests use their own seeds


def _verdict(num: int, name: str, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} {name}: {detail}"
    print(line)
    assert ok, line


def _continuous_families():
    return [
        ("uniform", e.uniform(), 1.0),
        ("exponential", e.exponential(), 0.0),
        ("pareto", e.pareto(2.0), -0.5),
        ("normal", e.normal(), None),
    ]


def test_criterion_01_quantile_transform_sampling():
    counts = {}
    for name, dist, _ in _continuous_families():
        passed = 0
        for seed in range(100):
            xs = e.sample_quantile_transform(dist, e.make_rng(seed), 100_000)
            passed += e.ks_one_sample(xs, dist.cdf, alpha=0.01).passed
        counts[name] = passed
    ok = all(c >= 95 for c in counts.values())
    detail = ", ".join(f"{k} {v}/100" for k, v in counts.items())
    _verdict(1, "quantile-transform KS at alpha=0.01", ok, detail)


def test_criterion_02_max_sampler_equivalence():
    base = e.uniform()
    results = {}
    for n in (2, 10, 100):
        law = e.MaxLaw(base, n)
        passed = 0
        for seed in range(10):
            a = e.sample_max_direct(law, e.make_rng(seed, stream=1), 10_000)
            b = e.sample_max_exponential_rep(law, e.make_rng(seed, stream=2), 10_000)
            passed += e.ks_two_sample(a, b, alpha=0.01).passed
        results[n] = passed
    ok = all(c >= 9 for c in results.values())
    detail = ", ".join(f"n={n}: {c}/10" for n, c in results.items())
    _verdict(2, "direct vs exponential-representation maxima", ok, detail)


def test_criterion_03_uniform_max_cdf_is_power():
    xs = np.linspace(0.0, 1.0, 100)
    worst = 0.0
    for n in range(1, 11):
        got = e.max_cdf(e.MaxLaw(e.uniform(), n), xs)
        worst = max(worst, float(np.max(np.abs(got - xs**n))))
    ok = worst <= 1e-15
    _verdict(3, "uniform max cdf equals x^n", ok, f"max |diff| = {worst:.3g}")


def test_criterion_04_dehaan_ratio_limits():
    pairs = ((2.0, 4.0), (0.25, 4.0), (0.25, 0.5))
    scales = (1e-2, 5e-3, 2e-3, 1e-3)
    uniform = e.dehaan_test(e.uniform(), scales, pairs).values
    exponential = e.dehaan_test(e.exponential(), scales, pairs).values
    worst = 0.0
    for i, (u, v) in enumerate(pairs):
        worst = max(worst, float(np.max(np.abs(uniform[i] - (1.0 - u) / (1.0 - v)))))
        worst = max(worst, float(np.max(np.abs(exponential[i] - math.log(u) / math.log(v)))))
    pareto = e.dehaan_test(e.pareto(2.0), (1e-3, 1e-4, 1e-5, 1e-6), pairs[:1]).values
    pareto_gap = abs(pareto[0, -1] - 0.5857864)
    ok = worst <= 1e-12 and pareto_gap <= 1e-3
    detail = f"uniform/exponential max |diff| = {worst:.3g}, pareto gap = {pareto_gap:.3g}"
    _verdict(4, "scale-ratio limits", ok, detail)


def test_criterion_05_rho_recovery():
    errs = {}
    for name, dist, rho in _continuous_families():
        if rho is None:
            continue
        errs[name] = abs(e.estimate_rho(dist).rho - rho)
    ok = all(v <= 1e-6 for v in errs.values())
    detail = ", ".join(f"{k} err {v:.3g}" for k, v in errs.items())
    _verdict(5, "rho estimation", ok, detail)


def test_criterion_06_normalized_maxima_limit_law():
    n, reps = 10_000, 100_000
    stats = {}
    for i, (name, dist, rho) in enumerate(_continuous_families()):
        if rho is None:
            continue
        nc = e.norming_constants(dist, n)
        m = e.sample_max_exponential_rep(e.MaxLaw(dist, n), e.make_rng(_SEED, stream=1 + i), reps)
        z = (m - nc.b_n) / nc.a_n
        stats[name] = e.ks_one_sample(z, lambda x: e.limit_cdf(rho, x)).statistic
    anchor = max(abs(e.limit_cdf(r, 0.0) - (1.0 - math.exp(-1.0))) for r in (-1.0, 0.0, 1.0))
    ok = all(s <= 0.02 for s in stats.values()) and anchor <= 1e-12
    detail = ", ".join(f"{k} KS {v:.4f}" for k, v in stats.items()) + f", anchor gap {anchor:.2g}"
    _verdict(6, "limit law of normalized maxima", ok, detail)


def test_criterion_07_construction_normalizes_to_any_target():
    base = e.uniform()
    n, reps = 10_000, 100_000
    targets = [("uniform", e.uniform()), ("exponential", e.exponential()), ("normal", e.normal())]
    stats = {}
    for i, (name, target) in enumerate(targets):
        g = e.build_g_n_general(target, base, n)
        m = e.sample_max_exponential_rep(e.MaxLaw(base, n), e.make_rng(_SEED, stream=11 + i), reps)
        stats[name] = e.ks_one_sample(g(m), target.cdf).statistic

    # exact cancellation: dyadic x over power-of-two n so 1 - x/n round trips
    xs = np.ldexp(1.0, np.arange(-4, 5)).astype(float)
    ns = (128, 1024, 8192, 65536)
    spread = 0.0
    for _, target in targets:
        seq = e.NormalizerSequence.from_target(target, base)
        vals = e.convergence_diagnostic(seq, xs, ns, e.HnVariant.LINEAR_FORM).values
        spread = max(spread, float(np.max(np.ptp(vals, axis=1))))
    ok = all(s <= 0.02 for s in stats.values()) and spread <= 1e-12
    detail = ", ".join(f"{k} KS {v:.4f}" for k, v in stats.items()) + f", h_n spread {spread:.3g}"
    _verdict(7, "g_n(M_n) reaches arbitrary targets", ok, detail)


def test_criterion_08_geometric_oscillation():
    gp = e.GeometricParams(0.5)
    nv = np.unique(np.round(np.geomspace(1e3, 1e6, 256)).astype(np.int64))
    rep = e.oscillation_scan(gp, 0, nv)
    spread = rep.lim_sup_est - rep.lim_inf_est
    in_band = bool(np.all(rep.probs >= 0.3679 - 0.01) and np.all(rep.probs <= 0.6065 + 0.01))
    sub = e.oscillation_scan(gp, 0, e.subsequence_generator(gp, 0.5, range(10, 21)))
    sub_gap = abs(sub.probs[-1] - 0.49307)
    ok = spread >= 0.2 and in_band and sub_gap <= 1e-3
    detail = f"spread {spread:.4f}, band ok {in_band}, subsequence gap {sub_gap:.2g}"
    _verdict(8, "oscillating maxima probabilities", ok, detail)


def test_criterion_09_fractional_part_search_horizon():
    rng = e.make_rng(_SEED, stream=9)
    failures = 0
    worst_horizon = 0
    for case in range(100):
        theta = 0.2 + 4.8 * float(rng.random())
        x = float(rng.random()) * 0.9
        # half the cases sit at the minimal width, where the horizon is largest
        width = 0.05 if case % 2 == 0 else 0.05 + float(rng.random()) * (0.95 - x)
        y = x + width
        horizon = sufficient_horizon(theta, x, y)
        worst_horizon = max(worst_horizon, horizon)
        n, _, _ = e.frac_log_search(theta, x, y, horizon)
        t = theta * math.log(n)
        if not x <= t - math.floor(t) <= y:
            failures += 1
    ok = failures == 0
    _verdict(9, "search succeeds within its horizon", ok,
             f"{failures} failures /100, largest horizon {worst_horizon}")


def test_criterion_10_cli_byte_determinism(tmp_path):
    argvs = [
        "sample --dist normal:mu=0,sigma=1 --count 100 --seed 3",
        "max --dist exponential:rate=1 --n 50 --count 100 --method exprep --seed 3",
        "dehaan --dist pareto:alpha=2 --uv 2,4",
        "rho --dist exponential:rate=1",
        "norming --dist pareto:alpha=1 --n 10",
        "limit-law --rho -0.5 --x=-2:6:33",
        "nonlinear --base uniform:a=0,b=1 --target exponential:rate=1",
        "geom-oscillate --p 0.5 --q 0 --n 1e3:1e6:64",
        "geom-density --theta 1 --x 0.6 --y 0.7",
    ]
    mismatches = []
    for i, argv in enumerate(argvs):
        for fmt in ("csv", "json"):
            a = tmp_path / f"{i}-{fmt}-a"
            b = tmp_path / f"{i}-{fmt}-b"
            extra = ["--format", fmt]
            ra = cli.run(shlex.split(argv) + extra + ["--out", str(a)])
            rb = cli.run(shlex.split(argv) + extra + ["--out", str(b)])
            if not (ra == rb and ra in (0, 3) and a.read_bytes() == b.read_bytes()):
                mismatches.append(f"{argv} [{fmt}]")
    ok = not mismatches
    _verdict(10, "CLI byte-identical reruns", ok,
             f"{len(argvs)} subcommands x 2 formats" + (f"; MISMATCH {mismatches}" if mismatches else ""))
