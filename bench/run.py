"""evtlab benchmark: end-to-end metrics per workload, per-layer metrics from a traced run.

    python3 bench/run.py --workload {cli,diagnostics,sampling} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in fresh child
processes (``worker.py``) that import the package from ``src/``, never from
an installed copy, and every case's output is checked against an analytic
reference (``oracle.py``).  The last line of stdout is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics, measured with tracing off; with
``--trace 1`` the per-layer metrics of a traced run, each listed in the
report above that line with the end-to-end metric and workload it should
move.  ``failed`` counts case runs that failed their oracle check, other
than the known defects in ``oracle.KNOWN_DEFECTS`` (matched by case and by
the failure itself), which count against ``pass_frac`` instead; ``correct``
is false when any such failure occurred or a traced output differed from its
plain one.  The set-ups, the timed loop and the traced passes share the
``--seconds`` budget.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, BENCH)

import oracle  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEGMENTS = 7
IMPORT_REPEATS = 5

# A case's latency in a run is the best of its repetitions there.  On the
# 2-vCPU KVM guest the benchmark was built on, the cores run up to 1.7x
# slower in bursts of a second or more, from load outside the benchmark, and
# the best of many runs is the figure that stays put (the roadmap's baseline
# table is best-of-3 for the same reason).  For the same reason the cli
# workload runs the README command lines in one process after a cold import
# that is its set-up: a fresh interpreter per command (0.3-0.6 s, nearly all
# import) left five to eight runs of each command per run, and its figures
# spread by 0.12-0.29 between runs.  cases_per_s is the rate of a pass made
# of the best runs, and case_p50_ms and case_tail_ms are percentiles of them
# over the cases.  The tail is p90, not the slowest case alone, so that one
# case's burst does not set it; with 13 to 26 cases no percentile of them
# has ten cases beyond it.  A run is SEGMENTS fresh worker processes one
# after another, each with an equal share of the time, and setup_s is the
# median of their set-ups, so its samples spread over the whole run rather
# than one slow stretch of it.  A set-up is the import, building the inputs
# and one untimed first pass over the cases (worker.py), so a cost that moves
# from the import into first use stays in setup_s.
TAIL_PERCENTILE = 90
END_TO_END = (
    ("setup_s", "s"),
    ("cases_per_s", "1/s"),
    ("case_p50_ms", "ms"),
    ("case_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
)

_IMPORT = "setup_s, peak_rss_mb on cli, diagnostics, sampling"
_CLI = "cases_per_s, case_p50_ms on cli"
_SCALAR = "cases_per_s, case_p50_ms on diagnostics"
_GEOM = "cases_per_s on diagnostics"
_BULK = "cases_per_s on sampling"
_MAXIMA = "cases_per_s, peak_rss_mb, pass_frac on sampling"

# (metric, unit, better, the end-to-end metric and workload it should move)
PER_LAYER = (
    ("import.evtlab_s", "s", "lower", _IMPORT),
    ("import.scipy_special_s", "s", "lower", _IMPORT),
    ("import.numpy_s", "s", "lower", "nothing: numpy is the import floor"),
    ("import.self_s", "s", "lower", _IMPORT),
    ("cli.run.calls", "count", "lower", _CLI),
    ("cli.run.self_s", "s", "lower", _CLI),
    ("cli.self_s", "s", "lower", _CLI),
    ("dist.quantile.calls", "count", "lower", _SCALAR + "; not sampling"),
    ("dist.quantile.self_s", "s", "lower", _SCALAR + "; not sampling"),
    ("dist.law_quantile.calls", "count", "lower", _SCALAR + "; not sampling"),
    ("dist.law_quantile.points", "count", "lower", _SCALAR + "; not sampling"),
    ("dist.law_quantile.self_s", "s", "lower", _SCALAR + "; not sampling"),
    ("dist.law_cdf.calls", "count", "lower", _SCALAR + "; not sampling"),
    ("dist.law_cdf.self_s", "s", "lower", _SCALAR + "; not sampling"),
    ("dist.sample_quantile_transform.self_s", "s", "lower", _BULK),
    ("dist.self_s", "s", "lower", "cases_per_s on diagnostics, sampling"),
    ("stats.uniform_open.self_s", "s", "lower", _BULK),
    ("stats.ks_one_sample.self_s", "s", "lower", _BULK),
    ("stats.ks_two_sample.self_s", "s", "lower", _BULK),
    ("stats.standard_exponential.points", "count", "lower", _BULK),
    ("stats.self_s", "s", "lower", _BULK),
    ("maxima.h_n_eval.calls", "count", "lower", _SCALAR),
    ("maxima.h_n_eval.self_s", "s", "lower", _SCALAR),
    ("maxima.spot_check_monotone.self_s", "s", "lower", _SCALAR),
    ("maxima.sample_max_direct.self_s", "s", "lower", _MAXIMA),
    ("maxima.sample_max_exponential_rep.self_s", "s", "lower", _MAXIMA),
    ("maxima.max_cdf.self_s", "s", "lower", _MAXIMA),
    ("maxima.sample_max_direct.bytes", "B", "lower", _MAXIMA),
    ("maxima.exprep.accept_ratio", "ratio", "higher", _MAXIMA),
    ("maxima.self_s", "s", "lower", "cases_per_s on diagnostics, sampling"),
    ("linear_evt.dehaan_ratio.calls", "count", "lower", _SCALAR),
    ("linear_evt.dehaan_ratio.self_s", "s", "lower", _SCALAR),
    ("linear_evt.dehaan_test.self_s", "s", "lower", _SCALAR),
    ("linear_evt.estimate_rho.self_s", "s", "lower", _SCALAR),
    ("linear_evt.norming_constants.self_s", "s", "lower", _SCALAR),
    ("linear_evt.limit_cdf.self_s", "s", "lower", _BULK + "; cases_per_s on cli (limit-law)"),
    ("linear_evt.self_s", "s", "lower", _SCALAR),
    ("nonlinear_evt.g_n.calls", "count", "lower", _SCALAR),
    ("nonlinear_evt.g_n.self_s", "s", "lower", _SCALAR),
    ("nonlinear_evt.convergence_diagnostic.self_s", "s", "lower", _SCALAR),
    ("nonlinear_evt.self_s", "s", "lower", _SCALAR),
    ("geometric.oscillation_scan.calls", "count", "lower", _GEOM),
    ("geometric.oscillation_scan.self_s", "s", "lower", _GEOM),
    ("geometric.floor_theta_log_n.calls", "count", "lower", _GEOM),
    ("geometric.floor_theta_log_n.self_s", "s", "lower", _GEOM),
    ("geometric.geom_quantile.calls", "count", "lower", _GEOM),
    ("geometric.geom_quantile.points", "count", "lower", _GEOM),
    ("geometric.geom_quantile.self_s", "s", "lower", _GEOM),
    ("geometric.frac_log_search.self_s", "s", "lower", "case_tail_ms on diagnostics"),
    ("geometric.self_s", "s", "lower", "cases_per_s, case_tail_ms on diagnostics"),
    ("reports.build_report.calls", "count", "lower", _SCALAR),
    ("reports.build_report.self_s", "s", "lower", _SCALAR),
    ("reports.self_s", "s", "lower", _SCALAR),
    ("trace.overhead_frac", "ratio", "lower", "nothing: the cost of tracing itself"),
)

_KINDS = {"calls": 0, "self_s": 1, "points": 2}

IMPORT_CHILD = "import sys; sys.path.insert(0, sys.argv[1]); import evtlab"


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


# -- child processes -------------------------------------------------------
def child_env():
    env = dict(os.environ)
    env.pop("EVTLAB_SEED", None)  # the seed comes from argv only
    return env


def spawn(args, capture):
    """Run ``python args...`` to completion in the checkout.

    Only the ``capture`` stream ("stdout" or "stderr") is piped, so the
    child cannot block on a second full pipe; stdout is otherwise discarded
    and stderr passed through.  Returns (exit code, captured text, peak RSS
    in MB).
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE if capture == "stdout" else subprocess.DEVNULL,
        stderr=subprocess.PIPE if capture == "stderr" else None,
    )
    with proc:
        text = getattr(proc, capture).read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, text.decode(), usage.ru_maxrss / 1024.0


def worker(mode, workload, seed, seconds):
    rc, out, rss = spawn(
        [os.path.join(BENCH, "worker.py"), mode, workload, str(seed), str(seconds), SRC],
        "stdout",
    )
    if rc != 0:
        raise BenchError(f"{workload} worker ({mode}) exited with code {rc}")
    return json.loads(out.splitlines()[-1]), rss


# -- import breakdown ------------------------------------------------------
def import_breakdown():
    """Median over fresh interpreters of ``-X importtime`` for ``import evtlab``."""
    runs = []
    for _ in range(IMPORT_REPEATS):
        rc, err, _ = spawn(["-X", "importtime", "-c", IMPORT_CHILD, SRC], "stderr")
        if rc != 0:
            raise BenchError("import evtlab failed")
        cumulative, own = {}, 0
        for line in err.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            _, self_us, cum_us, name = (f.strip() for f in line.replace(":", "|", 1).split("|"))
            cumulative[name] = int(cum_us) / 1e6
            if name == "evtlab" or name.startswith("evtlab."):
                own += int(self_us)
        runs.append({
            "import.evtlab_s": cumulative.get("evtlab", 0.0),
            "import.scipy_special_s": cumulative.get("scipy.special", 0.0),
            "import.numpy_s": cumulative.get("numpy", 0.0),
            "import.self_s": own / 1e6,
        })
    return {k: statistics.median(r[k] for r in runs) for k in runs[0]}


# -- metrics ---------------------------------------------------------------
def unexpected_count(records):
    return sum(1 for cid, _, failure in records if failure and not oracle.known_defect(cid, failure))


def percentile(ranked, p):
    """Linear interpolation between the closest ranks of a sorted list."""
    pos = (len(ranked) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ranked) - 1)
    return ranked[lo] + (ranked[hi] - ranked[lo]) * (pos - lo)


def by_case(records):
    out = {}
    for cid, latency, _ in records:
        out.setdefault(cid, []).append(latency)
    return out


def best_latencies(records):
    return {cid: min(v) for cid, v in by_case(records).items()}


def end_to_end(setups, records, peak_mb, report):
    runs = by_case(records)
    best = best_latencies(records)
    ranked = sorted(best.values())
    failures = sum(1 for r in records if r[2])
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "cases_per_s": len(best) / sum(best.values()),
        "case_p50_ms": 1e3 * statistics.median(ranked),
        "case_tail_ms": 1e3 * percentile(ranked, TAIL_PERCENTILE),
        "peak_rss_mb": peak_mb,
        "pass_frac": (len(records) - failures) / len(records),
    }
    report.append(
        "set-ups (import and inputs + first pass): "
        + ", ".join(f"{s:.4f} ({i:.4f} + {s - i:.4f})" for s, i in setups) + " s"
    )
    report.append(f"{'case':<28} {'best ms':>9} {'median ms':>10} runs")
    for cid, v in runs.items():
        report.append(f"{cid:<28} {1e3 * best[cid]:9.2f} {1e3 * statistics.median(v):10.2f} {len(v)}")
    report.append(
        f"per-case latency is the best of its runs; case_p50_ms is the median "
        f"and case_tail_ms the p{TAIL_PERCENTILE} over {len(best)} cases"
    )
    report_failures(records, report)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    return metrics, len(records), unexpected_count(records)


def report_failures(records, report):
    """One line per distinct failure and per known defect no longer seen."""
    failures = sorted(dict.fromkeys((cid, failure) for cid, _, failure in records if failure))
    for cid, failure in failures:
        kind = "known defect reproduced" if oracle.known_defect(cid, failure) else "UNEXPECTED FAILURE"
        report.append(f"{kind}: {cid}: {failure}")
    ran = {cid for cid, _, _ in records}
    for cid in sorted(ran & set(oracle.KNOWN_DEFECTS) - {cid for cid, _ in failures}):
        report.append(f"known defect no longer reproduced: {cid}: {oracle.KNOWN_DEFECTS[cid][0]}")


def per_layer(snapshot, passes, imports, overhead):
    stats = snapshot["stats"]
    values = dict(imports)
    values["trace.overhead_frac"] = overhead
    for name, _, _, _ in PER_LAYER:
        if name in values:
            continue
        parts = name.split(".")
        if name == "maxima.sample_max_direct.bytes":
            values[name] = snapshot["direct_bytes"] / passes
        elif name == "maxima.exprep.accept_ratio":
            drawn = snapshot["exprep_drawn"]
            kept = stats.get(tracer.EXPREP, [0, 0.0, 0])[2]
            values[name] = kept / drawn if drawn else 0.0
        elif len(parts) == 2:
            values[name] = sum(v[1] for k, v in stats.items() if k.startswith(parts[0] + ".")) / passes
        else:
            values[name] = stats.get(f"{parts[0]}.{parts[1]}", [0, 0.0, 0])[_KINDS[parts[2]]] / passes
    return values


# -- entry points ----------------------------------------------------------
def measure(workload, seed, seconds, report):
    start = time.perf_counter()
    setups, records, peak = [], [], 0.0
    for left in range(SEGMENTS, 0, -1):
        share = (seconds - (time.perf_counter() - start)) / left
        result, rss = worker("run", workload, seed, share)
        setups.append((result["setup_s"], result["inputs_s"]))
        records += result["records"]
        peak = max(peak, rss)
    metrics, attempted, failed = end_to_end(setups, records, peak, report)
    for name, unit in END_TO_END:
        report.append(f"{name:<14} {metrics[name]['value']:.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def measure_traced(workload, seed, seconds, report):
    start = time.perf_counter()
    imports = import_breakdown()
    result, _ = worker("trace", workload, seed, seconds - (time.perf_counter() - start))
    plain, traced = result["records"], result["traced"]
    passes = len(traced) // len({cid for cid, _, _ in traced})
    overhead = sum(best_latencies(traced).values()) / sum(best_latencies(plain).values()) - 1.0
    values = per_layer(result["snapshot"], passes, imports, overhead)
    report_failures(plain, report)
    for cid in sorted({cid for cid, _, differs in traced if differs}):
        report.append(f"TRACED OUTPUT DIFFERS: {cid}")
    report.append(f"per-layer metrics: per traced pass, {passes} traced and {passes} plain passes")
    for name, unit, _, moves in PER_LAYER:
        report.append(f"{name:<44} {values[name]:<14.6g} {unit:<6} -> {moves}")
    failed = unexpected_count(plain) + sum(1 for r in traced if r[2])
    return {
        "correct": failed == 0,
        "attempted": len(plain) + len(traced),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _, _ in PER_LAYER},
    }


def stamp(seed):
    return {
        "seed": seed,
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "evtlab", "__init__.py")):
        print(f"bench: no evtlab sources under {SRC}", file=sys.stderr)
        return 2
    report = [
        f"evtlab benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "stamp " + json.dumps(stamp(args.seed)),
    ]
    run = measure_traced if args.trace else measure
    try:
        result = run(args.workload, args.seed, args.seconds, report)
    except BenchError as exc:
        print("\n".join(report), flush=True)
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    print("\n".join(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
