"""Child process that runs one in-process workload and prints one JSON line.

    python bench/worker.py MODE WORKLOAD SEED SECONDS SRC

MODE is ``run`` (set-up, then the timed loop) or ``trace`` (set-up, then
alternating plain and traced passes).  The set-up is importing evtlab,
building the inputs and one untimed first pass over the cases; its clock
starts before ``import evtlab`` and stops after the first pass, so a cost
moved out of the import into first use stays in the set-up time.  SECONDS
counts from the start of the process, set-up included.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402


def plain_and_traced(plain, build, e, seed, seconds):
    """Alternate a plain pass and a traced pass while the next pair fits in
    ``seconds``.

    Plain outputs are checked as in a timed run; each traced output must be
    bit-identical to the plain one.  Returns the plain and traced
    ``[case id, latency_s, failure]`` records and the tracer's snapshot over
    the traced passes.
    """
    import tracer
    import workloads

    spans = tracer.Tracer()
    spans.install()
    traced = build(e, seed)
    spans.uninstall()
    spans.reset()

    execute = workloads.InProcess()
    result = {"records": [], "traced": []}
    start = time.perf_counter()
    last_pair = 0.0
    while not result["traced"] or workloads.within_budget(start, seconds, last_pair):
        began = time.perf_counter()
        for case in plain:
            latency, failure = execute(case)
            result["records"].append([case.id, latency, failure])
        spans.install()
        try:
            for case in traced:
                latency, out, error = workloads.timed(case.call)
                same = not error and workloads.fingerprint(out) == execute.first[case.id][0]
                result["traced"].append([case.id, latency, None if same else "traced output differs"])
        finally:
            spans.uninstall()
        last_pair = time.perf_counter() - began
    result["snapshot"] = spans.snapshot()
    return result


def main(argv):
    mode, workload, seed, seconds, src = argv
    seed, seconds = int(seed), float(seconds)
    sys.path.insert(0, src)
    import evtlab
    import workloads

    if not evtlab.__file__.startswith(src):
        sys.exit(f"evtlab imported from {evtlab.__file__}, not from {src}")
    build = workloads.WORKLOADS[workload]
    cases = build(evtlab, seed)
    inputs_s = time.perf_counter() - T0
    for case in cases:
        workloads.timed(case.call)
    out = {"setup_s": time.perf_counter() - T0, "inputs_s": inputs_s}
    seconds -= out["setup_s"]
    if mode == "run":
        out["records"] = workloads.run_passes(cases, seconds, workloads.InProcess())
    else:
        out.update(plain_and_traced(cases, build, evtlab, seed, seconds))
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
