"""One pass of one workload in a fresh interpreter; prints a JSON result.

    python3 bench/worker.py <workload> <seed> <mode> <nominal_s> <workdir>

mode is `plain` (end-to-end timing), `setup` (set-up only), `spans`
(traced; the spans are written to <workdir>/spans.tsv.gz) or `counts`
(element-operation counting pass).
run.py starts one worker at a time and puts `src/` on PYTHONPATH.

The drift clock starts before the library is imported, so set-up time
(import plus input generation) is measured in reference seconds too.
"""

import json
import resource
import sys
from collections import Counter
from time import perf_counter

import drift


def main(argv):
    name, seed, mode, nominal_s, workdir = argv
    seed, nominal_s = int(seed), float(nominal_s)
    clock = drift.DriftClock(nominal_s)
    clock.start()
    t0 = perf_counter()
    import quivermoduli.cli  # noqa: F401  (the import users pay on every call)

    t_import = perf_counter()
    import workloads

    workload = workloads.make(name, workdir)
    items = workload.build(seed)
    t_setup = perf_counter()
    if mode == "setup":
        clock.sample(3)
        clock.stop()
        print(json.dumps({"setup_s": clock.interval(t0, t_setup), "setup_raw_s": t_setup - t0}))
        return 0

    tracer = counters = None
    if mode == "spans":
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
        tracer.active = True
    elif mode == "counts":
        import tracing

        counters = tracing.Counters()
        counters.install()
        counters.active = True

    results, marks = [], []
    t_run0 = perf_counter()
    for idx, item in enumerate(items):
        if tracer is not None:
            tracer.item_id = idx
        a = perf_counter()
        try:
            results.append((workload.run(item), None))
        except Exception as exc:  # a failed operation is a measured outcome
            results.append((None, exc))
        marks.append((a, perf_counter()))
    t_run1 = perf_counter()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    clock.sample(3)  # anchors the drift map after the last item
    clock.stop()
    if tracer is not None:
        tracer.active = False
    if counters is not None:
        counters.active = False

    # A failed item's latency is its time to failure, so every seed times
    # the same set of items however many of them fail.
    failures, wrong = Counter(), []
    for item, (out, exc) in zip(items, results):
        if exc is not None:
            failures[f"{type(exc).__name__}: {str(exc)[:80]}"] += 1
            continue
        reason = workload.check(item, out)
        if reason is not None:
            wrong.append(reason)

    report = {
        "mode": mode,
        "items": len(items),
        "failed": sum(failures.values()) + len(wrong),
        "wrong": wrong[:5],
        "wrong_count": len(wrong),
        "failures": dict(failures),
        "setup_s": clock.interval(t0, t_setup),
        "setup_raw_s": t_setup - t0,
        "import_s": clock.interval(t0, t_import),
        "inputs_s": clock.interval(t_import, t_setup),
        "run_s": clock.interval(t_run0, t_run1),
        "run_raw_s": t_run1 - t_run0,
        "latencies_s": [clock.interval(a, b) for a, b in marks],
        "latencies_raw_s": [b - a for a, b in marks],
        "peak_rss_mb": peak_rss_mb,
        "ref_raw_s": clock.raw_reference_s(),
        "ref_samples": len(clock.starts),
    }
    if tracer is not None:
        per_label, top = tracer.self_times(clock)
        report["spans"] = {k: list(v) for k, v in per_label.items()}
        report["span_count"] = len(tracer.start)
        report["span_top_s"] = top
        report["span_failures"] = {
            tracer.labels[k]: v for k, v in tracer.failures.items()
        }
        tracer.write(f"{workdir}/spans.tsv.gz", clock)
    if counters is not None:
        counts = Counter(counters.counts)
        if isinstance(workload, workloads.CensusWorkload):
            per_item = []
            for item, (out, exc) in zip(items, results):
                if exc is None:
                    item_counts = tracing.census_counts(out[1])
                    counts.update(item_counts)
                    per_item.append([workload.describe(item), dict(item_counts)])
            report["census_items"] = per_item
        report["counts"] = dict(counts)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
