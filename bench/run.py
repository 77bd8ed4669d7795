"""The repository benchmark: end-to-end and per-layer metrics for four
closed-loop, single-client workloads.

    python3 bench/run.py --workload census_orbits --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload in turn

Each pass runs a workload's whole input set in a fresh interpreter
(bench/worker.py), one process at a time.  With --trace 0 at least three
passes run, and more until --seconds have gone by; the end-to-end metrics
are medians over passes (latency percentiles per pass, then the median).
With --trace 1 one plain pass, one traced pass and one counting pass give
the per-layer metrics.  Times are in drift-normalized reference seconds (bench/drift.py);
raw wall seconds are printed beside them for context.  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.

Run from the root of a checkout; the library is imported from `src/`.
"""

import argparse
import json
import math
import os
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("census_orbits", "census_closure", "stability_queries", "arith_pipeline")
RUN_BUDGET_S = 170  # one workload's run, children included, ends within this
MIN_PASSES = 3
SETUP_SAMPLES = 5  # set-ups per run: one per pass, topped up by set-up-only children

# Per-layer metrics: span labels whose call counts or self times are
# reported under their own names.
CALL_LABELS = (
    "linalg.matmul",
    "homs.hom_space",
    "homs.is_isomorphic",
    "homs.end_dim",
    "descent.solve_modifying_u",
    "descent.hilbert90_split",
    "morita.division_form",
    "brauer.brauer_class",
    "galois.norm_witness",
)
SELF_LABELS = ("homs.hom_space", "homs.is_isomorphic")
MODULES = (
    "census", "stability", "linalg", "homs", "descent", "morita", "numtheory",
    "brauer", "galois", "quiver", "serialize", "cli", "ffields", "rings", "quaternions",
)
RINGS = ("fq", "q", "qi", "quat")
COUNTS = (
    "census.generator_applications",
    "census.stable_points",
    "census.orbits",
    "census.points_scanned",
    "census.similarity_classes",
    "census.closure_memo_misses",
    "stability.closure_checks",
    "stability.closure_hits",
    "stability.certificate_primes_tried",
    "stability.certificate_unknown",
    "ffields.ops",
    "ffields.fields_built",
    "rings.ops",
    "quaternions.ops",
)


class BenchError(Exception):
    pass


def nearest_rank(values, p):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p * len(ordered)) - 1)]


def report_failures(passes):
    failures = {}
    for p in passes:
        for reason, n in p["failures"].items():
            failures[reason] = failures.get(reason, 0) + n
        for reason in p["wrong"]:
            print(f"  WRONG ANSWER: {reason}")
    for reason, n in sorted(failures.items()):
        print(f"  failed x{n}: {reason}")


class Run:
    """One workload at one seed: starts the children, one at a time, all
    within RUN_BUDGET_S."""

    def __init__(self, name, seed, nominal_s, workdir):
        self.name, self.seed, self.nominal_s, self.workdir = name, seed, nominal_s, workdir
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [SRC] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.env["PYTHONHASHSEED"] = "0"

    def child(self, argv):
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of the {RUN_BUDGET_S} s budget")
        proc = subprocess.run(
            [sys.executable] + argv,
            cwd=ROOT,
            env=self.env,
            capture_output=True,
            text=True,
            timeout=remaining,
        )
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(argv[:3])} exited {proc.returncode}: "
                             f"{proc.stderr[-2000:]}")
        return proc

    def worker(self, mode):
        argv = [os.path.join(BENCH, "worker.py"), self.name, str(self.seed), mode,
                repr(self.nominal_s), self.workdir]
        return json.loads(self.child(argv).stdout.strip().splitlines()[-1])

    def import_times(self):
        """(quivermoduli.cli, sympy) cumulative import seconds, raw wall
        time, from `-X importtime` in a cold interpreter."""
        proc = self.child(["-X", "importtime", "-c", "import quivermoduli.cli"])
        total, sympy = 0, 0
        for m in re.finditer(r"import time:\s+\d+ \|\s+(\d+) \| ( *)(\S+)", proc.stderr):
            cumulative, indent, module = int(m.group(1)), len(m.group(2)), m.group(3)
            if indent == 0 and module.startswith("quivermoduli"):
                total += cumulative
            if module == "sympy":
                sympy = cumulative
        return total / 1e6, sympy / 1e6

    def end_to_end(self, seconds):
        passes = []
        began = time.monotonic()
        while len(passes) < MIN_PASSES or time.monotonic() - began < seconds:
            passes.append(self.worker("plain"))
        setups = passes + [self.worker("setup") for _ in range(SETUP_SAMPLES - len(passes))]

        def med(key, p=None, runs=passes):
            if p is None:
                return statistics.median(q[key] for q in runs)
            return statistics.median(nearest_rank(q[key], p) for q in runs)

        metrics = {
            "setup_s": (med("setup_s", runs=setups), "s", med("setup_raw_s", runs=setups)),
            "run_s": (med("run_s"), "s", med("run_raw_s")),
            "latency_p50_s": (med("latencies_s", 0.5), "s", med("latencies_raw_s", 0.5)),
            "latency_p90_s": (med("latencies_s", 0.9), "s", med("latencies_raw_s", 0.9)),
            "peak_rss_mb": (med("peak_rss_mb"), "MB", None),
        }
        attempted = sum(p["items"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        print(f"{self.name}: seed {self.seed}, {len(passes)} passes, reference call "
              f"{med('ref_raw_s') * 1e3:.4f} ms raw against {self.nominal_s * 1e3:.4f} ms nominal")
        for key, (value, unit, raw) in metrics.items():
            extra = f"   (raw wall {raw:.4f} s)" if raw is not None else ""
            print(f"  {key:16} {value:10.4f} {unit}{extra}")
        items = passes[0]["items"]
        beyond = items - math.ceil(0.9 * items)
        print(f"  latency samples  {items} items per pass, {beyond} beyond p90; "
              f"percentiles are medians over passes")
        print(f"  failed_frac      {failed / attempted:10.4f}      "
              f"({failed} of {attempted} items)")
        report_failures(passes)
        return passes, metrics, attempted, failed

    def per_layer(self):
        plain = self.worker("plain")
        traced = self.worker("spans")
        counted = self.worker("counts")
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        spans_path = os.path.join(BUILD, "traces", f"{self.name}-seed{self.seed}.spans.tsv.gz")
        shutil.move(os.path.join(self.workdir, "spans.tsv.gz"), spans_path)
        import_s, sympy_s = self.import_times()

        spans = traced["spans"]
        metrics = {}

        def put(key, value, unit):
            metrics[key] = (value, unit)

        for module in MODULES:
            put(f"{module}.self_s", sum(s for label, (c, s) in spans.items()
                                        if label.startswith(module + ".")), "s")
        for ring in RINGS:
            calls, self_s = spans.get(f"linalg.rref.{ring}", (0, 0.0))
            put(f"linalg.rref.calls.{ring}", calls, "count")
            put(f"linalg.rref.self_s.{ring}", self_s, "s")
        for label in CALL_LABELS:
            put(f"{label}.calls", spans.get(label, (0, 0.0))[0], "count")
        for label in SELF_LABELS:
            put(f"{label}.self_s", spans.get(label, (0, 0.0))[1], "s")
        put("descent.hilbert90_split.failures",
            traced["span_failures"].get("descent.hilbert90_split", 0), "count")
        for key in COUNTS:
            put(key, counted["counts"].get(key, 0), "count")
        put("setup.import_s", import_s, "s")
        put("setup.import_sympy_s", sympy_s, "s")
        put("setup.inputs_s", plain["inputs_s"], "s")
        put("trace.overhead", traced["run_s"] / plain["run_s"], "ratio")
        put("trace.run_s", traced["run_s"], "s")
        self_sum = sum(s for c, s in spans.values())
        put("trace.unattributed_s", traced["run_s"] - self_sum, "s")
        put("trace.spans", traced["span_count"], "count")

        print(f"{self.name}: seed {self.seed}, traced pass {traced['run_s']:.4f} s against "
              f"plain {plain['run_s']:.4f} s; self times sum to {self_sum:.4f} s "
              f"({self_sum / traced['run_s']:.1%} of the traced run_s); spans in {spans_path}")
        print(f"  stability.closure_hits {metrics['stability.closure_hits'][0]} of "
              f"{metrics['stability.closure_checks'][0]} closure checks")
        for config, counts in counted.get("census_items", []):
            print(f"  {config}: " + ", ".join(f"{k} {v}" for k, v in sorted(counts.items())))
        for key, (value, unit) in metrics.items():
            print(f"  {key:36} {value:14.6g} {unit}")
        passes = [plain, traced, counted]
        report_failures(passes)
        attempted = sum(p["items"] for p in passes)
        failed = sum(p["failed"] for p in passes)
        return passes, metrics, attempted, failed


def run_workload(name, seed, seconds, trace, nominal_s):
    os.makedirs(BUILD, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="work-", dir=BUILD)
    try:
        run = Run(name, seed, nominal_s, workdir)
        run.child(["-c", "import quivermoduli.cli"])  # writes bytecode before timing
        return run.per_layer() if trace else run.end_to_end(seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "quivermoduli", "__init__.py")):
        print(f"no library sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(BENCH, "notes.json")) as fh:
        nominal_s = json.load(fh)["machine"]["reference_call_nominal_s"]
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, nominal_s)
                   for n in names}
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    correct = all(p["wrong_count"] == 0 for passes, *_ in results.values() for p in passes)
    metrics = {}
    for n, (passes, m, attempted, failed) in results.items():
        prefix = "" if len(names) == 1 else f"{n}."
        for key, (value, unit, *raw) in m.items():
            metrics[prefix + key] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r[2] for r in results.values()),
        "failed": sum(r[3] for r in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
