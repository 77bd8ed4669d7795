"""Digest every answer of the benchmark workloads, to compare two trees.

    python3 tools/answer_digest.py 1 2 3
    python3 tools/answer_digest.py --workload stability_queries 1 2 3

For each workload of bench/workloads.py (or each one named with
--workload, which can be repeated) and each seed, builds the seeded
inputs, runs every item and prints one line: workload, seed and the SHA-256
of a canonical JSON of all the items' answers (a failed item counts as its
exception type and message).  Matrices are written as their entries, rings
and Galois pairs as their names, and library objects as their fields, memo
slots left out, so two trees agree exactly when every answer agrees entry
by entry.

Run it from the root of each checkout; it imports that checkout's `src/`
and reads `bench/workloads.py` without changing it.  It re-runs itself
with PYTHONHASHSEED=0 and puts the Hamilton example's files in one fixed
directory, since their paths appear in the CLI's answers.  A run holds an
exclusive lock on that directory's `.lock` file from its first workload to
its last, so runs started at once take turns instead of overwriting each
other's files.
"""

import argparse
import dataclasses
import fcntl
import hashlib
import json
import os
import shutil
import sys
import tempfile
from fractions import Fraction
from types import MappingProxyType

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(tempfile.gettempdir(), "quivermoduli-answer-digest")
WORKLOADS = ("census_orbits", "census_closure", "stability_queries", "arith_pipeline")
# slots where an object keeps answers about itself, filled on first use: what
# they hold depends on what was asked before, not on the answer digested
MEMO_SLOTS = frozenset({"certificates"})


def plain(obj, seen=()):
    """A JSON-ready, deterministic picture of an answer."""
    from quivermoduli.galois import GaloisPair
    from quivermoduli.linalg import Mat
    from quivermoduli.rings import Ring

    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Fraction):
        return str(obj)
    if isinstance(obj, (Ring, GaloisPair)):
        return repr(obj)
    if isinstance(obj, Mat):
        return {"ring": repr(obj.ring), "shape": list(obj.shape), "rows": plain(obj.rows)}
    if isinstance(obj, BaseException):
        return {"error": type(obj).__name__, "message": str(obj)}
    if id(obj) in seen:
        return "<cycle>"
    seen = seen + (id(obj),)
    if isinstance(obj, (list, tuple)):
        return [plain(x, seen) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(x, seen) for x in obj), key=json.dumps)
    if isinstance(obj, (dict, MappingProxyType)):
        return {json.dumps(plain(k, seen)): plain(v, seen) for k, v in obj.items()}
    if dataclasses.is_dataclass(obj):
        fields = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    elif hasattr(obj, "__dict__"):
        fields = vars(obj)
    else:
        slots = (s for cls in type(obj).__mro__ for s in getattr(cls, "__slots__", ()))
        fields = {s: getattr(obj, s) for s in slots if hasattr(obj, s)}
    fields = {k: v for k, v in fields.items() if not callable(v) and k not in MEMO_SLOTS}
    return {"type": type(obj).__name__, **{k: plain(v, seen) for k, v in fields.items()}}


def digest(name, seed):
    import workloads

    shutil.rmtree(WORKDIR, ignore_errors=True)
    os.makedirs(WORKDIR)
    workload = workloads.make(name, WORKDIR)
    answers = []
    for item in workload.build(seed):
        try:
            answers.append(plain(workload.run(item)))
        except Exception as exc:  # a failed item is an answer too
            answers.append(plain(exc))
    text = json.dumps(answers, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv):
    parser = argparse.ArgumentParser(description="Digest the benchmark workloads' answers.")
    parser.add_argument("seeds", nargs="+", type=int)
    parser.add_argument(
        "--workload",
        action="append",
        choices=WORKLOADS,
        help="digest only this workload; repeat for several (default: all, in order)",
    )
    args = parser.parse_args(argv)
    if os.environ.get("PYTHONHASHSEED") != "0":
        env = dict(os.environ, PYTHONHASHSEED="0")
        os.execve(sys.executable, [sys.executable, os.path.abspath(__file__), *argv], env)
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    with open(WORKDIR + ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # released when the file closes
        for seed in args.seeds:
            for name in args.workload or WORKLOADS:
                print(name, seed, digest(name, seed), flush=True)
        shutil.rmtree(WORKDIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
