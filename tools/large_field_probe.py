"""Measure the exact verdict of one irreducible loop over a large prime
field, or one descent census: the Jordan quiver over F_25, the Kronecker
quiver over F_9, or the 3-Kronecker quiver over F_121.

    python3 tools/large_field_probe.py f29
    python3 tools/large_field_probe.py f101
    python3 tools/large_field_probe.py loop25
    python3 tools/large_field_probe.py k2f9
    python3 tools/large_field_probe.py k3f121

f29 is the Jordan-quiver loop over F_29 given by the companion matrix of
x^4 + 3x^3 + 1, theta = 0, budget 10^6 closure checks; f101 is the loop over
F_101 given by the companion matrix of x^3 + x + 1, budget 2 * 10303 (every
proper subspace of F_101^3).  Neither matrix has an invariant proper
subspace, so every closure check is made and the verdict is stable.
loop25 runs verify_descent_census for the Jordan quiver, d = 3, theta = 0,
over F_25/F_5: 16,275 similarity classes over F_25, listed from the monic
irreducibles of degree <= 3.
k2f9 runs verify_descent_census for the Kronecker quiver K2, dims (2, 2),
theta = (1, -1), over F_9/F_3: a slice census of 3 * 9^4 points over F_9,
each slice walking the subspace pairs closed under its fixed arrow.
k3f121 runs verify_descent_census for the 3-Kronecker quiver K3, dims
(1, 1), theta = (1, -1), over F_121/F_11: 14,763 stable orbits over F_121,
of which the 133 = |P^2(F_11)| Frobenius-fixed ones descend.

Prints one JSON line: the mode, the verdict kind, the process CPU seconds,
the process's max RSS in MB, and for f101 the tracemalloc peak of the
verdict call in MB (the field and the matrix are built before tracing
starts).  The census modes have no verdict; they print the report's ok,
fixed_orbits and base_count in its place.  Run it from the root of a
checkout; it imports that checkout's `src/`.  Each run is one fresh
process, so the RSS is its own.
"""

import json
import os
import resource
import sys
import time
import tracemalloc

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# mode -> (q, companion matrix rows, subspace budget)
LOOPS = {
    "f29": (29, [[0, 0, 0, 28], [1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 26]], 10**6),
    "f101": (101, [[0, 0, 100], [1, 0, 100], [0, 1, 0]], 2 * 10303),
}
# mode -> (quiver name, dims, theta, q) of a descent census over F_{q^2}/F_q;
# kronecker<n> is the Kronecker quiver with n arrows
CENSUSES = {
    "loop25": ("jordan", {"v": 3}, {"v": 0}, 5),
    "k2f9": ("kronecker2", {"s": 2, "t": 2}, {"s": 1, "t": -1}, 3),
    "k3f121": ("kronecker3", {"s": 1, "t": 1}, {"s": 1, "t": -1}, 11),
}
MODES = (*LOOPS, *CENSUSES)


def probe(mode):
    from quivermoduli import (
        GF, JobConfig, Mat, Representation, jordan_quiver, kronecker_quiver, stability_verdict,
        verify_descent_census,
    )

    if mode in CENSUSES:
        name, dims, theta, q = CENSUSES[mode]
        quiver = jordan_quiver() if name == "jordan" else kronecker_quiver(int(name[-1]))
        report = verify_descent_census(quiver, dims, theta, q, 2)
        out = {"mode": mode, "ok": report.ok}
        out["fixed_orbits"], out["base_count"] = report.fixed_orbit_count, report.base_count
        return _costs(out)
    q, rows, budget = LOOPS[mode]
    field = GF(q)
    loop = Representation(
        jordan_quiver(), field, {"v": len(rows)},
        {"loop": Mat(field, tuple(tuple(field.from_int(x) for x in r) for r in rows))},
    )
    config = JobConfig(max_subspace_checks=budget)
    traced = mode == "f101"
    if traced:
        tracemalloc.start()
    verdict = stability_verdict(loop, {"v": 0}, config)
    out = {"mode": mode, "verdict": verdict.kind}
    if traced:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    _costs(out)
    if traced:
        out["traced_peak_mb"] = round(peak / 2**20, 2)
    return out


def _costs(out):
    """out with the process's CPU seconds and max RSS in MB added."""
    out["cpu_s"] = round(time.process_time(), 3)
    out["max_rss_mb"] = round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1)
    return out


def main(argv):
    if len(argv) != 1 or argv[0] not in MODES:
        print(f"usage: large_field_probe.py {{{','.join(MODES)}}}", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    print(json.dumps(probe(argv[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
