"""The benchmark's counting pass patches `census._closed_pairs` and
`stability.reduce_mod_prime` and reads `LoopClassCensus.entries`, and its
traced pass wraps methods such as `Mat.solve`, `Mat.inverse`,
`SubrepWitness.contains` and `Representation.direct_sum`, all by name; one
counting pass of census_closure and one traced pass of arith_pipeline keep
those names honest."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _worker_pass(workload, mode, workdir):
    """The report of one seed-3 pass of bench/worker.py, which must exit 0
    with no failed and no wrong item."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), workload, "3", mode,
         "0.0006", str(workdir)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failed"] == 0, report["failures"]
    assert report["wrong_count"] == 0, report["wrong"]
    return report


def test_census_closure_counting_pass(tmp_path):
    report = _worker_pass("census_closure", "counts", tmp_path)
    assert report["counts"]["census.similarity_classes"] == 1_248
    assert report["counts"]["census.orbits"] == 311


def test_arith_pipeline_traced_pass(tmp_path):
    report = _worker_pass("arith_pipeline", "spans", tmp_path)
    assert report["spans"]["linalg.inverse"][0] > 0
