"""The benchmark's counting pass patches `census._closed_pairs` and
`stability.reduce_mod_prime` and reads `LoopClassCensus.entries`, all by
name; one counting pass of census_closure keeps those names honest."""

import json
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_census_closure_counting_pass(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "bench")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "worker.py"), "census_closure", "3", "counts",
         "0.0006", str(tmp_path)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["failed"] == 0, report["failures"]
    assert report["wrong_count"] == 0, report["wrong"]
    assert report["counts"]["census.similarity_classes"] == 1_248
    assert report["counts"]["census.orbits"] == 311
