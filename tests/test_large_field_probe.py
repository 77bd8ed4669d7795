"""tools/large_field_probe.py runs one large-field verdict, or one descent
census, in its own process and prints one JSON line of its cost."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_f101_probe_prints_its_verdict_and_costs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "large_field_probe.py"), "f101"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"mode", "verdict", "cpu_s", "max_rss_mb", "traced_peak_mb"}
    assert out["mode"] == "f101" and out["verdict"] == "stable"
    assert all(out[k] > 0 for k in ("cpu_s", "max_rss_mb", "traced_peak_mb"))


def test_loop25_probe_reports_the_census_and_costs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "large_field_probe.py"), "loop25"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"mode", "ok", "fixed_orbits", "base_count", "cpu_s", "max_rss_mb"}
    assert out["mode"] == "loop25" and out["ok"] is True
    assert out["fixed_orbits"] == out["base_count"] == 0
    assert out["cpu_s"] > 0 and out["max_rss_mb"] > 0


def test_k2f9_probe_reports_the_census_and_costs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "large_field_probe.py"), "k2f9"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"mode", "ok", "fixed_orbits", "base_count", "cpu_s", "max_rss_mb"}
    assert out["mode"] == "k2f9" and out["ok"] is True
    # every stable (2, 2) Kronecker module over F_9 has End = F_81, so no
    # orbit is geometrically stable
    assert out["fixed_orbits"] == out["base_count"] == 0
    assert out["cpu_s"] > 0 and out["max_rss_mb"] > 0


def test_k3f121_probe_reports_the_census_and_costs():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "large_field_probe.py"), "k3f121"],
        capture_output=True, text=True, cwd=ROOT, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    (line,) = done.stdout.splitlines()
    out = json.loads(line)
    assert set(out) == {"mode", "ok", "fixed_orbits", "base_count", "cpu_s", "max_rss_mb"}
    assert out["mode"] == "k3f121" and out["ok"] is True
    # the 133 points of P^2(F_11) among the 14,763 of P^2(F_121)
    assert out["fixed_orbits"] == out["base_count"] == 133
    assert out["cpu_s"] > 0 and out["max_rss_mb"] > 0


def test_probe_refuses_an_unknown_mode():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "large_field_probe.py"), "f7"],
        capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    assert done.returncode == 2 and done.stdout == "" and "usage" in done.stderr
