"""Start-up stays free of sympy: every integer the CLI meets below 2^24 is
factored by `numtheory`, and sympy is imported only for larger ones.  Each
case runs in a fresh interpreter, since this test process imports sympy as
an oracle elsewhere."""

import json
import os
import pathlib
import subprocess
import sys

from quivermoduli import GF
from quivermoduli.serialize import rep_to_json

from helpers import kronecker_rep, quaternionic_kronecker_example

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"
FIXTURES = pathlib.Path(__file__).resolve().parent / "fixtures"

CLI_PASS = r"""
import contextlib, io, json, os, sys
from quivermoduli import cli

fixtures, rep_path, hamilton_path, work = sys.argv[1:]


def run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["--format", "json", *argv])
    assert code == 0, (argv, code)
    return json.loads(out.getvalue())


theta = '{"s":1,"t":-1}'
census = run("--seed", "0", "census", "--quiver", os.path.join(fixtures, "kronecker2.quiver.json"),
             "--dims", '{"s":1,"t":1}', "--theta", theta, "--q", "2,3,5", "--verify-descent", "2")
verdict = run("stability", rep_path, "--theta", theta)
gaussian = {"type": "quadratic", "m": -1}
typemap = run("typemap", hamilton_path, "--pair", json.dumps(gaussian), "--theta", theta)
datum_path = os.path.join(work, "datum.json")
with open(hamilton_path) as fh:
    datum = {"rep": json.load(fh), "u": typemap["u"], "lambda": typemap["lambda"], "pair": gaussian}
with open(datum_path, "w") as fh:
    json.dump(datum, fh)
divform = run("divform", datum_path)
print(json.dumps({
    "counts": census["census"]["counts"],
    "verdict": verdict["verdict"]["kind"],
    "brauer_class": typemap["brauer_class"],
    "divform_ring": divform["form"]["ring"]["type"],
    "sympy": "sympy" in sys.modules,
}))
"""

HUGE_FIELD = r"""
import json, sys
from quivermoduli.ffields import GF

before = "sympy" in sys.modules
GF(2**127 - 1)
print(json.dumps({"before": before, "after": "sympy" in sys.modules}))
"""


def _run_fresh(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args], env=env, capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_pass_never_imports_sympy(tmp_path):
    rep_path = _write(tmp_path / "rep.json", rep_to_json(kronecker_rep(GF(3), [1, 2])))
    hamilton_path = _write(tmp_path / "hamilton.json", rep_to_json(quaternionic_kronecker_example()[0]))
    out = _run_fresh(CLI_PASS, str(FIXTURES), rep_path, hamilton_path, str(tmp_path))
    assert out == {
        "counts": [3, 4, 6],
        "verdict": "stable",
        "brauer_class": "Cyclic(Q(sqrt(-1))/Q, lambda=-1) ~ (-1,-1)_Q",
        "divform_ring": "quaternion",
        "sympy": False,
    }


def test_huge_prime_field_imports_sympy():
    assert _run_fresh(HUGE_FIELD) == {"before": False, "after": True}
