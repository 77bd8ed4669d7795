import contextlib
import functools
import io
import json
import os
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from quivermoduli import GF, GaloisPair, Mat, Representation, census, kronecker_quiver
from quivermoduli.cli import main
from quivermoduli.config import JobConfig
from quivermoduli.descent import DescentDatum, cocycle_scalar, solve_modifying_u
from quivermoduli.errors import InconclusiveError, InvariantError, SchemaError
from quivermoduli.morita import TwistedRep
from quivermoduli.rings import QQ, gaussian_rationals
from quivermoduli.serialize import (
    datum_from_json,
    datum_to_json,
    json_int,
    pair_from_json,
    pair_to_json,
    rep_from_json,
    rep_to_json,
    ring_from_json,
    ring_to_json,
    twisted_from_json,
    twisted_to_json,
)

from helpers import (
    count_calls,
    gimat,
    kronecker_rep,
    quaternionic_kronecker_example,
    zero_maps,
)

CFG = JobConfig()


def test_ring_round_trips():
    from quivermoduli import ExtensionField, QuaternionAlgebra
    from quivermoduli.rings import QuadraticField

    rings = [QQ, GF(7), ExtensionField(2, 2), QuadraticField(-1), QuaternionAlgebra(-1, -1)]
    for ring in rings:
        assert ring_from_json(ring_to_json(ring)) == ring
    with pytest.raises(SchemaError):
        ring_from_json({"type": "nope"})
    with pytest.raises(SchemaError):
        ring_from_json({"type": "prime"})


def test_pair_round_trips():
    for pair in (GaloisPair.finite(2, 2), GaloisPair.finite(3, 2), GaloisPair.gaussian()):
        back = pair_from_json(pair_to_json(pair))
        assert back == pair


def test_rep_round_trips():
    reps = [
        kronecker_rep(GF(3), [1, 2]),
        quaternionic_kronecker_example()[0],
        Representation(
            kronecker_quiver(2), QQ, {"s": 1, "t": 2},
            {
                "a1": Mat(QQ, ((Fraction(1, 2),), (Fraction(3),))),
                "a2": Mat(QQ, ((Fraction(0),), (Fraction(-2, 7),))),
            },
        ),
    ]
    for rep in reps:
        back = rep_from_json(rep_to_json(rep))
        assert back == rep


def test_rep_parse_errors():
    data = rep_to_json(kronecker_rep(GF(3), [1, 2]))
    del data["matrices"]["a1"]
    with pytest.raises(SchemaError):
        rep_from_json(data)
    data = rep_to_json(kronecker_rep(GF(3), [1, 2]))
    data["matrices"]["a1"] = [[1], [2]]
    with pytest.raises(SchemaError):
        rep_from_json(data)


def test_datum_and_twisted_round_trips():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    back = datum_from_json(datum_to_json(datum))
    assert back.rep == datum.rep
    assert back.u == datum.u
    assert back.lam == datum.lam
    back.check()

    tw = TwistedRep(rep, datum.u, datum.lam, pair, index=2)
    tw2 = twisted_from_json(twisted_to_json(tw))
    assert tw2.rep == tw.rep and tw2.index == 2

    # a cocycle scalar of an invertible u is a unit
    zero = twisted_to_json(tw)
    zero["lambda"] = pair.base.to_json(pair.base.zero)
    with pytest.raises(SchemaError):
        twisted_from_json(zero)


def write_json(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_cli_stability(tmp_path, capsys):
    rep = kronecker_rep(GF(2), [1, 1])
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    code = main(["--format", "json", "stability", path, "--theta", '{"s":1,"t":-1}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["kind"] == "stable"
    assert out["geometrically_stable"] is True
    assert out["end_dim"] == 1


def test_cli_stability_huge_prime_field(tmp_path, capsys):
    # F_p with p = 2^127 - 1: no trial division up to sqrt(p) and no list
    # of the field's elements
    quiver = {"vertices": ["s", "t"], "arrows": [
        {"id": "a1", "from": "s", "to": "t"}, {"id": "a2", "from": "s", "to": "t"},
    ]}
    rep = {"quiver": quiver, "ring": {"type": "prime", "p": 2**127 - 1},
           "dims": {"s": 1, "t": 1}, "matrices": {"a1": [[1]], "a2": [[-1]]}}
    path = write_json(tmp_path, "rep.json", rep)
    code = main(["--format", "json", "stability", path, "--theta", '{"s":1,"t":-1}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["kind"] == "stable"
    assert out["end_dim"] == 1


def test_cli_hn(tmp_path, capsys):
    rep = zero_maps(kronecker_quiver(2), GF(2), {"s": 1, "t": 1})
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    code = main(["--format", "json", "hn", path, "--theta", '{"s":1,"t":-1}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["hn"]["slopes"] == ["1", "-1"]


def test_cli_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    code = main(["stability", str(bad), "--theta", '{"s":1,"t":-1}'])
    assert code == 2


@pytest.mark.parametrize("change, theta", [
    ({"dims": {"s": "x", "t": 1}}, '{"s":1,"t":-1}'),  # dimension not an integer
    ({"dims": {"s": 1}}, '{"s":1,"t":-1}'),  # vertex t missing
    ({"dims": [1, 1]}, '{"s":1,"t":-1}'),  # dims not an object
    ({"matrices": {"a1": [[[1]]], "a2": [[1]]}}, '{"s":1,"t":-1}'),  # list as F_3 entry
    ({"matrices": {"a1": [["3/2"]], "a2": [[1]]}}, '{"s":1,"t":-1}'),  # fraction as F_3 entry
    ({"matrices": 5}, '{"s":1,"t":-1}'),  # matrices not an object
    ({}, '{"s":"a","t":-1}'),  # theta not an integer
], ids=[
    "dims-str", "dims-missing-t", "dims-list", "entry-list", "entry-fraction", "matrices-int",
    "theta-str",
])
def test_cli_malformed_rep_is_parse_error(tmp_path, capsys, change, theta):
    data = {**rep_to_json(kronecker_rep(GF(3), [1, 1])), **change}
    path = write_json(tmp_path, "rep.json", data)
    assert main(["stability", path, "--theta", theta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:")
    assert "Traceback" not in err


def test_representation_refuses_a_dimension_outside_the_quiver():
    mats = {name: Mat(GF(3), ((1,),)) for name in ("a1", "a2")}
    with pytest.raises(SchemaError, match="outside the quiver"):
        Representation(kronecker_quiver(2), GF(3), {"s": 1, "t": 1, "x": 2}, mats)


@pytest.mark.parametrize("command", ["stability", "hn", "typemap"])
@pytest.mark.parametrize("case", [
    "zero-dims", "unknown-vertex", "negative-dim", "ragged", "bool-entry", "float-entry",
])
def test_cli_malformed_rep_file_exit_contract(tmp_path, capsys, command, case):
    # typemap reads a rep over the pair's extension field, so the ring check
    # passes and the rep itself is what gets refused
    pair = GaloisPair.finite(3, 2)
    data = rep_to_json(kronecker_rep(pair.ext if command == "typemap" else GF(3), [1, 1]))
    one = data["matrices"]["a2"][0][0]
    change = {
        "zero-dims": {"dims": {"s": 0, "t": 0}, "matrices": {"a1": [], "a2": []}},
        "unknown-vertex": {"dims": {"s": 1, "t": 1, "x": 2}},
        "negative-dim": {"dims": {"s": -1, "t": 1}},
        "ragged": {"dims": {"s": 2, "t": 2},
                   "matrices": {"a1": [[one, one], [one]], "a2": [[one, one], [one, one]]}},
        "bool-entry": {"matrices": {"a1": [[True]], "a2": [[one]]}},
        "float-entry": {"matrices": {"a1": [[1.0]], "a2": [[one]]}},
    }[case]
    path = write_json(tmp_path, "rep.json", {**data, **change})
    argv = [command, path, "--theta", '{"s":1,"t":-1}']
    if command == "typemap":
        argv += ["--pair", json.dumps(pair_to_json(pair))]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:")
    assert "Traceback" not in err
    if case == "zero-dims":  # the read-only dims print as a plain dict
        assert "got {'s': 0, 't': 0}" in err


def test_cli_budget_error(tmp_path, capsys):
    quiver = kronecker_quiver(2)
    path = write_json(
        tmp_path,
        "quiver.json",
        {"vertices": ["s", "t"], "arrows": [
            {"id": "a1", "from": "s", "to": "t"},
            {"id": "a2", "from": "s", "to": "t"},
        ]},
    )
    code = main([
        "census",
        "--quiver", path,
        "--dims", '{"s":3,"t":3}',
        "--theta", '{"s":1,"t":-1}',
        "--q", "5",
    ])
    assert code == 3


def test_cli_typemap_and_descend(tmp_path, capsys):
    rep, pair, theta = quaternionic_kronecker_example()
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    out_path = str(tmp_path / "form.json")
    code = main([
        "--format", "json",
        "typemap", path,
        "--pair", '{"type":"quadratic","m":-1}',
        "--theta", '{"s":1,"t":-1}',
        "--descend", out_path,
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "Galois-fixed"
    assert out["lambda"] == "-1"
    assert out["index"] == 2
    written = json.loads(open(out_path).read())
    assert written["kind"] == "division-algebra"
    drep = rep_from_json(written["form"])
    assert drep.dims == {"s": 1, "t": 1}


def test_cli_typemap_not_fixed(tmp_path, capsys):
    Qi = gaussian_rationals()
    w = Representation(
        kronecker_quiver(2), Qi, {"s": 1, "t": 1},
        {"a1": gimat([[1]]), "a2": gimat([[(0, 1)]])},
    )
    path = write_json(tmp_path, "rep.json", rep_to_json(w))
    code = main([
        "--format", "json",
        "typemap", path,
        "--pair", '{"type":"quadratic","m":-1}',
        "--theta", '{"s":1,"t":-1}',
    ])
    assert code == 0  # mathematically negative answers are still success
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "orbit not Galois-fixed"


def test_cli_typemap_not_geom_stable(tmp_path, capsys):
    w = zero_maps(kronecker_quiver(2), gaussian_rationals(), {"s": 1, "t": 1})
    path = write_json(tmp_path, "rep.json", rep_to_json(w))
    code = main([
        "--format", "json",
        "typemap", path,
        "--pair", '{"type":"quadratic","m":-1}',
        "--theta", '{"s":1,"t":-1}',
    ])
    assert code == 0  # mathematically negative answers are still success
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "not geometrically stable: unstable"

    # a loop over F_4 with irreducible x^2 + x + w is stable with End = F_16
    pair = GaloisPair.finite(2, 2)
    f4 = pair.ext
    from quivermoduli import jordan_quiver

    loop = Representation(jordan_quiver(), f4, {"v": 2}, {"loop": Mat(f4, ((0, 2), (1, 1)))})
    path = write_json(tmp_path, "loop.json", rep_to_json(loop))
    code = main([
        "--format", "json", "typemap", path,
        "--pair", '{"type":"finite","p":2,"n":2}', "--theta", '{"v":0}',
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "not geometrically stable: stable but not Schur"


def test_cli_descend_subcommand(tmp_path, capsys):
    path = write_json(tmp_path, "datum.json", datum_to_json(_jordan_f4_datum()))
    code = main(["--format", "json", "descend", path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["form"]["ring"] == {"type": "prime", "p": 2}


def test_cli_typemap_descend_and_divform_read_one_brauer_class(tmp_path, capsys, monkeypatch):
    from quivermoduli import brauer_class

    rep, _, _ = quaternionic_kronecker_example()
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    calls = count_calls(monkeypatch, brauer_class)
    code = main([
        "--format", "json", "typemap", path, "--pair", '{"type":"quadratic","m":-1}',
        "--theta", '{"s":1,"t":-1}', "--descend", str(tmp_path / "form.json"),
    ])
    assert code == 0 and len(calls) == 1
    out = json.loads(capsys.readouterr().out)
    datum = {"rep": rep_to_json(rep), "u": out["u"], "lambda": out["lambda"],
             "pair": {"type": "quadratic", "m": -1}}
    calls.clear()
    assert main(["--format", "json", "divform", write_json(tmp_path, "datum.json", datum)]) == 0
    assert len(calls) == 1
    assert json.loads(capsys.readouterr().out)["lambda"] == "-1"


def test_cli_twisted_validate(tmp_path, capsys):
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    tw = TwistedRep(rep, datum.u, datum.lam, pair, index=2)
    path = write_json(tmp_path, "tw.json", twisted_to_json(tw))
    code = main(["--format", "json", "twisted-validate", path])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True


def _gaussian_k2_datum():
    """The modifying element of the K2 (1,1) rep (1, 2) over Q(i): trivial class."""
    w = Representation(
        kronecker_quiver(2), gaussian_rationals(), {"s": 1, "t": 1},
        {"a1": gimat([[1]]), "a2": gimat([[2]])},
    )
    return solve_modifying_u(w, GaloisPair.gaussian(), {"s": 1, "t": -1}, CFG)


def test_cli_typemap_descends_a_trivial_class(tmp_path, capsys):
    path = write_json(tmp_path, "rep.json", rep_to_json(_gaussian_k2_datum().rep))
    out_path = str(tmp_path / "form.json")
    code = main([
        "--format", "json", "typemap", path,
        "--pair", '{"type":"quadratic","m":-1}', "--theta", '{"s":1,"t":-1}',
        "--descend", out_path,
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["brauer_class"] == "Trivial" and out["form_written"] == out_path
    written = json.loads(open(out_path).read())
    assert written["kind"] == "base-field"
    assert rep_from_json(written["form"]).ring == QQ


@pytest.mark.parametrize("command, ring_type", [("descend", "rational"), ("divform", "quaternion")])
def test_cli_form_out_writes_the_form(tmp_path, capsys, command, ring_type):
    if command == "descend":
        datum = _gaussian_k2_datum()
    else:
        rep, pair, theta = quaternionic_kronecker_example()
        datum = solve_modifying_u(rep, pair, theta, CFG)
    path = write_json(tmp_path, "datum.json", datum_to_json(datum))
    out_path = str(tmp_path / "form.json")
    assert main(["--format", "json", command, path, "--out", out_path]) == 0
    assert json.loads(capsys.readouterr().out)["form_written"] == out_path
    form = rep_from_json(json.loads(open(out_path).read())["form"])
    assert form.ring.descriptor()["type"] == ring_type
    assert form.dims == {v: d // (1 if command == "descend" else 2) for v, d in datum.rep.dims.items()}


def test_cli_twisted_validate_to_drep(tmp_path, capsys, monkeypatch):
    from quivermoduli import brauer_class

    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    path = write_json(tmp_path, "tw.json", twisted_to_json(TwistedRep(rep, datum.u, datum.lam, pair, index=2)))
    calls = count_calls(monkeypatch, brauer_class)
    assert main(["--format", "json", "twisted-validate", path, "--to-drep"]) == 0
    assert len(calls) == 1  # validation and the D-form read one datum's class
    out = json.loads(capsys.readouterr().out)
    assert out["valid"] is True
    drep = rep_from_json(out["drep"])
    assert drep.ring.descriptor()["type"] == "quaternion" and drep.dims == {"s": 1, "t": 1}


@pytest.mark.parametrize("error, code, prefix", [
    (InconclusiveError("no isomorphism found", seed=7), 4, "inconclusive:"),
    (InvariantError("broken"), 5, "internal invariant violated:"),
])
def test_cli_inconclusive_and_invariant_exit_codes(tmp_path, capsys, monkeypatch, error, code, prefix):
    from quivermoduli import cli

    def raises(args, config):
        raise error

    monkeypatch.setattr(cli, "cmd_stability", raises)
    path = write_json(tmp_path, "rep.json", rep_to_json(kronecker_rep(GF(3), [1, 1])))
    assert main(["stability", path, "--theta", '{"s":1,"t":-1}']) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(prefix) and "Traceback" not in captured.err


def test_cli_quaternion_rep_without_integer_constant_is_parse_error(tmp_path, capsys):
    data = {**rep_to_json(_hamilton_drep()), "ring": {"type": "quaternion", "a": "1/2", "b": "-1"}}
    path = write_json(tmp_path, "drep.json", data)
    assert main(["stability", path, "--theta", '{"s":1,"t":-1}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "squarefree integer" in err


def test_cli_quaternion_rep_with_square_constant_is_parse_error(tmp_path, capsys):
    # (4, -1)_Q has an integer i^2 constant, but Q(sqrt(4)) is not a field
    data = {**rep_to_json(_hamilton_drep()), "ring": {"type": "quaternion", "a": "4", "b": "-1"}}
    path = write_json(tmp_path, "drep.json", data)
    assert main(["stability", path, "--theta", '{"s":1,"t":-1}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "squarefree integer" in err


def test_cli_missing_rep_file_is_parse_error(tmp_path, capsys):
    path = str(tmp_path / "missing.json")
    assert main(["stability", path, "--theta", '{"s":1,"t":-1}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "cannot read" in err and "Traceback" not in err


_HUGE_INT = "9" * 5000  # past the interpreter's limit on int() of a digit string


@pytest.mark.parametrize("case", ["utf16-bom", "huge-dim", "huge-theta", "deep-nesting"])
def test_cli_undecodable_json_is_parse_error(tmp_path, capsys, case):
    text = json.dumps({**rep_to_json(kronecker_rep(GF(3), [1, 1])), "dims": "@"})
    raw = {
        "utf16-bom": b"\xff\xfe" + text.encode("utf-16-le"),
        "huge-dim": text.replace('"@"', '{"s": %s, "t": 1}' % _HUGE_INT).encode(),
        "huge-theta": text.replace('"@"', '{"s": 1, "t": 1}').encode(),
        "deep-nesting": b"[" * 200_000,
    }[case]
    path = tmp_path / "rep.json"
    path.write_bytes(raw)
    theta = '{"s":%s,"t":-1}' % (_HUGE_INT if case == "huge-theta" else "1")
    assert main(["stability", str(path), "--theta", theta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err
    assert ("bad theta" in err) == (case == "huge-theta")


def test_cli_unwritable_output_is_parse_error(tmp_path, capsys):
    rep, pair, theta = quaternionic_kronecker_example()
    rep_path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    missing = str(tmp_path / "no-such-dir" / "form.json")
    code = main(["typemap", rep_path, "--pair", json.dumps(pair_to_json(pair)),
                 "--theta", json.dumps(theta), "--descend", missing])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"parse error: cannot write {missing}:")
    datum_path = write_json(tmp_path, "datum.json", datum_to_json(solve_modifying_u(rep, pair, theta, CFG)))
    assert main(["divform", datum_path, "--out", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith(f"parse error: cannot write {tmp_path}:")


@pytest.mark.parametrize("quiver, dims, message", [
    ({"vertices": [], "arrows": []}, "{}", "not all zero"),
    ({"vertices": "st", "arrows": []}, '{"s":1,"t":1}', "must be arrays"),
    ({"vertices": {"s": 1, "t": 1}, "arrows": []}, '{"s":1,"t":1}', "must be arrays"),
    ({"vertices": ["s", "t"], "arrows": ""}, '{"s":1,"t":1}', "must be arrays"),
    ({"vertices": ["s", "t"], "arrows": {}}, '{"s":1,"t":1}', "must be arrays"),
    (["s", "t"], '{"s":1,"t":1}', "bad quiver data"),
    ({"vertices": [None, 1.5], "arrows": []}, '{"None":1,"1.5":1}', "vertex name must be a string"),
    ({"vertices": ["s", 7], "arrows": []}, '{"s":1,"7":1}', "vertex name must be a string"),
    ({"vertices": ["s", "t"], "arrows": [{"id": 7, "from": "s", "to": "t"}]},
     '{"s":1,"t":1}', "arrow 'id' must be a string"),
    ({"vertices": ["None", "1.5"], "arrows": [{"id": "a", "from": None, "to": 1.5}]},
     '{"None":1,"1.5":1}', "arrow 'from' must be a string"),
    ({"vertices": ["s", "t"], "arrows": [{"id": "a", "from": "s", "to": True}]},
     '{"s":1,"t":1}', "arrow 'to' must be a string"),
    ({"vertices": ["s", "t"], "arrows": [["a", "s", "t"]]}, '{"s":1,"t":1}', "bad quiver data"),
])
def test_cli_census_refuses_empty_or_non_array_quivers(tmp_path, capsys, quiver, dims, message):
    path = write_json(tmp_path, "quiver.json", quiver)
    code = main(["census", "--quiver", path, "--dims", dims, "--theta", "{}", "--q", "2"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and message in err


def test_cli_census(tmp_path, capsys):
    path = write_json(
        tmp_path,
        "quiver.json",
        {"vertices": ["s", "t"], "arrows": [
            {"id": "a1", "from": "s", "to": "t"},
            {"id": "a2", "from": "s", "to": "t"},
        ]},
    )
    code = main([
        "--format", "json",
        "census",
        "--quiver", path,
        "--dims", '{"s":1,"t":1}',
        "--theta", '{"s":1,"t":-1}',
        "--q", "2,3,5",
        "--verify-descent", "2",
    ])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["census"]["counts"] == [3, 4, 6]
    assert out["census"]["coefficients"] == ["1", "1"]
    assert all(r["ok"] for r in out["descent"])


@pytest.mark.parametrize("n", ["0", "1"])
def test_cli_census_verify_descent_below_degree_two(tmp_path, capsys, n):
    path = write_json(tmp_path, "quiver.json", KRONECKER2_JSON)
    code = main([
        "census", "--quiver", path, "--dims", '{"s":1,"t":1}',
        "--theta", '{"s":1,"t":-1}', "--q", "2", "--verify-descent", n,
    ])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:") and "extension degree" in captured.err


@pytest.mark.parametrize("q, n, code, err", [
    # building F_{2^99999} would outlast any census; its point count refuses first
    ("2", "99999", 3, "budget exceeded: slices have at least 2^100000 points (budget 1000000)"),
    ("4", "99999", 2, "parse error: descent census needs a prime q: 4 is not prime"),
    (str(2**80), None, 3, "budget exceeded: slices have at least 2^81 points (budget 1000000)"),
])
def test_cli_census_refuses_a_huge_field_before_building_it(q, n, code, err):
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    quiver = pathlib.Path(__file__).parent / "fixtures" / "kronecker2.quiver.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    argv = ["census", "--quiver", str(quiver), "--dims", '{"s":1,"t":1}',
            "--theta", '{"s":1,"t":0}', "--q", q]
    if n is not None:
        argv += ["--verify-descent", n]
    done = subprocess.run(
        [sys.executable, "-m", "quivermoduli.cli", *argv],
        capture_output=True, env=env, text=True, timeout=60,
    )
    assert (done.returncode, done.stdout, done.stderr.strip()) == (code, "", err)


def test_cli_census_builds_each_field_once(monkeypatch, capsys):
    # q is validated without building F_q; the census builds it once
    import pathlib

    from quivermoduli import ExtensionField

    built = []
    real = ExtensionField.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        real(self, *args, **kwargs)

    monkeypatch.setattr(ExtensionField, "__init__", counted)
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    code = main([
        "--format", "json",
        "census",
        "--quiver", str(fixtures / "kronecker2.quiver.json"),
        "--dims", '{"s":1,"t":1}',
        "--theta", '{"s":1,"t":-1}',
        "--q", "4",
    ])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["census"]["counts"] == [5]
    assert built == [(2, 2, None)]


def test_cli_census_refuses_a_non_prime_descent_q_before_any_census(monkeypatch, capsys):
    calls = count_calls(monkeypatch, census.stable_orbit_census)
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    code = main([
        "census",
        "--quiver", str(fixtures / "kronecker2.quiver.json"),
        "--dims", '{"s":2,"t":2}',
        "--theta", '{"s":1,"t":-1}',
        "--q", "16",
        "--verify-descent", "2",
    ])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.strip() == "parse error: descent census needs a prime q: 16 is not prime"
    assert calls == []


KRONECKER2_JSON = {"vertices": ["s", "t"], "arrows": [
    {"id": "a1", "from": "s", "to": "t"},
    {"id": "a2", "from": "s", "to": "t"},
]}


@pytest.mark.parametrize("dims", [
    '{"s":12,"t":1}',  # 8,192 slice points; 488,176,700,922 subspace tuples per point
    '{"s":40,"t":1}',
    '{"s":1000,"t":1000}',  # a slice count with more digits than str() prints
])
def test_cli_census_large_dims_exceed_budget(tmp_path, capsys, dims):
    path = write_json(tmp_path, "quiver.json", KRONECKER2_JSON)
    theta = '{"s":1,"t":-1}'
    code = main(["census", "--quiver", path, "--dims", dims, "--theta", theta, "--q", "2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded:") and "Traceback" not in err


def test_cli_loop_census_over_budget_exits_before_listing(tmp_path, monkeypatch, capsys):
    # 104,754 similarity classes of 10x10 matrices over F_3, counted in
    # closed form against the orbit budget; no class is listed
    from quivermoduli import census

    def listed(field, size):
        raise AssertionError("classes listed over budget")

    monkeypatch.setattr(census, "similarity_class_data", listed)
    monkeypatch.setenv("QUIVERMODULI_CONFIG", write_json(tmp_path, "cfg.json", {"max_orbit_points": 1000}))
    path = write_json(tmp_path, "quiver.json", {"vertices": ["v"], "arrows": [
        {"id": "loop", "from": "v", "to": "v"},
    ]})
    code = main(["census", "--quiver", path, "--dims", '{"v":10}', "--theta", '{"v":0}', "--q", "3"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exceeded: 104754 similarity classes") and "Traceback" not in err


def test_cli_input_over_the_wrong_ring_is_parse_error(tmp_path, capsys):
    # a Q(i) rep with the Q(sqrt 2) pair, and a datum whose u is not an object
    rep, pair, theta = quaternionic_kronecker_example()
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    theta_arg = '{"s":1,"t":-1}'
    code = main(["typemap", path, "--pair", '{"type":"quadratic","m":2}', "--theta", theta_arg])
    assert code == 2
    assert capsys.readouterr().err.startswith("parse error:")
    datum = datum_to_json(solve_modifying_u(rep, pair, theta, CFG))
    for change in ({"u": None}, {"pair": {"type": "quadratic", "m": 2}}):
        path = write_json(tmp_path, "datum.json", {**datum, **change})
        assert main(["divform", path]) == 2
        assert capsys.readouterr().err.startswith("parse error: bad descent datum")


@pytest.mark.parametrize("dims", [
    '{"s":1}',  # missing vertex
    '{"s":1,"t":1,"u":1}',  # unknown vertex
    '{"s":-1,"t":1}',  # negative dimension
    '{"s":0,"t":0}',  # zero dimension vector
    '{"s":1.5,"t":1}',  # a float is not truncated
    '{"s":true,"t":1}',  # nor is a bool read as 1
])
def test_cli_census_bad_dims(tmp_path, capsys, dims):
    _assert_census_parse_error(tmp_path, capsys, dims, "2")


@pytest.mark.parametrize("q", [
    "abc",  # not an integer
    "2.5",  # not an integer
    "6",  # not a prime power
    "1",  # below 2
    "0",  # below 2
    "-4",  # below 2
    "3,abc",  # one bad entry among good ones
    "2,3,2",  # repeated, so the interpolation is undefined
])
def test_cli_census_bad_q(tmp_path, capsys, q):
    _assert_census_parse_error(tmp_path, capsys, '{"s":1,"t":1}', q)


def _assert_census_parse_error(tmp_path, capsys, dims, q):
    path = write_json(tmp_path, "quiver.json", KRONECKER2_JSON)
    code = main([
        "census",
        "--quiver", path,
        "--dims", dims,
        "--theta", '{"s":1,"t":-1}',
        "--q", q,
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:")
    assert "Traceback" not in err


def test_cli_stability_unknown_is_not_false(tmp_path, capsys):
    # 3 and 7 are inert in Q(i), so no reduction is usable
    Qi = gaussian_rationals()
    w = Representation(
        kronecker_quiver(2), Qi, {"s": 1, "t": 1},
        {"a1": gimat([[1]]), "a2": gimat([[(0, 1)]])},
    )
    path = write_json(tmp_path, "rep.json", rep_to_json(w))
    args = ["--primes", "3,7", "stability", path, "--theta", '{"s":1,"t":-1}']
    assert main(["--format", "json"] + args) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["kind"] == "unknown"
    assert out["geometrically_stable"] is None
    assert main(["--format", "table"] + args) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [ln.split()[1] for ln in lines if ln.startswith("geometrically_stable")] == [
        "unknown"
    ]


def test_cli_json_determinism(tmp_path, capsys):
    rep = kronecker_rep(GF(2), [1, 1])
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    args = ["--format", "json", "--seed", "7", "stability", path, "--theta", '{"s":1,"t":-1}']
    main(args)
    first = capsys.readouterr().out
    main(args)
    second = capsys.readouterr().out
    assert first == second
    out = json.loads(first)
    assert out["seed"] == 7
    assert out["config"]["seed"] == 7
    assert out["version"]


def test_cli_census_matches_golden_file(capsys):
    import pathlib

    fixtures = pathlib.Path(__file__).parent / "fixtures"
    code = main([
        "--format", "json", "--seed", "0",
        "census",
        "--quiver", str(fixtures / "kronecker2.quiver.json"),
        "--dims", '{"s":1,"t":1}',
        "--theta", '{"s":1,"t":-1}',
        "--q", "2,3,5",
        "--verify-descent", "2",
    ])
    assert code == 0
    got = capsys.readouterr().out
    want = (fixtures / "census_kronecker2_d11_q235.golden.json").read_text()
    assert got == want


def _hamilton_cli_outputs(tmp_path, capsys, monkeypatch):
    """The JSON stdout of typemap --descend, divform and twisted-validate
    --to-drep at index 2 and 1 on the Hamilton datum, and the form file
    typemap writes.  Files are named relative to tmp_path, the working
    directory, so the outputs carry no machine-specific path."""
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUIVERMODULI_CONFIG", raising=False)
    rep, _, _ = quaternionic_kronecker_example()
    gaussian = {"type": "quadratic", "m": -1}
    write_json(tmp_path, "rep.json", rep_to_json(rep))
    out = {}

    def run(name, *argv):
        assert main(["--format", "json", "--seed", "0", *argv]) == 0, name
        out[name] = capsys.readouterr().out

    run("typemap", "typemap", "rep.json", "--pair", json.dumps(gaussian),
        "--theta", '{"s":1,"t":-1}', "--descend", "form.json")
    out["typemap_form_file"] = (tmp_path / "form.json").read_text()
    typemap = json.loads(out["typemap"])
    datum = {"rep": rep_to_json(rep), "u": typemap["u"], "lambda": typemap["lambda"],
             "pair": gaussian}
    write_json(tmp_path, "datum.json", datum)
    run("divform", "divform", "datum.json")
    for index in (2, 1):
        write_json(tmp_path, f"tw{index}.json", {**datum, "index": index})
        run(f"twisted_validate_index{index}", "twisted-validate", f"tw{index}.json", "--to-drep")
    return out


def test_cli_hamilton_matches_golden_file(tmp_path, capsys, monkeypatch):
    got = json.dumps(_hamilton_cli_outputs(tmp_path, capsys, monkeypatch), indent=2, sort_keys=True)
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    assert got + "\n" == (fixtures / "hamilton_cli.golden.json").read_text()


def _stability_cli_reps():
    """Twelve seeded reps over F_3, F_4 and F_5 on K2, K3, A2 and the Jordan
    quiver, named by quiver and q, each with its theta.  They are stable,
    strictly semistable and unstable, with HN lengths 1 to 3."""
    from quivermoduli import a2_quiver, jordan_quiver

    quivers = {"K2": kronecker_quiver(2), "K3": kronecker_quiver(3), "A2": a2_quiver(),
               "Jordan": jordan_quiver()}
    specs = [
        ("K2", 3, {"s": 2, "t": 2}), ("K2", 4, {"s": 1, "t": 2}), ("K2", 5, {"s": 2, "t": 1}),
        ("K3", 3, {"s": 2, "t": 2}), ("K3", 4, {"s": 1, "t": 1}), ("K3", 5, {"s": 2, "t": 3}),
        ("A2", 3, {"s": 2, "t": 2}), ("A2", 4, {"s": 3, "t": 2}), ("A2", 5, {"s": 1, "t": 1}),
        ("Jordan", 3, {"v": 2}), ("Jordan", 4, {"v": 3}), ("Jordan", 5, {"v": 2}),
    ]
    rng = random.Random(3)
    out = []
    for name, q, dims in specs:
        quiver, field = quivers[name], GF(q)
        density = rng.choice((0.3, 0.6, 1.0))
        mats = {}
        for a in quiver.arrows:
            rows = tuple(
                tuple(rng.randrange(q) if rng.random() < density else 0 for _ in range(dims[a.src]))
                for _ in range(dims[a.dst])
            )
            mats[a.name] = Mat(field, rows, (dims[a.dst], dims[a.src]))
        theta = {"v": 0} if name == "Jordan" else {"s": 1, "t": -1}
        out.append((f"{name}_q{q}", Representation(quiver, field, dims, mats), theta))
    return out


def test_cli_stability_and_hn_match_golden_file(tmp_path, capsys, monkeypatch):
    # the JSON stdout of stability --hn and hn on each rep, files named
    # relative to the working directory so no machine path is printed
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUIVERMODULI_CONFIG", raising=False)
    out, kinds, lengths = {}, set(), set()
    for name, rep, theta in _stability_cli_reps():
        write_json(tmp_path, f"{name}.json", rep_to_json(rep))
        for label, argv in (("stability_hn", ["stability", "--hn"]), ("hn", ["hn"])):
            args = ["--format", "json", "--seed", "0", argv[0], f"{name}.json",
                    "--theta", json.dumps(theta), *argv[1:]]
            assert main(args) == 0, (name, label)
            out[f"{name}/{label}"] = text = capsys.readouterr().out
        report = json.loads(text)
        kinds.add(report["verdict"]["kind"])
        lengths.add(len(report["hn"]["steps"]))
    assert kinds == {"stable", "strictly_semistable", "unstable"} and lengths == {1, 2, 3}
    got = json.dumps(out, indent=2, sort_keys=True) + "\n"
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    assert got == (fixtures / "stability_cli.golden.json").read_text()


def test_cli_stability_solves_one_end_system_per_rep(tmp_path, capsys, monkeypatch):
    # stability prints end_dim, and geom_stability reads the same value from
    # rep.certificates: one Hom system per rep over the fixture's twelve
    # stability runs (a stable rep with non-coprime dims once took two)
    from quivermoduli import homs

    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("QUIVERMODULI_CONFIG", raising=False)
    calls = []
    real = homs.hom_dim

    def counted(w, wp):
        calls.append(w)
        return real(w, wp)

    monkeypatch.setattr(homs, "hom_dim", counted)
    for name, rep, theta in _stability_cli_reps():
        write_json(tmp_path, f"{name}.json", rep_to_json(rep))
        args = ["--format", "json", "--seed", "0", "stability", f"{name}.json",
                "--theta", json.dumps(theta), "--hn"]
        assert main(args) == 0, name
        capsys.readouterr()
    assert len(calls) == 12


def test_cli_config_env(tmp_path, capsys, monkeypatch):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 99, "output_format": "json"}))
    monkeypatch.setenv("QUIVERMODULI_CONFIG", str(cfg_path))
    rep = kronecker_rep(GF(2), [1, 1])
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    code = main(["stability", path, "--theta", '{"s":1,"t":-1}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["seed"] == 99


def _hamilton_drep():
    """The 3-Kronecker (1,1) rep over the Hamilton quaternions with arrows 1, i, j."""
    from quivermoduli import hamilton_quaternions

    H = hamilton_quaternions()
    return Representation(
        kronecker_quiver(3), H, {"s": 1, "t": 1},
        {"a1": Mat(H, ((H.one,),)), "a2": Mat(H, ((H.i,),)), "a3": Mat(H, ((H.j,),))},
    )


def _jordan_f4_datum():
    """A descent datum for the F_4/F_2 pair on the one-loop rep (1)."""
    pair = GaloisPair.finite(2, 2)
    f4 = pair.ext
    from quivermoduli import jordan_quiver

    rep = Representation(jordan_quiver(), f4, {"v": 1}, {"loop": Mat(f4, ((1,),))})
    u = {"v": Mat(f4, ((2,),))}
    return DescentDatum(rep, u, cocycle_scalar(u, pair), pair)


def test_cli_stability_quaternion_rep(tmp_path, capsys):
    path = write_json(tmp_path, "drep.json", rep_to_json(_hamilton_drep()))
    code = main(["--format", "json", "stability", path, "--theta", '{"s":1,"t":-1}'])
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["geometrically_stable"] is True
    assert out["verdict"]["kind"] == "stable"


@pytest.mark.parametrize("argv", [["hn"], ["stability", "--hn"]])
def test_cli_hn_on_quaternion_rep_is_a_parse_error(tmp_path, capsys, argv):
    # HN filtrations are computed over finite fields; a quaternion rep must
    # not get a verdict with the filtration silently left out
    path = write_json(tmp_path, "drep.json", rep_to_json(_hamilton_drep()))
    code = main(["--format", "json", *argv, path, "--theta", '{"s":1,"t":-1}'])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error:") and "finite fields" in captured.err


@pytest.mark.parametrize("argv", [["hn"], ["stability", "--hn"]])
@pytest.mark.parametrize("which", ["quaternion", "gaussian"])
def test_cli_hn_over_infinite_ring_refused_before_any_verdict(tmp_path, capsys, monkeypatch, argv, which):
    from quivermoduli import stability

    calls = []
    certificate = stability.geom_stability_certificate

    def counted(*args, **kwargs):
        calls.append(args)
        return certificate(*args, **kwargs)

    monkeypatch.setattr(stability, "geom_stability_certificate", counted)
    rep = _hamilton_drep() if which == "quaternion" else quaternionic_kronecker_example()[0]
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    code = main(["--format", "json", *argv, path, "--theta", '{"s":1,"t":-1}'])
    assert code == 2
    assert "finite fields" in capsys.readouterr().err
    assert calls == []


def test_cli_twisted_validate_rejects_index_zero(tmp_path, capsys):
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    data = twisted_to_json(TwistedRep(rep, datum.u, datum.lam, pair, index=2))
    data["index"] = 0
    with pytest.raises(SchemaError):
        twisted_from_json(data)
    path = write_json(tmp_path, "tw.json", data)
    code = main(["--format", "json", "twisted-validate", path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err


@pytest.mark.parametrize("command", ["descend", "divform"])
def test_cli_datum_with_wrong_lambda_is_a_parse_error(tmp_path, capsys, command):
    # the Hamilton datum has lambda -1; a stored 3 is bad input (exit 2),
    # not a broken invariant (exit 5)
    rep, pair, theta = quaternionic_kronecker_example()
    data = datum_to_json(solve_modifying_u(rep, pair, theta, CFG))
    data["lambda"] = "3"
    path = write_json(tmp_path, "datum.json", data)
    code = main(["--format", "json", command, path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "lambda" in err


@pytest.mark.parametrize("command", ["descend", "divform"])
def test_cli_not_decidable_exits_6(tmp_path, capsys, command):
    # norm membership in Q(sqrt(2))/Q has no decision procedure here
    pair = GaloisPair.quadratic(2)
    L = pair.ext
    rep = Representation(
        kronecker_quiver(3), L, {"s": 1, "t": 1},
        {f"a{i}": Mat(L, ((L.from_int(i),),)) for i in (1, 2, 3)},
    )
    u = {v: Mat.identity(L, 1) for v in ("s", "t")}
    datum = DescentDatum(rep, u, QQ.one, pair)
    path = write_json(tmp_path, "datum.json", datum_to_json(datum))
    code = main(["--format", "json", command, path])
    assert code == 6
    err = capsys.readouterr().err
    assert err.startswith("not decidable:") and "Traceback" not in err


@pytest.mark.parametrize(
    "command, other", [("descend", "divform"), ("divform", "descend")]
)
def test_cli_class_mismatch_is_parse_error(tmp_path, capsys, command, other):
    if command == "descend":
        # the Hamilton datum: lambda = -1, class (-1,-1)_Q
        rep, pair, theta = quaternionic_kronecker_example()
        datum = solve_modifying_u(rep, pair, theta, CFG)
    else:
        datum = _jordan_f4_datum()
    path = write_json(tmp_path, "datum.json", datum_to_json(datum))
    code = main(["--format", "json", command, path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and other in err


# ---------------------------------------------------------------------------
# integers from JSON, configs, and a closed stdout


def test_json_int_refuses_floats_and_bools():
    assert [json_int(x, "n") for x in (3, -2, "7", " 5 ", "-1")] == [3, -2, 7, 5, -1]
    for bad in (3.0, 3.9, True, False, "3.0", "x", None, [1], {"a": 1}):
        with pytest.raises(SchemaError, match="n must be an integer"):
            json_int(bad, "n")


@pytest.mark.parametrize("change, theta", [
    ({"ring": {"type": "prime", "p": 3.9}}, '{"s":1,"t":-1}'),
    ({"ring": {"type": "prime", "p": True}}, '{"s":1,"t":-1}'),
    ({"dims": {"s": 1.5, "t": 1}}, '{"s":1,"t":-1}'),
    ({"matrices": {"a1": [[1.7]], "a2": [[1]]}}, '{"s":1,"t":-1}'),
    ({"matrices": {"a1": [[True]], "a2": [[1]]}}, '{"s":1,"t":-1}'),
    ({}, '{"s":1.2,"t":-1}'),
    ({"ring": {"type": "ext", "p": 2, "n": 2.0}}, '{"s":1,"t":-1}'),
    ({"ring": {"type": "ext", "p": 2, "n": 2, "modulus": [1, 1.0, 1]}}, '{"s":1,"t":-1}'),
    ({"ring": {"type": "ext", "p": 2, "n": 2}, "matrices": {"a1": [[1.0]], "a2": [[1]]}},
     '{"s":1,"t":-1}'),
    ({"ring": {"type": "ext", "p": 2, "n": 2}, "matrices": {"a1": [[[0, 1.5]]], "a2": [[1]]}},
     '{"s":1,"t":-1}'),
    ({"ring": {"type": "quad", "m": -1.0}}, '{"s":1,"t":-1}'),
], ids=[
    "p-float", "p-bool", "dims-float", "entry-float", "entry-bool", "theta-float", "ext-n-float",
    "ext-modulus-float", "ext-entry-float", "ext-coefficient-float", "quad-m-float",
])
def test_cli_non_integer_numbers_are_parse_errors(tmp_path, capsys, change, theta):
    data = {**rep_to_json(kronecker_rep(GF(3), [1, 1])), **change}
    path = write_json(tmp_path, "rep.json", data)
    assert main(["stability", path, "--theta", theta]) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "must be an integer" in err


_QUAT = {"type": "quaternion", "a": "-1", "b": "-1"}


@pytest.mark.parametrize("ring, one, bad", [
    ({"type": "rational"}, "1", True),
    ({"type": "quad", "m": -1}, ["1", "0"], ["1", True]),
    (_QUAT, ["1", "0", "0", "0"], [True, "0", "0", "0"]),
    ({**_QUAT, "a": True}, ["1", "0", "0", "0"], ["1", "0", "0", "0"]),
], ids=["q-entry", "qi-entry", "quaternion-entry", "quaternion-constant"])
def test_cli_bool_rationals_are_parse_errors(tmp_path, capsys, ring, one, bad):
    # bool is an int in Python, but a JSON true is no rational
    data = {
        **rep_to_json(kronecker_rep(GF(3), [1, 1])),
        "ring": ring,
        "matrices": {"a1": [[bad]], "a2": [[one]]},
    }
    path = write_json(tmp_path, "rep.json", data)
    assert main(["stability", path, "--theta", '{"s":1,"t":-1}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "got True" in err


def test_cli_integer_strings_still_accepted(tmp_path, capsys):
    data = rep_to_json(kronecker_rep(GF(3), [1, 1]))
    data.update(
        ring={"type": "prime", "p": "3"},
        dims={"s": "1", "t": 1},
        matrices={"a1": [["1"]], "a2": [[1]]},
    )
    path = write_json(tmp_path, "rep.json", data)
    assert main(["--format", "json", "stability", path, "--theta", '{"s":"1","t":-1}']) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta"] == {"s": 1, "t": -1} and out["verdict"]["kind"] == "stable"


def test_non_integer_pair_and_index_rejected():
    with pytest.raises(SchemaError):
        pair_from_json({"type": "finite", "p": 2.0, "n": 2})
    with pytest.raises(SchemaError):
        pair_from_json({"type": "quadratic", "m": -1.5})
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    data = {**datum_to_json(datum), "index": 2.0}
    with pytest.raises(SchemaError, match="index must be an integer"):
        twisted_from_json(data)
    assert twisted_from_json({**data, "index": "2"}).index == 2


def test_config_rejects_bad_primes():
    for primes in ((), (4,), (5, 4), (5, 1), (5, 13.0), (True,)):
        with pytest.raises(ValueError):
            JobConfig(primes=primes)
    assert JobConfig(primes=(2, 3, 2**61 - 1)).primes == (2, 3, 2**61 - 1)
    assert JobConfig(primes=[5, 7]).primes == (5, 7)  # normalized, hashable


@pytest.mark.parametrize("field, value", [
    ("seed", "1"), ("seed", 1.0), ("seed", True),
    ("max_subspace_checks", True), ("max_orbit_points", 10.0), ("iso_trials", "64"),
    ("h90_retries", 1.5), ("h90_retries", False),
    ("output_format", "xml"), ("output_format", "JSON"), ("output_format", None),
    ("primes", 5), ("primes", None),
])
def test_config_rejects_ill_typed_fields(field, value):
    with pytest.raises(ValueError, match=field):
        JobConfig(**{field: value})


@pytest.mark.parametrize("argv, config", [
    (["--primes", "4"], None),
    (["--primes", "4,5"], None),
    ([], '{"max_subspace_checks": 0}'),
    ([], '{"primes": []}'),
    ([], '{"primes": 5}'),
    ([], '{"iso_trials": "many"}'),
    ([], '[1, 2]'),
    ([], '{"seed": 1,'),
    (["--format", "json"], '{"max_subspace_checks": true}'),
    ([], '{"output_format": "xml"}'),
    (["--format", "json"], '{"h90_retries": 1.5}'),
], ids=[
    "primes-4", "primes-4-5", "budget-0", "primes-empty", "primes-int", "trials-str",
    "not-object", "bad-json", "budget-bool", "format-xml", "retries-float",
])
def test_cli_bad_config_is_parse_error(tmp_path, capsys, monkeypatch, argv, config):
    if config is not None:
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(config)
        monkeypatch.setenv("QUIVERMODULI_CONFIG", str(cfg_path))
    rep = Representation(
        kronecker_quiver(2), QQ, {"s": 1, "t": 1},
        {"a1": Mat(QQ, ((Fraction(1),),)), "a2": Mat(QQ, ((Fraction(2),),))},
    )
    path = write_json(tmp_path, "rep.json", rep_to_json(rep))
    assert main([*argv, "stability", path, "--theta", '{"s":1,"t":-1}']) == 2
    err = capsys.readouterr().err
    assert err.startswith("parse error:") and "Traceback" not in err


def test_cli_unknown_config_keys_are_parse_errors(tmp_path, capsys, monkeypatch):
    # misspelled keys must not fall back to the defaults
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"seed": 3, "max_subspace_cheks": 5, "output_fromat": "json"}))
    monkeypatch.setenv("QUIVERMODULI_CONFIG", str(cfg_path))
    path = write_json(tmp_path, "rep.json", rep_to_json(kronecker_rep(GF(3), [1, 1])))
    assert main(["stability", path, "--theta", '{"s":1,"t":-1}']) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("parse error: bad config:")
    assert "max_subspace_cheks" in captured.err and "output_fromat" in captured.err
    assert "seed" not in captured.err
    with pytest.raises(ValueError):
        JobConfig.from_dict({"seed": 1, "prime": [5]})
    assert JobConfig.from_dict({"seed": 1, "primes": [5]}) == JobConfig(seed=1, primes=(5,))


def test_cli_closed_stdout_exits_quietly(tmp_path):
    path = write_json(tmp_path, "rep.json", rep_to_json(kronecker_rep(GF(3), [1, 1])))
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the CLI writes a byte
    try:
        done = subprocess.run(
            [sys.executable, "-m", "quivermoduli.cli", "--format", "json",
             "hn", path, "--theta", '{"s":1,"t":-1}'],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
        )
    finally:
        os.close(write_end)
    assert done.returncode == 0
    assert done.stderr == ""


# ---------------------------------------------------------------------------
# the exit-code contract under mutated inputs

# Small integers keep every case's work small; the budgets below turn any
# larger census or subspace enumeration into exit 3.
_FUZZ_INTS = st.integers(-3, 13)
_FUZZ_STRINGS = st.sampled_from(
    ["", "x", "0", "1", "-1", "3", "1/2", "1/0", "s", "t", "a1", "a2", "prime", "ext", "quad"]
)
_FUZZ_LEAVES = st.one_of(
    st.none(), st.booleans(), _FUZZ_INTS, st.floats(-4, 4, allow_nan=False), _FUZZ_STRINGS
)
_FUZZ_VALUES = st.recursive(
    _FUZZ_LEAVES,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(["s", "t", "type", "p", "n", "m"]), kids, max_size=3),
    max_leaves=6,
)


def _mutated(data, value):
    """value with one node, found by a random walk from the root, dropped
    from its container or replaced: an int or a string mostly by another of
    its kind, anything else by a random JSON value."""
    if isinstance(value, (dict, list)) and value and data.draw(st.integers(0, 3)):
        out = dict(value) if isinstance(value, dict) else list(value)
        key = data.draw(st.sampled_from(list(out) if isinstance(out, dict) else range(len(out))))
        if data.draw(st.integers(0, 4)) == 0:
            del out[key]
        else:
            out[key] = _mutated(data, out[key])
        return out
    scalar = isinstance(value, (int, str)) and not isinstance(value, bool)
    if scalar and data.draw(st.integers(0, 3)):
        return data.draw(_FUZZ_INTS if isinstance(value, int) else _FUZZ_STRINGS)
    return data.draw(_FUZZ_VALUES)


def _fuzz_json(data, value):
    """A mutation of value as JSON text, sometimes cut short so that it no
    longer parses."""
    text = json.dumps(_mutated(data, value))
    if data.draw(st.integers(0, 3)):
        return text
    return text[: data.draw(st.integers(0, len(text) - 1))]


_FUZZ_Q = st.one_of(
    st.lists(st.integers(-1, 13), min_size=1, max_size=3).map(lambda qs: ",".join(map(str, qs))),
    st.text(alphabet="0123456789,.-x ", max_size=6),
)


@functools.lru_cache(maxsize=None)
def _fuzz_inputs():
    """Per case, the subcommand's words and its inputs as (flag or None,
    file name or None, valid value); the fuzz mutates one input."""
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    kr = rep_to_json(kronecker_rep(GF(3), [1, 2]))
    drep = rep_to_json(_hamilton_drep())
    twisted = twisted_to_json(TwistedRep(rep, datum.u, datum.lam, pair, index=2))
    st_theta = ("--theta", None, {"s": 1, "t": -1})
    return {
        "stability": (["stability"], [(None, "rep.json", kr), st_theta]),
        "stability-drep": (["stability"], [(None, "rep.json", drep), st_theta]),
        "hn": (["hn"], [(None, "rep.json", kr), st_theta]),
        "hn-drep": (["hn"], [(None, "rep.json", drep), st_theta]),
        "typemap": (["typemap"], [
            (None, "rep.json", rep_to_json(rep)), ("--pair", None, pair_to_json(pair)), st_theta
        ]),
        "descend": (["descend"], [(None, "datum.json", datum_to_json(_jordan_f4_datum()))]),
        "divform": (["divform"], [(None, "datum.json", datum_to_json(datum))]),
        "twisted-validate": (["twisted-validate"], [(None, "tw.json", twisted)]),
        "twisted-validate-drep": (
            ["twisted-validate", "--to-drep"], [(None, "tw.json", twisted)]
        ),
        "census": (["census"], [
            ("--quiver", "quiver.json", KRONECKER2_JSON),
            ("--dims", None, {"s": 1, "t": 1}),
            st_theta,
            ("--q", None, "2,3"),
        ]),
        "census-loop": (["census"], [
            ("--quiver", "quiver.json", {"vertices": ["v"], "arrows": [
                {"id": "loop", "from": "v", "to": "v"},
            ]}),
            ("--dims", None, {"v": 3}),
            ("--theta", None, {"v": 0}),
            ("--q", None, "2,3"),
        ]),
    }


@settings(max_examples=150, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_cli_exit_codes_under_mutated_inputs(tmp_path, monkeypatch, data):
    # one mutated rep, datum, twisted rep, pair, theta or census argument per
    # case; every case ends in a contract exit code, with no exception
    # escaping main.
    # Tight budgets turn any large census or enumeration into exit 3.
    budgets = {"max_orbit_points": 500, "max_subspace_checks": 500}
    cfg_path = write_json(tmp_path, "cfg.json", budgets)
    monkeypatch.setenv("QUIVERMODULI_CONFIG", cfg_path)
    case = data.draw(st.sampled_from(sorted(_fuzz_inputs())))
    words, inputs = _fuzz_inputs()[case]
    target = data.draw(st.integers(0, len(inputs) - 1))
    argv = ["--format", data.draw(st.sampled_from(["json", "table"])), *words]
    for i, (flag, name, value) in enumerate(inputs):
        if i != target:
            text = value if isinstance(value, str) else json.dumps(value)
        elif flag == "--q":
            text = data.draw(_FUZZ_Q)
        elif case == "census-loop" and flag == "--dims":
            # class counts past the orbit budget, refused before any listing
            text = json.dumps({"v": data.draw(st.integers(0, 40))})
        else:
            text = _fuzz_json(data, value)
        if name is not None:
            (tmp_path / name).write_text(text)
            text = str(tmp_path / name)
        argv.append(text if flag is None else f"{flag}={text}")
    if words == ["census"] and data.draw(st.booleans()):
        argv += ["--verify-descent", "2"]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5, 6), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()


def _fuzz_file_bytes(data, value):
    """Bytes for a file slot: random bytes, the valid file's JSON with a few
    bytes overwritten, a mutated JSON value, or input the JSON reader
    refuses whole (a UTF-16 file, a 5,000-digit integer, deep nesting)."""
    raw = json.dumps(value).encode()
    kind = data.draw(st.integers(0, 3))
    if kind == 0:
        return data.draw(st.binary(max_size=48))
    if kind == 1:
        i = data.draw(st.integers(0, len(raw)))
        j = data.draw(st.integers(i, min(len(raw), i + 6)))
        return raw[:i] + data.draw(st.binary(max_size=6)) + raw[j:]
    if kind == 2:
        return _fuzz_json(data, value).encode()
    return data.draw(st.sampled_from([
        b"\xff\xfe" + raw.decode().encode("utf-16-le"),
        raw.replace(b" 1", b" " + _HUGE_INT.encode(), 1),
        b"[" * 200_000,
        b'{"vertices": ' * 100_000,
    ]))


@settings(
    max_examples=100, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(data=st.data())
def test_cli_exit_codes_under_raw_file_bytes(tmp_path, monkeypatch, data):
    # the file slot of every file-reading subcommand gets bytes that need
    # not decode or parse; main returns a contract exit code and raises
    # nothing
    budgets = {"max_orbit_points": 500, "max_subspace_checks": 500}
    monkeypatch.setenv("QUIVERMODULI_CONFIG", write_json(tmp_path, "cfg.json", budgets))
    case = data.draw(st.sampled_from([
        "stability", "hn", "typemap", "descend", "divform", "twisted-validate", "census",
    ]))
    words, inputs = _fuzz_inputs()[case]
    argv = ["--format", data.draw(st.sampled_from(["json", "table"])), *words]
    for flag, name, value in inputs:
        text = value if isinstance(value, str) else json.dumps(value)
        if name is not None:
            (tmp_path / name).write_bytes(_fuzz_file_bytes(data, value))
            text = str(tmp_path / name)
        argv.append(text if flag is None else f"{flag}={text}")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3, 4, 5, 6), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue()
