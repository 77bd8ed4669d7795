"""JSON schemas for rings, quivers, representations, and descent data.

Rationals serialize as "p/q" strings, prime-field elements as integers,
extension-field elements as coefficient arrays (the modulus rides in the
ring descriptor), quadratic elements as ["a", "b"] for a + b sqrt(m), and
quaternions as 4-arrays of rational strings.  All emitters sort keys, so a
fixed (input, seed, version) triple produces byte-identical output.
"""

import json

from .descent import DescentDatum
from .errors import SchemaError
from .ffields import ExtensionField, PrimeField
from .galois import GaloisPair
from .linalg import Mat
from .morita import TwistedRep
from .quaternions import QuaternionAlgebra
from .quiver import Arrow, Quiver, Representation
from .rings import QQ, QuadraticField, json_int

VERSION = "0.1.0"


def _modulus(data):
    modulus = data.get("modulus")
    return None if modulus is None else [json_int(c, "modulus coefficient") for c in modulus]


def ring_to_json(ring):
    return ring.descriptor()


def ring_from_json(data):
    if not isinstance(data, dict) or "type" not in data:
        raise SchemaError(f"ring descriptor must be an object with 'type': {data!r}")
    kind = data["type"]
    try:
        if kind == "rational":
            return QQ
        if kind == "prime":
            return PrimeField(json_int(data["p"], "p"))
        if kind == "ext":
            return ExtensionField(
                json_int(data["p"], "p"), json_int(data["n"], "n"), _modulus(data)
            )
        if kind == "quad":
            return QuadraticField(json_int(data["m"], "m"))
        if kind == "quaternion":
            return QuaternionAlgebra(QQ.from_json(data["a"]), QQ.from_json(data["b"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad ring descriptor {data!r}: {exc}") from exc
    raise SchemaError(f"unknown ring type {kind!r}")


def pair_to_json(pair):
    return pair.descriptor()


def pair_from_json(data):
    if not isinstance(data, dict) or "type" not in data:
        raise SchemaError(f"pair descriptor must be an object with 'type': {data!r}")
    kind = data["type"]
    try:
        if kind == "finite":
            return GaloisPair.finite(
                json_int(data["p"], "p"), json_int(data["n"], "n"), _modulus(data)
            )
        if kind == "quadratic":
            return GaloisPair.quadratic(json_int(data["m"], "m"))
    except (KeyError, ValueError, TypeError) as exc:
        raise SchemaError(f"bad pair descriptor {data!r}: {exc}") from exc
    raise SchemaError(f"unknown pair type {kind!r}")


def quiver_to_json(quiver):
    return {
        "vertices": list(quiver.vertices),
        "arrows": [{"id": a.name, "from": a.src, "to": a.dst} for a in quiver.arrows],
    }


def _name(value, what):
    """A vertex or arrow name: a JSON string, never another value's str()."""
    if not isinstance(value, str):
        raise SchemaError(f"bad quiver data: {what} must be a string, got {value!r}")
    return value


def quiver_from_json(data):
    try:
        if not all(isinstance(data[k], list) for k in ("vertices", "arrows")):
            raise SchemaError("bad quiver data: vertices and arrows must be arrays")
        vertices = tuple(_name(v, "a vertex name") for v in data["vertices"])
        arrows = tuple(
            Arrow(*(_name(a[k], f"arrow {k!r}") for k in ("id", "from", "to")))
            for a in data["arrows"]
        )
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad quiver data: {exc}") from exc
    return Quiver(vertices, arrows)


def mat_to_json(m):
    return [[m.ring.to_json(x) for x in row] for row in m.rows]


def mat_from_json(ring, data, shape):
    if not isinstance(data, list):
        raise SchemaError("matrix must be a list of rows")
    rows = []
    for row in data:
        if not isinstance(row, list):
            raise SchemaError("matrix row must be a list")
        try:
            rows.append(tuple(ring.from_json(x) for x in row))
        except (ValueError, TypeError) as exc:
            raise SchemaError(f"bad matrix entry over {ring!r}: {exc}") from exc
    if len(rows) != shape[0] or any(len(r) != shape[1] for r in rows):
        raise SchemaError(f"matrix has wrong shape; expected {shape}")
    return Mat(ring, rows, shape)


def rep_to_json(rep):
    return {
        "quiver": quiver_to_json(rep.quiver),
        "ring": ring_to_json(rep.ring),
        "dims": dict(rep.dims),
        "matrices": {name: mat_to_json(m) for name, m in rep.mats.items()},
    }


def rep_from_json(data):
    try:
        quiver = quiver_from_json(data["quiver"])
        ring = ring_from_json(data["ring"])
        dims = {str(v): json_int(d, f"dims[{v}]") for v, d in data["dims"].items()}
        matrices = data["matrices"]
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SchemaError(f"bad representation data: {exc}") from exc
    if not isinstance(matrices, dict):
        raise SchemaError("bad representation data: matrices must be an object")
    missing = [v for v in quiver.vertices if v not in dims]
    if missing:
        raise SchemaError(f"bad representation data: dims missing vertices {missing}")
    mats = {}
    for a in quiver.arrows:
        if a.name not in matrices:
            raise SchemaError(f"missing matrix for arrow {a.name}")
        mats[a.name] = mat_from_json(ring, matrices[a.name], (dims[a.dst], dims[a.src]))
    return Representation(quiver, ring, dims, mats)


def hom_to_json(h):
    return {v: mat_to_json(m) for v, m in h.items()}


def datum_to_json(datum):
    return {
        "rep": rep_to_json(datum.rep),
        "u": hom_to_json(datum.u),
        "lambda": datum.pair.base.to_json(datum.lam),
        "pair": pair_to_json(datum.pair),
    }


def datum_from_json(data):
    try:
        rep = rep_from_json(data["rep"])
        pair = pair_from_json(data["pair"])
        lam = pair.base.from_json(data["lambda"])
        u_data = data["u"]
    except (KeyError, TypeError) as exc:
        raise SchemaError(f"bad descent datum: {exc}") from exc
    if not isinstance(u_data, dict):
        raise SchemaError("bad descent datum: u must be an object")
    if rep.ring != pair.ext:
        raise SchemaError(f"bad descent datum: rep is over {rep.ring!r}, pair over {pair.ext!r}")
    if lam == pair.base.zero:
        raise SchemaError("bad descent datum: lambda must be nonzero")
    u = {}
    for v in rep.quiver.vertices:
        if v not in u_data:
            raise SchemaError(f"missing modifying matrix at vertex {v}")
        d = rep.dims[v]
        u[v] = mat_from_json(pair.ext, u_data[v], (d, d))
    return DescentDatum(rep, u, lam, pair)


def twisted_to_json(twisted):
    return {**datum_to_json(twisted), "index": twisted.index}


def twisted_from_json(data):
    datum = datum_from_json(data)
    if "index" not in data:
        raise SchemaError("bad twisted representation: missing index")
    index = json_int(data["index"], "index")
    return TwistedRep(datum.rep, datum.u, datum.lam, datum.pair, index=index)


def witness_to_json(witness):
    return {
        "dims": dict(witness.dims),
        "bases": {v: mat_to_json(b) for v, b in witness.bases.items()},
    }


def verdict_to_json(verdict):
    out = {"kind": verdict.kind}
    if verdict.witness is not None:
        out["witness"] = witness_to_json(verdict.witness)
    if verdict.detail:
        out["detail"] = {
            k: (str(v) if not isinstance(v, (int, str, list, bool)) else v)
            for k, v in verdict.detail.items()
        }
    return out


def hn_to_json(hn):
    return {
        "steps": [witness_to_json(w) for w in hn.steps],
        "slopes": [str(s) for s in hn.slopes],
    }


def dumps(payload, config=None):
    """Canonical JSON emitter; embeds config, seed, and version."""
    body = dict(payload)
    body["version"] = VERSION
    if config is not None:
        body["config"] = config.to_dict()
        body["seed"] = config.seed
    return json.dumps(body, sort_keys=True, indent=2)


def load_theta(data, quiver):
    if not isinstance(data, dict):
        raise SchemaError("theta must be an object mapping vertices to integers")
    theta = {}
    for v in quiver.vertices:
        if v not in data:
            raise SchemaError(f"theta missing vertex {v}")
        theta[v] = json_int(data[v], f"theta at vertex {v}")
    return theta
