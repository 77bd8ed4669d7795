"""Command-line interface.

Subcommands: stability | hn | typemap | descend | divform | twisted-validate
| census.  Exit codes: 0 success (including mathematically negative
answers), 2 parse errors (bad or undecodable input, an unwritable output
path or a bad config), 3 budget errors, 4 inconclusive randomized searches,
5 internal invariant violations, 6 questions no implemented procedure
decides.  A reader that closes stdout early gets what it read and exit 0,
without a traceback.  Reports embed the config and seed; JSON output is
byte-stable for a fixed (input, seed, version).
"""

import argparse
import json
import os
import sys

from .census import census_polynomiality, verify_descent_census
from .config import JobConfig
from .descent import solve_modifying_u
from .errors import (
    EXIT_BUDGET,
    EXIT_INCONCLUSIVE,
    EXIT_INVARIANT,
    EXIT_NOT_DECIDABLE,
    EXIT_OK,
    EXIT_PARSE,
    BudgetExceededError,
    InconclusiveError,
    InvariantError,
    NotDecidableError,
    NotGeometricallyStableError,
    SchemaError,
)
from .ffields import prime_power
from .morita import descended_form, drep_is_geom_stable, validate_twisted
from .serialize import (
    datum_from_json,
    dumps,
    hn_to_json,
    hom_to_json,
    json_int,
    load_theta,
    pair_from_json,
    quiver_from_json,
    rep_from_json,
    rep_to_json,
    twisted_from_json,
    verdict_to_json,
)
from .stability import UNKNOWN, end_dim, geom_stability, hn_filtration, stability_verdict

CONFIG_ENV = "QUIVERMODULI_CONFIG"


def _read_json(path):
    try:
        with open(path) as fh:
            return json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:  # undecodable, huge or deep
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _write_json(path, payload, config):
    try:
        with open(path, "w") as fh:
            fh.write(dumps(payload, config))
    except OSError as exc:
        raise SchemaError(f"cannot write {path}: {exc}") from exc


def _parse_json_arg(text, what):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"bad {what}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        raise SchemaError(f"bad {what}: {exc}") from exc


def _load_config(args):
    data = {}
    path = os.environ.get(CONFIG_ENV)
    if path:
        data = _read_json(path)
        if not isinstance(data, dict):
            raise SchemaError(f"{path}: a config must be a JSON object")
    if getattr(args, "primes", None):
        data = {**data, "primes": args.primes}
    if getattr(args, "format", None):
        data = {**data, "output_format": args.format}
    try:
        cfg = JobConfig.from_dict(data)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"bad config: {exc}") from exc
    if getattr(args, "seed", None) is not None:
        cfg = cfg.with_seed(args.seed)
    return cfg


def _load_dims(text, quiver):
    """A dimension vector on exactly the quiver's vertices, >= 0, not all 0."""
    data = _parse_json_arg(text, "dims")
    if not isinstance(data, dict) or set(data) != set(quiver.vertices):
        raise SchemaError(f"dims must give a dimension for each of {list(quiver.vertices)}")
    dims = {v: json_int(data[v], f"dims[{v}]") for v in quiver.vertices}
    if not any(dims.values()) or min(dims.values()) < 0:
        raise SchemaError(f"dims must be nonnegative and not all zero, got {dims}")
    return dims


def _load_rep(path):
    rep = rep_from_json(_read_json(path))
    if rep.is_zero_dimensional():
        raise SchemaError(f"{path}: dims must not be all zero, got {dict(rep.dims)}")
    return rep


def _emit(payload, config):
    """JSON, or one line per key; None (an undecided answer) is `unknown`."""
    if config.output_format == "json":
        print(dumps(payload, config))
    else:
        for key, value in payload.items():
            if isinstance(value, (dict, list)):
                value = json.dumps(value, sort_keys=True)
            elif value is None:
                value = "unknown"
            print(f"{key:24} {value}")


def cmd_stability(args, config):
    rep = _load_rep(args.rep)
    theta = load_theta(_parse_json_arg(args.theta, "theta"), rep.quiver)
    with_hn = args.command == "hn" or args.hn
    if with_hn and not rep.ring.is_finite:
        raise SchemaError("HN filtrations are computed over finite fields")
    payload = {"input": args.rep, "theta": theta}
    if rep.ring.is_finite:
        verdict = stability_verdict(rep, theta, config)
        payload["verdict"] = verdict_to_json(verdict)
        payload["end_dim"] = end_dim(rep)
        payload["geometrically_stable"] = geom_stability(rep, theta, config).is_stable
    else:
        # quaternionic representations are judged through their splitting
        verdict = drep_is_geom_stable(rep, theta, config)
        payload["verdict"] = verdict_to_json(verdict)
        # an Unknown certificate is printed as null, never as false
        payload["geometrically_stable"] = None if verdict.kind == UNKNOWN else verdict.is_stable
    if with_hn:
        payload["hn"] = hn_to_json(hn_filtration(rep, theta, config))
    _emit(payload, config)
    return EXIT_OK


def cmd_typemap(args, config):
    rep = _load_rep(args.rep)
    pair = pair_from_json(_parse_json_arg(args.pair, "pair"))
    if rep.ring != pair.ext:
        raise SchemaError(f"representation is over {rep.ring!r}, the pair is over {pair.ext!r}")
    theta = load_theta(_parse_json_arg(args.theta, "theta"), rep.quiver)
    payload = {"input": args.rep}
    try:
        datum = solve_modifying_u(rep, pair, theta, config)
    except NotGeometricallyStableError as exc:
        payload["status"] = f"not geometrically stable: {exc.verdict}"
        _emit(payload, config)
        return EXIT_OK
    if datum is None:
        payload["status"] = "orbit not Galois-fixed"
        _emit(payload, config)
        return EXIT_OK
    payload["status"] = "Galois-fixed"
    payload["u"] = hom_to_json(datum.u)
    payload["lambda"] = pair.base.to_json(datum.lam)
    cls = datum.brauer
    payload["brauer_class"] = cls.describe()
    payload["index"] = cls.index
    if args.descend:
        form = descended_form(datum, config)
        kind = "base-field" if cls.is_trivial else "division-algebra"
        out = {"form": rep_to_json(form), "kind": kind}
        _write_json(args.descend, out, config)
        payload["form_written"] = args.descend
    _emit(payload, config)
    return EXIT_OK


def cmd_form(args, config):
    """descend: the base-field form of a datum with trivial Brauer class;
    divform: the division-algebra form of one with a nontrivial class.  A
    datum that fails its own check is bad input, not a broken invariant, and
    so is one whose class is not the kind the subcommand takes."""
    trivial = args.command == "descend"
    datum = datum_from_json(_read_json(args.datum))
    try:
        datum.check()
    except InvariantError as exc:
        raise SchemaError(f"bad descent datum: {exc}") from exc
    cls = datum.brauer
    if cls.is_trivial != trivial:
        other = "divform" if trivial else "descend"
        raise SchemaError(
            f"class {cls.describe()} is {'not ' if trivial else ''}trivial; "
            f"use the {other} subcommand"
        )
    payload = {"form": rep_to_json(descended_form(datum, config))}
    if not trivial:
        payload["lambda"] = str(cls.lam)
    if args.out:
        _write_json(args.out, payload, config)
        _emit({"form_written": args.out}, config)
    else:
        _emit(payload, config)
    return EXIT_OK


def cmd_twisted_validate(args, config):
    twisted = twisted_from_json(_read_json(args.twisted))
    ok, problems = validate_twisted(twisted)
    payload = {"valid": ok, "problems": problems}
    if ok and args.to_drep:
        payload["drep"] = rep_to_json(descended_form(twisted, config))
    _emit(payload, config)
    return EXIT_OK


def cmd_census(args, config):
    quiver = quiver_from_json(_read_json(args.quiver))
    dims = _load_dims(args.dims, quiver)
    theta = load_theta(_parse_json_arg(args.theta, "theta"), quiver)
    n = args.verify_descent
    if n is not None and n < 2:
        raise SchemaError(f"--verify-descent needs an extension degree n >= 2, got {n}")
    try:
        q_list = [int(q) for q in args.q.split(",")]
        for q in q_list:
            _, e = prime_power(q)  # raises for a q that is not a prime power
            if n is not None and e > 1:  # refused before any census runs
                raise SchemaError(f"descent census needs a prime q: {q} is not prime")
    except ValueError as exc:
        raise SchemaError(f"bad q: {exc}") from exc
    fit = census_polynomiality(quiver, dims, theta, q_list, config)
    payload = {"census": fit.as_dict()}
    if n is not None:
        reports = []
        for q in q_list:
            report = verify_descent_census(quiver, dims, theta, q, n, config)
            reports.append(
                {
                    "q": q,
                    "fixed_orbits": report.fixed_orbit_count,
                    "base_count": report.base_count,
                    "ok": report.ok,
                }
            )
        payload["descent"] = reports
    _emit(payload, config)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="quivermoduli",
        description="Exact stability, descent, and Brauer types of quiver representations",
    )
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--format", choices=("json", "table"), default=None)
    parser.add_argument(
        "--primes", type=lambda s: tuple(int(p) for p in s.split(",")), default=None
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stability", help="stability verdict for a representation file")
    p.add_argument("rep")
    p.add_argument("--theta", required=True)
    p.add_argument("--hn", action="store_true")

    p = sub.add_parser("hn", help="Harder-Narasimhan filtration")
    p.add_argument("rep")
    p.add_argument("--theta", required=True)

    p = sub.add_parser("typemap", help="Galois-fixedness, modifying element, Brauer class")
    p.add_argument("rep")
    p.add_argument("--pair", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--descend", metavar="OUT", default=None)

    p = sub.add_parser("descend", help="base-field form of a trivial-class datum")
    p.add_argument("datum")
    p.add_argument("--out", default=None)

    p = sub.add_parser("divform", help="division-algebra form of a nontrivial-class datum")
    p.add_argument("datum")
    p.add_argument("--out", default=None)

    p = sub.add_parser("twisted-validate", help="check twisted-representation invariants")
    p.add_argument("twisted")
    p.add_argument("--to-drep", action="store_true")

    p = sub.add_parser("census", help="count geometrically stable orbits over finite fields")
    p.add_argument("--quiver", required=True)
    p.add_argument("--dims", required=True)
    p.add_argument("--theta", required=True)
    p.add_argument("--q", required=True)
    p.add_argument("--verify-descent", type=int, default=None)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "stability": cmd_stability,
        "hn": cmd_stability,
        "typemap": cmd_typemap,
        "descend": cmd_form,
        "divform": cmd_form,
        "twisted-validate": cmd_twisted_validate,
        "census": cmd_census,
    }
    try:
        code = handlers[args.command](args, _load_config(args))
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the reader has gone; send the interpreter's last flush to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except SchemaError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InconclusiveError as exc:
        print(f"inconclusive: {exc} (seed {exc.seed})", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except InvariantError as exc:
        print(f"internal invariant violated: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except NotDecidableError as exc:
        print(f"not decidable: {exc}", file=sys.stderr)
        return EXIT_NOT_DECIDABLE


if __name__ == "__main__":
    sys.exit(main())
