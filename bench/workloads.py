"""The benchmark's workloads: seeded inputs, the timed program calls for
one item, and an independent oracle for each answer.

A workload builds its whole input set during set-up.  `run(item)` makes
only program calls and returns what they returned; `check(item, out)`
runs afterwards, outside the timed region, and returns None or a reason
the answer is wrong.  An exception from `run` is an operation that failed.

Library modules are always reached through their module objects
(`census.verify_descent_census`, not a name bound at import), so the
traced run's wrappers see every call.
"""

import contextlib
import io
import json
import os
import random
from fractions import Fraction

from quivermoduli import (
    census,
    cli,
    galois,
    homs,
    linalg,
    morita,
    quaternions,
    quiver,
    rings,
    serialize,
    stability,
)
from quivermoduli.config import JobConfig
from quivermoduli.ffields import GF

THETA_ST = {"s": 1, "t": -1}
GAUSSIAN = {"type": "quadratic", "m": -1}


# ---------------------------------------------------------------------------
# independent counting oracles


def mobius(n):
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


def monic_irreducible_count(d, q):
    """Gauss: (1/d) sum_{k | d} mu(d/k) q^k."""
    return sum(mobius(d // k) * q**k for k in range(1, d + 1) if d % k == 0) // d


def census_expectation(kind, dims, q):
    """(geom_stable, stable_not_schur) orbit counts over F_q."""
    if kind == "kronecker2" and dims == {"s": 1, "t": 1}:
        return q + 1, 0  # points of P^1
    if kind == "kronecker3" and dims == {"s": 1, "t": 1}:
        return q * q + q + 1, 0  # points of P^2
    if kind == "kronecker2" and dims == {"s": 2, "t": 2}:
        return 0, (q * q - q) // 2  # degree-2 points of P^1
    if kind == "jordan":
        return 0, monic_irreducible_count(dims["v"], q)
    if kind == "a2":
        return 0, 0
    raise KeyError((kind, dims))


# ---------------------------------------------------------------------------
# census workloads


QUIVERS = {
    "kronecker2": lambda: quiver.kronecker_quiver(2),
    "kronecker3": lambda: quiver.kronecker_quiver(3),
    "jordan": quiver.jordan_quiver,
    "a2": quiver.a2_quiver,
}


class CensusWorkload:
    """verify_descent_census over F_{q^2}/F_q on fixed configurations."""

    def __init__(self, configs):
        self.configs = configs
        self._captured = []

    def build(self, seed):
        self.config = JobConfig(seed=seed)
        items = []
        for kind, dims, q in self.configs:
            theta = {"v": 0} if kind == "jordan" else dict(THETA_ST)
            items.append((kind, QUIVERS[kind](), dims, theta, q))
        random.Random(seed).shuffle(items)
        # The census objects behind the report carry the category counts
        # the oracle checks; keep what the public call builds.
        original = census.stable_orbit_census

        def capture(*args, **kwargs):
            result = original(*args, **kwargs)
            self._captured.append(result)
            return result

        census.stable_orbit_census = capture
        return items

    @staticmethod
    def describe(item):
        kind, qv, dims, theta, q = item
        return f"{kind} d={tuple(dims.values())} over F_{q * q} and F_{q}"

    def run(self, item):
        kind, qv, dims, theta, q = item
        self._captured.clear()
        report = census.verify_descent_census(qv, dims, theta, q, 2, self.config)
        return report, list(self._captured)

    def check(self, item, out):
        kind, qv, dims, theta, q = item
        report, censuses = out
        if not report.ok:
            return f"violations {report.violations}"
        by_size = {c.field.size: c for c in censuses}
        for size in (q * q, q):
            want = census_expectation(kind, dims, size)
            c = by_size.get(size)
            if c is None:
                return f"no census over F_{size}"
            got = (c.counts[census.GEOM_STABLE], c.counts[census.STABLE_NOT_SCHUR])
            if got != want:
                return f"F_{size} counts {got}, oracle {want}"
        base_geom = census_expectation(kind, dims, q)[0]
        if report.fixed_orbit_count != base_geom or report.base_count != base_geom:
            return (
                f"fixed orbits {report.fixed_orbit_count}, base {report.base_count}, "
                f"oracle {base_geom}"
            )
        if kind == "a2" and any(
            isinstance(c, census.OrbitCensus) and c.uf.parent for c in censuses
        ):
            return "A2 (2,2) has stable points"
        return None


# ---------------------------------------------------------------------------
# stability queries over F_q


STABILITY_SHAPES = [
    ("kronecker2", {"s": 1, "t": 2}),
    ("kronecker2", {"s": 2, "t": 1}),
    ("kronecker2", {"s": 2, "t": 2}),
    ("kronecker2", {"s": 2, "t": 3}),
    ("kronecker2", {"s": 3, "t": 2}),
    ("kronecker2", {"s": 3, "t": 3}),
    ("kronecker3", {"s": 1, "t": 2}),
    ("kronecker3", {"s": 2, "t": 2}),
    ("kronecker3", {"s": 2, "t": 3}),
    ("kronecker3", {"s": 3, "t": 3}),
    ("a2", {"s": 3, "t": 3}),
    ("jordan", {"v": 3}),
]
# Every (shape, q) cell gets the same number of items, half of them with a
# forced subrepresentation, so the work per run does not depend on which
# shapes a seed happens to draw.  Kronecker-3 (3,3) over F_5 is left out:
# its items take 60-260 ms each, and eight of them would outweigh the rest.
STABILITY_CELLS = [
    (kind, dims, q)
    for kind, dims in STABILITY_SHAPES
    for q in (3, 4, 5)
    if not (kind == "kronecker3" and dims == {"s": 3, "t": 3} and q == 5)
]
STABILITY_PER_CELL = 8
# As in arith_pipeline, the isomorphism classes are fixed and the seed moves
# each by a random base change: the cost of a verdict depends mostly on the
# class (stable or not, HN type), and fresh classes per seed moved
# latency_p90_s by 50% between seeds.
STABILITY_CLASSES_SEED = 1994


def _random_invertible(ring, n, entry):
    """A random invertible n x n matrix with entries drawn by entry()."""
    while True:
        m = linalg.Mat(ring, tuple(tuple(entry() for _ in range(n)) for _ in range(n)), (n, n))
        if m.is_invertible():
            return m


def _slope(e, theta):
    total = sum(e.values())
    return Fraction(sum(theta[v] * e[v] for v in e), total)


class StabilityWorkload:
    """Verdict, HN filtration, its re-verification and End dimension."""

    def build(self, seed):
        self.config = JobConfig(seed=seed)
        classes = random.Random(STABILITY_CLASSES_SEED)
        rng = random.Random(seed)
        fields = {q: GF(q) for q in (3, 4, 5)}
        items = []
        for kind, dims, q in STABILITY_CELLS:
            qv = QUIVERS[kind]()
            theta = {"v": 0} if kind == "jordan" else dict(THETA_ST)
            for n in range(STABILITY_PER_CELL):
                forced = None
                if n % 2:
                    while True:
                        forced = {v: classes.randint(0, d) for v, d in dims.items()}
                        if 0 < sum(forced.values()) < sum(dims.values()):
                            break
                rep = self._rep(qv, fields[q], dims, forced, classes)
                g = {v: _random_invertible(fields[q], d, lambda: rng.randrange(q))
                     for v, d in dims.items()}
                items.append((rep.act(g), theta, forced))
        rng.shuffle(items)
        return items

    @staticmethod
    def _rep(qv, field, dims, forced, rng):
        """Random rep; with `forced`, one in which the span of the first
        forced[v] basis vectors is a subrepresentation."""
        mats = {}
        for a in qv.arrows:
            rows = []
            for i in range(dims[a.dst]):
                row = []
                for j in range(dims[a.src]):
                    inside = forced is not None and j < forced[a.src] and i >= forced[a.dst]
                    row.append(0 if inside else rng.randrange(field.size))
                rows.append(tuple(row))
            mats[a.name] = linalg.Mat(field, tuple(rows), (dims[a.dst], dims[a.src]))
        return quiver.Representation(qv, field, dims, mats)

    def run(self, item):
        rep, theta, forced = item
        cfg = self.config
        verdict = stability.stability_verdict(rep, theta, cfg)
        hn = stability.hn_filtration(rep, theta, cfg)
        verified = stability.verify_hn(rep, theta, hn, cfg)
        return verdict, hn, verified, homs.end_dim(rep)

    def check(self, item, out):
        rep, theta, forced = item
        verdict, hn, verified, end = out
        mu = _slope(rep.dims, theta)
        if not verified:
            return "verify_hn rejects the filtration"
        if (verdict.kind == stability.UNSTABLE) != (hn.length() > 1):
            return f"verdict {verdict.kind} with HN length {hn.length()}"
        if forced is not None and _slope(forced, theta) > mu and verdict.kind != stability.UNSTABLE:
            return f"forced sub of slope > mu but verdict {verdict.kind}"
        if hn.slopes[0] < mu or (hn.length() > 1 and hn.slopes[0] == mu):
            return f"HN top slope {hn.slopes[0]} against mu {mu}"
        if end < 1:
            return f"End dimension {end}"
        return None


# ---------------------------------------------------------------------------
# arithmetic pipeline over Q(i) and (-1,-1)_Q


ARITH_HAMILTON = 12
ARITH_QUATERNIONIC = 52
ARITH_TRIVIAL = 52
# Over Q(i) every Hilbert-90 retry after the first draws another rational
# resolvent, which cannot help (defect (a) in notes.json), so retries only
# scale the cost of each failure.  At the default 48 one failure costs about
# ten successful items, and the seed-dependent number of failures moves run_s
# by about 12% between seeds; 4 leaves room for a fix that needs a retry.
ARITH_H90_RETRIES = 4
ARITH_CLASSES_SEED = 20170425


def _nonzero_quaternion(rng):
    while True:
        x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
        if any(x):
            return x


def _unimodular(ring, entry):
    """[[1, a], [0, 1]] @ [[1, 0], [b, 1]] for random a, b."""
    a, b = entry(), entry()
    o, z = ring.one, ring.zero
    return linalg.Mat(ring, ((o, a), (z, o))) @ linalg.Mat(ring, ((o, z), (b, o)))


def _quiet_cli(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, buf.getvalue()


class ArithWorkload:
    """Q(i)/quaternion items: the Hamilton example through the CLI,
    quaternionic 3-Kronecker (1,1) reps and moved rational (2,2) reps."""

    def __init__(self, workdir):
        self.workdir = workdir

    def build(self, seed):
        self.config = JobConfig(seed=seed, h90_retries=ARITH_H90_RETRIES)
        rng = random.Random(seed)
        self.pair = galois.GaloisPair.gaussian()
        self.H = quaternions.hamilton_quaternions()
        self.k3 = quiver.kronecker_quiver(3)
        qi = self.pair.ext
        # The Hamilton example (I, diag(i,-i), J) over Q(i), as a file.
        z, o, i = qi.zero, qi.one, qi.sqrt_gen
        mats = {
            "a1": linalg.Mat(qi, ((o, z), (z, o))),
            "a2": linalg.Mat(qi, ((i, z), (z, qi.neg(i)))),
            "a3": linalg.Mat(qi, ((z, qi.neg(o)), (o, z))),
        }
        hamilton = quiver.Representation(self.k3, qi, {"s": 2, "t": 2}, mats)
        self.hamilton_json = serialize.rep_to_json(hamilton)
        self.hamilton_path = os.path.join(self.workdir, "hamilton.json")
        with open(self.hamilton_path, "w") as fh:
            json.dump(self.hamilton_json, fh)
        # The isomorphism classes come from a fixed list and the seed moves
        # each by a random change of basis.  Which prime certifies an item,
        # and so most of its cost, is a property of its class: drawing fresh
        # classes per seed moved run_s by 12% between seeds, while moved
        # fixed classes still make every matrix and answer seed-specific.
        classes = random.Random(ARITH_CLASSES_SEED)
        quaternionic = [self._quaternionic(classes) for _ in range(ARITH_QUATERNIONIC)]
        rational = [self._rational(classes) for _ in range(ARITH_TRIVIAL)]
        items = [("hamilton", None)] * ARITH_HAMILTON
        items += [("quaternionic", self._move_quaternionic(d, rng)) for d in quaternionic]
        items += [("trivial", self._move_rational(w, rng)) for w in rational]
        rng.shuffle(items)
        return [(kind, n, data) for n, (kind, data) in enumerate(items)]

    def _quaternionic(self, rng):
        """A 3-Kronecker (1,1) rep over (-1,-1)_Q with small integral entries."""
        H = self.H
        mats = {a.name: linalg.Mat(H, ((_nonzero_quaternion(rng),),), (1, 1))
                for a in self.k3.arrows}
        return quiver.Representation(self.k3, H, {"s": 1, "t": 1}, mats)

    def _move_quaternionic(self, drep, rng):
        """x . drep for units x_s, x_t in {+-1, +-i, +-j, +-k} of D."""
        H = self.H
        units = [H.one, H.i, H.j, H.k]
        x = {}
        for v in ("s", "t"):
            u = rng.choice(units)
            x[v] = linalg.Mat(H, ((u if rng.random() < 0.5 else H.neg(u),),), (1, 1))
        return drep.act(x)

    def _rational(self, rng):
        QQ = rings.QQ
        mats = {
            a.name: linalg.Mat(
                QQ,
                tuple(tuple(Fraction(rng.randint(-3, 3)) for _ in range(2)) for _ in range(2)),
                (2, 2),
            )
            for a in self.k3.arrows
        }
        return quiver.Representation(self.k3, QQ, {"s": 2, "t": 2}, mats)

    def _move_rational(self, w, rng):
        """(h . W, g . h . W) for h in SL_2(Z) and g in SL_2(Z[i]), each a
        product of two elementary matrices whose off-diagonal entries are
        units.  The moves change which matrices an item sees without
        changing how large its numbers get."""
        QQ, qi = rings.QQ, self.pair.ext
        signs = [QQ.one, QQ.neg(QQ.one)]
        units = [qi.one, qi.neg(qi.one), qi.sqrt_gen, qi.neg(qi.sqrt_gen)]
        h = {v: _unimodular(QQ, lambda: rng.choice(signs)) for v in ("s", "t")}
        source = w.act(h)
        g = {v: _unimodular(qi, lambda: rng.choice(units)) for v in ("s", "t")}
        return source, quiver.base_change(source, self.pair).act(g)

    def run(self, item):
        kind, n, data = item
        cfg, pair = self.config, self.pair
        if kind == "hamilton":
            return self._run_hamilton(n)
        if kind == "quaternionic":
            rep = morita.morita_split(data, pair)
        else:
            rep = data[1]
        cert = stability.geom_stability_certificate(rep, THETA_ST, cfg)
        if cert.kind != stability.STABLE:
            return rep, cert, None, None
        record = census.decompose_rational_point(rep, pair, THETA_ST, cfg)
        # What a user checks next: End of the D-form, or whether the Q-form
        # is isomorphic to the rational rep the item was made from.
        if kind == "quaternionic":
            return rep, cert, record, homs.end_dim(record.d_form)
        return rep, cert, record, homs.is_isomorphic(record.k_form, data[0], cfg)

    def _run_hamilton(self, n):
        form_path = os.path.join(self.workdir, f"form{n}.json")
        datum_path = os.path.join(self.workdir, f"datum{n}.json")
        code, out = _quiet_cli([
            "--format", "json", "typemap", self.hamilton_path,
            "--pair", json.dumps(GAUSSIAN), "--theta", json.dumps(THETA_ST),
            "--descend", form_path,
        ])
        if code:
            raise RuntimeError(f"typemap exited {code}")
        typemap = json.loads(out)
        with open(datum_path, "w") as fh:
            json.dump(
                {
                    "rep": self.hamilton_json,
                    "u": typemap["u"],
                    "lambda": typemap["lambda"],
                    "pair": GAUSSIAN,
                },
                fh,
            )
        code, out = _quiet_cli(["--format", "json", "divform", datum_path])
        if code:
            raise RuntimeError(f"divform exited {code}")
        with open(form_path) as fh:
            descended = json.load(fh)
        return typemap, descended, json.loads(out)

    def check(self, item, out):
        kind, n, data = item
        if kind == "hamilton":
            return self._check_hamilton(*out)
        rep, cert, record, follow_up = out
        if cert.kind == stability.UNKNOWN:
            return None  # an honest Unknown certificate is a valid answer
        if cert.kind != stability.STABLE:
            w = cert.witness
            mu = rep.slope(THETA_ST)
            if w is None or not w.is_closed_in(rep) or w.slope(THETA_ST) < mu:
                return f"{cert.kind} verdict without a valid witness"
            return None
        if kind == "quaternionic":
            if record.brauer.is_trivial or record.index != 2 or record.d_form is None:
                return "quaternionic item without a nontrivial index-2 class"
            alg = record.brauer.quaternion_algebra()
            if record.d_form.ring != alg or (alg.a, alg.b) != (-1, -1):
                return f"D-form over {record.d_form.ring}, class ({alg.a},{alg.b})_Q"
            if follow_up != 1:
                return f"End of the D-form has dimension {follow_up} over Q"
            split = morita.morita_split(record.d_form, self.pair)
            if homs.is_isomorphic(split, rep, self.config) is None:
                return "morita_split(d_form) is not isomorphic to the rep"
            return None
        if not record.brauer.is_trivial or record.k_form is None:
            return "moved rational item without a trivial class and a Q-form"
        if record.k_form.ring != rings.QQ:
            return "descended form is not over Q"
        if follow_up is None:
            return "descended Q-form is not isomorphic to the source rep"
        return None

    def _check_hamilton(self, typemap, descended, divform):
        H = self.H
        want = [(H.one,), (H.i,), (H.j,)]
        if typemap.get("lambda") != "-1" or typemap.get("index") != 2:
            return f"typemap lambda {typemap.get('lambda')} index {typemap.get('index')}"
        if "(-1,-1)_Q" not in typemap.get("brauer_class", ""):
            return f"class {typemap.get('brauer_class')}"
        for form in (descended["form"], divform["form"]):
            drep = serialize.rep_from_json(form)
            got = [drep.mats[a].rows[0] for a in ("a1", "a2", "a3")]
            if drep.ring != H or got != want:
                return f"D-form {got}"
        return None


def make(name, workdir):
    if name == "census_orbits":
        return CensusWorkload(
            [
                ("kronecker2", {"s": 2, "t": 2}, 2),
                ("kronecker3", {"s": 1, "t": 1}, 5),
                ("kronecker2", {"s": 1, "t": 1}, 7),
            ]
        )
    if name == "census_closure":
        return CensusWorkload(
            [
                ("jordan", {"v": 4}, 2),
                ("jordan", {"v": 3}, 3),
                ("a2", {"s": 2, "t": 2}, 3),
            ]
        )
    if name == "stability_queries":
        return StabilityWorkload()
    if name == "arith_pipeline":
        return ArithWorkload(workdir)
    raise KeyError(name)
