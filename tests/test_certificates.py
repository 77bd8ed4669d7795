import gc
import hashlib
import json
import random
import weakref
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from quivermoduli import (
    Mat,
    Representation,
    a2_quiver,
    hamilton_quaternions,
    kronecker_quiver,
    stability,
)
from quivermoduli.census import decompose_rational_point
from quivermoduli.config import JobConfig
from quivermoduli.errors import BudgetExceededError, SchemaError
from quivermoduli.galois import GaloisPair
from quivermoduli.morita import morita_split
from quivermoduli.quiver import base_change
from quivermoduli.rings import QQ, QuadraticField, gaussian_rationals
from quivermoduli.serialize import rep_to_json, verdict_to_json
from quivermoduli.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNKNOWN,
    UNSTABLE,
    geom_stability_certificate,
    reduce_mod_prime,
)

from helpers import (
    count_calls,
    gimat,
    qmat,
    quaternionic_kronecker_example,
    reference_certificate,
    zero_maps,
)

CFG = JobConfig()
THETA = {"s": 1, "t": -1}
PINNED = "c668f4395f8ddf58fb46c53e7aa21e566cca1dcba255107cf4f6d1b032e449ca"


def qq_rep(entries, dims=None):
    q = kronecker_quiver(len(entries))
    if dims is None:
        dims = {"s": 1, "t": 1}
        mats = {f"a{i+1}": qmat([[e]]) for i, e in enumerate(entries)}
    else:
        mats = {f"a{i+1}": m for i, m in enumerate(entries)}
    return Representation(q, QQ, dims, mats)


def test_kronecker_stable_certificate():
    w = qq_rep([1, 1])
    v = geom_stability_certificate(w, THETA, JobConfig(primes=(2,)))
    assert v.kind == STABLE
    assert v.detail["prime"] == 2


def test_zero_rep_unstable_exact_witness():
    w = zero_maps(kronecker_quiver(2), QQ, {"s": 1, "t": 1})
    v = geom_stability_certificate(w, THETA, CFG)
    assert v.kind == UNSTABLE
    assert v.witness.dims == {"s": 1, "t": 0}
    assert v.witness.is_closed_in(w)


def test_quaternionic_example_stable_via_prime_5():
    rep, pair, theta = quaternionic_kronecker_example()
    v = geom_stability_certificate(rep, theta, JobConfig(primes=(5,)))
    assert v.kind == STABLE
    assert v.detail["prime"] == 5


def test_reduction_map_skips_unusable_primes():
    Qi = gaussian_rationals()
    # p = 3 is 3 mod 4: unusable for Q(i)
    rep, pair, theta = quaternionic_kronecker_example()
    assert reduce_mod_prime(rep, 3) is None
    # denominators divisible by p are unusable over Q
    w = qq_rep([Fraction(1, 5), 1])
    assert reduce_mod_prime(w, 5) is None
    assert reduce_mod_prime(w, 7) is not None


def test_reduction_over_a_real_quadratic_field():
    # Q(sqrt 2) reduces at the odd p where 2 is a square, sqrt 2 going to
    # its least root: 3 mod 7, 6 mod 17; 2 is not a square mod 3 or 5
    q2 = QuadraticField(2)
    w = Representation(
        kronecker_quiver(2), q2, {"s": 1, "t": 1},
        {"a1": Mat(q2, ((q2.one,),)), "a2": Mat(q2, (((Fraction(1), Fraction(2)),),))},
    )
    for p in (2, 3, 5, 11, 13):
        assert reduce_mod_prime(w, p) is None
    for p, r in ((7, 3), (17, 6)):
        red = reduce_mod_prime(w, p)
        assert red.mats["a2"].rows == (((1 + 2 * r) % p,),)
    assert geom_stability_certificate(w, THETA, JobConfig(primes=(5, 7))).detail == {
        "certificate": "reduction", "prime": 7
    }


def test_reduced_fields_are_freed_when_the_certificate_returns(monkeypatch):
    # the subspace store on a field refers back to it weakly, so no reference
    # cycle keeps a reduced field alive: with the collector off, reference
    # counting frees each one once the certificate returns, after a Stable
    # reduction and after the exact hunt at every prime
    fields = []

    def reducing(rep, p):
        red = reduce_mod_prime(rep, p)
        if red is not None:
            fields.append(weakref.ref(red.ring))
        return red

    monkeypatch.setattr(stability, "reduce_mod_prime", reducing)
    ident = qmat([[1, 0], [0, 1]])
    semistable = Representation(kronecker_quiver(3), QQ, {"s": 2, "t": 2},
                                {"a1": ident, "a2": ident, "a3": ident})
    stable, _, theta = quaternionic_kronecker_example()
    gc.disable()
    try:
        kinds = [geom_stability_certificate(w, theta, CFG).kind for w in (stable, semistable)]
        assert kinds == [STABLE, STRICTLY_SEMISTABLE] and len(fields) > 2
        assert [ref() for ref in fields] == [None] * len(fields)
    finally:
        gc.enable()


def test_unknown_when_all_primes_unusable():
    w = qq_rep([Fraction(1, 5), 1])
    v = geom_stability_certificate(w, THETA, JobConfig(primes=(5,)))
    assert v.kind == UNKNOWN


def test_equal_slope_witness_reports_strictly_semistable():
    # three copies of the identity: every line pair (v, v) is an exact
    # equal-slope subrepresentation
    q = kronecker_quiver(3)
    ident = qmat([[1, 0], [0, 1]])
    w = Representation(
        q, QQ, {"s": 2, "t": 2}, {"a1": ident, "a2": ident, "a3": ident}
    )
    v = geom_stability_certificate(w, THETA, CFG)
    assert v.kind == STRICTLY_SEMISTABLE
    assert v.witness.slope(THETA) == w.slope(THETA)
    assert v.witness.is_closed_in(w)


def test_dimension_count_shortcut():
    # single vertex of dimension 1: no proper nonzero subrepresentation
    from quivermoduli import jordan_quiver

    w = Representation(jordan_quiver(), QQ, {"v": 1}, {"loop": qmat([[7]])})
    v = geom_stability_certificate(w, {"v": 0}, CFG)
    assert v.kind == STABLE
    assert v.detail.get("certificate") == "dimension-count"


def test_certificate_rejects_finite_fields():
    from quivermoduli import GF

    w = zero_maps(kronecker_quiver(2), GF(2), {"s": 1, "t": 1})
    with pytest.raises(SchemaError):
        geom_stability_certificate(w, THETA, CFG)


def test_unstable_over_gaussian_rationals():
    Qi = gaussian_rationals()
    q = kronecker_quiver(2)
    w = Representation(
        q, Qi, {"s": 1, "t": 1},
        {"a1": gimat([[0]]), "a2": gimat([[0]])},
    )
    v = geom_stability_certificate(w, THETA, CFG)
    assert v.kind == UNSTABLE
    assert v.witness.dims == {"s": 1, "t": 0}


# ---------------------------------------------------------------------------
# the two-pass certificate against the one-loop reference

GRID_QUIVERS = (kronecker_quiver(2), kronecker_quiver(3), a2_quiver())
GRID_THETAS = ({"s": 1, "t": -1}, {"s": 2, "t": -1}, {"s": 1, "t": -2}, {"s": 1, "t": 0})
GRID_PRIMES = (2, 3, 5, 7, 13, 17)
GRID_BUDGETS = (60, 300, 10**6)


def _grid_scalar(rng):
    return Fraction(rng.choice((-2, -1, 0, 0, 1, 1, 2)), rng.choice((1, 1, 1, 1, 3, 5)))


def _grid_entry(ring, rng):
    if ring == QQ:
        return _grid_scalar(rng)
    return (_grid_scalar(rng), _grid_scalar(rng) if rng.random() < 0.5 else Fraction(0))


def _grid_unimodular(ring, n, rng):
    """The identity with up to two rows added to others."""
    rows = [[ring.one if i == j else ring.zero for j in range(n)] for i in range(n)]
    for _ in range(2 if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        rows[i] = [ring.add(x, y) for x, y in zip(rows[i], rows[j])]
    return Mat(ring, tuple(map(tuple, rows)), (n, n))


def _grid_case(rng):
    """A small rep over Q or Q(i), half of them with a forced subrep moved
    by a change of basis, with theta, a budget and a shuffled prime list."""
    quiver = rng.choice(GRID_QUIVERS)
    ring = rng.choice((QQ, gaussian_rationals()))
    dims = {"s": rng.randint(1, 3), "t": rng.randint(1, 3)}
    forced = {v: rng.randint(0, d) for v, d in dims.items()} if rng.random() < 0.5 else None
    mats = {}
    for a in quiver.arrows:
        rows = tuple(
            tuple(
                ring.zero
                if forced and i >= forced[a.dst] and j < forced[a.src]
                else _grid_entry(ring, rng)
                for j in range(dims[a.src])
            )
            for i in range(dims[a.dst])
        )
        mats[a.name] = Mat(ring, rows, (dims[a.dst], dims[a.src]))
    rep = Representation(quiver, ring, dims, mats)
    if forced:
        rep = rep.act({v: _grid_unimodular(ring, d, rng) for v, d in dims.items()})
    config = JobConfig(max_subspace_checks=rng.choice(GRID_BUDGETS))
    return rep, rng.choice(GRID_THETAS), config, rng.sample(GRID_PRIMES, rng.randint(1, 4))


def _outcome(certificate, rep, theta, config, primes):
    """(kind, detail, witness bases), or the message of a budget error."""
    try:
        v = certificate(rep, theta, replace(config, primes=tuple(primes)))
    except BudgetExceededError as exc:
        return "budget", str(exc)
    bases = None
    if v.witness is not None:
        bases = (v.witness.dims, sorted((u, m.rows) for u, m in v.witness.bases.items()))
    return v.kind, v.detail, bases


def test_certificate_matches_one_loop_reference():
    rng = random.Random(3)
    seen = Counter()
    for _ in range(150):
        rep, theta, config, primes = _grid_case(rng)
        got = _outcome(geom_stability_certificate, rep, theta, config, primes)
        assert got == _outcome(reference_certificate, rep, theta, config, primes)
        seen[got[0]] += 1
        if got[0] == STABLE and "prime" in got[1]:
            first = next(p for p in primes if reduce_mod_prime(rep, p) is not None)
            seen["stable at a later prime"] += got[1]["prime"] != first
    # the grid reaches every outcome, budget errors included
    reached = (STABLE, "stable at a later prime", UNSTABLE, STRICTLY_SEMISTABLE, UNKNOWN, "budget")
    assert all(seen[kind] for kind in reached), seen


def _gaussian_kronecker():
    """(I, J) on Q^2 -> Q^2 with J^2 = -I: stable over Q, End = Q(i), and
    strictly semistable mod every p = 1 mod 4, with no exact witness."""
    return qq_rep([qmat([[1, 0], [0, 1]]), qmat([[0, -1], [1, 0]])], {"s": 2, "t": 2})


def _over_budget_at(p_bad, monkeypatch):
    verdict = stability.stability_verdict

    def patched(red, theta, config):
        if red.ring.p == p_bad:
            raise BudgetExceededError(f"over budget at {p_bad}")
        return verdict(red, theta, config)

    monkeypatch.setattr(stability, "stability_verdict", patched)


def test_budget_error_at_second_prime_after_unstable_hunt(monkeypatch):
    _over_budget_at(13, monkeypatch)
    w = zero_maps(kronecker_quiver(2), QQ, {"s": 1, "t": 1})
    v = geom_stability_certificate(w, THETA, JobConfig(primes=(5, 13)))
    assert v.kind == UNSTABLE and v.detail["prime"] == 5
    assert v.witness.dims == {"s": 1, "t": 0}
    assert reference_certificate(w, THETA, JobConfig(primes=(5, 13))).kind == UNSTABLE


@pytest.mark.parametrize(
    "rep",
    [
        _gaussian_kronecker(),
        # three identities: the first prime's hunt finds only an equal-slope witness
        qq_rep([qmat([[1, 0], [0, 1]])] * 3, {"s": 2, "t": 2}),
    ],
    ids=["unknown", "strictly-semistable"],
)
def test_budget_error_at_second_prime_raises(rep, monkeypatch):
    _over_budget_at(13, monkeypatch)
    for certificate in (geom_stability_certificate, reference_certificate):
        with pytest.raises(BudgetExceededError, match="over budget at 13"):
            certificate(rep, THETA, JobConfig(primes=(5, 13, 17)))


def test_prime_independent_seeds_closed_once(monkeypatch):
    rep = _gaussian_kronecker()
    calls = Counter()
    nullspace = Mat.nullspace

    def counted(self):
        calls[self.ring] += 1
        return nullspace(self)

    monkeypatch.setattr(Mat, "nullspace", counted)
    v = geom_stability_certificate(rep, THETA, CFG)
    assert v.kind == UNKNOWN
    assert v.detail["tried"] == [(p, STRICTLY_SEMISTABLE) for p in (5, 13, 17, 29)]
    assert calls == {QQ: 2}  # once per arrow, not once per arrow per prime
    calls.clear()
    reference_certificate(rep, THETA, CFG)
    assert calls == {QQ: 8}


def test_certificate_closes_each_seed_once(monkeypatch):
    # one seen set per certificate, so no seed is closed twice: here the
    # images of both arrows are the vertex space at t, one seed and one
    # closure (16 closures when every seed was closed)
    rep = _gaussian_kronecker()
    closures = count_calls(monkeypatch, stability._forward_closure)
    v = geom_stability_certificate(rep, THETA, CFG)
    assert v.kind == UNKNOWN
    assert len(closures) == 14


# ---------------------------------------------------------------------------
# the certificate memo on the representation


def test_decomposition_after_certificate_reduces_nothing(monkeypatch):
    rep, pair, theta = quaternionic_kronecker_example()
    v = geom_stability_certificate(rep, theta, CFG)
    reductions = count_calls(monkeypatch, reduce_mod_prime)
    verdicts = count_calls(monkeypatch, stability.stability_verdict)
    record = decompose_rational_point(rep, pair, theta, CFG)
    assert record.index == 2
    assert reductions == [] and verdicts == []
    assert geom_stability_certificate(rep, theta, CFG) is v
    # a fresh rep pays for its own certificate inside the type map
    fresh, _, _ = quaternionic_kronecker_example()
    decompose_rational_point(fresh, pair, theta, CFG)
    assert reductions and verdicts


def test_certificate_memo_key(monkeypatch):
    rep = _gaussian_kronecker()
    bodies = count_calls(monkeypatch, stability._certificate)
    geom_stability_certificate(rep, THETA, CFG)
    geom_stability_certificate(rep, {"t": -1, "s": 1}, CFG)
    # seed, iso_trials, h90_retries and output_format do not touch the certificate
    geom_stability_certificate(
        rep, THETA, replace(CFG, seed=7, iso_trials=3, h90_retries=2, output_format="json")
    )
    assert len(bodies) == 1
    geom_stability_certificate(rep, THETA, replace(CFG, primes=(5, 13)))
    assert len(bodies) == 2
    geom_stability_certificate(rep, THETA, replace(CFG, max_subspace_checks=10**5))
    assert len(bodies) == 3
    geom_stability_certificate(rep, {"s": 2, "t": -2}, CFG)
    assert len(bodies) == 4


def test_equal_reps_built_apart_share_no_certificate(monkeypatch):
    a, b = _gaussian_kronecker(), _gaussian_kronecker()
    assert a == b and hash(a) == hash(b)
    bodies = count_calls(monkeypatch, stability._certificate)
    geom_stability_certificate(a, THETA, CFG)
    geom_stability_certificate(b, THETA, CFG)
    assert len(bodies) == 2
    # nor does a rep made from another's read-only dims and mats
    geom_stability_certificate(Representation(a.quiver, a.ring, a.dims, a.mats), THETA, CFG)
    assert len(bodies) == 3


def test_over_budget_certificate_raises_on_every_call(monkeypatch):
    rep = _gaussian_kronecker()
    bodies = count_calls(monkeypatch, stability._certificate)
    tight = JobConfig(max_subspace_checks=1)
    for _ in range(2):
        with pytest.raises(BudgetExceededError):
            geom_stability_certificate(rep, THETA, tight)
    assert len(bodies) == 2
    assert geom_stability_certificate(rep, THETA, CFG).kind == UNKNOWN


def test_memoized_certificate_equals_a_fresh_one():
    rng = random.Random(11)
    for _ in range(60):
        rep, theta, config, primes = _grid_case(rng)
        first = _outcome(geom_stability_certificate, rep, theta, config, primes)
        again = _outcome(geom_stability_certificate, rep, theta, config, primes)
        twin = Representation(rep.quiver, rep.ring, rep.dims, rep.mats)
        assert first == again == _outcome(geom_stability_certificate, twin, theta, config, primes)


# ---------------------------------------------------------------------------
# pinned answers: certificates and Brauer decompositions over Q(i)


def _quaternionic_point(rng, pair):
    """morita_split of a 3-Kronecker (1,1) rep over (-1,-1)_Q with small
    integral entries, moved by units of D."""
    H = hamilton_quaternions()
    k3 = kronecker_quiver(3)

    def quaternion():
        while True:
            x = tuple(Fraction(rng.randint(-2, 2)) for _ in range(4))
            if any(x):
                return x

    drep = Representation(
        k3, H, {"s": 1, "t": 1}, {a.name: Mat(H, ((quaternion(),),), (1, 1)) for a in k3.arrows}
    )
    units = [H.one, H.i, H.j, H.k]
    drep = drep.act({v: Mat(H, ((rng.choice(units),),), (1, 1)) for v in ("s", "t")})
    return morita_split(drep, pair)


def _rational_point(rng, pair, forced=False):
    """A random 3-Kronecker (2,2) rep over Q, base changed to Q(i) and moved
    by a unimodular change of basis; forced, every arrow kills the first
    basis vector at s, a destabilizing subrepresentation."""
    k3, qi = kronecker_quiver(3), pair.ext

    def entry(i, j):
        return Fraction(0 if forced and j == 0 else rng.randint(-3, 3))

    mats = {
        a.name: Mat(QQ, tuple(tuple(entry(i, j) for j in range(2)) for i in range(2)), (2, 2))
        for a in k3.arrows
    }
    w = base_change(Representation(k3, QQ, {"s": 2, "t": 2}, mats), pair)
    units = [qi.one, qi.neg(qi.one), qi.sqrt_gen, qi.neg(qi.sqrt_gen)]
    o, z = qi.one, qi.zero
    g = {
        v: Mat(qi, ((o, rng.choice(units)), (z, o))) @ Mat(qi, ((o, z), (rng.choice(units), o)))
        for v in ("s", "t")
    }
    return w.act(g)


def test_certificates_and_decompositions_pinned():
    # the digest was taken before certificates were kept on the rep
    pair = GaloisPair.gaussian()
    rng = random.Random(20170425)
    config = JobConfig(seed=1, h90_retries=4)
    lines = []
    for n in range(24):
        if n % 2:
            rep = _quaternionic_point(rng, pair)
        else:
            rep = _rational_point(rng, pair, forced=n % 6 == 0)
        cert = geom_stability_certificate(rep, THETA, config)
        lines.append(json.dumps(verdict_to_json(cert), sort_keys=True))
        if cert.kind != STABLE:
            continue
        record = decompose_rational_point(rep, pair, THETA, config)
        form = record.d_form if record.k_form is None else record.k_form
        lines.append(json.dumps(
            [record.brauer.describe(), record.index, rep_to_json(form)], sort_keys=True
        ))
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == PINNED
