import random
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import pytest

from quivermoduli import Mat, Representation, a2_quiver, kronecker_quiver, stability
from quivermoduli.config import JobConfig
from quivermoduli.errors import BudgetExceededError, SchemaError
from quivermoduli.rings import QQ, QuadraticField, gaussian_rationals
from quivermoduli.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNKNOWN,
    UNSTABLE,
    geom_stability_certificate,
    reduce_mod_prime,
)

from helpers import gimat, qmat, quaternionic_kronecker_example, reference_certificate

CFG = JobConfig()
THETA = {"s": 1, "t": -1}


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
    w = Representation.zero_maps(kronecker_quiver(2), QQ, {"s": 1, "t": 1})
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

    w = Representation.zero_maps(kronecker_quiver(2), GF(2), {"s": 1, "t": 1})
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
    w = Representation.zero_maps(kronecker_quiver(2), QQ, {"s": 1, "t": 1})
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
