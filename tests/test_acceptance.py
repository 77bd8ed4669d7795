"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance
(everything here is exact arithmetic, so tolerances are equalities and
counts) and prints a PASS line with the measured runtime.  Budgets on
runtime are asserted as stated.
"""

import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import isqrt

from quivermoduli import (
    GF,
    GaloisPair,
    Mat,
    Representation,
    a2_quiver,
    brauer_class,
    count_geom_stable_orbits,
    hamilton_quaternions,
    is_isomorphic,
    jordan_quiver,
    kronecker_quiver,
)
from quivermoduli.census import (
    GEOM_STABLE,
    STABLE_NOT_SCHUR,
    ClassificationRecord,
    decompose_rational_point,
    index_divisibility_audit,
    orbit_census,
    verify_descent_census,
)
from quivermoduli.config import JobConfig
from quivermoduli.descent import solve_modifying_u
from quivermoduli.homs import end_dim
from quivermoduli.morita import division_form, drep_to_twisted, morita_split
from quivermoduli.numtheory import hilbert_symbol, relevant_places
from quivermoduli.quiver import base_change
from quivermoduli.stability import (
    STABLE,
    geom_stability_certificate,
    hn_filtration,
    stability_verdict,
    verify_hn,
)

from helpers import (
    all_orbit_representatives,
    base_change_witness,
    gimat,
    quaternionic_kronecker_example,
)

CFG = JobConfig(seed=2024)
THETA = {"s": 1, "t": -1}
K2 = kronecker_quiver(2)


def report(criterion, detail, t0, budget):
    elapsed = time.monotonic() - t0
    print(f"PASS criterion {criterion}: {detail} [{elapsed:.2f}s / {budget}s budget]")
    assert elapsed < budget, f"criterion {criterion} exceeded its {budget}s budget"


def test_criterion_1_kronecker_census():
    t0 = time.monotonic()
    for q in (2, 3, 5):
        got = count_geom_stable_orbits(K2, {"s": 1, "t": 1}, THETA, q, CFG)
        assert got == q + 1, (q, got)
    report(1, "Kronecker counts q+1 for q in {2,3,5}", t0, 5)


def test_criterion_2_schur_separation():
    t0 = time.monotonic()
    quiver = jordan_quiver()
    cen = orbit_census(quiver, {"v": 2}, {"v": 0}, GF(2), CFG)
    assert cen.counts[GEOM_STABLE] == 0
    assert cen.counts[STABLE_NOT_SCHUR] == 1
    # the one class is the companion of x^2 + x + 1, with End = F_4
    companion = Representation(
        quiver, GF(2), {"v": 2}, {"loop": Mat(GF(2), ((0, 1), (1, 1)))}
    )
    assert stability_verdict(companion, {"v": 0}, CFG).kind == STABLE
    assert end_dim(companion) == 2
    rep_point = next(
        r for r in cen.representatives
        if cen.orbit_category[cen.uf.find(r)] == STABLE_NOT_SCHUR
    )
    rep = Representation(
        quiver, GF(2), {"v": 2},
        {"loop": Mat(GF(2), rep_point[0], (2, 2))},
    )
    assert is_isomorphic(rep, companion, CFG) is not None
    report(2, "Jordan/F_2 d=2: one stable-not-geometric orbit, zero geometric", t0, 10)


def test_criterion_3_descent_census():
    t0 = time.monotonic()
    configs = []
    for d1, d2 in product(range(5), range(5)):
        if 0 < d1 + d2 <= 4:
            configs.append((K2, {"s": d1, "t": d2}, THETA))
            configs.append((a2_quiver(), {"s": d1, "t": d2}, THETA))
    for d in range(1, 5):
        configs.append((jordan_quiver(), {"v": d}, {"v": 0}))
    total_fixed = 0
    for quiver, dims, theta in configs:
        r = verify_descent_census(quiver, dims, theta, 2, 2, CFG)
        assert r.ok, (dims, r.violations)
        assert r.fixed_orbit_count == r.base_count
        total_fixed += r.fixed_orbit_count
    report(
        3,
        f"{len(configs)} configurations, {total_fixed} fixed orbits, all descend",
        t0,
        60,
    )


def test_criterion_4_quaternionic_pipeline():
    t0 = time.monotonic()
    rep, pair, theta = quaternionic_kronecker_example()
    cert = geom_stability_certificate(rep, theta, replace(CFG, primes=(5,)))
    assert cert.kind == STABLE and cert.detail["prime"] == 5

    datum = solve_modifying_u(rep, pair, theta, CFG)
    assert datum is not None
    assert datum.lam == Fraction(-1)
    # u is (J, J) up to one scalar (the modifying element of a Schur orbit
    # is unique up to L^x)
    J = gimat([[0, -1], [1, 0]])
    for v in ("s", "t"):
        c = datum.u[v].entry(1, 0)
        assert c != pair.ext.zero
        assert datum.u[v] == J.scale(c)

    cls = brauer_class(datum.lam, pair)
    assert not cls.is_trivial and cls.index == 2
    alg = cls.quaternion_algebra()
    assert (alg.a, alg.b) == (-1, -1)

    drep, prov = division_form(datum, CFG)
    H = hamilton_quaternions()
    assert drep.dims == {"s": 1, "t": 1}
    assert drep.mats["a1"] == Mat(H, ((H.one,),))
    assert drep.mats["a2"] == Mat(H, ((H.i,),))
    assert drep.mats["a3"] == Mat(H, ((H.j,),))

    split = morita_split(drep, pair)
    assert is_isomorphic(split, rep, CFG) is not None
    report(4, "Q(i) 3-Kronecker: u=(J,J), lambda=-1, class (-1,-1)_Q, D-form (1,i,j)", t0, 5)


def test_criterion_5_type_map_well_defined():
    t0 = time.monotonic()
    rep, pair, theta = quaternionic_kronecker_example()
    Qi = pair.ext
    base_cls = solve_modifying_u(rep, pair, theta, CFG).brauer
    rng = random.Random(CFG.seed)
    changes = 0
    # orbit-representative moves over Q(i)
    for _ in range(30):
        while True:
            g = {
                v: Mat(
                    Qi,
                    tuple(
                        tuple(
                            (Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                            for _ in range(2)
                        )
                        for _ in range(2)
                    ),
                )
                for v in ("s", "t")
            }
            if all(m.is_invertible() for m in g.values()):
                break
        datum = solve_modifying_u(rep.act(g), pair, theta, CFG)
        assert datum.brauer == base_cls
        changes += 1
    # u-scalar moves over Q(i)
    datum0 = solve_modifying_u(rep, pair, theta, CFG)
    for _ in range(30):
        a = (Fraction(rng.randint(-5, 5)), Fraction(rng.randint(-5, 5)))
        if a == (0, 0):
            a = (Fraction(1), Fraction(1))
        moved = datum0.rescale(a)
        moved.check()
        assert brauer_class(moved.lam, pair) == base_cls
        changes += 1
    # random Frobenius-fixed geometrically stable orbits over F_4
    fpair = GaloisPair.finite(2, 2)
    f4 = fpair.ext
    orbits = 0
    while orbits < 20:
        a, b = rng.randrange(1, 4), rng.randrange(4)
        w2 = Representation(
            K2, GF(2), {"s": 1, "t": 1},
            {"a1": Mat(GF(2), ((a % 2,),)), "a2": Mat(GF(2), ((b % 2,),))},
        )
        if stability_verdict(w2, THETA, CFG).kind != STABLE:
            continue
        wl = base_change(w2, fpair)
        while True:
            g = {
                v: Mat(f4, ((rng.randrange(4),),)) for v in ("s", "t")
            }
            if all(m.is_invertible() for m in g.values()):
                break
        moved = wl.act(g)
        datum = solve_modifying_u(moved, fpair, THETA, CFG)
        assert datum is not None
        assert datum.brauer.is_trivial
        changes += 1
        scaled = datum.rescale(rng.randrange(1, 4))
        scaled.check()
        assert brauer_class(scaled.lam, fpair).is_trivial
        changes += 1
        orbits += 1
    assert changes >= 100
    report(5, f"{changes} representative/scalar changes, class unchanged", t0, 60)


def test_criterion_6_hn_suite():
    t0 = time.monotonic()
    checked = 0
    for q in (2, 3):
        pair = GaloisPair.finite(q, 2)
        suite = []
        for d1, d2 in product(range(5), range(5)):
            if 0 < d1 + d2 <= 4:
                suite.append((K2, {"s": d1, "t": d2}, THETA))
        for d in range(1, 5):
            suite.append((jordan_quiver(), {"v": d}, {"v": 0}))
        for quiver, dims, theta in suite:
            for rep in all_orbit_representatives(quiver, dims, pair.base, CFG):
                if rep.total_dim() == 0:
                    continue
                hn = hn_filtration(rep, theta, CFG)
                assert list(hn.slopes) == sorted(set(hn.slopes), reverse=True)
                assert verify_hn(rep, theta, hn, CFG)
                wl = base_change(rep, pair)
                hn2 = hn_filtration(wl, theta, CFG)
                assert hn.slopes == hn2.slopes
                for w1, w2 in zip(hn.steps, hn2.steps):
                    assert base_change_witness(w1, pair).canonical().bases == w2.bases
                checked += 1
    report(6, f"{checked} orbit representatives, HN exact and base-change compatible", t0, 120)


def brute_sum_of_two_squares(n):
    for s in range(isqrt(n) + 1):
        t2 = n - s * s
        t = isqrt(t2)
        if t * t == t2:
            return True
    return False


def test_criterion_7_arithmetic_layer():
    t0 = time.monotonic()
    # Hilbert reciprocity for all |a|, |b| <= 20
    pairs = 0
    for a in range(-20, 21):
        for b in range(-20, 21):
            if a == 0 or b == 0:
                continue
            prod_sym = 1
            for place in relevant_places(a, b):
                prod_sym *= hilbert_symbol(a, b, place)
            assert prod_sym == 1, (a, b)
            pairs += 1

    # is_norm against the two-squares search: all integers up to 1000,
    # all fractions with numerator and denominator up to 120, and a seeded
    # random sample across the full <= 1000 box
    gp = GaloisPair.gaussian()
    for n in range(1, 1001):
        assert gp.is_norm(Fraction(n)) == brute_sum_of_two_squares(n), n
        assert not gp.is_norm(Fraction(-n))
    norm_checks = 2000
    for n in range(1, 121):
        for d in range(1, 121):
            lam = Fraction(n, d)
            want = brute_sum_of_two_squares(lam.numerator * lam.denominator)
            assert gp.is_norm(lam) == want, lam
            norm_checks += 1
    rng = random.Random(CFG.seed)
    for _ in range(3000):
        n = rng.randint(1, 1000)
        d = rng.randint(1, 1000)
        lam = Fraction(n, d)
        want = brute_sum_of_two_squares(lam.numerator * lam.denominator)
        assert gp.is_norm(lam) == want, lam
        norm_checks += 1

    # reduced-norm multiplicativity on 10^4 random quaternion pairs
    H = hamilton_quaternions()
    for _ in range(10_000):
        x = H.random(rng)
        y = H.random(rng)
        assert H.nrd(H.mul(x, y)) == H.nrd(x) * H.nrd(y)
    report(
        7,
        f"reciprocity on {pairs} pairs, {norm_checks} norm checks, 10^4 Nrd products",
        t0,
        120,
    )


def test_criterion_8_index_divisibility():
    t0 = time.monotonic()
    records = []
    # records from the descent census configurations of criterion 3
    fpair = GaloisPair.finite(2, 2)
    f4 = fpair.ext
    for a, b in ((1, 0), (0, 1), (1, 1)):
        w = Representation(
            K2, GF(2), {"s": 1, "t": 1},
            {"a1": Mat(GF(2), ((a,),)), "a2": Mat(GF(2), ((b,),))},
        )
        if stability_verdict(w, THETA, CFG).kind != STABLE:
            continue
        wl = base_change(w, fpair)
        records.append(decompose_rational_point(wl, fpair, THETA, CFG))
    # the quaternionic record of criterion 4
    rep, pair, theta = quaternionic_kronecker_example()
    records.append(decompose_rational_point(rep, pair, theta, CFG))
    # 50 randomized quaternionic constructions
    H = hamilton_quaternions()
    rng = random.Random(CFG.seed + 1)
    built = 0
    while built < 50:
        dims = rng.choice([{"s": 1, "t": 1}, {"s": 2, "t": 1}, {"s": 1, "t": 2}])
        mats = {}
        for arr in K2.arrows:
            rows = tuple(
                tuple(H.random(rng) for _ in range(dims[arr.src]))
                for _ in range(dims[arr.dst])
            )
            mats[arr.name] = Mat(H, rows, (dims[arr.dst], dims[arr.src]))
        drep = Representation(K2, H, dims, mats)
        tw = drep_to_twisted(drep, pair)
        split = tw.rep
        records.append(
            ClassificationRecord(
                rep=split,
                pair=pair,
                theta=THETA,
                brauer=brauer_class(tw.lam, pair),
                index=tw.index,
                datum=tw,
            )
        )
        built += 1
    ok, violations = index_divisibility_audit(records)
    assert ok, violations
    report(8, f"{len(records)} records audited, index divides every dimension", t0, 60)
