import gc
import hashlib
import json
import random
import re
import time
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest

from quivermoduli import (
    GF,
    GaloisPair,
    Mat,
    Representation,
    a2_quiver,
    brauer_class,
    count_geom_stable_orbits,
    census_polynomiality,
    decompose_rational_point,
    index_divisibility_audit,
    jordan_quiver,
    kronecker_quiver,
    verify_descent_census,
)
from quivermoduli import census, stability
from quivermoduli.census import (
    GEOM_STABLE,
    STABLE_NOT_SCHUR,
    _apply_generator,
    _decode_rep,
    _encode_rep,
    _generator_tables,
    lagrange_interpolation,
    loop_class_census,
    orbit_census,
    stable_orbit_census,
)
from quivermoduli.config import JobConfig
from quivermoduli.errors import BudgetExceededError, InvariantError, SchemaError
from quivermoduli.ffields import monic_irreducibles
from quivermoduli.homs import end_dim
from quivermoduli.quiver import Arrow, Quiver, base_change
from quivermoduli.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    _verdicts,
    enumerate_subreps,
    stability_verdict,
)

from helpers import (
    all_orbit_representatives,
    count_calls,
    gimat,
    quaternionic_kronecker_example,
    reference_frobenius_fixed,
    reference_orbit_census,
    reference_subreps,
    reference_verdict,
    similarity_class_reps,
)

CFG = JobConfig()
THETA = {"s": 1, "t": -1}
K2 = kronecker_quiver(2)
J = jordan_quiver()


def test_kronecker_counts():
    for q, want in ((2, 3), (3, 4), (5, 6)):
        assert count_geom_stable_orbits(K2, {"s": 1, "t": 1}, THETA, q, CFG) == want


def test_jordan_counts():
    assert count_geom_stable_orbits(J, {"v": 2}, {"v": 0}, 2, CFG) == 0
    assert count_geom_stable_orbits(J, {"v": 1}, {"v": 0}, 2, CFG) == 2
    assert count_geom_stable_orbits(J, {"v": 1}, {"v": 0}, 3, CFG) == 3


def test_stable_not_schur_census():
    cen = orbit_census(J, {"v": 2}, {"v": 0}, GF(2), CFG)
    assert cen.counts == {GEOM_STABLE: 0, STABLE_NOT_SCHUR: 1}


def _bases(w):
    return None if w is None else (dict(w.dims), {v: m.rows for v, m in w.bases.items()})


def test_kernel_matches_generic_verdicts():
    # the census categorizer and the API verdicts share one engine, so both
    # are held against the brute-force reference in tests/helpers.py; each
    # case starts with zero maps, where no image pins a line at the last
    # vertex and every line stays a candidate
    rng = random.Random(3)
    a3 = Quiver(("s", "m", "t"), (Arrow("a", "s", "m"), Arrow("b", "m", "t")))
    back = Quiver(("s", "t"), (Arrow("a", "s", "t"), Arrow("b", "t", "s")))
    for quiver, dims, theta, field in (
        (K2, {"s": 1, "t": 1}, THETA, GF(3)),
        (K2, {"s": 2, "t": 1}, THETA, GF(2)),
        (J, {"v": 2}, {"v": 0}, GF(2)),
        (a2_quiver(), {"s": 2, "t": 2}, THETA, GF(2)),
        # extension fields, where element codes are not coordinates mod p
        (K2, {"s": 2, "t": 1}, THETA, GF(4)),
        (a2_quiver(), {"s": 2, "t": 2}, THETA, GF(4)),
        (J, {"v": 2}, {"v": 0}, GF(9)),
        (J, {"v": 3}, {"v": 0}, GF(4)),
        # lines at a dim-3 last vertex, pinned through the middle vertex of
        # A3, and beside an arrow from the last vertex back to the first
        (K2, {"s": 2, "t": 3}, THETA, GF(3)),
        (a3, {"s": 1, "m": 2, "t": 2}, {"s": 1, "m": 0, "t": -1}, GF(3)),
        (back, {"s": 2, "t": 2}, {"s": 1, "t": -1}, GF(3)),
    ):
        point_verdict = _verdicts(quiver, dims, theta, field, CFG)[1]({})
        for n in range(31):
            mats = {}
            for a in quiver.arrows:
                rows = tuple(
                    tuple(rng.randrange(field.size) if n else 0 for _ in range(dims[a.src]))
                    for _ in range(dims[a.dst])
                )
                mats[a.name] = Mat(field, rows, (dims[a.dst], dims[a.src]))
            rep = Representation(quiver, field, dims, mats)
            verdict = stability_verdict(rep, theta, CFG)
            kind, witness = reference_verdict(rep, theta)
            assert verdict.kind == kind
            assert _bases(verdict.witness) == _bases(witness)
            assert point_verdict(_encode_rep(rep))[0] == kind
            assert [_bases(w) for w in enumerate_subreps(rep, CFG)] == [
                _bases(w) for w in reference_subreps(rep)
            ]


def test_union_find_and_canonical_counts_agree():
    # the census itself raises InvariantError unless every union-find orbit
    # has |G| / (q^dim End - 1) points; run a few non-trivial spaces through it
    for quiver, dims, theta, q in (
        (K2, {"s": 1, "t": 1}, THETA, 5),
        (K2, {"s": 2, "t": 1}, THETA, 3),
        (a2_quiver(), {"s": 2, "t": 2}, THETA, 2),
    ):
        cen = orbit_census(quiver, dims, theta, GF(q), CFG)
        assert len(cen.representatives) == len(cen.orbit_category)


def _slice_orbit_sets(quiver, dims, theta, field, k):
    """Each slice's stable orbits under every generator of its H_r, by a
    breadth-first search that shares no code with the union-find."""
    verdict = _verdicts(quiver, dims, theta, field, CFG)[1]({})
    a0 = None if k is None else quiver.arrows[k]
    orbits = []
    for fixed, _, r in census._slices(quiver, dims, field, k):
        stable = [p for p in census._all_points(quiver, dims, field, fixed) if verdict(p)[0] == STABLE]
        gens = _generator_tables(quiver, dims, field, a0, r) if stable else []
        seen = set()
        for start in stable:
            if start in seen:
                continue
            orbit, frontier = {start}, [start]
            while frontier:
                point = frontier.pop()
                for gen in gens:
                    image = _apply_generator(point, gen, quiver, field)
                    if image not in orbit:
                        orbit.add(image)
                        frontier.append(image)
            seen |= orbit
            orbits.append(orbit)
    return orbits


def test_slice_census_matches_full_scan():
    # K2, K3 and A2 at every d <= (2,2) but (0,0), three thetas, F_2, F_3
    # and F_4, against the full-scan reference in tests/helpers.py; cells
    # whose whole space exceeds the reference's budget are skipped on both
    # sides (K3 (2,2) over F_3 and F_4).  The indexed union-find holds
    # every stable slice point, each sent straight to the root of its
    # orbit, one root per orbit, and each orbit's minimum is a
    # representative.
    ref_cfg = JobConfig(max_orbit_points=70_000)
    checked = 0
    for quiver in (K2, kronecker_quiver(3), a2_quiver()):
        for ds, dt in product(range(3), repeat=2):
            if ds == dt == 0:
                continue
            dims = {"s": ds, "t": dt}
            for theta, q in product(
                ({"s": 1, "t": -1}, {"s": 0, "t": 0}, {"s": -1, "t": 1}), (2, 3, 4)
            ):
                try:
                    want = reference_orbit_census(quiver, dims, theta, GF(q), ref_cfg)
                except BudgetExceededError:
                    continue
                cen = orbit_census(quiver, dims, theta, GF(q), CFG)
                cats = sorted(cen.orbit_category[cen.uf.find(r)] for r in cen.representatives)
                assert (cen.counts, len(cen.representatives), cats) == want, (quiver, dims, theta, q)
                orbits = _slice_orbit_sets(quiver, dims, theta, GF(q), cen.slice_arrow)
                assert len(cen.uf.parent) == sum(map(len, orbits))
                assert sorted(map(min, orbits)) == cen.representatives
                roots = [cen.uf.find(min(orbit)) for orbit in orbits]
                assert len(set(roots)) == len(orbits)
                for orbit, root in zip(orbits, roots):
                    assert all(cen.uf.parent[p] == root for p in orbit)
                checked += 1
    assert checked == 3 * 8 * 3 * 3 - 2 * 3


def test_slice_verdicts_match_the_whole_walk():
    # each slice point's verdict on the walk narrowed by its fixed arrow is
    # the whole walk's, hit and all, on K2, K3, A2, a loop beside an arrow
    # and an arrow back from the last vertex (whose fixed arrow pins no
    # line), at every d <= (2,2) but (0,0), over F_2, F_3 and F_4; cells
    # past 20,000 slice points are left out
    loop_arrow = Quiver(("s", "t"), (Arrow("loop", "s", "s"), Arrow("a", "s", "t")))
    back = Quiver(("s", "t"), (Arrow("a", "t", "s"), Arrow("b", "s", "t")))
    small = JobConfig(max_orbit_points=20_000)
    checked = Counter()
    for quiver in (K2, kronecker_quiver(3), a2_quiver(), loop_arrow, back):
        for ds, dt in product(range(3), repeat=2):
            if ds == dt == 0:
                continue
            dims = {"s": ds, "t": dt}
            for theta, q in product(({"s": 1, "t": -1}, {"s": -1, "t": 1}), (2, 3, 4)):
                try:
                    k = census._checked_slice_arrow(quiver, dims, q, small)
                except BudgetExceededError:
                    continue
                field = GF(q)
                _, verdicts = _verdicts(quiver, dims, theta, field, CFG)
                whole = verdicts({})
                for fixed, _, _ in census._slices(quiver, dims, field, k):
                    on_slice = verdicts(fixed)
                    for point in census._all_points(quiver, dims, field, fixed):
                        want = whole(point)
                        assert on_slice(point) == want, (quiver, dims, theta, q, point)
                        checked[want[0]] += 1
    assert sum(checked.values()) == 53_102
    assert min(checked[kind] for kind in (STABLE, STRICTLY_SEMISTABLE, UNSTABLE)) > 9_000, checked


def test_slice_census_frees_its_field_without_the_collector():
    # the narrowed walks and the slice verdicts make no reference cycle:
    # reference counting frees the field once the census is dropped
    field = GF(4)
    alive = weakref.ref(field)
    gc.disable()
    try:
        cen = orbit_census(K2, {"s": 2, "t": 2}, THETA, field, CFG)
        assert cen.counts == {GEOM_STABLE: 0, STABLE_NOT_SCHUR: 6}
        del cen, field
        assert alive() is None
    finally:
        gc.enable()


def _span_lookups(monkeypatch, quiver, dims, q):
    """_Span membership lookups, memo hits included, in one orbit_census."""
    calls = [0]
    lookup = dict.__getitem__

    def counted(span, code):
        calls[0] += 1
        return lookup(span, code)

    with monkeypatch.context() as m:
        m.setattr(stability._Span, "__getitem__", counted)
        orbit_census(quiver, dims, THETA, GF(q), CFG)
    return calls[0]


def test_slice_points_test_only_their_free_arrows(monkeypatch):
    # a slice settles its fixed arrow once, on a walk narrowed once to its
    # end: K2 (2,2) over F_4 made 11,364 lookups when each point tested its
    # fixed arrow again.  The count is exact: each slice's walk is narrowed
    # in full, also where every point of it stops at an early hit, so it is
    # 20 more than the 2,662 of walks narrowed only as far as points read.
    # A2 (2,2) over F_9 has one point per slice, which reads the whole
    # walk, 25 lookups as before
    assert _span_lookups(monkeypatch, K2, {"s": 2, "t": 2}, 4) == 2_682
    assert _span_lookups(monkeypatch, a2_quiver(), {"s": 2, "t": 2}, 9) == 25


def test_slice_census_kronecker3_d23():
    # 262,144 points in the whole space, 12,288 in the slices; 183 orbits
    # as Reineke's HN recursion gives (Invent. Math. 152 (2003))
    t0 = time.monotonic()
    cen = orbit_census(kronecker_quiver(3), {"s": 2, "t": 3}, THETA, GF(2), CFG)
    assert cen.counts == {GEOM_STABLE: 183, STABLE_NOT_SCHUR: 0}
    assert time.monotonic() - t0 < 2


def test_orbit_id_moves_points_into_their_slice():
    # g . p for random g in G_d lands outside the slice; orbit_id row-reduces
    # it back and must find p's orbit, and no other
    rng = random.Random(11)
    for quiver, dims, q in (
        (K2, {"s": 2, "t": 2}, 3),
        (kronecker_quiver(3), {"s": 1, "t": 2}, 4),
        (K2, {"s": 2, "t": 1}, 5),
    ):
        field = GF(q)
        cen = orbit_census(quiver, dims, THETA, field, CFG)
        reps = cen.representatives
        assert reps
        moved = 0
        for p in reps:
            for _ in range(5):
                g = {}
                for v, d in dims.items():
                    m = None
                    while m is None or not m.is_invertible():
                        m = Mat(field, [[rng.randrange(q) for _ in range(d)] for _ in range(d)], (d, d))
                    g[v] = m
                image = _encode_rep(_decode_rep(quiver, field, dims, p).act(g))
                moved += image not in cen.uf.parent
                assert cen.orbit_id(image) == cen.orbit_id(p)
                assert cen.same_orbit(image, p)
                assert [cen.same_orbit(image, r) for r in reps].count(True) == 1
        assert moved > 0


def test_orbit_id_refuses_a_point_off_the_stable_locus():
    # the zero point of K2 (1,1) is unstable at theta = (1, -1), so it is in
    # no orbit of the census: InvariantError naming it, not a KeyError
    cen = orbit_census(K2, {"s": 1, "t": 1}, THETA, GF(3), CFG)
    zero = (((0,),), ((0,),))
    with pytest.raises(InvariantError, match=re.escape(f"point {zero} is not a stable point")):
        cen.orbit_id(zero)
    with pytest.raises(InvariantError):
        cen.same_orbit(zero, cen.representatives[0])


def test_slice_lookup_skips_elimination(monkeypatch):
    # a point already in its slice is found without row reduction; a point
    # moved out of it by a random g in G_d goes through _to_slice once
    real_rref, real_to_slice = Mat.rref, census._to_slice
    rrefs, moves = [], []

    def counted_rref(self, *args, **kwargs):
        rrefs.append(self.nrows)
        return real_rref(self, *args, **kwargs)

    def counted_to_slice(*args):
        moves.append(args[0])
        return real_to_slice(*args)

    monkeypatch.setattr(census, "_to_slice", counted_to_slice)

    rng = random.Random(12)
    for quiver, dims, q in (
        (K2, {"s": 2, "t": 2}, 3),
        (kronecker_quiver(3), {"s": 1, "t": 2}, 4),
        (K2, {"s": 2, "t": 1}, 5),
    ):
        field = GF(q)
        cen = orbit_census(quiver, dims, THETA, field, CFG)
        k = cen.slice_arrow
        monkeypatch.setattr(Mat, "rref", counted_rref)
        for p in cen.representatives:
            rrefs.clear()
            moves.clear()
            cen.orbit_id(p)
            frob = tuple(tuple(tuple(field.frobenius(x) for x in row) for row in m) for m in p)
            assert cen.same_orbit(frob, frob)
            assert rrefs == moves == []
        moved = 0
        for p in cen.representatives:
            g = {}
            for v, d in dims.items():
                m = None
                while m is None or not m.is_invertible():
                    m = Mat(field, [[rng.randrange(q) for _ in range(d)] for _ in range(d)], (d, d))
                g[v] = m
            image = _encode_rep(_decode_rep(quiver, field, dims, p).act(g))
            outside = image[k] not in cen.slice_forms
            moved += outside
            rrefs.clear()
            moves.clear()
            assert cen.orbit_id(image) == cen.orbit_id(p)
            assert moves == ([image] if outside else [])
            assert bool(rrefs) == outside
        monkeypatch.setattr(Mat, "rref", real_rref)
        assert moved > 0


def test_end_dim_is_one_on_coprime_grid():
    # with the nonzero d_v coprime the census takes e = 1 without solving
    # for End; homs.end_dim solves for it on every stable orbit
    # representative instead
    budget = JobConfig(max_orbit_points=5_000)
    checked = 0
    for quiver, dims in (
        (K2, {"s": 1, "t": 1}),
        (K2, {"s": 1, "t": 2}),
        (K2, {"s": 2, "t": 1}),
        (K2, {"s": 2, "t": 3}),
        (kronecker_quiver(3), {"s": 1, "t": 2}),
        (a2_quiver(), {"s": 1, "t": 1}),
    ):
        for q in (2, 3, 4, 5):
            field = GF(q)
            try:
                cen = orbit_census(quiver, dims, THETA, field, budget)
            except BudgetExceededError:
                continue
            assert cen.counts[STABLE_NOT_SCHUR] == 0
            for p in cen.representatives:
                assert end_dim(_decode_rep(quiver, field, dims, p)) == 1, (dims, q, p)
            checked += 1
    assert checked == 6 * 4 - 2  # K2 (2,3) over F_4 and F_5 exceed the budget


def test_census_plan_respects_subspace_budget():
    # K2 (12,1) over F_2 has 8,192 slice points, but a verdict on one of
    # them would list 488,176,700,922 subspace tuples
    with pytest.raises(BudgetExceededError, match="488176700922 closure checks"):
        orbit_census(K2, {"s": 12, "t": 1}, THETA, GF(2), CFG)
    with pytest.raises(BudgetExceededError, match=r"slices have at least 2\^"):
        orbit_census(K2, {"s": 100, "t": 100}, THETA, GF(2), CFG)


def test_over_budget_plan_is_refused_before_summing(monkeypatch):
    # A2 (3000,1) over F_2: the first relevant dimension vector (1,0) already
    # needs 2^3000 - 1 closure checks, so the budget check stops there
    # instead of summing a Gaussian binomial for each of the 3000
    from quivermoduli import stability

    calls = []
    real = stability._gaussian_binomial

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(stability, "_gaussian_binomial", counted)
    with pytest.raises(BudgetExceededError, match=r"at least 2\^2999 closure checks"):
        orbit_census(a2_quiver(), {"s": 3000, "t": 1}, THETA, GF(2), CFG)
    assert len(calls) == 2  # one binomial per vertex of (1,0)


def test_orbit_stabilizer_check_catches_wrong_end(monkeypatch):
    real = census._end_dim_point
    calls = []

    def one_too_many(*args):
        calls.append(args)
        return real(*args) + (len(calls) == 1)

    monkeypatch.setattr(census, "_end_dim_point", one_too_many)
    with pytest.raises(InvariantError):
        orbit_census(K2, {"s": 1, "t": 1}, THETA, GF(3), CFG)


def test_orbit_stabilizer_check_catches_lost_generator(monkeypatch):
    # K2 (2,1) puts a1 in normal form.  Its rank-1 slice a1 = [1, 0] holds
    # the one geometrically stable orbit, six points a2 = [x, y], y != 0.
    # The last generator of H_1 is the lower-left transvection E_10 at s,
    # the only one that moves x; without it the union-find splits the orbit
    # by x.  (A lost generator shows only where it and Aut W together fall
    # short of H_r: without the diagonal GL_1 of both ends, the scalars in
    # Aut W make up for it.)
    real = census._generator_tables
    monkeypatch.setattr(census, "_generator_tables", lambda *args: real(*args)[:-1])
    with pytest.raises(InvariantError):
        orbit_census(K2, {"s": 2, "t": 1}, THETA, GF(3), CFG)


def test_generators_only_for_slices_with_kept_points(monkeypatch):
    # A2 (2,2) has no stable point, so no slice asks for generators; on
    # K2 (2,2) over F_4 only the rank-2 slice a1 = I holds stable points
    calls = count_calls(monkeypatch, census.group_generators)
    cen = orbit_census(a2_quiver(), {"s": 2, "t": 2}, THETA, GF(3), CFG)
    assert calls == [] and cen.representatives == []
    cen = orbit_census(K2, {"s": 2, "t": 2}, THETA, GF(4), CFG)
    assert [args[-1] for args in calls] == [2]
    assert cen.counts[STABLE_NOT_SCHUR] == 6


def test_scalar_generators_are_not_applied(monkeypatch):
    # K3 (1,1) over F_5: the rank-1 slice of the 1 x 1 slice arrow has
    # H_1 = the scalars, which fix every point, so only H_0 = G_d's two
    # generators act on the 24 stable points of the rank-0 slice (73
    # applications with the scalar's 25)
    calls = count_calls(monkeypatch, census._apply_generator)
    cen = orbit_census(kronecker_quiver(3), {"s": 1, "t": 1}, THETA, GF(5), CFG)
    assert len(calls) == 48
    assert cen.counts == {GEOM_STABLE: 31, STABLE_NOT_SCHUR: 0}


def test_frobenius_fixed_matches_the_same_orbit_rule():
    # one root-map lookup per representative finds the orbits that
    # same_orbit finds on the entrywise Frobenius image, as many as the
    # geometrically stable orbits over F_p
    K3 = kronecker_quiver(3)
    for quiver, dims, q, p in (
        (K2, {"s": 1, "t": 1}, 4, 2),
        (K2, {"s": 1, "t": 1}, 9, 3),
        (K2, {"s": 1, "t": 1}, 49, 7),
        (K3, {"s": 1, "t": 1}, 25, 5),
        (K2, {"s": 2, "t": 1}, 9, 3),
    ):
        cen = orbit_census(quiver, dims, THETA, GF(q), CFG)
        got = cen.frobenius_fixed()
        assert got == reference_frobenius_fixed(cen), (dims, q)
        assert len(got) == count_geom_stable_orbits(quiver, dims, THETA, p, CFG) > 0


def _k3_census_f25():
    return orbit_census(kronecker_quiver(3), {"s": 1, "t": 1}, THETA, GF(25), CFG)


def test_frobenius_image_missing_from_the_root_map_is_an_invariant_error():
    # the first representative that Frobenius moves comes before its image,
    # so its lookup is the first to miss
    cen = _k3_census_f25()
    frob = cen.field.frobenius
    for r in cen.representatives:
        image = tuple(tuple(tuple(map(frob, row)) for row in m) for m in r)
        if image != r:
            break
    assert image > r
    del cen.uf.parent[image]
    with pytest.raises(InvariantError, match="Frobenius image"):
        cen.frobenius_fixed()


def test_frobenius_maps_each_distinct_arrow_matrix_once(monkeypatch):
    # K3 (1,1) over F_25: 651 orbits, each with three 1 x 1 arrow matrices
    # (1,953 entries, each mapped by the same-orbit rule), but only the
    # distinct matrices, at most one per element of F_25, are mapped
    cen = _k3_census_f25()
    field = cen.field
    calls = []

    def counted(x, power=1):
        calls.append(x)
        return type(field).frobenius(field, x, power)

    monkeypatch.setattr(field, "frobenius", counted, raising=False)
    fixed = cen.frobenius_fixed()
    assert len(cen.representatives) == 651 and len(fixed) == 31
    distinct = {m for r in cen.representatives for m in r}
    assert len(calls) == sum(len(m) * len(m[0]) for m in distinct) <= 25


def test_a_slice_with_nothing_to_close_tests_no_point(monkeypatch):
    # the rank-1 slice of K3 (1,1) over F_25 fixes a1 = 1, which no
    # subrepresentation of dimension (1, 0) is closed under, so its narrowed
    # walk is empty and its 625 points are kept with no closure test
    quiver, dims, field = kronecker_quiver(3), {"s": 1, "t": 1}, GF(25)
    k = census._slice_arrow(quiver, dims)
    fixed = {k: census._normal_form(field, 1, 1, 1)}
    real, calls = stability._Engine.test, []

    def counted(eng, i, mat):
        calls.append(i)
        return real(eng, i, mat)

    monkeypatch.setattr(stability._Engine, "test", counted)
    _, verdicts = _verdicts(quiver, dims, THETA, field, CFG)
    verdict = verdicts(fixed)
    assert calls == [k]  # the fixed arrow's, to narrow the walk
    whole = verdicts({})
    calls.clear()
    points = list(census._all_points(quiver, dims, field, fixed))
    assert len(points) == 625
    assert all(verdict(p) == (STABLE, None) for p in points)
    assert calls == []
    assert all(whole(p) == (STABLE, None) for p in points)


def test_end_dim_runs_once_per_orbit(monkeypatch):
    real = census._end_dim_point
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(census, "_end_dim_point", counted)
    for quiver, dims, q in ((K2, {"s": 2, "t": 1}, 3), (K2, {"s": 2, "t": 2}, 3)):
        calls.clear()
        cen = orbit_census(quiver, dims, THETA, GF(q), CFG)
        assert len(calls) == len(cen.orbit_category) > 0
        assert [args[0] for args in calls] == cen.representatives
    assert cen.counts[STABLE_NOT_SCHUR] > 0


def test_memoized_action_matches_representation_act():
    # each generator's memoized action against Representation.act, once on
    # a memo miss and once on the hit that follows
    from quivermoduli.quiver import Arrow, Quiver

    a3 = Quiver(("s", "m", "t"), (Arrow("a", "s", "m"), Arrow("b", "m", "t")))
    rng = random.Random(5)
    for quiver, dims, field in (
        (K2, {"s": 2, "t": 2}, GF(4)),
        (kronecker_quiver(3), {"s": 1, "t": 2}, GF(3)),
        (K2, {"s": 0, "t": 2}, GF(3)),
        (K2, {"s": 2, "t": 0}, GF(3)),
        # arrows with different ends must not share a memo
        (a3, {"s": 1, "m": 1, "t": 1}, GF(3)),
    ):
        gens = _generator_tables(quiver, dims, field)
        assert gens
        for _ in range(10):
            point = tuple(
                tuple(
                    tuple(rng.randrange(field.size) for _ in range(dims[a.src]))
                    for _ in range(dims[a.dst])
                )
                for a in quiver.arrows
            )
            for gen in gens:
                g, _, memos = gen
                want = _encode_rep(_decode_rep(quiver, field, dims, point).act(g))
                first = _apply_generator(point, gen, quiver, field)
                assert all(rows in memo for rows, memo in zip(point, memos))
                second = _apply_generator(point, gen, quiver, field)
                assert first == second == want


def test_orbit_census_repeats_exactly():
    # generator memos are scoped to one call: a second census sees no state
    # left by the first
    for quiver, dims, q in ((K2, {"s": 2, "t": 1}, 3), (a2_quiver(), {"s": 1, "t": 1}, 4)):
        a = orbit_census(quiver, dims, THETA, GF(q), CFG)
        b = orbit_census(quiver, dims, THETA, GF(q), CFG)
        assert a.counts == b.counts
        assert a.representatives == b.representatives


def test_class_census_against_pointwise():
    for q, d in ((2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (4, 2), (5, 2)):
        dims = {"v": d}
        theta = {"v": 0}
        a = orbit_census(J, dims, theta, GF(q), CFG)
        b = loop_class_census(J, dims, theta, GF(q), CFG)
        assert a.counts == b.counts


def test_class_census_matches_engine():
    # the categories read from invariant factors against the closure engine
    # on every class representative, and deg f against dim End when stable
    grid = [(d, q) for d in (1, 2, 3) for q in (2, 3, 4, 5, 7, 8, 9)]
    grid += [(4, q) for q in (2, 3, 4)]
    for d, q in grid:
        dims, field = {"v": d}, GF(q)
        for theta in ({"v": 0}, {"v": 3}):
            if theta["v"] and q > 3:
                continue
            verdict = _verdicts(J, dims, theta, field, CFG)[1]({})
            cen = loop_class_census(J, dims, theta, field, CFG)
            for data, point, cat in cen.entries:
                kind = verdict(point)[0]
                if cat == STRICTLY_SEMISTABLE:
                    assert kind == STRICTLY_SEMISTABLE, (d, q, data)
                    continue
                assert kind == STABLE, (d, q, data)
                (f, part), = data
                e = census._end_dim_point(point, J, dims, field)
                assert part == (1,) and len(f) - 1 == e == d
                assert cat == (GEOM_STABLE if e == 1 else STABLE_NOT_SCHUR)


def test_class_census_gauss_check(monkeypatch):
    # losing one irreducible class makes the stable count fall short of
    # Gauss's count of monic irreducibles
    real = census.similarity_class_data

    def one_lost(field, size):
        classes = real(field, size)
        lost = next(i for i, data in enumerate(classes) if len(data) == 1 and data[0][1] == (1,))
        return classes[:lost] + classes[lost + 1 :]

    monkeypatch.setattr(census, "similarity_class_data", one_lost)
    for d, q in ((1, 2), (2, 3), (3, 2)):
        with pytest.raises(InvariantError):
            loop_class_census(J, {"v": d}, {"v": 0}, GF(q), CFG)


def test_monic_irreducibles():
    f2 = GF(2)
    polys = monic_irreducibles(f2, 2)
    assert len(polys) == 3  # x, x+1, x^2+x+1
    f4 = GF(4)
    deg2 = [p for p in monic_irreducibles(f4, 2) if len(p) == 3]
    assert len(deg2) == (16 - 4) // 2
    # Gauss: (1/n) sum_{k | n} mu(n/k) q^k monic irreducibles of degree n
    mobius = {1: 1, 2: -1, 3: -1, 4: 0}
    for q, max_deg in ((9, 3), (4, 4)):
        polys = monic_irreducibles(GF(q), max_deg)
        for n in range(1, max_deg + 1):
            want = sum(mobius[n // k] * q**k for k in range(1, n + 1) if n % k == 0) // n
            assert sum(1 for p in polys if len(p) - 1 == n) == want, (q, n)


def test_similarity_class_counts():
    # number of similarity classes of 2x2 matrices over F_q is q^2 + q;
    # q = 49 has 1,225 monic irreducibles of degree <= 2
    for q in (2, 3, 4, 49):
        f = GF(q)
        assert len(similarity_class_reps(f, 2)) == q * q + q


def test_budget_error_for_oversized_nonloop():
    tight = JobConfig(max_orbit_points=10)
    with pytest.raises(BudgetExceededError):
        orbit_census(K2, {"s": 2, "t": 2}, THETA, GF(3), tight)


def test_oversized_loop_routes_through_classes():
    # 81 points of 2x2 matrices over F_3 are over the budget, their 12
    # similarity classes are not
    tight = JobConfig(max_orbit_points=12)
    cen = stable_orbit_census(J, {"v": 2}, {"v": 0}, GF(3), tight)
    assert cen.counts[STABLE_NOT_SCHUR] == 3
    with pytest.raises(BudgetExceededError):
        stable_orbit_census(J, {"v": 2}, {"v": 0}, GF(3), JobConfig(max_orbit_points=11))


def test_similarity_class_count_closed_form():
    for d, q, want in ((8, 3, 11_514), (10, 3, 104_754), (6, 7, 140_441)):
        assert census._similarity_class_count(d, q) == want
    for d, q in ((1, 5), (2, 4), (3, 3), (4, 2), (3, 4)):
        assert census._similarity_class_count(d, q) == len(similarity_class_reps(GF(q), d))


def test_class_census_total_check(monkeypatch):
    # losing a strictly semistable class leaves Gauss's count intact, and
    # the closed-form class count catches it
    real = census.similarity_class_data

    def one_lost(field, size):
        classes = real(field, size)
        lost = next(i for i, data in enumerate(classes) if len(data) > 1)
        return classes[:lost] + classes[lost + 1 :]

    monkeypatch.setattr(census, "similarity_class_data", one_lost)
    with pytest.raises(InvariantError, match="similarity classes"):
        loop_class_census(J, {"v": 2}, {"v": 0}, GF(3), CFG)


def test_loop_class_budget_is_checked_before_listing(monkeypatch):
    def listed(field, size):
        raise AssertionError("classes listed over budget")

    monkeypatch.setattr(census, "similarity_class_data", listed)
    tight = JobConfig(max_orbit_points=100_000)
    with pytest.raises(BudgetExceededError) as err:
        loop_class_census(J, {"v": 10}, {"v": 0}, GF(3), tight)
    assert err.value.estimate == 104_754
    with pytest.raises(BudgetExceededError):
        all_orbit_representatives(J, {"v": 10}, GF(3), tight)


# The first 16 hex digits of the SHA-256 of
# repr((similarity_class_reps, entries, frobenius_fixed())) for Jordan d over
# F_q, as listed when the census built every class's matrix up front.
CLASS_LISTING_DIGESTS = {
    (1, 2): "3740c525f4abae59",
    (1, 4): "d7e3acd7c9f394ca",
    (1, 9): "5267bd606f04d8d2",
    (2, 2): "e7d9600c3abd0acd",
    (2, 3): "473a68867fba872d",
    (2, 4): "adf8b5b97c0b5b49",
    (3, 2): "2d21b2f62b6c498a",
    (3, 3): "df27ee47c9127cca",
    (4, 2): "8ca05cb50fced834",
}


def test_loop_counts_build_no_class_matrix(monkeypatch, tmp_path, capsys):
    from quivermoduli.cli import main

    real = census._class_matrix

    def built(data, field):
        raise AssertionError("a count-only path built a class matrix")

    monkeypatch.setattr(census, "_class_matrix", built)
    assert count_geom_stable_orbits(J, {"v": 1}, {"v": 0}, 4) == 4
    assert count_geom_stable_orbits(J, {"v": 4}, {"v": 0}, 9) == 0
    assert census_polynomiality(J, {"v": 2}, {"v": 0}, [2, 3, 4]).counts == [0, 0, 0]
    for d, q in ((2, 2), (3, 2), (4, 2), (2, 3), (3, 3)):
        report = verify_descent_census(J, {"v": d}, {"v": 0}, q, 2)
        assert report.ok and report.fixed_orbit_count == report.base_count == 0
    path = tmp_path / "loop.json"
    path.write_text('{"vertices": ["v"], "arrows": [{"id": "loop", "from": "v", "to": "v"}]}')
    code = main([
        "--format", "json", "census", "--quiver", str(path), "--dims", '{"v":3}',
        "--theta", '{"v":0}', "--q", "2,3", "--verify-descent", "2",
    ])
    out = json.loads(capsys.readouterr().out)
    assert code == 0 and out["census"]["counts"] == [0, 0]
    assert [r["ok"] for r in out["descent"]] == [True, True]

    # a point is built when it is read, and the listing is the old one
    monkeypatch.setattr(census, "_class_matrix", real)
    for (d, q), want in CLASS_LISTING_DIGESTS.items():
        field = GF(q)
        cen = loop_class_census(J, {"v": d}, {"v": 0}, field, CFG)
        listing = (similarity_class_reps(field, d), cen.entries, cen.frobenius_fixed())
        assert hashlib.sha256(repr(listing).encode()).hexdigest()[:16] == want, (d, q)
        assert [(data, cat) for data, _, cat in cen.entries] == cen.classes


def test_polynomiality_fit():
    fit = census_polynomiality(K2, {"s": 1, "t": 1}, THETA, [2, 3, 5], CFG)
    assert fit.counts == [3, 4, 6]
    assert fit.coefficients == [Fraction(1), Fraction(1)]  # q + 1
    assert fit.integral
    assert all(r == 0 for r in fit.residuals)

    fit = census_polynomiality(J, {"v": 2}, {"v": 0}, [2, 3], CFG)
    assert fit.counts == [0, 0]

    # a repeated q leaves the interpolation undefined
    with pytest.raises(SchemaError):
        census_polynomiality(K2, {"s": 1, "t": 1}, THETA, [2, 2], CFG)
    assert fit.coefficients == [Fraction(0)]


def test_lagrange_interpolation():
    assert lagrange_interpolation([(1, 2), (2, 5), (3, 10)]) == [
        Fraction(1),
        Fraction(0),
        Fraction(1),
    ]  # x^2 + 1


def test_descent_census_small():
    r = verify_descent_census(K2, {"s": 1, "t": 1}, THETA, 2, 2, CFG)
    assert r.fixed_orbit_count == r.base_count == 3
    assert r.ok
    r = verify_descent_census(J, {"v": 1}, {"v": 0}, 2, 2, CFG)
    assert r.fixed_orbit_count == r.base_count == 2
    r = verify_descent_census(J, {"v": 1}, {"v": 0}, 3, 2, CFG)
    assert r.fixed_orbit_count == r.base_count == 3
    r = verify_descent_census(a2_quiver(), {"s": 1, "t": 1}, THETA, 2, 2, CFG)
    assert r.ok


@pytest.mark.parametrize("n", [0, 1])
def test_descent_census_refuses_degree_below_two(n):
    with pytest.raises(SchemaError, match="extension degree n >= 2"):
        verify_descent_census(K2, {"s": 1, "t": 1}, THETA, 2, n, CFG)


def test_all_orbit_representatives_complete():
    # over F_2 the scaling group is trivial, so orbits are single points
    f2 = GF(2)
    reps = all_orbit_representatives(K2, {"s": 1, "t": 1}, f2, CFG)
    assert len(reps) == 4
    # over F_3 the pairs (a, b) fall into 0, two axes, and two diagonal classes
    f3 = GF(3)
    reps3 = all_orbit_representatives(K2, {"s": 1, "t": 1}, f3, CFG)
    assert len(reps3) == 5


def test_decompose_trivial_class():
    pair = GaloisPair.gaussian()
    from quivermoduli.rings import QQ

    w0 = Representation(
        K2, QQ, {"s": 1, "t": 1},
        {"a1": Mat(QQ, ((Fraction(1),),)), "a2": Mat(QQ, ((Fraction(2),),))},
    )
    wl = base_change(w0, pair)
    rec = decompose_rational_point(wl, pair, THETA, CFG)
    assert rec.brauer.is_trivial
    assert rec.index == 1
    assert rec.k_form is not None and rec.k_form.ring == QQ
    ok, violations = index_divisibility_audit([rec])
    assert ok


def test_decompose_quaternionic():
    rep, pair, theta = quaternionic_kronecker_example()
    rec = decompose_rational_point(rep, pair, theta, CFG)
    assert not rec.brauer.is_trivial
    assert rec.index == 2
    assert rec.d_form is not None
    assert rec.twisted is not None
    ok, violations = index_divisibility_audit([rec])
    assert ok, violations


def test_decompose_reads_one_brauer_class(monkeypatch):
    # type_map, descended_form and division_form all read the class the
    # datum carries
    calls = count_calls(monkeypatch, brauer_class)
    rep, pair, theta = quaternionic_kronecker_example()
    rec = decompose_rational_point(rep, pair, theta, CFG)
    assert len(calls) == 1
    assert rec.brauer is rec.datum.brauer and rec.d_form is not None


def test_decompose_not_fixed_orbit():
    pair = GaloisPair.gaussian()
    Qi = pair.ext
    w = Representation(
        K2, Qi, {"s": 1, "t": 1},
        {"a1": gimat([[1]]), "a2": gimat([[(0, 1)]])},
    )
    with pytest.raises(ValueError):
        decompose_rational_point(w, pair, THETA, CFG)


def test_index_audit_catches_violation():
    rep, pair, theta = quaternionic_kronecker_example()
    rec = decompose_rational_point(rep, pair, theta, CFG)
    # synthetic record with an odd dimension
    import copy

    bad = copy.copy(rec)
    bad.rep = Representation(
        kronecker_quiver(3), pair.ext, {"s": 3, "t": 2},
        {
            "a1": Mat.zero(pair.ext, 2, 3),
            "a2": Mat.zero(pair.ext, 2, 3),
            "a3": Mat.zero(pair.ext, 2, 3),
        },
    )
    ok, violations = index_divisibility_audit([rec, bad])
    assert not ok
    assert violations and "record 1" in violations[0]


def test_descent_census_rejects_nonprime_q():
    from quivermoduli.errors import SchemaError

    with pytest.raises(SchemaError):
        verify_descent_census(K2, {"s": 1, "t": 1}, THETA, 4, 2, CFG)


def test_three_vertex_path_quiver():
    # A3 path s -> m -> t: a basic sanity run of the generic machinery on a
    # quiver with more than two vertices
    from quivermoduli.quiver import Arrow, Quiver
    from quivermoduli.stability import hn_filtration, verify_hn

    a3 = Quiver(("s", "m", "t"), (Arrow("a", "s", "m"), Arrow("b", "m", "t")))
    theta = {"s": 1, "m": 0, "t": -1}
    dims = {"s": 1, "m": 1, "t": 1}
    for q in (2, 3):
        # both maps nonzero scale to (1, 1): a single geometrically stable orbit
        assert count_geom_stable_orbits(a3, dims, theta, q, CFG) == 1
        r = verify_descent_census(a3, dims, theta, q, 2, CFG)
        assert r.ok and r.fixed_orbit_count == 1
    f2 = GF(2)
    rep = Representation(
        a3, f2, dims, {"a": Mat(f2, ((1,),)), "b": Mat(f2, ((0,),))}
    )
    hn = hn_filtration(rep, theta, CFG)
    assert verify_hn(rep, theta, hn, CFG)
    assert list(hn.slopes) == [Fraction(1, 2), Fraction(-1)]
