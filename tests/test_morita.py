import random
from fractions import Fraction

import pytest

from quivermoduli import (
    GF,
    GaloisPair,
    Mat,
    QuaternionAlgebra,
    Representation,
    brauer_class,
    hamilton_quaternions,
    jordan_quiver,
    kronecker_quiver,
)
from quivermoduli.config import JobConfig
from quivermoduli.descent import solve_modifying_u
from quivermoduli.homs import hom_space
from quivermoduli.quiver import base_change
from quivermoduli import descent, morita
from quivermoduli.errors import InvariantError, SchemaError
from quivermoduli.morita import (
    TwistedRep,
    descended_form,
    division_form,
    drep_is_geom_stable,
    drep_to_twisted,
    morita_split,
    morita_unsplit,
    split_matrix,
    standard_u,
    twisted_dim,
    twisted_to_drep,
    unsplit_matrix,
    validate_twisted,
)
from quivermoduli.rings import QQ
from quivermoduli.serialize import verdict_to_json
from quivermoduli.stability import STABLE, UNSTABLE, STRICTLY_SEMISTABLE, geom_stability

from helpers import count_calls, fmat, gimat, kronecker_rep, quaternionic_kronecker_example, zero_maps

CFG = JobConfig()
THETA = {"s": 1, "t": -1}
H = hamilton_quaternions()
PAIR = GaloisPair.gaussian()


def quat(x0, x1=0, x2=0, x3=0):
    return (Fraction(x0), Fraction(x1), Fraction(x2), Fraction(x3))


def drep_1ij():
    q = kronecker_quiver(3)
    mats = {
        "a1": Mat(H, ((H.one,),)),
        "a2": Mat(H, ((H.i,),)),
        "a3": Mat(H, ((H.j,),)),
    }
    return Representation(q, H, {"s": 1, "t": 1}, mats)


SPLIT_CASES = [(-1, -1), (-1, 3), (2, 5), (-3, 7), (5, -2)]  # (m, lambda)


def split_entry(alg, pair, x):
    """The 2x2 image of one D-entry over pair.ext."""
    morita._check_split_pair(alg, pair)
    return Mat(pair.ext, morita._split_rows(alg, x), (2, 2))


def random_dmat(alg, nrows, ncols, rng):
    rows = tuple(tuple(alg.random(rng) for _ in range(ncols)) for _ in range(nrows))
    return Mat(alg, rows, (nrows, ncols))


@pytest.mark.parametrize("m, lam", SPLIT_CASES)
def test_split_entry_is_ring_homomorphism(m, lam):
    alg, pair = QuaternionAlgebra(m, lam), GaloisPair.quadratic(m)
    rng = random.Random(8)
    for _ in range(60):
        x = alg.random(rng)
        y = alg.random(rng)
        sx = split_entry(alg, pair, x)
        sy = split_entry(alg, pair, y)
        assert split_entry(alg, pair, alg.mul(x, y)) == sx @ sy
        assert split_entry(alg, pair, alg.add(x, y)) == sx + sy
    assert split_entry(alg, pair, alg.one) == Mat.identity(pair.ext, 2)
    # blockwise: products of matrices, 0 x n and n x 0 ones included
    for nrows, inner, ncols in ((2, 3, 1), (0, 2, 3), (3, 2, 0), (2, 0, 2)):
        a = random_dmat(alg, nrows, inner, rng)
        b = random_dmat(alg, inner, ncols, rng)
        split = split_matrix(alg, pair, a @ b)
        assert split.shape == (2 * nrows, 2 * ncols)
        assert split == split_matrix(alg, pair, a) @ split_matrix(alg, pair, b)


def test_split_example():
    rep = drep_1ij()
    split = morita_split(rep, PAIR)
    expect, _, _ = quaternionic_kronecker_example()
    assert split == expect


@pytest.mark.parametrize("m, lam", SPLIT_CASES)
def test_unsplit_round_trip_random(m, lam):
    alg, pair = QuaternionAlgebra(m, lam), GaloisPair.quadratic(m)
    rng = random.Random(15)
    q = kronecker_quiver(2)
    shapes = [{"s": 2, "t": 1}] * 10 + [{"s": 0, "t": 2}, {"s": 2, "t": 0}]
    for dims in shapes:
        mats = {name: random_dmat(alg, dims["t"], dims["s"], rng) for name in ("a1", "a2")}
        drep = Representation(q, alg, dims, mats)
        split = morita_split(drep, pair)
        back = morita_unsplit(split, pair, Fraction(lam))
        assert back == drep
        for name, mat in mats.items():
            assert unsplit_matrix(alg, pair, split.mats[name]) == mat


def test_unsplit_rejects_non_fixed():
    q = jordan_quiver()
    Qi = PAIR.ext
    w = Representation(q, Qi, {"v": 2}, {"loop": gimat([[(0, 1), 0], [0, 0]])})
    with pytest.raises(SchemaError):
        morita_unsplit(w, PAIR, Fraction(-1))


def test_unsplit_rejects_a_block_off_the_image_at_the_second_arrow():
    split = morita_split(drep_1ij(), PAIR)
    Qi = PAIR.ext
    rows = [list(r) for r in split.mats["a2"].rows]
    rows[0][1] = Qi.add(rows[0][1], Qi.one)  # lambda sigma(r) no longer matches r
    mats = {**split.mats, "a2": Mat(Qi, tuple(map(tuple, rows)), (2, 2))}
    w = Representation(split.quiver, Qi, split.dims, mats)
    with pytest.raises(SchemaError, match="not fixed by the standard modified action"):
        morita_unsplit(w, PAIR, Fraction(-1))
    assert morita_unsplit(split, PAIR, Fraction(-1)) == drep_1ij()


def test_unsplit_matrix_errors_off_image():
    bad = gimat([[(0, 1), 0], [0, (0, 1)]])  # diag(i, i) is not split(x)
    with pytest.raises(InvariantError):
        unsplit_matrix(H, PAIR, bad)


def test_standard_u_cocycle():
    from quivermoduli.descent import cocycle_scalar

    u = standard_u(PAIR, Fraction(-1), {"s": 1, "t": 2})
    assert cocycle_scalar(u, PAIR) == Fraction(-1)


def test_division_form_quaternionic_example():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    drep, prov = division_form(datum, CFG)
    assert drep == drep_1ij()
    assert prov["lambda"] == Fraction(-1)


def test_division_form_rejects_trivial_class():
    pair = GaloisPair.gaussian()
    w0 = zero_maps(kronecker_quiver(2), QQ, {"s": 1, "t": 0})
    # build a trivial datum directly: identity u on a base-changed rep
    from quivermoduli.descent import DescentDatum, cocycle_scalar
    from quivermoduli.quiver import base_change

    wl = base_change(
        Representation(
            kronecker_quiver(2), QQ, {"s": 1, "t": 1},
            {"a1": Mat(QQ, ((Fraction(1),),)), "a2": Mat(QQ, ((Fraction(2),),))},
        ),
        pair,
    )
    ident = {v: Mat.identity(pair.ext, 1) for v in ("s", "t")}
    datum = DescentDatum(wl, ident, cocycle_scalar(ident, pair), pair)
    with pytest.raises(ValueError):
        division_form(datum, CFG)


def test_division_form_rejects_odd_dims():
    # A nontrivial class cannot occur on odd dimensions (its index 2 must
    # divide the dimension vector); the divisibility check fires before any
    # validation that would reject this synthetic datum anyway.
    from quivermoduli.descent import DescentDatum

    pair = GaloisPair.gaussian()
    Qi = pair.ext
    w = Representation(
        kronecker_quiver(2), Qi, {"s": 1, "t": 1},
        {"a1": gimat([[1]]), "a2": gimat([[0]])},
    )
    u = {v: gimat([[(0, 1)]]) for v in ("s", "t")}
    datum = DescentDatum(w, u, Fraction(-1), pair)
    with pytest.raises(ValueError):
        division_form(datum, CFG)


def test_twisted_rep_validate_and_dim():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    tw = TwistedRep(rep, datum.u, datum.lam, pair, index=2)
    ok, problems = validate_twisted(tw)
    assert ok, problems
    assert twisted_dim(tw) == {"s": 1, "t": 1}

    bad = TwistedRep(rep, datum.u, Fraction(1), pair, index=2)
    ok, problems = validate_twisted(bad)
    assert not ok

    ident = {v: Mat.identity(pair.ext, 2) for v in ("s", "t")}
    wrong_scalar = TwistedRep(rep, ident, Fraction(-1), pair, index=2)
    ok, problems = validate_twisted(wrong_scalar)
    assert not ok


def _corrupted_data(datum):
    """The datum and three corruptions: a wrong lambda, u scaled at one
    vertex, and u with a non-scalar cyclic product at a 2-dim vertex."""
    rep, u, pair = datum.rep, datum.u, datum.pair
    v = next(v for v, d in rep.dims.items() if d >= 2)
    unipotent = Mat(pair.ext, ((pair.ext.one, pair.ext.one), (pair.ext.zero, pair.ext.one)))
    return [
        datum,
        descent.DescentDatum(rep, u, pair.base.mul(datum.lam, pair.base.from_int(2)), pair),
        descent.DescentDatum(rep, {**u, "s": u["s"].scale(pair.ext.from_int(2))}, datum.lam, pair),
        descent.DescentDatum(rep, {**u, v: unipotent}, datum.lam, pair),
    ]


def test_check_raises_exactly_on_the_problems_validate_twisted_reports():
    # one datum check: check() raises with the messages validate_twisted
    # reports for the same datum, declared with its own class's index
    hamilton, qpair, theta = quaternionic_kronecker_example()
    f3 = GF(3)
    fpair = GaloisPair.finite(3, 2)
    column = kronecker_rep(f3, [fmat(f3, [[1], [0]]), fmat(f3, [[0], [1]])], {"s": 1, "t": 2})
    for rep, pair in ((hamilton, qpair), (base_change(column, fpair), fpair)):
        data = _corrupted_data(solve_modifying_u(rep, pair, theta, CFG))
        for k, datum in enumerate(data):
            tw = TwistedRep(datum.rep, datum.u, datum.lam, pair, index=datum.brauer.index)
            ok, problems = validate_twisted(tw)
            assert problems == datum.problems() and ok == (k == 0), (pair, k, problems)
            if ok:
                assert datum.check()
                continue
            with pytest.raises(InvariantError) as exc:
                datum.check()
            assert str(exc.value) == "; ".join(problems)
    # each corruption shows in its own words
    assert any("lambda" in m for m in data[1].problems())
    assert any("not scalar" in m for m in data[3].problems())


def test_twisted_rep_is_its_own_descent_datum():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    tw = TwistedRep(rep, datum.u, datum.lam, pair, index=2)
    assert isinstance(tw, descent.DescentDatum)
    plain = descent.DescentDatum(rep, datum.u, datum.lam, pair)
    assert descended_form(tw, CFG) == descended_form(plain, CFG) == drep_1ij()
    with pytest.raises(TypeError):
        TwistedRep(rep, datum.u, datum.lam, pair)  # the index is declared, never implied


@pytest.mark.parametrize("index", [0, -2, True, 2.0, "2"])
def test_twisted_rep_refuses_an_index_below_one_or_not_an_int(index):
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    with pytest.raises(SchemaError, match="index must be an int >= 1"):
        TwistedRep(rep, datum.u, datum.lam, pair, index=index)


def test_validate_twisted_computes_one_class_per_twisted_rep(monkeypatch):
    calls = count_calls(monkeypatch, brauer_class)
    tw = drep_to_twisted(drep_1ij(), PAIR)
    for _ in range(2):
        ok, problems = validate_twisted(tw)
        assert ok, problems
        assert len(calls) == 1  # the second validation reads the kept class


def test_validate_twisted_reports_undecided_class(monkeypatch):
    # norm membership in Q(sqrt(2))/Q is not decided, so neither is the index
    pair = GaloisPair.quadratic(2)
    L = pair.ext
    rep = Representation(jordan_quiver(), L, {"v": 1}, {"loop": Mat(L, ((L.one,),))})
    tw = TwistedRep(rep, {"v": Mat.identity(L, 1)}, Fraction(1), pair, index=1)
    ok, problems = validate_twisted(tw)
    assert not ok
    assert len(problems) == 1 and problems[0].startswith("class index undecided")

    # any other failure is a bug, not a diagnostic
    def broken(lam, pair):
        raise InvariantError("broken")

    # the class is the datum's (DescentDatum.brauer calls descent.brauer_class)
    monkeypatch.setattr(descent, "brauer_class", broken)
    with pytest.raises(InvariantError):
        validate_twisted(tw)


def test_validate_twisted_under_scalar_moves():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    a = (Fraction(1), Fraction(2))  # 1 + 2i, norm 5
    moved = datum.rescale(a)
    tw = TwistedRep(rep, moved.u, moved.lam, pair, index=2)
    ok, problems = validate_twisted(tw)
    assert ok, problems
    assert moved.lam == Fraction(-5)


def test_twisted_drep_round_trip(monkeypatch):
    drep = drep_1ij()
    tw = drep_to_twisted(drep, PAIR)
    assert tw.index == 2
    assert twisted_dim(tw) == {"s": 1, "t": 1}
    calls = count_calls(monkeypatch, brauer_class)
    ok, problems = validate_twisted(tw)
    assert ok, problems
    back = twisted_to_drep(tw, CFG)
    assert back.ring == H
    assert len(calls) == 1  # the validation reads the class of the datum it descends
    # round trip up to D-isomorphism
    homs = hom_space(back, drep)
    assert homs, "no D-morphisms after round trip"
    from quivermoduli.homs import find_invertible_in_span

    iso = find_invertible_in_span(homs, H, CFG)
    assert iso is not None


def test_trivial_class_twisted_to_base_field(monkeypatch):
    pair = GaloisPair.gaussian()
    from quivermoduli.descent import DescentDatum, cocycle_scalar
    from quivermoduli.quiver import base_change

    w0 = Representation(
        kronecker_quiver(2), QQ, {"s": 1, "t": 1},
        {"a1": Mat(QQ, ((Fraction(1),),)), "a2": Mat(QQ, ((Fraction(3),),))},
    )
    wl = base_change(w0, pair)
    ident = {v: Mat.identity(pair.ext, 1) for v in ("s", "t")}
    tw = TwistedRep(wl, ident, cocycle_scalar(ident, pair), pair, index=1)
    calls = count_calls(monkeypatch, brauer_class)
    ok, problems = validate_twisted(tw)
    assert ok, problems
    back = twisted_to_drep(tw, CFG)
    assert back.ring == QQ
    assert back == w0
    assert len(calls) == 1


def test_drep_stability():
    drep = drep_1ij()
    v = drep_is_geom_stable(drep, THETA, CFG)
    assert v.kind == STABLE

    q = kronecker_quiver(3)
    ones = Representation(
        q, H, {"s": 1, "t": 1},
        {name: Mat(H, ((H.one,),)) for name in ("a1", "a2", "a3")},
    )
    v = drep_is_geom_stable(ones, THETA, CFG)
    assert v.kind in (UNSTABLE, STRICTLY_SEMISTABLE)
    assert v.witness is not None
    assert v.witness.slope(THETA) >= Fraction(0)


@pytest.mark.parametrize("a, b", [(2, -1), (3, -1), (-1, 3)])
def test_drep_stability_splits_over_the_algebras_own_pair(a, b):
    # the D-rep's verdict is its splitting's over Q(sqrt(a)), which the
    # certificate reduces at the odd primes where a is a square
    alg = QuaternionAlgebra(a, b)
    rng = random.Random(a)
    q = kronecker_quiver(3)
    dreps = [Representation(
        q, alg, {"s": 1, "t": 1},
        {"a1": Mat(alg, ((alg.one,),)), "a2": Mat(alg, ((alg.i,),)), "a3": Mat(alg, ((alg.j,),))},
    )]
    for _ in range(3):
        mats = {name: random_dmat(alg, 1, 1, rng) for name in ("a1", "a2", "a3")}
        dreps.append(Representation(q, alg, {"s": 1, "t": 1}, mats))
    for drep in dreps:
        want = geom_stability(morita_split(drep, GaloisPair.quadratic(a)), THETA, CFG)
        assert verdict_to_json(drep_is_geom_stable(drep, THETA, CFG)) == verdict_to_json(want)


def test_drep_over_a_real_quadratic_splitting_field_is_certified():
    # (1, i, j) over (2, -1)_Q splits over Q(sqrt 2); 2 is a square mod 7
    # and mod 17, so both primes are usable and the first certifies
    alg = QuaternionAlgebra(2, -1)
    drep = Representation(
        kronecker_quiver(3), alg, {"s": 1, "t": 1},
        {"a1": Mat(alg, ((alg.one,),)), "a2": Mat(alg, ((alg.i,),)), "a3": Mat(alg, ((alg.j,),))},
    )
    v = drep_is_geom_stable(drep, THETA, JobConfig(primes=(7, 17)))
    assert v.kind == STABLE and v.detail == {"certificate": "reduction", "prime": 7}


@pytest.mark.parametrize("a", [4, Fraction(1, 2)], ids=["4", "1/2"])
def test_drep_stability_refuses_an_algebra_without_a_quadratic_pair(a):
    alg = QuaternionAlgebra(a, -1)
    drep = Representation(
        kronecker_quiver(2), alg, {"s": 1, "t": 1},
        {"a1": Mat(alg, ((alg.one,),)), "a2": Mat(alg, ((alg.i,),))},
    )
    with pytest.raises(SchemaError, match="squarefree integer"):
        drep_is_geom_stable(drep, THETA, CFG)


def test_drep_hom_space_dimensions():
    # End of the geometrically stable example is Q (the stabilizer is the
    # base-field scalar torus), so the Q-dimension is 1.  Independent
    # oracle: a 16-unknown Q-linear solve for endomorphisms of D commuting
    # with left multiplication by the arrows 1, i, j (after the identity
    # arrow merges the two vertex maps) and with the right scalar action
    # (the module structure of a right D-module).
    drep = drep_1ij()
    assert len(hom_space(drep, drep)) == 1

    from quivermoduli.linalg import Mat as M

    lefts = [H.left_mul_matrix(c) for c in (H.one, H.i, H.j)]
    rights = [H.right_mul_matrix(c) for c in (H.i, H.j)]
    rows = []
    for m in lefts + rights:
        # f m - m f = 0 entrywise, f a 4x4 rational unknown
        for r in range(4):
            for s in range(4):
                row = [Fraction(0)] * 16
                for k in range(4):
                    row[r * 4 + k] += m[k][s]
                    row[k * 4 + s] -= m[r][k]
                rows.append(tuple(row))
    system = M(QQ, tuple(rows), (len(rows), 16))
    assert 16 - system.rank() == 1

    # without the module-structure constraint the commutant of the left
    # regular representation is the right multiplications, of dimension 4
    rows2 = []
    for m in lefts:
        for r in range(4):
            for s in range(4):
                row = [Fraction(0)] * 16
                for k in range(4):
                    row[r * 4 + k] += m[k][s]
                    row[k * 4 + s] -= m[r][k]
                rows2.append(tuple(row))
    system2 = M(QQ, tuple(rows2), (len(rows2), 16))
    assert 16 - system2.rank() == 4


def test_no_arrow_quiver_hom_dimension():
    from quivermoduli.quiver import Quiver

    q = Quiver(("x", "y"), ())
    r1 = Representation(q, H, {"x": 1, "y": 2}, {})
    r2 = Representation(q, H, {"x": 2, "y": 1}, {})
    # 4 * sum_v d_v * d'_v rational dimensions with no constraints
    assert len(hom_space(r1, r2)) == 4 * (1 * 2 + 2 * 1)


def test_drep_hom_conjugation_invariance():
    drep = drep_1ij()
    g = {v: Mat(H, ((quat(1, 2, 0, 1),),)) for v in ("s", "t")}
    moved = Representation(
        drep.quiver,
        H,
        drep.dims,
        {
            a.name: g[a.dst] @ drep.mats[a.name] @ g[a.src].inverse()
            for a in drep.quiver.arrows
        },
    )
    assert len(hom_space(moved, moved)) == len(hom_space(drep, drep))


@pytest.mark.parametrize("b", [-1, 3, 1])
def test_end_dim_is_morita_invariant(b):
    # End_D W tensor L = End_L(split W), so dim_Q End_D W = dim_L End_L(split W);
    # (-1,-1)_Q and (-1,3)_Q are division algebras, (-1,1)_Q is split
    from quivermoduli import QuaternionAlgebra, end_dim, jordan_quiver, kronecker_quiver
    from quivermoduli.quiver import Arrow, Quiver

    alg = QuaternionAlgebra(-1, b)
    rng = random.Random(b)
    loop2 = Quiver(("s", "t"), (Arrow("a", "s", "t"), Arrow("l", "t", "t")))
    for q in (jordan_quiver(), kronecker_quiver(2), loop2):
        for k in range(4):
            # a direct sum of copies of one rep makes End larger than Q
            dims = {v: 1 if k < 2 else 2 for v in q.vertices}
            mats = {
                a.name: random_dmat(alg, dims[a.dst], dims[a.src], rng) for a in q.arrows
            }
            drep = Representation(q, alg, dims, mats)
            w = drep.direct_sum(drep) if k == 1 else drep
            basis = hom_space(w, w)
            assert len(basis) == end_dim(morita_split(w, PAIR))
            for f in basis:
                for a in q.arrows:
                    m = w.mats[a.name]
                    assert f[a.dst] @ m == m @ f[a.src]


def test_division_form_normalizes_lambda():
    # rescale the modifying element so lambda becomes -5; the class is
    # unchanged and division_form must normalize back to the canonical -1
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    moved = datum.rescale((Fraction(1), Fraction(2)))  # norm 5
    assert moved.lam == Fraction(-5)
    drep, prov = division_form(moved, CFG)
    assert prov["lambda"] == Fraction(-1)
    assert (drep.ring.a, drep.ring.b) == (-1, -1)
    homs = hom_space(drep, drep_1ij())
    from quivermoduli.homs import find_invertible_in_span

    assert find_invertible_in_span(homs, drep.ring, CFG) is not None


def test_drep_stability_finite_field_degenerate(tmp_path, capsys):
    # index-1 inputs over a finite field reduce to the exact quiver-core
    # decision.  Every entry point must agree on every point of four small
    # spaces, Jordan d=2 among them, whose stable loops with irreducible
    # characteristic polynomial are not Schur: the predicate, the D-rep
    # verdict, the descent precondition over F_{q^2}/F_q (after base change
    # for a rep over F_q, which keeps geometric stability) and the CLI.
    import json
    from itertools import product as iproduct

    from quivermoduli import GF, is_geometrically_stable
    from quivermoduli.cli import main
    from quivermoduli.errors import NotGeometricallyStableError
    from quivermoduli.quiver import base_change
    from quivermoduli.serialize import rep_to_json
    from quivermoduli.stability import STABLE as ST

    f4_f2, f9_f3 = GaloisPair.finite(2, 2), GaloisPair.finite(3, 2)
    jordan, k2 = ({"v": 2}, {"v": 0}), ({"s": 1, "t": 1}, THETA)
    spaces = [
        (jordan_quiver(), *jordan, f4_f2, GF(2)),
        (jordan_quiver(), *jordan, f4_f2, f4_f2.ext),
        (kronecker_quiver(2), *k2, f4_f2, GF(2)),
        (kronecker_quiver(2), *k2, f9_f3, GF(3)),
    ]
    path = tmp_path / "rep.json"
    seen = set()
    for q, dims, theta, pair, field in spaces:
        arrows = [(a.name, (dims[a.dst], dims[a.src])) for a in q.arrows]
        n = sum(r * c for _, (r, c) in arrows)
        for entries in iproduct(field.elements(), repeat=n):
            mats, it = {}, iter(entries)
            for name, (r, c) in arrows:
                rows = tuple(tuple(next(it) for _ in range(c)) for _ in range(r))
                mats[name] = Mat(field, rows, (r, c))
            rep = Representation(q, field, dims, mats)
            want = is_geometrically_stable(rep, theta, CFG)
            assert (drep_is_geom_stable(rep, theta, CFG).kind == ST) == want
            over_ext = rep if field == pair.ext else base_change(rep, pair)
            try:
                solve_modifying_u(over_ext, pair, theta, CFG)
                assert want, rep
            except NotGeometricallyStableError:
                assert not want, rep
            path.write_text(json.dumps(rep_to_json(rep)))
            argv = ["--format", "json", "stability", str(path), "--theta", json.dumps(theta)]
            assert main(argv) == 0
            out = json.loads(capsys.readouterr().out)
            assert out["geometrically_stable"] is want
            seen.add((out["verdict"]["kind"], want))
    assert {("stable", True), ("stable", False), ("unstable", False)} <= seen


def test_twisted_dim_matches_drep_dim_random():
    rng = random.Random(44)
    q = kronecker_quiver(2)
    for _ in range(5):
        dims = rng.choice([{"s": 1, "t": 1}, {"s": 2, "t": 1}])
        mats = {
            arr.name: Mat(
                H,
                tuple(
                    tuple(H.random(rng) for _ in range(dims[arr.src]))
                    for _ in range(dims[arr.dst])
                ),
                (dims[arr.dst], dims[arr.src]),
            )
            for arr in q.arrows
        }
        drep = Representation(q, H, dims, mats)
        tw = drep_to_twisted(drep, PAIR)
        assert twisted_dim(tw) == drep.dims
