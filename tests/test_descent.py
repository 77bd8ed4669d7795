import json
import pathlib
import random
from fractions import Fraction

import pytest

from quivermoduli import (
    GF,
    GaloisPair,
    Mat,
    Representation,
    brauer_class,
    hilbert90_descend,
    jordan_quiver,
    kronecker_quiver,
    solve_modifying_u,
    twist,
    type_map,
    verify_descent_census,
)
from quivermoduli import descent
from quivermoduli.config import JobConfig
from quivermoduli.descent import (
    DescentDatum,
    cocycle_scalar,
    hilbert90_split,
    modified_action_failures,
    solve_descent_change_of_basis,
)
from quivermoduli.errors import InvariantError, NotGeometricallyStableError
from quivermoduli.homs import is_isomorphic
from quivermoduli.quiver import base_change
from quivermoduli.rings import QQ, gaussian_rationals
from quivermoduli.stability import UNSTABLE

from helpers import gimat, kronecker_rep, quaternionic_kronecker_example, zero_maps

CFG = JobConfig()
THETA = {"s": 1, "t": -1}


def test_twist_examples():
    Qi = gaussian_rationals()
    pair = GaloisPair.gaussian()
    loop = jordan_quiver()
    w = Representation(loop, Qi, {"v": 1}, {"loop": gimat([[(0, 1)]])})
    tw = twist(w, pair, 1)
    assert tw.mats["loop"].entry(0, 0) == (Fraction(0), Fraction(-1))

    rational = Representation(loop, Qi, {"v": 1}, {"loop": gimat([[5]])})
    assert twist(rational, pair, 1) == rational

    fpair = GaloisPair.finite(2, 2)
    f4 = fpair.ext
    wf = Representation(loop, f4, {"v": 1}, {"loop": Mat(f4, ((2,),))})
    assert twist(wf, fpair, 1).mats["loop"].entry(0, 0) == 3


def test_twist_is_an_action():
    pair = GaloisPair.finite(3, 2)
    f9 = pair.ext
    loop = jordan_quiver()
    rng = random.Random(3)
    for _ in range(10):
        w = Representation(
            loop, f9, {"v": 2},
            {"loop": Mat(f9, tuple(tuple(rng.randrange(9) for _ in range(2)) for _ in range(2)))},
        )
        assert twist(w, pair, 0) == w
        assert twist(twist(w, pair, 1), pair, 1) == twist(w, pair, 2) == w


def test_solve_modifying_u_quaternionic():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    assert datum is not None
    J = gimat([[0, -1], [1, 0]])
    # u is the rotation matrix at both vertices, up to a scalar
    assert datum.u["s"].is_invertible() and datum.u["t"].is_invertible()
    assert not modified_action_failures(rep, datum.u, pair)
    assert datum.lam == Fraction(-1)
    datum.check()


def test_solve_modifying_u_base_changed_rep():
    pair = GaloisPair.finite(2, 2)
    w = kronecker_rep(GF(2), [1, 1])
    wl = base_change(w, pair)
    datum = solve_modifying_u(wl, pair, THETA, CFG)
    assert datum is not None
    assert datum.lam == pair.base.one


def test_solve_modifying_u_not_fixed():
    Qi = gaussian_rationals()
    pair = GaloisPair.gaussian()
    q = kronecker_quiver(2)
    w = Representation(
        q, Qi, {"s": 1, "t": 1}, {"a1": gimat([[1]]), "a2": gimat([[(0, 1)]])}
    )
    assert solve_modifying_u(w, pair, THETA, CFG) is None


def test_solve_modifying_u_non_invertible_hom_line():
    # Jordan diag(w, 0) over F_4/F_2: Hom(sigma W, W) is the one line of
    # E_22, which is not invertible, so the orbit moves
    pair = GaloisPair.finite(2, 2)
    f4 = pair.ext
    w = Representation(
        jordan_quiver(), f4, {"v": 2}, {"loop": Mat(f4, ((f4.gen, f4.zero), (f4.zero, f4.zero)))}
    )
    assert solve_modifying_u(w, pair, {"v": 0}, CFG, check_stability=False) is None


def test_solve_modifying_u_rejects_unstable():
    pair = GaloisPair.finite(2, 2)
    w = zero_maps(kronecker_quiver(2), pair.ext, {"s": 1, "t": 1})
    with pytest.raises(NotGeometricallyStableError) as err:
        solve_modifying_u(w, pair, THETA, CFG)
    assert err.value.verdict == UNSTABLE


def test_type_map_examples():
    rep, pair, theta = quaternionic_kronecker_example()
    result = type_map(rep, pair, theta, CFG)
    assert not result.brauer.is_trivial
    alg = result.brauer.quaternion_algebra()
    assert (alg.a, alg.b) == (-1, -1)

    fpair = GaloisPair.finite(2, 2)
    w = base_change(kronecker_rep(GF(2), [1, 1]), fpair)
    assert type_map(w, fpair, THETA, CFG).brauer.is_trivial


def test_datum_brauer_is_the_class_of_its_lambda():
    # a seeded grid of scalar moves over F_{p^2}/F_p and over Q(i)/Q, from a
    # trivial-class and a nontrivial-class orbit
    rng = random.Random(CFG.seed)
    grid = []
    for p in (2, 3, 5, 7):
        pair = GaloisPair.finite(p, 2)
        w = base_change(kronecker_rep(GF(p), [1, rng.randrange(p)]), pair)
        grid.append((solve_modifying_u(w, pair, THETA, CFG), list(pair.ext.units())))
    qrep, qpair, theta = quaternionic_kronecker_example()
    rational = base_change(kronecker_rep(QQ, [Fraction(1), Fraction(2)]), qpair)
    small = [(Fraction(x), Fraction(y)) for x in range(1, 6) for y in range(-5, 6)]
    for rep in (qrep, rational):
        grid.append((solve_modifying_u(rep, qpair, theta, CFG), small))
    assert {datum.brauer.is_trivial for datum, _ in grid} == {True, False}
    for datum, scalars in grid:
        for _ in range(6):
            moved = datum.rescale(rng.choice(scalars))
            moved.check()
            assert moved.brauer == brauer_class(moved.lam, moved.pair)
            assert moved.brauer is moved.brauer
            assert moved.brauer == datum.brauer


def test_type_map_well_defined_under_orbit_and_scalar_moves():
    rep, pair, theta = quaternionic_kronecker_example()
    Qi = pair.ext
    base = type_map(rep, pair, theta, CFG).brauer
    rng = random.Random(19)
    for trial in range(10):
        # random change of representative
        while True:
            g = {
                v: Mat(
                    Qi,
                    tuple(
                        tuple((Fraction(rng.randint(-2, 2)), Fraction(rng.randint(-2, 2)))
                              for _ in range(2))
                        for _ in range(2)
                    ),
                )
                for v in ("s", "t")
            }
            if all(m.is_invertible() for m in g.values()):
                break
        moved = rep.act(g)
        datum = solve_modifying_u(moved, pair, theta, CFG)
        assert datum is not None
        assert datum.brauer == base
    # scalar changes of u multiply lambda by a norm
    datum = solve_modifying_u(rep, pair, theta, CFG)
    for a in ((Fraction(2), Fraction(1)), (Fraction(0), Fraction(3))):
        moved = datum.rescale(a)
        moved.check()
        assert brauer_class(moved.lam, pair) == base


def test_cocycle_scalar_invariants():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    # non-scalar product must raise
    bad_u = {
        "s": gimat([[1, 1], [0, 1]]),
        "t": gimat([[1, 0], [0, 1]]),
    }
    with pytest.raises(InvariantError):
        cocycle_scalar(bad_u, pair)


def test_verify_modified_action_examples():
    from quivermoduli.rings import QQ

    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    assert not modified_action_failures(rep, datum.u, pair)
    ident = {v: Mat.identity(pair.ext, 2) for v in ("s", "t")}
    assert modified_action_failures(rep, ident, pair)
    # only the diag(i, -i) arrow moves under plain conjugation
    assert modified_action_failures(rep, ident, pair) == ["a2"]
    rational = base_change(
        zero_maps(kronecker_quiver(3), QQ, {"s": 2, "t": 2}), pair
    )
    assert not modified_action_failures(rational, ident, pair)


def test_hilbert90_finite_example():
    pair = GaloisPair.finite(2, 2)
    f4 = pair.ext
    loop = jordan_quiver()
    rep = Representation(loop, f4, {"v": 1}, {"loop": Mat(f4, ((1,),))})
    u = {"v": Mat(f4, ((2,),))}  # u = w, norm 1
    datum = DescentDatum(rep, u, cocycle_scalar(u, pair), pair)
    assert datum.lam == 1
    form, g = hilbert90_descend(datum, CFG)
    assert form.ring == pair.base
    assert form.mats["loop"].entry(0, 0) == 1


def test_hilbert90_identity_u():
    pair = GaloisPair.finite(3, 2)
    w = base_change(kronecker_rep(GF(3), [1, 2]), pair)
    u = {v: Mat.identity(pair.ext, 1) for v in ("s", "t")}
    datum = DescentDatum(w, u, cocycle_scalar(u, pair), pair)
    form, g = hilbert90_descend(datum, CFG)
    assert form.ring == pair.base
    assert is_isomorphic(base_change(form, pair), w, CFG) is not None


def test_hilbert90_gaussian_round_trip():
    pair = GaloisPair.gaussian()
    Qi = pair.ext
    from quivermoduli.rings import QQ

    w0 = kronecker_rep(
        QQ,
        [Mat(QQ, ((Fraction(1),), (Fraction(0),))), Mat(QQ, ((Fraction(0),), (Fraction(1),)))],
        {"s": 1, "t": 2},
    )
    wl = base_change(w0, pair)
    g0 = {
        "s": gimat([[(1, 1)]]),
        "t": gimat([[(1, 1), 0], [0, 1]]),
    }
    moved = wl.act(g0)
    datum = solve_modifying_u(moved, pair, THETA, CFG)
    assert datum is not None
    cls = brauer_class(datum.lam, pair)
    assert cls.is_trivial
    form, g = hilbert90_descend(datum, CFG)
    assert form.ring == QQ
    assert is_isomorphic(base_change(form, pair), moved, CFG) is not None
    assert is_isomorphic(form, w0, CFG) is not None


def _splits(g, u, pair):
    return all(g[v] @ g[v].map(pair.sigma).inverse() == u[v] for v in u)


def _inverts(g, g_inv):
    return all(g[v] @ g_inv[v] == Mat.identity(g[v].ring, g[v].nrows) for v in g)


@pytest.mark.parametrize("m", [-1, 2])
def test_hilbert90_split_minus_one(m):
    # the identity resolvent gives 1 + u = 0, and so does every rational one:
    # only a resolvent with a sqrt(m) part splits u = -1
    pair = GaloisPair.quadratic(m)
    L = pair.ext
    u = {"v": Mat(L, ((L.neg(L.one),),))}
    g, g_inv = hilbert90_split(u, pair, CFG)
    assert _splits(g, u, pair) and _inverts(g, g_inv)


def test_hilbert90_split_eigenvalue_minus_one():
    pair = GaloisPair.gaussian()
    u = {"v": gimat([[1, 0], [0, -1]])}
    g, g_inv = hilbert90_split(u, pair, CFG)
    assert _splits(g, u, pair) and _inverts(g, g_inv)


def test_hilbert90_gaussian_round_trip_minus_identity():
    # u = -I fixes a base-changed rational rep and has cocycle scalar 1
    from quivermoduli.rings import QQ

    pair = GaloisPair.gaussian()
    w0 = kronecker_rep(
        QQ,
        [Mat(QQ, ((Fraction(1),), (Fraction(0),))), Mat(QQ, ((Fraction(0),), (Fraction(1),)))],
        {"s": 1, "t": 2},
    )
    wl = base_change(w0, pair)
    minus_one = pair.ext.neg(pair.ext.one)
    u = {v: Mat.scalar(pair.ext, n, minus_one) for v, n in wl.dims.items()}
    datum = DescentDatum(wl, u, cocycle_scalar(u, pair), pair)
    datum.check()
    form, g = hilbert90_descend(datum, CFG)
    assert form.ring == QQ
    assert is_isomorphic(base_change(form, pair), wl, CFG) is not None
    assert is_isomorphic(form, w0, CFG) is not None


def test_change_of_basis_degree_three():
    # F_8/F_2: every unit has norm 1, so any invertible diagonal u is a
    # 1-cocycle; u and h0 u sigma(h0)^-1 share the cocycle scalar
    pair = GaloisPair.finite(2, 3)
    f8 = pair.ext
    rng = random.Random(8)
    u = {"s": Mat(f8, ((3, 0), (0, 5))), "t": Mat(f8, ((6,),))}
    h0 = {}
    for v, m in u.items():
        n = m.nrows
        while True:
            entries = [[rng.randrange(f8.size) for _ in range(n)] for _ in range(n)]
            cand = Mat(f8, entries, (n, n))
            if cand.is_invertible():
                h0[v] = cand
                break
    target = {v: h0[v] @ u[v] @ h0[v].map(pair.sigma).inverse() for v in u}
    assert cocycle_scalar(u, pair) == cocycle_scalar(target, pair)
    h, h_inv = solve_descent_change_of_basis(u, target, pair, CFG)
    assert _inverts(h, h_inv)
    for v in u:
        assert h[v] @ u[v] @ h[v].map(pair.sigma).inverse() == target[v]


def test_hilbert90_requires_trivial_class():
    rep, pair, theta = quaternionic_kronecker_example()
    datum = solve_modifying_u(rep, pair, theta, CFG)
    with pytest.raises(ValueError):
        hilbert90_descend(datum, CFG)


def test_hilbert90_descend_refuses_a_form_off_the_base_field(monkeypatch):
    # a split that leaves an entry outside k is caught when the matrix is
    # read over k, as an InvariantError naming the arrow, over F_9/F_3 and
    # over Q(i)/Q; the datum is a K2 (1,1) rep Galois-fixed up to a scalar
    # but not rational
    def identities(u, pair, config):
        eye = {v: Mat.identity(pair.ext, m.nrows) for v, m in u.items()}
        return eye, eye

    monkeypatch.setattr(descent, "hilbert90_split", identities)
    f9 = GaloisPair.finite(3, 2)
    w = next(x for x in f9.ext.elements() if not f9.is_fixed(x))
    for pair, m in ((f9, Mat(f9.ext, ((w,),))), (GaloisPair.gaussian(), gimat([[(0, 1)]]))):
        rep = kronecker_rep(pair.ext, [m, m], {"s": 1, "t": 1})
        datum = solve_modifying_u(rep, pair, THETA, CFG)
        assert datum is not None and datum.brauer.is_trivial
        with pytest.raises(InvariantError, match="arrow a1 is not Galois-fixed"):
            hilbert90_descend(datum, CFG)


def test_finite_field_completeness_tiny():
    # every Frobenius-fixed geometrically stable orbit over F_4 descends:
    # exhaustive over the Kronecker (1,1) stable locus
    pair = GaloisPair.finite(2, 2)
    f4 = pair.ext
    q = kronecker_quiver(2)
    frob = f4.frobenius
    seen = set()
    for a in f4.elements():
        for b in f4.elements():
            if (a, b) == (0, 0):
                continue
            w = Representation(
                q, f4, {"s": 1, "t": 1},
                {"a1": Mat(f4, ((a,),)), "a2": Mat(f4, ((b,),))},
            )
            tw = twist(w, pair, 1)
            datum = solve_modifying_u(w, pair, THETA, CFG)
            if datum is None:
                # orbit moves; its Frobenius image must be non-isomorphic
                assert is_isomorphic(tw, w, CFG) is None
                continue
            form, g = hilbert90_descend(datum, CFG)
            assert form.ring == pair.base
            assert is_isomorphic(base_change(form, pair), w, CFG) is not None
            seen.add((form.mats["a1"].entry(0, 0), form.mats["a2"].entry(0, 0)))
    # three stable orbits over F_2 (the projective line over F_2)
    forms = seen
    assert len({s for s in forms}) >= 3


def test_two_forms_from_one_orbit_are_isomorphic():
    # injectivity at desk scale: descending the same orbit twice (different
    # seeds, so different resolvents) gives isomorphic rational forms
    pair = GaloisPair.gaussian()
    from quivermoduli.rings import QQ

    w0 = kronecker_rep(
        QQ,
        [Mat(QQ, ((Fraction(2),), (Fraction(1),))), Mat(QQ, ((Fraction(0),), (Fraction(1),)))],
        {"s": 1, "t": 2},
    )
    wl = base_change(w0, pair)
    g0 = {"s": gimat([[(2, 1)]]), "t": gimat([[1, (0, 1)], [0, 1]])}
    moved = wl.act(g0)
    forms = []
    for seed in (1, 2):
        cfg = JobConfig(seed=seed)
        datum = solve_modifying_u(moved, pair, THETA, cfg)
        form, _ = hilbert90_descend(datum, cfg)
        forms.append(form)
    assert is_isomorphic(forms[0], forms[1], CFG) is not None
    assert is_isomorphic(forms[0], w0, CFG) is not None


# --- a golden file of descent answers over Q(i) ---


def _unimodular(ring, a, b):
    o, z = ring.one, ring.zero
    return Mat(ring, ((o, a), (z, o))) @ Mat(ring, ((o, z), (b, o)))


def _descent_cases():
    """Eight seeded Galois-fixed orbits over Q(i), built like the arith
    benchmark's: moved rational 3-Kronecker (2,2) reps, and Morita splittings
    of moved quaternionic (1,1) reps over (-1,-1)_Q."""
    from quivermoduli import hamilton_quaternions, morita_split

    rng = random.Random(20170425)
    pair, H, k3 = GaloisPair.gaussian(), hamilton_quaternions(), kronecker_quiver(3)
    Qi = pair.ext
    cases = []
    for _ in range(4):
        mats = {a.name: Mat(QQ, [[Fraction(rng.randint(-3, 3)) for _ in range(2)]
                                 for _ in range(2)]) for a in k3.arrows}
        w = Representation(k3, QQ, {"s": 2, "t": 2}, mats)
        signs = [QQ.one, QQ.neg(QQ.one)]
        w = w.act({v: _unimodular(QQ, rng.choice(signs), rng.choice(signs)) for v in "st"})
        units = [Qi.one, Qi.neg(Qi.one), Qi.sqrt_gen, Qi.neg(Qi.sqrt_gen)]
        g = {v: _unimodular(Qi, rng.choice(units), rng.choice(units)) for v in "st"}
        cases.append(base_change(w, pair).act(g))
    for _ in range(4):
        quats = [tuple(Fraction(rng.randint(-2, 2)) for _ in range(4)) for _ in k3.arrows]
        drep = Representation(k3, H, {"s": 1, "t": 1}, {
            a.name: Mat(H, ((x if any(x) else H.one,),)) for a, x in zip(k3.arrows, quats)
        })
        x = {v: Mat(H, ((rng.choice([H.one, H.i, H.j, H.k]),),)) for v in "st"}
        cases.append(morita_split(drep.act(x), pair))
    return pair, cases


def _descent_answers():
    """Per case: the certificate, and for a Stable one the type map's u,
    lambda and class and the descended form, as the CLI serializes them."""
    from quivermoduli import geom_stability_certificate
    from quivermoduli.morita import descended_form
    from quivermoduli.serialize import hom_to_json, rep_to_json

    pair, cases = _descent_cases()
    config = JobConfig(seed=0)
    out = []
    for rep in cases:
        cert = geom_stability_certificate(rep, THETA, config)
        entry = {"certificate": {"kind": cert.kind, "detail": str(cert.detail)}}
        if cert.is_stable:
            datum = type_map(rep, pair, THETA, config)
            entry.update(
                u=hom_to_json(datum.u),
                lam=str(datum.lam),
                brauer_class=datum.brauer.describe(),
                form=rep_to_json(descended_form(datum, config)),
            )
        out.append(entry)
    return json.dumps(out, indent=1, sort_keys=True) + "\n"


def test_descent_answers_match_golden_file():
    # written from the per-entry Fraction implementation, so a normalization
    # of the integer coordinates (the sign of d, content) that leaked into a
    # printed payload would show here
    fixtures = pathlib.Path(__file__).parent / "fixtures"
    assert _descent_answers() == (fixtures / "qi_descent.golden.json").read_text()


def _counted_rng(monkeypatch):
    """Record the label of each JobConfig.rng call."""
    real, labels = JobConfig.rng, []

    def counted(self, label):
        labels.append(label)
        return real(self, label)

    monkeypatch.setattr(JobConfig, "rng", counted)
    return labels


def test_identity_resolvent_makes_no_generator(monkeypatch):
    # over F_49/F_7 every average of K2 (1,1) succeeds on the identity
    # resolvent, so no seeded generator is made
    labels = _counted_rng(monkeypatch)
    report = verify_descent_census(kronecker_quiver(2), {"s": 1, "t": 1}, THETA, 7, 2, CFG)
    assert report.ok and report.fixed_orbit_count > 0
    assert labels == []


def test_random_resolvent_is_seeded_once_per_average(monkeypatch):
    # the identity cocycle over F_4/F_2 averages the identity to I + I = 0,
    # so the split retries on drawn resolvents: one generator per call, and
    # the same seed and label draw the same split
    labels = _counted_rng(monkeypatch)
    pair = GaloisPair.finite(2, 2)
    u = {"s": Mat.identity(pair.ext, 2), "t": Mat.identity(pair.ext, 1)}
    first = hilbert90_split(u, pair, CFG)
    assert labels == ["hilbert90"]
    second = hilbert90_split(u, pair, CFG)
    assert labels == ["hilbert90"] * 2
    assert first == second
    g, g_inv = first
    assert all(g[v] @ pair.sigma_mat(g_inv[v]) == u[v] for v in u)
