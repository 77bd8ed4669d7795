import hashlib
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli import (
    GF,
    Mat,
    Representation,
    a2_quiver,
    end_dim,
    hom_space,
    is_isomorphic,
    gaussian_rationals,
    hamilton_quaternions,
    jordan_quiver,
    kronecker_quiver,
    slope,
)
from quivermoduli.config import JobConfig
from quivermoduli.errors import BudgetExceededError, SchemaError
from quivermoduli import homs
from quivermoduli.homs import identity_hom
from quivermoduli.quiver import Arrow, Quiver, base_change, group_generators
from quivermoduli.galois import GaloisPair
from quivermoduli.rings import QQ

from helpers import fmat, kronecker_rep, qmat, zero_maps

CFG = JobConfig()


def test_quiver_validation():
    with pytest.raises(SchemaError):
        Quiver(("a", "a"), ())
    with pytest.raises(SchemaError):
        Quiver(("a",), (Arrow("x", "a", "b"),))
    q = kronecker_quiver(2)
    assert [a.name for a in q.arrows] == ["a1", "a2"]
    assert jordan_quiver().is_single_loop()
    assert not q.is_single_loop()


def test_slope_examples():
    theta = {"s": 1, "t": -1}
    assert slope({"s": 1, "t": 1}, theta) == 0
    assert slope({"s": 1, "t": 0}, theta) == 1
    assert slope({"s": 2, "t": 1}, theta) == Fraction(1, 3)
    with pytest.raises(ValueError):
        slope({"s": 0, "t": 0}, theta)


def test_rep_validation():
    f = GF(2)
    q = kronecker_quiver(2)
    with pytest.raises(SchemaError):
        Representation(q, f, {"s": 1, "t": 1}, {"a1": fmat(f, [[1]])})
    with pytest.raises(SchemaError):
        Representation(
            q, f, {"s": 1, "t": 2},
            {"a1": fmat(f, [[1]]), "a2": fmat(f, [[1]])},
        )


def test_rep_is_read_only():
    f = GF(2)
    dims, mats = {"s": 1, "t": 1}, {"a1": fmat(f, [[1]]), "a2": fmat(f, [[0]])}
    w = Representation(kronecker_quiver(2), f, dims, mats)
    dims["s"], mats["a2"] = 2, fmat(f, [[1]])  # the rep keeps its own copies
    assert w.dims == {"s": 1, "t": 1} and w.mats["a2"] == fmat(f, [[0]])
    with pytest.raises(TypeError):
        w.dims["s"] = 2
    with pytest.raises(TypeError):
        w.mats["a2"] = fmat(f, [[1]])
    assert w == Representation(kronecker_quiver(2), f, w.dims, w.mats)


def test_hom_space_examples():
    f2 = GF(2)
    w = kronecker_rep(f2, [1, 0])
    basis = hom_space(w, w)
    assert len(basis) == 1
    h = basis[0]
    assert h["s"] == h["t"]  # the (1,1) intertwiner line

    zero = zero_maps(kronecker_quiver(2), f2, {"s": 1, "t": 1})
    assert end_dim(zero) == 2

    loop = jordan_quiver()
    companion = Representation(loop, f2, {"v": 2}, {"loop": fmat(f2, [[0, 1], [1, 1]])})
    assert end_dim(companion) == 2  # End = F_4


def test_hom_space_brute_force_oracle():
    # companion of x^2+x+1 over F_2: commutant by scanning all 16 matrices
    f2 = GF(2)
    loop = jordan_quiver()
    m = fmat(f2, [[0, 1], [1, 1]])
    count = 0
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    g = fmat(f2, [[a, b], [c, d]])
                    if g @ m == m @ g:
                        count += 1
    companion = Representation(loop, f2, {"v": 2}, {"loop": m})
    assert count == 2 ** end_dim(companion)


def test_end_dim_direct_sum():
    f3 = GF(3)
    w = kronecker_rep(f3, [1, 1])
    assert end_dim(w) == 1
    ww = w.direct_sum(w)
    assert end_dim(ww) >= 4


def test_is_isomorphic_examples():
    f3 = GF(3)
    w1 = kronecker_rep(f3, [1, 0])
    w2 = kronecker_rep(f3, [2, 0])
    g = is_isomorphic(w1, w2, CFG)
    assert g is not None
    assert w1.act(g) == w2

    assert is_isomorphic(w1, w1, CFG) is not None

    f2 = GF(2)
    a = kronecker_rep(f2, [1, 0])
    b = kronecker_rep(f2, [0, 1])
    assert is_isomorphic(a, b, CFG) is None


def _count_hom_systems(monkeypatch):
    """Record each Hom system solved, for a basis (hom_space) or for its
    dimension alone (hom_dim), as (name, w, wp)."""
    calls = []
    for name in ("hom_space", "hom_dim"):
        real = getattr(homs, name)

        def counted(w, wp, name=name, real=real):
            calls.append((name, w, wp))
            return real(w, wp)

        monkeypatch.setattr(homs, name, counted)
    return calls


def test_is_isomorphic_decides_a_hom_line_alone(monkeypatch):
    k3, k2 = kronecker_quiver(3), kronecker_quiver(2)
    w = Representation(k3, QQ, {"s": 2, "t": 2}, {
        name: qmat(rows) for name, rows in
        (("a1", [[1, 0], [0, 1]]), ("a2", [[0, 1], [0, 0]]), ("a3", [[1, 2], [-1, 3]]))
    })
    g = {"s": qmat([[1, 1], [0, 1]]), "t": qmat([[2, 0], [1, 1]])}
    wg = w.act(g)
    assert end_dim(w) == 1
    calls = _count_hom_systems(monkeypatch)
    iso = is_isomorphic(w, wg, CFG)
    assert w.act(iso) == wg and len(calls) == 1
    # a larger Hom space still checks the three other dimensions first,
    # by their coranks alone
    ww = w.direct_sum(w)
    calls.clear()
    iso = is_isomorphic(ww, wg.direct_sum(wg), CFG)
    assert iso is not None and len(calls) == 4
    assert [name for name, _, _ in calls] == ["hom_space"] + ["hom_dim"] * 3
    # Hom(W, 0) is the line of (f_s, f_t) = (1, 0), which is singular
    line = Representation(k2, QQ, {"s": 1, "t": 1}, {"a1": qmat([[1]]), "a2": qmat([[0]])})
    calls.clear()
    assert is_isomorphic(line, zero_maps(k2, QQ, line.dims), CFG) is None
    assert len(calls) == 1


def test_is_isomorphic_exhausts_the_grid_over_q(monkeypatch):
    # diag(0,0,1) and diag(0,0,2) agree in every Hom dimension (4 both ways,
    # End 5 and 5), but every intertwiner kills the third coordinate, so the
    # 64 seeded trials fail and only the 4^4 grid proves non-existence
    loop = jordan_quiver()
    w, wp = (
        Representation(loop, QQ, {"v": 3}, {"loop": qmat([[0, 0, 0], [0, 0, 0], [0, 0, c]])})
        for c in (1, 2)
    )
    assert [len(hom_space(*pair)) for pair in ((w, wp), (wp, w), (w, w), (wp, wp))] == [4, 4, 5, 5]
    combos = []
    combine = homs.combine_homs
    monkeypatch.setattr(homs, "combine_homs", lambda *args: combos.append(args) or combine(*args))
    assert is_isomorphic(w, wp, CFG) is None
    assert len(combos) == CFG.iso_trials + 4**4 - 1
    iso = is_isomorphic(w, w, CFG)
    assert iso is not None and w.act(iso) == w


def test_is_isomorphic_exhausts_a_finite_field(monkeypatch):
    # diag(0,0,1) and diag(0,1,1) over F_2 agree in every Hom dimension
    # (4 both ways, End 5 and 5), so only the search over all 2^4 - 1
    # nonzero combinations proves them non-isomorphic
    f2, loop = GF(2), jordan_quiver()
    w, wp = (
        Representation(loop, f2, {"v": 3}, {"loop": fmat(f2, [[0, 0, 0], [0, b, 0], [0, 0, 1]])})
        for b in (0, 1)
    )
    assert [len(hom_space(*pair)) for pair in ((w, wp), (wp, w), (w, w), (wp, wp))] == [4, 4, 5, 5]
    combos = []
    combine = homs.combine_homs
    monkeypatch.setattr(homs, "combine_homs", lambda *args: combos.append(args) or combine(*args))
    assert is_isomorphic(w, wp, CFG) is None
    assert len(combos) == 15
    with pytest.raises(BudgetExceededError):
        is_isomorphic(w, wp, JobConfig(max_orbit_points=8))


def test_iso_search_refuses_a_count_too_large_to_print():
    # End of this rep is Mat_11, 121 dimensions over F_(2^127 - 1): its
    # point count has more digits than str() prints, and is still refused
    # as over the budget
    p = 2**127 - 1
    w = zero_maps(kronecker_quiver(2), GF(p), {"s": 11, "t": 0})
    with pytest.raises(BudgetExceededError) as exc:
        is_isomorphic(w, w, JobConfig())
    assert str(exc.value) == "iso search space has at least 2^15366 points (budget 1000000)"
    assert exc.value.estimate == p**121


def test_is_isomorphic_zero_dimensional():
    k2 = kronecker_quiver(2)
    zero = zero_maps(k2, QQ, {"s": 0, "t": 0})
    assert is_isomorphic(zero, zero, CFG) == identity_hom(zero)


def test_is_isomorphic_respects_dims():
    f2 = GF(2)
    q = kronecker_quiver(2)
    w1 = zero_maps(q, f2, {"s": 1, "t": 1})
    w2 = zero_maps(q, f2, {"s": 1, "t": 2})
    assert is_isomorphic(w1, w2, CFG) is None


def test_hom_dim_is_iso_invariant():
    rng = random.Random(31)
    f3 = GF(3)
    q = kronecker_quiver(2)
    dims = {"s": 2, "t": 1}
    gens = group_generators(q, f3, dims)
    for _ in range(20):
        mats = {
            "a1": fmat(f3, [[rng.randrange(3), rng.randrange(3)]]),
            "a2": fmat(f3, [[rng.randrange(3), rng.randrange(3)]]),
        }
        w = Representation(q, f3, dims, mats)
        wp = kronecker_rep(
            f3,
            [fmat(f3, [[1, 0]]), fmat(f3, [[0, 1]])],
            dims,
        )
        d0 = len(hom_space(w, wp))
        g, _ = gens[rng.randrange(len(gens))]
        assert len(hom_space(w.act(g), wp)) == d0


def test_base_change_hom_dim_stable():
    f2 = GF(2)
    pair = GaloisPair.finite(2, 2)
    w = kronecker_rep(f2, [1, 1])
    wl = base_change(w, pair)
    assert end_dim(wl) == end_dim(w)
    assert wl.ring == pair.ext


def test_hom_space_over_q():
    q = kronecker_quiver(2)
    w = Representation(
        q,
        QQ,
        {"s": 1, "t": 1},
        {"a1": Mat(QQ, ((Fraction(1),),)), "a2": Mat(QQ, ((Fraction(2),),))},
    )
    assert end_dim(w) == 1
    idh = identity_hom(w)
    assert w.act(idh) == w


def _hom_grid():
    """Seeded pairs (W, W') over Q, Q(i) and (-1,-1)_Q: moved copies, fresh
    reps and W with its first arrow zeroed, on 3-Kronecker reps of dims
    (2,2), (1,2), (2,1) and (1,1), and moved Jordan loops over Q."""
    rng = random.Random(1704)
    k3, loop = kronecker_quiver(3), jordan_quiver()
    H = hamilton_quaternions()

    def entry(ring):
        if ring == H:
            return tuple(Fraction(rng.randint(-1, 1)) for _ in range(4))
        x = Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2, 3)))
        return x if ring == QQ else (x, Fraction(rng.randint(-1, 1)))

    def rep(quiver, ring, dims):
        return Representation(quiver, ring, dims, {
            a.name: Mat(ring, [[entry(ring) for _ in range(dims[a.src])]
                               for _ in range(dims[a.dst])], (dims[a.dst], dims[a.src]))
            for a in quiver.arrows
        })

    def moved(w):
        ring, o, z = w.ring, w.ring.one, w.ring.zero
        units = [o, ring.neg(o)] if ring != H else [o, H.i, H.j, H.k]
        g = {}
        for v, d in w.dims.items():
            g[v] = Mat.identity(ring, d)
            if d == 2:
                g[v] = Mat(ring, ((o, entry(ring)), (z, o))) @ Mat(ring, ((o, z), (rng.choice(units), o)))
            elif ring == H:
                g[v] = Mat(H, ((rng.choice(units),),), (1, 1))
        return w.act(g)

    grid = []
    for ring in (QQ, gaussian_rationals()):
        for n in range(12):
            dims = ({"s": 2, "t": 2}, {"s": 1, "t": 2}, {"s": 2, "t": 1})[n % 3]
            w = rep(k3, ring, dims)
            zeroed = dict(w.mats, a1=Mat.zero(ring, dims["t"], dims["s"]))
            partner = (moved(w), rep(k3, ring, dims),
                       Representation(k3, ring, dims, zeroed))[n // 3 % 3]
            grid.append((w, partner))
        # a singular Hom line, and Hom spaces of dimension 2 and 4
        lines = [rep(k3, ring, {"s": 1, "t": 1}) for _ in range(2)]
        zero = zero_maps(k3, ring, lines[0].dims)
        sums = [lines[0].direct_sum(x) for x in lines]
        grid += [(lines[0], zero), (sums[0], moved(sums[0])), (sums[1], sums[0])]
    for d in (2, 3, 2, 3):
        w = rep(loop, QQ, {"v": d})
        grid.append((w, moved(w)))
    for n in range(6):
        w = rep(k3, H, {"s": 1, "t": 1})
        grid.append((w, moved(w) if n % 2 else rep(k3, H, w.dims)))
    return grid


def test_hom_answers_pinned_on_seeded_grid():
    # the kernel basis is read off the unique RREF, and is_isomorphic's
    # search is seeded, so bases, End dimensions and isomorphisms are fixed
    digest = hashlib.sha256()
    isos = Counter()
    for w, wp in _hom_grid():
        basis = [sorted((v, m.rows) for v, m in h.items()) for h in hom_space(w, wp)]
        iso = is_isomorphic(w, wp, CFG)
        isos[iso is not None] += 1
        if iso is not None:
            assert w.act(iso) == wp
            iso = sorted((v, m.rows) for v, m in iso.items())
        digest.update(repr((basis, end_dim(w), end_dim(wp), iso)).encode())
    assert isos == {True: 21, False: 19}, isos
    assert digest.hexdigest() == (
        "c09922fa2984d5380e248ff01d7ef13c8426c2c7a845b35b6d38ff0b4361590d"
    )


# ---------------------------------------------------------------------------
# dimensions are the sizes of the bases


_SMALL = st.sampled_from([Fraction(0), Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2)])


def _entries(ring):
    if ring.is_finite:
        return st.integers(0, ring.size - 1)
    if ring == QQ:
        return _SMALL
    if ring == gaussian_rationals():
        return st.tuples(_SMALL, _SMALL)
    return st.tuples(_SMALL, _SMALL, _SMALL, _SMALL)


@st.composite
def _rep_pairs(draw, ring):
    """(w, wp) of one small quiver over ring: wp drawn alone, or w + w."""
    quiver = draw(st.sampled_from(
        [kronecker_quiver(2), kronecker_quiver(3), a2_quiver(), jordan_quiver()]
    ))
    top = 3 if ring.is_finite else 2

    def rep():
        dims = {v: draw(st.integers(0, top)) for v in quiver.vertices}
        mats = {}
        for a in quiver.arrows:
            shape = (dims[a.dst], dims[a.src])
            row = st.lists(_entries(ring), min_size=shape[1], max_size=shape[1])
            rows = draw(st.lists(row, min_size=shape[0], max_size=shape[0]))
            mats[a.name] = Mat(ring, tuple(map(tuple, rows)), shape)
        return Representation(quiver, ring, dims, mats)

    w = rep()
    return w, (w.direct_sum(w) if draw(st.booleans()) else rep())


@pytest.mark.parametrize("ring", [
    GF(2), GF(3), GF(4), GF(5), QQ, gaussian_rationals(), hamilton_quaternions()
], ids=repr)
@settings(max_examples=20, derandomize=True)
@given(data=st.data())
def test_hom_and_end_dimensions_are_the_basis_sizes(ring, data):
    w, wp = data.draw(_rep_pairs(ring))
    assert end_dim(w) == len(hom_space(w, w))
    assert homs.hom_dim(w, wp) == len(hom_space(w, wp))
    assert homs.hom_dim(wp, w) == len(hom_space(wp, w))
