import random
from fractions import Fraction

import pytest

from quivermoduli import (
    GF,
    Mat,
    Representation,
    end_dim,
    hom_space,
    is_isomorphic,
    is_schur,
    jordan_quiver,
    kronecker_quiver,
    slope,
)
from quivermoduli.config import JobConfig
from quivermoduli.errors import SchemaError
from quivermoduli.homs import identity_hom
from quivermoduli.quiver import Arrow, Quiver, base_change, group_generators
from quivermoduli.galois import GaloisPair
from quivermoduli.rings import QQ

from helpers import fmat, kronecker_rep

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


def test_hom_space_examples():
    f2 = GF(2)
    w = kronecker_rep(f2, [1, 0])
    basis = hom_space(w, w)
    assert len(basis) == 1
    h = basis[0]
    assert h["s"] == h["t"]  # the (1,1) intertwiner line

    zero = Representation.zero_maps(kronecker_quiver(2), f2, {"s": 1, "t": 1})
    assert end_dim(zero) == 2

    loop = jordan_quiver()
    companion = Representation(loop, f2, {"v": 2}, {"loop": fmat(f2, [[0, 1], [1, 1]])})
    assert end_dim(companion) == 2  # End = F_4
    assert not is_schur(companion)


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
    assert end_dim(w) == 1 and is_schur(w)
    ww = w.direct_sum(w)
    assert end_dim(ww) >= 4
    assert not is_schur(ww)


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


def test_is_isomorphic_respects_dims():
    f2 = GF(2)
    q = kronecker_quiver(2)
    w1 = Representation.zero_maps(q, f2, {"s": 1, "t": 1})
    w2 = Representation.zero_maps(q, f2, {"s": 1, "t": 2})
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
