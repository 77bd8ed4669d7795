import random
from fractions import Fraction
from math import isqrt

import pytest

from quivermoduli import GaloisPair, NotDecidableError, brauer_class, galois_apply
from quivermoduli import brauer
from quivermoduli.brauer import BrauerClass
from quivermoduli.errors import InvariantError
from quivermoduli.quaternions import quat_is_division


def norm_equivalent(c1, c2):
    """Brauer-class equality decided through the norm test, as a
    cross-check of BrauerClass.__eq__."""
    if c1.is_trivial or c2.is_trivial:
        return c1.is_trivial == c2.is_trivial
    if c1.pair != c2.pair:
        return False
    return c1.pair.is_norm(Fraction(c1.lam) / Fraction(c2.lam))


def test_galois_apply_examples():
    pair = GaloisPair.finite(2, 2)
    w = 2
    assert galois_apply(pair, w, 1) == 3  # w^2 = w + 1
    assert galois_apply(pair, w, 0) == w
    gp = GaloisPair.gaussian()
    x = (Fraction(2), Fraction(3))
    assert galois_apply(gp, x, 1) == (Fraction(2), Fraction(-3))
    assert galois_apply(gp, gp.embed(7), 1) == gp.embed(7)
    with pytest.raises(ValueError):
        galois_apply(pair, w, 2)


def test_fixed_field_is_base():
    # {x in L : sigma(x) = x} = embedded base field, checked exhaustively
    for p, n in ((2, 2), (3, 2), (2, 3)):
        pair = GaloisPair.finite(p, n)
        fixed = [x for x in pair.ext.elements() if pair.is_fixed(x)]
        assert sorted(fixed) == [pair.embed(a) for a in pair.base.elements()]


def test_sigma_has_exact_order():
    for p, n in ((2, 2), (2, 3), (3, 2), (5, 2)):
        pair = GaloisPair.finite(p, n)
        for x in pair.ext.elements():
            assert pair.sigma(x, n) == x
        assert any(pair.sigma(x, 1) != x for x in pair.ext.elements())


def test_norm_examples():
    gp = GaloisPair.gaussian()
    assert gp.norm((Fraction(2), Fraction(1))) == 5
    pair = GaloisPair.finite(2, 2)
    assert pair.norm(2) == 1  # w * w^2 = 1
    # base-field elements have norm x^n
    assert gp.norm(gp.embed(Fraction(3))) == 9
    assert pair.norm(pair.embed(1)) == 1


def test_norm_multiplicative_random():
    rng = random.Random(13)
    gp = GaloisPair.gaussian()
    for _ in range(100):
        x = gp.ext.random(rng)
        y = gp.ext.random(rng)
        assert gp.norm(gp.ext.mul(x, y)) == gp.norm(x) * gp.norm(y)
    pair = GaloisPair.finite(3, 2)
    for x in pair.ext.elements():
        for y in pair.ext.elements():
            assert pair.norm(pair.ext.mul(x, y)) == pair.base.mul(
                pair.norm(x), pair.norm(y)
            )


def sum_of_two_squares(n):
    for s in range(isqrt(n) + 1):
        t2 = n - s * s
        if isqrt(t2) ** 2 == t2:
            return True
    return False


def test_is_norm_examples_and_oracle():
    gp = GaloisPair.gaussian()
    assert gp.is_norm(Fraction(5))
    assert not gp.is_norm(Fraction(-1))
    assert gp.is_norm(Fraction(9))
    # oracle: lam = n/d is a sum of two rational squares iff n*d is a sum of
    # two integer squares
    for n in range(1, 80):
        for d in range(1, 20):
            lam = Fraction(n, d)
            assert gp.is_norm(lam) == sum_of_two_squares(
                lam.numerator * lam.denominator
            ), lam
    pair = GaloisPair.finite(2, 2)
    assert pair.is_norm(1)


def test_is_norm_subgroup_properties():
    gp = GaloisPair.gaussian()
    rng = random.Random(17)
    norms = []
    while len(norms) < 15:
        lam = Fraction(rng.randint(1, 400), rng.randint(1, 40))
        if gp.is_norm(lam):
            norms.append(lam)
    for a in norms:
        assert gp.is_norm(1 / a)
        for b in norms:
            assert gp.is_norm(a * b)


def test_is_norm_not_decidable_for_other_m():
    pair = GaloisPair.quadratic(5)
    with pytest.raises(NotDecidableError):
        pair.is_norm(Fraction(11))


def test_norm_witness():
    gp = GaloisPair.gaussian()
    for lam in (Fraction(5), Fraction(9), Fraction(2, 49), Fraction(13, 17)):
        if not gp.is_norm(lam):
            continue
        a = gp.norm_witness(lam)
        assert gp.norm(a) == lam
    pair = GaloisPair.finite(3, 2)
    for lam in (1, 2):
        a = pair.norm_witness(lam)
        assert pair.norm(a) == lam


def test_brauer_class_examples():
    gp = GaloisPair.gaussian()
    cls = brauer_class(Fraction(-1), gp)
    assert not cls.is_trivial
    assert cls.index == 2
    alg = cls.quaternion_algebra()
    assert (alg.a, alg.b) == (-1, -1)
    assert brauer_class(Fraction(9), gp).is_trivial
    pair = GaloisPair.finite(2, 2)
    assert brauer_class(1, pair).is_trivial
    assert brauer_class(2, GaloisPair.finite(3, 2)).is_trivial


def test_brauer_equality_iff_norm_quotient():
    gp = GaloisPair.gaussian()
    rng = random.Random(23)
    lams = []
    while len(lams) < 20:
        lam = Fraction(rng.randint(-60, 60), rng.randint(1, 20))
        if lam != 0:
            lams.append(lam)
    for a in lams:
        for b in lams:
            eq = brauer_class(a, gp) == brauer_class(b, gp)
            assert eq == gp.is_norm(a / b), (a, b)
            assert eq == norm_equivalent(brauer_class(a, gp), brauer_class(b, gp))


def test_division_cross_check():
    # quat_is_division(-1, lam) iff the class of lam over Q(i)/Q is nontrivial:
    # two independent code paths (Hilbert symbols vs norm membership).
    gp = GaloisPair.gaussian()
    for n in range(-40, 41):
        if n == 0:
            continue
        lam = Fraction(n)
        assert quat_is_division(-1, lam) == (not brauer_class(lam, gp).is_trivial), n


def test_split_nonnorm_class_raises_invariant_error(monkeypatch):
    # a non-norm lambda whose quaternion algebra splits contradicts the
    # Hilbert-symbol cross-check; it must raise even under python -O
    monkeypatch.setattr(brauer, "quat_is_division", lambda a, b: False)
    with pytest.raises(InvariantError):
        brauer_class(Fraction(-1), GaloisPair.gaussian())
    assert brauer_class(Fraction(9), GaloisPair.gaussian()).is_trivial


def test_trivial_class_has_index_one():
    assert BrauerClass.trivial().index == 1


def test_quadratic_fixed_field_is_base():
    gp = GaloisPair.gaussian()
    rng = random.Random(55)
    for _ in range(30):
        x = gp.ext.random(rng)
        assert gp.is_fixed(x) == (x[1] == 0)
    # a basis of L over k: 1 and sqrt(m); only the first is fixed
    assert gp.is_fixed(gp.ext.one)
    assert not gp.is_fixed(gp.ext.sqrt_gen)


def test_galois_apply_domain_errors():
    from quivermoduli.errors import SchemaError

    pair = GaloisPair.finite(2, 2)
    with pytest.raises(SchemaError):
        galois_apply(pair, 17, 1)  # not a code of F_4
    with pytest.raises(SchemaError):
        galois_apply(pair, (Fraction(1), Fraction(0)), 1)  # wrong field entirely
    gp = GaloisPair.gaussian()
    with pytest.raises(SchemaError):
        galois_apply(gp, 3, 1)
