import hashlib
import random
import time
import tracemalloc
from fractions import Fraction
from itertools import product

import pytest
from sympy import primerange

from quivermoduli import GF, ExtensionField, PrimeField, NotInvertibleError
from quivermoduli.ffields import _poly_mul, default_modulus, is_irreducible, monic_irreducibles
from quivermoduli.numtheory import isprime
from quivermoduli.rings import QQ, QuadraticField, gaussian_rationals

from helpers import reference_field_tables, reference_is_irreducible, reference_monic_irreducibles


def check_field_axioms(field, elems):
    for a in elems:
        assert field.add(a, field.zero) == a
        assert field.mul(a, field.one) == a
        assert field.add(a, field.neg(a)) == field.zero
        if a != field.zero:
            assert field.mul(a, field.inv(a)) == field.one
    for a in elems:
        for b in elems:
            assert field.add(a, b) == field.add(b, a)
            assert field.mul(a, b) == field.mul(b, a)
            for c in elems:
                assert field.mul(a, field.add(b, c)) == field.add(
                    field.mul(a, b), field.mul(a, c)
                )


def test_prime_field_axioms():
    for p in (2, 3, 5):
        check_field_axioms(PrimeField(p), list(range(p)))


def test_extension_field_axioms_f4_f9():
    for q in (4, 9):
        f = GF(q)
        check_field_axioms(f, list(f.elements()))


def test_prime_field_rejects_composites():
    with pytest.raises(ValueError):
        PrimeField(6)


def test_default_moduli():
    assert default_modulus(2, 2) == [1, 1, 1]  # x^2 + x + 1
    assert default_modulus(3, 2) == [1, 0, 1]  # x^2 + 1
    assert is_irreducible(default_modulus(2, 3), 2)
    assert is_irreducible(default_modulus(5, 2), 5)
    # The modulus fixes every element code: pin it for the 51 fields with
    # p^n <= 10^4.
    moduli = [
        (p, n, tuple(default_modulus(p, n)))
        for p in primerange(2, 101)
        for n in range(2, 14)
        if p**n <= 10**4
    ]
    assert len(moduli) == 51
    digest = hashlib.sha256(repr(moduli).encode()).hexdigest()
    assert digest == "a5e782cd47788dddd73328039e49f64812d6f0706f6437dfd7fd919069967065"
    assert default_modulus(2, 40) == [1, 0, 0, 1, 1, 1] + [0] * 34 + [1]  # x^40+x^5+x^4+x^3+1


def test_ben_or_agrees_with_rabin_on_every_small_monic():
    # Ben-Or's early stop against Rabin's test: every monic polynomial of
    # degree <= 8 over F_2 and <= 5 over F_3, plus a non-monic one
    for p, top in ((2, 8), (3, 5)):
        checked = 0
        for n in range(1, top + 1):
            for tail in product(range(p), repeat=n):
                coeffs = list(tail) + [1]
                assert is_irreducible(coeffs, p) == reference_is_irreducible(coeffs, p), (p, coeffs)
                checked += 1
        assert checked == sum(p**n for n in range(1, top + 1))
    assert not is_irreducible([1, 1, 2], 3) and not reference_is_irreducible([1, 1, 2], 3)
    # the same first irreducible in code order, so every element code stays
    for p in (2, 3, 5, 7):
        for n in range(2, 13):
            first = next(
                c for tail in product(range(p), repeat=n)
                if reference_is_irreducible(c := list(reversed(tail)) + [1], p)
            )
            assert default_modulus(p, n) == first, (p, n)


def test_tables_match_pairwise_reference():
    # the log/antilog and digit-by-digit tables against one polynomial
    # product per pair, for every extension field with p^n <= 125
    fields = [(p, n) for p in primerange(2, 12) for n in range(2, 8) if p**n <= 125]
    assert len(fields) == 12
    for p, n in fields:
        f = ExtensionField(p, n)
        assert f._tables == reference_field_tables(f), (p, n)


@pytest.mark.parametrize("p, n, digest", [
    (2, 8, "7bcb56d9cc2d7a494360b408986f82b5392d3d60651c8cb005b2f670106675b9"),
    (3, 6, "8df8e72ead2c94c998708d2d16f6cda3a74bc04c9062de1f686985747bff39c9"),
    (2, 10, "78259b1045dead76fd4b4f571805d297b3731610d9f9cc0d59cb640a4f265a70"),
], ids=["F_256", "F_729", "F_1024"])
def test_large_field_tables(p, n, digest):
    # (add, mul, neg, inv, frob) of F_256, F_729 and F_1024 as the pairwise
    # construction built them (0.8 s, 5.4 s and 17.7 s on a 2-core host)
    t0 = time.monotonic()
    f = ExtensionField(p, n)
    assert time.monotonic() - t0 < 1.5
    assert hashlib.sha256(repr(f._tables).encode()).hexdigest() == digest


def test_modulus_validation():
    with pytest.raises(ValueError):
        ExtensionField(2, 2, [0, 0, 1])  # x^2 is reducible
    with pytest.raises(ValueError):
        ExtensionField(2, 2, [1, 1])  # wrong degree


def test_frobenius_f4():
    f4 = GF(4)
    w = 2  # class of x
    assert f4.mul(w, w) == 3  # w^2 = w + 1
    assert f4.frobenius(w) == 3
    assert f4.frobenius(f4.frobenius(w)) == w
    for x in f4.elements():
        assert f4.frobenius(x) == f4.mul(x, x)


def test_extension_field_without_tables():
    # big enough to skip table construction; ops fall back to polynomials
    f = ExtensionField(5, 5)  # 3125 elements
    assert f._tables is None
    x = f.gen
    y = f.add(x, f.one)
    assert f.mul(y, f.inv(y)) == f.one
    assert f.frobenius(f.frobenius(x, 2), 3) == x  # sigma^5 = id


def test_untabled_inverse_and_frobenius_are_powers():
    # over F_{2^11}, with no tables, inv and frobenius are powers by one
    # square-and-multiply on polynomials, checked against the product
    f = GF(2**11)
    assert f._tables is None
    rng = random.Random(11)
    for x in [f.gen, f.size - 1] + [rng.randrange(1, f.size) for _ in range(30)]:
        assert f.mul(f.inv(x), x) == f.one
        assert f.frobenius(x) == f.mul(x, x)


def test_poly_mul_against_schoolbook():
    # the F_p, tabled and untabled paths against a product through the
    # field's own add and mul, trailing zeros trimmed
    rng = random.Random(7)
    for field in (GF(2), GF(7), GF(4), GF(9), ExtensionField(5, 5)):
        for _ in range(40):
            a = [field.random(rng) for _ in range(rng.randint(0, 5))]
            b = [field.random(rng) for _ in range(rng.randint(0, 5))]
            want = [field.zero] * max(len(a) + len(b) - 1, 0)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    want[i + j] = field.add(want[i + j], field.mul(x, y))
            while want and want[-1] == field.zero:
                want.pop()
            assert _poly_mul(a, b, field) == want, (field, a, b)


def test_linear_sieve_matches_the_marking_sieve():
    # the same list in the same order as the sieve that marks every product
    # p r; over F_p also as the product-order filter by is_irreducible.  The
    # grid runs over prime, tabled and untabled (F_{2^11}) fields.
    grid = [(2, 6), (3, 4)] + [(q, 3) for q in (4, 5, 7, 8, 9)]
    grid += [(q, 2) for q in (16, 25, 27, 49)] + [(2**11, 1)]
    assert GF(2**11)._tables is None
    for q, d in grid:
        field = GF(q)
        got = monic_irreducibles(field, d)
        assert got == reference_monic_irreducibles(field, d), (q, d)
        if isprime(q):
            candidates = (t + (1,) for n in range(1, d + 1) for t in product(range(q), repeat=n))
            assert got == [c for c in candidates if is_irreducible(c, q)], (q, d)


def test_linear_sieve_peak_stays_within_the_marking_sieve():
    # the top degree keeps only the reducibles it made, so the linear
    # sieve's lower-degree table costs no peak memory
    for q, d in ((25, 3), (211, 2)):
        field = GF(q)
        peaks = []
        for sieve in (monic_irreducibles, reference_monic_irreducibles):
            sieve(field, d)  # keeps a first call's one-off allocations out
            tracemalloc.start()
            sieve(field, d)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        assert peaks[0] <= peaks[1], (q, d, peaks)


def test_multiplicative_generator():
    for q in (3, 4, 5, 9):
        f = GF(q)
        g = f.multiplicative_generator()
        seen = set()
        x = f.one
        for _ in range(q - 1):
            seen.add(x)
            x = f.mul(x, g)
        assert len(seen) == q - 1


def test_multiplicative_generator_is_least_and_found_once(monkeypatch):
    # the least generating code, as before it was kept on the field; after
    # the first search (by _build_tables when the field has tables) no call
    # factors q - 1 again, and GL_0 asks for no generator at all
    from quivermoduli import ffields
    from quivermoduli.quiver import generators_of_gln

    def unit_order(f, g):
        x, k = g, 1
        while x != f.one:
            x, k = f.mul(x, g), k + 1
        return k

    factorings = []
    real = ffields.factorint
    monkeypatch.setattr(ffields, "factorint", lambda n: factorings.append(n) or real(n))
    for q in (2, 3, 4, 5, 7, 8, 9, 25, 49, 3125):
        f = GF(q)
        least = next((g for g in range(2, q) if unit_order(f, g) == q - 1), 1)
        assert generators_of_gln(f, 0) == []
        factorings.clear()
        assert [f.multiplicative_generator() for _ in range(3)] == [least] * 3
        assert len(generators_of_gln(f, 2)) == 2 + (least != f.one)
        assert factorings == ([] if getattr(f, "_tables", None) else [q - 1])


def test_rational_field():
    assert QQ.add(Fraction(1, 2), Fraction(1, 3)) == Fraction(5, 6)
    assert QQ.inv(Fraction(-2, 7)) == Fraction(-7, 2)
    with pytest.raises(NotInvertibleError):
        QQ.inv(Fraction(0))
    assert QQ.from_json("3/4") == Fraction(3, 4)
    assert QQ.to_json(Fraction(-5)) == "-5"


def test_quadratic_field_arithmetic():
    Qi = gaussian_rationals()
    i = Qi.sqrt_gen
    assert Qi.mul(i, i) == Qi.from_int(-1)
    x = (Fraction(2), Fraction(3))
    assert Qi.conj(x) == (Fraction(2), Fraction(-3))
    assert Qi.field_norm(x) == 13
    assert Qi.mul(x, Qi.inv(x)) == Qi.one
    q5 = QuadraticField(5)
    s = q5.sqrt_gen
    assert q5.mul(s, s) == q5.from_int(5)


def test_quadratic_field_rejects_bad_m():
    for m in (0, 1, 4, 12):
        with pytest.raises(ValueError):
            QuadraticField(m)


def test_element_serialization_round_trips():
    rng = random.Random(3)
    for ring in (QQ, gaussian_rationals(), GF(4), GF(5), QuadraticField(3)):
        for _ in range(20):
            x = ring.random(rng)
            assert ring.from_json(ring.to_json(x)) == x
