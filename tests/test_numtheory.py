import hashlib
import random
from fractions import Fraction
from itertools import product
from math import isqrt

import pytest
import sympy
from sympy.ntheory import factor_ as sympy_factor_module

from quivermoduli.numtheory import (
    factorint,
    hilbert_symbol,
    isprime,
    legendre,
    mobius,
    relevant_places,
    sqrt_minus_one_mod,
    sqrt_mod,
    two_squares,
    valuation,
)

# Around the trial-division bound 2^24 and beyond it, where sympy answers.
LARGE = [
    2**24 - 3, 2**24 + 1, 4093 * 4099, 4099**2, 2**61 - 1, 2**127 - 2, 2**127 - 1,
    561 * 4099 * 4111, 10**18 + 9,
]


def _cold_items(factor, n):
    """factor(n) as a list, on an empty sympy factor cache.  sympy lists the
    large factors of n in an order that depends on what its process-wide
    cache already holds, so each call starts from the same state."""
    cache = getattr(sympy_factor_module, "factor_cache", None)
    if cache is not None:
        cache.cache_clear()
    return list(factor(n).items())


def test_factorint_matches_sympy_in_order():
    for n in list(range(1, 1 << 16)) + LARGE:
        assert _cold_items(factorint, n) == _cold_items(sympy.factorint, n), n


def test_isprime_matches_sympy():
    for n in list(range(-5, 1 << 16)) + LARGE:
        assert isprime(n) == sympy.isprime(n), n


def test_mobius_matches_sympy():
    for n in range(1, 5000):
        assert mobius(n) == sympy.mobius(n), n


_BIG_PRIMES = (4099, 4111, 4129, 4153, 65537, 1000003)


def test_two_squares_pinned():
    # SHA-256 of the answers from when sympy factored every n, on a grid
    # with prime factors above the 2^12 trial-division bound
    grid = list(range(-2, 3000)) + [
        m * p * r for p, r in product(_BIG_PRIMES, (1, 4099, 4129)) for m in (1, 2, 5, 9, 13, 21)
    ]
    got = hashlib.sha256(repr([two_squares(n) for n in grid]).encode()).hexdigest()
    assert got == "07d8899c0a022d3c5a7da4a0aabd46c2859ba32d544aee382e942f46e0be3759"


def test_relevant_places_pinned():
    grid = [
        Fraction(n, d)
        for n in (1, -1, 2, -3, 10, 4099, -4129, 4099 * 4111, 2 * 65537, 2**61 - 1)
        for d in (1, 7, 4153, 9 * 4129)
    ]
    got = [relevant_places(a, b) for a in grid for b in grid]
    digest = hashlib.sha256(repr(got).encode()).hexdigest()
    assert digest == "f10462274efb476cf3b474da6d8d8945a020f84e36d2f48bcce7ba09fb57959f"


def brute_two_squares(n):
    for s in range(isqrt(n) + 1):
        t2 = n - s * s
        t = isqrt(t2)
        if t * t == t2:
            return (s, t)
    return None


def test_two_squares_against_brute_force():
    for n in range(0, 500):
        got = two_squares(n)
        want = brute_two_squares(n)
        assert (got is None) == (want is None), n
        if got is not None:
            s, t = got
            assert s * s + t * t == n


def test_two_squares_large():
    n = 1000003 * 1000003  # square of a prime = 3 mod 4
    s, t = two_squares(n)
    assert s * s + t * t == n


def test_sqrt_minus_one():
    for p in (5, 13, 17, 29, 101):
        r = sqrt_minus_one_mod(p)
        assert r * r % p == p - 1
    with pytest.raises(ValueError):
        sqrt_minus_one_mod(7)


def test_sqrt_mod_is_the_least_root():
    # against a scan of every residue, squares and non-squares, p = 3 to 97
    for p in (3, 5, 7, 11, 13, 17, 41, 73, 97):
        for a in range(-p, 2 * p):
            roots = [r for r in range(p) if (r * r - a) % p == 0]
            if roots:
                assert sqrt_mod(a, p) == roots[0], (a, p)
            else:
                with pytest.raises(ValueError):
                    sqrt_mod(a, p)
    # p - 1 = 2^16: the longest Tonelli-Shanks loop for its size
    p = 2**16 + 1
    for a in (2, 13, 38):
        r = sqrt_mod(a, p)
        assert r * r % p == a and 2 * r < p


def test_valuation_and_squarefree():
    assert valuation(Fraction(12), 2) == 2
    assert valuation(Fraction(5, 8), 2) == -3


def test_legendre_small():
    # squares mod 7: 1, 2, 4
    assert [legendre(a, 7) for a in (1, 2, 3, 4, 5, 6)] == [1, 1, -1, 1, -1, -1]
    assert legendre(Fraction(1, 2), 7) == legendre(4, 7)


def test_hilbert_symbol_examples():
    assert hilbert_symbol(-1, -1, "inf") == -1
    assert hilbert_symbol(-1, -1, 3) == 1
    assert hilbert_symbol(-1, 5, "inf") == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 4)
    with pytest.raises(ValueError):
        hilbert_symbol(1, 1, 0)
    with pytest.raises(ValueError):
        hilbert_symbol(0, 1, 3)


def test_hilbert_symbol_vs_solvability_mod_p():
    # For odd p coprime to 2ab, a primitive solution of z^2 = a x^2 + b y^2
    # mod p is nonsingular, so the symbol must be +1 there.
    for p in (3, 5, 7, 11):
        for a in range(1, 10):
            for b in range(1, 10):
                if a % p == 0 or b % p == 0:
                    continue
                assert hilbert_symbol(a, b, p) == 1


def test_hilbert_symbol_mod3_brute():
    # Brute search for solutions mod 27 that lift by the graded Hensel
    # criterion: Q(v) = 0 mod p^(2m+1) with m the valuation of the gradient.
    # For v_3(a), v_3(b) <= 1 a primitive zero always has m <= 1, so mod 27
    # decides solvability over the 3-adics.
    def val3(n):
        if n % 3:
            return 0
        if n % 9:
            return 1
        return 2

    def solvable(a, b):
        for z in range(27):
            for x in range(27):
                for y in range(27):
                    if z % 3 == 0 and x % 3 == 0 and y % 3 == 0:
                        continue
                    g = [2 * z % 27, (-2 * a * x) % 27, (-2 * b * y) % 27]
                    m = min(val3(c) if c else 2 for c in g)
                    if m > 1:
                        continue
                    if (z * z - a * x * x - b * y * y) % 3 ** (2 * m + 1) == 0:
                        return True
        return False

    for a in (-2, -1, 1, 2, 3, 6):
        for b in (-3, -1, 1, 3):
            want = 1 if solvable(a, b) else -1
            assert hilbert_symbol(a, b, 3) == want, (a, b)


def test_hilbert_reciprocity_random():
    rng = random.Random(7)
    for _ in range(200):
        a = rng.randint(-30, 30)
        b = rng.randint(-30, 30)
        if a == 0 or b == 0:
            continue
        prod = 1
        for place in relevant_places(a, b):
            prod *= hilbert_symbol(a, b, place)
        assert prod == 1, (a, b)


def test_hilbert_symbol_bilinearity():
    rng = random.Random(11)
    for _ in range(100):
        a = rng.choice([-1, 2, 3, 5, -6, 7, 10])
        b = rng.choice([-1, 2, 3, 5, -6, 7, 10])
        c = rng.choice([-1, 2, 3, 5, -6, 7, 10])
        for place in (2, 3, 5, 7, "inf"):
            lhs = hilbert_symbol(a, b * c, place)
            rhs = hilbert_symbol(a, b, place) * hilbert_symbol(a, c, place)
            assert lhs == rhs
