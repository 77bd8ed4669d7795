"""Elementary number theory used by the arithmetic layer.

Integer factoring, valuations and factorizations of rationals, Legendre
symbols, square roots of -1 modulo p, sums of two squares, and the Hilbert
symbol over Q at a finite or infinite place.

Integers below 2^24 are factored by trial division.  Larger ones go to
sympy, which is imported only then, so no process that stays below 2^24
pays for importing it.
"""

from fractions import Fraction
from math import isqrt

from .errors import InvariantError

INF_PLACE = "inf"
_TRIAL_LIMIT = 1 << 12  # odd trial divisors stay below this
_SMALL = _TRIAL_LIMIT * _TRIAL_LIMIT  # trial division settles every n below this


def factorint(n):
    """Map prime -> exponent for an integer n >= 1, in ascending order of prime.

    Trial division settles n when its cofactor is 1 or has no divisor up to
    its square root; that covers every n < 2^24.  Otherwise the answer is
    sympy's for the original n, so its dict order is sympy's too.
    """
    if n >= 1:
        fac = {}
        m, d = n, 2
        while d < _TRIAL_LIMIT and d * d <= m:
            while m % d == 0:
                fac[d] = fac.get(d, 0) + 1
                m //= d
            d += 1 if d == 2 else 2
        if d * d > m:
            if m > 1:
                fac[m] = 1
            return fac
    from sympy import factorint as sympy_factorint

    return sympy_factorint(n)


def isprime(n):
    """Primality of an integer; sympy decides it from 2^24 on."""
    if isinstance(n, int) and n < _SMALL:
        return n >= 2 and factorint(n) == {n: 1}
    from sympy import isprime as sympy_isprime

    return sympy_isprime(n)


def mobius(n):
    """Moebius function of an integer n >= 1."""
    exps = factorint(n).values()
    if any(e > 1 for e in exps):
        return 0
    return -1 if len(exps) % 2 else 1


def valuation(x, p):
    """p-adic valuation of a nonzero int or Fraction."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    n = x.numerator
    while n % p == 0:
        n //= p
        v += 1
    d = x.denominator
    while d % p == 0:
        d //= p
        v -= 1
    return v


def rational_factor_exponents(x):
    """Map prime -> exponent for a nonzero rational, plus the sign.

    Returns (sign, {p: e}) with x = sign * prod p**e.
    """
    x = Fraction(x)
    if x == 0:
        raise ValueError("cannot factor zero")
    sign = 1 if x > 0 else -1
    exps = dict(factorint(abs(x.numerator)))
    for p, e in factorint(x.denominator).items():
        exps[p] = exps.get(p, 0) - e
    return sign, {p: e for p, e in exps.items() if e != 0}


def legendre(a, p):
    """Legendre symbol (a|p) in {-1, 0, 1} for an odd prime p.

    Accepts a rational a with p-unit denominator.
    """
    a = Fraction(a)
    num = a.numerator % p
    den = a.denominator % p
    if den == 0:
        raise ValueError("denominator not a p-unit")
    r = num * pow(den, p - 2, p) % p
    if r == 0:
        return 0
    s = pow(r, (p - 1) // 2, p)
    return 1 if s == 1 else -1


def sqrt_mod(a, p):
    """Smallest r >= 0 with r*r = a mod an odd prime p (Tonelli-Shanks);
    ValueError when a is not a square mod p."""
    a %= p
    if a == 0:
        return 0
    if pow(a, (p - 1) // 2, p) != 1:
        raise ValueError(f"{a} is not a square mod {p}")
    q, s = p - 1, 0
    while q % 2 == 0:
        q, s = q // 2, s + 1
    z = 2  # the least non-square
    while pow(z, (p - 1) // 2, p) != p - 1:
        z += 1
    c, t, r = pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    # r*r = a t throughout; each step shrinks the 2-power order of t
    while t != 1:
        i, t2 = 0, t
        while t2 != 1:
            t2, i = t2 * t2 % p, i + 1
        b = pow(c, 1 << (s - i - 1), p)
        s, c, t, r = i, b * b % p, t * b * b % p, r * b % p
    return min(r, p - r)


def sqrt_minus_one_mod(p):
    """Smallest r with r*r = -1 mod p; requires p = 1 mod 4."""
    if p % 4 != 1:
        raise ValueError("p must be 1 mod 4")
    return sqrt_mod(-1, p)


def _cornacchia_prime(p):
    # p = 1 mod 4 prime: return (s, t) with s*s + t*t = p.
    r = sqrt_minus_one_mod(p)
    a, b = p, r
    while b * b > p:
        a, b = b, a % b
    s = b
    t2 = p - s * s
    t = isqrt(t2)
    if t * t != t2:
        raise InvariantError(f"Cornacchia failed for {p}")
    return s, t


def two_squares(n):
    """Integers (s, t) with s*s + t*t = n, or None when no decomposition exists.

    Constructive via Gaussian-integer multiplication over the factorization;
    a prime p = 3 mod 4 with odd exponent makes the answer None.
    """
    if n < 0:
        return None
    if n == 0:
        return (0, 0)
    s, t = 1, 0
    for p, e in factorint(n).items():
        if p == 2:
            for _ in range(e):
                s, t = s - t, s + t  # multiply by 1 + i
        elif p % 4 == 3:
            if e % 2:
                return None
            m = p ** (e // 2)
            s, t = s * m, t * m
        else:
            a, b = _cornacchia_prime(p)
            for _ in range(e):
                s, t = s * a - t * b, s * b + t * a
    s, t = abs(s), abs(t)
    if s * s + t * t != n:
        raise InvariantError(f"two-squares composition failed for {n}")
    return (s, t)


def _unit_mod(x, m):
    # Value of the rational x, a unit mod m, in Z/m.
    num = x.numerator % m
    den = x.denominator % m
    return num * pow(den, -1, m) % m


def hilbert_symbol(a, b, place):
    """Hilbert symbol (a, b) at a place of Q, in {+1, -1}.

    +1 iff z^2 = a x^2 + b y^2 has a nontrivial solution over the completion.
    `place` is 2, an odd prime, or the string "inf".
    """
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    if place == INF_PLACE:
        return -1 if (a < 0 and b < 0) else 1
    if not isinstance(place, int) or place < 2 or not isprime(place):
        raise ValueError(f"invalid place {place!r}: expected 2, an odd prime, or 'inf'")
    p = place
    alpha = valuation(a, p)
    beta = valuation(b, p)
    u = a / Fraction(p) ** alpha
    v = b / Fraction(p) ** beta
    if p != 2:
        sign = 1
        if (alpha * beta) % 2 and (p - 1) // 2 % 2:
            sign = -sign
        if beta % 2:
            sign *= legendre(u, p)
        if alpha % 2:
            sign *= legendre(v, p)
        return sign
    u8 = _unit_mod(u, 8)
    v8 = _unit_mod(v, 8)
    eps_u = (u8 % 4) == 3
    eps_v = (v8 % 4) == 3
    omega_u = u8 in (3, 5)
    omega_v = v8 in (3, 5)
    e = (eps_u and eps_v) + alpha * omega_v + beta * omega_u
    return -1 if e % 2 else 1


def relevant_places(a, b):
    """Places where (a, b) can ramify: inf, 2, and odd primes dividing a or b."""
    places = [INF_PLACE, 2]
    primes = set()
    for x in (Fraction(a), Fraction(b)):
        for n in (x.numerator, x.denominator):
            for p in factorint(abs(n)):
                if p > 2:
                    primes.add(p)
    places.extend(sorted(primes))
    return places
