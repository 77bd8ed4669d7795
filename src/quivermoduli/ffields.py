"""Finite fields F_p and F_{p^n} with integer-encoded elements, and the
polynomials over them.

Extension field elements are encoded as integers in [0, p^n): the code of
sum(c_i x^i) is sum(c_i p^i).  Small fields (the only ones used by the
enumeration core) precompute full addition / multiplication / inverse /
Frobenius tables, which keeps the inner loops of the census at plain
list-indexing speed.  The products come from discrete logs to a
multiplicative generator, so building them takes O(s) polynomial products,
not s^2/2.  Larger fields fall back to on-the-fly polynomial arithmetic.
Only this module reads the tables: Mat's products and eliminations, and
the stability engine's image codes, call the fields' row kernels
(row_times, divide_row, row_sub), which F_p runs with one % p per entry
and a tabled F_{p^n} with table lookups.

This is the one polynomial module over finite fields, with one product
over F_p, `_poly_mul_p`, and one power, `_poly_powmod`, shared by the
modulus test and by an untabled F_{p^n}'s products, inverses and
Frobenius.  `monic_irreducibles` lists every monic irreducible up to a
degree by a linear sieve, for the similarity classes of the census.  The
modulus of F_{p^n} is found instead by Ben-Or's irreducibility test (FOCS
1981), which needs polynomially many products in n and log p, where a
sieve would list all p^n candidates, and refuses most reducible
candidates after a few products: `ExtensionField(2, 40)` is a valid
field.  `default_modulus` is the first irreducible in code order; it
fixes every element code, so it must not change.
"""

from itertools import product
from operator import itemgetter, mul as int_mul

from .errors import NotInvertibleError
from .numtheory import factorint, isprime
from .rings import Ring, json_int

_TABLE_LIMIT = 1024  # build s*s tables only up to this field size


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (coefficient lists, low degree first)


def _poly_trim(c):
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, field):
    """Product of coefficient lists over a field object, on the codes: over
    F_p one % p per coefficient, over a tabled F_{p^n} its add and mul
    tables, and the field's operations otherwise."""
    if isinstance(field, PrimeField):
        return _poly_mul_p(a, b, field.p)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    if field._tables:
        s, add, mul = field.size, field._add_t, field._mul_t
        for i, ai in enumerate(a):
            if ai:
                row = ai * s
                for j, bj in enumerate(b, i):
                    if bj:
                        out[j] = add[out[j] * s + mul[row + bj]]
        return _poly_trim(out)
    add, mul = field.add, field.mul
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    out[j] = add(out[j], mul(ai, bj))
    return _poly_trim(out)


def _poly_mul_p(a, b, p):
    """Product of coefficient lists over F_p, one % p per coefficient."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                out[j] += ai * bj
    return _poly_trim([c % p for c in out])


def _poly_mod(c, mod, p):
    c = list(c)
    dm = len(mod) - 1
    while len(c) > dm:
        lead = c[-1]
        if lead:
            shift = len(c) - 1 - dm
            for i, mi in enumerate(mod):
                c[shift + i] = (c[shift + i] - lead * mi) % p
        c.pop()
    return _poly_trim(c)


def _poly_powmod(a, e, mod, p):
    result = [1]
    base = _poly_mod(a, mod, p)
    while e:
        if e & 1:
            result = _poly_mod(_poly_mul_p(result, base, p), mod, p)
        base = _poly_mod(_poly_mul_p(base, base, p), mod, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = list(a), list(b)
    while b:
        # a mod b with b made monic
        lead_inv = pow(b[-1], p - 2, p)
        a, b = b, _poly_mod(a, [(x * lead_inv) % p for x in b], p)
    return a


def _minus_x(c, p):
    c = list(c) + [0] * (2 - len(c))
    c[1] = (c[1] - 1) % p
    return _poly_trim(c)


def is_irreducible(coeffs, p):
    """Irreducibility over F_p of a monic polynomial given low-first
    (Ben-Or, FOCS 1981): f of degree n is irreducible iff
    gcd(f, x^(p^i) - x) = 1 for every i <= n/2, x^(p^i) mod f being the
    p-th power of x^(p^(i-1)).  The first i with a nontrivial gcd ends the
    test, so a polynomial with a factor of low degree costs few products."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        return False
    mod = list(coeffs)
    power = [0, 1]  # x^(p^i) mod f
    for _ in range(n // 2):
        power = _poly_powmod(power, p, mod, p)
        if len(_poly_gcd(mod, _minus_x(power, p), p)) > 1:
            return False
    return True


def monic_irreducibles(field, max_degree):
    """All monic irreducible polynomials of degree <= max_degree (low first),
    by degree and within a degree in product(elems) order.

    A linear sieve (Gries and Misra, CACM 21 (1978)): each reducible is made
    once, as p r, with p its least irreducible factor in output order and r
    any monic whose least factor comes no earlier than p.  least[m] maps
    each monic of degree m < max_degree to the output index of its least
    factor; the top degree keeps only the reducibles it made.
    """
    out = []
    elems = list(field.elements())
    one = (field.one,)
    least = [{}]
    bounds = [(0, 0)]  # bounds[k]: the output slice of the degree-k irreducibles
    for deg in range(1, max_degree + 1):
        made = {}
        for k in range(1, deg // 2 + 1):
            lo, hi = bounds[k]
            for r, r_least in least[deg - k].items():
                for i in range(lo, min(hi, r_least + 1)):
                    made[tuple(_poly_mul(out[i], r, field))] = i
        start = len(out)
        out.extend(c for tail in product(elems, repeat=deg) if (c := tail + one) not in made)
        if deg < max_degree:
            made.update(zip(out[start:], range(start, len(out))))
            least.append(made)
            bounds.append((start, len(out)))
    return out


def default_modulus(p, n):
    """First irreducible monic polynomial of degree n over F_p in code order.

    Code order scans constant-plus-low coefficients first, so the result is
    reproducible; for (2, 2) it is x^2 + x + 1 and for (3, 2) it is x^2 + 1.
    """
    for code in range(p**n):
        coeffs = _decode(code, p, n) + [1]
        if is_irreducible(coeffs, p):
            return coeffs
    raise RuntimeError(f"no irreducible polynomial of degree {n} over F_{p}")


def _decode(code, p, n):
    out = []
    for _ in range(n):
        out.append(code % p)
        code //= p
    return out


def _encode(coeffs, p):
    out = 0
    for c in reversed(coeffs):
        out = out * p + (c % p)
    return out


class _FiniteField(Ring):
    """What F_p and F_{p^n} share: payloads are codes in [0, size).

    zero and one stay instance attributes in each subclass: on the hot
    paths an instance lookup is markedly faster than one through the type.
    """

    is_finite = True
    _generator = None

    def from_int(self, n):
        return n % self.p

    def elements(self):
        return range(self.size)

    def units(self):
        return range(1, self.size)

    def random(self, rng):
        return rng.randrange(self.size)

    def multiplicative_generator(self):
        """The least code that generates the unit group (1 for F_2), found
        once per field (by _build_tables when the field has tables)."""
        if self._generator is None:
            order = self.size - 1
            fac = factorint(order)
            units = range(2, self.size)
            self._generator = next(
                (g for g in units if all(self._pow_code(g, order // q) != 1 for q in fac)), 1
            )
        return self._generator


class PrimeField(_FiniteField):
    """F_p; payloads are ints in [0, p)."""

    def __init__(self, p):
        if not isprime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.size = p
        self.zero = 0
        self.one = 1 % p
        self.subspaces = {}  # dim -> the subspaces of F_p^dim, kept by stability

    def add(self, x, y):
        return (x + y) % self.p

    def sub(self, x, y):
        return (x - y) % self.p

    def neg(self, x):
        return -x % self.p

    def mul(self, x, y):
        return x * y % self.p

    def inv(self, x):
        if x % self.p == 0:
            raise NotInvertibleError(f"0 has no inverse in F_{self.p}")
        return pow(x, self.p - 2, self.p)

    def _pow_code(self, x, e):
        return pow(x, e, self.p)

    # --- row kernels: one % p per output entry or updated entry ---

    def row_times(self, row, cols):
        p = self.p
        return tuple([sum(map(int_mul, row, col)) % p for col in cols])

    def divide_row(self, x, row):
        p = self.p
        t = pow(x, p - 2, p)
        return [t * y % p for y in row]

    def row_sub(self, row, f, prow, support):
        p = self.p
        for j in support:
            row[j] = (row[j] - f * prow[j]) % p

    def frobenius(self, x, power=1):
        return x

    def to_json(self, x):
        return x

    def from_json(self, data):
        return json_int(data, "prime field element") % self.p

    def descriptor(self):
        return {"type": "prime", "p": self.p}

    def __repr__(self):
        return f"F_{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


class ExtensionField(_FiniteField):
    """F_{p^n} as F_p[x]/(modulus); payloads are codes in [0, p^n)."""

    def __init__(self, p, n, modulus=None):
        if n < 2:
            raise ValueError("use PrimeField for n = 1")
        self.p = p
        self.n = n
        self.base = PrimeField(p)
        if modulus is None:
            modulus = default_modulus(p, n)  # irreducible by construction
        else:
            modulus = [c % p for c in modulus]
            if len(modulus) != n + 1 or modulus[-1] != 1:
                raise ValueError(f"modulus must be monic of degree {n}")
            if not is_irreducible(modulus, p):
                raise ValueError(f"modulus {modulus} is reducible over F_{p}")
        self.modulus = tuple(modulus)
        self.size = p**n
        self.zero = 0
        self.one = 1
        self.gen = p  # the class of x
        self.subspaces = {}  # dim -> the subspaces of F_q^dim, kept by stability
        self._tables = None
        if self.size <= _TABLE_LIMIT:
            self._build_tables()

    # --- raw polynomial ops on codes ---

    def _mul_codes(self, x, y):
        c = _poly_mul_p(_decode(x, self.p, self.n), _decode(y, self.p, self.n), self.p)
        return _encode(_poly_mod(c, self.modulus, self.p), self.p)

    def _add_codes(self, x, y):
        a = _decode(x, self.p, self.n)
        b = _decode(y, self.p, self.n)
        return _encode([(u + v) % self.p for u, v in zip(a, b)], self.p)

    def _build_tables(self):
        """The s*s add and mul tables and the neg, inv and frob lists.

        mul, inv and frob come from discrete logs to a multiplicative
        generator g, whose powers take s - 2 polynomial products:
        x y = g^(log x + log y).  add and neg work digit by digit on the
        base-p codes, which is XOR when p = 2.
        """
        s, p, n = self.size, self.p, self.n
        order = s - 1
        g = self.multiplicative_generator()
        antilog = [1] * order
        for k in range(1, order):
            antilog[k] = self._mul_codes(antilog[k - 1], g)
        log = [0] * s
        for k, x in enumerate(antilog):
            log[x] = k
        twice = antilog + antilog
        by_log = itemgetter(*log[1:])  # row of g^l: entry y is g^(l + log y)
        mul = [0] * s
        for x in range(1, s):
            mul.append(0)
            mul += by_log(twice[log[x] : log[x] + order])
        inv = [0] + [antilog[-log[x] % order] for x in range(1, s)]
        frob = [0] + [antilog[p * log[x] % order] for x in range(1, s)]
        if p == 2:
            add = [x ^ y for x in range(s) for y in range(s)]
            neg = list(range(s))
        else:
            add = []
            for x in range(s):
                # y -> x + y shifts each base-p digit of y cyclically
                row = [0]
                for i in reversed(range(n)):
                    xi, unit = x // p**i % p, p**i
                    shift = [(xi + t) % p * unit for t in range(p)]
                    row = [r + u for r in row for u in shift]
                add += row
            neg = [_encode([-c for c in _decode(x, p, n)], p) for x in range(s)]
        self._tables = (add, mul, neg, inv, frob)
        self._add_t, self._mul_t, self._neg_t, self._inv_t, self._frob_t = self._tables

    def _pow_code(self, x, e):
        return _encode(_poly_powmod(_decode(x, self.p, self.n), e, self.modulus, self.p), self.p)

    # --- ring interface ---

    def add(self, x, y):
        if self._tables:
            return self._add_t[x * self.size + y]
        return self._add_codes(x, y)

    def sub(self, x, y):
        if self._tables:
            return self._add_t[x * self.size + self._neg_t[y]]
        return self._add_codes(x, self.neg(y))

    def neg(self, x):
        if self._tables:
            return self._neg_t[x]
        a = _decode(x, self.p, self.n)
        return _encode([-c % self.p for c in a], self.p)

    def mul(self, x, y):
        if self._tables:
            return self._mul_t[x * self.size + y]
        return self._mul_codes(x, y)

    def inv(self, x):
        if x == 0:
            raise NotInvertibleError(f"0 has no inverse in {self!r}")
        if self._tables:
            return self._inv_t[x]
        return self._pow_code(x, self.size - 2)

    # --- row kernels: table lookups over nonzero entries, or Ring's
    # per-entry loops when the field has no tables ---

    def row_times(self, row, cols):
        if not self._tables:
            return Ring.row_times(self, row, cols)
        s, add, mul = self.size, self._add_t, self._mul_t
        terms = [(j, a * s) for j, a in enumerate(row) if a]
        out = []
        for col in cols:
            acc = 0
            for j, a in terms:
                b = col[j]
                if b:
                    acc = add[acc * s + mul[a + b]]
            out.append(acc)
        return tuple(out)

    def divide_row(self, x, row):
        if not self._tables:
            return Ring.divide_row(self, x, row)
        mul, t = self._mul_t, self._inv_t[x] * self.size
        return [mul[t + y] for y in row]

    def row_sub(self, row, f, prow, support):
        if not self._tables:
            return Ring.row_sub(self, row, f, prow, support)
        s, add, mul = self.size, self._add_t, self._mul_t
        f = self._neg_t[f] * s
        for j in support:
            row[j] = add[row[j] * s + mul[f + prow[j]]]

    def frobenius(self, x, power=1):
        """x -> x^(p^power), the canonical generator of Gal(F_{p^n}/F_p)."""
        for _ in range(power % self.n):
            x = self._frob_t[x] if self._tables else self._pow_code(x, self.p)
        return x

    def embed_base(self, x):
        """F_p -> F_{p^n} as constant polynomials."""
        return x % self.p

    def to_base(self, x):
        if x >= self.p:
            raise ValueError(f"code {x} is not in the prime subfield")
        return x

    def coeffs(self, x):
        return _decode(x, self.p, self.n)

    def from_coeffs(self, coeffs):
        return _encode(list(coeffs) + [0] * (self.n - len(coeffs)), self.p)

    def to_json(self, x):
        return self.coeffs(x)

    def from_json(self, data):
        if isinstance(data, (int, float)):  # json_int refuses bools and floats
            return json_int(data, "extension field element") % self.p
        if not isinstance(data, list) or len(data) > self.n:
            raise ValueError(f"bad extension field element {data!r}")
        return self.from_coeffs([json_int(c, "coefficient") for c in data])

    def descriptor(self):
        return {"type": "ext", "p": self.p, "n": self.n, "modulus": list(self.modulus)}

    def __repr__(self):
        return f"F_{self.p}^{self.n}"

    def __eq__(self, other):
        return (
            isinstance(other, ExtensionField)
            and other.p == self.p
            and other.n == self.n
            and other.modulus == self.modulus
        )

    def __hash__(self):
        return hash(("ext", self.p, self.n, self.modulus))


def prime_power(q):
    """(p, n) with q = p^n, or ValueError; builds no field."""
    fac = factorint(q) if q >= 2 else {}
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    ((p, n),) = fac.items()
    return p, n


def GF(q, modulus=None):
    """Finite field of order q = p^n (q prime gives PrimeField)."""
    p, n = prime_power(q)
    if n == 1:
        return PrimeField(p)
    return ExtensionField(p, n, modulus)
