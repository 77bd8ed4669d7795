"""Coefficient rings with exact arithmetic.

Elements are plain immutable payloads (int codes, Fraction, or tuples of
Fractions); all arithmetic goes through the ring object, so matrices and
solvers can be written once, generically.  Ring objects compare structurally
and are safe to share between threads; no value is ever mutated.

This module provides the rationals and real quadratic / imaginary quadratic
fields Q(sqrt(m)).  Finite fields live in `ffields`, quaternion algebras in
`quaternions`.
"""

from fractions import Fraction

from .errors import NotInvertibleError, SchemaError
from .numtheory import rational_factor_exponents


class Ring:
    """Base class for exact coefficient rings."""

    is_field = True
    is_finite = False
    size = None

    # --- arithmetic on payloads ---

    def add(self, x, y):
        raise NotImplementedError

    def neg(self, x):
        raise NotImplementedError

    def mul(self, x, y):
        raise NotImplementedError

    def inv(self, x):
        raise NotImplementedError

    def sub(self, x, y):
        return self.add(x, self.neg(y))

    def from_int(self, n):
        raise NotImplementedError

    # --- row kernels: the loops of Mat products and eliminations, with one
    # ring operation per entry; the finite fields override them on codes ---

    def row_times(self, row, cols):
        """The row of row @ M from M's columns: sum_j row[j] col[j] for
        each column, row's entries on the left, zero terms skipped."""
        add, mul, zero = self.add, self.mul, self.zero
        terms = [(j, x) for j, x in enumerate(row) if x != zero]
        out = []
        for col in cols:
            acc = zero
            for j, x in terms:
                if col[j] != zero:
                    acc = add(acc, mul(x, col[j]))
            out.append(acc)
        return tuple(out)

    def divide_row(self, x, row):
        """x^-1 row, as a new list."""
        mul, t = self.mul, self.inv(x)
        return [mul(t, y) for y in row]

    def row_sub(self, row, f, prow, support):
        """row[j] -= f prow[j] in place, for each j in support."""
        sub, mul = self.sub, self.mul
        for j in support:
            row[j] = sub(row[j], mul(f, prow[j]))

    def elements(self):
        raise NotImplementedError(f"{self} is not enumerable")

    def random(self, rng):
        raise NotImplementedError

    # --- serialization of single payloads ---

    def to_json(self, x):
        raise NotImplementedError

    def from_json(self, data):
        raise NotImplementedError

    def descriptor(self):
        """JSON-ready description of the ring itself."""
        raise NotImplementedError


def json_int(value, what):
    """An integer from JSON: an int or an integer string.  A float or a bool
    is refused, not truncated."""
    if not isinstance(value, (bool, float)):
        try:
            return int(value)
        except (TypeError, ValueError):
            pass
    raise SchemaError(f"{what} must be an integer, got {value!r}")


def _fraction_from_json(data):
    if isinstance(data, str):
        try:
            return Fraction(data)
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"bad rational literal {data!r}") from exc
    if isinstance(data, int) and not isinstance(data, bool):
        return Fraction(data)
    raise SchemaError(f"expected rational string or int, got {data!r}")


def _fraction_to_json(x):
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


class RationalField(Ring):
    """The field Q; payloads are Fraction in lowest terms."""

    zero = Fraction(0)
    one = Fraction(1)

    def add(self, x, y):
        return x + y

    def neg(self, x):
        return -x

    def mul(self, x, y):
        return x * y

    def inv(self, x):
        if x == 0:
            raise NotInvertibleError("division by zero in Q")
        return 1 / x

    def from_int(self, n):
        return Fraction(n)

    def random(self, rng):
        return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

    def to_json(self, x):
        return _fraction_to_json(x)

    def from_json(self, data):
        return _fraction_from_json(data)

    def descriptor(self):
        return {"type": "rational"}

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


QQ = RationalField()


def is_squarefree_int(m):
    if m in (0, 1):
        return False
    _, exps = rational_factor_exponents(m)
    return all(e == 1 for e in exps.values())


class QuadraticField(Ring):
    """Q(sqrt(m)) for a squarefree integer m != 0, 1.

    Payloads are pairs (a, b) of Fractions meaning a + b*sqrt(m).
    """

    def __init__(self, m):
        if not isinstance(m, int) or not is_squarefree_int(m):
            raise ValueError(f"m must be a squarefree integer != 0, 1; got {m}")
        self.m = m
        self.zero = (Fraction(0), Fraction(0))
        self.one = (Fraction(1), Fraction(0))
        self.sqrt_gen = (Fraction(0), Fraction(1))

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1])

    def neg(self, x):
        return (-x[0], -x[1])

    def mul(self, x, y):
        a, b = x
        c, d = y
        return (a * c + self.m * b * d, a * d + b * c)

    def conj(self, x):
        return (x[0], -x[1])

    def field_norm(self, x):
        """a^2 - m b^2, the norm down to Q."""
        return x[0] * x[0] - self.m * x[1] * x[1]

    def inv(self, x):
        n = self.field_norm(x)
        if n == 0:
            raise NotInvertibleError(f"{x} is not invertible in Q(sqrt({self.m}))")
        return (x[0] / n, -x[1] / n)

    def from_int(self, n):
        return (Fraction(n), Fraction(0))

    def from_rational(self, q):
        return (Fraction(q), Fraction(0))

    def random(self, rng):
        return (
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        )

    def to_json(self, x):
        return [_fraction_to_json(x[0]), _fraction_to_json(x[1])]

    def from_json(self, data):
        if not isinstance(data, list) or len(data) != 2:
            raise SchemaError(f"quadratic element must be a 2-list, got {data!r}")
        return (_fraction_from_json(data[0]), _fraction_from_json(data[1]))

    def descriptor(self):
        return {"type": "quad", "m": self.m}

    def __repr__(self):
        return f"Q(sqrt({self.m}))"

    def __eq__(self, other):
        return isinstance(other, QuadraticField) and other.m == self.m

    def __hash__(self):
        return hash(("quad", self.m))


def gaussian_rationals():
    """Q(i), the most used quadratic field here."""
    return QuadraticField(-1)
