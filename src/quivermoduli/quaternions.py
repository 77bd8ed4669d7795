"""Rational quaternion algebras (a, b)_Q.

Elements are 4-tuples of Fractions (x0, x1, x2, x3) for x0 + x1 i + x2 j
+ x3 ij with i^2 = a, j^2 = b, ij = -ji.  The algebra is a division algebra
iff the Hilbert symbol (a, b) is -1 at some place; otherwise the reduced
norm is isotropic and inversion can fail.
"""

from fractions import Fraction

from .errors import NotInvertibleError, SchemaError
from .numtheory import hilbert_symbol, relevant_places
from .rings import Ring, _fraction_from_json, _fraction_to_json


def quat_is_division(a, b):
    """True iff (a, b)_Q is a division algebra (not the 2x2 matrix algebra)."""
    a = Fraction(a)
    b = Fraction(b)
    if a == 0 or b == 0:
        raise ValueError("structure constants must be nonzero")
    return any(hilbert_symbol(a, b, place) == -1 for place in relevant_places(a, b))


class QuaternionAlgebra(Ring):
    """The quaternion algebra (a, b) over Q.  Noncommutative, so not a field."""

    is_field = False

    def __init__(self, a, b):
        a = Fraction(a)
        b = Fraction(b)
        if a == 0 or b == 0:
            raise ValueError("structure constants must be nonzero")
        self.a = a
        self.b = b
        z = Fraction(0)
        self.zero = (z, z, z, z)
        self.one = (Fraction(1), z, z, z)
        self.i = (z, Fraction(1), z, z)
        self.j = (z, z, Fraction(1), z)
        self.k = (z, z, z, Fraction(1))

    def add(self, x, y):
        return (x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3])

    def neg(self, x):
        return (-x[0], -x[1], -x[2], -x[3])

    def mul(self, x, y):
        a, b = self.a, self.b
        x0, x1, x2, x3 = x
        y0, y1, y2, y3 = y
        return (
            x0 * y0 + a * x1 * y1 + b * x2 * y2 - a * b * x3 * y3,
            x0 * y1 + x1 * y0 - b * x2 * y3 + b * x3 * y2,
            x0 * y2 + x2 * y0 + a * x1 * y3 - a * x3 * y1,
            x0 * y3 + x3 * y0 + x1 * y2 - x2 * y1,
        )

    def conj(self, x):
        return (x[0], -x[1], -x[2], -x[3])

    def nrd(self, x):
        """Reduced norm x0^2 - a x1^2 - b x2^2 + a b x3^2; multiplicative."""
        x0, x1, x2, x3 = x
        return x0 * x0 - self.a * x1 * x1 - self.b * x2 * x2 + self.a * self.b * x3 * x3

    def inv(self, x):
        n = self.nrd(x)
        if n == 0:
            raise NotInvertibleError(f"{x} has reduced norm 0 in ({self.a},{self.b})_Q")
        c = self.conj(x)
        return (c[0] / n, c[1] / n, c[2] / n, c[3] / n)

    def is_division(self):
        return quat_is_division(self.a, self.b)

    def from_int(self, n):
        z = Fraction(0)
        return (Fraction(n), z, z, z)

    def left_mul_matrix(self, c):
        """4x4 rational matrix (rows) of y -> c*y on coordinate columns;
        column k is c e_k for e = (1, i, j, ij), written out."""
        a, b = self.a, self.b
        c0, c1, c2, c3 = c
        return (
            (c0, a * c1, b * c2, -a * b * c3),
            (c1, c0, b * c3, -b * c2),
            (c2, -a * c3, c0, a * c1),
            (c3, -c2, c1, c0),
        )

    def right_mul_matrix(self, c):
        """4x4 rational matrix (rows) of y -> y*c on coordinate columns;
        column k is e_k c, written out."""
        a, b = self.a, self.b
        c0, c1, c2, c3 = c
        return (
            (c0, a * c1, b * c2, -a * b * c3),
            (c1, c0, -b * c3, b * c2),
            (c2, a * c3, c0, -a * c1),
            (c3, c2, -c1, c0),
        )

    def random(self, rng):
        return tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(4))

    def to_json(self, x):
        return [_fraction_to_json(c) for c in x]

    def from_json(self, data):
        if not isinstance(data, list) or len(data) != 4:
            raise SchemaError(f"quaternion element must be a 4-list, got {data!r}")
        return tuple(_fraction_from_json(c) for c in data)

    def descriptor(self):
        return {
            "type": "quaternion",
            "a": _fraction_to_json(self.a),
            "b": _fraction_to_json(self.b),
        }

    def __repr__(self):
        return f"({self.a},{self.b})_Q"

    def __eq__(self, other):
        return isinstance(other, QuaternionAlgebra) and (other.a, other.b) == (self.a, self.b)

    def __hash__(self):
        return hash(("quat", self.a, self.b))


def hamilton_quaternions():
    return QuaternionAlgebra(-1, -1)
