"""Dense exact matrices over a coefficient ring.

A matrix over F_q or a quaternion algebra holds its rows, tuples of
payloads, in the plain slot `rows`.  Its product and its elimination are
one loop each over the ring's row kernels (rings.Ring): `row_times` gives
one output row of a product, and Gauss-Jordan divides the pivot row by its
pivot (`divide_row`) and subtracts multiples of it (`row_sub`) on its
nonzero columns only.  F_p and the F_{p^n} that carry tables override the
kernels on their int codes (see ffields); quaternion algebras and untabled
extension fields keep Ring's, one ring operation per entry.  A matrix over
Q or Q(sqrt(m)), which Mat(...) makes a _CoordMat, holds only its canonical
integer coordinates (A, B, d), converted from payload rows (JSON input, a
test) when it is built: entry (i, j) = (A[i][j] + B[i][j] sqrt(m)) / d with
d > 0 and gcd(all of A, all of B, d) = 1, so equal matrices have equal
coordinates and d is the lcm of the entry denominators; over Q, m = 0 and B
is all zeros.  Every operation reads and writes coordinates: products, sums,
scaling, stacking, transposes, conjugation, and elimination, which
cross-multiplies rows and removes their content instead of dividing
(fraction-free Gauss-Jordan); `solve` and `rref` divide by the pivots once,
through their lcm.  `rows`, `entry` and `col` build reduced Fractions from
the coordinates each time they are read.  On every ring `inverse` is one
`solve` against the identity.  The operands of +, @, hstack and vstack (so
of solve) must share a ring, else SchemaError.  Shapes are tracked
explicitly so zero-row and zero-column matrices behave.  Elimination
routines require the ring to be a field.
"""

import operator
from fractions import Fraction
from itertools import chain, repeat
from math import gcd, lcm

from .errors import NotDecidableError, NotInvertibleError, SchemaError
from .rings import QuadraticField, RationalField

_COORD_RINGS = (RationalField, QuadraticField)


class Mat:
    __slots__ = ("ring", "nrows", "ncols", "rows", "coords")  # coords: a _CoordMat's only

    def __init__(self, ring, rows, shape=None):
        rows = tuple(tuple(r) for r in rows)
        if shape is None:
            if not rows:
                raise ValueError("shape is required for empty matrices")
            shape = (len(rows), len(rows[0]))
        self.ring = ring
        self.nrows, self.ncols = shape
        if len(rows) != self.nrows or any(len(r) != self.ncols for r in rows):
            raise SchemaError(f"ragged matrix: expected shape {shape}")
        if isinstance(ring, _COORD_RINGS):
            # same slots, so the matrix becomes a _CoordMat in place; a
            # __new__ would put a Python call on every F_q construction
            self.__class__ = _CoordMat
            self.coords = _integer_rows(rows, _quadratic_m(ring), self.ncols)
        else:
            self.rows = rows

    @classmethod
    def _of(cls, ring, rows, shape):
        """A matrix from a tuple of row tuples known to have this shape: the
        results of internal operations skip the copy and check of __init__."""
        mat = cls.__new__(cls)
        mat.ring = ring
        mat.nrows, mat.ncols = shape
        mat.rows = rows
        return mat

    # --- constructors ---

    @staticmethod
    def zero(ring, nrows, ncols):
        if isinstance(ring, _COORD_RINGS):
            return _CoordMat._diagonal(ring, (nrows, ncols), 0)
        return Mat._of(ring, ((ring.zero,) * ncols,) * nrows, (nrows, ncols))

    @staticmethod
    def identity(ring, n):
        if isinstance(ring, _COORD_RINGS):
            return _CoordMat._diagonal(ring, (n, n), 1)
        return Mat.scalar(ring, n, ring.one)

    @staticmethod
    def scalar(ring, n, c):
        if isinstance(ring, _COORD_RINGS):
            return _CoordMat._diagonal(ring, (n, n), *_element_coords(c, _quadratic_m(ring)))
        z = ring.zero
        return Mat._of(ring, tuple((z,) * i + (c,) + (z,) * (n - 1 - i) for i in range(n)), (n, n))

    @staticmethod
    def from_cols(ring, cols, nrows):
        cols = list(cols)
        rows = tuple(tuple(col[i] for col in cols) for i in range(nrows))
        if isinstance(ring, _COORD_RINGS):
            return Mat(ring, rows, (nrows, len(cols)))
        return Mat._of(ring, rows, (nrows, len(cols)))

    # --- basics ---

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def col(self, j):
        return tuple(r[j] for r in self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return Mat._of(
            self.ring,
            tuple(self.col(j) for j in range(self.ncols)),
            (self.ncols, self.nrows),
        )

    def map(self, fn, ring=None):
        """Entrywise image, optionally landing in another ring; only an
        image over Q or Q(sqrt(m)) goes through __init__, for its
        coordinates."""
        ring = self.ring if ring is None else ring
        rows = tuple(tuple(map(fn, row)) for row in self.rows)
        if isinstance(ring, _COORD_RINGS):
            return Mat(ring, rows, self.shape)
        return Mat._of(ring, rows, self.shape)

    def __eq__(self, other):
        return (
            isinstance(other, Mat)
            and other.ring == self.ring
            and other.shape == self.shape
            and other.rows == self.rows
        )

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.rows)
        return f"Mat({self.nrows}x{self.ncols}: {body})"

    # --- arithmetic ---

    def __add__(self, other):
        if self.shape != other.shape:
            raise SchemaError(f"shape mismatch {self.shape} + {other.shape}")
        if other.ring is not self.ring:
            _same_ring(self, other, "+")
        if isinstance(self, _CoordMat):
            return _add_coords(self, other)
        add = self.ring.add
        return Mat._of(
            self.ring,
            tuple(
                tuple(add(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.shape,
        )

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise SchemaError(f"shape mismatch {self.shape} @ {other.shape}")
        if other.ring is not self.ring:
            _same_ring(self, other, "@")
        if isinstance(self, _CoordMat):
            return _matmul_coords(self, other)
        ocols = list(zip(*other.rows)) or [()] * other.ncols
        out = tuple(map(self.ring.row_times, self.rows, repeat(ocols)))
        return Mat._of(self.ring, out, (self.nrows, other.ncols))

    def scale(self, c):
        mul = self.ring.mul
        return Mat._of(self.ring, tuple(tuple(mul(c, a) for a in r) for r in self.rows), self.shape)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise SchemaError("hstack needs equal row counts")
        if other.ring is not self.ring:
            _same_ring(self, other, "hstack")
        return self._stack(other, (self.nrows, self.ncols + other.ncols), _beside)

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise SchemaError("vstack needs equal column counts")
        if other.ring is not self.ring:
            _same_ring(self, other, "vstack")
        return self._stack(other, (self.nrows + other.nrows, self.ncols), operator.add)

    def _stack(self, other, shape, join):
        """The rows joined row by row (hstack) or as row lists (vstack)."""
        return Mat._of(self.ring, join(self.rows, other.rows), shape)

    def _top(self, k):
        """The first k rows."""
        return Mat._of(self.ring, self.rows[:k], (k, self.ncols))

    # --- elimination over a field ---

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple).

        Over Q and Q(sqrt(m)), the fraction-free kernel on integer
        coordinates; over every other ring, one Gauss-Jordan loop over the
        ring's row kernels, each row update touching only the nonzero
        columns of the pivot row.  Row operations act from the left, which
        stays valid over a division ring (quaternions).  Over a split
        quaternion algebra a nonzero entry can be a zero divisor; a column
        whose nonzero candidates are all zero divisors raises
        NotDecidableError rather than being read as a zero column.
        """
        if isinstance(self, _CoordMat):
            return _rref_coords(self)
        ring = self.ring
        zero, one, is_field = ring.zero, ring.one, ring.is_field
        rows = [list(r) for r in self.rows]
        nrows, ncols = self.shape
        pivots = []
        r = 0
        for c in range(ncols):
            if r == nrows:
                break
            pr, zero_divisor = None, False
            for i in range(r, nrows):
                x = rows[i][c]
                if x != zero:
                    if not is_field:
                        try:
                            ring.inv(x)
                        except NotInvertibleError:
                            zero_divisor = True
                            continue
                    pr = i
                    break
            if pr is None:
                if zero_divisor:
                    raise NotDecidableError(
                        f"column {c} has only zero-divisor pivots over {ring!r}"
                    )
                continue
            prow = rows[pr]
            rows[pr] = rows[r]
            x = prow[c]
            if x != one:
                prow = ring.divide_row(x, prow)
            rows[r] = prow
            # the pivot row is zero left of c
            support = [j for j in range(c, ncols) if prow[j] != zero]
            for i, row in enumerate(rows):
                f = row[c]
                if f != zero and i != r:
                    ring.row_sub(row, f, prow, support)
            pivots.append(c)
            r += 1
        return Mat._of(ring, tuple(map(tuple, rows)), self.shape), tuple(pivots)

    def rank(self):
        if isinstance(self, _CoordMat):
            return len(_eliminated(self, reduce=False)[2])
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, one column tuple per basis vector."""
        if isinstance(self, _CoordMat):
            X, Y, d = _kernel_coords(*_eliminated(self), self.ncols)
            return list(_payload_rows(X, Y, d, self.m))
        ring = self.ring
        R, pivots = self.rref()
        basis = []
        for fj in (j for j in range(self.ncols) if j not in pivots):
            vec = [ring.zero] * self.ncols
            vec[fj] = ring.one
            for row, pj in zip(R.rows, pivots):
                vec[pj] = ring.neg(row[fj])
            basis.append(tuple(vec))
        return basis

    def inverse(self):
        """Inverse over a field, or None when singular: [M | I] has full
        rank, so a singular M puts a pivot in the I part, and solve says None."""
        if self.nrows != self.ncols:
            return None
        if self.nrows == 0:
            return self
        return self.solve(Mat.identity(self.ring, self.nrows))

    def is_invertible(self):
        return self.nrows == self.ncols and (self.nrows == 0 or self.rank() == self.nrows)

    def solve(self, rhs):
        """One solution X of self @ X = rhs over a field, or None."""
        if self.nrows != rhs.nrows:
            raise SchemaError(f"solve needs equal row counts: {self.shape} and {rhs.shape}")
        if isinstance(self, _CoordMat):
            return _solve_coords(self, rhs)
        R, pivots = self.hstack(rhs).rref()
        n = self.ncols
        if pivots and pivots[-1] >= n:
            return None
        out = [(self.ring.zero,) * rhs.ncols] * n
        for row, p in zip(R.rows, pivots):
            out[p] = row[n:]
        return Mat._of(self.ring, tuple(out), (n, rhs.ncols))

    # --- column span utilities (bases are stored as columns) ---

    def canonical_cols(self):
        """Canonical matrix with the same column span (RREF of the transpose)."""
        R, pivots = self.transpose().rref()
        return R._top(len(pivots)).transpose()

    def cols_contained_in(self, other):
        """Whether span(self columns) is inside span(other columns)."""
        if self.ncols == 0:
            return True
        stacked = other.hstack(self)
        return stacked.rank() == other.rank()


def _same_ring(left, right, op):
    """SchemaError unless both operands are over equal rings; callers skip
    it when the ring objects are the same."""
    if left.ring != right.ring:
        raise SchemaError(f"ring mismatch: {left.ring!r} {op} {right.ring!r}")


# --- Q and Q(sqrt(m)) on integer coordinates ---


def _quadratic_m(ring):
    """m for Q(sqrt(m)), 0 for Q, None for rings on the generic loop."""
    if isinstance(ring, QuadraticField):
        return ring.m
    if isinstance(ring, RationalField):
        return 0
    return None


def _zeros(nrows, ncols):
    return ((0,) * ncols,) * nrows


def _beside(X, Y):
    """Row lists joined row by row."""
    return tuple(map(operator.add, X, Y))


class _CoordMat(Mat):
    """A matrix over Q (m = 0) or Q(sqrt(m)) in one form from the moment it
    is built: its canonical integer coordinates (A, B, d) in the slot
    `coords`.  The slot `rows` stays unset; the property `rows` builds
    reduced Fraction payloads from the coordinates on each read."""

    __slots__ = ()

    @staticmethod
    def _make(ring, shape, A, B, d):
        """The matrix with canonical coordinates (A, B, d), row tuples of ints."""
        mat = object.__new__(_CoordMat)
        mat.ring = ring
        mat.nrows, mat.ncols = shape
        mat.coords = (A, B, d)
        return mat

    @staticmethod
    def _diagonal(ring, shape, a, b=0, d=1):
        """(a + b sqrt(m)) / d on the diagonal, zero elsewhere."""
        nrows, ncols = shape
        A, B = (
            tuple(tuple(x if i == j else 0 for j in range(ncols)) for i in range(nrows))
            for x in (a, b)
        )
        return _reduced(ring, shape, A, B, d)

    @property
    def m(self):
        return _quadratic_m(self.ring)

    @property
    def rows(self):
        return _payload_rows(*self.coords, self.m)

    def entry(self, i, j):
        A, B, d = self.coords
        return _payload(A[i][j], B[i][j], d, self.m)

    def transpose(self):
        A, B, d = self.coords
        shape = (self.ncols, self.nrows)
        At, Bt = (tuple(zip(*X)) or _zeros(*shape) for X in (A, B))
        return _CoordMat._make(self.ring, shape, At, Bt, d)

    def __eq__(self, other):
        return (
            isinstance(other, _CoordMat)
            and other.ring == self.ring
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other.coords == self.coords
        )

    def __hash__(self):
        return hash((self.nrows, self.ncols, self.coords))

    def scale(self, c):
        m = self.m
        a, b, e = _element_coords(c, m)
        A, B, d = self.coords
        mb = m * b
        X = tuple(tuple(a * x + mb * y for x, y in zip(ra, rb)) for ra, rb in zip(A, B))
        Y = tuple(tuple(a * y + b * x for x, y in zip(ra, rb)) for ra, rb in zip(A, B))
        return _reduced(self.ring, self.shape, X, Y, e * d)

    def _stack(self, other, shape, join):
        """Both coordinate sets over the lcm of the denominators, joined as
        Mat._stack joins rows.  No content is left to remove: at each prime
        the operand with the full power in the lcm has a coordinate prime to
        it, and its scale factor is prime to it too."""
        (A, B, d), (C, E, f) = self.coords, other.coords
        l = lcm(d, f)
        if l != d:
            A, B = _scaled(A, l // d), _scaled(B, l // d)
        if l != f:
            C, E = _scaled(C, l // f), _scaled(E, l // f)
        return _CoordMat._make(self.ring, shape, join(A, C), join(B, E), l)

    def _top(self, k):
        A, B, d = self.coords
        return _reduced(self.ring, (k, self.ncols), A[:k], B[:k], d)

    def conj(self):
        """sqrt(m) -> -sqrt(m) entrywise: the coordinates B negated."""
        if not self.m:
            return self
        A, B, d = self.coords
        B = tuple(tuple(-y for y in r) for r in B)
        return _CoordMat._make(self.ring, self.shape, A, B, d)

    def over(self, ring):
        """The same entries over ring = Q; ValueError when one has a
        sqrt(m) part."""
        A, B, d = self.coords
        if any(map(any, B)):
            raise ValueError(f"matrix over {self.ring!r} has entries outside {ring!r}")
        return _CoordMat._make(ring, self.shape, A, B, d)


def _scaled(A, s):
    return tuple(tuple(s * x for x in r) for r in A)


def _reduced(ring, shape, A, B, d):
    """The matrix (A + B sqrt(m)) / d for d > 0, with the common factor of
    all its coordinates removed."""
    if d != 1:
        g = gcd(d, *chain.from_iterable(A), *chain.from_iterable(B))
        if g != 1:
            A, B = (tuple(tuple(x // g for x in r) for r in X) for X in (A, B))
            d //= g
    return _CoordMat._make(ring, shape, A, B, d)


def _element_coords(x, m):
    """(a, b, e) with x = (a + b sqrt(m)) / e, e the lcm of the denominators."""
    if not m:
        return x.numerator, 0, x.denominator
    x, y = x
    e = lcm(x.denominator, y.denominator)
    return x.numerator * (e // x.denominator), y.numerator * (e // y.denominator), e


def _integer_rows(rows, m, ncols):
    """Canonical (A, B, d) of payload rows, d the lcm of all denominators:
    at each prime of d, an entry with its full power there keeps a
    numerator prime to it."""
    parts = [[[x[k] for x in row] for row in rows] for k in (0, 1)] if m else [rows]
    d = lcm(*[x.denominator for part in parts for row in part for x in row])
    if d == 1:
        coords = [tuple(tuple(x.numerator for x in row) for row in part) for part in parts]
    else:
        coords = [
            tuple(tuple(x.numerator * (d // x.denominator) for x in row) for row in part)
            for part in parts
        ]
    if not m:
        coords.append(_zeros(len(rows), ncols))
    return coords[0], coords[1], d


_ZERO = Fraction(0)


def _payload(x, y, d, m):
    fx = Fraction(x, d) if x else _ZERO
    if not m:
        return fx
    return (fx, Fraction(y, d) if y else _ZERO)


def _payload_rows(A, B, d, m):
    """The reduced Fraction payloads of (A + B sqrt(m)) / d, row by row: the
    one place payload rows are built from coordinates."""
    return tuple(
        tuple(_payload(x, y, d, m) for x, y in zip(a, b)) for a, b in zip(A, B)
    )


def _primitive(xs, ys, m):
    """The row divided by the gcd of all its integer coordinates; over Q
    (m = 0) ys is zero and kept."""
    g = gcd(*xs, *ys) if m else gcd(*xs)
    if g > 1:
        return [x // g for x in xs], [y // g for y in ys] if m else ys
    return xs, ys


def _eliminate_coords(A, B, m, ncols, reduce=True):
    """Gauss-Jordan in place by cross-multiplication: row_i <- s*row_i - f*row_r,
    with the pivot made rational and every row kept primitive (content
    removed).  Returns the pivot columns; pivot row i is a multiple of the
    reduced row i, with the rational integer A[i][c] at its pivot c.  With
    reduce False only the rows below each pivot are cleared (echelon form,
    enough for the rank).  Over Q (m = 0) B is zero and left untouched."""
    nrows = len(A)
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if A[pr][c] or B[pr][c]:
                break
        else:
            continue
        A[r], A[pr] = A[pr], A[r]
        B[r], B[pr] = B[pr], B[r]
        ya, yb = A[r], B[r]
        pa, pb = ya[c], yb[c]
        if pb:
            # times conj(pivot): the pivot becomes its norm, a rational integer
            mpb = m * pb
            ya, yb = (
                [pa * x - mpb * y for x, y in zip(ya, yb)],
                [pa * y - pb * x for x, y in zip(ya, yb)],
            )
        A[r], B[r] = ya, yb = _primitive(ya, yb, m)
        p = ya[c]
        support = [j for j in range(c, ncols) if ya[j] or yb[j]]
        for i in range(0 if reduce else r + 1, nrows):
            xa, xb = A[i], B[i]
            fa, fb = xa[c], xb[c]
            if i == r or not (fa or fb):
                continue
            g = gcd(p, fa, fb)
            s, fa, fb = p // g, fa // g, fb // g
            if s != 1:
                xa = [s * x for x in xa]
                xb = [s * x for x in xb] if m else xb
            if m:
                mfb = m * fb
                for j in support:
                    u, v = ya[j], yb[j]
                    xa[j] -= fa * u + mfb * v
                    xb[j] -= fa * v + fb * u
            else:
                for j in support:
                    xa[j] -= fa * ya[j]
            A[i], B[i] = _primitive(xa, xb, m)
        pivots.append(c)
        r += 1
    return pivots


def _eliminated(mat, reduce=True):
    """(A, B, pivots): the matrix's coordinates, eliminated in a copy."""
    A, B, _ = mat.coords
    A, B = [list(r) for r in A], [list(r) for r in B]
    return A, B, _eliminate_coords(A, B, mat.m, mat.ncols, reduce)


def _divided(mat, shape, rows, divisors):
    """The matrix whose row k is rows[k] = (x, y) divided by divisors[k],
    over the lcm of the divisors."""
    L = lcm(*divisors)
    X = tuple(tuple(x * (L // p) for x in xs) for (xs, _), p in zip(rows, divisors))
    Y = tuple(tuple(y * (L // p) for y in ys) for (_, ys), p in zip(rows, divisors))
    return _reduced(mat.ring, shape, X, Y, L)


def _rref_coords(mat):
    """The reduced form: each pivot row divided by its pivot."""
    A, B, pivots = _eliminated(mat)
    r = len(pivots)
    zero = ((0,) * mat.ncols,) * 2
    rows = [(A[i], B[i]) for i in range(r)] + [zero] * (mat.nrows - r)
    divisors = [A[i][c] for i, c in enumerate(pivots)] + [1] * (mat.nrows - r)
    return _divided(mat, mat.shape, rows, divisors), tuple(pivots)


def _kernel_coords(A, B, pivots, ncols):
    """The right kernel of eliminated integer rows as coordinate rows
    (X, Y, L), one per free column fj: L at fj and, at the pivot c of row i,
    -L x / A[i][c] for the entry x of row i in column fj; L is the lcm of
    the pivots."""
    L = lcm(*(A[i][c] for i, c in enumerate(pivots)))
    scales = [L // A[i][c] for i, c in enumerate(pivots)]
    X, Y = [], []
    for fj in (j for j in range(ncols) if j not in pivots):
        xs, ys = [0] * ncols, [0] * ncols
        xs[fj] = L
        for i, (c, s) in enumerate(zip(pivots, scales)):
            xs[c] = -s * A[i][fj]
            ys[c] = -s * B[i][fj]
        X.append(tuple(xs))
        Y.append(tuple(ys))
    return X, Y, L


def _solve_coords(mat, rhs):
    """mat.solve(rhs): [M | R] is eliminated, and the row of the solution at
    pivot p is the rhs part of the pivot row divided by its pivot.  None
    when a pivot falls in the rhs part."""
    n, k = mat.ncols, rhs.ncols
    A, B, pivots = _eliminated(mat.hstack(rhs))
    if pivots and pivots[-1] >= n:
        return None
    zero = ((0,) * k,) * 2
    rows, divisors = [zero] * n, [1] * n
    for i, p in enumerate(pivots):
        rows[p] = A[i][n:], B[i][n:]
        divisors[p] = A[i][p]
    return _divided(mat, (n, k), rows, divisors)


def _add_coords(left, right):
    """Integer sums over the lcm of the denominators."""
    (A, B, d), (C, E, f) = left.coords, right.coords
    l = lcm(d, f)
    s, t = l // d, l // f
    X, Y = (
        tuple(tuple(s * x + t * y for x, y in zip(a, c)) for a, c in zip(P, R))
        for P, R in ((A, C), (B, E))
    )
    return _reduced(left.ring, left.shape, X, Y, l)


def _matmul_coords(left, right):
    """Integer dot products over the product of the denominators."""
    mul, m = operator.mul, left.m
    (A, B, d), (C, E, f) = left.coords, right.coords
    shape = (left.nrows, right.ncols)
    cols = list(zip(zip(*C), zip(*E))) or [((), ())] * right.ncols
    X, Y = [], []
    for a, b in zip(A, B):
        if any(b):
            X.append(tuple(sum(map(mul, a, c)) + m * sum(map(mul, b, e)) for c, e in cols))
            Y.append(tuple(sum(map(mul, a, e)) + sum(map(mul, b, c)) for c, e in cols))
        else:
            X.append(tuple(sum(map(mul, a, c)) for c, _ in cols))
            Y.append(tuple(sum(map(mul, a, e)) for _, e in cols))
    return _reduced(left.ring, shape, tuple(X), tuple(Y), d * f)
