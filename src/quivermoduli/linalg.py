"""Dense exact matrices over a coefficient ring.

Rows are tuples of payloads.  Over Q and Q(sqrt(m)), `rref`, `rank`,
`nullspace` and `@` clear denominators and run on integer coordinates
(a, b) of a + b sqrt(m).  Only `rref` writes reduced `Fraction` rows back:
`rank` reads the pivots, and `nullspace` divides the free-column entries
of the integer pivot rows by their pivots (homs builds its Hom systems on
these integer rows directly).  Over F_p and over the F_{p^n} that
carry tables, `rref` runs on the int codes themselves: one `% p` per
updated entry, or table lookups, and only on the nonzero columns of the
pivot row.  The reduced echelon form is unique and products are exact, so
the answers are the ones the per-entry loop gives; that loop remains for
quaternion algebras and untabled extension fields, with the ring object
supplying one operation per entry.  Shapes are tracked explicitly so
zero-row and zero-column matrices behave.  Elimination routines require the
ring to be a field.
"""

import operator
from fractions import Fraction
from math import gcd, lcm

from .errors import NotDecidableError, NotInvertibleError, SchemaError
from .ffields import ExtensionField, PrimeField
from .rings import QuadraticField, RationalField


class Mat:
    __slots__ = ("ring", "nrows", "ncols", "rows")

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
        z = ring.zero
        return Mat(ring, tuple((z,) * ncols for _ in range(nrows)), (nrows, ncols))

    @staticmethod
    def identity(ring, n):
        z, o = ring.zero, ring.one
        return Mat(
            ring,
            tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
            (n, n),
        )

    @staticmethod
    def scalar(ring, n, c):
        z = ring.zero
        return Mat(
            ring,
            tuple(tuple(c if i == j else z for j in range(n)) for i in range(n)),
            (n, n),
        )

    @staticmethod
    def from_cols(ring, cols, nrows):
        cols = list(cols)
        return Mat._of(
            ring,
            tuple(tuple(col[i] for col in cols) for i in range(nrows)),
            (nrows, len(cols)),
        )

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
        """Entrywise image, optionally landing in another ring."""
        return Mat(
            ring if ring is not None else self.ring,
            tuple(tuple(fn(x) for x in row) for row in self.rows),
            self.shape,
        )

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
        add = self.ring.add
        return Mat(
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
        ring = self.ring
        m = _quadratic_m(ring)
        if m is not None:
            return _matmul_coords(ring, m, self, other)
        add, mul, zero = ring.add, ring.mul, ring.zero
        ocols = list(zip(*other.rows)) or [()] * other.ncols
        out = []
        for row in self.rows:
            orow = []
            for col in ocols:
                acc = zero
                for a, b in zip(row, col):
                    acc = add(acc, mul(a, b))
                orow.append(acc)
            out.append(tuple(orow))
        return Mat._of(ring, tuple(out), (self.nrows, other.ncols))

    def scale(self, c):
        mul = self.ring.mul
        return Mat(self.ring, tuple(tuple(mul(c, a) for a in r) for r in self.rows), self.shape)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise SchemaError("hstack needs equal row counts")
        return Mat._of(
            self.ring,
            tuple(r1 + r2 for r1, r2 in zip(self.rows, other.rows)),
            (self.nrows, self.ncols + other.ncols),
        )

    def vstack(self, other):
        if self.ncols != other.ncols:
            raise SchemaError("vstack needs equal column counts")
        return Mat(self.ring, self.rows + other.rows, (self.nrows + other.nrows, self.ncols))

    def is_zero(self):
        z = self.ring.zero
        return all(x == z for row in self.rows for x in row)

    # --- elimination over a field ---

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column tuple).

        Row operations act from the left, which stays valid over a division
        ring (quaternions).  Over a split quaternion algebra a nonzero entry
        can be a zero divisor; a column whose nonzero candidates are all zero
        divisors raises NotDecidableError rather than being read as a zero
        column.
        """
        ring = self.ring
        m = _quadratic_m(ring)
        if m is not None:
            return _rref_coords(ring, m, self)
        if isinstance(ring, PrimeField) or (isinstance(ring, ExtensionField) and ring._tables):
            return _rref_fq(ring, self)
        zero = ring.zero
        sub, mul, inv = ring.sub, ring.mul, ring.inv
        is_field = ring.is_field
        rows = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            pr = None
            zero_divisor = False
            for i in range(r, m):
                if rows[i][c] != zero:
                    if not is_field:
                        try:
                            inv(rows[i][c])
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
            rows[r], rows[pr] = rows[pr], rows[r]
            pv = inv(rows[r][c])
            if rows[r][c] != ring.one:
                rows[r] = [mul(pv, x) for x in rows[r]]
            prow = rows[r]
            for i in range(m):
                if i != r and rows[i][c] != zero:
                    f = rows[i][c]
                    rows[i] = [sub(x, mul(f, y)) for x, y in zip(rows[i], prow)]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return Mat._of(ring, tuple(tuple(r_) for r_ in rows), self.shape), tuple(pivots)

    def rank(self):
        m = _quadratic_m(self.ring)
        if m is not None:
            A, B, _ = _integer_rows(self, m)
            return len(_eliminate_coords(A, B, m, self.ncols))
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, one column tuple per basis vector."""
        ring = self.ring
        m = _quadratic_m(ring)
        if m is not None:
            A, B, _ = _integer_rows(self, m)
            return _kernel_coords(ring, m, A, B, self.ncols)
        R, pivots = self.rref()
        free = [j for j in range(self.ncols) if j not in pivots]
        neg = ring.neg
        negs = [[neg(R.rows[i][j]) for j in free] for i in range(len(pivots))]
        return _kernel(ring, self.ncols, pivots, free, negs)

    def inverse(self):
        """Inverse over a field, or None when singular."""
        if self.nrows != self.ncols:
            return None
        n = self.nrows
        if n == 0:
            return self
        aug = self.hstack(Mat.identity(self.ring, n))
        R, pivots = aug.rref()
        if tuple(pivots) != tuple(range(n)):
            return None
        return Mat._of(self.ring, tuple(r[n:] for r in R.rows), (n, n))

    def is_invertible(self):
        return self.nrows == self.ncols and (self.nrows == 0 or self.rank() == self.nrows)

    def solve(self, rhs):
        """One solution X of self @ X = rhs over a field, or None."""
        aug = self.hstack(rhs)
        R, pivots = aug.rref()
        n = self.ncols
        if any(p >= n for p in pivots):
            return None
        zero = self.ring.zero
        out_rows = [[zero] * rhs.ncols for _ in range(n)]
        for i, p in enumerate(pivots):
            for j in range(rhs.ncols):
                out_rows[p][j] = R.rows[i][n + j]
        return Mat._of(self.ring, tuple(tuple(r) for r in out_rows), (n, rhs.ncols))

    # --- column span utilities (bases are stored as columns) ---

    def canonical_cols(self):
        """Canonical matrix with the same column span (RREF of the transpose)."""
        R, pivots = self.transpose().rref()
        rows = [R.rows[i] for i in range(len(pivots))]
        return Mat._of(self.ring, tuple(rows), (len(pivots), self.nrows)).transpose()

    def cols_contained_in(self, other):
        """Whether span(self columns) is inside span(other columns)."""
        if self.ncols == 0:
            return True
        stacked = other.hstack(self)
        return stacked.rank() == other.rank()


# --- Q and Q(sqrt(m)) on integer coordinates ---
#
# A matrix of payloads is held as integer rows A, B and a positive integer d
# with entry (i, j) = (A[i][j] + B[i][j] sqrt(m)) / d; over Q, m = 0 and B is
# all zeros, so one loop serves both rings.  Elimination keeps each row a
# rational multiple of the row the field algorithm would hold, so the
# reduced form, which is unique, comes out the same.


def _quadratic_m(ring):
    """m for Q(sqrt(m)), 0 for Q, None for rings on the generic loop."""
    if isinstance(ring, QuadraticField):
        return ring.m
    if isinstance(ring, RationalField):
        return 0
    return None


def _integer_rows(mat, m):
    """(A, B, d): integer rows with entry (i, j) = (A[i][j] + B[i][j] sqrt(m)) / d,
    d the lcm of all denominators."""
    if m:
        xs = [[x[0] for x in row] for row in mat.rows]
        ys = [[x[1] for x in row] for row in mat.rows]
    else:
        xs = mat.rows
        ys = [[0] * mat.ncols for _ in xs]
    d = lcm(*[x.denominator for row in xs for x in row],
            *[y.denominator for row in ys for y in row])
    if d == 1:
        return [[x.numerator for x in row] for row in xs], [[y.numerator for y in row] for row in ys], 1
    return (
        [[x.numerator * (d // x.denominator) for x in row] for row in xs],
        [[y.numerator * (d // y.denominator) for y in row] for row in ys],
        d,
    )


_ZERO = Fraction(0)


def _payloads(xs, ys, d, m):
    """The payloads (x_j + y_j sqrt(m)) / d, as reduced Fractions."""
    zero = _ZERO
    fx = [Fraction(x, d) if x else zero for x in xs]
    if not m:
        return tuple(fx)
    return tuple(zip(fx, [Fraction(y, d) if y else zero for y in ys]))


def _primitive(xs, ys):
    """The row divided by the gcd of all its integer coordinates."""
    g = gcd(*xs, *ys)
    if g > 1:
        return [x // g for x in xs], [y // g for y in ys]
    return xs, ys


def _eliminate_coords(A, B, m, ncols):
    """Gauss-Jordan in place by cross-multiplication: row_i <- s*row_i - f*row_r,
    with the pivot made rational and every row kept primitive (content
    removed).  Returns the pivot columns; pivot row i is a multiple of the
    reduced row i, with the rational integer A[i][c] at its pivot c."""
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
        A[r], B[r] = ya, yb = _primitive(ya, yb)
        p = ya[c]
        support = [j for j in range(c, ncols) if ya[j] or yb[j]]
        for i in range(nrows):
            xa, xb = A[i], B[i]
            fa, fb = xa[c], xb[c]
            if i == r or not (fa or fb):
                continue
            g = gcd(p, fa, fb)
            s, fa, fb = p // g, fa // g, fb // g
            mfb = m * fb
            if s == 1:
                for j in support:
                    u, v = ya[j], yb[j]
                    xa[j] -= fa * u + mfb * v
                    xb[j] -= fa * v + fb * u
            else:
                xa = [s * x - fa * u - mfb * v for x, u, v in zip(xa, ya, yb)]
                xb = [s * x - fa * v - fb * u for x, u, v in zip(xb, ya, yb)]
            A[i], B[i] = _primitive(xa, xb)
        pivots.append(c)
        r += 1
    return pivots


def _rref_coords(ring, m, mat):
    """The reduced form: each pivot row divided by its pivot, written back."""
    A, B, _ = _integer_rows(mat, m)
    pivots = _eliminate_coords(A, B, m, mat.ncols)
    rows = [_payloads(A[i], B[i], A[i][c], m) for i, c in enumerate(pivots)]
    rows.extend([(ring.zero,) * mat.ncols] * (mat.nrows - len(pivots)))
    return Mat._of(ring, tuple(rows), mat.shape), tuple(pivots)


def _kernel(ring, ncols, pivots, free, negs):
    """One kernel vector per free column: one there and, at each pivot, the
    negated entry of its reduced row in that column (negs, free columns only)."""
    basis = []
    for k, fj in enumerate(free):
        vec = [ring.zero] * ncols
        vec[fj] = ring.one
        for row, pj in zip(negs, pivots):
            vec[pj] = row[k]
        basis.append(tuple(vec))
    return basis


def _kernel_coords(ring, m, A, B, ncols):
    """Mat.nullspace of the integer rows (A + B sqrt(m)), read off the pivot
    rows: a free-column entry x of a row with pivot p gives -x/p, so no
    reduced row is written."""
    pivots = _eliminate_coords(A, B, m, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    negs = [
        _payloads([-A[i][j] for j in free], [-B[i][j] for j in free], A[i][c], m)
        for i, c in enumerate(pivots)
    ]
    return _kernel(ring, ncols, pivots, free, negs)


def _matmul_coords(ring, m, left, right):
    """Integer dot products, with the denominators of each factor cleared."""
    mul = operator.mul
    A, B, d = _integer_rows(left, m)
    C, E, f = _integer_rows(right, m)
    q = d * f
    cols = list(zip(zip(*C), zip(*E))) or [((), ())] * right.ncols
    out = []
    for a, b in zip(A, B):
        row = []
        for c, e in cols:
            x = sum(map(mul, a, c))
            if m:
                x += m * sum(map(mul, b, e))
                y = sum(map(mul, a, e)) + sum(map(mul, b, c))
                row.append((Fraction(x, q), Fraction(y, q)))
            else:
                row.append(Fraction(x, q))
        out.append(tuple(row))
    return Mat._of(ring, tuple(out), (left.nrows, right.ncols))


# --- F_q on int codes ---


def _rref_fq(ring, mat):
    """Gauss-Jordan on the codes of F_p, or of an F_{p^n} with tables (see
    ffields).  Zero and one are the codes 0 and 1; a row update touches only
    the nonzero columns of the pivot row, which are zero left of the pivot."""
    nrows, ncols = mat.shape
    rows = [list(r) for r in mat.rows]
    prime = isinstance(ring, PrimeField)
    if prime:
        p = ring.p
    else:
        s = ring.size
        add, mul, neg, inv = ring._tables[:4]
    pivots = []
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        for pr in range(r, nrows):
            if rows[pr][c]:
                break
        else:
            continue
        prow = rows[pr]
        rows[pr] = rows[r]
        x = prow[c]
        if x != 1:
            if prime:
                t = pow(x, p - 2, p)
                prow = [t * y % p for y in prow]
            else:
                t = inv[x] * s
                prow = [mul[t + y] for y in prow]
        rows[r] = prow
        support = [j for j in range(c, ncols) if prow[j]]
        for i in range(nrows):
            row = rows[i]
            f = row[c]
            if not f or i == r:
                continue
            if prime:
                for j in support:
                    row[j] = (row[j] - f * prow[j]) % p
            else:
                f = neg[f] * s
                for j in support:
                    row[j] = add[row[j] * s + mul[f + prow[j]]]
        pivots.append(c)
        r += 1
    return Mat._of(ring, tuple(map(tuple, rows)), mat.shape), tuple(pivots)
