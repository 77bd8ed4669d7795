"""Dense exact matrices over a coefficient ring.

Rows are tuples of payloads; the ring object supplies all arithmetic, so the
same code runs over F_q (int codes), Q (Fraction), Q(sqrt(m)) and quaternion
algebras.  Shapes are tracked explicitly so zero-row and zero-column
matrices behave.  Elimination routines require the ring to be a field.
"""

from .errors import NotInvertibleError, SchemaError


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
        return Mat(
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

    def cols(self):
        return [self.col(j) for j in range(self.ncols)]

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        return Mat(
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

    def __sub__(self, other):
        sub = self.ring.sub
        return Mat(
            self.ring,
            tuple(
                tuple(sub(a, b) for a, b in zip(r1, r2))
                for r1, r2 in zip(self.rows, other.rows)
            ),
            self.shape,
        )

    def __neg__(self):
        neg = self.ring.neg
        return Mat(self.ring, tuple(tuple(neg(a) for a in r) for r in self.rows), self.shape)

    def __matmul__(self, other):
        if self.ncols != other.nrows:
            raise SchemaError(f"shape mismatch {self.shape} @ {other.shape}")
        ring = self.ring
        add, mul, zero = ring.add, ring.mul, ring.zero
        ocols = list(zip(*other.rows)) if other.rows else []
        out = []
        for row in self.rows:
            orow = []
            for col in ocols:
                acc = zero
                for a, b in zip(row, col):
                    acc = add(acc, mul(a, b))
                orow.append(acc)
            out.append(tuple(orow))
        return Mat(ring, tuple(out), (self.nrows, other.ncols))

    def scale(self, c):
        mul = self.ring.mul
        return Mat(self.ring, tuple(tuple(mul(c, a) for a in r) for r in self.rows), self.shape)

    def hstack(self, other):
        if self.nrows != other.nrows:
            raise SchemaError("hstack needs equal row counts")
        return Mat(
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
        ring (quaternions); there, pivot selection skips non-units.
        """
        ring = self.ring
        zero = ring.zero
        sub, mul, inv = ring.sub, ring.mul, ring.inv
        is_field = ring.is_field
        rows = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            pr = None
            for i in range(r, m):
                if rows[i][c] != zero:
                    if not is_field:
                        try:
                            inv(rows[i][c])
                        except NotInvertibleError:
                            continue
                    pr = i
                    break
            if pr is None:
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
        return Mat(ring, tuple(tuple(r_) for r_ in rows), self.shape), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def nullspace(self):
        """Basis of the right kernel, one column tuple per basis vector."""
        ring = self.ring
        R, pivots = self.rref()
        n = self.ncols
        free = [j for j in range(n) if j not in pivots]
        basis = []
        for fj in free:
            vec = [ring.zero] * n
            vec[fj] = ring.one
            for i, pj in enumerate(pivots):
                vec[pj] = ring.neg(R.rows[i][fj])
            basis.append(tuple(vec))
        return basis

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
        return Mat(self.ring, tuple(r[n:] for r in R.rows), (n, n))

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
        return Mat(self.ring, tuple(tuple(r) for r in out_rows), (n, rhs.ncols))

    # --- column span utilities (bases are stored as columns) ---

    def canonical_cols(self):
        """Canonical matrix with the same column span (RREF of the transpose)."""
        R, pivots = self.transpose().rref()
        rows = [R.rows[i] for i in range(len(pivots))]
        return Mat(self.ring, tuple(rows), (len(pivots), self.nrows)).transpose()

    def cols_contained_in(self, other):
        """Whether span(self columns) is inside span(other columns)."""
        if self.ncols == 0:
            return True
        stacked = other.hstack(self)
        return stacked.rank() == other.rank()
