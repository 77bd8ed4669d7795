"""Quivers, dimension vectors, representations, and slopes.

A representation assigns to every arrow a matrix of shape d_head x d_tail
acting on column vectors; the group prod_v GL_{d_v} acts by
g . M = (g_{h(a)} M_a g_{t(a)}^{-1}).
"""

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType
from typing import Tuple

from .errors import SchemaError
from .linalg import Mat


@dataclass(frozen=True)
class Arrow:
    name: str
    src: str
    dst: str


@dataclass(frozen=True)
class Quiver:
    vertices: Tuple[str, ...]
    arrows: Tuple[Arrow, ...]

    def __post_init__(self):
        seen = set(self.vertices)
        if len(seen) != len(self.vertices):
            raise SchemaError("duplicate vertex names")
        names = set()
        for a in self.arrows:
            if a.src not in seen or a.dst not in seen:
                raise SchemaError(f"arrow {a.name} touches unknown vertex")
            if a.name in names:
                raise SchemaError(f"duplicate arrow name {a.name}")
            names.add(a.name)

    def is_single_loop(self):
        return (
            len(self.vertices) == 1
            and len(self.arrows) == 1
            and self.arrows[0].src == self.arrows[0].dst
        )


def kronecker_quiver(num_arrows=2):
    """Two vertices s -> t with the given number of parallel arrows."""
    arrows = tuple(Arrow(f"a{i}", "s", "t") for i in range(1, num_arrows + 1))
    return Quiver(("s", "t"), arrows)


def jordan_quiver():
    """One vertex with one loop."""
    return Quiver(("v",), (Arrow("loop", "v", "v"),))


def a2_quiver():
    """Two vertices with a single arrow s -> t."""
    return Quiver(("s", "t"), (Arrow("a", "s", "t"),))


def total_dim(dims):
    return sum(dims.values())


def slope(dims, theta):
    """(sum theta_v e_v) / (sum e_v) as an exact rational."""
    tot = total_dim(dims)
    if tot == 0:
        raise ValueError("slope of the zero dimension vector is undefined")
    num = sum(theta[v] * e for v, e in dims.items())
    return Fraction(num, tot)


class Representation:
    """A quiver representation over an exact coefficient ring.

    Immutable: dims and mats are read-only views of copies made at
    construction, so every answer computed from a rep stays true of it.
    certificates is the rep's own memo of its stability answers, a dict
    made empty at construction: exact verdicts over F_q by
    stability.stability_verdict, read again by is_semistable and scss,
    geometric-stability certificates over Q and Q(sqrt(m)) by
    stability.geom_stability_certificate, and dim End by homs.end_dim.
    Equal reps built separately share nothing.
    """

    __slots__ = ("quiver", "ring", "dims", "mats", "certificates")

    def __init__(self, quiver, ring, dims, mats):
        dims, mats = dict(dims), dict(mats)
        for v in quiver.vertices:
            if v not in dims or dims[v] < 0:
                raise SchemaError(f"missing or negative dimension at vertex {v}")
        if len(dims) != len(quiver.vertices):
            raise SchemaError(f"dims {dims} name a vertex outside the quiver")
        for a in quiver.arrows:
            m = mats.get(a.name)
            if m is None:
                raise SchemaError(f"missing matrix for arrow {a.name}")
            want = (dims[a.dst], dims[a.src])
            if m.shape != want:
                raise SchemaError(f"arrow {a.name}: matrix shape {m.shape}, expected {want}")
            if m.ring != ring:
                raise SchemaError(f"arrow {a.name}: entries live in {m.ring}, not {ring}")
        self.quiver = quiver
        self.ring = ring
        self.dims = MappingProxyType(dims)
        self.mats = MappingProxyType(mats)
        self.certificates = {}

    def slope(self, theta):
        return slope(self.dims, theta)

    def total_dim(self):
        return total_dim(self.dims)

    def is_zero_dimensional(self):
        return self.total_dim() == 0

    def act(self, g):
        """g . M with g a dict of invertible vertex matrices."""
        ginv = {v: g[v].inverse() for v in self.quiver.vertices}
        if any(m is None for m in ginv.values()):
            raise ValueError("group element is not invertible")
        return self.conjugate(g, ginv)

    def conjugate(self, g, ginv):
        """g . M from g and its inverse ginv, which is trusted, not checked."""
        mats = {
            a.name: g[a.dst] @ self.mats[a.name] @ ginv[a.src] for a in self.quiver.arrows
        }
        return Representation(self.quiver, self.ring, self.dims, mats)

    def map_entries(self, fn, ring=None):
        target = ring if ring is not None else self.ring
        mats = {name: m.map(fn, target) for name, m in self.mats.items()}
        return Representation(self.quiver, target, self.dims, mats)

    def direct_sum(self, other):
        if other.quiver is not self.quiver and other.quiver != self.quiver:
            raise SchemaError("direct sum needs a common quiver")
        dims = {v: self.dims[v] + other.dims[v] for v in self.quiver.vertices}
        ring = self.ring
        mats = {}
        for a in self.quiver.arrows:
            m1, m2 = self.mats[a.name], other.mats[a.name]
            top = m1.hstack(Mat.zero(ring, m1.nrows, m2.ncols))
            bot = Mat.zero(ring, m2.nrows, m1.ncols).hstack(m2)
            mats[a.name] = top.vstack(bot)
        return Representation(self.quiver, ring, dims, mats)

    def __eq__(self, other):
        return (
            isinstance(other, Representation)
            and other.quiver == self.quiver
            and other.ring == self.ring
            and other.dims == self.dims
            and other.mats == self.mats
        )

    def __hash__(self):
        return hash(tuple((a.name, self.mats[a.name]) for a in self.quiver.arrows))

    def __repr__(self):
        d = [self.dims[v] for v in self.quiver.vertices]
        return f"Rep(dims={d}, ring={self.ring!r})"


def base_change(rep, pair):
    """Extension of scalars along a Galois pair, entries embedded in L."""
    if rep.ring != pair.base:
        raise SchemaError(f"representation is over {rep.ring}, pair base is {pair.base}")
    return rep.map_entries(pair.embed, pair.ext)


def _transvection(ring, n, i, j):
    rows = [list(r) for r in Mat.identity(ring, n).rows]
    rows[i][j] = ring.one
    return Mat(ring, rows, (n, n))


def _block_diag(ring, *blocks):
    n = sum(b.nrows for b in blocks)
    rows, at = [], 0
    for b in blocks:
        zeros = [ring.zero] * (n - b.nrows)
        rows += [zeros[:at] + list(row) + zeros[at:] for row in b.rows]
        at += b.nrows
    return Mat(ring, rows, (n, n))


def generators_of_gln(ring, n):
    """Generators of GL_n over a finite field: transvections and one diagonal."""
    gens = [_transvection(ring, n, i, j) for i in range(n) for j in range(n) if i != j]
    gamma = ring.multiplicative_generator() if n > 0 else ring.one
    if gamma != ring.one:
        rows = [list(r) for r in Mat.identity(ring, n).rows]
        rows[0][0] = gamma
        gens.append(Mat(ring, rows, (n, n)))
    return gens


def group_generators(quiver, ring, dims, a0=None, r=0):
    """Generators of prod_v GL_{d_v} as vertex-indexed dicts, with inverses.

    With an arrow a0 (d_src = n, d_dst = m), generators of the stabilizer
    H_r of J_r = [[I_r, 0], [0, 0]] at a0 instead.  g_dst J_r = J_r g_src
    forces g_src = [[A, 0], [C, D]] and g_dst = [[A, B], [0, D']], so H_r is
    generated by GL_r acting diagonally on both ends of a0, GL_{n-r} at the
    source, GL_{m-r} at the target, the lower-left transvections of g_src,
    the upper-right transvections of g_dst and GL_{d_v} at every other
    vertex.
    """
    eye = {v: Mat.identity(ring, dims[v]) for v in quiver.vertices}
    parts = []  # {vertex: matrix}, identity elsewhere
    ends = ()
    if a0 is not None:
        ends = (a0.src, a0.dst)
        n, m = dims[a0.src], dims[a0.dst]
        i_r, i_n, i_m = (Mat.identity(ring, k) for k in (r, n - r, m - r))
        for h in generators_of_gln(ring, r):
            parts.append({a0.src: _block_diag(ring, h, i_n), a0.dst: _block_diag(ring, h, i_m)})
        parts += [{a0.src: _block_diag(ring, i_r, h)} for h in generators_of_gln(ring, n - r)]
        parts += [{a0.dst: _block_diag(ring, i_r, h)} for h in generators_of_gln(ring, m - r)]
        parts += [{a0.src: _transvection(ring, n, i, j)} for i in range(r, n) for j in range(r)]
        parts += [{a0.dst: _transvection(ring, m, i, j)} for i in range(r) for j in range(r, m)]
    for v in quiver.vertices:
        if v not in ends:
            parts += [{v: h} for h in generators_of_gln(ring, dims[v])]
    return [
        (
            {v: part.get(v, eye[v]) for v in quiver.vertices},
            {v: part[v].inverse() if v in part else eye[v] for v in quiver.vertices},
        )
        for part in parts
    ]
