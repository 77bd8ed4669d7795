"""Desk-scale censuses: orbit counting, descent verification, and
classification of rational points by Brauer type.

The orbit census is a slice census.  One arrow a0, the first non-loop
arrow with the largest d_src d_dst, is put in normal form: G_d acts
transitively on its rank-r matrices, so every orbit meets exactly one slice
S_r = {M_a0 = J_r}, J_r = [[I_r, 0], [0, 0]], and meets it in one orbit of
the stabilizer H_r.  Only the slices are scanned, which turns the 65,536
points of K2 (2,2) over F_4 into 768.  A quiver with no such arrow has one
slice, the whole space, with H = G_d.

The scan works on integer-encoded matrices with the field's operations
bound to locals.  Stability is decided by stability._verdicts, the one
verdict driver, whose closure engine is built once per census.  Each slice
settles a0 once: its verdict walks each slope group's combos narrowed
once, into a list, to those closed under J_r, so a slice point tests only
its free arrows; a slice of one point reads the whole walk.  A line at the
last vertex is looked up from an image rather than scanned, subspace
membership verdicts are shared by all points, and when the quiver has more
than one arrow each arrow matrix keeps its image codes across points.

Orbits are counted by union-find over generators of H_r, built only for
a slice that has stable points.  Each slice's stable points are numbered
once, in scan order, and the union-find runs on the numbers, so no point
tuple is hashed again after its image is looked up.  A generator that is
one scalar at every vertex fixes every point (lambda M lambda^-1 = M) and
is not applied.  Each orbit's size is checked by
orbit-stabilizer against |H_r| and e = dim End, computed once per orbit.
When the nonzero d_v are coprime, e = 1 with no elimination
(homs._coprime_dims).  The orbit-stabilizer check runs on every orbit
either way.  Within one census each generator acts once per distinct
arrow matrix: every (generator, arrow) pair has a lazily filled memo
M -> g_dst M g_src^-1, shared by arrows with the same ends.

A point whose a0 matrix is one of the normal forms J_r is looked up in the
flat root map directly; only a point outside the slices is row-reduced to
J_r first.

`stable_orbit_census` routes single-loop quivers through similarity
classes instead (invariant-factor data over the monic irreducibles found by
the sieve in ffields), which covers spaces too large to scan pointwise.
There stability and End are read from the class data, with no subspace
scan: a class is stable iff its data is one irreducible f of degree d, and
then End = F_q[x]/(f).  The number of stable classes is checked against
Gauss's count of monic irreducibles.  The number of all classes has a
closed form, which is held to config.max_orbit_points before any class is
listed and checked against the listing.  Counts read the class data only;
a class's representative (companion blocks of prime powers) is built only
when a point is read.

The engine, matrix lists, generator memos and the set of normal forms are
built per census call, never cached across calls.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from itertools import product
from math import prod
from typing import Dict, List, Optional

from .config import JobConfig
from .descent import solve_modifying_u, type_map
from .errors import InvariantError, SchemaError, check_budget
from .ffields import GF, _poly_mul, monic_irreducibles, prime_power
from .galois import GaloisPair
from .homs import _coprime_dims, end_dim, is_isomorphic
from .linalg import Mat
from .morita import descended_form, drep_to_twisted
from .numtheory import isprime, mobius
from .quiver import Representation, _block_diag, base_change, group_generators, total_dim
from .stability import (
    STRICTLY_SEMISTABLE,
    _closed_pairs,  # noqa: F401  called through _Engine.tests once per memo miss
    _encode_rep,
    _verdicts,
)

GEOM_STABLE = "geom_stable"
STABLE_NOT_SCHUR = "stable_not_schur"


# ---------------------------------------------------------------------------
# End of encoded points


def _end_dim_point(point, quiver, dims, field):
    """dim End for an encoded stable point: homs.end_dim, or 1 with no
    system when the nonzero d_v are coprime (homs._coprime_dims).  On a
    point that is not stable the shortcut can be wrong."""
    if _coprime_dims(dims):
        return 1
    return end_dim(_decode_rep(quiver, field, dims, point))


def _decode_rep(quiver, ring, dims, point):
    mats = {}
    for a, rows in zip(quiver.arrows, point):
        mats[a.name] = Mat(ring, rows, (dims[a.dst], dims[a.src]))
    return Representation(quiver, ring, dims, mats)


def _all_matrices(field, nrows, ncols):
    """Every nrows x ncols matrix over the field, as row tuples."""
    rows_choices = list(product(field.elements(), repeat=ncols))
    return [tuple(rows) for rows in product(rows_choices, repeat=nrows)]


def _all_points(quiver, dims, field, fixed=None):
    """Every point of the rep space whose arrow k matrix is fixed[k]; arrows
    of one shape share a matrix list."""
    fixed = fixed or {}
    by_shape = {}
    per_arrow = []
    for k, a in enumerate(quiver.arrows):
        shape = (dims[a.dst], dims[a.src])
        if k in fixed:
            per_arrow.append([fixed[k]])
            continue
        if shape not in by_shape:
            by_shape[shape] = _all_matrices(field, *shape)
        per_arrow.append(by_shape[shape])
    return product(*per_arrow)


class _UnionFind:
    """Union-find over parent, a list over the indices 0..n-1 or a dict
    over hashable points; each root is its own parent."""

    def __init__(self, parent):
        self.parent = parent

    def find(self, x):
        p = self.parent
        root = x
        while p[root] != root:
            root = p[root]
        while p[x] != root:
            p[x], x = root, p[x]
        return root

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self.parent[rx] = ry


# ---------------------------------------------------------------------------
# slices: one normal form of the largest arrow


def _slice_arrow(quiver, dims):
    """Index of the first non-loop arrow with the largest d_src d_dst > 0,
    or None when there is none."""
    best, size = None, 0
    for k, a in enumerate(quiver.arrows):
        if a.src != a.dst and dims[a.src] * dims[a.dst] > size:
            best, size = k, dims[a.src] * dims[a.dst]
    return best


def _normal_form(field, m, n, r):
    """J_r = [[I_r, 0], [0, 0]] as m x n row tuples."""
    one, zero = field.one, field.zero
    return tuple(tuple(one if i == j < r else zero for j in range(n)) for i in range(m))


def _generator_tables(quiver, dims, field, a0=None, r=0):
    """Generators of H_r (of G_d with no a0) as (g, g^-1, memos); memos[k]
    maps arrow k's matrix rows M to the rows of g_dst M g_src^-1, filled
    lazily and shared by arrows with the same (src, dst)."""
    gens = []
    for g, ginv in group_generators(quiver, field, dims, a0, r):
        by_ends = {}
        memos = [by_ends.setdefault((a.src, a.dst), {}) for a in quiver.arrows]
        gens.append((g, ginv, memos))
    return gens


def _apply_generator(point, gen, quiver, field):
    g, ginv, memos = gen
    out = []
    for rows, a, memo in zip(point, quiver.arrows, memos):
        image = memo.get(rows)
        if image is None:
            m = Mat._of(field, rows, (g[a.dst].nrows, ginv[a.src].ncols))
            image = memo[rows] = (g[a.dst] @ m @ ginv[a.src]).rows
        out.append(image)
    return tuple(out)


def _group_order(dims, q):
    """|G_d(F_q)| = prod_v prod_{i < d_v} (q^{d_v} - q^i)."""
    return prod(q**d - q**i for d in dims.values() for i in range(d))


def _slices(quiver, dims, field, k):
    """[(fixed, |H|, r)] for each slice: the rank-r normal form J_r of
    arrow k and its stabilizer's order, or the whole space and |G_d| when k
    is None.

    G_d acts transitively on the m x n matrices of rank r, of which there
    are prod_{i<r} (q^m - q^i)(q^n - q^i) / (q^r - q^i), so
    |H_r| = |G_d| / that number.
    """
    q = field.size
    order = _group_order(dims, q)
    if k is None:
        return [({}, order, 0)]
    a = quiver.arrows[k]
    n, m = dims[a.src], dims[a.dst]
    out = []
    for r in range(min(m, n) + 1):
        num = prod((q**m - q**i) * (q**n - q**i) for i in range(r))
        den = prod(q**r - q**i for i in range(r))
        out.append(({k: _normal_form(field, m, n, r)}, order * den // num, r))
    return out


def _checked_slice_arrow(quiver, dims, q, config):
    """The slice arrow's index (see _slice_arrow), once the slices' points
    over F_q fit config.max_orbit_points (BudgetExceededError otherwise)."""
    k = _slice_arrow(quiver, dims)
    entries = sum(dims[a.dst] * dims[a.src] for a in quiver.arrows)
    nslices = 1
    if k is not None:
        a = quiver.arrows[k]
        entries -= dims[a.dst] * dims[a.src]
        nslices = min(dims[a.src], dims[a.dst]) + 1
    check_budget(nslices * q**entries, config.max_orbit_points, "slices have {} points")
    return k


def _fixes_every_point(g, field):
    """Whether g is one scalar lambda I at every vertex of nonzero
    dimension: then g_dst M g_src^-1 = lambda M lambda^-1 = M on every
    arrow, so g joins nothing and keeps every point where it is."""
    mats = [m for m in g.values() if m.nrows]
    return all(m == Mat.scalar(field, m.nrows, mats[0].rows[0][0]) for m in mats)


def _slice_orbits(quiver, dims, field, k, on_slice):
    """Union-find over the points of arrow k's slices that are stable by
    on_slice(fixed), the verdict of the slice with those fixed matrices.

    Each slice is scanned in product order and its kept points are numbered
    in that order; union-find runs on the numbers, joining each point's
    root under its image's root along the generators of the stabilizer
    H_r.  Every generator image must be a kept point of the same slice, or
    InvariantError.  A generator that is one scalar at every vertex fixes
    every point (on the rank-1 slice of a 1 x 1 slice arrow between two
    vertices H_1 is the scalars), so it is not applied.  A slice with no
    kept points has nothing to join, so its generators are never built.
    Returns a union-find whose parent maps every kept point to its orbit's
    root point, per orbit (minimum, size, root, |H_r|) sorted by minimum,
    and the set of a0's normal forms J_r (empty without a0).
    """
    slices = _slices(quiver, dims, field, k)
    a0 = None if k is None else quiver.arrows[k]
    parent = {}
    orbits = []
    for fixed, order, r in slices:
        verdict = on_slice(fixed)
        kept = [point for point in _all_points(quiver, dims, field, fixed) if verdict(point)[1] is None]
        if not kept:
            continue
        index = {point: i for i, point in enumerate(kept)}
        uf = _UnionFind(list(range(len(kept))))
        for gen in _generator_tables(quiver, dims, field, a0, r):
            if _fixes_every_point(gen[0], field):
                continue
            for i, point in enumerate(kept):
                j = index.get(_apply_generator(point, gen, quiver, field))
                if j is None:
                    raise InvariantError(f"a generator of H_{r} maps {point} out of the kept points")
                uf.union(i, j)
        members = {}
        for i, point in enumerate(kept):
            members.setdefault(uf.find(i), []).append(point)
        for root, ps in members.items():
            parent.update(dict.fromkeys(ps, kept[root]))
            orbits.append((min(ps), len(ps), kept[root], order))
    orbits.sort()
    forms = frozenset(fixed[k] for fixed, _, _ in slices if k is not None)
    return _UnionFind(parent), orbits, forms


def _to_slice(point, quiver, dims, field, k):
    """A point of the G_d-orbit of point whose arrow k matrix is J_r, for a
    point whose arrow k matrix is not in normal form.

    Row reduction [M | I] -> [R | P] gives P M = R in reduced echelon form;
    g_src stacks R's r nonzero rows over the unit rows e_j of the non-pivot
    columns, so R = J_r g_src and (P, g_src) . M = J_r.
    """
    a = quiver.arrows[k]
    n, m = dims[a.src], dims[a.dst]
    aug, pivots = Mat(field, point[k], (m, n)).hstack(Mat.identity(field, m)).rref()
    r = sum(1 for c in pivots if c < n)
    zero, one = field.zero, field.one
    src_rows = [row[:n] for row in aug.rows[:r]]
    src_rows += [tuple(one if i == j else zero for i in range(n)) for j in range(n) if j not in pivots]
    g = {v: Mat.identity(field, dims[v]) for v in quiver.vertices}
    g[a.dst] = Mat(field, [row[n:] for row in aug.rows], (m, m))
    g[a.src] = Mat(field, src_rows, (n, n))
    return _encode_rep(_decode_rep(quiver, field, dims, point).act(g))


@dataclass
class OrbitCensus:
    """Stable orbits of one rep space, with category counts and orbit lookup.

    `counts` covers the two stable categories only; non-stable points never
    enter the orbit structure.  `uf.parent` is a flat root map: it sends
    every stable point of the slices, and no other point, straight to its
    orbit's root point, and each root to itself.  orbit_id reads it with
    one lookup, after row-reducing a point whose slice arrow matrix is not
    one of `slice_forms` into its slice; a point off the stable locus is an
    InvariantError.
    """

    quiver: object
    dims: dict
    theta: dict
    field: object
    counts: Dict[str, int]
    orbit_category: Dict[object, str]  # union-find root -> category
    uf: Optional[_UnionFind]
    representatives: List[object]  # each stable orbit's minimum in its slice
    slice_arrow: Optional[int] = None  # arrow index fixed to J_r, if any
    slice_forms: frozenset = frozenset()  # the normal forms J_r of that arrow

    @property
    def geom_stable_count(self):
        return self.counts[GEOM_STABLE]

    def orbit_id(self, point):
        k, p = self.slice_arrow, point
        if k is not None and p[k] not in self.slice_forms:
            p = _to_slice(p, self.quiver, self.dims, self.field, k)
        root = self.uf.parent.get(p)
        if root is None:
            raise InvariantError(f"point {point} is not a stable point of the census")
        return root

    def same_orbit(self, p1, p2):
        return self.orbit_id(p1) == self.orbit_id(p2)

    def frobenius_fixed(self):
        """The geometrically stable representatives whose orbit Frobenius fixes.

        Frobenius fixes each J_r, whose entries 0 and 1 lie in F_p, and
        keeps stability, so it maps a stable slice point to a stable point
        of the same slice; the orbit of r is fixed exactly when its image's
        root is r's.  Each distinct arrow matrix is mapped once per call.
        An image missing from the root map is an InvariantError.
        """
        frob, parent = self.field.frobenius, self.uf.parent
        images = {}  # arrow matrix rows -> their Frobenius image
        out = []
        for r in self.representatives:
            root = parent[r]
            if self.orbit_category[root] != GEOM_STABLE:
                continue
            for m in r:
                if m not in images:
                    images[m] = tuple(tuple(map(frob, row)) for row in m)
            image_root = parent.get(tuple(images[m] for m in r))
            if image_root is None:
                raise InvariantError(f"the Frobenius image of {r} is not a stable point of the census")
            if image_root == root:
                out.append(r)
        return out


def orbit_census(quiver, dims, theta, field, config):
    """Count stable orbits by category with a slice census.

    Arrow a0, the first non-loop arrow with the largest d_src d_dst, is
    put in normal form: G_d acts transitively on its rank-r matrices, so
    every orbit meets exactly one slice S_r = {M_a0 = J_r} in exactly one
    orbit of H_r = Stab(J_r).  Each slice's stable points are joined along
    generators of H_r, and each orbit is checked by orbit-stabilizer: End W
    of a stable W is a field F_{q^e} (King, Quart. J. Math. 45 (1994)) and
    Aut W is the stabilizer, so |orbit in S_r| (q^e - 1) = |H_r|; e,
    computed on the orbit's minimum, sets its category.  Without a non-loop
    arrow the one slice is the whole space and H = G_d.
    """
    k = _checked_slice_arrow(quiver, dims, field.size, config)
    _, verdicts = _verdicts(quiver, dims, theta, field, config)
    uf, orbits, forms = _slice_orbits(quiver, dims, field, k, verdicts)
    q = field.size
    counts = {GEOM_STABLE: 0, STABLE_NOT_SCHUR: 0}
    orbit_category = {}
    representatives = []
    for rep, size, root, order in orbits:
        e = _end_dim_point(rep, quiver, dims, field)
        if size * (q**e - 1) != order:
            raise InvariantError(f"orbit of {rep} has {size} slice points, dim End {e}")
        orbit_category[root] = cat = GEOM_STABLE if e == 1 else STABLE_NOT_SCHUR
        counts[cat] += 1
        representatives.append(rep)
    return OrbitCensus(
        quiver,
        dims,
        theta,
        field,
        counts,
        orbit_category,
        uf,
        representatives,
        k,
        forms,
    )


# ---------------------------------------------------------------------------
# similarity classes for single-loop quivers

def _partitions(n):
    if n == 0:
        yield ()
        return
    for first in range(n, 0, -1):
        for rest in _partitions(n - first):
            if not rest or rest[0] <= first:
                yield (first,) + rest


def _companion_matrix(poly, field):
    """Companion matrix of a monic polynomial."""
    n = len(poly) - 1
    rows = [[field.zero] * n for _ in range(n)]
    for i in range(1, n):
        rows[i][i - 1] = field.one
    for i in range(n):
        rows[i][n - 1] = field.neg(poly[i])
    return Mat(field, rows, (n, n))


def similarity_class_data(field, size):
    """The class data of every similarity class of size x size matrices.

    Classes correspond to maps from monic irreducibles to partitions with
    total weighted size equal to `size`.  Each class datum is a sorted tuple
    of (poly, partition): one companion block of poly^m per part m.
    """
    irreds = monic_irreducibles(field, size)
    # fits[r]: how many irreducibles (a degree-sorted prefix) have degree <= r
    fits = [sum(1 for p in irreds if len(p) - 1 <= r) for r in range(size + 1)]
    partitions = [list(_partitions(n)) for n in range(size + 1)]
    out = []

    def assign(remaining, start, chosen):
        # Skipping an irreducible is a loop step, not a call, so the depth
        # is at most `size` however many irreducibles there are.  Walking
        # idx downwards lists the classes in skip-first order.
        if remaining == 0:
            out.append(tuple(sorted(chosen)))
            return
        for idx in range(fits[remaining] - 1, start - 1, -1):
            poly = irreds[idx]
            deg = len(poly) - 1
            for mult_total in range(1, remaining // deg + 1):
                for part in partitions[mult_total]:
                    assign(
                        remaining - deg * mult_total,
                        idx + 1,
                        chosen + [(poly, part)],
                    )

    assign(size, 0, [])
    return out


def _class_matrix(data, field):
    """The class's representative: the block diagonal of the companion
    matrices of its prime powers, as encoded rows."""
    blocks = []
    for poly, part in data:
        for m in part:
            pm = [field.one]
            for _ in range(m):
                pm = _poly_mul(pm, list(poly), field)
            blocks.append(_companion_matrix(pm, field))
    return _block_diag(field, *blocks).rows


def _frobenius_class_data(data, field):
    out = []
    for poly, part in data:
        out.append((tuple(field.frobenius(c) for c in poly), part))
    return tuple(sorted(out))


@dataclass
class LoopClassCensus:
    """Similarity-class census for a single-loop quiver (no pointwise scan).

    Orbits of a single loop are similarity classes, so the census walks
    invariant-factor data.  Every subrepresentation has slope theta_v = mu,
    so a class is stable exactly when F_q^d is a simple F_q[x]-module, i.e.
    its data is one (f, (1,)) with f irreducible of degree d, and then
    End = F_q[x]/(f) has dimension d; every other class is strictly
    semistable.  Frobenius fixedness is read off the class data too.  Counts
    need no matrix: a class's representative (companion blocks of prime
    powers) is built only when a point is read, through `entries` or
    `frobenius_fixed`.
    """

    quiver: object
    dims: dict
    theta: dict
    field: object
    counts: Dict[str, int]
    classes: list  # (class_data, category), in similarity_class_data order
    config: object

    @property
    def geom_stable_count(self):
        return self.counts[GEOM_STABLE]

    @cached_property
    def entries(self):
        """(class_data, encoded point, category) per class, built on first read."""
        return [(data, (_class_matrix(data, self.field),), cat) for data, cat in self.classes]

    def frobenius_fixed(self):
        """The geometrically stable class points whose class data Frobenius
        fixes: it permutes class data, so fixedness is read off the data and
        only the fixed classes' points are built."""
        return [
            (_class_matrix(data, self.field),)
            for data, cat in self.classes
            if cat == GEOM_STABLE and _frobenius_class_data(data, self.field) == data
        ]

    def same_orbit(self, p1, p2):
        r1 = _decode_rep(self.quiver, self.field, self.dims, p1)
        r2 = _decode_rep(self.quiver, self.field, self.dims, p2)
        return is_isomorphic(r1, r2, self.config) is not None

    def orbit_id(self, point):
        for data, rep_point, _ in self.entries:
            if self.same_orbit(point, rep_point):
                return data
        raise InvariantError("point matches no similarity class")


def _irreducible_count(d, q):
    """Gauss: (1/d) sum_{k | d} mu(d/k) q^k monic irreducibles of degree d."""
    return sum(mobius(d // k) * q**k for k in range(1, d + 1) if d % k == 0) // d


def _similarity_class_count(d, q):
    """Similarity classes of d x d matrices over F_q: the coefficient of x^d
    in prod_{i >= 1} 1 / (1 - q x^i).  A class assigns a partition to each
    monic irreducible, and prod_k (1 - y^k)^(-N_k) = 1 / (1 - q y) for N_k
    irreducibles of degree k."""
    c = [1] + [0] * d
    for i in range(1, d + 1):
        for n in range(i, d + 1):  # times 1 / (1 - q x^i)
            c[n] += q * c[n - i]
    return c[d]


def _checked_class_count(q, size, config):
    """The number of similarity classes of size x size matrices over F_q,
    once it fits config.max_orbit_points (BudgetExceededError otherwise)."""
    what = f"{{}} similarity classes of {size}x{size} matrices"
    return check_budget(_similarity_class_count(size, q), config.max_orbit_points, what)


def loop_class_census(quiver, dims, theta, field, config):
    """LoopClassCensus with each category read from the class data, once the
    class count fits the orbit budget; no class matrix is built.  The stable
    classes are the degree-d irreducibles, so InvariantError unless they
    number Gauss's count and all classes number the closed-form count."""
    if not quiver.is_single_loop():
        raise InvariantError("class census is only for single-loop quivers")
    size = dims[quiver.vertices[0]]
    if size < 1:
        raise ValueError("class census needs a nonzero dimension")
    nclasses = _checked_class_count(field.size, size, config)
    counts = {GEOM_STABLE: 0, STABLE_NOT_SCHUR: 0}
    classes = []
    for data in similarity_class_data(field, size):
        if len(data) == 1 and data[0][1] == (1,):
            cat = GEOM_STABLE if size == 1 else STABLE_NOT_SCHUR
            counts[cat] += 1
        else:
            cat = STRICTLY_SEMISTABLE
        classes.append((data, cat))
    stable, want = sum(counts.values()), _irreducible_count(size, field.size)
    if stable != want:
        raise InvariantError(f"{stable} stable classes of size {size}, Gauss count {want}")
    if len(classes) != nclasses:
        raise InvariantError(f"{len(classes)} similarity classes of size {size}, expected {nclasses}")
    return LoopClassCensus(quiver, dims, theta, field, counts, classes, config)


# ---------------------------------------------------------------------------
# public census operations


def stable_orbit_census(quiver, dims, theta, field, config):
    """Orbit census; single-loop quivers go through similarity classes.

    For one loop, orbits are exactly similarity classes, so the class route
    is a full census at a fraction of the pointwise cost (and covers spaces
    such as 4x4 matrices over F_4 that no scan could).  It reads stability
    and End from each class's invariant factors, under a check against
    Gauss's count of irreducibles.  The pointwise union-find census remains
    the general path and the cross-check.
    """
    census = _check_census_budget(quiver, dims, field.size, config)
    return census(quiver, dims, theta, field, config)


def _check_census_budget(quiver, dims, q, config):
    """The census that stable_orbit_census runs, loop_class_census or
    orbit_census, once its point budget over F_q fits: checked from q
    alone, before a field of that size is built, which for a large
    extension degree would take longer than any census allowed."""
    if quiver.is_single_loop() and total_dim(dims) > 0:
        _checked_class_count(q, dims[quiver.vertices[0]], config)
        return loop_class_census
    _checked_slice_arrow(quiver, dims, q, config)
    return orbit_census


def count_geom_stable_orbits(quiver, dims, theta, q, config=JobConfig()):
    """Number of isomorphism classes of geometrically stable reps over F_q."""
    prime_power(q)  # a q that is no prime power is refused first
    _check_census_budget(quiver, dims, q, config)
    return stable_orbit_census(quiver, dims, theta, GF(q), config).geom_stable_count


def lagrange_interpolation(points):
    """Coefficients (low first) of the interpolating polynomial, exact."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if i == j:
                continue
            # multiply basis by (x - xj)
            nxt = [Fraction(0)] * (len(basis) + 1)
            for k, c in enumerate(basis):
                nxt[k] -= c * xj
                nxt[k + 1] += c
            basis = nxt
            denom *= xi - xj
        scale = Fraction(yi) / denom
        for k, c in enumerate(basis):
            coeffs[k] += scale * c
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def _poly_eval(coeffs, x):
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


@dataclass
class PolynomialFit:
    q_values: list
    counts: list
    coefficients: list
    integral: bool
    residuals: list

    def as_dict(self):
        return {
            "q": self.q_values,
            "counts": self.counts,
            "coefficients": [str(c) for c in self.coefficients],
            "integral": self.integral,
            "residuals": [str(r) for r in self.residuals],
        }


def census_polynomiality(quiver, dims, theta, q_list, config=JobConfig()):
    """Point counts for each q plus the unique interpolating polynomial.

    Residuals at the sample points are reported (they vanish by
    construction; a nonzero residual would expose an arithmetic bug), and a
    non-integral fit is reported rather than raised.  A repeated q leaves
    the interpolation undefined and raises SchemaError.
    """
    if len(set(q_list)) < len(q_list):
        raise SchemaError(f"bad q: repeated values in {list(q_list)}")
    counts = [count_geom_stable_orbits(quiver, dims, theta, q, config) for q in q_list]
    coeffs = lagrange_interpolation(list(zip(q_list, counts)))
    residuals = [_poly_eval(coeffs, q) - c for q, c in zip(q_list, counts)]
    integral = all(c.denominator == 1 for c in coeffs)
    return PolynomialFit(list(q_list), counts, coeffs, integral, residuals)


@dataclass
class DescentCensusReport:
    quiver: object
    dims: dict
    theta: dict
    q: int
    n: int
    fixed_orbit_count: int
    base_count: int
    descended_forms: list
    violations: list

    @property
    def ok(self):
        return not self.violations


def verify_descent_census(quiver, dims, theta, q, n, config=JobConfig()):
    """Exhaustively check descent over F_{q^n}/F_q for one configuration.

    (a) every Frobenius-fixed geometrically stable orbit descends to a
    verified F_q-form, (b) forms from distinct orbits are non-isomorphic
    over F_q, decided by their distinct F_q orbit ids, (c) the number of
    fixed orbits equals the F_q orbit count.  Every class over a finite
    field is trivial, so descended_form descends each datum by Hilbert 90.
    Violations raise InvariantError; the report carries the evidence.
    """
    if n < 2:
        raise SchemaError(f"descent census needs an extension degree n >= 2, got {n}")
    if not isprime(q):
        raise SchemaError(f"descent census needs a prime q: {q} is not prime")
    _check_census_budget(quiver, dims, q**n, config)
    pair = GaloisPair.finite(q, n)
    census_l = stable_orbit_census(quiver, dims, theta, pair.ext, config)
    census_k = stable_orbit_census(quiver, dims, theta, pair.base, config)
    violations = []
    forms = []
    fixed_points = census_l.frobenius_fixed()
    k_roots = []
    for point in fixed_points:
        rep = _decode_rep(quiver, pair.ext, dims, point)
        datum = solve_modifying_u(rep, pair, theta, config, check_stability=False)
        if datum is None:
            violations.append(f"fixed orbit of {point} has no modifying element")
            continue
        form = descended_form(datum, config)
        lifted = base_change(form, pair)
        if not census_l.same_orbit(_encode_rep(lifted), point):
            violations.append("descended form leaves the original orbit")
            continue
        k_roots.append(census_k.orbit_id(_encode_rep(form)))
        forms.append({"orbit": point, "form": form})
    if len(set(k_roots)) != len(k_roots):
        violations.append("distinct fixed orbits produced isomorphic F_q-forms")
    if len(fixed_points) != census_k.geom_stable_count:
        violations.append(
            f"fixed orbit count {len(fixed_points)} differs from base count "
            f"{census_k.geom_stable_count}"
        )
    report = DescentCensusReport(
        quiver,
        dims,
        theta,
        q,
        n,
        len(fixed_points),
        census_k.geom_stable_count,
        forms,
        violations,
    )
    if violations:
        raise InvariantError("; ".join(violations))
    return report


# ---------------------------------------------------------------------------
# classification of rational points


@dataclass
class ClassificationRecord:
    rep: Representation
    pair: object
    theta: dict
    brauer: object
    index: int
    datum: object
    k_form: Optional[Representation] = None
    d_form: Optional[Representation] = None
    twisted: Optional[object] = None
    provenance: dict = field(default_factory=dict)


def decompose_rational_point(rep, pair, theta, config=JobConfig()):
    """Classify a Galois-fixed geometrically stable orbit by Brauer type.

    The class comes from the type map.  Trivial type: attach the descended
    base-field form.  Nontrivial type: attach the division-algebra form and
    its twisted presentation.  No index check is needed: when the cocycle
    product is lambda I, lambda^{d_v} = N(det u_v), so an odd d_v forces a
    norm lambda.  Raises ValueError when the orbit is not Galois-fixed.
    """
    datum = type_map(rep, pair, theta, config)
    cls = datum.brauer
    record = ClassificationRecord(
        rep=rep, pair=pair, theta=theta, brauer=cls, index=cls.index, datum=datum
    )
    form = descended_form(datum, config)
    if cls.is_trivial:
        record.k_form = form
        record.provenance["witness"] = "hilbert90"
    else:
        record.d_form = form
        record.twisted = drep_to_twisted(form, pair)
        record.provenance["lambda"] = str(cls.lam)
    return record


def index_divisibility_audit(records):
    """Check ind(class) | d_v for every record; returns (ok, violations)."""
    violations = []
    for i, rec in enumerate(records):
        for v, d in rec.rep.dims.items():
            if d % rec.index:
                violations.append(f"record {i}: index {rec.index} does not divide d_{v}={d}")
    return (not violations, violations)

