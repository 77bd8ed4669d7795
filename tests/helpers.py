"""Shared builders for the test suite, the per-entry matrix loops and Hom
solver as the reference for the integer-coordinate kernel, a brute-force
stability reference, the one-loop certificate over Q and Q(i), the
full-scan orbit census as the reference for the slice census, the
same-orbit rule as the reference for Frobenius-fixed orbits,
product-by-product references for finite-field tables, the monic
irreducibles and quaternion regular representations, the transpose on the
opposite quiver, a subquotient built by one solve per arrow, and the
library-side helpers only tests call: zero maps, subspace counts, quotients
and restrictions, witnesses moved along a field extension, and one
representative per orbit of a whole representation space."""

import sys
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from quivermoduli import (
    GaloisPair,
    Mat,
    Quiver,
    Representation,
    SubrepWitness,
    gaussian_rationals,
    kronecker_quiver,
    slope,
)
from quivermoduli import census, homs, stability
from quivermoduli.errors import BudgetExceededError, InvariantError
from quivermoduli.ffields import _minus_x, _poly_gcd, _poly_mul, _poly_powmod
from quivermoduli.numtheory import factorint
from quivermoduli.quiver import Arrow
from quivermoduli.rings import QQ
from quivermoduli.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNKNOWN,
    UNSTABLE,
    StabilityVerdict,
)


def count_calls(monkeypatch, fn):
    """Rebind fn in every quivermoduli module that binds it to a wrapper
    that records each call; returns the list of recorded argument tuples."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "quivermoduli" and getattr(mod, fn.__name__, None) is fn:
            monkeypatch.setattr(mod, fn.__name__, counting)
    return calls


def zero_maps(quiver, ring, dims):
    """The representation with every arrow the zero map."""
    mats = {a.name: Mat.zero(ring, dims[a.dst], dims[a.src]) for a in quiver.arrows}
    return Representation(quiver, ring, dims, mats)


def fmat(field, rows):
    """Matrix over a finite field from plain integer rows."""
    return Mat(field, tuple(tuple(field.from_int(x) if isinstance(x, int) else x for x in r) for r in rows))


def qmat(rows):
    """Matrix over Q from ints / Fractions."""
    return Mat(QQ, tuple(tuple(Fraction(x) for x in r) for r in rows))


def gi(a, b=0):
    """Element a + b*i of Q(i)."""
    return (Fraction(a), Fraction(b))


def gimat(rows):
    """Matrix over Q(i) from entries given as (a, b) int pairs or ints."""
    Qi = gaussian_rationals()

    def conv(x):
        if isinstance(x, tuple):
            return gi(*x)
        return gi(x)

    return Mat(Qi, tuple(tuple(conv(x) for x in r) for r in rows))


def kronecker_rep(field, entries, dims=None):
    """Representation of the 2-Kronecker quiver with given 1x1 (or bigger) maps."""
    quiver = kronecker_quiver(len(entries))
    if dims is None:
        dims = {"s": 1, "t": 1}
        mats = {
            f"a{i+1}": fmat(field, [[e]]) for i, e in enumerate(entries)
        }
    else:
        mats = {f"a{i+1}": m for i, m in enumerate(entries)}
    return Representation(quiver, field, dims, mats)


def quaternionic_kronecker_example():
    """The 3-Kronecker representation (I, diag(i,-i), [[0,-1],[1,0]]) over Q(i)."""
    Qi = gaussian_rationals()
    quiver = kronecker_quiver(3)
    m1 = gimat([[1, 0], [0, 1]])
    m2 = gimat([[(0, 1), 0], [0, (0, -1)]])
    m3 = gimat([[0, -1], [1, 0]])
    rep = Representation(quiver, Qi, {"s": 2, "t": 2}, {"a1": m1, "a2": m2, "a3": m3})
    return rep, GaloisPair.gaussian(), {"s": 1, "t": -1}


# ---------------------------------------------------------------------------
# per-entry reference for elimination and products


def reference_rref(mat):
    """(rows, pivots): Gauss-Jordan with one ring operation per entry."""
    ring = mat.ring
    rows = [list(r) for r in mat.rows]
    pivots = []
    r = 0
    for c in range(mat.ncols):
        pr = next((i for i in range(r, mat.nrows) if rows[i][c] != ring.zero), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pv = ring.inv(rows[r][c])
        rows[r] = [ring.mul(pv, x) for x in rows[r]]
        for i in range(mat.nrows):
            f = rows[i][c]
            if i != r and f != ring.zero:
                rows[i] = [ring.sub(x, ring.mul(f, y)) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    return tuple(tuple(row) for row in rows), tuple(pivots)


def reference_nullspace(mat):
    """Right kernel basis read off reference_rref, one vector per free column."""
    ring = mat.ring
    rows, pivots = reference_rref(mat)
    basis = []
    for fj in (j for j in range(mat.ncols) if j not in pivots):
        vec = [ring.zero] * mat.ncols
        vec[fj] = ring.one
        for row, pj in zip(rows, pivots):
            vec[pj] = ring.neg(row[fj])
        basis.append(tuple(vec))
    return basis


def reference_hom_space(w, wp):
    """Hom(w, wp) over a field: the rows of homs._field_hom_system over the
    ring itself, solved by reference_nullspace."""
    points = ([r.mats[a.name].rows for a in w.quiver.arrows] for r in (w, wp))
    offsets, total, rows = homs._field_hom_system(w.quiver, w.ring, w.dims, wp.dims, *points)
    kernel = reference_nullspace(Mat(w.ring, rows, (len(rows), total)))
    return [homs._reshape_solution(vec, w, wp, offsets) for vec in kernel]


def reference_matmul(a, b):
    """Rows of a @ b, one ring operation per term."""
    ring = a.ring
    out = []
    for row in a.rows:
        orow = []
        for j in range(b.ncols):
            acc = ring.zero
            for k, x in enumerate(row):
                acc = ring.add(acc, ring.mul(x, b.rows[k][j]))
            orow.append(acc)
        out.append(tuple(orow))
    return tuple(out)


# ---------------------------------------------------------------------------
# brute-force reference for finite-field subrepresentations


@lru_cache(maxsize=None)
def rref_bases(field, dim, rank):
    """Every rank-`rank` subspace of field^dim as its RREF basis rows.

    Brute force: take `rank` vectors whose first nonzero entry is 1, with
    increasing leading columns, and keep the tuples in which every other row
    vanishes at each leading column.  The list is in the canonical order,
    by pivot columns and then by the entries read row by row.
    """
    leading = []
    for v in product(field.elements(), repeat=dim):
        nonzero = [i for i, x in enumerate(v) if x != field.zero]
        if nonzero and v[nonzero[0]] == field.one:
            leading.append((nonzero[0], v))
    out = []
    for chosen in combinations(sorted(leading), rank):
        pivots = [p for p, _ in chosen]
        if len(set(pivots)) < rank:
            continue
        if all(row[p] == field.zero for p in pivots for q, row in chosen if q != p):
            out.append((tuple(pivots), tuple(row for _, row in chosen)))
    return tuple(rows for _, rows in sorted(out))


def _reference_closed(rep, e):
    """Closed witnesses of dimension vector e, checked with is_closed_in."""
    verts = rep.quiver.vertices
    per_vertex = [rref_bases(rep.ring, rep.dims[v], e[v]) for v in verts]
    for combo in product(*per_vertex):
        bases = {
            v: Mat.from_cols(rep.ring, rows, rep.dims[v]) for v, rows in zip(verts, combo)
        }
        w = SubrepWitness(dict(e), bases)
        if w.is_closed_in(rep):
            yield w


def _reference_dim_vectors(dims):
    verts = list(dims)
    return [dict(zip(verts, c)) for c in product(*(range(dims[v] + 1) for v in verts))]


def reference_subreps(rep):
    """Every subrepresentation, dimension vectors in product order."""
    return [w for e in _reference_dim_vectors(rep.dims) for w in _reference_closed(rep, e)]


def reference_verdict(rep, theta):
    """(kind, witness): the first closed proper tuple, slopes decreasing."""
    mu = rep.slope(theta)
    candidates = [
        e
        for e in _reference_dim_vectors(rep.dims)
        if sum(e.values()) and e != rep.dims and slope(e, theta) >= mu
    ]
    candidates.sort(key=lambda e: slope(e, theta), reverse=True)
    for e in candidates:
        for w in _reference_closed(rep, e):
            return (UNSTABLE if slope(e, theta) > mu else STRICTLY_SEMISTABLE), w
    return STABLE, None


# ---------------------------------------------------------------------------
# one-loop reference for the certificate over Q and Q(i)


def _reference_candidates(rep, modp_witness, fp):
    """Forward closures of every seed at one prime: the lifted witness, its
    vertices alone, arrow kernels and images, full vertex spaces."""
    ring = rep.ring
    seeds = []
    if modp_witness is not None:
        lifted = {}
        for v, b in modp_witness.bases.items():
            cols = [stability._centered_lift(ring, fp, b.col(j)) for j in range(b.ncols)]
            lifted[v] = (
                Mat.from_cols(ring, cols, rep.dims[v]) if cols else Mat.zero(ring, rep.dims[v], 0)
            )
        seeds.append(lifted)
        seeds += [{v: m} for v, m in lifted.items() if m.ncols]
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        ker = m.nullspace()
        if ker:
            seeds.append({a.src: Mat.from_cols(ring, ker, rep.dims[a.src])})
        if m.ncols and m.canonical_cols().ncols:
            seeds.append({a.dst: m.canonical_cols()})
    seeds += [{v: Mat.identity(ring, rep.dims[v])} for v in rep.quiver.vertices if rep.dims[v]]
    out, seen = [], set()
    for seed in seeds:
        cand = stability._forward_closure(rep, seed)
        key = tuple(sorted((v, m.rows) for v, m in cand.bases.items()))
        if key not in seen:
            seen.add(key)
            if 0 < cand.total_dim() and cand.dims != rep.dims:
                out.append(cand)
    return out


def reference_certificate(rep, theta, config):
    """The certificate as one loop over primes: reduce, then hunt exact
    destabilizers from every seed before trying the next prime."""
    mu = rep.slope(theta)
    if not stability._slope_groups(rep.dims, theta, mu):
        return StabilityVerdict(STABLE, detail={"certificate": "dimension-count"})
    tried, best_exact = [], None
    for p in config.primes:
        red = stability.reduce_mod_prime(rep, p)
        if red is None:
            tried.append((p, "unusable"))
            continue
        verdict = stability.stability_verdict(red, theta, config)
        if verdict.is_stable and stability.end_dim(red) == 1:
            return StabilityVerdict(STABLE, detail={"certificate": "reduction", "prime": p})
        tried.append((p, verdict.kind))
        for cand in _reference_candidates(rep, verdict.witness, red.ring):
            if not cand.is_closed_in(rep):
                continue
            s = cand.slope(theta)
            if s > mu:
                return StabilityVerdict(UNSTABLE, witness=cand, detail={"slope": s, "prime": p})
            if s == mu and best_exact is None:
                best_exact = StabilityVerdict(
                    STRICTLY_SEMISTABLE, witness=cand, detail={"slope": s, "prime": p}
                )
    if best_exact is not None:
        return best_exact
    return StabilityVerdict(UNKNOWN, detail={"tried": tried})


# ---------------------------------------------------------------------------
# full-scan reference for the orbit census


def reference_orbit_census(quiver, dims, theta, field, config):
    """(counts, orbit count, sorted categories) from a scan of the whole
    rep space: every stable point, union-find over generators of G_d, and
    |orbit| (q^e - 1) = |G_d| for each orbit, e = dim End of its minimum
    from homs.end_dim, which shares no shortcut with the census."""
    npoints = field.size ** sum(dims[a.dst] * dims[a.src] for a in quiver.arrows)
    if npoints > config.max_orbit_points:
        raise BudgetExceededError(f"rep space has {npoints} points", estimate=npoints)
    verdict = stability._verdicts(quiver, dims, theta, field, config)[1]({})
    stable = dict.fromkeys(
        p for p in census._all_points(quiver, dims, field) if verdict(p)[0] == STABLE
    )
    uf = census._UnionFind({point: point for point in stable})
    for gen in census._generator_tables(quiver, dims, field):
        for point in stable:
            image = census._apply_generator(point, gen, quiver, field)
            if image not in stable:
                raise InvariantError("stability is not constant on an orbit")
            uf.union(point, image)
    orbits = {}
    for point in stable:
        orbits.setdefault(uf.find(point), []).append(point)
    q = field.size
    order = census._group_order(dims, q)
    counts = {census.GEOM_STABLE: 0, census.STABLE_NOT_SCHUR: 0}
    categories = []
    for members in orbits.values():
        e = homs.end_dim(census._decode_rep(quiver, field, dims, min(members)))
        if len(members) * (q**e - 1) != order:
            raise InvariantError(f"orbit has {len(members)} points, dim End {e}")
        cat = census.GEOM_STABLE if e == 1 else census.STABLE_NOT_SCHUR
        counts[cat] += 1
        categories.append(cat)
    return counts, len(orbits), sorted(categories)


def reference_frobenius_fixed(cen):
    """The geometrically stable representatives of an OrbitCensus whose
    entrywise Frobenius image lies in their own orbit, by same_orbit."""
    frob = cen.field.frobenius
    return [
        r
        for r in cen.representatives
        if cen.orbit_category[cen.uf.find(r)] == census.GEOM_STABLE
        and cen.same_orbit(tuple(tuple(tuple(map(frob, row)) for row in m) for m in r), r)
    ]


# ---------------------------------------------------------------------------
# product-by-product references for field tables, monic irreducibles,
# irreducibility and quaternion matrices


def reference_field_tables(field):
    """(add, mul, neg, inv, frob) of a small ExtensionField, built pairwise
    from one polynomial sum and one product-and-reduction per pair."""
    s = field.size
    add = [0] * (s * s)
    mul = [0] * (s * s)
    for x in range(s):
        for y in range(x, s):
            add[x * s + y] = add[y * s + x] = field._add_codes(x, y)
            mul[x * s + y] = mul[y * s + x] = field._mul_codes(x, y)
    neg = [add.index(0, x * s, (x + 1) * s) - x * s for x in range(s)]
    inv = [0] + [mul.index(1, x * s, (x + 1) * s) - x * s for x in range(1, s)]
    frob = [field._pow_code(x, field.p) for x in range(s)]
    return add, mul, neg, inv, frob


def reference_monic_irreducibles(field, max_degree):
    """All monic irreducible polynomials of degree <= max_degree (low first).

    A sieve: each degree marks every product p r, with p irreducible of
    degree k <= deg/2 and r monic of degree deg - k, as reducible, and keeps
    the unmarked candidates in product(elems) order.
    """
    out = []
    elems = list(field.elements())
    one = (field.one,)
    for deg in range(1, max_degree + 1):
        reducible = set()
        for p in out:
            k = len(p) - 1
            if 2 * k > deg:
                break
            for tail in product(elems, repeat=deg - k):
                reducible.add(tuple(_poly_mul(p, tail + one, field)))
        for tail in product(elems, repeat=deg):
            coeffs = tail + one
            if coeffs not in reducible:
                out.append(coeffs)
    return out


def _cols_to_rows(cols):
    return tuple(tuple(col[r] for col in cols) for r in range(4))


def reference_left_mul_matrix(alg, c):
    """Rows of y -> c y, column k the product c e_k, e = (1, i, j, ij)."""
    return _cols_to_rows([alg.mul(c, e) for e in (alg.one, alg.i, alg.j, alg.k)])


def reference_right_mul_matrix(alg, c):
    """Rows of y -> y c, column k the product e_k c."""
    return _cols_to_rows([alg.mul(e, c) for e in (alg.one, alg.i, alg.j, alg.k)])


def reference_is_irreducible(coeffs, p):
    """Rabin's test (SIAM J. Comput. 9 (1980)) for a monic polynomial over
    F_p given low-first: x^(p^n) = x mod f, and gcd(x^(p^(n/l)) - x, f) = 1
    for each prime l dividing n."""
    n = len(coeffs) - 1
    if n < 1 or coeffs[-1] != 1:
        return False
    if n == 1:
        return True
    mod = list(coeffs)
    if _minus_x(_poly_powmod([0, 1], p**n, mod, p), p):
        return False
    for ell in factorint(n):
        diff = _minus_x(_poly_powmod([0, 1], p ** (n // ell), mod, p), p)
        if len(_poly_gcd(mod, diff, p)) > 1:
            return False
    return True


# ---------------------------------------------------------------------------
# the opposite quiver


def opposite_transpose(rep):
    """W^T on the opposite quiver: every arrow reversed, its matrix
    transposed, so W^T is the dual representation in dual bases."""
    quiver = Quiver(
        rep.quiver.vertices, tuple(Arrow(a.name, a.dst, a.src) for a in rep.quiver.arrows)
    )
    mats = {name: m.transpose() for name, m in rep.mats.items()}
    return Representation(quiver, rep.ring, rep.dims, mats)


# ---------------------------------------------------------------------------
# subquotients by one solve per arrow


def reference_subquotient(rep, lower, upper):
    """(layer, C) as stability._subquotient returns them: C from the pivots
    of rref [lower | upper], and each arrow's coordinates solved in the
    basis [lower | C], one solve per arrow."""
    ring = rep.ring
    C, basis = {}, {}
    for v in rep.quiver.vertices:
        L, U = lower.bases[v], upper.bases[v]
        k = L.ncols
        pivots = L.hstack(U).rref()[1]
        inside = pivots[:k] == tuple(range(k)) and len(pivots) == U.ncols
        if not inside or (k and U.rank() != U.ncols):
            raise InvariantError("witness bases are not independent and nested")
        C[v] = Mat.from_cols(ring, [U.col(p - k) for p in pivots[k:]], rep.dims[v])
        basis[v] = L.hstack(C[v])
    dims = {v: C[v].ncols for v in rep.quiver.vertices}
    mats = {}
    for a in rep.quiver.arrows:
        coords = basis[a.dst].solve(rep.mats[a.name] @ basis[a.src])
        if coords is None:
            raise InvariantError("upper witness is not closed")
        k_h, k_t = lower.dims[a.dst], lower.dims[a.src]
        if any(x != ring.zero for row in coords.rows[k_h:] for x in row[:k_t]):
            raise InvariantError("lower witness is not closed")
        block = tuple(row[k_t:] for row in coords.rows[k_h:])
        mats[a.name] = Mat(ring, block, (dims[a.dst], dims[a.src]))
    return Representation(rep.quiver, ring, dims, mats), C


# ---------------------------------------------------------------------------
# subspaces, subquotients and witnesses


def count_subspaces(q, dim):
    """Total number of subspaces of F_q^dim (sum of Gaussian binomials)."""
    return sum(stability._gaussian_binomial(q, dim, r) for r in range(dim + 1))


def is_full(witness, rep):
    """Whether the witness is all of rep."""
    return witness.dims == rep.dims


def quotient_rep(rep, witness):
    """(W / U, lift): lift(v, quotient-coordinate columns) gives the
    columns in W's coordinates."""
    quotient, C = stability._subquotient(rep, witness, stability.full_witness(rep))
    return quotient, lambda v, cols: C[v] @ cols


def restrict_rep(rep, witness):
    """The representation induced on the witness subspaces, in witness coordinates."""
    return stability._subquotient(rep, stability._zero_witness(rep), witness)[0]


def base_change_witness(witness, pair):
    """The witness with its bases moved into pair.ext."""
    return SubrepWitness(
        dict(witness.dims),
        {v: b.map(pair.embed, pair.ext) for v, b in witness.bases.items()},
    )


# ---------------------------------------------------------------------------
# one representative per orbit of a whole representation space


def similarity_class_reps(field, size):
    """(class_data, matrix_rows) per similarity class of size x size
    matrices, in the order of census.similarity_class_data."""
    return [
        (data, census._class_matrix(data, field))
        for data in census.similarity_class_data(field, size)
    ]


def all_orbit_representatives(quiver, dims, field, config):
    """One representative per isomorphism class of ALL representations, on
    the route census._check_census_budget picks, under its point budget.

    Group-equivariant properties (HN data, semistability of layers, base
    change behaviour) are constant on orbits, so checking them on these
    representatives checks them for the whole representation space.
    Single-loop quivers use similarity classes; everything else is the
    slice union-find of orbit_census over every slice point, and each
    orbit is represented by its minimum within its slice.
    """
    route = census._check_census_budget(quiver, dims, field.size, config)
    if route is census.loop_class_census:
        return [
            census._decode_rep(quiver, field, dims, (rows,))
            for _, rows in similarity_class_reps(field, dims[quiver.vertices[0]])
        ]
    k = census._slice_arrow(quiver, dims)
    _, orbits, _ = census._slice_orbits(
        quiver, dims, field, k, lambda fixed: lambda point: (STABLE, None)
    )
    return [census._decode_rep(quiver, field, dims, rep) for rep, _, _, _ in orbits]
