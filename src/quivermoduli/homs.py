"""Intertwiner spaces and isomorphism testing.

hom_space solves f_{h(a)} M_a = M'_a f_{t(a)} exactly; _hom_system puts it
in one matrix, with one row builder, _field_hom_system, for every ring.
Over a field the matrix is over that field, over Q and Q(sqrt(m)) it holds
the integer coordinates the arrow matrices keep, and the basis comes back
in coordinates too.  Over a quaternion algebra the same system is built on
4x4 rational blocks: each entry c of M becomes right_mul_matrix(c), each
entry of M' left_mul_matrix(c), and each block row is read as four rational
rows, so every unknown entry of f is its four rational coordinates and the
returned basis is a Q-basis of the D-linear intertwiners.  Dimensions are
coranks: hom_dim and end_dim build no basis, only hom_space does."""

import operator
from itertools import product
from math import gcd
from types import SimpleNamespace

from .errors import InconclusiveError, check_budget
from .linalg import Mat, _eliminated, _kernel_coords, _quadratic_m, _reduced, _zeros
from .quaternions import QuaternionAlgebra
from .rings import QQ


def _vertex_offsets(quiver, dims_src, dims_dst):
    offsets = {}
    total = 0
    for v in quiver.vertices:
        offsets[v] = total
        total += dims_dst[v] * dims_src[v]
    return offsets, total


def _field_hom_system(quiver, ops, dims, dims_p, point, point_p):
    """Rows of the system f_{h(a)} M_a = M'_a f_{t(a)} over a field.

    point and point_p hold one tuple of matrix rows per arrow, in arrow
    order; the unknowns are the entries of f_v, a dims_p[v] x dims[v]
    matrix, row by row from offsets[v].  ops supplies zero, sub and neg
    for the entries: the field itself, _INT_OPS on one integer coordinate
    part (each row entry is linear in the arrow entries), or _BLOCK_OPS on
    the 4x4 rational blocks of a quaternion algebra.
    """
    offsets, total = _vertex_offsets(quiver, dims, dims_p)
    rows = []
    zero = ops.zero
    sub, neg = ops.sub, ops.neg
    for a, m, mp in zip(quiver.arrows, point, point_p):
        dh, dt = dims[a.dst], dims[a.src]
        dph, dpt = dims_p[a.dst], dims_p[a.src]
        loop = a.src == a.dst
        # (f_h M)_{i j} - (M' f_t)_{i j} = 0 for i < d'_h, j < d_t.
        # Each unknown gets at most one term from each side, so off loops
        # every entry is assigned once; for loops the f_h and f_t unknowns
        # coincide, and the M' terms are subtracted from the M terms.
        for i in range(dph):
            for j in range(dt):
                row = [zero] * total
                for k in range(dh):
                    c = m[k][j]
                    if c != zero:
                        row[offsets[a.dst] + i * dh + k] = c
                for k in range(dpt):
                    c = mp[i][k]
                    if c != zero:
                        idx = offsets[a.src] + k * dt + j
                        row[idx] = sub(row[idx], c) if loop else neg(c)
                rows.append(row)
    return offsets, total, rows


_INT_OPS = SimpleNamespace(zero=0, sub=operator.sub, neg=operator.neg)
_BLOCK_OPS = SimpleNamespace(
    zero=((QQ.zero,) * 4,) * 4,
    sub=lambda x, y: tuple(tuple(map(operator.sub, r, s)) for r, s in zip(x, y)),
    neg=lambda x: tuple(tuple(map(operator.neg, r)) for r in x),
)


def _coords_system(w, wp, m):
    """The Hom system over Q (m = 0) or Q(sqrt(m)) on integer coordinates.
    With M_a = (A + B sqrt(m)) / d and M'_a = (A' + B' sqrt(m)) / d', the
    rows of arrow a times d d' are built from d' A and d A', then from d' B
    and d B'."""
    parts = ([], []), ([], [])  # (point, point_p) of each coordinate part
    for a in w.quiver.arrows:
        (A, B, d), (Ap, Bp, dp) = (r.mats[a.name].coords for r in (w, wp))
        for (point, point_p), x, xp in zip(parts, (A, B), (Ap, Bp)):
            point.append([[e * dp for e in row] for row in x])
            point_p.append([[e * d for e in row] for row in xp])
    offsets, total, A = _field_hom_system(w.quiver, _INT_OPS, w.dims, wp.dims, *parts[0])
    B = _field_hom_system(w.quiver, _INT_OPS, w.dims, wp.dims, *parts[1])[2] if m else (
        _zeros(len(A), total))
    A, B = (tuple(map(tuple, X)) for X in (A, B))
    return offsets, _reduced(w.ring, (len(A), total), A, B, 1)


def _vertex_blocks(vec, w, wp, offsets, n=1):
    """Per vertex, (shape, rows) of the dims_p[v] x dims[v] block of a flat
    kernel vector; with n > 1 each entry is n consecutive values."""
    out = {}
    for v in w.quiver.vertices:
        dv, dpv = w.dims[v], wp.dims[v]
        flat = vec[offsets[v] * n:(offsets[v] + dpv * dv) * n]
        if n > 1:
            flat = [flat[k:k + n] for k in range(0, len(flat), n)]
        out[v] = (dpv, dv), tuple(tuple(flat[i * dv:(i + 1) * dv]) for i in range(dpv))
    return out


def _reshape_solution(vec, w, wp, offsets):
    """The per-vertex matrices of a kernel vector; over a quaternion algebra
    each entry is its four rational coordinates."""
    n = 4 if isinstance(w.ring, QuaternionAlgebra) else 1
    return {
        v: Mat(w.ring, rows, shape)
        for v, (shape, rows) in _vertex_blocks(vec, w, wp, offsets, n).items()
    }


def _hom_system(w, wp):
    """(offsets, system): one matrix, its right kernel Hom(w, wp), in the
    coordinates the module docstring gives for each ring."""
    if w.quiver != wp.quiver or w.ring != wp.ring:
        raise ValueError("hom_space needs two representations of one quiver over one ring")
    m = _quadratic_m(w.ring)
    if m is not None:
        return _coords_system(w, wp, m)
    if isinstance(w.ring, QuaternionAlgebra):
        alg = w.ring
        points = (
            [tuple(tuple(map(mul, row)) for row in r.mats[a.name].rows) for a in w.quiver.arrows]
            for r, mul in ((w, alg.right_mul_matrix), (wp, alg.left_mul_matrix))
        )
        offsets, total, blocks = _field_hom_system(w.quiver, _BLOCK_OPS, w.dims, wp.dims, *points)
        rows = [[b[r][s] for b in row for s in range(4)] for row in blocks for r in range(4)]
        return offsets, Mat(QQ, rows, (len(rows), 4 * total))
    points = ([r.mats[a.name].rows for a in w.quiver.arrows] for r in (w, wp))
    offsets, total, rows = _field_hom_system(w.quiver, w.ring, w.dims, wp.dims, *points)
    return offsets, Mat(w.ring, rows, (len(rows), total))


def hom_space(w, wp):
    """Basis of Hom(w, wp) as per-vertex matrix dicts.

    Over a quaternion algebra the basis is a Q-basis of the D-linear
    intertwiners; over a field it is a basis over that field.
    """
    offsets, system = _hom_system(w, wp)
    if _quadratic_m(w.ring) is None:
        return [_reshape_solution(vec, w, wp, offsets) for vec in system.nullspace()]
    X, Y, L = _kernel_coords(*_eliminated(system), system.ncols)
    blocks = ([_vertex_blocks(vec, w, wp, offsets) for vec in pair] for pair in zip(X, Y))
    return [{v: _reduced(w.ring, *xb[v], yb[v][1], L) for v in xb} for xb, yb in blocks]


def hom_dim(w, wp):
    """dim Hom(w, wp) as the corank of its system (over Q for quaternions)."""
    system = _hom_system(w, wp)[1]
    return system.ncols - system.rank()


def end_dim(w):
    """Dimension of End(w) over the coefficient field (over Q for
    quaternions), kept in w.certificates under ("end_dim",); End has no
    budget, so the key names none."""
    memo, key = w.certificates, ("end_dim",)
    if key not in memo:
        memo[key] = hom_dim(w, w)
    return memo[key]


def _coprime_dims(dims):
    """True when the nonzero d_v are coprime, so that End W = k for every
    stable W of these dims: End W is then a division algebra over k, every
    W_v is a vector space over it, and so dim_k End W divides every nonzero
    d_v (King, Quart. J. Math. 45 (1994))."""
    return gcd(*(d for d in dims.values() if d)) == 1


def combine_homs(basis, coeffs):
    """Linear combination of hom-space basis elements."""
    out = None
    for c, h in zip(coeffs, basis):
        term = {v: m.scale(c) for v, m in h.items()}
        if out is None:
            out = term
        else:
            out = {v: out[v] + term[v] for v in out}
    return out


def _is_invertible_tuple(h):
    return all(m.is_invertible() for m in h.values())


def _first_invertible(basis, ring, combos):
    """The first invertible combination over combos (coefficient tuples,
    all-zero ones skipped), or None once they run out."""
    for coeffs in combos:
        if all(c == ring.zero for c in coeffs):
            continue
        h = combine_homs(basis, coeffs)
        if _is_invertible_tuple(h):
            return h
    return None


def find_invertible_in_span(basis, ring, config, rng_label="inv-search"):
    """Invertible tuple in the span of a hom basis, or None, or Inconclusive.

    Exhaustive over finite fields (subject to the orbit budget); over
    infinite rings the one-dimensional case is decided exactly and higher
    dimensions fall back to seeded random search plus a small integer grid.
    """
    if not basis:
        return None
    dim = len(basis)
    if dim == 1:
        h = basis[0]
        return h if _is_invertible_tuple(h) else None
    if ring.is_finite:
        check_budget(ring.size**dim, config.max_orbit_points, "iso search space has {} points")
        return _first_invertible(basis, ring, product(ring.elements(), repeat=dim))
    rng = config.rng(rng_label)
    trials = (
        [ring.from_int(rng.randint(-bound, bound)) for _ in range(dim)]
        for bound in (1 + trial // 8 for trial in range(config.iso_trials))
    )
    h = _first_invertible(basis, ring, trials)
    if h is not None:
        return h
    # Deterministic fallback.  The product of the vertex determinants has
    # degree at most D = sum of the vertex dimensions in each coefficient, so
    # a nonzero polynomial cannot vanish on a grid with more than D values
    # per coordinate; an exhausted grid of size D + 1 proves non-existence.
    total_d = sum(m.nrows for m in basis[0].values())
    width = total_d + 1
    if width**dim <= 200_000:
        half = width // 2
        grid = [ring.from_int(t) for t in range(-half, width - half)]
        return _first_invertible(basis, ring, product(grid, repeat=dim))
    raise InconclusiveError(
        "no invertible combination found by randomized search", seed=config.seed
    )


def is_isomorphic(w, wp, config):
    """An isomorphism w -> wp as a vertex-matrix dict, or None.

    A None answer is certain: dimension vectors differ, some Hom dimension
    obstruction fails, the Hom space is at most one-dimensional, or (over a
    finite field) an exhaustive search finished.  Otherwise the randomized
    search raises InconclusiveError rather than guessing.

    One Hom line decides on its own: when Hom(w, wp) is spanned by one h,
    every isomorphism is a nonzero multiple of h, so w and wp are isomorphic
    exactly when h is invertible.  The dimensions of Hom(wp, w), End w and
    End wp, obstructions that agree for isomorphic reps, then cannot change
    the answer and are solved only for a larger Hom(w, wp).
    """
    if w.dims != wp.dims:
        return None
    if w.total_dim() == 0:
        return identity_hom(w)
    fwd = hom_space(w, wp)
    if len(fwd) > 1 and (len(fwd) != hom_dim(wp, w) or end_dim(w) != end_dim(wp)):
        return None
    return find_invertible_in_span(fwd, w.ring, config, rng_label="iso-search")


def identity_hom(w):
    return {v: Mat.identity(w.ring, w.dims[v]) for v in w.quiver.vertices}

