"""Intertwiner spaces and isomorphism testing.

hom_space solves f_{h(a)} M_a = M'_a f_{t(a)} exactly.  Over a field the
system is solved directly; over a quaternion algebra each unknown entry is
expanded into its four rational coordinates through the left/right regular
representation, so the returned basis is a Q-basis of the D-linear
intertwiners.
"""

from itertools import product
from math import gcd

from .errors import BudgetExceededError, InconclusiveError
from .linalg import Mat
from .quaternions import QuaternionAlgebra
from .rings import QQ


def _vertex_offsets(quiver, dims_src, dims_dst, blowup=1):
    offsets = {}
    total = 0
    for v in quiver.vertices:
        offsets[v] = total
        total += dims_dst[v] * dims_src[v] * blowup
    return offsets, total


def _field_hom_system(quiver, ring, dims, dims_p, point, point_p):
    """Rows of the system f_{h(a)} M_a = M'_a f_{t(a)} over a field.

    point and point_p hold one tuple of matrix rows per arrow, in arrow
    order; the unknowns are the entries of f_v, a dims_p[v] x dims[v]
    matrix, row by row from offsets[v].
    """
    offsets, total = _vertex_offsets(quiver, dims, dims_p)
    rows = []
    zero = ring.zero
    sub, neg = ring.sub, ring.neg
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


def _reshape_field_solution(vec, w, wp, offsets):
    ring = w.ring
    out = {}
    for v in w.quiver.vertices:
        dv, dpv = w.dims[v], wp.dims[v]
        base = offsets[v]
        rows = tuple(
            tuple(vec[base + i * dv + j] for j in range(dv)) for i in range(dpv)
        )
        out[v] = Mat(ring, rows, (dpv, dv))
    return out


def _quaternion_hom_system(w, wp):
    alg = w.ring
    quiver = w.quiver
    offsets, total = _vertex_offsets(quiver, w.dims, wp.dims, blowup=4)
    rows = []
    zero = QQ.zero
    for a in quiver.arrows:
        m = w.mats[a.name]
        mp = wp.mats[a.name]
        dh, dt = w.dims[a.dst], w.dims[a.src]
        dph, dpt = wp.dims[a.dst], wp.dims[a.src]
        for i in range(dph):
            for j in range(dt):
                blocks = [[zero] * total for _ in range(4)]
                for k in range(dh):
                    c = m.entry(k, j)
                    if c != alg.zero:
                        rmat = alg.right_mul_matrix(c)
                        base = offsets[a.dst] + (i * dh + k) * 4
                        for r in range(4):
                            for s in range(4):
                                blocks[r][base + s] += rmat[r][s]
                for k in range(dpt):
                    c = mp.entry(i, k)
                    if c != alg.zero:
                        lmat = alg.left_mul_matrix(c)
                        base = offsets[a.src] + (k * dt + j) * 4
                        for r in range(4):
                            for s in range(4):
                                blocks[r][base + s] -= lmat[r][s]
                rows.extend(tuple(b) for b in blocks)
    return offsets, total, rows


def _reshape_quaternion_solution(vec, w, wp, offsets):
    alg = w.ring
    out = {}
    for v in w.quiver.vertices:
        dv, dpv = w.dims[v], wp.dims[v]
        base = offsets[v]
        rows = []
        for i in range(dpv):
            row = []
            for j in range(dv):
                at = base + (i * dv + j) * 4
                row.append(tuple(vec[at + t] for t in range(4)))
            rows.append(tuple(row))
        out[v] = Mat(alg, tuple(rows), (dpv, dv))
    return out


def hom_space(w, wp):
    """Basis of Hom(w, wp) as per-vertex matrix dicts.

    Over a quaternion algebra the basis is a Q-basis of the D-linear
    intertwiners; over a field it is a basis over that field.
    """
    if w.quiver != wp.quiver or w.ring != wp.ring:
        raise ValueError("hom_space needs two representations of one quiver over one ring")
    if isinstance(w.ring, QuaternionAlgebra):
        offsets, total, rows = _quaternion_hom_system(w, wp)
        solve_ring = QQ
        reshape = _reshape_quaternion_solution
    else:
        points = ([r.mats[a.name].rows for a in w.quiver.arrows] for r in (w, wp))
        offsets, total, rows = _field_hom_system(w.quiver, w.ring, w.dims, wp.dims, *points)
        solve_ring = w.ring
        reshape = _reshape_field_solution
    if total == 0:
        return []
    system = Mat(solve_ring, rows, (len(rows), total))
    return [reshape(vec, w, wp, offsets) for vec in system.nullspace()]


def end_dim(w):
    """Dimension of End(w) over the coefficient field (over Q for quaternions)."""
    return len(hom_space(w, w))


def _coprime_dims(dims):
    """True when the nonzero d_v are coprime, so that End W = k for every
    stable W of these dims: End W is then a division algebra over k, every
    W_v is a vector space over it, and so dim_k End W divides every nonzero
    d_v (King, Quart. J. Math. 45 (1994))."""
    return gcd(*(d for d in dims.values() if d)) == 1


def is_schur(w):
    return end_dim(w) == 1


def combine_homs(basis, coeffs, ring):
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
    if getattr(ring, "is_finite", False):
        count = ring.size**dim
        if count > config.max_orbit_points:
            raise BudgetExceededError(
                f"iso search space {count} exceeds budget", estimate=count
            )
        for coeffs in product(ring.elements(), repeat=dim):
            if all(c == ring.zero for c in coeffs):
                continue
            h = combine_homs(basis, coeffs, ring)
            if _is_invertible_tuple(h):
                return h
        return None
    rng = config.rng(rng_label)
    for trial in range(config.iso_trials):
        bound = 1 + trial // 8
        coeffs = [ring.from_int(rng.randint(-bound, bound)) for _ in range(dim)]
        if all(c == ring.zero for c in coeffs):
            continue
        h = combine_homs(basis, coeffs, ring)
        if _is_invertible_tuple(h):
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
        for coeffs in product(grid, repeat=dim):
            if all(c == ring.zero for c in coeffs):
                continue
            h = combine_homs(basis, coeffs, ring)
            if _is_invertible_tuple(h):
                return h
        return None
    raise InconclusiveError(
        "no invertible combination found by randomized search", seed=config.seed
    )


def is_isomorphic(w, wp, config):
    """An isomorphism w -> wp as a vertex-matrix dict, or None.

    A None answer is certain: dimension vectors differ, some Hom dimension
    obstruction fails, the Hom space is at most one-dimensional, or (over a
    finite field) an exhaustive search finished.  Otherwise the randomized
    search raises InconclusiveError rather than guessing.
    """
    if w.dims != wp.dims:
        return None
    if w.total_dim() == 0:
        return identity_hom(w)
    fwd = hom_space(w, wp)
    if not fwd:
        return None
    bwd = hom_space(wp, w)
    if len(fwd) != len(bwd) or len(hom_space(w, w)) != len(hom_space(wp, wp)):
        return None
    ring = w.ring
    return find_invertible_in_span(fwd, ring, config, rng_label="iso-search")


def identity_hom(w):
    return {v: Mat.identity(w.ring, w.dims[v]) for v in w.quiver.vertices}

