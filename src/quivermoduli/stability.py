"""Slope stability: subrepresentation enumeration, verdicts, scss, and
Harder-Narasimhan filtrations over finite fields, plus sound one-sided
certificates over Q and Q(i).

Enumeration works through canonical reduced-echelon subspace bases, so
witnesses are deduplicated by construction.  Decision procedures over
infinite fields do not exist here; geom_stability_certificate returns
Stable only with a finite-field certificate, returns a non-stable verdict
only with an exactly re-verified witness, and says Unknown otherwise.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from typing import Dict, Optional, Tuple

from .errors import BudgetExceededError, InvariantError, SchemaError
from .ffields import PrimeField
from .homs import end_dim
from .linalg import Mat
from .numtheory import sqrt_minus_one_mod
from .quiver import Representation, slope, total_dim
from .rings import QQ, QuadraticField

STABLE = "stable"
STRICTLY_SEMISTABLE = "strictly_semistable"
UNSTABLE = "unstable"
UNKNOWN = "unknown"


@dataclass(frozen=True)
class SubrepWitness:
    """Per-vertex column bases spanning a subrepresentation."""

    dims: Dict[str, int]
    bases: Dict[str, Mat]

    def total_dim(self):
        return total_dim(self.dims)

    def slope(self, theta):
        return slope(self.dims, theta)

    def is_closed_in(self, rep):
        """Closure test: M_a U_{t(a)} inside span U_{h(a)} for every arrow."""
        for a in rep.quiver.arrows:
            img = rep.mats[a.name] @ self.bases[a.src]
            if not img.cols_contained_in(self.bases[a.dst]):
                return False
        return True

    def contains(self, other):
        return all(
            other.bases[v].cols_contained_in(self.bases[v]) for v in self.bases
        )

    def canonical(self):
        return SubrepWitness(
            dict(self.dims), {v: b.canonical_cols() for v, b in self.bases.items()}
        )

    def is_full(self, rep):
        return self.dims == rep.dims

    def is_zero(self):
        return self.total_dim() == 0


def full_witness(rep):
    return SubrepWitness(
        dict(rep.dims),
        {v: Mat.identity(rep.ring, rep.dims[v]) for v in rep.quiver.vertices},
    )


@dataclass(frozen=True)
class StabilityVerdict:
    kind: str
    witness: Optional[SubrepWitness] = None
    detail: dict = field(default_factory=dict)

    @property
    def is_stable(self):
        return self.kind == STABLE

    def __repr__(self):
        return f"StabilityVerdict({self.kind})"


@dataclass(frozen=True)
class HNFiltration:
    """Chain 0 subset W^1 subset ... subset W^l = W with decreasing slopes."""

    steps: Tuple[SubrepWitness, ...]
    slopes: Tuple[Fraction, ...]

    def length(self):
        return len(self.steps)


# ---------------------------------------------------------------------------
# subspace enumeration


_SUBSPACE_CACHE = {}


def subspaces(ring, dim):
    """All subspaces of ring^dim as canonical column-basis matrices."""
    key = (ring, dim)
    cached = _SUBSPACE_CACHE.get(key)
    if cached is not None:
        return cached
    if not ring.is_finite:
        raise SchemaError("subspace enumeration needs a finite field")
    out = []
    elems = list(ring.elements())
    for r in range(dim + 1):
        for pivots in combinations(range(dim), r):
            free_pos = []
            for i in range(r):
                for j in range(pivots[i] + 1, dim):
                    if j not in pivots:
                        free_pos.append((i, j))
            for values in product(elems, repeat=len(free_pos)):
                rows = [[ring.zero] * dim for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = ring.one
                for (i, j), val in zip(free_pos, values):
                    rows[i][j] = val
                basis_rows = Mat(ring, rows, (r, dim))
                out.append(basis_rows.transpose())
    _SUBSPACE_CACHE[key] = out
    return out


def count_subspaces(q, dim):
    """Total number of subspaces of F_q^dim (sum of Gaussian binomials)."""
    total = 0
    for r in range(dim + 1):
        num = den = 1
        for i in range(r):
            num *= q ** (dim - i) - 1
            den *= q ** (i + 1) - 1
        total += num // den
    return total


def _sub_dim_vectors(dims):
    verts = list(dims)
    ranges = [range(dims[v] + 1) for v in verts]
    return [dict(zip(verts, combo)) for combo in product(*ranges)]


def _subspaces_by_dim(ring, dim):
    by_dim = {}
    for s in subspaces(ring, dim):
        by_dim.setdefault(s.ncols, []).append(s)
    return by_dim


def _check_budget(rep, dim_vectors, config):
    q = rep.ring.size
    cost = 0
    for e in dim_vectors:
        c = 1
        for v, d in rep.dims.items():
            # number of e_v-dimensional subspaces of F_q^d
            num = den = 1
            for i in range(e[v]):
                num *= q ** (d - i) - 1
                den *= q ** (i + 1) - 1
            c *= num // den
        cost += c
    if cost > config.max_subspace_checks:
        raise BudgetExceededError(
            f"subspace enumeration needs {cost} closure checks "
            f"(budget {config.max_subspace_checks})",
            estimate=cost,
        )
    return cost


def iter_closed_tuples(rep, dim_vector):
    """All subrepresentation witnesses with the given dimension vector."""
    verts = list(rep.quiver.vertices)
    per_vertex = []
    for v in verts:
        options = [
            s for s in _subspaces_by_dim(rep.ring, rep.dims[v]).get(dim_vector[v], [])
        ]
        if not options:
            return
        per_vertex.append(options)
    for combo in product(*per_vertex):
        bases = dict(zip(verts, combo))
        w = SubrepWitness(dict(dim_vector), bases)
        if w.is_closed_in(rep):
            yield w


def enumerate_subreps(rep, config):
    """Every subrepresentation witness, including 0 and the full one."""
    if not rep.ring.is_finite:
        raise SchemaError("enumerate_subreps requires a finite coefficient field")
    dim_vectors = _sub_dim_vectors(rep.dims)
    _check_budget(rep, dim_vectors, config)
    out = []
    for e in dim_vectors:
        out.extend(iter_closed_tuples(rep, e))
    return out


# ---------------------------------------------------------------------------
# verdicts


def _slope_groups(rep, theta, proper_only=True):
    """Sub-dimension vectors grouped by slope, in decreasing slope order."""
    groups = {}
    d = rep.dims
    for e in _sub_dim_vectors(d):
        t = sum(e.values())
        if t == 0:
            continue
        if proper_only and e == d:
            continue
        groups.setdefault(slope(e, theta), []).append(e)
    return sorted(groups.items(), key=lambda kv: kv[0], reverse=True)


def stability_verdict(rep, theta, config):
    """Exact verdict over a finite field by subrepresentation enumeration.

    Unstable comes with a witness of maximal slope; the witness slope is
    strictly larger than mu(W).  A maximal slope equal to mu(W) attained by
    a proper subrepresentation gives StrictlySemistable.
    """
    if rep.is_zero_dimensional():
        raise ValueError("stability of the zero representation is undefined")
    if not rep.ring.is_finite:
        raise SchemaError(
            "exact verdicts need a finite field; use geom_stability_certificate"
        )
    mu = rep.slope(theta)
    groups = _slope_groups(rep, theta, proper_only=True)
    relevant = [(s, es) for s, es in groups if s >= mu]
    _check_budget(rep, [e for _, es in relevant for e in es], config)
    for s, es in relevant:
        for e in es:
            for w in iter_closed_tuples(rep, e):
                if s > mu:
                    return StabilityVerdict(UNSTABLE, witness=w, detail={"slope": s})
                return StabilityVerdict(STRICTLY_SEMISTABLE, witness=w, detail={"slope": s})
    return StabilityVerdict(STABLE)


def is_semistable(rep, theta, config):
    """Semistability only needs the slope groups strictly above mu."""
    if not rep.ring.is_finite:
        raise SchemaError("exact semistability checks need a finite field")
    mu = rep.slope(theta)
    groups = [(s, es) for s, es in _slope_groups(rep, theta) if s > mu]
    _check_budget(rep, [e for _, es in groups for e in es], config)
    for s, es in groups:
        for e in es:
            for _ in iter_closed_tuples(rep, e):
                return False
    return True


def is_geometrically_stable(rep, theta, config):
    """Stable over the finite field and Schur (End = base field).

    Stable plus Schur is equivalent to stability after every base field
    extension; stability alone is not enough (a loop with irreducible
    quadratic characteristic polynomial is stable with End a quadratic
    field, and splits after the quadratic extension).
    """
    v = stability_verdict(rep, theta, config)
    return v.is_stable and end_dim(rep) == 1


def scss(rep, theta, config):
    """The strongly-contradicting-semistability subrepresentation.

    The unique maximal subrepresentation among those of maximal slope;
    equals the full witness iff the representation is semistable.
    Uniqueness is a theorem, so a violation raises InvariantError.
    """
    if rep.is_zero_dimensional():
        raise ValueError("scss of the zero representation is undefined")
    if not rep.ring.is_finite:
        raise SchemaError("scss needs a finite coefficient field")
    mu = rep.slope(theta)
    # Only slopes strictly above mu can beat the full representation; if none
    # is attained, the representation is semistable and is its own scss.
    above = [(s, es) for s, es in _slope_groups(rep, theta) if s > mu]
    _check_budget(rep, [e for _, es in above for e in es], config)
    best_slope = None
    witnesses = []
    for s, es in above:
        if best_slope is not None and s < best_slope:
            break
        for e in es:
            found = list(iter_closed_tuples(rep, e))
            if found and best_slope is None:
                best_slope = s
            if best_slope is not None and s == best_slope:
                witnesses.extend(found)
    if best_slope is None:
        return full_witness(rep)
    witnesses.sort(key=lambda w: w.total_dim(), reverse=True)
    top = witnesses[0]
    for w in witnesses[1:]:
        if not top.contains(w):
            raise InvariantError("maximal-slope subrepresentations not nested in scss")
    return top


# ---------------------------------------------------------------------------
# quotients and Harder-Narasimhan


def _complement_columns(basis, ring, dim):
    """Greedy completion of a column basis by standard basis vectors."""
    cols = [basis.col(j) for j in range(basis.ncols)]
    current = basis
    comp = []
    for i in range(dim):
        e = tuple(ring.one if k == i else ring.zero for k in range(dim))
        cand = Mat.from_cols(ring, cols + comp + [e], dim)
        if cand.rank() == len(cols) + len(comp) + 1:
            comp.append(e)
        if len(cols) + len(comp) == dim:
            break
    return Mat.from_cols(ring, comp, dim) if comp else Mat.zero(ring, dim, 0)


def quotient_rep(rep, witness):
    """The quotient representation W / U together with pullback data.

    Returns (quotient, lift) with lift(v, quotient-coordinate columns)
    producing columns in W's coordinates.
    """
    ring = rep.ring
    P = {}
    Pinv = {}
    for v in rep.quiver.vertices:
        U = witness.bases[v]
        C = _complement_columns(U, ring, rep.dims[v])
        Pv = U.hstack(C)
        if rep.dims[v] > 0 and not Pv.is_invertible():
            raise InvariantError("witness basis plus complement is not a basis")
        P[v] = Pv
        Pinv[v] = Pv.inverse() if rep.dims[v] > 0 else Pv
    qdims = {v: rep.dims[v] - witness.dims[v] for v in rep.quiver.vertices}
    qmats = {}
    for a in rep.quiver.arrows:
        e_h = witness.dims[a.dst]
        e_t = witness.dims[a.src]
        full = Pinv[a.dst] @ rep.mats[a.name] @ P[a.src]
        block = tuple(row[e_t:] for row in full.rows[e_h:])
        lower_left = tuple(row[:e_t] for row in full.rows[e_h:])
        if any(x != ring.zero for r in lower_left for x in r):
            raise InvariantError("witness is not closed; quotient is undefined")
        qmats[a.name] = Mat(ring, block, (qdims[a.dst], qdims[a.src]))
    quotient = Representation(rep.quiver, ring, qdims, qmats)

    def lift(v, cols_in_quotient):
        e_v = witness.dims[v]
        z = Mat.zero(ring, e_v, cols_in_quotient.ncols)
        return P[v] @ z.vstack(cols_in_quotient)

    return quotient, lift


def restrict_rep(rep, witness):
    """The representation induced on the witness subspaces, in witness coordinates."""
    ring = rep.ring
    mats = {}
    for a in rep.quiver.arrows:
        U_t = witness.bases[a.src]
        U_h = witness.bases[a.dst]
        img = rep.mats[a.name] @ U_t
        coords = U_h.solve(img)
        if coords is None:
            raise InvariantError("witness is not closed; restriction is undefined")
        mats[a.name] = coords
    return Representation(rep.quiver, ring, dict(witness.dims), mats)


def hn_filtration(rep, theta, config):
    """The Harder-Narasimhan filtration, built inductively from scss."""
    if rep.is_zero_dimensional():
        raise ValueError("HN filtration of the zero representation is undefined")
    first = scss(rep, theta, config)
    first = first.canonical()
    slopes = [first.slope(theta)]
    if first.is_full(rep):
        return HNFiltration((first,), tuple(slopes))
    quotient, lift = quotient_rep(rep, first)
    tail = hn_filtration(quotient, theta, config)
    steps = [first]
    for w, s in zip(tail.steps, tail.slopes):
        lifted = {
            v: first.bases[v].hstack(lift(v, w.bases[v])) for v in rep.quiver.vertices
        }
        dims = {v: first.dims[v] + w.dims[v] for v in rep.quiver.vertices}
        steps.append(SubrepWitness(dims, lifted).canonical())
        slopes.append(s)
    for a, b in zip(slopes, slopes[1:]):
        if not a > b:
            raise InvariantError("HN slopes fail to decrease strictly")
    if not steps[-1].is_full(rep):
        raise InvariantError("HN filtration does not end at the full representation")
    return HNFiltration(tuple(steps), tuple(slopes))


def hn_subquotients(rep, theta, hn):
    """The subquotients W^i / W^{i-1} of a filtration, as representations."""
    out = []
    prev = None
    for w in hn.steps:
        sub = restrict_rep(rep, w)
        if prev is None:
            out.append(sub)
        else:
            coords = {
                v: w.bases[v].solve(prev.bases[v]) for v in rep.quiver.vertices
            }
            if any(c is None for c in coords.values()):
                raise InvariantError("HN steps are not nested")
            inner = SubrepWitness(dict(prev.dims), coords)
            quotient, _ = quotient_rep(sub, inner)
            out.append(quotient)
        prev = w
    return out


def verify_hn(rep, theta, hn, config):
    """Re-check an HN filtration: nesting, decreasing slopes, semistable layers."""
    prev = None
    for w in hn.steps:
        if not w.is_closed_in(rep):
            return False
        if prev is not None and not w.contains(prev):
            return False
        prev = w
    if list(hn.slopes) != sorted(hn.slopes, reverse=True) or len(set(hn.slopes)) != len(
        hn.slopes
    ):
        return False
    for layer, s in zip(hn_subquotients(rep, theta, hn), hn.slopes):
        if layer.slope(theta) != s:
            return False
        if not is_semistable(layer, theta, config):
            return False
    return True


def base_change_witness(witness, pair):
    return SubrepWitness(
        dict(witness.dims),
        {v: b.map(pair.embed, pair.ext) for v, b in witness.bases.items()},
    )


# ---------------------------------------------------------------------------
# certificates over Q and Q(i)


def _reduction_map(ring, p):
    """Entry map ring -> F_p, or None when p is unusable for this ring."""
    fp = PrimeField(p)
    if ring == QQ:

        def red(x):
            if x.denominator % p == 0:
                raise ZeroDivisionError
            return x.numerator * pow(x.denominator, -1, p) % p

        return fp, red
    if isinstance(ring, QuadraticField) and ring.m == -1:
        if p % 4 != 1:
            return None
        r = sqrt_minus_one_mod(p)

        def red(x):
            a, b = x
            if a.denominator % p == 0 or b.denominator % p == 0:
                raise ZeroDivisionError
            av = a.numerator * pow(a.denominator, -1, p) % p
            bv = b.numerator * pow(b.denominator, -1, p) % p
            return (av + bv * r) % p

        return fp, red
    return None


def reduce_mod_prime(rep, p):
    """Reduction of a Q- or Q(i)-representation mod p, or None if p unusable."""
    rm = _reduction_map(rep.ring, p)
    if rm is None:
        return None
    fp, red = rm
    try:
        return rep.map_entries(red, fp)
    except ZeroDivisionError:
        return None


def _forward_closure(rep, seeds):
    """Smallest subrepresentation containing the seed subspaces (exact)."""
    ring = rep.ring
    spans = {v: seeds.get(v, Mat.zero(ring, rep.dims[v], 0)) for v in rep.quiver.vertices}
    changed = True
    while changed:
        changed = False
        for a in rep.quiver.arrows:
            img = rep.mats[a.name] @ spans[a.src]
            if img.ncols and not img.cols_contained_in(spans[a.dst]):
                spans[a.dst] = spans[a.dst].hstack(img).canonical_cols()
                changed = True
    dims = {v: spans[v].ncols for v in spans}
    return SubrepWitness(dims, {v: m.canonical_cols() for v, m in spans.items()})


def _centered_lift(ring, fp, col):
    p = fp.p
    if ring == QQ:
        return tuple(
            Fraction(c if c <= p // 2 else c - p) for c in col
        )
    # Q(i): lift the plain integer residue; the sqrt(-1) part of the witness
    # cannot be recovered from one residue, so this is heuristic and every
    # candidate is re-verified exactly.
    return tuple(
        (Fraction(c if c <= p // 2 else c - p), Fraction(0)) for c in col
    )


def _exact_destabilizer_candidates(rep, theta, modp_witness, fp):
    ring = rep.ring
    seeds = []
    if modp_witness is not None:
        lifted = {}
        for v, b in modp_witness.bases.items():
            cols = [
                _centered_lift(ring, fp, b.col(j)) for j in range(b.ncols)
            ]
            lifted[v] = (
                Mat.from_cols(ring, cols, rep.dims[v])
                if cols
                else Mat.zero(ring, rep.dims[v], 0)
            )
        seeds.append(lifted)
        for v, m in lifted.items():
            if m.ncols:
                seeds.append({v: m})
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        ker = m.nullspace()
        if ker:
            seeds.append({a.src: Mat.from_cols(ring, ker, rep.dims[a.src])})
        if m.ncols:
            img = m.canonical_cols()
            if img.ncols:
                seeds.append({a.dst: img})
    full = {v: Mat.identity(ring, rep.dims[v]) for v in rep.quiver.vertices}
    for v in rep.quiver.vertices:
        if rep.dims[v]:
            seeds.append({v: full[v]})
    out = []
    seen = set()
    for seed in seeds:
        cand = _forward_closure(rep, seed)
        key = tuple(sorted((v, m.rows) for v, m in cand.bases.items()))
        if key in seen:
            continue
        seen.add(key)
        if 0 < cand.total_dim() and cand.dims != rep.dims:
            out.append(cand)
    return out


def geom_stability_certificate(rep, theta, config, primes=None):
    """One-sided geometric stability certificate over Q or Q(i).

    Stable: some usable prime has a geometrically stable reduction (a
    destabilizing subspace over the algebraic closure would specialize into
    the reduction, so none exists).  Non-stable verdicts carry an exactly
    verified witness over the input field.  Otherwise Unknown.
    """
    if rep.is_zero_dimensional():
        raise ValueError("stability of the zero representation is undefined")
    if rep.ring.is_finite:
        raise SchemaError("certificates are for infinite coefficient fields")
    mu = rep.slope(theta)
    groups = _slope_groups(rep, theta, proper_only=True)
    if not groups or groups[0][0] < mu:
        # no sub-dimension vector can destabilize: stable without reduction
        return StabilityVerdict(STABLE, detail={"certificate": "dimension-count"})
    primes = list(primes if primes is not None else config.primes)
    tried = []
    best_exact = None
    for p in primes:
        red = reduce_mod_prime(rep, p)
        if red is None:
            tried.append((p, "unusable"))
            continue
        verdict = stability_verdict(red, theta, config)
        if verdict.is_stable and end_dim(red) == 1:
            return StabilityVerdict(STABLE, detail={"certificate": "reduction", "prime": p})
        tried.append((p, verdict.kind))
        fp = red.ring
        for cand in _exact_destabilizer_candidates(rep, theta, verdict.witness, fp):
            if not cand.is_closed_in(rep):
                continue
            s = cand.slope(theta)
            if s > mu:
                return StabilityVerdict(
                    UNSTABLE, witness=cand, detail={"slope": s, "prime": p}
                )
            if s == mu and best_exact is None:
                best_exact = StabilityVerdict(
                    STRICTLY_SEMISTABLE, witness=cand, detail={"slope": s, "prime": p}
                )
    if best_exact is not None:
        return best_exact
    return StabilityVerdict(UNKNOWN, detail={"tried": tried})
