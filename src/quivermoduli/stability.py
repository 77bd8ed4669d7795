"""Slope stability: subrepresentation enumeration, verdicts, scss, and
Harder-Narasimhan filtrations over finite fields, plus sound one-sided
certificates over Q and Q(sqrt(m)), joined in geom_stability, the one
geometric-stability decision.

One routine, _subquotient, builds every subquotient U / L of nested
subrepresentations: each HN quotient and each HN layer, with one
rref of [L | U | I] per vertex, whose I block inverts the completed basis.
It ranks U on its own only where L is nonzero and U's columns are not in
column-echelon form with unit leads; the engine's witnesses, canonical
steps and the full witness are, so they are independent by construction.
The HN filtration is a loop: W^1 = scss(W), and W^i adds the lift of
scss(W / W^{i-1}), each quotient built from W itself, until a quotient is
semistable: its slope is the last, and W's full witness the last step.
scss takes the largest closed subspace tuple of the first slope group above
mu that has one and checks that every other is nested in it on the
engine's membership memos, one lookup per basis row, before one witness
becomes Mat bases.

Every finite-field answer, here and in the censuses, comes from one closure
engine, entered through _search: it refuses an infinite field, checks the
subspace budget before any listing, and returns each slope group with its
walk, (prefix, candidates) pairs in product order: the index tuple of every
vertex but the last, and the last vertex's indices to try with it, its
whole range.  A census slice, whose arrow a0 is fixed at J_r, narrows each
walk once, into a list, to the combos closed under J_r, so its points test
only their free arrows (see _verdicts); the one loop, _Engine.closed,
walks both.  The engine lists subspaces as reduced-echelon bases, one rank
at a time on first use, so witnesses are deduplicated by construction.
M U_t lies inside U_h when each M u, u in a basis of U_t, is the combination
of U_h's echelon rows its pivot entries give; vectors are keyed by their
integer code sum v_i q^i, and every image code and membership verdict is
memoized on first use, so the work and memory grow with the closure checks
made, never with q^dim.  Each subspace is held once, as the row tuple of its
listing: a membership miss derives its pivots and columns from it.  A line
at the last vertex is looked up from the code of a nonzero image M u, the
one line that can hold it, rather than scanned for.  The search stops at the
first closed subspace tuple: _verdicts reads the first at or above mu, for
stability_verdict and the censuses, and _scss_above the first group above
mu, for scss, HN and is_semistable.  The subspaces of F_q^d and their memos
live on the field object, shared by every engine over it; an engine, built
per call (or once per census), keeps one point's image codes, and witnesses
become Mat column bases on the way out.

Over F_q a rep is geometrically stable iff it is stable and End W = k
(King, Quart. J. Math. 45 (1994)), which geom_stability decides exactly,
also for each reduction mod p of a certificate.
Decision procedures over infinite fields do not exist here;
geom_stability_certificate returns Stable only with a finite-field
certificate, returns a non-stable verdict only with an exactly re-verified
witness, and says Unknown otherwise.  A rep is immutable, so it keeps its
answers in rep.certificates, the dict it is built with: its exact verdicts
over F_q, which is_semistable, scss, and so hn_filtration and verify_hn
(whose one layer of a length-1 filtration is the rep itself), read instead
of searching again, and its certificates, which the type map's
precondition check reads.  Each is kept under the budget it was decided
with and read only under that budget; a BudgetExceededError is never kept.
"""

import weakref
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, groupby, product
from math import gcd
from operator import itemgetter, mul
from typing import Dict, Optional, Tuple

from .errors import BudgetExceededError, InvariantError, SchemaError, check_budget
from .ffields import PrimeField
from .homs import _coprime_dims, end_dim
from .linalg import Mat
from .numtheory import legendre, sqrt_mod
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
# the finite-field closure engine


def _gaussian_binomial(q, n, k):
    """Number of k-dimensional subspaces of F_q^n."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


class _Span(dict):
    """Membership of vector codes in one subspace U, filled on first lookup.

    With U's basis rows in reduced echelon form, v lies in U iff v is the
    combination sum_i v[p_i] row_i, p_i the position of the first one in
    row i: a miss reads those digits of v's code and compares the code of
    the combination, their image under U's basis columns (_image_code),
    with v's.  U is held once, as the row tuple of the store's listing;
    the memo holds only the codes looked up.
    """

    __slots__ = ("space", "rows")

    def __init__(self, rows, space):
        self.space = space
        self.rows = rows

    def __missing__(self, code):
        field, rows = self.space.field, self.rows
        q = field.size
        coeffs = [code // q ** row.index(field.one) % q for row in rows]
        inside = self[code] = _image_code(field, tuple(zip(*rows)), coeffs) == code
        return inside


class _Lines(dict):
    """Index of the line through each nonzero vector code, filled on first
    lookup.  In listing order the lines with pivot p (the first nonzero
    coordinate) follow those with earlier pivots, q^(dim-1-i) for each
    i < p, and are ordered by their later entries, scaled by the pivot's
    inverse, read as base-q digits."""

    __slots__ = ("space",)

    def __init__(self, space):
        self.space = space

    def __missing__(self, code):
        field, dim, q = self.space.field, self.space.dim, self.space.field.size
        idx, rest, p = self.space.offsets[1], code, 0
        while rest % q == 0:
            rest //= q
            p += 1
            idx += q ** (dim - p)
        rest, pivot = divmod(rest, q)
        inv, free = field.inv(pivot), 0
        for _ in range(p + 1, dim):
            rest, x = divmod(rest, q)
            free = free * q + field.mul(inv, x)
        idx = self[code] = idx + free
        return idx


class _Subspaces(dict):
    """The subspaces of F_q^dim: RREF bases listed one rank at a time on
    first use, a dict from subspace index to its _Span, and the index of
    the line through each vector looked up.  One per (field object, dim),
    kept in field.subspaces.

    Index offsets[r] + i is the i-th subspace of rank r (pivot columns in
    combinations order, free entries in product order), so the offsets are
    partial sums of Gaussian binomials.  Only the ranks some index is asked
    for are ever listed.
    """

    def __init__(self, field, dim):
        # held weakly: the field holds this store, and a reference back would
        # keep every reduced field of a certificate alive until a gc pass
        self._field = weakref.ref(field)
        self.dim = dim
        sizes = [_gaussian_binomial(field.size, dim, r) for r in range(dim + 1)]
        self.offsets = list(accumulate(sizes, initial=0))
        self._ranks = {}  # rank -> its RREF bases, in index order
        self.lines = _Lines(self)

    @property
    def field(self):
        return self._field()

    def __missing__(self, idx):
        span = self[idx] = _Span(self.rows(idx), self)
        return span

    def indices(self, rank):
        return range(self.offsets[rank], self.offsets[rank + 1])

    def rows(self, idx):
        rank = bisect_right(self.offsets, idx) - 1
        listed = self._ranks.get(rank)
        if listed is None:
            listed = self._ranks[rank] = list(self._list_rank(rank))
        return listed[idx - self.offsets[rank]]

    def _list_rank(self, r):
        field, dim = self.field, self.dim
        for pivots in combinations(range(dim), r):
            free_pos = []
            for i in range(r):
                for j in range(pivots[i] + 1, dim):
                    if j not in pivots:
                        free_pos.append((i, j))
            # product never iterates the elements when there is no free position
            for values in product(field.elements(), repeat=len(free_pos)):
                rows = [[field.zero] * dim for _ in range(r)]
                for i in range(r):
                    rows[i][pivots[i]] = field.one
                for (i, j), val in zip(free_pos, values):
                    rows[i][j] = val
                yield tuple(tuple(row) for row in rows)


class _Images(dict):
    """Image codes of one arrow matrix M by tail subspace index.

    Filled on first lookup: the codes sum_i (M u)_i q^i for u in U_t's
    basis, with M u computed once per basis vector (_image_code).
    """

    __slots__ = ("mat", "tails", "field", "codes")

    def __init__(self, mat, tails):
        self.mat = mat
        self.tails = tails
        self.field = tails.field
        self.codes = {}  # basis vector u -> code of M u

    def __missing__(self, t_idx):
        codes = self.codes
        img = []
        for u in self.tails[t_idx].rows:
            code = codes.get(u)
            if code is None:
                code = codes[u] = _image_code(self.field, self.mat, u)
            img.append(code)
        img = self[t_idx] = tuple(img)
        return img


def _image_code(field, mat, u):
    """The code sum_i (M u)_i q^i of M u over F_q, M given by its rows:
    the field's row kernel, with u's entries on the left."""
    return _code(field.row_times(u, mat), field.size)


def _code(vec, q):
    """The integer code sum_i vec[i] q^i of a vector over F_q."""
    code = 0
    for x in reversed(vec):
        code = code * q + x
    return code


def _closed_pairs(mat, tails):
    """The image codes of one arrow matrix, empty until tested; made once
    per matrix an engine meets, so a census calls it once per memo miss."""
    return _Images(mat, tails)


def _encode_rep(rep):
    """A representation's arrow matrices as row tuples, in quiver.arrows order."""
    return tuple(rep.mats[a.name].rows for a in rep.quiver.arrows)


class _Engine:
    """Closure engine for one (quiver, dims) over a finite field.

    A candidate subrepresentation is a combo: one subspace index per vertex,
    in quiver.vertices order.  It is closed when M U_t lies inside U_h for
    every arrow.  Each vertex's subspaces come from the field's store, so
    engines over one field share their listings and memberships; an engine
    is built per call, or once per census, and its image codes die with it.
    """

    def __init__(self, quiver, dims, field):
        self.field = field
        self.verts = list(quiver.vertices)
        store = field.subspaces
        for d in set(dims.values()) - store.keys():
            store[d] = _Subspaces(field, d)
        self.spaces = [store[dims[v]] for v in self.verts]
        pos = {v: i for i, v in enumerate(self.verts)}
        # per arrow: tail subspaces, head subspaces, tail and head positions
        self.arrows = [
            (self.spaces[pos[a.src]], self.spaces[pos[a.dst]], pos[a.src], pos[a.dst])
            for a in quiver.arrows
        ]
        self.last = len(self.verts) - 1

    def walk(self, e):
        """The combos with dimension vector e as (prefix, candidates) pairs
        in product order: each index tuple of every vertex but the last,
        with the whole range of the last."""
        ranges = [sp.indices(e[v]) for v, sp in zip(self.verts, self.spaces)]
        return [(prefix, ranges[-1]) for prefix in product(*ranges[:-1])]

    def narrow(self, tests, e, walk):
        """The pairs of a walk narrowed, prefix by prefix, to the candidates
        that pass tests (through closed); a prefix that keeps none is left
        out, and product order is kept."""
        for pair in walk:
            kept = tuple(combo[-1] for _, _, combo in self.closed(tests, [(None, e, [pair])]))
            if kept:
                yield pair[0], kept

    def test(self, i, mat):
        """The closure test (images, heads, t, h) of arrow i's matrix rows."""
        tails, heads, t, h = self.arrows[i]
        return _closed_pairs(mat, tails), heads, t, h

    def tests(self, point, memo=None, settled=None):
        """Closure tests, one per arrow matrix of an encoded point but arrow
        settled's.  With memo (one dict per arrow), a matrix met before
        reuses its test and a new one is kept for the points that follow."""
        out = []
        for i, mat in enumerate(point):
            if i == settled:
                continue
            test = memo[i].get(mat) if memo else None
            if test is None:
                test = self.test(i, mat)
                if memo:
                    memo[i][mat] = test
            out.append(test)
        return out

    def closed(self, tests, groups):
        """(s, e, combo) for each combo in [(s, e, walk)] that passes every
        test, in product order.

        M U_t lies inside U_h iff the code of every M u, u in U_t's basis,
        is in the span of U_h.  A line at the last vertex holding a nonzero
        image of a tested arrow can only be its span, so that line is the one
        candidate, if the walk offers it.
        """
        last, lastv = self.last, self.verts[-1]
        lines = self.spaces[last].lines
        pins = None  # the tested arrows into the last vertex, listed once needed
        for s, e, walk in groups:
            line = e[lastv] == 1
            if line and pins is None:
                pins = [(images, t) for images, _, t, h in tests if h == last != t]
            for prefix, candidates in walk:
                if line:
                    for images, t in pins:
                        for code in images[prefix[t]]:
                            if code:
                                c = lines[code]
                                candidates = (c,) if c in candidates else ()
                                break
                        else:
                            continue
                        break
                combo = [*prefix, 0]
                for c in candidates:
                    combo[last] = c
                    for images, heads, t, h in tests:
                        span = heads[combo[h]]
                        for code in images[combo[t]]:
                            if not span[code]:
                                break
                        else:
                            continue
                        break  # an image vector outside U_h: not closed
                    else:
                        yield s, e, tuple(combo)

    def nested(self, inner, outer):
        """Whether combo inner lies in combo outer vertex by vertex: the code
        of every basis row of inner's subspace in outer's _Span."""
        q = self.field.size
        for sp, i, o in zip(self.spaces, inner, outer):
            if i != o:
                span = sp[o]
                for row in sp.rows(i):
                    if not span[_code(row, q)]:
                        return False
        return True

    def witness(self, e, combo):
        """A closed combo as per-vertex column bases."""
        return SubrepWitness(
            dict(e),
            {
                v: Mat.from_cols(self.field, sp.rows(i), sp.dim)
                for v, sp, i in zip(self.verts, self.spaces, combo)
            },
        )


def _sub_dim_vectors(dims):
    verts = list(dims)
    ranges = [range(dims[v] + 1) for v in verts]
    return [dict(zip(verts, combo)) for combo in product(*ranges)]


def _slope_groups(dims, theta, floor, strict=False):
    """Proper nonzero sub-dimension vectors of slope at least floor (above
    it when strict), grouped by slope, decreasing.  The slope num / tot of
    each integer tuple is compared with floor by cross-multiplication; a
    kept vector becomes a dict, grouped under its reduced (num, tot), and
    each distinct slope becomes one Fraction."""
    verts = list(dims)
    full = tuple(dims.values())
    weights = [theta[v] for v in verts]
    floor = Fraction(floor)
    a, b = floor.numerator, floor.denominator
    groups = {}
    for e in product(*[range(d + 1) for d in full]):
        tot = sum(e)
        if tot == 0 or e == full:
            continue
        num = sum(map(mul, weights, e))
        above = num * b - a * tot
        if above > 0 or (above == 0 and not strict):
            g = gcd(num, tot)
            groups.setdefault((num // g, tot // g), []).append(dict(zip(verts, e)))
    out = [(Fraction(num, tot), es) for (num, tot), es in groups.items()]
    return sorted(out, key=itemgetter(0), reverse=True)


def _check_budget(dims, q, dim_vectors, config):
    """The closure checks of one point over F_q with these dims, at most one
    per subspace tuple of each dimension vector, or BudgetExceededError.

    The sum stops once it passes both the budget and 2^64: a count that
    large is reported as a power-of-two floor anyway, and a single large
    d_v would otherwise sum Gaussian binomials of F_q^{d_v} for every
    dimension vector before refusing.  Each Gaussian binomial is computed
    once per (d, r) asked for in the call.
    """
    cap = max(config.max_subspace_checks, 2**64)
    binomials = {}  # (d, r) -> subspaces of rank r in F_q^d
    cost = 0
    for e in dim_vectors:
        c = 1
        for v, d in dims.items():
            key = (d, e[v])
            b = binomials.get(key)
            if b is None:
                b = binomials[key] = _gaussian_binomial(q, d, e[v])
            c *= b
        cost += c
        if cost > cap:
            break
    what = "subspace enumeration needs {} closure checks"
    return check_budget(cost, config.max_subspace_checks, what)


_NEEDS_FINITE = "exact verdicts need a finite field; use geom_stability_certificate"


def _search(quiver, dims, field, groups, config):
    """The engine for (quiver, dims) over a finite field, and the slope
    groups [(s, [e])] as flat [(s, e, walk)], each walk listed once the
    closure checks fit the budget."""
    if not field.is_finite:
        raise SchemaError(_NEEDS_FINITE)
    _check_budget(dims, field.size, [e for _, es in groups for e in es], config)
    eng = _Engine(quiver, dims, field)
    return eng, [(s, e, eng.walk(e)) for s, es in groups for e in es]


def enumerate_subreps(rep, config):
    """Every subrepresentation witness, including 0 and the full one."""
    groups = [(None, _sub_dim_vectors(rep.dims))]
    eng, groups = _search(rep.quiver, rep.dims, rep.ring, groups, config)
    closed = eng.closed(eng.tests(_encode_rep(rep)), groups)
    return [eng.witness(e, combo) for _, e, combo in closed]


# ---------------------------------------------------------------------------
# verdicts


def _verdicts(quiver, dims, theta, field, config):
    """The engine for (quiver, dims) over a finite field, and verdicts:
    verdicts(fixed) is the verdict function of the points whose arrow
    matrices fixed gives, {k: form} or {} for the whole space.  A verdict
    is (kind, hit), hit the first closed (s, e, combo) in the slope groups
    at or above mu, or (STABLE, None) when there is none.

    A slice narrows each group's walk once, into a list, to the combos
    closed under form (_Engine.narrow), so its points test only their
    other arrows.  A combo is closed exactly when it is closed under form
    and under every other arrow, and product order is kept, so each hit is
    the whole walk's.  A slice whose other arrows have no entries is one
    point, which no other point would share a narrowing with, so it reads
    the whole walk.  When every walk a verdict would read is empty, no
    combo can close, and the verdict keeps every point, Stable, with no
    closure test built.

    With several arrows, whose matrices repeat across a census's points,
    each arrow keeps a memo from matrix rows to that matrix's closure test;
    a scan over one arrow meets every matrix once, so it keeps none.
    """
    mu = slope(dims, theta)
    groups = _slope_groups(dims, theta, mu)
    eng, groups = _search(quiver, dims, field, groups, config)
    memo = [{} for _ in quiver.arrows] if len(quiver.arrows) > 1 else None
    # the groups fall in slope, so only the last can be at mu, and a hit
    # carries its group's slope object
    at_mu = groups[-1][0] if groups and groups[-1][0] == mu else None

    def verdicts(fixed):
        walks, settled = groups, None
        if fixed:
            ((k, form),) = fixed.items()
            if any(t.dim * h.dim for i, (t, h, _, _) in enumerate(eng.arrows) if i != k):
                tests, settled = [eng.test(k, form)], k
                walks = [(s, e, list(eng.narrow(tests, e, walk))) for s, e, walk in groups]
        if not any(walk for _, _, walk in walks):
            return lambda point: (STABLE, None)

        def verdict(point):
            hit = next(eng.closed(eng.tests(point, memo, settled), walks), None)
            if hit is None:
                return STABLE, None
            return (STRICTLY_SEMISTABLE if hit[0] is at_mu else UNSTABLE), hit

        return verdict

    return eng, verdicts


def _verdict_key(theta, config):
    """The key of an exact verdict in rep.certificates: theta and the one
    config field the verdict reads, the subspace budget.  A kept verdict
    passed the budget over the slope groups at or above mu, so each walk it
    stands in for, under the same budget, would have passed too."""
    return ("verdict", tuple(sorted(theta.items())), config.max_subspace_checks)


def stability_verdict(rep, theta, config):
    """Exact verdict over a finite field by subrepresentation enumeration.

    Unstable comes with a witness of maximal slope; the witness slope is
    strictly larger than mu(W).  A maximal slope equal to mu(W) attained by
    a proper subrepresentation gives StrictlySemistable.

    The verdict is kept in rep.certificates under _verdict_key, where
    is_semistable and scss read it; a BudgetExceededError is not kept.
    """
    if rep.is_zero_dimensional():
        raise ValueError("stability of the zero representation is undefined")
    memo = rep.certificates
    key = _verdict_key(theta, config)
    if key not in memo:
        eng, verdicts = _verdicts(rep.quiver, rep.dims, theta, rep.ring, config)
        kind, hit = verdicts({})(_encode_rep(rep))
        if hit is None:
            memo[key] = StabilityVerdict(STABLE)
        else:
            s, e, combo = hit
            memo[key] = StabilityVerdict(kind, witness=eng.witness(e, combo), detail={"slope": s})
    return memo[key]


def is_semistable(rep, theta, config):
    """Semistability: read off a kept verdict, or else whether _scss_above
    finds a subrepresentation of slope above mu."""
    kept = rep.certificates.get(_verdict_key(theta, config))
    if kept is not None:
        return kept.kind != UNSTABLE
    return _scss_above(rep, theta, config) is None


def geom_stability(rep, theta, config):
    """The geometric-stability decision: stability after every base field
    extension.

    Over a finite field it is exact: a rep is geometrically stable iff it is
    stable and Schur, End W = k (King, Quart. J. Math. 45 (1994)).  A stable
    rep with a larger End (a loop with irreducible quadratic characteristic
    polynomial has End a quadratic field) splits after base change and
    comes back strictly semistable, with no witness and a reason.  Over Q
    and Q(sqrt(m)) the answer is geom_stability_certificate's, Unknown
    included.
    """
    if not rep.ring.is_finite:
        return geom_stability_certificate(rep, theta, config)
    verdict = stability_verdict(rep, theta, config)
    if verdict.is_stable and not _coprime_dims(rep.dims) and end_dim(rep) != 1:
        return StabilityVerdict(STRICTLY_SEMISTABLE, detail={"reason": "stable but not Schur"})
    return verdict


def is_geometrically_stable(rep, theta, config):
    """geom_stability over a finite field, as a bool; an infinite ring raises
    SchemaError, since an Unknown certificate is not a False."""
    if not rep.ring.is_finite:
        raise SchemaError(_NEEDS_FINITE)
    return geom_stability(rep, theta, config).is_stable


def scss(rep, theta, config):
    """The strongly-contradicting-semistability subrepresentation.

    The unique maximal subrepresentation among those of maximal slope;
    equals the full witness iff the representation is semistable.
    Uniqueness is a theorem, so a violation raises InvariantError.
    """
    if rep.is_zero_dimensional():
        raise ValueError("scss of the zero representation is undefined")
    top = _scss_above(rep, theta, config)
    return full_witness(rep) if top is None else top


def _scss_above(rep, theta, config):
    """scss of a rep with a subrepresentation of slope above mu, or None
    when it is semistable (its scss is then the full witness)."""
    # Only slopes strictly above mu can beat the full representation.  A
    # kept Unstable verdict's slope is the highest attained: walk its group.
    kept = rep.certificates.get(_verdict_key(theta, config))
    if kept is not None and kept.kind != UNSTABLE:
        return None
    groups = _slope_groups(rep.dims, theta, rep.slope(theta), strict=True)
    if kept is not None:
        groups = [g for g in groups if g[0] == kept.detail["slope"]]
    eng, groups = _search(rep.quiver, rep.dims, rep.ring, groups, config)
    tests = eng.tests(_encode_rep(rep))
    for _, same_slope in groupby(groups, key=itemgetter(0)):
        closed = [(e, combo) for _, e, combo in eng.closed(tests, same_slope)]
        if closed:
            break
    else:
        return None
    # the largest closed combo of the group, first in product order; every
    # other must lie in it, which its _Span memos decide
    e, top = max(closed, key=lambda hit: sum(hit[0].values()))
    if not all(combo is top or eng.nested(combo, top) for _, combo in closed):
        raise InvariantError("maximal-slope subrepresentations not nested in scss")
    return eng.witness(e, top)


# ---------------------------------------------------------------------------
# quotients and Harder-Narasimhan


def _zero_witness(rep):
    return SubrepWitness(
        {v: 0 for v in rep.quiver.vertices},
        {v: Mat.zero(rep.ring, rep.dims[v], 0) for v in rep.quiver.vertices},
    )


def _subquotient(rep, lower, upper):
    """The layer upper / lower of nested subrepresentations, and per vertex
    the columns C of upper completing lower's basis: the pivots of
    rref [lower | upper] past lower's columns.

    One rref of [lower | upper | I] per vertex also gives, in its I block,
    P with P [lower | C | E] = I, E unit columns.  The layer's matrices are
    the C block of P M [lower | C]: its E rows vanish when upper is closed,
    its lower-left block when lower is.  A basis matrix on the left keeps
    the pivots: C is the greedy pick in upper's own coordinates.
    """
    ring = rep.ring
    build = Mat._of if ring.is_finite else Mat  # Mat makes Q's coordinates
    C, basis, P = {}, {}, {}
    for v in rep.quiver.vertices:
        L, U = lower.bases[v], upper.bases[v]
        d, k, n = rep.dims[v], L.ncols, L.ncols + U.ncols
        R, pivots = L.hstack(U).hstack(Mat.identity(ring, d)).rref()
        pivots = [p for p in pivots if p < n]
        inside = pivots[:k] == list(range(k)) and len(pivots) == U.ncols
        # with lower nonzero, the pivot count alone would also pass a
        # dependent upper that lower sticks out of
        if not inside or (k and not _echelon(U) and U.rank() != U.ncols):
            raise InvariantError("witness bases are not independent and nested")
        C[v] = Mat.from_cols(ring, [U.col(p - k) for p in pivots[k:]], d)
        basis[v] = L.hstack(C[v])
        P[v] = build(ring, tuple(r[n:] for r in R.rows), (d, d))
    dims = {v: C[v].ncols for v in rep.quiver.vertices}
    mats = {}
    for a in rep.quiver.arrows:
        coords = (P[a.dst] @ (rep.mats[a.name] @ basis[a.src])).rows
        k_h, k_t = lower.dims[a.dst], lower.dims[a.src]
        top = k_h + dims[a.dst]
        if any(x != ring.zero for row in coords[top:] for x in row):
            raise InvariantError("upper witness is not closed")
        if any(x != ring.zero for row in coords[k_h:top] for x in row[:k_t]):
            raise InvariantError("lower witness is not closed")
        block = tuple(row[k_t:] for row in coords[k_h:top])
        mats[a.name] = build(ring, block, (dims[a.dst], dims[a.src]))
    return Representation(rep.quiver, ring, dims, mats), C


def _echelon(basis):
    """Whether the columns are in column-echelon form with unit leads: the
    first nonzero entry of each is a one, below the previous column's.
    Such columns are independent, as the engine's witnesses, canonical
    bases and identities are by construction."""
    one, zero = basis.ring.one, basis.ring.zero
    top = -1
    for col in zip(*basis.rows):
        for i, x in enumerate(col):
            if x != zero:
                break
        else:
            return False
        if i <= top or x != one:
            return False
        top = i
    return True


def hn_filtration(rep, theta, config):
    """The Harder-Narasimhan filtration: W^1 = scss(W), and W^i = W^{i-1}
    plus the lift of scss(W / W^{i-1}) until a quotient is semistable; its
    slope is the last one and W the last step.  W^1 is canonical as scss
    returns it, and only the last step is ever the full witness."""
    if rep.is_zero_dimensional():
        raise ValueError("HN filtration of the zero representation is undefined")
    quotient, step = rep, None
    steps, slopes = [], []
    while True:
        layer = _scss_above(quotient, theta, config)
        if layer is None:
            slopes.append(quotient.slope(theta))
            steps.append(full_witness(rep) if step is None else full)
            break
        if layer.is_zero():
            raise InvariantError("scss returned the zero subrepresentation")
        slopes.append(layer.slope(theta))
        if step is None:
            step, full = layer, full_witness(rep)
        else:
            step = SubrepWitness(
                {v: step.dims[v] + layer.dims[v] for v in rep.quiver.vertices},
                {v: step.bases[v].hstack(C[v] @ layer.bases[v]) for v in rep.quiver.vertices},
            ).canonical()
        steps.append(step)
        quotient, C = _subquotient(rep, step, full)
    for a, b in zip(slopes, slopes[1:]):
        if not a > b:
            raise InvariantError("HN slopes fail to decrease strictly")
    return HNFiltration(tuple(steps), tuple(slopes))


def hn_subquotients(rep, hn):
    """The subquotients W^i / W^{i-1} of a filtration, as representations.
    A first step that is the full witness (identity bases) gives W itself,
    which keeps its verdicts."""
    out = []
    lower = _zero_witness(rep)
    for w in hn.steps:
        whole = not out and w.dims == rep.dims and all(
            w.bases[v] == Mat.identity(rep.ring, d) for v, d in rep.dims.items()
        )
        out.append(rep if whole else _subquotient(rep, lower, w)[0])
        lower = w
    return out


def verify_hn(rep, theta, hn, config):
    """Re-check an HN filtration: one slope per step, strictly decreasing,
    and a last step with d_v basis columns at each vertex v; then closed and
    nested steps with independent bases (each checked once, by _subquotient
    as it builds the layers), so the last step is all of W; then nonzero
    semistable layers of the stated slopes."""
    steps, slopes = hn.steps, list(hn.slopes)
    if not steps or len(steps) != len(slopes):
        return False
    if any(steps[-1].bases[v].ncols != d for v, d in rep.dims.items()):
        return False
    if slopes != sorted(slopes, reverse=True) or len(set(slopes)) != len(slopes):
        return False
    try:
        layers = hn_subquotients(rep, hn)
    except InvariantError:
        return False
    for layer, s in zip(layers, slopes):
        if layer.is_zero_dimensional() or layer.slope(theta) != s:
            return False
        if not is_semistable(layer, theta, config):
            return False
    return True


# ---------------------------------------------------------------------------
# certificates over Q and Q(sqrt(m))


def reduce_mod_prime(rep, p):
    """Reduction of a Q- or Q(sqrt(m))-representation mod p, or None if p
    is unusable.

    Q reduces at every p.  Q(sqrt(m)) reduces at an odd p where m is a
    nonzero square, with sqrt(m) sent to its least square root r mod p; for
    m = -1 those are the primes p = 1 mod 4.  A matrix (A + B sqrt(m)) / d
    reduces to (A + r B) d^-1, so p is also unusable when it divides some
    d: the coordinates are canonical, so that is when p divides the
    denominator of some entry."""
    ring = rep.ring
    if ring == QQ:
        r = 0
    elif isinstance(ring, QuadraticField) and p > 2 and legendre(ring.m, p) == 1:
        r = sqrt_mod(ring.m, p)
    else:
        return None
    coords = {name: m.coords for name, m in rep.mats.items()}
    if any(d % p == 0 for _, _, d in coords.values()):
        return None
    fp = PrimeField(p)
    mats = {}
    for name, (A, B, d) in coords.items():
        t = pow(d, -1, p)
        rows = tuple(
            tuple((x + r * y) * t % p for x, y in zip(a, b)) for a, b in zip(A, B)
        )
        mats[name] = Mat._of(fp, rows, rep.mats[name].shape)
    return Representation(rep.quiver, fp, rep.dims, mats)


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
    lift = [Fraction(c if c <= p // 2 else c - p) for c in col]
    if ring == QQ:
        return tuple(lift)
    # Q(sqrt(m)): lift the plain integer residue; the sqrt(m) part of the witness
    # cannot be recovered from one residue, so this is heuristic and every
    # candidate is re-verified exactly.
    return tuple((x, Fraction(0)) for x in lift)


def _lifted_seeds(rep, modp_witness, fp):
    """Seeds from a mod-p witness: its centered lift at every vertex, then
    the lift at each vertex where it is nonzero on its own."""
    if modp_witness is None:
        return []
    ring = rep.ring
    lifted = {}
    for v, b in modp_witness.bases.items():
        cols = [_centered_lift(ring, fp, b.col(j)) for j in range(b.ncols)]
        lifted[v] = (
            Mat.from_cols(ring, cols, rep.dims[v])
            if cols
            else Mat.zero(ring, rep.dims[v], 0)
        )
    return [lifted] + [{v: m} for v, m in lifted.items() if m.ncols]


def _fixed_seeds(rep):
    """Seeds that do not depend on the prime: each arrow's kernel and image,
    then each nonzero vertex space."""
    ring = rep.ring
    seeds = []
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        ker = m.nullspace()
        if ker:
            seeds.append({a.src: Mat.from_cols(ring, ker, rep.dims[a.src])})
        if m.ncols:
            img = m.canonical_cols()
            if img.ncols:
                seeds.append({a.dst: img})
    for v in rep.quiver.vertices:
        if rep.dims[v]:
            seeds.append({v: Mat.identity(ring, rep.dims[v])})
    return seeds


def _exact_destabilizer_candidates(rep, seeds, seen):
    """The proper nonzero forward closures of the seeds, in seed order,
    leaving out each seed and each closure that seen already holds and
    adding them to it.  One seen per certificate: a later prime closes no
    seed and offers no candidate that an earlier prime handled."""
    out = []
    for seed in seeds:
        key = ("seed", *sorted(seed.items()))
        if key in seen:
            continue
        seen.add(key)
        cand = _forward_closure(rep, seed)
        key = tuple(sorted(cand.bases.items()))
        if key in seen:
            continue
        seen.add(key)
        if 0 < cand.total_dim() and cand.dims != rep.dims:
            out.append(cand)
    return out


def geom_stability_certificate(rep, theta, config):
    """One-sided geometric stability certificate over Q or Q(sqrt(m)).

    Stable: some usable prime has a geometrically stable reduction (a
    destabilizing subspace over the algebraic closure would specialize into
    the reduction, so none exists).  Non-stable verdicts carry an exactly
    verified witness over the input field.  Otherwise Unknown.

    Two passes.  The first reduces at each prime of config.primes in order
    and returns Stable at the first reduction that is stable with a
    one-dimensional End.  The second walks the usable primes in the same
    order and closes candidate seeds exactly: the lift of that prime's mod-p
    witness, and, at the first prime only, the seeds that do not depend on p
    (arrow kernels and images, full vertex spaces).  The order cannot change
    the answer: an exact subrepresentation U of slope >= mu meets the
    lattice in a saturated, arrow-stable sublattice at every usable prime,
    whose reduction is a subrepresentation with U's dimension vector, so no
    usable reduction is stable when a witness exists.  A BudgetExceededError
    from the verdict at one prime ends the first pass; it is raised after
    the second pass has hunted the primes before it, unless that hunt finds
    an Unstable witness.

    The verdict is kept in rep.certificates, keyed by theta and the only
    config fields the certificate reads, config.primes and
    config.max_subspace_checks, so a later call on the same rep (the type
    map's precondition check, say) returns it without reducing again.  A
    BudgetExceededError is not kept: it is raised again on every call.
    """
    if rep.is_zero_dimensional():
        raise ValueError("stability of the zero representation is undefined")
    if rep.ring.is_finite:
        raise SchemaError("certificates are for infinite coefficient fields")
    key = (tuple(sorted(theta.items())), config.primes, config.max_subspace_checks)
    memo = rep.certificates
    if key not in memo:
        memo[key] = _certificate(rep, theta, config)
    return memo[key]


def _certificate(rep, theta, config):
    """geom_stability_certificate's two passes, for a nonzero rep over an
    infinite field."""
    mu = rep.slope(theta)
    if not _slope_groups(rep.dims, theta, mu):
        # no sub-dimension vector can destabilize: stable without reduction
        return StabilityVerdict(STABLE, detail={"certificate": "dimension-count"})
    tried = []
    hunts = []  # (p, F_p, mod-p witness) per usable prime, in order
    over_budget = None
    for p in config.primes:
        red = reduce_mod_prime(rep, p)
        if red is None:
            tried.append((p, "unusable"))
            continue
        try:
            verdict = stability_verdict(red, theta, config)
        except BudgetExceededError as exc:
            over_budget = exc
            break
        if geom_stability(red, theta, config).is_stable:
            return StabilityVerdict(STABLE, detail={"certificate": "reduction", "prime": p})
        tried.append((p, verdict.kind))
        hunts.append((p, red.ring, verdict.witness))
    best_exact = None
    # a candidate met again at a later prime has already returned Unstable
    # or set best_exact, so each seed and candidate is handled once
    seen = set()
    for i, (p, fp, witness) in enumerate(hunts):
        seeds = _lifted_seeds(rep, witness, fp)
        if i == 0:
            # later primes would close these again and could add nothing
            seeds += _fixed_seeds(rep)
        for cand in _exact_destabilizer_candidates(rep, seeds, seen):
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
    if over_budget is not None:
        raise over_budget
    if best_exact is not None:
        return best_exact
    return StabilityVerdict(UNKNOWN, detail={"tried": tried})
