"""Galois twists, modifying elements, the type map, and constructive descent.

For a cyclic pair L/k with generator sigma, a Galois-fixed orbit of a
geometrically stable representation W over L is witnessed by u with
u . sigma(W) = W; the n-fold product u sigma(u) ... sigma^{n-1}(u) is then a
scalar lambda in k^x, and the Brauer class of the cyclic algebra
(L/k, sigma, lambda) is the type of the orbit.  Trivial classes descend to
k-forms through an explicit Hilbert-90 resolvent; nontrivial quadratic
classes produce representations over the quaternion algebra (m, lambda)_Q.
"""

from dataclasses import dataclass, field
from typing import Dict

from .brauer import BrauerClass, brauer_class
from .errors import InconclusiveError, InvariantError, NotGeometricallyStableError
from .homs import end_dim, find_invertible_in_span, hom_space
from .linalg import Mat
from .quiver import Representation
from .stability import STABLE, geom_stability_certificate, stability_verdict


def twist(rep, pair, power=1):
    """Entrywise sigma^power; an action of Z/n on representations over L."""
    if rep.ring != pair.ext:
        raise ValueError(f"representation is over {rep.ring}, expected {pair.ext}")
    power = power % pair.degree
    if power == 0:
        return rep
    return rep.map_entries(lambda x: pair.sigma(x, power))


def twist_hom(h, pair, power=1):
    return {v: m.map(lambda x: pair.sigma(x, power)) for v, m in h.items()}


@dataclass(frozen=True)
class DescentDatum:
    """A representation over L with a modifying element and cocycle scalar.

    Invariants: u . sigma(W) = W arrow by arrow, and the cyclic product
    u sigma(u) ... sigma^{n-1}(u) is lambda times the identity at every
    vertex with lambda in the base field.
    """

    rep: Representation
    u: Dict[str, Mat]
    lam: object
    pair: object
    provenance: dict = field(default_factory=dict)

    def check(self):
        if not modified_action_fixes(self.rep, self.u, self.pair):
            raise InvariantError("u does not intertwine sigma(W) with W")
        lam = cocycle_scalar(self.u, self.pair)
        if lam != self.lam:
            raise InvariantError(f"stored lambda {self.lam} differs from computed {lam}")
        return True

    def rescale(self, a):
        """Replace u by a*u for a scalar a in L^x; lambda gains norm(a)."""
        pair = self.pair
        u2 = {v: m.scale(a) for v, m in self.u.items()}
        lam2 = pair.base.mul(pair.norm(a), self.lam)
        return DescentDatum(self.rep, u2, lam2, pair, dict(self.provenance))


def modified_action_fixes(rep, u, pair):
    """Whether Phi^u_sigma(W) = u . sigma(W) equals W entrywise."""
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        tw = m.map(pair.sigma)
        lhs = u[a.dst] @ tw
        rhs = m @ u[a.src]
        if lhs != rhs:
            return False
    return True


def modified_action_failures(rep, u, pair):
    """Arrow names where the modified action fails to fix W."""
    bad = []
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        if u[a.dst] @ m.map(pair.sigma) != m @ u[a.src]:
            bad.append(a.name)
    return bad


def verify_modified_action_fixed(rep, u, pair):
    """Membership test for the fixed locus of the u-modified Galois action."""
    return modified_action_fixes(rep, u, pair)


def cochain_products(u, pair):
    """The family u_{sigma^i} = u sigma(u) ... sigma^{i-1}(u), i = 0..n-1."""
    verts = list(u)
    out = [{v: Mat.identity(u[v].ring, u[v].nrows) for v in verts}]
    for i in range(1, pair.degree):
        prev = out[-1]
        step = twist_hom(u, pair, i - 1)
        out.append({v: prev[v] @ step[v] for v in verts})
    return out


def cocycle_scalar(u, pair):
    """lambda with u sigma(u) ... sigma^{n-1}(u) = lambda I at every vertex.

    Raises InvariantError when the product is not a base-field scalar; for
    geometrically stable representations scalarity is guaranteed.
    """
    prods = cochain_products(u, pair)
    last = prods[-1]
    full = {v: last[v] @ twist_hom(u, pair, pair.degree - 1)[v] for v in u}
    lam = None
    ext = pair.ext
    for v, m in full.items():
        if m.nrows == 0:
            continue
        cand = m.entry(0, 0)
        if m != Mat.scalar(ext, m.nrows, cand):
            raise InvariantError(f"cocycle product at vertex {v} is not scalar")
        if lam is None:
            lam = cand
        elif lam != cand:
            raise InvariantError("cocycle scalar differs between vertices")
    if lam is None:
        raise InvariantError("cocycle scalar undefined for the empty representation")
    if not pair.is_fixed(lam):
        raise InvariantError("cocycle scalar is not Galois-fixed")
    return pair.to_base(lam)


def ensure_geom_stable(rep, pair, theta, config):
    """Precondition check shared by the descent operations.

    Finite fields decide geometric stability exactly; over Q(i) a Stable
    certificate is required, and Unknown blocks the operation.
    """
    if rep.ring.is_finite:
        verdict = stability_verdict(rep, theta, config)
        if not verdict.is_stable:
            raise NotGeometricallyStableError(verdict.kind)
        if end_dim(rep) != 1:
            raise NotGeometricallyStableError("stable but not Schur")
        return {"stability": "finite-field decision"}
    verdict = geom_stability_certificate(rep, theta, config)
    if verdict.kind != STABLE:
        if verdict.kind == "unknown":
            raise InconclusiveError(
                "geometric stability could not be certified; "
                f"diagnostics: {verdict.detail}",
                seed=config.seed,
            )
        raise NotGeometricallyStableError(verdict.kind)
    return {"stability": "certificate", "detail": verdict.detail}


def solve_modifying_u(rep, pair, theta, config, check_stability=True):
    """A descent datum for the orbit of W, or None when the orbit moves.

    Solves Hom(sigma(W), W) and searches the span for an invertible element
    u.  Geometric stability makes the Hom space at most one line, so None
    answers are certain.
    """
    provenance = {}
    if check_stability:
        provenance.update(ensure_geom_stable(rep, pair, theta, config))
    tw = twist(rep, pair, 1)
    basis = hom_space(tw, rep)
    if not basis:
        return None
    u = find_invertible_in_span(basis, rep.ring, config, rng_label="modifying-u")
    if u is None:
        return None
    lam = cocycle_scalar(u, pair)
    provenance["hom_dim"] = len(basis)
    return DescentDatum(rep, u, lam, pair, provenance)


@dataclass(frozen=True)
class TypeMapResult:
    brauer: BrauerClass
    datum: DescentDatum
    provenance: dict


def type_map_of_datum(datum):
    return TypeMapResult(
        brauer_class(datum.lam, datum.pair), datum, dict(datum.provenance)
    )


def type_map(rep, pair, theta, config):
    """The Brauer class of a Galois-fixed geometrically stable orbit.

    Raises ValueError when the orbit is not Galois-fixed.
    """
    datum = solve_modifying_u(rep, pair, theta, config)
    if datum is None:
        raise ValueError("orbit is not Galois-fixed: no invertible u with u.sigma(W) = W")
    return type_map_of_datum(datum)


def _random_matrix(ring, nrows, ncols, rng):
    if ring.is_finite:
        return Mat(
            ring,
            tuple(
                tuple(rng.randrange(ring.size) for _ in range(ncols))
                for _ in range(nrows)
            ),
            (nrows, ncols),
        )
    return Mat(
        ring,
        tuple(
            tuple(ring.from_int(rng.randint(-4, 4)) for _ in range(ncols))
            for _ in range(nrows)
        ),
        (nrows, ncols),
    )


def hilbert90_split(u, pair, config, label="hilbert90"):
    """g with u = g sigma(g)^{-1}, for a 1-cocycle u (cyclic product = 1).

    Classical averaging: g = sum_i u_{sigma^i} sigma^i(c) for a random
    resolvent c, retried until g is invertible.  The output is verified, so
    randomness cannot produce a wrong answer; exhaustion raises
    InconclusiveError with the seed.
    """
    ext = pair.ext
    prods = cochain_products(u, pair)
    rng = config.rng(label)
    dims = {v: u[v].nrows for v in u}
    for attempt in range(config.h90_retries):
        g = {}
        ok = True
        for v in u:
            acc = Mat.zero(ext, dims[v], dims[v])
            # identity resolvent first, for a deterministic result whenever
            # it happens to be invertible (it fails e.g. when char | degree)
            if attempt == 0:
                c = Mat.identity(ext, dims[v])
            else:
                c = _random_matrix(ext, dims[v], dims[v], rng)
            for i in range(pair.degree):
                acc = acc + prods[i][v] @ c.map(lambda x: pair.sigma(x, i))
            g[v] = acc
            if dims[v] and not acc.is_invertible():
                ok = False
                break
        if not ok:
            continue
        for v in u:
            sg_inv = g[v].map(pair.sigma).inverse()
            if g[v] @ sg_inv != u[v]:
                raise InvariantError("averaging produced g with g sigma(g)^-1 != u")
        return g
    raise InconclusiveError(
        f"no invertible Hilbert-90 resolvent in {config.h90_retries} attempts",
        seed=config.seed,
    )


def hilbert90_descend(datum, config):
    """A k-form of a trivial-class datum, with the splitting witness g.

    Rescales u to an exact 1-cocycle using a norm witness for lambda, splits
    it as g sigma(g)^{-1}, and returns (g^{-1} . W, g).  The output has all
    entries in the base field and is isomorphic to W over L via g.
    """
    pair = datum.pair
    cls = brauer_class(datum.lam, pair)
    if not cls.is_trivial:
        raise ValueError(f"class {cls.describe()} is not trivial; use division_form")
    a = pair.norm_witness(datum.lam)
    a_inv = pair.ext.inv(a)
    normalized = datum.rescale(a_inv)
    if normalized.lam != pair.base.one:
        raise InvariantError("rescaled cocycle scalar is not 1")
    g = hilbert90_split(normalized.u, pair, config)
    ginv = {v: m.inverse() for v, m in g.items()}
    rep = datum.rep
    mats = {}
    for arr in rep.quiver.arrows:
        m = ginv[arr.dst] @ rep.mats[arr.name] @ g[arr.src]
        mats[arr.name] = m
    descended = Representation(rep.quiver, pair.ext, rep.dims, mats)
    for name, m in descended.mats.items():
        if m.map(pair.sigma) != m:
            raise InvariantError(f"descended matrix for arrow {name} is not Galois-fixed")
    base_rep = descended.map_entries(pair.to_base, pair.base)
    return base_rep, g


def solve_descent_change_of_basis(u, u_target, pair, config, label="cob"):
    """h with h u sigma(h)^{-1} = u_target, via the same averaging trick.

    Requires both modifying elements to have the same cocycle scalar; then
    T(c) = u_target sigma(c) u^{-1} satisfies T^2 = id (degree 2) and
    h = c + T(c) is a fixed point, retried until invertible.
    """
    if pair.degree != 2:
        raise NotImplementedError("change of basis implemented for degree-2 pairs")
    ext = pair.ext
    rng = config.rng(label)
    uinv = {v: m.inverse() for v, m in u.items()}
    if u == u_target:
        return {v: Mat.identity(ext, m.nrows) for v, m in u.items()}
    for attempt in range(config.h90_retries):
        h = {}
        ok = True
        for v in u:
            n = u[v].nrows
            if attempt == 0:
                c = Mat.identity(ext, n)
            else:
                c = _random_matrix(ext, n, n, rng)
            t_c = u_target[v] @ c.map(pair.sigma) @ uinv[v]
            hv = c + t_c
            if n and not hv.is_invertible():
                ok = False
                break
            h[v] = hv
        if not ok:
            continue
        for v in u:
            lhs = h[v] @ u[v] @ h[v].map(pair.sigma).inverse()
            if lhs != u_target[v]:
                raise InvariantError("change of basis does not transport u to target")
        return h
    raise InconclusiveError(
        f"no invertible change of basis in {config.h90_retries} attempts",
        seed=config.seed,
    )
