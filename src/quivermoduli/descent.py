"""Galois twists, modifying elements, the type map, and constructive descent.

For a cyclic pair L/k with generator sigma, a Galois-fixed orbit of a
geometrically stable representation W over L is witnessed by u with
u . sigma(W) = W; the n-fold product u sigma(u) ... sigma^{n-1}(u) is then a
scalar lambda in k^x, and the Brauer class of the cyclic algebra
(L/k, sigma, lambda) is the type of the orbit.  DescentDatum.problems()
checks both facts, for check() to raise on and validate_twisted to report.
The type map returns the orbit's DescentDatum, which carries that class as
`brauer`: it is computed once per datum and read by every later step.
Trivial classes descend to k-forms through an explicit Hilbert-90
resolvent; nontrivial quadratic classes produce representations over the
quaternion algebra (m, lambda)_Q.

Descent and the change of basis onto the standard quaternionic form share
one Hilbert-90 average (Serre, Local Fields, X Prop. 3).  Its resolvents
after the identity are drawn over all of L: over Q(sqrt(m)) a rational c
gives the singular average (I + u) c whenever u has eigenvalue -1.
"""

from dataclasses import dataclass, field
from functools import cached_property
from typing import Dict

from .brauer import brauer_class
from .errors import InconclusiveError, InvariantError, NotGeometricallyStableError
from .homs import find_invertible_in_span, hom_space
from .linalg import Mat
from .quiver import Representation
from .stability import UNKNOWN, geom_stability


def twist(rep, pair, power=1):
    """Entrywise sigma^power; an action of Z/n on representations over L."""
    if rep.ring != pair.ext:
        raise ValueError(f"representation is over {rep.ring}, expected {pair.ext}")
    power = power % pair.degree
    if power == 0:
        return rep
    mats = {name: pair.sigma_mat(m, power) for name, m in rep.mats.items()}
    return Representation(rep.quiver, rep.ring, rep.dims, mats)


def twist_hom(h, pair, power=1):
    return {v: pair.sigma_mat(m, power) for v, m in h.items()}


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

    def problems(self):
        """The failed invariants, as messages: each arrow where u does not
        intertwine sigma(W) with W, and a cocycle product that is not lambda."""
        out = [
            f"transition fails on arrow {name}"
            for name in modified_action_failures(self.rep, self.u, self.pair)
        ]
        try:
            lam = cocycle_scalar(self.u, self.pair)
            if lam != self.lam:
                out.append(f"cocycle scalar {lam} differs from declared lambda {self.lam}")
        except InvariantError as exc:
            out.append(str(exc))
        return out

    def check(self):
        if problems := self.problems():
            raise InvariantError("; ".join(problems))
        return True

    @cached_property
    def brauer(self):
        """The class of (L/k, sigma, lambda) in Br(k): the orbit's type, kept on the datum."""
        return brauer_class(self.lam, self.pair)

    def rescale(self, a):
        """Replace u by a*u for a scalar a in L^x; lambda gains norm(a)."""
        pair = self.pair
        u2 = {v: m.scale(a) for v, m in self.u.items()}
        lam2 = pair.base.mul(pair.norm(a), self.lam)
        return DescentDatum(self.rep, u2, lam2, pair, dict(self.provenance))


def modified_action_failures(rep, u, pair):
    """Arrow names where the modified action fails to fix W."""
    bad = []
    for a in rep.quiver.arrows:
        m = rep.mats[a.name]
        if u[a.dst] @ pair.sigma_mat(m) != m @ u[a.src]:
            bad.append(a.name)
    return bad


def cocycle_scalar(u, pair):
    """lambda with u sigma(u) ... sigma^{n-1}(u) = lambda I at every vertex.

    Raises InvariantError when the product is not a base-field scalar; for
    geometrically stable representations scalarity is guaranteed.
    """
    full = dict(u)
    for i in range(1, pair.degree):
        step = twist_hom(u, pair, i)
        full = {v: full[v] @ step[v] for v in u}
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


def ensure_geom_stable(rep, theta, config):
    """Precondition check shared by the descent operations: geom_stability
    must say Stable.  Finite fields decide it exactly; over Q(i) an Unknown
    certificate blocks the operation."""
    verdict = geom_stability(rep, theta, config)
    if verdict.kind == UNKNOWN:
        raise InconclusiveError(
            "geometric stability could not be certified; "
            f"diagnostics: {verdict.detail}",
            seed=config.seed,
        )
    if not verdict.is_stable:
        raise NotGeometricallyStableError(verdict.detail.get("reason", verdict.kind))
    if rep.ring.is_finite:
        return {"stability": "finite-field decision"}
    return {"stability": "certificate", "detail": verdict.detail}


def solve_modifying_u(rep, pair, theta, config, check_stability=True):
    """A descent datum for the orbit of W, or None when the orbit moves.

    Solves Hom(sigma(W), W) and searches the span for an invertible element
    u.  Geometric stability makes the Hom space at most one line, so None
    answers are certain.
    """
    provenance = {}
    if check_stability:
        provenance.update(ensure_geom_stable(rep, theta, config))
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


def type_map(rep, pair, theta, config):
    """The descent datum of a Galois-fixed geometrically stable orbit; its
    `brauer` is the orbit's type.  Raises ValueError for a moving orbit.
    """
    datum = solve_modifying_u(rep, pair, theta, config)
    if datum is None:
        raise ValueError("orbit is not Galois-fixed: no invertible u with u.sigma(W) = W")
    return datum


def _average(u_from, u_to, pair, config, label):
    """(h, h^{-1}) with h u_from sigma(h)^{-1} = u_to, for cocycles with one
    scalar; u_from None is the identity.

    T(c) = u_to sigma(c) u_from^{-1} has T^i(c) =
    (u_to)_{sigma^i} sigma^i(c) ((u_from)_{sigma^i})^{-1} and T^n(c) =
    lambda c lambda^{-1} = c, so the average h = c + T(c) + ... + T^{n-1}(c)
    is T-fixed, which is the claim; it is invertible for c off a proper
    Zariski-closed subset of M_n(L).  The identity resolvent goes first, for
    a deterministic result whenever it works (it fails e.g. when
    char | degree); then c is drawn entrywise from L.  Every output is
    verified, with sigma(h)^{-1} read as sigma(h^{-1}) from the one inverse
    taken per average; exhaustion raises InconclusiveError with the seed.
    """
    ext = pair.ext
    inv_from = None if u_from is None else {v: m.inverse() for v, m in u_from.items()}
    for attempt in range(config.h90_retries):
        if attempt == 1:
            rng = config.rng(label)  # made only once the identity fails
        h, h_inv = {}, {}
        for v, target in u_to.items():
            n = target.nrows
            if attempt == 0:
                c = Mat.identity(ext, n)
            else:
                entries = [[ext.random(rng) for _ in range(n)] for _ in range(n)]
                c = Mat(ext, entries, (n, n))
            term = acc = c
            for _ in range(1, pair.degree):
                term = target @ pair.sigma_mat(term)
                if inv_from is not None:
                    term = term @ inv_from[v]
                acc = acc + term
            inv = acc.inverse()
            if inv is None:
                break
            h[v], h_inv[v] = acc, inv
        else:
            for v, hv in h.items():
                moved = hv if u_from is None else hv @ u_from[v]
                if moved @ pair.sigma_mat(h_inv[v]) != u_to[v]:
                    raise InvariantError(f"{label}: the average does not reach the target")
            return h, h_inv
    raise InconclusiveError(
        f"no invertible Hilbert-90 average ({label}) in {config.h90_retries} attempts",
        seed=config.seed,
    )


def hilbert90_split(u, pair, config):
    """(g, g^{-1}) with u = g sigma(g)^{-1}, for a 1-cocycle u (cyclic
    product = 1)."""
    return _average(None, u, pair, config, "hilbert90")


def hilbert90_descend(datum, config):
    """A k-form of a trivial-class datum, with the splitting witness g.

    Rescales u to an exact 1-cocycle using a norm witness for lambda, splits
    it as g sigma(g)^{-1}, and returns (g^{-1} . W, g).  The output has all
    entries in the base field and is isomorphic to W over L via g: reading
    each matrix over k is the one fixedness check, and an entry outside k
    is an InvariantError naming its arrow.  A lambda that is not a norm (a
    nontrivial class) makes norm_witness raise ValueError.
    """
    pair = datum.pair
    a = pair.norm_witness(datum.lam)
    a_inv = pair.ext.inv(a)
    normalized = datum.rescale(a_inv)
    if normalized.lam != pair.base.one:
        raise InvariantError("rescaled cocycle scalar is not 1")
    g, g_inv = hilbert90_split(normalized.u, pair, config)
    rep = datum.rep
    base_mats = {}
    for name, m in rep.conjugate(g_inv, g).mats.items():
        try:
            base_mats[name] = pair.to_base_mat(m)
        except ValueError:
            raise InvariantError(f"descended matrix for arrow {name} is not Galois-fixed") from None
    base_rep = Representation(rep.quiver, pair.base, rep.dims, base_mats)
    return base_rep, g


def solve_descent_change_of_basis(u, u_target, pair, config):
    """(h, h^{-1}) with h u sigma(h)^{-1} = u_target, for two modifying
    elements with the same cocycle scalar, by the same averaging as
    hilbert90_split; the identity twice when u is already u_target."""
    if u == u_target:
        eye = {v: Mat.identity(pair.ext, m.nrows) for v, m in u.items()}
        return eye, eye
    return _average(u, u_target, pair, config, "cob")
