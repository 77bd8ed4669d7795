"""Quaternionic representations, Morita splitting, and twisted presentations.

The splitting isomorphism D tensor Q(sqrt(m)) = Mat_2 is pinned to
i -> diag(s, -s) and j -> [[0, lambda], [1, 0]] for D = (m, lambda)_Q and
s = sqrt(m), so in closed form

    a + b i + c j + d ij  ->  [[a + b s, lambda (c + d s)], [c - d s, a - b s]];

every entry of a D-matrix is replaced by its 2x2 image and blocks are
assembled.  The image is exactly the fixed locus of the modified Galois
action given by the standard block-diagonal modifying matrix u_std, which
is what makes the inverse readout well-defined: a and b are read from a
block's entry (0, 0), c and d from its entry (1, 0), and the block is
checked against the image of the result, that is, for u_std-fixedness.

Representations over D reuse the generic Representation class with a
QuaternionAlgebra coefficient ring: right D-modules with matrices acting on
the left, so morphism solving (hom_space) expands through the regular
representation.

descended_form is the one path from a Galois-fixed orbit's descent datum to
its form: it reads the class the datum carries (DescentDatum.brauer),
descends a trivial class to a k-form by Hilbert 90 (hilbert90_descend) and
turns a nontrivial one into a D-representation (division_form).
A twisted representation (TwistedRep) is a descent datum with a declared index.
"""

from dataclasses import dataclass, field
from fractions import Fraction

from .descent import DescentDatum, hilbert90_descend, solve_descent_change_of_basis
from .errors import InvariantError, NotDecidableError, SchemaError
from .galois import GaloisPair, QuadraticPair
from .linalg import Mat
from .quaternions import QuaternionAlgebra
from .quiver import Representation
from .stability import geom_stability


def _check_split_pair(alg, pair):
    if not isinstance(pair, QuadraticPair):
        raise SchemaError("Morita splitting needs a quadratic pair")
    if Fraction(pair.m) != alg.a:
        raise SchemaError(
            f"pair adjoins sqrt({pair.m}) but the algebra has i^2 = {alg.a}"
        )


def _split_rows(alg, x):
    """The rows of the 2x2 image of x = a + b i + c j + d ij over Q(sqrt(m))."""
    a, b, c, d = x
    lam = alg.b
    return ((a, b), (lam * c, lam * d)), ((c, -d), (a, -b))


def split_matrix(alg, pair, m):
    """Blockwise image of a D-matrix, shape doubling in both directions."""
    _check_split_pair(alg, pair)
    rows = []
    for row in m.rows:
        blocks = [_split_rows(alg, x) for x in row]
        rows.extend(tuple(e for blk in blocks for e in blk[r]) for r in (0, 1))
    return Mat(pair.ext, rows, (2 * m.nrows, 2 * m.ncols))


def unsplit_matrix(alg, pair, m):
    """Inverse of split_matrix on its image; errors off the image.

    Block entry (0, 0) is a + b sqrt(m) and entry (1, 0) is c - d sqrt(m).
    """
    if m.nrows % 2 or m.ncols % 2:
        raise SchemaError("matrix shape is not a doubling")
    _check_split_pair(alg, pair)
    rows, mrows = [], m.rows
    for top, bottom in zip(mrows[::2], mrows[1::2]):
        row = []
        for j in range(0, m.ncols, 2):
            (a, b), (c, d) = top[j], bottom[j]
            x = (a, b, c, -d)
            if _split_rows(alg, x) != (top[j : j + 2], bottom[j : j + 2]):
                raise InvariantError("block is not in the image of the splitting")
            row.append(x)
        rows.append(tuple(row))
    return Mat(alg, tuple(rows), (m.nrows // 2, m.ncols // 2))


def standard_u(pair, lam, dims_dprime):
    """Per vertex, the block diagonal of d' copies of [[0, lam], [1, 0]] over L."""
    ext = pair.ext
    lam_elem = ext.from_rational(lam)
    out = {}
    for v, d in dims_dprime.items():
        rows = [[ext.zero] * (2 * d) for _ in range(2 * d)]
        for b in range(d):
            rows[2 * b][2 * b + 1] = lam_elem
            rows[2 * b + 1][2 * b] = ext.one
        out[v] = Mat(ext, rows, (2 * d, 2 * d))
    return out


def morita_split(drep, pair):
    """The L-representation of doubled dimension underlying a D-representation."""
    alg = drep.ring
    if not isinstance(alg, QuaternionAlgebra):
        raise SchemaError("morita_split expects a quaternion coefficient ring")
    _check_split_pair(alg, pair)
    dims = {v: 2 * d for v, d in drep.dims.items()}
    mats = {
        a.name: split_matrix(alg, pair, drep.mats[a.name]) for a in drep.quiver.arrows
    }
    return Representation(drep.quiver, pair.ext, dims, mats)


def morita_unsplit(rep, pair, lam):
    """Inverse of morita_split, defined on standard quaternionic fixed points.

    U sigma(B) = B U for U = [[0, lam], [1, 0]] forces B = [[p, lam sigma(r)],
    [r, sigma(p)]], the splitting image, so unsplit_matrix checks u_std blockwise.
    """
    if any(d % 2 for d in rep.dims.values()):
        raise SchemaError("dimensions must be even to unsplit")
    alg = QuaternionAlgebra(pair.m, lam)
    dims = {v: d // 2 for v, d in rep.dims.items()}
    try:
        mats = {a.name: unsplit_matrix(alg, pair, rep.mats[a.name]) for a in rep.quiver.arrows}
    except InvariantError as exc:
        raise SchemaError("representation is not fixed by the standard modified action") from exc
    return Representation(rep.quiver, alg, dims, mats)


def division_form(datum, config):
    """The D-representation presenting a nontrivial-class descent datum.

    Normalizes lambda to the canonical class representative, conjugates the
    modifying element onto the standard block form, and reads the conjugated
    matrices off through the Morita splitting.  Dimensions must be even: the
    index of the class divides the dimension vector.  The datum's class
    (brauer_class) checks that (m, lambda)_Q is division, and morita_unsplit
    checks every block of the conjugated rep against the splitting image,
    which is its u_std-fixedness.
    """
    pair = datum.pair
    cls = datum.brauer
    if cls.is_trivial:
        raise ValueError("trivial class: use hilbert90_descend, not division_form")
    rep = datum.rep
    odd = [v for v, d in rep.dims.items() if d % 2]
    if odd:
        raise ValueError(
            f"dimension vector is odd at {odd}: the index 2 of the class must divide it"
        )
    lam_std = cls.lam
    ratio = Fraction(lam_std) / Fraction(datum.lam)
    a = pair.norm_witness(ratio)
    normalized = datum.rescale(a)
    if normalized.lam != Fraction(lam_std):
        raise InvariantError("lambda normalization failed")
    dprime = {v: d // 2 for v, d in rep.dims.items()}
    u_std = standard_u(pair, lam_std, dprime)
    h, h_inv = solve_descent_change_of_basis(normalized.u, u_std, pair, config)
    rep_std = rep if normalized.u == u_std else rep.conjugate(h, h_inv)
    drep = morita_unsplit(rep_std, pair, lam_std)
    return drep, {"h": h, "standard_rep": rep_std, "lambda": lam_std, "class": cls}


def descended_form(datum, config):
    """The form of a Galois-fixed orbit from its descent datum: a k-form
    for a trivial Brauer class, a D-representation otherwise."""
    if datum.brauer.is_trivial:
        return hilbert90_descend(datum, config)[0]
    return division_form(datum, config)[0]


# ---------------------------------------------------------------------------
# twisted representations in descent-datum form


@dataclass(frozen=True)
class TwistedRep(DescentDatum):
    """A descent datum read as a twisted representation, with its declared index.

    The cyclic form of the twisted cocycle condition: the transition u
    intertwines sigma(W) with W and its n-fold twisted product is
    lambda times the identity.  The declared index e divides every vertex
    dimension of W over L; the twisted dimension vector is dim_L(W)/e.
    An index that is not an int >= 1 is refused with SchemaError.
    """

    index: int = field(kw_only=True)

    def __post_init__(self):
        e = self.index
        if isinstance(e, bool) or not isinstance(e, int) or e < 1:
            raise SchemaError(f"bad twisted representation: index must be an int >= 1, got {e!r}")


def twisted_dim(twisted):
    e = twisted.index
    bad = {v: d for v, d in twisted.rep.dims.items() if d % e}
    if bad:
        raise InvariantError(f"index {e} does not divide the dimensions {bad}")
    return {v: d // e for v, d in twisted.rep.dims.items()}


def validate_twisted(twisted):
    """Check all twisted-representation invariants; returns (ok, diagnostics):
    DescentDatum.problems(), then the index's, checked against the Brauer
    class the twisted rep carries, so a caller that goes on to descend it
    computes the class once."""
    problems = twisted.problems()
    for v, d in twisted.rep.dims.items():
        if d % twisted.index:
            problems.append(f"index {twisted.index} does not divide dim {d} at {v}")
    try:
        cls = twisted.brauer
        if cls.index != twisted.index:
            problems.append(
                f"declared index {twisted.index} but the class has index {cls.index}"
            )
    except NotDecidableError as exc:
        problems.append(f"class index undecided: {exc}")
    return (not problems, problems)


def drep_to_twisted(drep, pair):
    """Present a D-representation as a twisted representation via u_std."""
    alg = drep.ring
    if not isinstance(alg, QuaternionAlgebra):
        raise SchemaError("expected a quaternion coefficient ring")
    rep = morita_split(drep, pair)
    u = standard_u(pair, alg.b, dict(drep.dims))
    index = 2 if alg.is_division() else 1
    return TwistedRep(rep, u, alg.b, pair, {"source": "drep"}, index=index)


def twisted_to_drep(twisted, config):
    """The D-representation equivalent to a twisted representation.

    Trivial classes degenerate to representations over the base field
    itself (D = k); nontrivial quadratic classes go through division_form.
    """
    ok, problems = validate_twisted(twisted)
    if not ok:
        raise SchemaError(f"invalid twisted representation: {problems}")
    return descended_form(twisted, config)


def drep_is_geom_stable(drep, theta, config):
    """geom_stability of a D-representation's Morita splitting.

    Splitting identifies D-subrepresentations with subrepresentations of the
    split L-representation compatibly with (twisted) dimensions, so the
    verdict of the split representation is the definitionally right notion.
    D = (a, b)_Q splits over Q(sqrt(a)), which needs a squarefree integer a.
    Index-1 inputs (already over a field) are judged as they are.
    """
    if isinstance(drep.ring, QuaternionAlgebra):
        a = drep.ring.a
        try:  # QuadraticField refuses a non-integral a, passed as a Fraction
            pair = GaloisPair.quadratic(int(a) if a.denominator == 1 else a)
        except ValueError as exc:
            raise SchemaError(
                "quaternion stability needs a squarefree integer i^2 constant "
                f"to split over; got {a}"
            ) from exc
        drep = morita_split(drep, pair)
    return geom_stability(drep, theta, config)
