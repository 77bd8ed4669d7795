import random
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quivermoduli import (
    GF,
    GaloisPair,
    Mat,
    QuaternionAlgebra,
    Representation,
    a2_quiver,
    end_dim,
    geom_stability_certificate,
    hamilton_quaternions,
    hom_space,
    jordan_quiver,
    kronecker_quiver,
    linalg,
    twist,
    type_map,
)
from quivermoduli.config import JobConfig
from quivermoduli.errors import SchemaError
from quivermoduli.ffields import ExtensionField, PrimeField
from quivermoduli.homs import _field_hom_system
from quivermoduli.morita import descended_form
from quivermoduli.numtheory import legendre, sqrt_mod
from quivermoduli.quiver import base_change
from quivermoduli.rings import QQ, QuadraticField, RationalField, gaussian_rationals
from quivermoduli.serialize import rep_to_json
from quivermoduli.stability import STABLE, reduce_mod_prime

from helpers import (
    count_calls,
    fmat,
    qmat,
    reference_hom_space,
    reference_matmul,
    reference_nullspace,
    reference_rref,
    zero_maps,
)


def is_zero(m):
    """Whether every entry of m is the ring's zero."""
    return all(x == m.ring.zero for row in m.rows for x in row)


def test_shapes_and_empty():
    f = GF(3)
    z = Mat.zero(f, 0, 2)
    assert z.shape == (0, 2)
    assert (z.transpose()).shape == (2, 0)
    m = fmat(f, [[1, 2], [0, 1]])
    assert (m @ Mat.zero(f, 2, 0)).shape == (2, 0)
    with pytest.raises(SchemaError):
        Mat(f, ((1, 2), (1,)), (2, 2))
    for ring in (f, QQ, gaussian_rationals()):
        # an empty inner dimension gives the zero matrix
        assert Mat.zero(ring, 2, 0) @ Mat.zero(ring, 0, 3) == Mat.zero(ring, 2, 3)
        assert Mat.zero(ring, 0, 2) @ Mat.identity(ring, 2) == Mat.zero(ring, 0, 2)
        r, pivots = Mat.zero(ring, 0, 3).rref()
        assert r.shape == (0, 3) and pivots == ()
        r, pivots = Mat.zero(ring, 3, 0).rref()
        assert r.shape == (3, 0) and pivots == ()


def test_rref_rank_nullspace_over_f5():
    f = GF(5)
    m = fmat(f, [[1, 2, 3], [2, 4, 1], [0, 0, 4]])
    r, pivots = m.rref()
    assert pivots == (0, 2)
    assert m.rank() == 2
    ns = m.nullspace()
    assert len(ns) == 1
    for vec in ns:
        col = Mat.from_cols(f, [vec], 3)
        assert is_zero(m @ col)


def test_inverse_and_solve_over_q():
    m = qmat([[2, 1], [7, 4]])
    inv = m.inverse()
    assert m @ inv == Mat.identity(QQ, 2)
    rhs = qmat([[1], [0]])
    x = m.solve(rhs)
    assert m @ x == rhs
    singular = qmat([[1, 2], [2, 4]])
    assert singular.inverse() is None
    assert singular.solve(qmat([[1], [0]])) is None  # inconsistent


def test_rref_random_involutive():
    rng = random.Random(2)
    f = GF(7)
    for _ in range(30):
        rows = tuple(
            tuple(rng.randrange(7) for _ in range(4)) for _ in range(3)
        )
        m = Mat(f, rows, (3, 4))
        r, _ = m.rref()
        r2, _ = r.rref()
        assert r == r2


def test_canonical_cols_and_containment():
    f = GF(2)
    a = fmat(f, [[1, 1], [0, 1], [1, 0]])
    b = fmat(f, [[1, 0], [1, 1], [0, 1]])
    # both span the same 2-dim subspace of F_2^3?
    assert a.canonical_cols() == b.canonical_cols() or a.rank() == b.rank()
    sub = fmat(f, [[1], [1], [0]])
    whole = fmat(f, [[1, 0], [1, 1], [0, 0]])
    assert sub.cols_contained_in(whole)
    assert not whole.cols_contained_in(sub)
    empty = Mat.zero(f, 3, 0)
    assert empty.cols_contained_in(sub)


def test_canonical_cols_is_span_invariant():
    rng = random.Random(4)
    f = GF(3)
    for _ in range(40):
        cols = [tuple(rng.randrange(3) for _ in range(3)) for _ in range(2)]
        m = Mat.from_cols(f, cols, 3)
        g = fmat(f, [[1, 1], [0, 1]])  # change of basis on columns
        m2 = m @ g
        assert m.canonical_cols() == m2.canonical_cols()


def test_quaternion_matrix_inverse():
    H = hamilton_quaternions()
    m = Mat(H, ((H.i, H.one), (H.zero, H.j)), (2, 2))
    inv = m.inverse()
    assert inv is not None
    assert m @ inv == Mat.identity(H, 2)
    assert inv @ m == Mat.identity(H, 2)
    sing = Mat(H, ((H.one, H.one), (H.one, H.one)), (2, 2))
    assert sing.inverse() is None


def test_split_quaternion_zero_divisor_pivots_are_refused():
    # over (-1,1)_Q, e = (1+j)/2 and f = (1-j)/2 are orthogonal idempotents,
    # so M = [[e, f], [f, e]] squares to I although every entry is a zero
    # divisor; elimination cannot pivot on any of them and must say so
    from quivermoduli import QuaternionAlgebra
    from quivermoduli.errors import NotDecidableError

    D = QuaternionAlgebra(-1, 1)
    h = Fraction(1, 2)
    e, f = (h, Fraction(0), h, Fraction(0)), (h, Fraction(0), -h, Fraction(0))
    m = Mat(D, ((e, f), (f, e)), (2, 2))
    assert m @ m == Mat.identity(D, 2)
    for call in (m.rank, m.is_invertible, m.inverse):
        with pytest.raises(NotDecidableError):
            call()


def test_division_quaternion_rank_is_kept():
    # over a division algebra every nonzero entry is a unit pivot
    H = hamilton_quaternions()
    m = Mat(H, ((H.i, H.j), (H.k, H.one), (H.one, H.zero)), (3, 2))
    assert m.rank() == 2
    assert Mat(H, ((H.i, H.j), (H.mul(H.j, H.i), H.mul(H.j, H.j))), (2, 2)).rank() == 1


def test_block_ops():
    f = GF(3)
    a = fmat(f, [[1, 2]])
    b = fmat(f, [[0, 1]])
    assert a.vstack(b).shape == (2, 2)
    assert a.hstack(b).shape == (1, 4)
    assert Mat.scalar(QQ, 2, Fraction(5)).entry(1, 1) == 5


def test_mismatched_shapes_are_schema_errors():
    # a sum checks shapes as a product does, on every ring; a Q sum used to
    # return a matrix whose shape disagreed with its coordinates
    H = hamilton_quaternions()
    for ring in (GF(3), GF(4), QQ, gaussian_rationals(), H):
        square = Mat.identity(ring, 2)
        for other in (Mat.identity(ring, 1).hstack(Mat.zero(ring, 1, 1)), Mat.zero(ring, 2, 1)):
            with pytest.raises(SchemaError, match="shape mismatch"):
                square + other
        with pytest.raises(SchemaError, match="solve needs equal row counts"):
            square.solve(Mat.zero(ring, 1, 1))


def test_operands_over_different_rings_are_schema_errors():
    # +, @, hstack, vstack and solve need one ring: F_3 with F_5 used to
    # compute in the left operand's ring, and Q with F_3 to raise
    # AttributeError; equal rings built apart still combine
    H = hamilton_quaternions()
    rings = (GF(3), GF(5), GF(4), QQ, gaussian_rationals(), QuadraticField(2), H)
    ops = (
        lambda a, b: a + b,
        lambda a, b: a @ b,
        Mat.hstack,
        Mat.vstack,
        Mat.solve,
    )
    for left, right in product(rings, repeat=2):
        if left == right:
            continue
        a, b = Mat.identity(left, 2), Mat.identity(right, 2)
        for op in ops:
            with pytest.raises(SchemaError, match="ring mismatch"):
                op(a, b)
    for make in (lambda: GF(3), lambda: QuadraticField(-1)):
        a, b = Mat.identity(make(), 2), Mat.identity(make(), 2)
        assert a.ring is not b.ring
        assert a + b == Mat.scalar(a.ring, 2, a.ring.add(a.ring.one, a.ring.one))
        assert a @ b == a and a.solve(b) == a
        assert a.hstack(b).shape == (2, 4) and a.vstack(b).shape == (4, 2)


def test_rational_matrices_hold_one_form():
    # Q and Q(sqrt(m)) matrices read back reduced Fraction payloads however
    # they were built, and a new rep starts with an empty memo
    Qi = gaussian_rationals()
    half = (Fraction(1, 2), Fraction(3))
    for mat, want in (
        (Mat(QQ, ((1, 2),)), (Fraction(1), Fraction(2))),
        (Mat(Qi, (((1, 0), [Fraction(2, 4), 3]),), (1, 2)), ((Fraction(1), Fraction(0)), half)),
    ):
        for got in (mat.rows[0], (mat.entry(0, 0), mat.entry(0, 1)), mat.col(0) + mat.col(1)):
            assert got == want
            assert [type(e) for e in got] == [type(e) for e in want]
            assert all(type(x) is Fraction for e in got for x in (e if type(e) is tuple else (e,)))
    for ring in (QQ, GF(3)):
        w = zero_maps(kronecker_quiver(2), ring, {"s": 1, "t": 1})
        assert w.certificates == {}


# --- the integer-coordinate kernel over Q and Q(sqrt(m)) against the
# per-entry reference loops ---

FIELDS = [QQ, QuadraticField(-1), QuadraticField(2), QuadraticField(-3), QuadraticField(5)]
# small, repeated, pairwise coprime and large denominators
DENOMINATORS = [1, 1, 1, 2, 3, 4, 5, 7, 9, 11, 13, 2**31 - 1, 10**12 + 39]


@st.composite
def rationals(draw):
    return Fraction(draw(st.integers(-40, 40)), draw(st.sampled_from(DENOMINATORS)))


@st.composite
def elements(draw, ring):
    if draw(st.integers(0, 3)) == 0:
        return ring.zero
    if ring == QQ:
        return draw(rationals())
    if isinstance(ring, QuaternionAlgebra):
        return tuple(draw(rationals()) if draw(st.booleans()) else Fraction(0) for _ in range(4))
    return (draw(rationals()), draw(rationals()) if draw(st.booleans()) else Fraction(0))


@st.composite
def matrices(draw, ring, nrows=None, ncols=None):
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    if ncols is None:
        ncols = draw(st.integers(0, 6))
    rows = [tuple(draw(elements(ring)) for _ in range(ncols)) for _ in range(nrows)]
    # rank-deficient inputs: rows replaced by repeated or scaled copies of others
    for _ in range(draw(st.integers(0, 2)) if nrows > 1 else 0):
        src, dst = draw(st.permutations(range(nrows)))[:2]
        c = ring.one if draw(st.booleans()) else draw(elements(ring))
        rows[dst] = tuple(ring.mul(c, x) for x in rows[src])
    return Mat(ring, rows, (nrows, ncols))


@st.composite
def reps(draw, ring, quiver, dims):
    return Representation(quiver, ring, dims, {
        a.name: draw(matrices(ring, dims[a.dst], dims[a.src])) for a in quiver.arrows
    })


@st.composite
def moved(draw, w):
    """g.W for g a product of two elementary matrices at each vertex of dim 2."""
    ring, o, z = w.ring, w.ring.one, w.ring.zero
    g = {v: Mat.identity(ring, d) for v, d in w.dims.items()}
    for v in (v for v, d in w.dims.items() if d == 2):
        g[v] = Mat(ring, ((o, draw(elements(ring))), (z, o))) @ Mat(ring, ((o, z), (draw(elements(ring)), o)))
    return w.act(g)


@st.composite
def kronecker_pairs(draw, ring):
    """3-Kronecker (2,2) reps W and g.W, so Hom(W, g.W) is never zero."""
    w = draw(reps(ring, kronecker_quiver(3), {"s": 2, "t": 2}))
    return w, draw(moved(w))


@st.composite
def hom_systems(draw, ring):
    """The 12 x 8 system hom_space solves for a kronecker_pairs pair."""
    w, wg = draw(kronecker_pairs(ring))
    points = ([r.mats[a.name].rows for a in w.quiver.arrows] for r in (w, wg))
    _, _, rows = _field_hom_system(w.quiver, ring, w.dims, wg.dims, *points)
    return Mat(ring, rows, (12, 8))


@st.composite
def hom_pairs(draw, ring):
    """kronecker_pairs; a 2-dim Jordan loop W with g.W, whose system adds
    the M' terms onto the M terms of the same unknowns; and an A2 pair
    with a zero-dimensional vertex."""
    kind = draw(st.sampled_from(["kronecker", "jordan", "a2"]))
    if kind == "kronecker":
        return draw(kronecker_pairs(ring))
    if kind == "jordan":
        w = draw(reps(ring, jordan_quiver(), {"v": 2}))
        return w, draw(moved(w))
    dims = [{"s": s, "t": t} for s in range(3) for t in range(3)]
    d = draw(st.sampled_from([e for e in dims if 0 in e.values()]))
    return draw(reps(ring, a2_quiver(), d)), draw(reps(ring, a2_quiver(), draw(st.sampled_from(dims))))


fields = st.sampled_from(FIELDS)


def _check_rref(m):
    r, pivots = m.rref()
    rows, ref_pivots = reference_rref(m)
    assert r.shape == m.shape
    assert (r.rows, pivots) == (rows, ref_pivots)
    flat = [x for row in r.rows for e in row for x in (e if isinstance(e, tuple) else (e,))]
    assert all(type(x) is Fraction for x in flat)


@given(fields.flatmap(matrices))
def test_rref_matches_reference(m):
    _check_rref(m)


@given(fields.flatmap(hom_systems))
def test_rref_matches_reference_on_hom_systems(m):
    _check_rref(m)
    assert m.rank() < 8


@given(fields.flatmap(hom_pairs))
def test_hom_space_matches_reference(pair):
    w, wp = pair
    assert hom_space(w, wp) == reference_hom_space(w, wp)


@given(fields, st.data())
def test_matmul_matches_reference(ring, data):
    a = data.draw(matrices(ring))
    b = data.draw(matrices(ring, a.ncols, data.draw(st.integers(0, 5))))
    prod = a @ b
    assert prod.shape == (a.nrows, b.ncols)
    assert prod.rows == reference_matmul(a, b)


@given(fields, st.data())
def test_inverse_solve_nullspace_multiply_back(ring, data):
    n = data.draw(st.integers(0, 5))
    _check_multiply_back(ring, data.draw(matrices(ring, n, n)))


def _check_multiply_back(ring, m):
    n = m.nrows
    rank = len(reference_rref(m)[1])
    assert m.rank() == rank
    kernel = m.nullspace()
    assert kernel == reference_nullspace(m)
    for vec in kernel:
        assert is_zero(m @ Mat.from_cols(ring, [vec], m.ncols))
    assert len(kernel) == m.ncols - rank
    inv = m.inverse()
    assert (inv is not None) == (rank == n)
    if inv is not None:
        assert m @ inv == Mat.identity(ring, n) == inv @ m
    x0 = Mat.from_cols(ring, [tuple(ring.from_int(j - i) for i in range(m.ncols)) for j in range(2)], m.ncols)
    rhs = m @ x0
    x = m.solve(rhs)
    assert x is not None and m @ x == rhs


# --- division algebras on the ring's per-entry row kernels, which invert
# the pivot and combine rows from the left, against the reference loops ---

division_algebras = st.sampled_from([hamilton_quaternions(), QuaternionAlgebra(-2, -5)])


@given(division_algebras.flatmap(matrices))
def test_rref_matches_reference_over_division_algebras(m):
    _check_rref(m)


@given(division_algebras, st.data())
def test_matmul_matches_reference_over_division_algebras(ring, data):
    a = data.draw(matrices(ring))
    b = data.draw(matrices(ring, a.ncols, data.draw(st.integers(0, 5))))
    prod = a @ b
    assert prod.shape == (a.nrows, b.ncols)
    assert prod.rows == reference_matmul(a, b)


# --- the F_q row kernels on codes against the per-entry reference loop;
# GF(2**11) has no tables, so ExtensionField falls back to the ring's
# per-entry kernels there ---

FINITE_FIELDS = [GF(q) for q in (2, 3, 4, 5, 9, 25, 29, 2**11)]
finite_fields = st.sampled_from(FINITE_FIELDS)


@st.composite
def fq_matrices(draw, field, nrows=None, ncols=None):
    if nrows is None:
        nrows = draw(st.integers(0, 6))
    if ncols is None:
        ncols = draw(st.integers(0, 6))
    element = st.one_of(st.just(0), st.integers(0, field.size - 1))
    rows = [tuple(draw(element) for _ in range(ncols)) for _ in range(nrows)]
    for _ in range(draw(st.integers(0, 2)) if nrows > 1 else 0):
        src, dst = draw(st.permutations(range(nrows)))[:2]
        c = draw(element)
        rows[dst] = tuple(field.mul(c, x) for x in rows[src])
    return Mat(field, rows, (nrows, ncols))


@given(finite_fields.flatmap(fq_matrices))
def test_rref_matches_reference_over_finite_fields(m):
    r, pivots = m.rref()
    assert r.shape == m.shape
    assert (r.rows, pivots) == reference_rref(m)


@given(finite_fields, st.data())
def test_inverse_solve_nullspace_multiply_back_over_finite_fields(field, data):
    n = data.draw(st.integers(0, 5))
    _check_multiply_back(field, data.draw(fq_matrices(field, n, n)))


def test_finite_field_rref_makes_no_ring_calls(monkeypatch):
    # rref over F_p and a tabled F_{p^n} works on the codes; a fall-back to
    # the per-entry loop would call the ring
    cases = []
    for q in (5, 4):
        f = GF(q)
        rows = tuple(tuple((3 * i + j * j + 1) % q for j in range(5)) for i in range(4))
        m = Mat(f, rows, (4, 5))
        cases.append((m, reference_rref(m), m.nullspace()))

    def refuse(*args):
        raise AssertionError("ring arithmetic inside rref")

    for cls in (PrimeField, ExtensionField):
        for op in ("add", "sub", "mul"):
            monkeypatch.setattr(cls, op, refuse)
    for m, want, kernel in cases:
        r, pivots = m.rref()
        assert (r.rows, pivots) == want
        assert m.rank() == len(pivots)
        assert m.nullspace() == kernel
    with pytest.raises(SchemaError):
        Mat(GF(5), ((1, 2), (3,)), (2, 2))


@given(finite_fields, st.data())
def test_matmul_matches_reference_over_finite_fields(field, data):
    # F_p by integer dot products, a tabled F_{p^n} by table lookups, and
    # GF(2**11) by the field's operations: one answer
    a = data.draw(fq_matrices(field))
    b = data.draw(fq_matrices(field, a.ncols, data.draw(st.integers(0, 5))))
    assert (a @ b).rows == reference_matmul(a, b)


def test_finite_field_products_make_no_ring_calls(monkeypatch):
    cases = []
    for q in (5, 4):
        f = GF(q)
        a = Mat(f, tuple(tuple((3 * i + j * j + 1) % q for j in range(4)) for i in range(3)), (3, 4))
        b = a.transpose()
        cases.append((a, b, reference_matmul(a, b)))

    def refuse(*args):
        raise AssertionError("ring arithmetic inside a product")

    for cls in (PrimeField, ExtensionField):
        for op in ("add", "sub", "mul"):
            monkeypatch.setattr(cls, op, refuse)
    for a, b, want in cases:
        assert (a @ b).rows == want


def _moved_qi_rep():
    """A 3-Kronecker (2,2) rep over Q with denominators, moved by g in
    GL_2(Q(i)) after base change: a Galois-fixed orbit of trivial class."""
    Qi, pair = gaussian_rationals(), GaloisPair.gaussian()
    f = lambda *xs: [Fraction(x) for x in xs]
    w = Representation(kronecker_quiver(3), QQ, {"s": 2, "t": 2}, {
        "a1": Mat(QQ, (f(1, 0), f(0, 1))),
        "a2": Mat(QQ, (f(2, Fraction(1, 3)), f(-1, 0))),
        "a3": Mat(QQ, (f(0, 1), f(Fraction(5, 2), 3))),
    })
    gi = lambda a, b=0: (Fraction(a), Fraction(b))
    o, z = Qi.one, Qi.zero
    g = Mat(Qi, ((o, gi(1, 1)), (z, o))) @ Mat(Qi, ((o, z), (gi(0, Fraction(1, 2)), o)))
    return base_change(w, pair).act({"s": g, "t": g.transpose()}), pair


def test_rational_kernels_make_no_ring_calls(monkeypatch):
    # over Q and Q(sqrt(m)) rank, kernels, Hom spaces, products, sums,
    # scaling, inverses, the twist and the reduction mod p run on integer
    # coordinates; a fall-back to rref or to per-entry arithmetic would call
    # what is patched here
    Qi, H = gaussian_rationals(), hamilton_quaternions()
    k3 = kronecker_quiver(3)

    def rep(ring, dims, entries):
        return Representation(k3, ring, dims, {
            f"a{n}": Mat(ring, rows, (dims["t"], dims["s"])) for n, rows in enumerate(entries, 1)
        })

    gi = lambda a, b=0: (Fraction(a), Fraction(b))
    w = rep(Qi, {"s": 2, "t": 2}, [
        ((gi(1), gi(0)), (gi(0), gi(1))),
        ((gi(0, 1), gi(1, 2)), (gi(0), gi(0, -1))),
        ((gi(0), gi(-1)), (gi(Fraction(1, 3)), gi(2, 1))),
    ])
    o, z = Qi.one, Qi.zero
    g = Mat(Qi, ((o, gi(1, 1)), (z, o))) @ Mat(Qi, ((o, z), (gi(0, 1), o)))
    wg = w.act({"s": g, "t": g.transpose()})
    drep = rep(H, {"s": 1, "t": 1}, [
        ((tuple(map(Fraction, x)),),) for x in ((1, 0, 1, 0), (0, Fraction(1, 2), 0, 1), (2, 0, 0, -1))
    ])
    m = Mat(Qi, [[gi(j - i, i * j % 3) for j in range(5)] for i in range(4)], (4, 5))
    a, b = w.mats["a3"], wg.mats["a2"]
    c = gi(Fraction(2, 3), -1)
    pair = GaloisPair.gaussian()
    homs_want = reference_hom_space(w, wg)
    assert len(homs_want) == 1 and end_dim(drep) == 1
    want = (homs_want, end_dim(drep), len(reference_rref(m)[1]), reference_nullspace(m))
    arith_want = (
        reference_matmul(a, b),
        tuple(tuple(map(Qi.add, r, s)) for r, s in zip(a.rows, b.rows)),
        tuple(tuple(Qi.mul(c, x) for x in r) for r in a.rows),
        {name: x.map(Qi.conj) for name, x in wg.mats.items()},
        {name: x.map(lambda e: (e[0].numerator * pow(e[0].denominator, -1, 13)
                                + 5 * e[1].numerator * pow(e[1].denominator, -1, 13)) % 13,
                     GF(13)).rows
         for name, x in wg.mats.items()},
    )

    def refuse(*args):
        raise AssertionError("ring arithmetic or rref on the integer path")

    for cls in (RationalField, QuadraticField):
        for op in ("add", "sub", "mul", "neg"):
            monkeypatch.setattr(cls, op, refuse)
    monkeypatch.setattr(QuadraticField, "conj", refuse)
    monkeypatch.setattr(Mat, "rref", refuse)
    assert (hom_space(w, wg), end_dim(drep), m.rank(), m.nullspace()) == want
    inv = b.inverse()
    assert inv is not None and b @ inv == Mat.identity(Qi, 2) == inv @ b
    red = reduce_mod_prime(wg, 13)  # sqrt(-1) = 5 mod 13
    assert (
        (a @ b).rows,
        (a + b).rows,
        a.scale(c).rows,
        dict(twist(wg, pair, 1).mats),
        {name: x.rows for name, x in red.mats.items()},
    ) == arith_want


def test_descent_builds_no_payload_rows(monkeypatch):
    # certificate, type map and descended form of a moved Q(i) rep stay on
    # integer coordinates: no matrix builds its Fraction rows until the form
    # is serialized
    rep, pair = _moved_qi_rep()
    built = count_calls(monkeypatch, linalg._payload_rows)
    config = JobConfig(seed=0)
    assert geom_stability_certificate(rep, THETA_ST, config).kind == STABLE
    form = descended_form(type_map(rep, pair, THETA_ST, config), config)
    assert form.ring == QQ and built == []
    rep_to_json(form)
    assert len(built) == 3


# --- the coordinate form of Q and Q(sqrt(m)) matrices against per-entry
# arithmetic ---

COORD_FIELDS = st.sampled_from([QQ, QuadraticField(-1), QuadraticField(2), QuadraticField(-3)])
THETA_ST = {"s": 1, "t": -1}


def _coords_are_canonical(mat):
    A, B, d = mat.coords
    flat = [x for X in (A, B) for row in X for x in row]
    parts = [x for row in mat.rows for e in row for x in (e if isinstance(e, tuple) else (e,))]
    return d > 0 and gcd(d, *flat) == 1 and d == lcm(*(x.denominator for x in parts))


@given(COORD_FIELDS, st.data())
def test_coordinate_ops_match_per_entry(ring, data):
    a = data.draw(matrices(ring))
    b = data.draw(matrices(ring, a.nrows, a.ncols))
    c = data.draw(elements(ring))
    wide = data.draw(matrices(ring, a.nrows, data.draw(st.integers(0, 3))))
    tall = data.draw(matrices(ring, data.draw(st.integers(0, 3)), a.ncols))
    rows_a, rows_b = a.rows, b.rows
    n, k = a.shape
    cases = [
        (a + b, tuple(tuple(map(ring.add, r, s)) for r, s in zip(rows_a, rows_b))),
        (a.scale(c), tuple(tuple(ring.mul(c, x) for x in r) for r in rows_a)),
        (a.transpose(), tuple(tuple(rows_a[i][j] for i in range(n)) for j in range(k))),
        (a.hstack(wide), tuple(r + s for r, s in zip(rows_a, wide.rows))),
        (a.vstack(tall), rows_a + tall.rows),
        (a @ Mat.identity(ring, k), rows_a),
        (a.rref()[0], reference_rref(Mat(ring, rows_a, a.shape))[0]),
    ]
    if ring != QQ:
        conj = GaloisPair.quadratic(ring.m).sigma_mat(a)
        cases.append((conj, tuple(tuple(map(ring.conj, r)) for r in rows_a)))
    for got, want in cases:
        assert got.rows == want and _coords_are_canonical(got)
        fresh = Mat(ring, want, got.shape)
        assert got == fresh and hash(got) == hash(fresh)
        assert [got.entry(i, j) for i in range(got.nrows) for j in range(got.ncols)] == [
            x for row in want for x in row
        ]
        assert [got.col(j) for j in range(got.ncols)] == [
            tuple(row[j] for row in want) for j in range(got.ncols)
        ]
    assert a.nullspace() == reference_nullspace(Mat(ring, rows_a, a.shape))
    assert (a == b) == (rows_a == rows_b)


@given(COORD_FIELDS, st.data())
def test_singular_inverse_is_none(ring, data):
    n = data.draw(st.integers(1, 4))
    m = data.draw(matrices(ring, n, n))
    rows = list(m.rows)
    rows[-1] = tuple(ring.add(x, y) for x, y in zip(rows[0], rows[-1])) if n > 1 else (ring.zero,)
    if n > 1:
        rows[0] = rows[-1]
    singular = Mat(ring, rows, (n, n))
    assert singular.inverse() is None and singular.solve(Mat.identity(ring, n)) is None


def _reference_reduction(rep, p):
    """The per-entry reduction mod p of a Q- or Q(sqrt(m))-rep."""
    ring = rep.ring
    if ring == QQ:
        r = 0
    elif p > 2 and legendre(ring.m, p) == 1:
        r = sqrt_mod(ring.m, p)
    else:
        return None
    red = lambda x: x.numerator * pow(x.denominator, -1, p) % p
    out = {}
    for name, mat in rep.mats.items():
        flat = [x for row in mat.rows for e in row for x in (e if isinstance(e, tuple) else (e,))]
        if any(x.denominator % p == 0 for x in flat):
            return None
        one = (lambda x: red(x)) if ring == QQ else (lambda x: (red(x[0]) + r * red(x[1])) % p)
        out[name] = tuple(tuple(one(x) for x in row) for row in mat.rows)
    return out


@given(COORD_FIELDS, st.data())
def test_reduce_mod_prime_matches_per_entry(ring, data):
    dims = {"s": data.draw(st.integers(0, 2)), "t": data.draw(st.integers(1, 2))}
    rep = data.draw(reps(ring, kronecker_quiver(2), dims))
    if data.draw(st.booleans()):
        rep = rep.act({v: Mat.identity(ring, d) for v, d in dims.items()})  # coordinate form
    for p in (2, 3, 5, 7, 11, 13):
        want = _reference_reduction(rep, p)
        got = reduce_mod_prime(rep, p)
        assert (None if got is None else {k: m.rows for k, m in got.mats.items()}) == want


def test_entrywise_results_skip_the_constructor(monkeypatch):
    # map, scale and + know their shape from the operand, so over F_4 and
    # (-1,-1)_Q they build their results with no second copy and check;
    # a map into Q still goes through __init__ for its integer coordinates
    H, F4 = hamilton_quaternions(), GF(4)
    quat = lambda *xs: tuple(map(Fraction, xs))
    cases = (
        (Mat(F4, [[1, 2, 3], [0, 3, 1]]), F4.frobenius, 2),
        (Mat(H, [[quat(1, 2, 0, 0), quat(0, 0, 1, -1)]]), H.neg, quat(0, 1, 1, 0)),
    )
    real_init = Mat.__init__
    inits = []

    def counted_init(self, *args, **kwargs):
        inits.append(args)
        real_init(self, *args, **kwargs)

    for a, fn, c in cases:
        ring = a.ring
        monkeypatch.setattr(Mat, "__init__", counted_init)
        got = (a.map(fn), a.scale(c), a + a)
        monkeypatch.setattr(Mat, "__init__", real_init)
        assert inits == []
        want = (
            [[fn(x) for x in row] for row in a.rows],
            [[ring.mul(c, x) for x in row] for row in a.rows],
            [[ring.add(x, x) for x in row] for row in a.rows],
        )
        for mat, rows in zip(got, want):
            assert type(mat) is Mat and mat == Mat(ring, rows, a.shape)
    rows = [[1, 2], [3, 4]]
    moved = Mat(GF(5), rows).map(Fraction, QQ)
    assert isinstance(moved, linalg._CoordMat) and moved == Mat(QQ, rows)
