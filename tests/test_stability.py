import gc
import hashlib
import json
import random
import tracemalloc
import weakref
from collections import Counter
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivermoduli import (
    GF,
    GaloisPair,
    Mat,
    Representation,
    a2_quiver,
    enumerate_subreps,
    hn_filtration,
    is_geometrically_stable,
    jordan_quiver,
    kronecker_quiver,
    scss,
    stability_verdict,
)
from quivermoduli.cli import main
from quivermoduli.config import JobConfig
from quivermoduli import homs, stability
from quivermoduli.errors import BudgetExceededError, InvariantError, SchemaError
from quivermoduli.ffields import ExtensionField, PrimeField
from quivermoduli.quiver import base_change, slope
from quivermoduli.rings import QQ
from quivermoduli.serialize import rep_to_json
from quivermoduli.stability import (
    STABLE,
    STRICTLY_SEMISTABLE,
    UNSTABLE,
    HNFiltration,
    SubrepWitness,
    geom_stability,
    geom_stability_certificate,
    hn_subquotients,
    is_semistable,
    verify_hn,
    _Subspaces,
)

from helpers import (
    base_change_witness,
    count_calls,
    count_subspaces,
    fmat,
    is_full,
    kronecker_rep,
    opposite_transpose,
    quotient_rep,
    reference_matmul,
    reference_subquotient,
    restrict_rep,
    zero_maps,
)

CFG = JobConfig()
THETA = {"s": 1, "t": -1}


def random_rep(quiver, field, dims, rng):
    mats = {}
    for a in quiver.arrows:
        rows = tuple(
            tuple(rng.randrange(field.size) for _ in range(dims[a.src]))
            for _ in range(dims[a.dst])
        )
        mats[a.name] = Mat(field, rows, (dims[a.dst], dims[a.src]))
    return Representation(quiver, field, dims, mats)


def test_subspace_enumeration_counts():
    # Gaussian binomial totals: q=2, d=2 -> 5; q=2, d=3 -> 16; q=3, d=2 -> 6;
    # q=4, d=3 -> 44; q=9, d=2 -> 12; q=3, d=4 -> 212.  Ranks are listed in
    # increasing order, so a rank that listed too many or too few bases
    # leaves a wrong-length or missing one.
    for q, d, total in ((2, 2, 5), (2, 3, 16), (3, 2, 6), (4, 3, 44), (9, 2, 12), (3, 4, 212)):
        field = GF(q)
        spaces = _Subspaces(field, d)
        per_rank = [spaces.indices(r) for r in range(d + 1)]
        assert sum(len(ix) for ix in per_rank) == count_subspaces(q, d) == total
        rows, spans = [], []
        for r, ix in enumerate(per_rank):
            for i in ix:
                basis = spaces.rows(i)
                assert basis is not None and len(basis) == r
                # the membership test agrees with the span listed outright
                span = {
                    _code(_combine(field, basis, coeffs), q)
                    for coeffs in product(list(field.elements()), repeat=r)
                }
                assert len(span) == q**r
                assert {c for c in range(q**d) if spaces[i][c]} == span
                if r == 1:
                    # the line lookup finds this line from each of its vectors
                    assert {spaces.lines[c] for c in span - {0}} == {i}
                rows.append(basis)
                spans.append(frozenset(span))
        # canonical forms are pairwise distinct, and so are their spans
        assert len(set(rows)) == total
        assert len(set(spans)) == total
    # lines only, where listing every subspace's span would be slow
    field = GF(9)
    spaces = _Subspaces(field, 4)
    for i in spaces.indices(1):
        (row,) = spaces.rows(i)
        for c in field.units():
            assert spaces.lines[_code([field.mul(c, x) for x in row], 9)] == i


def _combine(field, basis, coeffs):
    v = [field.zero] * len(basis[0]) if basis else []
    for c, row in zip(coeffs, basis):
        v = [field.add(a, field.mul(c, x)) for a, x in zip(v, row)]
    return v


def _code(v, q):
    return sum(x * q**i for i, x in enumerate(v))


def test_exact_verdicts_over_q_are_refused():
    # exact verdicts enumerate subspaces over a finite field; over Q they
    # are a SchemaError, never an attempt
    w = Representation(
        kronecker_quiver(2), QQ, {"s": 1, "t": 1},
        {"a1": Mat(QQ, ((Fraction(1),),)), "a2": Mat(QQ, ((Fraction(2),),))},
    )
    theta = {"s": 1, "t": -1}
    for call in (stability_verdict, is_semistable, scss, hn_filtration):
        with pytest.raises(SchemaError):
            call(w, theta, CFG)
    with pytest.raises(SchemaError):
        enumerate_subreps(w, CFG)


def test_enumerate_subreps_examples():
    f2 = GF(2)
    w = kronecker_rep(f2, [1, 1])
    subs = enumerate_subreps(w, CFG)
    dims = sorted(tuple(s.dims[v] for v in ("s", "t")) for s in subs)
    assert dims == [(0, 0), (0, 1), (1, 1)]

    zero = zero_maps(kronecker_quiver(2), f2, {"s": 1, "t": 1})
    assert len(enumerate_subreps(zero, CFG)) == 4

    f3 = GF(3)
    loop = Representation(jordan_quiver(), f3, {"v": 1}, {"loop": fmat(f3, [[2]])})
    assert len(enumerate_subreps(loop, CFG)) == 2


def test_every_returned_witness_is_closed():
    rng = random.Random(5)
    f2 = GF(2)
    q = kronecker_quiver(2)
    for _ in range(10):
        w = random_rep(q, f2, {"s": 2, "t": 1}, rng)
        for sub in enumerate_subreps(w, CFG):
            assert sub.is_closed_in(w)


def test_budget_error():
    tight = JobConfig(max_subspace_checks=3)
    f3 = GF(3)
    w = kronecker_rep(f3, [fmat(f3, [[1, 0], [0, 1]]), fmat(f3, [[0, 1], [0, 0]])],
                      {"s": 2, "t": 2})
    with pytest.raises(BudgetExceededError):
        enumerate_subreps(w, tight)
    # F_3^9 has about 1.4e10 subspaces: listing them, or keeping one slot per
    # subspace, would exhaust memory, so the budget must refuse first.
    big = zero_maps(kronecker_quiver(2), f3, {"s": 1, "t": 9})
    assert count_subspaces(3, 9) > 10**10
    for call in (
        lambda: enumerate_subreps(big, CFG),
        lambda: stability_verdict(big, THETA, CFG),
        lambda: is_semistable(big, THETA, CFG),
        lambda: scss(big, THETA, CFG),
    ):
        with pytest.raises(BudgetExceededError):
            call()


def test_large_field_closure_stays_small():
    # A loop over F_101 with the companion matrix of x^3 + x + 1, which has no
    # root mod 101 and so no invariant line or plane: every one of the
    # 2 * 10303 proper subspaces is checked.  The membership test works on
    # reduced echelon rows, so memory follows the checks made, not the
    # 101^3 vectors of the space.
    f101 = GF(101)
    assert all((x**3 + x + 1) % 101 for x in range(101))
    loop = Representation(
        jordan_quiver(), f101, {"v": 3},
        {"loop": fmat(f101, [[0, 0, 100], [1, 0, 100], [0, 1, 0]])},
    )
    budget = JobConfig(max_subspace_checks=2 * 10303)
    tracemalloc.start()
    try:
        verdict = stability_verdict(loop, {"v": 0}, budget)
        _, peak = tracemalloc.get_traced_memory()
        # the subspaces and their memos live on the field and go with it
        alive = weakref.ref(f101)
        del loop, f101
        gc.collect()
        left, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert verdict.kind == STABLE
    # each subspace is held once, as its listed rows, with a small memo: about
    # 11 MB; a transposed copy of every subspace met would take over 17 MB
    assert peak < 15 * 2**20, peak
    assert alive() is None
    assert left < 2**16, left


def test_line_lookup_work_guard(monkeypatch):
    # a1 = I, a2 = the companion of x^3 + x + 1, irreducible over F_5: stable,
    # so every slope group is walked.  Scanning every line of F_5^3 at t
    # made 1,479 membership misses; looking the line up from an image makes
    # 590.
    f5 = GF(5)
    w = kronecker_rep(
        f5,
        [fmat(f5, [[1, 0, 0], [0, 1, 0], [0, 0, 1]]), fmat(f5, [[0, 0, 4], [1, 0, 4], [0, 1, 0]])],
        {"s": 3, "t": 3},
    )
    misses = []
    lookup = stability._Span.__missing__

    def counted(span, code):
        misses.append(code)
        return lookup(span, code)

    monkeypatch.setattr(stability._Span, "__missing__", counted)
    assert stability_verdict(w, THETA, CFG).kind == STABLE
    assert len(misses) <= 600, len(misses)


def test_coprime_dims_decide_end_without_hom_space(monkeypatch):
    # End W of a stable W with coprime nonzero d_v is k, so neither the
    # exact decision nor the certificate's mod-p step solves for End: no
    # Hom system is solved, for a basis or for its corank
    f3 = GF(3)
    w = kronecker_rep(f3, [fmat(f3, [[1], [0]]), fmat(f3, [[0], [1]])], {"s": 1, "t": 2})
    wq = kronecker_rep(QQ, [Mat(QQ, ((1,), (0,))), Mat(QQ, ((0,), (1,)))], {"s": 1, "t": 2})
    companion = Representation(
        jordan_quiver(), f3, {"v": 2}, {"loop": fmat(f3, [[0, 2], [1, 0]])}
    )

    def no_hom_system(*args):
        raise AssertionError("a Hom system was solved")

    with monkeypatch.context() as m:
        m.setattr(homs, "hom_space", no_hom_system)
        m.setattr(homs, "hom_dim", no_hom_system)
        assert geom_stability(w, THETA, CFG).kind == STABLE
        cert = geom_stability_certificate(wq, THETA, CFG)
        assert cert.kind == STABLE and cert.detail["certificate"] == "reduction"
        with pytest.raises(AssertionError):
            geom_stability(companion, {"v": 0}, CFG)
    # d = 2 is not coprime: x^2 + 1 is irreducible over F_3, so End = F_9
    verdict = geom_stability(companion, {"v": 0}, CFG)
    assert verdict.kind == STRICTLY_SEMISTABLE
    assert verdict.detail == {"reason": "stable but not Schur"}


def test_stability_verdict_examples():
    f2 = GF(2)
    w = kronecker_rep(f2, [1, 1])
    assert stability_verdict(w, THETA, CFG).kind == STABLE

    zero = zero_maps(kronecker_quiver(2), f2, {"s": 1, "t": 1})
    v = stability_verdict(zero, THETA, CFG)
    assert v.kind == UNSTABLE
    assert v.witness.dims == {"s": 1, "t": 0}
    assert v.witness.slope(THETA) == 1 > zero.slope(THETA)

    simple = Representation(jordan_quiver(), f2, {"v": 1}, {"loop": fmat(f2, [[0]])})
    assert stability_verdict(simple, {"v": 0}, CFG).kind == STABLE


def test_unstable_witness_is_exact():
    rng = random.Random(12)
    f2 = GF(2)
    q = kronecker_quiver(2)
    for _ in range(25):
        w = random_rep(q, f2, {"s": 2, "t": 1}, rng)
        v = stability_verdict(w, THETA, CFG)
        if v.kind == UNSTABLE:
            assert v.witness.is_closed_in(w)
            assert v.witness.slope(THETA) > w.slope(THETA)
        elif v.kind == STRICTLY_SEMISTABLE:
            assert v.witness.slope(THETA) == w.slope(THETA)


def test_geometric_stability_examples():
    f2 = GF(2)
    w = kronecker_rep(f2, [1, 1])
    assert is_geometrically_stable(w, THETA, CFG)

    companion = Representation(
        jordan_quiver(), f2, {"v": 2}, {"loop": fmat(f2, [[0, 1], [1, 1]])}
    )
    assert stability_verdict(companion, {"v": 0}, CFG).kind == STABLE
    assert not is_geometrically_stable(companion, {"v": 0}, CFG)

    ww = w.direct_sum(w)
    assert not is_geometrically_stable(ww, THETA, CFG)

    # over Q there is only a certificate, and its Unknown is not a False
    with pytest.raises(SchemaError):
        is_geometrically_stable(kronecker_rep(QQ, [1, 1]), THETA, CFG)


def test_geometric_stability_tower_oracle():
    # geom stable iff stable after base change to F_{q^m}, m = 1..3
    rng = random.Random(77)
    f2 = GF(2)
    q = kronecker_quiver(2)
    checked = 0
    for _ in range(12):
        dims = rng.choice([{"s": 1, "t": 1}, {"s": 2, "t": 1}, {"s": 1, "t": 2}])
        w = random_rep(q, f2, dims, rng)
        got = is_geometrically_stable(w, THETA, CFG)
        want = True
        for m in (2, 3):
            pair = GaloisPair.finite(2, m)
            wl = base_change(w, pair)
            if stability_verdict(wl, THETA, CFG).kind != STABLE:
                want = False
                break
        want = want and stability_verdict(w, THETA, CFG).kind == STABLE
        assert got == want
        checked += 1
    assert checked == 12


def test_scss_examples():
    f2 = GF(2)
    zero = zero_maps(kronecker_quiver(2), f2, {"s": 1, "t": 1})
    w = scss(zero, THETA, CFG)
    assert w.dims == {"s": 1, "t": 0}

    stable = kronecker_rep(f2, [1, 1])
    assert is_full(scss(stable, THETA, CFG), stable)


def test_scss_contains_all_max_slope_subreps():
    rng = random.Random(9)
    for q in (2, 3):
        f = GF(q)
        quiv = kronecker_quiver(2)
        for _ in range(15):
            dims = rng.choice([{"s": 2, "t": 1}, {"s": 1, "t": 2}, {"s": 2, "t": 2}])
            w = random_rep(quiv, f, dims, rng)
            top = scss(w, THETA, CFG)
            smax = top.slope(THETA) if not is_full(top, w) else None
            if smax is None:
                continue
            for sub in enumerate_subreps(w, CFG):
                if sub.total_dim() and sub.slope(THETA) == smax:
                    assert top.contains(sub)


def test_quotient_and_restrict():
    f3 = GF(3)
    q = kronecker_quiver(2)
    w = Representation(
        q, f3, {"s": 2, "t": 1},
        {"a1": fmat(f3, [[1, 0]]), "a2": fmat(f3, [[0, 1]])},
    )
    v = stability_verdict(w, THETA, CFG)
    sub = scss(w, THETA, CFG)
    if not is_full(sub, w):
        quot, lift = quotient_rep(w, sub)
        assert quot.total_dim() == w.total_dim() - sub.total_dim()
        res = restrict_rep(w, sub)
        assert res.dims == sub.dims


def test_hn_examples():
    f2 = GF(2)
    zero = zero_maps(kronecker_quiver(2), f2, {"s": 1, "t": 1})
    hn = hn_filtration(zero, THETA, CFG)
    assert [dict(s.dims) for s in hn.steps] == [{"s": 1, "t": 0}, {"s": 1, "t": 1}]
    assert list(hn.slopes) == [1, -1]
    assert verify_hn(zero, THETA, hn, CFG)

    stable = kronecker_rep(f2, [1, 1])
    hn = hn_filtration(stable, THETA, CFG)
    assert hn.length() == 1


def test_hn_of_split_direct_sum():
    f3 = GF(3)
    q = kronecker_quiver(2)
    # S1 = simple at s (slope 1), S2 = simple at t (slope -1)
    s1 = zero_maps(q, f3, {"s": 1, "t": 0})
    s2 = zero_maps(q, f3, {"s": 0, "t": 1})
    w = s1.direct_sum(s2)
    hn = hn_filtration(w, THETA, CFG)
    assert list(hn.slopes) == [1, -1]
    assert hn.steps[0].dims == {"s": 1, "t": 0}


def test_hn_of_length_three():
    # S_s + (a stable (1,1)) + S_t, moved by a base change: slopes 1, 0, -1
    f5 = GF(5)
    q = kronecker_quiver(2)
    w = zero_maps(q, f5, {"s": 1, "t": 0})
    w = w.direct_sum(kronecker_rep(f5, [1, 2]))
    w = w.direct_sum(zero_maps(q, f5, {"s": 0, "t": 1}))
    w = w.act({"s": fmat(f5, [[1, 2], [3, 4]]), "t": fmat(f5, [[2, 1], [1, 1]])})
    hn = hn_filtration(w, THETA, CFG)
    assert list(hn.slopes) == [1, 0, -1]
    assert [dict(s.dims) for s in hn.steps] == [
        {"s": 1, "t": 0}, {"s": 2, "t": 1}, {"s": 2, "t": 2}
    ]
    assert verify_hn(w, THETA, hn, CFG)
    layers = hn_subquotients(w, hn)
    assert [layer.dims for layer in layers] == [
        {"s": 1, "t": 0}, {"s": 1, "t": 1}, {"s": 0, "t": 1}
    ]
    assert stability_verdict(layers[1], THETA, CFG).is_stable


def test_subquotients_of_bad_witnesses_raise():
    f3 = GF(3)
    w = kronecker_rep(f3, [1, 0])
    # span of e_s alone: a1 maps it outside the zero space at t
    open_sub = SubrepWitness({"s": 1, "t": 0}, {"s": fmat(f3, [[1]]), "t": Mat.zero(f3, 1, 0)})
    with pytest.raises(InvariantError):
        quotient_rep(w, open_sub)
    with pytest.raises(InvariantError):
        restrict_rep(w, open_sub)
    # two equal columns are not a basis
    twice = SubrepWitness({"s": 2, "t": 1}, {"s": fmat(f3, [[1, 1]]), "t": fmat(f3, [[1]])})
    with pytest.raises(InvariantError):
        quotient_rep(w, twice)
    # S_t then S_s in S_s + S_t: each a subrepresentation, not nested
    split = zero_maps(kronecker_quiver(2), f3, {"s": 1, "t": 1})
    at_t = SubrepWitness({"s": 0, "t": 1}, {"s": Mat.zero(f3, 1, 0), "t": fmat(f3, [[1]])})
    at_s = SubrepWitness({"s": 1, "t": 0}, {"s": fmat(f3, [[1]]), "t": Mat.zero(f3, 1, 0)})
    with pytest.raises(InvariantError):
        hn_subquotients(split, HNFiltration((at_t, at_s), (-1, 1)))
    # a last step with a dependent basis that the step before sticks out of
    plane = zero_maps(kronecker_quiver(2), f3, {"s": 2, "t": 0})
    none = Mat.zero(f3, 0, 0)
    line = SubrepWitness({"s": 1, "t": 0}, {"s": fmat(f3, [[0], [1]]), "t": none})
    doubled = SubrepWitness({"s": 2, "t": 0}, {"s": fmat(f3, [[1, 1], [0, 0]]), "t": none})
    with pytest.raises(InvariantError):
        hn_subquotients(plane, HNFiltration((line, doubled), (1, 1)))


def test_slope_groups_match_their_definition():
    # proper nonzero e with slope(e) >= floor (> when strict), by slope
    cases = [
        ({"s": 2, "t": 3}, {"s": 1, "t": -1}),
        ({"s": 3, "t": 0, "u": 2}, {"s": 5, "t": 0, "u": -2}),
        ({"v": 4}, {"v": 0}),
    ]
    for dims, theta in cases:
        subs = [e for e in stability._sub_dim_vectors(dims) if 0 < sum(e.values()) and e != dims]
        for floor in {slope(dims, theta), Fraction(-1, 3), Fraction(2, 5), 0}:
            for strict in (False, True):
                want = {}
                for e in subs:
                    s = slope(e, theta)
                    if s > floor or (s == floor and not strict):
                        want.setdefault(s, []).append(e)
                got = stability._slope_groups(dims, theta, floor, strict)
                assert got == sorted(want.items(), reverse=True)
                assert all(type(s) is Fraction for s, _ in got)


def _check_bad_filtrations_rejected(keep_verdicts):
    """verify_hn on S_s + S_t and an open first step, with each rep's
    stability verdict kept beforehand when keep_verdicts."""
    f3 = GF(3)
    none = Mat.zero(f3, 1, 0)
    at_s = SubrepWitness({"s": 1, "t": 0}, {"s": fmat(f3, [[1]]), "t": none})
    at_t = SubrepWitness({"s": 0, "t": 1}, {"s": none, "t": fmat(f3, [[1]])})
    # S_s + S_t: HN steps S_s, W with slopes 1, -1
    split = zero_maps(kronecker_quiver(2), f3, {"s": 1, "t": 1})
    # a1 = 1 maps S_s's space onto t: the first step is not closed
    open_first = kronecker_rep(f3, [1, 0])
    if keep_verdicts:
        assert stability_verdict(split, THETA, CFG).kind == UNSTABLE
        assert stability_verdict(open_first, THETA, CFG).kind == STABLE
    hn = hn_filtration(split, THETA, CFG)
    assert hn.steps[0].dims == at_s.dims and hn.slopes == (1, -1)
    assert verify_hn(split, THETA, hn, CFG)
    full = hn.steps[1]
    # S_s is not closed in open_first
    assert not verify_hn(open_first, THETA, HNFiltration((at_s, full), (1, -1)), CFG)
    # S_t then S_s: each closed, not nested
    assert not verify_hn(split, THETA, HNFiltration((at_t, at_s), (1, -1)), CFG)
    # slopes equal or increasing
    assert not verify_hn(split, THETA, HNFiltration(hn.steps, (1, 1)), CFG)
    assert not verify_hn(split, THETA, HNFiltration(hn.steps, (-1, 1)), CFG)
    # strictly decreasing, but the first layer has slope 1
    assert not verify_hn(split, THETA, HNFiltration(hn.steps, (2, -1)), CFG)
    # one layer of the right slope 0, destabilized by S_s
    assert not verify_hn(split, THETA, HNFiltration((full,), (0,)), CFG)
    # the same filtration is right for the stable open_first, whose one layer is itself
    assert verify_hn(open_first, THETA, HNFiltration((full,), (0,)), CFG)
    # a one-step filtration of full dimensions whose basis at s is not one
    dependent = SubrepWitness(full.dims, {"s": fmat(f3, [[0]]), "t": fmat(f3, [[1]])})
    assert not verify_hn(open_first, THETA, HNFiltration((dependent,), (0,)), CFG)
    # malformed: no step; W^1 alone, short of W; fewer or more slopes than
    # steps; a zero step; a repeated step
    zero = stability._zero_witness(split)
    assert not verify_hn(split, THETA, HNFiltration((), ()), CFG)
    assert not verify_hn(split, THETA, HNFiltration(hn.steps[:1], hn.slopes[:1]), CFG)
    assert not verify_hn(split, THETA, HNFiltration(hn.steps, (1,)), CFG)
    assert not verify_hn(open_first, THETA, HNFiltration((full,), (0, -1)), CFG)
    assert not verify_hn(split, THETA, HNFiltration((zero, at_s, full), (2, 1, -1)), CFG)
    assert not verify_hn(split, THETA, HNFiltration((at_s, at_s, full), (1, 0, -1)), CFG)


def test_verify_hn_rejects_bad_filtrations():
    _check_bad_filtrations_rejected(keep_verdicts=False)


def test_verify_hn_rejects_bad_filtrations_on_reps_with_kept_verdicts():
    _check_bad_filtrations_rejected(keep_verdicts=True)


@pytest.mark.parametrize("true_steps", [0, 1])
def test_hn_refuses_a_zero_scss_step(monkeypatch, true_steps):
    # a faulty scss search that returns 0, at the first step or a later one,
    # must raise rather than loop
    w = zero_maps(kronecker_quiver(2), GF(2), {"s": 1, "t": 1})
    calls = []
    true_scss = stability._scss_above

    def faulty(rep, theta, config):
        calls.append(rep)
        if len(calls) <= true_steps:
            return true_scss(rep, theta, config)
        return SubrepWitness(
            {v: 0 for v in rep.dims},
            {v: Mat.zero(rep.ring, d, 0) for v, d in rep.dims.items()},
        )

    monkeypatch.setattr(stability, "_scss_above", faulty)
    with pytest.raises(InvariantError):
        hn_filtration(w, THETA, CFG)
    assert len(calls) == true_steps + 1


def test_hn_properties_random():
    rng = random.Random(21)
    for q in (2, 3):
        f = GF(q)
        quiv = kronecker_quiver(2)
        for _ in range(12):
            dims = rng.choice(
                [{"s": 1, "t": 1}, {"s": 2, "t": 1}, {"s": 1, "t": 2}, {"s": 2, "t": 2}]
            )
            w = random_rep(quiv, f, dims, rng)
            hn = hn_filtration(w, THETA, CFG)
            assert verify_hn(w, THETA, hn, CFG)
            assert list(hn.slopes) == sorted(hn.slopes, reverse=True)
            layers = hn_subquotients(w, hn)
            total = {v: sum(l.dims[v] for l in layers) for v in w.dims}
            assert total == w.dims


def test_semistable_iff_base_change_semistable():
    rng = random.Random(33)
    f2 = GF(2)
    pair = GaloisPair.finite(2, 2)
    quiv = kronecker_quiver(2)
    for _ in range(15):
        dims = rng.choice([{"s": 1, "t": 1}, {"s": 2, "t": 1}, {"s": 1, "t": 2}])
        w = random_rep(quiv, f2, dims, rng)
        wl = base_change(w, pair)
        assert is_semistable(w, THETA, CFG) == is_semistable(wl, THETA, CFG)


def test_hn_commutes_with_base_change():
    rng = random.Random(41)
    for q in (2, 3):
        pair = GaloisPair.finite(q, 2)
        quiv = kronecker_quiver(2)
        for _ in range(10):
            dims = rng.choice([{"s": 1, "t": 1}, {"s": 2, "t": 1}, {"s": 2, "t": 2}])
            w = random_rep(quiv, pair.base, dims, rng)
            hn = hn_filtration(w, THETA, CFG)
            wl = base_change(w, pair)
            hn2 = hn_filtration(wl, THETA, CFG)
            assert hn.slopes == hn2.slopes
            for w1, w2 in zip(hn.steps, hn2.steps):
                lifted = base_change_witness(w1, pair).canonical()
                assert lifted.bases == w2.bases


def _subquotient_record(rep, hn):
    """Every subquotient the HN API builds for rep, as plain data: steps and
    slopes, the hn_subquotients layers, and per step the quotient_rep and
    restrict_rep matrices and the lift of each quotient coordinate vector."""

    def mats(r):
        return (sorted(r.dims.items()), sorted((a, m.rows) for a, m in r.mats.items()))

    steps = []
    for w in hn.steps:
        quot, lift = quotient_rep(rep, w)
        lifts = sorted(
            (v, lift(v, Mat.identity(rep.ring, quot.dims[v])).rows) for v in rep.quiver.vertices
        )
        steps.append((
            sorted(w.dims.items()),
            sorted((v, b.rows) for v, b in w.bases.items()),
            mats(quot),
            lifts,
            mats(restrict_rep(rep, w)),
        ))
    layers = [mats(layer) for layer in hn_subquotients(rep, hn)]
    return steps, [str(s) for s in hn.slopes], layers


def _grid_reps():
    """Seeded reps: K2, K3 and A2 with dims up to (3,3), and the Jordan
    quiver, over F_2 to F_5; entries are zero with a per-rep probability, so
    that HN filtrations of every length turn up."""
    rng = random.Random(1515)
    quivers = [kronecker_quiver(2), kronecker_quiver(3), a2_quiver()]
    for q in (2, 3, 4, 5):
        f = GF(q)
        for quiv in quivers:
            for _ in range(8):
                dims = {"s": 0, "t": 0}
                while not any(dims.values()):
                    dims = {"s": rng.randint(0, 3), "t": rng.randint(0, 3)}
                yield _sparse_rep(quiv, f, dims, rng), THETA
        yield _sparse_rep(jordan_quiver(), f, {"v": rng.randint(1, 3)}, rng), {"v": 0}


def _sparse_rep(quiver, field, dims, rng):
    density = rng.random()
    mats = {}
    for a in quiver.arrows:
        rows = tuple(
            tuple(rng.randrange(field.size) if rng.random() < density else 0
                  for _ in range(dims[a.src]))
            for _ in range(dims[a.dst])
        )
        mats[a.name] = Mat(field, rows, (dims[a.dst], dims[a.src]))
    return Representation(quiver, field, dims, mats)


def test_hn_subquotients_pinned_on_seeded_grid():
    # HN steps are unique and canonical, and each layer is written on the
    # complement the greedy pick chooses, so the records are fixed answers
    digest = hashlib.sha256()
    lengths = Counter()
    for rep, theta in _grid_reps():
        hn = hn_filtration(rep, theta, CFG)
        assert verify_hn(rep, theta, hn, CFG)
        lengths[hn.length()] += 1
        digest.update(repr(_subquotient_record(rep, hn)).encode())
    assert lengths == {1: 58, 2: 33, 3: 9}, lengths
    assert digest.hexdigest() == (
        "4309f80adbc650112c47b4d21607660a7a889662ac07076b7c0c0bdf7852d9f6"
    )


def test_verdict_witnesses_pinned_on_seeded_grid():
    # the engine yields candidate tuples in one fixed order, so the first
    # closed one, the verdict's witness, is a fixed answer too
    digest = hashlib.sha256()
    kinds = Counter()
    for rep, theta in _grid_reps():
        verdict = stability_verdict(rep, theta, CFG)
        kinds[verdict.kind] += 1
        bases = None
        if verdict.witness is not None:
            bases = sorted((v, b.rows) for v, b in verdict.witness.bases.items())
        digest.update(repr((verdict.kind, sorted(verdict.detail.items()), bases)).encode())
    assert kinds == {STABLE: 27, STRICTLY_SEMISTABLE: 31, UNSTABLE: 42}, kinds
    assert digest.hexdigest() == (
        "529ae884aaa8cd8b0cb7b00cf26c3f0b4032fd4937f910ca39270e132978656d"
    )


def _store_grid(field_of):
    """Seeded K2, K3, A2 and Jordan reps over F_3, F_4 and F_5, each over
    field_of(q), and their theta: the same reps whatever the field objects."""
    rng = random.Random(2024)
    quivers = [kronecker_quiver(2), kronecker_quiver(3), a2_quiver()]
    out = []
    for q in (3, 4, 5):
        for quiv in quivers:
            for _ in range(4):
                dims = {"s": rng.randint(1, 3), "t": rng.randint(1, 2)}
                out.append((_sparse_rep(quiv, field_of(q), dims, rng), THETA))
        for d in (2, 3):
            out.append((_sparse_rep(jordan_quiver(), field_of(q), {"v": d}, rng), {"v": 0}))
    return out


def _store_record(rep, theta):
    """Verdict, HN filtration, its re-verification and scss as plain data."""

    def rows(w):
        return None if w is None else sorted((v, b.rows) for v, b in w.bases.items())

    verdict = stability_verdict(rep, theta, CFG)
    hn = hn_filtration(rep, theta, CFG)
    return (
        verdict.kind, sorted(verdict.detail.items()), rows(verdict.witness),
        [rows(w) for w in hn.steps], [str(s) for s in hn.slopes],
        verify_hn(rep, theta, hn, CFG), rows(scss(rep, theta, CFG)),
    )


def test_answers_do_not_depend_on_the_subspace_store():
    # each rep on a fresh field, against every rep on one field per q that
    # other reps have already filled, taken in a shuffled order
    fresh = [_store_record(rep, theta) for rep, theta in _store_grid(GF)]
    fields = {q: GF(q) for q in (3, 4, 5)}
    rng = random.Random(9)
    for f in fields.values():
        for dims in ({"s": 3, "t": 3}, {"s": 2, "t": 3}):
            enumerate_subreps(_sparse_rep(kronecker_quiver(2), f, dims, rng), CFG)
        stability_verdict(_sparse_rep(jordan_quiver(), f, {"v": 3}, rng), {"v": 0}, CFG)
    assert all(f.subspaces for f in fields.values())
    grid = _store_grid(fields.get)
    order = list(range(len(grid)))
    rng.shuffle(order)
    shared = {i: _store_record(*grid[i]) for i in order}
    assert [shared[i] for i in range(len(grid))] == fresh
    kinds = Counter(r[0] for r in fresh)
    assert kinds == {STABLE: 16, STRICTLY_SEMISTABLE: 7, UNSTABLE: 19}, kinds
    assert hashlib.sha256(repr(fresh).encode()).hexdigest() == (
        "b96b8a660d81fe69079ed57149d67bce87064e57c768be5c669c24d0f554d157"
    )


def _count_listings(monkeypatch):
    """Patch _Subspaces._list_rank to record (field, dim, rank) per listing."""
    listed = Counter()
    list_rank = _Subspaces._list_rank

    def counted(space, r):
        listed[id(space.field), space.dim, r] += 1
        return list_rank(space, r)

    monkeypatch.setattr(_Subspaces, "_list_rank", counted)
    return listed


def _nested_top_rep(field):
    """K2 (3,2) as S_s^2 + (a stable (1,1)) + S_t: HN slopes 1, 0, -1, and
    the top slope group has every line of the plane S_s^2 besides it."""
    return kronecker_rep(
        field,
        [fmat(field, [[0, 0, 0], [0, 0, 1]]), fmat(field, [[0, 0, 0], [0, 0, 2]])],
        {"s": 3, "t": 2},
    )


def test_hn_path_ranks_no_nested_combo_and_no_echelon_upper(monkeypatch):
    # scss decides nesting on its _Span memos, and _subquotient does not
    # rank an upper in column-echelon form (engine witnesses, canonical
    # steps, the full witness): hn_filtration and verify_hn make no rank,
    # and one rref per vertex for each subquotient and each canonical step
    w = _nested_top_rep(GF(3))
    ranks, rrefs = [], []
    rank, rref = Mat.rank, Mat.rref
    monkeypatch.setattr(Mat, "rank", lambda m: ranks.append(m) or rank(m))
    monkeypatch.setattr(Mat, "rref", lambda m: rrefs.append(m) or rref(m))
    hn = hn_filtration(w, THETA, CFG)
    assert hn.slopes == (1, 0, -1) and hn.steps[0].dims == {"s": 2, "t": 0}
    assert verify_hn(w, THETA, hn, CFG)
    # hn_filtration: two subquotients and one canonical step; verify_hn:
    # three subquotients; two vertices each
    assert not ranks and len(rrefs) == 2 * (2 + 1 + 3)


def test_span_nesting_matches_contains():
    # on a seeded grid, the engine's nesting verdict for every ordered pair
    # of closed combos of the top slope group equals SubrepWitness.contains
    rng = random.Random(30)
    verdicts = Counter()
    for q in (2, 3, 4):
        f = GF(q)
        for quiv, dims in (
            (kronecker_quiver(2), {"s": 2, "t": 1}),
            (kronecker_quiver(2), {"s": 3, "t": 2}),
            (kronecker_quiver(3), {"s": 2, "t": 2}),
        ):
            for _ in range(4):
                mats = {
                    a.name: Mat(
                        f,
                        tuple(
                            tuple(rng.randrange(q) if rng.random() < 0.3 else 0 for _ in range(dims[a.src]))
                            for _ in range(dims[a.dst])
                        ),
                        (dims[a.dst], dims[a.src]),
                    )
                    for a in quiv.arrows
                }
                w = Representation(quiv, f, dims, mats)
                groups = stability._slope_groups(dims, THETA, w.slope(THETA), strict=True)
                eng, walks = stability._search(quiv, dims, f, groups, CFG)
                closed = list(eng.closed(eng.tests(stability._encode_rep(w)), walks))
                top = [(e, c) for s, e, c in closed if s == closed[0][0]] if closed else []
                for (e1, c1), (e2, c2) in product(top, repeat=2):
                    want = eng.witness(e2, c2).contains(eng.witness(e1, c1))
                    assert eng.nested(c1, c2) == want
                    verdicts[want] += 1
    assert verdicts[True] > 20 and verdicts[False] > 20, verdicts


def _kernel_cases(field, dim, count, rng):
    """Subspace indices, vector codes and arrow matrices over F_q^dim, with
    the memberships (a rank of stacked columns) and image codes (the
    per-term reference product) they should give."""
    space = stability._Subspaces(field, dim)
    q = field.size
    indices = [rng.randrange(space.offsets[-1]) for _ in range(count)]
    codes = [rng.randrange(q**dim) for _ in range(count)]
    for k in range(0, count, 2):  # every other code a combination of U's rows
        combo = [field.zero] * dim
        for row in space.rows(indices[k]):
            c = rng.randrange(q)
            combo = [field.add(x, field.mul(c, y)) for x, y in zip(combo, row)]
        codes[k] = stability._code(combo, q)
    mats = [
        tuple(tuple(rng.randrange(q) for _ in range(dim)) for _ in range(dim)) for _ in range(count)
    ]

    def vec(code):
        return tuple(code // q**i % q for i in range(dim))

    inside = [
        Mat.from_cols(field, [vec(c)], dim).cols_contained_in(
            Mat.from_cols(field, space.rows(i), dim)
        )
        for i, c in zip(indices, codes)
    ]
    images = [
        tuple(
            stability._code(
                [r[0] for r in reference_matmul(Mat(field, m), Mat.from_cols(field, [u], dim))], q
            )
            for u in space.rows(i)
        )
        for i, m in zip(indices, mats)
    ]
    return indices, codes, mats, inside, images


def _kernel_answers(field, dim, indices, codes, mats):
    space = stability._Subspaces(field, dim)
    inside = [space[i][c] for i, c in zip(indices, codes)]
    images = [stability._Images(m, space)[i] for i, m in zip(indices, mats)]
    return inside, images


def test_span_and_image_memos_match_mat_on_every_field_kind(monkeypatch):
    # _Span and _Images misses over F_p (integer products mod p), a tabled
    # F_{p^n} (table lookups) and an untabled one (the field's operations)
    # agree with Mat; the first two make no ring call
    rng = random.Random(31)
    tabled = []
    for field, dim in ((GF(5), 3), (GF(4), 3), (GF(9), 2), (GF(2**11), 2)):
        indices, codes, mats, inside, images = _kernel_cases(field, dim, 60, rng)
        assert any(inside) and not all(inside)
        if field.size > 1024:
            assert _kernel_answers(field, dim, indices, codes, mats) == (inside, images)
        else:
            tabled.append((field, dim, indices, codes, mats, inside, images))

    def refuse(*args):
        raise AssertionError("ring arithmetic inside a memo miss")

    for cls in (PrimeField, ExtensionField):
        for op in ("add", "sub", "mul"):
            monkeypatch.setattr(cls, op, refuse)
    for field, dim, indices, codes, mats, inside, images in tabled:
        assert _kernel_answers(field, dim, indices, codes, mats) == (inside, images)


def _three_layer_rep(field):
    """K2 (2,2) as S_s + (a stable (1,1)) + S_t: HN slopes 1, 0, -1."""
    return kronecker_rep(
        field, [fmat(field, [[0, 0], [0, 1]]), fmat(field, [[0, 0], [0, 2]])], {"s": 2, "t": 2}
    )


def test_hn_builds_one_full_witness(monkeypatch):
    # the semistable last quotient ends the filtration with its slope and W's
    # full witness: no full witness of the quotient is built and dropped
    fulls = count_calls(monkeypatch, stability.full_witness)
    w = _three_layer_rep(GF(3))
    hn = hn_filtration(w, THETA, CFG)
    assert hn.slopes == (1, 0, -1) and is_full(hn.steps[-1], w)
    assert len(fulls) == 1 and fulls[0][0] is w
    # scss keeps its contract: a semistable rep is its own scss
    layer = hn_subquotients(w, hn)[-1]
    assert is_full(scss(layer, THETA, CFG), layer) and len(fulls) == 2


def test_one_listing_per_field_and_dimension(monkeypatch):
    listed = _count_listings(monkeypatch)
    f3 = GF(3)
    w = _three_layer_rep(f3)
    assert stability_verdict(w, THETA, CFG).kind == UNSTABLE
    hn = hn_filtration(w, THETA, CFG)
    assert hn.length() == 3 and verify_hn(w, THETA, hn, CFG)
    assert listed and max(listed.values()) == 1, listed
    first = sorted(k[1:] for k in listed)
    # an equal field object keeps its own store and lists its ranks again
    other = GF(3)
    assert other == f3 and other.subspaces == {}
    w2 = _three_layer_rep(other)
    stability_verdict(w2, THETA, CFG)
    verify_hn(w2, THETA, hn_filtration(w2, THETA, CFG), CFG)
    again = sorted(k[1:] for k in listed if k[0] == id(other))
    assert again == first and max(listed.values()) == 1, listed


def test_cli_stability_hn_lists_each_rank_once(monkeypatch, tmp_path, capsys):
    listed = _count_listings(monkeypatch)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(_three_layer_rep(GF(3)))))
    assert main(["--format", "json", "stability", str(path), "--theta", json.dumps(THETA),
                 "--hn"]) == 0
    assert len(json.loads(capsys.readouterr().out)["hn"]["steps"]) == 3
    assert listed and max(listed.values()) == 1, listed


# ---------------------------------------------------------------------------
# the exact verdict kept on the representation


def _reads_record(rep, theta, config=CFG):
    """scss, is_semistable, the HN filtration and its re-verification as
    plain data: the answers that can read a kept verdict."""

    def rows(w):
        return sorted((v, b.rows) for v, b in w.bases.items())

    hn = hn_filtration(rep, theta, config)
    return (
        rows(scss(rep, theta, config)), is_semistable(rep, theta, config),
        [rows(w) for w in hn.steps], hn.slopes, verify_hn(rep, theta, hn, config),
    )


def test_kept_verdict_changes_no_answer():
    fresh = [_reads_record(rep, theta) for rep, theta in _store_grid(GF)]
    kept = []
    for rep, theta in _store_grid(GF):
        verdict = stability_verdict(rep, theta, CFG)
        assert stability_verdict(rep, theta, CFG) is verdict
        kept.append(_reads_record(rep, theta))
    assert kept == fresh


def _cost(rep, theta, strict):
    """Closure checks of the slope groups above mu (and at mu unless strict)."""
    groups = stability._slope_groups(rep.dims, theta, rep.slope(theta), strict)
    unbounded = JobConfig(max_subspace_checks=10**9)
    return stability._check_budget(
        rep.dims, rep.ring.size, [e for _, es in groups for e in es], unbounded
    )


def test_kept_verdict_is_read_only_under_its_budget():
    w = _three_layer_rep(GF(3))
    assert stability_verdict(w, THETA, CFG).kind == UNSTABLE
    small = JobConfig(max_subspace_checks=_cost(w, THETA, strict=True) - 1)
    for call in (stability_verdict, is_semistable, scss, hn_filtration):
        with pytest.raises(BudgetExceededError):
            call(w, THETA, small)
    # a budget refusal is not kept either: it is raised again
    with pytest.raises(BudgetExceededError):
        stability_verdict(w, THETA, small)
    assert stability_verdict(w, THETA, CFG).kind == UNSTABLE


def test_semistability_needs_only_the_groups_above_mu():
    # K2 (2,2) at theta (1,-1): mu = 0, and the slope-0 group (1,1) costs
    # (q+1)^2 closure checks on top of the groups above it
    f3 = GF(3)
    w = kronecker_rep(f3, [fmat(f3, [[1, 0], [0, 1]]), fmat(f3, [[0, 1], [1, 0]])],
                      {"s": 2, "t": 2})
    above = _cost(w, THETA, strict=True)
    assert _cost(w, THETA, strict=False) == above + 16
    tight = JobConfig(max_subspace_checks=above)
    assert is_semistable(w, THETA, tight)
    assert is_full(scss(w, THETA, tight), w)
    with pytest.raises(BudgetExceededError):
        stability_verdict(w, THETA, tight)
    assert is_semistable(w, THETA, tight)
    assert stability_verdict(w, THETA, CFG).kind == STRICTLY_SEMISTABLE


def test_a_stable_rep_is_searched_once(monkeypatch):
    searches = count_calls(monkeypatch, stability._search)
    w = kronecker_rep(GF(3), [1, 2])
    assert stability_verdict(w, THETA, CFG).kind == STABLE
    hn = hn_filtration(w, THETA, CFG)
    assert hn.length() == 1 and verify_hn(w, THETA, hn, CFG)
    assert len(searches) == 1


def test_cli_stability_hn_searches_a_stable_rep_once(monkeypatch, tmp_path, capsys):
    searches = count_calls(monkeypatch, stability._search)
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep_to_json(kronecker_rep(GF(3), [1, 2]))))
    assert main(["--format", "json", "stability", str(path), "--theta", json.dumps(THETA),
                 "--hn"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"]["kind"] == STABLE and len(out["hn"]["steps"]) == 1
    assert len(searches) == 1


# ---------------------------------------------------------------------------
# duality: W on Q against its transpose on the opposite quiver


@st.composite
def _small_reps(draw):
    kind = draw(st.sampled_from(["K2", "K3", "A2", "Jordan"]))
    field = GF(draw(st.sampled_from([2, 3, 4, 5])))
    if kind == "Jordan":
        quiver, dims, theta = jordan_quiver(), {"v": draw(st.integers(1, 3))}, {"v": 0}
    else:
        quiver = {"K2": kronecker_quiver(2), "K3": kronecker_quiver(3), "A2": a2_quiver()}[kind]
        dims = {"s": draw(st.integers(0, 2)), "t": draw(st.integers(0, 2))}
        theta = {"s": draw(st.integers(-2, 2)), "t": draw(st.integers(-2, 2))}
    if not any(dims.values()):
        dims = {v: 1 for v in dims}
    entries = st.integers(0, field.size - 1)
    mats = {}
    for a in quiver.arrows:
        shape = (dims[a.dst], dims[a.src])
        rows = draw(st.lists(st.lists(entries, min_size=shape[1], max_size=shape[1]),
                             min_size=shape[0], max_size=shape[0]))
        mats[a.name] = Mat(field, tuple(map(tuple, rows)), shape)
    return Representation(quiver, field, dims, mats), theta


@settings(max_examples=40, derandomize=True)
@given(_small_reps())
def test_transpose_on_the_opposite_quiver_is_dual(case):
    # W is theta-(semi)stable iff W^T is (-theta)-(semi)stable on Q^op, and
    # the HN layers of W^T are the duals of W's, in reverse order
    w, theta = case
    wt, neg = opposite_transpose(w), {v: -x for v, x in theta.items()}
    assert stability_verdict(wt, neg, CFG).kind == stability_verdict(w, theta, CFG).kind
    hn, hn_t = hn_filtration(w, theta, CFG), hn_filtration(wt, neg, CFG)
    layers = [dict(r.dims) for r in hn_subquotients(w, hn)]
    layers_t = [dict(r.dims) for r in hn_subquotients(wt, hn_t)]
    assert layers_t == layers[::-1]
    assert list(hn_t.slopes) == [-s for s in reversed(hn.slopes)]


# ---------------------------------------------------------------------------
# orbit invariance: W against g . W for a random g in G_d


def _group_element(draw, field, dims):
    """A random g in G_d = prod_v GL(d_v), drawn as P L U: a permutation, a
    unit lower triangular and an invertible upper triangular matrix.  Every
    invertible matrix factors so."""
    entries, units = st.integers(0, field.size - 1), st.integers(1, field.size - 1)
    g = {}
    for v, n in dims.items():
        perm = draw(st.permutations(range(n)))
        cells = (
            lambda i, j: int(j == perm[i]),
            lambda i, j: draw(entries) if j < i else int(i == j),
            lambda i, j: draw(units) if i == j else draw(entries) if j > i else 0,
        )
        P, L, U = (
            Mat(field, tuple(tuple(cell(i, j) for j in range(n)) for i in range(n)), (n, n))
            for cell in cells
        )
        g[v] = P @ L @ U
    return g


@settings(max_examples=40, derandomize=True)
@given(_small_reps(), st.data())
def test_verdict_hn_type_and_end_dim_are_orbit_invariants(case, data):
    # the orbit census counts one verdict per G_d-orbit; act runs through
    # inverse, which is one solve against the identity
    w, theta = case
    g = _group_element(data.draw, w.ring, w.dims)
    moved = w.act(g)
    assert moved.act({v: m.inverse() for v, m in g.items()}) == w
    assert stability_verdict(moved, theta, CFG).kind == stability_verdict(w, theta, CFG).kind
    hn, hn_moved = hn_filtration(w, theta, CFG), hn_filtration(moved, theta, CFG)
    layers = [dict(r.dims) for r in hn_subquotients(w, hn)]
    assert [dict(r.dims) for r in hn_subquotients(moved, hn_moved)] == layers
    assert hn_moved.slopes == hn.slopes
    assert homs.end_dim(moved) == homs.end_dim(w)


# ---------------------------------------------------------------------------
# subquotients against one solve per arrow, and their eliminations


def _same_span(draw, field, basis):
    """basis times a drawn matrix when it is invertible: the same span in
    other columns, so the complement C is not just the canonical one."""
    n = basis.ncols
    entries = st.integers(0, field.size - 1)
    rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=n, max_size=n))
    g = Mat(field, tuple(map(tuple, rows)), (n, n))
    return basis @ g if g.is_invertible() else basis


@settings(max_examples=40, derandomize=True)
@given(_small_reps(), st.data())
def test_subquotients_match_the_solve_oracle(case, data):
    w, theta = case
    subs = enumerate_subreps(w, CFG)
    upper = data.draw(st.sampled_from(subs))
    lower = data.draw(st.sampled_from([s for s in subs if upper.contains(s)]))
    upper, lower = (
        SubrepWitness(dict(x.dims), {v: _same_span(data.draw, w.ring, b) for v, b in x.bases.items()})
        for x in (upper, lower)
    )
    assert stability._subquotient(w, lower, upper) == reference_subquotient(w, lower, upper)
    quotient, lift = quotient_rep(w, lower)
    want, C = reference_subquotient(w, lower, stability.full_witness(w))
    assert quotient == want
    assert all(lift(v, Mat.identity(w.ring, quotient.dims[v])) == C[v] for v in w.dims)
    zero = stability._zero_witness(w)
    assert restrict_rep(w, upper) == reference_subquotient(w, zero, upper)[0]
    # the first HN step is kept as scss returns it: already canonical
    hn = hn_filtration(w, theta, CFG)
    assert all(step == step.canonical() for step in hn.steps)
    pairs = zip((zero,) + hn.steps[:-1], hn.steps)
    assert hn_subquotients(w, hn) == [reference_subquotient(w, *p)[0] for p in pairs]


def test_subquotients_of_bad_witnesses_raise_as_the_oracle_does():
    f3 = GF(3)
    none = Mat.zero(f3, 1, 0)
    w = kronecker_rep(f3, [1, 0])  # a1 maps e_s to e_t
    at_s = SubrepWitness({"s": 1, "t": 0}, {"s": fmat(f3, [[1]]), "t": none})
    at_t = SubrepWitness({"s": 0, "t": 1}, {"s": none, "t": fmat(f3, [[1]])})
    full, zero = stability.full_witness(w), stability._zero_witness(w)
    twice = SubrepWitness({"s": 2, "t": 1}, {"s": fmat(f3, [[1, 1]]), "t": fmat(f3, [[1]])})
    # a dependent upper basis with the pivot count of a basis: lower sticks out
    plane = zero_maps(kronecker_quiver(2), f3, {"s": 2, "t": 0})
    empty = Mat.zero(f3, 0, 0)
    line = SubrepWitness({"s": 1, "t": 0}, {"s": fmat(f3, [[0], [1]]), "t": empty})
    doubled = SubrepWitness({"s": 2, "t": 0}, {"s": fmat(f3, [[1, 1], [0, 0]]), "t": empty})
    nested = "not independent and nested"
    cases = [
        (w, zero, twice, nested),
        (plane, line, doubled, nested),
        (w, full, at_t, nested),
        (w, zero, at_s, "upper witness is not closed"),
        (w, at_s, full, "lower witness is not closed"),
    ]
    for rep, lower, upper, message in cases:
        for build in (stability._subquotient, reference_subquotient):
            with pytest.raises(InvariantError, match=message):
                build(rep, lower, upper)


def test_hn_and_its_check_eliminate_once_per_subquotient_vertex(monkeypatch):
    # a pinned unstable K3 (3, 3) rep over F_5 with HN steps (2, 1) < (3, 3):
    # hn_filtration builds one quotient and verify_hn two layers, one rref
    # per vertex each, plus the rank of upper where lower is nonzero
    f5 = GF(5)
    mats = {
        "a1": fmat(f5, [[3, 0, 0], [0, 0, 4], [0, 0, 0]]),
        "a2": fmat(f5, [[2, 4, 0], [0, 0, 4], [0, 0, 1]]),
        "a3": fmat(f5, [[0, 0, 3], [0, 0, 3], [0, 0, 0]]),
    }
    w = Representation(kronecker_quiver(3), f5, {"s": 3, "t": 3}, mats)
    calls = []
    rref = Mat.rref

    def counted(self):
        calls.append(self.shape)
        return rref(self)

    monkeypatch.setattr(Mat, "rref", counted)
    hn = hn_filtration(w, THETA, CFG)
    assert [dict(step.dims) for step in hn.steps] == [{"s": 2, "t": 1}, {"s": 3, "t": 3}]
    assert verify_hn(w, THETA, hn, CFG)
    assert len(calls) <= 10
