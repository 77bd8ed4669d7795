import random
from fractions import Fraction

import pytest

from quivermoduli import NotInvertibleError, QuaternionAlgebra, hamilton_quaternions
from quivermoduli.quaternions import quat_is_division

from helpers import reference_left_mul_matrix, reference_right_mul_matrix


def test_defining_relations():
    H = hamilton_quaternions()
    assert H.mul(H.i, H.i) == H.from_int(-1)
    assert H.mul(H.j, H.j) == H.from_int(-1)
    assert H.mul(H.i, H.j) == H.k
    assert H.mul(H.j, H.i) == H.neg(H.k)


def test_nrd_example():
    H = hamilton_quaternions()
    x = (Fraction(1), Fraction(1), Fraction(1), Fraction(1))
    assert H.nrd(x) == 4


def test_inverse():
    H = hamilton_quaternions()
    assert H.inv(H.i) == H.neg(H.i)
    x = (Fraction(1), Fraction(2), Fraction(-1), Fraction(3))
    assert H.mul(x, H.inv(x)) == H.one
    assert H.mul(H.inv(x), x) == H.one


def test_split_algebra_zero_divisor():
    A = QuaternionAlgebra(1, -1)  # i^2 = 1 gives (1-i)(1+i) = 0
    x = A.add(A.one, A.neg(A.i))
    y = A.add(A.one, A.i)
    assert A.mul(x, y) == A.zero
    with pytest.raises(NotInvertibleError):
        A.inv(x)


def test_nrd_multiplicative_random():
    rng = random.Random(5)
    for A in (hamilton_quaternions(), QuaternionAlgebra(-1, 5), QuaternionAlgebra(2, 3)):
        for _ in range(300):
            x = A.random(rng)
            y = A.random(rng)
            assert A.nrd(A.mul(x, y)) == A.nrd(x) * A.nrd(y)


def test_is_division():
    assert quat_is_division(-1, -1)
    assert not quat_is_division(1, 7)
    assert not quat_is_division(-1, 5)  # z^2 + x^2 - 5 y^2 has (2, 1, 1)
    assert quat_is_division(-1, 3)
    assert quat_is_division(2, -1) == quat_is_division(-1, 2)


def test_division_iff_anisotropic_small_search():
    # (a,b) split means some nonzero element has reduced norm 0; for small
    # division cases a bounded search must find nothing.
    H = hamilton_quaternions()
    for x0 in range(-3, 4):
        for x1 in range(-3, 4):
            for x2 in range(-3, 4):
                for x3 in range(-3, 4):
                    if (x0, x1, x2, x3) == (0, 0, 0, 0):
                        continue
                    x = tuple(Fraction(c) for c in (x0, x1, x2, x3))
                    assert H.nrd(x) != 0


def test_regular_representation_matrices():
    H = hamilton_quaternions()
    rng = random.Random(9)
    basis = (H.one, H.i, H.j, H.k)
    for _ in range(50):
        c = H.random(rng)
        y = H.random(rng)
        L = H.left_mul_matrix(c)
        R = H.right_mul_matrix(c)
        prod = H.mul(c, y)
        via_l = tuple(sum(L[r][s] * y[s] for s in range(4)) for r in range(4))
        assert via_l == prod
        prod2 = H.mul(y, c)
        via_r = tuple(sum(R[r][s] * y[s] for s in range(4)) for r in range(4))
        assert via_r == prod2


@pytest.mark.parametrize("a, b", [(-1, -1), (-1, 3), (2, 5), (-3, 7)])
def test_regular_representations_closed_form(a, b):
    # the closed-form columns against four quaternion products each
    alg = QuaternionAlgebra(a, b)
    rng = random.Random(a * 100 + b)
    for c in [alg.one, alg.i, alg.j, alg.k] + [alg.random(rng) for _ in range(30)]:
        assert alg.left_mul_matrix(c) == reference_left_mul_matrix(alg, c)
        assert alg.right_mul_matrix(c) == reference_right_mul_matrix(alg, c)
