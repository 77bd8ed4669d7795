"""Brauer classes of cyclic algebras (L/k, sigma, lambda).

A class is Trivial, or Cyclic(pair, lam) with lam normalized.  Over a
finite base field every class is trivial.  Over Q with the Gaussian pair,
lam is normalized to a canonical representative of its coset modulo norms:
the sign times the product of the primes p = 3 mod 4 occurring to odd
exponent.  With that normalization, class equality is structural and
coincides with the norm test on quotients.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .errors import InvariantError, NotDecidableError
from .galois import FinitePair, GaloisPair, QuadraticPair
from .numtheory import rational_factor_exponents
from .quaternions import QuaternionAlgebra, quat_is_division


def _canonical_lambda_gaussian(lam):
    # Representative of lam modulo norms from Q(i): keep the sign and the
    # primes p = 3 mod 4 with odd exponent.  (The squarefree part of lam
    # also contains norm primes like 2 and p = 1 mod 4; those are dropped.)
    sign, exps = rational_factor_exponents(Fraction(lam))
    out = Fraction(sign)
    for p, e in sorted(exps.items()):
        if p % 4 == 3 and e % 2:
            out *= p
    return out


@dataclass(frozen=True)
class BrauerClass:
    """Trivial (pair is None) or the class of the cyclic algebra (L/k, sigma, lam)."""

    pair: Optional[GaloisPair]
    lam: object
    index: int

    @staticmethod
    def trivial():
        return BrauerClass(None, None, 1)

    @property
    def is_trivial(self):
        return self.pair is None

    def quaternion_algebra(self):
        """The division algebra representing a nontrivial quadratic class."""
        if self.is_trivial:
            raise ValueError("the trivial class has no quaternion representative")
        return QuaternionAlgebra(self.pair.m, self.lam)

    def describe(self):
        if self.is_trivial:
            return "Trivial"
        return f"Cyclic({self.pair!r}, lambda={self.lam}) ~ ({self.pair.m},{self.lam})_Q"


def brauer_class(lam, pair):
    """The Brauer class of the cyclic algebra (L/k, sigma, lam).

    Trivial exactly when lam is a norm from L; raises NotDecidableError when
    norm membership cannot be decided for this pair.
    """
    if isinstance(pair, FinitePair):
        if lam % pair.base.p == 0:
            raise ValueError("lambda must be nonzero")
        pair.is_norm(lam)
        return BrauerClass.trivial()
    if isinstance(pair, QuadraticPair):
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("lambda must be nonzero")
        if pair.is_norm(lam):
            return BrauerClass.trivial()
        canon = _canonical_lambda_gaussian(lam)
        # The cyclic algebra of a quadratic pair has index dividing 2; it is
        # nontrivial here, hence a quaternion division algebra.
        if not quat_is_division(pair.m, canon):
            raise InvariantError(
                f"lambda={canon} is not a norm from {pair!r}, yet "
                f"({pair.m},{canon})_Q is split"
            )
        return BrauerClass(pair, canon, 2)
    raise NotDecidableError(f"unsupported Galois pair {pair!r}")
