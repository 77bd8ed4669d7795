"""Cyclic Galois pairs L/k with a distinguished generator.

Two kinds are supported: F_{p^n}/F_p with the Frobenius x -> x^p, and
Q(sqrt(m))/Q with sqrt(m) -> -sqrt(m).  A pair bundles the base and
extension rings together with the embedding, the generator action, the
norm, and norm-membership procedures.  Norm membership is decided exactly
where a sound procedure exists (all finite pairs; Q(i)/Q) and raises
NotDecidableError elsewhere rather than ever guessing.
"""

from fractions import Fraction

from .errors import InvariantError, NotDecidableError, SchemaError
from .ffields import ExtensionField, PrimeField
from .numtheory import rational_factor_exponents, two_squares
from .rings import QQ, QuadraticField


class GaloisPair:
    """A cyclic extension L/k of degree n with generator sigma."""

    def __init__(self, base, ext, degree):
        self.base = base
        self.ext = ext
        self.degree = degree

    # --- constructors ---

    @staticmethod
    def finite(p, n, modulus=None):
        """F_{p^n}/F_p with sigma the Frobenius x -> x^p."""
        return FinitePair(PrimeField(p), ExtensionField(p, n, modulus), n)

    @staticmethod
    def quadratic(m):
        """Q(sqrt(m))/Q with sigma the conjugation sqrt(m) -> -sqrt(m)."""
        return QuadraticPair(QQ, QuadraticField(m), 2)

    @staticmethod
    def gaussian():
        return GaloisPair.quadratic(-1)

    # --- the Galois action ---

    def check_element(self, x):
        """Domain check for bare payloads; raises SchemaError on mismatch."""
        raise NotImplementedError

    def sigma(self, x, power=1):
        raise NotImplementedError

    def embed(self, x):
        """k -> L."""
        raise NotImplementedError

    def sigma_mat(self, mat, power=1):
        """sigma^power on each entry of a matrix over L."""
        return mat.map(lambda x: self.sigma(x, power))

    def to_base_mat(self, mat):
        """A sigma-fixed matrix over L read over k."""
        return mat.map(self.to_base, self.base)

    def is_fixed(self, x):
        return self.sigma(x) == x

    def to_base(self, x):
        """Inverse of embed on sigma-fixed elements."""
        raise NotImplementedError

    def norm(self, x):
        """prod_{i<n} sigma^i(x), landing in k."""
        ext = self.ext
        prod = x
        y = x
        for _ in range(self.degree - 1):
            y = self.sigma(y)
            prod = ext.mul(prod, y)
        if not self.is_fixed(prod):
            raise InvariantError("norm value is not Galois-fixed")
        return self.to_base(prod)

    def is_norm(self, lam):
        """Whether lam in k^x is a norm from L^x.  Sound, never a guess."""
        raise NotImplementedError

    def norm_witness(self, lam):
        """Some a in L^x with norm(a) = lam; requires is_norm(lam)."""
        raise NotImplementedError

    def descriptor(self):
        raise NotImplementedError

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.base == self.base
            and other.ext == self.ext
            and other.degree == self.degree
        )

    def __hash__(self):
        return hash((type(self).__name__, self.base, self.ext, self.degree))


def galois_apply(pair, x, power):
    """sigma^power applied to an extension-field element."""
    if not 0 <= power < pair.degree:
        raise ValueError(f"power must be in [0, {pair.degree})")
    pair.check_element(x)
    return pair.sigma(x, power)


class FinitePair(GaloisPair):
    def check_element(self, x):
        if not isinstance(x, int) or not 0 <= x < self.ext.size:
            raise SchemaError(f"{x!r} is not an element code of {self.ext!r}")

    def sigma(self, x, power=1):
        return self.ext.frobenius(x, power)

    def embed(self, x):
        return self.ext.embed_base(x)

    def to_base(self, x):
        return self.ext.to_base(x)

    def is_norm(self, lam):
        # The norm map F_{q^n}^x -> F_q^x is surjective.
        if lam % self.base.p == 0:
            raise ValueError("norm membership is asked of nonzero elements")
        return True

    def norm_witness(self, lam):
        if lam % self.base.p == 0:
            raise ValueError("nonzero element required")
        for a in self.ext.units():
            if self.norm(a) == lam % self.base.p:
                return a
        raise InvariantError(f"norm {lam} has no preimage; the norm map must be onto")

    def descriptor(self):
        return {
            "type": "finite",
            "p": self.base.p,
            "n": self.degree,
            "modulus": list(self.ext.modulus),
        }

    def __repr__(self):
        return f"F_{self.base.p}^{self.degree}/F_{self.base.p}"


class QuadraticPair(GaloisPair):
    @property
    def m(self):
        return self.ext.m

    def check_element(self, x):
        if not (isinstance(x, tuple) and len(x) == 2 and all(isinstance(c, Fraction) for c in x)):
            raise SchemaError(f"{x!r} is not an element of {self.ext!r}")

    def sigma(self, x, power=1):
        return self.ext.conj(x) if power % 2 else x

    def sigma_mat(self, mat, power=1):
        """On integer coordinates sigma negates the sqrt(m) part B."""
        return mat.conj() if power % 2 else mat

    def to_base_mat(self, mat):
        return mat.over(self.base)

    def embed(self, x):
        return self.ext.from_rational(x)

    def to_base(self, x):
        if x[1] != 0:
            raise ValueError(f"{x} is not rational")
        return x[0]

    def is_norm(self, lam):
        lam = Fraction(lam)
        if lam == 0:
            raise ValueError("norm membership is asked of nonzero elements")
        if self.m != -1:
            raise NotDecidableError(
                f"norm membership in Q(sqrt({self.m}))/Q is not decided here; "
                "only m = -1 is supported"
            )
        # Norms from Q(i) are the sums of two rational squares: positive
        # rationals whose primes p = 3 mod 4 all occur to even exponents.
        if lam < 0:
            return False
        _, exps = rational_factor_exponents(lam)
        return all(e % 2 == 0 for p, e in exps.items() if p % 4 == 3)

    def norm_witness(self, lam):
        lam = Fraction(lam)
        if not self.is_norm(lam):
            raise ValueError(f"{lam} is not a norm from Q(i)")
        # lam = nd/d^2, so a two-squares split of n*d gives x, y with
        # (x/d)^2 + (y/d)^2 = lam.
        n, d = lam.numerator, lam.denominator
        st = two_squares(n * d)
        if st is None:
            raise InvariantError(f"two_squares failed although {lam} is a norm")
        s, t = st
        return (Fraction(s, d), Fraction(t, d))

    def descriptor(self):
        return {"type": "quadratic", "m": self.m}

    def __repr__(self):
        return f"Q(sqrt({self.m}))/Q"
