"""Exact-arithmetic stability, Galois descent, and Brauer types of quiver
representations over finite fields, Q, quadratic fields, and rational
quaternion algebras."""

from .brauer import BrauerClass, brauer_class
from .config import DEFAULT_CONFIG, JobConfig
from .descent import (
    DescentDatum,
    hilbert90_descend,
    solve_modifying_u,
    twist,
    type_map,
)
from .errors import (
    BudgetExceededError,
    InconclusiveError,
    InvariantError,
    NotDecidableError,
    NotGeometricallyStableError,
    NotInvertibleError,
    SchemaError,
)
from .ffields import GF, ExtensionField, PrimeField
from .galois import GaloisPair, galois_apply
from .homs import end_dim, hom_space, is_isomorphic
from .linalg import Mat
from .morita import (
    TwistedRep,
    division_form,
    drep_is_geom_stable,
    drep_to_twisted,
    morita_split,
    morita_unsplit,
    twisted_dim,
    twisted_to_drep,
    validate_twisted,
)
from .numtheory import hilbert_symbol, two_squares
from .census import (
    census_polynomiality,
    count_geom_stable_orbits,
    decompose_rational_point,
    index_divisibility_audit,
    verify_descent_census,
)
from .quaternions import QuaternionAlgebra, hamilton_quaternions, quat_is_division
from .quiver import (
    Quiver,
    Representation,
    a2_quiver,
    base_change,
    jordan_quiver,
    kronecker_quiver,
    slope,
)
from .rings import QQ, QuadraticField, gaussian_rationals
from .stability import (
    HNFiltration,
    StabilityVerdict,
    SubrepWitness,
    enumerate_subreps,
    geom_stability,
    geom_stability_certificate,
    hn_filtration,
    is_geometrically_stable,
    scss,
    stability_verdict,
)

__version__ = "0.1.0"
