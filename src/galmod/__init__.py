"""Exact Krull-Schmidt decomposition of H^0(X, L) under a cyclic p-group
action in characteristic p, from combinatorial ramification data, with an
independent Artin-Schreier brute-force oracle."""

from .cyclic_rep import (
    Decomposition,
    GroupSpec,
    K0Vector,
    cartan_inverse,
    cartan_matrix,
    digits,
    from_simple_basis,
    is_relatively_projective,
    restrict_step,
)
from .cover_tower import (
    CoverTower,
    InvariantDivisor,
    LevelDivisor,
    RamifiedOrbit,
    divisor_degree,
    kani_pushforward,
    level_zero_divisor,
    orbit_point_count,
    pushforward_alpha,
    validate_strict,
)
from .decomposition import (
    DecompositionReport,
    decompose_closed_form,
    decompose_pullback,
    decompose_recursive,
    euler_characteristic,
    graded_piece_divisor,
    level_degrees,
    noether_check,
    ramification_subgroup_exponent,
)
from .as_oracle import ASCurve, jordan_type, riemann_roch_basis, sigma_matrix, to_tower
from .errors import (
    DegreeTooSmall,
    GalmodError,
    NegativeGenus,
    NonIntegralGenus,
    ParseError,
    ValidationError,
)

__version__ = "0.1.0"
