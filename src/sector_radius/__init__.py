"""Numerical range and radius analysis for sectorial matrices.

Computes numerical ranges, radii and minimal containing sectors of complex
matrices, constructs the matrix families attaining the optimal
norm-to-radius ratio sqrt(1 + sin(alpha)^2) for a sector of half-angle
alpha, and certifies whether a given matrix attains it.
"""

from .errors import (
    ConstructionError,
    DegenerateError,
    FeasibilityError,
    MatrixShapeError,
    ParameterError,
    SectorRadiusError,
    UsageError,
)
from .matcore import (
    CartesianPair,
    SimilarityInvariants2x2,
    as_square_matrix,
    cartesian_decompose,
    commutant_dimension,
    invariants_close,
    operator_norm,
    similarity_invariants_2x2,
)
from .numrange import (
    BoundarySample,
    EllipseDescriptor,
    boundary_points,
    ellipse_2x2,
    ellipse_support_point,
    grid_radius,
    min_sector_angle,
    numerical_radius,
    sector_contains,
    support_value,
    validate_sector_angle,
)
from .extremal import (
    CanonicalBlock,
    ExtremalParameters,
    ThreeByThreeParams,
    canonical_b,
    chain_eigenvectors,
    chain_matrix,
    extremal_2x2,
    extremal_params,
    irreducible_family,
    r_alpha_matrix,
    three_by_three,
)
from .certify import (
    CertificationReport,
    RatioCheck,
    RecoveredForm,
    Verdict,
    canonical_family_test,
    certify_extremal,
    compression_2x2,
    ratio_check,
    tau,
)

__version__ = "0.1.0"

__all__ = [
    "BoundarySample",
    "CanonicalBlock",
    "CartesianPair",
    "CertificationReport",
    "ConstructionError",
    "DegenerateError",
    "EllipseDescriptor",
    "ExtremalParameters",
    "FeasibilityError",
    "MatrixShapeError",
    "ParameterError",
    "RatioCheck",
    "RecoveredForm",
    "SectorRadiusError",
    "SimilarityInvariants2x2",
    "ThreeByThreeParams",
    "UsageError",
    "Verdict",
    "as_square_matrix",
    "boundary_points",
    "canonical_b",
    "canonical_family_test",
    "cartesian_decompose",
    "certify_extremal",
    "chain_eigenvectors",
    "chain_matrix",
    "commutant_dimension",
    "compression_2x2",
    "ellipse_2x2",
    "ellipse_support_point",
    "extremal_2x2",
    "extremal_params",
    "grid_radius",
    "invariants_close",
    "irreducible_family",
    "min_sector_angle",
    "numerical_radius",
    "operator_norm",
    "r_alpha_matrix",
    "ratio_check",
    "sector_contains",
    "similarity_invariants_2x2",
    "support_value",
    "tau",
    "three_by_three",
    "validate_sector_angle",
]
