"""Named numerical tolerances shared across the library.

The named tolerances live here so they can be audited in one place.  Local
guards (1e-12 slacks on parameter ranges, unit-vector and direction
checks, rounding slacks and clamps, the acceptance criteria's bounds) stay
beside their code.  The cuts relative to a matrix's scale (``PSD_RTOL``,
the commutant's) are relative to its Frobenius norm, taken after
`matcore.scaled_square_matrix` so that it neither under- nor overflows.
"""

# Positive-semidefiniteness: lambda_min >= -PSD_RTOL * ||T||_F.  Extremal
# matrices touch the cone boundary exactly, so a strict zero test would flap.
PSD_RTOL = 1e-10

# Commutant dimension: eigenvalue cluster width and zero cut (times n),
# both relative to the matrix scale.
COMMUTANT_CLUSTER_RTOL = 1e-7
COMMUTANT_RTOL = 1e-13

# Top singular subspace: singular values within this fraction of the
# largest count as attaining the norm.
TOP_SINGULAR_RTOL = 1e-10

# Numerical radius: scan size and the step at which a Newton bracket stops.
# The scan size must be even: the scan solves the pencils at half of its
# angles and reads the support function half a turn away from each.
RADIUS_GRID_POINTS = 1024
RADIUS_THETA_TOL = 1e-12

# Norm-to-radius ratio bound check slack.
RATIO_BOUND_SLACK = 1e-8

# Canonical two-parameter family membership test.
FAMILY_ATOL = 1e-8

# Certification default tolerance (`certify_extremal` without `tol_cert`).
DEFAULT_CERTIFY_TOL = 1e-7
