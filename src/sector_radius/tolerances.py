"""Named numerical tolerances shared across the library.

The named tolerances live here so they can be audited and, where
meaningful, overridden.  Local guards (1e-12 slacks on parameter ranges,
unit-vector and direction checks, rounding slacks and clamps, the
acceptance criteria's bounds) stay beside their code.  The environment
variable ``SECTOR_RADIUS_TOL`` changes the default certification
tolerance; an explicit ``tol`` argument (or ``--tol``) wins over it.
"""

import math
import os

from .errors import UsageError

# Hermitian check (relative to the matrix scale).
HERMITIAN_RTOL = 1e-12

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

# Numerical radius: scan size, Newton brackets, step at which a bracket stops.
RADIUS_GRID_POINTS = 1024
RADIUS_REFINE_BRACKETS = 8
RADIUS_THETA_TOL = 1e-12

# Norm-to-radius ratio bound check slack.
RATIO_BOUND_SLACK = 1e-8

# Canonical two-parameter family membership test.
FAMILY_ATOL = 1e-8

# Certification default tolerance.
DEFAULT_CERTIFY_TOL = 1e-7
TOL_ENV_VAR = "SECTOR_RADIUS_TOL"


def default_certify_tol() -> float:
    """Certification tolerance from the environment, or the built-in default."""
    raw = os.environ.get(TOL_ENV_VAR)
    if raw is None:
        return DEFAULT_CERTIFY_TOL
    try:
        value = float(raw)
    except ValueError as exc:
        raise UsageError(
            f"{TOL_ENV_VAR} must be a positive real, got {raw!r}") from exc
    if not math.isfinite(value) or value <= 0:
        raise UsageError(
            f"{TOL_ENV_VAR} must be finite and positive, got {value}")
    return value
