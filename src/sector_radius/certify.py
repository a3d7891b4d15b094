"""Verdicts: ratio-bound compliance and extremality certification.

For a matrix whose numerical range lies in the sector of half-angle alpha,
the norm never exceeds sqrt(1 + sin(alpha)^2) times the numerical radius.
`ratio_check` verifies the bound, `canonical_family_test` decides
membership in the two-parameter touching family, and `certify_extremal`
decides whether a matrix attains the optimal ratio, recovering the
block structure that extremal matrices must carry.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import DegenerateError, MatrixShapeError, ParameterError
from .matcore import (
    _invariants_2x2,
    as_square_matrix,
    center_offset_2x2,
    invariants_close,
    operator_norm,
    scaled_square_matrix,
    top_right_singular_vectors,
)
from .extremal import extremal_2x2, r_alpha_matrix
from .numrange import (
    HALF_PI,
    min_sector_angle,
    numerical_radius,
    sector_contains,
    support_value,
    validate_sector_angle,
)


def tau(alpha) -> float:
    """Optimal norm-to-radius ratio sqrt(1 + sin(alpha)^2) for the sector."""
    alpha = validate_sector_angle(alpha)
    return math.sqrt(1.0 + math.sin(alpha) ** 2)


class RatioCheck(NamedTuple):
    """Outcome of the norm-to-radius bound check."""

    alpha_min: float | None
    ratio: float
    bound: float
    ok: bool


def ratio_check(t) -> RatioCheck:
    """Check ||T||/w(T) against the sharp bound for the tightest sector.

    When no sector contains W(T) the generic bound ||T|| <= 2 w(T) applies
    and ``bound`` is 2.
    """
    # invariant under T -> cT: one frame of T / s, with s = 1, serves all
    frame = scaled_square_matrix(t)._replace(s=1.0)
    norm = operator_norm(frame)
    if norm == 0.0:
        raise DegenerateError("ratio of the zero matrix is undefined")
    alpha_min = min_sector_angle(frame)
    bound = 2.0 if alpha_min is None else tau(alpha_min)
    ratio = norm / numerical_radius(frame)
    return RatioCheck(alpha_min, ratio, bound,
                      ratio <= bound + tol.RATIO_BOUND_SLACK)


class RecoveredForm(NamedTuple):
    """Parameters (r, theta) of the triangular normal form of a family member."""

    r: float
    theta: float


def canonical_family_test(a, alpha) -> RecoveredForm | None:
    """Membership of A (or A*) in the touching family for the sector.

    Members have positive real determinant and, after determinant
    normalization, are unitarily similar to r_alpha_matrix(r, theta, alpha)
    = [[r e^{i theta}, 2c], [0, e^{-i theta}/r]] with r >= 1, theta in
    [0, alpha] and c = sqrt(sin(alpha)^2 - sin(theta)^2); their numerical
    range lies in the sector and touches both boundary rays.  One test
    serves every alpha, all within ``FAMILY_ATOL`` on the normalized
    matrix A0: (r, theta) come from its eigenvalue of larger modulus, its
    invariant triple (trace, determinant, tr(A0*A0)), which decides 2x2
    unitary similarity, must match that of the rebuilt member (of its
    adjoint when the eigenvalue lies below the real axis), and its
    support values at the outward normals of both rays must vanish.  Near
    theta = alpha = pi/2 the triple sees the off-diagonal entry only
    through its square; the support values see it linearly.

    Returns the recovered (r, theta), or None if A is not a member.
    """
    frame = scaled_square_matrix(a)
    if frame.t.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got {frame.t.shape}")
    alpha = validate_sector_angle(alpha)
    det = _invariants_2x2(frame.t).determinant
    if det.real <= 0.0:
        return None
    a0 = frame.t / math.sqrt(det.real)
    c, d = center_offset_2x2(a0)
    lam = max(c - d, c + d, key=abs)
    theta = min(abs(math.atan2(lam.imag, lam.real)), alpha)
    form = RecoveredForm(max(abs(lam), 1.0), theta)
    member = r_alpha_matrix(form.r, form.theta, alpha)
    if lam.imag < 0.0:
        member = member.conj().T
    rays = frame._replace(s=1.0 / math.sqrt(det.real))  # the frame of A0
    if not invariants_close(_invariants_2x2(a0), _invariants_2x2(member),
                            tol.FAMILY_ATOL) or any(
            abs(support_value(rays, phi).support_value) > tol.FAMILY_ATOL
            for phi in (HALF_PI + alpha, -HALF_PI - alpha)):
        return None
    return form


def compression_2x2(t, x) -> np.ndarray:
    """Compression of T onto the span of {x, Tx}.

    The span is orthonormalized in that order; entry (i, j) of the result
    is <T e_j', e_i'>.  The numerical range of the compression is contained
    in W(T).  Raises when Tx is parallel to x (the span has dimension 1).
    """
    t = as_square_matrix(t)
    x = np.asarray(x, dtype=np.complex128).reshape(-1)
    if x.shape[0] != t.shape[0]:
        raise MatrixShapeError(
            f"vector length {x.shape[0]} does not match matrix of "
            f"dimension {t.shape[0]}")
    if not np.isfinite(x).all():
        raise ParameterError("x must have finite entries")
    nx = float(np.linalg.norm(x))
    if abs(nx - 1.0) > 1e-8:
        raise ParameterError(f"x must be a unit vector, got norm {nx}")
    basis = _span_basis(t, x)
    return basis.conj().T @ t @ basis


def _span_basis(t: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Orthonormal basis (x, y) of span{x, Tx}; raises if Tx is along x."""
    y = t @ x
    y_perp = y - np.vdot(x, y) * x
    ny = float(np.linalg.norm(y_perp))
    if ny <= 1e-12 * float(np.linalg.norm(y)):
        raise DegenerateError(
            "Tx is parallel to x (x is an eigenvector); the span is "
            "one-dimensional")
    return np.column_stack([x, y_perp / ny])


class Verdict(str, Enum):
    EXTREMAL = "extremal"
    NOT_EXTREMAL = "not_extremal"
    NOT_IN_SECTOR = "not_in_sector"
    DEGENERATE = "degenerate"


@dataclass(frozen=True)
class CertificationReport:
    """Result of extremality certification.

    ``ratio`` is ||T||/w(T) and ``tau`` the sector's optimal ratio.  When
    the pipeline reaches the structural stage, ``attaining_vector`` is the
    norm-attaining unit vector used, ``compression`` the 2x2 compression
    onto span{x, Tx}, ``block_offdiag_norm`` the largest off-diagonal block
    norm in the induced splitting (absent at alpha = pi/2, where extremal
    matrices need not split), and ``tail_radius`` the numerical radius of
    the complementary block.
    """

    verdict: Verdict
    alpha: float
    ratio: float
    tau: float
    attaining_vector: np.ndarray | None = None
    compression: np.ndarray | None = None
    block_offdiag_norm: float | None = None
    tail_radius: float | None = None


def certify_extremal(t, alpha, tol_cert: float | None = None) -> CertificationReport:
    """Decide whether T attains the optimal ratio for the sector.

    Pipeline: (1) sector containment; (2) ratio against the optimal value;
    (3) norm-attaining unit vector from the top right-singular subspace
    (every basis vector is tried when the top singular value is
    degenerate); (4) the compression onto span{x, Tx} must carry the
    unitary-similarity invariants of the normalized rotation block;
    (5) for alpha < pi/2 the off-diagonal blocks of T/||T|| in the induced
    splitting must vanish; (6) the complementary block's numerical radius
    must not exceed 1/tau.  Step (5) is skipped at alpha = pi/2: the 3x3
    and chain families show extremal matrices there need carry no
    direct-sum structure.
    """
    # invariant under T -> cT: one frame of T / s, with s = 1, serves all
    frame = scaled_square_matrix(t)._replace(s=1.0)
    alpha = validate_sector_angle(alpha)
    if alpha <= 0.0:
        raise ParameterError("certification needs alpha in (0, pi/2]")
    tol_cert = tol.DEFAULT_CERTIFY_TOL if tol_cert is None else float(tol_cert)
    if not math.isfinite(tol_cert) or tol_cert <= 0.0:
        raise ParameterError(
            f"tolerance must be finite and positive, got {tol_cert}")
    norm, candidates = top_right_singular_vectors(frame)
    if norm == 0.0:
        raise DegenerateError("cannot certify the zero matrix")
    tau_a = tau(alpha)
    ratio = norm / numerical_radius(frame)
    if not sector_contains(frame, alpha):
        return CertificationReport(Verdict.NOT_IN_SECTOR, alpha, ratio, tau_a)
    if abs(ratio - tau_a) > tol_cert:
        return CertificationReport(Verdict.NOT_EXTREMAL, alpha, ratio, tau_a)
    reference = _invariants_2x2(extremal_2x2(alpha))
    t_norm = frame.t / norm
    for x in candidates:
        report = _certify_with_vector(t_norm, x, alpha, ratio, tau_a,
                                      tol_cert, reference)
        if report.verdict is Verdict.EXTREMAL:
            break
    return report


def _certify_with_vector(t_norm: np.ndarray, x: np.ndarray, alpha: float,
                         ratio: float, tau_a: float, tol_cert: float,
                         reference) -> CertificationReport:
    report = functools.partial(CertificationReport, alpha=alpha, ratio=ratio,
                               tau=tau_a, attaining_vector=x)
    try:
        basis = _span_basis(t_norm, x)
    except DegenerateError:
        return report(Verdict.DEGENERATE)
    compression = basis.conj().T @ t_norm @ basis
    report = functools.partial(report, compression=compression)
    if not invariants_close(_invariants_2x2(compression), reference,
                            tol_cert):
        return report(Verdict.NOT_EXTREMAL)
    if len(t_norm) == 2:
        # The compression is all of T/||T||: the invariant match already
        # decides extremality.
        return report(Verdict.EXTREMAL, block_offdiag_norm=0.0,
                      tail_radius=0.0)
    # Householder QR completes the orthonormal pair to a unitary frame.
    full = np.hstack([basis, np.linalg.qr(basis, mode="complete")[0][:, 2:]])
    blocks = full.conj().T @ t_norm @ full
    offdiag = max(float(np.linalg.norm(blocks[:2, 2:], 2)),
                  float(np.linalg.norm(blocks[2:, :2], 2)))
    tail = numerical_radius(blocks[2:, 2:])
    at_half_plane = alpha >= HALF_PI - 1e-12
    ok = tail <= 1.0 / tau_a + tol_cert and (at_half_plane
                                            or offdiag <= tol_cert)
    return report(Verdict.EXTREMAL if ok else Verdict.NOT_EXTREMAL,
                  block_offdiag_norm=None if at_half_plane else offdiag,
                  tail_radius=tail)
