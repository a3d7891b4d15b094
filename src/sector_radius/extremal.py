"""Constructors for the extremal and canonical matrix families.

For a sector of half-angle alpha the optimal norm-to-radius ratio
sqrt(1 + sin(alpha)^2) is attained by an essentially unique 2x2 matrix;
this module builds that matrix, the two-parameter family it lives in, the
rotation-block form used by the certification pipeline, and the 3x3 and
n x n unitarily irreducible families attaining the ratio at alpha = pi/2,
and measures how far a matrix is from those two families' properties.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConstructionError, FeasibilityError, ParameterError
from .matcore import (as_square_matrix, cartesian_decompose,
                      commutant_dimension, operator_norm)
from .numrange import numerical_radius, validate_sector_angle

CHAIN_COUPLING_MAX = 1.0 / math.sqrt(45.0)


@dataclass(frozen=True)
class ExtremalParameters:
    """Scalar data of the ratio-extremal matrix for a sector half-angle.

    With s = sin(alpha)^2: c = s/sqrt(1+2s), sin(theta)^2 = (s+s^2)/(1+2s),
    cos(theta)^2 = (1+s-s^2)/(1+2s), and the unnormalized matrix has
    norm sqrt(1+2s).  These satisfy c^2 + sin(theta)^2 = s.
    """

    alpha: float
    s: float
    c: float
    theta: float
    norm: float


def extremal_params(alpha) -> ExtremalParameters:
    """Parameters of the ratio-extremal matrix; alpha must lie in (0, pi/2]."""
    alpha = validate_sector_angle(alpha)
    if alpha <= 0.0:
        raise ParameterError(
            "alpha must lie in (0, pi/2]: at alpha = 0 the ratio bound is 1 "
            "and no extremal family exists")
    s = math.sin(alpha) ** 2
    root = math.sqrt(1.0 + 2.0 * s)
    c = s / root
    sin_theta = math.sqrt((s + s * s) / (1.0 + 2.0 * s))
    cos_theta = math.sqrt((1.0 + s - s * s) / (1.0 + 2.0 * s))
    theta = math.atan2(sin_theta, cos_theta)
    return ExtremalParameters(alpha, s, c, theta, root)


def extremal_2x2(alpha) -> np.ndarray:
    """The unit-norm 2x2 matrix attaining norm/radius = sqrt(1+sin(alpha)^2).

    It is the r = 1 member of the family touching both sector rays
    (`r_alpha_matrix`) at the angle theta of `extremal_params`, which lies
    in [0, alpha] since sin(theta)^2 = (s+s^2)/(1+2s) <= s, divided by its
    norm.  Every matrix attaining the optimal ratio for the sector is a
    unitary conjugate of a positive multiple of this one.
    """
    p = extremal_params(alpha)
    return r_alpha_matrix(1.0, p.theta, p.alpha) / p.norm


class CanonicalBlock(NamedTuple):
    """Rotation-block form of the extremal matrix plus its norm data.

    ``matrix`` is unitarily similar to the unnormalized extremal matrix;
    ``vector`` is the unit vector with D B x = ||B|| x for D = diag(1, -1);
    ``norm`` equals sqrt(1 + 2 sin(alpha)^2).
    """

    matrix: np.ndarray
    vector: np.ndarray
    norm: float


def canonical_b(alpha) -> CanonicalBlock:
    """Real rotation-block form of the extremal matrix.

    B = [[cos(theta)+c, sin(alpha)], [-sin(alpha), cos(theta)-c]].  With
    D = diag(1, -1) the product DB is Hermitian with eigenvalues ||B|| and
    -1/||B||, and the returned vector spans the top eigenspace.
    """
    p = extremal_params(alpha)
    ct = math.cos(p.theta)
    sa = math.sin(p.alpha)
    mat = np.array([[ct + p.c, sa],
                    [-sa, ct - p.c]], dtype=np.complex128)
    x = np.array([sa, math.sqrt(1.0 + p.c * p.c) - ct], dtype=np.float64)
    x = x / np.linalg.norm(x)
    return CanonicalBlock(mat, x, p.norm)


def r_alpha_matrix(r, theta, alpha) -> np.ndarray:
    """Member of the two-parameter family touching both sector rays.

    Returns [[r e^{i theta}, 2c], [0, e^{-i theta}/r]] with
    c = sqrt(sin(alpha)^2 - sin(theta)^2); requires r >= 1 and
    0 <= theta <= alpha.  The determinant is 1 and the numerical range lies
    in the sector, touching both of its boundary rays.
    """
    alpha = validate_sector_angle(alpha)
    r = float(r)
    theta = float(theta)
    if not math.isfinite(r) or r < 1.0 - 1e-12:
        raise ParameterError(f"r must be >= 1, got {r}")
    r = max(r, 1.0)
    if not -1e-12 <= theta <= alpha + 1e-12:
        raise ParameterError(
            f"theta must lie in [0, alpha] = [0, {alpha}], got {theta}")
    theta = min(max(theta, 0.0), alpha)
    c_sq = math.sin(alpha) ** 2 - math.sin(theta) ** 2
    c = math.sqrt(max(c_sq, 0.0))
    phase = complex(math.cos(theta), math.sin(theta))
    return np.array([[r * phase, 2.0 * c],
                     [0.0, np.conj(phase) / r]], dtype=np.complex128)


@dataclass(frozen=True)
class ThreeByThreeParams:
    """Parameters (d, b1, b2) of the 3x3 family for the half-plane sector."""

    d: float
    b1: float
    b2: float

    def violation(self) -> str | None:
        """Name of the violated feasibility inequality, or None."""
        if not (math.isfinite(self.d) and math.isfinite(self.b1)
                and math.isfinite(self.b2)):
            return "parameters must be finite"
        if self.d < 0.0:
            return f"d >= 0 violated (d = {self.d})"
        # 1e-12 slack admits the boundary case b1 = 3 d^2 / 2.
        if self.b1 < 1.5 * self.d * self.d - 1e-12:
            return (f"b1 >= 3*d^2/2 violated "
                    f"(b1 = {self.b1}, 3*d^2/2 = {1.5 * self.d * self.d})")
        lhs = (18.0 * self.d * self.d
               + math.sqrt(2.0 * (12.0 * self.d * self.d + self.b1) ** 2
                           + 2.0 * self.b2 * self.b2))
        if lhs > 1.0:
            return ("18*d^2 + sqrt(2*(12*d^2+b1)^2 + 2*b2^2) <= 1 violated "
                    f"(left-hand side = {lhs})")
        return None

    def feasible(self) -> bool:
        return self.violation() is None


def three_by_three(d, b1, b2) -> np.ndarray:
    """Unit-norm 3x3 matrix with radius 1/sqrt(2) and PSD Hermitian part.

    Feasible parameters satisfy d >= 0, b1 >= 3d^2/2 and
    18 d^2 + sqrt(2 (12 d^2 + b1)^2 + 2 b2^2) <= 1; the constructor rejects
    anything else, naming the violated inequality.  For d > 0 the result is
    unitarily irreducible.
    """
    params = ThreeByThreeParams(float(d), float(b1), float(b2))
    violated = params.violation()
    if violated is not None:
        raise FeasibilityError(violated)
    rt3 = math.sqrt(3.0)
    return np.array([
        [2.0 / 3.0, 1.0 / rt3, params.d],
        [-1.0 / rt3, 0.0, rt3 * params.d],
        [params.d, -rt3 * params.d, params.b1 + 1j * params.b2],
    ], dtype=np.complex128)


def chain_matrix(n: int, d: float, epsilon: float) -> np.ndarray:
    """Raw n x n chain coupling: 3x3 head (b1 = 3d^2/2, b2 = 0) plus an
    epsilon bump at (3,3) and a geometric shift/diagonal tail.

    No postconditions are checked here; see `irreducible_family`.
    """
    t = np.zeros((n, n), dtype=np.complex128)
    t[:3, :3] = three_by_three(d, 1.5 * d * d, 0.0)
    t[2, 2] += epsilon
    for k in range(1, n - 2):
        t[k + 1, k + 2] = epsilon ** k
        t[k + 2, k + 2] = epsilon ** k
    return t


def chain_eigenvectors(n: int, epsilon: float) -> list[np.ndarray]:
    """Vectors x_k (k = 4..n, 1-indexed) with T* x_k = epsilon^(k-3) x_k.

    Together they span the tail coordinate subspace, which is what pins the
    invariant-subspace structure of the chain matrix.
    """
    vecs = []
    for k in range(4, n + 1):
        x = np.zeros(n, dtype=np.complex128)
        x[k - 1] = 1.0
        coef = 1.0
        for j in range(1, n - k + 1):
            coef *= epsilon ** j / (1.0 - epsilon ** j)
            x[k - 1 + j] = coef
        vecs.append(x)
    return vecs


def family_deviations(t, epsilon=None) -> dict[str, float]:
    """How far T is from the defining properties of the half-plane families.

    Maps each property to its deviation: |norm - 1|, |radius - 1/sqrt(2)|,
    the negative part of lambda_min of the Hermitian part and, given the
    chain's epsilon, the residual of T* x_k = epsilon^(k-3) x_k over
    ||x_k|| for every vector of `chain_eigenvectors`.  All are 0 when the
    property holds exactly.
    """
    t = as_square_matrix(t)
    h, _ = cartesian_decompose(t)
    out = {
        "norm != 1": abs(operator_norm(t) - 1.0),
        "numerical radius != 1/sqrt(2)":
            abs(numerical_radius(t) - 1.0 / math.sqrt(2.0)),
        "Hermitian part not PSD": max(0.0, -float(np.linalg.eigvalsh(h)[0])),
    }
    if epsilon is not None:
        n = t.shape[0]
        for k, x in zip(range(4, n + 1), chain_eigenvectors(n, epsilon)):
            resid = np.linalg.norm(t.conj().T @ x - epsilon ** (k - 3) * x)
            out[f"adjoint eigen-relation residual at k = {k}"] = (
                float(resid) / float(np.linalg.norm(x)))
    return out


def irreducible_family(n, d, epsilon=None) -> tuple[np.ndarray, float]:
    """Unitarily irreducible n x n matrix (n >= 4) with ratio sqrt(2).

    The head is the 3x3 family at the boundary b1 = 3d^2/2, b2 = 0, with
    requirement 0 < d < 1/sqrt(45); a geometric chain of strength epsilon
    couples in the remaining coordinates.  When ``epsilon`` is not given it
    is half the headroom of the 3x3 feasibility inequality, capped at 0.1.
    The construction's postconditions (the `family_deviations` within 1e-8,
    then a trivial commutant) are checked once, and a failure raises
    `ConstructionError`; no other epsilon is tried, since a smaller one
    only weakens the chain's coupling.

    Returns the matrix together with the epsilon used.
    """
    if not float(n).is_integer() or n < 4:
        raise ParameterError(f"n must be an integer of at least 4, got {n!r}")
    n, d = int(n), float(d)
    if not (0.0 < d < CHAIN_COUPLING_MAX):
        raise ParameterError(
            f"d must lie in (0, 1/sqrt(45)) = (0, {CHAIN_COUPLING_MAX:.7f}), "
            f"got {d}")
    if epsilon is None:
        # At b1 = 3d^2/2 the feasibility inequality reads
        # 18 d^2 + sqrt(2) (13.5 d^2 + eps) <= 1.
        headroom = (1.0 - 18.0 * d * d) / math.sqrt(2.0) - 13.5 * d * d
        eps = min(0.1, headroom / 2.0)
    else:
        eps = float(epsilon)
        if not (0.0 < eps < 1.0):
            raise ParameterError(f"epsilon must lie in (0, 1), got {eps}")
    t = chain_matrix(n, d, eps)
    failed = [f"{name} (deviation {dev:.3e})"
              for name, dev in family_deviations(t, eps).items() if dev > 1e-8]
    if not failed and commutant_dimension(t) != 1:
        failed = ["commutant dimension != 1 (unitarily reducible)"]
    if failed:
        raise ConstructionError(
            f"{failed[0]} at epsilon = {eps} (n = {n}, d = {d})")
    return t, eps
