"""Numerical range geometry.

The numerical range W(T) of a matrix is the set of Rayleigh quotients
<Tx, x> over unit vectors; it is convex and compact.  Its support function
in direction e^{i theta} is the largest eigenvalue of
cos(theta) H + sin(theta) G where T = H + iG, and the numerical radius
w(T) is the maximum of the support function over all directions.

This module computes support values and boundary samples, the numerical
radius (grid scan plus golden-section refinement), the exact elliptical
range of 2x2 matrices, sector containment tests, and the minimal sector
half-angle containing W(T).  A brute-force uniform-grid radius
(`grid_radius`) is provided as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import MatrixShapeError, ParameterError
from .matcore import (as_square_matrix, cartesian_decompose, eigenvalues_2x2,
                      matrix_scale)

HALF_PI = math.pi / 2.0
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


def validate_sector_angle(alpha) -> float:
    """Check that alpha is a sector half-angle in [0, pi/2] (radians)."""
    a = float(alpha)
    if not math.isfinite(a) or a < -1e-12 or a > HALF_PI + 1e-12:
        raise ParameterError(
            f"sector half-angle must lie in [0, pi/2], got {alpha!r}")
    return min(max(a, 0.0), HALF_PI)


def _support_values(h: np.ndarray, g: np.ndarray, thetas) -> np.ndarray:
    """Largest eigenvalue of cos(t) H + sin(t) G for every angle in `thetas`."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    n = h.shape[0]
    ct = np.cos(thetas)
    st = np.sin(thetas)
    if n == 1:
        return ct * h[0, 0].real + st * g[0, 0].real
    if n == 2:
        # Closed form for the top eigenvalue of a 2x2 Hermitian matrix.
        a = ct * h[0, 0].real + st * g[0, 0].real
        d = ct * h[1, 1].real + st * g[1, 1].real
        off = ct * h[0, 1] + st * g[0, 1]
        return (a + d) / 2.0 + np.hypot((a - d) / 2.0, np.abs(off))
    out = np.empty(thetas.shape)
    chunk = max(1, 4_000_000 // (n * n))
    for lo in range(0, thetas.size, chunk):
        sl = slice(lo, min(lo + chunk, thetas.size))
        mats = ct[sl, None, None] * h + st[sl, None, None] * g
        out[sl] = np.linalg.eigvalsh(mats)[..., -1]
    return out


class BoundarySample(NamedTuple):
    """One supporting-line contact: angle, support value, boundary point."""

    theta: float
    support_value: float
    boundary_point: complex


def support_value(t, theta) -> BoundarySample:
    """Support function of W(T) in direction e^{i theta}.

    Returns the value lambda_max(cos(theta) H + sin(theta) G) together with
    the Rayleigh point <Tv, v> of the maximizing unit eigenvector v, which
    lies on the boundary of W(T).
    """
    t = as_square_matrix(t)
    return _boundary_samples(t, np.array([float(theta)]))[0]


def _boundary_samples(t: np.ndarray, thetas) -> list[BoundarySample]:
    """Support value and Rayleigh boundary point at every angle in `thetas`."""
    n = t.shape[0]
    h, g = cartesian_decompose(t)
    ct = np.cos(thetas)
    st = np.sin(thetas)
    out: list[BoundarySample] = []
    chunk = max(1, 2_000_000 // (n * n))
    for lo in range(0, thetas.size, chunk):
        sl = slice(lo, min(lo + chunk, thetas.size))
        mats = ct[sl, None, None] * h + st[sl, None, None] * g
        w, v = np.linalg.eigh(mats)
        top = v[..., -1]
        pts = np.einsum("ki,ij,kj->k", top.conj(), t, top)
        for i in range(w.shape[0]):
            out.append(BoundarySample(float(thetas[sl][i]),
                                      float(w[i, -1]), complex(pts[i])))
    return out


def _golden_max(h: np.ndarray, g: np.ndarray, lo: np.ndarray, hi: np.ndarray,
                width_tol: float, max_iter: int = 200) -> float:
    """Golden-section maximum of the support function over several brackets.

    Returns the best value encountered.  Each bracket must contain a local
    maximum.
    """
    a = np.asarray(lo, dtype=np.float64).copy()
    b = np.asarray(hi, dtype=np.float64).copy()
    best = -math.inf
    for _ in range(max_iter):
        span = b - a
        if float(span.max()) <= width_tol:
            break
        c = b - _INVPHI * span
        d = a + _INVPHI * span
        fc = _support_values(h, g, c)
        fd = _support_values(h, g, d)
        best = max(best, float(fc.max()), float(fd.max()))
        keep_left = fc >= fd
        b = np.where(keep_left, d, b)
        a = np.where(keep_left, a, c)
    return best


def numerical_radius(t) -> float:
    """Numerical radius w(T): maximum of the support function over angles.

    A 1024-point scan locates candidate maxima; the top brackets are then
    refined by golden section until the bracket width drops below
    ``RADIUS_THETA_TOL``.
    """
    t = as_square_matrix(t)
    if t.shape[0] == 1:
        return float(abs(t[0, 0]))
    h, g = cartesian_decompose(t)
    m = tol.RADIUS_GRID_POINTS
    thetas = 2.0 * math.pi * np.arange(m) / m
    vals = _support_values(h, g, thetas)
    best = float(vals.max())
    local = np.flatnonzero((vals >= np.roll(vals, 1))
                           & (vals >= np.roll(vals, -1)))
    if local.size == 0:
        local = np.array([int(vals.argmax())])
    order = np.lexsort((local, -vals[local]))
    pick = local[order][:tol.RADIUS_REFINE_BRACKETS]
    step = 2.0 * math.pi / m
    refined = _golden_max(h, g, thetas[pick] - step, thetas[pick] + step,
                          tol.RADIUS_THETA_TOL)
    return max(best, refined)


def boundary_points(t, m) -> list[BoundarySample]:
    """Boundary samples of W(T) at m equally spaced support directions.

    The polygon through the returned points is inscribed in W(T).
    """
    t = as_square_matrix(t)
    m = int(m)
    if m < 3:
        raise ParameterError(f"need at least 3 boundary samples, got {m}")
    return _boundary_samples(t, 2.0 * math.pi * np.arange(m) / m)


@dataclass(frozen=True)
class EllipseDescriptor:
    """Elliptical disk: foci plus axis lengths.

    ``major_axis_length**2 = |focus1 - focus2|**2 + minor_axis_length**2``.
    A zero minor axis means the disk degenerates to the segment joining
    the foci.
    """

    focus1: complex
    focus2: complex
    minor_axis_length: float
    major_axis_length: float

    @property
    def center(self) -> complex:
        return (self.focus1 + self.focus2) / 2.0

    @property
    def semi_major(self) -> float:
        return self.major_axis_length / 2.0

    @property
    def semi_minor(self) -> float:
        return self.minor_axis_length / 2.0

    @property
    def axis_phase(self) -> float:
        """Direction of the major axis (0 when the foci coincide)."""
        diff = self.focus2 - self.focus1
        if abs(diff) == 0.0:
            return 0.0
        return math.atan2(diff.imag, diff.real)


def ellipse_2x2(a) -> EllipseDescriptor:
    """Numerical range of a 2x2 matrix: an elliptical disk.

    The foci are the eigenvalues and the minor axis has length
    sqrt(tr(AA*) - |l1|^2 - |l2|^2); tiny negative radicands from rounding
    are clamped to zero.
    """
    a = as_square_matrix(a)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got {a.shape}")
    lam = sorted(eigenvalues_2x2(a), key=lambda z: (z.real, z.imag))
    fro2 = float(np.sum(np.abs(a) ** 2))
    radicand = fro2 - abs(lam[0]) ** 2 - abs(lam[1]) ** 2
    if radicand < 0.0:
        if radicand < -1e-12 * fro2:
            raise MatrixShapeError(
                "inconsistent 2x2 invariants (non-real minor axis)")
        radicand = 0.0
    minor = math.sqrt(radicand)
    major = math.hypot(abs(lam[1] - lam[0]), minor)
    return EllipseDescriptor(lam[0], lam[1], minor, major)


def ellipse_support_point(desc: EllipseDescriptor, theta: float) -> complex:
    """Point of the ellipse whose outward normal is e^{i theta}.

    Closed form; serves as an analytic cross-check for `boundary_points`
    on 2x2 matrices.
    """
    a = desc.semi_major
    b = desc.semi_minor
    if a == 0.0:
        return desc.center
    psi = desc.axis_phase
    delta = float(theta) - psi
    nx = math.cos(delta)
    ny = math.sin(delta)
    hnorm = math.hypot(a * nx, b * ny)
    if hnorm < 1e-300:
        # Degenerate segment supported along its own direction: the whole
        # segment maximizes, the midpoint is a valid representative.
        return desc.center
    local = complex(a * a * nx / hnorm, b * b * ny / hnorm)
    return desc.center + complex(math.cos(psi), math.sin(psi)) * local


def ellipse_radius(desc: EllipseDescriptor) -> float:
    """Maximum modulus over the elliptical disk: the numerical radius of
    [[focus1, minor_axis_length], [0, focus2]], whose range is this disk."""
    return numerical_radius([[desc.focus1, desc.minor_axis_length],
                             [0.0, desc.focus2]])


def sector_contains(t, alpha) -> bool:
    """Is W(T) inside the sector {a+ib : |b| <= a tan(alpha)}?

    Equivalent to both sin(alpha) H + cos(alpha) G and
    sin(alpha) H - cos(alpha) G being positive semidefinite; for
    alpha = pi/2 this reduces to H being positive semidefinite.
    Eigenvalues above ``-PSD_RTOL * ||T||_F`` count as nonnegative, because
    extremal matrices touch the sector boundary exactly.
    """
    t = as_square_matrix(t)
    alpha = validate_sector_angle(alpha)
    h, g = cartesian_decompose(t)
    cut = -tol.PSD_RTOL * matrix_scale(t)
    if alpha == 0.0 and float(np.linalg.eigvalsh(h)[0]) < cut:
        # the degenerate sector is the nonnegative real axis; the +-G
        # conditions below only force G = 0 there
        return False
    sa = math.sin(alpha)
    ca = math.cos(alpha)
    for sign in (1.0, -1.0):
        m = sa * h + sign * ca * g
        if float(np.linalg.eigvalsh(m)[0]) < cut:
            return False
    return True


def min_sector_angle(t) -> float | None:
    """Smallest alpha with W(T) inside the sector of half-angle alpha.

    Returns None when no sector of the right half-plane contains W(T)
    (i.e. the Hermitian part is not positive semidefinite).  For positive
    definite H the answer is arctan of the spectral radius of
    H^{-1/2} G H^{-1/2}; a singular positive semidefinite H forces pi/2
    as soon as G acts nontrivially on ker H, and otherwise the kernel
    splits off and the complement is examined recursively.
    """
    t = as_square_matrix(t)
    scale = matrix_scale(t)
    if scale == 0.0:
        return 0.0
    return _min_sector_angle(t, scale)


def _min_sector_angle(t: np.ndarray, scale: float) -> float | None:
    h, g = cartesian_decompose(t)
    w, v = np.linalg.eigh(h)
    cut = tol.PSD_RTOL * scale
    if w[0] < -cut:
        return None
    kernel = w <= cut
    if not kernel.any():
        return math.atan(float(np.max(np.abs(_slopes(g, w, v)))))
    if kernel.all():
        return 0.0 if float(np.linalg.norm(g, 2)) <= cut else HALF_PI
    k = v[:, kernel]
    q = v[:, ~kernel]
    gk = g @ k
    if (float(np.linalg.norm(k.conj().T @ gk, 2)) > cut
            or float(np.linalg.norm(q.conj().T @ gk, 2)) > cut):
        return HALF_PI
    return _min_sector_angle(q.conj().T @ t @ q, scale)


def _slopes(g: np.ndarray, w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of H^{-1/2} G H^{-1/2}, given eigh(H) = (w, v)
    with w > 0: the extremes are the least and greatest slope b/a on W(T)."""
    inv_root = (v / np.sqrt(w)) @ v.conj().T
    prod = inv_root @ g @ inv_root
    return np.linalg.eigvalsh((prod + prod.conj().T) / 2.0)


# ---------------------------------------------------------------------------
# Brute-force grid oracle.

def grid_radius(t, points: int = 1_000_000) -> float:
    """Numerical radius by brute force: max support value on a uniform grid.

    Evaluates lambda_max(cos(t_k) H + sin(t_k) G) at ``points`` equally
    spaced angles and returns the maximum.  For 3 <= n <= 7 the grid values
    are computed through the characteristic polynomial, whose coefficients
    are trigonometric polynomials in the angle, with a monotone Newton
    iteration from above for the largest root; this is exact per grid point
    and independent of the refinement strategy in `numerical_radius`.
    """
    t = as_square_matrix(t)
    points = int(points)
    if points < 8:
        raise ParameterError(f"grid needs at least 8 points, got {points}")
    n = t.shape[0]
    if n == 1:
        return float(abs(t[0, 0]))
    h, g = cartesian_decompose(t)
    if 3 <= n <= 7:
        return _grid_radius_charpoly(h, g, points)
    best = -math.inf
    chunk = 262_144
    for lo in range(0, points, chunk):
        idx = np.arange(lo, min(lo + chunk, points))
        vals = _support_values(h, g, 2.0 * math.pi * idx / points)
        best = max(best, float(vals.max()))
    return best


def _charpoly_trig_coefficients(h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Fourier coefficients of the characteristic polynomial coefficients.

    Coefficient k of det(x I - cos(t) H - sin(t) G) is a trigonometric
    polynomial of degree k <= n in t, so sampling at 16 > 2n+1 angles and
    taking a DFT recovers it exactly (n <= 7).
    """
    n = h.shape[0]
    samples = 16
    phis = 2.0 * math.pi * np.arange(samples) / samples
    mats = (np.cos(phis)[:, None, None] * h
            + np.sin(phis)[:, None, None] * g)
    eigs = np.linalg.eigvalsh(mats)
    coeffs = np.empty((samples, n + 1))
    for j in range(samples):
        coeffs[j] = np.real(np.poly(eigs[j]))
    return np.fft.fft(coeffs, axis=0) / samples


def _eval_trig_coefficients(cm: np.ndarray, ct: np.ndarray,
                            st: np.ndarray) -> np.ndarray:
    """Evaluate every characteristic coefficient on a batch of angles."""
    n = cm.shape[1] - 1
    out = np.empty((n + 1, ct.size))
    out[0] = 1.0
    for k in range(1, n + 1):
        out[k] = cm[0, k].real
    cos_m = ct
    sin_m = st
    for m in range(1, n + 1):
        if m > 1:
            cos_m, sin_m = cos_m * ct - sin_m * st, sin_m * ct + cos_m * st
        for k in range(m, n + 1):
            c = cm[m, k]
            out[k] += 2.0 * (c.real * cos_m - c.imag * sin_m)
    return out


def _newton_largest_roots(co: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Largest real root of each monic real-rooted polynomial.

    ``co`` holds, per column, the monic coefficients [1, a1, ..., an];
    ``start`` must upper-bound the largest root, from where Newton descends
    monotonically.
    """
    n = co.shape[0] - 1
    x = np.asarray(start, dtype=np.float64).copy()
    active = np.arange(x.size)
    coef = co[1:]
    coef_act = coef
    for _ in range(150):
        xa = x[active]
        p = np.ones_like(xa)
        dp = np.zeros_like(xa)
        for k in range(n):
            dp = dp * xa + p
            p = p * xa + coef_act[k]
        dp = np.maximum(dp, 1e-300)
        step = np.clip(p / dp, 0.0, None)
        xa -= step
        x[active] = xa
        keep = step > 1e-13 * np.maximum(1.0, np.abs(xa))
        if not keep.any():
            break
        if keep.mean() < 0.7:
            active = active[keep]
            coef_act = coef[:, active]
    return x


def _grid_radius_charpoly(h: np.ndarray, g: np.ndarray, points: int) -> float:
    cm = _charpoly_trig_coefficients(h, g)
    ncoarse = 4096
    phic = 2.0 * math.pi * np.arange(ncoarse) / ncoarse
    envelope = _support_values(h, g, phic)
    lip = float(np.linalg.norm(h, 2) + np.linalg.norm(g, 2))
    coarse_step = 2.0 * math.pi / ncoarse
    best = -math.inf
    chunk = 262_144
    for lo in range(0, points, chunk):
        idx = np.arange(lo, min(lo + chunk, points))
        th = 2.0 * math.pi * idx / points
        co = _eval_trig_coefficients(cm, np.cos(th), np.sin(th))
        j = np.rint(th / coarse_step).astype(np.int64) % ncoarse
        dist = np.abs(th - phic[j])
        dist = np.minimum(dist, 2.0 * math.pi - dist)
        start = envelope[j] + lip * dist + 1e-9
        roots = _newton_largest_roots(co, start)
        best = max(best, float(roots.max()))
    return best
