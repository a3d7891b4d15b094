"""Numerical range geometry.

The numerical range W(T) of a matrix is the set of Rayleigh quotients
<Tx, x> over unit vectors; it is convex and compact.  Its support function
in direction e^{i theta} is the largest eigenvalue of
cos(theta) H + sin(theta) G where T = H + iG, and the numerical radius
w(T) is the maximum of the support function over all directions.

This module computes support values and boundary samples, the numerical
radius (grid scan plus Newton refinement) and the exact elliptical
range of 2x2 matrices.  Sector containment reads the support function at
the outward normals of the sector's two rays and at pi; the minimal
sector half-angle is arctan of the spectral radius of G under the
congruence that turns H into the identity on its range.  A brute-force
uniform-grid radius (`grid_radius`) is an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import MatrixShapeError, ParameterError
from .matcore import (as_square_matrix, binary_scale, cartesian_decompose,
                      eigenvalues_2x2, matrix_scale)

HALF_PI = math.pi / 2.0


def validate_sector_angle(alpha) -> float:
    """Check that alpha is a sector half-angle in [0, pi/2] (radians)."""
    a = float(alpha)
    if not math.isfinite(a) or a < -1e-12 or a > HALF_PI + 1e-12:
        raise ParameterError(
            f"sector half-angle must lie in [0, pi/2], got {alpha!r}")
    return min(max(a, 0.0), HALF_PI)


# Complex entries in one pencil buffer (1 MiB).  Support sweeps run in
# slices of at most this many, so their memory stays flat in the number of
# angles.
_PENCIL_ENTRIES = 2 ** 16

# Grid blocks valued in one `_support_values` call by `grid_radius`, so the
# union of their starts and ends stays under 8192 angles.
_GRID_BLOCKS = 4096


def _pencils(h: np.ndarray, g: np.ndarray, thetas: np.ndarray):
    """Yield (slice, cos(t) H + sin(t) G for the angles of that slice) over
    `thetas`, at most ``_PENCIL_ENTRIES`` entries at a time.  Every pencil
    is a view into one buffer that the next slice overwrites; the buffer
    holds the angle axis last, so each product runs along a contiguous row
    even when n is 2."""
    step = max(1, _PENCIL_ENTRIES // h.size)
    buf = np.empty(h.shape + (min(step, thetas.size),), dtype=np.complex128)
    tmp = np.empty_like(buf)
    for lo in range(0, thetas.size, step):
        th = thetas[lo:lo + step]
        p, q = buf[..., :th.size], tmp[..., :th.size]
        np.multiply(h[:, :, None], np.cos(th), out=p)
        np.multiply(g[:, :, None], np.sin(th), out=q)
        yield slice(lo, lo + th.size), np.add(p, q, out=p).transpose(2, 0, 1)


def _support_values(h: np.ndarray, g: np.ndarray, thetas) -> np.ndarray:
    """Largest eigenvalue of cos(t) H + sin(t) G for every angle in `thetas`
    (n >= 2)."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    out = np.empty(thetas.shape)
    for sl, p in _pencils(h, g, thetas):
        if h.shape[0] == 2:
            # Closed form for the top eigenvalue of a 2x2 Hermitian matrix.
            a, d = p[:, 0, 0].real, p[:, 1, 1].real
            out[sl] = (a + d) / 2.0 + np.hypot((a - d) / 2.0,
                                               np.abs(p[:, 0, 1]))
        else:
            out[sl] = np.linalg.eigvalsh(p)[:, -1]
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
    h, g = cartesian_decompose(t)
    out: list[BoundarySample] = []
    for sl, p in _pencils(h, g, thetas):
        w, v = np.linalg.eigh(p)
        top = v[..., -1]
        pts = np.einsum("ki,ij,kj->k", top.conj(), t, top)
        out.extend(BoundarySample(float(a), float(b), complex(z))
                   for a, b, z in zip(thetas[sl], w[:, -1], pts))
    return out


def _newton_max(h: np.ndarray, g: np.ndarray, x: np.ndarray, step: float,
                cut: float) -> float:
    """Largest support value met by safeguarded Newton ascent from the
    scan peaks `x` in brackets [x - step, x + step], all in one batch, with
    f' = v* P' v and f'' = -f + 2 sum_j |u_j* P' v|^2 / (f - l_j) for the
    eigenpairs (l_j, u_j) of P = cos(t) H + sin(t) G, the top one (f, v).
    Brackets shrink by the sign of f', which a step with f'' < 0 follows.
    A tie f - l_j <= `cut`, f'' >= 0 or a step over half the bracket
    bisects; a bracket stops once that step is <= RADIUS_THETA_TOL."""
    a, b, best = x - step, x + step, -math.inf
    while x.size:
        d1, d2 = np.empty(x.shape), np.full(x.shape, np.inf)
        for sl, p in _pencils(h, g, x):
            w, u = np.linalg.eigh(p)
            dv = (u[..., -1] @ g.T * np.cos(x[sl])[:, None]
                  - u[..., -1] @ h.T * np.sin(x[sl])[:, None])
            c = np.einsum("kji,kj->ki", u.conj(), dv)
            best = max(best, float(w[:, -1].max()))
            d1[sl] = c[:, -1].real
            gap = w[:, -1:] - w[:, :-1]
            ok = gap[:, -1] > cut
            mag = np.abs(c[ok, :-1])  # (|c| / gap) |c| cannot overflow
            d2[sl][ok] = 2.0 * ((mag / gap[ok]) * mag).sum(axis=1) - w[ok, -1]
        a, b = np.where(d1 >= 0.0, x, a), np.where(d1 >= 0.0, b, x)
        d = np.divide(-d1, d2, out=np.full(x.shape, np.inf), where=d2 < 0.0)
        x = np.where(2.0 * np.abs(d) <= b - a, x + d, (a + b) / 2.0)
        live = np.minimum(np.abs(d), (b - a) / 2.0) > tol.RADIUS_THETA_TOL
        x, a, b = x[live], a[live], b[live]
    return best


def numerical_radius(t) -> float:
    """Numerical radius w(T): the largest support value met by a 1024-point
    scan and by Newton ascent (`_newton_max`) from its eight highest peaks."""
    t = as_square_matrix(t)
    if t.shape[0] == 1:
        return float(abs(t[0, 0]))
    s = binary_scale(t)
    t = t / s  # exact; keeps the derivatives in `_newton_max` finite
    h, g = cartesian_decompose(t)
    m = tol.RADIUS_GRID_POINTS
    thetas = 2.0 * math.pi * np.arange(m) / m
    vals = _support_values(h, g, thetas)
    local = np.flatnonzero((vals >= np.roll(vals, 1))
                           & (vals >= np.roll(vals, -1)))
    order = np.lexsort((local, -vals[local]))
    pick = local[order][:tol.RADIUS_REFINE_BRACKETS]
    cut = t.shape[0] * np.finfo(float).eps * matrix_scale(t)
    refined = _newton_max(h, g, thetas[pick], 2.0 * math.pi / m, cut)
    return s * max(float(vals.max()), refined)


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
    are clamped to zero.  Both are evaluated on ``a / binary_scale(a)``.
    """
    a = as_square_matrix(a)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got {a.shape}")
    s = binary_scale(a)
    a = a / s
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
    return EllipseDescriptor(lam[0] * s, lam[1] * s, minor * s, major * s)


def ellipse_support_point(desc: EllipseDescriptor, theta: float) -> complex:
    """Point of the ellipse whose outward normal is e^{i theta}.

    Closed form; serves as an analytic cross-check for `boundary_points`
    on 2x2 matrices.  The axes are divided by ``binary_scale`` first, so
    their squares stay normal at any scale; the support norm is then at
    least a |cos(theta - psi)| > 0, even on a segment.
    """
    s = binary_scale(desc.semi_major)
    a = desc.semi_major / s
    b = desc.semi_minor / s
    if a == 0.0:
        return desc.center
    psi = desc.axis_phase
    delta = float(theta) - psi
    nx = math.cos(delta)
    ny = math.sin(delta)
    hnorm = math.hypot(a * nx, b * ny)
    local = complex(a * a * nx / hnorm, b * b * ny / hnorm) * s
    return desc.center + complex(math.cos(psi), math.sin(psi)) * local


def ellipse_radius(desc: EllipseDescriptor) -> float:
    """Maximum modulus over the elliptical disk: the numerical radius of
    [[focus1, minor_axis_length], [0, focus2]], whose range is this disk."""
    return numerical_radius([[desc.focus1, desc.minor_axis_length],
                             [0.0, desc.focus2]])


def sector_contains(t, alpha) -> bool:
    """Is W(T) inside the sector S(alpha) = {a+ib : |b| <= a tan(alpha)}?

    A convex set lies in S(alpha) exactly when its support function is
    nonpositive at the outward normals pi/2 + alpha and -pi/2 - alpha of
    the two boundary rays and at pi, which matters only at alpha = 0,
    where the rays coincide.  Support values up to ``PSD_RTOL * ||T||_F``
    count as nonpositive, because extremal matrices touch the sector
    boundary exactly.
    """
    t = as_square_matrix(t)
    alpha = validate_sector_angle(alpha)
    h, g = cartesian_decompose(t)
    normals = np.array([HALF_PI + alpha, -HALF_PI - alpha, math.pi])
    return bool(_support_values(h, g, normals).max()
                <= tol.PSD_RTOL * matrix_scale(t))


def min_sector_angle(t) -> float | None:
    """Smallest alpha with W(T) inside the sector of half-angle alpha.

    Returns None when no sector contains W(T), i.e. when lambda_min(H) <
    ``-PSD_RTOL * ||T||_F``.  Eigenvectors K of H with eigenvalues up to
    that cut span its kernel; when an entry of G K exceeds the cut, the
    slope <Gx, x> / <Hx, x> is unbounded over W(T) and the answer is pi/2.
    Otherwise the slopes are the Rayleigh quotients of R* G R, where
    R = V_+ / sqrt(w_+) holds the remaining eigenpairs of H, and the
    answer is arctan of its spectral radius (0 when H vanishes).
    """
    t = as_square_matrix(t)
    h, g = cartesian_decompose(t)
    cut = tol.PSD_RTOL * matrix_scale(t)
    w, v = np.linalg.eigh(h)
    if w[0] < -cut:
        return None
    if np.abs(g @ v[:, w <= cut]).max(initial=0.0) > cut:
        return HALF_PI
    r = v[:, w > cut] / np.sqrt(w[w > cut])
    slopes = np.linalg.eigvalsh(r.conj().T @ g @ r)
    return math.atan(float(np.max(np.abs(slopes), initial=0.0)))


# ---------------------------------------------------------------------------
# Brute-force grid oracle.

def grid_radius(t, points: int = 1_000_000) -> float:
    """Numerical radius by brute force: max support value on a uniform grid.

    Returns the largest of f(t_k) = lambda_max(cos(t_k) H + sin(t_k) G)
    over the ``points`` angles t_k = 2 pi k / points.  f is the support
    function of W(T), which is sublinear: for a <= s <= b with b - a < pi,
    e^{is} = alpha e^{ia} + beta e^{ib} with alpha, beta >= 0 and
    1 <= alpha + beta <= 1 / cos((b - a) / 2), so f(s) <= max(f(a), f(b)) /
    cos((b - a) / 2) when that maximum is positive, and f(s) <= max(f(a),
    f(b)) otherwise.  The grid is cut into at least 16 blocks of 16^j
    consecutive angles, each valued at both ends; a block whose bound
    plus a rounding slack of ``4 n eps ||T||_F`` stays at or below the best
    grid value so far cannot hold a larger one and is skipped, and every
    other block is split 16 ways, down to single angles.  No angle off the
    grid is evaluated, so the result does not depend on the refinement in
    `numerical_radius`.  When W(T) is a disk centred at 0 the support
    function is constant and every angle is evaluated.
    """
    t = as_square_matrix(t)
    points = int(points)
    if points < 8:
        raise ParameterError(f"grid needs at least 8 points, got {points}")
    n = t.shape[0]
    if n == 1:
        return float(abs(t[0, 0]))
    h, g = cartesian_decompose(t)
    slack = 4.0 * n * np.finfo(float).eps * matrix_scale(t)
    width = 1
    while width * 256 <= points:
        width *= 16
    blocks = [(width, np.arange(0, points, width))]
    best = -math.inf
    while blocks:
        # Depth first, at most _GRID_BLOCKS blocks at a time (the top level
        # has at most 256), so memory stays flat in `points`.
        width, starts = blocks.pop()
        ends = np.minimum(starts + width, points) % points
        idx = np.sort(np.concatenate([starts, ends]))
        idx = idx[np.diff(idx, prepend=-1) > 0]
        vals = _support_values(h, g, 2.0 * math.pi * idx / points)
        best = max(best, float(vals.max()))
        if width == 1:
            continue
        top = np.maximum(vals[np.searchsorted(idx, starts)],
                         vals[np.searchsorted(idx, ends)])
        cos_half = np.cos(math.pi / points * ((ends - starts) % points))
        top = np.where(top > 0.0, top / cos_half, top)
        keep = starts[top + slack > best]
        for lo in range(0, keep.size, _GRID_BLOCKS // 16):
            kids = (keep[lo:lo + _GRID_BLOCKS // 16, None]
                    + width // 16 * np.arange(16)).ravel()
            blocks.append((width // 16, kids[kids < points]))
    return best
