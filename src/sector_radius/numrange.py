"""Numerical range geometry.

The numerical range W(T) of a matrix is the set of Rayleigh quotients
<Tx, x> over unit vectors; it is convex and compact.  Its support function
in direction e^{i theta} is the largest eigenvalue of
cos(theta) H + sin(theta) G where T = H + iG, and the numerical radius
w(T) is the maximum of the support function over all directions.

This module computes support values and boundary samples, the exact
elliptical range of 2x2 matrices, and the numerical radius: the largest
|z| on that ellipse at n = 2, else a grid scan (one eigensolve per theta
and theta + pi, where the Bendixson rectangle lets the point of largest
modulus lie) plus Newton refinement of the peaks it cannot rule out.
Sector containment reads the support function at the outward normals of
the sector's two rays and at pi; the minimal sector half-angle is arctan
of the spectral radius of G under the congruence that turns H into the
identity on its range.  A brute-force uniform-grid radius (`grid_radius`)
is an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import MatrixShapeError, ParameterError
from .matcore import (binary_scale, cartesian_decompose, center_offset_2x2,
                      scaled_square_matrix)

HALF_PI = math.pi / 2.0


def validate_sector_angle(alpha) -> float:
    """Check that alpha is a sector half-angle in [0, pi/2] (radians)."""
    a = float(alpha)
    if not math.isfinite(a) or a < -1e-12 or a > HALF_PI + 1e-12:
        raise ParameterError(
            f"sector half-angle must lie in [0, pi/2], got {alpha!r}")
    return 0.0 if a <= 0.0 else min(a, HALF_PI)  # -0.0 too reads 0.0


# Complex entries in one pencil buffer (256 KiB).  Support sweeps run in
# slices of at most this many, so their memory stays flat in the number of
# angles; the buffer and its scratch twin (512 KiB) fit a typical L2 cache.
# 2^13 was slower at n = 20 and splits the 512-pencil scan from n = 5 on.
_PENCIL_ENTRIES = 2 ** 14

# Child blocks made in one `_support_values` call by `grid_radius`, which
# values at most 15/16 of their starts: the others are their parents'.
_GRID_BLOCKS = 4096

# Rows cos t and sin t at the radius scan's half-turn angles 2 pi k / m.
_HALF_TURN = np.exp(2j * math.pi / tol.RADIUS_GRID_POINTS * np.arange(
    tol.RADIUS_GRID_POINTS // 2))[:, None].view(float).T.copy()


def _pencils(h: np.ndarray, g: np.ndarray, thetas: np.ndarray):
    """Yield (slice, cos(t) H + sin(t) G for the angles of that slice) over
    `thetas`, at most ``_PENCIL_ENTRIES`` entries at a time, as views into
    the first slice's two products, which each later slice overwrites.  The
    angle axis is last, so each product runs along a contiguous row."""
    step = max(1, _PENCIL_ENTRIES // h.size)
    h, g, p, q = h[:, :, None], g[:, :, None], None, None
    for lo in range(0, thetas.size, step):
        th = thetas[lo:lo + step]
        p, q = (p, q) if p is None else (p[..., :th.size], q[..., :th.size])
        p = np.multiply(h, np.cos(th), out=p)
        q = np.multiply(g, np.sin(th), out=q)
        yield slice(lo, lo + th.size), np.add(p, q, out=p).transpose(2, 0, 1)


def _support_values(h: np.ndarray, g: np.ndarray, thetas) -> np.ndarray:
    """Largest and smallest eigenvalue of cos(t) H + sin(t) G for every
    angle in `thetas` (n >= 2), as rows 0 and 1: the support function at t
    and minus the support function at t + pi."""
    thetas = np.atleast_1d(np.asarray(thetas, dtype=np.float64))
    out = np.empty((2,) + thetas.shape)
    for sl, p in _pencils(h, g, thetas):
        if h.shape[0] == 2:
            # Closed form for the eigenvalues of a 2x2 Hermitian matrix.
            a, d = p[:, 0, 0].real, p[:, 1, 1].real
            r = np.hypot((a - d) / 2.0, np.abs(p[:, 0, 1]))
            out[0, sl], out[1, sl] = (a + d) / 2.0 + r, (a + d) / 2.0 - r
        else:
            w = np.linalg.eigvalsh(p)
            out[0, sl], out[1, sl] = w[:, -1], w[:, 0]
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
    lies on the boundary of W(T).  A non-finite theta raises ParameterError.
    """
    t, s = scaled_square_matrix(t)
    theta = float(theta)
    if not math.isfinite(theta):
        raise ParameterError(f"support direction must be finite, got {theta}")
    return _boundary_samples(t, s, np.array([theta]))[0]


def _boundary_samples(t: np.ndarray, s: float,
                      thetas) -> list[BoundarySample]:
    """Support value and Rayleigh boundary point of s T at every angle in
    `thetas`, both evaluated on T and multiplied by s."""
    h, g = cartesian_decompose(t)
    out: list[BoundarySample] = []
    for sl, p in _pencils(h, g, thetas):
        w, v = np.linalg.eigh(p)
        pts = np.einsum("ki,ij,kj->k", v[..., -1].conj(), t, v[..., -1])
        out.extend(BoundarySample(float(a), s * float(b),
                                  complex(s * z.real, s * z.imag))
                   for a, b, z in zip(thetas[sl], w[:, -1], pts.tolist()))
    return out


def _newton_max(h: np.ndarray, g: np.ndarray, vals: np.ndarray,
                k: np.ndarray, cut: float) -> float:
    """Largest support value met by safeguarded Newton ascent from the
    peaks k of the scan `vals` (step h = 2 pi / vals.size) in brackets
    [h (k - 1), h (k + 1)], each started at the vertex of the parabola
    through f_{k-1}, f_k and f_{k+1} (at h k if a neighbour is -inf, off
    the scan's window).  f' = v* P' v and f'' = -f + 2 sum_j |u_j* P' v|^2
    / (f - l_j) over the eigenpairs (l_j, u_j) of P = cos(t) H + sin(t) G
    outside the top cluster f - l_j <= `cut` of the top one (f, v).
    Brackets shrink by the sign of f', which a step with f'' < 0 follows;
    f'' >= 0 or a step over half the bracket bisects (f'' + f >= 0 as a
    measure: a kink is a convex corner, never a maximum).  A bracket stops
    once that step is <= RADIUS_THETA_TOL, |f'| <= `cut` (the noise peaks of
    a flat f, in one sweep) or its rise f'^2 / -f'' <= 2 eps |f|.  A sweep:
    one batched `eigh`, a dozen array operations, the rule on floats."""
    step = 2.0 * math.pi / vals.size
    rise = vals[k] - vals[k + np.array([[-1], [1 - vals.size]])]  # >= 0
    rise[:, np.isinf(rise).any(axis=0)] = 0.0  # off the window: no inf - inf
    (r0, r1), x, best = rise, step * k, -math.inf
    vertex = np.divide(r0 - r1, 2 * (r0 + r1), out=0 * x, where=r0 + r1 > 0)
    th = x + step * vertex  # the first sweep's angles
    brackets = list(zip(th.tolist(), (x - step).tolist(), (x + step).tolist()))
    while brackets:
        cs, sn, f, f1, f2 = np.cos(th), np.sin(th), [], [], []  # f, f', f''
        for sl, p in _pencils(h, g, th):
            w, u = np.linalg.eigh(p)
            c = np.einsum("kji,kj->ki", u.conj(), u[..., -1] @ g.T
                          * cs[sl, None] - u[..., -1] @ h.T * sn[sl, None])
            gap, mag = w[:, -1:] - w[:, :-1], np.abs(c[:, :-1])
            r = np.divide(mag, gap, out=np.zeros(gap.shape), where=gap > cut)
            f += w[:, -1].tolist()  # c_j = u_j* P' v; f'' sums (|c| / gap)
            f1 += c[:, -1].real.tolist()  # |c|, which cannot overflow
            f2 += (2.0 * (r * mag).sum(axis=1) - w[:, -1]).tolist()
        best, live = max(best, *f), []
        for (x, a, b), fx, d1, d2 in zip(brackets, f, f1, f2):
            if abs(d1) <= cut:  # a flat f's noise peaks end here, at once
                continue
            a, b = (x, b) if d1 >= 0.0 else (a, x)
            d = -d1 / d2 if d2 < 0.0 else math.inf
            if (min(abs(d), (b - a) / 2.0) > tol.RADIUS_THETA_TOL
                    and d1 * d1 > 2 * math.ulp(1.0) * abs(fx) * max(-d2, 0)):
                live.append((x + d if 2 * abs(d) <= b - a else (a + b) / 2,
                             a, b))
        brackets, th = live, np.array([x for x, _, _ in live])
    return best


def _scan(h: np.ndarray, g: np.ndarray, m: int, k: np.ndarray) -> np.ndarray:
    """Support values at the angles 2 pi k / m and 2 pi k / m + pi (k < m / 2,
    m even), -inf elsewhere: P(t + pi) = -P(t), so f(t + pi) = -l_min(P(t))."""
    vals = np.full(m, -np.inf)
    top, bottom = _support_values(h, g, 2.0 * math.pi * k / m)
    vals[k], vals[k + m // 2] = top, 0.0 - bottom  # -bottom gives -0.0 at 0
    return vals


def _scan_peaks(vals: np.ndarray, k: np.ndarray, cut: float) -> np.ndarray:
    """Ascending local maxima j of `_scan`'s solved entries k, k + m / 2 with
    f_j / cos(pi / m) + cut > max f; neighbours wrap mod m = vals.size."""
    j = np.concatenate((k, k + vals.size // 2))
    f = vals[j]
    return j[(f >= vals[j - 1]) & (f >= vals[j + 1 - vals.size])
             & (f / math.cos(math.pi / vals.size) + cut > f.max())]


def numerical_radius(t) -> float:
    """Numerical radius w(T), the largest support value of W(T).  n = 2:
    max |p + a cos(f) + i (q + b sin(f))| over the ellipse of `_ellipse_axes`
    turned by u, a = hypot(|d|, b), p = |Re cu|, q = |Im cu| (a reflection),
    at f = 0, pi/2 and the roots of the quartic in tan(f / 2) b q cos(f) -
    a p sin(f) = |d|^2 sin(f) cos(f).  n >= 3: the best value of a 1024-angle
    scan (`_scan`) and of Newton ascent (`_newton_max`, one batched `eigh` a
    sweep) from each peak f_k of the solved entries (`_scan_peaks`) whose
    sublinear bound f_k / cos(pi / 1024) (see `grid_radius`) plus cut = n
    eps ||T||_F beats the scan.  L <= w, the largest support value of the
    Bendixson rectangle spec(H) x spec(G) less cut, puts L e^{i arg z} (|z| =
    w = f(arg z)) in that rectangle grown to hold 0; the scan solves only the
    pencils whose t or t + pi puts L e^{it} in it when grown by cut + 2.5
    steps times its farthest corner's modulus: all within 2 steps of arg z."""
    t, s = scaled_square_matrix(t)  # keeps `_newton_max`'s f'' finite
    if t.shape[0] == 1:
        return s * float(abs(t[0, 0]))
    if t.shape[0] == 2:
        c, d, u, b = _ellipse_axes(t)
        k, a, dd = c * u, math.hypot(abs(d), b), abs(d) ** 2
        p, q = abs(k.real), abs(k.imag)
        x = np.roots([-b * q, 2.0 * (dd - a * p), 0.0, -2.0 * (a * p + dd),
                      b * q]).real.clip(0.0, 1.0).tolist() + [0.0, 1.0]
        return s * max(math.hypot(p * (1 + r * r) + a * (1 - r * r),
                                  q * (1 + r * r) + 2.0 * b * r) / (1 + r * r)
                       for r in x)
    h, g = cartesian_decompose(t)
    m = tol.RADIUS_GRID_POINTS
    cut = t.shape[0] * np.finfo(float).eps * float(np.linalg.norm(t))
    side = np.maximum(_support_values(h, g, [0.0, HALF_PI]) * [[1], [-1]], 0)
    grow = math.hypot(*side.max(axis=0)) * 5.0 * math.pi / m + cut
    (xh, yh), (xn, yn) = side + grow  # f at 0, pi/2; pi, 3 pi/2; and >= 0
    x, y = (side.max() - cut) * _HALF_TURN  # L e^{it}: y >= -cut >= -yn
    k = np.flatnonzero((-xn <= x) & (x <= xh) & (y <= yh)
                       | (-xh <= x) & (x <= xn) & (y <= yn))
    vals = _scan(h, g, m, k)
    return s * max(float(vals.max()),
                   _newton_max(h, g, vals, _scan_peaks(vals, k, cut), cut))


def boundary_points(t, m) -> list[BoundarySample]:
    """Boundary samples of W(T) at m equally spaced support directions.

    The polygon through the returned points is inscribed in W(T).
    """
    t, s = scaled_square_matrix(t)
    if not float(m).is_integer() or m < 3:
        raise ParameterError(f"need an integral count of at least 3 boundary "
                             f"samples, got {m!r}")
    return _boundary_samples(t, s, 2.0 * math.pi * np.arange(int(m)) / m)


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
        return math.atan2(diff.imag, diff.real) if diff else 0.0


def _ellipse_axes(t: np.ndarray) -> tuple[complex, complex, complex, float]:
    """(c, d, u, b) for W(T) of a scaled 2x2 T: foci c -+ d, u = conj(d) / |d|
    (1 at d = 0) and semi-minor axis b, the support value of u (T - cI) at
    pi/2: a hypot of the entries of the Hermitian part of -i u (T - cI)."""
    c, d = center_offset_2x2(t)
    u = d.conjugate() / abs(d) if d else 1.0
    (t00, t01), (t10, t11) = t.tolist()
    return c, d, u, math.hypot((u * (t00 - t11)).imag / 2.0,
                               abs(u * t01 - (u * t10).conjugate()) / 2.0)


def ellipse_2x2(a) -> EllipseDescriptor:
    """Numerical range of a 2x2 matrix: an elliptical disk.

    The foci are the eigenvalues c -+ d and the minor axis is 2b, both from
    `_ellipse_axes` on the scaled matrix, so no cancelling invariant such
    as tr(AA*) - |l1|^2 - |l2|^2 enters.
    """
    a, s = scaled_square_matrix(a)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got {a.shape}")
    c, d, _, b = _ellipse_axes(a)
    f = sorted((s * (c - d), s * (c + d)), key=lambda z: (z.real, z.imag))
    return EllipseDescriptor(*f, 2 * b * s, 2 * math.hypot(abs(d), b) * s)


def ellipse_support_point(desc: EllipseDescriptor, theta: float) -> complex:
    """Point of the ellipse whose outward normal is e^{i theta}.

    Closed form; serves as an analytic cross-check for `boundary_points`
    on 2x2 matrices.  The axes are divided by ``binary_scale`` first, so
    their squares stay normal at any scale; the support norm is then at
    least a |cos(theta - psi)| > 0, even on a segment.  A non-finite theta
    raises ParameterError.
    """
    theta = float(theta)
    if not math.isfinite(theta):
        raise ParameterError(f"support direction must be finite, got {theta}")
    s = binary_scale(desc.semi_major)
    a, b = desc.semi_major / s, desc.semi_minor / s
    if a == 0.0:
        return desc.center
    psi = desc.axis_phase
    nx, ny = math.cos(theta - psi), math.sin(theta - psi)
    hnorm = math.hypot(a * nx, b * ny)
    local = complex(a * a * nx / hnorm, b * b * ny / hnorm) * s
    return desc.center + complex(math.cos(psi), math.sin(psi)) * local


def sector_contains(t, alpha) -> bool:
    """Is W(T) inside the sector S(alpha) = {a+ib : |b| <= a tan(alpha)}?

    A convex set lies in S(alpha) exactly when its support function is
    nonpositive at the outward normals pi/2 + alpha and -pi/2 - alpha of
    the two boundary rays and at pi, which matters only at alpha = 0,
    where the rays coincide.  Support values up to ``PSD_RTOL * ||T||_F``
    count as nonpositive, because extremal matrices touch the sector
    boundary exactly.
    """
    t, _ = scaled_square_matrix(t)
    alpha = validate_sector_angle(alpha)
    h, g = cartesian_decompose(t)
    top = _support_values(h, g, [HALF_PI + alpha, -HALF_PI - alpha, math.pi])
    return bool(top[0].max() <= tol.PSD_RTOL * float(np.linalg.norm(t)))


def min_sector_angle(t) -> float | None:
    """Smallest alpha with W(T) inside the sector of half-angle alpha.

    Returns None when no sector contains W(T), i.e. when lambda_min(H) <
    ``-PSD_RTOL * ||T||_F``.  Eigenvectors K of H with eigenvalues up to
    4 n eps ||T||_F, the rounding level of `eigh`, span its kernel (near
    pi/2, lambda_min(H) ~ (pi/2 - alpha)^2 ||T||_F); when an entry of G K
    exceeds PSD_RTOL ||T||_F, <Gx, x> / <Hx, x> is unbounded over W(T) and
    the answer is pi/2.  Otherwise the slopes are the Rayleigh quotients of
    R* G R, R = V_+ / sqrt(w_+) holding the other eigenpairs of H, and the
    answer is arctan of its spectral radius (0 when H vanishes).
    """
    t, _ = scaled_square_matrix(t)
    h, g = cartesian_decompose(t)
    fro = float(np.linalg.norm(t))
    w, v = np.linalg.eigh(h)
    if w[0] < -tol.PSD_RTOL * fro:
        return None
    kernel = w <= 4.0 * t.shape[0] * np.finfo(float).eps * fro
    if np.abs(g @ v[:, kernel]).max(initial=0.0) > tol.PSD_RTOL * fro:
        return HALF_PI
    r = v[:, ~kernel] / np.sqrt(w[~kernel])
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
    f(b)) otherwise.  The top blocks are the longest runs of 16^j angles
    that still make at least 16 blocks (16 of 65,536 at 10^6 points, the
    last one shorter), each valued at both ends.  A block whose bound plus
    a rounding slack of ``4 n eps ||T||_F`` stays at or below the best
    value so far is skipped; any other is split 16 ways, its children
    inheriting its end values, so only the 15 inner child starts are new.
    No angle is valued twice: about 160 on a Gaussian input, all
    ``points`` when W(T) is a disk centred at 0 (a Jordan block).  No
    angle off the grid is evaluated, so the result does not depend on the
    refinement in `numerical_radius`.
    """
    t, s = scaled_square_matrix(t)
    if not float(points).is_integer() or not 8 <= points <= 2 ** 53:
        raise ParameterError(f"grid needs an integral count of at least 8 "
                             f"points and at most 2**53, got {points!r}")
    points, n = int(points), t.shape[0]
    if n == 1:
        return s * float(abs(t[0, 0]))
    h, g = cartesian_decompose(t)
    slack = 4.0 * n * np.finfo(float).eps * float(np.linalg.norm(t))
    width = 1
    while 15 * 16 * width < points:
        width *= 16
    starts = np.arange(0, points, width)
    vals = _support_values(h, g, 2.0 * math.pi * starts / points)[0]
    best = float(vals.max())
    blocks = [(width, starts, vals, np.roll(vals, -1))]
    while blocks:
        # Depth first, splitting at most _GRID_BLOCKS // 16 blocks a sweep,
        # so memory stays flat in `points`.
        width, starts, f0, f1 = blocks.pop()
        size = np.minimum(starts + width, points) - starts
        top = np.maximum(f0, f1)
        top = np.where(top > 0.0, top / np.cos(math.pi / points * size), top)
        keep = (top + slack > best) & (size > 1)
        starts, size, f0, f1 = starts[keep], size[keep], f0[keep], f1[keep]
        offset = width // 16 * np.arange(16)
        for lo in range(0, starts.size, _GRID_BLOCKS // 16):
            sl = slice(lo, lo + _GRID_BLOCKS // 16)
            inside, kids = offset < size[sl, None], starts[sl, None] + offset
            new = kids[:, 1:][inside[:, 1:]]
            vals = _support_values(h, g, 2.0 * math.pi * new / points)[0]
            best = float(vals.max(initial=best))
            if width > 16:  # child k spans the values in columns k, k + 1
                f = np.empty((kids.shape[0], 17))
                f[:, 0], f[:, 1:16][inside[:, 1:]] = f0[sl], vals
                f[np.arange(f.shape[0]), inside.sum(axis=1)] = f1[sl]
                blocks.append((width // 16, kids[inside], f[:, :16][inside],
                               f[:, 1:][inside]))
    return s * best
