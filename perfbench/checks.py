"""Independent output checks, written without the package under test.

The numerical radius is checked by the level-set characterisation of
Mengi & Overton (IMA J. Numer. Anal. 2005): gamma is a value of some
eigenvalue of (e^{i t} T* + e^{-i t} T)/2 at an angle t exactly when the
quadratic pencil z^2 T* - 2 gamma z I + T has the unimodular eigenvalue
z = e^{i t}.  A correct radius w therefore has no unimodular eigenvalue at
gamma = w (1 + 1e-8) and has one at gamma = w (1 - 1e-8).
"""

from __future__ import annotations

import math

import numpy as np

LEVEL_GAP = 1e-8
# On random matrices with n <= 100 the eigenvalues nearest the unit circle
# sit >= 1e-4 away above the radius and <= 1e-10 away below it.
UNIMODULAR_TOL = 1e-7


def _circle_distance(t: np.ndarray, gamma: float) -> float:
    """Smallest ||z| - 1| over finite eigenvalues of z^2 T* - 2 gamma z I + T."""
    # imported here, after the timed loop, so that peak RSS is the package's
    import scipy.linalg

    n = t.shape[0]
    eye = np.eye(n)
    zero = np.zeros((n, n))
    a = np.block([[zero, eye], [-t, 2.0 * gamma * eye]])
    b = np.block([[eye, zero], [zero, t.conj().T]])
    z = scipy.linalg.eig(a, b, right=False)
    z = z[np.isfinite(z)]
    return float(np.min(np.abs(np.abs(z) - 1.0))) if z.size else math.inf


def radius_error(t: np.ndarray, w: float) -> str | None:
    """None when w is the numerical radius of t to within 1e-8 relative."""
    if not (math.isfinite(w) and w > 0.0):
        return f"radius {w!r} is not a positive number"
    if _circle_distance(t, w * (1.0 + LEVEL_GAP)) <= UNIMODULAR_TOL:
        return f"radius {w!r} too low: W(T) reaches past w(1+{LEVEL_GAP})"
    if _circle_distance(t, w * (1.0 - LEVEL_GAP)) > UNIMODULAR_TOL:
        return f"radius {w!r} too high: W(T) never reaches w(1-{LEVEL_GAP})"
    return None


def norm2(t: np.ndarray) -> float:
    return float(np.linalg.svd(t, compute_uv=False)[0])


def hermitian_min(t: np.ndarray) -> float:
    """Smallest eigenvalue of the Hermitian part of t."""
    return float(np.linalg.eigvalsh((t + t.conj().T) / 2.0)[0])
