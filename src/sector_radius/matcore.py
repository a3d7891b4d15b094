"""Dense complex linear algebra kernels.

Everything downstream works with plain ``numpy.ndarray`` matrices
(``complex128``, square).  This module provides validation, the one
power-of-two rescale that scale-invariant routines apply at entry
(`scaled_square_matrix`), the Cartesian (Hermitian/skew) decomposition,
operator norms and top singular vectors with deterministic phases, the
commutant dimension used for irreducibility tests, and the closed-form 2x2
eigenvalues and complete unitary-similarity invariants.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from . import tolerances as tol
from .errors import MatrixShapeError


def as_square_matrix(a, name: str = "matrix") -> np.ndarray:
    """Coerce ``a`` to a square complex128 array with finite entries."""
    arr = np.array(a, dtype=np.complex128, copy=True)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise MatrixShapeError(
            f"{name} must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise MatrixShapeError(f"{name} must have finite entries")
    return arr


def scaled_square_matrix(a) -> tuple[np.ndarray, float]:
    """``as_square_matrix(a)`` divided by its ``binary_scale``, and that scale.

    The division is exact (but for entries more than 2^1022 times smaller
    than the largest, which round to subnormals), so a routine whose answer
    is invariant under T -> cT reads it from the scaled matrix, and one
    that returns a magnitude multiplies it back by the scale.  The largest
    part |Re| or |Im| of an entry of the result lies in [1, 2), so products
    of its entries and its Frobenius norm, which every relative cut is
    taken against, neither under- nor overflow.
    """
    arr = as_square_matrix(a)
    s = binary_scale(arr)
    arr /= s
    return arr, s


def binary_scale(a: np.ndarray) -> float:
    """Power of two to divide ``a`` by before a closed form multiplies entries.

    The largest normal power of two not above the largest |Re| or |Im| of an
    entry (|1.7e308 (1 + i)| overflows), so the quotient's squares and
    products stay normal down to 2^-511 of the largest.  Dividing is exact.
    """
    parts = np.asarray(a, dtype=np.complex128).reshape(-1).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    return math.ldexp(1.0, max(e - 1, -1022))


class CartesianPair(NamedTuple):
    """Hermitian pair (H, G) with T = H + iG."""

    h: np.ndarray
    g: np.ndarray


def cartesian_decompose(t) -> CartesianPair:
    """Split T into its Hermitian part H = (T+T*)/2 and G = i(T*-T)/2.

    Both halve before they add, so entries near the overflow threshold
    stay finite.
    """
    t = as_square_matrix(t)
    th = t.conj().T
    h = t / 2.0 + th / 2.0
    g = 1j * (th / 2.0 - t / 2.0)
    return CartesianPair(h, g)


def _phase_normalize(v: np.ndarray) -> np.ndarray:
    """Rotate each column so its first non-negligible entry is real >= 0."""
    v = v.copy()
    for k in range(v.shape[1]):
        col = v[:, k]
        nz = np.flatnonzero(np.abs(col) > 1e-12)
        if nz.size:
            pivot = col[nz[0]]
            col *= np.conj(pivot) / abs(pivot)
    return v


def operator_norm(t) -> float:
    """Largest singular value of T."""
    t = as_square_matrix(t)
    return float(np.linalg.norm(t, 2))


def top_right_singular_vectors(t):
    """Largest singular value and the right singular vectors attaining it.

    Returns ``(sigma_max, vectors)`` where ``vectors`` spans the top
    singular subspace (all singular values within ``TOP_SINGULAR_RTOL *
    sigma_max`` of the largest).  Vectors are phase-normalized.
    """
    t = as_square_matrix(t)
    _, s, vh = np.linalg.svd(t)
    smax = float(s[0])
    if smax == 0.0:
        return 0.0, []
    count = int(np.sum(smax - s <= tol.TOP_SINGULAR_RTOL * smax))
    vecs = _phase_normalize(vh[:count].conj().T)
    return smax, [vecs[:, k] for k in range(count)]


def commutant_dimension(t) -> int:
    """Dimension of {X : XH = HX and XG = GX} for T = H + iG.

    The value is 1 exactly when T is unitarily irreducible.  Such an X
    commutes with A = H + cG (c irrational), so in an eigenbasis U of A it
    is block diagonal over the clusters of A's eigenvalues (neighbours
    within ``COMMUTANT_CLUSTER_RTOL * scale``) and constant on each
    connected set of simple eigenvalues, two eigenvalues being linked by
    their entry of U*HU or U*GU above ``COMMUTANT_RTOL * n * scale`` plus
    the rounding their eigenvectors carry (Davis-Kahan: backward error over
    the gap to the nearest other cluster).  Each such set adds 1; a set
    with a repeated cluster adds the nullity of its own commutation system,
    whose singular values up to ``COMMUTANT_RTOL * n * scale`` are zero.
    When U*HU and U*GU are scalar plus residues E_H, E_G on the set, that
    system's norm is at most 2 ||(E_H, E_G)||_F, so a set where this bound
    is within the cut adds m^2 without forming the O(m^4) system.
    """
    t, _ = scaled_square_matrix(t)  # keeps scale * scale below overflow
    n = t.shape[0]
    h, g = cartesian_decompose(t)
    scale = float(np.linalg.norm(t))
    w, u = np.linalg.eigh(h + 0.6180339887498949 * g)
    hu, gu = (u.conj().T @ x @ u for x in (h, g))
    cluster = np.cumsum(
        np.r_[0, np.diff(w) > tol.COMMUTANT_CLUSTER_RTOL * scale])
    same = cluster[:, None] == cluster[None, :]
    gap = np.where(same, np.inf, np.abs(w[:, None] - w[None, :]))
    err = n * np.finfo(float).eps * scale * scale
    cut = tol.COMMUTANT_RTOL * n * scale
    leak = err / gap.min(axis=1)
    adj = same | (np.maximum(np.abs(hu), np.abs(gu))
                  > cut + leak[:, None] + leak[None, :])
    label = np.arange(n)  # lowest index reached: one label per component
    while True:
        prev, label = label, np.where(adj, label, n).min(axis=1)
        if (label == prev).all():
            break
    dim = 0
    for root in np.flatnonzero(label == np.arange(n)):
        comp = label == root
        if np.bincount(cluster)[cluster[comp]].max() == 1:
            dim += 1
            continue
        m = int(comp.sum())
        eye = np.eye(m)
        blocks = [x[np.ix_(comp, comp)] for x in (hu, gu)]
        if 2.0 * np.linalg.norm([b - np.trace(b) / m * eye
                                 for b in blocks]) <= cut:
            dim += m * m  # scalar blocks: the system below is all rounding
            continue
        stacked = np.vstack([np.kron(eye, b) - np.kron(b.T, eye)
                             for b in blocks])
        sv = np.linalg.svd(stacked, compute_uv=False)
        dim += m * m - int(np.sum(sv > cut))
    return dim


def center_offset_2x2(a: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues c -+ d of a 2x2 matrix as (c, d): c = tr(a) / 2 and
    d = sqrt(((a00 - a11) / 2)^2 + a01 a10), on ``a / binary_scale(a)``."""
    s = binary_scale(a)
    (a00, a01), (a10, a11) = (a / s).tolist()
    e = complex(a00 - a11) / 2.0
    return complex(a00 + a11) / 2.0 * s, cmath.sqrt(e * e + a01 * a10) * s


def eigenvalues_2x2(a: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues (c - d, c + d) of a 2x2 matrix (`center_offset_2x2`)."""
    c, d = center_offset_2x2(a)
    return c - d, c + d


class SimilarityInvariants2x2(NamedTuple):
    """Complete unitary-similarity invariants of a 2x2 matrix."""

    trace: complex
    determinant: complex
    frobenius_sq: float


def similarity_invariants_2x2(a) -> SimilarityInvariants2x2:
    """(tr A, det A, tr(A*A)) for a 2x2 matrix.

    Two 2x2 matrices are unitarily similar exactly when all three agree,
    so the triple decides unitary similarity.
    """
    a = as_square_matrix(a)
    if a.shape != (2, 2):
        raise MatrixShapeError(f"expected a 2x2 matrix, got {a.shape}")
    trace = complex(a[0, 0] + a[1, 1])
    det = complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    fro = float(np.sum(np.abs(a) ** 2))
    return SimilarityInvariants2x2(trace, det, fro)


def invariants_close(x: SimilarityInvariants2x2, y: SimilarityInvariants2x2,
                     atol: float) -> bool:
    return (abs(x.trace - y.trace) <= atol
            and abs(x.determinant - y.determinant) <= atol
            and abs(x.frobenius_sq - y.frobenius_sq) <= atol)

