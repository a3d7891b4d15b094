"""Dense complex linear algebra kernels.

Everything downstream works with plain ``numpy.ndarray`` matrices
(``complex128``, square).  This module provides validation, the Cartesian
(Hermitian/skew) decomposition, Hermitian eigensystems with deterministic
eigenvector phases, operator norms, the commutant dimension used for
irreducibility tests, and the complete unitary-similarity invariants for
2x2 matrices.
"""

from __future__ import annotations

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


def matrix_scale(t: np.ndarray) -> float:
    """Scale used for relative tolerances: the Frobenius norm, taken of
    ``t / binary_scale(t)`` so that it neither under- nor overflows."""
    s = binary_scale(t)
    return s * float(np.linalg.norm(t / s))


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


class HermitianSpectrum(NamedTuple):
    """Ascending eigenvalues and the matching orthonormal eigenvectors."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


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


def hermitian_spectrum(m) -> HermitianSpectrum:
    """Eigendecomposition of a Hermitian matrix.

    The input must be Hermitian within ``HERMITIAN_RTOL`` relative to its
    scale.  Eigenvalues come back ascending; each eigenvector has its first
    nonzero component phase-normalized to be real nonnegative, which makes
    the output reproducible across runs.
    """
    m = as_square_matrix(m)
    scale = matrix_scale(m)
    if np.linalg.norm(m - m.conj().T) > tol.HERMITIAN_RTOL * scale:
        raise MatrixShapeError("matrix is not Hermitian within tolerance")
    sym = (m + m.conj().T) / 2.0
    w, v = np.linalg.eigh(sym)
    return HermitianSpectrum(w, _phase_normalize(v))


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
    """
    t = as_square_matrix(t)
    t = t / binary_scale(t)  # exact; keeps scale * scale below overflow
    n = t.shape[0]
    h, g = cartesian_decompose(t)
    scale = matrix_scale(t)
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
        stacked = np.vstack([np.kron(eye, x[np.ix_(comp, comp)])
                             - np.kron(x[np.ix_(comp, comp)].T, eye)
                             for x in (hu, gu)])
        sv = np.linalg.svd(stacked, compute_uv=False)
        dim += m * m - int(np.sum(sv > cut))
    return dim


def binary_scale(a: np.ndarray) -> float:
    """Power of two to divide ``a`` by before a closed form multiplies entries.

    1 while the largest entry modulus lies in [2^-500, 2^500], where
    squares and products of entries stay normal and finite; otherwise the
    largest normal power of two not above it.  Dividing by it is exact.
    """
    e = math.frexp(float(np.abs(a).max()))[1]
    return 1.0 if abs(e) <= 500 else math.ldexp(1.0, max(e - 1, -1022))


def eigenvalues_2x2(a: np.ndarray) -> tuple[complex, complex]:
    """Eigenvalues (tr/2 - disc, tr/2 + disc) of a 2x2 matrix, closed form,
    evaluated on ``a / binary_scale(a)``."""
    s = binary_scale(a)
    a = a / s
    half = (a[0, 0] + a[1, 1]) / 2.0
    disc = np.sqrt(complex(half * half - (a[0, 0] * a[1, 1]
                                          - a[0, 1] * a[1, 0])))
    return complex(half - disc) * s, complex(half + disc) * s


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

