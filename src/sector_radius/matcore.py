"""Dense complex linear algebra kernels.

Everything downstream works with plain ``numpy.ndarray`` matrices
(``complex128``, square).  This module provides validation, the one entry
of the scale-invariant routines (`scaled_square_matrix`: validate, rescale
by a power of two and split), the Cartesian (Hermitian/skew) decomposition,
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


def as_square_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a square complex128 array with finite entries."""
    try:
        arr = np.array(a, dtype=np.complex128, copy=True)
    except (TypeError, ValueError) as exc:  # ragged rows, text entries
        raise MatrixShapeError(f"not a matrix of numbers: {exc}") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 1:
        raise MatrixShapeError(
            f"matrix must be a square matrix, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise MatrixShapeError("matrix must have finite entries")
    return arr


class Frame(NamedTuple):
    """A validated matrix as the numerical routines read it: T, the scale
    s it was divided by, its Cartesian parts T = H + iG and ``||T||_F``."""

    t: np.ndarray
    s: float
    h: np.ndarray
    g: np.ndarray
    fro: float


def scaled_square_matrix(a) -> Frame:
    """The one entry of a matrix into the numerical routines: the `Frame`
    of T = ``as_square_matrix(a)`` divided by its ``binary_scale`` s, or
    ``a`` itself when it is a frame.  A caller that needs T only up to
    scale hands its frame, with s = 1, to the public routines it calls.

    The division is exact (but for entries more than 2^1022 times smaller
    than the largest, which round to subnormals), so a routine whose answer
    is invariant under T -> cT reads it from the scaled matrix, and one
    that returns a magnitude multiplies it back by the scale.  The largest
    |Re| or |Im| of an entry of T lies in [1, 2), so products of entries
    and ||T||_F (numpy's two dots), which every relative cut is taken
    against, neither under- nor overflow.  Only this entry and
    `operator_norm` read a frame; the helpers take it as given."""
    if isinstance(a, Frame):
        return a
    arr = as_square_matrix(a)
    arr /= (s := binary_scale(arr))
    v = arr.reshape(-1)
    return Frame(arr, s, *_cartesian(arr),
                 math.sqrt(v.real.dot(v.real) + v.imag.dot(v.imag)))


def binary_scale(a: np.ndarray) -> float:
    """Power of two to divide ``a`` by before a closed form multiplies entries.

    The largest normal power of two not above the largest |Re| or |Im| of an
    entry (|1.7e308 (1 + i)| overflows), so the quotient's squares and
    products stay normal down to 2^-511 of the largest.  Dividing is exact.
    """
    parts = np.ascontiguousarray(a, dtype=np.complex128).view(np.float64)
    e = math.frexp(float(np.abs(parts).max()))[1]
    return math.ldexp(1.0, max(e - 1, -1022))


class CartesianPair(NamedTuple):
    """Hermitian pair (H, G) with T = H + iG."""

    h: np.ndarray
    g: np.ndarray


def cartesian_decompose(t) -> CartesianPair:
    """Split T into its Hermitian part H = (T+T*)/2 and G = i(T*-T)/2.
    Both halve before they add, so entries near overflow stay finite."""
    return _cartesian(as_square_matrix(t))


def _cartesian(t: np.ndarray) -> CartesianPair:
    """`cartesian_decompose` of a matrix already validated."""
    adj = (half := t / 2.0).conj().T
    return CartesianPair(half + adj, 1j * (adj - half))


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
    """Largest singular value of T (a frame's T / s, times s)."""
    # a plain matrix skips the unread scale and split: criterion 7's 10,000
    # plain 2x2 norms take 11 us each, 24 us through a frame (one x86 core)
    t, s = (t.t, t.s) if isinstance(t, Frame) else (as_square_matrix(t), 1.0)
    return s * float(np.linalg.svd(t, compute_uv=False)[0])


def top_right_singular_vectors(t):
    """Largest singular value and the right singular vectors attaining it.

    Returns ``(sigma_max, vectors)`` where ``vectors`` spans the top
    singular subspace (all singular values within ``TOP_SINGULAR_RTOL *
    sigma_max`` of the largest).  Vectors are phase-normalized.
    """
    t, scale, *_ = scaled_square_matrix(t)
    _, s, vh = np.linalg.svd(t)
    smax = float(s[0])
    if smax == 0.0:
        return 0.0, []
    count = int(np.sum(smax - s <= tol.TOP_SINGULAR_RTOL * smax))
    vecs = _phase_normalize(vh[:count].conj().T)
    return scale * smax, [vecs[:, k] for k in range(count)]


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
    t, _, h, g, scale = scaled_square_matrix(t)  # scale^2 cannot overflow
    n = t.shape[0]
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
    return _invariants_2x2(a)


def _invariants_2x2(a: np.ndarray) -> SimilarityInvariants2x2:
    """`similarity_invariants_2x2` of a 2x2 array already validated."""
    trace = complex(a[0, 0] + a[1, 1])
    det = complex(a[0, 0] * a[1, 1] - a[0, 1] * a[1, 0])
    fro = float(np.sum(np.abs(a) ** 2))
    return SimilarityInvariants2x2(trace, det, fro)


def invariants_close(x: SimilarityInvariants2x2, y: SimilarityInvariants2x2,
                     atol: float) -> bool:
    return all(abs(a - b) <= atol for a, b in zip(x, y))

