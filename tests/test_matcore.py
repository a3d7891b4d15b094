"""Tests for the dense linear algebra kernels."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sector_radius as sr

RNG = np.random.default_rng(np.random.Philox(20240601))


def complex_gaussian(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(n, rng=RNG):
    q, r = np.linalg.qr(complex_gaussian((n, n), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


class TestCartesianDecompose:
    def test_shift_matrix(self):
        h, g = sr.cartesian_decompose([[0, 1], [0, 0]])
        np.testing.assert_allclose(h, [[0, 0.5], [0.5, 0]], atol=1e-15)
        np.testing.assert_allclose(g, [[0, -0.5j], [0.5j, 0]], atol=1e-15)

    def test_hermitian_input(self):
        h, g = sr.cartesian_decompose(np.eye(2))
        np.testing.assert_allclose(h, np.eye(2), atol=1e-15)
        np.testing.assert_allclose(g, np.zeros((2, 2)), atol=1e-15)

    def test_extremal_half_plane_blocks(self):
        t = sr.extremal_2x2(math.pi / 2)
        h, g = sr.cartesian_decompose(t)
        np.testing.assert_allclose(h, np.full((2, 2), 1 / 3), atol=1e-14)
        rt2 = math.sqrt(2.0)
        expected_g = np.array([[rt2, -1j], [1j, -rt2]]) / 3.0
        np.testing.assert_allclose(g, expected_g, atol=1e-14)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8])
    def test_reconstruction(self, n):
        t = complex_gaussian((n, n))
        h, g = sr.cartesian_decompose(t)
        assert np.linalg.norm(h - h.conj().T) <= 1e-12 * np.linalg.norm(t)
        assert np.linalg.norm(g - g.conj().T) <= 1e-12 * np.linalg.norm(t)
        np.testing.assert_allclose(h + 1j * g, t,
                                   atol=1e-12 * np.linalg.norm(t))

    def test_rejects_non_square(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.cartesian_decompose(np.zeros((2, 3)))

    def test_rejects_non_finite(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.cartesian_decompose([[np.nan, 0], [0, 0]])


class TestHermitianSpectrum:
    def test_diagonal(self):
        w, _ = sr.hermitian_spectrum(np.diag([3.0, -1.0, 2.0]))
        np.testing.assert_allclose(w, [-1.0, 2.0, 3.0], atol=1e-14)

    def test_pauli_type(self):
        w, v = sr.hermitian_spectrum([[0, 1], [1, 0]])
        np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)
        # unitary eigenvector matrix
        np.testing.assert_allclose(v.conj().T @ v, np.eye(2), atol=1e-10)

    def test_normal_family_member_tan_eigenvalues(self):
        # diag(e^{ia}, e^{-ia}) has H^{-1/2} G H^{-1/2} = diag(tan a, -tan a)
        alpha = math.pi / 3
        a = sr.r_alpha_matrix(1.0, alpha, alpha)
        h, g = sr.cartesian_decompose(a)
        wh, vh = sr.hermitian_spectrum(h)
        inv_root = (vh / np.sqrt(wh)) @ vh.conj().T
        w, _ = sr.hermitian_spectrum(inv_root @ g @ inv_root)
        np.testing.assert_allclose(w, [-math.tan(alpha), math.tan(alpha)],
                                   atol=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_residuals_and_phase(self, n):
        a = complex_gaussian((n, n))
        m = (a + a.conj().T) / 2
        w, v = sr.hermitian_spectrum(m)
        scale = np.linalg.norm(m, 2)
        for k in range(n):
            assert np.linalg.norm(m @ v[:, k] - w[k] * v[:, k]) <= 1e-10 * scale
        np.testing.assert_allclose(v.conj().T @ v, np.eye(n), atol=1e-10)
        # first nonzero component of each eigenvector is real nonnegative
        for k in range(n):
            col = v[:, k]
            first = col[np.flatnonzero(np.abs(col) > 1e-12)[0]]
            assert abs(first.imag) <= 1e-12 and first.real >= 0

    def test_rejects_non_hermitian(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.hermitian_spectrum([[0, 1], [0, 0]])

    def test_rejects_non_hermitian_at_tiny_scale(self):
        # the tolerance is relative to the matrix's own scale, with no floor
        with pytest.raises(sr.MatrixShapeError):
            sr.hermitian_spectrum(1e-20 * np.array([[0, 1], [0, 0]]))


class TestOperatorNorm:
    def test_rank_one(self):
        assert sr.operator_norm([[0, 1], [0, 0]]) == pytest.approx(1.0, abs=1e-14)

    def test_extremal_unnormalized_norm(self):
        # unit-determinant extremal matrix at alpha = pi/2 has norm sqrt(3)
        p = sr.extremal_params(math.pi / 2)
        a = sr.r_alpha_matrix(1.0, p.theta, math.pi / 2)
        assert sr.operator_norm(a) == pytest.approx(math.sqrt(3.0), abs=1e-12)

    def test_closed_form_cross_check(self):
        # ||A|| = [sqrt((r+1/r)^2+4c^2) + sqrt((r-1/r)^2+4c^2)] / 2 on the
        # unit-determinant family; value frozen from both routes.
        r, alpha = 1.5, math.pi / 4
        a = sr.r_alpha_matrix(r, 0.0, alpha)
        c = math.sin(alpha)
        closed = 0.5 * (math.sqrt((r + 1 / r) ** 2 + 4 * c * c)
                        + math.sqrt((r - 1 / r) ** 2 + 4 * c * c))
        assert closed == pytest.approx(2.1144193748380102, abs=1e-12)
        assert sr.operator_norm(a) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("r,theta,alpha", [
        (1.0, 0.3, 0.9), (1.7, 0.0, 0.4), (2.5, 0.2, 1.1),
        (1.2, 0.7, math.pi / 2), (4.0, 0.05, 0.3),
    ])
    def test_closed_form_on_family(self, r, theta, alpha):
        a = sr.r_alpha_matrix(r, theta, alpha)
        c = math.sqrt(math.sin(alpha) ** 2 - math.sin(theta) ** 2)
        closed = 0.5 * (math.sqrt((r + 1 / r) ** 2 + 4 * c * c)
                        + math.sqrt((r - 1 / r) ** 2 + 4 * c * c))
        assert sr.operator_norm(a) == pytest.approx(closed, abs=1e-10)

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_random_unit_vectors_never_exceed(self, n):
        t = complex_gaussian((n, n))
        norm = sr.operator_norm(t)
        x = complex_gaussian((10_000, n))
        x /= np.linalg.norm(x, axis=1, keepdims=True)
        sampled = np.linalg.norm(x @ t.T, axis=1).max()
        assert sampled <= norm + 1e-10


class TestCommutantDimension:
    def test_identity(self):
        assert sr.commutant_dimension(np.eye(3)) == 9

    def test_nilpotent_shift(self):
        assert sr.commutant_dimension([[0, 1], [0, 0]]) == 1

    def test_three_by_three_coupled(self):
        assert sr.commutant_dimension(sr.three_by_three(0.1, 0.05, 0.0)) == 1

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_unitary_invariance(self, n):
        t = complex_gaussian((n, n))
        u = random_unitary(n)
        assert (sr.commutant_dimension(u.conj().T @ t @ u)
                == sr.commutant_dimension(t))

    def test_block_diagonal_is_reducible(self):
        t = np.diag([1.0 + 1j, 2.0 - 0.5j])
        assert sr.commutant_dimension(t) >= 2


def kronecker_nullity(t):
    """Reference commutant dimension for small n: nullity of the stacked
    2n^2 x n^2 system X -> (XH - HX, XG - GX), with singular values up to
    1e-9 * ||T||_F counted as zero.  Costs O(n^6); used for n <= 8.

    The cut is relative to T, not to the system's largest singular value:
    for a conjugated scalar matrix every singular value is rounding noise,
    which a cut relative to sigma_max would count as rank."""
    t = np.asarray(t, dtype=np.complex128)
    n = t.shape[0]
    h, g = sr.cartesian_decompose(t)
    eye = np.eye(n)
    stacked = np.vstack([np.kron(eye, x) - np.kron(x.T, eye) for x in (h, g)])
    sv = np.linalg.svd(stacked, compute_uv=False)
    return n * n - int(np.sum(sv > 1e-9 * np.linalg.norm(t)))


def block_diagonal(blocks):
    n = sum(b.shape[0] for b in blocks)
    t = np.zeros((n, n), dtype=np.complex128)
    k = 0
    for b in blocks:
        m = b.shape[0]
        t[k:k + m, k:k + m] = b
        k += m
    return t


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)
BLOCK_SIZES = st.lists(st.integers(1, 4), min_size=1, max_size=4).filter(
    lambda sizes: sum(sizes) <= 8)


def conjugated_sum(seed, sizes):
    """U* (B_1 + ... + B_k) U with Gaussian blocks: dimension len(sizes)."""
    rng = philox(seed)
    t = block_diagonal([complex_gaussian((m, m), rng) for m in sizes])
    u = random_unitary(t.shape[0], rng)
    return u.conj().T @ t @ u


def repeated_block(seed, m, copies):
    """U* (B + ... + B) U: the commutant is I_m (x) M_copies, of dimension
    copies^2."""
    rng = philox(seed)
    b = complex_gaussian((m, m), rng)
    u = random_unitary(m * copies, rng)
    return u.conj().T @ block_diagonal([b] * copies) @ u


def normal_repeated(seed, multiplicities):
    """Normal matrix with eigenvalue k repeated multiplicities[k] times:
    dimension sum(m^2)."""
    rng = philox(seed)
    values = complex_gaussian(len(multiplicities), rng)
    diag = np.repeat(values, multiplicities)
    u = random_unitary(len(diag), rng)
    return u.conj().T @ np.diag(diag) @ u


class TestCommutantAgainstKronecker:
    """commutant_dimension equals the Kronecker nullity for n <= 8."""

    @PROPERTY
    @given(SEEDS, st.integers(1, 8))
    def test_gaussian(self, seed, n):
        t = complex_gaussian((n, n), philox(seed))
        assert sr.commutant_dimension(t) == kronecker_nullity(t)

    @PROPERTY
    @given(SEEDS, BLOCK_SIZES)
    def test_conjugated_direct_sum(self, seed, sizes):
        t = conjugated_sum(seed, sizes)
        assert sr.commutant_dimension(t) == kronecker_nullity(t) == len(sizes)

    @PROPERTY
    @given(SEEDS, st.sampled_from([(1, 2), (2, 2), (3, 2), (4, 2),
                                   (1, 3), (2, 3)]))
    def test_repeated_blocks(self, seed, shape):
        m, copies = shape
        t = repeated_block(seed, m, copies)
        assert (sr.commutant_dimension(t) == kronecker_nullity(t)
                == copies * copies)

    @PROPERTY
    @given(SEEDS, BLOCK_SIZES)
    def test_normal_with_repeated_eigenvalues(self, seed, multiplicities):
        t = normal_repeated(seed, multiplicities)
        expected = sum(m * m for m in multiplicities)
        assert sr.commutant_dimension(t) == kronecker_nullity(t) == expected

    @pytest.mark.parametrize("n", range(1, 9))
    def test_zero_and_identity(self, n):
        for t in (np.zeros((n, n)), np.eye(n)):
            assert sr.commutant_dimension(t) == kronecker_nullity(t) == n * n

    @PROPERTY
    @given(SEEDS, st.sampled_from([1e-3, 1e-2, 0.1]))
    def test_three_by_three_family(self, seed, d):
        u = random_unitary(3, philox(seed))
        t = u.conj().T @ sr.three_by_three(d, 1.5 * d * d, 0.0) @ u
        assert sr.commutant_dimension(t) == kronecker_nullity(t) == 1


STRUCTURED = st.one_of(
    st.builds(conjugated_sum, SEEDS, BLOCK_SIZES),
    st.builds(repeated_block, SEEDS, st.integers(1, 4), st.just(2)),
    st.builds(normal_repeated, SEEDS, BLOCK_SIZES),
)


class TestCommutantInvariance:
    @PROPERTY
    @given(STRUCTURED, SEEDS)
    def test_unitary_similarity(self, t, seed):
        u = random_unitary(t.shape[0], philox(seed))
        assert (sr.commutant_dimension(u.conj().T @ t @ u)
                == sr.commutant_dimension(t))

    @PROPERTY
    @given(STRUCTURED, st.sampled_from([2.0 ** 40, 2.0 ** -40, 1e200, 1e-200]))
    def test_scaling(self, t, factor):
        assert (sr.commutant_dimension(factor * t)
                == sr.commutant_dimension(t))


class TestSimilarityInvariants2x2:
    def test_triangular_vs_rotation_block(self):
        p = sr.extremal_params(math.pi / 2)
        a = sr.r_alpha_matrix(1.0, p.theta, math.pi / 2)
        b = np.array([[2 / math.sqrt(3), 1.0], [-1.0, 0.0]])
        ia = sr.similarity_invariants_2x2(a)
        ib = sr.similarity_invariants_2x2(b)
        assert ia.trace == pytest.approx(2 / math.sqrt(3), abs=1e-12)
        assert ia.determinant == pytest.approx(1.0, abs=1e-12)
        assert ia.frobenius_sq == pytest.approx(10.0 / 3.0, abs=1e-12)
        assert sr.invariants_close(ia, ib, 1e-12)

    def test_unitary_invariance(self):
        a = complex_gaussian((2, 2))
        u = random_unitary(2)
        assert sr.invariants_close(
            sr.similarity_invariants_2x2(a),
            sr.similarity_invariants_2x2(u.conj().T @ a @ u), 1e-12)

    def test_shift_and_transpose(self):
        up = sr.similarity_invariants_2x2([[0, 1], [0, 0]])
        down = sr.similarity_invariants_2x2([[0, 0], [1, 0]])
        assert sr.invariants_close(up, down, 1e-15)

    def test_rejects_wrong_size(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.similarity_invariants_2x2(np.eye(3))
