"""Tests for ratio checks, family membership, and extremality certification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sector_radius as sr

RNG = np.random.default_rng(np.random.Philox(20240603))


def complex_gaussian(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_unitary(n, rng=RNG):
    q, r = np.linalg.qr(complex_gaussian((n, n), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)
POWERS_OF_TWO = st.integers(-60, 60)
SECTOR_ANGLES = st.sampled_from([0.3, 0.9, 1.4, math.pi / 2])


def direct_sum(*blocks):
    dim = sum(b.shape[0] for b in blocks)
    out = np.zeros((dim, dim), dtype=np.complex128)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[0]] = b
        at += b.shape[0]
    return out


class TestRatioCheck:
    def test_extremal_attains_bound(self):
        res = sr.ratio_check(sr.extremal_2x2(math.pi / 3))
        assert res.alpha_min == pytest.approx(math.pi / 3, abs=1e-9)
        assert res.ratio == pytest.approx(res.bound, abs=1e-8)
        assert res.ok

    def test_normal_matrix_ratio_one(self):
        t = np.diag([0.5, 1.0 * np.exp(0.4j)])
        res = sr.ratio_check(t)
        assert res.ratio == pytest.approx(1.0, abs=1e-10)
        assert res.ok

    def test_shift_hits_generic_bound(self):
        res = sr.ratio_check([[0, 1], [0, 0]])
        assert res.alpha_min is None
        assert res.bound == 2.0
        assert res.ratio == pytest.approx(2.0, abs=1e-10)
        assert res.ok

    def test_zero_matrix_degenerate(self):
        with pytest.raises(sr.DegenerateError):
            sr.ratio_check(np.zeros((2, 2)))


class TestCanonicalFamilyTest:
    def test_round_trip(self):
        a = sr.r_alpha_matrix(1.3, 0.2, math.pi / 4)
        form = sr.canonical_family_test(a, math.pi / 4)
        assert form is not None
        assert form.r == pytest.approx(1.3, abs=1e-8)
        assert form.theta == pytest.approx(0.2, abs=1e-8)

    @pytest.mark.parametrize("r,theta,alpha,rec_tol", [
        # at r = 1, theta = 0 the normal form is defective, so parameter
        # recovery from a conjugated matrix is only sqrt(eps)-accurate
        (1.0, 0.0, 0.9, 5e-7),
        (2.5, 0.4, 1.2, 1e-8), (1.7, 0.0, math.pi / 6, 1e-8),
        (1.2, 0.9, math.pi / 2, 1e-8),
    ])
    def test_round_trip_scaled_and_conjugated(self, r, theta, alpha, rec_tol):
        a = sr.r_alpha_matrix(r, theta, alpha)
        u = random_unitary(2)
        form = sr.canonical_family_test(2.5 * (u.conj().T @ a @ u), alpha)
        assert form is not None
        assert form.r == pytest.approx(r, abs=rec_tol)
        assert form.theta == pytest.approx(theta, abs=rec_tol)

    def test_exact_triangular_round_trip_at_corner(self):
        form = sr.canonical_family_test(
            sr.r_alpha_matrix(1.0, 0.0, 0.9), 0.9)
        assert form is not None
        assert form.r == pytest.approx(1.0, abs=1e-12)
        assert form.theta == pytest.approx(0.0, abs=1e-12)

    def test_adjoint_is_member(self):
        a = sr.r_alpha_matrix(1.4, 0.1, 0.8)
        form = sr.canonical_family_test(a.conj().T, 0.8)
        assert form is not None
        assert form.r == pytest.approx(1.4, abs=1e-8)

    def test_normal_touching_member(self):
        alpha = math.pi / 3
        a = np.diag([1 + 1j * math.tan(alpha), 1 - 1j * math.tan(alpha)])
        form = sr.canonical_family_test(a, alpha)
        assert form is not None
        assert form.r == pytest.approx(1.0, abs=1e-10)
        assert form.theta == pytest.approx(alpha, abs=1e-10)

    def test_identity_not_member(self):
        assert sr.canonical_family_test(np.eye(2), math.pi / 4) is None

    def test_smaller_angle_not_member(self):
        # touches the rays of a narrower sector, not of this one
        a = sr.r_alpha_matrix(1.5, 0.1, 0.5)
        assert sr.canonical_family_test(a, 1.0) is None

    def test_membership_implies_min_angle(self):
        for r, theta, alpha in ((1.1, 0.2, 0.7), (2.0, 0.0, 1.2)):
            a = sr.r_alpha_matrix(r, theta, alpha)
            assert sr.canonical_family_test(a, alpha) is not None
            det = np.linalg.det(a)
            a0 = a / np.sqrt(det.real)
            assert sr.sector_contains(a0, alpha)
            assert sr.min_sector_angle(a0) == pytest.approx(alpha, abs=1e-8)

    def test_rejects_wrong_size(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.canonical_family_test(np.eye(3), 0.5)


class TestCompression2x2:
    def test_extremal_direct_sum_recovers_block_class(self):
        from sector_radius.matcore import top_right_singular_vectors

        alpha = 0.9
        t = direct_sum(sr.extremal_2x2(alpha), np.zeros((2, 2), complex))
        _, vecs = top_right_singular_vectors(t)
        comp = sr.compression_2x2(t, vecs[0])
        block = sr.canonical_b(alpha)
        assert sr.invariants_close(
            sr.similarity_invariants_2x2(comp),
            sr.similarity_invariants_2x2(block.matrix / block.norm), 1e-9)

    def test_eigenvector_is_degenerate(self):
        with pytest.raises(sr.DegenerateError):
            sr.compression_2x2(np.eye(3), [1.0, 0.0, 0.0])

    def test_shift_block_span(self):
        t = np.zeros((3, 3), dtype=complex)
        t[0, 1] = 1.0
        comp = sr.compression_2x2(t, [0.0, 1.0, 0.0])
        # the span of {e2, T e2} carries the shift; the orthonormalization
        # order makes it the lower shift, unitarily similar to the upper one
        np.testing.assert_allclose(comp, [[0, 0], [1, 0]], atol=1e-14)
        assert sr.invariants_close(
            sr.similarity_invariants_2x2(comp),
            sr.similarity_invariants_2x2(np.array([[0.0, 1.0], [0.0, 0.0]])),
            1e-14)

    def test_containment_of_range(self):
        t = complex_gaussian((4, 4))
        x = complex_gaussian((4,))
        x /= np.linalg.norm(x)
        comp = sr.compression_2x2(t, x)
        w_comp = sr.numerical_radius(comp)
        assert w_comp <= sr.numerical_radius(t) + 1e-9

    def test_requires_unit_vector(self):
        with pytest.raises(sr.ParameterError):
            sr.compression_2x2(np.eye(2), [2.0, 0.0])


class TestCertifyExtremal:
    @pytest.mark.parametrize("alpha", [0.3, math.pi / 4, 1.2, math.pi / 2])
    def test_extremal_plus_zero_block(self, alpha):
        t = direct_sum(sr.extremal_2x2(alpha), np.zeros((1, 1), complex))
        rep = sr.certify_extremal(t, alpha)
        assert rep.verdict is sr.Verdict.EXTREMAL
        assert rep.tail_radius == pytest.approx(0.0, abs=1e-12)

    def test_extremal_plus_normal_block(self):
        alpha = math.pi / 4
        t = direct_sum(sr.extremal_2x2(alpha), np.diag([0.3, 0.5]).astype(complex))
        rep = sr.certify_extremal(t, alpha)
        assert rep.verdict is sr.Verdict.EXTREMAL
        assert rep.tail_radius == pytest.approx(0.5, abs=1e-9)

    def test_shrunk_extremal_dominated_by_normal_part(self):
        alpha = 0.8
        t = direct_sum(0.95 * sr.extremal_2x2(alpha),
                       np.eye(1, dtype=complex))
        rep = sr.certify_extremal(t, alpha)
        assert rep.verdict is sr.Verdict.NOT_EXTREMAL
        assert rep.ratio < sr.tau(alpha) - 1e-3

    def test_not_in_sector(self):
        rep = sr.certify_extremal([[0, 1], [0, 0]], math.pi / 2)
        assert rep.verdict is sr.Verdict.NOT_IN_SECTOR

    def test_two_by_two_falls_back_to_similarity(self):
        alpha = 1.0
        rep = sr.certify_extremal(sr.extremal_2x2(alpha), alpha)
        assert rep.verdict is sr.Verdict.EXTREMAL
        assert rep.block_offdiag_norm == 0.0

    @pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_conjugated_direct_sums(self, alpha):
        inv_tau = 1 / sr.tau(alpha)
        nblock = np.diag([0.2, (inv_tau - 0.01) * np.exp(0.5j * alpha)])
        t = direct_sum(sr.extremal_2x2(alpha), nblock)
        u = random_unitary(4)
        rep = sr.certify_extremal(u.conj().T @ t @ u, alpha)
        assert rep.verdict is sr.Verdict.EXTREMAL
        assert rep.block_offdiag_norm <= 1e-7
        assert rep.tail_radius <= inv_tau + 1e-7

    def test_soundness_against_grid_oracle(self):
        alpha = math.pi / 3
        t = direct_sum(sr.extremal_2x2(alpha), np.diag([0.4 + 0.1j]))
        u = random_unitary(3)
        t = u.conj().T @ t @ u
        rep = sr.certify_extremal(t, alpha, 1e-7)
        assert rep.verdict is sr.Verdict.EXTREMAL
        oracle_ratio = sr.operator_norm(t) / sr.grid_radius(t, 1_000_000)
        assert abs(oracle_ratio - sr.tau(alpha)) <= 1e-6

    def test_half_plane_structural_exceptions(self):
        # coupled 3x3 and chain families: extremal at pi/2 without any
        # direct-sum splitting; the off-diagonal requirement is dropped there
        t3 = sr.three_by_three(0.1, 0.05, 0.02)
        rep3 = sr.certify_extremal(t3, math.pi / 2)
        assert rep3.verdict is sr.Verdict.EXTREMAL
        assert rep3.block_offdiag_norm is None
        assert rep3.tail_radius <= 1 / math.sqrt(2) + 1e-7
        t6, _ = sr.irreducible_family(6, 0.1)
        rep6 = sr.certify_extremal(t6, math.pi / 2)
        assert rep6.verdict is sr.Verdict.EXTREMAL

    def test_wrong_angle_is_rejected(self):
        # extremal for pi/3 is not extremal for pi/2
        t = sr.extremal_2x2(math.pi / 3)
        rep = sr.certify_extremal(t, math.pi / 2)
        assert rep.verdict is sr.Verdict.NOT_EXTREMAL

    def test_parameter_validation(self):
        with pytest.raises(sr.ParameterError):
            sr.certify_extremal(np.eye(2), 0.0)
        with pytest.raises(sr.DegenerateError):
            sr.certify_extremal(np.zeros((2, 2)), 1.0)
        with pytest.raises(sr.ParameterError):
            sr.certify_extremal(np.eye(2), 1.0, tol_cert=-1.0)

    def test_report_carries_attaining_vector(self):
        alpha = 0.7
        t = direct_sum(sr.extremal_2x2(alpha), np.zeros((1, 1), complex))
        rep = sr.certify_extremal(t, alpha)
        x = rep.attaining_vector
        assert x is not None
        assert np.linalg.norm(t @ x) == pytest.approx(
            sr.operator_norm(t), abs=1e-10)


class TestTau:
    def test_values(self):
        assert sr.tau(0.0) == 1.0
        assert sr.tau(math.pi / 2) == pytest.approx(math.sqrt(2), abs=1e-15)
        assert sr.tau(math.pi / 4) == pytest.approx(math.sqrt(1.5), abs=1e-15)


def family_input(seed, alpha):
    """Scaled unitary conjugate of a family member, of its adjoint, or of
    a member times a phase e^{i phi} (phi >= 7e-9 makes det(A) non-real
    beyond FAMILY_ATOL and so A a non-member)."""
    rng = philox(seed)
    theta = alpha * rng.uniform(0.0, 1.0)
    a = sr.r_alpha_matrix(rng.uniform(1.0, 3.0), theta, alpha)
    kind = int(rng.integers(0, 3))
    if kind == 1:
        a = a.conj().T
    elif kind == 2:
        a = a * np.exp(1j * rng.choice([7e-9, 1e-6, 0.3]))
    u = random_unitary(2, rng)
    return rng.uniform(0.2, 5.0) * (u.conj().T @ a @ u)


def certify_input(seed, alpha):
    """U* (B + N) U with B extremal for alpha: extremal when the normal
    block N lies in the sector with radius below 1/tau, not extremal when
    B is shrunk under N = 1; or a Gaussian matrix, rarely in the sector."""
    rng = philox(seed)
    kind = int(rng.integers(0, 3))
    if kind == 0:
        m = int(rng.integers(1, 4))
        moduli = rng.uniform(0.05, 1.0 / sr.tau(alpha) - 0.02, m)
        phases = rng.uniform(-0.9 * alpha, 0.9 * alpha, m)
        t = direct_sum(sr.extremal_2x2(alpha),
                       np.diag(moduli * np.exp(1j * phases)))
    elif kind == 1:
        t = direct_sum(0.95 * sr.extremal_2x2(alpha), np.eye(1))
    else:
        t = complex_gaussian((int(rng.integers(2, 6)),) * 2, rng)
    u = random_unitary(t.shape[0], rng)
    return rng.uniform(0.2, 5.0) * (u.conj().T @ t @ u)


def compression_input(seed):
    """Gaussian T of dimension 2..6 and a Gaussian unit vector x."""
    rng = philox(seed)
    n = int(rng.integers(2, 7))
    x = complex_gaussian((n,), rng)
    return complex_gaussian((n, n), rng), x / np.linalg.norm(x)


class TestSectorLayerInvariance:
    """Family membership, the certification verdict and the compression
    ignore scale and unitary similarity."""

    @staticmethod
    def assert_same_form(form, form2):
        assert (form is None) == (form2 is None)
        if form is not None:
            assert form2.r == pytest.approx(form.r, rel=1e-9)
            assert form2.theta == pytest.approx(form.theta, abs=1e-9)

    @PROPERTY
    @given(SEEDS, SECTOR_ANGLES, POWERS_OF_TWO)
    def test_family_scaling(self, seed, alpha, k):
        a = family_input(seed, alpha)
        self.assert_same_form(sr.canonical_family_test(a, alpha),
                              sr.canonical_family_test(2.0 ** k * a, alpha))

    @PROPERTY
    @given(SEEDS, SECTOR_ANGLES, SEEDS)
    def test_family_unitary_similarity(self, seed, alpha, useed):
        a = family_input(seed, alpha)
        u = random_unitary(2, philox(useed))
        self.assert_same_form(
            sr.canonical_family_test(a, alpha),
            sr.canonical_family_test(u.conj().T @ a @ u, alpha))

    def test_small_non_member_stays_out(self):
        # det(A) is off the real axis by 1.4e-8 |det(A)|: a non-member at
        # every scale, not only where |det(A)| >= 1
        a = sr.r_alpha_matrix(1.3, 0.1, 0.3) * np.exp(7e-9j)
        assert sr.canonical_family_test(a, 0.3) is None
        assert sr.canonical_family_test(2.0 ** -60 * a, 0.3) is None

    @PROPERTY
    @given(SEEDS, SECTOR_ANGLES, POWERS_OF_TWO)
    def test_certify_scaling(self, seed, alpha, k):
        t = certify_input(seed, alpha)
        assert (sr.certify_extremal(2.0 ** k * t, alpha).verdict
                is sr.certify_extremal(t, alpha).verdict)

    @PROPERTY
    @given(SEEDS, SECTOR_ANGLES, SEEDS)
    def test_certify_unitary_similarity(self, seed, alpha, useed):
        t = certify_input(seed, alpha)
        u = random_unitary(t.shape[0], philox(useed))
        assert (sr.certify_extremal(u.conj().T @ t @ u, alpha).verdict
                is sr.certify_extremal(t, alpha).verdict)

    @PROPERTY
    @given(SEEDS, POWERS_OF_TWO)
    def test_compression_scaling(self, seed, k):
        t, x = compression_input(seed)
        comp = sr.compression_2x2(t, x)
        np.testing.assert_allclose(
            sr.compression_2x2(2.0 ** k * t, x) / 2.0 ** k, comp,
            rtol=0, atol=1e-14 * np.linalg.norm(t))

    @PROPERTY
    @given(SEEDS, SEEDS)
    def test_compression_unitary_similarity(self, seed, useed):
        t, x = compression_input(seed)
        u = random_unitary(t.shape[0], philox(useed))
        np.testing.assert_allclose(
            sr.compression_2x2(u.conj().T @ t @ u, u.conj().T @ x),
            sr.compression_2x2(t, x), rtol=0, atol=1e-13 * np.linalg.norm(t))

    def test_compression_of_tiny_matrix(self):
        rng = philox(4)
        t = complex_gaussian((4, 4), rng)
        x = complex_gaussian((4,), rng)
        x /= np.linalg.norm(x)
        np.testing.assert_allclose(
            sr.compression_2x2(1e-20 * t, x) / 1e-20, sr.compression_2x2(t, x),
            rtol=0, atol=1e-14 * np.linalg.norm(t))
