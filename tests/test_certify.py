"""Tests for ratio checks, family membership, and extremality certification."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

import sector_radius as sr
from helpers import (EXTREME_BINADES, POWERS_OF_TWO, PROPERTY, SEEDS,
                     clustered_normal, complex_gaussian, direct_sum, philox,
                     random_unitary, sectorial_sample, to_binade)
from sector_radius import certify, numrange

SECTOR_ANGLES = st.sampled_from([0.3, 0.9, 1.4, 1.5704, math.pi / 2])


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

    def test_norm_beyond_largest_double(self):
        # the largest entry of T 2^1022 is below 2^1023, but its norm,
        # 5.5 * 2^1022, overflows; neither answer depends on the scale
        t = 1.8 * np.ones((3, 3)) + 0.1 * np.eye(3)
        assert sr.ratio_check(2.0 ** 1022 * t) == sr.ratio_check(t)
        assert (sr.certify_extremal(2.0 ** 1022 * t, 0.5).verdict
                is sr.certify_extremal(t, 0.5).verdict)


    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_sector_angle_read_once(self, n, monkeypatch):
        # the radius takes the angle ratio_check has already read, and the
        # answer is the public radius's and angle's
        t = sectorial_sample(n, 0.9, philox(n))
        want = (sr.min_sector_angle(t),
                sr.operator_norm(t) / sr.numerical_radius(t))
        calls = []
        real = numrange.min_sector_angle

        def counting(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(numrange, "min_sector_angle", counting)
        monkeypatch.setattr(certify, "min_sector_angle", counting)
        res = sr.ratio_check(t)
        assert len(calls) == 1
        assert (res.alpha_min, res.ratio) == want
        assert res.bound == sr.tau(want[0]) and res.ok


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
        u = random_unitary(2, philox(700))
        form = sr.canonical_family_test(2.5 * (u.conj().T @ a @ u), alpha)
        assert form is not None
        assert form.r == pytest.approx(r, abs=rec_tol)
        assert form.theta == pytest.approx(theta, abs=rec_tol)

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_round_trip_out_of_square_range(self, scale):
        # the determinant of the scaled member under- or overflows unless
        # the matrix is rescaled first
        form = sr.canonical_family_test(
            scale * sr.r_alpha_matrix(1.5, 0.3, 0.7), 0.7)
        assert form is not None
        assert form.r == pytest.approx(1.5, abs=1e-12)
        assert form.theta == pytest.approx(0.3, abs=1e-12)

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

    @pytest.mark.parametrize("variant", ["plain", "conjugated", "adjoint"])
    def test_member_near_half_plane(self, variant):
        # H is nearly singular and tan(alpha) is about 2.7e3, so the slopes
        # of H^{-1/2} G H^{-1/2} cannot be matched to +-tan(alpha) in 1e-8
        alpha = 1.5704
        a = sr.r_alpha_matrix(1.7, 0.9, alpha)
        if variant == "conjugated":
            u = random_unitary(2, philox(3))
            a = u.conj().T @ a @ u
        elif variant == "adjoint":
            a = a.conj().T
        form = sr.canonical_family_test(a, alpha)
        assert form is not None
        assert form.r == pytest.approx(1.7, abs=1e-8)
        assert form.theta == pytest.approx(0.9, abs=1e-8)

    def test_corner_theta_equals_alpha(self):
        # c = 0: the member is normal, and c recovered from tr(A*A) reads
        # about 2e-8 from rounding alone
        a = sr.r_alpha_matrix(2.5, 1.2, 1.2)
        u = random_unitary(2, philox(8))
        for b in (a, u.conj().T @ a @ u, a.conj().T):
            form = sr.canonical_family_test(b, 1.2)
            assert form is not None
            assert form.r == pytest.approx(2.5, abs=1e-8)
            assert form.theta == pytest.approx(1.2, abs=1e-8)

    @pytest.mark.parametrize("factor,shift", [(0.5, 0.0), (1.0, 2e-5)])
    def test_half_plane_corner_non_member(self, factor, shift):
        # near theta = alpha = pi/2 the off-diagonal entry 2c changes
        # tr(A*A) only quadratically, so eigenvalues and the invariant
        # triple still match while W(A) misses or crosses the imaginary
        # axis by about 1e-5; the support values at the ray normals see it
        a = sr.r_alpha_matrix(1.5, math.pi / 2 - 3e-5, math.pi / 2)
        a[0, 1] = factor * a[0, 1] + shift
        assert sr.canonical_family_test(a, math.pi / 2) is None

    def test_identity_not_member(self):
        assert sr.canonical_family_test(np.eye(2), math.pi / 4) is None

    @pytest.mark.parametrize("a", [np.diag([1.0, -1.0]), [[0, 1], [0, 0]]],
                             ids=["negative", "zero"])
    def test_nonpositive_determinant_not_member(self, a):
        # members have a positive real determinant
        assert sr.canonical_family_test(a, 1.0) is None

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
        rng = philox(710)
        t = complex_gaussian((4, 4), rng)
        x = complex_gaussian((4,), rng)
        x /= np.linalg.norm(x)
        comp = sr.compression_2x2(t, x)
        w_comp = sr.numerical_radius(comp)
        assert w_comp <= sr.numerical_radius(t) + 1e-9

    def test_requires_unit_vector(self):
        with pytest.raises(sr.ParameterError):
            sr.compression_2x2(np.eye(2), [2.0, 0.0])

    def test_rejects_length_mismatch(self):
        with pytest.raises(sr.MatrixShapeError, match="vector length 2"):
            sr.compression_2x2(np.eye(3), [1.0, 0.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("x", [[math.nan, 0.0], [1.0, math.inf]],
                             ids=["nan", "inf"])
    def test_rejects_non_finite_vector(self, x):
        # abs(nan - 1) > 1e-8 is False, so the unit-norm check lets nan by
        with pytest.raises(sr.ParameterError, match="finite"):
            sr.compression_2x2(np.eye(2), x)


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
        u = random_unitary(4, philox(720))
        rep = sr.certify_extremal(u.conj().T @ t @ u, alpha)
        assert rep.verdict is sr.Verdict.EXTREMAL
        assert rep.block_offdiag_norm <= 1e-7
        assert rep.tail_radius <= inv_tau + 1e-7

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 2 and 4: the radius of the clustered block reads "
        "below 1/tau + tol, so the ratio and tail stages both pass"))
    def test_clustered_normal_tail_is_not_extremal(self):
        # W(C) lies inside the sector and w(C) = (1 + 1e-6) / tau, so w(T) =
        # w(C), ||T|| = 1 and the ratio is 1.2e-6 below tau: 12 times the
        # default tolerance.  Seed 33 is the first philox seed on which the
        # scan-and-Newton radius answers `extremal`
        alpha = math.pi / 3
        rng = philox(33)
        c, w = clustered_normal(5, rng.uniform(-1.0, 1.0), rng)
        t = direct_sum(sr.extremal_2x2(alpha),
                       c * (1 + 1e-6) / (sr.tau(alpha) * w))
        rep = sr.certify_extremal(t, alpha)
        assert rep.verdict is sr.Verdict.NOT_EXTREMAL

    def test_soundness_against_grid_oracle(self):
        alpha = math.pi / 3
        t = direct_sum(sr.extremal_2x2(alpha), np.diag([0.4 + 0.1j]))
        u = random_unitary(3, philox(730))
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

    def test_every_candidate_an_eigenvector_is_degenerate(self):
        # I is within the loose tolerance of tau(0.01), but each top right
        # singular vector x has Ix = x, so span{x, Tx} is one-dimensional
        rep = sr.certify_extremal(np.eye(2), 0.01, 0.1)
        assert rep.verdict is sr.Verdict.DEGENERATE
        assert rep.compression is None

    def test_compression_stage_rejects(self):
        # W(T) is the disk of radius 1/2 about 1, inside the sector of
        # half-angle pi/6, and ratio 1.079 is within 0.1 of tau = 1.118;
        # the invariants of T/||T|| miss the extremal block's by 0.2
        rep = sr.certify_extremal([[1, 1], [0, 1]], math.pi / 6, 0.1)
        assert rep.verdict is sr.Verdict.NOT_EXTREMAL
        assert rep.compression is not None
        assert rep.tail_radius is None

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
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(sr.ParameterError):
                sr.certify_extremal(np.eye(2), 1.0, tol_cert=bad)

    def test_default_tolerance_ignores_environment(self, monkeypatch):
        # the coupling shrunk by 1%: extremal within 0.1, not within 1e-7;
        # only the command line reads SECTOR_RADIUS_TOL
        alpha = math.pi / 4
        p = sr.extremal_params(alpha)
        phase = np.exp(1j * p.theta)
        t = np.array([[phase, 2 * p.c * 0.99], [0, np.conj(phase)]]) / p.norm
        assert sr.certify_extremal(t, alpha, 0.1).verdict is sr.Verdict.EXTREMAL
        monkeypatch.setenv("SECTOR_RADIUS_TOL", "0.1")
        assert sr.certify_extremal(t, alpha).verdict is sr.Verdict.NOT_EXTREMAL

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
    @given(SEEDS, SECTOR_ANGLES, EXTREME_BINADES)
    def test_family_extreme_binades(self, seed, alpha, e):
        a = family_input(seed, alpha)
        self.assert_same_form(sr.canonical_family_test(a, alpha),
                              sr.canonical_family_test(to_binade(a, e)[0],
                                                       alpha))

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
    @given(SEEDS, SECTOR_ANGLES, EXTREME_BINADES)
    def test_certify_extreme_binades(self, seed, alpha, e):
        # near 2^1023 the norm of T itself may overflow
        t = certify_input(seed, alpha)
        assert (sr.certify_extremal(to_binade(t, e)[0], alpha).verdict
                is sr.certify_extremal(t, alpha).verdict)

    @PROPERTY
    @given(SEEDS, SECTOR_ANGLES, EXTREME_BINADES)
    def test_ratio_check_extreme_binades(self, seed, alpha, e):
        t = certify_input(seed, alpha)
        res, res2 = sr.ratio_check(t), sr.ratio_check(to_binade(t, e)[0])
        assert (res.alpha_min is None) == (res2.alpha_min is None)
        if res.alpha_min is not None:
            assert res2.alpha_min == pytest.approx(res.alpha_min, abs=1e-12)
        assert res2.ratio == pytest.approx(res.ratio, rel=1e-12)
        assert res2.bound == pytest.approx(res.bound, rel=1e-12)
        assert res2.ok is res.ok

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("t", [
        [[1.7e308 * (1 + 1j)]],
        np.diag([1.7e308 * (1 + 1j), 3e307 * (2 - 1j)]),
    ], ids=["1x1", "2x2"])
    def test_modulus_overflow_with_finite_parts(self, t):
        # |1.7e308 (1 + i)| overflows while both parts are finite: the
        # entry scale comes from the parts, so T reads exactly as T / 2
        t = np.asarray(t)
        alpha = math.pi / 4
        for answer in (sr.min_sector_angle, sr.ratio_check,
                       lambda a: sr.sector_contains(a, alpha),
                       lambda a: sr.certify_extremal(a, alpha)):
            assert answer(t) == answer(t / 2)
        assert sr.min_sector_angle(t) == pytest.approx(alpha, rel=1e-15)
        assert sr.ratio_check(t).ratio == pytest.approx(1.0, rel=1e-15)

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
