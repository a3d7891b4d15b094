"""Tests for numerical range geometry."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sector_radius as sr
from sector_radius.numrange import _support_values

RNG = np.random.default_rng(np.random.Philox(20240602))


def complex_gaussian(shape, rng=RNG):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def philox(seed):
    return np.random.default_rng(np.random.Philox(seed))


def random_unitary(n, rng):
    q, r = np.linalg.qr(complex_gaussian((n, n), rng))
    d = np.diagonal(r)
    return q * (d / np.abs(d)).conj()


PROPERTY = settings(max_examples=40, deadline=None, derandomize=True)
SEEDS = st.integers(0, 2 ** 32 - 1)
POWERS_OF_TWO = st.integers(-60, 60)


B1 = np.array([[2 / 3, 1 / math.sqrt(3)], [-1 / math.sqrt(3), 0.0]])


class TestSupportValue:
    def test_hermitian_diagonal(self):
        s = sr.support_value(np.diag([2.0, -1.0]), 0.0)
        assert s.support_value == pytest.approx(2.0, abs=1e-12)
        assert s.boundary_point == pytest.approx(2.0, abs=1e-12)

    @pytest.mark.parametrize("theta", [0.0, 0.7, 2.0, 4.5])
    def test_shift_disk(self, theta):
        s = sr.support_value([[0, 1], [0, 0]], theta)
        assert s.support_value == pytest.approx(0.5, abs=1e-12)

    def test_half_plane_block_diagonal_direction(self):
        s = sr.support_value(B1, math.pi / 4)
        assert s.support_value == pytest.approx(1 / math.sqrt(2), abs=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_boundary_point_matches_support(self, n):
        t = complex_gaussian((n, n))
        for theta in (0.0, 1.1, 3.9):
            s = sr.support_value(t, theta)
            proj = (np.exp(-1j * theta) * s.boundary_point).real
            assert abs(proj - s.support_value) <= 1e-9


class TestNumericalRadius:
    def test_classical_shift(self):
        assert sr.numerical_radius([[0, 1], [0, 0]]) == pytest.approx(
            0.5, abs=1e-12)

    def test_half_plane_block(self):
        assert sr.numerical_radius(B1) == pytest.approx(
            1 / math.sqrt(2), abs=1e-10)

    def test_case1_closed_form(self):
        # w = [(r+1/r) + sqrt((r-1/r)^2 + 4 sin(a)^2)]/2 at theta = 0;
        # frozen from the closed form and confirmed by the grid oracle.
        r, alpha = 1.5, math.pi / 4
        a = sr.r_alpha_matrix(r, 0.0, alpha)
        closed = 0.5 * ((r + 1 / r)
                        + math.sqrt((r - 1 / r) ** 2 + 4 * math.sin(alpha) ** 2))
        assert closed == pytest.approx(1.9040714834830086, abs=1e-12)
        w = sr.numerical_radius(a)
        assert w == pytest.approx(closed, abs=1e-10)
        assert w == pytest.approx(sr.grid_radius(a, 200_000), abs=1e-8)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_rotation_invariance(self, n):
        t = complex_gaussian((n, n))
        w = sr.numerical_radius(t)
        for phi in (0.4, 1.9, 5.0):
            assert sr.numerical_radius(np.exp(1j * phi) * t) == pytest.approx(
                w, abs=1e-10)

    def test_translation_subadditivity(self):
        t = complex_gaussian((3, 3))
        w = sr.numerical_radius(t)
        for c in (0.5, 1 + 2j, -3j):
            assert (sr.numerical_radius(t + c * np.eye(3))
                    <= w + abs(c) + 1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_norm_bracket(self, n):
        t = complex_gaussian((n, n))
        w = sr.numerical_radius(t)
        norm = sr.operator_norm(t)
        assert w <= norm + 1e-10
        assert norm <= 2 * w + 1e-10


class TestGridOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_refined_radius(self, n):
        t = complex_gaussian((n, n))
        assert abs(sr.numerical_radius(t)
                   - sr.grid_radius(t, 1_000_000)) <= 1e-6

    @staticmethod
    def unpruned(t, m):
        h, g = sr.cartesian_decompose(t)
        thetas = 2 * math.pi * np.arange(m) / m
        return float(_support_values(h, g, thetas).max())

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
    def test_charpoly_route_matches_eigenvalues(self, n):
        # the pruned grid against direct Hermitian eigenvalues at every grid
        # angle, at scales where an absolute floor or an underflow would show
        t = complex_gaussian((n, n), philox(n))
        for s in (1.0, 2.0 ** -70, 1e-20, 1e20):
            assert sr.grid_radius(s * t, 4096) / s == pytest.approx(
                self.unpruned(s * t, 4096) / s, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("case", ["decoy", "jordan"])
    def test_hard_inputs_match_unpruned_grid(self, case):
        # decoy: twelve eigenvalues of modulus 1 - 1e-6 on grid angles and
        # the peak of modulus 1 half a step off the grid; jordan: W(T) is a
        # disk centred at 0, so the support function is constant and no
        # block may be skipped
        m = 2 ** 16
        if case == "decoy":
            angles = 2 * math.pi / m * np.r_[5041 * np.arange(1, 13), 0.5]
            moduli = np.r_[np.full(12, 1 - 1e-6), 1.0]
            u = random_unitary(13, philox(13))
            t = u.conj().T @ np.diag(moduli * np.exp(1j * angles)) @ u
        else:
            t = np.diag([1.0, 1.0], k=1)
        n = t.shape[0]
        bound = 8 * n * np.finfo(float).eps * np.linalg.norm(t)
        assert abs(sr.grid_radius(t, m) - self.unpruned(t, m)) <= bound

    def test_large_matrix_fallback(self):
        t = complex_gaussian((9, 9))
        assert abs(sr.numerical_radius(t) - sr.grid_radius(t, 20_000)) <= 1e-5


class TestBoundaryPoints:
    def test_shift_circle(self):
        pts = sr.boundary_points([[0, 1], [0, 0]], 4)
        assert len(pts) == 4
        for s in pts:
            assert abs(s.boundary_point) == pytest.approx(0.5, abs=1e-10)

    def test_normal_segment_endpoints(self):
        pts = sr.boundary_points(np.diag([1.0, 1j]), 360)
        zs = np.array([s.boundary_point for s in pts])
        # all samples on the segment from 1 to i ...
        assert np.max(np.abs(zs.real + zs.imag - 1.0)) <= 1e-9
        # ... and both endpoints occur
        assert np.min(np.abs(zs - 1.0)) <= 1e-8
        assert np.min(np.abs(zs - 1j)) <= 1e-8

    def test_extremal_stays_in_sector(self):
        pts = sr.boundary_points(sr.extremal_2x2(math.pi / 4), 360)
        for s in pts:
            z = s.boundary_point
            assert abs(z.imag) <= z.real * math.tan(math.pi / 4) + 1e-9

    def test_convexity_of_polygon(self):
        t = complex_gaussian((3, 3))
        pts = sr.boundary_points(t, 64)
        # every polygon vertex satisfies all supporting halfplanes
        for s in pts:
            for q in pts:
                proj = (np.exp(-1j * s.theta) * q.boundary_point).real
                assert proj <= s.support_value + 1e-9

    def test_too_few_points(self):
        with pytest.raises(sr.ParameterError):
            sr.boundary_points(np.eye(2), 2)


class TestEllipse2x2:
    def test_shift_disk(self):
        e = sr.ellipse_2x2([[0, 1], [0, 0]])
        assert e.focus1 == pytest.approx(0, abs=1e-14)
        assert e.focus2 == pytest.approx(0, abs=1e-14)
        assert e.minor_axis_length == pytest.approx(1.0, abs=1e-12)
        assert e.major_axis_length == pytest.approx(1.0, abs=1e-12)

    def test_normal_segment(self):
        e = sr.ellipse_2x2(np.diag([1.0, 1j]))
        assert e.minor_axis_length == pytest.approx(0.0, abs=1e-8)
        assert sorted([e.focus1, e.focus2], key=lambda z: z.real) \
            == pytest.approx([1j, 1.0])

    def test_half_plane_family_axes(self):
        # foci e^{+-i theta}, semi-minor c, major endpoints cos(theta) +- i
        p = sr.extremal_params(math.pi / 2)
        a = sr.r_alpha_matrix(1.0, p.theta, math.pi / 2)
        e = sr.ellipse_2x2(a)
        foci = sorted([e.focus1, e.focus2], key=lambda z: z.imag)
        assert foci[0] == pytest.approx(np.exp(-1j * p.theta), abs=1e-12)
        assert foci[1] == pytest.approx(np.exp(1j * p.theta), abs=1e-12)
        assert e.minor_axis_length / 2 == pytest.approx(p.c, abs=1e-12)
        assert e.major_axis_length / 2 == pytest.approx(
            math.sin(math.pi / 2), abs=1e-12)
        top = e.center + 1j * e.semi_major * np.exp(
            1j * (e.axis_phase - math.pi / 2))
        assert abs(abs(top.imag) - 1.0) <= 1e-12

    def test_radius_consistency_random(self):
        for _ in range(25):
            t = complex_gaussian((2, 2))
            assert sr.ellipse_radius(sr.ellipse_2x2(t)) == pytest.approx(
                sr.numerical_radius(t), abs=1e-8)

    def test_support_points_on_ellipse(self):
        for _ in range(10):
            t = complex_gaussian((2, 2))
            desc = sr.ellipse_2x2(t)
            for s in sr.boundary_points(t, 90):
                ref = sr.ellipse_support_point(desc, s.theta)
                assert abs(ref - s.boundary_point) <= 1e-8

    def test_rejects_wrong_size(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.ellipse_2x2(np.eye(3))


class TestSectorContains:
    def test_identity_in_every_sector(self):
        for alpha in np.linspace(0, math.pi / 2, 7):
            assert sr.sector_contains(np.eye(2), alpha)

    def test_shift_leaves_half_plane(self):
        assert not sr.sector_contains([[0, 1], [0, 0]], math.pi / 2)

    def test_extremal_touching(self):
        t = sr.extremal_2x2(math.pi / 4)
        assert sr.sector_contains(t, math.pi / 4)
        assert not sr.sector_contains(t, math.pi / 6)

    def test_degenerate_sector_is_nonnegative_axis(self):
        assert sr.sector_contains(np.diag([1.0, 2.0]), 0.0)
        assert not sr.sector_contains(-np.eye(2), 0.0)
        assert not sr.sector_contains(np.eye(2) + 1j * np.diag([1e-3, 0]), 0.0)


class TestMinSectorAngle:
    def test_identity(self):
        assert sr.min_sector_angle(np.eye(3)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_matrix(self):
        assert sr.min_sector_angle(np.zeros((2, 2))) == 0.0

    def test_normal_pm_one(self):
        t = np.eye(2) + 1j * np.diag([1.0, -1.0])
        assert sr.min_sector_angle(t) == pytest.approx(math.pi / 4, abs=1e-12)

    def test_extremal_touches_rays(self):
        alpha = math.pi / 3
        assert sr.min_sector_angle(sr.extremal_2x2(alpha)) == pytest.approx(
            alpha, abs=1e-9)

    def test_half_plane_extremal(self):
        assert sr.min_sector_angle(sr.extremal_2x2(math.pi / 2)) \
            == pytest.approx(math.pi / 2)

    def test_none_when_not_accretive(self):
        assert sr.min_sector_angle([[0, 1], [0, 0]]) is None

    def test_kernel_coupling_forces_half_plane(self):
        # G maps ker H outside itself
        t = np.diag([0.0, 1.0]) + 1j * np.array([[0.0, 1.0], [1.0, 0.0]])
        assert sr.min_sector_angle(t) == pytest.approx(math.pi / 2)
        # G nonzero on ker H
        t = np.diag([0.0, 1.0]) + 1j * np.diag([1.0, 0.0])
        assert sr.min_sector_angle(t) == pytest.approx(math.pi / 2)

    def test_kernel_splits_off(self):
        inner = sr.extremal_2x2(0.6)
        t = np.zeros((3, 3), dtype=complex)
        t[1:, 1:] = inner
        assert sr.min_sector_angle(t) == pytest.approx(0.6, abs=1e-9)

    def test_consistency_with_sector_contains(self):
        rng = np.random.default_rng(np.random.Philox(5))
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            h = a.conj().T @ a + 0.1 * np.eye(n)
            k = a + a.conj().T
            k *= rng.uniform(0.1, 2.0) / np.linalg.norm(k, 2)
            w, v = np.linalg.eigh(h)
            root = (v * np.sqrt(w)) @ v.conj().T
            t = h + 1j * (root @ k @ root)
            amin = sr.min_sector_angle(t)
            assert amin is not None
            assert sr.sector_contains(t, amin)
            if amin > 1e-4:
                assert not sr.sector_contains(t, amin - 1e-4)

    def test_angle_validation(self):
        with pytest.raises(sr.ParameterError):
            sr.sector_contains(np.eye(2), 2.0)
        with pytest.raises(sr.ParameterError):
            sr.sector_contains(np.eye(2), -0.1)


def gaussian(seed):
    """Gaussian matrix of dimension 1..6."""
    rng = philox(seed)
    return complex_gaussian((int(rng.integers(1, 7)),) * 2, rng)


class TestRadiusProperties:
    @PROPERTY
    @given(SEEDS, SEEDS)
    def test_unitary_similarity(self, seed, useed):
        t = gaussian(seed)
        u = random_unitary(t.shape[0], philox(useed))
        assert sr.numerical_radius(u.conj().T @ t @ u) == pytest.approx(
            sr.numerical_radius(t), rel=1e-13)

    @PROPERTY
    @given(SEEDS)
    def test_adjoint(self, seed):
        t = gaussian(seed)
        assert sr.numerical_radius(t.conj().T) == pytest.approx(
            sr.numerical_radius(t), rel=1e-13)

    @PROPERTY
    @given(SEEDS, st.floats(0.0, 2 * math.pi))
    def test_rotation(self, seed, phi):
        t = gaussian(seed)
        assert sr.numerical_radius(np.exp(1j * phi) * t) == pytest.approx(
            sr.numerical_radius(t), rel=1e-13)

    @PROPERTY
    @given(SEEDS, st.sampled_from([2.0 ** 40, 2.0 ** -40]))
    def test_power_of_two_scaling_is_exact(self, seed, factor):
        t = gaussian(seed)
        w = sr.numerical_radius(t)
        assert sr.numerical_radius(factor * t) == factor * w

    @PROPERTY
    @given(SEEDS, st.sampled_from([1e300, 1e-300]))
    def test_extreme_scaling(self, seed, factor):
        t = gaussian(seed)
        assert sr.numerical_radius(factor * t) / factor == pytest.approx(
            sr.numerical_radius(t), rel=1e-13)

    @PROPERTY
    @given(SEEDS, st.sampled_from([1e100, 1.0, 1e-100]))
    def test_ellipse_radius_matches(self, seed, factor):
        t = factor * complex_gaussian((2, 2), philox(seed))
        assert sr.ellipse_radius(sr.ellipse_2x2(t)) == pytest.approx(
            sr.numerical_radius(t), rel=1e-13)


def sectorial(seed):
    """H + i H^{1/2} K H^{1/2} with H positive definite: W(T) lies in the
    sector of half-angle arctan ||K||, n = 2..6."""
    rng = philox(seed)
    n = int(rng.integers(2, 7))
    a = complex_gaussian((n, n), rng)
    h = a.conj().T @ a + 0.1 * np.eye(n)
    k = a + a.conj().T
    k *= rng.uniform(0.1, 2.0) / np.linalg.norm(k, 2)
    w, v = np.linalg.eigh(h)
    root = (v * np.sqrt(w)) @ v.conj().T
    return h + 1j * (root @ k @ root)


def touching(seed):
    """U* (extremal_2x2(alpha) + 0) U: W(T) touches both rays of the sector
    and H is singular when the zero block is present."""
    rng = philox(seed)
    alpha = rng.uniform(0.2, math.pi / 2)
    n = 2 + int(rng.integers(0, 3))
    t = np.zeros((n, n), dtype=complex)
    t[:2, :2] = sr.extremal_2x2(alpha)
    u = random_unitary(n, rng)
    return u.conj().T @ t @ u


SECTOR_INPUTS = st.one_of(st.builds(sectorial, SEEDS),
                          st.builds(touching, SEEDS),
                          st.builds(gaussian, SEEDS))
ANGLES = (0.0, 0.3, 0.8, 1.2, math.pi / 2)


class TestSectorInvariance:
    """Containment and the minimal angle ignore scale and similarity."""

    def assert_same_sector(self, t, t2):
        amin = sr.min_sector_angle(t)
        amin2 = sr.min_sector_angle(t2)
        assert (amin is None) == (amin2 is None)
        if amin is not None:
            assert amin2 == pytest.approx(amin, abs=1e-12)
            assert sr.sector_contains(t, amin) and sr.sector_contains(t2, amin)
        for alpha in ANGLES:
            assert (sr.sector_contains(t2, alpha)
                    == sr.sector_contains(t, alpha))

    @PROPERTY
    @given(SECTOR_INPUTS, st.one_of(POWERS_OF_TWO.map(lambda k: 2.0 ** k),
                                    st.sampled_from([1e-200, 1e200])))
    def test_scaling(self, t, factor):
        self.assert_same_sector(t, factor * t)

    @PROPERTY
    @given(SECTOR_INPUTS, SEEDS)
    def test_unitary_similarity(self, t, useed):
        u = random_unitary(t.shape[0], philox(useed))
        self.assert_same_sector(t, u.conj().T @ t @ u)
