"""Tests for numerical range geometry."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sector_radius as sr
from sector_radius import numrange
from sector_radius.numrange import _PENCIL_ENTRIES, _support_values

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


class TestNewtonRefinement:
    """The scan peaks are refined by safeguarded Newton ascent: a few
    sweeps on generic input, bisection on flat or tied support functions."""

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_few_sweeps(self, n, monkeypatch):
        # one sweep of the 1024-angle scan, then one per Newton step; the
        # golden section took 49
        sweeps = []

        def counting(*args):
            sweeps.append(args)
            return real(*args)

        real = numrange._pencils
        monkeypatch.setattr(numrange, "_pencils", counting)
        for seed in range(5):
            sweeps.clear()
            sr.numerical_radius(complex_gaussian((n, n), philox(10 * n + seed)))
            assert len(sweeps) <= 1 + 6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, w", [
        (np.zeros((2, 2)), 0.0),
        (2j * np.eye(2), 2.0),
        (np.eye(3), 1.0),
        (np.diag([1.0, 1.0], k=1), math.cos(math.pi / 4)),
        ([[0, 1], [0, 0]], 0.5),
        (np.diag([1, -1, 1j, -1j]), 1.0),
        ([[1e-8, 1], [0, 1e-8]], 0.5 + 1e-8),
    ], ids=["zero", "2i-identity", "identity", "jordan", "shift",
            "diag-units", "near-flat"])
    def test_flat_and_tied_inputs(self, t, w):
        # tied top eigenvalues everywhere (0, 2i I, I), a constant support
        # function (the Jordan block, the shift), a top eigenvalue that
        # changes hands at ties (diag) and f(t) = 1/2 + 1e-8 cos(t)
        assert sr.numerical_radius(t) == pytest.approx(w, rel=1e-14, abs=0.0)


def mp_radius(t):
    """w(T) to about 35 digits, for small n and a smooth maximum: the
    largest support value at the roots of f'(t) = v* (-sin(t) H + cos(t) G) v
    that mpmath finds in the brackets of the three highest peaks of a
    4096-angle scan."""
    n, m = t.shape[0], 4096
    h, g = (t + t.conj().T) / 2, (t - t.conj().T) / 2j
    th = 2 * math.pi * np.arange(m) / m
    vals = np.linalg.eigvalsh(np.cos(th)[:, None, None] * h
                              + np.sin(th)[:, None, None] * g)[:, -1]
    peaks = np.flatnonzero((vals >= np.roll(vals, 1))
                           & (vals >= np.roll(vals, -1)))
    with mpmath.workdps(40):
        hm, gm = mpmath.matrix(h.tolist()), mpmath.matrix(g.tolist())

        def top(a):
            e, q = mpmath.eigh(mpmath.cos(a) * hm + mpmath.sin(a) * gm)
            k = max(range(n), key=lambda i: e[i])
            return e[k], q[:, k]

        def slope(a):
            v = top(a)[1]
            dp = -mpmath.sin(a) * hm + mpmath.cos(a) * gm
            return mpmath.re((v.transpose_conj() * dp * v)[0])

        step = 2 * mpmath.pi / m
        roots = [mpmath.findroot(slope, (k * step - step, k * step + step),
                                 solver="illinois")
                 for k in peaks[np.argsort(-vals[peaks])][:3]]
        return float(max(top(a)[0] for a in roots))


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_mpmath(self, seed):
        t = complex_gaussian((2 + seed % 3,) * 2, philox(300 + seed))
        assert sr.numerical_radius(t) == pytest.approx(
            mp_radius(t), rel=1e-14, abs=0.0)


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
    def test_pruned_grid_matches_unpruned_across_scales(self, n):
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

    def test_near_flat_support(self):
        # f(t) = 1/2 + 1e-8 cos(t): whole groups of blocks fall under the
        # value at t = 0 and are all skipped
        t = np.array([[1e-8, 1.0], [0.0, 1e-8]])
        r = sr.grid_radius(t, 10 ** 6)
        assert r == self.unpruned(t, 10 ** 6)
        assert r == pytest.approx(0.5 + 1e-8, rel=1e-15, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_matrix(self, n):
        assert sr.grid_radius(np.zeros((n, n)), 10 ** 6) == 0.0

    def test_radius_matches_coarse_grid_at_n9(self):
        t = complex_gaussian((9, 9))
        assert abs(sr.numerical_radius(t) - sr.grid_radius(t, 20_000)) <= 1e-5


def traced_peak_mb(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


class TestFlatMemory:
    """Support sweeps work in one fixed pencil workspace, so their memory
    does not grow with the number of angles or with n."""

    def test_grid_radius_on_flat_support(self):
        # the shift's support function is constant: every angle is evaluated
        peak = traced_peak_mb(lambda: sr.grid_radius([[0, 1], [0, 0]], 10 ** 6))
        assert peak <= 8

    @pytest.mark.parametrize("n", [50, 150])
    def test_radius(self, n):
        # the scan and the Newton sweeps both build pencils slice by slice
        t = complex_gaussian((n, n), philox(n))
        assert traced_peak_mb(lambda: sr.numerical_radius(t)) <= 8

    @pytest.mark.parametrize("n", [2, 3])
    def test_sliced_sweep_matches_single_angles(self, n):
        h, g = sr.cartesian_decompose(complex_gaussian((n, n), philox(n)))
        thetas = philox(100 + n).uniform(-7.0, 7.0,
                                         3 * _PENCIL_ENTRIES // (n * n) + 5)
        single = [_support_values(h, g, thetas[i:i + 1])[0]
                  for i in range(thetas.size)]
        assert np.array_equal(_support_values(h, g, thetas), single)


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
        # at 1e-300 the squared axes underflow unless they are rescaled,
        # and an absolute cut on the support norm would return the centre
        for _ in range(10):
            t = complex_gaussian((2, 2))
            samples = sr.boundary_points(t, 90)
            for scale in (1.0, 1e-300):
                desc = sr.ellipse_2x2(scale * t)
                for s in samples:
                    ref = sr.ellipse_support_point(desc, s.theta) / scale
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


def sectorial(seed, n=None):
    """H + i H^{1/2} K H^{1/2} with H positive definite: W(T) lies in the
    sector of half-angle arctan ||K||, n = 2..6 unless given."""
    rng = philox(seed)
    n = int(rng.integers(2, 7)) if n is None else n
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


def partial_kernel(seed):
    """U* (0_m + sectorial block + i G) U with H singular on the first m
    coordinates; G acts on ker H (within it, or only into the range of H)
    or vanishes there, n = 2..6."""
    rng = philox(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, n))
    t = np.zeros((n, n), dtype=complex)
    t[m:, m:] = sectorial(int(rng.integers(0, 2 ** 32)), n - m)
    kind = int(rng.integers(0, 3))
    if kind:
        g = complex_gaussian((n, n), rng)
        g = g + g.conj().T
        if kind == 2:
            g[:m, :m] = 0.0
            g[m:, m:] = 0.0
        t += 0.3j * g
    u = random_unitary(n, rng)
    return u.conj().T @ t @ u


SECTOR_INPUTS = st.one_of(st.builds(sectorial, SEEDS),
                          st.builds(touching, SEEDS),
                          st.builds(gaussian, SEEDS),
                          st.builds(partial_kernel, SEEDS))
ANGLES = (0.0, 0.3, 0.8, 1.2, math.pi / 2)


def eig_sector_contains(t, alpha):
    """Reference containment: sin(alpha) H +- cos(alpha) G positive
    semidefinite, and H too at alpha = 0, each to -1e-10 ||T||_F."""
    h, g = sr.cartesian_decompose(t)
    cut = -1e-10 * np.linalg.norm(t)
    pencils = [math.sin(alpha) * h + sign * math.cos(alpha) * g
               for sign in (1.0, -1.0)]
    if alpha == 0.0:
        pencils.append(h)
    return all(np.linalg.eigvalsh(m)[0] >= cut for m in pencils)


def eig_min_sector_angle(t, scale=None):
    """Reference minimal angle: None unless H >= -cut; pi/2 when G maps
    ker H anywhere; else split ker H off and recurse, down to
    arctan of the spectral radius of H^{-1/2} G H^{-1/2}."""
    scale = np.linalg.norm(t) if scale is None else scale
    h, g = sr.cartesian_decompose(t)
    w, v = np.linalg.eigh(h)
    cut = 1e-10 * scale
    if w[0] < -cut:
        return None
    kernel = w <= cut
    if not kernel.any():
        inv_root = (v / np.sqrt(w)) @ v.conj().T
        prod = inv_root @ g @ inv_root
        return math.atan(np.abs(np.linalg.eigvalsh(
            (prod + prod.conj().T) / 2.0)).max())
    if kernel.all():
        return 0.0 if np.linalg.norm(g, 2) <= cut else math.pi / 2
    k, q = v[:, kernel], v[:, ~kernel]
    if (np.linalg.norm(k.conj().T @ g @ k, 2) > cut
            or np.linalg.norm(q.conj().T @ g @ k, 2) > cut):
        return math.pi / 2
    return eig_min_sector_angle(q.conj().T @ t @ q, scale)


class TestSectorOracles:
    """The support-value containment test and the one-congruence minimal
    angle agree with the eigenvalue formulations they replace."""

    @PROPERTY
    @given(SECTOR_INPUTS)
    def test_against_eigenvalue_formulations(self, t):
        amin = sr.min_sector_angle(t)
        ref = eig_min_sector_angle(t)
        assert (amin is None) == (ref is None)
        if amin is not None:
            assert amin == pytest.approx(ref, abs=1e-13)
        for alpha in ANGLES:
            assert sr.sector_contains(t, alpha) == eig_sector_contains(t, alpha)

    def test_kernel_kinds(self):
        # each kind of partial kernel occurs: G within ker H, G from ker H
        # into the range only (both pi/2), and G zero on ker H
        answers = {sr.min_sector_angle(partial_kernel(seed))
                   for seed in range(40)}
        assert math.pi / 2 in answers
        assert any(a is not None and a < math.pi / 2 for a in answers)


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
