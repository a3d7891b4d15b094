"""Tests for numerical range geometry."""

import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st

import sector_radius as sr
from helpers import (EXTREME_BINADES, POWERS_OF_TWO, PROPERTY, SEEDS,
                     clustered_normal, complex_gaussian, direct_sum, philox,
                     random_unitary, sectorial_sample, to_binade)
from sector_radius import numrange, tolerances
from sector_radius.numrange import _PENCIL_ENTRIES, _support_values


def decoy_matrix(m):
    """Normal 13x13 matrix: twelve eigenvalues of modulus 1 - 1e-6 on angles
    of the m-angle grid and one of modulus 1 half a grid step off it, so
    w = 1 while every grid angle reads at most 1 - 1e-6."""
    angles = 2 * math.pi / m * np.r_[m // 13 * np.arange(1, 13), 0.5]
    moduli = np.r_[np.full(12, 1 - 1e-6), 1.0]
    u = random_unitary(13, philox(13))
    return u.conj().T @ np.diag(moduli * np.exp(1j * angles)) @ u


def counting_sweeps(monkeypatch):
    """Record the angles of every support sweep (`_pencils` call)."""
    sweeps = []
    real = numrange._pencils

    def counting(*args):
        sweeps.append(args[2])
        return real(*args)

    monkeypatch.setattr(numrange, "_pencils", counting)
    return sweeps


def scan_and_newton(sweeps):
    """The sweeps of one recorded radius after its first, the support call
    at 0 and pi/2 that reads the Bendixson rectangle (none at n <= 2)."""
    if sweeps:
        assert sweeps[0].tolist() == [0.0, math.pi / 2]
    return sweeps[1:]


def full_scan_radius(t):
    """w(T) at n >= 3 with nothing skipped and no code of the library's:
    `eigvalsh` at all 1024 scan angles, then a plain safeguarded Newton
    ascent on f(t) = l_max(cos(t) H + sin(t) G) from every scan peak f_k
    with f_k / cos(pi / 1024) + n eps ||T||_F > max f, one angle at a time.
    Each starts at the vertex of the parabola through f_{k-1}, f_k and
    f_{k+1} in the bracket of the two neighbouring angles, steps by
    -f' / f'' (f' = v* P' v, f'' = -f + 2 sum |u_j* P' v|^2 / (f - l_j)
    over the eigenvalues l_j apart from f) or bisects, and stops where the
    step, |f'| or the step's predicted rise is at rounding level."""
    n, m = t.shape[0], tolerances.RADIUS_GRID_POINTS
    h, g = (t + t.conj().T) / 2, (t - t.conj().T) / 2j
    step = 2 * math.pi / m
    th = step * np.arange(m)
    vals = np.linalg.eigvalsh(np.cos(th)[:, None, None] * h
                              + np.sin(th)[:, None, None] * g)[:, -1]
    cut = n * np.finfo(float).eps * np.linalg.norm(t)
    best = vals.max()
    for k in roll_peaks(vals, cut):
        left, right = vals[k] - vals[k - 1], vals[k] - vals[(k + 1) % m]
        a, b = step * (k - 1), step * (k + 1)
        x = step * (k + (left - right) / (2 * (left + right))
                    if left + right > 0 else k)
        for _ in range(100):
            w, u = np.linalg.eigh(np.cos(x) * h + np.sin(x) * g)
            c = u.conj().T @ (np.cos(x) * g - np.sin(x) * h) @ u[:, -1]
            f, d1 = w[-1], c[-1].real
            apart = f - w > cut
            d2 = 2 * np.sum(np.abs(c[apart]) ** 2 / (f - w[apart])) - f
            best = max(best, f)
            if d1 >= 0:
                a = x
            else:
                b = x
            d = -d1 / d2 if d2 < 0 else math.inf
            if (min(abs(d), (b - a) / 2) <= tolerances.RADIUS_THETA_TOL
                    or abs(d1) <= cut
                    or d1 * d1 <= 2 * np.finfo(float).eps * abs(f) * -d2):
                break
            x = x + d if 2 * abs(d) <= b - a else (a + b) / 2
    return best


def roll_peaks(vals, cut):
    """Grid indices of a scan's local maxima that pass the sublinear test,
    neighbours taken with `np.roll` over the whole grid."""
    m = vals.size
    return np.flatnonzero((vals >= np.roll(vals, 1))
                          & (vals >= np.roll(vals, -1))
                          & (vals / math.cos(math.pi / m) + cut > vals.max()))


def valued_grid_indices(monkeypatch, points):
    """Record the grid index of every angle `grid_radius` values, one array
    per support sweep."""
    valued = []
    real = numrange._support_values

    def recording(h, g, thetas):
        valued.append(np.rint(thetas * points / (2 * math.pi)).astype(int))
        return real(h, g, thetas)

    monkeypatch.setattr(numrange, "_support_values", recording)
    return valued


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
        t = complex_gaussian((n, n), philox(400 + n))
        for theta in (0.0, 1.1, 3.9):
            s = sr.support_value(t, theta)
            proj = (np.exp(-1j * theta) * s.boundary_point).real
            assert abs(proj - s.support_value) <= 1e-9

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_angle(self, theta):
        with pytest.raises(sr.ParameterError, match="must be finite"):
            sr.support_value(np.diag([1.0, 1.0 + 1j]), theta)


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
        t = complex_gaussian((n, n), philox(410 + n))
        w = sr.numerical_radius(t)
        for phi in (0.4, 1.9, 5.0):
            assert sr.numerical_radius(np.exp(1j * phi) * t) == pytest.approx(
                w, abs=1e-10)

    def test_translation_subadditivity(self):
        t = complex_gaussian((3, 3), philox(420))
        w = sr.numerical_radius(t)
        for c in (0.5, 1 + 2j, -3j):
            assert (sr.numerical_radius(t + c * np.eye(3))
                    <= w + abs(c) + 1e-10)

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_norm_bracket(self, n):
        t = complex_gaussian((n, n), philox(430 + n))
        w = sr.numerical_radius(t)
        norm = sr.operator_norm(t)
        assert w <= norm + 1e-10
        assert norm <= 2 * w + 1e-10


class TestNewtonRefinement:
    """Every scan peak that the sublinear bound cannot rule out is refined
    by safeguarded Newton ascent: a few sweeps on generic, evenly tied or
    kinked input, one on a flat support function."""

    @pytest.mark.parametrize("n, copies", [(2, 1), (3, 1), (4, 1), (5, 1),
                                           (6, 1), (2, 2), (3, 2)],
                             ids=["2", "3", "4", "5", "6", "kron-2", "kron-3"])
    def test_few_sweeps(self, n, copies, monkeypatch):
        # after the rectangle's support call and the 1024-angle scan, one
        # sweep per Newton step: at most 2 from the parabola vertex once a
        # step's predicted rise is an ulp, 3 without that stop, 4 from the
        # grid angle; the golden section took 49.  kron(I, A) ties every
        # eigenvalue, yet f is smooth there, so Newton must not fall back
        # to bisection.  A 2x2 matrix takes no sweep: its radius is read
        # off the ellipse
        sweeps = counting_sweeps(monkeypatch)
        for seed in range(5):
            sweeps.clear()
            a = complex_gaussian((n, n), philox(10 * n + seed))
            sr.numerical_radius(np.kron(np.eye(copies), a))
            if n * copies == 2:
                assert len(sweeps) == 0
            else:
                assert len(scan_and_newton(sweeps)) <= 1 + 2

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("t, w", [
        (np.zeros((2, 2)), 0.0),
        (2j * np.eye(2), 2.0),
        (np.eye(3), 1.0),
        (np.diag([1.0, 1.0], k=1), math.cos(math.pi / 4)),
        ([[0, 1], [0, 0]], 0.5),
        (np.diag([1, -1, 1j, -1j]), 1.0),
        ([[1e-8, 1], [0, 1e-8]], 0.5 + 1e-8),
        (np.zeros((3, 3)), 0.0),
    ], ids=["zero", "2i-identity", "identity", "jordan", "shift",
            "diag-units", "near-flat", "zero-3x3"])
    def test_flat_and_tied_inputs(self, t, w, monkeypatch):
        # tied top eigenvalues everywhere (0, 2i I, I), a constant support
        # function (the Jordan block, the shift), a top eigenvalue that
        # changes hands at ties (diag) and f(t) = 1/2 + 1e-8 cos(t).  Every
        # scan angle of a flat f may be a peak; |f'| <= n eps ||T||_F stops
        # each after one sweep, where bisection took 33
        sweeps = counting_sweeps(monkeypatch)
        assert sr.numerical_radius(t) == pytest.approx(w, rel=1e-14, abs=0.0)
        assert len(scan_and_newton(sweeps)) <= 2

    def test_decoy_between_scan_angles(self):
        # the true peak's neighbours read 1 - 4.7e-6, under twelve decoys of
        # 1 - 1e-6, yet over the decoys' level once divided by cos(pi / m)
        t = decoy_matrix(tolerances.RADIUS_GRID_POINTS)
        assert sr.numerical_radius(t) == pytest.approx(1.0, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_kink_at_a_grid_angle(self, seed, monkeypatch):
        # two unit eigenvalues 0.01 grid steps either side of a grid angle
        # put a kink of f on the scan peak that Newton starts from
        h = 2 * math.pi / tolerances.RADIUS_GRID_POINTS
        lam = np.exp(1j * (300 * h + np.array([0.01, -0.01]) * h))
        u = random_unitary(3, philox(seed))
        t = u @ np.diag(np.r_[lam, 0.1]) @ u.conj().T
        sweeps = counting_sweeps(monkeypatch)
        assert sr.numerical_radius(t) == pytest.approx(1.0, rel=1e-15, abs=0.0)
        assert len(scan_and_newton(sweeps)) <= 6

    def test_two_maxima_in_one_bracket(self):
        # maxima 0.2 and 0.3 steps either side of a kinked grid angle; the
        # parabola vertex starts Newton on the higher one's side
        h = 2 * math.pi / tolerances.RADIUS_GRID_POINTS
        r = math.cos(0.2 * h) / math.cos(0.3 * h)
        lam = [np.exp(1j * (300 + 0.2) * h), r * np.exp(1j * (300 - 0.3) * h),
               0.1]
        u = random_unitary(3, philox(4))
        t = u @ np.diag(lam) @ u.conj().T
        assert sr.numerical_radius(t) == pytest.approx(r, rel=1e-12, abs=0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 2: a bracket holding several maxima follows one of "
        "them; this 7x7 clustered normal reads 1.7e-7 below max |l|"))
    def test_clustered_normal_several_maxima_in_one_bracket(self):
        # seed 2 of test_clustered_normal_radius_is_max_modulus
        rng = philox(2)
        t, w = clustered_normal(int(rng.integers(3, 9)),
                                rng.uniform(0.0, 2 * math.pi), rng)
        assert t.shape == (7, 7)
        assert sr.numerical_radius(t) == pytest.approx(w, rel=1e-12, abs=0.0)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("solved", [[0, 1, 2], [2]],
                             ids=["one-side", "both-sides"])
    def test_cone_edge_peak_starts_on_its_grid_angle(self, solved,
                                                     monkeypatch):
        # the scan leaves the angles outside its window at -inf; a peak on
        # the window's edge has no parabola, so Newton starts on its grid
        # angle
        m = tolerances.RADIUS_GRID_POINTS
        step = 2 * math.pi / m
        h, g = sr.cartesian_decompose(np.diag([np.exp(3.4j * step), 0.5, 0.2]))
        vals = numrange._scan(h, g, m, np.array(solved))
        assert np.isneginf(vals[3]) and vals[2] > vals[1]
        sweeps = counting_sweeps(monkeypatch)
        best = numrange._newton_max(h, g, vals, np.array([2]), 1e-15)
        assert best >= vals[2]
        assert sweeps[0].tolist() == [2 * step]

    @pytest.mark.parametrize("seed", [1279, 4, 16])
    def test_iterates_stay_in_their_brackets(self, seed, monkeypatch):
        # a Newton step over half its bracket bisects instead, so no
        # iterate leaves the two grid steps around its peak; on the
        # clustered normal of seed 1279 an unguarded step lands 1.02 steps
        # from the nearest peak
        rng = philox(seed)
        t, _ = clustered_normal(int(rng.integers(3, 9)),
                                rng.uniform(0.0, 6.28), rng)
        picks = []
        real = numrange._scan_peaks
        monkeypatch.setattr(numrange, "_scan_peaks",
                            lambda *a: picks.append(real(*a)) or picks[-1])
        sweeps = counting_sweeps(monkeypatch)
        sr.numerical_radius(t)
        step = 2 * math.pi / tolerances.RADIUS_GRID_POINTS
        for angles in scan_and_newton(sweeps)[1:]:
            off = (angles[:, None] - step * picks[0] + math.pi) % (2 * math.pi)
            near = np.abs(off - math.pi).min(axis=1)  # to the nearest peak
            assert np.all(near <= step * (1 + 1e-9))

    def test_start_within_half_a_step(self, monkeypatch):
        # the vertex of the parabola through a peak and its two neighbours
        t = complex_gaussian((5, 5), philox(7))
        sweeps = counting_sweeps(monkeypatch)
        sr.numerical_radius(t)
        step = 2 * math.pi / tolerances.RADIUS_GRID_POINTS
        start = scan_and_newton(sweeps)[1]
        off = start / step - np.rint(start / step)
        assert np.all(np.abs(off) <= 0.5) and np.any(off != 0.0)


class TestHalfTurnScan:
    """The scan reads f(t + pi) as -lambda_min at t, so it solves at most
    half of its grid's pencils: those whose angle t or t + pi can hold the
    point of largest modulus inside the Bendixson rectangle."""

    def test_grid_points_even(self):
        # the values at t + pi must land on grid angles
        assert tolerances.RADIUS_GRID_POINTS % 2 == 0

    def test_scan_solves_half_the_grid(self, monkeypatch):
        # W of the 3x3 Jordan block is a disk centred at 0, which reaches
        # its radius in every direction, so the scan keeps every pencil
        sweeps = counting_sweeps(monkeypatch)
        sr.numerical_radius(np.diag([1.0, 1.0], k=1))
        assert (scan_and_newton(sweeps)[0].size
                == tolerances.RADIUS_GRID_POINTS // 2)

    def test_thin_rectangle_solves_its_window(self, monkeypatch):
        # spec(H) = {3, 1, -1} and |G| <= 1e-6: L = 3 - cut is reached only
        # within 2 steps of angle 0, and the 0.5-step margin adds none, so
        # the pencils k = 0, 1, 2, 510 and 511
        u = random_unitary(3, philox(6))
        g = complex_gaussian((3, 3), philox(7))
        h = u @ np.diag([3.0, 1.0, -1.0]) @ u.conj().T
        t = h + 1e-7j * (g + g.conj().T)
        sweeps = counting_sweeps(monkeypatch)
        sr.numerical_radius(t)
        m = tolerances.RADIUS_GRID_POINTS
        assert np.rint(scan_and_newton(sweeps)[0] * m / (2 * math.pi)).tolist(
            ) == [0, 1, 2, 510, 511]

    @pytest.mark.parametrize("n", [2, 3])
    def test_zero_radius_is_positive_zero(self, n):
        # the negated smallest eigenvalue of a zero pencil must not print
        # as -0 on the command line
        w = sr.numerical_radius(np.zeros((n, n)))
        assert w == 0.0 and math.copysign(1.0, w) == 1.0

    @pytest.mark.parametrize("case", ["2", "3", "6", "20", "jordan"])
    @pytest.mark.parametrize("s", [1.0, 2.0 ** 70, 2.0 ** -70, 1e200, 1e-200],
                             ids=["1", "2^70", "2^-70", "1e200", "1e-200"])
    def test_scan_matches_every_grid_angle(self, case, s):
        # n = 2 reads both ends from the closed form, n >= 3 from eigvalsh
        if case == "jordan":
            base = np.diag([1.0, 1.0], k=1)
        else:
            base = complex_gaussian((int(case),) * 2, philox(int(case)))
        h, g = sr.cartesian_decompose(s * base)
        m = tolerances.RADIUS_GRID_POINTS
        direct = _support_values(h, g, 2 * math.pi * np.arange(m) / m)[0]
        bound = 4 * base.shape[0] * np.finfo(float).eps * s * np.linalg.norm(base)
        scan = numrange._scan(h, g, m, np.arange(m // 2))
        assert np.abs(scan - direct).max() <= bound


class TestScanPeaks:
    """The radius picks its Newton starts among the 2|k| scan entries it
    solved, with wrapped neighbours and -inf for unsolved ones; that must
    pick what `np.roll` over the whole 1024-vector picks."""

    M = tolerances.RADIUS_GRID_POINTS

    def scan(self, k, values):
        # a scan that solved the pencils k: values at k and k + m / 2
        vals = np.full(self.M, -np.inf)
        j = np.r_[k, np.asarray(k) + self.M // 2]
        vals[j] = values
        return vals

    def check(self, vals, k, cut=1e-15):
        picked = numrange._scan_peaks(vals, np.asarray(k), cut)
        assert picked.tolist() == roll_peaks(vals, cut).tolist()
        return picked.tolist()

    def test_window_wraps_past_zero(self):
        # solved 0, 1, 2, 510, 511 and their half-turn twins 512..514,
        # 1022, 1023: peaks on 0 and on 511 read 1023 and 512 as neighbours
        k = [0, 1, 2, 510, 511]
        vals = self.scan(k, [1.0, 1 - 1e-7, 0.8, 0.7, 1 - 1e-7,
                             0.5, 0.6, 0.7, 1 - 1e-6, 1 - 5e-7])
        assert self.check(vals, k) == [0, 511]
        vals[1023] = 1 + 1e-7  # now 0 is below its wrapped neighbour
        assert self.check(vals, k) == [511, 1023]

    @pytest.mark.parametrize("k", [[5, 6, 7], [508, 509, 510, 511]],
                             ids=["inside", "before-the-half-turn"])
    def test_peak_on_the_window_edge(self, k):
        # rising to the last solved angle, whose right neighbour is -inf;
        # the half-turn twins fall to theirs
        rise = np.linspace(0.9, 1.0, len(k))
        vals = self.scan(k, np.r_[rise, rise[::-1] - 0.5])
        assert np.isneginf(vals[k[-1] + 1])
        assert self.check(vals, k) == [k[-1]]

    @pytest.mark.parametrize("cut", [0.0, 1e-15])
    def test_flat_scan_ties(self, cut):
        # every solved entry ties with its neighbours: each is a peak of a
        # positive scan; a zero scan passes no sublinear test without a cut
        k = np.arange(100, 140)
        assert len(self.check(self.scan(k, np.ones(2 * k.size)), k, cut)
                   ) == 2 * k.size
        assert len(self.check(self.scan(k, np.zeros(2 * k.size)), k, cut)
                   ) == (0 if cut == 0.0 else 2 * k.size)

    @pytest.mark.parametrize("case", ["jordan", "thin", "gaussian"])
    def test_scans_of_the_radius(self, case, monkeypatch):
        # the scans the radius itself takes: a full flat one, a thin
        # window wrapping past 0, and a Gaussian's window
        scans = []
        real = numrange._scan_peaks
        monkeypatch.setattr(numrange, "_scan_peaks",
                            lambda *a: scans.append(a) or real(*a))
        if case == "jordan":
            t = np.diag([1.0, 1.0], k=1)
        elif case == "thin":
            u = random_unitary(3, philox(6))
            g = complex_gaussian((3, 3), philox(7))
            t = (u @ np.diag([3.0, 1.0, -1.0]) @ u.conj().T
                 + 1e-7j * (g + g.conj().T))
        else:
            t = complex_gaussian((6, 6), philox(8))
        sr.numerical_radius(t)
        (vals, k, cut), = scans
        assert self.check(vals, k, cut)


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
    peaks = roll_peaks(vals, math.inf)  # every local maximum
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


def mp_radius_2x2(t):
    """w(T) of a 2x2 T to about 35 digits, from its support function, the
    top eigenvalue of the Hermitian part of z T, z = e^{-i phi}: f(phi) =
    (Re z(t00 + t11) + hypot(Re z(t00 - t11), |z t01 + conj(z t10)|)) / 2.
    The result is the largest f at the grid peaks of a 256-angle scan and
    at the roots of f' that mpmath finds next to the two highest.  T is
    divided by a power of two first, so f' is of order 1 at any scale."""
    k = math.frexp(float(np.abs(t).max()))[1]
    t = t * 2.0 ** -k
    z = np.exp(-2j * math.pi * np.arange(256) / 256)
    vals = ((z * (t[0, 0] + t[1, 1])).real
            + np.hypot((z * (t[0, 0] - t[1, 1])).real,
                       np.abs(z * t[0, 1] + np.conj(z * t[1, 0])))) / 2
    peaks = roll_peaks(vals, math.inf)  # every local maximum
    with mpmath.workdps(40):
        (a, b), (c, d) = [[mpmath.mpc(x) for x in row] for row in t.tolist()]

        def parts(phi):
            z = mpmath.expj(-phi)
            s, e, o = z * (a + d), z * (a - d), z * b + mpmath.conj(z * c)
            do = -1j * z * b + 1j * mpmath.conj(z * c)
            return s, e, o, do, mpmath.hypot(mpmath.re(e), abs(o))

        def f(phi):
            s, _, _, _, r = parts(phi)
            return (mpmath.re(s) + r) / 2

        def slope(phi):
            s, e, o, do, r = parts(phi)
            bend = (mpmath.re(e) * mpmath.im(e)
                    + mpmath.re(mpmath.conj(o) * do)) / r if r else 0
            return (mpmath.im(s) + bend) / 2

        step = 2 * mpmath.pi / 256
        best = max(f(j * step) for j in peaks)
        for j in peaks[np.argsort(-vals[peaks])][:2]:
            lo, hi = (j - 1) * step, (j + 1) * step
            if slope(lo) > 0 > slope(hi):
                root = mpmath.findroot(slope, (lo, hi), solver="illinois")
                best = max(best, f(root))
        return math.ldexp(float(best), k)


HALF_PI = math.pi / 2


def two_by_two(family, rng):
    """One 2x2 input of the named family, drawn from `rng`."""
    u = random_unitary(2, rng)
    z = complex_gaussian((3,), rng)
    if family == "gaussian":
        return complex_gaussian((2, 2), rng)
    if family == "r_alpha":
        # alpha = pi/2 and theta = alpha each in about half the draws
        alpha = rng.choice([rng.uniform(0.05, HALF_PI), HALF_PI])
        theta = rng.choice([rng.uniform(0.0, alpha), alpha])
        return (z[0] * u.conj().T
                @ sr.r_alpha_matrix(rng.uniform(1.0, 4.0), theta, alpha) @ u)
    if family == "normal":  # W(T) is a segment
        return u.conj().T @ np.diag(z[:2]) @ u
    if family == "disk":  # scalar plus nilpotent, centred at 0 in a third
        c = z[0] * (rng.uniform() < 2 / 3)
        return u.conj().T @ np.array([[c, z[1]], [0, c]]) @ u
    if family == "zero":
        return np.zeros((2, 2))
    if family == "near_scalar":
        return np.eye(2) + 1e-8 * complex_gaussian((2, 2), rng)
    if family == "thin":  # a segment widened by 1e-13 .. 1e-4
        return u.conj().T @ (np.diag(z[:2]) + 10.0 ** rng.uniform(-13, -4)
                             * complex_gaussian((2, 2), rng)) @ u
    return to_binade(complex_gaussian((2, 2), rng), family)[0]


class TestTwoByTwoRadius:
    """At n = 2 the radius is the largest |z| on the elliptical range, with
    no support sweep and no Newton step."""

    @pytest.mark.parametrize("family, count, seed", [
        ("gaussian", 50, 600), ("r_alpha", 50, 601), ("normal", 20, 602),
        ("disk", 20, 603), ("near_scalar", 20, 604), ("thin", 20, 605),
        ("zero", 1, 606), (1000, 10, 607), (-1000, 10, 608)])
    def test_matches_mpmath(self, family, count, seed):
        # 201 inputs; the binades put the largest entry near 2^1000, 2^-1000.
        # Scaling by 2^-+40 must scale the result exactly
        rng = philox(seed)
        for _ in range(count):
            t = two_by_two(family, rng)
            w = sr.numerical_radius(t)
            assert w == pytest.approx(mp_radius_2x2(t), rel=1e-14, abs=0.0)
            factor = 2.0 ** (-40 if np.abs(t).max() > 1 else 40)
            assert sr.numerical_radius(factor * t) == factor * w

    def test_small_entries_at_small_scale(self):
        # off-diagonal entries 2^-80 .. 2^-20 of the largest: at 2^-500 the
        # products in the closed form underflow unless T is normalized
        rng = philox(650)
        for _ in range(20):
            t = np.eye(2) + 1e-9 * complex_gaussian((2, 2), rng)
            t[[0, 1], [1, 0]] *= 2.0 ** -rng.uniform(20, 80, 2)
            assert sr.numerical_radius(2.0 ** -500 * t) == (
                2.0 ** -500 * sr.numerical_radius(t))

    def test_no_sweep_and_no_newton(self, monkeypatch):
        sweeps = counting_sweeps(monkeypatch)
        monkeypatch.setattr(numrange, "_newton_max", None)  # a call raises
        rng = philox(640)
        for family in ("gaussian", "r_alpha", "normal", "disk", "thin"):
            sr.numerical_radius(two_by_two(family, rng))
        assert sweeps == []


class TestHighPrecisionOracle:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_mpmath(self, seed):
        t = complex_gaussian((2 + seed % 3,) * 2, philox(300 + seed))
        assert sr.numerical_radius(t) == pytest.approx(
            mp_radius(t), rel=1e-14, abs=0.0)


class TestGridOracle:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_matches_refined_radius(self, n):
        t = complex_gaussian((n, n), philox(440 + n))
        assert abs(sr.numerical_radius(t)
                   - sr.grid_radius(t, 1_000_000)) <= 1e-6

    @staticmethod
    def unpruned(t, m):
        h, g = sr.cartesian_decompose(t)
        thetas = 2 * math.pi * np.arange(m) / m
        return float(_support_values(h, g, thetas)[0].max())

    @pytest.mark.parametrize("n", [2, 3, 4, 6, 8, 9])
    def test_pruned_grid_matches_unpruned_across_scales(self, n):
        # the pruned grid against direct Hermitian eigenvalues at every grid
        # angle, at scales where an absolute floor or an underflow would show
        t = complex_gaussian((n, n), philox(n))
        for s in (1.0, 2.0 ** -70, 1e-20, 1e20):
            assert sr.grid_radius(s * t, 4096) / s == pytest.approx(
                self.unpruned(s * t, 4096) / s, rel=1e-14, abs=0.0)

    @pytest.mark.parametrize("e", [1022, -1021])
    @pytest.mark.parametrize("n", [2, 3])
    def test_extreme_binades(self, n, e):
        # largest entry in [2^1021, 2^1022): w(T) <= ||T||_F < 2^1024 stays
        # finite for n <= 3
        t = complex_gaussian((n, n), philox(n))
        big, k = to_binade(t, e)
        assert math.ldexp(sr.grid_radius(big, 4096), -k) == pytest.approx(
            sr.grid_radius(t, 4096), rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("case", ["decoy", "jordan"])
    def test_hard_inputs_match_unpruned_grid(self, case):
        # decoy: twelve eigenvalues of modulus 1 - 1e-6 on grid angles and
        # the peak of modulus 1 half a step off the grid; jordan: W(T) is a
        # disk centred at 0, so the support function is constant and no
        # block may be skipped
        m = 2 ** 16
        if case == "decoy":
            t = decoy_matrix(m)
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

    def test_one_by_one(self):
        assert sr.grid_radius([[3 + 4j]], 10 ** 6) == 5.0

    def test_too_few_points(self):
        with pytest.raises(sr.ParameterError, match="at least 8 points"):
            sr.grid_radius(np.eye(2), 7)

    @pytest.mark.parametrize("points", [1000.7, math.nan, math.inf])
    def test_rejects_non_integral_points(self, points):
        with pytest.raises(sr.ParameterError, match="integral count"):
            sr.grid_radius(B1, points)

    def test_integral_float_points(self):
        assert sr.grid_radius(B1, 1e6) == sr.grid_radius(B1, 10 ** 6)

    @pytest.mark.parametrize("points", [1e20, 2 ** 53 + 1, 10 ** 30])
    def test_rejects_more_than_two_to_the_53_points(self, points):
        # np.arange past int64 made an object array that np.cos rejected
        with pytest.raises(sr.ParameterError, match="at most 2"):
            sr.grid_radius([[1, 2], [0, 1]], points)

    @pytest.mark.parametrize("case", [2, 3, 5, 7, "decoy", "jordan",
                                      "near_flat"])
    def test_no_angle_valued_twice(self, case, monkeypatch):
        # a child block takes its end values from its siblings and its
        # parent, so every grid index reaches `_support_values` once at most
        m = 2 ** 16 if case in ("decoy", "jordan") else 10 ** 6
        if case == "decoy":
            t = decoy_matrix(m)
        elif case == "jordan":
            t = np.diag([1.0, 1.0], k=1)
        elif case == "near_flat":
            t = np.array([[1e-8, 1.0], [0.0, 1e-8]])
        else:
            t = complex_gaussian((case, case), philox(480 + case))
        valued = valued_grid_indices(monkeypatch, m)
        sr.grid_radius(t, m)
        idx = np.concatenate(valued)
        assert np.unique(idx).size == idx.size

    def test_flat_support_values_each_angle_once(self, monkeypatch):
        # the shift's support function is constant: no block is skipped
        valued = valued_grid_indices(monkeypatch, 10 ** 6)
        assert sr.grid_radius([[0, 1], [0, 0]], 10 ** 6) == pytest.approx(
            0.5, rel=1e-15, abs=0.0)
        idx = np.concatenate(valued)
        assert idx.size == 10 ** 6
        assert np.array_equal(np.sort(idx), np.arange(10 ** 6))

    @pytest.mark.parametrize("points",
                             [4096, 4097, 65_537, 999_983, 10 ** 6 + 1])
    def test_truncated_last_block(self, points):
        # the top width 16^j does not divide `points` (but 4096, which takes
        # the unmasked level only), so the last top block ends early, at
        # angle 0; at 65,537 it is one angle long.  f(t) = cos(t - phi) near
        # its peak phi, 0.4 grid steps after the last grid angle and 0.6
        # before 0, so each last child needs f(0) as its end value to be kept
        phi = 2 * math.pi * (points - 0.6) / points
        peaked = np.diag([np.exp(1j * phi), 0.5j * np.exp(1j * phi)])
        cases = [complex_gaussian((2, 2), philox(490)), peaked]
        if points in (4096, 65_537):  # the degenerate 2x2 ranges
            gauss = complex_gaussian((2, 2), philox(491))
            cases += [np.array([[0, 1], [0, 0]]),  # a disk centred at 0
                      np.array([[1, 2j], [2j, 1]]),  # normal: a segment
                      np.array([[2, 1 - 1j], [1 + 1j, -1]]),  # Hermitian
                      (1.5 - 0.5j) * np.eye(2), np.diag([1j, -3.0]),
                      2.0 ** 600 * gauss, 2.0 ** -600 * gauss]
        for t in cases:
            assert sr.grid_radius(t, points) == self.unpruned(t, points)

    def test_radius_matches_coarse_grid_at_n9(self):
        t = complex_gaussian((9, 9), philox(450))
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

    @pytest.mark.parametrize("n, mb", [(50, 1.5), (150, 8)], ids=["50", "150"])
    def test_radius(self, n, mb):
        # the scan and the Newton sweeps both build pencils slice by slice;
        # at n = 50 the pencil pair of 2^14 entries peaks at 0.88 MB, where
        # 2^16 entries peaked at 2.62 MB
        t = complex_gaussian((n, n), philox(n))
        assert traced_peak_mb(lambda: sr.numerical_radius(t)) <= mb

    @pytest.mark.parametrize("n", [2, 3])
    def test_sliced_sweep_matches_single_angles(self, n):
        h, g = sr.cartesian_decompose(complex_gaussian((n, n), philox(n)))
        thetas = philox(100 + n).uniform(-7.0, 7.0,
                                         3 * _PENCIL_ENTRIES // (n * n) + 5)
        single = [_support_values(h, g, thetas[i:i + 1])[0, 0]
                  for i in range(thetas.size)]
        assert np.array_equal(_support_values(h, g, thetas)[0], single)


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
        t = complex_gaussian((3, 3), philox(460))
        pts = sr.boundary_points(t, 64)
        # every polygon vertex satisfies all supporting halfplanes
        for s in pts:
            for q in pts:
                proj = (np.exp(-1j * s.theta) * q.boundary_point).real
                assert proj <= s.support_value + 1e-9

    def test_too_few_points(self):
        with pytest.raises(sr.ParameterError):
            sr.boundary_points(np.eye(2), 2)

    @pytest.mark.parametrize("m", [8.9, math.nan, math.inf])
    def test_rejects_non_integral_count(self, m):
        with pytest.raises(sr.ParameterError, match="integral count"):
            sr.boundary_points(np.eye(2), m)

    def test_integral_float_count(self):
        assert sr.boundary_points(B1, 8.0) == sr.boundary_points(B1, 8)

    def test_support_point_near_overflow(self):
        # |Re <Tv, v>| reaches 1.7e308 here, which the Rayleigh product on
        # the unscaled T overflowed; on T / 2^1023 it is exact, and T / 4
        # scales to the same matrix
        t = np.array([[1.7e308, 1.7e308], [0.0, -1.7e308]])
        s = sr.support_value(t, 7 * math.pi / 4)
        quarter = sr.support_value(t / 4, 7 * math.pi / 4)
        assert math.isfinite(s.boundary_point.real)
        assert s.support_value == 4 * quarter.support_value
        assert s.boundary_point == 4 * quarter.boundary_point


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

    def test_support_points_on_ellipse(self):
        # at 1e-300 the squared axes underflow unless they are rescaled,
        # and an absolute cut on the support norm would return the centre
        rng = philox(470)
        for _ in range(10):
            t = complex_gaussian((2, 2), rng)
            samples = sr.boundary_points(t, 90)
            for scale in (1.0, 1e-300):
                desc = sr.ellipse_2x2(scale * t)
                for s in samples:
                    ref = sr.ellipse_support_point(desc, s.theta) / scale
                    assert abs(ref - s.boundary_point) <= 1e-8

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_support_point_rejects_non_finite_angle(self, theta):
        e = sr.ellipse_2x2([[1, 1], [0, 0.3]])
        with pytest.raises(sr.ParameterError, match="must be finite"):
            sr.ellipse_support_point(e, theta)

    def test_rejects_wrong_size(self):
        with pytest.raises(sr.MatrixShapeError):
            sr.ellipse_2x2(np.eye(3))

    def test_coincident_foci(self):
        # a Jordan block: W(T) is the disk of radius 1/2 about 1
        e = sr.ellipse_2x2([[1, 1], [0, 1]])
        assert e.focus1 == e.focus2 == 1.0
        assert e.axis_phase == 0.0
        assert sr.ellipse_support_point(e, math.pi / 2) == pytest.approx(
            1 + 0.5j, abs=1e-15)

    @pytest.mark.parametrize("z", [1.0, 1 + 2j])
    def test_jordan_block_minor_axis(self, z):
        # W(z [[1, 1e-8], [0, 1]]) is the disk of radius |z| 5e-9 about z,
        # which the cancelling radicand tr(A*A) - |l1|^2 - |l2|^2 reads as 0
        e = sr.ellipse_2x2(z * np.array([[1.0, 1e-8], [0.0, 1.0]]))
        assert e.focus1 == e.focus2 == z
        assert e.minor_axis_length == pytest.approx(abs(z) * 1e-8, rel=1e-15,
                                                    abs=0.0)
        assert e.major_axis_length == e.minor_axis_length

    @pytest.mark.parametrize("gap", [1e-7, 1e-9])
    def test_close_eigenvalues_segment(self, gap):
        # a normal matrix: the minor axis is 0 (the radicand reads 1.5e-8
        # at gap 1e-7), and the foci keep their gap
        lo, hi = 1.0 - gap, 1.0 + gap
        e = sr.ellipse_2x2(np.diag([hi, lo]))
        assert e.minor_axis_length == 0.0
        assert (e.focus1, e.focus2) == pytest.approx((lo, hi), abs=2.3e-16)
        assert e.major_axis_length == pytest.approx(hi - lo, rel=1e-15, abs=0.0)

    def test_one_point_ellipse(self):
        e = sr.ellipse_2x2(2j * np.eye(2))
        assert e.major_axis_length == 0.0
        assert sr.ellipse_support_point(e, 0.7) == 2j


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

    @pytest.mark.parametrize("alpha", [0.3, math.pi / 3, 1.5])
    def test_normal_family_member_tan_eigenvalues(self, alpha):
        # diag(e^{ia}, e^{-ia}) has H^{-1/2} G H^{-1/2} = diag(tan a, -tan a)
        assert sr.min_sector_angle(sr.r_alpha_matrix(1.0, alpha, alpha)) \
            == pytest.approx(alpha, abs=1e-12)

    def test_family_member_near_half_plane(self):
        # lambda_min(H) = 7.4e-11 lies under PSD_RTOL * ||T||_F = 2e-10,
        # yet far above the rounding level, and G acts on its eigenvector
        a = math.pi / 2 - 8.71e-6
        assert sr.min_sector_angle(sr.r_alpha_matrix(1.72, 1.1069, a)) \
            == pytest.approx(a, abs=1e-9)

    def test_family_members_up_to_the_half_plane(self):
        # pi/2 - alpha log-uniform in [1e-5, 1]: lambda_min(H), of order
        # (pi/2 - alpha)^2 ||T||_F, falls under PSD_RTOL * ||T||_F for the
        # members within about 1.4e-5 of pi/2
        rng = philox(750)
        err = 0.0
        for _ in range(8000):
            a = math.pi / 2 - 10.0 ** rng.uniform(-5.0, 0.0)
            t = sr.r_alpha_matrix(rng.uniform(1.0, 2.0), rng.uniform(0.0, a), a)
            err = max(err, abs(sr.min_sector_angle(t) - a))
        assert err <= 1e-10

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 3: lambda_min(H) nears the kernel cut; the angle is "
        "off by 1.1e-9 at pi/2 - 1e-7, and below that most members read "
        "pi/2 exactly"))
    def test_family_members_nearest_the_half_plane(self):
        # pi/2 - alpha log-uniform in [1e-9, 1e-5], under the bound above
        rng = philox(751)
        err = 0.0
        for _ in range(2000):
            a = math.pi / 2 - 10.0 ** rng.uniform(-9.0, -5.0)
            t = sr.r_alpha_matrix(rng.uniform(1.0, 2.0), rng.uniform(0.0, a), a)
            err = max(err, abs(sr.min_sector_angle(t) - a))
        assert err <= 1e-10

    def test_kernel_splits_off(self):
        t = direct_sum(np.zeros((1, 1)), sr.extremal_2x2(0.6))
        assert sr.min_sector_angle(t) == pytest.approx(0.6, abs=1e-9)
        # rotated and rescaled, the kernel's eigenvalues in H read up to
        # 0.43 n eps ||T||_F, under the cut of 4 n eps ||T||_F
        for seed in range(400):
            rng = philox(seed)
            alpha, m = rng.uniform(0.05, math.pi / 2 - 0.05), rng.integers(1, 4)
            u = random_unitary(m + 2, rng)
            t = direct_sum(np.zeros((m, m)), sr.extremal_2x2(alpha))
            t = 2.0 ** int(rng.integers(-40, 41)) * (u.conj().T @ t @ u)
            assert sr.min_sector_angle(t) == pytest.approx(alpha, abs=1e-9)

    def test_consistency_with_sector_contains(self):
        rng = philox(5)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            a = complex_gaussian((n, n), rng)
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

    @PROPERTY
    @given(SEEDS, st.floats(0.01, math.pi / 2 - 1e-3), st.booleans())
    def test_family_members_consistent_with_sector_contains(self, seed, alpha,
                                                            tail):
        # the angle min_sector_angle returns passes sector_contains and
        # 1e-6 less fails.  Near pi/2 the sector test's PSD_RTOL cut still
        # forgives a step of 1e-6 below alpha (the member at
        # pi/2 - 8.71e-6 stays inside at alpha - 8e-6), so alpha stays 1e-3
        # away from it
        rng = philox(seed)
        t = sr.r_alpha_matrix(rng.uniform(1.0, 3.0), rng.uniform(0.0, alpha),
                              alpha)
        if tail:  # a small normal block inside the sector, all conjugated
            m = int(rng.integers(1, 4))
            lam = rng.uniform(0.0, 0.3, m) * np.exp(
                1j * rng.uniform(-alpha, alpha, m))
            u = random_unitary(m + 2, rng)
            t = u.conj().T @ direct_sum(t, np.diag(lam)) @ u
        a = sr.min_sector_angle(t)
        assert sr.sector_contains(t, a + 1e-9)
        assert not sr.sector_contains(t, a - 1e-6)

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

    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP items 2 and 4: a Newton bracket holding several maxima of "
        "f follows one of them; 91 of seeds 0-199 read up to 1.4e-6 low"))
    @settings(PROPERTY, phases=[Phase.generate])  # no shrinking while it fails
    @given(SEEDS)
    def test_clustered_normal_radius_is_max_modulus(self, seed):
        rng = philox(seed)
        t, w = clustered_normal(int(rng.integers(3, 9)),
                                rng.uniform(0.0, 2 * math.pi), rng)
        assert sr.numerical_radius(t) == pytest.approx(w, rel=1e-12, abs=0.0)

    @PROPERTY
    @given(SEEDS)
    def test_normal_radius_is_max_modulus(self, seed):
        """w(U diag(l) U*) = max |l|, with the n = 3..8 angles of l at least
        pi / n apart: an oracle that needs no scan."""
        rng = philox(seed)
        n = int(rng.integers(3, 9))
        angles = 2 * math.pi * (np.arange(n) + rng.uniform(0.0, 0.5, n)) / n
        lam = rng.uniform(0.2, 1.0, n) * np.exp(
            1j * (angles + rng.uniform(0.0, 2 * math.pi)))
        u = random_unitary(n, rng)
        assert sr.numerical_radius(u @ np.diag(lam) @ u.conj().T) \
            == pytest.approx(float(np.abs(lam).max()), rel=1e-13, abs=0.0)

    @PROPERTY
    @given(SEEDS)
    def test_block_sum_radius_is_max_of_blocks(self, seed):
        """w(A + B) = max(w(A), w(B)) for a direct sum of Gaussians of
        dimension 1..6."""
        rng = philox(seed)
        a, b = (complex_gaussian((int(rng.integers(1, 7)),) * 2, rng)
                for _ in range(2))
        b *= rng.uniform(0.5, 2.0)
        assert sr.numerical_radius(direct_sum(a, b)) == pytest.approx(
            max(sr.numerical_radius(a), sr.numerical_radius(b)),
            rel=1e-13, abs=0.0)

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


def check_against_full_scan(t):
    assert sr.numerical_radius(t) == pytest.approx(full_scan_radius(t),
                                                   rel=1e-13, abs=0.0)


class TestSectorCone:
    """Sectorial inputs: the scan solves only the pencils whose angle t or
    t + pi can hold the point of largest modulus inside the Bendixson
    rectangle spec(H) x spec(G), plus its margin, and reads no sector; the
    radius must equal that of the full 512-pencil scan."""

    @PROPERTY
    @given(SEEDS, st.integers(3, 8), st.floats(0.0, math.pi / 2 - 1e-8))
    def test_sectorial_samples(self, seed, n, alpha):
        check_against_full_scan(sectorial_sample(n, alpha, philox(seed)))

    @PROPERTY
    @given(SEEDS, st.sampled_from([0.01, math.pi / 6, math.pi / 3,
                                   math.pi / 2]))
    def test_conjugated_extremal_sums(self, seed, alpha):
        # the normal block's largest modulus lies on either side of the
        # extremal block's radius 1 / tau(alpha)
        rng = philox(seed)
        m = int(rng.integers(1, 5))
        lam = rng.uniform(0.0, 1.1, m) * np.exp(
            1j * rng.uniform(-alpha, alpha, m))
        u = random_unitary(m + 2, rng)
        check_against_full_scan(
            u.conj().T @ direct_sum(sr.extremal_2x2(alpha), np.diag(lam)) @ u)

    @PROPERTY
    @given(SEEDS, st.floats(-1.4, 1.4))
    def test_clustered_normal(self, seed, center):
        rng = philox(seed)
        t, _ = clustered_normal(int(rng.integers(3, 9)), center, rng)
        check_against_full_scan(t)

    @pytest.mark.parametrize("t", [
        np.array([[2.0, 1j, 0.0], [-1j, 1.0, 0.0], [0.0, 0.0, 0.0]]),
        np.eye(3),
    ], ids=["psd-hermitian", "identity"])
    def test_zero_angle(self, t):
        # the zero 3x3, whose negation lies in a sector too, is
        # TestHalfTurnScan.test_zero_radius_is_positive_zero's
        assert sr.min_sector_angle(t) == 0.0
        check_against_full_scan(t)

    def test_negative_hermitian_part_inside_the_slack(self):
        # lambda_min(H) = -3e-11 lies above -PSD_RTOL ||T||_F, so W(T)
        # pokes out of the sector that min_sector_angle reads, and the
        # rectangle crosses the imaginary axis
        u = random_unitary(3, philox(9))
        t = direct_sum(np.array([[-3e-11]]), sr.extremal_2x2(0.6))
        t = u.conj().T @ t @ u
        lo = np.linalg.eigvalsh(sr.cartesian_decompose(t)[0])[0]
        assert -tolerances.PSD_RTOL * np.linalg.norm(t) < lo < 0.0
        assert sr.min_sector_angle(t) == pytest.approx(0.6, abs=1e-9)
        check_against_full_scan(t)


class TestScanWindow:
    """The scan solves only the pencils whose angle can hold the point of
    largest modulus inside the Bendixson rectangle, grown to contain 0, for
    every T: the radius must equal that of the full 512-pencil scan."""

    @PROPERTY
    @given(SEEDS, st.integers(3, 8))
    def test_gaussians(self, seed, n):
        check_against_full_scan(complex_gaussian((n, n), philox(seed)))

    @PROPERTY
    @given(SEEDS, st.integers(3, 8), st.floats(0.0, 3.0),
           st.floats(0.0, 2 * math.pi), st.floats(1e-3, 1.0))
    def test_shifted_gaussians(self, seed, n, r, phi, spread):
        # r e^{i phi} I plus a Gaussian of about that spread: the rectangle
        # misses 0 once r exceeds the spread, and must be grown to hold it
        t = spread * complex_gaussian((n, n), philox(seed)) / math.sqrt(n)
        check_against_full_scan(t + r * np.exp(1j * phi) * np.eye(n))

    @PROPERTY
    @given(SEEDS, st.integers(3, 8))
    def test_near_hermitian(self, seed, n):
        # a rectangle 1e-6 thin, whose window is a few steps wide
        rng = philox(seed)
        a, b = complex_gaussian((n, n), rng), complex_gaussian((n, n), rng)
        check_against_full_scan(a + a.conj().T + 1e-6j * (b + b.conj().T))

    @PROPERTY
    @given(SEEDS, st.integers(3, 8), st.floats(1e-9, 1e-2),
           st.integers(0, 3))
    def test_normal_poking_out_of_the_circle(self, seed, n, gap, quadrant):
        # eigenvalues a, iy on the rectangle's two far sides set L = max(a, y)
        # and one of modulus L (1 + gap) between them, towards the corner
        # (a, y): w = L (1 + gap) at an angle only the window's corner holds
        rng = philox(seed)
        a, y = rng.uniform(0.5, 1.5, 2)
        r = max(a, y) * (1.0 + gap)
        lo, hi = math.acos(a / r), math.asin(y / r)
        lam = rng.uniform(0.0, 0.9 * min(a, y), n) * np.exp(
            1j * rng.uniform(0.0, 2 * math.pi, n))
        lam[:3] = a, 1j * y, r * np.exp(1j * rng.uniform(lo, hi))
        u = random_unitary(n, rng)
        check_against_full_scan(1j ** quadrant * u @ np.diag(lam) @ u.conj().T)

    @pytest.mark.parametrize("t", [np.zeros((3, 3)), np.eye(3)],
                             ids=["zero", "identity"])
    def test_zero_and_identity(self, t):
        check_against_full_scan(t)

    @pytest.mark.parametrize("n", [3, 5])
    def test_reads_no_sector_angle(self, n, monkeypatch):
        # the window needs no sector, so the radius never solves for one
        calls = []
        monkeypatch.setattr(numrange, "min_sector_angle", calls.append)
        sr.numerical_radius(sectorial_sample(n, 0.5, philox(n)))
        assert calls == []


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
    t = direct_sum(sr.extremal_2x2(alpha), np.zeros((n - 2, n - 2)))
    u = random_unitary(n, rng)
    return u.conj().T @ t @ u


def partial_kernel(seed):
    """U* (0_m + sectorial block + i G) U with H singular on the first m
    coordinates; G acts on ker H (within it, or only into the range of H)
    or vanishes there, n = 2..6."""
    rng = philox(seed)
    n = int(rng.integers(2, 7))
    m = int(rng.integers(1, n))
    t = direct_sum(np.zeros((m, m)),
                   sectorial(int(rng.integers(0, 2 ** 32)), n - m))
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

    def assert_same_sector(self, t, t2, exact=False):
        amin = sr.min_sector_angle(t)
        amin2 = sr.min_sector_angle(t2)
        assert (amin is None) == (amin2 is None)
        if amin is not None:
            assert amin2 == (amin if exact else pytest.approx(amin, abs=1e-12))
            assert sr.sector_contains(t, amin) and sr.sector_contains(t2, amin)
        for alpha in ANGLES:
            assert (sr.sector_contains(t2, alpha)
                    == sr.sector_contains(t, alpha))

    @PROPERTY
    @given(SECTOR_INPUTS, st.one_of(POWERS_OF_TWO.map(lambda k: 2.0 ** k),
                                    st.sampled_from([1e-200, 1e200])))
    def test_scaling(self, t, factor):
        # a power of two scales every entry exactly: the answers are bitwise
        self.assert_same_sector(t, factor * t,
                                exact=math.frexp(factor)[0] == 0.5)

    @PROPERTY
    @given(SECTOR_INPUTS, EXTREME_BINADES)
    def test_extreme_binades(self, t, e):
        self.assert_same_sector(t, to_binade(t, e)[0])

    @PROPERTY
    @given(SECTOR_INPUTS, SEEDS)
    def test_unitary_similarity(self, t, useed):
        u = random_unitary(t.shape[0], philox(useed))
        self.assert_same_sector(t, u.conj().T @ t @ u)
