"""Tests for the extremal-family constructors."""

import math

import numpy as np
import pytest

import sector_radius as sr
from sector_radius.extremal import family_deviations

ALPHA_GRID = np.linspace(0.05, math.pi / 2, 24)


class TestExtremalParams:
    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_defining_identities(self, alpha):
        p = sr.extremal_params(alpha)
        s = p.s
        assert s == pytest.approx(math.sin(alpha) ** 2, abs=1e-12)
        assert p.c == pytest.approx(s / math.sqrt(1 + 2 * s), abs=1e-12)
        assert math.sin(p.theta) ** 2 == pytest.approx(
            (s + s * s) / (1 + 2 * s), abs=1e-12)
        assert math.cos(p.theta) ** 2 == pytest.approx(
            (1 + s - s * s) / (1 + 2 * s), abs=1e-12)
        assert p.norm ** 2 == pytest.approx(1 + 2 * s, abs=1e-12)
        # consistency between the triangular form and the parameters
        assert p.c ** 2 + math.sin(p.theta) ** 2 == pytest.approx(s, abs=1e-12)
        assert 0.0 <= p.theta <= p.alpha

    def test_half_plane_values(self):
        p = sr.extremal_params(math.pi / 2)
        assert p.s == pytest.approx(1.0, abs=1e-15)
        assert p.c == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert math.cos(p.theta) == pytest.approx(1 / math.sqrt(3), abs=1e-15)
        assert p.norm == pytest.approx(math.sqrt(3), abs=1e-15)

    def test_quarter_turn_values(self):
        p = sr.extremal_params(math.pi / 4)
        assert p.s == pytest.approx(0.5, abs=1e-15)
        assert p.c == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-15)
        assert math.sin(p.theta) ** 2 == pytest.approx(3 / 8, abs=1e-15)
        assert p.norm == pytest.approx(math.sqrt(2), abs=1e-15)

    def test_rejects_zero_angle(self):
        with pytest.raises(sr.ParameterError):
            sr.extremal_params(0.0)


class TestExtremal2x2:
    def test_half_plane_matrix(self):
        t = sr.extremal_2x2(math.pi / 2)
        expected = np.array([[1 + 1j * math.sqrt(2), 2.0],
                             [0.0, 1 - 1j * math.sqrt(2)]]) / 3.0
        np.testing.assert_allclose(t, expected, atol=1e-14)

    def test_quarter_turn_matrix(self):
        t = sr.extremal_2x2(math.pi / 4)
        expected = np.array([
            [math.sqrt(1.25) + 1j * math.sqrt(0.75), 1.0],
            [0.0, math.sqrt(1.25) - 1j * math.sqrt(0.75)],
        ]) / 2.0
        np.testing.assert_allclose(t, expected, atol=1e-14)
        assert t[0, 0] == pytest.approx(0.5590169943749474 + 0.4330127018922193j,
                                        abs=1e-12)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_postconditions(self, alpha):
        t = sr.extremal_2x2(alpha)
        assert sr.operator_norm(t) == pytest.approx(1.0, abs=1e-9)
        assert sr.numerical_radius(t) == pytest.approx(
            1 / math.sqrt(1 + math.sin(alpha) ** 2), abs=1e-9)
        assert sr.sector_contains(t, alpha)

    @pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_ratio_attains_bound(self, alpha):
        t = sr.extremal_2x2(alpha)
        ratio = sr.operator_norm(t) / sr.numerical_radius(t)
        assert ratio == pytest.approx(sr.tau(alpha), abs=1e-9)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_matches_normalized_triangular_form(self, alpha):
        # [[e^{i theta}, 2c], [0, e^{-i theta}]] / sqrt(1+2s) written in s
        s = math.sin(alpha) ** 2
        top = math.sqrt(1 + s - s * s) + 1j * math.sqrt(s + s * s)
        expected = np.array([[top, 2 * s], [0, top.conjugate()]]) / (1 + 2 * s)
        np.testing.assert_allclose(sr.extremal_2x2(alpha), expected,
                                   atol=1e-15)

    def test_rejects_zero_angle(self):
        with pytest.raises(sr.ParameterError):
            sr.extremal_2x2(0.0)


class TestCanonicalB:
    def test_half_plane_block(self):
        block = sr.canonical_b(math.pi / 2)
        expected = np.array([[2 / math.sqrt(3), 1.0], [-1.0, 0.0]])
        np.testing.assert_allclose(block.matrix, expected, atol=1e-14)
        np.testing.assert_allclose(block.vector,
                                   [math.sqrt(3) / 2, 0.5], atol=1e-14)
        assert block.norm == pytest.approx(math.sqrt(3), abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_reflector_product_eigensystem(self, alpha):
        block = sr.canonical_b(alpha)
        d = np.diag([1.0, -1.0])
        db = d @ block.matrix
        np.testing.assert_allclose(db, db.conj().T, atol=1e-13)
        w = np.linalg.eigvalsh(db)
        assert w[-1] == pytest.approx(block.norm, abs=1e-12)
        assert w[0] == pytest.approx(-1 / block.norm, abs=1e-12)
        resid = np.linalg.norm(db @ block.vector - block.norm * block.vector)
        assert resid <= 1e-12
        assert block.vector[0] > 0
        assert np.linalg.norm(block.vector) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("alpha", ALPHA_GRID)
    def test_similar_to_triangular_form(self, alpha):
        p = sr.extremal_params(alpha)
        a = sr.r_alpha_matrix(1.0, p.theta, alpha)
        assert sr.invariants_close(
            sr.similarity_invariants_2x2(sr.canonical_b(alpha).matrix),
            sr.similarity_invariants_2x2(a), 1e-11)


class TestRAlphaMatrix:
    def test_normal_boundary_case(self):
        alpha = 0.8
        a = sr.r_alpha_matrix(1.0, alpha, alpha)
        np.testing.assert_allclose(
            a, np.diag([np.exp(1j * alpha), np.exp(-1j * alpha)]), atol=1e-14)

    @pytest.mark.parametrize("r,theta,alpha", [
        (1.0, 0.0, 0.5), (1.5, 0.3, 1.0), (3.0, 0.1, 0.2),
        (2.0, 1.0, math.pi / 2),
    ])
    def test_unit_determinant(self, r, theta, alpha):
        a = sr.r_alpha_matrix(r, theta, alpha)
        assert np.linalg.det(a) == pytest.approx(1.0, abs=1e-12)

    def test_extremal_parameter_point(self):
        alpha = 1.1
        p = sr.extremal_params(alpha)
        a = sr.r_alpha_matrix(1.0, p.theta, alpha)
        assert sr.operator_norm(a) == pytest.approx(p.norm, abs=1e-12)

    def test_small_sector_instance(self):
        a = sr.r_alpha_matrix(2.0, 0.0, math.pi / 6)
        np.testing.assert_allclose(a, [[2.0, 1.0], [0.0, 0.5]], atol=1e-14)
        assert sr.min_sector_angle(a) == pytest.approx(math.pi / 6, abs=1e-9)

    def test_parameter_errors(self):
        with pytest.raises(sr.ParameterError):
            sr.r_alpha_matrix(0.9, 0.0, 1.0)
        with pytest.raises(sr.ParameterError):
            sr.r_alpha_matrix(1.5, 0.7, 0.5)
        with pytest.raises(sr.ParameterError, match="theta"):
            sr.r_alpha_matrix(1.5, math.nan, 0.5)

    @pytest.mark.parametrize("r", [1.1, 1.5, 2.0, 5.0])
    @pytest.mark.parametrize("alpha", [math.pi / 6, math.pi / 4, math.pi / 3])
    def test_strictly_below_bound_at_theta_zero(self, r, alpha):
        a = sr.r_alpha_matrix(r, 0.0, alpha)
        ratio = sr.operator_norm(a) / sr.numerical_radius(a)
        assert ratio < sr.tau(alpha) - 1e-6

    def test_strictly_below_bound_off_corner(self):
        # r > 1 and theta > 0 strictly: never extremal
        for r, theta, alpha in ((1.2, 0.1, math.pi / 4), (1.05, 0.5, 1.0)):
            a = sr.r_alpha_matrix(r, theta, alpha)
            ratio = sr.operator_norm(a) / sr.numerical_radius(a)
            assert ratio < sr.tau(alpha) - 1e-6

    def test_ratio_maximizer_on_unit_r_slice(self):
        alpha = math.pi / 4
        s = math.sin(alpha) ** 2
        c0 = s / math.sqrt(1 + 2 * s)
        cs = np.linspace(0.0, s / math.sqrt(1 + s), 400)
        ratios = []
        for c in cs:
            theta = math.asin(math.sqrt(max(s - c * c, 0.0)))
            a = sr.r_alpha_matrix(1.0, theta, alpha)
            ratios.append(sr.operator_norm(a) / sr.numerical_radius(a))
        arg = int(np.argmax(ratios))
        assert abs(cs[arg] - c0) <= (cs[1] - cs[0]) * 1.0001
        assert max(ratios) == pytest.approx(math.sqrt(1 + s), abs=1e-5)


class TestThreeByThree:
    def test_decoupled_is_direct_sum(self):
        t = sr.three_by_three(0.0, 0.0, 0.0)
        rt3 = math.sqrt(3)
        expected = np.array([[2 / 3, 1 / rt3, 0], [-1 / rt3, 0, 0], [0, 0, 0]])
        np.testing.assert_allclose(t, expected, atol=1e-14)

    def test_feasible_point(self):
        lhs = 18 * 0.1 ** 2 + math.sqrt(2 * (12 * 0.1 ** 2 + 0.05) ** 2)
        assert lhs <= 1.0
        t = sr.three_by_three(0.1, 0.05, 0.0)
        assert sr.operator_norm(t) == pytest.approx(1.0, abs=1e-10)
        assert sr.numerical_radius(t) == pytest.approx(
            1 / math.sqrt(2), abs=1e-10)

    def test_infeasible_rejected_with_named_inequality(self):
        with pytest.raises(sr.FeasibilityError, match=r"18\*d\^2"):
            sr.three_by_three(0.25, 0.09375, 0.0)
        with pytest.raises(sr.FeasibilityError, match=r"b1 >= 3\*d\^2/2"):
            sr.three_by_three(0.1, 0.005, 0.0)
        with pytest.raises(sr.FeasibilityError, match="d >= 0"):
            sr.three_by_three(-0.1, 0.1, 0.0)

    @pytest.mark.parametrize("d,b1,b2", [
        (0.05, 0.2, 0.1), (0.12, 0.0216, -0.3), (0.0, 0.5, 0.2),
        (0.1, 0.3, 0.0),
    ])
    def test_postconditions_independent_of_slack(self, d, b1, b2):
        t = sr.three_by_three(d, b1, b2)
        assert sr.operator_norm(t) == pytest.approx(1.0, abs=1e-8)
        assert sr.numerical_radius(t) == pytest.approx(
            1 / math.sqrt(2), abs=1e-8)
        h, _ = sr.cartesian_decompose(t)
        assert np.linalg.eigvalsh(h)[0] >= -1e-8
        if d > 1e-3:
            assert sr.commutant_dimension(t) == 1

    def test_boundary_b1_admitted(self):
        d = 0.1
        t = sr.three_by_three(d, 1.5 * d * d, 0.0)
        assert sr.numerical_radius(t) == pytest.approx(
            1 / math.sqrt(2), abs=1e-8)

    @pytest.mark.parametrize("d,b1,b2", [
        (math.nan, 0.1, 0.0), (0.1, math.inf, 0.0), (0.1, 0.1, -math.inf),
    ])
    def test_non_finite_rejected(self, d, b1, b2):
        with pytest.raises(sr.FeasibilityError, match="must be finite"):
            sr.three_by_three(d, b1, b2)


class TestFamilyDeviations:
    def test_zero_on_both_families(self):
        t3 = sr.three_by_three(0.1, 0.015, 0.0)
        assert list(family_deviations(t3)) == [
            "norm != 1", "numerical radius != 1/sqrt(2)",
            "Hermitian part not PSD"]
        t, eps = sr.irreducible_family(5, 0.05)
        devs = family_deviations(t, eps)
        assert list(devs)[3:] == [
            "adjoint eigen-relation residual at k = 4",
            "adjoint eigen-relation residual at k = 5"]
        assert max(*family_deviations(t3).values(), *devs.values()) <= 1e-14

    def test_measures_each_property(self):
        t = sr.three_by_three(0.1, 0.015, 0.0)
        devs = family_deviations(2 * t)
        assert devs["norm != 1"] == pytest.approx(1.0, abs=1e-14)
        assert devs["numerical radius != 1/sqrt(2)"] == pytest.approx(
            1 / math.sqrt(2), abs=1e-14)
        assert family_deviations(t - 0.01 * np.eye(3))[
            "Hermitian part not PSD"] == pytest.approx(0.01, abs=1e-14)
        t, eps = sr.irreducible_family(5, 0.05)
        devs = family_deviations(t, eps / 2)
        assert devs["adjoint eigen-relation residual at k = 5"] > 1e-3


class TestIrreducibleFamily:
    @pytest.mark.parametrize("n,d", [(4, 0.1), (5, 0.05), (6, 0.1)])
    def test_postconditions(self, n, d):
        t, eps = sr.irreducible_family(n, d)
        assert 0 < eps <= 0.1
        assert sr.operator_norm(t) == pytest.approx(1.0, abs=1e-8)
        assert sr.numerical_radius(t) == pytest.approx(
            1 / math.sqrt(2), abs=1e-8)
        h, _ = sr.cartesian_decompose(t)
        assert np.linalg.eigvalsh(h)[0] >= -1e-8
        assert sr.commutant_dimension(t) == 1

    def test_n12_builds_at_the_first_epsilon(self):
        t, eps = sr.irreducible_family(12, 0.05)
        assert eps == 0.1
        assert sr.commutant_dimension(t) == 1

    def test_reducible_chain_raises_after_one_pass(self, monkeypatch):
        # n = 15 fails the commutant test at the first epsilon; a smaller
        # epsilon cannot pass it, so the constructor stops there
        from sector_radius import extremal

        calls = []

        def counting(t):
            calls.append(t.shape[0])
            return sr.commutant_dimension(t)

        monkeypatch.setattr(extremal, "commutant_dimension", counting)
        with pytest.raises(sr.ConstructionError,
                           match=r"commutant dimension != 1.*epsilon = 0\.1"):
            sr.irreducible_family(15, 0.05)
        assert calls == [15]

    def test_adjoint_eigen_relations(self):
        n, d = 5, 0.05
        t, eps = sr.irreducible_family(n, d)
        for k, x in zip(range(4, n + 1), sr.chain_eigenvectors(n, eps)):
            resid = np.linalg.norm(t.conj().T @ x - eps ** (k - 3) * x)
            assert resid <= 1e-8 * np.linalg.norm(x)

    def test_explicit_epsilon(self):
        t, eps = sr.irreducible_family(4, 0.1, epsilon=0.05)
        assert eps == 0.05
        assert sr.numerical_radius(t) == pytest.approx(
            1 / math.sqrt(2), abs=1e-8)

    def test_parameter_errors(self):
        with pytest.raises(sr.ParameterError):
            sr.irreducible_family(4, 0.2)
        with pytest.raises(sr.ParameterError):
            sr.irreducible_family(4, 0.0)
        with pytest.raises(sr.ParameterError):
            sr.irreducible_family(3, 0.1)

    @pytest.mark.parametrize("n", [4.7, math.nan, math.inf])
    def test_rejects_non_integral_size(self, n):
        # int(4.7) would build a 4x4 chain; int(nan) raises a bare ValueError
        with pytest.raises(sr.ParameterError, match="n must be an integer"):
            sr.irreducible_family(n, 0.1)

    def test_integral_float_size(self):
        t, _ = sr.irreducible_family(4.0, 0.1)
        assert t.shape == (4, 4)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.1, math.nan])
    def test_explicit_epsilon_outside_unit_interval(self, eps):
        with pytest.raises(sr.ParameterError, match="epsilon must lie"):
            sr.irreducible_family(4, 0.1, epsilon=eps)

    def test_decoupled_chain_is_reducible(self):
        # with the head coupling removed the commutant grows
        t = sr.chain_matrix(5, 0.0, 0.05)
        assert sr.commutant_dimension(t) >= 2
