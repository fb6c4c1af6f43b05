import math

import numpy as np
import pytest
import scipy.special as sp

from twistspec import measures, numerics
from twistspec.errors import DomainError
from twistspec.measures import MeasureSpec


class TestKGauss:
    def test_symmetry_point(self):
        assert measures.k_gauss(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_limits_and_monotonicity(self):
        assert measures.k_gauss(30.0) < 1e-30
        ts = np.linspace(-4, 4, 100)
        vals = [measures.k_gauss(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_quadrature(self):
        r = numerics.integrate(
            lambda s: np.exp(-np.asarray(s) ** 2) / math.sqrt(math.pi),
            1.0, math.inf, tail=numerics.gauss_tail_cut(1.0, nu=0.0),
            vectorized=True)
        assert measures.k_gauss(1.0) == pytest.approx(r.value, abs=1e-12)
        assert 0.0 < measures.k_gauss(1.0) < 0.5

    def test_reflection(self):
        for t in (0.3, 1.1, 2.7):
            assert measures.k_gauss(-t) == pytest.approx(
                1.0 - measures.k_gauss(t), abs=1e-14)

    def test_inverse_roundtrip(self):
        assert measures.k_gauss_inv(0.5) == pytest.approx(0.0, abs=1e-14)
        assert measures.k_gauss_inv(measures.k_gauss(1.3)) == pytest.approx(
            1.3, abs=1e-12)
        for m in (0.05, 0.25, 0.49, 0.8):
            assert abs(measures.k_gauss(measures.k_gauss_inv(m)) - m) <= 1e-12
        assert measures.k_gauss_inv(0.25) > 0.0

    @pytest.mark.parametrize("m", [0.0, 1.0, -0.2, 1.4])
    def test_inverse_domain(self, m):
        with pytest.raises(DomainError):
            measures.k_gauss_inv(m)

    def test_perimeter_is_minus_k_prime(self):
        h = 1e-6
        for t in (-1.2, 0.0, 0.8, 2.0):
            fd = -(measures.k_gauss(t + h) - measures.k_gauss(t - h)) / (2 * h)
            assert measures.gauss_halfspace_perimeter(t) == pytest.approx(
                fd, rel=1e-8)


class TestAngularConstant:
    def test_against_beta_closed_form(self):
        # c_{n,k} = |S^{n-2}| B((k+1)/2, (n-1)/2) / 2
        for n, k in [(2, 1.0), (3, 0.0), (3, 2.0), (4, 0.7), (2, 0.0)]:
            m = MeasureSpec.power(n, k)
            sphere = 2 * math.pi ** ((n - 1) / 2) / sp.gamma((n - 1) / 2)
            want = sphere * sp.beta((k + 1) / 2, (n - 1) / 2) / 2
            assert m.angular_constant == pytest.approx(float(want), rel=1e-11)

    def test_against_polar_quadrature(self):
        # |S^{n-2}| int_0^{pi/2} cos^k(th) sin^{n-2}(th) dth
        for n, k in [(2, 0.0), (3, 0.0), (3, 2.0), (5, 3.0), (4, 1.5), (7, 0.5)]:
            sphere = 2 * math.pi ** ((n - 1) / 2) / math.gamma((n - 1) / 2)
            integ = numerics.integrate(
                lambda th: np.cos(th) ** k * np.sin(th) ** (n - 2),
                0.0, math.pi / 2, tol=1e-13, vectorized=True)
            assert MeasureSpec.power(n, k).angular_constant == pytest.approx(
                sphere * integ.value, rel=1e-14)

    def test_one_dimensional_hemisphere_is_a_point(self):
        assert MeasureSpec.power(1, 2.5).angular_constant == 1.0


class TestHalfball:
    def test_lebesgue_half_unit_ball(self):
        m = MeasureSpec.power(3, 0.0)
        assert measures.halfball_mass(m, 1.0) == pytest.approx(
            2 * math.pi / 3, rel=1e-11)

    def test_power21_unit(self):
        # int over the half-disk of x_2 dx = 2/3
        m = MeasureSpec.power(2, 1.0)
        assert measures.halfball_mass(m, 1.0) == pytest.approx(2.0 / 3.0, rel=1e-11)

    @pytest.mark.parametrize("n,k", [(3, 0.0), (2, 1.0), (3, 2.0)])
    def test_scaling(self, n, k):
        m = MeasureSpec.power(n, k)
        ratio = measures.halfball_mass(m, 2.0) / measures.halfball_mass(m, 1.0)
        assert ratio == pytest.approx(2.0 ** (n + k), rel=1e-12)

    def test_radius_roundtrip(self):
        m = MeasureSpec.power(3, 2.0)
        for mass in (0.2, 1.0, 7.5):
            r = measures.radius_from_mass(m, mass)
            assert measures.halfball_mass(m, r) == pytest.approx(mass, rel=1e-12)
        m30 = MeasureSpec.power(3, 0.0)
        assert measures.radius_from_mass(m30, 2 * math.pi / 3) == pytest.approx(
            1.0, rel=1e-12)
        m21 = MeasureSpec.power(2, 1.0)
        assert measures.radius_from_mass(m21, 2.0 / 3.0) == pytest.approx(
            1.0, rel=1e-12)

    def test_bad_inputs(self):
        m = MeasureSpec.power(3, 0.0)
        with pytest.raises(DomainError):
            measures.halfball_mass(m, 0.0)
        with pytest.raises(DomainError):
            measures.radius_from_mass(m, -1.0)
        with pytest.raises(DomainError):
            measures.halfball_mass(MeasureSpec.gaussian(1), 1.0)


class TestConfigFromSplit:
    def test_gaussian_symmetric(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.5)
        want = measures.k_gauss_inv(0.25)
        assert cfg.left_param == pytest.approx(want, rel=1e-12)
        assert cfg.right_param == pytest.approx(want, rel=1e-12)
        assert cfg.is_symmetric

    def test_gaussian_asymmetric_ordering(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.6, 0.4)
        assert cfg.left_param == pytest.approx(
            measures.k_gauss_inv(0.24), rel=1e-12)
        assert cfg.right_param == pytest.approx(
            measures.k_gauss_inv(0.36), rel=1e-12)
        assert cfg.left_param > cfg.right_param
        assert cfg.larger_side == "right"

    def test_power_symmetric(self):
        m = MeasureSpec.power(3, 0.0)
        cfg = measures.config_from_split(m, 1.0, 0.5)
        assert cfg.left_param == pytest.approx(
            measures.radius_from_mass(m, 0.5), rel=1e-12)

    @pytest.mark.parametrize("measure", [MeasureSpec.gaussian(1),
                                         MeasureSpec.power(3, 1.0)])
    def test_mass_bookkeeping(self, measure):
        total = 0.7 if measure.is_gaussian else 3.0
        for s in (0.3, 0.5, 0.64):
            cfg = measures.config_from_split(measure, total, s)
            assert cfg.mass_left + cfg.mass_right == pytest.approx(
                total, rel=1e-10)
            assert cfg.mass_left == pytest.approx(s * total, rel=1e-10)

    def test_gaussian_infeasible_split(self):
        with pytest.raises(DomainError, match="infeasible"):
            measures.config_from_split(MeasureSpec.gaussian(1), 0.9, 0.6)
        with pytest.raises(DomainError):
            measures.config_from_split(MeasureSpec.gaussian(2), 1.2, 0.5)

    def test_split_window(self):
        lo, hi = measures.gaussian_split_window(0.6)
        assert lo == pytest.approx(1 - 0.5 / 0.6)
        assert hi == pytest.approx(0.5 / 0.6)

    def test_solver_order_guard(self):
        with pytest.raises(DomainError, match="n\\+k>2"):
            MeasureSpec.power(1, 0.5).require_solver_order()
        MeasureSpec.power(2, 1.0).require_solver_order()
        MeasureSpec.gaussian(1).require_solver_order()

    def test_lebesgue_alias(self):
        m = MeasureSpec.lebesgue(3)
        assert m.kind == "power" and m.k == 0.0
