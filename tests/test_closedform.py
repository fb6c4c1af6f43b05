import math

import numpy as np
import pytest

from twistspec import closedform, measures, oracle, specfun
from twistspec.errors import DomainError
from twistspec.measures import MeasureSpec

PI2 = math.pi ** 2


class TestDirichletGauss:
    def test_halfline_through_origin(self):
        assert closedform.dirichlet_halfspace_gauss(0.0) == pytest.approx(
            2.0, abs=1e-10)

    def test_continuity_at_zero_offset(self):
        lams = [closedform.dirichlet_halfspace_gauss(L)
                for L in (0.0, 1e-3, 1e-2, 0.05)]
        assert all(b > a for a, b in zip(lams, lams[1:]))
        assert lams[1] == pytest.approx(2.0, abs=5e-3)

    def test_offset_one_against_oracle(self):
        # Domain monotonicity puts this value well above 2; the discrete
        # oracle on the truncated half-line is the independent reference.
        lam = closedform.dirichlet_halfspace_gauss(1.0)
        dom = oracle.Domain1D(intervals=((1.0, 9.0),),
                              coordinate="cartesian_gauss")
        ref = oracle.dirichlet_eigs(dom, h=0.004, count=1).eigenvalues[0]
        assert lam == pytest.approx(ref, rel=1e-3)
        assert lam > 2.0

    def test_negative_offset_rejected(self):
        with pytest.raises(DomainError):
            closedform.dirichlet_halfspace_gauss(-0.5)

    @pytest.mark.parametrize("L", [5.0, 5.5])
    def test_offset_beyond_hermite_switch_rejected(self, L):
        # the large-t expansion of H_nu is not valid at its zeros
        with pytest.raises(DomainError, match="switch point t=5 .*7.7e-13"):
            closedform.dirichlet_halfspace_gauss(L)

    def test_offset_just_below_switch(self):
        assert closedform.dirichlet_halfspace_gauss(4.9) == pytest.approx(
            34.31965943626952, rel=1e-10)


def _gauss_mean_by_quadrature(nu, a):
    from twistspec.numerics import gauss_tail_cut, integrate
    h_a = specfun.hermite_value(nu, a)
    return integrate(
        lambda t: (specfun.hermite_value(nu, t) - h_a)
        * measures.gauss_weight_1d(t),
        a, math.inf, tol=1e-13, tail=gauss_tail_cut(a), vectorized=True).value


def _power_mean_by_quadrature(order, freq, X):
    from twistspec.numerics import integrate
    g_X = closedform._g_profile(order, freq, X)
    scale = X ** (2 * order + 2) * abs(closedform._g_profile(order, freq, 0.0))
    return integrate(
        lambda r: (closedform._g_profile(order, freq, r) - g_X)
        * r ** (2 * order + 1),
        0.0, X, tol=1e-14 * scale, vectorized=True).value


class TestMeanIdentities:
    """The closed-form mean integrals inside the determinants against the
    quadrature they replace."""

    @pytest.mark.parametrize("nu", [1.0, 1.3, 2.7, 5.5])
    def test_gauss_mean_against_quadrature(self, nu):
        # Relative to the larger of the two terms.  Near the series/
        # asymptotic switch the Kummer combination for H_{nu-1}(a) itself
        # cancels to ~1e-16 e^{a^2} (3e-9 at nu = 1.3, a = 4.5), which then
        # bounds the agreement instead.
        for a in np.linspace(0.0, 4.5, 19):
            a = float(a)
            h_a = specfun.hermite_value(nu, a)
            exact = closedform._gauss_mean(nu, a, h_a)
            larger = max(
                abs(math.exp(-a * a) / math.sqrt(math.pi)
                    * specfun.hermite_value(nu - 1.0, a)),
                abs(0.5 * math.erfc(a) * h_a))
            tol = max(1e-10, 1e-16 * math.exp(a * a))
            assert abs(exact - _gauss_mean_by_quadrature(nu, a)) <= \
                tol * larger

    @pytest.mark.parametrize("order", [0.5, 1.5, 3.0])
    def test_power_mean_against_quadrature(self, order):
        j1 = specfun.bessel_first_zero(order)
        for X in (0.3, 1.0, 2.5):
            for freq in (0.6 * j1 / X, j1 / X, 1.4 * j1 / X):
                g_X = closedform._g_profile(order, freq, X)
                exact = closedform._power_mean(order, freq, X, g_X)
                assert exact == pytest.approx(
                    _power_mean_by_quadrature(order, freq, X), rel=1e-11)


class TestDirichletPower:
    def test_unit_ball_n3(self):
        m = MeasureSpec.power(3, 0.0)
        assert closedform.dirichlet_halfball_power(m, 1.0) == pytest.approx(
            PI2, rel=1e-10)

    def test_same_bessel_order_n2k1(self):
        m = MeasureSpec.power(2, 1.0)
        assert closedform.dirichlet_halfball_power(m, 1.0) == pytest.approx(
            PI2, rel=1e-10)

    def test_radius_scaling(self):
        m = MeasureSpec.power(3, 2.0)
        l1 = closedform.dirichlet_halfball_power(m, 1.0)
        l2 = closedform.dirichlet_halfball_power(m, 2.0)
        assert l1 / l2 == pytest.approx(4.0, rel=1e-12)

    def test_order_guard(self):
        with pytest.raises(DomainError):
            closedform.dirichlet_halfball_power(MeasureSpec.power(1, 0.5), 1.0)


class TestTwistedPairGauss:
    def test_two_halflines(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 1.0, 0.5)
        sol = closedform.twisted_pair_gauss(cfg)
        assert sol.eigenvalue == pytest.approx(2.0, abs=1e-9)
        assert sol.nonlocal_c == 0.0
        # eigenfunction is x up to normalization: u(x)/x constant
        xs = np.linspace(0.3, 2.0, 7)
        ratios = [sol.u_right_at(float(x)) / x for x in xs]
        np.testing.assert_allclose(ratios, ratios[0], rtol=1e-9)

    def test_symmetric_branch(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.5)
        sol = closedform.twisted_pair_gauss(cfg)
        want = closedform.dirichlet_halfspace_gauss(cfg.left_param)
        assert sol.eigenvalue == pytest.approx(want, rel=1e-12)
        assert sol.nonlocal_c == 0.0
        # antisymmetric eigenfunction (c = 0, mirrored profiles)
        assert sol.amp_left == pytest.approx(sol.amp_right, rel=1e-12)
        for t in (0.1, 0.7, 1.9):
            assert sol.u_left_at(-cfg.left_param - t) == pytest.approx(
                -sol.u_right_at(cfg.right_param + t), rel=1e-10)

    def test_asymmetric_against_oracle(self):
        cfg = measures.PairConfig(
            MeasureSpec.gaussian(1),
            measures.k_gauss_inv(0.3), measures.k_gauss_inv(0.2))
        sol = closedform.twisted_pair_gauss(cfg)
        lam_o = oracle.twisted_eig(oracle.gaussian_pair_domain(cfg))
        assert sol.eigenvalue == pytest.approx(
            lam_o.eigenvalues[0], rel=1e-3)

    def test_bracket_and_residuals(self):
        for total, s in [(0.5, 0.34), (0.62, 0.45), (0.7, 0.5)]:
            cfg = measures.config_from_split(MeasureSpec.gaussian(1), total, s)
            sol = closedform.twisted_pair_gauss(cfg)
            lo, hi = sol.bracket_dirichlet
            assert lo - 1e-10 <= sol.eigenvalue <= hi + 1e-10
            if s != 0.5:
                assert lo + 1e-8 < sol.eigenvalue < hi - 1e-8
            assert sol.mean_residual <= 1e-8
            assert sol.matching_residual <= 1e-8
            # the two closed forms of the nonlocal constant coincide
            nu = sol.nu
            c1 = -2 * nu * sol.amp_left * specfun.hermite_value(
                nu, cfg.left_param)
            c2 = 2 * nu * sol.amp_right * specfun.hermite_value(
                nu, cfg.right_param)
            assert c1 == pytest.approx(c2, rel=1e-8, abs=1e-12)

    def test_normalization(self):
        from twistspec.numerics import gauss_tail_cut, integrate
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.41)
        sol = closedform.twisted_pair_gauss(cfg)
        L, R = cfg.left_param, cfg.right_param
        left = integrate(
            lambda t: np.asarray([sol.u_left_at(-x) ** 2 for x in t])
            * measures.gauss_weight_1d(t),
            L, math.inf, tail=gauss_tail_cut(L), vectorized=True)
        right = integrate(
            lambda t: np.asarray([sol.u_right_at(x) ** 2 for x in t])
            * measures.gauss_weight_1d(t),
            R, math.inf, tail=gauss_tail_cut(R), vectorized=True)
        assert left.value + right.value == pytest.approx(1.0, rel=1e-8)

    def test_zero_weighted_mean_of_eigenfunction(self):
        from twistspec.numerics import gauss_tail_cut, integrate
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.6, 0.37)
        sol = closedform.twisted_pair_gauss(cfg)
        L, R = cfg.left_param, cfg.right_param
        left = integrate(
            lambda t: np.asarray([sol.u_left_at(-x) for x in t])
            * measures.gauss_weight_1d(t),
            L, math.inf, tail=gauss_tail_cut(L), vectorized=True)
        right = integrate(
            lambda t: np.asarray([sol.u_right_at(x) for x in t])
            * measures.gauss_weight_1d(t),
            R, math.inf, tail=gauss_tail_cut(R), vectorized=True)
        assert abs(left.value + right.value) <= 1e-8

    def test_ode_residual(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.42)
        sol = closedform.twisted_pair_gauss(cfg)
        lam, c = sol.eigenvalue, sol.nonlocal_c
        h = 2e-3

        def residual(u, x):
            u0 = u(x)
            upp = (-u(x + 2 * h) + 16 * u(x + h) - 30 * u0
                   + 16 * u(x - h) - u(x - 2 * h)) / (12 * h * h)
            up = (u(x - 2 * h) - 8 * u(x - h)
                  + 8 * u(x + h) - u(x + 2 * h)) / (12 * h)
            return abs(upp - 2 * x * up + lam * u0 - c) / (1 + abs(u0))

        L, R = cfg.left_param, cfg.right_param
        for x in np.linspace(R + 0.05, R + 3.0, 50):
            assert residual(sol.u_right_at, float(x)) <= 1e-6
        for x in np.linspace(-L - 3.0, -L - 0.05, 50):
            assert residual(sol.u_left_at, float(x)) <= 1e-6

    def test_profiles_signed_and_vanish_at_boundary(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.42)
        sol = closedform.twisted_pair_gauss(cfg)
        left, right = sol.profiles
        assert left.component == "left" and right.component == "right"
        assert left.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)
        assert right.evaluate(0.0) == pytest.approx(0.0, abs=1e-12)
        assert {left.sign, right.sign} == {"positive", "negative"}
        assert left.sign == "positive"  # orientation convention
        assert sol.single_signed


class TestTwistedPairPower:
    def test_two_unit_balls_k0(self):
        cfg = measures.PairConfig(MeasureSpec.power(3, 0.0), 1.0, 1.0)
        sol = closedform.twisted_pair_power(cfg)
        assert sol.eigenvalue == pytest.approx(PI2, rel=1e-6)
        assert sol.nonlocal_c == 0.0

    def test_scaling(self):
        m = MeasureSpec.power(2, 1.0)
        a = closedform.twisted_pair_power(measures.PairConfig(m, 1.0, 0.8))
        b = closedform.twisted_pair_power(measures.PairConfig(m, 2.0, 1.6))
        assert a.eigenvalue / b.eigenvalue == pytest.approx(4.0, rel=1e-9)

    def test_asymmetric_against_oracle(self):
        m = MeasureSpec.power(2, 1.0)
        cfg = measures.config_from_split(m, 1.0, 0.6)
        sol = closedform.twisted_pair_power(cfg)
        lam_o = oracle.twisted_eig(oracle.power_pair_domain(cfg))
        assert sol.eigenvalue == pytest.approx(lam_o.eigenvalues[0], rel=1e-3)

    def test_residuals_and_bracket(self):
        m = MeasureSpec.power(3, 2.0)
        cfg = measures.config_from_split(m, 3.0, 0.41)
        sol = closedform.twisted_pair_power(cfg)
        lo, hi = sol.bracket_dirichlet
        assert lo < sol.eigenvalue < hi
        assert sol.mean_residual <= 1e-8
        assert sol.matching_residual <= 1e-10
        c1 = -sol.amp_left * sol.freq ** 2 * float(
            closedform._g_profile(m.profile_order, sol.freq, cfg.left_param))
        c2 = sol.amp_right * sol.freq ** 2 * float(
            closedform._g_profile(m.profile_order, sol.freq, cfg.right_param))
        assert c1 == pytest.approx(c2, rel=1e-8)
        assert c1 == pytest.approx(sol.nonlocal_c, rel=1e-10)

    def test_radial_ode_residual(self):
        m = MeasureSpec.power(2, 1.0)
        cfg = measures.config_from_split(m, 1.5, 0.42)
        sol = closedform.twisted_pair_power(cfg)
        lam, c = sol.eigenvalue, sol.nonlocal_c
        drift = m.n + m.k - 1.0
        h = 2e-3

        def residual(u, r):
            u0 = u(r)
            upp = (-u(r + 2 * h) + 16 * u(r + h) - 30 * u0
                   + 16 * u(r - h) - u(r - 2 * h)) / (12 * h * h)
            up = (u(r - 2 * h) - 8 * u(r - h)
                  + 8 * u(r + h) - u(r + 2 * h)) / (12 * h)
            return abs(r * upp + drift * up + lam * r * u0 - c * r) / (1 + abs(u0))

        for r in np.linspace(0.05 * cfg.left_param, 0.95 * cfg.left_param, 50):
            assert residual(sol.u_left_at, float(r)) <= 1e-6
        for r in np.linspace(0.05 * cfg.right_param, 0.95 * cfg.right_param, 50):
            assert residual(sol.u_right_at, float(r)) <= 1e-6

    def test_one_zero_scan_per_order(self, monkeypatch):
        calls = []
        scan = specfun.bessel_first_zero

        def counted(order, kind="of_J"):
            calls.append(order)
            return scan(order, kind)

        monkeypatch.setattr(specfun, "bessel_first_zero", counted)
        closedform._first_bessel_zero.cache_clear()
        m = MeasureSpec.power(3, 2.0)
        for s in (0.35, 0.45, 0.5):
            closedform.twisted_pair_power(measures.config_from_split(m, 2.0, s))
        closedform.dirichlet_halfball_power(m, 1.0)
        assert calls == [m.profile_order]

    def test_lopsided_pair_flagged_but_agrees_with_oracle(self):
        # beyond the monotone-profile window the pair root still matches the
        # reduced 1D constrained eigenvalue; the eigenfunction grows a thin
        # opposite-sign shell, reported via single_signed
        m = MeasureSpec.power(3, 0.0)
        cfg = measures.config_from_split(m, 2 * measures.halfball_mass(m, 1.0) * 2, 0.2)
        sol = closedform.twisted_pair_power(cfg)
        assert not sol.single_signed
        lam_o = oracle.twisted_eig(oracle.power_pair_domain(cfg))
        assert sol.eigenvalue == pytest.approx(lam_o.eigenvalues[0], rel=1e-3)


class TestGradientGap:
    def test_zero_at_symmetry(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.5)
        sol = closedform.twisted_pair_gauss(cfg)
        assert closedform.boundary_gradient_gap(sol, cfg) == pytest.approx(
            0.0, abs=1e-10)

    @pytest.mark.parametrize("measure,total", [
        (MeasureSpec.gaussian(1), 0.5),
        (MeasureSpec.power(2, 1.0), 1.5),
    ])
    def test_larger_mass_smaller_gradient(self, measure, total):
        for s in (0.35, 0.44, 0.61):
            cfg = measures.config_from_split(measure, total, s)
            sol = (closedform.twisted_pair_gauss(cfg) if measure.is_gaussian
                   else closedform.twisted_pair_power(cfg))
            gap = closedform.boundary_gradient_gap(sol, cfg)
            if s < 0.5:   # right component heavier -> du_right smaller
                assert gap < 0.0
            else:
                assert gap > 0.0

    def test_config_mismatch_rejected(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.4)
        other = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.45)
        sol = closedform.twisted_pair_gauss(cfg)
        with pytest.raises(DomainError):
            closedform.boundary_gradient_gap(sol, other)


class TestRatioFunctions:
    def test_psi_explicit_low_degrees(self):
        for t in (0.5, 1.0, 2.5):
            assert closedform.psi_nu(1.0, t) == pytest.approx(
                1.0 / (2 * t), rel=1e-12)
        for t in (0.8, 1.5, 3.0):
            assert closedform.psi_nu(2.0, t) == pytest.approx(
                2 * t / (4 * t * t - 2), rel=1e-12)

    def test_psi_monotone(self):
        for nu in (1.3, 2.2, 3.7):
            t0 = specfun.hermite_largest_zero(nu) + 0.05
            ts = np.linspace(t0, 6.0, 100)
            vals = [closedform.psi_nu(nu, float(t)) for t in ts]
            assert all(v > 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_psi_domain_guard(self):
        with pytest.raises(DomainError):
            closedform.psi_nu(2.0, 0.3)  # below the largest zero 1/sqrt(2)

    def test_phi_half_integer(self):
        # -J_{3/2}(s)/J_{1/2}(s) = -(sin s / s - cos s)/sin s
        for s in (0.3, 0.8, 1.1):
            want = -(math.sin(s) / s - math.cos(s)) / math.sin(s)
            assert closedform.phi_alpha(0.5, s) == pytest.approx(want, rel=1e-10)

    def test_phi_monotone_negative(self):
        for order in (0.5, 1.0, 1.7):
            jp = specfun.bessel_first_zero(order, "of_Jprime")
            ss = np.linspace(0.01, jp - 0.01, 100)
            vals = [closedform.phi_alpha(order, float(s)) for s in ss]
            assert all(v < 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))
