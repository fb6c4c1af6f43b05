import dataclasses
import math
import re
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import twistspec
from twistspec import closedform, measures, numerics, oracle, specfun
from twistspec.errors import (AccuracyError, DomainError, NumericalError,
                              ResourceError)
from twistspec.measures import MeasureSpec

from quadrature import gauss_tail, integrate, scan_sign_change

PI2 = math.pi ** 2


class TestDirichletGauss:
    def test_halfline_through_origin(self):
        assert closedform.dirichlet_halfspace_gauss(0.0) == pytest.approx(
            2.0, abs=1e-10)

    def test_offset_near_zero_against_mpmath(self):
        # 2 nu* for the root of nu -> H_nu(1e-10) near 1, from mpmath 1.3.0:
        # mp.mp.dps = 40; 2 * mp.findroot(lambda n: mp.hermite(n,
        # mp.mpf(1e-10)), 1): a degree root 1.1e-10 above the integer 1.
        lam = closedform.dirichlet_halfspace_gauss(1e-10)
        assert abs(lam - 2.000000000225675833) <= 1e-15 * 2.0

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

    def test_scan_limit_named(self, monkeypatch):
        # a Hermite function without zeros: no sign change at the table
        # value, and the error names L, the table value, delta and both
        # Hermite values
        monkeypatch.setattr(specfun, "hermite_value", lambda nu, t: 1.0)
        with pytest.raises(NumericalError,
                           match=r"at L=2\.0: H_nu = 1\.0 at nu = 4\.9\d* "
                           r"and 1\.0 at nu = 4\.9\d* \(table value "
                           r"4\.9\d*, delta 1e-12\)"):
            closedform.dirichlet_halfspace_gauss(2.0)

    @pytest.mark.parametrize("L", [-0.5, 5.0, 5.5])
    def test_second_root_offset_rejected(self, L):
        # the first root's domain, [0, HERMITE_SWITCH_T)
        with pytest.raises(DomainError,
                           match="second_dirichlet_halfspace_gauss"):
            closedform.second_dirichlet_halfspace_gauss(L)

    def test_second_value_at_origin(self):
        # H_nu(0) vanishes at the odd degrees: nu = 1, then nu = 3
        assert closedform.second_dirichlet_halfspace_gauss(
            0.0) == pytest.approx(6.0, abs=1e-10)

    def test_offset_just_below_switch(self):
        assert closedform.dirichlet_halfspace_gauss(4.9) == pytest.approx(
            34.31965943626952, rel=1e-10)

    def test_both_roots_at_4_9_against_mpmath(self):
        # mpmath 1.3.0 at dps = 40, 2 * findroot(lambda n: hermite(n, 4.9),
        # guess): the top of the table's range, where the Kummer combination
        # cancels most
        lam1 = closedform.dirichlet_halfspace_gauss(4.9)
        lam2 = closedform.second_dirichlet_halfspace_gauss(4.9)
        assert abs(lam1 / 34.31965943626942319 - 1.0) <= 1e-14
        assert abs(lam2 / 43.514883236409316289 - 1.0) <= 1e-13

    @pytest.mark.parametrize("L", np.linspace(0.0, 4.95, 100))
    def test_within_closed_form_bounds(self, L):
        # potential bound below, domain monotonicity on (L, L+1) above
        lam = closedform.dirichlet_halfspace_gauss(float(L))
        assert L * L - 1.0 < lam <= L * L + 2.0 * L + PI2

    def test_matches_fine_scan_from_one(self):
        offsets = np.linspace(0.0, 4.95, 100)
        worst = max(
            abs(closedform.dirichlet_halfspace_gauss(float(L))
                / _dirichlet_by_fine_scan(float(L)) - 1.0)
            for L in offsets)
        assert worst < 1e-12

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.floats(min_value=0.0, max_value=5.0, exclude_max=True))
    def test_first_root_property(self, L):
        lam = closedform.dirichlet_halfspace_gauss(L)
        assert L * L - 1.0 < lam <= L * L + 2.0 * L + PI2
        nu_star = lam / 2.0
        nus = np.arange(1.0, nu_star, 0.01)
        # leave out grid points within the root tolerance of nu*
        nus = nus[nus < nu_star - 1e-9]
        vals = [specfun.hermite_value(float(nu), L) for nu in nus]
        assert all(v > 0.0 for v in vals)

    @staticmethod
    def _counted_hermite(monkeypatch):
        calls = []
        value = specfun.hermite_value

        def counted(nu, t):
            calls.append(nu)
            return value(nu, t)

        monkeypatch.setattr(specfun, "hermite_value", counted)
        return calls

    @staticmethod
    def _no_find_root(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("find_root called")
        monkeypatch.setattr(numerics, "find_root", refuse)

    def test_first_root_two_hermite_calls(self, monkeypatch):
        # the table value's sign bracket, and its regula-falsi point
        offsets = np.linspace(0.0, 5.0, 1001)[:-1]
        calls = self._counted_hermite(monkeypatch)
        self._no_find_root(monkeypatch)
        counts = set()
        for L in offsets:
            calls.clear()
            closedform.dirichlet_halfspace_gauss(float(L))
            counts.add(len(calls))
        assert counts == {2}

    def test_second_root_few_hermite_calls(self, monkeypatch):
        # as the first root: the two ends of the sign bracket and no more
        offsets = np.linspace(0.0, 5.0, 1001)[:-1]
        calls = self._counted_hermite(monkeypatch)
        self._no_find_root(monkeypatch)
        counts = set()
        for L in offsets:
            calls.clear()
            closedform.second_dirichlet_halfspace_gauss(float(L))
            counts.add(len(calls))
        assert counts == {2}

    def test_second_root_inside_its_sign_bracket(self):
        delta = closedform._NU2_DELTA
        for L in np.linspace(0.0, 5.0, 1001)[:-1].tolist():
            g = closedform._chebyshev(closedform._NU2_CHEB, L)
            a, b = g - delta, g + delta
            assert specfun.hermite_value(a, L) * specfun.hermite_value(
                b, L) <= 0.0, L
            assert a <= closedform.second_dirichlet_halfspace_gauss(
                L) / 2.0 <= b, L

    @pytest.mark.parametrize("L, want", [
        (4.2, 35.476874771581827189), (4.3, 36.568900447598331101),
        (4.4, 37.679639855873861899), (4.5, 38.8091177570155303),
        (4.6, 39.957358142554636674), (4.7, 41.124384266489058094),
        (4.8, 42.310218675283267363), (4.9, 43.514883236409316289),
        (4.95, 44.124283478730903089), (4.99, 44.615198669441047669)])
    def test_second_root_near_switch_against_mpmath(self, L, want):
        # where the Kummer combination cancels most.  mpmath 1.3.0 at
        # dps = 40: 2 * mp.findroot(lambda n: mp.hermite(n, L), g) from the
        # table value g = _chebyshev(_NU2_CHEB, L), at the float L
        lam = closedform.second_dirichlet_halfspace_gauss(L)
        assert abs(lam / want - 1.0) <= 2e-13

    def test_table_matches_scan_path(self):
        # within 5e-13 (nu_1) and 5e-12 (nu_2) of the reference scan's
        # roots, whose brentq tolerance is 1e-12; measured 2.5e-13 and 1.8e-12
        worst1 = worst2 = 0.0
        for L in np.linspace(0.0, 5.0, 2001)[:-1]:
            L = float(L)
            nu1, nu2 = _degree_roots_by_scan(L)
            worst1 = max(worst1, abs(
                closedform._chebyshev(closedform._NU1_CHEB, L) - nu1))
            worst2 = max(worst2, abs(
                closedform._chebyshev(closedform._NU2_CHEB, L) - nu2))
        assert worst1 <= 5e-13
        assert worst2 <= 5e-12

    def test_sign_bracket_sweep(self):
        # both tables' sign brackets hold at 10,000 offsets across [0, 5),
        # the ends included, and the roots keep at least 2 apart in nu
        rng = np.random.default_rng(29)
        offsets = np.concatenate([
            np.linspace(0.0, 5.0, 8001)[:-1], rng.uniform(0.0, 5.0, 1996),
            [5e-324, 1e-12, 1e-10, math.nextafter(5.0, 0.0)]])
        for L in offsets.tolist():
            lam1 = closedform.dirichlet_halfspace_gauss(L)
            lam2 = closedform.second_dirichlet_halfspace_gauss(L)
            assert lam2 - lam1 >= 4.0 - 1e-9, L

    @pytest.mark.parametrize("L", [0.0, 1e-10, 0.7, 2.0, 3.45, 4.9, 4.99])
    def test_spoiled_table_raises(self, monkeypatch, L):
        # a table 1e-9 off has no sign change within delta of its value:
        # both roots, and a solve through the first, raise naming L
        for name in ("_NU1_CHEB", "_NU2_CHEB"):
            coeffs = getattr(closedform, name)
            monkeypatch.setattr(closedform, name,
                                (coeffs[0] + 1e-9,) + coeffs[1:])
        named = rf"at L={re.escape(repr(L))}:"
        with pytest.raises(NumericalError, match=named):
            closedform.dirichlet_halfspace_gauss(L)
        with pytest.raises(NumericalError, match=named):
            closedform.second_dirichlet_halfspace_gauss(L)
        cfg = measures.PairConfig(MeasureSpec.gaussian(1), L, 1.0)
        with pytest.raises(NumericalError, match=named):
            closedform.solve(cfg)


def _degree_roots_by_scan(L):
    """Reference nu_1(L), nu_2(L): the first sign changes of nu -> H_nu(L)
    in steps of at most 0.5 from max(1, (L^2 - 1)/2) (the potential bound,
    nu_1(0) = 1 and nu_1 increasing) and from nu_1 + 1 (the roots lie at
    least 2 apart) up to the box bounds on (L, L+1), refined by scipy's
    brentq to 1e-12."""
    from scipy.optimize import brentq
    f = lambda nu: specfun.hermite_value(nu, L)  # noqa: E731

    def root(lo, hi):
        br = scan_sign_change(f, lo, hi, math.ceil(2.0 * (hi - lo)))
        return brentq(f, *br, xtol=1e-12)

    nu1 = root(max(1.0, 0.5 * (L * L - 1.0)), 0.5 * (L * L + 2.0 * L + PI2))
    return nu1, root(nu1 + 1.0, 0.5 * ((L + 1.0) ** 2 - 1.0 + 4.0 * PI2))


def _dirichlet_by_fine_scan(L):
    """Reference: 0.05-step scan of nu -> H_nu(L) from 1, then scipy's
    brentq."""
    from scipy.optimize import brentq
    f = lambda nu: specfun.hermite_value(nu, L)  # noqa: E731
    return 2.0 * brentq(f, *scan_sign_change(f, 1.0, 40.0, 780), xtol=1e-12)


def _gauss_mean_by_quadrature(nu, a):
    h_a = specfun.hermite_value(nu, a)
    return integrate(
        lambda t: (specfun.hermite_value(nu, t) - h_a)
        * measures.gauss_weight_1d(t),
        a, math.inf, tol=1e-13, tail=gauss_tail(a), vectorized=True).value


def _power_mean_by_quadrature(order, freq, X):
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
            h_a, hm_a = specfun.hermite_state(nu, a)
            exact = closedform._gauss_mean(nu, a, h_a, hm_a)
            larger = max(
                abs(math.exp(-a * a) / math.sqrt(math.pi)
                    * specfun.hermite_value(nu - 1.0, a)),
                abs(0.5 * math.erfc(a) * h_a))
            tol = max(1e-10, 1e-16 * math.exp(a * a))
            assert abs(exact - _gauss_mean_by_quadrature(nu, a)) <= \
                tol * larger

    @pytest.mark.parametrize("order", [0.5, 1.5, 3.0])
    def test_power_mean_against_quadrature(self, order):
        j1 = specfun.bessel_zeros(order, 1)[0]
        for X in (0.3, 1.0, 2.5):
            for freq in (0.6 * j1 / X, j1 / X, 1.4 * j1 / X):
                g_X, j_next = closedform._power_state(order, freq, X)
                exact = closedform._power_mean(order, freq, X, g_X, j_next)
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

    @pytest.mark.parametrize("R", [1e-160, 1e-310, 1e300])
    def test_value_beyond_the_normal_floats_raises(self, R):
        # (j_b1 / R)^2 overflows at 1e-160 (a bare OverflowError), is inf
        # at 1e-310 and 0.0 at 1e300 (both returned as values)
        with pytest.raises(ResourceError, match=re.escape(
                f"power half-ball of radius r = {R:.3g} ") + r".*"
                r"\(j_b1 / r\)\^2, a pair's bracket_dirichlet\[1\], is "
                r"not a normal float"):
            closedform.dirichlet_halfball_power(MeasureSpec.power(3, 0.0), R)

    @pytest.mark.parametrize("R", [0.3, 1.0, 7.0, 1e-30, 1e30])
    def test_one_definition_with_the_pair_solver(self, R):
        # a pair's lower bracket end is its larger half-ball's Dirichlet
        # value, solved at the unit scale and scaled back exactly
        for m in (MeasureSpec.power(3, 0.0), MeasureSpec.power(5, 3.0)):
            sol = closedform.twisted_pair_power(
                measures.PairConfig(m, R, 0.6 * R))
            assert closedform.dirichlet_halfball_power(m, R) == \
                sol.bracket_dirichlet[0]

    def test_first_zero_beyond_series_ceiling_named(self):
        # (3,22) has profile order 11.5 and j_{11.5,1} = 16.1 > 16
        with pytest.raises(AccuracyError, match="zero 1 of J_11.5"):
            closedform.dirichlet_halfball_power(MeasureSpec.power(3, 22.0),
                                                1.0)

    def test_largest_order_below_series_ceiling(self):
        # (3,21) has profile order 11 and j_{11,1} = 15.59 < 16
        from scipy.special import jn_zeros
        m = MeasureSpec.power(3, 21.0)
        lam = closedform.dirichlet_halfball_power(m, 1.0)
        assert math.sqrt(lam) == pytest.approx(jn_zeros(11, 1)[0], rel=1e-12)
        sol = closedform.twisted_pair_power(
            measures.config_from_split(m, 1.0, 0.4))
        lo, hi = sol.bracket_dirichlet
        assert lo < sol.eigenvalue <= hi

    def test_second_zero_capped_at_series_ceiling(self):
        # j_{5,2} (scipy jn_zeros) inside the series region; j_{8,2} = 16.04
        # and j_{11,2} = 19.0 beyond it, where the pair bracket stops anyway
        assert closedform._bessel_zero_pair(5.0)[1] == pytest.approx(
            12.338604197466944, rel=1e-13)
        for order in (8.0, 11.0):
            assert closedform._bessel_zero_pair(order)[1] == \
                specfun.BESSEL_SERIES_RMAX


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

    def test_offset_zero_pair(self, monkeypatch):
        # the determinant evaluates the one-pass Hermite state at t = 0
        # exactly, at non-integer degrees
        seen = []
        state = specfun.hermite_state
        monkeypatch.setattr(specfun, "hermite_state",
                            lambda nu, t: seen.append((nu, t)) or state(nu, t))
        cfg = measures.PairConfig(MeasureSpec.gaussian(1), 0.0, 2.0)
        sol = closedform.twisted_pair_gauss(cfg)
        assert any(t == 0.0 and abs(nu - round(nu)) > 1e-6 for nu, t in seen)
        lo, hi = sol.bracket_dirichlet
        assert lo < sol.eigenvalue <= hi
        scale = max(1.0, abs(sol.amp_left), abs(sol.amp_right))
        assert sol.mean_residual <= 1e-9 * scale
        assert sol.matching_residual <= 1e-9 * scale
        assert sol.eigenvalue == pytest.approx(5.3752907463002844, rel=1e-13)
        lam_o = oracle.twisted_eig(oracle.gaussian_pair_domain(cfg))
        assert sol.eigenvalue == pytest.approx(lam_o.eigenvalues[0], rel=1e-3)

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
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.41)
        sol = closedform.twisted_pair_gauss(cfg)
        L, R = cfg.left_param, cfg.right_param
        left = integrate(
            lambda t: np.asarray([sol.u_left_at(-x) ** 2 for x in t])
            * measures.gauss_weight_1d(t),
            L, math.inf, tail=gauss_tail(L), vectorized=True)
        right = integrate(
            lambda t: np.asarray([sol.u_right_at(x) ** 2 for x in t])
            * measures.gauss_weight_1d(t),
            R, math.inf, tail=gauss_tail(R), vectorized=True)
        assert left.value + right.value == pytest.approx(1.0, rel=1e-8)

    def test_zero_weighted_mean_of_eigenfunction(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.6, 0.37)
        sol = closedform.twisted_pair_gauss(cfg)
        L, R = cfg.left_param, cfg.right_param
        left = integrate(
            lambda t: np.asarray([sol.u_left_at(-x) for x in t])
            * measures.gauss_weight_1d(t),
            L, math.inf, tail=gauss_tail(L), vectorized=True)
        right = integrate(
            lambda t: np.asarray([sol.u_right_at(x) for x in t])
            * measures.gauss_weight_1d(t),
            R, math.inf, tail=gauss_tail(R), vectorized=True)
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
        L, R = cfg.left_param, cfg.right_param
        assert sol.u_left_at(-L) == pytest.approx(0.0, abs=1e-12)
        assert sol.u_right_at(R) == pytest.approx(0.0, abs=1e-12)
        ts = np.linspace(1e-3, 4.0, 64)
        left = np.array([sol.u_left_at(-L - t) for t in ts])
        right = np.array([sol.u_right_at(R + t) for t in ts])
        assert np.all(left > 0.0)   # orientation convention
        assert np.all(right < 0.0)
        assert sol.single_signed


def _reported(sol, h):
    """(name, value, p) of each reported float of a power solution, in the
    order the solver checks them, the value scaling like length^-p;
    h = (n + k)/2."""
    return [("eigenvalue", sol.eigenvalue, 2), ("freq", sol.freq, 1),
            ("bracket_dirichlet[0]", sol.bracket_dirichlet[0], 2),
            ("bracket_dirichlet[1]", sol.bracket_dirichlet[1], 2),
            ("amp_left", sol.amp_left, 1), ("amp_right", sol.amp_right, 1),
            ("nonlocal_c", sol.nonlocal_c, h + 2),
            ("du_left", sol.du_left, h + 1), ("du_right", sol.du_right, h + 1)]


class TestTwistedPairPower:
    def test_two_unit_balls_k0(self):
        cfg = measures.PairConfig(MeasureSpec.power(3, 0.0), 1.0, 1.0)
        sol = closedform.twisted_pair_power(cfg)
        assert sol.eigenvalue == pytest.approx(PI2, rel=1e-6)
        assert sol.nonlocal_c == 0.0

    def test_two_unit_balls_k0_to_round_off(self):
        cfg = measures.PairConfig(MeasureSpec.power(3, 0.0), 1.0, 1.0)
        sol = closedform.twisted_pair_power(cfg)
        assert abs(sol.eigenvalue - PI2) <= 1e-12 * PI2

    def test_two_unit_balls_k0_exact(self):
        # the symmetric pair's value is (j_{1/2,1}/R)^2 = pi^2, and the
        # zero scan returns j_{1/2,1} as the float pi
        cfg = measures.PairConfig(MeasureSpec.power(3, 0.0), 1.0, 1.0)
        assert closedform.twisted_pair_power(cfg).eigenvalue == PI2

    def test_scaling(self):
        m = MeasureSpec.power(2, 1.0)
        a = closedform.twisted_pair_power(measures.PairConfig(m, 1.0, 0.8))
        b = closedform.twisted_pair_power(measures.PairConfig(m, 2.0, 1.6))
        assert a.eigenvalue / b.eigenvalue == pytest.approx(4.0, rel=1e-9)

    @pytest.mark.parametrize("n, k", [(2, 0.5), (3, 0.0), (2, 1.0), (3, 2.0),
                                      (5, 3.0), (10, 4.0), (3, 7.0)])
    def test_float_edge_sweep(self, n, k):
        # radii 10^e out to where c, which runs like r^-((n+k)/2 + 2), is
        # 10^+-400, R/L random in e^(+-3): a pair is its unit twin scaled
        # by homogeneity, lambda(cL, cR) c^2 = lambda(L, R), which predicts
        # each reported value.  Where every prediction is a normal float
        # by a factor 1e3 the pair solves; where the first one that is not
        # lies a factor 1e3 beyond the normal floats the solve raises a
        # ResourceError naming it
        m = MeasureSpec.power(n, k)
        h = (n + k) / 2.0
        lo, hi = (math.log10(x) for x in (sys.float_info.min,
                                          sys.float_info.max))
        rng = np.random.default_rng([n, round(10 * k)])
        solved = raised = 0
        reach = math.ceil(800 / (n + k + 4))
        for e in range(-reach, reach + 1):
            ratio = math.exp(rng.uniform(-3.0, 3.0))
            L = 10.0 ** e
            twin = closedform.solve(measures.PairConfig(m, 1.0, ratio))
            size = [(name, math.log10(abs(v)) - p * e)
                    for name, v, p in _reported(twin, h)]
            out = [(name, x) for name, x in size
                   if not lo + 3 < x < hi - 3]
            cfg = measures.PairConfig(m, L, L * ratio)
            if not out:
                solved += 1
                sol = closedform.solve(cfg)
                assert all(sys.float_info.min <= abs(v) < math.inf
                           for _, v, _ in _reported(sol, h)), (L, ratio)
                assert abs(sol.eigenvalue * L * L / twin.eigenvalue
                           - 1.0) <= 1e-12, (L, ratio)
            elif not lo - 3 < out[0][1] < hi + 3:
                raised += 1
                with pytest.raises(ResourceError, match=re.escape(
                        f": {out[0][0]} = ")):
                    closedform.solve(cfg)
        assert solved >= 600 / (n + k + 4) and raised >= 100 / (n + k + 4)

    def test_homogeneity_across_scales(self):
        # lambda(c, c (1 + r)) = lambda(1, 1 + r) / c^2 down to radii 1e-8:
        # the symmetric branch compares radii relatively, so a pair 5e-4
        # apart at radius 1e-6 is asymmetric.  r = 1e-9 is left out: it
        # sits on the threshold, where rounding of c (1 + r) picks the
        # branch at every scale
        ratios = [0.0] + [10.0 ** e for e in range(-14, 0) if e != -9]
        scales = [10.0 ** e for e in range(-8, 5)]
        worst = 0.0
        for n, k in ((3, 0.0), (3, 2.0), (5, 3.0)):
            m = MeasureSpec.power(n, k)
            for r in ratios:
                ref = closedform.solve(
                    measures.PairConfig(m, 1.0, 1.0 + r)).eigenvalue
                for c in scales:
                    lam = closedform.solve(
                        measures.PairConfig(m, c, c * (1.0 + r))).eigenvalue
                    worst = max(worst, abs(c * c * lam / ref - 1.0))
        assert worst <= 1e-12

    @pytest.mark.parametrize("n, k", [(3, 0.0), (3, 2.0), (5, 3.0),
                                      (3, 17.0), (2, 0.5)])
    def test_homogeneity_exact_under_powers_of_two(self, n, k):
        # radii scaled by 2^e, e a multiple of 8, give the same unit-scale
        # solve, so every reported value scales by its exact power of two
        # (e (n+k)/2 is an integer): the pair solves exactly where all of
        # them are normal floats, bit for bit, and raises ResourceError
        # naming the first one that is not
        m = MeasureSpec.power(n, k)
        h = (n + k) / 2.0
        solved = 0
        for L, R in ((1.0, 0.31), (1.0, 0.7)):
            ref = _reported(closedform.solve(measures.PairConfig(m, L, R)), h)
            for e in range(-1016, 1017, 8):
                want = []
                for name, v, p in ref:
                    try:
                        want.append((name, math.ldexp(v, round(-p * e))))
                    except OverflowError:
                        want.append((name, math.inf))
                bad = [name for name, v in want
                       if not sys.float_info.min <= abs(v) < math.inf]
                cfg = measures.PairConfig(m, math.ldexp(L, e),
                                          math.ldexp(R, e))
                if bad:
                    with pytest.raises(ResourceError,
                                       match=re.escape(f": {bad[0]} = ")):
                        closedform.solve(cfg)
                    continue
                solved += 1
                got = [(name, v) for name, v, _ in
                       _reported(closedform.solve(cfg), h)]
                assert got == want, (L, R, e)
        assert solved >= 2 * 400 / (n + k + 4)

    @pytest.mark.parametrize("n, k", [(3, 0.0), (2, 0.5), (5, 3.0)])
    def test_fields_scale_with_the_radii(self, n, k):
        # scales that are not powers of two: each reported value and u
        # scale by their power of the radius, also where e (n+k)/2 is not
        # an integer (kappa = 2^(-e (n+k)/2) is then not a power of two)
        m = MeasureSpec.power(n, k)
        h = (n + k) / 2.0
        ref = closedform.solve(measures.PairConfig(m, 3.0, 2.1))
        for c in (3.0, 1e-5, 7e6):
            sol = closedform.solve(measures.PairConfig(m, 3.0 * c, 2.1 * c))
            for (name, v, p), (_, w, _) in zip(_reported(sol, h),
                                               _reported(ref, h)):
                assert v == pytest.approx(w * c ** -p, rel=1e-11), (name, c)
            for r in (0.5, 1.7):
                assert sol.u_left_at(r * c) == pytest.approx(
                    ref.u_left_at(r) * c ** -h, rel=1e-11)
                assert sol.u_right_at(r * c) == pytest.approx(
                    ref.u_right_at(r) * c ** -h, rel=1e-11)

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(st.sampled_from([(3, 0.0), (3, 2.0), (5, 3.0), (3, 17.0),
                            (2, 0.5)]),
           st.floats(-330.0, 330.0), st.floats(-330.0, 330.0))
    def test_reported_floats_normal_or_named(self, nk, u, v):
        # radii 10^u, 10^v (those that are positive floats): a pair solves
        # with every reported value a normal float (c = 0 only at a
        # symmetric pair), or raises a ResourceError naming the field that
        # is not one; no bare OverflowError or ZeroDivisionError, no
        # silent 0.0
        assume(max(u, v) < 308.0)
        L, R = 10.0 ** u, 10.0 ** v
        assume(L > 0.0 and R > 0.0)
        m = MeasureSpec.power(*nk)
        cfg = measures.PairConfig(m, L, R)
        names = [name for name, *_ in _reported(
            closedform.solve(measures.PairConfig(m, 1.0, 0.5)), 1.0)]
        try:
            sol = closedform.solve(cfg)
        except ResourceError as exc:
            assert any(name in str(exc) for name in names), str(exc)
            return
        for name, x, _ in _reported(sol, 1.0):
            if name == "nonlocal_c" and cfg.is_symmetric:
                assert x == 0.0
            else:
                assert sys.float_info.min <= abs(x) < math.inf, name

    @pytest.mark.parametrize("mass", [1e30, 1e100, 1e198])
    def test_residuals_pass_the_benchmark_gate_at_large_masses(self, mass):
        # the residuals are taken at the solve's unit scale, so the
        # benchmark's pair gate, residual <= 1e-9 max(1, |A|, |B|), holds
        # however large the mass (a residual at the given radii grows with
        # the mass: 1.42 at 1e30, 2.3e84 at 1e198)
        sol = closedform.solve(measures.config_from_split(
            MeasureSpec.power(3, 0.0), mass, 0.37))
        gate = 1e-9 * max(1.0, abs(sol.amp_left), abs(sol.amp_right))
        assert sol.mean_residual <= gate
        assert sol.matching_residual <= gate

    def test_asymmetric_against_oracle(self):
        m = MeasureSpec.power(2, 1.0)
        cfg = measures.config_from_split(m, 1.0, 0.6)
        sol = closedform.twisted_pair_power(cfg)
        lam_o = oracle.twisted_eig(oracle.power_pair_domain(cfg))
        assert sol.eigenvalue == pytest.approx(lam_o.eigenvalues[0], rel=1e-3)

    def test_tiny_profile_order_against_oracle(self):
        # (2, 1e-4) has profile order 5e-5: its zero scans start at the
        # grid floor 1e-6, not at the order
        m = MeasureSpec.power(2, 1e-4)
        assert m.profile_order == pytest.approx(5e-5)
        cfg = measures.config_from_split(m, 1.0, 0.4)
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

    def test_eigenfunction_domain_is_relative_to_the_radius(self):
        # at radius 1e-13 a point 4e-13 outside is rejected; at radius 1e10
        # a point one rounding step outside is the boundary
        m = MeasureSpec.power(3, 0.0)
        tiny = closedform.solve(measures.PairConfig(m, 1e-13, 1.2e-13))
        with pytest.raises(DomainError, match="left component"):
            tiny.u_left_at(5e-13)
        big = closedform.solve(measures.PairConfig(m, 1e10, 1.2e10))
        assert abs(big.u_left_at(1e10 * (1 + 1e-15))) <= 1e-12 * abs(
            big.u_left_at(0.0))
        with pytest.raises(DomainError, match="left component"):
            big.u_left_at(1e10 * (1 + 1e-11))

    def test_one_zero_scan_per_order(self, monkeypatch):
        calls = []
        scan = specfun.bessel_zeros

        def counted(order, count):
            calls.append(order)
            return scan(order, count)

        monkeypatch.setattr(specfun, "bessel_zeros", counted)
        twistspec.clear_caches()
        m = MeasureSpec.power(3, 2.0)
        for s in (0.35, 0.45, 0.5):
            closedform.twisted_pair_power(measures.config_from_split(m, 2.0, s))
        closedform.dirichlet_halfball_power(m, 1.0)
        assert calls == [m.profile_order]

    def test_determinant_sums_two_series(self, monkeypatch):
        # one evaluation of the power secular function: one bessel_state
        # pass per boundary, and no separate Bessel series
        functions = []
        root = numerics.find_root

        def keep(f, *args, **kwargs):
            functions.append(f)
            return root(f, *args, **kwargs)

        monkeypatch.setattr(numerics, "find_root", keep)
        cfg = measures.config_from_split(MeasureSpec.power(3, 2.0), 5.0, 0.37)
        closedform.twisted_pair_power(cfg)
        calls = []
        for name in ("bessel_state", "bessel_j_scaled_vec"):
            fn = getattr(specfun, name)
            monkeypatch.setattr(specfun, name, lambda *args, _fn=fn, _name=name:
                                calls.append(_name) or _fn(*args))
        (f,) = functions
        f(3.2)
        assert calls == ["bessel_state", "bessel_state"]

    def test_lopsided_pair_flagged_but_agrees_with_oracle(self):
        # beyond the monotone-profile window the pair root still matches the
        # reduced 1D constrained eigenvalue; the eigenfunction grows a thin
        # opposite-sign shell, reported via single_signed
        m = MeasureSpec.power(3, 0.0)
        cfg = measures.config_from_split(m, 2 * measures.halfball_mass(m, 1.0) * 2, 0.2)
        sol = closedform.twisted_pair_power(cfg)
        assert not sol.single_signed
        lam_o = oracle.twisted_eig(oracle.power_pair_domain(cfg))
        assert sol.pair_root == pytest.approx(lam_o.eigenvalues[0], rel=1e-3)


def _progressive_scan_lambda(cfg):
    """Reference: the smallest determinant root on the whole Dirichlet
    bracket by 32-, 192- and 1024-step scans, then scipy's brentq (the
    pair solver's root search before the interlacing bracket)."""
    from scipy.optimize import brentq
    m = cfg.measure
    fam = (closedform._GAUSS if m.is_gaussian
           else closedform._power_family(m.n + m.k))
    L, R = cfg.left_param, cfg.right_param
    lams = (fam.dirichlet(L), fam.dirichlet(R))
    lo, hi = fam.x_of(min(lams)), fam.x_of(max(lams))

    def D(x):
        (pL, qL), (pR, qR) = fam.state(x, L), fam.state(x, R)
        return fam.mean(x, L, pL, qL) * pR + fam.mean(x, R, pR, qR) * pL

    eps = 1e-10 * max(1.0, abs(lo))
    for steps in (32, 192, 1024):
        br = scan_sign_change(D, lo + eps, hi, steps)
        if br is not None:
            return fam.lam(brentq(D, *br, xtol=1e-13))
    raise AssertionError(f"no determinant root for {cfg}")


def _second_dirichlet_value(cfg):
    """Reference second Dirichlet value of the larger component: a 0.05-step
    degree scan (gaussian) or scipy's J_b (power), then Brent."""
    from scipy.optimize import brentq
    from scipy.special import jv
    L, R = cfg.left_param, cfg.right_param
    if cfg.measure.is_gaussian:
        a = min(L, R)
        nu1 = closedform.dirichlet_halfspace_gauss(a) / 2.0
        f = lambda nu: specfun.hermite_value(nu, a)  # noqa: E731
        nus = np.arange(nu1 + 0.5, nu1 + 30.0, 0.05)
        vals = [f(float(nu)) for nu in nus]
        i = next(i for i in range(len(nus) - 1) if vals[i] * vals[i + 1] <= 0)
        return 2.0 * brentq(f, nus[i], nus[i + 1], xtol=1e-14)
    b = cfg.measure.profile_order
    xs = np.arange(b + 0.5, b + 20.0, 0.05)
    vals = jv(b, xs)
    hits = [i for i in range(len(xs) - 1) if vals[i] * vals[i + 1] <= 0]
    j2 = brentq(lambda x: jv(b, x), xs[hits[1]], xs[hits[1] + 1], xtol=1e-14)
    return (j2 / max(L, R)) ** 2


# The gaussian pair the `lemma` suite draws (seed 0), where D has two roots
# in the Dirichlet bracket and equal signs at its ends.
LEMMA_PAIR = (float.fromhex("0x1.94b712619868cp+0"),
              float.fromhex("0x1.7f8116f96560ep-2"))

BRACKET_FAMILIES = (MeasureSpec.gaussian(1), MeasureSpec.power(3, 0.0),
                    MeasureSpec.power(3, 2.0), MeasureSpec.power(2, 1.0),
                    MeasureSpec.power(2, 0.5))


class TestInterlacingBracket:
    """The root on (Lambda_1, Lambda_2] is the one the progressive scan over
    the whole Dirichlet bracket finds."""

    def _check(self, cfg):
        sol = closedform.solve(cfg)
        lam1, lam_hi = sol.bracket_dirichlet
        lam2 = min(lam_hi, _second_dirichlet_value(cfg))
        assert lam1 < sol.pair_root <= lam2 * (1.0 + 1e-14)
        assert sol.pair_root == pytest.approx(_progressive_scan_lambda(cfg),
                                              rel=1e-12)
        return lam2 < lam_hi

    def test_lemma_pair_needs_the_cap(self):
        cfg = measures.PairConfig(MeasureSpec.gaussian(1), *LEMMA_PAIR)
        lam1, lam_hi = closedform.solve(cfg).bracket_dirichlet
        assert 1.478 < lam1 / 2 and lam_hi / 2 < 3.826
        assert self._check(cfg)

    @pytest.mark.parametrize("total", [0.5, 3.0, 40.0])
    def test_power_split_beyond_zero_ratio(self, total):
        # R_max/R_min = 9^{1/3} > j_{1/2,2}/j_{1/2,1} = 2
        m = MeasureSpec.power(3, 0.0)
        cfg = measures.config_from_split(m, total, 0.1)
        assert max(cfg.left_param, cfg.right_param) / min(
            cfg.left_param, cfg.right_param) > 2.0
        assert self._check(cfg)

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(st.sampled_from(BRACKET_FAMILIES),
           st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    def test_matches_progressive_scan(self, measure, u_mass, u_split):
        if measure.is_gaussian:
            total = 10.0 ** (-6.0 + 6.0 * u_mass) * 0.99
            lo, hi = measures.gaussian_split_window(total)
            # keep the smaller mass >= 1e-10 (offset below about 4.5)
            lo = max(lo, 1e-10 / total)
            hi = min(hi, 1.0 - 1e-10 / total)
        else:
            total = 10.0 ** (-1.0 + 3.0 * u_mass)
            lo, hi = 0.01, 0.99
        s = lo + u_split * (hi - lo)
        assume(abs(s - 0.5) > 1e-6)     # symmetric pairs take no root search
        self._check(measures.config_from_split(measure, total, s))


SECULAR_FAMILIES = (MeasureSpec.gaussian(1), MeasureSpec.power(3, 0.0),
                    MeasureSpec.power(2, 1.0), MeasureSpec.power(3, 2.0),
                    MeasureSpec.power(5, 3.0))
SECULAR_IDS = ["gauss1", "power30", "power21", "power32", "power53"]


def _family(measure):
    return (closedform._GAUSS if measure.is_gaussian
            else closedform._power_family(measure.n + measure.k))


def _secular_configs(measure, count=40, seed=2026):
    """Asymmetric pairs over the mass and split ranges of the benchmark's
    pair streams: gaussian total mass log-uniform in [1e-6, 0.8] with both
    component masses at most 1/2, power total mass in [0.1, 100]; split in
    [0.3, 0.7], at least 1e-3 away from 1/2."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        um, us = rng.random(2)
        if measure.is_gaussian:
            total = 10.0 ** (-6.0 + um * math.log10(0.8 / 1e-6))
            lo = max(0.3, 1.0 - 0.5 / total + 1e-9)
            hi = min(0.7, 0.5 / total - 1e-9)
        else:
            total, lo, hi = 10.0 ** (-1.0 + 3.0 * um), 0.3, 0.7
        s = lo + us * (hi - lo)
        if abs(s - 0.5) >= 1e-3:
            out.append(measures.config_from_split(measure, total, s))
    return out


def _count_secular_evals(monkeypatch):
    """A list that counts the evaluations of the secular function each
    find_root call makes, into its last entry: append 0 before each
    solve."""
    evals = []
    find_root = numerics.find_root

    def counted_root(f, bracket, *args, **kwargs):
        def g(x):
            evals[-1] += 1
            return f(x)
        return find_root(g, bracket, *args, **kwargs)

    monkeypatch.setattr(numerics, "find_root", counted_root)
    return evals


def _floor_root_lambda(cfg, sol):
    """lambda from the root of D = M_L p_R + M_R p_L on the solution's
    bracket ends, by scipy's brentq to its rounding floor (rtol 8.9e-16);
    D has no pole, so its value at the poles of f is finite."""
    from scipy.optimize import brentq
    fam = _family(cfg.measure)
    L, R = cfg.left_param, cfg.right_param

    def D(x):
        (pL, qL), (pR, qR) = fam.state(x, L), fam.state(x, R)
        return fam.mean(x, L, pL, qL) * pR + fam.mean(x, R, pR, qR) * pL

    x = sol.nu if cfg.measure.is_gaussian else sol.freq
    lo, hi = x * (1.0 - 1e-9), x * (1.0 + 1e-9)
    while D(lo) * D(hi) > 0.0:
        lo, hi = x - 10.0 * (x - lo), x + 10.0 * (hi - x)
    return fam.lam(brentq(D, lo, hi, xtol=1e-300, rtol=8.9e-16))


class TestSecularPairSolve:
    """The pair root from the two-pole secular step: accuracy against the
    rounding floor of D, its cost in evaluations, and its edge cases."""

    @pytest.mark.parametrize("measure", SECULAR_FAMILIES, ids=SECULAR_IDS)
    def test_root_at_the_rounding_floor(self, measure):
        worst = 0.0
        for cfg in _secular_configs(measure):
            sol = closedform.solve(cfg)
            want = _floor_root_lambda(cfg, sol)
            worst = max(worst, abs(sol.eigenvalue - want) / want)
        assert worst <= 5e-15

    @pytest.mark.parametrize("measure", SECULAR_FAMILIES, ids=SECULAR_IDS)
    def test_evaluations_per_solve(self, measure, monkeypatch):
        # the secular function the solve hands to find_root, counted per
        # asymmetric solve, and for power the Bessel passes behind it
        evals, states = _count_secular_evals(monkeypatch), []
        state = specfun.bessel_state

        def counted_state(*args, **kwargs):
            states[-1] += 1
            return state(*args, **kwargs)

        monkeypatch.setattr(specfun, "bessel_state", counted_state)
        if not measure.is_gaussian:
            closedform._bessel_zero_pair(measure.profile_order)
        for cfg in _secular_configs(measure):
            evals.append(0)
            states.append(0)
            closedform.solve(cfg)
        assert max(evals) <= 6 and np.mean(evals) <= 4.5, evals
        if not measure.is_gaussian:
            assert max(states) <= 12, states

    def test_power_state_passes_per_solve(self, monkeypatch):
        # the secular step takes the exact slope from the boundary states:
        # 300 asymmetric pairs of the benchmark's three power families take
        # 6.22 bessel_state passes per solve on average (a secant remainder
        # took 7.91)
        families = (MeasureSpec.power(3, 0.0), MeasureSpec.power(3, 2.0),
                    MeasureSpec.power(5, 3.0))
        cfgs = [cfg for m in families
                for cfg in _secular_configs(m, count=100, seed=1)]
        for m in families:
            closedform._power_family(m.n + m.k)
        passes = []
        state = specfun.bessel_state
        monkeypatch.setattr(specfun, "bessel_state",
                            lambda *args: passes.append(args) or state(*args))
        for cfg in cfgs:
            closedform.solve(cfg)
        assert len(passes) / len(cfgs) <= 6.6

    def test_power_normalization_takes_no_bessel_value(self, monkeypatch):
        # the norm is the secular slope at the root: the one Bessel value
        # a power solve takes besides its states is the profile at order b
        # that orients the sign, and none at order b + 2
        m = MeasureSpec.power(3, 2.0)
        cfgs = _secular_configs(m, count=20, seed=1) + [
            measures.PairConfig(m, 1.0, 1.0)]
        closedform._power_family(m.n + m.k)
        orders = []
        scaled = specfun.bessel_j_scaled_vec
        monkeypatch.setattr(
            specfun, "bessel_j_scaled_vec",
            lambda order, z: orders.append(order) or scaled(order, z))
        for cfg in cfgs:
            closedform.solve(cfg)
        assert len(orders) == len(cfgs)
        assert set(orders) == {m.profile_order}

    @pytest.mark.parametrize("n,k,L,R", [
        (3, 0.0, 1.0, 1.3), (2, 1.0, 0.6, 1.0), (3, 2.0, 1.0, 0.45),
        (5, 3.0, 1.7, 1.0), (3, 0.0, 1.0, 1e-12), (3, 2.0, 1e-12, 1.0),
        (3, 17.0, 1.0, 1.3), (3, 17.0, 1.0, 1e-12)])
    def test_power_slope_against_central_difference(self, n, k, L, R,
                                                    monkeypatch):
        # the slope the power secular function hands to find_root, against
        # a central difference of its value (step 1e-6 relative) across the
        # bracket between its poles; at n + k = 20 the difference carries
        # the value's rounding, up to 5e-7 of the slope (1e-8 at step 1e-5)
        functions, brackets = [], []
        root = numerics.find_root

        def keep(f, bracket):
            functions.append(f)
            brackets.append(bracket)
            return root(f, bracket)

        monkeypatch.setattr(numerics, "find_root", keep)
        closedform.solve(measures.PairConfig(MeasureSpec.power(n, k), L, R))
        (f,), (bracket,) = functions, brackets
        p1, p2 = bracket.poles
        for u in (0.05, 0.2, 0.5, 0.8, 0.95):
            x = p1 + u * (p2 - p1)
            h = 1e-6 * x
            slope = f(x)[1]
            diff = (f(x + h)[0] - f(x - h)[0]) / (2.0 * h)
            assert abs(slope - diff) <= 1e-6 * abs(diff), (u, slope, diff)

    @pytest.mark.parametrize("measure", SECULAR_FAMILIES, ids=SECULAR_IDS)
    def test_residue_against_central_difference(self, measure):
        # w = -M / (dp/dx) at a pole: closed form for power (a^{2b}/f), the
        # degree table's slope for gaussian; dp/dx here by a central
        # difference
        fam = _family(measure)
        for a in (0.3, 1.1) if measure.is_gaussian else (0.8, 2.5):
            x = fam.x_of(fam.dirichlet(a))
            h = 1e-5 * x
            p_plus, p_minus = fam.state(x + h, a)[0], fam.state(x - h, a)[0]
            q = fam.state(x, a)[1]
            slope = (p_plus - p_minus) / (2.0 * h)
            want = -fam.mean(x, a, 0.0, q) / slope
            assert fam.residue(x, a, 1) == pytest.approx(want, rel=1e-8)
            assert fam.residue(x, a, 1) > 0.0

    def test_gauss_residue_against_hermite_jet(self):
        # the table form e^{-a^2} nu_k'(a) / (2 sqrt(pi) nu_k) against
        # -M / (d/dnu H_nu(a)) with M and d/dnu H_nu from a complex-step
        # Hermite jet, for the first and the second degree root
        for a in np.linspace(0.0, 4.99, 200).tolist():
            lam1 = closedform.dirichlet_halfspace_gauss(a)
            lam2 = closedform.second_dirichlet_halfspace_gauss(a)
            for k, nu in ((1, 0.5 * lam1), (2, 0.5 * lam2)):
                _, hp, dh, _ = specfun._hermite_jet(nu, a)
                mean = closedform._gauss_mean(nu, a, 0.0, hp / (2.0 * nu))
                want = -mean / dh
                got = closedform._gauss_residue(nu, a, k)
                assert abs(got - want) <= 1e-10 * want, (a, k, got, want)

    def test_hermite_jets_per_gauss_solve(self, monkeypatch):
        # the pole residues call no Hermite function: the jets left are the
        # normalization's slope, one per component of an asymmetric pair; a
        # symmetric pair normalizes from its pole residue with none
        calls = []
        jet = specfun._hermite_jet

        def counted_jet(*args):
            calls[-1] += 1
            return jet(*args)

        monkeypatch.setattr(specfun, "_hermite_jet", counted_jet)
        g = MeasureSpec.gaussian(1)
        # (0.05, 3): the top pole is the larger component's second root
        cfgs = _secular_configs(g, 10) + [measures.PairConfig(g, 0.05, 3.0)]
        for cfg in cfgs:
            calls.append(0)
            closedform.solve(cfg)
        assert calls == [2] * 11
        calls.append(0)
        closedform.solve(measures.config_from_split(g, 0.5, 0.5))
        assert calls[-1] == 0

    @pytest.mark.parametrize("scale", [1.0 + 1e-6, 1.0 - 1e-6])
    def test_gauss_root_insensitive_to_residues(self, scale, monkeypatch):
        # the residues only shape the secular model: scaled by 1 +- 1e-6,
        # each solve still stops within find_root's step, 4 ulps of the
        # top pole, of the root, so the two lambdas agree to twice it
        # (bracket_dirichlet[1] is at least the top pole), in at most 6
        # evaluations of f
        g = MeasureSpec.gaussian(1)
        cfgs = _secular_configs(g) + [measures.PairConfig(g, 0.05, 3.0)]
        base = [closedform.solve(cfg) for cfg in cfgs]
        gauss = closedform._GAUSS
        monkeypatch.setattr(closedform, "_GAUSS", dataclasses.replace(
            gauss, residue=lambda x, a, k: scale * gauss.residue(x, a, k)))
        evals = _count_secular_evals(monkeypatch)
        for cfg, sol in zip(cfgs, base):
            evals.append(0)
            lam = closedform.solve(cfg).eigenvalue
            tol = 8.0 * math.ulp(1.0) * sol.bracket_dirichlet[1]
            assert abs(lam - sol.eigenvalue) <= tol, (cfg, lam, sol.eigenvalue)
        assert max(evals) <= 6, evals

    def test_second_root_pole_against_mpmath(self, monkeypatch):
        # Lambda_2 of (0.05, 3) is the second Dirichlet value of the offset
        # 0.05 (6.171 < 16.52), so the top residue comes from _NU2_CHEB.
        # Reference from mpmath 1.3.0 at dps = 40, the root of D:
        #   M = lambda n, a: (exp(-a*a) * hermite(n - 1, a) / sqrt(pi)
        #                     - hermite(n, a) * erfc(a) / 2)
        #   2 * findroot(lambda n: M(n, L) * hermite(n, R)
        #                + M(n, R) * hermite(n, L), 2.7558, tol=1e-35)
        brackets = []
        find_root = numerics.find_root

        def kept_root(f, bracket, *args, **kwargs):
            brackets.append(bracket)
            return find_root(f, bracket, *args, **kwargs)

        monkeypatch.setattr(numerics, "find_root", kept_root)
        sol = closedform.solve(
            measures.PairConfig(MeasureSpec.gaussian(1), 0.05, 3.0))
        (br,) = brackets
        assert br.residues == (closedform._gauss_residue(br.poles[0], 0.05, 1),
                               closedform._gauss_residue(br.poles[1], 0.05, 2))
        ref = 5.511666182089066651062513
        assert abs(sol.eigenvalue - ref) <= 1e-13 * ref

    def test_ceiling_top_one_pole(self):
        # power (3,17): j_{9,2} = 17.24 lies beyond the series ceiling 16,
        # so the bracket top is f = 16 / R_max, no pole.  Reference from
        # mpmath 1.3.0 at dps = 60 with the pair's float radii:
        #   b = 9; p = lambda F, a: a**-b * besselj(b, F*a)
        #   M = lambda F, a: a**(b+1) * besselj(b+1, F*a)/F
        #                    - a**(2*b+2) * p(F, a)/(2*b+2)
        #   findroot(lambda F: M(F, L) p(F, R) + M(F, R) p(F, L), 12.72)**2
        # Near the ceiling the series loses digits: f changes sign back and
        # forth within about 2e-13 of the root (relative, in F), so the
        # gate is 1e-12.
        m = MeasureSpec.power(3, 17.0)
        cfg = measures.config_from_split(m, 1.0, 0.01)
        lam2, owner = _family(m).top(cfg.right_param, cfg.left_param,
                                     *closedform.solve(cfg).bracket_dirichlet)
        assert owner is None
        sol = closedform.solve(cfg)
        ref = 161.8580669299785403526606
        assert abs(sol.pair_root - ref) <= 1e-12 * ref
        assert sol.bracket_dirichlet[0] < sol.pair_root < lam2

    def test_ceiling_without_sign_change_raises(self):
        m = MeasureSpec.power(3, 21.0)
        cfg = measures.config_from_split(m, 1.0, 0.05)
        with pytest.raises(NumericalError, match=r"no sign change of the "
                           r"power secular function on the interlacing "
                           r"bracket \(168\.721, 177\.715\]"):
            closedform.solve(cfg)

    @pytest.mark.parametrize("measure", SECULAR_FAMILIES[:3],
                             ids=SECULAR_IDS[:3])
    def test_nearly_symmetric_pair(self, measure):
        # |L - R| = 2e-9, just past the symmetric branch: the poles lie
        # about 1e-9 apart and the root between them
        cfg = measures.PairConfig(measure, 0.9, 0.9 + 2e-9)
        assert not cfg.is_symmetric
        sol = closedform.solve(cfg)
        lo, hi = sol.bracket_dirichlet
        assert lo < sol.eigenvalue <= hi
        assert math.isfinite(sol.amp_left) and math.isfinite(sol.amp_right)
        want = _floor_root_lambda(cfg, sol)
        assert abs(sol.eigenvalue - want) <= 5e-15 * want

    def test_residues_of_opposite_sign_raise(self, monkeypatch):
        gauss = closedform._GAUSS
        signs = iter([1.0, -1.0])
        monkeypatch.setattr(closedform, "_GAUSS", dataclasses.replace(
            gauss,
            residue=lambda x, a, k: next(signs) * gauss.residue(x, a, k)))
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.4)
        with pytest.raises(NumericalError, match=r"residues .* and -.* at "
                           r"the poles nu_1 = .* and nu_2 = "):
            closedform.solve(cfg)


class TestOneRecordPerDegreeSum:
    """Pair roots depend on (n, k) only through n + k (power) and not on n
    at all (gaussian): the measures share one family record, and the
    angular constant enters the normalization alone."""

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.floats(min_value=-30.0, max_value=30.0),
           st.floats(min_value=-3.0, max_value=3.0))
    def test_power_roots_bitwise_across_n_and_k(self, log_l, log_ratio):
        L = 10.0 ** log_l
        R = L * 10.0 ** log_ratio
        before = closedform._power_family.cache_info()
        sols = [closedform.solve(measures.PairConfig(
            MeasureSpec.power(n, k), L, R))
            for n, k in ((3, 0.0), (2, 1.0), (1, 2.0))]
        after = closedform._power_family.cache_info()
        assert after.misses - before.misses <= 1
        assert after.hits + after.misses - before.hits - before.misses == 3
        assert len({(s.pair_root, s.freq, s.alpha) for s in sols}) == 1

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(st.floats(min_value=0.0, max_value=4.5),
           st.floats(min_value=0.0, max_value=4.5))
    def test_gauss_roots_bitwise_across_n(self, L, R):
        # every gaussian measure solves over the one record _GAUSS
        sols = [closedform.solve(measures.PairConfig(
            MeasureSpec.gaussian(n), L, R)) for n in (1, 2, 3)]
        assert len({(s.pair_root, s.nu) for s in sols}) == 1


class TestSingleSignedEdge:
    def test_power_window_edge(self):
        # f R_max / j_{b+1,1} = 1.00132: the larger profile has a thin
        # opposite-sign shell that 64-point sampling misses
        m = MeasureSpec.power(3, 2.0)
        b = m.profile_order
        for s in (0.18, 0.82):
            cfg = measures.config_from_split(m, 5.0, s)
            sol = closedform.twisted_pair_power(cfg)
            big = max(cfg.left_param, cfg.right_param)
            ratio = sol.freq * big / specfun.bessel_zeros(b + 1.0, 1)[0]
            assert 1.0013 < ratio < 1.0014
            assert not sol.single_signed
            u = sol.u_left_at if cfg.left_param == big else sol.u_right_at
            vals = np.array([u(float(r)) for r in np.linspace(0.0, big, 4001)])
            peak = np.max(np.abs(vals))
            minority = min(vals.max(), -vals.min())
            assert 1e-6 < minority / peak < 5e-6

    def test_gaussian_flag_flips_at_lambda1_plus_two(self):
        from scipy.optimize import brentq
        g, total = MeasureSpec.gaussian(1), 0.31

        def solve(s):
            return closedform.twisted_pair_gauss(
                measures.config_from_split(g, total, s))

        def excess(s):
            sol = solve(s)
            return sol.eigenvalue - sol.bracket_dirichlet[0] - 2.0

        s_edge = brentq(excess, 0.1264, 0.2073, xtol=1e-13)
        assert not solve(s_edge - 1e-6).single_signed
        assert solve(s_edge + 1e-6).single_signed
        # dense samples of the larger (right) component on both sides
        for s, two_signed in ((0.1668, True), (0.2073, False)):
            sol = solve(s)
            assert sol.single_signed is not two_signed
            R = sol.config.right_param
            vals = np.array([sol.u_right_at(R + float(t))
                             for t in np.linspace(0.0, 6.0, 4001)[1:]])
            assert np.all(vals < 0.0) is not two_signed


class TestTangentialBranch:
    """For n >= 2 a two-signed pair's lambda_T is the larger component's
    first tangential mode, which lies below the pair root: Lambda_1 + 2
    (gaussian) or (j_{b+1,1}/R_max)^2 (power)."""

    # (measure, total mass, split, lambda_T to the printed digits, pair root)
    CASES = [
        (MeasureSpec.gaussian(2), 0.5, 0.15, 4.31587, 4.7124735265115341),
        (MeasureSpec.power(2, 1.0), 1.0, 0.2, 17.8799, 18.868448606992018),
        (MeasureSpec.power(3, 2.0), 3.0, 0.15, 16.1282, 17.638062855513997),
        (MeasureSpec.gaussian(3), 0.2, 0.15, 5.89016, 6.0402018273386009),
    ]

    @pytest.mark.parametrize("measure,total,s,lam_t,root", CASES)
    def test_two_signed_pair_reports_the_tangential_value(
            self, measure, total, s, lam_t, root):
        sol = closedform.solve(measures.config_from_split(measure, total, s))
        assert sol.branch == "tangential" and not sol.single_signed
        assert sol.eigenvalue == pytest.approx(lam_t, rel=2e-6)
        assert sol.eigenvalue < sol.pair_root
        assert sol.pair_root == pytest.approx(root, rel=1e-13)
        if measure.is_gaussian:
            assert sol.eigenvalue == sol.bracket_dirichlet[0] + 2.0

    @pytest.mark.parametrize("measure,total,s,lam_t,root", CASES)
    def test_tangential_value_against_the_oracle(
            self, measure, total, s, lam_t, root):
        # the first tangential mode separates: a Dirichlet mode of the
        # larger component at one more Ornstein-Uhlenbeck level (gaussian,
        # + 2) or at profile order b + 1, the radial problem of
        # power(n, k + 2)
        cfg = measures.config_from_split(measure, total, s)
        sol = closedform.solve(cfg)
        if measure.is_gaussian:
            a = min(cfg.left_param, cfg.right_param)
            dom = oracle.Domain1D(((a, numerics.gauss_tail_cut(a)),),
                                  "cartesian_gauss")
            shift = 2.0
        else:
            a = max(cfg.left_param, cfg.right_param)
            dom = oracle.Domain1D(((0.0, a),), "radial_power",
                                  MeasureSpec.power(measure.n, measure.k + 2))
            shift = 0.0
        ref = oracle.dirichlet_eigs(dom, count=1).eigenvalues[0] + shift
        assert sol.eigenvalue == pytest.approx(ref, rel=1e-5)

    @pytest.mark.parametrize("measure,total,s,lam_t,root", CASES)
    def test_n_one_keeps_the_pair_root(self, measure, total, s, lam_t, root):
        # the same pair root in one dimension, where no tangential mode
        # exists (power (1, n + k - 1) shares the record of n + k)
        one = (MeasureSpec.gaussian(1) if measure.is_gaussian
               else MeasureSpec.power(1, measure.n + measure.k - 1.0))
        cfg = measures.config_from_split(measure, total, s)
        sol = closedform.solve(measures.PairConfig(
            one, cfg.left_param, cfg.right_param))
        assert sol.branch == "pair" and not sol.single_signed
        assert sol.eigenvalue == sol.pair_root
        assert sol.pair_root == closedform.solve(cfg).pair_root

    @pytest.mark.parametrize("measure,total", [
        (MeasureSpec.gaussian(2), 0.5), (MeasureSpec.power(3, 2.0), 3.0)])
    def test_single_signed_pairs_keep_the_pair_root(self, measure, total):
        sol = closedform.solve(measures.config_from_split(measure, total, 0.4))
        assert sol.single_signed and sol.branch == "pair"
        assert sol.eigenvalue == sol.pair_root


class TestUnitNorm:
    """The profiles a solution hands out have unit weighted norm, by
    quadrature, on asymmetric and symmetric pairs of both families."""

    @settings(derandomize=True, max_examples=24, deadline=None)
    @given(st.sampled_from((MeasureSpec.gaussian(1), MeasureSpec.power(3, 0.0),
                            MeasureSpec.power(2, 1.0),
                            MeasureSpec.power(3, 2.0))),
           st.floats(min_value=0.0, max_value=1.0),
           st.one_of(st.just(0.5), st.floats(min_value=0.3, max_value=0.7)))
    def test_unit_weighted_norm(self, measure, u_mass, s):
        if measure.is_gaussian:
            total = 0.05 + 0.75 * u_mass
            lo, hi = measures.gaussian_split_window(total)
            assume(lo < s < hi)
        else:
            total = 10.0 ** (2.0 * u_mass - 1.0)
        cfg = measures.config_from_split(measure, total, s)
        sol = closedform.solve(cfg)
        L, R = cfg.left_param, cfg.right_param
        if measure.is_gaussian:
            w = measures.gauss_weight_1d
            parts = [integrate(lambda t: sol.u_left_at(-t) ** 2 * w(t),
                               L, math.inf, tol=1e-13, tail=gauss_tail(L)),
                     integrate(lambda t: sol.u_right_at(t) ** 2 * w(t),
                               R, math.inf, tol=1e-13, tail=gauss_tail(R))]
        else:
            w = measure.radial_weight
            parts = [integrate(lambda r: u(r) ** 2 * w(r), 0.0, a, tol=1e-13)
                     for u, a in ((sol.u_left_at, L), (sol.u_right_at, R))]
        assert abs(parts[0].value + parts[1].value - 1.0) <= 1e-12


def _square_integral(fam, x, a):
    """int (profile - p)^2 over one component from the family record by the
    resolvent identity S = p^2 lambda d(M/p)/dlambda - M p, the form per
    component of the pair solve's normalization."""
    p, q = fam.state(x, a)
    mean = fam.mean(x, a, p, q)
    return (p * p * fam.lam(x) / fam.dlam(x) * fam.slope(x, a, p, q, mean)
            - mean * p)


class TestPowerNormalization:
    # 30-digit references of int_0^X (g(r) - g(X))^2 r^{2b+1} dr at b = 1/4
    # (n=2, k=1/2), g(r) = r^{-b} J_b(f r), computed with mpmath 1.3.0:
    #   mp.mp.dps = 40; b = mp.mpf(1)/4
    #   g = lambda r: (f/2)**b * mp.besselj(b, f*r) / (f*r/2)**b
    #   mp.quad(lambda r: (g(r) - g(X))**2 * r**(2*b+1), [0, X])
    # (Lommel's closed form in mpmath agrees to all 30 digits).  The fixed
    # 40-point panel quadrature this replaces was 9.3e-9 and 7.9e-9 off:
    # r^{n+k-1} = r^{3/2} is not smooth at the origin.
    @pytest.mark.parametrize("f,X,ref", [
        (2.75, 1.0, 0.113072169779521541569588688472),
        (1.5, 1.3, 0.0732695752407275443862492548677),
    ])
    def test_lommel_square_integral_order_quarter(self, f, X, ref):
        got = _square_integral(closedform._power_family(2.5), f, X)
        assert abs(got - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("order", [0.5, 1.5, 3.0])
    def test_lommel_against_quadrature(self, order):
        # smooth weights: the adaptive reference is exact to round-off
        fam = closedform._power_family(2.0 * order + 2.0)
        j1 = specfun.bessel_zeros(order, 1)[0]
        for X in (0.3, 1.0, 2.5):
            for freq in (0.2 * j1 / X, j1 / X, 1.4 * j1 / X):
                g_X = closedform._g_profile(order, freq, X)
                scale = X ** (2 * order + 2) * closedform._g_profile(
                    order, freq, 0.0) ** 2
                ref = integrate(
                    lambda r: (closedform._g_profile(order, freq, r) - g_X) ** 2
                    * r ** (2 * order + 1),
                    0.0, X, tol=1e-14 * scale, vectorized=True)
                got = _square_integral(fam, freq, X)
                assert got == pytest.approx(ref.value, rel=1e-11)


class TestGaussNormalization:
    # 30-digit references of int_a^inf (H_nu(t) - H_nu(a))^2 d gamma_1 at
    # nu = lambda^D(a)/2 x {1.001, 1.2}, computed with mpmath 1.3.0:
    #   mp.mp.dps = 30; ha = mp.hermite(nu, a)
    #   mp.quad(lambda t: (mp.hermite(nu, t) - ha)**2 * mp.exp(-t*t),
    #           [a, a+0.5, a+1, a+2, a+4, mp.inf]) / mp.sqrt(mp.pi)
    # a = 4.9 sits just below the Hermite switch point, where the Kummer
    # series that the degree derivatives differentiate cancels most.
    @pytest.mark.parametrize("nu,a,ref", [
        (1.6660196809439405, 0.5, 2.03381597162955776763426392391),
        (1.9972263907419867, 0.5, 4.32950026021912309817648104192),
        (6.491692924294882, 2.5, 44724.4280607902781898721697844),
        (7.782249259893964, 2.5, 1587591.31746311849536985426319),
        (10.279984812303043, 3.5, 2018749201.62378589603954376202),
        (12.323658116647005, 3.5, 1280001936050.23671903478875473),
        (12.528309831700811, 4.0, 2344048467684.4748946454253701),
        (15.01895284519578, 4.0, 9875902024796002.76762945215861),
        (17.17698954785295, 4.9, 16961795502889696099.398040553),
        (20.591795661761783, 4.9, 4841955710830712833645149.80616),
    ])
    def test_lagrange_square_integral(self, nu, a, ref):
        got = _square_integral(closedform._GAUSS, nu, a)
        assert abs(got - ref) <= 1e-11 * ref

    def test_unit_norm_at_tiny_mass(self):
        # offsets near 4.3, degree 14.2: the profiles reach into the large-t
        # expansion (t >= 5), which needs more than four terms there.
        # The amplitudes are pinned to the same mpmath quadrature as above
        # (H_nu(R), -H_nu(L) over the square root of the weighted sum of
        # the two square integrals); the unit norm checks that the profiles
        # the solution hands out agree with that normalization.
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 1e-9, 0.3)
        sol = closedform.twisted_pair_gauss(cfg)
        assert sol.nu == pytest.approx(14.208291928648624, rel=1e-13)
        assert abs(sol.amp_left - 3.283541119104254646146656e-8) <= \
            1e-12 * sol.amp_left
        assert abs(sol.amp_right - 2.462031214994754770336147e-8) <= \
            1e-12 * sol.amp_right
        L, R = cfg.left_param, cfg.right_param
        left = integrate(
            lambda t: sol.u_left_at(-t) ** 2 * measures.gauss_weight_1d(t),
            L, math.inf, tol=1e-12, tail=gauss_tail(L))
        right = integrate(
            lambda t: sol.u_right_at(t) ** 2 * measures.gauss_weight_1d(t),
            R, math.inf, tol=1e-12, tail=gauss_tail(R))
        assert abs(left.value + right.value - 1.0) <= 1e-10


class TestGradientGap:
    def test_zero_at_symmetry(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.5)
        sol = closedform.twisted_pair_gauss(cfg)
        assert closedform.boundary_gradient_gap(sol) == pytest.approx(
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
            gap = closedform.boundary_gradient_gap(sol)
            if s < 0.5:   # right component heavier -> du_right smaller
                assert gap < 0.0
            else:
                assert gap > 0.0


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
            jp = specfun.bessel_jprime_first_zero(order)
            ss = np.linspace(0.01, jp - 0.01, 100)
            vals = [closedform.phi_alpha(order, float(s)) for s in ss]
            assert all(v < 0 for v in vals)
            assert all(a > b for a, b in zip(vals, vals[1:]))
