import math

import numpy as np
import pytest
import scipy.special as sp

from twistspec import specfun
from twistspec.errors import AccuracyError, DomainError, NumericalError

SQRT_PI = math.sqrt(math.pi)


class TestGamma:
    def test_known_values(self):
        assert specfun.gamma(0.5) == pytest.approx(SQRT_PI, rel=1e-14)
        assert specfun.gamma(1.0) == pytest.approx(1.0, rel=1e-14)
        assert specfun.gamma(5.0) == pytest.approx(24.0, rel=1e-14)

    def test_accuracy_against_scipy(self):
        rng = np.random.default_rng(1)
        xs = rng.uniform(-50, 50, 400)
        xs = xs[np.abs(xs - np.round(xs)) > 0.1]  # stay off the poles
        for x in xs:
            assert specfun.gamma(float(x)) == pytest.approx(
                float(sp.gamma(x)), rel=1e-12)

    @pytest.mark.parametrize("x", [0.0, -1.0, -7.0])
    def test_pole_raises(self, x):
        with pytest.raises(DomainError, match="pole"):
            specfun.gamma(x)


class TestKummer:
    def test_empty_sum(self):
        assert specfun.kummer_m(0.7, 1.9, 0.0) == 1.0

    def test_exponential_identity(self):
        for z in (-3.0, 0.5, 4.0, 20.0):
            assert specfun.kummer_m(1.3, 1.3, z) == pytest.approx(
                math.exp(z), rel=1e-12)

    def test_terminating_series(self):
        for z in (-1.0, 0.3, 2.0):
            assert specfun.kummer_m(-1.0, 0.5, z) == pytest.approx(
                1.0 - 2.0 * z, rel=1e-13, abs=1e-13)

    def test_against_scipy(self):
        for a, b, z in [(-0.35, 0.5, 2.1), (0.45, 1.5, -4.0), (-1.2, 1.5, 9.0)]:
            assert specfun.kummer_m(a, b, z) == pytest.approx(
                float(sp.hyp1f1(a, b, z)), rel=1e-11)

    def test_nonpositive_integer_b_raises(self):
        with pytest.raises(DomainError):
            specfun.kummer_m(0.3, -2.0, 1.0)


class TestHermite:
    def test_integer_values(self):
        assert specfun.hermite_h(2, 1.0).value == pytest.approx(2.0, abs=1e-12)
        assert specfun.hermite_h(1, 3.0).value == pytest.approx(6.0, abs=1e-12)

    def test_half_degree_at_origin(self):
        # coefficient formula: only the even Kummer term survives at t = 0
        want = 2.0 ** 0.5 * SQRT_PI / specfun.gamma(0.25)
        assert specfun.hermite_h(0.5, 0.0).value == pytest.approx(want, rel=1e-13)

    def test_integer_matches_polynomial_recurrence(self):
        ts = np.linspace(-4, 4, 200)
        for n in range(7):
            ref = np.polynomial.hermite.hermval(ts, np.eye(7)[n])
            mine = specfun.hermite_value(n, ts)
            np.testing.assert_allclose(mine, ref, rtol=1e-10, atol=1e-10)

    def test_generic_branch_against_scipy_combination(self):
        for nu in (0.31, 1.45, 2.6, 3.85):
            for t in (-3.5, -1.0, 0.3, 2.0, 4.4):
                ref = 2 ** nu * SQRT_PI * (
                    sp.hyp1f1(-nu / 2, 0.5, t * t) / sp.gamma((1 - nu) / 2)
                    - 2 * t * sp.hyp1f1((1 - nu) / 2, 1.5, t * t) / sp.gamma(-nu / 2))
                # both routes share the exp(t^2)-sized cancellation of the
                # Kummer combination at positive t, so the achievable
                # agreement degrades accordingly
                tol = max(2e-10, 20 * math.exp(t * t) * 1e-16 / abs(ref))
                assert specfun.hermite_value(nu, t) == pytest.approx(
                    ref, rel=tol, abs=1e-10)

    def test_method_dispatch(self):
        assert specfun.hermite_h(2.3, 1.0).method_used == "series"
        assert specfun.hermite_h(2.3, 6.0).method_used == "asymptotic"
        assert specfun.hermite_h(2.3, 5.0).method_used == "asymptotic"
        assert specfun.hermite_h(2.3, 4.99).method_used == "series"
        # integer degrees take the polynomial at every t
        assert specfun.hermite_h(3.0, 8.0).method_used == "series"
        # the large-argument expansion is only used on the positive branch
        assert specfun.hermite_h(2.3, -6.0).method_used == "series"

    def test_parity_integer(self):
        ts = np.linspace(-4, 4, 50)
        for n in range(7):
            np.testing.assert_allclose(
                specfun.hermite_value(n, -ts),
                (-1.0) ** n * specfun.hermite_value(n, ts),
                rtol=1e-12, atol=1e-12)

    def test_deriv_recurrence(self):
        ts = np.linspace(-3, 3, 11)
        for t in ts:
            assert specfun.hermite_h_deriv(2.0, float(t)) == pytest.approx(
                8.0 * t, abs=1e-10)
            assert specfun.hermite_h_deriv(1.0, float(t)) == pytest.approx(
                2.0, abs=1e-12)

    def test_deriv_against_finite_differences(self):
        h = 2e-3
        for nu, t in [(0.5, 1.0), (2.7, -2.0), (4.2, 3.1)]:
            fd = (specfun.hermite_value(nu, t - 2 * h)
                  - 8 * specfun.hermite_value(nu, t - h)
                  + 8 * specfun.hermite_value(nu, t + h)
                  - specfun.hermite_value(nu, t + 2 * h)) / (12 * h)
            d = specfun.hermite_h_deriv(nu, t)
            assert abs(d - fd) <= 1e-6 * (1 + abs(d))

    def test_wronskian_identity(self):
        # W(H_nu(t), H_nu(-t)) = 2^{nu+1} sqrt(pi) e^{t^2} / Gamma(-nu),
        # orientation fixed by direct d/dt differentiation of the pair.
        for nu in (0.3, 0.8, 1.7, 2.4):
            for t in np.linspace(0.0, 2.0, 7):
                lhs = (specfun.hermite_value(nu, t)
                       * (-2 * nu * specfun.hermite_value(nu - 1, -t))
                       - specfun.hermite_value(nu, -t)
                       * 2 * nu * specfun.hermite_value(nu - 1, t))
                rhs = (2 ** (nu + 1) * SQRT_PI * math.exp(t * t)
                       / specfun.gamma(-nu))
                assert lhs == pytest.approx(rhs, rel=1e-7)


def _assert_paths_agree(fn, args):
    """fn on each plain float against fn on the whole array."""
    array_vals = fn(np.asarray(args, dtype=float))
    for x, want in zip(args, array_vals):
        got = fn(float(x))
        assert type(got) is float
        assert abs(got - want) <= 1e-15 * abs(want)


class TestScalarPath:
    # every branch: polynomial (integer degree), series at t < 0 and at
    # 0 <= t < HERMITE_SWITCH_T, large-t expansion at t >= HERMITE_SWITCH_T
    TS = [-4.2, -1.1, -0.2, 0.0, 0.4, 1.7, 3.3, 4.99, 5.0, 5.6, 8.0, 12.5]

    @pytest.mark.parametrize("nu", [0.0, 1.0, 3.0, 7.0, 0.37, 1.5, 4.2, 11.7])
    def test_hermite_value(self, nu):
        _assert_paths_agree(lambda t: specfun.hermite_value(nu, t), self.TS)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.5, 3.0, 7.25])
    def test_bessel(self, order):
        zs = [0.0, 0.05, 1.0, 2.4, 6.3, 11.0, 15.9]
        _assert_paths_agree(
            lambda z: specfun.bessel_j_scaled_vec(order, z), zs)
        _assert_paths_agree(
            lambda r: specfun.bessel_j_value(order, r), zs[1:])

    @pytest.mark.parametrize("wrap", [float, lambda x: np.asarray([1.0, x])])
    def test_errors_on_both_paths(self, wrap):
        with pytest.raises(AccuracyError, match="ceiling"):
            specfun.bessel_j_scaled_vec(1.0, wrap(16.5))
        with pytest.raises(DomainError, match="r must be >= 0"):
            specfun.bessel_j_value(1.0, wrap(-0.1))
        with pytest.raises(DomainError, match="diverges"):
            specfun.bessel_j_value(-0.5, wrap(0.0))


class TestHermiteZeros:
    def test_integer_roots(self):
        assert specfun.hermite_largest_zero(2.0) == pytest.approx(
            1 / math.sqrt(2), abs=1e-9)
        assert specfun.hermite_largest_zero(3.0) == pytest.approx(
            math.sqrt(1.5), abs=1e-9)

    def test_fractional_degree_between_neighbors(self):
        z = specfun.hermite_largest_zero(2.5)
        assert 1 / math.sqrt(2) < z < math.sqrt(1.5)
        # independent evaluation at the root via scipy's Kummer
        nu = 2.5
        val = 2 ** nu * SQRT_PI * (
            sp.hyp1f1(-nu / 2, 0.5, z * z) / sp.gamma((1 - nu) / 2)
            - 2 * z * sp.hyp1f1((1 - nu) / 2, 1.5, z * z) / sp.gamma(-nu / 2))
        assert abs(val) < 1e-8

    def test_degree_at_most_one_rejected(self):
        with pytest.raises(DomainError):
            specfun.hermite_largest_zero(0.9)


class TestTuran:
    def test_polynomial_cases(self):
        assert specfun.turan_gap(1.0, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert specfun.turan_gap(2.0, 2.0) == pytest.approx(36.0, abs=1e-9)

    def test_positive_beyond_largest_zero(self):
        for nu in (1.5, 2.5, 3.5):
            t0 = specfun.hermite_largest_zero(nu) + 0.05
            for t in np.linspace(t0, 5.0, 40):
                assert specfun.turan_gap(nu, float(t)) > 0.0


class TestBessel:
    def test_half_integer_closed_form(self):
        rs = np.linspace(0.05, 10, 80)
        closed = np.sqrt(2 / (math.pi * rs)) * np.sin(rs)
        np.testing.assert_allclose(
            specfun.bessel_j_value(0.5, rs), closed, atol=1e-10)
        assert abs(specfun.bessel_j(0.5, math.pi).value) < 1e-12

    def test_at_origin(self):
        assert specfun.bessel_j(0.0, 0.0).value == pytest.approx(1.0, rel=1e-14)
        assert specfun.bessel_j(1.3, 0.0).value == 0.0

    def test_two_truncations_agree(self):
        # independent fixed-truncation sums of the ascending series
        def partial(order, r, terms):
            tot, term = 0.0, (r / 2) ** order / sp.gamma(order + 1)
            for m in range(terms):
                tot += term
                term *= -(r / 2) ** 2 / ((m + 1) * (m + 1 + order))
            return tot
        v30 = partial(1.3, 2.0, 30)
        v60 = partial(1.3, 2.0, 60)
        assert v30 == pytest.approx(v60, rel=1e-13)
        assert specfun.bessel_j(1.3, 2.0).value == pytest.approx(v60, rel=1e-12)
        assert specfun.bessel_j(1.3, 2.0).value == pytest.approx(
            float(sp.jv(1.3, 2.0)), rel=1e-11)

    def test_deriv_recurrence(self):
        rs = np.linspace(0.3, 8, 15)
        for r in rs:
            assert specfun.bessel_j_deriv(0.0, float(r)) == pytest.approx(
                -specfun.bessel_j_value(1.0, float(r)), rel=1e-11, abs=1e-13)
        # analytic derivative of the half-integer closed form at pi/2
        r = math.pi / 2
        want = math.sqrt(2 / math.pi) * (
            math.cos(r) / math.sqrt(r) - 0.5 * math.sin(r) * r ** -1.5)
        assert specfun.bessel_j_deriv(0.5, r) == pytest.approx(want, rel=1e-11)

    def test_deriv_against_fd(self):
        h = 1e-6
        for a, r in [(0.5, 1.2), (1.3, 2.0), (2.2, 4.0)]:
            fd = (specfun.bessel_j_value(a, r + h)
                  - specfun.bessel_j_value(a, r - h)) / (2 * h)
            d = specfun.bessel_j_deriv(a, r)
            assert abs(d - fd) <= 1e-6 * (1 + abs(d))

    def test_deriv_at_origin_rejected(self):
        with pytest.raises(DomainError):
            specfun.bessel_j_deriv(1.0, 0.0)

    def test_series_ceiling(self):
        with pytest.raises(AccuracyError):
            specfun.bessel_j(0.0, 25.0)


class TestBesselZeros:
    def test_first_zero_values(self):
        assert specfun.bessel_first_zero(0.5) == pytest.approx(math.pi, abs=1e-9)
        assert specfun.bessel_first_zero(0.0) == pytest.approx(
            2.404825557695773, abs=1e-9)

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.7, 2.5])
    def test_interlacing(self, order):
        jp = specfun.bessel_first_zero(order, "of_Jprime")
        j = specfun.bessel_first_zero(order, "of_J")
        assert order <= jp < j

    def test_zero_table_against_scipy(self):
        mine = specfun.bessel_zeros(1.0, 12)
        ref = sp.jn_zeros(1, 12)
        np.testing.assert_allclose(mine, ref, rtol=1e-8)

    def test_unknown_kind(self):
        with pytest.raises(DomainError):
            specfun.bessel_first_zero(1.0, "of_Y")
