import math

import numpy as np
import pytest
import scipy.special as sp

from twistspec import specfun
from twistspec.errors import AccuracyError, DomainError

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
        # negative b: the tail start is past k > -b, but every term is 0
        for b in (1.9, -2.5):
            assert specfun.kummer_m(0.3, b, -0.0) == 1.0
        assert specfun.kummer_m(0.3, -2.5, 0.0) == 1.0

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

    # references from mpmath 1.3.0 at mp.mp.dps = 30:
    #   mp.hyp1f1(mp.mpf(a), mp.mpf(b), mp.mpf(z)) at the float a, b, z
    @pytest.mark.parametrize("a,b,z,ref", [
        # near-terminating: the terms pass near zero at m = 2 and grow again
        (-1.0 - 1e-9, 0.5, 12.0, -22.99999037492478755545321),
        (-1.0 - 1e-9, 0.5, 25.0, -47.83359441612129858221953),
        # negative non-integer b: the ratios shrink only past k > -b
        (0.3, -2.5, 3.0, -81.20114911103664477292909),
        (0.3, -2.5, -3.0, 1.262372608401220378417172),
        # b + 2 = 2e-12: the term t_2 = 8e-18 passes the relative test, and
        # t_3 = 1.6e-14 follows; only the tail start keeps the sum going
        (1.0, -1.999999999998, 4e-9, 0.9999999980000160083520193),
    ])
    def test_against_mpmath(self, a, b, z, ref):
        assert abs(specfun.kummer_m(a, b, z) - ref) <= 1e-15 * abs(ref)

    # d/da M(a, b; z) and d/da dM/dz from mpmath 1.3.0 at mp.mp.dps = 30:
    #   mp.diff(lambda x: mp.hyp1f1(x, b, z), a)
    #   mp.diff(lambda x: mp.diff(lambda y: mp.hyp1f1(x, b, y), z), a)
    @pytest.mark.parametrize("z,ref", [
        (12.0, (2878.368561990633864525522, -520.9767913994111283653168,
                2069.907165597644513461267, -379.3374016748259203281985)),
        (20.25, (1895598.302259638428280882, -401234.5168403736722374849,
                 1604913.06736149468894994, -344522.5953811141141999944)),
    ])
    def test_complex_step_through_terminating_series(self, z, ref):
        # the real parts terminate, so every later term is imaginary and
        # of the step's size: only the test on the imaginary parts keeps
        # summing the degree derivative
        d = 1e-30
        sums = specfun._kummer_pair_deriv(complex(-2.0, -d), 0.5,
                                          complex(-1.0, -d), 1.5, z)
        for got, want in zip(sums, ref):
            assert abs(got.imag / -d - want) <= 1e-13 * abs(want)

    def test_large_argument_within_term_limit(self):
        # the tail start is 660 terms in; mpmath as above
        assert specfun.kummer_m(0.3, 0.5, 330.0) == pytest.approx(
            3.857775350220285195869932e+142, rel=1e-13)

    @pytest.mark.parametrize("z", [math.nan, -math.inf, 600.0])
    def test_unreachable_tail_raises(self, z):
        with pytest.raises(AccuracyError, match="did not converge"):
            specfun.kummer_m(0.3, 0.5, z)

    def test_tail_start_bounds_every_later_ratio(self):
        rng = np.random.default_rng(3)
        for _ in range(400):
            a = complex(rng.uniform(-30, 30), rng.choice([0.0, 1e-15, 2.0]))
            b = float(rng.choice([rng.uniform(0.1, 20), rng.uniform(-9, 0)]))
            zmax = float(rng.choice([rng.uniform(0, 1), rng.uniform(0, 60)]))
            m0 = specfun._tail_start(abs(a), b, zmax)
            k = np.arange(m0, m0 + 400)
            ratio = np.abs(a + k) / np.abs(b + k) * zmax / (k + 1.0)
            assert ratio.max() <= 0.5 * (1.0 + 1e-12)


class TestHermite:
    def test_integer_values(self):
        assert specfun.hermite_value(2, 1.0) == pytest.approx(2.0, abs=1e-12)
        assert specfun.hermite_value(1, 3.0) == pytest.approx(6.0, abs=1e-12)

    def test_half_degree_at_origin(self):
        # coefficient formula: only the even Kummer term survives at t = 0
        want = 2.0 ** 0.5 * SQRT_PI / specfun.gamma(0.25)
        assert specfun.hermite_value(0.5, 0.0) == pytest.approx(want, rel=1e-13)

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
        series, asympt = specfun._hermite_series, specfun._hermite_asympt
        for nu, t, branch in [
            (2.3, 1.0, series),
            (2.3, 6.0, asympt),
            (2.3, 5.0, asympt),
            (2.3, 4.99, series),
            # integer degrees take the same branches as their neighbours
            (3.0, 8.0, asympt),
            # the large-argument expansion is only used on the positive branch
            (2.3, -6.0, series),
        ]:
            assert specfun.hermite_value(nu, t) == branch(nu, t)

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


class TestHermiteState:
    """hermite_state(nu, t) = (H_nu(t), H_{nu-1}(t)) from one Kummer pass."""

    @pytest.mark.parametrize("nu", [1.0, 1.37, 2.0 - 1e-10, 2.5, 3.0 - 1e-10,
                                    3.0, 3.0 + 1e-10, 4.2, 7.9, 13.6, 14.0])
    @pytest.mark.parametrize("t", [0.0, -0.0, -3.5, 0.3, 2.5, 4.0, 4.99,
                                   5.0, 6.0])
    def test_against_hermite_value(self, nu, t):
        h, hm = specfun.hermite_state(nu, t)
        for got, deg in ((h, nu), (hm, nu - 1.0)):
            want = specfun.hermite_value(deg, t)
            assert type(got) is float
            if t >= specfun.HERMITE_SWITCH_T or want == 0.0:
                # large-t expansion: two hermite_value calls; or the exact
                # zero of an odd degree at t = 0, where every term is 0
                assert got == want
            else:
                # the tolerance of the generic-branch test above, whose
                # Kummer combination cancels like exp(t^2) at positive t
                tol = max(2e-10, 20 * math.exp(t * t) * 1e-16 / abs(want))
                assert got == pytest.approx(want, rel=tol, abs=1e-10)

    def test_negative_degree(self):
        h, hm = specfun.hermite_state(-0.6, 1.2)
        assert h == pytest.approx(specfun.hermite_value(-0.6, 1.2), rel=1e-13)
        assert hm == pytest.approx(specfun.hermite_value(-1.6, 1.2), rel=1e-13)


class TestIntegerDegree:
    """One Kummer formula at every degree: H_nu is continuous through the
    integers, down to a degree 1e-12 from one."""

    # H_nu(t) at the binary degree float(n + delta) and the binary t, from
    # mpmath 1.3.0: mp.mp.dps = 40; mp.hermite(mp.mpf(nu), mp.mpf(t)).  At
    # the exact degree 2 + 5e-10, H(0.7) is -0.04000000166466493.
    @pytest.mark.parametrize("nu,t,want", [
        (1.0 - 5e-10, 0.7, 1.4000000000414085624),
        (1.0 - 1e-10, 0.7, 1.4000000000082816414),
        (1.0 - 1e-12, 0.7, 1.4000000000000827266),
        (1.0 + 1e-12, 0.7, 1.3999999999999170865),
        (1.0 + 1e-10, 0.7, 1.3999999999917181809),
        (1.0 + 5e-10, 0.7, 1.3999999999585912596),
        (2.0 - 5e-10, 0.7, -0.039999998335335178817),
        (2.0 - 1e-10, 0.7, -0.03999999966706723462),
        (2.0 - 1e-12, 0.7, -0.039999999996670622845),
        (2.0 + 1e-12, 0.7, -0.040000000003329874535),
        (2.0 + 1e-10, 0.7, -0.040000000332933262807),
        (2.0 + 5e-10, 0.7, -0.040000001664665319751),
        (3.0 - 5e-10, 0.7, -5.6559999964351033803),
        (3.0 - 1e-10, 0.7, -5.6559999992870206675),
        (3.0 - 1e-12, 0.7, -5.6559999999928695629),
        (3.0 + 1e-12, 0.7, -5.6560000000071304158),
        (3.0 + 1e-10, 0.7, -5.6560000007129793111),
        (3.0 + 5e-10, 0.7, -5.6560000035648965983),
        (5.0 - 5e-10, 0.7, 34.498239958772840838),
        (5.0 - 1e-10, 0.7, 34.498239991754570894),
        (5.0 - 1e-12, 0.7, 34.498239999917541761),
        (5.0 + 1e-12, 0.7, 34.498240000082465058),
        (5.0 + 1e-10, 0.7, 34.498240008245435927),
        (5.0 + 5e-10, 0.7, 34.498240041227166003),
        # the Kummer series at t < 0 and the large-t expansion
        (1.0 - 5e-10, -3.1, -6.2000016840724009185),
        (1.0 + 1e-12, -3.1, -6.1999999966315562257),
        (1.0 + 5e-10, -3.1, -6.1999983159276002954),
        (2.0 - 5e-10, -3.1, 36.440001372304889328),
        (2.0 + 1e-12, -3.1, 36.439999997255148658),
        (2.0 + 5e-10, -3.1, 36.439998627695114868),
        (3.0 - 5e-10, -3.1, -201.12800177820071883),
        (3.0 + 1e-12, -3.1, -201.12799999644330215),
        (3.0 + 5e-10, -3.1, -201.12799822179931864),
        (5.0 - 5e-10, -3.1, -4766.768323505744448),
        (5.0 + 1e-12, -3.1, -4766.7683199929888035),
        (5.0 + 5e-10, -3.1, -4766.7683164942573656),
        (1.0 - 5e-10, 6.5, 12.999999983366066928),
        (1.0 + 1e-12, 6.5, 13.000000000033270821),
        (1.0 + 5e-10, 6.5, 13.000000016633933093),
        (2.0 - 5e-10, 6.5, 166.99999978732963575),
        (2.0 + 1e-12, 6.5, 167.00000000042537851),
        (2.0 + 5e-10, 6.5, 167.00000021267036452),
        (3.0 - 5e-10, 6.5, 2118.999997314820998),
        (3.0 + 1e-12, 6.5, 2119.000000005370835),
        (3.0 + 5e-10, 6.5, 2119.0000026851790054),
        (5.0 - 5e-10, 6.5, 328132.99958856446945),
        (5.0 + 1e-12, 6.5, 328133.00000082294415),
        (5.0 + 5e-10, 6.5, 328133.00041143553107),
    ])
    def test_near_integer_against_mpmath(self, nu, t, want):
        assert abs(specfun.hermite_value(nu, t) - want) <= 1e-13 * abs(want)

    @pytest.mark.parametrize("t,want", [
        # H_{-1}(t), mpmath 1.3.0, mp.mp.dps = 40: mp.hermite(-1, mp.mpf(t))
        (0.0, 0.88622692545275801365), (1.0, 0.37893607807065605302),
        (-2.5, 917.96700362595893002), (3.7, 0.13066086457151447656),
        (6.0, 0.082221092435930453706)])
    def test_state_at_degree_zero(self, t, want):
        # H_{nu-1} = H_nu' / (2 nu) is 0/0 at nu = 0: two hermite_value calls
        h, hm = specfun.hermite_state(0.0, t)
        assert h == 1.0
        assert hm == specfun.hermite_value(-1.0, t)
        # 1e-13, or the exp(t^2) cancellation of the generic-branch test
        tol = max(1e-13, 20 * math.exp(t * t) * 1e-16 / abs(want))
        assert hm == pytest.approx(want, rel=tol)

    def test_integer_degree_far_left_raises(self):
        # the Kummer series of the zero coefficient still runs: H_n below
        # t = -22.4 needs more than KUMMER_MAX_TERMS terms, as every degree
        with pytest.raises(AccuracyError, match="did not converge"):
            specfun.hermite_value(3.0, -25.0)


def _assert_paths_agree(fn, args):
    """fn on each plain float against fn on the whole array."""
    array_vals = fn(np.asarray(args, dtype=float))
    for x, want in zip(args, array_vals):
        got = fn(float(x))
        assert type(got) is float
        assert abs(got - want) <= 1e-15 * abs(want)


class TestScalarPath:
    # every branch, at integer and non-integer degrees: series at t < 0 and
    # at 0 <= t < HERMITE_SWITCH_T, large-t expansion at t >= HERMITE_SWITCH_T
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

    def test_paths_bit_identical(self):
        # one kernel serves floats and arrays with the same arithmetic
        for nu in (0.0, 3.0, 0.37, 4.2):
            vals = specfun.hermite_value(nu, np.asarray(self.TS)).tolist()
            assert [specfun.hermite_value(nu, t) for t in self.TS] == vals
        # large-t points where numpy's power and the C library's pow round
        # the leading factor (2t)^nu differently
        for nu, t in ((15.1, 5.3), (20.6, 6.1), (-0.5, 5.6)):
            vals = specfun.hermite_value(nu, np.asarray([t, t])).tolist()
            assert [specfun.hermite_value(nu, t)] * 2 == vals
        zs = [0.0, 0.05, 2.4, 11.0, 15.9]
        for order in (0.0, 1.5, 7.25):
            vals = specfun.bessel_j_scaled_vec(order, np.asarray(zs)).tolist()
            assert [specfun.bessel_j_scaled_vec(order, z) for z in zs] == vals
        # points where numpy's power and the C library's pow round the
        # factor (r/2)^order of J_order differently
        for order, r in ((5.9, 6.79), (6.56, 9.22), (1.52, 0.13)):
            vals = specfun.bessel_j_value(order, np.asarray([r, r])).tolist()
            assert [specfun.bessel_j_value(order, r)] * 2 == vals

    @pytest.mark.parametrize("name", ["hermite_value", "bessel_j_scaled_vec",
                                      "bessel_j_value"])
    def test_array_contract(self, name):
        fn = lambda x: getattr(specfun, name)(1.5, x)  # noqa: E731
        # a 0-d array gives a plain float
        assert type(fn(np.asarray(0.7))) is float
        # a 2-D array keeps its shape, element by element the float values
        grid = np.array([[0.2, 1.1, 3.4], [4.0, 6.3, 0.9]])
        out = fn(grid)
        assert out.shape == (2, 3) and out.dtype == np.float64
        assert out.tolist() == [[fn(x) for x in row] for row in grid.tolist()]
        # an empty array gives an empty float array of the same shape
        for shape in ((0,), (0, 3)):
            empty = fn(np.empty(shape))
            assert empty.shape == shape and empty.dtype == np.float64

    @pytest.mark.parametrize("name", ["hermite_value", "bessel_j_scaled_vec",
                                      "bessel_j_value", "bessel_j_deriv"])
    @pytest.mark.parametrize("wrap", [float, np.float64, np.asarray])
    def test_scalar_gives_plain_float(self, name, wrap):
        # a Python float, an np.float64 and a 0-d array give a plain float
        out = getattr(specfun, name)(1.5, wrap(0.7))
        assert type(out) is float
        assert out == getattr(specfun, name)(1.5, 0.7)

    @pytest.mark.parametrize("wrap", [float, lambda x: np.asarray([1.0, x])])
    def test_errors_on_both_paths(self, wrap):
        with pytest.raises(AccuracyError, match="ceiling"):
            specfun.bessel_j_scaled_vec(1.0, wrap(16.5))
        with pytest.raises(DomainError, match="r must be >= 0"):
            specfun.bessel_j_value(1.0, wrap(-0.1))
        with pytest.raises(DomainError, match="diverges"):
            specfun.bessel_j_value(-0.5, wrap(0.0))


class TestInputEdges:
    # a non-finite degree, order or argument is a DomainError at each public
    # entry point, on the float and the array path
    @pytest.mark.parametrize("name,args", [
        ("hermite_value", (math.nan, 6.0)),
        ("hermite_value", (math.inf, 6.0)),
        ("hermite_value", (math.nan, 1.0)),
        ("hermite_value", (3.0, math.nan)),
        ("hermite_value", (3.0, -math.inf)),
        ("hermite_value", (2.0, np.asarray([1.0, math.nan]))),
        ("hermite_state", (math.nan, 1.0)),
        ("hermite_state", (1.0, math.inf)),
        ("bessel_j_scaled_vec", (1.0, math.nan)),
        ("bessel_j_scaled_vec", (math.inf, 1.0)),
        ("bessel_j_value", (1.0, math.inf)),
        ("bessel_j_value", (1.0, np.asarray([0.5, math.nan]))),
    ])
    def test_non_finite_raises_domain_error(self, name, args):
        with pytest.raises(DomainError, match="need finite"):
            getattr(specfun, name)(*args)

    # beyond |nu| = 267 a Gamma coefficient of the Kummer combination leaves
    # the normal floats: 1/Gamma(-199.5) overflows at nu = 400
    @pytest.mark.parametrize("name,nu", [
        ("hermite_value", 400.0), ("hermite_value", -400.0),
        ("hermite_value", 267.7), ("hermite_state", 400.0)])
    def test_gamma_coefficient_range(self, name, nu):
        with pytest.raises(AccuracyError, match=r"beyond \|nu\| = 267\b"):
            getattr(specfun, name)(nu, 1.0)

    def test_gamma_coefficients_at_the_degree_limit(self):
        for nu in (267.0, -267.0):
            assert math.isfinite(specfun.hermite_value(nu, 1.0))
            assert all(map(math.isfinite, specfun.hermite_state(nu, 1.0)))

    # the large-t expansion returns (2t)^nu times its sum, and (2t)^nu is
    # e^+-1451 at nu = +-100, t = 1e6: beyond e^+-700 it leaves the floats
    @pytest.mark.parametrize("nu", [100.0, -100.0])
    def test_asymptotic_leading_factor_range(self, nu):
        with pytest.raises(AccuracyError,
                           match=r"e\^-?1451 is beyond e\^\+-700"):
            specfun.hermite_value(nu, 1e6)
        # nu ln(2t) = 690.8 is inside the range
        assert math.isfinite(specfun.hermite_value(nu, 500.0))

    def test_asymptotic_cancellation(self):
        # t = 6 lies deep among the zeros of H_260 (the largest is near 22):
        # the terms grow past 1e67 before they cancel to the sum
        with pytest.raises(AccuracyError, match="above 1e-09 of the sum"):
            specfun.hermite_value(260.0, 6.0)

    def test_bessel_order_range(self):
        # the series' leading term 1/Gamma(order + 1) is a normal float up
        # to order 170.35
        with pytest.raises(AccuracyError, match=r"beyond order 170\b"):
            specfun.bessel_j_scaled_vec(200.0, 1.0)
        assert specfun.bessel_j_scaled_vec(170.0, 1.0) > 0.0


class TestBesselState:
    ORDERS = [-0.5, 0.0, 0.5, 1.5, 3.0, 10.5, 169.0]
    ZS = [0.0, -0.0, 1e-300, 0.05, 1.0, 2.404825557695773, 3.8317, 7.3,
          11.0, 15.9, 16.0, -16.0, -0.7, -5.52, -13.3]

    @pytest.mark.parametrize("order", ORDERS)
    def test_bit_identical_to_two_series(self, order):
        zs = self.ZS + np.linspace(-16.0, 16.0, 129).tolist()
        for z in zs:
            j0, j1 = specfun.bessel_state(order, z)
            assert type(j0) is float and type(j1) is float
            assert j0.hex() == specfun.bessel_j_scaled_vec(order, z).hex()
            assert j1.hex() == \
                specfun.bessel_j_scaled_vec(order + 1.0, z).hex()

    def test_near_zeros(self):
        # where one sum nears a zero of J_order its own stop test runs
        # longer than the other's: each sum is still its own call's value
        for order in (-0.5, 0.0, 1.5):
            for j in specfun.bessel_zeros(order, 4):
                for z in j * (1.0 + np.linspace(-1e-6, 1e-6, 41)):
                    assert specfun.bessel_state(order, z) == (
                        specfun.bessel_j_scaled_vec(order, z),
                        specfun.bessel_j_scaled_vec(order + 1.0, z))

    def test_deriv_bit_identical(self):
        # bessel_j_deriv's kernel keeps the bits of
        # (order/r) J_order - J_{order+1} from two bessel_j_value calls
        rs = np.linspace(0.01, 16.0, 97)
        for order in (-0.5, 0.0, 1.5, 7.25):
            want = ((order / rs) * specfun.bessel_j_value(order, rs)
                    - specfun.bessel_j_value(order + 1.0, rs))
            assert specfun.bessel_j_deriv(order, rs).tolist() == want.tolist()
            assert [specfun.bessel_j_deriv(order, r)
                    for r in rs.tolist()] == want.tolist()

    @pytest.mark.parametrize("order,z", [
        (math.nan, 1.0), (math.inf, 1.0), (-math.inf, 1.0),
        (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
    def test_non_finite_raises_domain_error(self, order, z):
        with pytest.raises(DomainError, match="bessel_state: need finite"):
            specfun.bessel_state(order, z)

    @pytest.mark.parametrize("order", [-1.0, -1.5])
    def test_order_range(self, order):
        with pytest.raises(DomainError, match="must be > -1"):
            specfun.bessel_state(order, 1.0)

    @pytest.mark.parametrize("z", [16.5, -16.5])
    def test_ceiling(self, z):
        with pytest.raises(AccuracyError, match="ceiling"):
            specfun.bessel_state(1.0, z)

    def test_upper_order_range(self):
        # the second series starts at 1/Gamma(order + 2): order + 1 <= 170
        with pytest.raises(AccuracyError,
                           match=r"order 170\.5 .*beyond order 170\b"):
            specfun.bessel_state(169.5, 1.0)
        assert specfun.bessel_state(169.0, 1.0)[1] > 0.0


class TestDegreeDerivative:
    # 25-digit references of d/dnu H_nu(t) and d/dnu H_nu'(t) from
    # mpmath 1.3.0: mp.mp.dps = 30;
    #   mp.diff(lambda n: mp.hermite(n, t), nu)
    #   mp.diff(lambda n: 2 * n * mp.hermite(n - 1, t), nu)
    @pytest.mark.parametrize("nu,t,dh,dhp", [
        (0.37, 1.3, 1.450359727963557952429153, 1.414823785436071469868931),
        (2.5, 0.0, 1.563692306979584773322596, -13.04137069401120614496071),
        (6.2, 3.1, 31441.1525315269658459717, 127250.3398585869689558391),
        (13.7, 4.6, 664619271823.0891646925514, 5283593729530.528195872444),
        # integer degrees: the Gamma coefficients pass through their poles
        (1.0, 0.0, -1.772453850905516027298167, 1.422784335098467139393488),
        (1.0, 0.8, 0.2476186779414632646839792, 3.393158625987662247334121),
        (2.0, 1.5, 4.596150858287802043442732, 17.9591103968242425372333),
        # even integer degrees: the real Kummer series M(-nu/2, 1/2; t^2)
        # terminates but its degree derivative does not; the modulus of a
        # term cannot see imaginary parts of the complex step's size, so the
        # stop test checks the imaginary parts on their own
        (4.0, 4.5, 11764.70336756482705644518, 12857.65819509670825477544),
        (6.0, 4.2, 413548.274541666034581721, 782858.5183243940145361422),
    ])
    def test_against_mpmath(self, nu, t, dh, dhp):
        h, hp, h_nu, hp_nu = specfun._hermite_jet(nu, t)
        assert abs(h_nu - dh) <= 1e-11 * abs(dh)
        assert abs(hp_nu - dhp) <= 1e-11 * abs(dhp)
        assert h == pytest.approx(specfun.hermite_value(nu, t),
                                  rel=1e-12, abs=1e-14)
        assert hp == pytest.approx(2 * nu * specfun.hermite_value(nu - 1, t),
                                   rel=1e-12, abs=1e-14)

    def test_digamma_against_scipy(self):
        xs = np.concatenate([np.linspace(0.01, 12.0, 300), [1e3, 1e6]])
        for x in xs:
            want = float(sp.digamma(x))
            assert abs(specfun._digamma(float(x)) - want) <= \
                2e-15 * max(1.0, abs(want))

    def test_reciprocal_gamma_jet(self):
        for x in np.linspace(-5.3, 6.1, 58):
            r, dr = specfun._rgamma_jet(float(x))
            assert r == pytest.approx(float(sp.rgamma(x)), rel=1e-14,
                                      abs=1e-16)
            if abs(r) > 1e-3:
                assert dr == pytest.approx(-float(sp.digamma(x)) * r,
                                           rel=1e-12, abs=1e-14)
        # at the poles of Gamma: 1/Gamma = 0, (1/Gamma)'(-n) = (-1)^n n!
        for n in range(5):
            assert specfun._rgamma_jet(-float(n)) == (
                0.0, (-1.0) ** n * math.factorial(n))


class TestLargeTExpansion:
    # mpmath 1.3.0 references, mp.mp.dps = 30; mp.hermite(nu, t)
    @pytest.mark.parametrize("nu,t,ref,rtol", [
        (15.1, 5.0, 43072610064686.09880438424, 1e-13),
        (20.6, 5.0, -652358597541015360.7026434, 1e-11),
        (0.37, 7.5, 2.726460955097272650899656, 1e-15),
        (4.2, 5.0, 13746.96756050226627551497, 1e-15),
    ])
    def test_against_mpmath(self, nu, t, ref, rtol):
        # at degree 15 and beyond, t = 5 needs far more than four terms
        assert abs(specfun.hermite_value(nu, t) - ref) <= rtol * abs(ref)

    @pytest.mark.parametrize("wrap", [float, lambda t: np.asarray([9.0, t])])
    def test_smallest_term_too_large(self, wrap):
        # at degree -2.5 the terms bottom out at 5e-9 of the sum at t = 5
        with pytest.raises(AccuracyError, match=r"nu=-2.5, t=5\b"):
            specfun.hermite_value(-2.5, wrap(5.0))
        assert specfun.hermite_value(-2.5, 9.0) == pytest.approx(
            float(sp.hyperu(1.25, 0.5, 81.0)) * 2.0 ** -2.5, rel=1e-9)


class TestHermiteZeros:
    def test_integer_roots(self):
        assert specfun.hermite_largest_zero(2.0) == pytest.approx(
            1 / math.sqrt(2), abs=1e-9)
        assert specfun.hermite_largest_zero(3.0) == pytest.approx(
            math.sqrt(1.5), abs=1e-9)

    def test_integer_roots_to_round_off(self):
        assert abs(specfun.hermite_largest_zero(2.0) - 1 / math.sqrt(2)) <= 1e-13
        assert abs(specfun.hermite_largest_zero(3.0) - math.sqrt(1.5)) <= 1e-13

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
        assert abs(specfun.bessel_j_value(0.5, math.pi)) < 1e-12

    def test_at_origin(self):
        assert specfun.bessel_j_value(0.0, 0.0) == pytest.approx(1.0, rel=1e-14)
        assert specfun.bessel_j_value(1.3, 0.0) == 0.0

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
        assert specfun.bessel_j_value(1.3, 2.0) == pytest.approx(v60, rel=1e-12)
        assert specfun.bessel_j_value(1.3, 2.0) == pytest.approx(
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

    @pytest.mark.parametrize("order,r", [
        (1.0, math.nan), (1.0, math.inf), (math.nan, 1.0)])
    @pytest.mark.parametrize("wrap", [float, lambda x: np.asarray([1.0, x])])
    def test_deriv_non_finite_named(self, order, r, wrap):
        # the error names the function the caller used
        with pytest.raises(DomainError,
                           match="bessel_j_deriv: need finite order and z"):
            specfun.bessel_j_deriv(order, wrap(r))

    def test_series_ceiling(self):
        with pytest.raises(AccuracyError):
            specfun.bessel_j_value(0.0, 25.0)


class TestBesselZeros:
    def test_first_zero_values(self):
        assert specfun.bessel_zeros(0.5, 1)[0] == pytest.approx(
            math.pi, abs=1e-9)
        assert specfun.bessel_zeros(0.0, 1)[0] == pytest.approx(
            2.404825557695773, abs=1e-9)

    def test_first_zero_values_to_round_off(self):
        assert abs(specfun.bessel_zeros(0.5, 1)[0] - math.pi) <= 1e-13
        j0 = specfun.bessel_zeros(0.0, 1)[0]
        assert abs(j0 - 2.404825557695773) <= 1e-13

    @pytest.mark.parametrize("order", [1, 3])
    def test_first_derivative_zero_against_scipy(self, order):
        want = float(sp.jnp_zeros(order, 1)[0])
        assert abs(specfun.bessel_jprime_first_zero(order) - want) <= 1e-13

    @pytest.mark.parametrize("order", [0.0, 0.5, 1.0, 1.7, 2.5])
    def test_interlacing(self, order):
        jp = specfun.bessel_jprime_first_zero(order)
        j = specfun.bessel_zeros(order, 1)[0]
        assert order <= jp < j

    def test_zero_table_against_scipy(self):
        mine = specfun.bessel_zeros(1.0, 12)
        ref = sp.jn_zeros(1, 12)
        np.testing.assert_allclose(mine, ref, rtol=1e-8)

    @pytest.mark.parametrize("order", [0, 1])
    def test_mcmahon_zeros_against_scipy(self, order):
        # zeros beyond the series ceiling come from McMahon's expansion
        np.testing.assert_allclose(specfun.bessel_zeros(order, 60),
                                   sp.jn_zeros(order, 60), rtol=1e-10)

    def test_scan_reaches_the_series_ceiling(self):
        # j_{5,3} = 15.70 and j_{11,1} = 15.59 lie between 15.5 and 16,
        # where the series keeps about 12 digits
        assert specfun.bessel_zeros(5.0, 3)[2] == pytest.approx(
            sp.jn_zeros(5, 3)[2], rel=1e-12)
        assert specfun.bessel_zeros(11.0, 1)[0] == pytest.approx(
            sp.jn_zeros(11, 1)[0], rel=1e-12)

    def test_large_order_beyond_ceiling_raises(self):
        # McMahon's expansion at order 11 is 1e-3 off for the second zero
        with pytest.raises(AccuracyError, match="zero 2 of J_11"):
            specfun.bessel_zeros(11.0, 2)
