import math
import re
import sys

import numpy as np
import pytest
import scipy.special as sp

from twistspec import measures
from twistspec.errors import DomainError, ResourceError
from twistspec.measures import MeasureSpec

import quadrature


class TestKGauss:
    def test_symmetry_point(self):
        assert measures.k_gauss(0.0) == pytest.approx(0.5, abs=1e-15)

    def test_limits_and_monotonicity(self):
        assert measures.k_gauss(30.0) < 1e-30
        ts = np.linspace(-4, 4, 100)
        vals = [measures.k_gauss(float(t)) for t in ts]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_against_quadrature(self):
        r = quadrature.integrate(
            lambda s: np.exp(-np.asarray(s) ** 2) / math.sqrt(math.pi),
            1.0, math.inf, tail=quadrature.gauss_tail(1.0, nu=0.0),
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

    def test_half_mass_is_positive_zero(self):
        # at m = 1/2 the start is x P(w - 5/2) with x = 1 - 2m = +0.0, and
        # the Halley step subtracts +0.0 from it
        assert math.copysign(1.0, measures.k_gauss_inv(0.5)) == 1.0
        got = measures.k_gauss_inv(np.array([0.5, 0.2]))
        assert math.copysign(1.0, got[0]) == 1.0
        assert got[1] == measures.k_gauss_inv(0.2)

    @pytest.mark.parametrize("m", [0.0, 1.0, -0.2, 1.4])
    def test_inverse_domain(self, m):
        with pytest.raises(DomainError):
            measures.k_gauss_inv(m)

    # References from mpmath 1.3.0 at mp.mp.dps = 40: mp.erfc(t) / 2 at the
    # float offset t.  On a 0.005 grid of [0, 26.5] math.erfc is within
    # 2.07 ulp of it (the worst at t = 4.785) and scipy 1.17's erfc within
    # 34 ulp on [0, 8) and 507 ulp on [8, 26.5]; the last two offsets are
    # its worst points there.
    K_GAUSS_MPMATH = (
        (0.0, 0.5),
        (0.5, 2.3975006109347673116e-1),
        (1.0, 7.8649603525142565329e-2),
        (1.5, 1.6947426762344636467e-2),
        (2.0, 2.338867490523632919e-3),
        (3.0, 1.1045248499292720686e-5),
        (4.0, 7.7086289501400094261e-9),
        (5.0, 7.6872989721401742509e-13),
        (6.0, 1.0759868356249456558e-17),
        (8.0, 5.61214858649146354e-30),
        (10.0, 1.0442437918812723785e-45),
        (12.0, 6.7813058460295210639e-65),
        (14.0, 1.5186149238751558326e-87),
        (16.0, 1.1642428757857653467e-113),
        (18.0, 3.0411846159081996538e-143),
        (20.0, 2.6979328058039504645e-176),
        (22.0, 8.1095293046673625653e-213),
        (24.0, 8.2449129157596675711e-253),
        (25.0, 4.150086285598261376e-274),
        (26.5, 1.105453832131867138e-307),
        (24.395, 4.0469177413188215283e-261),
        (25.91, 3.0374939339484068928e-294),
    )

    @pytest.mark.parametrize("t,want", K_GAUSS_MPMATH)
    def test_against_mpmath_within_two_ulp(self, t, want):
        got = measures.k_gauss(t)
        assert type(got) is float
        assert abs(got - want) <= 2.0 * math.ulp(want)

    # References from mpmath 1.3.0 at mp.mp.dps = 40, at the float mass m:
    # mp.erfinv(1 - 2*m) for 1/4 <= m <= 1/2, minus the value at 1 - m above
    # 1/2, and below 1/4 y = 2*m, mp.findroot(lambda t: mp.log(mp.erfc(t) /
    # y), mp.sqrt(-mp.log(y)), tol=1e-60).
    K_GAUSS_INV_MPMATH = (
        (1e-300, 2.6196253016549354049e+1),
        (1e-200, 2.1358580474149676157e+1),
        (1e-100, 1.5042603272215687812e+1),
        (1e-50, 1.0559464236596541107e+1),
        (1e-20, 6.5494634871524695364),
        (1e-10, 4.4981472895292597375),
        (1e-06, 3.361178562625649518),
        (0.001, 2.1851242191330042613),
        (0.01, 1.6449763571331870447),
        (0.1, 9.061938024368231977e-1),
        (0.25, 4.7693627620446987338e-1),
        (0.3, 3.7080715859355795164e-1),
        (0.5 - 1e-3, 1.7724557070189316875e-3),
        (0.5 - 1e-9, 1.7724538991680514638e-9),
        (0.6, -1.7914345462129163585e-1),
        (0.75, -4.7693627620446987338e-1),
        (0.999, -2.1851242191330040792),
    )

    @pytest.mark.parametrize("m,want", K_GAUSS_INV_MPMATH)
    def test_inverse_against_mpmath_within_two_ulp(self, m, want):
        got = measures.k_gauss_inv(m)
        assert type(got) is float
        assert abs(got - want) <= 2.0 * math.ulp(want)

    def test_inverse_takes_python_floats_out_of_numpy_scalars(self):
        # numpy scalars would turn every downstream Kummer loop into
        # numpy-scalar arithmetic
        assert type(measures.k_gauss_inv(np.float64(0.3))) is float
        assert type(measures.k_gauss(np.float64(0.3))) is float
        cfg = measures.config_from_split(
            MeasureSpec.gaussian(1), np.float64(0.6), np.float64(0.4))
        assert type(cfg.left_param) is float
        assert type(cfg.right_param) is float

    def test_inverse_below_the_normal_range(self):
        # 2m subnormal: the start alone, still within 1e-8 of mpmath
        # (the recipe above)
        for m, want in ((5e-324, 27.200563366536256378),
                        (1e-310, 26.631805360959569847)):
            got = measures.k_gauss_inv(m)
            assert abs(got - want) <= 1e-8 * want

    def test_perimeter_is_minus_k_prime(self):
        h = 1e-6
        for t in (-1.2, 0.0, 0.8, 2.0):
            fd = -(measures.k_gauss(t + h) - measures.k_gauss(t - h)) / (2 * h)
            assert math.exp(-t * t) / math.sqrt(math.pi) == pytest.approx(
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
            integ = quadrature.integrate(
                lambda th: np.cos(th) ** k * np.sin(th) ** (n - 2),
                0.0, math.pi / 2, tol=1e-13, vectorized=True)
            assert MeasureSpec.power(n, k).angular_constant == pytest.approx(
                sphere * integ.value, rel=1e-14)

    def test_one_dimensional_hemisphere_is_a_point(self):
        assert MeasureSpec.power(1, 2.5).angular_constant == 1.0

    @pytest.mark.parametrize("n,k", [(3, 400.0), (400, 0.0), (3, 340.3),
                                     (2000, 0.0)])
    def test_gamma_overflow_is_a_typed_error(self, n, k):
        with pytest.raises(ResourceError, match=r"n \+ k <= 343\.24"):
            MeasureSpec.power(n, k).angular_constant

    def test_largest_finite_constants(self):
        # just inside the limit the closed form still gives a normal float
        for n, k in [(3, 340.2), (1, 342.2), (343, 0.0)]:
            c = MeasureSpec.power(n, k).angular_constant
            assert math.isfinite(c) and c > 0.0


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

    @pytest.mark.parametrize("n, k, r, size", [
        (3, 0.0, 1e120, "10^360.3"), (3, 17.0, 1e-16, "10^-321.8"),
        (3, 0.0, 1e-103, "10^-308.7"), (3, 0.0, 1e-200, "10^-599.7")])
    def test_mass_beyond_the_normal_floats_raises(self, n, k, r, size):
        # overflow raised a bare OverflowError from r ** (n + k); a
        # subnormal mass, with fewer than 53 bits, or 0 counts as beyond
        # the floats too
        with pytest.raises(ResourceError, match=re.escape(
                f"radius {r:g} under power({n}, {k:g}) has mass c r^"
                f"(n+k) / (n+k), n + k = {n + k:g}, of about {size}")):
            measures.halfball_mass(MeasureSpec.power(n, k), r)

    def test_mass_at_the_normal_floats_solves(self):
        m = MeasureSpec.power(3, 0.0)
        for mass in (4.0 * sys.float_info.min, sys.float_info.max / 4.0):
            r = measures.radius_from_mass(m, mass)
            assert measures.halfball_mass(m, r) == pytest.approx(mass,
                                                                 rel=1e-12)

    @pytest.mark.parametrize("n, k", [(3, 0.0), (5, 3.0), (2, 0.5)])
    def test_maps_meet_the_float_limit_only_in_their_results(self, n, k):
        # (n+k) m / c overflowed in radius_from_mass (the scalar map gave
        # inf, the array map warned and gave inf), and c r^(n+k) in
        # halfball_mass (a ResourceError for a mass that is a float), near
        # the top of the floats; at the bottom, (n+k) m / c fell below the
        # normal floats and lost bits
        m = MeasureSpec.power(n, k)
        masses = [sys.float_info.max / 1.01, 1e308, 6e307,
                  1.01 * sys.float_info.min, 2.5e-308]
        radii = measures.radius_from_mass(m, np.array(masses + [1.0]))
        for mass, r_vec in zip(masses, radii):
            r = measures.radius_from_mass(m, mass)
            assert 0.0 < r < math.inf
            assert r_vec == pytest.approx(r, rel=1e-15)
            assert measures.halfball_mass(m, r) == pytest.approx(mass,
                                                                 rel=1e-12)

    def test_half_ball_of_a_mass_near_the_float_max(self):
        # c r^3 = 1.8e308 overflowed, and the error called the mass of
        # about 10^307.8 not a normal float (10^-307.7 to 10^308.3)
        m = MeasureSpec.power(3, 0.0)
        assert measures.halfball_mass(m, 3.06e102) == pytest.approx(
            2.0 * math.pi / 3.0 * 3.06e102 ** 3, rel=1e-14)

    @pytest.mark.parametrize("n, k", [(3, 0.0), (3, 2.0), (2, 0.5)])
    def test_maps_keep_their_bits_inside_the_floats(self, n, k):
        # where the intermediates are normal floats, the mass map is the
        # plain formula, bit for bit
        m = MeasureSpec.power(n, k)
        c, p = m.angular_constant, n + k
        for r in (1e-60, 1e-5, 0.3, 1.0, 7.0, 1e60):
            assert measures.halfball_mass(m, r) == c * r ** p / p

    # ((n+k) m / c_{n,k})^(1/(n+k)) by mpmath 1.3.0 at dps = 50, c_{n,k} =
    # pi^((n-1)/2) gamma((k+1)/2) / gamma((n+k)/2), the mass converted
    # exactly from its float.  The plain (p m / c) ** (1/p) was off by up
    # to 110 ulps here (1.3e-14 relative at 1e300 under power(3, 0)): pow
    # rounds 1/p.  At 2.5e-308 under power(3, 0) and 1e308 under
    # power(3, 2), p m / c is not a normal float, and the map takes its
    # fallback.
    @pytest.mark.parametrize("n, k, mass, radius", [
        (3, 0.0, 2.5e-308, 2.2853907486704160869e-103),
        (3, 0.0, 1e-300, 7.8159264179677203606e-101),
        (3, 0.0, 1e-200, 1.6838903009606296627e-67),
        (3, 0.0, 1e-30, 7.8159264179677205124e-11),
        (3, 0.0, 0.37, 0.56110960566356908934),
        (3, 0.0, 1e+30, 7815926417.9677203471),
        (3, 0.0, 1e+200, 3.6278316785978095445e+66),
        (3, 0.0, 1e+308, 3.6278316785978095943e+102),
        (3, 2.0, 1e-300, 1.1900967745148000325e-60),
        (3, 2.0, 1e+300, 1.190096774514800039e+60),
        (3, 2.0, 1e+308, 4.7378605958693045557e+61),
        (2, 0.5, 1e-300, 1.0170936531013221685e-120),
        (2, 0.5, 1e+300, 1.0170936531013221796e+120)])
    def test_radius_within_two_ulp_of_mpmath(self, n, k, mass, radius):
        m = MeasureSpec.power(n, k)
        for r in (measures.radius_from_mass(m, mass),
                  measures.radius_from_mass(m, np.array([mass]))[0]):
            assert abs(r - radius) <= 2.0 * math.ulp(radius), (r, radius)

    def test_bad_inputs(self):
        m = MeasureSpec.power(3, 0.0)
        with pytest.raises(DomainError):
            measures.halfball_mass(m, 0.0)
        with pytest.raises(DomainError):
            measures.radius_from_mass(m, -1.0)
        with pytest.raises(DomainError):
            measures.halfball_mass(MeasureSpec.gaussian(1), 1.0)


class TestArrayMassMaps:
    """The mass -> coordinate maps take a float or an array."""

    MASSES = np.concatenate((np.linspace(1e-6, 0.999, 257), [0.2, 0.37]))

    def test_gaussian_array_bit_identical(self):
        got = measures.k_gauss_inv(self.MASSES).tolist()
        assert got == [measures.k_gauss_inv(float(m)) for m in self.MASSES]

    @pytest.mark.parametrize("measure", [MeasureSpec.power(3, 2.0),
                                         MeasureSpec.power(5, 3.0),
                                         MeasureSpec.power(3, 0.0)])
    def test_power_array_bit_identical(self, measure):
        masses = self.MASSES * 5.0
        got = measures.radius_from_mass(measure, masses).tolist()
        assert got == [measures.radius_from_mass(measure, float(m))
                       for m in masses]

    def test_float_in_float_out(self):
        # within 1 ulp of mpmath 1.3.0 (dps = 40, the recipe of
        # K_GAUSS_INV_MPMATH above): 0.59511608144999482198,
        # 0.23465575162492161908, 4.2410900125601801973
        for m, t in ((0.2, 0.5951160814499948), (0.37, 0.23465575162492164),
                     (1e-9, 4.24109001256018)):
            got = measures.k_gauss_inv(m)
            assert type(got) is float and got == t
        for measure, m, r in (
                (MeasureSpec.power(3, 2.0), 0.7, 1.1081585105440963),
                (MeasureSpec.power(3, 2.0), 2.3, 1.4058139396528495),
                (MeasureSpec.power(5, 3.0), 0.7, 1.1654803118586146),
                (MeasureSpec.power(5, 3.0), 2.3, 1.3523330624769836)):
            got = measures.radius_from_mass(measure, m)
            assert type(got) is float and got == r

    def test_power_takes_python_floats_out_of_numpy_scalars(self):
        # numpy-scalar radii would turn every downstream Bessel loop into
        # numpy-scalar arithmetic; arrays stay arrays
        measure = MeasureSpec.power(3, 2.0)
        for m in (np.float64(0.7), np.float32(0.7), np.int64(2),
                  np.array(0.7)):
            got = measures.radius_from_mass(measure, m)
            assert type(got) is float
            assert got == measures.radius_from_mass(measure, float(m))
        cfg = measures.config_from_split(measure, np.float64(3.0),
                                         np.float64(0.4))
        assert type(cfg.left_param) is float
        assert type(cfg.right_param) is float
        out = measures.radius_from_mass(measure, np.array([0.7, 2.3]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)

    @pytest.mark.parametrize("bad", [0.0, 1.0])
    def test_gaussian_array_domain(self, bad):
        with pytest.raises(DomainError, match=f"got {bad:g}$"):
            measures.k_gauss_inv(np.array([0.3, bad, 0.4]))

    def test_zero_dim_array_is_a_scalar(self):
        assert type(measures.k_gauss_inv(np.array(0.3))) is float
        with pytest.raises(DomainError, match="got 1.5$"):
            measures.k_gauss_inv(np.array(1.5))
        with pytest.raises(DomainError, match="got -1$"):
            measures.radius_from_mass(MeasureSpec.power(3, 0.0),
                                      np.array(-1.0))

    def test_power_array_domain(self):
        with pytest.raises(DomainError, match="got 0$"):
            measures.radius_from_mass(MeasureSpec.power(3, 0.0),
                                      np.array([0.3, 0.0, 2.0]))


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
        assert cfg.mass_right > cfg.mass_left

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


class TestNonFiniteInputs:
    """A nan or infinite parameter is a DomainError at construction, not a
    bare ValueError in the solver that first takes math.ceil of it."""

    @pytest.mark.parametrize("L,R", [(math.nan, 1.0), (1.0, math.nan),
                                     (math.inf, 1.0), (0.5, math.inf)])
    def test_gaussian_offsets(self, L, R):
        with pytest.raises(DomainError, match="finite offsets"):
            measures.PairConfig(MeasureSpec.gaussian(1), L, R)

    @pytest.mark.parametrize("L,R", [(math.nan, 1.0), (1.0, math.nan),
                                     (math.inf, 1.0), (0.5, math.inf)])
    def test_power_radii(self, L, R):
        with pytest.raises(DomainError, match="finite radii"):
            measures.PairConfig(MeasureSpec.power(3, 2.0), L, R)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_power_split_mass(self, mass):
        with pytest.raises(DomainError, match="total mass must be finite"):
            measures.config_from_split(MeasureSpec.power(3, 2.0), mass, 0.5)

    @pytest.mark.parametrize("mass", [math.nan, math.inf])
    def test_gaussian_split_mass(self, mass):
        with pytest.raises(DomainError, match="total mass must be finite"):
            measures.config_from_split(MeasureSpec.gaussian(1), mass, 0.5)

    @pytest.mark.parametrize("k", [math.nan, math.inf])
    def test_power_exponent(self, k):
        with pytest.raises(DomainError, match="finite and >= 0"):
            MeasureSpec.power(3, k)
