import math

import numpy as np
import pytest

from twistspec import measures, rearrange
from twistspec.errors import DomainError
from twistspec.grids import GridFunction
from twistspec.measures import MeasureSpec

G1 = MeasureSpec.gaussian(1)
M21 = MeasureSpec.power(2, 1.0)


def linear_on_unit_interval(n=2000):
    x = np.linspace(0, 1, n + 2)[1:-1]
    h = x[1] - x[0]
    return GridFunction(x, x.copy(), np.full_like(x, h))


def gauss_bump(n=2500, lo=-3.5, hi=-0.4, wobble=0.3):
    xs = np.linspace(lo, hi, n)
    h = xs[1] - xs[0]
    vals = np.sin(math.pi * (xs - lo) / (hi - lo)) ** 2 \
        * (1 + wobble * np.cos(3 * xs))
    return GridFunction(xs, vals, measures.gauss_weight_1d(xs) * h)


def two_bump_gauss():
    xs1 = np.linspace(-4.0, -0.5, 1500)
    xs2 = np.linspace(0.5, 4.0, 1500)
    v1 = np.sin(math.pi * (xs1 + 4.0) / 3.5) ** 2
    v2 = 0.7 * np.sin(math.pi * (xs2 - 0.5) / 3.5) ** 2
    nodes = np.concatenate([xs1, xs2])
    vals = np.concatenate([v1, v2])
    w = measures.gauss_weight_1d(nodes) * np.concatenate(
        [np.full_like(xs1, xs1[1] - xs1[0]),
         np.full_like(xs2, xs2[1] - xs2[0])])
    return GridFunction(nodes, vals, w, pieces=[(0, 1500), (1500, 3000)])


class TestDistFunction:
    def test_constant(self):
        x = np.linspace(0, 1, 100)
        u = GridFunction(x, np.full_like(x, 3.0), np.full_like(x, 0.01))
        d = rearrange.dist_function(u)
        assert d(2.9) == pytest.approx(u.mass)
        assert d(3.0) == 0.0

    def test_indicator(self):
        x = np.linspace(0, 1, 1000)
        vals = (x < 0.25).astype(float)
        u = GridFunction(x, vals, np.full_like(x, 1e-3))
        d = rearrange.dist_function(u)
        m0 = float(np.sum(u.node_weights[vals > 0]))
        assert d(0.5) == pytest.approx(m0)
        assert d(1.0) == 0.0

    def test_linear(self):
        u = linear_on_unit_interval()
        d = rearrange.dist_function(u)
        assert d(0.25) == pytest.approx(0.75, abs=1e-3)

    def test_modulus(self):
        u = linear_on_unit_interval()
        d1 = rearrange.dist_function(u)
        d2 = rearrange.dist_function(u.with_values(-u.values))
        for theta in (0.1, 0.4, 0.9):
            assert d1(theta) == d2(theta)


class TestDecreasingRearrangement:
    def test_linear_profile(self):
        u = linear_on_unit_interval()
        star = rearrange.decreasing_rearrangement(u)
        for s in (0.2, 0.5, 0.8):
            assert float(star(s)) == pytest.approx(1.0 - s, abs=2e-3)

    def test_gaussian_positive_part(self):
        xs = np.linspace(1e-4, 8, 4000)
        w = measures.gauss_weight_1d(xs) * (xs[1] - xs[0])
        u = GridFunction(xs, xs.copy(), w)
        star = rearrange.decreasing_rearrangement(u)
        for s in (0.1, 0.25, 0.4):
            assert float(star(s)) == pytest.approx(
                measures.k_gauss_inv(s), abs=2e-3)

    def test_nonincreasing(self):
        u = gauss_bump()
        star = rearrange.decreasing_rearrangement(u)
        assert np.all(np.diff(star.values) <= 0)

    def test_equimeasurable_with_input(self):
        u = gauss_bump()
        star = rearrange.decreasing_rearrangement(u)
        d = rearrange.dist_function(u)
        # u*(s) is the generalized inverse: mu(u*(s)) <= s at step points
        for s in (0.05, 0.2, 0.5):
            theta = float(star.step(s))
            assert d(theta) <= s + 1e-12


class TestWeightedRearrangement:
    def test_monotone_image(self):
        usharp = rearrange.weighted_rearrangement(two_bump_gauss(), G1)
        assert np.all(np.diff(usharp.values) >= 0)  # increasing in x_1
        rr = np.linspace(1e-3, 1.0, 1200)
        u_rad = GridFunction(rr, 1.0 - rr ** 2,
                             M21.radial_weight(rr) * (rr[1] - rr[0]))
        usharp2 = rearrange.weighted_rearrangement(u_rad, M21)
        assert np.all(np.diff(usharp2.values) <= 0)  # decreasing in r

    def test_exact_equimeasurability(self):
        u = two_bump_gauss()
        d0 = rearrange.dist_function(u)
        d1 = rearrange.dist_function(rearrange.weighted_rearrangement(u, G1))
        for theta in np.linspace(0, float(np.max(u.values)), 23):
            assert d0(float(theta)) == d1(float(theta))

    def test_indicator_maps_to_halfspace(self):
        xs = np.linspace(-3, 3, 4000)
        h = xs[1] - xs[0]
        vals = ((xs > -1.0) & (xs < 0.0)).astype(float)
        u = GridFunction(xs, vals, measures.gauss_weight_1d(xs) * h)
        m0 = float(np.sum(u.node_weights[vals > 0]))
        usharp = rearrange.weighted_rearrangement(u, G1)
        boundary = measures.k_gauss_inv(m0)
        ones = usharp.nodes[usharp.values > 0.5]
        assert ones.min() == pytest.approx(boundary, abs=5e-3)

    def test_idempotence(self):
        u = gauss_bump()
        first = rearrange.resampled(rearrange.decreasing_rearrangement(u), G1)
        second = rearrange.resampled(
            rearrange.decreasing_rearrangement(first), G1)
        np.testing.assert_allclose(second.values, first.values, atol=2e-3)

    def test_total_mass_preserved(self):
        u = two_bump_gauss()
        usharp = rearrange.weighted_rearrangement(u, G1)
        assert usharp.mass == pytest.approx(u.mass, rel=1e-12)


class TestCavalieri:
    def test_linear_p2(self):
        u = linear_on_unit_interval(4000)
        lhs = float(np.dot(u.node_weights, u.values ** 2))
        assert lhs == pytest.approx(1.0 / 3.0, abs=2e-4)

    @pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
    @pytest.mark.parametrize("measure", [G1, M21])
    def test_gap_small(self, p, measure):
        if measure.is_gaussian:
            u = gauss_bump()
        else:
            rr = np.linspace(1e-3, 1.2, 2500)
            u = GridFunction(rr, (1.2 ** 2 - rr ** 2) * (1 + 0.2 * np.sin(4 * rr)),
                             measure.radial_weight(rr) * (rr[1] - rr[0]))
        rep = rearrange.check_cavalieri(u, measure, p=p)
        assert abs(rep.rel_gap) <= 2e-3

    def test_gap_shrinks_under_refinement(self):
        gaps = [abs(rearrange.check_cavalieri(gauss_bump(n), G1, p=2).rel_gap)
                for n in (1250, 2500, 5000)]
        assert max(gaps[1], gaps[2]) <= 0.6 * gaps[0]


class TestHardyLittlewood:
    def test_constant_v_equality(self):
        u = gauss_bump()
        v = u.with_values(np.full_like(u.values, 1.0))
        rep = rearrange.check_hardy_littlewood(u, v)
        assert rep.lhs == pytest.approx(rep.rhs, rel=1e-12)

    def test_comonotone_equality(self):
        u = gauss_bump()
        v = u.with_values(np.abs(u.values) ** 1.5 + 0.3 * np.abs(u.values))
        rep = rearrange.check_hardy_littlewood(u, v)
        assert abs(rep.rel_gap) <= 1e-12

    def test_random_pairs_nonnegative(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            u = gauss_bump(wobble=float(rng.uniform(0, 0.5)))
            coef = rng.normal(size=3)
            v = u.with_values(sum(c * np.cos((j + 1) * u.nodes)
                                  for j, c in enumerate(coef)))
            rep = rearrange.check_hardy_littlewood(u, v)
            assert rep.rel_gap >= -2e-3

    def test_grid_mismatch_rejected(self):
        u = gauss_bump(n=100)
        v = gauss_bump(n=101)
        with pytest.raises(DomainError):
            rearrange.check_hardy_littlewood(u, v)


class TestPolyaSzego:
    @pytest.mark.parametrize("measure", [G1, M21])
    def test_random_samples(self, measure):
        rng = np.random.default_rng(5)
        for _ in range(8):
            if measure.is_gaussian:
                lo = float(rng.uniform(-4.5, -1.5))
                hi = float(rng.uniform(0.3, 3.0))
                xs = np.linspace(lo, hi, 2200)
                coef = rng.normal(size=4)
                vals = sum(c * np.sin((j + 1) * math.pi * (xs - lo) / (hi - lo))
                           for j, c in enumerate(coef))
                u = GridFunction(xs, vals, measures.gauss_weight_1d(xs)
                                 * (xs[1] - xs[0]))
            else:
                R0 = float(rng.uniform(0.6, 1.6))
                rr = np.linspace(R0 / 2200, R0, 2200)
                coef = rng.normal(size=3)
                vals = (R0 ** 2 - rr ** 2) * sum(
                    c * np.cos(j * rr) for j, c in enumerate(coef, 1))
                u = GridFunction(rr, vals,
                                 measure.radial_weight(rr) * (rr[1] - rr[0]))
            rep = rearrange.check_polya_szego(u, measure)
            assert rep.rel_gap >= -5e-3

    def test_two_bump_strictly_positive(self):
        rep = rearrange.check_polya_szego(two_bump_gauss(), G1)
        assert rep.rel_gap > 0.05

    def test_rearranged_input_near_equality(self):
        u = rearrange.resampled(
            rearrange.decreasing_rearrangement(gauss_bump()), G1)
        rep = rearrange.check_polya_szego(u, G1)
        assert abs(rep.rel_gap) <= 5e-3
