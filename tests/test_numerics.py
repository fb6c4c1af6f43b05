import math

import numpy as np
import pytest

from twistspec import numerics, specfun
from twistspec.errors import DomainError, NumericalError

import quadrature


class TestBracketAndRoots:
    def test_bracket_validation(self):
        with pytest.raises(DomainError):
            numerics.Bracket(2.0, 1.0, -1.0, 1.0)
        with pytest.raises(DomainError):
            numerics.Bracket(0.0, 1.0, 1.0, 2.0)

    def test_nan_at_an_end_raises(self):
        with pytest.raises(NumericalError, match=r"f is nan at an end of "
                           r"\[1\.0, 2\.0\]: f\(lo\)=nan"):
            numerics.Bracket(1.0, 2.0, math.nan, 1.0)

    def test_sqrt_two(self):
        # f is -4.4e-16 and 4.4e-16 at the floats on either side of
        # sqrt(2): both ends are a best root
        f = lambda t: t * t - 2.0  # noqa: E731
        (x,) = numerics.grid_roots(f, np.array([1.0, 2.0]), 1)
        assert abs(x - math.sqrt(2)) <= math.ulp(math.sqrt(2))

    def test_pi_from_sin(self):
        assert numerics.grid_roots(math.sin, np.array([3.0, 3.2]), 1) == [
            math.pi]

    def test_hermite_degree_root(self):
        # H_nu(0) vanishes first at nu = 1 (H_1 = 2t)
        assert numerics.grid_roots(lambda nu: specfun.hermite_value(nu, 0.0),
                                   np.array([0.5, 1.5]), 1) == pytest.approx(
            [1.0], abs=1e-9)

    def test_root_stays_in_bracket(self):
        (x,) = numerics.grid_roots(math.cos, np.array([1.0, 2.0]), 1)
        assert 1.0 <= x <= 2.0

    def test_scan_sign_change(self):
        # the reference scan the closed-form tests take their roots from
        br = quadrature.scan_sign_change(math.cos, 0.0, 3.0, 30)
        assert br is not None
        assert br.lo <= math.pi / 2 <= br.hi
        assert quadrature.scan_sign_change(lambda x: 1.0 + x * x, 0, 1,
                                           10) is None

    def test_grid_roots_ascending_several(self):
        xs = np.linspace(0.0, 10.0, 41)
        roots = numerics.grid_roots(math.cos, xs, 2)
        assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                      abs=1e-15)

    def test_grid_roots_descending_in_grid_order(self):
        xs = np.linspace(10.0, 0.0, 41)
        roots = numerics.grid_roots(math.cos, xs, 2)
        assert roots == pytest.approx([5 * math.pi / 2, 3 * math.pi / 2],
                                      abs=1e-14)

    def test_grid_roots_fewer_changes_than_count(self):
        xs = np.linspace(0.0, 5.0, 21)
        roots = numerics.grid_roots(math.cos, xs, 4)
        assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                      abs=1e-15)
        assert numerics.grid_roots(lambda x: 1.0 + x * x, xs, 1) == []

    def test_grid_roots_zero_on_grid_counted_once(self):
        xs = np.arange(-2.0, 4.0)          # f vanishes at the node 0
        roots = numerics.grid_roots(lambda x: x * (x - 2.5), xs, 3)
        assert roots == [0.0, 2.5]


def _flat(x):
    return (x - 1.3) ** 5


# f, and the interval its random brackets take their ends from
_ROOT_CASES = {
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, (0.0, 4.0)),
    "cos_minus_x": (lambda x: math.cos(x) - x, (-1.0, 3.0)),
    "sin30": (lambda x: math.sin(30.0 * x) + 0.3, (0.0, 2.0)),
    "flat": (_flat, (0.0, 3.0)),
    # 0 at the ends 0.5 and 2 of brackets drawn on a grid of 1/8
    "zero_at_end": (lambda x: (x - 0.5) * (x - 2.0) * (x + 3.0), (-1.0, 3.0)),
}


def _assert_straddles(f, root, lo, hi):
    """f(root) = 0, or root and its float neighbour toward the side of the
    change have opposite signs of f, with |f| no larger at root."""
    assert lo <= root <= hi
    fr = f(root)
    if fr == 0.0:
        return
    # the change lies on the side whose end has the other sign
    other = hi if (fr < 0.0) == (f(lo) < 0.0) else lo
    fn = f(math.nextafter(root, other))
    assert fn == 0.0 or (fn < 0.0) != (fr < 0.0), (root, fr, fn)
    assert abs(fr) <= abs(fn), (root, fr, fn)


class TestGridRoots:
    """grid_roots walks the grid and bisects each change to adjacent
    floats."""

    @pytest.mark.parametrize("name", sorted(_ROOT_CASES))
    def test_root_straddles_sign_change_on_random_brackets(self, name):
        f, (a, b) = _ROOT_CASES[name]
        rng = np.random.default_rng(sorted(_ROOT_CASES).index(name))
        found = 0
        while found < 60:
            lo, hi = np.sort(rng.uniform(a, b, 2)).tolist()
            if name == "zero_at_end":
                lo, hi = math.floor(8 * lo) / 8, math.ceil(8 * hi) / 8
            if not (lo < hi and f(lo) * f(hi) <= 0.0):
                continue
            found += 1
            (root,) = numerics.grid_roots(f, [lo, hi], 1)
            _assert_straddles(f, root, lo, hi)
            # either direction of the grid gives the same root, unless
            # both ends are roots: then the first in grid order
            if f(lo) != 0.0 or f(hi) != 0.0:
                assert numerics.grid_roots(f, [hi, lo], 1) == [root]

    @pytest.mark.parametrize("scale", [1e-200, 1e200])
    def test_straddles_at_extreme_scales(self, scale):
        # products of f values under- and overflow here
        f = lambda x: scale * (x - 0.3) ** 3  # noqa: E731
        for lo, hi in [(0.0, 1.0), (-2.0, 0.31), (0.29999, 5.0)]:
            (root,) = numerics.grid_roots(f, [lo, hi], 1)
            _assert_straddles(f, root, lo, hi)

    def test_infinite_values_bisect(self):
        # -inf below 0.1, +inf above 0.95: bisection reads only signs
        def f(x):
            if x < 0.1:
                return -math.inf
            if x > 0.95:
                return math.inf
            return math.sinh(40.0 * (x - 0.6))
        rng = np.random.default_rng(7)
        for _ in range(50):
            lo, hi = rng.uniform(-1.0, 0.55), rng.uniform(0.65, 2.0)
            (root,) = numerics.grid_roots(f, [lo, hi], 1)
            _assert_straddles(f, root, lo, hi)

    def test_flat_root_in_bounded_steps(self):
        # the flat quintic: each halving costs one call of f, and the
        # floats of [1, 2] are 2^52 apart
        calls = []

        def f(x):
            calls.append(x)
            return _flat(x)
        (root,) = numerics.grid_roots(f, [1.0, 2.0], 1)
        _assert_straddles(_flat, root, 1.0, 2.0)
        assert abs(root - 1.3) <= math.ulp(1.3)
        assert len(calls) <= 2 + 52

    def test_walk_stops_at_the_count_th_change(self):
        calls = []

        def f(x):
            calls.append(x)
            return math.cos(x)
        xs = np.linspace(0.0, 20.0, 201)   # cos changes sign 6 times
        roots = numerics.grid_roots(f, xs, 2)
        assert roots == pytest.approx([math.pi / 2, 3 * math.pi / 2],
                                      abs=1e-15)
        # the walk ends at xs[48], the first node past the second change
        assert xs[47] < 3 * math.pi / 2 < xs[48] == max(calls)
        assert sum(x in xs for x in calls) == 49

    def test_nan_inside_a_change_raises(self):
        # f is NaN past 1.2, but the grid values at 1 and 2 are -0.5, 0.5
        f = lambda x: math.nan if 1.2 < x < 2.0 else x - 1.5  # noqa: E731
        with pytest.raises(NumericalError,
                           match=r"grid_roots: f is nan at x = 1\.5$"):
            numerics.grid_roots(f, [1.0, 2.0], 1)

    def test_nan_on_the_grid_raises(self):
        # a NaN grid value must not hide the sign change next to it
        f = lambda x: math.nan if x == 1.5 else x - 1.55  # noqa: E731
        with pytest.raises(NumericalError,
                           match=r"grid_roots: f is nan at x = 1\.5$"):
            numerics.grid_roots(f, np.linspace(1.0, 2.0, 11), 1)

    def test_bessel_zeros_match_mpmath(self):
        # mpmath 1.3.0 at dps = 40: besseljzero(b, 1), besseljzero(b, 2)
        for order, want1, want2 in (
                (0.5, 3.1415926535897932385, 6.2831853071795864769),
                (1.0, 3.8317059702075123156, 7.0155866698156187535),
                (1.5, 4.4934094579090641753, 7.7252518369377071642),
                (3.0, 6.3801618959239835062, 9.7610231299816696785)):
            j1, j2 = specfun.bessel_zeros(order, 2)
            assert abs(j1 / want1 - 1.0) <= 2.0 * math.ulp(1.0), order
            assert abs(j2 / want2 - 1.0) <= 1e-14, order

    def test_largest_hermite_zero_matches_mpmath(self):
        # H_2 = 4t^2 - 2 and H_3 = 8t^3 - 12t; mpmath 1.3.0 at dps = 40:
        # sqrt(0.5), sqrt(1.5)
        for nu, want in ((2.0, 0.7071067811865475244),
                         (3.0, 1.2247448713915890491)):
            got = specfun.hermite_largest_zero.__wrapped__(nu)
            assert abs(got - want) <= math.ulp(want), nu


def _secular(x):
    """A secular function with poles at 1 and 2 and a curved remainder."""
    return 0.3 / (1.0 - x) + 0.2 / (2.0 - x) + 0.1 + 0.05 * math.sin(3.0 * x)


def _secular_slope(x):
    return (0.3 / (1.0 - x) ** 2 + 0.2 / (2.0 - x) ** 2
            + 0.15 * math.cos(3.0 * x))


class TestSecularRoot:
    """The two-pole secular step, find_root on a PoleBracket."""

    @pytest.mark.parametrize("dg", [0.5, -40.0], ids=["monotone", "not"])
    def test_model_root(self, dg):
        # m(x) = 0.3/(1 - x) + 0.2/(2 - x) + 0.1 + dg (x - 1.5), built at
        # 1.5 where m < 0; with dg = -40 its slope is negative on most of
        # the bracket, where the Newton iteration must bisect
        poles, weights, lam = (1.0, 2.0), (0.3, 0.2), 1.5

        def model(x):
            return (weights[0] / (poles[0] - x) + weights[1] / (poles[1] - x)
                    + 0.1 + dg * (x - lam))

        root = numerics._model_root(lam, 0.1, dg, lam, 2.0 - 1e-9, poles,
                                    weights)
        assert lam < root < 2.0 and abs(model(root)) <= 1e-10
        if dg > 0.0:
            # the model's root lies beyond hi = 1.52
            assert numerics._model_root(lam, 0.1, dg, lam, 1.52, poles,
                                        weights) is None

    @pytest.mark.parametrize("with_slope", [True, False],
                             ids=["slope", "secant"])
    def test_root_between_the_poles(self, with_slope):
        from scipy.optimize import brentq
        want = brentq(_secular, 1.0 + 1e-9, 2.0 - 1e-9, xtol=1e-300,
                      rtol=8.9e-16)
        xs = []

        def f(x):
            xs.append(x)
            return _secular(x), _secular_slope(x) if with_slope else None

        br = numerics.PoleBracket(1.0, 2.0, -math.inf, math.inf, (1.0, 2.0),
                                  (0.3, 0.2), 1e-14, "x")
        root = numerics.find_root(f, br, tol=4.0 * 2.2e-16)
        assert abs(root - want) <= 4e-16 * want
        assert root == xs[-1]           # the last point f ran at
        assert all(1.0 < x < 2.0 for x in xs)
        assert len(xs) <= 6

    def test_top_that_is_no_pole(self):
        # f = 0.3/(1 - x) + 1 + x on (1, 1.2]: one pole, and the end of the
        # domain at 1.2, where f = 0.7 > 0; the root is sqrt(1.3)
        def f(x):
            return 0.3 / (1.0 - x) + 1.0 + x, None

        top = 1.2
        br = numerics.PoleBracket(1.0, top, -math.inf, f(top)[0], (1.0, top),
                                  (0.3, 0.0), 1e-14, "x")
        root = numerics.find_root(f, br, tol=4.0 * 2.2e-16)
        assert 1.0 < root < top
        want = math.sqrt(1.3)
        assert abs(root - want) <= 4e-16 * want

    def test_residues_of_opposite_sign(self):
        with pytest.raises(NumericalError, match=r"residues 0\.3 and -0\.2 "
                           r"at the poles x_1 = 1\.0 and x_2 = 2\.0"):
            numerics.PoleBracket(1.0, 2.0, -math.inf, math.inf, (1.0, 2.0),
                                 (0.3, -0.2), 1e-14, "x")

    def test_nonfinite_value_raises(self):
        br = numerics.PoleBracket(1.0, 2.0, -math.inf, math.inf, (1.0, 2.0),
                                  (0.3, 0.2), 1e-14, "x")
        with pytest.raises(NumericalError, match=r"secular function is nan "
                           r"at x = .*x_1 = 1\.0, x_2 = 2\.0, last bracket"):
            numerics.find_root(lambda x: (math.nan, None), br, tol=1e-15)

    @pytest.mark.parametrize("tol", [0.0, -1e-12, math.nan])
    def test_tol_not_positive_raises(self, tol):
        br = numerics.PoleBracket(1.0, 2.0, -math.inf, math.inf, (1.0, 2.0),
                                  (0.3, 0.2), 1e-14, "x")
        with pytest.raises(DomainError, match="find_root: need tol > 0"):
            numerics.find_root(lambda x: (_secular(x), None), br, tol=tol)


class TestIntegrate:
    def test_polynomial(self):
        r = quadrature.integrate(lambda x: x * x, 0.0, 1.0)
        assert r.value == pytest.approx(1.0 / 3.0, abs=1e-13)

    def test_normalized_gaussian(self):
        tail = quadrature.gauss_tail(0.0, nu=0.0)
        half = quadrature.integrate(
            lambda x: np.exp(-np.asarray(x) ** 2) / math.sqrt(math.pi),
            0.0, math.inf, tail=tail, vectorized=True)
        assert 2.0 * half.value == pytest.approx(1.0, abs=1e-12)

    def test_gaussian_moment(self):
        tail = quadrature.gauss_tail(0.0, nu=1.0)
        r = quadrature.integrate(
            lambda t: 2 * np.asarray(t) * np.exp(-np.asarray(t) ** 2)
            / math.sqrt(math.pi),
            0.0, math.inf, tail=tail, vectorized=True)
        assert r.value == pytest.approx(1.0 / math.sqrt(math.pi), abs=1e-12)

    def test_semi_infinite_requires_tailspec(self):
        with pytest.raises(DomainError):
            quadrature.integrate(lambda x: math.exp(-x), 0.0, math.inf)

    def test_error_estimate_bounds_true_error(self):
        # battery of analytic integrands on [0, 1] (or as noted)
        cases = [
            (lambda x: x ** 3, 0.0, 1.0, 0.25),
            (lambda x: np.sin(x), 0.0, math.pi, 2.0),
            (lambda x: np.exp(x), 0.0, 1.0, math.e - 1.0),
            (lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0, math.pi / 4.0),
            (lambda x: np.sqrt(np.abs(x)), 0.0, 1.0, 2.0 / 3.0),
            (lambda x: np.cos(10 * x), 0.0, 1.0, math.sin(10.0) / 10.0),
            (lambda x: np.log(1.0 + x), 0.0, 1.0, 2 * math.log(2) - 1.0),
            (lambda x: x * np.exp(-x), 0.0, 5.0, 1.0 - 6.0 * math.exp(-5)),
            (lambda x: 1.0 / (1.0 + x), 0.0, 1.0, math.log(2.0)),
            (lambda x: x ** 10, 0.0, 1.0, 1.0 / 11.0),
        ]
        for f, a, b, exact in cases:
            r = quadrature.integrate(f, a, b, tol=1e-10, vectorized=True)
            assert abs(r.value - exact) <= max(r.abs_error_estimate, 2e-14)
            assert abs(r.value - exact) <= 2e-10
