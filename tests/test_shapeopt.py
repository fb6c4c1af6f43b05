import dataclasses
import math

import numpy as np
import pytest

import twistspec
from twistspec import closedform, measures, shapeopt, specfun, verify
from twistspec.errors import DomainError
from twistspec.measures import MeasureSpec

G1 = MeasureSpec.gaussian(1)
M30 = MeasureSpec.power(3, 0.0)
POWER_FAMILIES = ((3, 0.0), (2, 1.0), (3, 2.0), (5, 3.0))
DECADES = range(-27, 28, 3)


@pytest.fixture(scope="module")
def power_scans():
    """Default 21-point scans of four power families at total masses 10^e,
    e = -27, -24, ..., 27, keyed (n, k, e); e = 0 is mass 1."""
    return {(n, k, e): shapeopt.scan(MeasureSpec.power(n, k), 10.0 ** e)
            for n, k in POWER_FAMILIES for e in DECADES}


def scaled(curve: shapeopt.ScanCurve, factor: float) -> shapeopt.ScanCurve:
    """The curve with lambda and both derivative columns times factor."""
    return dataclasses.replace(
        curve, lambdas=curve.lambdas * factor,
        derivative_analytic=curve.derivative_analytic * factor,
        derivative_spectral=curve.derivative_spectral * factor)


@pytest.fixture(scope="module")
def suite_scans():
    """Default scans of the 15 cases of the `minimum` verify suite."""
    return [shapeopt.scan(measure, total)
            for measure, total in verify._certification_cases()]


def spectral_derivative(s: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The scan's spectral derivative of lam on the Lobatto grid s."""
    half = 0.5 * (s[-1] - s[0])
    return shapeopt._lobatto_diff_matrix(len(s)) @ lam / half


def parabola_curve(shift_steps: float, points: int = 11) -> shapeopt.ScanCurve:
    """Stand-in curve lambda = 3 + (s - s_min)^2 with exact derivatives on
    the gaussian(1) mass-0.5 grid, its minimizer shift_steps steps of the
    grid's center cell right of 1/2."""
    s = shapeopt.split_grid(G1, 0.5, points)
    mid = points // 2
    s_min = 0.5 + shift_steps * (s[mid + 1] - s[mid])
    lam = 3.0 + (s - s_min) ** 2
    return shapeopt.ScanCurve(
        measure=G1, total_mass=0.5, splits=s, lambdas=lam,
        derivative_analytic=2.0 * (s - s_min),
        derivative_spectral=spectral_derivative(s, lam), solutions=[],
        window=(float(s[0]), float(s[-1])), all_single_signed=True)


def solution_bits(sol: closedform.TwistedSolution) -> dict:
    """Every field of a solution as exact bits; the two profiles by their
    values inside each component."""
    out = {}
    for f in dataclasses.fields(sol):
        v = getattr(sol, f.name)
        out[f.name] = None if callable(v) else repr(v)
    L, R = sol.config.left_param, sol.config.right_param
    left, right = ((-L - 0.5, R + 0.5) if sol.config.measure.is_gaussian
                   else (0.5 * L, 0.5 * R))
    out["u"] = (sol.u_left_at(left).hex(), sol.u_right_at(right).hex())
    return out


def curve_bits(curve: shapeopt.ScanCurve) -> dict:
    """Every ScanCurve field as exact bits."""
    return {
        "arrays": [a.tobytes() for a in (
            curve.splits, curve.lambdas, curve.derivative_analytic,
            curve.derivative_spectral)],
        "scalars": (curve.measure, curve.total_mass.hex(), curve.window,
                    curve.all_single_signed),
        "solutions": [solution_bits(sol) for sol in curve.solutions]}


class TestLambdaOfSplit:
    def test_symmetric_composition(self):
        sol = shapeopt.lambda_of_split(G1, 0.5, 0.5)
        cfg = measures.config_from_split(G1, 0.5, 0.5)
        want = closedform.twisted_pair_gauss(cfg).eigenvalue
        assert sol.eigenvalue == pytest.approx(want, rel=1e-12)

    def test_relabeling_symmetry(self):
        a = shapeopt.lambda_of_split(G1, 0.5, 0.6).eigenvalue
        b = shapeopt.lambda_of_split(G1, 0.5, 0.4).eigenvalue
        assert a == pytest.approx(b, rel=1e-9)

    def test_two_unit_balls(self):
        total = 2 * measures.halfball_mass(M30, 1.0)
        sol = shapeopt.lambda_of_split(M30, total, 0.5)
        assert sol.eigenvalue == pytest.approx(math.pi ** 2, rel=1e-9)


class TestShapeDerivative:
    def test_zero_at_symmetry(self):
        sol = shapeopt.lambda_of_split(G1, 0.5, 0.5)
        assert closedform.boundary_gradient_gap(sol) * 0.5 == pytest.approx(
            0.0, abs=1e-10)

    def test_pushes_back_toward_half(self):
        sol = shapeopt.lambda_of_split(G1, 0.5, 0.55)
        d = closedform.boundary_gradient_gap(sol) * 0.5
        assert d > 0.0
        sol2 = shapeopt.lambda_of_split(G1, 0.5, 0.45)
        assert closedform.boundary_gradient_gap(sol2) * 0.5 < 0.0

    def test_agrees_with_curve_spectral(self):
        # at every node, ends included
        curve = shapeopt.scan(G1, 0.5, points=21)
        tol = shapeopt.CERT_RTOL * np.max(np.abs(curve.lambdas))
        gap = np.abs(curve.derivative_analytic - curve.derivative_spectral)
        assert np.all(gap <= tol)

    def test_spectral_derivative_exact_on_polynomials(self):
        # degree <= N polynomials are differentiated exactly up to rounding
        s = shapeopt.split_grid(G1, 0.5, 11)
        for p in (np.ones(1), np.array([2.0, -1.0, 0.5]),
                  np.arange(1.0, 12.0)):
            got = spectral_derivative(s, np.polyval(p, s - 0.5))
            want = np.polyval(np.polyder(p), s - 0.5)
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-11)


class TestScan:
    def test_grid_shape_and_window(self):
        curve = shapeopt.scan(G1, 0.5, points=11)
        assert len(curve.splits) == 11
        assert curve.splits[5] == pytest.approx(0.5)
        np.testing.assert_allclose(curve.splits + curve.splits[::-1], 1.0)
        assert np.all(np.isfinite(curve.lambdas))

    def test_gaussian_feasibility_window_respected(self):
        curve = shapeopt.scan(G1, 0.95, points=11)
        lo, hi = curve.window
        assert lo > 1 - 0.5 / 0.95 - 1e-12
        assert hi < 0.5 / 0.95 + 1e-12

    @pytest.mark.parametrize("measure,total", [
        (G1, 0.5), (G1, 0.95), (M30, 3.0)])
    def test_lobatto_grid_keeps_the_window(self, measure, total):
        # the ends are the uniform grid's ends and the center is exactly
        # 1/2: the window and lambda(1/2) are the same floats; the upper
        # half is 1/2 + h cos(pi j / 20) and the lower half its exact
        # complement
        s = shapeopt.split_grid(measure, total)
        h = shapeopt._half_width(measure, total)
        assert len(s) == shapeopt.DEFAULT_POINTS == 21
        assert s[10] == 0.5
        assert (s[0], s[-1]) == (0.5 - h, 0.5 + h)
        assert np.all(s + s[::-1] == 1.0)
        assert np.all(np.diff(s) > 0.0)
        x = np.cos(np.pi * np.arange(21) / 20)[::-1]
        np.testing.assert_array_equal(s[10:], 0.5 + h * x[10:])
        np.testing.assert_array_equal(s[:10], 1.0 - s[:10:-1])

    @pytest.mark.parametrize("points", [3, 5, 11, 21, 41, 101])
    def test_grid_is_its_own_mirror_to_the_bit(self, points):
        # 1 - s is exact for s in [1/2, 1] (Sterbenz), so the lower half
        # is the complement of the upper one, feasibility-cut windows too
        for measure, total in ((G1, 0.5), (G1, 0.8), (G1, 0.95),
                               (G1, 1e-6), (M30, 3.0), (M30, 1e-27)):
            s = shapeopt.split_grid(measure, total, points)
            assert np.all(s + s[::-1] == 1.0), (measure, total)
            assert s[points // 2] == 0.5
            assert np.all(np.diff(s) > 0.0)

    def test_mirrored_splits_swap_the_components(self):
        # the configuration at 1 - s is the one at s with L and R swapped,
        # bit for bit, at every split of every suite_minimum grid, whose
        # ends and center keep their floats
        for measure, total in verify._certification_cases():
            s = shapeopt.split_grid(measure, total)
            assert (s[0], s[10], s[-1]) == (0.30000000000000004, 0.5, 0.7)
            for a, b in zip(s, s[::-1]):
                ca = measures.config_from_split(measure, total, float(a))
                cb = measures.config_from_split(measure, total, float(b))
                assert (ca.left_param, ca.right_param) == (
                    cb.right_param, cb.left_param), (measure, total, a)

    def test_one_solve_per_point(self, monkeypatch):
        calls = []
        solve = closedform.solve

        def counted(config):
            calls.append(config)
            return solve(config)
        monkeypatch.setattr(closedform, "solve", counted)
        for points in (3, 11, shapeopt.DEFAULT_POINTS):
            calls.clear()
            shapeopt.scan(M30, 3.0, points=points)
            assert len(calls) == points

    def test_center_then_mirrored_pairs(self, monkeypatch):
        # each mirrored pair of splits is solved back to back, and the
        # curve is stored in grid order
        seen = []
        solve = shapeopt.lambda_of_split
        monkeypatch.setattr(shapeopt, "lambda_of_split",
                            lambda m, t, s: seen.append(s) or solve(m, t, s))
        curve = shapeopt.scan(M30, 3.0, points=7)
        s = curve.splits
        assert seen == [s[3], s[4], s[2], s[5], s[1], s[6], s[0]]
        assert [sol.config for sol in curve.solutions] == [
            measures.config_from_split(M30, 3.0, float(x)) for x in s]

    def test_empty_window_rejected(self):
        with pytest.raises(DomainError):
            shapeopt.split_grid(G1, 0.5, points=4)  # even point count

    @pytest.mark.parametrize("n,k", POWER_FAMILIES)
    def test_power_homogeneity(self, n, k, power_scans):
        # lambda(m, s) = lambda(1, s) m^(-2/(n+k)): the mass scales as
        # R^(n+k) and lambda as R^-2
        unit = power_scans[(n, k, 0)].lambdas
        for e in DECADES:
            lam = power_scans[(n, k, e)].lambdas
            np.testing.assert_allclose(
                lam * (10.0 ** e) ** (2.0 / (n + k)), unit, rtol=1e-13,
                atol=0.0, err_msg=f"mass 1e{e}")

    def test_monotone_decreasing_into_center(self):
        curve = shapeopt.scan(G1, 0.5, points=21)
        mid = 10
        left = curve.lambdas[:mid + 1]
        assert np.all(np.diff(left) < 0)


class TestKernelCaches:
    def test_caches_change_no_bit(self, suite_scans, monkeypatch):
        # every field of every suite_minimum scan against the same scan
        # with every cache of the package emptied before each solve
        solve = closedform.solve

        def uncached(config):
            twistspec.clear_caches()
            return solve(config)
        monkeypatch.setattr(closedform, "solve", uncached)
        for curve in suite_scans:
            again = shapeopt.scan(curve.measure, curve.total_mass)
            assert curve_bits(again) == curve_bits(curve), curve.total_mass

    @pytest.mark.parametrize("measure,total", [
        (G1, 0.5), (MeasureSpec.gaussian(3), 0.7), (M30, 3.0),
        (MeasureSpec.power(3, 2.0), 5.0)])
    def test_mirror_solve_adds_no_state_miss(self, measure, total,
                                             monkeypatch):
        # the second solve of a mirrored pair finds every boundary state
        # and normalization jet of the first in the kernel caches: one hit
        # for each such call the first solve made
        kernels = (specfun._hermite_pair, specfun._bessel_pair,
                   specfun._hermite_jet)
        calls = []
        for name in ("hermite_state", "bessel_state", "_hermite_jet"):
            monkeypatch.setattr(specfun, name, lambda *args, f=getattr(
                specfun, name): calls.append(args) or f(*args))
        s = shapeopt.split_grid(measure, total)
        for k in (1, 5, 10):
            calls.clear()
            first = closedform.solve(
                measures.config_from_split(measure, total, float(s[10 + k])))
            own = len(calls)
            before = [f.cache_info() for f in kernels]
            mirror = closedform.solve(
                measures.config_from_split(measure, total, float(s[10 - k])))
            after = [f.cache_info() for f in kernels]
            assert [a.misses for a in after] == [b.misses for b in before]
            assert sum(a.hits - b.hits for a, b in zip(after, before)) == own
            assert own >= 4 and mirror.eigenvalue == first.eigenvalue

    @pytest.mark.parametrize("name,measure", [
        ("hermite_state", G1), ("bessel_state", M30)])
    def test_double_on_state_sees_every_call(self, name, measure,
                                             monkeypatch):
        # the caches sit under the public names: a solve served from them
        # still makes every call a test double or tracer installed on
        # specfun can see
        calls = []
        state = getattr(specfun, name)
        monkeypatch.setattr(specfun, name,
                            lambda *args: calls.append(args) or state(*args))
        cfg = measures.config_from_split(measure, 0.5, 0.4)
        for _ in range(2):
            closedform.solve(cfg)
        n = len(calls) // 2
        assert n >= 4 and calls[:n] == calls[n:]


class TestCertify:
    @pytest.mark.parametrize("measure,total", [
        (G1, 0.5),
        (M30, 2 * measures.halfball_mass(M30, 1.0)),
        (MeasureSpec.power(3, 2.0), 3.0),
    ])
    def test_passes(self, measure, total):
        curve = shapeopt.scan(measure, total, points=21)
        rep = shapeopt.certify_minimum(curve)
        assert rep.passed, [c.detail for c in rep.failures()]

    def test_tiny_power_mass_certifies_the_center(self):
        # radii near 6e-10: the symmetric branch compares them relatively,
        # so only the center takes it and the curve is symmetric about 1/2
        rep = shapeopt.certify_minimum(shapeopt.scan(M30, 1e-27))
        assert rep.passed, [c.detail for c in rep.failures()]

    def test_every_power_mass_certifies(self, power_scans):
        failed = {key: [c.name for c in rep.failures()]
                  for key, rep in ((key, shapeopt.certify_minimum(curve))
                                   for key, curve in power_scans.items())
                  if not rep.passed}
        assert failed == {}

    def test_upside_down_curve_fails_at_every_mass(self, power_scans):
        for key, curve in power_scans.items():
            rep = shapeopt.certify_minimum(scaled(curve, -1.0))
            assert [c.name for c in rep.failures()] == [
                "grid_minimum_at_half", "derivative_sign_pattern",
                "interpolant_minimum_at_half"], key

    def test_one_percent_derivative_error_fails_at_every_mass(
            self, power_scans):
        for key, curve in power_scans.items():
            bad = dataclasses.replace(
                curve, derivative_analytic=curve.derivative_analytic * 1.01)
            rep = shapeopt.certify_minimum(bad)
            assert "derivative_spectral_agreement" in {
                c.name for c in rep.failures()}, key

    def test_ppm_derivative_error_fails(self, power_scans, suite_scans):
        scans = [*power_scans.values(), *suite_scans]
        assert len(scans) == 76 + 15
        for curve in scans:
            bad = dataclasses.replace(
                curve, derivative_analytic=curve.derivative_analytic
                * (1.0 + 1e-6))
            rep = shapeopt.certify_minimum(bad)
            assert [c.name for c in rep.failures()] == [
                "derivative_spectral_agreement"], curve.total_mass

    def test_raised_center_fails_spectral_agreement(self, suite_scans):
        # lambda(1/2) one part in 1e9 high bends the interpolating
        # polynomial at the center far past the gate
        assert len(suite_scans) == 15
        for curve in suite_scans:
            lam = curve.lambdas.copy()
            lam[len(lam) // 2] *= 1.0 + 1e-9
            bad = dataclasses.replace(
                curve, lambdas=lam,
                derivative_spectral=spectral_derivative(curve.splits, lam))
            rep = shapeopt.certify_minimum(bad)
            assert "derivative_spectral_agreement" in {
                c.name for c in rep.failures()}, curve.total_mass

    def test_verdicts_do_not_depend_on_scale(self):
        # exact powers of two scale every gap and the tolerance alike
        curve = shapeopt.scan(G1, 0.5)
        wrong_slope = dataclasses.replace(
            curve, derivative_analytic=curve.derivative_analytic * 1.01)
        for c in (curve, scaled(curve, -1.0), wrong_slope):
            want = [x.passed for x in shapeopt.certify_minimum(c).checks]
            for j in range(-200, 201):
                rep = shapeopt.certify_minimum(scaled(c, 2.0 ** j))
                assert [x.passed for x in rep.checks] == want, j

    @pytest.mark.parametrize("splits", [
        [0.3, 0.4, 0.5, 0.6, 0.71],     # not mirror-symmetric
        [0.3, 0.4, 0.6, 0.7],           # no s = 1/2
    ])
    def test_grid_must_be_mirror_symmetric_about_half(self, splits):
        s = np.asarray(splits)
        lam = 3.0 + (s - 0.5) ** 2
        curve = shapeopt.ScanCurve(
            measure=G1, total_mass=0.5, splits=s, lambdas=lam,
            derivative_analytic=2.0 * (s - 0.5),
            derivative_spectral=2.0 * (s - 0.5), solutions=[],
            window=(s[0], s[-1]), all_single_signed=True)
        with pytest.raises(DomainError):
            shapeopt.certify_minimum(curve)

    def test_detects_injected_minimum_shift(self):
        curve = shapeopt.scan(G1, 0.5, points=11)
        curve.lambdas[0] = curve.lambdas.min() - 1.0
        rep = shapeopt.certify_minimum(curve)
        assert not rep.passed
        names = {c.name for c in rep.failures()}
        assert "grid_minimum_at_half" in names

    def test_mirror_gap_is_exactly_zero(self, power_scans, suite_scans):
        # the mirror of a split solves the same two components: lambda and
        # the Hadamard derivative repeat to the bit
        scans = [*power_scans.values(), *suite_scans]
        assert len(scans) == 76 + 15
        for curve in scans:
            lam, d = curve.lambdas, curve.derivative_analytic
            assert np.all(lam == lam[::-1]), curve.total_mass
            assert np.all(d == -d[::-1]), curve.total_mass
            (sym,) = [c for c in shapeopt.certify_minimum(curve).checks
                      if c.name == "curve_symmetry"]
            assert sym.detail.endswith("= 0"), sym.detail

    @pytest.mark.parametrize("measure,total", [(G1, 0.5), (M30, 3.0)])
    def test_one_sided_solve_error_fails_symmetry(self, measure, total,
                                                  monkeypatch):
        # lambda 1e-7 high wherever L > R: the mirror solves still differ
        solve = closedform.solve

        def lopsided(config):
            sol = solve(config)
            if config.left_param > config.right_param:
                sol = dataclasses.replace(
                    sol, eigenvalue=sol.eigenvalue * (1.0 + 1e-7))
            return sol
        monkeypatch.setattr(closedform, "solve", lopsided)
        rep = shapeopt.certify_minimum(shapeopt.scan(measure, total))
        assert "curve_symmetry" in {c.name for c in rep.failures()}

    @pytest.mark.parametrize("points,passed", [(11, False), (21, True)])
    def test_spectral_detail_names_the_resolution(self, points, passed):
        # N^2 |c_N| / h, the last Chebyshev term's derivative, estimates
        # the spectral derivative's error: above the gate where 11 points
        # do not resolve gaussian(1) mass 0.5, far below it at 21
        curve = shapeopt.scan(G1, 0.5, points=points)
        tol = shapeopt.CERT_RTOL * np.max(np.abs(curve.lambdas))
        (chk,) = [c for c in shapeopt.certify_minimum(curve).checks
                  if c.name == "derivative_spectral_agreement"]
        res = shapeopt._spectral_resolution(curve.splits, curve.lambdas)
        assert chk.passed is passed
        assert (res > tol) is not passed
        assert res > 10.0 * tol if points == 11 else res < 1e-2 * tol
        assert f"N^2 |c_N| / h = {res:.3g}" in chk.detail
        assert f"tolerance {tol:.3g}" in chk.detail

    def test_resolution_is_the_last_chebyshev_term(self):
        # lambda = T_N(x) on the grid: c_N = 1 and the estimate is N^2 / h
        s = shapeopt.split_grid(G1, 0.5, 11)
        h = shapeopt._half_width(G1, 0.5)
        x = (s - 0.5) / h
        lam = np.polynomial.chebyshev.chebval(x, [0.0] * 10 + [1.0])
        assert shapeopt._spectral_resolution(s, lam) == pytest.approx(
            100.0 / h, rel=1e-12)
        assert shapeopt._spectral_resolution(s, 1.0 + x * x) == pytest.approx(
            0.0, abs=1e-13)

    def test_detects_asymmetry(self):
        curve = shapeopt.scan(G1, 0.5, points=11)
        curve.lambdas[1] += 1e-4
        rep = shapeopt.certify_minimum(curve)
        assert any(c.name == "curve_symmetry" for c in rep.failures())

    def test_stand_in_centered_parabola_passes(self):
        rep = shapeopt.certify_minimum(parabola_curve(0.0))
        assert rep.passed, [c.detail for c in rep.failures()]

    @pytest.mark.parametrize("shift", [0.1, 0.5, 0.9, 1.5])
    def test_detects_minimum_off_center(self, shift):
        rep = shapeopt.certify_minimum(parabola_curve(shift))
        assert "interpolant_minimum_at_half" in {
            c.name for c in rep.failures()}

    def test_calls_no_solver(self, monkeypatch):
        curve = shapeopt.scan(G1, 0.5)

        def no_solve(*args):
            raise AssertionError("certification ran a pair solve")
        monkeypatch.setattr(shapeopt, "lambda_of_split", no_solve)
        monkeypatch.setattr(closedform, "solve", no_solve)
        rep = shapeopt.certify_minimum(curve)
        assert rep.passed, [c.detail for c in rep.failures()]
        assert [c.name for c in rep.checks] == [
            "grid_minimum_at_half", "curve_symmetry",
            "derivative_sign_pattern", "derivative_spectral_agreement",
            "interpolant_minimum_at_half"]
