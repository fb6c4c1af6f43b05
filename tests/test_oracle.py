import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

import twistspec
from twistspec import (closedform, measures, numerics, oracle, specfun,
                       tridiag, verify)
from twistspec.errors import (DomainError, NumericalError, ResourceError,
                              TwistspecError)
from twistspec.measures import MeasureSpec

PI2 = math.pi ** 2
POLE_GUARD_CASES = [(5, 3.0, 1.481), (3, 0.0, 1.564), (3, 2.0, 0.2929)]


def _near_half_splits() -> list[float]:
    return [float(s) for s in np.linspace(0.45, 0.55, 21) if s != 0.5]


class TestDomain1D:
    def test_cartesian_disjointness_enforced(self):
        with pytest.raises(DomainError):
            oracle.Domain1D(intervals=((0.0, 1.0), (0.5, 2.0)),
                            coordinate="lebesgue")

    def test_radial_balls_may_share_ranges(self):
        m = MeasureSpec.power(3, 0.0)
        dom = oracle.Domain1D(intervals=((0.0, 1.0), (0.0, 0.7)),
                              coordinate="radial_power", measure=m)
        assert len(dom.intervals) == 2

    def test_radial_needs_power_measure(self):
        with pytest.raises(DomainError):
            oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="radial_power")

    def test_unknown_coordinate(self):
        with pytest.raises(DomainError):
            oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="polar")


class TestPairDomain:
    def test_gaussian_family(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.6, 0.4)
        dom = oracle.pair_domain(cfg)
        want = oracle.gaussian_pair_domain(cfg)
        assert dom == want

    def test_power_family(self):
        cfg = measures.config_from_split(MeasureSpec.power(2, 1.0), 1.2, 0.4)
        assert oracle.pair_domain(cfg) == oracle.power_pair_domain(cfg)


class TestTruncation:
    def test_cut_points(self):
        for L, R, want in ((0.0, 2.0, ((-8.0, 0.0), (2.0, 8.0))),
                           (4.0, 0.5, ((-10.0, -4.0), (0.5, 8.0)))):
            dom = oracle.gaussian_pair_domain(
                measures.PairConfig(MeasureSpec.gaussian(1), L, R))
            assert dom.intervals == want
            (left_cut, _), (_, right_cut) = dom.intervals
            assert measures.k_gauss(-left_cut) < 1e-14
            assert measures.k_gauss(right_cut) < 1e-14

    def test_eigenvalue_insensitive_to_cut(self):
        d8 = oracle.Domain1D(intervals=((1e-4, 8.0),),
                             coordinate="cartesian_gauss")
        d10 = oracle.Domain1D(intervals=((1e-4, 10.0),),
                              coordinate="cartesian_gauss")
        l8 = oracle.dirichlet_eigs(d8, h=0.005, count=1).eigenvalues[0]
        l10 = oracle.dirichlet_eigs(d10, h=0.005, count=1).eigenvalues[0]
        assert abs(l8 - l10) <= 1e-8


class TestDirichlet:
    def test_unit_interval(self):
        dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
        r = oracle.dirichlet_eigs(dom, h=1e-3, count=2)
        assert r.eigenvalues[0] == pytest.approx(PI2, rel=1e-3)
        assert r.eigenvalues[1] == pytest.approx(4 * PI2, rel=1e-3)

    def test_twin_intervals_double_eigenvalue(self):
        dom = oracle.Domain1D(intervals=((0.0, 1.0), (2.0, 3.0)),
                              coordinate="lebesgue")
        r = oracle.dirichlet_eigs(dom, count=2)
        assert r.eigenvalues[0] == pytest.approx(PI2, rel=1e-3)
        assert r.eigenvalues[1] == pytest.approx(r.eigenvalues[0], rel=1e-9)

    def test_gaussian_halfline(self):
        dom = oracle.Domain1D(intervals=((1e-4, 8.0),),
                              coordinate="cartesian_gauss")
        r = oracle.dirichlet_eigs(dom, count=2)
        assert r.eigenvalues[0] == pytest.approx(2.0, rel=2e-3)
        assert r.eigenvalues[1] == pytest.approx(6.0, rel=2e-3)

    @pytest.mark.parametrize("n,k", [(3, 0.0), (2, 1.0)])
    def test_radial_unit_halfball(self, n, k):
        m = MeasureSpec.power(n, k)
        dom = oracle.Domain1D(intervals=((0.0, 1.0),),
                              coordinate="radial_power", measure=m)
        r = oracle.dirichlet_eigs(dom, count=1)
        assert r.eigenvalues[0] == pytest.approx(PI2, rel=1e-3)

    def test_truncated_symmetric_gaussian_pair(self):
        from twistspec import closedform
        cfg = measures.PairConfig(MeasureSpec.gaussian(1), 0.5, 0.5)
        dom = oracle.gaussian_pair_domain(cfg)
        r = oracle.dirichlet_eigs(dom, count=2)
        want = closedform.dirichlet_halfspace_gauss(0.5)
        assert r.eigenvalues[0] == pytest.approx(want, rel=1e-3)
        assert r.eigenvalues[1] == pytest.approx(want, rel=1e-3)


class TestAssembleSurface:
    def test_dense_contract(self):
        dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
        r = oracle.dirichlet_eigs(dom, h=1e-3, count=1)
        assert r.eigenvalues[0] == pytest.approx(PI2, rel=1e-3)
        # the node weights are the discrete integral; the eliminated
        # Dirichlet cells account for the O(h) mass deficit
        assert np.sum(r.eigenvectors[0].node_weights) == pytest.approx(
            1.0, abs=2e-3)

    def test_grid_cap(self):
        # one cap, by memory, on explicit and default grids alike
        cap = r"exceeds the 1048576-node cap"
        assert oracle.MAX_TOTAL_NODES == 2 ** 20
        dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
        with pytest.raises(ResourceError, match=cap):
            oracle.twisted_eig(dom, h=1.0 / (oracle.MAX_TOTAL_NODES + 1))
        many = oracle.Domain1D(
            intervals=tuple((2.0 * i, 2.0 * i + 1.0) for i in range(954)),
            coordinate="lebesgue")
        with pytest.raises(ResourceError, match=cap):
            oracle.dirichlet_eigs(many)

    @pytest.mark.parametrize("h,error,match", [
        (math.nan, DomainError, "finite and > 0, got nan"),
        (math.inf, DomainError, "finite and > 0, got inf"),
        (-1e-3, DomainError, "finite and > 0"),
        (0.0, DomainError, "finite and > 0"),
        (1e-320, ResourceError, "grid of inf nodes exceeds the 1048576-node"),
    ])
    @pytest.mark.parametrize("solve", [
        oracle.twisted_eig,
        lambda dom, h: oracle.dirichlet_eigs(dom, h=h),
        lambda dom, h: oracle.constrained_count(dom, 10.0, h=h),
    ], ids=["twisted_eig", "dirichlet_eigs", "constrained_count"])
    def test_spacing_outside_the_grid_raises_typed(self, solve, h, error,
                                                   match):
        dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
        with pytest.raises(error, match=match):
            solve(dom, h)


class TestTwisted:
    def test_unit_interval_second_dirichlet(self):
        dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
        r = oracle.twisted_eig(dom)
        assert r.eigenvalues[0] == pytest.approx(4 * PI2, rel=2e-3)

    def test_constraint_satisfied(self):
        dom = oracle.Domain1D(intervals=((0.0, 1.0), (1.4, 2.9)),
                              coordinate="lebesgue")
        r = oracle.twisted_eig(dom)
        u = r.eigenvectors[0]
        norm = math.sqrt(float(np.dot(u.node_weights, u.values ** 2)))
        assert abs(u.weighted_mean()) <= 1e-10 * norm

    def test_symmetric_gaussian_pair_matches_closedform(self):
        from twistspec import closedform
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.5)
        sol = closedform.twisted_pair_gauss(cfg)
        dom = oracle.gaussian_pair_domain(cfg)
        r = oracle.twisted_eig(dom)
        assert r.eigenvalues[0] == pytest.approx(sol.eigenvalue, rel=1e-3)

    def test_asymmetric_gaussian_pair_matches_closedform(self):
        from twistspec import closedform
        cfg = measures.PairConfig(
            MeasureSpec.gaussian(1),
            measures.k_gauss_inv(0.3), measures.k_gauss_inv(0.2))
        sol = closedform.twisted_pair_gauss(cfg)
        dom = oracle.gaussian_pair_domain(cfg)
        r = oracle.twisted_eig(dom)
        assert r.eigenvalues[0] == pytest.approx(sol.eigenvalue, rel=1e-3)

    def test_mesh_convergence_second_order(self):
        dom = oracle.Domain1D(intervals=((0.0, 1.3), (1.8, 2.9)),
                              coordinate="lebesgue")
        lams = [oracle.twisted_eig(dom, h=h).eigenvalues[0]
                for h in (0.01, 0.005, 0.0025)]
        g1 = abs(lams[1] - lams[0])
        g2 = abs(lams[2] - lams[1])
        assert 0.15 <= g2 / g1 <= 0.45  # ~0.25 for a second-order scheme

    def test_nodal_structure_on_pair(self):
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), 0.5, 0.42)
        dom = oracle.gaussian_pair_domain(cfg)
        r = oracle.twisted_eig(dom)
        u = r.eigenvectors[0]
        signs = []
        for (a, b) in u.pieces:
            piece = u.values[a:b]
            scale = np.max(np.abs(piece))
            assert not (np.any(piece > 1e-6 * scale)
                        and np.any(piece < -1e-6 * scale))
            signs.append(math.copysign(1.0, piece[np.argmax(np.abs(piece))]))
        assert signs[0] * signs[1] < 0

    @pytest.mark.parametrize("dom", [
        oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue"),
        oracle.Domain1D(intervals=((0.0, 1.0), (1.5, 2.5)),
                        coordinate="lebesgue"),
        oracle.Domain1D(intervals=((0.0, 1.0), (0.0, 1.0)),
                        coordinate="radial_power",
                        measure=MeasureSpec.power(2, 1.0)),
        oracle.Domain1D(intervals=((0.0, 0.8), (0.0, 0.8)),
                        coordinate="radial_power",
                        measure=MeasureSpec.power(3, 0.0)),
    ], ids=["unit", "twin", "power21", "power30"])
    def test_equality_case_is_second_dirichlet(self, dom):
        # the mean-zero eigenvector lives in the lambda_2 eigenspace, so the
        # twisted value is lambda_2 itself, not a root found next to it
        lam2 = oracle.dirichlet_eigs(dom, count=2).eigenvalues[1]
        r = oracle.twisted_eig(dom)
        assert r.eigenvalues[0] == pytest.approx(lam2, rel=1e-13)
        u = r.eigenvectors[0]
        norm = math.sqrt(float(np.dot(u.node_weights, u.values ** 2)))
        assert abs(u.weighted_mean()) <= 1e-10 * norm

    @pytest.mark.parametrize("n,k,total", POLE_GUARD_CASES)
    def test_pole_guard_near_symmetric_split(self, n, k, total):
        # near s = 1/2 the two Dirichlet poles nearly coincide; a bracket
        # endpoint placed on the wrong side of a pole sends the root finder
        # to the pole, or to lambda_2
        m = MeasureSpec.power(n, k)
        splits = _near_half_splits()
        assert len(splits) == 20
        for s in splits:
            cfg = measures.config_from_split(m, total, s)
            dom = oracle.power_pair_domain(cfg)
            lam = oracle.twisted_eig(dom).eigenvalues[0]
            lam1, lam2 = oracle.dirichlet_eigs(dom, count=2).eigenvalues
            want = closedform.twisted_pair_power(cfg).eigenvalue
            assert abs(lam - want) <= 1e-5 * want
            assert lam1 < lam <= lam2


class TestFloatScale:
    """A radial pair (L, 2L) far from unit scale: B's entries run like
    L^-2, its pivot floor like max|e|^2, and the grid's weights like
    r^(n+k-1).  Each pair solves within 1e-10 of lambda(1, 2) / L^2, or
    raises one NumericalError naming its radii, with no RuntimeWarning
    (Tier-1 runs with warnings as errors)."""

    @pytest.mark.parametrize("L", [1e-77, 1e-80, 1e60, 1e100])
    def test_solves_or_names_the_radii(self, L):
        m = MeasureSpec.power(3, 0.0)
        unit = oracle.twisted_eig(oracle.power_pair_domain(
            measures.PairConfig(m, 1.0, 2.0))).eigenvalues[0]
        domain = oracle.power_pair_domain(measures.PairConfig(m, L, 2 * L))
        try:
            lam = oracle.twisted_eig(domain).eigenvalues[0]
        except NumericalError as exc:
            assert repr(2 * L) in str(exc) and L not in (1e-77, 1e60)
            return
        assert abs(lam * L * L / unit - 1.0) <= 1e-10


class TestEveryRadiusTyped:
    """Power pairs (L, 1.3 L), L = 10^e for e = -100, -90, ..., 100: every
    solve returns, within 1e-10 of lambda(1, 1.3) / L^2, or raises a
    TwistspecError; an untyped error (an OverflowError from a scale such as
    L^(n+k)) fails.  The exponents that solve cover SOLVED: beyond it the
    node weights' scale L^(n+k), or the secular step's x.x, leaves the
    floats."""

    SOLVED = {(3, 0.0): (-100, 70), (2, 1.0): (-100, 70), (5, 3.0): (-30, 30),
              (40, 19.0): (0, 0)}

    @pytest.mark.parametrize("n,k", list(SOLVED),
                             ids=[f"power{n}{k:g}" for n, k in SOLVED])
    def test_solves_or_raises_typed(self, n, k):
        m = MeasureSpec.power(n, k)
        unit = oracle.twisted_eig(oracle.power_pair_domain(
            measures.PairConfig(m, 1.0, 1.3))).eigenvalues[0]
        solved = set()
        for e in range(-100, 101, 10):
            L = 10.0 ** e
            dom = oracle.power_pair_domain(measures.PairConfig(m, L, 1.3 * L))
            try:
                lam = oracle.twisted_eig(dom).eigenvalues[0]
            except TwistspecError:
                continue
            assert abs(lam * L * L / unit - 1.0) <= 1e-10, L
            solved.add(e)
        lo, hi = self.SOLVED[n, k]
        assert set(range(lo, hi + 1, 10)) <= solved


def _power_pairs(count: int) -> list[measures.PairConfig]:
    """Power pairs drawn as the benchmark draws them: the types (3,0),
    (3,2) and (5,3) in turn, total mass log-uniform in [0.1, 100], split
    uniform in [0.3, 0.7]."""
    rng = np.random.default_rng(1)
    types = [MeasureSpec.power(3, 0.0), MeasureSpec.power(3, 2.0),
             MeasureSpec.power(5, 3.0)]
    return [measures.config_from_split(
        types[i % 3], 10.0 ** rng.uniform(-1.0, 2.0), rng.uniform(0.3, 0.7))
        for i in range(count)]


class TestPieceRecords:
    """A half-ball is its piece record, solved once at unit radius, scaled
    by R^-2: one record serves every half-ball of one n + k on one grid,
    and what a record holds moves no bit of any solve."""

    @staticmethod
    def _solve(cfg):
        dom = oracle.power_pair_domain(cfg)
        tw, dd = oracle.twisted_eig(dom), oracle.dirichlet_eigs(dom, count=2)
        return (tw.eigenvalues.tolist(), dd.eigenvalues.tolist(),
                [gf.values.tolist() for gf in tw.eigenvectors
                 + dd.eigenvectors])

    @pytest.mark.parametrize("L,R", [(0.7, 1.3), (1.0, 1.0), (2.5, 0.4)])
    def test_one_record_per_degree_sum(self, L, R):
        twistspec.clear_caches()
        values = []
        for n, k in [(3, 0.0), (2, 1.0), (1, 2.0)]:
            dom = oracle.power_pair_domain(
                measures.PairConfig(MeasureSpec.power(n, k), L, R))
            values.append(oracle.twisted_eig(dom).eigenvalues.tolist()
                          + oracle.dirichlet_eigs(dom, count=2)
                          .eigenvalues.tolist())
        assert values[0] == values[1] == values[2]
        assert oracle._record.cache_info().misses == 1

    def test_warm_records_give_the_cold_bits(self):
        pairs = _power_pairs(20)
        twistspec.clear_caches()
        warm = [self._solve(cfg) for cfg in pairs]
        cold = []
        for cfg in pairs:
            twistspec.clear_caches()
            cold.append(self._solve(cfg))
        assert warm == cold

    def test_a_seen_degree_finds_no_mode(self, monkeypatch):
        # tridiag.next_mode is the per-piece eigensolve
        twistspec.clear_caches()
        self._solve(measures.PairConfig(MeasureSpec.power(3, 0.0), 0.8, 1.1))
        calls, real = [], tridiag.next_mode
        monkeypatch.setattr(tridiag, "next_mode",
                            lambda block: calls.append(block) or real(block))
        self._solve(measures.PairConfig(MeasureSpec.power(2, 1.0), 1.3, 0.9))
        assert calls == []

    @pytest.mark.parametrize("cfg", [
        measures.PairConfig(MeasureSpec.power(3, 0.0), 0.8, 1.1),
        measures.PairConfig(MeasureSpec.power(3, 2.0), 1.0, 0.6),
        measures.PairConfig(MeasureSpec.power(5, 3.0), 0.5, 0.9)],
        ids=["power30", "power32", "power53"])
    @pytest.mark.parametrize("t,rel", [(2.0, 1e-13), (0.5, 1e-13),
                                       (2.0 ** 20, 1e-13),
                                       (2.0 ** -20, 1e-13), (1.7, 1e-10)])
    def test_dilation_scales_every_eigenvalue(self, cfg, t, rel):
        # a pair dilated by t has every eigenvalue times t^-2: exactly
        # the unit record's at a power of two, and within the root's
        # rounding floor otherwise
        base = self._solve(cfg)
        scaled = self._solve(dataclasses.replace(
            cfg, left_param=t * cfg.left_param,
            right_param=t * cfg.right_param))
        want = np.array(base[0] + base[1]) / (t * t)
        got = np.array(scaled[0] + scaled[1])
        assert np.all(np.abs(got / want - 1.0) <= rel)

    def test_second_mode_of_the_larger_piece(self):
        # next to R = 0.4, whose lowest value is pi^2 / 0.16, the unit
        # half-ball's second mode (2 pi)^2 is lambda_2: the record gains
        # it, the root is the first constrained eigenvalue, and a pair of
        # the same degree solved next reads the bits it reads cold
        twistspec.clear_caches()
        dom = oracle.power_pair_domain(
            measures.PairConfig(MeasureSpec.power(3, 0.0), 1.0, 0.4))
        dd = oracle.dirichlet_eigs(dom, count=2)
        assert np.all(np.abs(dd.eigenvalues / PI2 - [1.0, 4.0]) <= 1e-4)
        (a, b), _ = dd.eigenvectors[1].pieces
        assert np.all(dd.eigenvectors[1].values[b:] == 0.0)
        lam = oracle.twisted_eig(dom).eigenvalues[0]
        counts = [oracle.constrained_count(dom, lam * (1.0 + delta))
                  for delta in (-1e-8, 1e-8)]
        assert counts[0] == 0 and counts[1] >= 1
        record = oracle._piece(dom, 0.0, 1.0, 1100)[0]
        assert len(record.block.values) == 2
        after = measures.PairConfig(MeasureSpec.power(2, 1.0), 0.9, 1.1)
        warm = self._solve(after)
        twistspec.clear_caches()
        assert self._solve(after) == warm
        # cold, the record holds the first mode alone
        assert len(oracle._piece(dom, 0.0, 1.0, 1100)[0].block.values) == 1


class TestComponentScale:
    """Each block of B has its own pole guard tau = 64 eps (max|d_b| + 2
    max|e_b|), so a half-ball of radius R next to a unit one leaves the
    unit half-ball's poles guarded on its own scale: the root agrees with
    the closed form, the inertia count places it first, and the two
    Dirichlet values are the unit half-ball's."""

    @pytest.mark.parametrize("k", [0.0, 2.0], ids=["power30", "power32"])
    @pytest.mark.parametrize("R", [1e-12, 1e-8, 1e-6, 1e-5, 1e-4, 1.5e-4,
                                   1e-3])
    def test_small_component_still_resolved(self, k, R):
        cfg = measures.PairConfig(MeasureSpec.power(3, k), 1.0, R)
        dom = oracle.power_pair_domain(cfg)
        lam = oracle.twisted_eig(dom).eigenvalues[0]
        # lopsided pairs are two-signed: the 1D oracle sees the pair root
        want = closedform.twisted_pair_power(cfg).pair_root
        assert abs(lam - want) <= 1e-5 * want
        assert [oracle.constrained_count(dom, lam * (1.0 + delta))
                for delta in (-1e-8, 1e-8)] == [0, 1]

    @staticmethod
    def _assert_unit_dirichlet(k, R):
        # the unit half-ball's (j_b1)^2 and (j_b2)^2, b = (n+k)/2 - 1:
        # pi^2 and (2 pi)^2 for power (3,0)
        m = MeasureSpec.power(3, k)
        got = oracle.dirichlet_eigs(oracle.power_pair_domain(
            measures.PairConfig(m, 1.0, R)), count=2).eigenvalues
        want = np.asarray(specfun.bessel_zeros(m.profile_order, 2)) ** 2
        assert np.all(np.abs(got - want) <= 1e-5 * want), k

    @pytest.mark.parametrize("R", [1e-4, 1.5e-4, 1e-3])
    def test_small_component_dirichlet_resolved(self, R):
        for k in (0.0, 2.0):
            self._assert_unit_dirichlet(k, R)

    @pytest.mark.parametrize("k", [0.0, 2.0], ids=["power30", "power32"])
    @pytest.mark.parametrize("R", [1e-12, 1e-8, 1e-6, 1e-5])
    def test_tiny_component_dirichlet_resolved(self, k, R):
        # radii at which one tau for the whole union would pass lambda_1
        self._assert_unit_dirichlet(k, R)

    @pytest.mark.parametrize("right", [0.8, 0.5],
                             ids=["symmetric", "asymmetric"])
    @pytest.mark.parametrize("eps", [10.0 ** -j for j in range(3, 10)])
    def test_gaussian_union_with_a_piece_of_mass_eps(self, eps, right):
        # (-8, -0.8), a piece of Gaussian mass eps at 0.1, (right, 8): as
        # eps -> 0 the twisted value tends to that of the two outer pieces
        # alone (the symmetric union's is its double pole).  One tau for
        # the union raised from eps = 1e-5 on, and at eps = 1e-4 gave the
        # asymmetric union lambda_2 = 4.3248 for its root 3.9869
        b = float(measures.k_gauss_inv(measures.k_gauss(0.1) - eps))
        outer = ((-8.0, -0.8), (right, 8.0))
        dom = oracle.Domain1D(intervals=(outer[0], (0.1, b), outer[1]),
                              coordinate="cartesian_gauss")
        want = oracle.twisted_eig(oracle.Domain1D(
            intervals=outer, coordinate="cartesian_gauss")).eigenvalues[0]
        lam = oracle.twisted_eig(dom).eigenvalues[0]
        assert abs(lam / want - 1.0) <= 1e-9
        assert [oracle.constrained_count(dom, lam * (1.0 + delta))
                for delta in (-1e-8, 1e-8)] == [0, 1]


class TestSharedSpectrum:
    """dirichlet_eigs and twisted_eig read one cached eigensolve."""

    DOMAINS = [
        oracle.Domain1D(intervals=((0.0, 1.0), (1.4, 2.9)),
                        coordinate="lebesgue"),
        oracle.gaussian_pair_domain(
            measures.PairConfig(MeasureSpec.gaussian(1), 0.3, 0.9)),
        oracle.power_pair_domain(
            measures.PairConfig(MeasureSpec.power(3, 2.0), 0.8, 1.1)),
    ]
    IDS = ["lebesgue", "gauss", "power"]

    @staticmethod
    def _values(tw, dd):
        return (tw.eigenvalues.tolist(), tw.eigenvectors[0].values.tolist(),
                dd.eigenvalues.tolist())

    @pytest.mark.parametrize("twisted_first", [True, False])
    @pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
    def test_shared_solve_bit_identical_to_fresh(self, dom, twisted_first):
        twistspec.clear_caches()
        if twisted_first:
            tw = oracle.twisted_eig(dom)
            dd = oracle.dirichlet_eigs(dom, count=2)
        else:
            dd = oracle.dirichlet_eigs(dom, count=2)
            tw = oracle.twisted_eig(dom)
        info = oracle._spectrum.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        twistspec.clear_caches()
        fresh_tw = oracle.twisted_eig(dom)
        twistspec.clear_caches()
        fresh_dd = oracle.dirichlet_eigs(dom, count=2)
        assert self._values(tw, dd) == self._values(fresh_tw, fresh_dd)

    def test_results_are_caller_owned(self):
        dom = self.DOMAINS[1]
        first = oracle.dirichlet_eigs(dom, count=2)
        want = first.eigenvalues.tolist()
        first.eigenvalues[:] = -1.0
        first.eigenvectors[0].values[:] = 0.0
        first.eigenvectors[0].node_weights[:] = 0.0
        again = oracle.dirichlet_eigs(dom, count=2)
        assert again.eigenvalues.tolist() == want
        assert np.all(again.eigenvectors[0].node_weights > 0.0)
        tw = oracle.twisted_eig(dom)
        assert want[0] < tw.eigenvalues[0] <= want[1]
        asm, *arrays = oracle._spectrum(dom, None, 2)
        assert not any(a.flags.writeable for a in [
            asm.d, asm.e, asm.weights, asm.mass, asm.nodes, *arrays])
        # and so are the piece records that solves share
        for a, b in dom.intervals:
            rec = oracle._piece(dom, a, b, 1100)[0]
            assert not any(x.flags.writeable for x in (
                rec.weights, rec.block.d, rec.block.e, *rec.block.vectors))

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
    def test_other_counts_match_direct_eigensolve(self, dom, count):
        # within tau of LAPACK's bisection, and the j-th value has j - 1
        # eigenvalues of B below it and j up to it, to tau
        asm = oracle._assemble(dom)
        d, e = asm.d, asm.e
        want = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1))[0]
        got = oracle.dirichlet_eigs(dom, count=count).eigenvalues
        tau = oracle._spectrum(dom, None, count)[3]
        assert np.all(np.abs(got - want) <= tau)
        floor = tridiag.pivmin(e)
        counts = [(tridiag.count_below(d, e, w - t, floor),
                   tridiag.count_below(d, e, w + t, floor))
                  for w, t in zip(got, tau)]
        assert counts == [(j, j + 1) for j in range(count)]


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _union_domains() -> list[tuple[str, oracle.Domain1D]]:
    """Unions of one to four pieces: the single interval of
    verify.suite_bracket, a twin pair with an exactly double eigenvalue,
    a half-ball pair of equal radii, random pairs of the three families
    and Gaussian unions of three and four intervals."""
    rng = np.random.default_rng(41)
    out = [
        ("unit", oracle.Domain1D(intervals=((0.0, 1.0),),
                                 coordinate="lebesgue")),
        ("twin", oracle.Domain1D(intervals=((0.0, 1.0), (1.5, 2.5)),
                                 coordinate="lebesgue")),
        ("halfballs", oracle.Domain1D(
            intervals=((0.0, 0.8), (0.0, 0.8)), coordinate="radial_power",
            measure=MeasureSpec.power(3, 0.0))),
    ]
    for family in ("lebesgue", "cartesian_gauss", "radial_power"):
        out += [(family, verify._random_two_interval_domain(rng, family))
                for _ in range(3)]
    for count in (3, 4, 3, 4):
        lengths = rng.uniform(0.3, 2.0, count)
        gaps = rng.uniform(0.1, 1.0, count)
        starts = -3.0 + np.cumsum(gaps) + np.concatenate(
            ([0.0], np.cumsum(lengths[:-1])))
        out.append(("gauss_union", oracle.Domain1D(
            intervals=tuple(zip(starts, starts + lengths)),
            coordinate="cartesian_gauss")))
    return out


UNIONS = _union_domains()


class TestPerPieceEigenpairs:
    """The merged per-piece eigenpairs against LAPACK's bisection."""

    @pytest.mark.parametrize("count", [1, 2, 3])
    @pytest.mark.parametrize("label,dom", UNIONS,
                             ids=[label for label, _ in UNIONS])
    def test_pairs_match_tridiagonal_eigensolve(self, label, dom, count):
        h = max(b - a for a, b in dom.intervals) / 400.0
        asm, w, phi, tau = oracle._spectrum(dom, h, count)
        d, e = asm.d, asm.e
        want = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1))[0]
        assert w.shape == (count,) and phi.shape == (len(d), count)
        assert np.all(np.abs(w - want) <= tau)
        b = _dense(d, e)
        residual = np.linalg.norm(b @ phi - phi * w, axis=0)
        assert np.all(residual <= tau)
        assert np.max(np.abs(phi.T @ phi - np.eye(count))) <= 1e-10
        # each vector lives on one piece
        for col in phi.T:
            assert sum(np.any(col[a:b] != 0.0) for a, b in asm.pieces) == 1

    @pytest.mark.parametrize("label", ["twin", "halfballs"])
    def test_equal_pieces_give_an_exact_double(self, label):
        dom = dict(UNIONS)[label]
        w = oracle.dirichlet_eigs(dom, count=3).eigenvalues
        assert w[0] == w[1] < w[2]

    def test_a_piece_gives_its_second_mode_before_another_first(self):
        # next to R = 1e-4, whose lowest value is 1e8 pi^2, both values
        # come from the unit half-ball
        cfg = measures.PairConfig(MeasureSpec.power(3, 0.0), 1.0, 1e-4)
        asm, w, phi, tau = oracle._spectrum(
            oracle.power_pair_domain(cfg), None, 2)
        (a, b), _ = asm.pieces
        assert np.all(phi[b:] == 0.0) and np.all(phi[a:b] != 0.0)
        assert np.all(np.abs(w / PI2 - [1.0, 4.0]) <= 1e-4)
        # both carry the unit half-ball's tau, not the tiny one's
        d, e = asm.d, asm.e
        assert tau[0] == tau[1] == 64.0 * np.finfo(float).eps * (
            np.max(np.abs(d[a:b])) + 2.0 * np.max(np.abs(e[a:b - 1])))
        assert tau[0] < 1e-7 * w[0]


class TestConstrainedCount:
    """N(lambda), the constrained eigenvalues below lambda, by inertia."""

    @pytest.mark.parametrize("measure,total,s", [
        (MeasureSpec.gaussian(1), 0.5, 0.4),
        (MeasureSpec.gaussian(1), 0.7, 0.37),
        (MeasureSpec.power(3, 0.0),
         2.0 * measures.halfball_mass(MeasureSpec.power(3, 0.0), 1.0), 0.33),
        (MeasureSpec.power(3, 2.0), 5.0, 0.37)])
    def test_twisted_root_is_the_first(self, measure, total, s):
        dom = oracle.pair_domain(measures.config_from_split(measure, total, s))
        lam = oracle.twisted_eig(dom).eigenvalues[0]
        counts = [oracle.constrained_count(dom, lam * (1.0 + delta))
                  for delta in (-1e-8, 1e-8)]
        assert counts == [0, 1]

    def test_matches_dense_projected_operator(self):
        # on small grids, against the spectrum of P B P on v-perp (its
        # null vector v removed), at midpoints between its eigenvalues
        for label, dom in _small_domains()[::4]:
            h = sum(b - a for a, b in dom.intervals) / 120.0
            asm = oracle._assemble(dom, h)
            d, e = asm.d, asm.e
            v = np.sqrt(asm.mass)
            v /= np.linalg.norm(v)
            p = np.eye(len(d)) - np.outer(v, v)
            w = np.linalg.eigvalsh(p @ _dense(d, e) @ p)[1:]
            for j in range(4):
                mid = 0.5 * (w[j - 1] + w[j]) if j else 0.5 * w[0]
                assert oracle.constrained_count(dom, mid, h) == j, label


def _small_domains() -> list[tuple[str, oracle.Domain1D]]:
    """Unions for the dense check: 2-4-interval gaussian unions, random
    lebesgue, gaussian and radial_power pairs, and the pole-guard splits."""
    rng = np.random.default_rng(2024)
    out = []
    for count in (2, 3, 4) * 4:
        lengths = rng.uniform(0.3, 2.0, count)
        gaps = rng.uniform(0.1, 1.0, count)
        starts = rng.uniform(-4.0, -1.0) + np.cumsum(gaps) + np.concatenate(
            ([0.0], np.cumsum(lengths[:-1])))
        out.append(("gauss_union", oracle.Domain1D(
            intervals=tuple(zip(starts, starts + lengths)),
            coordinate="cartesian_gauss")))
    for family in ("lebesgue", "cartesian_gauss", "radial_power"):
        out += [(family, verify._random_two_interval_domain(rng, family))
                for _ in range(8)]
    for n, k, total in POLE_GUARD_CASES:
        m = MeasureSpec.power(n, k)
        out += [("pole_guard", oracle.power_pair_domain(
            measures.config_from_split(m, total, s)))
            for s in _near_half_splits()]
    return out


def _dense_twisted(dom: oracle.Domain1D, h: float) -> float:
    """The twisted value from the dense projected operator P B P with
    P = I - v v^T: v is its null vector, and the rest of its spectrum is
    the spectrum of B on the mean-zero subspace."""
    asm = oracle._assemble(dom, h)
    d, e = asm.d, asm.e
    v = np.sqrt(asm.mass)
    v /= np.linalg.norm(v)
    p = np.eye(len(d)) - np.outer(v, v)
    return float(np.linalg.eigvalsh(p @ _dense(d, e) @ p)[1])


class TestSecularSolve:
    """The two-pole secular iteration against an independent dense solve,
    its cost in tridiagonal solves, and its failure modes."""

    PAIR = oracle.gaussian_pair_domain(measures.config_from_split(
        MeasureSpec.gaussian(1), 0.55, 0.42))

    def test_matches_dense_projected_operator(self):
        doms = _small_domains()
        assert len(doms) >= 40
        worst = {}
        for label, dom in doms:
            h = sum(b - a for a, b in dom.intervals) / 290.0
            r = oracle.twisted_eig(dom, h=h)
            assert r.grid_size <= 300
            want = _dense_twisted(dom, h)
            rel = abs(r.eigenvalues[0] - want) / want
            worst[label] = max(worst.get(label, 0.0), rel)
        assert max(worst.values()) <= 1e-10, worst

    def test_solves_per_root(self, monkeypatch):
        counts = []
        real = scipy.linalg.lapack.dgtsv

        def counting(*args):
            counts[-1] += 1
            return real(*args)

        # twisted_eig imports dgtsv from scipy.linalg.lapack on each call;
        # the eigensolve's own Rayleigh quotient steps, which call it too,
        # run before the count starts
        for measure, total, s in _pair_cases():
            dom = oracle.pair_domain(
                measures.config_from_split(measure, total, s))
            oracle._spectrum(dom, None, 2)
            counts.append(0)
            with monkeypatch.context() as patch:
                patch.setattr(scipy.linalg.lapack, "dgtsv", counting)
                oracle.twisted_eig(dom)
        assert len(counts) == 20
        assert np.median(counts) <= 8, counts

    def test_bisection_fallback_alone_finds_the_root(self, monkeypatch):
        # no sampled domain sends the model's root out of its bracket, so
        # force every step of the shared secular driver to bisect
        want = oracle.twisted_eig(self.PAIR).eigenvalues[0]
        monkeypatch.setattr(numerics, "_model_root", lambda *args: None)
        got = oracle.twisted_eig(self.PAIR).eigenvalues[0]
        assert abs(got - want) <= 1e-10 * want

    def test_nonfinite_secular_value_raises(self, monkeypatch):
        real = scipy.linalg.lapack.dgtsv
        calls = [0]

        def poisoned(*args):
            calls[0] += 1
            *rest, x, info = real(*args)
            if calls[0] > 3:
                x[:] = np.nan
            return (*rest, x, info)

        # the eigensolve, whose Rayleigh quotient steps call dgtsv too, runs
        # before the patch
        oracle._spectrum(self.PAIR, None, 2)
        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", poisoned)
        with pytest.raises(NumericalError, match=r"secular function is nan"
                           r".*lambda_1 = .*lambda_2 = .*last bracket \["):
            oracle.twisted_eig(self.PAIR)

    def test_root_inside_the_guard_band_answers_lambda_2(self):
        # an interval covering most of the line: phi_2 is nearly odd, so
        # v.phi_2 is small and the root lies within tau_2 below lambda_2
        # (f <= 0 at the bracket top); lambda_2 answers, within 1e-8 of
        # eigvalsh of B compressed to v-perp on the default grid
        dom = oracle.Domain1D(
            intervals=((-11.494191493346614, 4.268969005615425),),
            coordinate="cartesian_gauss")
        _, w, _, _ = oracle._spectrum(dom, None, 2)
        lam = oracle.twisted_eig(dom).eigenvalues[0]
        assert lam == float(w[1])
        assert abs(lam - 2.000001947156572) <= 1e-8 * lam
        counts = [oracle.constrained_count(dom, lam * (1.0 + delta))
                  for delta in (-1e-8, 1e-8)]
        assert counts[0] == 0 and counts[1] >= 1

    def test_iteration_cap_raises(self, monkeypatch):
        monkeypatch.setattr(numerics, "SECULAR_MAX_ITER", 2)
        with pytest.raises(NumericalError, match=r"no secular root after 2 "
                           r"evaluations.*lambda_1 = .*last bracket \["):
            oracle.twisted_eig(self.PAIR)


def _pair_cases():
    g1 = MeasureSpec.gaussian(1)
    return ([(g1, total, s) for total, s in verify._pair_cases_gauss()]
            + verify._pair_cases_power())


@pytest.mark.parametrize("measure,total,s", _pair_cases())
def test_richardson_agreement(measure, total, s):
    """Richardson extrapolation of the second-order oracle over 1000 and
    2000 cells on the longest interval matches the closed form far below
    the 1e-3 agreement gate."""
    _, sol, dom = verify._solve_pair(measure, total, s)
    extrapolated = verify._richardson(dom)
    assert abs(extrapolated - sol.eigenvalue) <= 1e-7 * sol.eigenvalue


def test_richardson_on_a_three_piece_union():
    """Richardson at 1000/2000 cells on the longest piece of a gaussian
    union (5474 nodes at 2000) matches the 4000/8000 value within 1e-9."""
    dom = oracle.Domain1D(intervals=((-4.0, -2.5), (-1.0, 0.8), (2.0, 3.9)),
                          coordinate="cartesian_gauss")
    coarse = verify._richardson(dom)
    lam_h, lam_h2 = (oracle.twisted_eig(dom, h=1.9 / cells).eigenvalues[0]
                     for cells in (4000, 8000))
    fine = (4.0 * lam_h2 - lam_h) / 3.0
    assert abs(coarse - fine) <= 1e-9 * fine


def test_verify_richardson_row_fails_under_fault(monkeypatch):
    """A closed form 1e-7 off is invisible to the 1e-3 agreement rows and
    caught by the Richardson row."""
    solve = closedform.solve

    def solve_off(cfg):
        sol = solve(cfg)
        return dataclasses.replace(sol, pair_root=sol.pair_root * (1 + 1e-7))

    monkeypatch.setattr(closedform, "solve", solve_off)
    rows = {r.name: r.passed for r in verify.run_suites(["oracle"])}
    assert rows["richardson_agreement"] is False
    assert rows["gaussian_pairs_agreement"] is True
    assert rows["power_pairs_agreement"] is True
