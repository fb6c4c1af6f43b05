import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from twistspec import closedform, measures, numerics, oracle, verify
from twistspec.errors import (AccuracyError, DomainError, NumericalError,
                             ResourceError)
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
        dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
        with pytest.raises(ResourceError):
            oracle.twisted_eig(dom, h=1e-5)


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


class TestComponentScale:
    """The pole guard tau = 64 eps (max|d| + 2 max|e|) is set by the finest
    cells of the whole union.  Next to a unit half-ball, a half-ball of
    radius R <= 1e-4 puts the root inside the guard band below lambda_2
    (R = 1e-4) or tau past lambda_1 (R <= 1e-5; at 1e-6 the eigensolve's own
    lambda_1 is 157.9, not 9.87): no root is resolved."""

    @pytest.mark.parametrize("k", [0.0, 2.0], ids=["power30", "power32"])
    @pytest.mark.parametrize("R", [1e-4, 1e-5, 1e-6])
    def test_tiny_component_raises(self, k, R):
        cfg = measures.PairConfig(MeasureSpec.power(3, k), 1.0, R)
        with pytest.raises(AccuracyError, match=r"tau = \S+ comes from "
                           r"max\|d\| = \S+, the finest cells"):
            oracle.twisted_eig(oracle.power_pair_domain(cfg))

    @pytest.mark.parametrize("k", [0.0, 2.0], ids=["power30", "power32"])
    @pytest.mark.parametrize("R", [1.5e-4, 1e-3])
    def test_small_component_still_resolved(self, k, R):
        # tau is 3.4 (power30) at R = 1.5e-4, a third of lambda_1, and the
        # root still lies well inside the guarded bracket
        cfg = measures.PairConfig(MeasureSpec.power(3, k), 1.0, R)
        lam = oracle.twisted_eig(oracle.power_pair_domain(cfg)).eigenvalues[0]
        want = closedform.twisted_pair_power(cfg).eigenvalue
        assert abs(lam - want) <= 1e-5 * want


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
        oracle._spectrum.cache_clear()
        if twisted_first:
            tw = oracle.twisted_eig(dom)
            dd = oracle.dirichlet_eigs(dom, count=2)
        else:
            dd = oracle.dirichlet_eigs(dom, count=2)
            tw = oracle.twisted_eig(dom)
        info = oracle._spectrum.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        oracle._spectrum.cache_clear()
        fresh_tw = oracle.twisted_eig(dom)
        oracle._spectrum.cache_clear()
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
        assert not any(a.flags.writeable for a in
                       [asm.main, asm.off, asm.mass, asm.nodes, *arrays])

    @pytest.mark.parametrize("count", [1, 3])
    @pytest.mark.parametrize("dom", DOMAINS, ids=IDS)
    def test_other_counts_match_direct_eigensolve(self, dom, count):
        d, e, _ = oracle._symmetrized(oracle._assemble(dom))
        want = scipy.linalg.eigh_tridiagonal(
            d, e, select="i", select_range=(0, count - 1))[0]
        got = oracle.dirichlet_eigs(dom, count=count).eigenvalues
        assert got.tolist() == want.tolist()


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
    asm, d, e, *_ = oracle._spectrum(dom, h, 2)
    v = np.sqrt(asm.mass)
    v /= np.linalg.norm(v)
    p = np.eye(len(d)) - np.outer(v, v)
    b = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
    return float(np.linalg.eigvalsh(p @ b @ p)[1])


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

        # twisted_eig imports dgtsv from scipy.linalg.lapack on each call
        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", counting)
        for measure, total, s in _pair_cases():
            dom = oracle.pair_domain(
                measures.config_from_split(measure, total, s))
            counts.append(0)
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

        monkeypatch.setattr(scipy.linalg.lapack, "dgtsv", poisoned)
        with pytest.raises(NumericalError, match=r"secular function is nan"
                           r".*lambda_1 = .*lambda_2 = .*last bracket \["):
            oracle.twisted_eig(self.PAIR)

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


def test_verify_richardson_row_fails_under_fault(monkeypatch):
    """A closed form 1e-7 off is invisible to the 1e-3 agreement rows and
    caught by the Richardson row."""
    solve = closedform.solve

    def solve_off(cfg):
        sol = solve(cfg)
        return dataclasses.replace(sol, eigenvalue=sol.eigenvalue * (1 + 1e-7))

    monkeypatch.setattr(closedform, "solve", solve_off)
    rows = {r.name: r.passed for r in verify.run_suites(["oracle"])}
    assert rows["richardson_agreement"] is False
    assert rows["gaussian_pairs_agreement"] is True
    assert rows["power_pairs_agreement"] is True
