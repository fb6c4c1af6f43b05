"""Named invariant suites: special-function identities, bracket chains,
closed-form vs discrete-oracle agreement, rearrangement inequalities,
minimum certification, boundary-gradient sign claims.

Each suite returns a list of CheckResult records; the CLI renders them as a
PASS/FAIL table and the acceptance tests assert on them directly.  Suites
draw their randomness from a seeded generator, so reruns are reproducible
bit for bit.  The tests show that each suite catches a wrong computation:
they patch a library function the suite calls (`specfun.turan_gap`,
`closedform.solve`, `oracle.twisted_eig`, ...) to return corrupted values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import closedform, measures, oracle, rearrange, shapeopt, specfun
from .grids import GridFunction
from .measures import MeasureSpec


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str


def _r(suite: str, name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(suite=suite, name=name, passed=bool(passed), detail=detail)


# ----------------------------------------------------------------------
# specfun identity suites
# ----------------------------------------------------------------------

def suite_hermite(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    ts = np.linspace(-4.0, 4.0, 200)
    worst = 0.0
    for n in range(7):
        mine = specfun.hermite_value(n, ts)
        ref = np.polynomial.hermite.hermval(ts, np.eye(7)[n])
        scale = np.abs(ref) + 1.0
        worst = max(worst, float(np.max(np.abs(mine - ref) / scale)))
    out.append(_r("hermite", "integer_consistency", worst <= 1e-10,
                  f"worst relative gap {worst:.2e} over n=0..6"))

    worst = 0.0
    h = 2e-3  # balances stencil truncation against series round-off
    for nu in np.linspace(0.25, 6.0, 24):
        for t in np.linspace(-4.0, 4.0, 17):
            d = specfun.hermite_h_deriv(nu, t)
            fd = (specfun.hermite_value(nu, t - 2 * h)
                  - 8 * specfun.hermite_value(nu, t - h)
                  + 8 * specfun.hermite_value(nu, t + h)
                  - specfun.hermite_value(nu, t + 2 * h)) / (12 * h)
            worst = max(worst, abs(d - fd) / (1.0 + abs(d)))
    out.append(_r("hermite", "recurrence_vs_fd", worst <= 1e-6,
                  f"worst scaled residual {worst:.2e}"))

    worst = 0.0
    for n in range(7):
        v1 = specfun.hermite_value(n, -ts)
        v2 = (-1.0) ** n * specfun.hermite_value(n, ts)
        worst = max(worst, float(np.max(np.abs(v1 - v2) / (np.abs(v2) + 1.0))))
    out.append(_r("hermite", "parity", worst <= 1e-12,
                  f"worst parity defect {worst:.2e}"))

    # The gap measures the series' cancellation at the switch point: the
    # expansion, summed to its smallest term, is far more accurate there.
    t_sw = specfun.HERMITE_SWITCH_T
    worst = 0.0
    for nu in (1.7, 2.4, 3.6, 5.3, 7.7):
        s = specfun._hermite_series(nu, t_sw)
        a = specfun._hermite_asympt(nu, t_sw)
        worst = max(worst, abs(s - a) / abs(a))
    out.append(_r("hermite", "asymptotic_handoff", worst <= 1e-8,
                  f"worst branch disagreement {worst:.2e} at the switch-over"))

    z2 = specfun.hermite_largest_zero(2.0)
    z3 = specfun.hermite_largest_zero(3.0)
    z25 = specfun.hermite_largest_zero(2.5)
    ok = (abs(z2 - 1 / math.sqrt(2)) <= 1e-9
          and abs(z3 - math.sqrt(1.5)) <= 1e-9
          and z2 < z25 < z3)
    out.append(_r("hermite", "largest_zero", ok,
                  f"zeros: {z2:.10f}, {z25:.10f}, {z3:.10f}"))
    return out


def suite_wronskian(rng: np.random.Generator) -> list[CheckResult]:
    worst = 0.0
    for nu in (0.3, 0.8, 1.7, 2.4):
        for t in np.linspace(0.0, 2.0, 9):
            lhs = (specfun.hermite_value(nu, t)
                   * (-2 * nu * specfun.hermite_value(nu - 1, -t))
                   - specfun.hermite_value(nu, -t)
                   * (2 * nu * specfun.hermite_value(nu - 1, t)))
            rhs = (2.0 ** (nu + 1) * math.sqrt(math.pi)
                   * math.exp(t * t) / specfun.gamma(-nu))
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return [_r("wronskian", "hermite_pair_wronskian", worst <= 1e-7,
               f"worst relative defect {worst:.2e}")]


def suite_turan(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    g11 = specfun.turan_gap(1.0, 1.0)
    g22 = specfun.turan_gap(2.0, 2.0)
    out.append(_r("turan", "polynomial_values",
                  abs(g11 - 2.0) < 1e-10 and abs(g22 - 36.0) < 1e-9,
                  f"gap(1,1)={g11:.6g}, gap(2,2)={g22:.6g}"))
    ok = True
    worst = math.inf
    for nu in (1.5, 2.5, 3.5):
        t0 = specfun.hermite_largest_zero(nu) + 0.05
        for t in np.linspace(t0, 5.0, 60):
            gap = specfun.turan_gap(nu, t)
            worst = min(worst, gap)
            ok = ok and gap > 0.0
    out.append(_r("turan", "positivity_grid", ok,
                  f"smallest gap on the grid {worst:.3g}"))
    return out


def suite_bessel(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    rs = np.linspace(0.05, 10.0, 120)
    closed = np.sqrt(2.0 / (math.pi * rs)) * np.sin(rs)
    mine = specfun.bessel_j_value(0.5, rs)
    worst = float(np.max(np.abs(mine - closed)))
    out.append(_r("bessel", "half_integer_closed_form", worst <= 1e-10,
                  f"max abs gap {worst:.2e} on (0, 10]"))

    worst = 0.0
    h, rs = 1e-6, np.linspace(0.3, 9.0, 14)
    for a in (0.0, 0.5, 1.3, 2.2):
        d = specfun.bessel_j_deriv(a, rs)
        fd = (specfun.bessel_j_value(a, rs + h)
              - specfun.bessel_j_value(a, rs - h)) / (2 * h)
        worst = max(worst, float(np.max(np.abs(d - fd) / (1.0 + np.abs(d)))))
    out.append(_r("bessel", "recurrence_vs_fd", worst <= 1e-6,
                  f"worst scaled residual {worst:.2e}"))

    ok = True
    details = []
    for a in (0.0, 0.5, 1.0, 1.7, 2.5):
        jp = specfun.bessel_jprime_first_zero(a)
        j = specfun.bessel_zeros(a, 1)[0]
        ok = ok and (a <= jp < j)
        details.append(f"a={a:g}: {jp:.4f} < {j:.4f}")
    out.append(_r("bessel", "zero_interlacing", ok, "; ".join(details)))

    j_half, j_zero = (specfun.bessel_zeros(a, 1)[0] for a in (0.5, 0.0))
    ok = (abs(j_half - math.pi) <= 1e-9
          and abs(j_zero - 2.404825557695773) <= 1e-9)
    out.append(_r("bessel", "first_zero_values", ok,
                  f"j_(1/2,1)={j_half:.12f}, j_(0,1)={j_zero:.12f}"))

    # infinite-product cross-check; truncating after H factors drops the
    # tail of sum 1/j^2 (total 1/(4(a+1)), the Rayleigh sum), a relative
    # error of about r^2/(pi^2 H): the 1e-3 gate needs a few thousand
    # factors, while 50 factors land near 1e-2.
    worst = 0.0
    for a in (0.0, 1.0):
        zeros = specfun.bessel_zeros(a, 3000)
        j1 = zeros[0]
        for r in np.linspace(0.1, j1 * 0.95, 25):
            prod = ((r / 2.0) ** a / specfun.gamma(a + 1.0)
                    * float(np.prod(1.0 - (r / zeros) ** 2)))
            ref = specfun.bessel_j_value(a, r)
            worst = max(worst, abs(prod - ref) / (abs(ref) + 1e-12))
    out.append(_r("bessel", "product_cross_check", worst <= 1e-3,
                  f"worst relative gap {worst:.2e} with 3000 factors"))
    return out


# ----------------------------------------------------------------------
# oracle-based suites
# ----------------------------------------------------------------------

def _random_two_interval_domain(rng: np.random.Generator,
                                family: str) -> oracle.Domain1D:
    if family == "lebesgue":
        a1 = rng.uniform(0.0, 1.0)
        l1 = rng.uniform(0.7, 1.4)
        gap = rng.uniform(0.3, 1.0)
        l2 = rng.uniform(0.7, 1.4)
        return oracle.Domain1D(
            intervals=((a1, a1 + l1), (a1 + l1 + gap, a1 + l1 + gap + l2)),
            coordinate="lebesgue")
    if family == "cartesian_gauss":
        a1 = rng.uniform(-4.0, -2.0)
        l1 = rng.uniform(1.0, 2.2)
        a2 = rng.uniform(0.2, 1.0)
        l2 = rng.uniform(1.0, 2.2)
        return oracle.Domain1D(
            intervals=((a1, a1 + l1), (a2, a2 + l2)),
            coordinate="cartesian_gauss")
    m = MeasureSpec.power(3, 1.0)
    r1 = rng.uniform(0.6, 1.2)
    r2 = rng.uniform(0.6, 1.2)
    return oracle.Domain1D(intervals=((0.0, r1), (0.0, r2)),
                           coordinate="radial_power", measure=m)


def suite_bracket(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    for family in ("lebesgue", "cartesian_gauss", "radial_power"):
        ok = True
        worst_gap = math.inf
        for _ in range(20):
            dom = _random_two_interval_domain(rng, family)
            dd = oracle.dirichlet_eigs(dom, h=_bracket_h(dom), count=2)
            tw = oracle.twisted_eig(dom, h=_bracket_h(dom))
            lam1, lam2 = dd.eigenvalues[0], dd.eigenvalues[1]
            lamT = tw.eigenvalues[0]
            strict = (lamT - lam1) / max(lam1, 1.0)
            worst_gap = min(worst_gap, strict)
            ok = ok and (strict > 1e-6) and (lamT <= lam2 * (1 + 1e-9))
        out.append(_r("bracket", f"chain_{family}", ok,
                      "20 domains, smallest scaled gap "
                      f"lambda_T - lambda_1^D = {worst_gap:.3g}"))

    dom = oracle.Domain1D(intervals=((0.0, 1.0),), coordinate="lebesgue")
    lamT = oracle.twisted_eig(dom).eigenvalues[0]
    ref = 4.0 * math.pi ** 2
    out.append(_r("bracket", "unit_interval_equality_case",
                  abs(lamT - ref) / ref <= 2e-3,
                  f"lambda_T = {lamT:.6f} vs 4 pi^2 = {ref:.6f}"))

    dom = oracle.Domain1D(intervals=((0.0, 1.0), (1.5, 2.5)),
                          coordinate="lebesgue")
    dd = oracle.dirichlet_eigs(dom, count=2)
    tw = oracle.twisted_eig(dom)
    out.append(_r("bracket", "symmetric_pair_equality_case",
                  abs(tw.eigenvalues[0] - dd.eigenvalues[1])
                  <= 1e-6 * dd.eigenvalues[1],
                  f"lambda_T = {tw.eigenvalues[0]:.8f}, "
                  f"lambda_2^D = {dd.eigenvalues[1]:.8f}"))
    return out


def _bracket_h(dom: oracle.Domain1D) -> float:
    length = max(b - a for a, b in dom.intervals)
    return length / 700.0


def _pair_cases_gauss() -> list[tuple[float, float]]:
    return [(0.4, 0.5), (0.4, 0.38), (0.55, 0.5), (0.55, 0.42),
            (0.55, 0.34), (0.7, 0.5), (0.7, 0.45), (0.7, 0.37),
            (0.5, 0.31), (0.62, 0.56)]


def _pair_cases_power() -> list[tuple[MeasureSpec, float, float]]:
    m30 = MeasureSpec.power(3, 0.0)
    m21 = MeasureSpec.power(2, 1.0)
    m32 = MeasureSpec.power(3, 2.0)
    unit = 2.0 * measures.halfball_mass(m30, 1.0)
    return [(m30, unit, 0.5), (m30, unit, 0.42), (m30, unit, 0.33),
            (m30, 3.0, 0.46), (m21, 1.2, 0.5), (m21, 1.2, 0.4),
            (m21, 2.5, 0.35), (m32, 2.0, 0.5), (m32, 2.0, 0.43),
            (m32, 5.0, 0.37)]


def _solve_pair(measure: MeasureSpec, total: float, s: float):
    cfg = measures.config_from_split(measure, total, s)
    return cfg, closedform.solve(cfg), oracle.pair_domain(cfg)


def _richardson(dom: oracle.Domain1D) -> float:
    """Oracle twisted value extrapolated from 1000 and 2000 cells on the
    longest interval: (4 lambda_{h/2} - lambda_h) / 3 cancels the h^2 term
    of the second-order scheme."""
    length = max(b - a for a, b in dom.intervals)
    lam_h, lam_h2 = (oracle.twisted_eig(dom, h=length / cells).eigenvalues[0]
                     for cells in (1000, 2000))
    return (4.0 * lam_h2 - lam_h) / 3.0


def suite_oracle(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    g1 = MeasureSpec.gaussian(1)
    gauss_cases = [(g1, total, s) for total, s in _pair_cases_gauss()]
    richardson = 0.0
    for family, cases in (("gaussian", gauss_cases),
                          ("power", _pair_cases_power())):
        worst = 0.0
        for m, total, s in cases:
            # the 1D oracle sees the radial pair mode: the pair root
            _, sol, dom = _solve_pair(m, total, s)
            lam_o = oracle.twisted_eig(dom).eigenvalues[0]
            worst = max(worst, abs(sol.pair_root - lam_o) / lam_o)
            gap = abs(_richardson(dom) - sol.pair_root) / sol.pair_root
            richardson = max(richardson, gap)
        out.append(_r("oracle", f"{family}_pairs_agreement", worst <= 1e-3,
                      f"worst relative gap {worst:.2e} over {len(cases)} pairs"))
    out.append(_r("oracle", "richardson_agreement", richardson <= 1e-8,
                  f"worst relative gap {richardson:.2e} of the h, h/2 "
                  "extrapolation (1000 and 2000 cells on the longest "
                  "interval) over 20 pairs"))

    # refinement: the closed-form-vs-oracle gap trend must shrink by ~4x
    # per halving (second-order oracle); demand at least halving.
    trends = []
    for measure, total, s in [(g1, 0.55, 0.42),
                              (MeasureSpec.power(2, 1.0), 1.2, 0.4)]:
        _, sol, dom = _solve_pair(measure, total, s)
        gaps = []
        base = max(b - a for a, b in dom.intervals) / 500.0
        for h in (base, base / 2.0):
            lam_o = oracle.twisted_eig(dom, h=h).eigenvalues[0]
            gaps.append(abs(sol.pair_root - lam_o))
        trends.append(gaps[1] / gaps[0])
    ok = all(t <= 0.5 for t in trends)
    out.append(_r("oracle", "mesh_refinement_trend", ok,
                  f"gap ratios under h -> h/2: "
                  f"{', '.join(f'{t:.3f}' for t in trends)}"))
    return out


def suite_lemma(rng: np.random.Generator) -> list[CheckResult]:
    """Reduction inequality: oracle twisted value of a random union is at
    least the pair value at the nodal-mass split."""
    g1 = MeasureSpec.gaussian(1)
    ok = True
    worst = math.inf
    used = 0
    tried = 0
    while used < 10 and tried < 60:
        tried += 1
        n_iv = int(rng.integers(2, 5))
        points = np.sort(rng.uniform(-4.5, 4.5, size=2 * n_iv))
        ivs = []
        for i in range(n_iv):
            a, b = points[2 * i], points[2 * i + 1]
            if b - a < 0.25:
                b = a + 0.25
            ivs.append((float(a), float(b)))
        if any(b2 <= b1 for (_, b1), (a2, b2) in zip(ivs, ivs[1:])) or any(
                a2 < b1 for (_, b1), (a2, _) in zip(ivs, ivs[1:])):
            continue
        dom = oracle.Domain1D(intervals=tuple(ivs), coordinate="cartesian_gauss")
        tw = oracle.twisted_eig(dom, h=_bracket_h(dom))
        u = tw.eigenvectors[0]
        m_pos = float(np.sum(u.node_weights[u.values > 0]))
        m_neg = float(np.sum(u.node_weights[u.values < 0]))
        total = m_pos + m_neg
        if min(m_pos, m_neg) < 1e-3 or max(m_pos, m_neg) > 0.5:
            continue
        cfg = measures.config_from_split(g1, total, m_pos / total)
        pair = closedform.twisted_pair_gauss(cfg)
        lamT = tw.eigenvalues[0]
        margin = (lamT - pair.eigenvalue) / pair.eigenvalue
        worst = min(worst, margin)
        ok = ok and margin >= -2e-3
        used += 1
    return [_r("lemma", "union_to_pair_reduction", ok and used == 10,
               f"{used} domains; smallest relative margin "
               f"lambda_T(union) - lambda_T(pair) = {worst:.3g}")]


def suite_nodal(rng: np.random.Generator) -> list[CheckResult]:
    """First constrained eigenvector on two-component domains: one sign per
    component (within the single-signedness window)."""
    ok = True
    for total, s in [(0.5, 0.5), (0.5, 0.4), (0.6, 0.45), (0.7, 0.38)]:
        cfg = measures.config_from_split(MeasureSpec.gaussian(1), total, s)
        dom = oracle.gaussian_pair_domain(cfg)
        tw = oracle.twisted_eig(dom, h=_bracket_h(dom))
        u = tw.eigenvectors[0]
        for (a, b) in u.pieces:
            piece = u.values[a:b]
            scale = float(np.max(np.abs(piece)))
            pos = np.any(piece > 1e-6 * scale)
            neg = np.any(piece < -1e-6 * scale)
            ok = ok and not (pos and neg)
    return [_r("nodal", "one_sign_per_component", ok,
               "first constrained eigenvector single-signed on each "
               "component over 4 pair domains")]


# ----------------------------------------------------------------------
# rearrangement suite
# ----------------------------------------------------------------------

def _random_sample(rng: np.random.Generator, measure: MeasureSpec,
                   n: int = 2200) -> GridFunction:
    """A random smooth function on a uniform grid under `measure`: a sine
    series on a random interval for the gaussian, a cosine series vanishing
    at a random radius for a power measure."""
    if measure.is_gaussian:
        a = rng.uniform(-4.5, -1.5)
        b = rng.uniform(0.3, 3.0)
        xs = np.linspace(a, b, n)
        h = xs[1] - xs[0]
        coef = rng.normal(size=4)
        vals = sum(c * np.sin((j + 1) * math.pi * (xs - a) / (b - a))
                   for j, c in enumerate(coef))
        return GridFunction(xs, vals, measures.gauss_weight_1d(xs) * h)
    R0 = rng.uniform(0.6, 1.6)
    rr = np.linspace(R0 / n, R0, n)
    h = rr[1] - rr[0]
    coef = rng.normal(size=3)
    vals = (R0 ** 2 - rr ** 2) * sum(c * np.cos(j * rr)
                                     for j, c in enumerate(coef, 1))
    return GridFunction(rr, vals, measure.radial_weight(rr) * h)


def _two_bump_gauss() -> GridFunction:
    xs1 = np.linspace(-4.0, -0.5, 1500)
    xs2 = np.linspace(0.5, 4.0, 1500)
    v1 = np.sin(math.pi * (xs1 + 4.0) / 3.5) ** 2
    v2 = 0.7 * np.sin(math.pi * (xs2 - 0.5) / 3.5) ** 2
    nodes = np.concatenate([xs1, xs2])
    vals = np.concatenate([v1, v2])
    w = measures.gauss_weight_1d(nodes) * np.concatenate(
        [np.full_like(xs1, xs1[1] - xs1[0]), np.full_like(xs2, xs2[1] - xs2[0])])
    return GridFunction(nodes, vals, w, pieces=[(0, 1500), (1500, 3000)])


def _two_bump_power(measure: MeasureSpec) -> GridFunction:
    r1 = np.linspace(1e-3, 1.0, 1200)
    r2 = np.linspace(1e-3, 0.8, 1200)
    v1 = (1.0 - r1 ** 2)
    v2 = 0.6 * (0.64 - r2 ** 2)
    nodes = np.concatenate([r1, r2])
    vals = np.concatenate([v1, v2])
    w = measure.radial_weight(nodes) * np.concatenate(
        [np.full_like(r1, r1[1] - r1[0]), np.full_like(r2, r2[1] - r2[0])])
    return GridFunction(nodes, vals, w, pieces=[(0, 1200), (1200, 2400)])


def suite_rearrange(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    g1 = MeasureSpec.gaussian(1)
    m21 = MeasureSpec.power(2, 1.0)

    worst = 0.0
    for p in (1.0, 2.0, 4.0):
        for measure in (g1, m21):
            u = _random_sample(rng, measure)
            rep = rearrange.check_cavalieri(u, measure, p=p)
            worst = max(worst, abs(rep.rel_gap))
    out.append(_r("rearrange", "cavalieri", worst <= 2e-3,
                  f"worst |relative gap| {worst:.2e} for p in {{1,2,4}}"))

    # the signed resampling gap can cross zero between levels, so demand
    # that every refined level sits well below the coarse one
    halving = []
    for n in (1100, 2200, 4400):
        u = _random_sample(np.random.default_rng(7), g1, n=n)
        halving.append(abs(rearrange.check_cavalieri(u, g1, p=2).rel_gap))
    ok = max(halving[1], halving[2]) <= 0.6 * halving[0]
    out.append(_r("rearrange", "cavalieri_refinement", ok,
                  "gaps under doubling resolution: "
                  + ", ".join(f"{g:.2e}" for g in halving)))

    worst = 0.0
    for measure in (g1, m21):
        for _ in range(25):
            u = _random_sample(rng, measure)
            coef = rng.normal(size=3)
            span = u.nodes[-1] - u.nodes[0]
            v = u.with_values(sum(
                c * np.cos((j + 1) * math.pi * (u.nodes - u.nodes[0]) / span)
                for j, c in enumerate(coef)))
            worst = min(worst, rearrange.check_hardy_littlewood(u, v).rel_gap)
    out.append(_r("rearrange", "hardy_littlewood", worst >= -2e-3,
                  f"smallest relative gap {worst:.2e} over 50 pairs"))

    u = _random_sample(rng, g1)
    v = u.with_values(np.abs(u.values) ** 1.5)
    como = rearrange.check_hardy_littlewood(u, v).rel_gap
    out.append(_r("rearrange", "hardy_littlewood_comonotone",
                  abs(como) <= 2e-3,
                  f"comonotone equality gap {como:.2e}"))

    worst = 0.0
    for measure in (g1, m21):
        for _ in range(15):
            u = _random_sample(rng, measure)
            worst = min(worst, rearrange.check_polya_szego(u, measure).rel_gap)
    out.append(_r("rearrange", "polya_szego", worst >= -5e-3,
                  f"smallest relative gap {worst:.2e} over 30 samples"))

    g_gap = rearrange.check_polya_szego(_two_bump_gauss(), g1).rel_gap
    p_gap = rearrange.check_polya_szego(_two_bump_power(m21), m21).rel_gap
    out.append(_r("rearrange", "polya_szego_two_bump_strict",
                  g_gap > 0.05 and p_gap > 0.05,
                  f"two-bump gaps: gaussian {g_gap:.3f}, power {p_gap:.3f}"))

    u = _two_bump_gauss()
    d_orig = rearrange.dist_function(u)
    d_sharp = rearrange.dist_function(rearrange.weighted_rearrangement(u, g1))
    worst = max(abs(d_orig(t) - d_sharp(t))
                for t in np.linspace(0.0, float(np.max(np.abs(u.values))), 33))
    out.append(_r("rearrange", "equimeasurability_exact", worst <= 1e-12,
                  f"worst distribution-function gap {worst:.2e}"))
    return out


# ----------------------------------------------------------------------
# minimum certification, sign claims, recovery, continuity
# ----------------------------------------------------------------------

def _certification_cases() -> list[tuple[MeasureSpec, float]]:
    m30 = MeasureSpec.power(3, 0.0)
    unit = 2.0 * measures.halfball_mass(m30, 1.0)
    return [
        (MeasureSpec.gaussian(1), 0.4),
        (MeasureSpec.gaussian(1), 0.5),
        (MeasureSpec.gaussian(1), 0.7),
        (MeasureSpec.gaussian(3), 0.4),
        (MeasureSpec.gaussian(3), 0.5),
        (MeasureSpec.gaussian(3), 0.7),
        (m30, unit), (m30, 3.0), (m30, 6.0),
        (MeasureSpec.power(2, 1.0), 1.0), (MeasureSpec.power(2, 1.0), 2.0),
        (MeasureSpec.power(2, 1.0), 4.0),
        (MeasureSpec.power(3, 2.0), 2.0), (MeasureSpec.power(3, 2.0), 5.0),
        (MeasureSpec.power(3, 2.0), 10.0),
    ]


def suite_minimum(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    for measure, total in _certification_cases():
        curve = shapeopt.scan(measure, total)
        rep = shapeopt.certify_minimum(curve)
        label = (f"gaussian(n={measure.n})" if measure.is_gaussian
                 else f"power({measure.n},{measure.k:g})")
        fails = "; ".join(f"{c.name}: {c.detail}" for c in rep.failures())
        out.append(_r("minimum", f"{label}_mass_{total:g}", rep.passed,
                      fails if fails else
                      f"min lambda {curve.lambdas.min():.8g} at s=0.5, "
                      f"single_signed={curve.all_single_signed}"))
    return out


def suite_signs(rng: np.random.Generator) -> list[CheckResult]:
    out = []
    g1 = MeasureSpec.gaussian(1)
    m21 = MeasureSpec.power(2, 1.0)

    ok = True
    details = []
    for measure, total in ((g1, 0.5), (g1, 0.65), (m21, 1.5), (m21, 3.0)):
        for s in (0.34, 0.42, 0.66):
            cfg = measures.config_from_split(measure, total, s)
            sol = closedform.solve(cfg)
            gap = closedform.boundary_gradient_gap(sol)
            # the larger-mass component has the smaller squared gradient:
            # left heavier (s > 1/2)  =>  du_right^2 - du_left^2 > 0.
            want_positive = s > 0.5
            ok = ok and ((gap > 0) == want_positive) and gap != 0.0
        details.append(f"{measure.kind} total={total:g}")
    out.append(_r("signs", "gradient_gap_mass_orientation", ok,
                  "larger-mass component has the smaller boundary gradient "
                  "(" + ", ".join(details) + ")"))

    worst = math.inf
    for measure, total in ((g1, 0.5), (m21, 1.5)):
        cfg = measures.config_from_split(measure, total, 0.5)
        sol = closedform.solve(cfg)
        rel = abs(closedform.boundary_gradient_gap(sol)) / sol.du_left ** 2
        worst = min(worst, -rel)
    out.append(_r("signs", "gap_vanishes_at_symmetry", worst >= -1e-10,
                  f"largest |gap|/du^2 at symmetry {-worst:.2e}"))

    ok = True
    for nu in (1.3, 2.2, 3.7):
        t0 = specfun.hermite_largest_zero(nu) + 0.05
        ts = np.linspace(t0, 6.0, 200)
        vals = np.asarray([closedform.psi_nu(nu, float(t)) for t in ts])
        ok = ok and bool(np.all(np.diff(vals) < 0.0)) and bool(np.all(vals > 0.0))
    out.append(_r("signs", "psi_strictly_decreasing", ok,
                  "psi_nu positive and strictly decreasing beyond the "
                  "largest zero for nu in {1.3, 2.2, 3.7}"))

    ok = True
    for order in (0.5, 1.0, 1.7):
        jp = specfun.bessel_jprime_first_zero(order)
        ss = np.linspace(0.01, jp - 0.01, 200)
        vals = np.asarray([closedform.phi_alpha(order, float(s)) for s in ss])
        ok = ok and bool(np.all(np.diff(vals) < 0.0)) and bool(np.all(vals < 0.0))
    out.append(_r("signs", "phi_strictly_decreasing_negative", ok,
                  "phi negative and strictly decreasing on (0, j'_1) for "
                  "orders {0.5, 1, 1.7}"))
    return out


def suite_recovery(rng: np.random.Generator) -> list[CheckResult]:
    m30 = MeasureSpec.power(3, 0.0)
    cfg = measures.PairConfig(m30, 1.0, 1.0)
    lam = closedform.twisted_pair_power(cfg).eigenvalue
    rel = abs(lam - math.pi ** 2) / math.pi ** 2
    return [_r("recovery", "lebesgue_two_unit_balls", rel <= 1e-6,
               f"lambda = {lam:.12f} vs pi^2 (relative gap {rel:.2e})")]


def suite_continuity(rng: np.random.Generator) -> list[CheckResult]:
    g1 = MeasureSpec.gaussian(1)
    jumps = []
    for points in (11, 21, 41):
        curve = shapeopt.scan(g1, 0.5, points=points)
        jumps.append(curve.max_adjacent_jump())
    ok = jumps[1] <= 0.65 * jumps[0] and jumps[2] <= 0.65 * jumps[1]
    return [_r("continuity", "split_curve_jumps_shrink", ok,
               "max adjacent jumps under grid refinement: "
               + ", ".join(f"{j:.3g}" for j in jumps))]


SUITES: dict[str, Callable] = {
    "hermite": suite_hermite,
    "wronskian": suite_wronskian,
    "turan": suite_turan,
    "bessel": suite_bessel,
    "bracket": suite_bracket,
    "oracle": suite_oracle,
    "lemma": suite_lemma,
    "nodal": suite_nodal,
    "rearrange": suite_rearrange,
    "minimum": suite_minimum,
    "signs": suite_signs,
    "recovery": suite_recovery,
    "continuity": suite_continuity,
}


def run_suites(names: Optional[list[str]] = None,
               seed: int = 0) -> list[CheckResult]:
    """Run the selected suites (all by default) with per-suite seeded rngs."""
    selected = list(SUITES) if not names else names
    results = []
    for name in selected:
        if name not in SUITES:
            raise KeyError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
        rng = np.random.default_rng([seed, sorted(SUITES).index(name)])
        results.extend(SUITES[name](rng))
    return results
