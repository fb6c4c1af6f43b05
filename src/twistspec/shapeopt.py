"""One-parameter shape optimization over the mass split.

lambda(s) is the first twisted eigenvalue of the isoperimetric pair whose
left component carries the mass fraction s.  Its derivative along the
split has the closed form

    d lambda / d s = (du_right^2 - du_left^2) * total_mass,

the 1D reduction of the Hadamard boundary formula: the transport field is
never built, because (du/dn)^2 is constant on each boundary component and
V.n integrates to the mass flux there (+total_mass on the left component,
-total_mass on the right, for a mass-preserving transfer).

`scan` samples lambda at the Chebyshev-Lobatto points s_j = 1/2 + h x_j,
x_j = cos(pi j / N), of the split window [1/2 - h, 1/2 + h], and
differentiates the curve spectrally: the derivative at the nodes of the
polynomial through them (Trefethen, Spectral Methods in MATLAB, ch. 6), as
in Chebfun (Battles & Trefethen 2004).  lambda is analytic in s, so 21
points resolve it far below the certification tolerance.  `split_grid`
builds the upper half and takes the lower half as 1 - s, exact for s in
[1/2, 1], so the grid is its own mirror to the bit and the configuration
at 1 - s is the one at s with the components swapped.  `scan` solves the
center, then each mirrored pair back to back; the second solve of a pair
finds the special-function values of the first in specfun's kernel
caches, and lambda(s) = lambda(1 - s) holds exactly.

`certify_minimum` checks the grid minimum at s = 1/2, the relabeling
symmetry of the curve, the derivative sign pattern, agreement of the
analytic derivative with the spectral derivative of the curve itself at
every node, and lambda(1/2) bounding the scan's cubic Hermite interpolant
from below, each on the one scale CERT_RTOL * max |lambda|.  The spectral
check's detail also reports N^2 |c_N| / h, the last Chebyshev term's
derivative, which estimates the spectral derivative's error: a grid too
coarse for the curve fails that check, and the estimate says why.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import closedform, measures
from .closedform import TwistedSolution
from .errors import DomainError
from .measures import MeasureSpec

DEFAULT_WINDOW = (0.3, 0.7)
DEFAULT_POINTS = 21
# certify_minimum measures every gap in lambda or d lambda / ds against
# CERT_RTOL * max |lambda|: s is a mass fraction, so both carry the units of
# lambda, and the verdict is the same for the curve scaled by any factor
CERT_RTOL = 1e-8


def lambda_of_split(measure: MeasureSpec, total_mass: float,
                    s: float) -> TwistedSolution:
    """Twisted eigenvalue of the pair with left-mass fraction s."""
    return closedform.solve(measures.config_from_split(measure, total_mass, s))


@dataclass
class ScanCurve:
    measure: MeasureSpec
    total_mass: float
    splits: np.ndarray
    lambdas: np.ndarray
    derivative_analytic: np.ndarray
    derivative_spectral: np.ndarray
    solutions: list[TwistedSolution]
    window: tuple[float, float]
    all_single_signed: bool

    def max_adjacent_jump(self) -> float:
        return float(np.max(np.abs(np.diff(self.lambdas))))


def _half_width(measure: MeasureSpec, total_mass: float) -> float:
    """Half-width h of DEFAULT_WINDOW intersected with the family's
    feasibility limits and centered on 1/2, rounded so that 1/2 + h is
    exact: the window ends 1/2 - h and 1/2 + h then sum to 1 exactly."""
    lo, hi = DEFAULT_WINDOW
    if measure.is_gaussian:
        s_min, s_max = measures.gaussian_split_window(total_mass)
        margin = 1e-9
        lo = max(lo, s_min + margin)
        hi = min(hi, s_max - margin)
    if not lo < hi:
        raise DomainError(
            f"empty split window for total mass {total_mass:g}: "
            f"[{lo:g}, {hi:g}]")
    return (0.5 + min(0.5 - lo, hi - 0.5)) - 0.5


def _lobatto_points(points: int) -> np.ndarray:
    """The Chebyshev-Lobatto points cos(pi j / N), N = points - 1, in
    ascending order and exactly antisymmetric: -1, 0 and 1 are exact."""
    if points < 3 or points % 2 == 0:
        raise DomainError("points must be odd and >= 3")
    n = points - 1
    upper = np.cos(np.pi * np.arange(n // 2) / n)
    return np.concatenate((-upper, [0.0], upper[::-1]))


def _lobatto_diff_matrix(points: int) -> np.ndarray:
    """Trefethen's cheb on the ascending Lobatto points: D @ values is the
    derivative in x at the nodes of the polynomial through the values.  The
    diagonal is the negative row sum, so D maps a constant to exactly 0."""
    x = _lobatto_points(points)
    c = np.ones(points)
    c[1::2] = -1.0
    c[[0, -1]] = 2.0
    d = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(points))
    return d - np.diag(d.sum(axis=1))


def _spectral_resolution(s: np.ndarray, lam: np.ndarray) -> float:
    """N^2 |c_N| / h, the size of the last Chebyshev term's s-derivative at
    the window ends (T_N'(+-1) = +-N^2): an estimate of the spectral
    derivative's truncation error on the Lobatto grid s of half-width h.
    c_N = (1/N) sum'' (-1)^j lam_j, the ends halved, since T_N = (-1)^j at
    the nodes and N is even."""
    n = len(s) - 1
    signs = np.ones(n + 1)
    signs[1::2] = -1.0
    signs[[0, -1]] = 0.5
    c_n = float(np.sum(signs * lam)) / n
    return n * n * abs(c_n) / (0.5 * (s[-1] - s[0]))


def split_grid(measure: MeasureSpec, total_mass: float,
               points: int = DEFAULT_POINTS) -> np.ndarray:
    """Chebyshev-Lobatto split grid 1/2 + h x_j over DEFAULT_WINDOW
    intersected with the family's feasibility limits, containing 1/2 and
    mirror-symmetric about it to the bit: the lower half is 1 - s of the
    upper one, exact by Sterbenz's lemma for s in [1/2, 1], so each lower
    split's configuration is its mirror's with the components swapped."""
    x = _lobatto_points(points)
    upper = 0.5 + _half_width(measure, total_mass) * x[points // 2:]
    return np.concatenate((1.0 - upper[:0:-1], upper))


def scan(measure: MeasureSpec, total_mass: float,
         points: int = DEFAULT_POINTS) -> ScanCurve:
    """Solve the pair problem on the split grid and collect the curve.

    The center is solved first, then each mirrored pair of splits back to
    back: the second solve of a pair repeats the special-function calls
    of the first, which the kernel caches in specfun still hold."""
    s_grid = split_grid(measure, total_mass, points)
    mid = points // 2
    sols = [None] * points
    # the center, then (mid + k, mid - k) for k = 1, ..., mid
    pairs = [j for k in range(1, mid + 1) for j in (mid + k, mid - k)]
    for i in [mid] + pairs:
        sols[i] = lambda_of_split(measure, total_mass, float(s_grid[i]))
    lams = np.array([sol.eigenvalue for sol in sols])
    dana = np.array([closedform.boundary_gradient_gap(sol) * total_mass
                     for sol in sols])
    # row sums rather than `@`: a product this small gains nothing from
    # BLAS, whose first call raises the process's resident memory
    dspec = ((_lobatto_diff_matrix(points) * lams).sum(axis=1)
             / _half_width(measure, total_mass))
    return ScanCurve(
        measure=measure, total_mass=total_mass, splits=s_grid,
        lambdas=lams, derivative_analytic=dana, derivative_spectral=dspec,
        solutions=sols,
        window=(float(s_grid[0]), float(s_grid[-1])),
        all_single_signed=all(s.single_signed for s in sols))


@dataclass
class CheckOutcome:
    name: str
    passed: bool
    detail: str


@dataclass
class CertificationReport:
    checks: list[CheckOutcome]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def failures(self) -> list[CheckOutcome]:
        return [c for c in self.checks if not c.passed]


def certify_minimum(curve: ScanCurve) -> CertificationReport:
    """Certify that the half split minimizes the curve.

    Checks: (a) global grid minimum at s = 1/2; (b) relabeling symmetry
    lambda(s) = lambda(1-s); (c) analytic derivative sign pattern (<= 0
    left of the center, 0 at it, >= 0 right of it); (d) the analytic
    derivative agrees with the spectral one within tol at every node, ends
    included; (e) on each cell the cubic Hermite interpolant of (lambda,
    lambda') is at least its smallest Bernstein control value (lambda_i,
    lambda_i + h lambda'_i/3, lambda_{i+1} - h lambda'_{i+1}/3,
    lambda_{i+1}); none may be below lambda(1/2) by more than tol.  Every
    gate is tol = CERT_RTOL max |lambda|, so scaling lambda and both
    derivative columns by one factor changes no verdict.  The grid must be
    mirror-symmetric about 1/2 and contain it (DomainError otherwise).
    """
    s, lam, d = curve.splits, curve.lambdas, curve.derivative_analytic
    mid = len(s) // 2
    if len(s) % 2 == 0 or np.any(np.abs(s + s[::-1] - 1.0) > 1e-12):
        raise DomainError("certification grid must be mirror-symmetric "
                          "about s = 1/2 and contain it")
    tol = CERT_RTOL * float(np.max(np.abs(lam)))
    checks = []

    imin = int(np.argmin(lam))
    checks.append(CheckOutcome(
        "grid_minimum_at_half", imin == mid,
        f"argmin at s={s[imin]:.6g} (lambda={lam[imin]:.10g}), "
        f"center lambda={lam[mid]:.10g}"))

    sym_gap = float(np.max(np.abs(lam - lam[::-1])))
    checks.append(CheckOutcome(
        "curve_symmetry", sym_gap <= tol,
        f"max |lambda(s) - lambda(1-s)| = {sym_gap:.3g}"))

    left_ok = bool(np.all(d[s < s[mid]] <= tol))
    right_ok = bool(np.all(d[s > s[mid]] >= -tol))
    center_ok = abs(d[mid]) <= tol
    checks.append(CheckOutcome(
        "derivative_sign_pattern", left_ok and right_ok and center_ok,
        f"left<=0: {left_ok}, right>=0: {right_ok}, "
        f"|d(0.5)|={abs(d[mid]):.3g}"))

    spec_gap = float(np.max(np.abs(d - curve.derivative_spectral)))
    checks.append(CheckOutcome(
        "derivative_spectral_agreement", spec_gap <= tol,
        f"max |lambda'(s) - (D lambda)(s)| = {spec_gap:.3g}, resolution "
        f"N^2 |c_N| / h = {_spectral_resolution(s, lam):.3g}, "
        f"tolerance {tol:.3g}"))

    h = np.diff(s)
    cell_low = np.minimum.reduce([lam[:-1], lam[:-1] + h * d[:-1] / 3,
                                  lam[1:] - h * d[1:] / 3, lam[1:]])
    i = int(np.argmin(cell_low))
    margin = cell_low[i] - lam[mid]
    checks.append(CheckOutcome(
        "interpolant_minimum_at_half", margin >= -tol,
        f"lowest Hermite control value - lambda(1/2) = {margin:.3g} "
        f"on cell [{s[i]:.6g}, {s[i + 1]:.6g}]"))

    return CertificationReport(checks=checks)
