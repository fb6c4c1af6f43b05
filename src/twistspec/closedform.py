"""Transcendental eigenvalue solvers for isoperimetric pairs.

Single components first: the Dirichlet eigenvalue of a Gaussian half-space
{x_1 > L} is 2 nu* with nu* the smallest positive degree at which the
Hermite function vanishes at L; the Dirichlet eigenvalue of a weighted
half-ball of radius R is (j_{b,1}/R)^2 with b = (n+k)/2 - 1.

For a two-component configuration the first zero-weighted-mean eigenvalue is
pinned by a 2x2 homogeneous system in the component amplitudes (A, B): the
matching condition (the nonlocal constant must agree across components) and
the zero-mean condition.  Its determinant D has its smallest root strictly
between the two component Dirichlet values (at most equal to the larger
one), which localizes the scan.

Gaussian component profiles (x_1-reduced, degree nu, eigenvalue 2 nu):

    u_L = A (H_nu(-x_1) - H_nu(L))   on {x_1 < -L}
    u_R = B (H_nu(R) - H_nu(x_1))    on {x_1 > R}

with matching  A H_nu(L) + B H_nu(R) = 0  and nonlocal constant
c = -2 nu A H_nu(L).  Radial power profiles (frequency f, eigenvalue f^2):

    u_L = A (g(r) - g(L)),  u_R = B (g(R) - g(r)),  g(r) = r^{-b} J_b(f r)

with matching  A g(L) + B g(R) = 0  and  c = -A f^2 g(L).

Single-signedness of the radial profiles requires the weighted profile g to
be monotone on each component, i.e. f * max(L, R) <= j_{b+1,1} (the first
zero of J_{b+1}, where g' vanishes).  Beyond that window the determinant
root still matches the discrete constrained eigenvalue of the reduced 1D
problem to solver accuracy, but the eigenfunction picks up a thin
opposite-sign shell near the larger boundary, and in dimension n >= 2 the
first tangential (dipole) mode of the larger component - whose eigenvalue
is exactly the window edge (j_{b+1,1}/max(L,R))^2 - drops below the
two-signed pair value.  Solutions therefore carry a `single_signed`
diagnostic instead of failing; scans stay inside the window by default.

The weighted mean integrals inside D are exact: from
(e^{-t^2} H_{nu-1})' = -e^{-t^2} H_nu on the Gaussian side and from
int_0^X r^{b+1} J_b(f r) dr = X^{b+1} J_{b+1}(f X)/f (DLMF 10.22.1) on the
power side, so D costs four scalar special-function calls.  Only the
normalization, computed once per solve, uses quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from . import measures, numerics, specfun
from .errors import DomainError, NumericalError
from .measures import MeasureSpec, PairConfig

@dataclass(frozen=True)
class EigenfunctionProfile:
    """One component of a twisted eigenfunction.

    `evaluate` maps the boundary-relative coordinate (distance into the
    component from its Dirichlet boundary, >= 0) to the eigenfunction value.
    """
    component: str                     # "left" | "right"
    sign: str                          # "positive" | "negative"
    evaluate: Callable[[float], float]


@dataclass
class TwistedSolution:
    """First twisted eigenpair of a two-component configuration."""
    eigenvalue: float
    config: PairConfig
    nu: Optional[float] = None         # gaussian: eigenvalue = 2 nu
    freq: Optional[float] = None       # power: eigenvalue = freq^2
    alpha: Optional[float] = None      # power: 1 - (n+k)/2
    amp_left: float = 0.0
    amp_right: float = 0.0
    nonlocal_c: float = 0.0
    du_left: float = 0.0
    du_right: float = 0.0
    normalization: float = 1.0
    bracket_dirichlet: tuple[float, float] = (0.0, 0.0)
    mean_residual: float = 0.0
    matching_residual: float = 0.0
    single_signed: bool = True
    profiles: list[EigenfunctionProfile] = field(default_factory=list)
    u_left_at: Callable[[float], float] = None   # physical coordinate
    u_right_at: Callable[[float], float] = None

    @property
    def lam(self) -> float:
        return self.eigenvalue


# ----------------------------------------------------------------------
# Gaussian half-space machinery
# ----------------------------------------------------------------------

def dirichlet_halfspace_gauss(L: float) -> float:
    """First Dirichlet eigenvalue of the Gaussian half-space at offset L.

    2 nu* with nu* the smallest positive root of nu -> H_nu(L), scanned in
    steps of at most 0.5 between two closed-form bounds and refined by Brent:

    - lower: with u = e^{t^2/2} w the problem on (L, inf) reads
      -w'' + (t^2 - 1) w = 2 nu w, a potential >= L^2 - 1, so
      nu* > (L^2 - 1)/2; and nu* >= 1 = nu*(0), since nu* increases in L;
    - upper: domain monotonicity on the box (L, L+1), where the potential is
      <= (L+1)^2 - 1, gives 2 nu* <= pi^2 + (L+1)^2 - 1 = L^2 + 2L + pi^2.

    The first two nu-roots lie at least 2 apart (exactly 2 at L = 0, 4.6 at
    L = 4.95, measured over 100 offsets), so a 0.5 step cannot step over a
    pair of them.  Offsets at or beyond specfun.HERMITE_SWITCH_T are
    rejected: there H_nu comes from the large-t expansion, which is not
    valid near its zeros.
    """
    if L < 0:
        raise DomainError(f"dirichlet_halfspace_gauss: need L >= 0, got {L:g}")
    t_switch = specfun.HERMITE_SWITCH_T
    if L >= t_switch:
        raise DomainError(
            f"dirichlet_halfspace_gauss: offset L={L:g} is at or beyond the "
            f"Hermite switch point t={t_switch:g} (component mass "
            f"{measures.k_gauss(t_switch):.2g}); the large-t expansion of H_nu "
            f"is not valid at its zeros")
    lo = max(1.0, 0.5 * (L * L - 1.0))
    hi = 0.5 * (L * L + 2.0 * L + math.pi ** 2)
    f = lambda nu: specfun.hermite_value(nu, L)  # noqa: E731
    br = numerics.scan_sign_change(f, lo, hi, math.ceil(2.0 * (hi - lo)))
    if br is None:
        raise NumericalError(
            f"dirichlet_halfspace_gauss: no Hermite-degree root in "
            f"nu [{lo:g}, {hi:g}] for L={L:g}")
    return 2.0 * numerics.find_root(f, br, tol=1e-12)


_GL_ORDER = 40
_GL_PANEL_LEN = 1.5


@lru_cache(maxsize=512)
def _fixed_gl_grid(a: float, b: float,
                   seam: Optional[float] = None) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes/weights on [a, b], panels no longer
    than _GL_PANEL_LEN, with an optional forced panel boundary (the Hermite
    series/asymptotic seam).  Spectrally accurate on the entire profiles
    integrated here; cross-validated against the adaptive integrator."""
    x0, w0 = np.polynomial.legendre.leggauss(_GL_ORDER)
    if seam is not None and a < seam < b:
        segs = [(a, seam), (seam, b)]
    else:
        segs = [(a, b)]
    nodes, weights = [], []
    for lo, hi in segs:
        n_panels = max(1, int(math.ceil((hi - lo) / _GL_PANEL_LEN)))
        bounds = np.linspace(lo, hi, n_panels + 1)
        for p_lo, p_hi in zip(bounds[:-1], bounds[1:]):
            mid, half = 0.5 * (p_lo + p_hi), 0.5 * (p_hi - p_lo)
            nodes.append(mid + half * x0)
            weights.append(half * w0)
    out_n, out_w = np.concatenate(nodes), np.concatenate(weights)
    out_n.setflags(write=False)
    out_w.setflags(write=False)
    return out_n, out_w


def _gauss_mean(nu: float, a: float, h_a: float) -> float:
    """int_a^inf (H_nu(t) - H_nu(a)) d gamma_1, with h_a = H_nu(a):
    e^{-a^2} H_{nu-1}(a) / sqrt(pi) - H_nu(a) erfc(a) / 2."""
    return (math.exp(-a * a) / specfun.SQRT_PI
            * specfun.hermite_value(nu - 1.0, a)
            - 0.5 * math.erfc(a) * h_a)


def _gauss_square_integral(nu: float, a: float) -> float:
    """int_a^inf (H_nu(t) - H_nu(a))^2 d gamma_1, by quadrature."""
    T = numerics.gauss_tail_cut(a).cut
    ts, ws = _fixed_gl_grid(a, T, seam=specfun.HERMITE_SWITCH_T)
    diff = specfun.hermite_value(nu, ts) - specfun.hermite_value(nu, a)
    gw = ws * measures.gauss_weight_1d(ts)
    return float(np.dot(gw, diff * diff))


def _find_first_root(D, lo: float, hi: float, what: str):
    """Smallest root of D on (lo, hi]; progressively denser scans."""
    eps = 1e-10 * max(1.0, abs(lo))
    for steps in (32, 192, 1024):
        br = numerics.scan_sign_change(D, lo + eps, hi, steps)
        if br is not None:
            return numerics.find_root(D, br, tol=1e-13)
    xs = np.linspace(lo + eps, hi, 9)
    profile = ", ".join(f"D({x:.6g})={D(float(x)):.3g}" for x in xs)
    raise NumericalError(
        f"no sign change of the {what} determinant in ({lo:g}, {hi:g}]; "
        f"scanned profile: {profile}")


def twisted_pair_gauss(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a Gaussian half-space pair."""
    if not config.measure.is_gaussian:
        raise DomainError("twisted_pair_gauss needs a gaussian PairConfig")
    L, R = config.left_param, config.right_param
    lamD_L = dirichlet_halfspace_gauss(L)
    lamD_R = lamD_L if R == L else dirichlet_halfspace_gauss(R)
    bracket = (min(lamD_L, lamD_R), max(lamD_L, lamD_R))

    if config.is_symmetric:
        nu = lamD_L / 2.0
        ss = _gauss_square_integral(nu, L)
        amp = 1.0 / math.sqrt(2.0 * ss)
        sol = _assemble_gauss_solution(config, nu, amp, amp, bracket)
        sol.nonlocal_c = 0.0  # antisymmetric eigenfunction, exactly
        return sol

    def D(nu: float) -> float:
        hL = specfun.hermite_value(nu, L)
        hR = specfun.hermite_value(nu, R)
        return _gauss_mean(nu, L, hL) * hR + _gauss_mean(nu, R, hR) * hL

    nu_hat = _find_first_root(D, bracket[0] / 2.0, bracket[1] / 2.0, "gaussian")
    hL = specfun.hermite_value(nu_hat, L)
    hR = specfun.hermite_value(nu_hat, R)
    A, B = hR, -hL
    sL = _gauss_square_integral(nu_hat, L)
    sR = _gauss_square_integral(nu_hat, R)
    scale = 1.0 / math.sqrt(A * A * sL + B * B * sR)
    # orient the left component positive
    interior = specfun.hermite_value(nu_hat, L + 0.5) - hL
    if A * interior < 0:
        scale = -scale
    return _assemble_gauss_solution(config, nu_hat, A * scale, B * scale,
                                    bracket)


def _profile_sign(samples: np.ndarray) -> tuple[str, bool]:
    """Dominant sign of a sampled component and whether it is the only one."""
    scale = float(np.max(np.abs(samples))) or 1.0
    pos = np.any(samples > 1e-9 * scale)
    neg = np.any(samples < -1e-9 * scale)
    dominant = "positive" if abs(samples.max()) >= abs(samples.min()) else "negative"
    return dominant, not (pos and neg)


def _assemble_gauss_solution(config, nu, A, B, bracket) -> TwistedSolution:
    L, R = config.left_param, config.right_param
    hL = specfun.hermite_value(nu, L)
    hR = specfun.hermite_value(nu, R)
    c = -2.0 * nu * A * hL
    dH = lambda t: 2.0 * nu * specfun.hermite_value(nu - 1.0, t)  # noqa: E731
    du_left = abs(A * dH(L))
    du_right = abs(B * dH(R))
    mean_res = abs(A * _gauss_mean(nu, L, hL) - B * _gauss_mean(nu, R, hR))
    match_res = abs(A * hL + B * hR)

    def u_left(x: float) -> float:
        if x > -L + 1e-12:
            raise DomainError(f"left component lives on x <= {-L:g}")
        return A * (specfun.hermite_value(nu, -x) - hL)

    def u_right(x: float) -> float:
        if x < R - 1e-12:
            raise DomainError(f"right component lives on x >= {R:g}")
        return B * (hR - specfun.hermite_value(nu, x))

    xi = np.linspace(1e-3, 4.0, 64)
    left_samples = A * (specfun.hermite_value(nu, L + xi) - hL)
    right_samples = B * (hR - specfun.hermite_value(nu, R + xi))
    sgn_l, ok_l = _profile_sign(left_samples)
    sgn_r, ok_r = _profile_sign(right_samples)
    profiles = [
        EigenfunctionProfile("left", sgn_l, lambda t: u_left(-L - t)),
        EigenfunctionProfile("right", sgn_r, lambda t: u_right(R + t)),
    ]
    return TwistedSolution(
        eigenvalue=2.0 * nu, config=config, nu=nu,
        amp_left=A, amp_right=B, nonlocal_c=c,
        du_left=du_left, du_right=du_right,
        normalization=1.0, bracket_dirichlet=bracket,
        mean_residual=mean_res, matching_residual=match_res,
        single_signed=ok_l and ok_r,
        profiles=profiles, u_left_at=u_left, u_right_at=u_right)


# ----------------------------------------------------------------------
# Power half-ball machinery
# ----------------------------------------------------------------------

def _profile_order(measure: MeasureSpec) -> float:
    measure.require_solver_order()
    return measure.profile_order


def dirichlet_halfball_power(measure: MeasureSpec, R: float) -> float:
    """First Dirichlet eigenvalue of the weighted half-ball: (j_{b,1}/R)^2."""
    if R <= 0:
        raise DomainError(f"dirichlet_halfball_power: need R > 0, got {R:g}")
    b = _profile_order(measure)
    return (_first_bessel_zero(b) / R) ** 2


@lru_cache(maxsize=64)
def _first_bessel_zero(order: float) -> float:
    """j_{order,1}, scanned once per profile order."""
    return specfun.bessel_first_zero(order, "of_J")


def _g_profile(order: float, freq: float,
               r: float | np.ndarray) -> float | np.ndarray:
    """g(r) = r^{-order} J_order(freq r), entire in r; float or array r."""
    return (freq / 2.0) ** order * specfun.bessel_j_scaled_vec(order, freq * r)


def _g_deriv(order: float, freq: float, r: float) -> float:
    """g'(r) = -freq * r * (freq/2)^{order+1} * jscaled(order+1, freq r)."""
    return (-freq * r * (freq / 2.0) ** (order + 1.0)
            * specfun.bessel_j_scaled_vec(order + 1.0, freq * r))


def _power_mean(order: float, freq: float, X: float, g_X: float) -> float:
    """int_0^X (g - g(X)) r^{2 order + 1} dr, with g_X = g(X):
    X^{2b+2} [(f/2)^{b+1} Jhat_{b+1}(fX) / f - g(X) / (2b+2)], b = order,
    f = freq, Jhat = bessel_j_scaled_vec; 2b+2 = n+k."""
    p = 2.0 * order + 2.0
    j_next = specfun.bessel_j_scaled_vec(order + 1.0, freq * X)
    return X ** p * ((freq / 2.0) ** (order + 1.0) * j_next / freq - g_X / p)


def _power_square_integral(measure: MeasureSpec, order: float, freq: float,
                           X: float) -> float:
    """int_0^X (g - g(X))^2 r^{n+k-1} dr, by quadrature."""
    rs, ws = _fixed_gl_grid(0.0, X)
    diff = _g_profile(order, freq, rs) - _g_profile(order, freq, X)
    w = ws * rs ** measure.radial_exponent
    return float(np.dot(w, diff * diff))


def twisted_pair_power(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a weighted half-ball pair."""
    if config.measure.is_gaussian:
        raise DomainError("twisted_pair_power needs a power PairConfig")
    measure = config.measure
    b = _profile_order(measure)
    L, R = config.left_param, config.right_param
    j1 = _first_bessel_zero(b)
    lamD_L = (j1 / L) ** 2
    lamD_R = (j1 / R) ** 2
    bracket = (min(lamD_L, lamD_R), max(lamD_L, lamD_R))

    if config.is_symmetric:
        freq = j1 / L
        sq = _power_square_integral(measure, b, freq, L)
        amp = 1.0 / math.sqrt(2.0 * measure.angular_constant * sq)
        sol = _assemble_power_solution(config, b, freq, amp, amp, bracket)
        sol.nonlocal_c = 0.0  # antisymmetric eigenfunction, exactly
        return sol

    f_lo = math.sqrt(bracket[0])
    f_hi = math.sqrt(bracket[1])

    def D(freq: float) -> float:
        pL = _g_profile(b, freq, L)
        pR = _g_profile(b, freq, R)
        return (_power_mean(b, freq, L, pL) * pR
                + _power_mean(b, freq, R, pR) * pL)

    f_hat = _find_first_root(D, f_lo, f_hi, "power")
    pL = _g_profile(b, f_hat, L)
    pR = _g_profile(b, f_hat, R)
    A, B = pR, -pL
    sL = _power_square_integral(measure, b, f_hat, L)
    sR = _power_square_integral(measure, b, f_hat, R)
    scale = 1.0 / math.sqrt(measure.angular_constant * (A * A * sL + B * B * sR))
    interior = _g_profile(b, f_hat, 0.5 * L) - pL
    if A * interior < 0:
        scale = -scale
    return _assemble_power_solution(config, b, f_hat, A * scale, B * scale,
                                    bracket)


def _assemble_power_solution(config, order, freq, A, B, bracket):
    measure = config.measure
    L, R = config.left_param, config.right_param
    pL = _g_profile(order, freq, L)
    pR = _g_profile(order, freq, R)
    c = -A * freq * freq * pL
    du_left = abs(A * _g_deriv(order, freq, L))
    du_right = abs(B * _g_deriv(order, freq, R))
    mean_res = measure.angular_constant * abs(
        A * _power_mean(order, freq, L, pL)
        - B * _power_mean(order, freq, R, pR))
    match_res = abs(A * pL + B * pR)

    def u_left(r: float) -> float:
        if not 0.0 <= r <= L + 1e-12:
            raise DomainError(f"left component lives on 0 <= r <= {L:g}")
        return A * (_g_profile(order, freq, r) - pL)

    def u_right(r: float) -> float:
        if not 0.0 <= r <= R + 1e-12:
            raise DomainError(f"right component lives on 0 <= r <= {R:g}")
        return B * (pR - _g_profile(order, freq, r))

    rl = np.linspace(0.0, L, 66)[:-1]
    rr = np.linspace(0.0, R, 66)[:-1]
    sgn_l, ok_l = _profile_sign(A * (_g_profile(order, freq, rl) - pL))
    sgn_r, ok_r = _profile_sign(B * (pR - _g_profile(order, freq, rr)))
    profiles = [
        EigenfunctionProfile("left", sgn_l, lambda t: u_left(max(L - t, 0.0))),
        EigenfunctionProfile("right", sgn_r, lambda t: u_right(max(R - t, 0.0))),
    ]
    return TwistedSolution(
        eigenvalue=freq * freq, config=config, freq=freq,
        alpha=1.0 - (measure.n + measure.k) / 2.0,
        amp_left=A, amp_right=B, nonlocal_c=c,
        du_left=du_left, du_right=du_right,
        normalization=1.0, bracket_dirichlet=bracket,
        mean_residual=mean_res, matching_residual=match_res,
        single_signed=ok_l and ok_r,
        profiles=profiles, u_left_at=u_left, u_right_at=u_right)


def solve(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a pair of either measure family."""
    if config.measure.is_gaussian:
        return twisted_pair_gauss(config)
    return twisted_pair_power(config)


# ----------------------------------------------------------------------
# Step-3 ratio functions and the gradient gap
# ----------------------------------------------------------------------

def boundary_gradient_gap(sol: TwistedSolution,
                          config: Optional[PairConfig] = None) -> float:
    """du_right^2 - du_left^2; zero at symmetric configurations.

    The larger-mass component carries the smaller squared boundary gradient
    (tested property), so the gap is positive exactly when the left
    component is the heavier one.
    """
    if config is not None and config is not sol.config:
        if (config.left_param, config.right_param) != (
                sol.config.left_param, sol.config.right_param):
            raise DomainError("solution was not produced for this config")
    return sol.du_right ** 2 - sol.du_left ** 2


def psi_nu(nu: float, t: float) -> float:
    """H_{nu-1}(t) / H_nu(t), defined beyond the largest zero of H_nu."""
    if nu > 1.0:
        z = specfun.hermite_largest_zero(nu)
        if t <= z:
            raise DomainError(
                f"psi_nu: t={t:g} not beyond the largest zero {z:g}")
    elif t <= 0.0 and nu == 1.0:
        raise DomainError("psi_nu: H_1 vanishes at t=0")
    denom = specfun.hermite_value(nu, t)
    if denom == 0.0:
        raise DomainError(f"psi_nu: H_nu({t:g}) = 0")
    return specfun.hermite_value(nu - 1.0, t) / denom


def phi_alpha(order: float, s: float) -> float:
    """-J_{order+1}(s) / J_order(s) on [0, j_{order,1}); negative there.

    `order` is the positive profile order (n+k)/2 - 1, i.e. minus the
    exponent alpha of the radial profile.
    """
    if s < 0:
        raise DomainError("phi_alpha: need s >= 0")
    num = specfun.bessel_j_scaled_vec(order + 1.0, s)
    den = specfun.bessel_j_scaled_vec(order, s)
    if den == 0.0 or abs(den) < 1e-300:
        raise DomainError(f"phi_alpha: J_order vanishes at s={s:g}")
    return -(s / 2.0) * num / den
