"""Transcendental eigenvalue solvers for isoperimetric pairs.

Single components first: the Dirichlet eigenvalue of a Gaussian half-space
{x_1 > L} is 2 nu* with nu* the smallest positive degree at which the
Hermite function vanishes at L; the Dirichlet eigenvalue of a weighted
half-ball of radius R is (j_{b,1}/R)^2 with b = (n+k)/2 - 1.  The first two
Gaussian degree roots come from stored Chebyshev tables of nu_1(L) and
nu_2(L) on [0, 5], and two Hermite calls a small delta either side of the
table value give a sign change whose regula-falsi point is the root; signs
that agree mean the table and the Hermite kernel disagree, and raise
NumericalError.

For a two-component configuration the first zero-weighted-mean eigenvalue is
pinned by a 2x2 homogeneous system in the component amplitudes (A, B): the
matching condition (the nonlocal constant must agree across components) and
the zero-mean condition.  By rank-one interlacing the constrained spectrum
has exactly one value in (Lambda_1, Lambda_2], where Lambda_1 is the smaller
component Dirichlet value and Lambda_2 = min(Dirichlet value of the smaller
component, second Dirichlet value of the larger one); the determinant
D = M_L p_R + M_R p_L (M the mean integral, p the boundary profile value)
changes sign there once.  Divided by p_L p_R it is the secular function
f = M_L/p_L + M_R/p_R, whose poles are the bracket ends, and the two-pole
secular step that the oracle also uses, numerics.find_root, the only root
finder of this module, finds its root: near a pole x*, f runs like
w/(x* - x) with the residue w = -M(x*) / (dp/dx)(x*), which is a^{2b}/f*
for power (J_b' = -J_{b+1} at a zero) and e^{-a^2} nu_k'(a) /
(2 sqrt(pi) nu_k) for gaussian, nu_k' the L-derivative of the degree table
of the pole's root (derivation beside _NU1_CHEB); neither calls a special
function.  Where the power
bracket ends at the Bessel series ceiling instead of a pole, f is
evaluated there and the model keeps one pole.

Gaussian component profiles (x_1-reduced, degree nu, eigenvalue 2 nu):

    u_L = A (H_nu(-x_1) - H_nu(L))   on {x_1 < -L}
    u_R = B (H_nu(R) - H_nu(x_1))    on {x_1 > R}

with matching  A H_nu(L) + B H_nu(R) = 0  and nonlocal constant
c = -2 nu A H_nu(L).  Radial power profiles (frequency f, eigenvalue f^2):

    u_L = A (g(r) - g(L)),  u_R = B (g(R) - g(r)),  g(r) = r^{-b} J_b(f r)

with matching  A g(L) + B g(R) = 0  and  c = -A f^2 g(L).

A profile is single-signed exactly when it is monotone on its component.
Radial: g' vanishes first at j_{b+1,1}/f, so the test is J_{b+1}(f max(L, R))
>= 0 (f max(L, R) < j_{b,2} < j_{b+1,2} on the bracket).  Gaussian:
H_nu' = 2 nu H_{nu-1} has no zero beyond a iff nu - 1 <= nu*(a), i.e.
lambda <= Lambda_1 + 2.  For n >= 2 a two-signed pair's lambda_T is not the
root: separating variables on a component (Ornstein-Uhlenbeck modes in x',
eigenvalues 2m; harmonics of degree l, Bessel order b + l), a mode with
m, l >= 1 has zero mean by itself, so lambda_T = min(root, tangential value
Lambda_1 + 2 or (j_{b+1,1}/max(L, R))^2), and that value is the single-sign
edge: lambda_T is the root on a single-signed pair, the tangential value on a
two-signed one (n = 1 has none).  `solve` still returns the pair root there,
with `single_signed` false; split scans run on the fixed window s in
[0.3, 0.7] (shapeopt.DEFAULT_WINDOW) and report whether every solution was
single-signed.

The weighted mean integrals inside D are exact: from
(e^{-t^2} H_{nu-1})' = -e^{-t^2} H_nu on the Gaussian side and from
int_0^X r^{b+1} J_b(f r) dr = X^{b+1} J_{b+1}(f X)/f (DLMF 10.22.1) on the
power side.  D needs H_nu and H_{nu-1} (or g and Jhat_{b+1}) at both
boundaries; specfun.hermite_state gives each Hermite pair from one Kummer
pass and specfun.bessel_state each Bessel pair from one series pass, so a
gaussian D costs two hermite_state calls and a power D two bessel_state
calls.  The power normalization is exact as well (Lommel, DLMF 10.22.5),
and so is the gaussian one: the Lagrange identity in the degree,
int_a^inf H_nu^2 e^{-t^2} dt = e^{-a^2} (H_nu dH_nu' - H_nu' dH_nu)(a) / 2
with d = d/dnu, needs the Hermite function and its degree derivative at the
boundary only.  No solve uses quadrature.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import measures, numerics, specfun
from .errors import AccuracyError, DomainError, NumericalError, ResourceError
from .measures import MeasureSpec, PairConfig


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
    bracket_dirichlet: tuple[float, float] = (0.0, 0.0)
    mean_residual: float = 0.0
    matching_residual: float = 0.0
    single_signed: bool = True
    u_left_at: Callable[[float], float] = None   # physical coordinate
    u_right_at: Callable[[float], float] = None


# ----------------------------------------------------------------------
# Gaussian half-space machinery
# ----------------------------------------------------------------------

# Chebyshev coefficients of nu_1(L) and nu_2(L), the first two roots of
# nu -> H_nu(L), in x = 2L/5 - 1 on L in [0, 5] (Trefethen, Approximation
# Theory and Approximation Practice, ch. 3; Battles & Trefethen 2004).
# Recipe: mpmath 1.3.0 at dps = 30, mp.findroot(lambda n: mp.hermite(n, L),
# guess) at the 25 Chebyshev-Lobatto nodes L_k = 5 (1 + cos(pi k / 24)) / 2,
# then c_j = (2/24) sum'' nu(L_k) cos(pi j k / 24) (ends of the sum halved,
# c_0 and c_24 halved too).  The coefficients fall to 3e-16, so the
# interpolant is good to rounding.
#
# The tables' L-derivatives give the residues of the secular function at
# the gaussian poles (_gauss_residue).  Along a root curve nu_k(L),
# H_{nu_k(L)}(L) = 0, so d/dL of it vanishes:
#     d/dnu H_nu(L) nu_k'(L) + H_nu'(L) = 0,   H_nu' = 2 nu H_{nu-1},
# hence d/dnu H_nu(a) = -2 nu H_{nu-1}(a) / nu_k'(a) at the pole nu = nu_k(a).
# There the mean integral is M = e^{-a^2} H_{nu-1}(a) / sqrt(pi) (_gauss_mean
# with H_nu(a) = 0), and in the residue -M / (d/dnu H_nu(a)) the factor
# H_{nu-1}(a) cancels:
#     w_k(a) = e^{-a^2} nu_k'(a) / (2 sqrt(pi) nu_k(a)).
# With T_j' = j U_{j-1}, nu_k'(L) = (2/5) sum_j j c_j U_{j-1}(2L/5 - 1)
# (Trefethen, ATAP ch. 11).  Against mpmath 1.3.0 residues -M / mp.diff at
# 25 offsets in [0.01, 4.99] this w_k is within 2.1e-15 relative for k = 1
# and 1.3e-15 for k = 2; a complex-step Hermite jet (specfun._hermite_jet)
# is within 1.2e-13 and 2.7e-12.  The residue only shapes the secular
# model; the sign bracket decides the root.
_NU1_CHEB = (
    7.92669936275543, 8.34341357247333, 1.438457935808868,
    0.01786814814539262, -0.0031434815185949036, 0.0005925877325007755,
    -0.00011353507431900454, 2.1402787259065073e-05, -3.85076534123311e-06,
    6.322550611963892e-07, -8.540971892171337e-08, 5.742240553363406e-09,
    1.7743805275953058e-09, -1.0577971460940506e-09, 3.6811001261342827e-10,
    -1.0524249971930997e-10, 2.6539844173794973e-11, -5.992775167223075e-12,
    1.1910128859533086e-12, -1.9378905960414177e-13, 1.8498291184939303e-14,
    3.0820530638625958e-15, -2.5748048736473117e-15, 1.0897972191819842e-15,
    -3.134850634779801e-16)
_NU2_CHEB = (
    11.281040338534673, 9.66790468286137, 1.405533174148989,
    0.016476992651574734, -0.0019561693868118332, 0.00021841905769138373,
    -1.8081984304158337e-05, -1.7261339311848938e-07, 5.154004905356192e-07,
    -1.3359592433670075e-07, 1.7204167380259834e-08, 1.987331493970752e-09,
    -2.213244146528929e-09, 9.38148141762797e-10, -3.0514442418557395e-10,
    8.525070766746048e-11, -2.1132993891710004e-11, 4.64537833977368e-12,
    -8.729959465550906e-13, 1.220723173076971e-13, -3.0689835393131204e-15,
    -6.21610019365723e-15, 3.161634298593229e-15, -1.186212419218065e-15,
    3.252081184918838e-16)

# Half-widths delta of the sign bracket [g - delta, g + delta] around the
# table value g, whose regula-falsi point is the root.  The float kernel's
# sign changes of nu_1 lie within 5e-13 of g; those of nu_2 lie up to 4e-12
# off g on L in [4, 5) (rounding in the Kummer combination), so delta_2 is
# wider.
_NU1_DELTA = 1e-12
_NU2_DELTA = 1e-11


def _chebyshev(coeffs: tuple[float, ...], L: float) -> float:
    """The Chebyshev series sum c_j T_j(2L/5 - 1) by Clenshaw's recurrence."""
    x = 0.4 * L - 1.0
    b1 = b2 = 0.0
    for c in reversed(coeffs[1:]):
        b1, b2 = c + 2.0 * x * b1 - b2, b1
    return coeffs[0] + x * b1 - b2


def _chebyshev_slope(coeffs: tuple[float, ...], L: float) -> float:
    """d/dL of the Chebyshev series sum c_j T_j(2L/5 - 1): the series
    (2/5) sum_{j >= 1} j c_j U_{j-1}(2L/5 - 1) by Clenshaw's recurrence."""
    x = 0.4 * L - 1.0
    b1 = b2 = 0.0
    for j in range(len(coeffs) - 1, 0, -1):
        b1, b2 = j * coeffs[j] + 2.0 * x * b1 - b2, b1
    return 0.4 * b1


def _degree_root(what: str, L: float, coeffs: tuple[float, ...],
                 delta: float) -> float:
    """2 nu for a root of nu -> H_nu(L), L in [0, specfun.HERMITE_SWITCH_T),
    from the Chebyshev table `coeffs`, certified by a sign bracket.

    Two Hermite calls at g -/+ delta around the table value g give a sign
    bracket whose regula-falsi point is the root.  Consecutive roots lie at
    least 2 apart and the table is good to rounding, so the sign change is
    the root the table stands for.  Offsets outside [0, HERMITE_SWITCH_T)
    raise DomainError: beyond the switch point H_nu comes from the large-t
    expansion, which is not valid near its zeros.  Signs that agree raise
    NumericalError: the table and the Hermite kernel disagree.
    """
    if L < 0:
        raise DomainError(f"{what}: need L >= 0, got {L:g}")
    t_switch = specfun.HERMITE_SWITCH_T
    if L >= t_switch:
        raise DomainError(
            f"{what}: offset L={L:g} is at or beyond the Hermite switch point "
            f"t={t_switch:g} (component mass {measures.k_gauss(t_switch):.2g}); "
            f"the large-t expansion of H_nu is not valid at its zeros")
    g = _chebyshev(coeffs, L)
    a, b = g - delta, g + delta
    f_a, f_b = specfun.hermite_value(a, L), specfun.hermite_value(b, L)
    if not f_a * f_b <= 0.0:
        raise NumericalError(
            f"{what}: no sign change of H_nu(L) across the degree table value "
            f"at L={L!r}: H_nu = {f_a!r} at nu = {a!r} and {f_b!r} at "
            f"nu = {b!r} (table value {g!r}, delta {delta:g})")
    # the regula-falsi point, with f_a / (f_a - f_b) in [0, 1]
    x = a + (b - a) * f_a / (f_a - f_b) if f_a else a
    return 2.0 * min(max(x, a), b)


def dirichlet_halfspace_gauss(L: float) -> float:
    """First Dirichlet eigenvalue of the Gaussian half-space at offset L.

    2 nu* with nu* the smallest positive root of nu -> H_nu(L), for L in
    [0, specfun.HERMITE_SWITCH_T) = [0, 5); other offsets raise DomainError.
    The start is the Chebyshev table _NU1_CHEB, good to 4e-15 against
    mpmath; two Hermite calls at its value g -/+ delta_1 (delta_1 = 1e-12)
    give a sign bracket that certifies the root, and its regula-falsi point
    is the root.  A bracket without a sign change raises NumericalError.

    The same table's L-derivative nu_1'(L) gives the pair solver the
    residue of its secular function at this pole (_gauss_residue), so the
    pole costs no Hermite call beyond the two above.
    """
    return _degree_root("dirichlet_halfspace_gauss", L, _NU1_CHEB, _NU1_DELTA)


def second_dirichlet_halfspace_gauss(L: float) -> float:
    """Second Dirichlet eigenvalue of the Gaussian half-space at offset L.

    As dirichlet_halfspace_gauss, with its two Hermite calls, domain [0, 5)
    and errors, from the table _NU2_CHEB with the wider delta_2 = 1e-11: on
    L in [4, 5) the kernel's sign changes lie up to 4e-12 off the table.
    """
    return _degree_root("second_dirichlet_halfspace_gauss", L, _NU2_CHEB,
                        _NU2_DELTA)


def _gauss_mean(nu: float, a: float, h: float, hm: float) -> float:
    """int_a^inf (H_nu(t) - H_nu(a)) d gamma_1, with h = H_nu(a) and
    hm = H_{nu-1}(a): e^{-a^2} hm / sqrt(pi) - h erfc(a) / 2."""
    return math.exp(-a * a) / specfun.SQRT_PI * hm - 0.5 * math.erfc(a) * h


def _gauss_square_integral(nu: float, a: float, h: float, hm: float) -> float:
    """int_a^inf (H_nu(t) - H_nu(a))^2 d gamma_1, with h = H_nu(a) and
    hm = H_{nu-1}(a): S_2 - 2 h m_1 + h^2 erfc(a)/2, where m_1 is the mean
    integral e^{-a^2} hm / sqrt(pi) and S_2 = int_a^inf H_nu^2 d gamma_1
    comes from the Lagrange identity: differentiating
    (e^{-t^2} H_nu')' = -2 nu e^{-t^2} H_nu in nu gives
    (e^{-t^2} (H_nu' dH_nu - H_nu dH_nu'))' = 2 e^{-t^2} H_nu^2, d = d/dnu,
    so S_2 = e^{-a^2} (H_nu dH_nu' - H_nu' dH_nu)(a) / (2 sqrt(pi))."""
    H, Hp, dH, dHp = specfun._hermite_jet(nu, a)
    w = math.exp(-a * a) / specfun.SQRT_PI
    return 0.5 * w * (H * dHp - Hp * dH) - 2.0 * h * w * hm \
        + 0.5 * h * h * math.erfc(a)


def _gauss_top(a: float, other: float, lam1: float,
               lam_hi: float) -> tuple[float, Optional[float]]:
    """(Lambda_2, the offset whose profile vanishes there) of a gaussian pair
    whose larger component (offset a) has Dirichlet value lam1 and whose
    other component (offset other) has lam_hi.  The second value of a is at
    least lam1 + 4, so it is only computed when it can undercut lam_hi."""
    if lam_hi - lam1 > 4.0:
        lam2 = second_dirichlet_halfspace_gauss(a)
        if lam2 < lam_hi:
            return lam2, a
    return lam_hi, other


def _gauss_residue(nu: float, a: float, k: int) -> float:
    """Residue -M / (d/dnu H_nu(a)) of M / H_nu(a) at the k-th degree root
    nu of H_nu(a), M the mean integral: e^{-a^2} nu_k'(a) / (2 sqrt(pi) nu)
    with nu_k' the slope of the k-th degree table (derivation beside
    _NU1_CHEB), read from the table at call time, with no Hermite call."""
    coeffs = _NU1_CHEB if k == 1 else _NU2_CHEB
    return (math.exp(-a * a) * _chebyshev_slope(coeffs, a)
            / (2.0 * specfun.SQRT_PI * nu))


def _gauss_argument(side: str, a: float, x: float) -> float:
    """Hermite argument of the physical coordinate x on one component."""
    if side == "left":
        if x > -a + 1e-12:
            raise DomainError(f"left component lives on x <= {-a:g}")
        return -x
    if x < a - 1e-12:
        raise DomainError(f"right component lives on x >= {a:g}")
    return x


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
    return (_bessel_zero_pair(b)[0] / R) ** 2


@lru_cache(maxsize=64)
def _bessel_zero_pair(order: float) -> tuple[float, float]:
    """(j_{order,1}, min(j_{order,2}, BESSEL_SERIES_RMAX)) per profile order,
    from one bessel_zeros call if j_{order,2} is below the ceiling: D needs
    the Bessel series at f a, so the bracket cap f a <= j_{order,2} stops
    there."""
    try:
        j1, j2 = specfun.bessel_zeros(order, 2)
    except AccuracyError:     # j_{order,2} lies beyond the ceiling
        j1, j2 = specfun.bessel_zeros(order, 1)[0], math.inf
    return float(j1), min(float(j2), specfun.BESSEL_SERIES_RMAX)


def _g_profile(order: float, freq: float,
               r: float | np.ndarray) -> float | np.ndarray:
    """g(r) = r^{-order} J_order(freq r), entire in r; float or array r."""
    return (freq / 2.0) ** order * specfun.bessel_j_scaled_vec(order, freq * r)


def _power_state(order: float, freq: float, X: float) -> tuple[float, float]:
    """(g(X), Jhat_{order+1}(freq X)), Jhat = bessel_j_scaled_vec, from one
    specfun.bessel_state pass."""
    j0, j1 = specfun.bessel_state(order, freq * X)
    return (freq / 2.0) ** order * j0, j1


def _power_mean(order: float, freq: float, X: float, g_X: float,
                j_next: float) -> float:
    """int_0^X (g - g(X)) r^{2 order + 1} dr, with g_X = g(X) and
    j_next = Jhat_{b+1}(fX):  X^{2b+2} [(f/2)^{b+1} j_next / f - g_X / (2b+2)],
    b = order, f = freq; 2b+2 = n+k."""
    p = 2.0 * order + 2.0
    return X ** p * ((freq / 2.0) ** (order + 1.0) * j_next / freq - g_X / p)


def _power_deriv(order: float, freq: float, X: float, g_X: float,
                 j_next: float) -> float:
    """g'(X) = -freq X (freq/2)^{order+1} Jhat_{order+1}(freq X)."""
    return -freq * X * (freq / 2.0) ** (order + 1.0) * j_next


def _power_square_integral(order: float, freq: float, X: float, g_X: float,
                           j_next: float) -> float:
    """int_0^X (g - g(X))^2 r^{2b+1} dr in closed form, b = order, z = f X.

    Lommel (DLMF 10.22.5, J_{b-1} eliminated by the recurrence) gives
    int_0^X r J_b(fr)^2 dr = X^2/2 (J_b^2 + J_{b+1}^2 - (2b/z) J_b J_{b+1})(z),
    DLMF 10.22.1 the cross term.  With Jhat_b - (b+1) Jhat_{b+1} =
    -(z^2/4) Jhat_{b+2} the O(1) parts cancel exactly and the sum is
    X^{2b+2} (f/2)^{2b} (z^2/8) (Jhat_{b+1}^2 - (b+2)/(b+1) Jhat_b Jhat_{b+2}),
    which loses digits only like z^{-2} as z -> 0.
    """
    z = freq * X
    j0 = g_X / (freq / 2.0) ** order
    j2 = specfun.bessel_j_scaled_vec(order + 2.0, z)
    return (X ** (2.0 * order + 2.0) * (freq / 2.0) ** (2.0 * order)
            * (z * z / 8.0)
            * (j_next * j_next - (order + 2.0) / (order + 1.0) * j0 * j2))


def _power_argument(side: str, a: float, r: float) -> float:
    # radii scale with the mass, so the rounding slack is relative to a;
    # Gaussian offsets are translations and keep an absolute slack
    if not 0.0 <= r <= a * (1.0 + 1e-12):
        raise DomainError(f"{side} component lives on 0 <= r <= {a:g}")
    return r


# ----------------------------------------------------------------------
# One pair solver over a per-family record
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _Family:
    """A measure family as the pair solver sees it.

    x is the spectral variable `var`: the Hermite degree nu (eigenvalue
    2 nu) or the frequency f (eigenvalue f^2).  A component is given by its
    boundary parameter a (offset or radius).  `state(x, a)` returns the
    boundary profile value p and a companion value q (H_{nu-1}(a), or
    Jhat_{b+1}(f a)); the mean identity, the boundary derivative and the
    single-sign edge need nothing else.  `top` gives Lambda_2 with the
    component whose profile vanishes there, or None where Lambda_2 is the
    end of the series region and no pole; `residue(x, a, k)` is
    -M(x) / (dp/dx)(x) at the k-th root x of the profile value p at a.
    """
    name: str
    var: str
    weight: float                       # angular constant; 1 for gaussian
    lam: Callable[[float], float]       # x -> eigenvalue
    x_of: Callable[[float], float]      # eigenvalue -> x
    labels: Callable[[float], dict]     # x -> family fields of the solution
    dirichlet: Callable[[float], float]               # a -> Dirichlet value
    top: Callable[..., tuple]           # (a, other, Lambda_1, hi) -> (Lambda_2, a2)
    residue: Callable[[float, float, int], float]     # (pole x, a, k) -> w
    state: Callable[[float, float], tuple[float, float]]
    profile: Callable[[float, float], float]          # (x, t) -> profile at t
    mean: Callable[..., float]          # (x, a, p, q) -> int (profile - p)
    square: Callable[..., float]        # (x, a, p, q) -> int (profile - p)^2
    deriv: Callable[..., float]         # (x, a, p, q) -> profile'(a)
    single_signed: Callable[[float, float, float], bool]  # (Lambda_1, x, q)
    inside: Callable[[float], float]    # a -> interior profile argument
    argument: Callable[[str, float, float], float]    # (side, a, coordinate)


# Public functions are looked up when called, so that wrappers installed on
# the modules (tracing, test doubles) see every call.
_GAUSS = _Family(
    name="gaussian", var="nu", weight=1.0,
    lam=lambda nu: 2.0 * nu, x_of=lambda lam: lam / 2.0,
    labels=lambda nu: {"nu": nu},
    dirichlet=lambda a: dirichlet_halfspace_gauss(a), top=_gauss_top,
    residue=_gauss_residue,
    state=lambda nu, a: specfun.hermite_state(nu, a),
    profile=lambda nu, t: specfun.hermite_value(nu, t),
    mean=_gauss_mean, square=_gauss_square_integral,
    deriv=lambda nu, a, h, hm: 2.0 * nu * hm,
    single_signed=lambda lam1, nu, hm: 2.0 * nu <= lam1 + 2.0,
    inside=lambda a: a + 0.5, argument=_gauss_argument)


def _power_family(measure: MeasureSpec) -> _Family:
    b = _profile_order(measure)
    alpha = 1.0 - (measure.n + measure.k) / 2.0
    j1, j2 = _bessel_zero_pair(b)

    def top(a: float, other: float, lam1: float,
            lam_hi: float) -> tuple[float, Optional[float]]:
        lam2 = (j2 / a) ** 2
        if lam2 < lam_hi:       # j2 is j_{b,2}, or else the series ceiling
            return lam2, a if j2 < specfun.BESSEL_SERIES_RMAX else None
        return lam_hi, other

    return _Family(
        name="power", var="freq", weight=measure.angular_constant,
        lam=lambda f: f * f, x_of=math.sqrt,
        labels=lambda f: {"freq": f, "alpha": alpha},
        dirichlet=lambda a: (j1 / a) ** 2, top=top,
        # J_b' = -J_{b+1} at a zero j of J_b: M = a^{b+1} J_{b+1}(j) / f and
        # dp/df = -a^{1-b} J_{b+1}(j), with no Bessel call
        residue=lambda f, a, k: a ** (2.0 * b) / f,
        state=partial(_power_state, b), profile=partial(_g_profile, b),
        mean=partial(_power_mean, b),
        square=partial(_power_square_integral, b),
        deriv=partial(_power_deriv, b),
        single_signed=lambda lam1, f, q: q >= 0.0,
        inside=lambda a: 0.5 * a, argument=_power_argument)


# The reach of rounding in the secular iteration, relative to the top of
# the bracket: it stops at the rounding floor once the steps are below it.
_SECULAR_TAU = 1e-14


def _solve_pair(config: PairConfig, fam: _Family) -> TwistedSolution:
    """The pair solve of either family: the root of the secular function
    on the interlacing bracket (module docstring), then amplitudes,
    normalization and diagnostics from the boundary states the root search
    already holds.  Where Lambda_2 is the end of the series region and no
    pole, f is evaluated there once, and f < 0 leaves no root."""
    L, R = config.left_param, config.right_param
    lam_L = fam.dirichlet(L)
    lam_R = lam_L if R == L else fam.dirichlet(R)
    bracket = (min(lam_L, lam_R), max(lam_L, lam_R))
    # the component with Lambda_1, and the other one
    big, small = (L, R) if lam_L <= lam_R else (R, L)
    states: dict[float, tuple] = {}

    def secular(x: float) -> tuple[float, None]:
        (pL, qL), (pR, qR) = states[x] = fam.state(x, L), fam.state(x, R)
        return fam.mean(x, L, pL, qL) / pL + fam.mean(x, R, pR, qR) / pR, None

    if config.is_symmetric:
        x = fam.x_of(lam_L)
        st_L = fam.state(x, L)
        st_R = st_L if R == L else fam.state(x, R)
        A = B = 1.0
    else:
        lam2, owner = fam.top(big, small, *bracket)
        poles = (fam.x_of(bracket[0]), fam.x_of(lam2))
        # the top pole is the larger component's second root or the
        # other component's first
        residues = (fam.residue(poles[0], big, 1),
                    0.0 if owner is None else
                    fam.residue(poles[1], owner, 2 if owner == big else 1))
        f_top = math.inf                    # f's limit at a pole
        if owner is None:                   # the series ceiling
            f_top = secular(poles[1])[0]
            if not f_top >= 0.0:
                raise NumericalError(
                    f"no sign change of the {fam.name} secular function on "
                    f"the interlacing bracket ({bracket[0]:g}, {lam2:g}]: "
                    f"f = {f_top:.3g} at the series ceiling {fam.var} = "
                    f"{poles[1]:.6g}")
        x = numerics.find_root(secular, numerics.PoleBracket(
            *poles, f_top, poles, residues, _SECULAR_TAU * poles[1],
            fam.var))
        st_L, st_R = states[x]
        A, B = st_R[0], -st_L[0]
    (pL, qL), (pR, qR) = st_L, st_R
    sL = fam.square(x, L, pL, qL)
    sR = sL if st_R is st_L else fam.square(x, R, pR, qR)
    scale = 1.0 / math.sqrt(fam.weight * (A * A * sL + B * B * sR))
    # orient the left component positive
    if A * (fam.profile(x, fam.inside(L)) - pL) < 0:
        scale = -scale
    A, B = A * scale, B * scale
    lam = fam.lam(x)

    def u_left(t: float) -> float:
        return A * (fam.profile(x, fam.argument("left", L, t)) - pL)

    def u_right(t: float) -> float:
        return B * (pR - fam.profile(x, fam.argument("right", R, t)))

    return TwistedSolution(
        eigenvalue=lam, config=config, **fam.labels(x),
        amp_left=A, amp_right=B,
        # antisymmetric eigenfunction at a symmetric pair: c = 0 exactly
        nonlocal_c=0.0 if config.is_symmetric else -lam * A * pL,
        du_left=abs(A * fam.deriv(x, L, pL, qL)),
        du_right=abs(B * fam.deriv(x, R, pR, qR)),
        bracket_dirichlet=bracket,
        mean_residual=fam.weight * abs(A * fam.mean(x, L, pL, qL)
                                       - B * fam.mean(x, R, pR, qR)),
        matching_residual=abs(A * pL + B * pR),
        single_signed=fam.single_signed(
            bracket[0], x, qL if big == L else qR),
        u_left_at=u_left, u_right_at=u_right)


def twisted_pair_gauss(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a Gaussian half-space pair."""
    if not config.measure.is_gaussian:
        raise DomainError("twisted_pair_gauss needs a gaussian PairConfig")
    return _solve_pair(config, _GAUSS)


# Component masses at which every power pair solves.  A radius runs like
# m^{1/(n+k)}, the secular function like m and its slope like
# m^{1 + 1/(n+k)}, inside [1e-300, 1e300] here for n + k > 2; beyond, that
# slope underflows and the secular step stalls, or the integrals overflow.
POWER_MASS_RANGE = (1e-200, 1e200)


def twisted_pair_power(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a weighted half-ball pair.  A component
    mass outside POWER_MASS_RANGE raises ResourceError."""
    m, L, R = config.measure, config.left_param, config.right_param
    if m.is_gaussian:
        raise DomainError("twisted_pair_power needs a power PairConfig")
    fam = _power_family(m)
    # the range's radii: a mass beyond it may not be a float
    r_lo, r_hi = (measures.radius_from_mass(m, x) for x in POWER_MASS_RANGE)
    if not (r_lo <= min(L, R) and max(L, R) <= r_hi):
        raise ResourceError(
            f"twisted_pair_power: power({m.n}, {m.k:g}) pairs solve for "
            f"component masses in [{POWER_MASS_RANGE[0]:g}, "
            f"{POWER_MASS_RANGE[1]:g}], radii [{r_lo:.6g}, {r_hi:.6g}]; got "
            f"L={L:g}, R={R:g}, beyond which the solve leaves the floats")
    return _solve_pair(config, fam)


def solve(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a pair of either measure family."""
    if config.measure.is_gaussian:
        return twisted_pair_gauss(config)
    return twisted_pair_power(config)


# ----------------------------------------------------------------------
# Step-3 ratio functions and the gradient gap
# ----------------------------------------------------------------------

def boundary_gradient_gap(sol: TwistedSolution) -> float:
    """du_right^2 - du_left^2; zero at symmetric configurations.

    The larger-mass component carries the smaller squared boundary gradient
    (tested property), so the gap is positive exactly when the left
    component is the heavier one.
    """
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
    den, num = specfun.bessel_state(order, s)
    if den == 0.0 or abs(den) < 1e-300:
        raise DomainError(f"phi_alpha: J_order vanishes at s={s:g}")
    return -(s / 2.0) * num / den
