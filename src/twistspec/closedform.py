"""Transcendental eigenvalue solvers for isoperimetric pairs.

Single components first: the Dirichlet eigenvalue of a Gaussian half-space
{x_1 > L} is 2 nu* with nu* the smallest positive degree at which the
Hermite function vanishes at L; the Dirichlet eigenvalue of a weighted
half-ball of radius R is (j_{b,1}/R)^2 with b = (n+k)/2 - 1.  The first two
Gaussian degree roots come from stored Chebyshev tables of nu_1(L) and
nu_2(L) on [0, 5], certified by the sign change of H_nu(L) a small delta
either side of the table value (`_degree_root`).

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
w/(x* - x) with the residue w = -M(x*) / (dp/dx)(x*), in closed form for
both families (`_Family.residue`) with no special-function call.  Where
the power bracket ends at the Bessel series ceiling instead of a pole, f
is evaluated there and the model keeps one pole.  A power f comes with its
exact slope f', a closed-form combination of the boundary states f already
holds (`_power_slope`), and the secular step builds its model from it; a
gaussian f' needs d/dnu H_nu, a complex-step jet per component
(`_gauss_slope`) that costs more than the steps it saves, so the model's
remainder takes the secant slope there, and the jet runs once, at the root,
for the normalization.

The pair roots depend on the measure only through its family and, for
power measures, through n + k: the angular constant c_{n,k} scales the
normalization alone.  So every power measure with one n + k shares one
cached record (`_power_family`), and every gaussian measure the record
_GAUSS.

Power pairs are solved at one scale: the measures are homogeneous,
lambda(cL, cR) = lambda(L, R) / c^2, so a pair is solved at radii times
2^-e, e the even exponent of max(L, R), and each value is reported times
its exact power of two.  The floats are the only limit: a reported value
that is not a normal float raises ResourceError naming it, as does a
smaller radius whose Dirichlet value leaves the floats at that scale.

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
two-signed one (n = 1 has none).  `solve` returns lambda_T as `eigenvalue`,
the root as `pair_root`, and which of the two it took as `branch`; the
tangential level (`_Family.tangential`) needs j_{b+1,1} only on a
two-signed power pair, where it lies below f max(L, R) and so below the
series ceiling.  Split scans run on the fixed window s in [0.3, 0.7]
(shapeopt.DEFAULT_WINDOW) and report whether every solution was
single-signed.

The weighted mean integrals inside D are exact: from
(e^{-t^2} H_{nu-1})' = -e^{-t^2} H_nu on the Gaussian side and from
int_0^X r^{b+1} J_b(f r) dr = X^{b+1} J_{b+1}(f X)/f (DLMF 10.22.1) on the
power side.  D needs H_nu and H_{nu-1} (or g and Jhat_{b+1}) at both
boundaries, one specfun.hermite_state (bessel_state) pass each.  The
normalization is the slope of f (Golub 1973: ||(T - lambda)^{-1} v||^2 =
d/dlambda <v, (T - lambda)^{-1} v>): profile - p = lambda p (T - lambda)^{-1} 1
on a component with Dirichlet operator T, so int (profile - p)^2 =
p^2 lambda d(M/p)/dlambda - M p.  At an asymmetric root D = 0, A = p_R and
B = -p_L, so A^2 S_L + B^2 S_R = (p_L p_R)^2 lambda f'(x) / lambda'(x); at a
symmetric pair the root is the pole (p = 0), and the sum is
lambda (M_L^2/w_L + M_R^2/w_R) / lambda'(x), w the residues.  No solve uses
quadrature.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Optional

import numpy as np

from . import measures, numerics, specfun
from .errors import AccuracyError, DomainError, NumericalError, ResourceError
from .measures import MeasureSpec, PairConfig


@dataclass
class TwistedSolution:
    """First twisted eigenpair of a two-component configuration.

    `eigenvalue` is lambda_T.  The other fields describe the pair
    eigenfunction and its secular root `pair_root`, which is lambda_T
    unless `branch` is "tangential": n >= 2 and a two-signed pair, whose
    lambda_T is the larger component's first tangential mode (module
    docstring)."""
    eigenvalue: float
    config: PairConfig
    pair_root: float = 0.0
    branch: str = "pair"               # "pair" or "tangential"
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
# table value g, whose regula-falsi point is the root.  The kernel's sign
# changes of nu_1 lie within 5e-13 of g; those of nu_2 lie up to 4e-12 off
# g on L in [4, 5) (rounding in the Kummer combination): delta_2 is wider.
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
    """First Dirichlet eigenvalue 2 nu_1(L) of the Gaussian half-space at
    offset L in [0, 5) (DomainError elsewhere): `_degree_root` on the table
    _NU1_CHEB (4e-15 from mpmath) with delta_1 = 1e-12.  The table's slope
    gives the pair solver the secular residue at this pole (_gauss_residue)
    with no Hermite call."""
    return _degree_root("dirichlet_halfspace_gauss", L, _NU1_CHEB, _NU1_DELTA)


def second_dirichlet_halfspace_gauss(L: float) -> float:
    """Second Dirichlet eigenvalue 2 nu_2(L), as dirichlet_halfspace_gauss
    from the table _NU2_CHEB with the wider delta_2 = 1e-11 (_NU2_DELTA)."""
    return _degree_root("second_dirichlet_halfspace_gauss", L, _NU2_CHEB,
                        _NU2_DELTA)


def _gauss_mean(nu: float, a: float, h: float, hm: float) -> float:
    """int_a^inf (H_nu(t) - H_nu(a)) d gamma_1, with h = H_nu(a) and
    hm = H_{nu-1}(a): e^{-a^2} hm / sqrt(pi) - h erfc(a) / 2."""
    return math.exp(-a * a) / specfun.SQRT_PI * hm - 0.5 * math.erfc(a) * h


def _gauss_slope(nu: float, a: float, h: float, hm: float) -> float:
    """d/dnu of the secular term M/h = e^{-a^2} H_nu' / (2 nu sqrt(pi) h) -
    erfc(a)/2, h = H_nu(a), hm = H_{nu-1}(a), H_nu' = 2 nu hm, with the
    degree derivatives dH_nu, dH_nu' of one complex-step Hermite jet."""
    _, _, dh, dhp = specfun._hermite_jet(nu, a)
    return (math.exp(-a * a) / specfun.SQRT_PI
            * ((dhp - 2.0 * hm) / (2.0 * nu) - hm * dh / h) / h)


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

def dirichlet_halfball_power(measure: MeasureSpec, R: float) -> float:
    """First Dirichlet eigenvalue of the weighted half-ball: (j_{b,1}/R)^2,
    by the pair solver's own definition (ResourceError where it is not a
    normal float)."""
    if R <= 0:
        raise DomainError(f"dirichlet_halfball_power: need R > 0, got {R:g}")
    measure.require_solver_order()
    return _power_family(measure.n + measure.k).dirichlet(R)


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


def _power_slope(order: float, freq: float, X: float, g_X: float,
                 j_next: float, mean: float) -> float:
    """d/df of mean / g_X, the power component's term of the secular
    function, from the state alone: with s = (f/2)^b, z = f X, P = 2b + 2,
    dJhat_b/dz = -(z/2) Jhat_{b+1} gives f g' = b g_X - s z^2 j_next / 2,
    and Jhat_b - (b+1) Jhat_{b+1} = -(z^2/4) Jhat_{b+2} gives
    f M' = X^P s z^2 j_next / (2P) - (b+2) M; in (M' - M g'/g_X) / g_X the
    terms in M collect to
        (s z^2 j_next (X^P / P + M / g_X) / 2 - P M) / (f g_X),
    b = order, f = freq, M = mean."""
    p = 2.0 * order + 2.0
    s_zz = (freq / 2.0) ** order * (freq * X) ** 2
    return ((0.5 * s_zz * j_next * (X ** p / p + mean / g_X) - p * mean)
            / (freq * g_X))


def _power_deriv(order: float, freq: float, X: float, g_X: float,
                 j_next: float) -> float:
    """g'(X) = -freq X (freq/2)^{order+1} Jhat_{order+1}(freq X)."""
    return -freq * X * (freq / 2.0) ** (order + 1.0) * j_next


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
    Jhat_{b+1}(f a)); the mean identity, the boundary derivative, the
    tangential level and the power slope need nothing else.  `slope(x, a,
    p, q, M)` is d/dx of the component's secular term M/p, M = mean(x, a,
    p, q), which normalizes the eigenfunction; the secular steps take it
    only where `step_slope` is set (a gaussian one takes a Hermite jet).
    `top` gives Lambda_2 with the component whose profile vanishes there,
    or None where Lambda_2 is the end of the series region and no pole;
    `residue(x, a, k)` is -M(x) / (dp/dx)(x) at the k-th root x of the
    profile value p at a.  `tangential(Lambda_1, q, a)` is the first
    zero-mean Dirichlet value of the larger component a (module docstring),
    or inf where q shows that it lies above the pair root.
    `weight(measure)` is the measure's angular constant, which scales the
    normalization and nothing else, so one record serves every measure of a
    family with the same n + k.
    """
    name: str
    var: str
    weight: Callable[[MeasureSpec], float]  # angular constant; 1 for gaussian
    lam: Callable[[float], float]       # x -> eigenvalue
    dlam: Callable[[float], float]      # x -> d(eigenvalue)/dx
    x_of: Callable[[float], float]      # eigenvalue -> x
    labels: Callable[[float], dict]     # x -> family fields of the solution
    dirichlet: Callable[[float], float]               # a -> Dirichlet value
    top: Callable[..., tuple]           # (a, other, Lambda_1, hi) -> (Lambda_2, a2)
    residue: Callable[[float, float, int], float]     # (pole x, a, k) -> w
    state: Callable[[float, float], tuple[float, float]]
    profile: Callable[[float, float], float]          # (x, t) -> profile at t
    mean: Callable[..., float]          # (x, a, p, q) -> int (profile - p)
    slope: Callable[..., float]         # (x, a, p, q, M) -> d(M/p)/dx
    step_slope: bool                    # the secular steps take `slope`
    deriv: Callable[..., float]         # (x, a, p, q) -> profile'(a)
    tangential: Callable[[float, float, float], float]  # (Lambda_1, q, a)
    inside: Callable[[float], float]    # a -> interior profile argument
    argument: Callable[[str, float, float], float]    # (side, a, coordinate)
    degree: float = 0.0     # u scales like length^-degree: power (n+k)/2


# Public functions are looked up when called, so that wrappers installed on
# the modules (tracing, test doubles) see every call.
_GAUSS = _Family(
    name="gaussian", var="nu", weight=lambda measure: 1.0,
    lam=lambda nu: 2.0 * nu, dlam=lambda nu: 2.0, x_of=lambda lam: lam / 2.0,
    labels=lambda nu: {"nu": nu},
    dirichlet=lambda a: dirichlet_halfspace_gauss(a), top=_gauss_top,
    residue=_gauss_residue,
    state=lambda nu, a: specfun.hermite_state(nu, a),
    profile=lambda nu, t: specfun.hermite_value(nu, t),
    mean=_gauss_mean, step_slope=False,
    slope=lambda nu, a, h, hm, mean: _gauss_slope(nu, a, h, hm),
    deriv=lambda nu, a, h, hm: 2.0 * nu * hm,
    tangential=lambda lam1, hm, a: lam1 + 2.0,
    inside=lambda a: a + 0.5, argument=_gauss_argument)


@lru_cache(maxsize=64)
def _power_family(degree_sum: float) -> _Family:
    """The record of every power measure with n + k = degree_sum > 2: the
    pair roots depend on (n, k) only through n + k, and the angular
    constant c_{n,k}, which scales the normalization alone, is read from
    the measure at solve time (`weight`)."""
    b = degree_sum / 2.0 - 1.0
    alpha = 1.0 - degree_sum / 2.0
    j1, j2 = _bessel_zero_pair(b)

    def top(a: float, other: float, lam1: float,
            lam_hi: float) -> tuple[float, Optional[float]]:
        lam2 = (j2 / a) ** 2
        if lam2 < lam_hi:       # j2 is j_{b,2}, or else the series ceiling
            return lam2, a if j2 < specfun.BESSEL_SERIES_RMAX else None
        return lam_hi, other

    def dirichlet(a: float) -> float:
        # in a pair solve a is a scaled radius, and one far below the
        # other leaves the floats
        try:
            lam = (j1 / a) ** 2
        except (OverflowError, ZeroDivisionError):
            lam = math.inf
        if sys.float_info.min <= lam < math.inf:
            return lam
        raise ResourceError(
            f"power half-ball of radius r = {a:.3g} (in a pair solve, the "
            f"smaller radius at the unit scale): its Dirichlet value "
            f"(j_b1 / r)^2, a pair's bracket_dirichlet[1], is not a normal "
            f"float")

    def tangential(lam1: float, q: float, a: float) -> float:
        # q < 0 puts j_{b+1,1} below f a, which the bracket keeps below the
        # series ceiling; where q >= 0 the level lies above the root, and
        # j_{b+1,1} may lie beyond the ceiling, so it is not computed
        if q >= 0.0:
            return math.inf
        return (_bessel_zero_pair(b + 1.0)[0] / a) ** 2

    return _Family(
        name="power", var="freq",
        weight=lambda measure: measure.angular_constant,
        lam=lambda f: f * f, dlam=lambda f: 2.0 * f, x_of=math.sqrt,
        labels=lambda f: {"freq": f, "alpha": alpha},
        dirichlet=dirichlet, top=top,
        # J_b' = -J_{b+1} at a zero j of J_b: M = a^{b+1} J_{b+1}(j) / f and
        # dp/df = -a^{1-b} J_{b+1}(j), with no Bessel call
        residue=lambda f, a, k: a ** (2.0 * b) / f,
        state=partial(_power_state, b), profile=partial(_g_profile, b),
        mean=partial(_power_mean, b), slope=partial(_power_slope, b),
        step_slope=True, deriv=partial(_power_deriv, b), tangential=tangential,
        inside=lambda a: 0.5 * a, argument=_power_argument,
        degree=degree_sum / 2.0)


# The reach of rounding in the secular iteration, relative to the top of
# the bracket: it stops at the rounding floor once the steps are below it.
_SECULAR_TAU = 1e-14


def _solve_pair(config: PairConfig, fam: _Family,
                e: int = 0) -> TwistedSolution:
    """The pair solve of either family: the root of the secular function
    on the interlacing bracket (module docstring), then amplitudes,
    normalization and diagnostics from the boundary states the root search
    already holds.  Where Lambda_2 is the end of the series region and no
    pole, f is evaluated there once, and f < 0 leaves no root.  It runs at
    the parameters times 2^-e and reports eigenvalue and bracket times 4^-e,
    x and the amplitudes times 2^-e, u times kappa = 2^(-e degree), du times
    kappa 2^-e and c times kappa 4^-e (`put`); residuals keep its scale."""
    L, R = map(math.ldexp, (config.left_param, config.right_param), (-e, -e))
    lam_L = fam.dirichlet(L)
    lam_R = lam_L if R == L else fam.dirichlet(R)
    bracket = (min(lam_L, lam_R), max(lam_L, lam_R))
    # the component with Lambda_1, and the other one
    big, small = (L, R) if lam_L <= lam_R else (R, L)
    states: dict[float, tuple] = {}

    def secular(x: float) -> tuple[float, Optional[float]]:
        (pL, qL), (pR, qR) = states[x] = fam.state(x, L), fam.state(x, R)
        mL, mR = fam.mean(x, L, pL, qL), fam.mean(x, R, pR, qR)
        value = mL / pL + mR / pR
        if not fam.step_slope:
            return value, None
        return value, fam.slope(x, L, pL, qL, mL) + fam.slope(x, R, pR, qR, mR)

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
    mL = fam.mean(x, L, pL, qL)
    mR = mL if st_R is st_L else fam.mean(x, R, pR, qR)
    # the squared norm A^2 S_L + B^2 S_R from the secular slope (module
    # docstring): at a pole root (p = 0) p^2 d(M/p)/dx -> M^2 / w
    if config.is_symmetric:
        norm = mL * mL / fam.residue(x, L, 1) + mR * mR / fam.residue(x, R, 1)
    else:
        norm = (pL * pR) ** 2 * (fam.slope(x, L, pL, qL, mL)
                                 + fam.slope(x, R, pR, qR, mR))
    root = fam.lam(x)
    weight = fam.weight(config.measure)
    scale = 1.0 / math.sqrt(weight * root / fam.dlam(x) * norm)
    # orient the left component positive
    if A * (fam.profile(x, fam.inside(L)) - pL) < 0:
        scale = -scale
    A, B = A * scale, B * scale
    tangential = fam.tangential(bracket[0], qL if big == L else qR, big)
    # n = 1 has no tangential mode
    lam = min(root, tangential) if config.measure.n >= 2 else root
    i = math.floor(-e * fam.degree)         # kappa = frac 2^i
    frac = 2.0 ** (-e * fam.degree - i)     # 1.0 where e degree is whole
    kA, kB = A * frac, B * frac

    def put(name: str, v: float, shift: int) -> float:
        ex = math.frexp(v)[1] + shift
        if 0.0 < abs(v) < math.inf and -1021 <= ex <= 1024:
            return math.ldexp(v, shift)
        raise ResourceError(
            f"{fam.name} pair L={config.left_param:g}, "
            f"R={config.right_param:g}: {name} = {v:.6g} * 2^{shift} is not "
            f"a normal float")

    def u_at(side: str, a: float, amp: float, p: float):
        return lambda t: math.ldexp(amp * (fam.profile(x, math.ldexp(
            fam.argument(side, a, t), -e)) - p), i)

    return TwistedSolution(
        eigenvalue=put("eigenvalue", lam, -2 * e), config=config,
        pair_root=put("pair_root", root, -2 * e),
        branch="pair" if lam == root else "tangential",
        **fam.labels(put(fam.var, x, -e)),
        bracket_dirichlet=(put("bracket_dirichlet[0]", bracket[0], -2 * e),
                           put("bracket_dirichlet[1]", bracket[1], -2 * e)),
        amp_left=put("amp_left", A, -e), amp_right=put("amp_right", B, -e),
        # antisymmetric eigenfunction at a symmetric pair: c = 0 exactly
        nonlocal_c=0.0 if config.is_symmetric else put(
            "nonlocal_c", -root * kA * pL, i - 2 * e),
        du_left=put("du_left", abs(kA * fam.deriv(x, L, pL, qL)), i - e),
        du_right=put("du_right", abs(kB * fam.deriv(x, R, pR, qR)), i - e),
        mean_residual=weight * abs(A * mL - B * mR),
        matching_residual=abs(A * pL + B * pR),
        single_signed=root <= tangential,
        u_left_at=u_at("left", config.left_param, kA, pL),
        u_right_at=u_at("right", config.right_param, -kB, pR))


def twisted_pair_gauss(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a Gaussian half-space pair."""
    if not config.measure.is_gaussian:
        raise DomainError("twisted_pair_gauss needs a gaussian PairConfig")
    return _solve_pair(config, _GAUSS)


def twisted_pair_power(config: PairConfig) -> TwistedSolution:
    """First twisted eigenvalue of a half-ball pair, solved at unit scale."""
    m, L, R = config.measure, config.left_param, config.right_param
    if m.is_gaussian:
        raise DomainError("twisted_pair_power needs a power PairConfig")
    m.require_solver_order()
    return _solve_pair(config, _power_family(m.n + m.k),
                       2 * (math.frexp(max(L, R))[1] // 2))


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
