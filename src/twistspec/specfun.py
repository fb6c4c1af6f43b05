"""Gamma, Kummer, Hermite-function and Bessel-function evaluators.

Everything here is plain double-precision series/recurrence arithmetic with
explicit switch-overs, on top of the standard library's Gamma function; no
external special-function library is used, so the test suite can
cross-check against scipy independently.

The Hermite function of real degree nu is the solution of

    y'' - 2 t y' + 2 nu y = 0

that grows polynomially as t -> +inf.  At every real nu it is the
Gamma-weighted combination of two Kummer functions

    H_nu(t) = 2^nu sqrt(pi) [ M(-nu/2, 1/2; t^2) / Gamma((1-nu)/2)
                              - 2 t M((1-nu)/2, 3/2; t^2) / Gamma(-nu/2) ].

1/Gamma is entire and vanishes at the poles of Gamma (DLMF 5.2(i)), so at a
non-negative integer n one coefficient is 0 and the other Kummer series
terminates: the same formula is the physicists' Hermite polynomial H_n.

For large positive t the combination above cancels catastrophically, so the
evaluator switches to the algebraic large-argument expansion

    H_nu(t) = (2t)^nu sum_k (-1)^k (-nu)_{2k} / (k! (2t)^{2k}),

with (a)_m the rising factorial, summed until its terms stop shrinking; at
an integer degree it terminates.  The expansion is valid only on the +t
branch: for non-integer nu, H_nu(-t) grows like exp(t^2) and is evaluated by
the series, which is then free of cancellation.  At an integer degree the
series still sums the exp(t^2)-sized Kummer function whose coefficient is
0, so H_n below about t = -22.4 raises AccuracyError, as every degree does there:
that series needs more than KUMMER_MAX_TERMS terms.  `hermite_value(nu, t)`
is the one entry point, with one formula for every degree: the expansion at
t >= HERMITE_SWITCH_T, the series below it.
`hermite_state(nu, t)` returns H_nu and H_{nu-1} from one Kummer pass: the
series also sums its term-by-term derivative (DLMF 13.3.15), which gives
H_nu' = 2 nu H_{nu-1} from the same terms.

The degree derivatives d/dnu H_nu and d/dnu H_nu', which the slope of a
gaussian pair's secular function needs (its normalization), are taken by a
complex step in the degree: one Kummer pass with derivative sums runs at
nu + i d, and the imaginary parts of H and H' over d are the derivatives,
exact to round-off with no difference to cancel.  The Gamma coefficients go through 1/Gamma,
which is entire, so integer degrees need no special case.

A Kummer series stops on a proven tail bound.  From a closed-form index m0
on, every term at most halves, so the omitted tail is at most the last term
added; the series stops at the first term past m0 below SERIES_RTOL of the
sums.  A term that is small before m0 proves nothing: near a terminating
series the terms pass near zero and grow again.

`bessel_state(order, z)` returns the scaled Bessel functions of orders
order and order + 1 from one loop over both ascending series, each sum
taken where its own stop test holds, so both are the bits of the separate
series.

Each branch (Kummer pair, large-t expansion, Bessel series) is one kernel
on plain floats; an array argument maps it over its elements, so floats and
arrays give the same bits.  A non-finite degree, order or argument raises
DomainError.  Every zero finder walks a grid with its float kernel and
bisects the sign changes to adjacent floats (numerics.grid_roots), so it
stops at the last zero it needs; the Bessel grids end at the ceiling.

The float kernels a pair solve calls keep their last 32 results
(functools.lru_cache): _hermite under hermite_value, _hermite_pair under
hermite_state, _hermite_jet and _bessel_pair under bessel_state.
(_bessel_scaled, under bessel_j_scaled_vec, keeps none: no workload
repeats its arguments.)  A split scan solves each
mirrored pair of splits back to back, and the mirror of a split has the
same two components, so its solve repeats every boundary state and
normalization jet of the one before.  The kernels are pure functions of
floats, so a hit returns the bits a miss computes; the public names stay
plain functions, so a wrapper installed on one (a test double, a tracer)
still sees every call.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys

import numpy as np

from . import numerics
from .errors import AccuracyError, DomainError, NumericalError

SQRT_PI = math.sqrt(math.pi)

# Switch from the Kummer combination to the large-t expansion.  Below it the
# series' cancellation grows like e^{t^2} / |H_nu(t)|.  Against mpmath 1.3.0
# it stays within a few 1e-9 relative for degrees from about 1 to 30, but
# reaches 3e-7 at nu = 0.3, t = 4.99, and 5.4e-8 at nu = 40.3, t = 4.5; by
# nu = 80 the value is wrong in its leading digit, and at nu = 200, t = -20
# it is -inf.  None of these raises (ROADMAP item 4).  The smallest term of
# the expansion is already below 1e-15 of its sum for degrees >= 1 and
# 2e-11 for degrees >= -1; the handoff is tested explicitly.
HERMITE_SWITCH_T = 5.0
# The large-t expansion raises AccuracyError where its smallest term exceeds
# this fraction of its sum: the accuracy of the series at the switch point.
# The smallest term does not bound the truncation error where t lies among
# the zeros of H_nu, and there the value is silently worse than this, with
# no error raised.  Against mpmath 1.3.0 (dps 60), hermite_value(nu, t) is
# off by 1.8e-10 relative at (30.5, 5.2), 2.0e-8 at (40.5, 5.0), 9.7e-8 at
# (50.25, 6.0) and 3.8e-5 at (54.75, 5.0).  Pair solves stay below t = 5;
# hermite_largest_zero scans t >= 5 for degrees above about 12.5.  The
# fixes are ROADMAP items 4 (a Taylor continuation past the switch point)
# and 12 (computed error bounds in place of this fixed tolerance).
HERMITE_ASYMPT_RTOL = 1e-9
# Both Gamma coefficients of H_nu are normal floats within this degree:
# 2^nu / Gamma(-nu/2) overflows near 267.6, 2^nu / Gamma((1-nu)/2)
# underflows near -268.
HERMITE_MAX_DEGREE = 267.0
# The large-t expansion returns (2t)^nu times its sum, so it raises
# AccuracyError where nu ln(2t) leaves +-700: the normal float range
# (e^-708.4 to e^709.8) with room for the sum.
HERMITE_ASYMPT_MAX_LOG = 700.0

# The tail start of a Kummer series lies near 2|z|, so this reaches |z| = 350.
KUMMER_MAX_TERMS = 700
BESSEL_MAX_TERMS = 400
# A compensated series stops once its last term is below SERIES_RTOL times
# the running sum (SERIES_FLOOR keeps the test finite at a zero sum).
SERIES_RTOL = 1e-17
SERIES_FLOOR = 1e-300
# Beyond this argument the ascending Bessel series loses more than ~1e-11
# relative to cancellation; the solvers never need r that large.
BESSEL_SERIES_RMAX = 16.0
# The Bessel series starts at 1/Gamma(order + 1), a normal float up to
# order 170.35; Gamma itself overflows beyond order 170.62.
BESSEL_MAX_ORDER = 170.0
# Grid spacing of the Bessel zero scans.
ZERO_SCAN_STEP = 0.05
# McMahon's expansion is used for a zero only where its first omitted term
# is below this fraction of the zero.
MCMAHON_RTOL = 1e-10
# Step of the complex-step degree derivative (Squire & Trapp, SIAM Rev. 40,
# 1998): f(nu + i d) = f(nu) - d^2 f''/2 + i (d f' - d^3 f'''/6) + ..., so
# Im f / d is f' with no difference to cancel.  For any d <= 1e-20 the d^2
# cross terms of each complex product lie far below an ulp of the sums they
# join, so the real parts round exactly as the float arithmetic does.
COMPLEX_STEP = 1e-30


def gamma(x: float) -> float:
    """Gamma(x) from the standard library, with typed errors at poles."""
    if not math.isfinite(x):
        raise DomainError(f"gamma: argument must be finite, got {x}")
    if x <= 0 and abs(x - round(x)) < 1e-15:
        raise DomainError(f"gamma: pole at non-positive integer x={x:g}")
    return math.gamma(x)


def _tail_start(amax: float, b: float, zmax: float) -> int:
    """First index m0 with |t_{k+1}/t_k| <= 1/2 for every k >= m0, where
    t_k are the terms of M(a, b'; z) at any real or complex a with
    |a| <= amax, real b' >= b and real z with |z| <= zmax.

    For k > -b the term ratio |a+k|/|b'+k| |z|/(k+1) is at most
    max(1, (amax+k)/(b+k)) zmax/(k+1), which does not increase in k; it is
    at most 1/2 once zmax/(k+1) <= 1/2 and (b+k)(k+1) - 2 zmax (amax+k)
    >= 0, i.e. k >= 2 zmax - 1 and k at or past the larger root of that
    quadratic.  A closed form, not a search: this runs on every call.
    KUMMER_MAX_TERMS stands for an index beyond the loop's reach, including
    a non-finite one (z = inf or nan), so the series raises AccuracyError.
    """
    p = b + 1.0 - 2.0 * zmax
    disc = p * p - 4.0 * (b - 2.0 * zmax * amax)
    k = max(2.0 * zmax - 1.0,
            0.5 * (math.sqrt(disc) - p) if disc > 0.0 else 0.0)
    if b < 0.0:
        k = max(k, math.floor(-b) + 1.0)
    return max(0, math.ceil(k)) if k < KUMMER_MAX_TERMS else KUMMER_MAX_TERMS


def _kummer_pair(a1: float, b1: float, a2: float, b2: float,
                 z: float) -> tuple[float, float]:
    """M(a1,b1;z) and M(a2,b2;z) at a float z in one fused compensated loop.

    Past _tail_start every term at most halves, so once the last term added
    is below SERIES_RTOL of the sums, so is the whole omitted tail."""
    zmax = abs(z)
    start = _tail_start(max(abs(a1), abs(a2)), min(b1, b2), zmax) - 1.0
    t1 = t2 = s1 = s2 = 1.0
    # a float index: float-float arithmetic takes the interpreter's fast
    # path, float-int does not, and the values are the same
    c1 = c2 = m = 0.0
    for _ in range(KUMMER_MAX_TERMS):
        zm = z / (m + 1.0)
        t1 = t1 * ((a1 + m) / (b1 + m)) * zm
        t2 = t2 * ((a2 + m) / (b2 + m)) * zm
        y = t1 - c1
        t = s1 + y
        c1 = (t - s1) - y
        s1 = t
        y = t2 - c2
        t = s2 + y
        c2 = (t - s2) - y
        s2 = t
        if m >= start and abs(t1) + abs(t2) <= SERIES_RTOL * (
                abs(s1) + abs(s2) + SERIES_FLOOR):
            return s1, s2
        m += 1.0
    raise _kummer_failure(zmax)


def _kummer_pair_deriv(a1, b1: float, a2, b2: float, z: float):
    """M(a1,b1;z), M(a2,b2;z) and their z-derivatives at a float z, a1 and
    a2 real or complex, in one compensated loop.

    The derivative sums u_m = t_m (a+m)/(b+m) = (m+1) t_{m+1}/z are the
    intermediate products of the value terms, so z = 0 needs no division.
    They are a/b times the terms of M(a+1, b+1; z) (DLMF 13.3.15), whose
    ratios exceed the value ratios by up to (m+2)/(m+1), so one tail start
    taken at |a| + 1 serves both kinds of sum, and the stop test covers all
    four.

    At a complex a (the degree step of _hermite_jet) the test also covers
    the imaginary parts on their own, which the moduli cannot see.  Past the
    tail start k0, a term ratio rho_k has |Re rho_k| <= 1/2 and
    |Im rho_k| <= |Im a|/(2(b+k0)), so the imaginary part of the omitted
    tail is at most |Im t| + 2 |Im a| |t|/(b+k0) for the last term t."""
    zmax = abs(z)
    start = float(_tail_start(max(abs(a1), abs(a2)) + 1.0, min(b1, b2), zmax))
    t1 = t2 = s1 = s2 = 1.0
    d1 = d2 = c1 = c2 = e1 = e2 = m = 0.0
    for _ in range(KUMMER_MAX_TERMS):
        zm = z / (m + 1.0)
        u1 = t1 * ((a1 + m) / (b1 + m))
        u2 = t2 * ((a2 + m) / (b2 + m))
        t1 = u1 * zm
        t2 = u2 * zm
        y = t1 - c1
        t = s1 + y
        c1 = (t - s1) - y
        s1 = t
        y = t2 - c2
        t = s2 + y
        c2 = (t - s2) - y
        s2 = t
        y = u1 - e1
        t = d1 + y
        e1 = (t - d1) - y
        d1 = t
        y = u2 - e2
        t = d2 + y
        e2 = (t - d2) - y
        d2 = t
        if (m >= start and abs(t1) + abs(t2) + abs(u1) + abs(u2)
                <= SERIES_RTOL * (abs(s1) + abs(s2) + abs(d1) + abs(d2)
                                  + SERIES_FLOOR)
                and abs(t1.imag) + abs(t2.imag) + abs(u1.imag)
                + abs(u2.imag) <= SERIES_RTOL * (
                    abs(s1.imag) + abs(s2.imag) + abs(d1.imag)
                    + abs(d2.imag) + SERIES_FLOOR)):
            return s1, s2, d1, d2
        m += 1.0
    raise _kummer_failure(zmax)


def _kummer_failure(zmax: float) -> AccuracyError:
    return AccuracyError(
        f"kummer series did not converge within {KUMMER_MAX_TERMS} terms "
        f"(max |z| = {zmax:g})")


def kummer_m(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric M(a,b;z) = sum (a)_m/(b)_m z^m/m!."""
    if b <= 0 and abs(b - round(b)) < 1e-12:
        raise DomainError(f"kummer_m: b={b:g} is a non-positive integer")
    return _kummer_pair(a, b, a, b, float(z))[0]


def _hermite_coeffs(nu: float) -> tuple[float, float]:
    """The Gamma coefficients of the Kummer combination of H_nu, each a
    scale times 1/Gamma(x).  1/Gamma is entire and vanishes at the poles of
    Gamma, so a coefficient is exactly 0 where x is a non-positive integer
    (nu a non-negative integer) and scale / Gamma(x) elsewhere, which tends
    to 0 continuously as x nears a pole."""
    scale = 2.0 ** nu * SQRT_PI
    xa, xb = (1.0 - nu) / 2.0, -nu / 2.0
    return (0.0 if xa <= 0.0 and xa.is_integer() else scale / math.gamma(xa),
            0.0 if xb <= 0.0 and xb.is_integer()
            else -2.0 * scale / math.gamma(xb))


def _hermite_series(nu: float, t: float) -> float:
    """Gamma-coefficient Kummer combination; |t| <= switch or t < 0."""
    phi1, phi2 = _kummer_pair(-nu / 2.0, 0.5, (1.0 - nu) / 2.0, 1.5, t * t)
    coeff_a, coeff_b = _hermite_coeffs(nu)
    return coeff_a * phi1 + coeff_b * t * phi2


def _digamma(x: float) -> float:
    """psi(x), x > 0: the recurrence psi(x) = psi(x + 1) - 1/x up to x >= 10,
    then the asymptotic series through B_12."""
    acc = 0.0
    while x < 10.0:
        acc -= 1.0 / x
        x += 1.0
    y = 1.0 / (x * x)
    tail = y * (1.0 / 12.0 - y * (1.0 / 120.0 - y * (1.0 / 252.0 - y * (
        1.0 / 240.0 - y * (1.0 / 132.0 - y * (691.0 / 32760.0))))))
    return acc + math.log(x) - 0.5 / x - tail


def _rgamma_jet(x: float) -> tuple[float, float]:
    """1/Gamma(x) and its derivative.  Below x = 1/2 by reflection,
    1/Gamma(x) = Gamma(1-x) sin(pi x)/pi, whose derivative
    Gamma(1-x) (pi cos(pi x) - sin(pi x) psi(1-x))/pi is smooth through the
    poles of Gamma; sin and cos take the argument reduced to [-1/2, 1/2], so
    1/Gamma vanishes exactly at the poles."""
    if x >= 0.5:
        r = 1.0 / math.gamma(x)
        return r, -_digamma(x) * r
    n = round(x)
    sign = -1.0 if n % 2 else 1.0
    sin_px = sign * math.sin(math.pi * (x - n))
    cos_px = sign * math.cos(math.pi * (x - n))
    g = math.gamma(1.0 - x) / math.pi
    return g * sin_px, g * (math.pi * cos_px - sin_px * _digamma(1.0 - x))


@functools.lru_cache(maxsize=32)
def _hermite_jet(nu: float, t: float) -> tuple[float, float, float, float]:
    """(H_nu, H_nu', d/dnu H_nu, d/dnu H_nu') at a float t < HERMITE_SWITCH_T
    from one Kummer pass at the complex degree nu + i COMPLEX_STEP: h and
    h' = dh/dt as in hermite_state, whose real parts are H_nu and H_nu' and
    whose imaginary parts over the step are the degree derivatives.  The
    Gamma coefficients take 1/Gamma(x - i d/2) = r - i (d/2) r' from
    _rgamma_jet, so integer degrees pass through the poles of Gamma."""
    d = COMPLEX_STEP
    a1 = complex(-nu / 2.0, -d / 2.0)
    a2 = complex((1.0 - nu) / 2.0, -d / 2.0)
    z = t * t
    phi1, phi2, dphi1, dphi2 = _kummer_pair_deriv(a1, 0.5, a2, 1.5, z)
    rA, drA = _rgamma_jet(a2.real)
    rB, drB = _rgamma_jet(a1.real)
    scale = 2.0 ** complex(nu, d) * SQRT_PI
    coeff_a = scale * complex(rA, -0.5 * d * drA)
    coeff_b = -2.0 * scale * complex(rB, -0.5 * d * drB)
    h = coeff_a * phi1 + coeff_b * t * phi2
    hp = coeff_a * 2.0 * t * dphi1 + coeff_b * (phi2 + 2.0 * z * dphi2)
    return h.real, hp.real, h.imag / d, hp.imag / d


def _hermite_asympt(nu: float, t: float) -> float:
    """Large positive-t expansion, summed term by term until a term drops
    below SERIES_RTOL of the sum or, once the terms are past their growing
    phase (2k > nu + 2), grows again; the smallest term then estimates the
    truncation error, which must stay below HERMITE_ASYMPT_RTOL of the sum.
    The rounding error, about eps times the largest term, must stay below
    HERMITE_ASYMPT_RTOL of the larger of the sum and its leading term 1:
    where t lies well among the zeros of H_nu the terms grow far past the
    sum before they cancel."""
    lead = nu * math.log(2.0 * t)
    if abs(lead) > HERMITE_ASYMPT_MAX_LOG:
        raise AccuracyError(
            f"large-t Hermite expansion: the leading factor (2t)^nu = "
            f"e^{lead:.4g} is beyond e^+-{HERMITE_ASYMPT_MAX_LOG:g}, the "
            f"float range, at nu={nu:g}, t={t:g}")
    inv = 0.25 / (t * t)
    total = term = prev = big = 1.0
    # The loop ends: past 2k = nu + 2 the term ratio
    # (2k - 2 - nu)(2k - 1 - nu) / (4 t^2 k) increases without bound.
    for k in itertools.count(1):
        term = term * ((2 * k - 2 - nu) * (2 * k - 1 - nu) / -k) * inv
        mag = abs(term)
        if 2 * k > nu + 2 and mag > prev:
            if prev > HERMITE_ASYMPT_RTOL * abs(total):
                raise AccuracyError(
                    f"large-t Hermite expansion: smallest term {prev:.3g} of "
                    f"the leading term exceeds {HERMITE_ASYMPT_RTOL:g} of the "
                    f"sum at nu={nu:g}, t={t:g}", estimate=prev)
            break
        total = total + term
        # `not >` also stops on a nan term
        if not mag > SERIES_RTOL * abs(total):
            break
        prev = mag
        big = max(big, mag)
    err = big * sys.float_info.epsilon
    if err > HERMITE_ASYMPT_RTOL * max(abs(total), 1.0):
        raise AccuracyError(
            f"large-t Hermite expansion: terms up to {big:.3g} times the "
            f"leading one leave a rounding error {err:.3g}, above "
            f"{HERMITE_ASYMPT_RTOL:g} of the sum {total:.3g}, at nu={nu:g}, "
            f"t={t:g}", estimate=err)
    return (2.0 * t) ** nu * total


def _elementwise(kernel, p: float,
                 x: float | np.ndarray) -> float | np.ndarray:
    """kernel(p, x) at a float x, as a plain float; at an array x,
    kernel(p, .) on each element, in the shape of x."""
    if np.ndim(x) == 0:
        return kernel(p, float(x))
    xs = np.asarray(x, dtype=float)
    return np.array([kernel(p, v) for v in xs.ravel().tolist()],
                    dtype=float).reshape(xs.shape)


def _check_hermite(where: str, nu: float, t: float) -> None:
    if not (math.isfinite(nu) and math.isfinite(t)):
        raise DomainError(f"{where}: need finite nu and t, got {nu}, {t}")
    if abs(nu) > HERMITE_MAX_DEGREE:
        raise AccuracyError(
            f"{where}: the Gamma coefficients of H_nu over- or underflow "
            f"beyond |nu| = {HERMITE_MAX_DEGREE:g}, got nu={nu:g}")


@functools.lru_cache(maxsize=32)
def _hermite(nu: float, t: float) -> float:
    _check_hermite("hermite_value", nu, t)
    return (_hermite_asympt(nu, t) if t >= HERMITE_SWITCH_T
            else _hermite_series(nu, t))


def hermite_value(nu: float, t: float | np.ndarray) -> float | np.ndarray:
    """H_nu at a float (plain float out) or an array, at every real degree,
    by one float kernel: the large-t expansion at t >= HERMITE_SWITCH_T, the
    Kummer combination below it; at integer degrees both terminate."""
    return _elementwise(_hermite, nu, t)


def hermite_state(nu: float, t: float) -> tuple[float, float]:
    """(H_nu(t), H_{nu-1}(t)) at a float t from one Kummer pass.

    The derivative sums of the pass give H_nu' = c_A 2t phi_1' +
    c_B (phi_2 + 2z phi_2'), z = t^2, for H_nu = c_A phi_1(z) + c_B t phi_2(z),
    and H_{nu-1} = H_nu' / (2 nu), at integer degrees too.  Two hermite_value
    calls serve where hermite_value takes the large-t expansion and at
    nu = 0, where H_nu' / (2 nu) is 0/0."""
    t = float(t)
    _check_hermite("hermite_state", nu, t)
    return _hermite_pair(nu, t)


@functools.lru_cache(maxsize=32)
def _hermite_pair(nu: float, t: float) -> tuple[float, float]:
    """hermite_state's float kernel, past its argument checks."""
    if t >= HERMITE_SWITCH_T or nu == 0.0:
        return hermite_value(nu, t), hermite_value(nu - 1.0, t)
    z = t * t
    phi1, phi2, dphi1, dphi2 = _kummer_pair_deriv(
        -nu / 2.0, 0.5, (1.0 - nu) / 2.0, 1.5, z)
    coeff_a, coeff_b = _hermite_coeffs(nu)
    hp = coeff_a * 2.0 * t * dphi1 + coeff_b * (phi2 + 2.0 * z * dphi2)
    return coeff_a * phi1 + coeff_b * t * phi2, hp / (2.0 * nu)


def hermite_h_deriv(nu: float, t: float) -> float:
    """H_nu'(t) = 2 nu H_{nu-1}(t)."""
    if nu == 0.0:
        return 0.0
    return 2.0 * nu * hermite_value(nu - 1.0, t)


@functools.lru_cache(maxsize=64)
def hermite_largest_zero(nu: float) -> float:
    """Largest positive zero of H_nu, nu > 1, scanned once per degree.

    All zeros lie in [-sqrt(2(nu+1)), sqrt(2(nu+1))]; scan downward from the
    upper bound and bisect the first sign change to adjacent floats.
    """
    if not nu > 1.0:
        raise DomainError(f"hermite_largest_zero: need nu > 1, got {nu:g}")
    top = math.sqrt(2.0 * (nu + 1.0))
    step = min(0.05, top / 100.0)
    zeros = numerics.grid_roots(lambda t: hermite_value(nu, t),
                                np.arange(top, -step / 2, -step), 1)
    if not zeros:
        raise NumericalError(
            f"hermite_largest_zero: no sign change found for nu={nu:g} on "
            f"[0, {top:g}] with step {step:g}")
    return zeros[0]


def turan_gap(nu: float, t: float) -> float:
    """H_nu(t)^2 - H_{nu-1}(t) H_{nu+1}(t)."""
    h0 = hermite_value(nu, t)
    hm = hermite_value(nu - 1.0, t)
    hp = hermite_value(nu + 1.0, t)
    return h0 * h0 - hm * hp


# ----------------------------------------------------------------------
# Bessel functions of the first kind, real order > -1, ascending series.
# ----------------------------------------------------------------------

def _check_bessel(where: str, order: float, z: float, top: float) -> None:
    """Typed errors of the ascending series at the orders order..top."""
    if not (math.isfinite(order) and math.isfinite(z)):
        raise DomainError(
            f"{where}: need finite order and z, got {order}, {z}")
    if order <= -1.0:
        raise DomainError(f"bessel order must be > -1, got {order:g}")
    if abs(z) > BESSEL_SERIES_RMAX:
        raise AccuracyError(
            f"bessel series ceiling exceeded: |z| up to {abs(z):g} "
            f"> {BESSEL_SERIES_RMAX:g}")
    if top > BESSEL_MAX_ORDER:
        raise AccuracyError(
            f"{where}: the series of order {top:g} starts at 1/Gamma("
            f"{top:g} + 1), which underflows beyond order "
            f"{BESSEL_MAX_ORDER:g}")


def _bessel_scaled(order: float, z: float) -> float:
    """(z/2)^{-order} J_order(z) at a float z by the ascending series."""
    _check_bessel("bessel_j", order, z, order)
    q = -(z * z) / 4.0
    term = total = 1.0 / gamma(order + 1.0)
    comp = 0.0
    for m in range(BESSEL_MAX_TERMS):
        term = term * q / ((m + 1.0) * (m + 1.0 + order))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if m >= 2 and abs(term) <= SERIES_RTOL * (abs(total) + SERIES_FLOOR):
            return total
    raise AccuracyError("bessel series did not converge", estimate=abs(term))


def bessel_state(order: float, z: float, *,
                 where: str = "bessel_state") -> tuple[float, float]:
    """(Jhat_order(z), Jhat_{order+1}(z)), Jhat = bessel_j_scaled_vec, at a
    float z from one compensated loop.  Each sum runs the recurrence and the
    stop test of its own bessel_j_scaled_vec call and is taken at the term
    where that test first holds, so both are that call's value to the bit;
    the loop ends once both have been taken.  `where` names the caller in
    the argument errors."""
    z = float(z)
    _check_bessel(where, order, z, order + 1.0)
    return _bessel_pair(order, z)


@functools.lru_cache(maxsize=32)
def _bessel_pair(order: float, z: float) -> tuple[float, float]:
    """bessel_state's float kernel, past its argument checks."""
    up = order + 1.0
    q = -(z * z) / 4.0
    # order > -1: no pole of Gamma
    t1 = s1 = 1.0 / math.gamma(order + 1.0)
    t2 = s2 = 1.0 / math.gamma(up + 1.0)
    c1 = c2 = 0.0
    r1 = r2 = None
    # k = m + 1 as a float, as in _kummer_pair
    k = 1.0
    for _ in range(BESSEL_MAX_TERMS):
        t1 = t1 * q / (k * (k + order))
        t2 = t2 * q / (k * (k + up))
        y = t1 - c1
        t = s1 + y
        c1 = (t - s1) - y
        s1 = t
        y = t2 - c2
        t = s2 + y
        c2 = (t - s2) - y
        s2 = t
        if k >= 3.0:
            if r1 is None and abs(t1) <= SERIES_RTOL * (abs(s1) + SERIES_FLOOR):
                r1 = s1
            if r2 is None and abs(t2) <= SERIES_RTOL * (abs(s2) + SERIES_FLOOR):
                r2 = s2
            if r1 is not None and r2 is not None:
                return r1, r2
        k += 1.0
    raise AccuracyError("bessel series did not converge",
                        estimate=max(abs(t1), abs(t2)))


def _bessel_j(order: float, r: float) -> float:
    if r < 0:
        raise DomainError("bessel_j: r must be >= 0")
    if order < 0 and r == 0.0:
        raise DomainError("bessel_j: r=0 diverges for negative order")
    return _bessel_scaled(order, r) * (r / 2.0) ** order


def bessel_j_scaled_vec(order: float,
                        z: float | np.ndarray) -> float | np.ndarray:
    """(z/2)^{-order} J_order(z): entire in z, finite and 1/Gamma(order+1) at 0.

    One float kernel: a float z gives a plain float, an array z an array."""
    return _elementwise(_bessel_scaled, order, z)


def bessel_j_value(order: float,
                   r: float | np.ndarray) -> float | np.ndarray:
    """J_order(r) for float (plain float out) or array r >= 0, by one float
    kernel: the scaled series times (r/2)^order."""
    return _elementwise(_bessel_j, order, r)


def _bessel_deriv(order: float, r: float) -> float:
    """J_order'(r) = (order/r) J_order(r) - J_{order+1}(r), r > 0, from one
    bessel_state pass; each J is bessel_j_value's value to the bit."""
    if r <= 0.0:
        raise DomainError("bessel_j_deriv: need r > 0")
    j0, j1 = bessel_state(order, r, where="bessel_j_deriv")
    h = r / 2.0
    return (order / r) * (j0 * h ** order) - j1 * h ** (order + 1.0)


def bessel_j_deriv(order: float,
                   r: float | np.ndarray) -> float | np.ndarray:
    """J_order' = (order/r) J_order - J_{order+1} at float (plain float out)
    or array r > 0, by one float kernel."""
    return _elementwise(_bessel_deriv, order, r)


def _zero_grid(order: float) -> np.ndarray:
    """ZERO_SCAN_STEP grid from max(order, 1e-6) through BESSEL_SERIES_RMAX."""
    xs = np.arange(max(order, 1e-6), BESSEL_SERIES_RMAX, ZERO_SCAN_STEP)
    return np.append(xs[xs < BESSEL_SERIES_RMAX], BESSEL_SERIES_RMAX)


def bessel_jprime_first_zero(order: float) -> float:
    """j'_{order,1}, the first positive zero of J_order', on the grid of
    bessel_zeros; j'_{0,1} = 0 by the convention
    order <= j'_{order,1} < j_{order,1}, which the scan does not assume."""
    if order == 0.0:
        return 0.0
    zeros = numerics.grid_roots(lambda r: bessel_j_deriv(order, r),
                                _zero_grid(order), 1)
    if not zeros:
        raise AccuracyError(f"bessel_jprime_first_zero: j'_({order:g},1) "
                            f"lies beyond the series ceiling")
    return zeros[0]


def _mcmahon_zero(order: float, h: int) -> tuple[float, float]:
    """McMahon's expansion for j_{order,h} through (8a)^{-7} (DLMF 10.21.19),
    and its first omitted term, which estimates the error: against
    40-digit zeros its ratio to the error lies within 15 % of 1 for orders
    0 to 5 at h = 3 to 8."""
    a = (h + order / 2.0 - 0.25) * math.pi
    mu = 4.0 * order * order
    e = 8.0 * a
    zero = (a
            - (mu - 1.0) / e
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0)
            / (15.0 * e ** 5)
            - 64.0 * (mu - 1.0) * (((6949.0 * mu - 153855.0) * mu
                                    + 1585743.0) * mu - 6277237.0)
            / (105.0 * e ** 7))
    nxt = (-512.0 * (mu - 1.0) * ((((70197.0 * mu - 2479316.0) * mu
                                     + 48010494.0) * mu - 512062548.0) * mu
                                   + 2092163573.0)
           / (315.0 * e ** 9))
    return zero, nxt


def bessel_zeros(order: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_order.

    Zeros below the series ceiling come from grid_roots on _zero_grid;
    farther zeros use McMahon's expansion, and only where its first omitted
    term is below MCMAHON_RTOL of the zero (large orders need large h):
    anything else raises AccuracyError.
    """
    zeros = numerics.grid_roots(lambda r: bessel_j_value(order, r),
                                _zero_grid(order), count)
    for h in range(len(zeros) + 1, count + 1):
        zero, nxt = _mcmahon_zero(order, h)
        if abs(nxt) > MCMAHON_RTOL * zero:
            raise AccuracyError(
                f"bessel_zeros: zero {h} of J_{order:g} lies beyond the "
                f"series ceiling {BESSEL_SERIES_RMAX:g}, where McMahon's "
                f"expansion is good only to {abs(nxt) / zero:.2g} relative "
                f"(> {MCMAHON_RTOL:g})", estimate=abs(nxt))
        zeros.append(zero)
    return np.asarray(zeros[:count])
