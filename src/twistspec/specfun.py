"""Gamma, Kummer, Hermite-function and Bessel-function evaluators.

Everything here is plain double-precision series/recurrence arithmetic with
explicit switch-overs; no external special-function library is used, so the
test suite can cross-check against scipy independently.

The Hermite function of real degree nu is the solution of

    y'' - 2 t y' + 2 nu y = 0

that grows polynomially as t -> +inf.  For non-negative integer nu it is the
physicists' Hermite polynomial; otherwise it is the Gamma-weighted
combination of two Kummer functions

    H_nu(t) = 2^nu sqrt(pi) [ M(-nu/2, 1/2; t^2) / Gamma((1-nu)/2)
                              - 2 t M((1-nu)/2, 3/2; t^2) / Gamma(-nu/2) ].

For large positive t the combination above cancels catastrophically, so the
evaluator switches to the algebraic large-argument expansion

    H_nu(t) = (2t)^nu sum_k (-1)^k (-nu)_{2k} / (k! (2t)^{2k}),

with (a)_m the rising factorial.  The expansion is valid only on the +t
branch: for non-integer nu, H_nu(-t) grows like exp(t^2) and is evaluated by
the series, which is then free of cancellation.

Every evaluator has an array kernel (`*_vec`) and a plain-float twin
(`*_scalar`) with the same constants, iteration budget, convergence test
and errors; the public functions take the plain-float path for a scalar
argument, which avoids numpy overhead on one-element arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, DomainError, NumericalError

SQRT_PI = math.sqrt(math.pi)

# Lanczos (g=7, n=9) coefficients; relative error ~1e-13 after reflection.
_LANCZOS_G = 7.0
_LANCZOS = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

# Switch from the Kummer combination to the large-t expansion.  z = t^2 = 25
# keeps the series' cancellation below ~1e-9 relative while the N=4 tail of
# the expansion is already ~1e-9; the handoff is tested explicitly.
HERMITE_SWITCH_T = 5.0
HERMITE_ASYMPT_TERMS = 4
INTEGER_NU_TOL = 1e-9

KUMMER_MAX_TERMS = 500
BESSEL_MAX_TERMS = 400
# A compensated series stops once its last term is below SERIES_RTOL times
# the running sum (SERIES_FLOOR keeps the test finite at a zero sum).
SERIES_RTOL = 1e-17
SERIES_FLOOR = 1e-300
# Beyond this argument the ascending Bessel series loses more than ~1e-11
# relative to cancellation; the solvers never need r that large.
BESSEL_SERIES_RMAX = 16.0


@dataclass(frozen=True)
class HermiteEval:
    degree: float
    argument: float
    value: float
    method_used: str  # "series" | "asymptotic"


@dataclass(frozen=True)
class BesselEval:
    order: float
    argument: float
    value: float


def _sinpi(x: float) -> float:
    """sin(pi*x) with argument reduction, accurate near integers."""
    r = x - round(x)
    s = math.sin(math.pi * r)
    return -s if (round(x) % 2) else s


def gamma(x: float) -> float:
    """Gamma(x) by Lanczos approximation, reflection for x < 0.5."""
    if not math.isfinite(x):
        raise DomainError(f"gamma: argument must be finite, got {x}")
    if x <= 0 and abs(x - round(x)) < 1e-15:
        raise DomainError(f"gamma: pole at non-positive integer x={x:g}")
    if x < 0.5:
        s = _sinpi(x)
        if s == 0.0:
            raise DomainError(f"gamma: pole at x={x:g}")
        return math.pi / (s * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS[0]
    for i in range(1, 9):
        acc += _LANCZOS[i] / (z + i)
    base = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * base ** (z + 0.5) * math.exp(-base) * acc


def _iteration_budget(zmax: float) -> int:
    """Terms after which z^m/m! has dropped ~17 digits below exp(z)."""
    return int(min(KUMMER_MAX_TERMS - 8,
                   zmax + 10.0 * math.sqrt(zmax + 1.0) + 24.0))


def _kummer_vec(a: float, b: float, z: np.ndarray) -> np.ndarray:
    """Kummer M(a,b;z) on an array of z by compensated direct summation."""
    if b <= 0 and abs(b - round(b)) < 1e-12:
        raise DomainError(f"kummer_m: b={b:g} is a non-positive integer")
    z = np.asarray(z, dtype=float)
    term = np.ones_like(z)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    budget = _iteration_budget(float(np.max(np.abs(z))) if z.size else 0.0)
    for m in range(KUMMER_MAX_TERMS):
        term = term * ((a + m) / (b + m)) * (z / (m + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if m >= budget and np.all(
                np.abs(term) <= SERIES_RTOL * (np.abs(total) + SERIES_FLOOR)):
            return total
    raise AccuracyError(
        f"kummer_m: series did not converge within {KUMMER_MAX_TERMS} terms "
        f"(max |z| = {np.max(np.abs(z)):g})",
        estimate=float(np.max(np.abs(term))),
    )


def _kummer_pair_vec(a1: float, b1: float, a2: float, b2: float,
                     z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The two Kummer series of the Hermite combination in one fused loop."""
    z = np.asarray(z, dtype=float)
    t1 = np.ones_like(z)
    t2 = np.ones_like(z)
    s1 = np.ones_like(z)
    s2 = np.ones_like(z)
    c1 = np.zeros_like(z)
    c2 = np.zeros_like(z)
    budget = _iteration_budget(float(np.max(np.abs(z))) if z.size else 0.0)
    for m in range(KUMMER_MAX_TERMS):
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
        if m >= budget and np.all(
                np.abs(t1) + np.abs(t2)
                <= SERIES_RTOL * (np.abs(s1) + np.abs(s2) + SERIES_FLOOR)):
            return s1, s2
    raise _kummer_pair_failure(float(np.max(np.abs(z))))


def _kummer_pair_scalar(a1: float, b1: float, a2: float, b2: float,
                        z: float) -> tuple[float, float]:
    """Plain-float twin of _kummer_pair_vec."""
    t1 = t2 = s1 = s2 = 1.0
    c1 = c2 = 0.0
    budget = _iteration_budget(abs(z))
    for m in range(KUMMER_MAX_TERMS):
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
        if m >= budget and (abs(t1) + abs(t2)
                            <= SERIES_RTOL * (abs(s1) + abs(s2) + SERIES_FLOOR)):
            return s1, s2
    raise _kummer_pair_failure(abs(z))


def _kummer_pair_failure(zmax: float) -> AccuracyError:
    return AccuracyError(
        f"hermite kummer pair did not converge within {KUMMER_MAX_TERMS} "
        f"terms (max |z| = {zmax:g})")


def kummer_m(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric M(a,b;z) = sum (a)_m/(b)_m z^m/m!."""
    return float(_kummer_vec(a, b, np.asarray([z]))[0])


def _poch_rising(a: float, m: int) -> float:
    """Rising factorial a (a+1) ... (a+m-1)."""
    out = 1.0
    for j in range(m):
        out *= a + j
    return out


def _hermite_poly_vec(n: int, t: np.ndarray) -> np.ndarray:
    """Physicists' Hermite polynomial by the three-term recurrence."""
    t = np.asarray(t, dtype=float)
    h_prev = np.ones_like(t)
    if n == 0:
        return h_prev
    h = 2.0 * t
    for m in range(1, n):
        h, h_prev = 2.0 * t * h - 2.0 * m * h_prev, h
    return h


def _hermite_poly_scalar(n: int, t: float) -> float:
    """Plain-float twin of _hermite_poly_vec."""
    h_prev = 1.0
    if n == 0:
        return h_prev
    h = 2.0 * t
    for m in range(1, n):
        h, h_prev = 2.0 * t * h - 2.0 * m * h_prev, h
    return h


def _hermite_series_coeffs(nu: float) -> tuple[float, float]:
    """Gamma coefficients of the two Kummer series in H_nu."""
    two_nu = 2.0 ** nu
    # Gamma poles at positive integers are handled upstream by the
    # polynomial dispatch; near-integers give a large Gamma and a vanishing
    # coefficient, which is the correct continuous limit.
    ga = gamma((1.0 - nu) / 2.0)
    gb = gamma(-nu / 2.0)
    return two_nu * SQRT_PI / ga, -2.0 * two_nu * SQRT_PI / gb


def _hermite_series_vec(nu: float, t: np.ndarray) -> np.ndarray:
    """Gamma-coefficient Kummer combination; |t| <= switch or t < 0."""
    t = np.asarray(t, dtype=float)
    z = t * t
    phi1, phi2 = _kummer_pair_vec(-nu / 2.0, 0.5, (1.0 - nu) / 2.0, 1.5, z)
    coeff_a, coeff_b = _hermite_series_coeffs(nu)
    return coeff_a * phi1 + coeff_b * t * phi2


def _hermite_series_scalar(nu: float, t: float) -> float:
    """Plain-float twin of _hermite_series_vec."""
    z = t * t
    phi1, phi2 = _kummer_pair_scalar(-nu / 2.0, 0.5, (1.0 - nu) / 2.0, 1.5, z)
    coeff_a, coeff_b = _hermite_series_coeffs(nu)
    return coeff_a * phi1 + coeff_b * t * phi2


def _hermite_asympt_coeffs(nu: float) -> list[float]:
    """Coefficients of the large-t expansion, highest order first."""
    return [(-1.0) ** k * _poch_rising(-nu, 2 * k) / math.factorial(k)
            for k in range(HERMITE_ASYMPT_TERMS, 0, -1)]


def _hermite_asympt_vec(nu: float, t: np.ndarray) -> np.ndarray:
    """Large positive-t expansion, truncated after HERMITE_ASYMPT_TERMS."""
    t = np.asarray(t, dtype=float)
    inv = 1.0 / (2.0 * t) ** 2
    acc = np.zeros_like(t)
    for ck in _hermite_asympt_coeffs(nu):
        acc = (acc + ck) * inv
    return (2.0 * t) ** nu * (1.0 + acc)


def _hermite_asympt_scalar(nu: float, t: float) -> float:
    """Plain-float twin of _hermite_asympt_vec."""
    two_t = 2.0 * t
    inv = 1.0 / (two_t * two_t)
    acc = 0.0
    for ck in _hermite_asympt_coeffs(nu):
        acc = (acc + ck) * inv
    return two_t ** nu * (1.0 + acc)


def _is_nonneg_int(nu: float) -> bool:
    return abs(nu - round(nu)) < INTEGER_NU_TOL and round(nu) >= 0


def _hermite_vec(nu: float, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized H_nu; returns (values, asymptotic_mask)."""
    t = np.asarray(t, dtype=float)
    if _is_nonneg_int(nu):
        return _hermite_poly_vec(int(round(nu)), t), np.zeros(t.shape, dtype=bool)
    big = t >= HERMITE_SWITCH_T
    out = np.empty_like(t)
    if np.any(big):
        out[big] = _hermite_asympt_vec(nu, t[big])
    if np.any(~big):
        out[~big] = _hermite_series_vec(nu, t[~big])
    return out, big


def _hermite_scalar(nu: float, t: float) -> tuple[float, bool]:
    """Plain-float twin of _hermite_vec: (value, asymptotic branch used)."""
    if _is_nonneg_int(nu):
        return _hermite_poly_scalar(int(round(nu)), t), False
    if t >= HERMITE_SWITCH_T:
        return _hermite_asympt_scalar(nu, t), True
    return _hermite_series_scalar(nu, t), False


def hermite_value(nu: float, t: float | np.ndarray) -> float | np.ndarray:
    """H_nu evaluated on a scalar (plain float out) or array argument."""
    if np.ndim(t) == 0:
        return _hermite_scalar(nu, float(t))[0]
    vals, _ = _hermite_vec(nu, np.asarray(t, dtype=float))
    return vals


def hermite_h(nu: float, t: float) -> HermiteEval:
    """Hermite function of real degree nu at t."""
    if not (math.isfinite(nu) and math.isfinite(t)):
        raise DomainError("hermite_h: non-finite input")
    value, big = _hermite_scalar(nu, float(t))
    return HermiteEval(
        degree=nu, argument=t, value=value,
        method_used="asymptotic" if big else "series",
    )


def hermite_h_deriv(nu: float, t: float) -> float:
    """H_nu'(t) = 2 nu H_{nu-1}(t)."""
    if nu == 0.0:
        return 0.0
    return 2.0 * nu * hermite_h(nu - 1.0, t).value


def _bisect(f, lo, hi, f_lo, f_hi, xtol=1e-10, max_iter=200):
    """Plain bisection on a sign-changing bracket."""
    if f_lo == 0.0:
        return lo
    if f_hi == 0.0:
        return hi
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        if hi - lo <= xtol:
            return mid
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi, f_hi = mid, f_mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def hermite_largest_zero(nu: float) -> float:
    """Largest positive zero of H_nu, nu > 1.

    All zeros lie in [-sqrt(2(nu+1)), sqrt(2(nu+1))]; scan downward from the
    upper bound and bisect on the first sign change.
    """
    if not nu > 1.0:
        raise DomainError(f"hermite_largest_zero: need nu > 1, got {nu:g}")
    top = math.sqrt(2.0 * (nu + 1.0))
    step = min(0.05, top / 100.0)
    ts = np.arange(top, -step / 2, -step)
    vals, _ = _hermite_vec(nu, ts)
    sign_hi = vals[0]
    for i in range(1, len(ts)):
        if sign_hi * vals[i] <= 0.0:
            lo, hi = ts[i], ts[i - 1]
            f = lambda x: hermite_value(nu, x)  # noqa: E731
            return _bisect(f, lo, hi, vals[i], vals[i - 1], xtol=1e-10)
    raise NumericalError(
        f"hermite_largest_zero: no sign change found for nu={nu:g} on "
        f"[0, {top:g}] with step {step:g}"
    )


def turan_gap(nu: float, t: float) -> float:
    """H_nu(t)^2 - H_{nu-1}(t) H_{nu+1}(t)."""
    h0 = hermite_value(nu, t)
    hm = hermite_value(nu - 1.0, t)
    hp = hermite_value(nu + 1.0, t)
    return h0 * h0 - hm * hp


# ----------------------------------------------------------------------
# Bessel functions of the first kind, real order > -1, ascending series.
# ----------------------------------------------------------------------

def bessel_j_scaled_vec(order: float,
                        z: float | np.ndarray) -> float | np.ndarray:
    """(z/2)^{-order} J_order(z): entire in z, finite and 1/Gamma(order+1) at 0.

    Scalar z gives a plain float, array z an array."""
    if order <= -1.0:
        raise DomainError(f"bessel order must be > -1, got {order:g}")
    if np.ndim(z) == 0:
        return _bessel_scaled_scalar(order, float(z))
    z = np.asarray(z, dtype=float)
    _check_bessel_ceiling(float(np.max(np.abs(z), initial=0.0)))
    q = -(z * z) / 4.0
    term = np.full_like(z, 1.0 / gamma(order + 1.0))
    total = term.copy()
    comp = np.zeros_like(z)
    for m in range(BESSEL_MAX_TERMS):
        term = term * q / ((m + 1.0) * (m + 1.0 + order))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
        if m >= 2 and np.all(
                np.abs(term) <= SERIES_RTOL * (np.abs(total) + SERIES_FLOOR)):
            return total
    raise _bessel_failure(float(np.max(np.abs(term))))


def _bessel_scaled_scalar(order: float, z: float) -> float:
    """Plain-float twin of the array loop in bessel_j_scaled_vec."""
    _check_bessel_ceiling(abs(z))
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
    raise _bessel_failure(abs(term))


def _check_bessel_ceiling(zmax: float) -> None:
    if zmax > BESSEL_SERIES_RMAX:
        raise AccuracyError(
            f"bessel series ceiling exceeded: |z| up to {zmax:g} "
            f"> {BESSEL_SERIES_RMAX:g}"
        )


def _bessel_failure(estimate: float) -> AccuracyError:
    return AccuracyError("bessel series did not converge", estimate=estimate)


def bessel_j_value(order: float,
                   r: float | np.ndarray) -> float | np.ndarray:
    """J_order(r) for scalar (plain float out) or array r >= 0."""
    scalar = np.ndim(r) == 0
    r = float(r) if scalar else np.asarray(r, dtype=float)
    r_min = r if scalar else float(np.min(r, initial=math.inf))
    if r_min < 0:
        raise DomainError("bessel_j: r must be >= 0")
    if order < 0 and r_min == 0.0:
        raise DomainError("bessel_j: r=0 diverges for negative order")
    return bessel_j_scaled_vec(order, r) * (r / 2.0) ** order


def bessel_j(order: float, r: float) -> BesselEval:
    """Bessel function of the first kind, ascending series."""
    return BesselEval(order=order, argument=r, value=bessel_j_value(order, r))


def bessel_j_deriv(order: float, r: float) -> float:
    """J_order'(r) = (order/r) J_order(r) - J_{order+1}(r), r > 0."""
    if r <= 0.0:
        raise DomainError("bessel_j_deriv: need r > 0")
    return (order / r) * bessel_j_value(order, r) - bessel_j_value(order + 1.0, r)


def bessel_first_zero(order: float, kind: str = "of_J") -> float:
    """First positive zero of J_order or J_order'.

    The scan starts at the interlacing lower bound (the order itself) and
    expands in fixed steps.  By the convention used here j'_{0,1} = 0,
    matching the display  order <= j'_{order,1} < j_{order,1}.
    """
    if order < 0.0:
        raise DomainError("bessel_first_zero: need order >= 0")
    if kind not in ("of_J", "of_Jprime"):
        raise DomainError(f"bessel_first_zero: unknown kind {kind!r}")
    if kind == "of_Jprime" and order == 0.0:
        return 0.0
    f = (lambda x: bessel_j_value(order, x)) if kind == "of_J" \
        else (lambda x: bessel_j_deriv(order, x))
    lo = max(order, 1e-6)
    step = 0.05
    span_cap = order + 30.0
    f_lo = f(lo)
    x = lo
    while x < span_cap:
        x_next = min(x + step, span_cap)
        f_next = f(x_next)
        if f_lo * f_next <= 0.0:
            return _bisect(f, x, x_next, f_lo, f_next, xtol=1e-10)
        x, f_lo = x_next, f_next
    raise NumericalError(
        f"bessel_first_zero: no sign change of {kind} for order {order:g} "
        f"in [{max(order, 1e-6):g}, {span_cap:g}]"
    )


def _mcmahon_zero(order: float, h: int) -> float:
    """McMahon expansion for j_{order,h}; ~1e-8 absolute already at h=5."""
    a = (h + order / 2.0 - 0.25) * math.pi
    mu = 4.0 * order * order
    e = 8.0 * a
    return (a
            - (mu - 1.0) / e
            - 4.0 * (mu - 1.0) * (7.0 * mu - 31.0) / (3.0 * e ** 3)
            - 32.0 * (mu - 1.0) * (83.0 * mu * mu - 982.0 * mu + 3779.0)
            / (15.0 * e ** 5))


def bessel_zeros(order: float, count: int) -> np.ndarray:
    """First `count` positive zeros of J_order.

    Zeros inside the series region are bracketed and bisected to 1e-10; far
    zeros use the McMahon expansion, whose error decays like h^{-7} and is
    far below what the infinite-product cross-check can resolve.
    """
    zeros: list[float] = []
    lo = max(order, 1e-6)
    f_lo = bessel_j_value(order, lo)
    step = 0.05
    while len(zeros) < count and lo + step < BESSEL_SERIES_RMAX - 0.5:
        hi = lo + step
        f_hi = bessel_j_value(order, hi)
        if f_lo * f_hi <= 0.0:
            zeros.append(_bisect(lambda x: bessel_j_value(order, x),
                                 lo, hi, f_lo, f_hi, xtol=1e-10))
        lo, f_lo = hi, f_hi
    for h in range(len(zeros) + 1, count + 1):
        zeros.append(_mcmahon_zero(order, h))
    return np.asarray(zeros[:count])
