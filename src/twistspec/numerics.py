"""Shared 1D numerical kernels.

Bracketed root finding (scipy's Brent behind a bracket-validating wrapper),
adaptive Gauss-Legendre quadrature on finite and truncated semi-infinite
intervals, and golden-section minimization.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.optimize import brentq

from .errors import AccuracyError, DomainError

DEFAULT_ROOT_TOL = 1e-10
DEFAULT_QUAD_TOL = 1e-10


@dataclass(frozen=True)
class Bracket:
    lo: float
    hi: float
    f_lo: float
    f_hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(f"Bracket: need lo < hi, got [{self.lo}, {self.hi}]")
        if self.f_lo * self.f_hi > 0.0:
            raise DomainError(
                f"Bracket: no sign change, f(lo)={self.f_lo:g}, f(hi)={self.f_hi:g}"
            )


@dataclass(frozen=True)
class QuadResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class TailSpec:
    """Truncation of a semi-infinite integral: cut point and tail bound."""
    cut: float
    bound: float = 0.0


def gauss_tail_cut(boundary: float, nu: float = 8.0) -> TailSpec:
    """Truncation for integrands bounded by (2t)^nu e^{-t^2}/sqrt(pi).

    T = max(8, boundary + 6); the quoted bound integrates the envelope by one
    step of partial integration, which dwarfs every tolerance in use.
    """
    cut = max(8.0, boundary + 6.0)
    bound = (2.0 * cut) ** nu * math.exp(-cut * cut) / math.sqrt(math.pi) / cut
    return TailSpec(cut=cut, bound=bound)


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol: float = DEFAULT_ROOT_TOL) -> float:
    """Root of f inside a validated sign-change bracket (Brent)."""
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    return float(brentq(f, bracket.lo, bracket.hi, xtol=tol, rtol=8.9e-16))


def scan_sign_change(f: Callable[[float], float], a: float, b: float,
                     steps: int) -> Optional[Bracket]:
    """First sign-change sub-interval of f on a uniform scan of [a, b]."""
    xs = np.linspace(a, b, steps + 1)
    x_prev = float(xs[0])
    f_prev = f(x_prev)
    for x in xs[1:]:
        x_cur = float(x)
        f_cur = f(x_cur)
        if f_prev * f_cur <= 0.0:
            return Bracket(x_prev, x_cur, f_prev, f_cur)
        x_prev, f_prev = x_cur, f_cur
    return None


_GL_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}


def _gl_nodes(n: int) -> tuple[np.ndarray, np.ndarray]:
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


def integrate(f: Callable, a: float, b: float, tol: float = DEFAULT_QUAD_TOL,
              tail: Optional[TailSpec] = None, vectorized: bool = False,
              max_panels: int = 4000) -> QuadResult:
    """Adaptive Gauss-Legendre panels; 15- vs 30-point difference as the
    local error estimate, panels split until it is below the prorated tol.

    For b = inf a TailSpec must supply the truncation point; its bound is
    added to the returned error estimate.
    """
    tail_bound = 0.0
    if math.isinf(b):
        if tail is None:
            raise DomainError("integrate: semi-infinite interval needs a TailSpec")
        b = tail.cut
        tail_bound = tail.bound
    if not a < b:
        if a == b:
            return QuadResult(0.0, tail_bound, 0)
        raise DomainError(f"integrate: need a <= b, got ({a}, {b})")

    if vectorized:
        fv = f
    else:
        fv = lambda xs: np.asarray([f(float(x)) for x in xs])  # noqa: E731

    x15, w15 = _gl_nodes(15)
    x30, w30 = _gl_nodes(30)
    total_len = b - a
    stack = [(a, b)]
    value = 0.0
    err = tail_bound
    evals = 0
    panels_done = 0
    while stack:
        lo, hi = stack.pop()
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        y15 = fv(mid + half * x15)
        y30 = fv(mid + half * x30)
        evals += 45
        i15 = half * float(np.dot(w15, y15))
        i30 = half * float(np.dot(w30, y30))
        delta = abs(i30 - i15)
        budget = tol * (hi - lo) / total_len
        if delta <= max(budget, 2e-16 * abs(i30)) or half < 1e-14 * total_len:
            value += i30
            err += delta
            panels_done += 1
            if panels_done > max_panels:
                raise AccuracyError(
                    "integrate: panel limit reached", estimate=err)
        else:
            stack.append((lo, mid))
            stack.append((mid, hi))
            if len(stack) + panels_done > max_panels:
                raise AccuracyError(
                    "integrate: subdivision limit reached", estimate=err + delta)
    return QuadResult(value=value, abs_error_estimate=err, evaluations=evals)


_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def minimize_scalar(F: Callable[[float], float], a: float, b: float,
                    tol: float = 1e-8) -> tuple[float, float]:
    """Golden-section minimum of a unimodal F on [a, b] to x-tolerance tol."""
    if not a < b:
        raise DomainError(f"minimize_scalar: need a < b, got ({a}, {b})")
    x1 = b - _GOLDEN * (b - a)
    x2 = a + _GOLDEN * (b - a)
    f1, f2 = F(x1), F(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - _GOLDEN * (b - a)
            f1 = F(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + _GOLDEN * (b - a)
            f2 = F(x2)
    x = x1 if f1 <= f2 else x2
    return x, min(f1, f2)
