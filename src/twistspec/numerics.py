"""Shared 1D numerical kernels.

Bracketed root finding (scipy's Brent behind a bracket-validating wrapper),
sign-change scans (scalar, or vectorized and refined), and the truncation
point of Gaussian tail integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy import optimize

from .errors import DomainError

DEFAULT_ROOT_TOL = 1e-10


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


def gauss_tail_cut(boundary: float) -> float:
    """Truncation point max(8, boundary + 6) for integrands bounded by a
    polynomial times e^{-t^2} on [boundary, inf): the neglected tail is far
    below every tolerance in use."""
    return max(8.0, boundary + 6.0)


def find_root(f: Callable[[float], float], bracket: Bracket,
              tol: float = DEFAULT_ROOT_TOL) -> float:
    """Root of f inside a validated sign-change bracket (Brent); the end
    values come from the bracket, so f runs only at interior points."""
    if bracket.f_lo == 0.0:
        return bracket.lo
    if bracket.f_hi == 0.0:
        return bracket.hi
    lo, hi = bracket.lo, bracket.hi

    def g(x: float) -> float:
        if x == lo:
            return bracket.f_lo
        if x == hi:
            return bracket.f_hi
        return f(x)
    return float(optimize.brentq(g, lo, hi, xtol=tol, rtol=8.9e-16))


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


def grid_roots(f: Callable, xs: np.ndarray, count: int,
               tol: float = DEFAULT_ROOT_TOL) -> list[float]:
    """Roots at the first `count` sign changes of an f that takes an array,
    along the monotone grid xs (either direction), in grid order: f runs
    once on xs, then on floats inside the brackets.  A grid value 0 ends one
    change."""
    v = f(xs)
    change = v[:-1] * v[1:] <= 0.0
    change[1:] &= v[1:-1] != 0.0
    ends = (sorted(zip(xs[i:i + 2].tolist(), v[i:i + 2].tolist()))
            for i in np.flatnonzero(change)[:count])
    return [find_root(f, Bracket(lo, hi, f_lo, f_hi), tol)
            for (lo, f_lo), (hi, f_hi) in ends]
