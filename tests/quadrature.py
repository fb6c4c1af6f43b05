"""Reference numerics for the tests: adaptive Gauss-Legendre quadrature,
which the library's exact identities and fixed-grid normalizations are
held against, and a uniform sign-change scan for reference roots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from twistspec import numerics
from twistspec.errors import AccuracyError, DomainError

DEFAULT_QUAD_TOL = 1e-10


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


def gauss_tail(boundary: float, nu: float = 8.0) -> TailSpec:
    """Truncation for integrands bounded by (2t)^nu e^{-t^2}/sqrt(pi), cut
    at numerics.gauss_tail_cut; the bound integrates the envelope by one
    step of partial integration."""
    cut = numerics.gauss_tail_cut(boundary)
    bound = (2.0 * cut) ** nu * math.exp(-cut * cut) / math.sqrt(math.pi) / cut
    return TailSpec(cut=cut, bound=bound)


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


def scan_sign_change(f: Callable[[float], float], a: float, b: float,
                     steps: int) -> Optional[tuple[float, float]]:
    """First sign-change sub-interval (lo, hi) of f on a uniform scan of
    [a, b], or None where f keeps its sign."""
    xs = np.linspace(a, b, steps + 1)
    x_prev = float(xs[0])
    f_prev = f(x_prev)
    for x in xs[1:]:
        x_cur = float(x)
        f_cur = f(x_cur)
        if f_prev * f_cur <= 0.0:
            return x_prev, x_cur
        x_prev, f_prev = x_cur, f_cur
    return None
