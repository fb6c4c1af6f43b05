"""Shared 1D numerical kernels.

One root finder per bracket kind: `find_root` is the two-pole secular step
on a bracket between two known poles, which the closed form and the oracle
share, and `grid_roots` walks a scan grid with a scalar function and
bisects each sign change to adjacent floats.  Also the truncation point of
Gaussian tail integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import DomainError, NumericalError

# Evaluations before find_root gives up: bisection alone narrows the
# widest bracket in use to its stopping step in about 50 halvings.
SECULAR_MAX_ITER = 64


@dataclass(frozen=True)
class PoleBracket:
    """A sign bracket [lo, hi] of a secular function f between its poles
    p1 <= lo and hi <= p2, near which f runs like w_i/(p_i - x), w_i >= 0:
    f is negative above lo, and f_hi = f(hi) >= 0 (+inf at hi = p2); w2 = 0
    says that hi ends the domain and is no pole.  tau is the reach of
    rounding in x (see find_root); var names x in error messages."""
    lo: float
    hi: float
    f_hi: float
    poles: tuple[float, float]
    residues: tuple[float, float]
    tau: float
    var: str

    def __post_init__(self):
        if not self.lo < self.hi:
            raise DomainError(
                f"PoleBracket: need lo < hi, got [{self.lo}, {self.hi}]")
        if math.isnan(self.f_hi):
            raise NumericalError(f"PoleBracket: f is nan at the top of "
                                 f"[{self.lo!r}, {self.hi!r}]")
        if self.f_hi < 0.0:
            raise DomainError(
                f"PoleBracket: no sign change, f(hi)={self.f_hi:g} < 0")
        (p1, p2), (w1, w2) = self.poles, self.residues
        if not (w1 >= 0.0 and w2 >= 0.0):
            raise NumericalError(
                f"PoleBracket: the residues {w1!r} and {w2!r} at the poles "
                f"{self.var}_1 = {p1!r} and {self.var}_2 = {p2!r} must both "
                f"be >= 0")


def gauss_tail_cut(boundary: float) -> float:
    """Truncation point max(8, boundary + 6) for integrands bounded by a
    polynomial times e^{-t^2} on [boundary, inf): the neglected tail is far
    below every tolerance in use."""
    return max(8.0, boundary + 6.0)


def _value(f: Callable[[float], float], x: float) -> float:
    """f(x) as a float; a NaN raises NumericalError naming x."""
    v = float(f(x))
    if math.isnan(v):
        raise NumericalError(f"grid_roots: f is nan at x = {x!r}")
    return v


def _bisect(f: Callable[[float], float], a: float, fa: float, b: float,
            fb: float) -> float:
    """Root of f between a and b (either order), where fa and fb are
    nonzero with opposite signs: bisection until the ends are adjacent
    floats, then the end with the smaller |f|, or a point where f is 0."""
    while True:
        m = 0.5 * (a + b)
        if m == a or m == b:
            return a if abs(fa) <= abs(fb) else b
        fm = _value(f, m)
        if fm == 0.0:
            return m
        if (fm < 0.0) == (fa < 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm


def grid_roots(f: Callable[[float], float], xs: Iterable[float],
               count: int) -> list[float]:
    """Roots at the first `count` sign changes of a scalar f along the
    monotone grid xs (either direction), in grid order.  f runs point by
    point, the walk stops at the count-th change, and each change is
    bisected to adjacent floats (`_bisect`).  A grid value 0 is a root and
    ends one change; a run of them counts once.  A NaN from f, on the grid
    or inside a change, raises NumericalError naming x."""
    roots: list[float] = []
    x0 = f0 = math.nan            # no point before the first
    for x in map(float, xs):
        fx = _value(f, x)
        if fx == 0.0 and f0 != 0.0:
            roots.append(x)
        elif f0 < 0.0 < fx or fx < 0.0 < f0:
            roots.append(_bisect(f, x0, f0, x, fx))
        if len(roots) == count:
            break
        x0, f0 = x, fx
    return roots


def _model_root(x: float, g: float, dg: float, lo: float, hi: float,
                poles: tuple[float, float],
                residues: tuple[float, float]) -> Optional[float]:
    """Root in (lo, hi) of the two-pole model of a secular function built
    at x, an end of the bracket, or None if the model's root lies beyond
    the other end.

    m(x + u) = w1/(a1 - u) + w2/(a2 - u) + g + dg u,  a_i = pole_i - x,
    with the remainder g + dg u linear; the model runs from -inf at a pole
    end with w1 > 0 to +inf at one with w2 > 0 (w2 = 0: the top is no pole).
    The start is the model's root with the remainder held at g: with
    d = u - a1 in (0, span), span = a2 - a1, it solves
    g d^2 - (w1 + w2 + g span) d + w1 span = 0, taken in the form without
    cancellation.  From there Newton steps on m, kept inside the bracket by
    bisection, run to convergence.
    """
    (a1, a2), (w1, w2) = (poles[0] - x, poles[1] - x), residues

    def model(u: float) -> float:
        m = g + dg * u
        if w1:
            m += w1 / (a1 - u)
        if w2:
            m += w2 / (a2 - u)
        return m

    # x is an end of the bracket, where the model takes f's sign by
    # construction; at the other end it must take the sign f has there
    ulo, uhi = lo - x, hi - x
    if x == lo:
        if not (uhi == a2 and w2 > 0.0 or model(uhi) > 0.0):
            return None
    elif not (ulo == a1 and w1 > 0.0 or model(ulo) < 0.0):
        return None
    span = a2 - a1
    b = w1 + w2 + g * span
    s = math.sqrt(max(b * b - 4.0 * g * w1 * span, 0.0))
    if b < 0.0:                 # then g < 0
        u = a1 + (b - s) / (2.0 * g)
    elif b + s > 0.0:
        u = a1 + 2.0 * w1 * span / (b + s)
    else:
        u = 0.5 * (ulo + uhi)
    for _ in range(64):         # bisection alone converges in 64 halvings
        if not ulo < u < uhi:
            u = 0.5 * (ulo + uhi)
        m = model(u)
        if m == 0.0:
            break
        if m < 0.0:
            ulo = u
        else:
            uhi = u
        dm = w1 / (a1 - u) ** 2 + w2 / (a2 - u) ** 2 + dg
        if not dm > 0.0:        # the model is not monotone here: bisect
            u = 0.5 * (ulo + uhi)
            continue
        du = m / dm
        u -= du
        if abs(du) <= 4.0 * math.ulp(x + u):
            break
    # rounding may put the model's sign at x wrong, and its root just
    # beyond x: then x itself is the root to within rounding
    root = x + min(max(u, ulo), uhi)
    return root if root == x or lo < root < hi else None


def find_root(f: Callable[[float], tuple[float, Optional[float]]],
              bracket: PoleBracket) -> float:
    """Root of a secular function on a PoleBracket, as secular solvers find
    it (Bunch, Nielsen & Sorensen 1978; Li 1994, LAPACK dlaed4); f returns
    (f, f') or, where the slope is not known, (f, None), and runs only at
    interior points.

    Each iterate x sets the sign bracket and builds the two-pole model of f
    there (`_model_root`): the remainder g = f - w1/(p1 - x) - w2/(p2 - x),
    with its slope from f', or else the secant of g through the last two
    iterates (0 at the first).  The next iterate is the model's root inside
    the bracket, or the bracket's midpoint where it lies beyond.  Where lo is
    the pole p1 itself, the first iterate is the root of the poles alone,
    p1 + w1 (p2 - p1)/(w1 + w2), or, where hi is no pole, of the pole p1
    plus the remainder read at hi.  Otherwise it is the bracket's midpoint:
    at an end just off its pole the remainder cancels catastrophically.

    The iteration stops at f = 0, at a step of at most 4 ulp(1) p2 (4 ulps
    of the top pole; both callers' poles are positive), or when a model
    step fails to halve the one before it while that one was at most tau,
    the reach of rounding: f has reached its rounding floor.  A model root
    beyond the bracket after such a step is the same event; a bisection
    starts the comparison afresh and stops once the bracket is twice the
    stopping step wide.  It returns the last iterate at which f ran, so the
    caller may keep what f computed there.  A non-finite f, and
    SECULAR_MAX_ITER evaluations without a stop, raise NumericalError
    naming both poles and the last bracket.  x steps in units of 2^ex, the
    power of two next to p2, and f in units of 2^-ef, next to (w1 + w2)/p2:
    such scalings are exact, so the steps are the same at every scale of x
    and of f, and the model's squares stay in range.
    """
    if bracket.f_hi == 0.0:
        return bracket.hi
    ex = math.frexp(bracket.poles[1])[1]
    ef = ex - math.frexp(bracket.residues[0] + bracket.residues[1])[1]
    p1, p2, lo, hi, tau = (math.ldexp(v, -ex) for v in (
        *bracket.poles, bracket.lo, bracket.hi, bracket.tau))
    w1, w2 = (math.ldexp(w, ef - ex) for w in bracket.residues)
    stop, var = 4.0 * math.ulp(1.0) * p2, bracket.var

    def failure(what: str) -> NumericalError:
        return NumericalError(
            f"find_root: {what}; {var}_1 = {bracket.poles[0]!r}, "
            f"{var}_2 = {bracket.poles[1]!r}, last bracket "
            f"[{math.ldexp(lo, ex)!r}, {math.ldexp(hi, ex)!r}]")

    x = 0.5 * (lo + hi)
    if lo == p1 and w2 == 0.0:
        g_hi = math.ldexp(bracket.f_hi, ef) - w1 / (p1 - hi)
        if g_hi > 0.0:
            x = p1 + w1 / g_hi
    elif lo == p1 and w1 + w2 > 0.0:
        x = p1 + w1 * (p2 - p1) / (w1 + w2)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    prev, last_step = None, math.inf
    for _ in range(SECULAR_MAX_ITER):
        value, slope = f(math.ldexp(x, ex))
        if not (math.isfinite(value)
                and (slope is None or math.isfinite(slope))):
            raise failure(f"secular function is {value!r} at {var} = "
                          f"{math.ldexp(x, ex)!r}")
        value = math.ldexp(value, ef)
        if value == 0.0:
            break
        if value < 0.0:
            lo = x
        else:
            hi = x
        g = value - w1 / (p1 - x) - w2 / (p2 - x)
        if slope is not None:
            dg = (math.ldexp(slope, ef + ex) - w1 / (p1 - x) ** 2
                  - w2 / (p2 - x) ** 2)
        elif prev is None:
            dg = 0.0
        else:
            dg = (g - prev[1]) / (x - prev[0])
        prev = (x, g)
        nxt = _model_root(x, g, dg, lo, hi, (p1, p2), (w1, w2))
        if nxt is None:
            # a model root beyond the bracket is farther away than the
            # model step that set the bracket: below tau, the floor
            if last_step <= tau:
                break
            nxt, last_step = 0.5 * (lo + hi), math.inf
            if hi - lo <= 2.0 * stop:
                break
        else:
            step = abs(nxt - x)
            if step <= stop or (2.0 * step > last_step and last_step <= tau):
                break
            last_step = step
        x = nxt
    else:
        raise failure(f"no secular root after {SECULAR_MAX_ITER} evaluations")
    return math.ldexp(x, ex)
