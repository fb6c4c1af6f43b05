"""The good measures and their isoperimetric geometry.

Two families are implemented:

* gaussian(n): weight pi^{-n/2} exp(-|x|^2), total mass 1; isoperimetric
  sets are half-spaces {x_1 > a}, and everything reduces to the one
  dimensional weight exp(-x^2)/sqrt(pi) regardless of n.
* power(n, k): weight x_n^k on the upper half-space (k >= 0); isoperimetric
  sets are upper half-balls centered on {x_n = 0}, and everything reduces to
  the radial weight c_{n,k} r^{n+k-1}.  Lebesgue measure is power(n, 0).

The eigenvalue solvers downstream require n + k > 2 for the power family so
that the profile order (n+k)/2 - 1 is positive.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DomainError, ResourceError

SQRT_PI = math.sqrt(math.pi)

# Starting points of the inverse of erfc(t)/2, in the variables of Giles
# (2011, "Approximating the erfinv function"): with y = erfc(t) and
# x = erf(t) = 1 - y, w = -log(y (2 - y)) = -log(1 - x^2).  For w < 5,
# t = x P(w - 5/2); beyond it t = Q_j(s - c_j), s = sqrt(w), on the piece j
# whose upper end s_j exceeds s.  Least-squares fits to mpmath 1.3.0
# (dps = 40) on 1500 Chebyshev points per piece: within 1.2e-7 relative of
# t for w < 5 and 4e-8 beyond (1e-8 on the last piece, which reaches
# s = 27.26 at the smallest subnormal m).  One Halley step takes such a
# start below rounding: its absolute error is (t^2 + 1)/3 times the cube of
# the start's.
_INV_CENTRAL = (
    3.331536987e-08, 3.511362984e-07, -3.580117075e-06, -4.468299709e-06,
    0.0002187668942, -0.001253515715, -0.004177865678, 0.2466406029,
    1.501409442)
_INV_TAIL = (   # (s_j, c_j, Q_j)
    (3.5, 2.875, (
        -0.0001223141784, -0.0001183634104, 0.001277152297, -0.004059546506,
        0.008245776933, 1.000781313, 2.707583153)),
    (6.0, 4.75, (
        7.854954436e-06, -3.210924845e-05, 0.0001036863701,
        -0.0003014572077, 5.511284971e-05, 1.010323683, 4.597326242)),
    (12.0, 9.0, (
        5.243667231e-08, -2.507590021e-07, -3.85125855e-07, 2.102776369e-05,
        -0.0004085781619, 1.006726822, 8.884270367)),
    (math.inf, 19.75, (
        -2.150896066e-10, 5.703753093e-09, -1.30535135e-07, 3.402918422e-06,
        -8.906956769e-05, 1.002395399, 19.67746235)))
_TWO_OVER_SQRT_PI = 2.0 / SQRT_PI


def _horner(coeffs: tuple[float, ...], x: float) -> float:
    p = 0.0
    for c in coeffs:
        p = p * x + c
    return p


def _k_gauss_inv(m: float) -> float:
    """The t with erfc(t)/2 = m for a float m in (0, 1): a start from the
    tables above and one Halley step on math.erf or math.erfc.

    Above m = 1/2 it is -t(1 - m), with 1 - m exact.  On [1/4, 1/2] the
    step is taken on erf(t) = 1 - 2m, also exact, so t keeps its relative
    accuracy as it goes to 0 (and t(1/2) is +0.0).  Below the normal float
    range of 2m, erfc(t) and its slope are subnormal and the start is the
    result.
    """
    if m > 0.5:
        return -_k_gauss_inv(1.0 - m)
    y = 2.0 * m
    x = 1.0 - y
    w = -math.log(y * (2.0 - y))
    if w < 5.0:
        t = x * _horner(_INV_CENTRAL, w - 2.5)
    else:
        s = math.sqrt(w)
        for s_j, c_j, coeffs in _INV_TAIL:
            if s < s_j:
                break
        t = _horner(coeffs, s - c_j)
        if y < sys.float_info.min:
            return t
    # Halley on r(t) = erf(t) - x = y - erfc(t), r' = (2/sqrt(pi)) e^{-t^2},
    # r'' = -2 t r'
    r = math.erf(t) - x if m >= 0.25 else y - math.erfc(t)
    return t - r / (_TWO_OVER_SQRT_PI * math.exp(-t * t) + t * r)


def k_gauss(t: float) -> float:
    """Gaussian mass of the half-space {x_1 > t}: erfc(t)/2, a plain float
    from math.erfc (within 2.1 ulp of mpmath on a 0.005 grid of [0, 26.5])."""
    return 0.5 * math.erfc(t)


def k_gauss_inv(m: float | np.ndarray) -> float | np.ndarray:
    """The t with k_gauss(t) = m, 0 < m < 1: a plain float for a scalar m
    (a 0-d array too), within 2 ulp of mpmath, and for an array m the same
    float kernel on each element, so with the same bits."""
    if isinstance(m, np.ndarray) and m.ndim > 0:
        ok = (0.0 < m) & (m < 1.0)
        if not ok.all():
            raise DomainError(
                f"k_gauss_inv: mass must be in (0,1), got "
                f"{m[np.argmin(ok)]:g}")
        return np.array([_k_gauss_inv(v) for v in m.ravel().tolist()],
                        dtype=float).reshape(m.shape)
    m = float(m)
    if not 0.0 < m < 1.0:
        raise DomainError(f"k_gauss_inv: mass must be in (0,1), got {m:g}")
    return _k_gauss_inv(m)


def gauss_weight_1d(x) -> np.ndarray:
    """Reduced one-dimensional Gaussian weight exp(-x^2)/sqrt(pi)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x) / SQRT_PI


@lru_cache(maxsize=None)
def _angular_constant(n: int, k: float) -> float:
    """Integral of x_n^k over the upper unit hemisphere of S^{n-1}:
    pi^{(n-1)/2} Gamma((k+1)/2) / Gamma((n+k)/2), which is 1 for the n = 1
    hemisphere, the single point {1}.  Gamma((n+k)/2) overflows a float
    beyond n + k = 343.24: ResourceError.
    """
    try:
        return (math.pi ** ((n - 1) / 2.0) * math.gamma((k + 1.0) / 2.0)
                / math.gamma((n + k) / 2.0))
    except OverflowError:
        raise ResourceError(
            f"angular constant of power({n}, {k:g}) needs n + k <= 343.24; "
            f"beyond it Gamma((n+k)/2) overflows a float") from None


@dataclass(frozen=True)
class MeasureSpec:
    """Which good measure, with its ambient dimension (and exponent)."""
    kind: str          # "gaussian" | "power"
    n: int
    k: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "power"):
            raise DomainError(f"unknown measure kind {self.kind!r}")
        if self.n < 1:
            raise DomainError(f"dimension must be >= 1, got {self.n}")
        if self.kind == "power" and not 0 <= self.k < math.inf:
            raise DomainError(
                f"power exponent must be finite and >= 0, got {self.k}")

    @classmethod
    def gaussian(cls, n: int) -> "MeasureSpec":
        return cls(kind="gaussian", n=n)

    @classmethod
    def power(cls, n: int, k: float) -> "MeasureSpec":
        return cls(kind="power", n=n, k=float(k))

    @property
    def is_gaussian(self) -> bool:
        return self.kind == "gaussian"

    @property
    def angular_constant(self) -> float:
        if self.is_gaussian:
            raise DomainError("angular_constant is a power-measure quantity")
        return _angular_constant(self.n, self.k)

    @property
    def radial_exponent(self) -> float:
        """n + k - 1, the exponent of the reduced radial weight."""
        return self.n + self.k - 1.0

    @property
    def profile_order(self) -> float:
        """(n+k)/2 - 1, the Bessel order of the radial eigen-profiles."""
        return (self.n + self.k) / 2.0 - 1.0

    def require_solver_order(self) -> None:
        """Solvers need n + k > 2 (positive profile order)."""
        if self.is_gaussian:
            return
        if not self.n + self.k > 2.0:
            raise DomainError(
                f"power measure requires n+k>2 for the eigenvalue solvers, "
                f"got n={self.n}, k={self.k:g}")

    def radial_weight(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return self.angular_constant * r ** self.radial_exponent


def _normal(x: float) -> bool:
    """Whether x is a normal float."""
    return sys.float_info.min <= x < math.inf


def halfball_mass(measure: MeasureSpec, radius: float) -> float:
    """Weighted volume of the upper half-ball: c_{n,k} r^{n+k}/(n+k).

    Where r^(n+k) or the mass so taken is not a normal float (c r^(n+k)
    may overflow on the way), the mass is taken as ((c/(n+k))^(1/(n+k))
    r)^(n+k) instead, so that only the mass itself meets the float limit.
    A mass that is not a normal float raises ResourceError naming n + k
    and the radius: one that overflows, and one below 2.2e-308, which
    rounds to a subnormal with fewer than 53 bits, or to 0."""
    if measure.is_gaussian:
        raise DomainError("halfball_mass applies to power measures")
    if radius <= 0:
        raise DomainError(f"radius must be > 0, got {radius:g}")
    c, p = measure.angular_constant, measure.n + measure.k
    try:
        rp = radius ** p
    except OverflowError:
        rp = math.inf
    mass = c * rp / p
    if not (_normal(rp) and _normal(mass)):
        try:
            mass = ((c / p) ** (1.0 / p) * radius) ** p
        except OverflowError:
            mass = math.inf
    if not _normal(mass):
        raise ResourceError(
            f"halfball_mass: the half-ball of radius {radius:g} under "
            f"power({measure.n}, {measure.k:g}) has mass c r^(n+k) / (n+k), "
            f"n + k = {p:g}, of about 10^"
            f"{math.log10(c / p) + p * math.log10(radius):.1f}, not a normal "
            f"float (10^-307.7 to 10^308.3)")
    return mass


def _pth_root(t: float, p: float) -> float:
    """t^(1/p) for a float t > 0, with one Newton step on r^p = t: pow
    takes the rounded exponent 1/p, whose error ln(t) scales (1.3e-14
    relative near t = 1e300 for p = 3), and the step takes r to within
    rounding.  Where r^p is not a normal float, pow's r stands."""
    r = t ** (1.0 / p)
    try:
        rp = r ** p
    except OverflowError:
        return r
    return r + r * (t / rp - 1.0) / p if _normal(rp) else r


def radius_from_mass(measure: MeasureSpec,
                     m: float | np.ndarray) -> float | np.ndarray:
    """Radius of the upper half-ball of weighted volume m: a plain float
    for a scalar m (numpy scalars and 0-d arrays too), and for an array m
    the same float path on each element, so with the same bits.  The root
    is Python's pow followed by one Newton step (`_pth_root`), within
    rounding of the radius.  Where (n+k) m / c is not a normal float, the
    radius is taken as ((n+k)/c)^(1/(n+k)) m^(1/(n+k)) instead, so that
    only the radius itself meets the float limit."""
    if measure.is_gaussian:
        raise DomainError("radius_from_mass applies to power measures")
    if isinstance(m, np.ndarray) and m.ndim > 0:
        return np.array([radius_from_mass(measure, v)
                         for v in m.ravel().tolist()],
                        dtype=float).reshape(m.shape)
    m = float(m)
    if m <= 0:
        raise DomainError(f"mass must be > 0, got {m:g}")
    p, c = measure.n + measure.k, measure.angular_constant
    t = p * m / c
    if _normal(t):
        return _pth_root(t, p)
    return _pth_root(p / c, p) * _pth_root(m, p)


@dataclass(frozen=True)
class PairConfig:
    """Two disjoint isoperimetric components.

    Gaussian: half-spaces {x_1 < -L} and {x_1 > R}, L, R >= 0 so the slab
    between them contains the origin.  Power: two disjoint upper half-balls
    of radii L and R (the centers only need to be far enough apart, so they
    are abstracted away).
    """
    measure: MeasureSpec
    left_param: float
    right_param: float

    def __post_init__(self):
        L, R = self.left_param, self.right_param
        if self.measure.is_gaussian:
            if not (0 <= L < math.inf and 0 <= R < math.inf):
                raise DomainError(
                    f"gaussian pair needs finite offsets L, R >= 0, got "
                    f"L={L:g}, R={R:g} (component mass > 1/2 would push a "
                    f"half-space across the origin)")
        elif not (0 < L < math.inf and 0 < R < math.inf):
            raise DomainError(
                f"power pair needs finite radii L, R > 0, got L={L:g}, "
                f"R={R:g}")

    @property
    def mass_left(self) -> float:
        if self.measure.is_gaussian:
            return k_gauss(self.left_param)
        return halfball_mass(self.measure, self.left_param)

    @property
    def mass_right(self) -> float:
        if self.measure.is_gaussian:
            return k_gauss(self.right_param)
        return halfball_mass(self.measure, self.right_param)

    @property
    def total_mass(self) -> float:
        return self.mass_left + self.mass_right

    @property
    def is_symmetric(self) -> bool:
        """Gaussian offsets are translations and compare absolutely; power
        radii scale with the mass and compare relatively (equal subnormal
        radii too, where 1e-9 max(L, R) underflows to 0)."""
        L, R = self.left_param, self.right_param
        if self.measure.is_gaussian:
            return abs(L - R) < 1e-9
        return L == R or abs(L - R) < 1e-9 * max(L, R)


def gaussian_split_window(total_mass: float) -> tuple[float, float]:
    """Split fractions keeping both Gaussian component masses <= 1/2."""
    if not 0.0 < total_mass <= 1.0:
        raise DomainError(
            f"gaussian total mass must be in (0, 1], got {total_mass:g}")
    s_max = min(1.0, 0.5 / total_mass)
    s_min = 1.0 - s_max
    return s_min, s_max


def config_from_split(measure: MeasureSpec, total_mass: float,
                      s: float) -> PairConfig:
    """Pair with left mass s*total and right mass (1-s)*total."""
    if not 0.0 < s < 1.0:
        raise DomainError(f"split fraction must be in (0,1), got {s:g}")
    if not 0 < total_mass < math.inf:
        raise DomainError(
            f"total mass must be finite and > 0, got {total_mass:g}")
    m_left = s * total_mass
    m_right = (1.0 - s) * total_mass
    if measure.is_gaussian:
        if total_mass > 1.0:
            raise DomainError("gaussian total mass cannot exceed 1")
        if m_left > 0.5 or m_right > 0.5:
            raise DomainError(
                f"infeasible gaussian split: component masses "
                f"({m_left:g}, {m_right:g}) must both be <= 1/2")
        return PairConfig(measure, k_gauss_inv(m_left), k_gauss_inv(m_right))
    return PairConfig(measure, radius_from_mass(measure, m_left),
                      radius_from_mass(measure, m_right))
