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
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import erfc, erfcinv

from .errors import DomainError

SQRT_PI = math.sqrt(math.pi)


def k_gauss(t: float) -> float:
    """Gaussian mass of the half-space {x_1 > t}: erfc(t)/2."""
    return 0.5 * float(erfc(t))


def k_gauss_deriv(t: float) -> float:
    """d/dt of k_gauss: -exp(-t^2)/sqrt(pi)."""
    return -math.exp(-t * t) / SQRT_PI


def k_gauss_inv(m: float) -> float:
    """The t with k_gauss(t) = m, 0 < m < 1."""
    if not 0.0 < m < 1.0:
        raise DomainError(f"k_gauss_inv: mass must be in (0,1), got {m:g}")
    return float(erfcinv(2.0 * m))


def gauss_halfspace_perimeter(t: float) -> float:
    """Weighted perimeter of {x_1 > t}: exp(-t^2)/sqrt(pi) = -k'(t)."""
    return math.exp(-t * t) / SQRT_PI


def gauss_weight_1d(x) -> np.ndarray:
    """Reduced one-dimensional Gaussian weight exp(-x^2)/sqrt(pi)."""
    x = np.asarray(x, dtype=float)
    return np.exp(-x * x) / SQRT_PI


@lru_cache(maxsize=None)
def _angular_constant(n: int, k: float) -> float:
    """Integral of x_n^k over the upper unit hemisphere of S^{n-1}:
    pi^{(n-1)/2} Gamma((k+1)/2) / Gamma((n+k)/2), which is 1 for the n = 1
    hemisphere, the single point {1}.
    """
    return (math.pi ** ((n - 1) / 2.0) * math.gamma((k + 1.0) / 2.0)
            / math.gamma((n + k) / 2.0))


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
        if self.kind == "power" and self.k < 0:
            raise DomainError(f"power exponent must be >= 0, got {self.k}")

    @classmethod
    def gaussian(cls, n: int) -> "MeasureSpec":
        return cls(kind="gaussian", n=n)

    @classmethod
    def power(cls, n: int, k: float) -> "MeasureSpec":
        return cls(kind="power", n=n, k=float(k))

    @classmethod
    def lebesgue(cls, n: int) -> "MeasureSpec":
        return cls(kind="power", n=n, k=0.0)

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


def halfball_mass(measure: MeasureSpec, radius: float) -> float:
    """Weighted volume of the upper half-ball: c_{n,k} r^{n+k}/(n+k)."""
    if measure.is_gaussian:
        raise DomainError("halfball_mass applies to power measures")
    if radius <= 0:
        raise DomainError(f"radius must be > 0, got {radius:g}")
    p = measure.n + measure.k
    return measure.angular_constant * radius ** p / p


def radius_from_mass(measure: MeasureSpec, m: float) -> float:
    """Radius of the upper half-ball of weighted volume m."""
    if measure.is_gaussian:
        raise DomainError("radius_from_mass applies to power measures")
    if m <= 0:
        raise DomainError(f"mass must be > 0, got {m:g}")
    p = measure.n + measure.k
    return (p * m / measure.angular_constant) ** (1.0 / p)


def halfball_perimeter(measure: MeasureSpec, radius: float) -> float:
    """Weighted perimeter of the spherical part: c_{n,k} r^{n+k-1}."""
    if measure.is_gaussian:
        raise DomainError("halfball_perimeter applies to power measures")
    return measure.angular_constant * radius ** measure.radial_exponent


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
        if self.measure.is_gaussian:
            if self.left_param < 0 or self.right_param < 0:
                raise DomainError(
                    "gaussian pair needs offsets L, R >= 0 (component mass "
                    "> 1/2 would push a half-space across the origin)")
        else:
            if self.left_param <= 0 or self.right_param <= 0:
                raise DomainError("power pair needs radii L, R > 0")

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
    def larger_side(self) -> str:
        return "left" if self.mass_left >= self.mass_right else "right"

    @property
    def is_symmetric(self) -> bool:
        return abs(self.left_param - self.right_param) < 1e-9


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
    if total_mass <= 0:
        raise DomainError(f"total mass must be > 0, got {total_mass:g}")
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
