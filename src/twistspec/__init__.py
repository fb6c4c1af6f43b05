"""Twisted eigenvalues of weighted Laplacians on isoperimetric pairs.

Closed-form transcendental solvers (Hermite functions for the Gaussian
weight, Bessel functions for power weights) cross-checked by a discrete
constrained Sturm-Liouville oracle, plus the rearrangement machinery and
the shape-optimization scan that certify the minimum at the symmetric
split.
"""

from .errors import (AccuracyError, DomainError, NumericalError,
                     ResourceError, TwistspecError)
from .measures import MeasureSpec, PairConfig, config_from_split
from .closedform import (TwistedSolution, dirichlet_halfball_power,
                         dirichlet_halfspace_gauss, twisted_pair_gauss,
                         twisted_pair_power)
from .grids import GridFunction
from .shapeopt import ScanCurve, certify_minimum, lambda_of_split, scan

__version__ = "0.1.0"


def cached_functions() -> tuple:
    """Every memoized function of the package, nine in all: the four
    special-function kernels of a pair solve, the Hermite zero and Bessel
    zero-pair tables, the power family records (one per n + k), the angular
    constants and the oracle's piece records (one per n + k and grid for
    half-balls, with the modes found).  Each is a pure function of its
    arguments, but one computed under a patched helper keeps the patched
    values; `clear_caches` empties them all."""
    from . import closedform, measures, oracle, specfun
    return (specfun._hermite, specfun._hermite_pair, specfun._hermite_jet,
            specfun._bessel_pair, specfun.hermite_largest_zero,
            closedform._bessel_zero_pair, closedform._power_family,
            measures._angular_constant, oracle._record)


def clear_caches() -> None:
    """Empty every cache of `cached_functions`."""
    for f in cached_functions():
        f.cache_clear()


__all__ = [
    "AccuracyError", "DomainError", "NumericalError", "ResourceError",
    "TwistspecError", "MeasureSpec", "PairConfig", "config_from_split",
    "TwistedSolution", "dirichlet_halfball_power", "dirichlet_halfspace_gauss",
    "twisted_pair_gauss", "twisted_pair_power", "GridFunction",
    "ScanCurve", "certify_minimum", "lambda_of_split", "scan",
    "cached_functions", "clear_caches", "__version__",
]
