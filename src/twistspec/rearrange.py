"""Discrete weighted rearrangement: distribution function, decreasing
rearrangement, rearrangement onto the isoperimetric sets, and numerical
checks of the Cavalieri principle, the Hardy-Littlewood inequality and the
Polya-Szego principle.

Rearrangements are computed by exact sorting of node values with their
weights (no binning), so equimeasurability is exact on the grid and all
discretization error is isolated in resampling/gradient quadrature.
The checks work from the decreasing profile u* alone (Polya-Szego through
`resampled`, its image on a uniform grid); `weighted_rearrangement` builds
usharp, the image with one node per mass slab.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import measures, numerics
from .errors import DomainError
from .grids import GridFunction
from .measures import MeasureSpec


@dataclass
class DistFunction:
    """mu(theta) = weighted measure of {|u| > theta}, sampled at the
    distinct |value| levels."""
    thresholds: np.ndarray    # ascending distinct values of |u|
    mu: np.ndarray            # mass strictly above each threshold
    total_mass: float

    def __call__(self, theta: float) -> float:
        idx = np.searchsorted(self.thresholds, theta, side="right") - 1
        if idx < 0:
            return self.total_mass
        return float(self.mu[idx])


def dist_function(u: GridFunction) -> DistFunction:
    """Distribution function of |u| with respect to the node weights."""
    absvals = np.abs(u.values)
    order = np.argsort(absvals, kind="stable")
    sorted_vals = absvals[order]
    cum = np.cumsum(u.node_weights[order])
    total = float(cum[-1])
    levels = np.unique(sorted_vals)
    last = np.searchsorted(sorted_vals, levels, side="right") - 1
    mu = total - cum[last]
    return DistFunction(thresholds=levels, mu=mu, total_mass=total)


@dataclass
class DecreasingProfile:
    """u*(s) on (0, mass]: right-continuous step function from the exact
    sorted samples, with a piecewise-linear interpolant for resampling."""
    cum_mass: np.ndarray      # ascending cumulative weights W_j
    values: np.ndarray        # descending |u| values v_j
    weights: np.ndarray       # sorted slab weights (diffs of cum_mass)

    @property
    def total_mass(self) -> float:
        return float(self.cum_mass[-1])

    def step(self, s) -> np.ndarray:
        """Exact step evaluation: u*(s) = v_j for s in (W_{j-1}, W_j]."""
        s = np.asarray(s, dtype=float)
        idx = np.searchsorted(self.cum_mass, s, side="left")
        idx = np.clip(idx, 0, len(self.values) - 1)
        return self.values[idx]

    def __call__(self, s) -> np.ndarray:
        """Piecewise-linear interpolant through the slab midpoints."""
        s = np.asarray(s, dtype=float)
        mids = self.cum_mass - 0.5 * np.diff(np.concatenate(([0.0], self.cum_mass)))
        return np.interp(s, mids, self.values)


def decreasing_rearrangement(u: GridFunction) -> DecreasingProfile:
    """Exact decreasing rearrangement of |u| as a weighted step profile."""
    order = np.argsort(-np.abs(u.values), kind="stable")
    vals = np.abs(u.values)[order]
    w = u.node_weights[order]
    return DecreasingProfile(cum_mass=np.cumsum(w), values=vals, weights=w)


def resampled(star: DecreasingProfile, measure: MeasureSpec) -> GridFunction:
    """`star` on a uniform grid over the isoperimetric set, a node per slab."""
    boundary, span, set_mass, weight = _image(measure)
    edges = np.linspace(*span(boundary(star.total_mass)),
                        len(star.values) + 1)
    x = 0.5 * (edges[:-1] + edges[1:])
    return GridFunction(x, star(set_mass(x)),
                        weight(x) * (edges[1] - edges[0]))


def _image(measure: MeasureSpec):
    """The isoperimetric sets of `measure` in the reduced 1D coordinate, as
    (boundary, span, set_mass, weight): boundary(m) is the boundary
    coordinate of the set of mass m (float or array), span(x) the
    coordinate range of the set bounded at x, set_mass(x) its mass and
    weight the reduced weight.  Gaussian: the half-space {x_1 > x}, cut
    where the tail ends, with set_mass on scipy's erfc ufunc (the
    quadrature grids are arrays of thousands of points; this is where the
    Gaussian route loads scipy); power: the half-ball of radius x."""
    if measure.is_gaussian:
        from scipy.special import erfc

        return (measures.k_gauss_inv,
                lambda a: (a, numerics.gauss_tail_cut(a)),
                lambda x: 0.5 * erfc(x), measures.gauss_weight_1d)
    p_exp = measure.n + measure.k
    c = measure.angular_constant
    return (lambda m: measures.radius_from_mass(measure, m),
            lambda r: (0.0, r),
            lambda r: c * r ** p_exp / p_exp, measure.radial_weight)


def weighted_rearrangement(u: GridFunction,
                           measure: MeasureSpec) -> GridFunction:
    """usharp: u rearranged onto the isoperimetric set of its total mass.

    Gaussian: the image is the half-space {x_1 > k^{-1}(mass)} and the
    profile increases in x_1 (largest values furthest right, where the
    super-level sets are smallest half-spaces).  Power: the image is the
    half-ball of matching mass and the profile decreases in r.

    The image grid carries exactly the sorted (value, weight) pairs of the
    input, one node per mass slab, so the distribution function of usharp
    coincides with that of u exactly.  Per-slab spacings are useless for
    finite differences when node weights are strongly heterogeneous (a
    light slab wedged between heavy ones fakes a huge local slope), so
    gradient-based checks use `resampled`, the same monotone profile on a
    uniform grid.
    """
    star = decreasing_rearrangement(u)
    W = star.cum_mass
    W_prev = np.concatenate(([0.0], W[:-1]))
    mid_mass = 0.5 * (W_prev + W)
    nodes = _image(measure)[0](mid_mass)
    order = np.argsort(nodes)
    return GridFunction(
        nodes=nodes[order],
        values=star.values[order],
        node_weights=star.weights[order],
    )


# ----------------------------------------------------------------------
# Inequality checks
# ----------------------------------------------------------------------

@dataclass
class InequalityReport:
    name: str
    lhs: float
    rhs: float

    @property
    def gap(self) -> float:
        return self.rhs - self.lhs

    @property
    def rel_gap(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs), 1e-300)
        return self.gap / scale


def _simpson(vals: np.ndarray, h: float) -> float:
    return float(h / 3.0 * (vals[0] + vals[-1]
                            + 4.0 * np.sum(vals[1:-1:2])
                            + 2.0 * np.sum(vals[2:-2:2])))


def _sharp_norm_by_quadrature(star: DecreasingProfile, measure: MeasureSpec,
                              p: float) -> float:
    """int |usharp|^p d gamma by composite Simpson quadrature of the
    interpolated profile against the continuous weight, 8 points per slab -
    independent of the node-weight bookkeeping, so it carries a genuine
    resampling error."""
    boundary, span, set_mass, weight = _image(measure)
    x = np.linspace(*span(boundary(star.total_mass)), 8 * len(star.values) + 1)
    return _simpson(star(set_mass(x)) ** p * weight(x), x[1] - x[0])


def check_cavalieri(u: GridFunction, measure: MeasureSpec,
                    p: float = 2.0) -> InequalityReport:
    """||u||_p^p on the original grid vs the resampled usharp norm.

    The node-weight sums of u, u* and usharp agree exactly by construction;
    the reported gap measures the independent-quadrature route and shrinks
    with grid resolution.
    """
    lhs = float(np.dot(u.node_weights, np.abs(u.values) ** p))
    rhs = _sharp_norm_by_quadrature(decreasing_rearrangement(u), measure, p)
    return InequalityReport(name=f"cavalieri_p{p:g}", lhs=lhs, rhs=rhs)


def check_hardy_littlewood(u: GridFunction, v: GridFunction) -> InequalityReport:
    """int |u v| d gamma <= int_0^M u*(s) v*(s) ds (exact step integrals)."""
    if len(u.values) != len(v.values) or not (
            np.array_equal(u.nodes, v.nodes)
            and np.array_equal(u.node_weights, v.node_weights)):
        raise DomainError("hardy-littlewood check needs a common grid")
    lhs = float(np.dot(u.node_weights, np.abs(u.values * v.values)))
    us = decreasing_rearrangement(u)
    vs = decreasing_rearrangement(v)
    # exact integral of the product of two step functions: merge breakpoints
    breaks = np.union1d(us.cum_mass, vs.cum_mass)
    prev = np.concatenate(([0.0], breaks[:-1]))
    widths = breaks - prev
    mid = breaks  # right-continuous steps: value on (prev, break] is step(break)
    rhs = float(np.sum(widths * us.step(mid) * vs.step(mid)))
    return InequalityReport(name="hardy_littlewood", lhs=lhs, rhs=rhs)


def check_polya_szego(u: GridFunction, measure: MeasureSpec) -> InequalityReport:
    """int |grad u|^2 d gamma >= int |grad usharp|^2 d gamma.

    Gradients by central differences on the original grid and on the
    uniformly resampled image grid (the mass parametrization of the
    monotone profile carries the coarea change of variables).  Report
    orientation: gap = energy(u) - energy(usharp) >= -tol.
    """
    energy_u = u.gradient_energy()
    star = decreasing_rearrangement(u)
    energy_sharp = resampled(star, measure).gradient_energy()
    return InequalityReport(name="polya_szego", lhs=energy_sharp, rhs=energy_u)
