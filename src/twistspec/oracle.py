"""Discrete constrained Sturm-Liouville solver on unions of 1D intervals.

Self-adjoint flux discretization of  -(w y')' = lambda w y  with a nodal
weight matrix, for three weight families: the reduced 1D Gaussian weight
exp(-x^2)/sqrt(pi), the Lebesgue weight 1, and the radial power weight
c_{n,k} r^{n+k-1}.  Dirichlet conditions are eliminated at finite endpoints;
the radial origin r=0 carries no condition (the weight vanishes there for
n+k>1, making it a natural boundary).

The zero-weighted-mean eigenvalue ("twisted") is the root in
(lambda_1, lambda_2] of the secular equation  f(lambda) = v^T (B - lambda)^{-1} v = 0,
where B = M^{-1/2} K M^{-1/2} is the mass-symmetrized tridiagonal operator
and v the normalized constraint direction M^{1/2} 1 (Golub 1973, "Some
modified matrix eigenvalue problems").  One tridiagonal solve
x = (B - lambda)^{-1} v gives both f = v.x and f' = x.x, so Dirichlet and
twisted eigenvalues share one O(n) path.  The root is found as secular
solvers do (Bunch, Nielsen & Sorensen 1978; LAPACK dlaed4), by the two-pole
step that the closed form shares (numerics.find_root on a PoleBracket): f
is modelled by its two poles, whose residues (v.phi_1)^2 and (v.phi_2)^2
the eigensolve already gives, plus a remainder linear through its value
and slope, and each step goes to the model's root inside the sign bracket.

Both solves read one eigensolve per (domain, h, count): assembly,
symmetrization and the tridiagonal eigensolver run once in `_spectrum`,
which keeps its last two results, so a twisted solve followed by
`dirichlet_eigs(count=2)` on the same grid (or the reverse) solves once.
The cached arrays are read-only; results hand out copies.

The LAPACK routines (scipy.linalg's eigh_tridiagonal and dgtsv) are imported
inside `_spectrum` and `twisted_eig`, so scipy loads on the first oracle
solve, not with the package: the closed-form route never loads it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import measures, numerics
from .errors import AccuracyError, DomainError, NumericalError, ResourceError
from .grids import GridFunction

COORDINATES = ("cartesian_gauss", "radial_power", "lebesgue")

# Nodes per interval at the default grid.  (Second-order scheme: the
# resulting relative discretization error is ~1e-5, two orders below the
# 1e-3 agreement gates.)  Default grids of unions with more than three
# intervals are scaled down to the node cap; an explicit h beyond it raises.
DEFAULT_NODES_PER_INTERVAL = 1100
MAX_TOTAL_NODES = 4000


@dataclass(frozen=True)
class Domain1D:
    """Union of 1D intervals with a weight family.

    For the cartesian families the intervals must be pairwise disjoint.  For
    `radial_power` each interval (a, b) is the radial reduction of a separate
    half-ball shell; distinct intervals describe geometrically disjoint balls
    and may overlap as number ranges.
    """
    intervals: tuple[tuple[float, float], ...]
    coordinate: str
    measure: Optional[measures.MeasureSpec] = None

    def __post_init__(self):
        if self.coordinate not in COORDINATES:
            raise DomainError(f"unknown coordinate family {self.coordinate!r}")
        ivs = tuple((float(a), float(b)) for a, b in self.intervals)
        object.__setattr__(self, "intervals", ivs)
        for a, b in ivs:
            if not b > a:
                raise DomainError(f"empty interval ({a}, {b})")
        if self.coordinate == "radial_power":
            if self.measure is None or self.measure.is_gaussian:
                raise DomainError("radial_power domain needs a power MeasureSpec")
            if any(a < 0 for a, _ in ivs):
                raise DomainError("radial intervals need a >= 0")
        else:
            srt = sorted(ivs)
            for (a1, b1), (a2, b2) in zip(srt, srt[1:]):
                if a2 < b1:
                    raise DomainError("cartesian intervals must be disjoint")

    def weight(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.coordinate == "cartesian_gauss":
            return measures.gauss_weight_1d(x)
        if self.coordinate == "lebesgue":
            return np.ones_like(x)
        return self.measure.radial_weight(x)


def gaussian_pair_domain(config: measures.PairConfig) -> Domain1D:
    """Truncated 1D domain of a Gaussian half-space pair.

    The left half-space {x_1 < -L} maps to (-cut(L), -L), the right one to
    (R, cut(R)), with cut = numerics.gauss_tail_cut: the omitted tail mass
    is below k_gauss(8) = 5.6e-30, and the Dirichlet condition at the
    artificial endpoint perturbs eigenvalues by O(tail).
    """
    L, R = config.left_param, config.right_param
    return Domain1D(
        intervals=((-numerics.gauss_tail_cut(L), -L),
                   (R, numerics.gauss_tail_cut(R))),
        coordinate="cartesian_gauss",
    )


def power_pair_domain(config: measures.PairConfig) -> Domain1D:
    """Radial domain of a half-ball pair: two intervals (0, L), (0, R)."""
    return Domain1D(
        intervals=((0.0, config.left_param), (0.0, config.right_param)),
        coordinate="radial_power",
        measure=config.measure,
    )


def pair_domain(config: measures.PairConfig) -> Domain1D:
    """Oracle domain of a pair of either measure family."""
    if config.measure.is_gaussian:
        return gaussian_pair_domain(config)
    return power_pair_domain(config)


@dataclass
class EigenResult:
    eigenvalues: np.ndarray
    eigenvectors: list[GridFunction]
    grid_size: int


@dataclass
class _Assembly:
    main: np.ndarray          # tridiagonal stiffness, main diagonal
    off: np.ndarray           # super/sub diagonal (zeros across pieces)
    mass: np.ndarray          # diagonal node weights (gamma * h)
    nodes: np.ndarray
    pieces: list[tuple[int, int]]


def _resolve_counts(domain: Domain1D, h: Optional[float]) -> list[int]:
    lengths = [b - a for a, b in domain.intervals]
    if h is not None:
        if h <= 0:
            raise DomainError("grid spacing must be > 0")
        counts = [max(8, int(round(length / h))) for length in lengths]
    else:
        counts = [DEFAULT_NODES_PER_INTERVAL for _ in lengths]
    total = sum(counts)
    if total > MAX_TOTAL_NODES:
        if h is not None:
            raise ResourceError(
                f"grid of {total} nodes exceeds the {MAX_TOTAL_NODES} cap")
        scale = MAX_TOTAL_NODES / total
        counts = [max(8, int(c * scale)) for c in counts]
    return counts


def _assemble(domain: Domain1D, h: Optional[float] = None) -> _Assembly:
    counts = _resolve_counts(domain, h)
    main_parts, off_parts, mass_parts, node_parts = [], [], [], []
    pieces = []
    start = 0
    radial = domain.coordinate == "radial_power"
    for (a, b), n_cells in zip(domain.intervals, counts):
        step = (b - a) / n_cells
        natural_inner = radial and a == 0.0
        # interior nodes a+h .. b-h; Dirichlet rows at both ends eliminated,
        # except that a radial origin keeps no condition: the flux through
        # the innermost face is dropped (the weight vanishes like r^{n+k-1}).
        nodes = a + step * np.arange(1, n_cells)
        w_nodes = domain.weight(nodes) * step
        w_faces = domain.weight(a + step * (np.arange(0, n_cells) + 0.5))
        main = (w_faces[:-1] + w_faces[1:]) / step
        if natural_inner:
            main[0] -= w_faces[0] / step
        off = -w_faces[1:-1] / step
        main_parts.append(main)
        off_parts.append(off)
        if len(off_parts) > 1:
            # zero coupling across pieces
            off_parts.insert(-1, np.zeros(1))
        mass_parts.append(w_nodes)
        node_parts.append(nodes)
        pieces.append((start, start + len(nodes)))
        start += len(nodes)
    main = np.concatenate(main_parts)
    off = np.concatenate(off_parts) if len(off_parts) > 1 else off_parts[0]
    mass = np.concatenate(mass_parts)
    nodes = np.concatenate(node_parts)
    if np.any(mass <= 0):
        raise NumericalError("assembly produced non-positive node weights")
    return _Assembly(main=main, off=off, mass=mass, nodes=nodes, pieces=pieces)


def _grid_functions(asm: _Assembly, vectors: np.ndarray) -> list[GridFunction]:
    out = []
    for j in range(vectors.shape[1]):
        v = vectors[:, j]
        nrm = math.sqrt(float(np.dot(asm.mass, v * v)))
        v = v / nrm
        lead = np.argmax(np.abs(v) > 1e-8 * np.max(np.abs(v)))
        if v[lead] < 0:
            v = -v
        out.append(GridFunction(asm.nodes.copy(), v, asm.mass.copy(),
                                list(asm.pieces)))
    return out


def _symmetrized(asm: _Assembly) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Diagonals (d, e) of B = M^{-1/2} K M^{-1/2}, and M^{-1/2}."""
    inv_sqrt = 1.0 / np.sqrt(asm.mass)
    d = asm.main * inv_sqrt * inv_sqrt
    e = asm.off * inv_sqrt[:-1] * inv_sqrt[1:]
    return d, e, inv_sqrt


@functools.lru_cache(maxsize=2)
def _spectrum(domain: Domain1D, h: Optional[float], count: int):
    """Assembly, diagonals (d, e) of B, M^{-1/2}, and the smallest `count`
    eigenpairs (w, phi) of B, all read-only."""
    from scipy.linalg import eigh_tridiagonal

    asm = _assemble(domain, h)
    d, e, inv_sqrt = _symmetrized(asm)
    w, phi = eigh_tridiagonal(
        d, e, select="i", select_range=(0, min(count, len(d)) - 1))
    for a in (asm.main, asm.off, asm.mass, asm.nodes, d, e, inv_sqrt, w, phi):
        a.flags.writeable = False
    return asm, d, e, inv_sqrt, w, phi


def dirichlet_eigs(domain: Domain1D, h: Optional[float] = None,
                   count: int = 2) -> EigenResult:
    """Smallest `count` Dirichlet eigenvalues of the union."""
    asm, d, _, inv_sqrt, w, v = _spectrum(domain, h, count)
    u = v * inv_sqrt[:, None]
    return EigenResult(
        eigenvalues=w.copy(),
        eigenvectors=_grid_functions(asm, u),
        grid_size=len(d),
    )


def twisted_eig(domain: Domain1D, h: Optional[float] = None) -> EigenResult:
    """Smallest eigenvalue of the Rayleigh quotient restricted to the
    discrete zero-weighted-mean subspace, as the root of the secular
    equation f(lambda) = v . (B - lambda)^{-1} v on (lambda_1, lambda_2].

    Each iteration is one tridiagonal solve x = (B - lambda)^{-1} v, which
    gives f = v.x and f' = x.x.  numerics.find_root runs the two-pole
    secular step with the residues (v.phi_1)^2 and (v.phi_2)^2 on the sign
    bracket [lambda_1 + tau, lambda_2 - tau] (the pole guard tau below),
    from its middle.  f is resolved only to about eps ||B|| / lambda
    relative (6e-12 to 1.4e-10 on the default grid of four verify pairs),
    so the step stops at that rounding floor, where a model step fails to
    halve the one before it, and digits of lambda past the floor are noise.
    The last resolvent is the eigenvector.  A non-finite f, or
    numerics.SECULAR_MAX_ITER solves without a stop, raise NumericalError
    naming both poles and the last bracket.

    tau comes from the largest entries of B, so on a union whose cells
    differ much in size the finest cells set it for all.  Where tau reaches
    lambda_1, or the root lies inside the guard band below lambda_2 (f <= 0
    at lambda_2 - tau while v.phi_2 is not zero to rounding), no root is
    resolved: AccuracyError, naming tau and max|d|.
    """
    from scipy.linalg.lapack import dgtsv

    asm, d, e, inv_sqrt, w, phi = _spectrum(domain, h, 2)
    lam1, lam2 = float(w[0]), float(w[1])
    # constraint  meanvec . u = 0  becomes  v . (M^{1/2} u) = 0
    v = np.sqrt(asm.mass)
    v /= np.linalg.norm(v)

    def resolvent(lam: float) -> np.ndarray:
        """(B - lam)^{-1} v by one tridiagonal solve."""
        *_, x, info = dgtsv(e, d - lam, e, v[:, None])
        if info != 0:
            raise NumericalError(
                f"twisted_eig: B - lambda singular at lambda = {lam!r}")
        return x[:, 0]

    # eigh_tridiagonal places each pole only to about eps * ||B||; keep the
    # bracket that far away from both so f has its asymptotic sign there.
    max_d = float(np.max(np.abs(d)))
    tau = 64.0 * np.finfo(float).eps * (max_d
                                        + 2.0 * float(np.max(np.abs(e))))

    def unresolved(what: str) -> AccuracyError:
        return AccuracyError(
            f"twisted_eig: {what}: the pole guard tau = {tau:.3g} comes from "
            f"max|d| = {max_d:.3g}, the finest cells of the grid, and leaves "
            f"the root unresolved", estimate=tau)

    if tau >= lam1:
        raise unresolved(f"tau reaches lambda_1 = {lam1:.6g}")
    residues = tuple(float(c) ** 2 for c in v @ phi)
    lo, hi = lam1 + tau, lam2 - tau
    # poles closer than 2 tau: f_hi = 0 takes the lambda_2 branch
    f_hi = float(v @ resolvent(hi)) if hi > lo else 0.0
    # v.phi_2 is zero to rounding below tau / (lambda_2 - lambda_1), the
    # eigenvector's error bound (Davis & Kahan 1970)
    if f_hi <= 0.0 and hi > lo and residues[1] > (tau / (lam2 - lam1)) ** 2:
        raise unresolved(
            f"the root lies within tau below lambda_2 = {lam2:.6g}")
    if f_hi <= 0.0:
        # the root sits at lambda_2 (a double pole or v . phi_2 = 0):
        # the mean-zero combination of phi_1 and phi_2 is the eigenvector
        lam = lam2
        y = (v @ phi[:, 1]) * phi[:, 0] - (v @ phi[:, 0]) * phi[:, 1]
    else:
        f_lo = float(v @ resolvent(lo))
        if not f_lo < 0.0:
            raise NumericalError(
                f"twisted_eig: secular function is {f_lo:g} >= 0 just above "
                f"the pole lambda_1 = {lam1!r}")
        last = []

        def secular(lam: float) -> tuple[float, float]:
            x = resolvent(lam)
            last[:] = [x]
            return float(v @ x), float(x @ x)

        lam = numerics.find_root(secular, numerics.PoleBracket(
            lo, hi, f_hi, (lam1, lam2), residues, tau, "lambda"))
        y = last[0]
    y -= v * float(v @ y)                       # one projection against v
    gf = _grid_functions(asm, (y * inv_sqrt)[:, None])[0]
    mean = abs(gf.weighted_mean())
    norm = math.sqrt(float(np.dot(asm.mass, gf.values ** 2)))
    # Cauchy-Schwarz: |sum m u| <= sqrt(sum m) ||u||_m, so the gate scales
    # with the total mass of the grid
    if mean > 1e-13 * math.sqrt(float(np.sum(asm.mass))) * norm:
        raise NumericalError(
            f"twisted eigenvector violates the mean constraint: {mean:g}")
    return EigenResult(
        eigenvalues=np.asarray([lam], dtype=float),
        eigenvectors=[gf],
        grid_size=len(d),
    )
