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
f increases between its poles, so f <= 0 at the bracket top lambda_2 - tau_2
puts the root within tau_2, lambda_2's own rounding reach, below lambda_2,
and lambda_2 is the answer.

The Dirichlet eigenpairs come piece by piece.  B is block diagonal, one
irreducible SPD block per interval, so each block is solved on its own: two
inverse iterations at shift 0 from the vector of ones, then Rayleigh
quotient iteration until a step is <= tau, the block's pole guard.
Sylvester inertia counts certify each value rho as the block's j-th
eigenvalue: the LDL^T factorization of the block minus a shift has as many
negative pivots as the block has eigenvalues below the shift (Kahan 1966;
Parlett 1998 section 3.3), and it must find j - 1 of them below rho - eta
and j below rho + eta, eta = ||B x - rho x|| + tau.  The blocks' values
merge into the smallest `count`; a block's higher modes (from a deflated
start, under the same certificate) are found only where they can undercut
another block's lowest.  The same counts give `constrained_count`, the
number of twisted eigenvalues below a given lambda, which shares no code
with the root search.

tau = 64 eps (max|d| + 2 max|e|) is the reach of rounding in a block's
eigenvalues, taken over that block's entries alone: each pole is guarded
on the scale of its own piece, so pieces whose cells differ much in size
(a half-ball of radius 1e-12 next to a unit one) each resolve their own
eigenvalues.

Each piece's block comes from a record (`_record`) kept between solves
and keyed by the piece's shape without its scale.  A half-ball piece (a, b)
is the dilation by b of (a/b, 1): its block of B is the unit piece's times
b^-2, and its node weights are the unit piece's times c_{n,k} b^(n+k).  So
every half-ball of one n + k on the same cells reads one record, keyed by
(n + k, cells, a/b).  A Gaussian or Lebesgue piece is its own record, at
scale 1, so its arithmetic is that of a direct assembly.  A record holds
the piece's node weights (over c_{n,k}, which cancels in B and in v), its
block of B with tau, and the modes found so far, all at its own scale.  A
scaled block's eigenvalues and tau are the record's times the scale, and
its eigenvectors are the record's.  Modes are found and certified on the
record alone, so a record's j-th mode is the same whichever solve asks for
it first, and a solve from warm records gives the bits of a cold one.

Both solves read one eigensolve per (domain, h, count): the assembly from
the records and the merge of their modes run once in `_spectrum`, which
keeps its last two results, so a twisted solve followed by
`dirichlet_eigs(count=2)` on the same grid (or the reverse) reads the
records once.  The cached arrays are read-only; results hand out copies.

The LAPACK routines (scipy.linalg.lapack's dpttrf, dpttrs and dgtsv) and
the per-piece solver (`tridiag`) are imported inside the functions that
call them, so they load on the first oracle solve, not with the package:
the closed-form route never loads them.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import measures, numerics
from .errors import DomainError, NumericalError, ResourceError
from .grids import GridFunction

COORDINATES = ("cartesian_gauss", "radial_power", "lebesgue")

# Nodes per interval at the default grid.  (Second-order scheme: the
# resulting relative discretization error is ~1e-5, two orders below the
# 1e-3 agreement gates.)
DEFAULT_NODES_PER_INTERVAL = 1100
# The one cap on a grid, explicit or default, set by memory: a solve holds
# about 170 bytes per node (3.9e5 nodes peaked at 120 MB of RSS, 2.0e6 at
# 361 MB), so 2^20 nodes stay near 180 MB.  It is checked on length / h in
# floats, before any array or integer is made.
MAX_TOTAL_NODES = 2 ** 20
# Piece records kept between solves (`_record`), the most recently read:
# a record holds 32 bytes a node, 8 more per mode past the first, and only
# pieces of at most MAX_RECORD_NODES cells are kept, so the records stay
# near 25 MB at most.
RECORDS = 12
MAX_RECORD_NODES = 2 ** 16


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
    d: np.ndarray             # diagonal of B = M^{-1/2} K M^{-1/2}
    e: np.ndarray             # its off-diagonal (zeros across pieces)
    weights: np.ndarray       # node weights over the angular constant
    mass: np.ndarray          # node weights (gamma * h)
    nodes: np.ndarray
    pieces: list[tuple[int, int]]
    parts: list             # (tridiag.Block, scale) per piece, in order


@dataclass(frozen=True)
class _Record:
    """One piece at its own scale (see the module docstring)."""
    weights: np.ndarray       # node weights (over c_{n,k} on a half-ball)
    block: object             # tridiag.Block of B, with the modes found


def _resolve_counts(domain: Domain1D, h: Optional[float]) -> list[int]:
    if h is None:
        cells = [float(DEFAULT_NODES_PER_INTERVAL)] * len(domain.intervals)
    elif not (math.isfinite(h) and h > 0):
        raise DomainError(f"grid spacing must be finite and > 0, got {h!r}")
    else:
        cells = [max(8.0, (b - a) / h) for a, b in domain.intervals]
    total = sum(cells)
    if not total <= MAX_TOTAL_NODES:
        raise ResourceError(f"oracle: a grid of {total:.4g} nodes exceeds "
                            f"the {MAX_TOTAL_NODES}-node cap")
    return [int(round(c)) for c in cells]


@functools.lru_cache(maxsize=RECORDS)
def _record(coordinate: str, exponent: Optional[float], a: float, b: float,
            cells: int) -> _Record:
    """The record of the interval (a, b) on `cells` cells, with the weight
    of `coordinate` (for `radial_power`, r^exponent); its arrays are
    read-only.  Interior nodes a+h .. b-h; Dirichlet rows at both ends are
    eliminated, except that a radial origin keeps no condition: the flux
    through the innermost face is dropped (the weight vanishes like
    r^{n+k-1}).
    """
    from . import tridiag

    if coordinate == "cartesian_gauss":
        weight = measures.gauss_weight_1d
    elif coordinate == "lebesgue":
        weight = np.ones_like
    else:
        def weight(x):
            return x ** exponent
    step = (b - a) / cells
    weights = weight(a + step * np.arange(1, cells)) * step
    w_faces = weight(a + step * (np.arange(0, cells) + 0.5))
    main = (w_faces[:-1] + w_faces[1:]) / step
    if coordinate == "radial_power" and a == 0.0:
        main[0] -= w_faces[0] / step
    inv_sqrt = 1.0 / np.sqrt(weights)
    d = main * inv_sqrt * inv_sqrt
    e = -w_faces[1:-1] / step * inv_sqrt[:-1] * inv_sqrt[1:]
    for x in (weights, d, e):
        x.flags.writeable = False
    return _Record(weights, tridiag.block(d, e))


def _piece(domain: Domain1D, a: float, b: float,
           cells: int) -> tuple[_Record, float, float]:
    """The record of the interval (a, b) of `domain` on `cells` cells, and
    the factors that take it to the interval, B's and the node weights':
    b^-2 and b^(n+k) for the half-ball piece (a/b, 1), 1 and 1 for any
    other piece.  A piece past MAX_RECORD_NODES is built and not kept.
    """
    build = _record if cells <= MAX_RECORD_NODES else _record.__wrapped__
    if domain.coordinate != "radial_power":
        return build(domain.coordinate, None, a, b, cells), 1.0, 1.0
    m = domain.measure
    rec = build(domain.coordinate, m.radial_exponent, a / b, 1.0, cells)
    radius = np.float64(b)
    scales = (1.0 / (radius * radius), radius ** (m.n + m.k))
    if not all(sys.float_info.min <= x < math.inf for x in scales):
        raise NumericalError(
            f"oracle: a half-ball of radius {b!r} scales B by {scales[0]:.3g} "
            f"and its node weights by {scales[1]:.3g}, on the intervals "
            f"{domain.intervals}: the discrete problem leaves the floats")
    return rec, float(scales[0]), float(scales[1])


def _assemble(domain: Domain1D, h: Optional[float] = None) -> _Assembly:
    """The union's B, node weights and nodes, built from the record of each
    piece (`_piece`) times its scales."""
    d_parts, e_parts, w_parts, node_parts = [], [], [], []
    pieces, parts = [], []
    start = 0
    for (a, b), cells in zip(domain.intervals,
                             _resolve_counts(domain, h)):
        rec, scale, w_scale = _piece(domain, a, b, cells)
        if e_parts:
            # zero coupling across pieces
            e_parts.append(np.zeros(1))
        d_parts.append(rec.block.d * scale)
        e_parts.append(rec.block.e * scale)
        w_parts.append(rec.weights * w_scale)
        node_parts.append(a + (b - a) / cells * np.arange(1, cells))
        pieces.append((start, start + cells - 1))
        parts.append((rec.block, scale))
        start += cells - 1
    weights = np.concatenate(w_parts)
    mass = weights
    if domain.coordinate == "radial_power":
        mass = weights * domain.measure.angular_constant
    if np.any(mass <= 0):
        raise NumericalError(f"oracle: assembly produced non-positive node "
                             f"weights on the intervals {domain.intervals}")
    return _Assembly(d=np.concatenate(d_parts), e=np.concatenate(e_parts),
                     weights=weights, mass=mass,
                     nodes=np.concatenate(node_parts), pieces=pieces,
                     parts=parts)


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


def _in_floats(solve):
    """`solve(domain, ...)` with numpy's overflow, division by zero and
    invalid operations raising NumericalError that names the domain's
    intervals, where they would warn and carry inf or NaN on: at radii
    near 1e-100 or 1e80 the grid's quantities leave the floats."""
    @functools.wraps(solve)
    def wrapped(domain: Domain1D, *args, **kwargs):
        try:
            with np.errstate(over="raise", divide="raise", invalid="raise"):
                return solve(domain, *args, **kwargs)
        except FloatingPointError as exc:
            raise NumericalError(
                f"oracle: {exc} on the intervals {domain.intervals}: the "
                f"discrete problem leaves the floats") from None
    return wrapped


@functools.lru_cache(maxsize=2)
@_in_floats
def _spectrum(domain: Domain1D, h: Optional[float], count: int):
    """Assembly and the smallest `count` eigenpairs (w, phi) of B, with the
    pole guard tau of the block that carries each, all read-only.  Each
    block of B, one per piece, is its piece's record times the piece's
    scale, and is solved and certified at the record's own scale
    (`tridiag`, and the module docstring above), with its own tau = 64 eps
    (max|d_b| + 2 max|e_b|); a certificate window that holds a second
    eigenvalue leaves it unresolved (AccuracyError).  A record keeps the
    modes found, so a solve that reads it again, at any scale, finds no
    mode twice.
    """
    from . import tridiag

    asm = _assemble(domain, h)
    w, phi, tau = tridiag.merge(asm.parts, min(count, len(asm.d)))
    for a in (asm.d, asm.e, asm.weights, asm.mass, asm.nodes, w, phi, tau):
        a.flags.writeable = False
    return asm, w, phi, tau


def dirichlet_eigs(domain: Domain1D, h: Optional[float] = None,
                   count: int = 2) -> EigenResult:
    """Smallest `count` Dirichlet eigenvalues of the union, each certified
    on its own piece (see `_spectrum`)."""
    asm, w, phi, _ = _spectrum(domain, h, count)
    u = phi * (1.0 / np.sqrt(asm.weights))[:, None]
    return EigenResult(
        eigenvalues=w.copy(),
        eigenvectors=_grid_functions(asm, u),
        grid_size=len(asm.d),
    )


@_in_floats
def twisted_eig(domain: Domain1D, h: Optional[float] = None) -> EigenResult:
    """Smallest eigenvalue of the Rayleigh quotient restricted to the
    discrete zero-weighted-mean subspace, as the root of the secular
    equation f(lambda) = v . (B - lambda)^{-1} v on (lambda_1, lambda_2].

    Each iteration is one tridiagonal solve x = (B - lambda)^{-1} v, which
    gives f = v.x and f' = x.x.  numerics.find_root runs the two-pole
    secular step with the residues (v.phi_1)^2 and (v.phi_2)^2 on the sign
    bracket [lambda_1 + tau_1, lambda_2 - tau_2], from its middle; tau_i is
    the pole guard of the piece that carries lambda_i (see `_spectrum`).
    f is resolved only to about eps ||B|| / lambda relative (6e-12 to
    1.4e-10 on the default grid of four verify pairs), so the step stops at
    that rounding floor, where a model step fails to halve the one before
    it, and digits of lambda past the floor are noise.
    The last resolvent is the eigenvector.  A non-finite f, or
    numerics.SECULAR_MAX_ITER solves without a stop, raise NumericalError
    naming both poles and the last bracket.

    Where f <= 0 at lambda_2 - tau_2 the root lies within tau_2 below
    lambda_2 (f increases between its poles), or at lambda_2 itself (a
    double pole, or v.phi_2 = 0), and lambda_2 is the answer, with the
    mean-zero combination of phi_1 and phi_2 as its eigenvector.
    """
    from scipy.linalg.lapack import dgtsv

    asm, w, phi, tau = _spectrum(domain, h, 2)
    d, e = asm.d, asm.e
    lam1, lam2 = float(w[0]), float(w[1])
    tau1, tau2 = map(float, tau)
    # constraint  meanvec . u = 0  becomes  v . (M^{1/2} u) = 0
    root = np.sqrt(asm.weights)
    v = root / np.linalg.norm(root)

    def resolvent(lam: float) -> np.ndarray:
        """(B - lam)^{-1} v by one tridiagonal solve."""
        *_, x, info = dgtsv(e, d - lam, e, v[:, None])
        if info != 0:
            raise NumericalError(
                f"twisted_eig: B - lambda singular at lambda = {lam!r}")
        return x[:, 0]

    # the bracket keeps each pole's tau away from it, so that f has its
    # asymptotic sign there
    residues = tuple(float(c) ** 2 for c in v @ phi)
    lo, hi = lam1 + tau1, lam2 - tau2
    # poles closer than their guards: f_hi = 0 takes the lambda_2 branch
    f_hi = float(v @ resolvent(hi)) if hi > lo else 0.0
    if f_hi <= 0.0:
        # the root lies in [lambda_2 - tau_2, lambda_2]: lambda_2 answers,
        # and the mean-zero combination of phi_1 and phi_2 is the eigenvector
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
            lo, hi, f_hi, (lam1, lam2), residues, max(tau1, tau2),
            "lambda"))
        y = last[0]
    y -= v * float(v @ y)                       # one projection against v
    # to unit scale by a power of two, which moves no bit of the normalized
    # vector, so that its weighted norm cannot underflow
    y = np.ldexp(y, -math.frexp(float(np.max(np.abs(y))))[1])
    gf = _grid_functions(asm, (y * (1.0 / root))[:, None])[0]
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


@_in_floats
def constrained_count(domain: Domain1D, lam: float,
                      h: Optional[float] = None) -> int:
    """Number of eigenvalues below lam of the discrete problem restricted
    to the zero-weighted-mean subspace:

        N(lam) = #{D_i < 0} + [f(lam) > 0] - 1,

    with B - lam = L D L^T (`tridiag.ldl`, Sylvester's law of inertia) and
    f(lam) = v^T (B - lam)^{-1} v solved with the same factors (Haynsworth
    1968: the constraint removes one eigenvalue below lam unless f > 0).  A
    root lam_T is the first twisted eigenvalue if and only if
    N(lam_T (1 - delta)) = 0 and N(lam_T (1 + delta)) >= 1; delta must lie
    above the root's rounding floor (see `twisted_eig`).  The count reads
    the assembly alone: it shares no code with the eigensolve or with
    numerics.find_root.
    """
    from scipy.linalg.lapack import dpttrs

    from . import tridiag

    asm = _assemble(domain, h)
    piv, mult = tridiag.ldl(asm.d, asm.e, float(lam), tridiag.pivmin(asm.e))
    v = np.sqrt(asm.weights)
    v /= np.linalg.norm(v)
    f = float(v @ dpttrs(piv, mult, v[:, None])[0][:, 0])
    return int(np.count_nonzero(piv < 0.0)) + int(f > 0.0) - 1
