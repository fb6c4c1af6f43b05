"""Symmetric tridiagonal kernels of the oracle: Sylvester inertia counts
from an LDL^T factorization, and the smallest eigenpairs of a block-diagonal
matrix found block by block, each certified by those counts.

A count of the eigenvalues of T below sigma is the number of negative
pivots of T - sigma = L D L^T (Sylvester's law of inertia; Kahan 1966,
Parlett 1998 section 3.3).  Each block's eigenpairs come from two inverse
iterations at shift 0, then Rayleigh quotient iteration until a step is at
most the block's own tau = 64 eps (max|d| + 2 max|e|), the reach of
rounding in its eigenvalues; rho is the block's j-th eigenvalue once j - 1
eigenvalues lie below rho - eta and j below rho + eta, eta = ||B x - rho
x|| + tau, a window that holds an eigenvalue (Parlett 1998, theorem
4.5.1).  A block keeps the modes found, and a matrix may hold it times a
scale: `merge` reads the modes at that scale, so a block is solved once for
every matrix that holds it.

`oracle` imports this module on its first solve, as it does LAPACK
(dpttrf, dpttrs, dgtsv, imported inside the functions that call them), so
a process that imports the oracle but never solves does not compile it.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyError, NumericalError

# Rayleigh quotient steps per eigenpair; from the inverse-iterated start a
# step falls below tau after two or three of them.
RQI_MAX_ITER = 12


def pivmin(e: np.ndarray) -> float:
    """Smallest pivot magnitude of a count, tiny max(1, max e^2) as LAPACK
    dstebz sets it, multiplied out so that e^2 cannot overflow."""
    m = max(1.0, float(np.max(np.abs(e), initial=0.0)))
    return np.finfo(float).tiny * m * m


def ldl(d: np.ndarray, e: np.ndarray, sigma: float,
        floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Pivots D and multipliers l of T - sigma = L D L^T, T the symmetric
    tridiagonal with diagonal d and off-diagonal e, L unit lower bidiagonal.

    dpttrf factors in place up to its first pivot <= 0.  That pivot is
    kept (one above -floor, an exact 0 among them, becomes -floor; floor is
    `pivmin(e)`), its elimination step is taken here, and dpttrf resumes
    past it; a tail of one entry, which dpttrf does not take, is its own
    pivot.
    """
    from scipy.linalg.lapack import dpttrf

    n = len(d)
    piv, mult = d - sigma, np.array(e, dtype=float)
    start = 0
    while start < n - 1:
        # dpttrf stops before it changes mult[i] or piv[i + 1]
        info = dpttrf(piv[start:], mult[start:],
                      overwrite_d=1, overwrite_e=1)[2]
        if info == 0:
            return piv, mult
        i = start + info - 1
        piv[i] = min(piv[i], -floor)
        if i < n - 1:
            mult[i] = e[i] / piv[i]
            piv[i + 1] -= mult[i] * e[i]
        start = i + 1
    if start == n - 1 and piv[start] <= 0.0:
        piv[start] = min(piv[start], -floor)
    return piv, mult


def count_below(d: np.ndarray, e: np.ndarray, sigma: float,
                floor: float) -> int:
    """Number of eigenvalues of the tridiagonal (d, e) below sigma: the
    negative pivots of `ldl`."""
    return int(np.count_nonzero(ldl(d, e, sigma, floor)[0] < 0.0))


def _matvec(d: np.ndarray, e: np.ndarray, x: np.ndarray) -> np.ndarray:
    y = d * x
    y[:-1] += e * x[1:]
    y[1:] += e * x[:-1]
    return y


@dataclass
class Block:
    """One irreducible SPD block, with its pole guard tau = 64 eps (max|d| +
    2 max|e|), the reach of rounding in its eigenvalues, its pivot floor
    `pivmin(e)` and the eigenpairs found so far, in order.

    A matrix may hold the block times a scale s > 0.  That block has the
    eigenpairs (s rho, x) and the guard s tau, so the modes are found and
    kept at the block's own scale and read at any other (`merge`)."""
    d: np.ndarray
    e: np.ndarray
    tau: float
    floor: float
    values: list[float]
    vectors: list[np.ndarray]


def block(d: np.ndarray, e: np.ndarray) -> Block:
    """The block (d, e), with the tau and pivot floor of its own
    entries."""
    tau = 64.0 * np.finfo(float).eps * float(
        np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0))
    return Block(d, e, tau, pivmin(e), [], [])


def next_mode(block: Block) -> tuple[float, np.ndarray]:
    """The block's next eigenpair (rho, x), uncertified: two inverse
    iterations at shift 0, then Rayleigh quotient iteration until a step is
    <= the block's tau.  The first mode starts from the vector of ones; a
    later one from the last mode found times the row index, which adds a
    sign change, deflated against every mode found (each inverse iteration
    too).  A block that is not positive definite raises NumericalError."""
    from scipy.linalg.lapack import dgtsv, dpttrs

    n = len(block.d)
    lower = block.vectors
    chol = ldl(block.d, block.e, 0.0, block.floor)
    if not np.all(chol[0] > 0.0):
        raise NumericalError(
            f"oracle: a block of {n} rows is not positive definite")

    def deflated(x):
        for q in lower:
            x -= q * float(q @ x)
        return x / np.linalg.norm(x)

    x = deflated(lower[-1] * np.arange(n) if lower else np.ones(n))
    for _ in range(2):
        x = deflated(dpttrs(*chol, x[:, None])[0][:, 0])
    rho = float(x @ _matvec(block.d, block.e, x))
    for _ in range(RQI_MAX_ITER):
        *_, y, info = dgtsv(block.e, block.d - rho, block.e, x[:, None])
        if info != 0:
            return rho, x           # B - rho singular: rho is exact
        x = y[:, 0] / np.linalg.norm(y)
        rho, last = float(x @ _matvec(block.d, block.e, x)), rho
        if abs(rho - last) <= block.tau:
            return rho, x
    raise NumericalError(
        f"oracle: Rayleigh quotient iteration for mode {len(lower) + 1} of "
        f"a block of {n} rows took no step <= tau = {block.tau:.3g} in "
        f"{RQI_MAX_ITER} steps (last rho = {rho!r})")


def certify(block: Block, mode: tuple[float, np.ndarray]) -> None:
    """Append `mode` to the block's eigenpairs, its vector read-only, once
    inertia counts place it at its index j: j - 1 eigenvalues below rho -
    eta and j below rho + eta, eta = ||B x - rho x|| + tau.  A window that
    holds two eigenvalues leaves rho unresolved (AccuracyError); other
    counts mean the iteration found another eigenvalue (NumericalError)."""
    rho, x = mode
    j = len(block.values) + 1
    n = len(block.d)
    eta = float(np.linalg.norm(_matvec(block.d, block.e, x) - rho * x)
                ) + block.tau
    below = count_below(block.d, block.e, rho - eta, block.floor)
    upto = count_below(block.d, block.e, rho + eta, block.floor)
    if upto - below > 1:
        raise AccuracyError(
            f"oracle: {upto - below} eigenvalues of a block of {n} rows lie "
            f"within eta = {eta:.3g} of {rho:.6g} (tau = {block.tau:.3g}): "
            f"none is resolved", estimate=eta)
    if (below, upto) != (j - 1, j):
        raise NumericalError(
            f"oracle: a block of {n} rows has {below} eigenvalues below rho "
            f"- eta and {upto} below rho + eta for mode {j} at rho = "
            f"{rho!r}, eta = {eta:.3g}")
    x.flags.writeable = False
    block.values.append(rho)
    block.vectors.append(x)


def merge(parts: list[tuple[Block, float]],
          count: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The `count` smallest eigenpairs (w, phi) of the block-diagonal
    matrix whose diagonal blocks, in order, are each part's block times its
    scale, with the guard (scale times tau) of the block that carries each.

    Every block gives its first mode; a block's next mode is found only
    where it can undercut the count-th smallest value found so far: where
    its last value, scaled, lies below that value and its inertia count
    there exceeds its modes found.  A block that several parts hold is
    solved once for them all, and one that already holds modes gives them
    without a solve; either way its j-th mode is the same."""
    blocks = {id(b): b for b, _ in parts}
    grow = [b for b in blocks.values() if not b.values]
    while True:
        for b in grow:
            certify(b, next_mode(b))
        found = sorted(s * v for b, s in parts for v in b.values)
        bar = found[count - 1] if len(found) >= count else math.inf
        grow = list({id(b): b for b, s in parts
                     if len(b.values) < len(b.d)
                     and s * b.values[-1] < bar
                     and (bar == math.inf or count_below(
                         b.d, b.e, bar / s, b.floor) > len(b.values))
                     }.values())
        if not grow:
            break
    modes = sorted((s * v, i, j) for i, (b, s) in enumerate(parts)
                   for j, v in enumerate(b.values))[:count]
    starts = list(itertools.accumulate((len(b.d) for b, _ in parts),
                                       initial=0))
    w, tau = np.empty(len(modes)), np.empty(len(modes))
    phi = np.zeros((starts[-1], len(modes)))
    for col, (v, i, j) in enumerate(modes):
        b, s = parts[i]
        w[col], tau[col] = v, s * b.tau
        phi[starts[i]:starts[i + 1], col] = b.vectors[j]
    return w, phi, tau
