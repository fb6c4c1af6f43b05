"""Inertia counts and certified per-block eigenpairs against dense
eigensolves."""

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistspec import tridiag
from twistspec.errors import AccuracyError, NumericalError

EPS = np.finfo(float).eps
# integers make exact-zero pivots likely; floats cover the rest
ENTRIES = st.one_of(st.integers(-4, 4).map(float),
                    st.floats(-10.0, 10.0, allow_nan=False))


def _dense(d, e):
    return np.diag(d) + np.diag(e, 1) + np.diag(e, -1)


def _scale(d, e):
    return np.max(np.abs(d)) + 2.0 * np.max(np.abs(e), initial=0.0)


@st.composite
def _shifted_tridiagonals(draw):
    """(d, e, sigma): a symmetric tridiagonal of order 1 to 12, SPD or
    indefinite, and a shift that is an integer or an eigenvalue +- tau."""
    n = draw(st.integers(1, 12))
    d = np.array(draw(st.lists(ENTRIES, min_size=n, max_size=n)))
    e = np.array(draw(st.lists(ENTRIES, min_size=n - 1, max_size=n - 1)))
    if draw(st.booleans()):
        # diagonally dominant with a positive diagonal: SPD
        d = 1.0 + np.abs(d) + np.abs(np.append(e, 0.0)) + np.abs(
            np.append(0.0, e))
    if draw(st.booleans()):
        return d, e, float(draw(st.integers(-6, 6)))
    w = np.linalg.eigvalsh(_dense(d, e))
    tau = 64.0 * EPS * _scale(d, e)
    return d, e, float(w[draw(st.integers(0, n - 1))]
                       + draw(st.sampled_from([-tau, tau])))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(_shifted_tridiagonals())
# an exact-zero first pivot, an exact-zero pivot inside, a length-1 tail
# after a restart, and a matrix of order 1
@example((np.array([0.0, 1.0]), np.array([1.0]), 0.0))
@example((np.array([1.0, 1.0, 3.0]), np.array([1.0, 1.0]), 0.0))
@example((np.array([1.0, -1.0, 5.0]), np.array([0.5, 0.5]), 0.0))
@example((np.array([2.0]), np.array([]), 3.0))
def test_count_matches_dense_eigenvalues(case):
    d, e, sigma = case
    floor = tridiag.pivmin(e)
    piv, mult = tridiag.ldl(d, e, sigma, floor)
    count = int(np.count_nonzero(piv < 0.0))
    assert count == tridiag.count_below(d, e, sigma, floor)
    # an eigenvalue within rounding of sigma may count either way
    w = np.linalg.eigvalsh(_dense(d, e))
    slack = 16.0 * EPS * (_scale(d, e) + abs(sigma))
    assert (np.count_nonzero(w < sigma - slack) <= count
            <= np.count_nonzero(w <= sigma + slack))
    assert np.all(np.abs(piv) >= floor)
    if np.max(np.abs(mult), initial=0.0) < 1e8:
        # L D L^T is T - sigma, up to rounding and one pivot moved by at
        # most the floor
        lower = np.eye(len(d)) + np.diag(mult, -1)
        err = np.abs(lower @ np.diag(piv) @ lower.T - _dense(d - sigma, e))
        bound = np.abs(lower) @ np.diag(np.abs(piv)) @ np.abs(lower.T)
        assert np.all(err <= 8.0 * EPS * bound + floor)


def test_pivot_floor_does_not_overflow():
    # max|e| = 1e200: tiny max|e|^2 = 2.2e92, where e * e overflowed
    e = np.array([1.0, -1e200, 3.0])
    assert tridiag.pivmin(e) == np.finfo(float).tiny * 1e200 * 1e200
    assert tridiag.pivmin(np.array([0.5])) == np.finfo(float).tiny


def _laplacian(n):
    """The tridiagonal (2, -1) of order n and its eigenpairs."""
    d, e = np.full(n, 2.0), np.full(n - 1, -1.0)
    return d, e, *scipy.linalg.eigh_tridiagonal(d, e)


def test_restarts_cover_every_negative_pivot():
    # two equal blocks, split by a zero off-diagonal, shifted between their
    # first (double) and second eigenvalues: one restart in each block
    d, e, w, _ = _laplacian(20)
    d2, e2 = np.concatenate((d, d)), np.concatenate((e, [0.0], e))
    floor = tridiag.pivmin(e2)
    assert tridiag.count_below(d2, e2, 0.5 * (w[0] + w[1]), floor) == 2
    assert tridiag.count_below(d2, e2, 0.5 * w[0], floor) == 0


def _block(d, e):
    return tridiag.block(d, e)


def test_modes_in_order():
    d, e, w, _ = _laplacian(20)
    block = _block(d, e)
    assert block.tau == 64.0 * EPS * _scale(d, e)
    assert block.floor == tridiag.pivmin(e)
    for _ in range(4):
        tridiag.certify(block, tridiag.next_mode(block))
    assert np.all(np.abs(np.array(block.values) - w[:4]) <= block.tau)


def test_each_block_has_its_own_guard():
    # a coarse and a fine Laplacian side by side: each block's tau and
    # pivot floor come from its own entries, and the first two modes of
    # the union are the coarse block's, with its tau
    d, e, w, _ = _laplacian(20)
    scale = 1e12
    coarse, fine = _block(d, e), _block(scale * d, scale * e)
    assert coarse.tau == 64.0 * EPS * _scale(d, e)
    assert fine.tau == 64.0 * EPS * _scale(scale * d, scale * e)
    assert fine.floor == tridiag.pivmin(scale * e) > coarse.floor
    got, phi, tau = tridiag.merge([(coarse, 1.0), (fine, 1.0)], 2)
    assert np.all(np.abs(got - w[:2]) <= coarse.tau)
    assert tau.tolist() == [coarse.tau] * 2
    assert np.all(phi[20:] == 0.0)


def test_a_block_held_at_two_scales_is_solved_once(monkeypatch):
    # one block at scales 1 and 4 (4 w_0 lies just above w_1): its modes
    # are found once, at its own scale, and read at both; the scaled
    # block's value and guard are 4 times the block's, its vector the
    # block's.  Merged again, the block's modes suffice: nothing is solved
    d, e, w, _ = _laplacian(20)
    block = _block(d, e)
    got, phi, tau = tridiag.merge([(block, 1.0), (block, 4.0)], 3)
    assert len(block.values) == 2
    assert np.all(np.abs(np.array(block.values) - w[:2]) <= block.tau)
    assert got.tolist() == [*block.values, 4.0 * block.values[0]]
    assert tau.tolist() == [block.tau, block.tau, 4.0 * block.tau]
    assert np.all(phi[20:, 2] == block.vectors[0])
    assert np.all(phi[:20, 2] == 0.0)
    monkeypatch.setattr(tridiag, "next_mode", None)
    again = tridiag.merge([(block, 4.0), (block, 1.0)], 3)
    assert again[0].tolist() == got.tolist()


def test_wrong_index_fails_the_certificate():
    # the block's second eigenpair offered as its first
    d, e, w, v = _laplacian(20)
    block = _block(d, e)
    with pytest.raises(NumericalError, match=r"1 eigenvalues below rho - eta "
                       r"and 2 below rho \+ eta for mode 1"):
        tridiag.certify(block, (w[1], v[:, 1]))
    assert block.values == []


def test_window_holding_two_eigenvalues_is_unresolved():
    d, e, w, v = _laplacian(20)
    block = _block(d, e)
    block.tau = w[1] - w[0]
    with pytest.raises(AccuracyError, match=r"2 eigenvalues of a block of "
                       r"20 rows lie within eta = .* \(tau = "):
        tridiag.certify(block, (w[0], v[:, 0]))


def test_iteration_cap_raises(monkeypatch):
    monkeypatch.setattr(tridiag, "RQI_MAX_ITER", 0)
    d, e, *_ = _laplacian(20)
    with pytest.raises(NumericalError, match=r"Rayleigh quotient iteration "
                       r"for mode 1 .* in 0 steps"):
        tridiag.next_mode(_block(d, e))


def test_indefinite_block_raises():
    d, e, w, _ = _laplacian(20)
    with pytest.raises(NumericalError, match="not positive definite"):
        tridiag.next_mode(_block(d - 0.5 * (w[0] + w[1]), e))
