"""Each invariant suite catches a wrong computation.

Every case patches one library function that the suite reaches through its
module attribute, runs the suite, and expects the named row to FAIL; with the
patch undone and every cache emptied (a value computed under the patch stays
in its kernel's cache until then) the same suite passes again.
"""

import dataclasses

import numpy as np
import pytest

import twistspec
from twistspec import closedform, oracle, rearrange, specfun, verify


def _scaled(fn, factor):
    return lambda *args: fn(*args) * factor


def _hermite_coeffs_off(coeffs):
    # the odd Kummer coefficient 1e-6 off: the Wronskian scales with it
    def wrong(nu):
        a, b = coeffs(nu)
        return a, b * (1.0 + 1e-6)
    return wrong


def _with_eigenvalue(solve, move, field="eigenvalue"):
    def wrong(config):
        sol = solve(config)
        return dataclasses.replace(sol, **{field: move(sol)})
    return wrong


def _twisted_below_dirichlet(twisted_eig):
    # the constrained value 1e-3 below the unconstrained lambda_1
    def wrong(domain, h=None):
        res = twisted_eig(domain, h=h)
        lam1 = oracle.dirichlet_eigs(domain, h=h, count=1).eigenvalues[0]
        return dataclasses.replace(
            res, eigenvalues=np.asarray([lam1 * (1.0 - 1e-3)]))
    return wrong


def _twisted_vector_offset(twisted_eig):
    # a lost projection: the eigenvector shifted by a tenth of its maximum
    def wrong(domain, h=None):
        res = twisted_eig(domain, h=h)
        u = res.eigenvectors[0]
        shifted = u.with_values(u.values + 0.1 * np.max(np.abs(u.values)))
        return dataclasses.replace(res, eigenvectors=[shifted])
    return wrong


def _star_scaled(decreasing_rearrangement):
    def wrong(u):
        star = decreasing_rearrangement(u)
        return dataclasses.replace(star, values=star.values * 1.01)
    return wrong


def _lighter_side_raised(step):
    # lambda raised by `step` wherever the left component is the lighter one
    return lambda sol: sol.eigenvalue + step * (
        sol.config.mass_left < sol.config.mass_right)


# suite -> (module, attribute, corruption of the original, row that fails)
CORRUPTIONS = {
    "hermite": (specfun, "hermite_h_deriv",
                lambda f: _scaled(f, 1.0 + 1e-5), "recurrence_vs_fd"),
    "wronskian": (specfun, "_hermite_coeffs", _hermite_coeffs_off,
                  "hermite_pair_wronskian"),
    "turan": (specfun, "turan_gap", lambda f: _scaled(f, -1.0),
              "positivity_grid"),
    "bessel": (specfun, "bessel_zeros", lambda f: _scaled(f, 1.0 + 1e-8),
               "first_zero_values"),
    "bracket": (oracle, "twisted_eig", _twisted_below_dirichlet,
                "chain_lebesgue"),
    # the 1D oracle rows check the pair root
    "oracle": (closedform, "solve", lambda f: _with_eigenvalue(
        f, lambda sol: sol.pair_root * (1.0 + 1e-7), "pair_root"),
        "richardson_agreement"),
    "lemma": (closedform, "twisted_pair_gauss", lambda f: _with_eigenvalue(
        f, lambda sol: sol.eigenvalue * 1.2), "union_to_pair_reduction"),
    "nodal": (oracle, "twisted_eig", _twisted_vector_offset,
              "one_sign_per_component"),
    "rearrange": (rearrange, "decreasing_rearrangement", _star_scaled,
                  "cavalieri"),
    "minimum": (closedform, "solve", lambda f: _with_eigenvalue(
        f, _lighter_side_raised(1e-6)), "gaussian(n=1)_mass_0.5"),
    "signs": (closedform, "boundary_gradient_gap",
              lambda f: _scaled(f, -1.0), "gradient_gap_mass_orientation"),
    "recovery": (closedform, "twisted_pair_power", lambda f: _with_eigenvalue(
        f, lambda sol: sol.eigenvalue + 1e-4), "lebesgue_two_unit_balls"),
    "continuity": (closedform, "solve", lambda f: _with_eigenvalue(
        f, _lighter_side_raised(1.0)), "split_curve_jumps_shrink"),
}


def test_every_suite_has_a_corruption():
    assert sorted(CORRUPTIONS) == sorted(verify.SUITES)


@pytest.mark.parametrize("suite", sorted(CORRUPTIONS))
def test_suite_fails_on_corrupted_computation(suite, monkeypatch):
    module, attr, corrupt, row = CORRUPTIONS[suite]
    monkeypatch.setattr(module, attr, corrupt(getattr(module, attr)))
    failed = {r.name for r in verify.run_suites([suite]) if not r.passed}
    assert row in failed
    monkeypatch.undo()
    twistspec.clear_caches()
    assert all(r.passed for r in verify.run_suites([suite]))
