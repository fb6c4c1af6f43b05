"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

from twistspec import cli, verify


def _run_suites(names, seed=0):
    t0 = time.time()
    results = verify.run_suites(names=names, seed=seed)
    elapsed = time.time() - t0
    return results, elapsed


def _report(criterion: str, results, elapsed: float, budget: float) -> None:
    ok = all(r.passed for r in results)
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{status} {criterion} ({elapsed:.1f}s / budget {budget:.0f}s)")
    for r in results:
        mark = "ok " if r.passed else "BAD"
        print(f"    [{mark}] {r.suite}.{r.name}: {r.detail}")
    assert ok, [f"{r.suite}.{r.name}: {r.detail}" for r in results if not r.passed]
    assert elapsed < budget, f"runtime {elapsed:.1f}s exceeds {budget:.0f}s"


def test_criterion_1_special_function_identities():
    """Hermite/Bessel identity battery within 30 s."""
    results, elapsed = _run_suites(["hermite", "wronskian", "turan", "bessel"])
    _report("criterion 1: special-function identity suite", results, elapsed, 30.0)


def test_criterion_2_closed_form_vs_oracle():
    """>=10 pairs per family agree to 1e-3; refinement shrinks the gap."""
    results, elapsed = _run_suites(["oracle"])
    _report("criterion 2: closed form vs discrete oracle", results, elapsed, 120.0)


def test_criterion_3_bracket_chain():
    """Dirichlet/twisted interlacing on 20 random domains per family, plus
    the engineered equality cases."""
    results, elapsed = _run_suites(["bracket", "nodal"])
    _report("criterion 3: bracket chain", results, elapsed, 120.0)


def test_criterion_4_minimum_certification():
    """Symmetric split certified for all five families at three masses."""
    results, elapsed = _run_suites(["minimum", "continuity"])
    _report("criterion 4: minimum-at-half certification", results, elapsed, 180.0)


def test_criterion_5_reduction_echo():
    """Random unions dominate the pair value at their nodal split."""
    results, elapsed = _run_suites(["lemma"])
    _report("criterion 5: union-to-pair reduction echo", results, elapsed, 120.0)


def test_criterion_6_gradient_sign_claims():
    """Boundary-gradient orientation (mass reading) and ratio monotonicity."""
    results, elapsed = _run_suites(["signs"])
    _report("criterion 6: boundary-gradient sign claims", results, elapsed, 60.0)


def test_criterion_7_lebesgue_recovery():
    """Two unit balls under the exponent-zero power measure give pi^2."""
    results, elapsed = _run_suites(["recovery"])
    _report("criterion 7: exponent-zero recovery", results, elapsed, 30.0)


def test_criterion_8_rearrangement_suite():
    """Cavalieri / Hardy-Littlewood / Polya-Szego at their tolerances."""
    results, elapsed = _run_suites(["rearrange"])
    _report("criterion 8: rearrangement suite", results, elapsed, 60.0)


def test_criterion_9_determinism(tmp_path, capsys):
    """Identical CLI reruns are byte-identical."""
    t0 = time.time()
    pairs = []
    for tag in ("a", "b"):
        scan_file = tmp_path / f"scan_{tag}.csv"
        code = cli.main(["scan", "--measure", "gaussian", "--n", "1",
                         "--mass", "0.5", "--grid", "9",
                         "--out", str(scan_file)])
        assert code == 0
        verify_file = tmp_path / f"verify_{tag}.json"
        code = cli.main(["verify", "--suite", "rearrange", "--seed", "42",
                         "--format", "json", "--out", str(verify_file)])
        assert code == 0
        pairs.append((scan_file.read_bytes(), verify_file.read_bytes()))
    capsys.readouterr()
    elapsed = time.time() - t0
    ok = pairs[0] == pairs[1]
    print(f"{'PASS' if ok else 'FAIL'} criterion 9: determinism "
          f"({elapsed:.1f}s)")
    assert ok
