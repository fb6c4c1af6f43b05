"""Self-test of the benchmark: failure accounting, tracing, input seeding
and the metric list.  Run with  python -m pytest benchmarks/tests  from the
repository root; it takes a few seconds."""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import workloads as wl  # noqa: E402
from tracing import Tracer  # noqa: E402
from twistspec import closedform  # noqa: E402
from twistspec.errors import NumericalError  # noqa: E402

PAIRS = wl.WORKLOADS["pair_solves"]


def _power_inputs(count=2, seed=3):
    return [wl.power_pair_stream(np.random.default_rng(seed), count)]


def _fail_rate(res):
    return sum(r.failed for r in res.records) / len(res.records)


def test_perturbed_eigenvalue_raises_fail_rate(monkeypatch):
    streams = _power_inputs()
    assert _fail_rate(wl.run_rounds(PAIRS, streams, rounds=2)) == 0.0

    solve = closedform.twisted_pair_power

    def perturbed(config):
        sol = solve(config)
        sol.eigenvalue = sol.bracket_dirichlet[1] * (1.0 + 1e-6)
        return sol

    monkeypatch.setattr(closedform, "twisted_pair_power", perturbed)
    res = wl.run_rounds(PAIRS, streams, rounds=2)
    assert _fail_rate(res) == 1.0
    assert all("outside" in r.reason for r in res.records)


def test_crosscheck_gap_beyond_gate_fails():
    good = wl.Crosscheck(lam_closed=10.0, lam_twisted=10.0001,
                         lam_dirichlet=(9.0, 11.0), grid_nodes=2198,
                         cavalieri=1e-4, polya_szego=-1e-4)
    assert wl.check_crosscheck(None, good)[0] is None
    off = wl.Crosscheck(**{**good.__dict__, "lam_closed": 10.02})
    reason, values = wl.check_crosscheck(None, off)
    assert "relative gap" in reason and values["rel_gap"] > 1e-3


def test_raising_op_is_counted_and_run_continues(monkeypatch):
    def broken(config):
        raise NumericalError("injected")

    monkeypatch.setattr(closedform, "twisted_pair_gauss", broken)
    streams = [wl.gauss_pair_stream(np.random.default_rng(5), 3),
               wl.power_pair_stream(np.random.default_rng(5), 3)]
    res = wl.run_rounds(PAIRS, streams, rounds=3)
    assert res.rounds == 3 and len(res.records) == 6
    failed = [r for r in res.records if r.failed]
    assert [r.family for r in failed] == ["gauss"] * 3
    assert all(r.reason == "NumericalError: injected" for r in failed)


def test_traced_self_time_within_span():
    streams = _power_inputs(count=2)
    with Tracer() as tracer:
        wl.run_rounds(PAIRS, streams, rounds=2)
    assert tracer.spans
    for name, start, end, parent, self_s in tracer.spans:
        assert -1e-9 <= self_s <= (end - start) + 1e-9, name
    roots = sum(end - start for _, start, end, parent, _ in tracer.spans
                if parent is None)
    assert sum(s[4] for s in tracer.spans) == pytest.approx(roots, rel=1e-9)
    m = tracer.metrics(["closedform.twisted_pair_power.calls",
                        "closedform.det_evals", "oracle.twisted_eig.calls",
                        "closedform.repeat_share"])
    assert m["closedform.twisted_pair_power.calls"] == 2
    assert m["closedform.det_evals"] > 0
    assert m["oracle.twisted_eig.calls"] == 0
    assert m["closedform.repeat_share"] == 0.0
    # uninstalled on exit
    assert not hasattr(closedform.twisted_pair_power, "__wrapped__")


def test_inputs_follow_seed():
    a = PAIRS.make_inputs(11, 1.0)
    b = PAIRS.make_inputs(11, 1.0)
    c = PAIRS.make_inputs(12, 1.0)
    assert wl.inputs_digest(a) == wl.inputs_digest(b)
    assert wl.inputs_digest(a) != wl.inputs_digest(c)
    for inp in a[0]:
        assert 1e-6 <= inp.total_mass <= 0.8
        assert abs(inp.split - 0.5) >= wl.HALF_EXCLUSION
        assert max(inp.split, 1 - inp.split) * inp.total_mass <= 0.5


def test_metric_lists_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
