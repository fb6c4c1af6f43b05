#!/usr/bin/env python3
"""twistspec benchmark entry point.

    python3 benchmarks/run.py --workload pair_solves --seed 1 --seconds 30 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 30 --trace 1

Run from the repository root.  One workload runs in this process (one
caller, no threads); `--workload all` runs each workload in its own child
process and prints every result.  The program is imported from `src/` of
the same checkout, never from an installed copy.

The report goes to standard output: one `name value unit` line per metric
and, as the last line, a JSON object with `correct`, `attempted`, `failed`
and `metrics`.  `--trace 0` measures the end-to-end metrics; `--trace 1`
runs the same rounds untraced and then traced and reports the per-layer
metrics (see README.md in this directory).
"""

import time

_T0 = time.perf_counter()   # set-up time counts from here, before imports

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOAD_NAMES = ("pair_solves", "split_certify", "oracle_crosscheck")
DEFAULT_SEED = 1
HELD_OUT_SEED = 20231        # kept back for confirming later claims
SETUP_SAMPLES = 3            # set-up runs per run: this process + 2 children

END_TO_END = {
    "ops_per_s": "1/s",
    "gauss_ms_p50": "ms",
    "gauss_ms_p90": "ms",
    "power_ms_p50": "ms",
    "power_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Each workload's own names for the same figures, printed alongside.
ALIASES = {
    "pair_solves": {"ops_per_s": "solves_per_s",
                    "gauss_ms_p50": "gauss_solve_ms_p50",
                    "gauss_ms_p90": "gauss_solve_ms_p90",
                    "power_ms_p50": "power_solve_ms_p50",
                    "power_ms_p90": "power_solve_ms_p90"},
    "split_certify": {"ops_per_s": "certify_per_s"},
    "oracle_crosscheck": {"ops_per_s": "crosschecks_per_s"},
}


def _calls_self(*names):
    out = {}
    for n in names:
        out[f"{n}.calls"] = "count"
        out[f"{n}.self_s"] = "s"
    return out


PER_LAYER = {
    **_calls_self("specfun.hermite_value"),
    "specfun.hermite_value.points": "count",
    **_calls_self("specfun.bessel_j_scaled_vec"),
    "specfun.bessel_j_scaled_vec.points": "count",
    **_calls_self("specfun.bessel_first_zero"),
    "closedform.det_evals": "count",
    "closedform.dirichlet_hermite_calls": "count",
    "numerics.find_root.calls": "count",
    "numerics.minimize_scalar.calls": "count",
    **_calls_self("measures.config_from_split"),
    "measures.k_gauss_inv.calls": "count",
    **_calls_self("closedform.twisted_pair_gauss",
                  "closedform.twisted_pair_power",
                  "closedform.dirichlet_halfspace_gauss"),
    "closedform.repeat_share": "ratio",
    "closedform.symmetric_share": "ratio",
    **_calls_self("oracle.twisted_eig", "oracle.dirichlet_eigs"),
    "oracle.grid_nodes": "count",
    "oracle.rel_gap_max": "ratio",
    **_calls_self("rearrange.check_cavalieri", "rearrange.check_polya_szego",
                  "shapeopt.scan", "shapeopt.certify_minimum"),
    "shapeopt.lambda_of_split.calls": "count",
    "trace_overhead": "ratio",
}
# Taken from the ops' own outputs, not from the tracer.
FROM_OUTPUTS = ("oracle.grid_nodes", "oracle.rel_gap_max", "trace_overhead")


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _load_program():
    """Pin the BLAS pool before numpy loads, then import the workloads
    against this checkout's source tree."""
    os.environ["OPENBLAS_NUM_THREADS"] = str(nproc())
    if not (SRC / "twistspec" / "__init__.py").is_file():
        sys.exit(f"benchmark: no twistspec source tree under {SRC}")
    sys.path[:0] = [str(SRC), str(HERE)]
    import twistspec
    if not Path(twistspec.__file__).resolve().is_relative_to(SRC.resolve()):
        sys.exit(f"benchmark: twistspec imported from {twistspec.__file__}, "
                 f"not from {SRC}")
    import workloads
    return workloads


def environment() -> str:
    import numpy
    import scipy
    blas = []
    for pkg in (numpy, scipy):
        libdir = Path(pkg.__file__).resolve().parent.parent / f"{pkg.__name__}.libs"
        for path in sorted(libdir.glob("*openblas*.so*")):
            lib = ctypes.CDLL(str(path))
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
                get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
                if get_config is None or get_threads is None:
                    continue
                get_config.restype = ctypes.c_char_p
                get_threads.restype = ctypes.c_int
                version = get_config().decode().split()[1]
                blas.append(f"{pkg.__name__}:openblas-{version}"
                            f"/threads={get_threads()}")
                break
    return (f"nproc={nproc()} python={platform.python_version()} "
            f"numpy={numpy.__version__} scipy={scipy.__version__} "
            f"blas={','.join(blas) or 'unknown'} "
            f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}")


def _setup(wl_mod, name: str, seed: int, seconds: float):
    """Set up, then return (workload, inputs, raw set-up seconds, set-up
    seconds at the reference speed)."""
    wl = wl_mod.WORKLOADS[name]
    streams = wl.make_inputs(seed, seconds)
    wl.warm_up()
    setup_s = time.perf_counter() - _T0
    probe = wl_mod.SpeedProbe()
    for _ in range(3):
        probe.sample()
    now = time.perf_counter()
    return wl, streams, setup_s, setup_s / probe.slowdown(now, now)


def _child_setup_s(name: str, seed: int, seconds: float) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        stdout=subprocess.PIPE, text=True, timeout=150, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _percentiles(ms):
    import numpy as np
    if not ms:
        return None, None
    p50, p90 = np.percentile(ms, [50, 90])
    return float(p50), float(p90)


def _report_failures(records) -> None:
    failed = [r for r in records if r.failed]
    for r in failed[:5]:
        print(f"benchmark: failed {r.family} op: {r.reason}", file=sys.stderr)
    if len(failed) > 5:
        print(f"benchmark: ... {len(failed) - 5} more failed ops",
              file=sys.stderr)


def run_untraced(wl_mod, name, seed, seconds, setup_s, wl, streams):
    probe = wl_mod.SpeedProbe()
    with probe.around_calls(wl_mod.PROBE_POINTS, wl_mod.UNSCALED_CALLS):
        res = wl_mod.run_rounds(wl, streams, seconds=seconds, probe=probe)
    probe.sample()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = [setup_s] + [_child_setup_s(name, seed, seconds)
                          for _ in range(SETUP_SAMPLES - 1)]
    scaled = [probe.scaled(r.seconds, r.unscaled_s, r.start, r.end)
              for r in res.records]
    metrics = {"ops_per_s": len(res.records) / sum(scaled)}
    raw = {"ops_per_s": len(res.records) / sum(r.seconds for r in res.records)}
    counts = {}
    for fam in ("gauss", "power"):
        ok = [i for i, r in enumerate(res.records)
              if r.family == fam and not r.failed]
        counts[fam] = len(ok)
        for dest, times in ((metrics, scaled), (raw, [r.seconds for r in res.records])):
            dest[f"{fam}_ms_p50"], dest[f"{fam}_ms_p90"] = _percentiles(
                [times[i] * 1e3 for i in ok])
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb
    slowdowns = probe.slowdowns()

    print(f"# ops {len(res.records)} in {res.rounds} rounds, "
          f"{res.wall_s:.3f} s measured; successful ops per family: "
          f"gauss={counts['gauss']} power={counts['power']}")
    print(f"# {len(slowdowns)} speed probes, slowdown vs reference: median "
          f"{statistics.median(slowdowns):.3f}, range {min(slowdowns):.3f}"
          f"-{max(slowdowns):.3f}; set-up samples at reference speed "
          f"{', '.join(f'{x:.3f}' for x in setups)} s")
    print("# unscaled: " + ", ".join(f"{k} {v:.6g}" for k, v in raw.items()
                                      if v is not None))
    for key, unit in END_TO_END.items():
        alias = ALIASES.get(name, {}).get(key)
        print(f"{key} {metrics[key]!r} {unit}"
              + (f"   (= {alias})" if alias else ""))
    if name == "oracle_crosscheck":
        ok = [t * 1e3 for t, r in zip(scaled, res.records) if not r.failed]
        print(f"crosscheck_ms_p50 {statistics.median(ok)!r} ms   "
              f"(both families, n={len(ok)})" if ok else "crosscheck_ms_p50 -")
    return res.records, {k: metrics[k] for k in END_TO_END}


def run_traced(wl_mod, name, seconds, wl, streams):
    from tracing import Tracer
    n = wl.trace_rounds(seconds)
    plain = wl_mod.run_rounds(wl, streams, rounds=n)
    with Tracer() as tracer:
        traced = wl_mod.run_rounds(wl, streams, rounds=n)
    metrics = tracer.metrics([k for k in PER_LAYER if k not in FROM_OUTPUTS])
    values = [r.values for r in traced.records if "rel_gap" in r.values]
    metrics["oracle.grid_nodes"] = (
        statistics.fmean(v["grid_nodes"] for v in values) if values else 0)
    metrics["oracle.rel_gap_max"] = max((v["rel_gap"] for v in values),
                                        default=0.0)
    metrics["trace_overhead"] = plain.wall_s / traced.wall_s

    print(f"# {n} rounds untraced ({plain.wall_s:.3f} s) then traced "
          f"({traced.wall_s:.3f} s), {len(tracer.spans)} spans")
    top = sorted(tracer.totals().items(), key=lambda kv: -kv[1][1])[:8]
    for fn, (calls, self_s) in top:
        print(f"# self time {self_s:10.4f} s  {calls:8d} calls  {fn}")
    for key, unit in PER_LAYER.items():
        print(f"{key} {metrics[key]!r} {unit}")
    return plain.records + traced.records, {k: metrics[k] for k in PER_LAYER}


def run_one(args) -> int:
    wl_mod = _load_program()
    wl, streams, raw_setup_s, setup_s = _setup(wl_mod, args.workload,
                                               args.seed, args.seconds)
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "raw_setup_s": raw_setup_s}))
        return 0
    print(f"# workload {args.workload} seed {args.seed} (held-out seed "
          f"{HELD_OUT_SEED}) inputs sha256:{wl_mod.inputs_digest(streams)}")
    print(f"# env {environment()}")
    if args.trace:
        records, metrics = run_traced(wl_mod, args.workload, args.seconds,
                                      wl, streams)
        units = PER_LAYER
    else:
        records, metrics = run_untraced(wl_mod, args.workload, args.seed,
                                        args.seconds, setup_s, wl, streams)
        units = END_TO_END
    failed = sum(r.failed for r in records)
    print(f"fail_rate {failed / len(records)!r} ratio")
    _report_failures(records)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process; relays every report."""
    if not (SRC / "twistspec" / "__init__.py").is_file():
        sys.exit(f"benchmark: no twistspec source tree under {SRC}")
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"## {name}", flush=True)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, timeout=20 * args.seconds + 600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"benchmark: {name} exited with {proc.returncode}",
                  file=sys.stderr)
            code = 1
            continue
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            summary["metrics"][f"{name}.{key}"] = metric
    if code == 0:
        print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be > 0")
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
