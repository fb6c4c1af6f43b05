"""Command-line front end: solve, scan, verify and oracle subcommands.

Exit codes: 0 success, 2 domain/usage error, 3 numerical failure.  Floats
are serialized with 17 significant digits so CSV/JSON round-trip losslessly
(JSON writes a non-finite float as null), and all randomized suites are
seeded, making reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass
from typing import Optional

from . import closedform, measures, oracle, shapeopt, verify
from .errors import DomainError, NumericalError
from .measures import MeasureSpec

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(rows: list[dict], stream) -> None:
    if not rows:
        return
    cols = list(rows[0].keys())
    stream.write(",".join(cols) + "\n")
    for row in rows:
        stream.write(",".join(_fmt(row[c]) for c in cols) + "\n")


def _strict_json(x):
    """Non-finite floats (e.g. the scan's one-sided end differences) become
    null, since strict JSON has no NaN or Infinity token."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        return {k: _strict_json(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_strict_json(v) for v in x]
    return x


def _write_json(payload, stream) -> None:
    stream.write(json.dumps(_strict_json(payload), indent=2, sort_keys=True,
                            allow_nan=False))
    stream.write("\n")


def _emit(rows: list[dict], payload, args) -> None:
    out = open(args.out, "w") if args.out else sys.stdout
    try:
        if args.format == "csv":
            _write_csv(rows, out)
        else:
            _write_json(payload, out)
    finally:
        if args.out:
            out.close()


def _measure_from_args(args) -> MeasureSpec:
    if args.measure == "gaussian":
        return MeasureSpec.gaussian(args.n)
    if args.k is None:
        raise DomainError("power measure needs --k")
    return MeasureSpec.power(args.n, args.k)


def _config_from_args(measure: MeasureSpec, args) -> measures.PairConfig:
    explicit = args.L is not None or args.R is not None
    if explicit:
        if args.L is None or args.R is None:
            raise DomainError("give both --L and --R (or neither)")
        return measures.PairConfig(measure, args.L, args.R)
    if args.mass is None or args.split is None:
        raise DomainError("give either --mass with --split, or --L and --R")
    return measures.config_from_split(measure, args.mass, args.split)


def _solution_record(measure: MeasureSpec, sol) -> dict:
    cfg = sol.config
    return {
        "measure": measure.kind,
        "n": measure.n,
        "k": measure.k,
        "L": cfg.left_param,
        "R": cfg.right_param,
        "mass_left": cfg.mass_left,
        "mass_right": cfg.mass_right,
        "lambda": sol.eigenvalue,
        "nu": sol.nu,
        "freq": sol.freq,
        "alpha": sol.alpha,
        "A": sol.amp_left,
        "B": sol.amp_right,
        "c": sol.nonlocal_c,
        "du_left": sol.du_left,
        "du_right": sol.du_right,
        "bracket_lo": sol.bracket_dirichlet[0],
        "bracket_hi": sol.bracket_dirichlet[1],
        "mean_residual": sol.mean_residual,
        "single_signed": sol.single_signed,
    }


def cmd_solve(args) -> int:
    measure = _measure_from_args(args)
    measure.require_solver_order()
    config = _config_from_args(measure, args)
    sol = closedform.solve(config)
    rec = _solution_record(measure, sol)
    _emit([rec], rec, args)
    return EXIT_OK


def cmd_scan(args) -> int:
    measure = _measure_from_args(args)
    measure.require_solver_order()
    if args.mass is None:
        raise DomainError("scan needs --mass")
    points = args.grid if args.grid else shapeopt.DEFAULT_POINTS
    if points < 3:
        raise DomainError("scan needs at least a 3-point grid")
    curve = shapeopt.scan(measure, args.mass, points=points)
    rows = []
    for i, s in enumerate(curve.splits):
        sol = curve.solutions[i]
        rows.append({
            "s": float(s),
            "L": sol.config.left_param,
            "R": sol.config.right_param,
            "lambda": float(curve.lambdas[i]),
            "dlambda_ds_analytic": float(curve.derivative_analytic[i]),
            "dlambda_ds_fd": float(curve.derivative_fd[i]),
            "c": sol.nonlocal_c,
            "du_left": sol.du_left,
            "du_right": sol.du_right,
        })
    payload = {
        "measure": measure.kind, "n": measure.n, "k": measure.k,
        "total_mass": args.mass,
        "window": list(curve.window),
        "all_single_signed": curve.all_single_signed,
        "rows": rows,
    }
    _emit(rows, payload, args)
    return EXIT_OK


def cmd_verify(args) -> int:
    names = [args.suite] if args.suite else None
    results = verify.run_suites(names=names, seed=args.seed,
                                inject_fault=args.inject_fault)
    width = max(len(f"{r.suite}.{r.name}") for r in results)
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status}  {f'{r.suite}.{r.name}':<{width}}  {r.detail}")
    table = "\n".join(lines)
    n_fail = sum(not r.passed for r in results)
    summary = f"{len(results) - n_fail}/{len(results)} invariants passed"
    payload = {
        "seed": args.seed,
        "results": [
            {"suite": r.suite, "name": r.name, "passed": r.passed,
             "detail": r.detail} for r in results
        ],
        "all_passed": n_fail == 0,
    }
    if args.out:
        with open(args.out, "w") as fh:
            if args.format == "csv":
                _write_csv(payload["results"], fh)
            else:
                _write_json(payload, fh)
        print(table)
        print(summary)
    elif args.format == "json":
        _write_json(payload, sys.stdout)
    else:
        print(table)
        print(summary)
    return EXIT_OK if n_fail == 0 else 1


def cmd_oracle(args) -> int:
    measure = _measure_from_args(args)
    measure.require_solver_order()
    config = _config_from_args(measure, args)
    sol = closedform.solve(config)
    dom = oracle.pair_domain(config)
    h = None
    if args.grid:
        h = max(b - a for a, b in dom.intervals) / args.grid
    lam_oracle = float(oracle.twisted_eig(dom, h=h).eigenvalues[0])
    rec = _solution_record(measure, sol)
    rec["lambda_oracle"] = lam_oracle
    rec["relative_gap"] = abs(rec["lambda"] - lam_oracle) / lam_oracle
    _emit([rec], rec, args)
    tol = args.tol if args.tol else 1e-3
    if rec["relative_gap"] > tol:
        print(f"closed-form vs oracle disagreement "
              f"{rec['relative_gap']:.3e} > {tol:g}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


def _read_config_file(path: str) -> dict:
    """key=value lines mirroring the long flags; '#' starts a comment."""
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line (need key=value): {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


_CONFIG_TYPES = {
    "measure": str, "n": int, "k": float, "mass": float, "split": float,
    "L": float, "R": float, "grid": int, "tol": float, "out": str,
    "format": str, "seed": int, "suite": str,
}


def _apply_config_file(args) -> None:
    if not args.config:
        return
    file_values = _read_config_file(args.config)
    for key, raw in file_values.items():
        if key not in _CONFIG_TYPES:
            raise DomainError(f"unknown config key {key!r}")
        if getattr(args, key, None) is None:
            setattr(args, key, _CONFIG_TYPES[key](raw))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistspec",
        description="First twisted eigenvalues of weighted Laplacians on "
                    "isoperimetric pairs: closed-form solvers, a discrete "
                    "oracle, and invariant verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_suite=False):
        p.add_argument("--measure", choices=("gaussian", "power"))
        p.add_argument("--n", type=int, default=None)
        p.add_argument("--k", type=float, default=None)
        p.add_argument("--mass", type=float, default=None)
        p.add_argument("--split", type=float, default=None)
        p.add_argument("--L", type=float, default=None)
        p.add_argument("--R", type=float, default=None)
        p.add_argument("--grid", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None,
                       help="key=value file mirroring the flags")
        if with_suite:
            p.add_argument("--suite", type=str, default=None,
                           choices=sorted(verify.SUITES))
            p.add_argument("--inject-fault", type=str, default=None,
                           help=argparse.SUPPRESS)

    p_solve = sub.add_parser("solve", help="solve one pair configuration")
    common(p_solve)
    p_scan = sub.add_parser("scan", help="scan the split parameter")
    common(p_scan)
    p_verify = sub.add_parser("verify", help="run invariant suites")
    common(p_verify, with_suite=True)
    p_oracle = sub.add_parser("oracle",
                              help="compare closed form against the oracle")
    common(p_oracle)
    return parser


_DEFAULTS = {"measure": "gaussian", "n": 1, "format": "csv", "seed": 0}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _apply_config_file(args)
        for key, val in _DEFAULTS.items():
            if getattr(args, key, None) is None:
                setattr(args, key, val)
        if not hasattr(args, "inject_fault"):
            args.inject_fault = None
        handler = {"solve": cmd_solve, "scan": cmd_scan,
                   "verify": cmd_verify, "oracle": cmd_oracle}[args.command]
        return handler(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
