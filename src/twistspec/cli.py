"""Command-line front end: solve, scan, verify and oracle subcommands.

`COMMANDS` gives each subcommand its handler and the flags it reads, and
`_FLAGS` each flag's type and default.  A `--config` file of key=value lines
goes through the same parser as flags; command-line flags win.

Exit codes: 0 success, 1 a failed `verify` invariant, 2 domain/usage/file
error, 3 numerical failure, 141 (128 + SIGPIPE, nothing on stderr) when the
reader of a stdout pipe leaves first, as `| head` may.  Floats are
serialized with 17 significant digits so CSV/JSON round-trip losslessly
(JSON writes a non-finite float as null), and all randomized suites are
seeded, making reruns byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Optional

from . import closedform, measures, oracle, shapeopt, verify
from .errors import DomainError, NumericalError, ResourceError
from .measures import MeasureSpec

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_NUMERICAL = 3
EXIT_PIPE = 141  # 128 + SIGPIPE


def _finite_float(text: str) -> float:
    """argparse type of the float flags: nan would turn every comparison
    against the value false (the oracle's --tol gate among them)."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """argparse type of --seed: numpy's generators take no negative seed."""
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(
            f"need a non-negative integer, got {text!r}")
    return int(text)


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
    """Non-finite floats become null, since strict JSON has no NaN or
    Infinity token."""
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
    if args.measure == "power" and args.k is None:
        raise DomainError("power measure needs --k")
    measure = (MeasureSpec.gaussian(args.n) if args.measure == "gaussian"
               else MeasureSpec.power(args.n, args.k))
    measure.require_solver_order()
    return measure


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
        "branch": sol.branch,
        "pair_root": sol.pair_root,
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
    config = _config_from_args(measure, args)
    sol = closedform.solve(config)
    rec = _solution_record(measure, sol)
    _emit([rec], rec, args)
    return EXIT_OK


def cmd_scan(args) -> int:
    measure = _measure_from_args(args)
    if args.mass is None:
        raise DomainError("scan needs --mass")
    if args.grid < 3:
        raise DomainError("scan needs at least a 3-point grid")
    curve = shapeopt.scan(measure, args.mass, points=args.grid)
    rows = []
    for i, s in enumerate(curve.splits):
        sol = curve.solutions[i]
        rows.append({
            "s": float(s),
            "L": sol.config.left_param,
            "R": sol.config.right_param,
            "lambda": float(curve.lambdas[i]),
            "dlambda_ds_analytic": float(curve.derivative_analytic[i]),
            "dlambda_ds_spectral": float(curve.derivative_spectral[i]),
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
    results = verify.run_suites(names=names, seed=args.seed)
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
    if args.out or args.format == "json":
        _emit(payload["results"], payload, args)
    if args.out or args.format == "csv":
        print(table)
        print(summary)
    return EXIT_OK if n_fail == 0 else 1


def cmd_oracle(args) -> int:
    measure = _measure_from_args(args)
    config = _config_from_args(measure, args)
    sol = closedform.solve(config)
    dom = oracle.pair_domain(config)
    h = None
    if args.grid is not None:
        if args.grid < 1:
            raise DomainError("oracle needs --grid >= 1")
        # checked as an integer: a --grid past the float range has no h
        if args.grid > oracle.MAX_TOTAL_NODES:
            raise ResourceError(f"oracle: --grid exceeds the "
                                f"{oracle.MAX_TOTAL_NODES}-node cap")
        h = max(b - a for a, b in dom.intervals) / args.grid
    lam_oracle = float(oracle.twisted_eig(dom, h=h).eigenvalues[0])
    rec = _solution_record(measure, sol)
    rec["lambda_oracle"] = lam_oracle
    # the 1D oracle sees the radial pair mode only: it checks the pair root
    rec["relative_gap"] = abs(sol.pair_root - lam_oracle) / lam_oracle
    _emit([rec], rec, args)
    if rec["relative_gap"] > args.tol:
        print(f"closed-form vs oracle disagreement "
              f"{rec['relative_gap']:.3e} > {args.tol:g}", file=sys.stderr)
        return EXIT_NUMERICAL
    return EXIT_OK


COMMANDS = {
    "solve": (cmd_solve, "solve one pair configuration",
              ("measure", "n", "k", "mass", "split", "L", "R"), {}),
    "scan": (cmd_scan, "scan the split parameter",
             ("measure", "n", "k", "mass", "grid"),
             {"grid": shapeopt.DEFAULT_POINTS}),
    "verify": (cmd_verify, "run invariant suites",
               ("seed", "suite"), {}),
    "oracle": (cmd_oracle, "compare closed form against the oracle",
               ("measure", "n", "k", "mass", "split", "L", "R", "grid", "tol"),
               {}),
}

_FLAGS = {
    "measure": {"choices": ("gaussian", "power"), "default": "gaussian"},
    "n": {"type": int, "default": 1},
    "k": {"type": _finite_float},
    "mass": {"type": _finite_float},
    "split": {"type": _finite_float},
    "L": {"type": _finite_float},
    "R": {"type": _finite_float},
    "grid": {"type": int},
    "tol": {"type": _finite_float, "default": 1e-3},
    "seed": {"type": _seed, "default": 0},
    "suite": {"choices": sorted(verify.SUITES)},
    "out": {},
    "format": {"choices": ("csv", "json"), "default": "csv"},
    "config": {"help": "key=value file of this subcommand's flags"},
}


def _read_config_file(path: str, command: str) -> list[str]:
    """`--key=value` tokens from key=value lines naming the subcommand's
    flags ('#' starts a comment); one token keeps a value starting with '-'."""
    keys = (*COMMANDS[command][2], "out", "format")
    tokens = []
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"bad config line (need key=value): {raw!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise DomainError(f"unknown config key {key!r}")
            tokens.append(f"--{key}={val}")
    return tokens


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twistspec",
        description="First twisted eigenvalues of weighted Laplacians on "
                    "isoperimetric pairs: closed-form solvers, a discrete "
                    "oracle, and invariant verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, flags, defaults) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        for flag in (*flags, "out", "format", "config"):
            p.add_argument(f"--{flag}", **_FLAGS[flag])
        p.set_defaults(**defaults)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            tokens = _read_config_file(args.config, args.command)
            args = parser.parse_args([args.command, *tokens, *argv[1:]])
        code = COMMANDS[args.command][0](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stop quietly; None keeps the exit-time flush off the closed pipe
        sys.stdout = None
        return EXIT_PIPE
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
