"""Seeded closed-loop workloads over the public twistspec API.

A workload is a list of input streams and one op.  The loop runs in
rounds: a round takes the next input from every stream, so each round
holds the same mix of families and a run of any length keeps that mix.
One caller issues the ops one after another (a closed loop, no threads).

Inputs come from the seed only.  Masses and splits follow a shifted
Halton sequence (bases 2 and 3, shifted by seed-drawn offsets): each
prefix of a stream covers the distribution evenly, so a median or p90
over the first hundred inputs moves far less from seed to seed than it
would under independent draws, while the distribution stays the one
stated for the workload.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from twistspec import closedform, measures, oracle, rearrange, shapeopt
from twistspec.errors import TwistspecError
from twistspec.grids import GridFunction
from twistspec.measures import MeasureSpec, PairConfig

from speed import SpeedProbe

GAUSS = MeasureSpec.gaussian(1)
# Bessel profile orders 1/2, 3/2 and 3.
POWER_TYPES = (MeasureSpec.power(3, 0.0), MeasureSpec.power(3, 2.0),
               MeasureSpec.power(5, 3.0))
SPLIT_WINDOW = (0.3, 0.7)
HALF_EXCLUSION = 1e-6        # pair_solves splits stay this far from 1/2

RESIDUAL_TOL = 1e-9          # pair solve residuals, relative to amplitude
AGREEMENT_TOL = 1e-3         # closed form vs oracle (criterion 2 gate)
BRACKET_SLACK = 1e-9         # lambda_T <= lambda_2^D (1 + slack)
CAVALIERI_TOL = 2e-3         # |relative gap|, suite_rearrange tolerance
POLYA_SZEGO_TOL = 5e-3       # relative gap >= -tol, suite_rearrange


@dataclass(frozen=True)
class Input:
    """One op's input: a measure, a total mass and, for pair ops, a split
    with its configuration built at set-up time."""
    measure: MeasureSpec
    total_mass: float
    split: Optional[float] = None
    config: Optional[PairConfig] = None

    @property
    def family(self) -> str:
        return "gauss" if self.measure.is_gaussian else "power"

    def key(self) -> str:
        m = self.measure
        parts = [m.kind, str(m.n), m.k.hex(), self.total_mass.hex()]
        if self.config is not None:
            parts += [self.split.hex(), self.config.left_param.hex(),
                      self.config.right_param.hex()]
        return ",".join(parts)


# ----------------------------------------------------------------------
# Input generation
# ----------------------------------------------------------------------

def radical_inverse(i: int, base: int) -> float:
    """Van der Corput radical inverse of i >= 0 in the given base."""
    out, f = 0.0, 1.0
    while i:
        i, digit = divmod(i, base)
        f /= base
        out += digit * f
    return out


def _halton(i: int, shift: np.ndarray) -> tuple[float, float]:
    return ((radical_inverse(i + 1, 2) + shift[0]) % 1.0,
            (radical_inverse(i + 1, 3) + shift[1]) % 1.0)


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def _away_from_half(s: float) -> float:
    if abs(s - 0.5) < HALF_EXCLUSION:
        return 0.5 + math.copysign(2.0 * HALF_EXCLUSION, s - 0.5)
    return s


def pair_input(measure: MeasureSpec, total: float, s: float) -> Input:
    return Input(measure, total, s,
                 measures.config_from_split(measure, total, s))


def gauss_pair_stream(rng: np.random.Generator, count: int) -> list[Input]:
    """Total mass log-uniform in [1e-6, 0.8]; split uniform over the
    feasible window (both component masses <= 1/2) cut to [0.3, 0.7]."""
    shift = rng.random(2)
    out = []
    for i in range(count):
        um, us = _halton(i, shift)
        total = _log_uniform(um, 1e-6, 0.8)
        lo = max(SPLIT_WINDOW[0], 1.0 - 0.5 / total + 1e-9)
        hi = min(SPLIT_WINDOW[1], 0.5 / total - 1e-9)
        out.append(pair_input(GAUSS, total, _away_from_half(lo + us * (hi - lo))))
    return out


def power_pair_stream(rng: np.random.Generator, count: int) -> list[Input]:
    """Cycles through POWER_TYPES; per type, total mass log-uniform in
    [0.1, 100] and split uniform in [0.3, 0.7]."""
    shifts = [rng.random(2) for _ in POWER_TYPES]
    out = []
    for i in range(count):
        t = i % len(POWER_TYPES)
        um, us = _halton(i // len(POWER_TYPES), shifts[t])
        total = _log_uniform(um, 0.1, 100.0)
        s = SPLIT_WINDOW[0] + us * (SPLIT_WINDOW[1] - SPLIT_WINDOW[0])
        out.append(pair_input(POWER_TYPES[t], total, _away_from_half(s)))
    return out


# The mass ranges that suite_minimum certifies for these families.
CERTIFY_FAMILIES = ((GAUSS, (0.4, 0.7)),
                    (POWER_TYPES[0], (1.0, 6.0)),
                    (POWER_TYPES[1], (2.0, 10.0)))


def certify_streams(rng: np.random.Generator, count: int) -> list[list[Input]]:
    streams = []
    for measure, (lo, hi) in CERTIFY_FAMILIES:
        shift = rng.random(2)
        streams.append([Input(measure, lo + _halton(i, shift)[0] * (hi - lo))
                        for i in range(count)])
    return streams


def pair_streams(rng: np.random.Generator, count: int) -> list[list[Input]]:
    return [gauss_pair_stream(rng, count), power_pair_stream(rng, count)]


def inputs_digest(streams: list[list[Input]]) -> str:
    h = hashlib.sha256()
    for stream in streams:
        for inp in stream:
            h.update(inp.key().encode())
            h.update(b"\n")
        h.update(b"--\n")
    return h.hexdigest()[:16]


# ----------------------------------------------------------------------
# Ops and their output checks.  A check returns (reason, values): reason
# is None when the output is correct; values are per-op numbers the
# traced run aggregates.
# ----------------------------------------------------------------------

def solve_pair(inp: Input) -> closedform.TwistedSolution:
    if inp.measure.is_gaussian:
        return closedform.twisted_pair_gauss(inp.config)
    return closedform.twisted_pair_power(inp.config)


def check_pair(inp: Input, sol) -> tuple[Optional[str], dict]:
    lo, hi = sol.bracket_dirichlet
    lam = sol.eigenvalue
    if not lo < lam <= hi:
        return f"lambda={lam!r} outside ({lo!r}, {hi!r}]", {}
    scale = max(1.0, abs(sol.amp_left), abs(sol.amp_right))
    for name in ("mean_residual", "matching_residual"):
        r = getattr(sol, name)
        if not (math.isfinite(r) and r <= RESIDUAL_TOL * scale):
            return f"{name}={r!r} above {RESIDUAL_TOL:g} x {scale:g}", {}
    return None, {}


def certify(inp: Input) -> shapeopt.CertificationReport:
    curve = shapeopt.scan(inp.measure, inp.total_mass)
    return shapeopt.certify_minimum(curve)


def check_certify(inp: Input, report) -> tuple[Optional[str], dict]:
    if len(report.checks) != 5:
        return f"{len(report.checks)} certification checks, expected 5", {}
    fails = report.failures()
    if fails:
        return "; ".join(f"{c.name}: {c.detail}" for c in fails), {}
    return None, {}


def positive_part(u: GridFunction) -> GridFunction:
    """Restriction of u to its positive nodes; a piece of the original grid
    splits wherever the positive set is interrupted, and runs of fewer than
    three nodes (too short for a gradient) are dropped."""
    piece_of = np.empty(len(u.values), dtype=int)
    for j, (a, b) in enumerate(u.pieces):
        piece_of[a:b] = j
    keep = np.flatnonzero(u.values > 0.0)
    cuts = np.flatnonzero((np.diff(keep) != 1)
                          | (np.diff(piece_of[keep]) != 0)) + 1
    runs = [r for r in np.split(keep, cuts) if len(r) >= 3]
    idx = np.concatenate(runs)
    bounds = np.cumsum([0] + [len(r) for r in runs])
    return GridFunction(u.nodes[idx], u.values[idx], u.node_weights[idx],
                        list(zip(bounds[:-1].tolist(), bounds[1:].tolist())))


@dataclass
class Crosscheck:
    lam_closed: float
    lam_twisted: float
    lam_dirichlet: tuple[float, float]
    grid_nodes: int
    cavalieri: float
    polya_szego: float


def crosscheck(inp: Input) -> Crosscheck:
    sol = solve_pair(inp)
    if inp.measure.is_gaussian:
        dom = oracle.gaussian_pair_domain(inp.config)
    else:
        dom = oracle.power_pair_domain(inp.config)
    tw = oracle.twisted_eig(dom)
    dd = oracle.dirichlet_eigs(dom, count=2)
    u = positive_part(tw.eigenvectors[0])
    cav = rearrange.check_cavalieri(u, inp.measure, p=2.0)
    ps = rearrange.check_polya_szego(u, inp.measure)
    return Crosscheck(
        lam_closed=sol.eigenvalue, lam_twisted=float(tw.eigenvalues[0]),
        lam_dirichlet=(float(dd.eigenvalues[0]), float(dd.eigenvalues[1])),
        grid_nodes=tw.grid_size, cavalieri=cav.rel_gap,
        polya_szego=ps.rel_gap)


def check_crosscheck(inp: Input, res: Crosscheck) -> tuple[Optional[str], dict]:
    gap = abs(res.lam_closed - res.lam_twisted) / res.lam_twisted
    values = {"rel_gap": gap, "grid_nodes": res.grid_nodes}
    lam1, lam2 = res.lam_dirichlet
    if not gap <= AGREEMENT_TOL:
        return f"closed form {res.lam_closed!r} vs oracle " \
               f"{res.lam_twisted!r}: relative gap {gap:.3g}", values
    if not lam1 < res.lam_twisted <= lam2 * (1.0 + BRACKET_SLACK):
        return f"bracket chain broken: {lam1!r} < {res.lam_twisted!r} " \
               f"<= {lam2!r}", values
    if not abs(res.cavalieri) <= CAVALIERI_TOL:
        return f"cavalieri relative gap {res.cavalieri:.3g}", values
    if not res.polya_szego >= -POLYA_SZEGO_TOL:
        return f"polya-szego relative gap {res.polya_szego:.3g}", values
    return None, values


# ----------------------------------------------------------------------
# Warm-up: one call per layer the workload uses, on fixed inputs, so that
# lazy caches (_angular_constant, _fixed_gl_grid) and the BLAS thread pool
# are filled before timing.
# ----------------------------------------------------------------------

def _warm_pairs() -> None:
    solve_pair(pair_input(GAUSS, 0.5, 0.4))
    for m in POWER_TYPES:
        solve_pair(pair_input(m, 3.0, 0.4))


def _warm_certify() -> None:
    for measure, (lo, hi) in CERTIFY_FAMILIES:
        shapeopt.lambda_of_split(measure, 0.5 * (lo + hi), 0.4)


def _warm_crosscheck() -> None:
    _warm_pairs()
    crosscheck(pair_input(GAUSS, 0.5, 0.4))


# Calls before which a run probes machine speed (when a probe is due), so
# that long ops such as a certification are probed while they run.
PROBE_POINTS = ((closedform, "twisted_pair_gauss"),
                (closedform, "twisted_pair_power"))
# Calls whose time is not rescaled.  The dense LAPACK solve varied by 7 %
# on the shared host while the interpreted probe varied by 20 %, so the
# probe does not describe it.
UNSCALED_CALLS = ((oracle, "twisted_eig"),)


@dataclass(frozen=True)
class Workload:
    name: str
    streams: Callable[[np.random.Generator, int], list[list[Input]]]
    op: Callable[[Input], object]
    check: Callable[[Input, object], tuple[Optional[str], dict]]
    warm_up: Callable[[], None]
    min_rounds: int
    # Upper bound on rounds per second, sizing the input pool so that a
    # much faster program still does not run out of inputs.
    max_rounds_per_s: float
    # Nominal round cost at the commit that defined the benchmark.  A
    # traced run does round(seconds / 2 / nominal) rounds, a number that
    # depends on --seconds only, so its counts repeat exactly.
    nominal_round_s: float

    def make_inputs(self, seed: int, seconds: float) -> list[list[Input]]:
        rounds = max(self.min_rounds,
                     math.ceil(seconds * self.max_rounds_per_s))
        return self.streams(np.random.default_rng(seed), rounds)

    def trace_rounds(self, seconds: float) -> int:
        return max(1, round(seconds / 2.0 / self.nominal_round_s))


WORKLOADS = {
    w.name: w for w in (
        # >= 100 rounds: p90 of each family has ten samples beyond it.
        Workload("pair_solves", pair_streams, solve_pair, check_pair,
                 _warm_pairs, min_rounds=100, max_rounds_per_s=100.0,
                 nominal_round_s=0.45),
        Workload("split_certify", certify_streams, certify, check_certify,
                 _warm_certify, min_rounds=1, max_rounds_per_s=2.0,
                 nominal_round_s=25.0),
        Workload("oracle_crosscheck", pair_streams, crosscheck,
                 check_crosscheck, _warm_crosscheck, min_rounds=10,
                 max_rounds_per_s=20.0, nominal_round_s=2.5),
    )
}


# ----------------------------------------------------------------------
# The closed loop
# ----------------------------------------------------------------------

@dataclass
class OpRecord:
    family: str
    seconds: float                 # op time, probe time excluded
    reason: Optional[str]          # None: the output passed its check
    values: dict = field(default_factory=dict)
    start: float = 0.0
    end: float = 0.0
    unscaled_s: float = 0.0        # time in UNSCALED_CALLS

    @property
    def failed(self) -> bool:
        return self.reason is not None


def run_op(workload: Workload, inp: Input,
           probe: Optional[SpeedProbe] = None) -> OpRecord:
    """Time one op.  A TwistspecError or a failed check marks it failed;
    it is never retried."""
    if probe is not None:
        probe.maybe_sample()
        before = (probe.probe_s, probe.unscaled_s)
    reason, values = None, {}
    t0 = time.perf_counter()
    try:
        result = workload.op(inp)
    except TwistspecError as exc:
        reason = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    probed = unscaled = 0.0
    if probe is not None:
        probed = probe.probe_s - before[0]
        unscaled = probe.unscaled_s - before[1]
    if reason is None:
        reason, values = workload.check(inp, result)
    return OpRecord(inp.family, (t1 - t0) - probed, reason, values, t0, t1,
                    unscaled)


@dataclass
class RunResult:
    records: list[OpRecord]
    wall_s: float
    rounds: int


def run_rounds(workload: Workload, streams: list[list[Input]],
               seconds: Optional[float] = None,
               rounds: Optional[int] = None,
               probe: Optional[SpeedProbe] = None) -> RunResult:
    """Run whole rounds: exactly `rounds` of them, or, for a time budget,
    at least `min_rounds` and then until one more round would be expected
    to end more than half a round past `seconds`."""
    available = min(len(s) for s in streams)
    records: list[OpRecord] = []
    t_start = time.perf_counter()
    r = 0
    while r < available:
        if rounds is not None:
            if r >= rounds:
                break
        elif r >= workload.min_rounds:
            elapsed = time.perf_counter() - t_start
            if elapsed + 0.5 * elapsed / r > seconds:
                break
        for stream in streams:
            records.append(run_op(workload, stream[r], probe))
        r += 1
    return RunResult(records, time.perf_counter() - t_start, r)
