"""Machine-speed probe, for timing on a shared and noisy host.

On a shared 2-core sandbox the same solve can take from 310 to 730 ms
within two minutes, because the host is busy, not the program.  A fixed
probe kernel, owned by the benchmark and independent of twistspec, runs
about every half second during a run, between ops and before each
closed-form solve and oracle call.  Op time is then rescaled to the speed
at which the probe takes NOMINAL_PROBE_S, except the time of calls the
probe does not describe (see `around_calls`).  The probe's own time is
subtracted from the op that contains it.
"""

from __future__ import annotations

import math
import statistics
import time
from contextlib import contextmanager

import numpy as np

PROBE_PERIOD_S = 0.5
PROBE_REPS = 12
# The probe's time at the reference speed: the median probe time seen on
# an idle 2-core x86-64 sandbox at 2.0 GHz.
NOMINAL_PROBE_S = 0.008
WINDOW_S = 1.0       # probes this close to an op set its speed


def kernel() -> float:
    """Fixed work with the mix the solvers run: a compensated series on a
    small array (numpy calls) and a loop of interpreted scalar arithmetic."""
    z = np.linspace(0.0, 25.0, 480)
    term = np.ones_like(z)
    total = np.ones_like(z)
    comp = np.zeros_like(z)
    for m in range(60):
        term = term * ((0.3 + m) / (0.5 + m)) * (z / (m + 1.0))
        y = term - comp
        t = total + y
        comp = (t - total) - y
        total = t
    acc = 0.0
    for i in range(3000):
        acc += math.sqrt(i * 0.5)
    return float(total[-1]) + acc


class SpeedProbe:
    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (midpoint, seconds)
        self.probe_s = 0.0                             # total probe time
        self.unscaled_s = 0.0                          # see around_calls
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        for _ in range(PROBE_REPS):
            kernel()
        t1 = time.perf_counter()
        self.samples.append((0.5 * (t0 + t1), t1 - t0))
        self.probe_s += t1 - t0
        self._last = t1

    def maybe_sample(self) -> None:
        if time.perf_counter() - self._last >= PROBE_PERIOD_S:
            self.sample()

    def slowdowns(self) -> list[float]:
        return [s / NOMINAL_PROBE_S for _, s in self.samples]

    def slowdown(self, start: float, end: float) -> float:
        """Median probe time within WINDOW_S of [start, end] (the nearest
        probe if none is that close), over the nominal probe time."""
        near = [s for t, s in self.samples
                if start - WINDOW_S <= t <= end + WINDOW_S]
        if not near:
            near = [min(self.samples,
                        key=lambda ts: min(abs(ts[0] - start),
                                           abs(ts[0] - end)))[1]]
        return statistics.median(near) / NOMINAL_PROBE_S

    def scaled(self, seconds: float, unscaled_s: float, start: float,
               end: float) -> float:
        """Op time at the reference speed; `unscaled_s` of it is kept."""
        return (seconds - unscaled_s) / self.slowdown(start, end) + unscaled_s

    @contextmanager
    def around_calls(self, probe_before, keep_unscaled):
        """Probe (when due) before each call of the (module, name) targets
        in both lists, and time the calls in `keep_unscaled`, whose time
        is then left out of the rescaling."""
        saved = []
        try:
            for targets, wrap in ((probe_before, self._probed),
                                  (keep_unscaled, self._timed)):
                for module, name in targets:
                    fn = getattr(module, name)
                    saved.append((module, name, fn))
                    setattr(module, name, wrap(fn))
            yield self
        finally:
            for module, name, fn in reversed(saved):
                setattr(module, name, fn)

    def _probed(self, fn):
        def probed(*args, **kwargs):
            self.maybe_sample()
            return fn(*args, **kwargs)
        return probed

    def _timed(self, fn):
        def timed(*args, **kwargs):
            self.maybe_sample()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self.unscaled_s += time.perf_counter() - t0
        return timed
