"""Layer tracing from outside the library.

`Tracer.install` replaces every public function of the measured layer
modules with a wrapper that records a span (name, start, end, parent,
self time).  Library modules call each other through module attributes
(`specfun.hermite_value`, `numerics.find_root`, ...) and reach their own
functions through module globals, so the wrappers see every call that
crosses a function boundary.  Private helpers are not wrapped; their time
counts as self time of the public function that called them.

A few wrappers also count work at the boundary: array elements evaluated
by the special functions, determinant evaluations inside the pair solvers,
and repeated or symmetric pair configurations.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter, defaultdict

import numpy as np

from twistspec import (closedform, measures, numerics, oracle, rearrange,
                       shapeopt, specfun)

LAYERS = (specfun, numerics, measures, closedform, oracle, rearrange, shapeopt)
PAIR_SOLVERS = ("closedform.twisted_pair_gauss", "closedform.twisted_pair_power")
DIRICHLET_GAUSS = "closedform.dirichlet_halfspace_gauss"
REPEAT_RTOL = 1e-12


def _layer(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None, float]] = []
        self.counts: Counter = Counter()
        self._stack: list[list] = []        # [name, time of child spans]
        self._patched: list[tuple[object, str, object]] = []
        self._seen: dict = defaultdict(list)

    # -- installation ---------------------------------------------------
    def install(self) -> None:
        for module in LAYERS:
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                self._patched.append((module, name, fn))
                setattr(module, name,
                        self._wrap(f"{_layer(module)}.{name}", fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._patched):
            setattr(module, name, fn)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- spans ----------------------------------------------------------
    def _wrap(self, name: str, fn):
        stack, spans = self._stack, self.spans
        hook = {
            "specfun.hermite_value": self._hermite_hook,
            "specfun.bessel_j_scaled_vec": self._bessel_hook,
            "numerics.scan_sign_change": self._determinant_hook,
            "numerics.find_root": self._determinant_hook,
            PAIR_SOLVERS[0]: self._solve_hook,
            PAIR_SOLVERS[1]: self._solve_hook,
        }.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            if hook is not None:
                args = hook(parent, args, kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if parent is not None:
                    parent[1] += t1 - t0
                spans.append((name, t0, t1, parent[0] if parent else None,
                              (t1 - t0) - frame[1]))
        return traced

    # -- counting hooks (they may replace positional arguments) ---------
    def _hermite_hook(self, parent, args, kwargs):
        t = args[1] if len(args) > 1 else kwargs["t"]
        self.counts["specfun.hermite_value.points"] += int(np.size(t))
        if any(f[0] == DIRICHLET_GAUSS for f in self._stack):
            self.counts["closedform.dirichlet_hermite_calls"] += 1
        return args

    def _bessel_hook(self, parent, args, kwargs):
        z = args[1] if len(args) > 1 else kwargs["z"]
        self.counts["specfun.bessel_j_scaled_vec.points"] += int(np.size(z))
        return args

    def _determinant_hook(self, parent, args, kwargs):
        """Count calls of the determinant a pair solver hands to the root
        finder (the Dirichlet scans pass other functions)."""
        if parent is None or parent[0] not in PAIR_SOLVERS or not args:
            return args
        f, counts = args[0], self.counts

        def determinant(x):
            counts["closedform.det_evals"] += 1
            return f(x)
        return (determinant,) + tuple(args[1:])

    def _solve_hook(self, parent, args, kwargs):
        cfg = args[0] if args else kwargs["config"]
        a, b = sorted((cfg.left_param, cfg.right_param))
        seen = self._seen[cfg.measure]
        self.counts["closedform.solves"] += 1
        if any(abs(a - a2) <= REPEAT_RTOL * max(abs(a), abs(a2))
               and abs(b - b2) <= REPEAT_RTOL * max(abs(b), abs(b2))
               for a2, b2 in seen):
            self.counts["closedform.repeat"] += 1
        seen.append((a, b))
        if cfg.is_symmetric:
            self.counts["closedform.symmetric"] += 1
        return args

    # -- results --------------------------------------------------------
    def totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds) over every recorded span."""
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, _, _, _, self_s in self.spans:
            agg = out[name]
            agg[0] += 1
            agg[1] += self_s
        return {k: (v[0], v[1]) for k, v in out.items()}

    def metrics(self, names) -> dict[str, float]:
        """Per-layer metrics by name: `<layer>.<fn>.calls` / `.self_s`, a
        boundary count, or one of the closedform shares."""
        totals = self.totals()
        solves = self.counts["closedform.solves"]
        out = {}
        for name in names:
            base, _, field = name.rpartition(".")
            if field.endswith("_share"):
                hits = self.counts[f"closedform.{field[:-len('_share')]}"]
                out[name] = hits / solves if solves else 0.0
            elif field in ("calls", "self_s"):
                calls, self_s = totals.get(base, (0, 0.0))
                out[name] = calls if field == "calls" else self_s
            else:
                out[name] = self.counts[name]
        return out
