"""Spans around heatlab's public entry points, recorded from outside.

``Tracer.install`` replaces each traced function at the module attribute its
callers look up (``heatlab.schemes.thomas_solve``, ``heatlab.cli.run_simulation``
and so on) and ``uninstall`` puts the originals back, so untraced runs pay
nothing and nothing under ``src/`` changes.  Spans are kept in memory as
``[name, start, end, parent index, job]`` and written out at the end.
"""

import csv
from collections import Counter

import numpy as np

import heatlab
import heatlab.analysis
import heatlab.cli
import heatlab.grid
import heatlab.schemes

from time import perf_counter

# (owner, attribute, span name).  A span's layer is the part before the dot.
ENTRY_POINTS = (
    (heatlab, "run_simulation", "schemes.run_simulation"),
    (heatlab.cli, "run_simulation", "schemes.run_simulation"),
    (heatlab.schemes, "thomas_solve", "tridiag.thomas_solve"),
    (heatlab.schemes, "close_boundary", "grid.close_boundary"),
    (heatlab.schemes, "boundary_closure_coefficients",
     "grid.boundary_closure_coefficients"),
    (heatlab.grid, "boundary_closure_coefficients",
     "grid.boundary_closure_coefficients"),
    (heatlab, "sample_initial", "grid.sample_initial"),
    (heatlab.cli, "sample_initial", "grid.sample_initial"),
    (heatlab.cli, "evaluate_series", "reference.evaluate_series"),
    (heatlab.cli, "hyperbolic_mode_solution", "reference.hyperbolic_mode_solution"),
    (heatlab.cli, "max_amplification", "analysis.max_amplification"),
    (heatlab.analysis, "amplification", "analysis.amplification"),
    (heatlab.cli, "dispersion_branches", "analysis.dispersion_branches"),
    (heatlab.cli, "information_speed", "analysis.information_speed"),
    (heatlab.cli, "main", "cli.main"),
    (heatlab.cli.ExperimentConfig, "from_file", "cli.parse"),
    (heatlab.cli.ExperimentConfig, "build", "cli.parse"),
)
SPAN_NAMES = tuple(sorted({name for _, _, name in ENTRY_POINTS}))
HOOK = "bench.trace_hook"
# The benchmark's own spans: jobs, output checks, reference kernels and
# hooks, and the wrapper cost that summary() moves out of the layers.
BENCH_SPANS = ("bench.job", "bench.check", "bench.kernel", HOOK, "trace.overhead")


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.job = None
        self.counts = Counter()     # counts the hooks take at the boundaries
        self.runs = []              # run_simulation arguments, for replays
        self._last_bands = None
        self._saved = []
        self.inner = self.outer = 0.0

    # -------------------------------------------------------------- recording
    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.stack.append(len(self.spans))
        span = [name, perf_counter(), 0.0, parent, self.job]
        self.spans.append(span)
        return span

    def close(self, span):
        span[2] = perf_counter()
        self.stack.pop()

    def start_job(self, name):
        self.job = name
        self._last_bands = None
        return self.open("bench.job")

    def _wrap(self, fn, name):
        short = name.split(".")[1]
        pre = getattr(self, "_pre_" + short, None)
        post = getattr(self, "_post_" + short, None)

        def traced(*args, **kwargs):
            span = self.open(name)
            try:
                if pre is not None:
                    self._hook(pre, *args, **kwargs)
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if post is not None:
                self._hook(post, result)
            return result
        traced.__wrapped__ = fn
        return traced

    # Hooks run in their own span, so their cost is charged to the
    # benchmark, not to the layer they observe.
    def _hook(self, fn, *args, **kwargs):
        span = self.open(HOOK)
        fn(*args, **kwargs)
        self.close(span)

    def _pre_thomas_solve(self, system):
        bands = (system.lower, system.diag, system.upper)
        self.counts["tridiag.rows"] += len(system.diag)
        last = self._last_bands
        if last is not None and all(np.array_equal(a, b) for a, b in zip(bands, last)):
            self.counts["tridiag.repeat_solves"] += 1
        self._last_bands = tuple(np.array(b, copy=True) for b in bands)

    def _pre_evaluate_series(self, sol, x, t):
        self.counts["reference.points"] += int(np.size(x))

    def _pre_hyperbolic_mode_solution(self, nu, tau, length_l, m, t, x):
        self.counts["reference.points"] += int(np.size(x))

    def _pre_run_simulation(self, initial, params, bcs, scheme, num_steps,
                            snapshot_every=1):
        self.runs.append((initial, params, bcs, scheme, num_steps, snapshot_every))

    def _post_run_simulation(self, record):
        self.counts["schemes.layers"] += (record.snapshots[-1].time_index
                                          - record.snapshots[0].time_index)
        self.counts["schemes.snapshots"] += len(record.snapshots)
        self.counts["schemes.snapshot_bytes"] += sum(s.values.nbytes
                                                     for s in record.snapshots)
        self.counts["schemes.diverged_runs"] += int(record.diverged)

    # ---------------------------------------------------------- installation
    def install(self):
        for owner, attr, name in ENTRY_POINTS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            if isinstance(original, staticmethod):
                wrapped = staticmethod(self._wrap(original.__func__, name))
            else:
                wrapped = self._wrap(original, name)
            setattr(owner, attr, wrapped)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --------------------------------------------------------------- analysis
    def calibrate(self, calls: int = 20000) -> None:
        """Measure the wrapper's cost per span, inside and outside its interval.

        ``inner`` is the part of a span's own duration that is wrapper code,
        ``outer`` the part its parent sees outside the span; ``summary``
        moves both out of the layers into a ``trace.overhead`` entry.
        """
        def noop():
            return None
        traced = self._wrap(noop, "calibrate.noop")
        inner, outer = [], []
        for _ in range(5):
            t0 = perf_counter()
            for _ in range(calls):
                noop()
            base = perf_counter() - t0
            mark = len(self.spans)
            t0 = perf_counter()
            for _ in range(calls):
                traced()
            total = perf_counter() - t0
            spans = self.spans[mark:]
            del self.spans[mark:]
            per_span = sum(t1 - t0 for _, t0, t1, _, _ in spans) / calls
            inner.append(per_span - base / calls)
            outer.append((total - base) / calls - inner[-1])
        self.inner, self.outer = sorted(inner)[2], sorted(outer)[2]

    def self_times(self) -> list:
        """Each span's duration minus its children's, wrapper cost removed."""
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0 + self.outer
        return [t1 - t0 - c - self.inner
                for (_, t0, t1, _, _), c in zip(self.spans, child)]

    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds."""
        out = {}
        for span, self_s in zip(self.spans, self.self_times()):
            name, t0, t1 = span[0], span[1], span[2]
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += t1 - t0
            entry["self_s"] += self_s
        out["trace.overhead"] = {"calls": len(self.spans), "total_s": 0.0,
                                 "self_s": len(self.spans) * (self.inner + self.outer)}
        return out

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["index", "name", "start_s", "end_s", "parent", "job"])
            for i, (name, t0, t1, parent, job) in enumerate(self.spans):
                writer.writerow([i, name, f"{t0 - origin:.9f}",
                                 f"{t1 - origin:.9f}", parent, job])
