"""heatlab benchmark: one command, three workloads, end to end and per layer.

    python3 bench/run.py --workload march_large --seed 1 --seconds 20 --trace 0

Runs from the root of a heatlab checkout and imports the package from its
``src/``.  One process, one closed-loop client, no threads: each job starts
when the previous one has finished.  With ``--trace 0`` the last line of
stdout is a JSON object with the end-to-end metrics, with ``--trace 1`` one
with the per-layer metrics of a traced run.  See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import math
import os
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

from speed import KERNEL_NOMINAL_S, reference_kernel

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

# Percentile of the job_tail_ms metric per workload.  Each workload runs
# passes until at least ten pooled job samples lie beyond it, and the job
# counts put it in the middle of one job's samples, not between two jobs.
TAIL_PCT = {"march_large": 90.0, "march_small": 99.0, "oracle_cli": 90.0}
SETUP_PROBES = 7
IMPORT_PROBES = 3


def _fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def _import_heatlab():
    """Import heatlab from this checkout's src/, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(BENCH)]
    import heatlab
    origin = Path(heatlab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"heatlab imported from {origin}, not from {SRC}")
    return heatlab


# ------------------------------------------------------------------ set-up

def probe(kind: str, workload: str, seed: int) -> None:
    """Child side of a set-up probe: print the perf_counter stamp as JSON."""
    _import_heatlab()
    if kind == "import":
        import heatlab.cli  # noqa: F401
    else:
        import workloads
        workloads.build_jobs(workload, workloads.make_jobs(workload, seed))
    print(json.dumps({"done": perf_counter()}))


def probe_seconds(kind: str, workload: str, seed: int, count: int) -> list:
    """Fresh-interpreter times from process start to the probe's stamp.

    These are raw seconds.  Scaling them by reference kernels run next to
    the probes made them spread more, not less: process start and imports
    do not slow down with a busy neighbour the way the kernel does.  One
    unrecorded probe runs first, so byte-code caches exist for the rest.
    """
    # Byte-code caching is switched on for the probes whatever the caller's
    # environment says, so set-up is timed as an installed package sees it.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    times = []
    for i in range(count + 1):
        t0 = perf_counter()
        done = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--probe", kind,
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
        if i:
            times.append(json.loads(done.stdout.strip().splitlines()[-1])["done"] - t0)
    return times


def normalised(passes) -> list:
    """Per job, its latencies over all passes at nominal kernel speed."""
    return [[lat * KERNEL_NOMINAL_S / kernel for lat, kernel in column]
            for column in zip(*passes)]


# ------------------------------------------------------------------ passes

class Runner:
    """Executes and checks jobs; the checks stay outside the timed region."""

    def __init__(self, workload, jobs, checker, tracer=None):
        self.workload, self.jobs = workload, jobs
        self.checker, self.tracer = checker, tracer
        self.attempted = self.failed = 0
        self.problems = []
        import heatlab.cli
        self.cli = heatlab.cli

    def execute(self, job):
        if self.workload == "oracle_cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(list(job.argv))
            return code, out.getvalue()
        return job.run()

    def check(self, job, result):
        if self.workload == "oracle_cli":
            return self.checker.check_cli(job, *result)
        return self.checker.check_march(job, result)

    def one_pass(self) -> list:
        """(latency, reference kernel time) per job, checks outside both."""
        samples = []
        before = self._kernel(1)
        for job in self.jobs:
            span = self.tracer.start_job(job.name) if self.tracer else None
            t0 = perf_counter()
            try:
                result = self.execute(job)
                error = None
            except Exception as exc:   # a failing job is counted, not fatal
                result, error = None, f"{type(exc).__name__}: {exc}"
            latency = perf_counter() - t0
            if span is not None:
                self.tracer.close(span)
                span = self.tracer.open("bench.check")
            problems = [error] if error else self.check(job, result)
            if span is not None:
                self.tracer.close(span)
            self.attempted += 1
            if problems:
                self.failed += 1
                if len(self.problems) < 20:
                    self.problems.append(f"{job.name}: {'; '.join(problems)}")
            # Around a long job the kernel runs more often, about 5 % of the
            # job's time, so one burst of a neighbour weighs less.
            reps = 2 * min(4, int(0.05 * latency / KERNEL_NOMINAL_S / 2)) + 1
            after = self._kernel(reps)
            samples.append((latency, (before + after) / 2))
            before = after
        return samples

    def _kernel(self, reps: int) -> float:
        """Median reference-kernel time over ``reps`` runs."""
        span = self.tracer.open("bench.kernel") if self.tracer else None
        seconds = statistics.median(reference_kernel() for _ in range(reps))
        if span is not None:
            self.tracer.close(span)
        return seconds

    def passes(self, seconds: float, min_samples: int = 0) -> list:
        """Passes until ``seconds`` have elapsed and enough samples exist."""
        passes = []
        end = perf_counter() + seconds
        while (not passes or perf_counter() < end
               or len(passes) * len(self.jobs) < min_samples):
            passes.append(self.one_pass())
        return passes


def nearest_rank(values, pct: float) -> tuple:
    """Value at the percentile by nearest rank, and how many lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


# ------------------------------------------------------------------ record

def machine_record(jobs) -> dict:
    import platform
    import numpy
    import scipy
    caches = []
    cache_dir = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(cache_dir.glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
            caches.append(f"L{level} {kind} {size}")
        except OSError:
            continue
    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    cells = max(j.cells for j in jobs)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        # Computed, not measured: one float64 layer of the largest grid, and
        # the Python lists of one Thomas sweep on it (7 lists, 32 B a float).
        "largest_layer_kib": 8 * (cells + 1) / 1024,
        "largest_thomas_lists_kib_computed": 7 * 32 * max(cells - 1, 0) / 1024,
        "bandwidth": "not reported: the loops are interpreter-bound",
    }


# ------------------------------------------------------------------ tracing

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms",
                    "job_tail_ms": "ms", "success_fraction": "1",
                    "peak_rss_mib": "MiB"}


def per_layer_units() -> dict:
    """Every per-layer metric, in report order, with its unit."""
    import layers
    units = {
        "tridiag.calls": "count", "tridiag.rows": "count",
        "tridiag.bytes_computed": "B", "tridiag.busy_s": "s",
        "tridiag.ns_per_row": "ns", "tridiag.repeat_matrix_share": "1",
    }
    for scheme, _, _ in layers.TABLE_SCHEMES:
        units[f"schemes.step_us.{scheme.value}"] = "us"
    units.update({
        "schemes.driver_us_per_layer": "us", "schemes.layers": "count",
        "schemes.solves_per_layer": "1", "schemes.diverged_jobs": "count",
        "schemes.snapshots": "count", "schemes.snapshot_mib": "MiB",
        "grid.closure_calls": "count", "grid.closure_busy_s": "s",
        "grid.sample_initial_s": "s",
        "reference.calls": "count", "reference.points": "count",
        "reference.busy_s": "s",
        "analysis.amplification_calls": "count", "analysis.busy_s": "s",
        "cli.import_s": "s", "cli.parse_s": "s", "cli.self_s": "s",
        "trace.overhead_frac": "1",
    })
    units.update((name, "us") for name in layers.table_names())
    return units


# Busy-time metrics that become -1 ("not traced") when their entry point
# traced no call although it had calls at the seed.
_BUSY_METRICS = {
    "tridiag.thomas_solve": ("tridiag.busy_s", "tridiag.ns_per_row"),
    "grid.close_boundary": ("grid.closure_busy_s",),
    "grid.sample_initial": ("grid.sample_initial_s",),
    "reference.evaluate_series": ("reference.busy_s",),
    "analysis.max_amplification": ("analysis.busy_s",),
    "cli.parse": ("cli.parse_s",),
}


def traced_passes(workload, jobs, runner, tracer, seconds) -> tuple:
    """Traced set-up and passes; returns per-pass span summaries and more."""
    tracer.calibrate()
    tracer.install()
    try:
        if workload != "oracle_cli":
            for job in jobs:           # rebuild, to time the initial sampling
                job.build()
        build = tracer.summary()
        walls, passes, summaries = [], [], []
        end = perf_counter() + seconds
        while not walls or perf_counter() < end:
            tracer.spans.clear()
            tracer.counts.clear()
            tracer.runs.clear()
            t0 = perf_counter()
            passes.append(runner.one_pass())
            walls.append(perf_counter() - t0)
            summaries.append(tracer.summary())
            if len(walls) == 1:
                first = (dict(tracer.counts), list(tracer.runs),
                         Counter(s[4] for s in tracer.spans
                                 if s[0] == "tridiag.thomas_solve"))
                first_spans = list(tracer.spans)
    finally:
        tracer.uninstall()
    tracer.spans = first_spans
    tracer.write(OUT_DIR / f"spans-{workload}.csv")
    return build, walls, passes, summaries, first


def per_layer(workload, jobs, runner, tracer, seconds, untraced_wall, golden):
    import layers
    from spans import BENCH_SPANS, SPAN_NAMES

    build, walls, passes, summaries, (counts, runs, solves_by_job) = traced_passes(
        workload, jobs, runner, tracer, seconds)

    # Span times are scaled to nominal kernel speed by the kernel times
    # measured between the traced jobs.
    scale = KERNEL_NOMINAL_S / statistics.median(k for p in passes for _, k in p)

    def med(name, key="self_s"):
        return scale * statistics.median(s.get(name, {}).get(key, 0.0)
                                         for s in summaries)

    calls = {name: summaries[0].get(name, {}).get("calls", 0) for name in SPAN_NAMES}
    seed_calls = (golden or {}).get("coverage", {})
    not_traced = sorted(n for n in SPAN_NAMES
                        if calls[n] == 0 and seed_calls.get(n, 0) > 0)

    replayed = layers.replay(runs)
    driver_s = sum(v[0] - v[1] for v in replayed.values())
    replay_layers = sum(v[2] for v in replayed.values())
    solves, rows = calls["tridiag.thomas_solve"], counts.get("tridiag.rows", 0)
    tridiag_s = med("tridiag.thomas_solve")
    general = [j for j in jobs if getattr(j, "diffusivity", "") == "general"]

    m = {
        "tridiag.calls": solves,
        "tridiag.rows": rows,
        # Computed: bands and right-hand side read, solution written, float64.
        "tridiag.bytes_computed": 8 * (5 * rows - 2 * solves),
        "tridiag.busy_s": tridiag_s,
        "tridiag.ns_per_row": 1e9 * tridiag_s / rows if rows else 0.0,
        "tridiag.repeat_matrix_share":
            counts.get("tridiag.repeat_solves", 0) / solves if solves else 0.0,
    }
    for scheme, _, _ in layers.TABLE_SCHEMES:
        v = replayed.get(scheme.value)
        m[f"schemes.step_us.{scheme.value}"] = 1e6 * v[1] / v[2] if v else 0.0
    m["schemes.driver_us_per_layer"] = (1e6 * driver_s / replay_layers
                                        if replay_layers else 0.0)
    m["schemes.layers"] = counts.get("schemes.layers", 0)
    m["schemes.solves_per_layer"] = (
        sum(solves_by_job[j.name] for j in general) / sum(j.steps for j in general)
        if general else 0.0)
    m["schemes.diverged_jobs"] = counts.get("schemes.diverged_runs", 0)
    m["schemes.snapshots"] = counts.get("schemes.snapshots", 0)
    m["schemes.snapshot_mib"] = counts.get("schemes.snapshot_bytes", 0) / 2 ** 20
    m["grid.closure_calls"] = (calls["grid.close_boundary"]
                               + calls["grid.boundary_closure_coefficients"])
    m["grid.closure_busy_s"] = (med("grid.close_boundary")
                                + med("grid.boundary_closure_coefficients"))
    m["grid.sample_initial_s"] = (
        med("grid.sample_initial", "total_s") if workload == "oracle_cli"
        else scale * build.get("grid.sample_initial", {}).get("total_s", 0.0))
    m["reference.calls"] = (calls["reference.evaluate_series"]
                            + calls["reference.hyperbolic_mode_solution"])
    m["reference.points"] = counts.get("reference.points", 0)
    m["reference.busy_s"] = (med("reference.evaluate_series")
                             + med("reference.hyperbolic_mode_solution"))
    m["analysis.amplification_calls"] = calls["analysis.amplification"]
    m["analysis.busy_s"] = sum(med(n) for n in SPAN_NAMES
                               if n.startswith("analysis."))
    m["cli.import_s"] = statistics.median(
        probe_seconds("import", workload, 0, IMPORT_PROBES))
    m["cli.parse_s"] = med("cli.parse", "total_s")
    m["cli.self_s"] = med("cli.main")
    traced_wall = scale * statistics.median(walls)
    traced_jobs = sum(statistics.median(c) for c in normalised(passes))
    m["trace.overhead_frac"] = (traced_jobs - untraced_wall) / untraced_wall
    m.update(layers.layer_table())
    for name in not_traced:
        for metric in _BUSY_METRICS.get(name, ()):
            m[metric] = -1.0

    # Self time per layer; with the benchmark's own spans and the wrapper
    # cost it must add up to the traced pass's wall time.
    layer_self = {}
    for name in SPAN_NAMES + BENCH_SPANS:
        layer = name.split(".")[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + med(name)
    report = {
        "traced_wall_s": traced_wall,
        "traced_job_s": traced_jobs,
        "untraced_job_s": untraced_wall,
        "traced_passes": len(walls),
        "layer_self_s": layer_self,
        "spans_cover_traced_wall": sum(layer_self.values()) / traced_wall,
        "calls_per_entry_point": calls,
        "seed_calls_per_entry_point": seed_calls,
        "not_traced": not_traced,
    }
    return m, report


# ------------------------------------------------------------------ main

def run(args) -> int:
    import resource
    _import_heatlab()
    import workloads
    from checks import Checker, GOLDEN_PATH
    from spans import Tracer

    workload, seed = args.workload, args.seed
    golden = None
    if GOLDEN_PATH.exists():
        golden = json.loads(GOLDEN_PATH.read_text()).get(workload)

    if not args.trace:
        setup = probe_seconds("setup", workload, seed, SETUP_PROBES)
    jobs = workloads.make_jobs(workload, seed)
    workloads.build_jobs(workload, jobs)
    checker = Checker(workload, seed)
    tracer = Tracer() if args.trace else None
    runner = Runner(workload, jobs, checker)

    runner.one_pass()                  # warm-up: fills caches and references
    pct = TAIL_PCT[workload]
    seconds = args.seconds / 2 if args.trace else args.seconds
    min_samples = 0 if args.trace else math.ceil(10 / (1 - pct / 100))
    passes = runner.passes(seconds, min_samples)
    per_job = normalised(passes)
    latencies = [lat for column in per_job for lat in column]
    # One pass over the fixed job list, each job at its median latency.
    wall = sum(statistics.median(column) for column in per_job)

    record = {"workload": workload, "seed": seed, "trace": args.trace,
              "passes": len(passes), "jobs_per_pass": len(jobs),
              "raw_pass_s_median": statistics.median(
                  sum(lat for lat, _ in p) for p in passes),
              "kernel_s_median": statistics.median(
                  k for p in passes for _, k in p),
              "machine": machine_record(jobs)}
    if args.trace:
        runner.tracer = tracer
        metrics, trace_report = per_layer(workload, jobs, runner, tracer,
                                          args.seconds / 2, wall, golden)
        units = per_layer_units()
        record["trace_report"] = trace_report
    else:
        tail, beyond = nearest_rank(latencies, pct)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": wall,
            "job_p50_ms": 1e3 * statistics.median(latencies),
            "job_tail_ms": 1e3 * tail,
            "success_fraction": 1.0 - runner.failed / runner.attempted,
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        record["job_tail"] = {"percentile": pct, "samples": len(latencies),
                              "beyond": beyond}
    red_problems = checker.check_red_values()
    if red_problems:
        runner.failed += 1
        runner.attempted += 1
        runner.problems += red_problems
    record["failed_fraction"] = runner.failed / runner.attempted
    record["red_values"] = checker.red_values
    record["problems"] = runner.problems

    print(f"heatlab benchmark: workload={workload} seed={seed} "
          f"trace={args.trace} passes={len(passes)} jobs/pass={len(jobs)}")
    for name, value in metrics.items():
        print(f"  {name:40s} {value:.6g} {units[name]}")
    print(f"  {'failed_fraction':40s} {record['failed_fraction']:.6g} 1")
    for line in runner.problems:
        print(f"  FAILED {line}")
    if args.trace:
        for name in trace_report["not_traced"]:
            print(f"  NOT TRACED {name}: calls at the seed, none now")
    print("record " + json.dumps(record))
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in units.items()},
    }))
    return 0


def capture_golden() -> int:
    """Write golden.json: the default seed's outputs and traced call counts."""
    _import_heatlab()
    import workloads
    from checks import DEFAULT_SEED, GOLDEN_PATH, Checker, golden_digest
    from spans import SPAN_NAMES, Tracer

    golden = {}
    for workload in workloads.WORKLOADS:
        jobs = workloads.make_jobs(workload, DEFAULT_SEED)
        workloads.build_jobs(workload, jobs)
        checker = Checker(workload, DEFAULT_SEED)
        checker.golden = None
        runner = Runner(workload, jobs, checker)
        entry = {}
        for job in jobs:
            result = runner.execute(job)
            if workload == "oracle_cli":
                code, stdout = result
                checker.check_cli(job, code, stdout)
                entry[job.name] = {"exit": code, "stdout": stdout}
            else:
                entry[job.name] = golden_digest(result)
        if workload == "oracle_cli":
            entry["red_values"] = {k: v for k, v in checker.red_values.items()
                                   if k in ("saulyev_order_dx_3_2",
                                            "gap_ratio_kappa4")}
        tracer = Tracer()
        runner.tracer = tracer
        tracer.install()
        try:
            runner.one_pass()
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        entry["coverage"] = {n: summary.get(n, {}).get("calls", 0)
                             for n in SPAN_NAMES}
        golden[workload] = entry
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=("march_large", "march_small", "oracle_cli"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--capture-golden", action="store_true",
                        help="rewrite golden.json from this checkout")
    parser.add_argument("--probe", choices=("setup", "import"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "heatlab" / "__init__.py").is_file():
        return _fail(f"no heatlab sources under {SRC}")
    if args.capture_golden:
        return capture_golden()
    if args.workload is None:
        parser.error("--workload is required")
    if args.probe:
        probe(args.probe, args.workload, args.seed)
        return 0
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
