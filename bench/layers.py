"""Bare-stepper replays and the fixed layer table.

``run_simulation`` dispatches most steppers through private dicts that a
wrapper cannot reach, so the per-layer stepper time is measured by calling
the public ``step_*`` functions directly on the same inputs, layer by layer,
following the driver's rules (bootstrap, Saulyev pairs, divergence stop).
The driver overhead is then the ``run_simulation`` time minus that.
"""

import math
import statistics
from time import perf_counter

import numpy as np

import heatlab as hl

from speed import normalise, reference_kernel
from workloads import MarchJob

Scheme = hl.Scheme
_STEPPERS = {
    Scheme.EXPLICIT: hl.step_explicit,
    Scheme.IMPLICIT: hl.step_implicit,
    Scheme.CRANK_NICOLSON: hl.step_crank_nicolson,
    Scheme.CN_NONLINEAR: hl.step_cn_nonlinear,
    Scheme.CROSS_CN: hl.step_ccn,
    Scheme.LEAPFROG: hl.step_leapfrog,
    Scheme.DUFORT_FRANKEL: hl.step_dufort_frankel,
    Scheme.HYPERBOLIC: hl.step_hyperbolic,
}
_TWO_LAYER = (Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL, Scheme.HYPERBOLIC)


def _bad(field) -> bool:
    norm = field.max_norm
    return not math.isfinite(norm) or norm > hl.DIVERGENCE_THRESHOLD


def bare_steps(initial, params, bcs, scheme, num_steps) -> tuple:
    """Seconds spent in the public step functions, and layers produced."""
    prev, curr = None, initial
    busy, layers = 0.0, 0
    while layers < num_steps:
        state = hl.StepState(prev=prev, curr=curr, params=params, bcs=bcs)
        t0 = perf_counter()
        if scheme is Scheme.SAULYEV:
            produced = hl.step_saulyev_pair(state)
        elif scheme in _TWO_LAYER and prev is None:
            produced = (hl.bootstrap_hyperbolic(curr, params, bcs)
                        if scheme is Scheme.HYPERBOLIC else hl.step_explicit(state),)
        else:
            produced = (_STEPPERS[scheme](state),)
        busy += perf_counter() - t0
        for layer in produced[:num_steps - layers]:
            prev, curr = curr, layer
            layers += 1
            if _bad(layer):
                return busy, layers
    return busy, layers


def replay(runs, repeats: int = 2) -> dict:
    """Per scheme: driver seconds, bare seconds and layers over ``runs``.

    ``runs`` holds (initial, params, bcs, scheme, num_steps, snapshot_every);
    each run is timed ``repeats`` times both ways and the minimum kept, at
    nominal kernel speed.
    """
    out = {}
    before = reference_kernel()
    for initial, params, bcs, scheme, steps, every in runs:
        driver, bare = math.inf, math.inf
        for _ in range(repeats):
            t0 = perf_counter()
            hl.run_simulation(initial, params, bcs, scheme, steps, every)
            driver = min(driver, perf_counter() - t0)
            busy, layers = bare_steps(initial, params, bcs, scheme, steps)
            bare = min(bare, busy)
        after = reference_kernel()
        entry = out.setdefault(scheme.value, [0.0, 0.0, 0])
        entry[0] += normalise(driver, before, after)
        entry[1] += normalise(bare, before, after)
        entry[2] += layers
        before = after
    return out


# ---------------------------------------------------------------- layer table

TABLE_SIZES = (64, 1024, 16384)
TABLE_LAYERS = {64: 100, 1024: 20, 16384: 2}
TABLE_REPEATS = 5
TABLE_SCHEMES = (
    (Scheme.EXPLICIT, "constant", 0.4),
    (Scheme.IMPLICIT, "constant", 2.0),
    (Scheme.CRANK_NICOLSON, "constant", 1.0),
    (Scheme.CN_NONLINEAR, "general", 0.5),
    (Scheme.CROSS_CN, "affine", 0.5),
    (Scheme.LEAPFROG, "constant", 0.25),
    (Scheme.DUFORT_FRANKEL, "constant", 1.0),
    (Scheme.SAULYEV, "constant", 1.0),
    (Scheme.HYPERBOLIC, "constant", 0.8),
)
THOMAS_ROWS = (62, 1022, 16382)


def table_names() -> list:
    names = [f"table.thomas_us.m{m}" for m in THOMAS_ROWS]
    for kind in ("step_us", "driver_us"):
        names += [f"table.{kind}.{s.value}.N{n}"
                  for s, _, _ in TABLE_SCHEMES for n in TABLE_SIZES]
    return names


def _median_time(fn, repeats: int) -> float:
    before = reference_kernel()
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return normalise(statistics.median(times), before, reference_kernel())


def layer_table() -> dict:
    """One Thomas solve per size, and per-layer stepper and driver times.

    Stepper jobs start from a sine mode with Dirichlet ends; the driver time
    is the ``run_simulation`` time per layer minus the bare stepper time.
    Times are at nominal kernel speed, in seconds.
    """
    table = {}
    for m in THOMAS_ROWS:
        system = hl.TridiagonalSystem(lower=np.full(m - 1, -1.0),
                                      diag=np.full(m, 4.0),
                                      upper=np.full(m - 1, -1.0),
                                      rhs=np.linspace(0.0, 1.0, m))
        repeats = max(3, 20000 // m)
        table[f"table.thomas_us.m{m}"] = 1e6 * _median_time(
            lambda: hl.thomas_solve(system), repeats)
    for scheme, kind, r in TABLE_SCHEMES:
        for cells in TABLE_SIZES:
            layers = TABLE_LAYERS[cells]
            job = MarchJob(name="table", scheme=scheme, cells=cells,
                           steps=layers, snapshot_every=layers, r=r,
                           bcs_spec=(("dirichlet", 0.0, 0.0, 0.0),) * 2,
                           modes=((1, 1.0),), diffusivity=kind).build()
            args = (job.initial, job.params, job.bcs, scheme, layers)
            # Driver and bare runs alternate, and the driver overhead is the
            # median of the paired differences, so slow drift cancels.
            bare, overhead = [], []
            before = reference_kernel()
            for _ in range(TABLE_REPEATS):
                busy, done = bare_steps(*args)
                t0 = perf_counter()
                hl.run_simulation(*args, layers)
                driver = perf_counter() - t0
                bare.append(busy / done)
                overhead.append((driver - busy) / done)
            after = reference_kernel()
            table[f"table.step_us.{scheme.value}.N{cells}"] = 1e6 * normalise(
                statistics.median(bare), before, after)
            table[f"table.driver_us.{scheme.value}.N{cells}"] = 1e6 * normalise(
                statistics.median(overhead), before, after)
    return table
