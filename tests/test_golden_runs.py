"""run_simulation pinned bit for bit to recorded runs.

``tests/golden_runs.json`` holds, for every run below, each snapshot's values
as float hex with its time index, the consistency grades, the max norms, and
the divergence flag and step.  The runs cover every scheme with time-dependent
Dirichlet, flux and Robin ends, both snapshot strides, the non-constant
diffusivities, divergent runs and a run that starts at a later time index.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden_runs.py``,
and only when a change of the arithmetic is intended.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

from heatlab import (BoundaryCondition, DiffusivityModel, Field, Scheme,
                     SchemeParams, build_uniform_grid, run_simulation)

GOLDEN = Path(__file__).with_name("golden_runs.json")

BCS = {
    "D-D": (BoundaryCondition.dirichlet(lambda t: 1.0 + math.sin(3.0 * t)),
            BoundaryCondition.dirichlet(lambda t: 1.3 - 0.5 * t)),
    "F-R": (BoundaryCondition.flux(0.3), BoundaryCondition.robin(1.0, 0.5, 0.2)),
    "R-F": (BoundaryCondition.robin(1.0, -0.5, lambda t: 0.2 + t),
            BoundaryCondition.flux(lambda t: -0.3 * math.cos(5.0 * t))),
}
HOMOGENEOUS = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(0.0))
DIFFUSIVITIES = {
    "constant": DiffusivityModel.constant(1.0),
    "affine": DiffusivityModel.affine(1.0, 0.2),
    "general": DiffusivityModel.general(lambda u: 1.0 + 0.25 * u * u),
}


def _smooth_run(scheme, bcs, every, k="constant", start=0, r=0.4):
    grid = build_uniform_grid(1.0, 16)
    x = grid.nodes
    initial = Field(values=1.0 + np.sin(np.pi * x) + 0.3 * x, time_index=start)
    params = SchemeParams(DIFFUSIVITIES[k], dt=r * grid.dx ** 2, dx=grid.dx)
    return initial, params, BCS[bcs], scheme, 7, every


def _spike_run(scheme, r):
    grid = build_uniform_grid(1.0, 64)
    u = np.zeros(65)
    u[32] = 1.0
    params = SchemeParams(DIFFUSIVITIES["constant"], dt=r * grid.dx ** 2,
                          dx=grid.dx)
    return Field(values=u, time_index=0), params, HOMOGENEOUS, scheme, 200, 10


def _saulyev_overflow_run():
    grid = build_uniform_grid(1.0, 8)
    params = SchemeParams(DIFFUSIVITIES["constant"], dt=grid.dx ** 2, dx=grid.dx)
    u = 1e13 * np.sin(np.pi * grid.nodes)
    return Field(values=u, time_index=0), params, HOMOGENEOUS, Scheme.SAULYEV, 6, 1


def golden_runs() -> dict:
    runs = {}
    for scheme in Scheme:
        for bcs in BCS:
            for every in (1, 3):
                runs[f"{scheme.value}-{bcs}-every{every}"] = _smooth_run(
                    scheme, bcs, every)
        runs[f"{scheme.value}-R-F-start5"] = _smooth_run(scheme, "R-F", 2,
                                                         start=5)
    for scheme in (Scheme.EXPLICIT, Scheme.CN_NONLINEAR, Scheme.CROSS_CN):
        for k in ("affine", "general"):
            for bcs in ("D-D", "R-F"):
                runs[f"{scheme.value}-{k}-{bcs}"] = _smooth_run(
                    scheme, bcs, 1, k=k, r=0.3)
    runs["leapfrog-spike-diverges"] = _spike_run(Scheme.LEAPFROG, 0.25)
    runs["explicit-r0.6-spike-diverges"] = _spike_run(Scheme.EXPLICIT, 0.6)
    runs["saulyev-1e13-diverges"] = _saulyev_overflow_run()
    return runs


def record_of(run) -> dict:
    record = run_simulation(*run)
    return {
        "snapshots": [{"time_index": s.time_index,
                       "values": " ".join(float(v).hex() for v in s.values)}
                      for s in record.snapshots],
        "consistency_grade": record.consistency_grade,
        "max_norms": [float(n).hex() for n in record.max_norms],
        "diverged": record.diverged,
        "diverged_step": record.diverged_step,
    }


RUNS = golden_runs()
EXPECTED = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}


def test_golden_file_covers_every_run():
    assert sorted(EXPECTED) == sorted(RUNS)


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_simulation_reproduces_golden_bits(name):
    assert record_of(RUNS[name]) == EXPECTED[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: record_of(run) for name, run in RUNS.items()},
                                 indent=1, sort_keys=True) + "\n")
