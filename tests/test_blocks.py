"""Block runs equal the one-layer reference loop bit for bit.

``run_simulation`` asks a ring plan for up to 32 layers per call and tests
divergence once per block; ``run_reference.run_per_layer`` advances one layer
per call and tests each.  Both must give the same kept bytes, norm bits,
grades and divergence step, the same ``SolverError`` step and message, the
same warnings and the same calls of a callable forcing, under every error
state: a diverging block's layers past the divergence step are thrown away,
and its diverging layer is made again under the caller's error state.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatlab import (BoundaryCondition, DiffusivityModel, Field, Scheme,
                     SchemeParams, SolverError, run_simulation, schemes)
from run_reference import run_per_layer

RING_SCHEMES = [Scheme.EXPLICIT, Scheme.IMPLICIT, Scheme.CRANK_NICOLSON,
                Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL, Scheme.HYPERBOLIC,
                Scheme.SAULYEV]
ERROR_STATES = [{}, {"under": "warn"}, {"under": "raise"}, {"over": "raise"},
                {"all": "raise"}, {"all": "warn"}]
JUMPS = [math.inf, -math.inf, math.nan, 1e13, None]


def forcing(spec, side, times):
    """A number, or a callable that records its times and jumps to
    ``value`` from t = ``at`` on."""
    g, slope, at, value = spec
    if slope is None:
        return g

    def phi(t):
        times.append((side, t))
        return value if at is not None and t >= at else g + slope * t
    return phi


def boundaries(ends, times):
    bcs = []
    for side, (kind, a, b, spec) in zip((-1.0, 1.0), ends):
        phi = forcing(spec, side, times)
        bcs.append(BoundaryCondition.dirichlet(phi) if kind == "D" else
                   BoundaryCondition.flux(phi) if kind == "F" else
                   BoundaryCondition.robin(a, side * b, phi))
    return tuple(bcs)


def outcome(run, case):
    """What a run leaves: its record (or SolverError), warnings and the
    times its forcings were called at."""
    times = []
    bcs = boundaries(case["ends"], times)
    with warnings.catch_warnings(record=True) as caught, \
            np.errstate(**case["errstate"]):
        warnings.simplefilter("always")
        try:
            record = run(case["initial"], case["params"], bcs, case["scheme"],
                         case["steps"], case["every"])
            result = ([(s.time_index, s.values.tobytes())
                       for s in record.snapshots],
                      [float.hex(norm) for norm in record.max_norms],
                      record.consistency_grade, record.diverged,
                      record.diverged_step)
        except SolverError as exc:
            result = ("SolverError", exc.step, str(exc))
    seen = [(w.category, str(w.message), w.filename, w.lineno) for w in caught]
    return result, seen, times


def recorded_blocks(monkeypatch):
    """The (time_index, layers made) of every block the plans built from
    here on are asked for, in call order."""
    blocks, plan = [], schemes._plan

    def recorded(*args):
        advance = plan(*args)
        block = advance.block

        def counted(prev, u, time_index, count):
            made, rows = block(prev, u, time_index, count)
            blocks.append((time_index, len(rows)))
            return made, rows
        advance.block = counted
        return advance
    monkeypatch.setattr(schemes, "_plan", recorded)
    return blocks


@st.composite
def end_spec(draw, dt):
    kind = draw(st.sampled_from("DFR"))
    g = draw(st.floats(-1.0, 1.0))
    if draw(st.integers(0, 3)):  # a constant: the plan folds it
        return kind, draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)), (
            g, None, None, None)
    at = draw(st.one_of(st.none(), st.integers(1, 60)))
    return kind, draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)), (
        g, draw(st.floats(-2.0, 2.0)), None if at is None else at * dt,
        draw(st.sampled_from(JUMPS)))


@st.composite
def cases(draw, scheme):
    cells = draw(st.integers(3, 80))
    dx = 1.0 / cells
    r = draw(st.floats(0.05, 3.0))
    kind = (draw(st.sampled_from(["constant", "affine", "general"]))
            if scheme is Scheme.EXPLICIT else "constant")
    model = {"constant": DiffusivityModel.constant(1.0),
             "affine": DiffusivityModel.affine(1.0, 0.1),
             "general": DiffusivityModel.general(lambda u: 1.0 + 0.1 * u * u),
             }[kind]
    dt = r * dx * dx
    params = SchemeParams(model, dt=dt, dx=dx)
    nodes = np.arange(cells + 1) * dx
    spike = draw(st.sampled_from([0.0, 1e-307, 1e-3, 1.0, 1e6, 1e300, 1e308]))
    values = (draw(st.floats(-2.0, 2.0)) * np.sin(np.pi * nodes)
              + spike * (-1.0) ** np.arange(cells + 1))
    steps = draw(st.integers(1, 100))
    return {"scheme": scheme, "params": params,
            "initial": Field(values, draw(st.integers(0, 5))),
            "ends": (draw(end_spec(dt)), draw(end_spec(dt))),
            "steps": steps,
            "every": draw(st.sampled_from([1, 2, 7, 20, steps + 1])),
            "errstate": draw(st.sampled_from(ERROR_STATES))}


@pytest.mark.parametrize("scheme", RING_SCHEMES, ids=lambda s: s.value)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_block_runs_equal_the_one_layer_loop(scheme, data):
    case = data.draw(cases(scheme))
    assert outcome(run_simulation, case) == outcome(run_per_layer, case)


@pytest.mark.parametrize("every", [1, 7, 20])
@pytest.mark.parametrize("scheme,r", [(Scheme.EXPLICIT, 0.6),
                                      (Scheme.LEAPFROG, 0.25)],
                         ids=["explicit", "leapfrog"])
def test_a_spike_diverges_inside_a_block_as_it_does_layer_by_layer(
        scheme, r, every, monkeypatch):
    # constant ends run blocks of up to 32 layers; the highest grid mode
    # crosses the threshold in a block of several, which makes that layer
    # again, alone, and throws away the layers made after it
    blocks = recorded_blocks(monkeypatch)
    cells = 64
    nodes = np.arange(cells + 1) / cells
    case = {"scheme": scheme,
            "params": SchemeParams(DiffusivityModel.constant(1.0),
                                   dt=r / cells ** 2, dx=1.0 / cells),
            "initial": Field(np.sin(np.pi * nodes)
                             + 5e-3 * (-1.0) ** np.arange(cells + 1), 3),
            "ends": (("D", 0.0, 0.0, (0.0, None, None, None)),
                     ("R", 1.0, 1.0, (0.2, None, None, None))),
            "steps": 400, "every": every, "errstate": {}}
    block = outcome(run_simulation, case)
    step = block[0][4]
    *run, again = blocks
    assert again == (step - 1, 1) and run[-1][0] < step - 1
    assert 1 < run[-1][1] and step <= sum(run[-1])
    assert block == outcome(run_per_layer, case)
    assert block[1] == []


@pytest.mark.parametrize("state", [{}, {"over": "warn"}, {"over": "raise"}],
                         ids=str)
@pytest.mark.parametrize("every", [1, 7])
def test_a_crank_nicolson_blow_up_diverges_inside_a_block(every, state,
                                                          monkeypatch):
    # at r = 30 the Robin end robin(1, 0.5, 0.1) drives Crank-Nicolson past
    # the threshold at step 8, inside its first block of 32 layers
    blocks = recorded_blocks(monkeypatch)
    cells = 8
    nodes = np.arange(cells + 1) / cells
    case = {"scheme": Scheme.CRANK_NICOLSON,
            "params": SchemeParams(DiffusivityModel.constant(1.0),
                                   dt=30.0 / cells ** 2, dx=1.0 / cells),
            "initial": Field(np.sin(np.pi * nodes) + 0.3 * nodes, 0),
            "ends": (("R", 1.0, -0.5, (0.1, None, None, None)),
                     ("F", 0.0, 0.0, (-0.2, None, None, None))),
            "steps": 40, "every": every, "errstate": state}
    block = outcome(run_simulation, case)
    assert block == outcome(run_per_layer, case)
    assert block[0][3:] == (True, 8)
    assert blocks == [(0, 32), (7, 1)]


@pytest.mark.parametrize("state", ERROR_STATES, ids=str)
@pytest.mark.parametrize("height", [1e308, 1e300])
def test_overflow_warns_or_raises_only_at_the_divergence_step(height, state):
    # at r = 3 the top grid mode grows elevenfold a step: from 1e308 the
    # first layer overflows and so diverges, and warns (or raises) once, as
    # layer by layer; from 1e300 it diverges without overflowing, and only
    # the thrown-away layers of its block overflow, which warn nothing
    cells = 16
    case = {"scheme": Scheme.EXPLICIT,
            "params": SchemeParams(DiffusivityModel.constant(1.0),
                                   dt=3.0 / cells ** 2, dx=1.0 / cells),
            "initial": Field(height * (-1.0) ** np.arange(cells + 1), 0),
            "ends": (("D", 0.0, 0.0, (0.0, None, None, None)),) * 2,
            "steps": 40, "every": 5, "errstate": state}
    block = outcome(run_simulation, case)
    assert block == outcome(run_per_layer, case)
    overflowed = bool(block[1]) or block[0][0] == "SolverError"
    assert overflowed is (height > 1e300)


@pytest.mark.parametrize("state", [{"under": "raise"}, {"all": "raise"}],
                         ids=str)
def test_an_underflow_that_raises_fails_at_its_own_step(state):
    # the top grid mode decays 0.6-fold a step from 1e-306, so its products
    # reach the subnormals some layers into the run: a caller who raises on
    # underflow runs blocks of one and gets that layer's step
    cells = 16
    case = {"scheme": Scheme.EXPLICIT,
            "params": SchemeParams(DiffusivityModel.constant(1.0),
                                   dt=0.4 / cells ** 2, dx=1.0 / cells),
            "initial": Field(1e-306 * (-1.0) ** np.arange(cells + 1), 0),
            "ends": (("D", 0.0, 0.0, (0.0, None, None, None)),) * 2,
            "steps": 40, "every": 5, "errstate": state}
    block = outcome(run_simulation, case)
    assert block == outcome(run_per_layer, case)
    assert block[0][0] == "SolverError" and block[0][1] > 1


@pytest.mark.parametrize("height", [1e-320, 1e-300])
def test_a_norm_growing_from_the_subnormals_asks_for_full_blocks(height):
    # a max norm in the subnormals grows past the threshold in full blocks
    cells = 16
    case = {"scheme": Scheme.EXPLICIT,
            "params": SchemeParams(DiffusivityModel.constant(1.0),
                                   dt=0.6 / cells ** 2, dx=1.0 / cells),
            "initial": Field(height * (-1.0) ** np.arange(cells + 1), 0),
            "ends": (("D", 0.0, 0.0, (0.0, None, None, None)),) * 2,
            "steps": 70, "every": 7, "errstate": {}}
    assert outcome(run_simulation, case) == outcome(run_per_layer, case)


@pytest.mark.parametrize("every", [1, 5, 1000])
@pytest.mark.parametrize("scheme", RING_SCHEMES, ids=lambda s: s.value)
@pytest.mark.parametrize("cells,steps", [(300, 70), (1100, 23), (4000, 9),
                                         (4100, 9)])
def test_caps_below_32_equal_the_one_layer_loop(cells, steps, scheme, every,
                                                monkeypatch):
    # 300, 1100, 4000 and 4100 cells give caps 27, 7, 2 and 1: each block
    # fills the rows after the row it reads in a ring of 2 cap + 1 rows and
    # starts again at row 0 when it would run past the last; at cap 1 there
    # is no ring and each layer is a fresh array; the last block of a run is
    # partial, and leap-frog's top mode diverges inside a block
    blocks = recorded_blocks(monkeypatch)
    nodes = np.arange(cells + 1) / cells
    params = SchemeParams(DiffusivityModel.constant(1.0), dt=0.4 / cells ** 2,
                          dx=1.0 / cells, tau=2.0 / cells)
    case = {"scheme": scheme, "params": params,
            "initial": Field(np.sin(np.pi * nodes)
                             + 1e-3 * (-1.0) ** np.arange(cells + 1), 2),
            "ends": (("R", 1.0, 1.5, (0.1, None, None, None)),
                     ("D", 0.0, 0.0, (0.3, None, None, None))),
            "steps": steps, "every": every, "errstate": {}}
    assert outcome(run_simulation, case) == outcome(run_per_layer, case)
    assert max(n for _, n in blocks) == min(8192 // (cells + 1), steps)
