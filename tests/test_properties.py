"""Invariants the discretisations must keep, checked through run_simulation.

Each property holds exactly in exact arithmetic, so the tolerances are
round-off: a few ulp of the run's largest value per step, times the growth
bound 1 + 4 r of one implicit solve, plus the fixed-point tolerance for the
iterated trapezoidal scheme.  Explicit runs stay within r <= 1/2 and
hyperbolic runs (tau = nu dx, so dt <= dx sqrt(tau / nu) whenever r <= 1)
within r <= 1, where they do not amplify round-off; leap-frog amplifies it
at every r, so it runs at r <= 0.1 and its tolerance carries the max-norm
growth bound (1 + 8 r)^steps.  Runs with a general k(u), which is called
on arrays, must instead match a reference that maps k over Python floats
bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heatlab import (BCKind, BoundaryCondition, DiffusivityError,
                     DiffusivityModel, Field, Scheme, SchemeParams, SolverError,
                     build_uniform_grid, run_simulation)
from heatlab.schemes import FIXED_POINT_TOL

EPS = np.finfo(float).eps
PROPERTY = settings(max_examples=30, deadline=None)


R_CAP = {Scheme.EXPLICIT: 0.5, Scheme.HYPERBOLIC: 1.0, Scheme.LEAPFROG: 0.1}


def capped(scheme: Scheme, r: float) -> float:
    return min(r, R_CAP.get(scheme, r))


def tolerance(scale: float, steps: int, r: float, scheme: Scheme) -> float:
    # the floor keeps one subnormal ulp within tolerance of tiny data
    tol = 16.0 * EPS * steps * (1.0 + 4.0 * r) * max(scale, 1e-300)
    if scheme is Scheme.LEAPFROG:
        tol *= (1.0 + 8.0 * r) ** steps
    if scheme is Scheme.CN_NONLINEAR:
        tol += 4.0 * FIXED_POINT_TOL * steps
    return tol


def params_for(cells: int, r: float, model=None) -> SchemeParams:
    grid = build_uniform_grid(1.0, cells)
    model = model or DiffusivityModel.constant(1.0)
    return SchemeParams(model, dt=r * grid.dx ** 2, dx=grid.dx)


def snapshots(initial, params, bcs, scheme, steps) -> list:
    record = run_simulation(Field(values=initial, time_index=0), params, bcs,
                            scheme, steps)
    assert not record.diverged
    return [s.values for s in record.snapshots]


def profile(size: int, bound: float = 1.0):
    return hnp.arrays(float, size, elements=st.floats(
        -bound, bound, allow_subnormal=False))


# A dissipative end: Robin b points outwards (b < 0 on the left, > 0 on the
# right), so no closure denominator can vanish.
@st.composite
def end_conditions(draw, side: int, homogeneous: bool = False):
    kind = draw(st.sampled_from(("dirichlet", "flux", "robin")))
    phi = 0.0 if homogeneous else draw(st.floats(-1.0, 1.0))
    if kind == "dirichlet":
        return BoundaryCondition.dirichlet(phi)
    if kind == "flux":
        return BoundaryCondition.flux(phi)
    a = draw(st.floats(0.5, 2.0))
    b = side * draw(st.floats(0.5, 2.0))
    return BoundaryCondition.robin(a, b, phi)


def mirrored(bc: BoundaryCondition) -> BoundaryCondition:
    """The same condition at the other end of the reflected interval."""
    phi = bc.forcing(0.0)
    if bc.kind is BCKind.DIRICHLET:
        return bc
    if bc.kind is BCKind.FLUX:
        return BoundaryCondition.flux(-phi)
    return BoundaryCondition.robin(bc.coeff_a, -bc.coeff_b, phi)


# ---------------------------------------------------- discrete maximum principle

# Coefficient positivity with Dirichlet ends: each new node is a convex
# combination of old nodes and end values for explicit and Dufort-Frankel at
# r <= 1/2, Crank-Nicolson and Saulyev at r <= 1, and implicit at every r.
@pytest.mark.parametrize("scheme,r_max", [(Scheme.EXPLICIT, 0.5),
                                          (Scheme.IMPLICIT, 50.0),
                                          (Scheme.CRANK_NICOLSON, 1.0),
                                          (Scheme.DUFORT_FRANKEL, 0.5),
                                          (Scheme.SAULYEV, 1.0)],
                         ids=["explicit", "implicit", "cn", "dufort_frankel",
                              "saulyev"])
@PROPERTY
@given(data=st.data(), cells=st.integers(2, 40), steps=st.integers(1, 8),
       ends=st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)))
def test_discrete_maximum_principle(scheme, r_max, data, cells, steps, ends):
    r = data.draw(st.floats(1e-3, r_max))
    u = data.draw(profile(cells + 1))
    bcs = tuple(BoundaryCondition.dirichlet(v) for v in ends)
    lo, hi = min(u.min(), *ends), max(u.max(), *ends)
    tol = tolerance(max(abs(lo), abs(hi)), steps, r, scheme)
    for layer in snapshots(u, params_for(cells, r), bcs, scheme, steps):
        assert layer.min() >= lo - tol
        assert layer.max() <= hi + tol


@pytest.mark.parametrize("scheme,r,undershoots", [
    (Scheme.EXPLICIT, 0.51, True), (Scheme.DUFORT_FRANKEL, 0.51, True),
    (Scheme.CRANK_NICOLSON, 3.0, True), (Scheme.CRANK_NICOLSON, 1.5, False),
    (Scheme.SAULYEV, 3.0, False), (Scheme.IMPLICIT, 50.0, False),
], ids=["explicit-0.51", "dufort_frankel-0.51", "cn-3", "cn-1.5", "saulyev-3",
        "implicit-50"])
def test_unit_spike_beyond_the_sufficient_bounds(scheme, r, undershoots):
    # the bounds above are sufficient, not sharp: a unit spike undershoots
    # zero for explicit and Dufort-Frankel at r = 0.51 and CN at r = 3, but
    # not for CN at r = 1.5, Saulyev at r = 3 or implicit at r = 50
    u = np.zeros(65)
    u[32] = 1.0
    zero = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(0.0))
    layers = snapshots(u, params_for(64, r), zero, scheme, 20)
    assert max(layer.max() for layer in layers) == 1.0
    assert bool(min(layer.min() for layer in layers) < 0.0) is undershoots


# ------------------------------------------------------------ mirror symmetry

# Saulyev sweeps left to right first, so its layers are not mirror images.
MIRROR_SCHEMES = [s for s in Scheme if s is not Scheme.SAULYEV]


@pytest.mark.parametrize("scheme", MIRROR_SCHEMES, ids=lambda s: s.value)
@PROPERTY
@given(data=st.data(), cells=st.integers(3, 40), steps=st.integers(1, 8),
       r=st.floats(0.05, 0.45), left=end_conditions(-1), right=end_conditions(1))
def test_reflection_with_swapped_ends_mirrors_the_run(scheme, data, cells, steps,
                                                      r, left, right):
    r = capped(scheme, r)
    u = data.draw(profile(cells + 1))
    model = (DiffusivityModel.affine(1.0, 0.2)
             if scheme in (Scheme.CN_NONLINEAR, Scheme.CROSS_CN) else None)
    p = params_for(cells, r, model)
    forward = snapshots(u, p, (left, right), scheme, steps)
    reflected = snapshots(u[::-1].copy(), p, (mirrored(right), mirrored(left)),
                          scheme, steps)
    tol = tolerance(max(np.abs(layer).max() for layer in forward), steps, r,
                    scheme)
    for a, b in zip(forward, reflected, strict=True):
        assert np.abs(a - b[::-1]).max() <= tol


# -------------------------------------------------- linearity in the data

def assert_linear(scheme, cells, steps, r, alpha, beta, u, v, bcs):
    p = params_for(cells, r)
    combined = snapshots(alpha * u + beta * v, p, bcs, scheme, steps)
    split = zip(snapshots(u, p, bcs, scheme, steps),
                snapshots(v, p, bcs, scheme, steps), strict=True)
    # the largest value held so far, initial data included: a damped run
    # keeps round-off of its earlier, larger layers
    scale = 0.0
    for c, (a, b) in zip(combined, split, strict=True):
        scale = max(scale, np.abs(c).max(),
                    abs(alpha) * np.abs(a).max() + abs(beta) * np.abs(b).max())
        assert np.abs(c - (alpha * a + beta * b)).max() <= tolerance(
            scale, steps, r, scheme)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@PROPERTY
@given(data=st.data(), cells=st.integers(3, 40), steps=st.integers(1, 8),
       r=st.floats(0.05, 2.0), alpha=st.floats(-2.0, 2.0),
       beta=st.floats(-2.0, 2.0), left=end_conditions(-1, homogeneous=True),
       right=end_conditions(1, homogeneous=True))
def test_constant_k_runs_are_linear_in_the_initial_data(scheme, data, cells, steps,
                                                        r, alpha, beta, left,
                                                        right):
    u, v = data.draw(profile(cells + 1)), data.draw(profile(cells + 1))
    assert_linear(scheme, cells, steps, capped(scheme, r), alpha, beta, u, v,
                  (left, right))


@pytest.mark.parametrize("scheme", [Scheme.CRANK_NICOLSON, Scheme.CROSS_CN],
                         ids=lambda s: s.value)
def test_strongly_damped_run_is_linear_within_the_input_round_off(scheme):
    # round-off of the initial data's size outlives the damped solution: the
    # last layer is ~1e-142 while the mismatch is ~1e-154
    u, v = np.zeros(4), np.ones(4)
    assert_linear(scheme, 3, 3, 1.962890625, 0.0, 6.3126e-138, u, v,
                  (BoundaryCondition.dirichlet(0.0),) * 2)


# ----------------------------------------------- neutral constant mode

@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
@PROPERTY
@given(cells=st.integers(3, 40), steps=st.integers(1, 8), r=st.floats(0.05, 5.0),
       value=st.floats(-1e3, 1e3))
def test_constant_field_stays_constant_under_zero_flux(scheme, cells, steps, r,
                                                       value):
    r = capped(scheme, r)
    bcs = (BoundaryCondition.flux(0.0), BoundaryCondition.flux(0.0))
    u = np.full(cells + 1, value)
    tol = tolerance(abs(value), steps, r, scheme)
    for layer in snapshots(u, params_for(cells, r), bcs, scheme, steps):
        assert np.abs(layer - value).max() <= tol


# ------------------------------------------ array-valued k, node by node

def per_node_evaluate_array(model: DiffusivityModel, layer: np.ndarray,
                            nodes) -> np.ndarray:
    """General k mapped over ``layer[nodes]`` as Python floats, one call per
    node: the evaluation the array contract replaced, kept as its reference."""
    u = layer if nodes is None else layer[nodes]
    values = np.fromiter(map(model.general_k, u.tolist()), dtype=float,
                         count=len(u))
    if not np.all(values > 0.0):
        bad = int(np.argmin(values))
        raise DiffusivityError(
            f"diffusivity k({u[bad]}) = {values[bad]} is not positive")
    return values


def outcome(initial, params, bcs, scheme, steps):
    """Every layer's bytes and the divergence flags, or the failure's cause."""
    try:
        record = run_simulation(Field(values=initial, time_index=0), params, bcs,
                                scheme, steps)
    except SolverError as exc:
        return repr(exc.__cause__)
    return ([s.values.tobytes() for s in record.snapshots], record.diverged,
            record.diverged_step)


@pytest.mark.parametrize("scheme", [Scheme.EXPLICIT, Scheme.CN_NONLINEAR,
                                    Scheme.CROSS_CN], ids=lambda s: s.value)
@PROPERTY
@given(data=st.data(), cells=st.integers(3, 30), steps=st.integers(1, 6),
       r=st.floats(0.01, 0.5), c0=st.floats(0.5, 1.5), c1=st.floats(-1.0, 1.0),
       c2=st.floats(0.0, 1.0), left=end_conditions(-1), right=end_conditions(1))
def test_array_k_matches_per_node_reference(scheme, data, cells, steps, r, c0,
                                            c1, c2, left, right):
    # k > 0 for every u; only + and *, which numpy rounds as Python floats do
    def k(u):
        return c0 + c2 * (u + c1) * (u + c1)
    u = data.draw(profile(cells + 1))
    p = params_for(cells, r, DiffusivityModel.general(k))
    array = outcome(u, p, (left, right), scheme, steps)
    with mock.patch.object(DiffusivityModel, "_evaluate_nodes",
                           per_node_evaluate_array):
        reference = outcome(u, p, (left, right), scheme, steps)
    assert array == reference
