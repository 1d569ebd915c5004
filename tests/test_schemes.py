import math

import numpy as np
import pytest

from heatlab import (BoundaryCondition, DiffusivityError, DiffusivityModel,
                     Field, FixedPointError, Scheme, SchemeParams,
                     SingularSystemError, SolverError, StepState,
                     bootstrap_hyperbolic, build_uniform_grid, run_simulation,
                     sample_initial, step_ccn, step_cn_nonlinear,
                     step_crank_nicolson, step_dufort_frankel, step_explicit,
                     step_hyperbolic, step_implicit, step_leapfrog,
                     step_saulyev_pair)
from heatlab import schemes
from heatlab.grid import (BCKind, Side, boundary_closure_coefficients,
                          close_boundary)
from heatlab.tridiag import thomas_solve

HOMOGENEOUS = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(0.0))


def constant_params(nu, dt, dx, tau=None):
    return SchemeParams(DiffusivityModel.constant(nu), dt=dt, dx=dx, tau=tau)


def field(values, time_index=0):
    return Field(values=np.asarray(values, dtype=float), time_index=time_index)


# ---------------------------------------------------------------- parameters

def test_diffusion_number_and_scheme_weights():
    p = constant_params(nu=2.0, dt=0.3, dx=0.5)
    r = 2.0 * 0.3 / 0.25
    assert abs(p.diffusion_number_r - r) <= 1e-14 * r


def test_tau_defaults_to_nu_dx():
    p = constant_params(nu=3.0, dt=0.1, dx=0.25)
    assert p.tau == pytest.approx(0.75, rel=1e-15)
    p = constant_params(nu=3.0, dt=0.1, dx=0.25, tau=0.01)
    assert p.tau == 0.01
    with pytest.raises(ValueError):
        constant_params(nu=1.0, dt=0.1, dx=0.25, tau=-1.0)


def test_params_reject_bad_steps():
    with pytest.raises(ValueError):
        constant_params(nu=1.0, dt=0.0, dx=0.1)
    with pytest.raises(ValueError):
        constant_params(nu=1.0, dt=0.1, dx=0.0)
    with pytest.raises(ValueError):
        DiffusivityModel.constant(0.0)


def test_step_state_checks_layer_indices():
    p = constant_params(1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        StepState(prev=field([0, 0, 0], 0), curr=field([0, 0, 0], 2),
                  params=p, bcs=HOMOGENEOUS)
    with pytest.raises(ValueError):
        StepState(prev=field([0, 0], 0), curr=field([0, 0, 0], 1),
                  params=p, bcs=HOMOGENEOUS)


def test_diffusivity_positivity_guard():
    model = DiffusivityModel.affine(0.0, 1.0)  # k(u) = u
    with pytest.raises(DiffusivityError):
        model.evaluate(0.0)
    with pytest.raises(DiffusivityError):
        model.evaluate_array(np.array([1.0, -2.0]))


# ------------------------------------------------------------------ explicit

def test_explicit_hand_examples():
    p = constant_params(1.0, dt=0.25, dx=1.0)  # r = 0.25
    out = step_explicit(StepState(None, field([0, 1, 0]), p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, 0.5, 0.0], atol=1e-15)
    assert out.time_index == 1

    zero = step_explicit(StepState(None, field([0, 0, 0]), p, HOMOGENEOUS))
    np.testing.assert_array_equal(zero.values, [0.0, 0.0, 0.0])


def test_explicit_one_cell_spread_at_half():
    # r = 1/2 moves a point disturbance exactly one cell per step
    p = constant_params(1.0, dt=0.5, dx=1.0)
    u = np.zeros(6)
    u[1] = 1.0
    out = step_explicit(StepState(None, field(u), p, HOMOGENEOUS))
    assert out.values[1] == 0.0
    assert out.values[2] == 0.5
    assert np.all(out.values[3:] == 0.0)


# ------------------------------------------------------------------ implicit

def test_implicit_hand_examples():
    p = constant_params(1.0, dt=1.0, dx=1.0)  # r = 1
    out = step_implicit(StepState(None, field([0, 1, 0]), p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, 1.0 / 3.0, 0.0], rtol=1e-14)

    const_bcs = (BoundaryCondition.dirichlet(4.0), BoundaryCondition.dirichlet(4.0))
    out = step_implicit(StepState(None, field([4, 4, 4, 4]), p, const_bcs))
    np.testing.assert_allclose(out.values, 4.0, rtol=1e-13)


# ------------------------------------------------------------ Crank-Nicolson

def test_crank_nicolson_hand_examples():
    p = constant_params(1.0, dt=1.0, dx=1.0)
    out = step_crank_nicolson(StepState(None, field([0, 1, 0]), p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, 0.0, 0.0], atol=1e-15)

    const_bcs = (BoundaryCondition.dirichlet(2.5), BoundaryCondition.dirichlet(2.5))
    out = step_crank_nicolson(StepState(None, field([2.5] * 5), p, const_bcs))
    np.testing.assert_allclose(out.values, 2.5, rtol=1e-13)


# ----------------------------------------------------------------- leap-frog

def test_leapfrog_hand_example():
    p = constant_params(1.0, dt=0.25, dx=1.0)
    out = step_leapfrog(StepState(field([0, 0, 0], 0), field([0, 1, 0], 1),
                                  p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, -1.0, 0.0], atol=1e-15)


def test_leapfrog_requires_prev():
    p = constant_params(1.0, dt=0.25, dx=1.0)
    with pytest.raises(ValueError, match="previous layer"):
        step_leapfrog(StepState(None, field([0, 1, 0]), p, HOMOGENEOUS))


# ------------------------------------------------------------ Dufort-Frankel

def test_dufort_frankel_hand_example():
    # weight 4 (r = 2): (1-w)/(1+w) = -3/5, w/(1+w) = 4/5
    p = constant_params(1.0, dt=2.0, dx=1.0)
    out = step_dufort_frankel(StepState(field([0, 0, 0], 0),
                                        field([0, 1, 0], 1), p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, 0.0, 0.0], atol=1e-15)


def test_dufort_frankel_weight_one_drops_prev():
    # w = 1: update reduces to the neighbour average, prev plays no role
    p = constant_params(1.0, dt=0.5, dx=1.0)
    rng = np.random.default_rng(1)
    curr = field(rng.standard_normal(7), 1)
    out_a = step_dufort_frankel(StepState(field(np.zeros(7), 0), curr, p,
                                          HOMOGENEOUS))
    out_b = step_dufort_frankel(StepState(field(rng.standard_normal(7), 0),
                                          curr, p, HOMOGENEOUS))
    np.testing.assert_array_equal(out_a.values, out_b.values)
    np.testing.assert_allclose(
        out_a.values[1:-1], 0.5 * (curr.values[2:] + curr.values[:-2]),
        rtol=1e-15)


def test_dufort_frankel_bounded_far_beyond_cfl():
    grid = build_uniform_grid(1.0, 32)
    p = constant_params(1.0, dt=2.0 * grid.dx ** 2, dx=grid.dx)  # r = 2
    u = np.zeros(33)
    u[16] = 1.0
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.DUFORT_FRANKEL,
                            400, snapshot_every=50)
    assert not record.diverged
    assert max(record.max_norms) <= 1.0 + 1e-12


# --------------------------------------------------------------------Saulyev

def test_saulyev_zero_and_n2_example():
    p = constant_params(1.0, dt=1.0, dx=1.0)  # weight 1
    first, second = step_saulyev_pair(StepState(None, field([0, 1, 0]), p,
                                                HOMOGENEOUS))
    np.testing.assert_array_equal(first.values, [0.0, 0.0, 0.0])
    np.testing.assert_array_equal(second.values, [0.0, 0.0, 0.0])
    assert (first.time_index, second.time_index) == (1, 2)


def test_saulyev_weight_one_stage_formula():
    # at weight 1 the rightward sweep is u_j = (u_{j+1}^old + u_{j-1}^new)/2
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=grid.dx ** 2, dx=grid.dx)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(9)
    u[0] = u[-1] = 0.0
    first, _ = step_saulyev_pair(StepState(None, field(u), p, HOMOGENEOUS))
    v = first.values
    for j in range(1, 8):
        assert v[j] == pytest.approx(0.5 * (u[j + 1] + v[j - 1]), rel=1e-14)


def test_saulyev_flux_start_solves_closure_and_sweep():
    grid = build_uniform_grid(1.0, 8)
    nu = 0.7
    p = constant_params(nu, dt=0.01, dx=grid.dx)
    bcs = (BoundaryCondition.flux(0.3), BoundaryCondition.dirichlet(0.0))
    rng = np.random.default_rng(3)
    u = rng.standard_normal(9)
    first, _ = step_saulyev_pair(StepState(None, field(u), p, bcs))
    v = first.values
    lam = p.diffusion_number_r
    a, c = (1.0 - lam) / (1.0 + lam), lam / (1.0 + lam)
    # the start value satisfies the flux closure and the sweep relation at once
    assert nu * (-3 * v[0] + 4 * v[1] - v[2]) / (2 * grid.dx) == \
        pytest.approx(0.3, abs=1e-12)
    assert v[1] == pytest.approx(a * u[1] + c * u[2] + c * v[0], rel=1e-12)


def test_saulyev_degenerate_robin_start():
    # weight 1 makes the sweep factor 1/2; robin(6.25, 1) with nu = 1,
    # dx = 0.1 zeroes the start denominator 1 - a1/2 - a2/4
    grid = build_uniform_grid(1.0, 10)
    p = constant_params(1.0, dt=grid.dx ** 2, dx=grid.dx)
    bcs = (BoundaryCondition.robin(6.25, 1.0, 0.0),
           BoundaryCondition.dirichlet(0.0))
    u = np.ones(11)
    with pytest.raises(SingularSystemError):
        step_saulyev_pair(StepState(None, field(u), p, bcs))


def test_saulyev_pair_asymmetry_second_order_in_dt():
    # symmetric data: the pair's residual asymmetry must shrink at least as
    # dt^2 when dt is halved on a fixed grid
    grid = build_uniform_grid(1.0, 32)
    x = grid.nodes
    sym = np.sin(np.pi * x) + 0.3 * np.sin(3 * np.pi * x)

    def asymmetry(dt):
        p = constant_params(1.0, dt=dt, dx=grid.dx)
        _, second = step_saulyev_pair(StepState(None, field(sym.copy()), p,
                                                HOMOGENEOUS))
        v = second.values
        return float(np.max(np.abs(v - v[::-1])))

    for dt in (4e-4, 2e-4):
        assert asymmetry(dt) / asymmetry(dt / 2.0) >= 3.5


def _saulyev_start_value(bc, side, base, a, c, t_next, nu, dx):
    """Start of a one-sided sweep at a flux/Robin end, one scalar equation."""
    a1, a2, g = boundary_closure_coefficients(bc, side, t_next, nu, dx)
    n = len(base) - 1
    if n < 3:
        raise ValueError("non-Dirichlet Saulyev start needs N >= 3")
    if side is Side.LEFT:
        s1 = a * base[1] + c * base[2]
        s2 = a * base[2] + c * base[3] + c * s1
    else:
        s1 = a * base[n - 1] + c * base[n - 2]
        s2 = a * base[n - 2] + c * base[n - 3] + c * s1
    return (a1 * s1 + a2 * s2 + g) / (1.0 - a1 * c - a2 * c * c)


def _saulyev_pair_loops(u, p, bcs):
    """The node-by-node sweeps of step_saulyev_pair, kept as its oracle."""
    lam = p.diffusion_number_r
    a, c = (1.0 - lam) / (1.0 + lam), lam / (1.0 + lam)
    left, right = bcs
    u = list(u)
    n = len(u) - 1
    t1, t2 = p.dt, 2 * p.dt

    out1 = [0.0] * (n + 1)
    if left.kind is BCKind.DIRICHLET:
        out1[0] = float(left.forcing(t1))
    else:
        out1[0] = _saulyev_start_value(left, Side.LEFT, u, a, c, t1, p.nu, p.dx)
    for j in range(1, n):
        out1[j] = a * u[j] + c * u[j + 1] + c * out1[j - 1]
    out1[n] = close_boundary(right, Side.RIGHT, out1, t1, p.nu, p.dx)

    out2 = [0.0] * (n + 1)
    if right.kind is BCKind.DIRICHLET:
        out2[n] = float(right.forcing(t2))
    else:
        out2[n] = _saulyev_start_value(right, Side.RIGHT, out1, a, c, t2,
                                       p.nu, p.dx)
    for j in range(n - 1, 0, -1):
        out2[j] = a * out1[j] + c * out1[j - 1] + c * out2[j + 1]
    out2[0] = close_boundary(left, Side.LEFT, out2, t2, p.nu, p.dx)
    return np.array(out1), np.array(out2)


SAULYEV_BCS = {
    "D-D": (BoundaryCondition.dirichlet(0.2), BoundaryCondition.dirichlet(-0.1)),
    "F-R": (BoundaryCondition.flux(0.3), BoundaryCondition.robin(1.0, 0.5, 0.2)),
    "R-F": (BoundaryCondition.robin(1.0, 0.5, 0.2), BoundaryCondition.flux(-0.3)),
    "D-F": (BoundaryCondition.dirichlet(0.1), BoundaryCondition.flux(0.3)),
}


@pytest.mark.parametrize("bcs", SAULYEV_BCS.values(), ids=SAULYEV_BCS.keys())
@pytest.mark.parametrize("lam", [0.3, 1.0, 20.0])
@pytest.mark.parametrize("n", [2, 3, 8, 64, 1025])
def test_saulyev_pair_matches_node_loops(n, lam, bcs):
    # the band solve may fuse a multiply-add, so agreement is to round-off of
    # the larger of the data and the layer (Robin/flux forcing at weight 20
    # makes the layer two orders larger than u)
    grid = build_uniform_grid(1.0, n)
    p = constant_params(0.7, dt=lam * grid.dx ** 2 / 0.7, dx=grid.dx)
    u = np.random.default_rng(n).standard_normal(n + 1)
    state = StepState(None, field(u), p, bcs)
    try:
        expected = _saulyev_pair_loops(u, p, bcs)
    except ValueError:  # non-Dirichlet starts need N >= 3
        with pytest.raises(ValueError):
            step_saulyev_pair(state)
        return
    first, second = step_saulyev_pair(state)
    assert (first.time_index, second.time_index) == (1, 2)
    for layer, want in zip((first, second), expected):
        scale = max(1.0, float(np.max(np.abs(u))), float(np.max(np.abs(want))))
        assert np.max(np.abs(layer.values - want)) <= 1e-14 * scale


# ---------------------------------------------------------------- hyperbolic

def test_hyperbolic_hand_example():
    p = constant_params(1.0, dt=1.0, dx=1.0, tau=1.0)
    out = step_hyperbolic(StepState(field([0, 0, 0], 0), field([0, 1, 0], 1),
                                    p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, 0.0, 0.0], atol=1e-15)


def test_hyperbolic_constant_steady_state():
    p = constant_params(1.0, dt=0.1, dx=0.5, tau=0.2)
    bcs = (BoundaryCondition.dirichlet(3.0), BoundaryCondition.dirichlet(3.0))
    out = step_hyperbolic(StepState(field([3, 3, 3, 3], 0),
                                    field([3, 3, 3, 3], 1), p, bcs))
    np.testing.assert_allclose(out.values, 3.0, rtol=1e-14)


def test_hyperbolic_rejects_zero_tau_and_missing_prev():
    p = constant_params(1.0, dt=0.1, dx=0.5, tau=0.0)
    with pytest.raises(ValueError, match="tau > 0"):
        step_hyperbolic(StepState(field([0, 0, 0], 0), field([0, 1, 0], 1),
                                  p, HOMOGENEOUS))
    p = constant_params(1.0, dt=0.1, dx=0.5, tau=0.2)
    with pytest.raises(ValueError, match="previous layer"):
        step_hyperbolic(StepState(None, field([0, 1, 0]), p, HOMOGENEOUS))


def test_bootstrap_hyperbolic_examples():
    p = constant_params(1.0, dt=1.0, dx=1.0, tau=1.0)
    out = bootstrap_hyperbolic(field([0, 1, 0]), p, HOMOGENEOUS)
    np.testing.assert_allclose(out.values, [0.0, 0.0, 0.0], atol=1e-15)
    assert out.time_index == 1

    const = bootstrap_hyperbolic(field([2, 2, 2, 2]), p)
    np.testing.assert_array_equal(const.values, [2.0, 2.0, 2.0, 2.0])

    zero = bootstrap_hyperbolic(field([0, 0, 0]), p, HOMOGENEOUS)
    np.testing.assert_array_equal(zero.values, [0.0, 0.0, 0.0])


# ------------------------------------------------------- nonlinear steppers

def test_cn_nonlinear_reduces_to_crank_nicolson():
    grid = build_uniform_grid(math.pi, 16)
    f = sample_initial(math.sin, grid)
    dt = 0.01
    linear = step_crank_nicolson(StepState(None, f, constant_params(1.0, dt, grid.dx),
                                           HOMOGENEOUS))
    for model in (DiffusivityModel.general(lambda u: 1.0),
                  DiffusivityModel.affine(1.0, 0.0)):
        p = SchemeParams(model, dt=dt, dx=grid.dx)
        out = step_cn_nonlinear(StepState(None, f, p, HOMOGENEOUS))
        assert np.max(np.abs(out.values - linear.values)) <= 1e-14


def test_ccn_reduces_to_crank_nicolson():
    grid = build_uniform_grid(math.pi, 16)
    f = sample_initial(math.sin, grid)
    dt = 0.01
    linear = step_crank_nicolson(StepState(None, f, constant_params(1.0, dt, grid.dx),
                                           HOMOGENEOUS))
    for model in (DiffusivityModel.affine(1.0, 0.0),
                  DiffusivityModel.general(lambda u: 1.0)):
        p = SchemeParams(model, dt=dt, dx=grid.dx)
        out = step_ccn(StepState(None, f, p, HOMOGENEOUS))
        assert np.max(np.abs(out.values - linear.values)) <= 1e-14


def test_cn_nonlinear_zero_field_fixed_point():
    p = SchemeParams(DiffusivityModel.affine(1.0, 1.0), dt=0.1, dx=0.5)
    out = step_cn_nonlinear(StepState(None, field([0, 0, 0]), p, HOMOGENEOUS))
    np.testing.assert_array_equal(out.values, [0.0, 0.0, 0.0])


def _bisect(fn, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if fn(lo) * fn(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def test_cn_nonlinear_matches_scalar_bisection():
    # single interior unknown with k(u) = 1 + u; the update relation becomes
    # (u - w)/dt + (k(w) w + k(u) u)/dx^2 = 0
    w, dt = 0.8, 0.3
    p = SchemeParams(DiffusivityModel.affine(1.0, 1.0), dt=dt, dx=1.0)
    out = step_cn_nonlinear(StepState(None, field([0.0, w, 0.0]), p, HOMOGENEOUS))

    def relation(u):
        return (u - w) / dt + ((1 + w) * w + (1 + u) * u)

    root = _bisect(relation, 0.0, w + 1.0)
    assert out.values[1] == pytest.approx(root, abs=1e-10)


def test_ccn_matches_scalar_bisection():
    # cross version swaps which diffusivity multiplies which difference:
    # (u - w)/dt + (k(u) w + k(w) u)/dx^2 = 0
    w, dt = 0.8, 0.3
    p = SchemeParams(DiffusivityModel.affine(1.0, 1.0), dt=dt, dx=1.0)
    out = step_ccn(StepState(None, field([0.0, w, 0.0]), p, HOMOGENEOUS))

    def relation(u):
        return (u - w) / dt + ((1 + u) * w + (1 + w) * u)

    root = _bisect(relation, 0.0, w + 1.0)
    assert out.values[1] == pytest.approx(root, abs=1e-10)


def test_ccn_general_path_agrees_with_affine_path():
    grid = build_uniform_grid(math.pi, 12)
    f = sample_initial(math.sin, grid)
    dt = 0.005
    affine = step_ccn(StepState(None, f, SchemeParams(
        DiffusivityModel.affine(1.0, 0.1), dt=dt, dx=grid.dx), HOMOGENEOUS))
    general = step_ccn(StepState(None, f, SchemeParams(
        DiffusivityModel.general(lambda u: 1.0 + 0.1 * u), dt=dt, dx=grid.dx),
        HOMOGENEOUS))
    assert np.max(np.abs(affine.values - general.values)) <= 1e-10


# step_ccn iterates only for general k, so it gets the general form of 1 + 0.2 u
FIXED_POINT_STEPPERS = [
    pytest.param(step_cn_nonlinear, DiffusivityModel.affine(1.0, 0.2),
                 id="cn_nonlinear"),
    pytest.param(step_ccn, DiffusivityModel.general(lambda u: 1.0 + 0.2 * u),
                 id="ccn"),
]


@pytest.mark.parametrize("stepper,smooth_k", FIXED_POINT_STEPPERS)
def test_cn_nonlinear_reports_iteration_failure(stepper, smooth_k):
    grid = build_uniform_grid(1.0, 8)
    model = DiffusivityModel.general(lambda u: 1.5 + np.sin(100.0 * u))
    p = SchemeParams(model, dt=0.5, dx=grid.dx)
    f = field(2.0 * np.sin(np.pi * grid.nodes))
    with pytest.raises(FixedPointError) as err:
        stepper(StepState(None, f, p, HOMOGENEOUS))
    assert err.value.residual > 0.0


@pytest.mark.parametrize("stepper,smooth_k", FIXED_POINT_STEPPERS)
def test_cn_nonlinear_damping_still_converges(stepper, smooth_k):
    grid = build_uniform_grid(math.pi, 8)
    p = SchemeParams(smooth_k, dt=0.01, dx=grid.dx)
    f = sample_initial(math.sin, grid)
    undamped = stepper(StepState(None, f, p, HOMOGENEOUS))
    damped = stepper(StepState(None, f, p, HOMOGENEOUS), damping=0.3)
    assert np.max(np.abs(undamped.values - damped.values)) <= 1e-10


@pytest.mark.parametrize("stepper", [step_cn_nonlinear, step_ccn],
                         ids=["cn_nonlinear", "ccn"])
def test_general_k_called_once_per_iterate_on_node_array(stepper, monkeypatch):
    # each iterate solves once and evaluates k once, on the m interior nodes
    # (the start layer's k serves the first iterate, the converged one needs
    # none); a flux end adds one endpoint call per step, a Dirichlet end none
    solves = []

    def counting_solve(system):
        solves.append(len(system.diag))
        return thomas_solve(system)
    monkeypatch.setattr(schemes, "thomas_solve", counting_solve)
    calls = []

    def k(u):
        calls.append(u)
        return 1.0 + 0.1 * u

    grid = build_uniform_grid(1.0, 16)
    p = SchemeParams(DiffusivityModel.general(k), dt=0.01, dx=grid.dx)
    f = field(np.sin(np.pi * grid.nodes))
    stepper(StepState(None, f, p, HOMOGENEOUS))
    assert len(solves) >= 2 and len(calls) == len(solves)
    assert all(type(u) is np.ndarray and u.dtype == np.float64
               and u.shape == (15,) for u in calls)

    calls.clear()
    solves.clear()
    bcs = (BoundaryCondition.flux(0.0), BoundaryCondition.dirichlet(0.0))
    stepper(StepState(None, f, p, bcs))
    assert len(calls) == len(solves) + 1
    assert [len(u) for u in calls].count(1) == 1


# ----------------------------------------------------------------- properties

ALL_CONSTANT_STEPPERS = [
    ("explicit", Scheme.EXPLICIT), ("implicit", Scheme.IMPLICIT),
    ("cn", Scheme.CRANK_NICOLSON), ("leapfrog", Scheme.LEAPFROG),
    ("dufort_frankel", Scheme.DUFORT_FRANKEL), ("saulyev", Scheme.SAULYEV),
    ("hyperbolic", Scheme.HYPERBOLIC),
]


def advance_once(scheme, prev, curr, params, bcs):
    state = StepState(prev=prev, curr=curr, params=params, bcs=bcs)
    if scheme is Scheme.EXPLICIT:
        return step_explicit(state)
    if scheme is Scheme.IMPLICIT:
        return step_implicit(state)
    if scheme is Scheme.CRANK_NICOLSON:
        return step_crank_nicolson(state)
    if scheme is Scheme.LEAPFROG:
        return step_leapfrog(state)
    if scheme is Scheme.DUFORT_FRANKEL:
        return step_dufort_frankel(state)
    if scheme is Scheme.SAULYEV:
        return step_saulyev_pair(state)[1]
    if scheme is Scheme.HYPERBOLIC:
        return step_hyperbolic(state)
    raise AssertionError(scheme)


@pytest.mark.parametrize("name,scheme", ALL_CONSTANT_STEPPERS)
def test_constant_field_is_fixed_point(name, scheme):
    value = 1.7
    bcs = (BoundaryCondition.dirichlet(value), BoundaryCondition.dirichlet(value))
    p = constant_params(0.8, dt=0.02, dx=0.25, tau=0.1)
    prev = None if scheme in (Scheme.EXPLICIT, Scheme.IMPLICIT,
                              Scheme.CRANK_NICOLSON, Scheme.SAULYEV) \
        else field([value] * 9, 0)
    curr = field([value] * 9, 0 if prev is None else 1)
    out = advance_once(scheme, prev, curr, p, bcs)
    assert np.max(np.abs(out.values - value)) <= 1e-12


@pytest.mark.parametrize("name,scheme", ALL_CONSTANT_STEPPERS)
def test_stepper_linearity(name, scheme):
    rng = np.random.default_rng(99)
    p = constant_params(0.8, dt=0.02, dx=0.25, tau=0.1)
    u = rng.standard_normal(9)
    v = rng.standard_normal(9)
    u[0] = u[-1] = v[0] = v[-1] = 0.0
    alpha, beta = 1.7, -0.4
    needs_prev = scheme in (Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL,
                            Scheme.HYPERBOLIC)

    def step_of(w):
        prev = field(0.5 * w, 0) if needs_prev else None
        curr = field(w, 1 if needs_prev else 0)
        return advance_once(scheme, prev, curr, p, HOMOGENEOUS).values

    combined = step_of(alpha * u + beta * v)
    split = alpha * step_of(u) + beta * step_of(v)
    assert np.max(np.abs(combined - split)) <= 1e-12 * max(1.0, np.max(np.abs(split)))


@pytest.mark.parametrize("r", [0.25, 0.5])
def test_explicit_discrete_maximum_principle(r):
    rng = np.random.default_rng(5)
    bcs = (BoundaryCondition.dirichlet(0.2), BoundaryCondition.dirichlet(-0.1))
    p = constant_params(1.0, dt=r * 0.25 ** 2, dx=0.25)
    u = rng.uniform(-1.0, 1.0, size=17)
    lo = min(u.min(), 0.2, -0.1)
    hi = max(u.max(), 0.2, -0.1)
    out = step_explicit(StepState(None, field(u), p, bcs))
    assert np.all(out.values >= lo - 1e-14)
    assert np.all(out.values <= hi + 1e-14)


def test_explicit_interior_sum_changes_only_through_boundary_terms():
    # telescoping: sum over interiors of the second difference leaves only
    # boundary-adjacent terms
    rng = np.random.default_rng(8)
    bcs = (BoundaryCondition.flux(0.0), BoundaryCondition.flux(0.0))
    p = constant_params(1.0, dt=0.4 * 0.25 ** 2, dx=0.25)
    r = p.diffusion_number_r
    u = rng.standard_normal(21)
    out = step_explicit(StepState(None, field(u), p, bcs))
    change = np.sum(out.values[1:-1]) - np.sum(u[1:-1])
    expected = r * (u[0] - u[1] + u[-1] - u[-2])
    assert change == pytest.approx(expected, abs=1e-12)


SYMMETRIC_SCHEMES = [
    ("explicit", Scheme.EXPLICIT), ("implicit", Scheme.IMPLICIT),
    ("cn", Scheme.CRANK_NICOLSON), ("leapfrog", Scheme.LEAPFROG),
    ("dufort_frankel", Scheme.DUFORT_FRANKEL), ("hyperbolic", Scheme.HYPERBOLIC),
]


@pytest.mark.parametrize("name,scheme", SYMMETRIC_SCHEMES)
def test_symmetric_schemes_preserve_symmetry(name, scheme):
    grid = build_uniform_grid(1.0, 16)
    x = grid.nodes
    u = np.sin(np.pi * x) + 0.25 * np.sin(3 * np.pi * x)
    p = constant_params(1.0, dt=0.1 * grid.dx ** 2, dx=grid.dx)
    record = run_simulation(field(u), p, HOMOGENEOUS, scheme, 5)
    v = record.final.values
    assert np.max(np.abs(v - v[::-1])) <= 1e-12


# ------------------------------------------------------------ run_simulation

def test_run_simulation_zero_steps():
    p = constant_params(1.0, dt=0.1, dx=0.5)
    record = run_simulation(field([0, 1, 0]), p, HOMOGENEOUS, Scheme.EXPLICIT, 0)
    assert len(record.snapshots) == 1
    assert record.max_norms == [1.0]
    assert not record.diverged


def test_run_simulation_zero_steps_never_touches_the_stepper():
    # implicit with affine k is misuse, reported (as the ValueError itself,
    # not a SolverError) only once a step is asked for
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.affine(1.0, 0.2), dt=0.01, dx=grid.dx)
    initial = field(np.sin(np.pi * grid.nodes), time_index=4)
    record = run_simulation(initial, p, HOMOGENEOUS, Scheme.IMPLICIT, 0)
    assert [s.time_index for s in record.snapshots] == [4]
    assert record.consistency_grade == [True]
    assert not record.diverged and record.diverged_step is None
    with pytest.raises(ValueError, match="requires constant diffusivity"):
        run_simulation(initial, p, HOMOGENEOUS, Scheme.IMPLICIT, 1)


@pytest.mark.parametrize("value,diverged_step", [
    (1e12 * (1 + 2 ** -40), 3), (1e12, None),
    (math.nan, 3), (math.inf, 3), (-math.inf, 3),
], ids=["above-threshold", "at-threshold", "nan", "inf", "-inf"])
def test_run_simulation_divergence_test_at_the_edges(value, diverged_step):
    # the right end jumps to ``value`` at step 3 and the interior is zero
    # until then, so layer 3 has exactly that max; r = 1/4 keeps every later
    # layer within it
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=0.25 * grid.dx ** 2, dx=grid.dx)
    t3 = 3 * p.dt
    bcs = (BoundaryCondition.dirichlet(0.0),
           BoundaryCondition.dirichlet(lambda t: value if t >= t3 else 0.0))
    record = run_simulation(field(np.zeros(9)), p, bcs, Scheme.EXPLICIT, 6,
                            snapshot_every=2)
    assert record.diverged is (diverged_step is not None)
    assert record.diverged_step == diverged_step
    kept = [0, 2, 3] if diverged_step else [0, 2, 4, 6]
    assert [s.time_index for s in record.snapshots] == kept


def test_run_simulation_divergence_flagging():
    grid = build_uniform_grid(1.0, 64)
    p = constant_params(1.0, dt=0.6 * grid.dx ** 2, dx=grid.dx)  # r = 0.6
    u = np.zeros(65)
    u[32] = 1.0
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.EXPLICIT, 200,
                            snapshot_every=10)
    assert record.diverged
    assert record.diverged_step is not None and record.diverged_step <= 200
    assert record.snapshots[-1].time_index == record.diverged_step
    # and the marginally stable run stays bounded
    p = constant_params(1.0, dt=0.5 * grid.dx ** 2, dx=grid.dx)
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.EXPLICIT, 2000,
                            snapshot_every=100)
    assert not record.diverged


def test_run_simulation_max_norm_matches_snapshots():
    grid = build_uniform_grid(1.0, 16)
    p = constant_params(1.0, dt=0.3 * grid.dx ** 2, dx=grid.dx)
    u = np.sin(np.pi * grid.nodes)
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.EXPLICIT, 20,
                            snapshot_every=4)
    for snap, norm in zip(record.snapshots, record.max_norms):
        assert norm == float(np.max(np.abs(snap.values)))
    assert record.snapshots[-1].time_index == 20


def test_run_simulation_saulyev_layer_flags():
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=grid.dx ** 2, dx=grid.dx)
    u = np.sin(np.pi * grid.nodes)
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.SAULYEV, 5)
    indices = [s.time_index for s in record.snapshots]
    assert indices == [0, 1, 2, 3, 4, 5]
    assert record.consistency_grade == [True, False, True, False, True, False]


def test_run_simulation_wraps_stepper_failures_with_step_index():
    # robin(6, 1) is degenerate at dx = 0.25 when the endpoint k is 1.  With
    # constant k the plan sees that before any step: misuse, a plain
    # ValueError.  With general k the closure depends on the layer, so the
    # same closure fails inside the step and is wrapped with its index.
    grid = build_uniform_grid(1.0, 4)
    dt = 0.25 * grid.dx ** 2
    bcs = (BoundaryCondition.robin(6.0, 1.0, 0.0),
           BoundaryCondition.dirichlet(0.0))
    initial = field(np.sin(np.pi * grid.nodes), time_index=4)
    with pytest.raises(ValueError, match="degenerate robin closure"):
        run_simulation(initial, constant_params(1.0, dt=dt, dx=grid.dx), bcs,
                       Scheme.EXPLICIT, 3)
    p = SchemeParams(DiffusivityModel.general(lambda u: 1.0), dt=dt, dx=grid.dx)
    with pytest.raises(SolverError, match="degenerate robin closure") as err:
        run_simulation(initial, p, bcs, Scheme.EXPLICIT, 3)
    assert err.value.step == 5
    assert isinstance(err.value.__cause__, ValueError)


@pytest.mark.parametrize("scheme", [Scheme.CN_NONLINEAR, Scheme.EXPLICIT],
                         ids=lambda s: s.value)
def test_run_simulation_wraps_diffusivity_overflow(scheme):
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.general(lambda u: 1.0 + u ** 2),
                     dt=1e-3, dx=grid.dx)
    bcs = (BoundaryCondition.flux(0.0), BoundaryCondition.flux(0.0))
    with pytest.raises(SolverError) as err:
        run_simulation(field(np.full(9, 1e200)), p, bcs, scheme, 3)
    assert err.value.step == 1
    assert isinstance(err.value.__cause__, FloatingPointError)
    assert isinstance(err.value.__cause__, ArithmeticError)


@pytest.mark.parametrize("scheme", [Scheme.CN_NONLINEAR, Scheme.EXPLICIT],
                         ids=lambda s: s.value)
def test_general_k_not_evaluated_at_dirichlet_ends(scheme):
    # k(u) = u vanishes at the pinned ends, which no Dirichlet closure reads
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.general(lambda u: u), dt=1e-3, dx=grid.dx)
    record = run_simulation(field(np.sin(np.pi * grid.nodes)), p, HOMOGENEOUS,
                            scheme, 3)
    assert not record.diverged and len(record.snapshots) == 4


@pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
def test_general_k_rejects_non_finite_values(bad):
    model = DiffusivityModel.general(lambda u: np.where(u > 1.5, bad, 1.0))
    with pytest.raises(DiffusivityError,
                       match=rf"k\(u\[1\] = 2.0\) = {bad} is not finite"):
        model.evaluate_array(np.array([1.0, 2.0, 1.0]))
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.general(lambda u: bad), dt=1e-3, dx=grid.dx)
    with pytest.raises(SolverError) as err:
        run_simulation(field(np.sin(np.pi * grid.nodes)), p, HOMOGENEOUS,
                       Scheme.EXPLICIT, 3)
    assert err.value.step == 1
    assert isinstance(err.value.__cause__, DiffusivityError)


def test_general_k_scalar_result_broadcasts():
    model = DiffusivityModel.general(lambda u: 2.0)
    np.testing.assert_array_equal(model.evaluate_array(np.zeros(5)), np.full(5, 2.0))
    assert model.evaluate(0.3) == 2.0
    grid = build_uniform_grid(1.0, 8)
    bcs = (BoundaryCondition.flux(0.3), BoundaryCondition.robin(1.0, 0.5, 0.2))
    initial = field(np.sin(np.pi * grid.nodes))
    runs = [run_simulation(initial, SchemeParams(m, dt=1e-3, dx=grid.dx),
                           bcs, Scheme.EXPLICIT, 3).final.values
            for m in (DiffusivityModel.general(lambda u: 1.0),
                      DiffusivityModel.constant(1.0))]
    np.testing.assert_array_equal(*runs)


def _writes_its_argument(u):
    u[0] = 1.0
    return 1.0 + u


@pytest.mark.parametrize("k,message", [
    (lambda u: np.ones(len(u) + 1), "broadcast"),
    (lambda u: np.ones((len(u), 1)), "more dimensions"),
    (_writes_its_argument, "read-only"),
], ids=["too-long", "column", "writes-argument"])
def test_general_k_shape_and_no_write_contract(k, message):
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.general(k), dt=1e-3, dx=grid.dx)
    initial = np.sin(np.pi * grid.nodes)
    with pytest.raises(SolverError, match=message) as err:
        run_simulation(field(initial), p, HOMOGENEOUS, Scheme.CN_NONLINEAR, 2)
    assert err.value.step == 1
    assert type(err.value.__cause__) is ValueError
    np.testing.assert_array_equal(initial, np.sin(np.pi * grid.nodes))


@pytest.mark.parametrize("scheme", [Scheme.CN_NONLINEAR, Scheme.EXPLICIT],
                         ids=lambda s: s.value)
def test_general_k_for_python_floats_is_a_named_error(scheme):
    # math.sin takes no array: k gets the whole node array in one call
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.general(lambda u: 1.5 + math.sin(u)),
                     dt=1e-3, dx=grid.dx)
    with pytest.raises(SolverError, match="once on the float64 node array") as err:
        run_simulation(field(np.sin(np.pi * grid.nodes)), p, HOMOGENEOUS,
                       scheme, 3)
    assert err.value.step == 1
    cause = err.value.__cause__
    assert isinstance(cause, DiffusivityError)
    assert isinstance(cause.__cause__, TypeError)


def test_run_simulation_rejects_bad_arguments():
    p = constant_params(1.0, dt=0.1, dx=0.5)
    with pytest.raises(ValueError):
        run_simulation(field([0, 1, 0]), p, HOMOGENEOUS, Scheme.EXPLICIT, -1)
    with pytest.raises(ValueError):
        run_simulation(field([0, 1, 0]), p, HOMOGENEOUS, Scheme.EXPLICIT, 2,
                       snapshot_every=0)


# run_simulation must reproduce a hand loop over the public steppers exactly:
# multi-layer schemes start with step_explicit / bootstrap_hyperbolic, the
# Saulyev pair's odd layers (and a truncated final pair) are not
# consistency-grade, and the last layer is always recorded.
_HAND_STEPPERS = {
    Scheme.EXPLICIT: step_explicit, Scheme.IMPLICIT: step_implicit,
    Scheme.CRANK_NICOLSON: step_crank_nicolson,
    Scheme.CN_NONLINEAR: step_cn_nonlinear, Scheme.CROSS_CN: step_ccn,
    Scheme.LEAPFROG: step_leapfrog, Scheme.DUFORT_FRANKEL: step_dufort_frankel,
    Scheme.HYPERBOLIC: step_hyperbolic,
}


def _hand_layers(initial, p, bcs, scheme, num_steps):
    """Every layer 0..num_steps and its consistency grade."""
    layers, grades = [initial], [True]
    while len(layers) <= num_steps:
        prev = layers[-2] if len(layers) > 1 else None
        state = StepState(prev, layers[-1], p, bcs)
        if scheme is Scheme.SAULYEV:
            first, second = step_saulyev_pair(state)
            layers.append(first)
            grades.append(False)
            if len(layers) <= num_steps:
                layers.append(second)
                grades.append(True)
            continue
        if prev is None and scheme is Scheme.HYPERBOLIC:
            layers.append(bootstrap_hyperbolic(layers[-1], p, bcs))
        elif prev is None and scheme in (Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL):
            layers.append(step_explicit(state))
        else:
            layers.append(_HAND_STEPPERS[scheme](state))
        grades.append(True)
    return layers, grades


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_run_simulation_matches_hand_loop_bit_for_bit(scheme):
    grid = build_uniform_grid(1.0, 16)
    bcs = (BoundaryCondition.flux(0.3), BoundaryCondition.robin(1.0, 0.5, 0.2))
    if scheme in (Scheme.CN_NONLINEAR, Scheme.CROSS_CN):
        p = SchemeParams(DiffusivityModel.affine(1.0, 0.2), dt=0.4 * grid.dx ** 2,
                         dx=grid.dx)
    else:
        p = constant_params(1.0, dt=0.4 * grid.dx ** 2, dx=grid.dx)
    initial = field(1.0 + np.sin(np.pi * grid.nodes) + 0.3 * grid.nodes)
    record = run_simulation(initial, p, bcs, scheme, num_steps=7,
                            snapshot_every=3)
    layers, grades = _hand_layers(initial, p, bcs, scheme, 7)
    picks = [0, 3, 6, 7]
    assert not record.diverged
    assert [s.time_index for s in record.snapshots] == picks
    assert record.consistency_grade == [grades[i] for i in picks]
    for snap, i in zip(record.snapshots, picks):
        np.testing.assert_array_equal(snap.values, layers[i].values)


def test_run_simulation_saulyev_divergence_at_first_layer():
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=grid.dx ** 2, dx=grid.dx)
    u = 1e13 * np.sin(np.pi * grid.nodes)
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.SAULYEV, 6)
    assert record.diverged and record.diverged_step == 1
    assert [s.time_index for s in record.snapshots] == [0, 1]
    assert record.consistency_grade == [True, False]


# One node-count rule for every scheme: a flux or Robin end needs N >= 3.
# With fewer nodes an explicit closure would read a neighbour of the new
# layer that has not been written yet (the opposite endpoint at N = 2).
_NEEDS_FOUR_NODES = r"flux/Robin boundaries need N >= 3 \(at least 4 nodes\)"
_SCHEME_CASES = [(s, "constant") for s in Scheme] + [(Scheme.EXPLICIT, "general")]


@pytest.mark.parametrize("bcs", [
    (BoundaryCondition.flux(0.1), BoundaryCondition.dirichlet(0.0)),
    (BoundaryCondition.dirichlet(0.0), BoundaryCondition.flux(0.1)),
    (BoundaryCondition.robin(1.0, 0.5, 0.2), BoundaryCondition.robin(1.0, 0.5, 0.2)),
], ids=["F-D", "D-F", "R-R"])
@pytest.mark.parametrize("scheme,kind", _SCHEME_CASES,
                         ids=[f"{s.value}-{k}" for s, k in _SCHEME_CASES])
def test_flux_and_robin_ends_need_four_nodes(scheme, kind, bcs):
    model = (DiffusivityModel.constant(1.0) if kind == "constant"
             else DiffusivityModel.general(lambda u: 1.0))
    p = SchemeParams(model, dt=0.1, dx=0.5)
    stepper = _HAND_STEPPERS.get(scheme, step_saulyev_pair)
    state = StepState(field([0.0, 1.0, 0.0], 0), field([0.2, 1.0, 0.3], 1), p, bcs)
    with pytest.raises(ValueError, match=_NEEDS_FOUR_NODES):
        stepper(state)
    with pytest.raises(ValueError, match=_NEEDS_FOUR_NODES):
        run_simulation(state.curr, p, bcs, scheme, 2)
    record = run_simulation(field([0.2, 1.0, 0.5, 0.3]), p, bcs, scheme, 2)
    assert np.all(np.isfinite(record.final.values))
