import dataclasses
import itertools
import math
import re
import warnings

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
from heatlab import schemes, tridiag
from heatlab.grid import (BCKind, Side, boundary_closure_coefficients,
                          close_boundary)
from heatlab.tridiag import TridiagonalSystem, thomas_solve

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
    # a non-finite value fails the same check, with the same message
    for key, value, message in (
            ("dt", math.inf, "dt must be positive, got inf"),
            ("dx", math.inf, "dx must be positive, got inf"),
            ("tau", math.nan, "tau must be >= 0, got nan"),
            ("tau", math.inf, "tau must be >= 0, got inf"),
            ("nu", math.inf, "constant diffusivity must be positive, got inf")):
        with pytest.raises(ValueError, match=message):
            constant_params(**{"nu": 1.0, "dt": 0.1, "dx": 0.25, key: value})
    affine = SchemeParams(DiffusivityModel.affine(1.0, 0.1), dt=0.1, dx=0.25)
    with pytest.raises(ValueError,
                       match="^nu is defined only for constant diffusivity$"):
        affine.nu


def test_step_state_checks_layer_indices():
    p = constant_params(1.0, 0.1, 0.5)
    with pytest.raises(ValueError):
        StepState(prev=field([0, 0, 0], 0), curr=field([0, 0, 0], 2),
                  params=p, bcs=HOMOGENEOUS)
    with pytest.raises(ValueError):
        StepState(prev=field([0, 0], 0), curr=field([0, 0, 0], 1),
                  params=p, bcs=HOMOGENEOUS)


@pytest.mark.parametrize("prev,curr,message", [
    (None, 1.5, "the curr layer's time_index must be an integer, got 1.5"),
    (None, True, "the curr layer's time_index must be an integer, got True"),
    (0.0, 1, "the prev layer's time_index must be an integer, got 0.0"),
], ids=["float", "bool", "float-prev"])
def test_step_state_rejects_a_non_integer_time_index(prev, curr, message):
    # as run_simulation does for its start layer: a float index would put the
    # new layer, and the forcing it reads, at a fractional time
    p = constant_params(1.0, 0.01, 0.5)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        StepState(None if prev is None else field([0, 0, 0], prev),
                  field([0, 1, 0], curr), p, HOMOGENEOUS)
    assert step_explicit(StepState(None, field([0, 1, 0], np.int64(2)), p,
                                   HOMOGENEOUS)).time_index == 3


@pytest.mark.parametrize("build,message", [
    (lambda: DiffusivityModel.affine(math.nan, 0.2),
     "affine diffusivity needs finite a and b, got nan and 0.2"),
    (lambda: DiffusivityModel.affine(1.0, math.inf),
     "affine diffusivity needs finite a and b, got 1.0 and inf"),
    (lambda: DiffusivityModel.general(5.0),
     "general diffusivity k must be callable, got 5.0"),
], ids=["affine-a-nan", "affine-b-inf", "general-not-callable"])
def test_diffusivity_model_rejects_misuse_at_construction(build, message):
    # before, each built and a run failed at step 1 as a SolverError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_diffusivity_model_is_affine_or_a_callable():
    # constant k is a + b u with b = 0: one representation, no kind switch
    assert [f.name for f in dataclasses.fields(DiffusivityModel)] == [
        "affine_a", "affine_b", "general_k"]
    assert DiffusivityModel.affine(2.5, 0.0) == DiffusivityModel.constant(2.5)
    assert DiffusivityModel.constant(2.5).nu_value == 2.5
    assert DiffusivityModel.affine(2.5, 0.1).nu_value is None
    assert DiffusivityModel.general(lambda u: 2.5).nu_value is None
    with pytest.raises(AttributeError):
        DiffusivityModel.constant(2.5).nu_value = 1.0
    # the construction checks hold for every way of building a model
    for build in (lambda: DiffusivityModel.affine(0.0, 0.0),
                  lambda: DiffusivityModel(0.0)):
        with pytest.raises(ValueError, match=re.escape(
                "constant diffusivity must be positive, got 0.0")):
            build()
    with pytest.raises(ValueError, match=re.escape(
            "affine diffusivity needs finite a and b, got 1.0 and nan")):
        DiffusivityModel(1.0, math.nan)
    with pytest.raises(ValueError, match="must be callable"):
        DiffusivityModel(general_k=2.0)
    # a callable carries no affine fields, which it would silently drop
    with pytest.raises(ValueError, match=re.escape(
            "a callable diffusivity k takes no affine fields, "
            "got a = 5.0 and b = 1.0")):
        DiffusivityModel(5.0, 1.0, general_k=lambda u: u)


def test_diffusivity_positivity_guard():
    model = DiffusivityModel.affine(0.0, 1.0)  # k(u) = u
    with pytest.raises(DiffusivityError):
        model.evaluate_array(np.array([0.0]))
    with pytest.raises(DiffusivityError):
        model.evaluate_array(np.array([1.0, -2.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 0.0, -0.0, -2.5],
                         ids=["nan", "inf", "-inf", "zero", "-zero", "negative"])
def test_diffusivity_guard_names_the_first_bad_value(bad):
    # k(u) = u; a NaN must fail the guard although it fails no comparison
    model = DiffusivityModel.general(lambda u: u)
    u = np.array([1.0, 0.5, bad, 2.0, bad, 3.0])
    with pytest.raises(DiffusivityError, match=re.escape(
            f"diffusivity k(u[2] = {bad}) = {bad} is not finite and positive")):
        model.evaluate_array(u)
    np.testing.assert_array_equal(model.evaluate_array(np.abs(u[:2])), u[:2])


def test_diffusivity_guard_names_a_nan_at_every_position():
    # the guard reads min and max through argmin and argmax, which return
    # the first NaN in every lane of numpy's vector loops and in its tail
    model = DiffusivityModel.affine(1.0, 1.0)
    for size in range(1, 71):
        u = np.linspace(0.0, 1.0, size)
        for j in range(size):
            kept, u[j] = u[j], math.nan
            with pytest.raises(DiffusivityError,
                               match=re.escape(f"k(u[{j}] = nan) = nan ")):
                model.evaluate_array(u)
            u[j] = kept


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


# ------------------------------------------------------ tridiagonal solves

def _random_system(rng, m, kind):
    """Bands and rhs of order m: diagonally dominant, plain random (most
    pivot somewhere) or exactly singular through a zero row, which stays
    zero through the elimination, so some pivot is exactly zero."""
    lower, upper = rng.normal(size=m - 1), rng.normal(size=m - 1)
    diag = rng.normal(size=m)
    if kind == "dominant":
        off = np.abs(np.r_[0.0, lower]) + np.abs(np.r_[upper, 0.0])
        diag += np.sign(diag) * (off + 0.1)
    elif kind == "singular":
        row = int(rng.integers(m))
        diag[row] = 0.0
        lower[row - 1:row] = 0.0
        upper[row:row + 1] = 0.0
    return lower, diag, upper, rng.normal(size=m)


def _solution_or_error(solve):
    try:
        return solve().tobytes()
    except SingularSystemError as exc:
        return str(exc)


def _dgtsv_reference(lower, diag, upper, rhs):
    """Bytes of the solution from one plain ``dgtsv`` call, or the message
    of its zero pivot; order 1, which the wrapper rejects, divides."""
    if len(diag) == 1:
        return (rhs / diag).tobytes() if diag[0] != 0.0 else "zero pivot in row 0"
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(lower, diag, upper, rhs)
    return x.tobytes() if info == 0 else f"zero pivot in row {info - 1}"


def _thomas_factory(bands):
    return lambda rhs: thomas_solve(TridiagonalSystem(*bands, rhs))


@pytest.mark.parametrize("factory", [tridiag.factored, tridiag.direct,
                                     _thomas_factory],
                         ids=["factored", "direct", "thomas_solve"])
def test_solve_paths_match_thomas_solve_bit_for_bit(factory):
    rng = np.random.default_rng(15)
    kinds = ("dominant", "pivoting", "singular")
    singular = 0
    for i in range(1200):
        m = i // 3 % 12 + 1 if i < 144 else int(rng.integers(3, 601))
        lower, diag, upper, rhs = _random_system(rng, m, kinds[i % 3])
        expected = _dgtsv_reference(lower, diag, upper, rhs)
        got = _solution_or_error(lambda: factory(
            (lower.copy(), diag.copy(), upper.copy()))(rhs.copy()))
        assert got == expected, (i, m, kinds[i % 3])
        singular += isinstance(expected, str)
    assert singular == 400  # every zero-row system, and no other, is singular


@pytest.mark.parametrize("scheme,model,factorisations,factored", [
    (Scheme.IMPLICIT, DiffusivityModel.constant(1.0), 1, True),
    (Scheme.CRANK_NICOLSON, DiffusivityModel.constant(1.0), 1, True),
    (Scheme.CROSS_CN, DiffusivityModel.general(lambda u: 1.0 + 0.1 * u), 0, False),
    (Scheme.CROSS_CN, DiffusivityModel.affine(1.0, 0.1), 0, False),
    (Scheme.CN_NONLINEAR, DiffusivityModel.general(lambda u: 1.0 + 0.1 * u), 0, False),
], ids=["implicit", "cn", "ccn-general", "ccn-affine", "cn_nonlinear"])
def test_lapack_solve_routines_per_run(scheme, model, factorisations, factored,
                                       monkeypatch):
    # a matrix that lasts the run (constant-k implicit and CN) is factored
    # once; every other, one per step or per fixed-point iterate, goes to
    # dgtsv.  No solve builds a TridiagonalSystem.
    from scipy.linalg import lapack
    counts = dict.fromkeys(("dgttrf", "dgttrs", "dgtsv"), 0)
    for name in counts:
        def counting(*args, name=name, original=getattr(lapack, name), **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)
        monkeypatch.setattr(lapack, name, counting)

    def no_system(**bands):
        raise AssertionError("TridiagonalSystem built")
    monkeypatch.setattr(tridiag, "TridiagonalSystem", no_system)
    grid = build_uniform_grid(1.0, 16)
    p = SchemeParams(model, dt=0.01, dx=grid.dx)
    run_simulation(field(np.sin(np.pi * grid.nodes)), p, HOMOGENEOUS, scheme, 5)
    assert counts["dgttrf"] == factorisations
    solves, unused = ("dgttrs", "dgtsv") if factored else ("dgtsv", "dgttrs")
    assert counts[solves] >= 5 and counts[unused] == 0
    if scheme in (Scheme.IMPLICIT, Scheme.CRANK_NICOLSON):
        assert counts["dgttrs"] == 5


@pytest.mark.parametrize("scheme,r", [(Scheme.IMPLICIT, 0.5),
                                      (Scheme.CRANK_NICOLSON, 1.0),
                                      (Scheme.CN_NONLINEAR, 1.0),
                                      (Scheme.CROSS_CN, 1.0)],
                         ids=["implicit", "cn", "cn_nonlinear", "ccn"])
def test_zero_pivot_found_when_the_plan_is_built(scheme, r):
    # robin(2, 0.5) at dx = 0.25 and a diagonal weight of 1/2 zero the folded
    # first row; the plan factors the matrix, so no step runs (under constant
    # k the nonlinear variants are Crank-Nicolson and fail as it does)
    grid = build_uniform_grid(1.0, 4)
    p = constant_params(1.0, dt=r * grid.dx ** 2, dx=grid.dx)
    bcs = (BoundaryCondition.robin(2.0, 0.5, 0.0), BoundaryCondition.dirichlet(0.0))
    with pytest.raises(SingularSystemError, match=r"^zero pivot in row 2$"):
        schemes._plan(scheme, p, bcs, len(grid.nodes))
    with pytest.raises(SingularSystemError, match=r"^zero pivot in row 2$"):
        run_simulation(field(np.sin(np.pi * grid.nodes)), p, bcs, scheme, 3)


# ----------------------------------------------------------------- leap-frog

def test_leapfrog_hand_example():
    p = constant_params(1.0, dt=0.25, dx=1.0)
    out = step_leapfrog(StepState(field([0, 0, 0], 0), field([0, 1, 0], 1),
                                  p, HOMOGENEOUS))
    np.testing.assert_allclose(out.values, [0.0, -1.0, 0.0], atol=1e-15)


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


def test_saulyev_start_degeneracy_tolerance():
    # robin(6.25 + gap, 1) moves the start denominator 1 - a1/2 - a2/4 of
    # the case above to about gap / 8.75, against a scale of 16/7: the start
    # is degenerate within 1e-12 of it, so a gap of about 1e-10 of the scale
    # builds and sweeps to finite values, one of about 1e-13 raises
    grid = build_uniform_grid(1.0, 10)
    p = constant_params(1.0, dt=grid.dx ** 2, dx=grid.dx)
    for gap, degenerate in ((2e-9, False), (2e-12, True)):
        bcs = (BoundaryCondition.robin(6.25 + gap, 1.0, 0.0),
               BoundaryCondition.dirichlet(0.0))
        state = StepState(None, field(np.ones(11)), p, bcs)
        if degenerate:
            with pytest.raises(SingularSystemError,
                               match="degenerate Saulyev sweep start"):
                step_saulyev_pair(state)
        else:
            pair = step_saulyev_pair(state)
            assert all(np.isfinite(layer.values).all() for layer in pair)
            assert abs(pair[0].values[0]) > 1e8  # about 1 / gap


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


def test_hyperbolic_rejects_zero_tau():
    p = constant_params(1.0, dt=0.1, dx=0.5, tau=0.0)
    with pytest.raises(ValueError, match="tau > 0"):
        step_hyperbolic(StepState(field([0, 0, 0], 0), field([0, 1, 0], 1),
                                  p, HOMOGENEOUS))


def test_bootstrap_hyperbolic_examples():
    p = constant_params(1.0, dt=1.0, dx=1.0, tau=1.0)
    out = bootstrap_hyperbolic(field([0, 1, 0]), p, HOMOGENEOUS)
    np.testing.assert_allclose(out.values, [0.0, 0.0, 0.0], atol=1e-15)
    assert out.time_index == 1

    const = bootstrap_hyperbolic(field([2, 2, 2, 2]), p,
                                 (BoundaryCondition.dirichlet(2.0),) * 2)
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


TRAPEZOIDS = (Scheme.CRANK_NICOLSON, Scheme.CN_NONLINEAR, Scheme.CROSS_CN)
TRAPEZOID_ENDS = {
    "D-D": (BoundaryCondition.dirichlet(0.0),
            BoundaryCondition.dirichlet(lambda t: 0.5 * t)),
    "F-R": (BoundaryCondition.flux(lambda t: -0.2 + t),
            BoundaryCondition.robin(1.0, 0.5, 0.1)),
    "R-F": (BoundaryCondition.robin(1.0, 0.5, 0.1),
            BoundaryCondition.flux(-0.2)),
    "R-D": (BoundaryCondition.robin(2.0, 0.5, lambda t: t),
            BoundaryCondition.dirichlet(0.0)),
}


def _trapezoid_outcome(scheme, model, n, r, bcs, steps=12):
    """Every snapshot's bytes and the divergence flag and step of a run, or
    the type and message of what it raised."""
    grid = build_uniform_grid(1.0, n)
    p = SchemeParams(model, dt=r * grid.dx ** 2, dx=grid.dx)
    u = field(np.sin(np.pi * grid.nodes) + 0.3 * grid.nodes)
    try:
        record = run_simulation(u, p, bcs, scheme, steps)
    except Exception as exc:
        return type(exc), str(exc)
    return ([snap.values.tobytes() for snap in record.snapshots],
            record.diverged, record.diverged_step)


@pytest.mark.parametrize("ends", TRAPEZOID_ENDS)
def test_constant_k_trapezoids_are_one_scheme(ends):
    # under constant k, cn_nonlinear and ccn are Crank-Nicolson: the same
    # bytes, divergence and errors, from the plan's factored matrix (R-F at
    # N = 8, r = 30 diverges at step 8; R-D at N = 4, r = 1 has a zero pivot).
    # With the same k as a callable they keep the per-step solve and the
    # fixed point, which reaches cn within c10's 1e-14
    bcs = TRAPEZOID_ENDS[ends]
    for n, r in itertools.product((2, 3, 4, 8, 9, 64, 1000), (0.1, 1.0, 30.0)):
        a = 1.0 if n % 2 == 0 else 0.7
        cn = _trapezoid_outcome(Scheme.CRANK_NICOLSON,
                                DiffusivityModel.constant(a), n, r, bcs)
        for scheme in TRAPEZOIDS[1:]:
            assert _trapezoid_outcome(scheme, DiffusivityModel.constant(a),
                                      n, r, bcs) == cn, (scheme, n, r)
            if not isinstance(cn[0], list) or cn[1] or n > 64:
                continue
            layers = _trapezoid_outcome(scheme, DiffusivityModel.general(
                lambda u: a), n, r, bcs)[0]
            assert len(layers) == len(cn[0])
            for got, want in zip(layers, cn[0]):
                assert np.max(np.abs(np.frombuffer(got) - np.frombuffer(want))
                              ) <= 1e-14, (scheme, n, r)


def test_constant_k_blow_up_is_flagged_as_cn_flags_it():
    # at r = 30 with these ends the layer passes 1e12 at step 8.  Under
    # constant k no variant iterates, so the run is flagged diverged there;
    # a fixed point would fail on its first change, of about 4e13, instead
    bcs = TRAPEZOID_ENDS["R-F"]
    outcomes = [_trapezoid_outcome(scheme, DiffusivityModel.constant(1.0), 8,
                                   30.0, bcs, steps=20)
                for scheme in TRAPEZOIDS]
    assert outcomes[0][1:] == (True, 8)
    assert outcomes[1] == outcomes[2] == outcomes[0]


@pytest.mark.parametrize("scheme,model,direct_per", [
    (Scheme.IMPLICIT, DiffusivityModel.constant(1.0), None),
    (Scheme.CRANK_NICOLSON, DiffusivityModel.constant(1.0), None),
    (Scheme.CN_NONLINEAR, DiffusivityModel.constant(1.0), None),
    (Scheme.CROSS_CN, DiffusivityModel.constant(1.0), None),
    (Scheme.CROSS_CN, DiffusivityModel.affine(1.0, 0.1), "step"),
    (Scheme.CROSS_CN, DiffusivityModel.general(lambda u: 1.0 + 0.1 * u),
     "iterate"),
    (Scheme.CN_NONLINEAR, DiffusivityModel.affine(1.0, 0.1), "iterate"),
    (Scheme.CN_NONLINEAR, DiffusivityModel.general(lambda u: 1.0 + 0.1 * u),
     "iterate"),
], ids=["implicit", "cn", "cn_nonlinear-constant", "ccn-constant",
        "ccn-affine", "ccn-general", "cn_nonlinear-affine",
        "cn_nonlinear-general"])
def test_solve_rule_by_count(scheme, model, direct_per, monkeypatch):
    # tridiag's rule: a matrix that lasts the run is factored once and solved
    # per step; every other is one direct solve, per step or per iterate
    counts = {"factored": 0, "direct": 0, "iterate": 0}

    def counting(name, original):
        def wrapper(*args):
            counts[name] += 1
            return original(*args)
        return wrapper
    for name in ("factored", "direct"):
        monkeypatch.setattr(schemes, name,
                            counting(name, getattr(schemes, name)))
    fixed_point = schemes._fixed_point
    monkeypatch.setattr(schemes, "_fixed_point", lambda iterate, *rest:
                        fixed_point(counting("iterate", iterate), *rest))
    grid = build_uniform_grid(1.0, 16)
    bcs = (BoundaryCondition.robin(1.0, 0.5, 0.1), BoundaryCondition.flux(0.2))
    p = SchemeParams(model, dt=0.01, dx=grid.dx)
    run_simulation(field(np.sin(np.pi * grid.nodes)), p, bcs, scheme, 5)
    if direct_per is None:
        assert counts == {"factored": 1, "direct": 0, "iterate": 0}
    elif direct_per == "step":
        assert counts == {"factored": 0, "direct": 5, "iterate": 0}
    else:
        assert counts["factored"] == 0 and counts["iterate"] >= 10
        assert counts["direct"] == counts["iterate"]


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


@pytest.mark.parametrize("stepper", [step_cn_nonlinear, step_ccn],
                         ids=["cn_nonlinear", "ccn"])
def test_cn_nonlinear_reports_iteration_failure(stepper):
    grid = build_uniform_grid(1.0, 8)
    model = DiffusivityModel.general(lambda u: 1.5 + np.sin(100.0 * u))
    p = SchemeParams(model, dt=0.5, dx=grid.dx)
    f = field(2.0 * np.sin(np.pi * grid.nodes))
    with pytest.raises(FixedPointError) as err:
        stepper(StepState(None, f, p, HOMOGENEOUS))
    assert err.value.residual > 0.0


def test_a_fixed_point_gets_fifty_iterates():
    # FIXED_POINT_MAX_ITERS: with k(u) = 1 + u^2 a cn_nonlinear layer at
    # dt = 0.5 needs 36 iterates and converges; at dt = 1 it needs more and
    # fails after exactly 50.  Each iterate calls k once (the start layer's
    # call serves the first, the converged one calls none).
    grid = build_uniform_grid(1.0, 8)
    calls = []

    def k(u):
        calls.append(len(u))
        return 1.0 + u * u
    initial = field(np.sin(np.pi * grid.nodes))
    converged = run_simulation(initial, SchemeParams(
        DiffusivityModel.general(k), dt=0.5, dx=grid.dx), HOMOGENEOUS,
        Scheme.CN_NONLINEAR, 1)
    assert len(calls) == 36 and not converged.diverged
    assert np.isfinite(converged.final.values).all()
    calls.clear()
    with pytest.raises(SolverError, match="^step 1: ") as err:
        run_simulation(initial, SchemeParams(
            DiffusivityModel.general(k), dt=1.0, dx=grid.dx), HOMOGENEOUS,
            Scheme.CN_NONLINEAR, 1)
    assert isinstance(err.value.__cause__, FixedPointError)
    assert str(err.value.__cause__).startswith(
        "no convergence after 50 iterations")
    assert len(calls) == 50


def test_nan_iterate_raises_fixed_point_error():
    # a NaN change passes neither the tolerance nor the threshold test
    model = DiffusivityModel.affine(1.0, 0.5)
    v = np.zeros(5)
    iterates = []

    def iterate(k):
        iterates.append(k)
        return np.array([0.0, 0.1, math.nan, 0.1, 0.0])
    with pytest.raises(FixedPointError, match=r"after 1 iterations "
                       r"\(last change nan\)") as err:
        schemes._fixed_point(iterate, v, model.evaluate_array(v[1:-1]), model)
    assert math.isnan(err.value.residual) and len(iterates) == 1


def test_diverging_fixed_point_stops_before_k_overflows():
    # the ccn iterate's change passes DIVERGENCE_THRESHOLD at the tenth
    # iterate, so the run names the iteration, not an overflow inside k
    grid = build_uniform_grid(1.0, 3)
    model = DiffusivityModel.general(lambda u: 1.0 + (u + 1.0) ** 2)
    p = SchemeParams(model, dt=0.5 * grid.dx ** 2, dx=grid.dx)
    ends = (BoundaryCondition.dirichlet(1.0), BoundaryCondition.dirichlet(1.0))
    with pytest.raises(SolverError, match="^step 1: ") as err:
        run_simulation(field([1.0, 0.0, 1.0, 1.0]), p, ends, Scheme.CROSS_CN, 1)
    assert repr(err.value.__cause__) == (
        "FixedPointError('no convergence after 10 iterations "
        "(last change 1.067e+13)')")


@pytest.mark.parametrize("stepper", [step_cn_nonlinear, step_ccn],
                         ids=["cn_nonlinear", "ccn"])
def test_general_k_called_once_per_iterate_on_node_array(stepper, monkeypatch):
    # each iterate solves once and evaluates k once, on the m interior nodes
    # (the start layer's k serves the first iterate, the converged one needs
    # none); a flux end adds one endpoint call per step, a Dirichlet end none
    solves = []
    solve_folded = schemes._solve_folded

    def counting_solve(solve, rho, rhs, ends, terms):
        solves.append(len(rhs))
        return solve_folded(solve, rho, rhs, ends, terms)
    monkeypatch.setattr(schemes, "_solve_folded", counting_solve)
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
    if diverged_step:  # the diverged layer keeps its norm, NaN included
        assert float.hex(record.max_norms[-1]) == float.hex(abs(value))


def test_huge_finite_start_diverges_at_step_one_without_a_warning():
    # a norm taken as sqrt(u @ u) would overflow to inf here and warn
    grid = build_uniform_grid(1.0, 64)
    p = constant_params(1.0, dt=0.25 * grid.dx ** 2, dx=grid.dx)
    u = np.full(65, 1e200)
    u[[0, -1]] = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.EXPLICIT, 5)
    assert record.diverged and record.diverged_step == 1
    assert record.max_norms == [1e200, 1e200]


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


@pytest.mark.parametrize("steps, every, right", [
    (1100, 1, 0.0), (1100, 7, 0.0), (70, 3, lambda t: 0.0)])
def test_block_norms_match_their_snapshots(steps, every, right):
    # each block reduces its kept |rows| once (1100 layers are 35 blocks of
    # up to 32; a callable end makes one-layer blocks), and every snapshot
    # gets its own norm and grade
    grid = build_uniform_grid(1.0, 16)
    p = constant_params(1.0, dt=0.3 * grid.dx ** 2, dx=grid.dx)
    u = np.sin(np.pi * grid.nodes)
    bcs = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(right))
    record = run_simulation(field(u), p, bcs, Scheme.EXPLICIT, steps,
                            snapshot_every=every)
    assert len(record.max_norms) == len(record.snapshots) == len(
        record.consistency_grade) == 1 + -(-steps // every)
    for snap, norm in zip(record.snapshots, record.max_norms):
        assert norm == float(np.max(np.abs(snap.values)))
    assert record.snapshots[-1].time_index == steps


def test_run_simulation_saulyev_layer_flags():
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=grid.dx ** 2, dx=grid.dx)
    u = np.sin(np.pi * grid.nodes)
    record = run_simulation(field(u), p, HOMOGENEOUS, Scheme.SAULYEV, 5)
    indices = [s.time_index for s in record.snapshots]
    assert indices == [0, 1, 2, 3, 4, 5]
    assert record.consistency_grade == [True, False, True, False, True, False]


def test_saulyev_run_sweeps_only_the_layers_it_reaches():
    # one sweep per layer: a 3-step run never makes layer 4, whose right
    # forcing gives None, and a 4-step run names that layer's own step
    grid = build_uniform_grid(1.0, 16)
    dt = grid.dx ** 2
    p = constant_params(1.0, dt=dt, dx=grid.dx)
    bcs = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(
        lambda t: None if t > 3.5 * dt else 0.0))
    initial = field(np.sin(np.pi * grid.nodes))
    record = run_simulation(initial, p, bcs, Scheme.SAULYEV, 3)
    assert [s.time_index for s in record.snapshots] == [0, 1, 2, 3]
    assert record.consistency_grade == [True, False, True, False]
    with pytest.raises(SolverError, match=(
            r"^step 4: right boundary forcing at t = 0\.015625 gave None, "
            r"not a number$")):
        run_simulation(initial, p, bcs, Scheme.SAULYEV, 4)


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
    assert model.evaluate_array(np.array([0.3])).item() == 2.0
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


@pytest.mark.parametrize("bcs", [
    (BoundaryCondition.dirichlet(0.5), BoundaryCondition.dirichlet(-0.2)),
    (BoundaryCondition.flux(0.3), BoundaryCondition.robin(1.0, 0.5, 0.2)),
], ids=["dirichlet", "flux-robin"])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_public_stepper_starts_like_run_simulation(scheme, bcs):
    # without a previous layer a public stepper takes run_simulation's first
    # advance: the explicit step for leap-frog and Dufort-Frankel, the Taylor
    # start for the hyperbolic scheme, both layers of the Saulyev pair
    grid = build_uniform_grid(1.0, 16)
    if scheme in (Scheme.CN_NONLINEAR, Scheme.CROSS_CN):
        p = SchemeParams(DiffusivityModel.affine(1.0, 0.2), dt=0.4 * grid.dx ** 2,
                         dx=grid.dx)
    else:
        p = constant_params(1.0, dt=0.4 * grid.dx ** 2, dx=grid.dx)
    initial = field(1.0 + np.sin(np.pi * grid.nodes) + 0.3 * grid.nodes)
    layers = schemes.SPECS[scheme].layers
    stepper = _HAND_STEPPERS.get(scheme, step_saulyev_pair)
    got = stepper(StepState(None, initial, p, bcs))
    got = got if type(got) is tuple else (got,)
    record = run_simulation(initial, p, bcs, scheme, layers)
    assert [f.time_index for f in got] == list(range(1, layers + 1))
    assert ([f.values.tobytes() for f in got]
            == [f.values.tobytes() for f in record.snapshots[1:]])


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


# Every layer is 1-D with at least 3 nodes (N >= 2).  A malformed one is a
# ValueError naming its shape where a run or a step starts, before any plan
# reads it; a 0-step run builds no plan, so only the 1-D check reaches it.
_BAD_LAYERS = {
    "2-nodes": (np.zeros(2), r"a layer needs at least 3 nodes \(N >= 2\), "
                             r"got shape \(2,\)"),
    "1-node": (np.zeros(1), r"a layer needs at least 3 nodes \(N >= 2\), "
                            r"got shape \(1,\)"),
    "3x3": (np.zeros((3, 3)), r"a layer must be 1-D, got shape \(3, 3\)"),
}


@pytest.mark.parametrize("case", _BAD_LAYERS)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_malformed_layer_is_rejected_where_a_run_or_step_starts(scheme, case):
    values, message = _BAD_LAYERS[case]
    p = constant_params(1.0, dt=0.1, dx=0.5)
    stepper = _HAND_STEPPERS.get(scheme, step_saulyev_pair)
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_simulation(field(values), p, HOMOGENEOUS, scheme, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        stepper(StepState(None, field(values), p, HOMOGENEOUS))
    if values.ndim == 1:
        record = run_simulation(field(values), p, HOMOGENEOUS, scheme, 0)
        assert [s.time_index for s in record.snapshots] == [0]
    else:
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_simulation(field(values), p, HOMOGENEOUS, scheme, 0)


@pytest.mark.parametrize("num_steps, every, message", [
    (True, 1, "num_steps must be >= 0 and an integer, got True"),
    (False, 1, "num_steps must be >= 0 and an integer, got False"),
    (4, True, "snapshot_every must be >= 1 and an integer, got True"),
], ids=["steps-True", "steps-False", "every-True"])
def test_bool_step_counts_are_refused(num_steps, every, message):
    # a bool is an int to isinstance, so True ran one step
    p = constant_params(1.0, dt=0.4 / 64, dx=1 / 8)
    initial = field(np.sin(np.pi * np.arange(9) / 8))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_simulation(initial, p, HOMOGENEOUS, Scheme.EXPLICIT, num_steps,
                       every)


# A start layer holding NaN or +-inf is one ValueError naming its first such
# node, for every scheme, run and stepper alike, raised before any plan is
# built and without a numpy warning; a 0-step run checks it too.
_TWO_LAYER = (Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL, Scheme.HYPERBOLIC)


@pytest.mark.parametrize("node", [0, 4, 8], ids=["first", "middle", "last"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                         ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_non_finite_start_layer_is_one_value_error(scheme, bad, node,
                                                   monkeypatch):
    p = constant_params(1.0, dt=0.01, dx=0.125)
    good = np.sin(np.pi * np.arange(9) / 8)
    u = good.copy()
    u[node] = bad
    message = f"^a layer must be finite, got {bad} at node {node}$"
    stepper = _HAND_STEPPERS.get(scheme, step_saulyev_pair)
    monkeypatch.setattr(schemes, "_plan", lambda *args: pytest.fail("planned"))
    starts = [lambda: run_simulation(field(u), p, HOMOGENEOUS, scheme, 1),
              lambda: run_simulation(field(u), p, HOMOGENEOUS, scheme, 0),
              lambda: stepper(StepState(None, field(u), p, HOMOGENEOUS))]
    if scheme in _TWO_LAYER:
        starts.append(lambda: stepper(
            StepState(field(u), field(good, 1), p, HOMOGENEOUS)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for start in starts:
            with pytest.raises(ValueError, match=message):
                start()


def test_a_run_takes_its_start_norm_once(monkeypatch):
    # the first snapshot reuses the norm of the finiteness check, and the
    # layers are tested once per block: one |block| for up to 32 layers
    calls, max_abs, tests = [], schemes.max_abs, []

    def counted(values):
        calls.append(len(values))
        return max_abs(values)

    class Numpy:  # numpy, with the batched test's abs counted
        def __getattr__(self, name):
            return getattr(np, name)

        def abs(self, values):
            tests.append(values.shape)
            return np.abs(values)
    monkeypatch.setattr(schemes, "max_abs", counted)
    monkeypatch.setattr("heatlab.grid.max_abs", counted)  # Field.max_norm
    monkeypatch.setattr(schemes, "np", Numpy())
    p = constant_params(1.0, dt=0.4 / 64, dx=1 / 8)
    initial = field(np.sin(np.pi * np.arange(9) / 8))
    run_simulation(initial, p, HOMOGENEOUS, Scheme.EXPLICIT, 0)
    assert calls == [9] and tests == []
    run_simulation(initial, p, HOMOGENEOUS, Scheme.EXPLICIT, 3)
    assert calls == [9] * 2 and tests == [(3, 9)]  # the start, then a block
    run_simulation(initial, p, HOMOGENEOUS, Scheme.EXPLICIT, 40, 20)
    assert calls == [9] * 3 and tests == [(3, 9), (32, 9), (8, 9)]


@pytest.mark.parametrize("scheme, num_steps, every, message", [
    (Scheme.EXPLICIT, 2.5, 1, "num_steps must be >= 0 and an integer, got 2.5"),
    (Scheme.SAULYEV, 3.0, 1, "num_steps must be >= 0 and an integer, got 3.0"),
    (Scheme.EXPLICIT, 4, 1.5,
     "snapshot_every must be >= 1 and an integer, got 1.5"),
], ids=["steps-2.5", "saulyev-steps-3.0", "every-1.5"])
def test_step_counts_must_be_integers(scheme, num_steps, every, message):
    # a float count was rounded up, sliced into a TypeError or skipped layers
    p = constant_params(1.0, dt=0.4 / 64, dx=1 / 8)
    initial = field(np.sin(np.pi * np.arange(9) / 8))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_simulation(initial, p, HOMOGENEOUS, scheme, num_steps, every)
    record = run_simulation(initial, p, HOMOGENEOUS, scheme, np.int64(4),
                            np.int32(2))
    assert [s.time_index for s in record.snapshots] == [0, 2, 4]


@pytest.mark.parametrize("time_index", [1.5, 2.0, np.float64(3.0), True, None],
                         ids=["1.5", "2.0", "float64", "True", "None"])
@pytest.mark.parametrize("num_steps", [0, 2])
def test_a_start_layer_off_the_time_grid_is_refused(time_index, num_steps):
    # Field(u, 1.5) ran at time indices 1.5, 2.5, ... and read its boundary
    # data at off-grid times; the integer rule is the one for step counts
    p = constant_params(1.0, dt=0.4 / 64, dx=1 / 8)
    values = np.sin(np.pi * np.arange(9) / 8)
    times = []
    bcs = (BoundaryCondition.dirichlet(lambda t: times.append(t) or 0.0),
           BoundaryCondition.dirichlet(0.0))
    message = ("the start layer's time_index must be an integer, "
               f"got {time_index!r}")
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_simulation(Field(values, time_index), p, bcs, Scheme.EXPLICIT,
                       num_steps)
    assert times == []
    record = run_simulation(Field(values, np.int64(3)), p, bcs,
                            Scheme.EXPLICIT, num_steps)
    assert [s.time_index for s in record.snapshots] == list(
        range(3, 4 + num_steps))
    assert times == [(3 + i) * p.dt for i in range(1, num_steps + 1)]


@pytest.mark.parametrize("forcing", [lambda t: None, lambda t: np.ones(2)],
                         ids=["none", "array"])
@pytest.mark.parametrize("make", [
    BoundaryCondition.dirichlet, BoundaryCondition.flux,
    lambda phi: BoundaryCondition.robin(1.0, 0.5, phi),
], ids=["dirichlet", "flux", "robin"])
@pytest.mark.parametrize("scheme", [Scheme.EXPLICIT, Scheme.IMPLICIT],
                         ids=lambda s: s.value)
def test_forcing_that_is_no_number_fails_at_its_step(scheme, make, forcing):
    grid = build_uniform_grid(1.0, 8)
    dt = 0.25 * grid.dx ** 2  # t = 3 dt = 0.01171875 exactly
    end = make(lambda t: 0.0 if t < 2.5 * dt else forcing(t))
    p = constant_params(1.0, dt=dt, dx=grid.dx)
    with pytest.raises(SolverError, match=re.escape(
            "step 3: right boundary forcing at t = 0.01171875 gave "
            f"{forcing(0.0)!r}, not a number")) as err:
        run_simulation(field(np.sin(np.pi * grid.nodes)), p,
                       (BoundaryCondition.dirichlet(0.0), end), scheme, 5)
    assert err.value.step == 3
    assert type(err.value.__cause__) is ValueError
    assert isinstance(err.value.__cause__.__cause__, TypeError)


@pytest.mark.parametrize("value", [-0.0, 5e-324, 1e308, -1e308],
                         ids=["minus-zero", "subnormal", "huge", "minus-huge"])
@pytest.mark.parametrize("scheme", [Scheme.EXPLICIT, Scheme.IMPLICIT,
                                    Scheme.SAULYEV], ids=lambda s: s.value)
def test_dirichlet_end_writes_its_forcing_double(scheme, value):
    # the endpoint holds the forcing's own double: no 0 * u_adj + g, which
    # would turn -0.0 into +0.0, and no rounding of a subnormal or a huge g
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=0.25 * grid.dx ** 2, dx=grid.dx)
    bcs = (BoundaryCondition.dirichlet(lambda t: value),
           BoundaryCondition.dirichlet(lambda t: value))
    record = run_simulation(field(np.zeros(9)), p, bcs, scheme, 4)
    assert len(record.snapshots) >= 2
    want = np.float64(value).tobytes()
    for layer in record.snapshots[1:]:
        assert layer.values[0].tobytes() == want
        assert layer.values[-1].tobytes() == want


_BCS_MISUSE = {
    "one-flux": (BoundaryCondition.flux(1.0),),
    "three": (BoundaryCondition.dirichlet(0.0), BoundaryCondition.flux(1.0),
              BoundaryCondition.dirichlet(0.0)),
    "empty": (),
    "strings": ("dirichlet", "flux"),
}


@pytest.mark.parametrize("bcs", _BCS_MISUSE.values(), ids=_BCS_MISUSE.keys())
def test_bcs_that_are_not_two_boundary_conditions_are_refused(bcs):
    # a 1-tuple closed both ends, a 3-tuple dropped its middle entry, () and
    # strings escaped as IndexError and AttributeError
    grid = build_uniform_grid(1.0, 8)
    p = constant_params(1.0, dt=0.25 * grid.dx ** 2, dx=grid.dx)
    initial = field(np.sin(np.pi * grid.nodes))
    message = re.escape("bcs must be a (left, right) pair of "
                        f"BoundaryConditions, got {bcs!r}")
    with pytest.raises(ValueError, match=f"^{message}$"):
        run_simulation(initial, p, bcs, Scheme.EXPLICIT, 2)
    with pytest.raises(ValueError, match=f"^{message}$"):
        step_implicit(StepState(None, initial, p, bcs))


_BAD_NODE_BCS = {
    "interior": (HOMOGENEOUS, 3),
    "flux-end": ((BoundaryCondition.dirichlet(0.0), BoundaryCondition.flux(0.0)),
                 8),
}


@pytest.mark.parametrize("bcs,node", _BAD_NODE_BCS.values(),
                         ids=_BAD_NODE_BCS.keys())
@pytest.mark.parametrize("scheme", [Scheme.EXPLICIT, Scheme.CN_NONLINEAR,
                                    Scheme.CROSS_CN], ids=lambda s: s.value)
def test_diffusivity_error_names_the_node_of_the_layer(scheme, bcs, node):
    # k = 1 + u is -1 at u = -2 only; the message names the node of the
    # layer, not the index into u[1:-1] or u[[0, -1]]
    grid = build_uniform_grid(1.0, 8)
    p = SchemeParams(DiffusivityModel.affine(1.0, 1.0), dt=1e-3, dx=grid.dx)
    u = np.full(9, 0.5)
    u[node] = -2.0
    with pytest.raises(SolverError, match=re.escape(
            f"step 1: diffusivity k(u[{node}] = -2.0) = -1.0 is not finite "
            "and positive")) as err:
        run_simulation(field(u), p, bcs, scheme, 2)
    assert isinstance(err.value.__cause__, DiffusivityError)


_ZERO_SLOPE_BCS = {
    "dirichlet": (BoundaryCondition.dirichlet(lambda t: 0.5 + t),
                  BoundaryCondition.dirichlet(-0.2)),
    "flux-robin": (BoundaryCondition.flux(lambda t: 0.3 * t),
                   BoundaryCondition.robin(1.0, 0.5, lambda t: 0.2 - t)),
}


@pytest.mark.parametrize("bcs", _ZERO_SLOPE_BCS.values(),
                         ids=_ZERO_SLOPE_BCS.keys())
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_affine_with_zero_slope_runs_as_the_constant_model(scheme, bcs):
    # affine(1, 0) is constant(1): every scheme accepts it and runs it bit for
    # bit as the constant model, with time-dependent ends
    grid = build_uniform_grid(1.0, 16)
    initial = field(1.0 + np.sin(np.pi * grid.nodes) + 0.3 * grid.nodes)
    runs = [run_simulation(initial, SchemeParams(model, dt=0.4 * grid.dx ** 2,
                                                 dx=grid.dx),
                           bcs, scheme, 7)
            for model in (DiffusivityModel.affine(1.0, 0.0),
                          DiffusivityModel.constant(1.0))]
    affine, constant = ([s.values.tobytes() for s in run.snapshots]
                        for run in runs)
    assert affine == constant and len(constant) == 8


# ------------------------------------------------------ in-place layers
# An advance writes only into the layer it returns, which belongs to its
# plan (a row of a ring, or a fresh array at cap 1 and for the varying-k
# trapezoidal plans): it never writes into a caller's prev or u, no two
# consecutive layers share memory, and the last two layers it returned stay
# intact through the next advance.

_CONTRACT_BCS = {
    "dirichlet": (BoundaryCondition.dirichlet(0.2),
                  BoundaryCondition.dirichlet(lambda t: 1.0 - t)),
    "robin": (BoundaryCondition.robin(1.0, 0.5, 0.2),
              BoundaryCondition.robin(2.0, 1.0, lambda t: t)),
    # number data, so the ring plans run blocks of more than one layer
    "numbers": (BoundaryCondition.dirichlet(0.2),
                BoundaryCondition.robin(2.0, 1.0, 0.3)),
}
_CONTRACT_CASES = [(s, "constant") for s in Scheme] + [
    (Scheme.EXPLICIT, "general"), (Scheme.CN_NONLINEAR, "general"),
    (Scheme.CROSS_CN, "general"), (Scheme.CROSS_CN, "affine")]
_CONTRACT_MODELS = {
    "constant": DiffusivityModel.constant(1.0),
    "affine": DiffusivityModel.affine(1.0, 0.2),
    "general": DiffusivityModel.general(lambda u: 1.0 + 0.1 * u * u),
}


@pytest.mark.parametrize("cells", [3, 16])
@pytest.mark.parametrize("bcs", _CONTRACT_BCS.values(), ids=_CONTRACT_BCS.keys())
@pytest.mark.parametrize("scheme,kind", _CONTRACT_CASES,
                         ids=[f"{s.value}-{k}" for s, k in _CONTRACT_CASES])
def test_advance_writes_only_the_layers_it_returns(scheme, kind, bcs, cells):
    # the hyperbolic scheme runs with its default tau = nu dx > 0; N = 3
    # takes the small-order solves, N = 16 the LAPACK ones
    grid = build_uniform_grid(1.0, cells)
    p = SchemeParams(_CONTRACT_MODELS[kind], dt=0.4 * grid.dx ** 2, dx=grid.dx)
    advance = schemes._plan(scheme, p, bcs, len(grid.nodes))
    prev = 1.0 + np.sin(np.pi * grid.nodes)
    u = prev + 0.3 * grid.nodes
    for before in (None, prev):
        inputs = [x for x in (before, u) if x is not None]
        kept = [x.tobytes() for x in inputs]
        layer = advance(before, u, 1)
        assert [x.tobytes() for x in inputs] == kept
        assert type(layer) is np.ndarray and layer.dtype == np.float64
        assert layer.flags.c_contiguous and layer.shape == u.shape
        assert np.all(np.isfinite(layer))
        for other in (prev, u):
            assert not np.shares_memory(layer, other)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_constant_data_plans_make_full_blocks(scheme):
    # constant k and number ends call no user code, so every plan makes the
    # 32 layers a run asks for in one call at N = 64; at 4100 cells (cap 1)
    # it makes one, in a fresh array of its own rather than a ring row
    for cells, layers in ((64, 32), (4100, 1)):
        grid = build_uniform_grid(1.0, cells)
        p = SchemeParams(_CONTRACT_MODELS["constant"], dt=0.4 * grid.dx ** 2,
                         dx=grid.dx)
        u = 1.0 + np.sin(np.pi * grid.nodes)
        made, rows = schemes._plan(scheme, p, _CONTRACT_BCS["numbers"],
                                   len(u)).block(None, u, 0, 32)
        assert len(rows) == len(made) == layers
    assert rows[0].base is None


# the one-layer loop, then counts run_simulation never asks for: full
# blocks, and blocks that wrap round the ring after a short one; 16 cells
# give cap 32 and 300 cells cap 27
_COUNT_SEQUENCES = [(16, [1] * 14), (16, [32, 32, 1, 32, 32, 3, 1, 32]),
                    (300, [27, 27, 1, 27, 27, 2, 1, 27])]


@pytest.mark.parametrize("bcs", _CONTRACT_BCS.values(),
                         ids=_CONTRACT_BCS.keys())
@pytest.mark.parametrize("scheme,kind", _CONTRACT_CASES,
                         ids=[f"{s.value}-{k}" for s, k in _CONTRACT_CASES])
def test_advance_keeps_the_layers_a_run_reads_next(scheme, kind, bcs):
    # fed its own last two layers as a run feeds them, a plan's block reuses
    # its rows but never the prev and curr it reads, makes as many layers as
    # a fresh plan fed copies, with the same bits, and returns its rows
    # stacked as its 2-D view
    for cells, counts in _COUNT_SEQUENCES:
        grid = build_uniform_grid(1.0, cells)
        p = SchemeParams(_CONTRACT_MODELS[kind], dt=0.4 * grid.dx ** 2,
                         dx=grid.dx)
        block = schemes._plan(scheme, p, bcs, len(grid.nodes)).block
        fresh = schemes._plan(scheme, p, bcs, len(grid.nodes)).block
        prev, u, time_index = None, 1.0 + np.sin(np.pi * grid.nodes), 0
        for count in counts:
            inputs = [x for x in (prev, u) if x is not None]
            kept = [x.copy() for x in inputs]
            made, rows = block(prev, u, time_index, count)
            again = fresh(*(x if x is None else x.copy() for x in (prev, u)),
                          time_index, count)[1]
            assert [x.tobytes() for x in inputs] == [x.tobytes() for x in kept]
            assert [x.tobytes() for x in rows] == [x.tobytes() for x in again]
            assert made.tobytes() == np.stack(rows).tobytes()
            assert not any(np.shares_memory(row, x) for row in rows
                           for x in inputs)
            prev, u = (u, *rows)[-2:]
            time_index += len(rows)


_END_KINDS = {
    "dirichlet": lambda phi, side: BoundaryCondition.dirichlet(phi),
    "flux": lambda phi, side: BoundaryCondition.flux(phi),
    "robin": lambda phi, side: BoundaryCondition.robin(1.0, side * 0.5, phi),
}
_RING_CASES = [(s, "constant") for s in Scheme] + [(Scheme.EXPLICIT, "affine")]
# schemes whose layers blow up at dt = 8 dx^2 (hyperbolic: twice its limit)
_BLOWS_UP = (Scheme.EXPLICIT, Scheme.LEAPFROG, Scheme.HYPERBOLIC)


def _owns_only_snapshots(run):
    # no two snapshots share memory, and whatever a kept layer's values keep
    # alive holds only rows that are themselves snapshots
    snapshots, owners = run.snapshots, {}
    for i, snap in enumerate(snapshots):
        for other in snapshots[:i]:
            assert not np.shares_memory(snap.values, other.values)
    for snap in snapshots[1:]:
        owner = snap.values if snap.values.base is None else snap.values.base
        owners.setdefault(id(owner), (owner, []))[1].append(snap)
    for owner, kept in owners.values():
        assert owner.nbytes == sum(snap.values.nbytes for snap in kept)


@pytest.mark.parametrize("end", _END_KINDS)
@pytest.mark.parametrize("scheme,kind", _RING_CASES,
                         ids=[f"{s.value}-{k}" for s, k in _RING_CASES])
def test_kept_snapshots_own_their_memory(scheme, kind, end):
    # run_simulation copies the layers it keeps out of the plan's blocks: no
    # two snapshots share memory, each keeps alive only kept rows, a rerun
    # and sparser runs give the same bytes, and the first snapshot is the
    # caller's start layer; so do runs whose last kept layer is off the
    # stride, because num_steps is no multiple of it or because the run
    # diverges there.  A callable end makes one-layer blocks, a number end
    # under constant k blocks of several layers in a ring.
    grid = build_uniform_grid(1.0, 16)
    p = SchemeParams(_CONTRACT_MODELS[kind], dt=0.4 * grid.dx ** 2, dx=grid.dx)
    blow_up = scheme if scheme in _BLOWS_UP else Scheme.EXPLICIT
    steep = SchemeParams(_CONTRACT_MODELS["constant"], dt=8 * grid.dx ** 2,
                         dx=grid.dx)  # affine k would turn negative first
    initial = field(1.0 + np.sin(np.pi * grid.nodes) + 0.3 * grid.nodes)
    for right in (lambda t: 0.1 - t, 0.1):
        bcs = (_END_KINDS[end](0.2, -1.0), _END_KINDS[end](right, 1.0))
        runs = [run_simulation(initial, p, bcs, scheme, steps, every)
                for steps, every in ((9, 1), (9, 1), (9, 3), (10, 1), (10, 3))]
        snapshots = runs[0].snapshots
        assert len(snapshots) == 10 and snapshots[0].values is initial.values
        first, rerun, sparse, longer, off = (
            [(s.time_index, s.values.tobytes()) for s in run.snapshots]
            for run in runs)
        assert rerun == first and longer[:10] == first
        assert sparse == first[::3]
        assert off == longer[::3] + longer[-1:]

        every_layer = run_simulation(initial, steep, bcs, blow_up, 40)
        step = every_layer.diverged_step
        every = next(e for e in (3, 4, 5, 7) if step % e)
        diverging = run_simulation(initial, steep, bcs, blow_up, 40, every)
        assert diverging.diverged and diverging.diverged_step == step > every
        layers = [(s.time_index, s.values.tobytes())
                  for s in every_layer.snapshots]
        assert [(s.time_index, s.values.tobytes()) for s in diverging.snapshots
                ] == layers[::every] + layers[-1:]
        for run in runs + [every_layer, diverging]:
            _owns_only_snapshots(run)


@pytest.mark.parametrize("end", _END_KINDS)
@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_constant_data_runs_as_the_same_callable(scheme, end):
    # closure folds a number once; a run gives the bits of the same value
    # given as lambda t: c, which is called at every layer's time
    grid = build_uniform_grid(1.0, 16)
    p = SchemeParams(_CONTRACT_MODELS["constant"], dt=0.4 * grid.dx ** 2,
                     dx=grid.dx)
    initial = field(1.0 + np.sin(np.pi * grid.nodes) + 0.3 * grid.nodes)
    data = (0.2, -0.0)
    runs = [run_simulation(initial, p, tuple(
        _END_KINDS[end](wrap(c), side) for c, side in zip(data, (-1.0, 1.0))),
        scheme, 8) for wrap in (lambda c: c, lambda c: lambda t: c)]
    folded, called = ([s.values.tobytes() for s in run.snapshots]
                      for run in runs)
    assert folded == called and len(folded) == 9


@pytest.mark.parametrize("m", [1, 2, 3, 40])
@pytest.mark.parametrize("factory", [tridiag.factored, tridiag.direct],
                         ids=["factored", "direct"])
def test_solves_write_into_the_view_they_are_given(factory, m):
    # the folded plans solve in the interior of the layer they return
    lower, diag, upper, rhs = _random_system(np.random.default_rng(m), m,
                                             "dominant")
    expected = _dgtsv_reference(lower, diag, upper, rhs)
    layer = np.full(m + 2, 7.0)
    layer[1:-1] = rhs
    view = layer[1:-1]
    x = factory((lower.copy(), diag.copy(), upper.copy()))(view)
    assert x is view
    assert layer[1:-1].tobytes() == expected
    assert layer[0] == layer[-1] == 7.0


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_integer_start_layer_runs_as_float64(scheme):
    # an int Dirac start gives the float start's snapshots bit for bit; an
    # int output layer would truncate them to zeros
    u = np.zeros(9, dtype=int)
    u[4] = 1
    p = constant_params(1.0, dt=0.4 / 64, dx=1 / 8)  # r = 0.4
    ints = run_simulation(Field(u, 0), p, HOMOGENEOUS, scheme, 3)
    floats = run_simulation(Field(u.astype(float), 0), p, HOMOGENEOUS, scheme, 3)
    assert ints.max_norms == floats.max_norms
    assert ints.consistency_grade == floats.consistency_grade
    assert [s.time_index for s in ints.snapshots] == [0, 1, 2, 3]
    for a, b in zip(ints.snapshots, floats.snapshots):
        assert a.values.dtype == np.float64
        assert a.values.tobytes() == b.values.tobytes()
    assert ints.final.values[4] != 0.0

    stepper = _HAND_STEPPERS.get(scheme, step_saulyev_pair)

    def step(values):
        out = stepper(StepState(Field(values, 0), Field(values, 1), p, HOMOGENEOUS))
        return [f.values.tobytes() for f in (out if type(out) is tuple else (out,))]
    assert step(u) == step(u.astype(float))


def test_start_layer_conversion_copies_only_when_needed():
    p = constant_params(1.0, dt=0.4 / 64, dx=1 / 8)
    initial = field(np.sin(np.pi * np.arange(9) / 8))
    assert run_simulation(initial, p, HOMOGENEOUS, Scheme.EXPLICIT, 2).snapshots[0] is initial
    complex_start = Field(np.zeros(9, dtype=complex), 0)
    with pytest.raises(ValueError, match="^layer values must be real"):
        run_simulation(complex_start, p, HOMOGENEOUS, Scheme.EXPLICIT, 2)
    with pytest.raises(ValueError, match="^layer values must be real"):
        step_explicit(StepState(None, complex_start, p, HOMOGENEOUS))
