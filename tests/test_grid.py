import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from heatlab import (BCKind, BoundaryCondition, Field, Side,
                     boundary_closure_coefficients, build_uniform_grid,
                     close_boundary, sample_initial)
from heatlab.grid import closure, max_abs


def test_build_uniform_grid_examples():
    g = build_uniform_grid(1.0, 4)
    assert g.dx == 0.25
    np.testing.assert_allclose(g.nodes, [0.0, 0.25, 0.5, 0.75, 1.0])

    g = build_uniform_grid(2.0, 2)
    np.testing.assert_allclose(g.nodes, [0.0, 1.0, 2.0])


@pytest.mark.parametrize("length,cells", [(1.0, 1), (1.0, 0), (0.0, 4),
                                          (-2.0, 4), (math.nan, 4), (1.0, 2.5),
                                          (1.0, 4.0), (1.0, np.float64(3.0))])
def test_build_uniform_grid_rejects_bad_input(length, cells):
    with pytest.raises(ValueError):
        build_uniform_grid(length, cells)


def test_grid_invariants():
    g = build_uniform_grid(1.3, 7)
    assert len(g.nodes) == 8
    assert g.nodes[0] == 0.0
    assert abs(g.nodes[-1] - 1.3) <= 1e-12 * 1.3
    spacings = np.diff(g.nodes)
    assert np.max(np.abs(spacings - g.dx)) <= 1e-12 * g.dx


def test_sample_initial_zero_and_identity():
    g = build_uniform_grid(1.0, 2)
    zero = sample_initial(lambda x: 0.0, g)
    assert zero.time_index == 0
    np.testing.assert_array_equal(zero.values, [0.0, 0.0, 0.0])

    ident = sample_initial(lambda x: x, g)
    np.testing.assert_allclose(ident.values, [0.0, 0.5, 1.0])


def test_sample_initial_discrete_dirac_at_first_node():
    g = build_uniform_grid(1.0, 5)
    dirac = sample_initial(lambda x: 1.0 if x == 0.0 else 0.0, g)
    np.testing.assert_array_equal(dirac.values, [1, 0, 0, 0, 0, 0])


def test_sample_initial_rejects_non_finite():
    g = build_uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match="not finite"):
        sample_initial(lambda x: math.inf if x == 0.0 else 1.0, g)


def test_sample_initial_names_the_node_where_the_profile_raises():
    # the profile gets Python floats, so 1/x raises at x = 0 instead of
    # warning and returning inf
    g = build_uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match=re.escape(
            "initial profile is not finite at node 0 (x = 0.0)")) as err:
        sample_initial(lambda x: 1.0 / x, g)
    assert isinstance(err.value.__cause__, ZeroDivisionError)
    with pytest.raises(ValueError, match=re.escape(
            "not finite at node 3 (x = 0.75)")) as err:
        sample_initial(lambda x: math.exp(1e3 * x) if x > 0.5 else 0.0, g)
    assert isinstance(err.value.__cause__, OverflowError)
    # a non-finite value before the node that raises is named first
    with pytest.raises(ValueError, match="not finite at node 1 "):
        sample_initial(lambda x: math.inf if x == 0.25 else 1.0 / (x - 0.5), g)


@pytest.mark.parametrize("value", [None, 1j, np.ones(2)],
                         ids=["none", "complex", "array"])
def test_sample_initial_names_the_node_whose_value_is_no_number(value):
    g = build_uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match=re.escape(
            "initial profile gave no number at node 2 (x = 0.5)")) as err:
        sample_initial(lambda x: {0.5: value}.get(x, 0.0), g)
    assert isinstance(err.value.__cause__, TypeError)
    # a non-finite value before that node is named first
    with pytest.raises(ValueError, match=re.escape(
            "initial profile is not finite at node 1 (x = 0.25)")):
        sample_initial(lambda x: {0.25: math.inf, 0.5: value}.get(x, 0.0), g)


@pytest.mark.parametrize("value", ["abc", "", "1.5.0"])
def test_sample_initial_names_the_node_of_a_string_float_cannot_parse(value):
    g = build_uniform_grid(1.0, 4)
    with pytest.raises(ValueError, match=re.escape(
            "initial profile gave no number at node 2 (x = 0.5)")) as err:
        sample_initial(lambda x: {0.5: value}.get(x, 0.0), g)
    assert isinstance(err.value.__cause__, ValueError)
    # so is a profile's own ValueError, and a numeric string is still parsed
    with pytest.raises(ValueError, match=re.escape(
            "initial profile gave no number at node 1 (x = 0.25)")):
        sample_initial(lambda x: math.sqrt(x - 0.5) if x == 0.25 else 0.0, g)
    parsed = sample_initial(lambda x: {0.5: "1.5"}.get(x, 0.0), g)
    np.testing.assert_array_equal(parsed.values, [0.0, 0.0, 1.5, 0.0, 0.0])


def test_sample_initial_passes_python_floats_bit_equal_to_the_nodes():
    g = build_uniform_grid(1.3, 7)
    seen = []
    f = sample_initial(lambda x: seen.append(x) or math.sin(3.0 * x), g)
    assert all(type(x) is float for x in seen)
    np.testing.assert_array_equal(seen, g.nodes)
    # the same doubles as sampling at the numpy scalars of the nodes
    np.testing.assert_array_equal(
        f.values, [math.sin(3.0 * x) for x in g.nodes])


def _hex(value) -> str:
    # float.hex tells -0.0 from 0.0 and prints every NaN as 'nan'
    return float.hex(float(value))


@settings(deadline=None)
@given(hnp.arrays(np.float64, st.integers(1, 70)))
def test_max_abs_equals_the_reduction(values):
    assert _hex(max_abs(values)) == _hex(np.abs(values).max())


@pytest.mark.parametrize("special", [math.nan, math.inf, -math.inf, -0.0],
                         ids=["nan", "inf", "-inf", "-zero"])
def test_max_abs_finds_a_special_value_at_every_position(special):
    # numpy's argmax runs vector lanes and a scalar tail, so the special
    # value visits every position of short arrays and of two long ones;
    # a NaN or an infinity dominates wherever it sits, so the reduction's
    # value is the same at every position
    rng = np.random.default_rng(20)
    for size in (*range(1, 71), 1025, 16385):
        values = np.zeros(size) if special == 0.0 else rng.standard_normal(size)
        kept, values[0] = values[0], special
        expected = _hex(np.abs(values).max())
        values[0] = kept
        for j in range(size):
            kept, values[j] = values[j], special
            assert _hex(max_abs(values)) == expected, (size, j)
            values[j] = kept
    assert type(max_abs(values)) is float


def test_field_max_norm_is_a_float_for_integer_values():
    norm = Field(values=np.array([1, -3, 2]), time_index=0).max_norm
    assert type(norm) is float and norm == 3.0


def test_dirichlet_closure_ignores_interior():
    bc = BoundaryCondition.dirichlet(1.0)
    for interior in ([0.0, 3.0, -7.0], [0.0, 123.0, 5.0]):
        assert close_boundary(bc, Side.LEFT, np.array(interior),
                              t_next=0.3, nu=1.0, dx=0.1) == 1.0


def test_flux_closure_hand_values():
    bc = BoundaryCondition.flux(0.0)
    # -3 u0 + 4 u1 - u2 = 0 with u1 = u2 = 5 gives u0 = 5
    u0 = close_boundary(bc, Side.LEFT, np.array([0.0, 5.0, 5.0]),
                        t_next=0.0, nu=1.0, dx=0.1)
    assert u0 == pytest.approx(5.0, abs=1e-14)
    # u1 = 2, u2 = 1: u0 = (8 - 1)/3
    u0 = close_boundary(bc, Side.LEFT, np.array([0.0, 2.0, 1.0]),
                        t_next=0.0, nu=1.0, dx=0.5)
    assert u0 == pytest.approx(7.0 / 3.0, rel=1e-14)


def test_flux_closure_right_mirrors_left():
    bc = BoundaryCondition.flux(0.0)
    left = close_boundary(bc, Side.LEFT, np.array([0.0, 2.0, 1.0, 9.0]),
                          t_next=0.0, nu=1.0, dx=0.5)
    right = close_boundary(bc, Side.RIGHT, np.array([9.0, 1.0, 2.0, 0.0]),
                           t_next=0.0, nu=1.0, dx=0.5)
    assert right == pytest.approx(left, rel=1e-14)


def test_flux_closure_needs_three_nodes():
    bc = BoundaryCondition.flux(0.0)
    with pytest.raises(ValueError, match="3 nodes"):
        close_boundary(bc, Side.LEFT, np.array([1.0, 2.0]),
                       t_next=0.0, nu=1.0, dx=0.5)


def test_robin_rejects_zero_coefficients():
    with pytest.raises(ValueError):
        BoundaryCondition.robin(0.0, 0.0, 1.0)


@pytest.mark.parametrize("make", [
    lambda: BoundaryCondition.robin(math.nan, 1.0),
    lambda: BoundaryCondition.robin(1.0, -math.inf),
    lambda: BoundaryCondition.robin(1.0, 1.0, math.nan),
    lambda: BoundaryCondition.dirichlet(math.inf),
    lambda: BoundaryCondition.flux(math.nan),
], ids=["robin-a-nan", "robin-b-inf", "robin-value-nan", "dirichlet-inf",
        "flux-nan"])
def test_boundary_condition_rejects_non_finite_numbers(make):
    with pytest.raises(ValueError, match="must be finite"):
        make()


@pytest.mark.parametrize("kind,a,b", [
    (BCKind.FLUX, 5.0, 0.0), (BCKind.FLUX, 0.0, 1.0),
    (BCKind.DIRICHLET, 1.0, 0.0), (BCKind.DIRICHLET, 0.0, -2.0),
], ids=["flux-a", "flux-b", "dirichlet-a", "dirichlet-b"])
def test_boundary_condition_refuses_coefficients_its_kind_ignores(kind, a, b):
    # closure reads coeff_a and coeff_b for Robin ends only
    message = f"a {kind.value} condition takes no coefficients, got ({a}, {b})"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BoundaryCondition(kind=kind, coeff_a=a, coeff_b=b)


@pytest.mark.parametrize("kind", ["dirichlet", "FLUX", 0, None],
                         ids=["str", "upper-str", "int", "none"])
def test_boundary_condition_refuses_a_kind_that_is_no_bckind(kind):
    # before, "dirichlet" built and the run died in closure on kind.value
    message = f"boundary kind must be a BCKind, got {kind!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        BoundaryCondition(kind=kind)


@pytest.mark.parametrize("kind", list(BCKind), ids=lambda k: k.value)
def test_a_number_given_as_forcing_becomes_the_constant_forcing(kind):
    # the direct constructor takes the path of the static ones: a number is
    # finite-checked and becomes the constant forcing closure folds
    coeffs = (1.0, 0.5) if kind is BCKind.ROBIN else (0.0, 0.0)
    for value in (2.5, 3, np.float64(-0.25)):
        bc = BoundaryCondition(kind, *coeffs, forcing=value)
        assert bc.forcing is not value and bc.forcing(7.0) == float(value)
        assert bc == BoundaryCondition(kind, *coeffs, forcing=float(value))
    with pytest.raises(ValueError, match="value must be finite, got inf"):
        BoundaryCondition(kind, *coeffs, forcing=math.inf)
    for bad in ("warm", None, [1.0]):
        with pytest.raises(ValueError, match=re.escape(
                f"boundary data must be a number or a callable, got {bad!r}")):
            BoundaryCondition(kind, *coeffs, forcing=bad)


def test_the_default_forcing_is_the_constant_zero():
    # the default is the constant forcing too, so closure folds it
    bc = BoundaryCondition(BCKind.DIRICHLET)
    assert bc.forcing(1.0) == 0.0
    assert bc == BoundaryCondition.dirichlet() == BoundaryCondition.dirichlet(0)
    out = np.full(4, 9.0)
    closure(bc, Side.LEFT, 1.0, 0.25).close(out, 3.0)
    assert out.tolist() == [0.0, 9.0, 9.0, 9.0]


@pytest.mark.parametrize("make", [
    BoundaryCondition.dirichlet, BoundaryCondition.flux,
    lambda phi: BoundaryCondition.robin(1.0, -0.5, phi),
], ids=["dirichlet", "flux", "robin"])
@pytest.mark.parametrize("side", list(Side), ids=lambda s: s.value)
def test_a_folded_constant_closes_as_its_callable_does(make, side):
    # close(out, t) of a number writes the bits put(out, term(t)) writes
    # for the same value passed as a callable, at any t
    values = np.array([0.3, -1.7, 2.9, 5e-324, -0.0, 1.1])
    for phi in (0.7, -0.0, 1e-300):
        folded = closure(make(phi), side, 0.8, 0.1)
        called = closure(make(lambda t, phi=phi: phi), side, 0.8, 0.1)
        for t in (0.0, 0.25, 1e9):
            got, want = values.copy(), values.copy()
            folded.close(got, t)
            called.put(want, called.term(t))
            assert got.tobytes() == want.tobytes()
            called.close(got, t)
            assert got.tobytes() == want.tobytes()
        assert (folded.a1, folded.a2, folded.term(2.0)) == (
            called.a1, called.a2, called.term(2.0))


def test_boundary_condition_leaves_a_callable_forcing_unchecked():
    bc = BoundaryCondition.dirichlet(lambda t: math.inf)
    assert bc.forcing(0.0) == math.inf


@pytest.mark.parametrize("make", [
    BoundaryCondition.dirichlet, BoundaryCondition.flux,
    lambda phi: BoundaryCondition.robin(1.0, 0.5, phi),
], ids=["dirichlet", "flux", "robin"])
@pytest.mark.parametrize("value", [None, np.ones(2)], ids=["none", "array"])
def test_closure_term_names_a_forcing_that_is_no_number(make, value):
    # a ValueError, which a run reports as a SolverError at its step
    end = closure(make(lambda t: value), Side.RIGHT, 1.0, 0.1)
    with pytest.raises(ValueError, match=re.escape(
            f"right boundary forcing at t = 0.5 gave {value!r}, not a number")
            ) as err:
        end.term(0.5)
    assert isinstance(err.value.__cause__, TypeError)


def test_robin_degenerate_combination_rejected():
    # left closure denominator a - 3 b nu / (2 dx) vanishes for a = 6, b = 1,
    # nu = 1, dx = 0.25
    bc = BoundaryCondition.robin(6.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="degenerate"):
        close_boundary(bc, Side.LEFT, np.array([0.0, 1.0, 2.0]),
                       t_next=0.0, nu=1.0, dx=0.25)


@pytest.mark.parametrize("side,mirror", [(Side.LEFT, 1.0), (Side.RIGHT, -1.0)])
def test_robin_closure_degeneracy_tolerance(side, mirror):
    # the denominator a -+ 3 b nu / (2 dx) is degenerate within 1e-12 of its
    # scale |a| + 6 = 12 (b = 1, nu = 1, dx = 0.25): a gap of about 1e-10 of
    # the scale builds a closure with finite coefficients, one of about
    # 1e-13 raises
    for gap in (1.2e-9, 1.2e-12):
        bc = BoundaryCondition.robin(mirror * (6.0 + gap), 1.0, 0.5)
        if gap < 1e-10:
            with pytest.raises(ValueError, match="degenerate robin closure"):
                closure(bc, side, 1.0, 0.25)
            continue
        end = closure(bc, side, 1.0, 0.25)
        assert all(math.isfinite(x) for x in (end.a1, end.a2, end.term(0.0)))
        assert abs(end.a1) > 1e9  # 8 / gap


def test_robin_closure_satisfies_its_equation():
    rng = np.random.default_rng(42)
    for side in (Side.LEFT, Side.RIGHT):
        a, b, phi = 1.3, -0.7, 0.25
        bc = BoundaryCondition.robin(a, b, phi)
        values = rng.standard_normal(6)
        nu, dx = 0.8, 0.1
        ub = close_boundary(bc, side, values, t_next=0.0, nu=nu, dx=dx)
        if side is Side.LEFT:
            deriv = (-3.0 * ub + 4.0 * values[1] - values[2]) / (2.0 * dx)
        else:
            deriv = (3.0 * ub - 4.0 * values[-2] + values[-3]) / (2.0 * dx)
        assert a * ub + b * nu * deriv == pytest.approx(phi, abs=1e-12)


def test_one_sided_derivative_is_second_order():
    # residual of (-3 u0 + 4 u1 - u2)/(2 dx) against u_x for u = sin shrinks
    # by about 4x per halving
    x0 = 0.3

    def residual(dx):
        approx = (-3.0 * math.sin(x0) + 4.0 * math.sin(x0 + dx)
                  - math.sin(x0 + 2.0 * dx)) / (2.0 * dx)
        return abs(approx - math.cos(x0))

    for dx in (0.1, 0.05, 0.025):
        factor = residual(dx) / residual(dx / 2.0)
        assert 3.5 <= factor <= 4.5


def test_closure_coefficients_reproduce_close_boundary():
    bc = BoundaryCondition.flux(0.4)
    values = np.array([0.0, 1.5, -2.0, 3.0])
    nu, dx, t = 0.9, 0.2, 1.0
    a1, a2, g = boundary_closure_coefficients(bc, Side.LEFT, t, nu, dx)
    direct = close_boundary(bc, Side.LEFT, values, t, nu, dx)
    assert a1 * values[1] + a2 * values[2] + g == pytest.approx(direct, rel=1e-14)


def test_field_max_norm():
    f = Field(values=np.array([1.0, -3.5, 2.0]), time_index=0)
    assert f.max_norm == 3.5
