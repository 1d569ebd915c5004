"""Each plan's advance gives the bits of the Python-float reference.

The plans bind their constant coefficients as 0-d float64 arrays and double
the middle node as ``mid + mid``.  Both take numpy's array-array path to the
same IEEE double as a Python-float coefficient and ``2.0 * mid``, so one
advance must equal, byte for byte, the reference below, which spells out
each scheme's arithmetic with Python-float coefficients.  So must each of
consecutive advances through one plan, which reads its own layers through
the views it bound and folds constant boundary data once.  The reference
shares only what works on single nodes or on matrices (``grid.closure``,
``schemes._fold``, ``tridiag.factored`` and ``dtbsv``); every operation it
makes on a layer is its own.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy.linalg.blas import dtbsv

from heatlab import (BCKind, BoundaryCondition, DiffusivityModel, Scheme,
                     SchemeParams, Side)
from heatlab.grid import closure
from heatlab.schemes import _fold, _plan
from heatlab.tridiag import factored

SCHEMES = [Scheme.EXPLICIT, Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL,
           Scheme.HYPERBOLIC, Scheme.SAULYEV, Scheme.CRANK_NICOLSON]
TWO_LAYER = (Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL, Scheme.HYPERBOLIC)

# signed zeros, the smallest and largest subnormals and the smallest normal
EDGE_VALUES = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
               -2.225073858507201e-308, 2.2250738585072014e-308]


def second_difference(u):
    d2 = 2.0 * u[1:-1]
    np.subtract(u[:-2], d2, out=d2)
    d2 += u[2:]
    return d2


def forward(u, r):
    d2 = second_difference(u)
    d2 *= r
    return np.add(u[1:-1], d2)


def explicit_interior(scheme, p, prev, u):
    r = p.diffusion_number_r
    if scheme is Scheme.EXPLICIT or (prev is None and scheme is not
                                     Scheme.HYPERBOLIC):
        return forward(u, r)
    if scheme is Scheme.LEAPFROG:
        d2 = second_difference(u)
        d2 *= 2.0 * r
        return np.add(prev[1:-1], d2)
    if scheme is Scheme.DUFORT_FRANKEL:
        lam = 2.0 * r
        a, b = (1.0 - lam) / (1.0 + lam), lam / (1.0 + lam)
        pair = np.add(u[2:], u[:-2])
        pair *= b
        return np.add(a * prev[1:-1], pair)
    tau, dt = p.tau, p.dt
    a = tau / dt ** 2 + 1.0 / (2.0 * dt)
    b = tau / dt ** 2 - 1.0 / (2.0 * dt)
    c = 2.0 * tau / dt ** 2
    diffusion = second_difference(u)
    diffusion *= p.nu
    diffusion /= p.dx ** 2
    if prev is None:
        diffusion *= dt ** 2 / (2.0 * tau)
        return np.add(u[1:-1], diffusion)
    new = c * u[1:-1]
    new -= b * prev[1:-1]
    new += diffusion
    return np.divide(new, a)


def saulyev_start(bc, end, side, a, c, base, t):
    a1, a2, term = end[:3]
    if bc.kind is BCKind.DIRICHLET:
        return term(t)
    n = len(base) - 1
    j1, j2, j3 = (1, 2, 3) if side is Side.LEFT else (n - 1, n - 2, n - 3)
    s1 = a * base[j1] + c * base[j2]
    s2 = a * base[j2] + c * base[j3] + c * s1
    return (a1 * s1 + a2 * s2 + term(t)) / (1.0 - a1 * c - a2 * c * c)


def reference(scheme, p, bcs, prev, u, time_index):
    """The layers of one step (a Saulyev pair, or one layer), with
    Python-float coefficients."""
    left, right = (closure(bcs[0], Side.LEFT, p.nu, p.dx),
                   closure(bcs[1], Side.RIGHT, p.nu, p.dx))
    t = (time_index + 1) * p.dt
    out = np.empty(len(u))
    if scheme is Scheme.SAULYEV:
        lam = p.diffusion_number_r
        a, c = (1.0 - lam) / (1.0 + lam), lam / (1.0 + lam)
        n = len(u) - 1
        band = np.full((2, n), -c, order="F")
        out[0] = saulyev_start(bcs[0], left, Side.LEFT, a, c, u, t)
        np.add(a * u[1:n], c * u[2:], out=out[1:n])
        dtbsv(1, band, out[:n], lower=1, diag=1, overwrite_x=1)
        right.put(out, right.term(t))
        t2 = (time_index + 2) * p.dt
        out2 = np.empty(n + 1)
        out2[n] = saulyev_start(bcs[1], right, Side.RIGHT, a, c, out, t2)
        np.add(a * out[1:n], c * out[:n - 1], out=out2[1:n])
        dtbsv(1, band, out2[1:], lower=0, diag=1, overwrite_x=1)
        left.put(out2, left.term(t2))
        return out, out2
    if scheme is Scheme.CRANK_NICOLSON:
        rho = 0.5 * (p.nu * p.dt / p.dx ** 2)
        out[1:-1] = forward(u, rho)
        rows = np.full(len(u) - 2, rho)
        solve = factored(_fold(rows, 1.0 + 2.0 * rows, (left, right)))
        gl, gr = left.term(t), right.term(t)
        out[1] += rho * gl
        out[-2] += rho * gr
        solve(out[1:-1])
        left.put(out, gl)
        right.put(out, gr)
        return (out,)
    out[1:-1] = explicit_interior(scheme, p, prev, u)
    left.put(out, left.term(t))
    right.put(out, right.term(t))
    return (out,)


def assert_same_bits(scheme, p, bcs, prev, u, time_index):
    # one advance per layer of the reference's step: a Saulyev pair is two
    advance = _plan(scheme, p, bcs, len(u))
    got = []
    for expected in reference(scheme, p, bcs, prev, u, time_index):
        prev, u = u, advance(prev, u, time_index + len(got))
        assert u.tobytes() == expected.tobytes()
        got.append(u)
    return got


@st.composite
def end_condition(draw, side: int):
    # Robin b points outwards, so no closure denominator can vanish
    kind = draw(st.sampled_from(("dirichlet", "flux", "robin")))
    phi = draw(st.floats(-1.0, 1.0))
    if kind == "dirichlet":
        return BoundaryCondition.dirichlet(phi)
    if kind == "flux":
        return BoundaryCondition.flux(phi)
    return BoundaryCondition.robin(draw(st.floats(0.5, 2.0)),
                                   side * draw(st.floats(0.5, 2.0)), phi)


def layers(size: int):
    return hnp.arrays(float, size, elements=st.one_of(
        st.sampled_from(EDGE_VALUES),
        st.floats(-1e150, 1e150, allow_nan=False, allow_infinity=False)))


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@settings(max_examples=40, deadline=None)
@given(data=st.data(), cells=st.integers(3, 40), r=st.floats(0.01, 5.0),
       nu=st.floats(0.1, 4.0), time_index=st.integers(0, 10),
       ends=st.tuples(end_condition(-1), end_condition(1)))
def test_one_advance_equals_the_python_float_reference(scheme, data, cells, r,
                                                       nu, time_index, ends):
    dx = 1.0 / cells
    p = SchemeParams(DiffusivityModel.constant(nu), dt=r * dx ** 2 / nu, dx=dx)
    u = data.draw(layers(cells + 1), label="u")
    prev = (data.draw(st.one_of(st.none(), layers(cells + 1)), label="prev")
            if scheme in TWO_LAYER else None)
    assert_same_bits(scheme, p, ends, prev, u, time_index)


@pytest.mark.parametrize("scheme", [Scheme.EXPLICIT, Scheme.LEAPFROG,
                                    Scheme.DUFORT_FRANKEL, Scheme.HYPERBOLIC],
                         ids=lambda s: s.value)
def test_overflow_near_the_largest_double_gives_the_same_infinities(scheme):
    # doubling 1e308 overflows in the second difference, and adding two does
    # in the Dufort-Frankel pair, so the new interior holds infinities
    u = np.full(9, 1e308)
    u[[0, -1]] = 0.0
    p = SchemeParams(DiffusivityModel.constant(1.0), dt=0.4 / 64, dx=1 / 8)
    zero = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(0.0))
    # the hyperbolic Taylor start: with a previous layer, c u - b prev is NaN
    prev = None if scheme is Scheme.HYPERBOLIC else u.copy()
    with np.errstate(over="ignore"):
        (layer,) = assert_same_bits(scheme, p, zero, prev, u, 0)
    assert np.isinf(layer).any() and not np.isnan(layer).any()


@pytest.mark.parametrize("scheme", SCHEMES, ids=lambda s: s.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), cells=st.integers(3, 40), r=st.floats(0.01, 5.0),
       nu=st.floats(0.1, 4.0), time_index=st.integers(0, 10),
       ends=st.tuples(end_condition(-1), end_condition(1)))
def test_consecutive_advances_equal_the_reference_applied_in_turn(
        scheme, data, cells, r, nu, time_index, ends):
    # one plan fed its own layers, as a run feeds them, reads them through
    # its ring's bound views: three steps (a Saulyev step is two advances)
    # give the reference's bits, and the last two layers stay intact
    # through each advance
    dx = 1.0 / cells
    p = SchemeParams(DiffusivityModel.constant(nu), dt=r * dx ** 2 / nu, dx=dx)
    u = data.draw(layers(cells + 1), label="u")
    prev = (data.draw(st.one_of(st.none(), layers(cells + 1)), label="prev")
            if scheme in TWO_LAYER else None)
    advance = _plan(scheme, p, ends, len(u))
    got_prev, got_u, want_prev, want_u = prev, u, prev, u
    for _ in range(3):
        for want in reference(scheme, p, ends, want_prev, want_u, time_index):
            got = advance(got_prev, got_u, time_index)
            assert got.tobytes() == want.tobytes()
            if got_prev is not None:  # the last two layers, unchanged
                assert got_prev.tobytes() == want_prev.tobytes()
            assert got_u.tobytes() == want_u.tobytes()
            got_prev, got_u, want_prev, want_u = got_u, got, want_u, want
            time_index += 1
