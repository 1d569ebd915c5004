"""Exact solutions that the schemes must reproduce to rounding.

Both oracles are quadratic in x, so the three-point stencil and the
one-sided three-point closures carry no space error on them, and the time
dependence is simple enough that a scheme's time error shows alone:

* heat:  u = A + C x + B x^2 + 2 nu B t solves u_t = nu u_xx and is affine
  in t, so every consistent two-level scheme reproduces it exactly, with
  Dirichlet, flux and Robin ends fed the oracle's own (time-dependent) data;
* affine k:  u = -a/b + (w0/b + B0 x^2) / (1 - 2 b B0 t) solves
  u_t = (a + b u) u_xx, since span{1, x^2} is invariant under that operator
  (Galaktionov & Svirshchevskii, *Exact Solutions and Invariant Subspaces of
  Nonlinear PDEs*, 2007).  The cross-weighted trapezoid solves its
  amplitude equation B' = 2 b B^2 exactly (1/B falls by 2 b dt a step), so
  ``ccn`` reproduces it; ``cn_nonlinear`` converges at order 2 and the
  explicit scheme at order 1.
"""

import math

import numpy as np
import pytest

from heatlab import (BoundaryCondition, DiffusivityModel, Field, Scheme,
                     SchemeParams, build_uniform_grid, run_simulation)

NU, A, B, C = 0.7, 1.3, 0.5, -0.3


def heat(x, t):
    return A + C * x + B * x * x + 2.0 * NU * B * t


def heat_end(kind, x_end):
    """The end condition at ``x_end`` that ``heat`` satisfies, as data in t."""
    slope = C + 2.0 * B * x_end  # u_x there, constant in t
    if kind == "D":
        return BoundaryCondition.dirichlet(lambda t: heat(x_end, t))
    if kind == "F":
        return BoundaryCondition.flux(NU * slope)
    # a u + b nu u_x = g with b / a < 0 on the left and > 0 on the right
    # takes heat out at both ends; the other sign makes a growing mode,
    # which amplifies rounding as the PDE itself would
    a, b = 2.0, (0.5 if x_end else -0.5)
    return BoundaryCondition.robin(
        a, b, lambda t: a * heat(x_end, t) + b * NU * slope)


# explicit at r = 0.4; leap-frog amplifies rounding, so it runs a few steps
HEAT_RUNS = {Scheme.EXPLICIT: (0.4, 40), Scheme.LEAPFROG: (0.4, 6)}


@pytest.mark.parametrize("ends", ["DD", "FF", "RR", "RF"])
@pytest.mark.parametrize("scheme", [
    Scheme.EXPLICIT, Scheme.IMPLICIT, Scheme.CRANK_NICOLSON, Scheme.LEAPFROG,
    Scheme.DUFORT_FRANKEL, Scheme.SAULYEV, Scheme.CN_NONLINEAR,
    Scheme.CROSS_CN], ids=lambda s: s.value)
def test_heat_oracle_reproduced_to_rounding(scheme, ends):
    grid = build_uniform_grid(1.0, 16)
    r, steps = HEAT_RUNS.get(scheme, (2.0, 40))
    p = SchemeParams(DiffusivityModel.constant(NU), dt=r * grid.dx ** 2 / NU,
                     dx=grid.dx)
    bcs = (heat_end(ends[0], 0.0), heat_end(ends[1], 1.0))
    record = run_simulation(Field(heat(grid.nodes, 0.0), 0), p, bcs, scheme,
                            steps, snapshot_every=5)
    assert not record.diverged
    for snap in record.snapshots:
        exact = heat(grid.nodes, snap.time_index * p.dt)
        error = np.max(np.abs(snap.values - exact)) / np.max(np.abs(exact))
        assert error <= 1e-13, (snap.time_index, error)


KA, KB, B0, W0 = 1.0, 0.5, -0.5, 1.5  # k = 1 + u/2 on [0, 1], T = 0.5


def affine(x, t):
    return -KA / KB + (W0 / KB + B0 * x * x) / (1.0 - 2.0 * KB * B0 * t)


def affine_error(scheme, model, steps, horizon=0.5):
    """Max relative error against ``affine`` over the run's snapshots."""
    grid = build_uniform_grid(1.0, 16)
    bcs = tuple(BoundaryCondition.dirichlet(lambda t, x=x: affine(x, t))
                for x in (0.0, 1.0))
    p = SchemeParams(model, dt=horizon / steps, dx=grid.dx)
    record = run_simulation(Field(affine(grid.nodes, 0.0), 0), p, bcs, scheme,
                            steps, snapshot_every=max(1, steps // 8))
    assert not record.diverged and record.final.time_index == steps
    return max(np.max(np.abs(snap.values - exact)) / np.max(np.abs(exact))
               for snap in record.snapshots
               for exact in [affine(grid.nodes, snap.time_index * p.dt)])


@pytest.mark.parametrize("model", [
    DiffusivityModel.affine(KA, KB),
    DiffusivityModel.general(lambda u: KA + KB * u)], ids=["affine", "callable"])
def test_ccn_reproduces_the_affine_k_oracle(model):
    assert affine_error(Scheme.CROSS_CN, model, 16) <= 1e-13


@pytest.mark.parametrize("scheme,steps,orders", [
    (Scheme.CN_NONLINEAR, (8, 16, 32, 64, 128), (1.9, 2.1)),
    (Scheme.EXPLICIT, (400, 800, 1600), (0.9, 1.1)),
], ids=["cn_nonlinear", "explicit"])
def test_time_order_on_the_affine_k_oracle(scheme, steps, orders):
    model = DiffusivityModel.affine(KA, KB)
    errors = [affine_error(scheme, model, n) for n in steps]
    measured = [math.log2(coarse / fine)
                for coarse, fine in zip(errors, errors[1:])]
    assert all(orders[0] <= order <= orders[1] for order in measured), (
        errors, measured)
