import math
import re

import numpy as np
import pytest

from heatlab import (SineSeriesSolution, evaluate_series, fundamental_solution,
                     hyperbolic_mode_solution)


def test_fundamental_solution_peak_value():
    # sqrt(4 pi nu t) = 1 at nu = 1, t = 1/(4 pi)
    assert fundamental_solution(0.0, 1.0 / (4.0 * math.pi), 1.0) == \
        pytest.approx(1.0, rel=1e-14)


def test_fundamental_solution_even_in_x():
    rng = np.random.default_rng(4)
    for _ in range(10):
        x = float(rng.uniform(-3.0, 3.0))
        t = float(rng.uniform(0.01, 2.0))
        nu = float(rng.uniform(0.1, 3.0))
        assert fundamental_solution(x, t, nu) == fundamental_solution(-x, t, nu)


def test_fundamental_solution_unit_mass():
    # midpoint quadrature over +-20 sqrt(nu t) with 1e5 points
    nu, t = 0.7, 0.3
    half_width = 20.0 * math.sqrt(nu * t)
    edges = np.linspace(-half_width, half_width, 100001)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = edges[1] - edges[0]
    mass = h * sum(fundamental_solution(x, t, nu) for x in mids)
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_fundamental_solution_rejects_nonpositive_time():
    with pytest.raises(ValueError):
        fundamental_solution(0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        fundamental_solution(0.0, -1.0, 1.0)


def test_series_vanishes_at_left_end():
    sol = SineSeriesSolution(length_l=2.0, nu=0.5,
                             modes=((1, 1.0), (3, -0.2)))
    for t in (0.0, 0.5, 2.0):
        assert evaluate_series(sol, 0.0, t) == 0.0


def test_series_single_mode_values():
    sol = SineSeriesSolution.single_mode(1.0, 1.0, 1)
    assert evaluate_series(sol, 0.5, 0.0) == pytest.approx(1.0, rel=1e-15)

    sol = SineSeriesSolution.single_mode(math.pi, 1.0, 1)
    assert evaluate_series(sol, math.pi / 2.0, 1.0) == \
        pytest.approx(math.exp(-1.0), rel=1e-14)


def test_series_satisfies_heat_equation_by_finite_differences():
    sol = SineSeriesSolution(length_l=math.pi, nu=1.0,
                             modes=((1, 1.0), (2, 0.4)))
    h = 1e-4
    for (x, t) in ((1.0, 0.3), (2.2, 0.7)):
        ut = (evaluate_series(sol, x, t + h) - evaluate_series(sol, x, t - h)) / (2 * h)
        uxx = (evaluate_series(sol, x + h, t) - 2 * evaluate_series(sol, x, t)
               + evaluate_series(sol, x - h, t)) / h ** 2
        assert abs(ut - 1.0 * uxx) <= 1e-8 * (1.0 + abs(uxx))


def test_series_validation():
    with pytest.raises(ValueError):
        SineSeriesSolution(length_l=0.0, nu=1.0, modes=((1, 1.0),))
    with pytest.raises(ValueError):
        SineSeriesSolution(length_l=1.0, nu=1.0, modes=((0, 1.0),))


@pytest.mark.parametrize("call,message", [
    (lambda: SineSeriesSolution(math.nan, 1.0, ((1, 1.0),)),
     "domain length must be positive"),
    (lambda: SineSeriesSolution(1.0, math.inf, ((1, 1.0),)),
     "diffusivity must be positive"),
    (lambda: hyperbolic_mode_solution(math.nan, 0.01, 1.0, 1, 0.5, 0.3),
     "need nu > 0, length_l > 0 and m >= 1"),
    (lambda: hyperbolic_mode_solution(1.0, math.inf, 1.0, 1, 0.5, 0.3),
     "relaxation time must be positive, got inf"),
    (lambda: hyperbolic_mode_solution(1.0, 0.01, math.inf, 1, 0.5, 0.3),
     "need nu > 0, length_l > 0 and m >= 1"),
    (lambda: fundamental_solution(0.1, math.nan, 1.0),
     "fundamental solution needs t > 0, got nan"),
    (lambda: fundamental_solution(0.1, 1.0, math.inf),
     "diffusivity must be positive, got inf"),
], ids=["series-length-nan", "series-nu-inf", "mode-nu-nan", "mode-tau-inf",
        "mode-length-inf", "kernel-t-nan", "kernel-nu-inf"])
def test_oracles_reject_non_finite_parameters(call, message):
    # before, these built, returned nan or returned 0.0
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call,message", [
    (lambda: SineSeriesSolution(1.0, 1.0, ((1.5, 1.0),)),
     "mode index must be an integer >= 1, got 1.5"),
    (lambda: SineSeriesSolution(1.0, 1.0, ((1, 1.0), (2.0, 0.5))),
     "mode index must be an integer >= 1, got 2.0"),
    (lambda: SineSeriesSolution(1.0, 1.0, ((True, 1.0),)),
     "mode index must be an integer >= 1, got True"),
    (lambda: hyperbolic_mode_solution(1.0, 0.01, 1.0, 1.5, 0.0, 1.0),
     "mode index must be an integer, got 1.5"),
    (lambda: hyperbolic_mode_solution(1.0, 0.01, 1.0, np.float64(2.0), 0.0, 1.0),
     "mode index must be an integer, got 2.0"),
    (lambda: hyperbolic_mode_solution(1.0, 0.01, 1.0, True, 0.0, 1.0),
     "mode index must be an integer, got True"),
], ids=["series-half", "series-float", "series-bool", "mode-half",
        "mode-float", "mode-bool"])
def test_oracles_refuse_a_mode_that_is_not_an_integer(call, message):
    # a mode that is not an integer breaks the homogeneous Dirichlet end:
    # m = 1.5 gives u(l, 0) = sin(1.5 pi) = -1
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()


def test_hyperbolic_mode_initial_data():
    for x in (0.4, 1.0, 2.0):
        assert hyperbolic_mode_solution(1.0, 0.05, math.pi, 1, 0.0, x) == \
            pytest.approx(math.sin(x), rel=1e-14)
    # boundary stays pinned
    for t in (0.0, 0.3, 1.5):
        assert hyperbolic_mode_solution(1.0, 0.05, math.pi, 1, t, 0.0) == 0.0


def test_hyperbolic_mode_starts_at_rest():
    h = 1e-6
    v0 = (hyperbolic_mode_solution(1.0, 0.05, math.pi, 1, h, 1.0)
          - hyperbolic_mode_solution(1.0, 0.05, math.pi, 1, 0.0, 1.0)) / h
    assert abs(v0) <= 1e-4


def test_hyperbolic_mode_satisfies_relaxed_equation():
    nu, tau = 1.0, 0.05
    h = 1e-4
    x0, t0 = 1.0, 0.3

    def u(x, t):
        return hyperbolic_mode_solution(nu, tau, math.pi, 1, t, x)

    utt = (u(x0, t0 + h) - 2 * u(x0, t0) + u(x0, t0 - h)) / h ** 2
    ut = (u(x0, t0 + h) - u(x0, t0 - h)) / (2 * h)
    uxx = (u(x0 + h, t0) - 2 * u(x0, t0) + u(x0 - h, t0)) / h ** 2
    assert abs(tau * utt + ut - nu * uxx) <= 1e-7


def test_hyperbolic_mode_approaches_diffusion_for_small_tau():
    sol = SineSeriesSolution.single_mode(math.pi, 1.0, 1)
    tau = 1e-4
    for t in (0.5, 1.0):
        hyp = hyperbolic_mode_solution(1.0, tau, math.pi, 1, t, math.pi / 2.0)
        par = evaluate_series(sol, math.pi / 2.0, t)
        assert abs(hyp - par) <= 5.0 * tau


def test_hyperbolic_mode_double_root_case():
    # 4 tau nu k^2 = 1 (tau = 0.25, nu = k = 1): factor (1 - s t) e^{s t}
    # with s = -2
    t = 0.5
    expected = (1.0 + 2.0 * t) * math.exp(-2.0 * t) * math.sin(math.pi / 2.0)
    got = hyperbolic_mode_solution(1.0, 0.25, math.pi, 1, t, math.pi / 2.0)
    assert got == pytest.approx(expected, rel=1e-12)


def test_hyperbolic_mode_oscillatory_regime_is_real():
    # 4 tau nu k^2 > 1: complex conjugate roots must still give a real value
    value = hyperbolic_mode_solution(1.0, 2.0, math.pi, 2, 0.7, 1.0)
    assert isinstance(value, float)
    assert abs(value) < 1.0


def test_hyperbolic_mode_rejects_bad_parameters():
    with pytest.raises(ValueError):
        hyperbolic_mode_solution(1.0, 0.0, math.pi, 1, 0.1, 1.0)
    with pytest.raises(ValueError):
        hyperbolic_mode_solution(1.0, 0.1, math.pi, 0, 0.1, 1.0)


# ------------------------------------------------ array calls vs scalar calls

XS = np.linspace(0.0, math.pi, 37)
TS = np.linspace(0.0, 1.5, 11)


@pytest.mark.parametrize("tau,m", [(0.05, 1), (0.25, 1), (2.0, 2), (0.3, 3)],
                         ids=["overdamped", "double-root", "oscillatory",
                              "oscillatory-fast"])
def test_hyperbolic_mode_arrays_equal_scalar_calls(tau, m):
    row = hyperbolic_mode_solution(1.0, tau, math.pi, m, 0.7, XS)
    assert row.shape == XS.shape
    for x, value in zip(XS, row):
        assert value == hyperbolic_mode_solution(1.0, tau, math.pi, m, 0.7,
                                                 float(x))
    block = hyperbolic_mode_solution(1.0, tau, math.pi, m, TS[:, None], XS)
    assert block.shape == (len(TS), len(XS))
    for i, t in enumerate(TS):
        for j, x in enumerate(XS):
            assert block[i, j] == hyperbolic_mode_solution(
                1.0, tau, math.pi, m, float(t), float(x))


def test_series_on_x_array_equals_scalar_calls():
    sol = SineSeriesSolution(length_l=math.pi, nu=0.7,
                             modes=((1, 1.0), (2, -0.3), (5, 0.05)))
    for t in (0.0, 0.3, 1.1):
        values = evaluate_series(sol, XS, t)
        assert values.shape == XS.shape
        for x, value in zip(XS, values):
            assert value == evaluate_series(sol, float(x), t)
    block = evaluate_series(sol, XS, TS[:, None])
    assert block.shape == (len(TS), len(XS))
    assert all(block[i, j] == evaluate_series(sol, float(x), float(t))
               for i, t in enumerate(TS) for j, x in enumerate(XS))


def test_series_without_modes_returns_zeros_of_x_shape():
    sol = SineSeriesSolution(length_l=1.0, nu=1.0, modes=())
    values = evaluate_series(sol, XS, 0.3)
    assert isinstance(values, np.ndarray)
    assert values.shape == XS.shape
    assert not values.any()
