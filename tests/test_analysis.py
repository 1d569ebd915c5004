import math
import re

import numpy as np
import pytest

from heatlab import (BoundaryCondition, DiffusivityModel, Field, RunRecord,
                     Scheme, SchemeParams, SineSeriesSolution,
                     UndefinedGrowthError, amplification, build_uniform_grid,
                     dispersion_branches, empirical_growth, evaluate_series,
                     hyperbolic_mode_solution, hyperbolization_error_bound,
                     information_speed, max_amplification, observed_order,
                     run_simulation, truncation_residual)

HOMOGENEOUS = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(0.0))


def constant_params(nu, dt, dx, tau=None):
    return SchemeParams(DiffusivityModel.constant(nu), dt=dt, dx=dx, tau=tau)


# -------------------------------------------------------------- amplification

def test_explicit_amplification_at_cfl_boundary():
    res = amplification(Scheme.EXPLICIT, 0.5, math.pi)
    assert res.roots[0] == pytest.approx(-1.0, abs=1e-15)
    assert res.max_modulus == pytest.approx(1.0, abs=1e-15)


def test_constant_mode_is_neutral_for_every_scheme():
    hyp = constant_params(1.0, dt=0.01, dx=0.1, tau=0.05)
    for scheme in (Scheme.EXPLICIT, Scheme.IMPLICIT, Scheme.CRANK_NICOLSON,
                   Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL):
        for r in (0.1, 1.0, 25.0):
            res = amplification(scheme, r, 0.0)
            assert any(abs(g - 1.0) <= 1e-12 for g in res.roots)
    res = amplification(Scheme.HYPERBOLIC, None, 0.0, params=hyp)
    assert any(abs(g - 1.0) <= 1e-12 for g in res.roots)


def test_leapfrog_roots_from_characteristic_polynomial():
    # roots of g^2 + 8 r s g - 1 = 0 at r = 0.1, s = 1:
    # g = -0.4 +- sqrt(1.16)
    res = amplification(Scheme.LEAPFROG, 0.1, math.pi)
    expected = sorted([-0.4 - math.sqrt(1.16), -0.4 + math.sqrt(1.16)])
    got = sorted(g.real for g in res.roots)
    np.testing.assert_allclose(got, expected, rtol=1e-14)
    assert res.max_modulus == pytest.approx(0.4 + math.sqrt(1.16), rel=1e-14)
    assert res.max_modulus > 1.0


@pytest.mark.parametrize("scheme,r,theta,coeffs", [
    # (a, b, c) of a g^2 + b g + c = 0, checked against numpy.roots
    (Scheme.LEAPFROG, 0.37, 2.1, None),
    (Scheme.DUFORT_FRANKEL, 1.7, 2.9, None),
])
def test_two_layer_roots_match_numpy_roots_oracle(scheme, r, theta, coeffs):
    s = math.sin(theta / 2.0) ** 2
    if scheme is Scheme.LEAPFROG:
        poly = [1.0, 8.0 * r * s, -1.0]
    else:
        w = 2.0 * r
        poly = [1.0 + w, -2.0 * w * math.cos(theta), -(1.0 - w)]
    expected = sorted(np.roots(poly), key=lambda z: (z.real, z.imag))
    got = sorted(amplification(scheme, r, theta).roots,
                 key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_hyperbolic_roots_match_numpy_roots_oracle():
    p = constant_params(0.7, dt=0.003, dx=0.05, tau=0.02)
    theta = 1.3
    s = math.sin(theta / 2.0) ** 2
    a = p.tau / p.dt ** 2 + 1.0 / (2.0 * p.dt)
    b = p.tau / p.dt ** 2 - 1.0 / (2.0 * p.dt)
    mid = 2.0 * p.tau / p.dt ** 2 - 4.0 * p.nu * s / p.dx ** 2
    expected = sorted(np.roots([a, -mid, b]), key=lambda z: (z.real, z.imag))
    got = sorted(amplification(Scheme.HYPERBOLIC, None, theta, params=p).roots,
                 key=lambda z: (z.real, z.imag))
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_amplification_rejects_bad_input():
    with pytest.raises(ValueError):
        amplification(Scheme.SAULYEV, 1.0, 0.5)
    with pytest.raises(ValueError):
        amplification(Scheme.CN_NONLINEAR, 1.0, 0.5)
    with pytest.raises(ValueError):
        amplification(Scheme.EXPLICIT, -1.0, 0.5)
    with pytest.raises(ValueError, match="r must be positive, got inf"):
        amplification(Scheme.EXPLICIT, math.inf, 0.5)
    with pytest.raises(ValueError):
        amplification(Scheme.EXPLICIT, 1.0, 4.0)
    with pytest.raises(ValueError):
        amplification(Scheme.HYPERBOLIC, None, 0.5)
    with pytest.raises(ValueError,
                       match="^hyperbolic amplification needs tau > 0$"):
        amplification(Scheme.HYPERBOLIC, None, 0.5,
                      params=constant_params(1.0, dt=0.1, dx=0.5, tau=0.0))


@pytest.mark.parametrize("r", [0.1, 1.0, 10.0, 100.0])
def test_implicit_cn_df_unconditionally_stable_symbols(r):
    for scheme in (Scheme.IMPLICIT, Scheme.CRANK_NICOLSON,
                   Scheme.DUFORT_FRANKEL):
        assert max_amplification(scheme, r) <= 1.0 + 1e-12


@pytest.mark.parametrize("r", [1e-3, 1e-2, 0.1, 0.5])
def test_leapfrog_unconditionally_unstable_symbol(r):
    assert max_amplification(Scheme.LEAPFROG, r) > 1.0


def test_explicit_max_amplification_above_cfl():
    assert max_amplification(Scheme.EXPLICIT, 0.75) == pytest.approx(2.0, abs=1e-12)


def test_max_amplification_needs_two_samples():
    for samples in (1, 2.5, 3.0, True):
        with pytest.raises(ValueError, match="^need at least 2 theta samples"):
            max_amplification(Scheme.EXPLICIT, 0.5, theta_samples=samples)


def test_hyperbolic_stability_boundary_symbol():
    grid = build_uniform_grid(1.0, 64)
    nu = 1.0
    tau = nu * grid.dx
    limit = grid.dx * math.sqrt(tau / nu)
    inside = constant_params(nu, dt=0.95 * limit, dx=grid.dx, tau=tau)
    at = constant_params(nu, dt=limit, dx=grid.dx, tau=tau)
    outside = constant_params(nu, dt=1.05 * limit, dx=grid.dx, tau=tau)
    assert max_amplification(Scheme.HYPERBOLIC, params=inside) <= 1.0 + 1e-12
    assert max_amplification(Scheme.HYPERBOLIC, params=at) <= 1.0 + 1e-12
    assert max_amplification(Scheme.HYPERBOLIC, params=outside) > 1.0


# the r values of the benchmark's stability sweep
SWEEP_R = (0.05, 0.1, 0.2, 0.25, 0.3, 0.4, 0.45, 0.5, 0.55, 0.75, 1, 2, 5, 10, 20)
SYMBOL_SCHEMES = (Scheme.EXPLICIT, Scheme.IMPLICIT, Scheme.CRANK_NICOLSON,
                  Scheme.LEAPFROG, Scheme.DUFORT_FRANKEL)


def assert_array_matches_scalar_calls(scheme, r, params=None):
    thetas = np.linspace(0.0, math.pi, 721)
    res = amplification(scheme, r, thetas, params)
    assert res.max_modulus.shape == thetas.shape
    assert all(g.shape == thetas.shape for g in res.roots)
    for j, theta in enumerate(thetas):
        one = amplification(scheme, r, float(theta), params)
        assert len(one.roots) == len(res.roots)
        assert all(g[j] == g1 for g, g1 in zip(res.roots, one.roots))
        assert res.max_modulus[j] == one.max_modulus


@pytest.mark.parametrize("scheme", SYMBOL_SCHEMES, ids=lambda s: s.value)
def test_amplification_on_theta_array_equals_scalar_calls(scheme):
    for r in SWEEP_R:
        assert_array_matches_scalar_calls(scheme, r)


@pytest.mark.parametrize("scheme", SYMBOL_SCHEMES, ids=lambda s: s.value)
def test_max_amplification_over_an_r_sequence_equals_one_call_per_r(scheme):
    # r as a column evaluates the symbol once for every r, to the same bits
    maxima = max_amplification(scheme, SWEEP_R)
    assert [float.hex(m) for m in maxima] == [
        float.hex(max_amplification(scheme, r)) for r in SWEEP_R]
    grid = amplification(scheme, np.reshape(SWEEP_R, (-1, 1)), np.zeros(3))
    assert grid.max_modulus.shape == (len(SWEEP_R), 3)
    with pytest.raises(ValueError, match="r must be positive, got -1.0$"):
        max_amplification(scheme, [0.5, -1.0, math.nan])


@pytest.mark.parametrize("factor", [0.95, 1.0, 1.05])
def test_hyperbolic_amplification_on_theta_array_equals_scalar_calls(factor):
    # inside, at and beyond the limit dt = dx sqrt(tau / nu)
    grid = build_uniform_grid(1.0, 64)
    tau = grid.dx
    params = constant_params(1.0, dt=factor * grid.dx * math.sqrt(tau),
                             dx=grid.dx, tau=tau)
    assert_array_matches_scalar_calls(Scheme.HYPERBOLIC, None, params)


def test_amplification_names_first_out_of_range_theta_in_array():
    thetas = np.array([0.0, 1.0, 3.5, -0.25, 4.0])
    with pytest.raises(ValueError, match=r"got 3\.5$"):
        amplification(Scheme.EXPLICIT, 0.5, thetas)


# ---------------------------------------------------------- empirical growth

def test_empirical_growth_of_steady_run():
    bcs = (BoundaryCondition.dirichlet(2.0), BoundaryCondition.dirichlet(2.0))
    p = constant_params(1.0, dt=0.001, dx=0.25)
    initial = Field(values=np.full(5, 2.0), time_index=0)
    record = run_simulation(initial, p, bcs, Scheme.EXPLICIT, 50)
    assert empirical_growth(record, 10) == pytest.approx(1.0, abs=1e-12)


def test_empirical_growth_matches_nyquist_rate_beyond_cfl():
    n = 64
    grid = build_uniform_grid(1.0, n)
    r = 0.6
    p = constant_params(1.0, dt=r * grid.dx ** 2, dx=grid.dx)
    j = np.arange(n + 1)
    mode = np.sin((n - 1) * math.pi * j / n)  # roughest discrete mode
    record = run_simulation(Field(mode, 0), p, HOMOGENEOUS, Scheme.EXPLICIT, 60)
    growth = empirical_growth(record, 20)
    assert growth == pytest.approx(1.4, abs=0.05)


def test_empirical_growth_of_decaying_sine():
    grid = build_uniform_grid(1.0, 32)
    p = constant_params(1.0, dt=0.3 * grid.dx ** 2, dx=grid.dx)
    record = run_simulation(Field(np.sin(np.pi * grid.nodes), 0), p,
                            HOMOGENEOUS, Scheme.EXPLICIT, 100)
    assert empirical_growth(record, 10) < 1.0


def test_empirical_growth_errors():
    p = constant_params(1.0, dt=0.001, dx=0.25)
    zero = Field(values=np.zeros(5), time_index=0)
    record = run_simulation(zero, p, HOMOGENEOUS, Scheme.EXPLICIT, 10)
    with pytest.raises(UndefinedGrowthError):
        empirical_growth(record, 5)
    with pytest.raises(ValueError):
        empirical_growth(record, 100)
    for window in (0, 1.5, 2.0, True):
        with pytest.raises(ValueError, match="^window must be >= 1"):
            empirical_growth(record, window)
    one = Field(values=np.ones(5), time_index=0)
    blown = RunRecord()
    blown.append(one)
    blown.append(Field(values=np.full(5, np.inf), time_index=1))
    with pytest.raises(UndefinedGrowthError, match="non-finite norms"):
        empirical_growth(blown, 1)
    repeated = RunRecord()
    repeated.append(one)
    repeated.append(one)
    with pytest.raises(ValueError, match="^window spans no time steps$"):
        empirical_growth(repeated, 1)


def test_symbol_matches_simulation_within_one_percent():
    # a pure discrete sine mode decays per step exactly like |g(theta_mode)|
    n = 32
    grid = build_uniform_grid(1.0, n)
    mode = 5
    theta = mode * math.pi / n
    values = np.sin(mode * math.pi * np.arange(n + 1) / n)
    for scheme, r in ((Scheme.EXPLICIT, 0.3), (Scheme.IMPLICIT, 2.0),
                      (Scheme.CRANK_NICOLSON, 1.0)):
        p = constant_params(1.0, dt=r * grid.dx ** 2, dx=grid.dx)
        record = run_simulation(Field(values.copy(), 0), p, HOMOGENEOUS,
                                scheme, 20)
        growth = empirical_growth(record, 20)
        symbol = amplification(scheme, r, theta).max_modulus
        assert abs(growth - symbol) / symbol <= 0.01


# ------------------------------------------------------------ observed order

def test_observed_order_constructed_data():
    errors = [(h, h * h) for h in (0.1, 0.05, 0.025)]
    assert observed_order(errors) == pytest.approx(2.0, abs=1e-12)
    assert observed_order([(0.2, 0.2), (0.1, 0.1)]) == pytest.approx(1.0, abs=1e-12)


def test_observed_order_rejects_degenerate_input():
    with pytest.raises(ValueError):
        observed_order([(0.1, 0.01)])
    with pytest.raises(ValueError):
        observed_order([(0.1, 0.01), (0.1, 0.01)])
    with pytest.raises(ValueError):
        observed_order([(0.05, 0.01), (0.1, 0.01)])
    with pytest.raises(ValueError):
        observed_order([(0.1, 0.0), (0.05, -1.0)])


# --------------------------------------------------------- information speed

def make_dirac_record(scheme, n, r, steps):
    grid = build_uniform_grid(1.0, n)
    p = constant_params(1.0, dt=r * grid.dx ** 2, dx=grid.dx)
    values = np.zeros(n + 1)
    values[n // 2] = 1.0
    return run_simulation(Field(values, 0), p, HOMOGENEOUS, scheme, steps)


def test_information_speed_zero_steps():
    record = make_dirac_record(Scheme.EXPLICIT, 16, 0.5, 0)
    assert information_speed(record, source=8) == [0]


def test_information_speed_explicit_one_cell_per_step():
    record = make_dirac_record(Scheme.EXPLICIT, 32, 0.5, 3)
    assert information_speed(record, source=16) == [0, 1, 2, 3]


def test_information_speed_implicit_instant_spread():
    record = make_dirac_record(Scheme.IMPLICIT, 50, 1.0, 1)
    radii = information_speed(record, source=25)
    assert radii[1] == 24  # every interior node of the 51-node grid is lit

    # dense oracle: one implicit step is a strictly positive solve
    n, r = 50, 1.0
    a = np.zeros((n - 1, n - 1))
    for i in range(n - 1):
        a[i, i] = 1.0 + 2.0 * r
        if i > 0:
            a[i, i - 1] = -r
        if i < n - 2:
            a[i, i + 1] = -r
    rhs = np.zeros(n - 1)
    rhs[n // 2 - 1] = 1.0
    dense = np.linalg.solve(a, rhs)
    assert np.all(dense > 0.0)
    np.testing.assert_allclose(record.snapshots[1].values[1:-1], dense,
                               rtol=1e-12)


def test_information_speed_rejects_empty_record():
    with pytest.raises(ValueError, match="^record has no snapshots$"):
        information_speed(RunRecord(), source=0)


def test_information_speed_explicit_source_on_sine_field():
    # interior nodes 1..15 are lit and the Dirichlet endpoints stay zero
    grid = build_uniform_grid(1.0, 16)
    p = constant_params(1.0, dt=0.3 * grid.dx ** 2, dx=grid.dx)
    record = run_simulation(Field(np.sin(np.pi * grid.nodes), 0), p,
                            HOMOGENEOUS, Scheme.EXPLICIT, 2)
    assert information_speed(record, source=8) == [7, 7, 7]
    assert information_speed(record, source=2) == [13, 13, 13]
    assert information_speed(record, source=16) == [15, 15, 15]


@pytest.mark.parametrize("bcs", [
    (BoundaryCondition.flux(0.0), BoundaryCondition.flux(0.0)),
    (BoundaryCondition.robin(1.0, 0.5, 0.0), BoundaryCondition.robin(1.0, 0.5, 0.0)),
], ids=["flux", "robin"])
def test_information_speed_leaves_the_end_nodes_out(bcs):
    # a flux or Robin closure writes its end node from the two nodes next to
    # it, so the end lights two steps before the front arrives; only the
    # interior nodes 1..49 count, and the front reaches them at step 24
    grid = build_uniform_grid(1.0, 50)
    p = constant_params(1.0, dt=0.5 * grid.dx ** 2, dx=grid.dx)
    values = np.zeros(51)
    values[25] = 1.0
    record = run_simulation(Field(values, 0), p, bcs, Scheme.EXPLICIT, 30)
    assert abs(record.snapshots[23].values[0]) > 1e-14  # the end is lit
    assert information_speed(record, source=25) == [min(n, 24) for n in range(31)]


@pytest.mark.parametrize("source", [100, 17, -1, -3, 2.0, True])
def test_information_speed_rejects_source_outside_grid(source):
    record = make_dirac_record(Scheme.EXPLICIT, 16, 0.5, 2)
    with pytest.raises(ValueError, match=rf"^source {source} is not a node "
                                         r"of the grid \(0\.\.16\)$"):
        information_speed(record, source=source)


# ------------------------------------------------------------------ dispersion

def test_dispersion_double_root():
    # 4 nu kappa^2 tau = 1 at nu = kappa = 1, tau = 0.25
    sample = dispersion_branches(1.0, 0.25, 1.0)
    assert sample.omega_plus == pytest.approx(-2j, abs=1e-14)
    assert sample.omega_minus == pytest.approx(-2j, abs=1e-14)


def test_dispersion_zero_wavenumber():
    tau = 0.3
    sample = dispersion_branches(1.0, tau, 0.0)
    assert sample.omega_plus == pytest.approx(0.0, abs=1e-15)
    assert sample.omega_minus == pytest.approx(-1j / tau, rel=1e-14)
    assert sample.omega_parabolic == 0.0


def test_dispersion_roots_satisfy_polynomial():
    rng = np.random.default_rng(12)
    for _ in range(25):
        nu = float(rng.uniform(0.1, 3.0))
        tau = float(rng.uniform(1e-4, 2.0))
        kappa = float(rng.uniform(0.0, 10.0))
        sample = dispersion_branches(nu, tau, kappa)
        for omega in (sample.omega_plus, sample.omega_minus):
            residual = -tau * omega ** 2 - 1j * omega + nu * kappa ** 2
            assert abs(residual) <= 1e-10 * (1.0 + nu * kappa ** 2)
        assert sample.omega_parabolic == -1j * nu * kappa ** 2


@pytest.mark.parametrize("kappa", [1.0, 2.0])
def test_dispersion_small_tau_expansion_remainder(kappa):
    # omega_plus = -i nu k^2 (1 + nu k^2 tau) + O(tau^2): remainder shrinks
    # about 100x per tau decade
    nu = 1.0
    remainders = []
    for tau in (1e-2, 1e-3):
        sample = dispersion_branches(nu, tau, kappa)
        first_order = -1j * nu * kappa ** 2 * (1.0 + nu * kappa ** 2 * tau)
        remainders.append(abs(sample.omega_plus - first_order) / (nu * kappa ** 2))
    assert 50.0 <= remainders[0] / remainders[1] <= 200.0


def test_dispersion_rejects_bad_parameters():
    with pytest.raises(ValueError):
        dispersion_branches(1.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        dispersion_branches(0.0, 0.1, 1.0)


@pytest.mark.parametrize("nu,tau,kappa,message", [
    (math.nan, 0.01, 1.0, "need tau > 0 and nu > 0"),
    (math.inf, 0.01, 1.0, "need tau > 0 and nu > 0"),
    (1.0, math.inf, 1.0, "need tau > 0 and nu > 0"),
    (1.0, math.nan, 1.0, "need tau > 0 and nu > 0"),
    (1.0, 0.01, math.inf, "kappa must be finite, got inf"),
    (1.0, 0.01, math.nan, "kappa must be finite, got nan"),
], ids=["nu-nan", "nu-inf", "tau-inf", "tau-nan", "kappa-inf", "kappa-nan"])
def test_dispersion_rejects_non_finite_numbers(nu, tau, kappa, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        dispersion_branches(nu, tau, kappa)


# ------------------------------------------------------------- error bound

def test_error_bound_vanishes_without_relaxation_or_curvature():
    assert hyperbolization_error_bound(0.0, 5.0, 2.0) == 0.0
    assert hyperbolization_error_bound(0.1, 0.0, 2.0) == 0.0


def test_error_bound_reference_value():
    # tau M (1 + 2/sqrt(pi)) (8 sqrt(2) tau + (2 pi^2)^{1/4}/2 T)
    # at tau = 0.01, M = 1, T = 1
    value = hyperbolization_error_bound(tau=0.01, sup_utt_M=1.0, horizon_T=1.0)
    assert value == pytest.approx(0.024839130949764327, rel=1e-12)


def test_error_bound_rejects_negative_inputs():
    with pytest.raises(ValueError, match="must be nonnegative"):
        hyperbolization_error_bound(-0.1, 1.0, 1.0)


@pytest.mark.parametrize("inputs", [
    dict(tau=0.01, sup_utt_M=0.0, horizon_T=math.inf),
    dict(tau=math.nan, sup_utt_M=1.0, horizon_T=1.0),
    dict(tau=0.01, sup_utt_M=math.inf, horizon_T=1.0),
], ids=["horizon-inf", "tau-nan", "m-inf"])
def test_error_bound_rejects_non_finite_inputs(inputs):
    with pytest.raises(ValueError, match="must be nonnegative"):
        hyperbolization_error_bound(**inputs)


# ------------------------------------------------------- truncation residual

ALL_SCHEMES = list(Scheme)


@pytest.mark.parametrize("scheme", ALL_SCHEMES, ids=[s.value for s in ALL_SCHEMES])
def test_truncation_residual_vanishes_on_linear_profile(scheme):
    p = SchemeParams(DiffusivityModel.affine(1.0, 0.5) if scheme in
                     (Scheme.CN_NONLINEAR, Scheme.CROSS_CN)
                     else DiffusivityModel.constant(1.0),
                     dt=0.01, dx=0.1, tau=0.05)
    residual = truncation_residual(scheme, lambda x, t: x, p, x=0.7, t=0.5)
    assert abs(residual) <= 1e-12


def test_explicit_truncation_residual_second_order():
    sol = SineSeriesSolution.single_mode(math.pi, 1.0, 1)

    def u(x, t):
        return evaluate_series(sol, x, t)

    prev = None
    for n in (32, 64, 128):
        dx = math.pi / n
        p = constant_params(1.0, dt=0.25 * dx ** 2, dx=dx)
        res = abs(truncation_residual(Scheme.EXPLICIT, u, p, x=1.1, t=0.05))
        if prev is not None:
            assert 3.3 <= prev / res <= 4.8
        prev = res


def test_dufort_frankel_residual_targets_relaxed_equation():
    # with dt/dx fixed the residual against pure diffusion stalls; against
    # the relaxed equation with tau = nu dt^2/dx^2 it shrinks at second order
    ratio = 0.2
    sol = SineSeriesSolution.single_mode(math.pi, 1.0, 1)

    def parabolic(x, t):
        return evaluate_series(sol, x, t)

    tau = 1.0 * ratio ** 2

    def relaxed(x, t):
        return hyperbolic_mode_solution(1.0, tau, math.pi, 1, t, x)

    residual_parabolic = []
    residual_relaxed = []
    for n in (32, 64, 128, 256):
        dx = math.pi / n
        p = constant_params(1.0, dt=ratio * dx, dx=dx, tau=tau)
        residual_parabolic.append(abs(truncation_residual(
            Scheme.DUFORT_FRANKEL, parabolic, p, x=1.1, t=0.05)))
        residual_relaxed.append(abs(truncation_residual(
            Scheme.DUFORT_FRANKEL, relaxed, p, x=1.1, t=0.05)))
    # the parabolic residual converges to the nonzero relaxation term
    assert residual_parabolic[-1] >= 0.8 * residual_parabolic[0]
    for coarse, fine in zip(residual_relaxed, residual_relaxed[1:]):
        assert 3.5 <= coarse / fine <= 4.5


def test_saulyev_combined_relation_residual_second_order():
    sol = SineSeriesSolution.single_mode(math.pi, 1.0, 1)

    def u(x, t):
        return evaluate_series(sol, x, t)

    prev = None
    for n in (32, 64, 128, 256):
        dx = math.pi / n
        p = constant_params(1.0, dt=0.4 * dx ** 1.5, dx=dx)
        res = abs(truncation_residual(Scheme.SAULYEV, u, p, x=1.1, t=0.05))
        if prev is not None:
            assert 3.5 <= prev / res <= 4.5
        prev = res
