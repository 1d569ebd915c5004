"""Acceptance suite: every quantitative claim, one pass/fail line each.

Each criterion is implemented exactly as specified with its stated tolerance.
The helper prints the verdict before asserting so the full scoreboard is
visible in the captured output even when a criterion fails.
"""

import functools
import math
import time

import numpy as np
import pytest

import heatlab as hl
from heatlab import Scheme
from heatlab.cli import (ExperimentConfig, cmd_bound, cmd_converge,
                         cmd_infospeed)
from thomas_reference import thomas_solve_instrumented

import io

HOMOGENEOUS = (hl.BoundaryCondition.dirichlet(0.0),
               hl.BoundaryCondition.dirichlet(0.0))


def report(criterion, label, ok, detail=""):
    line = f"[criterion {criterion:>2}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    return ok


def constant_params(nu, dt, dx, tau=None):
    return hl.SchemeParams(hl.DiffusivityModel.constant(nu), dt=dt, dx=dx,
                           tau=tau)


def random_interior_field(n, seed, time_index=0):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(n + 1)
    values[0] = values[-1] = 0.0
    return hl.Field(values=values, time_index=time_index), rng


# ---------------------------------------------------------------- criterion 1

def test_c01_cfl_boundary():
    start = time.perf_counter()
    grid = hl.build_uniform_grid(1.0, 64)
    dirac = np.zeros(65)
    dirac[32] = 1.0

    params = constant_params(1.0, dt=0.5 * grid.dx ** 2, dx=grid.dx)
    rec = hl.run_simulation(hl.Field(dirac.copy(), 0), params, HOMOGENEOUS,
                            Scheme.EXPLICIT, 10_000, snapshot_every=100)
    growth = hl.empirical_growth(rec, 50)
    bounded = (not rec.diverged) and growth <= 1.0 + 1e-6

    # just beyond the bound, seeded with the alternating-sign mode
    params = constant_params(1.0, dt=0.51 * grid.dx ** 2, dx=grid.dx)
    nyquist = 1e5 * (-1.0) ** np.arange(65)
    nyquist[0] = nyquist[-1] = 0.0
    rec_bad = hl.run_simulation(hl.Field(nyquist, 0), params, HOMOGENEOUS,
                                Scheme.EXPLICIT, 500, snapshot_every=1)
    blew_up = rec_bad.diverged and rec_bad.diverged_step <= 500
    elapsed = time.perf_counter() - start

    ok = report(1, "explicit CFL boundary r=0.5 vs r=0.51",
                bounded and blew_up and elapsed < 1.0,
                f"growth@0.5={growth:.9f}, diverged@0.51 step="
                f"{rec_bad.diverged_step}, {elapsed:.2f}s")
    assert ok


# ---------------------------------------------------------------- criterion 2

def test_c02_leapfrog_unconditional_instability():
    start = time.perf_counter()
    results = []
    for r in (1e-3, 1e-2, 0.1):
        symbol = hl.max_amplification(Scheme.LEAPFROG, r)
        grid = hl.build_uniform_grid(1.0, 64)
        params = constant_params(1.0, dt=r * grid.dx ** 2, dx=grid.dx)
        # random data on both layers of the two-layer state (seeding only the
        # newest layer projects almost entirely onto the decaying root)
        prev, rng = random_interior_field(64, seed=20240817)
        curr_values = rng.standard_normal(65)
        curr_values[0] = curr_values[-1] = 0.0
        curr = hl.Field(curr_values, 1)
        norm0 = max(prev.max_norm, curr.max_norm)
        crossed = None
        for n in range(2000):
            nxt = hl.step_leapfrog(hl.StepState(prev, curr, params, HOMOGENEOUS))
            prev, curr = curr, nxt
            norm = curr.max_norm
            if not np.isfinite(norm) or norm > hl.DIVERGENCE_THRESHOLD:
                crossed = n + 1
                break
            if norm > 1.01 * norm0:
                crossed = n + 1
                break
        results.append((r, symbol, crossed))
    elapsed = time.perf_counter() - start

    ok = all(sym > 1.0 and step is not None for _, sym, step in results)
    detail = ", ".join(f"r={r}: |g|max={sym:.4f} grew@{step}"
                       for r, sym, step in results)
    assert report(2, "leap-frog unconditionally unstable", ok and elapsed < 1.0,
                  detail + f", {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 3

def test_c03_unconditional_stability_implicit_cn_df():
    start = time.perf_counter()
    schemes = (Scheme.IMPLICIT, Scheme.CRANK_NICOLSON, Scheme.DUFORT_FRANKEL)
    symbol_ok = all(hl.max_amplification(s, r) <= 1.0 + 1e-12
                    for s in schemes for r in (0.1, 1.0, 10.0, 100.0))
    growths = {}
    grid = hl.build_uniform_grid(1.0, 64)
    params = constant_params(1.0, dt=10.0 * grid.dx ** 2, dx=grid.dx)
    initial, _ = random_interior_field(64, seed=7)
    for scheme in schemes:
        rec = hl.run_simulation(hl.Field(initial.values.copy(), 0), params,
                                HOMOGENEOUS, scheme, 5000, snapshot_every=50)
        growths[scheme.value] = hl.empirical_growth(rec, 20)
    empirical_ok = all(g <= 1.0 + 1e-6 for g in growths.values())
    elapsed = time.perf_counter() - start

    detail = ", ".join(f"{k}: {v:.9f}" for k, v in growths.items())
    assert report(3, "implicit/CN/DF unconditionally stable",
                  symbol_ok and empirical_ok and elapsed < 5.0,
                  detail + f", {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 4

def test_c04_saulyev_unconditional_stability():
    grid = hl.build_uniform_grid(1.0, 128)
    initial, _ = random_interior_field(128, seed=11)
    growths = {}
    for lam in (1.0, 5.0, 20.0):
        params = constant_params(1.0, dt=lam * grid.dx ** 2, dx=grid.dx)
        rec = hl.run_simulation(hl.Field(initial.values.copy(), 0), params,
                                HOMOGENEOUS, Scheme.SAULYEV, 10_000,
                                snapshot_every=100)
        growths[lam] = hl.empirical_growth(rec, 20)
    ok = all(g <= 1.0 + 1e-6 for g in growths.values())
    detail = ", ".join(f"lam={k}: {v:.9f}" for k, v in growths.items())
    assert report(4, "Saulyev empirically stable at lam in {1,5,20}", ok, detail)


# ---------------------------------------------------------------- criterion 5

LADDER_CELLS = (32, 64, 128, 256)


# The Saulyev ladder rounds its step count up to an even number, so
# dt = 0.1 / steps does not follow 0.4 dx^1.5: lam = nu dt / dx^2 is 1.04,
# 1.73, 2.52 and 3.61 on the four rungs instead of 0.4 / sqrt(dx) = 1.28 to
# 3.61.  README derives the c05 red value 0.838 from these lam.
@functools.lru_cache(maxsize=None)
def convergence_ladders():
    """All five refinement studies; cached so each clause reuses one run."""
    length, nu, horizon, mode = math.pi, 1.0, 0.1, 1
    oracle = hl.SineSeriesSolution.single_mode(length, nu, mode)
    start = time.perf_counter()

    def ladder(scheme, power, anchor):
        errors = []
        for cells in LADDER_CELLS:
            grid = hl.build_uniform_grid(length, cells)
            dt_target = anchor * grid.dx ** power
            if scheme is Scheme.SAULYEV:
                steps = 2 * max(1, math.ceil(horizon / (2 * dt_target) - 1e-9))
            else:
                steps = max(1, math.ceil(horizon / dt_target - 1e-9))
            dt = horizon / steps
            params = constant_params(nu, dt=dt, dx=grid.dx)
            initial = hl.sample_initial(lambda x: math.sin(x), grid)
            rec = hl.run_simulation(initial, params, HOMOGENEOUS, scheme, steps,
                                    snapshot_every=steps)
            assert not rec.diverged
            t_final = rec.final.time_index * dt
            exact = hl.evaluate_series(oracle, grid.nodes, t_final)
            errors.append((grid.dx, float(np.max(np.abs(rec.final.values - exact)))))
        return hl.observed_order(errors)

    orders = {
        "explicit": ladder(Scheme.EXPLICIT, 2.0, 0.25 / nu),
        "implicit": ladder(Scheme.IMPLICIT, 2.0, 0.25 / nu),
        "cn": ladder(Scheme.CRANK_NICOLSON, 1.0, 0.1),
        "dufort_frankel": ladder(Scheme.DUFORT_FRANKEL, 2.0, 0.25 / nu),
        "saulyev": ladder(Scheme.SAULYEV, 1.5, 0.4),
    }
    return orders, time.perf_counter() - start


@pytest.mark.parametrize("scheme,band", [
    ("explicit", (1.9, 2.1)),
    ("implicit", (1.9, 2.1)),
    ("cn", (1.9, 2.1)),
    ("dufort_frankel", (1.8, 2.2)),
    ("saulyev", (1.8, math.inf)),
])
def test_c05_convergence_orders(scheme, band):
    orders, _ = convergence_ladders()
    value = orders[scheme]
    lo, hi = band
    assert report(5, f"{scheme} observed order (target [{lo}, {hi}])",
                  lo <= value <= hi, f"measured {value:.3f}")


def test_c05_total_runtime():
    _, elapsed = convergence_ladders()
    assert report(5, "convergence ladders total runtime", elapsed < 30.0,
                  f"{elapsed:.2f}s")


def test_c05_saulyev_is_second_order_under_dt_prop_dx2():
    # the green side of the red saulyev order: with dt = 0.4 dx^2 the pair's
    # O(dt^2/dx^2) error is O(dx^2) (Saulyev 1964); the README paragraph on
    # the red criteria quotes these orders
    start = time.perf_counter()
    config = ExperimentConfig.from_mapping({
        "scheme": "saulyev", "nu": "1", "length_l": repr(math.pi),
        "num_cells_N": "32", "r": "0.4", "initial": "sine:1",
        "num_steps": "100"})
    out = io.StringIO()
    assert cmd_converge(config, 4, "dx2", out) == 0
    orders = [float(line.split(",")[4])
              for line in out.getvalue().split()[2:]]
    elapsed = time.perf_counter() - start
    ok = len(orders) == 3 and all(1.9 <= q <= 2.1 for q in orders)
    assert report(5, "saulyev observed order under dt ~ dx^2 (target "
                  "[1.9, 2.1])", ok and elapsed < 1.0,
                  f"orders {', '.join(f'{q:.3f}' for q in orders)}, "
                  f"{elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 6

def test_c06_hyperbolic_stability_boundary():
    grid = hl.build_uniform_grid(1.0, 64)
    nu = 1.0
    tau = nu * grid.dx
    limit = grid.dx * math.sqrt(tau / nu)

    params = constant_params(nu, dt=0.95 * limit, dx=grid.dx, tau=tau)
    initial, _ = random_interior_field(64, seed=5)
    rec = hl.run_simulation(initial, params, HOMOGENEOUS, Scheme.HYPERBOLIC,
                            5000, snapshot_every=50)
    growth = hl.empirical_growth(rec, 20)
    bounded = (not rec.diverged) and growth <= 1.0 + 1e-6

    beyond = constant_params(nu, dt=1.05 * limit, dx=grid.dx, tau=tau)
    symbol = hl.max_amplification(Scheme.HYPERBOLIC, params=beyond)

    assert report(6, "relaxed-scheme stability boundary dt = dx sqrt(tau/nu)",
                  bounded and symbol > 1.0,
                  f"growth@0.95={growth:.9f}, |g|max@1.05={symbol:.4f}")


# ---------------------------------------------------------------- criterion 7

@pytest.mark.parametrize("kappa", [1.0, 2.0, 4.0])
def test_c07_dispersion_gap_halves_with_tau(kappa):
    nu = 1.0

    def gap(tau):
        sample = hl.dispersion_branches(nu, tau, kappa)
        return abs(sample.omega_plus + 1j * nu * kappa ** 2) / (nu * kappa ** 2)

    ratio = gap(1e-2) / gap(5e-3)
    ok = 1.7 <= ratio <= 2.3
    assert report(7, f"halving tau halves the branch gap at kappa={kappa}",
                  ok, f"gap ratio {ratio:.4f}, target 2.0 +- 15%")


# ------------------------------------------------- the two red values, pinned

def test_red_values_stay_where_the_readme_derives_them():
    # c05 saulyev and c07 kappa = 4 stay red on purpose; this test fails if a
    # change moves either value.  The c07 ratio is the exact slow-branch gap
    # (1 - sqrt(1 - 4x)) / (2x) - 1 at x = tau nu kappa^2 = 0.16 over 0.08.
    orders, _ = convergence_ladders()
    assert abs(orders["saulyev"] - 0.83778) <= 5e-4

    nu, kappa = 1.0, 4.0

    def gap(tau):
        sample = hl.dispersion_branches(nu, tau, kappa)
        return abs(sample.omega_plus + 1j * nu * kappa ** 2) / (nu * kappa ** 2)

    def closed_form(x):
        return (1.0 - math.sqrt(1.0 - 4.0 * x)) / (2.0 * x) - 1.0

    ratio = gap(1e-2) / gap(5e-3)
    assert abs(ratio - 2.600971) <= 1e-6
    assert abs(ratio - closed_form(0.16) / closed_form(0.08)) <= 1e-12


# ---------------------------------------------------------------- criterion 8

def test_c08_hyperbolization_error_bound():
    start = time.perf_counter()
    # cmd_bound replaces M by the mode's analytic sup |u_tt| = (nu k^2)^2
    config = ExperimentConfig.from_mapping({
        "scheme": "hyperbolic", "nu": "1", "length_l": repr(math.pi),
        "num_cells_N": "16", "dt": "0.001", "initial": "sine:1",
        "num_steps": "1"})
    results = {}
    for tau in (1e-2, 1e-3):
        out = io.StringIO()
        assert cmd_bound(tau, 0.0, 1.0, config, out) == 0
        header, values = out.getvalue().split()
        row = dict(zip(header.split(","), values.split(",")))
        results[tau] = (float(row["measured_max_delta_u"]), float(row["bound"]),
                        row["within_bound"] == "true")
    elapsed = time.perf_counter() - start

    ok = all(within for _, _, within in results.values())
    detail = ", ".join(f"tau={tau}: {m:.5f} <= {b:.5f}"
                       for tau, (m, b, _) in results.items())
    assert report(8, "relaxation gap within the analytic bound",
                  ok and elapsed < 1.0, detail + f", {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 9

def infospeed_lines(scheme, r, steps):
    cfg = ExperimentConfig.from_mapping({
        "scheme": scheme, "nu": "1", "length_l": "1", "num_cells_N": "50",
        "r": str(r), "initial": "dirac", "num_steps": str(steps)})
    out = io.StringIO()
    code = cmd_infospeed(cfg, out)
    assert code == 0
    return out.getvalue().strip().split("\n")


def test_c09_information_speed():
    cell_speeds = {}
    for scheme in ("explicit", "dufort_frankel"):
        lines = infospeed_lines(scheme, r=0.5 if scheme == "explicit" else 1.0,
                                steps=10)
        cell_speeds[scheme] = float(lines[-2].split(",")[1])
    spread = {}
    for scheme in ("implicit", "cn"):
        lines = infospeed_lines(scheme, r=1.0, steps=1)
        spread[scheme] = int(lines[2].split(",")[1])

    ok = (cell_speeds["explicit"] == 1.0 and cell_speeds["dufort_frankel"] == 1.0
          and spread["implicit"] == 24 and spread["cn"] == 24)
    assert report(9, "one cell per step vs instantaneous spread", ok,
                  f"explicit/DF speed {cell_speeds}, implicit/CN radius after "
                  f"one step {spread} (all 49 interior nodes lit)")


# --------------------------------------------------------------- criterion 10

def test_c10_nonlinear_reductions_constant_k():
    grid = hl.build_uniform_grid(math.pi, 32)
    initial = hl.sample_initial(math.sin, grid)
    dt = 0.4 * grid.dx ** 2
    runs = {}
    for label, scheme, model in (
            ("cn", Scheme.CRANK_NICOLSON, hl.DiffusivityModel.constant(1.0)),
            ("cn_nonlinear", Scheme.CN_NONLINEAR,
             hl.DiffusivityModel.general(lambda u: 1.0)),
            ("ccn", Scheme.CROSS_CN, hl.DiffusivityModel.affine(1.0, 0.0))):
        params = hl.SchemeParams(model, dt=dt, dx=grid.dx)
        runs[label] = hl.run_simulation(initial, params, HOMOGENEOUS, scheme,
                                        100, snapshot_every=1)
    diff = 0.0
    for step in range(101):
        ref = runs["cn"].snapshots[step].values
        for label in ("cn_nonlinear", "ccn"):
            diff = max(diff, float(np.max(np.abs(
                runs[label].snapshots[step].values - ref))))
    assert report(10, "constant-k reductions match trapezoidal over 100 steps",
                  diff <= 1e-14, f"max deviation {diff:.3e}")


def test_c10_affine_k_matches_refined_explicit_reference():
    length, horizon = math.pi, 0.1
    model = hl.DiffusivityModel.affine(1.0, 0.1)  # k(u) = 1 + u/10

    def refined_reference(cells, t_final):
        fine = hl.build_uniform_grid(length, 10 * cells)
        dt_target = fine.dx ** 2 / 4.4  # CFL with k <= 1.1 plus margin
        steps = max(1, math.ceil(t_final / dt_target))
        params = hl.SchemeParams(model, dt=t_final / steps, dx=fine.dx)
        initial = hl.sample_initial(math.sin, fine)
        rec = hl.run_simulation(initial, params, HOMOGENEOUS, Scheme.EXPLICIT,
                                steps, snapshot_every=steps)
        return rec.final.values[::10]

    orders = {}
    for scheme in (Scheme.CN_NONLINEAR, Scheme.CROSS_CN):
        errors = []
        for cells in (16, 32, 64):
            grid = hl.build_uniform_grid(length, cells)
            steps = max(1, math.ceil(horizon / (0.05 * grid.dx)))
            dt = horizon / steps
            params = hl.SchemeParams(model, dt=dt, dx=grid.dx)
            initial = hl.sample_initial(math.sin, grid)
            rec = hl.run_simulation(initial, params, HOMOGENEOUS, scheme,
                                    steps, snapshot_every=steps)
            reference = refined_reference(cells, rec.final.time_index * dt)
            errors.append((grid.dx,
                           float(np.max(np.abs(rec.final.values - reference)))))
        orders[scheme.value] = [math.log(errors[i - 1][1] / errors[i][1])
                                / math.log(2.0) for i in (1, 2)]
    ok = all(1.6 <= order <= 2.4 for pair in orders.values() for order in pair)
    assert report(10, "affine-k schemes track the refined explicit reference",
                  ok, f"pairwise orders {orders}")


# --------------------------------------------------------------- criterion 11

def test_c11_thomas_solver_oracle_and_linearity():
    rng = np.random.default_rng(1234)
    worst = 0.0
    ops_linear = True
    for _ in range(200):
        m = int(rng.integers(1, 101))
        lower = rng.uniform(-1.0, 1.0, size=m - 1)
        upper = rng.uniform(-1.0, 1.0, size=m - 1)
        diag = rng.uniform(1.0, 2.0, size=m)
        diag[:-1] += np.abs(upper)
        diag[1:] += np.abs(lower)
        rhs = rng.uniform(-5.0, 5.0, size=m)
        system = hl.TridiagonalSystem(lower=lower, diag=diag, upper=upper,
                                      rhs=rhs)
        x, ops = thomas_solve_instrumented(system)
        dense = np.zeros((m, m))
        for i in range(m):
            dense[i, i] = diag[i]
            if i > 0:
                dense[i, i - 1] = lower[i - 1]
            if i < m - 1:
                dense[i, i + 1] = upper[i]
        worst = max(worst, float(np.max(np.abs(x - np.linalg.solve(dense, rhs)))))
        ops_linear = ops_linear and (ops == 2 * m)
    assert report(11, "Thomas vs dense elimination on 200 dominant systems",
                  worst <= 1e-10 and ops_linear,
                  f"worst deviation {worst:.3e}, ops == 2m: {ops_linear}")
