import io
import json
import math
import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from heatlab import cli
from heatlab.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_SOLVER,
                         ConfigError, ExperimentConfig, cmd_bound,
                         cmd_converge, cmd_dispersion, cmd_infospeed, cmd_run,
                         cmd_stability)
from heatlab.grid import BCKind
from heatlab.reference import (SineSeriesSolution, evaluate_series,
                               hyperbolic_mode_solution)


def base_mapping(**overrides):
    mapping = {"scheme": "explicit", "nu": "1", "length_l": "1",
               "num_cells_N": "8", "r": "0.25", "initial": "sine:1",
               "num_steps": "4"}
    mapping.update(overrides)
    return mapping


def run_cmd(fn, *args):
    out = io.StringIO()
    code = fn(*args, out)
    return code, out.getvalue()


def parse_csv(text):
    lines = [ln for ln in text.strip().split("\n") if ln]
    header = lines[0].split(",")
    return header, [ln.split(",") for ln in lines[1:]]


# -------------------------------------------------------------------- config

def test_config_requires_exactly_one_time_key():
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_mapping(base_mapping(dt="0.1"))
    mapping = base_mapping()
    del mapping["r"]
    with pytest.raises(ConfigError, match="exactly one"):
        ExperimentConfig.from_mapping(mapping)


def test_config_rejects_unknown_keys_and_schemes():
    with pytest.raises(ConfigError, match="unknown config keys"):
        ExperimentConfig.from_mapping(base_mapping(shceme="explicit"))
    with pytest.raises(ConfigError, match="unknown scheme"):
        ExperimentConfig.from_mapping(base_mapping(scheme="spectral"))
    with pytest.raises(ConfigError, match="missing required"):
        ExperimentConfig.from_mapping({"scheme": "explicit"})


def test_config_tau_rules():
    cfg = ExperimentConfig.from_mapping(base_mapping(tau="nu_dx", nu="2.2"))
    assert cfg.scheme_params(0.3).tau == 2.2 * 0.3
    cfg = ExperimentConfig.from_mapping(base_mapping(tau="dx_over_cs", cs="4"))
    assert cfg.scheme_params(0.25).tau == pytest.approx(0.0625)
    cfg = ExperimentConfig.from_mapping(base_mapping(tau="0.125"))
    assert cfg.scheme_params(0.25).tau == 0.125
    with pytest.raises(ConfigError, match="cs"):
        ExperimentConfig.from_mapping(base_mapping(tau="dx_over_cs"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(base_mapping(tau="-1"))


def test_config_r_to_dt_resolution():
    cfg = ExperimentConfig.from_mapping(base_mapping(nu="2", r="0.5"))
    assert cfg.scheme_params(0.1).dt == pytest.approx(0.5 * 0.01 / 2.0)
    mapping = base_mapping(dt="0.003")
    del mapping["r"]
    assert ExperimentConfig.from_mapping(mapping).scheme_params(0.1).dt == 0.003


def test_config_bc_specs():
    cfg = ExperimentConfig.from_mapping(base_mapping(
        bc_left="flux:0.5", bc_right="robin:1,2,0.25"))
    assert cfg.bc_left.kind is BCKind.FLUX
    assert cfg.bc_left.forcing(0.0) == 0.5
    assert (cfg.bc_right.kind, cfg.bc_right.coeff_a, cfg.bc_right.coeff_b,
            cfg.bc_right.forcing(0.0)) == (BCKind.ROBIN, 1.0, 2.0, 0.25)
    assert ExperimentConfig.from_mapping(base_mapping()).bc_right.kind \
        is BCKind.DIRICHLET
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(base_mapping(bc_left="periodic:0"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(base_mapping(bc_left="robin:1,2"))


def test_config_initial_specs():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(base_mapping(initial="gaussian"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(base_mapping(initial="sine:0"))
    cfg = ExperimentConfig.from_mapping(base_mapping(initial="dirac:3"))
    grid_field = cfg.build()[3]
    assert grid_field.values[3] == 1.0
    assert np.sum(np.abs(grid_field.values)) == 1.0


def test_config_key_value_file_and_overrides(tmp_path):
    path = tmp_path / "exp.cfg"
    path.write_text("# comment line\n"
                    "scheme=explicit\n"
                    "nu=1\n"
                    "length_l=1\n"
                    "num_cells_N=8\n"
                    "r=0.25\n"
                    "initial=sine:1\n"
                    "num_steps=4\n")
    cfg = ExperimentConfig.from_file(str(path), ["num_steps=9", "r=0.5"])
    assert cfg.num_steps == 9
    assert cfg.r == 0.5


def test_config_json_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"scheme": "cn", "nu": 1.0, "length_l": 1.0,
                                "num_cells_N": 8, "dt": 0.001,
                                "initial": "sine:1", "num_steps": 4}))
    cfg = ExperimentConfig.from_file(str(path))
    assert cfg.scheme.value == "cn"
    assert cfg.dt == 0.001


def test_custom_profile_requires_exact_node_match(tmp_path):
    good = tmp_path / "profile.txt"
    nodes = [i * 0.25 for i in range(5)]
    good.write_text("\n".join(f"{x} {0.0}" for x in nodes))
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="4", initial=f"custom:{good}"))
    assert np.all(cfg.build()[3].values == 0.0)

    shifted = tmp_path / "bad.txt"
    shifted.write_text("\n".join(f"{x + 0.01} {0.0}" for x in nodes))
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="4", initial=f"custom:{shifted}"))
    with pytest.raises(ConfigError, match="does not match"):
        cfg.build()


# ----------------------------------------------------------------------- run

def test_run_zero_profile_golden(tmp_path):
    profile = tmp_path / "zero.txt"
    profile.write_text("\n".join(f"{i * 0.25} 0.0" for i in range(5)))
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="4", initial=f"custom:{profile}", num_steps="2"))
    code, text = run_cmd(cmd_run, cfg)
    assert code == EXIT_OK
    assert text == ("step,time,max_norm,support_radius,diverged\n"
                    "0,0,0,0,false\n"
                    "1,0.015625,0,0,false\n"
                    "2,0.03125,0,0,false\n")


def test_run_is_deterministic():
    cfg = ExperimentConfig.from_mapping(base_mapping(num_steps="20"))
    _, first = run_cmd(cmd_run, cfg)
    _, second = run_cmd(cmd_run, cfg)
    assert first == second


def test_run_zero_steps_single_row():
    cfg = ExperimentConfig.from_mapping(base_mapping(num_steps="0"))
    code, text = run_cmd(cmd_run, cfg)
    header, rows = parse_csv(text)
    assert code == EXIT_OK
    assert len(rows) == 1
    assert rows[0][0] == "0"


def test_run_divergence_sets_flag_and_exit_code():
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="64", r="0.6", initial="dirac", num_steps="200"))
    code, text = run_cmd(cmd_run, cfg)
    header, rows = parse_csv(text)
    assert code == EXIT_DIVERGED
    assert rows[-1][-1] == "true"
    assert all(row[-1] == "false" for row in rows[:-1])


def test_run_support_radius_column_tracks_spread():
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="32", r="0.5", initial="dirac", num_steps="4"))
    code, text = run_cmd(cmd_run, cfg)
    _, rows = parse_csv(text)
    assert [row[3] for row in rows] == ["0", "1", "2", "3", "4"]


@pytest.mark.parametrize("ends", [
    {"bc_left": "dirichlet:1"},
    {"bc_left": "flux:0.5", "bc_right": "robin:1,1,0.2"},
], ids=["dirichlet", "flux-robin"])
def test_run_leaves_the_support_radius_empty_under_boundary_data(ends, capsys):
    # a forced end lights node 1 at step 2, which read as a radius of 24
    code, out, _ = run_main(["run", *overrides(
        scheme="explicit", nu="1", length_l="1", num_cells_N="50", r="0.5",
        initial="dirac", num_steps="5", **ends)], capsys)
    assert code == EXIT_OK
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert len(rows) == 6 and all(row[3] == "" for row in rows)


# ----------------------------------------------------------------- stability

def test_stability_table_matches_claims():
    code, text = run_cmd(cmd_stability,
                         ["explicit", "implicit", "leapfrog"],
                         [0.5, 0.51, 100.0, 0.001], 721)
    assert code == EXIT_OK
    _, rows = parse_csv(text)
    table = {(row[0], row[1]): row[3] for row in rows}
    assert table[("explicit", cli._fmt(0.5))] == "true"
    assert table[("explicit", cli._fmt(0.51))] == "false"
    assert table[("implicit", cli._fmt(100.0))] == "true"
    assert table[("leapfrog", cli._fmt(0.001))] == "false"


def test_stability_rejects_symbol_free_schemes():
    with pytest.raises(ConfigError):
        run_cmd(cmd_stability, ["saulyev"], [1.0], 721)
    with pytest.raises(ConfigError):
        run_cmd(cmd_stability, [], [1.0], 721)


@pytest.mark.parametrize("extra,message", [
    (["--r-values", "0.5,-1"], "r must be positive, got -1.0"),
    (["--r-values", "0.5,nan"], "r must be positive, got nan"),
    (["--r-values", "0.5", "--theta-samples", "1"], "at least 2 theta samples"),
])
def test_main_stability_rejects_bad_input_before_any_output(extra, message,
                                                            capsys):
    code, out, err = run_main(["stability", "--schemes", "explicit,cn"] + extra,
                              capsys)
    assert code == EXIT_CONFIG
    assert out == ""
    assert err.startswith("config error: ") and message in err


# ---------------------------------------------------------------- dispersion

def test_dispersion_first_row_and_gap_column():
    code, text = run_cmd(cmd_dispersion, 1.0, 0.01, 4.0, 5)
    _, rows = parse_csv(text)
    assert code == EXIT_OK
    assert rows[0][0] == "0"
    assert float(rows[0][1]) == 0.0 and float(rows[0][2]) == 0.0
    assert rows[0][6] == ""           # rel_gap undefined at kappa = 0
    assert rows[1][6] != ""


def test_dispersion_gap_halves_with_tau():
    def gap_at_kappa_one(tau):
        _, text = run_cmd(cmd_dispersion, 1.0, tau, 1.0, 2)
        _, rows = parse_csv(text)
        return float(rows[-1][6])

    ratio = gap_at_kappa_one(1e-2) / gap_at_kappa_one(5e-3)
    assert ratio == pytest.approx(2.0, abs=0.1)


def test_dispersion_oscillatory_regime_has_real_part():
    # 4 nu kappa^2 tau = 16 > 1 at kappa = 2, tau = 1
    _, text = run_cmd(cmd_dispersion, 1.0, 1.0, 2.0, 3)
    _, rows = parse_csv(text)
    assert abs(float(rows[-1][1])) > 0.0
    assert float(rows[-1][1]) == pytest.approx(math.sqrt(15.0) / 2.0, rel=1e-12)


def test_dispersion_rejects_bad_sampling():
    with pytest.raises(ConfigError):
        run_cmd(cmd_dispersion, 1.0, 0.01, 4.0, 1)


# ------------------------------------------------------------------ converge

def test_converge_cn_second_order():
    cfg = ExperimentConfig.from_mapping({
        "scheme": "cn", "nu": "1", "length_l": str(math.pi),
        "num_cells_N": "16", "dt": "0.02", "initial": "sine:1",
        "num_steps": "5"})
    code, text = run_cmd(cmd_converge, cfg, 3, "dx")
    _, rows = parse_csv(text)
    assert code == EXIT_OK
    assert rows[0][4] == ""
    assert float(rows[-1][4]) == pytest.approx(2.0, abs=0.1)


def test_converge_dufort_frankel_with_dt_prop_dx_degrades():
    # fixed dt/dx keeps the relaxation term alive: order collapses
    cfg = ExperimentConfig.from_mapping({
        "scheme": "dufort_frankel", "nu": "1", "length_l": str(math.pi),
        "num_cells_N": "32", "dt": "0.02", "initial": "sine:1",
        "num_steps": "5"})
    code, text = run_cmd(cmd_converge, cfg, 4, "dx")
    _, rows = parse_csv(text)
    assert code == EXIT_OK
    assert float(rows[-1][4]) < 1.0


def test_converge_requires_sine_profile_and_refinements():
    cfg = ExperimentConfig.from_mapping(base_mapping(initial="dirac"))
    with pytest.raises(ConfigError, match="sine"):
        run_cmd(cmd_converge, cfg, 3, "dx")
    cfg = ExperimentConfig.from_mapping(base_mapping())
    with pytest.raises(ConfigError, match="refinements"):
        run_cmd(cmd_converge, cfg, 1, "dx")
    with pytest.raises(ConfigError, match="dt rule"):
        run_cmd(cmd_converge, cfg, 3, "dx3")


@pytest.mark.parametrize("end,spec,message", [
    ("bc_left", "flux:0", "got bc_left flux with data 0.0"),
    ("bc_right", "robin:1,1,0", "got bc_right robin with data 0.0"),
    ("bc_left", "dirichlet:1", "got bc_left dirichlet with data 1.0"),
], ids=["flux", "robin", "dirichlet-1"])
def test_converge_refuses_ends_its_oracle_does_not_solve(end, spec, message,
                                                          capsys):
    # the sine-mode oracle assumes dirichlet:0 at both ends
    code, out, err = run_main(
        ["converge", "--refinements", "3", "--dt-rule", "dx"]
        + overrides(scheme="cn", nu=1, length_l=1, num_cells_N=8, dt=0.01,
                    initial="sine:1", num_steps=3, **{end: spec}), capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == ("config error: converge needs dirichlet:0 at both ends "
                   f"(its sine-mode oracle), {message}\n")


# --------------------------------------------------------------------- bound

def test_bound_zero_relaxation():
    code, text = run_cmd(cmd_bound, 0.0, 5.0, 2.0, None)
    _, rows = parse_csv(text)
    assert code == EXIT_OK
    assert float(rows[0][3]) == 0.0
    assert rows[0][4] == "" and rows[0][5] == ""


def test_bound_with_check_config_holds():
    cfg = ExperimentConfig.from_mapping({
        "scheme": "hyperbolic", "nu": "1", "length_l": str(math.pi),
        "num_cells_N": "16", "dt": "0.001", "initial": "sine:1",
        "num_steps": "1"})
    code, text = run_cmd(cmd_bound, 1e-3, 0.0, 1.0, cfg)
    _, rows = parse_csv(text)
    assert code == EXIT_OK
    assert float(rows[0][1]) == pytest.approx(1.0)   # analytic curvature bound
    measured, bound = float(rows[0][4]), float(rows[0][3])
    assert rows[0][5] == "true"
    assert measured <= bound


@pytest.mark.parametrize("extra", [
    [],
    ["--big-m", "5", "--set", "scheme=hyperbolic", "--set", "nu=1",
     "--set", "length_l=3.141592653589793", "--set", "num_cells_N=64",
     "--set", "dt=0.001", "--set", "initial=sine:1", "--set", "num_steps=1"],
], ids=["neither", "both"])
def test_main_bound_takes_big_m_or_a_config(extra, capsys):
    # without either the bound is a vacuous 0; with both --big-m was dropped
    code, out, err = run_main(
        ["bound", "--tau", "0.01", "--horizon", "1", *extra], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert "--big-m or a config" in err


def test_bound_rejects_negative_inputs():
    with pytest.raises(ConfigError):
        run_cmd(cmd_bound, -1.0, 1.0, 1.0, None)


def bound_config(nu, length, mode):
    return ExperimentConfig.from_mapping({
        "scheme": "hyperbolic", "nu": repr(nu), "length_l": repr(length),
        "num_cells_N": "16", "dt": "0.001", "initial": f"sine:{mode}",
        "num_steps": "1"})


def row_loop_gap(nu, tau, length, mode, horizon):
    """The relaxation gap as one oracle call pair per time row."""
    sol = SineSeriesSolution.single_mode(length, nu, mode)
    xs = np.linspace(0.0, length, 200)
    measured = 0.0
    for t in np.linspace(0.0, horizon, 200):
        par = evaluate_series(sol, xs, t)
        hyp = hyperbolic_mode_solution(nu, tau, length, mode, t, xs)
        measured = max(measured, float(np.max(np.abs(hyp - par))))
    return measured


# tau as a multiple of the critical 1 / (4 nu k^2): below it the relaxed mode
# is over-damped, above it oscillates
@pytest.mark.parametrize("damping", [1e-3, 0.3, 1.0, 4.0],
                         ids=["tiny", "over", "critical", "under"])
@pytest.mark.parametrize("mode", [1, 2, 3])
@pytest.mark.parametrize("length", [1.0, math.pi], ids=["l1", "lpi"])
def test_bound_gap_equals_row_loop_bit_for_bit(damping, mode, length):
    nu, horizon = 0.7, 2.0
    k = mode * math.pi / length
    tau = damping / (4.0 * nu * k * k)
    code, text = run_cmd(cmd_bound, tau, 0.0, horizon,
                         bound_config(nu, length, mode))
    _, rows = parse_csv(text)
    assert code == EXIT_OK
    assert float(rows[0][4]) == row_loop_gap(nu, tau, length, mode, horizon)


def test_bound_makes_one_call_per_oracle(monkeypatch):
    calls = {"evaluate_series": 0, "hyperbolic_mode_solution": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    config = bound_config(1.0, math.pi, 2)
    run_cmd(cmd_bound, 1e-3, 0.0, 1.0, config)
    assert calls == {"evaluate_series": 1, "hyperbolic_mode_solution": 1}
    run_cmd(cmd_bound, 0.0, 0.0, 1.0, config)
    assert calls == {"evaluate_series": 1, "hyperbolic_mode_solution": 1}


# ----------------------------------------------------------------- infospeed

def test_infospeed_explicit_exact_cell_speed():
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="50", r="0.5", initial="dirac", num_steps="10"))
    code, text = run_cmd(cmd_infospeed, cfg)
    lines = text.strip().split("\n")
    assert code == EXIT_OK
    assert lines[-2] == "c_s_cells_per_step,1"
    # physical speed = dx/dt = 1/(0.5 dx) = 100 for dx = 0.02
    assert lines[-1] == "c_s_physical,100"


# each run's front falls below the support threshold, or implicit's reaches
# the Dirichlet ends, before its last snapshot
@pytest.mark.parametrize("scheme,cells,r,steps,every,speed", [
    ("explicit", 50, 0.5, 30, 1, 1.0),
    ("explicit", 50, 0.5, 30, 10, 1.0),
    ("dufort_frankel", 50, 1.0, 40, 1, 1.0),
    ("explicit", 400, 0.5, 90, 1, 1.0),
    ("implicit", 50, 1.0, 10, 1, 24.0),
], ids=["explicit", "explicit-every-10", "dufort_frankel", "explicit-N400",
        "implicit"])
def test_infospeed_reads_the_fastest_front(scheme, cells, r, steps, every,
                                           speed):
    cfg = ExperimentConfig.from_mapping(base_mapping(
        scheme=scheme, num_cells_N=str(cells), r=repr(r), initial="dirac",
        num_steps=str(steps), snapshot_every=str(every)))
    _, params, _, _ = cfg.build()
    code, text = run_cmd(cmd_infospeed, cfg)
    lines = text.strip().split("\n")
    assert code == EXIT_OK
    assert lines[-2] == f"c_s_cells_per_step,{speed:.17g}"
    assert float(lines[-1].split(",")[1]) == speed * params.dx / params.dt


def test_infospeed_flux_ends_read_one_cell_per_step():
    # the closures light both end nodes before the front reaches them; the
    # end nodes do not count as support, so the speed stays one cell per step
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="50", r="0.5", initial="dirac", num_steps="30",
        bc_left="flux:0", bc_right="flux:0"))
    code, text = run_cmd(cmd_infospeed, cfg)
    lines = text.strip().split("\n")
    assert code == EXIT_OK
    assert lines[-2] == "c_s_cells_per_step,1"
    assert lines[1 + 30] == "30,24"


@pytest.mark.parametrize("ends,accepted", [
    ({"bc_left": "dirichlet:1"}, False),
    ({"bc_left": "flux:0.5", "bc_right": "robin:1,1,0.2"}, False),
    ({"bc_left": "flux:0", "bc_right": "robin:1,1,0"}, True),
], ids=["dirichlet", "flux-robin", "homogeneous-flux-robin"])
def test_infospeed_rejects_nonzero_boundary_data(ends, accepted, capsys):
    # a forced end lights node 1 at step 2, which read as a radius of 24 and
    # a speed of 12 cells per step
    code, out, err = run_main(["infospeed", *overrides(
        scheme="explicit", nu="1", length_l="1", num_cells_N="50", r="0.5",
        initial="dirac", num_steps="5", **ends)], capsys)
    if accepted:
        assert code == EXIT_OK
        assert out.split("\n")[-3] == "c_s_cells_per_step,1"
    else:
        assert code == EXIT_CONFIG and out == ""
        assert "zero boundary data" in err


def test_infospeed_zero_steps():
    cfg = ExperimentConfig.from_mapping(base_mapping(
        num_cells_N="10", r="0.5", initial="dirac", num_steps="0"))
    code, text = run_cmd(cmd_infospeed, cfg)
    lines = text.strip().split("\n")
    assert lines[1] == "0,0"
    assert lines[-2] == "c_s_cells_per_step,0"


def test_infospeed_requires_dirac():
    cfg = ExperimentConfig.from_mapping(base_mapping())
    with pytest.raises(ConfigError, match="dirac"):
        run_cmd(cmd_infospeed, cfg)


# ----------------------------------------------------------------- main/exits

def run_main(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def overrides(**kv):
    args = []
    for key, value in kv.items():
        args.extend(["--set", f"{key}={value}"])
    return args


def test_main_run_roundtrip(capsys):
    code, out, err = run_main(
        ["run"] + overrides(scheme="explicit", nu=1, length_l=1,
                            num_cells_N=8, r=0.25, initial="sine:1",
                            num_steps=3), capsys)
    assert code == EXIT_OK
    assert out.startswith("step,time,max_norm,support_radius,diverged\n")
    assert err == ""


def test_main_config_error_exit_code(capsys):
    code, out, err = run_main(
        ["run"] + overrides(scheme="explicit", nu=1, length_l=1,
                            num_cells_N=8, initial="sine:1", num_steps=3),
        capsys)
    assert code == EXIT_CONFIG
    assert "config error" in err


def test_main_diverged_exit_code(capsys):
    code, out, err = run_main(
        ["run"] + overrides(scheme="explicit", nu=1, length_l=1,
                            num_cells_N=64, r=0.6, initial="dirac",
                            num_steps=200), capsys)
    assert code == EXIT_DIVERGED


def test_main_solver_failure_exit_code(capsys):
    # at r = 1 the Saulyev sweep factor is 1/2, and robin(6.25, 1) at
    # dx = 0.1 zeroes the start denominator 1 - a1/2 - a2/4
    code, out, err = run_main(
        ["run"] + overrides(scheme="saulyev", nu=1, length_l=1,
                            num_cells_N=10, r=1, initial="sine:1",
                            num_steps=3, bc_left="robin:6.25,1,0"), capsys)
    assert code == EXIT_SOLVER
    assert "solver failure: degenerate Saulyev sweep start" in err


@pytest.mark.parametrize("scheme,r", [("implicit", 0.5), ("cn", 1),
                                      ("cn_nonlinear", 1), ("ccn", 1)])
def test_main_zero_pivot_is_a_solver_failure_before_the_first_step(
        scheme, r, capsys):
    # robin(2, 0.5) at dx = 0.25 and a diagonal weight of 1/2 zero the folded
    # first row; the plan's factorisation finds it, so no step runs.  The CLI
    # runs constant k, under which the nonlinear variants are CN
    code, out, err = run_main(
        ["run"] + overrides(scheme=scheme, nu=1, length_l=1, num_cells_N=4,
                            r=r, initial="sine:1", num_steps=3,
                            bc_left="robin:2,0.5,0"), capsys)
    assert code == EXIT_SOLVER
    assert err == "solver failure: zero pivot in row 2\n"
    assert out == ""


def test_main_plan_time_misuse_exits_with_config_code(capsys):
    # robin(6, 1) at dx = 0.25 makes the left closure denominator vanish, a
    # flux end on three nodes breaks the N >= 3 rule and the hyperbolic
    # scheme needs tau > 0; the plan sees each before the first step
    for keys, message in (
            (dict(num_cells_N=4, bc_left="robin:6,1,0"), "degenerate robin"),
            (dict(num_cells_N=2, bc_left="flux:0"), "need N >= 3"),
            (dict(num_cells_N=4, scheme="hyperbolic", tau=0), "tau > 0")):
        config = dict(scheme="explicit", nu=1, length_l=1, r=0.25,
                      initial="sine:1", num_steps=3)
        config.update(keys)
        code, out, err = run_main(["run"] + overrides(**config), capsys)
        assert code == EXIT_CONFIG
        assert err.startswith("config error: ") and message in err
        assert out == ""


HYPERBOLIC_RUN = dict(scheme="hyperbolic", nu=1, length_l=1, num_cells_N=16,
                      dt=0.001, initial="sine:1", num_steps=3, tau=0.01)


@pytest.mark.parametrize("argv,message", [
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "tau": "nan"}),
     "tau must be a finite number, 'nu_dx' or 'dx_over_cs', got 'nan'"),
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "tau": "inf"}),
     "tau must be a finite number, 'nu_dx' or 'dx_over_cs', got 'inf'"),
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "dt": "inf"}),
     "dt must be a finite number, got 'inf'"),
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "nu": "inf"}),
     "nu must be a finite number, got 'inf'"),
    (["bound", "--tau", "0.01", "--horizon", "inf"],
     "argument --horizon: invalid finite_float value: 'inf'"),
    (["dispersion", "--nu", "nan", "--tau", "0.01", "--kappa-max", "1",
      "--samples", "3"], "argument --nu: invalid finite_float value: 'nan'"),
    (["stability", "--schemes", "explicit", "--r-values", "inf"],
     "r must be positive, got inf"),
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "bc_left": "robin:nan,1,0"}),
     "bad boundary spec 'robin:nan,1,0'"),
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "bc_right": "dirichlet:inf"}),
     "bad boundary spec 'dirichlet:inf'"),
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "bc_left": "flux:nan"}),
     "bad boundary spec 'flux:nan'"),
    # finite inputs whose tau or dt rule overflows or underflows at the mesh
    (["run"] + overrides(**{**HYPERBOLIC_RUN, "num_cells_N": 32,
                            "tau": "dx_over_cs", "cs": "1e-310"}),
     "tau rule dx_over_cs gives tau = dx / cs = inf "
     "(dx = 0.03125, cs = 1e-310)"),
    (["converge", "--refinements", "2", "--dt-rule", "dx"] + overrides(
        scheme="explicit", nu="1e-300", length_l=1, num_cells_N=32,
        r="1e300", initial="sine:1", num_steps=3),
     "the r rule gives dt = r dx^2 / nu = inf "
     "(r = 1e+300, dx = 0.03125, nu = 1e-300)"),
    (["run"] + overrides(scheme="explicit", nu="1e300", length_l=1,
                         num_cells_N=32, r="1e-300", initial="sine:1",
                         num_steps=3),
     "the r rule gives dt = r dx^2 / nu = 0.0 "
     "(r = 1e-300, dx = 0.03125, nu = 1e+300)"),
], ids=["run-tau-nan", "run-tau-inf", "run-dt-inf", "run-nu-inf",
        "bound-horizon-inf", "dispersion-nu-nan", "stability-r-inf",
        "run-robin-nan", "run-dirichlet-inf", "run-flux-nan",
        "run-dx-over-cs-overflows", "converge-r-rule-overflows",
        "run-r-rule-underflows"])
def test_main_rejects_non_finite_numbers(argv, message, capsys):
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: ") and message in err


def test_main_rejects_a_json_bool_for_a_number(tmp_path, capsys):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**HYPERBOLIC_RUN, "nu": True}))
    code, out, err = run_main(["run", "--config", str(path)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == "config error: nu must be a finite number, got True\n"


def test_main_rejects_a_json_integer_beyond_the_doubles(tmp_path, capsys):
    # float() of a 400-digit integer raises OverflowError, not ValueError
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**HYPERBOLIC_RUN, "nu": 10 ** 400}))
    code, out, err = run_main(["run", "--config", str(path)], capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err == f"config error: nu must be a finite number, got {10 ** 400}\n"


def run_argv(**changes):
    """``run`` argv for a small explicit run; a None value drops that key."""
    config = dict(scheme="explicit", nu=1, length_l=1, num_cells_N=4, r=0.25,
                  initial="sine:1", num_steps=2)
    config.update(changes)
    return ["run"] + overrides(**{k: v for k, v in config.items()
                                  if v is not None})


# "{tmp}" in argv and message stands for the test's directory; the message
# is a prefix where it ends in a parser's or the OS's own text
@pytest.mark.parametrize("files,argv,message", [
    ({}, run_argv(num_cells_N="x"), "num_cells_N must be an integer, got 'x'"),
    ({}, run_argv(nu=0), "nu must be positive, got '0'"),
    ({}, run_argv(length_l=-1), "length_l must be positive"),
    ({}, run_argv(num_cells_N=1), "num_cells_N must be an integer >= 2"),
    ({}, run_argv(r=None, dt=-0.1), "dt must be positive"),
    ({}, run_argv(r=0), "r must be positive"),
    ({}, run_argv(num_steps=-1), "num_steps must be an integer >= 0"),
    ({}, run_argv(snapshot_every=0), "snapshot_every must be >= 1"),
    ({"run.json": "{"}, ["run", "--config", "{tmp}/run.json"],
     "bad JSON config: "),
    ({"run.json": "[1]"}, ["run", "--config", "{tmp}/run.json"],
     "JSON config must be an object"),
    ({"run.json": '{"nu": ' + "1" * 5000 + "}"},
     ["run", "--config", "{tmp}/run.json"], "bad JSON config: "),
    ({"run.cfg": "scheme explicit\n"}, ["run", "--config", "{tmp}/run.cfg"],
     "{tmp}/run.cfg:1: expected key=value, got 'scheme explicit'"),
    ({}, run_argv() + ["--set", "num_steps"],
     "--set needs key=value, got 'num_steps'"),
    ({}, run_argv(initial="dirac:9"), "dirac node 9 outside 0..4"),
    ({}, run_argv(initial="sine:x"), "sine profile needs an integer mode, "
                                     "got 'x'"),
    ({}, run_argv(initial="custom:{tmp}/none.txt"),
     "cannot read custom profile '{tmp}/none.txt': "),
    ({"u.txt": "0 a\n"}, run_argv(initial="custom:{tmp}/u.txt"),
     "bad custom profile '{tmp}/u.txt': "),
    ({"u.txt": "0 0 0\n" * 5}, run_argv(initial="custom:{tmp}/u.txt"),
     "custom profile '{tmp}/u.txt' must have two columns x u"),
    ({"u.txt": "0 0\n1 0\n"}, run_argv(initial="custom:{tmp}/u.txt"),
     "custom profile has 2 samples, grid has 5 nodes"),
    ({"u.txt": "0 0\n0.25 nan\n0.5 1\n0.75 0\n1 0\n"},
     run_argv(initial="custom:{tmp}/u.txt"),
     "custom profile '{tmp}/u.txt' has a non-finite sample"),
    ({"u.txt": "0 0\nnan 0.5\n0.5 1\n0.75 0.5\n1 0\n"},
     run_argv(initial="custom:{tmp}/u.txt"),
     "custom profile '{tmp}/u.txt' has a non-finite sample"),
    ({}, ["converge", "--refinements", "2", "--dt-rule", "dx"]
     + run_argv(num_steps=0)[1:],
     "converge needs num_steps >= 1 to set the horizon"),
    ({}, ["dispersion", "--nu", "0", "--tau", "0.01", "--kappa-max", "1",
          "--samples", "3"], "need nu > 0, tau > 0 and kappa_max > 0"),
], ids=["int", "nu", "length", "cells", "dt", "r", "steps", "snapshot_every",
        "json-syntax", "json-array", "json-long-integer", "key-value-line",
        "set-without-value", "dirac-node", "sine-mode", "custom-missing", "custom-bad-number",
        "custom-columns", "custom-samples", "custom-nan-u", "custom-nan-x",
        "converge-steps",
        "dispersion-nu"])
def test_main_names_each_config_error(files, argv, message, tmp_path, capsys):
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    argv = [a.replace("{tmp}", str(tmp_path)) for a in argv]
    code, out, err = run_main(argv, capsys)
    assert (code, out) == (EXIT_CONFIG, "")
    assert err.startswith("config error: "
                          + message.replace("{tmp}", str(tmp_path)))


def test_main_bad_flag_exits_with_config_code(capsys):
    code, out, err = run_main(["run", "--no-such-flag"], capsys)
    assert code == EXIT_CONFIG


def test_main_reuses_one_parser():
    assert cli._build_parser() is cli._build_parser()


def test_main_set_overrides_do_not_leak_into_next_call(tmp_path, capsys):
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in base_mapping().items()))
    code, out, _ = run_main(["run", "--config", str(path),
                             "--set", "num_steps=2"], capsys)
    assert code == EXIT_OK and len(parse_csv(out)[1]) == 3
    code, out, _ = run_main(["run", "--config", str(path)], capsys)
    assert code == EXIT_OK and len(parse_csv(out)[1]) == 5   # num_steps=4


def test_main_failed_call_leaves_next_call_unchanged(capsys):
    argv = ["stability", "--schemes", "explicit,cn", "--r-values", "0.5,2"]
    cli._build_parser.cache_clear()
    fresh = run_main(argv, capsys)
    code, out, err = run_main(["stability", "--schemes", "explicit",
                               "--r-values", "0.5,x"], capsys)
    assert code == EXIT_CONFIG and out == "" and "bad --r-values" in err
    assert run_main(argv, capsys) == fresh


def test_main_stability_and_dispersion(capsys):
    code, out, _ = run_main(["stability", "--schemes", "explicit,implicit",
                             "--r-values", "0.5,0.51"], capsys)
    assert code == EXIT_OK
    assert out.startswith("scheme,r,max_amplification,stable\n")

    code, out, _ = run_main(["dispersion", "--nu", "1", "--tau", "0.01",
                             "--kappa-max", "4", "--samples", "5"], capsys)
    assert code == EXIT_OK
    assert out.startswith("kappa,re_wplus,")


def test_main_converge_reports_the_level_that_diverged(capsys):
    # r = dt / dx^2 is 0.26 at N = 16 but 0.52 > 1/2 at N = 32 under dt ~ dx
    code, out, err = run_main(
        ["converge", "--refinements", "3", "--dt-rule", "dx"]
        + overrides(scheme="explicit", nu=1, length_l=math.pi, num_cells_N=16,
                    dt=0.01, initial="sine:1", num_steps=2000), capsys)
    assert code == EXIT_DIVERGED
    header, rows = parse_csv(out)
    assert header[0] == "N" and [row[0] for row in rows] == ["16"]
    assert err == "converge: run diverged at N=32\n"


def test_main_converge_and_infospeed(capsys):
    code, out, _ = run_main(
        ["converge", "--refinements", "2", "--dt-rule", "dx"]
        + overrides(scheme="cn", nu=1, length_l=math.pi, num_cells_N=16,
                    dt=0.02, initial="sine:1", num_steps=5), capsys)
    assert code == EXIT_OK
    assert out.startswith("N,dx,dt,max_error,observed_order\n")

    code, out, _ = run_main(
        ["infospeed"] + overrides(scheme="implicit", nu=1, length_l=1,
                                  num_cells_N=50, r=1, initial="dirac",
                                  num_steps=1), capsys)
    assert code == EXIT_OK
    assert "1,24" in out.split("\n")


# ------------------------------------------------------------ golden outputs

GOLDEN_CLI = json.loads((Path(__file__).parent / "golden_cli.json").read_text())


@pytest.mark.parametrize("entry", GOLDEN_CLI["commands"],
                         ids=[e.get("id", e["argv"][0])
                              for e in GOLDEN_CLI["commands"]])
def test_main_reproduces_readme_golden_output(entry, tmp_path, capsys):
    """The README commands print the recorded CSV and exit code.

    Commands without a tridiagonal solve must match byte for byte; the
    ``converge cn`` low digits depend on the LAPACK build, so that table is
    compared field by field at the recorded relative tolerance.
    """
    config = tmp_path / "experiment.cfg"
    config.write_text(GOLDEN_CLI["config"])
    argv = [str(config) if a == "{config}" else a for a in entry["argv"]]
    code, out, _ = run_main(argv, capsys)
    assert code == entry["exit_code"]
    if "rtol" not in entry:
        assert out == entry["stdout"]
        return
    got, want = parse_csv(out), parse_csv(entry["stdout"])
    assert got[0] == want[0]
    assert [len(row) for row in got[1]] == [len(row) for row in want[1]]
    for got_row, want_row in zip(got[1], want[1]):
        for g, w in zip(got_row, want_row):
            if w == "":
                assert g == ""
            else:
                assert float(g) == pytest.approx(float(w), rel=entry["rtol"],
                                                 abs=0.0)


README_CONFIG_COMMANDS = [e for e in GOLDEN_CLI["commands"] if "id" not in e
                          and e["argv"][0] in ("run", "converge", "infospeed")]


@pytest.mark.parametrize("entry", README_CONFIG_COMMANDS,
                         ids=[f"{e['argv'][0]}-{e['argv'][1].lstrip('-')}"
                              for e in README_CONFIG_COMMANDS])
def test_readme_commands_parse_each_spec_once(entry, tmp_path, monkeypatch,
                                              capsys):
    # from_mapping parses both ends and the initial profile; every later
    # use, converge's rebuild per rung included, reads the parsed values
    calls = {"_parse_bc": 0, "_parse_initial": 0}
    for name in calls:
        def counted(*args, _name=name, _fn=getattr(cli, name)):
            calls[_name] += 1
            return _fn(*args)
        monkeypatch.setattr(cli, name, counted)
    config = tmp_path / "experiment.cfg"
    config.write_text(GOLDEN_CLI["config"])
    argv = [str(config) if a == "{config}" else a for a in entry["argv"]]
    code, _, _ = run_main(argv, capsys)
    assert code == entry["exit_code"]
    assert calls == {"_parse_bc": 2, "_parse_initial": 1}


def test_readme_config_example_lists_every_config_key(tmp_path, capsys):
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    example = readme.split("or a JSON object with the same keys:\n\n```\n")[1]
    example = example.split("```")[0]
    # dt and cs appear commented out: r is set instead and tau needs no cs
    keys = re.findall(r"^#?(\w+)=", example, flags=re.M)
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
    path = tmp_path / "experiment.cfg"
    path.write_text(example)
    code, _, err = run_main(["run", "--config", str(path),
                             "--set", "num_steps=2"], capsys)
    assert (code, err) == (EXIT_OK, "")
