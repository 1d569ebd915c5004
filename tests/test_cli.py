import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

from heatlab import cli
from heatlab.cli import (EXIT_CONFIG, EXIT_DIVERGED, EXIT_OK, EXIT_SOLVER,
                         ConfigError, ExperimentConfig, cmd_bound,
                         cmd_converge, cmd_dispersion, cmd_infospeed, cmd_run,
                         cmd_stability)
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
    cfg = ExperimentConfig.from_mapping(base_mapping(tau="nu_dx", nu="2"))
    assert cfg.resolve_tau(0.25) == pytest.approx(0.5)
    cfg = ExperimentConfig.from_mapping(base_mapping(tau="dx_over_cs", cs="4"))
    assert cfg.resolve_tau(0.25) == pytest.approx(0.0625)
    cfg = ExperimentConfig.from_mapping(base_mapping(tau="0.125"))
    assert cfg.resolve_tau(0.25) == 0.125
    with pytest.raises(ConfigError, match="cs"):
        ExperimentConfig.from_mapping(base_mapping(tau="dx_over_cs"))
    with pytest.raises(ConfigError):
        ExperimentConfig.from_mapping(base_mapping(tau="-1"))


def test_config_r_to_dt_resolution():
    cfg = ExperimentConfig.from_mapping(base_mapping(nu="2", r="0.5"))
    assert cfg.resolve_dt(0.1) == pytest.approx(0.5 * 0.01 / 2.0)


def test_config_bc_specs():
    cfg = ExperimentConfig.from_mapping(base_mapping(
        bc_left="flux:0.5", bc_right="robin:1,2,0.25"))
    assert cfg.bc_left == "flux:0.5"
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
