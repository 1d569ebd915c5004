"""Command-line front end: experiment configs, batch runs, CSV emission.

Subcommands: ``run``, ``converge``, ``stability``, ``dispersion``, ``bound``,
``infospeed``.  Configs are flat key=value files (or JSON objects); any key
can be overridden on the command line with ``--set key=value``.  Results go
to stdout as CSV with 17-significant-digit reals; diagnostics go to stderr.
Exit codes: 0 success, 1 config error, 2 diverged run, 3 solver failure.
"""

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Optional, TextIO, Union

import numpy as np

from .analysis import (DEFAULT_THETA_SAMPLES, dispersion_branches,
                       hyperbolization_error_bound, information_speed,
                       max_amplification)
from .grid import BCKind, BoundaryCondition, Field, Grid1D, \
    build_uniform_grid, max_abs, sample_initial
from .reference import SineSeriesSolution, evaluate_series, \
    hyperbolic_mode_solution
from .schemes import SPECS, DiffusivityModel, Scheme, SchemeParams, \
    SolverError, run_simulation
from .tridiag import SingularSystemError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DIVERGED = 2
EXIT_SOLVER = 3

STABILITY_TOL = 1e-12
# a relaxed scheme's symbol reads tau, dt and dx as well as r
_SYMBOL_SCHEMES = tuple(scheme for scheme, spec in SPECS.items()
                        if spec.symbol is not None and not spec.relaxed)


class ConfigError(ValueError):
    """Invalid experiment configuration."""


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _fmt_bool(b: bool) -> str:
    return "true" if b else "false"


def finite_float(raw) -> float:
    """``float(raw)`` if that is finite and raw is no bool, else ValueError."""
    try:
        value = float(raw)
    except OverflowError:  # an integer beyond the largest double
        value = math.inf
    if isinstance(raw, bool) or not math.isfinite(value):
        raise ValueError(f"{raw!r} is not a finite number")
    return value


def _parse_float(mapping, key) -> Optional[float]:
    if key not in mapping:
        return None
    try:
        return finite_float(mapping[key])
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a finite number, "
                          f"got {mapping[key]!r}") from None


def _parse_int(mapping, key, default=None) -> Optional[int]:
    if key not in mapping:
        return default
    raw = mapping[key]
    try:
        value = int(str(raw))
    except ValueError:
        raise ConfigError(f"{key} must be an integer, got {raw!r}") from None
    return value


def _parse_bc(spec: str) -> BoundaryCondition:
    parts = str(spec).strip().split(":", 1)
    kind = parts[0].strip().lower()
    payload = parts[1] if len(parts) == 2 else ""
    try:
        if kind == "dirichlet":
            return BoundaryCondition.dirichlet(finite_float(payload or 0.0))
        if kind == "flux":
            return BoundaryCondition.flux(finite_float(payload or 0.0))
        if kind == "robin":
            a, b, phi = (finite_float(v) for v in payload.split(","))
            return BoundaryCondition.robin(a, b, phi)
    except (ValueError, TypeError):
        raise ConfigError(f"bad boundary spec {spec!r}") from None
    raise ConfigError(f"unknown boundary kind {kind!r} "
                      "(expected dirichlet/flux/robin)")


@dataclass(frozen=True)
class ExperimentConfig:
    """One parsed experiment: scheme, mesh, time step, BCs and initial profile.

    The ends are ``BoundaryCondition``s and ``initial`` is the ``(kind, arg)``
    pair of ``_parse_initial``.  Exactly one of ``dt`` and ``r`` is given;
    ``tau`` is either a number or one of the named rules ``nu_dx`` (tau =
    nu dx) and ``dx_over_cs`` (tau = dx / cs, needs ``cs``), which
    ``scheme_params`` resolves against the mesh width.
    """

    scheme: Scheme
    nu: float
    length_l: float
    num_cells_N: int
    dt: Optional[float]
    r: Optional[float]
    tau: Union[float, str]
    cs: Optional[float]
    bc_left: BoundaryCondition
    bc_right: BoundaryCondition
    initial: tuple
    num_steps: int
    snapshot_every: int
    seed: int

    @staticmethod
    def from_mapping(mapping: dict) -> "ExperimentConfig":
        unknown = set(mapping) - {f.name for f in fields(ExperimentConfig)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        for key in ("scheme", "nu", "length_l", "num_cells_N", "initial",
                    "num_steps"):
            if key not in mapping:
                raise ConfigError(f"missing required config key {key!r}")
        try:
            scheme = Scheme.parse(str(mapping["scheme"]))
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        nu = _parse_float(mapping, "nu")
        if nu <= 0.0:
            raise ConfigError(f"nu must be positive, got {mapping['nu']!r}")
        length_l = _parse_float(mapping, "length_l")
        if length_l <= 0.0:
            raise ConfigError("length_l must be positive")
        num_cells = _parse_int(mapping, "num_cells_N")
        if num_cells < 2:
            raise ConfigError("num_cells_N must be an integer >= 2")
        dt = _parse_float(mapping, "dt")
        r = _parse_float(mapping, "r")
        if (dt is None) == (r is None):
            raise ConfigError("exactly one of dt | r must be given")
        if dt is not None and dt <= 0.0:
            raise ConfigError("dt must be positive")
        if r is not None and r <= 0.0:
            raise ConfigError("r must be positive")
        tau_raw = mapping.get("tau", "nu_dx")
        if isinstance(tau_raw, str) and tau_raw.strip() in ("nu_dx", "dx_over_cs"):
            tau: Union[float, str] = tau_raw.strip()
        else:
            try:
                tau = finite_float(tau_raw)
            except (TypeError, ValueError):
                raise ConfigError(f"tau must be a finite number, 'nu_dx' or "
                                  f"'dx_over_cs', got {tau_raw!r}") from None
            if tau < 0.0:
                raise ConfigError("tau must be >= 0")
        cs = _parse_float(mapping, "cs")
        if tau == "dx_over_cs" and (cs is None or cs <= 0.0):
            raise ConfigError("tau rule dx_over_cs needs cs > 0")
        num_steps = _parse_int(mapping, "num_steps")
        if num_steps < 0:
            raise ConfigError("num_steps must be an integer >= 0")
        snapshot_every = _parse_int(mapping, "snapshot_every", 1)
        if snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")
        seed = _parse_int(mapping, "seed", 0)
        initial = _parse_initial(str(mapping["initial"]).strip())
        bc_left = _parse_bc(mapping.get("bc_left", "dirichlet:0"))
        bc_right = _parse_bc(mapping.get("bc_right", "dirichlet:0"))
        return ExperimentConfig(scheme=scheme, nu=nu, length_l=length_l,
                                num_cells_N=num_cells, dt=dt, r=r, tau=tau,
                                cs=cs, bc_left=bc_left, bc_right=bc_right,
                                initial=initial, num_steps=num_steps,
                                snapshot_every=snapshot_every, seed=seed)

    @staticmethod
    def from_file(path: Optional[str], overrides: Optional[list] = None
                  ) -> "ExperimentConfig":
        mapping: dict = {}
        if path is not None:
            text = Path(path).read_text()
            if str(path).endswith(".json") or text.lstrip().startswith("{"):
                try:
                    mapping = json.loads(text)
                except ValueError as exc:  # JSONDecodeError, or too many digits
                    raise ConfigError(f"bad JSON config: {exc}") from None
                if not isinstance(mapping, dict):
                    raise ConfigError("JSON config must be an object")
            else:
                for lineno, line in enumerate(text.splitlines(), start=1):
                    stripped = line.strip()
                    if not stripped or stripped.startswith("#"):
                        continue
                    if "=" not in stripped:
                        raise ConfigError(
                            f"{path}:{lineno}: expected key=value, got {line!r}")
                    key, _, value = stripped.partition("=")
                    mapping[key.strip()] = value.strip()
        for item in overrides or []:
            if "=" not in item:
                raise ConfigError(f"--set needs key=value, got {item!r}")
            key, _, value = item.partition("=")
            mapping[key.strip()] = value.strip()
        return ExperimentConfig.from_mapping(mapping)

    def scheme_params(self, dx: float) -> SchemeParams:
        """dt and tau resolved at mesh width ``dx``; the ``nu_dx`` rule leaves
        tau to ``SchemeParams``, whose default is nu dx.  A rule whose result
        overflows (or, for dt, underflows to 0) is a ConfigError that names
        the rule and its inputs."""
        if self.dt is None:
            dt = self.r * dx ** 2 / self.nu
            if not 0.0 < dt < math.inf:
                raise ConfigError(f"the r rule gives dt = r dx^2 / nu = {dt} "
                                  f"(r = {self.r}, dx = {dx}, nu = {self.nu})")
        else:
            dt = self.dt
        tau = self.tau
        if tau == "nu_dx":
            tau = None
        elif tau == "dx_over_cs":
            tau = dx / self.cs
            if not math.isfinite(tau):
                raise ConfigError(f"tau rule dx_over_cs gives tau = dx / cs = "
                                  f"{tau} (dx = {dx}, cs = {self.cs})")
        return SchemeParams(diffusivity=DiffusivityModel.constant(self.nu),
                            dt=dt, dx=dx, tau=tau)

    def build(self) -> tuple[Grid1D, SchemeParams, tuple, Field]:
        grid = build_uniform_grid(self.length_l, self.num_cells_N)
        bcs = (self.bc_left, self.bc_right)
        return grid, self.scheme_params(grid.dx), bcs, self.build_initial(grid)

    def build_initial(self, grid: Grid1D) -> Field:
        kind, arg = self.initial
        if kind == "dirac":
            node = grid.num_cells_N // 2 if arg is None else arg
            if not 0 <= node <= grid.num_cells_N:
                raise ConfigError(f"dirac node {node} outside 0..{grid.num_cells_N}")
            values = np.zeros(grid.num_cells_N + 1)
            values[node] = 1.0
            return Field(values=values, time_index=0)
        if kind == "sine":
            k = arg * math.pi / grid.length_l
            return sample_initial(lambda x: math.sin(k * x), grid)
        return _load_custom_profile(arg, grid)

    def sine_mode(self) -> int:
        kind, mode = self.initial
        if kind != "sine":
            raise ConfigError("this command needs a sine:m initial profile")
        return mode


def _parse_initial(spec: str) -> tuple:
    """("dirac", node or None), ("sine", mode >= 1) or ("custom", path)."""
    kind, _, arg = spec.partition(":")
    if kind not in ("dirac", "sine", "custom"):
        raise ConfigError(f"unknown initial profile {spec!r} "
                          "(expected dirac[:node], sine:m or custom:file)")
    if kind == "custom":
        return kind, arg
    if kind == "dirac" and not arg:
        return kind, None
    noun = "mode" if kind == "sine" else "node"
    try:
        value = int(arg)
    except ValueError:
        raise ConfigError(f"{kind} profile needs an integer {noun}, "
                          f"got {arg!r}") from None
    if kind == "sine" and value < 1:
        raise ConfigError("sine mode must be >= 1")
    return kind, value


def _load_custom_profile(path: str, grid: Grid1D) -> Field:
    try:
        data = np.loadtxt(path, dtype=float, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read custom profile {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad custom profile {path!r}: {exc}") from None
    if data.ndim != 2 or data.shape[1] != 2:
        raise ConfigError(f"custom profile {path!r} must have two columns x u")
    if not np.isfinite(data).all():
        raise ConfigError(f"custom profile {path!r} has a non-finite sample")
    if data.shape[0] != grid.num_cells_N + 1:
        raise ConfigError(f"custom profile has {data.shape[0]} samples, "
                          f"grid has {grid.num_cells_N + 1} nodes")
    tol = 1e-12 * max(1.0, grid.length_l)
    if max_abs(data[:, 0] - grid.nodes) > tol:
        raise ConfigError("custom profile x column does not match the grid "
                          "nodes (no interpolation is performed)")
    return Field(values=data[:, 1].copy(), time_index=0)


def _forced(bcs) -> bool:
    """Whether either end carries nonzero boundary data, which lights nodes
    next to its end before any front reaches them (the specs hold constants)."""
    return any(bc.forcing(0.0) != 0.0 for bc in bcs)


def cmd_run(config: ExperimentConfig, out: TextIO) -> int:
    """Run one experiment and emit one CSV row per snapshot; the support
    radius is left empty when an end carries nonzero data."""
    _, params, bcs, initial = config.build()
    record = run_simulation(initial, params, bcs, config.scheme,
                            config.num_steps, config.snapshot_every)
    radii = ([""] * len(record.snapshots) if _forced(bcs) else information_speed(
        record, source=int(np.argmax(np.abs(initial.values)))))
    out.write("step,time,max_norm,support_radius,diverged\n")
    for snap, norm, radius in zip(record.snapshots, record.max_norms, radii):
        diverged_here = record.diverged and snap.time_index == record.diverged_step
        out.write(f"{snap.time_index},{_fmt(snap.time_index * params.dt)},"
                  f"{_fmt(norm)},{radius},{_fmt_bool(diverged_here)}\n")
    return EXIT_DIVERGED if record.diverged else EXIT_OK


_DT_RULES = {"dx2": 2.0, "dx_3_2": 1.5, "dx": 1.0}


def cmd_converge(config: ExperimentConfig, refinements: int, dt_rule: str,
                 out: TextIO) -> int:
    """Refinement study against the closed-form oracle at the final time.

    The oracle is a sine mode, which solves only homogeneous Dirichlet
    ends; any other end is a config error naming it."""
    for name, bc in (("bc_left", config.bc_left), ("bc_right", config.bc_right)):
        if bc.kind is not BCKind.DIRICHLET or _forced((bc,)):
            raise ConfigError(
                f"converge needs dirichlet:0 at both ends (its sine-mode "
                f"oracle), got {name} {bc.kind.value} with data {bc.forcing(0.0)}")
    if refinements < 2:
        raise ConfigError(f"need at least 2 refinements, got {refinements}")
    if dt_rule not in _DT_RULES:
        raise ConfigError(f"unknown dt rule {dt_rule!r}; "
                          f"valid: {sorted(_DT_RULES)}")
    if config.num_steps < 1:
        raise ConfigError("converge needs num_steps >= 1 to set the horizon")
    mode = config.sine_mode()
    power = _DT_RULES[dt_rule]
    dx0 = config.length_l / config.num_cells_N
    dt0 = config.scheme_params(dx0).dt
    horizon = config.num_steps * dt0
    anchor = dt0 / dx0 ** power

    spec = SPECS[config.scheme]
    out.write("N,dx,dt,max_error,observed_order\n")
    prev_dx = prev_err = None
    for level in range(refinements):
        cells = config.num_cells_N * 2 ** level
        dt_target = anchor * (config.length_l / cells) ** power
        # whole advances only, so the final layer is consistency-grade
        steps = spec.layers * max(
            1, math.ceil(horizon / (spec.layers * dt_target) - 1e-9))
        grid, params, bcs, initial = replace(
            config, num_cells_N=cells, dt=horizon / steps, r=None).build()
        record = run_simulation(initial, params, bcs, config.scheme,
                                num_steps=steps, snapshot_every=steps)
        if record.diverged:
            print(f"converge: run diverged at N={cells}", file=sys.stderr)
            return EXIT_DIVERGED
        final = record.final
        t_final = final.time_index * params.dt
        if spec.relaxed:
            exact = hyperbolic_mode_solution(config.nu, params.tau,
                                             config.length_l, mode, t_final,
                                             grid.nodes)
        else:
            sol = SineSeriesSolution.single_mode(config.length_l, config.nu, mode)
            exact = evaluate_series(sol, grid.nodes, t_final)
        err = max_abs(final.values - exact)
        if prev_err is None or err <= 0.0 or prev_err <= 0.0:
            order = ""
        else:
            order = _fmt(math.log(prev_err / err) / math.log(prev_dx / grid.dx))
        out.write(f"{cells},{_fmt(grid.dx)},{_fmt(params.dt)},{_fmt(err)},{order}\n")
        prev_dx, prev_err = grid.dx, err
    return EXIT_OK


def cmd_stability(schemes: list, r_values: list, theta_samples: int,
                  out: TextIO) -> int:
    """Tabulate max |g| over theta for r-parameterized scheme symbols."""
    if not schemes or not r_values:
        raise ConfigError("need at least one scheme and one r value")
    parsed = []
    for name in schemes:
        scheme = Scheme.parse(name)
        if scheme not in _SYMBOL_SCHEMES:
            raise ConfigError(
                f"{scheme.value} has no r-only amplification symbol; "
                f"supported: {', '.join(s.value for s in _SYMBOL_SCHEMES)}")
        parsed.append(scheme)
    # all rows come before the first write: a rejected r leaves stdout empty
    rows = [(scheme, r, mx) for scheme in parsed for r, mx in zip(
        r_values, max_amplification(scheme, [float(r) for r in r_values],
                                    theta_samples=theta_samples))]
    out.write("scheme,r,max_amplification,stable\n")
    for scheme, r, mx in rows:
        out.write(f"{scheme.value},{_fmt(r)},{_fmt(mx)},"
                  f"{_fmt_bool(mx <= 1.0 + STABILITY_TOL)}\n")
    return EXIT_OK


def cmd_dispersion(nu: float, tau: float, kappa_max: float, samples: int,
                   out: TextIO) -> int:
    """Tabulate the two relaxed-equation branches against pure diffusion."""
    if samples < 2:
        raise ConfigError(f"need at least 2 samples, got {samples}")
    if nu <= 0.0 or tau <= 0.0 or kappa_max <= 0.0:
        raise ConfigError("need nu > 0, tau > 0 and kappa_max > 0")
    out.write("kappa,re_wplus,im_wplus,re_wminus,im_wminus,im_parabolic,rel_gap\n")
    for kappa in np.linspace(0.0, kappa_max, samples):
        sample = dispersion_branches(nu, tau, float(kappa))
        if kappa > 0.0:
            gap = _fmt(abs(sample.omega_plus - sample.omega_parabolic)
                       / abs(sample.omega_parabolic))
        else:
            gap = ""
        out.write(f"{_fmt(kappa)},{_fmt(sample.omega_plus.real)},"
                  f"{_fmt(sample.omega_plus.imag)},{_fmt(sample.omega_minus.real)},"
                  f"{_fmt(sample.omega_minus.imag)},"
                  f"{_fmt(sample.omega_parabolic.imag)},{gap}\n")
    return EXIT_OK


def cmd_bound(tau: float, big_m: float, horizon: float,
              check_config: Optional[ExperimentConfig], out: TextIO) -> int:
    """Evaluate the relaxation error bound, optionally against closed forms.

    With a config (sine:m initial) the curvature bound M is replaced by the
    analytic value (nu (m pi / l)^2)^2 for that mode and the measured gap
    between the relaxed and diffusive closed-form solutions is compared to
    the bound on a 200 x 200 space-time sample grid, one broadcast call per
    oracle over the whole grid.
    """
    if tau < 0.0 or big_m < 0.0 or horizon < 0.0:
        raise ConfigError("tau, M and horizon must be nonnegative")
    measured = None
    if check_config is not None:
        mode = check_config.sine_mode()
        nu, length = check_config.nu, check_config.length_l
        k = mode * math.pi / length
        big_m = (nu * k * k) ** 2
        xs = np.linspace(0.0, length, 200)
        ts = np.linspace(0.0, horizon, 200)[:, None]
        measured = 0.0
        if tau > 0.0:
            sol = SineSeriesSolution.single_mode(length, nu, mode)
            par = evaluate_series(sol, xs, ts)
            hyp = hyperbolic_mode_solution(nu, tau, length, mode, ts, xs)
            measured = max_abs(hyp - par)
    bound = hyperbolization_error_bound(tau, big_m, horizon)
    measured_text = "" if measured is None else _fmt(measured)
    within_text = "" if measured is None else _fmt_bool(measured <= bound)
    out.write("tau,M,T,bound,measured_max_delta_u,within_bound\n")
    out.write(f"{_fmt(tau)},{_fmt(big_m)},{_fmt(horizon)},{_fmt(bound)},"
              f"{measured_text},{within_text}\n")
    return EXIT_OK


def cmd_infospeed(config: ExperimentConfig, out: TextIO) -> int:
    """Support-radius growth of a point source, plus the measured cell speed.

    The cell speed is the largest support radius per step over the
    snapshots after the first (0 when there are none).  A zero Dirichlet
    end or the support threshold can only hold the support back, never push
    it ahead, so the largest rate is the one read before either clipped it.
    Nonzero boundary data is a config error.
    """
    if config.initial[0] != "dirac":
        raise ConfigError("infospeed needs the dirac initial profile")
    _, params, bcs, initial = config.build()
    if _forced(bcs):
        raise ConfigError("infospeed needs zero boundary data at both ends")
    record = run_simulation(initial, params, bcs, config.scheme,
                            config.num_steps, config.snapshot_every)
    radii = information_speed(record,
                              source=int(np.argmax(np.abs(initial.values))))

    out.write("step,support_radius\n")
    for snap, radius in zip(record.snapshots, radii):
        out.write(f"{snap.time_index},{radius}\n")

    start = record.snapshots[0].time_index
    cells_per_step = max((radius / (snap.time_index - start) for snap, radius
                          in zip(record.snapshots[1:], radii[1:])), default=0.0)
    out.write(f"c_s_cells_per_step,{_fmt(cells_per_step)}\n")
    out.write(f"c_s_physical,{_fmt(cells_per_step * params.dx / params.dt)}\n")
    return EXIT_DIVERGED if record.diverged else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """ArgumentParser that reports usage problems as config errors (exit 1)."""

    def error(self, message):
        raise ConfigError(message)


# cached: rebuilding costs ~1.2 ms a call, and parse_args never mutates it
@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="heatlab",
                     description="Finite-difference laboratory for the 1-D "
                                 "heat equation")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_config_args(p):
        p.add_argument("--config", help="key=value or JSON config file")
        p.add_argument("--set", dest="overrides", action="append", default=[],
                       metavar="KEY=VALUE", help="override one config key")

    p_run = sub.add_parser("run", help="run one experiment")
    add_config_args(p_run)

    p_conv = sub.add_parser("converge", help="refinement study vs oracle")
    add_config_args(p_conv)
    p_conv.add_argument("--refinements", type=int, required=True)
    p_conv.add_argument("--dt-rule", required=True,
                        choices=sorted(_DT_RULES),
                        help="dt scaling per refinement: dx2 (dt ~ dx^2), "
                             "dx_3_2 (dt ~ dx^1.5) or dx (dt ~ dx)")

    p_stab = sub.add_parser("stability", help="tabulate max amplification")
    p_stab.add_argument("--schemes", required=True,
                        help="comma-separated scheme names")
    p_stab.add_argument("--r-values", required=True,
                        help="comma-separated diffusion numbers")
    p_stab.add_argument("--theta-samples", type=int,
                        default=DEFAULT_THETA_SAMPLES)

    p_disp = sub.add_parser("dispersion", help="frequency branches table")
    p_disp.add_argument("--nu", type=finite_float, required=True)
    p_disp.add_argument("--tau", type=finite_float, required=True)
    p_disp.add_argument("--kappa-max", type=finite_float, required=True)
    p_disp.add_argument("--samples", type=int, required=True)

    p_bound = sub.add_parser("bound", help="relaxation error bound")
    p_bound.add_argument("--tau", type=finite_float, required=True)
    p_bound.add_argument("--big-m", type=finite_float,
                         help="sup |u_tt| bound M (or a config supplies it)")
    p_bound.add_argument("--horizon", type=finite_float, required=True)
    add_config_args(p_bound)

    p_info = sub.add_parser("infospeed", help="support growth of a point source")
    add_config_args(p_info)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    out = sys.stdout
    try:
        args = parser.parse_args(argv)
        if args.command == "run":
            config = ExperimentConfig.from_file(args.config, args.overrides)
            return cmd_run(config, out)
        if args.command == "converge":
            config = ExperimentConfig.from_file(args.config, args.overrides)
            return cmd_converge(config, args.refinements, args.dt_rule, out)
        if args.command == "stability":
            schemes = [s for s in args.schemes.split(",") if s]
            try:
                r_values = [float(v) for v in args.r_values.split(",") if v]
            except ValueError:
                raise ConfigError(f"bad --r-values {args.r_values!r}") from None
            return cmd_stability(schemes, r_values, args.theta_samples, out)
        if args.command == "dispersion":
            return cmd_dispersion(args.nu, args.tau, args.kappa_max,
                                  args.samples, out)
        if args.command == "bound":
            check = None
            if args.config is not None or args.overrides:
                check = ExperimentConfig.from_file(args.config, args.overrides)
            if (check is None) == (args.big_m is None):
                raise ConfigError("bound takes --big-m or a config "
                                  "(--config/--set), exactly one of them")
            return cmd_bound(args.tau, args.big_m or 0.0, args.horizon, check,
                             out)
        # infospeed: argparse admits no other sub-command
        config = ExperimentConfig.from_file(args.config, args.overrides)
        return cmd_infospeed(config, out)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (SolverError, SingularSystemError) as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
