"""Output checks behind ``failed_fraction``.

Every march job is compared, for every seed, with an independent
re-implementation of its scheme written here with numpy and scipy: the
implicit layers solve the full banded system with the boundary rows kept (the
program folds them into a tridiagonal one), and the Saulyev sweeps run as IIR
filters (the program loops in Python).  The two agree to round-off, so the
tolerance RTOL sits between round-off (about 1e-14 here) and the effect of a
wrong stencil coefficient.  Dirichlet sine-mode jobs are also compared with
the closed-form oracles.  At the default seed every job, and for every seed
every ``oracle_cli`` CSV, is compared with the golden values in golden.json.

Reals are compared with RTOL, integers, booleans and exit codes exactly.
"""

import json
import math

import numpy as np
from scipy.linalg import solve_banded
from scipy.signal import lfilter

import heatlab as hl

from workloads import AFFINE_K, BENCH_DIR, DISPERSION_TAUS, SAULYEV_CONVERGE, \
    general_k

GOLDEN_PATH = BENCH_DIR / "golden.json"
DEFAULT_SEED = 0
RTOL = 1e-9
CSV_ATOL = 1e-15
DIVERGENCE_THRESHOLD = 1e12
FIXED_POINT_TOL = 1e-13
GOLDEN_SAMPLES = 9


# ------------------------------------------------------------- reference steps

def _closure(spec, side, nu, dx):
    """(c1, c2, g) with u_end = c1 u_adj + c2 u_adj2 + g for one end."""
    kind, a, b, phi = spec
    if kind == "dirichlet":
        return 0.0, 0.0, phi
    if kind == "flux":
        a, b = 0.0, 1.0
    w = b * nu / (2.0 * dx)
    if side == "left":      # a u0 + w (-3 u0 + 4 u1 - u2) = phi
        den = a - 3.0 * w
        return -4.0 * w / den, w / den, phi / den
    den = a + 3.0 * w       # a uN + w (3 uN - 4 uN-1 + uN-2) = phi
    return 4.0 * w / den, -w / den, phi / den


def _close(v, job, nu_left, nu_right):
    dx = job.params.dx
    c1, c2, g = _closure(job.bcs_spec[0], "left", nu_left, dx)
    v[0] = c1 * v[1] + c2 * v[2] + g
    c1, c2, g = _closure(job.bcs_spec[1], "right", nu_right, dx)
    v[-1] = c1 * v[-2] + c2 * v[-3] + g
    return v


def _d2(u):
    return u[:-2] - 2.0 * u[1:-1] + u[2:]


def _implicit_layer(job, rho, rhs, nu_left, nu_right, diag_extra=0.0):
    """Solve the full (N+1)-node system whose end rows are the closures."""
    n = len(rhs) + 1
    dx = job.params.dx
    ab = np.zeros((5, n + 1))          # bands u=2 .. l=2, ab[2 + i - j, j]
    b = np.zeros(n + 1)
    ab[2, 1:n] = 1.0 + 2.0 * rho + diag_extra
    ab[1, 2:n + 1] = -rho              # A[j, j+1]
    ab[3, 0:n - 1] = -rho              # A[j, j-1]
    b[1:n] = rhs
    for side, spec, nu in (("left", job.bcs_spec[0], nu_left),
                           ("right", job.bcs_spec[1], nu_right)):
        c1, c2, g = _closure(spec, side, nu, dx)
        if side == "left":             # u0 - c1 u1 - c2 u2 = g
            ab[2, 0], ab[1, 1], ab[0, 2], b[0] = 1.0, -c1, -c2, g
        else:
            ab[2, n], ab[3, n - 1], ab[4, n - 2], b[n] = 1.0, -c1, -c2, g
    return solve_banded((2, 2), ab, b)


def _saulyev_pair(job, u):
    r = job.r
    a, c = (1.0 - r) / (1.0 + r), r / (1.0 + r)
    dx, n = job.params.dx, len(u) - 1

    def sweep(base, spec, side):
        # y_j = a base_j + c base_{j+1} + c y_{j-1}, from the start node inward
        f = a * base[1:n] + c * base[2:n + 1]
        c1, c2, g = _closure(spec, side, _nu(job), dx)
        if spec[0] == "dirichlet":
            start = g
        else:   # the closure couples the start to the first two swept values
            p1 = f[0]
            p2 = f[1] + c * f[0]
            start = (c1 * p1 + c2 * p2 + g) / (1.0 - c1 * c - c2 * c * c)
        y = np.empty(n + 1)
        y[0] = start
        y[1:n] = lfilter([1.0], [1.0, -c], f, zi=[c * start])[0]
        return y

    first = sweep(u, job.bcs_spec[0], "left")
    c1, c2, g = _closure(job.bcs_spec[1], "right", _nu(job), dx)
    first[n] = c1 * first[n - 1] + c2 * first[n - 2] + g
    second = sweep(first[::-1].copy(), job.bcs_spec[1], "right")[::-1].copy()
    c1, c2, g = _closure(job.bcs_spec[0], "left", _nu(job), dx)
    second[0] = c1 * second[1] + c2 * second[2] + g
    return [first, second]


def _nu(job):
    return job.params.diffusivity.nu_value


def _k(job, u):
    """Diffusivity of the affine (ccn) and general-k (cn_nonlinear) jobs."""
    if job.diffusivity == "affine":
        return AFFINE_K[0] + AFFINE_K[1] * u
    return general_k(u)


def _step(job, prev, u):
    """The layers one stepper call produces (two for the Saulyev pair)."""
    s, p = job.scheme.value, job.params
    dt, dx = p.dt, p.dx
    if s == "saulyev":
        return _saulyev_pair(job, u)
    if prev is None and s in ("leapfrog", "dufort_frankel"):
        s = "explicit"
    nu = _nu(job) if job.diffusivity == "constant" else None
    if s == "explicit":
        v = np.empty_like(u)
        v[1:-1] = u[1:-1] + (nu * dt / dx ** 2) * _d2(u)
        return [_close(v, job, nu, nu)]
    if s == "leapfrog":
        v = np.empty_like(u)
        v[1:-1] = prev[1:-1] + 2.0 * (nu * dt / dx ** 2) * _d2(u)
        return [_close(v, job, nu, nu)]
    if s == "dufort_frankel":
        lam = 2.0 * nu * dt / dx ** 2
        v = np.empty_like(u)
        v[1:-1] = ((1.0 - lam) * prev[1:-1] + lam * (u[2:] + u[:-2])) / (1.0 + lam)
        return [_close(v, job, nu, nu)]
    if s == "hyperbolic":
        tau = p.tau
        v = np.empty_like(u)
        if prev is None:     # Taylor start at zero velocity
            v[1:-1] = u[1:-1] + dt ** 2 / (2.0 * tau) * nu * _d2(u) / dx ** 2
        else:
            a = tau / dt ** 2 + 0.5 / dt
            b = tau / dt ** 2 - 0.5 / dt
            v[1:-1] = (2.0 * tau / dt ** 2 * u[1:-1] - b * prev[1:-1]
                       + nu * _d2(u) / dx ** 2) / a
        return [_close(v, job, nu, nu)]
    m = len(u) - 2
    if s == "implicit":
        rho = np.full(m, nu * dt / dx ** 2)
        return [_implicit_layer(job, rho, u[1:-1], nu, nu)]
    if s == "cn":
        rho = np.full(m, 0.5 * nu * dt / dx ** 2)
        return [_implicit_layer(job, rho, u[1:-1] + rho * _d2(u), nu, nu)]
    nu_left, nu_right = _k(job, float(u[0])), _k(job, float(u[-1]))
    half = 0.5 * dt / dx ** 2
    if s == "ccn":           # affine k = a + b u: linear in the new layer
        rho = half * _k(job, u[1:-1])
        a, b = AFFINE_K
        return [_implicit_layer(job, rho, u[1:-1] + half * a * _d2(u),
                                nu_left, nu_right,
                                diag_extra=-half * b * _d2(u))]
    # cn_nonlinear: iterate the frozen-k trapezoidal layer to its fixed point
    rhs = u[1:-1] + half * _k(job, u[1:-1]) * _d2(u)
    v = u.copy()
    for _ in range(200):
        w = _implicit_layer(job, half * _k(job, v[1:-1]), rhs, nu_left, nu_right)
        done = np.max(np.abs(w - v)) <= FIXED_POINT_TOL
        v = w
        if done:
            return [v]
    raise ArithmeticError("reference fixed point did not converge")


def _bad(v):
    norm = np.max(np.abs(v))
    return not np.isfinite(norm) or norm > DIVERGENCE_THRESHOLD


def reference_run(job):
    """Snapshots under run_simulation's rules, from the reference steppers.

    Returns a list of (time_index, consistent, values) and the diverged step.
    """
    saulyev = job.scheme.value == "saulyev"
    snaps = [(0, True, job.initial.values.copy())]
    prev, u, ti = None, job.initial.values.copy(), 0
    while ti < job.steps:
        layers = _step(job, prev, u)
        if saulyev and job.steps - ti == 1:
            layers = layers[:1]
        for v in layers:
            prev, u, ti = u, v, ti + 1
            consistent = ti % 2 == 0 if saulyev else True
            if _bad(v):
                snaps.append((ti, consistent, v))
                return snaps, ti
            if ti % job.snapshot_every == 0:
                snaps.append((ti, consistent, v))
    if snaps[-1][0] != ti:
        snaps.append((ti, ti % 2 == 0 if saulyev else True, u))
    return snaps, None


# ---------------------------------------------------------------- comparisons

def _close_enough(got, want, scale) -> bool:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= RTOL * scale))


def _oracle(job, t):
    """Closed-form solution at the nodes for a Dirichlet sine-mode job."""
    x = job.grid.nodes
    if job.scheme.value == "hyperbolic":
        return np.array([sum(a * hl.hyperbolic_mode_solution(
            _nu(job), job.params.tau, job.grid.length_l, m, t, xi)
            for m, a in job.modes) for xi in x])
    sol = hl.SineSeriesSolution(job.grid.length_l, _nu(job), job.modes)
    return np.array([hl.evaluate_series(sol, xi, t) for xi in x])


ORACLE_SCHEMES = ("explicit", "implicit", "cn", "dufort_frankel", "saulyev",
                  "hyperbolic")


def golden_digest(record) -> dict:
    final = record.final.values
    picks = np.linspace(0, len(final) - 1, GOLDEN_SAMPLES).round().astype(int)
    return {"diverged": bool(record.diverged),
            "diverged_step": record.diverged_step,
            "time_indices": [s.time_index for s in record.snapshots][-5:],
            "snapshots": len(record.snapshots),
            "final_norm": float(np.max(np.abs(final))),
            "final_sample": [float(v) for v in final[picks]]}


class Checker:
    """Checks job outputs; references are computed once per job and kept."""

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.golden = None
        if GOLDEN_PATH.exists() and (seed == DEFAULT_SEED
                                     or workload == "oracle_cli"):
            self.golden = json.loads(GOLDEN_PATH.read_text()).get(workload)
        self._refs = {}
        self.red_values = {}

    def check_march(self, job, record) -> list:
        """Problems with one run's record; an empty list means it passed."""
        if job.name not in self._refs:
            self._refs[job.name] = self._reference(job)
        snaps, diverged_step, oracle_err = self._refs[job.name]
        problems = []
        if record.diverged != job.expect_diverge:
            problems.append(f"diverged={record.diverged}, expected "
                            f"{job.expect_diverge}")
        if record.diverged_step != diverged_step:
            problems.append(f"diverged at {record.diverged_step}, reference "
                            f"at {diverged_step}")
        got = [(s.time_index, c) for s, c in zip(record.snapshots,
                                                 record.consistency_grade)]
        if got != [(ti, c) for ti, c, _ in snaps]:
            problems.append("snapshot indices or consistency flags differ")
        else:
            scale = max(np.max(np.abs(job.initial.values)), 1e-300)
            for snap, norm, (ti, _, want) in zip(record.snapshots,
                                                 record.max_norms, snaps):
                s = max(scale, np.max(np.abs(want)))
                if not (_close_enough(snap.values, want, s)
                        and _close_enough(norm, np.max(np.abs(want)), s)):
                    problems.append(f"layer {ti} differs from the reference "
                                    f"by {np.max(np.abs(snap.values - want)):.3e}")
                    break
        if oracle_err is not None and not record.diverged:
            ref_err, scale = oracle_err
            t = record.final.time_index * job.params.dt
            err = float(np.max(np.abs(record.final.values - _oracle(job, t))))
            if err > 1.5 * ref_err + RTOL * scale:
                problems.append(f"error {err:.3e} against the closed form, "
                                f"discretisation predicts {ref_err:.3e}")
        if self.golden is not None:
            want = self.golden.get(job.name)
            if want is None:
                problems.append("no golden entry")
            else:
                problems += _compare_digest(golden_digest(record), want)
        return problems

    def _reference(self, job):
        snaps, diverged_step = reference_run(job)
        oracle_err = None
        if (job.dirichlet_sine and job.scheme.value in ORACLE_SCHEMES
                and diverged_step is None):
            ti, _, final = snaps[-1]
            scale = float(np.max(np.abs(job.initial.values)))
            ref_err = float(np.max(np.abs(final - _oracle(job, ti * job.params.dt))))
            if ref_err > 1e-2 * scale:
                raise AssertionError(f"{job.name}: reference is {ref_err:.3e} "
                                     "from the closed form")
            oracle_err = (ref_err, scale)
        return snaps, diverged_step, oracle_err

    def check_cli(self, job, code: int, stdout: str) -> list:
        problems = []
        if code != job.expect_exit:
            problems.append(f"exit code {code}, expected {job.expect_exit}")
        want = None if self.golden is None else self.golden.get(job.name)
        if want is None:
            problems.append("no golden CSV")
        else:
            problems += compare_csv(stdout, want["stdout"])
            if want["exit"] != code:
                problems.append(f"exit code {code}, golden {want['exit']}")
        self._read_red_values(job.name, stdout)
        return problems

    def _read_red_values(self, name: str, stdout: str):
        """The documented red values: Saulyev order and kappa = 4 gap ratio."""
        rows = [line.split(",") for line in stdout.strip().splitlines()[1:]]
        if name == SAULYEV_CONVERGE and rows:
            self.red_values["saulyev_order_dx_3_2"] = float(rows[-1][4])
        if name in DISPERSION_TAUS:
            gap = {float(r[0]): r[6] for r in rows}.get(4.0)
            self.red_values[name] = float(gap) if gap else math.nan
            if all(n in self.red_values for n in DISPERSION_TAUS):
                self.red_values["gap_ratio_kappa4"] = (
                    self.red_values[DISPERSION_TAUS[0]]
                    / self.red_values[DISPERSION_TAUS[1]])

    def check_red_values(self) -> list:
        """Red values must match the golden ones: never turned green."""
        if self.workload != "oracle_cli" or self.golden is None:
            return []
        problems = []
        for key, want in self.golden["red_values"].items():
            got = self.red_values.get(key, math.nan)
            if not abs(got - want) <= RTOL * abs(want):
                problems.append(f"red value {key} = {got}, seed value {want}")
        return problems


def _compare_digest(got: dict, want: dict) -> list:
    problems = []
    for key in ("diverged", "diverged_step", "time_indices", "snapshots"):
        if got[key] != want[key]:
            problems.append(f"golden {key}: {got[key]} != {want[key]}")
    scale = max(want["final_norm"], 1e-300)
    if not (_close_enough(got["final_norm"], want["final_norm"], scale)
            and _close_enough(got["final_sample"], want["final_sample"], scale)):
        problems.append("final layer differs from golden")
    return problems


def _cell(text: str):
    if text in ("true", "false", ""):
        return text
    try:
        return int(text)
    except ValueError:
        return float(text)


def compare_csv(got: str, want: str) -> list:
    """Compare CSV texts: integers, booleans and text exactly, reals by RTOL."""
    got_rows = [line.split(",") for line in got.splitlines()]
    want_rows = [line.split(",") for line in want.splitlines()]
    if len(got_rows) != len(want_rows):
        return [f"{len(got_rows)} CSV lines, golden has {len(want_rows)}"]
    for i, (g_row, w_row) in enumerate(zip(got_rows, want_rows)):
        if len(g_row) != len(w_row):
            return [f"line {i}: {len(g_row)} fields, golden {len(w_row)}"]
        for g, w in zip(g_row, w_row):
            try:
                gv, wv = _cell(g), _cell(w)
            except ValueError:
                gv, wv = g, w           # header or label text
            if isinstance(wv, float) or isinstance(gv, float):
                if not (isinstance(gv, (int, float)) and isinstance(wv, (int, float))
                        and abs(gv - wv) <= RTOL * abs(wv) + CSV_ATOL):
                    return [f"line {i}: {g} != golden {w}"]
            elif gv != wv:
                return [f"line {i}: {g} != golden {w}"]
    return []
