"""Time-stepping schemes for u_t = nu u_xx (and k(u) u_xx) behind one contract.

Every stepper maps the layers it needs to the next layer as a pure function:
interiors are written first, endpoints are closed afterwards, and the layer
time is always ``time_index * dt``.  ``run_simulation`` drives every scheme
through one table whose entries return the new layers of one call (two for
the Saulyev sweep pair); only the last of them is consistency-grade.  It also
bootstraps the multi-layer schemes and flags divergence.

Diffusion number r = nu dt / dx^2 governs everything; the Dufort-Frankel
update uses 2 r and the Saulyev sweeps use r as their weight parameter.
"""

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .grid import BCKind, BoundaryCondition, Field, Side, close_boundary, \
    boundary_closure_coefficients
from .tridiag import SingularSystemError, TridiagonalSystem, thomas_solve

DIVERGENCE_THRESHOLD = 1e12
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 50


class DiffusivityError(ValueError):
    """Diffusivity evaluated to a non-positive value."""


class FixedPointError(RuntimeError):
    """Nonlinear fixed-point iteration failed to converge."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


class SolverError(RuntimeError):
    """A stepper failed during a run; carries the step index."""

    def __init__(self, step: int, cause: BaseException):
        super().__init__(f"step {step}: {cause}")
        self.step = step


class Scheme(Enum):
    EXPLICIT = "explicit"
    IMPLICIT = "implicit"
    LEAPFROG = "leapfrog"
    CRANK_NICOLSON = "cn"
    CN_NONLINEAR = "cn_nonlinear"
    CROSS_CN = "ccn"
    DUFORT_FRANKEL = "dufort_frankel"
    SAULYEV = "saulyev"
    HYPERBOLIC = "hyperbolic"

    @staticmethod
    def parse(name: str) -> "Scheme":
        try:
            return Scheme(name.strip().lower())
        except ValueError:
            valid = ", ".join(s.value for s in Scheme)
            raise ValueError(f"unknown scheme {name!r}; valid: {valid}") from None


class DiffusivityKind(Enum):
    CONSTANT = "constant"
    AFFINE = "affine"
    GENERAL = "general"


@dataclass(frozen=True)
class DiffusivityModel:
    """Diffusion coefficient: constant nu, affine a + b u, or a callable k(u).

    Every evaluation must stay positive; a non-positive value raises
    DiffusivityError and flags the run.
    """

    kind: DiffusivityKind
    nu_value: Optional[float] = None
    affine_a: float = 0.0
    affine_b: float = 0.0
    general_k: Optional[Callable[[float], float]] = None

    @staticmethod
    def constant(nu: float) -> "DiffusivityModel":
        if not nu > 0.0:
            raise ValueError(f"constant diffusivity must be positive, got {nu}")
        return DiffusivityModel(kind=DiffusivityKind.CONSTANT, nu_value=float(nu))

    @staticmethod
    def affine(a: float, b: float) -> "DiffusivityModel":
        return DiffusivityModel(kind=DiffusivityKind.AFFINE,
                                affine_a=float(a), affine_b=float(b))

    @staticmethod
    def general(k: Callable[[float], float]) -> "DiffusivityModel":
        return DiffusivityModel(kind=DiffusivityKind.GENERAL, general_k=k)

    def evaluate(self, u: float) -> float:
        if self.kind is DiffusivityKind.CONSTANT:
            value = self.nu_value
        elif self.kind is DiffusivityKind.AFFINE:
            value = self.affine_a + self.affine_b * u
        else:
            value = float(self.general_k(u))
        if not value > 0.0:
            raise DiffusivityError(f"diffusivity k({u}) = {value} is not positive")
        return value

    def evaluate_array(self, u: np.ndarray) -> np.ndarray:
        if self.kind is DiffusivityKind.CONSTANT:
            values = np.full_like(u, self.nu_value)
        elif self.kind is DiffusivityKind.AFFINE:
            values = self.affine_a + self.affine_b * u
        else:
            values = np.array([float(self.general_k(v)) for v in u], dtype=float)
        if not np.all(values > 0.0):
            bad = int(np.argmin(values))
            raise DiffusivityError(
                f"diffusivity k({u[bad]}) = {values[bad]} is not positive")
        return values


@dataclass(frozen=True)
class SchemeParams:
    """Time step, mesh width, diffusivity model and relaxation time.

    When tau is omitted it defaults to nu * dx (constant diffusivity), the
    standard choice for the relaxed two-layer scheme; pass tau explicitly to
    use another rule such as dx / c_s.
    """

    diffusivity: DiffusivityModel
    dt: float
    dx: float
    tau: Optional[float] = None

    def __post_init__(self):
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not self.dx > 0.0:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.tau is None:
            if self.diffusivity.kind is DiffusivityKind.CONSTANT:
                object.__setattr__(self, "tau", self.diffusivity.nu_value * self.dx)
            else:
                object.__setattr__(self, "tau", 0.0)
        if self.tau < 0.0:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    @property
    def nu(self) -> float:
        if self.diffusivity.kind is not DiffusivityKind.CONSTANT:
            raise ValueError("nu is defined only for constant diffusivity")
        return self.diffusivity.nu_value

    @property
    def diffusion_number_r(self) -> float:
        return self.nu * self.dt / self.dx ** 2

    @property
    def dufort_frankel_number(self) -> float:
        """Update weight of the two-layer averaged scheme, 2 r."""
        return 2.0 * self.diffusion_number_r

    @property
    def saulyev_number(self) -> float:
        """Sweep weight of the alternating one-sided scheme, r."""
        return self.diffusion_number_r


@dataclass(frozen=True)
class StepState:
    """Input layers for one step: previous (optional), current, params, BCs."""

    prev: Optional[Field]
    curr: Field
    params: SchemeParams
    bcs: tuple[BoundaryCondition, BoundaryCondition]

    def __post_init__(self):
        if self.prev is not None:
            if len(self.prev.values) != len(self.curr.values):
                raise ValueError("prev and curr layers have different sizes")
            if self.prev.time_index != self.curr.time_index - 1:
                raise ValueError(
                    f"prev layer must be one step behind curr "
                    f"({self.prev.time_index} vs {self.curr.time_index})")


@dataclass
class RunRecord:
    """Snapshots plus per-snapshot diagnostics of one simulation run."""

    snapshots: list = dc_field(default_factory=list)
    max_norms: list = dc_field(default_factory=list)
    consistency_grade: list = dc_field(default_factory=list)
    diverged: bool = False
    diverged_step: Optional[int] = None

    def append(self, layer: Field, consistent: bool = True):
        self.snapshots.append(layer)
        self.max_norms.append(layer.max_norm)
        self.consistency_grade.append(consistent)

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def _require_constant(params: SchemeParams, scheme_name: str):
    if params.diffusivity.kind is not DiffusivityKind.CONSTANT:
        raise ValueError(f"{scheme_name} requires constant diffusivity")


def _close_endpoints(values: np.ndarray, bcs, t_next: float,
                     nu_left: float, nu_right: float, dx: float):
    values[0] = close_boundary(bcs[0], Side.LEFT, values, t_next, nu_left, dx)
    values[-1] = close_boundary(bcs[1], Side.RIGHT, values, t_next, nu_right, dx)


def step_explicit(state: StepState) -> Field:
    """Forward-in-time, centered-in-space update.

    Interior: u_j <- u_j + r (u_{j-1} - 2 u_j + u_{j+1}).  With a non-constant
    diffusivity k(u) the weight is evaluated pointwise at the stencil center
    of the old layer.
    """
    params, bcs = state.params, state.bcs
    u = state.curr.values
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    if params.diffusivity.kind is DiffusivityKind.CONSTANT:
        interior = u[1:-1] + params.diffusion_number_r * d2
        nu_left = nu_right = params.nu
    else:
        k = params.diffusivity.evaluate_array(u[1:-1])
        interior = u[1:-1] + (k * params.dt / params.dx ** 2) * d2
        nu_left = params.diffusivity.evaluate(float(u[0]))
        nu_right = params.diffusivity.evaluate(float(u[-1]))
    out = np.empty_like(u)
    out[1:-1] = interior
    t_next = (state.curr.time_index + 1) * params.dt
    _close_endpoints(out, bcs, t_next, nu_left, nu_right, params.dx)
    return Field(values=out, time_index=state.curr.time_index + 1)


def _solve_interior_system(rho_new: np.ndarray, rhs: np.ndarray, bcs,
                           t_next: float,
                           nu_left: float, nu_right: float, dx: float,
                           diag_extra: Optional[np.ndarray] = None) -> np.ndarray:
    """Assemble and solve one implicit layer with folded boundary closures.

    Row j of the interior system reads
    ``-rho_j u_{j-1} + (1 + 2 rho_j) u_j - rho_j u_{j+1} = rhs_j``;
    non-Dirichlet closures express the endpoint through its two interior
    neighbours and are substituted into the first/last row, which keeps the
    matrix tridiagonal.  Returns the full new layer including endpoints.
    """
    m = len(rhs)
    diag = 1.0 + 2.0 * rho_new
    if diag_extra is not None:
        diag = diag + diag_extra
    upper = -rho_new[:-1]
    lower = -rho_new[1:]
    rhs = rhs.copy()  # callers reuse rhs across fixed-point iterates

    left, right = bcs
    if m < 2 and (left.kind, right.kind) != (BCKind.DIRICHLET, BCKind.DIRICHLET):
        raise ValueError("flux/Robin boundaries need at least 2 interior nodes")
    a1l, a2l, gl = boundary_closure_coefficients(left, Side.LEFT, t_next,
                                                 nu_left, dx)
    a1r, a2r, gr = boundary_closure_coefficients(right, Side.RIGHT, t_next,
                                                 nu_right, dx)
    diag[0] -= rho_new[0] * a1l
    if m >= 2:
        upper[0] -= rho_new[0] * a2l
    rhs[0] += rho_new[0] * gl
    diag[m - 1] -= rho_new[m - 1] * a1r
    if m >= 2:
        lower[m - 2] -= rho_new[m - 1] * a2r
    rhs[m - 1] += rho_new[m - 1] * gr

    x = thomas_solve(TridiagonalSystem(lower=lower, diag=diag,
                                       upper=upper, rhs=rhs))
    out = np.empty(m + 2, dtype=float)
    out[1:-1] = x
    out[0] = a1l * x[0] + (a2l * x[1] if m >= 2 else 0.0) + gl
    out[-1] = a1r * x[-1] + (a2r * x[-2] if m >= 2 else 0.0) + gr
    return out


def step_implicit(state: StepState) -> Field:
    """Backward-in-time update: (1 + 2r) u_j - r (u_{j-1} + u_{j+1}) = u_j^old."""
    params, bcs = state.params, state.bcs
    _require_constant(params, "implicit scheme")
    u = state.curr.values
    m = len(u) - 2
    rho = np.full(m, params.diffusion_number_r)
    rhs = u[1:-1].copy()
    t_next = (state.curr.time_index + 1) * params.dt
    out = _solve_interior_system(rho, rhs, bcs, t_next,
                                 params.nu, params.nu, params.dx)
    return Field(values=out, time_index=state.curr.time_index + 1)


def step_crank_nicolson(state: StepState) -> Field:
    """Trapezoidal update: both layers carry half of the diffusion operator."""
    params, bcs = state.params, state.bcs
    _require_constant(params, "Crank-Nicolson scheme")
    u = state.curr.values
    m = len(u) - 2
    nu = params.nu
    rho = np.full(m, 0.5 * (nu * params.dt / params.dx ** 2))
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    rhs = u[1:-1] + rho * d2
    t_next = (state.curr.time_index + 1) * params.dt
    out = _solve_interior_system(rho, rhs, bcs, t_next, nu, nu, params.dx)
    return Field(values=out, time_index=state.curr.time_index + 1)


def step_leapfrog(state: StepState) -> Field:
    """Symmetric-in-time explicit update (kept although it never damps).

    u_j <- u_j^{prev} + 2 r (u_{j-1} - 2 u_j + u_{j+1}).
    """
    params, bcs = state.params, state.bcs
    _require_constant(params, "leap-frog scheme")
    if state.prev is None:
        raise ValueError("leap-frog needs the previous layer")
    u = state.curr.values
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    out = np.empty_like(u)
    out[1:-1] = state.prev.values[1:-1] + (2.0 * params.diffusion_number_r) * d2
    t_next = (state.curr.time_index + 1) * params.dt
    _close_endpoints(out, bcs, t_next, params.nu, params.nu, params.dx)
    return Field(values=out, time_index=state.curr.time_index + 1)


def step_dufort_frankel(state: StepState) -> Field:
    """Two-layer averaged explicit update, stable for every time step.

    With w = 2 r: u_j <- ((1-w)/(1+w)) u_j^{prev} + (w/(1+w)) (u_{j+1} + u_{j-1}).
    """
    params, bcs = state.params, state.bcs
    _require_constant(params, "Dufort-Frankel scheme")
    if state.prev is None:
        raise ValueError("Dufort-Frankel needs the previous layer")
    lam = params.dufort_frankel_number
    a = (1.0 - lam) / (1.0 + lam)
    b = lam / (1.0 + lam)
    u = state.curr.values
    out = np.empty_like(u)
    out[1:-1] = a * state.prev.values[1:-1] + b * (u[2:] + u[:-2])
    t_next = (state.curr.time_index + 1) * params.dt
    _close_endpoints(out, bcs, t_next, params.nu, params.nu, params.dx)
    return Field(values=out, time_index=state.curr.time_index + 1)


def _fixed_point(iterate: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                 damping: float) -> np.ndarray:
    """Repeat ``v <- iterate(v)`` until the max-norm change is 1e-12.

    ``damping`` blends each new iterate with the previous one (0 means
    undamped); after 50 iterations FixedPointError reports the last change.
    """
    delta = np.inf
    for _ in range(FIXED_POINT_MAX_ITERS):
        candidate = iterate(v)
        if damping:
            candidate = (1.0 - damping) * candidate + damping * v
        delta = float(np.max(np.abs(candidate - v)))
        v = candidate
        if delta <= FIXED_POINT_TOL:
            return v
    raise FixedPointError(
        f"no convergence after {FIXED_POINT_MAX_ITERS} iterations "
        f"(last change {delta:.3e})", residual=delta)


def step_cn_nonlinear(state: StepState, damping: float = 0.0) -> Field:
    """Trapezoidal update for u_t = k(u) u_xx with k frozen per iterate.

    Solves the implicit relation by fixed-point iteration: evaluate k at the
    latest iterate, solve the resulting linear tridiagonal layer, repeat until
    the max-norm change drops to 1e-12 or 50 iterations pass.  ``damping``
    blends each new iterate with the previous one (0 means undamped).
    """
    params, bcs = state.params, state.bcs
    u = state.curr.values
    dt, dx = params.dt, params.dx
    model = params.diffusivity
    k_old = model.evaluate_array(u[1:-1])
    rho_old = 0.5 * (k_old * dt / dx ** 2)
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    rhs = u[1:-1] + rho_old * d2
    nu_left = model.evaluate(float(u[0]))
    nu_right = model.evaluate(float(u[-1]))
    t_next = (state.curr.time_index + 1) * dt

    def iterate(v):
        rho_new = 0.5 * (model.evaluate_array(v[1:-1]) * dt / dx ** 2)
        return _solve_interior_system(rho_new, rhs, bcs, t_next,
                                      nu_left, nu_right, dx)

    v = _fixed_point(iterate, u, damping)
    return Field(values=v, time_index=state.curr.time_index + 1)


def step_ccn(state: StepState, damping: float = 0.0) -> Field:
    """Cross-weighted trapezoidal update for u_t = k(u) u_xx.

    The new-layer diffusivity multiplies the old-layer difference and vice
    versa, so with affine k the new layer enters linearly and a single
    tridiagonal solve advances the step.  General k falls back to the same
    fixed-point iteration as the plain nonlinear trapezoidal stepper.
    """
    params, bcs = state.params, state.bcs
    u = state.curr.values
    dt, dx = params.dt, params.dx
    model = params.diffusivity
    k_old = model.evaluate_array(u[1:-1])
    rho_new = 0.5 * (k_old * dt / dx ** 2)
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    nu_left = model.evaluate(float(u[0]))
    nu_right = model.evaluate(float(u[-1]))
    t_next = (state.curr.time_index + 1) * dt

    if model.kind in (DiffusivityKind.CONSTANT, DiffusivityKind.AFFINE):
        if model.kind is DiffusivityKind.CONSTANT:
            a_k, b_k = model.nu_value, 0.0
        else:
            a_k, b_k = model.affine_a, model.affine_b
        rho_a = 0.5 * (a_k * dt / dx ** 2)
        bcoef = 0.5 * (b_k * dt / dx ** 2)
        rhs = u[1:-1] + rho_a * d2
        diag_extra = -(bcoef * d2)
        out = _solve_interior_system(rho_new, rhs, bcs, t_next,
                                     nu_left, nu_right, dx,
                                     diag_extra=diag_extra)
        return Field(values=out, time_index=state.curr.time_index + 1)

    def iterate(v):
        rhs = u[1:-1] + (0.5 * (model.evaluate_array(v[1:-1]) * dt / dx ** 2)) * d2
        return _solve_interior_system(rho_new, rhs, bcs, t_next,
                                      nu_left, nu_right, dx)

    v = _fixed_point(iterate, u, damping)
    return Field(values=v, time_index=state.curr.time_index + 1)


def _saulyev_start_value(bc: BoundaryCondition, side: Side, base: list,
                         a: float, c: float, t_next: float,
                         nu: float, dx: float) -> float:
    """First value of a one-sided sweep when the boundary is not Dirichlet.

    The closure couples the endpoint to the first two swept unknowns, which
    themselves depend linearly on the endpoint; substituting the sweep
    relation twice reduces the start to one scalar equation.
    """
    a1, a2, g = boundary_closure_coefficients(bc, side, t_next, nu, dx)
    n = len(base) - 1
    if n < 3:
        raise ValueError("non-Dirichlet Saulyev start needs N >= 3")
    if side is Side.LEFT:
        s1 = a * base[1] + c * base[2]
        s2 = a * base[2] + c * base[3] + c * s1
    else:
        s1 = a * base[n - 1] + c * base[n - 2]
        s2 = a * base[n - 2] + c * base[n - 3] + c * s1
    den = 1.0 - a1 * c - a2 * c * c
    if abs(den) <= 1e-12 * (1.0 + abs(a1 * c) + abs(a2 * c * c)):
        raise SingularSystemError("degenerate Saulyev sweep start")
    return (a1 * s1 + a2 * s2 + g) / den


def step_saulyev_pair(state: StepState) -> tuple[Field, Field]:
    """Two alternating one-sided sweeps; only the second layer is consistent.

    Stage 1 sweeps rightwards from the left closure, stage 2 sweeps leftwards
    from the right closure; both use the weight w = r:
    stage 1: u_j^{+1} = ((1-w)/(1+w)) u_j + (w/(1+w)) u_{j+1} + (w/(1+w)) u_{j-1}^{+1}
    stage 2 mirrors it one layer later.
    """
    params, bcs = state.params, state.bcs
    _require_constant(params, "Saulyev scheme")
    lam = params.saulyev_number
    a = (1.0 - lam) / (1.0 + lam)
    c = lam / (1.0 + lam)
    nu, dx, dt = params.nu, params.dx, params.dt
    left, right = bcs
    u = state.curr.values.tolist()
    n = len(u) - 1
    ti = state.curr.time_index
    t1 = (ti + 1) * dt
    t2 = (ti + 2) * dt

    out1 = [0.0] * (n + 1)
    if left.kind is BCKind.DIRICHLET:
        out1[0] = float(left.forcing(t1))
    else:
        out1[0] = _saulyev_start_value(left, Side.LEFT, u, a, c, t1, nu, dx)
    for j in range(1, n):
        out1[j] = a * u[j] + c * u[j + 1] + c * out1[j - 1]
    out1[n] = close_boundary(right, Side.RIGHT, np.asarray(out1), t1, nu, dx)

    out2 = [0.0] * (n + 1)
    if right.kind is BCKind.DIRICHLET:
        out2[n] = float(right.forcing(t2))
    else:
        out2[n] = _saulyev_start_value(right, Side.RIGHT, out1, a, c, t2, nu, dx)
    for j in range(n - 1, 0, -1):
        out2[j] = a * out1[j] + c * out1[j - 1] + c * out2[j + 1]
    out2[0] = close_boundary(left, Side.LEFT, np.asarray(out2), t2, nu, dx)

    first = Field(values=np.array(out1, dtype=float), time_index=ti + 1)
    second = Field(values=np.array(out2, dtype=float), time_index=ti + 2)
    return first, second


def step_hyperbolic(state: StepState) -> Field:
    """Three-layer update of the relaxed equation tau u_tt + u_t = nu u_xx.

    With a = tau/dt^2 + 1/(2 dt) and b = tau/dt^2 - 1/(2 dt):
    u_j <- [2 tau/dt^2 u_j - b u_j^{prev} + nu (u_{j+1} - 2 u_j + u_{j-1})/dx^2] / a.
    """
    params, bcs = state.params, state.bcs
    _require_constant(params, "hyperbolic scheme")
    if params.tau <= 0.0:
        raise ValueError("hyperbolic stepper needs tau > 0 "
                         "(with tau = 0 use step_explicit)")
    if state.prev is None:
        raise ValueError("hyperbolic stepper needs the previous layer")
    tau, dt, dx, nu = params.tau, params.dt, params.dx, params.nu
    a = tau / dt ** 2 + 1.0 / (2.0 * dt)
    b = tau / dt ** 2 - 1.0 / (2.0 * dt)
    u = state.curr.values
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    out = np.empty_like(u)
    out[1:-1] = (2.0 * tau / dt ** 2 * u[1:-1]
                 - b * state.prev.values[1:-1]
                 + nu * d2 / dx ** 2) / a
    t_next = (state.curr.time_index + 1) * dt
    _close_endpoints(out, bcs, t_next, nu, nu, dx)
    return Field(values=out, time_index=state.curr.time_index + 1)


def bootstrap_hyperbolic(initial: Field, params: SchemeParams,
                         bcs: Optional[tuple] = None) -> Field:
    """Synthetic first layer for the three-layer relaxed scheme.

    Starts from zero initial velocity, so a second-order Taylor start gives
    u_j^1 = u_j^0 + (dt^2 / (2 tau)) nu (u_{j+1} - 2 u_j + u_{j-1}) / dx^2.
    Endpoints come from the closures when BCs are provided, otherwise they
    are carried over unchanged.
    """
    _require_constant(params, "hyperbolic bootstrap")
    if params.tau <= 0.0:
        raise ValueError("hyperbolic bootstrap needs tau > 0")
    u = initial.values
    d2 = u[:-2] - 2.0 * u[1:-1] + u[2:]
    out = np.empty_like(u)
    out[1:-1] = u[1:-1] + (params.dt ** 2 / (2.0 * params.tau)) * (
        params.nu * d2 / params.dx ** 2)
    t_next = (initial.time_index + 1) * params.dt
    if bcs is not None:
        _close_endpoints(out, bcs, t_next, params.nu, params.nu, params.dx)
    else:
        out[0] = u[0]
        out[-1] = u[-1]
    return Field(values=out, time_index=initial.time_index + 1)


def _one(stepper: Callable[[StepState], Field]):
    return lambda state: (stepper(state),)


def _start_hyperbolic(state: StepState) -> tuple:
    return (bootstrap_hyperbolic(state.curr, state.params, state.bcs),)


# Scheme -> (step, start).  ``step`` returns the tuple of new layers, of which
# only the last is consistency-grade; ``start`` replaces it on the first call,
# when there is no previous layer (None: ``step`` needs none).
_STEPPERS = {
    Scheme.EXPLICIT: (_one(step_explicit), None),
    Scheme.IMPLICIT: (_one(step_implicit), None),
    Scheme.CRANK_NICOLSON: (_one(step_crank_nicolson), None),
    Scheme.CN_NONLINEAR: (_one(step_cn_nonlinear), None),
    Scheme.CROSS_CN: (_one(step_ccn), None),
    Scheme.LEAPFROG: (_one(step_leapfrog), _one(step_explicit)),
    Scheme.DUFORT_FRANKEL: (_one(step_dufort_frankel), _one(step_explicit)),
    Scheme.SAULYEV: (step_saulyev_pair, None),
    Scheme.HYPERBOLIC: (_one(step_hyperbolic), _start_hyperbolic),
}


def _is_bad(layer: Field) -> bool:
    norm = layer.max_norm
    return not np.isfinite(norm) or norm > DIVERGENCE_THRESHOLD


def run_simulation(initial: Field, params: SchemeParams, bcs,
                   scheme: Scheme, num_steps: int,
                   snapshot_every: int = 1) -> RunRecord:
    """Advance ``initial`` by ``num_steps`` layers and record snapshots.

    Each table entry returns its new layers and only the last of them is
    consistency-grade, so the Saulyev pair's odd layers (and a final pair cut
    short at ``num_steps``) are flagged False.  Multi-layer schemes bootstrap
    themselves: leap-frog and Dufort-Frankel take their first step with the
    explicit scheme, the hyperbolic scheme builds its first layer from the
    zero-velocity Taylor start.  The run halts and flags divergence as soon
    as a layer has a non-finite value or max-norm above 1e12; stepper
    failures are re-raised with the failing step index attached.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")

    step, start = _STEPPERS[scheme]
    start = start or step
    end = initial.time_index + num_steps
    record = RunRecord()
    record.append(initial, consistent=True)
    prev: Optional[Field] = None
    curr = initial
    consistent = True
    while curr.time_index < end:
        state = StepState(prev=prev, curr=curr, params=params, bcs=bcs)
        try:
            produced = (start if prev is None else step)(state)
        except (SingularSystemError, FixedPointError, DiffusivityError,
                ValueError, ZeroDivisionError) as exc:
            raise SolverError(step=curr.time_index + 1, cause=exc) from exc

        for i, layer in enumerate(produced[:end - curr.time_index]):
            prev, curr = curr, layer
            consistent = i == len(produced) - 1
            if _is_bad(layer):
                record.diverged = True
                record.diverged_step = layer.time_index
                record.append(layer, consistent=consistent)
                return record
            if (layer.time_index - initial.time_index) % snapshot_every == 0:
                record.append(layer, consistent=consistent)

    if record.snapshots[-1].time_index != curr.time_index:
        record.append(curr, consistent=consistent)
    return record
