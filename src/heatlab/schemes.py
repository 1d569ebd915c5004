"""Time-stepping schemes for u_t = nu u_xx (and k(u) u_xx) behind one contract.

Every scheme is a plan: ``plan(params, bcs, n_nodes)`` validates the scheme
against the diffusivity and tau and computes, once per run, everything that
does not change from step to step: the scheme coefficients, the boundary
closures, the Saulyev sweep band and, for implicit and Crank-Nicolson, the
folded tridiagonal bands.  All plans take their closures from one
``_ends_of`` factory (``grid.closure`` per end), which also holds the one
node-count rule: a flux or Robin end needs N >= 3.  A plan returns
``advance(prev, curr, time_index)``, which maps bare arrays (``prev`` is
None on the first call) to the tuple of new layers: one, or two for the
Saulyev sweep pair, of which only the last is consistency-grade.  Per step
an advance evaluates the stencil, each closure's forcing once and, where k
varies, the diffusivity (and with it the flux/Robin closures); interiors are
written first, endpoints are closed afterwards through the closures, and the
layer time is always ``time_index * dt``.  Called without a previous layer,
the multi-layer schemes start themselves.
``run_simulation`` drives every scheme through one table of plans and flags
divergence; the public ``step_*`` functions build a plan and advance once.

Diffusion number r = nu dt / dx^2 governs everything; the Dufort-Frankel
update uses 2 r and the Saulyev sweeps use r as their weight parameter.
"""

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .grid import BCKind, BoundaryCondition, Closure, Field, Side, closure
# No stepper calls these two; bench/spans.py wraps them as attributes of
# this module.
from .grid import boundary_closure_coefficients, close_boundary  # noqa: F401
from .tridiag import SingularSystemError, TridiagonalSystem, thomas_solve

DIVERGENCE_THRESHOLD = 1e12
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 50


class DiffusivityError(ValueError):
    """Diffusivity evaluated to a non-positive or non-finite value."""


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

    General k is called once per evaluation, on a read-only float64 view of
    the nodes that it must not write into, and returns a scalar or an array
    that broadcasts to their shape.  Overflow, invalid operations and division
    by zero in k raise FloatingPointError.  A value that is not finite and
    positive raises DiffusivityError naming its index, u and k; so does a
    TypeError from k (a k written for Python floats).
    """

    kind: DiffusivityKind
    nu_value: Optional[float] = None
    affine_a: float = 0.0
    affine_b: float = 0.0
    general_k: Optional[Callable[[np.ndarray], object]] = None

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
    def general(k: Callable[[np.ndarray], object]) -> "DiffusivityModel":
        return DiffusivityModel(kind=DiffusivityKind.GENERAL, general_k=k)

    def evaluate(self, u: float) -> float:
        return float(self.evaluate_array(np.array([u], dtype=float))[0])

    def evaluate_array(self, u: np.ndarray) -> np.ndarray:
        if self.kind is DiffusivityKind.CONSTANT:
            values = np.full_like(u, self.nu_value)
        elif self.kind is DiffusivityKind.AFFINE:
            values = self.affine_a + self.affine_b * u
        else:
            view = u.view()
            view.flags.writeable = False
            with np.errstate(all="raise", under="ignore"):
                try:
                    values = self.general_k(view)
                except TypeError as exc:
                    raise DiffusivityError(
                        f"k raised TypeError ({exc}); k is called once on the "
                        "float64 node array, not once per node") from exc
                values = np.asarray(values, dtype=float)
            if values.shape != u.shape:  # broadcast_to costs a few us
                values = np.broadcast_to(values, u.shape)
        ok = np.isfinite(values) & (values > 0.0)
        if not ok.all():
            bad = int(np.argmin(ok))
            raise DiffusivityError(f"diffusivity k(u[{bad}] = {u[bad]}) = "
                                   f"{values[bad]} is not finite and positive")
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

    def append(self, layer: Field, consistent: bool = True,
               norm: Optional[float] = None):
        """Keep ``layer``; ``norm`` is its max norm if the caller has it."""
        self.snapshots.append(layer)
        self.max_norms.append(layer.max_norm if norm is None else norm)
        self.consistency_grade.append(consistent)

    @property
    def final(self) -> Field:
        return self.snapshots[-1]


def _require_constant(params: SchemeParams, scheme_name: str):
    if params.diffusivity.kind is not DiffusivityKind.CONSTANT:
        raise ValueError(f"{scheme_name} requires constant diffusivity")


# A plan's advance maps (prev, curr, time_index) to the tuple of new layers.
Advance = Callable[[Optional[np.ndarray], np.ndarray, int], tuple]


def _second_difference(u: np.ndarray) -> np.ndarray:
    return u[:-2] - 2.0 * u[1:-1] + u[2:]


def _forward_interior(u: np.ndarray, r) -> np.ndarray:
    """Forward-in-time, centred-in-space interior; r is a scalar or an array."""
    return u[1:-1] + r * _second_difference(u)


# ------------------------------------------------------------ closures

def _ends_of(params: SchemeParams, bcs, n_nodes: int):
    """``ends_of(u)``: the (left, right) closures of the layer after ``u``.

    Every plan builds it, so the one node-count rule lives here: a flux or
    Robin end needs N >= 3, as its closure reads two interior new-layer
    nodes (at N = 2 one is the other endpoint, not yet written), a folded
    end needs two interior unknowns and a Saulyev start reaches three nodes
    in.  Closures are built now, except a flux or Robin closure under
    varying k: it reads k at its endpoint of ``u`` and is rebuilt per call.
    """
    if n_nodes < 4 and any(bc.kind is not BCKind.DIRICHLET for bc in bcs):
        raise ValueError("flux/Robin boundaries need N >= 3 (at least 4 nodes)")
    model, dx = params.diffusivity, params.dx
    sides = {0: Side.LEFT, -1: Side.RIGHT}  # an end's index in bcs and in u
    varying = [i for i in sides if bcs[i].kind is not BCKind.DIRICHLET
               and model.kind is not DiffusivityKind.CONSTANT]
    # nu_value is None for non-constant k, which a Dirichlet closure ignores
    ends = [None if i in varying else closure(bcs[i], side, model.nu_value, dx)
            for i, side in sides.items()]
    if not varying:
        fixed = tuple(ends)
        return lambda u: fixed

    def ends_of(u):  # one evaluation of k for the varying ends together
        for i, nu in zip(varying, model.evaluate_array(u[varying]).tolist()):
            ends[i] = closure(bcs[i], sides[i], nu, dx)
        return tuple(ends)
    return ends_of


def _closed_plan(params: SchemeParams, bcs, n_nodes: int, interior) -> Advance:
    """Advance of an explicit scheme: ``interior(prev, u)``, then both
    closures at the new layer's time."""
    dt = params.dt
    ends_of = _ends_of(params, bcs, n_nodes)

    def advance(prev, u, time_index):
        out = np.empty_like(u)
        out[1:-1] = interior(prev, u)
        left, right = ends_of(u)
        t = (time_index + 1) * dt
        left.put(out, left.term(t))
        right.put(out, right.term(t))
        return (out,)
    return advance


# ------------------------------------------------- folded implicit layers

def _fold(rho: np.ndarray, diag: np.ndarray, ends: tuple) -> tuple:
    """Bands (lower, diag, upper) of one implicit layer, closures folded in.

    Row j of the interior system reads
    ``-rho_j u_{j-1} + diag_j u_j - rho_j u_{j+1} = rhs_j``; each closure
    expresses its endpoint through the two interior neighbours and is
    substituted into the first/last row, which keeps the matrix
    tridiagonal.  ``diag`` is modified in place.  With one interior node
    (Dirichlet ends only, a2 = 0) the off-diagonal bands are empty.
    """
    left, right = ends
    upper = -rho[:-1]
    lower = -rho[1:]
    diag[0] -= rho[0] * left.a1
    diag[-1] -= rho[-1] * right.a1
    if len(upper):
        upper[0] -= rho[0] * left.a2
        lower[-1] -= rho[-1] * right.a2
    return lower, diag, upper


def _solve_folded(bands: tuple, rho: np.ndarray, rhs: np.ndarray,
                  ends: tuple, terms: tuple) -> np.ndarray:
    """Solve one folded layer and close it; ``terms`` are the closures'
    forcing terms g at the layer's time, added to ``rhs`` in place."""
    (left, right), (gl, gr) = ends, terms
    rhs[0] += rho[0] * gl
    rhs[-1] += rho[-1] * gr
    lower, diag, upper = bands
    out = np.empty(len(rhs) + 2)
    out[1:-1] = thomas_solve(TridiagonalSystem(lower=lower, diag=diag,
                                               upper=upper, rhs=rhs))
    left.put(out, gl)
    right.put(out, gr)
    return out


def _terms(ends: tuple, t: float) -> tuple:
    return ends[0].term(t), ends[1].term(t)


def _folded_plan(params: SchemeParams, bcs, rho: np.ndarray, rhs_of) -> Advance:
    """Advance of a constant-k implicit scheme: solve ``rhs_of(u)`` against
    bands folded once; each step adds only the forcing terms."""
    ends = _ends_of(params, bcs, len(rho) + 2)(None)
    bands = _fold(rho, 1.0 + 2.0 * rho, ends)
    dt = params.dt
    return lambda prev, u, time_index: (_solve_folded(
        bands, rho, rhs_of(u), ends, _terms(ends, (time_index + 1) * dt)),)


def _fixed_point(iterate: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                 k: np.ndarray, model: DiffusivityModel,
                 damping: float) -> np.ndarray:
    """Repeat ``v <- iterate(k(v))`` until the max-norm change is 1e-12.

    ``iterate`` maps the interior diffusivities of the latest iterate to the
    next one; ``k`` is ``model`` on the interior of the starting ``v``, so
    each iterate calls k once, on its interior, and the converged one not at
    all.  ``damping`` blends each new iterate with the previous one (0 means
    undamped); after 50 iterations FixedPointError reports the last change.
    """
    delta = np.inf
    for i in range(FIXED_POINT_MAX_ITERS):
        if i:
            k = model.evaluate_array(v[1:-1])
        candidate = iterate(k)
        if damping:
            candidate = (1.0 - damping) * candidate + damping * v
        delta = float(np.max(np.abs(candidate - v)))
        v = candidate
        if delta <= FIXED_POINT_TOL:
            return v
    raise FixedPointError(
        f"no convergence after {FIXED_POINT_MAX_ITERS} iterations "
        f"(last change {delta:.3e})", residual=delta)


# ------------------------------------------------------------------ plans

def _plan_explicit(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    model, dt, dx = params.diffusivity, params.dt, params.dx
    if model.kind is DiffusivityKind.CONSTANT:
        r = params.diffusion_number_r
        return _closed_plan(params, bcs, n_nodes,
                            lambda prev, u: _forward_interior(u, r))
    return _closed_plan(params, bcs, n_nodes, lambda prev, u: _forward_interior(
        u, model.evaluate_array(u[1:-1]) * dt / dx ** 2))


def _plan_implicit(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    _require_constant(params, "implicit scheme")
    return _folded_plan(params, bcs, np.full(n_nodes - 2, params.diffusion_number_r),
                        lambda u: u[1:-1].copy())


def _plan_crank_nicolson(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    _require_constant(params, "Crank-Nicolson scheme")
    rho = 0.5 * (params.nu * params.dt / params.dx ** 2)
    return _folded_plan(params, bcs, np.full(n_nodes - 2, rho),
                        lambda u: u[1:-1] + rho * _second_difference(u))


def _plan_leapfrog(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    _require_constant(params, "leap-frog scheme")
    r = params.diffusion_number_r

    def interior(prev, u):
        if prev is None:  # the explicit start
            return _forward_interior(u, r)
        return prev[1:-1] + (2.0 * r) * _second_difference(u)
    return _closed_plan(params, bcs, n_nodes, interior)


def _plan_dufort_frankel(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    _require_constant(params, "Dufort-Frankel scheme")
    r = params.diffusion_number_r
    lam = 2.0 * r
    a = (1.0 - lam) / (1.0 + lam)
    b = lam / (1.0 + lam)

    def interior(prev, u):
        if prev is None:  # the explicit start
            return _forward_interior(u, r)
        return a * prev[1:-1] + b * (u[2:] + u[:-2])
    return _closed_plan(params, bcs, n_nodes, interior)


def _plan_cn_nonlinear(params: SchemeParams, bcs, n_nodes: int,
                       damping: float = 0.0) -> Advance:
    model, dt, dx = params.diffusivity, params.dt, params.dx
    ends_of = _ends_of(params, bcs, n_nodes)

    def advance(prev, u, time_index):
        k_old = model.evaluate_array(u[1:-1])
        rhs = u[1:-1] + 0.5 * (k_old * dt / dx ** 2) * _second_difference(u)
        ends = ends_of(u)
        terms = _terms(ends, (time_index + 1) * dt)

        def iterate(k):
            rho_new = 0.5 * (k * dt / dx ** 2)
            bands = _fold(rho_new, 1.0 + 2.0 * rho_new, ends)
            return _solve_folded(bands, rho_new, rhs.copy(), ends, terms)

        return (_fixed_point(iterate, u, k_old, model, damping),)
    return advance


def _plan_ccn(params: SchemeParams, bcs, n_nodes: int,
              damping: float = 0.0) -> Advance:
    model, dt, dx = params.diffusivity, params.dt, params.dx
    ends_of = _ends_of(params, bcs, n_nodes)
    linear = model.kind is not DiffusivityKind.GENERAL
    if linear:  # k = a + b u, with b = 0 for constant k
        a_k = (model.nu_value if model.kind is DiffusivityKind.CONSTANT
               else model.affine_a)
        rho_a = 0.5 * (a_k * dt / dx ** 2)
        rho_b = 0.5 * (model.affine_b * dt / dx ** 2)

    def advance(prev, u, time_index):
        k_old = model.evaluate_array(u[1:-1])
        rho_new = 0.5 * (k_old * dt / dx ** 2)
        d2 = _second_difference(u)
        ends = ends_of(u)
        terms = _terms(ends, (time_index + 1) * dt)
        if linear:
            bands = _fold(rho_new, 1.0 + 2.0 * rho_new - rho_b * d2, ends)
            return (_solve_folded(bands, rho_new, u[1:-1] + rho_a * d2,
                                  ends, terms),)
        bands = _fold(rho_new, 1.0 + 2.0 * rho_new, ends)

        def iterate(k):
            rhs = u[1:-1] + (0.5 * (k * dt / dx ** 2)) * d2
            return _solve_folded(bands, rho_new, rhs, ends, terms)

        return (_fixed_point(iterate, u, k_old, model, damping),)
    return advance


def _saulyev_start(bc: BoundaryCondition, end: Closure, side: Side, a: float,
                   c: float, n: int):
    """``start(base, t)``: first value of a one-sided sweep over ``base``.

    Dirichlet pins it.  Otherwise the closure ``end`` couples the endpoint
    to the first two swept unknowns, which themselves depend linearly on the
    endpoint; substituting the sweep relation twice reduces the start to one
    scalar equation, whose denominator is checked once, here.
    """
    a1, a2, term, _ = end
    if bc.kind is BCKind.DIRICHLET:
        return lambda base, t: term(t)
    den = 1.0 - a1 * c - a2 * c * c
    if abs(den) <= 1e-12 * (1.0 + abs(a1 * c) + abs(a2 * c * c)):
        raise SingularSystemError("degenerate Saulyev sweep start")
    j1, j2, j3 = (1, 2, 3) if side is Side.LEFT else (n - 1, n - 2, n - 3)

    def start(base, t):
        s1 = a * base[j1] + c * base[j2]
        s2 = a * base[j2] + c * base[j3] + c * s1
        return (a1 * s1 + a2 * s2 + term(t)) / den
    return start


def _plan_saulyev(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    from scipy.linalg.blas import dtbsv
    _require_constant(params, "Saulyev scheme")
    lam = params.diffusion_number_r
    a = (1.0 - lam) / (1.0 + lam)
    c = lam / (1.0 + lam)
    dt = params.dt
    n = n_nodes - 1
    left, right = _ends_of(params, bcs, n_nodes)(None)
    start_left = _saulyev_start(bcs[0], left, Side.LEFT, a, c, n)
    start_right = _saulyev_start(bcs[1], right, Side.RIGHT, a, c, n)
    band = np.full((2, n), -c, order="F")  # dtbsv ignores the diagonal row

    def advance(prev, u, time_index):
        t1 = (time_index + 1) * dt
        t2 = (time_index + 2) * dt
        out1 = np.empty(n + 1)
        out1[0] = start_left(u, t1)
        out1[1:n] = a * u[1:n] + c * u[2:]
        dtbsv(1, band, out1[:n], lower=1, diag=1, overwrite_x=1)
        right.put(out1, right.term(t1))

        out2 = np.empty(n + 1)
        out2[n] = start_right(out1, t2)
        out2[1:n] = a * out1[1:n] + c * out1[:n - 1]
        dtbsv(1, band, out2[1:], lower=0, diag=1, overwrite_x=1)
        left.put(out2, left.term(t2))
        return out1, out2
    return advance


def _plan_hyperbolic(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    _require_constant(params, "hyperbolic scheme")
    if params.tau <= 0.0:
        raise ValueError("hyperbolic scheme needs tau > 0 "
                         "(with tau = 0 use the explicit scheme)")
    tau, dt, dx, nu = params.tau, params.dt, params.dx, params.nu
    a = tau / dt ** 2 + 1.0 / (2.0 * dt)
    b = tau / dt ** 2 - 1.0 / (2.0 * dt)
    c = 2.0 * tau / dt ** 2
    taylor = dt ** 2 / (2.0 * tau)
    dx2 = dx ** 2

    def interior(prev, u):
        diffusion = nu * _second_difference(u) / dx2
        if prev is None:  # the zero-velocity Taylor start
            return u[1:-1] + taylor * diffusion
        return (c * u[1:-1] - b * prev[1:-1] + diffusion) / a
    return _closed_plan(params, bcs, n_nodes, interior)


# ------------------------------------------------------- public steppers

def _advance_once(plan, state: StepState, needs_prev: str = "",
                  **options) -> tuple:
    """The layers one call of ``plan``'s advance makes from ``state``."""
    curr = state.curr
    advance = plan(state.params, state.bcs, len(curr.values), **options)
    if needs_prev and state.prev is None:
        raise ValueError(f"{needs_prev} needs the previous layer")
    prev = None if state.prev is None else state.prev.values
    layers = advance(prev, curr.values, curr.time_index)
    return tuple(Field(values=values, time_index=curr.time_index + i + 1)
                 for i, values in enumerate(layers))


def step_explicit(state: StepState) -> Field:
    """Forward-in-time, centered-in-space update.

    Interior: u_j <- u_j + r (u_{j-1} - 2 u_j + u_{j+1}).  With a non-constant
    diffusivity k(u) the weight is evaluated pointwise at the stencil center
    of the old layer.
    """
    return _advance_once(_plan_explicit, state)[0]


def step_implicit(state: StepState) -> Field:
    """Backward-in-time update: (1 + 2r) u_j - r (u_{j-1} + u_{j+1}) = u_j^old."""
    return _advance_once(_plan_implicit, state)[0]


def step_crank_nicolson(state: StepState) -> Field:
    """Trapezoidal update: both layers carry half of the diffusion operator."""
    return _advance_once(_plan_crank_nicolson, state)[0]


def step_leapfrog(state: StepState) -> Field:
    """Symmetric-in-time explicit update (kept although it never damps).

    u_j <- u_j^{prev} + 2 r (u_{j-1} - 2 u_j + u_{j+1}).
    """
    return _advance_once(_plan_leapfrog, state, needs_prev="leap-frog")[0]


def step_dufort_frankel(state: StepState) -> Field:
    """Two-layer averaged explicit update, stable for every time step.

    With w = 2 r: u_j <- ((1-w)/(1+w)) u_j^{prev} + (w/(1+w)) (u_{j+1} + u_{j-1}).
    """
    return _advance_once(_plan_dufort_frankel, state,
                         needs_prev="Dufort-Frankel")[0]


def step_cn_nonlinear(state: StepState, damping: float = 0.0) -> Field:
    """Trapezoidal update for u_t = k(u) u_xx with k frozen per iterate.

    Solves the implicit relation by fixed-point iteration: evaluate k at the
    latest iterate, solve the resulting linear tridiagonal layer, repeat until
    the max-norm change drops to 1e-12 or 50 iterations pass.  ``damping``
    blends each new iterate with the previous one (0 means undamped).
    """
    return _advance_once(_plan_cn_nonlinear, state, damping=damping)[0]


def step_ccn(state: StepState, damping: float = 0.0) -> Field:
    """Cross-weighted trapezoidal update for u_t = k(u) u_xx.

    The new-layer diffusivity multiplies the old-layer difference and vice
    versa, so with affine k the new layer enters linearly and a single
    tridiagonal solve advances the step.  General k falls back to the same
    fixed-point iteration as the plain nonlinear trapezoidal stepper.
    """
    return _advance_once(_plan_ccn, state, damping=damping)[0]


def step_saulyev_pair(state: StepState) -> tuple[Field, Field]:
    """Two alternating one-sided sweeps; only the second layer is consistent.

    Stage 1 sweeps rightwards from the left closure, stage 2 sweeps leftwards
    from the right closure; both use the weight w = r:
    stage 1: u_j^{+1} = ((1-w)/(1+w)) u_j + (w/(1+w)) u_{j+1} + (w/(1+w)) u_{j-1}^{+1}
    stage 2 mirrors it one layer later.

    With a = (1-w)/(1+w) and c = w/(1+w) each sweep is the unit-diagonal
    bidiagonal system y_j - c y_{j-1} = a u_j + c u_{j+1} (lower for stage 1,
    upper for stage 2) whose first row is the start value.  Both are solved
    in place by the BLAS triangular band solve ``dtbsv``, which scipy loads
    on the first call; its fused multiply-add may differ from the plain
    recurrence in the last bits.
    """
    return _advance_once(_plan_saulyev, state)


def step_hyperbolic(state: StepState) -> Field:
    """Three-layer update of the relaxed equation tau u_tt + u_t = nu u_xx.

    With a = tau/dt^2 + 1/(2 dt) and b = tau/dt^2 - 1/(2 dt):
    u_j <- [2 tau/dt^2 u_j - b u_j^{prev} + nu (u_{j+1} - 2 u_j + u_{j-1})/dx^2] / a.
    """
    return _advance_once(_plan_hyperbolic, state,
                         needs_prev="hyperbolic stepper")[0]


def bootstrap_hyperbolic(initial: Field, params: SchemeParams,
                         bcs: Optional[tuple] = None) -> Field:
    """Synthetic first layer for the three-layer relaxed scheme.

    Starts from zero initial velocity, so a second-order Taylor start gives
    u_j^1 = u_j^0 + (dt^2 / (2 tau)) nu (u_{j+1} - 2 u_j + u_{j-1}) / dx^2.
    Endpoints come from the closures when BCs are provided, otherwise they
    are carried over unchanged.
    """
    u = initial.values
    if bcs is None:
        bcs = (BoundaryCondition.dirichlet(float(u[0])),
               BoundaryCondition.dirichlet(float(u[-1])))
    return _advance_once(_plan_hyperbolic,
                         StepState(prev=None, curr=initial, params=params,
                                   bcs=bcs))[0]


# Scheme -> plan(params, bcs, n_nodes) -> advance(prev, curr, time_index).
_STEPPERS = {
    Scheme.EXPLICIT: _plan_explicit,
    Scheme.IMPLICIT: _plan_implicit,
    Scheme.CRANK_NICOLSON: _plan_crank_nicolson,
    Scheme.CN_NONLINEAR: _plan_cn_nonlinear,
    Scheme.CROSS_CN: _plan_ccn,
    Scheme.LEAPFROG: _plan_leapfrog,
    Scheme.DUFORT_FRANKEL: _plan_dufort_frankel,
    Scheme.SAULYEV: _plan_saulyev,
    Scheme.HYPERBOLIC: _plan_hyperbolic,
}


def run_simulation(initial: Field, params: SchemeParams, bcs,
                   scheme: Scheme, num_steps: int,
                   snapshot_every: int = 1) -> RunRecord:
    """Advance ``initial`` by ``num_steps`` layers and record snapshots.

    The scheme's plan is built once per run: it validates the scheme against
    the diffusivity and tau and sets up the coefficients, the boundary
    closures and, where they never change, the bands of the implicit
    systems.  Its advance then maps bare arrays (previous layer or None,
    current layer, time index) to the tuple of new layers, of which only the
    last is consistency-grade, so the Saulyev pair's odd layers (and a final
    pair cut short at ``num_steps``) are flagged False.  A ``Field`` is built
    only for the snapshots kept.  Called without a previous layer, the
    multi-layer schemes start themselves: leap-frog and Dufort-Frankel with
    the explicit step, the hyperbolic scheme with the zero-velocity Taylor
    start.  With ``num_steps == 0`` no plan is built.  The run halts and
    flags divergence as soon as a layer has a non-finite value or max-norm
    above 1e12.  Errors raised while the plan is built are misuse and
    propagate unchanged: a ValueError for a scheme that needs constant k or
    tau > 0, a flux/Robin end on fewer than 4 nodes or, with constant k, a
    degenerate closure, and SingularSystemError for a degenerate Saulyev
    start.  Failures while advancing (an ArithmeticError such as a zero pivot
    or a FloatingPointError from an overflow in k, a FixedPointError, or a
    ValueError such as a k that is not finite and positive or does not
    broadcast) are re-raised as SolverError with the failing step attached.
    """
    if num_steps < 0:
        raise ValueError(f"num_steps must be >= 0, got {num_steps}")
    if snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {snapshot_every}")

    record = RunRecord()
    record.append(initial, consistent=True)
    if num_steps == 0:
        return record
    start = time_index = initial.time_index
    end = start + num_steps
    prev, curr = None, initial.values
    advance = _STEPPERS[scheme](params, bcs, len(curr))

    consistent = True
    while time_index < end:
        try:
            produced = advance(prev, curr, time_index)
        except (ArithmeticError, FixedPointError, ValueError) as exc:
            raise SolverError(step=time_index + 1, cause=exc) from exc

        last = len(produced) - 1
        for i, layer in enumerate(produced[:end - time_index]):
            prev, curr = curr, layer
            time_index += 1
            consistent = i == last
            norm = float(np.abs(layer).max())
            if not norm <= DIVERGENCE_THRESHOLD:
                record.diverged = True
                record.diverged_step = time_index
                record.append(Field(values=layer, time_index=time_index),
                              consistent, norm)
                return record
            if (time_index - start) % snapshot_every == 0:
                record.append(Field(values=layer, time_index=time_index),
                              consistent, norm)

    if record.snapshots[-1].time_index != time_index:
        record.append(Field(values=curr, time_index=time_index),
                      consistent=consistent)
    return record
