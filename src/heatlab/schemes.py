"""Time-stepping schemes for u_t = nu u_xx (and k(u) u_xx) behind one contract.

``SPECS`` holds one ``SchemeSpec`` per scheme, so a new scheme is one entry.
A spec's plan, ``plan(params, bcs, n_nodes)``, runs once per run and
computes everything that does not change from step to step: the scheme
coefficients, the boundary closures, the Saulyev sweep band and each folded
matrix that lasts the run (implicit, and trapezoidal under constant k),
LU-factored once by ``tridiag.factored``; varying k runs ``tridiag.direct``,
so ``schemes`` calls no LAPACK routine itself.  All plans take their closures
from one ``_ends_of`` factory (``grid.closure`` per end).  Before a plan is
built, ``_float_layer`` checks the start layer and ``_plan`` the scheme, the
parameters and the node count.  A plan returns ``advance(prev, curr,
time_index)``, which maps bare float64 arrays (``prev`` is None on the first
call) to the new layer.  Per layer an advance evaluates the stencil (the
Saulyev plan one sweep, alternating its direction), each closure's forcing
(unless it is a constant, which the closure folds) once and, where k varies,
the diffusivity (and with it the flux/Robin closures); interiors are written
first, endpoints are closed afterwards through the closures, and the layer
time is always ``time_index * dt``.  Called without a previous layer, the
multi-layer schemes start themselves.  The layer an advance returns belongs
to its plan: the explicit-type and Saulyev plans write it into a ring of
three rows, made by the first advances with their stencil views bound and
then reused, the others allocate each.  An advance writes only the layer it
returns, and the last two it returned stay intact through the next, so it
never writes a run's ``prev`` and ``curr`` (read through the bound views) or
a caller's own arrays (sliced per call).  A caller that keeps a layer longer
copies it, as ``run_simulation`` does.  ``run_simulation`` drives every
scheme through its plan, one advance per layer, and flags divergence; each
public ``step_*`` function builds a plan and advances it ``layers`` times.

Diffusion number r = nu dt / dx^2 governs everything; the Dufort-Frankel
update uses 2 r and the Saulyev sweeps use r as their weight parameter.

A constant coefficient that an advance multiplies, adds or divides a layer
by is a 0-d float64 array, bound once by the plan: numpy converts a Python
float operand again on every call, which makes a ufunc on an N = 64 layer
about 1.5 times as slow as the array-array path a 0-d array takes to the
same double.  Closures, the folded solves' edge terms and the Saulyev starts
work on Python floats, as they touch single nodes.
"""

from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .grid import (BCKind, BoundaryCondition, Closure, Field, Side, _whole,
                   closure, max_abs)
from .tridiag import SingularSystemError, direct, factored
# No stepper calls these three; bench/spans.py wraps them as attributes of
# this module.
from .grid import boundary_closure_coefficients, close_boundary  # noqa: F401
from .tridiag import thomas_solve  # noqa: F401

DIVERGENCE_THRESHOLD = 1e12
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 50
_INTERIOR = slice(1, -1)  # a layer's interior nodes, u[1:-1]


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


@dataclass(frozen=True)
class DiffusivityModel:
    """Diffusion coefficient: affine k(u) = a + b u, or a callable k(u).

    With b = 0 and no callable, k is the constant ``nu_value`` = a, which is
    None when k varies.  General k, which takes a = b = 0, is called once per
    evaluation, on a read-only float64 view of the nodes that it must not
    write into, and returns a scalar or an array that broadcasts to their
    shape.  Overflow, invalid operations and division by zero in k raise
    FloatingPointError.  A value that is not finite and positive raises
    DiffusivityError naming its index, u and k (a run names the node of its
    layer); so does a TypeError from k (a k written for Python floats).
    """

    affine_a: float = 0.0
    affine_b: float = 0.0
    general_k: Optional[Callable[[np.ndarray], object]] = None

    def __post_init__(self):
        a, b, k = self.affine_a, self.affine_b, self.general_k
        if k is not None and not callable(k):
            raise ValueError(f"general diffusivity k must be callable, got {k!r}")
        if k is not None and (a != 0.0 or b != 0.0):
            raise ValueError("a callable diffusivity k takes no affine fields, "
                             f"got a = {a} and b = {b}")
        if k is None and b == 0.0 and not 0.0 < a < np.inf:
            raise ValueError(f"constant diffusivity must be positive, got {a}")
        if k is None and b != 0.0 and not np.isfinite([a, b]).all():
            raise ValueError("affine diffusivity needs finite a and b, "
                             f"got {a} and {b}")

    @property
    def nu_value(self) -> Optional[float]:
        return (self.affine_a if self.affine_b == 0.0 and self.general_k is None
                else None)

    @staticmethod
    def constant(nu: float) -> "DiffusivityModel":
        return DiffusivityModel(float(nu))

    @staticmethod
    def affine(a: float, b: float) -> "DiffusivityModel":
        return DiffusivityModel(float(a), float(b))

    @staticmethod
    def general(k: Callable[[np.ndarray], object]) -> "DiffusivityModel":
        return DiffusivityModel(general_k=k)

    def evaluate_array(self, u: np.ndarray) -> np.ndarray:
        return self._evaluate_nodes(u, None)

    def _evaluate_nodes(self, layer: np.ndarray, nodes) -> np.ndarray:
        """k on ``layer[nodes]`` (a slice or index list), or on all of
        ``layer`` when ``nodes`` is None; a DiffusivityError names the bad
        value's node in ``layer``."""
        u = layer if nodes is None else layer[nodes]
        if self.general_k is None:
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
        # argmin and argmax return the first NaN, which fails both
        # comparisons; the mask is built only to name the index
        if values.size and not (values.item(values.argmin()) > 0.0
                                and values.item(values.argmax()) < np.inf):
            bad = int(np.argmin(np.isfinite(values) & (values > 0.0)))
            node = bad if nodes is None else np.arange(len(layer))[nodes][bad]
            raise DiffusivityError(f"diffusivity k(u[{node}] = {u[bad]}) = "
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
        if not 0.0 < self.dt < np.inf:
            raise ValueError(f"dt must be positive, got {self.dt}")
        if not 0.0 < self.dx < np.inf:
            raise ValueError(f"dx must be positive, got {self.dx}")
        if self.tau is None:
            nu = self.diffusivity.nu_value
            object.__setattr__(self, "tau", 0.0 if nu is None else nu * self.dx)
        if not 0.0 <= self.tau < np.inf:
            raise ValueError(f"tau must be >= 0, got {self.tau}")

    @property
    def nu(self) -> float:
        if self.diffusivity.nu_value is None:
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
        for name, layer in (("prev", self.prev), ("curr", self.curr)):
            if layer is not None and not _whole(layer.time_index):
                raise ValueError(f"the {name} layer's time_index must be an "
                                 f"integer, got {layer.time_index!r}")
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


# A plan's advance maps (prev, curr, time_index) to the new layer.
Advance = Callable[[Optional[np.ndarray], np.ndarray, int], np.ndarray]


def _views(u: np.ndarray) -> tuple:
    """(u, lo, mid, hi) = (u, u[:-2], u[1:-1], u[2:]), the stencil's views."""
    return u, u[:-2], u[1:-1], u[2:]


def _second_difference(lo: np.ndarray, mid: np.ndarray,
                       hi: np.ndarray) -> np.ndarray:
    """``lo - 2 mid + hi`` in one fresh array; ``mid + mid`` is the double
    ``2.0 * mid`` is, signed zeros and overflow included."""
    d2 = mid + mid
    np.subtract(lo, d2, out=d2)
    d2 += hi
    return d2


def _forward(r):
    """``interior(prev_mid, views, out)``: writes the forward-in-time,
    centred-in-space mid + r d2 of the current layer's ``_views`` into the
    new interior ``out``; r is a 0-d array, ``prev_mid`` is not read."""
    def interior(prev_mid, views, out):
        _, lo, mid, hi = views
        d2 = _second_difference(lo, mid, hi)
        d2 *= r
        np.add(mid, d2, out=out)
    return interior


def _float_layer(values) -> tuple:
    """``values`` as a float64 array (not copied when already one) and its max
    norm, 0.0 when empty; a complex, not 1-D or non-finite layer raises
    ValueError, naming the first NaN or +-inf node.  ``_plan`` checks size."""
    if np.iscomplexobj(values):
        raise ValueError("layer values must be real, got a complex array")
    layer = np.asarray(values, dtype=float)
    if layer.ndim != 1:
        raise ValueError(f"a layer must be 1-D, got shape {layer.shape}")
    norm = max_abs(layer) if layer.size else 0.0
    if not norm < np.inf:  # NaN fails the comparison too
        bad = int(np.argmin(np.isfinite(layer)))
        raise ValueError(f"a layer must be finite, got {layer[bad]} at node {bad}")
    return layer, norm


# ------------------------------------------------------------ closures

def _ends_of(params: SchemeParams, bcs):
    """``ends_of(u)``: the (left, right) closures of the layer after ``u``,
    built now (``_plan`` has checked the nodes they read), except a flux or
    Robin closure under varying k, which reads k at its end of ``u`` per call."""
    model, dx = params.diffusivity, params.dx
    sides = {0: Side.LEFT, -1: Side.RIGHT}  # an end's index in bcs and in u
    varying = [i for i in sides if bcs[i].kind is not BCKind.DIRICHLET
               and model.nu_value is None]
    # nu_value is None for varying k, which a Dirichlet closure ignores
    ends = [None if i in varying else closure(bcs[i], side, model.nu_value, dx)
            for i, side in sides.items()]
    if not varying:
        fixed = tuple(ends)
        return lambda u: fixed

    def ends_of(u):  # one evaluation of k for the varying ends together
        for i, nu in zip(varying, model._evaluate_nodes(u, varying).tolist()):
            ends[i] = closure(bcs[i], sides[i], nu, dx)
        return tuple(ends)
    return ends_of


def _closed_plan(params: SchemeParams, bcs, n_nodes: int, interior) -> Advance:
    """Advance of an explicit scheme: ``interior(prev_mid, views, out)`` (as
    ``_forward``) writes the next row of a three-row ring, whose other rows
    are the last two layers, then the closures (bound here under constant k)
    close it at the new layer's time."""
    dt = params.dt
    ends_of = _ends_of(params, bcs)
    fixed = params.diffusivity.nu_value is not None
    if fixed:
        left, right = ends_of(None)
        close_left, close_right = left.close, right.close
    before = last = free = (None,) * 4  # the first three advances make rows

    def advance(prev, u, time_index):
        nonlocal before, last, free, close_left, close_right
        out = free if free[0] is not None else _views(np.empty(n_nodes))
        prev_mid = (None if prev is None else before[2] if prev is before[0]
                    else prev[1:-1])
        interior(prev_mid, last if u is last[0] else _views(u), out[2])
        if not fixed:
            close_left, close_right = (end.close for end in ends_of(u))
        t = (time_index + 1) * dt
        close_left(out[0], t)
        close_right(out[0], t)
        before, last, free = last, out, before
        return out[0]
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


def _solve_folded(solve, rho, out: np.ndarray, ends: tuple,
                  terms: tuple) -> np.ndarray:
    """Solve one folded layer in place in ``out`` and close it.

    The caller has written the right-hand side into ``out[1:-1]``.  The
    closures' forcing terms g at the layer's time enter its first and last
    rows as ``rho[0] * g`` and ``rho[-1] * g`` (``rho`` is the row weights,
    or just those two), ``solve`` overwrites the interior with the solution
    and the closures then write the endpoints.
    """
    (left, right), (gl, gr) = ends, terms
    out[1] += rho[0] * gl
    out[-2] += rho[-1] * gr
    solve(out[1:-1])
    left.put(out, gl)
    right.put(out, gr)
    return out


def _terms(ends: tuple, t: float) -> tuple:
    return ends[0].term(t), ends[1].term(t)


def _folded_plan(params: SchemeParams, bcs, n_nodes: int, rho: float,
                 rhs_into) -> Advance:
    """Advance of a constant-k implicit scheme with row weight ``rho``:
    ``rhs_into(None, views, out)`` (as ``_forward``) writes the right-hand
    side into a fresh layer's interior, which is solved in place against
    bands folded and factored once; each step adds only the forcing terms,
    weighted by ``rho``."""
    ends = _ends_of(params, bcs)(None)
    rows = np.full(n_nodes - 2, rho)
    solve = factored(_fold(rows, 1.0 + 2.0 * rows, ends))
    edge = (float(rho),) * 2
    dt = params.dt

    def advance(prev, u, time_index):
        out = np.empty(n_nodes)
        rhs_into(None, _views(u), out[1:-1])
        return _solve_folded(solve, edge, out, ends,
                             _terms(ends, (time_index + 1) * dt))
    return advance


def _fixed_point(iterate: Callable[[np.ndarray], np.ndarray], v: np.ndarray,
                 k: np.ndarray, model: DiffusivityModel) -> np.ndarray:
    """Repeat ``v <- iterate(k(v))`` until the max-norm change is 1e-12.

    ``iterate`` maps the interior diffusivities of the latest iterate to the
    next one; ``k`` is ``model`` on the interior of the starting ``v``, so
    each iterate calls k once, on its interior, and the converged one not at
    all.  FixedPointError reports the last change after 50 iterations, or
    once one passes DIVERGENCE_THRESHOLD, before k can overflow on v, so under
    varying k a blow-up is a solver failure (CLI exit 3) naming its iteration,
    where constant k (``cn``'s factored plan) flags divergence (exit 2).
    """
    for i in range(FIXED_POINT_MAX_ITERS):
        if i:
            k = model._evaluate_nodes(v, _INTERIOR)
        candidate = iterate(k)
        delta = max_abs(candidate - v)
        v = candidate
        if delta <= FIXED_POINT_TOL:
            return v
        if not delta <= DIVERGENCE_THRESHOLD:
            break
    raise FixedPointError(
        f"no convergence after {i + 1} iterations "
        f"(last change {delta:.3e})", residual=delta)


# ------------------------------------------------------------------ plans

def _plan_explicit(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    model = params.diffusivity
    if model.nu_value is not None:
        return _closed_plan(params, bcs, n_nodes,
                            _forward(np.array(params.diffusion_number_r)))
    dt, dx2 = np.array(params.dt), np.array(params.dx ** 2)

    def interior(prev_mid, views, out):  # r = k(u) dt / dx^2 per node
        r = model._evaluate_nodes(views[0], _INTERIOR) * dt / dx2
        _forward(r)(prev_mid, views, out)
    return _closed_plan(params, bcs, n_nodes, interior)


def _copy_interior(prev_mid, views, out: np.ndarray) -> None:
    out[...] = views[2]


def _plan_implicit(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    return _folded_plan(params, bcs, n_nodes, params.diffusion_number_r,
                        _copy_interior)


def _plan_leapfrog(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    r = params.diffusion_number_r
    start, two_r = _forward(np.array(r)), np.array(2.0 * r)

    def interior(prev_mid, views, out):
        if prev_mid is None:  # the explicit start
            return start(prev_mid, views, out)
        _, lo, mid, hi = views
        d2 = _second_difference(lo, mid, hi)
        d2 *= two_r
        np.add(prev_mid, d2, out=out)
    return _closed_plan(params, bcs, n_nodes, interior)


def _plan_dufort_frankel(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    r = params.diffusion_number_r
    lam = 2.0 * r
    start = _forward(np.array(r))
    a, b = np.array((1.0 - lam) / (1.0 + lam)), np.array(lam / (1.0 + lam))

    def interior(prev_mid, views, out):
        if prev_mid is None:  # the explicit start
            return start(prev_mid, views, out)
        _, lo, _, hi = views
        pair = np.add(hi, lo)
        pair *= b
        np.add(a * prev_mid, pair, out=out)
    return _closed_plan(params, bcs, n_nodes, interior)


def _trapezoid_plan(params: SchemeParams, bcs, n_nodes: int,
                    cross: bool) -> Advance:
    """Advance of the trapezoidal rule for u_t = k(u) u_xx: each layer's
    difference weighted by half its own k, or the other layer's if ``cross``.
    Constant k is Crank-Nicolson, factored once; crossed affine k is one
    solve a step; else ``_fixed_point`` iterates with k(v) as the new k."""
    model, dt, dx = params.diffusivity, params.dt, params.dx

    def half(k):
        return 0.5 * (k * dt / dx ** 2)

    if model.nu_value is not None:
        rho = half(model.nu_value)
        return _folded_plan(params, bcs, n_nodes, rho, _forward(np.array(rho)))
    ends_of = _ends_of(params, bcs)
    affine = cross and model.general_k is None  # k = a + b u
    rho_a, rho_b = half(model.affine_a), half(model.affine_b)

    def advance(prev, u, time_index):
        k_old = model._evaluate_nodes(u, _INTERIOR)
        rho_old = half(k_old)
        d2 = _second_difference(u[:-2], u[1:-1], u[2:])
        ends = ends_of(u)
        terms = _terms(ends, (time_index + 1) * dt)

        def solve(rho, diag, step):  # rhs u + step, rows weighted by rho
            out = np.empty(n_nodes)
            np.add(u[1:-1], step, out=out[1:-1])
            return _solve_folded(direct(_fold(rho, diag, ends)), rho, out,
                                 ends, terms)

        if affine:
            return solve(rho_old, 1.0 + 2.0 * rho_old - rho_b * d2,
                         rho_a * d2)
        old_step = None if cross else rho_old * d2

        def iterate(k):  # k = k(v), standing in for the new layer's k
            rho, step = (rho_old, half(k) * d2) if cross else (half(k), old_step)
            return solve(rho, 1.0 + 2.0 * rho, step)
        return _fixed_point(iterate, u, k_old, model)
    return advance


def _plan_cn(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    return _trapezoid_plan(params, bcs, n_nodes, cross=False)


def _plan_ccn(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    return _trapezoid_plan(params, bcs, n_nodes, cross=True)


def _saulyev_start(bc: BoundaryCondition, end: Closure, side: Side, a: float,
                   c: float, n: int):
    """``start(base, t)``: first value of a one-sided sweep over ``base``.

    Dirichlet pins it.  Otherwise the closure ``end`` couples the endpoint
    to the first two swept unknowns, which themselves depend linearly on the
    endpoint; substituting the sweep relation twice reduces the start to one
    scalar equation, whose denominator is checked once, here.
    """
    a1, a2, term = end[:3]
    if bc.kind is BCKind.DIRICHLET:
        return lambda base, t: term(t)
    den = 1.0 - a1 * c - a2 * c * c
    if abs(den) <= 1e-12 * (1.0 + abs(a1 * c) + abs(a2 * c * c)):
        raise SingularSystemError("degenerate Saulyev sweep start")
    j1, j2, j3 = (1, 2, 3) if side is Side.LEFT else (n - 1, n - 2, n - 3)

    def start(base, t):
        s1 = a * base.item(j1) + c * base.item(j2)
        s2 = a * base.item(j2) + c * base.item(j3) + c * s1
        return (a1 * s1 + a2 * s2 + term(t)) / den
    return start


def _plan_saulyev(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    """One sweep per advance into a three-row ring (as ``_closed_plan``'s),
    rightwards first and then by the parity of ``time_index - first``."""
    from scipy.linalg.blas import dtbsv
    lam = params.diffusion_number_r
    a = (1.0 - lam) / (1.0 + lam)
    c = lam / (1.0 + lam)
    dt = params.dt
    n = n_nodes - 1
    left, right = _ends_of(params, bcs)(None)
    start_left = _saulyev_start(bcs[0], left, Side.LEFT, a, c, n)
    start_right = _saulyev_start(bcs[1], right, Side.RIGHT, a, c, n)
    band = np.full((2, n), -c, order="F")  # dtbsv ignores the diagonal row
    a, c = np.array(a), np.array(c)  # the starts above keep Python floats
    close_left, close_right = left.close, right.close
    first = None  # the time index of the plan's first advance
    before = last = free = (None,) * 4  # the first three advances make rows

    def advance(prev, u, time_index):
        nonlocal first, before, last, free
        if first is None:
            first = time_index
        row = free if free[0] is not None else _views(np.empty(n_nodes))
        out, _, mid, _ = row
        _, lo, u_mid, hi = last if u is last[0] else _views(u)
        t = (time_index + 1) * dt
        # dtbsv(incx, offx, lower, trans, diag, overwrite_x): the rightwards
        # sweep solves out[:n] from the left start, the leftwards one out[1:]
        if (time_index - first) % 2:
            out[n] = start_right(u, t)
            np.add(a * u_mid, c * lo, out=mid)
            dtbsv(1, band, out, 1, 1, 0, 0, 1, 1)
            close_left(out, t)
        else:
            out[0] = start_left(u, t)
            np.add(a * u_mid, c * hi, out=mid)
            dtbsv(1, band, out, 1, 0, 1, 0, 1, 1)
            close_right(out, t)
        before, last, free = last, row, before
        return out
    return advance


def _hyperbolic_coefficients(params: SchemeParams) -> tuple:
    tau, dt = params.tau, params.dt
    a = tau / dt ** 2 + 1.0 / (2.0 * dt)
    b = tau / dt ** 2 - 1.0 / (2.0 * dt)
    c = 2.0 * tau / dt ** 2
    return a, b, c


def _plan_hyperbolic(params: SchemeParams, bcs, n_nodes: int) -> Advance:
    tau, dt, dx, nu = params.tau, params.dt, params.dx, params.nu
    a, b, c = _hyperbolic_coefficients(params)
    taylor = dt ** 2 / (2.0 * tau)
    a, b, c, taylor, dx2, nu = map(np.array, (a, b, c, taylor, dx ** 2, nu))

    def interior(prev_mid, views, out):
        _, lo, mid, hi = views
        diffusion = _second_difference(lo, mid, hi)
        diffusion *= nu
        diffusion /= dx2
        if prev_mid is None:  # the zero-velocity Taylor start
            diffusion *= taylor
            np.add(mid, diffusion, out=out)
        else:
            new = c * mid
            new -= b * prev_mid
            new += diffusion
            np.divide(new, a, out=out)
    return _closed_plan(params, bcs, n_nodes, interior)


# -------------------------------------------------------- the scheme table

def _quadratic_roots(a, b, c) -> tuple:
    """Roots of a g^2 + b g + c = 0 (a != 0), elementwise over arrays."""
    root = np.sqrt((b * b - 4.0 * a * c).astype(complex))
    return (-b + root) / (2.0 * a), (-b - root) / (2.0 * a)


def _hyperbolic_symbol(params: SchemeParams, s, theta) -> tuple:
    a, b, c = _hyperbolic_coefficients(params)
    mid = c - 4.0 * params.nu * s / params.dx ** 2
    return _quadratic_roots(a, -mid, b)


@dataclass(frozen=True, kw_only=True)
class SchemeSpec:
    """One scheme: its plan, its ``layers`` (the layer count of one public
    step and the period of its consistency-grade layers, every ``layers``-th
    from the start), whether it needs constant k, whether it is ``relaxed``
    (solves tau u_tt + u_t = nu u_xx, so needs tau > 0), its roots
    ``symbol(r or params, sin^2(theta/2), theta)`` or None, and its
    ``residual(u, d2, k, params, x, t)`` on a smooth u, with d2(t) u's second
    difference at x and k(x, t) the diffusivity there."""

    plan: Callable[..., Advance]
    layers: int = 1
    constant_k: bool = True
    relaxed: bool = False
    symbol: Optional[Callable[..., tuple]] = None
    residual: Callable[..., float]


SPECS = {
    Scheme.EXPLICIT: SchemeSpec(
        plan=_plan_explicit, constant_k=False,
        symbol=lambda r, s, theta: (1.0 - 4.0 * r * s,),
        residual=lambda u, d2, k, p, x, t:
            (u(x, t + p.dt) - u(x, t)) / p.dt - p.nu * d2(t) / p.dx ** 2),
    Scheme.IMPLICIT: SchemeSpec(
        plan=_plan_implicit, symbol=lambda r, s, theta: (1.0 / (1.0 + 4.0 * r * s),),
        residual=lambda u, d2, k, p, x, t: (u(x, t + p.dt) - u(x, t)) / p.dt
            - p.nu * d2(t + p.dt) / p.dx ** 2),
    Scheme.CRANK_NICOLSON: SchemeSpec(
        plan=_plan_cn,
        symbol=lambda r, s, theta: ((1.0 - 2.0 * r * s) / (1.0 + 2.0 * r * s),),
        residual=lambda u, d2, k, p, x, t: (u(x, t + p.dt) - u(x, t)) / p.dt
            - p.nu * (d2(t) + d2(t + p.dt)) / (2.0 * p.dx ** 2)),
    # cn_nonlinear is cn's plan past a gate that lets k vary; neither it nor
    # ccn has a symbol, and under constant k both run cn's factored plan
    Scheme.CN_NONLINEAR: SchemeSpec(
        plan=_plan_cn, constant_k=False,
        residual=lambda u, d2, k, p, x, t: (u(x, t + p.dt) - u(x, t)) / p.dt
            - k(x, t) * d2(t) / (2.0 * p.dx ** 2)
            - k(x, t + p.dt) * d2(t + p.dt) / (2.0 * p.dx ** 2)),
    Scheme.CROSS_CN: SchemeSpec(
        plan=_plan_ccn, constant_k=False,
        residual=lambda u, d2, k, p, x, t: (u(x, t + p.dt) - u(x, t)) / p.dt
            - k(x, t + p.dt) * d2(t) / (2.0 * p.dx ** 2)
            - k(x, t) * d2(t + p.dt) / (2.0 * p.dx ** 2)),
    Scheme.LEAPFROG: SchemeSpec(
        plan=_plan_leapfrog,
        symbol=lambda r, s, theta: _quadratic_roots(1.0, 8.0 * r * s, -1.0),
        residual=lambda u, d2, k, p, x, t:
            (u(x, t + p.dt) - u(x, t - p.dt)) / (2.0 * p.dt)
            - p.nu * d2(t) / p.dx ** 2),
    Scheme.DUFORT_FRANKEL: SchemeSpec(  # w = 2 r
        plan=_plan_dufort_frankel,
        symbol=lambda r, s, theta: _quadratic_roots(
            1.0 + 2.0 * r, -2.0 * (2.0 * r) * np.cos(theta), -(1.0 - 2.0 * r)),
        residual=lambda u, d2, k, p, x, t:
            (u(x, t + p.dt) - u(x, t - p.dt)) / (2.0 * p.dt) - p.nu * (
                u(x - p.dx, t) - (u(x, t - p.dt) + u(x, t + p.dt))
                + u(x + p.dx, t)) / p.dx ** 2),
    # no single-stage symbol: the sweeps' stability is asserted empirically;
    # the residual sums the two one-sided stages and divides by two
    Scheme.SAULYEV: SchemeSpec(
        plan=_plan_saulyev, layers=2,
        residual=lambda u, d2, k, p, x, t:
            (u(x, t + 2.0 * p.dt) - u(x, t)) / (2.0 * p.dt) - p.nu * (
                u(x + p.dx, t) - u(x, t)
                - 2.0 * u(x, t + p.dt) + 2.0 * u(x - p.dx, t + p.dt)
                + u(x + p.dx, t + 2.0 * p.dt) - u(x, t + 2.0 * p.dt))
            / (2.0 * p.dx ** 2)),
    Scheme.HYPERBOLIC: SchemeSpec(
        plan=_plan_hyperbolic, relaxed=True, symbol=_hyperbolic_symbol,
        residual=lambda u, d2, k, p, x, t:
            p.tau * (u(x, t + p.dt) - 2.0 * u(x, t) + u(x, t - p.dt)) / p.dt ** 2
            + (u(x, t + p.dt) - u(x, t - p.dt)) / (2.0 * p.dt)
            - p.nu * d2(t) / p.dx ** 2),
}


def _plan(scheme: Scheme, params: SchemeParams, bcs, n_nodes: int) -> Advance:
    """``scheme``'s plan, built after the gate that follows ``_float_layer``:
    ``bcs`` is a (left, right) pair of BoundaryConditions, the spec's constant
    k, tau > 0, N >= 2 (an interior node for the stencil) and N >= 3 with a
    flux or Robin end (its closure reads two interior new-layer nodes, a
    folded end needs two interior unknowns and a Saulyev start reaches three
    nodes in), checked in this order."""
    if not (isinstance(bcs, (tuple, list)) and len(bcs) == 2
            and all(isinstance(bc, BoundaryCondition) for bc in bcs)):
        raise ValueError("bcs must be a (left, right) pair of "
                         f"BoundaryConditions, got {bcs!r}")
    spec = SPECS[scheme]
    if spec.constant_k and params.diffusivity.nu_value is None:
        raise ValueError(f"{scheme.value} scheme requires constant diffusivity")
    if spec.relaxed and params.tau <= 0.0:
        raise ValueError(f"{scheme.value} scheme needs tau > 0 "
                         "(with tau = 0 use the explicit scheme)")
    if n_nodes < 3:
        raise ValueError("a layer needs at least 3 nodes (N >= 2), "
                         f"got shape ({n_nodes},)")
    if n_nodes < 4 and any(bc.kind is not BCKind.DIRICHLET for bc in bcs):
        raise ValueError("flux/Robin boundaries need N >= 3 (at least 4 nodes)")
    return spec.plan(params, bcs, n_nodes)


# ------------------------------------------------------- public steppers

def _advance_once(scheme: Scheme, state: StepState) -> tuple:
    """The layers of one public step of ``scheme`` from ``state``, one advance
    of its plan per layer; with no previous layer a multi-layer scheme starts
    as in ``run_simulation``."""
    curr = _float_layer(state.curr.values)[0]
    prev = None if state.prev is None else _float_layer(state.prev.values)[0]
    advance = _plan(scheme, state.params, state.bcs, len(curr))
    start = state.curr.time_index
    fields = []
    for time_index in range(start, start + SPECS[scheme].layers):
        prev, curr = curr, advance(prev, curr, time_index)
        fields.append(Field(values=curr, time_index=time_index + 1))
    return tuple(fields)


def step_explicit(state: StepState) -> Field:
    """Forward-in-time, centered-in-space update.

    Interior: u_j <- u_j + r (u_{j-1} - 2 u_j + u_{j+1}).  With a non-constant
    diffusivity k(u) the weight is evaluated pointwise at the stencil center
    of the old layer.
    """
    return _advance_once(Scheme.EXPLICIT, state)[0]


def step_implicit(state: StepState) -> Field:
    """Backward-in-time update: (1 + 2r) u_j - r (u_{j-1} + u_{j+1}) = u_j^old."""
    return _advance_once(Scheme.IMPLICIT, state)[0]


def step_crank_nicolson(state: StepState) -> Field:
    """Trapezoidal update: both layers carry half of the diffusion operator."""
    return _advance_once(Scheme.CRANK_NICOLSON, state)[0]


def step_leapfrog(state: StepState) -> Field:
    """Symmetric-in-time explicit update (kept although it never damps).

    u_j <- u_j^{prev} + 2 r (u_{j-1} - 2 u_j + u_{j+1}); with no previous
    layer, the explicit step.
    """
    return _advance_once(Scheme.LEAPFROG, state)[0]


def step_dufort_frankel(state: StepState) -> Field:
    """Two-layer averaged explicit update, stable for every time step.

    With w = 2 r: u_j <- ((1-w)/(1+w)) u_j^{prev} + (w/(1+w)) (u_{j+1} + u_{j-1});
    with no previous layer, the explicit step.
    """
    return _advance_once(Scheme.DUFORT_FRANKEL, state)[0]


def step_cn_nonlinear(state: StepState) -> Field:
    """Trapezoidal update for u_t = k(u) u_xx with k frozen per iterate.

    Varying k is a fixed point: evaluate k at the latest iterate, solve that
    linear tridiagonal layer, repeat until the max-norm change drops to 1e-12
    or 50 iterations pass.  Constant k is ``step_crank_nicolson``.
    """
    return _advance_once(Scheme.CN_NONLINEAR, state)[0]


def step_ccn(state: StepState) -> Field:
    """Cross-weighted trapezoidal update for u_t = k(u) u_xx.

    The new-layer diffusivity multiplies the old-layer difference and vice
    versa, so with affine k the new layer enters linearly and a single
    tridiagonal solve advances the step.  General k iterates to a fixed point
    as ``step_cn_nonlinear`` does; constant k is ``step_crank_nicolson``.
    """
    return _advance_once(Scheme.CROSS_CN, state)[0]


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
    return _advance_once(Scheme.SAULYEV, state)


def step_hyperbolic(state: StepState) -> Field:
    """Three-layer update of the relaxed equation tau u_tt + u_t = nu u_xx.

    With a = tau/dt^2 + 1/(2 dt) and b = tau/dt^2 - 1/(2 dt):
    u_j <- [2 tau/dt^2 u_j - b u_j^{prev} + nu (u_{j+1} - 2 u_j + u_{j-1})/dx^2] / a.
    With no previous layer it takes the zero-velocity Taylor start
    u_j <- u_j + (dt^2 / (2 tau)) nu (u_{j+1} - 2 u_j + u_{j-1}) / dx^2.
    """
    return _advance_once(Scheme.HYPERBOLIC, state)[0]


def bootstrap_hyperbolic(initial: Field, params: SchemeParams,
                         bcs: tuple) -> Field:
    """``step_hyperbolic`` without a previous layer: the Taylor start."""
    return step_hyperbolic(StepState(None, initial, params, bcs))


def run_simulation(initial: Field, params: SchemeParams, bcs,
                   scheme: Scheme, num_steps: int,
                   snapshot_every: int = 1) -> RunRecord:
    """Advance ``initial`` by ``num_steps`` layers and record snapshots.

    ``num_steps`` (>= 0), ``snapshot_every`` (>= 1) and the start layer's
    ``time_index`` are integers, numpy's included and ``bool`` excluded, or
    raise ValueError.  The start layer is checked and converted to float64
    once, by ``_float_layer`` (a complex, not 1-D or non-finite layer raises
    ValueError, also when ``num_steps == 0``), and the initial snapshot holds
    it with the norm taken there.  Unless ``num_steps == 0``, the scheme's
    plan is then built once, by ``_plan``, whose gate raises ValueError for
    misuse (``bcs`` not two BoundaryConditions, a scheme that needs constant k
    or tau > 0, fewer than 3 nodes, a flux/Robin end on fewer than 4).  The
    plan sets up the coefficients, the boundary closures and, where they never
    change, the LU factors of the implicit systems; its errors propagate
    unchanged: a ValueError for a degenerate closure under constant k, and
    SingularSystemError for a degenerate Saulyev start or a zero pivot in a
    matrix lasting the run (implicit, or trapezoidal under constant k), which
    the plan factors (order < 3: each step).  Its advance maps bare arrays
    (previous layer or None, current layer, time index) to the new layer, and
    the run advances once per layer.  A kept layer is consistency-grade when
    its distance from the start is a multiple of the spec's ``layers``, so the
    Saulyev scheme's odd layers are flagged False.  A ``Field`` is built only
    for the snapshots kept, on a copy of the layer, since the plan writes
    later layers into its own rows.  Called without a previous layer, the
    multi-layer schemes start themselves: leap-frog and Dufort-Frankel with
    the explicit step, the hyperbolic scheme with the zero-velocity Taylor
    start.  The run halts and flags divergence as soon as a layer has a
    non-finite value or max-norm above 1e12.  Every layer's max-norm is
    ``grid.max_abs``, which propagates NaN and never squares the layer, so a
    huge finite layer diverges without an overflow warning.  Failures while
    advancing (an ArithmeticError such as a zero pivot or a
    FloatingPointError from an overflow in k, a FixedPointError, or a
    ValueError such as a k that is not finite and positive or does not
    broadcast, or a boundary forcing whose value is no number) are re-raised
    as SolverError with the failing step attached.
    """
    if not _whole(num_steps) or num_steps < 0:
        raise ValueError(f"num_steps must be >= 0 and an integer, got {num_steps}")
    if not _whole(snapshot_every) or snapshot_every < 1:
        raise ValueError("snapshot_every must be >= 1 and an integer, "
                         f"got {snapshot_every}")
    if not _whole(initial.time_index):
        raise ValueError("the start layer's time_index must be an integer, "
                         f"got {initial.time_index!r}")

    values, norm = _float_layer(initial.values)
    if values is not initial.values:
        initial = Field(values=values, time_index=initial.time_index)
    record = RunRecord()
    record.append(initial, True, norm)
    if num_steps == 0:
        return record
    start, end = initial.time_index, initial.time_index + num_steps
    prev, curr = None, values
    advance = _plan(scheme, params, bcs, len(curr))
    period = SPECS[scheme].layers

    for step in range(start + 1, end + 1):
        try:
            prev, curr = curr, advance(prev, curr, step - 1)
        except (ArithmeticError, FixedPointError, ValueError) as exc:
            raise SolverError(step=step, cause=exc) from exc
        norm = max_abs(curr)
        if not norm <= DIVERGENCE_THRESHOLD:
            record.diverged = True
            record.diverged_step = step
        elif (step - start) % snapshot_every and step != end:
            continue  # between snapshots, and not the last layer
        record.append(Field(values=curr.copy(), time_index=step),
                      (step - start) % period == 0, norm)
        if record.diverged:
            break
    return record
