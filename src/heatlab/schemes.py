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
parameters and the node count.  A plan returns ``block(prev, curr,
time_index, count)``, which makes up to ``count`` layers from bare float64
arrays (``prev`` is None on the first call); ``_plan`` hands out its block of
one as ``advance(prev, curr, time_index)``.  Per layer a block evaluates the
stencil (the Saulyev plan one sweep, alternating its direction), each
closure's forcing (unless it is a constant, which the closure folds) once
and, where k varies, the diffusivity (and with it the flux/Robin closures);
interiors are written first, endpoints are closed afterwards, and the layer
time is always ``time_index * dt``.  Called without a previous layer, the
multi-layer schemes start themselves.  Every plan but the varying-k
trapezoidal one makes up to cap layers a call in a ring of 2 cap + 1 rows
(``_ring``: cap is 32 at N = 64, 1 from N = 4096 on or where a layer calls
user code), each block in the rows after the row it reads, from row 0 when
it would run past the last; at cap 1, and in the varying-k trapezoidal plan,
each layer is a fresh array.  A block writes only the layers it returns, and
the last two stay intact through the next call; a caller that keeps a layer
longer copies it.  Each public ``step_*`` function builds a plan and
advances it ``layers`` times.

Diffusion number r = nu dt / dx^2 governs everything; the Dufort-Frankel
update uses 2 r and the Saulyev sweeps use r as their weight parameter.

A block's constant coefficients are 0-d float64 arrays bound by the plan
(numpy converts a Python float operand on every call, which makes a ufunc on
an N = 64 layer 1.5 times as slow), and its ufuncs write into plan-owned
scratch arrays by position; closures and the Saulyev starts use floats.
"""

import contextlib
from dataclasses import dataclass, field as dc_field
from enum import Enum
from typing import Callable, Optional

import numpy as np

from .grid import (BCKind, BoundaryCondition, Closure, Field, Side, _Constant,
                   _whole, closure, max_abs)
from .tridiag import SingularSystemError, direct, factored
# No stepper calls these three; bench/spans.py wraps them as attributes of
# this module.
from .grid import boundary_closure_coefficients, close_boundary  # noqa: F401
from .tridiag import thomas_solve  # noqa: F401

DIVERGENCE_THRESHOLD = 1e12
FIXED_POINT_TOL = 1e-12
FIXED_POINT_MAX_ITERS = 50
_INTERIOR = slice(1, -1)  # a layer's interior nodes, u[1:-1]
_BLOCK_LAYERS, _BLOCK_NODES = 32, 8192  # see _ring
_QUIET = dict(over="ignore", invalid="ignore", divide="ignore")
_AS_IS = contextlib.nullcontext()  # the caller's error state


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


# A plan's block makes up to count layers, its advance one: see ``_plan``.
Advance = Callable[[Optional[np.ndarray], np.ndarray, int], np.ndarray]
Block = Callable[[Optional[np.ndarray], np.ndarray, int, int], tuple]


def _views(u: np.ndarray) -> tuple:
    """(u, lo, mid, hi) = (u, u[:-2], u[1:-1], u[2:]), the stencil's views."""
    return u, u[:-2], u[1:-1], u[2:]


def _second_difference(lo: np.ndarray, mid: np.ndarray, hi: np.ndarray,
                       d2: Optional[np.ndarray] = None) -> np.ndarray:
    """``lo - 2 mid + hi`` into ``d2`` (a fresh array for None); ``mid +
    mid`` is the double ``2.0 * mid`` is, signed zeros and overflow included."""
    d2 = np.add(mid, mid, d2)
    np.subtract(lo, d2, d2)
    np.add(d2, hi, d2)
    return d2


def _scratch(n_nodes: int, count: int) -> list:
    """``count`` interior-sized arrays for a plan's ufuncs, or from N = 4096
    on Nones, so that numpy allocates each, as a one-layer loop did."""
    if _BLOCK_NODES // n_nodes < 2:
        return [None] * count
    return list(np.empty((count, n_nodes - 2)))


def _forward(r, d2: Optional[np.ndarray] = None):
    """``interior(prev_mid, views, out)``: writes mid + r d2 of the current
    layer's ``_views`` into the new interior ``out`` by way of the scratch
    ``d2`` (None: a fresh array); ``prev_mid`` is not read."""
    def interior(prev_mid, views, out):
        _, lo, mid, hi = views
        diff = _second_difference(lo, mid, hi, d2)
        np.multiply(diff, r, diff)
        np.add(mid, diff, out)
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


def _ring(bcs, n_nodes: int, fixed: bool, layer) -> tuple:
    """``(block, pinned)`` of a plan that makes its layers in a ring of
    R = 2 cap + 1 rows; cap is min(32, 8192 // n_nodes) or 1, and 1 where a
    layer calls user code (varying k, not ``fixed``, a forcing that is no
    number) or numpy reports underflow.  The first call cuts cap to the
    count it asks for; at cap 1 no ring is made, and each block writes one
    fresh row.  Otherwise it makes the ring.  Each row, fresh or of the
    ring, holds every constant Dirichlet end (``pinned``) before it is
    written.  ``block`` writes min(``count``, cap) layers by ``layer(before,
    last, out, time_index)``, which writes the views ``out`` from those of
    the last two layers, and returns them as a 2-D view and rows, in layer
    order.  One rule places them in the ring: the rows from s on, where s is
    one past the ring row of ``u`` (of ``prev`` when ``u`` is no ring row; 0
    when neither is), and 0 when the block would run past row R - 1.  A
    block wraps only after a row of R - count >= cap + 1 or above, so it
    never writes over the last two layers the ring made, which a run reads
    next.  A block of several layers runs under ``_QUIET`` (see
    ``run_simulation``)."""
    cap = max(1, min(_BLOCK_LAYERS, _BLOCK_NODES // n_nodes))
    if not (fixed and np.geterr()["under"] == "ignore"
            and all(isinstance(bc.forcing, _Constant) for bc in bcs)):
        cap = 1
    pinned = [bc.kind is BCKind.DIRICHLET and isinstance(bc.forcing, _Constant)
              for bc in bcs]
    ends = [(j, bcs[j].forcing) for j, pin in zip((0, -1), pinned) if pin]
    ring, views, rows, where = None, [], [], {}

    def block(prev, u, time_index, count):
        nonlocal cap, ring
        if ring is None:
            cap = min(cap, count)
            if cap == 1:  # no ring: a fresh row, as a one-layer loop made
                row = np.empty(n_nodes)
                for j, g in ends:
                    row[j] = g
                layer(prev if prev is None else _views(prev), _views(u),
                      _views(row), time_index)
                return row[None], (row,)
            ring = np.empty((2 * cap + 1, n_nodes))
            for j, g in ends:
                ring[:, j] = g
            views[:] = zip(ring, ring[:, :-2], ring[:, 1:-1], ring[:, 2:])
            rows[:] = (v[0] for v in views)
            where.update((id(row), r) for r, row in enumerate(rows))
        count = min(count, cap)
        i, j = where.get(id(prev), -1), where.get(id(u), -1)
        s = (j if j >= 0 else i) + 1
        if s + count > len(rows):
            s = 0
        before = None if prev is None else views[i] if i >= 0 else _views(prev)
        last = views[j] if j >= 0 else _views(u)
        with np.errstate(**_QUIET) if count > 1 else _AS_IS:
            for out in views[s:s + count]:
                layer(before, last, out, time_index)
                before, last, time_index = last, out, time_index + 1
        return ring[s:s + count], rows[s:s + count]
    return block, pinned


def _single(advance: Callable) -> Block:
    """The block of a plan whose ``advance`` makes one layer a call."""
    def block(prev, u, time_index, count):
        layer = advance(prev, u, time_index)
        return layer[None], (layer,)
    return block


def _closed_plan(params: SchemeParams, bcs, n_nodes: int, interior) -> Block:
    """Block of an explicit scheme, made in a ring (``_ring``): ``interior``
    (as ``_forward``) writes each new interior from the last two layers'
    views, then the closures (but for pinned ends) close it."""
    dt = params.dt
    ends_of = _ends_of(params, bcs)
    fixed = params.diffusivity.nu_value is not None

    def layer(before, last, out, time_index):
        interior(before and before[2], last, out[2])
        for close in closes if fixed else [
                end.close for end in ends_of(last[0])]:
            close(out[0], (time_index + 1) * dt)
    block, pinned = _ring(bcs, n_nodes, fixed, layer)
    closes = fixed and [end.close for end, pin in zip(ends_of(None), pinned)
                        if not pin]
    return block


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
                 rhs_into) -> Block:
    """Block of a constant-k implicit scheme with row weight ``rho``, made in
    a ring (``_ring``): ``rhs_into(None, views, out)`` (as ``_forward``)
    writes the right-hand side into each new layer's interior, which is
    solved in place against bands folded and factored once; each layer adds
    only the forcing terms, weighted by ``rho``."""
    ends = _ends_of(params, bcs)(None)
    rows = np.full(n_nodes - 2, rho)
    solve = factored(_fold(rows, 1.0 + 2.0 * rows, ends))
    edge = (float(rho),) * 2
    dt = params.dt

    def layer(before, last, out, time_index):
        rhs_into(None, last, out[2])
        _solve_folded(solve, edge, out[0], ends,
                      _terms(ends, (time_index + 1) * dt))
    return _ring(bcs, n_nodes, True, layer)[0]


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

def _plan_explicit(params: SchemeParams, bcs, n_nodes: int) -> Block:
    model = params.diffusivity
    if model.nu_value is not None:
        return _closed_plan(params, bcs, n_nodes, _forward(
            np.array(params.diffusion_number_r), *_scratch(n_nodes, 1)))
    dt, dx2 = np.array(params.dt), np.array(params.dx ** 2)

    def interior(prev_mid, views, out):  # r = k(u) dt / dx^2 per node
        r = model._evaluate_nodes(views[0], _INTERIOR) * dt / dx2
        _forward(r)(prev_mid, views, out)
    return _closed_plan(params, bcs, n_nodes, interior)


def _copy_interior(prev_mid, views, out: np.ndarray) -> None:
    out[...] = views[2]


def _plan_implicit(params: SchemeParams, bcs, n_nodes: int) -> Block:
    return _folded_plan(params, bcs, n_nodes, params.diffusion_number_r,
                        _copy_interior)


def _plan_leapfrog(params: SchemeParams, bcs, n_nodes: int) -> Block:
    r = params.diffusion_number_r
    (scratch,), two_r = _scratch(n_nodes, 1), np.array(2.0 * r)
    start = _forward(np.array(r), scratch)

    def interior(prev_mid, views, out):
        if prev_mid is None:  # the explicit start
            return start(prev_mid, views, out)
        _, lo, mid, hi = views
        d2 = _second_difference(lo, mid, hi, scratch)
        np.multiply(d2, two_r, d2)
        np.add(prev_mid, d2, out)
    return _closed_plan(params, bcs, n_nodes, interior)


def _plan_dufort_frankel(params: SchemeParams, bcs, n_nodes: int) -> Block:
    r = params.diffusion_number_r
    lam = 2.0 * r
    a, b = np.array((1.0 - lam) / (1.0 + lam)), np.array(lam / (1.0 + lam))
    scratch = _scratch(n_nodes, 2)
    start = _forward(np.array(r), scratch[0])

    def interior(prev_mid, views, out):
        if prev_mid is None:  # the explicit start
            return start(prev_mid, views, out)
        _, lo, _, hi = views
        pair = np.add(hi, lo, scratch[0])
        np.multiply(pair, b, pair)
        np.add(np.multiply(a, prev_mid, scratch[1]), pair, out)
    return _closed_plan(params, bcs, n_nodes, interior)


def _trapezoid_plan(params: SchemeParams, bcs, n_nodes: int,
                    cross: bool) -> Block:
    """Block of the trapezoid rule for u_t = k(u) u_xx: each layer's
    difference weighted by half its own k, or the other layer's if ``cross``.
    Constant k is Crank-Nicolson, factored once and made in blocks
    (``_folded_plan``); varying k makes one layer a call: crossed affine k
    is one solve a step, else ``_fixed_point`` iterates with k(v) as the
    new k."""
    model, dt, dx = params.diffusivity, params.dt, params.dx

    def half(k):
        return 0.5 * (k * dt / dx ** 2)

    if model.nu_value is not None:
        rho = half(model.nu_value)
        return _folded_plan(params, bcs, n_nodes, rho,
                            _forward(np.array(rho), *_scratch(n_nodes, 1)))
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
    return _single(advance)


def _plan_cn(params: SchemeParams, bcs, n_nodes: int) -> Block:
    return _trapezoid_plan(params, bcs, n_nodes, cross=False)


def _plan_ccn(params: SchemeParams, bcs, n_nodes: int) -> Block:
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


def _plan_saulyev(params: SchemeParams, bcs, n_nodes: int) -> Block:
    """One sweep per layer, made in a ring (``_ring``), rightwards first and
    then by the parity of ``time_index - first``."""
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
    left_part, right_part = _scratch(n_nodes, 2)
    first = None  # the time index of the plan's first layer

    def sweep(before, last, row, time_index):
        nonlocal first
        first = time_index if first is None else first
        out, _, mid, _ = row
        u, lo, u_mid, hi = last
        t = (time_index + 1) * dt
        odd = (time_index - first) % 2
        if odd:
            out[n] = start_right(u, t)
        else:
            out[0] = start_left(u, t)
        np.add(np.multiply(a, u_mid, left_part),
               np.multiply(c, lo if odd else hi, right_part), mid)
        # dtbsv(incx, offx, lower, trans, diag, overwrite_x): the rightwards
        # sweep solves out[:n] from the left start, the leftwards one out[1:]
        dtbsv(1, band, out, 1, odd, 1 - odd, 0, 1, 1)
        (close_left if odd else close_right)(out, t)
    block, pinned = _ring(bcs, n_nodes, True, sweep)
    close_left, close_right = ((lambda out, t: None) if pin else end.close
                               for pin, end in zip(pinned, (left, right)))
    return block


def _hyperbolic_coefficients(params: SchemeParams) -> tuple:
    tau, dt = params.tau, params.dt
    a = tau / dt ** 2 + 1.0 / (2.0 * dt)
    b = tau / dt ** 2 - 1.0 / (2.0 * dt)
    c = 2.0 * tau / dt ** 2
    return a, b, c


def _plan_hyperbolic(params: SchemeParams, bcs, n_nodes: int) -> Block:
    tau, dt, dx, nu = params.tau, params.dt, params.dx, params.nu
    a, b, c = _hyperbolic_coefficients(params)
    taylor = dt ** 2 / (2.0 * tau)
    a, b, c, taylor, dx2, nu = map(np.array, (a, b, c, taylor, dx ** 2, nu))
    scratch = _scratch(n_nodes, 3)

    def interior(prev_mid, views, out):
        _, lo, mid, hi = views
        diffusion = _second_difference(lo, mid, hi, scratch[0])
        np.multiply(diffusion, nu, diffusion)
        np.divide(diffusion, dx2, diffusion)
        if prev_mid is None:  # the zero-velocity Taylor start
            np.multiply(diffusion, taylor, diffusion)
            np.add(mid, diffusion, out)
        else:
            new = np.multiply(c, mid, scratch[1])
            np.subtract(new, np.multiply(b, prev_mid, scratch[2]), new)
            np.add(new, diffusion, new)
            np.divide(new, a, out)
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

    plan: Callable[..., Block]
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
    block = spec.plan(params, bcs, n_nodes)

    def advance(prev, curr, time_index):  # the block of one layer
        return block(prev, curr, time_index, 1)[1][0]
    advance.block = block
    return advance


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
    ``time_index`` are integers (not ``bool``), or raise ValueError.
    ``_float_layer`` checks the start layer, whose snapshot keeps its norm;
    ``_plan`` builds the plan once, raising ValueError for misuse, and the
    plan's own errors propagate.  The run asks for blocks of up to 32 layers,
    which a ring plan cuts to its cap (1 where a layer calls user code), so a
    block can span snapshots.  It halts and flags divergence at the first
    layer d with a non-finite value or max-norm above 1e12, tested once per
    block by one ``np.abs`` and one ``argmax``, which never square.  A block
    of several layers ignores overflow, invalid and divide, which each leave
    an inf or a NaN that fails the test; its layers after d (at most cap - 1)
    are thrown away and d is made again from its two rows under the caller's
    error state, so it warns and raises as a one-layer advance.  A block's
    kept layers, the end or diverging layer among them, are copied out
    together, and one reduction of their |block| rows gives their norms: a
    kept snapshot's ``values`` is a row of that copy, which holds only kept
    rows (at most cap) and shares memory with no other snapshot.  A kept
    layer is consistency-grade when its distance from the start is a
    multiple of the spec's ``layers``, worked out once per run.
    Failures while advancing (an ArithmeticError, a FixedPointError, or a
    ValueError such as a bad k or forcing value) are re-raised as SolverError
    with the failing step attached.
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
    block = _plan(scheme, params, bcs, len(values)).block
    period, every = SPECS[scheme].layers, snapshot_every

    def make(prev, curr, step, count):  # up to count layers after step
        try:
            return block(prev, curr, step, count)
        except (ArithmeticError, FixedPointError, ValueError) as exc:
            raise SolverError(step=step + 1, cause=exc) from exc

    prev, curr, step = None, values, start
    snapshots, norms = record.snapshots, record.max_norms
    while step < end:
        made, rows = make(prev, curr, step, min(_BLOCK_LAYERS, end - step))
        last = step + len(rows)  # a block of one layer is never made again
        size = np.abs(made)  # one divergence test for the block
        diverged = not size.item(size.argmax()) <= DIVERGENCE_THRESHOLD
        if diverged:  # the first row with a NaN or a value above it
            last = step + 1 + int(np.argmin(size <= DIVERGENCE_THRESHOLD)
                                  ) // len(values)
            record.diverged, record.diverged_step = True, last
        kept = range(step + every - (step - start) % every, last + 1, every)
        picked = slice(kept.start - step - 1, last - step, every)  # their rows
        if (diverged or last == end) and (last - start) % every:
            kept = [*kept, last]  # indexed by an array, faster than a list
            picked = np.array([s - step - 1 for s in kept])
        if kept:  # the kept rows leave the block together, with their norms
            snapshots += map(Field, made[picked].copy(), kept)
            norms += np.maximum.reduce(size[picked], 1).tolist()
        if diverged:  # that layer again, under the caller's error state
            if len(rows) > 1:
                chain = (prev, curr, *rows)
                make(chain[last - step - 1], chain[last - step], last - 1, 1)
            break
        prev, curr = rows[-2:] if len(rows) > 1 else (curr, rows[0])
        step = last
        del size  # before the next block is made
    record.consistency_grade += [(snap.time_index - start) % period == 0
                                 for snap in snapshots[1:]]
    return record
