"""Uniform space-time discretization, field storage and boundary closures.

The spatial mesh covers [0, l] with N cells (N+1 nodes); time layers are
uniformly spaced and always computed as ``n * dt``, never accumulated, so
``t(n)`` is bit-reproducible.  Boundary values are produced by closures:
Dirichlet pins the endpoint, flux and Robin conditions use the second-order
one-sided three-point derivative stencil at the endpoint.  ``closure`` is
the one place that knows the endpoint formula and which nodes it reads;
the scheme plans build their closures with it once per run (once per step
where the endpoint diffusivity varies), and ``close_boundary`` and
``boundary_closure_coefficients`` are its scalar forms.  A number given as
boundary data is a ``_Constant`` forcing, whose g ``closure`` folds once
into ``close``, so a step calls neither forcing nor ``term``.  ``max_abs``
is the one max norm: the start layer's check, ``Field.max_norm``, the
fixed-point change, the amplification sweep and the CLI's error norms read
it, and the per-block divergence test takes its argmax to |block| rows.
"""

from dataclasses import dataclass
from enum import Enum
from typing import Callable, NamedTuple, Sequence, Union

import numpy as np

TimeFunction = Callable[[float], float]


class BCKind(Enum):
    DIRICHLET = "dirichlet"
    FLUX = "flux"
    ROBIN = "robin"


class Side(Enum):
    LEFT = "left"
    RIGHT = "right"


@dataclass(frozen=True)
class Grid1D:
    """Uniform mesh on [0, length_l] with nodes x_j = j * dx, j = 0..N."""

    length_l: float
    num_cells_N: int
    dx: float
    nodes: np.ndarray


def _whole(n) -> bool:
    """A Python or numpy integer, not ``bool``: the rule for every count and
    mode index, since a float one would be rounded or sliced."""
    return isinstance(n, (int, np.integer)) and not isinstance(n, bool)


def build_uniform_grid(length_l: float, num_cells_N: int) -> Grid1D:
    """Build a uniform grid with N cells on [0, length_l].

    Parameters
    ----------
    length_l : float
        Domain length, must be positive.
    num_cells_N : int
        Number of cells, a Python or numpy integer (not ``bool``); at least
        2 so every three-point stencil has an interior node to act on.
    """
    if not np.isfinite(length_l) or length_l <= 0.0:
        raise ValueError(f"domain length must be positive, got {length_l}")
    if not _whole(num_cells_N):
        raise ValueError(f"number of cells must be an integer, got {num_cells_N}")
    if num_cells_N < 2:
        raise ValueError(f"need at least 2 cells, got {num_cells_N}")
    dx = length_l / num_cells_N
    nodes = np.arange(num_cells_N + 1, dtype=float) * dx
    return Grid1D(length_l=float(length_l), num_cells_N=int(num_cells_N),
                  dx=dx, nodes=nodes)


def max_abs(values: np.ndarray) -> float:
    """max |values| as a Python number: the value of ``np.abs(values).max()``.

    ``argmax`` returns the index of the first NaN when there is one, so a NaN
    anywhere gives NaN, as the reduction does (BLAS ``idamax`` would skip
    it), and -0.0 reads 0.0.  Unlike ``np.maximum.reduce`` it sets up no
    reduction, which is most of the cost on a small layer.  An empty array
    raises ValueError.
    """
    magnitude = np.abs(values)
    return magnitude.item(magnitude.argmax())


@dataclass(frozen=True)
class Field:
    """One time layer of nodal values u_j, j = 0..N."""

    values: np.ndarray
    time_index: int

    @property
    def max_norm(self) -> float:
        return float(max_abs(self.values))  # a float for integer values too


def sample_initial(u0: Callable[[float], float], grid: Grid1D) -> Field:
    """Sample an initial profile at the grid nodes, u_j = u0(x_j).

    ``u0`` receives each node as a Python float and its value is passed
    through ``float()``, so a numeric string such as ``"1.5"`` is parsed.
    Rejects profiles that produce non-finite values anywhere on the grid,
    raise ArithmeticError (such as 1/x at x = 0) or give no number (None, a
    complex, an array, a string ``float()`` cannot parse, or a ValueError of
    their own such as ``math.sqrt(-1)``), naming the first such node.
    """
    samples: list = []
    cause = None
    try:
        for x in grid.nodes.tolist():
            samples.append(float(u0(x)))
    except (ArithmeticError, TypeError, ValueError) as exc:
        cause = exc
        samples.append(np.nan)  # stands for the node that raised
    values = np.array(samples, dtype=float)
    finite = np.isfinite(values)
    if not finite.all():
        bad = int(np.argmin(finite))
        what = ("gave no number" if isinstance(cause, (TypeError, ValueError))
                and bad == len(samples) - 1 else "is not finite")
        raise ValueError(f"initial profile {what} at node {bad} "
                         f"(x = {grid.nodes[bad]})") from cause
    return Field(values=values, time_index=0)


class _Constant(float):
    """A number given as boundary data: a float and the forcing t -> value."""

    def __call__(self, t):
        return float(self)


def _as_time_function(phi: Union[float, TimeFunction]) -> TimeFunction:
    if callable(phi):
        return phi
    try:
        value = float(phi)
    except (TypeError, ValueError):
        raise ValueError("boundary data must be a number or a callable, "
                         f"got {phi!r}") from None
    if not np.isfinite(value):
        raise ValueError(f"boundary value must be finite, got {value}")
    return _Constant(value)


@dataclass(frozen=True)
class BoundaryCondition:
    """One endpoint condition: Dirichlet, flux (Neumann) or Robin.

    Dirichlet enforces u = forcing(t); flux enforces nu * u_x = forcing(t);
    Robin combines the two: coeff_a * u + coeff_b * nu * u_x = forcing(t).
    A number given as ``forcing`` (0.0 by default) is a constant forcing.
    A ``kind`` that is no BCKind, forcing that is no callable or finite
    number, non-finite coefficients and nonzero ones on a Dirichlet or flux
    condition, which ignores them, raise ValueError.
    """

    kind: BCKind
    coeff_a: float = 0.0
    coeff_b: float = 0.0
    forcing: TimeFunction = _Constant(0.0)

    def __post_init__(self):
        if not isinstance(self.kind, BCKind):
            raise ValueError("boundary kind must be a BCKind, "
                             f"got {self.kind!r}")
        object.__setattr__(self, "forcing", _as_time_function(self.forcing))
        if not (np.isfinite(self.coeff_a) and np.isfinite(self.coeff_b)):
            raise ValueError("boundary coefficients must be finite, got "
                             f"({self.coeff_a}, {self.coeff_b})")
        if self.kind is BCKind.ROBIN and self.coeff_a == 0.0 and self.coeff_b == 0.0:
            raise ValueError("Robin condition needs (coeff_a, coeff_b) != (0, 0)")
        if self.kind is not BCKind.ROBIN and (self.coeff_a or self.coeff_b):
            raise ValueError(f"a {self.kind.value} condition takes no coefficients, "
                             f"got ({self.coeff_a}, {self.coeff_b})")

    @staticmethod
    def dirichlet(phi: Union[float, TimeFunction] = 0.0) -> "BoundaryCondition":
        return BoundaryCondition(kind=BCKind.DIRICHLET, forcing=phi)

    @staticmethod
    def flux(phi: Union[float, TimeFunction] = 0.0) -> "BoundaryCondition":
        return BoundaryCondition(kind=BCKind.FLUX, forcing=phi)

    @staticmethod
    def robin(coeff_a: float, coeff_b: float,
              phi: Union[float, TimeFunction] = 0.0) -> "BoundaryCondition":
        return BoundaryCondition(kind=BCKind.ROBIN, coeff_a=float(coeff_a),
                                 coeff_b=float(coeff_b), forcing=phi)


class Closure(NamedTuple):
    """One endpoint of the layer being completed, closed from that layer.

    The endpoint value is ``a1 * u_adj + a2 * u_adj2 + term(t)``, where
    u_adj is the node next to the boundary and u_adj2 the one after it, both
    on the new layer, and term(t) = forcing(t) / denom, with denom = 1 (and
    so forcing(t) itself) for Dirichlet.  ``put(out, g)`` writes it into
    ``out`` with g = term(t), so a caller that also needs g elsewhere (a
    folded implicit row) evaluates the forcing once; ``close(out, t)`` is
    ``put(out, term(t))`` in one call.
    """

    a1: float
    a2: float
    term: Callable[[float], float]
    put: Callable[[np.ndarray, float], None]
    close: Callable[[np.ndarray, float], None]


def closure(bc: BoundaryCondition, side: Side, nu: float, dx: float) -> Closure:
    """The closure of ``bc`` at ``side`` for diffusivity nu at the endpoint.

    Dirichlet pins the endpoint to forcing(t): (a1, a2) = (0, 0) and denom
    = 1.  Flux and Robin come from solving a * u + b * nu * u_x = forcing(t)
    for the endpoint value, with u_x replaced by the one-sided three-point
    formula (-3 u_0 + 4 u_1 - u_2) / (2 dx) on the left and its mirror on
    the right; a vanishing denominator raises ValueError.  All kinds share
    one ``term``, which raises ValueError naming the side and t when the
    forcing's value is no number.  A ``_Constant`` forcing is folded here:
    ``term`` and ``close`` read its g and call no forcing.
    """
    forcing, kind, left = bc.forcing, bc.kind, side is Side.LEFT
    j, i1, i2 = (0, 1, 2) if left else (-1, -2, -3)
    if kind is BCKind.DIRICHLET:
        a1 = a2 = 0.0
        denom = 1.0
    else:
        a, b = (0.0, 1.0) if kind is BCKind.FLUX else (bc.coeff_a, bc.coeff_b)
        w = b * nu / (2.0 * dx)
        mirror = -1.0 if left else 1.0  # the right end mirrors the left
        denom = a + mirror * 3.0 * w
        scale = abs(a) + abs(3.0 * w)
        if abs(denom) <= 1e-12 * scale:
            raise ValueError(f"degenerate {kind.value} closure: "
                             f"a = {a}, b*nu/(2 dx) = {w}")
        a1, a2 = mirror * 4.0 * w / denom, -mirror * w / denom

    folded = float(forcing) / denom if isinstance(forcing, _Constant) else None

    def term(t):
        if folded is not None:
            return folded
        value = forcing(t)
        try:
            return float(value) / denom
        except TypeError as exc:
            raise ValueError(f"{side.value} boundary forcing at t = {t} gave "
                             f"{value!r}, not a number") from exc

    if kind is BCKind.DIRICHLET:  # g as is: 0 * u_adj + g makes -0.0 +0.0
        def put(out, g):
            out[j] = g

        def close(out, t):
            out[j] = term(t) if folded is None else folded
    else:
        def put(out, g):
            # Python floats: the same IEEE products as numpy scalars, cheaper
            out[j] = a1 * out.item(i1) + a2 * out.item(i2) + g

        def close(out, t):
            out[j] = (a1 * out.item(i1) + a2 * out.item(i2)
                      + (term(t) if folded is None else folded))
    return Closure(a1, a2, term, put, close)


def boundary_closure_coefficients(bc: BoundaryCondition, side: Side,
                                  t_next: float, nu: float,
                                  dx: float) -> tuple[float, float, float]:
    """Affine form of the boundary closure at the layer being completed.

    Returns (a1, a2, g) such that the boundary value is
    ``a1 * u_adj + a2 * u_adj2 + g``, with g = forcing(t_next) / denom;
    Dirichlet yields (0, 0, forcing(t)).
    """
    end = closure(bc, side, nu, dx)
    return end.a1, end.a2, end.term(t_next)


def close_boundary(bc: BoundaryCondition, side: Side,
                   interior: Union[Sequence[float], np.ndarray],
                   t_next: float, nu: float, dx: float) -> float:
    """Boundary value of the layer being completed.

    ``interior`` must already hold new-layer values at the two nodes next to
    the boundary (Dirichlet ignores them); it is not modified.
    """
    out = np.array(interior, dtype=float)
    if bc.kind is not BCKind.DIRICHLET and out.shape[0] < 3:
        raise ValueError("flux/Robin closure needs at least 3 nodes (N >= 2)")
    end = closure(bc, side, nu, dx)
    end.put(out, end.term(t_next))
    return float(out[0 if side is Side.LEFT else -1])
