"""Uniform space-time discretization, field storage and boundary closures.

The spatial mesh covers [0, l] with N cells (N+1 nodes); time layers are
uniformly spaced and always computed as ``n * dt``, never accumulated, so
``t(n)`` is bit-reproducible.  Boundary values are produced by closures:
Dirichlet pins the endpoint, flux and Robin conditions use the second-order
one-sided three-point derivative stencil at the endpoint.  ``closure`` is
the one place that knows the endpoint formula and which nodes it reads;
the scheme plans build their closures with it once per run (once per step
where the endpoint diffusivity varies), and ``close_boundary`` and
``boundary_closure_coefficients`` are its scalar forms.
"""

from dataclasses import dataclass, field
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


def build_uniform_grid(length_l: float, num_cells_N: int) -> Grid1D:
    """Build a uniform grid with N cells on [0, length_l].

    Parameters
    ----------
    length_l : float
        Domain length, must be positive.
    num_cells_N : int
        Number of cells; at least 2 so every three-point stencil has an
        interior node to act on.
    """
    if not np.isfinite(length_l) or length_l <= 0.0:
        raise ValueError(f"domain length must be positive, got {length_l}")
    if num_cells_N < 2:
        raise ValueError(f"need at least 2 cells, got {num_cells_N}")
    dx = length_l / num_cells_N
    nodes = np.arange(num_cells_N + 1, dtype=float) * dx
    return Grid1D(length_l=float(length_l), num_cells_N=int(num_cells_N),
                  dx=dx, nodes=nodes)


@dataclass(frozen=True)
class Field:
    """One time layer of nodal values u_j, j = 0..N."""

    values: np.ndarray
    time_index: int

    @property
    def max_norm(self) -> float:
        return float(np.abs(self.values).max())


def sample_initial(u0: Callable[[float], float], grid: Grid1D) -> Field:
    """Sample an initial profile at the grid nodes, u_j = u0(x_j).

    Rejects profiles that produce non-finite values anywhere on the grid.
    """
    values = np.array([float(u0(x)) for x in grid.nodes], dtype=float)
    if not np.all(np.isfinite(values)):
        bad = int(np.flatnonzero(~np.isfinite(values))[0])
        raise ValueError(f"initial profile is not finite at node {bad} "
                         f"(x = {grid.nodes[bad]})")
    return Field(values=values, time_index=0)


def _as_time_function(phi: Union[float, TimeFunction]) -> TimeFunction:
    if callable(phi):
        return phi
    value = float(phi)
    return lambda t: value


@dataclass(frozen=True)
class BoundaryCondition:
    """One endpoint condition: Dirichlet, flux (Neumann) or Robin.

    Dirichlet enforces u = forcing(t); flux enforces nu * u_x = forcing(t);
    Robin combines the two: coeff_a * u + coeff_b * nu * u_x = forcing(t).
    """

    kind: BCKind
    coeff_a: float = 0.0
    coeff_b: float = 0.0
    forcing: TimeFunction = field(default=lambda t: 0.0)

    def __post_init__(self):
        if self.kind is BCKind.ROBIN and self.coeff_a == 0.0 and self.coeff_b == 0.0:
            raise ValueError("Robin condition needs (coeff_a, coeff_b) != (0, 0)")

    @staticmethod
    def dirichlet(phi: Union[float, TimeFunction] = 0.0) -> "BoundaryCondition":
        return BoundaryCondition(kind=BCKind.DIRICHLET, forcing=_as_time_function(phi))

    @staticmethod
    def flux(phi: Union[float, TimeFunction] = 0.0) -> "BoundaryCondition":
        return BoundaryCondition(kind=BCKind.FLUX, forcing=_as_time_function(phi))

    @staticmethod
    def robin(coeff_a: float, coeff_b: float,
              phi: Union[float, TimeFunction] = 0.0) -> "BoundaryCondition":
        return BoundaryCondition(kind=BCKind.ROBIN, coeff_a=float(coeff_a),
                                 coeff_b=float(coeff_b),
                                 forcing=_as_time_function(phi))


class Closure(NamedTuple):
    """One endpoint of the layer being completed, closed from that layer.

    The endpoint value is ``a1 * u_adj + a2 * u_adj2 + term(t)``, where
    u_adj is the node next to the boundary and u_adj2 the one after it, both
    on the new layer, and term(t) = forcing(t) / denom.  ``put(out, g)``
    writes it into ``out`` with g = term(t), so a caller that also needs g
    elsewhere (a folded implicit row) evaluates the forcing once.
    """

    a1: float
    a2: float
    term: Callable[[float], float]
    put: Callable[[np.ndarray, float], None]


def closure(bc: BoundaryCondition, side: Side, nu: float, dx: float) -> Closure:
    """The closure of ``bc`` at ``side`` for diffusivity nu at the endpoint.

    Dirichlet pins the endpoint to forcing(t): (a1, a2) = (0, 0) and denom
    = 1.  Flux and Robin come from solving a * u + b * nu * u_x = forcing(t)
    for the endpoint value, with u_x replaced by the one-sided three-point
    formula (-3 u_0 + 4 u_1 - u_2) / (2 dx) on the left and its mirror on
    the right; a vanishing denominator raises ValueError.
    """
    forcing = bc.forcing
    j, i1, i2 = (0, 1, 2) if side is Side.LEFT else (-1, -2, -3)
    if bc.kind is BCKind.DIRICHLET:
        def term(t):
            return float(forcing(t))

        def put(out, g):
            out[j] = g
        return Closure(0.0, 0.0, term, put)
    if bc.kind is BCKind.FLUX:
        a, b = 0.0, 1.0
    else:
        a, b = bc.coeff_a, bc.coeff_b
    w = b * nu / (2.0 * dx)
    mirror = -1.0 if side is Side.LEFT else 1.0  # the right end mirrors the left
    denom = a + mirror * 3.0 * w
    scale = abs(a) + abs(3.0 * w)
    if abs(denom) <= 1e-12 * scale or denom == 0.0:
        raise ValueError(f"degenerate {bc.kind.value} closure: "
                         f"a = {a}, b*nu/(2 dx) = {w}")
    a1, a2 = mirror * 4.0 * w / denom, -mirror * w / denom

    def term(t):
        return float(forcing(t)) / denom

    def put(out, g):
        # Python floats: the same IEEE products as numpy scalars, cheaper
        out[j] = a1 * out.item(i1) + a2 * out.item(i2) + g
    return Closure(a1, a2, term, put)


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
                   interior: Union[Field, Sequence[float], np.ndarray],
                   t_next: float, nu: float, dx: float) -> float:
    """Boundary value of the layer being completed.

    ``interior`` must already hold new-layer values at the two nodes next to
    the boundary (Dirichlet ignores them); it is not modified.
    """
    values = interior.values if isinstance(interior, Field) else interior
    out = np.array(values, dtype=float)
    if bc.kind is not BCKind.DIRICHLET and out.shape[0] < 3:
        raise ValueError("flux/Robin closure needs at least 3 nodes (N >= 2)")
    end = closure(bc, side, nu, dx)
    end.put(out, end.term(t_next))
    return float(out[0 if side is Side.LEFT else -1])
