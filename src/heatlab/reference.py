"""Closed-form solutions used as convergence and accuracy oracles.

``fundamental_solution`` is the free-space heat kernel; ``SineSeriesSolution``
solves u_t = nu u_xx on [0, l] with homogeneous Dirichlet ends by separation
of variables; ``hyperbolic_mode_solution`` solves the relaxed equation
tau u_tt + u_t = nu u_xx for a single sine mode started at rest.  The two
series oracles evaluate whole arrays of x and t in one call.
"""

import math
from dataclasses import dataclass
from typing import Sequence, Union

import numpy as np

from .grid import _whole

ArrayLike = Union[float, np.ndarray]


def fundamental_solution(x: float, t: float, nu: float) -> float:
    """Free-space point-source solution (1 / sqrt(4 pi nu t)) e^{-x^2/(4 nu t)}.

    Parameters
    ----------
    x : float
        Distance from the source.
    t : float
        Time, must be positive.
    nu : float
        Diffusion coefficient, must be positive.
    """
    if not 0.0 < t < math.inf:
        raise ValueError(f"fundamental solution needs t > 0, got {t}")
    if not 0.0 < nu < math.inf:
        raise ValueError(f"diffusivity must be positive, got {nu}")
    return math.exp(-x * x / (4.0 * nu * t)) / math.sqrt(4.0 * math.pi * nu * t)


@dataclass(frozen=True)
class SineSeriesSolution:
    """u(x, t) = sum_m a_m sin(m pi x / l) exp(-nu (m pi / l)^2 t).

    Satisfies u_t = nu u_xx with homogeneous Dirichlet ends identically.
    ``modes`` is a sequence of (m, amplitude) pairs with m an integer >= 1
    (a Python or numpy integer, not ``bool``), so both ends stay at zero.
    """

    length_l: float
    nu: float
    modes: Sequence[tuple[int, float]]

    def __post_init__(self):
        if not 0.0 < self.length_l < math.inf:
            raise ValueError("domain length must be positive")
        if not 0.0 < self.nu < math.inf:
            raise ValueError("diffusivity must be positive")
        for m, _ in self.modes:
            if not _whole(m) or m < 1:
                raise ValueError(f"mode index must be an integer >= 1, got {m}")

    @staticmethod
    def single_mode(length_l: float, nu: float, m: int) -> "SineSeriesSolution":
        return SineSeriesSolution(length_l=length_l, nu=nu, modes=((m, 1.0),))


def evaluate_series(sol: SineSeriesSolution, x: ArrayLike,
                    t: ArrayLike) -> ArrayLike:
    """Value of the sine-series solution at (x, t).

    ``x`` and ``t`` broadcast against each other; the result has their
    broadcast shape (zeros when there are no modes), a scalar for scalars.
    """
    x, t = np.asarray(x, dtype=float), np.asarray(t, dtype=float)
    total = np.zeros(np.broadcast_shapes(x.shape, t.shape))
    for m, amplitude in sol.modes:
        k = m * math.pi / sol.length_l
        total += amplitude * np.sin(k * x) * np.exp(-sol.nu * k * k * t)
    return total[()]


def hyperbolic_mode_solution(nu: float, tau: float, length_l: float,
                             m: int, t: ArrayLike,
                             x: ArrayLike) -> ArrayLike:
    """Exact single-mode solution of tau u_tt + u_t = nu u_xx started at rest.

    Initial data sin(m pi x / l) with u_t(0) = 0 and homogeneous Dirichlet
    ends.  The time factor solves tau T'' + T' + nu k^2 T = 0, whose roots
    are s = (-1 +- sqrt(1 - 4 tau nu k^2)) / (2 tau); complex roots give the
    damped oscillatory regime and a double root degenerates to (1 - s t) e^{s t}.
    ``t`` and ``x`` broadcast against each other, as in ``evaluate_series``.
    ``m`` is an integer >= 1, as a ``SineSeriesSolution`` mode index.
    """
    if not _whole(m):
        raise ValueError(f"mode index must be an integer, got {m}")
    if not 0.0 < tau < math.inf:
        raise ValueError(f"relaxation time must be positive, got {tau}")
    if not (0.0 < nu < math.inf and 0.0 < length_l < math.inf and m >= 1):
        raise ValueError("need nu > 0, length_l > 0 and m >= 1")
    shape = np.broadcast_shapes(np.shape(t), np.shape(x))
    # scalars run as one-element arrays: numpy's complex multiply rounds
    # differently in its array loop and its scalar math
    t, x = np.atleast_1d(t, x)
    k = m * math.pi / length_l
    disc = complex(1.0 - 4.0 * tau * nu * k * k)
    root = np.sqrt(disc)
    s1 = (-1.0 + root) / (2.0 * tau)
    s2 = (-1.0 - root) / (2.0 * tau)
    if abs(s2 - s1) <= 1e-9 * max(abs(s1), abs(s2)):
        s = -1.0 / (2.0 * tau)
        time_factor = (1.0 - s * t) * np.exp(s * t)
    else:
        # c1 e^{s1 t} + c2 e^{s2 t} with T(0) = 1, T'(0) = 0
        value = (s2 * np.exp(s1 * t) - s1 * np.exp(s2 * t)) / (s2 - s1)
        time_factor = value.real
    return (time_factor * np.sin(k * x)).reshape(shape)[()]
