"""Stability, dispersion, convergence-order and error-bound measurements.

``amplification`` returns the per-step Fourier multipliers g(theta) of each
scheme (theta = kappa dx) for a scalar or an array of phases;
``max_amplification`` evaluates a whole theta grid in one call and reduces it
to decide stability.  ``empirical_growth``, ``observed_order`` and
``information_speed`` turn recorded runs into measurable rates.
``dispersion_branches`` and ``hyperbolization_error_bound`` quantify how the
relaxed equation tau u_tt + u_t = nu u_xx differs from pure diffusion, and
``truncation_residual`` measures a scheme's defining relation on samples of an
exact solution instead of doing symbolic Taylor work.
"""

import math
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .grid import _whole, max_abs
from .schemes import SPECS, RunRecord, Scheme, SchemeParams, SchemeSpec

DEFAULT_THETA_SAMPLES = 721
SUPPORT_THRESHOLD = 1e-14


class UndefinedGrowthError(ArithmeticError):
    """Growth rate requested from a record with vanishing max-norm."""


@dataclass(frozen=True)
class AmplificationResult:
    """Characteristic roots g of one scheme at Fourier phases theta.

    ``roots`` holds one complex entry per root and ``max_modulus`` the
    largest |g|; each has theta's shape, so a scalar theta gives scalars.
    """

    roots: tuple
    max_modulus: Union[float, np.ndarray]


@dataclass(frozen=True)
class DispersionSample:
    """Frequency branches at one wavenumber kappa."""

    omega_parabolic: complex
    omega_plus: complex
    omega_minus: complex


def _spec(scheme: Scheme) -> SchemeSpec:
    if not isinstance(scheme, Scheme):
        raise ValueError(f"unknown scheme {scheme!r}")
    return SPECS[scheme]


def amplification(scheme: Scheme, r: Optional[float],
                  theta: Union[float, np.ndarray],
                  params: Optional[SchemeParams] = None) -> AmplificationResult:
    """Characteristic roots of one scheme at Fourier phases theta = kappa dx.

    The roots, one per layer the scheme steps from, are the ``symbol`` of
    its entry in ``schemes.SPECS``.  ``theta`` is a scalar or an array of
    phases in [0, pi], r a scalar or an array (a column of r values) that
    broadcasts against it; the roots and their largest modulus come back with
    the broadcast shape, scalars for scalars.  A relaxed scheme's symbol
    reads ``params`` (tau > 0) instead of ``r``.  A scheme without a symbol,
    an argument that is not a ``Scheme`` and a phase outside [0, pi] (named
    in the message) raise ``ValueError``.
    """
    # a scalar theta runs as a one-element array, so it takes the same
    # ufunc loops (and round-off) as an element of an array call
    phases = np.atleast_1d(np.asarray(theta, dtype=float))
    bad = ~((phases >= -1e-12) & (phases <= math.pi + 1e-12))
    if bad.any():
        raise ValueError(f"theta must lie in [0, pi], got {phases[bad][0]}")
    s = np.sin(phases / 2.0) ** 2

    spec = _spec(scheme)
    if spec.relaxed:
        if params is None:
            raise ValueError(f"{scheme.value} amplification needs params "
                             "(tau, dt, dx, nu)")
        if params.tau <= 0.0:
            raise ValueError(f"{scheme.value} amplification needs tau > 0")
    elif r is None or (bad := [x for x in np.ravel(r).tolist()
                               if not 0.0 < x < math.inf]):
        raise ValueError("diffusion number r must be positive, got "
                         f"{r if r is None else bad[0]}")
    if spec.symbol is None:
        raise ValueError(f"no closed-form amplification for {scheme.value}")
    roots = spec.symbol(params if spec.relaxed else r, s, phases)

    shape = np.broadcast_shapes(np.shape(r), np.shape(theta))
    roots = tuple(np.asarray(g, dtype=complex).reshape(shape) for g in roots)
    # hypot, like abs() of a Python complex, keeps the moduli libm-exact
    max_modulus = reduce(np.maximum, (np.hypot(g.real, g.imag) for g in roots))
    return AmplificationResult(roots=tuple(g[()] for g in roots),
                               max_modulus=max_modulus[()])


def max_amplification(scheme: Scheme, r: Optional[float] = None,
                      params: Optional[SchemeParams] = None,
                      theta_samples: int = DEFAULT_THETA_SAMPLES
                      ) -> Union[float, list]:
    """Largest root modulus over a uniform theta grid on [0, pi], a float for
    a scalar r and a list of floats, one per r, for a sequence of r values.

    One ``amplification`` call evaluates the whole grid, for a sequence of
    r values at once as a column.
    """
    if not _whole(theta_samples) or theta_samples < 2:
        raise ValueError(f"need at least 2 theta samples, got {theta_samples}")
    thetas = np.linspace(0.0, math.pi, theta_samples)
    if np.ndim(r):
        moduli = amplification(scheme, np.reshape(r, (-1, 1)), thetas, params)
        return [max_abs(row) for row in moduli.max_modulus]
    return max_abs(amplification(scheme, r, thetas, params).max_modulus)


def empirical_growth(record: RunRecord, window: int) -> float:
    """Geometric-mean per-step growth of max-norm over the trailing window.

    ``window`` counts snapshot intervals; the rate is per time step, using
    the snapshots' time indices, so any snapshot cadence works.
    """
    if not _whole(window) or window < 1:
        raise ValueError(f"window must be >= 1 and an integer, got {window}")
    if len(record.snapshots) < window + 1:
        raise ValueError(f"record has {len(record.snapshots)} snapshots, "
                         f"need at least {window + 1}")
    norm_new = record.max_norms[-1]
    norm_old = record.max_norms[-1 - window]
    if not (np.isfinite(norm_new) and np.isfinite(norm_old)):
        raise UndefinedGrowthError("growth undefined on non-finite norms")
    if norm_new == 0.0 or norm_old == 0.0:
        raise UndefinedGrowthError("growth undefined on zero max-norm")
    steps = record.snapshots[-1].time_index - record.snapshots[-1 - window].time_index
    if steps <= 0:
        raise ValueError("window spans no time steps")
    return (norm_new / norm_old) ** (1.0 / steps)


def observed_order(errors: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of log(error) against log(h).

    ``errors`` holds (h, e) pairs with strictly decreasing positive h and
    positive e.
    """
    if len(errors) < 2:
        raise ValueError("need at least 2 (h, error) samples")
    hs = np.array([h for h, _ in errors], dtype=float)
    es = np.array([e for _, e in errors], dtype=float)
    if np.any(hs <= 0.0) or np.any(es <= 0.0):
        raise ValueError("h and errors must be positive")
    if np.any(np.diff(hs) >= 0.0):
        raise ValueError("h values must be strictly decreasing")
    slope, _ = np.polyfit(np.log(hs), np.log(es), 1)
    return float(slope)


def information_speed(record: RunRecord, source: int) -> list[int]:
    """Support radius of each snapshot around the node ``source``.

    The radius of a snapshot is max |j - source| over the interior nodes,
    0 < j < N, with |u_j| > ``SUPPORT_THRESHOLD`` (0 when there are none).
    The two end nodes are left out: their closures write them from boundary
    data or from the nodes next to them, so a flux or Robin end, or nonzero
    Dirichlet data, lights an end before any front reaches it.  Nonzero
    boundary data also lights the interior nodes next to its end, which the
    radius then counts, so it tracks a front only under zero data.
    ``source`` must be a node of the grid, an integer 0 <= source < N + 1;
    the CLI passes the node where |initial| is largest.  Explicit three-point
    stencils grow the radius by exactly one cell per step; fully implicit
    solves light up the whole interior in a single step.
    """
    if not record.snapshots:
        raise ValueError("record has no snapshots")
    if not (_whole(source) and 0 <= source < len(record.snapshots[0].values)):
        raise ValueError(f"source {source} is not a node of the grid "
                         f"(0..{len(record.snapshots[0].values) - 1})")
    radii = []
    for snap in record.snapshots:
        lit = (np.abs(snap.values[1:-1]) > SUPPORT_THRESHOLD).nonzero()[0]
        # |j - source| is largest at the first or the last lit node j
        radii.append(0 if len(lit) == 0 else
                     max(source - 1 - int(lit[0]), int(lit[-1]) + 1 - source))
    return radii


def dispersion_branches(nu: float, tau: float, kappa: float) -> DispersionSample:
    """Frequency branches of the relaxed equation against pure diffusion.

    Plane waves e^{i (kappa x - omega t)} give omega = -i nu kappa^2 for the
    diffusion equation and -tau omega^2 - i omega + nu kappa^2 = 0 for the
    relaxed one, hence the two branches
    omega_+- = (-i +- sqrt(4 nu kappa^2 tau - 1)) / (2 tau)
    (principal complex square root).
    """
    if not (0.0 < tau < math.inf and 0.0 < nu < math.inf):
        raise ValueError("need tau > 0 and nu > 0")
    if not math.isfinite(kappa):
        raise ValueError(f"kappa must be finite, got {kappa}")
    root = np.sqrt(complex(4.0 * nu * kappa ** 2 * tau - 1.0))
    omega_plus = (-1j + root) / (2.0 * tau)
    omega_minus = (-1j - root) / (2.0 * tau)
    omega_parabolic = -1j * nu * kappa ** 2
    return DispersionSample(omega_parabolic=omega_parabolic,
                            omega_plus=complex(omega_plus),
                            omega_minus=complex(omega_minus))


def hyperbolization_error_bound(tau: float, sup_utt_M: float,
                                horizon_T: float) -> float:
    """Uniform bound on the gap between relaxed and diffusive solutions.

    |u_relaxed - u_diffusion| <= tau M (1 + 2/sqrt(pi))
                                 (8 sqrt(2) tau + (2 pi^2)^{1/4} / 2 * T),
    where M = sup_utt_M bounds |u_tt| of the diffusion solution over the
    space-time cone and T = horizon_T is the final time; all are finite >= 0.
    """
    if not all(0.0 <= x < math.inf for x in (tau, sup_utt_M, horizon_T)):
        raise ValueError("error-bound inputs must be nonnegative")
    return tau * sup_utt_M * (1.0 + 2.0 / math.sqrt(math.pi)) * (
        8.0 * math.sqrt(2.0) * tau + (2.0 * math.pi ** 2) ** 0.25 / 2.0 * horizon_T)


def truncation_residual(scheme: Scheme,
                        smooth_solution: Callable[[float, float], float],
                        params: SchemeParams, x: float, t: float) -> float:
    """Defining difference relation of a scheme evaluated on an exact solution.

    ``smooth_solution(x, t)`` should satisfy the target equation (pure
    diffusion, or the relaxed equation for the two-layer schemes); refinement
    studies of this residual then expose each scheme's consistency order
    without symbolic expansions.
    """
    u, dx = smooth_solution, params.dx

    def k_at(xx: float, tt: float) -> float:
        node = np.array([u(xx, tt)], dtype=float)
        return params.diffusivity.evaluate_array(node).item()

    def d2(tt: float) -> float:
        return u(x - dx, tt) - 2.0 * u(x, tt) + u(x + dx, tt)

    return _spec(scheme).residual(u, d2, k_at, params, x, t)
