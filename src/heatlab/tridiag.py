"""Tridiagonal solvers.

``thomas_solve`` is LAPACK ``dgtsv``: Gaussian elimination with partial
pivoting, O(m) for a system of order m (Anderson et al., *LAPACK Users'
Guide*, SIAM 1999).  The steppers call it only for order 1, which the
``dgtsv`` wrapper rejects; larger systems go to LAPACK from ``schemes``
directly, LU-factored once (``dgttrf``/``dgttrs``, from order 3) when the
matrix serves many steps or iterates and ``dgtsv`` in place otherwise.  Both
pivot like ``thomas_solve`` and give the same bits.  Pivoting matters
because the steppers do not always assemble diagonally dominant systems:
affine-k ``ccn`` adds ``-(b dt / 2dx^2) u_xx`` to the diagonal, which can
push the dominance margin below zero at large r.  scipy is imported on the
first solve (or on the first Saulyev step, whose sweeps are BLAS band
solves), so importing heatlab and commands that do neither do not pay for it.

``thomas_solve_instrumented`` is the unpivoted pure-Python Thomas sweep,
kept as the reference the tests compare against.  It raises on any pivot
smaller than ``PIVOT_FLOOR`` in magnitude and counts its row operations,
exactly 2 m.
"""

from dataclasses import dataclass

import numpy as np

PIVOT_FLOOR = 1e-300


class SingularSystemError(ArithmeticError):
    """Raised when elimination hits a zero pivot.

    For the unpivoted reference, any pivot below PIVOT_FLOOR counts as zero.
    """


@dataclass(frozen=True)
class TridiagonalSystem:
    """System A x = rhs with A tridiagonal of order m.

    lower/upper have length m - 1, diag and rhs length m.
    """

    lower: np.ndarray
    diag: np.ndarray
    upper: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        m = len(self.diag)
        if m < 1:
            raise ValueError("system order must be >= 1")
        if len(self.rhs) != m or len(self.lower) != m - 1 or len(self.upper) != m - 1:
            raise ValueError(
                f"inconsistent band lengths: diag {m}, rhs {len(self.rhs)}, "
                f"lower {len(self.lower)}, upper {len(self.upper)}")


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve the tridiagonal system by LU with partial pivoting (``dgtsv``).

    Raises SingularSystemError only when a pivot of the factorisation is
    exactly zero; small pivots are not an error.  The system's arrays are
    not modified.
    """
    if len(system.diag) == 1:
        # the LAPACK wrapper rejects the empty off-diagonal bands of m = 1
        piv = float(system.diag[0])
        if piv == 0.0:
            raise SingularSystemError("zero pivot in row 0")
        return np.array([system.rhs[0] / piv], dtype=float)
    from scipy.linalg.lapack import dgtsv
    *_, x, info = dgtsv(system.lower, system.diag, system.upper, system.rhs)
    if info > 0:
        raise SingularSystemError(f"zero pivot in row {info - 1}")
    return x


def thomas_solve_instrumented(system: TridiagonalSystem) -> tuple[np.ndarray, int]:
    """Unpivoted Thomas sweep that also reports its row operations.

    Raises SingularSystemError on any pivot below PIVOT_FLOOR in magnitude,
    so it needs a system that elimination without row swaps can handle,
    such as a strictly diagonally dominant one.  Exactly one
    forward-elimination operation and one back-substitution operation per
    row, so the count is 2 m.
    """
    lower = np.asarray(system.lower, dtype=float).tolist()
    diag = np.asarray(system.diag, dtype=float).tolist()
    upper = np.asarray(system.upper, dtype=float).tolist()
    rhs = np.asarray(system.rhs, dtype=float).tolist()
    m = len(diag)
    ops = 0

    cp = [0.0] * m  # modified superdiagonal
    dp = [0.0] * m  # modified right-hand side
    piv = diag[0]
    if abs(piv) < PIVOT_FLOOR:
        raise SingularSystemError("zero pivot in row 0")
    if m > 1:
        cp[0] = upper[0] / piv
    dp[0] = rhs[0] / piv
    ops += 1
    for i in range(1, m):
        piv = diag[i] - lower[i - 1] * cp[i - 1]
        if abs(piv) < PIVOT_FLOOR:
            raise SingularSystemError(f"zero pivot in row {i}")
        if i < m - 1:
            cp[i] = upper[i] / piv
        dp[i] = (rhs[i] - lower[i - 1] * dp[i - 1]) / piv
        ops += 1

    x = [0.0] * m
    x[m - 1] = dp[m - 1]
    ops += 1
    for i in range(m - 2, -1, -1):
        x[i] = dp[i] - cp[i] * x[i + 1]
        ops += 1
    return np.array(x, dtype=float), ops
