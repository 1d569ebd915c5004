"""The unpivoted pure-Python Thomas sweep, the reference the tests compare
heatlab's LAPACK solves against.

It raises on any pivot smaller than ``PIVOT_FLOOR`` in magnitude and counts
its row operations, exactly 2 m.
"""

import numpy as np

from heatlab import SingularSystemError, TridiagonalSystem

PIVOT_FLOOR = 1e-300


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
