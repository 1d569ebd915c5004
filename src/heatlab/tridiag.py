"""Tridiagonal solvers: every tridiagonal solve in heatlab runs here.

One rule picks the solve.  Every matrix that lasts the whole run (implicit,
and the trapezoidal one of cn, cn_nonlinear and ccn under constant k) is
factored once; every other (one per ``ccn`` step under affine k, one per
fixed-point iterate otherwise) is solved by one ``dgtsv``.  Both run LAPACK's
Gaussian elimination with partial pivoting, O(m) for a system of order m
(Anderson et al., *LAPACK Users' Guide*, SIAM 1999), and give the same bits.
``factored(bands)`` LU-factors the bands once (``dgttrf``) and solves each
right-hand side with one ``dgttrs``; ``direct(bands)`` solves with
``dgtsv``, in place; ``thomas_solve(system)`` runs ``direct`` on float64
copies of a ``TridiagonalSystem``.  The first two return ``solve(rhs)``,
which overwrites ``rhs`` (C-contiguous float64, a view is fine) with the
solution and returns it.  A zero pivot raises ``SingularSystemError`` naming
its row.  Pivoting matters because the steppers do not always assemble
diagonally dominant systems: affine-k ``ccn`` adds ``-(b dt / 2dx^2) u_xx``
to the diagonal, which can push the dominance margin below zero at large r.
scipy is imported on the first solve above order 1 (or on the first Saulyev
step, whose bidiagonal sweeps ``schemes`` solves with BLAS ``dtbsv``), so
importing heatlab and commands that do neither do not pay for it.
"""

from dataclasses import dataclass

import numpy as np


class SingularSystemError(ArithmeticError):
    """Raised when elimination hits a zero pivot."""


@dataclass(frozen=True)
class TridiagonalSystem:
    """System A x = rhs with A tridiagonal of order m.

    lower/upper have length m - 1, diag and rhs length m.  A complex band or
    right-hand side raises ValueError: the solvers work in float64.
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
        if any(map(np.iscomplexobj, (self.lower, self.diag, self.upper, self.rhs))):
            raise ValueError("tridiagonal system must be real, got a complex "
                             "band or right-hand side")


def _check(info: int) -> None:
    """Raise on LAPACK's ``info > 0``: pivot number ``info`` is exactly zero."""
    if info > 0:
        raise SingularSystemError(f"zero pivot in row {info - 1}")


def factored(bands: tuple):
    """``solve(rhs)`` by one ``dgttrs`` against ``bands`` factored here, for
    a matrix that serves every step of a run, so a zero pivot raises when
    the plan is built.  Below order 3, which ``dgttrf`` rejects, each call
    runs ``direct`` on fresh copies of the bands and raises there."""
    if len(bands[1]) < 3:
        return lambda rhs: direct(tuple(band.copy() for band in bands))(rhs)
    from scipy.linalg.lapack import dgttrf, dgttrs
    *lu, info = dgttrf(*bands)
    _check(info)
    return lambda rhs: dgttrs(*lu, rhs, "N", 1)[0]  # trans, overwrite_b


def direct(bands: tuple):
    """``solve(rhs)`` by ``dgtsv``, which overwrites the bands (they must be
    fresh arrays) and skips the factors a later solve would need.  Order 1,
    whose empty off-diagonal bands the ``dgtsv`` wrapper rejects, divides."""
    diag = bands[1]
    if len(diag) == 1:
        def solve(rhs):
            _check(int(diag[0] == 0.0))
            rhs /= diag[0]
            return rhs
        return solve
    from scipy.linalg.lapack import dgtsv

    def solve(rhs):
        *_, x, info = dgtsv(*bands, rhs, 1, 1, 1, 1)  # overwrite all four
        _check(info)
        return x
    return solve


def thomas_solve(system: TridiagonalSystem) -> np.ndarray:
    """Solve the tridiagonal system by LU with partial pivoting: ``direct``
    on float64 copies of its arrays, which are not modified.

    Raises SingularSystemError only when a pivot of the factorisation is
    exactly zero; small pivots are not an error.
    """
    lower, diag, upper, rhs = (np.array(a, dtype=float) for a in (
        system.lower, system.diag, system.upper, system.rhs))
    return direct((lower, diag, upper))(rhs)

