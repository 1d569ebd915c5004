import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import heatlab
from heatlab import SingularSystemError, TridiagonalSystem, thomas_solve
from thomas_reference import thomas_solve_instrumented


def dense_matrix(system):
    m = len(system.diag)
    a = np.zeros((m, m))
    for i in range(m):
        a[i, i] = system.diag[i]
        if i > 0:
            a[i, i - 1] = system.lower[i - 1]
        if i < m - 1:
            a[i, i + 1] = system.upper[i]
    return a


def random_dominant_system(rng, m):
    lower = rng.uniform(-1.0, 1.0, size=m - 1)
    upper = rng.uniform(-1.0, 1.0, size=m - 1)
    diag = rng.uniform(1.0, 2.0, size=m)
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    rhs = rng.uniform(-5.0, 5.0, size=m)
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def _bounded(lo, hi, size):
    return hnp.arrays(float, size, elements=st.floats(lo, hi))


@st.composite
def dominant_systems(draw):
    m = draw(st.integers(1, 200))
    lower = draw(_bounded(-1.0, 1.0, m - 1))
    upper = draw(_bounded(-1.0, 1.0, m - 1))
    diag = draw(_bounded(1.0, 2.0, m))
    diag[:-1] += np.abs(upper)
    diag[1:] += np.abs(lower)
    rhs = draw(_bounded(-5.0, 5.0, m))
    return TridiagonalSystem(lower=lower, diag=diag, upper=upper, rhs=rhs)


def test_identity_system():
    system = TridiagonalSystem(lower=np.zeros(2), diag=np.ones(3),
                               upper=np.zeros(2),
                               rhs=np.array([3.0, -1.0, 2.0]))
    np.testing.assert_array_equal(thomas_solve(system), [3.0, -1.0, 2.0])


def test_two_by_two_hand_solve():
    system = TridiagonalSystem(lower=np.array([1.0]), diag=np.array([2.0, 2.0]),
                               upper=np.array([1.0]), rhs=np.array([3.0, 3.0]))
    np.testing.assert_allclose(thomas_solve(system), [1.0, 1.0], atol=1e-15)


def test_single_equation():
    system = TridiagonalSystem(lower=np.zeros(0), diag=np.array([2.0]),
                               upper=np.zeros(0), rhs=np.array([4.0]))
    np.testing.assert_array_equal(thomas_solve(system), [2.0])


def test_pivot_cancellation_raises():
    # elimination gives second pivot 1 - 1*1 = 0
    system = TridiagonalSystem(lower=np.array([1.0]), diag=np.array([1.0, 1.0]),
                               upper=np.array([1.0]), rhs=np.array([1.0, 2.0]))
    with pytest.raises(SingularSystemError):
        thomas_solve(system)
    with pytest.raises(SingularSystemError, match="^zero pivot in row 1$"):
        thomas_solve_instrumented(system)


def test_pivoting_solves_zero_leading_diagonal():
    # nonsingular (det = -1), but the first unpivoted pivot is 0
    system = TridiagonalSystem(lower=np.array([1.0, 1.0]),
                               diag=np.array([0.0, 1.0, 1.0]),
                               upper=np.array([1.0, 1.0]),
                               rhs=np.array([1.0, 2.0, 3.0]))
    expected = np.linalg.solve(dense_matrix(system), system.rhs)
    np.testing.assert_allclose(thomas_solve(system), expected, atol=1e-15)
    with pytest.raises(SingularSystemError):
        thomas_solve_instrumented(system)


def test_inconsistent_lengths_rejected():
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=np.zeros(3), diag=np.ones(3),
                          upper=np.zeros(2), rhs=np.ones(3))
    with pytest.raises(ValueError):
        TridiagonalSystem(lower=np.zeros(0), diag=np.ones(0),
                          upper=np.zeros(0), rhs=np.ones(0))


@pytest.mark.parametrize("solver", [thomas_solve, thomas_solve_instrumented])
@pytest.mark.parametrize("complex_part", ["rhs", "diag", "lower"])
def test_complex_system_rejected(solver, complex_part):
    # a float64 copy would drop the imaginary part with only a ComplexWarning
    bands = {"lower": np.ones(2), "diag": np.full(3, 4.0),
             "upper": np.ones(2), "rhs": np.ones(3)}
    bands[complex_part] = bands[complex_part] + 2j
    with pytest.raises(ValueError, match="^tridiagonal system must be real"):
        solver(TridiagonalSystem(**bands))


def test_matches_dense_oracle_on_dominant_systems():
    rng = np.random.default_rng(2024)
    for _ in range(50):
        m = int(rng.integers(1, 101))
        system = random_dominant_system(rng, m)
        x = thomas_solve(system)
        expected = np.linalg.solve(dense_matrix(system), system.rhs)
        assert np.max(np.abs(x - expected)) <= 1e-10


def test_residual_norm_contract():
    rng = np.random.default_rng(7)
    for _ in range(20):
        m = int(rng.integers(2, 60))
        system = random_dominant_system(rng, m)
        x = thomas_solve(system)
        residual = dense_matrix(system) @ x - system.rhs
        assert np.max(np.abs(residual)) <= 1e-10 * (1.0 + np.max(np.abs(system.rhs)))


@pytest.mark.parametrize("m", [1, 5, 37, 100])
def test_operation_count_is_linear(m):
    rng = np.random.default_rng(m)
    system = random_dominant_system(rng, m)
    _, ops = thomas_solve_instrumented(system)
    assert ops == 2 * m


@settings(deadline=None)
@given(dominant_systems())
def test_solver_agrees_with_reference_and_dense(system):
    x = thomas_solve(system)
    x_ref, _ = thomas_solve_instrumented(system)
    expected = np.linalg.solve(dense_matrix(system), system.rhs)
    assert np.max(np.abs(x - x_ref)) <= 1e-12
    assert np.max(np.abs(x - expected)) <= 1e-10


def test_scipy_imported_on_first_solve_only():
    # a cold ``import heatlab`` must not pay for scipy; the first solve does
    src = str(Path(heatlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = """
import sys
import numpy as np
import heatlab, heatlab.cli
assert "scipy.linalg" not in sys.modules, "scipy.linalg imported eagerly"
params = heatlab.SchemeParams(heatlab.DiffusivityModel.constant(1.0),
                              dt=0.01, dx=0.1)
bcs = (heatlab.BoundaryCondition.dirichlet(0.0),) * 2
curr = heatlab.Field(values=np.array([0.0, 1.0, 2.0, 1.0, 0.0]), time_index=0)
heatlab.step_implicit(heatlab.StepState(None, curr, params, bcs))
assert "scipy.linalg" in sys.modules, "solve did not import scipy.linalg"
"""
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_scipy_imported_on_first_saulyev_step_only():
    # the Saulyev band solves load scipy.linalg lazily, like thomas_solve
    src = str(Path(heatlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = """
import sys
import numpy as np
import heatlab
assert "scipy.linalg" not in sys.modules, "scipy.linalg imported eagerly"
params = heatlab.SchemeParams(heatlab.DiffusivityModel.constant(1.0),
                              dt=0.01, dx=0.1)
bcs = (heatlab.BoundaryCondition.dirichlet(0.0),) * 2
curr = heatlab.Field(values=np.array([0.0, 1.0, 2.0, 1.0, 0.0]), time_index=0)
heatlab.step_saulyev_pair(heatlab.StepState(None, curr, params, bcs))
assert "scipy.linalg" in sys.modules, "Saulyev step did not import scipy.linalg"
"""
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr


def test_oracle_commands_never_import_scipy():
    # stability, bound and dispersion evaluate closed forms with numpy only
    src = str(Path(heatlab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = """
import contextlib, io, sys
from heatlab.cli import main
commands = [
    ["stability", "--schemes", "explicit,leapfrog,dufort_frankel",
     "--r-values", "0.5,1"],
    ["bound", "--tau", "0.01", "--horizon", "1",
     "--set", "scheme=hyperbolic", "--set", "nu=1",
     "--set", "length_l=3.141592653589793", "--set", "num_cells_N=64",
     "--set", "dt=0.001", "--set", "initial=sine:1", "--set", "num_steps=1"],
    ["dispersion", "--nu", "1", "--tau", "0.01", "--kappa-max", "8",
     "--samples", "11"],
]
for argv in commands:
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0, argv
    assert "scipy" not in sys.modules, f"{argv[0]} imported scipy"
"""
    result = subprocess.run([sys.executable, "-c", code],
                            env=dict(os.environ, PYTHONPATH=path),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
