"""One table entry per scheme: ``schemes.SPECS``.

Analysis, the CLI and ``run_simulation`` read a scheme's spec instead of
naming ``Scheme`` members, so a new scheme touches ``schemes.py`` alone.  No linter runs on
this repository, so the source checks below stand in for one.
"""

import argparse
import ast
import inspect
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from heatlab import (BoundaryCondition, DiffusivityModel, Field, Scheme,
                     SchemeParams, StepState, amplification, run_simulation,
                     step_ccn, step_cn_nonlinear, step_crank_nicolson,
                     step_dufort_frankel, step_explicit, step_hyperbolic,
                     step_implicit, step_leapfrog, step_saulyev_pair,
                     truncation_residual)
import heatlab
from heatlab import cli, schemes
from heatlab.schemes import SPECS

SRC = Path(cli.__file__).parent
HOMOGENEOUS = (BoundaryCondition.dirichlet(0.0), BoundaryCondition.dirichlet(0.0))
STEPPERS = {
    Scheme.EXPLICIT: step_explicit, Scheme.IMPLICIT: step_implicit,
    Scheme.CRANK_NICOLSON: step_crank_nicolson,
    Scheme.CN_NONLINEAR: step_cn_nonlinear, Scheme.CROSS_CN: step_ccn,
    Scheme.LEAPFROG: step_leapfrog, Scheme.DUFORT_FRANKEL: step_dufort_frankel,
    Scheme.SAULYEV: step_saulyev_pair, Scheme.HYPERBOLIC: step_hyperbolic,
}


def sine(n_cells=8, time_index=0):
    nodes = np.linspace(0.0, 1.0, n_cells + 1)
    return Field(values=np.sin(np.pi * nodes), time_index=time_index)


def test_every_scheme_has_one_spec():
    assert set(SPECS) == set(Scheme)
    assert set(STEPPERS) == set(Scheme)


@pytest.mark.parametrize("source", [
    "analysis.py", "cli.py", "run_simulation", "_advance_once"])
def test_analysis_and_cli_name_no_scheme_member(source):
    # run_simulation, and _advance_once behind the public steppers, read a
    # scheme's spec and have no per-scheme branch
    text = ((SRC / source).read_text() if source.endswith(".py")
            else inspect.getsource(getattr(schemes, source)))
    assert re.findall(r"\bScheme\.[A-Z][A-Z_]*", text) == []


def test_analysis_rejects_what_is_not_a_scheme():
    p = SchemeParams(DiffusivityModel.constant(1.0), dt=0.001, dx=0.125)
    with pytest.raises(ValueError, match="unknown scheme 'explicit'"):
        amplification("explicit", 0.5, 1.0)
    with pytest.raises(ValueError, match="unknown scheme 'explicit'"):
        truncation_residual("explicit", lambda x, t: x, p, 0.5, 0.5)


def test_stability_rejection_lists_the_r_only_symbols():
    with pytest.raises(cli.ConfigError, match="no r-only") as info:
        cli.cmd_stability(["hyperbolic"], [1.0], 721, io.StringIO())
    listed = str(info.value).split("supported: ")[1].split(", ")
    assert sorted(listed) == sorted(["explicit", "implicit", "cn", "leapfrog",
                                     "dufort_frankel"])


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_gate_applies_constant_k_to_runs_and_public_steppers(scheme):
    p = SchemeParams(DiffusivityModel.affine(1.0, 0.2), dt=0.001, dx=0.125,
                     tau=0.05)
    prev, curr = sine(), sine(time_index=1)
    calls = (lambda: run_simulation(prev, p, HOMOGENEOUS, scheme, 1),
             lambda: STEPPERS[scheme](StepState(prev, curr, p, HOMOGENEOUS)))
    for call in calls:
        if SPECS[scheme].constant_k:
            with pytest.raises(ValueError,
                               match=f"^{scheme.value} scheme requires constant"):
                call()
        else:
            call()


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_gate_applies_tau_to_relaxed_schemes_only(scheme):
    p = SchemeParams(DiffusivityModel.constant(1.0), dt=0.001, dx=0.125,
                     tau=0.0)
    prev, curr = sine(), sine(time_index=1)
    calls = (lambda: run_simulation(prev, p, HOMOGENEOUS, scheme, 1),
             lambda: STEPPERS[scheme](StepState(prev, curr, p, HOMOGENEOUS)))
    for call in calls:
        if SPECS[scheme].relaxed:
            with pytest.raises(ValueError, match="needs tau > 0"):
                call()
        else:
            call()


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_layers_is_the_consistency_grade_period(scheme):
    p = SchemeParams(DiffusivityModel.constant(1.0), dt=0.001, dx=0.125)
    layers = SPECS[scheme].layers
    record = run_simulation(sine(), p, HOMOGENEOUS, scheme, 2 * layers)
    pair = [False] * (layers - 1) + [True]
    assert record.consistency_grade == [True] + pair + pair


@pytest.mark.parametrize("scheme", [s for s in Scheme if SPECS[s].symbol],
                         ids=lambda s: s.value)
def test_every_symbol_agrees_with_its_own_plan(scheme):
    # a discrete sine mode is an eigenvector of one advance under homogeneous
    # Dirichlet ends: a one-layer plan multiplies it by g, a two-layer plan
    # maps (prev, curr) = (0, v) to alpha v and (v, 0) to beta v, and the
    # roots of g^2 - alpha g - beta are the symbol's
    n = 64
    nodes = np.arange(n + 1)
    spec = SPECS[scheme]
    for r in [0.1, 0.5, 3.0]:
        if scheme is Scheme.EXPLICIT and r > 0.5:
            continue
        p = SchemeParams(DiffusivityModel.constant(1.0), dt=r / n ** 2,
                         dx=1.0 / n, tau=0.01)
        advance = schemes._plan(scheme, p, HOMOGENEOUS, n + 1)
        for m in [1, 5, 17, 40, 63]:
            theta = m * np.pi / n
            v = np.sin(nodes * theta)
            roots = spec.symbol(p if spec.relaxed else r,
                                np.sin(theta / 2.0) ** 2, theta)
            if len(roots) == 1:
                (g,) = roots
                error = np.max(np.abs(advance(None, v, 1) - g * v))
            else:
                zero = np.zeros(n + 1)
                alpha, beta = (advance(prev, curr, 1) @ v / (v @ v)
                               for prev, curr in ((zero, v), (v, zero)))
                residual = max(
                    np.max(np.abs(advance(zero, v, 1) - alpha * v)),
                    np.max(np.abs(advance(v, zero, 1) - beta * v)))
                root = np.sqrt(complex(alpha * alpha + 4.0 * beta))
                plan_roots = ((alpha + root) / 2.0, (alpha - root) / 2.0)
                error = max(residual, min(
                    max(abs(a - b) for a, b in zip(plan_roots, pair))
                    for pair in (roots, roots[::-1])))
            scale = max(1.0, *(abs(g) for g in roots))
            assert error <= 1e-12 * scale, (r, m, error)


def smooth(x, t):
    return np.sin(2.0 * x + 0.3) * np.exp(-t) + 0.1 * np.cos(5.0 * x - t)


@pytest.mark.parametrize("scheme", [
    Scheme.EXPLICIT, Scheme.IMPLICIT, Scheme.CRANK_NICOLSON, Scheme.LEAPFROG,
    Scheme.DUFORT_FRANKEL, Scheme.HYPERBOLIC, Scheme.CN_NONLINEAR,
    Scheme.CROSS_CN], ids=lambda s: s.value)
def test_every_residual_is_a_fixed_multiple_of_its_plans_defect(scheme):
    # one advance of exact layers misses the exact next layer by f times the
    # spec's residual (after the band operator for implicit and the three
    # trapezoids); the identity is algebraic, so any smooth u serves.
    # cn_nonlinear and ccn are covered under constant k only, where their
    # plan is CN's; Saulyev is not covered.
    n, tau = 32, 0.01
    nodes = np.linspace(0.0, 1.0, n + 1)
    bcs = tuple(BoundaryCondition.dirichlet(lambda t, end=end: smooth(end, t))
                for end in (0.0, 1.0))
    for r in [0.1, 0.4, 2.0]:
        dt = r / n ** 2
        p = SchemeParams(DiffusivityModel.constant(1.0), dt=dt, dx=1.0 / n,
                         tau=tau)
        t = 7 * dt
        advance = schemes._plan(scheme, p, bcs, n + 1)
        defect = smooth(nodes, t + dt) - advance(
            smooth(nodes, t - dt), smooth(nodes, t), 7)
        rho = {Scheme.IMPLICIT: r, Scheme.CRANK_NICOLSON: r / 2.0,
               Scheme.CN_NONLINEAR: r / 2.0, Scheme.CROSS_CN: r / 2.0,
               }.get(scheme, 0.0)
        defect = (1.0 + 2.0 * rho) * defect[1:-1] - rho * (defect[:-2] + defect[2:])
        f = {Scheme.LEAPFROG: 2.0 * dt,
             Scheme.DUFORT_FRANKEL: 2.0 * dt / (1.0 + 2.0 * r),
             Scheme.HYPERBOLIC: 1.0 / (tau / dt ** 2 + 1.0 / (2.0 * dt)),
             }.get(scheme, dt)
        residual = [truncation_residual(scheme, smooth, p, x, t)
                    for x in nodes[1:-1]]
        np.testing.assert_allclose(defect, f * np.array(residual), rtol=1e-8,
                                   atol=0.0, err_msg=f"r = {r}")


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_every_plan_takes_params_bcs_and_node_count(scheme):
    signature = inspect.signature(SPECS[scheme].plan)
    assert list(signature.parameters) == ["params", "bcs", "n_nodes"]


def test_public_steppers_take_only_their_step_state():
    steppers = [name for name in dir(schemes) if name.startswith("step_")]
    assert len(steppers) == len(STEPPERS)
    for name in steppers:
        parameters = inspect.signature(getattr(schemes, name)).parameters
        assert list(parameters) == ["state"], name


def imported_names(tree):
    """Names bound by the module-level imports of a parsed module."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names += [(alias.asname or alias.name).split(".")[0]
                      for alias in node.names]
    return names


# bench/spans.py wraps these three as attributes of heatlab.schemes
BENCH_SEAMS = {("schemes.py", "boundary_closure_coefficients"),
               ("schemes.py", "close_boundary"), ("schemes.py", "thomas_solve")}


def test_no_module_imports_a_name_it_never_uses():
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        if path.name == "__init__.py":
            used |= set(heatlab.__all__)
        unused |= {(path.name, name) for name in imported_names(tree)
                   if name not in used}
    assert unused == BENCH_SEAMS


def private_definitions(tree):
    """Module-level functions, classes and constants, and methods, whose
    name has one leading underscore."""
    names = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            names += [name.id for name in ast.walk(node)
                      if isinstance(name, ast.Name)
                      and isinstance(name.ctx, ast.Store)]
        if isinstance(node, ast.ClassDef):
            names += [item.name for item in node.body
                      if isinstance(item, ast.FunctionDef)]
    return [name for name in names
            if name.startswith("_") and not name.startswith("__")]


def test_every_private_name_is_used():
    defined, used = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined |= {(path.name, name) for name in private_definitions(tree)}
        for node in ast.walk(tree):  # loads only: a definition is no use
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    assert {(module, name) for module, name in defined
            if name not in used} == set()


def test_only_tridiag_imports_lapack():
    # every ImportFrom, at module level or inside a function
    importers = {path.name for path in SRC.glob("*.py")
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom)
                 and node.module == "scipy.linalg.lapack"}
    assert importers == {"tridiag.py"}


def wrapper_keyword_calls(tree):
    """(line, wrapper, keywords) of each call that passes a keyword to a
    name imported from scipy's BLAS or LAPACK wrappers, or to an attribute
    of either module imported under a name."""
    modules = ("scipy.linalg.blas", "scipy.linalg.lapack")
    wrappers, aliases = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in modules:
            wrappers |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            aliases |= {alias.asname for alias in node.names
                        if alias.name in modules and alias.asname}
    calls = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and node.keywords):
            continue
        func = node.func
        if ((isinstance(func, ast.Name) and func.id in wrappers)
                or (isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in aliases)):
            calls.append((node.lineno, ast.unparse(func),
                          [keyword.arg for keyword in node.keywords]))
    return calls


def test_blas_and_lapack_wrappers_take_positional_options():
    # f2py parses keyword options slower than a small solve takes, so heatlab
    # passes them by position; the check finds a planted keyword call
    found = {path.name: wrapper_keyword_calls(ast.parse(path.read_text()))
             for path in SRC.glob("*.py")}
    assert {name: calls for name, calls in found.items() if calls} == {}
    planted = ast.parse("from scipy.linalg.blas import dtbsv as solve\n"
                        "import scipy.linalg.lapack as lapack\n"
                        "def f(a, x):\n"
                        "    solve(1, a, x, lower=1)\n"
                        "    lapack.dgtsv(a, a, a, x, overwrite_b=1)\n")
    assert wrapper_keyword_calls(planted) == [
        (4, "solve", ["lower"]), (5, "lapack.dgtsv", ["overwrite_b"])]


def test_all_lists_exactly_the_names_the_package_imports():
    assert all(hasattr(heatlab, name) for name in heatlab.__all__)
    assert len(set(heatlab.__all__)) == len(heatlab.__all__)
    tree = ast.parse((SRC / "__init__.py").read_text())
    assert set(heatlab.__all__) - {"__version__"} == set(imported_names(tree))


def test_readme_quick_start_runs_cleanly():
    # the README's one Python example, run as documented, warnings as errors
    readme = (SRC.parents[1] / "README.md").read_text()
    (code,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    result = subprocess.run([sys.executable, "-W", "error", "-c", code],
                            env=dict(os.environ, PYTHONPATH=str(SRC.parent)),
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert result.stdout


def test_every_cli_option_is_documented_in_the_readme():
    readme = (SRC.parents[1] / "README.md").read_text()
    parser = cli._build_parser()
    (commands,) = [action for action in parser._actions
                   if isinstance(action, argparse._SubParsersAction)]
    options = {(name, option) for name, sub in commands.choices.items()
               for action in sub._actions for option in action.option_strings
               if option.startswith("--")}
    assert {(name, option) for name, option in options
            if option not in readme} == set()
