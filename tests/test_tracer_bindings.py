"""The benchmark tracer patches femspde functions and methods by name.

A refactor that renames or drops one of them breaks every traced benchmark
run, so every name the tracer binds must resolve in femspde.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("span", sorted(tracer.FUNCTIONS))
def test_function_binding_resolves(span):
    module_name, attr = tracer.FUNCTIONS[span]
    assert callable(getattr(importlib.import_module(module_name), attr))


@pytest.mark.parametrize("span", sorted(tracer.METHODS))
def test_method_binding_resolves(span):
    module_name, cls_name, method = tracer.METHODS[span]
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert isinstance(cls, type)
    assert method in vars(cls) and callable(vars(cls)[method])


def test_command_table_resolves():
    # install() also rebinds the CLI's command table entries
    commands = importlib.import_module("femspde.cli").COMMANDS
    module_name, attr = tracer.FUNCTIONS["cli.simulate"]
    assert getattr(importlib.import_module(module_name), attr) in commands.values()


def test_krylov_solve_calls_patched_bicgstab(monkeypatch):
    # the tracer counts Krylov iterations by replacing scipy.sparse.linalg.bicgstab,
    # so LinearSolver must look the function up there at call time
    import numpy as np
    import scipy.sparse.linalg

    from femspde import build_torus
    from femspde.assembly import StencilOperator
    from femspde.integrator import DIRECT_SITE_LIMIT, LinearSolver, SolverConfig

    calls = []
    real = scipy.sparse.linalg.bicgstab

    def patched(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", patched)
    n = 2 * DIRECT_SITE_LIMIT
    lattice = build_torus(1, 2 * np.pi / n, n)
    solver = LinearSolver(StencilOperator(lattice, ((0,),), np.full((1, n), 2.0)), SolverConfig())
    assert not solver.direct
    np.testing.assert_allclose(solver.solve(np.ones(n)), 0.5)
    assert calls == [1]
