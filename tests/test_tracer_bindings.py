"""The benchmark tracer patches femspde functions and methods by name, and the
benchmark workloads call femspde positionally.

A refactor that renames or drops one of those names, or moves a positional
parameter, breaks the benchmark, so every name the tracer binds must resolve
in femspde and every workload call must bind as the workloads make it.
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
    from femspde.integrator import DIRECT_SITE_LIMIT, LinearSolver

    calls = []
    real = scipy.sparse.linalg.bicgstab

    def patched(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", patched)
    n = 2 * DIRECT_SITE_LIMIT
    lattice = build_torus(1, 2 * np.pi / n, n)
    solver = LinearSolver(StencilOperator(lattice, ((0,),), np.full((1, n), 2.0)))
    assert not solver.direct
    np.testing.assert_allclose(solver.solve(np.ones((1, n))), 0.5)
    assert calls == [1]



# positional calls that perfbench/workloads.py makes into femspde: the
# parameter each positional argument lands in, and the keywords it passes
BENCHMARK_CALLS = {
    "AssembledProblem": (("element", "tensors", "problem", "lattice"), {}),
    "integrate_multilevel": (
        ("element", "tensors", "problem", "coarsest", "levels", "noise", "T", "steps"),
        {"record": "terminal"},
    ),
    "integrate": (("assembled", "noise", "T", "steps"), {"record": "terminal"}),
    "run_convergence_study": (("element", "tensors", "problem", "cfg"), {}),
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_CALLS))
def test_benchmark_calls_bind(name):
    import inspect

    import femspde

    params, kwargs = BENCHMARK_CALLS[name]
    bound = inspect.signature(getattr(femspde, name)).bind(*params, **kwargs)
    assert [bound.arguments[p] for p in params] == list(params)


def test_stencil_apply_accepts_grid_function():
    # assembly3d checks drift(0.0).apply(ones) against c by partition of unity
    import numpy as np

    from femspde import AssembledProblem, GridFunction, build_element, build_torus
    from femspde import compute_reference_tensors, parse_problem_text

    element = build_element("hat1d")
    lattice = build_torus(1, 2 * np.pi / 16, 16)
    problem = parse_problem_text('a.1.1 = "1 + 0.25*cos(x1)"\nc = "-0.2"')
    assembled = AssembledProblem(element, compute_reference_tensors(element), problem, lattice)
    out = assembled.drift(0.0).apply(GridFunction(lattice, np.ones(lattice.shape)))
    assert isinstance(out, GridFunction)
    np.testing.assert_allclose(out.values, -0.2, atol=1e-10)


def test_eval_results_have_a_leading_axis(monkeypatch):
    # the tracer counts expr.eval_points as len() of each eval_many result, so
    # every result the assembly produces, constants included, must have ndim >= 1
    import numpy as np

    from femspde import AssembledProblem, build_element, build_torus, expr
    from femspde import compute_reference_tensors, parse_problem_text

    results = []
    spans = tracer.Tracer()

    def counted(out):
        results.append(out)
        spans._count("expr.eval_points", len(out))

    monkeypatch.setattr(expr, "eval_many", spans.wrap("expr.eval", expr.eval_many, counted))
    problem = parse_problem_text(
        'd = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "t"\nc = "-0.2"\n'
        'sigma.1.1 = "0.3"\nnu.1 = "0.2*sin(x2)"\nf = "2"\ng.1 = "t"\nphi = "sin(x1)*cos(x2)"'
    )
    element = build_element("tensor(2)")
    lattice = build_torus(2, 2 * np.pi / 8, 8)
    assembled = AssembledProblem(element, compute_reference_tensors(element), problem, lattice)
    assembled.drift(0.0), assembled.noise(0.0, 1)
    assembled.f_h(0.0), assembled.g_h(0.0, 1), assembled.phi_h()
    assert len(results) == 9  # drift 4, noise 2, data 3
    assert all(np.ndim(out) >= 1 for out in results)
    assert spans.counts["expr.eval_points"] == sum(len(out) for out in results) > 0
