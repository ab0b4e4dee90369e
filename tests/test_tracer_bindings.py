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
