"""The benchmark's workloads, run in-process at smoke scale, reproduce the
numerics recorded in perfbench/baseline.json.

The benchmark rejects a change whose numerics leave the recorded ones, so a
change that moves them fails here first.  The workloads are loaded from
their file, as test_tracer_bindings loads the tracer; nothing under
perfbench/ is written.
"""

import importlib.util
from pathlib import Path

import pytest

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
SEED = 3  # a seed recorded in the baseline for every seeded workload


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load_workloads()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_smoke_numerics_match_baseline(name, tmp_path):
    want = workloads.recorded(name, "smoke", SEED)
    assert want is not None, f"no smoke baseline for {name}"
    workload = workloads.WORKLOADS[name]("smoke", str(tmp_path / "work"))
    workload.setup(SEED)
    workload.compare(workload.run(), want)
