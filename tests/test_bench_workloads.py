"""The benchmark's workloads, run in-process at smoke scale, reproduce the
numerics recorded in perfbench/baseline.json, and each runs through the
benchmark's traced worker process.

The benchmark rejects a change whose numerics leave the recorded ones, so a
change that moves them fails here first.  The traced worker reads what the
tracer binds and counts (the traced names, every trajectory's states and
its float sup |U|_0h), so a change that breaks the tracer fails here too.
The workloads are loaded from their file, as test_tracer_bindings loads the
tracer; nothing under perfbench/ is written.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ROOT / "perfbench" / "workloads.py"
WORKER = ROOT / "perfbench" / "worker.py"
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


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_worker_succeeds(name, tmp_path):
    # PYTHONDONTWRITEBYTECODE: the worker imports perfbench's modules, and no
    # bytecode cache may land under perfbench/
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [name, str(SEED), "smoke", "1", str(tmp_path / "w"), "1"]
    proc = subprocess.run([sys.executable, "-W", "error", str(WORKER), *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["ok"], result["traceback"]
