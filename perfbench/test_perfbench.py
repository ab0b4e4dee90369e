"""Tests of the benchmark harness at smoke scale.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402


def _last_line(args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_end_to_end(name):
    result = _last_line(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "0",
                         "--smoke"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_smoke_traced_counts_repeat(name):
    layers = []
    for _ in range(2):
        result = _last_line(["--workload", name, "--seed", "3", "--seconds", "1", "--trace", "1",
                             "--smoke"])
        assert result["correct"]
        layers.append(result["metrics"])
    units = run.layer_units()
    assert set(layers[0]) == set(units)
    for key, unit in units.items():
        if unit != "s":
            assert layers[0][key]["value"] == layers[1][key]["value"], key
    assert layers[0]["integrator.integrate_calls"]["value"] > 0
    if name == "cli2d_timedep":
        assert layers[0]["cli.output_bytes"]["value"] > 0
        assert layers[0]["assembly.drift_calls"]["value"] > 1  # t-dependent: every step


def test_baseline_mismatch_fails():
    want = {"base_errors": [1.0, 1.0, 1.0], "mixture_errors": [1.0, 1.0, 1.0]}
    got = {"base_errors": [1.0, 1.0, 1.02], "mixture_errors": [1.0, 1.0, 1.0]}
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_errors(got, want)
    workloads.compare_errors(want, want)

    want = {"terminal": workloads.state_digest([1.0, -1.0, 0.5, 2.0])}
    got = {"terminal": workloads.state_digest([1.0, -1.0, 0.5, 2.0 + 1e-4])}
    with pytest.raises(workloads.CheckFailed):
        workloads.compare_digest(got, want)
    workloads.compare_digest(want, want)


def test_refuses_directory_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "stoch1d_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
