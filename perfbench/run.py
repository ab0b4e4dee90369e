"""femspde benchmark: convergence-study and solve workloads, timed end to end.

    python3 perfbench/run.py --workload stoch1d_mc --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seconds 20      # every workload, one table
    python3 perfbench/run.py --workload all --smoke           # reduced sizes, in seconds
    python3 perfbench/run.py --record-baseline [--smoke] # re-record baseline.json, seeds 0-31

Run from the root of a source checkout: femspde is imported from ``src/``.
Each repetition of a workload runs in a fresh process (perfbench/worker.py),
one after another (a closed loop of one client), with BLAS and OpenMP pinned
to one thread.  Repetitions start until ``--seconds`` would be exceeded
(at least MIN_REPS of them) and the metrics are their medians.

End-to-end metrics (``--trace 0``), medians over the repetitions:
    run_s        wall time from inputs-ready to a checked result
    setup_s      fresh process, from before ``import femspde`` to inputs-ready
    peak_rss_mb  peak resident memory of the repetition's process
    cpu_s        user + system CPU time of the repetition's process

With ``--trace 1`` untraced and traced repetitions alternate; the per-layer
metrics come from the spans of the traced ones (times are medians, counts
must repeat exactly) and ``trace.overhead_s`` is the median traced run_s
minus the median untraced run_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the environment, the numerics and every repetition.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(HERE, ".work")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

MIN_REPS = 3
MIN_TRACE_REPS = 1
THREADS = "1"
RUN_DEADLINE_S = 170.0  # a run, all its repetitions together, ends within this

SEEDS = range(32)  # seeds recorded in baseline.json

END_TO_END = {"run_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "cpu_s": "s"}


def layer_units() -> dict:
    """Per-layer metric name -> unit, as declared in BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = THREADS
    return env


def run_rep(name: str, seed: int, scale: str, trace: bool, index: int, compare: bool,
            timeout: float = RUN_DEADLINE_S) -> dict:
    """One repetition in a fresh process; returns the worker's record."""
    workdir = os.path.join(WORK, f"{name}-seed{seed}-{'traced' if trace else 'plain'}{index}")
    shutil.rmtree(workdir, ignore_errors=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), name, str(seed), scale,
           "1" if trace else "0", workdir, "1" if compare else "0"]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"ok": False, "error": f"repetition timed out after {timeout:.0f} s"}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"ok": False, "error": f"worker exited with {proc.returncode}: {proc.stderr[-2000:]}"}
    return json.loads(lines[-1])


def median(records: list[dict], key: str) -> float:
    values = [r[key] for r in records if key in r]
    return statistics.median(values) if values else 0.0  # 0.0 only when every repetition crashed


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, dict]:
    """Repeat the workload for about `seconds`; return (result line, detail record)."""
    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    plain: list[dict] = []
    traced: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while True:
        want_trace = trace and len(traced) < len(plain)
        begin = time.perf_counter()
        record = run_rep(name, seed, scale, want_trace, len(traced if want_trace else plain), True,
                         timeout=max(1.0, RUN_DEADLINE_S - (begin - start)))
        durations.append(time.perf_counter() - begin)
        (traced if want_trace else plain).append(record)
        enough = len(traced) >= MIN_TRACE_REPS if trace else len(plain) >= MIN_REPS
        elapsed = time.perf_counter() - start
        if elapsed >= RUN_DEADLINE_S or enough and elapsed + statistics.median(durations) > seconds:
            break
    reps = plain + traced
    failed = sum(1 for r in reps if not r.get("ok"))
    if trace:
        metrics = layer_metrics(traced)
        overhead = median(traced, "run_s") - median(plain, "run_s")
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        metrics = {k: {"value": median(plain, k), "unit": u} for k, u in END_TO_END.items()}
    result = {"correct": failed == 0, "attempted": len(reps), "failed": failed, "metrics": metrics}
    first_ok = next((r for r in reps if r.get("ok")), {})
    detail = {
        "workload": name,
        "seed": seed,
        "scale": scale,
        "env": first_ok.get("env"),
        "numerics": first_ok.get("numerics"),
        "baseline_recorded": workloads.recorded(name, scale, seed) is not None,
        "errors": [r.get("error") for r in reps if not r.get("ok")],
        "reps": [{k: r.get(k) for k in ("trace", "ok", "setup_s", "run_s", "cpu_s", "peak_rss_mb")}
                 for r in reps],
    }
    if trace:
        detail["count_spread"] = count_spread(traced)
    return result, detail


def layer_metrics(traced: list[dict]) -> dict:
    layers = [r["layers"] for r in traced if "layers" in r]
    if not layers:
        return {}
    return {k: {"value": statistics.median(l[k] for l in layers), "unit": u}
            for k, u in layer_units().items() if k in layers[0]}


def count_spread(traced: list[dict]) -> dict:
    """Counts that did not repeat exactly across traced repetitions: name -> [min, max]."""
    layers = [r["layers"] for r in traced if "layers" in r]
    out = {}
    for k, unit in layer_units().items():
        values = [l[k] for l in layers if k in l]
        if unit != "s" and values and min(values) != max(values):
            out[k] = [min(values), max(values)]
    return out


def record_baseline(scale: str) -> None:
    """Run each workload once per seed (once when seedless) and store its numerics."""
    try:
        with open(workloads.BASELINE, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        doc = {}
    os.makedirs(WORK, exist_ok=True)
    section = doc.setdefault(scale, {})
    for name, cls in workloads.WORKLOADS.items():
        for seed in SEEDS if cls.seeded else SEEDS[:1]:
            record = run_rep(name, seed, scale, False, 0, compare=False)
            if not record.get("ok"):
                raise SystemExit(f"{name} seed {seed} failed: {record.get('error')}")
            section.setdefault(name, {})[workloads.baseline_key(name, seed)] = record["numerics"]
            print(f"recorded {scale} {name} seed {seed}", file=sys.stderr)
    with open(workloads.BASELINE, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="reduced sizes, for the benchmark's tests")
    parser.add_argument("--record-baseline", action="store_true")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "femspde", "__init__.py")):
        print(f"error: no femspde sources under {os.path.join(ROOT, 'src')}; "
              "run from a femspde checkout", file=sys.stderr)
        return 2
    scale = "smoke" if args.smoke else "full"
    if args.record_baseline:
        record_baseline(scale)
        return 0
    if args.workload != "all":
        result, detail = measure(args.workload, args.seed, args.seconds, bool(args.trace), scale)
        print(json.dumps(detail))
        print(json.dumps(result))
        return 0
    results = {}
    for name in workloads.WORKLOADS:
        result, detail = measure(name, args.seed, args.seconds, bool(args.trace), scale)
        results[name] = result
        print(json.dumps(detail))
        print(f"{name:14s} correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}")
        for key, m in result["metrics"].items():
            print(f"  {key:28s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
