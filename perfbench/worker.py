"""One repetition of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED SCALE TRACE WORKDIR COMPARE

Prints one JSON line: set-up and run times, CPU time and peak RSS of this
process, the numerics, the outcome of the checks and, when TRACE is 1, the
per-layer summary of the spans.  With COMPARE 1 the numerics are compared
with the ones recorded in baseline.json for this scale, workload and seed (or
for any seed, when the workload takes none from its seed); where nothing is
recorded only the order bands and invariants are checked.  Only the standard
library is imported before the set-up clock starts, so set-up time includes
importing femspde and its dependencies.
"""

import json
import resource
import sys
import time
import traceback


def main(argv: list[str]) -> int:
    name, seed, scale, trace, workdir, compare = argv
    seed, trace = int(seed), trace == "1"

    import workloads

    workload = workloads.WORKLOADS[name](scale, workdir)
    want = workloads.recorded(name, scale, seed) if compare == "1" else None
    out = {"workload": name, "seed": seed, "scale": scale, "trace": trace}
    tracer = t1 = None
    t0 = time.perf_counter()
    try:
        if trace:
            import femspde  # noqa: F401  (patching needs the loaded modules)
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        workload.setup(seed)
        t1 = time.perf_counter()
        numerics = workload.run()
        if want is not None:
            workload.compare(numerics, want)
        out.update(ok=True, error=None, numerics=numerics)
    except Exception as exc:  # every failure counts against the run; report and go on
        t1 = time.perf_counter() if t1 is None else t1
        out.update(ok=False, error=f"{type(exc).__name__}: {exc}",
                   traceback=traceback.format_exc(), numerics=None)
    t2 = time.perf_counter()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out.update(
        setup_s=t1 - t0,
        run_s=t2 - t1,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
    )
    if tracer is not None:
        layers = tracer.summary()
        layers["cli.output_bytes"] = (out["numerics"] or {}).get("output_bytes", 0)
        out["layers"] = layers
        tracer.write(f"{workdir}.spans.json")
    out["env"] = environment()
    print(json.dumps(out, allow_nan=True))
    return 0


def environment() -> dict:
    import os
    import platform

    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    threads = {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                              "MKL_NUM_THREADS")}
    return {
        "cpu": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads": threads,
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
