"""The four benchmark workloads: inputs, the timed call into femspde, and checks.

Each workload is a class, built as ``cls(scale, workdir)``, with

    setup(seed)   -> builds the inputs (element, reference tensors, problem);
                     this is the set-up phase and imports femspde
    run()         -> calls femspde and checks the result; returns the numerics
                     (fitted orders, per-level errors and/or a terminal-state digest)
    compare(got, want) -> raises CheckFailed when the numerics differ from the
                     ones recorded in baseline.json by more than the tolerance

Sizes come in two scales: ``full`` for measurement and ``smoke`` for the
benchmark's own tests, which exercise the same plumbing in seconds.

Why these workloads (each stresses a different femspde layer):

stoch1d_mc     hat1d Monte Carlo convergence study with coupled noise: the
               integrator and study loop (many small factorizations, stencil
               applies, noise paths, restriction and mixture); assembly is a
               small share.
det2d_ladder   tensor(2) deterministic study: the mixed 2-D case, assembly
               plus dense LU on the ladder and BiCGStab on the reference.
assembly3d     tensor(3) single solve: time-independent drift assembly
               dominates; solves are a few BiCGStab runs.
cli2d_timedep  ``femspde simulate`` with time-dependent coefficients, so the
               assembly caches miss every step; the only workload that
               reaches the CLI layer (manifest and CSV output).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re

L = 2.0 * math.pi

# Relative tolerances against the recorded baseline.  They sit far above the
# change a linear solve within the 1e-10 Krylov tolerance can cause and far
# below the change a different scheme or quadrature causes.
ERROR_RTOL = 1e-2   # per-level strong / deterministic errors
STATE_RTOL = 1e-6   # terminal-state digests, relative to the state's norm

# drift.apply(1) equals c at every site by partition of unity
PARTITION_ATOL = 1e-10


class CheckFailed(AssertionError):
    pass


def derive_seed(workload: str, seed: int) -> int:
    """Workload seed -> femspde seed; the same (workload, seed) gives the same inputs."""
    digest = hashlib.sha256(f"{workload}:{seed}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def _finite(values, what: str) -> None:
    _check(all(math.isfinite(v) for v in values), f"non-finite {what}: {values}")


def _load_element(preset: str):
    from femspde import build_element, compute_reference_tensors, validate_element

    element = build_element(preset)
    validate_element(element)
    return element, compute_reference_tensors(element)


def state_digest(values) -> dict:
    """Norm and a fixed sample of sites of a state, enough to tell schemes apart."""
    import numpy as np

    flat = np.asarray(values, dtype=float).reshape(-1)
    picks = np.linspace(0, flat.size - 1, 32).round().astype(int)
    return {
        "sites": int(flat.size),
        "rms": float(np.sqrt(np.mean(flat**2))),
        "sample": [float(v) for v in flat[picks]],
    }


def compare_digest(got: dict, want: dict) -> None:
    got, want = got["terminal"], want["terminal"]
    _check(got["sites"] == want["sites"], f"site count {got['sites']} != baseline {want['sites']}")
    scale = want["rms"]
    worst = max(abs(a - b) for a, b in zip(got["sample"], want["sample"]))
    worst = max(worst, abs(got["rms"] - want["rms"]))
    _check(worst <= STATE_RTOL * scale,
           f"terminal state differs from baseline by {worst / scale:.3e} (relative), "
           f"tolerance {STATE_RTOL:g}")


def compare_errors(got: dict, want: dict) -> None:
    for key in ("base_errors", "mixture_errors"):
        for n, (a, b) in enumerate(zip(got[key], want[key])):
            rel = abs(a - b) / abs(b)
            _check(rel <= ERROR_RTOL,
                   f"{key}[{n}] = {a:.6e} differs from baseline {b:.6e} by {rel:.2e} "
                   f"(relative), tolerance {ERROR_RTOL:g}")


class Study:
    """A convergence study on a ladder; subclasses set the problem and sizes."""

    preset = ""
    problem_text = ""
    sizes: dict = {}
    base_band = (0.0, 0.0)
    mixture_band: tuple[float, float] | None = None
    compare = staticmethod(compare_errors)

    def __init__(self, scale: str, workdir: str):
        self.size = self.sizes[scale]

    def study_seed(self, seed: int) -> int:
        return 2024

    def setup(self, seed: int) -> None:
        from femspde import StudyConfig, parse_problem_text

        self.element, self.tensors = _load_element(self.preset)
        self.problem = parse_problem_text(self.problem_text)
        self.cfg = StudyConfig(L=L, T=0.25, jbar=1, ratio=0.25,
                               base_seed=self.study_seed(seed), **self.size)

    def run(self) -> dict:
        from femspde import run_convergence_study

        result = run_convergence_study(self.element, self.tensors, self.problem, self.cfg)
        base, mix = result.base.errors, result.mixture.errors
        _finite(base + mix, "errors")
        _check(all(e > 0.0 for e in base + mix), f"zero error in {base + mix}")
        numerics = {
            "base_order": result.base.fitted_order,
            "mixture_order": result.mixture.fitted_order,
            "base_errors": base,
            "mixture_errors": mix,
            "steps": result.steps,
        }
        lo, hi = self.base_band
        _check(lo <= numerics["base_order"] <= hi,
               f"base order {numerics['base_order']:.4f} outside [{lo}, {hi}]")
        if self.mixture_band is not None:
            lo, hi = self.mixture_band
            _check(lo <= numerics["mixture_order"] <= hi,
                   f"mixture order {numerics['mixture_order']:.4f} outside [{lo}, {hi}]")
        return numerics


class Stoch1dMC(Study):
    """hat1d stochastic strong-convergence study over coupled Monte Carlo samples."""

    name = "stoch1d_mc"
    seeded = True
    preset = "hat1d"
    problem_text = (
        'd = 1\na.1.1 = "1 + 0.25*cos(x1)"\nsigma.1.1 = "0.3"\ng.1 = "0.1"\nphi = "sin(x1)"\n'
    )
    sizes = {
        "full": {"ladder_n": [16, 32, 64], "ref_n": 256, "samples": 30},
        "smoke": {"ladder_n": [16, 32, 64], "ref_n": 128, "samples": 2},
    }
    base_band = (1.7, 2.4)

    @staticmethod
    def compare(got: dict, want: dict) -> None:
        compare_errors(got, want)
        compare_digest(got, want)

    def study_seed(self, seed: int) -> int:
        return derive_seed(self.name, seed)

    def run(self) -> dict:
        numerics = super().run()
        pairs = zip(numerics["mixture_errors"], numerics["base_errors"])
        _check(all(m < b for m, b in pairs),
               f"mixture error not below base error: {numerics['mixture_errors']} "
               f"vs {numerics['base_errors']}")
        numerics["terminal"] = self.noise_digest()
        return numerics

    def noise_digest(self) -> dict:
        """Digest of sample 0's terminal states on the coupled levels of the coarsest mesh.

        The study's errors are maxima over time, and the initial-data error
        dominates them, so they hardly depend on the noise path.  These states
        do: they carry the sample's derived seed, its Wiener increments and the
        explicit noise step, shared by all levels.
        """
        import numpy as np
        from femspde import NoisePath, build_torus, integrate_multilevel, sample_seed

        cfg = self.cfg
        steps = cfg.resolved_steps()
        noise = NoisePath(sample_seed(cfg.base_seed, 0), steps, cfg.T / steps,
                          self.problem.rho_max)
        n = cfg.ladder_n[0]
        trajs = integrate_multilevel(self.element, self.tensors, self.problem,
                                     build_torus(1, L / n, n), cfg.jbar + 1, noise, cfg.T,
                                     steps, record="terminal")
        values = np.concatenate([t.terminal.values.reshape(-1) for t in trajs])
        _check(bool(np.all(np.isfinite(values))), "non-finite terminal state")
        return state_digest(values)


class Det2dLadder(Study):
    """tensor(2) deterministic study: base order 2, two-level mixture order 4."""

    name = "det2d_ladder"
    seeded = False
    preset = "tensor(2)"
    problem_text = (
        'd = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "0.1"\n'
        'c = "-0.2"\nf = "sin(x1)*cos(x2)"\nphi = "sin(x1)*cos(x2)"\n'
    )
    sizes = {
        "full": {"ladder_n": [8, 16, 32], "ref_n": 128},
        "smoke": {"ladder_n": [4, 8, 16], "ref_n": 32},
    }
    base_band = (1.8, 2.3)
    mixture_band = (3.6, 4.5)


class Assembly3d:
    """tensor(3) drift assembly through AssembledProblem, then integrate."""

    name = "assembly3d"
    seeded = False
    C = -0.2
    problem_text = (
        'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1 + 0.1*sin(x3)"\n'
        f'b.1 = "0.1"\nc = "{C}"\nphi = "sin(x1)*cos(x2)*cos(x3)"\n'
    )
    sizes = {"full": {"n": 20, "steps": 40}, "smoke": {"n": 6, "steps": 4}}
    compare = staticmethod(compare_digest)

    def __init__(self, scale: str, workdir: str):
        self.size = self.sizes[scale]

    def setup(self, seed: int) -> None:
        from femspde import parse_problem_text

        self.element, self.tensors = _load_element("tensor(3)")
        self.problem = parse_problem_text(self.problem_text)

    def run(self) -> dict:
        import numpy as np
        from femspde import AssembledProblem, GridFunction, build_torus, integrate

        n = self.size["n"]
        lattice = build_torus(3, L / n, n)
        assembled = AssembledProblem(self.element, self.tensors, self.problem, lattice)
        traj = integrate(assembled, None, 1.0, self.size["steps"], record="terminal")
        _finite([traj.sup_norm_0h], "sup |U|_0h")
        _check(bool(np.all(np.isfinite(traj.terminal.values))), "non-finite terminal state")
        ones = GridFunction(lattice, np.ones(lattice.shape))
        worst = float(np.max(np.abs(assembled.drift(0.0).apply(ones).values - self.C)))
        _check(worst <= PARTITION_ATOL, f"drift.apply(1) differs from c by {worst:.3e}")
        return {"terminal": state_digest(traj.terminal.values), "sup_norm_0h": traj.sup_norm_0h,
                "partition_residual": worst}


class Cli2dTimedep:
    """``femspde simulate`` on a tensor(2) problem whose coefficients depend on t."""

    name = "cli2d_timedep"
    seeded = True
    problem_text = (
        'd = 2\na.1.1 = "1 + 0.25*cos(x1 - t)"\na.2.2 = "1"\nb.1 = "0.1*sin(t)"\n'
        'c = "-0.2"\nsigma.1.1 = "0.2*cos(x2)"\ng.1 = "0.1"\n'
        'f = "sin(x1)*cos(x2)*cos(t)"\nphi = "sin(x1)*cos(x2)"\n'
    )
    sizes = {"full": {"n": 32, "steps": 50}, "smoke": {"n": 8, "steps": 5}}
    compare = staticmethod(compare_digest)
    SUP_RE = re.compile(r"sup \|U\|_0h = (\S+)")

    def __init__(self, scale: str, workdir: str):
        self.size = self.sizes[scale]
        self.workdir = workdir

    def setup(self, seed: int) -> None:
        import femspde.cli

        self.main = femspde.cli.main
        os.makedirs(self.workdir, exist_ok=True)
        problem = os.path.join(self.workdir, "timedep.prob")
        with open(problem, "w", encoding="utf-8") as fh:
            fh.write(self.problem_text)
        self.out = os.path.join(self.workdir, "runs")
        self.argv = [
            "simulate", "--preset", "tensor(2)", "--problem", problem,
            "--n", str(self.size["n"]), "--steps", str(self.size["steps"]), "--T", "0.25",
            "--record", "all", "--seed", str(derive_seed(self.name, seed)), "--out", self.out,
        ]

    def run(self) -> dict:
        import numpy as np

        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = self.main(self.argv)
        _check(code == 0, f"femspde simulate exited with code {code}")
        match = self.SUP_RE.search(stdout.getvalue())
        _check(match is not None, f"no sup norm in output {stdout.getvalue()!r}")
        sup = float(match.group(1))
        _finite([sup], "sup |U|_0h")
        (run_dir,) = [os.path.join(self.out, d) for d in os.listdir(self.out)]
        n, steps = self.size["n"], self.size["steps"]
        with open(os.path.join(run_dir, "states.csv"), "rb") as fh:
            rows = sum(1 for _ in fh) - 1
        _check(rows == (steps + 1) * n * n,
               f"states.csv has {rows} rows, expected {(steps + 1) * n * n}")
        terminal = np.loadtxt(os.path.join(run_dir, "terminal.csv"), delimiter=",",
                              skiprows=1, usecols=-1)
        _check(bool(np.all(np.isfinite(terminal))), "non-finite value in terminal.csv")
        output_bytes = sum(os.path.getsize(os.path.join(run_dir, f)) for f in os.listdir(run_dir))
        return {"terminal": state_digest(terminal), "sup_norm_0h": sup,
                "output_bytes": output_bytes}


WORKLOADS = {w.name: w for w in (Stoch1dMC, Det2dLadder, Assembly3d, Cli2dTimedep)}


BASELINE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "baseline.json")


def baseline_key(name: str, seed: int) -> str:
    return str(seed) if WORKLOADS[name].seeded else "any"


def recorded(name: str, scale: str, seed: int) -> dict | None:
    """Numerics recorded for this scale, workload and seed, if any."""
    try:
        with open(BASELINE, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        return None
    return doc.get(scale, {}).get(name, {}).get(baseline_key(name, seed))
