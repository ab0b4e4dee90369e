"""Command-line experiment driver.

Three subcommands cover the workflow:

    femspde verify-element --preset hat1d
    femspde simulate --preset hat1d --problem heat.prob --L 6.2831853 --n 32 --T 0.5
    femspde convergence --preset hat1d --problem heat.prob --L 6.2831853 --n 16 --T 0.5

plus ``femspde replay manifest.json`` which re-executes a recorded run.
Every run writes its outputs under a timestamped directory containing a
manifest sufficient for bit-exact replay: problem and element sources are
inlined, so a manifest is self-contained.  A command makes the directory
only once its run has finished, so a failed run leaves none behind.

Exit codes: 0 success/PASS, 1 usage or input error, 2 verification FAIL,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np
import scipy

from . import __version__
from .assembly import AssembledProblem
from .checks import verify_element
from .elements import (
    ElementFormatError,
    FiniteElement,
    build_element,
    parse_element_text,
    validate_element,
    validate_element_structure,
)
from .expr import ExprSyntaxError
from .integrator import IntegrationError, NoisePath, SolverError, integrate
from .lattice import build_torus, write_grid_function_csv
from .polynomials import GeometryError
from .problem import ProblemFormatError, parse_problem_text
from .richardson import RATIO_QUARTER, RATIO_SIXTEENTH, write_loglog_svg
from .study import MIN_LADDER, StudyConfig, resolve_steps, run_convergence_study
from .tensors import compute_reference_tensors

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY_FAIL = 2
EXIT_NUMERICAL = 3

OUTPUT_DIR_ENV = "FEMSPDE_OUT"

RATIOS = {"quarter": RATIO_QUARTER, "sixteenth": RATIO_SIXTEENTH}

# allowed values of the RunConfig string fields that select a behaviour
CHOICES = {"ratio": tuple(RATIOS), "record": ("terminal", "all")}

# accepted JSON types of the RunConfig number fields, by annotation
_NUMBER_TYPES = {"float": (int, float), "int": (int,), "int | None": (int, type(None))}

# run sizes that must be finite and positive when set (None means derived);
# h = L / n and dt = T / steps divide by them, and rho_max <= 0 would drop
# every noise term
_POSITIVE = ("L", "n", "T", "steps", "samples", "rho_max")

# environment variables that set the BLAS/OpenMP thread counts; replay is
# bit-exact only at the same counts, so the manifest records them
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# keys of older manifests whose settings are now fixed, with the values each
# can take: the solver tolerance and iteration cap, the Gauss degree (None:
# element-derived), verify-element's symbol grid (0: dimension-derived), the
# sign of h (h is the lattice spacing; both signs gave byte-identical outputs)
# and the time-step rule's constant (study.DT_FACTOR)
_FIXED_KEYS = {"tol": (1e-10,), "max_iter": (2000,), "quad_order": (None,), "grid": (0,),
               "h_sign": ("plus", "minus"), "dt_factor": (0.5,)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; usage errors are exit 1
        self.print_usage(sys.stderr)
        raise UsageError(message)


class UsageError(ValueError):
    pass


@dataclass
class RunConfig:
    """Everything needed to re-execute a run bit-exactly."""

    command: str
    preset: str | None = None
    element_text: str | None = None
    problem_text: str | None = None
    L: float = 2.0 * np.pi
    n: int = 32
    T: float = 0.5
    steps: int | None = None
    seed: int = 2024
    samples: int = 1
    rho_max: int | None = None
    jbar: int = 1
    ratio: str = "quarter"
    ladder: int = 4
    ref_n: int | None = None
    record: str = "terminal"
    svg: bool = False

    def __post_init__(self):
        # command-line arguments and replayed manifests both pass through here
        for name in _POSITIVE:
            value = getattr(self, name)
            if value is not None and not 0 < value < math.inf:
                raise UsageError(f"{name} must be finite and positive, got {value!r}")
        if not self.ladder >= MIN_LADDER:
            raise UsageError(f"ladder must be at least {MIN_LADDER}, got {self.ladder!r}")

    def to_manifest(self) -> dict:
        return {
            "femspde_manifest": 1,
            "version": __version__,
            "command": self.command,
            "config": dataclasses.asdict(self),
            # what the run ran on; replay reads none of it
            "environment": {
                "python": ".".join(str(v) for v in sys.version_info[:3]),
                "numpy": np.__version__,
                "scipy": scipy.__version__,
                **{name: os.environ.get(name) for name in THREAD_ENV},
            },
        }

    @staticmethod
    def from_manifest(doc) -> "RunConfig":
        if not isinstance(doc, dict) or doc.get("femspde_manifest") != 1:
            raise UsageError("not a femspde manifest")
        cfg = doc.get("config", {})
        if not isinstance(cfg, dict):
            raise UsageError(f"manifest config must be a JSON object, got {cfg!r}")
        cfg = {k: v for k, v in cfg.items() if k != "command"}
        command = doc.get("command")
        if command not in COMMANDS:
            raise UsageError(f"manifest names an unknown command {command!r}")
        for key, accepted in _FIXED_KEYS.items():
            value = cfg.pop(key, accepted[0])
            if not any(type(value) is type(a) and value == a for a in accepted):
                raise UsageError(f"manifest {key} must be "
                                 f"{' or '.join(json.dumps(a) for a in accepted)} "
                                 f"(a fixed setting), got {value!r}")
        for f in dataclasses.fields(RunConfig):
            if f.name not in cfg:
                continue
            value = cfg[f.name]
            if f.name in CHOICES and value not in CHOICES[f.name]:
                raise UsageError(f"manifest {f.name} must be one of "
                                 f"{', '.join(CHOICES[f.name])}, got {value!r}")
            kinds = _NUMBER_TYPES.get(f.type)
            if kinds and (isinstance(value, bool) or not isinstance(value, kinds)):
                raise UsageError(f"manifest {f.name} must be a number of type {f.type}, "
                                 f"got {value!r}")
        try:
            return RunConfig(command=command, **cfg)
        except TypeError as exc:
            raise UsageError(f"manifest has unrecognized configuration keys: {exc}") from exc


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _make_run_dir(out: str | None, command: str) -> str:
    base = out or os.environ.get(OUTPUT_DIR_ENV) or "runs"
    for attempt in range(100):
        stamp = time.strftime("%Y%m%d-%H%M%S") + f"-{int((time.time() % 1) * 1e6):06d}"
        suffix = "" if attempt == 0 else f"-{attempt}"
        path = os.path.join(base, f"run-{stamp}{suffix}-{command}")
        try:
            os.makedirs(path, exist_ok=False)
            return path
        except FileExistsError:
            continue
    raise OSError(f"could not create a fresh run directory under {base!r}")


def _write_text(run_dir: str, name: str, text: str) -> None:
    with open(os.path.join(run_dir, name), "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _write_manifest(run_dir: str, config: RunConfig) -> None:
    _write_text(run_dir, "manifest.json",
                json.dumps(config.to_manifest(), sort_keys=True, indent=2) + "\n")


def _load_element(config: RunConfig, structural_only: bool = False) -> FiniteElement:
    if config.element_text is not None:
        element = parse_element_text(config.element_text)
    elif config.preset:
        element = build_element(config.preset)
    else:
        raise UsageError("one of --preset or --element-file is required")
    # verify-element reports analytic violations instead of rejecting them
    if structural_only:
        validate_element_structure(element)
    else:
        validate_element(element)
    return element


# ---------------------------------------------------------------------------
# subcommand implementations (driven by a RunConfig, replayable)
# ---------------------------------------------------------------------------


def run_verify_element(config: RunConfig, out: str | None) -> int:
    element = _load_element(config, structural_only=True)
    report = verify_element(element, compute_reference_tensors(element))
    cardinal = next(row for row in report.details if row.name == "cardinal interpolation")
    lines = [
        f"{'identity':38s} {'target':>14s} {'computed':>24s} {'residual':>12s} verdict"
    ]
    for row in report.details:
        lines.append(
            f"{row.name:38s} {row.target:14.6g} {row.computed:24.17g} "
            f"{row.residual:12.3e} {row.verdict()}"
        )
    lines.append(
        f"element {report.element}: delta = {report.delta_estimate:.12g}, "
        f"cardinal {'ok' if cardinal.ok else 'VIOLATED'}, "
        f"overall {'PASS' if report.passed else 'FAIL'}"
    )
    table = "\n".join(lines) + "\n"
    sys.stdout.write(table)
    run_dir = _make_run_dir(out, config.command)
    _write_text(run_dir, "verify_report.txt", table)
    _write_manifest(run_dir, config)
    return EXIT_OK if report.passed else EXIT_VERIFY_FAIL


def run_simulate(config: RunConfig, out: str | None) -> int:
    element = _load_element(config)
    tensors = compute_reference_tensors(element)
    if config.problem_text is None:
        raise UsageError("simulate needs --problem")
    problem = parse_problem_text(config.problem_text, rho_max=config.rho_max)
    lattice = build_torus(problem.d, config.L / config.n, config.n)
    steps = resolve_steps(config.T, config.L, config.n, config.steps)
    config.steps = steps  # manifest records the resolved time grid
    dt = config.T / steps
    assembled = AssembledProblem(element, tensors, problem, lattice)
    noise = None
    if problem.has_noise:
        noise = NoisePath(config.seed, steps, dt, problem.rho_max)
    traj = integrate(assembled, noise, config.T, steps, record=config.record)
    run_dir = _make_run_dir(out, config.command)
    write_grid_function_csv(os.path.join(run_dir, "terminal.csv"), traj.terminal)
    if config.record == "all":
        from .lattice import format_float

        with open(os.path.join(run_dir, "states.csv"), "w", encoding="utf-8", newline="\n") as fh:
            fh.write("step,time,site,value\n")
            for k, state in enumerate(traj.states):
                prefix = f"{k},{format_float(traj.times[k])},"
                fh.write("".join([f"{prefix}{site},{format_float(v)}\n"
                                  for site, v in enumerate(state.values.ravel().tolist())]))
    _write_manifest(run_dir, config)
    sys.stdout.write(
        f"simulate: {steps} steps, dt = {dt:.6g}, sup |U|_0h = {traj.sup_norm_0h:.12g}\n"
        f"outputs in {run_dir}\n"
    )
    return EXIT_OK


def run_convergence(config: RunConfig, out: str | None) -> int:
    element = _load_element(config)
    tensors = compute_reference_tensors(element)
    if config.problem_text is None:
        raise UsageError("convergence needs --problem")
    problem = parse_problem_text(config.problem_text, rho_max=config.rho_max)
    ladder = [config.n * 2**k for k in range(config.ladder)]
    ref_n = config.ref_n if config.ref_n is not None else 4 * max(ladder)
    study = StudyConfig(
        L=config.L,
        ladder_n=ladder,
        ref_n=ref_n,
        T=config.T,
        jbar=config.jbar,
        ratio=RATIOS[config.ratio],
        samples=config.samples,
        base_seed=config.seed,
        steps=config.steps,
    )
    result = run_convergence_study(element, tensors, problem, study)
    config.steps = result.steps  # manifest records the resolved time grid
    # every report is formatted before any is written: a report whose errors
    # admit no order fit (a zero error) raises here and leaves no file behind
    tables = [report.to_csv() for report in result.reports()]
    run_dir = _make_run_dir(out, config.command)
    for name, table in zip(("base_report.csv", "mixture_report.csv"), tables):
        _write_text(run_dir, name, table)
    summary = [
        f"convergence: {result.steps} steps, dt = {result.dt:.6g}, samples = {result.samples}",
        f"base fitted order     = {result.base.fitted_order:.4f}",
    ]
    if result.mixture is not None:
        summary.append(f"mixture fitted order  = {result.mixture.fitted_order:.4f}")
    if config.svg:
        write_loglog_svg(os.path.join(run_dir, "convergence.svg"), result.reports())
    _write_manifest(run_dir, config)
    sys.stdout.write("\n".join(summary) + f"\noutputs in {run_dir}\n")
    return EXIT_OK


COMMANDS = {
    "verify-element": run_verify_element,
    "simulate": run_simulate,
    "convergence": run_convergence,
}


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--preset", help="built-in element: hat1d, tensor(d), triangle2d")
    p.add_argument("--element-file", help="path to an element definition file")
    p.add_argument("--out", help=f"output root (default: ${OUTPUT_DIR_ENV} or ./runs)")


def _add_problem_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--problem", required=True, help="path to a problem file")
    p.add_argument("--L", type=float, help="torus side length")
    p.add_argument("--n", type=int, help="sites per axis (coarsest for ladders)")
    p.add_argument("--T", type=float, help="final time")
    p.add_argument("--steps", type=int,
                   help="time steps (default: dt = 0.5 h_finest^2)")
    p.add_argument("--seed", type=int, help="base noise seed")
    p.add_argument("--rho-max", type=int, help="noise truncation")


def build_argparser() -> _Parser:
    parser = _Parser(prog="femspde", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run(name: str, summary: str) -> argparse.ArgumentParser:
        # no argparse defaults: an option left out is absent from the namespace
        # and RunConfig supplies its default; every destination except
        # element_file, problem and out is a RunConfig field name
        p = sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)
        _add_common(p)
        return p

    add_run("verify-element", "check the element assumptions")

    p = add_run("simulate", "single solve of a problem")
    _add_problem_args(p)
    p.add_argument("--record", choices=CHOICES["record"])

    p = add_run("convergence", "mesh-ladder convergence study")
    _add_problem_args(p)
    p.add_argument("--samples", type=int, help="Monte Carlo samples")
    p.add_argument("--jbar", type=int, help="extra extrapolation levels")
    p.add_argument("--ratio", choices=CHOICES["ratio"],
                   help="per-halving error factor of the leading term")
    p.add_argument("--ladder", type=int, help="number of ladder meshes")
    p.add_argument("--ref-n", type=int,
                   help="reference resolution (default: 4 x finest ladder mesh)")
    p.add_argument("--svg", action="store_true", help="also write a log-log SVG plot")

    p = sub.add_parser("replay", help="re-execute a run from its manifest")
    p.add_argument("manifest", help="path to manifest.json")
    p.add_argument("--out", default=None)
    return parser


def _read_text(path: str, what: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {what} file: {exc}") from exc


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    values = {f.name: getattr(args, f.name)
              for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    if hasattr(args, "element_file"):
        values["element_text"] = _read_text(args.element_file, "element")
    if hasattr(args, "problem"):
        values["problem_text"] = _read_text(args.problem, "problem")
    return RunConfig(**values)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_argparser()
    try:
        args = parser.parse_args(argv)
        if args.command == "replay":
            try:
                with open(args.manifest, "r", encoding="utf-8") as fh:
                    doc = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise UsageError(f"cannot read manifest: {exc}") from exc
            config = RunConfig.from_manifest(doc)
        else:
            config = _config_from_args(args)
        return COMMANDS[config.command](config, getattr(args, "out", None))
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ElementFormatError, ProblemFormatError, ExprSyntaxError, GeometryError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SolverError, IntegrationError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
