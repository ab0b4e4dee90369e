"""Convergence studies over a ladder of base meshes with coupled references.

For every base mesh n in the ladder the study solves on levels n 2^j for
j = 0..jbar, forms the extrapolation mixture, and measures errors against a
reference solve at a finer resolution.  All solves in one sample share one
time grid and one noise path, so differences isolate the spatial error; the
time step follows dt = dt_factor * h_finest^2 with h_finest the finest base
mesh in the ladder.

The reference is made mixture-consistent: when jbar >= 1 the reference field
is itself the extrapolation mixture at the reference resolution.  A plain
base-scheme reference would carry its own h_ref^2 error term, which is
larger than the mixture error on fine ladder meshes and would mask the
accelerated rate being measured.

Stochastic studies average squared errors over per-sample seeds before
fitting, i.e. they fit the root-mean-square (strong) error.  Only the noise
path changes between samples: each lattice's AssembledProblem (operators,
mollified data and U_0) is built by the first sample and reused by the
later ones, and the last sample drops it once that lattice is solved.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .assembly import AssembledProblem
from .elements import FiniteElement
from .integrator import NoisePath, SolverConfig, integrate, sample_seed
from .lattice import GridFunction, build_torus
from .problem import Problem
from .richardson import ConvergenceReport, ExtrapolationPlan, combine, trajectory_error
from .tensors import ReferenceTensors


def resolve_steps(T: float, L: float, n_finest: int, dt_factor: float,
                  steps: int | None = None) -> int:
    """Time steps for dt = dt_factor * h_finest^2, h_finest = L / n_finest; steps overrides."""
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if not dt_factor > 0:
        raise ValueError(f"dt_factor must be positive, got {dt_factor}")
    if steps is not None:
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        return int(steps)
    h_finest = L / n_finest
    dt = dt_factor * h_finest**2
    return max(1, int(np.ceil(T / dt)))


@dataclass
class StudyConfig:
    L: float
    ladder_n: list[int]
    ref_n: int
    T: float
    jbar: int = 1
    ratio: float = 0.25
    samples: int = 1
    base_seed: int = 2024
    dt_factor: float = 0.5
    steps: int | None = None  # overrides the dt rule when set
    solver: SolverConfig = field(default_factory=SolverConfig)
    h_sign: float = 1.0

    def resolved_steps(self) -> int:
        return resolve_steps(self.T, self.L, max(self.ladder_n), self.dt_factor, self.steps)


@dataclass
class StudyResult:
    base: ConvergenceReport
    mixture: ConvergenceReport | None
    steps: int
    dt: float
    samples: int

    def reports(self) -> list[ConvergenceReport]:
        return [self.base] if self.mixture is None else [self.base, self.mixture]


def _validate_ladder(cfg: StudyConfig) -> None:
    ladder = list(cfg.ladder_n)
    if len(ladder) < 3:
        raise ValueError("the mesh ladder needs at least 3 levels for an order fit")
    if sorted(ladder) != ladder or len(set(ladder)) != len(ladder):
        raise ValueError("ladder meshes must be strictly increasing")
    if cfg.ref_n < 2 * max(ladder):
        raise ValueError("reference mesh must be finer than the finest ladder mesh")


def run_convergence_study(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    cfg: StudyConfig,
) -> StudyResult:
    """Measure base and extrapolated convergence orders on a mesh ladder.

    Each lattice is assembled once and reused by every sample; the
    implicit-system factorization stays per integrate call.
    """
    _validate_ladder(cfg)
    if cfg.samples < 1:
        raise ValueError(f"samples must be >= 1, got {cfg.samples}")
    d = problem.d
    steps = cfg.resolved_steps()
    dt = cfg.T / steps
    plan = ExtrapolationPlan.create(cfg.jbar, cfg.ratio)

    needed: set[int] = set()
    for n in [*cfg.ladder_n, cfg.ref_n]:
        for j in range(cfg.jbar + 1):
            needed.add(n * 2**j)
    needed_sorted = sorted(needed)

    base_sq = np.zeros(len(cfg.ladder_n))
    mix_sq = np.zeros(len(cfg.ladder_n))
    kept: dict[int, AssembledProblem] = {}
    for s in range(cfg.samples):
        noise = None
        if problem.has_noise:
            noise = NoisePath(sample_seed(cfg.base_seed, s), steps, dt, problem.rho_max)
        solutions: dict[int, list[GridFunction]] = {}
        for n in needed_sorted:
            assembled = kept.pop(n, None)
            if assembled is None:
                lattice = build_torus(d, cfg.L / n, n)
                assembled = AssembledProblem(element, tensors, problem, lattice,
                                             h=cfg.h_sign * lattice.h)
            traj = integrate(assembled, noise, cfg.T, steps, record="all", cfg=cfg.solver)
            solutions[n] = traj.states
            if s + 1 < cfg.samples:  # the last sample drops each lattice once solved
                kept[n] = assembled

        ref_states = _mixture_states(solutions, cfg.ref_n, plan)
        for i, n in enumerate(cfg.ladder_n):
            lattice = build_torus(d, cfg.L / n, n)
            base_states = solutions[n]
            mix_states = _mixture_states(solutions, n, plan)
            base_sq[i] += trajectory_error(base_states, ref_states, lattice) ** 2
            if cfg.jbar >= 1:
                mix_sq[i] += trajectory_error(mix_states, ref_states, lattice) ** 2

    hs = [cfg.L / n for n in cfg.ladder_n]
    base_errors = np.sqrt(base_sq / cfg.samples)
    base = ConvergenceReport("base", hs, list(cfg.ladder_n), base_errors.tolist())
    mixture = None
    if cfg.jbar >= 1:
        mix_errors = np.sqrt(mix_sq / cfg.samples)
        mixture = ConvergenceReport(
            f"mixture jbar={cfg.jbar}", hs, list(cfg.ladder_n), mix_errors.tolist()
        )
    return StudyResult(base=base, mixture=mixture, steps=steps, dt=dt, samples=cfg.samples)


def _mixture_states(
    solutions: dict[int, list[GridFunction]], n: int, plan: ExtrapolationPlan
) -> list[GridFunction]:
    """Per-time mixture of the level solutions rooted at base mesh n."""
    levels = [solutions[n * 2**j] for j in range(plan.levels)]
    return [combine(list(states), plan) for states in zip(*levels)]
