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
path changes between samples, so the samples advance together as one
block (integrator.integrate with a list of noise paths): every step is one
stencil apply per operator and one multi-RHS LU solve for the whole block,
with one factorization per lattice, kept between chunks.  Above
DIRECT_SITE_LIMIT sites BiCGStab still runs once per sample (column),
preconditioned by the FFT inverse of the x-averaged system.

A block holds at most DIRECT_SITE_LIMIT values on the study's largest
lattice, or one sample when that lattice alone is larger: the samples run
in chunks of max(1, DIRECT_SITE_LIMIT // sites of the largest lattice).
Each chunk runs every lattice; with more than one chunk the lattices stay
assembled, their implicit system factored, until the last chunk.

Nothing keeps whole trajectories.  Within a chunk the lattices run from the
finest down; the reference mixture is kept injected onto the finest ladder
mesh, each unfinished mixture keeps its finer levels' weighted terms
injected onto its base mesh, and each ladder mesh's max-over-time errors
are updated step by step while its own lattice runs, the last level of its
mixture.  Stored states stay O(steps * chunk * max(ladder)^d) for fixed
jbar, plus one lattice's block, whatever the sample count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .assembly import AssembledProblem
from .elements import FiniteElement
from .integrator import DIRECT_SITE_LIMIT, NoisePath, integrate, sample_seed
from .lattice import build_torus, nesting_factor, norms_0h
from .problem import Problem
from .richardson import ConvergenceReport, ExtrapolationPlan
from .tensors import ReferenceTensors


MIN_LADDER = 3  # meshes an order fit needs


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
    if len(ladder) < MIN_LADDER:
        raise ValueError(f"the mesh ladder needs at least {MIN_LADDER} levels for an order fit")
    if sorted(ladder) != ladder or len(set(ladder)) != len(ladder):
        raise ValueError("ladder meshes must be strictly increasing")
    if cfg.ref_n < 2 * max(ladder):
        raise ValueError("reference mesh must be finer than the finest ladder mesh")
    reference = build_torus(1, cfg.L / cfg.ref_n, cfg.ref_n)
    for n in ladder:  # the reference is injected onto every ladder mesh
        nesting_factor(reference, build_torus(1, cfg.L / n, n))


def run_convergence_study(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    cfg: StudyConfig,
) -> StudyResult:
    """Measure base and extrapolated convergence orders on a mesh ladder.

    Each chunk of samples visits the lattices from the finest down and
    advances as one block on each; a lattice is assembled once and dropped
    after the last chunk.  Mixtures sum their levels in level order, as
    richardson.combine does, so the errors do not depend on the visiting
    order or the chunks.
    """
    _validate_ladder(cfg)
    if cfg.samples < 1:
        raise ValueError(f"samples must be >= 1, got {cfg.samples}")
    d = problem.d
    steps = cfg.resolved_steps()
    dt = cfg.T / steps
    plan = ExtrapolationPlan.create(cfg.jbar, cfg.ratio)

    noises = None
    if problem.has_noise:
        noises = [NoisePath(sample_seed(cfg.base_seed, s), steps, dt, problem.rho_max)
                  for s in range(cfg.samples)]
    rows = cfg.samples if noises else 1  # noise-free samples coincide: one row serves all

    # lattice m -> the (root mesh, level j) pairs it serves, m = root * 2^j
    uses: dict[int, list[tuple[int, int]]] = {}
    for root in [cfg.ref_n, *cfg.ladder_n]:
        for j in range(plan.levels):
            uses.setdefault(root * 2**j, []).append((root, j))
    finest = max(cfg.ladder_n)
    index = {n: i for i, n in enumerate(cfg.ladder_n)}
    base_err = np.zeros((len(cfg.ladder_n), rows))
    mix_err = np.zeros((len(cfg.ladder_n), rows))
    # the samples advance in chunks whose block on the largest lattice holds at
    # most DIRECT_SITE_LIMIT values (one sample when that lattice is larger), so
    # neither the block nor the stored states grow with the sample count
    chunk = max(1, DIRECT_SITE_LIMIT // max(uses) ** d)
    kept: dict[int, AssembledProblem] = {}  # lattices the next chunk reuses

    def inject(block: np.ndarray, m: int, n: int) -> np.ndarray:
        """The sites of lattice n out of a (rows, m, ..., m) block on lattice m."""
        return block[(slice(None),) + (slice(None, None, m // n),) * d]

    def target(root: int) -> int:
        return finest if root == cfg.ref_n else root

    for first in range(0, rows, chunk):
        part = slice(first, min(first + chunk, rows))
        width = part.stop - first
        ref = np.empty((steps + 1, width, *(finest,) * d))
        # root -> {j: c_j U_j per time, injected onto the root (the reference:
        # onto the finest ladder mesh)} for the levels j >= 1 already run
        terms: dict[int, dict[int, np.ndarray]] = {}
        for m in sorted(uses, reverse=True):
            lattice = build_torus(d, cfg.L / m, m)
            assembled = kept.pop(m, None)
            if assembled is None:
                assembled = AssembledProblem(element, tensors, problem, lattice)
            for root, j in uses[m]:
                if j > 0:
                    terms.setdefault(root, {})[j] = np.empty(
                        (steps + 1, width, *(target(root),) * d))

            def observe(k: int, block: np.ndarray) -> None:
                for root, j in uses[m]:
                    mixture = plan.coefficients[j] * inject(block, m, target(root))
                    if j > 0:
                        terms[root][j][k] = mixture
                        continue
                    # m is the root itself, its last level: sum the mixture in
                    # level order, as richardson.combine does
                    for level in range(1, plan.levels):
                        mixture += terms[root][level][k]
                    if root == cfg.ref_n:
                        ref[k] = mixture
                        continue
                    i, r = index[root], inject(ref[k], finest, root)
                    base_err[i, part] = np.maximum(base_err[i, part],
                                                   norms_0h(lattice, block - r))
                    if cfg.jbar >= 1:
                        mix_err[i, part] = np.maximum(mix_err[i, part],
                                                      norms_0h(lattice, mixture - r))

            integrate(assembled, None if noises is None else noises[part], cfg.T, steps,
                      record="terminal", observe=observe)
            for root, j in uses[m]:
                if j == 0:
                    terms.pop(root, None)
            if part.stop < rows:
                kept[m] = assembled
            del assembled  # the last chunk frees it before the next lattice is assembled

    hs = [cfg.L / n for n in cfg.ladder_n]
    base = ConvergenceReport("base", hs, list(cfg.ladder_n), _rms(base_err, cfg.samples))
    mixture = None
    if cfg.jbar >= 1:
        mixture = ConvergenceReport(
            f"mixture jbar={cfg.jbar}", hs, list(cfg.ladder_n), _rms(mix_err, cfg.samples)
        )
    return StudyResult(base=base, mixture=mixture, steps=steps, dt=dt, samples=cfg.samples)


def _rms(errors: np.ndarray, samples: int) -> list[float]:
    """Root mean square over the samples of each ladder mesh's (rows,) errors,
    summed in sample order; a single row stands for every sample."""
    sq = np.zeros(len(errors))
    for i, row in enumerate(errors):
        for s in range(samples):
            sq[i] += float(row[s % len(row)]) ** 2
    return np.sqrt(sq / samples).tolist()
