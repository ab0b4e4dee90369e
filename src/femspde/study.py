"""Convergence studies over a ladder of base meshes with coupled references.

For every base mesh n in the ladder the study solves on levels n 2^j for
j = 0..jbar, forms the extrapolation mixture, and measures errors against a
reference solve at a finer resolution.  All solves in one sample share one
time grid and one noise path, so differences isolate the spatial error; the
time step follows dt = DT_FACTOR * h_finest^2 with h_finest the finest base
mesh in the ladder.

The reference is made mixture-consistent: when jbar >= 1 the reference field
is itself the extrapolation mixture at the reference resolution.  A plain
base-scheme reference would carry its own h_ref^2 error term, which is
larger than the mixture error on fine ladder meshes and would mask the
accelerated rate being measured.

Stochastic studies average squared errors over per-sample seeds before
fitting, i.e. they fit the root-mean-square (strong) error.  Only the noise
path changes between samples, so the samples advance together as one block
(integrator.integrate with a list of noise paths), and each step is one
solve of a system shared by the block, by integrator.LinearSolver's rule.

The samples run in chunks sized by the bytes a chunk stores.  One sample
stores, at every time index, the reference and each mixture's finer-level
terms, and while a step runs BLOCK_COPIES copies of its state on the
largest lattice.  A chunk holds as many samples as fit in
STUDY_CHUNK_BYTES, so the stored states stay under that budget, or at one
sample's worth when a single sample exceeds it, whatever the sample count.
Each chunk runs every lattice; with more than one chunk the lattices stay
assembled, their implicit system factored, until the last chunk.

Nothing keeps whole trajectories.  Within a chunk the lattices run from the
finest down; the reference mixture is kept injected onto the finest ladder
mesh, each unfinished mixture keeps its finer levels' weighted terms
injected onto its base mesh, and each ladder mesh's max-over-time base and
mixture errors are updated together, step by step, while its own lattice
runs, the last level of its mixture.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .assembly import AssembledProblem
from .elements import FiniteElement
from .integrator import NoisePath, integrate, sample_seed
from .lattice import GridFunction, build_torus, nesting_factor, norms_0h
from .problem import Problem
from .richardson import MIN_LADDER, ConvergenceReport, extrapolation_coefficients
from .tensors import ReferenceTensors


DT_FACTOR = 0.5  # dt = DT_FACTOR * h_finest^2 unless the step count is given
STUDY_CHUNK_BYTES = 64 * 2**20  # stored-state budget of one chunk of Monte Carlo samples
# copies of a sample's state that a step keeps live on its lattice: the block,
# the right-hand side, one applied operator and the solve's output
BLOCK_COPIES = 4


def resolve_steps(T: float, L: float, n_finest: int, steps: int | None = None) -> int:
    """Time steps for dt = DT_FACTOR * h_finest^2, h_finest = L / n_finest; steps overrides."""
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    if steps is not None:
        if isinstance(steps, bool) or not isinstance(steps, (int, np.integer)):
            raise ValueError(f"steps must be an integer, got {steps!r}")
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        return int(steps)
    h_finest = L / n_finest
    with np.errstate(over="ignore"):  # numpy's power gives inf where Python's raises
        dt = DT_FACTOR * float(np.float64(h_finest) ** 2)
    if not (0.0 < dt < math.inf and math.isfinite(T / dt)):
        raise ValueError(f"T = {T} over dt = {dt} gives no finite number of steps")
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
    steps: int | None = None  # overrides the dt rule when set

    def resolved_steps(self) -> int:
        return resolve_steps(self.T, self.L, max(self.ladder_n), self.steps)


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
        raise ValueError(f"reference mesh needs at least {2 * max(ladder)} sites per axis (twice "
                         f"the finest ladder mesh, {max(ladder)}), got {cfg.ref_n}")
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
    after the last chunk.  Mixtures sum their levels in level order, so the
    errors do not depend on the visiting order or the chunks.
    """
    _validate_ladder(cfg)
    if cfg.samples < 1:
        raise ValueError(f"samples must be >= 1, got {cfg.samples}")
    d = problem.d
    steps = cfg.resolved_steps()
    dt = cfg.T / steps
    coefficients = extrapolation_coefficients(cfg.jbar, cfg.ratio)
    levels = len(coefficients)

    noises = None
    if problem.has_noise:
        noises = [NoisePath(sample_seed(cfg.base_seed, s), steps, dt, problem.rho_max)
                  for s in range(cfg.samples)]
    rows = cfg.samples if noises else 1  # noise-free samples coincide: one row serves all

    # lattice m -> the (root mesh, level j) pairs it serves, m = root * 2^j
    uses: dict[int, list[tuple[int, int]]] = {}
    for root in [cfg.ref_n, *cfg.ladder_n]:
        for j in range(levels):
            uses.setdefault(root * 2**j, []).append((root, j))
    finest = max(cfg.ladder_n)
    # per ladder mesh and row, the max over time of the base (0) and mixture (1) errors
    errors = np.zeros((2, len(cfg.ladder_n), rows))

    def inject(block: np.ndarray, m: int, n: int) -> np.ndarray:
        """The sites of lattice n out of a (rows, m, ..., m) block on lattice m."""
        return block[(slice(None),) + (slice(None, None, m // n),) * d]

    def target(root: int) -> int:
        return finest if root == cfg.ref_n else root

    # bytes one sample stores: at every time index the reference and each
    # mixture's terms j >= 1, and BLOCK_COPIES states on the largest lattice
    # while a step runs; a chunk holds the samples that fit in STUDY_CHUNK_BYTES
    stored = finest**d + sum((levels - 1) * target(root) ** d
                             for root in [cfg.ref_n, *cfg.ladder_n])
    per_sample = 8 * ((steps + 1) * stored + BLOCK_COPIES * max(uses) ** d)
    chunk = max(1, min(rows, STUDY_CHUNK_BYTES // per_sample))
    kept: dict[int, AssembledProblem] = {}  # lattices the next chunk reuses

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

            def observe(k: int, u: GridFunction) -> None:
                block = u.values
                for root, j in uses[m]:
                    mixture = coefficients[j] * inject(block, m, target(root))
                    if j > 0:
                        terms[root][j][k] = mixture
                        continue
                    # m is the root itself, its last level: sum the mixture in
                    # level order (with jbar = 0 it is 1.0 * U, the base itself)
                    for level in range(1, levels):
                        mixture += terms[root][level][k]
                    if root == cfg.ref_n:
                        ref[k] = mixture
                        continue
                    diff = np.stack([block, mixture])
                    diff -= inject(ref[k], finest, root)
                    norms = norms_0h(lattice, diff.reshape(-1, *block.shape[1:]))
                    i = cfg.ladder_n.index(root)
                    errors[:, i, part] = np.maximum(errors[:, i, part], norms.reshape(2, -1))

            integrate(assembled, None if noises is None else noises[part], cfg.T, steps,
                      record="terminal", observe=observe)
            for root, j in uses[m]:
                if j == 0:
                    terms.pop(root, None)
            if part.stop < rows:
                kept[m] = assembled
            del assembled  # the last chunk frees it before the next lattice is assembled

    # root mean square over the samples, summed in sample order by one cumulative
    # sum; a single row stands for every sample
    squares = np.broadcast_to(errors, (*errors.shape[:2], cfg.samples)) ** 2
    rms = np.sqrt(np.cumsum(squares, axis=-1)[..., -1] / cfg.samples).tolist()
    hs = [cfg.L / n for n in cfg.ladder_n]
    base, mixture = (ConvergenceReport(label, hs, list(cfg.ladder_n), e)
                     for label, e in zip(("base", f"mixture jbar={cfg.jbar}"), rms))
    return StudyResult(base=base, mixture=mixture if cfg.jbar >= 1 else None, steps=steps,
                       dt=dt, samples=cfg.samples)
