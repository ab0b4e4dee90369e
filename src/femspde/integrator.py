"""Drift-implicit Euler-Maruyama integration of the lattice scheme.

One step solves

    (mass - dt * drift(t_{n+1})) U_{n+1}
        = mass U_n + dt f_h(t_{n+1})
          + sum_rho (noise(t_n, rho) U_n + g_h(t_n, rho)) dW^rho_n

so the drift is implicit and the stochastic increment explicit.  Coefficients
are evaluated at t_{n+1} on the implicit side and at t_n inside the
stochastic term.  The initial state solves mass U_0 = phi_h.

Noise increments come from a counter-based generator: the uint64 stream of
Philox keyed by (seed, rho) is mapped through the inverse normal CDF, one
raw draw per time index, so the increment at (seed, rho, n) is addressable
without generating its predecessors.  Independent Monte Carlo samples derive
their seeds with a splitmix64 mix of the base seed and the sample index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.random import Philox
from scipy.special import ndtri

from .assembly import AssembledProblem, StencilOperator
from .lattice import GridFunction, TorusLattice, norm_0h


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IntegrationError(RuntimeError):
    def __init__(self, message: str, step: int | None = None):
        super().__init__(message)
        self.step = step


# ---------------------------------------------------------------------------
# reproducible noise
# ---------------------------------------------------------------------------

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One splitmix64 finalizer round: a bijective 64-bit scramble."""
    x = (x + _SPLITMIX_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def sample_seed(base_seed: int, sample_index: int) -> int:
    """Per-sample seed: mix(base_seed, index), collision-free in practice."""
    return splitmix64((base_seed & _MASK64) ^ splitmix64(sample_index))


def _uniform_from_raw(raw: np.ndarray) -> np.ndarray:
    # top 53 bits, centered in (0, 1); never returns 0 or 1
    return ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


class NoisePath:
    """Wiener increments dW^rho_n ~ N(0, dt), reproducible and addressable."""

    def __init__(self, seed: int, steps: int, dt: float, rho_count: int = 1):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.seed = int(seed) & _MASK64
        self.steps = int(steps)
        self.dt = float(dt)
        self.rho_count = int(rho_count)
        scale = np.sqrt(self.dt)
        rows = []
        for rho in range(1, self.rho_count + 1):
            raw = Philox(key=self._key(rho)).random_raw(self.steps)
            rows.append(scale * ndtri(_uniform_from_raw(raw)))
        self.increments = np.asarray(rows).reshape(self.rho_count, self.steps)

    def _key(self, rho: int) -> list[int]:
        return [self.seed, rho & _MASK64]

    def increment(self, rho: int, n: int) -> float:
        """Single increment addressed by (seed, rho, n), no streaming required."""
        if not (1 <= rho <= self.rho_count and 0 <= n < self.steps):
            raise IndexError(f"increment ({rho}, {n}) out of range")
        bg = Philox(key=self._key(rho))
        bg.advance(n // 4)  # advance counts 256-bit blocks of four raw draws
        raw = bg.random_raw(4)[n % 4]
        return float(np.sqrt(self.dt) * ndtri(_uniform_from_raw(np.array([raw], dtype=np.uint64))[0]))

    def step_increments(self, n: int) -> np.ndarray:
        return self.increments[:, n]


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

# Sparse LU up to this many sites, BiCGStab above: on a 20^3 tensor(3) system (2-vCPU
# x86 host) sparse LU costs 1.2-1.6 s and 6.8e6 fill entries per factorization, while
# BiCGStab takes 135 iterations, about 0.1 s, for a whole 40-step run.
DIRECT_SITE_LIMIT = 4096

# mass - dt * drift counts as singular when its entries cancel to this fraction of
# max|mass| + dt * max|drift|; cond(S) can stay 1 under such cancellation, so no
# test on S alone sees it
CANCELLATION_TOL = 1e-12


@dataclass
class SolverConfig:
    tol: float = 1e-10
    max_iter: int = 2000


class LinearSolver:
    """Factorization cache for repeated solves with one operator.

    Lattices of at most DIRECT_SITE_LIMIT sites are factored by sparse LU
    (SuperLU with a minimum-degree ordering on A^T + A); larger ones are
    solved by BiCGStab to the relative tolerance cfg.tol.
    """

    def __init__(self, op: StencilOperator, cfg: SolverConfig):
        self.op = op
        self.cfg = cfg
        self.direct = op.lattice.total_sites <= DIRECT_SITE_LIMIT
        mat = op.to_csr()
        if self.direct:
            from scipy.sparse.linalg import splu

            try:
                self._lu = splu(mat.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        else:
            self._mat = mat

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        rhs = rhs.reshape(-1)
        if self.direct:
            out = self._lu.solve(rhs)
            if not np.all(np.isfinite(out)):
                raise SolverError("sparse LU solve produced non-finite values")
            return out
        from scipy.sparse.linalg import bicgstab

        norm = float(np.linalg.norm(rhs))
        if norm == 0.0:
            return np.zeros_like(rhs)
        out, info = bicgstab(self._mat, rhs, rtol=self.cfg.tol, atol=0.0, maxiter=self.cfg.max_iter)
        residual = float(np.linalg.norm(self._mat @ out - rhs)) / norm
        if info != 0 or not np.isfinite(residual) or residual > 10 * self.cfg.tol:
            raise SolverError(
                f"iterative solver failed (info={info}) with relative residual {residual:.3e}",
                residual=residual,
            )
        return out


def solve_linear(
    system: StencilOperator,
    rhs: GridFunction,
    tol: float = 1e-10,
    max_iter: int = 2000,
) -> GridFunction:
    """Solve system U = rhs: sparse LU up to DIRECT_SITE_LIMIT sites, BiCGStab above."""
    if rhs.lattice != system.lattice:
        raise ValueError("rhs lattice does not match the system")
    cfg = SolverConfig(tol=tol, max_iter=max_iter)
    out = LinearSolver(system, cfg).solve(rhs.flat())
    return GridFunction(rhs.lattice, out)


def implicit_system(assembled: AssembledProblem, t: float, dt: float) -> StencilOperator:
    """The implicit step operator mass - dt * drift(t).

    Raises SolverError when its entries cancel to rounding level against the
    terms that formed it, e.g. c = 1/dt with no diffusion.
    """
    mass = assembled.mass
    drift = assembled.drift(t)
    system = mass.scaled_add(1.0, drift, -dt)
    scale = float(np.abs(mass.coef).max()) + dt * float(np.abs(drift.coef).max())
    size = float(np.abs(system.coef).max())
    if size <= CANCELLATION_TOL * scale:
        raise SolverError(
            f"mass - dt * drift cancels: max entry {size:.3e} against scale {scale:.3e}"
        )
    return system


# ---------------------------------------------------------------------------
# trajectories
# ---------------------------------------------------------------------------


@dataclass
class Trajectory:
    lattice: TorusLattice
    times: np.ndarray
    states: list[GridFunction] | None
    terminal: GridFunction
    sup_norm_0h: float
    record: str = "all"


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def step_implicit_em(
    u_n: GridFunction,
    assembled: AssembledProblem,
    t_n: float,
    dt: float,
    increments: np.ndarray | None,
    solver: LinearSolver | None = None,
    cfg: SolverConfig | None = None,
) -> GridFunction:
    """One drift-implicit Euler-Maruyama step from t_n to t_n + dt."""
    cfg = cfg or SolverConfig()
    t_next = t_n + dt
    rhs = assembled.mass.apply(u_n)
    if assembled.problem.f is not None:
        rhs = rhs + dt * assembled.f_h(t_next)
    if increments is not None and assembled.problem.has_noise:
        for rho in assembled.problem.active_rhos():
            dw = float(increments[rho - 1])
            if dw == 0.0:
                continue
            term = assembled.noise(t_n, rho).apply(u_n)
            term = term + assembled.g_h(t_n, rho)
            rhs = rhs + dw * term
    if solver is None:
        solver = LinearSolver(implicit_system(assembled, t_next, dt), cfg)
    out = solver.solve(rhs.flat())
    return GridFunction(u_n.lattice, out)


def integrate(
    assembled: AssembledProblem,
    noise: NoisePath | None,
    T: float,
    steps: int,
    record: str = "all",
    cfg: SolverConfig | None = None,
) -> Trajectory:
    """Run the scheme from the mollified initial state to time T.

    record: 'all' keeps every state, 'terminal' only the last; the sup of
    |U|_{0,h} over all steps is tracked either way.
    """
    cfg = cfg or SolverConfig()
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not T > 0:
        raise ValueError(f"T must be positive, got {T}")
    if noise is not None and noise.steps != steps:
        raise ValueError(f"noise path has {noise.steps} steps, integrator wants {steps}")
    if assembled.problem.has_noise and noise is None:
        raise ValueError("problem carries noise terms but no noise path was given")
    rho = max(assembled.problem.active_rhos(), default=0)
    if noise is not None and noise.rho_count < rho:
        raise ValueError(
            f"noise path has {noise.rho_count} Wiener indices, the problem uses rho = {rho}"
        )
    dt = T / steps
    if noise is not None and abs(noise.dt - dt) > 1e-12 * max(dt, noise.dt):
        raise ValueError(f"noise dt {noise.dt} does not match T/steps = {dt}")
    lattice = assembled.lattice

    # BiCGStab's U_0 depends on the tolerance and the iteration cap
    u = assembled.memo(("u0", cfg.tol, cfg.max_iter), lambda: solve_linear(
        assembled.mass, assembled.phi_h(), tol=cfg.tol, max_iter=cfg.max_iter
    ))
    states = [u.copy()] if record == "all" else None
    sup = norm_0h(u)
    times = [0.0]

    solver: LinearSolver | None = None
    if not assembled.problem.drift_time_dependent:
        try:
            solver = LinearSolver(implicit_system(assembled, 0.0, dt), cfg)
        except SolverError as exc:
            raise IntegrationError(f"linear solve failed at step 0: {exc}", step=0) from exc

    for n in range(steps):
        t_n = n * dt
        incs = noise.step_increments(n) if noise is not None else None
        try:
            u = step_implicit_em(u, assembled, t_n, dt, incs, solver=solver, cfg=cfg)
        except SolverError as exc:
            raise IntegrationError(f"linear solve failed at step {n}: {exc}", step=n) from exc
        norm = norm_0h(u)
        if not (np.all(np.isfinite(u.values)) and np.isfinite(norm)):
            raise IntegrationError(f"non-finite state or |U|_0h at step {n}", step=n)
        sup = max(sup, norm)
        times.append((n + 1) * dt)
        if record == "all":
            states.append(u.copy())
    return Trajectory(
        lattice=lattice,
        times=np.asarray(times),
        states=states,
        terminal=u,
        sup_norm_0h=sup,
        record=record,
    )


def integrate_multilevel(
    element,
    tensors,
    problem,
    coarsest: TorusLattice,
    levels: int,
    noise: NoisePath | None,
    T: float,
    steps: int,
    record: str = "all",
    cfg: SolverConfig | None = None,
    h: float | None = None,
) -> list[Trajectory]:
    """Solve on lattices h, h/2, ..., h/2^(levels-1) with one shared noise path.

    All levels use the identical time grid and the identical Wiener
    increments; spatial refinement does not touch the noise.
    """
    if levels < 1:
        raise ValueError("levels must be >= 1")
    out = []
    lattice = coarsest
    for j in range(levels):
        level_h = None if h is None else np.sign(h) * lattice.h
        assembled = AssembledProblem(element, tensors, problem, lattice, h=level_h)
        out.append(integrate(assembled, noise, T, steps, record=record, cfg=cfg))
        if j + 1 < levels:
            lattice = lattice.refine()
    return out
