"""Drift-implicit Euler-Maruyama integration of the lattice scheme.

One step solves

    (mass - dt * drift(t_{n+1})) U_{n+1}
        = mass U_n + dt f_h(t_{n+1})
          + sum_rho (noise(t_n, rho) U_n + g_h(t_n, rho)) dW^rho_n

so the drift is implicit and the stochastic increment explicit.  Coefficients
are evaluated at t_{n+1} on the implicit side and at t_n inside the
stochastic term.  The initial state solves mass U_0 = phi_h.  Every state
is a GridFunction, a (samples, *lattice.shape) block: Monte Carlo samples
that differ only in their noise path advance together, and one path is a
block of one sample.

Every operator is its CSR matrix (StencilOperator.matrix): the explicit
terms are sparse products with it, and the implicit system is solved on it.
Lattices of at most DIRECT_SITE_LIMIT sites are solved by sparse LU; larger
ones by BiCGStab, preconditioned by the exact inverse of the x-averaged
system.  Averaging every stencil coefficient over the sites gives a
constant-coefficient periodic stencil, a circulant matrix that one real FFT
diagonalizes (Chan and Ng, SIAM Rev. 38, 1996).  When the system is itself
circulant, as the mass always is and mass - dt * drift is when no
coefficient depends on x, the preconditioner is its inverse and BiCGStab
stops within one iteration.  BiCGStab runs to the fixed relative tolerance
KRYLOV_TOL = 1e-10 within KRYLOV_MAX_ITER = 2000 iterations, which bounds the
accuracy of every solve on a lattice above DIRECT_SITE_LIMIT sites.

Noise increments come from a counter-based generator: the uint64 stream of
Philox keyed by (seed, rho) is mapped through the inverse normal CDF, one
raw draw per time index, so the increment at (seed, rho, n) is addressable
without generating its predecessors.  Independent Monte Carlo samples derive
their seeds with a splitmix64 mix of the base seed and the sample index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg
from numpy.random import Philox
from scipy.fft import irfftn, rfftn
from scipy.special import ndtri

from .assembly import AssembledProblem, StencilOperator
from .lattice import GridFunction, TorusLattice, norms_0h


class SolverError(RuntimeError):
    def __init__(self, message: str, residual: float | None = None):
        super().__init__(message)
        self.residual = residual


class IntegrationError(RuntimeError):
    def __init__(self, message: str, step: int | None = None, sample: int | None = None):
        super().__init__(message)
        self.step = step
        self.sample = sample


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


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

# Sparse LU up to this many sites, BiCGStab above: on a 20^3 tensor(3) system (2-vCPU
# x86 host) sparse LU costs 1.4 s and 6.8e6 fill entries per factorization, while
# preconditioned BiCGStab takes 159 iterations, about 0.2 s, for a whole 40-step run.
DIRECT_SITE_LIMIT = 4096

# mass - dt * drift counts as singular when its entries cancel to this fraction of
# max|mass| + dt * max|drift|; cond(S) can stay 1 under such cancellation, so no
# test on S alone sees it
CANCELLATION_TOL = 1e-12

# BiCGStab's relative tolerance and iteration cap
KRYLOV_TOL = 1e-10
KRYLOV_MAX_ITER = 2000


class LinearSolver:
    """Factorization cache for repeated solves with one operator.

    Both paths use op.matrix.  Lattices of at most DIRECT_SITE_LIMIT sites
    are factored by sparse LU (SuperLU with a minimum-degree ordering on
    A^T + A, on a CSC copy); larger ones are solved by BiCGStab to the
    relative tolerance KRYLOV_TOL, preconditioned by the FFT inverse of the
    x-averaged operator.
    """

    def __init__(self, op: StencilOperator):
        self.op = op
        self.direct = op.lattice.total_sites <= DIRECT_SITE_LIMIT
        if self.direct:
            try:
                self._lu = scipy.sparse.linalg.splu(op.matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        else:
            shape = op.lattice.shape
            symbol = _averaged_symbol(op)
            self._precond = scipy.sparse.linalg.LinearOperator(
                op.matrix.shape, dtype=float,
                matvec=lambda v: irfftn(rfftn(v.reshape(shape)) / symbol, s=shape).reshape(-1),
            )

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for every row of a (samples, total_sites) block: one multi-RHS
        LU solve, or one BiCGStab run per row, each with its own residual check."""
        if rhs.ndim != 2 or rhs.shape[1] != self.op.lattice.total_sites:
            raise ValueError(f"right-hand side shape {rhs.shape} is not "
                             f"(samples, {self.op.lattice.total_sites})")
        if self.direct:
            out = self._lu.solve(rhs.T).T
            if not np.all(np.isfinite(out)):
                raise SolverError("sparse LU solve produced non-finite values")
        else:
            out = np.stack([self._krylov(row, s, len(rhs)) for s, row in enumerate(rhs)])
        return out

    def _krylov(self, rhs: np.ndarray, column: int, columns: int) -> np.ndarray:
        # looked up at call time, so that a wrapper bound to the module attribute sees every run
        from scipy.sparse.linalg import bicgstab

        norm = float(np.linalg.norm(rhs))
        if norm == 0.0:
            return np.zeros_like(rhs)
        mat = self.op.matrix
        out, info = bicgstab(mat, rhs, rtol=KRYLOV_TOL, atol=0.0,
                             maxiter=KRYLOV_MAX_ITER, M=self._precond)
        residual = float(np.linalg.norm(mat @ out - rhs)) / norm
        if info != 0 or not np.isfinite(residual) or residual > 10 * KRYLOV_TOL:
            where = f" in column {column}" if columns > 1 else ""
            raise SolverError(
                f"iterative solver failed{where} (info={info}) with relative residual "
                f"{residual:.3e}",
                residual=residual,
            )
        return out


def _averaged_symbol(op: StencilOperator) -> np.ndarray:
    """rfftn symbol of the stencil whose coefficients are op's averaged over the sites.

    That stencil is the circular convolution with the kernel
    K[-lam mod n] = mean_x coef(lam, x), so its eigenvalues are rfftn(K).
    Modes with |symbol| <= CANCELLATION_TOL * max|symbol|, and every mode
    when the symbol vanishes, are set to 1: the preconditioner leaves them
    alone, and a singular system still fails at the solver's residual check.
    """
    lattice = op.lattice
    kernel = np.zeros(lattice.shape)
    lams = np.asarray(op.offsets)
    means = op.matrix.data.reshape(-1, len(lams)).mean(axis=0)
    np.add.at(kernel, tuple((-lams % lattice.n).T), means)
    symbol = rfftn(kernel)
    size = np.abs(symbol)
    symbol[size <= CANCELLATION_TOL * size.max()] = 1.0
    return symbol


def implicit_system(assembled: AssembledProblem, t: float, dt: float) -> StencilOperator:
    """The implicit step operator mass - dt * drift(t).

    Raises SolverError when its entries cancel to rounding level against the
    terms that formed it, e.g. c = 1/dt with no diffusion.
    """
    mass = assembled.mass
    drift = assembled.drift(t)
    system = mass.scaled_add(1.0, drift, -dt)
    scale = float(np.abs(mass.matrix.data).max()) + dt * float(np.abs(drift.matrix.data).max())
    size = float(np.abs(system.matrix.data).max())
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
    """States of one run, each a GridFunction holding every sample: states at
    every time index (None unless recorded), the terminal state, and the
    maximum of |U|_{0,h} over the time indices and the samples."""

    lattice: TorusLattice
    times: np.ndarray
    states: list[GridFunction] | None
    terminal: GridFunction
    sup_norm_0h: float


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------


def step_implicit_em(
    u: GridFunction,
    assembled: AssembledProblem,
    t_n: float,
    dt: float,
    increments: np.ndarray | None,
) -> GridFunction:
    """One drift-implicit Euler-Maruyama step from t_n to t_n + dt.

    increments is (rho_count, samples), one column per sample of u; all
    samples share one implicit system, factored once and kept by
    `assembled` for every later step with this dt unless the drift
    references t.
    """
    t_next = t_n + dt
    # factored before the right-hand side is formed: the other order raised the
    # peak RSS of a tensor(2) study with a 256^2 reference by 5 %
    solver = assembled.memo(("system", dt), lambda: LinearSolver(
        implicit_system(assembled, t_next, dt)), assembled.drift_asts)
    rhs = assembled.mass.apply(u).values
    if assembled.problem.f is not None:
        rhs += dt * assembled.f_h(t_next).values
    if increments is not None and assembled.problem.has_noise:
        for rho in assembled.problem.active_rhos():
            dw = increments[rho - 1].reshape(-1, *[1] * assembled.lattice.d)
            if not np.any(dw):
                continue
            term = assembled.noise(t_n, rho).apply(u).values + assembled.g_h(t_n, rho).values
            rhs += dw * term
    return GridFunction(u.lattice, solver.solve(rhs.reshape(len(rhs), -1)).reshape(rhs.shape))


def integrate(
    assembled: AssembledProblem,
    noise: NoisePath | list[NoisePath] | None,
    T: float,
    steps: int,
    record: str = "all",
    observe=None,
) -> Trajectory:
    """Run the scheme from the mollified initial state to time T.

    noise is one NoisePath (a block of one sample; None for a problem
    without noise terms) or a list holding one NoisePath per Monte Carlo
    sample.  The samples advance together as one GridFunction: every step
    is one sparse product per operator on the block and one solve with a
    factorization shared by all samples (one per step when the drift
    depends on t; otherwise one per lattice and dt, which `assembled` keeps
    for later calls, as it keeps U_0).

    record: 'all' keeps every state, 'terminal' only the last (any other
    value is a ValueError); the maximum of |U|_{0,h} over all steps and
    samples is tracked either way.  observe(n, u), when given, sees the
    GridFunction u at every time index n = 0..steps.
    """
    if record not in ("all", "terminal"):
        raise ValueError(f"record must be 'all' or 'terminal', got {record!r}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    if not 0 < T < math.inf:
        raise ValueError(f"T must be finite and positive, got {T}")
    noises = [noise] if isinstance(noise, NoisePath) else noise
    if assembled.problem.has_noise and noises is None:
        raise ValueError("problem carries noise terms but no noise path was given")
    if noises is not None and not noises:
        raise ValueError("noises must hold at least one path")
    dt = T / steps
    rho = max(assembled.problem.active_rhos(), default=0)
    for path in noises or []:
        if path.steps != steps:
            raise ValueError(f"noise path has {path.steps} steps, integrator wants {steps}")
        if path.rho_count < rho:
            raise ValueError(
                f"noise path has {path.rho_count} Wiener indices, the problem uses rho = {rho}"
            )
        if path.rho_count != noises[0].rho_count:
            raise ValueError(
                f"noise paths differ in rho_count: {path.rho_count} against "
                f"{noises[0].rho_count}"
            )
        if abs(path.dt - dt) > 1e-12 * max(dt, path.dt):
            raise ValueError(f"noise dt {path.dt} does not match T/steps = {dt}")
    increments = None if noises is None else np.stack([p.increments for p in noises], axis=1)
    lattice = assembled.lattice

    def initial() -> GridFunction:
        phi = assembled.phi_h().values
        return GridFunction(lattice, LinearSolver(assembled.mass).solve(
            phi.reshape(1, -1)).reshape(phi.shape))

    u0 = assembled.memo("u0", initial)
    u = GridFunction(lattice, np.repeat(u0.values, 1 if noises is None else len(noises), axis=0))
    sup = float(norms_0h(lattice, u.values).max())
    states = [u] if record == "all" else None
    if observe is not None:
        observe(0, u)

    for n in range(steps):
        incs = None if increments is None else increments[:, :, n]
        try:
            u = step_implicit_em(u, assembled, n * dt, dt, incs)
        except SolverError as exc:
            raise IntegrationError(f"linear solve failed at step {n}: {exc}", step=n) from exc
        norms = norms_0h(lattice, u.values)
        bad = ~np.isfinite(norms)  # a NaN or inf entry makes its sample's norm non-finite
        if bad.any():
            s = int(np.argmax(bad))
            where = f" in sample {s}" if len(norms) > 1 else ""
            raise IntegrationError(f"non-finite state or |U|_0h at step {n}{where}",
                                   step=n, sample=s)
        sup = max(sup, float(norms.max()))
        if states is not None:
            states.append(u)
        if observe is not None:
            observe(n + 1, u)
    return Trajectory(
        lattice=lattice,
        times=np.arange(steps + 1) * dt,
        states=states,
        terminal=u,
        sup_norm_0h=sup,
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
        assembled = AssembledProblem(element, tensors, problem, lattice)
        out.append(integrate(assembled, noise, T, steps, record=record))
        if j + 1 < levels:
            lattice = lattice.refine()
    return out
