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

LinearSolver solves the implicit system and U_0's mass system by a real FFT
over the axes no coefficient varies along, then sparse LU of the per-mode
blocks or BiCGStab, by the rule its docstring states.  It reads the
split axes and the blocks' entries from the coefficients each operator
stores over the axes they vary along (StencilOperator.compact, whose shape
states which axes are invariant), so the mass - dt * drift of a split
solve is never copied onto the whole lattice.  The step forms its
right-hand side in the same Fourier modes, over no axis when the system
does not split: the mass term by the mass's per-mode entries, which come
from its G coefficients over the split axes alone, applied to the
transform of U_n, and the noise terms by their operators' compact
coefficients on the sites, both by the shifted sum of femspde.assembly.
The CSR format is this module's own: _csr builds BiCGStab's matrix and the
blocks that sparse LU factors, and no other matrix.

Noise increments come from a counter-based generator: the uint64 stream of
Philox keyed by (seed, rho) is mapped through the inverse normal CDF, one
raw draw per time index, so the increment at (seed, rho, n) is the n-th
draw of the counter that (seed, rho) keys, the same whatever the run's
length.  Independent Monte Carlo samples derive their seeds with a
splitmix64 mix of the base seed and the sample index.

The module needs nothing of scipy.fft or scipy.special.  The FFT is numpy's,
which agrees bit for bit with scipy.fft on 1-D and 2-D forward transforms
but not on 3-D transforms over every axis or on inverse transforms over two
or more axes of a size that is not a power of two, so such runs recorded
with scipy.fft replay to different last digits.  The inverse normal CDF is
a port of Cephes ndtri (_ndtri), bit for bit as scipy.special.ndtri, so
noise paths replay unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg
from numpy.fft import irfftn, rfftn
from numpy.random import Philox

from .assembly import AssembledProblem, Lam, StencilOperator, mollify_data, shifted_sum
from .lattice import GridFunction, TorusLattice, norms_0h


class SolverError(RuntimeError):
    """Raised when a linear system is singular to rounding or its solve fails."""


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


class NoisePath:
    """Wiener increments dW^rho_n ~ N(0, dt), reproducible from (seed, rho)."""

    def __init__(self, seed: int, steps: int, dt: float, rho_count: int = 1):
        if steps < 1:
            raise ValueError("steps must be >= 1")
        if dt <= 0.0:
            raise ValueError("dt must be positive")
        self.seed = int(seed) & _MASK64
        self.steps = int(steps)
        self.dt = float(dt)
        self.rho_count = int(rho_count)
        rows = [self._from_raw(Philox(key=[self.seed, rho]).random_raw(self.steps))
                for rho in range(1, self.rho_count + 1)]
        self.increments = np.asarray(rows).reshape(self.rho_count, self.steps)

    def _from_raw(self, raw: np.ndarray) -> np.ndarray:
        """The increments sqrt(dt) * ndtri(u) of an array of raw Philox draws, u
        from each draw's top 53 bits, centered in (0, 1) and kept below the
        largest double under 1, which the top draws round to: never 0 or 1."""
        uniform = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        return math.sqrt(self.dt) * _ndtri(np.minimum(uniform, _BELOW_ONE, out=uniform))


_BELOW_ONE = float(np.nextafter(1.0, 0.0))

# Cephes ndtri (S. L. Moshier, Methods and Programs for Mathematical Functions,
# 1989), the routine scipy.special ships.  For exp(-2) < u <= 1 - exp(-2) it is a
# rational P0/Q0 in (u - 1/2)^2; on the tails, with y = min(u, 1 - u) and
# x = sqrt(-2 log y), rationals P1/Q1 (x < 8) and P2/Q2 (x >= 8) in 1/x.  The
# coefficients run from the highest power down; each Q has a leading 1 besides.
_EXP_M2 = 0.13533528323661269189
_S2PI = 2.50662827463100050242
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
       1.39312609387279679503e1, -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
       -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
       4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
       1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
       1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
       2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _horner(x: np.ndarray, coefs: tuple[float, ...], monic: bool = False) -> np.ndarray:
    """Cephes' polevl at x, or p1evl when monic (a leading 1 before coefs)."""
    out = x + coefs[0] if monic else x * coefs[0] + coefs[1]
    for c in coefs[1 if monic else 2:]:
        out *= x
        out += c
    return out


def _log(x: np.ndarray) -> np.ndarray:
    """The C library's log of each element, as Cephes takes it.  numpy's SIMD
    log differs from it in the last bit on some inputs (126 of 541 422 tail
    draws on an AVX-512 x86 host), so each element goes through math.log; at
    about 0.1 us each on a 2-vCPU x86 host, two calls per tail element are
    most of the cost of a long path."""
    return np.fromiter(map(math.log, memoryview(x)), np.float64, x.size)


def _ndtri(u: np.ndarray) -> np.ndarray:
    """The inverse normal CDF of a 1-D array of u in (0, 1), bit for bit as
    scipy.special.ndtri: Cephes' operations in Cephes' order."""
    c = u - 0.5
    c2 = c * c
    out = _horner(c2, _P0)
    out *= c2
    out /= _horner(c2, _Q0, monic=True)
    out *= c
    out += c
    out *= _S2PI  # Cephes' value on the central u, overwritten on the tails below
    tail = np.flatnonzero((u <= _EXP_M2) | (u > 1.0 - _EXP_M2))
    if tail.size:
        y = u[tail]
        y = np.minimum(y, 1.0 - y)
        x = np.sqrt(-2.0 * _log(y))
        x0 = x - _log(x) / x
        z = 1.0 / x
        x1 = z * _horner(z, _P1) / _horner(z, _Q1, monic=True)
        far = np.flatnonzero(x >= 8.0)  # y below exp(-32)
        if far.size:
            zf = z[far]
            x1[far] = zf * _horner(zf, _P2) / _horner(zf, _Q2, monic=True)
        x0 -= x1
        out[tail] = np.copysign(x0, c[tail])
    return out


# ---------------------------------------------------------------------------
# linear solves
# ---------------------------------------------------------------------------

# Sparse LU of blocks of up to this many sites, BiCGStab above.  A block holds the
# sites along the axes some coefficient varies along, the product of the span the
# operator stores (StencilOperator.compact).  On a 20^3 tensor(3) system that varies
# along every axis (2-vCPU x86 host) sparse LU costs 1.4 s and 6.8e6 fill entries per
# factorization, while preconditioned BiCGStab takes 159 iterations, about 0.2 s, for
# a whole 40-step run.
DIRECT_SITE_LIMIT = 4096

# mass - dt * drift counts as singular when its entries cancel to this fraction of
# max|mass| + dt * max|drift|, or a mode's symbol to this fraction of the terms that
# formed it (LinearSolver); cond(S) can stay 1 under such cancellation, so no test
# on S alone sees it
CANCELLATION_TOL = 1e-12

# BiCGStab's relative tolerance and iteration cap, which bound the accuracy of every
# solve that takes it
KRYLOV_TOL = 1e-10
KRYLOV_MAX_ITER = 2000


class LinearSolver:
    """Solves with one operator by a Fourier split, factored only where the
    factorization pays.

    An axis along which every coefficient is == its first is invariant, and
    op.compact stores it with one entry (StencilOperator): the stencil
    commutes with shifts along it, so a real FFT over the invariant axes
    turns the system into one independent periodic block per Fourier mode on
    the other, varying axes (Hockney, J. ACM 12, 1965; Swarztrauber, SIAM
    Rev. 19, 1977).  Every solve here is such a split, _split_solve: the FFT,
    each mode's solve and the inverse FFT.  _mode_blocks forms the blocks;
    they are factored together, as one block-diagonal matrix, by sparse LU
    (SuperLU with a minimum-degree ordering on A^T + A and O(N) panel
    workspace).  With no invariant axis the split is over no axis and the one
    block is the whole lattice, op's own real entries in the CSR pattern of
    its stencil (_csr).
    With every axis invariant (the mass, or mass - dt * drift when no
    coefficient depends on x) each block is one site, its mode's symbol, and
    the mode's solve is a division by it.  The split axes are the axes
    op.compact stores once, a block's sites the product of its other sizes,
    and along the split axes the blocks' entries are op's own coefficients.
    solve also takes a right-hand side already transformed over the split's
    axes, as step_implicit_em forms it.  So a direct solve builds no CSR
    matrix but its blocks, and no step builds any operator's: the steps use
    the factors of the mode blocks (or the symbol), the operators' compact
    coefficients, the mass's per-mode entries (one per mode of the split
    axes and shift along the others) and f_h's transform, which the
    AssembledProblem keeps.  Only the BiCGStab branch builds op's CSR
    matrix, once per solver, from op.compact broadcast over the lattice: its
    matvec repeats, and CSR applies 2-3x faster than views.

    The direct path is taken when the factorization is reused or the lattice
    is 1-D, and a block has at most DIRECT_SITE_LIMIT sites.  Otherwise the
    system is solved by BiCGStab on op's CSR matrix to the relative tolerance
    KRYLOV_TOL, preconditioned by the split over every axis of the x-averaged
    operator, whose coefficients are op's averaged over the sites along the
    axes op varies along (Chan and Ng, SIAM Rev. 38, 1996).

    A mode vanishes when its |symbol| is not above CANCELLATION_TOL times a
    scale.  On the division path, for a sum such as mass - dt * drift
    (op.terms), the scale of mode m is the sum of |weight * symbol(m)| over
    the terms that formed it, |M(m)| + dt |D(m)|: a stiff system whose
    symbols span more than 1 / CANCELLATION_TOL is not singular, while one
    whose terms cancel at a mode is.  Otherwise (the mass of U_0, or the
    preconditioner) the scale is max|symbol|.  On the direct path a
    vanishing mode is a SolverError, the system being singular to rounding;
    the preconditioner leaves such modes alone, and every mode when the
    whole symbol vanishes, so a singular system still fails at BiCGStab's
    residual check.

    reused says whether the factorization would serve more than one solve or
    more than one column: the system is kept for later steps (no drift
    expression references t) or one solve covers a block of samples.  The
    integrator derives it from the problem and the block width; U_0's solve
    with the mass and the tests rely on the default.  So a t-dependent system
    of one sample in d >= 2 runs BiCGStab on every lattice: on a 2-vCPU x86
    host, factoring a 32^2 tensor(2) system and solving once costs 3.6 ms
    against 0.8 ms for one BiCGStab solve, while in 1-D the factor and solve
    stays faster (0.2 against 0.95 ms at 64 sites).  A kept tensor(2) system
    with a^11 = 1 + 0.25 cos x1 on 256^2 sites splits into 129 blocks of 256
    sites, formed and factored in about 30 ms with 2e5 entries in L + U; each
    solve then takes about 2 ms, where BiCGStab took about 3.5 iterations.
    """

    def __init__(self, op: StencilOperator, reused: bool = True):
        self.lattice = lattice = op.lattice
        span = op.compact.shape[:-1]
        self.direct = (reused or lattice.d == 1) and math.prod(span) <= DIRECT_SITE_LIMIT
        self._axes = tuple(k for k, size in enumerate(span) if size == 1) if self.direct else ()
        every = tuple(range(lattice.d))
        if not self.direct or self._axes == every:  # op's x-average, or op itself
            self._factor = symbol = _mode_symbols(op, every)[0][..., 0]
            size = np.abs(symbol)
            if self.direct and op.terms:
                scale = sum(abs(w) * np.abs(_mode_symbols(term, every)[0][..., 0])
                            for w, term in op.terms)
                against = "its terms' sum"
            else:
                scale, against = np.full_like(size, size.max()), "a maximum"
            vanishing = ~(size > CANCELLATION_TOL * scale)  # a NaN mode too
            if self.direct and vanishing.any():
                m = np.flatnonzero(vanishing)[0]
                raise SolverError(f"singular: its symbol falls to {size.flat[m]:.3e} "
                                  f"against {against} of {scale.flat[m]:.3e}")
            symbol[vanishing] = 1.0
        else:
            # panel_size=1, relax=1 keep SuperLU's dense panel workspace at O(N): on the
            # 33 024 rows of a 256^2 tensor(2) system split along x2 (2-vCPU x86 host)
            # they factor in 22 ms, where the defaults take 43 ms and raise the peak RSS
            # of a process that has just assembled it by 4.5 MB; stoch1d_mc's 1-D systems
            # (16 to 256 sites, split over no axis) factor in 26-77 us against 36-101 us
            try:
                self._factor = scipy.sparse.linalg.splu(
                    _mode_blocks(op, self._axes), permc_spec="MMD_AT_PLUS_A",
                    panel_size=1, relax=1)
            except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
                raise SolverError(f"sparse factorization failed: {exc}") from exc
        if not self.direct:
            # the matvec holds the symbol, not the solver: a cycle through the solver
            # would keep every single-use system alive until the cyclic collector runs
            shape = lattice.shape
            self._matrix = _csr(np.broadcast_to(op.compact, (*shape, len(op.offsets))), op.offsets)
            self._precond = scipy.sparse.linalg.LinearOperator(
                self._matrix.shape, dtype=float,
                matvec=lambda v: _split_solve(_forward(v.reshape(1, *shape), every), shape,
                                              every, symbol).reshape(-1),
            )

    def solve(self, rhs: np.ndarray, transformed: bool = False) -> np.ndarray:
        """Solve for every row of a (samples, total_sites) block: one split of
        the whole block, or one BiCGStab run per row, each with its own
        residual check.  With transformed, rhs is the block's real FFT over
        the split's axes instead, (samples, *spectrum), as _forward gives it;
        over no axis, as on the BiCGStab path, that is the (samples, *shape)
        block itself.  Returns (samples, total_sites)."""
        lattice = self.lattice
        if not transformed and (rhs.ndim != 2 or rhs.shape[1] != lattice.total_sites):
            raise ValueError(f"right-hand side shape {rhs.shape} is not "
                             f"(samples, {lattice.total_sites})")
        if not self.direct:
            rows = rhs.reshape(len(rhs), -1)
            return np.stack([self._krylov(row, s, len(rows)) for s, row in enumerate(rows)])
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            if not transformed:
                rhs = _forward(rhs.reshape(len(rhs), *lattice.shape), self._axes)
            out = _split_solve(rhs, lattice.shape, self._axes, self._factor).reshape(len(rhs), -1)
        if not np.all(np.isfinite(out)):
            raise SolverError("direct solve produced non-finite values")
        return out

    def _krylov(self, rhs: np.ndarray, column: int, columns: int) -> np.ndarray:
        # looked up at call time, so that a wrapper bound to the module attribute sees every run
        from scipy.sparse.linalg import bicgstab

        norm = float(np.linalg.norm(rhs))
        if norm == 0.0:
            return np.zeros_like(rhs)
        mat = self._matrix
        out, info = bicgstab(mat, rhs, rtol=KRYLOV_TOL, atol=0.0,
                             maxiter=KRYLOV_MAX_ITER, M=self._precond)
        residual = float(np.linalg.norm(mat @ out - rhs)) / norm
        if info != 0 or not np.isfinite(residual) or residual > 10 * KRYLOV_TOL:
            where = f" in column {column}" if columns > 1 else ""
            raise SolverError(f"iterative solver failed{where} (info={info}) with relative "
                              f"residual {residual:.3e}")
        return out


def _forward(block: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """The real FFT over the lattice `axes` of a (samples, *shape) block; the
    block itself over no axis."""
    return rfftn(block, axes=tuple(k + 1 for k in axes)) if axes else block


def _split_solve(modes: np.ndarray, shape: tuple[int, ...], axes: tuple[int, ...],
                 factor) -> np.ndarray:
    """Solve for every sample of a (samples, *shape) block with a system split
    by a real FFT over the lattice `axes`, from the block's transform `modes`
    (_forward): each mode's solve and the inverse FFT.  Over every axis each
    block is one site and factor is the symbol, which the modes are divided by;
    otherwise factor is the SuperLU factorization of every mode's block, in the
    C order of the spectrum."""
    if len(axes) == len(shape):
        modes = modes / factor
    else:
        modes = factor.solve(modes.reshape(len(modes), -1).T).T.reshape(modes.shape)
    if not axes:
        return modes
    return irfftn(modes, s=[shape[k] for k in axes], axes=tuple(k + 1 for k in axes))


def _mode_symbols(op: StencilOperator, axes: tuple[int, ...]) -> tuple[np.ndarray, list[Lam]]:
    """The entries of op's per-mode blocks after a real FFT over `axes`.

    The offsets are grouped by their components off `axes` (shifts, zero on
    `axes`).  At each site x of the other axes, group g has the kernel
    K[x, g, -lam_axes mod n] = the sum over its lam of the mean over `axes`
    of coef(lam, x), so rfftn over `axes` gives the entry of mode m's block in
    row x, column x + shift_g: the sum of coef(lam, x) exp(2 pi i m.lam / n).
    The mean takes the coefficient itself along every axis op.compact stores
    once and averages over the sites only along the axes it stores at size n,
    so the entries of an operator that does not vary along `axes` are exact.
    Over every axis there is one group, the zero shift, and its entries are
    the symbol of op's x-average; over no axis each offset is its own group
    and the entries are op's coefficients, real and untransformed.  Returns
    the entries, (*mode shape, groups) with the modes on `axes` and the sites
    on the other axes (one site along an axis op.compact stores once, so the
    mass's entries span the modes on `axes` alone), and the shifts.
    """
    lattice = op.lattice
    n, d = lattice.n, lattice.d
    lams = np.asarray(op.offsets)
    coef = op.compact
    averaged = [k for k in axes if coef.shape[k] > 1]
    means = np.moveaxis(coef, averaged, range(len(averaged)))
    means = means.reshape(n ** len(averaged), *means.shape[len(averaged):]).mean(axis=0)
    means = means.reshape(*(coef.shape[k] for k in range(d) if k not in axes), len(lams))
    off = [tuple(0 if k in axes else c for k, c in enumerate(lam)) for lam in op.offsets]
    shifts = list(dict.fromkeys(off))
    group = np.array([shifts.index(s) for s in off])
    varying = [k for k in range(d) if k not in axes]
    # the other axes first, each of size 1 where op.compact stores it once, then `axes`
    kernel = np.zeros((*means.shape[:-1], *(n,) * len(axes), len(shifts)))
    np.add.at(kernel, (..., *(-lams[:, list(axes)] % n).T, group), means)
    kernel = np.moveaxis(kernel, range(len(varying)), varying)
    return (rfftn(kernel, axes=axes) if axes else kernel), shifts


def _columns(shape: tuple[int, ...], offsets: tuple[Lam, ...]) -> tuple[np.ndarray, np.ndarray]:
    """CSR indices and indptr of a periodic stencil on a grid of `shape`: row x
    holds the columns of x + lam, one per offset in offset order.  The columns
    are one (*shape, G) array, the broadcast sum over the axes k of
    ((i + lam_k) mod n_k) times the stride of axis k."""
    d, G = len(shape), len(offsets)
    nnz = math.prod(shape) * G
    dtype = np.int32 if nnz < 2**31 else np.int64
    indices = np.zeros((*shape, G), dtype=dtype)
    for k, (n, lam) in enumerate(zip(shape, np.asarray(offsets).T)):
        axis = (np.arange(n)[:, None] + lam) % n * math.prod(shape[k + 1:])
        indices += axis.reshape((1,) * k + (n,) + (1,) * (d - 1 - k) + (G,)).astype(dtype)
    return indices.reshape(-1), np.arange(0, nnz + 1, G, dtype=dtype)


def _csr(entries: np.ndarray, offsets: tuple[Lam, ...]) -> scipy.sparse.csr_matrix:
    """The CSR matrix of a periodic stencil with (*shape, G) entries, in C-order
    flat indexing of `shape`: row x holds entries[x], one per offset in offset
    order, at the columns of x + lam (_columns).  BiCGStab's matrix and
    LinearSolver's per-mode blocks are built here."""
    indices, indptr = _columns(entries.shape[:-1], offsets)
    total = len(indptr) - 1
    return scipy.sparse.csr_matrix((entries.reshape(-1), indices, indptr), shape=(total, total))


def _mode_blocks(op: StencilOperator, axes: tuple[int, ...]) -> scipy.sparse.csc_matrix:
    """Every mode's block of op after a real FFT over `axes`, as one CSC
    matrix in the C order of the (*mode shape) spectrum, complex unless
    `axes` is empty; row x holds the columns of x + shift_g, periodic on the
    spectrum's grid, by the CSR rule of BiCGStab's matrix (_csr)."""
    entries, shifts = _mode_symbols(op, axes)
    return _csr(entries, shifts).tocsc()


def _max_abs(values: np.ndarray) -> float:
    """max |values| from the maximum and the minimum, without an |values| copy."""
    return max(float(values.max()), -float(values.min()))


def implicit_system(assembled: AssembledProblem, t: float, dt: float) -> StencilOperator:
    """The implicit step operator mass - dt * drift(t).

    Raises SolverError when an entry overflows, or when its entries cancel to
    rounding level against the terms that formed it, e.g. c = 1/dt with no
    diffusion.
    """
    mass = assembled.mass
    drift = assembled.drift(t)
    with np.errstate(over="ignore"):
        system = mass.scaled_add(1.0, drift, -dt)
    if not np.all(np.isfinite(system.compact)):
        raise SolverError(f"mass - dt * drift overflows at dt = {dt:.3e}")
    scale = _max_abs(mass.compact) + dt * _max_abs(drift.compact)
    size = _max_abs(system.compact)
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
    samples share one implicit system, built once and kept by `assembled`
    for every later step with this dt unless the drift references t.  The
    system counts as reused for LinearSolver when it is kept or u holds more
    than one sample.

    The right-hand side is formed in Fourier modes over the axes
    LinearSolver splits the system over, none when it does not split, and
    solved as transformed: the mass term is the mass's per-mode entries
    (_mode_symbols over the split axes), which `assembled` keeps in one memo
    entry with their shifted sum (assembly.ShiftedSum), applied by that sum
    to the transform of U_n as StencilOperator.products applies a site
    stencil; f_h enters by its transform, which `assembled` keeps under its
    rule (rebuilt at every step when f references t), and the noise terms
    are formed on the sites from their compact coefficients, summed and
    transformed once.
    Every product is a shifted sum on views of one wrapped block: over no
    axis the noise products read the block the mass term wrapped, and on
    a split lattice U_n is wrapped once for all of them.  So a noise-free
    step with a kept f on a split lattice does one forward and one inverse
    FFT, and no step builds a CSR matrix outside BiCGStab.
    """
    t_next = t_n + dt
    problem = assembled.problem
    asts = assembled.drift_asts
    # factored before the right-hand side is formed: the other order raised the
    # peak RSS of a tensor(2) study with a 256^2 reference by 5 %
    solver = assembled.memo(("system", dt), lambda: LinearSolver(
        implicit_system(assembled, t_next, dt),
        reused=assembled.keeps(asts) or len(u.values) > 1), asts)
    axes = solver._axes

    def mass_modes():
        entries, shifts = _mode_symbols(assembled.mass, axes)
        return (shifted_sum(assembled.lattice.n, tuple(shifts)),
                [np.ascontiguousarray(entries[..., g]) for g in range(len(shifts))])

    shifts, entries = assembled.memo(("mass modes", axes), mass_modes)
    f = problem.f
    # an overflow leaves a non-finite entry, which the solve reports
    with np.errstate(over="ignore", invalid="ignore"):
        # over no axis the mass's wrapped block is U_n's, which every noise
        # operator (the mass's footprint, so its shifts) reads; on a split
        # lattice it is the transform's, and the first noise term wraps U_n
        wrapped = shifts.wrap(_forward(u.values, axes))
        modes = shifts(entries, wrapped)
        if axes:
            shifts = wrapped = None
        if f is not None:
            modes += dt * assembled.memo(("f modes", axes), lambda: _forward(
                mollify_data(f, assembled.tensors, assembled.lattice, t_next).values, axes), [f])
        noise = None
        for rho in problem.active_rhos() if increments is not None else ():
            dw = increments[rho - 1].reshape(-1, *[1] * assembled.lattice.d)
            if not np.any(dw):
                continue
            op = assembled.noise(t_n, rho)
            if op.shifts is not shifts:
                wrapped, shifts = op.shifts.wrap(u.values), op.shifts
            term = dw * (op.products(wrapped) + assembled.g_h(t_n, rho).values)
            noise = term if noise is None else np.add(noise, term, out=noise)
        if noise is not None:
            modes += _forward(noise, axes)
    return GridFunction(u.lattice, solver.solve(modes, transformed=True).reshape(u.values.shape))


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
    applies each explicit operator to the block once (from its compact
    coefficients, the mass by its per-mode entries, so never by a CSR
    matrix) and solves one system shared by all samples
    (one per step when the drift depends on t; otherwise one per lattice
    and dt, which `assembled` keeps for later calls, as it keeps U_0, the
    FFT solve of the mass for phi_h).

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
        try:
            solver = LinearSolver(assembled.mass)
        except SolverError as exc:  # the mass is constant: its symbol vanishes at a mode
            raise SolverError(f"mass is {exc}") from exc
        return GridFunction(lattice, solver.solve(phi.reshape(1, -1)).reshape(phi.shape))

    u0 = assembled.memo("u0", initial)
    u = GridFunction(lattice, np.repeat(u0.values, 1 if noises is None else len(noises), axis=0))
    norms = norms_0h(lattice, u.values)
    if not np.all(np.isfinite(norms)):  # before any step, so that no step is blamed
        raise IntegrationError("non-finite initial state or |U|_0h")
    sup = float(norms.max())
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
