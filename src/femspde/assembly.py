"""Assembly of the lattice operators and mollified data fields.

The scheme replaces the weak form on the shift-invariant element space by an
equation for the coordinate field U on the lattice.  Three site-varying
stencil operators appear, all with footprint Gamma:

    mass      coefficient R_lam at every site
    drift     (1/h^2) A(lam, x) + (1/h) B(lam, x) + C(lam, x)
    noise     (1/h)   S(lam, x) + N(lam, x)         (one per noise index)

where A integrates the diffusion matrix against products of first
derivatives of the element, B and S integrate the drift/noise vector fields
against D psi_lam times psi, and C and N integrate the zero-order
coefficients against psi_lam psi.  The integrals run over the intersection
sub-cells of the reference tensors' overlap tables, regrouped by lattice cell
in the tensors' CellQuadrature (ReferenceTensors.quad, femspde.tensors), so
every coefficient is needed only at the cell points x_c + h zeta with zeta in
[0, 1)^d, and every stencil coefficient is a sum of cell-local products
scattered by lattice shifts, one product per (cell shift, offset) pair that
the quadrature stores.  The cell points are passed to the evaluator as
one coordinate array per axis, so each coefficient is computed only along the
lattice axes it references (a constant once, cos(x1) on n * P values), and one
that references x1 in slabs of axis-0 cells, so no lattice-wide array of
quadrature values is formed.  The cell-local products and their per-shift
sums are formed only over the axes that some coefficient spans, and that
(*span, G) array is the operator's data.  This module does only that lattice
work; the quadrature and its degree belong to the tensors.

Each operator keeps its coefficients over the axes they span
(StencilOperator.compact): the mass is its G coefficients, and a drift that
varies along x1 only is n * G values.  It is applied from them by the
shifted sum (ShiftedSum): one periodically wrapped copy of U, then one
product per offset on its views, added in offset order, which is the row
sum of its CSR matrix bit for bit.  The CSR matrix (StencilOperator.matrix),
whose rows hold the G coefficients of one site in offset order, is built
only for BiCGStab (femspde.integrator), where the matvec repeats and CSR
stays 2-3x faster than views; the solver's per-mode blocks take their
columns from the same rule (_columns) and their entries from the compact
coefficients, and the step applies the mass by its per-mode stencil,
another shifted sum.

Data fields are mollified by the scaled element: phi_h(x) is the integral of
phi(x + h z) psi(z) dz, evaluated at the same cell points.

Here h is the lattice spacing, always positive.  The scheme is invariant
under h -> -h: substituting z -> -z maps each footprint shift to its
negative, and the element's symmetry preserves the even-order integrands
while flipping the odd-order ones together with their 1/h prefactors.  So
the error expansion holds only even powers of h, which the ratio-1/4
Richardson mixture relies on; tests pin the identity numerically.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.sparse import csr_matrix

from . import expr
from .elements import FiniteElement
from .lattice import GridFunction, TorusLattice
from .problem import Problem
from .tensors import CellQuadrature, ReferenceTensors

Lam = tuple[int, ...]


class ShiftedSum:
    """The periodic shifted sum sum_g entry_g V(x + shift_g) of a
    (samples, *shape) block V, with n entries along each axis a shift moves
    along.  wrap copies V once, extended periodically by the shifts' reach
    along those axes, so each shift is a view of the copy (views); __call__
    adds entry_g times view g in shift order, which for a stencil's offsets
    is its CSR row sum, bit for bit.  An entry broadcasts against the block,
    one value along any axis it does not vary along.  shifted_sum shares one
    instance per (n, shifts), so a block wrapped for one stencil serves every
    stencil with the same shifts.
    """

    __slots__ = ("wraps", "views")

    def __init__(self, n: int, shifts: tuple[Lam, ...]):
        reach = [max(abs(s[k]) for s in shifts) for k in range(len(shifts[0]))]
        self.wraps = [(k + 1, np.arange(-r, n + r)) for k, r in enumerate(reach) if r]
        self.views = [(slice(None), *(slice(r + c, r + c + n) if r else slice(None)
                                      for r, c in zip(reach, shift)))
                      for shift in shifts]

    def wrap(self, block: np.ndarray) -> np.ndarray:
        for axis, index in self.wraps:
            block = block.take(index, axis=axis, mode="wrap")
        return block

    def __call__(self, entries, wrapped: np.ndarray) -> np.ndarray:
        """sum_g entries[g] * V(x + shift_g) from V's wrapped block."""
        (entry, view), *rest = zip(entries, self.views)
        out = entry * wrapped[view]
        part = np.empty_like(out) if rest else None
        for entry, view in rest:
            out += np.multiply(entry, wrapped[view], out=part)
        return out


shifted_sum = functools.lru_cache(maxsize=64)(ShiftedSum)


class StencilOperator:
    """Site-varying periodic stencil: (op U)(x) = sum_lam coef(lam, x) U(x + h lam).

    The coefficients are stored only over the lattice axes they vary along:
    compact is one contiguous, read-only (*span, G) array whose axis k has
    n entries, or one entry that every site along axis k shares.  So the mass
    is its G coefficients alone, and a drift that varies along x1 only is
    (n, 1, ..., 1, G).  The constructor takes coefficients in (G, *span)
    layout, each span axis 1 or n.

    apply forms op U from compact by the shifted sum (shifts, ShiftedSum):
    one wrapped copy of U, then one product per offset on its views.  matrix
    is the operator's CSR matrix in C-order flat site indexing, built on
    first use and kept; only BiCGStab builds it (LinearSolver), where the
    matvec repeats and CSR is faster than views.  Row x holds the G entries
    coef(lam, x), one per offset in offset order, at the columns of the
    sites x + h lam (_columns).

    terms holds the (weight, operator) pairs a sum was formed from
    (scaled_add), and is empty for an assembled operator; LinearSolver judges
    a vanishing mode of a sum against them.
    """

    __slots__ = ("lattice", "offsets", "compact", "terms", "_entries", "_matrix")

    def __init__(self, lattice: TorusLattice, offsets: tuple[Lam, ...], coef: np.ndarray):
        offsets = tuple(tuple(int(c) for c in lam) for lam in offsets)
        coef = np.asarray(coef, dtype=float)
        if (not offsets or coef.shape[:1] != (len(offsets),) or coef.ndim != lattice.d + 1
                or any(size not in (1, lattice.n) for size in coef.shape[1:])):
            raise ValueError(f"coefficient array shape {coef.shape} does not match stencil")
        self.lattice = lattice
        self.offsets = offsets
        self.compact = np.ascontiguousarray(np.moveaxis(coef, 0, -1))
        self.compact.flags.writeable = False
        self._entries = tuple(np.moveaxis(self.compact, -1, 0))  # views, one per offset
        self.terms: tuple[tuple[float, StencilOperator], ...] = ()
        self._matrix = None

    @property
    def matrix(self) -> csr_matrix:
        """The CSR matrix; its data is compact itself when the span is the whole lattice."""
        if self._matrix is None:
            shape = self.lattice.shape
            data = np.ascontiguousarray(np.broadcast_to(self.compact, (*shape, len(self.offsets))))
            indices, indptr = _columns(shape, self.offsets)
            total = self.lattice.total_sites
            self._matrix = csr_matrix((data.reshape(-1), indices, indptr), shape=(total, total))
        return self._matrix

    @property
    def shifts(self) -> ShiftedSum:
        """The shifted sum of the offsets, shared by every stencil with this footprint."""
        return shifted_sum(self.lattice.n, self.offsets)

    def products(self, wrapped: np.ndarray) -> np.ndarray:
        """op U for every sample, from U's block wrapped by shifts."""
        return self.shifts(self._entries, wrapped)

    def apply(self, u: GridFunction) -> GridFunction:
        """op U for every sample of the block; each site sums over the offsets in order."""
        if u.lattice != self.lattice:
            raise ValueError("stencil and grid function live on different lattices")
        return GridFunction(self.lattice, self.products(self.shifts.wrap(u.values)))

    def scaled_add(self, alpha: float, other: "StencilOperator", beta: float) -> "StencilOperator":
        """Return alpha*self + beta*other; both must have the same lattice and
        footprint.  The sum spans the axes either operand spans."""
        if other.lattice != self.lattice or other.offsets != self.offsets:
            raise ValueError("cannot combine stencils on different lattices or footprints")
        data = alpha * self.compact + beta * other.compact
        out = StencilOperator(self.lattice, self.offsets, np.moveaxis(data, -1, 0))
        out.terms = ((alpha, self), (beta, other))
        return out


def _columns(shape: tuple[int, ...], offsets: tuple[Lam, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR indices and indptr of a periodic stencil on a grid of `shape`:
    row x holds the columns of x + lam, one per offset in offset order.  The
    columns are one (*shape, G) array, the broadcast sum over the axes k of
    ((i + lam_k) mod n_k) times the stride of axis k.  Both are views of one
    buffer, the columns and then the row pointers.  StencilOperator.matrix and
    LinearSolver's per-mode blocks take theirs from here."""
    d, G = len(shape), len(offsets)
    nnz = math.prod(shape) * G
    dtype = np.int32 if nnz < 2**31 else np.int64
    buffer = np.zeros(nnz + math.prod(shape) + 1, dtype=dtype)
    indices = buffer[:nnz].reshape(*shape, G)
    for k, (n, lam) in enumerate(zip(shape, np.asarray(offsets).T)):
        axis = (np.arange(n)[:, None] + lam) % n * math.prod(shape[k + 1:])
        indices += axis.reshape((1,) * k + (n,) + (1,) * (d - 1 - k) + (G,)).astype(dtype)
    buffer[nnz:] = np.arange(0, nnz + 1, G, dtype=dtype)
    buffer.flags.writeable = False
    return buffer[:nnz], buffer[nnz:]


# Quadrature values that _assemble_cells evaluates and contracts at once: an
# expression that references x1 runs over slabs of axis-0 cells holding at most
# this many values.  mollify_data of sin(x1)*cos(x2) on a 256^2 tensor(2) lattice
# (25 points per cell, so 10-row slabs; 2-vCPU x86 host, one BLAS thread) peaks at
# 3.1 MiB of numpy allocations against 16.6 MiB on the whole array.  Its first call
# in a fresh process takes 9-15 ms against 16-20 ms on the whole array, a repeated
# call 9.2 ms against 6.6 ms; 2^18 values peak at 4.4 MiB, and 2^12 take 39 ms.
SLAB_VALUES = 2**16


def _assemble_cells(quad: CellQuadrature, lattice: TorusLattice, t: float, terms,
                    pairs: np.ndarray) -> np.ndarray:
    """Stencil coefficients sum_terms integral(coefficient * weight), a (G, *span)
    view of a contiguous (*span, G) array, the layout of StencilOperator.compact,
    with one entry per offset index of `pairs`.

    `terms` pairs coefficient ASTs with (P, C) weight columns, column c for the
    (cell shift, offset) pair pairs[c] (quad.pairs or quad.mollifier_pairs).  The
    cell points x_c + h zeta are given as one coordinate array per axis: x_k holds
    the axis coordinates along lattice axis k (size 1 on the others) plus
    h zeta[:, k] on a trailing P axis.  Each distinct AST is evaluated on
    those arrays, so its values span only the axes it references (a constant
    is one value, cos(x1) is n * P), and the stencil spans the axes that some
    AST references: n along those, 1 along the others.  The cell-local products
    V @ W, summed over the terms in order, give one value per column; shift by
    shift (pairs is k-major), the columns of cell shift k are gathered at
    once, one take of the cells (i + k) mod n along each spanned axis, onto
    the sites whose overlap tables reach into them, and added into their
    offsets.  Along an axis that no term references every value is equal and
    the gather is the identity, so each entry of the (*span, G) sum holds the
    additions, in the order, of a full-lattice sum.  An AST that references
    x1 is evaluated and contracted one slab of axis-0 cells at a time, at most
    SLAB_VALUES quadrature values, with its subtrees that do not reference x1
    evaluated once before the first slab (expr.eval_free); the others are
    contracted once and added to every slab.
    """
    combined: dict[int, tuple[expr.Ast, np.ndarray]] = {}  # mirrored entries share one AST
    for ast, weights in terms:
        prev = combined.get(id(ast))
        combined[id(ast)] = (ast, weights if prev is None else prev[1] + weights)
    n_zeta, n_cols, width = len(quad.zeta), len(pairs), int(pairs[:, 1].max()) + 1
    d, h, n = lattice.d, lattice.h, lattice.n
    axis = lattice.axis_coords()
    x = tuple(
        axis.reshape(tuple(-1 if j == k else 1 for j in range(d)) + (1,)) + h * quad.zeta[:, k]
        for k in range(d)
    )

    def contract(vals, w):
        cells = vals.shape[:-1]
        vals = np.broadcast_to(vals, (*cells, n_zeta)).reshape(-1, n_zeta)
        return (vals @ w).reshape(*cells, n_cols)

    referenced = set()
    # (ast, its x1-free values, W) for an AST that references x1, else (None, None, V @ W)
    slabbed = []
    for ast, w in combined.values():
        axes = expr.axes(ast)
        referenced |= axes
        if 1 in axes:
            slabbed.append((ast, expr.eval_free(ast, x, t, 1), w))
        else:
            slabbed.append((None, None, contract(expr.eval_many(ast, x, t), w)))
    span = tuple(n if k + 1 in referenced else 1 for k in range(d))
    local = np.zeros((*span, n_cols))
    rows = max(1, SLAB_VALUES // (n_zeta * math.prod(span[1:])))
    for start in range(0, span[0], rows):
        part = local[start:start + rows]
        x_slab = (x[0][start:start + rows], *x[1:])
        for ast, known, w in slabbed:
            part += w if ast is None else contract(expr.eval_many(ast, x_slab, t, known), w)
    out = np.zeros((*span, width))
    ks, first = np.unique(pairs[:, 0], return_index=True)
    for k, start, stop in zip(ks, first, [*first[1:], n_cols]):
        block = local[..., start:stop]
        for axis, (m, c) in enumerate(zip(span, quad.shifts[k])):
            if c % m:
                block = block.take((np.arange(m) + c) % m, axis=axis)
        for j, g in enumerate(pairs[start:stop, 1]):  # no view of block outlives the shift
            out[..., g] += block[..., j]
    return np.moveaxis(out, -1, 0)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def assemble_mass(tensors: ReferenceTensors, lattice: TorusLattice) -> StencilOperator:
    """Mass stencil: constant coefficient R_lam at every site, stored once."""
    return StencilOperator(lattice, tensors.gamma, tensors.R.reshape(-1, *(1,) * lattice.d))


def assemble_drift(
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float,
) -> StencilOperator:
    """Drift stencil (1/h^2) A + (1/h) B + C at time t."""
    h = lattice.h
    quad = tensors.quad
    terms = [(ast, quad.diffusion[i - 1, j - 1] / h**2) for (i, j), ast in problem.a.items()]
    terms += [(ast, quad.transport[i - 1] / h) for i, ast in problem.b.items()]
    if problem.c is not None:
        terms.append((problem.c, quad.reaction))
    coef = _assemble_cells(quad, lattice, t, terms, quad.pairs)
    return StencilOperator(lattice, quad.offsets, coef)


def assemble_noise(
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float,
    rho: int,
) -> StencilOperator:
    """Noise stencil (1/h) S + N for one Wiener index rho at time t."""
    h = lattice.h
    quad = tensors.quad
    terms = [(ast, quad.transport[i - 1] / h) for (i, r), ast in problem.sigma.items() if r == rho]
    if rho in problem.nu:
        terms.append((problem.nu[rho], quad.reaction))
    coef = _assemble_cells(quad, lattice, t, terms, quad.pairs)
    return StencilOperator(lattice, quad.offsets, coef)


def mollify_data(
    field: expr.Ast,
    tensors: ReferenceTensors,
    lattice: TorusLattice,
    t: float = 0.0,
) -> GridFunction:
    """Smooth a field with the scaled element: integral of field(x + h z) psi(z) dz,
    as a one-sample GridFunction."""
    quad = tensors.quad
    values = _assemble_cells(quad, lattice, t, [(field, quad.mollifier)], quad.mollifier_pairs)
    return GridFunction(lattice, np.broadcast_to(values[0], lattice.shape).copy())


# ---------------------------------------------------------------------------
# assembled problem with caching
# ---------------------------------------------------------------------------


class AssembledProblem:
    """Reference tensors + coefficients + lattice, with operator assembly and caching.

    Everything here depends on the lattice and not on the noise, so one
    instance serves every sample and every integrate call on its lattice.
    One rule governs reuse: a result is built once per key and then kept,
    unless an expression it is built from references t, in which case it
    is rebuilt at every requested time (keeps is that rule); the integrator
    keeps U_0, the implicit system's solver, the mass's per-mode stencil and
    f_h's transform (over the axes the solver splits over, possibly none)
    here under it.  The operators and the mollified data integrate with the
    tensors' cell quadrature; the data are one-sample GridFunctions.  The
    problem, the tensors and the lattice must have one dimension (a
    ValueError names all three otherwise).  The element argument is not read
    (the tensors' tables hold all the assembly needs); it keeps the
    positional signature that callers use.
    """

    def __init__(
        self,
        element: FiniteElement,
        tensors: ReferenceTensors,
        problem: Problem,
        lattice: TorusLattice,
    ):
        if not problem.d == tensors.d == lattice.d:
            raise ValueError(f"dimension mismatch: problem.d = {problem.d}, tensors.d = "
                             f"{tensors.d}, lattice.d = {lattice.d}")
        self.tensors = tensors
        self.problem = problem
        self.lattice = lattice
        self.mass = assemble_mass(tensors, lattice)
        self._memo: dict = {}

    @staticmethod
    def keeps(asts) -> bool:
        """Whether a result built from asts is kept: no AST in asts references t."""
        return not any(ast is not None and expr.depends_on_t(ast) for ast in asts)

    def memo(self, key, build, asts=()):
        """build(), kept under key when keeps(asts)."""
        if key in self._memo:
            return self._memo[key]
        out = build()
        if self.keeps(asts):
            self._memo[key] = out
        return out

    def _mollify(self, ast: expr.Ast | None, t: float) -> GridFunction:
        if ast is None:
            return GridFunction(self.lattice, np.zeros(self.lattice.shape))
        return mollify_data(ast, self.tensors, self.lattice, t)

    @property
    def drift_asts(self) -> list:
        """The drift's expressions; results built from the drift are kept under them."""
        p = self.problem
        return [*p.a.values(), *p.b.values(), p.c]

    def drift(self, t: float) -> StencilOperator:
        return self.memo("drift", lambda: assemble_drift(
            self.tensors, self.problem, self.lattice, t
        ), self.drift_asts)

    def noise(self, t: float, rho: int) -> StencilOperator:
        p = self.problem
        asts = [ast for (_, r), ast in p.sigma.items() if r == rho] + [p.nu.get(rho)]
        return self.memo(("noise", rho), lambda: assemble_noise(
            self.tensors, p, self.lattice, t, rho
        ), asts)

    def g_h(self, t: float, rho: int) -> GridFunction:
        g = self.problem.g.get(rho)
        return self.memo(("g", rho), lambda: self._mollify(g, t), [g])

    def phi_h(self) -> GridFunction:
        """Mollified initial data; phi is read at t = 0, so it is always kept."""
        return self.memo("phi", lambda: self._mollify(self.problem.phi, 0.0))
