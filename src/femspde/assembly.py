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
scattered by lattice shifts.  The cell points are passed to the evaluator as
one coordinate array per axis, so each coefficient is computed only along the
lattice axes it references (a constant once, cos(x1) on n * P values) and its
cell-local products are formed over that reduced shape and broadcast over
the lattice.  This module does only that lattice work; the quadrature and its
degree belong to the tensors.

Each operator is stored once, as a scipy CSR matrix (StencilOperator.matrix)
whose rows hold the G coefficients of one site in offset order.  Applying
it, factoring it, the BiCGStab matvec and residual, and the solver's
preconditioner all use that matrix.  Operators with the same lattice and
footprint share one read-only column pattern, so each costs one data array
of sites x G values.

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

import numpy as np
from scipy.sparse import csr_matrix

from . import expr
from .elements import FiniteElement
from .lattice import GridFunction, TorusLattice
from .problem import Problem
from .tensors import CellQuadrature, ReferenceTensors

Lam = tuple[int, ...]


class StencilOperator:
    """Site-varying periodic stencil: (op U)(x) = sum_lam coef(lam, x) U(x + h lam).

    The operator is its CSR matrix in C-order flat site indexing.  Row x
    holds the G entries coef(lam, x), one per offset in offset order, at the
    columns of the sites x + h lam; so the data is the coefficient array in
    (sites, G) layout, and coef is a read-only (G, *lattice.shape) view of it.
    The column pattern depends only on the lattice and the offsets, and
    every operator with the same pair shares it read-only.
    """

    __slots__ = ("lattice", "offsets", "matrix")

    def __init__(self, lattice: TorusLattice, offsets: tuple[Lam, ...], coef: np.ndarray):
        offsets = tuple(tuple(int(c) for c in lam) for lam in offsets)
        coef = np.asarray(coef, dtype=float)
        if not offsets or coef.shape != (len(offsets), *lattice.shape):
            raise ValueError(f"coefficient array shape {coef.shape} does not match stencil")
        data = np.ascontiguousarray(np.moveaxis(coef, 0, -1)).reshape(-1)
        indices, indptr = _pattern(lattice, offsets)
        total = lattice.total_sites
        self.lattice = lattice
        self.offsets = offsets
        self.matrix = csr_matrix((data, indices, indptr), shape=(total, total))

    @property
    def coef(self) -> np.ndarray:
        view = np.moveaxis(self.matrix.data.reshape(*self.lattice.shape, -1), -1, 0)
        view.flags.writeable = False
        return view

    def apply(self, u: GridFunction) -> GridFunction:
        """op U for every sample of the block as one sparse product; each row
        sums over the offsets in order."""
        if u.lattice != self.lattice:
            raise ValueError("stencil and grid function live on different lattices")
        block = u.values
        out = (self.matrix @ block.reshape(len(block), -1).T).T.reshape(block.shape)
        return GridFunction(self.lattice, out)

    def scaled_add(self, alpha: float, other: "StencilOperator", beta: float) -> "StencilOperator":
        """Return alpha*self + beta*other; both must have the same lattice and footprint."""
        if other.lattice != self.lattice or other.offsets != self.offsets:
            raise ValueError("cannot combine stencils on different lattices or footprints")
        data = alpha * self.matrix.data
        data += beta * other.matrix.data
        coef = np.moveaxis(data.reshape(*self.lattice.shape, -1), -1, 0)
        return StencilOperator(self.lattice, self.offsets, coef)

    def to_dense(self) -> np.ndarray:
        """Explicit matrix in C-order flat site indexing: the dense oracle for tests
        (small lattices only); its columns come from the offsets, not from matrix."""
        n = self.lattice.n
        shape = self.lattice.shape
        total = self.lattice.total_sites
        idx = self.lattice.multi_indices()
        rows = np.arange(total)
        mat = np.zeros((total, total))
        for k, lam in enumerate(self.offsets):
            cols = np.ravel_multi_index(((idx + np.asarray(lam)) % n).T, shape)
            mat[rows, cols] += self.coef[k].reshape(-1)
        return mat


@functools.lru_cache(maxsize=8)
def _pattern(lattice: TorusLattice, offsets: tuple[Lam, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Read-only CSR indices and indptr of a stencil: row x holds the columns of
    x + h lam, one per offset in offset order."""
    idx = lattice.multi_indices()
    cols = [np.ravel_multi_index(((idx + lam) % lattice.n).T, lattice.shape) for lam in offsets]
    nnz = len(idx) * len(offsets)
    dtype = np.int32 if nnz < 2**31 else np.int64
    indices = np.stack(cols, axis=1).reshape(-1).astype(dtype)
    indptr = np.arange(0, nnz + 1, len(offsets), dtype=dtype)
    indices.flags.writeable = False
    indptr.flags.writeable = False
    return indices, indptr


def _assemble_cells(quad: CellQuadrature, lattice: TorusLattice, t: float, terms) -> np.ndarray:
    """Stencil coefficients sum_terms integral(coefficient * weight), a (G, *lattice.shape)
    view of a (*lattice.shape, G) array, the layout of the operator's CSR data.

    `terms` pairs coefficient ASTs with (K, P, G) weight arrays.  The cell
    points x_c + h zeta are given as one coordinate array per axis: x_k holds
    the axis coordinates along lattice axis k (size 1 on the others) plus
    h zeta[:, k] on a trailing P axis.  Each distinct AST is evaluated once on
    those arrays, so its values span only the axes it references (a constant
    is one value, cos(x1) is n * P), and shift k contributes the cell-local
    product V @ W_k over that reduced shape, broadcast over the lattice and
    rolled by -k onto the sites whose overlap tables reach into cell c.
    """
    combined: dict[int, tuple[expr.Ast, np.ndarray]] = {}  # mirrored entries share one AST
    for ast, weights in terms:
        prev = combined.get(id(ast))
        combined[id(ast)] = (ast, weights if prev is None else prev[1] + weights)
    if not combined:
        return np.moveaxis(np.zeros((*lattice.shape, len(quad.offsets))), -1, 0)
    n_shifts, n_zeta, width = terms[0][1].shape
    d, h = lattice.d, lattice.h
    axis = lattice.axis_coords()
    x = tuple(
        axis.reshape(tuple(-1 if j == k else 1 for j in range(d)) + (1,)) + h * quad.zeta[:, k]
        for k in range(d)
    )
    local = np.zeros((*lattice.shape, n_shifts * width))
    for ast, weights in combined.values():
        vals = expr.eval_many(ast, x, t)
        cells = vals.shape[:-1]
        vals = np.broadcast_to(vals, (*cells, n_zeta)).reshape(-1, n_zeta)
        w = weights.transpose(1, 0, 2).reshape(n_zeta, n_shifts * width)
        local += (vals @ w).reshape(*cells, n_shifts * width)
    local = local.reshape(*lattice.shape, n_shifts, width)
    out = np.zeros((*lattice.shape, width))
    axes = tuple(range(lattice.d))
    for k, shift in enumerate(quad.shifts):
        out += np.roll(local[..., k, :], tuple(-c for c in shift), axis=axes)
    return np.moveaxis(out, -1, 0)


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def assemble_mass(tensors: ReferenceTensors, lattice: TorusLattice) -> StencilOperator:
    """Mass stencil: constant coefficient R_lam at every site."""
    rows = np.tile(tensors.R, (*lattice.shape, 1))
    return StencilOperator(lattice, tensors.gamma, np.moveaxis(rows, -1, 0))


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
    coef = _assemble_cells(quad, lattice, t, terms)
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
    coef = _assemble_cells(quad, lattice, t, terms)
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
    values = _assemble_cells(quad, lattice, t, [(field, quad.mollifier)])[0]
    return GridFunction(lattice, values)


# ---------------------------------------------------------------------------
# assembled problem with caching
# ---------------------------------------------------------------------------


class AssembledProblem:
    """Reference tensors + coefficients + lattice, with operator assembly and caching.

    Everything here depends on the lattice and not on the noise, so one
    instance serves every sample and every integrate call on its lattice.
    One rule governs reuse: a result is built once per key and then kept,
    unless an expression it is built from references t, in which case it
    is rebuilt at every requested time; the integrator keeps U_0 and the
    factored implicit system here under the same rule.  The operators and
    the mollified data integrate with the tensors' cell quadrature; the data
    are one-sample GridFunctions.  The problem, the tensors and the lattice
    must have one dimension (a ValueError names all three otherwise).  The
    element argument is not read (the tensors carry their element); it keeps
    the positional signature that callers use.
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

    def memo(self, key, build, asts=()):
        """build(), kept under key when no AST in asts references t."""
        if key in self._memo:
            return self._memo[key]
        out = build()
        if not any(ast is not None and expr.depends_on_t(ast) for ast in asts):
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

    def f_h(self, t: float) -> GridFunction:
        f = self.problem.f
        return self.memo("f", lambda: self._mollify(f, t), [f])

    def g_h(self, t: float, rho: int) -> GridFunction:
        g = self.problem.g.get(rho)
        return self.memo(("g", rho), lambda: self._mollify(g, t), [g])

    def phi_h(self) -> GridFunction:
        """Mollified initial data; phi is read at t = 0, so it is always kept."""
        return self.memo("phi", lambda: self._mollify(self.problem.phi, 0.0))
