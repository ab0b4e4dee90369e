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
each coefficient is evaluated once per cell, at x_c + h zeta with zeta in
[0, 1)^d, and every stencil coefficient is a sum of cell-local products
scattered by lattice shifts.  This module does only that lattice work; the
quadrature and its degree belong to the tensors.

Data fields are mollified by the scaled element: phi_h(x) is the integral of
phi(x + h z) psi(z) dz, evaluated at the same cell points.

Assembling with -h yields the same operator as with +h: substituting
z -> -z maps each footprint shift to its negative, and the element's
symmetry preserves the even-order integrands while flipping the odd-order
ones together with their 1/h prefactors.  Assembly therefore normalizes h
to |h| up front; tests pin the underlying identity numerically.
"""

from __future__ import annotations

import numpy as np

from . import expr
from .elements import FiniteElement
from .lattice import GridFunction, TorusLattice
from .problem import Problem
from .tensors import CellQuadrature, ReferenceTensors, compute_reference_tensors

Lam = tuple[int, ...]


class StencilOperator:
    """Site-varying periodic stencil: (op U)(x) = sum_lam coef(lam, x) U(x + h lam)."""

    __slots__ = ("lattice", "offsets", "coef", "t")

    def __init__(
        self,
        lattice: TorusLattice,
        offsets: tuple[Lam, ...],
        coef: np.ndarray,
        t: float | None = None,
    ):
        coef = np.asarray(coef, dtype=float)
        if coef.shape != (len(offsets), *lattice.shape):
            raise ValueError(f"coefficient array shape {coef.shape} does not match stencil")
        self.lattice = lattice
        self.offsets = tuple(tuple(int(c) for c in lam) for lam in offsets)
        self.coef = coef
        self.t = t

    def apply(self, u: GridFunction) -> GridFunction:
        if u.lattice != self.lattice:
            raise ValueError("stencil and grid function live on different lattices")
        out = np.zeros(self.lattice.shape)
        axes = tuple(range(self.lattice.d))
        for k, lam in enumerate(self.offsets):
            shifted = np.roll(u.values, shift=tuple(-c for c in lam), axis=axes)
            out += self.coef[k] * shifted
        return GridFunction(self.lattice, out)

    def scaled_add(self, alpha: float, other: "StencilOperator", beta: float) -> "StencilOperator":
        """Return alpha*self + beta*other on the union of footprints."""
        if other.lattice != self.lattice:
            raise ValueError("cannot combine stencils on different lattices")
        offsets = sorted(set(self.offsets) | set(other.offsets))
        coef = np.zeros((len(offsets), *self.lattice.shape))
        index = {lam: k for k, lam in enumerate(offsets)}
        for k, lam in enumerate(self.offsets):
            coef[index[lam]] += alpha * self.coef[k]
        for k, lam in enumerate(other.offsets):
            coef[index[lam]] += beta * other.coef[k]
        return StencilOperator(self.lattice, tuple(offsets), coef, t=self.t)

    def to_dense(self) -> np.ndarray:
        """Explicit matrix in C-order flat site indexing: the dense oracle for tests
        (small lattices only; solvers use to_csr)."""
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

    def to_csr(self):
        from scipy.sparse import csr_matrix

        n = self.lattice.n
        shape = self.lattice.shape
        total = self.lattice.total_sites
        idx = self.lattice.multi_indices()
        rows = np.tile(np.arange(total), len(self.offsets))
        cols = np.concatenate(
            [
                np.ravel_multi_index(((idx + np.asarray(lam)) % n).T, shape)
                for lam in self.offsets
            ]
        )
        data = np.concatenate([self.coef[k].reshape(-1) for k in range(len(self.offsets))])
        return csr_matrix((data, (rows, cols)), shape=(total, total))


def _normalize_h(lattice: TorusLattice, h: float | None) -> float:
    if h is None:
        return lattice.h
    mag = abs(float(h))
    if abs(mag - lattice.h) > 1e-12 * lattice.h:
        raise ValueError(f"|h| = {mag} does not match the lattice spacing {lattice.h}")
    return mag


def _assemble_cells(
    quad: CellQuadrature, lattice: TorusLattice, h: float, t: float, terms
) -> np.ndarray:
    """Stencil coefficients sum_terms integral(coefficient * weight), shaped (G, *lattice.shape).

    `terms` pairs coefficient ASTs with (K, P, G) weight arrays.  Each
    distinct AST is evaluated once, at x_c + h zeta for every lattice cell c;
    shift k contributes the cell-local product V @ W_k, rolled by -k onto
    the sites whose overlap tables reach into cell c.
    """
    combined: dict[int, tuple[expr.Ast, np.ndarray]] = {}  # mirrored entries share one AST
    for ast, weights in terms:
        prev = combined.get(id(ast))
        combined[id(ast)] = (ast, weights if prev is None else prev[1] + weights)
    if not combined:
        return np.zeros((len(quad.offsets), *lattice.shape))
    n_shifts, n_zeta, width = terms[0][1].shape
    n_cells = lattice.total_sites
    pts = (lattice.coords()[:, None, :] + h * quad.zeta[None, :, :]).reshape(-1, lattice.d)
    local = np.zeros((n_cells, n_shifts * width))
    for ast, weights in combined.values():
        vals = expr.eval_many(ast, pts, t).reshape(n_cells, n_zeta)
        local += vals @ weights.transpose(1, 0, 2).reshape(n_zeta, n_shifts * width)
    local = local.reshape(*lattice.shape, n_shifts, width)
    out = np.zeros((*lattice.shape, width))
    axes = tuple(range(lattice.d))
    for k, shift in enumerate(quad.shifts):
        out += np.roll(local[..., k, :], tuple(-c for c in shift), axis=axes)
    return np.ascontiguousarray(np.moveaxis(out, -1, 0))


# ---------------------------------------------------------------------------
# operator assembly
# ---------------------------------------------------------------------------


def assemble_mass(
    element: FiniteElement, tensors: ReferenceTensors, lattice: TorusLattice
) -> StencilOperator:
    """Mass stencil: constant coefficient R_lam at every site."""
    offsets = tensors.gamma
    coef = np.empty((len(offsets), *lattice.shape))
    for k, lam in enumerate(offsets):
        coef[k].fill(tensors.r(lam))
    return StencilOperator(lattice, offsets, coef)


def assemble_drift(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float,
    h: float | None = None,
) -> StencilOperator:
    """Drift stencil (1/h^2) A + (1/h) B + C at time t."""
    h = _normalize_h(lattice, h)
    quad = tensors.quad
    terms = [(ast, quad.diffusion[i - 1, j - 1] / h**2) for (i, j), ast in problem.a.items()]
    terms += [(ast, quad.transport[i - 1] / h) for i, ast in problem.b.items()]
    if problem.c is not None:
        terms.append((problem.c, quad.reaction))
    coef = _assemble_cells(quad, lattice, h, t, terms)
    return StencilOperator(lattice, quad.offsets, coef, t=t)


def assemble_noise(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float,
    rho: int,
    h: float | None = None,
) -> StencilOperator:
    """Noise stencil (1/h) S + N for one Wiener index rho at time t."""
    h = _normalize_h(lattice, h)
    quad = tensors.quad
    terms = [(ast, quad.transport[i - 1] / h) for (i, r), ast in problem.sigma.items() if r == rho]
    if rho in problem.nu:
        terms.append((problem.nu[rho], quad.reaction))
    coef = _assemble_cells(quad, lattice, h, t, terms)
    return StencilOperator(lattice, quad.offsets, coef, t=t)


def mollify_data(
    field: expr.Ast,
    tensors: ReferenceTensors,
    lattice: TorusLattice,
    t: float = 0.0,
    h: float | None = None,
) -> GridFunction:
    """Smooth a field with the scaled element: integral of field(x + h z) psi(z) dz."""
    h = _normalize_h(lattice, h)
    quad = tensors.quad
    values = _assemble_cells(quad, lattice, h, t, [(field, quad.mollifier)])[0]
    return GridFunction(lattice, values)


def quadrature_error_estimate(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float = 0.0,
) -> float:
    """Order-doubling diagnostic: max drift-coefficient change when the Gauss
    degree is doubled.  Zero up to roundoff for polynomial-exact integrands;
    otherwise an estimate of the coefficient quadrature error."""
    base = assemble_drift(element, tensors, problem, lattice, t)
    doubled = compute_reference_tensors(element, 2 * tensors.quad_degree)
    fine = assemble_drift(element, doubled, problem, lattice, t)
    return float(np.max(np.abs(base.coef - fine.coef)))


# ---------------------------------------------------------------------------
# assembled problem with caching
# ---------------------------------------------------------------------------


class AssembledProblem:
    """Element + coefficients + lattice, with operator assembly and caching.

    Everything here depends on the lattice and not on the noise, so one
    instance serves every sample and every integrate call on its lattice.
    One rule governs reuse: a result is built once per key and then kept,
    unless an expression it is built from references t, in which case it
    is rebuilt at every requested time.  The operators and the mollified
    data integrate with the tensors' cell quadrature.
    """

    def __init__(
        self,
        element: FiniteElement,
        tensors: ReferenceTensors,
        problem: Problem,
        lattice: TorusLattice,
        h: float | None = None,
    ):
        self.element = element
        self.tensors = tensors
        self.problem = problem
        self.lattice = lattice
        self.h = _normalize_h(lattice, h)
        self.mass = assemble_mass(element, tensors, lattice)
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
            return GridFunction.zeros(self.lattice)
        return mollify_data(ast, self.tensors, self.lattice, t, self.h)

    def drift(self, t: float) -> StencilOperator:
        p = self.problem
        return self.memo("drift", lambda: assemble_drift(
            self.element, self.tensors, p, self.lattice, t, self.h
        ), [*p.a.values(), *p.b.values(), p.c])

    def noise(self, t: float, rho: int) -> StencilOperator:
        p = self.problem
        asts = [ast for (_, r), ast in p.sigma.items() if r == rho] + [p.nu.get(rho)]
        return self.memo(("noise", rho), lambda: assemble_noise(
            self.element, self.tensors, p, self.lattice, t, rho, self.h
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
