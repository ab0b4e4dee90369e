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
sub-cells shared with the reference tensors and evaluate coefficients at
quadrature points x + h z, wrapped periodically onto the torus.

Data fields are mollified by the scaled element: phi_h(x) is the integral of
phi(x + h z) psi(z) dz.

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
from .tensors import OverlapTable, ReferenceTensors, build_overlap_tables

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


# ---------------------------------------------------------------------------
# quadrature-point evaluation helpers
# ---------------------------------------------------------------------------


def _normalize_h(lattice: TorusLattice, h: float | None) -> float:
    if h is None:
        return lattice.h
    mag = abs(float(h))
    if abs(mag - lattice.h) > 1e-12 * lattice.h:
        raise ValueError(f"|h| = {mag} does not match the lattice spacing {lattice.h}")
    return mag


def _offset_points(lattice: TorusLattice, h: float, z: np.ndarray) -> np.ndarray:
    """Quadrature points x + h z for all sites x, wrapped onto the torus; (N*m, d)."""
    sites = lattice.coords()  # (N, d)
    pts = sites[:, None, :] + h * z[None, :, :]
    return np.mod(pts, lattice.L).reshape(-1, lattice.d)


def _eval_at(ast, pts: np.ndarray, t: float, n_sites: int) -> np.ndarray:
    vals = expr.eval_many(ast, pts, t) if isinstance(ast, expr.Ast) else ast(pts, t)
    return vals.reshape(n_sites, -1)


def _eval_at_offsets(ast, lattice: TorusLattice, h: float, z: np.ndarray, t: float) -> np.ndarray:
    """Evaluate a coefficient at x + h z for all sites x, wrapped onto the torus."""
    return _eval_at(ast, _offset_points(lattice, h, z), t, lattice.total_sites)


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
    tables: dict[Lam, OverlapTable] | None = None,
    h: float | None = None,
) -> StencilOperator:
    """Drift stencil (1/h^2) A + (1/h) B + C at time t."""
    h = _normalize_h(lattice, h)
    if tables is None:
        tables = build_overlap_tables(element, tensors.quad_degree)
    offsets = tuple(sorted(tables.keys()))
    coef = np.zeros((len(offsets), *lattice.shape))
    n_sites = lattice.total_sites
    for k, lam in enumerate(offsets):
        tab = tables[lam]
        w = tab.weights
        pts = _offset_points(lattice, h, tab.points)
        acc = np.zeros(n_sites)
        evaluated: dict[int, np.ndarray] = {}  # mirrored entries share one AST
        for (i, j), ast in problem.a.items():
            basis = w * tab.dpsi_l[j - 1] * (-tab.dpsi_0[i - 1])  # (m,)
            vals = evaluated.get(id(ast))
            if vals is None:
                vals = evaluated[id(ast)] = _eval_at(ast, pts, t, n_sites)
            acc += (vals @ basis) / h**2
        for i, ast in problem.b.items():
            basis = w * tab.dpsi_l[i - 1] * tab.psi_0
            acc += (_eval_at(ast, pts, t, n_sites) @ basis) / h
        if problem.c is not None:
            basis = w * tab.psi_l * tab.psi_0
            acc += _eval_at(problem.c, pts, t, n_sites) @ basis
        coef[k] = acc.reshape(lattice.shape)
    return StencilOperator(lattice, offsets, coef, t=t)


def assemble_noise(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float,
    rho: int,
    tables: dict[Lam, OverlapTable] | None = None,
    h: float | None = None,
) -> StencilOperator:
    """Noise stencil (1/h) S + N for one Wiener index rho at time t."""
    h = _normalize_h(lattice, h)
    if tables is None:
        tables = build_overlap_tables(element, tensors.quad_degree)
    offsets = tuple(sorted(tables.keys()))
    coef = np.zeros((len(offsets), *lattice.shape))
    n_sites = lattice.total_sites
    sigma_row = [(i, ast) for (i, r), ast in problem.sigma.items() if r == rho]
    nu_ast = problem.nu.get(rho)
    for k, lam in enumerate(offsets):
        tab = tables[lam]
        w = tab.weights
        if not sigma_row and nu_ast is None:
            continue
        pts = _offset_points(lattice, h, tab.points)
        acc = np.zeros(n_sites)
        for i, ast in sigma_row:
            basis = w * tab.dpsi_l[i - 1] * tab.psi_0
            acc += (_eval_at(ast, pts, t, n_sites) @ basis) / h
        if nu_ast is not None:
            basis = w * tab.psi_l * tab.psi_0
            acc += _eval_at(nu_ast, pts, t, n_sites) @ basis
        coef[k] = acc.reshape(lattice.shape)
    return StencilOperator(lattice, offsets, coef, t=t)


def mollify_data(
    field,
    element: FiniteElement,
    lattice: TorusLattice,
    t: float = 0.0,
    quad_degree: int | None = None,
    h: float | None = None,
) -> GridFunction:
    """Smooth a field with the scaled element: integral of field(x + h z) psi(z) dz."""
    from .polynomials import cell_quadrature
    from .tensors import default_quad_degree

    h = _normalize_h(lattice, h)
    degree = default_quad_degree(element) if quad_degree is None else quad_degree
    pts_parts, wts_parts = [], []
    for cell, poly in element.psi.pieces:
        pts, wts = cell_quadrature(cell, degree)
        pts_parts.append(pts)
        wts_parts.append(wts * poly.eval_many(pts))
    z = np.concatenate(pts_parts)
    w = np.concatenate(wts_parts)
    vals = _eval_at_offsets(field, lattice, h, z, t)
    return GridFunction(lattice, (vals @ w).reshape(lattice.shape))


def quadrature_error_estimate(
    element: FiniteElement,
    tensors: ReferenceTensors,
    problem: Problem,
    lattice: TorusLattice,
    t: float = 0.0,
    quad_degree: int | None = None,
) -> float:
    """Order-doubling diagnostic: max drift-coefficient change when the Gauss
    degree is doubled.  Zero up to roundoff for polynomial-exact integrands;
    otherwise an estimate of the coefficient quadrature error."""
    degree = tensors.quad_degree if quad_degree is None else quad_degree
    base = assemble_drift(element, tensors, problem, lattice, t,
                          build_overlap_tables(element, degree))
    fine = assemble_drift(element, tensors, problem, lattice, t,
                          build_overlap_tables(element, 2 * degree))
    worst = 0.0
    index = {lam: k for k, lam in enumerate(fine.offsets)}
    for k, lam in enumerate(base.offsets):
        worst = max(worst, float(np.max(np.abs(base.coef[k] - fine.coef[index[lam]]))))
    return worst


# ---------------------------------------------------------------------------
# assembled problem with caching
# ---------------------------------------------------------------------------


class AssembledProblem:
    """Element + coefficients + lattice, with operator assembly and caching.

    Operators are re-assembled at every requested time point; when the
    underlying expressions do not reference t, the first assembly is cached
    and reused.
    """

    def __init__(
        self,
        element: FiniteElement,
        tensors: ReferenceTensors,
        problem: Problem,
        lattice: TorusLattice,
        quad_degree: int | None = None,
        h: float | None = None,
        tables: dict[Lam, OverlapTable] | None = None,
    ):
        self.element = element
        self.tensors = tensors
        self.problem = problem
        self.lattice = lattice
        self.h = _normalize_h(lattice, h)
        self.quad_degree = tensors.quad_degree if quad_degree is None else quad_degree
        self.tables = tables if tables is not None else build_overlap_tables(element, self.quad_degree)
        self.mass = assemble_mass(element, tensors, lattice)
        self._drift_cache: StencilOperator | None = None
        self._noise_cache: dict[int, StencilOperator] = {}
        self._f_cache: GridFunction | None = None
        self._g_cache: dict[int, GridFunction] = {}

    def drift(self, t: float) -> StencilOperator:
        if not self.problem.drift_time_dependent and self._drift_cache is not None:
            return self._drift_cache
        op = assemble_drift(
            self.element, self.tensors, self.problem, self.lattice, t, self.tables, self.h
        )
        if not self.problem.drift_time_dependent:
            self._drift_cache = op
        return op

    def noise(self, t: float, rho: int) -> StencilOperator:
        if not self.problem.noise_time_dependent and rho in self._noise_cache:
            return self._noise_cache[rho]
        op = assemble_noise(
            self.element, self.tensors, self.problem, self.lattice, t, rho, self.tables, self.h
        )
        if not self.problem.noise_time_dependent:
            self._noise_cache[rho] = op
        return op

    def f_h(self, t: float) -> GridFunction:
        if self.problem.f is None:
            return GridFunction.zeros(self.lattice)
        if not self.problem.f_time_dependent and self._f_cache is not None:
            return self._f_cache
        out = mollify_data(self.problem.f, self.element, self.lattice, t, self.quad_degree, self.h)
        if not self.problem.f_time_dependent:
            self._f_cache = out
        return out

    def g_h(self, t: float, rho: int) -> GridFunction:
        ast = self.problem.g.get(rho)
        if ast is None:
            return GridFunction.zeros(self.lattice)
        if not self.problem.g_time_dependent and rho in self._g_cache:
            return self._g_cache[rho]
        out = mollify_data(ast, self.element, self.lattice, t, self.quad_degree, self.h)
        if not self.problem.g_time_dependent:
            self._g_cache[rho] = out
        return out

    def phi_h(self) -> GridFunction:
        if self.problem.phi is None:
            return GridFunction.zeros(self.lattice)
        return mollify_data(self.problem.phi, self.element, self.lattice, 0.0, self.quad_degree, self.h)
