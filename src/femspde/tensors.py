"""Reference tensors of a finite element, computed by exact quadrature.

For shifts lambda in the neighbor set Gamma the tensors are the inner
products of the mother function (and its first derivatives, optionally
weighted by coordinate monomials) against its shifted copy:

    R          (psi_lam, psi)
    Rbeta[b]   (D_b psi_lam, psi)
    Rab[a,b]   (D_b psi_lam, -D_a psi)
    Q[i,j,k,l] integral of z_k z_l D_j psi_lam(z) (-D_i psi(z)) dz
    Qtilde[i,k] integral of z_k D_i psi_lam(z) psi(z) dz

The integration domain per lambda is the common refinement of the shifted
and unshifted cell decompositions; each sub-cell carries a Gauss rule exact
for the polynomial integrands, so every entry is exact up to roundoff.

Everything here depends only on the element and the Gauss degree.  The same
overlap tables, regrouped by lattice cell into a CellQuadrature, give the
quadrature that the lattice assembly (femspde.assembly) integrates variable
coefficients with.  ReferenceTensors keeps the tables it was computed from
and builds its quadrature from them on first use, so the tables are built
once and one degree serves the tensors, the operators and the mollified
data.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elements import FiniteElement
from .polynomials import cell_quadrature, intersect_cells

Lam = tuple[int, ...]


@dataclass(frozen=True)
class OverlapTable:
    """Quadrature table on supp(psi_lam) ∩ supp(psi) with basis values."""

    lam: Lam
    points: np.ndarray   # (m, d)
    weights: np.ndarray  # (m,)
    psi_l: np.ndarray    # psi_lam at points
    psi_0: np.ndarray    # psi at points
    dpsi_l: np.ndarray   # (d, m) derivatives of psi_lam
    dpsi_0: np.ndarray   # (d, m) derivatives of psi


def default_quad_degree(element: FiniteElement) -> int:
    """Exact for products of two psi copies times quadratic monomials."""
    return max(8, 2 * element.psi.degree() + 2)


def build_overlap_tables(element: FiniteElement, quad_degree: int) -> dict[Lam, OverlapTable]:
    """One quadrature table per neighbor shift on supp(psi_lam) ∩ supp(psi).

    The reference tensors integrate over these tables; build_cell_quadrature
    regroups their points by lattice cell for the operator assembly.
    """
    d = element.d
    derivatives = [[poly.derivative(k) for k in range(d)] for _, poly in element.psi.pieces]
    tables: dict[Lam, OverlapTable] = {}
    for lam in element.gamma:
        shift = np.asarray(lam, dtype=float)
        pts_parts: list[np.ndarray] = []
        wts_parts: list[np.ndarray] = []
        psil_parts: list[np.ndarray] = []
        psi0_parts: list[np.ndarray] = []
        dpsil_parts: list[np.ndarray] = []
        dpsi0_parts: list[np.ndarray] = []
        for cell_l, poly_l in element.psi.pieces:
            poly_ls = poly_l.translated(shift)
            dpolys_l = [poly_ls.derivative(k) for k in range(d)]
            shifted = cell_l.translated(shift)
            for (cell_0, poly_0), dpolys_0 in zip(element.psi.pieces, derivatives):
                for part in intersect_cells(shifted, cell_0):
                    pts, wts = cell_quadrature(part, quad_degree)
                    pts_parts.append(pts)
                    wts_parts.append(wts)
                    psil_parts.append(poly_ls.eval_many(pts))
                    psi0_parts.append(poly_0.eval_many(pts))
                    dpsil_parts.append(np.stack([p.eval_many(pts) for p in dpolys_l]))
                    dpsi0_parts.append(np.stack([p.eval_many(pts) for p in dpolys_0]))
        if not pts_parts:
            continue
        tables[lam] = OverlapTable(
            lam=lam,
            points=np.concatenate(pts_parts),
            weights=np.concatenate(wts_parts),
            psi_l=np.concatenate(psil_parts),
            psi_0=np.concatenate(psi0_parts),
            dpsi_l=np.concatenate(dpsil_parts, axis=1),
            dpsi_0=np.concatenate(dpsi0_parts, axis=1),
        )
    return tables


@dataclass(frozen=True)
class CellQuadrature:
    """Overlap-table and mollifier quadrature regrouped by lattice cell.

    Every quadrature point z of an overlap table, and of the element's own
    cells, splits as z = k + zeta with k = floor(z) in Z^d and zeta in
    [0, 1)^d.  The point x + h z of site x is then x_c + h zeta for the
    lattice cell c = x/h + k, so a coefficient sampled once at x_c + h zeta
    for every cell c serves every table.  The distinct zeta are shared by all
    term kinds; for each shift k one (P, |Gamma|) weight matrix per kind
    holds the quadrature weight times the basis product.
    """

    offsets: tuple[Lam, ...]  # Gamma, the stencil footprint
    shifts: tuple[Lam, ...]   # lattice-cell shifts k
    zeta: np.ndarray          # (P, d) distinct points in [0, 1)^d
    diffusion: np.ndarray     # (d, d, K, P, G): w D_j psi_lam (-D_i psi) at [i-1, j-1]
    transport: np.ndarray     # (d, K, P, G): w D_i psi_lam psi at [i-1]
    reaction: np.ndarray      # (K, P, G): w psi_lam psi
    mollifier: np.ndarray     # (K, P, 1): w psi


def build_cell_quadrature(
    element: FiniteElement, tables: dict[Lam, OverlapTable], quad_degree: int
) -> CellQuadrature:
    """Regroup overlap tables built at quad_degree, and the element's own
    quadrature at that degree, by lattice cell."""
    offsets = tuple(sorted(tables))
    d = element.d
    data = [cell_quadrature(cell, quad_degree) + (poly,) for cell, poly in element.psi.pieces]
    data_pts = np.concatenate([pts for pts, _, _ in data])
    data_w = np.concatenate([wts * poly.eval_many(pts) for pts, wts, poly in data])

    points = np.concatenate([tables[lam].points for lam in offsets] + [data_pts])
    cells = np.floor(points)
    frac = points - cells
    shifts, k_idx = np.unique(cells.astype(int), axis=0, return_inverse=True)
    # one representative per distinct zeta; roundoff-level copies merge
    _, first, p_idx = np.unique(np.round(frac, 12), axis=0, return_index=True,
                                return_inverse=True)
    k_idx, p_idx = k_idx.reshape(-1), p_idx.reshape(-1)
    K, P, G = len(shifts), len(first), len(offsets)

    diffusion = np.zeros((K, P, G, d, d))
    transport = np.zeros((K, P, G, d))
    reaction = np.zeros((K, P, G))
    start = 0
    for g, lam in enumerate(offsets):
        tab = tables[lam]
        stop = start + len(tab.weights)
        at = (k_idx[start:stop], p_idx[start:stop], g)
        w = tab.weights[:, None]
        grad = w[:, :, None] * tab.dpsi_l.T[:, None, :] * -tab.dpsi_0.T[:, :, None]  # [m, i, j]
        np.add.at(diffusion, at, grad)
        np.add.at(transport, at, w * tab.dpsi_l.T * tab.psi_0[:, None])
        np.add.at(reaction, at, tab.weights * tab.psi_l * tab.psi_0)
        start = stop
    mollifier = np.zeros((K, P, 1))
    np.add.at(mollifier, (k_idx[start:], p_idx[start:], 0), data_w)
    return CellQuadrature(
        offsets=offsets,
        shifts=tuple(tuple(int(c) for c in k) for k in shifts),
        zeta=frac[first],
        diffusion=np.ascontiguousarray(diffusion.transpose(3, 4, 0, 1, 2)),
        transport=np.ascontiguousarray(transport.transpose(3, 0, 1, 2)),
        reaction=reaction,
        mollifier=mollifier,
    )


@dataclass(frozen=True)
class ReferenceTensors:
    """Stencil-defining constants of an element, keyed by neighbor shift.

    Entries for shifts outside Gamma are identically zero; the accessors
    return 0.0 accordingly.  Derivative indices run from 1 to d.  `tables`
    are the overlap tables the tensors were computed from.  `quad` is the
    element's cell quadrature at `quad_degree`, regrouped from those tables
    on first use: the assembly needs it, computing and checking the tensors
    does not.
    """

    d: int
    gamma: tuple[Lam, ...]
    R: dict[Lam, float]
    Rbeta: dict[tuple[Lam, int], float]
    Rab: dict[tuple[Lam, int, int], float]
    Q: dict[tuple[Lam, int, int, int, int], float]
    Qtilde: dict[tuple[Lam, int, int], float]
    quad_degree: int
    element: FiniteElement = field(compare=False, repr=False)
    tables: dict[Lam, OverlapTable] = field(default_factory=dict, compare=False, repr=False)

    @cached_property
    def quad(self) -> CellQuadrature:
        return build_cell_quadrature(self.element, self.tables, self.quad_degree)

    def r(self, lam: Lam) -> float:
        return self.R.get(tuple(lam), 0.0)

    def rbeta(self, lam: Lam, beta: int) -> float:
        return self.Rbeta.get((tuple(lam), beta), 0.0)

    def rab(self, lam: Lam, alpha: int, beta: int) -> float:
        return self.Rab.get((tuple(lam), alpha, beta), 0.0)

    def q(self, lam: Lam, i: int, j: int, k: int, l: int) -> float:
        return self.Q.get((tuple(lam), i, j, k, l), 0.0)

    def qtilde(self, lam: Lam, i: int, k: int) -> float:
        return self.Qtilde.get((tuple(lam), i, k), 0.0)

    def symmetry_residual(self) -> float:
        """Largest violation of the reflection identities of the tensors.

        R and Rab are even under lam -> -lam, Rbeta is odd; a symmetric
        element satisfies all three exactly.
        """
        worst = 0.0
        for lam in self.gamma:
            neg = tuple(-c for c in lam)
            worst = max(worst, abs(self.r(lam) - self.r(neg)))
            for b in range(1, self.d + 1):
                worst = max(worst, abs(self.rbeta(lam, b) + self.rbeta(neg, b)))
                for a in range(1, self.d + 1):
                    worst = max(worst, abs(self.rab(lam, a, b) - self.rab(neg, a, b)))
        return worst


def compute_reference_tensors(
    element: FiniteElement, quad_degree: int | None = None
) -> ReferenceTensors:
    """Compute all reference tensors of an element by exact Gauss quadrature."""
    degree = default_quad_degree(element) if quad_degree is None else quad_degree
    tables = build_overlap_tables(element, degree)
    d = element.d
    R: dict[Lam, float] = {}
    Rbeta: dict[tuple[Lam, int], float] = {}
    Rab: dict[tuple[Lam, int, int], float] = {}
    Q: dict[tuple[Lam, int, int, int, int], float] = {}
    Qt: dict[tuple[Lam, int, int], float] = {}
    for lam, tab in tables.items():
        w = tab.weights
        z = tab.points
        R[lam] = float(w @ (tab.psi_l * tab.psi_0))
        for b in range(d):
            Rbeta[(lam, b + 1)] = float(w @ (tab.dpsi_l[b] * tab.psi_0))
            for a in range(d):
                Rab[(lam, a + 1, b + 1)] = float(-w @ (tab.dpsi_l[b] * tab.dpsi_0[a]))
        # Q[i,j,k,l] = sum_m w_m z_mk z_ml dpsi_l[j] (-dpsi_0[i])
        qfull = np.einsum("m,mk,ml,jm,im->ijkl", w, z, z, tab.dpsi_l, -tab.dpsi_0)
        qtfull = np.einsum("m,mk,im->ik", w, z, tab.dpsi_l * tab.psi_0)
        for i in range(d):
            for k in range(d):
                Qt[(lam, i + 1, k + 1)] = float(qtfull[i, k])
                for j in range(d):
                    for l in range(d):
                        Q[(lam, i + 1, j + 1, k + 1, l + 1)] = float(qfull[i, j, k, l])
    return ReferenceTensors(
        d=d,
        gamma=tuple(sorted(tables.keys())),
        R=R,
        Rbeta=Rbeta,
        Rab=Rab,
        Q=Q,
        Qtilde=Qt,
        quad_degree=degree,
        element=element,
        tables=tables,
    )
