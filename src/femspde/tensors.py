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
"""

from __future__ import annotations

from dataclasses import dataclass

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


def build_overlap_tables(
    element: FiniteElement, quad_degree: int | None = None
) -> dict[Lam, OverlapTable]:
    """One quadrature table per neighbor shift on supp(psi_lam) ∩ supp(psi).

    The reference tensors integrate over these tables; the operator assembly
    regroups their points by lattice cell (assembly.build_cell_quadrature).
    """
    degree = default_quad_degree(element) if quad_degree is None else quad_degree
    d = element.d
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
            for cell_0, poly_0 in element.psi.pieces:
                dpolys_0 = [poly_0.derivative(k) for k in range(d)]
                for part in intersect_cells(shifted, cell_0):
                    pts, wts = cell_quadrature(part, degree)
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
class ReferenceTensors:
    """Stencil-defining constants of an element, keyed by neighbor shift.

    Entries for shifts outside Gamma are identically zero; the accessors
    return 0.0 accordingly.  Derivative indices run from 1 to d.
    """

    d: int
    gamma: tuple[Lam, ...]
    R: dict[Lam, float]
    Rbeta: dict[tuple[Lam, int], float]
    Rab: dict[tuple[Lam, int, int], float]
    Q: dict[tuple[Lam, int, int, int, int], float]
    Qtilde: dict[tuple[Lam, int, int], float]
    quad_degree: int

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
    element: FiniteElement,
    quad_degree: int | None = None,
    tables: dict[Lam, OverlapTable] | None = None,
) -> ReferenceTensors:
    """Compute all reference tensors of an element by exact Gauss quadrature."""
    degree = default_quad_degree(element) if quad_degree is None else quad_degree
    if tables is None:
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
    )
