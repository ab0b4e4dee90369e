"""Reference tensors of a finite element, computed by exact quadrature.

For shifts lambda in the neighbor set Gamma the tensors are the inner
products of the mother function (and its first derivatives, optionally
weighted by coordinate monomials) against its shifted copy.  Each tensor
is one array whose axis 0 runs over Gamma, in the order of `gamma`, with
0-based derivative and coordinate axes after it:

    R[g]            (psi_lam, psi)
    Rbeta[g,b]      (D_b psi_lam, psi)
    Rab[g,a,b]      (D_b psi_lam, -D_a psi)
    Q[g,i,j,k,l]    integral of z_k z_l D_j psi_lam(z) (-D_i psi(z)) dz
    Qtilde[g,i,k]   integral of z_k D_i psi_lam(z) psi(z) dz

for lam = gamma[g].  The moment identities that femspde.checks verifies
are sums over axis 0.

The integration domain per lambda is the common refinement of the shifted
and unshifted cell decompositions (PiecewisePolynomial.overlaps); each part
carries a Gauss rule exact for the polynomial integrands, so every entry is
exact up to roundoff.

Everything here depends only on the element, whose degree sets the Gauss
degree.  The same overlap tables, regrouped by lattice cell into a
CellQuadrature, give the quadrature that the lattice assembly
(femspde.assembly) integrates variable coefficients and data with; the data
integrate against psi itself, the zero shift's table.  Lattice cell k meets
supp psi_lam ∩ supp psi for only some (k, lam), so the quadrature stores one
weight column per (cell shift, offset) pair that some table point reaches
(64 of 216 on tensor(3)) and no other.  ReferenceTensors builds its
quadrature from its own tables alone, on first use.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .elements import FiniteElement
from .polynomials import cell_quadrature

Lam = tuple[int, ...]


@dataclass(frozen=True)
class OverlapTable:
    """Quadrature table on supp(psi_lam) ∩ supp(psi) with basis values."""

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
    """One quadrature table per neighbor shift on supp(psi_lam) ∩ supp(psi),
    keyed in Gamma order; no table is empty, since each overlap has measure
    above 1e-12.

    One Gauss rule covers each part of (cell i + lam) ∩ cell j, in the order
    of PiecewisePolynomial.overlaps.  psi_lam is psi at z - lam: piece i and
    its derivatives are evaluated at the points minus lam, and piece j of psi
    at the points themselves.  The reference tensors integrate over these
    tables; build_cell_quadrature regroups their points by lattice cell for
    the operator assembly.
    """
    d = element.d
    pieces = element.psi.pieces
    derivatives = [[poly.derivative(k) for k in range(d)] for _, poly in pieces]

    def basis_values(piece: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """psi and its derivatives at pts, the row of each point from the
        polynomials of its piece, each piece evaluated once on all its points."""
        values, grads = np.empty(len(pts)), np.empty((d, len(pts)))
        for k in set(piece.tolist()):
            at = piece == k
            sub = pts[at]
            values[at] = pieces[k][1].eval_many(sub)
            grads[:, at] = [p.eval_many(sub) for p in derivatives[k]]
        return values, grads

    tables: dict[Lam, OverlapTable] = {}
    for lam in element.gamma:
        shift = np.asarray(lam, dtype=float)
        rules = [(i, j) + cell_quadrature(part, quad_degree)
                 for i, j, part in element.psi.overlaps(shift)]
        points = np.concatenate([pts for _, _, pts, _ in rules])
        # piece index of psi_lam and of psi at each point
        piece_l = np.concatenate([np.full(len(wts), i) for i, _, _, wts in rules])
        piece_0 = np.concatenate([np.full(len(wts), j) for _, j, _, wts in rules])
        psi_l, dpsi_l = basis_values(piece_l, points - shift)
        psi_0, dpsi_0 = basis_values(piece_0, points)
        tables[lam] = OverlapTable(
            points=points,
            weights=np.concatenate([wts for _, _, _, wts in rules]),
            psi_l=psi_l,
            psi_0=psi_0,
            dpsi_l=dpsi_l,
            dpsi_0=dpsi_0,
        )
    return tables


@dataclass(frozen=True)
class CellQuadrature:
    """The overlap tables regrouped by lattice cell.

    Every quadrature point z of an overlap table splits as z = k + zeta with
    k = floor(z) in Z^d and zeta in [0, 1)^d.  The point x + h z of site x is
    then x_c + h zeta for the lattice cell c = x/h + k, so a coefficient
    sampled once at x_c + h zeta for every cell c serves every table.  The
    distinct zeta are shared by all term kinds.  Cell k meets supp psi_lam ∩
    supp psi for only some (k, lam): the C pairs that some table point
    reaches, in flat k * G + g order (so shift by shift), each hold one weight
    column per kind, the quadrature weight times the basis product at every
    zeta; no other pair is stored.  The mollifier integrates against psi, so
    its weights come from the zero shift's table, whose parts are psi's cells,
    in one column per shift k at the data's one offset.
    """

    offsets: tuple[Lam, ...]  # Gamma, the stencil footprint
    shifts: tuple[Lam, ...]   # lattice-cell shifts k
    zeta: np.ndarray          # (P, d) distinct points in [0, 1)^d
    pairs: np.ndarray         # (C, 2) shift index, offset index of each stencil column
    diffusion: np.ndarray     # (d, d, P, C): w D_j psi_lam (-D_i psi) at [i-1, j-1]
    transport: np.ndarray     # (d, P, C): w D_i psi_lam psi at [i-1]
    reaction: np.ndarray      # (P, C): w psi_lam psi
    mollifier_pairs: np.ndarray  # (K, 2): every shift index, at offset index 0
    mollifier: np.ndarray     # (P, K), Fortran order: w psi on the zero shift's table


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """np.unique(rows, axis=0)'s first occurrences and inverse for an (M, d) array, by
    one 1-D np.unique on an int64 key packing per-column ranks, column 0 most significant
    (below the product of the column counts: 6^4 for tensor(4)'s zeta, 54^2 for triangle2d)."""
    key = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        values, rank = np.unique(column, return_inverse=True)
        key = key * len(values) + rank
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def _split_points(points: np.ndarray) -> tuple[tuple[Lam, ...], np.ndarray, np.ndarray]:
    """The distinct lattice-cell shifts k = floor(z) and the distinct zeta = z - k
    of an (M, d) point array, each in np.unique(axis=0)'s order, and every
    point's flat (k, p) index into (K, P); its (M, d) temporaries die on return."""
    cells = np.floor(points)
    first_k, k_idx = _distinct_rows(cells)
    frac = points - cells
    # one representative per distinct zeta; roundoff-level copies merge
    first_p, p_idx = _distinct_rows(np.round(frac, 12))
    shifts = tuple(tuple(int(c) for c in k) for k in cells[first_k])
    return shifts, frac[first_p], k_idx * len(first_p) + p_idx


def build_cell_quadrature(tensors: ReferenceTensors) -> CellQuadrature:
    """Regroup the overlap tables of the tensors by lattice cell into the layouts the
    assembly reads; the offsets are Gamma.  The pairs are the distinct flat (k, g)
    indices of the points, and each component of a kind is one np.bincount on the
    points' flat (p, pair) index, which adds every target's weights in point order.
    The zero shift's parts are psi's cells, so its table also gives the mollifier
    (check_disjoint bounds any other part at 1e-12 measure)."""
    offsets, tables, d = tensors.gamma, tensors.tables, tensors.d
    shifts, zeta, cell_point = _split_points(
        np.concatenate([tables[lam].points for lam in offsets]))
    K, P, G = len(shifts), len(zeta), len(offsets)
    sizes = [len(tables[lam].weights) for lam in offsets]
    reached, column = np.unique(cell_point // P * G + np.repeat(np.arange(G), sizes),
                                return_inverse=True)
    C = len(reached)
    at = cell_point % P * C + column

    def scatter(weights) -> np.ndarray:
        """(P, C) sums of weights(table) over every table, in Gamma order."""
        values = np.concatenate([weights(tables[lam]) for lam in offsets])
        return np.bincount(at, values, P * C).reshape(P, C)

    diffusion, transport = np.empty((d, d, P, C)), np.empty((d, P, C))
    for i in range(d):
        for j in range(d):  # w D_j psi_lam (-D_i psi)
            diffusion[i, j] = scatter(lambda tab: tab.weights * tab.dpsi_l[j] * -tab.dpsi_0[i])
        transport[i] = scatter(lambda tab: tab.weights * tab.dpsi_l[i] * tab.psi_0)
    reaction = scatter(lambda tab: tab.weights * tab.psi_l * tab.psi_0)
    start, zero = sum(sizes[:offsets.index((0,) * d)]), tables[(0,) * d]
    cell_point = cell_point[start:start + len(zero.weights)]
    # a transposed (K, P) array: the BLAS reads it in the order of the former dense
    # (K, P, 1) table, so mollified data keep their last bits
    mollifier = np.bincount(cell_point, zero.weights * zero.psi_0, K * P).reshape(K, P).T
    return CellQuadrature(offsets, shifts, zeta, np.stack(np.divmod(reached, G), axis=1),
                          diffusion, transport, reaction,
                          np.stack([np.arange(K), np.zeros(K, dtype=int)], axis=1), mollifier)


@dataclass(frozen=True, eq=False)
class ReferenceTensors:
    """Stencil-defining constants of an element, as arrays over Gamma.

    Axis 0 of every tensor runs over the shifts of `gamma`, in that order;
    the derivative and coordinate axes run from 0 to d - 1.  Shifts outside
    Gamma have identically zero tensors and no row.  `tables` are the overlap
    tables the tensors were computed from, at Gauss degree `quad_degree`.
    `quad` is their cell quadrature, regrouped from those tables alone on
    first use: the assembly needs it, computing and checking the tensors not.
    Instances compare by identity (eq=False), never by their arrays.
    """

    d: int
    gamma: tuple[Lam, ...]
    R: np.ndarray       # (G,)
    Rbeta: np.ndarray   # (G, d)
    Rab: np.ndarray     # (G, d, d)
    Q: np.ndarray       # (G, d, d, d, d)
    Qtilde: np.ndarray  # (G, d, d)
    quad_degree: int
    tables: dict[Lam, OverlapTable] = field(default_factory=dict, repr=False)

    @cached_property
    def quad(self) -> CellQuadrature:
        return build_cell_quadrature(self)

    def symmetry_residual(self) -> float:
        """Largest violation of the reflection identities of the tensors.

        R and Rab are even under lam -> -lam, Rbeta is odd; a symmetric
        element satisfies all three exactly.  A shift whose reflection lies
        outside Gamma is compared with zero.
        """
        row = {lam: g for g, lam in enumerate(self.gamma)}
        reflect = [row.get(tuple(-c for c in lam), len(self.gamma)) for lam in self.gamma]

        def reflected(t: np.ndarray) -> np.ndarray:
            return np.concatenate([t, np.zeros((1, *t.shape[1:]))])[reflect]

        return float(max(np.max(np.abs(self.R - reflected(self.R))),
                         np.max(np.abs(self.Rbeta + reflected(self.Rbeta))),
                         np.max(np.abs(self.Rab - reflected(self.Rab)))))


def compute_reference_tensors(element: FiniteElement) -> ReferenceTensors:
    """Compute all reference tensors of an element by exact Gauss quadrature
    at default_quad_degree(element)."""
    degree = default_quad_degree(element)
    tables = build_overlap_tables(element, degree)
    gamma = element.gamma
    d, G = element.d, len(gamma)
    R, Rbeta, Rab = np.empty(G), np.empty((G, d)), np.empty((G, d, d))
    Q, Qtilde = np.empty((G, d, d, d, d)), np.empty((G, d, d))
    for g, lam in enumerate(gamma):
        tab = tables[lam]
        w = tab.weights
        z = tab.points
        R[g] = w @ (tab.psi_l * tab.psi_0)
        Rbeta[g] = [w @ (dl * tab.psi_0) for dl in tab.dpsi_l]
        Rab[g] = [[-w @ (dl * d0) for dl in tab.dpsi_l] for d0 in tab.dpsi_0]
        # Q[i,j,k,l] = sum_m (-dpsi_0[i] dpsi_l[j])_m (w z_k z_l)_m, one product
        derivatives = (-tab.dpsi_0[:, None] * tab.dpsi_l[None]).reshape(d * d, -1)
        moments = (w[:, None, None] * z[:, :, None] * z[:, None, :]).reshape(-1, d * d)
        Q[g] = (derivatives @ moments).reshape(d, d, d, d)
        Qtilde[g] = np.einsum("m,mk,im->ik", w, z, tab.dpsi_l * tab.psi_0)
    return ReferenceTensors(
        d=d,
        gamma=gamma,
        R=R,
        Rbeta=Rbeta,
        Rab=Rab,
        Q=Q,
        Qtilde=Qtilde,
        quad_degree=degree,
        tables=tables,
    )
