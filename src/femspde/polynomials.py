"""Exact piecewise-polynomial machinery: cells, clipping and Gauss quadrature.

Functions here are the geometric backbone for the element library: mother
functions are stored as polynomials on axis-aligned boxes or triangles, and
every inner product the scheme needs reduces to integrating a polynomial
over intersections of (possibly shifted) cells.  All quadrature rules are
chosen exact for the requested total degree, so tensor entries computed on
top of this module are exact up to roundoff.

The text rules that element and problem files share live here too: the
`key = value` line reader, header integers and number literals.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np


class GeometryError(ValueError):
    """Raised when cell data is degenerate or inconsistently oriented."""


# geometric tolerance of cell intersection: cells that overlap by no more than
# this along some axis do not intersect
OVERLAP_TOL = 1e-14


# ---------------------------------------------------------------------------
# polynomials
# ---------------------------------------------------------------------------


class Polynomial:
    """Dense multivariate polynomial with exponent-tuple -> coefficient table."""

    __slots__ = ("d", "coeffs")

    def __init__(self, d: int, coeffs: dict[tuple[int, ...], float] | None = None):
        self.d = d
        self.coeffs: dict[tuple[int, ...], float] = {}
        if coeffs:
            for expo, c in coeffs.items():
                expo = tuple(int(e) for e in expo)
                if len(expo) != d or any(e < 0 for e in expo):
                    raise ValueError(f"bad exponent {expo} for dimension {d}")
                if c != 0.0:
                    self.coeffs[expo] = self.coeffs.get(expo, 0.0) + float(c)

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def __call__(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(self.eval_many(x.reshape(1, -1))[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Evaluate at an (m, d) array of points."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        for expo, c in self.coeffs.items():
            term = np.full(pts.shape[0], c)
            for k, e in enumerate(expo):
                if e:
                    term *= pts[:, k] ** e
            out += term
        return out

    def derivative(self, axis: int) -> "Polynomial":
        out: dict[tuple[int, ...], float] = {}
        for expo, c in self.coeffs.items():
            e = expo[axis]
            if e:
                new = list(expo)
                new[axis] = e - 1
                key = tuple(new)
                out[key] = out.get(key, 0.0) + c * e
        return Polynomial(self.d, out)

    def __repr__(self) -> str:
        terms = sorted(self.coeffs.items())
        return f"Polynomial(d={self.d}, {terms})"


# ---------------------------------------------------------------------------
# cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by lower/upper corner tuples."""

    lo: tuple[float, ...]
    hi: tuple[float, ...]

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise GeometryError("box corner dimension mismatch")
        if any(l >= h for l, h in zip(self.lo, self.hi)):
            raise GeometryError(f"empty or inverted box {self.lo}..{self.hi}")

    @property
    def d(self) -> int:
        return len(self.lo)

    def volume(self) -> float:
        return float(np.prod([h - l for l, h in zip(self.lo, self.hi)]))

    def translated(self, shift) -> "Box":
        shift = np.asarray(shift, dtype=float)
        return Box(tuple(np.asarray(self.lo) + shift), tuple(np.asarray(self.hi) + shift))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        return np.asarray(self.lo, dtype=float), np.asarray(self.hi, dtype=float)

    def contains(self, pts, tol: float = 1e-12) -> np.ndarray:
        """Mask of the rows of an (m, d) point array that lie in the closed box
        widened by tol, by comparison with its corners."""
        lo, hi = self.bounds()
        pts = np.asarray(pts, dtype=float)
        return np.all((pts >= lo - tol) & (pts <= hi + tol), axis=1)


@dataclass(frozen=True)
class Simplex:
    """Triangle: simplex cells are 2-D only; boxes serve every dimension."""

    verts: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        d = len(self.verts[0])
        if d != 2:
            raise GeometryError(f"a simplex cell is a triangle (d = 2), got d = {d}; "
                                "use type = box")
        if len(self.verts) != 3:
            raise GeometryError("a triangle needs 3 vertices")
        if self.volume() <= 0.0:
            raise GeometryError(f"degenerate simplex {self.verts}")

    @property
    def d(self) -> int:
        return len(self.verts[0])

    def volume(self) -> float:
        v = np.asarray(self.verts, dtype=float)
        return abs(float(np.linalg.det(v[1:] - v[0]))) / 2

    def translated(self, shift) -> "Simplex":
        shift = np.asarray(shift, dtype=float)
        return Simplex(tuple(tuple(np.asarray(v) + shift) for v in self.verts))

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        v = np.asarray(self.verts, dtype=float)
        return v.min(axis=0), v.max(axis=0)

    def contains(self, pts, tol: float = 1e-12) -> np.ndarray:
        """Mask of the rows of an (m, d) point array whose barycentric
        coordinates all exceed -tol and sum to at most 1 + tol; one solve
        gives the coordinates of every point."""
        v = np.asarray(self.verts, dtype=float)
        pts = np.asarray(pts, dtype=float)
        bary = np.linalg.solve((v[1:] - v[0]).T, (pts - v[0]).T)  # (d, m)
        return (bary.min(axis=0) >= -tol) & (bary.sum(axis=0) <= 1 + tol)


Cell = Box | Simplex


# ---------------------------------------------------------------------------
# convex polygon clipping (d = 2)
# ---------------------------------------------------------------------------


def _polygon_of(cell: Cell) -> np.ndarray:
    """Counter-clockwise vertex loop of a 2-D cell."""
    if isinstance(cell, Box):
        (x0, y0), (x1, y1) = cell.lo, cell.hi
        return np.array([[x0, y0], [x1, y0], [x1, y1], [x0, y1]], dtype=float)
    poly = np.asarray(cell.verts, dtype=float)
    if _signed_area(poly) < 0:
        poly = poly[::-1]
    return poly


def _signed_area(poly: np.ndarray) -> float:
    x, y = poly[:, 0], poly[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


def _clip_halfplane(poly: np.ndarray, a: np.ndarray, b: float) -> np.ndarray:
    """Keep the part of a convex CCW polygon with a.x <= b (Sutherland-Hodgman)."""
    out: list[np.ndarray] = []
    n = len(poly)
    vals = poly @ a - b
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        vp, vq = vals[i], vals[(i + 1) % n]
        if vp <= OVERLAP_TOL:
            out.append(p)
            if vq > OVERLAP_TOL and vp < -OVERLAP_TOL:
                out.append(p + (q - p) * (vp / (vp - vq)))
        elif vq < -OVERLAP_TOL:
            out.append(p + (q - p) * (vp / (vp - vq)))
    if len(out) < 3:
        return np.empty((0, 2))
    return np.asarray(out)


def _halfplanes(poly: np.ndarray):
    """Half-plane form (a, b) with a.x <= b for each edge of a CCW polygon."""
    planes = []
    n = len(poly)
    for i in range(n):
        p, q = poly[i], poly[(i + 1) % n]
        edge = q - p
        normal = np.array([edge[1], -edge[0]])  # outward for CCW
        planes.append((normal, float(normal @ p)))
    return planes


def _fan_triangulate(poly: np.ndarray) -> list[Simplex]:
    tris: list[Simplex] = []
    for i in range(1, len(poly) - 1):
        pts = np.array([poly[0], poly[i], poly[i + 1]])
        area = _signed_area(pts)
        if area < -OVERLAP_TOL:
            raise GeometryError("clipped region has inconsistent orientation")
        if area > OVERLAP_TOL:
            tris.append(Simplex(tuple(map(tuple, pts))))
    return tris


# ---------------------------------------------------------------------------
# cell intersection
# ---------------------------------------------------------------------------


def intersect_cells(a: Cell, b: Cell) -> list[Cell]:
    """Intersect two convex cells; returns a list of disjoint cells (may be empty).

    Boxes intersect boxes analytically in any dimension; a simplex is a
    triangle, so anything involving one is clipped as a polygon.
    """
    if isinstance(a, Box) and isinstance(b, Box):
        lo = tuple(max(l1, l2) for l1, l2 in zip(a.lo, b.lo))
        hi = tuple(min(h1, h2) for h1, h2 in zip(a.hi, b.hi))
        if any(h - l <= OVERLAP_TOL for l, h in zip(lo, hi)):
            return []
        return [Box(lo, hi)]
    poly = _polygon_of(a)
    for normal, offset in _halfplanes(_polygon_of(b)):
        poly = _clip_halfplane(poly, normal, offset)
        if len(poly) == 0:
            return []
    if abs(_signed_area(poly)) <= OVERLAP_TOL:
        return []
    return list(_fan_triangulate(poly))


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------


@functools.cache
def gauss_points_1d(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes/weights on [0, 1], exact to degree 2n - 1.

    Computed once per n; the arrays are shared and read-only.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    rule = 0.5 * (x + 1.0), 0.5 * w
    for a in rule:
        a.setflags(write=False)
    return rule


def _points_for_degree(degree: int) -> int:
    return degree // 2 + 1


def cell_quadrature(cell: Cell, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """Quadrature points (m, d) and weights (m,) exact for total degree <= degree."""
    if isinstance(cell, Box):
        n = _points_for_degree(degree)
        x1, w1 = gauss_points_1d(n)
        d = cell.d
        grids = np.meshgrid(*([x1] * d), indexing="ij")
        pts01 = np.stack([g.ravel() for g in grids], axis=1)
        wts = np.ones(1)
        for _ in range(d):
            wts = np.outer(wts, w1).ravel()
        lo = np.asarray(cell.lo)
        hi = np.asarray(cell.hi)
        pts = lo + pts01 * (hi - lo)
        return pts, wts * cell.volume()
    # Duffy transform: (u, v) in [0,1]^2 -> v0 + u (v1 - v0) + u v (v2 - v1);
    # a total-degree-D polynomial pulls back to degree 2D + 1, still Gaussian-exact.
    # The vertices are taken in lexicographic order, so the rule depends on the
    # triangle alone, not on where its vertex list starts.
    n = degree + 1
    u1, wu = gauss_points_1d(n)
    u, v = np.meshgrid(u1, u1, indexing="ij")
    wt = np.outer(wu, wu)
    v0, v1, v2 = (np.asarray(p, dtype=float) for p in sorted(cell.verts))
    pts = v0 + u.ravel()[:, None] * (v1 - v0) + (u * v).ravel()[:, None] * (v2 - v1)
    jac = 2.0 * cell.volume() * u.ravel()
    return pts, wt.ravel() * jac


def integrate_poly(poly: Polynomial, cell: Cell) -> float:
    pts, wts = cell_quadrature(cell, poly.degree())
    return float(wts @ poly.eval_many(pts))


# ---------------------------------------------------------------------------
# piecewise polynomials
# ---------------------------------------------------------------------------


class PiecewisePolynomial:
    """A function given by one polynomial per cell, zero outside all cells.

    Cells must have pairwise null intersection and the represented function
    has to be continuous across shared faces; ``check_continuity`` verifies
    the latter at sampled face points.
    """

    def __init__(self, d: int, pieces: list[tuple[Cell, Polynomial]]):
        self.d = d
        for cell, poly in pieces:
            if cell.d != d or poly.d != d:
                raise ValueError("piece dimension mismatch")
        self.pieces = list(pieces)
        # (n, d) bounding-box corners of the cells, in piece order
        bounds = [cell.bounds() for cell, _ in self.pieces]
        self.cell_lo = np.array([lo for lo, _ in bounds]).reshape(-1, d)
        self.cell_hi = np.array([hi for _, hi in bounds]).reshape(-1, d)

    def degree(self) -> int:
        return max((p.degree() for _, p in self.pieces), default=0)

    def support_bbox(self) -> tuple[np.ndarray, np.ndarray]:
        return self.cell_lo.min(axis=0), self.cell_hi.max(axis=0)

    def overlaps(self, shift) -> list[tuple[int, int, Cell]]:
        """(i, j, part) for every part of (cell i + shift) ∩ cell j, i-major:
        the one place where cells are intersected.

        Only pairs whose bounding boxes overlap by more than OVERLAP_TOL along
        every axis are intersected; any other pair meets at most in a slab no
        wider than OVERLAP_TOL, where intersect_cells finds no volume.
        """
        shift = np.asarray(shift, dtype=float)
        width = (np.minimum(self.cell_hi[:, None] + shift, self.cell_hi[None])
                 - np.maximum(self.cell_lo[:, None] + shift, self.cell_lo[None]))
        pairs = np.argwhere(np.all(width > OVERLAP_TOL, axis=2)).tolist()
        return [(i, j, part) for i, j in pairs for part in
                intersect_cells(self.pieces[i][0].translated(shift), self.pieces[j][0])]

    def __call__(self, x) -> float:
        return float(self.eval_many(np.asarray(x, dtype=float).reshape(1, -1))[0])

    def eval_many(self, pts: np.ndarray) -> np.ndarray:
        """Value at each of an (m, d) array of points from the first cell that
        contains it; zero outside the support."""
        pts = np.asarray(pts, dtype=float)
        out = np.zeros(pts.shape[0])
        done = np.zeros(pts.shape[0], dtype=bool)
        for cell, poly in self.pieces:
            idx = np.nonzero(~done)[0]
            if not idx.size:
                break
            sel = idx[cell.contains(pts[idx])]
            if sel.size:
                out[sel] = poly.eval_many(pts[sel])
                done[sel] = True
        return out

    def integral(self) -> float:
        return sum(integrate_poly(p, c) for c, p in self.pieces)

    def check_disjoint(self) -> None:
        """Raise if two cells share interior volume (more than 1e-12): the
        parts of overlaps(0) summed per pair i < j."""
        overlap: dict[tuple[int, int], float] = {}
        for i, j, part in self.overlaps(np.zeros(self.d)):
            overlap[i, j] = overlap.get((i, j), 0.0) + part.volume()
        for (i, j), measure in overlap.items():
            if i < j and measure > 1e-12:
                raise GeometryError(f"cells {i} and {j} overlap with measure {measure:.3e}")

    def check_continuity(self) -> float:
        """Max jump of the function across sampled cell-boundary points (5 per
        face); a jump above 1e-9 raises.

        For each pair of distinct cells, every boundary sample of the first
        that the second contains (to 1e-10) is compared at once.
        """
        worst = 0.0
        for cell, poly in self.pieces:
            samples = _boundary_samples(cell, 5)
            here = poly.eval_many(samples)
            for other_cell, other_poly in self.pieces:
                if other_cell is cell:
                    continue
                hit = other_cell.contains(samples, tol=1e-10)
                if hit.any():
                    jump = np.abs(here[hit] - other_poly.eval_many(samples[hit]))
                    worst = max(worst, float(jump.max()))
        if worst > 1e-9:
            raise GeometryError(f"discontinuity of size {worst:.3e} across cell faces")
        return worst


def _boundary_samples(cell: Cell, m: int) -> np.ndarray:
    ticks = np.linspace(0.0, 1.0, m + 2)[1:-1]
    pts: list[np.ndarray] = []
    if isinstance(cell, Box):
        lo = np.asarray(cell.lo)
        hi = np.asarray(cell.hi)
        d = cell.d
        if d == 1:
            return np.array([[lo[0]], [hi[0]]])
        for axis in range(d):
            others = [k for k in range(d) if k != axis]
            grids = np.meshgrid(*[lo[k] + ticks * (hi[k] - lo[k]) for k in others], indexing="ij")
            face = np.stack([g.ravel() for g in grids], axis=1)
            for val in (lo[axis], hi[axis]):
                full = np.empty((face.shape[0], d))
                full[:, others] = face
                full[:, axis] = val
                pts.append(full)
        return np.concatenate(pts)
    verts = np.asarray(cell.verts, dtype=float)
    n = len(verts)
    for i in range(n):
        a, b = verts[i], verts[(i + 1) % n]
        pts.append(a + ticks[:, None] * (b - a))
    return np.concatenate(pts)


def read_key_values(text: str, error: type[ValueError], section: str | None = None
                    ) -> tuple[dict[str, str], list[dict[str, str]]]:
    """The `key = value` lines of an element or problem file: the header's
    entries, and one dict per line equal to section, holding the entries after it.

    '#' starts a comment, blank lines are skipped, key and value are stripped,
    and a line without '=' or a key repeated within its block raises error.
    """
    blocks: list[dict[str, str]] = [{}]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == section:
            blocks.append({})
            continue
        if "=" not in line:
            raise error(f"line {lineno}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in blocks[-1]:
            raise error(f"line {lineno}: duplicate key {key!r}")
        blocks[-1][key] = value
    return blocks[0], blocks[1:]


def parse_integer(key: str, text: str, error: type[ValueError]) -> int:
    """A header integer such as d or rho_max; error naming the key otherwise."""
    try:
        return int(text)
    except ValueError:
        raise error(f"{key} must be an integer, got {text!r}") from None


def parse_number(text: str) -> float:
    """Parse a decimal or rational literal like '2/3' to a finite float; ValueError
    for anything else, a zero denominator, nan and inf included."""
    text = text.strip()
    try:
        if "/" in text:
            from fractions import Fraction  # only here: it loads decimal too

            value = float(Fraction(text))
        else:
            value = float(text)
    except (ZeroDivisionError, OverflowError):
        value = math.nan
    if not math.isfinite(value):
        raise ValueError(f"{text!r} is not a finite number")
    return value
