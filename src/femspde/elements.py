"""Finite elements: a symmetric mother function psi plus its shift set.

Built-in presets:

``hat1d``
    the classical piecewise-linear hat on [-1, 1]: ``tensor(1)`` by its own name.
``tensor(d)``
    the d-fold product of 1-D hats on (-1, 1]^d, 1 <= d <= 4.
``triangle2d``
    the piecewise-linear function on six triangles around the origin whose
    nodal basis is the standard P1 basis on the criss-cross triangulation.

Every element carries the neighbor set ``gamma``: the lattice shifts whose
translated support overlaps the support of psi with positive measure.  That
set is the stencil footprint of all operators assembled downstream.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .polynomials import (
    Box,
    Cell,
    GeometryError,
    PiecewisePolynomial,
    Polynomial,
    Simplex,
    parse_integer,
    parse_number,
    read_key_values,
)


class ElementFormatError(ValueError):
    """Raised for malformed element definition files."""


@dataclass(frozen=True)
class FiniteElement:
    """Mother function psi with shift set Lambda and derived neighbor set Gamma."""

    name: str
    psi: PiecewisePolynomial
    lambda_set: frozenset[tuple[int, ...]]
    gamma: tuple[tuple[int, ...], ...] = field(default=())

    @property
    def d(self) -> int:
        return self.psi.d


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def _tensor_pieces(d: int) -> list[tuple[Cell, Polynomial]]:
    pieces: list[tuple[Cell, Polynomial]] = []
    for signs in np.ndindex(*([2] * d)):
        # orthant cell: coordinate k spans [-1,0] for sign 0 and [0,1] for sign 1
        lo = tuple(-1.0 if s == 0 else 0.0 for s in signs)
        hi = tuple(0.0 if s == 0 else 1.0 for s in signs)
        # the product of (1 + x_k) for sign 0 and (1 - x_k) for sign 1, expanded:
        # the monomial of the axes with exponent 1 has the product of their slopes
        coeffs = {expo: (-1.0) ** sum(s * e for s, e in zip(signs, expo))
                  for expo in np.ndindex(*([2] * d))}
        pieces.append((Box(lo, hi), Polynomial(d, coeffs)))
    return pieces


def _triangle_pieces() -> list[tuple[Cell, Polynomial]]:
    # six triangles around the origin; on each, psi is linear and vanishes on
    # the outer edge, with psi(0,0) = 1
    one = {(0, 0): 1.0}
    x1 = (1, 0)
    x2 = (0, 1)
    tris = [
        (((0, 0), (1, 0), (1, 1)), Polynomial(2, {**one, x1: -1.0})),          # 1 - x1
        (((0, 0), (1, 1), (0, 1)), Polynomial(2, {**one, x2: -1.0})),          # 1 - x2
        (((0, 0), (0, 1), (-1, 0)), Polynomial(2, {**one, x1: 1.0, x2: -1.0})),  # 1 + x1 - x2
        (((0, 0), (-1, 0), (-1, -1)), Polynomial(2, {**one, x1: 1.0})),        # 1 + x1
        (((0, 0), (-1, -1), (0, -1)), Polynomial(2, {**one, x2: 1.0})),        # 1 + x2
        (((0, 0), (0, -1), (1, 0)), Polynomial(2, {**one, x1: -1.0, x2: 1.0})),  # 1 - x1 + x2
    ]
    return [
        (Simplex(tuple(tuple(float(c) for c in v) for v in verts)), poly)
        for verts, poly in tris
    ]


def build_element(preset: str) -> FiniteElement:
    """Construct a built-in element by name: 'hat1d', 'tensor(d)' or 'triangle2d'."""
    preset = preset.strip().lower()
    if preset == "hat1d" or preset.startswith("tensor"):
        if preset == "hat1d":  # the 1-D product element under its own name
            d, name = 1, "hat1d"
        else:
            arg = preset[len("tensor"):].strip("() ")
            try:
                d = int(arg)
            except ValueError as exc:
                raise ValueError(f"bad tensor dimension in preset {preset!r}") from exc
            if not 1 <= d <= 4:
                raise ValueError(f"tensor element dimension must be in 1..4, got {d}")
            name = f"tensor({d})"
        pieces = _tensor_pieces(d)
        lam = {(0,) * d}
        for k in range(d):
            for s in (-1, 1):
                lam.add(tuple(s if j == k else 0 for j in range(d)))
    elif preset == "triangle2d":
        pieces = _triangle_pieces()
        lam = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1)}
        name = "triangle2d"
        d = 2
    else:
        raise ValueError(f"unknown element preset {preset!r}")
    psi = PiecewisePolynomial(d, pieces)
    return finish_element(name, psi, lam)


def finish_element(name: str, psi: PiecewisePolynomial, lambda_set) -> FiniteElement:
    """Validate psi/Lambda and derive Gamma from support overlaps; an invalid
    Lambda is an ElementFormatError."""
    lam = frozenset(tuple(int(c) for c in v) for v in lambda_set)
    d = psi.d
    if (0,) * d not in lam:
        raise ElementFormatError("Lambda must contain the zero vector")
    if any(len(v) != d for v in lam):
        raise ElementFormatError("Lambda vectors must match the dimension of psi")
    if {tuple(-c for c in v) for v in lam} != lam:
        raise ElementFormatError("Lambda must be symmetric (Lambda = -Lambda)")
    element = FiniteElement(name=name, psi=psi, lambda_set=lam)
    gamma = tuple(sorted(compute_gamma(element)))
    return FiniteElement(name=name, psi=psi, lambda_set=lam, gamma=gamma)


# ---------------------------------------------------------------------------
# lattice generated by Lambda, neighbor set Gamma
# ---------------------------------------------------------------------------


def lattice_points_in_box(lambda_set, lo, hi) -> list[tuple[int, ...]]:
    """Integer-combination closure of Lambda intersected with box [lo, hi].

    Breadth-first search over sums of Lambda vectors, one frontier array per
    step; since Lambda = -Lambda the closure is the subgroup generated by
    Lambda, and restricting each step to the box plus a one-generator margin
    reaches every group point inside the box.  Points come in lexicographic
    order.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = len(lo)
    lam = np.array(list(lambda_set), dtype=int).reshape(-1, d)
    margin = max((abs(c) for v in lambda_set for c in v), default=0)
    # the integer points of the box widened by the margin, as a boolean grid
    first = np.ceil(lo - margin).astype(int)
    extent = np.maximum(np.floor(hi + margin).astype(int) - first + 1, 0)

    def grid_of(points: np.ndarray) -> np.ndarray:
        offset = points - first
        grid = np.zeros(extent, dtype=bool)
        grid[tuple(offset[np.all((offset >= 0) & (offset < extent), axis=1)].T)] = True
        return grid

    frontier = np.zeros((1, d), dtype=int)
    reached = grid_of(frontier)
    while frontier.size:
        new = grid_of((frontier[:, None, :] + lam).reshape(-1, d)) & ~reached
        reached |= new
        frontier = np.argwhere(new) + first
    points = np.argwhere(reached) + first
    inside = np.all((points >= lo) & (points <= hi), axis=1)
    return [tuple(p) for p in points[inside].tolist()]


def support_overlap_measure(element: FiniteElement, lam: tuple[int, ...]) -> float:
    """Lebesgue measure of supp(psi shifted by lam) intersected with supp(psi):
    the total volume of the parts of PiecewisePolynomial.overlaps(lam)."""
    return sum((part.volume() for _, _, part in element.psi.overlaps(lam)), 0.0)


def compute_gamma(element: FiniteElement) -> list[tuple[int, ...]]:
    """The shifts lam of the Lambda lattice whose translated support overlaps
    supp(psi) in more than 1e-12 measure.

    Candidates are the lattice points of [lo - hi, hi - lo] for the support's
    bounding box [lo, hi]; each is measured by support_overlap_measure.
    """
    lo, hi = element.psi.support_bbox()
    candidates = lattice_points_in_box(element.lambda_set, lo - hi, hi - lo)
    return [lam for lam in candidates if support_overlap_measure(element, lam) > 1e-12]


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------


def validate_element_structure(element: FiniteElement) -> float:
    """Geometric sanity only: disjoint cells, continuity across faces.

    These failures mean the element file itself is malformed; the analytic
    assumptions (symmetry, normalisation, compatibility) are reported by the
    checker instead of raised here.
    """
    element.psi.check_disjoint()
    return element.psi.check_continuity()


def validate_element(element: FiniteElement) -> dict[str, float]:
    """Check the element invariants; returns the residuals that were measured.

    Verifies cell disjointness, continuity across faces, psi(-x) = psi(x) at
    200 sampled points (a fixed seed), and the normalisation integral of psi
    to 1e-10.  Raises GeometryError / ElementFormatError when a check fails.
    Lambda = -Lambda is finish_element's rule, so every element has it.
    """
    psi = element.psi
    jump = validate_element_structure(element)
    lo, hi = psi.support_bbox()
    pts = lo + np.random.default_rng(0).random((200, element.d)) * (hi - lo)
    sym_residual = float(np.max(np.abs(psi.eval_many(pts) - psi.eval_many(-pts))))
    if sym_residual > 1e-9:
        raise ElementFormatError(f"psi(-x) != psi(x): residual {sym_residual:.3e}")
    mass = psi.integral()
    if abs(mass - 1.0) > 1e-10:
        raise ElementFormatError(f"psi does not integrate to 1: got {mass!r}")
    return {"continuity_jump": jump, "symmetry": sym_residual, "mass_defect": abs(mass - 1.0)}


# ---------------------------------------------------------------------------
# element definition files
# ---------------------------------------------------------------------------

ELEMENT_FORMAT_DOC = """\
Element files are UTF-8 key-value text.  Header keys precede [cell] blocks:

    d = 2
    name = my-element
    lambda = (0,0) (1,0) (-1,0) (0,1) (0,-1)

    [cell]
    type = box
    lo = -1 0
    hi = 0 1
    poly = 0,0: 1  1,0: 1/2

    [cell]
    type = simplex
    vertices = 0 0 ; 1 0 ; 1 1
    poly = 0,0: 1  1,0: -1

d is an integer.  A simplex cell is a triangle, so `type = simplex` is 2-D
only; use `type = box` in every other dimension.  Numbers may be decimals or
rationals like 2/3.  Polynomial terms map an exponent tuple of
non-negative integers to a coefficient.  Lines starting with '#' are comments.
"""


def parse_element_text(text: str) -> FiniteElement:
    """Parse the documented element file format; see ELEMENT_FORMAT_DOC."""
    header, cells = read_key_values(text, ElementFormatError, section="[cell]")
    if "d" not in header:
        raise ElementFormatError("missing header key 'd'")
    d = parse_integer("d", header["d"], ElementFormatError)
    if d < 1:
        raise ElementFormatError("element dimension must be >= 1")
    if "lambda" not in header:
        raise ElementFormatError("missing header key 'lambda'")
    lam = _parse_lambda(header["lambda"], d)
    if not cells:
        raise ElementFormatError("element file defines no [cell] blocks")
    pieces = [_parse_cell(block, d) for block in cells]
    name = header.get("name", "custom")
    element = finish_element(name, PiecewisePolynomial(d, pieces), lam)
    return element


def _parse_lambda(text: str, d: int) -> set[tuple[int, ...]]:
    out = set()
    for chunk in text.replace("(", " ").replace(")", " ").split():
        parts = chunk.split(",")
        if len(parts) != d:
            raise ElementFormatError(f"lambda entry {chunk!r} is not {d}-dimensional")
        try:
            out.add(tuple(int(p) for p in parts))
        except ValueError:
            raise ElementFormatError(f"non-integer lambda entry {chunk!r}") from None
    return out


def _parse_cell(block: dict[str, str], d: int) -> tuple[Cell, Polynomial]:
    kind = block.get("type", "box").strip().lower()
    if "poly" not in block:
        raise ElementFormatError("cell block missing 'poly'")
    poly = _parse_poly(block["poly"], d)
    if kind == "box":
        try:
            lo = _parse_point(block["lo"])
            hi = _parse_point(block["hi"])
        except KeyError as exc:
            raise ElementFormatError(f"box cell missing {exc.args[0]!r}") from None
        if len(lo) != d or len(hi) != d:
            raise ElementFormatError("box corners must match dimension")
        try:
            return Box(lo, hi), poly
        except GeometryError as exc:
            raise ElementFormatError(str(exc)) from None
    if kind == "simplex":
        if "vertices" not in block:
            raise ElementFormatError("simplex cell missing 'vertices'")
        verts = []
        for chunk in block["vertices"].split(";"):
            coords = _parse_point(chunk)
            if len(coords) != d:
                raise ElementFormatError(f"simplex vertex {chunk.strip()!r} has wrong dimension")
            verts.append(coords)
        try:
            return Simplex(tuple(verts)), poly
        except GeometryError as exc:
            raise ElementFormatError(str(exc)) from None
    raise ElementFormatError(f"unknown cell type {kind!r}")


def _parse_point(text: str) -> tuple[float, ...]:
    try:
        return tuple(parse_number(v) for v in text.split())
    except ValueError as exc:
        raise ElementFormatError(f"bad coordinate in {text.strip()!r}: {exc}") from None


def _parse_poly(text: str, d: int) -> Polynomial:
    import re

    terms = list(re.finditer(r"(\S+?)\s*:\s*(\S+)", text))
    coeffs: dict[tuple[int, ...], float] = {}
    for match in terms:
        expo_text, coeff_text = match.group(1), match.group(2)
        parts = expo_text.split(",")
        if len(parts) != d:
            raise ElementFormatError(f"exponent {expo_text!r} is not {d}-dimensional")
        try:
            expo = tuple(int(p) for p in parts)
            coeff = parse_number(coeff_text)
        except ValueError:
            raise ElementFormatError(f"bad polynomial term {match.group(0)!r}") from None
        if any(e < 0 for e in expo):
            raise ElementFormatError(f"negative exponent in polynomial term {match.group(0)!r}")
        coeffs[expo] = coeffs.get(expo, 0.0) + coeff
    # every non-blank character must belong to some term
    leftover = len("".join(text.split())) - sum(len("".join(m.group(0).split())) for m in terms)
    if leftover or not coeffs:
        raise ElementFormatError(f"bad polynomial term in {text.strip()!r}")
    return Polynomial(d, coeffs)
