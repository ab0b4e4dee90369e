"""The element layer's array geometry against the scalar code it replaced.

Each oracle below is the per-point or all-pairs loop that containment, the
piecewise evaluation, the overlap measure, the continuity check, the overlap
tables and the lattice-point search used before they worked on arrays, and
the per-cell quadrature of psi that the mollifier used before it came from
the zero shift's overlap table.  The
array code must agree with them exactly (``==``) on every built-in element
and on the element-file fixtures of the suite.

Four more oracles are the lattice-wide code that the cell quadrature, the
CSR column pattern, the stencil assembly and the solver's per-mode blocks
replaced: row-wise ``np.unique`` and ``np.add.at`` scatters into dense
(cell shift, zeta, offset) tables, one ``ravel_multi_index`` per offset, sums
over full-lattice arrays of the quadrature's (cell shift, offset) pair columns,
each column rolled on its own, and one ``ravel_multi_index`` over the spectrum
per shift group.  Their arrays must be ``==`` to the current ones, dtype and
sign bits included; the quadrature's pair columns are compared spread to the
dense layout.
"""

import functools

import numpy as np
import pytest
import scipy.sparse

from femspde import assembly, expr, integrator
from femspde.assembly import assemble_drift, assemble_noise, mollify_data
from femspde.elements import (
    build_element,
    compute_gamma,
    lattice_points_in_box,
    parse_element_text,
    support_overlap_measure,
)
from femspde.polynomials import (
    Box,
    GeometryError,
    PiecewisePolynomial,
    Polynomial,
    Simplex,
    _boundary_samples,
    cell_quadrature,
    intersect_cells,
)
from femspde.lattice import build_torus
from femspde.problem import parse_problem_text
from femspde.tensors import (
    build_cell_quadrature,
    build_overlap_tables,
    compute_reference_tensors,
    default_quad_degree,
)

from .test_assembly import ORACLE_PROBLEMS, SPLIT_HAT, csr, full_coef
from .test_cli import SCALED_ELEMENT
from .test_elements import ELEMENT_TEXT
from .test_integrator import DET2D, split_system

# triangle2d written out as an element file, each vertex list starting at a
# different corner than the preset's
TRIANGLE_FILE = """\
d = 2
name = triangle-file
lambda = (0,0) (1,0) (-1,0) (0,1) (0,-1)
[cell]
type = simplex
vertices = 1 1 ; 0 0 ; 1 0
poly = 0,0: 1  1,0: -1
[cell]
type = simplex
vertices = 0 1 ; 0 0 ; 1 1
poly = 0,0: 1  0,1: -1
[cell]
type = simplex
vertices = 0 0 ; 0 1 ; -1 0
poly = 0,0: 1  1,0: 1  0,1: -1
[cell]
type = simplex
vertices = -1 -1 ; 0 0 ; -1 0
poly = 0,0: 1  1,0: 1
[cell]
type = simplex
vertices = -1 -1 ; 0 -1 ; 0 0
poly = 0,0: 1  0,1: 1
[cell]
type = simplex
vertices = 1 0 ; 0 0 ; 0 -1
poly = 0,0: 1  1,0: -1  0,1: 1
"""

PRESETS = ["hat1d", "tensor(1)", "tensor(2)", "tensor(3)", "tensor(4)", "triangle2d"]
FILES = {"custom-hat": ELEMENT_TEXT, "scaled-hat": SCALED_ELEMENT, "split-hat": SPLIT_HAT,
         "triangle-file": TRIANGLE_FILE}
CASES = PRESETS + sorted(FILES) + ["skew-hat"]


@pytest.fixture(scope="module")
def elements(skew_hat_text):
    out = {name: build_element(name) for name in PRESETS}
    out.update({name: parse_element_text(text) for name, text in FILES.items()})
    out["skew-hat"] = parse_element_text(skew_hat_text)
    return out


@pytest.fixture(scope="module")
def tensors(elements):
    """Each case's reference tensors at the default Gauss degree, built on first
    use and shared by the tests of this module (none patches the degree)."""
    return functools.cache(lambda case: compute_reference_tensors(elements[case]))


# ---------------------------------------------------------------------------
# the scalar oracles
# ---------------------------------------------------------------------------


def point_in(cell, x, tol=1e-12):
    """The containment test of one point."""
    if isinstance(cell, Box):
        return all(l - tol <= xi <= h + tol for xi, l, h in zip(x, cell.lo, cell.hi))
    v = np.asarray(cell.verts, dtype=float)
    bary = np.linalg.solve((v[1:] - v[0]).T, np.asarray(x, dtype=float) - v[0])
    return bool(bary.min() >= -tol and bary.sum() <= 1 + tol)


def contains_oracle(cell, pts, tol=1e-12):
    """One containment test per point."""
    return np.array([point_in(cell, x, tol) for x in pts], dtype=bool)


def eval_oracle(psi, pts):
    """Each point takes the value of the first cell that contains it."""
    out = np.zeros(len(pts))
    for i, x in enumerate(pts):
        for cell, poly in psi.pieces:
            if point_in(cell, x):
                out[i] = poly(x)
                break
    return out


def overlap_measure_oracle(element, lam):
    """Intersect every cell of the shifted support with every cell of psi."""
    shift = np.asarray(lam, dtype=float)
    total = 0.0
    for cell, _ in element.psi.pieces:
        shifted = cell.translated(shift)
        for other, _ in element.psi.pieces:
            for part in intersect_cells(shifted, other):
                total += part.volume()
    return total


def continuity_oracle(psi):
    """Max jump, one boundary sample and one other cell at a time."""
    worst = 0.0
    for cell, poly in psi.pieces:
        for x in _boundary_samples(cell, 5):
            here = float(poly(x))
            for other_cell, other_poly in psi.pieces:
                if other_cell is cell:
                    continue
                if point_in(other_cell, x, tol=1e-10):
                    worst = max(worst, abs(here - float(other_poly(x))))
    return worst


def tables_oracle(element, quad_degree):
    """Every cell pair intersected; each part's basis values evaluated alone,
    psi_lam as psi at the points minus lam."""
    d = element.d
    derivatives = [[poly.derivative(k) for k in range(d)] for _, poly in element.psi.pieces]
    tables = {}
    for lam in element.gamma:
        shift = np.asarray(lam, dtype=float)
        parts = []
        for (cell_l, poly_l), dpolys_l in zip(element.psi.pieces, derivatives):
            shifted = cell_l.translated(shift)
            for (cell_0, poly_0), dpolys_0 in zip(element.psi.pieces, derivatives):
                for part in intersect_cells(shifted, cell_0):
                    pts, wts = cell_quadrature(part, quad_degree)
                    parts.append((pts, wts, poly_l.eval_many(pts - shift), poly_0.eval_many(pts),
                                  np.stack([p.eval_many(pts - shift) for p in dpolys_l]),
                                  np.stack([p.eval_many(pts) for p in dpolys_0])))
        if parts:
            columns = list(zip(*parts))
            tables[lam] = [np.concatenate(c, axis=-1 if k >= 4 else 0)
                           for k, c in enumerate(columns)]
    return tables


def mollifier_oracle(element, quad, quad_degree):
    """psi's cells integrated one at a time, each point's w psi added, in
    cell and point order, at its lattice cell and distinct zeta."""
    shift_row = {k: r for r, k in enumerate(quad.shifts)}
    zeta_row = {tuple(np.round(z, 12)): p for p, z in enumerate(quad.zeta)}
    out = np.zeros((len(quad.shifts), len(quad.zeta), 1))
    for cell, poly in element.psi.pieces:
        pts, wts = cell_quadrature(cell, quad_degree)
        for z, w in zip(pts, wts * poly.eval_many(pts)):
            k = np.floor(z)
            out[shift_row[tuple(int(c) for c in k)], zeta_row[tuple(np.round(z - k, 12))], 0] += w
    return out


def lattice_points_oracle(lambda_set, lo, hi):
    """Breadth-first search over a set of tuples, one point at a time."""
    lam = [np.asarray(v, dtype=int) for v in lambda_set]
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    margin = max((np.abs(v).max() for v in lam), default=0)
    zero = tuple(0 for _ in lo)
    seen = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for p in frontier:
            for v in lam:
                q = tuple((np.asarray(p) + v).tolist())
                if q in seen or np.any(np.asarray(q) < lo - margin) \
                        or np.any(np.asarray(q) > hi + margin):
                    continue
                seen.add(q)
                nxt.append(q)
        frontier = nxt
    return {p for p in seen if np.all(np.asarray(p) >= lo) and np.all(np.asarray(p) <= hi)}


def cell_quadrature_oracle(tensors):
    """Row-wise np.unique of the cell shifts and rounded zeta, and one np.add.at
    per kind and table into dense (..., K, P, G) arrays (the mollifier's G is 1);
    with them the shifts, zeta and the set of (k, g) that some table point reaches."""
    offsets, tables, d = tensors.gamma, tensors.tables, tensors.d
    points = np.concatenate([tables[lam].points for lam in offsets])
    cells = np.floor(points)
    frac = points - cells
    shifts, k_idx = np.unique(cells.astype(int), axis=0, return_inverse=True)
    _, first, p_idx = np.unique(np.round(frac, 12), axis=0, return_index=True,
                                return_inverse=True)
    k_idx, p_idx = k_idx.reshape(-1), p_idx.reshape(-1)
    K, P, G = len(shifts), len(first), len(offsets)
    dense = {"diffusion": np.zeros((d, d, K, P, G)), "transport": np.zeros((d, K, P, G)),
             "reaction": np.zeros((K, P, G)), "mollifier": np.zeros((K, P, 1))}
    reached = set()
    start = 0
    for g, lam in enumerate(offsets):
        tab = tables[lam]
        stop = start + len(tab.weights)
        at = (k_idx[start:stop], p_idx[start:stop], g)
        reached |= {(int(k), g) for k in at[0]}
        w = tab.weights
        np.add.at(dense["diffusion"], (..., *at), w * tab.dpsi_l[None] * -tab.dpsi_0[:, None])
        np.add.at(dense["transport"], (..., *at), w * tab.dpsi_l * tab.psi_0)
        np.add.at(dense["reaction"], at, w * tab.psi_l * tab.psi_0)
        if lam == (0,) * d:
            np.add.at(dense["mollifier"], at[:2] + (0,), w * tab.psi_0)
        start = stop
    shifts = tuple(tuple(int(c) for c in k) for k in shifts)
    return shifts, frac[first], reached, dense


def dense_columns(columns, pairs, n_shifts, width):
    """(..., P, C) pair columns spread to the dense (..., K, P, width) layout, zero
    at every (k, g) that is not a pair."""
    out = np.zeros((*columns.shape[:-2], n_shifts, width, columns.shape[-2]))
    out[..., pairs[:, 0], pairs[:, 1], :] = np.swapaxes(columns, -1, -2)
    return np.swapaxes(out, -1, -2)


def pattern_oracle(lattice, offsets):
    """One ravel_multi_index over the sites per offset."""
    idx = lattice.multi_indices()
    cols = [np.ravel_multi_index(((idx + lam) % lattice.n).T, lattice.shape) for lam in offsets]
    nnz = len(idx) * len(offsets)
    dtype = np.int32 if nnz < 2**31 else np.int64
    indices = np.stack(cols, axis=1).reshape(-1).astype(dtype)
    return indices, np.arange(0, nnz + 1, len(offsets), dtype=dtype)


def mode_blocks_oracle(op, axes):
    """Every mode's block after a real FFT over `axes` as one complex CSC matrix,
    its columns one ravel_multi_index over the spectrum per shift group."""
    entries, shifts = integrator._mode_symbols(op, axes)
    shape = entries.shape[:-1]
    rows = np.indices(shape).reshape(len(shape), -1)
    cols = np.stack([np.ravel_multi_index(rows + lam[:, None], shape, mode="wrap")
                     for lam in np.asarray(shifts)], axis=1)
    total, width = cols.shape
    indptr = np.arange(0, total * width + 1, width)
    return scipy.sparse.csr_matrix((entries.reshape(-1), cols.reshape(-1), indptr),
                                   shape=(total, total)).tocsc()


def assemble_cells_oracle(quad, lattice, t, terms, pairs):
    """Every term added into one (*lattice.shape, C) array of pair columns, each
    column rolled over every axis by its cell shift, shift by shift."""
    combined = {}
    for ast, weights in terms:
        prev = combined.get(id(ast))
        combined[id(ast)] = (ast, weights if prev is None else prev[1] + weights)
    width = int(pairs[:, 1].max()) + 1
    if not combined:
        return np.moveaxis(np.zeros((*lattice.shape, width)), -1, 0)
    n_zeta, n_cols = len(quad.zeta), len(pairs)
    d, h = lattice.d, lattice.h
    axis = lattice.axis_coords()
    x = tuple(
        axis.reshape(tuple(-1 if j == k else 1 for j in range(d)) + (1,)) + h * quad.zeta[:, k]
        for k in range(d)
    )
    local = np.zeros((*lattice.shape, n_cols))
    for ast, w in combined.values():
        vals = expr.eval_many(ast, x, t)
        cells = vals.shape[:-1]
        vals = np.broadcast_to(vals, (*cells, n_zeta)).reshape(-1, n_zeta)
        local += (vals @ w).reshape(*cells, n_cols)
    out = np.zeros((*lattice.shape, width))
    for k, shift in enumerate(quad.shifts):
        for col in np.flatnonzero(pairs[:, 0] == k):
            out[..., pairs[col, 1]] += np.roll(local[..., col], tuple(-c for c in shift),
                                               axis=tuple(range(d)))
    return np.moveaxis(out, -1, 0)


# ---------------------------------------------------------------------------
# sample points
# ---------------------------------------------------------------------------


def sample_points(psi, count=400):
    """Random points around the support, cell corners (also moved out by
    exactly the containment tolerances), lattice points and boundary samples
    of every cell (faces shared by two cells included), at most `count` of
    the last kind."""
    rng = np.random.default_rng(7)
    lo, hi = psi.support_bbox()
    random = lo - 0.25 + rng.random((count, psi.d)) * (hi - lo + 0.5)
    corners = np.concatenate([psi.cell_lo - tol for tol in (0.0, 1e-12, 1e-10)]
                             + [psi.cell_hi + tol for tol in (0.0, 1e-12, 1e-10)])
    grid = np.stack(np.meshgrid(*[np.arange(np.floor(a) - 1, np.ceil(b) + 2)
                                  for a, b in zip(lo, hi)], indexing="ij"), -1)
    faces = np.concatenate([_boundary_samples(cell, 5) for cell, _ in psi.pieces])
    faces = faces[rng.permutation(len(faces))[:count]]
    return np.concatenate([random, corners, grid.reshape(-1, psi.d), faces])


# ---------------------------------------------------------------------------
# the array code against the oracles
# ---------------------------------------------------------------------------


def assert_identical(got, want):
    """== with the same dtype, shape and sign bits."""
    assert got.dtype == want.dtype and got.shape == want.shape
    np.testing.assert_array_equal(got, want)
    np.testing.assert_array_equal(np.signbit(got), np.signbit(want))



@pytest.mark.parametrize("case", CASES)
class TestArrayGeometryMatchesOracles:
    def test_containment(self, elements, case):
        psi = elements[case].psi
        pts = sample_points(psi)
        for cell, _ in psi.pieces:
            for tol in (1e-12, 1e-10):
                got = cell.contains(pts, tol=tol)
                assert got.dtype == bool and got.shape == (len(pts),)
                np.testing.assert_array_equal(got, contains_oracle(cell, pts, tol))

    def test_evaluation(self, elements, case):
        psi = elements[case].psi
        pts = sample_points(psi)
        np.testing.assert_array_equal(psi.eval_many(pts), eval_oracle(psi, pts))

    def test_overlap_measure_and_gamma(self, elements, case):
        element = elements[case]
        lo, hi = element.psi.support_bbox()
        candidates = lattice_points_in_box(element.lambda_set, lo - hi, hi - lo)
        oracle = {lam: overlap_measure_oracle(element, lam) for lam in candidates}
        assert {lam: support_overlap_measure(element, lam) for lam in candidates} == oracle
        assert element.gamma == tuple(sorted(lam for lam, m in oracle.items() if m > 1e-12))
        assert sorted(compute_gamma(element)) == list(element.gamma)

    def test_continuity(self, elements, case):
        psi = elements[case].psi
        assert psi.check_continuity() == continuity_oracle(psi)

    def test_overlap_tables(self, elements, case):
        element = elements[case]
        degree = default_quad_degree(element)
        tables = build_overlap_tables(element, degree)
        oracle = tables_oracle(element, degree)
        assert list(tables) == list(oracle)
        for lam, tab in tables.items():
            got = [tab.points, tab.weights, tab.psi_l, tab.psi_0, tab.dpsi_l, tab.dpsi_0]
            for a, b in zip(got, oracle[lam]):
                assert a.shape == b.shape
                np.testing.assert_array_equal(a, b)

    def test_overlap_tables_hold_psi_at_shifted_points(self, elements, case):
        # psi_lam is psi at z - lam, bit for bit, and psi_0 is psi itself
        element = elements[case]
        for lam, tab in build_overlap_tables(element, default_quad_degree(element)).items():
            shifted = tab.points - np.asarray(lam, dtype=float)
            np.testing.assert_array_equal(tab.psi_l, element.psi.eval_many(shifted))
            np.testing.assert_array_equal(tab.psi_0, element.psi.eval_many(tab.points))

    def test_zero_shift_parts_are_the_cells(self, elements, case):
        # the mollifier's quadrature is the zero shift's table because each
        # cell overlaps itself alone, in one part that carries the cell's rule
        element = elements[case]
        psi, degree = element.psi, default_quad_degree(element)
        parts = psi.overlaps(np.zeros(psi.d))
        assert [(i, j) for i, j, _ in parts] == [(i, i) for i in range(len(psi.pieces))]
        for (cell, _), (_, _, part) in zip(psi.pieces, parts):
            for got, own in zip(cell_quadrature(part, degree), cell_quadrature(cell, degree)):
                assert got.shape == own.shape
                np.testing.assert_array_equal(got, own)

    def test_mollifier_is_psis_own_quadrature(self, elements, tensors, case):
        element = elements[case]
        quad = tensors(case).quad
        oracle = mollifier_oracle(element, quad, tensors(case).quad_degree)
        assert_identical(
            dense_columns(quad.mollifier, quad.mollifier_pairs, len(quad.shifts), 1), oracle)

    def test_cell_quadrature(self, tensors, case):
        got = build_cell_quadrature(tensors(case))
        shifts, zeta, reached, dense = cell_quadrature_oracle(tensors(case))
        assert got.offsets == tensors(case).gamma and got.shifts == shifts
        assert_identical(got.zeta, zeta)
        K, G = len(shifts), len(got.offsets)
        # the pairs are exactly the reached (k, g), in flat k * G + g order
        assert got.pairs.tolist() == sorted(map(list, reached))
        assert got.mollifier_pairs.tolist() == [[k, 0] for k in range(K)]
        # one component at a time keeps tensor(4)'s dense arrays to one copy
        for name in ("diffusion", "transport", "reaction"):
            columns = getattr(got, name)
            for index in np.ndindex(columns.shape[:-2]):
                assert_identical(dense_columns(columns[index], got.pairs, K, G),
                                 dense[name][index])
        assert_identical(dense_columns(got.mollifier, got.mollifier_pairs, K, 1),
                         dense["mollifier"])

    def test_pattern(self, elements, case):
        element = elements[case]
        for n in (4, 6, 16) if element.d < 4 else (4, 6):
            lattice = build_torus(element.d, 1.0, n)
            for got, want in zip(integrator._columns(lattice.shape, element.gamma),
                                 pattern_oracle(lattice, element.gamma)):
                assert_identical(got, want)

    def test_lattice_points(self, elements, case):
        element = elements[case]
        lo, hi = element.psi.support_bbox()
        for box in ((lo, hi), (lo - hi, hi - lo), (lo + 0.5, hi + 1.5)):
            got = lattice_points_in_box(element.lambda_set, *box)
            assert got == sorted(got)
            assert set(got) == lattice_points_oracle(element.lambda_set, *box)


def quadrature_bytes(quad):
    return sum(value.nbytes for value in vars(quad).values() if isinstance(value, np.ndarray))


@pytest.mark.parametrize("case, pairs, bound", [("tensor(3)", 64, 1.0e6), ("tensor(4)", 256, 60e6)])
def test_quadrature_stores_only_reached_pairs(tensors, case, pairs, bound):
    # 64 of the 8 * 27 (k, g) pairs of tensor(3) and 256 of the 16 * 81 of tensor(4)
    # are reached; the dense (..., K, P, G) tables took 2.82e6 and 282e6 bytes
    quad = tensors(case).quad
    assert len(quad.pairs) == pairs
    assert quadrature_bytes(quad) <= bound


def test_cell_quadrature_builds_no_dense_table(tensors):
    # numpy reports its allocations to tracemalloc; on tensor(3) the returned
    # arrays take 0.84e6 bytes, a dense (d, d, K, P, G) diffusion table alone
    # 1.94e6, and building the dense tables peaked at 3.0e6
    import tracemalloc

    build_cell_quadrature(tensors("tensor(3)"))  # imports outside the measurement
    tracemalloc.start()
    try:
        quad = build_cell_quadrature(tensors("tensor(3)"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert quadrature_bytes(quad) < 0.9e6
    assert peak < 1.5e6


TENSOR3_X1 = 'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1"\nc = "-0.2"'
TENSOR3_X1_X3 = 'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1 + 0.1*sin(x3)"\nc = "-0.2"'
TRIANGLE_X2 = 'd = 2\na.1.1 = "1"\na.2.2 = "1 + 0.25*cos(x2)"\nb.1 = "0.3"\nc = "-0.2"'


@pytest.mark.parametrize("preset, n, text, axes", [
    ("tensor(2)", 4, DET2D, (1,)),
    ("tensor(2)", 8, DET2D, (1,)),
    ("tensor(2)", 16, DET2D, (1,)),
    ("tensor(3)", 6, TENSOR3_X1_X3, (1,)),
    ("tensor(3)", 6, TENSOR3_X1, (1, 2)),
    ("triangle2d", 8, TRIANGLE_X2, (0,)),
], ids=["tensor2-4", "tensor2-8", "tensor2-16", "tensor3-x2", "tensor3-x2-x3", "triangle2d-x1"])
def test_mode_blocks(preset, n, text, axes):
    op = split_system(preset, n, text)
    assert tuple(k for k, size in enumerate(op.compact.shape[:-1]) if size == 1) == axes
    got, want = integrator._mode_blocks(op, axes), mode_blocks_oracle(op, axes)
    for part in (np.real, np.imag):
        assert_identical(part(got.data), part(want.data))
    assert_identical(got.indices, want.indices)
    assert_identical(got.indptr, want.indptr)


def span_problem(d, span):
    """Every coefficient and field a product of t-dependent cosines over the axes
    of span (a function of t alone when span is empty)."""
    v = "*".join(f"cos(x{k + 1} + {0.1 * (k + 1)}*t)" for k in span) or "(1 + t)"
    lines = [f"d = {d}"] + [f'a.{k}.{k} = "1 + 0.25*{v}"' for k in range(1, d + 1)]
    lines += [f'a.1.2 = "0.1*{v}"'] if d > 1 else []
    lines += [f'b.{k} = "0.1*{v}"' for k in range(1, d + 1)]
    lines += [f'c = "-0.2*{v}"', f'sigma.1.1 = "0.3*{v}"', f'nu.1 = "0.2*{v}"', f'f = "{v}"',
              f'g.1 = "0.5*{v}"', f'phi = "{v}"']
    return parse_problem_text("\n".join(lines))


def spans(d):
    """No axis, the first, the last, the first and last, and every axis."""
    return sorted({(), (0,), (d - 1,), (0, d - 1), tuple(range(d))})


@pytest.mark.parametrize("case", [c for c in CASES if c != "tensor(4)"])
def test_assembly_matches_full_lattice_oracle(tensors, case, monkeypatch):
    # drift, noise and mollified data of coefficients spanning every set of
    # axes, and of the mixed problems of test_assembly, bit for bit
    tensors = tensors(case)
    d = tensors.d
    problems = [span_problem(d, span) for span in spans(d)]
    problems.append(parse_problem_text(ORACLE_PROBLEMS[d]))

    def build(lattice, problem):
        return [csr(assemble_drift(tensors, problem, lattice, 0.3)).data,
                csr(assemble_noise(tensors, problem, lattice, 0.3, 1)).data,
                *(mollify_data(field, tensors, lattice, 0.3).values
                  for field in (problem.phi, problem.f, problem.g[1]))]

    for n in (4, 6, 10, 16):
        lattice = build_torus(d, 2 * np.pi / n, n)
        got = [build(lattice, problem) for problem in problems]
        with monkeypatch.context() as patch:
            patch.setattr(assembly, "_assemble_cells", assemble_cells_oracle)
            want = [build(lattice, problem) for problem in problems]
        for arrays, oracles in zip(got, want):
            for a, b in zip(arrays, oracles):
                assert_identical(a, b)


SLAB_PROBLEM = ('d = 2\na.1.1 = "1 + 0.25*cos(x1)*sin(x2)"\na.1.2 = "0.1*sin(x1 + x2)"\n'
                'a.2.2 = "1"\nb.1 = "0.1*cos(x2)"\nb.2 = "0.2*sin(x1)"\nc = "-0.2"\n'
                'phi = "sin(x1)*cos(x2)"\n')


def test_slabs_match_whole_array_oracle(tensors, monkeypatch):
    # 200 rows of cells on tensor(2) run as 15 slabs of 13 rows and one of 5
    tensors = tensors("tensor(2)")
    n = 200
    lattice = build_torus(2, 2 * np.pi / n, n)
    rows = assembly.SLAB_VALUES // (len(tensors.quad.zeta) * n)
    assert rows == 13 and n % rows
    problem = parse_problem_text(SLAB_PROBLEM)

    def build():
        return [full_coef(assemble_drift(tensors, problem, lattice, 0.0)),
                mollify_data(problem.phi, tensors, lattice).values]

    got = build()
    monkeypatch.setattr(assembly, "_assemble_cells", assemble_cells_oracle)
    for a, b in zip(got, build()):
        scale = float(np.max(np.abs(b)))
        assert scale > 0.0
        np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-14 * scale)


def test_error_in_last_slab_keeps_its_message(tensors, monkeypatch):
    # sqrt(199.5 h - x1) is negative only at points of the last row of cells
    tensors = tensors("tensor(2)")
    n = 200
    lattice = build_torus(2, 2 * np.pi / n, n)
    bound = 199.5 * lattice.h
    x1 = lattice.axis_coords()[:, None] + lattice.h * tensors.quad.zeta[:, 0]
    assert set(np.nonzero(x1 > bound)[0]) == {n - 1}
    field = expr.parse(f"sqrt({bound!r} - x1) * cos(x2)")
    messages = []
    for cells in (assembly._assemble_cells, assemble_cells_oracle):
        monkeypatch.setattr(assembly, "_assemble_cells", cells)
        with pytest.raises(expr.EvalError) as info:
            mollify_data(field, tensors, lattice)
        messages.append(str(info.value))
    assert messages == ["sqrt of a negative value"] * 2


def test_x1_free_subtrees_are_evaluated_once(tensors, monkeypatch):
    # SLAB_PROBLEM's drift and phi in 16 slabs: sin(x2) of a.1.1 and cos(x2) of
    # phi are evaluated once per assembly, and every result is == the one that
    # evaluates them in each slab; eval_many still runs once per slab
    tensors = tensors("tensor(2)")
    n = 200
    lattice = build_torus(2, 2 * np.pi / n, n)
    problem = parse_problem_text(SLAB_PROBLEM)
    free = [problem.a[1, 1].right.right, problem.phi.right]
    assert [expr.axes(ast) for ast in free] == [{2}, {2}]
    nodes, calls = [], []
    real_eval, real_many = expr._eval, expr.eval_many

    def counting_eval(ast, *args):
        nodes.append(ast)
        return real_eval(ast, *args)

    def counting_many(ast, *args):
        calls.append(ast)
        return real_many(ast, *args)

    monkeypatch.setattr(expr, "_eval", counting_eval)
    monkeypatch.setattr(expr, "eval_many", counting_many)
    results, counts = [], []
    for _ in range(2):
        nodes.clear(), calls.clear()
        results.append([full_coef(assemble_drift(tensors, problem, lattice, 0.0)),
                        mollify_data(problem.phi, tensors, lattice).values])
        # a subtree taken from eval_free's values does not evaluate its argument
        counts.append(([sum(node is ast.arg for node in nodes) for ast in free],
                       [sum(call is ast for call in calls) for ast in (problem.a[1, 1], problem.phi)]))
        monkeypatch.setattr(expr, "eval_free", lambda ast, x, t, axis: {})
    assert counts == [([1, 1], [16, 16]), ([16, 16], [16, 16])]
    for got, want in zip(*results):
        assert_identical(got, want)


@pytest.mark.parametrize("source, message", [
    ("1 / (x2 - x2) + sqrt(x1 - 100)", "division by zero"),
    ("sqrt(x1 - 100) + 1 / (x2 - x2)", "sqrt of a negative value"),
])
def test_x1_free_error_is_raised_where_evaluation_reaches_it(tensors, monkeypatch, source, message):
    tensors = tensors("tensor(2)")
    lattice = build_torus(2, 2 * np.pi / 8, 8)
    for known in (expr.eval_free, lambda ast, x, t, axis: {}):
        monkeypatch.setattr(expr, "eval_free", known)
        with pytest.raises(expr.EvalError, match=message):
            mollify_data(expr.parse(source), tensors, lattice)


def test_lattice_points_of_a_sublattice():
    # Lambda generates only the points of even coordinate sum; the margin of
    # the search keeps every such point of the box reachable
    lam = {(0, 0), (1, 1), (-1, -1), (1, -1), (-1, 1)}
    for box in (([-2, -2], [2, 2]), ([0.5, -3], [3.5, 0]), ([0.2, 0.2], [0.8, 0.8])):
        got = lattice_points_in_box(lam, *box)
        assert set(got) == lattice_points_oracle(lam, *box)
    # (2, 0) is reached only through (1, 1) or (1, -1), outside the box
    assert lattice_points_in_box(lam, [0.5, -0.2], [3.5, 0.2]) == [(2, 0)]
    assert lattice_points_in_box({(0,)}, [0.2], [0.8]) == []


# ---------------------------------------------------------------------------
# faces and jumps
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cells", [
    [Box((-1.0, 0.0), (0.0, 1.0)), Box((0.0, 0.0), (1.0, 1.0))],
    [Simplex(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0))), Simplex(((0.0, 0.0), (1.0, 1.0), (0.0, 1.0)))],
], ids=["boxes", "triangles"])
class TestSharedFaces:
    def test_face_point_takes_first_containing_cell(self, cells):
        one, two = Polynomial(2, {(0, 0): 1.0}), Polynomial(2, {(0, 0): 2.0})
        face = _boundary_samples(cells[0], 5)
        on_both = face[cells[1].contains(face)]
        assert len(on_both) == 5
        forward = PiecewisePolynomial(2, [(cells[0], one), (cells[1], two)])
        backward = PiecewisePolynomial(2, [(cells[1], two), (cells[0], one)])
        assert list(forward.eval_many(on_both)) == [1.0] * 5
        assert list(backward.eval_many(on_both)) == [2.0] * 5
        np.testing.assert_array_equal(forward.eval_many(face), eval_oracle(forward, face))
        np.testing.assert_array_equal(backward.eval_many(face), eval_oracle(backward, face))

    def test_discontinuity_raises_with_the_oracle_jump(self, cells):
        # psi jumps by 0.25 x2 across the shared face
        left = Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0})
        right = Polynomial(2, {(0, 0): 1.0, (1, 0): 1.0, (0, 1): 0.25})
        psi = PiecewisePolynomial(2, [(cells[0], left), (cells[1], right)])
        jump = continuity_oracle(psi)
        assert jump > 1e-9
        with pytest.raises(GeometryError, match=f"discontinuity of size {jump:.3e} "):
            psi.check_continuity()
