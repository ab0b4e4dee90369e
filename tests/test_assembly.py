import numpy as np
import pytest

from femspde import expr
from femspde.assembly import (
    AssembledProblem,
    StencilOperator,
    assemble_drift,
    assemble_mass,
    assemble_noise,
    mollify_data,
)
from femspde.checks import check_invertibility
from femspde.elements import build_element, parse_element_text
from femspde.integrator import LinearSolver, SolverError, _csr, _mode_symbols, implicit_system
from femspde.lattice import GridFunction, build_torus
from femspde.polynomials import cell_quadrature
from femspde.problem import parse_problem_text
from femspde.tensors import build_overlap_tables, compute_reference_tensors


def full_coef(op):
    """op's coefficients at every site: a read-only (G, *lattice.shape)
    broadcast view of op.compact."""
    full = np.broadcast_to(op.compact, (*op.lattice.shape, len(op.offsets)))
    return np.moveaxis(full, -1, 0)


def csr(op):
    """op's CSR matrix by the rule of BiCGStab's (integrator._csr): op.compact
    broadcast over the lattice, one row of G entries per site."""
    return _csr(np.broadcast_to(op.compact, (*op.lattice.shape, len(op.offsets))), op.offsets)


def dense_from_stencil(op):
    """Independent dense build: loops over sites and offsets by hand."""
    lat = op.lattice
    n, d = lat.n, lat.d
    total = lat.total_sites
    mat = np.zeros((total, total))
    coef = full_coef(op)
    for row, mi in enumerate(np.ndindex(*lat.shape)):
        for k, lam in enumerate(op.offsets):
            col_mi = tuple((mi[a] + lam[a]) % n for a in range(d))
            col = int(np.ravel_multi_index(col_mi, lat.shape))
            mat[row, col] += coef[(k, *mi)]
    return mat


def dense(op):
    """Explicit matrix of a stencil operator in C-order flat site indexing, for
    small lattices; its columns come from the offsets, not from _csr."""
    lat = op.lattice
    idx = lat.multi_indices()
    rows = np.arange(lat.total_sites)
    mat = np.zeros((lat.total_sites, lat.total_sites))
    coef = full_coef(op)
    for k, lam in enumerate(op.offsets):
        cols = np.ravel_multi_index(((idx + np.asarray(lam)) % lat.n).T, lat.shape)
        mat[rows, cols] += coef[k].reshape(-1)
    return mat


def _at_offsets(ast, lattice, h, z, t):
    """Coefficient at mod(x + h z, L) for every site x and point z; (sites, points)."""
    pts = np.mod(lattice.coords()[:, None, :] + h * z[None, :, :], lattice.L)
    flat = pts.reshape(-1, lattice.d)
    vals = np.broadcast_to(expr.eval_many(ast, tuple(flat.T), t), (len(flat),))
    return vals.reshape(lattice.total_sites, -1)


def raw_stencil(tables, lattice, h, t, terms):
    """The raw per-offset formula at the signed step h: each overlap table
    evaluates its own coefficient points mod(x + h z, L).

    `terms` pairs an AST with basis(table, h) -> (m,) integrand weights."""
    offsets = tuple(sorted(tables))
    coef = np.zeros((len(offsets), *lattice.shape))
    for k, lam in enumerate(offsets):
        tab = tables[lam]
        for ast, basis in terms:
            vals = _at_offsets(ast, lattice, h, tab.points, t)
            coef[k] += (vals @ (tab.weights * basis(tab, h))).reshape(lattice.shape)
    return coef


def drift_terms(problem):
    terms = [(ast, lambda tab, h, i=i, j=j: tab.dpsi_l[j - 1] * -tab.dpsi_0[i - 1] / h**2)
             for (i, j), ast in problem.a.items()]
    terms += [(ast, lambda tab, h, i=i: tab.dpsi_l[i - 1] * tab.psi_0 / h)
              for i, ast in problem.b.items()]
    if problem.c is not None:
        terms.append((problem.c, lambda tab, h: tab.psi_l * tab.psi_0))
    return terms


def noise_terms(problem, rho):
    terms = [(ast, lambda tab, h, i=i: tab.dpsi_l[i - 1] * tab.psi_0 / h)
             for (i, r), ast in problem.sigma.items() if r == rho]
    if rho in problem.nu:
        terms.append((problem.nu[rho], lambda tab, h: tab.psi_l * tab.psi_0))
    return terms


def raw_mollified(field, element, lattice, h, t, degree):
    """The raw mollifier at the signed step h: Gauss points of the element's
    own cells, at mod(x + h z, L)."""
    parts = [cell_quadrature(cell, degree) + (poly,) for cell, poly in element.psi.pieces]
    z = np.concatenate([pts for pts, _, _ in parts])
    w = np.concatenate([wts * poly.eval_many(pts) for pts, wts, poly in parts])
    return (_at_offsets(field, lattice, h, z, t) @ w).reshape(lattice.shape)


def assert_minus_h_identity(element, problem, lattice, t):
    """The raw formula at -h, built from the overlap tables, equals the
    assembled drift and noise stencils at the negated offset -lambda, and the
    assembled mollified phi, to 1e-13 of the largest entry: substituting
    z -> -z flips each shift, and psi's symmetry the odd-order terms with
    their 1/h.  The assembly itself only ever uses the lattice spacing h > 0."""
    tensors = compute_reference_tensors(element)
    tables = build_overlap_tables(element, tensors.quad_degree)
    h = -lattice.h

    def close(actual, expected):
        scale = float(np.max(np.abs(expected)))
        assert scale > 0.0
        np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-13 * scale)

    def at_negated_offsets(op):
        by_offset = dict(zip(op.offsets, full_coef(op)))
        return np.stack([by_offset[tuple(-c for c in lam)] for lam in sorted(tables)])

    close(raw_stencil(tables, lattice, h, t, drift_terms(problem)),
          at_negated_offsets(assemble_drift(tensors, problem, lattice, t)))
    for rho in problem.active_rhos():
        close(raw_stencil(tables, lattice, h, t, noise_terms(problem, rho)),
              at_negated_offsets(assemble_noise(tensors, problem, lattice, t, rho)))
    close(raw_mollified(problem.phi, element, lattice, h, t, tensors.quad_degree),
          mollify_data(problem.phi, tensors, lattice, t).values[0])


@pytest.fixture(scope="module")
def hat_setup():
    element = build_element("hat1d")
    tensors = compute_reference_tensors(element)
    lattice = build_torus(1, 2 * np.pi / 32, 32)
    return element, tensors, lattice


class TestMass:
    def test_constant_field_preserved(self, hat_setup):
        element, tensors, lattice = hat_setup
        mass = assemble_mass(tensors, lattice)
        u = GridFunction(lattice, np.ones(lattice.shape))
        np.testing.assert_allclose(mass.apply(u).values, 1.0, atol=1e-14)

    def test_spike_response(self, hat_setup):
        element, tensors, lattice = hat_setup
        mass = assemble_mass(tensors, lattice)
        spike = GridFunction(lattice, np.eye(lattice.n)[0])
        out = mass.apply(spike).values[0]
        assert out[0] == pytest.approx(2.0 / 3.0, abs=1e-14)
        assert out[1] == pytest.approx(1.0 / 6.0, abs=1e-14)
        assert out[-1] == pytest.approx(1.0 / 6.0, abs=1e-14)
        np.testing.assert_allclose(out[2:-1], 0.0, atol=1e-15)

    def test_matrix_symmetric(self, hat_setup):
        element, tensors, lattice = hat_setup
        mass = assemble_mass(tensors, lattice)
        mat = dense(mass)
        np.testing.assert_allclose(mat, mat.T, atol=1e-15)

    def test_smallest_eigenvalue_bounded_by_delta(self):
        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(1, 1.0 / 64.0, 64)
        mass = assemble_mass(tensors, lattice)
        delta = check_invertibility(tensors)
        eig_dense = float(np.linalg.eigvalsh(dense(mass)).min())
        assert eig_dense >= delta - 1e-10


class TestDrift:
    def test_laplacian_stencil(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"')
        drift = assemble_drift(tensors, problem, lattice, 0.0)
        h = lattice.h
        by_offset = dict(zip(drift.offsets, full_coef(drift)))
        np.testing.assert_allclose(by_offset[(0,)], -2.0 / h**2, rtol=1e-13)
        np.testing.assert_allclose(by_offset[(1,)], 1.0 / h**2, rtol=1e-13)
        np.testing.assert_allclose(by_offset[(-1,)], 1.0 / h**2, rtol=1e-13)

    def test_sine_is_discrete_eigenvector(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"')
        drift = assemble_drift(tensors, problem, lattice, 0.0)
        x = lattice.axis_coords()
        h = lattice.h
        u = GridFunction(lattice, np.sin(x))
        out = drift.apply(u).values[0]
        eigenvalue = (2.0 * np.cos(h) - 2.0) / h**2
        np.testing.assert_allclose(out, eigenvalue * np.sin(x), atol=1e-12)
        # second-order consistency with the continuum operator
        assert np.max(np.abs(out + np.sin(x))) <= h**2 / 12.0 * 1.01 + 1e-12

    def test_constants_in_kernel(self):
        for preset in ("hat1d", "tensor(2)", "triangle2d"):
            element = build_element(preset)
            tensors = compute_reference_tensors(element)
            lattice = build_torus(element.d, 0.5, 8)
            problem = parse_problem_text(
                'a.1.1 = "1"' if element.d == 1 else 'a.1.1 = "1"\na.2.2 = "1"\nd = 2'
            )
            drift = assemble_drift(tensors, problem, lattice, 0.0)
            u = GridFunction(lattice, np.ones(lattice.shape))
            np.testing.assert_allclose(drift.apply(u).values, 0.0, atol=1e-12)

    def test_pure_reaction_equals_mass(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "0"\nc = "1"')
        drift = assemble_drift(tensors, problem, lattice, 0.0)
        mass = assemble_mass(tensors, lattice)
        by_offset = dict(zip(drift.offsets, full_coef(drift)))
        for lam, entry in zip(mass.offsets, full_coef(mass)):
            np.testing.assert_allclose(by_offset[lam], entry, atol=1e-13)

    def test_pure_advection_centered_difference(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "0"\nb.1 = "1"')
        drift = assemble_drift(tensors, problem, lattice, 0.0)
        h = lattice.h
        by_offset = dict(zip(drift.offsets, full_coef(drift)))
        np.testing.assert_allclose(by_offset[(1,)], 0.5 / h, rtol=1e-13)
        np.testing.assert_allclose(by_offset[(-1,)], -0.5 / h, rtol=1e-13)
        np.testing.assert_allclose(by_offset[(0,)], 0.0, atol=1e-13)

    def test_translation_invariance_for_constant_coefficients(self):
        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(2, 0.25, 8)
        problem = parse_problem_text('a.1.1="2"\na.2.2="1"\na.1.2="0.25"\nb.1="0.3"\nc="1"\nd=2')
        drift = assemble_drift(tensors, problem, lattice, 0.0)
        for entries in full_coef(drift):
            spread = float(entries.max() - entries.min())
            assert spread <= 1e-11 * max(1.0, abs(float(entries.max())))


class TestNoise:
    def test_nu_only_equals_mass(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"\nnu.1 = "1"')
        noise = assemble_noise(tensors, problem, lattice, 0.0, 1)
        mass = assemble_mass(tensors, lattice)
        by_offset = dict(zip(noise.offsets, full_coef(noise)))
        for lam, entry in zip(mass.offsets, full_coef(mass)):
            np.testing.assert_allclose(by_offset[lam], entry, atol=1e-13)

    def test_sigma_centered_difference(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"\nsigma.1.1 = "1"')
        noise = assemble_noise(tensors, problem, lattice, 0.0, 1)
        h = lattice.h
        by_offset = dict(zip(noise.offsets, full_coef(noise)))
        np.testing.assert_allclose(by_offset[(1,)], 0.5 / h, rtol=1e-13)
        np.testing.assert_allclose(by_offset[(-1,)], -0.5 / h, rtol=1e-13)
        np.testing.assert_allclose(by_offset[(0,)], 0.0, atol=1e-13)

    def test_sigma_annihilates_constants(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"\nsigma.1.1 = "1"')
        noise = assemble_noise(tensors, problem, lattice, 0.0, 1)
        u = GridFunction(lattice, np.ones(lattice.shape))
        np.testing.assert_allclose(noise.apply(u).values, 0.0, atol=1e-13)

    def test_inactive_rho_gives_zero_stencil(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"\nsigma.1.1 = "1"', rho_max=2)
        noise = assemble_noise(tensors, problem, lattice, 0.0, 2)
        np.testing.assert_array_equal(full_coef(noise), 0.0)


class TestApply:
    def test_zero_operator(self, hat_setup):
        element, tensors, lattice = hat_setup
        op = StencilOperator(lattice, ((0,),), np.zeros((1, lattice.n)))
        u = GridFunction(lattice, np.arange(lattice.n, dtype=float))
        np.testing.assert_array_equal(op.apply(u).values, 0.0)

    def test_matches_independent_dense_matvec(self, rng):
        for preset in ("hat1d", "tensor(2)", "triangle2d"):
            element = build_element(preset)
            tensors = compute_reference_tensors(element)
            lattice = build_torus(element.d, 0.5, 8)
            text = (
                'a.1.1 = "1 + 0.5*cos(x1)"\nb.1 = "0.2"\nc = "0.1*sin(x1)"'
                if element.d == 1
                else 'a.1.1 = "1 + 0.5*cos(x1)"\na.2.2 = "1"\nb.1 = "0.2"\nc = "0.1*sin(x2)"\nd = 2'
            )
            problem = parse_problem_text(text)
            drift = assemble_drift(tensors, problem, lattice, 0.0)
            dense = dense_from_stencil(drift)
            for _ in range(5):
                u = GridFunction(lattice, rng.normal(size=lattice.shape))
                np.testing.assert_allclose(
                    drift.apply(u).values.ravel(), dense @ u.values.ravel(), atol=1e-13, rtol=1e-13
                )

    def test_linearity(self, hat_setup, rng):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1 + 0.5*cos(x1)"\nb.1 = "0.1"')
        op = assemble_drift(tensors, problem, lattice, 0.0)
        u = GridFunction(lattice, rng.normal(size=lattice.shape))
        v = GridFunction(lattice, rng.normal(size=lattice.shape))
        lhs = op.apply(GridFunction(lattice, 2.5 * u.values + (-1.25) * v.values)).values
        rhs = 2.5 * op.apply(u).values - 1.25 * op.apply(v).values
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_lattice_mismatch_rejected(self, hat_setup):
        element, tensors, lattice = hat_setup
        mass = assemble_mass(tensors, lattice)
        other = build_torus(1, lattice.h / 2, 2 * lattice.n)
        with pytest.raises(ValueError):
            mass.apply(GridFunction(other, np.zeros(other.shape)))
        with pytest.raises(ValueError):
            mass.apply(GridFunction(other, np.zeros((3, *other.shape))))

    def test_sample_block_matches_each_sample(self, rng):
        # a (samples, *shape) block gives each sample's own apply bit for bit
        for preset in ("hat1d", "tensor(2)"):
            element = build_element(preset)
            tensors = compute_reference_tensors(element)
            d = element.d
            lattice = build_torus(d, 0.5, 8)
            diffusion = "\n".join(f'a.{i}.{i} = "1 + 0.5*cos(x{i})"' for i in range(1, d + 1))
            problem = parse_problem_text(f'd = {d}\n{diffusion}\nb.1 = "0.2"')
            drift = assemble_drift(tensors, problem, lattice, 0.0)
            block = rng.normal(size=(4, *lattice.shape))
            got = drift.apply(GridFunction(lattice, block)).values
            assert got.shape == block.shape
            for sample, out in zip(block, got):
                want = drift.apply(GridFunction(lattice, sample)).values
                assert np.array_equal(out[None], want)


class TestMollify:
    def test_constant_preserved(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"\nphi = "1"')
        out = mollify_data(problem.phi, tensors, lattice)
        np.testing.assert_allclose(out.values, 1.0, atol=1e-13)

    def test_linear_preserved_away_from_wrap(self):
        tensors = compute_reference_tensors(build_element("hat1d"))
        lattice = build_torus(1, 0.25, 32)  # L = 8
        problem = parse_problem_text('a.1.1 = "1"\nphi = "x1"')
        out = mollify_data(problem.phi, tensors, lattice)
        x = lattice.axis_coords()
        interior = (x > 1.0) & (x < 7.0)
        np.testing.assert_allclose(out.values[0, interior], x[interior], atol=1e-12)

    def test_quadratic_second_moment(self):
        # second moment of the hat: int z^2 (1 - |z|) dz = 1/6
        tensors = compute_reference_tensors(build_element("hat1d"))
        lattice = build_torus(1, 0.25, 32)
        problem = parse_problem_text('a.1.1 = "1"\nphi = "x1^2"')
        out = mollify_data(problem.phi, tensors, lattice)
        x = lattice.axis_coords()
        interior = (x > 1.0) & (x < 7.0)
        expected = x[interior] ** 2 + lattice.h**2 / 6.0
        np.testing.assert_allclose(out.values[0, interior], expected, atol=1e-12)

    def test_sine_damping_factor(self, hat_setup):
        element, tensors, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1"\nphi = "sin(x1)"')
        out = mollify_data(problem.phi, tensors, lattice)
        h = lattice.h
        factor = 2.0 * (1.0 - np.cos(h)) / h**2  # cosine transform of the hat
        np.testing.assert_allclose(out.values[0], factor * np.sin(lattice.axis_coords()),
                                   atol=1e-12)


class TestConsistencyOrder:
    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d"])
    def test_second_order_consistency(self, preset):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        d = element.d
        if d == 1:
            text = 'a.1.1 = "1"\nb.1 = "0.3 + 0.1*sin(x1)"\nc = "0.5*cos(x1)"'

            def exact(x, u, du, lap):
                return lap + (0.3 + 0.1 * np.sin(x[:, 0])) * du[0] + 0.5 * np.cos(x[:, 0]) * u
        else:
            text = ('a.1.1 = "1"\na.2.2 = "1"\nb.1 = "0.3"\nb.2 = "-0.2"\n'
                    'c = "0.5*cos(x1)"\nd = 2')

            def exact(x, u, du, lap):
                return lap + 0.3 * du[0] - 0.2 * du[1] + 0.5 * np.cos(x[:, 0]) * u

        problem = parse_problem_text(text)
        errors = []
        for n in (16, 32):
            lattice = build_torus(d, 2 * np.pi / n, n)
            drift = assemble_drift(tensors, problem, lattice, 0.0)
            x = lattice.coords()
            if d == 1:
                u = np.sin(x[:, 0])
                du = [np.cos(x[:, 0])]
                lap = -np.sin(x[:, 0])
            else:
                u = np.sin(x[:, 0]) * np.cos(x[:, 1])
                du = [np.cos(x[:, 0]) * np.cos(x[:, 1]), -np.sin(x[:, 0]) * np.sin(x[:, 1])]
                lap = -2.0 * u
            target = exact(x, u, du, lap)
            out = drift.apply(GridFunction(lattice, u.reshape(lattice.shape))).values.ravel()
            errors.append(float(np.max(np.abs(out - target))))
        ratio = errors[0] / errors[1]
        assert 3.2 <= ratio <= 4.8  # halving h quarters the error, 20% slack


class TestSignInvariance:
    def test_signed_assembly_identity(self, hat_setup):
        # the change of variables z -> -z maps the raw formula at -h to the
        # +h stencil with the footprint shift negated; verify numerically
        element, _, lattice = hat_setup
        problem = parse_problem_text('a.1.1 = "1 + 0.25*cos(x1)"\nb.1 = "0.1"\n'
                                     'sigma.1.1 = "0.3*sin(x1)"\nphi = "sin(x1)"')
        assert_minus_h_identity(element, problem, lattice, 0.0)


class TestDiagnostics:
    def test_dimension_mismatch_rejected(self, hat_setup):
        element, tensors, lattice = hat_setup
        plane = parse_problem_text('d = 2\na.1.1 = "1"\na.2.2 = "1"')
        with pytest.raises(ValueError, match="problem.d = 2, tensors.d = 1, lattice.d = 1"):
            AssembledProblem(element, tensors, plane, lattice)
        line = parse_problem_text('a.1.1 = "1"')
        with pytest.raises(ValueError, match="problem.d = 1, tensors.d = 1, lattice.d = 2"):
            AssembledProblem(element, tensors, line, build_torus(2, 0.5, 8))

    def test_time_independent_operators_are_cached(self, hat_setup):
        # a result is kept unless an expression it is built from references t
        element, tensors, lattice = hat_setup
        text = ('a.1.1 = "{a}"\nsigma.1.1 = "{s}"\nsigma.1.2 = "0.1"\n'
                'f = "{f}"\ng.1 = "{g}"\nphi = "sin(x1)"')
        static = parse_problem_text(text.format(a="1", s="0.3", f="sin(x1)", g="0.1"))
        ap = AssembledProblem(element, tensors, static, lattice)
        assert ap.drift(0.0) is ap.drift(0.7)
        assert ap.noise(0.0, 1) is ap.noise(0.7, 1)
        assert ap.g_h(0.0, 1) is ap.g_h(0.7, 1)
        assert ap.phi_h() is ap.phi_h()
        assert not np.array_equal(full_coef(ap.noise(0.0, 1)), full_coef(ap.noise(0.0, 2)))
        assert not ap.g_h(0.0, 2).values.any()  # no g.2: one entry per index

        timed = parse_problem_text(
            text.format(a="1 + 0.1*t", s="0.3*t", f="sin(x1)*t", g="0.1*t"))
        ap = AssembledProblem(element, tensors, timed, lattice)
        for t in (0.0, 0.7):
            assert np.array_equal(full_coef(ap.drift(t)),
                                  full_coef(assemble_drift(tensors, timed, lattice, t)))
            assert np.array_equal(full_coef(ap.noise(t, 1)),
                                  full_coef(assemble_noise(tensors, timed, lattice, t, 1)))
            assert np.array_equal(ap.g_h(t, 1).values,
                                  mollify_data(timed.g[1], tensors, lattice, t).values)
        assert ap.noise(0.0, 2) is ap.noise(0.7, 2)  # sigma.1.2 does not reference t

    def test_scaled_add_needs_equal_footprints(self, hat_setup):
        element, tensors, lattice = hat_setup
        mass = assemble_mass(tensors, lattice)
        ident = StencilOperator(lattice, ((0,),), np.ones((1, lattice.n)))
        with pytest.raises(ValueError, match="footprints"):
            ident.scaled_add(1.0, mass, -0.5)
        drift = assemble_drift(tensors, parse_problem_text('a.1.1 = "1 + 0.5*cos(x1)"'),
                               lattice, 0.0)
        combo = mass.scaled_add(1.0, drift, -0.5)
        assert combo.offsets == mass.offsets == drift.offsets
        assert np.array_equal(full_coef(combo), full_coef(mass) - 0.5 * full_coef(drift))
        np.testing.assert_allclose(dense(combo),
                                   dense(mass) - 0.5 * dense(drift), atol=1e-12)


APPLY2D = ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1 + 0.1*sin(x2)"\nb.2 = "0.1*cos(x1)"\n'
           'sigma.1.1 = "0.2*cos(x2)"')


class TestMatrix:
    """Each operator applies from its compact coefficients as its CSR matrix would."""

    def test_duplicate_columns_agree_with_dense(self, rng):
        # on n = 4 the offsets -2 and 2 reach the same column; the matvec,
        # sparse LU and the averaged symbol must all sum the two entries
        lattice = build_torus(1, 0.5, 4)
        offsets = ((-2,), (0,), (2,))
        coef = np.stack([rng.uniform(0.1, 0.5, 4), rng.uniform(3.0, 4.0, 4),
                         rng.uniform(0.1, 0.5, 4)])
        op = StencilOperator(lattice, offsets, coef)
        mat = dense(op)
        u = rng.normal(size=4)
        np.testing.assert_allclose(op.apply(GridFunction(lattice, u)).values[0], mat @ u,
                                   rtol=1e-14, atol=1e-14)
        solver = LinearSolver(op)
        assert solver.direct
        np.testing.assert_allclose(solver.solve(u[None])[0], np.linalg.solve(mat, u),
                                   rtol=1e-13)
        means = np.repeat(coef.mean(axis=1, keepdims=True), 4, axis=1)
        averaged = dense(StencilOperator(lattice, offsets, means))
        modes = np.exp(2j * np.pi * np.outer(np.arange(4), np.arange(3)) / 4)
        np.testing.assert_allclose(averaged @ modes, modes * _mode_symbols(op, (0,))[0][..., 0],
                                   rtol=1e-13, atol=1e-13)

    @pytest.mark.parametrize("preset, n, text", [
        ("hat1d", 16, 'a.1.1 = "1 + 0.25*cos(x1)"\nb.1 = "0.3*sin(x1)"\nsigma.1.1 = "0.2*cos(x1)"'),
        ("tensor(2)", 8, APPLY2D),
        ("triangle2d", 8, APPLY2D),
        ("tensor(3)", 6, 'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1 + 0.1*sin(x2)"\n'
                         'a.3.3 = "1 + 0.1*cos(x3)"\nsigma.3.1 = "0.2*sin(x3)"'),
    ], ids=["hat1d", "tensor2", "triangle2d", "tensor3"])
    @pytest.mark.parametrize("samples", [1, 3])
    def test_apply_is_the_csr_product_without_building_it(self, preset, n, text, samples, rng):
        # the shifted sum on views adds each site's products in offset order,
        # as the CSR row does: the drift spans every axis, the noise one
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        problem = parse_problem_text(text)
        ops = [assemble_drift(tensors, problem, lattice, 0.0),
               assemble_noise(tensors, problem, lattice, 0.0, 1)]
        assert ops[0].compact.shape[:-1] == lattice.shape
        assert sum(size > 1 for size in ops[1].compact.shape[:-1]) == 1
        u = GridFunction(lattice, rng.normal(size=(samples, *lattice.shape)))
        for op in ops:
            got = op.apply(u).values
            want = (csr(op) @ u.values.reshape(samples, -1).T).T.reshape(got.shape)
            assert np.array_equal(got, want)


SPLIT_HAT = """\
d = 1
name = split-hat
lambda = (-1) (0) (1)
[cell]
lo = -1
hi = -1/2
poly = 0: 1 1: 1
[cell]
lo = -1/2
hi = 0
poly = 0: 1 1: 1
[cell]
lo = 0
hi = 1/2
poly = 0: 1 1: -1
[cell]
lo = 1/2
hi = 1
poly = 0: 1 1: -1
"""

EQUIVALENCE_PROBLEMS = {
    1: ('a.1.1 = "1 + 0.25*cos(x1 - t)"\nb.1 = "0.1*sin(x1)"\nc = "-0.2 + 0.1*cos(x1)"\n'
        'sigma.1.1 = "0.3*cos(x1)"\nnu.1 = "0.2*sin(x1 + t)"\nsigma.1.2 = "0.1"\n'
        'phi = "sin(x1)*cos(t)"'),
    2: ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.1.2 = "0.1*sin(x2 - t)"\na.2.2 = "1"\n'
        'b.1 = "0.1*sin(x1)"\nb.2 = "0.2"\nc = "-0.2 + 0.1*cos(x2)"\n'
        'sigma.1.1 = "0.3*cos(x1)"\nsigma.2.1 = "0.2"\nnu.1 = "0.2*sin(x2)"\n'
        'nu.2 = "0.5*cos(x1 + x2)"\nphi = "sin(x1)*cos(x2 + t)"'),
    3: ('d = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1 + 0.1*sin(x3 - t)"\n'
        'a.1.3 = "0.1*cos(x2)"\nb.1 = "0.1"\nb.3 = "0.2*sin(x1)"\nc = "-0.2"\n'
        'sigma.3.1 = "0.3*cos(x1)"\nnu.1 = "0.1*sin(x2)"\nsigma.1.2 = "0.2*sin(x3)"\n'
        'phi = "sin(x1)*cos(x2)*cos(x3)"'),
}


def _element(case):
    return parse_element_text(SPLIT_HAT) if case == "split-hat" else build_element(case)


class TestCellQuadrature:
    """The cell quadrature reproduces the per-offset formula it replaced."""

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    @pytest.mark.parametrize("case, n", [
        ("hat1d", 16), ("tensor(2)", 8), ("tensor(3)", 6), ("triangle2d", 8), ("split-hat", 16),
    ])
    def test_matches_per_offset_formula(self, case, n, sign):
        # at sign = -1 the raw formula runs at -h: it equals the assembled
        # stencils at the negated offset -lambda and the same mollified data
        element = _element(case)
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(EQUIVALENCE_PROBLEMS[element.d])
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        h, t = sign * lattice.h, 0.3
        tables = build_overlap_tables(element, tensors.quad_degree)

        def close(actual, expected):
            scale = float(np.max(np.abs(expected)))
            assert scale > 0.0
            np.testing.assert_allclose(actual, expected, rtol=0.0, atol=1e-13 * scale)

        def signed(op):
            assert op.offsets == tuple(sorted(tables))
            by_offset = dict(zip(op.offsets, full_coef(op)))
            return np.stack([by_offset[tuple(int(sign) * c for c in lam)] for lam in op.offsets])

        close(signed(assemble_drift(tensors, problem, lattice, t)),
              raw_stencil(tables, lattice, h, t, drift_terms(problem)))
        for rho in (1, 2):
            close(signed(assemble_noise(tensors, problem, lattice, t, rho)),
                  raw_stencil(tables, lattice, h, t, noise_terms(problem, rho)))
        close(mollify_data(problem.phi, tensors, lattice, t).values[0],
              raw_mollified(problem.phi, element, lattice, h, t, tensors.quad_degree))

    def test_triangle_cells_share_one_point_set(self):
        # every overlap part of triangle2d lies in one of the two triangles of
        # the criss-cross unit cell, and each carries the same 9 x 9 Duffy rule
        # whatever corner its vertex list starts at
        tensors = compute_reference_tensors(_element("triangle2d"))
        assert tensors.quad_degree == 8
        assert len(tensors.quad.zeta) == 2 * 9 * 9

    def test_split_cells_stay_within_lattice_cells(self):
        quad = compute_reference_tensors(_element("split-hat")).quad
        assert quad.shifts == ((-1,), (0,))
        assert np.all((quad.zeta >= 0.0) & (quad.zeta < 1.0))
        assert len(quad.zeta) == 2 * 5  # one Gauss rule on each half cell

    def test_assembled_problem_follows_tensor_degree(self, hat_setup, monkeypatch):
        # operators and mollified data come from the tensors' one quadrature
        import femspde.tensors as tensors_module

        element, tensors, lattice = hat_setup
        monkeypatch.setattr(tensors_module, "default_quad_degree",
                            lambda _: tensors.quad_degree + 4)
        raised = compute_reference_tensors(element)
        assert raised.quad_degree == tensors.quad_degree + 4
        problem = parse_problem_text('a.1.1 = "1 + 0.25*cos(x1)"\nphi = "sin(3*x1)"')
        ap = AssembledProblem(element, raised, problem, lattice)
        expected = mollify_data(problem.phi, raised, lattice)
        assert np.array_equal(ap.phi_h().values, expected.values)
        drift = assemble_drift(raised, problem, lattice, 0.0)
        assert np.array_equal(full_coef(ap.drift(0.0)), full_coef(drift))
        # at the default degree these data differ, so the equalities pin the degree
        assert not np.array_equal(expected.values,
                                  mollify_data(problem.phi, tensors, lattice).values)


def referenced_axes(ast):
    """Lattice axes (0-based) of the variables x<k> an AST references."""
    if isinstance(ast, expr.Var):
        return {ast.axis - 1} if ast.axis > 0 else set()
    if isinstance(ast, expr.Num):
        return set()
    if isinstance(ast, expr.BinOp):
        return referenced_axes(ast.left) | referenced_axes(ast.right)
    return referenced_axes(ast.base if isinstance(ast, expr.Pow) else ast.arg)


def reduced_shape(ast, lattice, n_zeta):
    """n along each referenced lattice axis, P on the point axis if any x<k> is referenced."""
    axes = referenced_axes(ast)
    spatial = tuple(lattice.n if k in axes else 1 for k in range(lattice.d))
    return (*spatial, n_zeta if axes else 1)


class TestEvaluationCount:
    """Each distinct coefficient AST is evaluated once per assembly, on per-axis
    coordinate arrays that broadcast to (*lattice.shape, P), and its values span
    only the lattice axes it references."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        seen = []
        real = expr.eval_many

        def recording(ast, x, t, known=None):
            out = real(ast, x, t, known)
            seen.append((ast, x, out))
            return out

        monkeypatch.setattr(expr, "eval_many", recording)
        return seen

    @staticmethod
    def check_calls(calls, lattice, per_cell):
        for ast, x, out in calls:
            assert isinstance(x, tuple) and len(x) == lattice.d
            assert np.broadcast_shapes(*(c.shape for c in x)) == (*lattice.shape, per_cell)
            assert out.shape == reduced_shape(ast, lattice, per_cell), repr(ast)

    @pytest.mark.parametrize("preset, n, per_cell", [("tensor(2)", 8, 25), ("tensor(3)", 6, 125)])
    def test_drift(self, calls, preset, n, per_cell):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(EQUIVALENCE_PROBLEMS[element.d])
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        asts = [*problem.a.values(), *problem.b.values(), problem.c]
        distinct = {id(ast) for ast in asts}  # a.i.j and its mirror share one AST
        assert len(tensors.quad.zeta) == per_cell
        assemble_drift(tensors, problem, lattice, 0.0)
        assert sorted(id(ast) for ast, _, _ in calls) == sorted(distinct)
        self.check_calls(calls, lattice, per_cell)
        sizes = {ast: out.size for ast, _, out in calls}
        assert sizes[expr.parse("1")] == 1  # a.2.2: a constant is one value
        assert sizes[expr.parse("1 + 0.25*cos(x1)")] == n * per_cell  # x1 only: not n^d * P
        assert sum(sizes.values()) < len(distinct) * n**element.d * per_cell

    @pytest.mark.parametrize("preset, n, per_cell", [("hat1d", 16, 5), ("tensor(2)", 8, 25)])
    def test_mollify(self, calls, preset, n, per_cell):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(EQUIVALENCE_PROBLEMS[element.d])
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        assert len(tensors.quad.zeta) == per_cell
        fields = [problem.phi, expr.parse("cos(x1)"), expr.parse("0.5 + t")]
        for field in fields:
            mollify_data(field, tensors, lattice, 0.3)
        assert [ast for ast, _, _ in calls] == fields
        self.check_calls(calls, lattice, per_cell)
        assert [out.size for _, _, out in calls] == [n**element.d * per_cell, n * per_cell, 1]


def test_drift_assembly_allocates_no_lattice_wide_shift_array():
    # assembly3d's problem on tensor(3) at 20^3: no drift coefficient spans more
    # than two axes, so the per-shift sums stay off the full lattice; numpy
    # reports its allocations to tracemalloc
    import tracemalloc

    tensors = compute_reference_tensors(build_element("tensor(3)"))
    problem = parse_problem_text(
        'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1 + 0.1*sin(x3)"\n'
        'b.1 = "0.1"\nc = "-0.2"\n')
    lattice = build_torus(3, 2 * np.pi / 20, 20)
    width = len(tensors.quad.offsets)  # built before the measurement
    tracemalloc.start()
    try:
        assemble_drift(tensors, problem, lattice, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a (sites, K * G) array of the K = 8 cell shifts alone would take 8 * sites * G * 8 bytes
    assert peak < 3 * lattice.total_sites * width * 8


def full_point_cells(quad, lattice, t, terms, pairs):
    """The point-array path the coordinate arrays replaced: every distinct AST
    evaluated at all (cells * P, d) points x_c + h zeta, then one full
    (cells, P) @ (P, C) contraction per AST over the pair columns."""
    combined = {}
    for ast, weights in terms:
        prev = combined.get(id(ast))
        combined[id(ast)] = (ast, weights if prev is None else prev[1] + weights)
    width = int(pairs[:, 1].max()) + 1
    if not combined:
        return np.zeros((width, *lattice.shape))
    n_zeta, n_cols = len(quad.zeta), len(pairs)
    n_cells = lattice.total_sites
    pts = (lattice.coords()[:, None, :] + lattice.h * quad.zeta[None, :, :])
    pts = pts.reshape(-1, lattice.d)
    local = np.zeros((n_cells, n_cols))
    for ast, weights in combined.values():
        vals = np.broadcast_to(expr.eval_many(ast, tuple(pts.T), t), (len(pts),))
        local += vals.reshape(n_cells, n_zeta) @ weights
    local = local.reshape(*lattice.shape, n_cols)
    out = np.zeros((*lattice.shape, width))
    for (k, g), column in zip(pairs, np.moveaxis(local, -1, 0)):
        out[..., g] += np.roll(column, tuple(-c for c in quad.shifts[k]),
                               axis=tuple(range(lattice.d)))
    return np.moveaxis(out, -1, 0)


# constants, x1-only, products of different axes and t-dependent coefficients
ORACLE_PROBLEMS = {
    1: ('a.1.1 = "1 + 0.25*cos(x1)"\nb.1 = "0.1"\nc = "-0.2 + 0.1*sin(x1 - t)"\n'
        'sigma.1.1 = "0.3"\nnu.1 = "0.2*t*cos(x1)"\nf = "t"\ng.1 = "0.1*sin(x1)"\n'
        'phi = "sin(x1)"'),
    2: ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.1.2 = "0.1*sin(x1)*cos(x2)"\na.2.2 = "1"\n'
        'b.1 = "0.1"\nb.2 = "0.2*cos(x2 - t)"\nc = "-0.2 + t"\nsigma.1.1 = "0.3*cos(x1)"\n'
        'sigma.2.1 = "0.2"\nnu.1 = "0.1*sin(x1)*cos(x2 + t)"\nf = "cos(x2)"\ng.1 = "0.5"\n'
        'phi = "sin(x1)*cos(x2)"'),
    3: ('d = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1 + 0.1*sin(x3 - t)"\n'
        'a.1.3 = "0.1*cos(x2)*sin(x3)"\nb.1 = "0.1"\nb.2 = "t"\nc = "-0.2"\n'
        'sigma.1.1 = "0.3*cos(x1)"\nnu.1 = "0.1*sin(x1)*cos(x2)*cos(x3)"\nf = "sin(x2)"\n'
        'g.1 = "cos(x1)*sin(x3)"\nphi = "sin(x1)*cos(x2)*cos(x3)"'),
}


class TestFullPointOracle:
    """Assembly on coordinate arrays agrees with the full point-array path."""

    @pytest.mark.parametrize("preset, n", [
        ("hat1d", 16), ("tensor(2)", 8), ("tensor(3)", 6), ("triangle2d", 8),
    ])
    def test_matches_full_point_path(self, monkeypatch, preset, n):
        from femspde import assembly

        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(ORACLE_PROBLEMS[element.d])
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        t = 0.3

        def build():
            return [
                full_coef(assemble_drift(tensors, problem, lattice, t)),
                full_coef(assemble_noise(tensors, problem, lattice, t, 1)),
                *(mollify_data(field, tensors, lattice, t).values
                  for field in (problem.phi, problem.f, problem.g[1])),
            ]

        actual = build()
        monkeypatch.setattr(assembly, "_assemble_cells", full_point_cells)
        expected = build()
        for a, e in zip(actual, expected):
            scale = float(np.max(np.abs(e)))
            assert scale > 0.0
            np.testing.assert_allclose(a, e, rtol=0.0, atol=1e-14 * scale)

    def test_domain_errors_raise(self):
        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(2, 2 * np.pi / 8, 8)
        for source in ("1/(x1 - x1)", "sqrt(sin(x1))", "1/(x2 - x2) + cos(x1)"):
            with pytest.raises(expr.EvalError):
                mollify_data(expr.parse(source), tensors, lattice)


class TestCompactCoefficients:
    """An operator stores its coefficients over the axes they span; the same
    coefficients copied to the whole lattice give the same operator."""

    @pytest.mark.parametrize("preset, n", [
        ("hat1d", 16), ("tensor(2)", 8), ("tensor(3)", 6), ("triangle2d", 8),
    ])
    def test_compact_and_full_lattice_operators_agree(self, preset, n, rng):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(ORACLE_PROBLEMS[element.d])
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        ap = AssembledProblem(element, tensors, problem, lattice)
        ops = [ap.mass, ap.drift(0.3), ap.noise(0.3, 1), implicit_system(ap, 0.3, 0.01)]
        assert ops[0].compact.shape == (1,) * element.d + (len(tensors.gamma),)
        u = GridFunction(lattice, rng.normal(size=(3, *lattice.shape)))
        rhs = u.values.reshape(3, -1)

        def solved(op, reused):
            try:
                return LinearSolver(op, reused=reused).solve(rhs)
            except SolverError as exc:
                return str(exc)

        for op in ops:
            full = StencilOperator(lattice, op.offsets, np.array(full_coef(op)))
            assert full.compact.shape == op.compact.shape
            assert np.array_equal(full_coef(op), full_coef(full))
            assert np.array_equal(op.apply(u).values, full.apply(u).values)
            assert np.array_equal(dense(op), dense(full))
            for reused in (True, False):
                got, want = solved(op, reused), solved(full, reused)
                assert type(got) is type(want) and np.array_equal(got, want)

    @pytest.mark.parametrize("preset, n, text, span", [
        ("hat1d", 16, 'a.1.1 = "1"\nb.1 = "0.5"\nc = "-0.2"', (1,)),
        ("tensor(2)", 8, 'd = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nc = "-0.2"', (8, 1)),
        ("tensor(3)", 6, 'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\n'
         'a.3.3 = "1 + 0.1*sin(x3)"\nc = "-0.2"', (6, 1, 6)),
        ("triangle2d", 8, 'd = 2\na.1.1 = "1"\na.2.2 = "1 + 0.25*cos(x2)"\nb.1 = "0.3"\n'
         'c = "-0.2"', (1, 8)),
    ])
    def test_constant_axis_is_stored_once(self, preset, n, text, span, rng):
        # coefficients given on every site store each axis they are constant
        # along once, and act as the operator built from the compact array
        element = build_element(preset)
        lattice = build_torus(element.d, 2 * np.pi / n, n)
        ap = AssembledProblem(element, compute_reference_tensors(element),
                              parse_problem_text(text), lattice)
        drift = ap.drift(0.0)
        assert drift.compact.shape == (*span, len(drift.offsets))
        u = GridFunction(lattice, rng.normal(size=(3, *lattice.shape)))
        rhs = u.values.reshape(3, -1)
        for op in (ap.mass, drift, implicit_system(ap, 0.0, 0.01)):
            full = StencilOperator(lattice, op.offsets, np.array(full_coef(op)))
            compact = StencilOperator(lattice, op.offsets, np.moveaxis(op.compact, -1, 0))
            assert full.compact.shape == compact.compact.shape == op.compact.shape
            assert np.array_equal(full.compact, compact.compact)
            assert np.array_equal(full.apply(u).values, compact.apply(u).values)
            assert np.array_equal(dense(full), dense(compact))
            for reused in (True, False):
                got = LinearSolver(full, reused=reused).solve(rhs)
                assert np.array_equal(got, LinearSolver(compact, reused=reused).solve(rhs))

    def test_storage_rule_reads_every_coefficient(self, rng):
        # an axis is stored once only when every offset's coefficient is
        # constant along it
        lattice = build_torus(2, 2 * np.pi / 8, 8)
        offsets = ((0, 0), (1, 0), (0, 1))
        for shape in ((3, 1, 8), (3, 8, 1), (3, 1, 1)):
            coef = np.broadcast_to(rng.normal(size=shape), (3, 8, 8))
            assert StencilOperator(lattice, offsets, coef).compact.shape == (*shape[1:], 3)
        coef = np.array(np.broadcast_to(rng.normal(size=(3, 8, 1)), (3, 8, 8)))
        coef[2, 5, 3] += 1.0
        assert StencilOperator(lattice, offsets, coef).compact.shape == (8, 8, 3)

    def test_coefficient_shape_is_checked(self, rng):
        lattice = build_torus(2, 2 * np.pi / 8, 8)
        offsets = ((0, 0), (1, 0), (0, 1))
        for shape in ((3, 1, 8), (3, 8, 1), (3, 1, 1), (3, 8, 8)):
            compact = StencilOperator(lattice, offsets, rng.normal(size=shape)).compact
            assert compact.shape == (*shape[1:], 3)
        for shape in ((3, 2, 8), (3, 8, 4), (2, 8, 8), (4, 1, 1), (3, 8), (3, 1, 1, 1)):
            with pytest.raises(ValueError, match="does not match stencil"):
                StencilOperator(lattice, offsets, np.ones(shape))
        with pytest.raises(ValueError, match="does not match stencil"):
            StencilOperator(lattice, (), np.ones((0, 8, 8)))

    def test_stored_coefficients_are_read_only(self, hat_setup):
        element, tensors, lattice = hat_setup
        drift = assemble_drift(tensors, parse_problem_text('a.1.1 = "1 + 0.5*cos(x1)"'),
                               lattice, 0.0)
        with pytest.raises(ValueError):
            drift.compact[0] = 1.0
