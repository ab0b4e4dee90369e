import numpy as np
import pytest
from numpy.random import Philox
from scipy.sparse.linalg import spsolve

from femspde.assembly import AssembledProblem, StencilOperator, assemble_mass, mollify_data
from femspde.elements import build_element
from femspde.integrator import (
    DIRECT_SITE_LIMIT,
    KRYLOV_TOL,
    IntegrationError,
    LinearSolver,
    NoisePath,
    SolverError,
    implicit_system,
    integrate,
    integrate_multilevel,
    sample_seed,
    splitmix64,
    step_implicit_em,
)
from femspde.lattice import GridFunction, build_torus, norms_0h
from femspde.problem import parse_problem_text
from femspde.tensors import compute_reference_tensors
from tests.test_assembly import dense, dense_from_stencil, full_coef

L = 2 * np.pi


@pytest.fixture(scope="module")
def hat():
    element = build_element("hat1d")
    return element, compute_reference_tensors(element)


def f_h(ap, t):
    """The problem's f mollified on ap's lattice at time t."""
    return mollify_data(ap.problem.f, ap.tensors, ap.lattice, t)


def increment(path, rho, n):
    """The increment (seed, rho, n) of a path from the counter alone: Philox
    keyed by (seed, rho), advanced by n // 4 blocks of four raw draws."""
    bits = Philox(key=[path.seed, rho])
    bits.advance(n // 4)
    return path._from_raw(bits.random_raw(4))[n % 4]


def make_assembled(hat, text, n=16):
    element, tensors = hat
    lattice = build_torus(1, L / n, n)
    problem = parse_problem_text(text)
    return AssembledProblem(element, tensors, problem, lattice)


class TestNoisePath:
    def test_reproducible_and_addressable(self):
        a = NoisePath(12345, steps=40, dt=0.01, rho_count=3)
        b = NoisePath(12345, steps=40, dt=0.01, rho_count=3)
        np.testing.assert_array_equal(a.increments, b.increments)
        for rho in (1, 2, 3):
            for n in (0, 1, 7, 39):
                assert increment(a, rho, n) == a.increments[rho - 1, n]

    def test_different_seeds_differ(self):
        a = NoisePath(7, steps=16, dt=0.5, rho_count=1)
        b = NoisePath(8, steps=16, dt=0.5, rho_count=1)
        assert np.max(np.abs(a.increments - b.increments)) > 1e-3

    def test_rhos_are_independent_streams(self):
        a = NoisePath(7, steps=64, dt=1.0, rho_count=2)
        assert abs(np.corrcoef(a.increments)[0, 1]) < 0.5

    def test_moments(self):
        dt = 0.01
        path = NoisePath(99, steps=1_000_000, dt=dt, rho_count=1)
        incs = path.increments[0]
        assert abs(incs.mean()) < 4.0 * np.sqrt(dt / incs.size)
        assert incs.var() == pytest.approx(dt, rel=5e-3)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoisePath(1, steps=0, dt=0.1)
        with pytest.raises(ValueError):
            NoisePath(1, steps=4, dt=0.0)

    # the first 8 increments of two (seed, rho) streams at dt = 0.01, recorded
    # through scipy.special.ndtri; they reach both tails
    GOLDEN = {
        (0, 1): ["0x1.6cad3fe196f59p-4", "0x1.15fd556910143p-4", "0x1.6c1c605ddea5ep-5",
                 "-0x1.1550019098ef2p-8", "0x1.b9e0c7a5684d5p-5", "-0x1.ee6c89fa853bcp-5",
                 "0x1.6f30149b380d1p-4", "0x1.0357d4158834dp-6"],
        (1229134633621307140, 2): [
            "-0x1.e0511f4803948p-3", "-0x1.6cd8d7a6fac87p-7", "-0x1.4aae2833bf187p-4",
            "0x1.cc82ddcde3bc0p-4", "0x1.07715565c2fdep-3", "-0x1.d0bcc5af93b6cp-6",
            "0x1.06800056ed91dp-5", "-0x1.431496a12b6c9p-10"],
    }

    def test_golden_draws(self):
        assert sample_seed(2018, 1) == 1229134633621307140
        for (seed, rho), want in self.GOLDEN.items():
            path = NoisePath(seed, steps=8, dt=0.01, rho_count=rho)
            assert [float(v).hex() for v in path.increments[rho - 1]] == want

    def test_top_draws_stay_finite(self):
        # the top 2^11 raw draws round to u = 1 before the clamp; the next stays put
        from scipy.special import ndtri

        path = NoisePath(1, steps=4, dt=0.01)
        top = np.array([2**64 - 1, 2**64 - 2**11], dtype=np.uint64)
        assert np.array_equal(path._from_raw(top),
                              np.full(2, np.sqrt(0.01) * ndtri(np.nextafter(1.0, 0.0))))
        rest = np.array([2**64 - 2**12, 0], dtype=np.uint64)
        u = np.array([1.0 - 2.0**-52, 2.0**-54])
        assert np.array_equal(path._from_raw(rest), np.sqrt(0.01) * ndtri(u))

    def test_ndtri_port_equals_scipy(self):
        # 10^6 draws through the uniform map, and the points where Cephes switches
        # rational: exp(-2), 1 - exp(-2) and exp(-32), where x = sqrt(-2 log y) is 8;
        # in doubles x falls below 8 between the last pair, 15 ulps above exp(-32)
        import math

        from numpy.random import Philox
        from scipy.special import ndtri

        from femspde.integrator import _ndtri

        raw = Philox(key=[20181, 1]).random_raw(1_000_000)
        u = ((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
        assert np.array_equal(_ndtri(u), ndtri(u))
        assert np.array_equal(NoisePath(20181, steps=u.size, dt=1.0).increments[0], ndtri(u))
        edges = [np.exp(-2.0), 1.0 - np.exp(-2.0), np.exp(-32.0)]
        switch = [float.fromhex("0x1.c8464f7616476p-47"), float.fromhex("0x1.c8464f7616477p-47")]
        assert [math.sqrt(-2.0 * math.log(y)) >= 8.0 for y in switch] == [True, False]
        points = np.array([2.0**-54, 0.5, np.nextafter(1.0, 0.0), *edges, *switch,
                           *np.nextafter(edges, 0.0), *np.nextafter(edges, 1.0)])
        assert np.array_equal(_ndtri(points), ndtri(points))

    def test_sample_seed_mixing(self):
        seeds = {sample_seed(42, k) for k in range(1000)}
        assert len(seeds) == 1000
        assert sample_seed(42, 5) == sample_seed(42, 5)
        assert splitmix64(0) != 0


def solve(op: StencilOperator, rhs: GridFunction) -> GridFunction:
    """op U = rhs for every sample of rhs, through LinearSolver."""
    block = rhs.values
    out = LinearSolver(op).solve(block.reshape(len(block), -1))
    return GridFunction(rhs.lattice, out.reshape(block.shape))


class TestStep:
    def test_zero_data_stays_zero(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"')
        u0 = GridFunction(ap.lattice, np.zeros(ap.lattice.shape))
        u1 = step_implicit_em(u0, ap, 0.0, 0.01, None)
        np.testing.assert_array_equal(u1.values, 0.0)

    def test_pure_mass_problem_is_stationary(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "0"\nphi = "sin(x1)"')
        traj = integrate(ap, None, T=0.1, steps=4)
        for state in traj.states[1:]:
            np.testing.assert_allclose(state.values, traj.states[0].values, atol=1e-12)

    def test_single_step_matches_dense_oracle(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"\nphi = "sin(x1)"\nf = "0.3*cos(x1)"')
        lattice = ap.lattice
        dt = 0.01
        u0 = solve(ap.mass, ap.phi_h())
        u1 = step_implicit_em(u0, ap, 0.0, dt, None).values[0]
        mass_mat = dense_from_stencil(ap.mass)
        drift_mat = dense_from_stencil(ap.drift(dt))
        rhs = mass_mat @ u0.values[0] + dt * f_h(ap, dt).values[0]
        expected = np.linalg.solve(mass_mat - dt * drift_mat, rhs)
        np.testing.assert_allclose(u1, expected, atol=1e-10)

    def test_fourier_mode_damping(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"\nphi = "sin(x1)"')
        lattice = ap.lattice
        h = lattice.h
        dt = 0.02
        u0 = solve(ap.mass, ap.phi_h())
        u1 = step_implicit_em(u0, ap, 0.0, dt, None).values[0]
        x = lattice.axis_coords()
        amp0 = 2.0 / lattice.n * float(u0.values[0] @ np.sin(x))
        amp1 = 2.0 / lattice.n * float(u1 @ np.sin(x))
        mass_symbol = (2.0 + np.cos(h)) / 3.0
        lap_symbol = (2.0 - 2.0 * np.cos(h)) / h**2
        assert amp1 == pytest.approx(amp0 * mass_symbol / (mass_symbol + dt * lap_symbol),
                                     abs=1e-12)


class TestItoTime:
    """The noise stencil and g are read at the left point t_n: a noise term
    that is t at t = 0 adds nothing to a step from t = 0, while from t = dt
    it does.  On a lattice with a whole-lattice factorization and on one
    split along x2."""

    LATTICES = {
        "hat1d": ('a.1.1 = "1 + 0.25*cos(x1)"\nf = "cos(x1)"\n', 16),
        "tensor(2)": ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nf = "cos(x1)"\n', 8),
    }

    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)"])
    @pytest.mark.parametrize("noise", ['g.1 = "t"', 'sigma.1.1 = "t"\nphi = "sin(x1)"',
                                       'nu.1 = "t"\nphi = "sin(x1)"'])
    def test_noise_term_is_read_at_t_n(self, preset, noise):
        drift, n = self.LATTICES[preset]
        ap = assembled_on(preset, n, drift + noise)
        dt = 0.01
        u = integrate(ap, NoisePath(3, 1, dt), dt, 1).states[0]
        increments = np.array([[0.3]])
        quiet = step_implicit_em(u, ap, 0.0, dt, None).values
        assert np.array_equal(step_implicit_em(u, ap, 0.0, dt, increments).values, quiet)
        assert not np.array_equal(step_implicit_em(u, ap, dt, dt, increments).values,
                                  step_implicit_em(u, ap, dt, dt, None).values)
        assert ap._memo["system", dt]._axes == ((1,) if preset == "tensor(2)" else ())


class TestSolveLinear:
    def test_identity_returns_rhs(self, hat, rng):
        element, tensors = hat
        lattice = build_torus(1, L / 16, 16)
        ident = StencilOperator(lattice, ((0,),), np.ones((1, 16)))
        rhs = GridFunction(lattice, rng.normal(size=16))
        out = solve(ident, rhs)
        np.testing.assert_allclose(out.values, rhs.values, atol=1e-15)

    def test_solve_takes_only_blocks(self):
        lattice = build_torus(1, L / 16, 16)
        solver = LinearSolver(StencilOperator(lattice, ((0,),), np.ones((1, 16))))
        for rhs in (np.ones(16), np.ones((1, 8)), np.ones((1, 16, 1))):
            with pytest.raises(ValueError, match="samples, 16"):
                solver.solve(rhs)

    def test_mass_roundtrip(self, hat, rng):
        element, tensors = hat
        lattice = build_torus(1, L / 32, 32)
        mass = assemble_mass(tensors, lattice)
        u = GridFunction(lattice, rng.normal(size=32))
        rhs = mass.apply(u)
        out = solve(mass, rhs)
        np.testing.assert_allclose(out.values, u.values, atol=1e-10)

    def test_mass_roundtrip_iterative(self, hat, rng):
        # BiCGStab is reached through a lattice above the direct-solve limit and
        # rows of the mass scaled by a factor that varies along the axis
        element, tensors = hat
        n = 2 * DIRECT_SITE_LIMIT
        lattice = build_torus(1, L / n, n)
        scale = 1.0 + 0.25 * np.cos(lattice.axis_coords())
        mass = assemble_mass(tensors, lattice)
        mass = StencilOperator(lattice, tensors.gamma, full_coef(mass) * scale)
        assert not LinearSolver(mass).direct
        u = GridFunction(lattice, rng.normal(size=n))
        rhs = mass.apply(u)
        out = solve(mass, rhs)
        np.testing.assert_allclose(out.values, u.values, atol=1e-8)

    def test_singular_system_fails(self):
        # zero at every site (FFT division), then zero on every other site
        # (sparse LU, then BiCGStab)
        for n, parity in ((16, False), (16, True), (2 * DIRECT_SITE_LIMIT, True)):
            lattice = build_torus(1, L / n, n)
            coef = np.arange(n) % 2 if parity else np.zeros(n)
            singular = StencilOperator(lattice, ((0,),), coef[None].astype(float))
            rhs = GridFunction(lattice, np.ones(n))
            with pytest.raises(SolverError):
                solve(singular, rhs)

    @pytest.mark.parametrize(
        "preset, n_direct, n_krylov",
        [("hat1d", 64, 4098), ("tensor(2)", 16, 66), ("tensor(3)", 8, 18),
         ("triangle2d", 16, 66)],
    )
    def test_paths_match_reference_solvers(self, preset, n_direct, n_krylov, rng):
        # a diffusion that varies along every axis: no axis splits off, so the
        # whole lattice is one block and n_krylov is above DIRECT_SITE_LIMIT
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        d = element.d
        diffusion = "\n".join(f'a.{i}.{i} = "1 + 0.25*cos(x{i})"' for i in range(1, d + 1))
        problem = parse_problem_text(f'd = {d}\n{diffusion}\nb.1 = "0.5"\nc = "-0.2"')
        for n in (n_direct, n_krylov):
            lattice = build_torus(d, L / n, n)
            ap = AssembledProblem(element, tensors, problem, lattice)
            op = implicit_system(ap, 0.0, 0.5 * lattice.h**2)
            rhs = GridFunction(lattice, rng.normal(size=lattice.shape))
            solver = LinearSolver(op)
            assert solver.direct == (n == n_direct)
            got = solver.solve(rhs.values.reshape(1, -1))[0]
            if solver.direct:
                want, rtol = np.linalg.solve(dense(op), rhs.values.ravel()), 1e-12
            else:
                want, rtol = spsolve(op.matrix.copy(), rhs.values.ravel()), 1e-8
            assert np.linalg.norm(got - want) <= rtol * np.linalg.norm(want)


@pytest.fixture()
def krylov_iters(monkeypatch):
    """BiCGStab iterations, counted by wrapping the module attribute that
    LinearSolver looks up at call time (as the benchmark tracer does)."""
    import scipy.sparse.linalg

    count = []
    real = scipy.sparse.linalg.bicgstab

    def counted(*args, callback=None, **kwargs):
        return real(*args, callback=lambda xk: count.append(1), **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "bicgstab", counted)
    return count


class TestPreconditioner:
    """BiCGStab is preconditioned by the FFT inverse of the x-averaged system."""

    @pytest.mark.parametrize("preset, n, text", [
        ("hat1d", 2 * DIRECT_SITE_LIMIT, None),
        ("tensor(2)", 66, None),
        ("tensor(3)", 18, None),
        ("tensor(2)", 66, 'd = 2\na.1.1 = "1"\na.2.2 = "1"\nb.1 = "0.5"\nc = "-0.2"'),
    ], ids=["hat1d-mass", "tensor2-mass", "tensor3-mass", "tensor2-constant-system"])
    def test_circulant_systems_take_one_iteration(self, preset, n, text, krylov_iters, rng):
        # the mass, or mass - dt * drift with no coefficient depending on x:
        # every axis is invariant, so a reused system is solved by one FFT
        # division at any size, with no BiCGStab iteration
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        lattice = build_torus(element.d, L / n, n)
        if text is None:
            op = assemble_mass(tensors, lattice)
        else:
            ap = AssembledProblem(element, tensors, parse_problem_text(text), lattice)
            op = implicit_system(ap, 0.0, 0.5 * lattice.h**2)
        solver = LinearSolver(op)
        assert solver.direct
        rhs = rng.normal(size=lattice.total_sites)
        got = solver.solve(rhs[None])[0]
        assert krylov_iters == []
        assert np.linalg.norm(op.matrix @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("preset, n", [("tensor(2)", 32), ("tensor(3)", 8)])
    def test_single_use_circulant_system_takes_one_iteration(self, preset, n, krylov_iters, rng):
        # a single-use system runs BiCGStab, whose preconditioner inverts a
        # circulant system exactly
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        d = element.d
        diffusion = "\n".join(f'a.{i}.{i} = "1"' for i in range(1, d + 1))
        problem = parse_problem_text(f'd = {d}\n{diffusion}\nb.1 = "0.5"\nc = "-0.2"')
        lattice = build_torus(d, L / n, n)
        ap = AssembledProblem(element, tensors, problem, lattice)
        op = implicit_system(ap, 0.0, 0.5 * lattice.h**2)
        solver = LinearSolver(op, reused=False)
        assert not solver.direct
        rhs = rng.normal(size=lattice.total_sites)
        got = solver.solve(rhs[None])[0]
        assert len(krylov_iters) <= 1
        assert np.linalg.norm(op.matrix @ got - rhs) <= 1e-12 * np.linalg.norm(rhs)

    def test_vanishing_modes_act_as_identity(self):
        # coefficients +1 and -1 on alternate sites: every averaged mode is 0,
        # so the preconditioner is the identity and the system still solves
        n = 2 * DIRECT_SITE_LIMIT
        lattice = build_torus(1, L / n, n)
        signs = np.where(np.arange(n) % 2, -1.0, 1.0)
        solver = LinearSolver(StencilOperator(lattice, ((0,),), signs[None]))
        rhs = np.linspace(1.0, 2.0, n)
        np.testing.assert_allclose(solver.solve(rhs[None])[0], signs * rhs, rtol=1e-10)

    def test_x_varying_system_needs_few_iterations(self, krylov_iters):
        # det2d_ladder's implicit system on its 128^2 reference: a = 1 + 0.25 cos x1,
        # solved once (a reused one splits along x2 and takes no iteration)
        import scipy.sparse.linalg

        from femspde.study import resolve_steps

        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(
            'd = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "0.1"\nc = "-0.2"\n'
            'phi = "sin(x1)*cos(x2)"'
        )
        lattice = build_torus(2, L / 128, 128)
        ap = AssembledProblem(element, tensors, problem, lattice)
        op = implicit_system(ap, 0.0, 0.25 / resolve_steps(0.25, L, 32))  # the study's dt
        rhs = ap.mass.apply(ap.phi_h()).values.ravel()
        got = LinearSolver(op, reused=False).solve(rhs[None])[0]
        preconditioned = len(krylov_iters)
        assert preconditioned <= 3  # measured: 3
        scipy.sparse.linalg.bicgstab(op.matrix, rhs, rtol=1e-10, atol=0.0)
        plain = len(krylov_iters) - preconditioned  # measured: 12
        assert plain >= 4 * preconditioned
        want = spsolve(op.matrix.copy(), rhs)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


# cli2d_timedep's problem: a t-dependent drift in 2-D
TIMEDEP_2D = ('d = 2\na.1.1 = "1 + 0.25*cos(x1 - t)"\na.2.2 = "1"\nb.1 = "0.1*sin(t)"\n'
              'c = "-0.2"\nsigma.1.1 = "0.2*cos(x2)"\ng.1 = "0.1"\n'
              'f = "sin(x1)*cos(x2)*cos(t)"\nphi = "sin(x1)*cos(x2)"\n')


class TestSolverRule:
    """The direct path only for a system that is reused (kept for later steps
    or solved for several columns) or 1-D, with at most DIRECT_SITE_LIMIT
    sites per block: n^(axes some coefficient varies along).  The mass is
    inverted by one FFT division."""

    @pytest.mark.parametrize("preset, n, t_dependent, samples, varying, direct", [
        ("hat1d", 64, True, 1, 1, True),
        ("tensor(2)", 32, True, 1, 1, False),
        ("tensor(2)", 32, True, 3, 1, True),
        ("tensor(2)", 32, False, 1, 1, True),
        ("tensor(3)", 8, False, 1, 1, True),
        ("tensor(2)", 66, False, 1, 1, True),
        ("tensor(2)", 66, True, 3, 1, True),
        ("hat1d", 2 * DIRECT_SITE_LIMIT, False, 3, 1, False),
        ("tensor(2)", 66, False, 1, 2, False),
        ("tensor(2)", 66, True, 3, 2, False),
        ("tensor(3)", 18, False, 1, 2, True),
        ("tensor(3)", 18, False, 1, 3, False),
    ], ids=["1d-single-use", "2d-single-use", "2d-three-columns", "2d-kept", "3d-kept",
            "2d-kept-above-limit", "2d-three-columns-above-limit", "1d-kept-above-limit",
            "2d-kept-varying-above-limit", "2d-three-columns-varying-above-limit",
            "3d-kept-two-varying", "3d-kept-varying-above-limit"])
    def test_step_picks_solver(self, monkeypatch, rng, preset, n, t_dependent, samples,
                               varying, direct):
        # a^11 depends on x1 (and on t when t_dependent); a^ii on x_i for the
        # first `varying` axes, so n^varying sites per block
        import femspde.integrator as integrator

        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        d = element.d
        a11 = "1 + 0.25*cos(x1 - t)" if t_dependent else "1 + 0.25*cos(x1)"
        coefs = [f"1 + 0.25*cos(x{i})" if i <= varying else "1" for i in range(2, d + 1)]
        diffusion = "\n".join(f'a.{i}.{i} = "{a}"' for i, a in enumerate(coefs, start=2))
        problem = parse_problem_text(f'd = {d}\na.1.1 = "{a11}"\n{diffusion}')
        lattice = build_torus(d, L / n, n)
        ap = AssembledProblem(element, tensors, problem, lattice)
        built = []

        class RecordingSolver(integrator.LinearSolver):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                built.append(self.direct)

        monkeypatch.setattr(integrator, "LinearSolver", RecordingSolver)
        u = GridFunction(lattice, rng.normal(size=(samples, *lattice.shape)))
        step_implicit_em(u, ap, 0.0, 0.5 * lattice.h**2, None)
        assert built == [direct]

    @pytest.mark.parametrize("preset, n", [
        ("hat1d", 64), ("tensor(2)", 16), ("triangle2d", 16), ("tensor(3)", 8),
    ])
    def test_fft_initial_state_equals_lu(self, preset, n):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        d = element.d
        diffusion = "\n".join(f'a.{i}.{i} = "1"' for i in range(1, d + 1))
        phi = "*".join(f"(1 + sin({k}*x{k}))" for k in range(1, d + 1))
        problem = parse_problem_text(f'd = {d}\n{diffusion}\nphi = "{phi}"')
        lattice = build_torus(d, L / n, n)
        ap = AssembledProblem(element, tensors, problem, lattice)
        got = integrate(ap, None, T=1e-3, steps=1).states[0].values
        want = spsolve(ap.mass.matrix.tocsc(), ap.phi_h().values.ravel()).reshape(got.shape)
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    def test_single_use_krylov_equals_lu(self):
        # cli2d_timedep's implicit system on its 32^2 lattice, at its dt
        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(2, L / 32, 32)
        ap = AssembledProblem(element, tensors, parse_problem_text(TIMEDEP_2D), lattice)
        dt = 0.25 / 50
        op = implicit_system(ap, 0.3, dt)
        rhs = (ap.mass.apply(ap.phi_h()).values + dt * f_h(ap, 0.3).values).reshape(1, -1)
        krylov = LinearSolver(op, reused=False)
        lu = LinearSolver(op)
        assert (krylov.direct, lu.direct) == (False, True)
        got, want = krylov.solve(rhs), lu.solve(rhs)
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    def test_vanishing_mass_symbol_raises(self, hat):
        # R = (1/2, 0, 1/2) has the symbol cos(theta), which is 0 at theta = pi/2
        import dataclasses

        element, tensors = hat
        tensors = dataclasses.replace(tensors, R=np.array([0.5, 0.0, 0.5]))
        lattice = build_torus(1, L / 8, 8)
        problem = parse_problem_text('a.1.1 = "1"\nphi = "sin(x1)"')
        ap = AssembledProblem(element, tensors, problem, lattice)
        with pytest.raises(SolverError, match="mass is singular"):
            integrate(ap, None, T=0.1, steps=2)

    def test_vanishing_symbol_raises(self):
        lattice = build_torus(1, L / 8, 8)
        op = StencilOperator(lattice, ((-1,), (0,), (1,)), np.tile([[0.5], [0.0], [0.5]], 8))
        with pytest.raises(SolverError, match="singular: its symbol falls to .* of 1.000e"):
            LinearSolver(op)


    def test_sum_is_judged_against_its_terms(self):
        # each mode of mass - dt * drift against |M(m)| + dt |D(m)|: a spread of 1e13
        # solves, a cancellation to rounding at every mode does not
        lattice = build_torus(1, L / 8, 8)
        offsets = ((-1,), (0,), (1,))
        mass = StencilOperator(lattice, offsets, np.tile([[1 / 6], [2 / 3], [1 / 6]], 8))
        laplace = StencilOperator(lattice, offsets, np.tile([[1.0], [-2.0], [1.0]], 8))
        stiff = mass.scaled_add(1.0, laplace, -1e13)
        rhs = np.cos(lattice.coords()[:, 0])[None]
        np.testing.assert_allclose(stiff.matrix @ LinearSolver(stiff).solve(rhs)[0], rhs[0],
                                   rtol=1e-12, atol=1e-12)
        with pytest.raises(SolverError, match="falls to .* against its terms' sum of"):
            LinearSolver(mass.scaled_add(1.0, mass, -1.0))
        # the same coefficients without their terms keep the rule of the maximum
        with pytest.raises(SolverError, match="falls to 1.000e.00 against a maximum of"):
            LinearSolver(StencilOperator(lattice, offsets, full_coef(stiff)))


DET2D = ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "0.1"\nc = "-0.2"\n'
         'f = "sin(x1)*cos(x2)"\nphi = "sin(x1)*cos(x2)"\n')


def assembled_on(preset, n, text):
    """`text` assembled on an n^d lattice of `preset`."""
    element = build_element(preset)
    tensors = compute_reference_tensors(element)
    lattice = build_torus(element.d, L / n, n)
    return AssembledProblem(element, tensors, parse_problem_text(text), lattice)


def split_system(preset, n, text):
    """The implicit system of `text` on an n^d lattice of `preset`, at dt = h^2 / 2."""
    ap = assembled_on(preset, n, text)
    return implicit_system(ap, 0.0, 0.5 * ap.lattice.h**2)


class TestSplit:
    """A real FFT over the axes no coefficient varies along splits the direct
    solve into one block per mode; every split agrees with the dense oracle."""

    @pytest.mark.parametrize("preset, n, text, axes", [
        ("hat1d", 32, 'a.1.1 = "1"\nb.1 = "0.5"\nc = "-0.2"', (0,)),
        ("tensor(2)", 16, DET2D, (1,)),
        ("tensor(3)", 8, 'd = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\n'
         'a.3.3 = "1 + 0.1*sin(x3)"\nb.1 = "0.1"\nc = "-0.2"', (1,)),
        ("triangle2d", 16, 'd = 2\na.1.1 = "1"\na.2.2 = "1 + 0.25*cos(x2)"\nb.1 = "0.3"\n'
         'c = "-0.2"', (0,)),
    ], ids=["hat1d-constant", "tensor2-x1", "tensor3-x1-x3", "triangle2d-x2"])
    def test_split_matches_dense_oracle(self, preset, n, text, axes, rng):
        op = split_system(preset, n, text)
        solver = LinearSolver(op)
        assert solver.direct and solver._axes == axes
        rhs = rng.normal(size=(3, op.lattice.total_sites))
        got = solver.solve(rhs)
        want = np.linalg.solve(dense(op), rhs.T).T
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_block_equals_column_solves(self, rng):
        solver = LinearSolver(split_system("tensor(2)", 16, DET2D))
        rhs = rng.normal(size=(3, 256))
        block = solver.solve(rhs)
        for row, out in zip(rhs, block):
            assert np.array_equal(out, solver.solve(row[None])[0])

    def test_one_perturbed_site_stops_the_split(self, rng):
        # scaling the row of site (3, 5) leaves no invariant axis, so the whole
        # lattice is one block: factored on 16^2 sites, BiCGStab on 66^2
        for n, direct in ((16, True), (66, False)):
            op = split_system("tensor(2)", n, DET2D)
            coef = full_coef(op).copy()
            coef[:, 3, 5] *= 1.0 + 1e-3
            perturbed = StencilOperator(op.lattice, op.offsets, coef)
            solver = LinearSolver(perturbed)
            assert (LinearSolver(op)._axes, solver._axes) == ((1,), ())
            assert solver.direct == direct
        small = StencilOperator(build_torus(2, L / 16, 16), op.offsets, coef[:, :16, :16])
        rhs = rng.normal(size=256)
        got = LinearSolver(small).solve(rhs[None])[0]
        want = np.linalg.solve(dense(small), rhs)
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_singular_mode_block_reports_step(self, monkeypatch):
        # from step 2 on, the system w(x1) (1 - shift along x2) has the zero
        # block at mode 0 along x2; the drift depends on t, so a block of 3
        # samples builds a system at every step
        import femspde.integrator as integrator

        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(2, L / 8, 8)
        problem = parse_problem_text('d = 2\na.1.1 = "1 + 0.25*cos(x1 - t)"\na.2.2 = "1"\n'
                                     'phi = "sin(x1)"')
        ap = AssembledProblem(element, tensors, problem, lattice)
        weight = np.broadcast_to((1.5 + np.cos(lattice.axis_coords()))[:, None], (8, 8))
        singular = StencilOperator(lattice, ((0, 0), (0, 1)), np.stack([weight, -weight]))
        real = integrator.implicit_system
        dt = 0.01
        monkeypatch.setattr(integrator, "implicit_system",
                            lambda ap, t, dt: singular if t > 2.5 * dt else real(ap, t, dt))
        with pytest.raises(IntegrationError, match="at step 2: sparse factorization") as err:
            integrate(ap, [NoisePath(s, 5, dt) for s in range(3)], 5 * dt, 5)
        assert err.value.step == 2

    def test_split_matches_krylov_on_det2d(self):
        # det2d_ladder's system on its 128^2 reference, at the study's dt: the
        # split and BiCGStab, the path it replaces, agree to 10 * KRYLOV_TOL
        from femspde.study import resolve_steps

        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(2, L / 128, 128)
        ap = AssembledProblem(element, tensors, parse_problem_text(DET2D), lattice)
        op = implicit_system(ap, 0.0, 0.25 / resolve_steps(0.25, L, 32))
        rhs = ap.mass.apply(ap.phi_h()).values.reshape(1, -1)
        split = LinearSolver(op)
        assert split.direct and split._axes == (1,)
        got, want = split.solve(rhs), LinearSolver(op, reused=False).solve(rhs)
        assert np.linalg.norm(got - want) <= 10 * KRYLOV_TOL * np.linalg.norm(want)


# assembly3d's problem; a noise-driven problem whose drift is invariant along x2; and
# noise-driven problems whose drift varies along every axis, in 1-D and, depending on
# t, in 2-D, so that their systems do not split
ASSEMBLY3D = ('d = 3\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\na.3.3 = "1 + 0.1*sin(x3)"\n'
              'b.1 = "0.1"\nc = "-0.2"\nphi = "sin(x1)*cos(x2)*cos(x3)"\n')
NOISY_SPLIT = ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "0.1"\n'
               'sigma.1.1 = "0.3*cos(x1)"\nnu.1 = "0.2*sin(x1)"\ng.1 = "0.1*cos(x2)"\n'
               'f = "sin(x1)*cos(x2)*cos(t)"\nphi = "sin(x1)*cos(x2)"\n')
NOISY_CONSTANT = ('a.1.1 = "1"\nb.1 = "0.5"\nsigma.1.1 = "0.3"\nnu.1 = "0.2"\ng.1 = "0.1"\n'
                  'f = "cos(x1)"\nphi = "sin(x1)"')
NOISY_X1 = ('a.1.1 = "1 + 0.25*cos(x1)"\nb.1 = "0.5"\nsigma.1.1 = "0.3"\nnu.1 = "0.2"\n'
            'g.1 = "0.1"\nf = "cos(x1)"\nphi = "sin(x1)"')
# stoch1d_mc's and cli2d_timedep's problems
STOCH1D = 'd = 1\na.1.1 = "1 + 0.25*cos(x1)"\nsigma.1.1 = "0.3"\ng.1 = "0.1"\nphi = "sin(x1)"\n'
CLI2D = ('d = 2\na.1.1 = "1 + 0.25*cos(x1 - t)"\na.2.2 = "1"\nb.1 = "0.1*sin(t)"\n'
         'c = "-0.2"\nsigma.1.1 = "0.2*cos(x2)"\ng.1 = "0.1"\n'
         'f = "sin(x1)*cos(x2)*cos(t)"\nphi = "sin(x1)*cos(x2)"\n')
NOISY_T = ('d = 2\na.1.1 = "1 + 0.25*cos(x1 - t)"\na.2.2 = "1 + 0.25*cos(x2)"\n'
           'b.1 = "0.1*sin(t)"\nsigma.1.1 = "0.2*cos(x2)"\ng.1 = "0.1"\n'
           'f = "sin(x1)*cos(x2)*cos(t)"\nphi = "sin(x1)*cos(x2)"\n')


def csr_product(op, block):
    """op U for a (samples, *shape) block by op's CSR matrix."""
    return (op.matrix @ block.reshape(len(block), -1).T).T.reshape(block.shape)


def csr_step(u, ap, t_n, dt, increments):
    """The step with its right-hand side formed on the sites, the mass and
    noise terms by their operators' CSR products, and then solved by the
    same split."""
    t_next = t_n + dt
    solver = LinearSolver(implicit_system(ap, t_next, dt),
                          reused=ap.keeps(ap.drift_asts) or len(u.values) > 1)
    rhs = csr_product(ap.mass, u.values)
    if ap.problem.f is not None:
        rhs += dt * f_h(ap, t_next).values
    for rho in ap.problem.active_rhos() if increments is not None else ():
        term = csr_product(ap.noise(t_n, rho), u.values) + ap.g_h(t_n, rho).values
        rhs += increments[rho - 1].reshape(-1, *[1] * ap.lattice.d) * term
    return solver.solve(rhs.reshape(len(rhs), -1)).reshape(rhs.shape)


class TestSplitStep:
    """The step forms its right-hand side in Fourier modes over the split
    axes, none when the system does not split, and never builds the mass's
    CSR matrix."""

    @pytest.mark.parametrize("preset, n, text, axes", [
        ("tensor(2)", 32, DET2D, (1,)),
        ("tensor(3)", 8, ASSEMBLY3D, (1,)),
        ("tensor(2)", 16, NOISY_SPLIT, (1,)),
        ("hat1d", 32, NOISY_CONSTANT, (0,)),
        ("hat1d", 32, NOISY_X1, ()),
        ("tensor(2)", 32, NOISY_T, ()),
    ], ids=["det2d", "assembly3d", "noisy-split", "noisy-division", "noisy-whole-lattice",
            "noisy-t-dependent"])
    @pytest.mark.parametrize("samples", [1, 3])
    def test_step_matches_csr_step(self, preset, n, text, axes, samples):
        # noisy-t-dependent runs BiCGStab on one sample and a whole-lattice LU on three
        ap = assembled_on(preset, n, text)
        steps, dt = 6, 0.5 * ap.lattice.h**2
        noises = [NoisePath(sample_seed(41, s), steps, dt) for s in range(samples)]
        states = []
        integrate(ap, noises, steps * dt, steps, observe=lambda k, u: states.append(u))
        assert ap.mass._matrix is None
        solver = LinearSolver(implicit_system(ap, dt, dt),
                              reused=ap.keeps(ap.drift_asts) or samples > 1)
        assert solver._axes == axes
        increments = np.stack([p.increments for p in noises], axis=1)
        for k, (u, got) in enumerate(zip(states, states[1:])):
            want = csr_step(u, ap, k * dt, dt, increments[:, :, k] if ap.problem.has_noise else None)
            if axes:
                assert np.linalg.norm(got.values - want) <= 1e-13 * np.linalg.norm(want), k
            else:  # over no axis the mode form is the site form, bit for bit
                assert np.array_equal(got.values, want), k

    @pytest.mark.parametrize("preset, n, text, samples, axes", [
        ("tensor(2)", 64, DET2D, 1, (1,)),
        ("hat1d", 64, STOCH1D, 3, ()),
        ("tensor(2)", 32, CLI2D, 1, ()),
        ("tensor(2)", 64, NOISY_SPLIT, 1, (1,)),
    ], ids=["det2d", "stoch1d", "cli2d-timedep", "noisy-split"])
    def test_step_builds_no_matrix_outside_bicgstab(self, monkeypatch, preset, n, text,
                                                    samples, axes):
        # no operator builds its CSR matrix, the mass and the noise operators
        # included, except a system that BiCGStab solves (cli2d_timedep's, one
        # per step); the steps agree with the CSR step
        import femspde.integrator as integrator

        matrices, solvers = [], []
        real_matrix, real_solver = StencilOperator.matrix, integrator.LinearSolver

        def matrix(op):
            matrices.append(op)
            return real_matrix.fget(op)

        def solver(op, reused=True):
            solvers.append((op, real_solver(op, reused)))
            return solvers[-1][1]

        monkeypatch.setattr(StencilOperator, "matrix", property(matrix))
        monkeypatch.setattr(integrator, "LinearSolver", solver)
        ap = assembled_on(preset, n, text)
        steps, dt = 4, 0.5 * ap.lattice.h**2
        noises = [NoisePath(sample_seed(43, s), steps, dt) for s in range(samples)]
        states = []
        integrate(ap, noises if ap.problem.has_noise else None, steps * dt, steps,
                  observe=lambda k, u: states.append(u))
        assert all(np.all(np.isfinite(u.values)) for u in states)
        krylov = [op for op, out in solvers if not out.direct]
        assert solvers[-1][1]._axes == axes
        assert matrices == krylov
        assert len(krylov) == (steps if text == CLI2D else 0)
        assert ap.mass._matrix is None
        assert all(ap.noise(0.0, rho)._matrix is None for rho in ap.problem.active_rhos())
        monkeypatch.undo()  # csr_step builds matrices
        increments = np.stack([p.increments for p in noises], axis=1)
        for k, (u, got) in enumerate(zip(states, states[1:])):
            incs = increments[:, :, k] if ap.problem.has_noise else None
            want = csr_step(u, ap, k * dt, dt, incs)
            if axes:
                assert np.linalg.norm(got.values - want) <= 1e-13 * np.linalg.norm(want), k
            else:
                assert np.array_equal(got.values, want), k

    def test_noisy_split_step_peak(self):
        # the noise-driven problem on 256^2 sites, its system kept and split
        # along x2, sigma varying along x1: a step with a nonzero increment
        # never holds the noise operator's 7.3 MB CSR matrix (it peaks at
        # 3.7 MB, and at 9.0 MB when it builds the matrix)
        import tracemalloc

        ap = assembled_on("tensor(2)", 256, NOISY_SPLIT)
        dt = 0.5 * ap.lattice.h**2
        u = GridFunction(ap.lattice, np.sin(np.arange(ap.lattice.total_sites)).reshape(
            1, *ap.lattice.shape))
        u = step_implicit_em(u, ap, 0.0, dt, np.zeros((1, 1)))  # factors and keeps the system
        ap.noise(0.0, 1), ap.g_h(0.0, 1)
        tracemalloc.start()
        try:
            step_implicit_em(u, ap, dt, dt, np.full((1, 1), 0.1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ap._memo["system", dt]._axes == (1,)
        assert peak < 6 * 2**20
        assert ap.noise(0.0, 1)._matrix is None


@pytest.mark.parametrize("preset, n", [("hat1d", 256), ("tensor(2)", 256), ("tensor(3)", 20)])
def test_mass_symbol_is_the_transform_of_its_coefficients(preset, n):
    # every axis is invariant, so the symbol takes R itself, not a mean of its copies
    from numpy.fft import rfftn

    from femspde.integrator import _mode_symbols

    element = build_element(preset)
    tensors = compute_reference_tensors(element)
    lattice = build_torus(element.d, L / n, n)
    mass = assemble_mass(tensors, lattice)
    kernel = np.zeros(lattice.shape)
    for lam, r in zip(tensors.gamma, tensors.R):
        kernel[tuple(-np.asarray(lam) % n)] += r
    symbol = _mode_symbols(mass, tuple(range(element.d)))[0][..., 0]
    assert np.array_equal(symbol, rfftn(kernel))
    assert np.array_equal(LinearSolver(mass)._factor, symbol)


class TestDet2dMemory:
    """det2d_ladder's problem on its 256^2 tensor(2) lattice: no step of the
    assembly holds the quadrature values or the coefficients of the whole
    lattice; numpy reports its allocations to tracemalloc."""

    n = 256

    @pytest.fixture(scope="class")
    def det2d(self):
        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(2, L / self.n, self.n)
        return element, tensors, lattice, parse_problem_text(DET2D)

    @staticmethod
    def peak(call) -> int:
        import tracemalloc

        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_mollified_data_peak(self, det2d):
        from femspde.assembly import mollify_data

        element, tensors, lattice, problem = det2d
        mollify_data(problem.phi, tensors, lattice)  # imports and caches outside the measurement
        assert self.peak(lambda: mollify_data(problem.phi, tensors, lattice)) < 4 * 2**20

    def test_implicit_system_peak(self, det2d):
        element, tensors, lattice, problem = det2d
        ap = AssembledProblem(element, tensors, problem, lattice)
        implicit_system(AssembledProblem(element, tensors, problem, lattice), 0.0, 1e-4)
        assert self.peak(lambda: implicit_system(ap, 0.0, 1e-4)) < 2**20

    def test_drift_stored_along_x1_only(self, det2d):
        element, tensors, lattice, problem = det2d
        drift = AssembledProblem(element, tensors, problem, lattice).drift(0.0)
        G = len(drift.offsets)
        assert drift.compact.shape == (self.n, 1, G)
        assert drift.compact.nbytes == self.n * G * 8


SPLIT_HASHES = """
import hashlib
import numpy as np
from femspde.integrator import LinearSolver, NoisePath, integrate
from tests.test_integrator import DET2D, assembled_on, split_system

op = split_system("tensor(2)", 128, DET2D)
solver = LinearSolver(op)
assert solver._axes == (1,)
rhs = np.random.default_rng(7).normal(size=(3, op.lattice.total_sites))
for block in (rhs[:1], rhs):
    print(hashlib.sha256(solver.solve(block).tobytes()).hexdigest())
ap = assembled_on("tensor(2)", 128, DET2D)
for samples in (1, 3):
    noises = [NoisePath(s, 13, 1e-4) for s in range(samples)]
    digest = hashlib.sha256()
    integrate(ap, noises, 13e-4, 13, observe=lambda n, u: digest.update(u.values.tobytes()))
    print(digest.hexdigest())
"""


def test_split_solve_does_not_depend_on_thread_count():
    # the 128^2 tensor(2) system splits along x2 into 65 blocks of 128 sites;
    # its 1- and 3-column solutions, and every state of 13 steps of det2d's
    # problem at 1 and 3 samples, are byte-identical at 1 and 2 BLAS threads
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    hashes = []
    for threads in ("1", "2"):
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root)]),
                   OPENBLAS_NUM_THREADS=threads)
        proc = subprocess.run([sys.executable, "-W", "error", "-c", SPLIT_HASHES], env=env,
                              capture_output=True, text=True, timeout=300, cwd=root)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout.split())
    assert len(hashes[0]) == 4 and hashes[0] == hashes[1]


class TestIntegrate:
    def test_unknown_record_rejected(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"\nphi = "sin(x1)"')
        with pytest.raises(ValueError, match="'all' or 'terminal'"):
            integrate(ap, None, T=0.1, steps=2, record="everything")

    def test_zero_data_zero_trajectory(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"')
        traj = integrate(ap, None, T=0.1, steps=5)
        assert traj.sup_norm_0h == 0.0
        np.testing.assert_array_equal(traj.terminal.values, 0.0)

    def test_heat_mode_recursion_oracle(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"\nphi = "sin(x1)"')
        lattice = ap.lattice
        steps, T = 25, 0.1
        dt = T / steps
        traj = integrate(ap, None, T=T, steps=steps)
        x = lattice.axis_coords()
        h = lattice.h
        mass_symbol = (2.0 + np.cos(h)) / 3.0
        lap_symbol = (2.0 - 2.0 * np.cos(h)) / h**2
        mollify = 2.0 * (1.0 - np.cos(h)) / h**2
        amp = mollify / mass_symbol  # initial mass solve
        amp *= (mass_symbol / (mass_symbol + dt * lap_symbol)) ** steps
        measured = 2.0 / lattice.n * float(traj.terminal.values[0] @ np.sin(x))
        assert measured == pytest.approx(amp, abs=1e-10)

    def test_sup_norm_non_increasing_for_heat(self, hat):
        element, tensors = hat
        n = 32
        lattice = build_torus(1, L / n, n)
        problem = parse_problem_text('a.1.1 = "1"\nphi = "sin(3*x1)"')
        ap = AssembledProblem(element, tensors, problem, lattice)
        dt = lattice.h / 2.0
        steps = 20
        traj = integrate(ap, None, T=steps * dt, steps=steps)
        sups = [float(np.abs(s.values).max()) for s in traj.states]
        for a, b in zip(sups, sups[1:]):
            assert b <= a * (1.0 + 1e-12)

    def test_additive_noise_mode_variance(self, hat):
        # constant forcing g acts on the zero mode only: a pure random walk
        # with Var(mean U_N) = N dt g^2 under the scheme's recursion
        element, tensors = hat
        lattice = build_torus(1, L / 16, 16)
        problem = parse_problem_text('a.1.1 = "1"\ng.1 = "0.1"\nphi = "sin(x1)"')
        ap = AssembledProblem(element, tensors, problem, lattice)
        steps, dt = 20, 0.005
        samples = 200
        means = []
        for k in range(samples):
            noise = NoisePath(sample_seed(999331, k), steps, dt, 1)
            traj = integrate(ap, noise, T=steps * dt, steps=steps, record="terminal")
            means.append(float(traj.terminal.values.mean()))
        var = float(np.var(means))
        assert var == pytest.approx(steps * dt * 0.01, rel=0.05)

    def test_deterministic_replay_is_bit_identical(self, hat):
        text = 'a.1.1 = "1"\nsigma.1.1 = "0.3"\ng.1 = "0.1"\nphi = "sin(x1)"'
        ap = make_assembled(hat, text)
        noise = NoisePath(777, 32, 0.01, 1)
        t1 = integrate(ap, noise, T=0.32, steps=32)
        t2 = integrate(make_assembled(hat, text), NoisePath(777, 32, 0.01, 1), T=0.32, steps=32)
        assert np.array_equal(t1.terminal.values, t2.terminal.values)
        assert t1.sup_norm_0h == t2.sup_norm_0h

    def test_noise_mismatch_rejected(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"\nsigma.1.1 = "0.3"\nphi = "sin(x1)"')
        with pytest.raises(ValueError, match="steps"):
            integrate(ap, NoisePath(1, 10, 0.01, 1), T=0.2, steps=20)
        with pytest.raises(ValueError, match="noise"):
            integrate(ap, None, T=0.2, steps=20)
        with pytest.raises(ValueError, match="dt"):
            integrate(ap, NoisePath(1, 20, 0.5, 1), T=0.2, steps=20)

    def test_too_few_noise_indices_rejected(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "1"\nsigma.1.2 = "0.3"\nphi = "sin(x1)"')
        with pytest.raises(ValueError, match="Wiener indices"):
            integrate(ap, NoisePath(1, 20, 0.01, rho_count=1), T=0.2, steps=20)
        integrate(ap, NoisePath(1, 20, 0.01, rho_count=2), T=0.2, steps=20)

    @pytest.mark.parametrize("T, steps, field", [
        (0.1, 0, "steps"), (0.1, -3, "steps"), (0.0, 4, "T"), (-1.0, 4, "T"),
        (np.inf, 4, "T"), (np.nan, 4, "T"),
    ])
    def test_non_positive_run_sizes_rejected(self, hat, T, steps, field):
        ap = make_assembled(hat, 'a.1.1 = "1"\nphi = "sin(x1)"')
        with pytest.raises(ValueError, match=field):
            integrate(ap, None, T, steps)

    def test_reused_assembly_matches_fresh(self, hat):
        # operators, data and U_0 kept from the first call change nothing in the second
        text = ('a.1.1 = "1 + 0.25*cos(x1)"\nsigma.1.1 = "0.3"\ng.1 = "0.1"\n'
                'f = "cos(x1)*sin(t)"\nphi = "sin(x1)"')
        shared = make_assembled(hat, text)
        for seed in (5, 6):
            noise = NoisePath(seed, 16, 0.01, 1)
            reused = integrate(shared, noise, T=0.16, steps=16)
            fresh = integrate(make_assembled(hat, text), noise, T=0.16, steps=16)
            for a, b in zip(reused.states, fresh.states, strict=True):
                assert np.array_equal(a.values, b.values)
            assert reused.sup_norm_0h == fresh.sup_norm_0h

    def test_kept_iterative_initial_state_matches_fresh(self, hat):
        # above DIRECT_SITE_LIMIT sites U_0 is still one FFT division; the one
        # kept by the first call is the one a fresh assembly computes
        text = 'a.1.1 = "1"\nphi = "sin(x1) + 0.5*cos(3*x1)"'
        shared = make_assembled(hat, text, n=2 * DIRECT_SITE_LIMIT)
        for _ in range(2):
            fresh = make_assembled(hat, text, n=2 * DIRECT_SITE_LIMIT)
            got = integrate(shared, None, T=1e-7, steps=1).states[0]
            want = integrate(fresh, None, T=1e-7, steps=1).states[0]
            assert np.array_equal(got.values, want.values)

    def test_singular_system_reports_step(self, hat):
        # dt * drift exactly cancels the mass operator when c = 1/dt
        ap = make_assembled(hat, 'a.1.1 = "0"\nc = "10"\nphi = "sin(x1)"')
        with pytest.raises(IntegrationError) as err:
            integrate(ap, None, T=1.0, steps=10)
        assert err.value.step == 0


BLOCK_PROBLEM = 'a.1.1 = "1 + 0.25*cos(x1)"\nsigma.1.1 = "0.3*cos(x1)"\nnu.1 = "0.2"\ng.1 = "0.1"\n'


def block_noises(samples=3, steps=8, dt=0.01):
    return [NoisePath(sample_seed(31, s), steps, dt, 1) for s in range(samples)]


class TestSampleBlock:
    """integrate advances a list of noise paths as one block."""

    @pytest.mark.parametrize("text", [
        BLOCK_PROBLEM + 'phi = "sin(x1)"\nf = "cos(x1)*sin(t)"',
        # t-dependent drift: one factorization per step, shared by the block
        BLOCK_PROBLEM.replace("cos(x1)", "cos(x1 - t)", 1) + 'phi = "sin(x1)"',
        # tensor(2), split along x2: the right-hand side is formed in Fourier modes
        NOISY_SPLIT,
    ])
    def test_block_equals_single_sample_runs(self, text):
        preset = "tensor(2)" if text.startswith("d = 2") else "hat1d"
        ap = assembled_on(preset, 16, text)
        noises = block_noises()
        seen = []
        block_traj = integrate(ap, noises, 0.08, 8,
                               observe=lambda n, u: seen.append(u.values.copy()))
        assert len(seen) == 9 and block_traj.terminal.values.shape == (3, *ap.lattice.shape)
        if preset == "tensor(2)":
            assert ap._memo["system", 0.01]._axes == (1,)
        for kept, block in zip(block_traj.states, seen, strict=True):
            assert np.array_equal(kept.values, block)
        # each sample's max over time of |U|_0h, from the blocks observe saw
        sups = np.max([norms_0h(ap.lattice, block) for block in seen], axis=0)
        for s, noise in enumerate(noises):
            traj = integrate(ap, noise, 0.08, 8)
            for block, state in zip(seen, traj.states, strict=True):
                assert np.array_equal(block[s], state.values[0])
            assert sups[s] == traj.sup_norm_0h
        assert block_traj.sup_norm_0h == float(sups.max())
        assert isinstance(block_traj.sup_norm_0h, float)
        assert not np.array_equal(seen[-1][0], seen[-1][1])

    @pytest.mark.parametrize("text, factors", [
        (BLOCK_PROBLEM, 1),  # one implicit system
        (BLOCK_PROBLEM.replace("cos(x1)", "cos(x1 - t)", 1), 8),
    ])
    def test_factorizations_shared_by_samples(self, hat, monkeypatch, text, factors):
        import femspde.integrator as integrator

        built = []

        class CountingSolver(integrator.LinearSolver):
            def __init__(self, *args, **kwargs):
                built.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(integrator, "LinearSolver", CountingSolver)
        integrate(make_assembled(hat, text), block_noises(), 0.08, 8)
        assert len(built) == factors + 1  # and the mass's, for U_0

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_non_finite_sample_names_step_and_sample(self, hat):
        # a huge increment leaves the solve finite but overflows |U|_0h
        noises = block_noises()
        noises[1].increments[0, 2] = 1e300
        with pytest.raises(IntegrationError, match="step 2 in sample 1") as err:
            integrate(make_assembled(hat, BLOCK_PROBLEM), noises, 0.08, 8)
        assert (err.value.step, err.value.sample) == (2, 1)

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_one_path_failure_is_sample_zero(self, hat):
        # a block of one sample: the message does not name the sample
        noise = block_noises(1)[0]
        noise.increments[0, 2] = 1e300
        with pytest.raises(IntegrationError) as err:
            integrate(make_assembled(hat, BLOCK_PROBLEM), noise, 0.08, 8)
        assert str(err.value) == "non-finite state or |U|_0h at step 2"
        assert (err.value.step, err.value.sample) == (2, 0)

    def test_non_finite_lu_solve_reports_step(self, hat):
        noises = block_noises()
        noises[2].increments[0, 5] = np.inf
        with pytest.raises(IntegrationError, match="non-finite values") as err:
            integrate(make_assembled(hat, BLOCK_PROBLEM), noises, 0.08, 8)
        assert err.value.step == 5

    def test_cancelling_system_fails_at_step_zero(self, hat):
        ap = make_assembled(hat, 'a.1.1 = "0"\nc = "10"\nsigma.1.1 = "0.3"')
        with pytest.raises(IntegrationError, match="cancels") as err:
            integrate(ap, block_noises(steps=10, dt=0.1), 1.0, 10)
        assert err.value.step == 0

    def test_krylov_block_matches_rows_and_checks_each(self, hat, rng):
        # systems that vary along the axis, so that nothing splits off and
        # 8192 sites are above DIRECT_SITE_LIMIT
        element, tensors = hat
        n = 2 * DIRECT_SITE_LIMIT
        lattice = build_torus(1, L / n, n)
        scale = 1.0 + 0.25 * np.cos(lattice.axis_coords())
        mass = assemble_mass(tensors, lattice)
        solver = LinearSolver(StencilOperator(lattice, tensors.gamma, full_coef(mass) * scale))
        assert not solver.direct
        rows = rng.normal(size=(2, n))
        block = solver.solve(rows)
        for row, out in zip(rows, block):
            assert np.array_equal(out, solver.solve(row[None])[0])
        # each column's residual is checked: a zero column passes, the next fails
        parity = StencilOperator(lattice, ((0,),), (np.arange(n) % 2)[None].astype(float))
        singular = LinearSolver(parity)
        assert not singular.direct
        with pytest.raises(SolverError, match="column 1"):
            singular.solve(np.stack([np.zeros(n), np.ones(n)]))

    def test_mismatched_noise_paths_rejected(self, hat):
        ap = make_assembled(hat, BLOCK_PROBLEM)
        noises = block_noises()
        with pytest.raises(ValueError, match="steps"):
            integrate(ap, noises + block_noises(1, steps=4), 0.08, 8)
        with pytest.raises(ValueError, match="rho_count"):
            integrate(ap, noises + [NoisePath(9, 8, 0.01, rho_count=2)], 0.08, 8)
        with pytest.raises(ValueError, match="at least one"):
            integrate(ap, [], 0.08, 8)


class TestMultilevel:
    def test_dimension_mismatch_rejected(self, hat):
        element, tensors = hat
        problem = parse_problem_text('d = 2\na.1.1 = "1"\na.2.2 = "1"')
        with pytest.raises(ValueError, match="problem.d = 2, tensors.d = 1, lattice.d = 2"):
            integrate_multilevel(element, tensors, problem, build_torus(2, L / 8, 8), 2, None,
                                 T=0.1, steps=2)

    def test_single_level_equals_integrate(self, hat):
        element, tensors = hat
        problem = parse_problem_text('a.1.1 = "1"\nphi = "sin(x1)"')
        lattice = build_torus(1, L / 16, 16)
        single = integrate(AssembledProblem(element, tensors, problem, lattice),
                           None, T=0.1, steps=8)
        multi = integrate_multilevel(element, tensors, problem, lattice, 1, None,
                                     T=0.1, steps=8)
        assert len(multi) == 1
        assert np.array_equal(multi[0].terminal.values, single.terminal.values)

    def test_deterministic_levels_match_individual_runs(self, hat):
        element, tensors = hat
        problem = parse_problem_text('a.1.1 = "1 + 0.25*cos(x1)"\nphi = "sin(x1)"')
        coarse = build_torus(1, L / 16, 16)
        multi = integrate_multilevel(element, tensors, problem, coarse, 3, None,
                                     T=0.1, steps=8)
        lattice = coarse
        for level in range(3):
            single = integrate(AssembledProblem(element, tensors, problem, lattice),
                               None, T=0.1, steps=8)
            assert np.array_equal(multi[level].terminal.values, single.terminal.values)
            lattice = lattice.refine()

    def test_coupled_levels_are_strongly_correlated(self, hat):
        element, tensors = hat
        problem = parse_problem_text(
            'a.1.1 = "1"\nsigma.1.1 = "0.3"\ng.1 = "0.1"\nphi = "sin(x1)"'
        )
        coarse = build_torus(1, L / 16, 16)
        site = 4  # x = pi/2
        coarse_vals, fine_vals = [], []
        for k in range(50):
            noise = NoisePath(sample_seed(2718, k), 16, 0.01, 1)
            levels = integrate_multilevel(element, tensors, problem, coarse, 2, noise,
                                          T=0.16, steps=16, record="terminal")
            coarse_vals.append(levels[0].terminal.values[0, site])
            fine_vals.append(levels[1].terminal.values[0, 2 * site])
        corr = float(np.corrcoef(coarse_vals, fine_vals)[0, 1])
        assert corr > 0.9

