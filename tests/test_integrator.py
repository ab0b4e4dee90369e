import numpy as np
import pytest
from scipy.sparse.linalg import spsolve

from femspde.assembly import AssembledProblem, StencilOperator, assemble_mass
from femspde.elements import build_element
from femspde.integrator import (
    DIRECT_SITE_LIMIT,
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
from tests.test_assembly import dense_from_stencil

L = 2 * np.pi


@pytest.fixture(scope="module")
def hat():
    element = build_element("hat1d")
    return element, compute_reference_tensors(element)


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
                assert a.increment(rho, n) == a.increments[rho - 1, n]

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

    def test_out_of_range_rejected(self):
        path = NoisePath(1, steps=4, dt=0.1, rho_count=1)
        with pytest.raises(IndexError):
            path.increment(2, 0)
        with pytest.raises(IndexError):
            path.increment(1, 4)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            NoisePath(1, steps=0, dt=0.1)
        with pytest.raises(ValueError):
            NoisePath(1, steps=4, dt=0.0)

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
        rhs = mass_mat @ u0.values[0] + dt * ap.f_h(dt).values[0]
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
        # BiCGStab is reached through a lattice above the direct-solve limit
        element, tensors = hat
        n = 2 * DIRECT_SITE_LIMIT
        lattice = build_torus(1, L / n, n)
        mass = assemble_mass(tensors, lattice)
        u = GridFunction(lattice, rng.normal(size=n))
        rhs = mass.apply(u)
        out = solve(mass, rhs)
        np.testing.assert_allclose(out.values, u.values, atol=1e-8)

    def test_singular_system_fails(self):
        for n in (16, 2 * DIRECT_SITE_LIMIT):  # sparse LU, then BiCGStab
            lattice = build_torus(1, L / n, n)
            zero = StencilOperator(lattice, ((0,),), np.zeros((1, n)))
            rhs = GridFunction(lattice, np.ones(n))
            with pytest.raises(SolverError):
                solve(zero, rhs)

    @pytest.mark.parametrize(
        "preset, n_direct, n_krylov",
        [("hat1d", 64, 4098), ("tensor(2)", 16, 66), ("tensor(3)", 8, 18),
         ("triangle2d", 16, 66)],
    )
    def test_paths_match_reference_solvers(self, preset, n_direct, n_krylov, rng):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        d = element.d
        diffusion = "\n".join(f'a.{i}.{i} = "1"' for i in range(1, d + 1))
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
                want, rtol = np.linalg.solve(op.to_dense(), rhs.values.ravel()), 1e-12
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
        # the mass, or mass - dt * drift with no coefficient depending on x
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        lattice = build_torus(element.d, L / n, n)
        if text is None:
            op = assemble_mass(tensors, lattice)
        else:
            ap = AssembledProblem(element, tensors, parse_problem_text(text), lattice)
            op = implicit_system(ap, 0.0, 0.5 * lattice.h**2)
        solver = LinearSolver(op)
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
        # det2d_ladder's implicit system on its 128^2 reference: a = 1 + 0.25 cos x1
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
        got = LinearSolver(op).solve(rhs[None])[0]
        preconditioned = len(krylov_iters)
        assert preconditioned <= 3  # measured: 3
        scipy.sparse.linalg.bicgstab(op.matrix, rhs, rtol=1e-10, atol=0.0)
        plain = len(krylov_iters) - preconditioned  # measured: 12
        assert plain >= 4 * preconditioned
        want = spsolve(op.matrix.copy(), rhs)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)


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
        # above the direct limit U_0 is a BiCGStab solve; the one kept by the
        # first call is the one a fresh assembly computes
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
    ])
    def test_block_equals_single_sample_runs(self, hat, text):
        ap = make_assembled(hat, text)
        noises = block_noises()
        seen = []
        block_traj = integrate(ap, noises, 0.08, 8,
                               observe=lambda n, u: seen.append(u.values.copy()))
        assert len(seen) == 9 and block_traj.terminal.values.shape == (3, 16)
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
        (BLOCK_PROBLEM, 2),  # U_0's mass solve, then one implicit system
        (BLOCK_PROBLEM.replace("cos(x1)", "cos(x1 - t)", 1), 1 + 8),
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
        assert len(built) == factors

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
        element, tensors = hat
        n = 2 * DIRECT_SITE_LIMIT
        lattice = build_torus(1, L / n, n)
        solver = LinearSolver(assemble_mass(tensors, lattice))
        assert not solver.direct
        rows = rng.normal(size=(2, n))
        block = solver.solve(rows)
        for row, out in zip(rows, block):
            assert np.array_equal(out, solver.solve(row[None])[0])
        # each column's residual is checked: a zero column passes, the next fails
        zero = StencilOperator(lattice, ((0,),), np.zeros((1, n)))
        singular = LinearSolver(zero)
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

