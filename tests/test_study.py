import numpy as np
import pytest

from femspde.elements import build_element
from femspde.integrator import NoisePath, sample_seed
from femspde.problem import parse_problem_text
from femspde.study import StudyConfig, resolve_steps, run_convergence_study
from femspde.tensors import compute_reference_tensors

L = 2 * np.pi

DET_PROBLEM = """
a.1.1 = "1 + 0.25*cos(x1)"
b.1 = "0.1"
c = "-0.2"
f = "sin(x1)"
phi = "sin(x1)"
"""

STOCH_PROBLEM = """
a.1.1 = "1"
sigma.1.1 = "0.3"
g.1 = "0.1"
phi = "sin(x1)"
"""


@pytest.fixture(scope="module")
def hat():
    element = build_element("hat1d")
    return element, compute_reference_tensors(element)


class TestDeterministicStudy:
    def test_base_and_mixture_orders(self, hat):
        element, tensors = hat
        problem = parse_problem_text(DET_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.5, jbar=1, ratio=0.25)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.85 <= result.base.fitted_order <= 2.3
        assert 3.6 <= result.mixture.fitted_order <= 4.5
        assert result.dt == pytest.approx(cfg.T / result.steps)

    def test_two_extra_levels_reach_order_six(self, hat):
        # the paper's acceleration "to any order": jbar extra levels give 2 (jbar + 1)
        element, tensors = hat
        problem = parse_problem_text(DET_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=2)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.85 <= result.base.fitted_order <= 2.3
        assert 5.7 <= result.mixture.fitted_order <= 6.6  # measured: 6.05

    def test_wrong_ratio_fails_to_accelerate(self, hat):
        element, tensors = hat
        problem = parse_problem_text(DET_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.5, jbar=1, ratio=0.0625)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert result.mixture.fitted_order < 3.0

    def test_jbar_zero_reduces_to_base(self, hat):
        element, tensors = hat
        problem = parse_problem_text(DET_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=0)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert result.mixture is None
        assert 1.85 <= result.base.fitted_order <= 2.3


class TestStochasticStudy:
    def test_rms_orders_with_coupled_noise(self, hat):
        element, tensors = hat
        problem = parse_problem_text(STOCH_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=1,
                          samples=5, base_seed=11)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.7 <= result.base.fitted_order <= 2.4
        for mix_err, base_err in zip(result.mixture.errors, result.base.errors):
            assert mix_err < base_err

    def test_same_seed_same_report(self, hat):
        element, tensors = hat
        problem = parse_problem_text(STOCH_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=1,
                          samples=2, base_seed=5)
        res_a = run_convergence_study(element, tensors, problem, cfg)
        res_b = run_convergence_study(element, tensors, problem, cfg)
        assert res_a.base.errors == res_b.base.errors
        assert res_a.mixture.errors == res_b.mixture.errors

    def test_terminal_time_strong_orders(self, hat):
        # the sup-over-times metric is dominated by the initial projection;
        # terminal-time errors exercise the coupled evolution itself
        from femspde.assembly import AssembledProblem
        from femspde.integrator import integrate
        from femspde.lattice import build_torus, restrict
        from femspde.richardson import estimate_order, extrapolation_coefficients

        from .mixture_oracles import combine, error_norm

        element, tensors = hat
        problem = parse_problem_text(STOCH_PROBLEM)
        ladder = [16, 32, 64]
        ref_n = 256
        T = 0.25
        h_f = L / 64
        steps = int(np.ceil(T / (0.5 * h_f**2)))
        dt = T / steps
        coeffs = extrapolation_coefficients(1, 0.25)
        needed = sorted({n * 2**j for n in [*ladder, ref_n] for j in (0, 1)})
        base_sq = np.zeros(3)
        mix_sq = np.zeros(3)
        samples = 8
        for s in range(samples):
            noise = NoisePath(sample_seed(123, s), steps, dt, 1)
            terminal = {}
            for n in needed:
                lattice = build_torus(1, L / n, n)
                ap = AssembledProblem(element, tensors, problem, lattice)
                terminal[n] = integrate(ap, noise, T, steps, record="terminal").terminal
            ref = combine([terminal[ref_n], terminal[2 * ref_n]], coeffs)
            for i, n in enumerate(ladder):
                lattice = build_torus(1, L / n, n)
                ref_here = restrict(ref, lattice)
                base_sq[i] += error_norm(ref_here, restrict(terminal[n], lattice))[0] ** 2
                mix = combine([terminal[n], terminal[2 * n]], coeffs)
                mix_sq[i] += error_norm(ref_here, mix)[0] ** 2
        hs = [L / n for n in ladder]
        base_rms = np.sqrt(base_sq / samples)
        mix_rms = np.sqrt(mix_sq / samples)
        assert 1.7 <= estimate_order(list(zip(hs, base_rms))) <= 2.4
        assert 3.5 <= estimate_order(list(zip(hs, mix_rms))) <= 4.5
        assert np.all(mix_rms < base_rms)


MC_PROBLEM = """
a.1.1 = "1 + 0.25*cos(x1)"
sigma.1.1 = "0.3"
g.1 = "0.1"
f = "cos(x1)*sin(t)"
phi = "sin(x1)"
"""


def fresh_study_errors(element, tensors, problem, cfg):
    """Test-only oracle: the study with a fresh AssembledProblem per (sample, lattice).

    Returns the base and mixture errors and every trajectory, in solve order.
    """
    from femspde.assembly import AssembledProblem
    from femspde.integrator import integrate
    from femspde.lattice import build_torus
    from femspde.richardson import extrapolation_coefficients, trajectory_error

    from .mixture_oracles import combine

    steps = cfg.resolved_steps()
    dt = cfg.T / steps
    coeffs = extrapolation_coefficients(cfg.jbar, cfg.ratio)
    levels = len(coeffs)
    needed = sorted({n * 2**j for n in [*cfg.ladder_n, cfg.ref_n] for j in range(levels)})
    base_sq = np.zeros(len(cfg.ladder_n))
    mix_sq = np.zeros(len(cfg.ladder_n))
    trajectories = []
    for s in range(cfg.samples):
        noise = NoisePath(sample_seed(cfg.base_seed, s), steps, dt, problem.rho_max)
        states = {}
        for n in needed:
            ap = AssembledProblem(element, tensors, problem, build_torus(1, L / n, n))
            trajectories.append(integrate(ap, noise, cfg.T, steps, record="all"))
            states[n] = trajectories[-1].states

        def mixture(n):
            return [combine([states[n * 2**j][k] for j in range(levels)], coeffs)
                    for k in range(steps + 1)]

        ref = mixture(cfg.ref_n)
        for i, n in enumerate(cfg.ladder_n):
            lattice = build_torus(1, L / n, n)
            base_sq[i] += trajectory_error(states[n], ref, lattice)[0] ** 2
            mix_sq[i] += trajectory_error(mixture(n), ref, lattice)[0] ** 2
    base = np.sqrt(base_sq / cfg.samples).tolist()
    return base, np.sqrt(mix_sq / cfg.samples).tolist(), trajectories


def sample_bytes(cfg):
    """Bytes one sample of a 1-D study stores, by the rule study.py documents:
    at every time index the reference and each mixture's terms j >= 1 injected
    onto their ladder meshes, plus BLOCK_COPIES states on the largest lattice."""
    from femspde.study import BLOCK_COPIES

    levels = cfg.jbar + 1
    stored = levels * max(cfg.ladder_n) + (levels - 1) * sum(cfg.ladder_n)
    largest = cfg.ref_n * 2**cfg.jbar
    return 8 * ((cfg.resolved_steps() + 1) * stored + BLOCK_COPIES * largest)


def count_integrate_calls(monkeypatch):
    """Patch the study's integrate to count its calls per lattice size n."""
    import femspde.study as study

    runs = {}
    real = study.integrate

    def counting(assembled, *args, **kwargs):
        runs[assembled.lattice.n] = runs.get(assembled.lattice.n, 0) + 1
        return real(assembled, *args, **kwargs)

    monkeypatch.setattr(study, "integrate", counting)
    return runs


class TestSharedLatticeWork:
    """Each lattice is assembled once per study and reused by every sample."""

    CFG = dict(L=L, ladder_n=[16, 32, 64], ref_n=128, T=0.05, jbar=1, samples=3, base_seed=11)

    def count_work(self, hat, monkeypatch, cfg):
        """Assemblies, mollifications and LinearSolvers of one study run."""
        import femspde.assembly as assembly
        import femspde.integrator as integrator

        element, tensors = hat
        problem = parse_problem_text(MC_PROBLEM)
        seen = {"drift": 0, "noise": 0, "mollify": 0, "solver": 0}

        def counting(name, fn, skip=lambda *a: False):
            def wrapped(*args, **kwargs):
                seen[name] += not skip(*args)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(assembly, "assemble_drift", counting("drift", assembly.assemble_drift))
        monkeypatch.setattr(assembly, "assemble_noise", counting("noise", assembly.assemble_noise))
        # f references t, so its mollification misses every step and is not counted
        monkeypatch.setattr(assembly, "mollify_data", counting(
            "mollify", assembly.mollify_data, lambda field, *rest: field is problem.f))

        class CountingSolver(integrator.LinearSolver):
            def __init__(self, *args, **kwargs):
                seen["solver"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(integrator, "LinearSolver", CountingSolver)
        run_convergence_study(element, tensors, problem, cfg)
        return seen

    def test_each_lattice_built_once(self, hat, monkeypatch):
        seen = self.count_work(hat, monkeypatch, StudyConfig(**self.CFG))
        # 5 lattices (16 ... 256): drift, noise, phi_h, g_h, the implicit
        # system and the mass (for U_0) once each, shared by all samples
        assert seen == {"drift": 5, "noise": 5, "mollify": 10, "solver": 10}

    def test_chunks_share_each_lattice(self, hat, monkeypatch):
        # a budget of 8 samples runs 20 samples in 3 chunks; the assembly, U_0
        # and the factored implicit system of all 6 lattices are kept between chunks
        import femspde.study as study

        cfg = StudyConfig(**{**self.CFG, "ref_n": 256, "samples": 20})
        monkeypatch.setattr(study, "STUDY_CHUNK_BYTES", 8 * sample_bytes(cfg))
        runs = count_integrate_calls(monkeypatch)
        seen = self.count_work(hat, monkeypatch, cfg)
        assert seen == {"drift": 6, "noise": 6, "mollify": 12, "solver": 12}
        assert runs == {m: 3 for m in (16, 32, 64, 128, 256, 512)}

    def test_errors_equal_fresh_assembly(self, hat, monkeypatch):
        import femspde.integrator as integrator

        element, tensors = hat
        problem = parse_problem_text(MC_PROBLEM)
        cfg = StudyConfig(**self.CFG)
        # the errors are maxima over time, which the initial-data error
        # dominates; the states also show the noise of each sample
        blocks = {}  # lattice n -> the (samples, n) block at every step
        real = integrator.step_implicit_em

        def recording(u, assembled, *args, **kwargs):
            out = real(u, assembled, *args, **kwargs)
            blocks.setdefault(assembled.lattice.n, [u.values]).append(out.values)
            return out

        monkeypatch.setattr(integrator, "step_implicit_em", recording)
        result = run_convergence_study(element, tensors, problem, cfg)
        monkeypatch.undo()
        base, mix, trajectories = fresh_study_errors(element, tensors, problem, cfg)
        assert result.base.errors == base
        assert result.mixture.errors == mix
        needed = sorted(blocks)
        assert len(needed) * cfg.samples == len(trajectories) == 3 * 5
        for k, want in enumerate(trajectories):
            s, n = divmod(k, len(needed))
            got = blocks[needed[n]]
            assert len(got) == len(want.states)
            for block, state in zip(got, want.states):
                assert block.shape == (cfg.samples, needed[n])
                assert np.array_equal(block[s], state.values[0])


# driven by the noise alone: phi = 0 and f = 0, so the errors are 0 without it
NOISE_PROBLEM = """
a.1.1 = "1 + 0.25*cos(x1)"
sigma.1.1 = "0.3*cos(x1)"
nu.1 = "0.2"
g.1 = "0.1*sin(x1)"
"""


class TestNoiseDrivenStudy:
    """Strong convergence on a problem whose errors come only from the noise.

    On STOCH_PROBLEM the max-over-time errors sit at t = 0 and do not depend
    on the noise, so they cannot tell one sample's path from another's.
    """

    CFG = dict(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=1, samples=10,
               base_seed=2024)

    def test_rms_orders_and_oracle(self, hat):
        element, tensors = hat
        problem = parse_problem_text(NOISE_PROBLEM)
        cfg = StudyConfig(**self.CFG)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.9 <= result.base.fitted_order <= 2.1
        assert 3.8 <= result.mixture.fitted_order <= 4.2
        for mix_err, base_err in zip(result.mixture.errors, result.base.errors):
            assert mix_err < base_err
        base, mix, _ = fresh_study_errors(element, tensors, problem, cfg)
        assert result.base.errors == base
        assert result.mixture.errors == mix

    def test_two_extra_levels_reach_order_six(self, hat):
        element, tensors = hat
        problem = parse_problem_text(NOISE_PROBLEM)
        cfg = StudyConfig(**{**self.CFG, "jbar": 2, "samples": 5})
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.9 <= result.base.fitted_order <= 2.1
        assert 5.7 <= result.mixture.fitted_order <= 6.6  # measured: 6.09

    def test_three_extra_levels_reach_order_eight(self, hat):
        element, tensors = hat
        problem = parse_problem_text(NOISE_PROBLEM)
        cfg = StudyConfig(**{**self.CFG, "ladder_n": [8, 16, 32], "ref_n": 128, "jbar": 3,
                             "samples": 5})
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.9 <= result.base.fitted_order <= 2.1
        assert 7.6 <= result.mixture.fitted_order <= 8.8  # measured: 8.00

    def test_errors_vanish_without_noise(self, hat):
        element, tensors = hat
        text = "\n".join(line for line in NOISE_PROBLEM.splitlines()
                         if not line.startswith(("sigma", "nu", "g")))
        problem = parse_problem_text(text)
        assert not problem.has_noise
        result = run_convergence_study(element, tensors, problem, StudyConfig(**self.CFG))
        assert result.base.errors == [0.0, 0.0, 0.0]
        assert result.mixture.errors == [0.0, 0.0, 0.0]

    @pytest.mark.parametrize("jbar, ladder_n, ref_n", [(2, [16, 32, 64], 128),
                                                       (3, [8, 16, 32], 128)])
    def test_higher_mixtures_match_oracle(self, hat, jbar, ladder_n, ref_n):
        # the lattices run finest first, yet every mixture sums its levels
        # in level order, so even order-6 and order-8 errors agree
        element, tensors = hat
        problem = parse_problem_text(NOISE_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=ladder_n, ref_n=ref_n, T=0.25, jbar=jbar, samples=3,
                          base_seed=5)
        result = run_convergence_study(element, tensors, problem, cfg)
        base, mix, _ = fresh_study_errors(element, tensors, problem, cfg)
        np.testing.assert_allclose(result.base.errors, base, rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(result.mixture.errors, mix, rtol=1e-13, atol=0.0)

    def test_cancelling_system_fails_at_step_zero(self, hat):
        # dt * c = 1 with no diffusion: mass - dt * drift cancels, as in integrate
        from femspde.integrator import IntegrationError

        element, tensors = hat
        problem = parse_problem_text('a.1.1 = "0"\nc = "10"\nphi = "sin(x1)"')
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=128, T=0.1, steps=1)
        with pytest.raises(IntegrationError, match="cancels") as err:
            run_convergence_study(element, tensors, problem, cfg)
        assert err.value.step == 0


class TestChunks:
    """The samples run in chunks that fit study.STUDY_CHUNK_BYTES; the chunks
    change how often each lattice runs, never the errors."""

    def test_chunking_keeps_errors(self, hat, monkeypatch):
        import femspde.study as study

        element, tensors = hat
        problem = parse_problem_text(NOISE_PROBLEM)
        cfg = StudyConfig(**TestNoiseDrivenStudy.CFG)
        assert cfg.samples == 10  # chunks of 3 leave an uneven last chunk
        # chunk -> budget: below one sample, just under 4 samples, the default
        budgets = {1: 1, 3: 4 * sample_bytes(cfg) - 1, 10: study.STUDY_CHUNK_BYTES}
        errors = []
        for chunk, budget in budgets.items():
            monkeypatch.setattr(study, "STUDY_CHUNK_BYTES", budget)
            runs = count_integrate_calls(monkeypatch)
            result = run_convergence_study(element, tensors, problem, cfg)
            monkeypatch.undo()
            errors.append((result.base.errors, result.mixture.errors))
            chunks = -(-cfg.samples // chunk)
            assert runs == {m: chunks for m in (16, 32, 64, 128, 256, 512)}, chunk
        assert errors[0] == errors[1] == errors[2]

    def test_benchmark_shaped_study_runs_one_chunk(self, hat, monkeypatch):
        # the stoch1d_mc benchmark's shape: about 0.12 MB per sample, so its
        # 30 samples run as one block on each lattice
        element, tensors = hat
        problem = parse_problem_text(STOCH_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, samples=30)
        assert sample_bytes(cfg) == 8 * (53 * 240 + 4 * 512)
        runs = count_integrate_calls(monkeypatch)
        run_convergence_study(element, tensors, problem, cfg)
        assert runs == {m: 1 for m in (16, 32, 64, 128, 256, 512)}


class TestTwoDimensionalStudy:
    PROBLEM = ('d = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "0.1"\n'
               'c = "-0.2"\nf = "sin(x1)*cos(x2)"\nphi = "sin(x1)*cos(x2)"')

    def test_product_element_orders(self):
        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(self.PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=128, T=0.25, jbar=1, ratio=0.25)
        result = run_convergence_study(element, tensors, problem, cfg)
        # the reference ladder tops out at 256^2 sites, exercising the
        # iterative solver branch above the dense site limit
        assert 1.8 <= result.base.fitted_order <= 2.3
        assert 3.6 <= result.mixture.fitted_order <= 4.5

    @pytest.mark.parametrize("preset", ["tensor(2)", "triangle2d"])
    def test_two_extra_levels_reach_order_six(self, preset):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(self.PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=64, T=0.25, jbar=2)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.8 <= result.base.fitted_order <= 2.3
        # measured: 6.27 (tensor(2)), 6.10 (triangle2d)
        assert 5.7 <= result.mixture.fitted_order <= 6.6


class TestValidation:
    def test_dt_rule(self):
        # dt = 0.5 * (L / n_finest)^2, rounded up to whole steps
        assert resolve_steps(0.5, L, 32) == 26
        assert resolve_steps(1e-9, L, 32) == 1
        assert resolve_steps(0.5, L, 32, steps=7) == 7
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=128, T=0.5)
        assert cfg.resolved_steps() == resolve_steps(0.5, L, 32)

    @pytest.mark.parametrize("T, steps, field", [
        (0.0, None, "T"), (-1.0, 4, "T"), (0.5, 0, "steps"), (0.5, -3, "steps"),
        (np.inf, None, "T"), (np.inf, 4, "T"), (np.nan, None, "T"),
    ])
    def test_non_positive_run_sizes_rejected(self, T, steps, field):
        with pytest.raises(ValueError, match=field):
            resolve_steps(T, L, 32, steps)

    def test_overflowing_dt_rejected(self):
        # dt = 0.5 h^2 overflows: one step would be taken of an infinite dt
        with pytest.raises(ValueError, match="over dt = inf gives no finite number of steps"):
            resolve_steps(0.1, 1e200, 8)

    @pytest.mark.parametrize("steps", [2.5, 3.0, "3", True])
    def test_non_integer_steps_rejected(self, steps):
        with pytest.raises(ValueError, match=f"steps must be an integer, got {steps!r}"):
            resolve_steps(0.5, L, 32, steps)
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=128, T=0.5, steps=steps)
        with pytest.raises(ValueError, match=f"got {steps!r}"):
            cfg.resolved_steps()

    def test_numpy_integer_steps_accepted(self):
        assert resolve_steps(0.5, L, 32, np.int64(7)) == 7
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=128, T=0.5, steps=np.int32(3))
        assert cfg.resolved_steps() == 3

    @pytest.mark.parametrize("samples", [0, -2])
    def test_samples_below_one_rejected(self, hat, samples):
        element, tensors = hat
        problem = parse_problem_text(STOCH_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=64, T=0.05, samples=samples)
        with pytest.raises(ValueError, match="samples"):
            run_convergence_study(element, tensors, problem, cfg)

    def test_ladder_requirements(self, hat):
        element, tensors = hat
        problem = parse_problem_text(DET_PROBLEM)
        with pytest.raises(ValueError, match="at least 3"):
            run_convergence_study(element, tensors, problem,
                                  StudyConfig(L=L, ladder_n=[16, 32], ref_n=256, T=0.1))
        with pytest.raises(ValueError, match="increasing"):
            run_convergence_study(element, tensors, problem,
                                  StudyConfig(L=L, ladder_n=[32, 16, 64], ref_n=256, T=0.1))
        with pytest.raises(ValueError, match="reference"):
            run_convergence_study(element, tensors, problem,
                                  StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=64, T=0.1))
        # the reference is injected onto every ladder mesh: 192 / 64 = 3
        with pytest.raises(ValueError, match="power of two"):
            run_convergence_study(element, tensors, problem,
                                  StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=192, T=0.1))
