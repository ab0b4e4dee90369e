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

    def test_negative_h_study_identical(self, hat):
        element, tensors = hat
        problem = parse_problem_text(DET_PROBLEM)
        base = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=1)
        flipped = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25, jbar=1,
                              h_sign=-1.0)
        res_a = run_convergence_study(element, tensors, problem, base)
        res_b = run_convergence_study(element, tensors, problem, flipped)
        assert res_a.base.errors == res_b.base.errors


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
        from femspde.lattice import build_torus, norm_0h, restrict
        from femspde.richardson import ExtrapolationPlan, combine, estimate_order

        element, tensors = hat
        problem = parse_problem_text(STOCH_PROBLEM)
        ladder = [16, 32, 64]
        ref_n = 256
        T = 0.25
        h_f = L / 64
        steps = int(np.ceil(T / (0.5 * h_f**2)))
        dt = T / steps
        plan = ExtrapolationPlan.create(1, 0.25)
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
            ref = combine([terminal[ref_n], terminal[2 * ref_n]], plan)
            for i, n in enumerate(ladder):
                lattice = build_torus(1, L / n, n)
                base_sq[i] += norm_0h(restrict(ref, lattice) - restrict(terminal[n], lattice)) ** 2
                mix = combine([terminal[n], terminal[2 * n]], plan)
                mix_sq[i] += norm_0h(restrict(ref, lattice) - mix) ** 2
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
    from femspde.richardson import ExtrapolationPlan, combine, trajectory_error

    steps = cfg.resolved_steps()
    dt = cfg.T / steps
    plan = ExtrapolationPlan.create(cfg.jbar, cfg.ratio)
    needed = sorted({n * 2**j for n in [*cfg.ladder_n, cfg.ref_n] for j in range(plan.levels)})
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
            return [combine([states[n * 2**j][k] for j in range(plan.levels)], plan)
                    for k in range(steps + 1)]

        ref = mixture(cfg.ref_n)
        for i, n in enumerate(cfg.ladder_n):
            lattice = build_torus(1, L / n, n)
            base_sq[i] += trajectory_error(states[n], ref, lattice) ** 2
            mix_sq[i] += trajectory_error(mixture(n), ref, lattice) ** 2
    base = np.sqrt(base_sq / cfg.samples).tolist()
    return base, np.sqrt(mix_sq / cfg.samples).tolist(), trajectories


class TestSharedLatticeWork:
    """Each lattice is assembled once per study and reused by every sample."""

    CFG = dict(L=L, ladder_n=[16, 32, 64], ref_n=128, T=0.05, jbar=1, samples=3, base_seed=11)

    def test_each_lattice_built_once(self, hat, monkeypatch):
        import femspde.assembly as assembly
        import femspde.integrator as integrator

        element, tensors = hat
        problem = parse_problem_text(MC_PROBLEM)
        counts = {"drift": 0, "noise": 0, "mollify": 0, "solver": 0}

        def counting(name, fn, skip=lambda *a: False):
            def wrapped(*args, **kwargs):
                counts[name] += not skip(*args)
                return fn(*args, **kwargs)
            return wrapped

        monkeypatch.setattr(assembly, "assemble_drift", counting("drift", assembly.assemble_drift))
        monkeypatch.setattr(assembly, "assemble_noise", counting("noise", assembly.assemble_noise))
        # f references t, so its mollification misses every step and is not counted
        monkeypatch.setattr(assembly, "mollify_data", counting(
            "mollify", assembly.mollify_data, lambda field, *rest: field is problem.f))

        class CountingSolver(integrator.LinearSolver):
            def __init__(self, *args, **kwargs):
                counts["solver"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(integrator, "LinearSolver", CountingSolver)
        run_convergence_study(element, tensors, problem, StudyConfig(**self.CFG))
        # 5 lattices (16 ... 256): drift, noise, phi_h, g_h and the mass
        # factorization once each; the implicit system once per (sample, lattice)
        assert counts == {"drift": 5, "noise": 5, "mollify": 10, "solver": 5 + 3 * 5}

    def test_errors_equal_fresh_assembly(self, hat, monkeypatch):
        import femspde.study as study

        element, tensors = hat
        problem = parse_problem_text(MC_PROBLEM)
        cfg = StudyConfig(**self.CFG)
        # the errors are maxima over time, which the initial-data error
        # dominates; the trajectories also show the noise of each sample
        seen = []
        real = study.integrate

        def recording(*args, **kwargs):
            seen.append(real(*args, **kwargs))
            return seen[-1]

        monkeypatch.setattr(study, "integrate", recording)
        result = run_convergence_study(element, tensors, problem, cfg)
        monkeypatch.undo()
        base, mix, trajectories = fresh_study_errors(element, tensors, problem, cfg)
        assert result.base.errors == base
        assert result.mixture.errors == mix
        assert len(seen) == len(trajectories) == 3 * 5
        for got, want in zip(seen, trajectories):
            for a, b in zip(got.states, want.states, strict=True):
                assert np.array_equal(a.values, b.values)


class TestTwoDimensionalStudy:
    def test_product_element_orders(self):
        element = build_element("tensor(2)")
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(
            'd = 2\na.1.1 = "1 + 0.25*cos(x1)"\na.2.2 = "1"\nb.1 = "0.1"\n'
            'c = "-0.2"\nf = "sin(x1)*cos(x2)"\nphi = "sin(x1)*cos(x2)"'
        )
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=128, T=0.25, jbar=1, ratio=0.25)
        result = run_convergence_study(element, tensors, problem, cfg)
        # the reference ladder tops out at 256^2 sites, exercising the
        # iterative solver branch above the dense site limit
        assert 1.8 <= result.base.fitted_order <= 2.3
        assert 3.6 <= result.mixture.fitted_order <= 4.5


class TestValidation:
    def test_dt_rule(self):
        # dt = dt_factor * (L / n_finest)^2, rounded up to whole steps
        assert resolve_steps(0.5, L, 32, 0.5) == 26
        assert resolve_steps(1e-9, L, 32, 0.5) == 1
        assert resolve_steps(0.5, L, 32, 0.5, steps=7) == 7
        cfg = StudyConfig(L=L, ladder_n=[8, 16, 32], ref_n=128, T=0.5)
        assert cfg.resolved_steps() == resolve_steps(0.5, L, 32, 0.5)

    @pytest.mark.parametrize("T, dt_factor, steps, field", [
        (0.0, 0.5, None, "T"), (-1.0, 0.5, 4, "T"),
        (0.5, 0.0, None, "dt_factor"), (0.5, -1.0, None, "dt_factor"),
        (0.5, 0.5, 0, "steps"), (0.5, 0.5, -3, "steps"),
    ])
    def test_non_positive_run_sizes_rejected(self, T, dt_factor, steps, field):
        with pytest.raises(ValueError, match=field):
            resolve_steps(T, L, 32, dt_factor, steps)

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
