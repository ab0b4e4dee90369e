"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.  Each criterion enforces both its numeric tolerances and
its wall-clock budget.
"""

import json
import os
import time
from contextlib import contextmanager
from fractions import Fraction as F

import numpy as np
import pytest

from femspde.assembly import AssembledProblem, assemble_mass
from femspde.checks import check_invertibility, verify_element
from femspde.cli import EXIT_OK, main
from femspde.elements import build_element
from femspde.integrator import LinearSolver, step_implicit_em
from femspde.lattice import GridFunction, build_torus
from femspde.problem import parse_problem_text
from femspde.study import StudyConfig, run_convergence_study
from femspde.tensors import compute_reference_tensors
from tests.test_assembly import (
    EQUIVALENCE_PROBLEMS,
    assert_minus_h_identity,
    dense,
    dense_from_stencil,
)
from tests.test_tensors import row

L = 2 * np.pi

DET_PROBLEM = """\
a.1.1 = "1 + 0.25*cos(x1)"
b.1 = "0.1"
c = "-0.2"
f = "sin(x1)"
phi = "sin(x1)"
"""

STOCH_PROBLEM = """\
a.1.1 = "1"
sigma.1.1 = "0.3"
g.1 = "0.1"
phi = "sin(x1)"
"""


@contextmanager
def criterion(number: int, name: str, budget_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"\nACCEPTANCE {number} ({name}): FAIL [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    if elapsed > budget_s:
        print(f"\nACCEPTANCE {number} ({name}): FAIL [runtime {elapsed:.2f}s > {budget_s}s]")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds the {budget_s}s budget")
    print(f"\nACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s]")


def poly1d_integral(coeffs, a, b):
    total = F(0)
    for k, c in enumerate(coeffs):
        total += F(c) * (F(b) ** (k + 1) - F(a) ** (k + 1)) / (k + 1)
    return total


def test_criterion_1_element_constants():
    with criterion(1, "element constants exact", budget_s=3.0):
        # hat element: every published constant to 1e-12, within 1 s
        t_start = time.perf_counter()
        hat = build_element("hat1d")
        tensors = compute_reference_tensors(hat)
        zero = row(tensors, (0,))
        assert tensors.R[zero] == pytest.approx(2.0 / 3.0, abs=1e-12)
        for eps in (-1, 1):
            g = row(tensors, (eps,))
            assert tensors.R[g] == pytest.approx(1.0 / 6.0, abs=1e-12)
            assert tensors.Rab[g, 0, 0] == pytest.approx(1.0, abs=1e-12)
            assert tensors.Rbeta[g, 0] == pytest.approx(eps / 2.0, abs=1e-12)
        assert tensors.Rab[zero, 0, 0] == pytest.approx(-2.0, abs=1e-12)
        assert tensors.Q[zero, 0, 0, 0, 0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        # the first-moment tensor is even in the shift (psi is symmetric, and
        # z -> -z flips both the coordinate factor and the derivative); the
        # per-shift magnitude 1/6 comes from the exact oracle below
        qt_edge = poly1d_integral([0, 1, -1], 0, 1)  # z(1-z) on [0, 1]
        qt_center = poly1d_integral([0, 1, 1], -1, 0) - poly1d_integral([0, 1, -1], 0, 1)
        assert qt_edge == F(1, 6) and qt_center == F(-1, 3)
        for eps in (-1, 1):
            qt = tensors.Qtilde[row(tensors, (eps,)), 0, 0]
            assert qt == pytest.approx(float(qt_edge), abs=1e-12)
            assert abs(qt) == pytest.approx(1.0 / 6.0, abs=1e-12)
        assert tensors.Qtilde[zero, 0, 0] == pytest.approx(float(qt_center), abs=1e-12)
        total_qt = sum(tensors.Qtilde[:, 0, 0])
        assert total_qt == pytest.approx(0.0, abs=1e-12)
        report = verify_element(hat, tensors)
        assert report.passed
        assert all(r < 1e-10 for r in report.compatibility_residuals.values())
        assert time.perf_counter() - t_start < 1.0

        # triangle element: mass diagonal and neighbor overlaps, within 1 s
        t_start = time.perf_counter()
        tri = build_element("triangle2d")
        tri_tensors = compute_reference_tensors(tri)
        assert tri_tensors.R[row(tri_tensors, (0, 0))] == pytest.approx(0.5, abs=1e-12)
        for lam, r in zip(tri_tensors.gamma, tri_tensors.R):
            if lam != (0, 0):
                assert r == pytest.approx(1.0 / 12.0, abs=1e-12)
        report = verify_element(tri, tri_tensors)
        assert report.passed
        assert all(r < 1e-10 for r in report.compatibility_residuals.values())
        assert time.perf_counter() - t_start < 1.0

        # product element: compatibility residuals, within 1 s
        t_start = time.perf_counter()
        ten = build_element("tensor(2)")
        ten_tensors = compute_reference_tensors(ten)
        report = verify_element(ten, ten_tensors)
        assert report.passed
        assert all(r < 1e-10 for r in report.compatibility_residuals.values())
        assert time.perf_counter() - t_start < 1.0


def test_criterion_2_invertibility_constant():
    with criterion(2, "invertibility constant", budget_s=5.0):
        hat = build_element("hat1d")
        tensors = compute_reference_tensors(hat)
        delta = check_invertibility(tensors)
        assert delta == pytest.approx(1.0 / 3.0, abs=1e-9)
        lattice = build_torus(1, 1.0 / 64, 64)
        mass = assemble_mass(tensors, lattice)
        eig_dense = float(np.linalg.eigvalsh(dense(mass)).min())
        assert eig_dense >= delta - 1e-8


def test_criterion_3_sign_invariance():
    # the scheme is invariant under h -> -h, so its error expansion holds only
    # even powers of h: the raw formula at -h must give the assembled drift and
    # noise stencils at -lambda and the assembled mollified data
    with criterion(3, "h -> -h identity of the assembled stencils", budget_s=10.0):
        for preset, n in (("hat1d", 32), ("tensor(2)", 8), ("triangle2d", 8)):
            element = build_element(preset)
            problem = parse_problem_text(EQUIVALENCE_PROBLEMS[element.d])
            assert_minus_h_identity(element, problem, build_torus(element.d, L / n, n), 0.3)


def test_criterion_4_deterministic_convergence():
    with criterion(4, "deterministic convergence orders", budget_s=120.0):
        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(DET_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64, 128], ref_n=512, T=0.5,
                          jbar=1, ratio=0.25)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.85 <= result.base.fitted_order <= 2.3, result.base.errors
        assert 3.6 <= result.mixture.fitted_order <= 4.5, result.mixture.errors


def test_criterion_5_vandermonde_discrimination():
    with criterion(5, "ratio discrimination (1/16 fails to accelerate)", budget_s=120.0):
        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(DET_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64, 128], ref_n=512, T=0.5,
                          jbar=1, ratio=0.0625)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert result.mixture.fitted_order < 3.0, result.mixture.errors


def test_criterion_6_stochastic_strong_convergence():
    with criterion(6, "stochastic strong convergence", budget_s=600.0):
        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        problem = parse_problem_text(STOCH_PROBLEM)
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=256, T=0.25,
                          jbar=1, ratio=0.25, samples=50, base_seed=4242)
        result = run_convergence_study(element, tensors, problem, cfg)
        assert 1.7 <= result.base.fitted_order <= 2.4, result.base.errors
        for mix_err, base_err in zip(result.mixture.errors, result.base.errors):
            assert mix_err < base_err


def test_criterion_7_oracle_equivalence(rng):
    with criterion(7, "oracle equivalence", budget_s=30.0):
        # stencil apply against an independently built dense matrix
        cases = 0
        for preset, n in (("hat1d", 16), ("tensor(2)", 8), ("triangle2d", 8)):
            element = build_element(preset)
            tensors = compute_reference_tensors(element)
            lattice = build_torus(element.d, L / n, n)
            if element.d == 1:
                text = 'a.1.1 = "1 + 0.3*cos(x1)"\nb.1 = "0.2"\nc = "0.1*sin(x1)"\nsigma.1.1 = "0.3"'
            else:
                text = ('a.1.1 = "1 + 0.3*cos(x1)"\na.2.2 = "1"\nb.1 = "0.2"\n'
                        'c = "0.1*sin(x2)"\nsigma.1.1 = "0.3"\nd = 2')
            problem = parse_problem_text(text)
            assembled = AssembledProblem(element, tensors, problem, lattice)
            for op in (assembled.mass, assembled.drift(0.0), assembled.noise(0.0, 1)):
                dense = dense_from_stencil(op)
                for _ in range(12):
                    u = rng.normal(size=lattice.shape)
                    got = op.apply(GridFunction(lattice, u)).values.ravel()
                    want = dense @ u.reshape(-1)
                    assert np.max(np.abs(got - want)) <= 1e-13
                    cases += 1
        assert cases >= 100

        # one implicit step against a dense eigendecomposition oracle
        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        lattice = build_torus(1, L / 16, 16)
        problem = parse_problem_text('a.1.1 = "1"\nphi = "sin(x1)"')
        assembled = AssembledProblem(element, tensors, problem, lattice)
        dt = 0.02
        phi = assembled.phi_h().values
        u0 = LinearSolver(assembled.mass).solve(phi.reshape(1, -1))
        u1 = step_implicit_em(GridFunction(lattice, u0.reshape(phi.shape)), assembled, 0.0,
                              dt, None).values
        mass = dense_from_stencil(assembled.mass)
        drift = dense_from_stencil(assembled.drift(dt))
        system = mass - dt * drift
        eigvals, eigvecs = np.linalg.eig(system)
        coords = np.linalg.solve(eigvecs, mass @ u0[0])
        expected = (eigvecs @ (coords / eigvals)).real
        assert np.max(np.abs(u1.reshape(-1) - expected)) <= 1e-10


def test_criterion_8_manifest_replay(tmp_path):
    with criterion(8, "bit-exact manifest replay", budget_s=30.0):
        prob = tmp_path / "stoch.prob"
        prob.write_text(STOCH_PROBLEM, encoding="utf-8")
        out = tmp_path / "runs"
        code = main([
            "simulate", "--preset", "hat1d", "--problem", str(prob),
            "--n", "32", "--T", "0.25", "--steps", "64", "--seed", "8675309",
            "--record", "all", "--out", str(out),
        ])
        assert code == EXIT_OK
        dirs = sorted(p for p in os.listdir(out) if p.startswith("run-"))
        manifest = out / dirs[0] / "manifest.json"
        assert json.loads(manifest.read_text())["command"] == "simulate"
        code = main(["replay", str(manifest), "--out", str(out)])
        assert code == EXIT_OK
        dirs = sorted(p for p in os.listdir(out) if p.startswith("run-"))
        assert len(dirs) == 2
        for name in ("manifest.json", "terminal.csv", "states.csv"):
            original = (out / dirs[0] / name).read_bytes()
            replayed = (out / dirs[1] / name).read_bytes()
            assert original == replayed, f"{name} not byte-identical under replay"
