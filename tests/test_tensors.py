from collections import Counter
from fractions import Fraction as F

import numpy as np
import pytest

from femspde.elements import build_element, support_overlap_measure
from femspde.tensors import compute_reference_tensors


def row(t, lam):
    """Index of the shift lam along axis 0 of the arrays of tensors t."""
    return t.gamma.index(tuple(lam))


def poly1d_integral(coeffs, a, b):
    """Exact integral of sum_k coeffs[k] z^k over [a, b], in exact arithmetic."""
    total = F(0)
    for k, c in enumerate(coeffs):
        total += F(c) * (F(b) ** (k + 1) - F(a) ** (k + 1)) / (k + 1)
    return total


class TestHat1d:
    """The 1-D hat values, each backed by an exact hand integral."""

    def test_mass_entries(self, hat1d_tensors):
        t = hat1d_tensors
        # R_0 = 2 * int_0^1 (1-z)^2 = 2/3 ; R_{+-1} = int_0^1 z(1-z) = 1/6
        exact = float(2 * poly1d_integral([1, -2, 1], 0, 1))
        assert t.R[row(t, (0,))] == pytest.approx(exact, abs=1e-12)
        assert t.R[row(t, (0,))] == pytest.approx(2.0 / 3.0, abs=1e-12)
        for eps in (-1, 1):
            assert t.R[row(t, (eps,))] == pytest.approx(1.0 / 6.0, abs=1e-12)

    def test_stiffness_entries(self, hat1d_tensors):
        t = hat1d_tensors
        assert t.Rab[row(t, (0,)), 0, 0] == pytest.approx(-2.0, abs=1e-12)
        for eps in (-1, 1):
            assert t.Rab[row(t, (eps,)), 0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_first_derivative_entries(self, hat1d_tensors):
        t = hat1d_tensors
        assert t.Rbeta[row(t, (0,)), 0] == pytest.approx(0.0, abs=1e-12)
        for eps in (-1, 1):
            assert t.Rbeta[row(t, (eps,)), 0] == pytest.approx(eps / 2.0, abs=1e-12)

    def test_q_entries(self, hat1d_tensors):
        t = hat1d_tensors
        # Q^{11,11}_0 = -int_{-1}^1 z^2 (psi')^2 = -2/3; at +-1: +int_0^1 z^2 = 1/3
        assert t.Q[row(t, (0,)), 0, 0, 0, 0] == pytest.approx(-2.0 / 3.0, abs=1e-12)
        for eps in (-1, 1):
            assert t.Q[row(t, (eps,)), 0, 0, 0, 0] == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_qtilde_entries(self, hat1d_tensors):
        # independent exact oracle on the hat geometry; psi_{+1}(z) = z and
        # psi(z) = 1 - z share support [0, 1], so the integrand is z (1 - z)
        t = hat1d_tensors
        plus_one = poly1d_integral([0, 1, -1], 0, 1)  # z - z^2 on [0, 1]
        assert plus_one == F(1, 6)
        at_zero = poly1d_integral([0, 1, 1], -1, 0) - poly1d_integral([0, 1, -1], 0, 1)
        assert at_zero == F(-1, 3)
        assert t.Qtilde[row(t, (1,)), 0, 0] == pytest.approx(float(plus_one), abs=1e-12)
        assert t.Qtilde[row(t, (-1,)), 0, 0] == pytest.approx(float(plus_one), abs=1e-12)
        assert t.Qtilde[row(t, (0,)), 0, 0] == pytest.approx(float(at_zero), abs=1e-12)

    def test_qtilde_sums_to_zero(self, hat1d_tensors):
        t = hat1d_tensors
        total = sum(t.Qtilde[:, 0, 0])
        assert total == pytest.approx(0.0, abs=1e-12)


class TestTriangle2d:
    """Published constants of the criss-cross P1 element."""

    def test_mass_entries(self, triangle2d_tensors):
        t = triangle2d_tensors
        assert t.R[row(t, (0, 0))] == pytest.approx(0.5, abs=1e-12)
        for lam, r in zip(t.gamma, t.R):
            if lam != (0, 0):
                assert r == pytest.approx(1.0 / 12.0, abs=1e-12)

    @pytest.mark.parametrize(
        "lam, alpha, beta, expected",
        [
            ((0, 0), 1, 1, F(-2)),
            ((1, 0), 1, 1, F(1)),
            ((0, 1), 1, 1, F(0)),
            ((1, 1), 1, 1, F(0)),
            ((0, 0), 1, 2, F(1)),
            ((1, 0), 1, 2, F(-1, 2)),
            ((0, -1), 1, 2, F(-1, 2)),
            ((-1, -1), 1, 2, F(1, 2)),
        ],
    )
    def test_stiffness_entries(self, triangle2d_tensors, lam, alpha, beta, expected):
        t = triangle2d_tensors
        assert t.Rab[row(t, lam), alpha - 1, beta - 1] == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize(
        "lam, beta, expected",
        [
            ((0, 0), 1, F(0)),
            ((1, 0), 1, F(1, 3)),
            ((-1, 0), 1, F(-1, 3)),
            ((0, 1), 1, F(-1, 6)),
            ((1, 1), 1, F(1, 6)),
            ((0, 1), 2, F(1, 3)),
            ((1, 0), 2, F(-1, 6)),
            ((-1, -1), 2, F(-1, 6)),
        ],
    )
    def test_first_derivative_entries(self, triangle2d_tensors, lam, beta, expected):
        t = triangle2d_tensors
        assert t.Rbeta[row(t, lam), beta - 1] == pytest.approx(float(expected), abs=1e-12)

    @pytest.mark.parametrize(
        "lam, idx, expected",
        [
            ((0, 0), (1, 1, 1, 1), F(-2, 3)),
            ((1, 0), (1, 1, 1, 1), F(1, 3)),
            ((0, 1), (1, 1, 1, 1), F(0)),
            ((0, 0), (1, 1, 2, 2), F(-1, 3)),
            ((1, 0), (1, 1, 2, 2), F(1, 6)),
            ((0, 0), (1, 1, 1, 2), F(-1, 6)),
            ((1, 0), (1, 1, 1, 2), F(1, 12)),
            ((0, 0), (1, 2, 1, 1), F(1, 6)),
            ((0, 1), (1, 2, 1, 1), F(-1, 12)),
            ((1, 0), (1, 2, 1, 1), F(-1, 4)),
            ((1, 1), (1, 2, 1, 1), F(1, 4)),
            ((0, 0), (1, 2, 1, 2), F(-1, 12)),
            ((0, 1), (1, 2, 1, 2), F(1, 24)),
            ((1, 0), (1, 2, 1, 2), F(-1, 8)),
            ((1, 1), (1, 2, 1, 2), F(1, 8)),
        ],
    )
    def test_q_entries(self, triangle2d_tensors, lam, idx, expected):
        t = triangle2d_tensors
        assert t.Q[(row(t, lam), *(n - 1 for n in idx))] == pytest.approx(float(expected),
                                                                          abs=1e-12)

    @pytest.mark.parametrize(
        "lam, idx, expected",
        [
            ((0, 0), (1, 1), F(-3, 12)),
            ((1, 0), (1, 1), F(3, 24)),
            ((0, 1), (1, 1), F(-1, 24)),
            ((1, 1), (1, 1), F(1, 24)),
            ((0, 0), (1, 2), F(0)),
            ((1, 0), (1, 2), F(0)),
            ((0, 1), (1, 2), F(-1, 12)),
            ((1, 1), (1, 2), F(1, 12)),
        ],
    )
    def test_qtilde_entries(self, triangle2d_tensors, lam, idx, expected):
        t = triangle2d_tensors
        assert t.Qtilde[(row(t, lam), *(n - 1 for n in idx))] == pytest.approx(float(expected),
                                                                               abs=1e-12)


class TestTensorProductElement:
    def test_mass_factorizes(self, tensor2_tensors):
        # 1-D factors: r(0) = 2/3, r(+-1) = 1/6; the product element multiplies them
        r1 = {0: F(2, 3), 1: F(1, 6), -1: F(1, 6)}
        t = tensor2_tensors
        for lam, r in zip(t.gamma, t.R):
            assert r == pytest.approx(float(r1[lam[0]] * r1[lam[1]]), abs=1e-12)
        assert t.R[row(t, (1, 0))] == pytest.approx(1.0 / 9.0, abs=1e-12)
        assert t.R[row(t, (1, 1))] == pytest.approx(1.0 / 36.0, abs=1e-12)

    def test_stiffness_factorizes(self, tensor2_tensors):
        # (D1 psi_lam, D1* psi) = -(hat'_{l1}, hat')_x (hat_{l2}, hat)_y
        dd = {0: F(2), 1: F(-1), -1: F(-1)}  # (hat'_{l}, hat')
        r1 = {0: F(2, 3), 1: F(1, 6), -1: F(1, 6)}
        t = tensor2_tensors
        for lam, rab in zip(t.gamma, t.Rab):
            assert rab[0, 0] == pytest.approx(float(-dd[lam[0]] * r1[lam[1]]), abs=1e-12)

    def test_mixed_stiffness_factorizes(self, tensor2_tensors):
        # (D2 psi_lam, D1* psi) = -(hat_{l1}, hat')_x (hat'_{l2}, hat)_y
        # 1-D pieces: (hat_l, hat') = -l/2, (hat'_l, hat) = l/2
        t = tensor2_tensors
        for lam, rab in zip(t.gamma, t.Rab):
            assert rab[0, 1] == pytest.approx(float(-F(-lam[0], 2) * F(lam[1], 2)), abs=1e-12)
        assert t.Rab[row(t, (1, 1)), 0, 1] == pytest.approx(0.25, abs=1e-12)

    def test_sum_of_mass_entries_is_one(self, tensor2_tensors):
        # the per-shift values carry no multiplicity factor; summing the 2^k
        # shifts with k nonzero entries over k reproduces the unit total
        total = sum(tensor2_tensors.R)
        assert total == pytest.approx(1.0, abs=1e-12)


class TestInvariants:
    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d", "tensor(3)"])
    def test_reflection_symmetry(self, preset):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        assert tensors.symmetry_residual() < 1e-12

    def test_reflection_outside_gamma_counts_as_zero(self):
        # -lam = (-1,) has no row, so lam = (1,) is compared with zero tensors
        from femspde.tensors import ReferenceTensors

        t = ReferenceTensors(
            d=1, gamma=((0,), (1,)), R=np.array([0.5, 0.25]), Rbeta=np.array([[0.0], [0.375]]),
            Rab=np.array([[[2.0]], [[0.125]]]), Q=np.zeros((2, 1, 1, 1, 1)),
            Qtilde=np.zeros((2, 1, 1)), quad_degree=8,
        )
        assert t.symmetry_residual() == 0.375

    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d"])
    def test_mass_sums_to_one(self, preset):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        assert sum(tensors.R) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d"])
    def test_quadrature_exactness_under_order_doubling(self, preset, monkeypatch):
        import femspde.tensors as tensors_module

        element = build_element(preset)
        base = compute_reference_tensors(element)
        monkeypatch.setattr(tensors_module, "default_quad_degree", lambda _: 2 * base.quad_degree)
        doubled = compute_reference_tensors(element)
        assert doubled.quad_degree == 2 * base.quad_degree
        assert doubled.gamma == base.gamma
        for name in ("R", "Rbeta", "Rab", "Q", "Qtilde"):
            assert np.max(np.abs(getattr(base, name) - getattr(doubled, name))) <= 1e-13, name

    def test_off_gamma_entries_are_zero(self, hat1d, hat1d_tensors):
        # a shift whose translated support misses supp(psi) has zero tensors,
        # so it has no row: the arrays hold one row per shift of Gamma
        t = hat1d_tensors
        for lam in [(5,), (2,), (-3,)]:
            assert support_overlap_measure(hat1d, lam) == 0.0
            assert lam not in t.gamma
        shapes = [a.shape for a in (t.R, t.Rbeta, t.Rab, t.Q, t.Qtilde)]
        assert shapes == [(3,), (3, 1), (3, 1, 1), (3, 1, 1, 1, 1), (3, 1, 1)]


class TestCellQuadratureOwnership:
    """The tensors build their cell quadrature once, and only when assembly needs it."""

    @pytest.fixture()
    def overlap_calls(self, monkeypatch):
        import femspde.tensors as tensors_module

        calls = []
        real = tensors_module.build_overlap_tables

        def counting(element, quad_degree):
            calls.append(quad_degree)
            return real(element, quad_degree)

        monkeypatch.setattr(tensors_module, "build_overlap_tables", counting)
        return calls

    def test_verification_builds_no_quadrature(self, overlap_calls):
        from femspde.checks import verify_element

        element = build_element("tensor(4)")
        tensors = compute_reference_tensors(element)
        assert verify_element(element, tensors).passed
        assert overlap_calls == [tensors.quad_degree]
        assert "quad" not in vars(tensors)

    def test_study_multilevel_and_problem_share_one_quadrature(self, overlap_calls,
                                                              monkeypatch):
        import numpy as np

        import femspde.assembly as assembly
        from femspde import (AssembledProblem, StudyConfig, build_torus, integrate_multilevel,
                             parse_problem_text, run_convergence_study)

        element = build_element("hat1d")
        tensors = compute_reference_tensors(element)
        assert len(overlap_calls) == 1
        seen = []
        real = assembly._assemble_cells

        def recording(quad, *args):
            seen.append(quad)
            return real(quad, *args)

        monkeypatch.setattr(assembly, "_assemble_cells", recording)
        problem = parse_problem_text('a.1.1 = "1 + 0.25*cos(x1)"\nphi = "sin(x1)"')
        L = 2 * np.pi
        cfg = StudyConfig(L=L, ladder_n=[16, 32, 64], ref_n=128, T=0.05)  # 5 lattices
        run_convergence_study(element, tensors, problem, cfg)
        study_calls = len(seen)
        integrate_multilevel(element, tensors, problem, build_torus(1, L / 16, 16), 3, None,
                             T=0.05, steps=4)
        multilevel_calls = len(seen) - study_calls
        AssembledProblem(element, tensors, problem, build_torus(1, L / 8, 8)).drift(0.0)
        assert len(overlap_calls) == 1  # the quadrature regroups the tensors' own tables
        assert study_calls == 2 * 5 and multilevel_calls == 2 * 3  # drift and phi_h
        assert len(seen) == study_calls + multilevel_calls + 1
        assert all(quad is tensors.quad for quad in seen)


class TestSetUpWork:
    """Element set-up intersects only cell pairs whose bounding boxes overlap,
    and computes each Gauss rule once."""

    def test_tensor3_setup_counts(self, monkeypatch):
        import femspde.polynomials as polynomials
        from femspde.elements import validate_element

        intersections = []
        real_intersect = polynomials.intersect_cells

        def counting_intersect(a, b):
            intersections.append((a, b))
            return real_intersect(a, b)

        # PiecewisePolynomial.overlaps is the one caller
        monkeypatch.setattr(polynomials, "intersect_cells", counting_intersect)
        rules = Counter()
        real_leggauss = np.polynomial.legendre.leggauss

        def counting_leggauss(n):
            rules[n] += 1
            return real_leggauss(n)

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", counting_leggauss)
        polynomials.gauss_points_1d.cache_clear()
        element = build_element("tensor(3)")
        validate_element(element)
        tensors = compute_reference_tensors(element)
        # 64 overlapping (shifted cell, cell) pairs over the 27 shifts of Gamma,
        # once for Gamma and once for the overlap tables, and the 8 cells with
        # themselves for the disjointness check: 136; all 8 x 8 pairs of 125
        # candidate shifts were 8000 for Gamma alone
        assert len(intersections) <= 200
        assert rules and set(rules.values()) == {1}
        x, w = polynomials.gauss_points_1d(tensors.quad_degree // 2 + 1)
        assert not x.flags.writeable and not w.flags.writeable
