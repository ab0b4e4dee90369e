import ast
import importlib
import itertools
from pathlib import Path

import numpy as np
import pytest

import femspde.checks
from femspde.checks import (
    check_cardinal,
    check_compatibility,
    check_invertibility,
    check_parabolicity,
    symbol_values,
    verify_element,
)
from femspde.elements import build_element, finish_element, parse_element_text
from femspde.polynomials import PiecewisePolynomial, Polynomial
from femspde.problem import parse_problem_text
from femspde.tensors import ReferenceTensors, compute_reference_tensors


def scaled_element(element, factor):
    pieces = [(cell, Polynomial(poly.d, {e: c * factor for e, c in poly.coeffs.items()}))
              for cell, poly in element.psi.pieces]
    return finish_element("scaled-hat", PiecewisePolynomial(element.d, pieces),
                          element.lambda_set)


def compatibility_oracle(t):
    """Worst (label, target, value) of each identity family, from one term per
    (shift, index) summed in Gamma order, the first worst index in
    itertools.product order."""
    G, axes = range(len(t.gamma)), range(t.d)
    lam = t.gamma
    families = {
        "sum_R": [("sum R = 1", 1.0, sum(t.R[g] for g in G))],
        "sum_Rij": [(f"sum R^{{{i + 1}{j + 1}}} = 0", 0.0, sum(t.Rab[g, i, j] for g in G))
                    for i, j in itertools.product(axes, repeat=2)],
        "first_moment": [(f"sum lam_{k + 1} R^{i + 1} = {int(i == k)}", float(i == k),
                          sum(lam[g][k] * t.Rbeta[g, i] for g in G))
                         for i, k in itertools.product(axes, repeat=2)],
        "second_moment": [(f"sum lam_{k + 1} lam_{l + 1} R^{{{i + 1}{j + 1}}} = {tgt:g}", tgt,
                           sum(lam[g][k] * lam[g][l] * t.Rab[g, i, j] for g in G))
                          for i, j, k, l in itertools.product(axes, repeat=4)
                          for tgt in [(2.0 if i == j else 1.0) * ({i, j} == {k, l})]],
        "sum_Q": [(f"sum Q^{{{i + 1}{j + 1},{k + 1}{l + 1}}} = 0", 0.0,
                   sum(t.Q[g, i, j, k, l] for g in G))
                  for i, j, k, l in itertools.product(axes, repeat=4)],
        "sum_Qtilde": [(f"sum Qtilde^{{{i + 1},{k + 1}}} = 0", 0.0,
                        sum(t.Qtilde[g, i, k] for g in G))
                       for i, k in itertools.product(axes, repeat=2)],
    }
    return {name: max(cases, key=lambda case: abs(case[2] - case[1]))
            for name, cases in families.items()}


def brute_force_symbol_min(tensors, grid):
    axis = np.linspace(0.0, 2.0 * np.pi, grid, endpoint=False)
    grids = np.meshgrid(*([axis] * tensors.d), indexing="ij")
    thetas = np.stack([g.ravel() for g in grids], axis=1)
    vals = np.zeros(thetas.shape[0])
    for lam, r in zip(tensors.gamma, tensors.R):
        vals += r * np.cos(thetas @ np.asarray(lam, dtype=float))
    return float(vals.min())


class TestInvertibility:
    def test_hat1d_delta_is_one_third(self, hat1d_tensors):
        delta = check_invertibility(hat1d_tensors)
        assert delta == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_identity_symbol(self):
        tensors = ReferenceTensors(
            d=1, gamma=((0,),), R=np.ones(1), Rbeta=np.zeros((1, 1)), Rab=np.zeros((1, 1, 1)),
            Q=np.zeros((1, 1, 1, 1, 1)), Qtilde=np.zeros((1, 1, 1)), quad_degree=8,
        )
        assert check_invertibility(tensors) == pytest.approx(1.0, abs=1e-12)

    def test_tensor2_delta_one_ninth(self, tensor2_tensors):
        delta = check_invertibility(tensor2_tensors)
        assert delta == pytest.approx(1.0 / 9.0, abs=1e-15)
        brute = brute_force_symbol_min(tensor2_tensors, 1024)
        assert abs(delta - brute) < 1e-5

    def test_tensor3_delta_factorizes(self):
        # the 3-D product symbol is the cube of the 1-D one: minimum (1/3)^3
        element = build_element("tensor(3)")
        tensors = compute_reference_tensors(element)
        delta = check_invertibility(tensors)
        assert delta == pytest.approx(1.0 / 27.0, abs=1e-15)

    def test_triangle_delta_one_quarter(self, triangle2d_tensors):
        # symbol 1/2 + (cos t1 + cos t2 + cos(t1+t2))/6, minimized at (2pi/3, 2pi/3)
        delta = check_invertibility(triangle2d_tensors)
        assert delta == pytest.approx(0.25, abs=1e-15)
        assert delta > 0.0

    def test_symbol_even_in_theta(self, triangle2d_tensors, rng):
        thetas = rng.uniform(0, 2 * np.pi, size=(32, 2))
        np.testing.assert_allclose(
            symbol_values(triangle2d_tensors, thetas),
            symbol_values(triangle2d_tensors, -thetas),
            atol=1e-12,
        )

    def test_uneven_mass_tensor_is_left_to_the_symmetry_rule(self):
        # the symbol is the cosine sum whatever R holds; an uneven R is the
        # symmetry residual's to report
        tensors = ReferenceTensors(
            d=1, gamma=((-1,), (0,), (1,)), R=np.array([0.1, 0.7, 0.3]),
            Rbeta=np.zeros((3, 1)), Rab=np.zeros((3, 1, 1)), Q=np.zeros((3, 1, 1, 1, 1)),
            Qtilde=np.zeros((3, 1, 1)), quad_degree=8,
        )
        assert tensors.symmetry_residual() == pytest.approx(0.2, abs=1e-15)
        thetas = np.array([[0.0], [np.pi / 2], [np.pi]])
        np.testing.assert_allclose(symbol_values(tensors, thetas), [1.1, 0.7, 0.3], atol=1e-15)
        assert check_invertibility(tensors) == pytest.approx(0.3, abs=1e-12)


class TestCompatibility:
    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d"])
    def test_presets_satisfy_all_identities(self, preset):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        residuals, _ = check_compatibility(tensors)
        assert set(residuals) == {
            "sum_R", "sum_Rij", "first_moment", "second_moment", "sum_Q", "sum_Qtilde"
        }
        for name, value in residuals.items():
            assert value < 1e-12, f"{name} residual {value}"

    def test_hat_first_moment_identity_value(self, hat1d_tensors):
        t = hat1d_tensors
        total = sum(lam[0] * rbeta[0] for lam, rbeta in zip(t.gamma, t.Rbeta))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_triangle_mixed_second_moment(self, triangle2d_tensors):
        t = triangle2d_tensors
        total = sum(lam[0] * lam[1] * rab[0, 1] for lam, rab in zip(t.gamma, t.Rab))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_scaled_psi_breaks_normalisation(self, hat1d):
        # scaling psi by s scales every inner product by s^2
        element = scaled_element(hat1d, np.sqrt(2.0))
        tensors = compute_reference_tensors(element)
        residuals, rows = check_compatibility(tensors)
        assert residuals["sum_R"] == pytest.approx(1.0, abs=1e-10)
        summary = {row.name: row for row in rows}
        assert summary["sum R = 1"].computed == pytest.approx(2.0, abs=1e-10)

    @pytest.mark.parametrize("name", [
        "hat1d", "tensor(2)", "tensor(3)", "triangle2d", "scaled-triangle", "skew-hat",
        "large-scaled-hat",
    ])
    def test_rows_match_per_index_oracle(self, name, skew_hat_text, large_scaled_hat_text):
        # each family's sum over Gamma and its worst index equal, bit for bit,
        # the per-(shift, index) loop; the scaled triangle ties its worst
        # indices, so the first one in product order must win
        if name == "scaled-triangle":
            element = scaled_element(build_element("triangle2d"), 1.5)
        elif name == "skew-hat":
            element = parse_element_text(skew_hat_text)
        elif name == "large-scaled-hat":
            element = parse_element_text(large_scaled_hat_text)
        else:
            element = build_element(name)
        tensors = compute_reference_tensors(element)
        residuals, rows = check_compatibility(tensors)
        oracle = compatibility_oracle(tensors)
        assert list(residuals) == list(oracle)
        for (family, (label, target, value)), row in zip(oracle.items(), rows):
            assert (row.name, row.target, row.computed) == (label, target, value), family
            assert row.residual == residuals[family] == abs(value - target)

    def test_residual_scaling_is_metamorphic(self, hat1d):
        for s in (0.5, 1.5, 3.0):
            tensors = compute_reference_tensors(scaled_element(hat1d, s))
            residuals, _ = check_compatibility(tensors)
            assert residuals["sum_R"] == pytest.approx(abs(s**2 - 1.0), abs=1e-9)


class TestCardinal:
    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d"])
    def test_presets_are_cardinal(self, preset):
        ok, residual = check_cardinal(build_element(preset))
        assert ok
        assert residual < 1e-14

    def test_shifted_hat_fails(self):
        text = """
        d = 1
        lambda = (-1) (0) (1)
        [cell]
        type = box
        lo = -0.5
        hi = 0.5
        poly = 0: 0.75  2: -1
        """
        # psi(x) = 3/4 - x^2 on [-1/2, 1/2]: psi(0) != 1
        element = parse_element_text(text)
        ok, residual = check_cardinal(element)
        assert not ok
        assert residual == pytest.approx(0.25, abs=1e-12)


class TestParabolicity:
    def test_identity_diffusion(self):
        problem = parse_problem_text('a.1.1 = "1"\nphi = "0"\nd = 1')
        kappa = check_parabolicity(problem, L=2 * np.pi)
        assert kappa == pytest.approx(1.0, abs=1e-12)

    def test_critical_sigma_fails(self):
        problem = parse_problem_text('a.1.1 = "1"\nsigma.1.1 = "sqrt(2)"\nd = 1')
        kappa = check_parabolicity(problem, L=2 * np.pi)
        assert kappa == pytest.approx(0.0, abs=1e-12)
        assert not kappa > 0.0

    def test_variable_coefficient_minimum(self):
        problem = parse_problem_text('a.1.1 = "1 + 0.5*sin(x1)"\nsigma.1.1 = "1"\nd = 1')
        kappa = check_parabolicity(problem, L=2 * np.pi)
        assert kappa == pytest.approx(0.0, abs=1e-6)
        shifted = parse_problem_text('a.1.1 = "1.6 + 0.5*sin(x1)"\nsigma.1.1 = "1"\nd = 1')
        kappa = check_parabolicity(shifted, L=2 * np.pi)
        assert kappa == pytest.approx(0.6, abs=1e-6)

    def test_2d_matrix_case(self):
        problem = parse_problem_text(
            'a.1.1 = "2"\na.2.2 = "2"\na.1.2 = "0.5"\nsigma.1.1 = "1"\nd = 2'
        )
        kappa = check_parabolicity(problem, L=1.0)
        # eigmin of [[1.5, 0.5], [0.5, 2.0]]
        expected = 1.75 - np.sqrt(0.25**2 + 0.5**2)
        assert kappa == pytest.approx(expected, abs=1e-12)


class TestFullReport:
    @pytest.mark.parametrize("preset", ["hat1d", "tensor(2)", "triangle2d"])
    def test_presets_pass(self, preset):
        element = build_element(preset)
        tensors = compute_reference_tensors(element)
        report = verify_element(element, tensors)
        assert report.passed
        assert report.delta_estimate > 1e-8
        deltas = {"hat1d": 1.0 / 3.0, "tensor(2)": 1.0 / 9.0, "triangle2d": 0.25}
        assert report.delta_estimate == pytest.approx(deltas[preset], abs=1e-9)

    def test_tensor4_verifies_with_raised_quadrature_degree(self):
        # the 4-D product element has total degree 4, so the default Gauss
        # degree rises to 10; every identity must still hold exactly
        element = build_element("tensor(4)")
        tensors = compute_reference_tensors(element)
        assert tensors.quad_degree == 10
        assert len(element.gamma) == 81
        residuals, _ = check_compatibility(tensors)
        assert max(residuals.values()) < 1e-12
        assert check_invertibility(tensors) == pytest.approx(1.0 / 81.0, abs=1e-15)
        ok, _ = check_cardinal(element)
        assert ok

    def test_large_scaled_hat_is_reported(self, large_scaled_hat_text):
        # psi scaled by 1000.3 keeps R(lam) = R(-lam) only to 6.1e-11 in floating
        # point; the symmetry rule (1e-12) reads FAIL, which is its own verdict,
        # and every other row is still computed and reported
        element = parse_element_text(large_scaled_hat_text)
        report = verify_element(element, compute_reference_tensors(element))
        assert not report.passed
        assert len(report.details) == 9
        symmetry = report.details[0]
        assert symmetry.name == "tensor reflection symmetry" and symmetry.verdict() == "FAIL"
        assert 1e-12 < symmetry.residual < 1e-10
        assert report.delta_estimate == pytest.approx(1000.3**2 / 3.0, rel=1e-12)

    def test_scaled_element_fails(self, hat1d):
        element = scaled_element(hat1d, 2.0)
        tensors = compute_reference_tensors(element)
        report = verify_element(element, tensors)
        assert not report.passed
        assert report.compatibility_residuals["sum_R"] == pytest.approx(3.0, abs=1e-9)


class TestOneVerdictPerRow:
    SKEW_FAILS = {"tensor reflection symmetry", "cardinal interpolation"}

    def test_skew_hat_fails_exactly_on_symmetry_and_cardinal(self, skew_hat_text):
        # both residuals are about 3e-11: below the compatibility tolerance
        # 1e-10, above the symmetry and cardinal rules' 1e-12
        element = parse_element_text(skew_hat_text)
        report = verify_element(element, compute_reference_tensors(element))
        assert not report.passed
        assert len(report.details) == 9
        for row in report.details:
            assert row.verdict() == ("FAIL" if row.name in self.SKEW_FAILS else "PASS"), row

    @pytest.mark.parametrize("name", [
        "hat1d", "tensor(1)", "tensor(2)", "tensor(3)", "triangle2d", "scaled-hat", "skew-hat",
    ])
    def test_passed_is_every_row_passing(self, name, hat1d, skew_hat_text):
        if name == "scaled-hat":
            element = scaled_element(hat1d, 2.0)
        elif name == "skew-hat":
            element = parse_element_text(skew_hat_text)
        else:
            element = build_element(name)
        report = verify_element(element, compute_reference_tensors(element))
        assert report.passed == all(row.verdict() == "PASS" for row in report.details)


def imported_names(module):
    """Every module and imported name that module's source imports, at any depth."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            imported += [base] + [f"{base}.{alias.name}" for alias in node.names]
    return imported


def test_checks_imports_nothing_from_the_integrator():
    # the verification layer reads elements and tensors only, never the solver
    imported = imported_names(femspde.checks)
    assert not [name for name in imported if "integrator" in name.split(".")]


@pytest.mark.parametrize("layer", ["elements", "tensors"])
def test_cells_are_intersected_only_in_polynomials(layer):
    # PiecewisePolynomial.overlaps is the one caller of intersect_cells
    imported = imported_names(importlib.import_module(f"femspde.{layer}"))
    assert not [name for name in imported if name.split(".")[-1] == "intersect_cells"]


@pytest.mark.parametrize("layer", ["polynomials", "elements", "tensors", "expr", "problem",
                                   "checks", "assembly", "lattice", "richardson"])
def test_element_and_verification_layers_import_no_scipy(layer):
    # only the integrator and the CLI's version record need scipy
    imported = imported_names(importlib.import_module(f"femspde.{layer}"))
    assert not [name for name in imported if name.split(".")[0] == "scipy"]
