import dataclasses

import numpy as np
import pytest

from femspde.elements import (
    ElementFormatError,
    build_element,
    parse_element_text,
    validate_element,
)
from femspde.polynomials import gauss_points_1d
from femspde.tensors import CellQuadrature, compute_reference_tensors


class TestPresets:
    def test_hat1d_gamma(self, hat1d):
        assert hat1d.gamma == ((-1,), (0,), (1,))
        assert hat1d.lambda_set == frozenset({(-1,), (0,), (1,)})

    def test_hat1d_is_tensor1_by_its_own_name(self):
        hat, tensor = build_element("hat1d"), build_element("tensor(1)")
        assert (hat.name, tensor.name) == ("hat1d", "tensor(1)")
        assert [cell for cell, _ in hat.psi.pieces] == [cell for cell, _ in tensor.psi.pieces]
        # the coefficient dicts agree in order too, so every sum runs alike
        assert ([list(poly.coeffs.items()) for _, poly in hat.psi.pieces]
                == [list(poly.coeffs.items()) for _, poly in tensor.psi.pieces])
        assert hat.lambda_set == tensor.lambda_set
        assert hat.gamma == tensor.gamma
        hat_t, tensor_t = compute_reference_tensors(hat), compute_reference_tensors(tensor)
        for name in ("R", "Rbeta", "Rab", "Q", "Qtilde"):
            assert np.array_equal(getattr(hat_t, name), getattr(tensor_t, name)), name
        for f in dataclasses.fields(CellQuadrature):
            a, b = getattr(hat_t.quad, f.name), getattr(tensor_t.quad, f.name)
            assert a == b if isinstance(a, tuple) else np.array_equal(a, b), f.name

    def test_triangle2d_gamma(self, triangle2d):
        expected = {(0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)}
        assert set(triangle2d.gamma) == expected
        assert len(triangle2d.gamma) == 7

    def test_tensor2_gamma_all_nine(self, tensor2):
        # oracle: supports are boxes, so the overlap of supp psi and its shift
        # by lam has measure prod_k (2 - |lam_k|), positive for all of {-1,0,1}^2
        expected = set()
        for l1 in (-1, 0, 1):
            for l2 in (-1, 0, 1):
                if (2 - abs(l1)) * (2 - abs(l2)) > 0:
                    expected.add((l1, l2))
        assert set(tensor2.gamma) == expected
        assert len(tensor2.gamma) == 9

    def test_tensor_dimension_bounds(self):
        build_element("tensor(1)")
        build_element("tensor(4)")
        with pytest.raises(ValueError):
            build_element("tensor(0)")
        with pytest.raises(ValueError):
            build_element("tensor(5)")

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            build_element("quadratic9")

    def test_validation_passes(self, hat1d, tensor2, triangle2d):
        for el in (hat1d, tensor2, triangle2d):
            residuals = validate_element(el)
            assert residuals["mass_defect"] < 1e-12
            assert residuals["symmetry"] < 1e-12


class TestEvaluate:
    def test_hat_values(self, hat1d):
        assert hat1d.psi((0.0,)) == pytest.approx(1.0)
        assert hat1d.psi((0.5,)) == pytest.approx(0.5)
        assert hat1d.psi((-0.5,)) == pytest.approx(0.5)
        assert hat1d.psi((1.5,)) == 0.0

    def test_triangle_cell_location(self, triangle2d):
        # (0.25, 0.5) lies where x1 <= x2, the piece with value 1 - x2
        assert triangle2d.psi((0.25, 0.5)) == pytest.approx(0.5)
        assert triangle2d.psi((0.5, 0.25)) == pytest.approx(0.5)
        assert triangle2d.psi((-0.25, 0.25)) == pytest.approx(0.5)
        assert triangle2d.psi((0.9, -0.9)) == 0.0

    def test_tensor_product_structure(self, tensor2, rng):
        pts = rng.uniform(-1.2, 1.2, size=(50, 2))
        vals = tensor2.psi.eval_many(pts)
        hats = np.clip(1.0 - np.abs(pts), 0.0, None)
        np.testing.assert_allclose(vals, hats[:, 0] * hats[:, 1], atol=1e-14)

    def test_psi_integrates_to_one_composite_oracle(self, hat1d, tensor2, triangle2d):
        # independent composite Gauss oracle: per cell, subdivide the unit
        # parameter square and use a 5-point rule, exact per sub-cell
        x5, w5 = gauss_points_1d(5)
        for el in (hat1d, tensor2, triangle2d):
            total = 0.0
            for cell, poly in el.psi.pieces:
                if hasattr(cell, "lo"):
                    lo = np.asarray(cell.lo)
                    hi = np.asarray(cell.hi)
                    d = len(lo)
                    m = 4
                    for sub in np.ndindex(*([m] * d)):
                        sub_lo = lo + np.asarray(sub) / m * (hi - lo)
                        sub_hi = lo + (np.asarray(sub) + 1) / m * (hi - lo)
                        grids = np.meshgrid(*[sub_lo[k] + x5 * (sub_hi[k] - sub_lo[k])
                                              for k in range(d)], indexing="ij")
                        pts = np.stack([g.ravel() for g in grids], axis=1)
                        wts = np.ones(1)
                        for _ in range(d):
                            wts = np.outer(wts, w5).ravel()
                        total += float(np.prod(sub_hi - sub_lo) * (wts @ poly.eval_many(pts)))
                else:
                    v0, v1, v2 = (np.asarray(v) for v in cell.verts)
                    area2 = abs(np.linalg.det(np.stack([v1 - v0, v2 - v0])))
                    u, v = np.meshgrid(x5, x5, indexing="ij")
                    pts = v0 + u.ravel()[:, None] * (v1 - v0) + (u * v).ravel()[:, None] * (v2 - v1)
                    wts = np.outer(w5, w5).ravel() * area2 * u.ravel()
                    total += float(wts @ poly.eval_many(pts))
            assert total == pytest.approx(1.0, abs=1e-10)


ELEMENT_TEXT = """
# user-defined 1-D hat written out longhand
d = 1
name = custom-hat
lambda = (-1) (0) (1)

[cell]
type = box
lo = -1
hi = 0
poly = 0: 1  1: 1

[cell]
type = box
lo = 0
hi = 1
poly = 0: 1  1: -1
"""


class TestElementFiles:
    def test_parse_custom_hat(self):
        el = parse_element_text(ELEMENT_TEXT)
        assert el.gamma == ((-1,), (0,), (1,))
        assert el.psi((0.25,)) == pytest.approx(0.75)
        validate_element(el)

    def test_rational_coefficients(self):
        text = ELEMENT_TEXT.replace("poly = 0: 1  1: 1", "poly = 0: 2/2  1: 3/3")
        el = parse_element_text(text)
        assert el.psi((-0.5,)) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            (lambda s: s.replace("d = 1\n", ""), "missing header key 'd'"),
            (lambda s: s.replace("d = 1\n", "d = 1.5\n"), "d must be an integer, got '1.5'"),
            (lambda s: s.replace("lambda = (-1) (0) (1)\n", ""), "missing header key 'lambda'"),
            (lambda s: s.replace("poly = 0: 1  1: -1", "poly = 0:1 oops"), "bad polynomial term"),
            (lambda s: s.replace("lo = -1", "lo = 1"), "empty or inverted box"),
            (lambda s: s.replace("(0)", "(0,0)"), "not 1-dimensional"),
        ],
    )
    def test_malformed_files(self, mutation, message):
        with pytest.raises(ElementFormatError, match=message):
            parse_element_text(mutation(ELEMENT_TEXT))

    def test_asymmetric_lambda_rejected(self):
        text = ELEMENT_TEXT.replace("lambda = (-1) (0) (1)", "lambda = (0) (1)")
        with pytest.raises(ElementFormatError, match="symmetric"):
            parse_element_text(text)

    def test_missing_zero_rejected(self):
        text = ELEMENT_TEXT.replace("lambda = (-1) (0) (1)", "lambda = (-1) (1)")
        with pytest.raises(ElementFormatError, match="zero"):
            parse_element_text(text)
