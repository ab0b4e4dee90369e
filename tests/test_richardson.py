from fractions import Fraction as F

import numpy as np
import pytest

from femspde.lattice import GridFunction, build_torus
from femspde.richardson import (
    ConvergenceReport,
    ExtrapolationPlan,
    combine,
    error_norm,
    estimate_order,
    extrapolation_coefficients,
)


def solve_vandermonde_exact(jbar, ratio):
    """Gaussian elimination in exact rational arithmetic."""
    m = jbar + 1
    aug = [[F(ratio) ** (k * j) for j in range(m)] + [F(1 if k == 0 else 0)] for k in range(m)]
    for col in range(m):
        pivot = next(r for r in range(col, m) if aug[r][col] != 0)
        aug[col], aug[pivot] = aug[pivot], aug[col]
        inv = 1 / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(m):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[col])]
    return [row[-1] for row in aug]


class TestCoefficients:
    def test_single_level(self):
        np.testing.assert_allclose(extrapolation_coefficients(0, 0.25), [1.0])

    def test_two_levels_quarter_ratio(self):
        coeffs = extrapolation_coefficients(1, 0.25)
        np.testing.assert_allclose(coeffs, [-1.0 / 3.0, 4.0 / 3.0], atol=1e-14)

    def test_three_levels_match_exact_solve(self):
        coeffs = extrapolation_coefficients(2, 0.25)
        exact = [float(c) for c in solve_vandermonde_exact(2, F(1, 4))]
        np.testing.assert_allclose(coeffs, exact, atol=1e-12)
        assert coeffs.sum() == pytest.approx(1.0, abs=1e-12)
        for k in (1, 2):
            assert sum(c * 0.25 ** (k * j) for j, c in enumerate(coeffs)) == pytest.approx(
                0.0, abs=1e-12
            )

    @pytest.mark.parametrize("jbar", [0, 1, 2, 3, 4])
    @pytest.mark.parametrize("ratio", [0.25, 0.0625])
    def test_system_residuals(self, jbar, ratio):
        coeffs = extrapolation_coefficients(jbar, ratio)
        assert sum(coeffs) == pytest.approx(1.0, abs=1e-12)
        for k in range(1, jbar + 1):
            combo = sum(c * ratio ** (k * j) for j, c in enumerate(coeffs))
            assert combo == pytest.approx(0.0, abs=1e-12)

    def test_ill_conditioning_warns(self):
        with pytest.warns(RuntimeWarning, match="ill-conditioned"):
            extrapolation_coefficients(7, 0.25)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            extrapolation_coefficients(-1, 0.25)
        with pytest.raises(ValueError):
            extrapolation_coefficients(1, 1.5)


class TestCombine:
    def setup_method(self):
        self.coarse = build_torus(1, 0.5, 8)
        self.fine = self.coarse.refine()
        self.finest = self.fine.refine()

    def test_single_level_identity(self, rng):
        plan = ExtrapolationPlan.create(0)
        u = GridFunction(self.coarse, rng.normal(size=8))
        out = combine([u], plan)
        np.testing.assert_array_equal(out.values, u.values)

    def test_constant_levels_reproduce_constant(self):
        plan = ExtrapolationPlan.create(1)
        levels = [
            GridFunction(self.coarse, np.full(8, 7.5)),
            GridFunction(self.fine, np.full(16, 7.5)),
        ]
        np.testing.assert_allclose(combine(levels, plan).values, 7.5, atol=1e-13)

    def test_manufactured_h2_error_cancels(self, rng):
        # level j carries the same truth plus a pure h^2 term scaled by 4^-j
        plan = ExtrapolationPlan.create(1)
        truth = rng.normal(size=8)
        defect = rng.normal(size=8)
        coarse_vals = truth + defect
        fine_vals = np.zeros(16)
        fine_vals[::2] = truth + 0.25 * defect  # only shared sites matter
        out = combine(
            [GridFunction(self.coarse, coarse_vals), GridFunction(self.fine, fine_vals)], plan
        )
        np.testing.assert_allclose(out.values[0], truth, atol=1e-13)

    def test_linearity_in_each_level(self, rng):
        plan = ExtrapolationPlan.create(1)
        zero0 = GridFunction(self.coarse, np.zeros(8))
        u0 = GridFunction(self.coarse, rng.normal(size=8))
        u1 = GridFunction(self.fine, rng.normal(size=16))
        v1 = GridFunction(self.fine, rng.normal(size=16))
        # linear in the fine level with the coarse level frozen at zero
        left = combine([zero0, GridFunction(self.fine, 2.0 * u1.values + 3.0 * v1.values)],
                       plan).values
        right = 2.0 * combine([zero0, u1], plan).values + 3.0 * combine([zero0, v1], plan).values
        np.testing.assert_allclose(left, right, atol=1e-12)
        # additive across levels
        both = combine([u0, u1], plan).values
        split = combine([u0, GridFunction(self.fine, np.zeros(16))], plan).values
        split = split + combine([zero0, u1], plan).values
        np.testing.assert_allclose(both, split, atol=1e-12)

    def test_block_combines_each_sample(self, rng):
        plan = ExtrapolationPlan.create(1)
        coarse = rng.normal(size=(3, 8))
        fine = rng.normal(size=(3, 16))
        got = combine([GridFunction(self.coarse, coarse), GridFunction(self.fine, fine)], plan)
        assert got.values.shape == (3, 8)
        for s in range(3):
            want = combine([GridFunction(self.coarse, coarse[s]),
                            GridFunction(self.fine, fine[s])], plan)
            assert np.array_equal(got.values[s:s + 1], want.values)

    def test_wrong_level_count_rejected(self):
        plan = ExtrapolationPlan.create(1)
        with pytest.raises(ValueError):
            combine([GridFunction(self.coarse, np.zeros(8))], plan)


class TestErrorNorm:
    def test_identical_fields(self, rng):
        lat = build_torus(1, 0.5, 8)
        u = GridFunction(lat, rng.normal(size=8))
        assert np.array_equal(error_norm(u, u), [0.0])

    def test_constant_offset(self):
        lat = build_torus(2, 0.5, 4)  # L = 2, d = 2
        u = GridFunction(lat, np.zeros(lat.shape))
        v = GridFunction(lat, np.full(lat.shape, 0.125))
        assert error_norm(u, v) == pytest.approx([0.125 * 2.0])  # eps * sqrt(L^d)

    def test_matches_direct_summation(self, rng):
        import math

        lat = build_torus(1, 0.25, 16)
        u = GridFunction(lat, rng.normal(size=(3, 16)))
        v = GridFunction(lat, rng.normal(size=(3, 16)))
        errors = error_norm(u, v)
        assert errors.shape == (3,)
        for a, b, error in zip(u.values, v.values, errors):
            oracle = math.sqrt(math.fsum(0.25 * (x - y) ** 2 for x, y in zip(a, b)))
            assert error == pytest.approx(oracle, rel=1e-13)

    def test_mismatched_lattices_rejected(self):
        u = GridFunction(build_torus(1, 0.25, 8), np.zeros(8))
        v = GridFunction(build_torus(1, 0.25, 16), np.zeros(16))
        with pytest.raises(ValueError, match="lattice mismatch"):
            error_norm(u, v)


class TestEstimateOrder:
    def test_exact_quadratic(self):
        errors = [(h, h**2) for h in (0.4, 0.2, 0.1, 0.05)]
        assert estimate_order(errors) == pytest.approx(2.0, abs=1e-10)

    def test_exact_quartic_with_prefactor(self):
        errors = [(h, 3.0 * h**4) for h in (0.4, 0.2, 0.1)]
        assert estimate_order(errors) == pytest.approx(4.0, abs=1e-10)

    def test_mixed_orders_lie_between(self):
        hs = (0.4, 0.2, 0.1, 0.05)
        slopes = []
        for w in (1.0, 0.1, 0.01):
            errors = [(h, h**2 + w * h) for h in hs]
            slope = estimate_order(errors)
            assert 1.0 < slope < 2.0
            slopes.append(slope)
        assert slopes == sorted(slopes)  # less linear pollution -> closer to 2

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            estimate_order([(0.2, 1e-3), (0.1, 1e-4)])

    def test_nonpositive_errors_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            estimate_order([(0.4, 1e-3), (0.2, 0.0), (0.1, 1e-5)])

    def test_duplicate_h_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            estimate_order([(0.2, 1e-3), (0.2, 1e-4), (0.1, 1e-5)])


class TestReport:
    def test_csv_schema(self):
        report = ConvergenceReport("base", [0.4, 0.2, 0.1], [16, 32, 64],
                                   [1.6e-2, 4.1e-3, 1.0e-3])
        text = report.to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "h,n,error,order_local"
        assert lines[1].split(",")[3] == ""  # no local order on the first row
        assert lines[-1].startswith("fitted_order,,,")
        fitted = float(lines[-1].split(",")[3])
        assert fitted == pytest.approx(report.fitted_order)
        assert "\r" not in text
        # 17 significant digits in scientific notation
        assert lines[1].split(",")[0] == "4.0000000000000002e-01"

    def test_local_orders(self):
        report = ConvergenceReport("base", [0.4, 0.2, 0.1], [16, 32, 64],
                                   [1.6e-2, 4.0e-3, 1.0e-3])
        orders = report.local_orders
        assert orders[0] is None
        assert orders[1] == pytest.approx(2.0)
        assert orders[2] == pytest.approx(2.0)
