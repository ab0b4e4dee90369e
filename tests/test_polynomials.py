import numpy as np
import pytest

from femspde.polynomials import (
    Box,
    GeometryError,
    PiecewisePolynomial,
    Polynomial,
    Simplex,
    cell_quadrature,
    cell_volume,
    intersect_cells,
    parse_number,
)


def random_poly(rng, d, degree):
    coeffs = {}
    for _ in range(6):
        expo = tuple(int(e) for e in rng.integers(0, degree + 1, size=d))
        if sum(expo) <= degree:
            coeffs[expo] = float(rng.normal())
    coeffs.setdefault((0,) * d, 1.0)
    return Polynomial(d, coeffs)


def box_monomial_integral(expo, lo, hi):
    out = 1.0
    for e, a, b in zip(expo, lo, hi):
        out *= (b ** (e + 1) - a ** (e + 1)) / (e + 1)
    return out


class TestPolynomial:
    def test_eval_and_product(self):
        p = Polynomial(2, {(1, 0): 2.0, (0, 2): 1.0})  # 2x + y^2
        q = Polynomial(2, {(0, 0): 1.0, (1, 1): -1.0})  # 1 - xy
        x = np.array([[1.0, 2.0]])
        assert p.eval_many(x)[0] == pytest.approx(6.0)
        assert (p * q).eval_many(x)[0] == pytest.approx(6.0 * (1 - 2.0))

    def test_derivative(self):
        p = Polynomial(2, {(2, 1): 3.0})  # 3 x^2 y
        dx = p.derivative(0)
        assert dx.coeffs == {(1, 1): 6.0}
        assert p.derivative(1).coeffs == {(2, 0): 3.0}

    def test_translate_matches_shifted_evaluation(self, rng):
        for d in (1, 2, 3):
            p = random_poly(rng, d, 3)
            t = rng.normal(size=d)
            q = p.translated(t)
            pts = rng.normal(size=(20, d))
            np.testing.assert_allclose(q.eval_many(pts), p.eval_many(pts - t), atol=1e-12)


class TestQuadrature:
    def test_box_rule_exact_for_monomials(self, rng):
        lo, hi = (-1.0, 0.5), (0.25, 2.0)
        cell = Box(lo, hi)
        pts, wts = cell_quadrature(cell, degree=8)
        for expo in [(0, 0), (3, 2), (8, 0), (4, 4), (1, 7)]:
            approx = float(wts @ np.prod(pts ** np.asarray(expo), axis=1))
            exact = box_monomial_integral(expo, lo, hi)
            assert approx == pytest.approx(exact, abs=1e-13, rel=1e-13)

    def test_triangle_rule_exact_for_monomials(self):
        # region 0 <= y <= x <= 1: integral of x^p y^q = 1 / ((q+1)(p+q+2))
        tri = Simplex(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
        pts, wts = cell_quadrature(tri, degree=8)
        for p, q in [(0, 0), (1, 0), (2, 3), (5, 3), (8, 0), (0, 8)]:
            approx = float(wts @ (pts[:, 0] ** p * pts[:, 1] ** q))
            exact = 1.0 / ((q + 1) * (p + q + 2))
            assert approx == pytest.approx(exact, abs=1e-14, rel=1e-13)

    def test_triangle_volume(self):
        tri = Simplex(((0.0, 0.0), (2.0, 0.0), (0.0, 1.0)))
        assert tri.volume() == pytest.approx(1.0)
        _, wts = cell_quadrature(tri, degree=2)
        assert wts.sum() == pytest.approx(1.0)


class TestIntersection:
    def test_box_box(self):
        a = Box((0.0, 0.0), (1.0, 1.0))
        b = Box((0.5, -1.0), (2.0, 0.75))
        parts = intersect_cells(a, b)
        assert len(parts) == 1
        assert sum(cell_volume(c) for c in parts) == pytest.approx(0.5 * 0.75)

    def test_box_box_disjoint(self):
        a = Box((0.0,), (1.0,))
        b = Box((1.0,), (2.0,))
        assert intersect_cells(a, b) == []

    def test_triangle_box(self):
        # right triangle (0,0)-(1,0)-(0,1) clipped by x >= 0.5: area (1/2)(1/2)^2
        tri = Simplex(((0.0, 0.0), (1.0, 0.0), (0.0, 1.0)))
        box = Box((0.5, 0.0), (2.0, 2.0))
        parts = intersect_cells(tri, box)
        area = sum(cell_volume(c) for c in parts)
        assert area == pytest.approx(0.125, abs=1e-14)

    def test_triangle_triangle_shifted(self):
        tri = Simplex(((0.0, 0.0), (1.0, 0.0), (1.0, 1.0)))
        shifted = tri.translated((0.5, 0.0))
        parts = intersect_cells(tri, shifted)
        area = sum(cell_volume(c) for c in parts)
        # overlap of the two congruent triangles, computed by hand
        assert area == pytest.approx(0.125, abs=1e-12)

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(GeometryError):
            Simplex(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0)))

    def test_inverted_box_rejected(self):
        with pytest.raises(GeometryError):
            Box((1.0,), (0.0,))


class TestPiecewise:
    def test_disjoint_check(self):
        one = Polynomial.constant(1, 1.0)
        good = PiecewisePolynomial(1, [(Box((-1.0,), (0.0,)), one), (Box((0.0,), (1.0,)), one)])
        good.check_disjoint()
        bad = PiecewisePolynomial(1, [(Box((-1.0,), (0.5,)), one), (Box((0.0,), (1.0,)), one)])
        with pytest.raises(GeometryError):
            bad.check_disjoint()

    def test_continuity_check(self):
        up = Polynomial(1, {(0,): 1.0, (1,): 1.0})
        down = Polynomial(1, {(0,): 1.0, (1,): -1.0})
        hat = PiecewisePolynomial(1, [(Box((-1.0,), (0.0,)), up), (Box((0.0,), (1.0,)), down)])
        assert hat.check_continuity() <= 1e-15
        jumpy = PiecewisePolynomial(
            1, [(Box((-1.0,), (0.0,)), up), (Box((0.0,), (1.0,)), Polynomial.constant(1, 0.5))]
        )
        with pytest.raises(GeometryError):
            jumpy.check_continuity()

    def test_eval_outside_support_is_zero(self):
        one = Polynomial.constant(2, 1.0)
        pp = PiecewisePolynomial(2, [(Box((0.0, 0.0), (1.0, 1.0)), one)])
        assert pp((2.0, 2.0)) == 0.0
        assert pp((0.5, 0.5)) == 1.0

    def test_integral(self):
        up = Polynomial(1, {(0,): 1.0, (1,): 1.0})
        down = Polynomial(1, {(0,): 1.0, (1,): -1.0})
        hat = PiecewisePolynomial(1, [(Box((-1.0,), (0.0,)), up), (Box((0.0,), (1.0,)), down)])
        assert hat.integral() == pytest.approx(1.0, abs=1e-15)


def test_parse_number():
    assert parse_number("2/3") == pytest.approx(2.0 / 3.0)
    assert parse_number("-0.25") == -0.25
    assert parse_number(" 1 ") == 1.0
