import math

import numpy as np
import pytest

from femspde.lattice import (
    GridFunction,
    build_torus,
    format_float,
    grid_function_to_csv,
    inner_0h,
    norm_0h,
    restrict,
    write_grid_function_csv,
)


class TestBuild:
    def test_basic(self):
        lat = build_torus(1, 0.25, 8)
        assert lat.L == pytest.approx(2.0)
        assert lat.total_sites == 8

    def test_2d(self):
        lat = build_torus(2, 0.5, 4)
        assert lat.total_sites == 16
        assert lat.shape == (4, 4)

    def test_odd_sites_rejected(self):
        with pytest.raises(ValueError):
            build_torus(1, 0.25, 7)

    def test_small_or_negative_rejected(self):
        with pytest.raises(ValueError):
            build_torus(1, 0.25, 2)
        with pytest.raises(ValueError):
            build_torus(1, -0.25, 8)


class TestRefine:
    def test_refine_once(self):
        lat = build_torus(1, 0.5, 4)
        fine = lat.refine()
        assert fine.h == pytest.approx(0.25)
        assert fine.n == 8
        assert fine.L == pytest.approx(lat.L)

    def test_refine_twice(self):
        lat = build_torus(2, 0.5, 4)
        fine = lat.refine().refine()
        assert fine.h == pytest.approx(0.125)
        assert fine.n == 16

    def test_coarse_site_maps_to_doubled_index(self):
        lat = build_torus(1, 0.5, 4)
        fine = lat.refine()
        np.testing.assert_allclose(lat.axis_coords(), fine.axis_coords()[::2])


class TestRestrict:
    def test_constant_field(self):
        coarse = build_torus(1, 0.5, 4)
        fine = coarse.refine()
        u = GridFunction(fine, np.full(fine.shape, 3.0))
        v = restrict(u, coarse)
        np.testing.assert_array_equal(v.values, 3.0)

    def test_injection_samples_shared_sites(self):
        coarse = build_torus(1, 0.25, 8)
        fine = coarse.refine()
        wave = GridFunction(fine, np.sin(2 * np.pi * fine.axis_coords() / fine.L))
        v = restrict(wave, coarse)
        np.testing.assert_allclose(
            v.values, np.sin(2 * np.pi * coarse.axis_coords() / coarse.L), atol=1e-15
        )

    def test_two_step_composition(self, rng):
        coarse = build_torus(2, 0.5, 4)
        mid = coarse.refine()
        fine = mid.refine()
        u = GridFunction(fine, rng.normal(size=fine.shape))
        direct = restrict(u, coarse)
        composed = restrict(restrict(u, mid), coarse)
        np.testing.assert_array_equal(direct.values, composed.values)

    def test_restrict_after_prolong_is_identity(self, rng):
        coarse = build_torus(1, 0.5, 4)
        fine = coarse.refine()
        u = GridFunction(coarse, rng.normal(size=coarse.shape))
        padded = np.zeros(fine.shape)
        padded[::2] = u.values
        assert np.array_equal(restrict(GridFunction(fine, padded), coarse).values, u.values)

    def test_non_nested_rejected(self):
        a = build_torus(1, 0.25, 8)  # L = 2
        b = build_torus(1, 0.5, 8)   # L = 4
        u = GridFunction(b, np.zeros(b.shape))
        with pytest.raises(ValueError):
            restrict(u, a)
        c = build_torus(1, 2.0 / 12.0, 12)  # L = 2 but ratio 12/8 not a power of two
        with pytest.raises(ValueError):
            restrict(GridFunction(c, np.zeros(c.shape)), a)


class TestNorms:
    def test_constant_norm_equals_torus_length(self):
        lat = build_torus(1, 0.25, 8)
        u = GridFunction(lat, np.ones(lat.shape))
        assert norm_0h(u) ** 2 == pytest.approx(2.0)  # h^d * n = L

    def test_zero(self):
        lat = build_torus(1, 0.25, 8)
        assert norm_0h(GridFunction.zeros(lat)) == 0.0

    def test_against_fsum_oracle(self, rng):
        lat = build_torus(2, 0.1, 16)
        vals = rng.normal(size=lat.shape)
        u = GridFunction(lat, vals)
        oracle = math.fsum(lat.h**2 * v * v for v in vals.ravel())
        assert norm_0h(u) ** 2 == pytest.approx(oracle, rel=1e-13)
        oracle_ip = math.fsum(lat.h**2 * v * w for v, w in zip(vals.ravel(), vals.ravel()[::-1]))
        v = GridFunction(lat, vals.ravel()[::-1].reshape(lat.shape))
        assert inner_0h(u, v) == pytest.approx(oracle_ip, rel=1e-12, abs=1e-13)

    def test_cauchy_schwarz(self, rng):
        lat = build_torus(1, 0.125, 16)
        u = GridFunction(lat, rng.normal(size=lat.shape))
        v = GridFunction(lat, rng.normal(size=lat.shape))
        assert abs(inner_0h(u, v)) <= norm_0h(u) * norm_0h(v) + 1e-14

    def test_mismatched_lattices_rejected(self):
        u = GridFunction(build_torus(1, 0.25, 8), np.zeros(8))
        v = GridFunction(build_torus(1, 0.25, 16), np.zeros(16))
        with pytest.raises(ValueError):
            inner_0h(u, v)
        with pytest.raises(ValueError):
            _ = u + v


class TestCsv:
    def test_format_float_17_digits(self):
        text = format_float(1.0 / 3.0)
        assert text == "3.3333333333333331e-01"
        assert "." in text and "," not in text

    def test_csv_layout(self, tmp_path):
        lat = build_torus(2, 0.5, 4)
        u = GridFunction(lat, np.arange(16, dtype=float).reshape(4, 4))
        text = grid_function_to_csv(u)
        lines = text.split("\n")
        assert lines[0] == "i1,i2,x1,x2,value"
        assert len(lines) == 1 + 16 + 1  # header + sites + trailing newline
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[4]) == 0.0
        path = tmp_path / "field.csv"
        write_grid_function_csv(path, u)
        raw = path.read_bytes()
        assert b"\r" not in raw
        assert raw.decode("utf-8") == text

    def test_roundtrip_precision(self):
        lat = build_torus(1, 1.0 / 3.0, 6)
        vals = np.array([np.pi, -1.0 / 7.0, 1e-17, 2.0 / 3.0, 0.0, 123456.789])
        u = GridFunction(lat, vals)
        text = grid_function_to_csv(u)
        parsed = [float(line.split(",")[-1]) for line in text.strip().split("\n")[1:]]
        np.testing.assert_array_equal(np.asarray(parsed), vals)
