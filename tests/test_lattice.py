import math

import numpy as np
import pytest

from femspde.lattice import (
    GridFunction,
    build_torus,
    format_float,
    grid_function_to_csv,
    norms_0h,
    restrict,
    states_csv,
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
        for h in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                build_torus(1, h, 8)

    @pytest.mark.parametrize("d, h", [(1, 1e155), (1, 1e-155), (1, 1e-200), (3, 1e109),
                                      (3, 1e-109)])
    def test_spacing_whose_powers_leave_the_floats_rejected(self, d, h):
        # h^2 or h^d overflows, h^2 underflows to 0, or 1/h^2 overflows
        with pytest.raises(ValueError, match=f"h\\^2, 1/h\\^2 and h\\^{d} finite and nonzero"):
            build_torus(d, h, 8)

    @pytest.mark.parametrize("d, h", [(1, 1e150), (1, 1e-150), (3, 1e100), (3, 1e-100)])
    def test_spacing_whose_powers_stay_finite_accepted(self, d, h):
        assert build_torus(d, h, 8).h == h


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


class TestGridFunction:
    def test_one_sample_gains_leading_axis_without_copy(self):
        lat = build_torus(2, 0.5, 4)
        vals = np.arange(16, dtype=float).reshape(4, 4)
        u = GridFunction(lat, vals)
        assert u.values.shape == (1, 4, 4)
        assert np.shares_memory(u.values, vals)

    def test_block_is_kept_as_given(self, rng):
        lat = build_torus(2, 0.5, 4)
        block = rng.normal(size=(3, 4, 4))
        assert GridFunction(lat, block).values is block

    @pytest.mark.parametrize("shape", [(16,), (4,), (4, 4, 4, 4), (2, 4, 8), ()])
    def test_other_shapes_rejected(self, shape):
        # the flat (sites,) form included
        with pytest.raises(ValueError, match="neither"):
            GridFunction(build_torus(2, 0.5, 4), np.zeros(shape))


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
            v.values[0], np.sin(2 * np.pi * coarse.axis_coords() / coarse.L), atol=1e-15
        )

    def test_block_restricts_each_sample(self, rng):
        coarse = build_torus(2, 0.5, 4)
        fine = coarse.refine()
        block = rng.normal(size=(3, *fine.shape))
        got = restrict(GridFunction(fine, block), coarse).values
        assert got.shape == (3, *coarse.shape)
        for sample, out in zip(block, got):
            assert np.array_equal(out[None], restrict(GridFunction(fine, sample), coarse).values)

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
        padded[::2] = u.values[0]
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
        (norm,) = norms_0h(lat, np.ones((1, *lat.shape)))
        assert norm**2 == pytest.approx(2.0)  # h^d * n = L

    def test_zero(self):
        lat = build_torus(1, 0.25, 8)
        assert norms_0h(lat, np.zeros((1, *lat.shape)))[0] == 0.0

    def test_against_fsum_oracle(self, rng):
        lat = build_torus(2, 0.1, 16)
        block = rng.normal(size=(3, *lat.shape))
        norms = norms_0h(lat, block)
        assert norms.shape == (3,)
        for vals, norm in zip(block, norms):
            oracle = math.fsum(lat.h**2 * v * v for v in vals.ravel())
            assert norm**2 == pytest.approx(oracle, rel=1e-13)


class TestCsv:
    def test_format_float_17_digits(self):
        text = format_float(1.0 / 3.0)
        assert text == "3.3333333333333331e-01"
        assert "." in text and "," not in text

    def test_format_float_matches_numpy_formatter(self, rng):
        # the text of np.format_float_scientific(precision=16, unique=False,
        # exp_digits=2), on random bit patterns across the exponent range and on
        # signed zeros, the smallest subnormal and three-digit exponents
        pinned = [
            (0.0, "0.0000000000000000e+00"),
            (-0.0, "-0.0000000000000000e+00"),
            (5e-324, "4.9406564584124654e-324"),
            (-1e-300, "-1.0000000000000000e-300"),
            (1.7976931348623157e308, "1.7976931348623157e+308"),
            (1e100, "1.0000000000000000e+100"),
            (-2.5e-5, "-2.5000000000000001e-05"),
            (123456.789, "1.2345678900000000e+05"),
        ]
        for v, text in pinned:
            assert format_float(v) == text
        values = rng.integers(0, 2**64, size=20000, dtype=np.uint64).view(np.float64)
        values = values[np.isfinite(values)]
        # python floats and numpy float64 scalars alike
        for v in [*(v for v, _ in pinned), *values.tolist(), *values[:100]]:
            assert format_float(v) == np.format_float_scientific(
                v, precision=16, unique=False, exp_digits=2)

    def test_csv_layout(self):
        lat = build_torus(2, 0.5, 4)
        u = GridFunction(lat, np.arange(16, dtype=float).reshape(4, 4))
        text = grid_function_to_csv(u)
        lines = text.split("\n")
        assert lines[0] == "i1,i2,x1,x2,value"
        assert len(lines) == 1 + 16 + 1  # header + sites + trailing newline
        first = lines[1].split(",")
        assert first[:2] == ["0", "0"]
        assert float(first[4]) == 0.0

    @pytest.mark.parametrize("d, n", [(1, 8), (2, 4)])
    def test_rows_equal_per_value_writer(self, rng, d, n):
        # the one-call writers give the bytes of a writer that formats each
        # value with its own format_float call, negative zero included
        lat = build_torus(d, 2.0 * np.pi / n, n)
        states = [GridFunction(lat, rng.normal(size=lat.shape)) for _ in range(3)]
        states[1].values.flat[1] = -0.0
        states[2].values.flat[0] = 0.0
        times = np.array([0.0, 0.1, 0.2])
        for u in states:
            rows = [",".join([f"i{k + 1}" for k in range(d)] + [f"x{k + 1}" for k in range(d)]
                             + ["value"]) + "\n"]
            for idx, x, v in zip(lat.multi_indices(), lat.coords(), u.values.ravel()):
                rows.append(",".join([*(str(int(i)) for i in idx), *map(format_float, x),
                                      format_float(v)]) + "\n")
            assert grid_function_to_csv(u) == "".join(rows)
        rows = ["step,time,site,value\n"]
        for k, u in enumerate(states):
            for site, v in enumerate(u.values.ravel()):
                rows.append(f"{k},{format_float(times[k])},{site},{format_float(v)}\n")
        chunks = list(states_csv(times, states))
        assert len(chunks) == 1 + len(states)  # the header, then one chunk per state
        assert "".join(chunks) == "".join(rows)
        assert "-0.0000000000000000e+00" in chunks[2]

    def test_roundtrip_precision(self):
        lat = build_torus(1, 1.0 / 3.0, 6)
        vals = np.array([np.pi, -1.0 / 7.0, 1e-17, 2.0 / 3.0, 0.0, 123456.789])
        u = GridFunction(lat, vals)
        text = grid_function_to_csv(u)
        parsed = [float(line.split(",")[-1]) for line in text.strip().split("\n")[1:]]
        np.testing.assert_array_equal(np.asarray(parsed), vals)

    def test_one_sample_per_file(self):
        lat = build_torus(1, 0.5, 4)
        with pytest.raises(ValueError, match="one sample"):
            grid_function_to_csv(GridFunction(lat, np.zeros((2, 4))))
