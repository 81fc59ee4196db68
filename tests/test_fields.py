"""Grid construction and random-field sampling."""

from dataclasses import asdict

import numpy as np
import pytest

from spatialconfound import (
    SCENARIO_STRONG_EXPOSURE,
    AliasingError,
    IidSpec,
    LocationGrid,
    SpectralSpec,
    config_hash,
    config_to_dict,
    derive_seed,
    field_dft_energy,
    frequency_pairs,
    make_grid,
    sample_field,
    sample_grf,
    sample_iid,
    scenario_config,
)


def shell_energy_reference(values, m):
    """Independent DFT shell-energy computation (test-side oracle)."""
    spectrum = np.fft.fft2(values.reshape(m, m))
    power = np.abs(spectrum) ** 2 / values.size
    f = np.rint(np.fft.fftfreq(m) * m).astype(int)
    shell = np.maximum(np.abs(f)[:, None], np.abs(f)[None, :])
    out = {}
    for k in range(m // 2 + 1):
        out[k] = float(power[shell == k].sum())
    return out


class TestMakeGrid:
    def test_m2_exact_points(self):
        grid = make_grid(2)
        expected = {(0.25, 0.25), (0.75, 0.25), (0.25, 0.75), (0.75, 0.75)}
        assert {tuple(c) for c in grid.coords} == expected
        # Row-major with x fastest.
        assert tuple(grid.coords[0]) == (0.25, 0.25)
        assert tuple(grid.coords[1]) == (0.75, 0.25)

    def test_m16_first_point(self):
        grid = make_grid(16)
        assert grid.n == 256
        assert grid.coords[0] == pytest.approx((0.03125, 0.03125))

    def test_points_strictly_inside_unit_square(self):
        grid = make_grid(7)
        assert np.all(grid.coords > 0.0) and np.all(grid.coords < 1.0)

    @pytest.mark.parametrize("build", [make_grid, LocationGrid])
    @pytest.mark.parametrize("m", [1, 0, -3, 513])
    def test_out_of_range(self, m, build):
        with pytest.raises(ValueError, match="must be in"):
            build(m)

    @pytest.mark.parametrize("build", [make_grid, LocationGrid])
    @pytest.mark.parametrize("m", [4.0, True, "4"])
    def test_non_integer(self, m, build):
        with pytest.raises(ValueError, match="must be an integer"):
            build(m)

    def test_coords_built_on_first_read_and_read_only(self):
        grid = LocationGrid(np.int64(3))
        assert type(grid.m) is int and grid.n == 9 and "coords" not in vars(grid)
        coords = grid.coords
        assert grid.coords is coords and np.array_equal(coords, make_grid(3).coords)
        with pytest.raises(ValueError):
            coords[0, 0] = 0.0


class TestFrequencyPairs:
    def test_count_by_brute_force(self):
        # One representative per +/- pair of lattice points in the band.
        for k_min, k_max in [(1, 1), (1, 5), (2, 4), (0, 3), (3, 3)]:
            lattice = [
                (k1, k2)
                for k1 in range(-k_max, k_max + 1)
                for k2 in range(-k_max, k_max + 1)
                if k_min <= max(abs(k1), abs(k2)) <= k_max
            ]
            nonzero = [k for k in lattice if k != (0, 0)]
            expected = len(nonzero) // 2 + (1 if (0, 0) in lattice else 0)
            got = frequency_pairs(k_min, k_max)
            assert len(got) == expected, (k_min, k_max)
            # No pair and its negation both present.
            seen = {tuple(k) for k in got}
            assert all((-k1, -k2) not in seen for (k1, k2) in seen if (k1, k2) != (0, 0))

    def test_order_matches_brute_force_enumeration(self):
        # Field coefficients are drawn in pair order, so the order is pinned.
        for k_max in range(0, 13):
            for k_min in range(0, k_max + 1):
                expected = sorted(
                    (max(abs(k1), abs(k2)), k1, k2)
                    for k1 in range(0, k_max + 1)
                    for k2 in range(-k_max, k_max + 1)
                    if (k1 > 0 or k2 >= 0) and k_min <= max(abs(k1), abs(k2)) <= k_max
                )
                got = frequency_pairs(k_min, k_max)
                assert got.dtype == np.dtype(int)
                assert got.tolist() == [[k1, k2] for _, k1, k2 in expected], (k_min, k_max)

    def test_bad_range(self):
        with pytest.raises(ValueError):
            frequency_pairs(3, 2)

    def test_a_spec_keeps_its_pairs(self):
        spec = SpectralSpec(6, 10, 0.5, 2.0)
        config = scenario_config(SCENARIO_STRONG_EXPOSURE)
        doc, digest = config_to_dict(config), config_hash(config)
        first = spec.pairs
        assert spec.pairs is first and not first.flags.writeable
        # frequency_pairs still returns a fresh, writable array.
        fresh = frequency_pairs(6, 10)
        assert fresh is not first and fresh.flags.writeable
        assert np.array_equal(first, fresh)
        # The kept pairs are not a field.
        assert asdict(spec) == {"k_min": 6, "k_max": 10, "decay": 0.5, "variance": 2.0}
        assert spec == SpectralSpec(6, 10, 0.5, 2.0)
        assert hash(spec) == hash(SpectralSpec(6, 10, 0.5, 2.0))
        sample_grf(make_grid(32), config.spec_S1, seed=1)
        assert "pairs" in vars(config.spec_S1)
        assert config_to_dict(config) == doc and config_hash(config) == digest


class TestSampleGrf:
    def test_zero_variance_gives_zero_field(self):
        grid = make_grid(8)
        f = sample_grf(grid, SpectralSpec(1, 3, 0.5, 0.0), seed=7)
        assert np.all(f == 0.0)

    def test_band_limitation_against_direct_dft(self):
        grid = make_grid(32)
        spec = SpectralSpec(3, 5, 0.0, 1.0)
        f = sample_grf(grid, spec, seed=123)
        shells = shell_energy_reference(f, 32)
        total = sum(shells.values())
        outside = sum(e for k, e in shells.items() if not 3 <= k <= 5)
        assert outside < 1e-10 * total

    def test_determinism(self):
        grid = make_grid(16)
        spec = SpectralSpec(1, 4, 1.0, 2.0)
        a = sample_grf(grid, spec, seed=99)
        b = sample_grf(grid, spec, seed=99)
        assert np.array_equal(a, b)
        # A spec whose pairs were worked out before gives the same bits.
        assert sample_grf(grid, SpectralSpec(1, 4, 1.0, 2.0), seed=99).tobytes() == a.tobytes()
        c = sample_grf(grid, spec, seed=100)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_variance_calibration(self, seed):
        grid = make_grid(24)
        spec = SpectralSpec(1, 6, 0.7, 3.5)
        f = sample_grf(grid, spec, seed=seed)
        assert f.var() == pytest.approx(3.5, rel=1e-9)

    def test_aliasing_guard(self):
        grid = make_grid(16)
        with pytest.raises(AliasingError):
            sample_grf(grid, SpectralSpec(1, 9, 0.0, 1.0), seed=1)
        # k_max == m/2 is representable
        sample_grf(grid, SpectralSpec(1, 8, 0.0, 1.0), seed=1)

    def test_decay_damps_high_frequencies(self):
        grid = make_grid(64)
        flat = sample_grf(grid, SpectralSpec(1, 16, 0.0, 1.0), seed=5)
        steep = sample_grf(grid, SpectralSpec(1, 16, 2.0, 1.0), seed=5)
        def high_share(f):
            shells = field_dft_energy(f, grid)
            total = sum(shells.values())
            return sum(e for k, e in shells.items() if k > 8) / total
        assert high_share(steep) < high_share(flat)


class TestSampleIid:
    def test_zero_sd(self):
        grid = make_grid(8)
        f = sample_iid(grid, 0.0, seed=3)
        assert np.all(f == 0.0)

    def test_moments_at_n_10000(self):
        grid = make_grid(100)
        f = sample_iid(grid, 1.0, seed=2024)
        assert abs(f.mean()) < 0.05
        assert 0.9 < f.var() < 1.1

    def test_negative_sd(self):
        grid = make_grid(8)
        with pytest.raises(ValueError):
            sample_iid(grid, -1.0, seed=0)

    @pytest.mark.parametrize("value", [True, np.True_, "1"], ids=["bool", "np-bool", "str"])
    @pytest.mark.parametrize(
        "name,build",
        [
            ("sd", IidSpec),
            ("sd", lambda v: sample_iid(make_grid(8), v, seed=0)),
            ("variance", lambda v: SpectralSpec(1, 2, variance=v)),
            ("decay", lambda v: SpectralSpec(1, 2, decay=v)),
        ],
        ids=["IidSpec", "sample_iid", "variance", "decay"],
    )
    def test_not_a_real_number(self, name, build, value):
        # A bool is not read as 1.0, nor a string parsed.
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            build(value)

    def test_dispatch(self):
        grid = make_grid(8)
        f = sample_field(grid, IidSpec(2.0), seed=4)
        g = sample_iid(grid, 2.0, seed=4)
        assert np.array_equal(f, g)
        s = sample_field(grid, SpectralSpec(1, 2, 0.0, 1.0), seed=4)
        t = sample_grf(grid, SpectralSpec(1, 2, 0.0, 1.0), seed=4)
        assert np.array_equal(s, t)


def test_samplers_return_read_only_arrays():
    grid = make_grid(8)
    draws = [
        sample_grf(grid, SpectralSpec(1, 2, 0.0, 1.0), seed=1),
        sample_iid(grid, 1.0, seed=1),
        sample_field(grid, SpectralSpec(1, 2, 0.0, 1.0), seed=1),
        sample_field(grid, IidSpec(1.0), seed=1),
    ]
    for values in draws:
        assert isinstance(values, np.ndarray) and values.shape == (grid.n,)
        assert not values.flags.writeable
        with pytest.raises(ValueError):
            values[0] = 1.0


def test_iid_spec_variance():
    assert IidSpec(1.5).variance == 2.25
    assert IidSpec(0.0).variance == 0.0


class TestFieldDftEnergy:
    def test_zero_field(self):
        grid = make_grid(8)
        f = sample_iid(grid, 0.0, seed=0)
        shells = field_dft_energy(f, grid)
        assert set(shells) == set(range(5))
        assert all(v == 0.0 for v in shells.values())

    def test_single_tone(self):
        grid = make_grid(16)
        values = np.cos(2 * np.pi * 3 * grid.coords[:, 0])
        shells = field_dft_energy(values, grid)
        total = sum(shells.values())
        assert shells[3] == pytest.approx(total, rel=1e-12)

    def test_band_consistency_with_sample_grf(self):
        grid = make_grid(32)
        f = sample_grf(grid, SpectralSpec(2, 4, 0.0, 1.0), seed=11)
        shells = field_dft_energy(f, grid)
        total = sum(shells.values())
        outside = sum(e for k, e in shells.items() if not 2 <= k <= 4)
        assert outside < 1e-10 * total

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_parseval(self, seed):
        grid = make_grid(20)
        f = sample_iid(grid, 1.3, seed=seed)
        shells = field_dft_energy(f, grid)
        ss = float(f @ f)
        assert sum(shells.values()) == pytest.approx(ss, rel=1e-10)
        g = sample_grf(grid, SpectralSpec(1, 7, 0.5, 2.0), seed=seed)
        shells_g = field_dft_energy(g, grid)
        assert sum(shells_g.values()) == pytest.approx(float(g @ g), rel=1e-10)

    def test_length_mismatch(self):
        f = sample_iid(make_grid(8), 1.0, seed=0)
        with pytest.raises(ValueError):
            field_dft_energy(f, make_grid(16))


class TestSeedDerivation:
    def test_stable_and_distinct(self):
        a = derive_seed(123, "S1")
        assert a == derive_seed(123, "S1")
        assert a != derive_seed(123, "S2")
        assert a != derive_seed(124, "S1")

    def test_mixed_part_types(self):
        assert derive_seed(1, "x", 2) == derive_seed(1, "x", 2)
        assert derive_seed(1, "x", 2) != derive_seed(1, "x", 3)

