"""Data generation: structural identities, diagnostics, interchange."""

import numpy as np
import pytest

from spatialconfound import (
    ConfigError,
    DegenerateExposureError,
    IidSpec,
    ScenarioConfig,
    SpectralSpec,
    config_from_dict,
    config_hash,
    config_to_dict,
    dataset_to_csv,
    exposure_spatial_fraction,
    generate_dataset,
    load_config,
    read_observations_csv,
    save_config,
    scenario_config,
)


def base_config(**overrides):
    defaults = dict(
        beta=(0.5, 2.0, 1.0, 1.0, 0.8, 0.3),
        loadings=(1.0, 0.7, 0.5),
        nu_sd=1.0,
        sigma=0.4,
        spec_S1=SpectralSpec(1, 2, 0.0, 1.0),
        spec_S2=SpectralSpec(4, 6, 0.0, 1.0),
        spec_C=IidSpec(1.0),
        e_sd=0.5,
        u_sd=0.6,
        m=16,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestStructuralIdentities:
    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_reconstruction(self, seed):
        config = base_config()
        ds = generate_dataset(config, seed)
        a1, a2, a3 = config.loadings
        b0, b1, b2, b3, b4, b5 = config.beta
        s2p = ds.S2 + ds.E
        z_ref = a1 * ds.S1 + a2 * s2p + a3 * ds.C + ds.nu
        y_ref = b0 + b1 * ds.Z + b2 * ds.C + b3 * ds.S1 + b4 * s2p + b5 * ds.U + ds.eps
        assert ds.Z == pytest.approx(z_ref, rel=1e-12, abs=1e-12)
        assert ds.Y == pytest.approx(y_ref, rel=1e-12, abs=1e-12)

    def test_constant_outcome_when_only_intercept(self):
        config = base_config(beta=(2.0, 0, 0, 0, 0, 0), sigma=0.0)
        ds = generate_dataset(config, 3)
        assert np.all(ds.Y == 2.0)

    def test_noiseless_linear_recovery_oracle(self):
        # sigma = 0: OLS of Y on (1, Z, C, S1, S2, E, U) recovers the betas
        # exactly, with b4 appearing on both S2 and E.
        config = base_config(sigma=0.0)
        ds = generate_dataset(config, 11)
        X = np.column_stack([np.ones(ds.grid.n), ds.Z, ds.C, ds.S1, ds.S2, ds.E, ds.U])
        coef = np.linalg.lstsq(X, ds.Y, rcond=None)[0]
        b0, b1, b2, b3, b4, b5 = config.beta
        expected = np.array([b0, b1, b2, b3, b4, b4, b5])
        assert coef == pytest.approx(expected, rel=1e-8)

    def test_unconfounded_exposure_uncorrelated_with_s1(self):
        config = base_config(loadings=(0.0, 0.0, 0.0), nu_sd=1.0, m=64)
        ds = generate_dataset(config, 5)
        corr = np.corrcoef(ds.Z, ds.S1)[0, 1]
        assert abs(corr) < 0.05

    def test_seed_changes_realization(self):
        config = base_config()
        a = generate_dataset(config, 1)
        b = generate_dataset(config, 2)
        assert not np.array_equal(a.Y, b.Y)
        c = generate_dataset(config, 1)
        assert np.array_equal(a.Y, c.Y)
        assert np.array_equal(a.S1, c.S1)

    def test_fields_mutually_independent_streams(self):
        # Same seed, different fields: distinct draws (not aliased streams).
        ds = generate_dataset(base_config(), 9)
        assert not np.array_equal(ds.S1, ds.S2)
        assert not np.array_equal(ds.E / ds.config.e_sd, ds.U / ds.config.u_sd)

    def test_spatial_c_supported(self):
        config = base_config(spec_C=SpectralSpec(1, 3, 0.0, 1.5))
        ds = generate_dataset(config, 13)
        assert ds.C.var() == pytest.approx(1.5, rel=1e-9)


class TestExposureSpatialFraction:
    def test_fully_spatial_exposure(self):
        config = base_config(nu_sd=0.0, e_sd=0.0)
        ds = generate_dataset(config, 1)
        assert exposure_spatial_fraction(ds) == pytest.approx(1.0, abs=1e-12)

    def test_pure_noise_exposure(self):
        config = base_config(loadings=(0.0, 0.0, 0.0), nu_sd=1.0)
        ds = generate_dataset(config, 2)
        assert exposure_spatial_fraction(ds) == pytest.approx(0.0, abs=1e-12)

    def test_half_spatial(self):
        config = base_config(
            loadings=(1.0, 0.0, 0.0), nu_sd=1.0, e_sd=0.0, u_sd=0.0, m=64,
            spec_S1=SpectralSpec(1, 2, 0.0, 1.0),
        )
        ds = generate_dataset(config, 3)
        assert exposure_spatial_fraction(ds) == pytest.approx(0.5, abs=0.05)

    def test_degenerate_exposure(self):
        config = base_config(loadings=(0.0, 0.0, 0.0), nu_sd=0.0)
        ds = generate_dataset(config, 4)
        with pytest.raises(DegenerateExposureError):
            exposure_spatial_fraction(ds)


class TestConfigValidation:
    def test_wrong_beta_length(self):
        with pytest.raises(ValueError):
            base_config(beta=(1.0, 2.0))

    def test_negative_sd(self):
        with pytest.raises(ValueError):
            base_config(nu_sd=-0.1)

    def test_nonfinite_beta(self):
        with pytest.raises(ValueError):
            base_config(beta=(0, np.inf, 0, 0, 0, 0))


class TestInterchange:
    def test_csv_round_trip_observed(self, tmp_path):
        config = base_config(m=8, spec_S1=SpectralSpec(1, 2, 0.0, 1.0),
                     spec_S2=SpectralSpec(3, 4, 0.0, 1.0))
        ds = generate_dataset(config, 21)
        path = tmp_path / "data.csv"
        dataset_to_csv(ds, path)
        obs = read_observations_csv(path)
        assert obs.grid.m == 8
        assert obs.Z == pytest.approx(ds.Z, abs=0.0)
        assert obs.C == pytest.approx(ds.C, abs=0.0)
        assert obs.Y == pytest.approx(ds.Y, abs=0.0)

    def test_csv_latent_columns_behind_flag(self, tmp_path):
        small = base_config(m=4, spec_S1=SpectralSpec(1, 1, 0.0, 1.0),
                    spec_S2=SpectralSpec(2, 2, 0.0, 1.0))
        ds = generate_dataset(small, 22)
        bare = tmp_path / "bare.csv"
        full = tmp_path / "full.csv"
        dataset_to_csv(ds, bare)
        dataset_to_csv(ds, full, latent=True)
        assert bare.read_text().splitlines()[0] == "x,y,Z,C,Y"
        assert full.read_text().splitlines()[0] == "x,y,Z,C,Y,S1,S2,E,U,nu,eps"

    def test_csv_byte_identical_rewrites(self, tmp_path):
        small = base_config(m=8, spec_S2=SpectralSpec(3, 4, 0.0, 1.0))
        ds = generate_dataset(small, 23)
        p1 = tmp_path / "a.csv"
        p2 = tmp_path / "b.csv"
        dataset_to_csv(ds, p1)
        dataset_to_csv(generate_dataset(small, 23), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_csv_missing_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y,Z,C\n0.25,0.25,1,2\n")
        with pytest.raises(ValueError, match="Y"):
            read_observations_csv(path)

    def test_csv_not_a_grid(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = ["x,y,Z,C,Y"] + [f"{i / 5},{i / 5},1,2,3" for i in range(4)]
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match="grid"):
            read_observations_csv(path)

    def test_config_json_round_trip(self, tmp_path):
        config = base_config(spec_C=SpectralSpec(1, 3, 0.5, 2.0))
        path = tmp_path / "config.json"
        save_config(config, path)
        loaded = load_config(path)
        assert loaded == config
        assert config_hash(loaded) == config_hash(config)

    def test_config_dict_round_trip_iid_c(self):
        config = base_config()
        assert config_from_dict(config_to_dict(config)) == config

    def test_missing_field_named(self):
        doc = config_to_dict(base_config())
        del doc["beta"]
        with pytest.raises(ConfigError, match="beta"):
            config_from_dict(doc)

    def test_unknown_field_named(self):
        doc = config_to_dict(base_config())
        doc["betta"] = [0, 0, 0, 0, 0, 0]
        with pytest.raises(ConfigError, match="betta"):
            config_from_dict(doc)

    def test_bad_spec_kind(self):
        doc = config_to_dict(base_config())
        doc["spec_C"] = {"kind": "mystery"}
        with pytest.raises(ConfigError, match="spec_C"):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "field,entry,value",
        [
            ("m", None, 32.7),
            ("m", None, "32"),
            ("m", None, True),
            ("spec_S1", "k_max", 1.9),
            ("spec_S1", "k_max", "2"),
            ("spec_S1", "k_max", True),
            ("beta", None, "012345"),
            ("beta", None, ["0.5", 2.0, 1.0, 1.0, 0.8, 0.3]),
            ("beta", None, [0.5, 2.0, True, 1.0, 0.8, 0.3]),
            ("loadings", None, "123"),
            ("sigma", None, "0.4"),
            ("u_sd", None, True),
            ("spec_S1", "variance", "2"),
            ("spec_S1", "decay", True),
            ("spec_C", "sd", "1"),
        ],
    )
    def test_no_silent_coercion(self, field, entry, value):
        # Coerced, each value would load as a different config (32.7 as 32,
        # "012345" as six betas) or hide a typo ("0.4" for 0.4, true for 1):
        # the loader refuses it and names the field.
        doc = config_to_dict(base_config())
        if entry is None:
            doc[field] = value
        else:
            doc[field][entry] = value
        names = rf"\b{field}\b" if entry is None else rf"'{field}'.*\b{entry}\b"
        with pytest.raises(ConfigError, match=names):
            config_from_dict(doc)

    @pytest.mark.parametrize(
        "config,digest",
        [
            (
                scenario_config("strong-exposure-weak-outcome"),
                "4c1e5fad7be50df2d24ed09807bbac9f5f5151c63b59bfd1511b36335d3a5108",
            ),
            (
                ScenarioConfig(
                    beta=(0, 2, 1, 1, 1, 0), loadings=(1, 1, 0.5), nu_sd=1, sigma=0.5,
                    spec_S1=SpectralSpec(1, 2, 0.3, 1.5), spec_S2=SpectralSpec(3, 5),
                    spec_C=SpectralSpec(1, 3, 0.5, 2.0), e_sd=0.7, u_sd=0.2, m=16,
                ),
                "e0b3ab22ea65557dac7f4947f540c1cef20006b94ee07893a305a92f8668374e",
            ),
        ],
        ids=["strong-exposure", "all-spectral-m16"],
    )
    def test_hash_pinned(self, config, digest):
        # Provenance records name configs by this hash: the document it is
        # taken over must not drift.
        assert config_hash(config) == digest

    def test_hash_stable_and_sensitive(self):
        a = base_config()
        b = base_config(sigma=0.41)
        assert config_hash(a) == config_hash(base_config())
        assert config_hash(a) != config_hash(b)
