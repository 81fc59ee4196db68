"""The six estimators: identities, exact-recovery cases, degeneracies."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from spatialconfound import (
    CollinearityError,
    DegenerateResidualError,
    EstimateRecord,
    EstimatorKind,
    IidSpec,
    Observations,
    ScenarioConfig,
    SpectralSpec,
    fit_estimator,
    fit_gsem,
    fit_nonspatial,
    fit_rsr,
    fit_spatial,
    fit_spatial_plus,
    fit_spatial_plus_lowfreq,
    fourier_basis,
    generate_dataset,
    make_grid,
    empty_basis,
    scenario_config,
    select_lambda_gcv,
)
from spatialconfound.estimators import OUTCOME_NAMES
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE, SCENARIO_STRONG_OUTCOME
from spatialconfound.pls import basis_moments, select_moments

from support import (
    fourier_columns,
    random_config,
    reference_gsem,
    reference_spatial_plus,
    reference_spatial_plus_lowfreq,
    residuals,
)


def scenario(**overrides):
    defaults = dict(
        beta=(0.2, 2.0, 1.0, 1.0, 0.8, 0.0),
        loadings=(1.0, 0.8, 0.5),
        nu_sd=1.0,
        sigma=0.3,
        spec_S1=SpectralSpec(1, 2, 0.0, 1.0),
        spec_S2=SpectralSpec(3, 5, 0.0, 1.0),
        spec_C=IidSpec(1.0),
        e_sd=0.5,
        u_sd=0.3,
        m=16,
    )
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


def noiseless_scenario(**overrides):
    """Exact-adjustment regime: no E, no U, no outcome noise."""
    merged = dict(e_sd=0.0, u_sd=0.0, sigma=0.0)
    merged.update(overrides)
    return scenario(**merged)


def test_record_derives_its_interval():
    rec = EstimateRecord(
        EstimatorKind.SPATIAL_PLUS, np.float64(2.5), np.float64(0.5),
        lambdas={}, edf={}, aic=np.float64(-3.0), diagnostics={},
    )
    assert rec.ci95 == (2.5 - 1.96 * 0.5, 2.5 + 1.96 * 0.5)
    assert all(type(v) is float for v in (rec.beta1_hat, rec.se, rec.aic, *rec.ci95))
    moved = replace(rec, kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ)
    assert moved.ci95 == rec.ci95 and moved.kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ
    assert replace(rec, se=1.0).ci95 == (2.5 - 1.96, 2.5 + 1.96)
    with pytest.raises(TypeError):
        EstimateRecord(
            EstimatorKind.SPATIAL, 2.5, 0.5, ci95=(0.0, 1.0),
            lambdas={}, edf={}, aic=0.0, diagnostics={},
        )


@pytest.fixture(scope="module")
def obs_and_basis():
    ds = generate_dataset(scenario(), 42)
    b = fourier_basis(ds.grid, 5)
    return ds.observations(), b


@pytest.mark.parametrize("kind", list(EstimatorKind))
@pytest.mark.parametrize("column", ["Z", "C", "Y"])
@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_observation_rejected(obs_and_basis, kind, column, bad):
    obs, b = obs_and_basis
    values = np.array(getattr(obs, column))
    values[7] = bad
    with pytest.raises(ValueError, match=f"^{column} has non-finite values"):
        fit_estimator(kind, replace(obs, **{column: values}), b, cutoff=2)


class TestNonSpatial:
    def test_exact_linear_outcome(self):
        grid = make_grid(8)
        rng = np.random.default_rng(0)
        z = rng.normal(size=grid.n)
        c = rng.normal(size=grid.n)
        obs = Observations(Z=z, C=c, Y=3.0 * z, grid=grid)
        rec = fit_nonspatial(obs.moments())
        assert rec.beta1_hat == pytest.approx(3.0, abs=1e-10)

    def test_no_confounding_noiseless_recovery(self):
        config = scenario(beta=(0.2, 2.0, 1.0, 0.0, 0.0, 0.0), sigma=0.0)
        ds = generate_dataset(config, 1)
        rec = fit_nonspatial(ds.observations().moments())
        assert rec.beta1_hat == pytest.approx(2.0, abs=1e-10)
        assert rec.ci95 == pytest.approx(
            (rec.beta1_hat - 1.96 * rec.se, rec.beta1_hat + 1.96 * rec.se)
        )

    def test_constant_exposure_collinear(self):
        # With or without a basis, the fixed design (1, Z, C) is collinear.
        grid = make_grid(8)
        rng = np.random.default_rng(2)
        obs = Observations(
            Z=np.ones(grid.n), C=rng.normal(size=grid.n),
            Y=rng.normal(size=grid.n), grid=grid,
        )
        for b in (None, fourier_basis(grid, 3)):
            with pytest.raises(CollinearityError) as err:
                fit_nonspatial(obs.moments(b))
            assert err.value.columns == ("intercept", "Z")
            assert str(err.value).startswith("fixed design is numerically collinear")


class TestRSR:
    @pytest.mark.parametrize("seed", range(5))
    def test_point_estimate_equals_ols(self, seed):
        rng = np.random.default_rng(seed)
        # iid C: a spatial C inside the basis span makes the projected
        # basis genuinely rank deficient, which is an error by contract.
        config = random_config(rng, m=16, allow_spatial_c=False)
        config = replace(config, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        ds = generate_dataset(config, seed)
        b = fourier_basis(ds.grid, int(rng.integers(2, 6)))
        obs = ds.observations()
        ols = fit_nonspatial(obs.moments())
        rsr = fit_rsr(obs.moments(b))
        assert abs(rsr.beta1_hat - ols.beta1_hat) < 1e-10 * (1 + abs(ols.beta1_hat))

    def test_zero_basis_identical_to_ols(self, obs_and_basis):
        obs, _ = obs_and_basis
        ols = fit_nonspatial(obs.moments())
        rsr = fit_rsr(obs.moments(empty_basis(obs.grid)))
        assert rsr.beta1_hat == ols.beta1_hat
        assert rsr.se == ols.se
        assert rsr.aic == ols.aic
        assert rsr.edf == ols.edf

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_projected_design(self, seed):
        # RSR as defined: OLS on [F, B_perp], B_perp the basis residualized
        # on F = (1, Z, C), built and solved densely here.
        ds = generate_dataset(scenario(), seed)
        obs = ds.observations()
        b = fourier_basis(ds.grid, 5)
        F = np.column_stack([np.ones(obs.grid.n), obs.Z, obs.C])
        columns = fourier_columns(b)
        b_perp = columns - F @ np.linalg.lstsq(F, columns, rcond=None)[0]
        X = np.column_stack([F, b_perp])
        coef, _, rank, _ = np.linalg.lstsq(X, obs.Y, rcond=None)
        resid = obs.Y - X @ coef
        rss = float(resid @ resid)
        n, edf = obs.grid.n, X.shape[1]
        assert rank == edf
        se = math.sqrt(rss / (n - edf) * np.linalg.inv(X.T @ X)[1, 1])
        aic = n * math.log(rss / n) + 2 * edf
        rec = fit_rsr(obs.moments(b))
        assert rec.beta1_hat == pytest.approx(float(coef[1]), rel=1e-10)
        assert rec.se == pytest.approx(se, rel=1e-10)
        assert rec.aic == pytest.approx(aic, rel=1e-10)
        assert rec.edf["outcome"] == pytest.approx(edf, rel=1e-10)


class TestSpatial:
    def test_noiseless_exact_adjustment(self):
        ds = generate_dataset(noiseless_scenario(), 3)
        b = fourier_basis(ds.grid, 5)  # spans both bands
        rec = fit_spatial(ds.observations().moments(b), smoothing=0.0)
        assert rec.beta1_hat == pytest.approx(2.0, abs=1e-6)

    def test_fully_spatial_exposure_collinear(self):
        ds = generate_dataset(noiseless_scenario(nu_sd=0.0, sigma=0.3), 4)
        b = fourier_basis(ds.grid, 5)
        with pytest.raises(CollinearityError) as err:
            fit_spatial(ds.observations().moments(b), smoothing=0.0)
        assert "collinear" in str(err.value)

    def test_infinite_smoothing_equals_nonspatial(self, obs_and_basis):
        obs, b = obs_and_basis
        spatial = fit_spatial(obs.moments(b), smoothing=math.inf)
        ols = fit_nonspatial(obs.moments())
        assert spatial.beta1_hat == pytest.approx(ols.beta1_hat, rel=1e-10)
        assert spatial.se == pytest.approx(ols.se, rel=1e-10)

    def test_gcv_smoothing_records_lambda_and_edf(self, obs_and_basis):
        obs, b = obs_and_basis
        rec = fit_spatial(obs.moments(b))
        assert "outcome" in rec.lambdas and rec.lambdas["outcome"] >= 0
        assert 3.0 <= rec.edf["outcome"] <= 3.0 + b.p


class TestSpatialPlus:
    def test_noiseless_exact_adjustment(self):
        ds = generate_dataset(noiseless_scenario(), 5)
        b = fourier_basis(ds.grid, 5)
        rec = fit_spatial_plus(ds.observations().moments(b), smoothing=0.0)
        assert rec.beta1_hat == pytest.approx(2.0, abs=1e-6)

    def test_pure_noise_exposure_residual_tracks_exposure(self):
        config = scenario(loadings=(0.0, 0.0, 0.0), nu_sd=1.0, m=64,
                          spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        ds = generate_dataset(config, 6)
        b = fourier_basis(ds.grid, 5)
        rec = fit_spatial_plus(ds.observations().moments(b))  # GCV stages
        share = rec.diagnostics["exposure_residual_share"]
        # corr(r_Z, Z)^2 >= var(r_Z)/var(Z) only after heavy shrinkage; check
        # the correlation directly through a refit of stage 1.
        F1 = np.column_stack([np.ones(ds.grid.n), ds.C])
        stage1 = select_lambda_gcv(ds.Z, F1, b)
        corr = np.corrcoef(residuals(ds.Z, F1, b, stage1), ds.Z)[0, 1]
        assert corr > 0.99
        assert share > 0.95

    def test_fully_spatial_exposure_degenerate_residual(self):
        ds = generate_dataset(noiseless_scenario(nu_sd=0.0, sigma=0.3), 8)
        b = fourier_basis(ds.grid, 5)
        with pytest.raises(DegenerateResidualError):
            fit_spatial_plus(ds.observations().moments(b), smoothing=0.0)
        # GCV smoothing finds the interpolating fit and degenerates too.
        with pytest.raises(DegenerateResidualError):
            fit_spatial_plus(ds.observations().moments(b))

    def test_records_both_stages(self, obs_and_basis):
        obs, b = obs_and_basis
        rec = fit_spatial_plus(obs.moments(b))
        assert set(rec.lambdas) == {"exposure", "outcome"}
        assert set(rec.edf) == {"exposure", "outcome"}
        assert 0 < rec.diagnostics["exposure_residual_share"] <= 1


class TestGSEM:
    def test_noiseless_exact_adjustment(self):
        ds = generate_dataset(noiseless_scenario(), 9)
        b = fourier_basis(ds.grid, 5)
        rec = fit_gsem(ds.observations().moments(b), smoothing=0.0)
        assert rec.beta1_hat == pytest.approx(2.0, abs=1e-6)

    @pytest.mark.parametrize("seed", range(3))
    def test_lambda_zero_equals_spatial(self, seed):
        ds = generate_dataset(scenario(), 100 + seed)
        b = fourier_basis(ds.grid, 4)
        obs = ds.observations()
        gsem = fit_gsem(obs.moments(b), smoothing=0.0)
        spatial = fit_spatial(obs.moments(b), smoothing=0.0)
        assert gsem.beta1_hat == pytest.approx(spatial.beta1_hat, rel=1e-8)

    @pytest.mark.parametrize("smoothing", [0.0, None], ids=["lam0", "gcv"])
    def test_spatial_covariate_in_span_names_its_residual(self, smoothing):
        # A band-limited C lies in the basis span, so its spatial residual is
        # numerically zero and the final stage reports that residual column.
        ds = generate_dataset(scenario(spec_C=SpectralSpec(1, 3), m=32), 1)
        b = fourier_basis(ds.grid, 10)
        with pytest.raises(CollinearityError) as err:
            fit_gsem(ds.observations().moments(b), smoothing=smoothing)
        assert err.value.columns == ("r_C",)

    @pytest.mark.parametrize("smoothing", [None, 0.0, 3.7], ids=["gcv", "lam0", "lam3.7"])
    def test_final_ols_has_three_edf(self, obs_and_basis, smoothing):
        # The last stage is the lambda = +inf row: the basis adds no edf.
        obs, b = obs_and_basis
        assert fit_gsem(obs.moments(b), smoothing=smoothing).edf["final_ols"] == 3.0

    def test_zero_basis_equals_nonspatial(self, obs_and_basis):
        obs, _ = obs_and_basis
        gsem = fit_gsem(obs.moments(empty_basis(obs.grid)), smoothing=0.0)
        ols = fit_nonspatial(obs.moments())
        assert gsem.beta1_hat == pytest.approx(ols.beta1_hat, rel=1e-10)
        assert gsem.se == pytest.approx(ols.se, rel=1e-10)


class TestSpatialPlusLowFreq:
    def test_full_cutoff_equals_spatial_plus_unpenalized(self, obs_and_basis):
        obs, b = obs_and_basis
        low = fit_spatial_plus_lowfreq(obs.moments(b), cutoff=b.max_freq)
        ref = fit_spatial_plus(obs.moments(b), smoothing=0.0)
        assert low.beta1_hat == pytest.approx(ref.beta1_hat, rel=1e-10)
        assert low.se == pytest.approx(ref.se, rel=1e-10)
        assert low.diagnostics["cutoff"] == b.max_freq

    def test_cutoff_keeps_only_low_labels(self, obs_and_basis):
        obs, b = obs_and_basis
        rec = fit_spatial_plus_lowfreq(obs.moments(b), cutoff=2)
        # The restricted stage-1 EDF can't exceed fixed block + retained p.
        retained = int((b.freq <= 2).sum())
        assert rec.edf["exposure"] <= 2 + retained + 1e-9
        assert rec.lambdas == {"exposure": 0.0, "outcome": 0.0}

    def test_degenerate_when_exposure_fully_spatial(self):
        ds = generate_dataset(noiseless_scenario(nu_sd=0.0, sigma=0.3), 10)
        b = fourier_basis(ds.grid, 5)
        with pytest.raises(DegenerateResidualError):
            fit_spatial_plus_lowfreq(ds.observations().moments(b), cutoff=5)

    @pytest.mark.parametrize("seed", range(3))
    def test_cutoff_row_is_the_fit_on_the_basis_at_the_cutoff(self, seed):
        # Weight +inf on the labels above c, 0 below, against the fit on
        # fourier_basis(grid, c): Spatial at lambda = 0 and Spatial+.
        obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 300 + seed).observations()
        b = fourier_basis(obs.grid, 10)
        for c in range(1, b.max_freq + 1):
            r = fourier_basis(obs.grid, c)
            got = select_moments(obs.moments(b), 0.0, OUTCOME_NAMES, cutoff=c)
            want = fit_spatial(obs.moments(r), smoothing=0.0)
            assert got.fixed_coefs[1] == pytest.approx(want.beta1_hat, rel=1e-12, abs=0)
            assert math.sqrt(got.cov_fixed[1, 1]) == pytest.approx(want.se, rel=1e-12, abs=0)
            assert (got.edf, got.aic) == pytest.approx((want.edf["outcome"], want.aic), rel=1e-12)
            low = fit_spatial_plus_lowfreq(obs.moments(b), c).to_dict()
            plus = fit_spatial_plus(obs.moments(r), smoothing=0.0).to_dict()
            assert low.pop("diagnostics").pop("cutoff") == c
            assert low["lambdas"] == plus["lambdas"] and low["edf"] == plus["edf"]
            for key in ("beta1_hat", "se", "aic"):
                assert low[key] == pytest.approx(plus[key], rel=1e-12, abs=0), key

    @pytest.mark.parametrize("include_c", [True, False])
    def test_collinear_cutoff_names_only_kept_columns(self, include_c):
        # C in the span of labels <= 2: the cutoff-2 joint design is
        # collinear, and its error names C and the kept columns only.
        obs = generate_dataset(scenario(), 5).observations()
        b = fourier_basis(obs.grid, 7)
        C = fourier_basis(obs.grid, 2).synthesize(np.random.default_rng(5).normal(size=24))
        obs = Observations(Z=obs.Z, C=C, Y=obs.Y, grid=obs.grid)
        with pytest.raises(CollinearityError) as err:
            fit_spatial_plus_lowfreq(obs.moments(b), 2, include_c_in_stage1=include_c)
        columns = (
            "C", "cos(k=(0,1))", "sin(k=(0,1))", "sin(k=(1,-1))", "cos(k=(1,0))",
            "cos(k=(1,1))", "sin(k=(1,1))", "cos(k=(0,2))",
        )
        assert err.value.columns == columns
        named = re.escape("implicated columns: " + ", ".join(columns))
        rcond = r"joint design at lambda=0 is numerically collinear \(rcond [0-9.e+-]+\); "
        assert re.fullmatch(rcond + named, str(err.value))

    def test_cutoff_below_s1_band_drifts_to_unconditional(self):
        # With the cutoff below every S1 frequency nothing spatial gets
        # adjusted, and the estimator drifts toward the unconditional
        # target rather than the spatially-conditional one.
        from spatialconfound import compute_estimands

        config = scenario(
            spec_S1=SpectralSpec(3, 4, 0.0, 1.0),
            spec_S2=SpectralSpec(6, 7, 0.0, 1.0),
            m=16,
        )
        targets = compute_estimands(config)
        assert abs(targets.beta_uncond - targets.beta_cond_achieved) > 0.05
        b = fourier_basis(make_grid(16), 7)
        values = []
        for rep in range(40):
            ds = generate_dataset(config, 7000 + rep)
            values.append(
                fit_spatial_plus_lowfreq(ds.observations().moments(b), cutoff=2).beta1_hat
            )
        mean = float(np.mean(values))
        assert abs(mean - targets.beta_uncond) < abs(mean - targets.beta_cond_achieved)


class TestUnpenalizedEquivalence:
    """Spatial, Spatial+, gSEM agree at lambda = 0 (full-span adjustment)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_three_way_agreement(self, seed):
        rng = np.random.default_rng(200 + seed)
        config = random_config(rng, m=16, allow_spatial_c=False)
        config = replace(config, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        ds = generate_dataset(config, 300 + seed)
        b = fourier_basis(ds.grid, 5)
        obs = ds.observations()
        spatial = fit_spatial(obs.moments(b), smoothing=0.0)
        plus = fit_spatial_plus(obs.moments(b), smoothing=0.0)
        gsem = fit_gsem(obs.moments(b), smoothing=0.0)
        scale = abs(spatial.beta1_hat)
        assert abs(plus.beta1_hat - spatial.beta1_hat) < 1e-8 * max(1.0, scale)
        assert abs(gsem.beta1_hat - spatial.beta1_hat) < 1e-8 * max(1.0, scale)


def _outcome(fit):
    """The fit's numbers, or the type and columns of its degeneracy error."""
    try:
        return fit()
    except (CollinearityError, DegenerateResidualError) as err:
        return type(err), getattr(err, "columns", None)


def _as_reference(rec):
    return {"beta": rec.beta1_hat, "se": rec.se, "edf": rec.edf, "lambdas": rec.lambdas}


TWO_STAGE = {
    "spatial-plus": (fit_spatial_plus, reference_spatial_plus),
    "gsem": (fit_gsem, reference_gsem),
    "spatial-plus-lowfreq": (
        lambda m, smoothing: fit_spatial_plus_lowfreq(m, 2, smoothing),
        lambda obs, b, smoothing: reference_spatial_plus_lowfreq(obs, b, 2, smoothing),
    ),
}


def _observations(case, b, seed):
    """Simulated data, or data whose exposure or covariate lies in span(1, C, B)."""
    obs = generate_dataset(scenario(m=12), seed).observations()
    if case == "simulated":
        return obs
    rng = np.random.default_rng(seed)
    spatial = b.synthesize(rng.normal(size=b.p))
    if case == "fully-spatial-exposure":
        return Observations(Z=spatial + 0.5 * obs.C + 1.0, C=obs.C, Y=obs.Y, grid=obs.grid)
    return Observations(Z=obs.Z, C=spatial, Y=obs.Y, grid=obs.grid)  # C in the span


def _basis(kind, grid):
    if kind == "spectral":
        return fourier_basis(grid, 4)
    if kind == "highest-freq":
        return fourier_basis(grid, (grid.m - 1) // 2)
    return fourier_basis(grid, 2)


BASES = ["spectral", "highest-freq", "lowfreq-cutoff"]

# (m, value): var(Z) of a constant is round-off of either sign, exactly zero
# for some constants and not for others.
CONSTANT_EXPOSURES = [
    (12, 0.0), (12, 1.0), (12, 1.3), (12, 1000.0), (12, -7.1), (12, 0.1), (32, 1.3)
]
DEGENERATE_CASES = [
    pytest.param("fully-spatial-exposure", id="fully-spatial-exposure"),
    pytest.param("covariate-in-span", id="covariate-in-span"),
    *(pytest.param(c, id=f"constant-{c[1]:g}-m{c[0]}") for c in CONSTANT_EXPOSURES),
]


def _constant_exposure(m, value):
    """Observations whose exposure is ``value`` everywhere, with random C and Y."""
    grid = make_grid(m)
    C, Y = np.random.default_rng(m).normal(size=(2, grid.n))
    return Observations(Z=np.full(grid.n, value), C=C, Y=Y, grid=grid)


class TestGeneralBases:
    """The estimators' fits from moments against stages fitted on n-row
    residuals (``support``), formed with the basis's dense columns: on the
    Fourier basis, on the one up to the highest label the grid allows, and
    on the one whose largest label is the Spatial+-lowfreq cutoff, so that
    restricting it drops no column."""

    @pytest.mark.parametrize("smoothing", [None, 0.0, 3.7], ids=["gcv", "lam0", "lam3.7"])
    @pytest.mark.parametrize("kind", list(TWO_STAGE))
    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("seed", range(2))
    def test_matches_n_row_reference(self, basis, kind, smoothing, seed):
        b = _basis(basis, make_grid(12))
        obs = _observations("simulated", b, seed)
        fit, reference = TWO_STAGE[kind]
        got = _as_reference(fit(obs.moments(b), smoothing=smoothing))
        want = reference(obs, b, smoothing=smoothing)
        assert got["lambdas"] == want["lambdas"]
        assert got["edf"].keys() == want["edf"].keys()
        for stage, edf in want["edf"].items():
            assert got["edf"][stage] == pytest.approx(edf, rel=1e-12, abs=0)
        assert got["beta"] == pytest.approx(want["beta"], rel=1e-12, abs=0)
        assert got["se"] == pytest.approx(want["se"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("smoothing", [None, 0.0, 3.7], ids=["gcv", "lam0", "lam3.7"])
    @pytest.mark.parametrize("kind", list(TWO_STAGE))
    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("case", DEGENERATE_CASES)
    def test_degenerate_data_same_error(self, case, basis, kind, smoothing):
        constant = isinstance(case, tuple)
        b = _basis(basis, make_grid(case[0] if constant else 12))
        obs = _constant_exposure(*case) if constant else _observations(case, b, 0)
        fit, reference = TWO_STAGE[kind]
        got = _outcome(lambda: _as_reference(fit(obs.moments(b), smoothing=smoothing)))
        want = _outcome(lambda: reference(obs, b, smoothing=smoothing))
        if isinstance(want, tuple):
            assert got == want
        else:
            assert got["lambdas"] == want["lambdas"]
            assert got["beta"] == pytest.approx(want["beta"], rel=1e-9)

    @pytest.mark.parametrize("smoothing", [None, 0.0, 3.7], ids=["gcv", "lam0", "lam3.7"])
    @pytest.mark.parametrize("kind", list(TWO_STAGE))
    @pytest.mark.parametrize("basis", BASES)
    @pytest.mark.parametrize("m, value", CONSTANT_EXPOSURES)
    def test_constant_exposure_degenerate_residual(self, m, value, basis, kind, smoothing):
        obs = _constant_exposure(m, value)
        b = _basis(basis, obs.grid)
        with pytest.raises(DegenerateResidualError):
            TWO_STAGE[kind][0](obs.moments(b), smoothing=smoothing)


def _from_moments(kind, X, b, smoothing):
    """The ``kind`` fit of the moments of X = [1, Z, C, Y] alone."""
    m = basis_moments(X, b)
    if kind is EstimatorKind.NONSPATIAL_OLS:
        return fit_nonspatial(m)
    if kind is EstimatorKind.RSR:
        return fit_rsr(m)
    if kind is EstimatorKind.SPATIAL:
        return fit_spatial(m, smoothing)
    if kind is EstimatorKind.SPATIAL_PLUS:
        return fit_spatial_plus(m, smoothing)
    if kind is EstimatorKind.GSEM:
        return fit_gsem(m, smoothing)
    return fit_spatial_plus_lowfreq(m, 2, smoothing)


class TestFitFromMoments:
    """Every estimator is a function of the moments on its basis: fitted from
    ``basis_moments`` of the arrays, with no ``Observations``, it is the fit
    ``fit_estimator`` makes of the observations."""

    @pytest.mark.parametrize("smoothing", [None, 0.0, 3.7, [0.0, 1.0, 10.0]],
                             ids=["gcv", "lam0", "lam3.7", "grid"])
    @pytest.mark.parametrize("kind", list(EstimatorKind))
    @pytest.mark.parametrize("which", [SCENARIO_STRONG_EXPOSURE, SCENARIO_STRONG_OUTCOME])
    def test_matches_fit_estimator(self, which, kind, smoothing):
        ds = generate_dataset(scenario_config(which), 11)
        b = fourier_basis(ds.grid, 10)
        X = np.column_stack([np.ones(ds.grid.n), ds.Z, ds.C, ds.Y])
        got = _from_moments(kind, X, b, smoothing).to_dict()
        want = fit_estimator(kind, ds.observations(), b, smoothing, cutoff=2).to_dict()
        share = [rec["diagnostics"].pop("exposure_residual_share", math.nan) for rec in (got, want)]
        assert got == want
        assert share[0] == pytest.approx(share[1], rel=1e-12, abs=0, nan_ok=True)

    @pytest.mark.parametrize("max_freq", [1, 5, 7])
    def test_nonspatial_on_a_basis_is_the_empty_basis_ols(self, max_freq):
        # The basis pinned to zero (lambda = +inf) leaves OLS on (1, Z, C).
        ds = generate_dataset(scenario(), 3)
        X = np.column_stack([np.ones(ds.grid.n), ds.Z, ds.C, ds.Y])
        got = fit_nonspatial(basis_moments(X, fourier_basis(ds.grid, max_freq)))
        want = fit_nonspatial(basis_moments(X, empty_basis(ds.grid)))
        assert got.edf == want.edf == {"outcome": 3.0} and got.lambdas == {}
        for key in ("beta1_hat", "se", "aic"):
            assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=0), key
        got_cond, want_cond = got.diagnostics["fixed_cond"], want.diagnostics["fixed_cond"]
        assert got_cond == pytest.approx(want_cond, rel=1e-12, abs=0)


def test_a_replication_builds_no_grid_coordinates():
    obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 1).observations()
    rec = fit_estimator(EstimatorKind.SPATIAL_PLUS, obs, fourier_basis(obs.grid, 10))
    assert np.isfinite(rec.beta1_hat)
    assert "coords" not in vars(obs.grid)


class TestLargeGrid:
    def test_spatial_plus_at_m256_builds_no_dense_basis(self):
        # n = 65536, p = 440: the n x p basis alone would take 220 MiB.
        config = random_config(np.random.default_rng(256), m=256)
        obs = generate_dataset(config, 256).observations()
        b = fourier_basis(obs.grid, 10)
        rec = fit_spatial_plus(obs.moments(b))
        assert np.isfinite(rec.beta1_hat) and rec.se > 0
