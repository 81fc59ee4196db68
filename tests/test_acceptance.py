"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s``.  Every tolerance is
pinned here; seeds are frozen so the whole suite is deterministic.  The
heavyweight Monte Carlo experiments (criteria 3, 6, 7) dominate the
runtime, which stays inside each criterion's stated budget on one core.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from spatialconfound import (
    CollinearityError,
    DegenerateResidualError,
    EstimandUndefinedError,
    EstimatorKind,
    EstimatorSpec,
    MCPlan,
    SpectralSpec,
    aic_bias_experiment,
    compute_estimands,
    default_aic_plan,
    default_scenario_plan,
    derive_seed,
    field_dft_energy,
    fit_nonspatial,
    fit_pls,
    fit_rsr,
    fit_spatial,
    fit_spatial_plus,
    fit_spatial_plus_lowfreq,
    fourier_basis,
    generate_dataset,
    make_grid,
    run_mc,
    sample_grf,
    sample_iid,
    scenario_experiment,
    select_lambda_gcv,
)
from spatialconfound.mc import (
    SCENARIO_STRONG_EXPOSURE,
    SCENARIO_STRONG_OUTCOME,
    scenario_config,
)

from support import fourier_columns, ols_coef_and_se, random_config


def verdict(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


# -------------------------------------------------------------------------
# 1. RSR point estimate coincides with non-spatial OLS
# -------------------------------------------------------------------------


def test_criterion_1_rsr_equals_ols():
    t0 = time.perf_counter()
    worst = 0.0
    rng_master = np.random.default_rng(1001)
    for i in range(50):
        rng = np.random.default_rng(1100 + i)
        m = int(rng.integers(8, 20))
        config = random_config(
            rng, m=m, allow_spatial_c=False, spec_S2=SpectralSpec(3, min(4, m // 2), 0.0, 1.0)
        )
        ds = generate_dataset(config, int(rng_master.integers(0, 2**31)))
        max_freq = int(rng.integers(1, (m - 1) // 2 + 1))
        while 4 * max_freq * (max_freq + 1) > m * m - 13:
            max_freq -= 1  # keep the joint RSR design comfortably overdetermined
        b = fourier_basis(ds.grid, max_freq)
        obs = ds.observations()
        ols = fit_nonspatial(obs)
        rsr = fit_rsr(obs, b)
        gap = abs(rsr.beta1_hat - ols.beta1_hat) / (1 + abs(ols.beta1_hat))
        worst = max(worst, gap)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 1 (RSR == OLS)",
        worst < 1e-10 and elapsed < 60,
        f"worst normalized gap {worst:.2e} over 50 datasets/bases in {elapsed:.1f}s",
    )


# -------------------------------------------------------------------------
# 2. Spatial, Spatial+, gSEM agree at lambda = 0
# -------------------------------------------------------------------------


def test_criterion_2_unpenalized_equivalence():
    from spatialconfound import fit_gsem

    worst = 0.0
    for i in range(20):
        rng = np.random.default_rng(2000 + i)
        config = random_config(rng, m=16, allow_spatial_c=False)
        config = replace(config, spec_S2=SpectralSpec(3, 5, 0.0, 1.0))
        ds = generate_dataset(config, 2100 + i)
        b = fourier_basis(ds.grid, 5)
        obs = ds.observations()
        spatial = fit_spatial(obs, b, smoothing=0.0).beta1_hat
        plus = fit_spatial_plus(obs, b, smoothing=0.0).beta1_hat
        gsem = fit_gsem(obs, b, smoothing=0.0).beta1_hat
        scale = max(1.0, abs(spatial))
        worst = max(worst, abs(plus - spatial) / scale, abs(gsem - spatial) / scale)
    verdict(
        "criterion 2 (lambda=0 equivalence)",
        worst < 1e-8,
        f"worst relative disagreement {worst:.2e} over 20 datasets (m=16, max_freq=5)",
    )


# -------------------------------------------------------------------------
# 3. No-smoothing unbiasedness of Spatial+
# -------------------------------------------------------------------------


def test_criterion_3_no_smoothing_unbiasedness():
    t0 = time.perf_counter()
    config = replace(scenario_config(SCENARIO_STRONG_EXPOSURE), e_sd=0.0, u_sd=0.0)
    grid = make_grid(config.m)
    b = fourier_basis(grid, 10)
    r = 500
    values = np.empty(r)
    for rep in range(r):
        ds = generate_dataset(config, derive_seed(20240301, rep))
        values[rep] = fit_spatial_plus(ds.observations(), b, smoothing=0.0).beta1_hat
    bias = values.mean() - config.beta[1]
    mc_se = values.std(ddof=1) / np.sqrt(r)
    elapsed = time.perf_counter() - t0
    verdict(
        "criterion 3 (no-smoothing unbiasedness)",
        abs(bias) < 3 * mc_se and elapsed < 300,
        f"bias {bias:+.2e} vs 3*mc_se {3 * mc_se:.2e} over R={r}, m=32 in {elapsed:.0f}s",
    )


# -------------------------------------------------------------------------
# 4. Achieved-quantity closed form vs latent-column OLS at n = 400^2
# -------------------------------------------------------------------------


def test_criterion_4_achieved_quantity_formula():
    worst_z = 0.0
    for i in range(10):
        rng = np.random.default_rng(3000 + i)
        config = random_config(rng, m=400)
        b1, b4 = config.beta[1], config.beta[4]
        a2 = config.loadings[1]
        closed_form = b1 + b4 * a2 * config.e_sd**2 / (
            a2**2 * config.e_sd**2 + config.nu_sd**2
        )
        oracle = compute_estimands(config).beta_cond_achieved
        assert oracle == pytest.approx(closed_form, rel=1e-10)
        ds = generate_dataset(config, 3100 + i)
        X = np.column_stack([np.ones(ds.grid.n), ds.Z, ds.C, ds.S1, ds.S2])
        coef, se = ols_coef_and_se(X, ds.Y, 1)
        worst_z = max(worst_z, abs(coef - closed_form) / se)
    verdict(
        "criterion 4 (achieved-quantity formula)",
        worst_z < 3.0,
        f"worst |z| {worst_z:.2f} over 10 randomized configs at n=400^2",
    )


# -------------------------------------------------------------------------
# 5. Low-frequency variant targets the (C, S1)-conditional coefficient
# -------------------------------------------------------------------------


def test_criterion_5_lowfreq_variant_targets():
    config = scenario_config(SCENARIO_STRONG_EXPOSURE)  # S1 in [1,2], S2+ in [6,10]+E
    targets = compute_estimands(config)
    grid = make_grid(config.m)
    b = fourier_basis(grid, 10)
    r = 200
    low = np.empty(r)
    full = np.empty(r)
    for rep in range(r):
        ds = generate_dataset(config, derive_seed(424242, rep))
        obs = ds.observations()
        low[rep] = fit_spatial_plus_lowfreq(obs, b, cutoff=2).beta1_hat
        full[rep] = fit_spatial_plus(obs, b, smoothing=0.0).beta1_hat
    z_low = abs(low.mean() - targets.beta_cond_S1) / (low.std(ddof=1) / np.sqrt(r))
    z_full = abs(full.mean() - targets.beta_cond_achieved) / (
        full.std(ddof=1) / np.sqrt(r)
    )
    verdict(
        "criterion 5 (low-frequency variant)",
        z_low < 3.0 and z_full < 3.0,
        f"cutoff=2 vs beta_cond_S1 |z| {z_low:.2f}; full-basis lambda=0 vs "
        f"beta_cond_achieved |z| {z_full:.2f} (R={r}, m=32)",
    )


# -------------------------------------------------------------------------
# 6. The two confounding scenarios
# -------------------------------------------------------------------------


@pytest.fixture(scope="module")
def scenario_results():
    t0 = time.perf_counter()
    results = {}
    for kind in (SCENARIO_STRONG_EXPOSURE, SCENARIO_STRONG_OUTCOME):
        base = default_scenario_plan(kind, r=500, master_seed=20240501)
        results[kind] = scenario_experiment(kind, base)
    results["elapsed"] = time.perf_counter() - t0
    return results


def test_criterion_6_scenario_1(scenario_results):
    v = scenario_results[SCENARIO_STRONG_EXPOSURE].verdict
    combined = math.sqrt(v.mc_se["spatial"] ** 2 + v.mc_se["spatial-plus"] ** 2)
    gap = v.abs_bias["spatial"] - v.abs_bias["spatial-plus"]
    ok = v.abs_bias["spatial-plus"] < v.abs_bias["spatial"] and gap > 2 * combined
    verdict(
        "criterion 6 scenario 1 (Spatial+ beats Spatial)",
        ok,
        f"|bias| spatial+ {v.abs_bias['spatial-plus']:.4f} < spatial "
        f"{v.abs_bias['spatial']:.4f}, gap {gap:.4f} = "
        f"{gap / combined:.1f} combined MC-SEs (R=500)",
    )
    print(
        f"       gSEM report: |bias| {v.abs_bias['gsem']:.4f}; "
        f"not worse than both: {v.gsem_not_worse_than_both}"
    )


def test_criterion_6_scenario_2(scenario_results):
    v = scenario_results[SCENARIO_STRONG_OUTCOME].verdict
    combined = math.sqrt(v.mc_se["spatial"] ** 2 + v.mc_se["spatial-plus"] ** 2)
    gap = v.abs_bias["spatial-plus"] - v.abs_bias["spatial"]
    ok = v.abs_bias["spatial"] < v.abs_bias["spatial-plus"]
    elapsed = scenario_results["elapsed"]
    verdict(
        "criterion 6 scenario 2 (inequality reversed)",
        ok and elapsed < 900,
        f"|bias| spatial {v.abs_bias['spatial']:.4f} < spatial+ "
        f"{v.abs_bias['spatial-plus']:.4f}, gap {gap:.5f} = "
        f"{gap / combined:.2f} combined MC-SEs; both scenarios in {elapsed:.0f}s",
    )
    print(
        f"       gSEM report: |bias| {v.abs_bias['gsem']:.4f}; "
        f"not worse than both: {v.gsem_not_worse_than_both}"
    )


# -------------------------------------------------------------------------
# 7. Lower AIC can come with higher coefficient bias
# -------------------------------------------------------------------------


def test_criterion_7_aic_vs_bias():
    base = default_aic_plan(r=300, master_seed=20240707)
    result = aic_bias_experiment(base)
    r0 = next(r for r in result.rows if r.lam == 0.0)
    best = None
    for row in result.rows:
        if row.lam == 0.0:
            continue
        combined = math.sqrt(row.mc_se_of_bias**2 + r0.mc_se_of_bias**2)
        z = (row.abs_mean_bias - r0.abs_mean_bias) / combined
        if row.mean_aic < r0.mean_aic and (best is None or z > best[1]):
            best = (row, z)
    ok = result.flag and best is not None and best[1] > 2.0
    detail = (
        f"lambda {best[0].lam:.3g}: mean AIC {best[0].mean_aic:.1f} < "
        f"{r0.mean_aic:.1f} (lambda=0) while |bias| {best[0].abs_mean_bias:.4f} "
        f"exceeds {r0.abs_mean_bias:.4f} by {best[1]:.1f} combined MC-SEs (R=300)"
        if best
        else "no lambda with lower AIC found"
    )
    verdict("criterion 7 (lower AIC, higher bias)", ok, detail)


# -------------------------------------------------------------------------
# 8. Degeneracies surface as errors, never as silent numbers
# -------------------------------------------------------------------------


def test_criterion_8_degeneracy_surfacing():
    config = replace(
        scenario_config(SCENARIO_STRONG_EXPOSURE), nu_sd=0.0, e_sd=0.0
    )
    ds = generate_dataset(config, 8080)
    obs = ds.observations()
    b = fourier_basis(ds.grid, 10)
    outcomes = []
    with pytest.raises(CollinearityError):
        fit_spatial(obs, b, smoothing=0.0)
    outcomes.append("Spatial(lambda=0) -> collinearity")
    with pytest.raises(DegenerateResidualError):
        fit_spatial_plus(obs, b, smoothing=0.0)
    outcomes.append("Spatial+(lambda=0) -> degenerate residual")
    with pytest.raises(DegenerateResidualError):
        fit_spatial_plus(obs, b)  # GCV smoothing finds the interpolant
    outcomes.append("Spatial+(GCV) -> degenerate residual")
    with pytest.raises(EstimandUndefinedError):
        compute_estimands(config)
    outcomes.append("oracle -> estimand undefined")
    verdict("criterion 8 (degeneracy surfacing)", True, "; ".join(outcomes))


# -------------------------------------------------------------------------
# 9. Numerical core: gradients, spectra, determinism under threading
# -------------------------------------------------------------------------


def _objective(y, F, b, lam, alpha, gamma):
    resid = y - F @ alpha - fourier_columns(b) @ gamma
    return float(resid @ resid + lam * (gamma * b.penalty) @ gamma)


def test_criterion_9_numerical_core():
    # (a) penalized-objective gradient at returned solutions.
    worst_grad = 0.0
    for i, lam in enumerate([0.0, 1e-2, 1.0, 75.0, None]):
        rng = np.random.default_rng(9000 + i)
        grid = make_grid(10)
        b = fourier_basis(grid, 3)
        F = np.column_stack(
            [np.ones(grid.n), rng.normal(size=grid.n), rng.normal(size=grid.n)]
        )
        y = F @ rng.normal(size=3) + fourier_columns(b) @ rng.normal(size=b.p) * 0.4
        y += 0.3 * rng.normal(size=grid.n)
        fit = select_lambda_gcv(y, F, b) if lam is None else fit_pls(y, F, b, lam)
        theta = np.concatenate([fit.fixed_coefs, fit.basis_coefs])
        obj = _objective(y, F, b, fit.lam, fit.fixed_coefs, fit.basis_coefs)
        step = 1e-6
        for j in range(theta.size):
            up, dn = theta.copy(), theta.copy()
            up[j] += step
            dn[j] -= step
            g = (
                _objective(y, F, b, fit.lam, up[:3], up[3:])
                - _objective(y, F, b, fit.lam, dn[:3], dn[3:])
            ) / (2 * step)
            worst_grad = max(worst_grad, abs(g) / (1.0 + obj))
    grad_ok = worst_grad < 1e-4

    # (b) Parseval and band limitation at 1e-10.
    spectral_ok = True
    for seed in range(5):
        grid = make_grid(32)
        f = sample_grf(grid, SpectralSpec(3, 7, 0.5, 1.0), seed=seed)
        shells = field_dft_energy(f, grid)
        total = sum(shells.values())
        spectral_ok &= abs(total - float(f @ f)) < 1e-10 * total
        spectral_ok &= sum(e for k, e in shells.items() if not 3 <= k <= 7) < 1e-10 * total
        g = sample_iid(grid, 1.0, seed=seed)
        shells_g = field_dft_energy(g, grid)
        ss = float(g @ g)
        spectral_ok &= abs(sum(shells_g.values()) - ss) < 1e-10 * ss

    # (c) mc runs identical across thread counts.
    plan = MCPlan(
        config=replace(
            scenario_config(SCENARIO_STRONG_EXPOSURE),
            m=16,
            spec_S2=SpectralSpec(3, 5, 0.0, 1.0),
        ),
        estimators=(
            EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
            EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=5),
            EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS, max_freq=5),
        ),
        R=8,
        master_seed=909,
    )
    runs = [run_mc(plan, n_jobs=k) for k in (1, 2, 4)]
    determinism_ok = runs[0] == runs[1] == runs[2]

    verdict(
        "criterion 9 (numerical core)",
        grad_ok and spectral_ok and determinism_ok,
        f"max relative gradient {worst_grad:.2e} (<1e-4); spectral identities at "
        f"1e-10: {spectral_ok}; mc identical for 1/2/4 threads: {determinism_ok}",
    )
