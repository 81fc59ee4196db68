"""Shared test utilities: latent-column regressions, random configs, the
dense columns of a Fourier basis, and n-row reference fits of the two-stage
estimators."""

import numpy as np

from spatialconfound import (
    DegenerateResidualError,
    IidSpec,
    ScenarioConfig,
    SpectralSpec,
    empty_basis,
    fourier_basis,
    select_lambda_gcv,
)
from spatialconfound.estimators import CONSTANT_EXPOSURE_SHARE, RESIDUAL_DEGENERACY_SHARE


def ols_coef_and_se(X, y, index):
    """Coefficient and classical standard error for one column of an OLS."""
    coef, _, _, _ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    n, k = X.shape
    sigma2 = float(resid @ resid) / (n - k)
    cov = sigma2 * np.linalg.inv(X.T @ X)
    return float(coef[index]), float(np.sqrt(cov[index, index]))


def latent_projection(ds, conditioners):
    """Empirical analogue of a population projection target.

    Regresses Y on (1, Z, *conditioners*) using latent columns and returns
    the Z coefficient and its standard error.
    """
    cols = {"C": ds.C, "S1": ds.S1, "S2": ds.S2, "E": ds.E, "U": ds.U}
    X = np.column_stack([np.ones(ds.grid.n), ds.Z] + [cols[c] for c in conditioners])
    return ols_coef_and_se(X, ds.Y, 1)


def random_config(rng, m=64, allow_spatial_c=True, **overrides):
    """A randomized, comfortably non-degenerate scenario configuration;
    ``overrides`` replace fields after every draw, so the draws and the
    other fields do not depend on them."""
    def u(lo, hi):
        return float(rng.uniform(lo, hi))

    spatial_c = allow_spatial_c and rng.random() < 0.5
    spec_c = (
        SpectralSpec(1, int(rng.integers(2, 4)), u(0.0, 1.0), u(0.5, 2.0))
        if spatial_c
        else IidSpec(u(0.5, 1.5))
    )
    sign = lambda: float(rng.choice([-1.0, 1.0]))
    values = dict(
        beta=(
            u(-1, 1),
            sign() * u(0.5, 2.0),
            sign() * u(0.2, 1.5),
            sign() * u(0.2, 1.5),
            sign() * u(0.2, 1.5),
            sign() * u(0.0, 1.0),
        ),
        loadings=(sign() * u(0.3, 1.5), sign() * u(0.3, 1.5), sign() * u(0.0, 1.0)),
        nu_sd=u(0.5, 1.5),
        sigma=u(0.2, 1.0),
        spec_S1=SpectralSpec(1, int(rng.integers(2, 4)), u(0.0, 1.0), u(0.5, 2.0)),
        spec_S2=SpectralSpec(5, int(rng.integers(6, 9)), u(0.0, 1.0), u(0.5, 2.0)),
        spec_C=spec_c,
        e_sd=u(0.3, 1.2),
        u_sd=u(0.0, 1.0),
        m=m,
    )
    return ScenarioConfig(**{**values, **overrides})


def fourier_columns(b):
    """The n x p columns of basis ``b``, read-only: cos(2 pi k.s) and
    sin(2 pi k.s) for each frequency pair k, evaluated at the grid's points.
    The package never builds them; they are the oracle for its FFT products."""
    phases = 2.0 * np.pi * (b.grid.coords @ b.pairs.T.astype(float))
    columns = np.empty((b.n, b.p))
    columns[:, 0::2] = np.cos(phases)
    columns[:, 1::2] = np.sin(phases)
    columns.setflags(write=False)
    return columns


# ---------------------------------------------------------------------------
# Two-stage estimators on explicit residuals
# ---------------------------------------------------------------------------
#
# Each stage is ``select_lambda_gcv`` on arrays, and the next stage gets its
# n residuals y - F a - B g, formed here with the basis's dense columns (not
# ``basis.synthesize``).  The results are dicts with the estimate, its
# standard error, and each stage's edf and lambda, keyed as the estimators
# key their records.


def residuals(y, F, b, fit):
    """y - F a - B g of a stage fit, with B the dense columns of ``b``."""
    return y - (F @ fit.fixed_coefs + fourier_columns(b) @ fit.basis_coefs)


def _exposure_share_check(r_z, z):
    """The package's rule: a constant exposure, its variance round-off of
    its mean square, has no residual variance to keep."""
    var_z = z.var()
    constant = var_z <= CONSTANT_EXPOSURE_SHARE * np.mean(z * z)
    if constant or r_z.var() < RESIDUAL_DEGENERACY_SHARE * var_z:
        raise DegenerateResidualError("exposure residuals are numerically zero")


def _result(final, stages):
    return {
        "beta": float(final.fixed_coefs[1]),
        "se": float(np.sqrt(final.cov_fixed[1, 1])),
        "edf": {name: fit.edf for name, fit in stages.items()},
        "lambdas": {name: fit.lam for name, fit in stages.items()},
    }


def reference_spatial_plus(obs, b, smoothing=None):
    ones = np.ones(obs.grid.n)
    F1 = np.column_stack([ones, obs.C])
    stage1 = select_lambda_gcv(obs.Z, F1, b, smoothing, ["intercept", "C"])
    r_z = residuals(obs.Z, F1, b, stage1)
    _exposure_share_check(r_z, obs.Z)
    F2 = np.column_stack([ones, r_z, obs.C])
    stage2 = select_lambda_gcv(obs.Y, F2, b, smoothing, ["intercept", "r_Z", "C"])
    return _result(stage2, {"exposure": stage1, "outcome": stage2})


def reference_spatial_plus_lowfreq(obs, b, cutoff, smoothing=0.0):
    """Spatial+ on the basis that stops at the cutoff label, at lambda = 0
    when ``smoothing`` is None."""
    smoothing = 0.0 if smoothing is None else smoothing
    return reference_spatial_plus(obs, fourier_basis(b.grid, cutoff), smoothing)


def reference_gsem(obs, b, smoothing=None):
    ones = np.ones(obs.grid.n)[:, None]
    columns = {"outcome": obs.Y, "exposure": obs.Z, "covariate": obs.C}
    fits = {
        name: select_lambda_gcv(values, ones, b, smoothing, ["intercept"])
        for name, values in columns.items()
    }
    r_y, r_z, r_c = (residuals(columns[name], ones, b, fit) for name, fit in fits.items())
    _exposure_share_check(r_z, obs.Z)
    F = np.column_stack([ones, r_z, r_c])
    final = select_lambda_gcv(r_y, F, empty_basis(obs.grid), 0.0, ["intercept", "r_Z", "r_C"])
    result = _result(final, fits)
    result["edf"]["final_ols"] = final.edf
    return result
