"""The six exposure-coefficient estimators.

All estimators consume only the observed data (Z, C, Y, grid); latent
fields never enter.  Each returns an ``EstimateRecord`` with the point
estimate for the exposure coefficient, a model-based standard error, the
per-stage smoothing parameters and effective degrees of freedom, the
outcome-stage AIC, and a few numeric diagnostics.

Methods:

    NonSpatialOLS       OLS of Y on (1, Z, C)
    RSR                 OLS of Y on (1, Z, C, basis projected off (1, Z, C)):
                        the OLS point estimate, with standard error
                        sqrt(sigma2 * [(F'F)^-1]_11) from the residual
                        variance sigma2 of the lambda = 0 fit on
                        F = (1, Z, C) plus the basis
    Spatial             penalized fit of Y on (1, Z, C) + basis
    SpatialPlus         stage 1 residualizes Z on (1, C) + basis; stage 2
                        is the Spatial fit with that residual in place of Z
    GSEM                residualize Y, Z, C each on (1) + basis; then the
                        NonSpatialOLS fit on those residuals
    SpatialPlusLowFreq  SpatialPlus on the basis restricted to labels
                        <= cutoff, unpenalized by default

Every estimator but RSR ends in one outcome regression, y on (1, z, c)
plus a basis, with residuals in place of Z, C or Y in SpatialPlus and GSEM;
every stage is one ``select_lambda_gcv`` call (``_fit_stage``).

Two-stage standard errors come from the final stage only; no propagation
of first-stage uncertainty is attempted, so coverage for those methods is
approximate by construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence, Union

import numpy as np

from .basis import BasisSet, empty_basis, restrict_low_frequency
from .dgp import Observations
from .errors import DegenerateResidualError
from .pls import FitResult, _Solver, select_lambda_gcv

Smoothing = Union[None, float, Sequence[float]]

Z_CRIT_95 = 1.96

# Stage-1 residual variance below this share of var(Z) means that, to
# working precision, the exposure is a function of the conditioning set.
RESIDUAL_DEGENERACY_SHARE = 1e-12


class EstimatorKind(enum.Enum):
    NONSPATIAL_OLS = "nonspatial"
    RSR = "rsr"
    SPATIAL = "spatial"
    SPATIAL_PLUS = "spatial-plus"
    GSEM = "gsem"
    SPATIAL_PLUS_LOWFREQ = "spatial-plus-lowfreq"


@dataclass(frozen=True)
class EstimateRecord:
    kind: EstimatorKind
    beta1_hat: float
    se: float
    ci95: tuple[float, float]
    lambdas: dict[str, float]
    edf: dict[str, float]
    aic: float
    diagnostics: dict[str, float]

    def to_dict(self) -> dict:
        return {
            "kind": self.kind.value,
            "beta1_hat": self.beta1_hat,
            "se": self.se,
            "ci95": list(self.ci95),
            "lambdas": dict(self.lambdas),
            "edf": dict(self.edf),
            "aic": self.aic,
            "diagnostics": dict(self.diagnostics),
        }


def _record(
    kind: EstimatorKind,
    beta1: float,
    se: float,
    lambdas: dict[str, float],
    edf: dict[str, float],
    aic: float,
    diagnostics: dict[str, float],
) -> EstimateRecord:
    half = Z_CRIT_95 * se
    return EstimateRecord(
        kind=kind,
        beta1_hat=float(beta1),
        se=float(se),
        ci95=(float(beta1 - half), float(beta1 + half)),
        lambdas=lambdas,
        edf=edf,
        aic=float(aic),
        diagnostics=diagnostics,
    )


def _outcome_record(kind: EstimatorKind, fit: FitResult, **parts) -> EstimateRecord:
    """The record whose estimate, standard error and AIC are those of ``fit``."""
    se = float(np.sqrt(fit.cov_fixed[1, 1]))
    return _record(kind, fit.fixed_coefs[1], se, aic=fit.aic, **parts)


def _outcome_design(z, c) -> np.ndarray:
    """(1, z, c): the fixed columns of the outcome regression."""
    return np.column_stack([np.ones(np.shape(z)[0]), z, c])


def _fixed_design(obs: Observations) -> tuple[np.ndarray, list[str]]:
    n = obs.grid.n
    for name in ("Z", "C", "Y"):
        v = getattr(obs, name)
        if np.asarray(v).shape != (n,):
            raise ValueError(f"{name} has wrong length for the grid")
    if n <= 3:
        raise ValueError(f"need more than 3 observations, got {n}")
    return _outcome_design(obs.Z, obs.C), ["intercept", "Z", "C"]


def _design_cond(M: np.ndarray) -> float:
    s = np.linalg.svd(M, compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else math.inf


def _exposure_residual_share(r_z: np.ndarray, z) -> float:
    """var(r_z) / var(Z), after checking that the residuals are not zero.

    Raises ``DegenerateResidualError`` when spatial adjustment leaves the
    exposure residuals numerically zero.
    """
    var_z = float(np.asarray(z).var())
    var_r = float(r_z.var())
    if var_z == 0.0 or var_r < RESIDUAL_DEGENERACY_SHARE * var_z:
        raise DegenerateResidualError(
            "exposure residuals are numerically zero after spatial adjustment: "
            "the exposure is fully spatial and the spatially-conditional "
            "coefficient is not identified"
        )
    return var_r / var_z


def _fit_stage(y, F, b: BasisSet, smoothing: Smoothing, names) -> FitResult:
    """Fit ``y`` on ``F`` plus the basis by GCV on a grid (None: the default
    grid); a fixed lambda is the one-point grid."""
    if isinstance(smoothing, (int, float, np.floating, np.integer)) and not isinstance(
        smoothing, bool
    ):
        smoothing = [smoothing]
    return select_lambda_gcv(y, F, b, smoothing, names)


def fit_nonspatial(obs: Observations) -> EstimateRecord:
    """OLS of the outcome on (1, Z, C): the unconditional-target estimator."""
    F, names = _fixed_design(obs)
    fit = _fit_stage(obs.Y, F, empty_basis(obs.grid.n), 0.0, names)
    return _outcome_record(
        EstimatorKind.NONSPATIAL_OLS,
        fit,
        lambdas={},
        edf={"outcome": fit.edf},
        diagnostics={"fixed_cond": _design_cond(F)},
    )


def fit_rsr(obs: Observations, b: BasisSet) -> EstimateRecord:
    """Restricted spatial regression: spatial terms projected off (1, Z, C).

    RSR is OLS of Y on [F, B_perp], F = (1, Z, C) and B_perp the basis
    residualized on F.  B_perp is orthogonal to F, so the exposure
    coefficient is the OLS one (a Frisch-Waugh identity) and the joint Gram
    is block diagonal; [F, B_perp] spans the same space as [F, B], so the
    residuals are those of the unpenalized fit on [F, B].  One solver
    gives both: lambda = +inf (OLS, S^-1 = (F'F)^-1) and lambda = 0 (RSS,
    edf = q + p, sigma2, AIC); the standard error is
    sqrt(sigma2 * [(F'F)^-1]_11).
    """
    F, names = _fixed_design(obs)
    ols, joint = _Solver(obs.Y, F, b, names).solve([math.inf, 0.0])
    s_inv = ols.V @ ols.V.T  # (F'F)^-1
    return _record(
        EstimatorKind.RSR,
        ols.fixed_coefs[1],
        float(np.sqrt(joint.sigma2 * s_inv[1, 1])),
        lambdas={},
        edf={"outcome": joint.edf},
        aic=joint.aic,
        diagnostics={"fixed_cond": _design_cond(F)},
    )


def fit_spatial(obs: Observations, b: BasisSet, smoothing: Smoothing = None) -> EstimateRecord:
    """Penalized outcome regression with the basis entered directly."""
    F, names = _fixed_design(obs)
    fit = _fit_stage(obs.Y, F, b, smoothing, names)
    return _outcome_record(
        EstimatorKind.SPATIAL,
        fit,
        lambdas={"outcome": fit.lam},
        edf={"outcome": fit.edf},
        diagnostics={"fixed_cond": _design_cond(F)},
    )


def fit_spatial_plus(
    obs: Observations,
    b: BasisSet,
    smoothing: Smoothing = None,
    include_c_in_stage1: bool = True,
) -> EstimateRecord:
    """Two-stage estimator: residualize the exposure, then fit the outcome.

    Stage 2 is the Spatial outcome regression with the stage-1 residual r_Z
    in place of Z.

    ``smoothing`` applies to both stages: None lets each stage pick its own
    GCV smoothing on the default grid, a float fixes that value for both,
    and a sequence is used as the GCV grid of each stage independently.

    Raises ``DegenerateResidualError`` when stage 1 leaves numerically zero
    residual variance (a fully spatial exposure).
    """
    _fixed_design(obs)  # validates shapes, n > 3
    ones = np.ones(obs.grid.n)
    F1 = np.column_stack([ones, obs.C]) if include_c_in_stage1 else ones[:, None]
    names1 = ["intercept", "C"] if include_c_in_stage1 else ["intercept"]
    stage1 = _fit_stage(obs.Z, F1, b, smoothing, names1)
    share = _exposure_residual_share(stage1.residuals, obs.Z)
    F2 = _outcome_design(stage1.residuals, obs.C)
    stage2 = _fit_stage(obs.Y, F2, b, smoothing, ["intercept", "r_Z", "C"])
    return _outcome_record(
        EstimatorKind.SPATIAL_PLUS,
        stage2,
        lambdas={"exposure": stage1.lam, "outcome": stage2.lam},
        edf={"exposure": stage1.edf, "outcome": stage2.edf},
        diagnostics={"exposure_residual_share": share},
    )


def fit_gsem(obs: Observations, b: BasisSet, smoothing: Smoothing = None) -> EstimateRecord:
    """Residualize outcome, exposure and covariate on space, then OLS.

    Each variable is residualized on (intercept + basis) with its own
    smoothing; the final stage is the non-spatial outcome regression (empty
    basis, lambda = 0) of outcome residuals on exposure and covariate
    residuals.
    """
    _fixed_design(obs)  # validates shapes, n > 3
    ones = np.ones(obs.grid.n)[:, None]
    fits = {
        name: _fit_stage(values, ones, b, smoothing, ["intercept"])
        for name, values in (("outcome", obs.Y), ("exposure", obs.Z), ("covariate", obs.C))
    }
    r_y, r_z, r_c = (fit.residuals for fit in fits.values())
    share = _exposure_residual_share(r_z, obs.Z)
    F = _outcome_design(r_z, r_c)
    final = _fit_stage(r_y, F, empty_basis(obs.grid.n), 0.0, ["intercept", "r_Z", "r_C"])
    return _outcome_record(
        EstimatorKind.GSEM,
        final,
        lambdas={name: fit.lam for name, fit in fits.items()},
        edf={**{name: fit.edf for name, fit in fits.items()}, "final_ols": final.edf},
        diagnostics={"exposure_residual_share": share},
    )


def fit_spatial_plus_lowfreq(
    obs: Observations,
    b: BasisSet,
    cutoff: int,
    smoothing: Smoothing = 0.0,
    include_c_in_stage1: bool = True,
) -> EstimateRecord:
    """SpatialPlus on the low-frequency block of the basis.

    Keeps only basis columns with frequency label <= cutoff and runs both
    stages unpenalized by default (pass a different ``smoothing`` to
    override).  Targets the coefficient conditional on C and the
    low-frequency confounder only.
    """
    restricted = restrict_low_frequency(b, cutoff)
    rec = fit_spatial_plus(obs, restricted, smoothing, include_c_in_stage1)
    return replace(
        rec,
        kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ,
        diagnostics={**rec.diagnostics, "cutoff": float(cutoff)},
    )


def fit_estimator(
    kind: EstimatorKind,
    obs: Observations,
    b: Optional[BasisSet] = None,
    smoothing: Smoothing = None,
    cutoff: Optional[int] = None,
    include_c_in_stage1: bool = True,
) -> EstimateRecord:
    """Dispatch a single estimator by kind with uniform settings."""
    if kind is EstimatorKind.NONSPATIAL_OLS:
        return fit_nonspatial(obs)
    if b is None:
        raise ValueError(f"estimator {kind.value!r} needs a basis")
    if kind is EstimatorKind.RSR:
        return fit_rsr(obs, b)
    if kind is EstimatorKind.SPATIAL:
        return fit_spatial(obs, b, smoothing)
    if kind is EstimatorKind.SPATIAL_PLUS:
        return fit_spatial_plus(obs, b, smoothing, include_c_in_stage1)
    if kind is EstimatorKind.GSEM:
        return fit_gsem(obs, b, smoothing)
    if kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ:
        if cutoff is None:
            raise ValueError("spatial-plus-lowfreq needs a cutoff")
        smoothing = 0.0 if smoothing is None else smoothing
        return fit_spatial_plus_lowfreq(obs, b, cutoff, smoothing, include_c_in_stage1)
    raise ValueError(f"unknown estimator kind {kind!r}")
