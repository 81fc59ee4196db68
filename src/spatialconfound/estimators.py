"""The six exposure-coefficient estimators.

``fit_estimator`` reads the observed data (Z, C, Y, grid), never a latent
field, and each ``fit_*`` only their moments on its basis.  Each returns an
``EstimateRecord`` with the point estimate for the exposure coefficient, a
model-based standard error, the per-stage smoothing parameters and
effective degrees of freedom, the outcome-stage AIC, and a few diagnostics.

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
    SpatialPlusLowFreq  SpatialPlus with the labels above cutoff dropped
                        (penalty +inf), unpenalized by default

Every estimator but RSR ends in one outcome regression, y on (1, z, c)
plus a basis, with residuals in place of Z, C or Y in SpatialPlus and GSEM;
every stage is one GCV selection on moments, a fixed lambda being the
one-point grid and OLS the lambda = +inf one (the basis pinned to zero).
The moments of X = [1, Z, C, Y] on the basis are B'X and the R factor of X
less its basis part, once per basis and replication (``Observations.moments``).
A stage's design and response are columns X T - B G, a stage-1 residual
being Z less its fitted fixed and basis parts, so a stage is a few small
matrix products and a QR of at most 4 + p rows (``Moments``), and no
estimator forms an n-length residual.

Every fit but NonSpatialOLS and RSR reads ``smoothing`` by the rule of
``pls`` (None: the GCV choice on ``DEFAULT_LAMBDA_GRID``), except that
SpatialPlusLowFreq reads None as lambda = 0, at every entry.

Two-stage standard errors come from the final stage only; no propagation
of first-stage uncertainty is attempted, so coverage for those methods is
approximate by construction.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .basis import BasisSet
from .dgp import CONSTANT_EXPOSURE_SHARE, Observations
from .errors import DegenerateResidualError, _integer
from .pls import Moments, StageFit, select_moments, sweep_moments

Smoothing = Union[None, float, Sequence[float]]

Z_CRIT_95 = 1.96

# Stage-1 residual variance below this share of var(Z) means that, to
# working precision, the exposure is a function of the conditioning set.
RESIDUAL_DEGENERACY_SHARE = 1e-12

# The columns of X = [1, Z, C, Y], the observations' moments, as unit vectors.
_ONE, _Z, _C, _Y = np.eye(4)
OUTCOME_NAMES = ("intercept", "Z", "C")


class EstimatorKind(enum.Enum):
    NONSPATIAL_OLS = "nonspatial"
    RSR = "rsr"
    SPATIAL = "spatial"
    SPATIAL_PLUS = "spatial-plus"
    GSEM = "gsem"
    SPATIAL_PLUS_LOWFREQ = "spatial-plus-lowfreq"


@dataclass(frozen=True)
class EstimateRecord:
    """One estimator's fit.  ``beta1_hat``, ``se`` and ``aic`` are stored as
    floats, and ``ci95`` = beta1_hat -/+ 1.96 se is worked out from them
    when built, ``dataclasses.replace`` included."""

    kind: EstimatorKind
    beta1_hat: float
    se: float
    ci95: tuple[float, float] = field(init=False)
    lambdas: dict[str, float]
    edf: dict[str, float]
    aic: float
    diagnostics: dict[str, float]

    def __post_init__(self):
        for name in ("beta1_hat", "se", "aic"):
            object.__setattr__(self, name, float(getattr(self, name)))
        half = Z_CRIT_95 * self.se
        object.__setattr__(self, "ci95", (self.beta1_hat - half, self.beta1_hat + half))

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


def _outcome_record(kind: EstimatorKind, fit: StageFit, **parts) -> EstimateRecord:
    """The record whose estimate, standard error and AIC are those of ``fit``."""
    se = np.sqrt(fit.cov_fixed[1, 1])
    return EstimateRecord(kind, fit.fixed_coefs[1], se, aic=fit.aic, **parts)


def _design_cond(m: Moments) -> float:
    """Condition number of the outcome design (1, Z, C), from its frame."""
    s = np.linalg.svd(m.frame(np.column_stack([_ONE, _Z, _C])), compute_uv=False)
    return float(s[0] / s[-1]) if s[-1] > 0 else math.inf


def _residual(fixed: np.ndarray, response: np.ndarray, fit: StageFit) -> np.ndarray:
    """t with X t = response - fixed a: a stage's residual is X t - B g."""
    return response - fixed @ fit.fixed_coefs


def _exposure_residual_share(m: Moments, t: np.ndarray, g: np.ndarray) -> float:
    """var(r_z) / var(Z) for r_z = X t - B g, after checking that the
    residuals are not zero.

    |r_z|^2, 1'r_z and Z come from the coordinates of [1, r_z, Z] (``Moments.frame``).
    Raises ``DegenerateResidualError`` when spatial adjustment leaves the
    exposure residuals numerically zero, as it does a constant exposure.
    """
    zero = np.zeros_like(g)
    frame = m.frame(np.column_stack([_ONE, t, _Z]), np.column_stack([zero, g, zero]))
    one, r, z = frame.T
    n = m.n
    centred = z - (float(one @ z) / n) * one
    var_z = float(centred @ centred) / n
    var_r = float(r @ r) / n - (float(one @ r) / n) ** 2
    if var_z <= CONSTANT_EXPOSURE_SHARE * (z @ z) / n or var_r < RESIDUAL_DEGENERACY_SHARE * var_z:
        raise DegenerateResidualError(
            "exposure residuals are numerically zero after spatial adjustment: "
            "the exposure is fully spatial and the spatially-conditional "
            "coefficient is not identified"
        )
    return var_r / var_z


def fit_nonspatial(m: Moments) -> EstimateRecord:
    """OLS of the outcome on (1, Z, C), the unconditional-target estimator:
    the lambda = +inf row (the basis pinned to zero) on moments on any basis."""
    fit = select_moments(m, math.inf, OUTCOME_NAMES)
    return _outcome_record(
        EstimatorKind.NONSPATIAL_OLS,
        fit,
        lambdas={},
        edf={"outcome": fit.edf},
        diagnostics={"fixed_cond": _design_cond(m)},
    )


def fit_rsr(m: Moments) -> EstimateRecord:
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
    sweep = sweep_moments(m, [math.inf, 0.0], OUTCOME_NAMES)  # rows: OLS, joint
    s_inv = sweep.V[0] @ sweep.V[0].T  # (F'F)^-1
    return EstimateRecord(
        EstimatorKind.RSR,
        sweep.fixed_coefs[0, 1],
        np.sqrt(sweep.sigma2[1] * s_inv[1, 1]),
        lambdas={},
        edf={"outcome": float(sweep.edf[1])},
        aic=sweep.aic[1],
        diagnostics={"fixed_cond": _design_cond(m)},
    )


def fit_spatial(m: Moments, smoothing: Smoothing = None) -> EstimateRecord:
    """Penalized outcome regression with the basis entered directly."""
    fit = select_moments(m, smoothing, OUTCOME_NAMES)
    return _outcome_record(
        EstimatorKind.SPATIAL,
        fit,
        lambdas={"outcome": fit.lam},
        edf={"outcome": fit.edf},
        diagnostics={"fixed_cond": _design_cond(m)},
    )


def _spatial_plus(
    m: Moments, smoothing: Smoothing, include_c_in_stage1: bool, cutoff: Optional[int] = None
) -> EstimateRecord:
    """Spatial+ from the moments of [1, Z, C, Y] on its labels up to ``cutoff``."""
    fixed1 = np.column_stack([_ONE, _C] if include_c_in_stage1 else [_ONE])
    names1 = ["intercept", "C"] if include_c_in_stage1 else ["intercept"]
    stage1 = select_moments(m.columns(np.column_stack([fixed1, _Z])), smoothing, names1, cutoff)
    t, g = _residual(fixed1, _Z, stage1), stage1.basis_coefs
    share = _exposure_residual_share(m, t, g)
    zero = np.zeros_like(g)
    m2 = m.columns(np.column_stack([_ONE, t, _C, _Y]), np.column_stack([zero, g, zero, zero]))
    stage2 = select_moments(m2, smoothing, ["intercept", "r_Z", "C"], cutoff)
    return _outcome_record(
        EstimatorKind.SPATIAL_PLUS,
        stage2,
        lambdas={"exposure": stage1.lam, "outcome": stage2.lam},
        edf={"exposure": stage1.edf, "outcome": stage2.edf},
        diagnostics={"exposure_residual_share": share},
    )


def fit_spatial_plus(
    m: Moments,
    smoothing: Smoothing = None,
    include_c_in_stage1: bool = True,
) -> EstimateRecord:
    """Two-stage estimator: residualize the exposure, then fit the outcome.

    Stage 2 is the Spatial outcome regression with the stage-1 residual r_Z
    in place of Z.

    ``smoothing`` applies to each stage independently: with None or a
    grid, each stage makes its own GCV choice.

    Raises ``DegenerateResidualError`` when stage 1 leaves numerically zero
    residual variance (a fully spatial exposure).
    """
    return _spatial_plus(m, smoothing, include_c_in_stage1)


def fit_gsem(m: Moments, smoothing: Smoothing = None) -> EstimateRecord:
    """Residualize outcome, exposure and covariate on space, then OLS.

    Each variable is residualized on (intercept + basis) with its own
    smoothing; the final stage is the non-spatial outcome regression
    (lambda = +inf, the basis pinned to zero) of outcome residuals on
    exposure and covariate residuals.
    """
    ones = _ONE[:, None]
    columns = {"outcome": _Y, "exposure": _Z, "covariate": _C}
    fits = {
        name: select_moments(m.columns(np.column_stack([ones, col])), smoothing, ["intercept"])
        for name, col in columns.items()
    }
    # Each residual is X t - B g.
    t = {name: _residual(ones, columns[name], fit) for name, fit in fits.items()}
    g = {name: fit.basis_coefs for name, fit in fits.items()}
    share = _exposure_residual_share(m, t["exposure"], g["exposure"])
    final_columns = ("exposure", "covariate", "outcome")  # r_Z, r_C, then the response r_Y
    final_m = m.columns(
        np.column_stack([_ONE] + [t[k] for k in final_columns]),
        np.column_stack([np.zeros(m.basis.p)] + [g[k] for k in final_columns]),
    )
    final = select_moments(final_m, math.inf, ["intercept", "r_Z", "r_C"])
    return _outcome_record(
        EstimatorKind.GSEM,
        final,
        lambdas={name: fit.lam for name, fit in fits.items()},
        edf={**{name: fit.edf for name, fit in fits.items()}, "final_ols": final.edf},
        diagnostics={"exposure_residual_share": share},
    )


def fit_spatial_plus_lowfreq(
    m: Moments,
    cutoff: int,
    smoothing: Smoothing = 0.0,
    include_c_in_stage1: bool = True,
) -> EstimateRecord:
    """SpatialPlus on the low-frequency block of the basis.

    Drops the labels above ``cutoff``, an integer in [1, max_freq], by
    penalty +inf (the fit on ``fourier_basis(grid, cutoff)``), and runs
    both stages unpenalized by default, None included (lambda = 0, not GCV;
    any other ``smoothing`` puts lam * f**2 on the kept labels).  Targets
    the coefficient conditional on C and the low-frequency confounder only.
    """
    cutoff = _integer(cutoff, "cutoff", 1, m.basis.max_freq)
    smoothing = 0.0 if smoothing is None else smoothing
    rec = _spatial_plus(m, smoothing, include_c_in_stage1, cutoff)
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
    """Dispatch a single estimator by kind on the moments of ``obs`` on ``b``,
    which only the non-spatial kind may leave None (the p = 0 basis)."""
    if b is None and kind is not EstimatorKind.NONSPATIAL_OLS:
        raise ValueError(f"estimator {kind.value!r} needs a basis")
    if kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ and cutoff is None:
        raise ValueError("spatial-plus-lowfreq needs a cutoff")
    m = obs.moments(b)
    if kind is EstimatorKind.NONSPATIAL_OLS:
        return fit_nonspatial(m)
    if kind is EstimatorKind.RSR:
        return fit_rsr(m)
    if kind is EstimatorKind.SPATIAL:
        return fit_spatial(m, smoothing)
    if kind is EstimatorKind.SPATIAL_PLUS:
        return fit_spatial_plus(m, smoothing, include_c_in_stage1)
    if kind is EstimatorKind.GSEM:
        return fit_gsem(m, smoothing)
    if kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ:
        return fit_spatial_plus_lowfreq(m, cutoff, smoothing, include_c_in_stage1)
    raise ValueError(f"unknown estimator kind {kind!r}")
