"""Closed-form population estimands from scenario covariance algebra.

Every variable in the model is linear in the seven mutually independent
sources (S1, S2, C, E, U, nu, eps), so the joint covariance of
(Y, Z, C, S1, S2, E, U) follows from the loading matrix and the source
variances.  Estimation targets are defined as coefficients of population
least-squares projections:

    beta_uncond        Z coefficient projecting Y on (1, Z, C)
    beta_cond_achieved Z coefficient projecting Y on (1, Z, C, S1, S2)
    beta_cond_S1       Z coefficient projecting Y on (1, Z, C, S1)

``beta_cond_achieved`` conditions on the spatial slices of the confounders
but not on E, the independent slice of S2 + E; in this data-generating
process it has the explicit form

    b1 + b4 * a2 * e_sd^2 / (a2^2 * e_sd^2 + nu_sd^2),

which the generic normal-equations computation reproduces (and the tests
check both against latent-column regressions).

Spatial correlation across locations never enters: projections here are
per-location and the sampled fields are variance-calibrated, so marginal
variances are all that matters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dgp import ScenarioConfig
from .errors import EstimandUndefinedError

ORACLE_VARS = ("Y", "Z", "C", "S1", "S2", "E", "U")

_RCOND_SINGULAR = 1e-12


@dataclass(frozen=True)
class EstimandSet:
    """The structural coefficient and the three projection targets."""

    beta_structural: float
    beta_uncond: float
    beta_cond_achieved: float
    beta_cond_S1: float

    def as_dict(self) -> dict[str, float]:
        return {
            "beta_structural": self.beta_structural,
            "beta_uncond": self.beta_uncond,
            "beta_cond_achieved": self.beta_cond_achieved,
            "beta_cond_S1": self.beta_cond_S1,
        }


def population_covariance(config: ScenarioConfig) -> np.ndarray:
    """7x7 covariance of (Y, Z, C, S1, S2, E, U) implied by the config."""
    a1, a2, a3 = config.loadings
    b0, b1, b2, b3, b4, b5 = config.beta
    # Sources, in order: S1, S2, C, E, U, nu, eps.
    variances = np.array(
        [
            config.spec_S1.variance,
            config.spec_S2.variance,
            config.spec_C.variance,
            config.e_sd**2,
            config.u_sd**2,
            config.nu_sd**2,
            config.sigma**2,
        ]
    )
    z_row = np.array([a1, a2, a3, a2, 0.0, 1.0, 0.0])
    y_row = b1 * z_row + np.array([b3, b4, b2, b4, b5, 0.0, 1.0])
    loads = np.vstack(
        [
            y_row,
            z_row,
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0],  # C
            [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # S1
            [0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0],  # S2
            [0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0],  # E
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.0],  # U
        ]
    )
    cov = (loads * variances) @ loads.T
    return 0.5 * (cov + cov.T)


def _projection_coef_on_z(cov: np.ndarray, conditioners: tuple[str, ...]) -> float:
    """Z coefficient of the population projection of Y on (1, Z, rest)."""
    regressors = ("Z",) + conditioners
    idx = [ORACLE_VARS.index(v) for v in regressors]
    block = cov[np.ix_(idx, idx)]
    rhs = cov[0, idx]
    eigs = np.linalg.eigvalsh(block)
    if eigs[-1] <= 0 or eigs[0] <= _RCOND_SINGULAR * eigs[-1]:
        raise EstimandUndefinedError(
            f"conditioning block (Z | {', '.join(conditioners)}) is singular: "
            "the projection target does not exist (fully spatial exposure or "
            "degenerate conditioner)"
        )
    coefs = np.linalg.solve(block, rhs)
    return float(coefs[0])


def compute_estimands(config: ScenarioConfig) -> EstimandSet:
    """All four targets for a scenario.

    Raises ``EstimandUndefinedError`` when a conditioning block is
    singular, e.g. nu_sd = 0 with e_sd*|a2| = 0, where the exposure is a
    deterministic function of the conditioning set.
    """
    cov = population_covariance(config)
    return EstimandSet(
        beta_structural=float(config.beta[1]),
        beta_uncond=_projection_coef_on_z(cov, ("C",)),
        beta_cond_achieved=_projection_coef_on_z(cov, ("C", "S1", "S2")),
        beta_cond_S1=_projection_coef_on_z(cov, ("C", "S1")),
    )
