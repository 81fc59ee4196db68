"""Monte Carlo harness: replicate, estimate, summarize, and the two
scenario experiments.

One replication loop serves every experiment: replication ``rep`` of a
plan generates a dataset from a seed derived from the plan's master seed
and ``rep``, and hands its observations to a fit.  Replications are independent work units;
results are stored by replication index and reduced in index order, so
summaries are identical no matter how many worker threads execute them.
The loop's bases are built once per call, one per ``max_freq``.

``run_mc`` replays a plan: it runs every configured estimator (a plan
holds at most one estimator of each kind) and aggregates bias / SD /
RMSE / coverage of the exposure coefficient against each of the four
population targets, which a plan always computes from its config.

``scenario_experiment`` imposes one of the two confounding scenarios (a
strong predictor of the exposure that barely moves the outcome, and the
reverse) on a plan of Spatial, Spatial+ and gSEM, and reports which
method tracks the spatially-conditional quantity better.
``aic_bias_experiment`` sweeps fixed smoothing values for the plan's
Spatial model and tabulates mean AIC against mean absolute bias, flagging
smoothing levels that improve AIC while worsening the coefficient.  Both
tables come from one reduction, so each AIC row is the ``run_mc`` cell of
Spatial at that fixed smoothing value.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .basis import BasisSet, fourier_basis
from .dgp import ScenarioConfig, _write_csv, config_hash, generate_dataset
from .errors import DegeneracyError, _integer, _is_real
from .estimators import OUTCOME_NAMES, EstimatorKind, Smoothing, fit_estimator
from .fields import IidSpec, SpectralSpec, derive_seed, make_grid
from .oracle import EstimandSet, compute_estimands
from .pls import _lambda_grid, sweep_lambda

TARGET_NAMES = ("beta_structural", "beta_uncond", "beta_cond_achieved", "beta_cond_S1")

SCENARIO_STRONG_EXPOSURE = "strong-exposure-weak-outcome"
SCENARIO_STRONG_OUTCOME = "weak-exposure-strong-outcome"
SCENARIO_KINDS = (SCENARIO_STRONG_EXPOSURE, SCENARIO_STRONG_OUTCOME)

# Scenario calibration: high-frequency confounder band well above the S1
# band, moderate noise, grid small enough for desk-scale replication counts.
_SCENARIO_BASE = ScenarioConfig(
    beta=(0.0, 2.0, 1.0, 1.0, 0.0, 0.0),  # b4 filled per scenario
    loadings=(1.0, 0.0, 0.5),  # a2 filled per scenario
    nu_sd=1.0,
    sigma=0.5,
    spec_S1=SpectralSpec(1, 2, decay=0.0, variance=1.0),
    spec_S2=SpectralSpec(6, 10, decay=0.0, variance=1.0),
    spec_C=IidSpec(sd=1.0),
    e_sd=0.5,
    u_sd=0.0,
    m=32,
)
_SCENARIO_STRENGTHS = {
    SCENARIO_STRONG_EXPOSURE: {"a2": 2.0, "b4": 0.2},
    SCENARIO_STRONG_OUTCOME: {"a2": 0.2, "b4": 2.0},
}
DEFAULT_SCENARIO_MAX_FREQ = 10
_TRIO = (EstimatorKind.SPATIAL, EstimatorKind.SPATIAL_PLUS, EstimatorKind.GSEM)
UNSMOOTHED_KINDS = (EstimatorKind.NONSPATIAL_OLS, EstimatorKind.RSR)  # OLS, RSR's fixed rows


@dataclass(frozen=True)
class EstimatorSpec:
    """One estimator plus its basis / smoothing settings inside a plan.

    Checked when built, so that a bad plan fails before any dataset is
    drawn: ``kind`` is an ``EstimatorKind``; every kind but the non-spatial
    one needs ``max_freq``, an integer of at least 1 (its upper bound needs
    the grid); ``spatial-plus-lowfreq`` needs an integer ``cutoff`` in [1,
    max_freq]; a ``smoothing`` other than None must be one nonnegative real
    or a grid of distinct ones (the rule of ``pls``); and a setting its kind
    does not read is refused.  It is stored parsed, as None, a float or a
    tuple of floats: a spec hashes and compares by value, and a generator
    is read once.
    """

    kind: EstimatorKind
    max_freq: Optional[int] = None
    smoothing: Smoothing = None
    cutoff: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.kind, EstimatorKind):
            raise ValueError(f"estimator kind must be an EstimatorKind, got {self.kind!r}")
        if self.kind is EstimatorKind.NONSPATIAL_OLS and self.max_freq is not None:
            raise ValueError(f"estimator {self.name!r} reads no max_freq, got {self.max_freq!r}")
        if self.kind is not EstimatorKind.NONSPATIAL_OLS and self.max_freq is None:
            raise ValueError(f"estimator {self.name!r} needs max_freq for its basis")
        if self.max_freq is not None:
            _integer(self.max_freq, "max_freq", 1)
        if self.kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ:
            if self.cutoff is None:
                raise ValueError(f"estimator {self.name!r} needs a cutoff")
            _integer(self.cutoff, "cutoff", 1, self.max_freq)
        elif self.cutoff is not None:
            raise ValueError(f"estimator {self.name!r} reads no cutoff, got {self.cutoff!r}")
        if self.smoothing is not None and self.kind in UNSMOOTHED_KINDS:
            raise ValueError(f"estimator {self.name!r} reads no smoothing, got {self.smoothing!r}")
        if self.smoothing is not None:
            grid = _lambda_grid(self.smoothing)
            object.__setattr__(self, "smoothing", grid[0] if _is_real(self.smoothing) else grid)

    @property
    def name(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class MCPlan:
    """A full Monte Carlo specification; targets are computed from the
    config on every build, ``dataclasses.replace`` included.  ``R``, the
    replication count, is an integer of at least 1, ``master_seed`` any
    integer (both stored as ints), and each ``max_freq`` fits the grid."""

    config: ScenarioConfig
    estimators: tuple[EstimatorSpec, ...]
    R: int
    master_seed: int
    targets: EstimandSet = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "R", _integer(self.R, "replication count R", 1))
        object.__setattr__(self, "master_seed", _integer(self.master_seed, "master_seed", None))
        estimators = tuple(self.estimators)
        if not estimators:
            raise ValueError("plan needs at least one estimator")
        for spec in estimators:
            if not isinstance(spec, EstimatorSpec):
                raise ValueError(f"plan estimators must be EstimatorSpecs, got {spec!r}")
        names = [e.name for e in estimators]
        if len(set(names)) != len(names):
            raise ValueError(f"estimator kinds must be unique, got {names}")
        object.__setattr__(self, "estimators", estimators)
        _bases(self)
        object.__setattr__(self, "targets", compute_estimands(self.config))


@dataclass(frozen=True)
class CellStats:
    """Summary of one (estimator, target) cell over the replications."""

    target_value: float
    mean_bias: float
    mc_se_of_bias: float
    sd: float
    rmse: float
    coverage95: float
    mean_aic: float
    n_success: int
    n_failed: int
    sd_defined: bool


@dataclass(frozen=True)
class MCSummary:
    cells: dict[str, dict[str, CellStats]]  # estimator name -> target -> stats
    targets: EstimandSet
    config_hash: str
    master_seed: int
    R: int

    def to_dict(self) -> dict:
        return {
            "provenance": {
                "config_hash": self.config_hash,
                "master_seed": self.master_seed,
                "R": self.R,
            },
            "targets": self.targets.as_dict(),
            "cells": {
                est: {t: vars(stats).copy() for t, stats in per_target.items()}
                for est, per_target in self.cells.items()
            },
        }


def _bases(plan: MCPlan) -> dict[int, BasisSet]:
    """One Fourier basis per ``max_freq`` among the plan's estimators."""
    grid = make_grid(plan.config.m)
    bases: dict[int, BasisSet] = {}
    for spec in plan.estimators:
        if spec.max_freq is not None and spec.max_freq not in bases:
            bases[spec.max_freq] = fourier_basis(grid, spec.max_freq)
    return bases


def _replicate(plan: MCPlan, fit: Callable, n_jobs: int = 1) -> list:
    """``fit(obs)`` on each replication's dataset, in replication order."""

    def one(rep):
        ds = generate_dataset(plan.config, derive_seed(plan.master_seed, rep))
        return fit(ds.observations())

    if n_jobs > 1:
        # Imported here, so that importing the package loads no thread pool.
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=n_jobs) as pool:
            return list(pool.map(one, range(plan.R)))
    return [one(rep) for rep in range(plan.R)]


def _cells(betas: np.ndarray, aics: np.ndarray, targets: np.ndarray, R: int) -> list[dict]:
    """Every ``CellStats`` field but coverage, for each cell.

    Row i of the (cells x successful replications) ``betas`` and ``aics``
    is one cell, judged against ``targets[i]``, out of ``R`` replications.
    A row sums in replication order, as a 1-D array would, so a cell's bits
    do not depend on the rows beside it.
    """
    n = betas.shape[1]
    with np.errstate(divide="ignore", invalid="ignore"):  # NaN, not a warning, when n < 2
        mean = betas.sum(axis=1) / n
        ss = ((betas - mean[:, None]) ** 2).sum(axis=1)
        stats = {
            "target_value": targets,
            "mean_bias": mean - targets,
            "mc_se_of_bias": np.sqrt(ss / (n - 1)) / np.sqrt(n),
            # ddof=0 keeps rmse^2 = bias^2 + sd^2 exact
            "sd": np.sqrt(ss / n) if n > 1 else np.full(len(targets), np.nan),
            "rmse": np.sqrt(((betas - targets[:, None]) ** 2).sum(axis=1) / n),
            "mean_aic": aics.sum(axis=1) / n,
        }
    return [
        dict(zip(stats, row), n_success=n, n_failed=R - n, sd_defined=n > 1)
        for row in zip(*(v.tolist() for v in stats.values()))
    ]


def run_mc(plan: MCPlan, n_jobs: int = 1) -> MCSummary:
    """Execute the plan and summarize each estimator against each target.

    Estimator failures (collinearity, degenerate residuals, undefined
    estimands) are counted per estimator and never abort the run; any
    other exception is a bug and propagates.  The
    summary is deterministic for a fixed plan regardless of ``n_jobs``,
    which must be an integer of at least 1.
    """
    n_jobs = _integer(n_jobs, "n_jobs", 1)
    bases = _bases(plan)

    def fit(obs):
        out = {}
        for spec in plan.estimators:
            try:
                rec = fit_estimator(
                    spec.kind,
                    obs,
                    bases.get(spec.max_freq),
                    smoothing=spec.smoothing,
                    cutoff=spec.cutoff,
                )
                out[spec.name] = (rec.beta1_hat, rec.ci95[0], rec.ci95[1], rec.aic)
            except DegeneracyError:
                out[spec.name] = None
        return out

    results = _replicate(plan, fit, n_jobs)
    targets = np.array([getattr(plan.targets, t) for t in TARGET_NAMES])
    cells: dict[str, dict[str, CellStats]] = {}
    for spec in plan.estimators:
        ok = [result[spec.name] for result in results if result[spec.name] is not None]
        betas, lo, hi, aics = np.array(ok).reshape(-1, 4).T
        covered = (lo <= targets[:, None]) & (targets[:, None] <= hi)
        with np.errstate(invalid="ignore"):  # 0/0 is NaN when every fit failed
            coverage = (covered.sum(axis=1) / len(ok)).tolist()
        per_target = (targets.size, 1)
        stats = _cells(np.tile(betas, per_target), np.tile(aics, per_target), targets, plan.R)
        cells[spec.name] = {
            t: CellStats(coverage95=c, **kw) for t, c, kw in zip(TARGET_NAMES, coverage, stats)
        }
    return MCSummary(
        cells=cells,
        targets=plan.targets,
        config_hash=config_hash(plan.config),
        master_seed=plan.master_seed,
        R=plan.R,
    )


# ---------------------------------------------------------------------------
# Scenario experiments
# ---------------------------------------------------------------------------


def _with_strengths(config: ScenarioConfig, kind: str) -> ScenarioConfig:
    """``config`` with the scenario's exposure loading a2 and outcome weight b4."""
    if kind not in SCENARIO_KINDS:
        raise ValueError(f"scenario kind must be one of {SCENARIO_KINDS}, got {kind!r}")
    strength = _SCENARIO_STRENGTHS[kind]
    beta = list(config.beta)
    beta[4] = strength["b4"]
    loadings = list(config.loadings)
    loadings[1] = strength["a2"]
    return replace(config, beta=tuple(beta), loadings=tuple(loadings))


def scenario_config(kind: str) -> ScenarioConfig:
    """The pinned configuration for one confounding scenario."""
    return _with_strengths(_SCENARIO_BASE, kind)


def default_scenario_plan(
    kind: str,
    r: int = 500,
    master_seed: int = 20240501,
    max_freq: int = DEFAULT_SCENARIO_MAX_FREQ,
) -> MCPlan:
    """The ledgered default plan for a scenario experiment."""
    return MCPlan(
        config=scenario_config(kind),
        estimators=tuple(EstimatorSpec(kind=k, max_freq=max_freq) for k in _TRIO),
        R=r,
        master_seed=master_seed,
    )


@dataclass(frozen=True)
class ScenarioVerdict:
    """Outcome of one scenario: bias of each method vs the achieved target.

    ``holds`` means the expected winner has the smaller |bias|.
    ``margin_se`` is (|bias of expected loser| - |bias of expected winner|)
    divided by the combined MC standard error; above 2 means the ordering
    held clearly, and it is NaN when that error is not positive (one
    replication).  The gSEM comparison is reported, never asserted.
    """

    kind: str
    expected_winner: str
    bias: dict[str, float]
    mc_se: dict[str, float]
    abs_bias: dict[str, float]
    holds: bool
    margin_se: float
    gsem_not_worse_than_both: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ScenarioResult:
    kind: str
    plan: MCPlan
    summary: MCSummary
    verdict: ScenarioVerdict


def scenario_experiment(kind: str, base: MCPlan) -> ScenarioResult:
    """Run one confounding scenario and compare Spatial vs Spatial+.

    The scenario's strength settings (a2, b4) are imposed on the base
    plan's configuration, whose estimators must be the Spatial / Spatial+ /
    gSEM trio (``default_scenario_plan``).  Bias is judged against the
    achieved spatially-conditional target ``beta_cond_achieved``.
    """
    config = _with_strengths(base.config, kind)
    if {spec.kind for spec in base.estimators} != set(_TRIO):
        names = [spec.name for spec in base.estimators]
        raise ValueError(f"a scenario plan runs spatial, spatial-plus and gsem, got {names}")
    plan = replace(base, config=config)
    summary = run_mc(plan)

    cell = {k: summary.cells[k.value]["beta_cond_achieved"] for k in _TRIO}
    bias = {k.value: c.mean_bias for k, c in cell.items()}
    mc_se = {k.value: c.mc_se_of_bias for k, c in cell.items()}
    abs_bias = {k.value: abs(c.mean_bias) for k, c in cell.items()}
    if kind == SCENARIO_STRONG_EXPOSURE:
        winner, loser = EstimatorKind.SPATIAL_PLUS.value, EstimatorKind.SPATIAL.value
    else:
        winner, loser = EstimatorKind.SPATIAL.value, EstimatorKind.SPATIAL_PLUS.value
    combined = math.sqrt(mc_se[winner] ** 2 + mc_se[loser] ** 2)
    gap = abs_bias[loser] - abs_bias[winner]
    margin = gap / combined if combined > 0 else math.nan
    gsem_ok = abs_bias[EstimatorKind.GSEM.value] <= max(
        abs_bias[EstimatorKind.SPATIAL.value], abs_bias[EstimatorKind.SPATIAL_PLUS.value]
    )
    verdict = ScenarioVerdict(
        kind=kind,
        expected_winner=winner,
        bias=bias,
        mc_se=mc_se,
        abs_bias=abs_bias,
        holds=gap > 0,
        margin_se=margin,
        gsem_not_worse_than_both=gsem_ok,
    )
    return ScenarioResult(kind=kind, plan=plan, summary=summary, verdict=verdict)


# ---------------------------------------------------------------------------
# AIC versus bias
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AicBiasRow:
    lam: float
    mean_aic: float
    mean_bias: float
    abs_mean_bias: float
    mc_se_of_bias: float


@dataclass(frozen=True)
class AicBiasResult:
    """Mean AIC and bias of the Spatial model per fixed smoothing value.

    ``flag`` is true when some lambda beats lambda = 0 on AIC while its
    absolute bias (against the achieved spatially-conditional target) is
    larger by more than two combined MC standard errors.
    """

    rows: tuple[AicBiasRow, ...]
    flag: bool
    flagged_lambdas: tuple[float, ...]
    target: float
    R: int
    n_failed: int

    def to_dict(self) -> dict:
        return {
            "rows": [vars(r).copy() for r in self.rows],
            "flag": self.flag,
            "flagged_lambdas": list(self.flagged_lambdas),
            "target": self.target,
            "R": self.R,
            "n_failed": self.n_failed,
        }


def default_aic_plan(
    r: int = 300, master_seed: int = 20240707, max_freq: int = DEFAULT_SCENARIO_MAX_FREQ
) -> MCPlan:
    """Default plan for the AIC experiment: the high-frequency-confounder
    scenario where the confounder drives the exposure."""
    return MCPlan(
        config=scenario_config(SCENARIO_STRONG_EXPOSURE),
        estimators=(EstimatorSpec(kind=EstimatorKind.SPATIAL, max_freq=max_freq),),
        R=r,
        master_seed=master_seed,
    )


def aic_bias_experiment(
    base: MCPlan, lambda_grid: Optional[Sequence[float]] = None
) -> AicBiasResult:
    """Fit Spatial at every fixed lambda and tabulate mean AIC vs mean bias.

    The grid, read as every fit reads one (its rows in the order given),
    must hold lambda = 0 (the unpenalized reference row); the plan must carry a
    Spatial estimator, whose ``max_freq`` sets the basis; both are checked
    before any dataset is drawn.  Replications where the unpenalized design
    is collinear are dropped (and counted) for every lambda, keeping rows
    comparable.
    """
    grid_lams = _lambda_grid(lambda_grid)
    if 0.0 not in grid_lams:
        raise ValueError("lambda grid must include 0 (the unpenalized reference)")
    spatial = next((s for s in base.estimators if s.kind is EstimatorKind.SPATIAL), None)
    if spatial is None:
        names = [spec.name for spec in base.estimators]
        raise ValueError(f"the AIC experiment needs a spatial estimator, got {names}")
    b = _bases(base)[spatial.max_freq]
    target = base.targets.beta_cond_achieved

    def fit(obs):  # (exposure coefficients, AICs) per lambda
        fixed = np.column_stack([np.ones(obs.grid.n), obs.Z, obs.C])
        try:
            sweep = sweep_lambda(obs.Y, fixed, b, grid_lams, OUTCOME_NAMES)
        except DegeneracyError:
            return None
        return sweep.fixed_coefs[:, 1], sweep.aic

    fits = [f for f in _replicate(base, fit) if f is not None]
    if not fits:
        raise DegeneracyError("every replication failed; no AIC/bias table to build")
    # (n_lambda, R_ok) each; row i is the run_mc cell of Spatial at lambda i.
    betas, aics = np.stack(fits, axis=-1)
    cells = _cells(betas, aics, np.full(len(grid_lams), target), base.R)
    rows = tuple(
        AicBiasRow(lam, c["mean_aic"], c["mean_bias"], abs(c["mean_bias"]), c["mc_se_of_bias"])
        for lam, c in zip(grid_lams, cells)
    )
    ref = rows[grid_lams.index(0.0)]
    flagged = []
    for r in rows:
        combined = math.sqrt(r.mc_se_of_bias**2 + ref.mc_se_of_bias**2)
        if (
            r.mean_aic < ref.mean_aic
            and combined > 0
            and r.abs_mean_bias - ref.abs_mean_bias > 2.0 * combined
        ):
            flagged.append(r.lam)
    return AicBiasResult(
        rows=rows,
        flag=bool(flagged),
        flagged_lambdas=tuple(flagged),
        target=float(target),
        R=base.R,
        n_failed=cells[0]["n_failed"],
    )


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------


def summary_to_csv(summary: MCSummary, path) -> None:
    """One row per (estimator, target) cell, long format, with every
    ``CellStats`` field but ``sd_defined``."""
    fields = [f for f in CellStats.__dataclass_fields__ if f != "sd_defined"]
    rows = (
        (est, t, *(getattr(c, f) for f in fields))
        for est, per_target in summary.cells.items()
        for t, c in per_target.items()
    )
    _write_csv(path, ("estimator", "target", *fields), rows)


def aic_table_to_csv(result: AicBiasResult, path) -> None:
    _write_csv(
        path,
        ("lambda", "mean_aic", "mean_bias", "abs_mean_bias", "mc_se_of_bias"),
        (vars(r).values() for r in result.rows),
    )
