"""Simulation and estimation laboratory for spatial confounding.

Generates data from an additive spatial model with a confounded exposure,
fits six exposure-coefficient estimators (non-spatial OLS, RSR, Spatial,
Spatial+, gSEM, and a low-frequency-restricted Spatial+), computes the
population estimation targets in closed form, and runs Monte Carlo
experiments about smoothing, confounder frequency, and AIC.
"""

__version__ = "0.1.0"

from .basis import BasisSet, empty_basis, fourier_basis
from .dgp import (
    Dataset,
    Observations,
    ScenarioConfig,
    config_from_dict,
    config_hash,
    config_to_dict,
    dataset_to_csv,
    exposure_spatial_fraction,
    generate_dataset,
    load_config,
    read_observations_csv,
    save_config,
)
from .errors import (
    AliasingError,
    CollinearityError,
    ConfigError,
    DegeneracyError,
    DegenerateExposureError,
    DegenerateResidualError,
    EstimandUndefinedError,
)
from .estimators import (
    EstimateRecord,
    EstimatorKind,
    fit_estimator,
    fit_gsem,
    fit_nonspatial,
    fit_rsr,
    fit_spatial,
    fit_spatial_plus,
    fit_spatial_plus_lowfreq,
)
from .fields import (
    IidSpec,
    LocationGrid,
    SpectralSpec,
    derive_seed,
    field_dft_energy,
    frequency_pairs,
    make_grid,
    sample_field,
    sample_grf,
    sample_iid,
)
from .mc import (
    AicBiasResult,
    CellStats,
    EstimatorSpec,
    MCPlan,
    MCSummary,
    ScenarioResult,
    ScenarioVerdict,
    SCENARIO_KINDS,
    SCENARIO_STRONG_EXPOSURE,
    SCENARIO_STRONG_OUTCOME,
    aic_bias_experiment,
    aic_table_to_csv,
    default_aic_plan,
    default_scenario_plan,
    run_mc,
    scenario_config,
    scenario_experiment,
    summary_to_csv,
)
from .oracle import EstimandSet, compute_estimands, population_covariance
from .pls import (
    DEFAULT_LAMBDA_GRID,
    LambdaSweep,
    StageFit,
    fit_pls,
    project_out,
    select_lambda_gcv,
    sweep_lambda,
)
