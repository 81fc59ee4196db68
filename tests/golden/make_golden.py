"""Golden records: the numbers and errors a refactor must keep.

Run ``python tests/golden/make_golden.py`` from the repository root to
write ``records.json`` beside this file.  ``tests/test_golden.py`` builds
the same records from the code under test and compares them with
``compare``: beta, SE, edf and GCV within 1e-12 relative, each AIC within
1e-12 of the largest entry of its row, and smoothing choices, counts, flags
and errors exactly.  Regenerate the file only with this script, and say
why wherever the change is recorded.  The tolerances hold on the numpy and
BLAS build that wrote the file, not across builds (README, "Install and
test").

The records:

- ``fits``: ``fit_estimator`` of all six kinds on both scenarios at m = 24,
  32 and 128 (``max_freq`` 10), seeds 0 and 1, with the basis passed for
  every kind, and smoothing None, 0, 3.7 and [0, 1, 10] for the kinds that
  read one (Spatial+-lowfreq at cutoff 2);
- ``sweeps``: the Spatial outcome stage on the default grid for the same
  datasets (GCV, edf, AIC and the exposure coefficient per lambda);
- ``errors``: the error cases of ``tests/test_pls.py``, as type, columns
  and message with its rcond digits masked;
- ``summaries``: the ``to_dict()`` of both scenario experiments, of the
  default AIC experiment and of ``run_mc`` on the benchmark's
  ``unpenalized`` plan, each at R = 20.
"""

from __future__ import annotations

import json
import math
import re
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
RECORDS = HERE / "records.json"
if __name__ == "__main__":
    sys.path.insert(0, str(HERE.parents[1] / "src"))

from spatialconfound import (  # noqa: E402
    EstimatorKind,
    EstimatorSpec,
    MCPlan,
    aic_bias_experiment,
    default_aic_plan,
    default_scenario_plan,
    empty_basis,
    fit_estimator,
    fit_pls,
    fourier_basis,
    generate_dataset,
    make_grid,
    project_out,
    run_mc,
    scenario_config,
    scenario_experiment,
    select_lambda_gcv,
    sweep_lambda,
)
from spatialconfound.errors import DegeneracyError  # noqa: E402
from spatialconfound.estimators import OUTCOME_NAMES  # noqa: E402
from spatialconfound.mc import SCENARIO_KINDS, SCENARIO_STRONG_EXPOSURE  # noqa: E402
from spatialconfound.pls import sweep_moments  # noqa: E402

REL_TOL = 1e-12
GRID_SIDES = (24, 32, 128)
SEEDS = (0, 1)
MAX_FREQ = 10
CUTOFF = 2
SMOOTHINGS = {"gcv": None, "lam0": 0.0, "lam3.7": 3.7, "grid": [0.0, 1.0, 10.0]}
SMOOTHED = (
    EstimatorKind.SPATIAL,
    EstimatorKind.SPATIAL_PLUS,
    EstimatorKind.GSEM,
    EstimatorKind.SPATIAL_PLUS_LOWFREQ,
)
R = 20

# The benchmark's ``unpenalized`` plan: every fit a one- or two-point grid.
UNPENALIZED = (
    EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
    EstimatorSpec(kind=EstimatorKind.RSR, max_freq=MAX_FREQ),
    EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS, max_freq=MAX_FREQ, smoothing=0.0),
    EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ, max_freq=MAX_FREQ, cutoff=CUTOFF),
)


def _error(exc: Exception) -> dict:
    message = re.sub(r"rcond [0-9.e+-]+", "rcond <masked>", str(exc))
    return {"type": type(exc).__name__, "columns": list(getattr(exc, "columns", ())),
            "message": message}


def _fit_record(kind, obs, b, smoothing) -> dict:
    cutoff = CUTOFF if kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ else None
    try:
        rec = fit_estimator(kind, obs, b, smoothing=smoothing, cutoff=cutoff).to_dict()
    except DegeneracyError as exc:
        return {"error": _error(exc)}
    del rec["ci95"]  # worked out from beta1_hat and se
    return rec


def fit_records() -> tuple[dict, dict]:
    fits, sweeps = {}, {}
    for which in SCENARIO_KINDS:
        for m in GRID_SIDES:
            config = replace(scenario_config(which), m=m)
            b = fourier_basis(make_grid(m), MAX_FREQ)
            for seed in SEEDS:
                obs = generate_dataset(config, seed).observations()
                key = f"{which}/m{m}/seed{seed}"
                for kind in EstimatorKind:
                    labels = SMOOTHINGS if kind in SMOOTHED else {"default": None}
                    for label, smoothing in labels.items():
                        fits[f"{key}/{kind.value}/{label}"] = _fit_record(kind, obs, b, smoothing)
                sweep = sweep_moments(obs.moments(b), None, OUTCOME_NAMES)
                sweeps[key] = {
                    "beta1_hat": sweep.fixed_coefs[:, 1].tolist(),
                    "edf": sweep.edf.tolist(),
                    "gcv": sweep.gcv.tolist(),
                    "aic": sweep.aic.tolist(),
                }
    return fits, sweeps


def _error_cases():
    """The inputs of the error cases of ``tests/test_pls.py``, by name."""
    cases = {}
    grid6, grid8, grid4 = make_grid(6), make_grid(8), make_grid(4)

    rng = np.random.default_rng(13)
    z = rng.normal(size=grid6.n)
    F = np.column_stack([np.ones(grid6.n), z, z])
    y = rng.normal(size=grid6.n)
    cases["duplicate-fixed-column"] = lambda: fit_pls(
        y, F, empty_basis(grid6), 0.0, ["intercept", "Z", "Zcopy"]
    )

    b2 = fourier_basis(grid8, 2)
    columns = b2.synthesize(np.eye(b2.p))
    F_span = np.column_stack([np.ones(grid8.n), columns[:, 0] + 0.5 * columns[:, 3]])
    y14 = np.random.default_rng(14).normal(size=grid8.n)
    cases["fixed-in-basis-span-lam0"] = lambda: fit_pls(y14, F_span, b2, 0.0, ["intercept", "Z"])
    y23 = np.random.default_rng(23).normal(size=grid8.n)
    for call in (sweep_lambda, select_lambda_gcv):
        cases[f"fixed-in-basis-span-grid/{call.__name__}"] = (
            lambda call=call: call(y23, F_span, b2, [0.0, 1.0], ["intercept", "Z"])
        )

    rng = np.random.default_rng(22)
    z = rng.normal(size=grid8.n)
    F_dup = np.column_stack([np.ones(grid8.n), z, z])
    y22 = rng.normal(size=grid8.n)
    for grid in ([0.0], [0.0, 1.0], [1.0]):
        for call in (sweep_lambda, select_lambda_gcv):
            cases[f"fixed-before-joint/{grid}/{call.__name__}"] = (
                lambda call=call, grid=grid: call(
                    y22, F_dup, b2, grid, ["intercept", "Z", "Zcopy"]
                )
            )

    F_ones = np.column_stack([np.ones(grid4.n), np.ones(grid4.n)])
    cases["positive-lambda-fixed-rank"] = lambda: fit_pls(
        np.arange(grid4.n, dtype=float), F_ones, empty_basis(grid4), 2.0
    )
    b1 = fourier_basis(grid4, 1)
    F_wide = np.column_stack(
        [np.ones(16), np.linspace(0, 1, 16)] + [np.eye(16)[:, i] for i in range(7)]
    )
    cases["more-columns-than-rows/basis"] = lambda: fit_pls(np.ones(16), F_wide, b1, 0.0)
    wide = np.column_stack([np.eye(16), np.ones(16)])
    cases["more-columns-than-rows/empty"] = lambda: fit_pls(
        np.ones(16), wide, empty_basis(grid4), 0.0
    )

    rng = np.random.default_rng(12)
    b3 = fourier_basis(grid8, 3)
    F3 = np.column_stack([np.ones(grid8.n), rng.normal(size=(grid8.n, 2))])
    y12 = rng.normal(size=grid8.n)
    bad_grids = {
        "empty": [], "repeated": [1.0, 1.0], "negative": [-1.0, 2.0], "str": "12",
        "bool": True, "np-bool": np.True_, "bool-in-grid": [True, 2.0],
        "str-in-grid": [0.0, "1"],
    }
    for label, grid in bad_grids.items():
        for call in (select_lambda_gcv, sweep_lambda):
            cases[f"bad-grid/{label}/{call.__name__}"] = (
                lambda call=call, grid=grid: call(y12, F3, b3, grid)
            )
    cases["negative-lambda"] = lambda: fit_pls(y12, F3, b3, -1.0)
    cases["basis-of-another-grid"] = lambda: select_lambda_gcv(
        y12, F3, fourier_basis(make_grid(6), 2)
    )
    cases["project-out-rank-deficient"] = lambda: project_out(
        np.arange(10.0), np.column_stack([np.ones(10), np.ones(10)])
    )
    return cases


def error_records() -> dict:
    out = {}
    for name, call in _error_cases().items():
        try:
            call()
        except (ValueError, DegeneracyError) as exc:
            out[name] = _error(exc)
        else:
            out[name] = None
    return out


def summary_records() -> dict:
    out = {}
    for which in SCENARIO_KINDS:
        result = scenario_experiment(which, default_scenario_plan(which, r=R))
        out[f"scenario/{which}"] = {
            "verdict": result.verdict.to_dict(), "summary": result.summary.to_dict()
        }
    out["aic"] = aic_bias_experiment(default_aic_plan(r=R)).to_dict()
    config = replace(scenario_config(SCENARIO_STRONG_EXPOSURE), e_sd=0.0)
    plan = MCPlan(config=config, estimators=UNPENALIZED, R=R, master_seed=0)
    out["unpenalized"] = run_mc(plan).to_dict()
    return out


def collect() -> dict:
    fits, sweeps = fit_records()
    return {"fits": fits, "sweeps": sweeps, "errors": error_records(),
            "summaries": summary_records()}


# Smoothing choices are read off a grid, never rounded: they must be equal.
_EXACT_KEYS = {"lambdas", "lam", "flagged_lambdas", "cutoff"}


def _scale_of(values) -> float:
    return max((abs(v) for v in values if isinstance(v, float) and math.isfinite(v)), default=0.0)


def compare(want, got, path: str = "", scale=None, row_scales=None) -> list[str]:
    """Where ``got`` leaves the golden ``want``: one line per mismatch.

    A float agrees within ``REL_TOL`` of itself, or of ``scale``: the
    largest entry of its AIC row, which is a list under an AIC key or an
    AIC column of a table (a list of dicts).  NaN agrees with NaN and an
    infinity with itself; everything else must be equal."""
    key = path.rsplit("/", 1)[-1]
    if key in _EXACT_KEYS or type(want) is not type(got):
        return [] if want == got else [f"{path}: {got!r} != {want!r}"]
    if isinstance(want, dict):
        if set(want) != set(got):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        row_scales = row_scales or {}
        return [line for k in want
                for line in compare(want[k], got[k], f"{path}/{k}", row_scales.get(k))]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(got)} != {len(want)}"]
        if want and all(isinstance(w, dict) for w in want):
            aic = {k: _scale_of([row[k] for row in want]) for k in want[0] if "aic" in k}
            return [line for i, (w, g) in enumerate(zip(want, got))
                    for line in compare(w, g, f"{path}/{i}", row_scales=aic)]
        scale = _scale_of(want) if "aic" in key else scale
        return [line for i, (w, g) in enumerate(zip(want, got))
                for line in compare(w, g, f"{path}/{i}", scale)]
    if isinstance(want, float) and math.isfinite(want) and math.isfinite(got):
        bound = REL_TOL * (abs(want) if scale is None else scale)
        if abs(got - want) <= bound:
            return []
        return [f"{path}: {got!r} != {want!r} (off by {abs(got - want):.3g}, bound {bound:.3g})"]
    if isinstance(want, float) and math.isnan(want) and math.isnan(got):
        return []
    return [] if want == got else [f"{path}: {got!r} != {want!r}"]


def main() -> None:
    with open(RECORDS, "w") as fh:
        json.dump(collect(), fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {RECORDS}")


if __name__ == "__main__":
    main()
