"""Batch command-line front end.

Subcommands: simulate | fit | mc | targets | scenario | aic-bias.

Exit codes: 0 success, 2 usage or config problems, 3 I/O failures,
4 statistical degeneracy (collinear designs, fully spatial exposures,
undefined estimands).  Every output file gets a ``<file>.manifest.json``
sidecar recording the resolved config, seed, and argv needed to reproduce
it byte for byte, with the numpy version and the BLAS thread variables
(the last bits of a fit can depend on the BLAS thread count).  JSON output
is strict: a non-finite value (an MC-SE at one replication, say) is written
as null, so smoothing values must be finite.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from dataclasses import replace
from typing import Optional

import numpy as np

from . import __version__
from .dgp import (
    config_to_dict,
    config_hash,
    dataset_to_csv,
    generate_dataset,
    load_config,
    read_observations_csv,
)
from .errors import ConfigError, DegeneracyError
from .estimators import EstimatorKind, fit_estimator
from .basis import fourier_basis
from .mc import (
    DEFAULT_SCENARIO_MAX_FREQ,
    EstimatorSpec,
    MCPlan,
    SCENARIO_KINDS,
    aic_bias_experiment,
    aic_table_to_csv,
    default_aic_plan,
    default_scenario_plan,
    run_mc,
    scenario_experiment,
    summary_to_csv,
)
from .oracle import compute_estimands

ESTIMATOR_NAMES = tuple(kind.value for kind in EstimatorKind)
_THREAD_ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _finite_or_null(obj):
    """``obj`` with every NaN or infinite float replaced by None (JSON null)."""
    if isinstance(obj, dict):
        return {k: _finite_or_null(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite_or_null(v) for v in obj]
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _dump_json(obj, fh) -> None:
    json.dump(_finite_or_null(obj), fh, indent=2, sort_keys=True, allow_nan=False)
    fh.write("\n")


def _write_manifest(out_path: str, subcommand: str, argv, config=None, config_path=None,
                    master_seed=None, outputs=()):
    manifest = {
        "subcommand": subcommand,
        "argv": list(argv),
        "config_path": config_path,
        "config": None if config is None else config_to_dict(config),
        "config_hash": None if config is None else config_hash(config),
        "master_seed": master_seed,
        "outputs": list(outputs),
        "tool_version": __version__,
        "numpy_version": np.__version__,
        "thread_env": {name: os.environ.get(name) for name in _THREAD_ENV_VARS},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(f"{out_path}.manifest.json", "w", encoding="utf-8") as fh:
        _dump_json(manifest, fh)


def _write_outputs(args, argv, config, write_csv, payload) -> int:
    """``<out>.csv`` by ``write_csv``, ``payload`` as ``<out>.json``, and the manifest."""
    csv_path, json_path = f"{args.out}.csv", f"{args.out}.json"
    write_csv(csv_path)
    with open(json_path, "w", encoding="utf-8") as fh:
        _dump_json(payload, fh)
    _write_manifest(
        args.out, args.subcommand, argv, config=config, config_path=args.config,
        master_seed=args.seed, outputs=[csv_path, json_path],
    )
    return 0


def _max_freq(args, m: int) -> int:
    """``--max-freq`` if given, else the largest basis size up to
    ``DEFAULT_SCENARIO_MAX_FREQ`` that an m-point grid side allows."""
    return min(DEFAULT_SCENARIO_MAX_FREQ, (m - 1) // 2) if args.max_freq is None else args.max_freq


def finite_float(text: str) -> float:
    """A smoothing value: a float, and finite, since JSON writes infinity as null."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"smoothing values must be finite, got {text!r}")
    return value


def _parse_lambdas(text: str):
    try:
        values = [finite_float(v) for v in text.split(",") if v.strip() != ""]
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ConfigError(f"bad lambda list {text!r}: {exc}") from exc
    if not values:
        raise ConfigError("lambda list is empty")
    return values


def cmd_simulate(args, argv) -> int:
    config = load_config(args.config)
    ds = generate_dataset(config, args.seed)
    dataset_to_csv(ds, args.out, latent=args.latent)
    _write_manifest(
        args.out, "simulate", argv, config=config, config_path=args.config,
        master_seed=args.seed, outputs=[args.out],
    )
    return 0


def cmd_fit(args, argv) -> int:
    obs = read_observations_csv(args.data)
    kind = EstimatorKind(args.estimator)
    basis = None
    if kind is not EstimatorKind.NONSPATIAL_OLS:
        basis = fourier_basis(obs.grid, _max_freq(args, obs.grid.m))
    smoothing = _parse_lambdas(args.lambda_grid) if args.lambda_grid else args.lam
    record = fit_estimator(
        kind,
        obs,
        basis,
        smoothing=smoothing,
        cutoff=args.cutoff,
        include_c_in_stage1=not args.no_c_in_stage1,
    )
    _dump_json(record.to_dict(), sys.stdout)
    return 0


def cmd_targets(args, argv) -> int:
    config = load_config(args.config)
    targets = compute_estimands(config)
    _dump_json(targets.as_dict(), sys.stdout)
    return 0


def _estimator_specs(names, max_freq, cutoff, lam) -> tuple[EstimatorSpec, ...]:
    specs = []
    for name in names:
        kind = EstimatorKind(name)
        specs.append(
            EstimatorSpec(
                kind=kind,
                max_freq=None if kind is EstimatorKind.NONSPATIAL_OLS else max_freq,
                smoothing=lam,
                cutoff=cutoff if kind is EstimatorKind.SPATIAL_PLUS_LOWFREQ else None,
            )
        )
    return tuple(specs)


def cmd_mc(args, argv) -> int:
    config = load_config(args.config)
    names = [n.strip() for n in args.estimators.split(",") if n.strip()]
    for n in names:
        if n not in ESTIMATOR_NAMES:
            raise ConfigError(
                f"unknown estimator {n!r}; valid names: {', '.join(ESTIMATOR_NAMES)}"
            )
    max_freq = _max_freq(args, config.m)
    if "spatial-plus-lowfreq" in names and args.cutoff is None:
        raise ConfigError("spatial-plus-lowfreq requires --cutoff")
    plan = MCPlan(
        config=config,
        estimators=_estimator_specs(names, max_freq, args.cutoff, args.lam),
        R=args.reps,
        master_seed=args.seed,
    )
    summary = run_mc(plan, n_jobs=args.threads)
    return _write_outputs(
        args, argv, config, lambda path: summary_to_csv(summary, path), summary.to_dict()
    )


def _with_config(plan: MCPlan, args) -> MCPlan:
    """The plan on the ``--config`` file, if given, with ``--max-freq`` as the
    basis size of its estimators; without ``--max-freq`` the size follows
    the config's grid side, as in ``fit`` and ``mc``."""
    config = plan.config if args.config is None else load_config(args.config)
    max_freq = _max_freq(args, config.m)
    estimators = tuple(replace(spec, max_freq=max_freq) for spec in plan.estimators)
    return replace(plan, config=config, estimators=estimators)


def cmd_scenario(args, argv) -> int:
    base = _with_config(default_scenario_plan(args.kind, r=args.reps, master_seed=args.seed), args)
    result = scenario_experiment(args.kind, base)
    payload = {"verdict": result.verdict.to_dict(), "summary": result.summary.to_dict()}
    return _write_outputs(
        args, argv, result.plan.config, lambda path: summary_to_csv(result.summary, path),
        payload,
    )


def cmd_aic_bias(args, argv) -> int:
    base = _with_config(default_aic_plan(r=args.reps, master_seed=args.seed), args)
    lambdas = _parse_lambdas(args.lambdas) if args.lambdas else None
    result = aic_bias_experiment(base, lambdas)
    return _write_outputs(
        args, argv, base.config, lambda path: aic_table_to_csv(result, path), result.to_dict()
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spatialconfound",
        description="Spatial-confounding simulation and estimation laboratory.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("simulate", help="generate a dataset CSV from a config")
    p.add_argument("--config", required=True, help="scenario config JSON")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--latent", action="store_true", help="include latent field columns")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="fit one estimator on a dataset CSV")
    p.add_argument("--data", required=True, help="dataset CSV (x,y,Z,C,Y)")
    p.add_argument("--estimator", required=True, choices=ESTIMATOR_NAMES)
    p.add_argument("--max-freq", type=int, default=None, dest="max_freq")
    smoothing = p.add_mutually_exclusive_group()
    smoothing.add_argument("--lam", type=finite_float, default=None,
                           help="fixed smoothing value (default: GCV, 0 for spatial-plus-lowfreq)")
    smoothing.add_argument("--lambda-grid", default=None, dest="lambda_grid",
                           help="comma-separated GCV grid")
    p.add_argument("--cutoff", type=int, default=None,
                   help="frequency cutoff for spatial-plus-lowfreq")
    p.add_argument("--no-c-in-stage1", action="store_true", dest="no_c_in_stage1",
                   help="exclude C from the Spatial+ exposure model")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("targets", help="print the population estimands for a config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=cmd_targets)

    p = sub.add_parser("mc", help="run a Monte Carlo study")
    p.add_argument("--config", required=True)
    p.add_argument("--estimators", default="nonspatial,spatial,spatial-plus,gsem",
                   help=f"comma-separated subset of: {', '.join(ESTIMATOR_NAMES)}")
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-freq", type=int, default=None, dest="max_freq")
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--lam", type=finite_float, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads for replications (default: 1)")
    p.add_argument("--out", required=True, help="output path stem (.csv/.json appended)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("scenario", help="run one of the two confounding scenarios")
    p.add_argument("--kind", required=True, choices=SCENARIO_KINDS)
    p.add_argument("--config", default=None, help="override the default base config")
    p.add_argument("--reps", type=int, default=500)
    p.add_argument("--seed", type=int, default=20240501)
    p.add_argument("--max-freq", type=int, default=None, dest="max_freq")
    p.add_argument("--out", required=True, help="output path stem (.csv/.json appended)")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("aic-bias", help="tabulate mean AIC vs bias over smoothing values")
    p.add_argument("--config", default=None)
    p.add_argument("--reps", type=int, default=300)
    p.add_argument("--seed", type=int, default=20240707)
    p.add_argument("--max-freq", type=int, default=None, dest="max_freq")
    p.add_argument("--lambdas", default=None, help="comma-separated lambda table")
    p.add_argument("--out", required=True, help="output path stem (.csv/.json appended)")
    p.set_defaults(func=cmd_aic_bias)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DegeneracyError as exc:
        print(f"degenerate: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    run()
