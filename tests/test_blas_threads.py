"""Summaries do not depend on the number of BLAS threads.

Each run happens in a fresh process, because OpenBLAS reads its thread count
once, at import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# A scenario experiment, an AIC table and an unpenalized run_mc plan, small.
SCRIPT = """
import json
from dataclasses import replace
from spatialconfound import (
    EstimatorKind, EstimatorSpec, MCPlan, aic_bias_experiment, default_aic_plan,
    default_scenario_plan, run_mc, scenario_config, scenario_experiment,
)
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE as KIND

scenario = scenario_experiment(KIND, default_scenario_plan(KIND, r=4, master_seed=11))
aic = aic_bias_experiment(default_aic_plan(r=4, master_seed=12))
unpenalized = (
    EstimatorSpec(kind=EstimatorKind.NONSPATIAL_OLS),
    EstimatorSpec(kind=EstimatorKind.RSR, max_freq=10),
    EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS, max_freq=10, smoothing=0.0),
    EstimatorSpec(kind=EstimatorKind.SPATIAL_PLUS_LOWFREQ, max_freq=10, cutoff=2),
)
plan = MCPlan(config=replace(scenario_config(KIND), e_sd=0.0), estimators=unpenalized, R=4,
              master_seed=13)
out = [scenario.summary.to_dict(), scenario.verdict.to_dict(), aic.to_dict(),
       run_mc(plan).to_dict()]
print(json.dumps(out, sort_keys=True))
"""


def summaries_at(threads: int) -> bytes:
    env = dict(os.environ, OPENBLAS_NUM_THREADS=str(threads))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    return proc.stdout


@pytest.mark.skipif(
    len(os.sched_getaffinity(0)) < 2,
    reason="one CPU available: OpenBLAS caps its threads at the CPUs, so 2 threads would run as 1",
)
def test_summaries_identical_at_one_and_two_blas_threads():
    one = summaries_at(1)
    assert one.startswith(b"[{") and one == summaries_at(2)
