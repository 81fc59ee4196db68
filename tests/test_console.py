"""The command line as a user runs it: ``python -m spatialconfound`` in a
fresh process, in a temporary directory, with a RuntimeWarning an error.
``tests/test_cli.py`` covers the rest in process, through ``main()``."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spatialconfound import save_config, scenario_config
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE

SRC = Path(__file__).resolve().parents[1] / "src"


def spatialconfound(cwd, *args) -> subprocess.CompletedProcess:
    """Run the package's command line in ``cwd``."""
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "spatialconfound", *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the strong-exposure scenario's config.json and
    its seed-1 dataset, data.csv."""
    cwd = tmp_path_factory.mktemp("console")
    save_config(scenario_config(SCENARIO_STRONG_EXPOSURE), cwd / "config.json")
    proc = spatialconfound(cwd, "simulate", "--config", "config.json", "--seed", "1",
                           "--out", "data.csv")
    assert proc.returncode == 0, proc.stderr
    return cwd


def test_negative_seed_recorded(workdir):
    # Any integer is a seed, negative ones included, and the manifest records it.
    proc = spatialconfound(workdir, "simulate", "--config", "config.json", "--seed", "-3",
                           "--out", "neg.csv")
    assert proc.returncode == 0, proc.stderr
    assert json.loads((workdir / "neg.csv.manifest.json").read_text())["master_seed"] == -3


@pytest.mark.parametrize(
    "estimator", ["nonspatial", "rsr", "spatial", "spatial-plus", "gsem", "spatial-plus-lowfreq"]
)
def test_fit_at_the_default_basis(workdir, estimator):
    cutoff = ["--cutoff", "2"] if estimator == "spatial-plus-lowfreq" else []
    proc = spatialconfound(workdir, "fit", "--data", "data.csv", "--estimator", estimator, *cutoff)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)
    assert record["kind"] == estimator
    if cutoff:  # Spatial+-lowfreq's default smoothing is lambda = 0 in both stages.
        assert record["lambdas"] == {"exposure": 0.0, "outcome": 0.0}


@pytest.mark.parametrize("estimator", ["spatial-plus", "gsem"])
def test_constant_exposure_exit_4(workdir, estimator):
    # A constant exposure, whatever the constant, is a degenerate exposure residual.
    with open(workdir / "data.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    with open(workdir / "constant.csv", "w", newline="") as fh:
        out = csv.DictWriter(fh, rows[0])
        out.writeheader()
        out.writerows({**r, "Z": "1.3"} for r in rows)
    proc = spatialconfound(workdir, "fit", "--data", "constant.csv", "--estimator", estimator)
    assert proc.returncode == 4, proc.stderr
    assert "exposure residuals are numerically zero" in proc.stderr


def test_zero_reps_exit_2(workdir):
    proc = spatialconfound(workdir, "mc", "--config", "config.json", "--estimators",
                           "nonspatial", "--reps", "0", "--out", "bad")
    assert proc.returncode == 2, proc.stderr


def test_misspelled_spec_entry_exit_2(workdir):
    # A spec entry its kind does not have is refused, and named.
    doc = json.loads((workdir / "config.json").read_text())
    doc["spec_S1"]["decya"] = doc["spec_S1"].pop("decay")
    (workdir / "typo.json").write_text(json.dumps(doc))
    proc = spatialconfound(workdir, "simulate", "--config", "typo.json", "--seed", "1",
                           "--out", "typo.csv")
    assert proc.returncode == 2 and "decya" in proc.stderr


def test_repeated_header_exit_2(workdir):
    rows = (workdir / "data.csv").read_text().splitlines()
    repeated = [rows[0] + ",Z"] + [r + ",0" for r in rows[1:]]
    (workdir / "repeated.csv").write_text("\n".join(repeated) + "\n")
    proc = spatialconfound(workdir, "fit", "--data", "repeated.csv", "--estimator", "spatial")
    assert proc.returncode == 2 and "repeats columns: Z" in proc.stderr
