"""The FFT products of a Fourier basis and ``sample_grf`` against the dense
cos/sin formulas they replace."""

import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from spatialconfound import (
    BasisSet,
    SpectralSpec,
    fourier_basis,
    frequency_pairs,
    make_grid,
    sample_grf,
)
from support import fourier_columns

ROOT = Path(__file__).resolve().parents[1]
SIDES = [4, 5, 8, 16, 31, 32, 64]
TOL = 1e-12


def rel_err(got, ref):
    return np.abs(got - ref).max() / np.abs(ref).max()


def dense_grf(grid, spec, seed):
    """``sample_grf`` by the dense cos/sin sum over the band's pairs."""
    pairs = frequency_pairs(spec.k_min, spec.k_max)
    coefs = np.random.Generator(np.random.Philox(seed)).standard_normal((len(pairs), 2))
    damp = np.maximum(np.abs(pairs).max(axis=1), 1) ** (-float(spec.decay))
    phases = 2.0 * np.pi * (grid.coords @ pairs.T.astype(float))
    values = np.cos(phases) @ (coefs[:, 0] * damp) + np.sin(phases) @ (coefs[:, 1] * damp)
    v = values.var()
    return values * np.sqrt(spec.variance / v) if v > 0 else values


def check_products(b, seed):
    rng = np.random.default_rng(seed)
    B = fourier_columns(b)
    X, G = rng.normal(size=(b.n, 3)), rng.normal(size=(b.p, 4))
    assert rel_err(b.analyze(X), B.T @ X) <= TOL
    assert rel_err(b.analyze(X[:, 0]), B.T @ X[:, 0]) <= TOL
    assert rel_err(b.synthesize(G), B @ G) <= TOL
    assert rel_err(b.synthesize(G[:, 0]), B @ G[:, 0]) <= TOL
    assert b.analyze(X).shape == (b.p, 3) and b.synthesize(G[:, 0]).shape == (b.n,)


@pytest.mark.parametrize("m", SIDES)
def test_products_match_dense(m):
    check_products(fourier_basis(make_grid(m), min(10, (m - 1) // 2)), seed=m)


@pytest.mark.parametrize("m", [16, 31])
def test_restricted_products_match_dense(m):
    b = fourier_basis(make_grid(m), 3)
    assert b.pairs is not None and 2 * len(b.pairs) == b.p
    check_products(b, seed=m + 1)


@pytest.mark.parametrize(
    "m,band",
    [(4, (1, 2)), (8, (3, 4)), (16, (6, 8)), (31, (1, 15)), (32, (0, 3)), (64, (6, 10)), (5, (0, 2))],
)
def test_sample_grf_matches_dense(m, band):
    # Bands reaching m/2 put two pairs in one DFT bin; k_min = 0 adds a constant.
    spec = SpectralSpec(*band, decay=0.7, variance=2.0)
    grid = make_grid(m)
    assert rel_err(sample_grf(grid, spec, seed=m), dense_grf(grid, spec, seed=m)) <= TOL


def test_fourier_basis_and_a_fit_leave_numpy_ma_unimported():
    script = """
import sys
import numpy
print("numpy.ma" in sys.modules)
from spatialconfound import SCENARIO_STRONG_EXPOSURE, fit_estimator, fourier_basis
from spatialconfound import generate_dataset, scenario_config, EstimatorKind
obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 1).observations()
fit_estimator(EstimatorKind.SPATIAL_PLUS, obs, fourier_basis(obs.grid, 10))
print("numpy.ma" in sys.modules)
"""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, after_fit = proc.stdout.split()
    if at_import == "True":
        pytest.skip("this numpy loads numpy.ma on import (numpy < 2)")
    assert after_fit == "False"


def test_fourier_basis_builds_no_dense_columns():
    b = fourier_basis(make_grid(32), 10)
    assert np.array_equal(b.d0, np.full(b.p, 512.0))
    b.synthesize(b.analyze(np.ones(b.n)))
    held = [v for v in vars(b).values() if isinstance(v, np.ndarray)]
    assert max(v.size for v in held) == b.p < b.n


def test_replace_keeps_a_spectral_basis_spectral():
    b = fourier_basis(make_grid(128), 10)
    copy = replace(b)
    assert copy.grid is b.grid and copy.max_freq == b.max_freq
    assert np.array_equal(copy.pairs, b.pairs) and not copy.pairs.flags.writeable
    X = np.random.default_rng(3).normal(size=(b.n, 2))
    assert np.array_equal(copy.analyze(X), b.analyze(X))


@pytest.mark.parametrize(
    "max_freq",
    [True, 2.0, np.float64(2.0), "2", -1, 4],
    ids=["bool", "float", "numpy-float", "str", "negative", "nyquist"],
)
def test_spectral_basis_needs_a_label_below_nyquist(max_freq):
    # d0 = n/2 is taken on trust: it holds for labels 0..(m - 1)//2 only.
    with pytest.raises(ValueError, match=r"^max_freq for an m=8 grid must be"):
        BasisSet(make_grid(8), max_freq)
