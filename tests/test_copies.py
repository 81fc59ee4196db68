"""Copies through ``pickle`` and ``copy.deepcopy`` are built again from the
defining fields: read-only arrays, no kept weights or moments, same fits."""

import copy
import pickle

import numpy as np
import pytest

from spatialconfound import (
    EstimatorKind,
    SpectralSpec,
    fit_estimator,
    fourier_basis,
    generate_dataset,
    make_grid,
    sample_grf,
    scenario_config,
)
from spatialconfound import pls
from spatialconfound.mc import SCENARIO_STRONG_EXPOSURE
from spatialconfound.pls import _shrinkage

COPIES = {"pickle": lambda o: pickle.loads(pickle.dumps(o)), "deepcopy": copy.deepcopy}
KINDS = [EstimatorKind.SPATIAL, EstimatorKind.SPATIAL_PLUS, EstimatorKind.SPATIAL_PLUS_LOWFREQ]


def _fits(obs, b):
    """Records of three estimators, as text that shows every bit of a float."""
    return [repr(fit_estimator(kind, obs, b, cutoff=2).to_dict()) for kind in KINDS]


def _in_use():
    """Observations and an m = 32 basis after a few fits: ``pls`` holds
    the default grid's weights, the observations its moments, and the grid
    its coordinates."""
    obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 1).observations()
    b = fourier_basis(obs.grid, 10)
    fits = _fits(obs, b)
    obs.grid.coords
    assert pls._kept_shrinkage.cache_info().currsize and obs._moments and "coords" in vars(obs.grid)
    return obs, b, fits


@pytest.mark.parametrize("how", list(COPIES))
@pytest.mark.parametrize("cutoff", [None, 2])
def test_a_copied_basis_is_rebuilt(how, cutoff):
    obs, b, fits = _in_use()
    if cutoff is not None:
        b = fourier_basis(obs.grid, cutoff)
        _shrinkage(b, np.array([[0.0, 0.0], [1.0, 4.0]]))
    c = COPIES[how](b)
    assert type(c) is type(b) and c.max_freq == b.max_freq and c.grid.m == b.grid.m
    # A basis is its fields alone: it carries no kept weights to copy.
    assert set(vars(c)) == {"grid", "max_freq", "pairs", "freq", "d0"}
    assert "coords" not in vars(c.grid)
    for attr in ("pairs", "freq", "d0"):
        a = getattr(c, attr)
        assert np.array_equal(a, getattr(b, attr)) and not a.flags.writeable
    if cutoff is None:
        assert _fits(obs, c) == fits


def test_a_pickled_basis_is_small():
    _, b, _ = _in_use()
    assert len(pickle.dumps(b)) < 4096


@pytest.mark.parametrize("how", list(COPIES))
def test_copied_observations_are_rebuilt(how):
    obs, b, fits = _in_use()
    c = COPIES[how](obs)
    assert c._moments == {}
    for name in ("Z", "C", "Y"):
        v = getattr(c, name)
        assert v.tobytes() == getattr(obs, name).tobytes() and not v.flags.writeable
    assert _fits(c, b) == fits


@pytest.mark.parametrize("how", list(COPIES))
def test_a_copied_grid_builds_its_coordinates_again(how):
    grid = make_grid(8)
    coords = grid.coords
    c = COPIES[how](grid)
    assert c.m == 8 and "coords" not in vars(c)
    assert np.array_equal(c.coords, coords) and not c.coords.flags.writeable


@pytest.mark.parametrize("how", list(COPIES))
def test_a_copied_spec_works_out_its_pairs_again(how):
    spec = SpectralSpec(6, 10, 0.5, 2.0)
    pairs = spec.pairs
    c = COPIES[how](spec)
    assert c == spec and hash(c) == hash(spec) and "pairs" not in vars(c)
    assert np.array_equal(c.pairs, pairs) and not c.pairs.flags.writeable
    grid = make_grid(32)
    assert sample_grf(grid, c, 4).tobytes() == sample_grf(grid, spec, 4).tobytes()
