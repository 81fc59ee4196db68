"""Array-holding types compare by identity; value types by value."""

import numpy as np
import pytest

from spatialconfound import (
    SCENARIO_STRONG_EXPOSURE,
    compute_estimands,
    fourier_basis,
    generate_dataset,
    make_grid,
    scenario_config,
    select_lambda_gcv,
    sweep_lambda,
)


def _problem():
    obs = generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 1).observations()
    return obs, np.column_stack([np.ones(obs.grid.n), obs.Z, obs.C]), fourier_basis(obs.grid, 2)


FACTORIES = {
    "BasisSet": lambda: fourier_basis(make_grid(8), 1),
    "LocationGrid": lambda: make_grid(8),
    "Observations": lambda: _problem()[0],
    "Dataset": lambda: generate_dataset(scenario_config(SCENARIO_STRONG_EXPOSURE), 1),
    "StageFit": lambda: select_lambda_gcv(_problem()[0].Y, *_problem()[1:], 1.0),
    "LambdaSweep": lambda: sweep_lambda(_problem()[0].Y, *_problem()[1:], [0.0, 1.0]),
}


@pytest.mark.parametrize("name", list(FACTORIES))
def test_array_types_compare_by_identity(name):
    a, b = FACTORIES[name](), FACTORIES[name]()
    assert (a == b) is False
    assert a == a
    assert hash(a) == hash(a)
    assert len({a, b}) == 2


def test_value_types_keep_value_equality():
    assert scenario_config(SCENARIO_STRONG_EXPOSURE) == scenario_config(SCENARIO_STRONG_EXPOSURE)
    config = scenario_config(SCENARIO_STRONG_EXPOSURE)
    assert compute_estimands(config) == compute_estimands(config)
