"""The golden records (``tests/golden``): every fit, error and summary they
hold is reproduced by the code under test, within the tolerances of
``make_golden.compare``."""

import copy
import json
import math

import pytest

from golden.make_golden import RECORDS, collect, compare


@pytest.fixture(scope="module")
def golden():
    with open(RECORDS) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def records():
    # Through JSON, as the golden file went: tuples become lists.
    return json.loads(json.dumps(collect()))


def test_records_match_the_golden_file(golden, records):
    assert compare(golden, records) == []


@pytest.mark.parametrize(
    "path",
    [
        ("fits", "strong-exposure-weak-outcome/m32/seed0/spatial-plus/gcv", "beta1_hat"),
        ("sweeps", "weak-exposure-strong-outcome/m128/seed1", "gcv", 7),
        ("summaries", "aic", "rows", 3, "mean_aic"),
    ],
    ids=["beta", "gcv", "aic"],
)
def test_a_record_moved_by_1e_10_fails(golden, path):
    moved = copy.deepcopy(golden)
    *parents, leaf = path
    holder = moved
    for key in parents:
        holder = holder[key]
    holder[leaf] *= 1.0 + 1e-10
    assert len(compare(golden, moved)) == 1


def test_a_changed_smoothing_choice_or_error_fails(golden):
    moved = copy.deepcopy(golden)
    fit = moved["fits"]["strong-exposure-weak-outcome/m24/seed1/spatial/gcv"]
    fit["lambdas"]["outcome"] = math.nextafter(fit["lambdas"]["outcome"], math.inf)
    error = moved["errors"]["duplicate-fixed-column"]
    error["columns"] = error["columns"][:-1]
    assert len(compare(golden, moved)) == 2
