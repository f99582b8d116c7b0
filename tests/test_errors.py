"""Library parameter checks raise `errors.InvalidParameter`, which is both an
`IdsenseError` and a `ValueError`."""

import pytest

from idsense.capacity import image_size_bound, tradeoff_curve
from idsense.coding import build_id_code
from idsense.errors import IdsenseError, InvalidParameter
from idsense.sim import grid_capacity_oracle, monte_carlo
from idsense.typicality import enumerate_typical_set


def _monte_carlo_no_trials(flip, ham2):
    code = build_id_code(flip, ham2, 0.45, 4, 2, 2, 0.3, "det", 0)
    monte_carlo(code, flip, ham2, 0)


CALLS = {
    "monte_carlo-trials_per_pair=0": _monte_carlo_no_trials,
    "tradeoff_curve-mode": lambda flip, ham2: tradeoff_curve(flip, ham2, [0.45], mode="x"),
    "build_id_code-mode": lambda flip, ham2: build_id_code(flip, ham2, 0.45, 4, 2, 2, 0.3,
                                                           "x", 0),
    "enumerate_typical_set-eps": lambda flip, ham2: enumerate_typical_set(flip, [0], -1),
    "grid_capacity_oracle-budget_without_distortion":
        lambda flip, ham2: grid_capacity_oracle(flip, budget=0.45),
    "image_size_bound-n": lambda flip, ham2: image_size_bound(-1, 0.5, 2, 1.0),
}


@pytest.mark.parametrize("call", CALLS.values(), ids=CALLS.keys())
def test_bad_parameter_is_invalid_parameter(flip, ham2, call):
    with pytest.raises(InvalidParameter) as info:
        call(flip, ham2)
    assert isinstance(info.value, IdsenseError)
