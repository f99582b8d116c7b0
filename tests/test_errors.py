"""Library parameter checks raise `errors.InvalidParameter`, which is both an
`IdsenseError` and a `ValueError`, and bad counts or symbols raise an
`IdsenseError` at once, never a bare exception or a hang."""

import signal

import numpy as np
import pytest

from idsense.capacity import image_size_bound, tradeoff_curve
from idsense.channel import transmit
from idsense.coding import build_id_code, build_transmission_code
from idsense.errors import IdsenseError, InvalidParameter, TooManyMessages
from idsense.estimation import estimate_sequence, optimal_estimator
from idsense.sim import grid_capacity_oracle, monte_carlo
from idsense.typicality import enumerate_typical_set, typical_size_bounds


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


def _build(**change):
    """build_id_code on FlipBSC at D = 0.45 (two active inputs, so k = 2 gives
    4 distinct codewords), with the given arguments changed."""
    def call(flip, ham2):
        args = dict(budget=0.45, n=4, identities=4, colors=4, eps=0.3, mode="det",
                    master_seed=1)
        build_id_code(flip, ham2, **{**args, **change})
    return call


def _inner(k, M, feasible):
    return lambda flip, ham2: build_transmission_code(flip, k, M, feasible,
                                                      np.random.default_rng(0))


def _simulate(trials, seed):
    def call(flip, ham2):
        code = build_id_code(flip, ham2, 0.45, 4, 2, 2, 0.3, "det", 0)
        monte_carlo(code, flip, ham2, trials, seed)
    return call


def _grid(resolution):
    return lambda flip, ham2: grid_capacity_oracle(flip, resolution=resolution)


# each raised a bare TypeError, ValueError, IndexError or OverflowError, was
# silently truncated, or (the message counts past the distinct codewords)
# took up to minutes to refuse
PROBES = {
    "build_id_code-colors=10000": _build(colors=10_000),
    "build_id_code-colors=2^70": _build(colors=2 ** 70),
    "build_id_code-n=4.5": _build(n=4.5),
    "build_id_code-identities=2.5": _build(identities=2.5),
    "build_id_code-colors=2.5": _build(colors=2.5),
    "build_transmission_code-M=5": _inner(2, 5, {0, 1}),
    "build_transmission_code-k=0": _inner(0, 2, {0, 1}),
    "build_transmission_code-k=-1": _inner(-1, 2, {0, 1}),
    "build_transmission_code-feasible=2": _inner(2, 2, {0, 2}),
    "build_transmission_code-feasible=-1": _inner(2, 2, {-1, 0, 1}),
    "monte_carlo-trials=2.5": _simulate(2.5, 0),
    "monte_carlo-trials=nan": _simulate(float("nan"), 0),
    "monte_carlo-seed=-1": _simulate(10, -1),
    "monte_carlo-seed=2.5": _simulate(10, 2.5),
    "grid_capacity_oracle-resolution=0": _grid(0),
    "grid_capacity_oracle-resolution=-1": _grid(-1),
    "grid_capacity_oracle-resolution=2.5": _grid(2.5),
    "transmit-x=1.5": lambda flip, ham2: transmit(flip, 1.5, 0, np.random.default_rng(0)),
    "estimate_sequence-x=2": lambda flip, ham2: estimate_sequence(
        optimal_estimator(flip, ham2), [0, 2], [0, 0]),
    "enumerate_typical_set-x=0.5":
        lambda flip, ham2: enumerate_typical_set(flip, [0.5, 0], 0.3),
    "typical_size_bounds-pilot=0.5": lambda flip, ham2: typical_size_bounds(flip, 0.5, 8, 0.1),
}


@pytest.fixture
def alarm():
    """Fail a call that takes more than 5 s, by a signal: no thread or process."""
    def expire(signum, frame):
        raise TimeoutError("no answer within 5 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("call", PROBES.values(), ids=PROBES.keys())
def test_bad_count_or_symbol_is_refused_at_once(flip, ham2, alarm, call):
    with pytest.raises(IdsenseError):
        call(flip, ham2)


def test_more_messages_than_codewords(flip, ham2, alarm):
    # 4 distinct codewords of length 2 over the two active inputs: 4 colors
    # build, 5 are refused before a codeword is drawn
    _build(colors=4)(flip, ham2)
    with pytest.raises(TooManyMessages, match="exceed the 4 distinct codewords"):
        _build(colors=5)(flip, ham2)
