import numpy as np
import pytest

from idsense import fixtures
from idsense.channel import StateDMC
from idsense.estimation import hamming_distortion


@pytest.fixture
def flip():
    return fixtures.flip_bsc()


@pytest.fixture
def sensor():
    return fixtures.sensor()


@pytest.fixture
def ham2():
    return hamming_distortion(2)


def random_channel(rng: np.random.Generator, nx: int, ny: int, ns: int) -> StateDMC:
    """A random valid channel with Dirichlet rows and prior."""
    kernel = rng.dirichlet(np.ones(ny), size=(nx, ns))
    prior = rng.dirichlet(np.ones(ns))
    return StateDMC(input_size=nx, output_size=ny, state_size=ns,
                    kernel=kernel, state_prior=prior)


def budget_hides_the_useful_input() -> StateDMC:
    """|X| = 3, |Y| = |S| = 2, uniform prior, zero capacity on the cheap inputs.

    Inputs 0 and 1 reveal the state (d* = 0 under Hamming distortion) and both
    average to [0.5, 0.5]; input 2 outputs 0 in every state (d* = 0.5).  At
    D = 0.3 only inputs 0 and 1 are feasible, so the restricted channel has
    zero capacity, while input 2 gives the full channel positive capacity.
    """
    kernel = np.array([[[1.0, 0.0], [0.0, 1.0]],
                       [[0.0, 1.0], [1.0, 0.0]],
                       [[1.0, 0.0], [1.0, 0.0]]])
    return StateDMC(3, 2, 2, kernel, np.array([0.5, 0.5]))


@pytest.fixture
def make_random_channel():
    return random_channel
