import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsense.channel import StateDMC
from idsense.errors import (
    IndexOutOfRange,
    LengthMismatch,
    NotADistribution,
    ZeroProbabilityObservation,
)
from idsense.estimation import (
    DistortionMatrix,
    NegativeDistortion,
    estimate_sequence,
    feasible_distribution,
    feasible_inputs,
    hamming_distortion,
    min_distortion_dist,
    min_distortion_input,
    optimal_estimator,
    distortion_profile,
    posterior_state,
)
from tests.conftest import random_channel


class TestDistortionMatrix:
    def test_hamming(self):
        d = hamming_distortion(3).d
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_negative_rejected(self):
        with pytest.raises(NegativeDistortion):
            DistortionMatrix(d=np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestPosterior:
    def test_single_state(self):
        ch = StateDMC(1, 2, 1, np.array([[[0.3, 0.7]]]), np.array([1.0]))
        assert np.array_equal(posterior_state(ch, 0, 1), [1.0])

    def test_flip_posterior(self, flip):
        assert np.allclose(posterior_state(flip, 0, 1), [0.25, 0.75], atol=1e-12)

    def test_sensor_uninformative(self, sensor):
        assert np.allclose(posterior_state(sensor, 1, 1), [0.5, 0.5], atol=1e-12)

    def test_zero_probability_observation(self, sensor):
        with pytest.raises(ZeroProbabilityObservation):
            posterior_state(sensor, 1, 0)


class TestOptimalEstimator:
    def test_single_state_constant(self):
        ch = StateDMC(1, 2, 1, np.array([[[0.3, 0.7]]]), np.array([1.0]))
        assert (optimal_estimator(ch, hamming_distortion(1)).h == 0).all()

    def test_flip_xor_rule(self, flip, ham2):
        h = optimal_estimator(flip, ham2).h
        assert np.array_equal(h, [[0, 1], [1, 0]])

    def test_sensor_rule(self, sensor, ham2):
        # x=1 row is uninformative: posterior tie broken to state 0
        h = optimal_estimator(sensor, ham2).h
        assert np.array_equal(h, [[0, 1], [0, 0]])

    def test_unreachable_pairs_pinned_to_zero(self, sensor, ham2):
        h = optimal_estimator(sensor, ham2).h
        assert h[1, 0] == 0


class TestProfiles:
    def test_noiseless_observation(self, ham2):
        kernel = np.stack([np.eye(2)])  # y = s exactly
        ch = StateDMC(1, 2, 2, kernel, np.array([0.5, 0.5]))
        assert min_distortion_input(ch, ham2, 0) == pytest.approx(0.0, abs=1e-12)

    def test_sensor_profile(self, sensor, ham2):
        assert min_distortion_input(sensor, ham2, 0) == pytest.approx(0.1, abs=1e-12)
        assert min_distortion_input(sensor, ham2, 1) == pytest.approx(0.5, abs=1e-12)

    def test_flip_profile(self, flip, ham2):
        profile = distortion_profile(flip, ham2).per_input
        assert np.allclose(profile, [0.45, 0.45], atol=1e-12)

    def test_index_out_of_range(self, flip, ham2):
        with pytest.raises(IndexOutOfRange):
            min_distortion_input(flip, ham2, 5)

    def test_point_mass_consistency(self, sensor, ham2):
        assert min_distortion_dist(sensor, ham2, [1.0, 0.0]) == pytest.approx(
            min_distortion_input(sensor, ham2, 0), abs=1e-12)

    def test_sensor_uniform(self, sensor, ham2):
        assert min_distortion_dist(sensor, ham2, [0.5, 0.5]) == pytest.approx(0.3, abs=1e-12)

    def test_not_a_distribution(self, sensor, ham2):
        with pytest.raises(NotADistribution):
            min_distortion_dist(sensor, ham2, [0.5, 0.6])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), w=st.floats(0.0, 1.0))
    def test_convex_combination_bound(self, seed, w):
        ch = random_channel(np.random.default_rng(seed), 3, 2, 2)
        dist = hamming_distortion(2)
        profile = distortion_profile(ch, dist).per_input
        p = np.array([w, 1.0 - w, 0.0])
        val = min_distortion_dist(ch, dist, p)
        assert profile.min() - 1e-12 <= val <= profile.max() + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.25, 0.5, 0.75]))
    def test_linearity(self, seed, alpha):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, 3, 2, 2)
        dist = hamming_distortion(2)
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        mix = alpha * p + (1 - alpha) * q
        lhs = min_distortion_dist(ch, dist, mix)
        rhs = alpha * min_distortion_dist(ch, dist, p) + \
            (1 - alpha) * min_distortion_dist(ch, dist, q)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_hamming_is_map_rule(self, seed):
        # with Hamming distortion d*(x) = sum_y P(y|x) (1 - max_s P(s|x,y))
        ch = random_channel(np.random.default_rng(seed), 2, 3, 3)
        dist = hamming_distortion(3)
        rows = ch.rows
        for x in range(2):
            expected = sum(rows[x, y] * (1.0 - posterior_state(ch, x, y).max())
                           for y in range(3) if rows[x, y] > 0)
            assert min_distortion_input(ch, dist, x) == pytest.approx(expected, abs=1e-12)


class TestFeasibleSets:
    def test_sensor_budgets(self, sensor, ham2):
        assert feasible_inputs(sensor, ham2, 0.3) == {0}
        assert feasible_inputs(sensor, ham2, 0.6) == {0, 1}
        assert feasible_inputs(sensor, ham2, 0.05) == set()

    def test_tight_budget_is_feasible(self, sensor, ham2):
        assert 0 in feasible_inputs(sensor, ham2, 0.1)

    def test_feasible_distribution(self, sensor, ham2):
        assert feasible_distribution(sensor, ham2, 0.3, [1.0, 0.0])
        assert feasible_distribution(sensor, ham2, 0.3, [0.5, 0.5])
        assert not feasible_distribution(sensor, ham2, 0.3, [0.0, 1.0])

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), d1=st.floats(0.0, 1.0), d2=st.floats(0.0, 1.0))
    def test_monotone_feasibility(self, seed, d1, d2):
        lo, hi = min(d1, d2), max(d1, d2)
        ch = random_channel(np.random.default_rng(seed), 3, 2, 2)
        dist = hamming_distortion(2)
        assert feasible_inputs(ch, dist, lo) <= feasible_inputs(ch, dist, hi)


class TestEstimateSequence:
    def test_empty(self, flip, ham2):
        table = optimal_estimator(flip, ham2)
        assert estimate_sequence(table, [], []).size == 0

    def test_constant_table(self):
        from idsense.estimation import EstimatorTable
        table = EstimatorTable(h=np.zeros((2, 2), dtype=int))
        assert (estimate_sequence(table, [0, 1, 0], [1, 0, 1]) == 0).all()

    def test_flip_xor_sequence(self, flip, ham2):
        table = optimal_estimator(flip, ham2)
        assert np.array_equal(estimate_sequence(table, [0, 1], [1, 1]), [1, 0])

    def test_length_mismatch(self, flip, ham2):
        with pytest.raises(LengthMismatch):
            estimate_sequence(optimal_estimator(flip, ham2), [0], [0, 1])
