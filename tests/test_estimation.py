import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsense.capacity import _constrained_vertices, det_capacity_distortion
from idsense.channel import StateDMC
from idsense.coding import build_id_code
from idsense.errors import (
    DimensionMismatch,
    LengthMismatch,
    NegativeDistortion,
    NotADistribution,
)
from idsense.estimation import (
    DistortionMatrix,
    _check_distribution,
    _feasible_inputs,
    estimate_sequence,
    feasible_inputs,
    hamming_distortion,
    optimal_estimator,
    distortion_profile,
    posterior_cost,
)
from idsense.sim import brute_force_estimator_distortion
from tests.conftest import random_channel
from tests.reference import posterior_state


class TestDistortionMatrix:
    def test_hamming(self):
        d = hamming_distortion(3).d
        assert np.array_equal(d, 1.0 - np.eye(3))

    def test_negative_rejected(self):
        with pytest.raises(NegativeDistortion):
            DistortionMatrix(d=np.array([[0.0, -1.0], [1.0, 0.0]]))


class TestDistortionFit:
    """A distortion matrix needs one row per state and at least one column."""

    @pytest.mark.parametrize("d", [[[0.0, 1.0]], (1.0 - np.eye(3)).tolist(), np.zeros((2, 0))],
                             ids=["one-row", "three-rows", "no-column"])
    def test_refused(self, flip, d):
        dist = DistortionMatrix(d=np.array(d))
        for use in (posterior_cost, optimal_estimator, distortion_profile,
                    brute_force_estimator_distortion,
                    lambda ch, dist: det_capacity_distortion(ch, dist, 0.5),
                    lambda ch, dist: build_id_code(ch, dist, 0.5, 4, 4, 2, 0.3, "det", 0)):
            with pytest.raises(DimensionMismatch, match="the 2 states"):
                use(flip, dist)

    def test_more_reconstructions_than_states(self, flip):
        # a third reconstruction costs 0.3 in either state; it wins when y = x
        # (probability 0.9), where the state's posterior is about even, and
        # state 1 (cost 0.25) wins when y != x: 0.9 * 0.3 + 0.1 * 0.25
        dist = DistortionMatrix(d=np.array([[0.0, 1.0, 0.3], [1.0, 0.0, 0.3]]))
        assert optimal_estimator(flip, dist).h.tolist() == [[2, 1], [1, 2]]
        assert np.allclose(distortion_profile(flip, dist).per_input, [0.295, 0.295],
                           rtol=0.0, atol=1e-12)


class TestPosterior:
    """With Hamming distortion, posterior_cost[x, y] = P(y|x) * (1 - P(s|x, y))."""

    def test_single_state(self):
        ch = StateDMC(1, 2, 1, np.array([[[0.3, 0.7]]]), np.array([1.0]))
        assert np.array_equal(posterior_cost(ch, hamming_distortion(1)), np.zeros((1, 2, 1)))

    def test_flip_posterior(self, flip, ham2):
        expected = 0.1 * (1.0 - np.array([0.25, 0.75]))
        assert np.allclose(posterior_cost(flip, ham2)[0, 1], expected, atol=1e-12)

    def test_sensor_uninformative(self, sensor, ham2):
        cost = posterior_cost(sensor, ham2)[1, 1]
        assert np.allclose(cost, [0.5, 0.5], atol=1e-12)

    def test_zero_probability_observation(self, sensor, ham2):
        # an observation of probability 0 has zero cost for every estimate
        assert not posterior_cost(sensor, ham2)[1, 0].any()


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
        assert distortion_profile(ch, ham2).per_input[0] == pytest.approx(0.0, abs=1e-12)

    def test_sensor_profile(self, sensor, ham2):
        assert np.allclose(distortion_profile(sensor, ham2).per_input, [0.1, 0.5], atol=1e-12)

    def test_flip_profile(self, flip, ham2):
        profile = distortion_profile(flip, ham2).per_input
        assert np.allclose(profile, [0.45, 0.45], atol=1e-12)

    def test_not_a_distribution(self):
        with pytest.raises(NotADistribution):
            _check_distribution([0.5, 0.6], 2)

    # d*(P) = sum_x P(x) d*(x) enters the randomized capacity-distortion
    # solve as the vertices of the budgeted simplex {P : d*(P) <= D}

    def test_point_mass_consistency(self, sensor, ham2):
        profile, feasible = _feasible_inputs(sensor, ham2, 0.3)
        vertices = _constrained_vertices(profile, 0.3, feasible)
        for vertex, x in zip(vertices, feasible):
            assert vertex[x] == 1.0 and vertex @ profile == pytest.approx(profile[x], abs=1e-12)

    def test_sensor_uniform(self, sensor, ham2):
        profile, feasible = _feasible_inputs(sensor, ham2, 0.3)
        vertices = _constrained_vertices(profile, 0.3, feasible)
        assert np.allclose(vertices, [[1.0, 0.0], [0.5, 0.5]], atol=1e-12)
        assert vertices[1] @ profile == pytest.approx(0.3, abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), w=st.floats(0.0, 1.0))
    def test_convex_combination_bound(self, seed, w):
        ch = random_channel(np.random.default_rng(seed), 3, 2, 2)
        profile = distortion_profile(ch, hamming_distortion(2)).per_input
        budget = profile.min() + w * (profile.max() - profile.min())
        feasible = np.flatnonzero(profile <= budget)
        for v in _constrained_vertices(profile, budget, feasible):
            assert profile.min() - 1e-12 <= v @ profile <= budget + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10**6), w=st.floats(0.0, 1.0))
    def test_linearity(self, seed, w):
        # an edge vertex mixes a feasible and an infeasible input so that
        # its d*, linear in P, lands on the budget
        ch = random_channel(np.random.default_rng(seed), 3, 2, 2)
        profile = distortion_profile(ch, hamming_distortion(2)).per_input
        budget = profile.min() + w * (profile.max() - profile.min())
        feasible = np.flatnonzero(profile <= budget)
        vertices = _constrained_vertices(profile, budget, feasible)
        for v in vertices[feasible.size:]:
            assert v @ profile == pytest.approx(budget, abs=1e-12)

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
            assert distortion_profile(ch, dist).per_input[x] == pytest.approx(expected, abs=1e-12)


class TestFeasibleSets:
    def test_sensor_budgets(self, sensor, ham2):
        assert feasible_inputs(sensor, ham2, 0.3) == {0}
        assert feasible_inputs(sensor, ham2, 0.6) == {0, 1}
        assert feasible_inputs(sensor, ham2, 0.05) == set()

    def test_tight_budget_is_feasible(self, sensor, ham2):
        assert 0 in feasible_inputs(sensor, ham2, 0.1)

    def test_feasible_distribution(self, sensor, ham2):
        # the budgeted set at D = 0.3 is the segment from [1, 0] to [0.5, 0.5]
        profile, feasible = _feasible_inputs(sensor, ham2, 0.3)
        vertices = _constrained_vertices(profile, 0.3, feasible)
        assert (vertices @ profile <= 0.3 + 1e-12).all()
        assert vertices[:, 1].max() == pytest.approx(0.5, abs=1e-12)

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
