import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsense.channel import cumulative, sample_rows, \
    sample_state_sequence, sequence_likelihood
from idsense.coding import build_id_code
from idsense.errors import InvalidParameter, LengthMismatch, MissingRow, TooLargeToEnumerate
from idsense.sim import exact_error_probabilities
from idsense.typicality import (
    counts_typical,
    enumerate_typical_set,
    joint_type,
    marginal_typical_membership,
    max_norm_distance,
    type_radius,
    typical_membership,
    typical_size_bounds,
)


class TestJointType:
    def test_half_half(self):
        t = joint_type([0, 0], [0, 1])
        assert np.allclose(t.V[0], [0.5, 0.5], atol=1e-12)

    def test_constant(self):
        t = joint_type([1, 1, 1], [0, 0, 0], input_size=2, output_size=2)
        assert np.allclose(t.V[1], [1.0, 0.0], atol=1e-12)
        assert not t.present[0]

    def test_concatenation_invariance(self):
        x, y = [0, 1, 0], [1, 1, 0]
        once = joint_type(x, y)
        twice = joint_type(x + x, y + y)
        assert np.allclose(once.V, twice.V, atol=1e-12)

    def test_row_sums(self):
        t = joint_type([0, 0, 1], [0, 1, 1])
        assert t.counts.sum() == 3
        assert np.allclose(t.V[t.present].sum(axis=1), 1.0, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            joint_type([0], [0, 1])


class TestMaxNorm:
    def test_zero_at_match(self, flip):
        # a type exactly equal to the rows (rows are multiples of 1/10)
        x = [0] * 10
        y = [0] * 9 + [1]
        t = joint_type(x, y, input_size=2, output_size=2)
        assert max_norm_distance(t, flip, {0}) == pytest.approx(0.0, abs=1e-12)

    def test_single_letter(self, flip):
        t = joint_type([0], [0], input_size=2, output_size=2)
        assert max_norm_distance(t, flip, {0}) == pytest.approx(0.1, abs=1e-12)

    def test_missing_row(self, flip):
        t = joint_type([0], [0], input_size=2, output_size=2)
        with pytest.raises(MissingRow):
            max_norm_distance(t, flip, {1})


class TestMembership:
    def test_exact_frequency_match(self, flip):
        x = [0] * 10
        y = [0] * 9 + [1]
        assert typical_membership(flip, x, y, 1e-9)

    def test_eps_zero_non_dyadic(self, flip):
        # no length-5 sequence has empirical frequency exactly 0.9
        x = [0] * 5
        for trailing_ones in range(6):
            y = [0] * (5 - trailing_ones) + [1] * trailing_ones
            assert not typical_membership(flip, x, y, 0.0)

    def test_acceptance_fraction(self, flip):
        # every state, then every output of input 0, in one draw each
        rng = np.random.default_rng(11)
        n, reps = 10**4, 200
        states = sample_state_sequence(flip, reps * n, rng).reshape(reps, n)
        y = sample_rows(cumulative(flip.kernel[0])[states], rng.random((reps, n)))
        accept = sum(typical_membership(flip, [0] * n, row, 0.05) for row in y)
        assert accept / reps >= 0.99

    def test_marginal_membership(self):
        row = np.array([0.5, 0.5])
        assert marginal_typical_membership(row, [0, 1, 0, 1], 0.1)
        assert not marginal_typical_membership(row, [0, 0, 0, 0], 0.1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_permutation_invariance(self, seed):
        from idsense.fixtures import flip_bsc
        flip = flip_bsc()
        rng = np.random.default_rng(seed)
        x = list(rng.integers(0, 2, size=8))
        y = list(rng.integers(0, 2, size=8))
        perm = rng.permutation(8)
        xs, ys = [x[i] for i in perm], [y[i] for i in perm]
        for eps in (0.05, 0.2, 0.5):
            assert typical_membership(flip, x, y, eps) == \
                typical_membership(flip, xs, ys, eps)


class TestClosedBoundary:
    def test_most_likely_block_is_typical(self, flip):
        # the averaged row is stored as 0.8999999999999999, and the all-zero
        # block sits on the closed boundary N(0) = n * (w(0) + eps)
        assert typical_membership(flip, [0] * 8, [0] * 8, 0.1)
        assert len(enumerate_typical_set(flip, [0] * 8, 0.1)) == 9

    def test_one_count_outside_ball(self, flip):
        # n = 10, eps = 0.1: the ball is 8 <= N(0) <= 10
        x, row = [0] * 10, flip.rows[0]
        inside, outside = [0] * 8 + [1] * 2, [0] * 7 + [1] * 3
        assert typical_membership(flip, x, inside, 0.1)
        assert not typical_membership(flip, x, outside, 0.1)
        assert marginal_typical_membership(row, inside, 0.1)
        assert not marginal_typical_membership(row, outside, 0.1)
        # the slack absorbs rounding, not a real excess over the radius
        assert not typical_membership(flip, x, [0] * 10, 0.1 - 1e-6)

    @pytest.mark.parametrize("eps", [0.05, 0.1, 0.2])
    def test_codec_harness_and_oracle_agree(self, flip, sensor, ham2, eps):
        blocks = list(product(range(2), repeat=8))
        for ch, budget in ((flip, 0.45), (sensor, 0.5)):
            code = build_id_code(ch, ham2, budget, n=8, identities=2, colors=2,
                                 eps=eps, mode="det", master_seed=0)
            x = [int(code.pilot)] * 8
            enumerated = [typical_membership(ch, x, y, eps) for y in blocks]
            assert [code.pilot_typical(y) for y in blocks] == enumerated
            counts = np.array([np.bincount(y, minlength=2) for y in blocks])
            assert counts_typical(counts, code.pilot_row, eps).tolist() == enumerated
            members = enumerate_typical_set(ch, x, eps)
            mass = sum(sequence_likelihood(ch, x, list(y)) for y in members)
            exact = exact_error_probabilities(code, ch, [(1, 2)])
            assert exact["atypical_mass"] == pytest.approx(1.0 - mass, abs=1e-12)


class TestSizeBounds:
    def test_eps_to_zero_limit(self, flip):
        n = 10
        h = 0.46899559358928133
        lo, hi = typical_size_bounds(flip, 0, n, 1e-9)
        assert lo == pytest.approx(n * h, abs=1e-6)
        assert hi == pytest.approx(n * h, abs=1e-6)

    def test_monotone_in_eps(self, flip):
        prev_lo, prev_hi = typical_size_bounds(flip, 0, 10, 0.05)
        for eps in (0.1, 0.2):
            lo, hi = typical_size_bounds(flip, 0, 10, eps)
            assert lo <= prev_lo and hi >= prev_hi
            prev_lo, prev_hi = lo, hi

    def test_distribution_pilot(self, flip):
        lo, hi = typical_size_bounds(flip, np.array([0.5, 0.5]), 8, 0.1)
        c = type_radius(8, 0.1, 2, 2)
        assert lo == pytest.approx(8 * (1.0 - c), abs=1e-12)
        assert hi == pytest.approx(8 * (1.0 + c), abs=1e-12)

    @pytest.mark.parametrize("n,eps", [(0, 0.1), (8, 0.0)])
    def test_bad_parameters_are_library_errors(self, flip, n, eps):
        # InvalidParameter is both an IdsenseError and a ValueError
        with pytest.raises(InvalidParameter):
            typical_size_bounds(flip, 0, n, eps)
        with pytest.raises(ValueError):
            typical_size_bounds(flip, 0, n, eps)


class TestEnumeration:
    def test_n1_large_eps(self, flip):
        assert enumerate_typical_set(flip, [0], 1.0) == [(0,), (1,)]

    def test_n2_eps_zero_empty(self, flip):
        assert enumerate_typical_set(flip, [0, 0], 0.0) == []

    def test_guard(self, flip):
        with pytest.raises(TooLargeToEnumerate):
            enumerate_typical_set(flip, [0] * 25, 0.1)

    def test_mass_exponent_positive(self, flip):
        # enumerated mass at n=12, eps=0.1 gives a positive decay exponent
        n, eps = 12, 0.1
        members = enumerate_typical_set(flip, [0] * n, eps)
        mass = sum(sequence_likelihood(flip, [0] * n, list(y)) for y in members)
        assert 0.0 < mass < 1.0
        delta_prime = -math.log2(1.0 - mass) / n
        assert delta_prime > 0.0

    def test_sorted_lexicographically(self, flip):
        members = enumerate_typical_set(flip, [0] * 6, 0.2)
        assert members == sorted(members)
