import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsense.channel import cumulative, sample_rows, sample_state_sequence
from idsense.coding import build_id_code
from idsense.errors import IndexOutOfRange, InvalidParameter, LengthMismatch, TooLargeToEnumerate
from idsense.sim import exact_error_probabilities
from idsense.typicality import (
    counts_typical,
    enumerate_typical_set,
    symbol_counts,
    typical_size_bounds,
)
from tests.reference import sequence_likelihood, typical_membership


class TestJointType:
    """The typical set depends on (x^n, y^n) only through their joint type."""

    def test_concatenation_invariance(self, flip):
        x = [0, 1, 0]
        for eps in (0.1, 0.4):
            once = enumerate_typical_set(flip, x, eps)
            twice = set(enumerate_typical_set(flip, x + x, eps))
            assert once and all(y + y in twice for y in once)


class TestMaxNorm:
    def test_zero_at_match(self, flip):
        # counts exactly equal to n times the row (rows are multiples of 1/10)
        assert counts_typical([9, 1], flip.rows[0], 0.0)

    def test_single_letter(self, flip):
        # one output 0 sits at distance 0.1 from the row [0.9, 0.1]
        assert counts_typical([1, 0], flip.rows[0], 0.1)
        assert not counts_typical([1, 0], flip.rows[0], 0.1 - 1e-6)


class TestMembership:
    def test_exact_frequency_match(self, flip):
        assert counts_typical(np.bincount([0] * 9 + [1], minlength=2), flip.rows[0], 1e-9)

    def test_eps_zero_non_dyadic(self, flip):
        # no length-5 sequence has empirical frequency exactly 0.9
        for trailing_ones in range(6):
            assert not counts_typical([5 - trailing_ones, trailing_ones], flip.rows[0], 0.0)

    def test_acceptance_fraction(self, flip):
        # every state, then every output of input 0, in one draw each
        rng = np.random.default_rng(11)
        n, reps = 10**4, 200
        states = sample_state_sequence(flip, reps * n, rng).reshape(reps, n)
        y = sample_rows(cumulative(flip.kernel[0])[states], rng.random((reps, n)))
        accept = counts_typical(symbol_counts(y, 2), flip.rows[0], 0.05).sum()
        assert accept / reps >= 0.99

    def test_marginal_membership(self):
        row = np.array([0.5, 0.5])
        assert counts_typical(np.bincount([0, 1, 0, 1], minlength=2), row, 0.1)
        assert not counts_typical(np.bincount([0, 0, 0, 0], minlength=2), row, 0.1)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6))
    def test_permutation_invariance(self, seed):
        # permuting x^n permutes its typical set the same way
        from idsense.fixtures import flip_bsc
        flip = flip_bsc()
        rng = np.random.default_rng(seed)
        x = rng.integers(0, 2, size=8)
        perm = rng.permutation(8)
        for eps in (0.05, 0.2, 0.5):
            members = enumerate_typical_set(flip, x, eps)
            permuted = sorted(tuple(y[i] for i in perm) for y in members)
            assert enumerate_typical_set(flip, x[perm], eps) == permuted


class TestClosedBoundary:
    def test_most_likely_block_is_typical(self, flip):
        # the averaged row is stored as 0.8999999999999999, and the all-zero
        # block sits on the closed boundary N(0) = n * (w(0) + eps)
        assert counts_typical([8, 0], flip.rows[0], 0.1)
        assert len(enumerate_typical_set(flip, [0] * 8, 0.1)) == 9

    def test_one_count_outside_ball(self, flip, ham2):
        # n = 10, eps = 0.1: the ball is 8 <= N(0) <= 10
        row = flip.rows[0]
        code = build_id_code(flip, ham2, 0.45, n=10, identities=2, colors=2,
                             eps=0.1, mode="det", master_seed=0)
        assert code.pilot == 0
        inside, outside = [0] * 8 + [1] * 2, [0] * 7 + [1] * 3
        assert counts_typical([8, 2], row, 0.1)
        assert not counts_typical([7, 3], row, 0.1)
        assert code.pilot_typical(inside)
        assert not code.pilot_typical(outside)
        # the slack absorbs rounding, not a real excess over the radius
        assert not counts_typical([10, 0], row, 0.1 - 1e-6)

    def test_empty_pilot_block_refused(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=2, colors=2,
                             eps=0.1, mode="det", master_seed=0)
        with pytest.raises(LengthMismatch):
            code.pilot_typical([])

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
        c = 0.1 * 2 * 2 * np.log2(9) / 8 + 0.1 * np.log2(2)
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

    # -1 used to wrap to the typical set (and the size exponents) of input 1,
    # and 5 ended in a bare IndexError
    @pytest.mark.parametrize("x_seq", [[-1, -1], [5]])
    def test_input_symbol_out_of_range(self, flip, x_seq):
        with pytest.raises(IndexOutOfRange):
            enumerate_typical_set(flip, x_seq, 0.3)
        with pytest.raises(IndexOutOfRange):
            typical_size_bounds(flip, x_seq[0], 8, 0.1)

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
