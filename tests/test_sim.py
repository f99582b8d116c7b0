import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsense import fixtures
from idsense.channel import StateDMC
from idsense.coding import IDFeedbackCode, _log_table, _ml_decode, build_id_code, \
    coloring_values
from idsense.errors import AlphabetTooLarge, TooLargeToEnumerate
from idsense.estimation import DistortionMatrix, distortion_profile, hamming_distortion
from idsense.capacity import det_feedback_capacity, rand_capacity_distortion
from idsense.sim import (
    _block_keys,
    _decode_tails,
    _distinct_blocks,
    brute_force_estimator_distortion,
    exact_error_probabilities,
    grid_capacity_oracle,
    monte_carlo,
    run_trial,
)
from idsense.typicality import enumerate_blocks
from tests.conftest import random_channel


def pilot_plus_noiseless():
    """|X|=3, |S|=1: input 0 is a fair coin, inputs 1 and 2 are noiseless."""
    kernel = np.array([[[0.5, 0.5]], [[1.0, 0.0]], [[0.0, 1.0]]])
    return StateDMC(3, 2, 1, kernel, np.array([1.0]))


def noiseless_code(identities=2, n=9, colors=4, seed=0):
    ch = pilot_plus_noiseless()
    dist = hamming_distortion(1)
    code = build_id_code(ch, dist, 0.0, n=n, identities=identities,
                         colors=colors, eps=0.5, mode="det", master_seed=seed)
    return ch, dist, code


class TestRunTrial:
    def test_determinism(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        a = run_trial(code, flip, ham2, 2, 2, np.random.default_rng(5))
        b = run_trial(code, flip, ham2, 2, 2, np.random.default_rng(5))
        assert a.y_seq == b.y_seq and a.accepted == b.accepted
        assert a.distortions == b.distortions

    def test_noiseless_self_test_accepts(self):
        ch, dist, code = noiseless_code()
        assert code.inner.max_error == 0.0
        for t in range(20):
            outcome = run_trial(code, ch, dist, 1, 1, np.random.default_rng(t))
            assert outcome.accepted and outcome.pilot_typical
            assert all(d == 0.0 for d in outcome.distortions)

    def test_cross_test_matches_coloring_collision(self):
        ch, dist, code = noiseless_code()
        rng = np.random.default_rng(3)
        for _ in range(20):
            outcome = run_trial(code, ch, dist, 1, 2, rng)
            pilot = outcome.y_seq[:code.n]
            expected = code.coloring(1, pilot) == code.coloring(2, pilot)
            assert outcome.accepted == expected

    # the scalar closed loop is the checked reference of the vectorized
    # pairs: its acceptance rates match the exact oracle
    @pytest.mark.parametrize("mode", ["det", "rand"])
    def test_rates_match_exact_oracle(self, flip, ham2, mode):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode=mode, master_seed=1)
        exact = exact_error_probabilities(code, flip, [(1, 2)])
        rng = np.random.default_rng(0)
        trials = 2000
        for pair, accept in (((1, 1), 1.0 - exact["lambda1"][1]),
                             ((1, 2), exact["lambda2"][(1, 2)])):
            rate = np.mean([run_trial(code, flip, ham2, *pair, rng).accepted
                            for _ in range(trials)])
            assert abs(rate - accept) <= 4 * np.sqrt(accept * (1.0 - accept) / trials)


class TestMonteCarlo:
    def test_noiseless_collision_rate(self):
        ch, dist, code = noiseless_code()
        report = monte_carlo(code, ch, dist, 10**4, seed=7)
        assert report.lambda1_hat == 0.0
        # collision probability concentrates at 1/M over 512 pilot blocks
        band = 3 * np.sqrt(0.25 * 0.75 / 512) + 3 * np.sqrt(0.25 * 0.75 / 10**4)
        assert abs(report.lambda2_hat - 0.25) <= band

    def test_sensor_pilot_distortion(self, sensor, ham2):
        code = build_id_code(sensor, ham2, 0.5, n=8, identities=4, colors=2,
                             eps=0.25, mode="det", master_seed=2)
        assert int(code.pilot) == 0
        report = monte_carlo(code, sensor, ham2, 4000, seed=1)
        for t in range(code.n):
            band = 3 * report.d_t_stderr[t] + 1e-9
            assert abs(report.d_t_hat[t] - 0.1) <= band

    def test_stderr_scaling(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        small = monte_carlo(code, flip, ham2, 2000, seed=3)
        large = monte_carlo(code, flip, ham2, 8000, seed=3)
        ratio = large.d_t_stderr.mean() / small.d_t_stderr.mean()
        assert 0.4 <= ratio <= 0.6

    def test_determinism(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        a = monte_carlo(code, flip, ham2, 500, seed=11).to_dict()
        b = monte_carlo(code, flip, ham2, 500, seed=11).to_dict()
        assert a == b

    def test_average_below_max(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        report = monte_carlo(code, flip, ham2, 1000, seed=4)
        assert report.d_bar_hat <= report.d_t_hat.max() + 1e-12
        assert report.d_bar_hat == pytest.approx(report.d_t_hat.mean(), abs=1e-12)

    def test_random_sample_of_few_identities(self, flip, ham2):
        # fewer identities than the sample size: all of them, all 12 pairs
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        report = monte_carlo(code, flip, ham2, 50, seed=3)
        assert report.identities == (1, 2, 3, 4)
        assert len(report.pairs) == 12

    def test_big_identity_space_subsampled(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=2 ** 40,
                             colors=4, eps=0.3, mode="det", master_seed=1)
        report = monte_carlo(code, flip, ham2, 200, seed=5)
        assert len(report.identities) == 8
        assert len(report.pairs) == 16
        assert all(1 <= i <= 2 ** 40 for i in report.identities)


def random_setup(seed: int, sizes: tuple, dist: DistortionMatrix, share: float):
    """A random channel from `seed`, `dist`, and a budget at `share` of its d* range."""
    ch = random_channel(np.random.default_rng(seed), *sizes)
    d_star = distortion_profile(ch, dist).per_input
    return ch, dist, float(d_star.min() + share * (d_star.max() - d_star.min()))


PINNED_CHANNELS = {
    "flip": lambda: (fixtures.flip_bsc(), hamming_distortion(2), 0.45),
    "random333": lambda: random_setup(1, (3, 3, 3), hamming_distortion(3), 0.6),
    "random243": lambda: random_setup(2, (2, 4, 3), DistortionMatrix(
        d=np.array([[0.0, 1.0, 2.0], [0.5, 0.0, 1.0], [3.0, 0.25, 0.0]])), 0.7),
}

# The three `monte_carlo` configurations of the benchmark, on FlipBSC at
# budget 0.45 and eps 0.3, with a few hundred trials per pair.  Each samples
# 8 identities and 16 ordered pairs, so an identity is colored in several
# pairs.  Two more run on `random333`, where every alphabet has three
# letters: det at n = 40, whose 3^40 >= 2^63 pilot blocks are keyed by their
# bytes, and rand at n = 6.  `random243` has |X| = 2, |Y| = 4, |S| = 3 and an
# asymmetric distortion, so a flat row index or a distortion lookup that
# swaps two of them cannot pass.  Each report's JSON is pinned byte for byte
# in tests/data/sim/<name>.json: a change to the sampler or the coloring may
# not move any figure, not even by one ulp.
PINNED_REPORTS = {
    "flip_det_n4": dict(channel="flip", n=4, identities=16, colors=4, mode="det",
                        master_seed=31, trials=400, seed=5),
    "flip_rand_n4": dict(channel="flip", n=4, identities=16, colors=4, mode="rand",
                         master_seed=32, trials=400, seed=6),
    "flip_det_n16": dict(channel="flip", n=16, identities=2 ** 512, colors=5, mode="det",
                         master_seed=9, trials=300, seed=7),
    "random333_det_n40": dict(channel="random333", n=40, identities=2 ** 64, colors=3,
                              mode="det", master_seed=21, trials=300, seed=8),
    "random333_rand_n6": dict(channel="random333", n=6, identities=2 ** 64, colors=3,
                              mode="rand", master_seed=22, trials=300, seed=9),
    "random243_rand_n8": dict(channel="random243", n=8, identities=2 ** 64, colors=2,
                              mode="rand", master_seed=23, trials=300, seed=10),
}
PINNED_DIR = Path(__file__).parent / "data" / "sim"


def pinned_report(name: str) -> bytes:
    """The JSON of one pinned configuration's `SimReport.to_dict()`."""
    cfg = dict(PINNED_REPORTS[name])
    trials, seed = cfg.pop("trials"), cfg.pop("seed")
    ch, dist, budget = PINNED_CHANNELS[cfg.pop("channel")]()
    code = build_id_code(ch, dist, budget, eps=0.3, **cfg)
    report = monte_carlo(code, ch, dist, trials, seed=seed)
    return (json.dumps(report.to_dict(), indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(PINNED_REPORTS))
def test_pinned_report(name):
    assert pinned_report(name) == (PINNED_DIR / f"{name}.json").read_bytes()


# An inner code whose error is measured by Monte Carlo: FlipBSC det at
# n = 169 has k = 13, and its 2^13 tails exceed EXACT_ERROR_GUARD.  Its
# codewords and the `repr` of its measured error are pinned in
# tests/data/sim/inner_flip_det_n169.json, so the sampler that
# `_mc_error_profile` draws through may not move the codebook.
def pinned_inner_code() -> bytes:
    flip = fixtures.flip_bsc()
    code = build_id_code(flip, hamming_distortion(2), 0.45, n=169, identities=16, colors=5,
                         eps=0.3, mode="det", master_seed=9)
    inner = {"codewords": [list(cw) for cw in code.inner.codewords],
             "max_error": repr(code.inner.max_error),
             "error_method": code.inner.error_method}
    return (json.dumps(inner, indent=2) + "\n").encode()


def test_pinned_inner_code():
    assert pinned_inner_code() == (PINNED_DIR / "inner_flip_det_n169.json").read_bytes()


# The benchmark's two `exact_error_probabilities` codes, det at n = 16 and
# eps 0.3, with a fixed master seed and one fixed ordered pair each way.
# FlipBSC is criterion 8's code.  The `repr` of every returned value is pinned in
# tests/data/sim/<name>.json, so a change to the coloring or to the order of
# the sums may not move any figure, not even by one ulp.
PINNED_EXACT = {
    "exact_flip_det_n16": dict(channel="flip_bsc", budget=0.45, identities=2 ** 512,
                               colors=5, master_seed=9, pair=(2 ** 512, 3 ** 323)),
    "exact_sensor_det_n16": dict(channel="sensor", budget=0.5, identities=2 ** 16,
                                 colors=3, master_seed=12, pair=(7, 2 ** 16)),
}


def pinned_exact(name: str) -> bytes:
    """The JSON of the `repr` of every value of one pinned exact configuration."""
    cfg = dict(PINNED_EXACT[name])
    ch = getattr(fixtures, cfg.pop("channel"))()
    budget, (a, b) = cfg.pop("budget"), cfg.pop("pair")
    code = build_id_code(ch, hamming_distortion(2), budget, n=16, eps=0.3, mode="det", **cfg)
    result = exact_error_probabilities(code, ch, [(a, b), (b, a)])
    values = {
        "lambda1": {str(i): repr(v) for i, v in sorted(result["lambda1"].items())},
        "lambda2": {f"{i}->{j}": repr(v) for (i, j), v in sorted(result["lambda2"].items())},
        "atypical_mass": repr(result["atypical_mass"]),
    }
    return (json.dumps(values, indent=2) + "\n").encode()


@pytest.mark.parametrize("name", sorted(PINNED_EXACT))
def test_pinned_exact(name):
    assert pinned_exact(name) == (PINNED_DIR / f"{name}.json").read_bytes()


class TestExactOracle:
    def test_noiseless_lambda1_zero(self):
        ch, _, code = noiseless_code()
        result = exact_error_probabilities(code, ch, [(1, 2), (2, 1)])
        assert all(v == 0.0 for v in result["lambda1"].values())
        assert result["atypical_mass"] == 0.0

    def test_monte_carlo_within_three_sigma(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        trials = 2 * 10**4
        report = monte_carlo(code, flip, ham2, trials, seed=9)
        exact = exact_error_probabilities(code, flip, report.pairs)
        for i in report.identities:
            p = exact["lambda1"][i]
            band = 3 * np.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(report.lambda1_per_identity[i] - p) <= band
        for pair in report.pairs:
            p = exact["lambda2"][pair]
            band = 3 * np.sqrt(max(p * (1 - p), 1e-12) / trials)
            assert abs(report.lambda2_per_pair[pair] - p) <= band

    def test_identical_colorings_degenerate_pair(self, flip, ham2):
        base = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)

        class CollidingCode(IDFeedbackCode):
            # both identities use identity 1's coloring on every pilot block
            def colorings(self, identity, blocks):
                return coloring_values(self.master_seed, self.color_count, 1, blocks)

        fields = {f.name: getattr(base, f.name)
                  for f in dataclasses.fields(base)}
        code = CollidingCode(**fields)
        result = exact_error_probabilities(code, flip, [(1, 2)])
        assert result["lambda2"][(1, 2)] == pytest.approx(
            1.0 - result["lambda1"][1], abs=1e-12)

    def test_guard(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=25, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        with pytest.raises(TooLargeToEnumerate):
            exact_error_probabilities(code, flip, [(1, 2)])


class TestBruteForceEstimator:
    def test_matches_fixtures(self, flip, sensor, ham2):
        for ch in (flip, sensor):
            per_input, table = brute_force_estimator_distortion(ch, ham2)
            expected = distortion_profile(ch, ham2).per_input
            assert np.abs(per_input - expected).max() <= 1e-12

    def test_single_state(self):
        ch = StateDMC(1, 2, 1, np.array([[[0.3, 0.7]]]), np.array([1.0]))
        per_input, _ = brute_force_estimator_distortion(ch, hamming_distortion(1))
        assert np.array_equal(per_input, [0.0])

    def test_random_channels(self):
        dist = hamming_distortion(2)
        for seed in range(10):
            ch = random_channel(np.random.default_rng(seed), 2, 3, 2)
            per_input, _ = brute_force_estimator_distortion(ch, dist)
            expected = distortion_profile(ch, dist).per_input
            assert np.abs(per_input - expected).max() <= 1e-12


class TestGridOracle:
    def test_flip_unconstrained(self, flip):
        assert grid_capacity_oracle(flip) == pytest.approx(1.0, abs=1e-9)

    def test_resolution_one_equals_det(self, flip, sensor):
        for ch in (flip, sensor):
            det = det_feedback_capacity(ch).value
            assert grid_capacity_oracle(ch, resolution=1) == pytest.approx(det, abs=1e-12)

    def test_alphabet_guard(self):
        ch = random_channel(np.random.default_rng(0), 4, 2, 2)
        with pytest.raises(AlphabetTooLarge):
            grid_capacity_oracle(ch)

    def test_constrained_matches_solver(self, sensor, ham2):
        grid = grid_capacity_oracle(sensor, ham2, budget=0.3, resolution=400)
        solver = rand_capacity_distortion(sensor, ham2, 0.3).value
        assert abs(grid - solver) <= 1e-4


def unique_distinct(blocks, size):
    """What `_distinct_blocks` returned before its dense key table: `np.unique`'s sort."""
    keys, first, inverse = np.unique(_block_keys(blocks, size), return_index=True,
                                     return_inverse=True)
    return keys, blocks[first], inverse


def assert_same_distinct(blocks, size):
    keys, rows, inverse = _distinct_blocks(blocks, size)
    ref_keys, ref_rows, ref_inverse = unique_distinct(blocks, size)
    assert keys.dtype == ref_keys.dtype and keys.tobytes() == ref_keys.tobytes()
    assert rows.dtype == blocks.dtype and np.array_equal(rows, ref_rows)
    assert inverse.dtype == ref_inverse.dtype and np.array_equal(inverse, ref_inverse)


class TestDistinctBlocks:
    """The dense key table (|Y|^n <= rows) and the sort return the same sorted keys,
    rows and inverse as `np.unique`; rows of equal keys are equal, so any serves."""

    @settings(max_examples=150, deadline=None)
    @given(size=st.sampled_from([2, 3, 5]), n=st.integers(1, 5), data=st.data())
    def test_small_spaces(self, size, n, data):
        space = size ** n
        # a single row, below, at and above the key space, and far above it
        count = data.draw(st.sampled_from([1, space - 1, space, space + 1, 3 * space]))
        pool = data.draw(st.integers(1, space))
        dtype = data.draw(st.sampled_from([np.uint8, np.int64]))
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
        rows = rng.integers(0, size, (pool, n))
        assert_same_distinct(rows[rng.integers(0, pool, count)].astype(dtype), size)

    @settings(max_examples=20, deadline=None)
    @given(shape=st.sampled_from([(2, 62), (2, 63), (2, 70), (3, 39), (3, 40), (5, 27),
                                  (5, 28)]),
           count=st.integers(1, 400), seed=st.integers(0, 2 ** 32 - 1))
    def test_wide_blocks(self, shape, count, seed):
        # byte keys once |Y|^n >= 2^63, integer keys just below it
        size, n = shape
        rng = np.random.default_rng(seed)
        rows = rng.integers(0, size, (max(count // 3, 1), n))
        assert_same_distinct(rows[rng.integers(0, len(rows), count)].astype(np.uint8), size)


class TestDecodeTails:
    """Scoring each distinct tail once decides every tail as `_ml_decode` does."""

    @pytest.mark.parametrize("n", [16, 49, 81, 144])
    def test_flip_tied_tails(self, flip, ham2, n):
        # TestMLTieRule's builds, whose tails tie at the minimum Hamming distance
        table = build_id_code(flip, ham2, 1.0, n, 2 ** 8, 5, 0.1, "det", 1).inner.log_table
        tails = enumerate_blocks(2, table.shape[1])
        rng = np.random.default_rng(n)
        for count in (len(tails) // 3, len(tails), 3 * len(tails)):
            sample = np.concatenate([tails, tails[rng.integers(0, len(tails), count)]])
            for rows in (sample, sample[:count]):
                assert np.array_equal(_decode_tails(table, rows), _ml_decode(table, rows)[0])

    @pytest.mark.parametrize("seed", range(4))
    def test_three_outputs(self, seed):
        rng = np.random.default_rng(seed)
        ch = random_channel(rng, 3, 3, 2)
        for k in (1, 3, 5):
            table = _log_table(ch.rows, rng.integers(0, 3, (4, k)))
            for count in (2, 3 ** k, 4 * 3 ** k):
                tails = rng.integers(0, 3, (count, k))
                assert np.array_equal(_decode_tails(table, tails), _ml_decode(table, tails)[0])
