"""The vectorized exact oracles against the block-by-block loops they replace.

Each reference below walks `itertools.product` one block (or table, or grid
point) at a time, in the order and with the float operations of the original
implementation.  The vectorized oracles must return `==`-identical values,
not merely close ones.  The Monte Carlo harness's keyed pilot coloring is
held to the same standard against the row sort it replaces, and the batched
coloring against one scalar coloring per row.
"""

import dataclasses
from itertools import product

import numpy as np
import pytest

from idsense import fixtures
from idsense.coding import ML_TIE_TOL, build_id_code
from idsense.errors import DegenerateCode, InfeasibleDistortion, TooLargeToEnumerate
from idsense.estimation import (
    FEASIBILITY_TOL,
    EstimatorTable,
    distortion_profile,
    hamming_distortion,
    posterior_cost,
)
from idsense.sim import (
    _colors_for,
    _distinct_blocks,
    brute_force_estimator_distortion,
    exact_error_probabilities,
    grid_capacity_oracle,
)
from idsense.typicality import enumerate_blocks, enumerate_typical_set
from tests.conftest import random_channel
from tests.reference import typical_membership


def reference_confusion(code):
    tails = np.array(list(product(range(code.inner.log_table.shape[2]), repeat=code.inner.k)),
                     dtype=np.int64)
    loglik = np.zeros((code.color_count, tails.shape[0]))
    for t in range(code.inner.k):
        loglik += code.inner.log_table[:, t, tails[:, t]]
    # the stated ML rule: the lowest index whose score is within ML_TIE_TOL of the best
    decoded = np.array([min(j for j, score in enumerate(scores)
                            if score >= max(scores) - ML_TIE_TOL)
                        for scores in loglik.T.tolist()])
    lik = np.exp2(loglik)
    confusion = np.zeros((code.color_count, code.color_count))
    for jp in range(code.color_count):
        confusion[:, jp] = lik[:, decoded == jp].sum(axis=1)
    return confusion


def reference_exact(code, ch, pairs):
    confusion = reference_confusion(code)
    row = code.pilot_row
    identities = sorted({i for i, _ in pairs} | {i for _, i in pairs})
    lambda1 = {i: 0.0 for i in identities}
    lambda2 = {(a, b): 0.0 for a, b in pairs if a != b}
    atypical_mass = 0.0
    for pilot in product(range(ch.output_size), repeat=code.n):
        prob = float(np.prod(row[list(pilot)]))
        if prob == 0.0:
            continue
        if not code.pilot_typical(pilot):
            atypical_mass += prob
            continue
        colors = {i: code.coloring(i, pilot) for i in identities}
        for i in identities:
            j = colors[i]
            lambda1[i] += prob * (1.0 - confusion[j - 1, j - 1])
        for (a, b) in lambda2:
            lambda2[(a, b)] += prob * confusion[colors[a] - 1, colors[b] - 1]
    for i in identities:
        lambda1[i] += atypical_mass
    return {"lambda1": lambda1, "lambda2": lambda2, "atypical_mass": atypical_mass}


def reference_colors_for(code, identity, pilots):
    uniq, inverse = np.unique(pilots, axis=0, return_inverse=True)
    values = np.array([code.coloring(identity, row) for row in uniq], dtype=np.int64)
    return values[inverse]


def reference_typical_set(ch, x_seq, eps):
    return [y for y in product(range(ch.output_size), repeat=len(x_seq))
            if typical_membership(ch, x_seq, y, eps)]


def reference_grid(ch, dist=None, budget=None, resolution=200):
    def simplex_grid(dims):
        if dims == 1:
            yield np.array([1.0])
            return
        if dims == 2:
            for i in range(resolution + 1):
                yield np.array([i, resolution - i]) / resolution
            return
        for i in range(resolution + 1):
            for j in range(resolution - i + 1):
                yield np.array([i, j, resolution - i - j]) / resolution

    rows = ch.rows
    grid = np.array(list(simplex_grid(ch.input_size)))
    if budget is not None:
        profile = distortion_profile(ch, dist).per_input
        grid = grid[grid @ profile <= budget + FEASIBILITY_TOL]
        if grid.size == 0:
            raise InfeasibleDistortion(budget)
    mix = grid @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        logmix = np.where(mix > 0, np.log2(np.maximum(mix, 1e-300)), 0.0)
    return float((-(mix * logmix).sum(axis=1)).max())


def reference_brute_force(ch, dist):
    nx, ny, ns = ch.input_size, ch.output_size, ch.state_size
    cost = posterior_cost(ch, dist)
    best_total = best_table = best_per_input = None
    for flat in product(range(ns), repeat=nx * ny):
        table = np.asarray(flat, dtype=np.int64).reshape(nx, ny)
        per_input = np.take_along_axis(cost, table[:, :, None], axis=2)[:, :, 0].sum(axis=1)
        total = per_input.mean()
        if best_total is None or total < best_total:
            best_total, best_table, best_per_input = total, table, per_input
    return best_per_input, EstimatorTable(h=best_table)


def _random_codes():
    ham = hamming_distortion(2)
    for seed in range(4):
        ch = random_channel(np.random.default_rng(100 + seed), 3, 3, 2)
        budget = float(distortion_profile(ch, ham).per_input.max())
        for mode in ("det", "rand"):
            yield ch, build_id_code(ch, ham, budget, n=6, identities=8, colors=2,
                                    eps=0.3, mode=mode, master_seed=seed)


class TestEnumerateBlocks:
    def test_lexicographic_like_product(self):
        for size, n in ((2, 5), (3, 4), (5, 1)):
            blocks = enumerate_blocks(size, n)
            assert blocks.dtype == np.uint8
            assert [tuple(b) for b in blocks.tolist()] == \
                list(product(range(size), repeat=n))

    def test_wide_alphabet_dtype(self):
        blocks = enumerate_blocks(300, 2)
        assert blocks.dtype == np.uint16
        assert blocks.shape == (90000, 2)
        assert blocks[-1].tolist() == [299, 299]

    def test_guard(self):
        assert enumerate_blocks(2, 20).shape == (2 ** 20, 20)
        with pytest.raises(TooLargeToEnumerate):
            enumerate_blocks(2, 21)


class TestExactErrorProbabilities:
    @pytest.mark.parametrize("name,budget,mode,n,colors", [
        ("flip_bsc", 0.45, "det", 8, 4), ("flip_bsc", 0.45, "det", 10, 3),
        ("flip_bsc", 0.45, "rand", 8, 4), ("flip_bsc", 0.5, "rand", 10, 3),
        ("sensor", 0.5, "det", 8, 2), ("sensor", 0.5, "det", 10, 3)])
    def test_fixtures(self, ham2, name, budget, mode, n, colors):
        ch = getattr(fixtures, name)()
        code = build_id_code(ch, ham2, budget, n=n, identities=4, colors=colors,
                             eps=0.2, mode=mode, master_seed=n)
        pairs = [(1, 2), (2, 1), (3, 4), (4, 1)]
        assert exact_error_probabilities(code, ch, pairs) == reference_exact(code, ch, pairs)

    def test_random_channels(self):
        for ch, code in _random_codes():
            pairs = [(1, 2), (2, 3), (3, 1), (8, 5)]
            assert exact_error_probabilities(code, ch, pairs) == \
                reference_exact(code, ch, pairs)

    def test_closed_boundary(self, flip, ham2):
        # FlipBSC, n = 8, eps = 0.1: the all-zero block sits on the boundary
        code = build_id_code(flip, ham2, 0.45, n=8, identities=2 ** 40, colors=4,
                             eps=0.1, mode="det", master_seed=9)
        pairs = [(2 ** 40, 7), (7, 2 ** 40)]
        result = exact_error_probabilities(code, flip, pairs)
        assert result == reference_exact(code, flip, pairs)
        members = enumerate_typical_set(flip, [0] * 8, 0.1)
        assert len(members) == 9
        mass = sum(float(np.prod(code.pilot_row[list(y)])) for y in members)
        assert result["atypical_mass"] == pytest.approx(1.0 - mass, abs=1e-12)


class TestKeyedColoring:
    """Integer keys (or row bytes once |Y|^n >= 2^63) against the row sort."""

    @staticmethod
    def code_for(size, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=16, identities=16, colors=5,
                             eps=0.3, mode="det", master_seed=3)
        return dataclasses.replace(code, pilot_row=np.full(size, 1.0 / size))

    @staticmethod
    def blocks(rng, size, n, dtype):
        pool = rng.integers(0, size, (300, n))
        return pool[rng.integers(0, len(pool), 1000)].astype(dtype)

    @staticmethod
    def colors_for(code, identity, pilots, cache):
        """`_colors_for` on the distinct blocks of `pilots`, spread back to every row."""
        keys, rows, inverse = _distinct_blocks(pilots, code.pilot_row.shape[0])
        return _colors_for(code, identity, keys, rows, cache)[inverse]

    @pytest.mark.parametrize("size,n", [(2, 1), (2, 4), (2, 16), (2, 62), (2, 63), (2, 64),
                                        (3, 39), (3, 40), (300, 3), (300, 8)])
    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_matches_row_unique(self, flip, ham2, size, n, dtype):
        if size > 256 and dtype == np.uint8:
            dtype = np.uint16
        code = self.code_for(size, flip, ham2)
        pilots = self.blocks(np.random.default_rng([size, n]), size, n, dtype)
        for identity in (1, 7, 16):
            colors = self.colors_for(code, identity, pilots, {})
            assert colors.dtype == np.int64
            assert (colors == reference_colors_for(code, identity, pilots)).all()

    @pytest.mark.parametrize("size,n", [(2, 16), (3, 40), (300, 3)])
    def test_shared_cache(self, flip, ham2, size, n):
        code = self.code_for(size, flip, ham2)
        rng = np.random.default_rng(n)
        dtype = np.uint8 if size <= 256 else np.int64
        calls = [self.blocks(rng, size, n, dtype) for _ in range(4)]
        cache = {}
        for pilots in calls:
            for identity in (2, 9, 16):
                assert (self.colors_for(code, identity, pilots, cache)
                        == reference_colors_for(code, identity, pilots)).all()
        assert sorted(cache) == [2, 9, 16]
        # every block is now cached: a code that refuses to color still answers
        refusing = dataclasses.replace(code, identity_count=0)
        for pilots in calls:
            assert (self.colors_for(refusing, 9, pilots, cache)
                    == reference_colors_for(code, 9, pilots)).all()


class TestBatchedColoring:
    """`colorings` of a block array against one `coloring` call per row."""

    @staticmethod
    def code_for(colors, flip, ham2, size=2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=5)
        return dataclasses.replace(code, identity_count=2 ** 512, color_count=colors,
                                   pilot_row=np.full(size, 1.0 / size))

    # 4,500 rows span five hashing sub-batches; at M = 2^62 + 1 about a quarter
    # of the rows are redrawn, and |Y| = 300 mixes wide and one-byte payloads
    @pytest.mark.parametrize("colors", [1, 2, 3, 5, 2 ** 32, 2 ** 62 + 1])
    @pytest.mark.parametrize("size,n,dtype", [
        (2, 1, np.uint8), (2, 4, np.uint8), (2, 16, np.uint8), (3, 16, np.uint8),
        (256, 4, np.int64), (256, 4, np.uint16), (300, 3, np.uint16), (300, 3, np.int64)])
    def test_matches_scalar(self, flip, ham2, colors, size, n, dtype):
        code = self.code_for(colors, flip, ham2, size)
        blocks = np.random.default_rng([size, n]).integers(0, size, (4500, n)).astype(dtype)
        for identity in (1, 2 ** 512):
            values = code.colorings(identity, blocks)
            assert values.dtype == np.int64
            assert values.tolist() == [code.coloring(identity, row) for row in blocks]

    def test_empty(self, flip, ham2):
        code = self.code_for(5, flip, ham2)
        for dtype in (np.uint8, np.int64):
            values = code.colorings(3, np.zeros((0, 16), dtype=dtype))
            assert values.dtype == np.int64 and values.shape == (0,)
            # blocks of no symbols: every row has the empty payload
            blocks = np.zeros((3, 0), dtype=dtype)
            assert code.colorings(3, blocks).tolist() == [code.coloring(3, row) for row in blocks]

    def test_identity_range(self, flip, ham2):
        code = self.code_for(5, flip, ham2)
        blocks = np.zeros((3, 4), dtype=np.uint8)
        for identity in (0, code.identity_count + 1):
            with pytest.raises(DegenerateCode):
                code.colorings(identity, blocks)


class TestTypicalSet:
    def test_fixtures(self, flip, sensor):
        rng = np.random.default_rng(3)
        for ch in (flip, sensor):
            for n in (1, 6, 11):
                for eps in (0.0, 0.05, 0.1, 0.2, 0.3):
                    x = [int(v) for v in rng.integers(0, 2, n)]
                    assert enumerate_typical_set(ch, x, eps) == \
                        reference_typical_set(ch, x, eps)

    def test_random_channels(self):
        rng = np.random.default_rng(4)
        for seed in range(3):
            ch = random_channel(np.random.default_rng(seed), 3, 3, 2)
            for eps in (0.1, 0.25):
                x = [int(v) for v in rng.integers(0, 3, 7)]
                assert enumerate_typical_set(ch, x, eps) == \
                    reference_typical_set(ch, x, eps)

    def test_closed_boundary(self, flip):
        members = enumerate_typical_set(flip, [0] * 8, 0.1)
        assert members == reference_typical_set(flip, [0] * 8, 0.1)
        assert len(members) == 9 and members[0] == (0,) * 8


class TestGridOracle:
    def test_unconstrained(self, flip, sensor):
        channels = [flip, sensor, random_channel(np.random.default_rng(9), 1, 3, 2)]
        channels += [random_channel(np.random.default_rng(s), 3, 3, 2) for s in range(3)]
        for ch in channels:
            for resolution in (1, 2, 7, 120):
                assert grid_capacity_oracle(ch, resolution=resolution) == \
                    reference_grid(ch, resolution=resolution)

    def test_with_budget(self, sensor, ham2):
        cases = [(sensor, 0.3)]
        for s in range(3):
            ch = random_channel(np.random.default_rng(200 + s), 3, 3, 2)
            prof = distortion_profile(ch, ham2).per_input
            cases.append((ch, float(prof.min() + 0.4 * (prof.max() - prof.min()))))
        for ch, budget in cases:
            assert grid_capacity_oracle(ch, ham2, budget, resolution=150) == \
                reference_grid(ch, ham2, budget, resolution=150)


class TestBruteForceEstimator:
    @pytest.mark.parametrize("shape", [(2, 2, 2), (3, 3, 2), (2, 3, 3), (1, 10, 2)])
    def test_random_channels(self, shape):
        for seed in range(2):
            ch = random_channel(np.random.default_rng(seed), *shape)
            dist = hamming_distortion(shape[2])
            per_input, table = brute_force_estimator_distortion(ch, dist)
            ref_per_input, ref_table = reference_brute_force(ch, dist)
            assert per_input.tolist() == ref_per_input.tolist()
            assert np.array_equal(table.h, ref_table.h)

    def test_fixtures_and_ties(self, flip, sensor, ham2):
        from idsense.channel import StateDMC
        flat = StateDMC(2, 2, 2, np.full((2, 2, 2), 0.5), np.array([0.5, 0.5]))
        for ch in (flip, sensor, flat):
            per_input, table = brute_force_estimator_distortion(ch, ham2)
            ref_per_input, ref_table = reference_brute_force(ch, ham2)
            assert per_input.tolist() == ref_per_input.tolist()
            assert np.array_equal(table.h, ref_table.h)


class TestChunkBoundaries:
    """Sums carried across chunks equal one pass: rerun with 7-row chunks."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr("idsense.typicality.CHUNK_ROWS", 7)

    def test_exact_error_probabilities(self, flip, sensor, ham2):
        for ch, budget in ((flip, 0.45), (sensor, 0.5)):
            code = build_id_code(ch, ham2, budget, n=9, identities=4, colors=2,
                                 eps=0.3, mode="det", master_seed=2)
            pairs = [(1, 2), (2, 1), (3, 4)]
            assert exact_error_probabilities(code, ch, pairs) == \
                reference_exact(code, ch, pairs)

    def test_typical_set_and_tables(self, sensor, ham2):
        x = [0, 1, 1, 0, 0, 1, 0, 1]
        assert enumerate_typical_set(sensor, x, 0.25) == \
            reference_typical_set(sensor, x, 0.25)
        ch = random_channel(np.random.default_rng(1), 2, 3, 2)
        per_input, table = brute_force_estimator_distortion(ch, ham2)
        ref_per_input, ref_table = reference_brute_force(ch, ham2)
        assert per_input.tolist() == ref_per_input.tolist()
        assert np.array_equal(table.h, ref_table.h)
