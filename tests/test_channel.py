import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idsense.capacity import InputDistribution
from idsense.channel import (
    StateDMC,
    channel_from_dict,
    channel_to_dict,
    cumulative,
    load_channel,
    sample_rows,
    sample_state_sequence,
    transmit,
    validate_channel,
)
from idsense.coding import _log_table, _loglik, build_id_code
from idsense.errors import DimensionMismatch, IndexOutOfRange, RowNotNormalized
from tests.conftest import random_channel


def identity_channel():
    kernel = np.eye(2)[:, None, :]
    return StateDMC(input_size=2, output_size=2, state_size=1,
                    kernel=kernel, state_prior=np.array([1.0]))


class TestValidation:
    def test_identity_kernel_valid(self):
        ch = identity_channel()
        assert ch.input_size == 2 and ch.state_size == 1

    def test_unnormalized_row_rejected(self):
        kernel = np.eye(2)[:, None, :].copy()
        kernel[1, 0] = [0.5, 0.49]
        with pytest.raises(RowNotNormalized):
            validate_channel(kernel, [1.0])

    def test_flip_bsc_valid(self, flip):
        assert flip.kernel.shape == (2, 2, 2)
        assert np.allclose(flip.kernel.sum(axis=2), 1.0, atol=1e-12)

    def test_negative_entry_rejected(self):
        kernel = np.array([[[1.2, -0.2]]])
        with pytest.raises(Exception):
            validate_channel(kernel, [1.0])


class TestAveraging:
    def test_single_state_equals_kernel_slice(self):
        ch = identity_channel()
        assert np.array_equal(ch.rows, ch.kernel[:, 0, :])

    def test_flip_bsc_rows(self, flip):
        assert np.allclose(flip.rows[0], [0.9, 0.1], atol=1e-12)
        assert np.allclose(flip.rows[1], [0.1, 0.9], atol=1e-12)

    def test_sensor_rows(self, sensor):
        rows = sensor.rows
        assert np.allclose(rows, [[0.5, 0.5], [0.0, 1.0]], atol=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10**6), nx=st.integers(1, 4),
           ny=st.integers(1, 4), ns=st.integers(1, 3))
    def test_rows_normalized(self, seed, nx, ny, ns):
        ch = random_channel(np.random.default_rng(seed), nx, ny, ns)
        rows = ch.rows
        assert np.allclose(rows.sum(axis=1), 1.0, atol=1e-12)


class TestSampling:
    def test_degenerate_prior(self):
        kernel = np.tile(np.array([[0.5, 0.5]]), (1, 2, 1)).reshape(1, 2, 2)
        ch = StateDMC(1, 2, 2, kernel, np.array([1.0, 0.0]))
        seq = sample_state_sequence(ch, 50, np.random.default_rng(0))
        assert (seq == 0).all()

    def test_state_frequency(self, flip):
        seq = sample_state_sequence(flip, 10**5, np.random.default_rng(1))
        freq = seq.mean()
        assert abs(freq - 0.5) <= 3 * np.sqrt(0.25 / 10**5)

    def test_seed_determinism(self, flip):
        a = sample_state_sequence(flip, 100, np.random.default_rng(7))
        b = sample_state_sequence(flip, 100, np.random.default_rng(7))
        assert np.array_equal(a, b)

    def test_transmit_deterministic_row(self, sensor):
        rng = np.random.default_rng(0)
        assert all(transmit(sensor, 1, s, rng) == 1 for s in (0, 1) for _ in range(20))

    def test_transmit_flip_fraction(self, flip):
        rng = np.random.default_rng(2)
        flips = sum(transmit(flip, 0, 0, rng) for _ in range(10**5))
        assert abs(flips / 10**5 - 0.05) <= 3 * np.sqrt(0.05 * 0.95 / 10**5)

    def test_transmit_out_of_range(self, flip):
        rng = np.random.default_rng(0)
        with pytest.raises(IndexOutOfRange):
            transmit(flip, 2, 0, rng)
        with pytest.raises(IndexOutOfRange):
            transmit(flip, 0, 2, rng)

    def test_transmit_seed_determinism(self, flip):
        a = transmit(flip, 0, 1, np.random.default_rng(3))
        b = transmit(flip, 0, 1, np.random.default_rng(3))
        assert a == b

    def test_joint_frequency(self, flip):
        # empirical (s, y) frequency for fixed x matches P_S(s) W(y|x,s)
        rng = np.random.default_rng(4)
        trials = 10**5
        states = sample_state_sequence(flip, trials, rng)
        counts = np.zeros((2, 2))
        for s in states:
            counts[s, transmit(flip, 0, int(s), rng)] += 1
        target = flip.state_prior[:, None] * flip.kernel[0]
        sigma = np.sqrt(target * (1 - target) / trials)
        assert (np.abs(counts / trials - target) <= 3 * sigma + 1e-12).all()


class TestLikelihood:
    """The inner code's ML score is log2 W^n(y^n|x^n) on the averaged rows."""

    @staticmethod
    def likelihoods(ch, x_seq, tails):
        table = _log_table(ch.rows, [x_seq])
        return np.exp2(_loglik(table, np.asarray(tails, dtype=np.int64))[0])

    def test_length_one(self, flip):
        assert self.likelihoods(flip, [0], [[1]])[0] == pytest.approx(0.1, abs=1e-12)

    def test_flip_two_letters(self, flip):
        assert self.likelihoods(flip, [0, 0], [[0, 0]])[0] == pytest.approx(0.81, abs=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10**6), n=st.integers(1, 6))
    def test_sums_to_one(self, seed, n):
        from itertools import product
        ch = random_channel(np.random.default_rng(seed), 2, 2, 2)
        x = list(np.random.default_rng(seed + 1).integers(0, 2, size=n))
        total = self.likelihoods(ch, x, list(product(range(2), repeat=n))).sum()
        assert total == pytest.approx(1.0, abs=1e-9)


class TestSerialization:
    def test_roundtrip(self, flip):
        again = channel_from_dict(channel_to_dict(flip))
        assert np.array_equal(again.kernel, flip.kernel)
        assert np.array_equal(again.state_prior, flip.state_prior)

    @pytest.mark.parametrize("key", ["input_size", "output_size", "state_size",
                                     "state_prior", "kernel"])
    def test_missing_key(self, flip, key):
        spec = channel_to_dict(flip)
        del spec[key]
        with pytest.raises(DimensionMismatch, match=f"missing key '{key}'"):
            channel_from_dict(spec)

    def test_declared_sizes_must_match_kernel(self, flip):
        spec = channel_to_dict(flip)
        spec["output_size"] = 3
        with pytest.raises(DimensionMismatch, match="declared sizes"):
            channel_from_dict(spec)

    def test_load_channel_with_distortion(self, tmp_path, flip):
        spec = channel_to_dict(flip)
        spec["distortion"] = [[0.0, 1.0], [1.0, 0.0]]
        path = tmp_path / "ch.json"
        path.write_text(json.dumps(spec))
        ch, dist = load_channel(path)
        assert ch.input_size == 2
        assert np.array_equal(dist, np.array([[0.0, 1.0], [1.0, 0.0]]))


def searchsorted_draw(p, u):
    """The draw `sample_rows` replaced in transmit, the state sampler and the rand pilot,
    over the row with its zero tail removed and its last positive entry pinned to 1.0."""
    p = np.asarray(p)
    cum = np.cumsum(p[:np.flatnonzero(p > 0)[-1] + 1])
    cum[-1] = 1.0
    return np.searchsorted(cum, u, side="right")


def edge_uniforms(rng, cum):
    """One uniform in [0, 1) per row of `cum` (..., Y): on a boundary of its row, one ulp
    below it, or random.  A boundary at or above 1.0 gives the largest float below 1.0."""
    pick = rng.integers(0, cum.shape[-1], cum.shape[:-1])
    edge = np.take_along_axis(cum, pick[..., None], axis=-1)[..., 0]
    kind = rng.integers(0, 3, edge.shape)
    u = np.where(kind == 0, edge,
                 np.where(kind == 1, np.nextafter(edge, 0), rng.random(edge.shape)))
    return np.minimum(u, np.nextafter(1.0, 0))


def sparse_rows(rng, shape):
    """Random distributions on the last axis, with many entries exactly zero."""
    p = rng.random(shape) * (rng.random(shape) < 0.6)
    p[..., int(rng.integers(shape[-1]))] += 0.1
    return p / p.sum(axis=-1, keepdims=True)


class TestSearchsortedReference:
    """The one sampler, `sample_rows`, draws what searchsorted(side="right") drew."""

    def test_sample_rows_on_boundaries(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            p = sparse_rows(rng, (int(rng.integers(1, 7)),))
            cum = cumulative(p)
            # u exactly on each cumulative boundary inside [0, 1), one ulp below it, and 0
            edges = cum[cum < 1.0]
            u = np.concatenate([rng.random(2000), edges, np.nextafter(edges, 0), [0.0]])
            assert np.array_equal(sample_rows(cum, u), searchsorted_draw(p, u))

    @pytest.mark.parametrize("seed", range(4))
    def test_broadcast_table(self, seed):
        # one row per draw: a (trials, n, |Y|) table against (trials, n) uniforms
        rng = np.random.default_rng(seed)
        p = sparse_rows(rng, (40, 7, int(rng.integers(2, 6))))
        u = edge_uniforms(rng, cumulative(p))
        draws = sample_rows(cumulative(p), u)
        assert draws.shape == u.shape and draws.dtype == np.int64
        for i in np.ndindex(u.shape):
            assert draws[i] == searchsorted_draw(p[i], u[i])

    @pytest.mark.parametrize("seed", range(4))
    def test_flat_table(self, seed):
        # the kernel as one flat (|X|·|S|, |Y|) table; draw i uses row x_i·|S| + s_i
        rng = np.random.default_rng(seed)
        nx, ns, ny = 3, 4, int(rng.integers(2, 6))
        kernel = sparse_rows(rng, (nx, ns, ny))
        x, s = rng.integers(0, nx, (40, 9)), rng.integers(0, ns, (40, 9))
        cum = cumulative(kernel)
        u = edge_uniforms(rng, cum[x, s])
        draws = sample_rows(cum.reshape(-1, ny), u, x * ns + s)
        assert draws.shape == u.shape and draws.dtype == np.int64
        for i in np.ndindex(u.shape):
            assert draws[i] == searchsorted_draw(kernel[x[i], s[i]], u[i])

    def test_single_output(self):
        # |Y| = 1: the only boundary is 1.0, so every uniform in [0, 1) draws 0
        rng = np.random.default_rng(0)
        u = np.concatenate([rng.random(50), [0.0, np.nextafter(1.0, 0)]]).reshape(4, 13)
        rows = np.ones((6, 1))
        for draws in (sample_rows(cumulative(rows[0]), u),
                      sample_rows(cumulative(rows), u, rng.integers(0, 6, u.shape))):
            assert draws.shape == u.shape and draws.dtype == np.int64
            assert np.array_equal(draws, searchsorted_draw(rows[0], u))
            assert not draws.any()

    def test_trailing_zero_outputs(self):
        # rows whose last outputs have probability 0 and whose running sum
        # rounds below 1.0: the columns from the last positive output on are
        # pinned, so no uniform draws past that output (u = 1 - 2^-53 once
        # drew output 4 of the first row)
        rows = np.array([[0.6, 0.3, 0.1, 0.0, 0.0], [0.2, 0.7, 0.1, 0.0, 0.0]])
        assert (np.cumsum(rows, axis=1)[:, -1] < 1.0).all()
        cum = cumulative(rows)
        assert (cum[:, 2:] == 1.0).all()
        rng = np.random.default_rng(0)
        edges = cum[cum < 1.0]
        u = np.concatenate([rng.random(200), edges, np.nextafter(edges, 0),
                            [0.0, np.nextafter(1.0, 0)]])
        for r, row in enumerate(rows):
            draws = sample_rows(cum[r], u)
            assert np.array_equal(draws, searchsorted_draw(row, u))
            assert draws.max() == 2
        index = rng.integers(0, 2, u.shape)
        assert np.array_equal(sample_rows(cum, u, index),
                              [searchsorted_draw(rows[i], v) for i, v in zip(index, u)])

    @pytest.mark.parametrize("seed", range(4))
    def test_transmit_and_states(self, seed):
        rng = np.random.default_rng(seed)
        ch = StateDMC(3, 4, 3, sparse_rows(rng, (3, 3, 4)), sparse_rows(rng, (3,)))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        states = sample_state_sequence(ch, 500, ours)
        assert states.dtype == np.int64
        assert np.array_equal(states, searchsorted_draw(ch.state_prior, ref.random(500)))
        for x, s in np.ndindex(3, 3):
            for _ in range(100):
                assert transmit(ch, x, s, ours) == searchsorted_draw(ch.kernel[x, s], ref.random())

    @pytest.mark.parametrize("seed", range(4))
    def test_rand_pilot(self, flip, ham2, seed):
        rng = np.random.default_rng(seed)
        code = build_id_code(flip, ham2, 0.45, n=100, identities=4, colors=2, eps=0.3,
                             mode="rand", master_seed=seed)
        # the pilot law only drives the draw; sparse over 6 symbols here
        code = dataclasses.replace(code, pilot=InputDistribution(sparse_rows(rng, (6,))))
        ours, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(code.n):
            assert code.pilot_input(ours) == searchsorted_draw(code.pilot.p, ref.random())
