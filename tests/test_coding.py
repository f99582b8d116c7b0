import math
import signal

import numpy as np
import pytest

from idsense.capacity import det_capacity_distortion, shannon_capacity_avg
from idsense.channel import StateDMC
from idsense.coding import (
    ABORT_COLOR,
    ML_TIE_TOL,
    _loglik,
    _ml_decode,
    build_id_code,
    build_transmission_code,
    coloring_value,
    coloring_values,
    verify,
)
from idsense.errors import (
    DegenerateCode,
    IndexOutOfRange,
    InfeasibleDistortion,
    LengthMismatch,
    TooManyMessages,
    ZeroCapacityChannel,
)
from idsense.estimation import hamming_distortion
from idsense.typicality import enumerate_blocks, enumerate_typical_set
from tests.conftest import budget_hides_the_useful_input, random_channel


def noiseless_binary():
    return StateDMC(2, 2, 1, np.eye(2)[:, None, :], np.array([1.0]))


def pilot_plus_noiseless():
    """|X|=3, |S|=1: input 0 is a fair coin, inputs 1 and 2 are noiseless."""
    kernel = np.array([[[0.5, 0.5]], [[1.0, 0.0]], [[0.0, 1.0]]])
    return StateDMC(3, 2, 1, kernel, np.array([1.0]))


class TestColoring:
    def test_determinism(self):
        a = coloring_value(42, 4, 7, (0, 1, 1, 0))
        b = coloring_value(42, 4, 7, (0, 1, 1, 0))
        assert a == b

    def test_range(self):
        values = {coloring_value(1, 5, i, (i % 2, 1)) for i in range(1, 200)}
        assert values <= set(range(1, 6))

    def test_seed_and_identity_sensitivity(self):
        base = coloring_value(0, 1024, 1, (0, 0, 0))
        assert coloring_value(1, 1024, 1, (0, 0, 0)) != base or \
            coloring_value(0, 1024, 2, (0, 0, 0)) != base

    def test_pinned_colors(self):
        # one byte per symbol below 256, whatever the block's container type
        blocks = ([0] * 16, [1, 0] * 8, [1] * 16, [0, 1, 1, 0, 1])
        expected = [5, 2, 1, 4]
        for convert in (list, tuple, lambda b: np.array(b, dtype=np.int64),
                        lambda b: np.array(b, dtype=np.uint8)):
            assert [coloring_value(9, 5, 2 ** 511 + 3, convert(b))
                    for b in blocks] == expected
        assert [coloring_value(42, 1000, 7, b)
                for b in ([0] * 16, [255, 0, 3], [2, 1, 0])] == [293, 841, 68]

    def test_large_alphabet(self):
        # |Y| = 300: symbols above 255 get a wider, length-prefixed payload
        colors = {coloring_value(3, 2 ** 20, 1, (y, 299 - y)) for y in range(300)}
        assert len(colors) >= 290
        assert all(1 <= c <= 2 ** 20 for c in colors)
        assert coloring_value(3, 7, 1, (299, 5)) == \
            coloring_value(3, 7, 1, np.array([299, 5], dtype=np.uint16))

    def test_chi_square_uniformity(self):
        M, trials = 8, 10**5
        counts = np.zeros(M)
        for v in range(trials):
            pilot = tuple((v >> b) & 1 for b in range(17))
            counts[coloring_value(9, M, 3, pilot) - 1] += 1
        expected = trials / M
        stat = float(((counts - expected) ** 2 / expected).sum())
        # 24.3218... is the 0.999 quantile of the chi-square distribution with
        # M - 1 = 7 degrees of freedom
        assert M - 1 == 7
        assert stat < 24.321886347856854


class TestColorCount:
    """M must lie in 1..2^64 (1..2^63 - 1 for the int64 batch), refused up front."""

    @pytest.fixture(autouse=True)
    def alarm(self):
        # a count the rejection sampler cannot serve would otherwise redraw forever
        def expire(signum, frame):
            raise TimeoutError("no answer within 5 s")
        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(5)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @pytest.mark.parametrize("M", [0, -3, 2 ** 64 + 1, 2 ** 65])
    def test_refused(self, M):
        with pytest.raises(DegenerateCode):
            coloring_value(1, M, 1, b"\x00")
        with pytest.raises(DegenerateCode):
            coloring_values(1, M, 1, np.zeros((2, 1), dtype=np.uint8))

    def test_largest_count(self):
        assert 1 <= coloring_value(1, 2 ** 64, 1, b"\x00") <= 2 ** 64

    def test_batch_stays_int64(self):
        blocks = np.zeros((2, 1), dtype=np.uint8)
        with pytest.raises(DegenerateCode):
            coloring_values(1, 2 ** 63, 1, blocks)
        assert coloring_values(1, 2 ** 63 - 1, 1, blocks).tolist() == \
            [coloring_value(1, 2 ** 63 - 1, 1, b"\x00")] * 2


class TestTransmissionCode:
    def test_noiseless_k3_m8(self):
        rng = np.random.default_rng(0)
        code = build_transmission_code(noiseless_binary(), 3, 8, {0, 1}, rng)
        assert len(set(code.codewords)) == 8
        assert code.max_error == 0.0
        assert code.error_method == "exact"

    def test_identity_k1_m2(self):
        rng = np.random.default_rng(1)
        code = build_transmission_code(noiseless_binary(), 1, 2, {0, 1}, rng)
        assert set(code.codewords) == {(0,), (1,)}
        assert code.max_error == 0.0

    def test_flip_k8_m2(self, flip):
        rng = np.random.default_rng(2)
        code = build_transmission_code(flip, 8, 2, {0, 1}, rng)
        assert code.error_method == "exact"
        assert code.max_error < 0.2

    def test_decoding_regions_partition(self, flip):
        from itertools import product
        rng = np.random.default_rng(3)
        code = build_transmission_code(flip, 2, 4, {0, 1}, rng)
        decoded = [code.decode(list(y)) for y in product(range(2), repeat=2)]
        assert all(1 <= j <= 4 for j in decoded)

    def test_too_many_messages(self):
        rng = np.random.default_rng(4)
        with pytest.raises(TooManyMessages):
            build_transmission_code(noiseless_binary(), 1, 3, {0, 1}, rng)

    def test_single_feasible_input(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ZeroCapacityChannel, match="fewer than two feasible inputs"):
            build_transmission_code(noiseless_binary(), 2, 2, {0}, rng)

    def test_empty_support(self):
        with pytest.raises(ZeroCapacityChannel, match="zero Shannon capacity"):
            build_transmission_code(noiseless_binary(), 2, 2, set(), np.random.default_rng(5))

    def test_degenerate_message_count(self):
        with pytest.raises(DegenerateCode):
            build_transmission_code(noiseless_binary(), 2, 1, {0, 1},
                                    np.random.default_rng(6))


class TestLoglikReference:
    """`decode` decides through `_ml_decode`, the rule of every batched decoder."""

    # criterion 8's n = 16 code (k = 4) and its n = 9 code (k = 3)
    @pytest.mark.parametrize("n,identities,colors,master_seed",
                             [(16, 2 ** 512, 5, 9), (9, 2 ** 16, 4, 22)])
    def test_decode_every_tail(self, flip, ham2, n, identities, colors, master_seed):
        inner = build_id_code(flip, ham2, 0.45, n=n, identities=identities, colors=colors,
                              eps=0.3, mode="det", master_seed=master_seed).inner
        tails = enumerate_blocks(flip.output_size, inner.k)
        batched = _ml_decode(inner.log_table, tails)[0] + 1
        # the scalar decoder's former score, one ndarray.sum per tail, under the stated
        # rule: the lowest index within ML_TIE_TOL bits of the best score
        summed = []
        for tail in tails.astype(np.int64):
            scores = inner.log_table[:, np.arange(inner.k), tail].sum(axis=1)
            summed.append(int(np.flatnonzero(scores >= scores.max() - ML_TIE_TOL)[0]) + 1)
        assert [inner.decode(tail) for tail in tails] == batched.tolist() == summed


class TestMLTieRule:
    """On FlipBSC an ML score depends on the tail only through its Hamming
    distance to the codeword, so the decision has an integer oracle: the
    lowest index among the codewords at minimum distance.  Tied scores that
    differ in the last bit must not decide it."""

    @staticmethod
    def _inner(flip, ham2, n):
        return build_id_code(flip, ham2, 1.0, n, 2 ** 8, 5, 0.1, "det", 1).inner

    @pytest.mark.parametrize("n", [16, 49, 81, 144])
    def test_lowest_index_at_minimum_distance(self, flip, ham2, n):
        inner = self._inner(flip, ham2, n)
        tails = enumerate_blocks(flip.output_size, inner.k)
        distances = (np.array(inner.codewords)[:, None, :] != tails[None, :, :]).sum(axis=2)
        closest = [int(np.flatnonzero(d == d.min())[0]) + 1 for d in distances.T]
        assert [inner.decode(tail) for tail in tails] == closest

    def test_tied_tail_goes_to_lowest_index(self, flip, ham2):
        inner = self._inner(flip, ham2, 16)
        assert inner.codewords[2:4] == ((0, 1, 0, 0), (1, 0, 1, 1))
        # (0, 0, 1, 0) is at distance 2 from both messages 3 and 4
        assert inner.decode((0, 0, 1, 0)) == 3
        scores = _loglik(inner.log_table, np.array([[0, 0, 1, 0]]))[:, 0]
        assert scores[2] != scores[3] and abs(scores[2] - scores[3]) < ML_TIE_TOL


class TestBuildIDCode:
    def test_sensor_det_pilot(self, sensor, ham2):
        assert det_capacity_distortion(sensor, ham2, 0.3).maximizer == 0

    def test_flip_rand_pilot(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="rand", master_seed=0)
        assert np.allclose(code.pilot.p, [0.5, 0.5], atol=1e-6)
        assert code.m == 6

    def test_sensor_infeasible(self, sensor, ham2):
        with pytest.raises(InfeasibleDistortion):
            build_id_code(sensor, ham2, 0.05, n=4, identities=4, colors=2,
                          eps=0.2, mode="det", master_seed=0)

    def test_blocklength_relation(self, flip, ham2):
        for n in (4, 9, 16):
            code = build_id_code(flip, ham2, 0.45, n=n, identities=4, colors=4,
                                 eps=0.3, mode="det", master_seed=1)
            assert code.m == n + int(np.ceil(np.sqrt(n)))

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan")])
    def test_nonpositive_eps_rejected(self, flip, ham2, eps):
        # as in typical_size_bounds, typicality needs a positive radius
        with pytest.raises(DegenerateCode, match="eps"):
            build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                          eps=eps, mode="det", master_seed=1)

    # the inner code's former Blahut-Arimoto solve of these channels raised
    # NoConvergence after 100,000 iterations (about 2 s)
    @pytest.mark.parametrize("seed,shape", [(10106, (3, 2, 2)), (10134, (4, 3, 2))])
    def test_inner_solve_certified(self, ham2, seed, shape):
        ch = random_channel(np.random.default_rng(seed), *shape)
        try:
            code = build_id_code(ch, ham2, 1.0, 4, 4, 2, 0.3, "det", 1)
        except TooManyMessages:
            return
        assert code.inner.max_error < 0.5

    def test_restricted_zero_capacity(self, ham2):
        ch = budget_hides_the_useful_input()
        # a Z channel with crossover 1/2 over inputs {0 or 1, 2}: log2(5/4) bits
        assert shannon_capacity_avg(ch).value == pytest.approx(math.log2(1.25))
        assert det_capacity_distortion(ch, ham2, 0.3).value == pytest.approx(1.0)
        with pytest.raises(ZeroCapacityChannel):
            build_id_code(ch, ham2, 0.3, n=4, identities=4, colors=2,
                          eps=0.3, mode="det", master_seed=0)

    # every restart draws a codebook at maximal error 0.5, and no single swap
    # from the best one, ((1, 0), (0, 1)), lowers it: only the descent from a
    # later restart reaches {(0, 0), (1, 1)}
    @pytest.mark.parametrize("master_seed", [727, 1141744530])
    def test_descent_from_later_restart(self, sensor, ham2, master_seed):
        code = build_id_code(sensor, ham2, 0.5, 4, 4, 2, 0.3, "det", master_seed)
        assert set(code.inner.codewords) == {(0, 0), (1, 1)}
        assert code.inner.max_error == pytest.approx(0.25, abs=1e-12)

    def test_feasible_symbols_only(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=1)
        used = {int(code.pilot)} | {x for cw in code.inner.codewords for x in cw}
        assert used <= set(code.feasible)


class TestEncoderDecoder:
    def _code(self, flip, ham2, seed=1):
        return build_id_code(flip, ham2, 0.45, n=4, identities=4, colors=4,
                             eps=0.3, mode="det", master_seed=seed)

    def test_det_pilot_constant(self, flip, ham2):
        code = self._code(flip, ham2)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        for _ in range(code.n):
            assert code.pilot_input(rng) == int(code.pilot)
        assert rng.bit_generator.state == before    # the det pilot draws nothing

    def test_typical_pilot_commits_coloring(self, flip, ham2):
        code = self._code(flip, ham2)
        history = (0, 0, 0, 1)  # frequency (0.75, 0.25): within eps=0.3 of (0.9, 0.1)
        assert code.pilot_typical(history)
        assert code.commit(2, history) == code.coloring(2, history)

    def test_atypical_pilot_aborts(self, flip, ham2):
        code = self._code(flip, ham2)
        history = (1, 1, 1, 1)  # frequency (0, 1): far from (0.9, 0.1)
        assert not code.pilot_typical(history)
        assert code.commit(2, history) == ABORT_COLOR

    # the sender commits only on a whole pilot block of n outputs
    @pytest.mark.parametrize("y_pilot", [(), (0, 0, 0), (0, 0, 0, 0, 0)])
    def test_commit_pilot_length(self, flip, ham2, y_pilot):
        code = self._code(flip, ham2)
        with pytest.raises(LengthMismatch):
            code.commit(1, y_pilot)

    def test_verify_accepts_own_identity(self, flip, ham2):
        code = self._code(flip, ham2)
        pilot = (0, 0, 0, 0)
        j = code.coloring(3, pilot)
        y_full = pilot + code.inner.codewords[j - 1]
        # noiseless readback of the committed codeword: must accept
        if code.inner.decode(code.inner.codewords[j - 1]) == j:
            assert verify(code, 3, y_full)

    def test_verify_rejects_atypical(self, flip, ham2):
        code = self._code(flip, ham2)
        y_full = (1, 1, 1, 1) + code.inner.codewords[0]
        for i in range(1, 5):
            assert not verify(code, i, y_full)

    def test_identity_out_of_range(self, flip, ham2):
        code = self._code(flip, ham2)
        for identity in (0, 9):
            with pytest.raises(DegenerateCode):
                code.commit(identity, (0, 0, 0, 0))

    # a symbol outside 0..|Y|-1 in the pilot (negative, or past the alphabet)
    # or in the tail, where the bare errors came from np.bincount, a
    # broadcast and an index
    @pytest.mark.parametrize("y_full", [[0, 0, 0, -1, 0, 0], [0, 0, 0, 5, 0, 0],
                                        [0, 0, 0, 0, 0, 7], [0, 0, 0, 0, -1, 0]])
    def test_verify_symbol_out_of_range(self, flip, ham2, y_full):
        code = self._code(flip, ham2)
        assert code.m == len(y_full)
        with pytest.raises(IndexOutOfRange):
            verify(code, 1, y_full)

    @pytest.mark.parametrize("y_pilot", [[0, 0, -1, 0], [0, 2, 0, 0], (0, 0, 0, 256)])
    def test_coloring_symbol_out_of_range(self, flip, ham2, y_pilot):
        code = self._code(flip, ham2)
        with pytest.raises(IndexOutOfRange):
            code.coloring(1, y_pilot)

    @pytest.mark.parametrize("y_pilot", [[0, 0, -1, 0], [0, 2, 0, 0]])
    def test_pilot_typical_symbol_out_of_range(self, flip, ham2, y_pilot):
        code = self._code(flip, ham2)
        with pytest.raises(IndexOutOfRange):
            code.pilot_typical(y_pilot)
        with pytest.raises(IndexOutOfRange):
            code.commit(1, y_pilot)

    @pytest.mark.parametrize("y_tail", [[0, 7], [-1, 0]])
    def test_decode_symbol_out_of_range(self, flip, ham2, y_tail):
        code = self._code(flip, ham2)
        with pytest.raises(IndexOutOfRange):
            code.inner.decode(y_tail)

    # batched coloring refuses what the scalar one does: a wide symbol past the
    # alphabet used to get a color, and -1 ended in a bare ValueError from bytes()
    @pytest.mark.parametrize("row", [[5, 7, 9, 200], [0, -1, 0, 0]])
    def test_colorings_symbol_out_of_range(self, flip, ham2, row):
        code = self._code(flip, ham2)
        assert code.n == len(row)
        with pytest.raises(IndexOutOfRange):
            code.coloring(1, row)
        with pytest.raises(IndexOutOfRange):
            code.colorings(1, np.array([[0, 0, 0, 0], row]))


class TestCollisionBound:
    def test_hoeffding_analogue(self, flip, ham2):
        code = build_id_code(flip, ham2, 0.45, n=8, identities=4, colors=4,
                             eps=0.2, mode="det", master_seed=3)
        typical = enumerate_typical_set(flip, [0] * 8, 0.2)
        assert typical
        collisions = sum(code.coloring(1, y) == code.coloring(2, y)
                         for y in typical)
        frac = collisions / len(typical)
        bound = 0.25 + 3 * np.sqrt(0.25 * 0.75 / len(typical))
        assert frac <= bound
