import math
import os
import subprocess
import sys
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import idsense
from idsense import fixtures
from idsense.capacity import (
    ZERO_CAPACITY_TOL,
    InputDistribution,
    _line_search,
    _require_positive_capacity,
    binary_entropy,
    det_capacity_distortion,
    det_feedback_capacity,
    entropy,
    image_size_bound,
    rand_capacity_distortion,
    rand_feedback_capacity,
    rate_of_code,
    shannon_capacity_avg,
    tradeoff_curve,
)
from idsense.channel import StateDMC
from idsense.coding import build_transmission_code
from idsense.errors import (
    InfeasibleDistortion,
    InvalidParameter,
    NotADistribution,
    TooManyMessages,
    ZeroCapacityChannel,
)
from idsense.estimation import hamming_distortion
from idsense.sim import grid_capacity_oracle
from tests.conftest import random_channel
from tests.reference import blahut_arimoto, sequence_likelihood


def uniform_rows_channel():
    kernel = np.full((2, 1, 2), 0.5)
    return StateDMC(2, 2, 1, kernel, np.array([1.0]))


def one_state(rows) -> StateDMC:
    """The one-state channel whose averaged rows are `rows`."""
    rows = np.asarray(rows, dtype=float)
    return StateDMC(rows.shape[0], rows.shape[1], 1, rows[:, None, :], np.array([1.0]))


# the reference iteration and the library's Frank-Wolfe solve, rows -> capacity
SHANNON_SOLVERS = {
    "reference": lambda rows: blahut_arimoto(rows)[0],
    "library": lambda rows: shannon_capacity_avg(one_state(rows)).value,
}
each_shannon_solver = pytest.mark.parametrize("solver", list(SHANNON_SOLVERS.values()),
                                              ids=list(SHANNON_SOLVERS))


class TestEntropy:
    def test_uniform(self):
        assert entropy([0.5, 0.5]) == pytest.approx(1.0, abs=1e-12)

    def test_point_mass(self):
        assert entropy([1.0, 0.0]) == pytest.approx(0.0, abs=1e-12)

    def test_binary_value(self):
        assert entropy([0.9, 0.1]) == pytest.approx(0.468996, abs=1e-6)

    def test_not_a_distribution(self):
        # the 2-D one summed to 1 over all its entries and returned 1.0, and the
        # one with a nan entry passed every comparison and returned -0.0
        for q in ([0.5, 0.6], [[0.5, 0.5], [0.0, 0.0]], [float("nan"), 1.0]):
            with pytest.raises(NotADistribution):
                entropy(q)
        with pytest.raises(NotADistribution):
            InputDistribution([float("nan"), 1.0])


class TestShannon:
    def test_flip_bsc(self, flip):
        res = shannon_capacity_avg(flip)
        assert res.value == pytest.approx(1.0 - binary_entropy(0.1), abs=1e-6)
        assert res.value == pytest.approx(0.531004, abs=1e-6)

    @each_shannon_solver
    def test_identical_rows(self, solver):
        cap = solver(np.array([[0.3, 0.7], [0.3, 0.7]]))
        assert cap == pytest.approx(0.0, abs=1e-9)

    @each_shannon_solver
    def test_identity_4x4(self, solver):
        cap = solver(np.eye(4))
        assert cap == pytest.approx(2.0, abs=1e-9)

    @each_shannon_solver
    @settings(max_examples=20, deadline=None)
    @given(p=st.floats(0.01, 0.49))
    def test_binary_symmetric_closed_form(self, solver, p):
        rows = np.array([[1 - p, p], [p, 1 - p]])
        cap = solver(rows)
        assert cap == pytest.approx(1.0 - binary_entropy(p), abs=1e-6)

    def test_certified_gap(self, flip):
        # the gap is upper - lower of Blahut's bounds at the returned input
        for ch in (flip, random_channel(np.random.default_rng(3), 3, 2, 2)):
            for tol in (1e-6, 1e-9):
                res = shannon_capacity_avg(ch, tol=tol)
                assert 0.0 <= res.optimality_gap <= tol
                rows = ch.rows
                div = (rows * np.log2(rows / (res.maximizer.p @ rows))).sum(axis=1)
                bounds_gap = div.max() - res.maximizer.p @ div
                assert res.optimality_gap == pytest.approx(max(bounds_gap, 0.0), abs=1e-12)

    def test_singleton_input_zero(self):
        ch = StateDMC(1, 3, 1, np.full((1, 1, 3), 1 / 3), np.array([1.0]))
        res = shannon_capacity_avg(ch)
        assert res.value == 0.0 and res.optimality_gap == 0.0

    @pytest.mark.parametrize("seed,shape", [(10106, (3, 2, 2)), (10134, (4, 3, 2))])
    def test_converges_where_blahut_arimoto_stalls(self, seed, shape):
        # Blahut-Arimoto stops at 100,000 iterations with a gap of ~2e-6 here
        ch = random_channel(np.random.default_rng(seed), *shape)
        res = shannon_capacity_avg(ch)
        assert 0.0 <= res.optimality_gap <= 1e-9
        rows = ch.rows
        div = (rows * np.log2(rows / (res.maximizer.p @ rows))).sum(axis=1)
        assert res.maximizer.p @ div - 1e-12 <= res.value <= div.max() + 1e-12


class TestFeedbackCapacities:
    def test_flip_det(self, flip):
        res = det_feedback_capacity(flip)
        assert res.value == pytest.approx(0.468996, abs=1e-6)
        assert res.maximizer == 0  # tie between rows, lowest index

    def test_sensor_det(self, sensor):
        res = det_feedback_capacity(sensor)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert res.maximizer == 0

    def test_zero_capacity_raises(self):
        with pytest.raises(ZeroCapacityChannel):
            det_feedback_capacity(uniform_rows_channel())

    def test_flip_rand(self, flip):
        res = rand_feedback_capacity(flip)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(res.maximizer.p, [0.5, 0.5], atol=1e-5)

    def test_sensor_rand(self, sensor):
        assert rand_feedback_capacity(sensor).value == pytest.approx(1.0, abs=1e-6)

    def test_singleton_input(self, ham2):
        # one input carries nothing: C = 0, so every capacity refuses it
        ch = StateDMC(1, 2, 2, np.array([[[0.3, 0.7], [0.6, 0.4]]]), np.array([0.5, 0.5]))
        for capacity in (det_feedback_capacity, rand_feedback_capacity,
                         lambda ch: det_capacity_distortion(ch, ham2, 1.0),
                         lambda ch: rand_capacity_distortion(ch, ham2, 1.0)):
            with pytest.raises(ZeroCapacityChannel):
                capacity(ch)

    def test_rand_dominates_det(self, flip, sensor):
        for ch in (flip, sensor):
            d = det_feedback_capacity(ch).value
            r = rand_feedback_capacity(ch).value
            assert 0.0 <= d <= r + 1e-9 <= math.log2(ch.output_size) + 1e-9

    def test_gap_certificate(self, flip):
        res = rand_feedback_capacity(flip)
        assert 0.0 <= res.optimality_gap <= 1e-9

    def test_seed_35_one_bit(self):
        # Frank-Wolfe once stalled here for 100,000 iterations
        ch = random_channel(np.random.default_rng(35), 3, 2, 2)
        res = rand_feedback_capacity(ch)
        assert res.value == pytest.approx(1.0, abs=1e-9)
        assert 0.0 <= res.optimality_gap <= 1e-9


class TestCapacityDistortion:
    def test_sensor_det_budget(self, sensor, ham2):
        assert det_capacity_distortion(sensor, ham2, 0.3).value == pytest.approx(1.0, abs=1e-9)

    def test_sensor_infeasible(self, sensor, ham2):
        with pytest.raises(InfeasibleDistortion):
            det_capacity_distortion(sensor, ham2, 0.05)

    def test_inactive_constraint(self, flip, ham2):
        res = det_capacity_distortion(flip, ham2, 0.9)
        assert res.value == pytest.approx(det_feedback_capacity(flip).value, abs=1e-12)

    def test_rand_inactive_constraint(self, flip, ham2):
        res = rand_capacity_distortion(flip, ham2, 0.9)
        assert res.value == pytest.approx(rand_feedback_capacity(flip).value, abs=1e-9)

    def test_sensor_rand_tight(self, sensor, ham2):
        res = rand_capacity_distortion(sensor, ham2, 0.1)
        assert res.value == pytest.approx(1.0, abs=1e-6)
        assert np.allclose(res.maximizer.p, [1.0, 0.0], atol=1e-5)

    def test_sensor_tradeoff_curve(self, sensor, ham2):
        points = tradeoff_curve(sensor, ham2, [0.05, 0.3, 0.6], "det")
        assert [p["feasible"] for p in points] == [False, True, True]
        assert points[1]["value"] == pytest.approx(1.0, abs=1e-9)
        assert points[2]["value"] == pytest.approx(1.0, abs=1e-9)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6))
    @example(seed=244)  # the zero-capacity guard once ran out of iterations here
    @example(seed=8373)  # Frank-Wolfe once stalled here at budget 0.4
    def test_curves_monotone_and_ordered(self, seed):
        ch = random_channel(np.random.default_rng(seed), 3, 2, 2)
        dist = hamming_distortion(2)
        budgets = [0.1, 0.2, 0.3, 0.4, 0.5]
        det = tradeoff_curve(ch, dist, budgets, "det")
        rand = tradeoff_curve(ch, dist, budgets, "rand")
        last = -1.0
        for pd, pr in zip(det, rand):
            assert pd["feasible"] == pr["feasible"]
            if pd["feasible"]:
                assert pr["value"] >= pd["value"] - 1e-6
                assert pd["value"] >= last - 1e-9
                last = pd["value"]

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10**6), alpha=st.sampled_from([0.25, 0.5, 0.75]))
    def test_mixture_entropy_concave(self, seed, alpha):
        rng = np.random.default_rng(seed)
        rows = rng.dirichlet(np.ones(3), size=3)
        p, q = rng.dirichlet(np.ones(3)), rng.dirichlet(np.ones(3))
        mix = alpha * p + (1 - alpha) * q
        assert entropy(mix @ rows) >= \
            alpha * entropy(p @ rows) + (1 - alpha) * entropy(q @ rows) - 1e-12


def reference_says_zero(rows) -> bool:
    """The zero-capacity decision of a full BA solve to ZERO_CAPACITY_TOL."""
    cap, _, _ = blahut_arimoto(rows, tol=ZERO_CAPACITY_TOL)
    return cap <= ZERO_CAPACITY_TOL


def guard_says_zero(rows) -> bool:
    try:
        _require_positive_capacity(rows)
    except ZeroCapacityChannel:
        return True
    return False


def inner_says_zero(rows) -> bool:
    """The inner code's decision, on its one Shannon solve of every input of `rows`."""
    try:
        build_transmission_code(one_state(rows), 1, 2, range(len(rows)),
                                np.random.default_rng(0))
    except ZeroCapacityChannel:
        return True
    except TooManyMessages:
        pass
    return False


def deciders_say_zero(rows) -> bool:
    """The guard's decision, after checking that the inner code reaches it too."""
    zero = guard_says_zero(rows)
    assert inner_says_zero(rows) == zero
    return zero


def near_zero_channel(w: StateDMC, delta: float) -> StateDMC:
    """(1 - delta) * uniform rows + delta * w: capacity of order delta^2."""
    kernel = (1.0 - delta) / w.output_size + delta * w.kernel
    return StateDMC(w.input_size, w.output_size, w.state_size, kernel, w.state_prior)


class TestZeroCapacityGuard:
    """The early-stopping guard and the inner code's full solve decide as a
    full BA solve does."""

    @pytest.mark.parametrize("shape", [(3, 2, 2), (4, 3, 2), (3, 3, 3)])
    def test_sweep_channels(self, shape):
        for seed in range(6):
            ch = random_channel(np.random.default_rng(seed), *shape)
            assert deciders_say_zero(ch.rows) == reference_says_zero(ch.rows)

    def test_fixtures_and_degenerate(self):
        single = StateDMC(1, 2, 1, np.array([[[0.3, 0.7]]]), np.array([1.0]))
        cases = [(fixtures.flip_bsc(), False), (fixtures.sensor(), False),
                 (uniform_rows_channel(), True), (single, True)]
        for ch, zero in cases:
            assert deciders_say_zero(ch.rows) == reference_says_zero(ch.rows) == zero

    def test_near_zero_straddles_tolerance(self):
        # FlipBSC and Sensor mixtures put C on both sides of the tolerance;
        # on the random channel the bounds at the uniform input are about 3x
        # apart, so at delta = 5e-5 upper > tol while a full solve decides
        # zero.  (At delta >= 1e-4 a full solve of it runs out of iterations.)
        lopsided = random_channel(np.random.default_rng(178), 4, 3, 2)
        cases = [(fixtures.flip_bsc(), (1e-2, 1e-3, 1e-4, 5e-5, 3e-5, 1e-5, 1e-6)),
                 (fixtures.sensor(), (1e-2, 1e-3, 1e-4, 5e-5, 3e-5, 1e-5, 1e-6)),
                 (lopsided, (5e-5, 3e-5, 1e-5, 1e-6))]
        decisions = []
        for w, deltas in cases:
            for delta in deltas:
                ch = near_zero_channel(w, delta)
                decisions.append(deciders_say_zero(ch.rows))
                assert decisions[-1] == reference_says_zero(ch.rows)
        assert True in decisions and False in decisions

    def test_seed_244_positive(self):
        # a full solve stops at 100,000 iterations with a gap of 2.8e-9;
        # the uniform input alone already gives I = 9.9e-5 bits
        ch = random_channel(np.random.default_rng(244), 3, 2, 2)
        assert not deciders_say_zero(ch.rows)

    def test_near_zero_decided_positive(self):
        # the bounds after one iteration are [1.28e-9, 1.34e-9]; Blahut-Arimoto
        # runs out of iterations on this channel, so a full Frank-Wolfe solve
        # is the reference
        w = random_channel(np.random.default_rng(178), 4, 3, 2)
        ch = near_zero_channel(w, 7.08e-5)
        assert not deciders_say_zero(ch.rows)
        res = shannon_capacity_avg(ch)
        assert res.value > ZERO_CAPACITY_TOL
        assert res.value == pytest.approx(1.3e-9, abs=1e-10)


class TestGridAgreement:
    def test_grid_matches_frank_wolfe(self):
        for seed in range(10):
            ch = random_channel(np.random.default_rng(seed), 3, 3, 2)
            fw = rand_feedback_capacity(ch).value
            grid = grid_capacity_oracle(ch, resolution=400)
            assert abs(fw - grid) <= 1e-4


class TestImageSizeBounds:
    def test_flip_k1_formula(self, flip):
        value = image_size_bound(100, 0.1, flip.output_size, det_feedback_capacity(flip).value)
        expected = 100 * entropy([0.9, 0.1]) + math.sqrt(math.log2(3) ** 2 / 0.1) * 10
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(97.02, abs=0.01)

    def test_degenerate_blocklength(self, flip):
        bound = image_size_bound(0, 0.9, flip.output_size, det_feedback_capacity(flip).value)
        assert bound == pytest.approx(0.0, abs=1e-12)

    def test_k3_inactive_budget_equals_k1(self, flip, ham2):
        k1 = image_size_bound(20, 0.2, flip.output_size, det_feedback_capacity(flip).value)
        k3 = image_size_bound(20, 0.2, flip.output_size,
                              det_capacity_distortion(flip, ham2, 0.9).value)
        assert k3 == pytest.approx(k1, abs=1e-12)

    def test_bad_mu_rejected(self, flip):
        with pytest.raises(ValueError):
            image_size_bound(10, 1.5, flip.output_size, 1.0)
        with pytest.raises(InvalidParameter):
            image_size_bound(10, 0.0, flip.output_size, 1.0)

    def test_lemma1_tiny_scale(self, flip):
        # the greedy smallest output set with mass >= 1 - mu never exceeds
        # the K1 cap at blocklengths m <= 3 under the constant pilot strategy
        mu = 0.2
        rate = det_feedback_capacity(flip).value
        for m in (1, 2, 3):
            bound = image_size_bound(m, mu, flip.output_size, rate)
            probs = sorted(
                (sequence_likelihood(flip, [0] * m, list(y))
                 for y in product(range(2), repeat=m)),
                reverse=True)
            mass, count = 0.0, 0
            while mass < 1.0 - mu - 1e-12:
                mass += probs[count]
                count += 1
            assert math.log2(count) <= bound + 1e-9


class TestRateOfCode:
    def test_double_exponential_unit_rate(self):
        assert rate_of_code(2 ** (2 ** 6), 6) == pytest.approx(1.0, abs=1e-12)

    def test_small(self):
        assert rate_of_code(16, 8) == pytest.approx(0.25, abs=1e-12)

    def test_boundary(self):
        assert rate_of_code(2, 5) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate(self):
        with pytest.raises(InvalidParameter):
            rate_of_code(1, 4)

    def test_big_integer_identity_count(self):
        assert rate_of_code(2 ** (2 ** 12), 12) == pytest.approx(1.0, abs=1e-12)


def dense_argmax(q, dq, c, limit, points=20_001):
    """Grid maximizer and maximum of phi(g) = H(q + g dq) - c g on [0, limit]."""
    g = np.linspace(0.0, limit, points)
    qg = np.clip(q + g[:, None] * dq, 0.0, None)
    logs = np.log2(np.where(qg > 0, qg, 1.0))
    phi = -(qg * logs).sum(axis=1) - c * g
    best = int(np.argmax(phi))
    return g[best], phi[best]


def phi_at(q, dq, c, g):
    qg = np.clip(q + g * dq, 0.0, None)
    pos = qg > 0
    return float(-(qg[pos] * np.log2(qg[pos])).sum() - c * g)


class TestLineSearch:
    """The exact line search against a dense evaluation of phi."""

    def test_random_directions(self):
        rng = np.random.default_rng(5)
        for case in range(200):
            rows = rng.dirichlet(np.ones(4), size=3)
            p = rng.dirichlet(np.ones(3))
            h = rng.uniform(0.0, 2.0, size=3) if case % 2 else np.zeros(3)
            fw, away = rng.choice(3, size=2, replace=False)
            d = np.eye(3)[fw] - np.eye(3)[away]
            if -(d @ rows @ np.log2(p @ rows)) - d @ h <= 0.0:
                fw, away, d = away, fw, -d   # phi'(0) > 0 is a precondition
            q, dq, c = p @ rows, d @ rows, float(d @ h)
            limit = float(p[away])
            g = _line_search(q, dq, c, limit)
            assert 0.0 <= g <= limit
            _, best = dense_argmax(q, dq, c, limit)
            assert phi_at(q, dq, c, g) >= best - 1e-13

    def test_optimum_at_limit(self):
        # moving all of the away vertex's mass still raises the entropy
        rows = np.array([[1.0, 0.0], [0.5, 0.5], [0.9, 0.1]])
        p = np.array([0.2, 0.1, 0.7])
        dq = rows[1] - rows[0]
        assert _line_search(p @ rows, dq, 0.0, 0.2) == 0.2

    def test_output_vanishes_at_limit(self):
        # only the away vertex reaches the last output, so q_y(limit) = 0 and
        # phi'(limit) = -inf: the optimum is interior
        rows = np.array([[0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
        p = np.array([0.5, 0.5])
        q, dq = p @ rows, rows[1] - rows[0]
        assert _line_search(q, dq, 0.0, 0.5) == pytest.approx(1 / 6, abs=1e-12)  # uniform q
        for c in (0.0, 0.5):
            assert -(dq @ np.log2(q)) - c > 0.0
            g = _line_search(q, dq, c, 0.5)
            assert 0.0 < g < 0.5
            g_grid, best = dense_argmax(q, dq, c, 0.5)
            assert abs(g - g_grid) <= 0.5 / 20_000
            assert phi_at(q, dq, c, g) >= best - 1e-13

    def test_output_missing_at_start(self):
        # the best vertex brings in an output that q lacks: phi'(0) = +inf
        rows = np.array([[0.6, 0.4, 0.0], [0.1, 0.1, 0.8]])
        q, dq = rows[0], rows[1] - rows[0]
        g = _line_search(q, dq, 0.0, 1.0)
        g_grid, best = dense_argmax(q, dq, 0.0, 1.0)
        assert 0.0 < g < 1.0 and abs(g - g_grid) <= 1.0 / 20_000
        assert phi_at(q, dq, 0.0, g) >= best - 1e-13


def test_import_loads_only_numpy():
    # the library's one third-party runtime dependency outside the CLI
    src = os.path.dirname(os.path.dirname(idsense.__file__))
    code = ("import sys; before = set(sys.modules); import idsense; "
            "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names)))")
    out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['idsense', 'numpy']"
