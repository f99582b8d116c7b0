"""Monte Carlo harness and exact brute-force oracles.

Every stochastic estimate produced here is anchored by an exact companion:
error rates by exhaustive output enumeration, estimator distortion by
exhaustive table search, and randomized capacities by a simplex grid.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass

import numpy as np

from .capacity import _row_entropies
from .channel import StateDMC, cumulative, sample_rows, sample_state_sequence, transmit
from .coding import ABORT_COLOR, IDFeedbackCode, _ml_decode, confusion_matrix, verify
from .errors import AlphabetTooLarge, InfeasibleDistortion, InvalidParameter, _integer
from .estimation import (
    FEASIBILITY_TOL,
    DistortionMatrix,
    EstimatorTable,
    distortion_profile,
    estimate_sequence,
    optimal_estimator,
    posterior_cost,
)
from .typicality import chunks, enumerate_blocks

MAX_IDENTITIES = 8     # identities tested by `monte_carlo`: all up to this many
MAX_PAIRS = 16         # ordered pairs tested by `monte_carlo`, at most


@dataclass(frozen=True, eq=False)
class TrialOutcome:
    """One closed-loop trial: what was sent, tested, sensed, and decided."""

    sent_identity: int
    tested_identity: int
    accepted: bool
    pilot_typical: bool
    distortions: tuple[float, ...]          # d(s_t, s_hat_t) for t = 1..m
    x_seq: tuple[int, ...]
    s_seq: tuple[int, ...]
    y_seq: tuple[int, ...]


@dataclass(frozen=True, eq=False)
class SimReport:
    """Aggregated error and distortion estimates with standard errors."""

    identities: tuple[int, ...]
    pairs: tuple[tuple[int, int], ...]
    trials_per_pair: int
    seed: int
    lambda1_per_identity: dict
    lambda2_per_pair: dict
    lambda1_hat: float
    lambda1_stderr: float
    lambda2_hat: float
    lambda2_stderr: float
    d_t_hat: np.ndarray
    d_t_stderr: np.ndarray

    @property
    def d_bar_hat(self) -> float:
        """Time-average distortion, the mean of d_t_hat."""
        return float(np.mean(self.d_t_hat))

    def to_dict(self) -> dict:
        return {
            "identities": [int(i) for i in self.identities],
            "pairs": [[int(a), int(b)] for a, b in self.pairs],
            "trials_per_pair": self.trials_per_pair,
            "seed": self.seed,
            "lambda1_per_identity": {str(k): v for k, v in
                                     sorted(self.lambda1_per_identity.items())},
            "lambda2_per_pair": {f"{a}->{b}": v for (a, b), v in
                                 sorted(self.lambda2_per_pair.items())},
            "lambda1_hat": self.lambda1_hat,
            "lambda1_stderr": self.lambda1_stderr,
            "lambda2_hat": self.lambda2_hat,
            "lambda2_stderr": self.lambda2_stderr,
            "d_t_hat": self.d_t_hat.tolist(),
            "d_t_stderr": self.d_t_stderr.tolist(),
            "d_bar_hat": self.d_bar_hat,
        }


def _rate_stderr(p: float, trials: int) -> float:
    return float(np.sqrt(max(p * (1.0 - p), 0.0) / trials))


# --- single-trial reference path ---------------------------------------------

def run_trial(code: IDFeedbackCode, ch: StateDMC, dist: DistortionMatrix,
              identity: int, tested_identity: int,
              rng: np.random.Generator) -> TrialOutcome:
    """Simulate the full m-step closed loop for one (sent, tested) pair.

    The generator draws the m states, then each pilot symbol and its output,
    then each tail output after the sender commits on the fed-back pilot.
    """
    table = optimal_estimator(ch, dist)
    states = [int(s) for s in sample_state_sequence(ch, code.m, rng)]
    xs, ys = [], []
    for t in range(code.n):
        xs.append(code.pilot_input(rng))
        ys.append(transmit(ch, xs[t], states[t], rng))
    codeword = code.inner.codewords[code.commit(identity, ys) - 1]
    for t, x in enumerate(codeword, start=code.n):
        xs.append(x)
        ys.append(transmit(ch, x, states[t], rng))
    s_hat = estimate_sequence(table, xs, ys)
    dvals = tuple(float(dist.d[states[t], int(s_hat[t])]) for t in range(code.m))
    accepted = verify(code, tested_identity, ys)
    return TrialOutcome(sent_identity=identity, tested_identity=tested_identity,
                        accepted=accepted, pilot_typical=code.pilot_typical(ys[:code.n]),
                        distortions=dvals, x_seq=tuple(xs),
                        s_seq=tuple(states), y_seq=tuple(ys))


# --- vectorized pair simulation ----------------------------------------------

def _pair_seed(seed: int, i: int, i_prime: int) -> int:
    h = hashlib.blake2b(digest_size=8)
    for v in (seed, i, i_prime):
        b = int(v).to_bytes(max(1, (int(v).bit_length() + 7) // 8), "big", signed=False)
        h.update(len(b).to_bytes(4, "big"))
        h.update(b)
    return int.from_bytes(h.digest(), "big")


def _block_keys(blocks: np.ndarray, size: int) -> np.ndarray:
    """One key per row: its base-`size` value, or its bytes if size^n >= 2^63."""
    n = blocks.shape[1]
    if size ** n < 2 ** 63:
        return blocks @ size ** np.arange(n - 1, -1, -1, dtype=np.int64)
    rows = np.ascontiguousarray(blocks)
    return rows.view(np.dtype((np.void, rows.itemsize * n)))[:, 0]


def _distinct_blocks(blocks: np.ndarray, size: int):
    """(sorted distinct keys, a row of each, the key index of every row).

    Rows with equal keys are equal, so any row of a key serves.  When the
    size^n keys are no more than the rows, a dense table indexed by key
    finds them without `np.unique`'s sort.
    """
    block_keys = _block_keys(blocks, size)
    if size ** blocks.shape[1] > blocks.shape[0]:
        keys, first, inverse = np.unique(block_keys, return_index=True,
                                         return_inverse=True)
        return keys, blocks[first], inverse
    row_of = np.full(size ** blocks.shape[1], -1)
    row_of[block_keys] = np.arange(blocks.shape[0])
    keys = np.flatnonzero(row_of >= 0)
    rank = np.empty_like(row_of)
    rank[keys] = np.arange(keys.size)
    return keys, blocks[row_of[keys]], rank[block_keys]


def _decode_tails(log_table: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """`_ml_decode`'s message index of every tail, each distinct tail scored once."""
    _, rows, inverse = _distinct_blocks(tails, log_table.shape[2])
    return _ml_decode(log_table, rows)[0].take(inverse)


def _colors_for(code: IDFeedbackCode, identity: int, keys: np.ndarray,
                rows: np.ndarray, cache: dict) -> np.ndarray:
    """Coloring values of the distinct blocks `rows`, whose sorted keys are `keys`.

    `cache` maps identity -> (sorted keys, their colors); shared by the pairs
    of one `monte_carlo` call, it colors an identity's block once across
    them.  Blocks it does not hold yet are colored in one `code.colorings`
    call and merged in.
    """
    known, known_colors = cache.get(identity, (keys[:0], np.empty(0, dtype=np.int64)))
    at = np.searchsorted(known, keys)
    hit = at < known.size
    hit[hit] = known[at[hit]] == keys[hit]
    colors = np.empty(keys.size, dtype=np.int64)
    colors[hit] = known_colors[at[hit]]
    missing = ~hit
    if missing.any():
        colors[missing] = code.colorings(identity, rows[missing])
        cache[identity] = (np.insert(known, at[missing], keys[missing]),
                           np.insert(known_colors, at[missing], colors[missing]))
    return colors


def _pair_tables(ch: StateDMC, dist: DistortionMatrix) -> tuple:
    """What every pair of one `monte_carlo` call draws from and looks up.

    The cumulative state prior; the cumulative kernel as a flat
    (|X|·|S|, |Y|) table, whose row x·|S| + s is W(.|x, s); and the fused
    distortion table D[(x·|S| + s)·|Y| + y] = d(s, h(x, y)) of the optimal
    estimator h.  The pilot symbols come from `IDFeedbackCode.pilot_input`.
    """
    table = optimal_estimator(ch, dist)
    fused = dist.d[np.arange(ch.state_size)[None, :, None], table.h[:, None, :]]
    return (cumulative(ch.state_prior),
            cumulative(ch.kernel).reshape(-1, ch.output_size),
            fused.ravel())


def _simulate_pair(code: IDFeedbackCode, tables: tuple, identity: int,
                   tested_identity: int, trials: int, seed: int,
                   cache: dict) -> tuple[np.ndarray, np.ndarray]:
    """All trials of one ordered pair at once.

    `tables` comes from `_pair_tables`, `cache` is `_colors_for`'s.  The
    pilot and tail outputs are drawn from the flat kernel rows x·|S| + s,
    and each symbol's distortion is one lookup in the fused table.
    Returns (accept flags, per-trial per-symbol distortions).
    """
    rng = np.random.default_rng(seed)
    n, m, k = code.n, code.m, code.inner.k
    cum_prior, cum_kernel, fused = tables
    state_size, output_size = cum_prior.shape[0], cum_kernel.shape[1]
    states = sample_rows(cum_prior, rng.random((trials, m)))

    pilot_rows = code.pilot_input(rng, (trials, n)) * state_size + states[:, :n]
    y_pilot = sample_rows(cum_kernel, rng.random((trials, n)), pilot_rows)
    dvals = np.empty((trials, m))
    dvals[:, :n] = fused.take(pilot_rows * output_size + y_pilot)
    if output_size <= 256:
        y_pilot = y_pilot.astype(np.uint8)

    keys, blocks, inverse = _distinct_blocks(y_pilot, output_size)
    typical = code.pilot_typical(blocks)[inverse]
    colors = _colors_for(code, identity, keys, blocks, cache)[inverse]
    sent_colors = np.where(typical, colors, ABORT_COLOR)
    tested_colors = (colors if tested_identity == identity
                     else _colors_for(code, tested_identity, keys, blocks, cache)[inverse])

    codewords = np.array(code.inner.codewords, dtype=np.int64)
    tail_rows = codewords[sent_colors - 1] * state_size + states[:, n:]
    y_tail = sample_rows(cum_kernel, rng.random((trials, k)), tail_rows)
    dvals[:, n:] = fused.take(tail_rows * output_size + y_tail)
    decoded = _decode_tails(code.inner.log_table, y_tail) + 1

    accept = typical & (decoded == tested_colors)
    return accept, dvals


def _choose_identities(code: IDFeedbackCode, seed: int):
    """Every identity up to MAX_IDENTITIES, else that many at random; then
    at most MAX_PAIRS of their ordered pairs, at random."""
    n_ids = code.identity_count
    if n_ids <= MAX_IDENTITIES:
        identities = list(range(1, n_ids + 1))
    else:
        picker = random.Random(seed)
        chosen = set()
        while len(chosen) < MAX_IDENTITIES:
            chosen.add(picker.randrange(1, n_ids + 1))
        identities = sorted(chosen)
    ordered = [(a, b) for a in identities for b in identities if a != b]
    if len(ordered) > MAX_PAIRS:
        picker = random.Random(seed + 1)
        ordered = picker.sample(ordered, MAX_PAIRS)
        ordered.sort()
    return identities, ordered


def monte_carlo(code: IDFeedbackCode, ch: StateDMC, dist: DistortionMatrix,
                trials_per_pair: int, seed: int = 0) -> SimReport:
    """Estimate lambda1, lambda2 and per-symbol distortion by simulation.

    lambda1 is reported as the max over tested identities of the rejection
    rate of the identity's own test; lambda2 as the max over tested ordered
    pairs of the false-accept rate.  Deterministic given the seed.
    """
    trials_per_pair = _integer("trials_per_pair", trials_per_pair, 1)
    seed = _integer("seed", seed, 0)
    tables = _pair_tables(ch, dist)
    identities, pairs = _choose_identities(code, seed)

    dist_sum = np.zeros(code.m)
    dist_sqsum = np.zeros(code.m)
    total_trials = trials_per_pair * (len(identities) + len(pairs))
    lambda1, lambda2 = {}, {}
    cache: dict = {}
    for (a, b) in [(i, i) for i in identities] + list(pairs):
        accept, dvals = _simulate_pair(code, tables, a, b, trials_per_pair,
                                       _pair_seed(seed, a, b), cache)
        if a == b:
            lambda1[a] = float(1.0 - accept.mean())
        else:
            lambda2[(a, b)] = float(accept.mean())
        dist_sum += dvals.sum(axis=0)
        dist_sqsum += (dvals ** 2).sum(axis=0)

    l1_hat = max(lambda1.values())
    l2_hat = max(lambda2.values()) if lambda2 else 0.0
    d_t_hat = dist_sum / total_trials
    var = np.maximum(dist_sqsum / total_trials - d_t_hat ** 2, 0.0)
    d_t_stderr = np.sqrt(var / total_trials)
    return SimReport(identities=tuple(identities), pairs=tuple(pairs),
                     trials_per_pair=trials_per_pair, seed=seed,
                     lambda1_per_identity=lambda1, lambda2_per_pair=lambda2,
                     lambda1_hat=l1_hat,
                     lambda1_stderr=_rate_stderr(l1_hat, trials_per_pair),
                     lambda2_hat=l2_hat,
                     lambda2_stderr=_rate_stderr(l2_hat, trials_per_pair),
                     d_t_hat=d_t_hat, d_t_stderr=d_t_stderr)


# --- exact oracles -----------------------------------------------------------

def _running_sum(total: float, terms: np.ndarray) -> float:
    """total + terms[0] + terms[1] + ..., added one at a time in this order."""
    return float(np.cumsum(np.concatenate(([total], terms)))[-1])


def exact_error_probabilities(code: IDFeedbackCode, ch: StateDMC,
                              pairs) -> dict:
    """Exact lambda1 per identity and lambda2 per ordered pair.

    Sums the defining expectations over every pilot output block and uses
    the exact inner-code confusion matrix for the tail.  In randomized mode
    the marginalization over pilot inputs collapses into the mixture output
    law because the verdict depends on the output block only.  Every sum
    runs in lexicographic block order; only typical blocks are colored,
    those of a chunk in one `code.colorings` call per identity.
    The |Y|^k tails and the |Y|^n pilot blocks are enumerated, and so
    guarded by `enumerate_blocks`, apart: the tails first, then the blocks.
    """
    confusion = confusion_matrix(code.inner.log_table)
    row = code.pilot_row
    identities = sorted({i for i, _ in pairs} | {i for _, i in pairs})

    lambda1 = {i: 0.0 for i in identities}
    lambda2 = {(a, b): 0.0 for a, b in pairs if a != b}
    atypical_mass = 0.0
    for chunk in chunks(enumerate_blocks(ch.output_size, code.n)):
        prob = np.ones(chunk.shape[0])
        for t in range(code.n):
            prob *= row[chunk[:, t]]
        typical = code.pilot_typical(chunk)
        atypical_mass = _running_sum(atypical_mass, prob[(prob != 0.0) & ~typical])
        keep = (prob != 0.0) & typical
        prob, blocks = prob[keep], chunk[keep]
        colors = {i: code.colorings(i, blocks) - 1 for i in identities}
        for i, c in colors.items():
            lambda1[i] = _running_sum(lambda1[i], prob * (1.0 - confusion[c, c]))
        for (a, b) in lambda2:
            lambda2[(a, b)] = _running_sum(lambda2[(a, b)],
                                           prob * confusion[colors[a], colors[b]])
    for i in identities:
        lambda1[i] += atypical_mass
    return {"lambda1": lambda1, "lambda2": lambda2,
            "atypical_mass": atypical_mass}


def brute_force_estimator_distortion(ch: StateDMC, dist: DistortionMatrix):
    """Exhaustive search over all |S_hat|^(|X||Y|) estimator tables (S_hat: d's columns).

    Returns (per-input expected distortion of the best table, best table).
    The best table is the first (lexicographic) minimizer of the uniform-over-inputs mean.
    """
    nx, ny = ch.input_size, ch.output_size
    tables = enumerate_blocks(dist.d.shape[1], nx * ny)
    cost = posterior_cost(ch, dist).reshape(nx * ny, -1)  # (X*Y, S_hat)

    def per_input(rows: np.ndarray) -> np.ndarray:
        return cost[np.arange(nx * ny), rows].reshape(-1, nx, ny).sum(axis=2)

    totals = np.concatenate([per_input(t).mean(axis=1) for t in chunks(tables)])
    best = tables[int(np.argmin(totals))]
    return per_input(best[None])[0], EstimatorTable(h=best.reshape(nx, ny))


def _simplex_grid(dims: int, resolution: int) -> np.ndarray:
    """All compositions of `resolution` into `dims` <= 3 parts, as distributions."""
    if dims == 1:
        return np.ones((1, 1))
    if dims == 2:
        i = np.arange(resolution + 1)
        return np.stack([i, resolution - i], axis=1) / resolution
    i, j = np.triu_indices(resolution + 1)
    return np.stack([i, j - i, resolution - j], axis=1) / resolution


def grid_capacity_oracle(ch: StateDMC, dist: DistortionMatrix | None = None,
                         budget: float | None = None,
                         resolution: int = 200) -> float:
    """Exhaustive grid maximum of the (constrained) output-mixture entropy."""
    if ch.input_size > 3:
        raise AlphabetTooLarge("grid oracle supports |X| <= 3")
    if _integer("resolution", resolution, 1) > 400:
        raise AlphabetTooLarge("grid resolution capped at 400")
    grid = _simplex_grid(ch.input_size, resolution)
    if budget is not None:
        if dist is None:
            raise InvalidParameter("budget given without a distortion matrix")
        profile = distortion_profile(ch, dist).per_input
        grid = grid[grid @ profile <= budget + FEASIBILITY_TOL]
        if grid.size == 0:
            raise InfeasibleDistortion(budget, min_feasible=float(profile.min()))
    return float(_row_entropies(grid @ ch.rows).max())
