"""Concatenated feedback ID codes with distortion-feasible inputs.

The scheme sends a pilot block (a constant symbol, or fresh draws from the
optimizing distribution), turns the fed-back pilot output into shared
randomness through a keyed pseudorandom coloring, and transmits the color
with a short inner code over the feasible input alphabet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .channel import StateDMC, _block, cumulative, sample_rows
from .capacity import (
    ZERO_CAPACITY_TOL,
    InputDistribution,
    _shannon,
    det_capacity_distortion,
    rand_capacity_distortion,
)
from .errors import InvalidParameter, TooManyMessages, ZeroCapacityChannel, _integer
from .estimation import DistortionMatrix, _feasible_inputs
from .typicality import counts_typical, enumerate_blocks, symbol_counts

EXACT_ERROR_GUARD = 4096      # enumerate Y^k exactly up to this many tails
MC_ERROR_TRIALS = 2000
ML_TIE_TOL = 1e-9             # bits; ML scores this close to a tail's maximum tie
SUPPORT_TOL = 1e-9
COLORING_BATCH_ROWS = 1024    # rows hashed together; bounds the transient digests
RESTARTS = 32                 # random codebooks drawn per inner code


# --- keyed pseudorandom coloring --------------------------------------------

@lru_cache(maxsize=1024)
def _prf_prefix(master_seed: int, identity: int):
    """The keyed BLAKE2b state after absorbing the identity; copy before use."""
    h = hashlib.blake2b(digest_size=8, key=master_seed.to_bytes(8, "little"))
    ident = identity.to_bytes(max(1, (identity.bit_length() + 7) // 8), "big")
    h.update(len(ident).to_bytes(4, "big"))
    h.update(ident)
    return h


def _prf_u64(master_seed: int, identity: int, payload: bytes, counter: int) -> int:
    h = _prf_prefix(master_seed, identity).copy()
    h.update(counter.to_bytes(4, "big"))
    h.update(payload)
    return int.from_bytes(h.digest(), "big")


def _payload(y_pilot) -> bytes:
    """One byte per symbol if all are < 256, else the length and 8 bytes per symbol.

    A wide payload is longer than n bytes, so it never equals another
    block's payload of the same length n.
    """
    symbols = [int(y) for y in y_pilot]
    if max(symbols, default=0) < 256:
        return bytes(symbols)
    return len(symbols).to_bytes(4, "big") + b"".join(y.to_bytes(8, "big") for y in symbols)


def _seed_and_count(master_seed, color_count) -> tuple[int, int]:
    """The master seed in 0..2^64 - 1, the 8 bytes of the key, and the color
    count in 1..2^63 - 1, the range an int64 color holds."""
    return (_integer("master seed", master_seed, 0, 2 ** 64 - 1),
            _integer("color count", color_count, 1, 2 ** 63 - 1))


def coloring_value(master_seed: int, color_count: int, identity: int, y_pilot) -> int:
    """Pseudorandom color of (identity, pilot block) in {1..M}.

    The master seed is an integer in 0..2^64 - 1, the color count M one in
    1..2^63 - 1 and the identity one >= 0; anything else raises
    InvalidParameter.  Rejection sampling removes the modulo bias; sender
    and receiver share only the master seed.  No code has more colors: its
    inner code would need a distinct codeword for each.
    """
    return _color(*_seed_and_count(master_seed, color_count),
                  _integer("identity", identity, 0), y_pilot)


def _color(master_seed: int, color_count: int, identity: int, y_pilot) -> int:
    """`coloring_value` of a seed, count and identity already checked."""
    payload = _payload(y_pilot)
    bound = (2 ** 64 // color_count) * color_count
    counter = 0
    value = _prf_u64(master_seed, identity, payload, counter)
    while value >= bound:
        counter += 1
        value = _prf_u64(master_seed, identity, payload, counter)
    return value % color_count + 1


def coloring_values(master_seed: int, color_count: int, identity: int,
                    blocks: np.ndarray) -> np.ndarray:
    """`coloring_value` of every row of `blocks`, as int64, with the same
    domain of seed, count and identity.

    Rows are hashed COLORING_BATCH_ROWS at a time from one state that has
    absorbed the identity and counter 0.  A row that needs a redraw, or whose
    symbols are not all in 0..255 (a wide payload), is colored alone.
    """
    master_seed, color_count = _seed_and_count(master_seed, color_count)
    identity = _integer("identity", identity, 0)
    blocks = np.asarray(blocks)
    colors = np.empty(blocks.shape[0], dtype=np.int64)
    bound = (2 ** 64 // color_count) * color_count
    state = _prf_prefix(master_seed, identity).copy()
    state.update((0).to_bytes(4, "big"))
    width = blocks.shape[1]
    for start in range(0, blocks.shape[0], COLORING_BATCH_ROWS):
        rows = blocks[start:start + COLORING_BATCH_ROWS]
        scalar = np.full(rows.shape[0], width == 0)     # no bytes to slice rows from
        if rows.dtype != np.uint8:
            scalar |= ~((rows >= 0) & (rows < 256)).all(axis=1)
        fast = np.flatnonzero(~scalar)
        data = rows[fast].astype(np.uint8).tobytes()
        digests = []
        for offset in range(0, len(data), max(width, 1)):
            h = state.copy()
            h.update(data[offset:offset + width])
            digests.append(h.digest())
        values = np.frombuffer(b"".join(digests), dtype=">u8")
        if bound < 2 ** 64:
            scalar[fast[values >= np.uint64(bound)]] = True
        colors[start + fast] = values % np.uint64(color_count) + np.uint64(1)
        for i in np.flatnonzero(scalar):
            colors[start + i] = _color(master_seed, color_count, identity, rows[i])
    return colors


# --- inner transmission code -------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransmissionCode:
    """An (k, M) code over the averaged channel with ML decoding.

    `log_table[j, t, y]` holds log2 W_avg(y | u_j[t]) and defines the
    decoder: every decision is `_ml_decode` over it.  Its axes are the M
    messages, the k tail positions and |Y|.
    """

    codewords: tuple[tuple[int, ...], ...]
    log_table: np.ndarray       # shape (M, k, Y)
    max_error: float
    error_method: str           # "exact" or "monte-carlo"

    @property
    def k(self) -> int:
        return self.log_table.shape[1]

    def decode(self, y_tail) -> int:
        """ML message index in {1..M} of one tail of k symbols in 0..|Y|-1.

        Scores within ML_TIE_TOL bits of the best one tie, and the lowest
        index among them wins (`_ml_decode`).
        """
        y_tail = _block(np.ravel(y_tail), self.log_table.shape[2], self.k)
        return int(_ml_decode(self.log_table, y_tail[None])[0][0]) + 1


def _log_table(rows: np.ndarray, codewords) -> np.ndarray:
    """log2 of the rows of each codeword's symbols: shape (M, k, Y)."""
    with np.errstate(divide="ignore"):
        return np.log2(rows)[np.asarray(codewords)]


def _loglik(table: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """ML scores, shape (M, tails): the sum of log2 W(y_t | u_j[t]), added in t order.

    `table` is a `_log_table` of shape (M, k, Y); `tails` has shape (tails, k).
    """
    loglik = np.zeros((table.shape[0], tails.shape[0]))
    for t in range(tails.shape[1]):
        loglik += table[:, t].take(tails[:, t], axis=1)
    return loglik


def _ml_decode(table: np.ndarray, tails: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ML message indices 0..M-1 of the tails, and their `_loglik` scores.

    The one decision rule of every decoder: a score within ML_TIE_TOL bits
    of the tail's best one ties with it, and the lowest index among the
    tied messages wins, so a tie never depends on how rounding ordered
    scores that are equal in exact arithmetic.
    """
    scores = _loglik(table, tails)
    tied = scores >= scores.max(axis=0) - ML_TIE_TOL
    return np.argmax(tied, axis=0), scores


def confusion_matrix(log_table: np.ndarray) -> np.ndarray:
    """A[j, j'] = P(ML decode = j' | codeword u_j sent), by enumerating every tail."""
    messages, k, output_size = log_table.shape
    decoded, loglik = _ml_decode(log_table, enumerate_blocks(output_size, k))
    lik = np.exp2(loglik)
    confusion = np.empty((messages, messages))
    for j in range(messages):
        confusion[:, j] = lik[:, decoded == j].sum(axis=1)
    return confusion


def _exact_error_profile(log_table: np.ndarray) -> np.ndarray:
    """Per-message ML error: one minus the confusion matrix's diagonal."""
    return 1.0 - np.diag(confusion_matrix(log_table))


def _mc_error_profile(rows: np.ndarray, codewords, log_table: np.ndarray,
                      rng: np.random.Generator) -> np.ndarray:
    """Per-message ML error over MC_ERROR_TRIALS tails drawn from each codeword."""
    k = len(codewords[0])
    cum = cumulative(rows)
    errors = np.empty(len(codewords))
    for j, cw in enumerate(codewords):
        y = sample_rows(cum[np.asarray(cw)], rng.random((MC_ERROR_TRIALS, k)))
        errors[j] = float(np.mean(_ml_decode(log_table, y)[0] != j))
    return errors


def _improve_codebook(codewords: list, log_table: np.ndarray, candidates: list,
                      candidate_tables: np.ndarray):
    """Greedy swap descent on the maximal exact error, for tiny codeword spaces.

    `candidate_tables[c]` is the log table row of `candidates[c]`, so a swap
    replaces one row of the current table.  Returns the error, the codewords
    and their table.
    """
    current = float(_exact_error_profile(log_table).max())
    for _ in range(100):
        best_swap, best_err = None, current
        for j in range(len(codewords)):
            for c, cand in enumerate(candidates):
                if cand in codewords:
                    continue
                trial = log_table.copy()
                trial[j] = candidate_tables[c]
                err = float(_exact_error_profile(trial).max())
                if err < best_err - 1e-15:
                    best_swap, best_err, best_table = (j, cand), err, trial
        if best_swap is None:
            break
        codewords[best_swap[0]] = best_swap[1]
        current, log_table = best_err, best_table
    return current, tuple(codewords), log_table


def build_transmission_code(ch: StateDMC, k: int, M: int, feasible,
                            rng: np.random.Generator) -> TransmissionCode:
    """Random codebook over the feasible inputs with ML decoding.

    One Shannon solve of the restricted averaged channel (the rows of the
    feasible inputs) decides zero capacity, as the capacities' guard does,
    and gives the codeword law.  Of RESTARTS i.i.d. codebooks (a repeated
    codeword redrawn up to 200 times), the one of smallest measured
    maximal error is kept.  On a small codeword space a swap descent starts
    from it, then from each next distinct one while it ends at error >= 0.5;
    a refusal reports the first descent.  More messages than the |active|^k
    distinct codewords are refused before any draw: a repeated codeword's
    later copy is never decoded, so its error would be 1.
    """
    k, M = _integer("k", k, 1), _integer("M", M, 2)
    support = sorted(set(int(x) for x in _block(list(feasible), ch.input_size, what="input")))
    if len(support) < 2:
        raise ZeroCapacityChannel("zero Shannon capacity: fewer than two feasible inputs")
    shannon = _shannon(ch.rows[support])
    if shannon.value <= ZERO_CAPACITY_TOL:
        raise ZeroCapacityChannel("the feasible inputs' channel has zero Shannon capacity")
    p_opt = shannon.maximizer.p
    p_opt = np.where(p_opt < SUPPORT_TOL, 0.0, p_opt)
    p_opt /= p_opt.sum()
    active = [support[i] for i in np.flatnonzero(p_opt)]
    cum_weights = cumulative(p_opt[p_opt > 0])
    distinct_available = len(active) ** k
    if M > distinct_available:
        raise TooManyMessages(f"M={M} messages exceed the {distinct_available} distinct "
                              f"codewords of blocklength k={k}")
    exact = ch.output_size ** k <= EXACT_ERROR_GUARD

    drawn = []
    for _ in range(RESTARTS):
        codewords: list[tuple[int, ...]] = []
        seen = set()
        for _j in range(M):
            for _try in range(200):
                cw = tuple(active[i] for i in sample_rows(cum_weights, rng.random(k)))
                if cw not in seen:
                    break
            codewords.append(cw)
            seen.add(cw)
        table = _log_table(ch.rows, codewords)
        if exact:
            errors = _exact_error_profile(table)
        else:
            errors = _mc_error_profile(ch.rows, codewords, table, rng)
        drawn.append((float(errors.max()), tuple(codewords), table))
        if drawn[-1][0] == 0.0:
            break

    drawn.sort(key=lambda restart: restart[0])   # stable: the first best leads
    worst, codewords, table = drawn[0]
    if exact and distinct_available <= 256 and worst > 0.0:
        candidates = np.array(active)[enumerate_blocks(len(active), k)]
        swaps = (list(map(tuple, candidates.tolist())), _log_table(ch.rows, candidates))
        for i, (start, start_table) in enumerate({cw: t for _, cw, t in drawn}.items()):
            descent = _improve_codebook(list(start), start_table, *swaps)
            if i == 0 or descent[0] < 0.5:
                worst, codewords, table = descent
            if worst < 0.5:
                break
    if worst >= 0.5:
        raise TooManyMessages(
            f"M={M} messages exceed what blocklength k={k} supports "
            f"(measured maximal error {worst:.3f})"
        )
    return TransmissionCode(codewords=codewords, log_table=table,
                            max_error=worst,
                            error_method="exact" if exact else "monte-carlo")


# --- the concatenated ID feedback code ---------------------------------------

ABORT_COLOR = 1  # fallback inner message when the pilot block is atypical


@dataclass(frozen=True, eq=False)
class IDFeedbackCode:
    """Pilot policy + coloring functions + inner transmission code."""

    mode: str                               # "det" or "rand"
    n: int
    eps: float
    pilot: "int | InputDistribution"
    pilot_row: np.ndarray                   # output law of one pilot symbol
    identity_count: int
    color_count: int
    inner: TransmissionCode
    master_seed: int
    budget: float

    @property
    def m(self) -> int:
        """Blocklength: the n pilot symbols and the k symbols of the inner code."""
        return self.n + self.inner.k

    def coloring(self, identity: int, y_pilot) -> int:
        """Color of one pilot block; its symbols must be integers in 0..|Y|-1.

        Of the key only the identity is checked, in 1..N: the code's seed
        and color count were checked when it was built, not per block."""
        return _color(self.master_seed, self.color_count,
                      _integer("identity", identity, 1, self.identity_count),
                      _block(y_pilot, self.pilot_row.shape[0]))

    def colorings(self, identity: int, blocks: np.ndarray) -> np.ndarray:
        """`coloring` of every row of `blocks`, as an int64 array."""
        return coloring_values(self.master_seed, self.color_count,
                               _integer("identity", identity, 1, self.identity_count),
                               _block(np.asarray(blocks), self.pilot_row.shape[0]))

    def pilot_typical(self, y_pilot):
        """Max-norm test of the empirical pilot output type against its law,
        of one pilot block (a bool) or of each row of an array (a bool array).

        A block holds n integers in 0..|Y|-1.  The test depends on the output
        block only, so sender and receiver always agree; for a constant
        deterministic pilot it coincides with conditional-type typicality.
        Decided on integer counts by `typicality.counts_typical`, the
        library's one typicality test.  The sender, the receiver, the
        simulator and the exact oracle all call this method.
        """
        size = self.pilot_row.shape[0]
        blocks = _block(np.asarray(y_pilot), size, self.n)
        counts = symbol_counts(blocks.reshape(-1, self.n), size)
        typical = counts_typical(counts, self.pilot_row, self.eps)
        return bool(typical[0]) if blocks.ndim == 1 else typical

    def pilot_input(self, rng: np.random.Generator, shape=()):
        """Pilot symbols: the constant one (det; one int, whatever the shape,
        and nothing drawn) or draws of `shape` from the pilot law (rand; one
        int for shape ())."""
        if self.mode == "det":
            return int(self.pilot)
        x = sample_rows(cumulative(self.pilot.p), rng.random(shape))
        return x if shape else int(x)

    def commit(self, identity: int, y_pilot) -> int:
        """The inner message sent after the fed-back pilot block: its color
        if the block is typical, else ABORT_COLOR."""
        _integer("identity", identity, 1, self.identity_count)
        if self.pilot_typical(y_pilot):
            return self.coloring(identity, y_pilot)
        return ABORT_COLOR

    def to_dict(self) -> dict:
        pilot = (int(self.pilot) if self.mode == "det"
                 else self.pilot.p.tolist())
        return {
            "mode": self.mode, "n": self.n, "m": self.m, "eps": self.eps,
            "pilot": pilot, "identities": self.identity_count,
            "colors": self.color_count, "seed": self.master_seed,
            "budget": self.budget,
            "codewords": [list(cw) for cw in self.inner.codewords],
            "inner_max_error": self.inner.max_error,
            "inner_error_method": self.inner.error_method,
        }


def verify(code: IDFeedbackCode, claimed_identity: int, y_full) -> bool:
    """Receiver test: pilot typical and inner decode equal to the claimed color."""
    y_full = _block(y_full, code.pilot_row.shape[0], code.m)
    y_pilot = y_full[:code.n]
    if not code.pilot_typical(y_pilot):
        return False
    expected = code.coloring(claimed_identity, y_pilot)
    return code.inner.decode(y_full[code.n:]) == expected


# --- construction ------------------------------------------------------------

def build_id_code(ch: StateDMC, dist: DistortionMatrix, budget: float, n: int,
                  identities: int, colors: int, eps: float, mode: str,
                  master_seed: int) -> IDFeedbackCode:
    """Assemble the concatenated feedback ID code for one budget."""
    if mode not in ("det", "rand"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    identities, n = _integer("identities", identities, 2), _integer("n", n, 1)
    master_seed, colors = _seed_and_count(master_seed, colors)
    if not eps > 0:
        raise InvalidParameter(f"typicality radius eps must be > 0, got {eps}")
    k = math.ceil(math.sqrt(n))
    _, feasible = _feasible_inputs(ch, dist, budget)

    if mode == "det":
        pilot: int | InputDistribution = det_capacity_distortion(ch, dist, budget).maximizer
        pilot_row = ch.rows[pilot].copy()
        inner_support = feasible
    else:
        pilot = rand_capacity_distortion(ch, dist, budget).maximizer
        pilot_row = pilot.p @ ch.rows
        inner_support = np.flatnonzero(pilot.p > SUPPORT_TOL)

    rng = np.random.default_rng([master_seed, 0xC0DEB00C])
    inner = build_transmission_code(ch, k, colors, inner_support, rng)
    return IDFeedbackCode(mode=mode, n=n, eps=eps, pilot=pilot, pilot_row=pilot_row,
                          identity_count=identities, color_count=colors, inner=inner,
                          master_seed=master_seed, budget=budget)
