"""Concatenated feedback ID codes with distortion-feasible inputs.

The scheme sends a pilot block (a constant symbol, or fresh draws from the
optimizing distribution), turns the fed-back pilot output into shared
randomness through a keyed pseudorandom coloring, and transmits the color
with a short inner code over the feasible input alphabet.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .channel import StateDMC, cumulative, sample_rows
from .capacity import (
    InputDistribution,
    _require_positive_capacity,
    _shannon,
    det_capacity_distortion,
    rand_capacity_distortion,
)
from .errors import (
    DegenerateCode,
    IndexOutOfRange,
    InfeasibleDistortion,
    LengthMismatch,
    OutOfTime,
    TooManyMessages,
    ZeroCapacityChannel,
)
from .estimation import DistortionMatrix, _feasible_inputs
from .typicality import enumerate_blocks, marginal_typical_membership

EXACT_ERROR_GUARD = 4096      # enumerate Y^k exactly up to this many tails
MC_ERROR_TRIALS = 2000
SUPPORT_TOL = 1e-9
COLORING_BATCH_ROWS = 1024    # rows hashed together; bounds the transient digests
RESTARTS = 32                 # random codebooks drawn per inner code


# --- keyed pseudorandom coloring --------------------------------------------

@lru_cache(maxsize=1024)
def _prf_prefix(master_seed: int, identity: int):
    """The keyed BLAKE2b state after absorbing the identity; copy before use."""
    key = (master_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    h = hashlib.blake2b(digest_size=8, key=key)
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
    if getattr(y_pilot, "dtype", None) == np.uint8:
        return y_pilot.tobytes()
    symbols = [int(y) for y in y_pilot]
    if max(symbols, default=0) < 256:
        return bytes(symbols)
    return len(symbols).to_bytes(4, "big") + b"".join(y.to_bytes(8, "big") for y in symbols)


def _require_symbols(block, size: int) -> None:
    """Refuse a block with a symbol outside 0..size-1, by plain comparisons."""
    for y in block:
        if not 0 <= y < size:
            raise IndexOutOfRange(f"output symbol {y} out of range 0..{size - 1}")


def _require_color_count(color_count: int, limit: int) -> None:
    if not 1 <= color_count <= limit:
        raise DegenerateCode(f"color count must be in 1..{limit}, got {color_count}")


def coloring_value(master_seed: int, color_count: int, identity: int, y_pilot) -> int:
    """Pseudorandom color of (identity, pilot block) in {1..M}, for 1 <= M <= 2^64.

    Rejection sampling removes the modulo bias; sender and receiver share
    only the master seed.
    """
    _require_color_count(color_count, 2 ** 64)
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
    """`coloring_value` of every row of `blocks`, as int64, for 1 <= M < 2^63.

    Rows are hashed COLORING_BATCH_ROWS at a time from one state that has
    absorbed the identity and counter 0.  A row that needs a redraw, or whose
    symbols are not all in 0..255 (a wide payload), goes through
    `coloring_value`.
    """
    _require_color_count(color_count, 2 ** 63 - 1)
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
            colors[start + i] = coloring_value(master_seed, color_count, identity, rows[i])
    return colors


# --- inner transmission code -------------------------------------------------

@dataclass(frozen=True, eq=False)
class TransmissionCode:
    """An (k, M) code over the averaged channel with ML decoding.

    `log_table[j, t, y]` caches log2 W_avg(y | u_j[t]); every decoder sums
    it through `_loglik`, so all of them see the same likelihoods.
    """

    k: int
    M: int
    codewords: tuple[tuple[int, ...], ...]
    rows: np.ndarray            # averaged channel rows used for decoding
    log_table: np.ndarray       # shape (M, k, Y)
    max_error: float
    error_method: str           # "exact" or "monte-carlo"

    def decode(self, y_tail) -> int:
        """ML message index in {1..M}; ties go to the lowest index."""
        y_tail = np.asarray(y_tail, dtype=np.int64)
        if y_tail.shape != (self.k,):
            raise LengthMismatch(f"tail must have length {self.k}")
        _require_symbols(y_tail.tolist(), self.rows.shape[1])
        return int(np.argmax(_loglik(self.log_table, y_tail[None])[:, 0])) + 1


def _log_table(rows: np.ndarray, codewords) -> np.ndarray:
    with np.errstate(divide="ignore"):
        logrows = np.log2(rows)
    return np.stack([logrows[np.asarray(cw)] for cw in codewords])


def _loglik(table: np.ndarray, tails: np.ndarray) -> np.ndarray:
    """ML scores, shape (M, tails): the sum of log2 W(y_t | u_j[t]), added in t order.

    `table` is a `_log_table` of shape (M, k, Y); `tails` has shape (tails, k).
    """
    loglik = np.zeros((table.shape[0], tails.shape[0]))
    for t in range(tails.shape[1]):
        loglik += table[:, t, tails[:, t]]
    return loglik


def confusion_matrix(rows: np.ndarray, codewords) -> np.ndarray:
    """A[j, j'] = P(ML decode = j' | codeword u_j sent), by enumerating every tail."""
    tails = enumerate_blocks(rows.shape[1], len(codewords[0]))
    loglik = _loglik(_log_table(rows, codewords), tails)
    decoded = np.argmax(loglik, axis=0)
    lik = np.exp2(loglik)
    confusion = np.empty((len(codewords), len(codewords)))
    for j in range(len(codewords)):
        confusion[:, j] = lik[:, decoded == j].sum(axis=1)
    return confusion


def _exact_error_profile(rows: np.ndarray, codewords) -> np.ndarray:
    """Per-message ML error: one minus the confusion matrix's diagonal."""
    return 1.0 - np.diag(confusion_matrix(rows, codewords))


def _mc_error_profile(rows: np.ndarray, codewords, rng: np.random.Generator,
                      trials: int = MC_ERROR_TRIALS) -> np.ndarray:
    k = len(codewords[0])
    cum = cumulative(rows)
    table = _log_table(rows, codewords)
    errors = np.empty(len(codewords))
    for j, cw in enumerate(codewords):
        y = sample_rows(cum[np.asarray(cw)], rng.random((trials, k)))
        errors[j] = float(np.mean(np.argmax(_loglik(table, y), axis=0) != j))
    return errors


def _improve_codebook(rows: np.ndarray, codewords: list, candidates: list):
    """Greedy swap descent on the maximal exact error, for tiny codeword spaces."""
    current = float(_exact_error_profile(rows, codewords).max())
    for _ in range(100):
        best_swap, best_err = None, current
        for j in range(len(codewords)):
            for cand in candidates:
                if cand in codewords:
                    continue
                trial = list(codewords)
                trial[j] = cand
                err = float(_exact_error_profile(rows, trial).max())
                if err < best_err - 1e-15:
                    best_swap, best_err = (j, cand), err
        if best_swap is None:
            break
        codewords[best_swap[0]] = best_swap[1]
        current = best_err
    return current, tuple(codewords)


def build_transmission_code(ch: StateDMC, k: int, M: int, feasible,
                            rng: np.random.Generator) -> TransmissionCode:
    """Random codebook over the feasible inputs with ML decoding.

    The restricted averaged channel (the rows of the feasible inputs) must
    have positive Shannon capacity, decided by the guard of every capacity.
    Codewords are drawn i.i.d. from its capacity-achieving distribution, the
    Frank-Wolfe Shannon solve of `capacity`; duplicate codewords are
    resampled while distinct ones remain available, and the best of RESTARTS
    codebooks (smallest measured maximal error) is kept.
    """
    if M < 2:
        raise DegenerateCode("an inner code needs at least 2 messages")
    support = sorted(set(int(x) for x in feasible))
    if not support:
        raise InfeasibleDistortion(float("nan"))
    if len(support) == 1:
        raise ZeroCapacityChannel("a single feasible input cannot carry messages")
    restricted = ch.rows[support]
    _require_positive_capacity(restricted)
    p_opt = _shannon(restricted).maximizer.p
    p_opt = np.where(p_opt < SUPPORT_TOL, 0.0, p_opt)
    p_opt /= p_opt.sum()
    active = [support[i] for i in np.flatnonzero(p_opt)]
    weights = p_opt[p_opt > 0]
    distinct_available = len(active) ** k
    exact = ch.output_size ** k <= EXACT_ERROR_GUARD

    best = None
    for _ in range(RESTARTS):
        codewords: list[tuple[int, ...]] = []
        seen = set()
        for _j in range(M):
            for _try in range(200):
                cw = tuple(int(active[i]) for i in
                           rng.choice(len(active), size=k, p=weights))
                if cw not in seen or len(seen) >= distinct_available:
                    break
            codewords.append(cw)
            seen.add(cw)
        if exact:
            errors = _exact_error_profile(ch.rows, codewords)
            method = "exact"
        else:
            errors = _mc_error_profile(ch.rows, codewords, rng)
            method = "monte-carlo"
        worst = float(errors.max())
        if best is None or worst < best[0]:
            best = (worst, tuple(codewords), method)
        if worst == 0.0:
            break

    worst, codewords, method = best
    if exact and distinct_available <= 256 and worst > 0.0:
        candidates = np.array(active)[enumerate_blocks(len(active), k)]
        worst, codewords = _improve_codebook(ch.rows, list(codewords),
                                             list(map(tuple, candidates.tolist())))
    if worst >= 0.5:
        raise TooManyMessages(
            f"M={M} messages exceed what blocklength k={k} supports "
            f"(measured maximal error {worst:.3f})"
        )
    return TransmissionCode(k=k, M=M, codewords=codewords, rows=ch.rows,
                            log_table=_log_table(ch.rows, codewords),
                            max_error=worst, error_method=method)


# --- the concatenated ID feedback code ---------------------------------------

ABORT_COLOR = 1  # fallback inner message when the pilot block is atypical


@dataclass(frozen=True, eq=False)
class IDFeedbackCode:
    """Pilot policy + coloring functions + inner transmission code."""

    mode: str                               # "det" or "rand"
    n: int
    m: int
    eps: float
    pilot: "int | InputDistribution"
    pilot_row: np.ndarray                   # output law of one pilot symbol
    identity_count: int
    color_count: int
    inner: TransmissionCode
    master_seed: int
    budget: float
    feasible: tuple[int, ...]

    def _require_identity(self, identity: int) -> None:
        if not 1 <= identity <= self.identity_count:
            raise DegenerateCode(f"identity {identity} out of range")

    def coloring(self, identity: int, y_pilot) -> int:
        """Color of one pilot block; its symbols must be in 0..|Y|-1."""
        self._require_identity(identity)
        _require_symbols(y_pilot, self.pilot_row.shape[0])
        return coloring_value(self.master_seed, self.color_count, identity, y_pilot)

    def colorings(self, identity: int, blocks: np.ndarray) -> np.ndarray:
        """`coloring` of every row of `blocks`, as an int64 array."""
        self._require_identity(identity)
        return coloring_values(self.master_seed, self.color_count, identity, blocks)

    def pilot_typical(self, y_pilot) -> bool:
        """Max-norm test of the empirical pilot output type against its law.

        Depends on the output block only, so encoder and decoder always
        agree; for a constant deterministic pilot this coincides with
        conditional-type typicality.  Decided on integer counts, like every
        typicality test (see `typicality.counts_typical`).
        """
        return marginal_typical_membership(self.pilot_row, y_pilot, self.eps)

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


@dataclass(frozen=True)
class EncoderState:
    """Single-owner state of one encoding pass."""

    identity: int
    pilot_len: int
    total_len: int
    t: int = 1                              # next time index, 1-based
    y_pilot: tuple[int, ...] = ()
    committed: int | None = None            # inner message, set at t = n+1
    aborted: bool = False


def initial_state(code: IDFeedbackCode, identity: int) -> EncoderState:
    if not 1 <= identity <= code.identity_count:
        raise DegenerateCode(f"identity {identity} out of range")
    return EncoderState(identity=identity, pilot_len=code.n, total_len=code.m)


def encode_step(code: IDFeedbackCode, state: EncoderState,
                rng: np.random.Generator) -> tuple[int, EncoderState]:
    """Emit the next input symbol and advance the encoder clock."""
    t = state.t
    if t > state.total_len:
        raise OutOfTime(f"encoder already emitted all {state.total_len} symbols")
    if t <= state.pilot_len:
        if code.mode == "det":
            x = int(code.pilot)
        else:
            x = int(sample_rows(cumulative(code.pilot.p), rng.random(1))[0])
        return x, replace(state, t=t + 1)
    if state.committed is None:
        if len(state.y_pilot) != state.pilot_len:
            raise LengthMismatch("pilot feedback incomplete at commit time")
        if code.pilot_typical(state.y_pilot):
            j = code.coloring(state.identity, state.y_pilot)
            aborted = False
        else:
            j = ABORT_COLOR
            aborted = True
        state = replace(state, committed=j, aborted=aborted)
    x = code.inner.codewords[state.committed - 1][t - state.pilot_len - 1]
    return int(x), replace(state, t=t + 1)


def feedback_update(state: EncoderState, y_t: int) -> EncoderState:
    """Record one fed-back output; only the pilot block is retained."""
    if len(state.y_pilot) < state.pilot_len:
        return replace(state, y_pilot=state.y_pilot + (int(y_t),))
    return state


def verify(code: IDFeedbackCode, claimed_identity: int, y_full) -> bool:
    """Receiver test: pilot typical and inner decode equal to the claimed color."""
    y_full = [int(y) for y in y_full]
    if len(y_full) != code.m:
        raise LengthMismatch(f"output must have length {code.m}")
    _require_symbols(y_full, code.pilot_row.shape[0])
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
        raise ValueError(f"unknown mode {mode!r}")
    if identities < 2:
        raise DegenerateCode("need at least 2 identities")
    if n < 1:
        raise DegenerateCode("pilot length must be >= 1")
    if not eps > 0:
        raise DegenerateCode(f"typicality radius eps must be > 0, got {eps}")
    k = math.ceil(math.sqrt(n))
    _, feasible = _feasible_inputs(ch, dist, budget)

    if mode == "det":
        pilot: int | InputDistribution = det_capacity_distortion(ch, dist, budget).maximizer
        pilot_row = ch.rows[pilot].copy()
        inner_support = [int(x) for x in feasible]
    else:
        pilot = rand_capacity_distortion(ch, dist, budget).maximizer
        pilot_row = pilot.p @ ch.rows
        inner_support = [int(x) for x in np.flatnonzero(pilot.p > SUPPORT_TOL)]

    rng = np.random.default_rng([master_seed & 0xFFFFFFFFFFFFFFFF, 0xC0DEB00C])
    inner = build_transmission_code(ch, k, colors, inner_support, rng)
    return IDFeedbackCode(mode=mode, n=n, m=n + k, eps=eps, pilot=pilot,
                          pilot_row=pilot_row, identity_count=identities,
                          color_count=colors, inner=inner,
                          master_seed=master_seed, budget=budget,
                          feasible=tuple(int(x) for x in feasible))
