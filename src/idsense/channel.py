"""State-dependent discrete memoryless channels with i.i.d. states.

The physical channel is a kernel W(y|x,s) together with a state prior P_S.
Averaging the kernel over the state gives the effective DMC that governs
every capacity formula in this package; a StateDMC derives it once, as
its `rows`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    IndexOutOfRange,
    LengthMismatch,
    NegativeProbability,
    NotADistribution,
    RowNotNormalized,
)

# Normalization is checked exactly at validation.
ROW_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class StateDMC:
    """A state-dependent DMC: kernel[x][s][y] plus a state prior.

    `rows` is the averaged channel W(y|x) = sum_s P_S(s) W(y|x,s), derived
    at construction.  Immutable after construction; safe to share across
    concurrent tasks.
    """

    input_size: int
    output_size: int
    state_size: int
    kernel: np.ndarray       # shape (X, S, Y)
    state_prior: np.ndarray  # shape (S,)
    rows: np.ndarray = field(init=False, repr=False)  # shape (X, Y)

    def __post_init__(self):
        kernel = np.asarray(self.kernel, dtype=float)
        prior = np.asarray(self.state_prior, dtype=float)
        if min(self.input_size, self.output_size, self.state_size) < 1:
            raise DimensionMismatch("all alphabet sizes must be >= 1")
        if kernel.shape != (self.input_size, self.state_size, self.output_size):
            raise DimensionMismatch(
                f"kernel shape {kernel.shape} does not match sizes "
                f"({self.input_size}, {self.state_size}, {self.output_size})"
            )
        if prior.shape != (self.state_size,):
            raise DimensionMismatch(
                f"state prior shape {prior.shape} does not match state size {self.state_size}"
            )
        if (kernel < 0).any() or (prior < 0).any():
            raise NegativeProbability("negative probability entry")
        if (kernel > 1).any() or (prior > 1).any():
            raise NegativeProbability("probability entry exceeds 1")
        sums = kernel.sum(axis=2)
        for x in range(self.input_size):
            for s in range(self.state_size):
                if abs(sums[x, s] - 1.0) > ROW_TOL:
                    raise RowNotNormalized(x, s, float(sums[x, s]))
        if abs(prior.sum() - 1.0) > ROW_TOL:
            raise NotADistribution(f"state prior sums to {prior.sum()!r}")
        rows = np.einsum("s,xsy->xy", prior, kernel)
        for arr in (kernel, prior, rows):
            arr.setflags(write=False)
        object.__setattr__(self, "kernel", kernel)
        object.__setattr__(self, "state_prior", prior)
        object.__setattr__(self, "rows", rows)


def validate_channel(raw_kernel, raw_prior) -> StateDMC:
    """Build a StateDMC from nested numeric arrays, rejecting malformed input.

    Normalization is checked, never silently repaired.
    """
    try:
        kernel = np.asarray(raw_kernel, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(f"kernel is not rectangular: {exc}") from None
    try:
        prior = np.asarray(raw_prior, dtype=float)
    except (ValueError, TypeError) as exc:
        raise DimensionMismatch(f"state prior is malformed: {exc}") from None
    if kernel.ndim != 3:
        raise DimensionMismatch(f"kernel must be indexed [x][s][y], got {kernel.ndim} axes")
    if prior.ndim != 1:
        raise DimensionMismatch("state prior must be a vector")
    x, s, y = kernel.shape
    return StateDMC(input_size=x, output_size=y, state_size=s,
                    kernel=kernel, state_prior=prior)


def cumulative(p: np.ndarray) -> np.ndarray:
    """Cumulative sums along the last axis, for `sample_rows`.

    Every column from a row's last positive entry on is pinned to 1.0, so
    a running sum that rounds below 1.0 never lets a draw land on the
    zero-probability outputs after that entry.
    """
    p = np.asarray(p)
    cum = np.cumsum(p, axis=-1)
    positive_later = np.logical_or.accumulate(p[..., :0:-1] > 0, axis=-1)[..., ::-1]
    cum[..., :-1][~positive_later] = 1.0
    cum[..., -1] = 1.0
    return cum


def sample_rows(cum_rows: np.ndarray, u: np.ndarray, index=None) -> np.ndarray:
    """Categorical draws from rows of `cumulative`, as int64.

    u holds uniforms in [0, 1).  Without `index`, cum_rows (..., Y)
    broadcasts against u; with `index`, cum_rows is a flat (R, Y) table and
    u[...] draws from row index[...].  A draw counts the entries of its row
    at or below u, one column at a time, which is
    searchsorted(row, u, side="right") over the row up to its last positive
    output.  Columns pinned to 1.0 are above every u, so a draw never passes
    that output; the last column is compared only when it is the only one.
    """
    columns = (cum_rows[..., j] if index is None else cum_rows[:, j].take(index)
               for j in range(max(cum_rows.shape[-1] - 1, 1)))
    draws = (u >= next(columns)).astype(np.int64)
    for column in columns:
        draws += u >= column
    return draws


def _block(block, size: int, length: int | None = None, what: str = "output"):
    """`block` once its symbols are integers in 0..size-1 and, if `length` is
    given, its last axis holds exactly that many; the one check of symbols.

    An integral float counts as its integer; anything else raises
    IndexOutOfRange, a wrong length LengthMismatch.  An array is checked
    whole, an integer one by its minimum and maximum in its own dtype, and
    one of another dtype comes back as int64.  Any other sequence is checked
    symbol by symbol, which is cheaper on a short tuple, and comes back as is.
    """
    if isinstance(block, np.ndarray):
        if length is not None and block.shape[-1:] != (length,):
            raise LengthMismatch(f"block has shape {block.shape}, expected {length} symbols")
        if block.dtype.kind in "iu":
            if not block.size or 0 <= block.min() and block.max() < size:
                return block
        elif ((block >= 0) & (block < size) & (block % 1 == 0)).all():
            return block.astype(np.int64)
        block = block.ravel().tolist()      # fails the loop below at its first bad symbol
    elif length is not None and len(block) != length:
        raise LengthMismatch(f"block has {len(block)} symbols, expected {length}")
    for y in block:
        if not 0 <= y < size or y % 1:
            raise IndexOutOfRange(f"{what} symbol {y} is not an integer in 0..{size - 1}")
    return block


def sample_state_sequence(ch: StateDMC, n: int, rng: np.random.Generator) -> np.ndarray:
    """Draw n i.i.d. states from the prior; deterministic given the rng state."""
    return sample_rows(cumulative(ch.state_prior), rng.random(n))


def transmit(ch: StateDMC, x: int, s: int, rng: np.random.Generator) -> int:
    """Draw one output symbol from kernel[x][s][.]."""
    _block([x], ch.input_size, what="input")
    _block([s], ch.state_size, what="state")
    return int(sample_rows(cumulative(ch.kernel[int(x), int(s)]), rng.random(1))[0])


# --- serialization -----------------------------------------------------------

def channel_to_dict(ch: StateDMC) -> dict:
    return {
        "input_size": ch.input_size,
        "output_size": ch.output_size,
        "state_size": ch.state_size,
        "state_prior": ch.state_prior.tolist(),
        "kernel": ch.kernel.tolist(),
    }


def channel_from_dict(spec: dict) -> StateDMC:
    for key in ("input_size", "output_size", "state_size", "state_prior", "kernel"):
        if key not in spec:
            raise DimensionMismatch(f"channel spec is missing key {key!r}")
    ch = validate_channel(spec["kernel"], spec["state_prior"])
    declared = (spec["input_size"], spec["state_size"], spec["output_size"])
    if ch.kernel.shape != declared:
        raise DimensionMismatch(
            f"declared sizes {declared} do not match kernel shape {ch.kernel.shape}"
        )
    return ch


def load_channel(path) -> tuple[StateDMC, "np.ndarray | None"]:
    """Read a channel spec file; returns (channel, inline distortion or None)."""
    with open(path) as fh:
        spec = json.load(fh)
    ch = channel_from_dict(spec)
    dist = None
    if "distortion" in spec:
        dist = np.asarray(spec["distortion"], dtype=float)
    return ch, dist
