"""The typical output set used for common randomness.

A pilot output block is typical when, for each pilot symbol x, the output
counts N(y) at the positions of x lie in the closed max-norm ball
|N(y) - n*w(y)| <= n*eps around the averaged row w.  `counts_typical` is the
one test: the code's pilot test, the simulator, the exact oracle and the
enumeration here all decide with it.  The enumeration is the desk-scale
oracle for the size and mass bounds used as diagnostics.
"""

from __future__ import annotations

import numpy as np

from .capacity import entropy
from .channel import StateDMC, _block
from .errors import InvalidParameter, LengthMismatch, TooLargeToEnumerate, _integer
from .estimation import _check_distribution

ENUMERATION_GUARD = 2 ** 20   # most blocks (or tables) any exact oracle enumerates
CHUNK_ROWS = 2 ** 16          # enumerated rows processed at once
TYPICALITY_TOL = 1e-9    # per-symbol slack on the closed typicality ball


def counts_typical(counts, rows, eps: float):
    """Whether count vectors lie in the closed ball |N(y) - n*w(y)| <= n*eps.

    `counts` holds integer occurrence counts N(y) on its last axis, and n is
    their sum along that axis (so a count vector of zeros is trivially inside).
    `rows` broadcasts against `counts`.  Deciding on counts rather than on
    frequencies N(y)/n keeps the closed boundary exact: the comparison
    allows a slack of n * TYPICALITY_TOL, far below one count, which absorbs
    the rounding in w(y) itself (the FlipBSC averaged row is stored as
    0.8999999999999999, not 0.9) and in the products n*w(y) and n*eps.
    Returns a bool array over the leading axes.
    """
    counts = np.asarray(counts)
    n = counts.sum(axis=-1, keepdims=True)
    slack = n * (eps + TYPICALITY_TOL)
    return (np.abs(counts - n * np.asarray(rows)) <= slack).all(axis=-1)


def typical_size_bounds(ch: StateDMC, pilot, n: int, eps: float) -> tuple[float, float]:
    """The size-lemma exponents n*(H - c(eps)) and n*(H + c(eps)) in log2.

    H is the averaged-row entropy for a symbol pilot, or the mixture output
    entropy for a distribution pilot, and c(eps) = eps*|X|*|Y|*log2(n+1)/n +
    eps*log2|Y|, which shrinks to 0 as eps -> 0.  These are the
    exponents of the typical-set size lemma (Csiszar-Korner, Lemma 2.13),
    not finite-n guarantees.  The lower one bounds log2 |T| only together
    with the set's mass factor log2 W^n(T|x^n), and only for large n: at
    small n the ball may hold no type at all, so |T| = 0.  For a
    symbol pilot whose row w has full support, the form that holds at every
    n is log2 |T| >= log2 W^n(T|x^n) + n*(H - eps * sum_y |log2 w(y)|),
    since no member is more likely than 2^(-n*(H - eps * sum_y |log2 w(y)|)).
    """
    n = _integer("n", n, 1)
    if not eps > 0:
        raise InvalidParameter("eps must be > 0")
    rows = ch.rows
    if np.isscalar(pilot) or isinstance(pilot, (int, np.integer)):
        _block([pilot], ch.input_size, what="input")
        h = entropy(rows[int(pilot)])
    else:
        p = getattr(pilot, "p", pilot)
        p = _check_distribution(p, ch.input_size)
        h = entropy(p @ rows)
    c = (eps * ch.input_size * ch.output_size * np.log2(n + 1) / n
         + eps * np.log2(ch.output_size))
    return n * (h - c), n * (h + c)


def enumerate_blocks(size: int, n: int) -> np.ndarray:
    """Every length-n block over {0..size-1}, one per row, in lexicographic order.

    uint8 for alphabets of at most 256 symbols, wider only when needed.
    More than ENUMERATION_GUARD blocks raise `TooLargeToEnumerate`.
    """
    if size ** n > ENUMERATION_GUARD:
        raise TooLargeToEnumerate(f"{size}^{n} blocks exceed the enumeration guard")
    dtype = np.uint8 if size <= 2 ** 8 else np.uint16 if size <= 2 ** 16 else np.int64
    return np.indices((size,) * n, dtype=dtype).reshape(n, -1).T


def chunks(rows: np.ndarray) -> list[np.ndarray]:
    """Consecutive views of at most CHUNK_ROWS rows, to bound working memory."""
    return np.split(rows, range(CHUNK_ROWS, rows.shape[0], CHUNK_ROWS))


def symbol_counts(blocks: np.ndarray, size: int) -> np.ndarray:
    """Occurrences of each symbol 0..size-1 in each row: shape (rows, size), int64."""
    flat = np.arange(blocks.shape[0])[:, None] * size + blocks
    return np.bincount(flat.ravel(), minlength=blocks.shape[0] * size).reshape(-1, size)


def enumerate_typical_set(ch: StateDMC, x_seq, eps: float) -> list[tuple[int, ...]]:
    """Exhaustive, lexicographically sorted typical set for a fixed pilot x^n."""
    if not eps >= 0:    # nan fails this too
        raise InvalidParameter(f"eps must be >= 0, got {eps!r}")
    x_seq = _block(np.asarray(x_seq), ch.input_size, what="input")
    if x_seq.size == 0:
        raise LengthMismatch("sequences must have length >= 1")
    rows = ch.rows
    members = []
    for chunk in chunks(enumerate_blocks(ch.output_size, x_seq.size)):
        typical = np.ones(chunk.shape[0], dtype=bool)
        for x in np.unique(x_seq):
            counts = symbol_counts(chunk[:, x_seq == x], ch.output_size)
            typical &= counts_typical(counts, rows[x], eps)
        members.extend(map(tuple, chunk[typical].tolist()))
    return members
