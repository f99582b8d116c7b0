"""Independent references the tests hold the library to.

Blahut-Arimoto checks the library's Frank-Wolfe Shannon solver
(`idsense.capacity._shannon`) and the zero-capacity decision.  The sequence
likelihood, the conditional-type typicality test and the state posterior
are the textbook definitions, one block or one symbol pair at a time; the
exact oracles, the typical-set enumeration and the distortion profile are
checked against them.
"""

import numpy as np

from idsense.capacity import MAX_ITERS, TINY, _row_entropies
from idsense.errors import NoConvergence
from idsense.typicality import counts_typical


def blahut_arimoto(rows: np.ndarray, tol: float = 1e-9,
                   max_iters: int = MAX_ITERS) -> tuple[float, np.ndarray, int]:
    """Return (capacity bits, optimal input distribution, iterations).

    Blahut's iteration, the reference of the library's Frank-Wolfe Shannon
    solve and zero-capacity guard; it terminates when the bounds
    I(r; W) <= C <= max_x D(w_x || rW) differ by at most tol.
    """
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] == 1:
        return 0.0, np.ones(1), 0
    row_neg_entropy = -_row_entropies(rows)
    r = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for it in range(1, max_iters + 1):
        q = r @ rows
        # D(rows[x] || q) per input; rows[x,y] > 0 with q[y] = 0 cannot happen
        # once r is strictly positive, which the multiplicative update keeps.
        logq = np.where(q > 0, np.log2(np.maximum(q, TINY)), 0.0)
        div = row_neg_entropy - rows @ logq
        lower, upper = float(r @ div), float(div.max())
        if upper - lower <= tol:
            return max(lower, 0.0), r, it
        r = r * np.exp2(div - div.max())
        r /= r.sum()
    raise NoConvergence(max_iters, gap=upper - lower)


def sequence_likelihood(ch, x_seq, y_seq) -> float:
    """W^n(y^n|x^n) on the averaged rows, summed in log2; 0 for an impossible block."""
    probs = ch.rows[np.asarray(x_seq, dtype=np.int64), np.asarray(y_seq, dtype=np.int64)]
    if (probs == 0).any():
        return 0.0
    return 2.0 ** float(np.sum(np.log2(probs)))


def typical_membership(ch, x_seq, y_seq, eps: float) -> bool:
    """Whether the conditional type of y^n given x^n lies in the closed ball:
    the joint counts N(x, y) of every input row pass `counts_typical`."""
    counts = np.zeros((ch.input_size, ch.output_size), dtype=np.int64)
    np.add.at(counts, (np.asarray(x_seq, dtype=np.int64), np.asarray(y_seq, dtype=np.int64)), 1)
    return bool(counts_typical(counts, ch.rows, eps).all())


def posterior_state(ch, x: int, y: int) -> np.ndarray:
    """P(s | x, y) by Bayes over the state prior, for a pair of positive probability."""
    joint = ch.state_prior * ch.kernel[x, :, y]
    return joint / joint.sum()
