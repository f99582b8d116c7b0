"""Blahut-Arimoto, kept as an independent reference for the Shannon solves.

The library computes every Shannon capacity with its Frank-Wolfe solver
(`idsense.capacity._shannon`); the tests check it, and the zero-capacity
decision, against this classic iteration.
"""

import numpy as np

from idsense.capacity import MAX_ITERS, TINY, _row_entropies
from idsense.errors import NoConvergence


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
