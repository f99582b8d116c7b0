"""The benchmark's own computations, made apart from idsense.

Every workload check compares a library output with a value computed here
from the raw kernel, prior, distortion matrix and code parameters, or with a
property the method must have.  Nothing here imports idsense: the checks
must not share the code they check.  The one library object read is the
decoder table a code carries (`log_table`), because it defines the code.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction
from itertools import product

import numpy as np

FEASIBILITY_SLACK = 1e-12   # a budget D admits d*(x) <= D + slack
CERT_TOL = 1e-7             # bits: a duality gap this small certifies a maximum
BAND_Z = 6.0                # standard errors in a Monte Carlo band


class CheckFailed(Exception):
    """A library output disagrees with the benchmark's own computation."""


def require(cond, message: str):
    if not cond:
        raise CheckFailed(message)


# --- channels ----------------------------------------------------------------

def random_kernel(rng: np.random.Generator, nx: int, ny: int, ns: int):
    """Dirichlet rows, then a Dirichlet prior: kernel[x, s, y], prior[s]."""
    kernel = rng.dirichlet(np.ones(ny), size=(nx, ns))
    prior = rng.dirichlet(np.ones(ns))
    return kernel, prior


def hamming(ns: int) -> np.ndarray:
    return 1.0 - np.eye(ns)


def averaged_rows(kernel, prior) -> np.ndarray:
    """w[x, y] = sum_s prior[s] kernel[x, s, y]."""
    kernel = np.asarray(kernel, dtype=float)
    return (np.asarray(prior, dtype=float)[None, :, None] * kernel).sum(axis=1)


def entropy_bits(q) -> float:
    q = np.asarray(q, dtype=float)
    pos = q[q > 0]
    return float(-(pos * np.log2(pos)).sum())


def binary_entropy(p: float) -> float:
    return entropy_bits([p, 1.0 - p])


# --- estimation --------------------------------------------------------------

def posterior_costs(kernel, prior, d) -> np.ndarray:
    """cost[x, y, t] = sum_s prior[s] kernel[x, s, y] d[s, t]."""
    kernel = np.asarray(kernel, dtype=float)
    joint = np.asarray(prior, dtype=float)[None, :, None] * kernel      # (X, S, Y)
    return (joint[:, :, :, None] * np.asarray(d, dtype=float)[None, :, None, :]).sum(axis=1)


def dstar(kernel, prior, d) -> np.ndarray:
    """d*(x) = sum_y min_t cost[x, y, t]."""
    return posterior_costs(kernel, prior, d).min(axis=2).sum(axis=1)


def estimator(kernel, prior, d):
    """(table, decided): the lowest-index minimizer, and where it is strict.

    Unreachable pairs (w(y|x) = 0) map to state 0.  `decided` is False where
    two reconstructions tie within rounding, so either choice is optimal.
    """
    cost = posterior_costs(kernel, prior, d)
    table = np.argmin(cost, axis=2)
    reachable = averaged_rows(kernel, prior) > 0
    table = np.where(reachable, table, 0)
    if cost.shape[2] == 1:
        return table, np.ones(table.shape, dtype=bool)
    srt = np.sort(cost, axis=2)
    return table, ~reachable | (srt[:, :, 1] - srt[:, :, 0] > 1e-12)


def feasible(profile, budget: float) -> np.ndarray:
    return np.flatnonzero(np.asarray(profile) <= budget + FEASIBILITY_SLACK)


def table_profile(kernel, prior, d, table) -> np.ndarray:
    """Per-input expected distortion of a given estimator table."""
    cost = posterior_costs(kernel, prior, d)
    nx, ny = table.shape
    return np.array([sum(cost[x, y, table[x, y]] for y in range(ny)) for x in range(nx)])


# --- capacities --------------------------------------------------------------

def det_value(rows, profile, budget: float) -> float:
    """max of H(w_x) over budget-feasible x."""
    feas = feasible(profile, budget)
    require(feas.size > 0, f"budget {budget} admits no input")
    return max(entropy_bits(rows[x]) for x in feas)


def mixture_grad(rows, p) -> np.ndarray:
    """Gradient of H(pW) in bits."""
    q = np.asarray(p) @ rows
    return -(rows @ np.log2(np.maximum(q, 1e-300))) - 1.0 / math.log(2.0)


def polytope_vertices(profile, budget: float | None) -> np.ndarray:
    """Vertices of the simplex cut by p . d* <= D (the whole simplex if D is None)."""
    nx = len(profile)
    if budget is None:
        return np.eye(nx)
    feas = feasible(profile, budget)
    infeas = np.setdiff1d(np.arange(nx), feas)
    verts = [np.eye(nx)[x] for x in feas]
    for x in feas:
        for xp in infeas:
            lam = (budget - profile[x]) / (profile[xp] - profile[x])
            v = np.zeros(nx)
            v[x], v[xp] = 1.0 - lam, lam
            verts.append(v)
    return np.array(verts)


def fw_gap(rows, p, vertices) -> float:
    """Frank-Wolfe duality gap: max_v g.(v - p) >= max H - H(pW) by concavity."""
    g = mixture_grad(rows, p)
    return float((vertices @ g).max() - g @ p)


def check_rand(rows, profile, budget: float | None, value: float, p) -> float:
    """Check a randomized capacity result; return the certified gap."""
    p = np.asarray(p, dtype=float)
    require(p.shape == (rows.shape[0],), f"maximizer has shape {p.shape}")
    require((p >= -1e-12).all() and abs(p.sum() - 1.0) <= 1e-9, "maximizer is off the simplex")
    if budget is not None:
        require(float(p @ profile) <= budget + 1e-9,
                f"maximizer distortion {float(p @ profile)!r} exceeds budget {budget!r}")
    own = entropy_bits(p @ rows)
    require(abs(value - own) <= 1e-12, f"value {value!r} is not H(PW) = {own!r}")
    gap = fw_gap(rows, p, polytope_vertices(profile, budget))
    require(gap <= CERT_TOL, f"certificate gap {gap:.3e} at the maximizer")
    return max(gap, 0.0)


def check_det(rows, profile, budget: float, value: float, x) -> None:
    own = det_value(rows, profile, budget)
    require(abs(value - own) <= 1e-12, f"det value {value!r}, own {own!r}")
    require(int(x) in set(feasible(profile, budget).tolist()), f"maximizer {x} is over budget")
    require(abs(entropy_bits(rows[int(x)]) - value) <= 1e-12, "maximizer does not attain the value")


def check_shannon(rows, value: float, p) -> float:
    """Blahut's bounds at p: I(p;W) <= C <= max_x D(w_x || pW).  Returns the gap."""
    p = np.asarray(p, dtype=float)
    require((p >= -1e-12).all() and abs(p.sum() - 1.0) <= 1e-9, "maximizer is off the simplex")
    q = p @ rows
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(rows > 0, rows * np.log2(rows / np.maximum(q, 1e-300)), 0.0)
    div = terms.sum(axis=1)
    lower, upper = float(p @ div), float(div.max())
    require(abs(value - max(lower, 0.0)) <= 1e-9, f"Shannon value {value!r}, I(p;W) {lower!r}")
    require(upper - value <= CERT_TOL, f"Shannon upper bound {upper!r} above {value!r}")
    return max(upper - value, 0.0)


def ascent(rows, iters: int = 2000) -> np.ndarray:
    """An input law near argmax H(pW), by exponentiated gradient ascent."""
    p = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for _ in range(iters):
        g = mixture_grad(rows, p)
        p = p * np.exp2(g - g.max())
        p /= p.sum()
    return p


def grid_point(p, resolution: int) -> np.ndarray:
    """The composition of `resolution` nearest p (largest remainder), as a law."""
    scaled = np.asarray(p) * resolution
    counts = np.floor(scaled).astype(int)
    order = np.argsort(-(scaled - counts), kind="stable")
    counts[order[:resolution - counts.sum()]] += 1
    return counts / resolution


def grid_bounds(rows, resolution: int) -> tuple[float, float]:
    """(a grid value, a certified upper bound on max H(pW)) for a grid oracle."""
    p = ascent(rows)
    lower = entropy_bits(grid_point(p, resolution) @ rows)
    upper = entropy_bits(p @ rows) + fw_gap(rows, p, np.eye(rows.shape[0]))
    return lower, upper


def image_size_k1(rows, n: int, mu: float, ny: int) -> float:
    beta = max(math.log2(3.0) ** 2, math.log2(ny) ** 2)
    return n * max(entropy_bits(r) for r in rows) + math.sqrt(beta / mu) * math.sqrt(n)


# --- typicality, decided on counts in rational arithmetic --------------------

def exact(v) -> Fraction:
    """The decimal a float prints as, exactly (0.9 stays 9/10)."""
    return Fraction(repr(float(v)))


def exact_rows(kernel, prior) -> list[list[Fraction]]:
    kernel = np.asarray(kernel, dtype=float)
    pr = [exact(v) for v in prior]
    return [[sum(pr[s] * exact(kernel[x, s, y]) for s in range(len(pr)))
             for y in range(kernel.shape[2])] for x in range(kernel.shape[0])]


def counts_typical(counts, row, eps) -> bool:
    """|N(y) - n w(y)| <= n eps for every y, with n = sum N, exactly."""
    n = sum(counts)
    eps = eps if isinstance(eps, Fraction) else exact(eps)
    return all(abs(c - n * w) <= n * eps for c, w in zip(counts, row))


def compositions(n: int, k: int):
    """All count vectors of k nonnegative integers summing to n."""
    if k == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, k - 1):
            yield (first,) + rest


def multinomial(counts) -> int:
    out, total = 1, 0
    for c in counts:
        total += c
        out *= math.comb(total, c)
    return out


def typical_set_stats(x_seq, rows_exact, rows_float, eps) -> tuple[int, float]:
    """(size, mass) of {y^n : counts typical on every input present in x^n}.

    The set is a product over inputs, so both are products of multinomial sums
    over the count vectors of each input's positions.
    """
    size, mass = 1, 1.0
    ny = len(rows_float[0])
    for x in sorted(set(int(v) for v in x_seq)):
        nx = sum(1 for v in x_seq if int(v) == x)
        s_x, m_x = 0, 0.0
        for counts in compositions(nx, ny):
            if counts_typical(counts, rows_exact[x], eps):
                mult = multinomial(counts)
                s_x += mult
                m_x += mult * float(np.prod([rows_float[x][y] ** c for y, c in enumerate(counts)]))
        size *= s_x
        mass *= m_x
    return size, mass


# --- coloring and exact error probabilities ----------------------------------

def color(master_seed: int, color_count: int, identity: int, block) -> int:
    """The keyed BLAKE2b coloring in {1..M}, with rejection of the modulo bias."""
    key = (master_seed & 0xFFFFFFFFFFFFFFFF).to_bytes(8, "little")
    ident = identity.to_bytes(max(1, (identity.bit_length() + 7) // 8), "big")
    payload = bytes(int(y) for y in block)
    bound = (2 ** 64 // color_count) * color_count
    counter = 0
    while True:
        h = hashlib.blake2b(digest_size=8, key=key)
        h.update(len(ident).to_bytes(4, "big"))
        h.update(ident)
        h.update(counter.to_bytes(4, "big"))
        h.update(payload)
        value = int.from_bytes(h.digest(), "big")
        if value < bound:
            return value % color_count + 1
        counter += 1


def inner_confusion(log_table) -> np.ndarray:
    """A[j, j'] = P(ML decode j' | codeword j), over every tail, ties to the lowest j'."""
    m_count, k, ny = log_table.shape
    tails = np.array(list(product(range(ny), repeat=k)), dtype=np.int64)
    loglik = np.zeros((m_count, tails.shape[0]))
    for t in range(k):
        loglik += log_table[:, t, tails[:, t]]
    decoded = np.argmax(loglik, axis=0)
    lik = np.exp2(loglik)
    return np.stack([lik[:, decoded == jp].sum(axis=1) for jp in range(m_count)], axis=1)


def exact_lambdas(n: int, ny: int, row_exact, row_float, eps, master_seed: int,
                  color_count: int, log_table, identities, pairs) -> dict:
    """Exact lambda1 per identity and lambda2 per ordered pair of a pilot+color code.

    Enumerates every pilot block, decides typicality on its counts exactly,
    colors typical blocks with `color` and sums the confusion of the inner code.
    """
    blocks = np.array(list(product(range(ny), repeat=n)), dtype=np.int64)
    counts = np.stack([(blocks == y).sum(axis=1) for y in range(ny)], axis=1)
    verdict = {c: counts_typical(c, row_exact, eps) for c in set(map(tuple, counts.tolist()))}
    typical = np.array([verdict[tuple(c)] for c in counts.tolist()])
    prob = np.prod(np.asarray(row_float)[blocks], axis=1)
    confusion = inner_confusion(log_table)
    lam1 = {i: 0.0 for i in identities}
    lam2 = {(a, b): 0.0 for a, b in pairs if a != b}
    for block, pr in zip(blocks[typical].tolist(), prob[typical].tolist()):
        colors = {i: color(master_seed, color_count, i, block) for i in identities}
        for i in identities:
            lam1[i] += pr * (1.0 - confusion[colors[i] - 1, colors[i] - 1])
        for a, b in lam2:
            lam2[(a, b)] += pr * confusion[colors[a] - 1, colors[b] - 1]
    atypical = float(prob[~typical].sum())
    return {"lambda1": {i: v + atypical for i, v in lam1.items()}, "lambda2": lam2,
            "atypical_mass": atypical, "typical_blocks": int(typical.sum())}


def rate_in_band(hat: float, p: float, trials: int, z: float = BAND_Z) -> bool:
    """Bernstein band: |p_hat - p| <= z sqrt(p(1-p)/T) + z^2/(3T)."""
    return abs(hat - p) <= z * math.sqrt(max(p * (1.0 - p), 0.0) / trials) + z * z / (3.0 * trials)
