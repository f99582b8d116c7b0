"""Capacity expressions for the averaged channel.

Deterministic feedback ID capacity is a finite maximization of row
entropies.  Every other capacity maximizes f(P) = H(PW) - sum_x P(x) h(x)
over a polytope, by one pairwise Frank-Wolfe solver with a duality-gap
certificate and closed-form Newton line searches: the randomized ID
capacity (h = 0, the simplex), its distortion-constrained variant (h = 0,
the simplex cut by the budget) and the Shannon capacity (h(x) = H(w_x), so
f = I(P;W) and the gap is Blahut's bound gap).  The Shannon solve takes a
row matrix, so the inner transmission code runs it on its restricted
channel and decides zero capacity on its value, the decision the
capacities' early-stopping guard reaches.  The image-size converse
(`image_size_bound`) solves nothing: it is one formula over a rate the
caller has already computed.  All quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import StateDMC
from .errors import (
    InfeasibleDistortion,
    InvalidParameter,
    NoConvergence,
    ZeroCapacityChannel,
    _integer,
)
from .estimation import DistortionMatrix, _check_distribution, _feasible_inputs

LOG2E = 1.0 / math.log(2.0)
DEFAULT_TOL = 1e-9
MAX_ITERS = 100_000
ZERO_CAPACITY_TOL = 1e-9
TINY = 1e-300                      # floor under log2 of a probability
EPS = float(np.finfo(float).eps)
LINE_SEARCH_ITERS = 100
STALL_ITERS = 50                   # gap stalls this long -> corrective step


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """A distribution over the input alphabet."""

    p: np.ndarray

    def __post_init__(self):
        p = _check_distribution(self.p)
        p.setflags(write=False)
        object.__setattr__(self, "p", p)


@dataclass(frozen=True, eq=False)
class CapacityResult:
    value: float                              # bits per channel use
    maximizer: "int | InputDistribution"
    optimality_gap: float = 0.0
    iterations: int = 0


def entropy(q) -> float:
    """Shannon entropy in bits, with 0 log 0 = 0."""
    return _entropy(_check_distribution(q))


def _entropy(q: np.ndarray) -> float:
    """`entropy` of a vector already known to be a distribution; the solver's sum."""
    pos = q[q > 0]
    return float(-(pos * np.log2(pos)).sum())


def binary_entropy(p: float) -> float:
    return entropy(np.array([p, 1.0 - p]))


def _row_entropies(rows: np.ndarray) -> np.ndarray:
    """H(w_x) of every row, with 0 log 0 = 0."""
    logrows = np.where(rows > 0, np.log2(np.maximum(rows, TINY)), 0.0)
    return -(rows * logrows).sum(axis=1)


def _information(rows: np.ndarray, h: np.ndarray, p: np.ndarray) -> float:
    """I(p; W) = sum_x p(x) D(w_x || pW), where h holds the row entropies."""
    q = p @ rows
    return float(p @ (-(rows @ np.log2(np.maximum(q, TINY))) - h))


# --- the Frank-Wolfe solver ---------------------------------------------------

def _line_search(q: np.ndarray, dq: np.ndarray, c: float, limit: float) -> float:
    """argmax over [0, limit] of phi(g) = H(q + g dq) - c g, given phi'(0) > 0.

    phi is concave, phi'(g) = -dq . log2 q(g) - c (the log2 e term cancels
    as sum(dq) = 0) and phi''(g) = -log2 e * sum dq^2 / q(g).  Newton steps
    on phi' = 0 that leave the root's bracket, or are over half the step
    before last, become bisections; it stops when phi' is rounding noise.
    """
    if -(dq @ np.log2(np.maximum(q + limit * dq, TINY))) - c >= 0.0:
        return limit
    lo, hi = 0.0, limit
    # phi'' is unbounded at 0 when the step brings in an output q lacks
    g = 0.0 if (q[dq != 0] > 0).all() else 0.5 * limit
    step = before = limit
    for _ in range(LINE_SEARCH_ITERS):
        qg = np.maximum(q + g * dq, TINY)
        logq = np.log2(qg)
        d1 = -(dq @ logq) - c
        if abs(d1) <= 64 * EPS * (np.abs(dq) @ np.abs(logq) + abs(c)):
            break
        if d1 > 0:
            lo = g
        else:
            hi = g
        if hi - lo <= 4 * EPS * hi:
            break
        newton = d1 / (LOG2E * (dq * dq / qg).sum())   # = -phi'/phi''
        if lo < g + newton < hi and 2 * abs(newton) <= before:
            before, step = step, abs(newton)
            g += newton
        else:
            before, step = step, 0.5 * (hi - lo)
            g = lo + step
    return g


def _newton_on_face(rows: np.ndarray, verts: np.ndarray, h: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Corrective step: one Newton step in all active vertex weights at once.

    On the active face f(w) = H(wR) - w.c, with R and c the vertices' output
    rows and costs.  The KKT system of the quadratic model on sum(w) = 1 is
    solved by least squares, as the Hessian -log2 e * R diag(1/q) R^T is
    singular when the rows of R are affinely dependent.  The step is capped
    by the ratio test (w >= 0), searched exactly, and kept unless f drops.
    """
    active = np.flatnonzero(weights > 0)
    w = weights[active]
    R, c = verts[active] @ rows, verts[active] @ h
    q = w @ R
    R, q = R[:, q > 0], q[q > 0]
    grad = -(R @ np.log2(q)) - c
    k = active.size
    kkt = np.ones((k + 1, k + 1))
    kkt[:k, :k] = -LOG2E * (R / q) @ R.T
    kkt[k, k] = 0.0
    s = np.linalg.lstsq(kkt, np.append(-grad, 0.0), rcond=None)[0][:k]
    s -= s.mean()
    if grad @ s <= 0.0:
        return weights
    shrinking = np.flatnonzero(s < 0)
    ratios = w[shrinking] / -s[shrinking]
    limit = float(ratios.min())
    t = _line_search(q, s @ R, float(s @ c), limit)
    new = np.clip(w + t * s, 0.0, None)
    if t == limit:
        new[shrinking[np.argmin(ratios)]] = 0.0
    new /= new.sum()
    if _entropy(new @ R) - new @ c < _entropy(w @ R) - w @ c:
        return weights
    out = np.zeros_like(weights)
    out[active] = new
    return out


def _fw_iterates(rows: np.ndarray, verts: np.ndarray, h: np.ndarray,
                 max_iters: int):
    """Yield (p, gap, it) for each iteration of pairwise Frank-Wolfe.

    Maximizes f(P) = H(PW) - P.h over the convex hull of the rows of verts
    from their mean; gap = max_v grad.v - grad.p >= max f - f(p), and f(p)
    never decreases.  A step moves mass from the worst active vertex to the
    best one (exact line search; a dropped vertex gets weight exactly 0).
    After STALL_ITERS iterations without progress on the gap, a Newton step
    on the active face is taken instead.
    """
    weights = np.full(len(verts), 1.0 / len(verts))
    best_gap, stall = math.inf, 0
    for it in range(max_iters):
        p = weights @ verts
        q = p @ rows
        grad = -(rows @ np.log2(np.maximum(q, TINY))) - h
        scores = verts @ grad
        fw = int(np.argmax(scores))
        gap = float(scores[fw] - grad @ p)
        yield p, gap, it
        if gap < 0.9 * best_gap:
            best_gap, stall = gap, 0
        else:
            stall += 1
        if stall >= STALL_ITERS:
            weights = _newton_on_face(rows, verts, h, weights)
            best_gap, stall = math.inf, 0
            continue
        active = np.flatnonzero(weights > 0)
        away = int(active[np.argmin(scores[active])])
        direction = verts[fw] - verts[away]
        limit = float(weights[away])
        gamma = _line_search(q, direction @ rows, float(direction @ h), limit)
        weights[fw] += gamma
        weights[away] = 0.0 if gamma == limit else weights[away] - gamma
        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum()


def _frank_wolfe(rows: np.ndarray, verts: np.ndarray, h: np.ndarray,
                 tol: float) -> tuple[np.ndarray, float, int]:
    """(maximizer, certified gap <= tol, iterations) of `_fw_iterates`."""
    for p, gap, it in _fw_iterates(rows, verts, h, MAX_ITERS):
        if gap <= tol:
            return p, max(gap, 0.0), it
    raise NoConvergence(MAX_ITERS, gap=gap)


def _max_mixture_entropy(rows: np.ndarray, verts: np.ndarray) -> CapacityResult:
    """max of H(PW) over the convex hull of verts, with its certificate."""
    p, gap, it = _frank_wolfe(rows, verts, np.zeros(rows.shape[0]), DEFAULT_TOL)
    return CapacityResult(value=_entropy(p @ rows), maximizer=InputDistribution(p=p),
                          optimality_gap=gap, iterations=it)


# --- Shannon capacity --------------------------------------------------------

def _shannon(rows: np.ndarray, tol: float = DEFAULT_TOL) -> CapacityResult:
    """max_P I(P;W) over the inputs of `rows`, with Blahut's certified bound gap.

    Frank-Wolfe maximizes I(P;W) = H(PW) - sum_x P(x) H(w_x); its gap
    max_x D(w_x || PW) - I(P;W) is at most tol.  It serves the averaged
    channel and the inner code's restricted one alike.
    """
    h = _row_entropies(rows)
    p, gap, it = _frank_wolfe(rows, np.eye(len(rows)), h, tol)
    value = max(_information(rows, h, p), 0.0) if len(rows) > 1 else 0.0
    return CapacityResult(value=value, maximizer=InputDistribution(p=p),
                          optimality_gap=gap, iterations=it)


def shannon_capacity_avg(ch: StateDMC, tol: float = DEFAULT_TOL) -> CapacityResult:
    """Shannon capacity of the averaged channel, the transmission baseline.

    It is not an ID capacity: with feedback the randomized ID capacity is
    max_P H(PW) (`rand_feedback_capacity`), 1.0 on FlipBSC against 0.531.
    """
    if not tol > 0:
        raise InvalidParameter(f"tol must be > 0, got {tol!r}")
    return _shannon(ch.rows, tol)


def _require_positive_capacity(rows: np.ndarray):
    """Raise ZeroCapacityChannel unless C(rows) exceeds ZERO_CAPACITY_TOL.

    The decision of the four capacities on the averaged channel (a single
    input has C = 0).  The Shannon solve runs only until its bounds decide,
    lower = I(p; W) and upper = lower + gap: lower > tol is positive, upper
    <= tol is zero, and once gap <= tol (where a full solve would stop)
    lower <= tol is zero.  Since lower never decreases, this is the decision
    of a full solve, the inner code's test, reached earlier.
    """
    if rows.shape[0] > 1:
        h = _row_entropies(rows)
        for p, gap, _ in _fw_iterates(rows, np.eye(len(rows)), h, MAX_ITERS):
            lower = _information(rows, h, p)
            if lower > ZERO_CAPACITY_TOL:
                return
            if lower + gap <= ZERO_CAPACITY_TOL or gap <= ZERO_CAPACITY_TOL:
                break
        else:
            raise NoConvergence(MAX_ITERS, gap=gap)
    raise ZeroCapacityChannel("averaged channel has zero Shannon capacity")


# --- feedback ID capacities --------------------------------------------------

def _best_row(rows: np.ndarray, inputs) -> CapacityResult:
    """The input among `inputs` whose averaged row has the largest entropy (first on ties)."""
    entropies = [entropy(rows[x]) for x in inputs]
    best = int(np.argmax(entropies))
    return CapacityResult(value=entropies[best], maximizer=int(inputs[best]))


def det_feedback_capacity(ch: StateDMC) -> CapacityResult:
    """max_x H of the averaged row; requires positive Shannon capacity."""
    _require_positive_capacity(ch.rows)
    return _best_row(ch.rows, range(ch.input_size))


def rand_feedback_capacity(ch: StateDMC) -> CapacityResult:
    """max_P H(sum_x P(x) q_x); requires positive Shannon capacity."""
    _require_positive_capacity(ch.rows)
    return _max_mixture_entropy(ch.rows, np.eye(ch.input_size))


# --- capacity-distortion functions ------------------------------------------

def det_capacity_distortion(ch: StateDMC, dist: DistortionMatrix,
                            budget: float) -> CapacityResult:
    """max over budget-feasible inputs of the averaged-row entropy."""
    _, feasible = _feasible_inputs(ch, dist, budget)
    _require_positive_capacity(ch.rows)
    return _best_row(ch.rows, feasible)


def _constrained_vertices(profile: np.ndarray, budget: float,
                          feasible: np.ndarray) -> np.ndarray:
    """Vertices of the simplex cut by sum_x P(x) d*(x) <= D."""
    nx = profile.size
    infeasible = np.delete(np.arange(nx), feasible)
    vertices = []
    for x in feasible:
        v = np.zeros(nx)
        v[x] = 1.0
        vertices.append(v)
    for x in feasible:
        for xp in infeasible:
            lam = (budget - profile[x]) / (profile[xp] - profile[x])
            lam = min(max(lam, 0.0), 1.0)
            v = np.zeros(nx)
            v[x] = 1.0 - lam
            v[xp] = lam
            vertices.append(v)
    return np.array(vertices)


def rand_capacity_distortion(ch: StateDMC, dist: DistortionMatrix,
                             budget: float) -> CapacityResult:
    """max_{P : d*(P) <= D} of the output-mixture entropy."""
    profile, feasible = _feasible_inputs(ch, dist, budget)
    _require_positive_capacity(ch.rows)
    return _max_mixture_entropy(ch.rows, _constrained_vertices(profile, budget, feasible))


def _capacity_distortion(mode: str):
    """The capacity-distortion function of a code mode, "det" or "rand"; the one mode check."""
    if mode not in ("det", "rand"):
        raise InvalidParameter(f"unknown mode {mode!r}")
    return det_capacity_distortion if mode == "det" else rand_capacity_distortion


def tradeoff_curve(ch: StateDMC, dist: DistortionMatrix, budgets, mode: str) -> list[dict]:
    """Pointwise capacity-distortion curve; infeasible points flagged, never interpolated."""
    solve = _capacity_distortion(mode)
    points = []
    for budget in budgets:
        try:
            value = solve(ch, dist, budget).value
            points.append({"D": float(budget), "feasible": True, "value": value})
        except InfeasibleDistortion:
            points.append({"D": float(budget), "feasible": False, "value": None})
    return points


# --- image-size (converse) bounds -------------------------------------------

def image_size_bound(n: int, mu: float, output_size: int, rate: float) -> float:
    """log2 of the image-size cap n * rate + alpha * sqrt(n), alpha = sqrt(beta / mu).

    beta = max(log2(3)^2, log2(|Y|)^2).  The converse caps det_f, rand_f
    and their distortion-constrained values alike (K1-K4); the caller passes
    whichever of those rates it has computed.
    """
    n, output_size = _integer("n", n, 0), _integer("output_size", output_size, 1)
    if not 0.0 < mu < 1.0:
        raise InvalidParameter("mu must lie in (0, 1)")
    if not 0.0 <= rate < math.inf:    # nan fails this too; -0.0 passes
        raise InvalidParameter(f"rate must be finite and >= 0, got {rate!r}")
    beta = max(math.log2(3.0) ** 2, math.log2(output_size) ** 2)
    return n * rate + math.sqrt(beta / mu) * math.sqrt(n)


def rate_of_code(num_identities: int, blocklength: int) -> float:
    """ID rate log2(log2 N) / m."""
    return (math.log2(math.log2(_integer("num_identities", num_identities, 2)))
            / _integer("blocklength", blocklength, 1))
