"""Capacity expressions for the averaged channel.

Deterministic feedback ID capacity is a finite maximization of row
entropies; the randomized variant maximizes the output-mixture entropy over
the input simplex (optionally cut by one linear distortion constraint) with
a conditional-gradient method; the Shannon baseline uses Blahut-Arimoto.
All quantities are in bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize, minimize_scalar

from .channel import AveragedDMC, StateDMC, averaged_channel
from .errors import (
    DegenerateCode,
    InfeasibleDistortion,
    NoConvergence,
    NotADistribution,
    ZeroCapacityChannel,
)
from .estimation import (
    FEASIBILITY_TOL,
    DistortionMatrix,
    _check_distribution,
    distortion_profile,
)

LOG2E = 1.0 / math.log(2.0)
DEFAULT_TOL = 1e-9
MAX_ITERS = 100_000
ZERO_CAPACITY_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class InputDistribution:
    """A distribution over the input alphabet."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=float)
        if p.ndim != 1:
            raise NotADistribution("input distribution must be a vector")
        if (p < -1e-9).any() or (p > 1 + 1e-9).any() or abs(p.sum() - 1.0) > 1e-9:
            raise NotADistribution("vector is not on the probability simplex")
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
    q = np.asarray(q, dtype=float)
    if (q < -1e-9).any() or abs(q.sum() - 1.0) > 1e-9:
        raise NotADistribution("vector is not on the probability simplex")
    pos = q[q > 0]
    return float(-(pos * np.log2(pos)).sum())


def binary_entropy(p: float) -> float:
    return entropy(np.array([p, 1.0 - p]))


# --- Shannon capacity of the averaged channel (Blahut-Arimoto) ---------------

def _ba_iterates(rows: np.ndarray, max_iters: int):
    """Yield (lower, upper, r, it) for each Blahut-Arimoto iteration.

    lower = I(r; W) and upper = max_x D(w_x || rW) bracket the capacity at
    every iteration, and lower never decreases.  rows must have >= 2 inputs.
    """
    logrows = np.where(rows > 0, np.log2(np.maximum(rows, 1e-300)), 0.0)
    row_neg_entropy = (rows * logrows).sum(axis=1)
    r = np.full(rows.shape[0], 1.0 / rows.shape[0])
    for it in range(1, max_iters + 1):
        q = r @ rows
        # D(rows[x] || q) per input; rows[x,y] > 0 with q[y] = 0 cannot happen
        # once r is strictly positive, which the multiplicative update keeps.
        logq = np.where(q > 0, np.log2(np.maximum(q, 1e-300)), 0.0)
        div = row_neg_entropy - rows @ logq
        yield float(r @ div), float(div.max()), r, it
        r = r * np.exp2(div - div.max())
        r /= r.sum()


def _ba_solve(rows: np.ndarray, tol: float,
              max_iters: int) -> tuple[float, np.ndarray, int, float]:
    """(capacity, input distribution, iterations, upper - lower at exit)."""
    rows = np.asarray(rows, dtype=float)
    if rows.shape[0] == 1:
        return 0.0, np.ones(1), 0, 0.0
    for lower, upper, r, it in _ba_iterates(rows, max_iters):
        if upper - lower <= tol:
            return max(lower, 0.0), r, it, max(upper - lower, 0.0)
    raise NoConvergence(max_iters, gap=upper - lower)


def blahut_arimoto(rows: np.ndarray, tol: float = 1e-9,
                   max_iters: int = MAX_ITERS) -> tuple[float, np.ndarray, int]:
    """Return (capacity bits, optimal input distribution, iterations).

    Terminates when the standard upper and lower capacity bounds differ by
    at most tol.
    """
    value, r, it, _ = _ba_solve(rows, tol, max_iters)
    return value, r, it


def shannon_capacity_avg(ch: StateDMC, tol: float = 1e-9) -> CapacityResult:
    """Shannon capacity of the averaged channel, the transmission baseline.

    It is not an ID capacity: with feedback the randomized ID capacity is
    max_P H(PW) (`rand_feedback_capacity`), 1.0 on FlipBSC against 0.531.
    optimality_gap is the certified gap upper - lower at exit, at most tol.
    """
    value, r, it, gap = _ba_solve(averaged_channel(ch).rows, tol, MAX_ITERS)
    return CapacityResult(value=value, maximizer=InputDistribution(p=r),
                          optimality_gap=gap, iterations=it)


def _require_positive_capacity(ch: StateDMC):
    """Raise ZeroCapacityChannel unless the Shannon capacity exceeds ZERO_CAPACITY_TOL.

    Blahut-Arimoto runs only until its bounds decide: lower > tol is
    positive, upper <= tol is zero, and once upper - lower <= tol (where a
    full solve would stop) lower <= tol is zero.  Since lower never
    decreases, this is the decision of a full solve, reached earlier.
    """
    rows = averaged_channel(ch).rows
    if rows.shape[0] > 1:
        for lower, upper, _, _ in _ba_iterates(rows, MAX_ITERS):
            if lower > ZERO_CAPACITY_TOL:
                return
            if upper <= ZERO_CAPACITY_TOL or upper - lower <= ZERO_CAPACITY_TOL:
                break
        else:
            raise NoConvergence(MAX_ITERS, gap=upper - lower)
    raise ZeroCapacityChannel("averaged channel has zero Shannon capacity")


# --- feedback ID capacities --------------------------------------------------

def det_feedback_capacity(ch: StateDMC) -> CapacityResult:
    """max_x H of the averaged row; requires positive Shannon capacity."""
    _require_positive_capacity(ch)
    rows = averaged_channel(ch).rows
    entropies = [entropy(row) for row in rows]
    best = int(np.argmax(entropies))
    return CapacityResult(value=entropies[best], maximizer=best)


def _mixture_entropy(rows: np.ndarray, p: np.ndarray) -> float:
    q = p @ rows
    pos = q > 0
    return float(-(q[pos] * np.log2(q[pos])).sum())


def _mixture_grad(rows: np.ndarray, p: np.ndarray) -> np.ndarray:
    q = p @ rows
    logq = np.log2(np.maximum(q, 1e-300))
    return -(rows @ logq) - LOG2E


def _polish_weights(rows: np.ndarray, verts: np.ndarray,
                    weights: np.ndarray) -> np.ndarray:
    """Fully corrective step: re-optimize all vertex weights at once."""

    def neg(w):
        return -_mixture_entropy(rows, w @ verts)

    def jac(w):
        return -(verts @ _mixture_grad(rows, w @ verts))

    res = minimize(neg, weights, jac=jac, method="SLSQP",
                   bounds=[(0.0, 1.0)] * len(weights),
                   constraints=[{"type": "eq", "fun": lambda w: w.sum() - 1.0,
                                 "jac": lambda w: np.ones_like(w)}],
                   options={"ftol": 1e-18, "maxiter": 1000})
    w = np.clip(res.x, 0.0, None)
    w /= w.sum()
    if neg(w) <= neg(weights):
        return w
    return weights


def _frank_wolfe(rows: np.ndarray, vertices: list[np.ndarray], tol: float,
                 max_iters: int) -> tuple[np.ndarray, float, int]:
    """Maximize the output-mixture entropy by conditional gradient.

    The feasible polytope is the convex hull of the given vertices.  Pairwise
    steps (mass moved from the worst active vertex to the best vertex, with
    an exact line search) avoid the zig-zagging that stalls plain conditional
    gradient; if progress on the duality-gap certificate still stagnates, a
    fully corrective re-solve over all vertex weights finishes the job.
    """
    verts = np.array(vertices, dtype=float)
    weights = np.full(len(verts), 1.0 / len(verts))
    gap = 0.0
    best_gap = math.inf
    stall = 0
    for it in range(max_iters):
        p = weights @ verts
        grad = _mixture_grad(rows, p)
        scores = verts @ grad
        fw = int(np.argmax(scores))
        gap = float(scores[fw] - grad @ p)
        if gap <= tol:
            return p, max(gap, 0.0), it
        if gap < 0.9 * best_gap:
            best_gap, stall = gap, 0
        else:
            stall += 1
        if stall >= 50:
            weights = _polish_weights(rows, verts, weights)
            best_gap, stall = math.inf, 0
            continue
        active = np.flatnonzero(weights > 0)
        away = int(active[np.argmin(scores[active])])
        direction = verts[fw] - verts[away]
        limit = float(weights[away])

        def neg_obj(gamma):
            return -_mixture_entropy(rows, p + gamma * direction)

        res = minimize_scalar(neg_obj, bounds=(0.0, limit), method="bounded",
                              options={"xatol": 1e-16})
        gamma = min(max(float(res.x), 0.0), limit)
        if neg_obj(limit) <= res.fun:
            gamma = limit  # dropping the away vertex entirely is best
        weights[fw] += gamma
        weights[away] -= gamma
        weights = np.clip(weights, 0.0, None)
        weights /= weights.sum()
    raise NoConvergence(max_iters, gap=gap)


def rand_feedback_capacity(ch: StateDMC, tol: float = DEFAULT_TOL) -> CapacityResult:
    """max_P H(sum_x P(x) q_x); requires positive Shannon capacity."""
    rows = averaged_channel(ch).rows
    nx = rows.shape[0]
    if nx == 1:
        # singleton simplex: the maximization is exact and needs no hypothesis
        return CapacityResult(value=entropy(rows[0]),
                              maximizer=InputDistribution(p=np.ones(1)))
    _require_positive_capacity(ch)
    vertices = [row for row in np.eye(nx)]
    p, gap, it = _frank_wolfe(rows, vertices, tol, MAX_ITERS)
    return CapacityResult(value=_mixture_entropy(rows, p),
                          maximizer=InputDistribution(p=p),
                          optimality_gap=gap, iterations=it)


# --- capacity-distortion functions ------------------------------------------

def det_capacity_distortion(ch: StateDMC, dist: DistortionMatrix,
                            budget: float) -> CapacityResult:
    """max over budget-feasible inputs of the averaged-row entropy."""
    profile = distortion_profile(ch, dist).per_input
    feasible = np.flatnonzero(profile <= budget + FEASIBILITY_TOL)
    if feasible.size == 0:
        raise InfeasibleDistortion(budget, min_feasible=float(profile.min()))
    _require_positive_capacity(ch)
    rows = averaged_channel(ch).rows
    entropies = [entropy(rows[x]) for x in feasible]
    best = int(feasible[int(np.argmax(entropies))])
    return CapacityResult(value=float(np.max(entropies)), maximizer=best)


def _constrained_vertices(profile: np.ndarray, budget: float) -> list[np.ndarray]:
    """Vertices of the simplex cut by sum_x P(x) d*(x) <= D."""
    nx = profile.size
    feasible = np.flatnonzero(profile <= budget + FEASIBILITY_TOL)
    infeasible = np.flatnonzero(profile > budget + FEASIBILITY_TOL)
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
    return vertices


def rand_capacity_distortion(ch: StateDMC, dist: DistortionMatrix, budget: float,
                             tol: float = DEFAULT_TOL) -> CapacityResult:
    """max_{P : d*(P) <= D} of the output-mixture entropy."""
    profile = distortion_profile(ch, dist).per_input
    feasible = np.flatnonzero(profile <= budget + FEASIBILITY_TOL)
    if feasible.size == 0:
        raise InfeasibleDistortion(budget, min_feasible=float(profile.min()))
    _require_positive_capacity(ch)
    rows = averaged_channel(ch).rows
    vertices = _constrained_vertices(profile, budget)
    p, gap, it = _frank_wolfe(rows, vertices, tol, MAX_ITERS)
    return CapacityResult(value=_mixture_entropy(rows, p),
                          maximizer=InputDistribution(p=p),
                          optimality_gap=gap, iterations=it)


def tradeoff_curve(ch: StateDMC, dist: DistortionMatrix, budgets, mode: str,
                   tol: float = DEFAULT_TOL) -> list[dict]:
    """Pointwise capacity-distortion curve; infeasible points flagged, never interpolated."""
    if mode not in ("det", "rand"):
        raise ValueError(f"unknown mode {mode!r}")
    points = []
    for budget in budgets:
        try:
            if mode == "det":
                res = det_capacity_distortion(ch, dist, budget)
            else:
                res = rand_capacity_distortion(ch, dist, budget, tol=tol)
            points.append({"D": float(budget), "feasible": True, "value": res.value})
        except InfeasibleDistortion:
            points.append({"D": float(budget), "feasible": False, "value": None})
    return points


# --- image-size (converse) bounds -------------------------------------------

@dataclass(frozen=True)
class BoundParams:
    """Parameters of the image-size bounds K1-K4 (log2 scale)."""

    n: int
    mu: float
    lam: float = 0.25
    eps: float = 0.1
    delta: float = 0.0
    delta_prime: float = 0.0
    beta: float = field(default=0.0)
    alpha: float = field(default=0.0)
    output_size: int = 2

    def __post_init__(self):
        if not 0.0 < self.mu < 1.0:
            raise ValueError("mu must lie in (0, 1)")
        if not 0.0 < self.lam < 0.5:
            raise ValueError("lambda must lie in (0, 0.5)")
        beta = max(math.log2(3.0) ** 2, math.log2(self.output_size) ** 2)
        alpha = math.sqrt(beta / self.mu)
        stored_beta = self.beta if self.beta else beta
        stored_alpha = self.alpha if self.alpha else alpha
        if abs(stored_beta - beta) > 1e-12 or abs(stored_alpha - alpha) > 1e-12:
            raise ValueError("stored alpha/beta disagree with (mu, |Y|)")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "alpha", alpha)

    @classmethod
    def for_channel(cls, ch: StateDMC, n: int, mu: float, **kw) -> "BoundParams":
        return cls(n=n, mu=mu, output_size=ch.output_size, **kw)


def image_size_bound(params: BoundParams, ch: StateDMC,
                     dist: DistortionMatrix | None = None,
                     budget: float | None = None,
                     variant: str = "K1") -> float:
    """log2 of the image-size cap: n * Hmax + alpha * sqrt(n)."""
    rows = averaged_channel(ch).rows
    if variant == "K1":
        hmax = max(entropy(row) for row in rows)
    elif variant == "K2":
        hmax = rand_feedback_capacity(ch).value
    elif variant in ("K3", "K4"):
        if dist is None or budget is None:
            raise ValueError(f"variant {variant} needs a distortion matrix and budget")
        if variant == "K3":
            hmax = det_capacity_distortion(ch, dist, budget).value
        else:
            hmax = rand_capacity_distortion(ch, dist, budget).value
    else:
        raise ValueError(f"unknown variant {variant!r}")
    return params.n * hmax + params.alpha * math.sqrt(params.n)


def rate_of_code(num_identities: int, blocklength: int) -> float:
    """ID rate log2(log2 N) / m."""
    if num_identities < 2:
        raise DegenerateCode(f"need at least 2 identities, got {num_identities}")
    if blocklength < 1:
        raise DegenerateCode("blocklength must be >= 1")
    return math.log2(math.log2(num_identities)) / blocklength
