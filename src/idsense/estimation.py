"""Optimal per-letter state estimation and minimal distortion profiles.

The estimator picks, for each reachable (input, output) pair, the state
reconstruction that minimizes the posterior-expected distortion.  The
profiles d*(x) and d*(P) it induces define which inputs and input
distributions stay within a sensing budget.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import StateDMC, _block
from .errors import (
    DimensionMismatch,
    InfeasibleDistortion,
    LengthMismatch,
    NegativeDistortion,
    NotADistribution,
    _integer,
)

# Absolute slack for budget comparisons: analytically tight budgets
# (D exactly equal to some d*(x)) count as feasible.
FEASIBILITY_TOL = 1e-12
SIMPLEX_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DistortionMatrix:
    """Nonnegative distortion table d[s][s_hat]."""

    d: np.ndarray

    def __post_init__(self):
        d = np.asarray(self.d, dtype=float)
        if d.ndim != 2:
            raise NotADistribution("distortion matrix must be 2-D")
        if not np.isfinite(d).all() or (d < 0).any():
            raise NegativeDistortion("distortion entries must be finite and >= 0")
        d.setflags(write=False)
        object.__setattr__(self, "d", d)


def hamming_distortion(state_size: int) -> DistortionMatrix:
    return DistortionMatrix(d=1.0 - np.eye(_integer("state_size", state_size, 1)))


@dataclass(frozen=True, eq=False)
class EstimatorTable:
    """Deterministic per-letter rule h[x][y] -> state index."""

    h: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.h, dtype=np.int64)
        h.setflags(write=False)
        object.__setattr__(self, "h", h)


@dataclass(frozen=True, eq=False)
class DistortionProfile:
    """Minimal expected distortion per input symbol."""

    per_input: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.per_input, dtype=float)
        v.setflags(write=False)
        object.__setattr__(self, "per_input", v)


def _check_distribution(p, size: int | None = None) -> np.ndarray:
    """p as a float vector on the probability simplex, the one such check.

    A 1-D vector (of `size` entries, if given) with entries in
    [-SIMPLEX_TOL, 1 + SIMPLEX_TOL] whose sum is within SIMPLEX_TOL of 1;
    so no entry is nan or infinite.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 1 or size is not None and p.shape != (size,):
        expected = "(n,)" if size is None else f"({size},)"
        raise NotADistribution(f"distribution has shape {p.shape}, expected {expected}")
    if (p < -SIMPLEX_TOL).any() or (p > 1 + SIMPLEX_TOL).any() \
            or not abs(p.sum() - 1.0) <= SIMPLEX_TOL:     # a nan entry fails this too
        raise NotADistribution("vector is not on the probability simplex")
    return p


def _require_fit(ch: StateDMC, dist: DistortionMatrix) -> None:
    """Refuse a distortion matrix without one row per state or without a column."""
    if dist.d.shape[0] != ch.state_size or dist.d.size == 0:
        raise DimensionMismatch(f"distortion matrix has shape {dist.d.shape}, not one "
                                f"row for each of the {ch.state_size} states")


def posterior_cost(ch: StateDMC, dist: DistortionMatrix) -> np.ndarray:
    """cost[x, y, s_hat] = sum_s P_S(s) W(y|x,s) d(s, s_hat) (unnormalized posterior cost)."""
    _require_fit(ch, dist)
    return np.einsum("s,xsy,st->xyt", ch.state_prior, ch.kernel, dist.d)


def _min_cost_rule(ch: StateDMC, cost: np.ndarray) -> np.ndarray:
    """argmin over s_hat of cost[x, y, s_hat]; unreachable pairs fixed to state 0."""
    return np.where(ch.rows > 0, np.argmin(cost, axis=2), 0)


def optimal_estimator(ch: StateDMC, dist: DistortionMatrix) -> EstimatorTable:
    """Minimum-posterior-cost rule; ties broken by lowest state index.

    Pairs (x, y) with P(y|x) = 0 are never reachable; their entry is fixed
    to state 0 and contributes nothing to any expectation.
    """
    return EstimatorTable(h=_min_cost_rule(ch, posterior_cost(ch, dist)))


def distortion_profile(ch: StateDMC, dist: DistortionMatrix) -> DistortionProfile:
    cost = posterior_cost(ch, dist)
    h = _min_cost_rule(ch, cost)
    per_input = np.take_along_axis(cost, h[:, :, None], axis=2)[:, :, 0].sum(axis=1)
    return DistortionProfile(per_input=per_input)


def _feasible_inputs(ch: StateDMC, dist: DistortionMatrix,
                     budget: float) -> tuple[np.ndarray, np.ndarray]:
    """(d* profile, ascending inputs x with d*(x) <= D), or InfeasibleDistortion if none."""
    profile = distortion_profile(ch, dist).per_input
    feasible = np.flatnonzero(profile <= budget + FEASIBILITY_TOL)
    if feasible.size == 0:
        raise InfeasibleDistortion(budget, min_feasible=float(profile.min()))
    return profile, feasible


def feasible_inputs(ch: StateDMC, dist: DistortionMatrix, budget: float) -> set[int]:
    """The input set {x : d*(x) <= D}; may be empty."""
    try:
        return {int(x) for x in _feasible_inputs(ch, dist, budget)[1]}
    except InfeasibleDistortion:
        return set()


def estimate_sequence(table: EstimatorTable, x_seq, y_seq) -> np.ndarray:
    """Apply the per-letter rule; strictly causal in (x_t, y_t)."""
    x_seq = _block(np.asarray(x_seq), table.h.shape[0], what="input")
    y_seq = _block(np.asarray(y_seq), table.h.shape[1])
    if x_seq.shape != y_seq.shape:
        raise LengthMismatch("input and output sequences differ in length")
    return table.h[x_seq, y_seq]
