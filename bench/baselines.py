"""Time the single-shot baselines listed under ROADMAP item 1, once each.

    PYTHONPATH=src python3 bench/baselines.py

One process, one pass, wall-clock seconds; the figures are for the README's
reference table, not for the benchmark's gate.
"""

from __future__ import annotations

import time

import numpy as np

import oracle
from idsense import (StateDMC, build_id_code, enumerate_typical_set, exact_error_probabilities,
                     fixtures, grid_capacity_oracle, hamming_distortion, monte_carlo,
                     rand_feedback_capacity, shannon_capacity_avg)


def timed(label: str, fn):
    t0 = time.perf_counter()
    fn()
    print(f"{label}: {time.perf_counter() - t0:.2f} s", flush=True)


def main():
    flip, ham = fixtures.flip_bsc(), hamming_distortion(2)
    code4 = build_id_code(flip, ham, 0.45, n=4, identities=4, colors=4, eps=0.3, mode="det",
                          master_seed=7)
    timed("monte_carlo FlipBSC n=4, 4 identities, 12 pairs, 1e5 trials per pair",
          lambda: monte_carlo(code4, flip, ham, 100_000, seed=7))
    code16 = build_id_code(flip, ham, 0.45, n=16, identities=2 ** 512, colors=5, eps=0.3,
                           mode="det", master_seed=9)
    timed("monte_carlo FlipBSC n=16, 2^512 identities, 20k trials per pair",
          lambda: monte_carlo(code16, flip, ham, 20_000, seed=0))
    timed("exact_error_probabilities n=16, 2 identities",
          lambda: exact_error_probabilities(code16, flip, [(1, 2), (2, 1)]))
    channels = []
    for seed in range(50):
        kernel, prior = oracle.random_kernel(np.random.default_rng(seed), 3, 3, 2)
        channels.append(StateDMC(3, 3, 2, kernel, prior))
    timed("rand_feedback_capacity on 50 random 3x3x2 channels",
          lambda: [rand_feedback_capacity(ch) for ch in channels])
    timed("the same 50 BA zero-capacity guards alone (shannon_capacity_avg, tol 1e-9)",
          lambda: [shannon_capacity_avg(ch, tol=1e-9) for ch in channels])
    timed("grid_capacity_oracle at resolution 400 on the same 50 channels",
          lambda: [grid_capacity_oracle(ch, resolution=400) for ch in channels])
    timed("enumerate_typical_set n=14 binary (FlipBSC, pilot 0, eps 0.1)",
          lambda: enumerate_typical_set(flip, [0] * 14, 0.1))


if __name__ == "__main__":
    main()
