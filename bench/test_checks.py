"""Self-tests of the benchmark's checks: each accepts the library's result
and rejects a wrong one.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import sys
from dataclasses import replace
from itertools import product
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import oracle  # noqa: E402
import workloads  # noqa: E402
from idsense import (build_id_code, capacity, exact_error_probabilities, fixtures,  # noqa: E402
                     grid_capacity_oracle, hamming_distortion, monte_carlo)
from idsense.channel import StateDMC  # noqa: E402
from oracle import CheckFailed  # noqa: E402


@pytest.fixture(autouse=True)
def _checkout_root(monkeypatch):
    monkeypatch.chdir(Path(__file__).resolve().parent.parent)


def _random(seed, nx, ny, ns):
    kernel, prior = oracle.random_kernel(np.random.default_rng(seed), nx, ny, ns)
    return kernel, prior, StateDMC(nx, ny, ns, kernel, prior)


def _sweep_case(seed=3, shape=(4, 3, 2)):
    kernel, prior, ch = _random(seed, *shape)
    rows = oracle.averaged_rows(kernel, prior)
    prof = oracle.dstar(kernel, prior, oracle.hamming(shape[2]))
    budget = float(prof.min() + 0.5 * (prof.max() - prof.min()))
    return ch, rows, prof, budget


def test_det_value_lowered_is_rejected():
    ch, rows, prof, budget = _sweep_case()
    res = capacity.det_capacity_distortion(ch, hamming_distortion(2), budget)
    oracle.check_det(rows, prof, budget, res.value, res.maximizer)
    with pytest.raises(CheckFailed):
        oracle.check_det(rows, prof, budget, res.value - 1e-3, res.maximizer)


def test_rand_value_lowered_is_rejected():
    ch, rows, prof, budget = _sweep_case()
    res = capacity.rand_capacity_distortion(ch, hamming_distortion(2), budget)
    assert oracle.check_rand(rows, prof, budget, res.value, res.maximizer.p) <= oracle.CERT_TOL
    with pytest.raises(CheckFailed):
        oracle.check_rand(rows, prof, budget, res.value - 1e-3, res.maximizer.p)


def test_maximizer_outside_budget_is_rejected():
    ch, rows, prof, budget = _sweep_case()
    worst = int(np.argmax(prof))
    p = np.eye(len(prof))[worst]
    assert p @ prof > budget
    with pytest.raises(CheckFailed, match="exceeds budget"):
        oracle.check_rand(rows, prof, budget, oracle.entropy_bits(p @ rows), p)
    with pytest.raises(CheckFailed, match="over budget"):
        oracle.check_det(rows, prof, budget, oracle.det_value(rows, prof, budget), worst)


def test_suboptimal_maximizer_fails_the_certificate():
    ch, rows, prof, _ = _sweep_case()
    p = np.full(len(prof), 1.0 / len(prof))
    with pytest.raises(CheckFailed, match="certificate"):
        oracle.check_rand(rows, prof, None, oracle.entropy_bits(p @ rows), p)


def test_shannon_check():
    kernel, prior, ch = _random(5, 3, 3, 2)
    rows = oracle.averaged_rows(kernel, prior)
    res = capacity.shannon_capacity_avg(ch)
    oracle.check_shannon(rows, res.value, res.maximizer.p)
    with pytest.raises(CheckFailed):
        oracle.check_shannon(rows, res.value - 1e-3, res.maximizer.p)


def test_profile_check_rejects_a_wrong_profile():
    kernel, prior, ch = _random(2, 3, 3, 3)
    ops = workloads._sweep_ops(kernel, prior, [0.4], "t")
    profile_op = ops[0]
    out = profile_op.run(lambda name, fn, *a, **k: fn(*a, **k), {})
    profile_op.check(out)
    with pytest.raises(CheckFailed):
        profile_op.check(SimpleNamespace(per_input=out.per_input + np.array([0, 1e-9, 0])))


def test_mc_rate_off_by_ten_standard_errors_is_rejected():
    p, trials = 0.25, 2000
    se = np.sqrt(p * (1 - p) / trials)
    assert oracle.rate_in_band(p + 2 * se, p, trials)
    assert not oracle.rate_in_band(p + 10 * se, p, trials)
    assert not oracle.rate_in_band(p - 10 * se, p, trials)


def test_mc_report_against_own_exact_values():
    flip, ham = fixtures.flip_bsc(), hamming_distortion(2)
    kernel, prior = workloads._fixture("flip_bsc")
    rows, prof = oracle.averaged_rows(kernel, prior), oracle.dstar(kernel, prior, oracle.hamming(2))
    code = build_id_code(flip, ham, 0.45, n=4, identities=16, colors=4, eps=0.3, mode="det",
                         master_seed=43)
    trials = 2000
    report = monte_carlo(code, flip, ham, trials, seed=1)
    own = workloads._own_lambdas(code, rows, prof, kernel, prior, report.identities, report.pairs)
    lib = exact_error_probabilities(code, flip, report.pairs)
    for i in report.identities:
        assert abs(lib["lambda1"][i] - own["lambda1"][i]) <= 1e-12
    workloads.check_mc_report(report, own, trials, float(prof[0]), code.n, 0.45)
    i = report.identities[0]
    se = np.sqrt(own["lambda1"][i] * (1 - own["lambda1"][i]) / trials)
    shifted = {**report.lambda1_per_identity, i: own["lambda1"][i] + 10 * se}
    with pytest.raises(CheckFailed, match="lambda1"):
        workloads.check_mc_report(replace(report, lambda1_per_identity=shifted), own, trials,
                                  float(prof[0]), code.n, 0.45)


def test_typical_set_without_the_all_zero_block_is_rejected():
    """FlipBSC, n=8, eps=0.1: 9 members of mass 0.813; the float-boundary fault gave 8 and 0.383."""
    kernel, prior = workloads._fixture("flip_bsc")
    rows = oracle.averaged_rows(kernel, prior)
    x_seq = [0] * 8
    check = workloads._typical_set_check(kernel, prior, x_seq, 0.1)
    members = [y for y in product(range(2), repeat=8) if sum(y) <= 1]
    assert len(members) == 9
    assert abs(sum(np.prod(rows[0][list(y)]) for y in members) - 0.8131) < 1e-4
    check(members)
    faulty = members[1:]
    assert faulty[0] != (0,) * 8 and abs(sum(np.prod(rows[0][list(y)]) for y in faulty) - 0.3826) < 1e-4
    with pytest.raises(CheckFailed, match="8 members"):
        check(faulty)
    with pytest.raises(CheckFailed, match="atypical"):
        check(sorted(faulty + [(1, 1) + (0,) * 6]))


def test_exact_oracle_check_rejects_a_shifted_lambda():
    flip, ham = fixtures.flip_bsc(), hamming_distortion(2)
    kernel, prior = workloads._fixture("flip_bsc")
    code = build_id_code(flip, ham, 0.45, n=8, identities=2 ** 64, colors=4, eps=0.3, mode="det",
                         master_seed=5)
    pairs = [(3, 2 ** 63), (2 ** 63, 3)]
    lib = exact_error_probabilities(code, flip, pairs)
    check = workloads.exact_check(code, kernel, prior, pairs)
    check(lib)
    shifted = dict(lib, lambda2={**lib["lambda2"], pairs[0]: lib["lambda2"][pairs[0]] + 1e-9})
    with pytest.raises(CheckFailed, match="lambda2"):
        check(shifted)
    with pytest.raises(CheckFailed, match="atypical"):
        check(dict(lib, atypical_mass=lib["atypical_mass"] + 1e-9))


def test_coloring_matches_the_keyed_construction():
    flip, ham = fixtures.flip_bsc(), hamming_distortion(2)
    code = build_id_code(flip, ham, 0.45, n=16, identities=2 ** 512, colors=5, eps=0.3,
                         mode="det", master_seed=9)
    rng = np.random.default_rng(0)
    for _ in range(50):
        block = tuple(int(v) for v in rng.integers(0, 2, 16))
        ident = int(rng.integers(1, 2 ** 62))
        assert code.coloring(ident, block) == oracle.color(9, 5, ident, block)


def test_grid_bounds_bracket_the_grid_oracle():
    kernel, prior, ch = _random(7, 3, 3, 2)
    rows = oracle.averaged_rows(kernel, prior)
    lower, upper = oracle.grid_bounds(rows, 400)
    value = grid_capacity_oracle(ch, resolution=400)
    assert lower - 1e-12 <= value <= upper + 1e-12
    assert upper - lower < 1e-4
    assert not (lower - 1e-12 <= value + 1e-3 <= upper + 1e-12)


def test_image_size_k1():
    rows = np.array([[0.9, 0.1], [0.1, 0.9]])
    h = oracle.binary_entropy(0.1)
    beta = np.log2(3.0) ** 2
    assert abs(oracle.image_size_k1(rows, 16, 0.5, 2) - (16 * h + np.sqrt(beta / 0.5) * 4)) < 1e-12


def test_estimator_ties_are_either_choice():
    kernel, prior = workloads._fixture("sensor")
    table, decided = oracle.estimator(kernel, prior, oracle.hamming(2))
    assert not decided[1, 1]            # input 1 pins the output: both states cost 0.5
    assert decided[0].all()


def test_deterministic_wrapper_rejects_changed_output():
    seen = []
    check = workloads._deterministic(seen.append)
    check(b"a")
    check(b"a")
    with pytest.raises(CheckFailed):
        check(b"b")
    assert seen == [b"a"]
