"""The four workloads: their inputs, drawn from the workload seed, and the
operations one round runs, each with the check of its output.

A round is a fixed list of operations; a run repeats whole rounds, so the
share of failed operations is the same in every run.  The library receives
only the generated channels, budgets and codes; every check compares its
output with `oracle`, which does not import idsense.
"""

from __future__ import annotations

import json
import math
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import oracle
from oracle import require

FIXTURE_DIR = Path("src/idsense/data")
OUT_DIR = Path("bench/out")

# capacity_sweep: the channels and budgets are fixed, so every run times the
# same solver work, and --seed only shuffles the order of the channels.  Solve
# cost across random channels is heavy-tailed (per-channel p50 0.1 s, max 12 s
# over 150 channels), and on one channel a randomized solve costs 270 ms at
# budget fraction 0.68 and 640 ms at 0.72, so channels or budgets drawn from
# --seed would make the seed, not the program, the largest term of the spread.
SWEEP_SHAPES = ((3, 2, 2), (4, 3, 2), (3, 3, 3))
SWEEP_CHANNELS = 6
SWEEP_FRACTIONS = (0.3, 0.7)      # interior budgets, as fractions of the d* range
# cli_batch: --seed jitters each grid budget by up to JITTER of the d* range.
JITTER = 0.02
# The solve that fails today: the BA zero-capacity guard stops at 100,000
# iterations with a gap of 2.8e-9 on this channel.  Budget 0.1 is below its
# smallest d* (0.171), so 0.2 is the first feasible budget of the test grid
# that drew this seed.
FAILING_CHANNEL_SEED = 244
FAILING_BUDGET = 0.2

MC_TRIALS_N4 = 4000
MC_TRIALS_N16 = 3000
COLORING_SAMPLE = 256
EXACT_N = 16
ENUM_N = 14
GRID_CHANNELS = 4
GRID_RESOLUTION = 400
CLI_TRIALS = 300
CLI_GRID_FRACTIONS = (-0.2, 0.3, 0.8)
# cli_batch: random channel files, by fixed channel seed and shape (x, y, s).
CLI_CHANNELS = (("rand_a", 0, (3, 3, 2)), ("rand_b", 1, (2, 2, 2)))


def _solve(out) -> dict:
    return {"solves": 1}


def _command(out) -> dict:
    return {"commands": 1}


@dataclass
class Op:
    """One operation: `run(calls, state)` calls the library, `check(out)` judges it.

    `check` raises oracle.CheckFailed, and may return attributes (such as a
    certificate gap) for the operation's span.  `units(out)` is the work
    the operation completed, counted when it did not fail.
    """

    kind: str
    run: Callable[[Any, dict], Any]
    check: Callable[[Any], "dict | None"]
    units: Callable[[Any], dict] = lambda out: {}


@dataclass
class Workload:
    ops: list[Op]
    cleanup: Callable[[], None] = lambda: None


def _channel(kernel, prior):
    from idsense.channel import StateDMC
    nx, ns, ny = np.asarray(kernel).shape
    return StateDMC(input_size=nx, output_size=ny, state_size=ns,
                    kernel=kernel, state_prior=prior)


def _fixture(name: str):
    """(kernel, prior) read by the benchmark from the fixture's JSON file."""
    spec = json.loads((FIXTURE_DIR / f"{name}.json").read_text())
    return np.asarray(spec["kernel"], dtype=float), np.asarray(spec["state_prior"], dtype=float)


def _big_identity(rng, bits: int) -> int:
    return int.from_bytes(rng.bytes(bits // 8), "big") % 2 ** bits + 1


# --- capacity_sweep ------------------------------------------------------------

def _sweep_ops(kernel, prior, budgets, label: str) -> list[Op]:
    from idsense import capacity, estimation

    ch = _channel(kernel, prior)
    ns = ch.state_size
    dist = estimation.hamming_distortion(ns)
    rows = oracle.averaged_rows(kernel, prior)
    prof = oracle.dstar(kernel, prior, oracle.hamming(ns))

    def check_profile(out):
        require(np.abs(out.per_input - prof).max() <= 1e-12,
                f"{label}: profile {out.per_input} != own d* {prof}")

    def det_op(b):
        def run(c, st):
            return c("capacity.det_capacity_distortion", capacity.det_capacity_distortion, ch, dist, b)
        return Op("det_capacity_distortion", run,
                  lambda r: oracle.check_det(rows, prof, b, r.value, r.maximizer), _solve)

    def rand_op(b):
        def run(c, st):
            r = c("capacity.rand_capacity_distortion", capacity.rand_capacity_distortion, ch, dist, b)
            c.annotate(iterations=r.iterations)
            return r

        def check(r):
            gap = oracle.check_rand(rows, prof, b, r.value, r.maximizer.p)
            require(r.value >= oracle.det_value(rows, prof, b) - 1e-9, f"{label}: rand < det at {b}")
            return {"cert_gap": gap}
        return Op("rand_capacity_distortion", run, check, _solve)

    def run_free(c, st):
        r = c("capacity.rand_feedback_capacity", capacity.rand_feedback_capacity, ch)
        c.annotate(iterations=r.iterations)
        return r

    def check_free(r):
        gap = oracle.check_rand(rows, prof, None, r.value, r.maximizer.p)
        require(r.value >= max(oracle.entropy_bits(w) for w in rows) - 1e-9, f"{label}: rand_f < det_f")
        return {"cert_gap": gap}

    def check_shannon(r):
        return {"cert_gap": oracle.check_shannon(rows, r.value, r.maximizer.p)}

    ops = [Op("distortion_profile",
              lambda c, st: c("estimation.distortion_profile", estimation.distortion_profile, ch, dist),
              check_profile)]
    ops += [det_op(b) for b in budgets] + [rand_op(b) for b in budgets]
    ops.append(Op("rand_feedback_capacity", run_free, check_free, _solve))
    ops.append(Op("shannon_capacity_avg",
                  lambda c, st: c("capacity.shannon_capacity_avg", capacity.shannon_capacity_avg, ch),
                  check_shannon, _solve))
    return ops


def capacity_sweep(seed: int, calls) -> Workload:
    channels = [(shape, c) for shape in SWEEP_SHAPES for c in range(SWEEP_CHANNELS)]
    ops = []
    for i in np.random.default_rng([seed, 0]).permutation(len(channels)):
        shape, c = channels[i]
        kernel, prior = oracle.random_kernel(np.random.default_rng(c), *shape)
        prof = oracle.dstar(kernel, prior, oracle.hamming(shape[2]))
        lo, hi = float(prof.min()), float(prof.max())
        ops += _sweep_ops(kernel, prior, [lo + (hi - lo) * f for f in SWEEP_FRACTIONS],
                          f"{shape}#{c}")
    kernel, prior = oracle.random_kernel(np.random.default_rng(FAILING_CHANNEL_SEED), 3, 2, 2)
    ops += [op for op in _sweep_ops(kernel, prior, [FAILING_BUDGET], "seed244")
            if op.kind == "rand_capacity_distortion"]
    return Workload(ops)


# --- monte_carlo -----------------------------------------------------------------

def _pilot_law(code, rows, prof, kernel, prior):
    """(exact row, float row, expected pilot distortion) of a code's pilot."""
    exact_rows = oracle.exact_rows(kernel, prior)
    if code.mode == "det":
        x = int(code.pilot)
        return exact_rows[x], rows[x], float(prof[x])
    p = np.asarray(code.pilot.p)
    ex = [sum(oracle.exact(p[x]) * exact_rows[x][y] for x in range(len(p)))
          for y in range(rows.shape[1])]
    return ex, p @ rows, float(p @ prof)


def _own_lambdas(code, rows, prof, kernel, prior, identities, pairs):
    ex, fl, _ = _pilot_law(code, rows, prof, kernel, prior)
    return oracle.exact_lambdas(code.n, rows.shape[1], ex, fl, code.eps, code.master_seed,
                                code.color_count, code.inner.log_table, identities, pairs)


def check_mc_report(report, own: dict, trials: int, d_pilot: float, n: int, budget: float):
    """Monte Carlo rates and distortions against exact values, within binomial bands."""
    for i, lam in report.lambda1_per_identity.items():
        require(oracle.rate_in_band(lam, own["lambda1"][i], trials),
                f"lambda1[{i}] = {lam} outside the band of exact {own['lambda1'][i]}")
    for pair, lam in report.lambda2_per_pair.items():
        require(oracle.rate_in_band(lam, own["lambda2"][pair], trials),
                f"lambda2{pair} = {lam} outside the band of exact {own['lambda2'][pair]}")
    total = trials * (len(report.identities) + len(report.pairs))
    for t in range(n):
        require(oracle.rate_in_band(float(report.d_t_hat[t]), d_pilot, total),
                f"pilot distortion d_{t + 1} = {report.d_t_hat[t]} far from {d_pilot}")
    slack = oracle.BAND_Z / (2.0 * math.sqrt(total))
    require(report.d_bar_hat <= budget + slack,
            f"time-average distortion {report.d_bar_hat} over budget {budget}")


def _trials(out) -> dict:
    code, report = out
    return {"trials": report.trials_per_pair * (len(report.identities) + len(report.pairs))}


def monte_carlo(seed: int, calls) -> Workload:
    from idsense import coding, fixtures, sim
    from idsense.estimation import hamming_distortion

    rng = np.random.default_rng([seed, 1])
    flip, ham = fixtures.flip_bsc(), hamming_distortion(2)
    kernel, prior = _fixture("flip_bsc")
    rows, prof = oracle.averaged_rows(kernel, prior), oracle.dstar(kernel, prior, oracle.hamming(2))
    budget, eps = 0.45, 0.3
    configs = [("flip_det_n4", 4, 16, 4, "det", int(rng.integers(2 ** 63)), MC_TRIALS_N4),
               ("flip_rand_n4", 4, 16, 4, "rand", int(rng.integers(2 ** 63)), MC_TRIALS_N4),
               ("flip_det_n16", 16, 2 ** 512, 5, "det", 9, MC_TRIALS_N16)]
    ops = []
    for name, n, ids, colors, mode, master, trials in configs:
        sim_seed = int(rng.integers(2 ** 31))
        memo: dict = {}

        def run(c, st, name=name, n=n, ids=ids, colors=colors, mode=mode, master=master,
                trials=trials, sim_seed=sim_seed):
            code = c("coding.build_id_code", coding.build_id_code, flip, ham, budget, n=n,
                     identities=ids, colors=colors, eps=eps, mode=mode, master_seed=master)
            report = c("sim.monte_carlo", sim.monte_carlo, code, flip, ham, trials, seed=sim_seed)
            c.annotate(config=name, **_trials((code, report)))
            st[name] = code
            return code, report

        def check(out, trials=trials, memo=memo, mode=mode):
            code, report = out
            if mode == "det":
                oracle.check_det(rows, prof, budget, oracle.entropy_bits(rows[int(code.pilot)]),
                                 code.pilot)
            else:
                p = code.pilot.p
                oracle.check_rand(rows, prof, budget, oracle.entropy_bits(p @ rows), p)
            key = (report.identities, report.pairs, code.master_seed)
            if key not in memo:
                memo[key] = _own_lambdas(code, rows, prof, kernel, prior,
                                         report.identities, report.pairs)
            d_pilot = _pilot_law(code, rows, prof, kernel, prior)[2]
            check_mc_report(report, memo[key], trials, d_pilot, code.n, budget)

        ops.append(Op("simulate_" + name, run, check, _trials))
    ops.append(_coloring_op(lambda st: st["flip_det_n16"], rng, 16))
    return Workload(ops)


def _coloring_op(get_code, rng, n: int) -> Op:
    """IDFeedbackCode.coloring on a fixed sample of pilot blocks, one span per call."""
    blocks = [tuple(int(v) for v in rng.integers(0, 2, n)) for _ in range(COLORING_SAMPLE)]
    identity = _big_identity(rng, 512)

    def run(c, st):
        code = get_code(st)
        return code, [c("coding.IDFeedbackCode.coloring", code.coloring, identity, b) for b in blocks]

    def check(out):
        code, colors = out
        own = [oracle.color(code.master_seed, code.color_count, identity, b) for b in blocks]
        require(colors == own, "coloring differs from the keyed BLAKE2b construction")
    return Op("coloring_sample", run, check)


# --- exact_oracle ------------------------------------------------------------------

def exact_oracle(seed: int, calls) -> Workload:
    from idsense import coding, fixtures, sim, typicality
    from idsense.estimation import hamming_distortion

    rng = np.random.default_rng([seed, 2])
    ham = hamming_distortion(2)
    ops = []
    codes = {}
    for name, budget, ids, colors, master, id_bits in (
            ("flip_bsc", 0.45, 2 ** 512, 5, 9, 512),
            ("sensor", 0.5, 2 ** 16, 3, int(rng.integers(2 ** 63)), 16)):
        ch = getattr(fixtures, name)()
        code = calls("coding.build_id_code", coding.build_id_code, ch, ham, budget, n=EXACT_N,
                     identities=ids, colors=colors, eps=0.3, mode="det", master_seed=master)
        codes[name] = code
        a, b = _big_identity(rng, id_bits), _big_identity(rng, id_bits)
        pairs = [(a, b), (b, a)]
        blocks = 2 ** EXACT_N + 2 ** code.inner.k

        def run(c, st, code=code, ch=ch, pairs=pairs, blocks=blocks):
            return c("sim.exact_error_probabilities", sim.exact_error_probabilities, code, ch, pairs,
                     attrs={"blocks": blocks})

        ops.append(Op("exact_" + name, run, exact_check(code, *_fixture(name), pairs),
                      lambda out, blocks=blocks: {"blocks": blocks}))

    for name in ("flip_bsc", "sensor"):
        ch = getattr(fixtures, name)()
        kernel, prior = _fixture(name)
        x_seq = [int(v) for v in rng.integers(0, 2, ENUM_N)]
        eps = float(rng.choice([0.1, 0.15, 0.2, 0.25, 0.3]))

        def run(c, st, ch=ch, x_seq=x_seq, eps=eps):
            return c("typicality.enumerate_typical_set", typicality.enumerate_typical_set, ch, x_seq,
                     eps, attrs={"blocks": 2 ** ENUM_N})

        ops.append(Op("enumerate_" + name, run, _typical_set_check(kernel, prior, x_seq, eps),
                      lambda out: {"blocks": 2 ** ENUM_N}))

    for _ in range(GRID_CHANNELS):
        kernel, prior = oracle.random_kernel(rng, 3, 3, 2)
        ch = _channel(kernel, prior)
        points = math.comb(GRID_RESOLUTION + 2, 2)
        lower, upper = oracle.grid_bounds(oracle.averaged_rows(kernel, prior), GRID_RESOLUTION)

        def check_grid(v, lower=lower, upper=upper):
            require(lower - 1e-12 <= v <= upper + 1e-12,
                    f"grid value {v} outside [{lower}, {upper}]")

        ops.append(Op("grid_capacity_oracle",
                      lambda c, st, ch=ch, points=points: c(
                          "sim.grid_capacity_oracle", sim.grid_capacity_oracle, ch,
                          resolution=GRID_RESOLUTION, attrs={"points": points}),
                      check_grid))

    kernel, prior = oracle.random_kernel(rng, 3, 3, 3)
    ch, d3 = _channel(kernel, prior), hamming_distortion(3)
    tables = 3 ** 9

    def check_brute(out):
        per_input, table = out
        own = oracle.dstar(kernel, prior, oracle.hamming(3))
        require(np.abs(per_input - own).max() <= 1e-12, f"brute-force profile {per_input} != {own}")
        achieved = oracle.table_profile(kernel, prior, oracle.hamming(3), table.h)
        require(np.abs(achieved - per_input).max() <= 1e-12, "returned table does not attain the profile")

    ops.append(Op("brute_force_estimator",
                  lambda c, st: c("sim.brute_force_estimator_distortion",
                                  sim.brute_force_estimator_distortion, ch, d3,
                                  attrs={"tables": tables}),
                  check_brute))
    ops.append(_coloring_op(lambda st: codes["flip_bsc"], rng, EXACT_N))
    return Workload(ops)


def exact_check(code, kernel, prior, pairs):
    """Check exact_error_probabilities of a det code against own enumeration."""
    memo: dict = {}

    def check(out):
        if not memo:
            rows = oracle.averaged_rows(kernel, prior)
            prof = oracle.dstar(kernel, prior, oracle.hamming(kernel.shape[1]))
            ids = sorted({i for pair in pairs for i in pair})
            memo.update(_own_lambdas(code, rows, prof, kernel, prior, ids, pairs))
            memo["typical_mass"] = oracle.typical_set_stats(
                [int(code.pilot)] * code.n, oracle.exact_rows(kernel, prior), rows, code.eps)[1]
        require(abs(out["atypical_mass"] - (1.0 - memo["typical_mass"])) <= 1e-12,
                f"atypical mass {out['atypical_mass']} != 1 - {memo['typical_mass']}")
        for i, v in out["lambda1"].items():
            require(abs(v - memo["lambda1"][i]) <= 1e-12, f"lambda1[{i}] {v} != {memo['lambda1'][i]}")
        for pair, v in out["lambda2"].items():
            require(abs(v - memo["lambda2"][pair]) <= 1e-12,
                    f"lambda2{pair} {v} != {memo['lambda2'][pair]}")
    return check


def _typical_set_check(kernel, prior, x_seq, eps):
    ex_rows = oracle.exact_rows(kernel, prior)
    rows = oracle.averaged_rows(kernel, prior)
    ny = rows.shape[1]
    size, mass = oracle.typical_set_stats(x_seq, ex_rows, rows, eps)
    eps_exact = oracle.exact(eps)
    x_arr = np.asarray(x_seq)

    def check(members):
        require(len(members) == size, f"typical set has {len(members)} members, own count {size}")
        require(members == sorted(set(members)), "members are not distinct and sorted")
        if not members:
            return
        ys = np.asarray(members, dtype=np.int64)
        for x in sorted(set(x_seq)):
            counts = np.stack([(ys[:, x_arr == x] == y).sum(axis=1) for y in range(ny)], axis=1)
            require(all(oracle.counts_typical(cv, ex_rows[x], eps_exact)
                        for cv in set(map(tuple, counts.tolist()))),
                    f"an atypical block at input {x} is in the set")
        got = float(np.prod(rows[x_arr[None, :], ys], axis=1).sum())
        require(abs(got - mass) <= 1e-12, f"typical mass {got} != multinomial sum {mass}")
    return check


# --- cli_batch ---------------------------------------------------------------------

def cli_batch(seed: int, calls) -> Workload:
    from click.testing import CliRunner
    from idsense import channel
    from idsense.cli import main

    rng = np.random.default_rng([seed, 3])
    runner = CliRunner()
    workdir = OUT_DIR / f"cli-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    channels = [(name, name, *_fixture(name)) for name in ("flip_bsc", "sensor")]
    for name, cseed, shape in CLI_CHANNELS:
        kernel, prior = oracle.random_kernel(np.random.default_rng(cseed), *shape)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"input_size": shape[0], "output_size": shape[1],
                                    "state_size": shape[2], "state_prior": prior.tolist(),
                                    "kernel": kernel.tolist()}))
        channels.append((name, str(path), kernel, prior))

    ops = []
    for name, arg, kernel, prior in channels:
        ops.extend(_cli_channel_ops(name, arg, kernel, prior, rng, runner, main, channel))
    for name, budget, colors in (("flip_bsc", 0.45, 4), ("sensor", 0.5, 2)):
        ops.append(_cli_simulate_op(name, budget, colors, int(rng.integers(2 ** 31)), runner, main))
    return Workload(ops, cleanup=lambda: shutil.rmtree(workdir, ignore_errors=True))


class CommandFailed(Exception):
    """A CLI command exited with a code other than 0."""


def _invoke(c, runner, main, command: str, args: list[str]) -> bytes:
    result = c("cli." + command, runner.invoke, main, [command] + args)
    if result.exit_code != 0:
        raise CommandFailed(f"idsense {command} {' '.join(args)} exited {result.exit_code}: "
                            f"{result.exception!r}")
    return result.stdout_bytes


def _deterministic(check):
    """Wrap a check so it also holds every later output byte-identical to the first."""
    first: list[bytes] = []

    def wrapped(out):
        if first:
            require(out == first[0], "output differs from the same command's earlier output")
            return None
        check(out)
        first.append(out)
    return wrapped


def _cli_channel_ops(name, arg, kernel, prior, rng, runner, main, channel) -> list[Op]:
    ny, ns = kernel.shape[2], kernel.shape[1]
    rows = oracle.averaged_rows(kernel, prior)
    prof = oracle.dstar(kernel, prior, oracle.hamming(ns))
    lo, hi = float(prof.min()), float(prof.max())
    span = max(hi - lo, 0.1)
    # The first grid budget falls below min d*, so an infeasible point is flagged too.
    grid = [max(round(lo + span * (f + float(rng.uniform(-JITTER, JITTER))), 6), 1e-4)
            for f in CLI_GRID_FRACTIONS]
    budget = round(lo + span * (0.5 + float(rng.uniform(-JITTER, JITTER))), 6)
    n, eps, mu = int(rng.integers(8, 65)), float(rng.choice([0.05, 0.1, 0.2, 0.3])), \
        round(float(rng.uniform(0.2, 0.8)), 3)
    ops = []

    if arg != name:
        def check_load(out):
            ch, _ = out
            require(np.array_equal(ch.kernel, kernel) and np.array_equal(ch.state_prior, prior),
                    f"{arg}: loaded channel differs from the file written")
        ops.append(Op("load_channel", lambda c, st: c("channel.load_channel", channel.load_channel, arg),
                      check_load))

    def check_capacity(out):
        rep = json.loads(out)
        require(abs(rep["det_f"] - max(oracle.entropy_bits(w) for w in rows)) <= 1e-12,
                f"{name}: det_f {rep['det_f']}")
        oracle.check_rand(rows, prof, None, rep["rand_f"], rep["rand_f_maximizer"])
        oracle.check_shannon(rows, rep["shannon"], rep["shannon_maximizer"])
        if name == "flip_bsc":
            h = oracle.binary_entropy(0.1)
            require(abs(rep["shannon"] - (1.0 - h)) <= 1e-6, f"FlipBSC Shannon {rep['shannon']}")
            require(abs(rep["det_f"] - h) <= 1e-12, f"FlipBSC det_f {rep['det_f']}")
            require(abs(rep["rand_f"] - 1.0) <= 1e-6, f"FlipBSC rand_f {rep['rand_f']}")

    def check_tradeoff(out):
        lines = out.decode().strip().split("\n")
        require(lines[0] == "mode,D,feasible,value", "tradeoff CSV header")
        body = [ln.split(",") for ln in lines[1:]]
        require(len(body) == 2 * len(grid), "tradeoff CSV has the wrong number of points")
        for (mode, _, feas, value), b in zip(body, grid + grid):
            own_feas = oracle.feasible(prof, b).size > 0
            require((feas == "True") == own_feas, f"{name}: feasibility at D={b}")
            if not own_feas:
                continue
            det = oracle.det_value(rows, prof, b)
            if mode == "det":
                require(abs(float(value) - det) <= 1e-8, f"{name}: det({b}) {value} != {det}")
            else:
                require(det - 1e-8 <= float(value) <= math.log2(ny) + 1e-8,
                        f"{name}: rand({b}) {value} outside [det, log|Y|]")

    def check_estimate(out):
        rep = json.loads(out)
        require(np.abs(np.asarray(rep["profile"]) - prof).max() <= 1e-12, f"{name}: profile")
        table, decided = oracle.estimator(kernel, prior, oracle.hamming(ns))
        require(((np.asarray(rep["estimator"]) == table) | ~decided).all(), f"{name}: estimator table")
        require(rep["feasible_inputs"] == oracle.feasible(prof, budget).tolist(),
                f"{name}: feasible inputs at D={budget}")

    def check_bounds(out):
        rep = json.loads(out)
        own = oracle.image_size_k1(rows, n, mu, ny)
        require(abs(rep["image_size_log2_K1"] - own) <= 1e-9, f"{name}: K1 {rep['image_size_log2_K1']} != {own}")

    grid_arg = ",".join(repr(b) for b in grid)
    budget_arg = max(budget, lo)          # bounds -D needs a feasible budget
    commands = [
        ("capacity", ["--channel", arg], check_capacity),
        ("tradeoff", ["--channel", arg, "--distortion", "hamming", "--grid", grid_arg,
                      "--mode", "both", "--format", "csv"], check_tradeoff),
        ("estimate", ["--channel", arg, "--distortion", "hamming", "-D", repr(budget)], check_estimate),
        ("bounds", ["--channel", arg, "--n", str(n), "--eps", repr(eps), "--mu", repr(mu),
                    "-D", repr(budget_arg), "--distortion", "hamming"], check_bounds),
    ]
    for command, args, check in commands:
        ops.append(Op("cli_" + command,
                      lambda c, st, command=command, args=args: _invoke(c, runner, main, command, args),
                      _deterministic(check), _command))
    return ops


def _cli_simulate_op(name, budget, colors, seed, runner, main) -> Op:
    kernel, prior = _fixture(name)
    rows, prof = oracle.averaged_rows(kernel, prior), oracle.dstar(kernel, prior, oracle.hamming(2))
    args = ["--channel", name, "--distortion", "hamming", "-D", repr(budget), "--n", "4",
            "--identities", "4", "--colors", str(colors), "--eps", "0.3",
            "--trials", str(CLI_TRIALS), "--seed", str(seed), "--exact"]

    def check(out):
        rep = json.loads(out)
        code = rep["code"]
        with np.errstate(divide="ignore"):
            logrows = np.log2(rows)
        log_table = np.stack([logrows[np.asarray(cw)] for cw in code["codewords"]])
        x = int(code["pilot"])
        identities = rep["identities"]
        pairs = [tuple(p) for p in rep["pairs"]]
        own = oracle.exact_lambdas(code["n"], 2, oracle.exact_rows(kernel, prior)[x], rows[x],
                                   code["eps"], code["seed"], code["colors"], log_table,
                                   identities, pairs)
        for i in identities:
            exact = rep["exact_lambda1"][str(i)]
            require(abs(exact - own["lambda1"][i]) <= 1e-12, f"{name}: exact lambda1[{i}]")
            require(oracle.rate_in_band(rep["lambda1_per_identity"][str(i)], exact, CLI_TRIALS),
                    f"{name}: lambda1[{i}] outside its band")
        for a, b in pairs:
            exact = rep["exact_lambda2"][f"{a}->{b}"]
            require(abs(exact - own["lambda2"][(a, b)]) <= 1e-12, f"{name}: exact lambda2[{a}->{b}]")
            require(oracle.rate_in_band(rep["lambda2_per_pair"][f"{a}->{b}"], exact, CLI_TRIALS),
                    f"{name}: lambda2[{a}->{b}] outside its band")
        total = CLI_TRIALS * (len(identities) + len(pairs))
        for t in range(code["n"]):
            require(oracle.rate_in_band(rep["d_t_hat"][t], float(prof[x]), total),
                    f"{name}: pilot distortion d_{t + 1} = {rep['d_t_hat'][t]} far from {prof[x]}")

    return Op("cli_simulate", lambda c, st: _invoke(c, runner, main, "simulate", args),
              _deterministic(check), _command)


WORKLOADS = {"capacity_sweep": capacity_sweep, "monte_carlo": monte_carlo,
             "exact_oracle": exact_oracle, "cli_batch": cli_batch}
