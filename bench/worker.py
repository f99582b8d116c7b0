"""One run of one workload, in a fresh interpreter started by run.py.

    python3 bench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up builds the workload's inputs (and imports idsense); the timed phase
repeats whole rounds of the workload's operations until S seconds of
operations have run, and at least MIN_ROUNDS rounds.  Outputs are checked
after each round, outside the timed part.  Times are scaled to the
reference machine speed (see PROBE_REFERENCE_S).  With --trace 1 every odd
round runs traced, so the overhead is the traced rounds' median minus the
untraced rounds'.  Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import oracle
import spans
import workloads

MIN_ROUNDS = 2
# The machine is shared: its speed drifts by 10-25% over seconds, and every
# operation slows alike.  A fixed probe is timed between operations, and each
# operation's time is reported at the speed where the probe takes
# PROBE_REFERENCE_S (its usual time on the reference machine):
# measured * PROBE_REFERENCE_S / (median of the PROBE_WINDOW probes around it).
PROBE_REFERENCE_S = 0.0014
PROBE_WINDOW = 2      # probes on each side of an operation


def probe() -> float:
    """Seconds for a fixed piece of Python and small-array numpy work (median of 3)."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        acc = 0
        for i in range(8000):
            acc += i * i
        a = np.full((3, 3), 0.5)
        for _ in range(80):
            a = np.log2(a @ a.T + 1.0) / 4.0
        times.append(time.perf_counter() - t0)
    return sorted(times)[1]


def speed_scales(probes: list[float]) -> list[float]:
    """Scale of operation i, which ran between probes[i] and probes[i + 1]."""
    return [PROBE_REFERENCE_S / float(np.median(
        probes[max(0, i + 1 - PROBE_WINDOW):i + 1 + PROBE_WINDOW]))
        for i in range(len(probes) - 1)]


THROUGHPUT = {"solves": "capacity_solves_per_s", "trials": "mc_trials_per_s",
              "blocks": "oracle_blocks_per_s", "commands": "cli_commands_per_s"}
MC_CONFIGS = ("flip_det_n4", "flip_rand_n4", "flip_det_n16")
CLI_COMMANDS = ("capacity", "tradeoff", "estimate", "bounds", "simulate")


def layer_metrics(tracer: spans.Tracer, rounds: dict, units: Counter) -> dict:
    """Every per-layer metric, from the spans (0 where a workload makes no such call)."""
    lay = spans.Layers(tracer.spans)
    rand_names = {"capacity.rand_capacity_distortion", "capacity.rand_feedback_capacity"}
    its = lay.attr_values(rand_names, "iterations")
    gaps = lay.attr_values({"op.rand_capacity_distortion", "op.rand_feedback_capacity",
                            "op.shannon_capacity_avg"}, "cert_gap")
    m = {
        "capacity.det_ms": lay.self_ms("capacity.det_capacity_distortion"),
        "capacity.rand_ms": lay.self_ms("capacity.rand_capacity_distortion"),
        "capacity.rand_p90_ms": lay.self_ms("capacity.rand_capacity_distortion", 90),
        "capacity.rand_free_ms": lay.self_ms("capacity.rand_feedback_capacity"),
        "capacity.shannon_ms": lay.self_ms("capacity.shannon_capacity_avg"),
        "capacity.fw_iterations_p50": float(np.median(its)) if its else 0.0,
        "capacity.fw_iterations_max": float(max(its, default=0)),
        "capacity.cert_gap_max": float(max(gaps, default=0.0)),
        "estimation.profile_ms": lay.self_ms("estimation.distortion_profile"),
        "coding.build_ms": lay.self_ms("coding.build_id_code"),
        "coding.coloring_us": 1000.0 * lay.self_ms("coding.IDFeedbackCode.coloring"),
    }
    for cfg in MC_CONFIGS:
        m[f"sim.trials_per_s.{cfg}"] = lay.rate("sim.monte_carlo", "trials", config=cfg)
    m["sim.exact_blocks_per_s"] = lay.rate("sim.exact_error_probabilities", "blocks")
    m["typicality.enum_blocks_per_s"] = lay.rate("typicality.enumerate_typical_set", "blocks")
    m["sim.grid_points_per_s"] = lay.rate("sim.grid_capacity_oracle", "points")
    m["sim.estimator_tables_per_s"] = lay.rate("sim.brute_force_estimator_distortion", "tables")
    m["channel.load_ms"] = lay.self_ms("channel.load_channel")
    for cmd in CLI_COMMANDS:
        m[f"cli.{cmd}_ms"] = lay.self_ms(f"cli.{cmd}")
    # End-to-end rates of each workload's own unit, from its untraced rounds.
    plain_s = sum(rounds[False])
    for unit, name in THROUGHPUT.items():
        m[name] = units[unit] / plain_s if plain_s else 0.0
    m["trace.overhead_s"] = float(np.median(rounds[True]) - np.median(rounds[False]))
    return m


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    tracer = spans.Tracer() if args.trace else None
    traced_calls, plain_calls = spans.Calls(tracer), spans.Calls(None)
    wl = workloads.WORKLOADS[args.workload](args.seed, traced_calls)
    setup_done = time.monotonic()
    setup_scale = PROBE_REFERENCE_S / float(np.median([probe() for _ in range(2 * PROBE_WINDOW)]))
    if tracer is not None:
        for rec in tracer.spans:
            rec["attrs"]["scale"] = setup_scale
    import idsense
    if not Path(idsense.__file__).resolve().is_relative_to(Path("src").resolve()):
        print(f"error: idsense imported from {idsense.__file__}, not ./src", file=sys.stderr)
        return 2
    if args.setup_only:
        wl.cleanup()
        print(json.dumps({"setup_done": setup_done, "scale": setup_scale}))
        return 0

    rounds: dict[bool, list[float]] = {False: [], True: []}    # scaled round times
    measured = 0.0
    latencies: list[list[float]] = [[] for _ in wl.ops]   # per operation, untraced rounds
    units: Counter = Counter()
    errors: Counter = Counter()
    problems: list[str] = []
    attempted = failed = 0
    r = 0
    while r < MIN_ROUNDS or measured < args.seconds:
        traced = bool(args.trace) and r % 2 == 1
        calls = traced_calls if traced else plain_calls
        state: dict = {}
        done = []
        took = []
        probes = [probe()]
        for i, op in enumerate(wl.ops):
            calls.op_id = f"r{r}.{i}"
            root = None
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.span("op." + op.kind, calls.op_id) as root:
                        out = op.run(calls, state)
                else:
                    out = op.run(calls, state)
                ok = True
            except Exception as exc:  # a failed operation is counted; the round goes on
                out, ok = exc, False
            took.append(time.perf_counter() - t0)
            probes.append(probe())
            done.append((op, ok, out, root))
        measured += sum(took)
        if r == 0:   # before any check allocates: import, set-up and one round of idsense
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scales = speed_scales(probes)
        rounds[traced].append(sum(sc * t for sc, t in zip(scales, took)))
        for i, (sc, t, (_, _, _, root)) in enumerate(zip(scales, took, done)):
            if traced:
                root["attrs"]["scale"] = sc
            else:
                latencies[i].append(sc * t)

        for op, ok, out, root in done:
            attempted += 1
            if not ok:
                failed += 1
                errors[f"{op.kind}: {type(out).__name__}"] += 1
                continue
            if not traced:
                units.update(op.units(out))
            try:
                attrs = op.check(out) or {}
            except oracle.CheckFailed as exc:
                problems.append(f"{op.kind}: {exc}")
                continue
            if root is not None:
                root["attrs"].update(attrs)
        r += 1
    wl.cleanup()

    if args.trace:
        workloads.OUT_DIR.mkdir(parents=True, exist_ok=True)
        tracer.dump(workloads.OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json")
        metrics = layer_metrics(tracer, rounds, units)
    else:
        # Each operation at its median over the rounds, so a burst of contention
        # on the shared machine moves no figure by more than its share.
        typical = [float(np.median(lat)) for lat in latencies]
        metrics = {
            "wall_s": sum(typical),
            "peak_rss_mb": peak_rss_mb,
            "op_p50_ms": 1000.0 * float(np.percentile(typical, 50)),
            "op_p90_ms": 1000.0 * float(np.percentile(typical, 90)),
        }
    for msg in problems[:20]:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"setup_done": setup_done, "scale": setup_scale, "correct": not problems, "attempted": attempted,
                      "failed": failed, "errors": dict(errors), "round_s": rounds[False],
                      "operations": len(wl.ops), "metrics": metrics,
                      "op_median_ms": {f"{i}.{op.kind}": 1000.0 * float(np.median(lat))
                                     for i, (op, lat) in enumerate(zip(wl.ops, latencies))}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
