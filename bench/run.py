"""Run one workload of the idsense benchmark and print its metrics.

From the root of an idsense checkout:

    python3 bench/run.py --workload capacity_sweep --seed 1 --seconds 16 --trace 0

Each run starts fresh interpreters (bench/worker.py) with one thread and the
BLAS thread pools held to 1, with idsense imported from ./src.  With
--trace 0 it prints every end-to-end metric: set-up time is the median of
SETUP_SAMPLES interpreter starts, from spawn to inputs ready.  With
--trace 1 it prints every per-layer metric, from spans around each call
into idsense.  The last line of standard output is one JSON object; the
same object, and the trace, are written under bench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("capacity_sweep", "monte_carlo", "exact_oracle", "cli_batch")
SETUP_SAMPLES = 3
RUN_LIMIT_S = 170.0
WORKER = "bench/worker.py"
OUT_DIR = Path("bench/out")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def _spawn(args: list[str], env: dict, deadline: float) -> dict:
    proc = subprocess.run([sys.executable, WORKER] + args, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/idsense/__init__.py").is_file() or not Path(WORKER).is_file():
        print("error: run from the root of an idsense checkout (src/idsense/ and bench/ "
              "not found here)", file=sys.stderr)
        return 2
    spec = json.loads(Path("BENCHMARK.json").read_text())
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join(filter(None, ["src", os.environ.get("PYTHONPATH")])))
    env.update({var: "1" for var in THREAD_VARS})
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setup = []
    try:
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                t0 = time.monotonic()
                child = _spawn(common + ["--setup-only"], env, deadline)
                setup.append(child["scale"] * (child["setup_done"] - t0))
        t0 = time.monotonic()
        res = _spawn(common, env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    setup.append(res["scale"] * (res["setup_done"] - t0))

    metrics = dict(res["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    missing = {m["name"] for m in listed} ^ set(metrics)
    if missing:
        print(f"error: metrics {sorted(missing)} differ from BENCHMARK.json", file=sys.stderr)
        return 1
    result = {"correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = dict(result, errors=res["errors"], round_s=res["round_s"],
                  operations=res["operations"], setup_samples_s=setup,
                  op_median_ms=res["op_median_ms"])
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
