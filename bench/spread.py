"""Run workloads on several seeds and print each end-to-end metric's median
and spread (quartile distance over median), and the failed share.

    python3 bench/spread.py --seeds 1-10 [--workloads capacity_sweep,cli_batch] [--seconds N]

Runs bench/run.py one at a time from the root of the checkout; results go to
bench/out/spread-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def main() -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="a-b or a,b,c")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()
    if "-" in args.seeds:
        a, b = (int(v) for v in args.seeds.split("-"))
        seeds = list(range(a, b + 1))
    else:
        seeds = [int(v) for v in args.seeds.split(",")]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            proc = subprocess.run(["python3", "bench/run.py", "--workload", workload, "--seed",
                                   str(seed), "--seconds", str(args.seconds), "--trace", "0"],
                                  stdout=subprocess.PIPE, text=True, timeout=200)
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                return 1
            runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        Path("bench/out").mkdir(exist_ok=True)
        Path(f"bench/out/spread-{workload}.json").write_text(json.dumps(runs, indent=1))
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        print(f"{workload}: correct={all(r['correct'] for r in runs)} failed share={shares}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {name:12s} median {med:12.5g}  spread {(q3 - q1) / med:6.3f}  "
                  f"bound {bound}  min {min(values):.5g} max {max(values):.5g}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
