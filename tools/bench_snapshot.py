"""Summarize benchmark result files into one committed snapshot, BENCH_<label>.json.

Run from the root of the checkout whose code the results measured:

    python3 tools/bench_snapshot.py --label main bench/out/result-*-trace0.json

Each argument is a `bench/out/result-<workload>-seed<seed>-trace<0|1>.json`
file written by `bench/run.py`.  Two files of the same workload, seed and
trace flag (say, a parent's and a change's) are refused with exit 2, so the
runs of two trees are never pooled.  Per workload the snapshot keeps the
median and quartiles (`statistics.quantiles(values, n=4)`) of every metric
of the untraced runs (the end-to-end metrics), the medians of the traced
runs (the per-layer metrics), the seeds, and how many runs were correct and
how many operations failed.  It also records the commit (with `-dirty` when the
working tree differs from it), the machine, and the Python and numpy
versions.  Only the standard library is used.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path

NAME = re.compile(r"result-(?P<workload>\w+)-seed(?P<seed>-?\d+)-trace(?P<trace>[01])\.json$")


def _commit() -> str:
    try:
        return subprocess.run(["git", "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def _cpu() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _version(package: str) -> str:
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return "not installed"


def _summary(values: list[float], quartiles: bool) -> dict:
    out = {"median": statistics.median(values)}
    if quartiles:
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out.update(q1=q1, q3=q3)
    return out


def snapshot(label: str, files: list[Path]) -> dict:
    runs: dict[str, dict[str, list]] = {}
    seen: dict[tuple, Path] = {}
    for path in files:
        match = NAME.search(path.name)
        if match is None:
            raise ValueError(f"{path}: not a bench/out result file")
        key = match.group("workload", "seed", "trace")
        if key in seen:
            raise ValueError(f"{path} and {seen[key]} are the same run, of two trees or "
                             "copies; summarize one checkout's runs at a time")
        seen[key] = path
        result = json.loads(path.read_text())
        kind = "per_layer" if match["trace"] == "1" else "end_to_end"
        runs.setdefault(match["workload"], {}).setdefault(kind, []).append(
            (int(match["seed"]), result))
    workloads = {}
    for workload, kinds in sorted(runs.items()):
        entry = {}
        for kind, results in sorted(kinds.items()):
            names = sorted({m for _, r in results for m in r["metrics"]})
            entry[kind] = {
                "seeds": sorted(seed for seed, _ in results),
                "runs": len(results),
                "correct_runs": sum(bool(r["correct"]) for _, r in results),
                "failed_ops": sum(r["failed"] for _, r in results),
                "attempted_ops": sum(r["attempted"] for _, r in results),
                "metrics": {
                    name: dict(_summary([r["metrics"][name]["value"] for _, r in results
                                         if name in r["metrics"]], kind == "end_to_end"),
                               unit=results[0][1]["metrics"][name]["unit"])
                    for name in names},
            }
        workloads[workload] = entry
    return {
        "label": label,
        "commit": _commit(),
        "machine": {"cpu": _cpu(), "cores": os.cpu_count(), "system": platform.system(),
                    "arch": platform.machine()},
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "workloads": workloads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True, help="snapshot name: writes BENCH_<label>.json")
    ap.add_argument("files", nargs="+", type=Path, help="bench/out result files")
    args = ap.parse_args()
    if not re.fullmatch(r"[\w.-]+", args.label):
        print(f"error: label {args.label!r} must be letters, digits, '_', '.' or '-'",
              file=sys.stderr)
        return 2
    try:
        data = snapshot(args.label, args.files)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    path = Path(f"BENCH_{args.label}.json")
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
