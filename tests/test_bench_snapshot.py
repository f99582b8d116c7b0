import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_snapshot.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_snapshot", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_result(directory: Path, workload: str, seed: int, trace: int,
                 metrics: dict, failed: int = 0) -> Path:
    path = directory / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps({
        "correct": failed == 0, "attempted": 10, "failed": failed,
        "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}))
    return path


def test_medians_quartiles_and_counts(tool, tmp_path):
    files = [write_result(tmp_path, "capacity_sweep", seed, 0, {"wall_s": wall})
             for seed, wall in ((1, 4.0), (2, 1.0), (3, 3.0), (4, 2.0))]
    files.append(write_result(tmp_path, "capacity_sweep", 5, 1, {"capacity.rand_ms": 7.0}))
    files.append(write_result(tmp_path, "cli_batch", 1, 0, {"wall_s": 0.5}, failed=2))
    snap = tool.snapshot("x", files)
    sweep = snap["workloads"]["capacity_sweep"]
    wall = sweep["end_to_end"]["metrics"]["wall_s"]
    assert (wall["median"], wall["q1"], wall["q3"]) == (2.5, 1.25, 3.75)
    assert sweep["end_to_end"]["seeds"] == [1, 2, 3, 4]
    assert sweep["per_layer"]["metrics"]["capacity.rand_ms"] == {"median": 7.0, "unit": "s"}
    cli = snap["workloads"]["cli_batch"]["end_to_end"]
    assert (cli["correct_runs"], cli["failed_ops"], cli["attempted_ops"]) == (0, 2, 10)
    assert cli["metrics"]["wall_s"]["q1"] == cli["metrics"]["wall_s"]["q3"] == 0.5
    assert {"commit", "machine", "python", "numpy"} <= set(snap)


def test_rejects_other_files(tool, tmp_path):
    other = tmp_path / "spread-cli_batch.json"
    other.write_text("{}")
    with pytest.raises(ValueError):
        tool.snapshot("x", [other])


def test_refuses_one_run_twice(tool, tmp_path, monkeypatch, capsys):
    # a parent's and a change's result file of one workload and seed would be pooled
    files = []
    for tree, wall in (("parent", 0.2), ("change", 0.3)):
        (tmp_path / tree).mkdir()
        files.append(write_result(tmp_path / tree, "monte_carlo", 5, 0, {"wall_s": wall}))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr("sys.argv", ["bench_snapshot.py", "--label", "x", *map(str, files)])
    assert tool.main() == 2
    assert "same run" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_x.json").exists()
