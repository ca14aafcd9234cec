"""The schema of the trajectory files: a toy run of bench/trajectory.py,
and every committed BENCH_<n>.json.

    python3 -m pytest bench/tests
"""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SCRIPT = ROOT / "bench" / "trajectory.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COLD_COMMANDS = {"sif", "perturb", "propagate", "map --pgm"}
LAYERS = {"propagate_us_per_iter", "scan_map_us_per_cell"}


def check_quartiles(medians: dict, quartiles: dict) -> None:
    """A [q1, q3] pair beside each median, with q1 <= median <= q3."""
    assert set(quartiles) == set(medians)
    for name, (q1, q3) in quartiles.items():
        assert q1 <= medians[name] <= q3


def check_schema(bench: dict, number: float = math.inf) -> None:
    """A machine block, the settings and one row per tree: each workload's
    run.py result line, verbatim, and a positive cold start per command;
    in every file from BENCH_37 on, the positive layer rows and their
    repeat count, from BENCH_38 on the quartiles of each cold start and
    layer row, and from BENCH_39 on the bytecode cold starts and their
    quartiles.  number is the file's; a fresh run has all of them."""
    layers, quartiles, bytecode = number >= 37, number >= 38, number >= 39
    assert set(bench) == {"machine", "settings", "rows"}
    machine = bench["machine"]
    assert set(machine) == {"nproc", "python", "numpy", "scipy", "commit", "python_c_pass_ms"}
    assert machine["nproc"] >= 1 and machine["python_c_pass_ms"] > 0.0 and machine["commit"]
    settings = {"seed", "seconds", "toy", "cold_start_runs", "PYTHONDONTWRITEBYTECODE"}
    assert set(bench["settings"]) == (settings | {"layer_reps"} if layers else settings)
    assert bench["settings"]["seed"] == 1 and bench["settings"]["PYTHONDONTWRITEBYTECODE"] == "1"
    assert bench["rows"] and len({row["tree"] for row in bench["rows"]}) == len(bench["rows"])
    for row in bench["rows"]:
        keys = {"tree", "workloads", "cold_start_ms"} | ({"layers"} if layers else set())
        keys |= {"cold_start_iqr_ms", "layers_iqr"} if quartiles else set()
        assert set(row) == (keys | {"cold_start_bytecode_ms", "cold_start_bytecode_iqr_ms"} if bytecode else keys)
        if layers:
            assert set(row["layers"]) == LAYERS and all(value > 0.0 for value in row["layers"].values())
        if quartiles:
            check_quartiles(row["cold_start_ms"], row["cold_start_iqr_ms"])
            check_quartiles(row["layers"], row["layers_iqr"])
        assert set(row["workloads"]) == {w["name"] for w in SPEC["workloads"]}
        for line in row["workloads"].values():
            result = json.loads(line)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert {m["name"] for m in SPEC["end_to_end"]} <= set(result["metrics"])
        for mode in ("cold_start_ms", "cold_start_bytecode_ms") if bytecode else ("cold_start_ms",):
            assert set(row[mode]) == COLD_COMMANDS
            assert all(ms > 0.0 for ms in row[mode].values())
        if bytecode:
            check_quartiles(row["cold_start_bytecode_ms"], row["cold_start_bytecode_iqr_ms"])


def test_a_toy_run_writes_one_row_for_this_checkout(tmp_path):
    out = tmp_path / "BENCH_toy.json"
    subprocess.run([sys.executable, str(SCRIPT), "--write", str(out), "--seconds", "1", "--toy"],
                   check=True, capture_output=True, timeout=170)
    bench = json.loads(out.read_text())
    check_schema(bench)
    assert bench["settings"]["toy"] is True and bench["settings"]["cold_start_runs"] == 3
    assert bench["settings"]["layer_reps"] == 3
    assert [row["tree"] for row in bench["rows"]] == [bench["machine"]["commit"]]
    for line in bench["rows"][0]["workloads"].values():
        assert json.loads(line)["correct"] is True


def test_a_tree_without_sources_is_refused(tmp_path):
    proc = subprocess.run([sys.executable, str(SCRIPT), "--write", str(tmp_path / "x.json"), "--tree",
                           f"empty={tmp_path}"], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2 and "expected LABEL=DIR" in proc.stderr
    assert not (tmp_path / "x.json").exists()


@pytest.mark.parametrize("path", sorted(ROOT.glob("BENCH_*.json")), ids=lambda path: path.name)
def test_each_committed_trajectory_file_follows_the_schema(path):
    bench = json.loads(path.read_text())
    check_schema(bench, int(path.stem.removeprefix("BENCH_")))
    assert bench["settings"]["toy"] is False and bench["settings"]["cold_start_runs"] >= 10
