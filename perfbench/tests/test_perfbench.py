"""Smoke tests of the benchmark harness at toy size.

    python3 -m pytest perfbench/tests
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import inputs  # noqa: E402
from child import self_times  # noqa: E402
from run import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int, seed: int = 1):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_inputs_follow_the_seed():
    assert inputs.generate(7) == inputs.generate(7)
    assert inputs.generate(7) != inputs.generate(8)
    text = inputs.generate(7)["map_point"]["config"]
    assert "grid = 256x128" in text and "pair = a" in text


def test_mirror_reverses_reference_regions():
    packed = checks.pack_regions("SSAN")
    assert checks.unpack_regions(packed, False) == "SSAN"
    assert checks.unpack_regions(packed, True) == "NASS"


def test_class_may_flip_only_near_delta():
    delta = 1e-6
    errors, near = checks.compare_regions("SA", [-2e-6, delta * (1 + 1e-9)], "SN", delta)
    assert errors == [] and near == 1
    errors, _ = checks.compare_regions("AN", [2e-6, 0.0], "SN", delta)
    assert errors == ["1 map cells changed class away from |ratio| = delta"]


def test_self_time_subtracts_direct_children():
    spans = [
        ["bench.pass", 0.0, 10.0, None, 0],
        ["mapgen.scan_map", 1.0, 7.0, 0, 0],
        ["config.parse_scenario", 7.0, 8.0, 0, 0],
    ]
    assert self_times(spans) == {"bench": 3.0, "mapgen": 6.0, "config": 1.0}


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_toy_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"] and result["attempted"] >= 1
    if workload != "quadrature_dist":
        assert result["failed"] == 0
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and math.isfinite(got["value"])
    assert not list(ROOT.glob(".perfbench-*")), "scratch directory left behind"


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run(tmp_path, "map_point", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
