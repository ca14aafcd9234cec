"""One row of the performance trajectory per source tree, written to a
BENCH_<n>.json file.

    python3 bench/trajectory.py --write BENCH_<n>.json [--seconds S] [--toy]
    python3 bench/trajectory.py --write BENCH_<n>.json --tree old=<dir> --tree new=.

The file holds a machine block (nproc, Python, numpy, scipy, the commit of
this checkout and the median start of `python -c pass`) and one row per
tree:

- for each workload of BENCHMARK.json, the last stdout line of the tree's
  own `perfbench/run.py --workload W --seed 1 --seconds S --trace 0`,
  copied verbatim;
- the median cold start, in ms, of `sif`, `perturb` and `propagate` on
  tests/golden/readme.cfg and of `map --pgm` on tests/golden/map_seed1.cfg,
  in two modes: `cold_start_ms` (source) and `cold_start_bytecode_ms`;
- two in-process layer rows: `propagate` on readme.cfg in us per
  iteration, and the `scan_map` of map_seed1.cfg (its grid and companion
  d2, as `crackwake map` builds them) in us per cell;
- beside each median, the first and third quartiles over the same rounds,
  as [q1, q3]: `cold_start_iqr_ms` and `cold_start_bytecode_iqr_ms` per
  command and `layers_iqr` per layer, so two rows can be told apart from
  the host's noise.

A cold start is one fresh interpreter running `python -m crackwake.cli`
with PYTHONDONTWRITEBYTECODE=1 on a copy of the tree's src/ that holds no
__pycache__.  In the source mode crackwake is compiled from source on
every run while the standard library keeps its bytecode.  In the bytecode
mode every run reads its bytecode under a PYTHONPYCACHEPREFIX in the
script's scratch directory, which one untimed run per tree and command
with bytecode writing on has filled; the difference between the two modes
is each command's compile cost.  The runs of every tree, mode and command
and of `python -c pass` are interleaved, COLD_RUNS rounds of them (3 with
--toy), so a drift of the host's speed reaches every figure alike.  Both
trees read this checkout's scenario files.  --toy passes --toy to run.py.
A --tree is a directory holding src/crackwake and perfbench/run.py, for
instance an extracted `git archive`; the default is this checkout.

A layer row is the median over the same number of interleaved rounds.
Each round runs one fresh child interpreter per tree, with that tree's
src/ on the path, which calls each layer once to warm up and then
LAYER_REPS times (3 with --toy), and reports the median of those calls.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
COLD_RUNS, TOY_COLD_RUNS = 21, 3
LAYER_REPS, TOY_LAYER_REPS = 25, 3
SEED = 1
# One round of the layer rows in a child interpreter: argv is readme.cfg, map_seed1.cfg and the repeat count.
LAYER_CHILD = """
import json, statistics, sys, time, warnings
from crackwake import CrackState, PairArrangement, parse_scenario, propagate, scan_map

warnings.simplefilter("ignore")
readme, seed1 = (parse_scenario(open(path, encoding="utf-8").read()) for path in sys.argv[1:3])
state = CrackState(0.0, readme.defects, readme.loading, readme.bimaterial)
first, second = seed1.defects[:2]
arrangement = PairArrangement(seed1.params.pair, l1=first.l_a, d1=first.d, d2=second.d)

def propagate_us_per_iter():
    t0 = time.perf_counter()
    trace = propagate(state, max_iter=readme.params.max_iter, arrest_tol=readme.params.arrest_tol)
    return 1e6 * (time.perf_counter() - t0) / len(trace.phi)

def scan_map_us_per_cell():
    t0 = time.perf_counter()
    region_map = scan_map(arrangement, seed1.loading, seed1.bimaterial, grid=seed1.params.grid,
                          delta=seed1.params.delta)
    return 1e6 * (time.perf_counter() - t0) / len(region_map.ratios)

layers = (propagate_us_per_iter, scan_map_us_per_cell)
for layer in layers:  # warm up: the lazy imports and each Loading's split
    layer()
times = {layer.__name__: [] for layer in layers}
for _ in range(int(sys.argv[3])):
    for layer in layers:
        times[layer.__name__].append(layer())
print(json.dumps({name: statistics.median(values) for name, values in times.items()}))
"""


def cold_commands(out_csv: Path) -> dict:
    """The CLI argument lists timed from a cold start, by name."""
    readme, seed1 = str(GOLDEN / "readme.cfg"), str(GOLDEN / "map_seed1.cfg")
    return {
        "sif": ["sif", "--config", readme],
        "perturb": ["perturb", "--config", readme],
        "propagate": ["propagate", "--config", readme],
        "map --pgm": ["map", "--config", seed1, "--out", str(out_csv), "--pgm"],
    }


def _git(*args) -> str:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, timeout=30,
                              check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return ""


def commit() -> str:
    """This checkout's commit, with "-dirty" when the tree differs from it."""
    head = _git("rev-parse", "HEAD") or "not a git checkout"
    return head + "-dirty" if _git("status", "--porcelain", "--untracked-files=no") else head


def _timed_ms(argv: list, env: dict) -> float:
    """Wall time of one child interpreter, in ms; RuntimeError unless it exits 0."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *argv], env=env, stdin=subprocess.DEVNULL, capture_output=True,
                          timeout=300)
    ms = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.decode()[-500:]}")
    return ms


def _medians_and_quartiles(samples: dict) -> tuple[dict, dict]:
    """{name: median} and {name: [q1, q3]} of samples, {name: values}."""
    quartiles = {name: statistics.quantiles(values, n=4, method="inclusive") for name, values in samples.items()}
    return ({name: statistics.median(values) for name, values in samples.items()},
            {name: [q[0], q[2]] for name, q in quartiles.items()})


def cold_starts(trees: dict, runs: int, work: Path) -> tuple[float, dict]:
    """Median ms of `python -c pass`, and per tree and mode ("source",
    "bytecode") the medians and quartiles, in ms, of each cold command,
    over runs interleaved rounds."""
    commands = cold_commands(work / "map.csv")
    base = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    base["PYTHONDONTWRITEBYTECODE"] = "1"
    envs = {}
    for label, tree in trees.items():
        src = work / f"src{len(envs)}"
        shutil.copytree(tree / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        source = {**base, "PYTHONPATH": str(src)}
        bytecode = {**source, "PYTHONPYCACHEPREFIX": str(work / f"pycache{len(envs)}")}
        writing = {key: value for key, value in bytecode.items() if key != "PYTHONDONTWRITEBYTECODE"}
        for argv in commands.values():  # untimed: fills the prefix with the bytecode the command reads
            _timed_ms(["-m", "crackwake.cli", *argv], writing)
        envs[label] = {"source": source, "bytecode": bytecode}
    bare, times = [], {(label, mode): {name: [] for name in commands} for label in trees for mode in envs[label]}
    for _ in range(runs):
        bare.append(_timed_ms(["-c", "pass"], base))
        for label, modes in envs.items():
            for name, argv in commands.items():
                for mode, env in modes.items():
                    times[label, mode][name].append(_timed_ms(["-m", "crackwake.cli", *argv], env))
    return statistics.median(bare), {key: _medians_and_quartiles(row) for key, row in times.items()}


def layer_rows(trees: dict, rounds: int, reps: int) -> dict:
    """Per tree, the medians and quartiles of each LAYER_CHILD figure over
    rounds interleaved rounds, one fresh child interpreter per tree and
    round."""
    base = {key: value for key, value in os.environ.items() if not key.startswith("PYTHON")}
    argv = [sys.executable, "-c", LAYER_CHILD, str(GOLDEN / "readme.cfg"), str(GOLDEN / "map_seed1.cfg"), str(reps)]
    figures = {label: [] for label in trees}
    for _ in range(rounds):
        for label, tree in trees.items():
            env = {**base, "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(tree / "src")}
            proc = subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                raise RuntimeError(f"layer rows of {label} exited {proc.returncode}: {proc.stderr[-500:]}")
            figures[label].append(json.loads(proc.stdout.splitlines()[-1]))
    return {label: _medians_and_quartiles({name: [row[name] for row in rows] for name in rows[0]})
            for label, rows in figures.items()}


def workload_line(tree: Path, workload: str, seconds: float, toy: bool) -> str:
    """The last stdout line of the tree's perfbench/run.py on workload."""
    argv = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload, "--seed", str(SEED),
            "--seconds", f"{seconds:g}", "--trace", "0", *(["--toy"] if toy else [])]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True, timeout=600 + 4 * seconds)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} on {tree} exited {proc.returncode}: {proc.stderr[-500:]}")
    return lines[-1]


def machine(pass_ms: float) -> dict:
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions, "commit": commit(),
            "python_c_pass_ms": pass_ms}


def _tree(text: str) -> tuple[str, Path]:
    label, eq, path = text.rpartition("=")
    tree = Path(path).resolve()
    if not (eq and label and (tree / "src" / "crackwake").is_dir() and (tree / "perfbench" / "run.py").is_file()):
        raise argparse.ArgumentTypeError(f"expected LABEL=DIR, DIR with src/crackwake and perfbench/run.py: {text!r}")
    return label, tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", required=True, type=Path, help="the BENCH_<n>.json file to write")
    parser.add_argument("--seconds", type=float, help="run.py --seconds (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--toy", action="store_true", help="toy workload sizes and fewer cold starts")
    parser.add_argument("--tree", type=_tree, action="append", metavar="LABEL=DIR",
                        help="a source tree to measure, one row each (default: this checkout)")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    trees = dict(args.tree or [(commit(), ROOT)])
    runs = TOY_COLD_RUNS if args.toy else COLD_RUNS
    reps = TOY_LAYER_REPS if args.toy else LAYER_REPS
    with tempfile.TemporaryDirectory(prefix="trajectory-") as work:
        pass_ms, cold = cold_starts(trees, runs, Path(work))
    layers = layer_rows(trees, runs, reps)
    rows = [{"tree": label, "workloads": {}, "cold_start_ms": cold[label, "source"][0],
             "cold_start_iqr_ms": cold[label, "source"][1], "cold_start_bytecode_ms": cold[label, "bytecode"][0],
             "cold_start_bytecode_iqr_ms": cold[label, "bytecode"][1], "layers": layers[label][0],
             "layers_iqr": layers[label][1]} for label in trees]
    for workload in (w["name"] for w in spec["workloads"]):  # the trees alternate within each workload
        for row, tree in zip(rows, trees.values()):
            row["workloads"][workload] = workload_line(tree, workload, seconds, args.toy)
    result = {"machine": machine(pass_ms),
              "settings": {"seed": SEED, "seconds": seconds, "toy": args.toy, "cold_start_runs": runs,
                           "layer_reps": reps, "PYTHONDONTWRITEBYTECODE": "1"},
              "rows": rows}
    args.write.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
