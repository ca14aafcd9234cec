"""crackwake benchmark: two closed-loop workloads, timed end to end, plus
a per-layer run.

    python3 perfbench/run.py --workload map_point --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload quadrature_dist --seed 1 --seconds 20 --trace 1
    python3 perfbench/run.py --workload map_point --seed 1 --seconds 1 --trace 0 --toy

--trace 0 times whole passes, each in a fresh child interpreter, scales
the times to the host's speed (see timed_run) and reports the end-to-end
metrics.  --trace 1 reports the per-layer metrics: import times, per-call
times of each module's public functions, and an in-process traced run.
--toy shrinks every size so a run takes seconds.  Outputs of every pass
are checked against reference.json.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

Run it from anywhere inside a checkout: it times the crackwake under
<checkout>/src and writes only to a scratch directory in the checkout,
which it removes when done.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import inputs
from child import map_argv

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
WORKLOADS = ("map_point", "quadrature_dist")
CHILD_TIMEOUT_S = 170.0
MIN_PASSES = 3


class HarnessError(Exception):
    """The benchmark itself cannot run (as opposed to a failing program)."""


@dataclass
class Child:
    code: int
    wall_s: float
    rss_mb: float
    stderr: str


@dataclass
class Tally:
    """Operations attempted and failed, with the reasons of each failure."""

    attempted: int = 0
    failed: int = 0
    bad_output: int = 0
    reasons: dict = field(default_factory=dict)

    def record(self, name: str, errors: list, output: bool = True):
        """One operation; errors empty means it succeeded.  output=False
        marks a failure that is an exception, not a wrong output."""
        self.attempted += 1
        if errors:
            self.failed += 1
            self.bad_output += output
            for msg in errors:
                key = f"{name}: {msg}"
                self.reasons[key] = self.reasons.get(key, 0) + 1


class Context:
    """Paths, environment and inputs of one benchmark run."""

    def __init__(self, workload: str, seed: int, size: str, work: Path):
        self.workload = workload
        self.work = work
        self.inp = inputs.generate(seed, size)
        self.variant = self.inp["variant"]
        self.ref = checks.load_reference()[size]
        self.paths = inputs.write_scenarios(self.inp, work)
        self.inputs_json = work / "inputs.json"
        self.inputs_json.write_text(json.dumps({**self.inp, "paths": self.paths}))
        env = dict(os.environ)
        env.pop("CRACKWAKE_THREADS", None)
        env["PYTHONPATH"] = str(ROOT / "src")
        self.env = env

    def spawn(self, args, name="child") -> Child:
        """Run `python <args>` to exit; wall time and peak RSS of that child."""
        out, err = self.work / f"{name}.out", self.work / f"{name}.err"
        with open(out, "wb") as fo, open(err, "wb") as fe:
            t0 = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *args], env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=fo, stderr=fe)
            timer = threading.Timer(CHILD_TIMEOUT_S, os.kill, (proc.pid, signal.SIGKILL))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
        return Child(proc.returncode, wall, usage.ru_maxrss / 1024.0, err.read_text())


def _exit_errors(child: Child, what: str) -> list:
    if child.code == 0:
        return []
    tail = child.stderr.strip().splitlines()[-1:] or ["(no stderr)"]
    return [f"{what} exited {child.code}: {tail[0]}"]


# ------------------------------------------------------------- one pass


@dataclass
class Pass:
    wall_s: float
    rss_mb: float
    items: int


def run_pass(ctx: Context, tally: Tally) -> Pass:
    """One closed-loop pass of the workload in a fresh child interpreter."""
    if ctx.workload == "map_point":
        child = ctx.spawn(["-m", "crackwake.cli", *map_argv(ctx.paths)], "map")
        errors = _exit_errors(child, "crackwake map")
        rows = 0
        if not errors:
            errors, _, rows = _map_checks(ctx)
        tally.record("map", errors)
        return Pass(child.wall_s, child.rss_mb, rows)
    result_path = ctx.work / "quad.json"
    result_path.unlink(missing_ok=True)
    child = ctx.spawn([str(CHILD), "quad", str(ctx.inputs_json), str(result_path)], "quad")
    errors = _exit_errors(child, "quadrature driver")
    if not errors and not result_path.is_file():
        errors = ["quadrature driver wrote no result"]
    if errors:
        tally.record("quadrature driver", errors)
        return Pass(child.wall_s, child.rss_mb, 0)
    result = json.loads(result_path.read_text())
    _quad_checks(ctx, result, tally)
    return Pass(child.wall_s, child.rss_mb, sum(op["quad"] for op in result["ops"]))


def _map_checks(ctx: Context):
    """(errors, cells near delta, rows) of the map CSV and PGM."""
    mp = ctx.inp["map_point"]
    expected = checks.unpack_regions(ctx.ref["map_point"]["regions"], ctx.variant["mirror"])
    csv = Path(ctx.paths["map_csv"])
    errors, near, rows = checks.check_map_csv(csv, expected, mp["grid"], mp["delta"])
    errors += checks.check_map_pgm(csv.with_suffix(".pgm"), mp["grid"])
    return errors, near, rows


def _quad_checks(ctx: Context, result: dict, tally: Tally) -> int:
    failed, near = checks.check_quad(result, ctx.ref["quadrature_dist"], ctx.variant,
                                     inputs.MAP_DELTA)
    raised = {op["key"] for op in result["ops"] if "error" in op}
    for op in result["ops"]:
        tally.record(op["op"], failed.get(op["key"], []), output=op["key"] not in raised)
    return near


# ------------------------------------------------------------- timed run


def calib_s(ctx: Context) -> float:
    """Wall time of one calibration child: the host's current speed."""
    child = ctx.spawn([str(CHILD), "calib"], "calib")
    if child.code != 0:
        raise HarnessError(f"calibration child failed: {child.stderr.strip()}")
    return child.wall_s


def timed_run(ctx: Context, seconds: float):
    """End-to-end metrics of closed-loop passes, each after a fresh set-up.

    The host's speed drifts by tens of percent over minutes, alike for
    every child.  So a calibration child runs between loops, and each
    set-up and pass time is divided by the mean of the calibration times
    just before and just after it: the times read as seconds on a host
    where the calibration child takes one second.  Unscaled times are
    returned too, for the record.
    """
    tally = Tally()

    def setup() -> float:
        child = ctx.spawn([str(CHILD), "setup", ctx.workload, str(ctx.inputs_json)], "setup")
        tally.record("set-up", _exit_errors(child, "set-up"))
        return child.wall_s

    calib_s(ctx)  # warm-up, not counted: page cache and bytecode for the children below
    setup()
    cals, loops = [calib_s(ctx)], []
    t_end = time.perf_counter() + seconds
    while len(loops) < MIN_PASSES or time.perf_counter() < t_end:
        loops.append((setup(), run_pass(ctx, tally)))
        cals.append(calib_s(ctx))
    scale = [2 / (a + b) for a, b in zip(cals, cals[1:])]
    raw = {
        "unscaled wall_s": [p.wall_s for _, p in loops],
        "unscaled setup_s": [s for s, _ in loops],
        "calibration child": cals,
    }
    return tally, raw, {
        "wall_s": [p.wall_s * k for (_, p), k in zip(loops, scale)],
        "setup_s": [s * k for (s, _), k in zip(loops, scale)],
        "items_per_s": [p.items / (p.wall_s * k) for (_, p), k in zip(loops, scale)],
        "peak_rss_mb": [p.rss_mb for _, p in loops],
    }


# ------------------------------------------------------------- layer run


def layer_run(ctx: Context, seconds: float, toy: bool):
    """Per-layer metrics: imports, public-function timings, traced replay."""
    tally = Tally()
    reps = 1 if toy else 3
    metrics = {}
    interp = [ctx.spawn(["-c", "pass"], "interp").wall_s for _ in range(reps + 2)]
    metrics["import.interpreter_s"] = statistics.median(interp)
    metrics["host.calib_s"] = statistics.median(calib_s(ctx) for _ in range(reps))
    runs = []
    for _ in range(reps):
        out = ctx.work / "imports.json"
        child = ctx.spawn([str(CHILD), "imports", str(out)], "imports")
        if child.code != 0:
            raise HarnessError(f"import child failed: {child.stderr.strip()}")
        runs.append(json.loads(out.read_text()))
    for key in runs[0]:
        metrics[key] = statistics.median(r[key] for r in runs)

    out = ctx.work / "layers.json"
    child = ctx.spawn([str(CHILD), "layers", ctx.workload, str(ctx.inputs_json), str(ctx.work),
                       str(seconds), str(out)], "layers")
    if child.code != 0:
        raise HarnessError(f"layer child failed: {child.stderr.strip()}")
    layer = json.loads(out.read_text())
    metrics.update(layer["metrics"])

    # checks and work counts of the workload's last in-process replay
    wl = ctx.workload
    work = dict.fromkeys(("cells", "iterations", "rows_written", "bytes_written",
                          "oracle_calls", "station_terms_computed"), 0)
    near = 0
    if wl == "map_point":
        errors, near, rows = _map_checks(ctx)
        tally.record("map", errors)
        csv = Path(ctx.paths["map_csv"])
        work.update(cells=rows, rows_written=rows,
                    bytes_written=csv.stat().st_size + csv.with_suffix(".pgm").stat().st_size,
                    station_terms_computed=rows * 2 * ctx.inp["map_point"]["n_stations"])
    else:
        result = layer["quad"]
        near = _quad_checks(ctx, result, tally)
        d = ctx.inp["quadrature_dist"]
        prop = result["values"].get("propagate") or {"rows": 0}
        cells = d["map"]["grid"][0] * d["map"]["grid"][1]
        oracles = len(d["oracle_defects"])
        stations = len({x1 for x1, _, _ in d["forces"]})
        # gradient evaluations: map cells x 2 defects, iterations x defects,
        # closed form and oracle once per oracle defect
        grads = cells * 2 + prop["rows"] * len(d["prop_defects"]) + 2 * oracles
        work.update(cells=cells, iterations=prop["rows"],
                    oracle_calls=oracles + len(d["u0_points"]),
                    station_terms_computed=grads * stations)
    metrics["mapgen.cells_near_delta"] = near
    metrics["failed_ratio"] = tally.failed / tally.attempted
    for key, value in work.items():
        metrics[f"work.{key}"] = value
    return tally, metrics


# ------------------------------------------------------------- output


def _machine() -> dict:
    commit = "not a git checkout"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            commit = "unknown"
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            versions[pkg] = None
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions,
            "commit": commit, "platform": platform.platform()}


def _print_metric(name: str, values: list, unit: str):
    spread = ""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
        spread = f"  q1 {q1:.6g} q3 {q3:.6g} n {len(values)}"
    print(f"{name:<44} {statistics.median(values):>14.6g} {unit}{spread}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true", help="tiny sizes, runs in seconds")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crackwake" / "__init__.py").is_file():
        print(f"error: no crackwake sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 1
    size = "toy" if args.toy else "full"
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ctx = Context(args.workload, args.seed, size, work)
        raw = {}
        if args.trace:
            tally, values = layer_run(ctx, args.seconds, args.toy)
            samples = {name: [value] for name, value in values.items()}
        else:
            tally, raw, samples = timed_run(ctx, args.seconds)
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print("machine: " + json.dumps(_machine()))
    print(f"workload {args.workload}, seed {args.seed}, variant {ctx.variant}, size {size}")
    for reason, count in tally.reasons.items():
        print(f"failed x{count}: {reason}")
    for name, values in raw.items():
        _print_metric(name, values, "s")
    metrics = {}
    for m in spec["per_layer" if args.trace else "end_to_end"]:
        values = samples[m["name"]]
        _print_metric(m["name"], values, m["unit"])
        metrics[m["name"]] = {"value": statistics.median(values), "unit": m["unit"]}
    print(json.dumps({"correct": tally.bad_output == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
