"""Code that runs inside the benchmark's child interpreters.

    python child.py calib
    python child.py setup <workload> <inputs.json>
    python child.py quad <inputs.json> <result.json>
    python child.py imports <result.json>
    python child.py layers <workload> <inputs.json> <workdir> <seconds> <result.json>

`calib` is fixed work that never imports crackwake: its wall time is the
host's speed, against which the end-to-end times are scaled.
`setup` imports crackwake, builds the workload's inputs and exits (the
set-up time).  `quad` is one pass of the quadrature_dist library driver.
`imports` times the imports of numpy, scipy.integrate and crackwake in a
fresh interpreter.  `layers` times each module's public functions and
replays the workload in-process with and without spans.

Only the standard library is imported at module level, so `imports`
and `setup` start from a clean interpreter; crackwake comes from
PYTHONPATH, which the parent points at the checkout's src/.
"""

from __future__ import annotations

import contextlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

NULL_SPAN = contextlib.nullcontext()
# layers whose public functions the benchmark calls (and so wraps in spans)
TRACED_LAYERS = ("bench", "config", "loading", "tipfields", "perturbation", "propagation", "mapgen")


class Tracer:
    """In-memory spans: [name, start, end, parent index, pass id]."""

    def __init__(self, pass_id=0):
        self.spans = []
        self._stack = []
        self.pass_id = pass_id

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.pass_id])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()


class NullTracer:
    def span(self, name):
        return NULL_SPAN


def self_times(spans) -> dict:
    """Self time per layer (the name's prefix up to the first dot): each
    span's duration minus the durations of its direct children."""
    child_total = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_total[parent] += end - start
    out = {}
    for (name, start, end, _, _), inner in zip(spans, child_total):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - inner
    return out


# ---------------------------------------------------------------- inputs


def build_dist(d):
    """crackwake objects of the quadrature_dist inputs."""
    from crackwake import Bimaterial, DistributedLoad, Loading, PointForce

    bm = Bimaterial(*d["bimaterial"])
    table = d["table"]
    loading = Loading(
        tuple(PointForce(x1, face, p) for x1, face, p in d["forces"]),
        DistributedLoad(tuple(table["x"]), tuple(table["avg"]), tuple(table["jump"])),
    )
    return bm, loading, [_defect(df) for df in d["prop_defects"]], [
        _defect(df) for df in d["oracle_defects"]
    ]


def _defect(df):
    from crackwake import Defect

    keys = {"la": "l_a", "lb": "l_b", "mu_star": "mu_star", "kappa": "kappa"}
    kwargs = {keys[k]: v for k, v in df.items() if k in keys}
    return Defect(df["kind"], d=df["d"], phi=df["phi"], alpha=df["alpha"], **kwargs)


def map_argv(paths: dict) -> list[str]:
    """CLI arguments of one map_point pass."""
    return ["map", "--config", paths["map_cfg"], "--out", paths["map_csv"], "--pgm"]


# ---------------------------------------------------------------- passes


def quad_pass(d, tr) -> dict:
    """One pass of the quadrature_dist library driver.

    Every public call is one operation; an exception is recorded with its
    type and message, reported on stderr, and the pass carries on.
    """
    import crackwake as cw

    bm, loading, prop_defects, oracle_defects = build_dist(d)
    ops = []
    values = {}

    def call(name, key, fn, *args, quad=True, **kwargs):
        with tr.span(name):
            try:
                value = fn(*args, **kwargs)
            except Exception as exc:  # noqa: BLE001 - recorded as a failed operation
                msg = f"{type(exc).__name__}: {exc}"
                ops.append({"op": name, "key": key, "quad": quad, "error": msg})
                print(f"operation {name} failed: {msg}", file=sys.stderr)
                return None
        ops.append({"op": name, "key": key, "quad": quad})
        return value

    call("loading.check_balance", "balance", cw.check_balance, loading, quad=False)
    values["k0"] = call("tipfields.sif_k0", "k0", cw.sif_k0, loading, bm)
    values["a0"] = call("tipfields.coeff_a0", "a0", cw.coeff_a0, loading, bm)

    trace = call("propagation.propagate", "propagate", cw.propagate,
                 cw.CrackState(0.0, tuple(prop_defects), loading, bm),
                 max_iter=d["prop_max_iter"])
    if trace is not None:
        values["propagate"] = {"rows": len(trace.phi), "flag": int(trace.flags[-1]),
                               "elongation": trace.elongation,
                               "finite": bool(all(math.isfinite(v) for v in trace.phi))}

    m = d["map"]
    arrangement = cw.PairArrangement("a", l1=m["l1"], d1=m["d1"], d2=m["d2"])
    region_map = call("mapgen.scan_map", "map", cw.scan_map, arrangement, loading, bm,
                      grid=tuple(m["grid"]), delta=m["delta"])
    if region_map is not None:
        values["map"] = {
            "regions": "".join(cw.mapgen.REGION_LETTER[str(r)] for r in region_map.region.ravel()),
            "ratios": [float(r) for r in region_map.ratio.ravel()],
        }

    closed, oracle = [], []
    for i, df in enumerate(oracle_defects):
        closed.append(call("perturbation.delta_k_defect", f"closed{i}",
                           cw.delta_k_defect, df, loading, bm))
        oracle.append(call("perturbation.delta_k_defect_quadrature", f"oracle{i}",
                           cw.delta_k_defect_quadrature, df, loading, bm))
    values["closed"], values["oracle"] = closed, oracle
    values["u0"] = [
        call("tipfields.displacement_u0", f"u0_{i}", cw.displacement_u0, loading, bm, r, theta)
        for i, (r, theta) in enumerate(d["u0_points"])
    ]
    return {"ops": ops, "values": values}


def map_replay(paths, tr):
    """The map handler's public calls, as `crackwake map --out --pgm` makes them."""
    from crackwake import PairArrangement, parse_scenario, scan_map, write_map_csv, write_map_pgm

    text = Path(paths["map_cfg"]).read_text()
    with tr.span("config.parse_scenario"):
        sc = parse_scenario(text)
    p = sc.params
    mc = sc.defects[0]
    with tr.span("mapgen.PairArrangement"):
        arrangement = PairArrangement(p.pair, l1=mc.l_a, d1=mc.d, d2=sc.defects[1].d)
    with tr.span("mapgen.scan_map"):
        region_map = scan_map(arrangement, sc.loading, sc.bimaterial, grid=p.grid,
                              delta=p.delta, threads=p.threads)
    with open(paths["map_csv"], "w") as fh, tr.span("mapgen.write_map_csv"):
        write_map_csv(region_map, fh)
    with open(Path(paths["map_csv"]).with_suffix(".pgm"), "w") as fh, tr.span("mapgen.write_map_pgm"):
        write_map_pgm(region_map, fh)


def replay(workload, inp, paths, tr):
    """One in-process pass of the workload; returns the quad result if any."""
    with tr.span("bench.pass"):
        if workload == "map_point":
            map_replay(paths, tr)
        else:
            return quad_pass(inp["quadrature_dist"], tr)
    return None


# ---------------------------------------------------------------- modes


def mode_calib():
    """Interpreter start, the numpy and scipy.integrate imports, a
    pure-Python float loop, scipy quadrature of a Python integrand and
    small numpy operations: the mix the workloads spend their time in."""
    import numpy as np
    from scipy import integrate

    total = 0.0
    for i in range(600_000):
        total += math.sin(i * 1e-3)
    for k in range(1200):
        total += integrate.quad(lambda t, k=k: math.cos(k % 16 * t) / (1.0 + t * t), 0.0, 1.0)[0]
    a = np.linspace(0.0, 1.0, 64)
    for k in range(9000):
        total += float(np.dot(np.sin(a * k), a))
    if not math.isfinite(total):
        sys.exit("calibration sum is not finite")


def mode_setup(workload, inputs_path):
    from crackwake import parse_scenario

    inp = json.loads(Path(inputs_path).read_text())
    paths = inp["paths"]
    if workload == "map_point":
        parse_scenario(Path(paths["map_cfg"]).read_text())
    else:
        build_dist(inp["quadrature_dist"])


def mode_imports(out_path):
    t0 = time.perf_counter()
    import numpy  # noqa: F401

    t1 = time.perf_counter()
    import scipy.integrate  # noqa: F401

    t2 = time.perf_counter()
    import crackwake  # noqa: F401

    t3 = time.perf_counter()
    _check_source(Path(__file__).resolve().parent.parent)
    Path(out_path).write_text(json.dumps({
        "import.numpy_s": t1 - t0,
        "import.scipy_integrate_s": t2 - t1,
        "import.crackwake_s": t3 - t2,
    }))


def _timed(fn, n):
    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    return time.perf_counter() - t0


def per_call(fn, batch_s, batches=5):
    """Median seconds per call over batches of at least batch_s each."""
    n = 1
    while (t := _timed(fn, n)) < batch_s and n < 1 << 20:
        n *= 2
    return statistics.median([t / n] + [_timed(fn, n) / n for _ in range(batches - 1)])


def _median_s(fn, reps):
    return statistics.median(_timed(fn, 1) for _ in range(reps))


def layer_sweep(inp, work: Path, toy: bool) -> dict:
    """Per-call times of each module's public functions on the seed's inputs."""
    import crackwake as cw

    batch_s = 0.002 if toy else 0.05
    reps = 1 if toy else 3
    mp = inp["map_point"]
    sc = cw.parse_scenario(Path(inp["paths"]["map_cfg"]).read_text())
    bm, load = sc.bimaterial, sc.loading
    dist_bm, dist_load, prop_defects, oracles = build_dist(inp["quadrature_dist"])
    d = inp["quadrature_dist"]
    mc = sc.defects[0]
    points = [cw.FieldPoint(df.d, df.phi) for df in oracles]
    out = {}

    def mean_per_call(fn, items, batch=batch_s, batches=5):
        return statistics.fmean(per_call(lambda it=it: fn(it), batch, batches) for it in items)

    out["config.parse_scenario_us"] = 1e6 * per_call(lambda: cw.parse_scenario(mp["config"]), batch_s)
    out["config.dump_scenario_us"] = 1e6 * per_call(lambda: cw.dump_scenario(sc), batch_s)
    out["loading.decompose_us"] = 1e6 * per_call(lambda: cw.decompose(load), batch_s)
    out["loading.check_balance_us"] = 1e6 * per_call(lambda: cw.check_balance(load), batch_s)
    failed = 0
    for loading in (load, dist_load):
        try:
            cw.check_balance(loading)
        except Exception as exc:  # noqa: BLE001 - counted as a failed call
            print(f"loading.check_balance failed: {type(exc).__name__}: {exc}", file=sys.stderr)
            failed += 1
    out["loading.check_balance.failed"] = failed
    out["defects.dipole_matrix_us"] = 1e6 * mean_per_call(cw.dipole_matrix, oracles)

    out["tipfields.sif_k0_point_us"] = 1e6 * per_call(lambda: cw.sif_k0(load, bm), batch_s)
    out["tipfields.grad_u0_point_us"] = 1e6 * mean_per_call(lambda p: cw.grad_u0(load, bm, p), points)
    out["tipfields.sif_k0_dist_us"] = 1e6 * per_call(lambda: cw.sif_k0(dist_load, dist_bm), batch_s)
    out["tipfields.grad_u0_dist_us"] = 1e6 * mean_per_call(
        lambda p: cw.grad_u0(dist_load, dist_bm, p), points, batch=0.0, batches=reps)
    out["tipfields.displacement_u0_ms"] = 1e3 * mean_per_call(
        lambda rt: cw.displacement_u0(dist_load, dist_bm, *rt), d["u0_points"], batch=0.0, batches=reps)

    out["perturbation.delta_k_defect_point_us"] = 1e6 * mean_per_call(
        lambda df: cw.delta_k_defect(df, load, bm), oracles)
    out["perturbation.neutral_pair_a_us"] = 1e6 * per_call(lambda: cw.neutral_pair_a(mc), batch_s)
    out["perturbation.delta_k_remote_us"] = 1e6 * mean_per_call(
        lambda df: cw.delta_k_remote(df, bm), oracles)
    out["perturbation.delta_k_defect_dist_us"] = 1e6 * mean_per_call(
        lambda df: cw.delta_k_defect(df, dist_load, dist_bm), oracles, batch=0.0, batches=reps)
    out["perturbation.delta_k_defect_quadrature_ms"] = 1e3 * mean_per_call(
        lambda df: cw.delta_k_defect_quadrature(df, dist_load, dist_bm), oracles,
        batch=0.0, batches=reps)

    steady = cw.parse_scenario(Path(inp["paths"]["steady_cfg"]).read_text())
    state = cw.CrackState(0.0, steady.defects, steady.loading, steady.bimaterial)
    traces = []

    def run_steady():
        traces.append(cw.propagate(state, max_iter=steady.params.max_iter))

    t = _median_s(run_steady, reps)
    rows = len(traces[-1].phi)
    out["propagation.propagate_point_us_per_iter"] = 1e6 * t / rows
    trace_csv = work / "layer_trace.csv"

    def write_trace():
        with open(trace_csv, "w") as fh:
            cw.write_trace_csv(traces[-1], fh)

    out["propagation.write_trace_csv_us_per_row"] = 1e6 * _median_s(write_trace, reps) / rows
    dist_iter = min(10, d["prop_max_iter"])
    dist_state = cw.CrackState(0.0, tuple(prop_defects), dist_load, dist_bm)
    out["propagation.propagate_dist_ms_per_iter"] = 1e3 * _median_s(
        lambda: cw.propagate(dist_state, max_iter=dist_iter), reps) / dist_iter

    grid = (8, 4) if toy else (64, 32)
    cells = grid[0] * grid[1]
    arrangement = cw.PairArrangement("a", l1=mc.l_a, d1=mc.d, d2=sc.defects[1].d)
    maps = []

    def scan(threads):
        maps.append(cw.scan_map(arrangement, load, bm, grid=grid, delta=mp["delta"], threads=threads))

    one, two = [], []
    for _ in range(reps):  # alternate so drift hits both thread counts alike
        one.append(_timed(lambda: scan(1), 1))
        two.append(_timed(lambda: scan(2), 1))
    out["mapgen.scan_map_point_us_per_cell"] = 1e6 * statistics.median(one) / cells
    out["mapgen.scan_map_2thr_speedup"] = statistics.median(one) / statistics.median(two)
    map_csv = work / "layer_map.csv"

    def write_csv():
        with open(map_csv, "w") as fh:
            cw.write_map_csv(maps[-1], fh)

    def write_pgm():
        with open(map_csv.with_suffix(".pgm"), "w") as fh:
            cw.write_map_pgm(maps[-1], fh)

    out["mapgen.write_map_csv_us_per_row"] = 1e6 * per_call(write_csv, batch_s) / cells
    out["mapgen.write_map_pgm_us_per_cell"] = 1e6 * per_call(write_pgm, batch_s) / cells
    dist_grid = (2, 2) if toy else (4, 2)
    dist_arr = cw.PairArrangement("a", l1=d["map"]["l1"], d1=d["map"]["d1"], d2=d["map"]["d2"])
    out["mapgen.scan_map_dist_ms_per_cell"] = 1e3 * _median_s(
        lambda: cw.scan_map(dist_arr, dist_load, dist_bm, grid=dist_grid, delta=mp["delta"]),
        reps) / (dist_grid[0] * dist_grid[1])
    return out


def mode_layers(workload, inputs_path, workdir, seconds, out_path):
    import crackwake.cli

    inp = json.loads(Path(inputs_path).read_text())
    toy = inp["size"] == "toy"
    paths = inp["paths"]
    work = Path(workdir)
    t_start = time.perf_counter()
    metrics = layer_sweep(inp, work, toy)

    reps = 1 if toy else 3
    if workload == "quadrature_dist":
        inproc = _median_s(lambda: replay(workload, inp, paths, NullTracer()), reps)
    else:
        argv = map_argv(paths)

        def cli_pass():
            if crackwake.cli.main(argv) != 0:
                raise RuntimeError(f"in-process cli.main({argv}) failed")

        inproc = _median_s(cli_pass, reps)
    metrics["cli.main_inproc_s"] = inproc

    # traced run: alternate untraced and traced in-process passes
    plain, traced, selfs = [], [], []
    result = None
    n_spans = 0
    while len(traced) < reps or (time.perf_counter() - t_start < seconds and len(traced) < 50):
        t0 = time.perf_counter()
        replay(workload, inp, paths, NullTracer())
        plain.append(time.perf_counter() - t0)
        tr = Tracer(pass_id=len(traced))
        t0 = time.perf_counter()
        result = replay(workload, inp, paths, tr)
        traced.append(time.perf_counter() - t0)
        selfs.append(self_times(tr.spans))
        n_spans = len(tr.spans)
    for layer in TRACED_LAYERS:
        metrics[f"trace.self_ms.{layer}"] = 1e3 * statistics.median(s.get(layer, 0.0) for s in selfs)
    metrics["trace.overhead_ms"] = 1e3 * (statistics.median(traced) - statistics.median(plain))
    metrics["trace.spans"] = n_spans
    Path(out_path).write_text(json.dumps({"metrics": metrics, "quad": result}))


def _check_source(root: Path):
    """Refuse to time a crackwake that is not the checkout's own."""
    import crackwake

    src = (root / "src").resolve()
    if src not in Path(crackwake.__file__).resolve().parents:
        sys.exit(f"crackwake imported from {crackwake.__file__}, not from {src}")


def main(argv):
    mode = argv[0]
    if mode == "calib":
        mode_calib()
        return
    if mode == "imports":
        mode_imports(argv[1])
        return
    _check_source(Path(__file__).resolve().parent.parent)
    if mode == "setup":
        mode_setup(argv[1], argv[2])
    elif mode == "quad":
        inp = json.loads(Path(argv[1]).read_text())
        Path(argv[2]).write_text(json.dumps(quad_pass(inp["quadrature_dist"], NullTracer())))
    elif mode == "layers":
        mode_layers(argv[1], argv[2], argv[3], float(argv[4]), argv[5])
    else:
        sys.exit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
