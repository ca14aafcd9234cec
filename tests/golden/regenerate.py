"""SHA-256 digests of crackwake's outputs on the scenarios in this directory.

    PYTHONPATH=src python tests/golden/regenerate.py
    PYTHONPATH=src python tests/golden/regenerate.py --show readme.propagate

The first rewrites digests.json from the outputs of the code on the path.
The second writes the bytes of the one output named to stdout and writes
no digest, so an output whose digest moved can be diffed line by line
against the same command run on the parent checkout.
tests/test_golden.py recomputes every output and compares its digest with
the committed one, so a change that moves one byte of an output fails
there until digests.json is regenerated, and the regeneration shows in
the diff.  Regenerate only for a change that moves bytes on purpose, and
name each digest that moved and why.

The outputs:
- stdout of dipole, sif, perturb, neutral (pairs a and b) and
  --dump-config, and the propagate trace CSV, on readme.cfg, the
  scenario of the README;
- stdout of dipole and --dump-config on kinds.cfg, one defect of each
  kind and a params block that sets every key;
- the map CSV and PGM of pairs a and b on map_seed1.cfg, map_seed5.cfg
  and map_seed10.cfg, the full-size map_point scenarios that
  perfbench/inputs.py generates for those seeds;
- the propagate trace CSV and a map CSV and PGM of table.json, point
  forces plus a tabulated load, through the library: the CLI has no
  table syntax.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
MAP_SEEDS = (1, 5, 10)


def _cli(*argv: str) -> bytes:
    """stdout of one in-process crackwake run, which must exit 0 and stay
    silent on stderr."""
    from crackwake.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    if code != 0 or err.getvalue():
        raise RuntimeError(f"crackwake {' '.join(argv)} exited {code}: {err.getvalue()}")
    return out.getvalue().encode()


def _readme_outputs() -> dict:
    cfg = str(HERE / "readme.cfg")
    out = {f"readme.{cmd}": _cli(cmd, "--config", cfg) for cmd in ("dipole", "sif", "perturb", "propagate")}
    for pair in ("a", "b"):
        out[f"readme.neutral_{pair}"] = _cli("neutral", "--config", cfg, "--pair", pair)
    out["readme.dump_config"] = _cli("sif", "--config", cfg, "--dump-config")
    return out


def _kinds_outputs() -> dict:
    cfg = str(HERE / "kinds.cfg")
    return {"kinds.dipole": _cli("dipole", "--config", cfg),
            "kinds.dump_config": _cli("sif", "--config", cfg, "--dump-config")}


def _map_outputs() -> dict:
    out = {}
    with tempfile.TemporaryDirectory() as tmp:
        csv = Path(tmp) / "map.csv"
        for seed in MAP_SEEDS:
            for pair in ("a", "b"):
                _cli("map", "--config", str(HERE / f"map_seed{seed}.cfg"), "--pair", pair,
                     "--out", str(csv), "--pgm")
                out[f"map_seed{seed}.{pair}.csv"] = csv.read_bytes()
                out[f"map_seed{seed}.{pair}.pgm"] = csv.with_suffix(".pgm").read_bytes()
    return out


def _table_outputs() -> dict:
    import crackwake as cw

    spec = json.loads((HERE / "table.json").read_text())
    bm = cw.Bimaterial(*spec["bimaterial"])
    forces = tuple(cw.PointForce(*f) for f in spec["forces"])
    loading = cw.check_balance(cw.Loading(forces, cw.DistributedLoad(**spec["table"])))
    defects = tuple(cw.Defect(**df) for df in spec["defects"])
    trace = cw.propagate(cw.CrackState(0.0, defects, loading, bm), max_iter=spec["max_iter"])
    m = spec["map"]
    arrangement = cw.PairArrangement(m["pair"], l1=m["l1"], d1=m["d1"], d2=m["d2"])
    region_map = cw.scan_map(arrangement, loading, bm, grid=tuple(m["grid"]), delta=m["delta"])
    out = {}
    for name, write, value in (("table.propagate", cw.write_trace_csv, trace),
                               ("table.map.csv", cw.write_map_csv, region_map),
                               ("table.map.pgm", cw.write_map_pgm, region_map)):
        buf = io.StringIO()
        write(value, buf)
        out[name] = buf.getvalue().encode()
    return out


def outputs() -> dict:
    """The bytes of every output, by name."""
    return {**_readme_outputs(), **_kinds_outputs(), **_map_outputs(), **_table_outputs()}


def digests() -> dict:
    """The SHA-256 hex digest of every output, by name."""
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs().items())}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Rewrite digests.json, or show one output.")
    parser.add_argument("--show", metavar="NAME", help="write output NAME to stdout instead; no digest is written")
    args = parser.parse_args()
    if args.show is None:
        DIGESTS.write_text(json.dumps(digests(), indent=1) + "\n")
        print(f"wrote {DIGESTS}")
    else:
        everything = outputs()
        if args.show not in everything:
            parser.error(f"no output named {args.show!r}; the names are {', '.join(sorted(everything))}")
        sys.stdout.buffer.write(everything[args.show])
