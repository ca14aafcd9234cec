"""Command-line front end: crackwake <cmd> --config <path> [options].

Exit status: 0 on success, 1 on configuration/validation errors, 2 on
numerical failures.  All numbers print with 9 significant digits.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

# every command parses a scenario; each handler imports what it runs
from .config import Scenario, ScenarioParams, dump_scenario, parse_scenario
from .errors import NumericalError, ValidationError

COMMANDS = ("dipole", "sif", "perturb", "propagate", "map", "neutral")


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".9g")  # +0.0 folds -0.0 into 0.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crackwake",
        description="Perturbation of Mode III interfacial crack-tip fields by small defects",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="scenario file path")
    parser.add_argument("--out", help="output file (CSV); stdout when omitted")
    parser.add_argument("--pgm", action="store_true", help="also write a PGM map (needs --out)")
    parser.add_argument("--grid", help="map grid as NxM (phi x alpha cells)")
    parser.add_argument("--delta", type=float, help="neutrality accuracy for map cells")
    parser.add_argument("--pair", choices=("a", "b"), help="companion arrangement rule")
    parser.add_argument("--max-iter", type=int, help="propagation iteration budget")
    parser.add_argument("--arrest-tol", type=float, help="propagation arrest threshold")
    parser.add_argument("--threads", type=int, help="ignored; kept so older command lines parse")
    parser.add_argument("--dump-config", action="store_true", help="print the canonical scenario and exit")
    return parser


def _merge_params(params: ScenarioParams, args) -> ScenarioParams:
    updates = {}
    if args.grid is not None:
        try:
            n_phi, n_alpha = (int(v) for v in args.grid.split("x"))
        except ValueError:
            raise ValidationError(f"--grid expects NxM, got {args.grid!r}") from None
        updates["grid"] = (n_phi, n_alpha)
    if args.delta is not None:
        updates["delta"] = args.delta
    if args.pair is not None:
        updates["pair"] = args.pair
    if args.max_iter is not None:
        updates["max_iter"] = args.max_iter
    if args.arrest_tol is not None:
        updates["arrest_tol"] = args.arrest_tol
    if args.out is not None:
        updates["out"] = args.out
    if args.pgm:
        updates["pgm"] = True
    if args.threads is not None:
        if args.threads < 1:
            raise ValidationError(f"--threads must be at least 1, got {args.threads}")
        updates["threads"] = args.threads
    if not updates:
        return params
    return replace(params, **updates)


def _first_microcrack(scenario: Scenario):
    if not scenario.defects:
        raise ValidationError("scenario has no defect blocks")
    defect = scenario.defects[0]
    if defect.kind != "microcrack":
        raise ValidationError(
            f"pair arrangements start from a microcrack, first defect is {defect.kind!r}"
        )
    return defect


def _cmd_dipole(scenario: Scenario, params: ScenarioParams, out) -> None:
    from .defects import dipole_matrix

    for i, defect in enumerate(scenario.defects, start=1):
        m = dipole_matrix(defect)
        out.write(f"defect {i}: {defect.kind}\n")
        out.write(f"  M11 = {_fmt(m.m11)}\n  M12 = {_fmt(m.m12)}\n  M22 = {_fmt(m.m22)}\n")


def _cmd_sif(scenario: Scenario, params: ScenarioParams, out) -> None:
    from .tipfields import coeff_a0, sif_k0

    out.write(f"K0 = {_fmt(sif_k0(scenario.loading, scenario.bimaterial))}\n")
    out.write(f"A0 = {_fmt(coeff_a0(scenario.loading, scenario.bimaterial))}\n")


def _cmd_perturb(scenario: Scenario, params: ScenarioParams, out) -> None:
    from .perturbation import delta_k_defect, delta_k_defect_quadrature
    from .propagation import CrackState, advance_increment
    from .tipfields import coeff_a0, sif_k0

    loading, bm = scenario.loading, scenario.bimaterial
    closed_values = []
    for i, defect in enumerate(scenario.defects, start=1):
        closed = delta_k_defect(defect, loading, bm)
        quad = delta_k_defect_quadrature(defect, loading, bm)
        closed_values.append(closed)
        out.write(f"defect {i}: {defect.kind}\n")
        out.write(f"  dK = {_fmt(closed)} (closed)\n  dK = {_fmt(quad)} (quadrature)\n")
    phi = advance_increment(CrackState(0.0, scenario.defects, loading, bm))
    out.write(f"dK_total = {_fmt(math.fsum(closed_values))}\n")
    out.write(f"K0 = {_fmt(sif_k0(loading, bm))}\nA0 = {_fmt(coeff_a0(loading, bm))}\n")
    out.write(f"phi = {_fmt(phi)}\n")


def _cmd_propagate(scenario: Scenario, params: ScenarioParams, out) -> None:
    from .propagation import CrackState, propagate, write_trace_csv

    state = CrackState(0.0, scenario.defects, scenario.loading, scenario.bimaterial)
    trace = propagate(state, max_iter=params.max_iter, arrest_tol=params.arrest_tol)
    write_trace_csv(trace, out)


def _cmd_map(scenario: Scenario, params: ScenarioParams, out) -> None:
    if params.pgm and params.out is None:
        raise ValidationError("--pgm needs --out to derive the image path")
    defect = _first_microcrack(scenario)
    from .mapgen import PairArrangement, scan_map, write_map_csv, write_map_pgm

    d2 = scenario.defects[1].d if len(scenario.defects) > 1 else None
    arrangement = PairArrangement(params.pair, l1=defect.l_a, d1=defect.d, d2=d2)
    region_map = scan_map(
        arrangement,
        scenario.loading,
        scenario.bimaterial,
        grid=params.grid,
        delta=params.delta,
        threads=params.threads,
    )
    write_map_csv(region_map, out)
    if params.pgm:
        pgm_path = Path(params.out).with_suffix(".pgm")
        with open(pgm_path, "w") as fh:
            write_map_pgm(region_map, fh)


def _cmd_neutral(scenario: Scenario, params: ScenarioParams, out) -> None:
    from .perturbation import neutral_pair_a, neutral_pair_b

    defect = _first_microcrack(scenario)
    if params.pair == "a":
        companion = neutral_pair_a(defect)
    else:
        companion = neutral_pair_b(defect, scenario.bimaterial)
    out.write(
        "defect { "
        f"kind = {companion.kind}, d = {_fmt(companion.d)}, phi = {_fmt(companion.phi)}, "
        f"alpha = {_fmt(companion.alpha)}, la = {_fmt(companion.l_a)}"
        " }\n"
    )


class _OpenOnFirstWrite:
    """A text file opened for writing by its first write.  The handlers
    write only once their result exists, so a command that fails before
    that leaves an existing file as it was; rows still stream to disk."""

    def __init__(self, path: str):
        self.path = path
        self.fh = None

    def write(self, text: str) -> int:
        self.fh = open(self.path, "w")
        self.write = self.fh.write  # later writes go straight to the file
        return self.write(text)

    def close(self) -> None:
        if self.fh is not None:
            self.fh.close()


_HANDLERS = {
    "dipole": _cmd_dipole,
    "sif": _cmd_sif,
    "perturb": _cmd_perturb,
    "propagate": _cmd_propagate,
    "map": _cmd_map,
    "neutral": _cmd_neutral,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 1
    try:
        scenario = parse_scenario(text)
        params = _merge_params(scenario.params, args)
        if params.threads != 1:
            print(
                f"warning: threads = {params.threads} is ignored; maps run in one vectorized pass",
                file=sys.stderr,
            )
        if args.dump_config:
            sys.stdout.write(dump_scenario(replace(scenario, params=params)))
            return 0
        handler = _HANDLERS[args.command]
        if params.out is not None and args.command in ("propagate", "map"):
            out = _OpenOnFirstWrite(params.out)
            try:
                handler(scenario, params, out)
            finally:
                out.close()
        else:
            handler(scenario, params, sys.stdout)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
