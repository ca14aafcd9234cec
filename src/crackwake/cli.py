"""Command-line front end: crackwake <cmd> --config <path> [options].

Exit status: 0 on success, 1 on configuration/validation errors and on an
output that cannot be written, 2 on numerical failures, any arithmetic
failure (an overflow, a division by zero) among them.  All numbers print
with 9 significant digits.
"""

from __future__ import annotations

import gc
import os
import sys
import warnings
from pathlib import Path

# every command parses a scenario; each handler imports what it runs
from .config import Scenario, _apply_params, dump_scenario, parse_scenario
from .defects import DILUTENESS_RATIO
from .errors import DilutenessWarning, NumericalError, ValidationError

PARAMS_FLAGS = ("grid", "delta", "max_iter", "arrest_tol", "pair", "out", "pgm")  # spelled as params keys
FLAGS = ("--config", *("--" + key.replace("_", "-") for key in PARAMS_FLAGS), "--dump-config", "--help")
SWITCHES = ("--pgm", "--dump-config", "--help")  # every other flag takes a value
USAGE = """usage: crackwake {dipole,sif,perturb,propagate,map,neutral} --config PATH
                 [--grid NxM] [--delta F] [--max-iter N] [--arrest-tol F]
                 [--pair a|b] [--out PATH] [--pgm] [--dump-config] [-h]
"""


def _fmt(value: float) -> str:
    return format(float(value) + 0.0, ".9g")  # +0.0 folds -0.0 into 0.0


def _parse_args(argv) -> dict:
    """The command and flag values of argv by key: "command", and each
    flag's name without "--" and with "_" for "-" ("true" for a switch).
    A flag is its name or a unique prefix, either with "=value"; a value
    flag otherwise takes the next argument unless that starts with "--".
    A later flag wins; -h or --help returns {"help": "true"} at once."""
    args, extras, rest = {}, [], iter(argv)
    for arg in rest:
        name, eq, value = ("--help" if arg == "-h" else arg).partition("=")
        flags = [name] if name in FLAGS else [flag for flag in FLAGS if name.startswith("--") and flag.startswith(name)]
        if len(flags) > 1:
            raise ValidationError(f"ambiguous option: {arg} could match {', '.join(flags)}")
        if not flags:  # the command, or an argument outside the grammar
            if "command" in args or name.startswith("--"):
                extras.append(arg)
            elif arg in COMMANDS:
                args["command"] = arg
            else:
                raise ValidationError(f"argument command: invalid choice: {arg!r} (choose from {', '.join(COMMANDS)})")
            continue
        flag = flags[0]
        if flag in SWITCHES:
            if eq:
                raise ValidationError(f"argument {flag}: ignored explicit argument {value!r}")
            value = "true"
        elif not eq:
            value = next(rest, "--")  # a missing value fails as one that starts with "--"
            if value.startswith("--"):
                raise ValidationError(f"argument {flag}: expected one argument")
        args[flag[2:].replace("-", "_")] = value
        if flag == "--help":
            return args
    missing = [name for name in ("command", "--config") if name.lstrip("-") not in args]
    if missing:
        raise ValidationError(f"the following arguments are required: {', '.join(missing)}")
    if extras:
        raise ValidationError(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _write(writer, result, path: str | None, out) -> None:
    """writer(result, out), or into the file at path when one is given:
    opened only now that result exists, so a command that fails leaves an
    existing file as it was, and rows still stream to disk."""
    if path is None:
        writer(result, out)
    else:
        with open(path, "w") as fh:
            writer(result, fh)


def _check_out(path: str | None) -> None:
    """Refuse, before any work, an --out for propagate or map that names a directory."""
    if path is not None and (os.path.basename(path) in ("", ".", "..") or os.path.isdir(path)):
        raise ValidationError(f"--out needs to name a file, not the directory {path!r}")


def _first_microcrack(scenario: Scenario):
    if not scenario.defects:
        raise ValidationError("scenario has no defect blocks")
    defect = scenario.defects[0]
    if defect.kind != "microcrack":
        raise ValidationError(f"pair arrangements start from a microcrack, first defect is {defect.kind!r}")
    return defect


def _run(command, scenario: Scenario, out) -> None:
    """command(scenario, out) on the run's one scenario, flags applied to its params, holding back the
    DilutenessWarning of each defect it builds, as each scenario defect warned at its line: a companion
    not dilute beside a dilute microcrack warns once."""
    with warnings.catch_warnings(record=True) as caught:
        command(scenario, out)
    held = [w.message for w in caught if w.category is DilutenessWarning]
    for w in caught:
        if w.category is not DilutenessWarning:
            warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    if held and scenario.defects[0].l_a / scenario.defects[0].d <= DILUTENESS_RATIO:
        warnings.warn_explicit(f"pair {scenario.params.pair} companion: {held[0]}", DilutenessWarning, "scenario", 0)


def _cmd_dipole(scenario: Scenario, out) -> None:
    from .defects import dipole_matrix

    for i, defect in enumerate(scenario.defects, start=1):
        m = dipole_matrix(defect)
        out.write(f"defect {i}: {defect.kind}\n")
        out.write(f"  M11 = {_fmt(m.m11)}\n  M12 = {_fmt(m.m12)}\n  M22 = {_fmt(m.m22)}\n")


def _cmd_sif(scenario: Scenario, out) -> None:
    from .tipfields import coeff_a0, sif_k0

    out.write(f"K0 = {_fmt(sif_k0(scenario.loading, scenario.bimaterial))}\n")
    out.write(f"A0 = {_fmt(coeff_a0(scenario.loading, scenario.bimaterial))}\n")


def _cmd_perturb(scenario: Scenario, out) -> None:
    from .oracles import delta_k_defect_quadrature
    from .perturbation import delta_k_defect
    from .propagation import CrackState, _evaluator

    loading, bm = scenario.loading, scenario.bimaterial
    for i, defect in enumerate(scenario.defects, start=1):
        closed = delta_k_defect(defect, loading, bm)
        quad = delta_k_defect_quadrature(defect, loading, bm)
        out.write(f"defect {i}: {defect.kind}\n")
        out.write(f"  dK = {_fmt(closed)} (closed)\n  dK = {_fmt(quad)} (quadrature)\n")
    state = CrackState(0.0, scenario.defects, loading, bm)
    phi, total, k0, a0 = _evaluator(state)[0](state.tip_x)  # one balance: row 0 of propagate
    out.write(f"dK_total = {_fmt(total)}\nK0 = {_fmt(k0)}\nA0 = {_fmt(a0)}\nphi = {_fmt(phi)}\n")


def _cmd_propagate(scenario: Scenario, out) -> None:
    _check_out(scenario.params.out)
    from .propagation import CrackState, propagate, write_trace_csv

    state = CrackState(0.0, scenario.defects, scenario.loading, scenario.bimaterial)
    trace = propagate(state, max_iter=scenario.params.max_iter, arrest_tol=scenario.params.arrest_tol)
    _write(write_trace_csv, trace, scenario.params.out, out)


def _cmd_map(scenario: Scenario, out) -> None:
    params = scenario.params
    _check_out(params.out)
    image = None  # the --pgm path, derived before the scan so a bad --out costs no map
    if params.pgm:
        if params.out is None:
            raise ValidationError("--pgm needs --out to derive the image path")
        image = Path(params.out).with_suffix(".pgm")
        if image == Path(params.out):
            raise ValidationError(f"--pgm would overwrite the --out file {params.out!r}: give --out another suffix")
    defect = _first_microcrack(scenario)
    from .mapgen import PairArrangement, scan_map, write_map_csv, write_map_pgm

    d2 = scenario.defects[1].d if len(scenario.defects) > 1 else None
    arrangement = PairArrangement(params.pair, l1=defect.l_a, d1=defect.d, d2=d2)
    region_map = scan_map(arrangement, scenario.loading, scenario.bimaterial, grid=params.grid, delta=params.delta)
    if image is not None:  # first, so an image that cannot be written leaves --out as it was
        _write(write_map_pgm, region_map, str(image), out)
    _write(write_map_csv, region_map, params.out, out)


def _cmd_neutral(scenario: Scenario, out) -> None:
    from .perturbation import _companion

    companion = _companion(scenario.params.pair, _first_microcrack(scenario), scenario.bimaterial)
    out.write(f"defect {{ kind = {companion.kind}, d = {_fmt(companion.d)}, phi = {_fmt(companion.phi)}, "
              f"alpha = {_fmt(companion.alpha)}, la = {_fmt(companion.l_a)} }}\n")


COMMANDS = {"dipole": _cmd_dipole, "sif": _cmd_sif, "perturb": _cmd_perturb, "propagate": _cmd_propagate,
            "map": _cmd_map, "neutral": _cmd_neutral}


def main(argv=None) -> int:
    args = None  # a ValidationError while this is None is a usage error
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
        if "help" in args:
            sys.stdout.write(USAGE)
        else:
            try:
                text = Path(args["config"]).read_text(encoding="utf-8")
            except (OSError, UnicodeDecodeError) as exc:
                raise ValidationError(f"cannot read config: {exc}") from None
            scenario = parse_scenario(text)
            flags = [(key, args.get(key), "--" + key.replace("_", "-")) for key in PARAMS_FLAGS]
            scenario = scenario.replace(params=_apply_params(scenario.params, flags))
            if "dump_config" in args:
                sys.stdout.write(dump_scenario(scenario))
            else:
                _run(COMMANDS[args["command"]], scenario, sys.stdout)
        sys.stdout.flush()  # an output that cannot be written fails here, as one error line
    except ValidationError as exc:  # a usage error is a configuration error
        status, line = 1, f"error: {exc}" if args is not None else f"{USAGE}crackwake: error: {exc}"
    except (NumericalError, ArithmeticError) as exc:
        status, line = 2, f"numerical failure: {exc}"
    except OSError as exc:
        status, line = 1, f"error: cannot write output: {exc}"
    except MemoryError as exc:
        status, line = 1, f"error: out of memory: {exc}"
    else:
        return 0
    try:
        print(line, file=sys.stderr)
    except OSError:  # a stderr that cannot be written keeps the run's status
        pass
    return status


def script() -> None:
    """The `crackwake` script and `python -m crackwake.cli`: exit with main()'s status, its live objects
    frozen out of the interpreter's final collection, which would only walk a heap that exit drops.
    A closed stdout or stderr (None) writes into os.devnull, and a stream that failed to flush has its
    fd put on os.devnull, so that neither the run nor the exit's flush can change the status."""
    for name in ("stdout", "stderr"):
        if getattr(sys, name) is None:
            setattr(sys, name, open(os.devnull, "w"))
    status = main()
    for fd, stream in enumerate((sys.stdout, sys.stderr), start=1):
        try:
            stream.flush()
        except OSError:  # main reported it, or could not: the exit flush cannot turn the status into 120
            os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
    gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    script()
