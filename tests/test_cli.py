import gc
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

from crackwake import Defect, ScenarioParams, dump_scenario, neutral_pair_b, parse_scenario, sif_k0
from crackwake.cli import main

SYM_PAIR_CFG = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  force { face = "+", x1 = -1, p = -1 }
  force { face = "-", x1 = -1, p = -1 }
}
defect { kind = microcrack, d = 1, phi = 22.5 deg, alpha = 0, la = 0.1 }
"""


@pytest.fixture
def cfg(tmp_path):
    def write(text, name="scenario.cfg"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_sif_prints_nine_digits(cfg, capsys):
    assert main(["sif", "--config", cfg(SYM_PAIR_CFG)]) == 0
    out = capsys.readouterr().out
    assert "K0 = 0.797884561" in out
    assert "A0 = -0.797884561" in out


def test_dipole_output(cfg, capsys):
    assert main(["dipole", "--config", cfg(SYM_PAIR_CFG)]) == 0
    out = capsys.readouterr().out
    assert "defect 1: microcrack" in out
    assert "M22 = -0.0314159265" in out


def test_perturb_zero_contrast_inclusion(cfg, capsys):
    text = SYM_PAIR_CFG.replace(
        "defect { kind = microcrack, d = 1, phi = 22.5 deg, alpha = 0, la = 0.1 }",
        "defect { kind = elastic_ellipse, d = 1, phi = 0.3, alpha = 0, la = 0.1, lb = 0.05, mu_star = 1 }",
    )
    assert main(["perturb", "--config", cfg(text)]) == 0
    out = capsys.readouterr().out
    assert "dK = 0 (closed)" in out
    assert "dK_total = 0" in out
    assert "phi = 0" in out


def test_perturb_shows_both_paths(cfg, capsys):
    assert main(["perturb", "--config", cfg(SYM_PAIR_CFG)]) == 0
    out = capsys.readouterr().out
    assert out.count("(closed)") == 1
    assert out.count("(quadrature)") == 1
    assert "phi = " in out


README_CFG = (Path(__file__).parent / "golden" / "readme.cfg").read_text()


def pair_b_cfg(microcrack):
    """The README bimaterial and loading with a microcrack and its
    neutral_pair_b companion, every float written in full."""
    lines = [line for line in README_CFG.splitlines() if not line.startswith(("defect", "params"))]
    for df in (microcrack, neutral_pair_b(microcrack, parse_scenario(README_CFG).bimaterial)):
        lines.append(f"defect {{ kind = {df.kind}, d = {df.d!r}, phi = {df.phi!r}, alpha = {df.alpha!r}, "
                     f"la = {df.l_a!r} }}")
    return "\n".join(lines) + "\n"


def balance_lines(path, capsys):
    """The last four lines of perturb, and the same four fields of row 0
    of propagate, as printed."""
    assert main(["perturb", "--config", path]) == 0
    perturb = capsys.readouterr().out.splitlines()[-4:]
    assert main(["propagate", "--config", path, "--max-iter", "1"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    fields = dict(zip(header.split(","), row.split(",")))
    return perturb, [f"{key} = {fields[key]}" for key in ("dK_total", "K0", "A0", "phi")]


PAIR_B_MICROCRACK = Defect("microcrack", d=0.6164567015443907, phi=2.1508107542920776, alpha=0.8688278589950288,
                           l_a=0.05)


def test_perturb_prints_the_balance_of_propagates_first_row(cfg, capsys):
    """dK_total, K0, A0 and phi are one evaluation: on a neutral pair whose
    per-defect dK sum to 5.4e-20, the total that phi = 0 balances is 0."""
    perturb, row = balance_lines(cfg(README_CFG), capsys)
    assert perturb == row
    perturb, row = balance_lines(cfg(pair_b_cfg(PAIR_B_MICROCRACK)), capsys)
    assert perturb == row
    assert perturb[0] == "dK_total = 0" and perturb[3] == "phi = 0"


def test_perturb_balance_over_seeded_neutral_pairs(cfg, capsys):
    rng = random.Random(28)
    for _ in range(200):
        microcrack = Defect("microcrack", d=rng.uniform(0.5, 3.0), phi=rng.uniform(-3.0, 3.0),
                            alpha=rng.uniform(0.0, math.pi), l_a=0.05)
        perturb, row = balance_lines(cfg(pair_b_cfg(microcrack)), capsys)
        assert perturb == row, microcrack


# the sifted half-moments cancel to +0.0, so K0 = -sqrt(2/pi) * 0.0 is -0.0
CANCELLING_K0_CFG = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  force { face = "+", x1 = -1, p = 1 }
  force { face = "-", x1 = -1, p = 1 }
  force { face = "+", x1 = -4, p = -2 }
  force { face = "-", x1 = -4, p = -2 }
}
defect { kind = microcrack, d = 0.5, phi = 0.3, alpha = 0.2, la = 0.05 }
"""


def test_propagate_prints_a_negative_zero_k0_as_sif_and_perturb_do(cfg, capsys):
    scenario = parse_scenario(CANCELLING_K0_CFG)
    assert math.copysign(1.0, sif_k0(scenario.loading, scenario.bimaterial)) == -1.0
    path = cfg(CANCELLING_K0_CFG)
    assert main(["sif", "--config", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "K0 = 0"
    perturb, row = balance_lines(path, capsys)
    assert perturb == row
    assert perturb[1] == "K0 = 0"


# at equal moduli pair b's mirrored companion (d2 = d1) cancels the microcrack exactly in 6 of the 8x4
# cells, each to -0.0 before the fold
MIRRORED_PAIR_CFG = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading { three_point { P = 1, a = 3, b = 0 } }
defect { kind = microcrack, d = 1, phi = 0.3, alpha = 0, la = 0.1 }
"""


def test_map_prints_a_negative_zero_ratio_as_0(cfg, capsys):
    assert main(["map", "--config", cfg(MIRRORED_PAIR_CFG), "--pair", "b", "--grid", "8x4"]) == 0
    ratios = [line.split(",")[2] for line in capsys.readouterr().out.splitlines()[1:]]
    assert len(ratios) == 32 and "-0" not in ratios and ratios.count("0") == 6


def test_perturb_and_oracles_never_import_scipy(cfg):
    """Both oracles run on crackwake's own quadrature: perturb, the
    weight-function oracle and the displacement oracle, on a table too,
    leave no scipy module loaded."""
    code = (
        "import sys, crackwake as cw\n"
        "from crackwake.cli import main\n"
        f"assert main(['perturb', '--config', {cfg(SYM_PAIR_CFG)!r}]) == 0\n"
        "bm = cw.Bimaterial(1.0, 5.0)\n"
        "table = cw.DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0))\n"
        "loading = cw.Loading((cw.PointForce(-3.0, '+', 1.0),), table)\n"
        "mc = cw.Defect('microcrack', d=1.0, phi=0.4, alpha=0.3, l_a=0.1)\n"
        "cw.delta_k_defect_quadrature(mc, loading, bm)\n"
        "cw.displacement_u0(loading, bm, 1.7, 2.0)\n"
        "loaded = sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "assert not loaded, loaded\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120, capture_output=True)


def test_map_cell_count_and_pgm(cfg, tmp_path, capsys):
    out_csv = tmp_path / "map.csv"
    code = main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "8x4",
                 "--out", str(out_csv), "--pgm"])
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 1 + 8 * 4
    pgm = (tmp_path / "map.pgm").read_text().splitlines()
    assert pgm[0] == "P2" and pgm[1] == "8 4"


def test_map_pgm_requires_out(cfg, capsys, monkeypatch):
    """Checked before the scan: no work, and no CSV rows on stdout."""
    import crackwake.mapgen

    def never(*args, **kwargs):
        raise AssertionError("scan_map ran")

    monkeypatch.setattr(crackwake.mapgen, "scan_map", never)
    assert main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", "--pgm"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and "needs --out" in err


def test_map_pgm_refuses_to_overwrite_out(cfg, tmp_path, capsys, monkeypatch):
    """An --out ending in .pgm is where the PGM would go: refused before the scan."""
    import crackwake.mapgen

    def never(*args, **kwargs):
        raise AssertionError("scan_map ran")

    monkeypatch.setattr(crackwake.mapgen, "scan_map", never)
    out = tmp_path / "m.pgm"
    assert main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", "--out", str(out), "--pgm"]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.splitlines() == [f"error: --pgm would overwrite the --out file {str(out)!r}: give --out another suffix"]


@pytest.mark.parametrize("out", ["/", ".", "", "sub", "..", "newdir/", "newdir/."])
@pytest.mark.parametrize("command", [["propagate"], ["map"], ["map", "--pgm"]], ids=["propagate", "map", "map-pgm"])
def test_an_out_that_names_no_file_is_refused_before_the_run(cfg, tmp_path, capsys, monkeypatch, command, out):
    """An --out with no file name, or one that is a directory, is one error
    line before any work, from the flag and from the params block alike:
    no scan, no propagation and no image.  Without the check, map --pgm
    derived an image path from it (sub.pgm, ...pgm, newdir.pgm), and the
    commands ran to the end before open() failed on the directory."""
    import crackwake.mapgen
    import crackwake.propagation

    def never(*args, **kwargs):
        raise AssertionError("the command ran")

    monkeypatch.setattr(crackwake.mapgen, "scan_map", never)
    monkeypatch.setattr(crackwake.propagation, "propagate", never)
    work = tmp_path / "work"
    (work / "sub").mkdir(parents=True)
    monkeypatch.chdir(work)
    pgm = ", pgm = true" if "--pgm" in command else ""
    assert main([command[0], "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", "--out", out, *command[1:]]) == 1
    assert main([command[0], "--config", cfg(SYM_PAIR_CFG + f'params {{ out = "{out}"{pgm} }}\n')]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == "" and list(tmp_path.rglob("*.pgm")) == []
    assert err.splitlines() == [f"error: --out needs to name a file, not the directory {out!r}"] * 2


@pytest.mark.parametrize("command", ["propagate", "map"])
def test_an_out_path_holding_a_nul_byte_exits_1(cfg, capsys, command):
    """Refused before the run, at its params line or its flag, never a traceback from open()."""
    params = 'params { out = "a\0b", grid = 4x4, max_iter = 20 }'
    text = SYM_PAIR_CFG + params + "\n"
    assert main([command, "--config", cfg(text)]) == 1
    assert main([command, "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", "--max-iter", "20", "--out", "a\0b"]) == 1
    stdout, err = capsys.readouterr()
    assert stdout == ""
    line = text.splitlines().index(params) + 1
    assert err.splitlines() == [f"error: line {line}: out path 'a\\x00b' holds a NUL byte",
                                "error: --out: out path 'a\\x00b' holds a NUL byte"]


DEGENERATE_CFG = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  force { face = "+", x1 = -2, p = 1 }
  force { face = "-", x1 = -2, p = -1 }
  force { face = "+", x1 = -3, p = -1 }
  force { face = "-", x1 = -3, p = 1 }
}
defect { kind = microcrack, d = 1, phi = 0.5, alpha = 0.2, la = 0.05 }
"""


@pytest.mark.parametrize("command", ["perturb", "propagate"])
def test_a0_and_k0_both_zero_is_a_degenerate_a0_failure(cfg, capsys, command):
    """Not "float division by zero": the balance names A0 and K0, with K0's
    -0.0 folded into 0.0."""
    assert main([command, "--config", cfg(DEGENERATE_CFG)]) == 2
    assert capsys.readouterr().err.splitlines() == [
        "numerical failure: |A0| = 0.000e+00 too small against K0 = 0.000e+00"]


def test_map_to_stdout(cfg, capsys):
    assert main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "phi1,alpha1,ratio,region"
    assert len(lines) == 17


def test_propagate_writes_trace(cfg, tmp_path):
    out = tmp_path / "trace.csv"
    code = main(["propagate", "--config", cfg(SYM_PAIR_CFG), "--max-iter", "10", "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "iter,phi,x,dK_total,K0,A0,verdict_flag"
    assert len(lines) == 11


def test_neutral_prints_companion(cfg, capsys):
    assert main(["neutral", "--config", cfg(SYM_PAIR_CFG), "--pair", "a"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("defect { kind = rigid_line")
    assert "d = 2" in out and "la = 0.2" in out


def test_neutral_requires_microcrack(cfg, capsys):
    text = SYM_PAIR_CFG.replace("kind = microcrack", "kind = rigid_line")
    assert main(["neutral", "--config", cfg(text)]) == 1


MAP_SEED1_CFG = (Path(__file__).parent / "golden" / "map_seed1.cfg").read_text()
DILUTE_WARNING = "DilutenessWarning: {}defect size l/d = {} exceeds 0.3; the dipole approximation degrades\n"
SCENARIO_WARNINGS = "".join(f"scenario:{n}: " + DILUTE_WARNING.format(f"line {n}: ", "0.8") for n in (7, 8))
COMPANION_WARNING = "scenario:0: " + DILUTE_WARNING.format("pair b companion: ", "0.447")


@pytest.mark.parametrize("command", ["map", "neutral"])
@pytest.mark.parametrize("la1, la2, pair, stderr", [
    ("0.2", "0.4", "a", SCENARIO_WARNINGS),
    ("0.2", "0.4", "b", SCENARIO_WARNINGS),  # the companion (l/d = 1.79 where phi1 < 0) is not named again
    ("0.05", "0.05", "a", ""),
    ("0.05", "0.05", "b", COMPANION_WARNING),  # a dilute microcrack (l/d = 0.2) and its l/d = 0.447 companion
], ids=["both-a", "both-b", "companion-a", "companion-b"])
def test_each_non_dilute_defect_warns_once_at_its_scenario_line(cfg, tmp_path, command, la1, la2, pair, stderr):
    """map_seed1.cfg with its defect sizes changed: each non-dilute scenario
    defect warns once at its line, a non-dilute companion of a dilute
    microcrack once as itself, and no warning points at a crackwake line."""
    text = MAP_SEED1_CFG.replace("la = 0.025", f"la = {la1}").replace("la = 0.05 ", f"la = {la2} ")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONWARNINGS"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    code = "import sys; from crackwake.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.run([sys.executable, "-c", code, command, "--config", cfg(text), "--grid", "4x2", "--pair", pair],
                          env=env, cwd=tmp_path, timeout=120, capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, stderr)


# map_seed1.cfg with its microcrack next to the tip: la**2 of its dipole matrix underflows
UNDERFLOW_MAP_CFG = MAP_SEED1_CFG.replace("d = 0.25,", "d = 1e-200,").replace("la = 0.025", "la = 1e-201")


def script_run(argv, cwd, stdout=subprocess.PIPE, redirect=""):
    """`python -m crackwake.cli argv` in a child interpreter, under the shell redirection redirect (such
    as 2>&-): the launch path of the benchmark, with PYTHONUNBUFFERED unset, so stdout is block-buffered
    as it is there."""
    env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(sys.path)
    return subprocess.run(["sh", "-c", f'exec "$0" -m crackwake.cli "$@" {redirect}', sys.executable, *argv],
                          env=env, cwd=cwd, timeout=120, stdout=stdout, stderr=subprocess.PIPE, text=True)


def test_the_script_entry_writes_the_map_that_main_writes(tmp_path, capsys):
    argv = ["map", "--config", str(Path(__file__).parent / "golden" / "map_seed1.cfg"), "--grid", "8x4", "--pgm"]
    proc = script_run([*argv, "--out", str(tmp_path / "a.csv")], tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    assert main([*argv, "--out", str(tmp_path / "b.csv")]) == 0
    assert capsys.readouterr() == ("", "")
    for suffix in (".csv", ".pgm"):
        assert (tmp_path / f"a{suffix}").read_bytes() == (tmp_path / f"b{suffix}").read_bytes()


@pytest.mark.parametrize("text, grid, status, err", [
    (MAP_SEED1_CFG, "1x4", 1, "error: --grid: grid must be at least 2x2, got 1x4\n"),
    (UNDERFLOW_MAP_CFG, "8x4", 2, "numerical failure: dipole matrix of the microcrack with la = 1e-201 underflows\n"),
], ids=["grid-1x4", "underflowing-microcrack"])
def test_the_script_entry_exits_with_the_status_and_error_line_of_main(cfg, tmp_path, capsys, text, grid, status, err):
    argv = ["map", "--config", cfg(text), "--grid", grid, "--out", str(tmp_path / "a.csv"), "--pgm"]
    proc = script_run(argv, tmp_path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, "", err)
    assert main(argv) == status
    assert capsys.readouterr() == ("", err)
    assert not list(tmp_path.glob("a.*"))


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, a device whose writes fail")
@pytest.mark.parametrize("argv", [
    ["--help"],
    ["sif", "--config", str(Path(__file__).parent / "golden" / "readme.cfg")],
    ["map", "--config", str(Path(__file__).parent / "golden" / "map_seed1.cfg"), "--grid", "8x4"],
], ids=["help", "sif", "map"])
def test_the_script_entry_reports_a_stdout_that_cannot_be_written_as_one_error_line(tmp_path, argv):
    """The output fits the stdout buffer, so the write fails only when it is
    flushed: in main, not in the interpreter's exit, which would print
    "Exception ignored" and exit 120."""
    with open("/dev/full", "w") as full:
        proc = script_run(argv, tmp_path, stdout=full)
    assert (proc.returncode, proc.stderr) == (1, "error: cannot write output: [Errno 28] No space left on device\n")


@pytest.mark.parametrize("redirect", [">&-", ">/dev/full", "2>&-", "2>/dev/full"],
                         ids=["stdout-closed", "stdout-full", "stderr-closed", "stderr-full"])
@pytest.mark.parametrize("argv", [
    ["--help"],
    ["sif", "--config", str(Path(__file__).parent / "golden" / "readme.cfg")],
    ["frobnicate"],
    ["sif", "--config", "{tmp}/missing.cfg"],
    ["map", "--config", "{under}", "--grid", "8x4", "--out", "{tmp}/u.csv"],
], ids=["help", "sif", "unknown-command", "missing-config", "underflowing-microcrack"])
def test_a_closed_or_unwritable_standard_stream_keeps_the_exit_status(cfg, tmp_path, capsys, redirect, argv):
    """The script's status is main's for the same run, a closed stdout read
    as os.devnull; a stdout on /dev/full that main writes to is the one
    line "error: cannot write output:" and exit 1.  Never exit 120, and the
    stream left open gets main's text: no traceback, and no error line that
    a closed stderr sent to stdout."""
    if "/dev/full" in redirect and not os.path.exists("/dev/full"):
        pytest.skip("needs /dev/full, a device whose writes fail")
    argv = [arg.format(tmp=tmp_path, under=cfg(UNDERFLOW_MAP_CFG)) for arg in argv]
    proc = script_run(argv, tmp_path, redirect=redirect)
    status = main(argv)
    out, err = capsys.readouterr()
    if redirect == ">/dev/full" and out:
        status, err = 1, "error: cannot write output: [Errno 28] No space left on device\n"
    assert proc.returncode == status
    assert (proc.stderr == err) if redirect.startswith(">") else (proc.stdout == out)  # the stream left open


def test_the_script_entry_freezes_the_live_heap_before_the_exit(cfg, tmp_path, capsys):
    """An atexit handler still runs after cli.script, and by then the live
    objects are frozen out of the interpreter's final collection."""
    path = cfg(SYM_PAIR_CFG)
    code = ("import atexit, gc, sys\n"
            "atexit.register(lambda: print('frozen', gc.get_freeze_count() > 0))\n"
            "from crackwake.cli import script\n"
            f"sys.argv[1:] = ['sif', '--config', {path!r}]\n"
            "script()\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=tmp_path, timeout=120, capture_output=True,
                          text=True)
    assert main(["sif", "--config", path]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out + "frozen True\n", "")


def test_main_leaves_the_collector_as_it_found_it(cfg, tmp_path, capsys):
    before = gc.get_freeze_count(), gc.isenabled()
    assert main(["sif", "--config", cfg(SYM_PAIR_CFG)]) == 0
    assert main(["map", "--config", cfg(MAP_SEED1_CFG), "--grid", "4x2", "--out", str(tmp_path / "m.csv")]) == 0
    assert main(["map", "--config", cfg(UNDERFLOW_MAP_CFG), "--grid", "4x2"]) == 2
    capsys.readouterr()
    assert (gc.get_freeze_count(), gc.isenabled()) == before


class KernelWarning(UserWarning):
    pass


def test_a_kernel_warning_other_than_diluteness_passes_through_the_run(cfg, monkeypatch):
    """_run holds back only DilutenessWarning: any other warning a command's
    kernel issues reaches the caller with its own category, message, file
    and line."""
    from crackwake import tipfields

    real = tipfields.sif_k0

    def warning_sif_k0(loading, bimaterial):
        warnings.warn_explicit("kernel note", KernelWarning, "kernel.py", 42)
        return real(loading, bimaterial)

    monkeypatch.setattr(tipfields, "sif_k0", warning_sif_k0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["sif", "--config", cfg(SYM_PAIR_CFG)]) == 0
    assert [(w.category, str(w.message), w.filename, w.lineno) for w in caught] == [
        (KernelWarning, "kernel note", "kernel.py", 42)]


@pytest.mark.parametrize("command", ["map", "propagate", "neutral"])
def test_dump_config_dumps_the_scenario_the_command_runs(cfg, capsys, monkeypatch, command):
    """The flags fold into the scenario once: the command's handler gets the
    scenario that --dump-config prints."""
    from crackwake import cli

    ran = []
    monkeypatch.setitem(cli.COMMANDS, command, lambda scenario, out: ran.append(scenario))
    argv = [command, "--config", cfg(SYM_PAIR_CFG + "params { pair = a, grid = 8x4 }\n"), "--pair", "b",
            "--grid", "4x2", "--max-iter", "7", "--out", "run.csv"]
    assert main(argv) == 0
    assert main([*argv, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    assert [dump_scenario(scenario) for scenario in ran] == [dumped]
    assert ran[0].params == ScenarioParams(grid=(4, 2), max_iter=7, out="run.csv", pair="b")


def test_dump_config_round_trip(cfg, capsys):
    path = cfg(SYM_PAIR_CFG)
    assert main(["sif", "--config", path, "--dump-config"]) == 0
    dumped = capsys.readouterr().out
    path2 = cfg(dumped, name="dumped.cfg")
    assert main(["sif", "--config", path2, "--dump-config"]) == 0
    assert capsys.readouterr().out == dumped


def test_bad_config_exits_1(cfg, capsys):
    assert main(["sif", "--config", cfg("bimaterial { mu_plus = 1 }")]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["sif", "--config", "/nonexistent/file.cfg"]) == 1
    not_utf8 = cfg("")
    with open(not_utf8, "wb") as fh:
        fh.write(b"# \xff\xfe\n" + SYM_PAIR_CFG.encode())
    capsys.readouterr()
    assert main(["sif", "--config", not_utf8]) == 1
    assert capsys.readouterr().err.startswith("error: cannot read config: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize(
    "block, text",
    [("bimaterial", SYM_PAIR_CFG.replace("bimaterial {", "# bimaterial {")),
     ("loading", SYM_PAIR_CFG.split("loading")[0])],
    ids=["bimaterial", "loading"],
)
def test_missing_block_error_has_no_line(cfg, capsys, block, text):
    assert main(["sif", "--config", cfg(text)]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: missing {block} block\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["sif"], "the following arguments are required: --config"),
        (["sif", "--config", "x.cfg", "--bogus"], "unrecognized arguments: --bogus"),
        (["bogus", "--config", "x.cfg"], "argument command: invalid choice: 'bogus'"),
    ],
    ids=["missing-config", "unknown-flag", "unknown-command"],
)
def test_usage_errors_exit_1(capsys, argv, message):
    """argparse's usage line and message, with the exit status of every
    other configuration error."""
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("usage: crackwake ")
    assert err.splitlines()[-1].startswith(f"crackwake: error: {message}")


def test_help_exits_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: crackwake ")


A0_CANCELS_CFG = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  force { face = "+", x1 = -1, p = 1 }
  force { face = "-", x1 = -1, p = 1 }
  force { face = "+", x1 = -4, p = -8 }
  force { face = "-", x1 = -4, p = -8 }
}
defect { kind = microcrack, d = 1, phi = 0.3, alpha = 0.2, la = 0.1 }
"""

# a load 1e-6 behind the tip: K0 is finite, A0 overflows to inf
A0_INF_CFG = """
bimaterial { mu_plus = 1, mu_minus = 5 }
loading {
  three_point { P = 1e300, a = 1e-6, b = 0 }
}
defect { kind = microcrack, d = 1, phi = 0.4, alpha = 0.2, la = 0.1 }
"""

# l_a**2 of the dipole matrix overflows
HUGE_DEFECT_CFG = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  three_point { P = 1, a = 1e296, b = 0 }
}
defect { kind = microcrack, d = 1e300, phi = 0.4, alpha = 0, la = 1e200 }
"""


HUGE_DEFECT_MESSAGE = "numerical failure: dipole matrix of the microcrack with la = 1e+200 overflows\n"

# la**2 of the dipole matrix underflows to 0, as does d**1.5 in the defect's tip weight
NEAR_TIP_DEFECT_CFG = SYM_PAIR_CFG.replace("d = 1, phi = 22.5 deg, alpha = 0, la = 0.1",
                                           "d = 1e-250, phi = 0.3, alpha = 0.2, la = 1e-251")
NEAR_TIP_DEFECT_MESSAGE = "numerical failure: dipole matrix of the microcrack with la = 1e-251 underflows\n"
# la**2 underflows to 0 while the defect's distance d**1.5 does not
TINY_DEFECT_CFG = SYM_PAIR_CFG.replace("d = 1, phi = 22.5 deg, alpha = 0, la = 0.1",
                                       "d = 1e-150, phi = 0.3, alpha = 0.2, la = 1e-170")
TINY_DEFECT_MESSAGE = "numerical failure: dipole matrix of the microcrack with la = 1e-170 underflows\n"
# la**2 is subnormal: a matrix with few significant bits
SUBNORMAL_DEFECT_CFG = SYM_PAIR_CFG.replace("d = 1, phi = 22.5 deg, alpha = 0, la = 0.1",
                                            "d = 1e-159, phi = 0.3, alpha = 0.2, la = 1e-160")
SUBNORMAL_DEFECT_MESSAGE = "numerical failure: dipole matrix of the microcrack with la = 1e-160 underflows\n"


@pytest.mark.parametrize(
    "command, text, message",
    [
        ("perturb", A0_CANCELS_CFG, None),  # the advance increment is undefined
        ("sif", A0_INF_CFG, None),
        ("perturb", A0_INF_CFG, None),
        ("propagate", A0_INF_CFG, None),
        ("dipole", HUGE_DEFECT_CFG, HUGE_DEFECT_MESSAGE),
        ("perturb", HUGE_DEFECT_CFG, HUGE_DEFECT_MESSAGE),
        ("propagate", HUGE_DEFECT_CFG, HUGE_DEFECT_MESSAGE),
        ("perturb", NEAR_TIP_DEFECT_CFG, NEAR_TIP_DEFECT_MESSAGE),
        ("propagate", NEAR_TIP_DEFECT_CFG, NEAR_TIP_DEFECT_MESSAGE),
        ("dipole", NEAR_TIP_DEFECT_CFG, NEAR_TIP_DEFECT_MESSAGE),
        ("dipole", TINY_DEFECT_CFG, TINY_DEFECT_MESSAGE),
        ("dipole", SUBNORMAL_DEFECT_CFG, SUBNORMAL_DEFECT_MESSAGE),
    ],
    ids=["perturb-a0-cancels", "sif-a0-inf", "perturb-a0-inf", "propagate-a0-inf",
         "dipole-overflow", "perturb-overflow", "propagate-overflow", "perturb-near-tip", "propagate-near-tip",
         "dipole-near-tip-underflow", "dipole-underflow", "dipole-subnormal"],
)
def test_numerical_failure_exits_2(cfg, capsys, command, text, message):
    assert main([command, "--config", cfg(text)]) == 2
    out, err = capsys.readouterr()
    assert "numerical failure" in err and "Traceback" not in err
    assert "inf" not in out
    if message is not None:
        assert err == message


# one microcrack next to the tip: the size l_a d2/d of its companion underflows before the division
UNDERFLOW_COMPANION_CFG = """
bimaterial { mu_plus = 1, mu_minus = 5 }
loading { three_point { P = 1, a = 3, b = 0 } }
defect { kind = microcrack, d = 1e-200, phi = 0.3, alpha = 0, la = 1e-201 }
"""


@pytest.mark.parametrize("argv", [["map", "--grid", "4x2"], ["neutral"]], ids=["map", "neutral"])
def test_a_companion_whose_size_underflows_exits_2(cfg, capsys, argv):
    assert main([*argv, "--config", cfg(UNDERFLOW_COMPANION_CFG)]) == 2
    assert capsys.readouterr() == (
        "", "numerical failure: pair a companion of the microcrack with la = 1e-201 underflows\n")


def test_map_reads_only_k0_when_a0_overflows(cfg, capsys):
    assert main(["map", "--config", cfg(A0_INF_CFG), "--grid", "4x2"]) == 0
    assert ",X" not in capsys.readouterr().out


def test_map_outputs_reproducible(cfg, tmp_path):
    path = cfg(SYM_PAIR_CFG)
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["map", "--config", path, "--grid", "8x4", "--out", str(out1)]) == 0
    assert main(["map", "--config", path, "--grid", "8x4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_map_reads_only_the_distance_of_the_second_defect_block(cfg, tmp_path):
    """map builds the companion by the pair rule and takes only d2 from the
    second defect block: its kind, phi, alpha and la change no byte of the
    CSV, nor does giving its distance as x, y; another d moves it."""
    text = (Path(__file__).parent / "golden" / "map_seed1.cfg").read_text()
    second = "kind = rigid_line, d = 0.5, phi = -0.39269908169872414, alpha = 1.5707963267948966, la = 0.05"
    assert second in text

    def csv(block):
        out = tmp_path / "map.csv"
        assert main(["map", "--config", cfg(text.replace(second, block)), "--grid", "8x4", "--out", str(out)]) == 0
        return out.read_bytes()

    same = csv(second)
    for block in ("kind = elliptic_void, lb = 0.05, d = 0.5, phi = -0.39269908169872414, alpha = 1.5707963267948966, "
                  "la = 0.1",
                  "kind = rigid_line, d = 0.5, phi = 2.5, alpha = 1.5707963267948966, la = 0.05",
                  "kind = rigid_line, d = 0.5, phi = -0.39269908169872414, alpha = 0.3, la = 0.05",
                  "kind = rigid_line, d = 0.5, phi = -0.39269908169872414, alpha = 1.5707963267948966, la = 0.1",
                  "kind = microcrack, x = 0.3, y = 0.4, alpha = 0.3, la = 0.1"):
        assert csv(block) == same, block
    assert csv(second.replace("d = 0.5", "d = 0.6")) != same


@pytest.mark.parametrize(
    "command, old, new, code",
    [
        ("map", "kind = microcrack", "kind = rigid_line", 1),
        # A0 cancels exactly: the first propagation step fails
        ("propagate", 'force { face = "-", x1 = -1, p = -1 }',
         'force { face = "-", x1 = -1, p = -1 }\n  force { face = "+", x1 = -4, p = 8 }\n'
         '  force { face = "-", x1 = -4, p = 8 }', 2),
    ],
    ids=["map-first-defect-not-microcrack", "propagate-degenerate-a0"],
)
def test_failed_command_leaves_existing_out_file_alone(cfg, tmp_path, capsys, command, old, new, code):
    assert old in SYM_PAIR_CFG
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"phi1,alpha1,ratio,region\n0.1,0.2,0.3,N\n")
    before = keep.read_bytes()
    assert main([command, "--config", cfg(SYM_PAIR_CFG.replace(old, new)), "--grid", "4x4",
                 "--out", str(keep)]) == code
    assert capsys.readouterr().out == ""
    assert keep.read_bytes() == before


def test_map_pgm_that_cannot_be_written_leaves_out_alone(cfg, tmp_path, capsys):
    """The image is written first: when it fails, --out keeps its old rows."""
    keep = tmp_path / "keep.csv"
    keep.write_bytes(b"phi1,alpha1,ratio,region\n0.1,0.2,0.3,N\n")
    before = keep.read_bytes()
    (tmp_path / "keep.pgm").mkdir()
    assert main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", "--out", str(keep), "--pgm"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: cannot write output:")
    assert keep.read_bytes() == before


@pytest.mark.parametrize(
    "entry, message",
    [
        ("delta = -1", "error: line 9: delta must be positive and finite, got -1.0"),
        ("arrest_tol = 0", "error: line 9: arrest_tol must be positive and finite, got 0.0"),
        ("grid = 0x4", "error: line 9: grid must be at least 2x2, got 0x4"),
    ],
)
def test_params_range_errors_name_their_line(cfg, capsys, entry, message):
    """Checked when the params block is parsed, on every command."""
    assert main(["sif", "--config", cfg(SYM_PAIR_CFG + f"params {{\n  {entry}\n}}\n")]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [message]


def test_unwritable_out_exits_1(cfg, tmp_path, capsys):
    missing = tmp_path / "no-such-dir" / "map.csv"
    assert main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", "--out", str(missing)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "no-such-dir" in err


@pytest.mark.parametrize(
    "command, old, new",
    [
        ("propagate", 'force { face = "+", x1 = -1, p = -1 }',
         "three_point { P = nan, a = 3, b = 1 }\n  " + 'force { face = "+", x1 = -1, p = -1 }'),
        ("sif", 'force { face = "+", x1 = -1, p = -1 }',
         "three_point { P = 1, a = inf, b = 1 }\n  " + 'force { face = "+", x1 = -1, p = -1 }'),
        ("perturb", "alpha = 0,", "alpha = nan,"),
        ("perturb", "phi = 22.5 deg", "phi = 180 deg"),
        ("perturb", "d = 1, phi = 22.5 deg", "x = -1, y = 0"),
        ("map", "defect {", "params { grid = 4x4, delta = inf }\ndefect {"),
        ("propagate", "defect {", "params { arrest_tol = inf }\ndefect {"),
    ],
    ids=["nan-load", "inf-distance", "nan-orientation", "defect-on-face", "cartesian-on-face",
         "inf-delta", "inf-arrest-tol"],
)
def test_invalid_values_exit_1(cfg, capsys, command, old, new):
    """Non-finite numbers and defects on the crack faces end in an error
    line and exit 1, never in NaN output or a meaningless dK with exit 0."""
    assert old in SYM_PAIR_CFG
    assert main([command, "--config", cfg(SYM_PAIR_CFG.replace(old, new))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("flag, value", [("--delta", "-1e-3"), ("--delta", "-inf"), ("--arrest-tol", "-1e-9"),
                                         ("--max-iter", "-1e3"), ("--grid", "-4x4")])
def test_negative_flag_value_after_a_space_reaches_its_check(cfg, capsys, flag, value):
    """--delta -1e-3 gives the error of --delta=-1e-3, which names the
    flag and its rule, not argparse's "expected one argument"."""
    path = cfg(SYM_PAIR_CFG)
    results = []
    for argv in ([flag, value], [f"{flag}={value}"]):
        results.append((main(["sif", "--config", path, *argv, "--dump-config"]), capsys.readouterr()))
    (spaced_code, spaced), (joined_code, joined) = results
    assert spaced_code == joined_code == 1
    assert spaced.out == joined.out == ""
    assert spaced.err == joined.err
    assert spaced.err.startswith(f"error: {flag}: {flag[2:].replace('-', '_')}")


@pytest.mark.parametrize("prefix, value, flag", [("--del", "-1e-3", "--delta"), ("--gri", "-3x4", "--grid"),
                                                 ("--arr", "-1e-9", "--arrest-tol"), ("--m", "-1e3", "--max-iter")])
def test_abbreviated_flag_with_negative_value_after_a_space_reaches_its_check(cfg, capsys, prefix, value, flag):
    """argparse takes a unique prefix of a flag, so --del -1e-3 is --delta
    -1e-3 and gives the error of --delta=-1e-3."""
    path = cfg(SYM_PAIR_CFG)
    results = []
    for argv in ([prefix, value], [f"{flag}={value}"]):
        results.append((main(["sif", "--config", path, *argv, "--dump-config"]), capsys.readouterr()))
    (spaced_code, spaced), (joined_code, joined) = results
    assert spaced_code == joined_code == 1
    assert spaced.out == joined.out == ""
    assert spaced.err == joined.err
    assert spaced.err.startswith(f"error: {flag}: ")


def test_ambiguous_flag_prefix_keeps_the_argparse_message(cfg, capsys):
    """--d could be --delta or --dump-config: argparse names both."""
    assert main(["sif", "--config", cfg(SYM_PAIR_CFG), "--d", "-1e-3"]) == 1
    assert "ambiguous option: --d could match --delta, --dump-config" in capsys.readouterr().err


# (flag, the same text as a params entry): each parses through the same
# rules, so both give one ScenarioParams or both fail with one message
FLAG_AND_ENTRY = [
    ("--grid=8x4", "grid = 8x4"),
    ("--grid=0x4", "grid = 0x4"),
    ("--grid=abc", "grid = abc"),
    ("--grid=4x4x4", "grid = 4x4x4"),
    ("--delta=1e-7", "delta = 1e-7"),
    ("--delta=1", "delta = 1"),
    ("--delta=0.5 deg", "delta = 0.5 deg"),
    ("--delta=abc", "delta = abc"),
    ("--delta=-1", "delta = -1"),
    ("--max-iter=1e3", "max_iter = 1e3"),
    ("--max-iter=0", "max_iter = 0"),
    ("--max-iter=2.5", "max_iter = 2.5"),
    ("--max-iter=true", "max_iter = true"),
    ("--arrest-tol=1e-9", "arrest_tol = 1e-9"),
    ("--arrest-tol=inf", "arrest_tol = inf"),
    ("--out=run.csv", 'out = "run.csv"'),
    ("--pgm", "pgm = true"),
    ("--pair=b", "pair = b"),
    ("--pair=c", "pair = c"),
    ('--pair="b"', 'pair = "b"'),
]


@pytest.mark.parametrize("flag, entry", FLAG_AND_ENTRY, ids=[flag for flag, _ in FLAG_AND_ENTRY])
def test_flag_and_params_entry_agree(cfg, capsys, flag, entry):
    def dump(argv, text):
        code = main(["sif", "--config", cfg(text), *argv, "--dump-config"])
        out, err = capsys.readouterr()
        return code, parse_scenario(out).params if code == 0 else err.splitlines()[-1].split(": ", 2)

    flag_code, flag_result = dump([flag], SYM_PAIR_CFG)
    entry_code, entry_result = dump([], SYM_PAIR_CFG + f"params {{ {entry} }}\n")
    assert flag_code == entry_code and flag_code in (0, 1)
    if flag_code == 0:
        assert flag_result == entry_result != ScenarioParams()
    else:
        assert flag_result[:2] == ["error", flag.split("=")[0]] and entry_result[:2] == ["error", "line 8"]
        assert flag_result[2] == entry_result[2]


@pytest.mark.parametrize("argv", [["sif"], ["dipole"], ["map"], ["sif", "--dump-config"]])
def test_grid_flag_below_2x2_exits_1_for_every_command(cfg, capsys, argv):
    assert main([*argv, "--config", cfg(SYM_PAIR_CFG), "--grid", "0x4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: --grid: grid must be at least 2x2, got 0x4\n"


def test_subnormal_three_point_load_exits_1(cfg, capsys):
    forces = 'force { face = "+", x1 = -1, p = -1 }\n  force { face = "-", x1 = -1, p = -1 }'
    assert forces in SYM_PAIR_CFG
    text = SYM_PAIR_CFG.replace(forces, "three_point { P = 5e-324, a = 3 }")
    assert main(["sif", "--config", cfg(text)]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 4: P must")


@pytest.mark.parametrize(
    "old, new, message",
    [
        ('force { face = "+", x1 = -1, p = -1 }\n  force { face = "-", x1 = -1, p = -1 }',
         "three_point { P = 1, a = -3 }", "error: line 4: a must be positive and finite, got -3.0\n"),
        ('force { face = "+", x1 = -1, p = -1 }\n  force { face = "-", x1 = -1, p = -1 }',
         "three_point { P = 5e-324, a = 3 }",
         "error: line 4: P must not be subnormal (P/2 would round), got 5e-324\n"),
        ("d = 1,", "d = -1,", "error: line 7: defect distance must be positive, got d = -1.0\n"),
        ('x1 = -1, p = -1 }\n  force { face = "-"', 'x1 = 2, p = -1 }\n  force { face = "-"',
         "error: line 4: point force must sit behind the tip, got x1 = 2.0\n"),
        ("mu_minus = 1", "mu_minus = -1", "error: line 2: shear moduli must be positive and finite, got (1.0, -1.0)\n"),
    ],
    ids=["three_point_a", "three_point_subnormal_P", "defect_d", "force_x1", "bimaterial"],
)
def test_constructor_errors_carry_their_block_line(cfg, capsys, old, new, message):
    assert old in SYM_PAIR_CFG
    assert main(["sif", "--config", cfg(SYM_PAIR_CFG.replace(old, new))]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == message


@pytest.mark.parametrize("moduli", ["mu_plus = 1e-300, mu_minus = 1e-300", "mu_plus = 1e308, mu_minus = 1e308"])
@pytest.mark.parametrize("command", ["map", "perturb"])
def test_moduli_out_of_the_float_range_exit_1(cfg, capsys, command, moduli):
    """Moduli whose product underflows or whose sum overflows are refused at
    the bimaterial's line, before a map of N or nan cells or a dK of 0."""
    text = SYM_PAIR_CFG.replace("mu_plus = 1, mu_minus = 1", moduli)
    assert text != SYM_PAIR_CFG
    assert main([command, "--config", cfg(text), "--grid", "4x4"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: line 2: shear moduli (") and "only their ratio matters" in err


@pytest.mark.parametrize(
    "command, flag, value",
    [
        ("map", "--delta", "inf"),
        ("map", "--delta", "nan"),
        ("sif", "--delta", "-inf"),
        ("propagate", "--arrest-tol", "inf"),
        ("propagate", "--arrest-tol", "nan"),
    ],
)
def test_non_finite_delta_and_arrest_tol_flags_exit_1(cfg, capsys, command, flag, value):
    assert main([command, "--config", cfg(SYM_PAIR_CFG), "--grid", "4x4", f"{flag}={value}"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag[2:].replace("-", "_") in err


def test_out_of_memory_is_one_error_line(cfg, capsys, monkeypatch):
    """An oversized grid fails to allocate: one error line and exit 1, not
    a traceback.  The failure is injected; no large grid is allocated."""
    import crackwake.mapgen

    message = "Unable to allocate 74.5 GiB for an array with shape (100000, 100000)"

    def oversized(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(crackwake.mapgen, "scan_map", oversized)
    assert main(["map", "--config", cfg(SYM_PAIR_CFG), "--grid", "100000x100000"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [f"error: out of memory: {message}"]


def test_map_without_defects_exits_1(cfg, capsys):
    text = SYM_PAIR_CFG.replace("defect { kind = microcrack, d = 1, phi = 22.5 deg, alpha = 0, la = 0.1 }\n", "")
    assert main(["map", "--config", cfg(text), "--grid", "4x4"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == ["error: scenario has no defect blocks"]
