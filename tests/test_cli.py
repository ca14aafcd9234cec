import math
import os
import subprocess
import sys

import pytest

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


def test_numerical_failure_exits_2(cfg, capsys):
    # A0 cancels exactly: the advance increment is undefined
    text = """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  force { face = "+", x1 = -1, p = 1 }
  force { face = "-", x1 = -1, p = 1 }
  force { face = "+", x1 = -4, p = -8 }
  force { face = "-", x1 = -4, p = -8 }
}
defect { kind = microcrack, d = 1, phi = 0.3, alpha = 0.2, la = 0.1 }
"""
    assert main(["perturb", "--config", cfg(text)]) == 2
    assert "numerical failure" in capsys.readouterr().err


def test_map_outputs_reproducible(cfg, tmp_path):
    path = cfg(SYM_PAIR_CFG)
    out1, out2 = tmp_path / "m1.csv", tmp_path / "m2.csv"
    assert main(["map", "--config", path, "--grid", "8x4", "--out", str(out1)]) == 0
    assert main(["map", "--config", path, "--grid", "8x4", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


def test_threads_ignored_with_one_warning(cfg, tmp_path, capsys):
    out1, out4 = tmp_path / "m1.csv", tmp_path / "m4.csv"
    path = cfg(SYM_PAIR_CFG)
    assert main(["map", "--config", path, "--grid", "8x4", "--out", str(out1)]) == 0
    assert capsys.readouterr().err == ""
    assert main(["map", "--config", path, "--grid", "8x4", "--out", str(out4), "--threads", "4"]) == 0
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning:")
    assert out1.read_bytes() == out4.read_bytes()


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


def test_negative_threads_flag_exits_1(cfg, capsys):
    assert main(["sif", "--config", cfg(SYM_PAIR_CFG), "--threads", "-3", "--dump-config"]) == 1
    assert "--threads" in capsys.readouterr().err


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
