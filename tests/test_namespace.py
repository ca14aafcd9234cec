"""The lazy package namespace, and the modules each entry point loads."""

import os
import subprocess
import sys

import pytest

import crackwake

EXPORTS = [
    "Bimaterial", "ContourTruncationFailure", "CrackState", "CrackwakeError",
    "DEFECT_KINDS", "Defect", "DegenerateA0", "DilutenessWarning", "DipoleMatrix",
    "DistributedLoad", "EffectiveTraction", "FieldPoint", "InvalidDefect", "InvalidPreset",
    "LoadTooCloseToTip", "Loading", "NumericalError", "OnCrackFaceUnderLoad",
    "PairArrangement", "PointForce", "PropagationTrace", "QuadratureFailure", "RegionMap",
    "Scenario", "ScenarioParams", "TipFieldCoefficients", "TipReachesDefect",
    "TipReachesLoad", "UnbalancedLoading", "ValidationError", "advance_increment",
    "check_balance", "classify", "coeff_a0", "contrast", "decompose", "delta_k_advance",
    "delta_k_defect", "delta_k_defect_quadrature", "delta_k_remote", "delta_k_total",
    "dipole_matrix", "displacement_u0", "dump_scenario", "effective_tractions", "grad_u0",
    "neutral_pair_a", "neutral_pair_b", "parse_scenario", "propagate", "scan_map",
    "sif_k0", "step", "three_point_preset", "tip_coefficients", "tip_weight_vector",
    "write_map_csv", "write_map_pgm", "write_trace_csv",
]

SCENARIO = """
bimaterial { mu_plus = 1, mu_minus = 5 }
loading { three_point { P = 1, a = 3, b = 1 } }
defect { kind = microcrack, d = 1, phi = 0.4, alpha = 0.3, la = 0.1 }
defect { kind = rigid_line, d = 2, phi = -0.4, alpha = 1.2, la = 0.2 }
"""


def loaded_after(code: str) -> set:
    """Names in sys.modules, in a fresh interpreter, after running code."""
    code += "\nimport sys\nprint('\\n'.join(sys.modules))\n"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120,
                         capture_output=True, text=True).stdout
    return set(out.split())


def crackwake_modules(loaded: set) -> set:
    return {m.removeprefix("crackwake.") for m in loaded if m.startswith("crackwake.")}


def test_all_lists_exactly_the_public_names():
    assert len(EXPORTS) == 59
    assert sorted(crackwake.__all__) == sorted(EXPORTS)
    assert set(EXPORTS) <= set(dir(crackwake))


def test_star_import_binds_every_name():
    namespace = {}
    exec("from crackwake import *", namespace)
    for name in EXPORTS:
        assert namespace[name] is getattr(crackwake, name)
    assert namespace["sif_k0"] is crackwake.tipfields.sif_k0


def test_submodules_resolve_after_a_bare_import():
    code = (
        "import crackwake\n"
        "assert crackwake.mapgen.REGION_LETTER['neutral'] == 'N'\n"
        "assert crackwake.errors.ValidationError is crackwake.ValidationError\n"
        "assert callable(crackwake.cli.main) and callable(crackwake._quad.adaptive_quad)\n"
    )
    assert "crackwake.mapgen" in loaded_after(code)


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        crackwake.no_such_name
    assert not hasattr(crackwake, "tipfields_")
    assert crackwake.__version__ == "0.1.0"


def test_bare_import_loads_no_submodule():
    assert crackwake_modules(loaded_after("import crackwake")) == set()


def test_parse_scenario_loads_only_the_parser_and_its_types():
    loaded = loaded_after(f"from crackwake import parse_scenario\nparse_scenario({SCENARIO!r})")
    assert crackwake_modules(loaded) == {"config", "defects", "loading", "errors"}


def test_map_command_loads_no_propagation_quadrature_or_polynomial(tmp_path):
    cfg = tmp_path / "map.cfg"
    cfg.write_text(SCENARIO)
    code = (
        "from crackwake.cli import main\n"
        f"assert main(['map', '--config', {str(cfg)!r}, '--grid', '8x4',"
        f" '--out', {str(tmp_path / 'map.csv')!r}, '--pgm']) == 0\n"
    )
    loaded = loaded_after(code)
    assert "crackwake.mapgen" in loaded
    assert not loaded & {"crackwake.propagation", "crackwake._quad", "numpy.polynomial"}


def test_sif_command_on_point_forces_loads_only_what_it_runs(tmp_path):
    cfg = tmp_path / "sif.cfg"
    cfg.write_text(SCENARIO)
    loaded = loaded_after(f"from crackwake.cli import main\nassert main(['sif', '--config', {str(cfg)!r}]) == 0")
    assert "crackwake.tipfields" in loaded
    assert not crackwake_modules(loaded) & {"mapgen", "perturbation", "propagation", "_quad"}
    assert "numpy.polynomial" not in loaded


def after_main_calls(tmp_path, calls) -> set:
    """Modules loaded after crackwake.cli.main(argv + --config file) of
    each (argv, config text, exit status) in calls, in one interpreter."""
    code = "from crackwake.cli import main\n"
    for i, (argv, config, status) in enumerate(calls):
        cfg = tmp_path / f"scenario{i}.cfg"
        cfg.write_text(config)
        code += f"assert main({[*argv, '--config', str(cfg)]!r}) == {status}\n"
    return loaded_after(code)


def numpy_modules(loaded: set) -> set:
    return {m for m in loaded if m == "numpy" or m.startswith("numpy.")}


def test_parse_scenario_never_loads_numpy():
    assert numpy_modules(loaded_after(f"import crackwake\ncrackwake.parse_scenario({SCENARIO!r})")) == set()


def test_table_construction_and_balance_never_load_numpy():
    code = (
        "import crackwake as cw\n"
        "table = cw.DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0))\n"
        "cw.check_balance(cw.Loading((cw.PointForce(-3.0, '+', 0.5),), table))\n"
        "try:\n"
        "    cw.check_balance(cw.Loading((), table))\n"
        "except cw.UnbalancedLoading:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unbalanced table passed')\n"
    )
    assert numpy_modules(loaded_after(code)) == set()


def test_point_force_commands_never_load_numpy(tmp_path):
    commands = [["sif"], ["dipole"], ["neutral", "--pair", "a"], ["neutral", "--pair", "b"],
                ["map", "--dump-config"]]
    assert numpy_modules(after_main_calls(tmp_path, [(argv, SCENARIO, 0) for argv in commands])) == set()


def test_validation_errors_never_load_numpy(tmp_path):
    configs = [
        SCENARIO + "params { delta = -1 }\n",
        SCENARIO.replace("P = 1, a = 3", "P = 1, a = -3"),
        SCENARIO.replace("phi = 0.4", "phi = nan"),
        SCENARIO.replace("kind = microcrack", "kind = rigid_line"),  # checked by the map handler
    ]
    assert numpy_modules(after_main_calls(tmp_path, [(["map"], text, 1) for text in configs])) == set()


def test_table_gradient_and_map_still_load_numpy(tmp_path):
    code = (
        "import crackwake as cw\n"
        "table = cw.DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0))\n"
        "loading = cw.Loading((cw.PointForce(-3.0, '+', 0.5),), table)\n"
        "g = cw.grad_u0(loading, cw.Bimaterial(1.0, 5.0), cw.FieldPoint(1.0, 0.4))\n"
        "assert g[0] != 0.0 and g[1] != 0.0\n"
    )
    assert "numpy" in loaded_after(code)
    out = tmp_path / "map.csv"
    assert "numpy" in after_main_calls(tmp_path, [(["map", "--grid", "4x4", "--out", str(out)], SCENARIO, 0)])
    assert len(out.read_text().splitlines()) == 17
