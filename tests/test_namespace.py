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
