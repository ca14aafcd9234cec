"""The lazy package namespace, and the modules each entry point loads."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import crackwake

from helpers import run_refusing_numpy

EXPORTS = [
    "Bimaterial", "ContourTruncationFailure", "CrackState", "CrackwakeError",
    "DEFECT_KINDS", "Defect", "DegenerateA0", "DilutenessWarning", "DipoleMatrix",
    "DistributedLoad", "FieldPoint", "InvalidDefect", "InvalidPreset",
    "LoadTooCloseToTip", "Loading", "NumericalError", "OnCrackFaceUnderLoad",
    "PairArrangement", "PointForce", "PropagationTrace", "QuadratureFailure", "RegionMap",
    "Scenario", "ScenarioParams", "TipReachesDefect", "TipReachesLoad", "UnbalancedLoading",
    "ValidationError", "advance_increment", "check_balance", "coeff_a0", "decompose",
    "delta_k_defect", "delta_k_defect_quadrature", "delta_k_remote", "dipole_matrix",
    "displacement_u0", "dump_scenario", "grad_u0", "neutral_pair_a",
    "neutral_pair_b", "parse_scenario", "propagate", "scan_map", "sif_k0",
    "three_point_preset", "tip_weight_vector", "write_map_csv", "write_map_pgm", "write_trace_csv",
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
    assert len(EXPORTS) == 50
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
    assert not loaded & {"argparse", "gettext", "locale"}


def after_main_calls(tmp_path, calls) -> set:
    """Modules loaded after crackwake.cli.main(argv + --config file) of
    each (argv, config text, exit status) in calls, in one interpreter."""
    code = "from crackwake.cli import main\n"
    for i, (argv, config, status) in enumerate(calls):
        cfg = tmp_path / f"scenario{i}.cfg"
        cfg.write_text(config)
        code += f"assert main({[*argv, '--config', str(cfg)]!r}) == {status}\n"
    return loaded_after(code)


def test_grid_flag_refused_before_the_map_loads(tmp_path):
    loaded = after_main_calls(tmp_path, [(["map", "--grid", "0x4"], SCENARIO, 1)])
    assert "crackwake.mapgen" not in loaded


TABLE_LOADING = (
    "import crackwake as cw\n"
    "table = cw.DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0))\n"
    "loading = cw.Loading((cw.PointForce(-3.0, '+', 0.5),), table)\n"
    "bm = cw.Bimaterial(1.0, 5.0)\n"
    "mc = cw.Defect('microcrack', d=1.0, phi=0.4, alpha=0.3, l_a=0.1)\n"
)


def test_entry_points_beyond_the_goldens_never_import_numpy(tmp_path):
    """The numpy gate, with tests/test_golden.py, whose digests are
    computed in the same kind of child: an interpreter that refuses numpy
    and scipy runs every entry point that no golden output reaches, and
    records no attempt to import either.  The displacement oracle and the
    two grid views of a map, the only users of arrays, fail for numpy."""
    invalid = [
        (["map"], SCENARIO + "params { delta = -1 }\n"),
        (["map"], SCENARIO.replace("P = 1, a = 3", "P = 1, a = -3")),
        (["map"], SCENARIO.replace("phi = 0.4", "phi = nan")),
        (["map"], SCENARIO.replace("kind = microcrack", "kind = rigid_line")),  # checked by the map handler
        (["map", "--grid", "0x4"], SCENARIO),
    ]
    argvs = []
    for i, (argv, text) in enumerate(invalid):
        cfg = tmp_path / f"invalid{i}.cfg"
        cfg.write_text(text)
        argvs.append([*argv, "--config", str(cfg)])
    cfg, out = tmp_path / "map.cfg", tmp_path / "map.csv"
    cfg.write_text(SCENARIO)
    code = TABLE_LOADING + (
        "from crackwake.cli import main\n"
        f"assert cw.parse_scenario({SCENARIO!r}).defects[1].kind == 'rigid_line'\n"
        f"assert [main(argv) for argv in {argvs!r}] == [1] * {len(argvs)}\n"
        f"assert main(['map', '--config', {str(cfg)!r}, '--grid', '4x4', '--out', {str(out)!r}, '--pgm']) == 0\n"
        "assert cw.check_balance(loading) is loading\n"
        "try:\n"
        "    cw.check_balance(cw.Loading((), table))\n"
        "except cw.UnbalancedLoading:\n"
        "    pass\n"
        "else:\n"
        "    raise AssertionError('unbalanced table passed')\n"
        "assert cw.sif_k0(loading, bm) != 0.0 and cw.coeff_a0(loading, bm) != 0.0\n"
        "assert 0.0 not in cw.grad_u0(loading, bm, cw.FieldPoint(1.0, 0.4))\n"
        "assert cw.delta_k_defect(mc, loading, bm) != 0.0\n"
        "assert cw.delta_k_defect_quadrature(mc, cw.three_point_preset(1.0, 3.0, 1.0), bm) != 0.0\n"
        "assert cw.delta_k_defect_quadrature(mc, loading, bm) != 0.0\n"
        "maps = [cw.scan_map(cw.PairArrangement(pair, l1=0.1, d1=1.0), loading, bm, grid=(8, 4)) for pair in 'ab']\n"
        "assert [(len(m.labels), m.count('invalid')) for m in maps] == [(32, 0), (32, 0)]\n"
        "assert cw.dipole_matrix(mc).m11 != 0.0 and cw.delta_k_remote(mc, bm) != 0.0\n"
        "assert cw.neutral_pair_a(mc).kind == cw.neutral_pair_b(mc, bm).kind == 'rigid_line'\n"
        "result = [list(REFUSED), []]\n"
        "for needs_arrays in (lambda: cw.displacement_u0(loading, bm, 1.0, 0.4), lambda: maps[0].ratio,\n"
        "                     lambda: maps[1].region):\n"
        "    try:\n"
        "        needs_arrays()\n"
        "    except ModuleNotFoundError as exc:\n"
        "        result[1].append(exc.name)\n"
    )
    (attempts, needing), refused = run_refusing_numpy(code)
    assert attempts == []
    assert needing == refused == ["numpy"] * 3
    assert len(out.read_text().splitlines()) == 17
    assert out.with_suffix(".pgm").read_text().startswith("P2\n4 4\n")


def test_no_table_call_or_displacement_oracle_loads_numpy_polynomial():
    """np.polynomial can load by attribute access, which the static
    import-scope check below cannot see."""
    code = TABLE_LOADING + (
        "cw.grad_u0(loading, bm, cw.FieldPoint(2.1, 3.0))\n"
        "cw.delta_k_defect_quadrature(mc, loading, bm)\n"
        "cw.displacement_u0(loading, bm, 1.0, 0.4)\n"
        "cw.propagate(cw.CrackState(0.0, (mc,), loading, bm), max_iter=3)\n"
        "cw.scan_map(cw.PairArrangement('a', l1=0.1, d1=1.0), loading, bm, grid=(8, 4))\n"
    )
    loaded = loaded_after(code)
    assert "numpy" in loaded and "numpy.polynomial" not in loaded


def test_oracles_are_one_module_behind_the_namespace():
    import crackwake.oracles as oracles

    assert crackwake.displacement_u0 is oracles.displacement_u0
    assert crackwake.delta_k_defect_quadrature is oracles.delta_k_defect_quadrature
    for closed_form in (crackwake.tipfields, crackwake.perturbation):
        assert not hasattr(closed_form, "displacement_u0")
        assert not hasattr(closed_form, "delta_k_defect_quadrature")


def test_only_perturb_loads_the_oracles(tmp_path):
    scenario = SCENARIO + "params { max_iter = 20 }\n"
    commands = [["map", "--grid", "4x4", "--out", str(tmp_path / "map.csv"), "--pgm"], ["sif"],
                ["propagate", "--out", str(tmp_path / "trace.csv")], ["dipole"], ["neutral", "--pair", "a"],
                ["neutral", "--pair", "b"], ["perturb", "--dump-config"]]
    loaded = after_main_calls(tmp_path, [(argv, scenario, 0) for argv in commands])
    assert "crackwake.oracles" not in loaded
    assert {"crackwake.mapgen", "crackwake.propagation"} <= loaded
    assert "crackwake.oracles" in after_main_calls(tmp_path, [(["perturb"], scenario, 0)])


def test_point_force_map_and_sif_never_load_numbers(tmp_path):
    """numbers serves only a table's column check."""
    calls = [(["map", "--grid", "4x4", "--out", str(tmp_path / "map.csv"), "--pgm"], SCENARIO, 0),
             (["sif"], SCENARIO, 0)]
    loaded = after_main_calls(tmp_path, calls)
    assert "crackwake.mapgen" in loaded
    assert "numbers" not in loaded
    assert "numbers" in loaded_after(TABLE_LOADING)


# The only numpy imports in the package, each inside the function that
# needs arrays: the displacement oracle and the two helpers only it
# calls, and the two grid views of a map.
NUMPY_IMPORTS_ALLOWED = {
    "oracles.displacement_u0", "oracles._angular_ratios", "oracles._mellin_transform",
    "mapgen.RegionMap.ratio", "mapgen.RegionMap.region",
}


def node_scopes(node, scope, matches):
    """Dotted scope of every node under node for which matches(node)
    holds; a node at module scope (class bodies included) gives a scope
    with no function."""
    for child in ast.iter_child_nodes(node):
        if matches(child):
            yield scope
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from node_scopes(child, f"{scope}.{child.name}", matches)
        else:
            yield from node_scopes(child, scope, matches)


def package_scopes(matches) -> set:
    return {
        scope
        for path in Path(crackwake.__file__).parent.glob("*.py")
        for scope in node_scopes(ast.parse(path.read_text()), path.stem, matches)
    }


def package_import_scopes(module: str) -> set:
    """Scopes of every import of module (or a submodule) in the package."""
    def imports_module(node):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [node.module or ""] if node.level == 0 else []
        else:
            return False
        return any(name == module or name.startswith(module + ".") for name in names)

    return package_scopes(imports_module)


def test_numpy_is_imported_only_inside_the_functions_that_need_arrays():
    """No module imports numpy when it loads, so no entry point pays for
    numpy before it reaches an array, and none imports scipy at all: both
    oracles integrate with crackwake._quad."""
    assert package_import_scopes("numpy") == NUMPY_IMPORTS_ALLOWED
    assert package_import_scopes("scipy") == set()


# The closed form's private kernels and the modules that may name them:
# one owner each, so no module re-derives a step of dK on its own.
KERNEL_OWNERS = {
    "_table_sums": {"tipfields"}, "_station_terms": {"tipfields"}, "_phi_trig": {"tipfields"},
    "_moments": {"tipfields"}, "_gradients": {"tipfields", "perturbation"},
}


def test_each_kernel_step_is_named_only_by_its_owners():
    """tipfields alone builds the gradient, from the angle factors to the
    table and station sums, and perturbation alone turns it into the
    harmonics; mapgen and propagation go through _harmonics."""
    named = {name: set() for name in KERNEL_OWNERS}
    for path in Path(crackwake.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            for name in (getattr(node, attr, None) for attr in ("id", "attr", "name")):  # "name": defs, imports
                if name in named:
                    named[name].add(path.stem)
    assert {name: modules - KERNEL_OWNERS[name] for name, modules in named.items()} == {n: set() for n in named}


# The scopes that may read a Loading's face form (.forces, .distributed):
# decompose, the one computation from it, and the code that builds or
# dumps a loading.  Everything else reads Loading.split.
FACE_FORM_READERS = {"loading.decompose", "loading.Loading.__post_init__", "config._build_loading",
                     "config.dump_scenario"}


def test_only_decompose_computes_from_the_face_form():
    """Balance, scale, support and every kernel read the <p>/[p] split."""
    def reads_face_form(node):
        return (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and node.attr in ("forces", "distributed"))

    assert package_scopes(reads_face_form) == FACE_FORM_READERS


def test_no_module_imports_dataclasses():
    """The value types are errors.Record subclasses, so no import path
    pays for dataclasses and the inspect, ast and dis it pulls in."""
    assert package_import_scopes("dataclasses") == set()
    assert package_import_scopes("inspect") == set()


def test_parsing_and_the_commands_never_load_dataclasses_or_inspect(tmp_path):
    slow = {"dataclasses", "inspect"}
    assert not loaded_after(f"from crackwake import parse_scenario\nparse_scenario({SCENARIO!r})") & slow
    scenario = SCENARIO + "params { max_iter = 20 }\n"
    commands = [["map", "--grid", "4x4", "--out", str(tmp_path / "map.csv"), "--pgm"], ["sif"], ["perturb"],
                ["propagate", "--out", str(tmp_path / "trace.csv")]]
    assert not after_main_calls(tmp_path, [(argv, scenario, 0) for argv in commands]) & slow
