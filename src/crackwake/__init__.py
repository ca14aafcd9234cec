"""Perturbation of Mode III interfacial crack-tip fields by small
defects, and the resulting quasi-static crack growth.

The namespace is lazy: a public name or a submodule is imported on first
access, so a run loads only the modules it uses."""

import sys

__version__ = "0.1.0"

# every public name by the submodule that defines it
_EXPORTS = {
    "config": ("Scenario", "ScenarioParams", "dump_scenario", "parse_scenario"),
    "defects": ("DEFECT_KINDS", "Defect", "DipoleMatrix", "dipole_matrix"),
    "errors": ("ContourTruncationFailure", "CrackwakeError", "DegenerateA0", "DilutenessWarning",
               "InvalidDefect", "InvalidPreset", "LoadTooCloseToTip", "NumericalError",
               "OnCrackFaceUnderLoad", "QuadratureFailure", "TipReachesDefect", "TipReachesLoad",
               "UnbalancedLoading", "ValidationError"),
    "loading": ("Bimaterial", "DistributedLoad", "Loading", "PointForce", "check_balance", "decompose",
                "three_point_preset"),
    "mapgen": ("PairArrangement", "RegionMap", "scan_map", "write_map_csv", "write_map_pgm"),
    "oracles": ("delta_k_defect_quadrature", "displacement_u0"),
    "perturbation": ("delta_k_defect", "delta_k_remote", "neutral_pair_a", "neutral_pair_b", "tip_weight_vector"),
    "propagation": ("CrackState", "PropagationTrace", "advance_increment", "propagate", "write_trace_csv"),
    "tipfields": ("FieldPoint", "coeff_a0", "grad_u0", "sif_k0"),
}
_SUBMODULES = (*_EXPORTS, "cli", "_quad")
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def _submodule(name: str):
    """Import crackwake.<name> as an import statement does, so -X importtime lists it."""
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_submodule(_HOME[name]), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
