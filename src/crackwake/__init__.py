"""Perturbation of Mode III interfacial crack-tip fields by small
defects, and the resulting quasi-static crack growth."""

from .defects import DEFECT_KINDS, Defect, DipoleMatrix, dipole_matrix
from .errors import (
    ContourTruncationFailure,
    CrackwakeError,
    DegenerateA0,
    DilutenessWarning,
    InvalidDefect,
    InvalidPreset,
    LoadTooCloseToTip,
    NumericalError,
    OnCrackFaceUnderLoad,
    QuadratureFailure,
    TipReachesDefect,
    TipReachesLoad,
    UnbalancedLoading,
    ValidationError,
)
from .loading import (
    Bimaterial,
    DistributedLoad,
    Loading,
    PointForce,
    check_balance,
    contrast,
    decompose,
    three_point_preset,
)
from .mapgen import (
    PairArrangement,
    RegionMap,
    classify,
    scan_map,
    write_map_csv,
    write_map_pgm,
)
from .perturbation import (
    EffectiveTraction,
    delta_k_advance,
    delta_k_defect,
    delta_k_defect_quadrature,
    delta_k_remote,
    delta_k_total,
    effective_tractions,
    neutral_pair_a,
    neutral_pair_b,
    tip_weight_vector,
)
from .propagation import (
    CrackState,
    PropagationTrace,
    advance_increment,
    propagate,
    step,
    write_trace_csv,
)
from .config import Scenario, ScenarioParams, dump_scenario, parse_scenario
from .tipfields import (
    FieldPoint,
    TipFieldCoefficients,
    coeff_a0,
    displacement_u0,
    grad_u0,
    sif_k0,
    tip_coefficients,
)

__version__ = "0.1.0"
