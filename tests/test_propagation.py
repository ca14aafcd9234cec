import io
import math

import numpy as np
import pytest
from pytest import approx

from crackwake import (
    Bimaterial,
    CrackState,
    Defect,
    DegenerateA0,
    DilutenessWarning,
    DistributedLoad,
    Loading,
    NumericalError,
    OnCrackFaceUnderLoad,
    PointForce,
    TipReachesDefect,
    TipReachesLoad,
    ValidationError,
    advance_increment,
    coeff_a0,
    neutral_pair_a,
    propagate,
    sif_k0,
    three_point_preset,
    write_trace_csv,
)

from helpers import (BIMATERIALS, current_defects, current_loading, delta_k_total, random_balanced_loading, step,
                     sym_pair_at)


def pair_a_state(phi1, alpha1, bm, a=3.0, b=0.0):
    mc = Defect("microcrack", d=1.0, phi=phi1, alpha=alpha1, l_a=0.1)
    rl = neutral_pair_a(mc)
    return CrackState(0.0, (mc, rl), three_point_preset(1.0, a, b), bm)


def test_advance_increment_no_defects(bm_equal):
    state = CrackState(0.0, (), sym_pair_at(3.0), bm_equal)
    assert advance_increment(state) == 0.0


def test_advance_increment_matches_direct_formula(bm_equal):
    state = pair_a_state(math.pi / 8, math.pi / 4, bm_equal)
    loading = current_loading(state)
    total = delta_k_total(current_defects(state), loading, bm_equal)
    a3 = coeff_a0(loading, bm_equal)
    assert advance_increment(state) == -2.0 * total / a3


def test_advance_increment_doubles_with_dipole(bm_equal):
    mc = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    single = CrackState(0.0, (mc,), sym_pair_at(3.0), bm_equal)
    double = CrackState(0.0, (mc, mc), sym_pair_at(3.0), bm_equal)
    assert advance_increment(double) == approx(2.0 * advance_increment(single), rel=1e-15)


def test_advance_increment_degenerate_a0(bm_equal):
    # weights chosen so the second-order kernel sum cancels while K0 does not
    forces = []
    for x1, p in ((-1.0, 1.0), (-4.0, -8.0)):
        forces.append(PointForce(x1, "+", p))
        forces.append(PointForce(x1, "-", p))
    loading = Loading(tuple(forces))
    assert coeff_a0(loading, bm_equal) == approx(0.0, abs=1e-16)
    state = CrackState(0.0, (Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1),), loading, bm_equal)
    with pytest.raises(DegenerateA0):
        advance_increment(state)
    with pytest.raises(DegenerateA0):
        propagate(state)


def test_step_geometry(bm_equal):
    defect = Defect.from_cartesian("microcrack", 1.0, 1.0, alpha=0.0, l_a=0.1)
    state = CrackState(0.0, (defect,), sym_pair_at(3.0), bm_equal)
    assert step(state, 0.0) == state
    moved = step(state, 1.0)
    (current,) = current_defects(moved)
    assert current.d == approx(1.0)
    assert current.phi == approx(math.pi / 2)


def test_step_guards(bm_equal):
    defect = Defect.from_cartesian("microcrack", 1.0, 0.01, alpha=0.0, l_a=0.1)
    state = CrackState(0.0, (defect,), sym_pair_at(3.0), bm_equal)
    with pytest.raises(TipReachesDefect):
        step(state, 1.0)
    no_defect = CrackState(0.0, (), sym_pair_at(3.0), bm_equal)
    with pytest.raises(TipReachesLoad):
        step(no_defect, -4.0)
    # two finite advances whose sum overflows do not leave the tip at inf
    with pytest.raises(ValidationError, match="tip position must be finite"):
        step(step(no_defect, 1e308), 1e308)


def test_tip_cannot_jump_through_a_defect_on_its_path(bm_equal):
    """An increment that carries the tip across a defect's disc stops the
    run, even when the landing point is clear of it: here one increment
    would go from about 0.82 to 1.37, past the microcrack on [0.9, 1.1]."""
    defect = Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.1)
    state = CrackState(0.0, (defect,), three_point_preset(1.0, 3.0, 0.0), bm_equal)
    with pytest.raises(TipReachesDefect, match="microcrack"):
        propagate(state)
    with pytest.raises(TipReachesDefect):
        step(state, 1.5)
    # a disc clear of the line is passed by; one that crosses it is not
    clear = Defect.from_cartesian("microcrack", 1.0, 0.11, alpha=0.0, l_a=0.1)
    assert step(CrackState(0.0, (clear,), sym_pair_at(3.0), bm_equal), 1.5).tip_x == 1.5
    crossing = Defect.from_cartesian("microcrack", 1.0, -0.09, alpha=0.0, l_a=0.1)
    with pytest.raises(TipReachesDefect):
        step(CrackState(0.0, (crossing,), sym_pair_at(3.0), bm_equal), 1.5)


@pytest.mark.filterwarnings("ignore", category=DilutenessWarning)
def test_state_rejects_a_tip_within_l_a_of_a_defect(bm_equal):
    """CrackState owns the tip's clearance from the defects: a start tip
    within l_a of one is refused at construction, not first in propagate,
    and so is a tip moved there by replace."""
    close = Defect("microcrack", d=0.05, phi=0.3, alpha=0.0, l_a=0.1)
    with pytest.raises(TipReachesDefect, match=r"tip path \[0, 0\] comes within 0.1 of the microcrack"):
        CrackState(0.0, (close,), three_point_preset(1.0, 3.0, 1.0), bm_equal)
    state = CrackState(0.0, (Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.1),), sym_pair_at(3.0), bm_equal)
    with pytest.raises(TipReachesDefect, match=r"tip path \[0.95, 0.95\]"):
        state.replace(tip_x=0.95)


def test_a_zero_force_ahead_of_the_tip_is_no_load_support(bm_equal):
    loading = Loading((*sym_pair_at(3.0).forces, PointForce(-1.0, "+", 0.0)))
    assert CrackState(-2.0, (), loading, bm_equal).loading.support_max() == -3.0


def test_state_rejects_load_ahead_of_tip(bm_equal):
    with pytest.raises(TipReachesLoad):
        CrackState(-5.0, (), sym_pair_at(3.0), bm_equal)


@pytest.mark.parametrize("tip_x", [math.inf, -math.inf, math.nan])
def test_state_rejects_non_finite_tip(bm_equal, tip_x):
    with pytest.raises(ValidationError, match="tip position must be finite"):
        CrackState(tip_x, (), sym_pair_at(3.0), bm_equal)


def test_propagate_no_defects_arrests_immediately(bm_equal):
    trace = propagate(CrackState(0.0, (), sym_pair_at(3.0), bm_equal), max_iter=10)
    assert trace.verdict == "arrest"
    assert trace.elongation == 0.0
    assert len(trace.increments) == 0
    assert len(trace.phi) == 1 and trace.flags[-1] == 1


def test_propagate_shielded_start_arrests_without_retreat(bm_equal):
    # rigid line at phi = pi/2 shields the tip: first increment is negative
    rl = Defect("rigid_line", d=1.0, phi=math.pi / 2, alpha=0.0, l_a=0.1)
    state = CrackState(0.0, (rl,), sym_pair_at(3.0), bm_equal)
    assert advance_increment(state) < 0.0
    trace = propagate(state, max_iter=10)
    assert trace.verdict == "arrest"
    assert trace.elongation == 0.0
    assert trace.phi[0] < 0.0


def test_propagate_elongation_is_prefix_sum(bm_equal):
    trace = propagate(pair_a_state(math.pi / 8, math.pi / 4, bm_equal), max_iter=1000)
    assert trace.verdict == "arrest"
    running = 0.0
    for i, phi in enumerate(trace.increments):
        running += phi
        assert trace.x[i] == running
    assert trace.elongation == running
    assert trace.x[-2] == trace.x[-1]  # terminal row repeats the elongation
    assert len(trace.increments) == len(trace.phi) - 1


def test_propagate_arrest_is_neutral_configuration(bm_equal):
    trace = propagate(pair_a_state(math.pi / 8, math.pi / 4, bm_equal), max_iter=1000)
    arrest_tol = 1e-8  # d_ref = 1
    assert abs(trace.dk_total[-1]) < 0.5 * arrest_tol * abs(trace.a0[-1])


def test_propagate_max_iterations_verdict(bm_equal):
    trace = propagate(pair_a_state(math.pi / 8, math.pi / 4, bm_equal), max_iter=5)
    assert trace.verdict == "max_iterations"
    assert len(trace.increments) == 5
    assert trace.flags[-1] == 3


def test_propagate_deterministic(bm_equal):
    state = pair_a_state(math.pi / 8, 3 * math.pi / 8, bm_equal)
    t1 = propagate(state, max_iter=2000)
    t2 = propagate(state, max_iter=2000)
    for name in ("increments", "phi", "x", "dk_total", "k0", "a0", "flags"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name))
    buf1, buf2 = io.StringIO(), io.StringIO()
    write_trace_csv(t1, buf1)
    write_trace_csv(t2, buf2)
    assert buf1.getvalue() == buf2.getvalue()


def test_trace_csv_format(bm_equal):
    trace = propagate(pair_a_state(math.pi / 8, math.pi / 4, bm_equal), max_iter=50)
    buf = io.StringIO()
    write_trace_csv(trace, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "iter,phi,x,dK_total,K0,A0,verdict_flag"
    assert len(lines) == len(trace.phi) + 1
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == approx(trace.phi[0], rel=1e-8)
    assert lines[-1].split(",")[-1] in {"1", "2", "3"}


def test_generic_engine_handles_distributed_loads(bm_equal):
    from helpers import hat_load

    loading = Loading((), hat_load(-3.0, 0.5, avg_coeff=-1.0, jump_coeff=0.0))
    state = CrackState(0.0, (Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1),), loading, bm_equal)
    phi0 = advance_increment(state)
    assert phi0 > 0.0
    trace = propagate(state, max_iter=3)
    assert trace.verdict == "max_iterations"
    assert trace.phi[0] == phi0


def test_advance_increment_with_table_matches_direct_formula(bm_pos):
    """The engine shifts a table with the tip and lowers it per defect, as
    the library functions do on the tip-relative loading."""
    from helpers import hat_load

    loading = Loading((PointForce(-1.2, "-", 0.25),), hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25))
    mc = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    state = step(CrackState(0.0, (mc, neutral_pair_a(mc)), loading, bm_pos), 0.05)
    current = current_loading(state)
    total = delta_k_total(current_defects(state), current, bm_pos)
    assert advance_increment(state) == -2.0 * total / coeff_a0(current, bm_pos)


def test_non_finite_increment_raises():
    """Loads so large against the moduli that dK overflows: propagation
    stops with NumericalError instead of writing NaN rows."""
    bm = Bimaterial(1e-150, 1e-150)  # the smallest equal pair whose product is a normal float
    mc = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    state = CrackState(0.0, (mc,), three_point_preset(1e300, 3.0, 1.0), bm)
    with pytest.raises(NumericalError):
        propagate(state, max_iter=3)
    with pytest.raises(NumericalError):
        advance_increment(state)


def test_infinite_a0_raises():
    """A load 1e-6 behind the tip with K0 finite and A0 overflowing: A0
    and propagation end in NumericalError, never in an inf row."""
    bm = Bimaterial(1.0, 5.0)
    loading = three_point_preset(1e300, 1e-6, 0.0)
    mc = Defect("microcrack", d=1.0, phi=0.4, alpha=0.2, l_a=0.1)
    assert math.isfinite(sif_k0(loading, bm))
    with pytest.raises(NumericalError, match="A0"):
        coeff_a0(loading, bm)
    with pytest.raises(NumericalError, match="A0"):
        propagate(CrackState(0.0, (mc,), loading, bm), max_iter=3)


def test_station_next_to_the_tip_overflows_to_numerical_error(bm_equal):
    """(-x1)^(-3/2) overflows a float for a station 1e-206 behind the tip."""
    loading = Loading((PointForce(-1e-206, "+", 1.0), PointForce(-1e-206, "-", 1.0)))
    assert math.isfinite(sif_k0(loading, bm_equal))
    with pytest.raises(NumericalError, match="A0"):
        coeff_a0(loading, bm_equal)


def test_engine_evaluates_with_the_library_functions_bit_for_bit():
    """propagate's first row and advance_increment equal sif_k0, coeff_a0
    and delta_k_total on the tip-relative loading and defects, with ==."""
    rng = np.random.default_rng(20261018)
    for case in range(120):
        bm = BIMATERIALS[(0.0, 0.67, -0.67)[case % 3]]
        loading = random_balanced_loading(rng, with_distributed=case % 2 == 1)
        mc = Defect("microcrack", d=float(rng.uniform(0.5, 2.0)), phi=float(rng.uniform(-2.8, 2.8)),
                    alpha=float(rng.uniform(0.0, math.pi)), l_a=0.05)
        state = step(CrackState(0.0, (mc, neutral_pair_a(mc)), loading, bm), float(rng.uniform(0.0, 0.3)))
        current = current_loading(state)
        k0 = sif_k0(current, bm)
        a0 = coeff_a0(current, bm)
        total = delta_k_total(current_defects(state), current, bm)
        trace = propagate(state, max_iter=1)
        assert (trace.k0[0], trace.a0[0], trace.dk_total[0]) == (k0, a0, total), case
        assert advance_increment(state) == -2.0 * total / a0, case


@pytest.mark.parametrize("arrest_tol", [math.inf, math.nan, 0.0, -1e-8])
def test_propagate_rejects_arrest_tol_not_positive_and_finite(bm_equal, arrest_tol):
    mc = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    state = CrackState(0.0, (mc,), three_point_preset(1.0, 3.0, 1.0), bm_equal)
    with pytest.raises(ValidationError, match="arrest_tol"):
        propagate(state, max_iter=3, arrest_tol=arrest_tol)


@pytest.mark.parametrize(("key", "value"), [("max_iter", 2.5), ("max_iter", None), ("max_iter", "3"),
                                            ("max_iter", True), ("max_iter", 0), ("arrest_tol", "1e-8")])
def test_propagate_rejects_parameters_of_the_wrong_type(bm_equal, key, value):
    """max_iter and arrest_tol follow the rules of the params block: the
    wrong type is a ValidationError, not a TypeError from a comparison."""
    mc = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    state = CrackState(0.0, (mc,), three_point_preset(1.0, 3.0, 1.0), bm_equal)
    with pytest.raises(ValidationError, match=key):
        propagate(state, **{key: value})


def test_a_table_without_load_ahead_of_the_tip_is_no_load_support(bm_equal):
    forces = (PointForce(-4.0, "+", 1.0), PointForce(-4.0, "-", 1.0))
    loading = Loading(forces, DistributedLoad((-3.0, -0.2), (0.0, 0.0), (0.0, 0.0)))
    assert CrackState(-0.5, (), loading, bm_equal).loading.support_max() == -4.0


def test_propagate_refuses_a_defect_on_a_loaded_face_station(bm_equal):
    """The defect sits within one ulp of the lower face, over the station
    at x1 = -2, where the station kernel's denominator is exactly 0."""
    defect = Defect("microcrack", d=2.0, phi=math.nextafter(math.pi, 0.0), alpha=0.0, l_a=0.1)
    loading = Loading(sym_pair_at(2.0).forces + sym_pair_at(4.0, 1.0).forces)
    with pytest.raises(OnCrackFaceUnderLoad, match="^point at d=2 sits on a load station at the face$"):
        propagate(CrackState(0.0, (defect,), loading, bm_equal), max_iter=3)
