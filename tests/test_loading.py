import math
import sys

import pytest
from hypothesis import given, strategies as st
from pytest import approx

from crackwake import (
    Bimaterial,
    Defect,
    DistributedLoad,
    FieldPoint,
    InvalidPreset,
    Loading,
    LoadTooCloseToTip,
    PairArrangement,
    PointForce,
    UnbalancedLoading,
    ValidationError,
    check_balance,
    coeff_a0,
    decompose,
    delta_k_defect,
    grad_u0,
    scan_map,
    sif_k0,
    three_point_preset,
)

positive_mu = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def test_contrast_values():
    assert Bimaterial(1.0, 1.0).contrast == 0.0
    assert Bimaterial(1.0, 5.0).contrast == approx(2.0 / 3.0)
    assert Bimaterial(5.0, 1.0).contrast == approx(-2.0 / 3.0)


@given(positive_mu, positive_mu)
def test_contrast_antisymmetric_and_bounded(mu_a, mu_b):
    eta = Bimaterial(mu_a, mu_b).contrast
    assert eta == -Bimaterial(mu_b, mu_a).contrast
    assert -1.0 < eta < 1.0


def test_bimaterial_rejects_nonpositive_moduli():
    with pytest.raises(ValidationError):
        Bimaterial(0.0, 1.0)
    with pytest.raises(ValidationError):
        Bimaterial(1.0, -2.0)


@pytest.mark.parametrize("moduli", [(1e-300, 1e-300), (1e308, 1e308), (1e200, 1e200), (1e-160, 1e-160)])
def test_bimaterial_rejects_moduli_whose_product_or_sum_leaves_the_float_range(moduli):
    """mu_series = 0 at (1e-300, 1e-300) and nan at (1e308, 1e308); only the
    ratio of the moduli matters, so both are refused with that advice."""
    with pytest.raises(ValidationError, match=r"^shear moduli \(.+, .+\) .*only their ratio matters"):
        Bimaterial(*moduli)


def test_bimaterial_accepts_any_ratio_in_range():
    for moduli in ((1.0, 1e-300), (1e-300, 1.0), (1e300, 1e-8), (1e-150, 1e-150), (1e154, 1e154)):
        bm = Bimaterial(*moduli)
        assert 0.0 < bm.mu_series < math.inf and -1.0 <= bm.contrast <= 1.0


def test_point_force_validation():
    with pytest.raises(ValidationError):
        PointForce(1.0, "+", 1.0)
    with pytest.raises(ValidationError):
        PointForce(-1.0, "x", 1.0)


def test_decompose_symmetric_load():
    q = 0.7
    stations, table = decompose(Loading((PointForce(-2.0, "+", q), PointForce(-2.0, "-", q))))
    ((x1, avg, jump),) = stations
    assert (x1, jump, table) == (-2.0, 0.0, None)
    assert avg == approx(q)


def test_decompose_antisymmetric_load():
    q = 0.7
    ((_, avg, jump),), _ = decompose(Loading((PointForce(-2.0, "+", q), PointForce(-2.0, "-", -q))))
    assert avg == 0.0
    assert jump == approx(2.0 * q)


forces = st.lists(
    st.builds(
        PointForce,
        # a few shared abscissae and magnitudes that cancel, so stations merge and drop
        st.sampled_from([-1.0, -2.5]) | st.floats(min_value=-50.0, max_value=-0.1),
        st.sampled_from(["+", "-"]),
        st.sampled_from([0.0, 1.5, -1.5]) | st.floats(min_value=-10.0, max_value=10.0),
    ),
    min_size=1,
    max_size=6,
)


@given(forces)
def test_decompose_merges_each_abscissa_into_avg_and_jump(force_list):
    """Each station is (x1, (p+ + p-)/2, p+ - p-) of the face loads summed
    at its abscissa, in order; stations come sorted by x1, and an abscissa
    whose face sums are both zero has none."""
    faces = {}
    for f in force_list:
        sums = faces.setdefault(f.x1, [0.0, 0.0])
        sums[0 if f.face == "+" else 1] += f.magnitude
    stations, table = decompose(Loading(tuple(force_list)))
    assert table is None
    assert stations == tuple((x1, 0.5 * (p_up + p_lo), p_up - p_lo)
                             for x1, (p_up, p_lo) in sorted(faces.items()) if (p_up, p_lo) != (0.0, 0.0))
    assert all(type(v) is float for station in stations for v in station)


def test_decompose_passes_the_table_columns():
    table = DistributedLoad((-3.0, -2.0, -1.0), (0.0, 1.0, 0.0), (0.0, -0.5, 0.0))
    stations, columns = decompose(Loading((), table))
    assert stations == () and columns == (table.x, table.avg, table.jump)


def test_a_loading_is_split_once(monkeypatch):
    """One Loading passed to every kernel is decomposed once, on first use."""
    import crackwake.loading as loading_module

    calls = []
    real = loading_module.decompose
    monkeypatch.setattr(loading_module, "decompose", lambda loading: calls.append(loading) or real(loading))
    loading = three_point_preset(1.0, 3.0, 1.0)
    bm = Bimaterial(1.0, 5.0)
    defect = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    sif_k0(loading, bm)
    coeff_a0(loading, bm)
    grad_u0(loading, bm, FieldPoint(1.0, 0.4))
    delta_k_defect(defect, loading, bm)
    scan_map(PairArrangement("a", l1=0.1, d1=1.0), loading, bm, grid=(4, 2))
    assert calls == [loading]


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=-5.0, max_value=5.0).filter(lambda p: p == 0.0 or abs(p) > 1e-300),
)
def test_three_point_preset_always_balanced(a, frac, P):
    loading = three_point_preset(P, a, frac * a)
    assert check_balance(loading, tip_clearance=1e-9 * a) is loading


def test_three_point_preset_symmetric_iff_b_zero():
    stations, _ = decompose(three_point_preset(2.5, 3.0, 0.0))
    assert all(jump == 0.0 for _, _, jump in stations)
    stations, _ = decompose(three_point_preset(2.5, 3.0, 1.0))
    assert any(jump != 0.0 for _, _, jump in stations)


def test_three_point_preset_geometry():
    loading = three_point_preset(1.0, 3.0, 1.0)
    stations = sorted((f.x1, f.face, f.magnitude) for f in loading.forces)
    assert stations == [(-4.0, "-", 0.5), (-3.0, "+", 1.0), (-2.0, "-", 0.5)]


def test_three_point_preset_near_limit_valid():
    loading = three_point_preset(1.0, 3.0, 2.97)
    check_balance(loading)


@pytest.mark.parametrize("P,a,b", [(1.0, 3.0, 3.0), (1.0, 3.0, 3.5), (1.0, 0.0, 0.0), (1.0, -1.0, 0.0), (1.0, 3.0, -0.1)])
def test_three_point_preset_rejects_bad_geometry(P, a, b):
    with pytest.raises(InvalidPreset):
        three_point_preset(P, a, b)


@pytest.mark.parametrize("P", [5e-324, -5e-324, 0.5 * sys.float_info.min])
def test_three_point_preset_rejects_subnormal_load(P):
    """P/2 of a subnormal P rounds, so the preset could not balance."""
    with pytest.raises(InvalidPreset, match="^P must"):
        three_point_preset(P, 3.0, 0.0)


@pytest.mark.parametrize("P", [0.0, sys.float_info.min, -sys.float_info.min])
def test_three_point_preset_smallest_normal_load_balanced(P):
    for b in (0.0, 1.0):
        check_balance(three_point_preset(P, 3.0, b))


def test_check_balance_detects_unbalanced():
    with pytest.raises(UnbalancedLoading):
        check_balance(Loading((PointForce(-1.0, "+", 1.0),)))


def test_check_balance_detects_tip_proximity():
    loading = Loading((PointForce(-1e-15, "+", 1.0), PointForce(-1e-15, "-", 1.0)))
    with pytest.raises(LoadTooCloseToTip):
        check_balance(loading)


@pytest.mark.parametrize("clearance", [math.nan, -1.0, -1e-300, math.inf])
def test_check_balance_refuses_a_clearance_that_is_not_a_distance(clearance):
    """nan or a negative clearance would switch the tip check off, inf
    would refuse every loading."""
    loading = Loading((PointForce(-1e-9, "+", 1.0), PointForce(-1e-9, "-", 1.0)))
    with pytest.raises(LoadTooCloseToTip):
        check_balance(loading)
    assert check_balance(loading, tip_clearance=0.0) is loading
    with pytest.raises(ValidationError, match="^tip clearance must be non-negative and finite"):
        check_balance(loading, tip_clearance=clearance)


def test_empty_loading_is_balanced():
    check_balance(Loading(()))


def test_check_balance_with_table():
    """A tabulated jump is balanced by a lower-face force equal to its
    trapezoid resultant; a wrong force is caught.  The residual and the
    scale |p+| + |p-| come from the split, exact on these values."""
    table = DistributedLoad((-3.0, -2.0, -1.0), (0.5, -1.0, 0.5), (0.0, 2.0, 0.0))
    balanced = Loading((PointForce(-4.0, "-", 2.0),), table)
    assert check_balance(balanced) is balanced
    for forces, residual, scale in (((), 2.0, 3.0), ((PointForce(-4.0, "-", 1.0),), 1.0, 4.0)):
        with pytest.raises(UnbalancedLoading) as caught:
            check_balance(Loading(forces, table))
        assert (caught.value.residual, caught.value.scale) == (residual, scale)


@pytest.mark.parametrize(
    "forces",
    [(PointForce(-1e-9, "+", 0.0),), (PointForce(-1e-9, "+", 1.0), PointForce(-1e-9, "+", -1.0))],
    ids=["zero-force", "same-face-cancelling"],
)
def test_an_abscissa_whose_loads_sum_to_zero_is_no_load_support(forces):
    """decompose drops the abscissa, so the loads within the tip clearance
    pass the balance check and leave the split as it was."""
    preset = three_point_preset(1.0, 3.0, 1.0)
    loading = Loading(preset.forces + forces)
    assert check_balance(loading) is loading
    assert loading.split == preset.split and loading.support_max() == -2.0


def test_an_abscissa_whose_loads_sum_to_zero_adds_no_scale():
    cancelling = (PointForce(-2.0, "+", 5.0), PointForce(-2.0, "+", -5.0))
    with pytest.raises(UnbalancedLoading) as caught:
        check_balance(Loading((PointForce(-1.0, "+", 1.0), *cancelling)))
    assert (caught.value.residual, caught.value.scale) == (1.0, 1.0)


@pytest.mark.parametrize(
    "loading",
    [
        three_point_preset(1e308, 3.0, 1.0),
        Loading((PointForce(-1.0, "+", 1e308), PointForce(-1.0, "+", 1e308),
                 PointForce(-2.0, "-", 1e308), PointForce(-2.0, "-", 1e308))),
        Loading((), DistributedLoad((-3.0, -2.0, -1.0), (0.0, 0.0, 0.0), (1e308, 1e308, -1e308))),
    ],
    ids=["preset-scale-overflows", "merged-force-overflows", "table-panels-overflow"],
)
def test_loads_beyond_the_float_range_pass_the_balance_check(loading):
    """An fsum of the residual or the scale that leaves the float range
    means an infinite scale, which no residual exceeds: the check passes,
    as with a plain running sum, and raises no OverflowError or ValueError."""
    assert check_balance(loading) is loading


@pytest.mark.parametrize(
    "build",
    [
        lambda: Bimaterial(math.nan, 1.0),
        lambda: Bimaterial(1.0, math.inf),
        lambda: PointForce(-math.inf, "+", 1.0),
        lambda: PointForce(-1.0, "-", math.nan),
        lambda: DistributedLoad((-math.inf, -1.0), (0.0, 0.0), (0.0, 0.0)),
        lambda: DistributedLoad((-2.0, -1.0), (math.nan, 0.0), (0.0, 0.0)),
        lambda: DistributedLoad((-2.0, -1.0), (0.0, 0.0), (0.0, -math.inf)),
        lambda: three_point_preset(math.nan, 3.0, 1.0),
        lambda: three_point_preset(1.0, math.inf, 1.0),
        lambda: three_point_preset(1.0, 3.0, math.nan),
    ],
    ids=["mu_plus", "mu_minus", "x1", "magnitude", "table_x", "table_avg", "table_jump",
         "preset_P", "preset_a", "preset_b"],
)
def test_non_finite_values_rejected(build):
    with pytest.raises(ValidationError):
        build()


@pytest.mark.parametrize(
    "x, avg, jump",
    [
        (("a", "b"), (0.0, 0.0), (0.0, 0.0)),
        (("-2", "-1"), (0.0, 0.0), (0.0, 0.0)),
        ("ab", (0.0, 0.0), (0.0, 0.0)),
        ((-2.0, -1.0), (0.0, "x"), (0.0, 0.0)),
        ((-2.0, -1.0), (0.0, 0.0), (None, 0.0)),
        ((-2.0, None), (0.0, 0.0), (0.0, 0.0)),
        (((-2.0,), (-1.0,)), (0.0, 0.0), (0.0, 0.0)),
        ((-2.0, -1.0), ((0.0, 1.0), 0.0), (0.0, 0.0)),
        ((-2.0, -1.0), (0.0, 0.0), (0.0, 1j)),
        ((-2.0, -1.0), (0.0, 0.0), (0.0, -(10**400))),
        (-1.0, (0.0,), (0.0,)),
        (None, None, None),
    ],
    ids=["str-x", "numeric-str-x", "str-column", "str-avg", "none-jump", "none-x", "nested-x",
         "nested-avg", "complex-jump", "huge-int-jump", "scalar-x", "none-columns"],
)
def test_non_numeric_table_rejected(x, avg, jump):
    """A table entry that is not a real number is a ValidationError, never
    a ValueError or TypeError from the conversion."""
    with pytest.raises(ValidationError, match="sequences of real numbers"):
        DistributedLoad(x, avg, jump)


def test_table_columns_become_float_tuples():
    import numpy as np

    table = DistributedLoad(np.array([-3, -2, -1]), [np.float32(0.5), 1, True], (0.0, 2.0, 0.0))
    assert table.x == (-3.0, -2.0, -1.0) and table.avg == (0.5, 1.0, 1.0)
    assert all(type(v) is float for v in table.x + table.avg + table.jump)


PAIR_AT_4 = (PointForce(-4.0, "+", 1.0), PointForce(-4.0, "-", 1.0))


@pytest.mark.parametrize("x, avg, jump, kept", [
    ((-5.0, -4.0, -3.0, -2.0, -1.0), (0.0, 0.0, 1.0, 0.0, -0.0), (0.0, -0.0, 0.0, 0.0, 0.0), slice(1, 4)),
    ((-5.0, -4.0, -3.0, -2.0), (0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 0.0, 2.0), slice(2, 4)),
    ((-5.0, -4.0, -3.0), (3.0, 0.0, 0.0), (0.0, 0.0, 0.0), slice(0, 2)),
    ((-5.0, -4.0), (1.0, 0.0), (0.0, 1.0), slice(0, 2)),
])
def test_decompose_drops_the_zero_end_panels_of_a_table(x, avg, jump, kept):
    """An end panel whose two knots carry no load is no load support."""
    _, table = decompose(Loading((), DistributedLoad(x, avg, jump)))
    assert table == (x[kept], avg[kept], jump[kept])


def test_a_table_with_no_load_is_no_table():
    loading = Loading(PAIR_AT_4, DistributedLoad((-3.0, -2.0, -1e-9), (0.0, 0.0, 0.0), (0.0, 0.0, 0.0)))
    assert loading.split == (Loading(PAIR_AT_4).split[0], None)
    assert check_balance(loading) is loading


@pytest.mark.parametrize("x, avg, jump, message", [
    ((-1.0,), (1.0,), (0.0,), "distributed load needs at least two stations"),
    ((-1.0, -2.0), (1.0, 1.0), (0.0, 0.0), "distributed-load stations must be strictly increasing"),
    ((-1.0, 0.0), (1.0, 1.0), (0.0, 0.0), "distributed-load support must lie on x1 < 0"),
    ((-2.0, -1.0), (1.0,), (0.0, 0.0), "avg/jump tables must match the station grid"),
])
def test_distributed_load_rejects_a_bad_table(x, avg, jump, message):
    with pytest.raises(ValidationError, match=f"^{message}$"):
        DistributedLoad(x, avg, jump)
