import math

import pytest
from hypothesis import given, strategies as st
from pytest import approx

from crackwake import (
    Bimaterial,
    DistributedLoad,
    InvalidPreset,
    Loading,
    LoadTooCloseToTip,
    PointForce,
    UnbalancedLoading,
    ValidationError,
    check_balance,
    contrast,
    decompose,
    three_point_preset,
)

positive_mu = st.floats(min_value=1e-3, max_value=1e6, allow_nan=False)


def test_contrast_values():
    assert contrast(Bimaterial(1.0, 1.0)) == 0.0
    assert contrast(Bimaterial(1.0, 5.0)) == approx(2.0 / 3.0)
    assert contrast(Bimaterial(5.0, 1.0)) == approx(-2.0 / 3.0)


@given(positive_mu, positive_mu)
def test_contrast_antisymmetric_and_bounded(mu_a, mu_b):
    eta = contrast(Bimaterial(mu_a, mu_b))
    assert eta == -contrast(Bimaterial(mu_b, mu_a))
    assert -1.0 < eta < 1.0


def test_bimaterial_rejects_nonpositive_moduli():
    with pytest.raises(ValidationError):
        Bimaterial(0.0, 1.0)
    with pytest.raises(ValidationError):
        Bimaterial(1.0, -2.0)


def test_point_force_validation():
    with pytest.raises(ValidationError):
        PointForce(1.0, "+", 1.0)
    with pytest.raises(ValidationError):
        PointForce(-1.0, "x", 1.0)


def test_decompose_symmetric_load():
    q = 0.7
    dec = decompose(Loading((PointForce(-2.0, "+", q), PointForce(-2.0, "-", q))))
    assert len(dec.stations) == 1
    assert dec.stations[0].avg == approx(q)
    assert dec.stations[0].jump == 0.0


def test_decompose_antisymmetric_load():
    q = 0.7
    dec = decompose(Loading((PointForce(-2.0, "+", q), PointForce(-2.0, "-", -q))))
    assert dec.stations[0].avg == 0.0
    assert dec.stations[0].jump == approx(2.0 * q)


forces = st.lists(
    st.builds(
        PointForce,
        st.floats(min_value=-50.0, max_value=-0.1),
        st.sampled_from(["+", "-"]),
        st.floats(min_value=-10.0, max_value=10.0),
    ),
    min_size=1,
    max_size=6,
)


@given(forces)
def test_decompose_recombine_round_trip(force_list):
    loading = Loading(tuple(force_list))
    first = decompose(loading)
    second = decompose(first.recombine())
    assert first.stations == second.stations


@given(
    st.floats(min_value=1e-3, max_value=1e3),
    st.floats(min_value=0.0, max_value=0.999),
    st.floats(min_value=-5.0, max_value=5.0).filter(lambda p: p == 0.0 or abs(p) > 1e-300),
)
def test_three_point_preset_always_balanced(a, frac, P):
    loading = three_point_preset(P, a, frac * a)
    assert check_balance(loading, tip_clearance=1e-9 * a) is loading


def test_three_point_preset_symmetric_iff_b_zero():
    dec = decompose(three_point_preset(2.5, 3.0, 0.0))
    assert all(s.jump == 0.0 for s in dec.stations)
    dec = decompose(three_point_preset(2.5, 3.0, 1.0))
    assert any(s.jump != 0.0 for s in dec.stations)


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


def test_check_balance_detects_unbalanced():
    with pytest.raises(UnbalancedLoading):
        check_balance(Loading((PointForce(-1.0, "+", 1.0),)))


def test_check_balance_detects_tip_proximity():
    loading = Loading((PointForce(-1e-15, "+", 1.0), PointForce(-1e-15, "-", 1.0)))
    with pytest.raises(LoadTooCloseToTip):
        check_balance(loading)


def test_empty_loading_is_balanced():
    check_balance(Loading(()))


def test_check_balance_with_table():
    """A tabulated jump is balanced by a lower-face force equal to its
    trapezoid resultant; a wrong force is caught."""
    table = DistributedLoad((-3.0, -2.0, -1.0), (0.5, -1.0, 0.5), (0.0, 2.0, 0.0))
    assert table.jump_resultant() == 2.0
    assert table.abs_scale() == 3.0
    balanced = Loading((PointForce(-4.0, "-", 2.0),), table)
    assert check_balance(balanced) is balanced
    assert balanced.balance_residual() == 0.0
    assert balanced.abs_scale() == 5.0
    with pytest.raises(UnbalancedLoading):
        check_balance(Loading((PointForce(-4.0, "-", 1.0),), table))


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
