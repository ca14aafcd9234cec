"""The immutable value types: construction, equality, hash, repr, copies."""

import functools
import math

import pytest

from crackwake import (
    Bimaterial, Defect, FieldPoint, InvalidDefect, Loading, PointForce, Scenario, ScenarioParams, three_point_preset,
)


def microcrack(**changes):
    return Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1).replace(**changes)


def test_positional_keyword_and_default_construction_agree():
    full = Defect("microcrack", 1.0, 0.4, 0.3, 0.1, 0.0, 1.0, 0.0)
    assert full == microcrack() == Defect("microcrack", 1.0, phi=0.4, alpha=0.3, l_a=0.1)
    assert (full.l_b, full.mu_star, full.kappa) == (0.0, 1.0, 0.0)
    assert Loading().forces == () and Loading().distributed is None


def test_scenario_params_default_is_one_shared_record():
    loading = three_point_preset(1.0, 3.0, 0.0)
    first, second = Scenario(Bimaterial(1.0, 1.0), loading), Scenario(Bimaterial(1.0, 2.0), loading)
    assert first.params is second.params == ScenarioParams()
    assert first.defects == ()


@pytest.mark.parametrize(
    "args, kwargs",
    [
        (("microcrack", 1.0, 0.4, 0.3), {}),  # l_a missing
        (("microcrack",), {"d": 1.0, "phi": 0.4, "alpha": 0.3}),
        (("microcrack",), {"d": 1.0, "phi": 0.4, "alpha": 0.3, "l_a": 0.1, "size": 2.0}),  # unknown
        (("microcrack", 1.0), {"d": 1.0, "phi": 0.4, "alpha": 0.3, "l_a": 0.1}),  # d twice
        (("microcrack", 1.0, 0.4, 0.3, 0.1, 0.0, 1.0, 0.0, 9.0), {}),  # one too many
    ],
    ids=["missing-positional", "missing-keyword", "unknown", "repeated", "too-many"],
)
def test_missing_unknown_or_repeated_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError, match=r"Defect\(\) takes the fields"):
        Defect(*args, **kwargs)


def test_post_init_validates_and_normalises():
    with pytest.raises(InvalidDefect):
        Defect("microcrack", 1.0, 0.4, 0.3, -0.1)
    assert Defect("microcrack", 1.0, 0.4, -0.25 * math.pi, 0.1).alpha == 0.75 * math.pi
    assert Loading([PointForce(-1.0, "+", 1.0)]).forces == (PointForce(-1.0, "+", 1.0),)


def test_fields_cannot_be_assigned_or_deleted():
    defect = microcrack()
    with pytest.raises(AttributeError, match="immutable"):
        defect.d = 2.0
    with pytest.raises(AttributeError, match="immutable"):
        del defect.d
    with pytest.raises(AttributeError):
        defect.extra = 1.0
    assert defect.d == 1.0 and not hasattr(defect, "extra")


def test_equality_needs_the_exact_class():
    defect = microcrack()
    values = ("microcrack", 1.0, 0.4, 0.3, 0.1, 0.0, 1.0, 0.0)
    assert defect != values and values != defect
    assert defect.__eq__(values) is NotImplemented
    assert FieldPoint(1.0, 0.5) != Bimaterial(1.0, 0.5)
    assert FieldPoint(1.0, 0.5) == FieldPoint(1.0, 0.5)
    assert microcrack(l_a=0.2) != defect


def test_hash_agrees_with_equality():
    same = [microcrack(alpha=0.75 * math.pi), Defect("microcrack", 1.0, 0.4, 0.75 * math.pi, 0.1),
            microcrack(alpha=-0.25 * math.pi)]
    assert all(d == same[0] and hash(d) == hash(same[0]) for d in same)
    assert len({*same, microcrack()}) == 2
    assert hash(FieldPoint(1.0, 0.5)) == hash((1.0, 0.5))


def test_repr_lists_every_field_in_order():
    assert repr(microcrack()) == (
        "Defect(kind='microcrack', d=1.0, phi=0.4, alpha=0.3, l_a=0.1, l_b=0.0, mu_star=1.0, kappa=0.0)"
    )
    assert repr(Loading((PointForce(-1.0, "+", 2.0),))) == (
        "Loading(forces=(PointForce(x1=-1.0, face='+', magnitude=2.0),), distributed=None)"
    )


def test_replace_validates_the_copy_again():
    defect = microcrack()
    with pytest.raises(InvalidDefect):
        defect.replace(d=-1.0)
    assert defect.replace(alpha=4.0).alpha == 4.0 - math.pi
    assert defect.replace(d=2.0) == Defect("microcrack", d=2.0, phi=0.4, alpha=0.3, l_a=0.1)
    assert defect.replace() == defect and defect.d == 1.0
    with pytest.raises(TypeError):
        defect.replace(size=2.0)


def test_cached_properties_stay_out_of_equality():
    bm = Bimaterial(1.0, 3.0)
    assert isinstance(Bimaterial.__dict__["contrast"], functools.cached_property)
    assert bm.contrast == 0.5 and bm.mu_sum == 4.0
    assert bm == Bimaterial(1.0, 3.0) and hash(bm) == hash(Bimaterial(1.0, 3.0))
