import math

import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from crackwake import (
    DEFECT_KINDS,
    Bimaterial,
    Defect,
    DilutenessWarning,
    Loading,
    LoadTooCloseToTip,
    PointForce,
    Scenario,
    ScenarioParams,
    UnbalancedLoading,
    ValidationError,
    dump_scenario,
    parse_scenario,
    three_point_preset,
)
from crackwake.errors import ConfigSyntaxError, MissingBlock, UnknownKey

MINIMAL = """
# weak interface, symmetric pair, one microcrack ahead
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  three_point { P = 1, a = 3, b = 0 }
}
defect { kind = microcrack, d = 1, phi = 22.5 deg, alpha = 0, la = 0.1 }
"""


def test_minimal_scenario_parses():
    s = parse_scenario(MINIMAL)
    assert s.bimaterial.mu_plus == 1.0
    assert len(s.loading.forces) == 3
    assert len(s.defects) == 1
    assert s.defects[0].phi == approx(math.pi / 8)
    assert s.params == ScenarioParams()


def test_multiline_and_inline_blocks_equivalent():
    inline = parse_scenario(MINIMAL)
    multiline = parse_scenario(
        """
bimaterial {
  mu_plus = 1
  mu_minus = 1
}
loading {
  three_point {
    P = 1
    a = 3
  }
}
defect {
  kind = microcrack
  d = 1
  phi = 22.5 deg
  alpha = 0
  la = 0.1
}
"""
    )
    assert inline == multiline


def test_force_blocks_and_params():
    s = parse_scenario(
        """
bimaterial { mu_plus = 1, mu_minus = 5 }
loading {
  force { face = "+", x1 = -1, p = -1 }
  force { face = "-", x1 = -1, p = -1 }
}
params { grid = 32x16, delta = 1e-7, max_iter = 500, arrest_tol = 1e-9, pair = b, threads = 4, pgm = true, out = "run.csv" }
"""
    )
    assert s.loading.forces[0].face == "+"
    assert s.params.grid == (32, 16)
    assert s.params.delta == 1e-7
    assert s.params.max_iter == 500
    assert s.params.arrest_tol == 1e-9
    assert s.params.pair == "b"
    assert s.params.threads == 4
    assert s.params.pgm is True
    assert s.params.out == "run.csv"


def test_defect_cartesian_position():
    s = parse_scenario(
        """
bimaterial { mu_plus = 1, mu_minus = 1 }
loading { force { face = "+", x1 = -1, p = 1 }, force { face = "-", x1 = -1, p = 1 } }
defect { kind = rigid_line, x = 0.6, y = -0.8, alpha = 0.2, la = 0.05 }
"""
    )
    assert s.defects[0].d == approx(1.0)
    assert s.defects[0].phi == approx(math.atan2(-0.8, 0.6))


def test_duplicate_bimaterial_reports_line():
    text = MINIMAL + "\nbimaterial { mu_plus = 2, mu_minus = 2 }\n"
    with pytest.raises(MissingBlock) as err:
        parse_scenario(text)
    assert "duplicate" in str(err.value)
    assert "line 9" in str(err.value)


def test_unknown_key_named():
    text = MINIMAL.replace("mu_plus = 1", "mu_plus_typo = 1")
    with pytest.raises(UnknownKey) as err:
        parse_scenario(text)
    assert "mu_plus_typo" in str(err.value)


def test_unknown_block_named():
    with pytest.raises(UnknownKey) as err:
        parse_scenario(MINIMAL + "\nwormhole { radius = 1 }\n")
    assert "wormhole" in str(err.value)


def test_missing_blocks():
    with pytest.raises(MissingBlock):
        parse_scenario("bimaterial { mu_plus = 1, mu_minus = 1 }")
    with pytest.raises(MissingBlock):
        parse_scenario("loading { force { face = \"+\", x1 = -1, p = 0 } }")


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigSyntaxError) as err:
        parse_scenario("bimaterial { mu_plus = 1, mu_minus = 1 }\nnonsense line\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigSyntaxError):
        parse_scenario("bimaterial {\n mu_plus = 1\n mu_minus = 1\n")  # never closed
    with pytest.raises(ConfigSyntaxError):
        parse_scenario("}\n")


def test_validation_errors_propagate():
    with pytest.raises(UnbalancedLoading):
        parse_scenario(
            'bimaterial { mu_plus = 1, mu_minus = 1 }\nloading { force { face = "+", x1 = -1, p = 1 } }\n'
        )
    with pytest.raises(LoadTooCloseToTip):
        parse_scenario(
            "bimaterial { mu_plus = 1, mu_minus = 1 }\n"
            'loading { force { face = "+", x1 = -1e-15, p = 1 }, force { face = "-", x1 = -1e-15, p = 1 } }\n'
        )


@pytest.mark.parametrize("key", ["delta", "arrest_tol"])
@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
def test_delta_and_arrest_tol_must_be_positive_and_finite(key, value):
    with pytest.raises(ConfigSyntaxError, match=f"^line 9: {key} must be positive and finite"):
        parse_scenario(MINIMAL + f"params {{\n  {key} = {value}\n}}\n")
    with pytest.raises(ValidationError, match=f"^{key} must be positive and finite"):
        ScenarioParams(**{key: float(value)})


@pytest.mark.parametrize("grid", ["0x4", "4x0", "1x1", "1x64", "128x1", "00x7"])
def test_grid_below_2x2_rejected_at_its_line(grid):
    with pytest.raises(ConfigSyntaxError, match="^line 9: grid must be at least 2x2"):
        parse_scenario(MINIMAL + f"params {{\n  grid = {grid}\n}}\n")
    assert parse_scenario(MINIMAL + "params { grid = 2x2 }\n").params.grid == (2, 2)


def test_comments_and_blank_lines_ignored():
    s = parse_scenario(
        "# header comment\n\nbimaterial { mu_plus = 1, mu_minus = 1 }  # trailing\n"
        'loading { force { face = "+", x1 = -2, p = 0.5 }, force { face = "-", x1 = -2, p = 0.5 } }\n'
    )
    assert s.loading.forces[0].x1 == -2.0


def test_dump_round_trip():
    s = parse_scenario(
        """
bimaterial { mu_plus = 1, mu_minus = 5 }
loading {
  three_point { P = 1, a = 3, b = 1.7 }
}
defect { kind = microcrack, d = 1, phi = 0.3, alpha = 0.1, la = 0.1 }
defect { kind = elastic_ellipse, d = 2, phi = -0.4, alpha = 1.2, la = 0.1, lb = 0.04, mu_star = 3 }
defect { kind = soft_line, d = 1.5, phi = 0.9, alpha = 0.5, la = 0.08, kappa = 0.3 }
params { grid = 64x32, delta = 1e-5, pair = b, out = "x.csv" }
"""
    )
    assert parse_scenario(dump_scenario(s)) == s


@pytest.mark.parametrize(
    "entry", ["max_iter = 2.7", "max_iter = inf", "max_iter = 0", "threads = 1.5", "threads = -3"]
)
def test_integer_keys_reject_other_values(entry):
    with pytest.raises(ConfigSyntaxError) as err:
        parse_scenario(MINIMAL + f"params {{\n  {entry}\n}}\n")
    assert str(err.value).startswith("line 9: ")
    assert "expects a positive integer" in str(err.value)


def test_integer_keys_accept_integral_numbers():
    params = parse_scenario(MINIMAL + "params { max_iter = 1e3, threads = 2 }\n").params
    assert params.max_iter == 1000 and isinstance(params.max_iter, int)
    assert params.threads == 2


def test_diluteness_warning_names_the_defect_line():
    text = MINIMAL + "defect { kind = rigid_line, d = 1, phi = 0.3, alpha = 0, la = 0.5 }\n"
    with pytest.warns(DilutenessWarning) as caught:
        parse_scenario(text)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("line 8: defect size l/d = 0.5")
    assert caught[0].lineno == 8


positive = st.floats(min_value=1e-300, max_value=1e300)


@st.composite
def defects(draw):
    """A defect of any kind, with the fields its config form carries."""
    kind = draw(st.sampled_from(DEFECT_KINDS))
    d = draw(st.floats(min_value=1e-3, max_value=1e2))
    l_a = d * draw(st.floats(min_value=1e-6, max_value=0.25))  # dilute: no warning
    kwargs = {}
    if kind in ("elastic_ellipse", "rigid_ellipse", "elliptic_void"):
        kwargs["l_b"] = l_a * draw(st.floats(min_value=1e-6, max_value=1.0))
    if kind == "elastic_ellipse":
        kwargs["mu_star"] = draw(st.floats(min_value=1e-3, max_value=1e3))
    if kind in ("soft_line", "stiff_line"):
        kwargs["kappa"] = draw(st.floats(min_value=0.0, max_value=1e3))
    phi = draw(st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True, exclude_max=True))
    alpha = draw(st.floats(min_value=-10.0, max_value=10.0))
    return Defect(kind, d=d, phi=phi, alpha=alpha, l_a=l_a, **kwargs)


@st.composite
def scenarios(draw):
    """Random bimaterial, a three-point load plus balanced extra forces,
    one to three defects and random params."""
    bimaterial = Bimaterial(draw(positive), draw(positive))
    a = draw(st.floats(min_value=0.1, max_value=1e3))
    # P/2 of a subnormal P rounds, so the preset balances only above that
    P = draw(st.floats(min_value=-1e3, max_value=1e3).filter(lambda p: p == 0.0 or abs(p) > 1e-300))
    preset = three_point_preset(P, a, a * draw(st.floats(min_value=0.0, max_value=0.9)))
    forces = list(preset.forces)
    station = st.floats(min_value=-1e3, max_value=-0.01)
    for p in draw(st.lists(st.floats(min_value=-1e3, max_value=1e3), max_size=3)):
        # equal forces on the two faces balance exactly, wherever they sit
        forces += [PointForce(draw(station), "+", p), PointForce(draw(station), "-", p)]
    params = ScenarioParams(
        grid=(draw(st.integers(2, 4096)), draw(st.integers(2, 4096))),
        delta=draw(positive),
        max_iter=draw(st.integers(1, 10**9)),
        arrest_tol=draw(st.none() | positive),
        out=draw(st.none() | st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
        pgm=draw(st.booleans()),
        pair=draw(st.sampled_from("ab")),
        threads=draw(st.integers(1, 64)),
    )
    return Scenario(bimaterial, Loading(tuple(forces)), tuple(draw(st.lists(defects(), min_size=1, max_size=3))),
                    params)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_dump_parse_round_trip_property(scenario):
    assert parse_scenario(dump_scenario(scenario)) == scenario
