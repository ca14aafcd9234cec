import math

import pytest
from pytest import approx

from crackwake import (
    Defect,
    DilutenessWarning,
    LoadTooCloseToTip,
    Scenario,
    ScenarioParams,
    UnbalancedLoading,
    ValidationError,
    dump_scenario,
    parse_scenario,
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
    with pytest.raises(ValidationError, match=key):
        parse_scenario(MINIMAL + f"params {{ {key} = {value} }}\n")
    with pytest.raises(ValidationError, match=key):
        ScenarioParams(**{key: float(value)})


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
