import math
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from crackwake import (
    DEFECT_KINDS,
    Bimaterial,
    Defect,
    DilutenessWarning,
    DistributedLoad,
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
from crackwake.defects import _KIND_FIELDS
from crackwake.errors import ConfigError, InvalidDefect, InvalidPreset

from helpers import read_outcome

MINIMAL = """
# weak interface, symmetric pair, one microcrack ahead
bimaterial { mu_plus = 1, mu_minus = 1 }
loading {
  three_point { P = 1, a = 3, b = 0 }
}
defect { kind = microcrack, d = 1, phi = 22.5 deg, alpha = 0, la = 0.1 }
"""


@pytest.mark.parametrize(
    "old, new, error, message",
    [
        ("a = 3, b = 0", "a = -3, b = 0", InvalidPreset, "a must be positive"),
        ("d = 1,", "d = -1,", InvalidDefect, "defect distance must be positive"),
        ("mu_minus = 1", "mu_minus = 0", ValidationError, "shear moduli must be positive"),
        ("kind = microcrack", "kind = 7", InvalidDefect, "unknown defect kind 7.0"),
        ("three_point { P = 1, a = 3, b = 0 }", 'force { face = "x", x1 = -1, p = 0 }', ValidationError,
         "face must be \"\\+\" or \"-\", got 'x'"),
    ],
)
def test_constructor_errors_keep_their_class_and_gain_the_block_line(old, new, error, message):
    """The constructors are the only checks of these values: the parser
    passes them on and adds the block's line to what the constructor raises."""
    line = next(i for i, text in enumerate(MINIMAL.splitlines(), start=1) if old in text)
    with pytest.raises(error, match=f"^line {line}: {message}") as caught:
        parse_scenario(MINIMAL.replace(old, new))
    assert not isinstance(caught.value, ConfigError)


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
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "duplicate" in str(err.value)
    assert "line 9" in str(err.value)


def test_unknown_key_named():
    text = MINIMAL.replace("mu_plus = 1", "mu_plus_typo = 1")
    with pytest.raises(ConfigError) as err:
        parse_scenario(text)
    assert "mu_plus_typo" in str(err.value)


def test_unknown_block_named():
    with pytest.raises(ConfigError) as err:
        parse_scenario(MINIMAL + "\nwormhole { radius = 1 }\n")
    assert "wormhole" in str(err.value)


def test_missing_blocks():
    """No line holds a missing block, so the error names none."""
    with pytest.raises(ConfigError, match="^missing loading block$") as err:
        parse_scenario("bimaterial { mu_plus = 1, mu_minus = 1 }")
    assert err.value.line is None
    with pytest.raises(ConfigError, match="^missing bimaterial block$") as err:
        parse_scenario("loading { force { face = \"+\", x1 = -1, p = 0 } }")
    assert err.value.line is None


def test_syntax_errors_carry_line_numbers():
    with pytest.raises(ConfigError) as err:
        parse_scenario("bimaterial { mu_plus = 1, mu_minus = 1 }\nnonsense line\n")
    assert "line 2" in str(err.value)
    with pytest.raises(ConfigError):
        parse_scenario("bimaterial {\n mu_plus = 1\n mu_minus = 1\n")  # never closed
    with pytest.raises(ConfigError):
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
    with pytest.raises(ConfigError, match=f"^line 9: {key} must be positive and finite"):
        parse_scenario(MINIMAL + f"params {{\n  {key} = {value}\n}}\n")
    with pytest.raises(ValidationError, match=f"^{key} must be positive and finite"):
        ScenarioParams(**{key: float(value)})


@pytest.mark.parametrize("grid", ["0x4", "4x0", "1x1", "1x64", "128x1", "00x7"])
def test_grid_below_2x2_rejected_at_its_line(grid):
    with pytest.raises(ConfigError, match="^line 9: grid must be at least 2x2"):
        parse_scenario(MINIMAL + f"params {{\n  grid = {grid}\n}}\n")
    assert parse_scenario(MINIMAL + "params { grid = 2x2 }\n").params.grid == (2, 2)


@pytest.mark.parametrize("grid", [(0, 4), (4, 1), (1, 1), (-3, 8)])
def test_scenario_params_rejects_grid_below_2x2(grid):
    with pytest.raises(ValidationError, match=f"^grid must be at least 2x2, got {grid[0]}x{grid[1]}$"):
        ScenarioParams(grid=grid)


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


BAD_FIELDS = [
    ("max_iter = 2.7", {"max_iter": 2.7}, "max_iter expects a positive integer"),
    ("max_iter = inf", {"max_iter": math.inf}, "max_iter expects a positive integer"),
    ("max_iter = 0", {"max_iter": 0}, "max_iter expects a positive integer"),
    ("threads = 1.5", {"threads": 1.5}, "threads expects a positive integer"),
    ("threads = -3", {"threads": -3}, "threads expects a positive integer"),
    ("max_iter = 2.5", {"max_iter": 2.5}, "max_iter expects a positive integer"),
    ("max_iter = true", {"max_iter": True}, "max_iter expects a positive integer"),
    ("threads = 0", {"threads": 0}, "threads expects a positive integer"),
    ("pair = c", {"pair": "c"}, 'pair expects "a" or "b"'),
    ("pgm = yes", {"pgm": "yes"}, "pgm expects true/false"),
]


@pytest.mark.parametrize("entry, field, message", BAD_FIELDS, ids=[case[0] for case in BAD_FIELDS])
def test_integer_keys_reject_other_values(entry, field, message):
    """A bad params entry and the same value given to ScenarioParams fail
    with one message: the integer keys, and pair and pgm alike."""
    with pytest.raises(ConfigError, match=f"^line 9: {message}, got "):
        parse_scenario(MINIMAL + f"params {{\n  {entry}\n}}\n")
    with pytest.raises(ValidationError, match=f"^{message}, got "):
        ScenarioParams(**field)


@pytest.mark.parametrize("out", ['a"b.csv', "a\nb.csv", "a.csv\n"])
def test_dump_refuses_an_out_path_that_would_not_reparse(out):
    scenario = parse_scenario(MINIMAL)
    with pytest.raises(ValidationError, match="has no config form"):
        dump_scenario(scenario.replace(params=ScenarioParams(out=out)))
    plain = scenario.replace(params=ScenarioParams(out="a b#c,{d}.csv"))
    assert parse_scenario(dump_scenario(plain)) == plain


def test_integer_keys_accept_integral_numbers():
    params = parse_scenario(MINIMAL + "params { max_iter = 1e3, threads = 2 }\n").params
    assert params.max_iter == 1000 and isinstance(params.max_iter, int)
    assert params.threads == 2


EVERY_BLOCK_MULTILINE = """\
bimaterial {
  mu_plus = 1
  mu_minus = 1
}
loading {
  three_point {
    P = 1
    a = 3
  }
  force {
    face = "+"
    x1 = -2
    p = 0
  }
}
defect {
  kind = microcrack
  d = 1
  phi = 0.3
  alpha = 0
  la = 0.1
}
params {
  grid = 8x4
}
"""


@pytest.mark.parametrize("block", ["bimaterial", "loading", "three_point", "force", "defect", "params"])
def test_a_block_inside_any_block_is_refused_at_its_line(block):
    """A block nested where the grammar has none is an error at its own
    line, in every block: none is dropped in silence."""
    lines = EVERY_BLOCK_MULTILINE.splitlines()
    assert parse_scenario(EVERY_BLOCK_MULTILINE).params.grid == (8, 4)
    at = next(i for i, text in enumerate(lines) if text.strip() == f"{block} {{") + 1
    lines.insert(at, "    defect { kind = microcrack, d = 2, phi = 0.1, alpha = 0, la = 0.1 }")
    with pytest.raises(ConfigError, match=f"^line {at + 1}: unknown block 'defect' inside '{block}'$"):
        parse_scenario("\n".join(lines))


@pytest.mark.parametrize("name, old, new", [
    ("bimaterial", "mu_minus = 1 }", "mu_minus = 1, extra { a = 1 } }"),
    ("three_point", "b = 0 }", "b = 0, extra { a = 1 } }"),
    ("defect", "la = 0.1 }", "la = 0.1, extra { a = 1 } }"),
])
def test_an_inline_block_inside_a_block_is_refused(name, old, new):
    line = next(i for i, text in enumerate(MINIMAL.splitlines(), start=1) if old in text)
    with pytest.raises(ConfigError, match=f"^line {line}: unknown block 'extra' inside '{name}'$"):
        parse_scenario(MINIMAL.replace(old, new))


@pytest.mark.parametrize(
    "kind, key, extra",
    [("rigid_line", "kappa", "kappa = 0.5"), ("microcrack", "lb", "lb = 0.05"),
     ("rigid_ellipse", "mu_star", "lb = 0.05, mu_star = 3"), ("elliptic_void", "kappa", "lb = 0.05, kappa = 1"),
     ("soft_line", "mu_star", "kappa = 1, mu_star = 2"), ("elastic_ellipse", "kappa", "lb = 0.05, kappa = 1")],
)
def test_a_key_the_defect_kind_does_not_take_is_refused_at_its_line(kind, key, extra):
    """Such a key used to parse and vanish from --dump-config, so the dump
    did not parse back to the same scenario."""
    entries = ["kind = " + kind, "d = 2", "phi = 0.5", "la = 0.1", *extra.split(", ")]
    text = MINIMAL + "defect {\n" + "".join(f"  {entry}\n" for entry in entries) + "}\n"
    line = 9 + next(i for i, entry in enumerate(entries) if entry.startswith(key + " "))
    with pytest.raises(ConfigError, match=f"^line {line}: defect kind '{kind}' takes no key '{key}'$"):
        parse_scenario(text)


def test_a_non_number_names_its_own_line():
    text = MINIMAL + "defect {\n  kind = rigid_line\n  d = far\n  phi = 0.5\n  la = 0.1\n}\n"
    with pytest.raises(ConfigError, match="^line 10: key 'd' expects a number, got 'far'$"):
        parse_scenario(text)


def test_diluteness_warning_names_the_defect_line():
    text = MINIMAL + "defect { kind = rigid_line, d = 1, phi = 0.3, alpha = 0, la = 0.5 }\n"
    with pytest.warns(DilutenessWarning) as caught:
        parse_scenario(text)
    assert len(caught) == 1
    assert str(caught[0].message).startswith("line 8: defect size l/d = 0.5")
    assert caught[0].lineno == 8


positive = st.floats(min_value=1e-300, max_value=1e300)
# moduli whose every product is a normal float, as Bimaterial requires
moduli = st.floats(min_value=1e-150, max_value=1e150)


@st.composite
def defect_arguments(draw):
    """Keyword arguments of a Defect of any kind: a dilute size, and valid
    l_b, mu_star and kappa whether the kind takes them or not."""
    d = draw(st.floats(min_value=1e-3, max_value=1e2))
    l_a = d * draw(st.floats(min_value=1e-6, max_value=0.25))  # dilute: no warning
    return dict(
        kind=draw(st.sampled_from(DEFECT_KINDS)),
        d=d,
        phi=draw(st.floats(min_value=-math.pi, max_value=math.pi, exclude_min=True, exclude_max=True)),
        alpha=draw(st.floats(min_value=-10.0, max_value=10.0)),
        l_a=l_a,
        l_b=l_a * draw(st.floats(min_value=1e-6, max_value=1.0)),
        mu_star=draw(st.floats(min_value=1e-3, max_value=1e3)),
        kappa=draw(st.floats(min_value=0.0, max_value=1e3)),
    )


def defects():
    """A defect of any kind, built with every parameter."""
    return defect_arguments().map(lambda kwargs: Defect(**kwargs))


@settings(max_examples=100, deadline=None)
@given(defect_arguments())
def test_defect_keeps_only_the_parameters_its_kind_takes(kwargs):
    """A parameter the kind does not take is stored as its default, so the
    defect equals, hashes and prints as the one built without it."""
    kind = kwargs["kind"]
    own = {k: v for k, v in kwargs.items() if k not in ("l_b", "mu_star", "kappa") or k in _KIND_FIELDS[kind]}
    full, bare = Defect(**kwargs), Defect(**own)
    assert full == bare and hash(full) == hash(bare) and repr(full) == repr(bare)


@st.composite
def scenarios(draw):
    """Random bimaterial, a three-point load plus balanced extra forces,
    one to three defects and random params."""
    bimaterial = Bimaterial(draw(moduli), draw(moduli))
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


README_SCENARIO = (Path(__file__).parent / "golden" / "readme.cfg").read_text()
# pieces of the grammar and of its errors, inserted at random places
SNIPPETS = ["{", "}", ",", '"', "#", "=", " ", "\n", "\t", "x", "1", "a = 1", "b {", "b { a = 1 }", "}}", "{}",
            "{,}", '""', '"x"', '"{,}"', ", ,", "= {", "\xa0", "deg", "out = ", 'out = "a", "b"', '"{', '}"']


@st.composite
def mutated_scenarios(draw):
    """The README scenario or EVERY_BLOCK_MULTILINE after one to four
    edits: a snippet inserted, a span deleted or repeated, or two lines
    swapped or joined."""
    text = draw(st.sampled_from([README_SCENARIO, EVERY_BLOCK_MULTILINE]))
    for _ in range(draw(st.integers(1, 4))):
        i = draw(st.integers(0, len(text)))
        j = min(len(text), i + draw(st.integers(0, 12)))
        edit = draw(st.sampled_from(["insert", "delete", "repeat", "swap", "join"]))
        if edit == "insert":
            text = text[:i] + draw(st.sampled_from(SNIPPETS)) + text[i:]
        elif edit == "delete":
            text = text[:i] + text[j:]
        elif edit == "repeat":
            text = text[:j] + text[i:j] + text[j:]
        else:
            lines = text.split("\n")
            k = draw(st.integers(0, len(lines) - 2))
            if edit == "swap":
                lines[k], lines[k + 1] = lines[k + 1], lines[k]
            else:
                lines[k:k + 2] = [lines[k] + draw(st.sampled_from([" ", ", "])) + lines[k + 1]]
            text = "\n".join(lines)
    return text


@settings(max_examples=600, deadline=None)
@given(mutated_scenarios())
def test_one_pass_reader_agrees_with_the_reference_reader(text):
    """The one-pass reader and the parent's three-pass reader (kept in
    helpers) accept the same texts and build the same scenario from them,
    and refuse the others with one exception class at one line."""
    assert read_outcome(text) == read_outcome(text, reference=True)


@pytest.mark.parametrize("text", [
    'bimaterial {\n  mu_plus = 1, mu_minus = 1\n}',  # a line of its own holds one entry
    'params {\n  out = "a", "b"\n}',  # a value that starts and ends with a quote, taken whole
    'params { out = "x" {,} "y" }',  # so is one with braces inside
    "bimaterial { mu_plus = 1 } x", "bimaterial { a { } } }", "bimaterial { a { } b = 1 }", "bimaterial { ,",
    'bimaterial { out = "x }', 'bimaterial {\n  out = "x\n}', "a = 1", "}", "bimaterial {} {}", "bimaterial { a = {",
])
def test_one_pass_reader_agrees_on_edge_cases(text):
    assert read_outcome(MINIMAL + text) == read_outcome(MINIMAL + text, reference=True)


@pytest.mark.parametrize("old, new, error, message", [
    ("phi = 22.5 deg", "phi = 1.2.3 deg", ConfigError, "line 7: bad degree value '1.2.3 deg'"),
    ("mu_minus = 1", "mu_minus = 1, mu_plus = 2", ConfigError,
     "line 3: duplicate key 'mu_plus' in block 'bimaterial'"),
    ("d = 1, phi = 22.5 deg", "d = 1, phi = 0.4, x = 1, y = 0.5", ConfigError,
     r"line 7: defect position must be \(d, phi\) or \(x, y\), not both"),
    ("d = 1, phi = 22.5 deg,", "", ConfigError, r"line 7: defect needs a position: \(d, phi\) or \(x, y\)"),
])
def test_a_bad_value_or_position_is_refused_at_its_line(old, new, error, message):
    with pytest.raises(error, match=f"^{message}$"):
        parse_scenario(MINIMAL.replace(old, new))


def test_scenario_params_refuses_an_out_that_is_no_path():
    with pytest.raises(ValidationError, match="^out expects a path, got 3$"):
        ScenarioParams(out=3)


def test_an_out_path_holding_a_nul_byte_is_refused_at_its_line():
    """open() could not take it: refused with the other params, before any work."""
    with pytest.raises(ConfigError, match=r"^line 9: out path 'a\\x00b' holds a NUL byte$"):
        parse_scenario(MINIMAL + 'params {\n  out = "a\0b"\n}\n')
    with pytest.raises(ValidationError, match=r"^out path 'a\\x00b' holds a NUL byte$"):
        ScenarioParams(out="a\0b")


def test_dump_refuses_a_tabulated_load():
    loading = Loading(distributed=DistributedLoad((-3.0, -2.0), (1.0, 1.0), (0.0, 0.0)))
    with pytest.raises(ValidationError, match="^tabulated distributed loads have no config form$"):
        dump_scenario(Scenario(Bimaterial(1.0, 1.0), loading))
