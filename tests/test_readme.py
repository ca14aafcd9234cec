"""The README's scenario and library sketch run as written."""

import contextlib
import io
import re
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from crackwake import DEFECT_KINDS, DilutenessWarning, ValidationError, parse_scenario
from crackwake.cli import USAGE, main
from crackwake.config import _KEY_FIELDS
from crackwake.defects import _KIND_FIELDS

README = (Path(__file__).parents[1] / "README.md").read_text()


def fenced_block(heading: str, lang: str) -> str:
    """Body of the first ```lang block after the given heading."""
    section = README[README.index(heading):]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


SCENARIO = fenced_block("### Scenario files", "")


def test_scenario_block_parses():
    scenario = parse_scenario(SCENARIO)
    assert [d.kind for d in scenario.defects] == ["microcrack", "elastic_ellipse"]


@pytest.mark.parametrize("argv", [["dipole"], ["sif"], ["perturb"], ["neutral"]])
def test_scenario_block_runs(tmp_path, capsys, argv):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(SCENARIO)
    assert main([*argv, "--config", str(cfg)]) == 0
    out, err = capsys.readouterr()
    assert out and err == ""


def test_cli_usage_block_is_the_help_text():
    assert fenced_block("## CLI", "sh") == USAGE


def test_defect_kind_table_matches_the_code():
    """The README table of defect kinds lists every kind in order with the
    scenario keys of the parameters that the code's per-kind table gives it."""
    table = README[README.index("Defect kinds and their parameters"):].split("\n\n", 2)[1]
    rows = re.findall(r"^\| `(\w+)` *\|(.*)\|$", table, re.M)
    listed = {kind: re.findall(r"`(\w+)`", params.split("(")[0]) for kind, params in rows}
    assert list(listed) == list(DEFECT_KINDS)
    assert listed == {kind: [key for key, field in _KEY_FIELDS.items() if field in fields]
                      for kind, fields in _KIND_FIELDS.items()}


def test_library_sketch_runs():
    namespace = {}
    exec(fenced_block("## Library sketch", "python"), namespace)
    assert namespace["trace"].verdict in ("arrest", "steady_state", "max_iterations")
    assert namespace["grid"].region.shape == (128, 64)


# the grammar's alphabet: what a mutation inserts or writes over one character
ALPHABET = ["{", "}", '"', "#", "=", ",", " ", "\n", "-", ".", "x", *"0123456789", "deg", "inf", "nan",
            "bimaterial", "loading", "force", "three_point", "defect", "params",
            "mu_plus", "kind", "face", "x1", "p", "P", "a", "b", "d", "phi", "y", "alpha", "la", "lb",
            "mu_star", "kappa", "grid", "delta", "max_iter", "pair", "threads", "true"]


@st.composite
def mutated_scenarios(draw):
    """The README scenario after one to four random inserts, deletes or
    one-character replacements."""
    text = SCENARIO
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        op = draw(st.sampled_from(("insert", "delete", "replace")))
        new = "" if op == "delete" else draw(st.sampled_from(ALPHABET))
        text = text[:at] + new + text[at + (op != "insert"):]
    return text


@settings(max_examples=300, deadline=None)
@given(mutated_scenarios())
def test_mutated_scenario_parses_or_fails_validation(text):
    """A damaged scenario either parses or raises a ValidationError, and
    the CLI ends in exit 0, 1 or 2: never a traceback."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DilutenessWarning)
        try:
            parse_scenario(text)
        except ValidationError:
            pass
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "scenario.cfg"
            path.write_text(text)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                assert main(["sif", "--config", str(path)]) in (0, 1, 2)
