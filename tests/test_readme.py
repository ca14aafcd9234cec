"""The README's scenario and library sketch run as written."""

import re
from pathlib import Path

import pytest

from crackwake import parse_scenario
from crackwake.cli import main

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


def test_library_sketch_runs():
    namespace = {}
    exec(fenced_block("## Library sketch", "python"), namespace)
    assert namespace["trace"].verdict in ("arrest", "steady_state", "max_iterations")
    assert namespace["grid"].region.shape == (128, 64)
