"""Output checks against the reference outputs stored in reference.json.

The references hold the outputs of the base geometry (see inputs.py),
computed once by make_reference.py.  A seed's variant maps them onto
its own inputs: map classes do not change under scaling and reverse
under the mirror; elongations scale with the length scale.

Each check returns a list of error strings; an empty list means the
output passed.  Only the standard library is used here.
"""

from __future__ import annotations

import base64
import json
import math
import zlib
from pathlib import Path

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# A cell may change class only if |ratio| lies this close to delta,
# relative to delta: rounding of a rewritten kernel may move it across.
NEAR_DELTA_REL = 1e-6
ELONGATION_RTOL = 1e-6
# closed form against the weight-function oracle, as in the acceptance suite
ORACLE_RTOL = 1e-6
ORACLE_ATOL_K0 = 1e-9

MAP_HEADER = "phi1,alpha1,ratio,region"


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def pack_regions(letters: str) -> str:
    return base64.b64encode(zlib.compress(letters.encode(), 9)).decode()


def unpack_regions(packed: str, mirror: bool) -> str:
    letters = zlib.decompress(base64.b64decode(packed)).decode()
    return letters[::-1] if mirror else letters


def compare_regions(regions: str, ratios, expected: str, delta: float):
    """(errors, number of cells near delta) for a map's class letters."""
    near = 0
    wrong = 0
    for got, ratio, want in zip(regions, ratios, expected):
        is_near = abs(abs(ratio) - delta) <= NEAR_DELTA_REL * delta
        near += is_near
        wrong += got != want and not is_near
    errors = []
    if len(regions) != len(expected):
        errors.append(f"map has {len(regions)} cells, reference {len(expected)}")
    if wrong:
        errors.append(f"{wrong} map cells changed class away from |ratio| = delta")
    return errors, near


def _read_lines(path: Path):
    try:
        return path.read_text().splitlines(), []
    except OSError as exc:
        return [], [f"cannot read {path.name}: {exc}"]


def check_map_csv(path: Path, expected: str, grid, delta: float):
    """(errors, cells near delta, data rows) of a map CSV."""
    lines, errors = _read_lines(path)
    if not lines or lines[0] != MAP_HEADER:
        errors.append(f"map CSV header is {lines[:1]!r}")
    rows = lines[1:]
    if len(rows) != grid[0] * grid[1]:
        errors.append(f"map CSV has {len(rows)} rows, grid has {grid[0] * grid[1]} cells")
    ratios, regions = [], []
    try:
        for row in rows:
            parts = row.split(",")
            ratios.append(float(parts[2]))
            regions.append(parts[3])
    except (ValueError, IndexError):
        return errors + [f"unparsable map CSV row {row!r}"], 0, len(rows)
    more, near = compare_regions("".join(regions), ratios, expected, delta)
    return errors + more, near, len(rows)


def check_map_pgm(path: Path, grid):
    lines, errors = _read_lines(path)
    want = ["P2", f"{grid[0]} {grid[1]}", "255"]
    if lines[:3] != want:
        errors.append(f"PGM header is {lines[:3]!r}, expected {want!r}")
    if len(lines) != 3 + grid[1]:
        errors.append(f"PGM has {len(lines) - 3} pixel rows, expected {grid[1]}")
    return errors


def _close(got: float, want: float, rtol: float) -> bool:
    return abs(got - want) <= rtol * abs(want)


def check_quad(result: dict, ref: dict, variant: dict, delta: float):
    """Map each failed operation key to its reasons; also count near-delta cells.

    An operation that raised fails with its exception; one whose output
    fails a check fails with the check's message.
    """
    failed = {op["key"]: [op["error"]] for op in result["ops"] if "error" in op}
    values = result["values"]

    def fail(key, msg):
        failed.setdefault(key, []).append(msg)

    prop = values.get("propagate")
    if prop is not None:
        want = ref["propagate"]
        if prop["rows"] != want["rows"] or prop["flag"] != want["flag"] or not prop["finite"]:
            fail("propagate", f"propagation gave {prop}, reference {want}")
        elif not _close(prop["elongation"], want["elongation"] * variant["scale"], ELONGATION_RTOL):
            fail("propagate", f"elongation {prop['elongation']!r}, "
                              f"reference {want['elongation'] * variant['scale']!r}")
    near = 0
    if values.get("map") is not None:
        expected = unpack_regions(ref["map"], variant["mirror"])
        errors, near = compare_regions(values["map"]["regions"], values["map"]["ratios"],
                                       expected, delta)
        for msg in errors:
            fail("map", msg)

    k0 = values.get("k0") or 0.0
    for i, (c, q) in enumerate(zip(values["closed"], values["oracle"])):
        if c is None or q is None:
            continue
        if abs(c - q) > ORACLE_RTOL * max(abs(c), abs(q)) + ORACLE_ATOL_K0 * abs(k0):
            fail(f"oracle{i}", f"defect {i}: closed form {c!r} against oracle {q!r}")
    for i, u in enumerate(values["u0"]):
        if u is not None and not math.isfinite(u):
            fail(f"u0_{i}", f"displacement_u0 point {i} is {u!r}")
    return failed, near
