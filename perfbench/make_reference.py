"""Write reference.json: the outputs of the base geometry, full and toy size.

    PYTHONPATH=src python3 perfbench/make_reference.py

The stored references are those of crackwake 0.1.0 as first benchmarked.
Regenerate them only when an output is meant to change, and say so.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import checks
import inputs
from child import NullTracer, map_replay, quad_pass


def reference(size: str, work: Path) -> dict:
    inp = inputs.generate(0, size, inputs.BASE_VARIANT)
    paths = inputs.write_scenarios(inp, work)

    map_replay(paths, NullTracer())
    regions = "".join(row.rsplit(",", 1)[1]
                      for row in Path(paths["map_csv"]).read_text().splitlines()[1:])
    quad = quad_pass(inp["quadrature_dist"], NullTracer())["values"]
    return {
        "map_point": {"regions": checks.pack_regions(regions)},
        "quadrature_dist": {
            "propagate": {k: quad["propagate"][k] for k in ("rows", "flag", "elongation")},
            "map": checks.pack_regions(quad["map"]["regions"]),
        },
    }


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        refs = {size: reference(size, Path(tmp)) for size in ("full", "toy")}
    checks.REFERENCE_PATH.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
