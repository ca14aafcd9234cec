"""Workload inputs generated from the benchmark seed.

Every workload is built from a fixed base geometry that the seed
transforms in ways the program's work does not depend on:

* all lengths scale by a power of 4 and all load magnitudes by a signed
  power of 2, so every floating-point operation scales exactly and the
  map ratios, iteration counts and quadrature subdivisions stay the
  same;
* the whole problem may be mirrored about the interface (faces and
  moduli swapped, phi -> -phi, alpha -> pi - alpha), which maps a map
  cell (i, j) onto (n_phi-1-i, n_alpha-1-j).

So every seed gives different inputs, the same amount of work, and
outputs that the stored reference of the base geometry predicts.  The
oracle defects of quadrature_dist (one per kind) and the displacement
radii are drawn freely from the seed; their outputs are checked against
the program's own independent oracles instead.

This module is plain Python: it never imports crackwake.
"""

from __future__ import annotations

import math
import random
from pathlib import Path

DEFECT_KINDS = (
    "elastic_ellipse",
    "rigid_ellipse",
    "elliptic_void",
    "microcrack",
    "rigid_line",
    "soft_line",
    "stiff_line",
)

SIZES = {
    "full": {
        "map_grid": (256, 128),
        "steady_max_iter": 100_000,
        "dist_max_iter": 100,
        "dist_grid": (16, 8),
    },
    "toy": {
        "map_grid": (16, 8),
        "steady_max_iter": 300,
        "dist_max_iter": 3,
        "dist_grid": (4, 2),
    },
}

MAP_DELTA = 1e-6
# polar angles of the displacement oracle points; the last one sits near
# the upper crack face, where the transform decays slowly
U0_THETAS = (math.pi / 4, -math.pi / 2, 3 * math.pi / 4, math.pi - 0.05)


def variant(seed: int) -> dict:
    """Length scale, load scale and mirror flag of a seed."""
    rng = random.Random(seed)
    return {
        "scale": 4.0 ** rng.choice((-1, 0, 1)),
        "load": rng.choice((-1.0, 1.0)) * 2.0 ** rng.choice((-2, -1, 0, 1, 2)),
        "mirror": rng.random() < 0.5,
    }


def _face(face: str, mirror: bool) -> str:
    if not mirror:
        return face
    return "-" if face == "+" else "+"


def _forces(base, v):
    """Point forces (x1, face, p) of the base geometry under the variant."""
    s, load, mirror = v["scale"], v["load"], v["mirror"]
    return [(x1 * s, _face(face, mirror), p * load) for x1, face, p in base]


def _bimaterial(mu_plus, mu_minus, v):
    return (mu_minus, mu_plus) if v["mirror"] else (mu_plus, mu_minus)


def _pair_a(phi, alpha, d, la, v):
    """Microcrack plus its pair-a rigid-line companion, as neutral_pair_a
    builds it, under the variant."""
    s = v["scale"]
    if v["mirror"]:
        phi, alpha = -phi, math.pi - alpha
    d1, la1 = d * s, la * s
    d2 = 2.0 * d1
    mc = {"kind": "microcrack", "d": d1, "phi": phi, "alpha": alpha, "la": la1}
    rl = {"kind": "rigid_line", "d": d2, "phi": phi, "alpha": alpha - 0.5 * math.pi,
          "la": la1 * d2 / d1}
    return [mc, rl]


def scenario_text(bimaterial, forces, defects, params) -> str:
    """Scenario file in the config syntax; numbers as exact float reprs."""
    lines = [f"bimaterial {{ mu_plus = {bimaterial[0]!r}, mu_minus = {bimaterial[1]!r} }}",
             "loading {"]
    for x1, face, p in forces:
        lines.append(f'  force {{ face = "{face}", x1 = {x1!r}, p = {p!r} }}')
    lines.append("}")
    for df in defects:
        body = ", ".join(f"{k} = {val!r}" if k != "kind" else f"kind = {val}"
                         for k, val in df.items())
        lines.append(f"defect {{ {body} }}")
    lines.append("params { " + ", ".join(f"{k} = {val}" for k, val in params.items()) + " }")
    return "\n".join(lines) + "\n"


# Base geometries (scale 1, load 1, not mirrored).
MAP_FORCES = [(-3.0, "+", 1.0), (-2.0, "-", 0.5), (-4.0, "-", 0.5)]  # three_point P=1, a=3, b=1
PROP_FORCES = [(-3.0, "+", 1.0), (-3.0, "-", 0.5), (-3.0, "-", 0.5)]  # three_point P=1, a=3, b=0
DIST_FORCES = [(-4.0, "+", -1.0), (-3.0, "-", -0.5), (-5.0, "-", -0.5)]  # three_point P=-1, a=4, b=1
DIST_HAT = {"center": -2.0, "half_width": 0.4, "avg": -0.6, "jump": 0.25, "nodes": 9}
DIST_BALANCE_X1 = -1.2  # lower-face force that balances the hat's jump resultant


def _hat(v):
    """Hat-shaped table (x, avg, jump) whose profiles integrate to the
    coefficients of DIST_HAT, under the variant."""
    s, load, mirror = v["scale"], v["load"], v["mirror"]
    h = DIST_HAT
    m = (h["nodes"] - 1) // 2
    xs, avg, jump = [], [], []
    for k in range(-m, m + 1):
        x = h["center"] + h["half_width"] * k / m
        shape = (1.0 - abs(k) / m) / h["half_width"]
        xs.append(x * s)
        avg.append(h["avg"] * shape * load / s)
        j = h["jump"] * shape * load / s
        jump.append(-j if mirror else j)
    return {"x": xs, "avg": avg, "jump": jump}


def _oracle_defect(rng: random.Random, kind: str, s: float) -> dict:
    """Random well-separated defect (l/d <= 0.25), one draw per kind."""
    d = rng.uniform(0.5, 2.5)
    phi = rng.uniform(0.05, 0.93) * math.pi * rng.choice((-1.0, 1.0))
    alpha = rng.uniform(0.0, math.pi)
    la = d * rng.uniform(0.05, 0.25)
    df = {"kind": kind, "d": d * s, "phi": phi, "alpha": alpha, "la": la * s}
    if kind in ("elastic_ellipse", "rigid_ellipse", "elliptic_void"):
        df["lb"] = la * rng.uniform(0.15, 1.0) * s
    if kind == "elastic_ellipse":
        df["mu_star"] = math.exp(rng.uniform(math.log(0.05), math.log(20.0)))
    if kind in ("soft_line", "stiff_line"):
        df["kappa"] = rng.uniform(0.1, 3.0)
    return df


BASE_VARIANT = {"scale": 1.0, "load": 1.0, "mirror": False}


def generate(seed: int, size: str = "full", v: dict | None = None) -> dict:
    """All inputs of every workload for one seed.

    Scenario texts go to the CLI as files; the quadrature_dist tables go
    to the library driver as JSON.  v overrides the seed's variant.
    """
    sz = SIZES[size]
    v = v or variant(seed)
    rng = random.Random(f"oracles-{seed}")
    s = v["scale"]

    map_defects = _pair_a(math.pi / 8, 0.0, 1.0, 0.1, v)
    n_phi, n_alpha = sz["map_grid"]
    map_cfg = scenario_text(
        _bimaterial(1.0, 5.0, v), _forces(MAP_FORCES, v), map_defects,
        {"grid": f"{n_phi}x{n_alpha}", "delta": repr(MAP_DELTA), "pair": "a"},
    )
    # point-force propagation to steady state, for the per-layer run only
    steady_cfg = scenario_text(
        _bimaterial(1.0, 1.0, v), _forces(PROP_FORCES, v),
        _pair_a(7 * math.pi / 8, 3 * math.pi / 8, 1.0, 0.1, v),
        {"max_iter": sz["steady_max_iter"]},
    )

    hat = _hat(v)
    balance = (DIST_BALANCE_X1 * s, _face("-", v["mirror"]), DIST_HAT["jump"] * v["load"])
    dist = {
        "bimaterial": _bimaterial(1.0, 5.0, v),
        "forces": _forces(DIST_FORCES, v) + [balance],
        "table": hat,
        "prop_defects": _pair_a(math.pi / 8, math.pi / 2, 1.0, 0.1, v),
        "prop_max_iter": sz["dist_max_iter"],
        "map": {"l1": 0.1 * s, "d1": 1.0 * s, "d2": 2.0 * s, "grid": list(sz["dist_grid"]),
                "delta": MAP_DELTA},
        "oracle_defects": [_oracle_defect(rng, kind, s) for kind in DEFECT_KINDS],
        "u0_points": [[rng.uniform(0.7, 2.0) * s, -t if v["mirror"] else t] for t in U0_THETAS],
    }
    return {
        "seed": seed,
        "size": size,
        "variant": v,
        "map_point": {"config": map_cfg, "grid": [n_phi, n_alpha], "delta": MAP_DELTA,
                      "n_stations": len({f[0] for f in MAP_FORCES})},
        "steady_config": steady_cfg,
        "quadrature_dist": dist,
    }


def write_scenarios(inp: dict, work: Path) -> dict:
    """Write the CLI scenario files into work.  Returns the path of each
    scenario file and of its CSV output: map_cfg, map_csv, steady_cfg, ..."""
    texts = {"map": inp["map_point"]["config"], "steady": inp["steady_config"]}
    paths = {}
    for name, text in texts.items():
        (work / f"{name}.cfg").write_text(text)
        paths[f"{name}_cfg"] = str(work / f"{name}.cfg")
        paths[f"{name}_csv"] = str(work / f"{name}.csv")
    return paths
