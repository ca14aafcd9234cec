"""Shielding/amplification/neutral maps over defect position and
orientation.

A map scans the microcrack angles (phi1, alpha1) on cell centers of a
regular grid, with the rigid-line companion of each arrangement rule.  A
member's dK is a + b cos 2alpha + c sin 2alpha: each row takes (a, b, c)
from one gradient per member, each column (cos 2alpha, sin 2alpha), and a
cell is four products on plain floats, row-major (phi1 outer, alpha1 inner).
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import chain

from .defects import Defect, _dipole_parts, _double_angle
from .errors import Record, ValidationError, _check_param
from .loading import Bimaterial, Loading
from .perturbation import _companion, _companion_angles, _harmonics
from .tipfields import sif_k0

SHIELDING = "shielding"
AMPLIFICATION = "amplification"
NEUTRAL = "neutral"
INVALID = "invalid"

REGION_LETTER = {SHIELDING: "S", AMPLIFICATION: "A", NEUTRAL: "N", INVALID: "X"}
# grey levels mirroring light/medium/dark map shading
REGION_GREY = {SHIELDING: 170, AMPLIFICATION: 85, NEUTRAL: 40, INVALID: 0}


class PairArrangement(Record):
    """Microcrack prototype plus the companion rule ("a" or "b")."""

    pair: str
    l1: float
    d1: float
    d2: float | None = None

    def __post_init__(self):
        _check_param("pair", self.pair)
        if not (self.l1 > 0.0 and self.d1 > 0.0):
            raise ValidationError("arrangement needs positive l1 and d1")
        if not (self.l1 < math.inf and self.d1 < math.inf):
            raise ValidationError(f"arrangement needs finite l1 and d1, got l1 = {self.l1}, d1 = {self.d1}")
        if not (self.d2 is None or 0.0 < self.d2 < math.inf):
            raise ValidationError(f"arrangement needs a positive, finite d2 or none, got d2 = {self.d2}")

    def defects(self, phi1: float, alpha1: float, bimaterial: Bimaterial) -> tuple[Defect, Defect]:
        mc = Defect("microcrack", d=self.d1, phi=phi1, alpha=alpha1, l_a=self.l1)
        return mc, _companion(self.pair, mc, bimaterial, self.d2)


class RegionMap(Record):
    """Scan result: cell-center axes plus the cells' ratios and region
    labels, row-major (phi1 outer, alpha1 inner)."""

    phi1: tuple[float, ...]
    alpha1: tuple[float, ...]
    ratios: tuple[float, ...]
    labels: tuple[str, ...]

    @cached_property
    def ratio(self):
        """The ratios as a (phi1 x alpha1) numpy array."""
        import numpy as np

        return np.array(self.ratios).reshape(len(self.phi1), len(self.alpha1))

    @cached_property
    def region(self):
        """The labels as a (phi1 x alpha1) numpy array of dtype object."""
        import numpy as np

        return np.array(self.labels, dtype=object).reshape(len(self.phi1), len(self.alpha1))


def _classify(rows, delta: float) -> tuple[tuple, tuple]:
    """The rows' ratios dK/K0, row-major, and their region labels at
    accuracy delta, inclusive to neutral.  One sum decides whether any
    ratio is not finite; each that is becomes nan, which fails every
    comparison and so is labelled invalid."""
    ratios = tuple(chain.from_iterable(rows))
    if not math.isfinite(sum(ratios)):
        inf = math.inf
        ratios = tuple([r if -inf < r < inf else math.nan for r in ratios])
    low = -delta
    return ratios, tuple([SHIELDING if r < low else AMPLIFICATION if delta < r else NEUTRAL if r == r else INVALID
                          for r in ratios])


def scan_map(
    arrangement: PairArrangement,
    loading: Loading,
    bimaterial: Bimaterial,
    grid: tuple[int, int] = (128, 64),
    delta: float = 1e-6,
    threads: int | None = None,
) -> RegionMap:
    """Classify every (phi1, alpha1) cell of the grid.

    phi1 spans (-pi, pi) and alpha1 spans (0, pi), both sampled at cell
    centers.  A member's dK = a + b cos 2alpha + c sin 2alpha takes
    (a, b, c) from phi1 (rows) and the angles from alpha1 (columns); a
    cell sums both members, bit-identical to delta_k_defect cell by cell
    but for a negative zero, which is folded into 0.
    Cells whose ratio is not finite are marked invalid, never skipped.
    threads is accepted so older callers keep working, and ignored.
    """
    _check_param("grid", tuple(grid) if isinstance(grid, list) else grid)
    _check_param("delta", delta)
    n_phi, n_alpha = grid
    phis = tuple(-math.pi + (i + 0.5) * (2.0 * math.pi / n_phi) for i in range(n_phi))
    alphas = tuple((j + 0.5) * (math.pi / n_alpha) for j in range(n_alpha))
    k0 = sif_k0(loading, bimaterial)
    if k0 == 0.0:
        raise ValidationError("map needs a loading with non-zero K0")

    points, table = loading.split
    # The companion's phi per row and alpha per column, by the pair rule.
    pair = arrangement.pair
    phis2 = [_companion_angles(pair, p, 0.0)[0] for p in phis]
    alphas2 = [_companion_angles(pair, 0.0, a)[1] for a in alphas]
    cols = [(*_double_angle(a1), *_double_angle(a2)) for a1, a2 in zip(alphas, alphas2)]
    # The members' sizes depend on phi1 only through the sides of the
    # interface they sit on (pair b sizes its companion by them), so the
    # rows of one side share one validated pair: each member's (d, iso, dev).
    sides: dict[tuple, list] = {}
    for phi in phis:
        side = (phi >= 0.0, -phi >= 0.0)
        if side not in sides:
            sides[side] = [(m.d, *_dipole_parts(m)) for m in arrangement.defects(phi, alphas[0], bimaterial)]
    by_row = [sides[phi >= 0.0, -phi >= 0.0] for phi in phis]
    members = [(d, phi, iso, dev) for member, member_phis in zip(zip(*by_row), (phis, phis2))
               for (d, iso, dev), phi in zip(member, member_phis)]
    harmonics = _harmonics(points, table, bimaterial, members)  # every member-1 row, then every member-2 row
    rows = [[(a1 + b1 * x1 + c1 * y1 + (a2 + b2 * x2 + c2 * y2)) / k0 + 0.0 for x1, y1, x2, y2 in cols]
            for (a1, b1, c1), (a2, b2, c2) in zip(harmonics, harmonics[n_phi:])]

    return RegionMap(phis, alphas, *_classify(rows, delta))


def write_map_csv(region_map: RegionMap, fh) -> None:
    """CSV rows phi1,alpha1,ratio,region in fixed row-major order.

    One row template holds each alpha1 string, the commas and the
    newlines; a row's phi1 string replaces its "#" marks, and each block
    of 16 phi1 rows formats its (ratio, letter) pairs by one %."""
    fh.write("phi1,alpha1,ratio,region\n")
    n_alpha = len(region_map.alpha1)
    row = "".join([f"#,{a:.9g},%.9g,%s\n" for a in region_map.alpha1])
    phis = [f"{p:.9g}" for p in region_map.phi1]
    ratios = region_map.ratios
    letters = list(map(REGION_LETTER.__getitem__, region_map.labels))
    for start in range(0, len(phis), 16):
        block = phis[start:start + 16]
        cells = slice(start * n_alpha, (start + len(block)) * n_alpha)
        pairs = [None] * (2 * n_alpha * len(block))
        pairs[0::2] = ratios[cells]
        pairs[1::2] = letters[cells]
        fh.write("".join([row.replace("#", p) for p in block]) % tuple(pairs))


def write_map_pgm(region_map: RegionMap, fh) -> None:
    """Plain (P2) grayscale map; top row is the largest alpha1."""
    n_phi = len(region_map.phi1)
    n_alpha = len(region_map.alpha1)
    fh.write(f"P2\n{n_phi} {n_alpha}\n255\n")
    grey = {region: str(level) for region, level in REGION_GREY.items()}
    levels = list(map(grey.__getitem__, region_map.labels))
    for j in reversed(range(n_alpha)):  # column j of the row-major cells
        fh.write(" ".join(levels[j::n_alpha]) + "\n")
