"""Shielding/amplification/neutral maps over defect position and
orientation.

A map scans the microcrack angles (phi1, alpha1) on cell centers of a
regular grid; the rigid-line companion is derived per arrangement rule
for every cell.  The whole grid is one vectorized evaluation of the
closed form, and the output ordering is fixed row-major (phi1 outer,
alpha1 inner).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .defects import Defect, dipole_matrix
from .errors import ValidationError
from .loading import Bimaterial, Loading, decompose
from .perturbation import _delta_k_closed, neutral_pair_a, neutral_pair_b
from .tipfields import _gradient, _phi_trig, _table_sums, sif_k0

SHIELDING = "shielding"
AMPLIFICATION = "amplification"
NEUTRAL = "neutral"
INVALID = "invalid"

REGION_LETTER = {SHIELDING: "S", AMPLIFICATION: "A", NEUTRAL: "N", INVALID: "X"}
# grey levels mirroring light/medium/dark map shading
REGION_GREY = {SHIELDING: 170, AMPLIFICATION: 85, NEUTRAL: 40, INVALID: 0}
# region labels by the integer code scan_map classifies into
_LABELS = np.array([NEUTRAL, SHIELDING, AMPLIFICATION, INVALID], dtype=object)


def classify(ratio: float, delta: float) -> str:
    """Region label for a perturbation ratio dK/K0 at accuracy delta.

    Boundaries are inclusive to neutral: shielding needs ratio < -delta,
    amplification ratio > delta.
    """
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"classification accuracy must be positive and finite, got {delta}")
    if ratio < -delta:
        return SHIELDING
    if ratio > delta:
        return AMPLIFICATION
    return NEUTRAL


@dataclass(frozen=True)
class PairArrangement:
    """Microcrack prototype plus the companion rule ("a" or "b")."""

    pair: str
    l1: float
    d1: float
    d2: float | None = None

    def __post_init__(self):
        if self.pair not in ("a", "b"):
            raise ValidationError(f'arrangement pair must be "a" or "b", got {self.pair!r}')
        if not (self.l1 > 0.0 and self.d1 > 0.0):
            raise ValidationError("arrangement needs positive l1 and d1")

    def defects(self, phi1: float, alpha1: float, bimaterial: Bimaterial) -> tuple[Defect, Defect]:
        mc = Defect("microcrack", d=self.d1, phi=phi1, alpha=alpha1, l_a=self.l1)
        if self.pair == "a":
            return mc, neutral_pair_a(mc, self.d2)
        return mc, neutral_pair_b(mc, bimaterial, self.d2)


@dataclass(frozen=True)
class RegionMap:
    """Scan result: cell-center axes plus ratio/region grids (phi x alpha)."""

    phi1: np.ndarray
    alpha1: np.ndarray
    ratio: np.ndarray
    region: np.ndarray  # dtype object of region labels
    delta: float

    def count(self, region: str) -> int:
        return int(np.sum(self.region == region))


def _member_dk(dec, bimaterial: Bimaterial, centers, matrices):
    """Closed-form dK of one pair member over a block of rows and all
    columns.

    centers holds the member's defect per row, all at one distance;
    matrices its dipole matrix per column.  Point stations are summed
    on arrays of the rows' angular factors; a table adds its panel
    integrals from the same factors as floats, in one call for the block.
    No row needs the face check of delta_k_defect: a cell center is at
    least pi/n_phi from a face.
    """
    d = centers[0].d
    phis = [c.phi for c in centers]
    trigs = [_phi_trig(p) for p in phis]
    mu_bs = [bimaterial.mu_plus if p >= 0.0 else bimaterial.mu_minus for p in phis]
    mu_sum, eta = bimaterial.mu_sum, bimaterial.contrast
    trig = tuple(np.array(col)[:, None] for col in zip(*trigs))
    sums = (0.0, 0.0)
    dist = dec.distributed
    if dist is not None:
        table = np.reshape(_table_sums(dist.x, dist.avg, dist.jump, d, trigs, mu_bs, mu_sum, eta), (-1, 2))
        sums = (table[:, :1], table[:, 1:])
    grad = _gradient(dec.stations, d, trig, np.array(mu_bs)[:, None], mu_sum, eta, sums)
    m11, m12, m22 = (np.array(v) for v in zip(*((m.m11, m.m12, m.m22) for m in matrices)))
    return _delta_k_closed(grad, d, trig, m11, m12, m22, bimaterial.mu_series)


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
    centers.  A member's gradient varies along phi1 (rows) and its dipole
    matrix along alpha1 (columns), and the cells are their broadcast
    contraction, bit-identical to delta_k_defect cell by cell.  Cells
    whose ratio is not finite are marked invalid, never skipped.  threads
    is accepted so older callers keep working, and ignored.
    """
    n_phi, n_alpha = grid
    if n_phi < 2 or n_alpha < 2:
        raise ValidationError(f"grid must be at least 2x2, got {n_phi}x{n_alpha}")
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"map accuracy delta must be positive and finite, got {delta}")
    phi_axis = -math.pi + (np.arange(n_phi) + 0.5) * (2.0 * math.pi / n_phi)
    alpha_axis = (np.arange(n_alpha) + 0.5) * (math.pi / n_alpha)
    k0 = sif_k0(loading, bimaterial)
    if k0 == 0.0:
        raise ValidationError("map needs a loading with non-zero K0")

    dec = decompose(loading)
    alphas = alpha_axis.tolist()
    row_pairs = [arrangement.defects(p, alphas[0], bimaterial) for p in phi_axis.tolist()]
    # A pair's dipole matrices depend on phi1 only through the members'
    # sizes (pair b sizes its companion by the side of the interface), so
    # rows whose members share distance and size share per-column matrices.
    blocks: dict[tuple, list[int]] = {}
    for i, pair in enumerate(row_pairs):
        blocks.setdefault(tuple((m.d, m.l_a) for m in pair), []).append(i)

    dk = np.empty((n_phi, n_alpha))
    with np.errstate(all="ignore"):  # non-finite cells become invalid below
        for rows in blocks.values():
            phi_rep = row_pairs[rows[0]][0].phi
            columns = [arrangement.defects(phi_rep, a, bimaterial) for a in alphas]
            first, second = (
                _member_dk(dec, bimaterial, [row_pairs[i][k] for i in rows],
                           [dipole_matrix(pair[k]) for pair in columns])
                for k in (0, 1)
            )
            dk[rows] = first + second
        ratio = dk / k0

    invalid = ~np.isfinite(ratio)
    ratio[invalid] = math.nan
    code = np.where(ratio < -delta, 1, np.where(ratio > delta, 2, 0))
    code[invalid] = 3
    region = _LABELS[code]
    return RegionMap(phi_axis, alpha_axis, ratio, region, delta)


def write_map_csv(region_map: RegionMap, fh) -> None:
    """CSV rows phi1,alpha1,ratio,region in fixed row-major order,
    formatted by one % per block of 16 phi1 rows."""
    fh.write("phi1,alpha1,ratio,region\n")
    phis = [f"{p:.9g}" for p in region_map.phi1.tolist()]
    alphas = [f"{a:.9g}" for a in region_map.alpha1.tolist()]
    ratios = region_map.ratio.ravel().tolist()
    letters = [REGION_LETTER[g] for g in region_map.region.ravel().tolist()]
    for start in range(0, len(phis), 16):
        lead = [p for p in phis[start:start + 16] for _ in alphas]
        cells = slice(start * len(alphas), start * len(alphas) + len(lead))
        values = [None] * (4 * len(lead))  # the cells' four fields, interleaved
        values[0::4] = lead
        values[1::4] = alphas * (len(lead) // len(alphas))
        values[2::4] = ratios[cells]
        values[3::4] = letters[cells]
        fh.write("%s,%s,%.9g,%s\n" * len(lead) % tuple(values))


def write_map_pgm(region_map: RegionMap, fh) -> None:
    """Plain (P2) grayscale map; top row is the largest alpha1."""
    n_phi = len(region_map.phi1)
    n_alpha = len(region_map.alpha1)
    fh.write(f"P2\n{n_phi} {n_alpha}\n255\n")
    grey = {region: str(level) for region, level in REGION_GREY.items()}
    for row in region_map.region.T[::-1].tolist():
        fh.write(" ".join(grey[r] for r in row) + "\n")
