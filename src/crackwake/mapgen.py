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
from .errors import NumericalError, ValidationError
from .loading import Bimaterial, Loading, decompose
from .perturbation import _delta_k_closed, neutral_pair_a, neutral_pair_b
from .tipfields import _check_face, _lowered_grad, _phi_trig, _table_arrays, sif_k0

SHIELDING = "shielding"
AMPLIFICATION = "amplification"
NEUTRAL = "neutral"
INVALID = "invalid"

REGION_LETTER = {SHIELDING: "S", AMPLIFICATION: "A", NEUTRAL: "N", INVALID: "X"}
# grey levels mirroring light/medium/dark map shading
REGION_GREY = {SHIELDING: 170, AMPLIFICATION: 85, NEUTRAL: 40, INVALID: 0}
# region labels by the integer code scan_map classifies into
_LABELS = np.array([NEUTRAL, SHIELDING, AMPLIFICATION, INVALID], dtype=object)

# map cells tolerate a looser check of the table lowering; the
# classification margin delta is far above it
MAP_RTOL = 1e-7


def classify(ratio: float, delta: float) -> str:
    """Region label for a perturbation ratio dK/K0 at accuracy delta.

    Boundaries are inclusive to neutral: shielding needs ratio < -delta,
    amplification ratio > delta.
    """
    if not delta > 0.0:
        raise ValidationError(f"classification accuracy must be positive, got {delta}")
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
    columns, plus the rows that failed: on a loaded face, or missing the
    n-against-2n check of the table lowering.

    centers holds the member's defect per row, all at one distance;
    matrices its dipole matrix per column.  A table is lowered once for
    the block, graded for the row closest to a face.
    """
    d = centers[0].d
    phis = [c.phi for c in centers]
    failed = np.zeros(len(phis), dtype=bool)
    for i, phi in enumerate(phis):
        try:
            _check_face(dec, d, phi)
        except NumericalError:
            failed[i] = True
    trig = tuple(np.array(col)[:, None] for col in zip(*(_phi_trig(p) for p in phis)))
    mu_b = np.array([bimaterial.mu_plus if p >= 0.0 else bimaterial.mu_minus for p in phis])
    grad, bad = _lowered_grad(
        [(s.x1, s.avg, s.jump) for s in dec.stations], _table_arrays(dec.distributed), d,
        min(math.pi - abs(p) for p in phis), trig, mu_b[:, None],
        bimaterial.mu_sum, bimaterial.contrast, MAP_RTOL,
    )
    m11, m12, m22 = (np.array(v) for v in zip(*((m.m11, m.m12, m.m22) for m in matrices)))
    dk = _delta_k_closed(grad, d, trig, m11, m12, m22, bimaterial.mu_series)
    return dk, failed | np.ravel(bad)


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
    whose evaluation fails numerically, or whose ratio is not finite,
    are marked invalid, never skipped.  threads is accepted so older
    callers keep working, and ignored.
    """
    n_phi, n_alpha = grid
    if n_phi < 2 or n_alpha < 2:
        raise ValidationError(f"grid must be at least 2x2, got {n_phi}x{n_alpha}")
    if not delta > 0.0:
        raise ValidationError(f"map accuracy delta must be positive, got {delta}")
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
    failed = np.zeros(n_phi, dtype=bool)
    with np.errstate(all="ignore"):  # failed rows and non-finite cells become invalid below
        for rows in blocks.values():
            phi_rep = row_pairs[rows[0]][0].phi
            columns = [arrangement.defects(phi_rep, a, bimaterial) for a in alphas]
            terms = []
            for k in (0, 1):
                term, bad = _member_dk(
                    dec,
                    bimaterial,
                    [row_pairs[i][k] for i in rows],
                    [dipole_matrix(pair[k]) for pair in columns],
                )
                terms.append(term)
                failed[rows] |= bad
            dk[rows] = terms[0] + terms[1]
        ratio = dk / k0

    invalid = failed[:, None] | ~np.isfinite(ratio)
    ratio[invalid] = math.nan
    code = np.where(ratio < -delta, 1, np.where(ratio > delta, 2, 0))
    code[invalid] = 3
    region = _LABELS[code]
    return RegionMap(phi_axis, alpha_axis, ratio, region, delta)


def write_map_csv(region_map: RegionMap, fh) -> None:
    """CSV rows phi1,alpha1,ratio,region in fixed row-major order."""
    fh.write("phi1,alpha1,ratio,region\n")
    alphas = [f"{a:.9g}" for a in region_map.alpha1.tolist()]
    for p, ratios, regions in zip(
        region_map.phi1.tolist(), region_map.ratio.tolist(), region_map.region.tolist()
    ):
        lead = f"{p:.9g},"
        fh.write("".join(
            f"{lead}{a},{r:.9g},{REGION_LETTER[g]}\n" for a, r, g in zip(alphas, ratios, regions)
        ))


def write_map_pgm(region_map: RegionMap, fh) -> None:
    """Plain (P2) grayscale map; top row is the largest alpha1."""
    n_phi = len(region_map.phi1)
    n_alpha = len(region_map.alpha1)
    fh.write(f"P2\n{n_phi} {n_alpha}\n255\n")
    grey = {region: str(level) for region, level in REGION_GREY.items()}
    for row in region_map.region.T[::-1].tolist():
        fh.write(" ".join(grey[r] for r in row) + "\n")
