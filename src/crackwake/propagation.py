"""Quasi-static crack advance along the interface.

Defects and load stations are fixed in space (frame anchored at the
initial tip position, tip starts at x = 0); only the tip abscissa
moves.  Each iteration balances the defect-induced SIF perturbation
against the tip-advance term, giving the increment
phi = -2 * sum(dK_j) / A0 at the current geometry.  Negative
increments mean a shielded tip: the crack arrests, it does not
retreat.
"""

from __future__ import annotations

import math

from .defects import Defect, _dipole_parts, _double_angle
from .errors import (DegenerateA0, NumericalError, Record, TipReachesDefect, TipReachesLoad, ValidationError,
                     _check_param)
from .loading import Bimaterial, Loading
from .perturbation import _harmonics
from .tipfields import _coefficients, _finite

STEADY_REL = 1e-6
STEADY_WINDOW = 50

ARREST_FLAG = 1
STEADY_FLAG = 2
MAX_ITER_FLAG = 3


class CrackState(Record):
    """Tip position plus the space-fixed defects, loading and materials.

    Defect polar coordinates and load stations are measured from the
    frame origin, where the tip conventionally starts; the propagation
    engine shifts them into tip coordinates at each tip_x.  This is the
    one check that the tip is a finite position ahead of the load.
    """

    tip_x: float
    defects: tuple[Defect, ...]
    loading: Loading
    bimaterial: Bimaterial

    def __post_init__(self):
        object.__setattr__(self, "defects", tuple(self.defects))
        if not math.isfinite(self.tip_x):
            raise ValidationError(f"tip position must be finite, got tip_x = {self.tip_x}")
        support = self.loading.support_max()
        if support is not None and support >= self.tip_x:
            raise TipReachesLoad(
                f"loading support reaches x = {support:g}, not behind tip at {self.tip_x:g}"
            )


class PropagationTrace(Record):
    """Per-iteration record of a propagation run.

    The row columns keep one entry per iteration including the terminal
    evaluation that triggered the verdict.  An arrest-triggering
    increment is recorded but never applied: its row repeats the
    previous elongation.
    """

    verdict: str
    phi: tuple[float, ...]
    x: tuple[float, ...]
    dk_total: tuple[float, ...]
    k0: tuple[float, ...]
    a0: tuple[float, ...]
    flags: tuple[int, ...]

    @property
    def increments(self) -> tuple[float, ...]:
        """The applied advances: phi without an arrest's last row."""
        return self.phi[:-1] if self.verdict == "arrest" else self.phi

    @property
    def elongation(self) -> float:
        """Total applied advance, the prefix sum that the x column records."""
        return self.x[-1]


def _on_path(defects) -> list:
    """(x, y, l_a, kind) of the defects whose disc of radius l_a reaches
    the crack line, the only ones an advancing tip can run into."""
    return [(df.x, df.y, df.l_a, df.kind) for df in defects if abs(df.y) <= df.l_a]


def _check_path(lo: float, hi: float, on_path) -> None:
    """Raise TipReachesDefect when the tip's path [lo, hi] along the
    crack line comes within l_a of a defect of on_path (_on_path)."""
    for x, y, la, kind in on_path:
        if math.hypot(x - min(max(x, lo), hi), y) <= la:
            raise TipReachesDefect(
                f"tip path [{lo:g}, {hi:g}] comes within {la:g} of the {kind} at ({x:g}, {y:g})"
            )


class _Engine:
    """Per-run evaluator of (K0, A0, dK_j) as a function of tip position.

    It keeps what does not move with the tip: the point stations, the
    table columns and each defect's position, _dipole_parts, _double_angle,
    size and kind.  At a tip it shifts the stations and the table into tip
    coordinates and evaluates them with tipfields._coefficients and
    perturbation._harmonics, the functions behind sif_k0, coeff_a0 and
    delta_k_defect, so every value equals theirs on the tip-relative
    loading and defects.
    """

    def __init__(self, state: CrackState):
        self.bimaterial = state.bimaterial
        self.stations, self.table = state.loading.split  # x from the frame origin
        self.defects = [(df.x, df.y, *_dipole_parts(df), *_double_angle(df.alpha), df.l_a, df.kind)
                        for df in state.defects]
        dists = [math.hypot(x - state.tip_x, y) for x, y, *_ in self.defects]
        self.d_ref = min(dists) if dists else 1.0
        self.on_path = _on_path(state.defects)

    def evaluate(self, tip: float):
        """Return (k0, a3, per-defect dK tuple, dK total) at tip."""
        bm = self.bimaterial
        points = [(xs - tip, avg, jump) for xs, avg, jump in self.stations]
        table = self.table
        if table is not None:
            table = (tuple(x - tip for x in table[0]), table[1], table[2])
        k0, a3 = _coefficients(points, table, bm.contrast)
        k0, a3 = _finite("K0", k0), _finite("A0", a3)
        per = []
        for xd, yd, iso, dev, c2, s2, la, kind in self.defects:
            dx = xd - tip
            dj = math.hypot(dx, yd)
            if dj <= la:
                raise TipReachesDefect(
                    f"tip at {tip:g} is within {la:g} of the {kind} centered at ({xd:g}, {yd:g})"
                )
            (a, b, c), = _harmonics(points, table, bm, dj, [math.atan2(yd, dx)], iso, dev)
            per.append(a + b * c2 + c * s2)
        return k0, a3, tuple(per), math.fsum(per)


def advance_increment(state: CrackState) -> float:
    """Quasi-static advance of the tip at the current geometry.

    Zero without defects; DegenerateA0 when the second-order
    coefficient is too small to balance a non-zero perturbation.
    """
    engine = _Engine(state)
    k0, a3, _, total = engine.evaluate(state.tip_x)
    return _increment(total, a3, k0, engine.d_ref)


def _increment(total: float, a3: float, k0: float, d_ref: float) -> float:
    if total == 0.0:
        return 0.0
    if abs(a3) < 1e-14 * abs(k0) / d_ref:
        raise DegenerateA0(f"|A0| = {abs(a3):.3e} too small against K0 = {k0:.3e}")
    phi = -2.0 * total / a3
    if not math.isfinite(phi):
        raise NumericalError(f"advance is not finite: dK = {total:g}, A0 = {a3:g}")
    return phi


def propagate(
    state: CrackState,
    max_iter: int = 10_000,
    arrest_tol: float | None = None,
) -> PropagationTrace:
    """Advance the tip by advance_increment until arrest, steady state, or the
    iteration budget runs out.

    Arrest: increment below arrest_tol (negative counts as arrested).
    Steady state: relative increment change below 1e-6 for 50
    consecutive iterations.  Defaults: arrest_tol = 1e-8 times the
    smallest initial defect distance.
    """
    _check_param("max_iter", max_iter)
    engine = _Engine(state)
    if arrest_tol is None:
        arrest_tol = 1e-8 * engine.d_ref
    _check_param("arrest_tol", arrest_tol)

    tip = state.tip_x
    elong = 0.0
    # the rows (phi, x, dK_total, K0, A0, flag) end to end: a tuple per row
    # would keep one more object per iteration and set off the garbage collector
    rows = []
    prev_phi = math.inf  # no streak before the first applied advance
    streak = 0
    verdict = "max_iterations"

    for _ in range(max_iter):
        k0, a3, _, total = engine.evaluate(tip)
        phi = _increment(total, a3, k0, engine.d_ref)
        if phi < arrest_tol:
            rows += (phi, elong, total, k0, a3, ARREST_FLAG)
            verdict = "arrest"
            break
        _check_path(tip, tip + phi, engine.on_path)
        tip += phi
        elong += phi
        streak = streak + 1 if abs(phi - prev_phi) < STEADY_REL * phi else 0
        prev_phi = phi
        rows += (phi, elong, total, k0, a3, STEADY_FLAG if streak >= STEADY_WINDOW else 0)
        if streak >= STEADY_WINDOW:
            verdict = "steady_state"
            break
    else:
        rows[-1] = MAX_ITER_FLAG

    return PropagationTrace(verdict, *(tuple(rows[i::6]) for i in range(6)))


def write_trace_csv(trace: PropagationTrace, fh) -> None:
    """Emit the trace with the fixed header, one row per iteration."""
    fh.write("iter,phi,x,dK_total,K0,A0,verdict_flag\n")
    rows = zip(trace.phi, trace.x, trace.dk_total, trace.k0, trace.a0, trace.flags)
    for i, (phi, x, dk, k0, a0, flag) in enumerate(rows):
        fh.write(f"{i},{phi:.9g},{x:.9g},{dk:.9g},{k0:.9g},{a0:.9g},{flag}\n")
