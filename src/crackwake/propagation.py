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
from .perturbation import _defect_dk
from .tipfields import _coefficients, _finite

STEADY_REL = 1e-6
STEADY_WINDOW = 50

_VERDICT_FLAG = {"arrest": 1, "steady_state": 2, "max_iterations": 3}


class CrackState(Record):
    """Tip position plus the space-fixed defects, loading and materials.

    Defect polar coordinates and load stations are measured from the
    frame origin, where the tip conventionally starts; the propagation
    evaluator shifts them into tip coordinates at each tip_x.  This is the
    one check that the tip is a finite position ahead of the load and
    farther than l_a from each defect.
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
        _check_path(self.tip_x, self.tip_x, _on_path(self.defects))


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

    @property
    def flags(self) -> tuple[int, ...]:
        """The verdict_flag column: 0 on each row but the last, which has the verdict's flag."""
        return (0,) * (len(self.phi) - 1) + (_VERDICT_FLAG[self.verdict],)

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


def _evaluator(state: CrackState):
    """Return (evaluate, d_ref): evaluate(tip) gives (phi, dK total, K0, A0)
    at tip, phi = -2 * dK total / A0 the quasi-static advance there, and
    d_ref is the smallest initial defect distance (1 without defects).

    It keeps what does not move with the tip: the point stations, the
    table columns and each defect's position, _dipole_parts and
    _double_angle.  At a tip it shifts the stations and the table into tip
    coordinates and evaluates them with tipfields._coefficients and one
    perturbation._defect_dk call for all the defects, as sif_k0, coeff_a0
    and delta_k_defect do, so every value equals theirs on the tip-relative
    loading and defects, face rule included.  phi is 0 without a
    perturbation; with one, DegenerateA0 when |A0| <= 1e-14 |K0| / d_ref.
    """
    bm = state.bimaterial
    stations, table = state.loading.split  # x from the frame origin
    defects = [(df.x, df.y, (*_dipole_parts(df), *_double_angle(df.alpha))) for df in state.defects]
    d_ref = min((math.hypot(x - state.tip_x, y) for x, y, _ in defects), default=1.0)

    def evaluate(tip: float):
        points = [(xs - tip, avg, jump) for xs, avg, jump in stations]
        shifted = None if table is None else (tuple(x - tip for x in table[0]), table[1], table[2])
        k0, a3 = _coefficients(points, shifted, bm.contrast)
        k0, a3 = _finite("K0", k0), _finite("A0", a3)
        total = math.fsum(_defect_dk(points, shifted, bm, [(math.hypot(x - tip, y), math.atan2(y, x - tip)) + parts
                                                           for x, y, parts in defects]))
        if total == 0.0:
            return 0.0, total, k0, a3
        if abs(a3) <= 1e-14 * abs(k0) / d_ref:
            raise DegenerateA0(f"|A0| = {abs(a3):.3e} too small against K0 = {k0 + 0.0:.3e}")  # +0.0 folds -0.0
        phi = -2.0 * total / a3
        if not math.isfinite(phi):
            raise NumericalError(f"advance is not finite: dK = {total:g}, A0 = {a3:g}")
        return phi, total, k0, a3

    return evaluate, d_ref


def advance_increment(state: CrackState) -> float:
    """Quasi-static advance of the tip at the current geometry.

    Zero without defects; DegenerateA0 when the second-order
    coefficient is too small to balance a non-zero perturbation.
    """
    evaluate, _ = _evaluator(state)
    return evaluate(state.tip_x)[0]


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
    evaluate, d_ref = _evaluator(state)
    if arrest_tol is None:
        arrest_tol = 1e-8 * d_ref
    _check_param("arrest_tol", arrest_tol)
    on_path = _on_path(state.defects)

    tip = state.tip_x
    elong = 0.0
    # the rows (phi, x, dK_total, K0, A0) end to end: a tuple per row
    # would keep one more object per iteration and set off the garbage collector
    rows = []
    prev_phi = math.inf  # no streak before the first applied advance
    streak = 0
    verdict = "max_iterations"

    for _ in range(max_iter):
        phi, total, k0, a3 = evaluate(tip)
        if phi < arrest_tol:
            rows += (phi, elong, total, k0, a3)
            verdict = "arrest"
            break
        _check_path(tip, tip + phi, on_path)
        tip += phi
        elong += phi
        streak = streak + 1 if abs(phi - prev_phi) < STEADY_REL * phi else 0
        prev_phi = phi
        rows += (phi, elong, total, k0, a3)
        if streak >= STEADY_WINDOW:
            verdict = "steady_state"
            break

    return PropagationTrace(verdict, *(tuple(rows[i::5]) for i in range(5)))


def write_trace_csv(trace: PropagationTrace, fh) -> None:
    """Emit the trace with the fixed header, one row per iteration."""
    fh.write("iter,phi,x,dK_total,K0,A0,verdict_flag\n")
    rows = zip(trace.phi, trace.x, trace.dk_total, trace.k0, trace.a0, trace.flags)
    for i, (phi, x, dk, k0, a0, flag) in enumerate(rows):  # + 0.0 prints -0.0 as 0, as cli._fmt does
        fh.write(f"{i},{phi + 0.0:.9g},{x + 0.0:.9g},{dk + 0.0:.9g},{k0 + 0.0:.9g},{a0 + 0.0:.9g},{flag}\n")
