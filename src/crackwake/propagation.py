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
from array import array
from dataclasses import dataclass, replace

import numpy as np

from .defects import Defect, dipole_matrix
from .errors import DegenerateA0, NumericalError, TipReachesDefect, TipReachesLoad, ValidationError
from .loading import Bimaterial, DistributedLoad, Loading, PointForce, decompose
from .perturbation import _delta_k_closed
from .tipfields import SQRT_2_OVER_PI, _lowered_grad, _phi_trig, _table_arrays, _table_moments

STEADY_REL = 1e-6
STEADY_WINDOW = 50
# relative accuracy of the defect gradients when the loading has a table
GRAD_RTOL = 1e-10

ARREST_FLAG = 1
STEADY_FLAG = 2
MAX_ITER_FLAG = 3


@dataclass(frozen=True)
class CrackState:
    """Tip position plus the space-fixed defects, loading and materials.

    Defect polar coordinates and load stations are measured from the
    frame origin, where the tip conventionally starts; tip-relative
    geometry is recomputed from tip_x on demand.
    """

    tip_x: float
    defects: tuple[Defect, ...]
    loading: Loading
    bimaterial: Bimaterial

    def __post_init__(self):
        object.__setattr__(self, "defects", tuple(self.defects))
        support = self.loading.support_max()
        if support is not None and support >= self.tip_x:
            raise TipReachesLoad(
                f"loading support reaches x = {support:g}, not behind tip at {self.tip_x:g}"
            )

    def current_defects(self) -> tuple[Defect, ...]:
        """Defects with (d, phi) recomputed relative to the current tip."""
        out = []
        for df in self.defects:
            dx = df.x - self.tip_x
            out.append(replace(df, d=math.hypot(dx, df.y), phi=math.atan2(df.y, dx)))
        return tuple(out)

    def current_loading(self) -> Loading:
        """Loading with stations shifted into tip-relative coordinates."""
        return _shift_loading(self.loading, self.tip_x)


def _shift_loading(loading: Loading, tip_x: float) -> Loading:
    if tip_x == 0.0:
        return loading
    forces = tuple(
        PointForce(f.x1 - tip_x, f.face, f.magnitude) for f in loading.forces
    )
    dist = loading.distributed
    if dist is not None:
        dist = DistributedLoad(tuple(x - tip_x for x in dist.x), dist.avg, dist.jump)
    return Loading(forces, dist)


@dataclass(frozen=True)
class PropagationTrace:
    """Per-iteration record of a propagation run.

    increments holds the applied advances only, so elongation equals
    their prefix sum exactly.  The row arrays keep one entry per
    iteration including the terminal evaluation that triggered the
    verdict (an arrest-triggering increment is recorded but never
    applied, its row repeats the previous elongation).
    """

    increments: np.ndarray
    elongation: float
    verdict: str
    iters: np.ndarray
    phi: np.ndarray
    x: np.ndarray
    dk_total: np.ndarray
    k0: np.ndarray
    a0: np.ndarray
    flags: np.ndarray


class _Engine:
    """Per-run evaluator of (K0, A0, dK_j) as a function of tip position.

    Point forces and a table go the same way at every tip: both shift
    with the tip, the table adds its exact moments to K0 and A0, and it
    is lowered to point stations for each defect's gradient.
    """

    def __init__(self, state: CrackState):
        bm = state.bimaterial
        self.mu_plus = bm.mu_plus
        self.mu_minus = bm.mu_minus
        self.mu_sum = bm.mu_sum
        self.eta = bm.contrast
        self.mu_series = bm.mu_series
        self.table = _table_arrays(state.loading.distributed)  # (x, avg, jump), x from the frame origin
        dec = decompose(state.loading)
        self.stations = [(s.x1, s.avg, s.jump) for s in dec.stations]
        self.defects = []
        for df in state.defects:
            m = dipole_matrix(df)
            self.defects.append((df.x, df.y, m.m11, m.m12, m.m22, df.l_a, df.kind))
        dists = [math.hypot(x - state.tip_x, y) for x, y, *_ in self.defects]
        self.d_ref = min(dists) if dists else 1.0

    def evaluate(self, tip: float):
        """Return (k0, a3, per-defect dK tuple, dK total) at tip."""
        eta = self.eta
        k0s = 0.0
        a0s = 0.0
        for xs, avg, jump in self.stations:
            r = tip - xs
            if r <= 0.0:
                raise TipReachesLoad(f"tip at {tip:g} reached the load station at {xs:g}")
            w = avg + 0.5 * eta * jump
            inv = 1.0 / math.sqrt(r)
            k0s += w * inv
            a0s += w * inv / r
        table = self.table
        if table is not None:
            table = (table[0] - tip, *table[1:])
            moments = _table_moments(*table, eta)
            k0s += moments[-0.5]
            a0s += moments[-1.5]
        k0 = -SQRT_2_OVER_PI * k0s
        a3 = SQRT_2_OVER_PI * a0s

        shifted = [(xs - tip, a, j) for xs, a, j in self.stations]
        per = []
        for xd, yd, m11, m12, m22, la, kind in self.defects:
            dx = xd - tip
            dj = math.hypot(dx, yd)
            if dj <= la:
                raise TipReachesDefect(
                    f"tip at {tip:g} is within {la:g} of the {kind} centered at ({xd:g}, {yd:g})"
                )
            phij = math.atan2(yd, dx)
            mu_b = self.mu_plus if phij >= 0.0 else self.mu_minus
            trig = _phi_trig(phij)
            grad = _lowered_grad(
                shifted, table, dj, math.pi - abs(phij), trig, mu_b, self.mu_sum, eta, GRAD_RTOL
            )[0]
            per.append(_delta_k_closed(grad, dj, trig, m11, m12, m22, self.mu_series))
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


def step(state: CrackState, phi: float) -> CrackState:
    """Advance the tip by phi, keeping defects and loads fixed in space."""
    if not math.isfinite(phi):
        raise ValidationError(f"advance must be finite, got {phi}")
    tip = state.tip_x + phi
    support = state.loading.support_max()
    if support is not None and support >= tip:
        raise TipReachesLoad(f"tip at {tip:g} entered the loading support (max x = {support:g})")
    for df in state.defects:
        dj = math.hypot(df.x - tip, df.y)
        if dj <= df.l_a:
            raise TipReachesDefect(
                f"tip at {tip:g} is within {df.l_a:g} of the {df.kind} at ({df.x:g}, {df.y:g})"
            )
    return replace(state, tip_x=tip)


def propagate(
    state: CrackState,
    max_iter: int = 10_000,
    arrest_tol: float | None = None,
) -> PropagationTrace:
    """Iterate advance_increment/step until arrest, steady state, or the
    iteration budget runs out.

    Arrest: increment below arrest_tol (negative counts as arrested).
    Steady state: relative increment change below 1e-6 for 50
    consecutive iterations.  Defaults: arrest_tol = 1e-8 times the
    smallest initial defect distance.
    """
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    engine = _Engine(state)
    if arrest_tol is None:
        arrest_tol = 1e-8 * engine.d_ref
    if not arrest_tol > 0.0:
        raise ValidationError(f"arrest_tol must be positive, got {arrest_tol}")

    tip = state.tip_x
    elong = 0.0
    increments = array("d")
    col_phi = array("d")
    col_x = array("d")
    col_dk = array("d")
    col_k0 = array("d")
    col_a0 = array("d")
    flags = array("b")
    prev_phi = None
    streak = 0
    verdict = "max_iterations"

    for _ in range(max_iter):
        k0, a3, _, total = engine.evaluate(tip)
        phi = _increment(total, a3, k0, engine.d_ref)
        col_phi.append(phi)
        col_dk.append(total)
        col_k0.append(k0)
        col_a0.append(a3)
        if phi < arrest_tol:
            col_x.append(elong)
            flags.append(ARREST_FLAG)
            verdict = "arrest"
            break
        tip += phi
        elong += phi
        increments.append(phi)
        col_x.append(elong)
        if prev_phi is not None and abs(phi - prev_phi) < STEADY_REL * phi:
            streak += 1
        else:
            streak = 0
        prev_phi = phi
        if streak >= STEADY_WINDOW:
            flags.append(STEADY_FLAG)
            verdict = "steady_state"
            break
        flags.append(0)
    else:
        if flags:
            flags[-1] = MAX_ITER_FLAG

    n = len(col_phi)
    return PropagationTrace(
        increments=np.frombuffer(increments, dtype=float).copy(),
        elongation=elong,
        verdict=verdict,
        iters=np.arange(n),
        phi=np.frombuffer(col_phi, dtype=float).copy(),
        x=np.frombuffer(col_x, dtype=float).copy(),
        dk_total=np.frombuffer(col_dk, dtype=float).copy(),
        k0=np.frombuffer(col_k0, dtype=float).copy(),
        a0=np.frombuffer(col_a0, dtype=float).copy(),
        flags=np.frombuffer(flags, dtype=np.int8).astype(int),
    )


def write_trace_csv(trace: PropagationTrace, fh) -> None:
    """Emit the trace with the fixed header, one row per iteration."""
    fh.write("iter,phi,x,dK_total,K0,A0,verdict_flag\n")
    for i in range(len(trace.phi)):
        fh.write(
            f"{trace.iters[i]},{trace.phi[i]:.9g},{trace.x[i]:.9g},"
            f"{trace.dk_total[i]:.9g},{trace.k0[i]:.9g},{trace.a0[i]:.9g},"
            f"{trace.flags[i]}\n"
        )
