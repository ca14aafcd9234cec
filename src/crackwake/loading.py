"""Bimaterial data and self-balanced crack-face loadings.

Sign convention: a load value p is the prescribed shear stress
mu * du/dx2 on a crack face, positive along the +x3 direction on the
upper face.  The crack occupies x1 < 0, the tip sits at the origin.

Everything here is plain Python on floats and tuples, tables included,
so building and validating a loading never imports numpy.
"""

from __future__ import annotations

import math
import sys
from functools import cached_property

from .errors import InvalidPreset, LoadTooCloseToTip, Record, UnbalancedLoading, ValidationError

DEFAULT_TIP_CLEARANCE = 1e-6


class Bimaterial(Record):
    """Two bonded elastic half-planes under antiplane shear.

    mu_plus is the shear modulus of the upper half-plane (x2 > 0),
    mu_minus the one of the lower half-plane.  Both must be positive, their
    product a normal float and their sum finite, so that mu_series and
    mu_sum are neither 0 nor inf.
    """

    mu_plus: float
    mu_minus: float

    def __post_init__(self):
        mu_p, mu_m = self.mu_plus, self.mu_minus
        if not (0.0 < mu_p < math.inf and 0.0 < mu_m < math.inf):
            raise ValidationError(f"shear moduli must be positive and finite, got ({mu_p}, {mu_m})")
        if not (sys.float_info.min <= mu_p * mu_m < math.inf and mu_p + mu_m < math.inf):
            raise ValidationError(
                f"shear moduli ({mu_p}, {mu_m}) leave the float range: their product must be a normal "
                "float and their sum finite; only their ratio matters to K0, A0 and dK, so rescale both"
            )

    @cached_property
    def mu_sum(self) -> float:
        return self.mu_plus + self.mu_minus

    @cached_property
    def contrast(self) -> float:
        """Contrast parameter (mu_minus - mu_plus)/(mu_plus + mu_minus) in (-1, 1)."""
        return (self.mu_minus - self.mu_plus) / (self.mu_plus + self.mu_minus)

    @cached_property
    def mu_series(self) -> float:
        """mu_plus mu_minus / (mu_plus + mu_minus), the modulus factor of the closed-form dK."""
        return self.mu_plus * self.mu_minus / self.mu_sum


class PointForce(Record):
    """Concentrated traction resultant applied on one crack face.

    x1 is the station behind the tip (strictly negative), face is "+"
    for the upper face and "-" for the lower one, magnitude is the
    traction resultant per unit thickness.
    """

    x1: float
    face: str
    magnitude: float

    def __post_init__(self):
        if self.face not in ("+", "-"):
            raise ValidationError(f'face must be "+" or "-", got {self.face!r}')
        if not -math.inf < self.x1 < 0.0:
            raise ValidationError(f"point force must sit behind the tip, got x1 = {self.x1}")
        if not math.isfinite(self.magnitude):
            raise ValidationError(f"point force magnitude must be finite, got {self.magnitude}")


class DistributedLoad(Record):
    """Tabulated (avg, jump) traction profiles along the crack faces.

    The table holds <p>(x1) and [p](x1) at strictly increasing stations
    x1 < 0; the profiles are interpolated linearly between stations and
    vanish outside [x[0], x[-1]].
    """

    x: tuple[float, ...]
    avg: tuple[float, ...]
    jump: tuple[float, ...]

    def __post_init__(self):
        x, avg, jump = (_column(v) for v in (self.x, self.avg, self.jump))
        if len(x) < 2:
            raise ValidationError("distributed load needs at least two stations")
        if not all(a < b for a, b in zip(x, x[1:])):
            raise ValidationError("distributed-load stations must be strictly increasing")
        if not all(v < 0.0 for v in x):
            raise ValidationError("distributed-load support must lie on x1 < 0")
        if len(avg) != len(x) or len(jump) != len(x):
            raise ValidationError("avg/jump tables must match the station grid")
        if not all(map(math.isfinite, x + avg + jump)):
            raise ValidationError("distributed-load tables must be finite")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "avg", avg)
        object.__setattr__(self, "jump", jump)


def _column(values) -> tuple[float, ...]:
    """A table column as a tuple of floats; ValidationError unless it is
    a sequence of real numbers (a string, None or a nested entry is not).
    numbers is imported here, as only a table needs it."""
    import numbers

    try:
        column = tuple(values)
        if all(isinstance(v, numbers.Real) for v in column):
            return tuple(map(float, column))
    except (TypeError, OverflowError):  # not iterable; an int beyond the float range
        pass
    raise ValidationError("distributed-load tables must be sequences of real numbers")


def _trapezoid(y, x) -> float:
    """Trapezoid rule over sequences of floats, its panels summed by fsum."""
    return math.fsum((xb - xa) * (yb + ya) / 2.0 for xa, xb, ya, yb in zip(x, x[1:], y, y[1:]))


class Loading(Record):
    """Self-balanced crack-face loading: point forces plus an optional table."""

    forces: tuple[PointForce, ...] = ()
    distributed: DistributedLoad | None = None

    def __post_init__(self):
        object.__setattr__(self, "forces", tuple(self.forces))

    @cached_property
    def split(self) -> tuple:
        """decompose(self), computed once: the (stations, table) pair that
        every kernel and the balance, scale and support checks read."""
        return decompose(self)

    def support_max(self) -> float | None:
        """Largest x1 of the split, the load support closest to the tip; None without load."""
        stations, table = self.split
        xs = [x1 for x1, _, _ in stations] + list(table[0] if table else ())
        return max(xs, default=None)


def decompose(loading: Loading) -> tuple:
    """Split a loading into symmetric <p> = (p+ + p-)/2 and skew [p] = p+ - p-:
    the pair (stations, table) that the kernels and check_balance read.

    stations holds one (x1, avg, jump) triple of floats per abscissa,
    sorted by x1: point forces sharing a station are merged, so avg and
    jump are the distributional weights of <p> and [p] there, and an
    abscissa whose face loads both sum to zero is dropped: it is no load
    support.  table is the distributed load's columns (x, avg, jump) less
    the end panels whose two knots carry zero avg and jump, or None when
    no panel is left.
    """
    merged: dict[float, list[float]] = {}
    for f in loading.forces:
        entry = merged.setdefault(f.x1, [0.0, 0.0])
        entry[0 if f.face == "+" else 1] += f.magnitude
    stations = tuple(
        (x1, 0.5 * (p_up + p_lo), p_up - p_lo)
        for x1, (p_up, p_lo) in sorted(merged.items())
        if p_up != 0.0 or p_lo != 0.0
    )
    t = loading.distributed
    loaded = [] if t is None else [i for i, (a, j) in enumerate(zip(t.avg, t.jump)) if a != 0.0 or j != 0.0]
    if not loaded:
        return stations, None
    lo, hi = max(loaded[0] - 1, 0), loaded[-1] + 2
    return stations, (t.x[lo:hi], t.avg[lo:hi], t.jump[lo:hi])


def check_balance(loading: Loading, tip_clearance: float = DEFAULT_TIP_CLEARANCE) -> Loading:
    """Validate self-balance and tip clearance on loading.split; return the loading unchanged.

    Raises UnbalancedLoading when the total skew part [p] exceeds 1e-12
    times the total |p+| + |p-|, and LoadTooCloseToTip when the load
    support lies within tip_clearance of the tip; ValidationError unless
    0 <= tip_clearance < inf.
    """
    if not 0.0 <= tip_clearance < math.inf:
        raise ValidationError(f"tip clearance must be non-negative and finite, got {tip_clearance}")
    support = loading.support_max()
    if support is not None and support > -tip_clearance:
        raise LoadTooCloseToTip(
            f"load support reaches x1 = {support:g}, closer than clearance {tip_clearance:g}"
        )
    stations, table = loading.split
    x, avg, jump = table or ((), (), ())
    # |p+| + |p-| at each station, then at each table knot
    faces = [abs(a + 0.5 * j) + abs(a - 0.5 * j) for _, a, j in (*stations, *zip(x, avg, jump))]
    n = len(stations)
    try:
        residual = math.fsum(j for _, _, j in stations) + _trapezoid(jump, x)
        scale = math.fsum(faces[:n]) + _trapezoid(faces[n:], x)
    except (OverflowError, ValueError):
        # an fsum over loads beyond the float range: the scale is infinite, and no residual exceeds it
        return loading
    if abs(residual) > 1e-12 * scale:
        raise UnbalancedLoading(residual, scale)
    return loading


def three_point_preset(P: float, a: float, b: float) -> Loading:
    """Three-point loading: P on the upper face at -a, balanced by two
    forces P/2 on the lower face at -(a - b) and -(a + b).

    Self-balanced for every 0 <= b < a; the skew part vanishes
    identically only for b = 0.
    """
    if not math.isfinite(P):
        raise InvalidPreset(f"P must be finite, got {P}")
    if 0.0 < abs(P) < sys.float_info.min:
        raise InvalidPreset(f"P must not be subnormal (P/2 would round), got {P}")
    if not 0.0 < a < math.inf:
        raise InvalidPreset(f"a must be positive and finite, got {a}")
    if not 0.0 <= b < a:
        raise InvalidPreset(f"b must satisfy 0 <= b < a, got b = {b}, a = {a}")
    return Loading(
        (
            PointForce(-a, "+", P),
            PointForce(-(a - b), "-", 0.5 * P),
            PointForce(-(a + b), "-", 0.5 * P),
        )
    )
