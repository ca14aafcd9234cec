"""Bimaterial data and self-balanced crack-face loadings.

Sign convention: a load value p is the prescribed shear stress
mu * du/dx2 on a crack face, positive along the +x3 direction on the
upper face.  The crack occupies x1 < 0, the tip sits at the origin.

Everything here is plain Python on floats and tuples, tables included,
so building and validating a loading never imports numpy.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

from .errors import InvalidPreset, LoadTooCloseToTip, UnbalancedLoading, ValidationError

DEFAULT_TIP_CLEARANCE = 1e-6


@dataclass(frozen=True)
class Bimaterial:
    """Two bonded elastic half-planes under antiplane shear.

    mu_plus is the shear modulus of the upper half-plane (x2 > 0),
    mu_minus the one of the lower half-plane.  Both must be positive.
    """

    mu_plus: float
    mu_minus: float

    def __post_init__(self):
        if not (0.0 < self.mu_plus < math.inf and 0.0 < self.mu_minus < math.inf):
            raise ValidationError(
                f"shear moduli must be positive and finite, got ({self.mu_plus}, {self.mu_minus})"
            )

    @property
    def mu_sum(self) -> float:
        return self.mu_plus + self.mu_minus

    @property
    def contrast(self) -> float:
        return (self.mu_minus - self.mu_plus) / (self.mu_plus + self.mu_minus)

    @property
    def mu_series(self) -> float:
        """mu_plus mu_minus / (mu_plus + mu_minus), the modulus factor of the closed-form dK."""
        return self.mu_plus * self.mu_minus / self.mu_sum


def contrast(bimaterial: Bimaterial) -> float:
    """Contrast parameter (mu_minus - mu_plus)/(mu_plus + mu_minus) in (-1, 1)."""
    return bimaterial.contrast


@dataclass(frozen=True)
class PointForce:
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


@dataclass(frozen=True)
class DistributedLoad:
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

    @property
    def support(self) -> tuple[float, float]:
        return self.x[0], self.x[-1]

    def jump_resultant(self) -> float:
        # piecewise-linear profile integrates exactly by the trapezoid rule
        return _trapezoid(self.jump, self.x)

    def abs_scale(self) -> float:
        faces = [abs(a + 0.5 * j) + abs(a - 0.5 * j) for a, j in zip(self.avg, self.jump)]
        return _trapezoid(faces, self.x)


def _column(values) -> tuple[float, ...]:
    """A table column as a tuple of floats; ValidationError unless it is
    a sequence of real numbers (a string, None or a nested entry is not)."""
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


@dataclass(frozen=True)
class Loading:
    """Self-balanced crack-face loading: point forces plus an optional table."""

    forces: tuple[PointForce, ...] = ()
    distributed: DistributedLoad | None = None

    def __post_init__(self):
        object.__setattr__(self, "forces", tuple(self.forces))

    def scaled(self, factor: float) -> "Loading":
        forces = tuple(
            PointForce(f.x1, f.face, factor * f.magnitude) for f in self.forces
        )
        dist = self.distributed
        if dist is not None:
            dist = DistributedLoad(
                dist.x,
                tuple(factor * v for v in dist.avg),
                tuple(factor * v for v in dist.jump),
            )
        return Loading(forces, dist)

    def balance_residual(self) -> float:
        """Total upper-face force minus total lower-face force."""
        res = 0.0
        for f in self.forces:
            res += f.magnitude if f.face == "+" else -f.magnitude
        if self.distributed is not None:
            res += self.distributed.jump_resultant()
        return res

    def abs_scale(self) -> float:
        scale = sum(abs(f.magnitude) for f in self.forces)
        if self.distributed is not None:
            scale += self.distributed.abs_scale()
        return scale

    def support_max(self) -> float | None:
        """Station closest to the tip (largest x1), None for an empty loading."""
        xs = [f.x1 for f in self.forces]
        if self.distributed is not None:
            xs.append(self.distributed.support[1])
        return max(xs) if xs else None


@dataclass(frozen=True)
class LoadStation:
    """Delta-function coefficients of <p> and [p] at one station."""

    x1: float
    avg: float
    jump: float


@dataclass(frozen=True)
class DecomposedLoading:
    """Symmetric/skew split of a loading; stations merged per abscissa.

    The merged face resultants are kept alongside so recombine inverts
    decompose exactly, without rounding through avg +- jump/2.
    """

    stations: tuple[LoadStation, ...]
    distributed: DistributedLoad | None = None
    faces: tuple[tuple[float, float, float], ...] = ()  # (x1, p_plus, p_minus)

    def recombine(self) -> Loading:
        """Rebuild the face loads; exact inverse of decompose."""
        forces = []
        for x1, p_up, p_lo in self.faces:
            if p_up != 0.0:
                forces.append(PointForce(x1, "+", p_up))
            if p_lo != 0.0:
                forces.append(PointForce(x1, "-", p_lo))
        return Loading(tuple(forces), self.distributed)


def decompose(loading: Loading) -> DecomposedLoading:
    """Split a loading into symmetric <p> = (p+ + p-)/2 and skew [p] = p+ - p-.

    Point forces sharing a station are merged, so the returned
    coefficients are the distributional weights of <p> and [p] at each
    abscissa.  Stations come out sorted by x1.
    """
    merged: dict[float, list[float]] = {}
    for f in loading.forces:
        entry = merged.setdefault(f.x1, [0.0, 0.0])
        entry[0 if f.face == "+" else 1] += f.magnitude
    faces = tuple(
        (x1, p_up, p_lo)
        for x1, (p_up, p_lo) in sorted(merged.items())
        if p_up != 0.0 or p_lo != 0.0
    )
    stations = tuple(
        LoadStation(x1, 0.5 * (p_up + p_lo), p_up - p_lo) for x1, p_up, p_lo in faces
    )
    return DecomposedLoading(stations, loading.distributed, faces)


def check_balance(loading: Loading, tip_clearance: float = DEFAULT_TIP_CLEARANCE) -> Loading:
    """Validate self-balance and tip clearance; return the loading unchanged.

    Raises UnbalancedLoading when the principal force vector exceeds
    1e-12 times the summed load magnitudes, and LoadTooCloseToTip when
    any support point lies within tip_clearance of the tip.
    """
    support = loading.support_max()
    if support is not None and support > -tip_clearance:
        raise LoadTooCloseToTip(
            f"load support reaches x1 = {support:g}, closer than clearance {tip_clearance:g}"
        )
    scale = loading.abs_scale()
    residual = loading.balance_residual()
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
