"""Small defects near the crack tip and their 2x2 dipole matrices.

Every supported defect kind has a closed-form dipole matrix; entries
are exact in floating point, no quadrature is involved.  Matrices are
pi-periodic in the orientation angle, which is normalized to [0, pi).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

from .errors import DilutenessWarning, InvalidDefect

AREA_KINDS = ("elastic_ellipse", "rigid_ellipse", "elliptic_void")
LINE_KINDS = ("microcrack", "rigid_line", "soft_line", "stiff_line")
DEFECT_KINDS = AREA_KINDS + LINE_KINDS

# l/d above which the dilute (non-interacting) assumption gets shaky
DILUTENESS_RATIO = 0.3


@dataclass(frozen=True)
class Defect:
    """One defect: kind tag, tip-relative polar center, orientation, sizes.

    l_a is the major semi-axis for area kinds and the half-length for
    line kinds (l_b unused there); mu_star is the matrix/inclusion
    stiffness ratio (elastic_ellipse only); kappa is the bonding
    compliance (soft_line) or stiffness parameter (stiff_line).
    """

    kind: str
    d: float
    phi: float
    alpha: float
    l_a: float
    l_b: float = 0.0
    mu_star: float = 1.0
    kappa: float = 0.0

    def __post_init__(self):
        if self.kind not in DEFECT_KINDS:
            raise InvalidDefect(f"unknown defect kind {self.kind!r}")
        for name in ("d", "phi", "alpha", "l_a", "l_b", "mu_star", "kappa"):
            if not math.isfinite(getattr(self, name)):
                raise InvalidDefect(f"defect {name} must be finite, got {getattr(self, name)}")
        if not self.d > 0.0:
            raise InvalidDefect(f"defect distance must be positive, got d = {self.d}")
        if not abs(self.phi) < math.pi:
            raise InvalidDefect(
                f"defect angle must satisfy |phi| < pi (the faces are excluded), got {self.phi}"
            )
        if not self.l_a > 0.0:
            raise InvalidDefect(f"defect size must be positive, got l_a = {self.l_a}")
        if self.kind in AREA_KINDS:
            if not 0.0 < self.l_b <= self.l_a:
                raise InvalidDefect(
                    f"area defect needs 0 < l_b <= l_a, got l_b = {self.l_b}, l_a = {self.l_a}"
                )
        if self.kind == "elastic_ellipse" and not self.mu_star > 0.0:
            raise InvalidDefect(f"stiffness ratio must be positive, got {self.mu_star}")
        if self.kind in ("soft_line", "stiff_line") and self.kappa < 0.0:
            raise InvalidDefect(f"bonding parameter must be >= 0, got {self.kappa}")
        alpha = self.alpha % math.pi  # rounds to pi itself for a tiny negative angle
        object.__setattr__(self, "alpha", 0.0 if alpha == math.pi else alpha)
        if self.l_a / self.d > DILUTENESS_RATIO:
            warnings.warn(
                f"defect size l/d = {self.l_a / self.d:.3g} exceeds {DILUTENESS_RATIO}; "
                "the dipole approximation degrades",
                DilutenessWarning,
                stacklevel=3,  # past the generated __init__, to the caller
            )

    @classmethod
    def from_cartesian(cls, kind: str, x: float, y: float, **kwargs) -> "Defect":
        return cls(kind, d=math.hypot(x, y), phi=math.atan2(y, x), **kwargs)

    @property
    def x(self) -> float:
        return self.d * math.cos(self.phi)

    @property
    def y(self) -> float:
        return self.d * math.sin(self.phi)


@dataclass(frozen=True)
class DipoleMatrix:
    """Symmetric 2x2 far-field dipole matrix (length^2 units)."""

    m11: float
    m12: float
    m22: float

    def as_matrix(self):
        """The matrix as a 2x2 numpy array."""
        import numpy as np

        return np.array([[self.m11, self.m12], [self.m12, self.m22]])

    def apply(self, v1: float, v2: float) -> tuple[float, float]:
        return self.m11 * v1 + self.m12 * v2, self.m12 * v1 + self.m22 * v2

    def scaled(self, factor: float) -> "DipoleMatrix":
        return DipoleMatrix(factor * self.m11, factor * self.m12, factor * self.m22)


def dipole_matrix(defect: Defect) -> DipoleMatrix:
    """Closed-form dipole matrix for any supported defect kind.

    Soft defects (microcrack, void, soft bonding, compliant inclusion)
    give negative semi-definite matrices, stiff ones positive
    semi-definite.
    """
    c2 = math.cos(2.0 * defect.alpha)
    s2 = math.sin(2.0 * defect.alpha)
    kind = defect.kind

    if kind == "elastic_ellipse":
        e = defect.l_b / defect.l_a
        ms = defect.mu_star
        pref = -0.5 * math.pi * defect.l_a * defect.l_b * (1.0 + e) * (ms - 1.0)
        return DipoleMatrix(
            m11=pref * ((1.0 + c2) / (e + ms) + (1.0 - c2) / (1.0 + e * ms)),
            m12=pref * (-(1.0 - e) * (ms - 1.0) * s2 / ((e + ms) * (1.0 + e * ms))),
            m22=pref * ((1.0 - c2) / (e + ms) + (1.0 + c2) / (1.0 + e * ms)),
        )

    if kind == "rigid_ellipse":
        e = defect.l_b / defect.l_a
        pref = 0.5 * math.pi * defect.l_a * defect.l_b * (1.0 / e + 1.0)
        return DipoleMatrix(
            m11=pref * (1.0 + c2 + e * (1.0 - c2)),
            m12=pref * (1.0 - e) * s2,
            m22=pref * (1.0 - c2 + e * (1.0 + c2)),
        )

    if kind == "elliptic_void":
        e = defect.l_b / defect.l_a
        pref = -0.5 * math.pi * (defect.l_a + defect.l_b) ** 2
        q = (1.0 - e) / (1.0 + e)
        return DipoleMatrix(
            m11=pref * (1.0 - q * c2),
            m12=pref * (-q * s2),
            m22=pref * (1.0 + q * c2),
        )

    if kind == "microcrack":
        pref = -0.5 * math.pi * defect.l_a**2
        return DipoleMatrix(
            m11=pref * (1.0 - c2),
            m12=-pref * s2,
            m22=pref * (1.0 + c2),
        )

    if kind == "rigid_line":
        pref = 0.5 * math.pi * defect.l_a**2
        return DipoleMatrix(
            m11=pref * (1.0 + c2),
            m12=pref * s2,
            m22=pref * (1.0 - c2),
        )

    if kind == "soft_line":
        # direct limit form; the l_b -> 0 route through the ellipse cancels badly
        pref = -0.5 * math.pi * defect.l_a**2 * defect.kappa / (defect.l_a + defect.kappa)
        return DipoleMatrix(
            m11=pref * (1.0 - c2),
            m12=-pref * s2,
            m22=pref * (1.0 + c2),
        )

    # stiff_line
    pref = 0.5 * math.pi * defect.l_a**2 / (1.0 + defect.kappa * defect.l_a)
    return DipoleMatrix(
        m11=pref * (1.0 + c2),
        m12=pref * s2,
        m22=pref * (1.0 - c2),
    )
