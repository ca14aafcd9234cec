"""Small defects near the crack tip and their 2x2 dipole matrices.

Every supported defect kind has a closed-form dipole matrix
m_iso I + m_dev R(2 alpha) from one per-kind table of (m_iso, m_dev);
no quadrature is involved.  Matrices are pi-periodic in the orientation
angle, which is normalized to [0, pi).
"""

from __future__ import annotations

import math
import sys
import warnings

from .errors import DilutenessWarning, InvalidDefect, NumericalError, Record

# the Defect fields each kind takes beyond its position, alpha and l_a
_KIND_FIELDS = {"elastic_ellipse": ("l_b", "mu_star"), "rigid_ellipse": ("l_b",), "elliptic_void": ("l_b",),
                "microcrack": (), "rigid_line": (), "soft_line": ("kappa",), "stiff_line": ("kappa",)}
DEFECT_KINDS = tuple(_KIND_FIELDS)

# l/d above which the dilute (non-interacting) assumption gets shaky
DILUTENESS_RATIO = 0.3


class Defect(Record):
    """One defect: kind tag, tip-relative polar center, orientation, sizes.

    l_a is the major semi-axis for area kinds and the half-length for
    line kinds (l_b unused there); mu_star is the matrix/inclusion
    stiffness ratio (elastic_ellipse only); kappa is the bonding
    compliance (soft_line) or stiffness parameter (stiff_line).  A
    parameter the kind does not take is stored as its default.
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
        takes = _KIND_FIELDS[self.kind]
        if "l_b" in takes and not 0.0 < self.l_b <= self.l_a:
            raise InvalidDefect(f"area defect needs 0 < l_b <= l_a, got l_b = {self.l_b}, l_a = {self.l_a}")
        if "mu_star" in takes and not self.mu_star > 0.0:
            raise InvalidDefect(f"stiffness ratio must be positive, got {self.mu_star}")
        if "kappa" in takes and self.kappa < 0.0:
            raise InvalidDefect(f"bonding parameter must be >= 0, got {self.kappa}")
        for name, default in self._defaults.items():  # l_b, mu_star, kappa
            if name not in takes:
                object.__setattr__(self, name, default)
        object.__setattr__(self, "alpha", _mod_pi(self.alpha))
        if self.l_a / self.d > DILUTENESS_RATIO:
            warnings.warn(
                f"defect size l/d = {self.l_a / self.d:.3g} exceeds {DILUTENESS_RATIO}; "
                "the dipole approximation degrades",
                DilutenessWarning,
                stacklevel=3,  # past Record.__init__, to the caller
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


class DipoleMatrix(Record):
    """Symmetric 2x2 far-field dipole matrix (length^2 units)."""

    m11: float
    m12: float
    m22: float


def _dipole_parts(defect: Defect) -> tuple[float, float]:
    """Isotropic and deviatoric parts (m_iso, m_dev) of the dipole matrix;
    NumericalError beyond the float range, or when the size prefactor
    (l_a^2, l_a l_b, ...) underflows to 0 or a subnormal, unless the
    kind's parameters make the matrix 0."""
    kind = defect.kind
    try:
        if kind == "elastic_ellipse":
            e = defect.l_b / defect.l_a
            ms = defect.mu_star
            size = defect.l_a * defect.l_b
            pref = -0.5 * math.pi * defect.l_a * defect.l_b * (1.0 + e) * (ms - 1.0)
            a, b = 1.0 / (e + ms), 1.0 / (1.0 + e * ms)
            # factored: a - b cancels for mu_star near 1
            iso, dev = pref * (a + b), -pref * (1.0 - e) * (ms - 1.0) * a * b
        elif kind == "rigid_ellipse":
            e = defect.l_b / defect.l_a
            size = defect.l_a * (defect.l_a + defect.l_b)
            pref = 0.5 * math.pi * defect.l_a * (defect.l_a + defect.l_b)
            iso, dev = pref * (1.0 + e), pref * (1.0 - e)
        elif kind == "elliptic_void":
            e = defect.l_b / defect.l_a
            size = (defect.l_a + defect.l_b) ** 2
            pref = -0.5 * math.pi * size
            iso, dev = pref, -pref * (1.0 - e) / (1.0 + e)
        else:  # a line kind
            size = defect.l_a**2
            if kind == "microcrack":
                iso = -0.5 * math.pi * size
                dev = -iso
            elif kind == "soft_line":
                # direct limit form; the l_b -> 0 route through the ellipse cancels badly
                iso = -0.5 * math.pi * size * defect.kappa / (defect.l_a + defect.kappa)
                dev = -iso
            elif kind == "rigid_line":
                iso = dev = 0.5 * math.pi * size
            else:  # stiff_line
                iso = dev = 0.5 * math.pi * size / (1.0 + defect.kappa * defect.l_a)
    except OverflowError:  # a square beyond the float range; a product gives inf instead
        iso = dev = math.inf
    if not (math.isfinite(iso) and math.isfinite(dev)):
        raise NumericalError(f"dipole matrix of the {kind} with la = {defect.l_a:g} overflows")
    zero = defect.mu_star == 1.0 if kind == "elastic_ellipse" else kind == "soft_line" and defect.kappa == 0.0
    if size < sys.float_info.min and not zero:  # 0 or subnormal, but mu_star = 1 or kappa = 0 make 0 at any size
        raise NumericalError(f"dipole matrix of the {kind} with la = {defect.l_a:g} underflows")
    return iso, dev


def _mod_pi(alpha: float) -> float:
    """alpha in [0, pi); alpha % pi rounds to pi itself for a tiny negative angle."""
    alpha %= math.pi
    return 0.0 if alpha == math.pi else alpha


def _double_angle(alpha: float) -> tuple[float, float]:
    """(cos 2 alpha, sin 2 alpha) of alpha in [0, pi), as a Defect holds it."""
    alpha = 2.0 * _mod_pi(alpha)
    return math.cos(alpha), math.sin(alpha)


def _entries(iso: float, dev: float, alpha: float) -> tuple[float, float, float]:
    """Entries (m11, m12, m22) of m_iso I + m_dev R(2 alpha)."""
    c2, s2 = _double_angle(alpha)
    return iso + dev * c2, dev * s2, iso - dev * c2


def dipole_matrix(defect: Defect) -> DipoleMatrix:
    """Closed-form dipole matrix m_iso I + m_dev R(2 alpha) of any
    supported defect kind, R(t) = [[cos t, sin t], [sin t, -cos t]].

    Soft defects give negative semi-definite matrices, stiff ones
    positive semi-definite.  A matrix beyond the float range is
    NumericalError.
    """
    return DipoleMatrix(*_entries(*_dipole_parts(defect), defect.alpha))
