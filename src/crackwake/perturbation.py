"""Stress-intensity-factor perturbations produced by small defects.

The closed form contracts the background displacement gradient with the
dipole matrix m_iso I + m_dev R(2 alpha) and the tip weight vector, as
dK = a + b cos 2alpha + c sin 2alpha with (a, b, c) set by the position.
The quadrature route integrates the defect's effective tractions against
the (-x1)^(-1/2) weight-function kernel, an independent oracle for the
closed form.  Multi-defect results are plain sums (dilute defects).
"""

from __future__ import annotations

import math

from .defects import Defect, _dipole_parts, _double_angle, dipole_matrix
from .errors import InvalidDefect, Record
from .loading import Bimaterial, Loading
from .tipfields import SQRT_2_OVER_PI, FieldPoint, _check_face, _grad, _phi_trig, grad_u0


def tip_weight_vector(d: float, phi: float) -> tuple[float, float]:
    """Weight vector of the tip: magnitude 1/(2 d^(3/2)), direction
    (-sin(3 phi/2), cos(3 phi/2))."""
    f = 0.5 / d**1.5
    return -f * math.sin(1.5 * phi), f * math.cos(1.5 * phi)


class EffectiveTraction(Record):
    """Crack-line tractions induced by one defect's dipole field:
    <sigma>(x1) = -(mu_sum/2) w(x1) and [sigma](x1) = -mu_dif w(x1), with
    w = _dwdx2 the x2-derivative of the dipole field on the crack line.
    Both decay like x1^(-2) far from the defect, and the jump vanishes for
    identical half-planes.
    """

    u1: float  # dipole matrix applied to the gradient at the center
    u2: float
    yx: float  # defect center in tip coordinates
    yy: float
    mu_sum: float
    mu_dif: float

    def _dwdx2(self, x1):
        dx = x1 - self.yx
        rho2 = dx * dx + self.yy * self.yy
        v1 = -self.yy * dx / (math.pi * rho2 * rho2)
        v2 = -1.0 / (2.0 * math.pi * rho2) + self.yy * self.yy / (math.pi * rho2 * rho2)
        return self.u1 * v1 + self.u2 * v2

    def weighted(self, x1, eta: float):
        """<sigma> + (eta/2)[sigma], the combination the tip kernel sees."""
        return -(0.5 * self.mu_sum + 0.5 * eta * self.mu_dif) * self._dwdx2(x1)


def effective_tractions(
    defect: Defect, grad_at_center: tuple[float, float], bimaterial: Bimaterial
) -> EffectiveTraction:
    """Effective tractions along x2 = 0 from the defect's dipole field."""
    m = dipole_matrix(defect)
    u1, u2 = m.apply(*grad_at_center)
    return EffectiveTraction(
        u1=u1,
        u2=u2,
        yx=defect.x,
        yy=defect.y,
        mu_sum=bimaterial.mu_sum,
        mu_dif=bimaterial.mu_plus - bimaterial.mu_minus,
    )


def _dk_harmonics(grad, weights, iso: float, dev: float, mu_series: float) -> tuple[float, float, float]:
    """(a, b, c) of dK = a + b cos 2alpha + c sin 2alpha = s g . M w, with
    M = m_iso I + m_dev R(2 alpha), s = -sqrt(2/pi) mu_series, g = grad,
    w = weights (tip_weight_vector) and (m_iso, m_dev) = (iso, dev)."""
    g1, g2 = grad
    w1, w2 = weights
    s = -SQRT_2_OVER_PI * mu_series
    return s * iso * (g1 * w1 + g2 * w2), s * dev * (g1 * w1 - g2 * w2), s * dev * (g1 * w2 + g2 * w1)


def _delta_k_at(points, table, bimaterial: Bimaterial, d: float, phi: float, iso, dev, c2, s2) -> float:
    """Closed-form dK of a defect at (d, phi) with dipole parts (iso, dev)
    and (c2, s2) = _double_angle(alpha), under stations and a table."""
    grad = _grad(points, table, bimaterial, d, phi, _phi_trig(phi))
    a, b, c = _dk_harmonics(grad, tip_weight_vector(d, phi), iso, dev, bimaterial.mu_series)
    return a + b * c2 + c * s2


def delta_k_defect(defect: Defect, loading: Loading, bimaterial: Bimaterial) -> float:
    """Closed-form SIF perturbation of one defect."""
    points, table = loading.split
    _check_face(points, table, defect.d, defect.phi)
    return _delta_k_at(points, table, bimaterial, defect.d, defect.phi, *_dipole_parts(defect),
                       *_double_angle(defect.alpha))


def delta_k_defect_quadrature(
    defect: Defect, loading: Loading, bimaterial: Bimaterial, rtol: float = 1e-9
) -> float:
    """SIF perturbation by weight-function quadrature of the effective
    tractions; independent oracle for delta_k_defect.

    The kernel integral over x1 < 0 runs on the substituted axis
    t = sqrt(-x1), which removes the endpoint singularity.
    """
    from ._quad import adaptive_quad

    grad = grad_u0(loading, bimaterial, FieldPoint(defect.d, defect.phi))
    eff = effective_tractions(defect, grad, bimaterial)
    eta = bimaterial.contrast

    def integrand(ts):
        return [eff.weighted(-t * t, eta) for t in ts]

    # natural magnitude of the integral, for the absolute error floor
    m = dipole_matrix(defect)
    norm = (abs(grad[0]) + abs(grad[1])) * max(
        abs(m.m11) + abs(m.m12), abs(m.m12) + abs(m.m22)
    )
    atol = 1e-15 * (norm / defect.d**1.5 + 1e-280)

    split = 8.0 * max(1.0, math.sqrt(defect.d))
    pts = [math.sqrt(defect.d)]
    if eff.yx < 0.0:
        pts.append(math.sqrt(-eff.yx))
    head = adaptive_quad(integrand, 0.0, split, rtol=rtol, atol=atol, points=pts)
    tail = adaptive_quad(integrand, split, math.inf, rtol=rtol, atol=atol)
    return -SQRT_2_OVER_PI * 2.0 * (head + tail)


def _opposite_mu(phi: float, bimaterial: Bimaterial) -> float:
    """Modulus of the half-plane opposite a point at angle phi."""
    return bimaterial.mu_minus if phi >= 0.0 else bimaterial.mu_plus


def delta_k_remote(defect: Defect, bimaterial: Bimaterial) -> float:
    """Remote-loading limit of delta_k/K0 (dimensionless ratio).

    Valid when the load support is far from both tip and defect; the
    ratio then depends on the defect geometry only.  It is the dipole
    contraction against the leading K-field gradient,
    -mu_op/(2 pi mu_sum d^2) (m_iso cos(phi) - m_dev cos(2 phi - 2 alpha)).
    """
    iso, dev = _dipole_parts(defect)
    phi, alpha = defect.phi, defect.alpha
    # the cc/ss form keeps one bracket exactly zero for the line kinds
    ss = math.sin(1.5 * phi - alpha) * math.sin(0.5 * phi - alpha)
    cc = math.cos(1.5 * phi - alpha) * math.cos(0.5 * phi - alpha)
    pref = -_opposite_mu(phi, bimaterial) / (2.0 * math.pi * bimaterial.mu_sum * defect.d**2)
    return pref * ((iso - dev) * cc + (iso + dev) * ss)


def neutral_pair_a(microcrack: Defect, d2: float | None = None) -> Defect:
    """Rigid-line companion in the same half-plane that cancels the
    microcrack's remote-limit perturbation: equal l/d, equal phi,
    orientation rotated by pi/2.  Defaults to twice the distance."""
    if microcrack.kind != "microcrack":
        raise InvalidDefect(f"companion construction needs a microcrack, got {microcrack.kind!r}")
    if d2 is None:
        d2 = 2.0 * microcrack.d
    return Defect(
        kind="rigid_line",
        d=d2,
        phi=microcrack.phi,
        alpha=microcrack.alpha - 0.5 * math.pi,
        l_a=microcrack.l_a * d2 / microcrack.d,
    )


def neutral_pair_b(microcrack: Defect, bimaterial: Bimaterial, d2: float | None = None) -> Defect:
    """Rigid-line companion mirrored into the other half-plane, sized by
    the opposite-modulus balance mu_op1 l1^2/d1^2 = mu_op2 l2^2/d2^2.

    With the default d2 = d1 the pair is neutral under any symmetric
    loading at any finite distance, not only in the remote limit.
    """
    if microcrack.kind != "microcrack":
        raise InvalidDefect(f"companion construction needs a microcrack, got {microcrack.kind!r}")
    if d2 is None:
        d2 = microcrack.d
    phi2 = -microcrack.phi
    mu_ratio = _opposite_mu(microcrack.phi, bimaterial) / _opposite_mu(phi2, bimaterial)
    l2 = microcrack.l_a * (d2 / microcrack.d) * math.sqrt(mu_ratio)
    return Defect(
        kind="rigid_line",
        d=d2,
        phi=phi2,
        alpha=0.5 * math.pi - microcrack.alpha,
        l_a=l2,
    )
