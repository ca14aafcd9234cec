"""Stress-intensity-factor perturbations produced by small defects.

The closed form contracts the background displacement gradient with the
dipole matrix m_iso I + m_dev R(2 alpha) and the tip weight vector, as
dK = a + b cos 2alpha + c sin 2alpha with (a, b, c) set by the position.
Its independent oracle, the weight-function quadrature of the defect's
effective tractions, is oracles.delta_k_defect_quadrature.  Multi-defect
results are plain sums (dilute defects).
"""

from __future__ import annotations

import math
import sys

from .defects import Defect, _dipole_parts, _double_angle
from .errors import InvalidDefect, NumericalError
from .loading import Bimaterial, Loading
from .tipfields import SQRT_2_OVER_PI, _check_face, _finite, _gradients


def tip_weight_vector(d: float, phi: float) -> tuple[float, float]:
    """Weight vector of the tip: magnitude 1/(2 d^(3/2)), direction
    (-sin(3 phi/2), cos(3 phi/2)); NumericalError unless d^(3/2) is a
    normal float."""
    try:
        d15 = d**1.5
    except OverflowError:
        d15 = math.inf
    if not sys.float_info.min <= d15 < math.inf:
        raise NumericalError(f"d^(3/2) = {d15:g} at d = {d:g} leaves the float range")
    f = 0.5 / d15
    return -f * math.sin(1.5 * phi), f * math.cos(1.5 * phi)


def _dk_harmonics(grad, weights, iso: float, dev: float, mu_series: float) -> tuple[float, float, float]:
    """(a, b, c) of dK = a + b cos 2alpha + c sin 2alpha = s g . M w, with
    M = m_iso I + m_dev R(2 alpha), s = -sqrt(2/pi) mu_series, g = grad,
    w = weights (tip_weight_vector) and (m_iso, m_dev) = (iso, dev)."""
    g1, g2 = grad
    w1, w2 = weights
    s = -SQRT_2_OVER_PI * mu_series
    return s * iso * (g1 * w1 + g2 * w2), s * dev * (g1 * w1 - g2 * w2), s * dev * (g1 * w2 + g2 * w1)


def _harmonics(points, table, bimaterial: Bimaterial, d: float, phis, iso: float, dev: float) -> list:
    """_dk_harmonics (a, b, c) of a defect at distance d with dipole parts
    (iso, dev) under stations and a table, one triple per angle of phis."""
    rows = []
    for phi, grad in zip(phis, _gradients(points, table, bimaterial, d, phis)):
        rows.append(_dk_harmonics(grad, tip_weight_vector(d, phi), iso, dev, bimaterial.mu_series))
    return rows


def delta_k_defect(defect: Defect, loading: Loading, bimaterial: Bimaterial) -> float:
    """Closed-form SIF perturbation of one defect; NumericalError unless finite."""
    points, table = loading.split
    _check_face(points, table, defect.d, defect.phi)
    (a, b, c), = _harmonics(points, table, bimaterial, defect.d, [defect.phi], *_dipole_parts(defect))
    c2, s2 = _double_angle(defect.alpha)
    return _finite("dK", a + b * c2 + c * s2)


def _opposite_mu(phi: float, bimaterial: Bimaterial) -> float:
    """Modulus of the half-plane opposite a point at angle phi."""
    return bimaterial.mu_minus if phi >= 0.0 else bimaterial.mu_plus


def delta_k_remote(defect: Defect, bimaterial: Bimaterial) -> float:
    """Remote-loading limit of delta_k/K0 (dimensionless ratio).

    Valid when the load support is far from both tip and defect; the
    ratio then depends on the defect geometry only.  It is the dipole
    contraction against the leading K-field gradient,
    -mu_op/(2 pi mu_sum d^2) (m_iso cos(phi) - m_dev cos(2 phi - 2 alpha)).
    NumericalError unless 2 pi mu_sum d^2 is a normal float and the ratio
    is finite.
    """
    iso, dev = _dipole_parts(defect)
    phi, alpha = defect.phi, defect.alpha
    # the cc/ss form keeps one bracket exactly zero for the line kinds
    ss = math.sin(1.5 * phi - alpha) * math.sin(0.5 * phi - alpha)
    cc = math.cos(1.5 * phi - alpha) * math.cos(0.5 * phi - alpha)
    try:
        den = 2.0 * math.pi * bimaterial.mu_sum * defect.d**2
    except OverflowError:
        den = math.inf
    if not sys.float_info.min <= den < math.inf:
        raise NumericalError(f"2 pi mu_sum d^2 = {den:g} at d = {defect.d:g} leaves the float range")
    pref = -_opposite_mu(phi, bimaterial) / den
    return _finite("dK/K0", pref * ((iso - dev) * cc + (iso + dev) * ss))


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
