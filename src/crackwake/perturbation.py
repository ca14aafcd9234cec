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
from .errors import InvalidDefect, NumericalError, ValidationError
from .loading import Bimaterial, Loading
from .tipfields import SQRT_2_OVER_PI, _finite, _gradients


def _scaled_power(name: str, factor: float, d: float, power: float) -> float:
    """factor * d**power; NumericalError, which calls it name, unless it is a normal float."""
    try:
        value = factor * d**power
    except OverflowError:
        value = math.inf
    if not sys.float_info.min <= value < math.inf:
        raise NumericalError(f"{name} = {value:g} at d = {d:g} leaves the float range")
    return value


def tip_weight_vector(d: float, phi: float) -> tuple[float, float]:
    """Weight vector of the tip: magnitude 1/(2 d^(3/2)), direction
    (-sin(3 phi/2), cos(3 phi/2)); ValidationError unless 0 < d < inf and
    phi is finite, NumericalError unless d^(3/2) is a normal float."""
    if not (0.0 < d < math.inf and math.isfinite(phi)):
        raise ValidationError(f"tip weight vector needs finite d > 0 and finite phi, got d = {d}, phi = {phi}")
    f = 0.5 / _scaled_power("d^(3/2)", 1.0, d, 1.5)
    return -f * math.sin(1.5 * phi), f * math.cos(1.5 * phi)


def _dk_harmonics(grad, weights, iso: float, dev: float, mu_series: float) -> tuple[float, float, float]:
    """(a, b, c) of dK = a + b cos 2alpha + c sin 2alpha = s g . M w, with
    M = m_iso I + m_dev R(2 alpha), s = -sqrt(2/pi) mu_series, g = grad,
    w = weights (tip_weight_vector) and (m_iso, m_dev) = (iso, dev)."""
    g1, g2 = grad
    w1, w2 = weights
    s = -SQRT_2_OVER_PI * mu_series
    return s * iso * (g1 * w1 + g2 * w2), s * dev * (g1 * w1 - g2 * w2), s * dev * (g1 * w2 + g2 * w1)


def _harmonics(points, table, bimaterial: Bimaterial, members) -> list:
    """_dk_harmonics (a, b, c) of each member (d, phi, iso, dev), a defect at (d, phi) with dipole
    parts (iso, dev), under stations and a table, from one _gradients call."""
    grads = _gradients(points, table, bimaterial, [(d, phi) for d, phi, _, _ in members])
    return [_dk_harmonics(grad, tip_weight_vector(d, phi), iso, dev, bimaterial.mu_series)
            for (d, phi, iso, dev), grad in zip(members, grads)]


def _defect_dk(points, table, bimaterial: Bimaterial, rows) -> list:
    """dK of each row (d, phi, iso, dev, c2, s2), _harmonics contracted with (c2, s2) = (cos, sin) of 2 alpha,
    for delta_k_defect and each propagation step; NumericalError unless each is finite."""
    harmonics = _harmonics(points, table, bimaterial, [row[:4] for row in rows])
    return [_finite("dK", a + b * c2 + c * s2) for (a, b, c), (_, _, _, _, c2, s2) in zip(harmonics, rows)]


def delta_k_defect(defect: Defect, loading: Loading, bimaterial: Bimaterial) -> float:
    """Closed-form SIF perturbation of one defect; NumericalError unless finite."""
    return _defect_dk(*loading.split, bimaterial,
                      [(defect.d, defect.phi, *_dipole_parts(defect), *_double_angle(defect.alpha))])[0]


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
    den = _scaled_power("2 pi mu_sum d^2", 2.0 * math.pi * bimaterial.mu_sum, defect.d, 2)
    pref = -_opposite_mu(phi, bimaterial) / den
    return _finite("dK/K0", pref * ((iso - dev) * cc + (iso + dev) * ss))


def neutral_pair_a(microcrack: Defect, d2: float | None = None) -> Defect:
    """Rigid-line companion in the same half-plane that cancels the
    microcrack's remote-limit perturbation: equal l/d, equal phi,
    orientation rotated by pi/2.  Defaults to twice the distance."""
    return _companion("a", microcrack, None, d2)


def neutral_pair_b(microcrack: Defect, bimaterial: Bimaterial, d2: float | None = None) -> Defect:
    """Rigid-line companion mirrored into the other half-plane, sized by
    the opposite-modulus balance mu_op1 l1^2/d1^2 = mu_op2 l2^2/d2^2.

    With the default d2 = d1 the pair is neutral under any symmetric
    loading at any finite distance, not only in the remote limit.
    """
    return _companion("b", microcrack, bimaterial, d2)


def _companion_angles(pair: str, phi: float, alpha: float) -> tuple[float, float]:
    """(phi, alpha) of the companion of a microcrack at angle phi with
    orientation alpha, by the arrangement rule pair: "a" keeps phi and
    turns alpha by -pi/2, "b" mirrors phi and takes pi/2 - alpha."""
    if pair == "a":
        return phi, alpha - 0.5 * math.pi
    return -phi, 0.5 * math.pi - alpha


def _companion(pair: str, microcrack: Defect, bimaterial: Bimaterial | None, d2: float | None = None) -> Defect:
    """The microcrack's rigid-line companion at d2 by the arrangement rule
    pair: "a" is neutral_pair_a (d2 = 2 d by default), "b" neutral_pair_b
    (d2 = d by default, sized by the moduli opposite both members)."""
    if microcrack.kind != "microcrack":
        raise InvalidDefect(f"companion construction needs a microcrack, got {microcrack.kind!r}")
    d = microcrack.d
    d2 = (2.0 * d if pair == "a" else d) if d2 is None else d2
    phi2, alpha2 = _companion_angles(pair, microcrack.phi, microcrack.alpha)
    if pair == "a":
        l2 = microcrack.l_a * d2 / d
    else:
        mu_ratio = _opposite_mu(microcrack.phi, bimaterial) / _opposite_mu(phi2, bimaterial)
        l2 = microcrack.l_a * (d2 / d) * math.sqrt(mu_ratio)
    return Defect("rigid_line", d=d2, phi=phi2, alpha=alpha2, l_a=l2)
