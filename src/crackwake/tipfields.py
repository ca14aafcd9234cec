"""Unperturbed interfacial-crack fields: tip coefficients, displacement
gradient at interior points, and the displacement itself (test oracle).

All operations are linear in the loading.  Point forces enter through
delta sifting of the kernels; tabulated loads go through adaptive
quadrature with the endpoint singularity removed by t = sqrt(-x1/d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._quad import adaptive_quad
from .errors import ContourTruncationFailure, OnCrackFaceUnderLoad, ValidationError
from .loading import Bimaterial, DistributedLoad, Loading, decompose

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Inversion contour abscissa for the displacement transform; any value
# in (0, 0.5) is admissible, mid-strip maximizes decay on both sides.
MELLIN_OMEGA = 0.25

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


@dataclass(frozen=True)
class FieldPoint:
    """Polar evaluation point (d, phi) relative to the crack tip.

    phi > 0 is the upper half-plane; |phi| -> pi approaches the faces.
    """

    d: float
    phi: float

    def __post_init__(self):
        if not self.d > 0.0:
            raise ValidationError(f"field point needs d > 0, got {self.d}")
        if not abs(self.phi) <= math.pi:
            raise ValidationError(f"field point needs |phi| <= pi, got {self.phi}")

    @property
    def x(self) -> float:
        return self.d * math.cos(self.phi)

    @property
    def y(self) -> float:
        return self.d * math.sin(self.phi)


@dataclass(frozen=True)
class TipFieldCoefficients:
    """Leading (r^-1/2) and second-order (r^1/2) traction coefficients."""

    k3: float
    a3: float


def _station_kernel_sum(stations, eta: float, power: float) -> float:
    """Sum of (avg + eta/2 jump) * (-x1)^power over point-force stations."""
    total = 0.0
    for s in stations:
        total += (s.avg + 0.5 * eta * s.jump) * (-s.x1) ** power
    return total


def _distributed_kernel_int(dist: DistributedLoad, eta: float, power: float, rtol: float) -> float:
    lo, hi = dist.support

    def integrand(x1):
        return (dist.avg_at(x1) + 0.5 * eta * dist.jump_at(x1)) * (-x1) ** power

    return adaptive_quad(integrand, lo, hi, rtol=rtol, points=dist.x)


def sif_k0(loading: Loading, bimaterial: Bimaterial, rtol: float = 1e-10) -> float:
    """Stress intensity factor of the unperturbed crack.

    K0 = -sqrt(2/pi) * integral of {<p> + (eta/2)[p]}(-r) r^(-1/2) dr;
    positive for crack-opening loads (negative <p> in this convention).
    """
    eta = bimaterial.contrast
    dec = decompose(loading)
    total = _station_kernel_sum(dec.stations, eta, -0.5)
    if dec.distributed is not None:
        total += _distributed_kernel_int(dec.distributed, eta, -0.5, rtol)
    return -SQRT_2_OVER_PI * total


def coeff_a0(loading: Loading, bimaterial: Bimaterial, rtol: float = 1e-10) -> float:
    """Second-order tip coefficient, same kernel as sif_k0 with r^(-3/2)
    and opposite overall sign; controls the tip-advance sensitivity."""
    eta = bimaterial.contrast
    dec = decompose(loading)
    total = _station_kernel_sum(dec.stations, eta, -1.5)
    if dec.distributed is not None:
        total += _distributed_kernel_int(dec.distributed, eta, -1.5, rtol)
    return SQRT_2_OVER_PI * total


def tip_coefficients(loading: Loading, bimaterial: Bimaterial, rtol: float = 1e-10) -> TipFieldCoefficients:
    return TipFieldCoefficients(
        k3=sif_k0(loading, bimaterial, rtol),
        a3=coeff_a0(loading, bimaterial, rtol),
    )


def _phi_trig(phi: float) -> tuple[float, float, float, float, float, float]:
    """Angular factors of the gradient kernel and the tip weight vector:
    (cos phi, sin phi, sin phi/2, cos phi/2, sin 3phi/2, cos 3phi/2)."""
    return (
        math.cos(phi),
        math.sin(phi),
        math.sin(0.5 * phi),
        math.cos(0.5 * phi),
        math.sin(1.5 * phi),
        math.cos(1.5 * phi),
    )


def _grad_station_sum(stations, d: float, trig, mu_b, mu_sum: float, eta: float):
    """Delta-sifted displacement gradient at (d, phi) from point stations.

    stations iterates (x1, avg, jump) triples; trig is _phi_trig(phi) and
    mu_b the shear modulus of the half-plane containing the point.  The
    trig entries and mu_b may be floats or numpy arrays of one shape (one
    entry per angle, all at distance d); the arithmetic is the same
    elementwise, so both give bit-identical values.
    """
    cphi, sphi, shalf, chalf, s3half, c3half = trig
    sphi2 = sphi * sphi
    g1 = 0.0
    g2 = 0.0
    for x1, avg, jump in stations:
        q = -x1 / d
        sq = math.sqrt(q)
        den = 2.0 * cphi + q + 1.0 / q
        qm = q - 1.0 / q
        coef = (2.0 * avg + eta * jump) / (2.0 * mu_b)
        g1 += (jump * (sphi2 - 0.5 * cphi * qm) / mu_sum + coef * (sq * shalf + s3half / sq)) / den
        g2 -= (jump * sphi * (cphi + 0.5 * qm) / mu_sum + coef * (sq * chalf + c3half / sq)) / den
    scale = 1.0 / (math.pi * d)
    return g1 * scale, g2 * scale


def _grad_distributed(dist: DistributedLoad, d, trig, mu_b, mu_sum, eta, rtol):
    """Quadrature part of the gradient, on the substituted axis t = sqrt(-x1/d)."""
    cphi, sphi, shalf, chalf, s3half, c3half = trig
    sphi2 = sphi * sphi
    lo, hi = dist.support
    t_lo = math.sqrt(-hi / d)
    t_hi = math.sqrt(-lo / d)
    # breakpoints at the table knots plus the near-face pinch at x1 = -d
    pts = sorted(math.sqrt(-x / d) for x in dist.x[1:-1])
    pts.append(1.0)

    def g1_int(t):
        x1 = -d * t * t
        den = 2.0 * cphi + t * t + 1.0 / (t * t)
        qm = t * t - 1.0 / (t * t)
        coef = (2.0 * dist.avg_at(x1) + eta * dist.jump_at(x1)) / (2.0 * mu_b)
        return (2.0 * t / (math.pi * den)) * (
            dist.jump_at(x1) * (sphi2 - 0.5 * cphi * qm) / mu_sum
            + coef * (t * shalf + s3half / t)
        )

    def g2_int(t):
        x1 = -d * t * t
        den = 2.0 * cphi + t * t + 1.0 / (t * t)
        qm = t * t - 1.0 / (t * t)
        coef = (2.0 * dist.avg_at(x1) + eta * dist.jump_at(x1)) / (2.0 * mu_b)
        return -(2.0 * t / (math.pi * den)) * (
            dist.jump_at(x1) * sphi * (cphi + 0.5 * qm) / mu_sum
            + coef * (t * chalf + c3half / t)
        )

    g1 = adaptive_quad(g1_int, t_lo, t_hi, rtol=rtol, points=pts)
    g2 = adaptive_quad(g2_int, t_lo, t_hi, rtol=rtol, points=pts)
    return g1, g2


def _check_face(dec, d: float, phi: float) -> None:
    """Raise OnCrackFaceUnderLoad for a point on a loaded part of the faces."""
    if abs(phi) < math.pi - 1e-9:
        return
    for s in dec.stations:
        if abs(-d - s.x1) <= 1e-12 * d and (s.avg != 0.0 or s.jump != 0.0):
            raise OnCrackFaceUnderLoad(
                f"point (d={d:g}, phi={phi:g}) sits on the loaded station x1={s.x1:g}"
            )
    dist = dec.distributed
    if dist is not None and dist.support[0] <= -d <= dist.support[1]:
        if abs(dist.avg_at(-d)) > 0.0 or abs(dist.jump_at(-d)) > 0.0:
            raise OnCrackFaceUnderLoad(
                f"point (d={d:g}, phi={phi:g}) sits inside the loaded support"
            )


def _grad(dec, bimaterial: Bimaterial, d: float, phi: float, trig, rtol: float):
    """grad_u0 on a decomposed loading, with the angular factors given."""
    mu_b = bimaterial.mu_plus if phi >= 0.0 else bimaterial.mu_minus
    mu_sum = bimaterial.mu_sum
    eta = bimaterial.contrast
    _check_face(dec, d, phi)
    g1, g2 = _grad_station_sum(
        ((s.x1, s.avg, s.jump) for s in dec.stations), d, trig, mu_b, mu_sum, eta
    )
    if dec.distributed is not None:
        q1, q2 = _grad_distributed(dec.distributed, d, trig, mu_b, mu_sum, eta, rtol)
        g1 += q1
        g2 += q2
    return g1, g2


def grad_u0(loading: Loading, bimaterial: Bimaterial, point: FieldPoint, rtol: float = 1e-10):
    """Displacement gradient (du/dx1, du/dx2) of the unperturbed field.

    Uses the upper-material branch for phi >= 0 and the lower one for
    phi < 0; on the interface (phi = 0) du/dx2 carries the upper-side
    limit, which differs from the lower one by mu_minus/mu_plus.
    """
    return _grad(decompose(loading), bimaterial, point.d, point.phi, _phi_trig(point.phi), rtol)


def _sin_over_cospi(omega: float, t: float, theta: float) -> complex:
    """sin(s*theta)/cos(pi*s) at s = omega + i*t, overflow-safe for large |t|."""
    u = t * theta
    v = math.pi * t
    eu = math.exp(-2.0 * abs(u))
    ev = math.exp(-2.0 * abs(v))
    num = math.sin(omega * theta) * (1.0 + eu) + 1j * math.copysign(1.0, u) * math.cos(omega * theta) * (1.0 - eu)
    den = math.cos(math.pi * omega) * (1.0 + ev) - 1j * math.copysign(1.0, v) * math.sin(math.pi * omega) * (1.0 - ev)
    return math.exp(abs(u) - abs(v)) * num / den


def _cos_over_sinpi(omega: float, t: float, theta: float) -> complex:
    """cos(s*theta)/sin(pi*s) at s = omega + i*t, overflow-safe for large |t|."""
    u = t * theta
    v = math.pi * t
    eu = math.exp(-2.0 * abs(u))
    ev = math.exp(-2.0 * abs(v))
    num = math.cos(omega * theta) * (1.0 + eu) - 1j * math.copysign(1.0, u) * math.sin(omega * theta) * (1.0 - eu)
    den = math.sin(math.pi * omega) * (1.0 + ev) + 1j * math.copysign(1.0, v) * math.cos(math.pi * omega) * (1.0 - ev)
    return math.exp(abs(u) - abs(v)) * num / den


def _mellin_tables(dec):
    """Station logs plus Gauss-Legendre nodes for the transformed loading."""
    logs = [(math.log(-s.x1), s.avg, s.jump) for s in dec.stations]
    gl = None
    if dec.distributed is not None:
        dist = dec.distributed
        nodes, weights, avg_v, jump_v = [], [], [], []
        for a, b in zip(dist.x[:-1], dist.x[1:]):
            mid = 0.5 * (a + b)
            half = 0.5 * (b - a)
            xk = mid + half * _GL_NODES
            nodes.append(xk)
            weights.append(half * _GL_WEIGHTS)
            avg_v.append(dist.avg_at(xk))
            jump_v.append(dist.jump_at(xk))
        gl = (
            np.log(-np.concatenate(nodes)),
            np.concatenate(weights),
            np.concatenate(avg_v),
            np.concatenate(jump_v),
        )
    return logs, gl


def displacement_u0(
    loading: Loading,
    bimaterial: Bimaterial,
    r: float,
    theta: float,
    rtol: float = 1e-8,
) -> float:
    """Out-of-plane displacement of the unperturbed crack at (r, theta).

    Numerical inversion of the angular transform along Re(s) = 0.25:
    the truncation bound doubles until a further doubling changes the
    result by less than rtol relative.  Intended as a test oracle for
    grad_u0, not as part of the perturbation pipeline.
    """
    if not r > 0.0:
        raise ValidationError(f"radius must be positive, got {r}")
    if not abs(theta) < math.pi:
        raise ValidationError(f"displacement needs |theta| < pi, got {theta}")
    mu_b = bimaterial.mu_plus if theta >= 0.0 else bimaterial.mu_minus
    mu_sum = bimaterial.mu_sum
    mu_dif = bimaterial.mu_plus - bimaterial.mu_minus
    omega = MELLIN_OMEGA
    dec = decompose(loading)
    logs, gl = _mellin_tables(dec)
    log_r = math.log(r)

    def integrand(t: float) -> float:
        s = complex(omega, t)
        avg_t = 0.0 + 0.0j
        jump_t = 0.0 + 0.0j
        for la, avg, jump in logs:
            w = np.exp(s * la)
            avg_t += avg * w
            jump_t += jump * w
        if gl is not None:
            log_x, wts, avg_v, jump_v = gl
            w = wts * np.exp(s * log_x)
            avg_t += complex(np.sum(avg_v * w))
            jump_t += complex(np.sum(jump_v * w))
        s2c = _sin_over_cospi(omega, t, theta)
        c2s = _cos_over_sinpi(omega, t, theta)
        u_t = (
            -s2c * avg_t / mu_b
            + (c2s / mu_sum + mu_dif * s2c / (2.0 * mu_b * mu_sum)) * jump_t
        ) / s
        return (u_t * complex(math.exp(-omega * log_r), 0.0)
                * complex(math.cos(t * log_r), -math.sin(t * log_r))).real

    # Decay rate of the transform ratios is pi - |theta|; cap the segment
    # so slow-decay (near-face) cases fail by truncation, not inside quad
    seg = min(max(8.0, 16.0 / max(math.pi - abs(theta), 0.05)), 1024.0)
    total = adaptive_quad(integrand, 0.0, seg, rtol=1e-11, atol=1e-300)
    upper = seg
    scale = abs(total)
    while upper < 1e6:
        inc = adaptive_quad(
            integrand, upper, 2.0 * upper, rtol=1e-9, atol=1e-13 * max(scale, 1e-30)
        )
        total += inc
        upper *= 2.0
        scale = max(scale, abs(total))
        if abs(inc) <= rtol * abs(total):
            return total / math.pi
    raise ContourTruncationFailure(
        f"transform truncation at |Im s| = {upper:g} did not settle (r={r:g}, theta={theta:g})"
    )
