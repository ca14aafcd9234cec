"""Independent oracles for the closed forms, kept off the CLI import path.

displacement_u0 inverts the angular transform of the loading: the
displacement whose gradient grad_u0 gives in closed form.
delta_k_defect_quadrature integrates a defect's effective crack-line
tractions against the (-x1)^(-1/2) weight-function kernel: the dK that
delta_k_defect gives in closed form.  Those tractions stay internal: the
kernel sees only <sigma> + (eta/2)[sigma] = -2 mu_series w, with w from
_crack_line_field on plain floats.  Both oracles integrate adaptively with
the rule in _quad; only the displacement integrand uses numpy arrays.  Of
the CLI commands only `perturb` loads this module.
"""

from __future__ import annotations

import math

from .defects import Defect, DipoleMatrix, dipole_matrix
from .errors import ContourTruncationFailure, ValidationError
from .loading import Bimaterial, Loading
from .tipfields import SQRT_2_OVER_PI, FieldPoint, grad_u0

# Inversion contour abscissa for the displacement transform; any value
# in (0, 0.5) is admissible, mid-strip maximizes decay on both sides.
MELLIN_OMEGA = 0.25


def _angular_ratios(omega: float, t, theta: float):
    """sin(s*theta)/cos(pi*s) and cos(s*theta)/sin(pi*s) at s = omega + i*t
    for an array t, overflow-safe for large |t|."""
    import numpy as np

    u = t * theta
    v = math.pi * t
    au, av = np.abs(u), np.abs(v)
    eu = np.exp(-2.0 * au)
    ev = np.exp(-2.0 * av)
    isu, isv = 1j * np.copysign(1.0, u), 1j * np.copysign(1.0, v)
    sin_w, cos_w = math.sin(omega * theta), math.cos(omega * theta)
    sin_p, cos_p = math.sin(math.pi * omega), math.cos(math.pi * omega)
    f = np.exp(au - av)
    pu, mu, pv, mv = 1.0 + eu, 1.0 - eu, 1.0 + ev, 1.0 - ev
    return (
        f * (sin_w * pu + isu * cos_w * mu) / (cos_p * pv - isv * sin_p * mv),
        f * (cos_w * pu - isu * sin_w * mu) / (sin_p * pv + isv * cos_p * mv),
    )


def _mellin_transform(stations, table):
    """The transform s -> sum and integral of (avg, jump)(x1) (-x1)^s of
    point stations (x1, avg, jump) and a table (x, avg, jump) or None, for
    an array s; returns shape (len(s), 2).

    Stations enter as (-x1)^s.  A table panel [yb, ya] on y = -x1, with
    L = log(ya/yb) and c = s + 1, enters exactly: its near-end value
    times yb^c expm1(cL)/c, plus its rise times the transform of the hat
    (y - yb)/(ya - yb), yb^c (c e^(cL) expm1(L) - expm1(cL)) / (c (c+1) expm1(L)).
    No node rule aliases at large |Im s|, and expm1 keeps narrow panels
    from cancelling.
    """
    import numpy as np

    log_y = np.log([-x1 for x1, _, _ in stations])
    loads = np.array([(avg, jump) for _, avg, jump in stations]).reshape(-1, 2)
    if table is not None:
        x, avg, jump = table
        y = -np.asarray(x)
        p = np.column_stack((avg, jump))
        near, rise = p[1:], p[:-1] - p[1:]
        log_yb = np.log(y[1:])
        em1 = (y[:-1] - y[1:]) / y[1:]  # expm1(L)
        log_ratio = np.log1p(em1)

    def transform(s):
        out = np.exp(np.outer(s, log_y)) @ loads
        if table is not None:
            c = (s + 1.0)[:, None]
            eb = np.exp(c * log_yb)
            e1 = np.expm1(c * log_ratio)
            out += (eb * e1 / c) @ near
            out += (eb * (c * (e1 + 1.0) * em1 - e1) / (c * (c + 1.0) * em1)) @ rise
        return out

    return transform


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
    if not 0.0 < r < math.inf:
        raise ValidationError(f"radius must be positive and finite, got {r}")
    if not abs(theta) < math.pi:
        raise ValidationError(f"displacement needs |theta| < pi, got {theta}")
    import numpy as np

    from ._quad import adaptive_quad

    mu_b = bimaterial.mu_plus if theta >= 0.0 else bimaterial.mu_minus
    mu_sum = bimaterial.mu_sum
    mu_dif = bimaterial.mu_plus - bimaterial.mu_minus
    omega = MELLIN_OMEGA
    transform = _mellin_transform(*loading.split)
    log_r = math.log(r)

    def integrand(t):
        t = np.array(t)
        s = omega + 1j * t
        avg_t, jump_t = transform(s).T
        s2c, c2s = _angular_ratios(omega, t, theta)
        u_t = (
            -s2c * avg_t / mu_b
            + (c2s / mu_sum + mu_dif * s2c / (2.0 * mu_b * mu_sum)) * jump_t
        ) / s
        return (u_t * np.exp(-s * log_r)).real.tolist()

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


def _crack_line_field(defect: Defect, m: DipoleMatrix, grad: tuple[float, float]):
    """w(x1s): the x2-derivative on the crack line x2 = 0 of the field of
    the dipole m grad at the defect's center, at each station of x1s.

    The defect's effective crack-line tractions are <sigma> = -(mu_sum/2) w
    and [sigma] = -(mu_plus - mu_minus) w; both decay like x1^(-2).
    """
    g1, g2 = grad
    u1, u2 = m.m11 * g1 + m.m12 * g2, m.m12 * g1 + m.m22 * g2
    yx, yy = defect.x, defect.y

    def w(x1s):
        out = []
        for x1 in x1s:
            dx = x1 - yx
            rho2 = dx * dx + yy * yy
            v1 = -yy * dx / (math.pi * rho2 * rho2)
            v2 = -1.0 / (2.0 * math.pi * rho2) + yy * yy / (math.pi * rho2 * rho2)
            out.append(u1 * v1 + u2 * v2)
        return out

    return w


def delta_k_defect_quadrature(defect: Defect, loading: Loading, bimaterial: Bimaterial) -> float:
    """SIF perturbation by weight-function quadrature of the effective
    tractions; independent oracle for delta_k_defect.

    The tip kernel sees <sigma> + (eta/2)[sigma] = -2 mu_series w, which
    has no difference of moduli to cancel at high contrast.  The kernel
    integral over x1 < 0 runs on the substituted axis t = sqrt(-x1),
    which removes the endpoint singularity.
    """
    from ._quad import adaptive_quad

    grad = grad_u0(loading, bimaterial, FieldPoint(defect.d, defect.phi))
    m = dipole_matrix(defect)
    w = _crack_line_field(defect, m, grad)
    scale = -2.0 * bimaterial.mu_series

    def integrand(ts):
        return [scale * v for v in w([-t * t for t in ts])]

    # natural magnitude of the integral, modulus factor included, for the absolute error floor
    norm = (abs(grad[0]) + abs(grad[1])) * max(
        abs(m.m11) + abs(m.m12), abs(m.m12) + abs(m.m22)
    )
    atol = 1e-15 * abs(scale) * (norm / defect.d**1.5 + 1e-280)

    split = 8.0 * max(1.0, math.sqrt(defect.d))
    pts = [math.sqrt(defect.d)]
    if defect.x < 0.0:
        pts.append(math.sqrt(-defect.x))
    head = adaptive_quad(integrand, 0.0, split, rtol=1e-9, atol=atol, points=pts)
    tail = adaptive_quad(integrand, split, math.inf, rtol=1e-9, atol=atol)
    return -SQRT_2_OVER_PI * 2.0 * (head + tail)
