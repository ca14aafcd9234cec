"""Unperturbed interfacial-crack fields: tip coefficients, displacement
gradient at interior points, and the displacement itself (test oracle).

All operations are linear in the loading.  Point forces enter through
delta sifting of the kernels.  A tabulated load enters K0 and A0 through
exact moments of its piecewise-linear profile, and the gradient as
weighted point stations at Gauss-Legendre nodes, so one station kernel
serves every loading.  Only the displacement oracle integrates
adaptively, over the exact transform of the loading.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .errors import ContourTruncationFailure, OnCrackFaceUnderLoad, QuadratureFailure, ValidationError
from .loading import Bimaterial, DistributedLoad, Loading, decompose

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)

# Inversion contour abscissa for the displacement transform; any value
# in (0, 0.5) is admissible, mid-strip maximizes decay on both sides.
MELLIN_OMEGA = 0.25

_N_COARSE = 16


@cache
def _gauss_legendre():
    """The n- and 2n-node Gauss-Legendre rules of the table lowering, in one set."""
    return np.hstack([np.polynomial.legendre.leggauss(n) for n in (_N_COARSE, 2 * _N_COARSE)])


@dataclass(frozen=True)
class FieldPoint:
    """Polar evaluation point (d, phi) relative to the crack tip.

    phi > 0 is the upper half-plane; |phi| -> pi approaches the faces.
    """

    d: float
    phi: float

    def __post_init__(self):
        if not 0.0 < self.d < math.inf:
            raise ValidationError(f"field point needs finite d > 0, got {self.d}")
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


def _table_arrays(dist: DistributedLoad | None):
    """A table as float arrays (x, avg, jump); None for no table."""
    return None if dist is None else tuple(np.array(v) for v in (dist.x, dist.avg, dist.jump))


def _table_moments(x, avg, jump, eta: float, powers=(-0.5, -1.5)) -> dict[float, float]:
    """Integrals of {<p> + (eta/2)[p]}(x1) (-x1)^power over a table of
    arrays, by each of the powers among -1/2 and -3/2, exact for the
    piecewise-linear profile.

    On each panel the profile is its end values times two hat functions,
    whose moments are written in s = sqrt(-x1) as products of positive
    terms, so narrow panels lose no digits to cancellation.
    """
    w = avg + 0.5 * eta * jump
    wa, wb = w[:-1], w[1:]
    s = np.sqrt(-x)
    sa, sb = s[:-1], s[1:]  # far and near end of each panel
    ssum = sa + sb
    ds2 = 2.0 * ((x[1:] - x[:-1]) / ssum)  # 2 (sa - sb)
    moment = {
        -0.5: lambda: wa * (ds2 * (sa + 2.0 * sb) / (3.0 * ssum)) + wb * (ds2 * (2.0 * sa + sb) / (3.0 * ssum)),
        -1.5: lambda: wa * (ds2 / (sa * ssum)) + wb * (ds2 / (sb * ssum)),
    }
    return {power: float(moment[power]().sum()) for power in powers}


def _tip_moment(loading: Loading, bimaterial: Bimaterial, power: float) -> float:
    """The same integral over a whole loading; point stations by sifting."""
    eta = bimaterial.contrast
    dec = decompose(loading)
    total = 0.0
    for s in dec.stations:
        total += (s.avg + 0.5 * eta * s.jump) * (-s.x1) ** power
    if dec.distributed is not None:
        total += _table_moments(*_table_arrays(dec.distributed), eta, (power,))[power]
    return total


def sif_k0(loading: Loading, bimaterial: Bimaterial) -> float:
    """Stress intensity factor of the unperturbed crack.

    K0 = -sqrt(2/pi) * integral of {<p> + (eta/2)[p]}(-r) r^(-1/2) dr;
    positive for crack-opening loads (negative <p> in this convention).
    """
    return -SQRT_2_OVER_PI * _tip_moment(loading, bimaterial, -0.5)


def coeff_a0(loading: Loading, bimaterial: Bimaterial) -> float:
    """Second-order tip coefficient, same kernel as sif_k0 with r^(-3/2)
    and opposite overall sign; controls the tip-advance sensitivity."""
    return SQRT_2_OVER_PI * _tip_moment(loading, bimaterial, -1.5)


def tip_coefficients(loading: Loading, bimaterial: Bimaterial) -> TipFieldCoefficients:
    return TipFieldCoefficients(k3=sif_k0(loading, bimaterial), a3=coeff_a0(loading, bimaterial))


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


def _station_terms(q, sq, avg, jump, trig, mu_b, mu_sum: float, eta: float):
    """Summands (t1, t2) of the gradient (sum t1, -sum t2) / (pi d) at
    (d, phi) from stations at x1 = -q d, sq = sqrt(q); trig is
    _phi_trig(phi), mu_b the modulus of the point's half-plane.  Floats
    and broadcasting numpy arrays give bit-identical terms (angles in the
    trig entries, stations on a trailing axis)."""
    cphi, sphi, shalf, chalf, s3half, c3half = trig
    den = 2.0 * cphi + q + 1.0 / q
    qm = q - 1.0 / q
    coef = (2.0 * avg + eta * jump) / (2.0 * mu_b)
    t1 = (jump * (sphi * sphi - 0.5 * cphi * qm) / mu_sum + coef * (sq * shalf + s3half / sq)) / den
    t2 = (jump * sphi * (cphi + 0.5 * qm) / mu_sum + coef * (sq * chalf + c3half / sq)) / den
    return t1, t2


def _lower_table(x, avg, jump, d: float, gap: float):
    """Weighted point stations (x1, w avg, w jump) standing for the table
    (x, avg, jump) in the gradient at distance d: arrays of the 16-node
    rule's stations, then the 32-node rule's, and the former's count.

    Panels run on s = sqrt(-x1), where the profile is a polynomial and
    the kernel a rational function with poles at sqrt(d) exp(+-i gap/2),
    gap = pi - |phi|.  Breakpoints sqrt(d) (1 +- 2^k sin(gap/2)) join the
    table knots at any gap, as wide panels need them away from the faces
    too: panels shrink geometrically toward the pinch, down to a width of
    about sqrt(d) gap.  A Gauss-Legendre node s of weight w carries
    2 s w times the profile at x1 = -s^2.
    """
    s0 = math.sqrt(d)
    knots = np.sqrt(-x[::-1]).tolist()
    lo, hi = knots[0], knots[-1]
    h = s0 * math.sin(0.5 * max(gap, 1e-12))  # closer to a face is left to the check
    marks = []
    while s0 - h > lo or s0 + h < hi:
        marks += [m for m in (s0 - h, s0 + h) if lo < m < hi]
        h *= 2.0
    edges = np.array(sorted({*knots, *marks}))
    a, b = edges[:-1], edges[1:]
    nodes, weights = _gauss_legendre()
    s = (0.5 * (a + b) + 0.5 * (b - a) * nodes[:, None]).ravel()  # node-major
    w = ((b - a) * weights[:, None]).ravel() * s
    x1 = -(s * s)
    profile = (np.interp(x1, x, v, left=0.0, right=0.0) for v in (avg, jump))
    return (x1, *(w * v for v in profile)), _N_COARSE * a.size


def _lowered_grad(points: list, table, d: float, gap: float, trig, mu_b, mu_sum, eta, rtol):
    """Gradient at distance d from point stations (x1, avg, jump), summed
    in order, plus a table (x, avg, jump) or None, lowered and summed in
    one array evaluation.  Returns the 32-node gradient and where the
    16-node one misses it by more than rtol relative: an array shaped like
    the trig entries, whose gap is the smallest over them.  A miss at a
    single angle raises QuadratureFailure, or OnCrackFaceUnderLoad where a
    station sits on the kernel's pole, which happens only on a face."""
    g1 = g2 = 0.0
    try:
        for x1, avg, jump in points:
            q = -x1 / d
            t1, t2 = _station_terms(q, math.sqrt(q), avg, jump, trig, mu_b, mu_sum, eta)
            g1 += t1
            g2 -= t2
    except ZeroDivisionError:
        raise OnCrackFaceUnderLoad(f"point at d={d:g} sits on a load station at the face") from None
    scale = 1.0 / (math.pi * d)
    if table is None:
        return (g1 * scale, g2 * scale), False
    (x1, wavg, wjump), n = _lower_table(*table, d, gap)
    q = -x1 / d
    keep = np.ndim(trig[0]) > 0  # a sum per angle, shaped like the trig entries
    with np.errstate(all="ignore"):  # a node on the pole gives inf or NaN, which fails the check
        t1, t2 = _station_terms(q, np.sqrt(q), wavg, wjump, trig, mu_b, mu_sum, eta)
        coarse, fine = (((g1 + t1[..., r].sum(axis=-1, keepdims=keep)) * scale,
                         (g2 - t2[..., r].sum(axis=-1, keepdims=keep)) * scale)
                        for r in (slice(n), slice(n, None)))
        err = np.hypot(fine[0] - coarse[0], fine[1] - coarse[1])
        bad = np.logical_not(err <= rtol * np.hypot(*fine))
    if not keep and bad:
        if not math.isfinite(err):
            raise OnCrackFaceUnderLoad(f"point at d={d:g} sits on a lowered table station at the face")
        raise QuadratureFailure(f"table lowering at d={d:g}, {gap:g} rad from a face, missed rtol {rtol:g}")
    return (fine if keep else (float(fine[0]), float(fine[1]))), bad


def _check_face(dec, d: float, phi: float) -> None:
    """Raise OnCrackFaceUnderLoad for a point on a loaded part of the faces."""
    if abs(phi) < math.pi - 1e-9:
        return
    for s in dec.stations:
        if abs(-d - s.x1) <= 1e-12 * d and (s.avg != 0.0 or s.jump != 0.0):
            raise OnCrackFaceUnderLoad(
                f"point (d={d:g}, phi={phi:g}) sits on the loaded station x1={s.x1:g}"
            )
    dist = dec.distributed  # its profiles vanish outside the support
    if dist is not None and any(np.interp(-d, dist.x, p, left=0.0, right=0.0) for p in (dist.avg, dist.jump)):
        raise OnCrackFaceUnderLoad(f"point (d={d:g}, phi={phi:g}) sits inside the loaded support")


def _grad(dec, bimaterial: Bimaterial, d: float, phi: float, trig, rtol: float):
    """grad_u0 on a decomposed loading, with the angular factors given."""
    mu_b = bimaterial.mu_plus if phi >= 0.0 else bimaterial.mu_minus
    _check_face(dec, d, phi)
    return _lowered_grad(
        [(s.x1, s.avg, s.jump) for s in dec.stations], _table_arrays(dec.distributed), d,
        math.pi - abs(phi), trig, mu_b, bimaterial.mu_sum, bimaterial.contrast, rtol,
    )[0]


def grad_u0(loading: Loading, bimaterial: Bimaterial, point: FieldPoint, rtol: float = 1e-10):
    """Displacement gradient (du/dx1, du/dx2) of the unperturbed field.

    Uses the upper-material branch for phi >= 0 and the lower one for
    phi < 0; on the interface (phi = 0) du/dx2 carries the upper-side
    limit, which differs from the lower one by mu_minus/mu_plus.
    """
    return _grad(decompose(loading), bimaterial, point.d, point.phi, _phi_trig(point.phi), rtol)


def _angular_ratios(omega: float, t, theta: float):
    """sin(s*theta)/cos(pi*s) and cos(s*theta)/sin(pi*s) at s = omega + i*t
    for an array t, overflow-safe for large |t|."""
    u = t * theta
    v = math.pi * t
    eu = np.exp(-2.0 * np.abs(u))
    ev = np.exp(-2.0 * np.abs(v))
    su, sv = np.copysign(1.0, u), np.copysign(1.0, v)
    sin_w, cos_w = math.sin(omega * theta), math.cos(omega * theta)
    sin_p, cos_p = math.sin(math.pi * omega), math.cos(math.pi * omega)
    f = np.exp(np.abs(u) - np.abs(v))
    return (
        f * (sin_w * (1.0 + eu) + 1j * su * cos_w * (1.0 - eu)) / (cos_p * (1.0 + ev) - 1j * sv * sin_p * (1.0 - ev)),
        f * (cos_w * (1.0 + eu) - 1j * su * sin_w * (1.0 - eu)) / (sin_p * (1.0 + ev) + 1j * sv * cos_p * (1.0 - ev)),
    )


def _mellin_transform(dec):
    """The transform s -> sum and integral of (avg, jump)(x1) (-x1)^s of
    the loading, for an array s; returns shape (len(s), 2).

    Stations enter as (-x1)^s.  A table panel [yb, ya] on y = -x1, with
    L = log(ya/yb) and c = s + 1, enters exactly: its near-end value
    times yb^c expm1(cL)/c, plus its rise times the transform of the hat
    (y - yb)/(ya - yb), yb^c (c e^(cL) expm1(L) - expm1(cL)) / (c (c+1) expm1(L)).
    No node rule aliases at large |Im s|, and expm1 keeps narrow panels
    from cancelling.
    """
    log_y = np.log([-s.x1 for s in dec.stations])
    loads = np.array([(s.avg, s.jump) for s in dec.stations]).reshape(-1, 2)
    dist = dec.distributed
    if dist is not None:
        y = -np.asarray(dist.x)
        p = np.column_stack((dist.avg, dist.jump))
        near, rise = p[1:], p[:-1] - p[1:]
        log_yb = np.log(y[1:])
        em1 = (y[:-1] - y[1:]) / y[1:]  # expm1(L)
        log_ratio = np.log1p(em1)

    def transform(s):
        out = np.exp(np.outer(s, log_y)) @ loads
        if dist is not None:
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
    if not r > 0.0:
        raise ValidationError(f"radius must be positive, got {r}")
    if not abs(theta) < math.pi:
        raise ValidationError(f"displacement needs |theta| < pi, got {theta}")
    from ._quad import adaptive_quad

    mu_b = bimaterial.mu_plus if theta >= 0.0 else bimaterial.mu_minus
    mu_sum = bimaterial.mu_sum
    mu_dif = bimaterial.mu_plus - bimaterial.mu_minus
    omega = MELLIN_OMEGA
    transform = _mellin_transform(decompose(loading))
    log_r = math.log(r)

    def integrand(t):
        s = omega + 1j * t
        avg_t, jump_t = transform(s).T
        s2c, c2s = _angular_ratios(omega, t, theta)
        u_t = (
            -s2c * avg_t / mu_b
            + (c2s / mu_sum + mu_dif * s2c / (2.0 * mu_b * mu_sum)) * jump_t
        ) / s
        return (u_t * np.exp(-s * log_r)).real

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
