"""Unperturbed interfacial-crack fields: tip coefficients and the
displacement gradient at interior points, in closed form.

All operations are linear in the loading.  Point forces enter through
delta sifting of the kernels.  A tabulated load enters K0 and A0 through
exact moments of its piecewise-linear profile, and the gradient through
exact integrals of the station kernel over each linear panel.  Nothing
here integrates adaptively or imports numpy: K0, A0 and the gradient run
on plain floats, for point forces and tables alike.  The displacement
itself, the gradient's oracle, is oracles.displacement_u0.
"""

from __future__ import annotations

import math

from .errors import NumericalError, OnCrackFaceUnderLoad, Record, ValidationError
from .loading import Bimaterial, Loading

SQRT_2_OVER_PI = math.sqrt(2.0 / math.pi)


class FieldPoint(Record):
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


def _table_moments(x, avg, jump, eta: float) -> tuple[float, float]:
    """Integrals of {<p> + (eta/2)[p]}(x1) (-x1)^power over a table of
    floats, by the powers -1/2 and -3/2, exact for the piecewise-linear
    profile.

    On each panel the profile is its end values times two hat functions,
    whose moments are written in s = sqrt(-x1) as products of positive
    terms, so narrow panels lose no digits to cancellation.
    """
    half = three_half = 0.0
    wa = avg[0] + 0.5 * eta * jump[0]
    sa = math.sqrt(-x[0])
    for xa, xb, avg_b, jump_b in zip(x, x[1:], avg[1:], jump[1:]):  # far end a, near end b
        wb = avg_b + 0.5 * eta * jump_b
        sb = math.sqrt(-xb)
        ssum = sa + sb
        ds2 = 2.0 * ((xb - xa) / ssum)  # 2 (sa - sb)
        half += wa * (ds2 * (sa + 2.0 * sb) / (3.0 * ssum)) + wb * (ds2 * (2.0 * sa + sb) / (3.0 * ssum))
        three_half += wa * (ds2 / (sa * ssum)) + wb * (ds2 / (sb * ssum))
        wa, sa = wb, sb
    return half, three_half


def _moments(points, table, eta: float) -> tuple[float, float]:
    """The same integrals by both powers over point stations (x1, avg, jump),
    by sifting, plus a table (x, avg, jump) or None.  A station so near the
    tip that (-x1)^(-3/2) overflows leaves the second one NaN."""
    half = three_half = 0.0
    for x1, avg, jump in points:
        w = avg + 0.5 * eta * jump
        half += w * (-x1) ** -0.5
        try:
            three_half += w * (-x1) ** -1.5
        except OverflowError:
            three_half = math.nan
    if table is not None:
        table_half, table_three_half = _table_moments(*table, eta)
        half += table_half
        three_half += table_three_half
    return half, three_half


def _coefficients(points, table, eta: float) -> tuple[float, float]:
    """(K0, A0) of point stations and a table or None, as _moments takes
    them; not checked for being finite."""
    half, three_half = _moments(points, table, eta)
    return -SQRT_2_OVER_PI * half, SQRT_2_OVER_PI * three_half


def _finite(name: str, value: float) -> float:
    """value, or NumericalError naming it when it is not finite."""
    if not math.isfinite(value):
        raise NumericalError(f"{name} is not finite: {value:g}")
    return value


def sif_k0(loading: Loading, bimaterial: Bimaterial) -> float:
    """Stress intensity factor of the unperturbed crack.

    K0 = -sqrt(2/pi) * integral of {<p> + (eta/2)[p]}(-r) r^(-1/2) dr;
    positive for crack-opening loads (negative <p> in this convention).
    """
    return _finite("K0", _coefficients(*loading.split, bimaterial.contrast)[0])


def coeff_a0(loading: Loading, bimaterial: Bimaterial) -> float:
    """Second-order tip coefficient, same kernel as sif_k0 with r^(-3/2)
    and opposite overall sign; controls the tip-advance sensitivity."""
    return _finite("A0", _coefficients(*loading.split, bimaterial.contrast)[1])


def _phi_trig(phi: float) -> tuple[float, float, float, float, float, float]:
    """Angular factors of the gradient kernel:
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
    _phi_trig(phi), mu_b the modulus of the point's half-plane."""
    cphi, sphi, shalf, chalf, s3half, c3half = trig
    den = 2.0 * cphi + q + 1.0 / q
    qm = q - 1.0 / q
    coef = (2.0 * avg + eta * jump) / (2.0 * mu_b)
    t1 = (jump * (sphi * sphi - 0.5 * cphi * qm) / mu_sum + coef * (sq * shalf + s3half / sq)) / den
    t2 = (jump * sphi * (cphi + 0.5 * qm) / mu_sum + coef * (sq * chalf + c3half / sq)) / den
    return t1, t2


def _table_sums(x, avg, jump, d: float, trigs, mu_bs, mu_sum: float, eta: float) -> list:
    """A table's (sum t1, sum t2) at distance d for each angle (its
    _phi_trig tuple in trigs, its half-plane modulus in mu_bs): the station
    kernel integrated exactly over each linear panel, on plain floats.

    With x1 = -d r^2 and Q = r^4 + 2 cos(phi) r^2 + 1, the summands times
    dx1/(2 d dr) are, for J = [p] and C = (2<p> + eta [p])/(2 mu_b),
      t1: J (-cos(phi) r/2 + Q'/(4Q))/mu_sum + C sin(phi/2) (1 - (1 - r^2)/Q),
      t2: J sin(phi) (r/2 - r/Q)/mu_sum + C cos(phi/2) (1 - (1 + r^2)/Q),
    J and C linear in u = r^2 about each panel's near end.  A panel needs
    log Q, sin(phi) int du/Q and cos(phi/2) int (1 + r^2)/Q dr as atan2s
    and sin(phi/2) int (1 - r^2)/Q dr as a log in v = r + 1/r, so nothing
    of size 1/(pi - |phi|) forms.  Near a face u - 1 comes from the inputs,
    u + cos(phi) = (u - 1) + 2 cos^2(phi/2), v - 2|sin(phi/2)| is a sum of
    positive terms and a log of a ratio near 1 is a log1p.
    """
    sqrt, log, log1p, atan2 = math.sqrt, math.log, math.log1p, math.atan2
    knots = []  # near end first: x, u - 1, r, r - 1/r, v - 2, v, J, 2<p> + eta [p]
    for xk, ak, jk in zip(reversed(x), reversed(avg), reversed(jump)):
        em = (-xk - d) / d
        r = sqrt(em + 1.0)
        knots.append((xk, em, r, em / r, em * em / (r * (r + 1.0) ** 2), r + 1.0 / r, jk, 2.0 * ak + eta * jk))
    panels = []  # the far knot's terms, then the panel's, at any angle
    jr = c0 = 0.0  # int J r dr and int (2<p> + eta [p]) dr
    for (xn, emn, rn, wn, _, _, jn, cn), (xf, emf, rf, wf, vqf, vf, jf, cf) in zip(knots, knots[1:]):
        du = (xn - xf) / d
        dr = du / (rf + rn)
        rr = rf * rn
        sc = (cf - cn) / du
        jr += 0.25 * du * (jn + jf)
        c0 += cn * dr + sc * dr * dr * (rf + 2.0 * rn) / 3.0
        panels.append((emf, vqf, vf, du, dr, 0.5 * wf * wn, dr * (1.0 + 1.0 / rr),
                       4.0 * dr * (emf + emn + emf * emn) / (rr * (rr + 1.0)), jn, (jf - jn) / du, cn, sc))
    out = []
    for (cphi, sphi, shalf, chalf, *_), mu_b in zip(trigs, mu_bs):
        ash2 = 2.0 * abs(shalf)
        ch2 = 2.0 * chalf * chalf  # 1 + cos(phi)
        vgap = ch2 / (1.0 + 0.5 * ash2)  # 2 - 2|sin(phi/2)|
        ssq = sphi * sphi
        quarter = math.copysign(0.25, shalf)
        shch2 = 2.0 * shalf * chalf
        _, em, _, _, vq, vn, _, _ = knots[0]
        bn = em + ch2  # u + cos(phi) at the near end
        qn = bn * bn + ssq
        vmn = vq + vgap  # v - 2|sin(phi/2)|
        jq = jrq = cm = cp = 0.0
        for emf, vqf, vf, du, dr, ww, y0, g0, jn, sj, cn, sc in panels:
            bf = emf + ch2
            qf = bf * bf + ssq
            vmf = vqf + vgap
            vpf = vf + ash2
            rel = du * (bf + bn) / qn
            lq = 0.5 * (log1p(rel) if -0.5 < rel < 1.0 else log(qf / qn))  # int (u + cos phi)/Q du
            au = atan2(du * sphi, ssq + bf * bn)  # sin(phi) int du/Q
            aw = 0.5 * atan2(chalf * y0, ch2 + ww)  # cos(phi/2) int (1 + r^2)/Q dr
            rel = 0.5 * ash2 * g0 / (vmn * vpf)  # sa is sin(phi/2) int (1 - r^2)/Q dr
            sa = -quarter * (log1p(rel) if -0.5 < rel < 1.0 else log(vmf * (vn + ash2) / (vpf * vmn)))
            jq += jn * lq + sj * (du - sphi * au - bn * lq)
            jrq += jn * au + sj * (sphi * lq - bn * au)
            cm += cn * sa + sc * (shch2 * aw - shalf * dr - bn * sa)
            cp += cn * aw + sc * (chalf * dr - bn * aw - shch2 * sa)
            bn, qn, vmn, vn = bf, qf, vmf, vf
        out.append((d * ((jq - cphi * jr) / mu_sum + (shalf * c0 - cm) / mu_b),
                    d * ((sphi * jr - jrq) / mu_sum + (chalf * c0 - cp) / mu_b)))
    return out


def _check_face(points, table, d: float, phi: float) -> None:
    """Raise OnCrackFaceUnderLoad for a point on a loaded part of the
    faces: on a loaded station, or anywhere in a table's closed support."""
    if abs(phi) < math.pi - 1e-9:
        return
    for x1, avg, jump in points:
        if abs(-d - x1) <= 1e-12 * d and (avg != 0.0 or jump != 0.0):
            raise OnCrackFaceUnderLoad(
                f"point (d={d:g}, phi={phi:g}) sits on the loaded station x1={x1:g}"
            )
    if table is not None and table[0][0] <= -d <= table[0][-1]:
        raise OnCrackFaceUnderLoad(f"point (d={d:g}, phi={phi:g}) sits inside the loaded support")


def _gradients(points, table, bimaterial: Bimaterial, d: float, phis) -> list:
    """Gradient at (d, phi) for each angle phi of phis, of point stations
    (x1, avg, jump), summed in order, plus a table (x, avg, jump) or None,
    whose panel sums come from one _table_sums call for all the angles.
    A station on the kernel's pole (only on a face) is OnCrackFaceUnderLoad."""
    trigs, mu_bs = [], []
    for phi in phis:
        trigs.append(_phi_trig(phi))
        mu_bs.append(bimaterial.mu_plus if phi >= 0.0 else bimaterial.mu_minus)
    mu_sum, eta = bimaterial.mu_sum, bimaterial.contrast
    sums = [(0.0, 0.0)] * len(trigs) if table is None else _table_sums(*table, d, trigs, mu_bs, mu_sum, eta)
    scale = 1.0 / (math.pi * d)
    out = []
    try:
        for trig, mu_b, (s1, s2) in zip(trigs, mu_bs, sums):
            g1 = g2 = 0.0
            for x1, avg, jump in points:
                q = -x1 / d
                t1, t2 = _station_terms(q, math.sqrt(q), avg, jump, trig, mu_b, mu_sum, eta)
                g1 += t1
                g2 -= t2
            out.append(((g1 + s1) * scale, (g2 - s2) * scale))
    except ZeroDivisionError:
        raise OnCrackFaceUnderLoad(f"point at d={d:g} sits on a load station at the face") from None
    return out


def grad_u0(loading: Loading, bimaterial: Bimaterial, point: FieldPoint):
    """Displacement gradient (du/dx1, du/dx2) of the unperturbed field.

    Uses the upper-material branch for phi >= 0 and the lower one for
    phi < 0; on the interface (phi = 0) du/dx2 carries the upper-side
    limit, which differs from the lower one by mu_minus/mu_plus.
    NumericalError where a component is not finite.
    """
    points, table = loading.split
    _check_face(points, table, point.d, point.phi)
    (g1, g2), = _gradients(points, table, bimaterial, point.d, [point.phi])
    return _finite("du/dx1", g1), _finite("du/dx2", g2)

