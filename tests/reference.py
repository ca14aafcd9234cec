"""The mpmath references that the tests hold the closed forms to, and the
one rule for their precision.

Each reference computes at mpmath's working precision and is read through
converged(), which raises that precision until two evaluations agree: a
fixed precision is blind where a formula cancels (next to the tip the
station kernel needs 512 digits at d = 1e-300).  quad_table_gradient_mp
alone keeps a fixed 40 digits; it is the independent check of the residue
form and the one table reference at phi = 0."""

import mpmath

START_DIGITS, MAX_DIGITS, AGREEMENT = 32, 1200, 1e-25
QUAD_DIGITS = 40


def at_digits(digits, f, *args):
    """f(*args) at a fixed number of significant digits."""
    with mpmath.workdps(digits):
        return f(*args)


def converged(f, *args):
    """f(*args), an mpf or a tuple of them, evaluated at p and 2p digits
    from p = 32, p doubling until the two agree to 1e-25 relative in norm;
    returns the 2p value, and raises ArithmeticError past 1200 digits."""
    p, low = START_DIGITS, at_digits(START_DIGITS, f, *args)
    while 2 * p <= MAX_DIGITS:
        p, high = 2 * p, at_digits(2 * p, f, *args)
        with mpmath.workdps(p):
            h, lo = (list(v) if isinstance(v, tuple) else [v] for v in (high, low))
            if mpmath.norm([a - b for a, b in zip(h, lo)]) <= AGREEMENT * mpmath.norm(h):
                return high
        low = high
    raise ArithmeticError(f"{f.__name__} did not settle to {AGREEMENT} relative by {p} digits")


def gradient_error(grad, reference):
    """|grad - reference| / |reference| over the first two entries, each
    step one correctly rounded operation, so exact to about 1e-16 of itself."""
    (g1, g2), (r1, r2) = grad[:2], reference[:2]
    return float(mpmath.hypot(g1 - r1, g2 - r2) / mpmath.hypot(r1, r2))


def moments_mp(dist, eta, power):
    """Integral of {<p> + (eta/2)[p]}(x1) (-x1)^power over the table, panel
    by panel with mpmath.quad, times -sqrt(2/pi) (K0, power -1/2) or
    sqrt(2/pi) (A0, power -3/2)."""
    x = [mpmath.mpf(v) for v in dist.x]
    w = [mpmath.mpf(a) + mpmath.mpf(0.5) * mpmath.mpf(eta) * mpmath.mpf(j) for a, j in zip(dist.avg, dist.jump)]
    total = mpmath.mpf(0)
    for xa, xb, wa, wb in zip(x[:-1], x[1:], w[:-1], w[1:]):
        total += mpmath.quad(lambda t: (wa + (wb - wa) * (t - xa) / (xb - xa)) * (-t) ** power, [xa, xb])
    return -mpmath.sqrt(2 / mpmath.pi) * total if power == -0.5 else mpmath.sqrt(2 / mpmath.pi) * total


def _constants(bm, phi):
    """mu of phi's half-plane, mu_sum, eta and the angle factors c, s,
    sin(phi/2), cos(phi/2), sin(3phi/2), cos(3phi/2) of the station kernel."""
    mu_p, mu_m, phi = mpmath.mpf(bm.mu_plus), mpmath.mpf(bm.mu_minus), mpmath.mpf(phi)
    return (mu_p if phi >= 0 else mu_m, mu_p + mu_m, (mu_m - mu_p) / (mu_p + mu_m), mpmath.cos(phi), mpmath.sin(phi),
            mpmath.sin(phi / 2), mpmath.cos(phi / 2), mpmath.sin(3 * phi / 2), mpmath.cos(3 * phi / 2))


def _station_kernel(q, avg, jump, constants):
    """Summands (t1, t2) of one station at q = -x1/d, as in the station
    loop that tipfields._gradients runs for each (d, phi) pair: the
    gradient is (sum t1, -sum t2) / (pi d)."""
    mu_b, mu_sum, eta, c, s, sh, ch, s3, c3 = constants
    sq, qm, den = mpmath.sqrt(q), q - 1 / q, 2 * c + q + 1 / q
    coef = (2 * avg + eta * jump) / (2 * mu_b)
    return ((jump * (s * s - c * qm / 2) / mu_sum + coef * (sq * sh + s3 / sq)) / den,
            (jump * s * (c + qm / 2) / mu_sum + coef * (sq * ch + c3 / sq)) / den)


def station_gradient_mp(loading, bimaterial, d, phi):
    """grad_u0 of a loading's point stations at (d, phi), from the same floats."""
    constants, d = _constants(bimaterial, phi), mpmath.mpf(d)
    g1 = g2 = mpmath.mpf(0)
    for x1, avg, jump in loading.split[0]:
        t1, t2 = _station_kernel(-mpmath.mpf(x1) / d, mpmath.mpf(avg), mpmath.mpf(jump), constants)
        g1, g2 = g1 + t1, g2 - t2
    return g1 / (mpmath.pi * d), g2 / (mpmath.pi * d)


def table_gradient_mp(dist, bm, d, phi):
    """Gradient of a table at (d, phi), and the sum of its panels' gradient
    norms as a third entry.

    On each panel, in r = sqrt(-x1/d), the station kernel times dx1/dr is a
    polynomial in r over Q(r) = r^4 + 2 cos(phi) r^2 + 1.  It integrates
    by polynomial division plus residues at the simple roots of Q,
    +-sin(phi/2) +- i cos(phi/2), which merge pairwise at phi = 0.
    """
    mpf, d = mpmath.mpf, mpmath.mpf(d)
    mu_b, mu_sum, eta, c, s, sh, ch, s3, c3 = _constants(bm, phi)
    q = [mpf(1), 0, 2 * c, 0, mpf(1)]  # coefficients by ascending power of r
    roots = [sg * sh + 1j * sc * ch for sg in (1, -1) for sc in (1, -1)]
    powers = [[rho**k for k in range(4)] for rho in roots]
    q_prime = [4 * rho**3 + 4 * c * rho for rho in roots]

    def mul(a, b):
        out = [mpf(0)] * (len(a) + len(b) - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                out[i + j] += u * v
        return out

    def integral(p, rn, rf, logs):
        rem = list(p)
        quo = [mpf(0)] * (len(rem) - 4)
        for k in range(len(rem) - 1, 3, -1):  # divide by the monic Q
            quo[k - 4] = t = rem[k]
            for j in range(5):
                rem[k - 4 + j] -= t * q[j]
        total = sum(a * (rf ** (k + 1) - rn ** (k + 1)) / (k + 1) for k, a in enumerate(quo))
        for rho_k, dq, log in zip(powers, q_prime, logs):
            total += sum(a * r for a, r in zip(rem[:4], rho_k)) / dq * log
        return mpmath.re(total)

    x, avg, jump = ([mpf(v) for v in col] for col in (dist.x, dist.avg, dist.jump))
    g1 = g2 = scale = mpf(0)
    for xa, xb, aa, ab, ja, jb in zip(x, x[1:], avg, avg[1:], jump, jump[1:]):

        def profile(pa, pb):  # linear in x1 = -d r^2
            slope = (pb - pa) / (xb - xa)
            return [pa - slope * xa, 0, -slope * d]

        jr = profile(ja, jb)
        cr = [(2 * u + eta * v) / (2 * mu_b) for u, v in zip(profile(aa, ab), jr)]
        n1 = [u / mu_sum + v for u, v in zip(mul(jr, [0, c / 2, 0, s * s, 0, -c / 2]),
                                             mul(cr, [0, 0, s3, 0, sh]) + [0])]
        n2 = [u / mu_sum + v for u, v in zip(mul(jr, [0, -s / 2, 0, s * c, 0, s / 2]),
                                             mul(cr, [0, 0, c3, 0, ch]) + [0])]
        rn, rf = mpmath.sqrt(-xb / d), mpmath.sqrt(-xa / d)
        logs = [mpmath.log((rf - rho) / (rn - rho)) for rho in roots]
        p1, p2 = integral(n1, rn, rf, logs), integral(n2, rn, rf, logs)
        g1, g2, scale = g1 + p1, g2 - p2, scale + mpmath.hypot(p1, p2)
    return 2 * g1 / mpmath.pi, 2 * g2 / mpmath.pi, 2 * scale / mpmath.pi


def quad_table_gradient_mp(dist, bm, d, phi):
    """The table gradient as floats, by mpmath.quad of the station kernel
    over x1 at 40 digits, with breakpoints at -d and -d (1 +- (pi - |phi|))."""
    with mpmath.workdps(QUAD_DIGITS):
        constants, d, gap = _constants(bm, phi), mpmath.mpf(d), mpmath.pi - abs(mpmath.mpf(phi))
        x, avg, jump = ([mpmath.mpf(v) for v in col] for col in (dist.x, dist.avg, dist.jump))
        g1 = g2 = mpmath.mpf(0)
        for xa, xb, aa, ab, ja, jb in zip(x, x[1:], avg, avg[1:], jump, jump[1:]):

            def terms(x1, xa=xa, xb=xb, aa=aa, ab=ab, ja=ja, jb=jb):
                t = (x1 - xa) / (xb - xa)
                return _station_kernel(-x1 / d, aa + (ab - aa) * t, ja + (jb - ja) * t, constants)

            pts = sorted({xa, xb, *(b for b in (-d * (1 + gap), -d, -d * (1 - gap)) if xa < b < xb)})
            g1 += mpmath.quad(lambda x1: terms(x1)[0], pts)
            g2 -= mpmath.quad(lambda x1: terms(x1)[1], pts)
        return float(g1 / (mpmath.pi * d)), float(g2 / (mpmath.pi * d))


def contraction_mp(grad, weights, iso, dev, alpha, mu_series):
    """-sqrt(2/pi) mu_series g . (m_iso I + m_dev R(2 alpha)) . w, from the
    same floats."""
    g1, g2, w1, w2, iso, dev, alpha, mu = map(mpmath.mpf, (*grad, *weights, iso, dev, alpha, mu_series))
    c, s = mpmath.cos(2 * alpha), mpmath.sin(2 * alpha)
    m11, m12, m22 = iso + dev * c, dev * s, iso - dev * c
    return -mpmath.sqrt(2 / mpmath.pi) * mu * (g1 * (m11 * w1 + m12 * w2) + g2 * (m12 * w1 + m22 * w2))
