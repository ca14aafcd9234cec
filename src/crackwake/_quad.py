"""Globally adaptive Gauss-Kronrod quadrature with hard failure.

The rule is QUADPACK's qk21: the 10-point Gauss rule nested in its
21-point Kronrod extension, with QUADPACK's error estimate.  Each round
bisects the largest-error subintervals and evaluates all their nodes in
one call, so the integrand takes a 1-D array of abscissae.  [a, inf)
maps to (0, 1] through t = a + (1 - x)/x, as in QUADPACK's qagi.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import QuadratureFailure

# qk21 abscissae on [0, 1], descending; the odd positions are the
# 10-point Gauss nodes, the even ones the Kronrod extension
_XGK = np.array([
    0.995657163025808080735527280689003,
    0.973906528517171720077964012084452,
    0.930157491355708226001207180059508,
    0.865063366688984510732096688423493,
    0.780817726586416897063717578345042,
    0.679409568299024406234327365114874,
    0.562757134668604683339000099272694,
    0.433395394129247190799265943165784,
    0.294392862701460198131126603103866,
    0.148874338981631210884826001129720,
    0.0,
])
_WGK = np.array([
    0.011694638867371874278064396062192,
    0.032558162307964727478818972459390,
    0.054755896574351996031381300244580,
    0.075039674810919952767043140916190,
    0.093125454583697605535065465083366,
    0.109387158802297641899210590325805,
    0.123491976262065851077600525680523,
    0.134709217311473325928054001771707,
    0.142775938577060080797094273138717,
    0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
])
_WG = np.zeros(11)
_WG[1::2] = (
    0.066671344308688137593568809893332,
    0.149451349150580593145776339657697,
    0.219086362515982043995534934228163,
    0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)

# the whole rule on [-1, 1], ascending
NODES = np.concatenate((-_XGK, _XGK[-2::-1]))
KRONROD_WEIGHTS = np.concatenate((_WGK, _WGK[-2::-1]))
GAUSS_WEIGHTS = np.concatenate((_WG, _WG[-2::-1]))

_EPS = sys.float_info.epsilon


def _rule(func, lo, hi):
    """qk21 on each interval [lo[k], hi[k]]: (values, error estimates)."""
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    f = np.asarray(func((c[:, None] + h[:, None] * NODES).ravel()), dtype=float)
    f = f.reshape(len(c), NODES.size)
    if not np.isfinite(f).all():
        raise QuadratureFailure("integrand is not finite at a quadrature node")
    resk = f @ KRONROD_WEIGHTS
    resg = f @ GAUSS_WEIGHTS
    ah = np.abs(h)
    resabs = np.abs(f) @ KRONROD_WEIGHTS * ah
    resasc = np.abs(f - 0.5 * resk[:, None]) @ KRONROD_WEIGHTS * ah
    err = np.abs(resk - resg) * ah
    nz = resasc > 0.0
    err[nz] = resasc[nz] * np.minimum(1.0, (200.0 * err[nz] / resasc[nz]) ** 1.5)
    return resk * h, np.maximum(err, 50.0 * _EPS * resabs)


def adaptive_quad(func, a, b, *, rtol, atol=0.0, points=None, limit=256) -> float:
    """Integrate func over [a, b], raising QuadratureFailure when limit
    subintervals cannot bring the error estimate within
    max(atol, rtol*|result|), or when func or the sum is not finite.

    func maps a 1-D array of abscissae to the integrand values there.
    a is finite and b may be inf; points (interior breakpoints) apply to
    finite intervals.
    """
    if b == math.inf:
        g = func

        def func(x):
            return g(a + (1.0 - x) / x) / (x * x)

        edges = [0.0, 1.0]
    else:
        edges = [a, *sorted(p for p in points or () if a < p < b), b]
    lo, hi = np.array(edges[:-1]), np.array(edges[1:])
    val, err = _rule(func, lo, hi)
    while True:
        value = float(np.sum(val))
        total_err = float(np.sum(err))
        if not math.isfinite(value + total_err):
            raise QuadratureFailure(f"quadrature on [{a:g}, {b:g}] overflowed")
        tol = max(atol, rtol * abs(value))
        if total_err <= tol:
            return value
        if len(val) >= limit:
            raise QuadratureFailure(
                f"quadrature on [{a:g}, {b:g}] reached error {total_err:.2e} "
                f"against tolerance {tol:.2e} with {limit} subintervals"
            )
        # bisect the fewest largest-error intervals that cover the excess
        order = np.argsort(err)[::-1]
        n = min(int(np.searchsorted(np.cumsum(err[order]), total_err - tol)) + 1, limit - len(val))
        split, keep = order[:n], order[n:]
        mid = 0.5 * (lo[split] + hi[split])
        new_lo, new_hi = np.concatenate((lo[split], mid)), np.concatenate((mid, hi[split]))
        new_val, new_err = _rule(func, new_lo, new_hi)
        lo, hi = np.concatenate((lo[keep], new_lo)), np.concatenate((hi[keep], new_hi))
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))
