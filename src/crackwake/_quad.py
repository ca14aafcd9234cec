"""Globally adaptive Gauss-Kronrod quadrature with hard failure.

The rule is QUADPACK's qk21: the 10-point Gauss rule nested in its
21-point Kronrod extension, with QUADPACK's error estimate.  As in
QUADPACK's qag, each round bisects the interval with the largest error
estimate; both halves are evaluated in one call, so the integrand maps
a list of abscissae to a sequence of values.  [a, inf) maps to (0, 1]
through t = a + (1 - x)/x, as in QUADPACK's qagi.  Everything runs on
plain floats.
"""

from __future__ import annotations

import heapq
import math
import sys
from operator import mul

from .errors import QuadratureFailure

# qk21 abscissae on [0, 1], descending; the odd positions are the
# 10-point Gauss nodes, the even ones the Kronrod extension
_XGK = (
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
)
_WGK = (
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
)
_WG = (
    0.0, 0.066671344308688137593568809893332,
    0.0, 0.149451349150580593145776339657697,
    0.0, 0.219086362515982043995534934228163,
    0.0, 0.269266719309996355091226921569469,
    0.0, 0.295524224714752870173892994651338,
    0.0,
)

# the whole rule on [-1, 1], ascending
NODES = tuple(-x for x in _XGK) + _XGK[-2::-1]
KRONROD_WEIGHTS = _WGK + _WGK[-2::-1]
GAUSS_WEIGHTS = _WG + _WG[-2::-1]

_EPS = sys.float_info.epsilon
# the most subintervals adaptive_quad splits an integral into
LIMIT = 256


def _rule(func, intervals):
    """qk21 on each (lo, hi) of intervals, all nodes in one func call:
    a list of (-error estimate, lo, hi, value), ready for a min-heap."""
    xs = []
    for lo, hi in intervals:
        c = 0.5 * (lo + hi)
        h = 0.5 * (hi - lo)
        xs += [c + h * x for x in NODES]
    f = list(func(xs))
    if not all(map(math.isfinite, f)):
        raise QuadratureFailure("integrand is not finite at a quadrature node")
    out = []
    for k, (lo, hi) in enumerate(intervals):
        fk = f[21 * k:21 * k + 21]
        h = 0.5 * (hi - lo)
        ah = abs(h)
        resk = sum(map(mul, KRONROD_WEIGHTS, fk))
        resg = sum(map(mul, GAUSS_WEIGHTS, fk))
        mean = 0.5 * resk
        resabs = sum(map(mul, KRONROD_WEIGHTS, map(abs, fk))) * ah
        resasc = sum(map(mul, KRONROD_WEIGHTS, [abs(v - mean) for v in fk])) * ah
        err = abs(resk - resg) * ah
        if resasc > 0.0:
            err = resasc * min(1.0, (200.0 * err / resasc) ** 1.5)
        out.append((-max(err, 50.0 * _EPS * resabs), lo, hi, resk * h))
    return out


def adaptive_quad(func, a, b, *, rtol, atol=0.0, points=None) -> float:
    """Integrate func over [a, b], raising QuadratureFailure when LIMIT
    subintervals cannot bring the error estimate within
    max(atol, rtol*|result|), or when func or the sum is not finite.

    func maps a list of abscissae to a sequence of the integrand values
    there.  a is finite and b may be inf; points (interior breakpoints)
    apply to finite intervals.
    """
    if b == math.inf:
        g = func

        def func(xs):
            return [v / (x * x) for x, v in zip(xs, g([a + (1.0 - x) / x for x in xs]))]

        edges = [0.0, 1.0]
    else:
        edges = [a, *sorted(p for p in points or () if a < p < b), b]
    heap = _rule(func, list(zip(edges, edges[1:])))
    heapq.heapify(heap)
    while True:
        value = sum(item[3] for item in heap)
        total_err = -sum(item[0] for item in heap)
        if not math.isfinite(value + total_err):
            raise QuadratureFailure(f"quadrature on [{a:g}, {b:g}] overflowed")
        tol = max(atol, rtol * abs(value))
        if total_err <= tol:
            return value
        if len(heap) >= LIMIT:
            raise QuadratureFailure(
                f"quadrature on [{a:g}, {b:g}] reached error {total_err:.2e} "
                f"against tolerance {tol:.2e} with {LIMIT} subintervals"
            )
        _, lo, hi, _ = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        for item in _rule(func, [(lo, mid), (mid, hi)]):
            heapq.heappush(heap, item)
