"""Thin wrapper around scipy's adaptive quadrature with hard failure."""

from __future__ import annotations

import numpy as np

from .errors import QuadratureFailure


def adaptive_quad(func, a, b, *, rtol, atol=0.0, points=None, limit=256) -> float:
    """Integrate func over [a, b], raising QuadratureFailure when the
    error estimate misses max(atol, rtol*|result|) by more than 50x.

    points (interior breakpoints) are only legal on finite intervals.
    """
    # imported here: scipy.integrate takes most of the import time and
    # memory, and point-force work never integrates
    from scipy import integrate

    kwargs = dict(epsabs=atol, epsrel=rtol, limit=limit, full_output=1)
    if points is not None and np.isfinite(a) and np.isfinite(b):
        pts = [p for p in points if a < p < b]
        if pts:
            kwargs["points"] = sorted(pts)
    out = integrate.quad(func, a, b, **kwargs)
    value, abserr = out[0], out[1]
    if len(out) > 3:  # explanation string present only on trouble
        raise QuadratureFailure(f"quadrature on [{a:g}, {b:g}] failed: {out[3]}")
    tol = max(atol, rtol * abs(value))
    if abserr > 50.0 * tol and abserr > 1e-15:
        raise QuadratureFailure(
            f"quadrature on [{a:g}, {b:g}] reached error {abserr:.2e} "
            f"against tolerance {tol:.2e}"
        )
    return value
