"""The adaptive Gauss-Kronrod engine, each check against a reference it
does not use: exact monomial moments, numpy's Gauss-Legendre table,
closed forms and mpmath."""

import math

import mpmath
import numpy as np
import pytest

from crackwake import _quad
from crackwake._quad import adaptive_quad
from crackwake.errors import QuadratureFailure

from helpers import rel_err

NODES = np.array(_quad.NODES)
KRONROD_WEIGHTS = np.array(_quad.KRONROD_WEIGHTS)
GAUSS_WEIGHTS = np.array(_quad.GAUSS_WEIGHTS)


def _monomial_errors(weights, degrees):
    return [abs(weights @ NODES**k - (2.0 / (k + 1) if k % 2 == 0 else 0.0)) for k in degrees]


def test_kronrod_rule_is_exact_through_degree_31():
    assert max(_monomial_errors(KRONROD_WEIGHTS, range(32))) < 1e-15
    assert max(_monomial_errors(KRONROD_WEIGHTS, [32])) > 1e-13


def test_gauss_rule_is_the_10_point_rule_exact_through_degree_19():
    assert max(_monomial_errors(GAUSS_WEIGHTS, range(20))) < 1e-15
    assert max(_monomial_errors(GAUSS_WEIGHTS, [20])) > 1e-7
    x, w = np.polynomial.legendre.leggauss(10)
    used = GAUSS_WEIGHTS > 0.0
    np.testing.assert_allclose(NODES[used], x, rtol=0, atol=1e-15)
    np.testing.assert_allclose(GAUSS_WEIGHTS[used], w, rtol=0, atol=1e-15)


def test_gaussian_over_the_half_line():
    value = adaptive_quad(lambda x: np.exp(-np.asarray(x) ** 2), 0.0, math.inf, rtol=1e-12)
    assert rel_err(value, math.sqrt(math.pi) / 2.0) < 1e-13


def test_inverse_quartic_tail_matches_mpmath():
    """A t^-4 tail like the effective tractions' on the mapped [8, inf)."""
    def tail(t):
        t = np.asarray(t)
        return (1.0 + 3.0 / t) / (t * t + 2.0) ** 2

    value = adaptive_quad(tail, 8.0, math.inf, rtol=1e-12)
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda t: (1 + 3 / t) / (t * t + 2) ** 2, [8, mpmath.inf])
    assert rel_err(value, float(ref)) < 1e-12


def test_narrow_lorentzian_with_a_breakpoint_matches_mpmath():
    g, x0 = 1e-4, 1.3
    value = adaptive_quad(lambda x: g / ((np.asarray(x) - x0) ** 2 + g * g), 0.0, 4.0, rtol=1e-12, points=[x0, 7.0])
    with mpmath.workdps(30):
        ref = mpmath.quad(lambda x: g / ((x - x0) ** 2 + g * g), [0, x0 - 1e-2, x0, x0 + 1e-2, 4])
    assert rel_err(value, float(ref)) < 1e-12


def test_lorentzian_without_its_breakpoint_converges():
    """The subinterval limit leaves room for a narrow peak found by bisection."""
    def lorentzian(x):
        return 1e-4 / ((np.asarray(x) - 1.3) ** 2 + 1e-8)

    assert adaptive_quad(lorentzian, 0.0, 4.0, rtol=1e-10) == pytest.approx(math.pi, rel=1e-4)


def test_pole_inside_the_interval_raises():
    with np.errstate(divide="ignore"), pytest.raises(QuadratureFailure):
        adaptive_quad(lambda x: 1.0 / (np.asarray(x) - 0.5), 0.0, 1.0, rtol=1e-10)


def test_nan_integrand_raises():
    with pytest.raises(QuadratureFailure):
        adaptive_quad(lambda x: np.where(np.asarray(x) > 0.7, np.nan, x), 0.0, 1.0, rtol=1e-10)


def test_an_overflowing_sum_is_a_quadrature_failure():
    with pytest.raises(QuadratureFailure, match=r"^quadrature on \[0, 10\] overflowed$"):
        adaptive_quad(lambda xs: [1e308] * len(xs), 0.0, 10.0, rtol=1e-9)
