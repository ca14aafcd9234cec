import math

import numpy as np
import pytest
from pytest import approx

from crackwake import (
    Bimaterial,
    ContourTruncationFailure,
    DistributedLoad,
    FieldPoint,
    Loading,
    OnCrackFaceUnderLoad,
    PointForce,
    ValidationError,
    coeff_a0,
    displacement_u0,
    grad_u0,
    sif_k0,
    three_point_preset,
)
from crackwake._quad import adaptive_quad
from crackwake.errors import NumericalError, QuadratureFailure

from helpers import hat_load, rel_err, sym_pair_at

SQ2PI = math.sqrt(2.0 / math.pi)


def test_k0_symmetric_pair_any_contrast(sym_pair, bm_equal, bm_pos):
    assert sif_k0(sym_pair, bm_equal) == approx(SQ2PI)
    assert sif_k0(sym_pair, bm_pos) == approx(SQ2PI)


def test_k0_kernel_scaling(bm_equal):
    assert sif_k0(sym_pair_at(4.0), bm_equal) == approx(0.5 * SQ2PI)


def test_k0_pure_skew_vanishes_for_equal_materials(bm_equal):
    skew = Loading((PointForce(-1.0, "+", 1.0), PointForce(-1.0, "-", -1.0)))
    assert sif_k0(skew, bm_equal) == 0.0


def test_a0_symmetric_pair(sym_pair, bm_equal, bm_pos):
    # sign per the second-order kernel: opposite to K0 for a point pair
    assert coeff_a0(sym_pair, bm_equal) == approx(-SQ2PI)
    assert coeff_a0(sym_pair, bm_pos) == approx(-SQ2PI)


def test_a0_kernel_scaling(bm_equal):
    assert coeff_a0(sym_pair_at(4.0), bm_equal) == approx(-SQ2PI / 8.0)


def test_a0_pure_skew_vanishes_for_equal_materials(bm_equal):
    skew = Loading((PointForce(-1.0, "+", 1.0), PointForce(-1.0, "-", -1.0)))
    assert coeff_a0(skew, bm_equal) == 0.0


def test_linearity_in_the_loading(bm_pos):
    loading = three_point_preset(1.0, 3.0, 1.5)
    scaled = loading.scaled(3.5)
    assert sif_k0(scaled, bm_pos) == approx(3.5 * sif_k0(loading, bm_pos), rel=1e-14)
    assert coeff_a0(scaled, bm_pos) == approx(3.5 * coeff_a0(loading, bm_pos), rel=1e-14)
    pt = FieldPoint(1.2, 0.8)
    g = grad_u0(loading, bm_pos, pt)
    gs = grad_u0(scaled, bm_pos, pt)
    assert gs[0] == approx(3.5 * g[0], rel=1e-14)
    assert gs[1] == approx(3.5 * g[1], rel=1e-14)
    u = displacement_u0(loading, bm_pos, 1.2, 0.8)
    us = displacement_u0(scaled, bm_pos, 1.2, 0.8)
    assert us == approx(3.5 * u, rel=1e-12)


def test_grad_zero_loading(bm_equal):
    assert grad_u0(Loading(()), bm_equal, FieldPoint(1.0, 0.5)) == (0.0, 0.0)


def test_grad_parity_for_symmetric_load_equal_materials(bm_equal, sym_pair):
    for phi in (0.3, 1.2, 2.5):
        g1p, g2p = grad_u0(sym_pair, bm_equal, FieldPoint(1.7, phi))
        g1m, g2m = grad_u0(sym_pair, bm_equal, FieldPoint(1.7, -phi))
        assert g1m == -g1p
        assert g2m == g2p


def test_grad_face_traction_free(bm_pos):
    loading = three_point_preset(1.0, 3.0, 2.0)
    for d, phi in ((1.7, math.pi * (1 - 1e-12)), (0.6, -math.pi * (1 - 1e-12))):
        mu = bm_pos.mu_plus if phi > 0 else bm_pos.mu_minus
        g2 = grad_u0(loading, bm_pos, FieldPoint(d, phi))[1]
        assert abs(mu * g2) < 1e-8 * loading.abs_scale()


def test_grad_interface_continuity(bm_pos):
    loading = three_point_preset(1.0, 3.0, 2.0)
    eps = 1e-15
    g_up = grad_u0(loading, bm_pos, FieldPoint(1.7, eps))
    g_dn = grad_u0(loading, bm_pos, FieldPoint(1.7, -eps))
    assert bm_pos.mu_plus * g_up[1] == approx(bm_pos.mu_minus * g_dn[1], rel=1e-8)
    assert g_up[0] == approx(g_dn[0], rel=1e-8, abs=1e-15)


def test_grad_mixed_partial_symmetry(bm_pos):
    loading = three_point_preset(1.0, 3.0, 2.0)

    def grad_at(x, y):
        return grad_u0(loading, bm_pos, FieldPoint(math.hypot(x, y), math.atan2(y, x)))

    for x, y in ((0.9, 0.8), (-0.5, 1.1), (1.4, -0.7)):
        def cross(h):
            dg1_dy = (grad_at(x, y + h)[0] - grad_at(x, y - h)[0]) / (2 * h)
            dg2_dx = (grad_at(x + h, y)[1] - grad_at(x - h, y)[1]) / (2 * h)
            return dg1_dy, dg2_dx

        a1, b1 = cross(1e-4)
        a2, b2 = cross(5e-5)
        rich_a = (4 * a2 - a1) / 3.0
        rich_b = (4 * b2 - b1) / 3.0
        assert rel_err(rich_a, rich_b) < 1e-5


def test_grad_on_loaded_face_station_rejected(sym_pair, bm_equal):
    with pytest.raises(OnCrackFaceUnderLoad):
        grad_u0(sym_pair, bm_equal, FieldPoint(1.0, math.pi))


def test_displacement_interface_continuity(bm_pos):
    loading = three_point_preset(1.0, 3.0, 2.0)
    u_up = displacement_u0(loading, bm_pos, 1.7, 1e-12)
    u_dn = displacement_u0(loading, bm_pos, 1.7, -1e-12)
    assert u_up == approx(u_dn, rel=1e-8)


@pytest.mark.parametrize("bm_name", ["bm_equal", "bm_pos"])
def test_displacement_gradient_consistency(bm_name, sym_pair, request):
    bm = request.getfixturevalue(bm_name)
    pt = FieldPoint(2.0, math.pi / 3)
    g = grad_u0(sym_pair, bm, pt)
    x0, y0 = pt.x, pt.y

    def u_at(x, y):
        return displacement_u0(sym_pair, bm, math.hypot(x, y), math.atan2(y, x))

    def central(h):
        return (
            (u_at(x0 + h, y0) - u_at(x0 - h, y0)) / (2 * h),
            (u_at(x0, y0 + h) - u_at(x0, y0 - h)) / (2 * h),
        )

    h = 1e-4 * pt.d
    c1 = central(h)
    c2 = central(0.5 * h)
    fd = tuple((4 * b - a) / 3.0 for a, b in zip(c1, c2))
    assert rel_err(fd[0], g[0]) < 1e-4
    assert rel_err(fd[1], g[1]) < 1e-4


def test_displacement_decays_at_infinity(bm_equal, sym_pair):
    values = [abs(displacement_u0(sym_pair, bm_equal, r, math.pi / 4)) for r in (10.0, 100.0, 1000.0)]
    assert values[0] > values[1] > values[2]


def test_displacement_validates_inputs(sym_pair, bm_equal):
    with pytest.raises(ValidationError):
        displacement_u0(sym_pair, bm_equal, -1.0, 0.3)
    with pytest.raises(ValidationError):
        displacement_u0(sym_pair, bm_equal, 1.0, math.pi)


def test_displacement_contour_truncation_failure(bm_equal, sym_pair):
    # point on the face at the load station: the transform cannot settle
    with pytest.raises(ContourTruncationFailure):
        displacement_u0(sym_pair, bm_equal, 1.0, math.pi * (1 - 1e-12))


def test_point_versus_mollified_distributed_kernels(bm_pos):
    """K0/A0 from delta sifting match a narrow tabulated bump to 1e-6."""
    a, P = 2.0, -1.3
    points = sym_pair_at(a, P)
    hat = Loading((), hat_load(-a, 1e-3 * a, avg_coeff=P, jump_coeff=0.0, n=41))
    assert rel_err(sif_k0(points, bm_pos), sif_k0(hat, bm_pos)) < 1e-6
    assert rel_err(coeff_a0(points, bm_pos), coeff_a0(hat, bm_pos)) < 1e-6


def test_distributed_gradient_matches_point_limit(bm_pos):
    a = 2.0
    points = sym_pair_at(a, -1.0)
    hat = Loading((), hat_load(-a, 1e-3 * a, avg_coeff=-1.0, jump_coeff=0.0, n=41))
    pt = FieldPoint(1.1, 2.2)
    gp = grad_u0(points, bm_pos, pt)
    gh = grad_u0(hat, bm_pos, pt)
    assert rel_err(gp[0], gh[0]) < 1e-5
    assert rel_err(gp[1], gh[1]) < 1e-5


def test_adaptive_quad_failure_is_reported():
    with pytest.raises(QuadratureFailure):
        adaptive_quad(lambda x: np.sin(1.0 / x), 1e-12, 1.0, rtol=1e-12, limit=3)


def test_field_point_validation():
    with pytest.raises(ValidationError):
        FieldPoint(0.0, 0.0)
    with pytest.raises(ValidationError):
        FieldPoint(1.0, 4.0)
    for d, phi in ((math.inf, 0.3), (math.nan, 0.3), (1.0, math.nan)):
        with pytest.raises(ValidationError):
            FieldPoint(d, phi)


# HAT has coarse panels, which a fixed node rule per panel aliases at
# the large |Im s| a point 1e-3 from the face reaches; FINE_HAT has 81
# narrow ones, whose exact transforms nearly cancel there.
HAT = Loading((PointForce(-1.2, "-", 0.25),), hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25))
FINE_HAT = Loading((PointForce(-1.2, "-", 0.25),), hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25, n=81))


@pytest.mark.parametrize(
    "loading, d, phi",
    [
        pytest.param(FINE_HAT, 1.3, 0.7, id="1.3-0.7"),
        pytest.param(FINE_HAT, 2.1, -2.2, id="2.1--2.2"),
        pytest.param(FINE_HAT, 1.95, math.pi - 1e-3, id=f"1.95-{math.pi - 1e-3}"),
        pytest.param(HAT, 1.95, math.pi - 1e-3, id=f"9_knots-1.95-{math.pi - 1e-3}"),
    ],
)
def test_distributed_gradient_matches_displacement_oracle(bm_pos, loading, d, phi):
    """grad_u0 on a table against finite differences of displacement_u0,
    including a point 1e-3 rad from the face with -d inside the support."""
    pt = FieldPoint(d, phi)
    g = grad_u0(loading, bm_pos, pt)
    x0, y0 = pt.x, pt.y

    def u_at(x, y):
        return displacement_u0(loading, bm_pos, math.hypot(x, y), math.atan2(y, x))

    def central(h):
        return (
            (u_at(x0 + h, y0) - u_at(x0 - h, y0)) / (2 * h),
            (u_at(x0, y0 + h) - u_at(x0, y0 - h)) / (2 * h),
        )

    h = 1e-4 * d
    fd = tuple((4 * b - a) / 3.0 for a, b in zip(central(h), central(0.5 * h)))
    assert math.hypot(fd[0] - g[0], fd[1] - g[1]) < 1e-6 * math.hypot(*g)


def _mp_moments(dist, eta, power):
    """Reference integral of {<p> + (eta/2)[p]}(x1) (-x1)^power over the
    table, panel by panel with mpmath at 40 digits."""
    import mpmath

    with mpmath.workdps(40):
        x = [mpmath.mpf(v) for v in dist.x]
        w = [mpmath.mpf(a) + mpmath.mpf(0.5) * mpmath.mpf(eta) * mpmath.mpf(j)
             for a, j in zip(dist.avg, dist.jump)]
        total = mpmath.mpf(0)
        for xa, xb, wa, wb in zip(x[:-1], x[1:], w[:-1], w[1:]):
            total += mpmath.quad(lambda t: (wa + (wb - wa) * (t - xa) / (xb - xa)) * (-t) ** power,
                                 [xa, xb])
        return -mpmath.sqrt(2 / mpmath.pi) * total if power == -0.5 else mpmath.sqrt(2 / mpmath.pi) * total


@pytest.mark.parametrize(
    "table",
    [
        hat_load(-2.0, 2e-3, avg_coeff=-1.3, jump_coeff=0.4, n=41),
        DistributedLoad((-1.0, -0.5, -1e-3, -1e-6), (0.3, -0.7, 0.2, 1.0), (0.1, 0.4, -0.6, 0.5)),
    ],
    ids=["narrow_hat", "ends_at_1e-6"],
)
def test_table_tip_coefficients_match_mpmath(bm_pos, table):
    """K0 and A0 of a table are exact moments of its profile, also where
    a naive antiderivative cancels (the narrow hat) or the r^(-3/2)
    weight is steep (the table ending at x1 = -1e-6)."""
    loading = Loading((), table)
    eta = bm_pos.contrast
    assert rel_err(sif_k0(loading, bm_pos), float(_mp_moments(table, eta, -0.5))) < 1e-12
    assert rel_err(coeff_a0(loading, bm_pos), float(_mp_moments(table, eta, -1.5))) < 1e-12


def test_near_face_table_gradient_fails_cleanly(bm_pos):
    """1e-5 rad from a loaded face the 16- and 32-node lowerings disagree
    beyond rtol: QuadratureFailure, not NaN or a ZeroDivisionError."""
    hat = Loading((), hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25))
    with pytest.raises(QuadratureFailure):
        grad_u0(hat, bm_pos, FieldPoint(2.05, math.pi - 1e-5))
    g = grad_u0(hat, bm_pos, FieldPoint(2.05, math.pi - 1e-5), rtol=1e-6)
    assert all(math.isfinite(v) for v in g)


@pytest.mark.parametrize(
    "table, d, phi",
    [
        (((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0)), 2.5, math.pi),
        (((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0)), 1.5, -math.pi),
        (((-3.0, -2.0, -1.0), (0.5, 0.0, 0.5), (0.0, 0.0, 0.0)), 2.0, math.pi),
    ],
    ids=["far-end", "near-end", "unloaded-knot"],
)
def test_table_gradient_on_the_face_is_finite_or_numerical_error(bm_pos, table, d, phi):
    """On a face at an unloaded point of the table a lowering node can sit
    on the kernel's pole: the result is finite or a NumericalError, never
    a ZeroDivisionError."""
    loading = Loading((), DistributedLoad(*table))
    try:
        g = grad_u0(loading, bm_pos, FieldPoint(d, phi))
    except NumericalError:
        return
    assert all(math.isfinite(v) for v in g)

