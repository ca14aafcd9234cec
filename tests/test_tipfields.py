import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from pytest import approx

from crackwake import (
    Bimaterial,
    ContourTruncationFailure,
    Defect,
    DistributedLoad,
    FieldPoint,
    Loading,
    NumericalError,
    OnCrackFaceUnderLoad,
    PointForce,
    ValidationError,
    coeff_a0,
    decompose,
    dipole_matrix,
    displacement_u0,
    grad_u0,
    sif_k0,
    three_point_preset,
)
from crackwake._quad import adaptive_quad
from crackwake.errors import QuadratureFailure
from crackwake.defects import _dipole_parts, _double_angle
from crackwake.perturbation import _dk_harmonics, _harmonics, tip_weight_vector
from crackwake.tipfields import _coefficients, _gradients, _phi_trig

from helpers import hat_load, rel_err, scaled, sym_pair_at
from reference import (converged, gradient_error, moments_mp, quad_table_gradient_mp, station_gradient_mp,
                       table_gradient_mp)

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
    big = scaled(loading, 3.5)
    assert sif_k0(big, bm_pos) == approx(3.5 * sif_k0(loading, bm_pos), rel=1e-14)
    assert coeff_a0(big, bm_pos) == approx(3.5 * coeff_a0(loading, bm_pos), rel=1e-14)
    pt = FieldPoint(1.2, 0.8)
    g = grad_u0(loading, bm_pos, pt)
    gs = grad_u0(big, bm_pos, pt)
    assert gs[0] == approx(3.5 * g[0], rel=1e-14)
    assert gs[1] == approx(3.5 * g[1], rel=1e-14)
    u = displacement_u0(loading, bm_pos, 1.2, 0.8)
    us = displacement_u0(big, bm_pos, 1.2, 0.8)
    assert us == approx(3.5 * u, rel=1e-12)


def test_grad_zero_loading(bm_equal):
    assert grad_u0(Loading(()), bm_equal, FieldPoint(1.0, 0.5)) == (0.0, 0.0)


def test_grad_parity_for_symmetric_load_equal_materials(bm_equal, sym_pair):
    for phi in (0.3, 1.2, 2.5):
        g1p, g2p = grad_u0(sym_pair, bm_equal, FieldPoint(1.7, phi))
        g1m, g2m = grad_u0(sym_pair, bm_equal, FieldPoint(1.7, -phi))
        assert g1m == -g1p
        assert g2m == g2p


def test_overflowing_gradient_raises_numerical_error():
    """Moduli so small that the gradient overflows while K0 stays finite:
    grad_u0 raises NumericalError instead of returning NaN."""
    bm = Bimaterial(1e-150, 1e-150)  # the smallest equal pair whose product is a normal float
    loading = three_point_preset(1e300, 3.0, 1.0)
    assert math.isfinite(sif_k0(loading, bm))
    with pytest.raises(NumericalError, match="du/dx1 is not finite"):
        grad_u0(loading, bm, FieldPoint(1.0, 0.4))


def test_grad_face_traction_free(bm_pos):
    loading = three_point_preset(1.0, 3.0, 2.0)
    for d, phi in ((1.7, math.pi * (1 - 1e-12)), (0.6, -math.pi * (1 - 1e-12))):
        mu = bm_pos.mu_plus if phi > 0 else bm_pos.mu_minus
        g2 = grad_u0(loading, bm_pos, FieldPoint(d, phi))[1]
        assert abs(mu * g2) < 1e-8 * 2.0  # 2P, the preset's |p+| + |p-| summed


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


@pytest.mark.parametrize("gap", [5e-9, 1e-8])
def test_a_station_pole_past_the_face_rule_is_on_crack_face_under_load(sym_pair, bm_equal, gap):
    """Past the rule's 1e-9 rad, cos(phi) still rounds to -1 over the
    station at x1 = -1, so the station kernel's denominator is exactly 0:
    the kernel maps that division to the same error as the rule."""
    with pytest.raises(OnCrackFaceUnderLoad, match="^point at d=1 sits on a load station at the face$"):
        grad_u0(sym_pair, bm_equal, FieldPoint(1.0, math.pi - gap))


@pytest.mark.parametrize("x1, d, message", [
    (-1e-130, 1e200, "station x1=-1e-130 underflows against d=1e\\+200: -x1/d is 0"),
    (-1e300, 1e-10, "station x1=-1e\\+300 overflows against d=1e-10: -x1/d is inf"),
], ids=["underflow", "overflow"])
def test_a_station_whose_q_underflows_is_a_numerical_error_not_a_face_point(x1, d, message):
    """Far from a station near the tip, q = -x1/d underflows to 0, and near
    a station far from it q overflows to inf: either is a NumericalError
    naming it, not OnCrackFaceUnderLoad, for the point is nowhere near a
    face.  Without the overflow check grad_u0 raised a nan and scan_map
    returned an all-invalid map."""
    loading = Loading((PointForce(x1, "+", 1.0), PointForce(x1, "-", 1.0)))
    with pytest.raises(NumericalError, match=f"^{message}$") as info:
        grad_u0(loading, Bimaterial(1.0, 3.0), FieldPoint(d, 0.3))
    assert not isinstance(info.value, OnCrackFaceUnderLoad)


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
    x0, y0 = pt.d * math.cos(pt.phi), pt.d * math.sin(pt.phi)

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


def test_displacement_needs_a_finite_radius(sym_pair, bm_equal):
    """r = inf read 0.0 from the oracle."""
    with pytest.raises(ValidationError, match="^radius must be positive and finite, got inf$"):
        displacement_u0(sym_pair, bm_equal, math.inf, 0.3)


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
    with pytest.raises(QuadratureFailure, match="with 256 subintervals"):
        adaptive_quad(lambda x: np.sin(1.0 / np.asarray(x)), 1e-12, 1.0, rtol=1e-12)


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
        pytest.param(
            HAT, 1.95, -math.pi + 1e-3, id=f"9_knots-1.95-{-math.pi + 1e-3}",
            marks=pytest.mark.xfail(
                strict=True, raises=QuadratureFailure,
                reason="the point station at x1 = -1.2 has a transform that does not decay "
                "in t, so the inversion's [10240, 20480] segment cannot converge 1e-3 rad "
                "from the lower face",
            ),
        ),
    ],
)
def test_distributed_gradient_matches_displacement_oracle(bm_pos, loading, d, phi):
    """grad_u0 on a table against finite differences of displacement_u0,
    including a point 1e-3 rad from the face with -d inside the support."""
    pt = FieldPoint(d, phi)
    g = grad_u0(loading, bm_pos, pt)
    x0, y0 = d * math.cos(phi), d * math.sin(phi)

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
    assert rel_err(sif_k0(loading, bm_pos), float(converged(moments_mp, table, eta, -0.5))) < 1e-12
    assert rel_err(coeff_a0(loading, bm_pos), float(converged(moments_mp, table, eta, -1.5))) < 1e-12


def test_near_face_table_gradient_fails_cleanly(bm_pos):
    """1e-5 rad from a loaded face, with -d inside the support, the table
    gradient is finite and exact: within 1e-12 of mpmath."""
    hat = hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25)
    pt = FieldPoint(2.05, math.pi - 1e-5)
    g = grad_u0(Loading((), hat), bm_pos, pt)
    assert gradient_error(g, quad_table_gradient_mp(hat, bm_pos, pt.d, pt.phi)) <= 1e-12


@pytest.mark.parametrize("d, phi", [(1.95, math.pi - 1e-3), (2.4, -math.pi + 1e-5), (1.7, 0.7)])
def test_residue_reference_matches_mpmath_quad(bm_pos, d, phi):
    """The residue reference of the table tests agrees with a direct
    40-digit quadrature of the station kernel."""
    hat = hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25)
    ref = quad_table_gradient_mp(hat, bm_pos, d, phi)
    assert gradient_error(converged(table_gradient_mp, hat, bm_pos, d, phi), ref) <= 1e-15


NEAR_FACE_GAPS = (0.5, 1e-2, 1e-3, 2e-4, 1e-5, 1e-7)


@pytest.mark.parametrize("d", [1.6, 1.7, 1.95, 2.0, 2.13, 2.4, 2.6])
def test_table_gradient_matches_mpmath_near_both_faces(bm_pos, d):
    """The 9-knot benchmark hat, knots and both ends included, from 0.5 rad
    down to 1e-7 rad from either face: within 1e-13 of mpmath."""
    hat = hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25)
    loading = Loading((), hat)
    for phi in (sign * (math.pi - gap) for sign in (1.0, -1.0) for gap in NEAR_FACE_GAPS):
        g = grad_u0(loading, bm_pos, FieldPoint(d, phi))
        assert gradient_error(g, converged(table_gradient_mp, hat, bm_pos, d, phi)) <= 1e-13, phi


@pytest.mark.parametrize("d", [1.9, 1.999, 2.0, 2.0005, 2.3])
def test_narrow_table_gradient_matches_mpmath(bm_pos, d):
    """A 41-knot hat of half-width 2e-3, whose panels are 1e-4 wide."""
    hat = hat_load(-2.0, 2e-3, avg_coeff=-1.3, jump_coeff=0.4, n=41)
    loading = Loading((), hat)
    for phi in (sign * (math.pi - gap) for sign in (1.0, -1.0) for gap in (0.5, 1e-3, 1e-5)):
        g = grad_u0(loading, bm_pos, FieldPoint(d, phi))
        assert gradient_error(g, converged(table_gradient_mp, hat, bm_pos, d, phi)) <= 2e-12, phi


def test_table_gradient_on_the_interface(bm_pos):
    """At phi = 0 the closed form takes its limits: it matches mpmath and
    the gradients 1e-12 rad to either side, where du/dx2 jumps by the
    modulus ratio."""
    hat = hat_load(-2.0, 0.4, avg_coeff=-0.6, jump_coeff=0.25)
    loading = Loading((), hat)
    for d in (1.3, 2.0, 2.7):
        g = grad_u0(loading, bm_pos, FieldPoint(d, 0.0))
        assert gradient_error(g, quad_table_gradient_mp(hat, bm_pos, d, 0.0)) <= 1e-14
        above = grad_u0(loading, bm_pos, FieldPoint(d, 1e-12))
        below = grad_u0(loading, bm_pos, FieldPoint(d, -1e-12))
        below = (below[0], below[1] * bm_pos.mu_minus / bm_pos.mu_plus)
        assert gradient_error(above, g) <= 1e-11 and gradient_error(below, g) <= 1e-11


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
    """A point on a face inside a table's closed support, even at an
    unloaded knot, is OnCrackFaceUnderLoad, not a ZeroDivisionError, a
    numpy RuntimeWarning or a QuadratureFailure."""
    loading = Loading((), DistributedLoad(*table))
    with pytest.raises(OnCrackFaceUnderLoad):
        grad_u0(loading, bm_pos, FieldPoint(d, phi))


def _reference_terms(x1, avg, jump, d, phi, mu_b, mu_sum, eta):
    """Summands (t1, t2) of the gradient kernel for one station, written
    out on floats: the gradient is (sum t1, -sum t2) / (pi d)."""
    q = -x1 / d
    sq = math.sqrt(q)
    cphi, sphi = math.cos(phi), math.sin(phi)
    den = 2.0 * cphi + q + 1.0 / q
    qm = q - 1.0 / q
    coef = (2.0 * avg + eta * jump) / (2.0 * mu_b)
    t1 = jump * (sphi * sphi - 0.5 * cphi * qm) / mu_sum
    t1 = (t1 + coef * (sq * math.sin(0.5 * phi) + math.sin(1.5 * phi) / sq)) / den
    t2 = jump * sphi * (cphi + 0.5 * qm) / mu_sum
    t2 = (t2 + coef * (sq * math.cos(0.5 * phi) + math.cos(1.5 * phi) / sq)) / den
    return t1, t2


moduli = st.floats(0.2, 5.0)
off_face = st.builds(lambda sign, gap: sign * (math.pi - gap), st.sampled_from((1.0, -1.0)),
                     st.floats(1e-2, math.pi))


@settings(max_examples=60, deadline=None)
@given(
    forces=st.lists(
        st.tuples(st.floats(-8.0, -0.1), st.sampled_from("+-"), st.floats(-2.0, 2.0)),
        min_size=1, max_size=5,
    ),
    mu=st.tuples(moduli, moduli),
    d=st.floats(0.2, 8.0),
    phi=off_face,
)
def test_point_gradient_is_the_per_station_loop_bit_for_bit(forces, mu, d, phi):
    """For point forces grad_u0 sums the stations one by one, in order,
    exactly as the per-station loop on floats does."""
    bm = Bimaterial(*mu)
    loading = Loading(tuple(PointForce(*f) for f in forces))
    mu_b = bm.mu_plus if phi >= 0.0 else bm.mu_minus
    g1 = g2 = 0.0
    stations, _ = decompose(loading)
    for x1, avg, jump in stations:
        t1, t2 = _reference_terms(x1, avg, jump, d, phi, mu_b, bm.mu_sum, bm.contrast)
        g1 += t1
        g2 -= t2
    scale = 1.0 / (math.pi * d)
    assert grad_u0(loading, bm, FieldPoint(d, phi)) == (g1 * scale, g2 * scale)


@st.composite
def tables(draw):
    n = draw(st.integers(3, 12))
    widths = draw(st.lists(st.floats(0.02, 1.0), min_size=n - 1, max_size=n - 1))
    near = draw(st.floats(0.05, 3.0))  # distance of the near end from the tip
    x = tuple(-near - sum(widths[k:]) for k in range(n))
    values = st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)
    return DistributedLoad(x, tuple(draw(values)), tuple(draw(values)))


@settings(max_examples=60, deadline=None)
@example(table=DistributedLoad((-2.125, -1.125, -1.0), (0.0, 0.0, 0.0), (0.0, 0.0, 2.2250738585e-313)),
         mu=(1.0, 1.0), where=0.0, phis=[math.pi - 1.0])  # a subnormal load: 1e-12 * scale is 0.0
@given(
    table=tables(),
    mu=st.tuples(moduli, moduli),
    where=st.floats(-0.5, 1.5),
    phis=st.lists(off_face.filter(lambda phi: abs(phi) >= 1e-3), min_size=1, max_size=3),
)
def test_lowered_table_sum_matches_fsum_of_its_stations(table, mu, where, phis):
    """The closed-form table gradient matches the mpmath residue reference
    at least 1e-2 rad from a face and 1e-3 rad from the interface (where
    the reference's roots merge): at one angle (grad_u0 on floats) and for
    a block of rows (the map's member evaluation, at two orientations),
    with d on or off the support.  The bound is 1e-12 of
    the sum of the panels' gradient norms, which is the norm of the
    gradient unless the random signed panels cancel, and at least 4 ulp
    of the reference's norm."""
    check_lowered_table_sum(table, mu, where, phis)


def check_lowered_table_sum(table, mu, where, phis):
    bm = Bimaterial(*mu)
    near, far = -table.x[-1], -table.x[0]
    d = near + where * (far - near)  # inside the support for 0 <= where <= 1
    if d <= 0.0:
        d = 0.5 * near
    loading = Loading((), table)
    refs = [tuple(map(float, converged(table_gradient_mp, table, bm, d, phi))) for phi in phis]
    for phi, (*ref, scale) in zip(phis, refs):
        got = grad_u0(loading, bm, FieldPoint(d, phi))
        # 1e-12 * scale is below one ulp of a subnormal gradient: a floor of 4 ulp keeps the bound attainable
        assert math.hypot(got[0] - ref[0], got[1] - ref[1]) <= max(1e-12 * scale, 4.0 * math.ulp(math.hypot(*ref)))
    defects = [Defect("microcrack", d=d, phi=0.0, alpha=a, l_a=0.1 * d) for a in (0.3, 1.9)]
    iso, dev = _dipole_parts(defects[0])
    rows = _harmonics(*loading.split, bm, [(d, phi, iso, dev) for phi in phis])
    assert len(rows) == len(phis)
    for (a, b, c), phi, (*ref, scale) in zip(rows, phis, refs):
        trig = _phi_trig(phi)
        want_a, want_b, want_c = _dk_harmonics(ref, tip_weight_vector(d, phi), iso, dev, bm.mu_series)
        for defect in defects:
            c2, s2 = _double_angle(defect.alpha)
            dk, want = a + b * c2 + c * s2, want_a + want_b * c2 + want_c * s2
            assert math.isfinite(dk)
            # |dK error| <= sqrt(2/pi) mu_series |grad error| |M c|, c the tip weight vector,
            # plus the rounding of the two sums, at most 1.5 eps of |a| + |b c2| + |c s2| each:
            # |M c| is near 0 at a nearly neutral orientation, the harmonics are not
            m = dipole_matrix(defect)
            mc = math.hypot(m.m11 * trig[4] - m.m12 * trig[5], m.m12 * trig[4] - m.m22 * trig[5])
            rounding = 4.0 * sys.float_info.epsilon * (abs(a) + abs(b * c2) + abs(c * s2))
            assert abs(dk - want) <= 1e-12 * scale * SQ2PI * bm.mu_series * mc * 0.5 / d**1.5 + rounding


def test_lowered_table_sum_bound_covers_the_rounding_of_the_harmonics_sum():
    """A draw of tables() (Hypothesis seed 79) on which the dK bound once
    failed by scaling only with |M c|: at phi = -0.847 and alpha = 0.3 the
    orientation is nearly neutral, |M c| is about 1e-4 of the harmonics,
    and dK missed its reference by 0.53 eps of |a| + |b c2| + |c s2|."""
    x = (-6.868372193261677, -6.641022699742343, -6.1869743763470755, -5.479576994564091, -4.533543047008955,
         -3.5794942962907887, -3.0932729873237013, -2.948320453116194, -2.9283204531161937, -2.4474007524064563,
         -1.9505195767050425)
    avg = (0.6794095682990244, -0.9930843093387023, -0.3643753296321218, -0.9741331261633999, -0.9913424711360843,
           -0.45555873531481816, -0.5636561886976391, 0.6342093557348678, 0.26402111275682416, -0.36114675188435486,
           -0.8002618986586292)
    jump = (-0.8462537677510493, -0.8826992962309657, -0.6976217996280054, 0.2962557474227585, 0.09586912397152392,
            -0.8213087426240855, -0.3570241357701355, -0.6583368183086686, -0.5128581229464352, -0.5896929319631202,
            1.203027553685254e-248)
    check_lowered_table_sum(DistributedLoad(x, avg, jump), (2.4636303971985494, 3.730288752889461),
                            1.379105899528097, [-0.847256271101593, 2.641592653589793])


@pytest.mark.xfail(
    strict=True, raises=AssertionError,
    reason="_table_sums loses digits when only a narrow near panel is loaded: grad_u0 misses the "
    "converged reference by 2.438e-16 against the bound 2.428e-16",
)
def test_table_sum_loses_digits_on_a_narrow_near_panel():
    """A draw of tables() on which the check above fails: 8 knots, every
    value 0 but avg = 1 at the near knot, so only the 0.0234-wide near
    panel is loaded; mu = (1, 1), d at the far end, phi = pi - 1."""
    x = (-6.5234375, -5.5234375, -4.5234375, -3.5234375, -2.5234375, -1.5234375, -1.0234375, -1.0)
    table = DistributedLoad(x, (0.0,) * 7 + (1.0,), (0.0,) * 8)
    check_lowered_table_sum(table, (1.0, 1.0), 1.0, [math.pi - 1.0])


def test_zero_end_panels_leave_the_kernels_bit_identical():
    """decompose drops the end panels of a table whose two knots carry no
    load; the gradient and (K0, A0) kernels read the same bits with and
    without them, so no result moves."""
    rng = np.random.default_rng(26)
    bm = Bimaterial(1.0, 3.0)
    for _ in range(500):
        lead, core, trail = (int(n) for n in rng.integers(1, 4, size=3))
        x = tuple(np.sort(-rng.uniform(0.2, 9.0, size=lead + core + trail)).tolist())
        avg, jump = ((0.0,) * lead + tuple(rng.uniform(-1.0, 1.0, size=core).tolist()) + (0.0,) * trail
                     for _ in range(2))
        full = (x, avg, jump)
        kept = slice(lead - 1, lead + core + 1)
        trimmed = (x[kept], avg[kept], jump[kept])
        assert decompose(Loading((), DistributedLoad(*full)))[1] == trimmed
        d, phis = rng.uniform(0.1, 10.0), rng.uniform(-3.1, 3.1, size=4).tolist()
        pairs = [(d, phi) for phi in phis]
        assert repr(_gradients((), full, bm, pairs)) == repr(_gradients((), trimmed, bm, pairs))
        assert repr(_coefficients((), full, bm.contrast)) == repr(_coefficients((), trimmed, bm.contrast))


PRESET_3_05 = three_point_preset(1.0, 3.0, 0.5)


STATION_MODULI = ((Bimaterial(1.0, 3.0), ""), (Bimaterial(2.0, 0.5), "-mu2,0.5"))  # (moduli, id suffix)


def station_params(cases, why):
    """The params of each (values, id, misses) case once per STATION_MODULI
    entry, the moduli after values and the entry's suffix after id.  misses
    holds, per entry, the error against the converged reference where the
    case misses the bound 1e-12, quoted by its strict xfail, or None."""
    for column, (bm, suffix) in enumerate(STATION_MODULI):
        for values, case_id, misses in cases:
            miss = misses[column]
            marks = () if miss is None else pytest.mark.xfail(strict=True, raises=AssertionError,
                                                                reason=f"{why}: the error is {miss}, above 1e-12")
            yield pytest.param(*values, bm, marks=marks, id=case_id + suffix)


# (face, gap), id, and the error of Bimaterial(1, 3) and (2, 0.5) where it misses the bound
FACE_CASES = [
    ((1.0, 0.1), "upper-0.1", (None, None)),
    ((1.0, 1e-5), "upper-1e-05", ("9.7e-7", "9.7e-7")),
    ((1.0, 1e-7), "upper-1e-07", ("8.1e-5", "8.1e-5")),
    ((-1.0, 0.1), "lower-0.1", (None, None)),
    ((-1.0, 1e-5), "lower-1e-05", ("3.4e-6", "9.0e-7")),
    ((-1.0, 1e-7), "lower-1e-07", ("3.3e-4", "8.8e-5")),
]


@pytest.mark.parametrize("face, gap, bm", station_params(
    FACE_CASES, "den = 2 cos(phi) + q + 1/q cancels at a loaded station's mirror"))
def test_station_gradient_near_a_face_keeps_its_digits(face, gap, bm):
    d, phi = 3.0 * (1.0 + 1e-6), face * (math.pi - gap)
    grad = grad_u0(PRESET_3_05, bm, FieldPoint(d, phi))
    assert gradient_error(grad, converged(station_gradient_mp, PRESET_3_05, bm, d, phi)) < 1e-12


_ZERO_GRADIENT = "1 (grad_u0 is (0.0, 0.0))"
TIP_CASES = [
    ((1e-8,), "1e-08", (None, None)),
    ((1e-30,), "1e-30", ("1.9e-2", "6.3e-2")),
    ((1e-100,), "1e-100", ("1.2e33", "9.6e33")),
    ((1e-200,), "1e-200", (_ZERO_GRADIENT, _ZERO_GRADIENT)),
    ((1e-300,), "1e-300", (_ZERO_GRADIENT, "2.4e133 (grad_u0 is (0.0, -2.2e282))")),
]


@pytest.mark.parametrize("d, bm", station_params(
    TIP_CASES, "each station's order-1 jump term cancels across the balanced stations and its rounding absorbs "
    "the 1/sqrt(q) K-field at phi = 0.3"))
def test_station_gradient_near_the_tip_keeps_the_k_field(d, bm):
    """The converged reference keeps the K-field at every d."""
    reference = converged(station_gradient_mp, PRESET_3_05, bm, d, 0.3)
    assert gradient_error(grad_u0(PRESET_3_05, bm, FieldPoint(d, 0.3)), reference) < 1e-12


FAR_STATION_ANGLES = (0.3, 2.5, -2.5)
FAR_STATION_DISTANCES = (1e2, 1e4, 1e8, 1e12, 1e16)
# The error of Bimaterial(1, 3) and (2, 0.5) by (phi, d) where it misses the bound; it meets it below 1e12
FAR_STATION_MISSES = {
    (0.3, 1e12): ("9.5e-12", "2.7e-11"), (0.3, 1e16): ("7.1e-10", "3.4e-9"),
    (2.5, 1e12): ("1.4e-11", "2.1e-11"), (2.5, 1e16): ("6.3e-10", "2.2e-9"),
    (-2.5, 1e12): ("1.9e-11", "8.6e-12"), (-2.5, 1e16): ("3.6e-9", "1.0e-10"),
}
FAR_CASES = [((phi, d), f"{phi:+}-{d:g}", FAR_STATION_MISSES.get((phi, d), (None, None)))
             for phi in FAR_STATION_ANGLES for d in FAR_STATION_DISTANCES]


@pytest.mark.parametrize("phi, d, bm", station_params(FAR_CASES, "the station sum cancels far from the load"))
def test_station_gradient_far_from_the_load_keeps_its_digits(phi, d, bm):
    """Far from the stations the gradient falls off like d^(-3/2), while
    each station's summands are of order 1/d and cancel; the bound is the
    near-face and near-tip siblings' 1e-12."""
    reference = converged(station_gradient_mp, PRESET_3_05, bm, d, phi)
    assert gradient_error(grad_u0(PRESET_3_05, bm, FieldPoint(d, phi)), reference) < 1e-12


@pytest.mark.parametrize("d, bm", [pytest.param(d, bm, id=f"{d}{suffix}") for bm, suffix in STATION_MODULI
                                   for d in FAR_STATION_DISTANCES])
def test_station_gradient_far_from_the_load_stays_within_a_ceiling(d, bm):
    """A plain ceiling of 1e-8 at every far d and angle, which the strict
    xfails above do not give: a kernel that lost digits far away (1.2e-7 at
    d = 1e16) would fail it."""
    for phi in FAR_STATION_ANGLES:
        reference = converged(station_gradient_mp, PRESET_3_05, bm, d, phi)
        assert gradient_error(grad_u0(PRESET_3_05, bm, FieldPoint(d, phi)), reference) < 1e-8


def _table_json():
    """The loading and bimaterial of tests/golden/table.json: point forces and a hat table."""
    spec = json.loads((Path(__file__).parent / "golden" / "table.json").read_text())
    forces = tuple(PointForce(*f) for f in spec["forces"])
    return Loading(forces, DistributedLoad(**spec["table"])), Bimaterial(*spec["bimaterial"])


K_FIELD_CASES = {"three_point": (PRESET_3_05, Bimaterial(1.0, 3.0)), "table_json": _table_json()}
NEAR_TIP_DISTANCES = (1e-8, 1e-12, 1e-16, 1e-20, 1e-30, 1e-100, 1e-200, 1e-300)
# The deviation from the K-field measured where it misses the bound, by (case, phi): at 1e-16 the
# rounding of the jump terms already exceeds the K-field's own O(sqrt d) correction.
_ZERO = "grad_u0 is (0, 0), a deviation of 1"
_NAN = "grad_u0 raises NumericalError: du/dx1 is not finite: nan"
K_FIELD_MISSES = {
    ("three_point", 0.3): ("9.4e-10 (bound 4.3e-11)", "5.4e-08", "1.9e-02", "1.2e+33", _ZERO, _ZERO),
    ("three_point", -0.3): ("3.9e-09 (bound 1.3e-10)", "7.3e-07", "8.0e-02", "3.6e+33", _ZERO, _ZERO),
    ("table_json", 0.3): ("7.2e-10 (bound 1.4e-10)", "5.2e-08", "9.7e-03", "5.9e+32", _NAN, _NAN),
    ("table_json", -0.3): ("1.0e-08 (bound 6.9e-10)", "3.0e-07", "2.8e-02", "3.0e+33", _NAN, _NAN),
}


def k_field_params():
    for (case, phi), misses in K_FIELD_MISSES.items():
        for d, miss in zip(NEAR_TIP_DISTANCES, (None, None, *misses)):
            marks = () if miss is None else pytest.mark.xfail(
                strict=True, raises=NumericalError if miss == _NAN else AssertionError,
                reason="the station sum loses the K-field next to the tip: at d = "
                f"{d:g} {miss if miss.startswith('grad_u0') else 'a deviation of ' + miss}")
            yield pytest.param(case, phi, d, marks=marks, id=f"{case}-{phi:+}-{d:g}")


@pytest.mark.parametrize("case, phi, d", k_field_params())
def test_gradient_tends_to_the_k_field_at_the_tip(case, phi, d):
    """sqrt(2 pi d) mu_b grad u0 / K0 tends to (-sin(phi/2), cos(phi/2)) as
    d -> 0, its deviation shrinking like sqrt(d): the bound is 1.05 C sqrt(d)
    + 4 eps, with C the deviation over sqrt(d) at d = 1e-8.  No mpmath: the
    limit is the paper's K-field, and the check reaches d = 1e-300."""
    loading, bm = K_FIELD_CASES[case]
    k0, mu_b = sif_k0(loading, bm), bm.mu_plus if phi >= 0.0 else bm.mu_minus
    want = (-math.sin(0.5 * phi), math.cos(0.5 * phi))

    def deviation(d):
        g1, g2 = grad_u0(loading, bm, FieldPoint(d, phi))
        scale = math.sqrt(2.0 * math.pi * d) * mu_b / k0
        return math.hypot(scale * g1 - want[0], scale * g2 - want[1])

    c = deviation(1e-8) / math.sqrt(1e-8)
    assert deviation(d) <= 1.05 * c * math.sqrt(d) + 4.0 * sys.float_info.epsilon


FAR_TABLES = {
    "hat": DistributedLoad((-3.0, -2.0, -1.0), (0.0, 1.0, 0.0), (0.0, 0.0, 0.0)),
    "balanced_jump": DistributedLoad((-5.0, -4.0, -3.0, -2.0, -1.0), (0.0, 0.5, 0.0, 0.25, 0.0),
                                     (0.0, 1.0, 0.0, -1.0, 0.0)),
}
FAR_DISTANCES = (1.5, 10.0, 1e2, 1e4, 1e6, 1e8)
# The error over the panels' gradient-norm sum measured where it misses 1e-12, from d = 1e2, by (table, phi)
# and then per STATION_MODULI entry.  The lower half-plane reads mu_minus; an avg-only table's relative
# error does not depend on the moduli, so the hat misses alike at both.
_HAT_MISSES = {0.3: ("2.2e-12", "2.8e-09", "1.1e-03", "99"), 2.5: ("1.1e-12", "6.1e-09", "4.3e-02", "4.0e+03")}
FAR_MISSES = {
    **{("hat", sign * phi): (misses, misses) for phi, misses in _HAT_MISSES.items() for sign in (1, -1)},
    ("balanced_jump", 0.3): ((None, "4.4e-10", "9.1e-08", "1.9e-02"), (None, "6.0e-11", "1.1e-06", "1.1e-02")),
    ("balanced_jump", 2.5): ((None, "5.7e-10", "4.7e-06", "0.77"), (None, "1.1e-10", "4.2e-05", "0.45")),
    ("balanced_jump", -0.3): ((None, "1.5e-10", "3.0e-08", "6.4e-03"), (None, "2.5e-10", "4.2e-06", "4.5e-02")),
    ("balanced_jump", -2.5): ((None, "2.0e-10", "1.6e-06", "0.26"), (None, "4.2e-10", "1.7e-04", "1.8")),
}


def far_field_params():
    for column, (bm, suffix) in enumerate(STATION_MODULI):
        for (name, phi), misses in FAR_MISSES.items():
            for d, miss in zip(FAR_DISTANCES, (None, None, *misses[column])):
                marks = () if miss is None else pytest.mark.xfail(
                    strict=True, raises=AssertionError,
                    reason=f"the table sum cancels far from its support: at d = {d:g} the error is {miss} of the "
                    "panels' gradient-norm sum, above 1e-12")
                yield pytest.param(name, phi, d, bm, marks=marks, id=f"{name}-{phi}-{d:g}{suffix}")


@pytest.mark.parametrize("name, phi, d, bm", far_field_params())
def test_table_gradient_far_from_its_support(name, phi, d, bm):
    """grad_u0 of a table alone, from next to its support to 1e8 away, in
    both half-planes, against the converged residue reference under the
    bound of test_lowered_table_sum_matches_fsum_of_its_stations: 1e-12 of
    the sum of the panels' gradient norms, and at least 4 ulp."""
    table = FAR_TABLES[name]
    g1, g2, scale = map(float, converged(table_gradient_mp, table, bm, d, phi))
    got = grad_u0(Loading((), table), bm, FieldPoint(d, phi))
    assert math.hypot(got[0] - g1, got[1] - g2) <= max(1e-12 * scale, 4.0 * math.ulp(math.hypot(g1, g2)))
