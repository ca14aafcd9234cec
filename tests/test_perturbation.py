import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from pytest import approx

from crackwake import (
    DEFECT_KINDS,
    Bimaterial,
    Defect,
    DilutenessWarning,
    FieldPoint,
    InvalidDefect,
    Loading,
    NumericalError,
    ValidationError,
    delta_k_defect,
    delta_k_defect_quadrature,
    delta_k_remote,
    dipole_matrix,
    grad_u0,
    neutral_pair_a,
    neutral_pair_b,
    parse_scenario,
    sif_k0,
    three_point_preset,
    tip_weight_vector,
)

from crackwake.defects import _dipole_parts, _double_angle
from crackwake.oracles import _crack_line_field
from crackwake.perturbation import _dk_harmonics

from helpers import (BIMATERIALS, delta_k_advance, delta_k_entrywise, delta_k_total, hat_load,
                     random_balanced_loading, random_defect, rel_err, scaled, sym_pair_at)
from reference import contraction_mp, converged

SQ2PI = math.sqrt(2.0 / math.pi)


def test_tip_weight_vector_norm():
    for d, phi in ((0.3, 0.1), (2.0, -2.9), (7.0, 1.2)):
        c1, c2 = tip_weight_vector(d, phi)
        assert math.hypot(c1, c2) == approx(0.5 / d**1.5, rel=1e-15)


@pytest.mark.parametrize("d, phi", [(-1.0, 0.3), (0.0, 0.3), (math.nan, 0.3), (math.inf, 0.3), (-math.inf, 0.3),
                                    (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf)])
def test_tip_weight_vector_refuses_a_bad_distance_or_angle(d, phi):
    """A d that is not positive and finite, or a phi that is not finite, is
    refused before the power: not a TypeError from a complex d**1.5, a
    math domain error or a NaN vector."""
    with pytest.raises(ValidationError, match="^tip weight vector needs finite d > 0 and finite phi"):
        tip_weight_vector(d, phi)


# gradient and weight components over 60 decades, so no product underflows
components = st.just(0.0) | st.floats(1e-30, 1e30) | st.floats(-1e30, -1e-30)
# alpha at the edges of _mod_pi: rounding to pi itself, the middle, the last float below pi
orientations = st.sampled_from([-1e-300, 0.5 * math.pi, math.nextafter(math.pi, 0.0)]) | st.floats(-10.0, 10.0)


@pytest.mark.parametrize("kind", DEFECT_KINDS)
@settings(max_examples=60, deadline=None)
@given(
    grad=st.tuples(components, components),
    weights=st.tuples(components, components),
    alpha=orientations,
    l_a=st.floats(1e-3, 1e3),
    aspect=st.floats(1e-3, 1.0),
    stiffness=st.floats(1e-3, 1e3),
    mu=st.tuples(st.floats(1e-2, 1e2), st.floats(1e-2, 1e2)),
)
def test_harmonic_kernel_matches_a_40_digit_contraction(kind, grad, weights, alpha, l_a, aspect, stiffness, mu):
    """dK = a + b cos 2alpha + c sin 2alpha from _dk_harmonics is within a
    few rounding errors of the exact contraction of the same floats, and
    the entry-wise contraction it replaced meets the same bound."""
    extra = {"l_b": aspect * l_a} if kind in ("elastic_ellipse", "rigid_ellipse", "elliptic_void") else {}
    if kind == "elastic_ellipse":
        extra["mu_star"] = stiffness
    if kind in ("soft_line", "stiff_line"):
        extra["kappa"] = stiffness
    iso, dev = _dipole_parts(Defect(kind, d=4.0 * l_a, phi=0.5, alpha=alpha, l_a=l_a, **extra))
    mu_series = Bimaterial(*mu).mu_series
    a, b, c = _dk_harmonics(grad, weights, iso, dev, mu_series)
    c2, s2 = _double_angle(alpha)
    want = converged(contraction_mp, grad, weights, iso, dev, alpha, mu_series)
    bound = 8.0 * 2.0**-52 * SQ2PI * mu_series * (abs(iso) + abs(dev)) * math.hypot(*grad) * math.hypot(*weights)
    assert abs(a + b * c2 + c * s2 - want) <= bound
    assert abs(delta_k_entrywise(grad, weights, iso, dev, alpha, mu_series) - want) <= bound


def test_effective_tractions_zero_matrix(bm_pos, sym_pair):
    defect = Defect("elastic_ellipse", d=1.0, phi=0.4, alpha=0.3, l_a=0.1, l_b=0.05, mu_star=1.0)
    grad = grad_u0(sym_pair, bm_pos, FieldPoint(defect.d, defect.phi))
    w = _crack_line_field(defect, dipole_matrix(defect), grad)
    assert w([-0.5, -2.0, -10.0]) == [0.0, 0.0, 0.0]


def test_effective_tractions_far_field_decay(bm_pos, sym_pair):
    defect = Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1)
    grad = grad_u0(sym_pair, bm_pos, FieldPoint(defect.d, defect.phi))
    w = _crack_line_field(defect, dipole_matrix(defect), grad)
    x1s = [-100.0, -1000.0, -10000.0]
    products = [v * x1 * x1 for v, x1 in zip(w(x1s), x1s)]
    assert products[0] != 0.0
    assert rel_err(products[1], products[2]) < 5e-3  # x1^2 w settles


def test_delta_k_zero_for_zero_dipole(bm_pos, sym_pair):
    defect = Defect("elastic_ellipse", d=1.0, phi=0.4, alpha=0.3, l_a=0.1, l_b=0.05, mu_star=1.0)
    assert delta_k_defect(defect, sym_pair, bm_pos) == 0.0
    assert delta_k_defect_quadrature(defect, sym_pair, bm_pos) == approx(0.0, abs=1e-25)


@pytest.mark.parametrize("moduli", [(1.0, 1e-12), (1e-12, 1.0), (1.0, 1e-300)])
@pytest.mark.parametrize("phi", [0.3, -0.3, 2.5])
def test_delta_k_oracle_at_high_contrast(moduli, phi):
    """The oracle's modulus factor is 2 mu_series, not a difference that
    cancels when one half-plane is 1e12 or 1e300 times softer, and its
    absolute error floor scales with it (behind the tip, phi = 2.5, a
    floor without it accepts a coarse first pass)."""
    bm = Bimaterial(*moduli)
    loading = three_point_preset(1.0, 3.0, 0.5)
    defect = Defect("microcrack", d=1.0, phi=phi, alpha=0.3, l_a=0.1)
    closed = delta_k_defect(defect, loading, bm)
    assert closed != 0.0
    assert rel_err(delta_k_defect_quadrature(defect, loading, bm), closed) < 1e-9


def test_delta_k_oracle_equivalence_random(bm_equal, bm_pos):
    rng = np.random.default_rng(42)
    kinds = ("microcrack", "rigid_line", "elastic_ellipse", "elliptic_void", "stiff_line")
    for i, kind in enumerate(kinds * 2):
        bm = bm_pos if i % 2 else bm_equal
        loading = random_balanced_loading(rng, with_distributed=False)
        defect = random_defect(rng, kind)
        closed = delta_k_defect(defect, loading, bm)
        quad = delta_k_defect_quadrature(defect, loading, bm)
        assert rel_err(closed, quad) < 1e-6


def test_overflowing_dk_raises_numerical_error():
    """Where the gradient overflows, delta_k_defect raises NumericalError
    instead of returning NaN, as sif_k0 does on a non-finite K0."""
    bm = Bimaterial(1e-150, 1e-150)  # the smallest equal pair whose product is a normal float
    loading = three_point_preset(1e300, 3.0, 1.0)
    assert math.isfinite(sif_k0(loading, bm))
    with pytest.raises(NumericalError, match="dK is not finite"):
        delta_k_defect(Defect("microcrack", d=1.0, phi=0.4, alpha=0.3, l_a=0.1), loading, bm)


def test_delta_k_superposition_and_linearity(bm_pos):
    loading = three_point_preset(1.0, 3.0, 1.0)
    defect = Defect("microcrack", d=1.0, phi=0.6, alpha=0.4, l_a=0.1)
    single = delta_k_defect(defect, loading, bm_pos)
    assert delta_k_total([defect, defect], loading, bm_pos) == approx(2.0 * single, rel=1e-15)
    assert delta_k_defect(defect, scaled(loading, 2.5), bm_pos) == approx(2.5 * single, rel=1e-14)


def test_delta_k_advance_values():
    assert delta_k_advance(0.0, 1.0) == 0.0
    assert delta_k_advance(0.1, 0.0) == 0.0
    assert delta_k_advance(0.1, 0.797885) == approx(0.03989425)


def test_remote_microcrack_ahead(bm_equal):
    defect = Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.1)
    assert delta_k_remote(defect, bm_equal) == approx(2.5e-3)


def test_remote_rigid_line_ahead_is_neutral(bm_equal):
    defect = Defect("rigid_line", d=1.0, phi=0.0, alpha=0.0, l_a=0.1)
    assert delta_k_remote(defect, bm_equal) == 0.0


def test_remote_circular_void_reduces_to_cosine(bm_pos):
    l, d = 0.1, 1.3
    for phi in (-2.1, -0.4, 0.9, 2.8):
        defect = Defect("elliptic_void", d=d, phi=phi, alpha=1.1, l_a=l, l_b=l)
        mu_op = bm_pos.mu_minus if phi >= 0 else bm_pos.mu_plus
        want = (l / d) ** 2 * mu_op / bm_pos.mu_sum * math.cos(phi)
        assert delta_k_remote(defect, bm_pos) == approx(want, rel=1e-12)


def test_remote_bond_line_limits(bm_pos):
    base = dict(d=1.0, phi=0.7, alpha=0.5, l_a=0.1)
    soft = Defect("soft_line", kappa=1e9 * 0.1, **base)
    crack = Defect("microcrack", **base)
    assert delta_k_remote(soft, bm_pos) == approx(delta_k_remote(crack, bm_pos), rel=1e-8)
    stiff = Defect("stiff_line", kappa=0.0, **base)
    rigid = Defect("rigid_line", **base)
    assert delta_k_remote(stiff, bm_pos) == delta_k_remote(rigid, bm_pos)


def test_neutral_pair_a_construction():
    mc = Defect("microcrack", d=1.0, phi=0.3, alpha=0.2, l_a=0.1)
    rl = neutral_pair_a(mc)
    assert rl.kind == "rigid_line"
    assert (rl.d, rl.l_a) == (2.0, approx(0.2))
    assert rl.phi == mc.phi
    assert rl.alpha == approx((0.2 - math.pi / 2) % math.pi)
    vertical = Defect("microcrack", d=1.0, phi=0.3, alpha=math.pi / 2, l_a=0.1)
    assert neutral_pair_a(vertical).alpha == 0.0


def test_neutral_pair_a_remote_cancellation(bm_equal, bm_pos):
    for bm in (bm_equal, bm_pos):
        for phi, alpha in ((0.4, 0.9), (-2.0, 2.3), (1.8, 0.1)):
            mc = Defect("microcrack", d=1.0, phi=phi, alpha=alpha, l_a=0.1)
            rl = neutral_pair_a(mc)
            total = delta_k_remote(mc, bm) + delta_k_remote(rl, bm)
            assert abs(total) <= 5e-16 * abs(delta_k_remote(mc, bm) or 1.0)


def test_neutral_pair_a_residual_decays(bm_equal):
    mc = Defect("microcrack", d=1.0, phi=math.pi / 8, alpha=math.pi / 8, l_a=0.1)
    rl = neutral_pair_a(mc)
    residuals = []
    for a in (10.0, 100.0, 1000.0):
        loading = sym_pair_at(a)
        k0 = sif_k0(loading, bm_equal)
        residuals.append(abs(delta_k_defect(mc, loading, bm_equal) + delta_k_defect(rl, loading, bm_equal)) / abs(k0))
    assert residuals[0] > residuals[1] > residuals[2]


def test_neutral_pair_b_construction(bm_equal, bm_pos):
    mc = Defect("microcrack", d=1.0, phi=math.pi / 8, alpha=0.2, l_a=0.1)
    mirror = neutral_pair_b(mc, bm_equal)
    assert mirror.kind == "rigid_line"
    assert mirror.phi == -mc.phi
    assert mirror.l_a == approx(0.1)
    assert mirror.alpha == approx(math.pi / 2 - 0.2)
    heavier = neutral_pair_b(mc, bm_pos)
    assert heavier.l_a == approx(0.1 * math.sqrt(bm_pos.mu_minus / bm_pos.mu_plus))


def test_neutral_pair_b_finite_distance_neutrality(bm_equal, bm_pos, bm_neg):
    """The mirrored pair cancels under any symmetric load at finite a."""
    loads = (
        sym_pair_at(3.0),
        three_point_preset(1.0, 5.0, 0.0),
        Loading((), hat_load(-2.5, 0.4, avg_coeff=-1.0, jump_coeff=0.0)),
    )
    for bm in (bm_equal, bm_pos, bm_neg):
        for phi, alpha in ((math.pi / 8, 0.3), (-1.1, 2.0)):
            mc = Defect("microcrack", d=1.0, phi=phi, alpha=alpha, l_a=0.1)
            rl = neutral_pair_b(mc, bm)
            for loading in loads:
                k0 = sif_k0(loading, bm)
                total = delta_k_defect(mc, loading, bm) + delta_k_defect(rl, loading, bm)
                assert abs(total) < 1e-8 * abs(k0)


def test_neutral_pair_requires_microcrack(bm_equal):
    rl = Defect("rigid_line", d=1.0, phi=0.3, alpha=0.2, l_a=0.1)
    with pytest.raises(InvalidDefect):
        neutral_pair_a(rl)
    with pytest.raises(InvalidDefect):
        neutral_pair_b(rl, bm_equal)


def test_remote_convergence_monotone(bm_equal):
    defect = Defect("microcrack", d=1.0, phi=0.7, alpha=0.9, l_a=0.1)
    want = delta_k_remote(defect, bm_equal)
    diffs = []
    for a in (10.0, 100.0, 1000.0):
        loading = sym_pair_at(a)
        ratio = delta_k_defect(defect, loading, bm_equal) / sif_k0(loading, bm_equal)
        diffs.append(abs(ratio - want))
    assert diffs[0] > diffs[1] > diffs[2]


KIND_PARAMS = {
    "elastic_ellipse": dict(l_b=0.06, mu_star=4.0),
    "rigid_ellipse": dict(l_b=0.06),
    "elliptic_void": dict(l_b=0.06),
    "soft_line": dict(kappa=0.8),
    "stiff_line": dict(kappa=0.8),
}


def off_axis_defect(kind, phi=0.7):
    return Defect(kind, d=1.3, phi=phi, alpha=0.9, l_a=0.1, **KIND_PARAMS.get(kind, {}))


@pytest.mark.parametrize("phi", [0.7, -0.7])
@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_remote_limit_of_every_kind(bm_pos, kind, phi):
    """dK/K0 under a symmetric pair at -a converges monotonically to the
    remote limit as a grows."""
    defect = off_axis_defect(kind, phi)
    want = delta_k_remote(defect, bm_pos)
    diffs = []
    for a in (10.0, 1e2, 1e3, 1e5):
        loading = sym_pair_at(a)
        ratio = delta_k_defect(defect, loading, bm_pos) / sif_k0(loading, bm_pos)
        diffs.append(abs(ratio - want))
    assert diffs[0] > diffs[1] > diffs[2] > diffs[3]
    assert diffs[-1] < 1e-2 * abs(want)


# (m11, m12, m22, delta_k_remote on bm_pos) of off_axis_defect(kind),
# recorded from the per-kind closed forms before they became one table
PINNED_PER_KIND = {
    "elastic_ellipse": (-0.0239287423549258, 0.0033802426270213657, -0.022351497247829217,
                        0.0016431374670761198),
    "rigid_ellipse": (0.0379283013849317, 0.009790184201224841, 0.042496470546967,
                      -0.0016904018703316284),
    "elliptic_void": (-0.042496470546967, 0.00979018420122484, -0.0379283013849317,
                      0.003146659252565776),
    "microcrack": (-0.01927684542578904, 0.015297162814413814, -0.012139081110108892,
                   0.0020824395804363268),
    "rigid_line": (0.012139081110108892, 0.015297162814413814, 0.01927684542578904,
                   0.0001929625793045282),
    "soft_line": (-0.017134973711812482, 0.013597478057256725, -0.010790294320096795,
                  0.0018510574048322909),
    "stiff_line": (0.011239889916767493, 0.014164039642975752, 0.017848930949804668,
                   0.00017866905491160018),
}


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_dipole_and_remote_limit_pinned(bm_pos, kind):
    defect = off_axis_defect(kind)
    m = dipole_matrix(defect)
    got = (m.m11, m.m12, m.m22, delta_k_remote(defect, bm_pos))
    assert got == approx(PINNED_PER_KIND[kind], rel=1e-12)


README_SCENARIO = parse_scenario((Path(__file__).parent / "golden" / "readme.cfg").read_text())
SCALING_WINDOW = pytest.mark.xfail(strict=True, reason="_dk_harmonics forms g . w (order d**-2.5) before the "
                                   "dipole parts (order d**2): at k = 210 the mantissas read -0.5474528781/"
                                   "-0.6737665240 for -0.5474531862/-0.6737673601, and at k = 215 both dK are "
                                   "+-0.0, with nothing raised")


@pytest.mark.parametrize("k", [-210, 200, *(pytest.param(k, marks=SCALING_WINDOW) for k in (205, 210, 215))])
def test_delta_k_defect_is_exact_under_length_scaling(k):
    """Every length of the README scenario times 4**k scales each dK by
    2**-3k exactly, so its mantissa stays; a NumericalError is the one
    other outcome allowed."""
    factor, bm = 4.0 ** k, README_SCENARIO.bimaterial
    loading = Loading(tuple(f.replace(x1=factor * f.x1) for f in README_SCENARIO.loading.forces))
    for defect in README_SCENARIO.defects:
        expected = math.frexp(delta_k_defect(defect, README_SCENARIO.loading, bm))[0]
        try:
            dk = delta_k_defect(defect.replace(d=factor * defect.d, l_a=factor * defect.l_a, l_b=factor * defect.l_b),
                                loading, bm)
        except NumericalError:
            continue
        assert math.frexp(dk)[0] == expected


@pytest.mark.parametrize("k", range(-270, 271, 5))
def test_delta_k_remote_is_exact_under_length_scaling(k):
    """Every length of the README defects times 4**k leaves the
    dimensionless ratio as it is, so its mantissa stays; a NumericalError
    is the one other outcome allowed."""
    factor, bm = 4.0 ** k, README_SCENARIO.bimaterial
    for defect in README_SCENARIO.defects:
        expected = math.frexp(delta_k_remote(defect, bm))[0]
        try:
            ratio = delta_k_remote(defect.replace(d=factor * defect.d, l_a=factor * defect.l_a,
                                                  l_b=factor * defect.l_b), bm)
        except NumericalError:
            continue
        assert math.frexp(ratio)[0] == expected


@pytest.mark.parametrize("d, la", [(1e-250, 1e-140), (1e300, 1e100)])
def test_distance_powers_outside_the_float_range_are_numerical_errors(d, la):
    """d**1.5 or d**2 that underflows to 0 or overflows is refused, not a
    ZeroDivisionError or OverflowError."""
    bm, loading = Bimaterial(1.0, 3.0), three_point_preset(1.0, 3.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DilutenessWarning)  # l/d = 1e110 at d = 1e-250, kept so l**2 is normal
        defect = Defect("microcrack", d=d, phi=0.3, alpha=0.2, l_a=la)
    with pytest.raises(NumericalError):
        tip_weight_vector(d, 0.3)
    with pytest.raises(NumericalError):
        delta_k_defect(defect, loading, bm)
    with pytest.raises(NumericalError):
        delta_k_remote(defect, bm)


def test_delta_k_remote_refuses_a_denominator_that_overflows():
    """At d = 1e154 the factor 2 pi mu_sum d**2 is inf and the ratio read
    0.0; a decade nearer it is still the ratio of l/d = 0.1."""
    bm = Bimaterial(1.0, 3.0)
    near = delta_k_remote(Defect("microcrack", d=1.0, phi=0.3, alpha=0.2, l_a=0.1), bm)
    assert delta_k_remote(Defect("microcrack", d=1e153, phi=0.3, alpha=0.2, l_a=1e152), bm) == near
    with pytest.raises(NumericalError):
        delta_k_remote(Defect("microcrack", d=1e154, phi=0.3, alpha=0.2, l_a=1e153), bm)
