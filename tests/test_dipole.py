import dataclasses
import math

import numpy as np
import pytest
from pytest import approx

from crackwake import DEFECT_KINDS, Defect, DilutenessWarning, InvalidDefect, dipole_matrix

from helpers import random_defect

SOFT_KINDS = ("microcrack", "elliptic_void", "soft_line")
STIFF_KINDS = ("rigid_ellipse", "rigid_line", "stiff_line")


def mat(defect):
    return dipole_matrix(defect).as_matrix()


def rel_mat(m_a, m_b):
    return np.linalg.norm(m_a - m_b) / np.linalg.norm(m_b)


def appendix_ellipse_matrix(a, b, mu, mu0):
    """Independent closed form for an axis-aligned elastic ellipse: the
    conformal-map result diag entries -pi a b (a+b)(mu-mu0)/(mu a + mu0 b)
    and /(mu0 a + mu b)."""
    pref = -math.pi * a * b * (a + b)
    return np.array(
        [
            [pref * (mu - mu0) / (mu * a + mu0 * b), 0.0],
            [0.0, pref * (mu - mu0) / (mu0 * a + mu * b)],
        ]
    )


def test_microcrack_axis_aligned():
    m = mat(Defect("microcrack", d=10.0, phi=0.1, alpha=0.0, l_a=1.0))
    assert m == approx(-math.pi * np.array([[0.0, 0.0], [0.0, 1.0]]))


def test_rigid_line_axis_aligned():
    m = mat(Defect("rigid_line", d=10.0, phi=0.1, alpha=0.0, l_a=1.0))
    assert m == approx(math.pi * np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_circular_void():
    l = 0.07
    m = mat(Defect("elliptic_void", d=10.0, phi=0.1, alpha=1.1, l_a=l, l_b=l))
    assert m == approx(-2.0 * math.pi * l * l * np.eye(2))


def test_elastic_no_contrast_is_zero():
    m = mat(Defect("elastic_ellipse", d=10.0, phi=0.1, alpha=0.7, l_a=0.1, l_b=0.05, mu_star=1.0))
    assert m == approx(np.zeros((2, 2)), abs=1e-30)


def test_soft_line_large_kappa_approaches_microcrack():
    l, alpha = 0.2, 0.9
    soft = mat(Defect("soft_line", d=10.0, phi=0.1, alpha=alpha, l_a=l, kappa=1e9 * l))
    crack = mat(Defect("microcrack", d=10.0, phi=0.1, alpha=alpha, l_a=l))
    assert rel_mat(soft, crack) < 1e-8


def test_stiff_line_zero_kappa_equals_rigid_line():
    l, alpha = 0.2, 2.1
    stiff = mat(Defect("stiff_line", d=10.0, phi=0.1, alpha=alpha, l_a=l, kappa=0.0))
    rigid = mat(Defect("rigid_line", d=10.0, phi=0.1, alpha=alpha, l_a=l))
    assert np.array_equal(stiff, rigid)


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_symmetry_and_definiteness(kind):
    rng = np.random.default_rng(5)
    for _ in range(1000):
        defect = random_defect(rng, kind)
        m = mat(defect)
        assert m[0, 1] == m[1, 0]
        eigs = np.linalg.eigvalsh(m)
        tol = 1e-12 * np.linalg.norm(m)
        if kind in SOFT_KINDS or (kind == "elastic_ellipse" and defect.mu_star > 1.0):
            assert eigs.max() <= tol
        elif kind in STIFF_KINDS or (kind == "elastic_ellipse" and defect.mu_star < 1.0):
            assert eigs.min() >= -tol


@pytest.mark.parametrize("kind", DEFECT_KINDS)
def test_rotation_covariance(kind):
    rng = np.random.default_rng(11)
    for _ in range(50):
        defect = random_defect(rng, kind)
        base = mat(dataclasses.replace(defect, alpha=0.0))
        a = defect.alpha
        rot = np.array([[math.cos(a), -math.sin(a)], [math.sin(a), math.cos(a)]])
        assert rel_mat(mat(defect), rot @ base @ rot.T) < 1e-14


def test_limit_chain_void_to_microcrack():
    base = dict(d=10.0, phi=0.1, alpha=0.8, l_a=0.2)
    void = mat(Defect("elliptic_void", l_b=1e-7 * 0.2, **base))
    crack = mat(Defect("microcrack", **base))
    assert rel_mat(void, crack) < 1e-6


def test_limit_chain_rigid_ellipse_to_rigid_line():
    base = dict(d=10.0, phi=0.1, alpha=0.8, l_a=0.2)
    ell = mat(Defect("rigid_ellipse", l_b=1e-7 * 0.2, **base))
    line = mat(Defect("rigid_line", **base))
    assert rel_mat(ell, line) < 1e-6


def test_limit_chain_elastic_to_rigid_ellipse():
    base = dict(d=10.0, phi=0.1, alpha=0.8, l_a=0.2, l_b=0.1)
    soft = mat(Defect("elastic_ellipse", mu_star=1e-8, **base))
    rigid = mat(Defect("rigid_ellipse", **base))
    assert rel_mat(soft, rigid) < 1e-6


def test_limit_chain_elastic_void_to_microcrack():
    # mu_star -> inf (void) and e -> 0 together, with e*mu_star still large
    base = dict(d=10.0, phi=0.1, alpha=0.8, l_a=0.2)
    ell = mat(Defect("elastic_ellipse", mu_star=1e16, l_b=1e-7 * 0.2, **base))
    crack = mat(Defect("microcrack", **base))
    assert rel_mat(ell, crack) < 1e-6


def test_matches_conformal_map_ellipse():
    rng = np.random.default_rng(23)
    for _ in range(100):
        a = rng.uniform(0.05, 1.0)
        b = a * rng.uniform(0.05, 1.0)
        mu = math.exp(rng.uniform(-3, 3))
        mu0 = math.exp(rng.uniform(-3, 3))
        got = mat(Defect("elastic_ellipse", d=100.0, phi=0.1, alpha=0.0, l_a=a, l_b=b, mu_star=mu / mu0))
        want = appendix_ellipse_matrix(a, b, mu, mu0)
        assert rel_mat(got, want) < 1e-12


def test_alpha_normalized_to_half_period():
    d1 = Defect("microcrack", d=1.0, phi=0.1, alpha=math.pi + 0.3, l_a=0.1)
    assert d1.alpha == approx(0.3)
    d2 = Defect("microcrack", d=1.0, phi=0.1, alpha=-0.3, l_a=0.1)
    assert d2.alpha == approx(math.pi - 0.3)
    # -1e-17 % pi rounds to pi itself, which must come out as 0, inside [0, pi)
    for alpha in (-1e-17, -5e-324, math.pi, -math.pi):
        assert Defect("microcrack", d=1.0, phi=0.1, alpha=alpha, l_a=0.1).alpha == 0.0


def test_cartesian_round_trip():
    defect = Defect.from_cartesian("microcrack", 0.6, -0.8, alpha=0.2, l_a=0.05)
    assert defect.d == approx(1.0)
    assert defect.x == approx(0.6)
    assert defect.y == approx(-0.8)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(kind="wormhole", d=1.0, phi=0.0, alpha=0.0, l_a=0.1),
        dict(kind="microcrack", d=-1.0, phi=0.0, alpha=0.0, l_a=0.1),
        dict(kind="microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.0),
        dict(kind="elliptic_void", d=1.0, phi=0.0, alpha=0.0, l_a=0.1, l_b=0.0),
        dict(kind="elliptic_void", d=1.0, phi=0.0, alpha=0.0, l_a=0.1, l_b=0.2),
        dict(kind="elastic_ellipse", d=1.0, phi=0.0, alpha=0.0, l_a=0.1, l_b=0.05, mu_star=0.0),
        dict(kind="soft_line", d=1.0, phi=0.0, alpha=0.0, l_a=0.1, kappa=-1.0),
    ],
)
def test_invalid_defects_rejected(kwargs):
    with pytest.raises(InvalidDefect):
        Defect(**kwargs)


def test_diluteness_warning():
    with pytest.warns(DilutenessWarning):
        Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.5)


@pytest.mark.parametrize(
    "field, value",
    [("d", math.inf), ("phi", math.nan), ("alpha", math.nan), ("alpha", math.inf),
     ("l_a", math.inf), ("l_b", math.nan), ("mu_star", math.inf), ("kappa", math.nan)],
)
def test_non_finite_defect_parameters_rejected(field, value):
    kwargs = dict(kind="elastic_ellipse", d=1.0, phi=0.3, alpha=0.2, l_a=0.1, l_b=0.05)
    kwargs[field] = value
    with pytest.raises(InvalidDefect):
        Defect(**kwargs)


def test_defect_on_the_crack_faces_rejected():
    for phi in (math.pi, -math.pi):
        with pytest.raises(InvalidDefect):
            Defect("microcrack", d=1.0, phi=phi, alpha=0.0, l_a=0.1)
    with pytest.raises(InvalidDefect):
        Defect.from_cartesian("microcrack", -1.0, 0.0, alpha=0.0, l_a=0.1)
    with pytest.raises(InvalidDefect):
        Defect.from_cartesian("microcrack", -1.0, -0.0, alpha=0.0, l_a=0.1)


def test_diluteness_warning_points_to_the_caller():
    with pytest.warns(DilutenessWarning) as caught:
        Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.5)
    assert caught[0].filename == __file__
