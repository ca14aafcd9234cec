import io
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crackwake import (
    Bimaterial,
    DistributedLoad,
    Loading,
    PairArrangement,
    PointForce,
    ValidationError,
    classify,
    delta_k_defect,
    scan_map,
    sif_k0,
    three_point_preset,
)
from crackwake.mapgen import MAP_RTOL, write_map_csv, write_map_pgm

from helpers import sym_pair_at


def test_classify_regions():
    delta = 1e-6
    assert classify(-2 * delta, delta) == "shielding"
    assert classify(0.0, delta) == "neutral"
    assert classify(2 * delta, delta) == "amplification"
    # boundaries inclusive to neutral
    assert classify(-delta, delta) == "neutral"
    assert classify(delta, delta) == "neutral"


def test_classify_requires_positive_delta():
    with pytest.raises(ValidationError):
        classify(0.0, 0.0)


@given(
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
    st.floats(min_value=1e-9, max_value=1e-2),
    st.floats(min_value=1e-9, max_value=1e-2),
)
def test_classify_shrinking_delta_only_drains_neutral(ratio, d_big, d_small):
    """Shrinking delta may move cells out of neutral, never S <-> A."""
    big, small = max(d_big, d_small), min(d_big, d_small)
    before = classify(ratio, big)
    after = classify(ratio, small)
    if before != after:
        assert before == "neutral"


def small_map(bm, loading, pair="a", grid=(16, 8), **kwargs):
    arrangement = PairArrangement(pair, l1=0.1, d1=1.0, d2=2.0 if pair == "a" else None)
    return scan_map(arrangement, loading, bm, grid=grid, delta=1e-6, **kwargs)


def test_scan_map_grid_layout(bm_equal):
    m = small_map(bm_equal, three_point_preset(1.0, 3.0, 0.0))
    assert len(m.phi1) == 16 and len(m.alpha1) == 8
    assert m.phi1[0] == pytest.approx(-math.pi + math.pi / 16)
    assert m.alpha1[0] == pytest.approx(math.pi / 16)
    # phi cell centers are symmetric about zero
    assert np.allclose(m.phi1, -m.phi1[::-1])


def test_scan_map_combined_reflection_symmetry(bm_equal):
    """eta = 0, b = 0: reflection about the interface maps cell
    (phi1, alpha1) to (-phi1, pi - alpha1) with identical labels."""
    m = small_map(bm_equal, three_point_preset(1.0, 3.0, 0.0))
    assert np.all(m.region == m.region[::-1, ::-1])
    assert np.max(np.abs(m.ratio - m.ratio[::-1, ::-1])) < 1e-16


def test_scan_map_cells_match_direct_evaluation(bm_equal):
    loading = three_point_preset(1.0, 3.0, 1.0)
    m = small_map(bm_equal, loading, grid=(4, 4))
    arrangement = PairArrangement("a", l1=0.1, d1=1.0, d2=2.0)
    k0 = sif_k0(loading, bm_equal)
    for i in (0, 3):
        for j in (1, 2):
            mc, rl = arrangement.defects(float(m.phi1[i]), float(m.alpha1[j]), bm_equal)
            dk = delta_k_defect(mc, loading, bm_equal, rtol=MAP_RTOL)
            dk += delta_k_defect(rl, loading, bm_equal, rtol=MAP_RTOL)
            assert m.ratio[i, j] == dk / k0


def test_scan_map_neutral_region_grows_with_distance(bm_equal):
    near = small_map(bm_equal, three_point_preset(1.0, 3.0, 0.0), grid=(32, 16))
    far = small_map(bm_equal, three_point_preset(1.0, 100.0, 0.0), grid=(32, 16))
    assert far.count("neutral") > near.count("neutral")


def test_scan_map_pair_b_symmetric_load_all_neutral(bm_equal):
    m = small_map(bm_equal, sym_pair_at(3.0), pair="b", grid=(16, 8))
    assert m.count("neutral") == 16 * 8


def test_scan_map_deterministic_across_threads(bm_equal):
    loading = three_point_preset(1.0, 3.0, 1.0)
    serial = small_map(bm_equal, loading)
    threaded = small_map(bm_equal, loading, threads=4)
    assert np.array_equal(serial.ratio, threaded.ratio)
    assert np.all(serial.region == threaded.region)


def test_scan_map_validates_grid_and_delta(bm_equal):
    arrangement = PairArrangement("a", l1=0.1, d1=1.0)
    with pytest.raises(ValidationError):
        scan_map(arrangement, sym_pair_at(3.0), bm_equal, grid=(1, 8))
    with pytest.raises(ValidationError):
        scan_map(arrangement, sym_pair_at(3.0), bm_equal, delta=0.0)
    with pytest.raises(ValidationError):
        PairArrangement("c", l1=0.1, d1=1.0)


def test_map_csv_format(bm_equal):
    m = small_map(bm_equal, three_point_preset(1.0, 3.0, 0.0), grid=(4, 4))
    buf = io.StringIO()
    write_map_csv(m, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "phi1,alpha1,ratio,region"
    assert len(lines) == 1 + 16
    first = lines[1].split(",")
    assert float(first[0]) == pytest.approx(m.phi1[0], rel=1e-8)
    assert first[3] in {"S", "A", "N"}
    # row-major: phi1 constant over each alpha sweep
    phis = [float(l.split(",")[0]) for l in lines[1:6]]
    assert phis[0] == phis[1] == phis[2] == phis[3] != phis[4]

    # exact bytes of an odd grid, whose middle row sits on phi1 = 0
    m = small_map(bm_equal, three_point_preset(1.0, 3.0, 1.0), grid=(3, 2))
    buf = io.StringIO()
    write_map_csv(m, buf)
    assert buf.getvalue() == (
        "phi1,alpha1,ratio,region\n"
        "-2.0943951,0.785398163,-0.000368035967,S\n"
        "-2.0943951,2.35619449,-0.00070217933,S\n"
        "0,0.785398163,0.000184159694,A\n"
        "0,2.35619449,0.000194494054,A\n"
        "2.0943951,0.785398163,-0.000527793772,S\n"
        "2.0943951,2.35619449,-0.000523821944,S\n"
    )


def test_map_pgm_format(bm_equal):
    m = small_map(bm_equal, three_point_preset(1.0, 3.0, 0.0), grid=(6, 3))
    buf = io.StringIO()
    write_map_pgm(m, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "P2"
    assert lines[1] == "6 3"
    assert lines[2] == "255"
    pixels = [int(v) for row in lines[3:] for v in row.split()]
    assert len(pixels) == 18
    assert set(pixels) <= {170, 85, 40, 0}
    # top row is the largest alpha
    top = [int(v) for v in lines[3].split()]
    grey = {"shielding": 170, "amplification": 85, "neutral": 40, "invalid": 0}
    assert top == [grey[str(m.region[i, 2])] for i in range(6)]


def test_scan_map_marks_failed_cells_invalid(bm_equal, monkeypatch):
    """A numerical failure poisons only the cells it touches, never the scan."""
    import crackwake.mapgen as mapgen
    from crackwake.errors import QuadratureFailure

    real = mapgen._check_face
    target = {}

    def flaky(dec, d, phi):
        if d == 1.0 and abs(phi - target["phi"]) < 1e-12:
            raise QuadratureFailure("boom")
        return real(dec, d, phi)

    loading = Loading(
        (PointForce(-3.0, "+", 1.0),),
        DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0)),
    )
    arrangement = PairArrangement("a", l1=0.1, d1=1.0, d2=2.0)
    probe = scan_map(arrangement, loading, bm_equal, grid=(4, 4))
    assert probe.count("invalid") == 0
    target["phi"] = float(probe.phi1[1])
    monkeypatch.setattr(mapgen, "_check_face", flaky)
    m = scan_map(arrangement, loading, bm_equal, grid=(4, 4))
    assert m.count("invalid") == 4
    assert all(str(r) == "invalid" for r in m.region[1, :])
    assert np.all(np.isnan(m.ratio[1, :]))
    keep = [0, 2, 3]
    assert np.array_equal(m.ratio[keep], probe.ratio[keep])
    buf = io.StringIO()
    write_map_csv(m, buf)
    assert buf.getvalue().count(",X") == 4


def test_scan_map_non_finite_ratio_is_invalid():
    """Moduli so small that the gradient overflows while K0 stays finite:
    every ratio is inf or nan, and every cell is X rather than S/A/N."""
    bm = Bimaterial(1e-300, 1e-300)
    m = small_map(bm, three_point_preset(1e10, 3.0, 1.0), grid=(4, 2))
    assert m.count("invalid") == 8
    assert np.all(np.isnan(m.ratio))
    buf = io.StringIO()
    write_map_csv(m, buf)
    assert buf.getvalue().count(",nan,X\n") == 8


mu_values = st.floats(min_value=0.2, max_value=5.0)
stations = st.lists(
    st.tuples(
        st.floats(min_value=-5.0, max_value=-0.2),
        st.sampled_from("+-"),
        st.floats(min_value=-2.0, max_value=2.0).filter(lambda p: abs(p) > 1e-3),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=40, deadline=None)
@given(
    mu_values,
    mu_values,
    stations,
    st.sampled_from("ab"),
    st.floats(min_value=0.5, max_value=2.0),
    st.one_of(st.none(), st.floats(min_value=0.5, max_value=3.0)),
    st.integers(min_value=2, max_value=6),
    st.integers(min_value=2, max_value=4),
)
def test_scan_map_matches_per_cell_reference(mu_p, mu_m, forces, pair, d1, d2, n_phi, n_alpha):
    """The batched grid equals the sum of the two scalar delta_k_defect
    values of each cell, over K0."""
    bm = Bimaterial(mu_p, mu_m)
    loading = Loading(tuple(PointForce(x1, face, p) for x1, face, p in forces))
    k0 = sif_k0(loading, bm)
    assume(abs(k0) > 1e-9)
    arrangement = PairArrangement(pair, l1=0.05 * d1, d1=d1, d2=d2)
    m = scan_map(arrangement, loading, bm, grid=(n_phi, n_alpha), delta=1e-6)
    for i, phi1 in enumerate(m.phi1):
        for j, alpha1 in enumerate(m.alpha1):
            mc, companion = arrangement.defects(float(phi1), float(alpha1), bm)
            dk = delta_k_defect(mc, loading, bm, rtol=MAP_RTOL)
            dk += delta_k_defect(companion, loading, bm, rtol=MAP_RTOL)
            expected = dk / k0
            assert abs(m.ratio[i, j] - expected) <= 1e-12 * abs(expected)
            assert str(m.region[i, j]) == classify(expected, 1e-6)


def test_point_force_map_never_imports_scipy():
    """crackwake needs numpy only: a point-force map loads no scipy."""
    code = (
        "import sys, crackwake as cw\n"
        "bm = cw.Bimaterial(1.0, 5.0)\n"
        "loading = cw.three_point_preset(1.0, 3.0, 1.0)\n"
        "cw.sif_k0(loading, bm)\n"
        "cw.scan_map(cw.PairArrangement('a', l1=0.1, d1=1.0), loading, bm, grid=(8, 4))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_table_loading_never_imports_scipy():
    """A table is lowered to point stations: K0, the gradient, propagation
    and maps all run without scipy."""
    code = (
        "import sys, crackwake as cw\n"
        "bm = cw.Bimaterial(1.0, 5.0)\n"
        "table = cw.DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0))\n"
        "loading = cw.Loading((cw.PointForce(-3.0, '+', 1.0),), table)\n"
        "cw.sif_k0(loading, bm)\n"
        "cw.grad_u0(loading, bm, cw.FieldPoint(2.1, 3.0))\n"
        "mc = cw.Defect('microcrack', d=1.0, phi=0.4, alpha=0.3, l_a=0.1)\n"
        "cw.propagate(cw.CrackState(0.0, (mc,), loading, bm), max_iter=3)\n"
        "cw.scan_map(cw.PairArrangement('a', l1=0.1, d1=1.0), loading, bm, grid=(8, 4))\n"
        "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=120)


def test_scan_map_marks_rows_missing_the_lowering_check_invalid(bm_equal, monkeypatch):
    """A table row whose 16- and 32-node lowerings disagree beyond the map
    tolerance is X, and the scan carries on.  A negative tolerance is one
    that no row meets, even where the two rules agree to the last bit."""
    import crackwake.mapgen as mapgen

    loading = Loading(
        (PointForce(-3.0, "+", 1.0),),
        DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0)),
    )
    arrangement = PairArrangement("a", l1=0.1, d1=1.0, d2=2.0)
    assert scan_map(arrangement, loading, bm_equal, grid=(4, 4)).count("invalid") == 0
    monkeypatch.setattr(mapgen, "MAP_RTOL", -1.0)
    m = scan_map(arrangement, loading, bm_equal, grid=(4, 4))
    assert m.count("invalid") == 16
    assert np.all(np.isnan(m.ratio))
