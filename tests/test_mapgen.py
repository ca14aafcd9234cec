import io
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from crackwake import (
    Bimaterial,
    DistributedLoad,
    Loading,
    PairArrangement,
    PointForce,
    RegionMap,
    ValidationError,
    delta_k_defect,
    scan_map,
    sif_k0,
    three_point_preset,
)
from crackwake.mapgen import REGION_GREY, REGION_LETTER, _classify, write_map_csv, write_map_pgm

from helpers import classify, sym_pair_at


def test_classify_regions():
    delta = 1e-6
    assert classify(-2 * delta, delta) == "shielding"
    assert classify(0.0, delta) == "neutral"
    assert classify(2 * delta, delta) == "amplification"
    # boundaries inclusive to neutral
    assert classify(-delta, delta) == "neutral"
    assert classify(delta, delta) == "neutral"
    # as scan_map labels a cell whose ratio is not finite
    for ratio in (math.nan, math.inf, -math.inf):
        assert classify(ratio, delta) == "invalid"


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
    phi1 = np.asarray(m.phi1)
    assert np.allclose(phi1, -phi1[::-1])


def test_region_map_views_follow_the_row_major_tuples(bm_equal):
    """The numpy views read the cells in the tuples' order, and count
    agrees with them."""
    m = small_map(bm_equal, three_point_preset(1.0, 3.0, 1.0), grid=(6, 3))
    assert m.ratio.shape == m.region.shape == (6, 3)
    assert m.ratio.ravel().tolist() == list(m.ratios)
    assert [str(r) for r in m.region.ravel()] == list(m.labels)
    assert m.ratio[4, 1] == m.ratios[4 * 3 + 1]
    for region in ("shielding", "amplification", "neutral", "invalid"):
        assert m.labels.count(region) == int(np.sum(m.region == region))
    assert sum(m.labels.count(r) for r in ("shielding", "amplification", "neutral")) == 18


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
            dk = delta_k_defect(mc, loading, bm_equal)
            dk += delta_k_defect(rl, loading, bm_equal)
            assert m.ratio[i, j] == dk / k0


@pytest.mark.parametrize("pair", ["a", "b"])
def test_scan_map_cells_across_the_interface_match_direct_evaluation(pair):
    """Odd grids put a row at phi1 = 0 and a column at alpha1 = pi/2;
    pair b sizes its companion by the side of the interface."""
    bm = Bimaterial(1.0, 5.0)
    loading = three_point_preset(1.0, 3.0, 1.0)
    m = small_map(bm, loading, pair=pair, grid=(5, 3))
    assert m.phi1[2] == 0.0
    arrangement = PairArrangement(pair, l1=0.1, d1=1.0, d2=2.0 if pair == "a" else None)
    k0 = sif_k0(loading, bm)
    for i, phi1 in enumerate(m.phi1):
        for j, alpha1 in enumerate(m.alpha1):
            dk = sum(delta_k_defect(member, loading, bm) for member in arrangement.defects(phi1, alpha1, bm))
            assert m.ratios[i * 3 + j] == dk / k0


def test_scan_map_neutral_region_grows_with_distance(bm_equal):
    near = small_map(bm_equal, three_point_preset(1.0, 3.0, 0.0), grid=(32, 16))
    far = small_map(bm_equal, three_point_preset(1.0, 100.0, 0.0), grid=(32, 16))
    assert far.labels.count("neutral") > near.labels.count("neutral")


def test_scan_map_pair_b_symmetric_load_all_neutral(bm_equal):
    m = small_map(bm_equal, sym_pair_at(3.0), pair="b", grid=(16, 8))
    assert m.labels.count("neutral") == 16 * 8


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
    for delta in (math.inf, math.nan):
        with pytest.raises(ValidationError):
            scan_map(arrangement, sym_pair_at(3.0), bm_equal, grid=(4, 4), delta=delta)
    for kwargs in ({"grid": (2.5, 3)}, {"grid": ("4", 4)}, {"grid": (4,)}, {"grid": None}, {"delta": "1e-6"},
                   {"delta": True}):
        with pytest.raises(ValidationError):
            scan_map(arrangement, sym_pair_at(3.0), bm_equal, **kwargs)
    as_list = scan_map(arrangement, sym_pair_at(3.0), bm_equal, grid=[4, 3])
    assert as_list == scan_map(arrangement, sym_pair_at(3.0), bm_equal, grid=(4, 3))
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


def test_scan_map_non_finite_ratio_is_invalid():
    """Moduli so small that the gradient overflows while K0 stays finite:
    every ratio is inf or nan, and every cell is X rather than S/A/N."""
    bm = Bimaterial(1e-150, 1e-150)  # the smallest equal pair whose product is a normal float
    m = small_map(bm, three_point_preset(1e300, 3.0, 1.0), grid=(4, 2))
    assert m.labels.count("invalid") == 8
    assert np.all(np.isnan(m.ratio))
    buf = io.StringIO()
    write_map_csv(m, buf)
    assert buf.getvalue().count(",nan,X\n") == 8


def test_classify_keeps_finite_ratios_whose_sum_overflows():
    rows = [[1e308, 1.5e308, -0.0], [1.7e308, -1e-300, 5e307]]
    assert math.isinf(sum(r for row in rows for r in row))
    kept, labels = _classify(rows, 1e-6)
    assert kept == (1e308, 1.5e308, -0.0, 1.7e308, -1e-300, 5e307)
    assert math.copysign(1.0, kept[2]) == -1.0
    assert labels == ("amplification",) * 2 + ("neutral", "amplification", "neutral", "amplification")
    for bad in (math.inf, -math.inf, math.nan):
        out, labels = _classify([[1e308, 1.5e308], [bad, 2.0]], 1e-6)
        assert out[:2] == (1e308, 1.5e308) and out[3] == 2.0
        assert math.isnan(out[2])
        assert labels == ("amplification", "amplification", "invalid", "amplification")


def plain_classify(rows, delta):
    """Cell by cell: a ratio that is not finite is nan and invalid, below
    -delta shielding, above delta amplification, and neutral otherwise."""
    ratios, labels = [], []
    for r in (r for row in rows for r in row):
        if not math.isfinite(r):
            ratios.append(math.nan)
            labels.append("invalid")
            continue
        ratios.append(r)
        labels.append("shielding" if r < -delta else "amplification" if r > delta else "neutral")
    return ratios, labels


@st.composite
def ratio_rows(draw):
    """delta, and rows mixing nan, +-inf, +-delta and its neighbours, +-0.0,
    subnormals, any float, and ratios near the largest float whose sum
    overflows."""
    delta = draw(st.floats(min_value=5e-324, max_value=1e300))
    cell = st.one_of(
        st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308]),
        st.sampled_from([delta, -delta, math.nextafter(delta, 0.0), -math.nextafter(delta, math.inf)]),
        st.builds(math.copysign, st.floats(min_value=1e307, max_value=1.7976931348623157e308),
                  st.sampled_from([1.0, -1.0])),
        st.floats(),
    )
    n_alpha = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.lists(cell, min_size=n_alpha, max_size=n_alpha), min_size=1, max_size=4))
    return rows, delta


@settings(max_examples=300)
@given(ratio_rows())
def test_classify_matches_the_plain_per_cell_rule(drawn):
    """The one-sum shortcut and the chained labels agree with the cell by
    cell rule: the same labels, nan in the same cells, -0.0 kept."""
    rows, delta = drawn
    ratios, labels = _classify(rows, delta)
    expected_ratios, expected_labels = plain_classify(rows, delta)
    assert labels == tuple(expected_labels)
    assert [repr(r) for r in ratios] == [repr(r) for r in expected_ratios]  # nan positions and the sign of 0.0


def test_scan_map_labels_finite_ratios_whose_sum_overflows(bm_equal, monkeypatch):
    """Cells near 1e308 in a map whose ratios overflow when summed are
    kept and labelled; only a row whose harmonics are inf becomes X."""
    import crackwake.mapgen as mapgen

    loading = three_point_preset(1.0, 3.0, 1.0)
    k0 = sif_k0(loading, bm_equal)
    grid = (4, 3)
    poisoned_phi = -math.pi + 2.5 * (2.0 * math.pi / grid[0])  # row 2

    def huge(points, table, bimaterial, members):
        return [(math.inf if phi == poisoned_phi else 4e307 * k0, 0.0, 0.0) for _, phi, _, _ in members]

    monkeypatch.setattr(mapgen, "_harmonics", huge)
    m = scan_map(PairArrangement("a", l1=0.1, d1=1.0, d2=2.0), loading, bm_equal, grid=grid)
    assert m.phi1[2] == poisoned_phi
    assert m.labels == ("amplification",) * 6 + ("invalid",) * 3 + ("amplification",) * 3
    kept = m.ratios[:6] + m.ratios[9:]
    assert all(r == 8e307 * k0 / k0 for r in kept)
    assert math.isinf(sum(kept))
    assert all(math.isnan(r) for r in m.ratios[6:9])


@pytest.mark.parametrize("grid", [(2, 2), (17, 3), (33, 5)])
def test_map_writers_match_a_naive_reference(grid):
    """Byte for byte against one formatted line per cell, on grids whose
    last 16-row block is partial, with a nan (X) cell and a -0.0 ratio."""
    n_phi, n_alpha = grid
    phis = tuple(-math.pi + (i + 0.5) * (2.0 * math.pi / n_phi) for i in range(n_phi))
    alphas = tuple((j + 0.5) * (math.pi / n_alpha) for j in range(n_alpha))
    ratios = [(-1) ** k * 10.0 ** (k % 13 - 9) * (1.0 + k / 7.0) for k in range(n_phi * n_alpha)]
    ratios[1] = math.nan
    ratios[-1] = -0.0
    ratios = tuple(ratios)
    labels = tuple(classify(r, 1e-6) for r in ratios)
    m = RegionMap(phis, alphas, ratios, labels)
    if n_phi > 2:
        assert {"invalid", "neutral", "shielding", "amplification"} <= set(labels)

    csv = io.StringIO()
    write_map_csv(m, csv)
    cells = [(p, a) for p in phis for a in alphas]
    assert csv.getvalue() == "phi1,alpha1,ratio,region\n" + "".join(
        f"{p:.9g},{a:.9g},{r:.9g},{REGION_LETTER[g]}\n" for (p, a), r, g in zip(cells, ratios, labels)
    )
    assert ",nan,X\n" in csv.getvalue() and csv.getvalue().endswith(",-0,N\n")

    pgm = io.StringIO()
    write_map_pgm(m, pgm)
    assert pgm.getvalue() == f"P2\n{n_phi} {n_alpha}\n255\n" + "".join(
        " ".join(str(REGION_GREY[labels[i * n_alpha + j]]) for i in range(n_phi)) + "\n"
        for j in reversed(range(n_alpha))
    )


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
    values of each cell, over K0, bit for bit."""
    bm = Bimaterial(mu_p, mu_m)
    loading = Loading(tuple(PointForce(x1, face, p) for x1, face, p in forces))
    k0 = sif_k0(loading, bm)
    assume(abs(k0) > 1e-9)
    arrangement = PairArrangement(pair, l1=0.05 * d1, d1=d1, d2=d2)
    m = scan_map(arrangement, loading, bm, grid=(n_phi, n_alpha), delta=1e-6)
    for i, phi1 in enumerate(m.phi1):
        for j, alpha1 in enumerate(m.alpha1):
            mc, companion = arrangement.defects(float(phi1), float(alpha1), bm)
            dk = delta_k_defect(mc, loading, bm)
            dk += delta_k_defect(companion, loading, bm)
            expected = dk / k0
            assert m.ratio[i, j] == expected
            assert str(m.region[i, j]) == classify(expected, 1e-6)


def test_scan_map_marks_rows_missing_the_lowering_check_invalid(bm_equal, monkeypatch):
    """A table row whose closed-form gradient is not finite is X, and the
    scan carries on: the other rows keep their values."""
    import crackwake.tipfields as tipfields

    loading = Loading(
        (PointForce(-3.0, "+", 1.0),),
        DistributedLoad((-2.5, -2.0, -1.5), (0.0, 0.5, 0.0), (0.0, -1.0, 0.0)),
    )
    arrangement = PairArrangement("a", l1=0.1, d1=1.0, d2=2.0)
    probe = scan_map(arrangement, loading, bm_equal, grid=(4, 4))
    assert probe.labels.count("invalid") == 0
    real = tipfields._table_sums
    sin_half = math.sin(0.5 * float(probe.phi1[2]))

    def poisoned(x, avg, jump, d, trigs, *rest):
        sums = real(x, avg, jump, d, trigs, *rest)
        return [(math.inf, math.nan) if d == 1.0 and t[2] == sin_half else s for s, t in zip(sums, trigs)]

    monkeypatch.setattr(tipfields, "_table_sums", poisoned)
    m = scan_map(arrangement, loading, bm_equal, grid=(4, 4))
    assert m.labels.count("invalid") == 4
    assert all(str(r) == "invalid" for r in m.region[2, :])
    assert np.all(np.isnan(m.ratio[2, :]))
    keep = [0, 1, 3]
    assert np.array_equal(m.ratio[keep], probe.ratio[keep])
    assert np.array_equal(m.region[keep], probe.region[keep])
    buf = io.StringIO()
    write_map_csv(m, buf)
    assert buf.getvalue().count(",X") == 4


def test_arrangement_refuses_an_unknown_pair_as_the_params_check_does():
    with pytest.raises(ValidationError, match="^pair expects \"a\" or \"b\", got 'c'$"):
        PairArrangement("c", 0.1, 1.0)


@pytest.mark.parametrize("l1, d1", [(0.0, 1.0), (0.1, 0.0), (-0.1, 1.0), (0.1, -2.0)])
def test_arrangement_rejects_non_positive_l1_or_d1(l1, d1):
    with pytest.raises(ValidationError, match="^arrangement needs positive l1 and d1$"):
        PairArrangement("a", l1=l1, d1=d1)


@pytest.mark.parametrize("l1, d1, d2", [(math.inf, 1.0, None), (0.1, math.inf, None), (0.1, 1.0, math.nan),
                                        (0.1, 1.0, -2.0), (0.1, 1.0, 0.0), (0.1, 1.0, math.inf)])
def test_arrangement_rejects_non_finite_lengths_and_a_bad_d2(l1, d1, d2):
    """Refused when built, not later by a Defect that scan_map makes."""
    with pytest.raises(ValidationError, match="^arrangement needs"):
        PairArrangement("b", l1=l1, d1=d1, d2=d2)


@pytest.mark.parametrize("p", [1.0, -1.0])
def test_map_refuses_a_loading_with_zero_k0(bm_equal, p):
    """p at x1 = -1 and -2p at -4, on both faces: their K0 terms cancel exactly."""
    loading = Loading(sym_pair_at(1.0, p).forces + sym_pair_at(4.0, -2.0 * p).forces)
    assert sif_k0(loading, bm_equal) == 0.0
    with pytest.raises(ValidationError, match="^map needs a loading with non-zero K0$"):
        scan_map(PairArrangement("a", l1=0.1, d1=1.0), loading, bm_equal, grid=(4, 4))
