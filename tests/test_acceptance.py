"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criterion 6's literal phi-mirror sub-check is a known-unattainable
statement (see the combined-reflection test next to it) and is marked as a
strict expected failure.
"""

import io
import math
import time

import numpy as np
import pytest

from crackwake import (
    CrackState,
    Defect,
    FieldPoint,
    Loading,
    PairArrangement,
    coeff_a0,
    delta_k_defect,
    delta_k_defect_quadrature,
    delta_k_remote,
    dipole_matrix,
    displacement_u0,
    grad_u0,
    neutral_pair_a,
    neutral_pair_b,
    propagate,
    scan_map,
    sif_k0,
    three_point_preset,
    write_map_csv,
    write_trace_csv,
)
from crackwake.tipfields import SQRT_2_OVER_PI

from helpers import BIMATERIALS, as_matrix, hat_load, random_balanced_loading, random_defect, rel_err, sym_pair_at

REFERENCE_ARRANGEMENT = PairArrangement("a", l1=0.1, d1=1.0, d2=2.0)


def _report(num, label, ok, detail=""):
    print(f"\ncriterion {num} [{label}]: {'PASS' if ok else 'FAIL'}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} [{label}]: {detail}"


def _rel_mat(m_a, m_b):
    return np.linalg.norm(m_a - m_b) / np.linalg.norm(m_b)


def test_criterion_1_dipole_limits():
    t0 = time.perf_counter()
    base = dict(d=10.0, phi=0.2, alpha=0.8, l_a=0.2)
    checks = []

    soft = as_matrix(dipole_matrix(Defect("soft_line", kappa=1e9 * 0.2, **base)))
    crack = as_matrix(dipole_matrix(Defect("microcrack", **base)))
    checks.append(_rel_mat(soft, crack) < 1e-6)

    stiff = as_matrix(dipole_matrix(Defect("stiff_line", kappa=0.0, **base)))
    rigid = as_matrix(dipole_matrix(Defect("rigid_line", **base)))
    checks.append(np.array_equal(stiff, rigid))  # exact

    void = as_matrix(dipole_matrix(Defect("elliptic_void", l_b=1e-7 * 0.2, **base)))
    checks.append(_rel_mat(void, crack) < 1e-6)

    rigid_ell = as_matrix(dipole_matrix(Defect("rigid_ellipse", l_b=1e-7 * 0.2, **base)))
    checks.append(_rel_mat(rigid_ell, rigid) < 1e-6)

    soft_ell = as_matrix(dipole_matrix(Defect("elastic_ellipse", l_b=0.1, mu_star=1e-8, **base)))
    rigid_ell_fat = as_matrix(dipole_matrix(Defect("rigid_ellipse", l_b=0.1, **base)))
    checks.append(_rel_mat(soft_ell, rigid_ell_fat) < 1e-6)

    # axis-aligned ellipse against the conformal-map closed form
    rng = np.random.default_rng(7)
    a = rng.uniform(0.05, 1.0, size=1000)
    b = a * rng.uniform(0.05, 1.0, size=1000)
    mu = np.exp(rng.uniform(-3, 3, size=1000))
    mu0 = np.exp(rng.uniform(-3, 3, size=1000))
    e = b / a
    ms = mu / mu0
    pref = -0.5 * math.pi * a * b * (1.0 + e) * (ms - 1.0)
    got11 = pref * 2.0 / (e + ms)
    got22 = pref * 2.0 / (1.0 + e * ms)
    want11 = -math.pi * a * b * (a + b) * (mu - mu0) / (mu * a + mu0 * b)
    want22 = -math.pi * a * b * (a + b) * (mu - mu0) / (mu0 * a + mu * b)
    scale = np.maximum(np.abs(want11), np.abs(want22))
    err = np.maximum(np.abs(got11 - want11), np.abs(got22 - want22)) / scale
    checks.append(bool(np.all(err < 1e-12)))
    # the same entries through the Defect path, spot-checked
    for i in range(0, 1000, 97):
        m = dipole_matrix(
            Defect("elastic_ellipse", d=100.0, phi=0.1, alpha=0.0,
                   l_a=float(a[i]), l_b=float(b[i]), mu_star=float(ms[i]))
        )
        checks.append(rel_err(m.m11, float(want11[i])) < 1e-12)
        checks.append(rel_err(m.m22, float(want22[i])) < 1e-12)
        checks.append(m.m12 == 0.0)

    elapsed = time.perf_counter() - t0
    checks.append(elapsed < 1.0)
    _report(1, "dipole limit suite", all(checks), f"{elapsed:.2f}s")


def test_criterion_2_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260810)
    kinds = ("elastic_ellipse", "rigid_ellipse", "microcrack", "elliptic_void",
             "rigid_line", "soft_line", "stiff_line")
    etas = (0.0, 0.67, -0.67)
    accepted = 0
    worst = 0.0
    draws = 0
    while accepted < 100:
        draws += 1
        assert draws < 1000, "rejection loop runaway"
        kind = kinds[accepted % 7]
        bm = BIMATERIALS[etas[accepted % 3]]
        loading = random_balanced_loading(rng, with_distributed=(accepted % 2 == 1))
        defect = random_defect(rng, kind)
        grad = grad_u0(loading, bm, FieldPoint(defect.d, defect.phi))
        m = as_matrix(dipole_matrix(defect))
        scale = (
            SQRT_2_OVER_PI
            * bm.mu_plus * bm.mu_minus / bm.mu_sum
            * math.hypot(*grad)
            * np.linalg.norm(m, 2)
            * 0.5 / defect.d**1.5
        )
        closed = delta_k_defect(defect, loading, bm)
        if abs(closed) < 1e-3 * scale:
            continue  # keep the relative comparison meaningful
        quad = delta_k_defect_quadrature(defect, loading, bm)
        worst = max(worst, rel_err(closed, quad))
        accepted += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 30.0
    _report(2, "oracle equivalence", ok, f"worst rel {worst:.2e}, {elapsed:.1f}s, {draws} draws")


def test_criterion_3_field_consistency():
    loads = (sym_pair_at(1.0), three_point_preset(1.0, 3.0, 2.0))
    bms = (BIMATERIALS[0.0], BIMATERIALS[0.67])
    points = ((0.7, math.pi / 6), (2.0, math.pi / 3), (5.0, -2 * math.pi / 3),
              (1.3, -math.pi / 4), (3.0, 2.8))
    ok = True
    detail = []

    worst_fd = 0.0
    count = 0
    for loading in loads:
        for bm in bms:
            for d, phi in points:
                count += 1
                pt = FieldPoint(d, phi)
                g = grad_u0(loading, bm, pt)
                x0, y0 = pt.x, pt.y

                def u_at(x, y):
                    return displacement_u0(loading, bm, math.hypot(x, y),
                                           math.atan2(y, x), rtol=1e-10)

                def central(h):
                    return (
                        (u_at(x0 + h, y0) - u_at(x0 - h, y0)) / (2 * h),
                        (u_at(x0, y0 + h) - u_at(x0, y0 - h)) / (2 * h),
                    )

                h = 1e-4 * d
                c1 = central(h)
                c2 = central(0.5 * h)
                fd = tuple((4 * b - a) / 3.0 for a, b in zip(c1, c2))
                norm = math.hypot(*g)
                worst_fd = max(worst_fd, math.hypot(fd[0] - g[0], fd[1] - g[1]) / norm)
    ok &= count == 20 and worst_fd < 1e-4
    detail.append(f"FD worst {worst_fd:.2e} over {count} points")

    worst_iface = 0.0
    worst_face = 0.0
    for loading in loads:
        for bm in bms:
            for d in (0.8, 2.5):
                up = grad_u0(loading, bm, FieldPoint(d, 1e-15))
                dn = grad_u0(loading, bm, FieldPoint(d, -1e-15))
                scale = max(math.hypot(*up), math.hypot(*dn))
                worst_iface = max(
                    worst_iface,
                    abs(bm.mu_plus * up[1] - bm.mu_minus * dn[1])
                    / max(abs(bm.mu_plus * up[1]), abs(bm.mu_minus * dn[1]), scale),
                    abs(up[0] - dn[0]) / scale,
                )
            for d, sign in ((1.7, 1.0), (0.45, -1.0)):
                phi = sign * math.pi * (1 - 1e-12)
                mu = bm.mu_plus if sign > 0 else bm.mu_minus
                g2 = grad_u0(loading, bm, FieldPoint(d, phi))[1]
                worst_face = max(worst_face, abs(mu * g2) / 2.0)  # both loads: |p+| + |p-| summed is 2
    ok &= worst_iface < 1e-8 and worst_face < 1e-8
    detail.append(f"interface {worst_iface:.2e}, face {worst_face:.2e}")

    worst_mixed = 0.0
    loading, bm = loads[1], bms[1]

    def grad_at(x, y):
        return grad_u0(loading, bm, FieldPoint(math.hypot(x, y), math.atan2(y, x)))

    for x, y in ((0.9, 0.8), (-0.6, 1.2), (1.5, -0.9)):
        def cross(h):
            dg1_dy = (grad_at(x, y + h)[0] - grad_at(x, y - h)[0]) / (2 * h)
            dg2_dx = (grad_at(x + h, y)[1] - grad_at(x - h, y)[1]) / (2 * h)
            return dg1_dy, dg2_dx

        a1, b1 = cross(1e-4)
        a2, b2 = cross(5e-5)
        worst_mixed = max(worst_mixed, rel_err((4 * a2 - a1) / 3.0, (4 * b2 - b1) / 3.0))
    ok &= worst_mixed < 1e-5
    detail.append(f"mixed partials {worst_mixed:.2e}")

    _report(3, "field consistency", ok, "; ".join(detail))


def test_criterion_4_remote_asymptotics():
    cases = [
        (Defect("microcrack", d=1.0, phi=0.7, alpha=0.9, l_a=0.1), 0.0),
        (Defect("rigid_line", d=1.0, phi=0.7, alpha=0.9, l_a=0.1), 0.0),
        (Defect("elliptic_void", d=1.0, phi=0.7, alpha=0.9, l_a=0.1, l_b=0.06), 0.0),
        (Defect("rigid_ellipse", d=1.0, phi=0.7, alpha=0.9, l_a=0.1, l_b=0.06), 0.0),
        (Defect("soft_line", d=1.0, phi=0.7, alpha=0.9, l_a=0.1, kappa=0.8), 0.0),
        (Defect("stiff_line", d=1.0, phi=0.7, alpha=0.9, l_a=0.1, kappa=0.8), 0.0),
        (Defect("elastic_ellipse", d=1.0, phi=0.7, alpha=0.9, l_a=0.1, l_b=0.06, mu_star=4.0), 0.0),
        (Defect("microcrack", d=1.0, phi=0.7, alpha=0.9, l_a=0.1), 0.67),
        (Defect("microcrack", d=1.0, phi=-0.7, alpha=0.9, l_a=0.1), 0.67),
        (Defect("rigid_line", d=1.0, phi=-0.7, alpha=0.9, l_a=0.1), -0.67),
        (Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.1), 0.0),  # ahead: 2.5e-3
    ]
    ok = True
    worst_final = 0.0
    for defect, eta in cases:
        bm = BIMATERIALS[eta]
        want = delta_k_remote(defect, bm)
        assert abs(want) > 1e-6, "test case too close to neutral"
        diffs = []
        for a in (10.0, 1e2, 1e3, 1e5):
            loading = sym_pair_at(a)
            ratio = delta_k_defect(defect, loading, bm) / sif_k0(loading, bm)
            diffs.append(abs(ratio - want))
        ok &= all(d1 > d2 for d1, d2 in zip(diffs, diffs[1:]))  # monotone
        final = diffs[-1] / abs(want)
        worst_final = max(worst_final, final)
    ok &= worst_final < 0.01
    ahead = delta_k_remote(Defect("microcrack", d=1.0, phi=0.0, alpha=0.0, l_a=0.1), BIMATERIALS[0.0])
    ok &= rel_err(ahead, 2.5e-3) < 1e-12
    _report(4, "remote asymptotics", ok, f"worst final rel {worst_final:.2e}")


def test_criterion_5_neutrality():
    ok = True
    worst_b = 0.0
    loads = (
        sym_pair_at(3.0),
        three_point_preset(1.0, 5.0, 0.0),
        Loading((), hat_load(-2.5, 0.4, avg_coeff=-1.0, jump_coeff=0.0)),
    )
    for eta in (0.0, 0.67, -0.67):
        bm = BIMATERIALS[eta]
        for phi1, alpha1 in ((math.pi / 8, 0.3), (-1.1, 2.0), (2.7, 1.0)):
            mc = Defect("microcrack", d=1.0, phi=phi1, alpha=alpha1, l_a=0.1)
            rl = neutral_pair_b(mc, bm)
            for loading in loads:
                k0 = sif_k0(loading, bm)
                total = delta_k_defect(mc, loading, bm) + delta_k_defect(rl, loading, bm)
                worst_b = max(worst_b, abs(total) / abs(k0))
    ok &= worst_b < 1e-8

    mc = Defect("microcrack", d=1.0, phi=math.pi / 8, alpha=math.pi / 8, l_a=0.1)
    rl = neutral_pair_a(mc)
    residuals = []
    for a in (10.0, 1e2, 1e3, 1e4):
        loading = sym_pair_at(a)
        k0 = sif_k0(loading, bm := BIMATERIALS[0.0])
        residuals.append(abs(delta_k_defect(mc, loading, bm) + delta_k_defect(rl, loading, bm)) / abs(k0))
    ok &= all(r1 > r2 for r1, r2 in zip(residuals, residuals[1:]))
    ok &= residuals[-1] < 1e-3
    _report(5, "neutral pairs", ok, f"pair_b worst {worst_b:.2e}, pair_a at 1e4: {residuals[-1]:.2e}")


def _reference_map(a, pair="a", grid=(128, 64)):
    loading = three_point_preset(1.0, a, 0.0)
    if pair == "a":
        arrangement = REFERENCE_ARRANGEMENT
    else:
        arrangement = PairArrangement("b", l1=0.1, d1=1.0)
    t0 = time.perf_counter()
    m = scan_map(arrangement, loading, BIMATERIALS[0.0], grid=grid, delta=1e-6)
    return m, time.perf_counter() - t0


def test_criterion_6_map_topology():
    m3, t3 = _reference_map(3.0)
    m100, t100 = _reference_map(100.0)
    mb, tb = _reference_map(3.0, pair="b")
    ok = max(t3, t100, tb) < 60.0
    n3, n100 = m3.count("neutral"), m100.count("neutral")
    ok &= n100 > n3
    ok &= mb.count("neutral") == 128 * 64
    # the exact invariance of the eta=0, b=0 diagram: reflection about the
    # interface pairs (phi1, alpha1) with (-phi1, pi - alpha1)
    ok &= bool(np.all(m3.region == m3.region[::-1, ::-1]))
    ok &= bool(np.all(m100.region == m100.region[::-1, ::-1]))
    _report(6, "map topology", ok,
            f"neutral {n3} -> {n100}, pair_b all neutral, worst map time {max(t3, t100, tb):.1f}s")


@pytest.mark.xfail(
    strict=True,
    reason="known failure: the eta=0, b=0 diagram is invariant under the "
    "combined reflection (phi1, alpha1) -> (-phi1, pi - alpha1), not under "
    "phi1 -> -phi1 at fixed alpha1",
)
def test_criterion_6_literal_phi_mirror():
    m3, _ = _reference_map(3.0, grid=(64, 32))
    same = bool(np.all(m3.region == m3.region[::-1, :]))
    _report(6, "literal phi1-mirror (as stated)", same)


def _pair_a_state(phi1, alpha1):
    mc = Defect("microcrack", d=1.0, phi=phi1, alpha=alpha1, l_a=0.1)
    return CrackState(0.0, (mc, neutral_pair_a(mc)), three_point_preset(1.0, 3.0, 0.0), BIMATERIALS[0.0])


def test_criterion_7_propagation():
    t0 = time.perf_counter()
    arrest_tol = 1e-8  # d_ref = 1 for these runs
    ok = True
    detail = []

    elongations = {}
    for alpha1 in (0.0, math.pi / 8, math.pi / 4, 3 * math.pi / 8, math.pi / 2):
        trace = propagate(_pair_a_state(math.pi / 8, alpha1), max_iter=100_000)
        ok &= trace.verdict == "arrest"
        imax = int(np.argmax(trace.phi))
        ok &= imax > 0 and trace.phi[imax] > trace.phi[0]  # rises, then falls
        ok &= abs(trace.dk_total[-1]) < 0.5 * arrest_tol * abs(trace.a0[-1])
        elongations[alpha1] = trace.elongation
    ok &= max(elongations, key=elongations.get) == math.pi / 2
    detail.append("arrest group: rise-then-arrest at neutral configurations")

    for alpha1 in (3 * math.pi / 8, math.pi / 2, 5 * math.pi / 8, 3 * math.pi / 4):
        trace = propagate(_pair_a_state(7 * math.pi / 8, alpha1), max_iter=100_000)
        ok &= trace.verdict == "steady_state"
    detail.append(f"steady group: all steady_state; {time.perf_counter() - t0:.1f}s")
    _report(7, "propagation (arrest and steady state)", ok, "; ".join(detail))


def test_criterion_8_determinism():
    state = _pair_a_state(math.pi / 8, math.pi / 4)
    csvs = []
    for _ in range(2):
        buf = io.StringIO()
        write_trace_csv(propagate(state, max_iter=100_000), buf)
        csvs.append(buf.getvalue())
    ok = csvs[0] == csvs[1]

    loading = three_point_preset(1.0, 3.0, 0.0)
    maps = []
    for threads in (1, 1, 4):
        buf = io.StringIO()
        write_map_csv(
            scan_map(REFERENCE_ARRANGEMENT, loading, BIMATERIALS[0.0],
                     grid=(128, 64), delta=1e-6, threads=threads),
            buf,
        )
        maps.append(buf.getvalue())
    ok &= maps[0] == maps[1] == maps[2]
    _report(8, "determinism", ok, "trace and map outputs bit-identical across runs and threads")
