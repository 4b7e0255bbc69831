"""Acceptance suite: one test per contract criterion, printed pass/fail.

Run with  pytest tests/test_acceptance.py -v -s  to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from tzlab import (Params, bubble_energy_sweep, build_grid,
                   classify_mass_pair, component_asymptotics_sweep,
                   constant_field, default_join_config, energy_J,
                   field_from_recipe, integrate, limit_mass_relation,
                   minimize, mt_threshold_scan, pohozaev_residual_profile,
                   quantization_table, residual_J,
                   shoot, NonConvergence, LineSearchStall)
from tzlab.cli import EXIT_OK, main as cli_main

from conftest import smooth_field


def report(tag: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] {tag}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_quantization_lattice():
    t0 = time.perf_counter()
    table = quantization_table(-6, 6)
    ok = bool(table)
    for mp in table:
        s1, s2 = int(mp.sigma1), int(mp.sigma2)
        ok &= limit_mass_relation(s1, s2) == 0
        ok &= s1 % 4 == 0 and s2 % 2 == 0
        ok &= (s1, s2) != (0, 0)
    elapsed = time.perf_counter() - t0
    report("criterion 1: quantization lattice exact over m in [-6, 6]",
           ok and elapsed < 1.0, f"{len(table)} pairs, {elapsed:.3f}s")


def test_criterion_2_pohozaev_identity():
    t0 = time.perf_counter()
    ok = True
    worst = 0.0
    for h2 in (0.0, 1.0):
        for alpha in (0.0, 5.0, 8.0):
            prof = shoot(alpha, 1.0, h2, 1.0, 1e-4)
            res, lhs = pohozaev_residual_profile(prof)
            rel = float(np.max(np.abs(res[1:]) / (1.0 + np.abs(lhs[1:]))))
            worst = max(worst, rel)
            ok &= rel < 1e-6
    orders = []
    for h2 in (0.0, 1.0):
        res = {}
        for step in (1e-3, 5e-4):
            prof = shoot(8.0, 1.0, h2, 1.0, step)
            res[step] = abs(pohozaev_residual_profile(prof)[0][-1])
        orders.append(float(np.log2(res[1e-3] / res[5e-4])))
    ok &= all(o >= 3.5 for o in orders)
    elapsed = time.perf_counter() - t0
    report("criterion 2: Pohozaev identity and integrator order",
           ok and elapsed < 30.0,
           f"worst rel {worst:.2e}, orders {[f'{o:.2f}' for o in orders]}, {elapsed:.1f}s")


def test_criterion_3_liouville_blowup_mass():
    t0 = time.perf_counter()
    prof = shoot(10.0, 1.0, 0.0, 1.0, 1e-4)
    mu2 = np.exp(10.0) / 8.0
    target = 4.0 * mu2 / (1.0 + mu2)
    sigma1 = float(prof.sigma1[-1])
    mp = classify_mass_pair(sigma1, float(prof.sigma2[-1]), tol=0.05)
    ok = abs(sigma1 - target) < 2e-3 and (mp.family, mp.m) == ("I", 1)
    elapsed = time.perf_counter() - t0
    report("criterion 3: Liouville blow-up mass and classification",
           ok and elapsed < 5.0,
           f"sigma1(1)={sigma1:.6f}, target={target:.6f}, {mp.label}, {elapsed:.1f}s")


def test_criterion_4_sharp_mt_thresholds():
    t0 = time.perf_counter()
    grid = build_grid(256)
    a1_list = [8 * np.pi - 2, 8 * np.pi, 8 * np.pi + 2]
    a2_list = [4 * np.pi - 1, 4 * np.pi, 4 * np.pi + 1]
    scan = mt_threshold_scan(a1_list, a2_list, grid, (25.0, 50.0, 100.0, 200.0, 400.0))
    ok = not scan.skipped
    worst = 0.0
    for i in range(3):
        for j in range(3):
            for cell in (scan.plus[i][j], scan.minus[i][j]):
                gap = abs(cell.fitted_slope - cell.predicted_slope)
                worst = max(worst, gap)
                ok &= gap <= max(0.5, 0.10 * abs(cell.predicted_slope))
    # the slope sign flips exactly at the sharp constants
    plus_slopes = [scan.plus[i][0].fitted_slope for i in range(3)]
    minus_slopes = [scan.minus[0][j].fitted_slope for j in range(3)]
    ok &= plus_slopes[0] > 0 > plus_slopes[2] and abs(plus_slopes[1]) <= 0.5
    ok &= minus_slopes[0] > 0 > minus_slopes[2] and abs(minus_slopes[1]) <= 0.5
    elapsed = time.perf_counter() - t0
    report("criterion 4: sharp two-exponent thresholds (8 pi, 4 pi)",
           ok and elapsed < 180.0,
           f"worst slope gap {worst:.3f}, plus {['%+.2f' % s for s in plus_slopes]}, "
           f"minus {['%+.2f' % s for s in minus_slopes]}, {elapsed:.1f}s")


def test_criterion_5_bubble_component_asymptotics():
    t0 = time.perf_counter()
    grid = build_grid(256)
    zeta = default_join_config(grid, 1, 1, 0.5)
    sweeps = component_asymptotics_sweep(zeta, grid, (25.0, 50.0, 100.0, 200.0, 400.0))
    expected = {"gradient": 20 * np.pi, "log_int_plus": 0.0,
                "log_int_minus": 6.0, "mean": -2.0}
    ok = True
    details = []
    for name, pred in expected.items():
        res = sweeps[name]
        assert res.predicted_slope == pytest.approx(pred)
        if pred == 0.0:
            ok &= abs(res.fitted_slope) <= 0.5
        else:
            ok &= abs(res.fitted_slope - pred) <= 0.10 * abs(pred)
        details.append(f"{name} {res.fitted_slope:+.3f}/{pred:+.3f}")
    elapsed = time.perf_counter() - t0
    report("criterion 5: bubble component asymptotics at k=l=1, s=1/2",
           ok and elapsed < 120.0, ", ".join(details) + f", {elapsed:.1f}s")


def test_criterion_6_test_function_divergence():
    t0 = time.perf_counter()
    grid = build_grid(256)
    one = constant_field(grid, 1.0)
    p = Params(10 * np.pi, 5 * np.pi, one, one)
    zeta = default_join_config(grid, 1, 1, 0.5)
    sweep = bubble_energy_sweep(zeta, p, (25.0, 50.0, 100.0, 200.0, 400.0))
    drop = float(sweep.values[0] - sweep.values[-1])
    ok = (not sweep.skipped
          and abs(sweep.fitted_slope + 5 * np.pi) <= 0.10 * 5 * np.pi
          and drop >= 30.0)
    elapsed = time.perf_counter() - t0
    report("criterion 6: energy diverges along the family at rho=(10 pi, 5 pi)",
           ok and elapsed < 60.0,
           f"slope {sweep.fitted_slope:+.3f} vs {-5 * np.pi:+.3f}, drop {drop:.1f}, {elapsed:.1f}s")


def test_criterion_7_coercive_existence():
    t0 = time.perf_counter()
    grid = build_grid(64)
    h1 = field_from_recipe("1+0.5*cos(2*pi*x)", grid)
    h2 = field_from_recipe("1+0.5*sin(2*pi*y)", grid)
    ok = True
    worst_res = 0.0
    for rho1 in (2 * np.pi, 4 * np.pi, 6 * np.pi):
        for rho2 in (np.pi, 2 * np.pi, 3 * np.pi):
            p = Params(rho1, rho2, h1, h2)
            for seed in range(3):
                u0 = smooth_field(grid, np.random.default_rng(1000 + seed), amplitude=0.2)
                try:
                    sol = minimize(p, u0, tol_residual=1e-9, max_iters=4000)
                except (NonConvergence, LineSearchStall) as exc:
                    sol = exc.best
                worst_res = max(worst_res, sol.residual_norm)
                ok &= sol.converged and sol.residual_norm < 1e-7

    # gradient versus central finite differences on random fields
    rng = np.random.default_rng(7)
    eps, worst_fd = 1e-4, 0.0
    for _ in range(20):
        ph1 = smooth_field(grid, rng, amplitude=0.3) + 1.5
        ph2 = smooth_field(grid, rng, amplitude=0.3) + 1.5
        p = Params(float(rng.uniform(0, 8 * np.pi)), float(rng.uniform(0, 4 * np.pi)), ph1, ph2)
        u, v = smooth_field(grid, rng), smooth_field(grid, rng)
        fd = (energy_J(u + eps * v, p) - energy_J(u - eps * v, p)) / (2 * eps)
        analytic = integrate(residual_J(u, p) * v)
        worst_fd = max(worst_fd, abs(fd - analytic) / abs(analytic))
    ok &= worst_fd < 1e-5
    elapsed = time.perf_counter() - t0
    report("criterion 7: coercive-regime minimization and gradient consistency",
           ok and elapsed < 180.0,
           f"worst residual {worst_res:.2e}, worst fd rel err {worst_fd:.2e}, {elapsed:.1f}s")


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    rc_a = cli_main(["verify-all", "--seed", "0", "--out", str(out_a)])
    rc_b = cli_main(["verify-all", "--seed", "0", "--out", str(out_b)])
    ok = rc_a == EXIT_OK and rc_b == EXIT_OK
    csvs = sorted(p.name for p in out_a.glob("*.csv"))
    ok &= bool(csvs)
    for name in csvs:
        ok &= (out_a / name).read_bytes() == (out_b / name).read_bytes()
    elapsed = time.perf_counter() - t0
    report("criterion 8: verify-all twice yields byte-identical CSVs",
           ok, f"{len(csvs)} files compared, {elapsed:.1f}s")
