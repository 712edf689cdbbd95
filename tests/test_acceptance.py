"""Acceptance criteria for the toolkit.

Each test checks one end-to-end criterion at its stated tolerance and prints a
single PASS/FAIL line (visible with ``pytest -s`` or in captured output on
failure).
"""

import math
import time

import numpy as np

from opasim import detection as det
from opasim import fitting as ft
from opasim import loop as lp
from opasim import noise as nz

from conftest import model_levels_db, series


def check(label: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: {detail}"


def timed(fn, repeats=5):
    """Best-of-N wall time in seconds (warm call first), plus the result."""
    result = fn()
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return result, best


HEADLINE = nz.OpaParams(shg_efficiency=8.2, pump_power=0.66, transmittance=0.88)
JITTER = nz.PhaseJitter.from_degrees(0.8)


def headline_levels():
    mixed = nz.jitter_mix(nz.opa_output_variances(HEADLINE), JITTER)
    with_circuit = mixed.sq + nz.clearance_to_equiv_loss(25.0)
    return mixed, with_circuit


def test_01_headline_squeezing_level():
    (mixed, with_circuit), dt = timed(headline_levels)
    sq_db = nz.to_db(mixed.sq)
    sq_circ_db = nz.to_db(with_circuit)
    ok = (
        abs(sq_db - (-8.35)) <= 0.1
        and abs(sq_circ_db - (-8.30)) <= 0.1
        and dt < 1e-3
    )
    check(
        "01 headline squeezing",
        ok,
        f"optical {sq_db:.3f} dB (target -8.35±0.1), "
        f"with circuit {sq_circ_db:.3f} dB (target -8.30±0.1), {dt * 1e6:.0f} us",
    )


def test_02_loss_corrected_source_squeezing():
    mixed, _ = headline_levels()
    src, dt = timed(lambda: nz.invert_loss(mixed.sq, 0.92))
    src_db = nz.to_db(src)
    ok = src_db < -10.0 and abs(src_db - (-11.4)) < 0.1 and dt < 1e-3
    check(
        "02 source squeezing after loss correction",
        ok,
        f"{src_db:.3f} dB (magnitude > 10 dB required), {dt * 1e6:.0f} us",
    )


def test_03_clearance_and_visibility_equivalents():
    loss = nz.clearance_to_equiv_loss(25.0)
    vis_loss = nz.visibility_to_loss(0.985)
    ok = (
        abs(loss - 10 ** -2.5) <= 1e-12 * 10 ** -2.5
        and abs(vis_loss - 0.0298) < 5e-5
    )
    check(
        "03 clearance/visibility loss equivalents",
        ok,
        f"25 dB -> {loss:.6e} (exact 10^-2.5), visibility 0.985 -> {vis_loss * 100:.3f}%",
    )


def test_04_loss_budget_composition():
    multiplicative = nz.LossBudget(tuple(nz.LossElement(n, l) for n, l in
                                         [("a", 0.03), ("b", 0.03), ("c", 0.02)])).transmittance
    composed_loss = 1.0 - multiplicative
    additive = 0.08 + 0.003 + 0.04
    ok = abs(composed_loss - 0.0779) < 1e-4 and abs(additive - 0.123) < 1e-12
    check(
        "04 loss budget composition",
        ok,
        f"{{3,3,2}}% -> {composed_loss * 100:.2f}% loss (target 7.79%), "
        f"additive {{8,0.3,4}}% -> {additive * 100:.1f}% (target 12.3%)",
    )


def test_05_monte_carlo_zero_span(locked_bundle, scanned_bundle):
    def run():
        locked = det.simulate_zero_span(locked_bundle.scenario)
        scanned = det.simulate_zero_span(scanned_bundle.scenario)
        return locked, scanned

    (locked, scanned), dt = timed(run, repeats=1)
    s = locked_bundle.scenario
    analytic, _ = det.measured_noise_ratio(s, s.analyzer.center_frequency_hz)
    mean_db = 10 * np.log10(
        np.mean(10 ** ((locked.values_dbm - s.detector.shot_noise_dbm) / 10))
    )
    mean_err = abs(mean_db - nz.to_db(analytic))

    shot = scanned_bundle.scenario.detector.shot_noise_dbm
    mx, mn = det.trace_extrema(scanned)
    max_err = abs((mx - shot) - 19.66)
    min_err = abs((mn - shot) - (-8.35))
    ok = mean_err <= 0.1 and max_err <= 0.2 and min_err <= 0.2 and dt < 1.0
    check(
        "05 zero-span Monte Carlo",
        ok,
        f"locked mean err {mean_err:.3f} dB (<=0.1), scanned extrema err "
        f"{max_err:.3f}/{min_err:.3f} dB (<=0.2), {dt * 1e3:.0f} ms",
    )


def test_06_loop_crossovers_and_shift_selection():
    def run():
        loops = lp.default_lock_loops()
        margins = [lp.stability_margins(l) for l in loops]
        shift = lp.select_shift_frequency(loops, [0.25e6, 0.5e6, 1e6, 2e6, 4e6])
        return margins, shift

    (margins, shift), dt = timed(run, repeats=3)
    f_fast = margins[0].phase_crossover_hz
    f_slow = margins[1].phase_crossover_hz
    ok = (
        abs(f_fast / 4.0e6 - 1.0) <= 0.02
        and abs(f_slow / 2.0e6 - 1.0) <= 0.02
        and shift == 1e6
        and dt < 0.1
    )
    check(
        "06 loop crossovers and shift selection",
        ok,
        f"-180 deg at {f_fast / 1e6:.3f}/{f_slow / 1e6:.3f} MHz (4.0/2.0 ±2%), "
        f"selected shift {shift / 1e6:g} MHz (target 1 MHz), {dt * 1e3:.1f} ms",
    )


def test_07_demodulation_mapping():
    fast = lp.demod_frequency(1e6, "opa_probe")
    slow = lp.demod_frequency(1e6, "probe_lo")
    ok = fast == 2e6 and slow == 1e6
    check(
        "07 demodulation mapping",
        ok,
        f"1 MHz shift -> {fast / 1e6:g} MHz pump-phase demod, {slow / 1e6:g} MHz "
        "homodyne-phase demod (exact 2/1 MHz)",
    )


def test_08_pump_sweep_fit_round_trip():
    true = (0.88, 8.2, math.radians(0.8))
    powers = np.linspace(0.1, 1.6, 8)
    sq, anti = model_levels_db(powers, *true)

    t0 = time.perf_counter()
    clean = [ft.PumpSweepPoint(p, s, a) for p, s, a in zip(powers, sq, anti)]
    r = ft.fit_pump_sweep(clean)
    noiseless_ok = (
        abs(r.transmittance - true[0]) / true[0] < 1e-6
        and abs(r.shg_efficiency - true[1]) / true[1] < 1e-6
        and abs(r.jitter_rad - true[2]) / true[2] < 1e-6
    )
    recovered = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        data = [
            ft.PumpSweepPoint(
                p, s + rng.uniform(-0.1, 0.1), a + rng.uniform(-0.1, 0.1)
            )
            for p, s, a in zip(powers, sq, anti)
        ]
        rr = ft.fit_pump_sweep(data)
        recovered += (
            abs(rr.transmittance - true[0]) / true[0] < 0.05
            and abs(rr.shg_efficiency - true[1]) / true[1] < 0.05
            and abs(rr.jitter_rad - true[2]) / true[2] < 0.05
        )
    dt = time.perf_counter() - t0
    ok = noiseless_ok and recovered >= 95 and dt < 5.0
    check(
        "08 pump-sweep fit round trip",
        ok,
        f"noiseless 1e-6 rel {'ok' if noiseless_ok else 'FAILED'}, noisy "
        f"{recovered}/100 within 5% (>=95), {dt:.2f} s",
    )


def test_09_optimal_pump_oracle():
    worst_gap = 0.0
    for theta_deg in (0.2, 0.5, 0.8, 2.0):
        for alpha in (4.0, 8.2, 12.0):
            theta = math.radians(theta_deg)
            closed = ft.optimal_pump_power(0.88, alpha, theta).pump_power_w
            grid = ft.grid_search_optimal_pump(0.88, alpha, theta, p_max=4.0)
            worst_gap = max(worst_gap, abs(closed - grid))

    ref = ft.optimal_pump_power(0.88, 8.2, math.radians(0.8))
    eta_spread = max(
        abs(ft.optimal_pump_power(eta, 8.2, math.radians(0.8)).pump_power_w
            - ref.pump_power_w)
        for eta in (0.3, 0.6, 0.88, 1.0)
    )
    sq_066, _ = model_levels_db(np.array([0.66]), 0.88, 8.2, math.radians(0.8))
    flatness = abs(sq_066[0] - ref.squeezing_db)
    ok = (
        worst_gap < 1e-4
        and eta_spread <= 1e-12 * ref.pump_power_w
        and abs(ref.pump_power_w - 0.556) < 1e-3
        and flatness < 0.1
    )
    check(
        "09 optimal pump power oracle",
        ok,
        f"closed-form vs grid gap {worst_gap * 1e3:.4f} mW (<0.1), transmittance "
        f"spread {eta_spread:.2e} (<=1e-12 rel), P*={ref.pump_power_w * 1e3:.1f} mW "
        f"(~556), flat-optimum penalty at 660 mW {flatness:.3f} dB (<0.1)",
    )


def test_10_model_property_suite():
    rng = np.random.default_rng(12345)
    n = 10_000
    alphas = rng.uniform(0.0, 20.0, n)
    pumps = rng.uniform(0.0, 2.0, n)
    etas = rng.uniform(0.0, 1.0, n)
    thetas = rng.uniform(0.0, math.pi / 2 * 0.999, n)

    uncertainty_ok = True
    trace_err = 0.0
    loss_err = 0.0
    for a, p, e, th in zip(alphas, pumps, etas, thetas):
        q = nz.opa_output_variances(nz.OpaParams(a, p, e))
        uncertainty_ok &= q.anti * q.sq >= 1.0 - 1e-12
        m = nz.jitter_mix(q, nz.PhaseJitter(th))
        trace_err = max(
            trace_err, abs((m.anti + m.sq) - (q.anti + q.sq)) / (q.anti + q.sq)
        )
        if e > 1e-6:
            measured = nz.apply_loss(q, e)
            loss_err = max(
                loss_err,
                abs(nz.invert_loss(measured.anti, e) - q.anti) / q.anti,
                abs(nz.invert_loss(measured.sq, e) - q.sq) / max(q.sq, 1e-300),
            )

    ratios = np.logspace(-6, 6, 1000)
    db_err = float(np.max(np.abs(
        np.array([nz.from_db(nz.to_db(r)) for r in ratios]) - ratios) / ratios))

    a = lp.TransferFunction.low_pass(2e6, gain=0.7)
    b = lp.TransferFunction((3.0, 3.0 * 2e-7), (1.0, 5e-8))
    grid = lp.log_frequency_grid(1e2, 1e7, 200)
    (gain_a, phase_a), (gain_b, phase_b) = lp.bode(a, grid), lp.bode(b, grid)
    gain_ab, phase_ab = lp.bode(series(a, b), grid)
    bode_err = float(max(
        np.max(np.abs(gain_ab - gain_a - gain_b)), np.max(np.abs(phase_ab - phase_a - phase_b))
    ))

    ok = (
        uncertainty_ok
        and trace_err <= 1e-12
        and loss_err <= 1e-12
        and db_err <= 1e-12
        and bode_err <= 1e-7
    )
    check(
        "10 model property suite",
        ok,
        f"uncertainty bound on 1e4 grid {'ok' if uncertainty_ok else 'FAILED'}, "
        f"trace err {trace_err:.1e}, loss round-trip err {loss_err:.1e}, dB "
        f"round-trip err {db_err:.1e} (all <=1e-12), Bode homomorphism err "
        f"{bode_err:.1e}",
    )
