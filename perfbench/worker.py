"""In-process workloads ``analyzer`` and ``design``: one closed-loop client
calling the public opasim API from a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``.  Set-up
is import, ``load_scenario`` of the generated scenario file, building the
workload's fixed set of inputs and one untimed warm-up operation; the
worker then prints ``ready`` (run.py times the
interval from process start to that line).  Unless ``--setup-only`` is
given it runs the timed loop and prints one JSON result as its last line.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import resource
import sys
from pathlib import Path

import numpy as np

import common
import inputs
import oracles
from oracles import Checker

import opasim
from opasim import (
    OpaParams,
    PhaseJitter,
    PhaseNoiseSpectrum,
    PumpSweepPoint,
    calibrate_jitter_amplitude,
    default_lock_loops,
    fit_pump_sweep,
    grid_search_optimal_pump,
    jitter_mix,
    load_scenario,
    opa_output_variances,
    optimal_pump_power,
    residual_jitter,
    select_measurement_frequency,
    select_shift_frequency,
    simulate_zero_span,
    stability_margins,
    sweep_frequency,
    to_db,
    trace_extrema,
)
from opasim.detection import simulate_shot_reference

GRID_P_MAX_W = 5.0  # above the largest P* the fit studies draw (~4 W)
SIGMAS = 6.0  # trace-mean tolerance in standard errors
# Decks in each workload's fixed set of inputs: one pass over the set takes
# about a third of a 30 s run, so every run, and each half of a traced one,
# sees every input and the slowest time of one input can be discarded.
ANALYZER_DECKS = 6
DESIGN_DECKS = 36


# ---- analyzer ----------------------------------------------------------------

def trace_op(base, p: dict, k: int, points: int, lock_mode: str, seed: int) -> common.Op:
    a = base.analyzer
    s = dataclasses.replace(
        base,
        lock_mode=lock_mode,
        analyzer=dataclasses.replace(a, vbw_hz=a.rbw_hz / k, points=points, seed=seed),
    )
    q = dict(p, k=k, points=points, lock_mode=lock_mode)

    def run(tr):
        trace = tr.call("detection.simulate_zero_span", simulate_zero_span, s)
        tr.count("detection.simulate_zero_span", "draws", k * points)
        shot = tr.call("detection.simulate_shot_reference", simulate_shot_reference, s)
        extrema = tr.call("detection.trace_extrema", trace_extrema, trace)
        return trace, shot, extrema

    def check(out):
        trace, shot, (hi, lo) = out
        c = Checker()
        c.true(f"trace has {trace.values_dbm.size} points, want {points}",
               trace.values_dbm.size == points and shot.values_dbm.size == points)
        c.true(f"video averages {s.analyzer.video_averages}, want {k}",
               s.analyzer.video_averages == k)
        want, se = oracles.mean_and_se(oracles.trace_means(q, points, lock_mode), k)
        got = float(np.mean(10.0 ** ((trace.values_dbm - p["shot_dbm"]) / 10.0)))
        c.close("trace mean linear power", got, want, abs_=SIGMAS * se)
        shot_want = 1.0 + oracles.circuit_ratio(q, q["center_hz"])
        got = float(np.mean(10.0 ** ((shot.values_dbm - p["shot_dbm"]) / 10.0)))
        c.close("shot mean linear power", got, shot_want,
                abs_=SIGMAS * shot_want / math.sqrt(k * points))
        c.true(f"extrema max {hi} < min {lo}", math.isfinite(hi) and math.isfinite(lo) and hi >= lo)
        return c.errors

    return common.Op("zero_span", run, check)


def sweep_op(base, p: dict, f_min: float, f_max: float, points: int) -> common.Op:
    def run(tr):
        sweep = tr.call("detection.sweep_frequency", sweep_frequency, base, f_min, f_max, points)
        best = tr.call("detection.select_measurement_frequency", select_measurement_frequency, sweep)
        return sweep, best

    def check(out):
        sweep, best = out
        c = Checker()
        f = sweep.frequencies_hz
        c.true(f"sweep has {f.size} points, want {points}", f.size == points)
        if c.errors:
            return c.errors
        clearance = -10.0 * np.log10(oracles.circuit_ratio(p, f))
        c.close("clearance at selected frequency",
                oracles.clearance_db(p, best), float(clearance.max()), abs_=1e-9)
        sq, _ = oracles.optical_pair(p)
        want = p["shot_dbm"] + 10.0 * np.log10(sq + oracles.circuit_ratio(p, f))
        c.close("squeezed trace max deviation",
                float(np.max(np.abs(sweep.squeezed.values_dbm - want))), 0.0, abs_=1e-9)
        c.close("circuit trace max deviation",
                float(np.max(np.abs(sweep.circuit.values_dbm - (p["shot_dbm"] - clearance)))),
                0.0, abs_=1e-9)
        return c.errors

    return common.Op("sweep", run, check)


def analyzer_cycle(base, p: dict, seed: int) -> list[list[common.Op]]:
    """The analyzer's fixed set of inputs: ANALYZER_DECKS decks, each of 48
    zero-span traces (one in each cell of a 16 x 3 grid of log-uniform K
    strata and uniform point-count strata, locked or scanned) and 24
    sweeps, in seeded order.  Within each cell the decks' draws are
    stratified again, each deck taking the same sub-stratum of K and of
    points, and the sweeps' point counts are stratified over the whole set,
    so every seed gets the same mix of cheap and expensive inputs; the seed
    picks the values.  Taking K and points from matching sub-strata keeps
    the cost K x points of the largest traces, which set op_tail_ms, within
    a narrow band from seed to seed."""
    rng = inputs.deck_rng(seed, "analyzer", 0)
    n = ANALYZER_DECKS
    points_span = inputs.POINTS_MAX - inputs.POINTS_MIN
    sweep_span = inputs.SWEEP_POINTS_MAX - inputs.SWEEP_POINTS_MIN
    decks = [[] for _ in range(n)]
    for a in range(16):
        for b in range(3):
            order = list(range(n))
            rng.shuffle(order)
            for ops, j in zip(decks, order):
                u_k, u_p = (j + rng.random()) / n, (j + rng.random()) / n
                k = max(1, min(inputs.K_MAX, round(10 ** (4.0 * (a + u_k) / 16))))
                points = inputs.POINTS_MIN + int((b + u_p) * points_span / 3)
                mode = rng.choice(("locked", "scanned"))
                ops.append(trace_op(base, p, k, points, mode, rng.randrange(1, 2**31)))
    sweeps = inputs.stratified(rng, 24 * n)
    for j, ops in enumerate(decks):
        for u in sweeps[24 * j:24 * (j + 1)]:
            points = inputs.SWEEP_POINTS_MIN + int(u * sweep_span)
            ops.append(sweep_op(base, p, rng.uniform(1e6, 3e6), rng.uniform(30e6, 60e6), points))
        rng.shuffle(ops)
    return decks


# ---- design ------------------------------------------------------------------

def fit_op(fp: dict) -> common.Op:
    data = [PumpSweepPoint(*row) for row in fp["rows"]]
    eta, alpha, theta = fp["eta"], fp["alpha"], fp["theta"]

    def run(tr):
        fit = tr.call("fitting.fit_pump_sweep", fit_pump_sweep, data)
        tr.count("fitting.fit_pump_sweep", "iterations", fit.iterations)
        op = tr.call("fitting.optimal_pump_power", optimal_pump_power, eta, alpha, theta)
        grid = tr.call("fitting.grid_search_optimal_pump", grid_search_optimal_pump,
                       eta, alpha, theta, p_max=GRID_P_MAX_W)
        return fit, op, grid

    def check(out):
        fit, op, grid = out
        c = Checker()
        cost = oracles.fit_cost(fp["rows"], fit.transmittance, fit.shg_efficiency, fit.jitter_rad)
        c.close("reported fit residual", fit.residual, cost, rel=1e-9)
        truth = oracles.fit_cost(fp["rows"], eta, alpha, theta)
        c.true(f"fitted cost {cost!r} above generating-parameter cost {truth!r}",
               cost <= truth * (1.0 + 1e-9))
        p_star = oracles.p_star(alpha, theta)
        c.close("P*", op.pump_power_w, p_star, rel=1e-12)
        sq, anti = oracles.mixed_pair(eta, alpha, p_star, theta)
        c.close("squeezing at P*", op.squeezing_db, oracles.db(sq), abs_=1e-9)
        c.close("anti-squeezing at P*", op.anti_squeezing_db, oracles.db(anti), abs_=1e-9)
        c.close("grid-oracle P*", grid, p_star, abs_=1e-6)
        return c.errors

    return common.Op("fit", run, check)


def lock_op(u, extra_kind: str) -> common.Op:
    """``u``: nine numbers in [0, 1) placing the crossovers, which loop is
    calibrated, the target jitter, the template's upper frequency and the
    extra spectrum (white: amplitude and upper frequency; table: the four
    densities)."""
    xovers = {"opa_probe": 3e6 + 3e6 * u[0], "probe_lo": 1.5e6 + 1.5e6 * u[1]}
    which = int(u[2] < 0.5)
    xover = list(xovers.values())[which]
    target = PhaseJitter(math.radians(0.2 + 1.8 * u[3]))
    template = PhaseNoiseSpectrum(kind="one_over_f2", f_min=1.0, f_max=1e5 + 9e5 * u[4])
    if extra_kind == "white":
        extra = PhaseNoiseSpectrum(kind="white", amplitude=10 ** (-13.0 + 2.0 * u[5]),
                                   f_min=1.0, f_max=1e5 + 9e5 * u[6])
        density = lambda f: extra.amplitude  # noqa: E731
    else:
        table_f = (1.0, 1e2, 1e4, 1e6)
        table_d = tuple(10 ** (lo + 2.0 * x) for lo, x in zip((-5, -9, -12, -14), u[5:9]))
        extra = PhaseNoiseSpectrum(kind="table", f_min=1.0, f_max=1e6,
                                   frequencies_hz=table_f, densities=table_d)
        density = oracles.table_density(table_f, table_d)

    def run(tr):
        loops = tr.call("loop.default_lock_loops", default_lock_loops,
                        xovers["opa_probe"], xovers["probe_lo"])
        margins = [tr.call("loop.stability_margins", stability_margins, lp) for lp in loops]
        shift = tr.call("loop.select_shift_frequency", select_shift_frequency,
                        loops, list(inputs.SHIFT_CANDIDATES_HZ))
        loop = loops[which]
        spectrum = tr.call("loop.calibrate_jitter_amplitude", calibrate_jitter_amplitude,
                           loop, target, template)
        calibrated = tr.call("loop.residual_jitter", residual_jitter, spectrum, loop)
        extra_jitter = tr.call("loop.residual_jitter", residual_jitter, extra, loop)
        return margins, shift, calibrated, extra_jitter

    def check(out):
        margins, shift, calibrated, extra_jitter = out
        c = Checker()
        for m, (kind, x) in zip(margins, xovers.items()):
            c.close(f"{kind} phase crossover", m.phase_crossover_hz, x, rel=2e-3)
            if m.phase_crossover_hz is None or m.gain_crossover_hz is None:
                continue
            c.close(f"{kind} gain margin", m.gain_margin_db,
                    oracles.gain_margin_db(m.phase_crossover_hz), abs_=1e-9)
            c.close(f"{kind} gain crossover", m.gain_crossover_hz,
                    oracles.gain_crossover_hz(), rel=2e-3)
            c.close(f"{kind} phase margin", m.phase_margin_deg,
                    180.0 + oracles.loop_phase_deg(m.gain_crossover_hz, oracles.loop_delay(x)),
                    abs_=1e-6)
        accepted = oracles.accepted_shifts(inputs.SHIFT_CANDIDATES_HZ, xovers)
        c.true(f"shift {shift} not in {sorted(accepted)}", shift in accepted)
        c.close("calibrated residual jitter", calibrated.theta, target.theta, rel=1e-5)
        want = oracles.residual_jitter_rad(density, extra.f_min, extra.f_max, xover)
        c.close(f"{extra_kind} residual jitter", extra_jitter.theta, want, rel=1e-6)
        return c.errors

    return common.Op("lock", run, check)


def forward_map(alpha, eta, pumps, jitters):
    """Scalar forward model over a pump x jitter grid, point by point."""
    out = []
    for pump in pumps:
        for jitter in jitters:
            m = jitter_mix(opa_output_variances(OpaParams(alpha, pump, eta)), jitter)
            out.append((m.sq, m.anti, to_db(m.sq), to_db(m.anti)))
    return out


def map_op(rng, u) -> common.Op:
    """``u`` places alpha and eta; the 16 pumps and 16 jitters come from
    ``rng``."""
    alpha, eta = 2.0 + 13.0 * u[0], 0.6 + 0.38 * u[1]
    pumps = [rng.uniform(0.05, 1.5) for _ in range(16)]
    jitters = [PhaseJitter(math.radians(rng.uniform(0.1, 3.0))) for _ in range(16)]

    def run(tr):
        out = tr.call("noise.forward", forward_map, alpha, eta, pumps, jitters)
        tr.count("noise.forward", "evals", len(out))
        return out

    def check(out):
        c = Checker()
        expected = [(pw, j.theta) for pw in pumps for j in jitters]
        c.true(f"map has {len(out)} points, want {len(expected)}", len(out) == len(expected))
        for (pw, th), (sq, anti, sq_db, anti_db) in zip(expected, out):
            want_sq, want_anti = oracles.mixed_pair(eta, alpha, pw, th)
            c.close(f"R- at P={pw}", sq, want_sq, rel=1e-12)
            c.close(f"R+ at P={pw}", anti, want_anti, rel=1e-12)
            c.close(f"R- dB at P={pw}", sq_db, oracles.db(want_sq), abs_=1e-9)
            c.close(f"R+ dB at P={pw}", anti_db, oracles.db(want_anti), abs_=1e-9)
            if c.errors:
                break
        return c.errors

    return common.Op("map", run, check)


def design_cycle(seed: int) -> list[list[common.Op]]:
    """The design workload's fixed set of inputs: DESIGN_DECKS decks, each of
    nine fit studies, two lock studies (white and table spectra) and three
    scalar maps, in seeded order.  Each kind's parameters are a Latin
    hypercube over the whole set, so every seed gets the same mix of cheap
    and expensive studies; the seed picks the values."""
    rng = inputs.deck_rng(seed, "design", 0)
    n = DESIGN_DECKS
    fits = [fit_op(inputs.fit_params(rng, u)) for u in inputs.latin_hypercube(rng, 9 * n, 6)]
    whites = [lock_op(u, "white") for u in inputs.latin_hypercube(rng, n, 9)]
    tables = [lock_op(u, "table") for u in inputs.latin_hypercube(rng, n, 9)]
    maps = [map_op(rng, u) for u in inputs.latin_hypercube(rng, 3 * n, 2)]
    decks = []
    for j in range(n):
        ops = fits[9 * j:9 * (j + 1)] + [whites[j], tables[j]] + maps[3 * j:3 * (j + 1)]
        rng.shuffle(ops)
        decks.append(ops)
    return decks


# ---- entry point -------------------------------------------------------------

def layer_metrics(tracer) -> dict:
    out = common.layer_metrics(tracer)
    counts = tracer.counts
    out["detection.simulate_zero_span.draws"] = counts.get(
        "detection.simulate_zero_span", {}).get("draws", 0)
    fits = out.get("fitting.fit_pump_sweep.calls", 0)
    iterations = counts.get("fitting.fit_pump_sweep", {}).get("iterations", 0)
    out["fitting.fit_pump_sweep.iterations_mean"] = iterations / fits if fits else 0.0
    evals = counts.get("noise.forward", {}).get("evals", 0)
    out["noise.forward.calls"] = evals
    out["noise.forward.ns_per_eval"] = (
        out.get("noise.forward.busy_ms", 0.0) * 1e6 / evals if evals else 0.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=("analyzer", "design"), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scenario", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--trace-out", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path(args.src).resolve()
    if src not in Path(opasim.__file__).resolve().parents:
        sys.stderr.write(f"worker: opasim imported from {opasim.__file__}, not {src}\n")
        return 3

    tracer = common.Tracer(alloc_names=("detection.simulate_zero_span",)) if args.trace \
        else common.NullTracer()
    bundle = tracer.call("scenario.load_scenario", load_scenario, args.scenario)
    p = inputs.scenario_params(inputs.deck_rng(args.seed, "base", 0))
    if args.workload == "analyzer":
        cycle = analyzer_cycle(bundle.scenario, p, args.seed)
        # warm-up: the largest trace the workload allows, so the process's
        # peak memory is the cap's and not the luck of the draw
        warm = trace_op(bundle.scenario, p, inputs.K_MAX, inputs.POINTS_MAX, "locked", 1)
    else:
        cycle = design_cycle(args.seed)
        warm = lock_op([0.5] * 9, "table")
    warm.run(common.NullTracer())
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    if args.setup_only:
        return 0

    result = {}
    if args.trace:
        untraced = common.timed_loop(cycle, args.seconds / 2, common.NullTracer())
        traced = common.timed_loop(cycle, args.seconds / 2, tracer)
        result["untraced"] = common.summarize(untraced, slowest_of_passes=True)
        result["traced"] = common.summarize(traced, slowest_of_passes=True)
        result["layers"] = layer_metrics(tracer)
        tracer.write(Path(args.trace_out))
    else:
        loop = common.timed_loop(cycle, args.seconds, tracer)
        result["untraced"] = common.summarize(loop, slowest_of_passes=True)
    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
