"""The ``cli`` workload: each operation starts a fresh interpreter on the
``opasim.cli:main`` entry point with a generated scenario file.

The workload's fixed set of inputs is CLI_OPS operations: the nine commands
round-robin, and every tenth operation an error path that expects the
documented exit code 2.  The seed picks which two of the four error kinds
the set holds; any two neighbours in ERROR_KINDS hold exactly one ``--data``
case.  Standard library
only: the checks read the JSON report each command writes and compare it
with the closed forms in ``oracles``.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import common
import inputs
import oracles
from oracles import Checker

BOOT = "import sys; from opasim.cli import main; sys.argv[0] = 'opasim'; main()"
ERROR_KINDS = ("data_nonnumeric", "bare_number", "data_missing", "unknown_key")
CLI_OPS = 20
ERROR_SLOT = 4  # of every ten operations; early, so a 15 s half-run meets two
OP_TIMEOUT_S = 120


class OpFailed(Exception):
    """The command ended with an exit code other than the documented one."""


# ---- checks of each command's report -------------------------------------------

def _check_simulate(c, r, p, out_dir):
    c.true(f"trace_points {r['trace_points']} != {p['points']}", r["trace_points"] == p["points"])
    c.true(f"video_averages {r['video_averages']} != {p['k']}", r["video_averages"] == p["k"])
    sq, anti = oracles.optical_pair(p)
    n_circ = oracles.circuit_ratio(p, p["center_hz"])
    c.close("model_locked_db", r["model_locked_db"], oracles.db(sq + n_circ), abs_=1e-9)
    c.close("model_anti_db", r["model_anti_db"], oracles.db(anti + n_circ), abs_=1e-9)
    want, se = oracles.mean_and_se(oracles.trace_means(p, p["points"], p["lock_mode"]), p["k"])
    got = 10.0 ** ((r["trace_mean_dbm"] - p["shot_dbm"]) / 10.0)
    c.close("trace mean linear power", got, want, abs_=6.0 * se)
    got = 10.0 ** ((r["shot_mean_dbm"] - p["shot_dbm"]) / 10.0)
    c.close("shot mean linear power", got, 1.0 + n_circ,
            abs_=6.0 * (1.0 + n_circ) / math.sqrt(p["k"] * p["points"]))
    c.close("relative_mean_db", r["relative_mean_db"],
            r["trace_mean_dbm"] - r["shot_mean_dbm"], abs_=1e-9)


def _check_sweep(c, r, p, out_dir):
    n, f0, f1 = p["sweep_points"], p["sweep_start_hz"], p["sweep_stop_hz"]
    best = max(oracles.clearance_db(p, f0 + j * (f1 - f0) / (n - 1)) for j in range(n))
    c.close("max_clearance_db", r["max_clearance_db"], best, abs_=1e-9)
    c.close("clearance at best_frequency_hz",
            oracles.clearance_db(p, r["best_frequency_hz"]), best, abs_=1e-9)


def _read_bode(path: Path):
    rows = path.read_text().splitlines()[1:]
    return [tuple(float(x) for x in row.split(",")) for row in rows]


def _check_bode(c, r, p, out_dir):
    for kind, xover in (("opa_probe", p["xover_opa_hz"]), ("probe_lo", p["xover_lo_hz"])):
        rows = _read_bode(out_dir / f"bode_{kind}.csv")
        c.true(f"{kind}_points {r[f'{kind}_points']} != {len(rows)} CSV rows",
               r[f"{kind}_points"] == len(rows) and len(rows) > 2)
        delay = oracles.loop_delay(xover)
        gain_err = max(abs(g + oracles.gain_margin_db(f)) for f, g, _ in rows)
        phase_err = max(abs(ph - oracles.loop_phase_deg(f, delay)) for f, _, ph in rows)
        c.close(f"{kind} bode gain max deviation", gain_err, 0.0, abs_=1e-5)
        c.close(f"{kind} bode phase max deviation", phase_err, 0.0, abs_=1e-5)


def _check_margins(c, r, p, out_dir):
    for kind, xover in (("opa_probe", p["xover_opa_hz"]), ("probe_lo", p["xover_lo_hz"])):
        pc = r[f"{kind}_phase_crossover_hz"]
        gc = r[f"{kind}_gain_crossover_hz"]
        c.close(f"{kind}_phase_crossover_hz", pc, xover, rel=2e-3)
        c.close(f"{kind}_gain_crossover_hz", gc, oracles.gain_crossover_hz(), rel=2e-3)
        if c.errors:
            return
        c.close(f"{kind}_gain_margin_db", r[f"{kind}_gain_margin_db"],
                oracles.gain_margin_db(pc), abs_=1e-9)
        c.close(f"{kind}_phase_margin_deg", r[f"{kind}_phase_margin_deg"],
                180.0 + oracles.loop_phase_deg(gc, oracles.loop_delay(xover)), abs_=1e-6)


def _check_select_freq(c, r, p, out_dir):
    accepted = oracles.accepted_shifts(
        inputs.SHIFT_CANDIDATES_HZ,
        {"opa_probe": p["xover_opa_hz"], "probe_lo": p["xover_lo_hz"]},
    )
    shift = r["shift_frequency_hz"]
    c.true(f"shift {shift} not in {sorted(accepted)}", shift in accepted)
    c.close("opa_probe_demod_hz", r["opa_probe_demod_hz"], 2.0 * shift, rel=1e-15)
    c.close("probe_lo_demod_hz", r["probe_lo_demod_hz"], shift, rel=1e-15)


def _check_fit(c, r, p, out_dir):
    fp = p["fit"]
    c.true(f"converged is {r['converged']!r}", r["converged"] is True)
    cost = oracles.fit_cost(fp["rows"], r["transmittance"], r["shg_efficiency_per_watt"],
                            math.radians(r["jitter_deg"]))
    c.close("residual_db2", r["residual_db2"], cost, rel=1e-9)
    truth = oracles.fit_cost(fp["rows"], fp["eta"], fp["alpha"], fp["theta"])
    c.true(f"fitted cost {cost!r} above generating-parameter cost {truth!r}",
           cost <= truth * (1.0 + 1e-9))


def _check_optimize(c, r, p, out_dir):
    d = oracles.detection_transmittance(p)
    eta = (1.0 - p["wg_loss"]) * d
    p_star = oracles.p_star(p["alpha"], p["theta"])
    sq, anti = oracles.mixed_pair(eta, p["alpha"], p_star, p["theta"])
    c.close("optimal_pump_w", r["optimal_pump_w"], p_star, rel=1e-12)
    c.close("grid_oracle_pump_w", r["grid_oracle_pump_w"], p_star, abs_=1e-6)
    c.close("oracle_gap_w", r["oracle_gap_w"], 0.0, abs_=1e-6)
    c.close("predicted_squeezing_db", r["predicted_squeezing_db"], oracles.db(sq), abs_=1e-9)
    c.close("predicted_anti_squeezing_db", r["predicted_anti_squeezing_db"],
            oracles.db(anti), abs_=1e-9)
    c.close("source_squeezing_db", r["source_squeezing_db"],
            oracles.db((sq - (1.0 - d)) / d), abs_=1e-9)


def _check_budget(c, r, p, out_dir):
    for label, loss in p["losses"].items():
        c.close(f"loss_{label}", r[f"loss_{label}"], loss, rel=1e-15)
    circ = oracles.circuit_ratio(p, p["center_hz"])
    c.close("circuit_equiv_loss", r["circuit_equiv_loss"], circ, rel=1e-9)
    c.close("multiplicative_transmittance", r["multiplicative_transmittance"],
            oracles.detection_transmittance(p) * (1.0 - circ), rel=1e-9)
    c.close("additive_total_loss", r["additive_total_loss"],
            sum(p["losses"].values()) + circ, rel=1e-9)


def _check_report(c, r, p, out_dir):
    d = oracles.detection_transmittance(p)
    sq, anti = oracles.optical_pair(p)
    n_circ = oracles.circuit_ratio(p, p["center_hz"])
    c.close("measured_squeezing_db", r["measured_squeezing_db"], oracles.db(sq + n_circ), abs_=1e-9)
    c.close("measured_anti_squeezing_db", r["measured_anti_squeezing_db"],
            oracles.db(anti + n_circ), abs_=1e-9)
    c.close("source_squeezing_db", r["source_squeezing_db"],
            oracles.db((sq - (1.0 - d)) / d), abs_=1e-9)
    c.close("source_anti_squeezing_db", r["source_anti_squeezing_db"],
            oracles.db((anti - (1.0 - d)) / d), abs_=1e-9)
    _check_margins(c, r, p, out_dir)
    _check_budget(c, r, p, out_dir)


CHECKS = {
    "simulate": _check_simulate,
    "sweep": _check_sweep,
    "bode": _check_bode,
    "margins": _check_margins,
    "select-freq": _check_select_freq,
    "fit": _check_fit,
    "optimize": _check_optimize,
    "budget": _check_budget,
    "report": _check_report,
}


# ---- operations ----------------------------------------------------------------

def make_op(j: int, seed: int, work: Path, env: dict) -> common.Op:
    """Operation j of the set: inputs written now, the command run by
    ``op.run``, its outputs checked and removed by ``op.check``."""
    rng = inputs.deck_rng(seed, "cli", j)
    p = inputs.scenario_params(rng)
    in_dir = work / f"op{j}"
    out_dir = in_dir / "out"
    in_dir.mkdir(parents=True)
    scenario = in_dir / "input.scenario"
    slot = j % 10
    if slot != ERROR_SLOT:
        kind = command = common.CLI_COMMANDS[slot - (slot > ERROR_SLOT)]
        error = None
    else:
        kind = "error_path"
        error = ERROR_KINDS[(seed + j // 10) % len(ERROR_KINDS)]
        command = {"bare_number": "report", "unknown_key": "simulate"}.get(error, "fit")
    scenario.write_text(inputs.render_scenario(
        p,
        bare_pump=error == "bare_number",
        extra_opa_line="colour = 3 percent" if error == "unknown_key" else "",
    ))
    argv = [sys.executable, "-c", BOOT, command, str(scenario),
            "--out-dir", str(out_dir), "--quiet"]
    if command == "fit":
        p["fit"] = inputs.fit_params(rng)
        data = in_dir / "sweep.csv"
        text = inputs.render_sweep_csv(p["fit"]["rows"])
        if error == "data_nonnumeric":
            lines = text.splitlines()
            lines[2] = lines[2].split(",")[0] + ",n/a," + lines[2].split(",")[2]
            text = "\n".join(lines) + "\n"
        if error != "data_missing":
            data.write_text(text)
        argv += ["--data", str(data)]
    expected_exit = 0 if error is None else 2
    label = kind if error is None else f"error_path/{error}"

    def run(tr):
        proc = tr.call(f"cli.{kind}", subprocess.run, argv, env=env, cwd=work,
                       capture_output=True, text=True, timeout=OP_TIMEOUT_S)
        if proc.returncode != expected_exit or "Traceback" in proc.stderr:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            raise OpFailed(f"{label}: exit {proc.returncode}, expected {expected_exit}: {last[0]}")
        return proc

    def check(proc):
        c = Checker()
        try:
            if error is None:
                report_path = out_dir / f"{command.replace('-', '_')}_report.json"
                results = json.loads(report_path.read_text())["results"]
                CHECKS[command](c, results, p, out_dir)
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        return c.errors

    return common.Op(kind, run, check)


def cycle(seed: int, work: Path, env: dict) -> list[list[common.Op]]:
    """The fixed set of operations, one per deck."""
    return [[make_op(j, seed, work, env)] for j in range(CLI_OPS)]

