"""Command-line shell: load a scenario file, run one analysis command,
write CSV artifacts and a key-value + JSON report.

Exit codes: 0 success, 2 validation failure, 3 numerical failure,
4 infeasible inputs.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import noise as nz
from .detection import (
    MAX_POINTS,
    _optical_pair,
    measured_noise_ratio,
    select_measurement_frequency,
    simulate_shot_reference,
    simulate_zero_span,
    sweep_frequency,
    trace_extrema,
)
from .errors import DomainError, InfeasibleError, ToolError
from .fitting import (
    _GRID_STEP_W,
    _grid_end,
    PumpSweepPoint,
    fit_pump_sweep,
    grid_search_optimal_pump,
    loss_budget_report,
    optimal_pump_power,
)
from .loop import bode, demod_frequency, log_frequency_grid, select_shift_frequency, stability_margins
from .scenario import load_scenario, serialize_scenario

REPORT_SCHEMA_VERSION = 2  # 2: strict JSON, a non-finite result is null with a warning
MAX_DATA_LINE_CHARS = 4096  # per pump-sweep CSV line, newline included; longer ones are not read whole
_CSV_CHUNK_ROWS = 8192  # rows formatted per write, so a CSV costs memory per chunk, not per file


def _fmt(value):
    if isinstance(value, float):
        return f"{value:.10g}"
    return str(value)


class RunReport:
    """Accumulates results and warnings for one command invocation and can
    render itself as key-value text or JSON."""

    def __init__(self, command: str, digest: str, seed: int):
        self.data = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "tool_version": __version__,
            "command": command,
            "scenario_digest": digest,
            "seed": seed,
            "results": {},
            "warnings": [],
        }

    def add(self, key: str, value):
        if isinstance(value, float) and not math.isfinite(value):  # JSON has no inf or NaN
            self.warn(f"{key} is {value}, reported as null")
            value = None
        self.data["results"][key] = value

    def warn(self, message: str):
        self.data["warnings"].append(message)

    def as_kv(self) -> str:
        lines = [
            f"tool_version = {self.data['tool_version']}",
            f"command = {self.data['command']}",
            f"scenario_digest = {self.data['scenario_digest']}",
            f"seed = {self.data['seed']}",
        ]
        lines += [f"{k} = {_fmt(v)}" for k, v in self.data["results"].items()]
        lines += [f"warning = {w}" for w in self.data["warnings"]]
        return "\n".join(lines) + "\n"

    def as_json(self) -> str:
        return json.dumps(self.data, indent=2, sort_keys=True, allow_nan=False) + "\n"

    def as_csv(self) -> str:
        lines = ["key,value"]
        lines += [f"{k},{_fmt(v)}" for k, v in self.data["results"].items()]
        return "\n".join(lines) + "\n"


def _write_csv(path: Path, header: str, *columns):
    """A CSV file of the header, then one row per index of the float
    columns, formatted as _fmt does, one chunk of rows at a time."""
    row = ",".join(["%.10g"] * len(columns)) + "\n"
    with path.open("w") as fh:
        fh.write(header + "\n")
        for i in range(0, len(columns[0]), _CSV_CHUNK_ROWS):
            chunk = np.column_stack([c[i:i + _CSV_CHUNK_ROWS] for c in columns])
            fh.write(row * len(chunk) % tuple(chunk.ravel().tolist()))


def _write_trace_csv(path: Path, trace, digest: str):
    _write_csv(path, f"# scenario_digest={digest} seed={trace.seed} label={trace.label}\naxis,value_dbm",
               trace.axis, trace.values_dbm)


def _read_pump_sweep_csv(path: Path) -> list[PumpSweepPoint]:
    """The rows of a pump-sweep CSV.  They are counted a line at a time
    before any is parsed, so an oversized file is rejected in constant memory."""
    try:
        with path.open() as fh:
            for n, _ in enumerate(_data_rows(path, fh), 1):
                if n > MAX_POINTS:
                    raise DomainError(f"{path}: at most {MAX_POINTS} data rows, got more")
            fh.seek(0)
            return [_pump_sweep_point(path, i, line) for i, line in _data_rows(path, fh)]
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise DomainError(f"{path}: cannot read pump-sweep data: {reason}") from exc


def _pump_sweep_point(path: Path, i: int, line: str) -> PumpSweepPoint:
    parts = line.split(",")
    if len(parts) != 3:
        raise DomainError(f"{path}:{i}: expected pump_w,squeezing_db,antisqueezing_db")
    try:
        return PumpSweepPoint(*map(float, parts))
    except ValueError as exc:  # a DomainError is one too
        raise DomainError(f"{path}:{i}: {exc}") from exc


def _data_rows(path: Path, fh):
    """(line number, row) of each line that is not blank, a comment or the
    pump_w header; the header is the first non-comment line, wherever it falls."""
    first = True
    for i, line in enumerate(iter(partial(fh.readline, MAX_DATA_LINE_CHARS + 1), ""), 1):
        if len(line) > MAX_DATA_LINE_CHARS:
            raise DomainError(f"{path}:{i}: longer than {MAX_DATA_LINE_CHARS} characters")
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if not (first and line.startswith("pump_w")):
            yield i, line
        first = False


def _cmd_simulate(bundle, report, out_dir, args):
    s = bundle.scenario
    trace = simulate_zero_span(s)
    shot = simulate_shot_reference(s)
    digest = report.data["scenario_digest"]
    _write_trace_csv(out_dir / "zero_span.csv", trace, digest)
    _write_trace_csv(out_dir / "zero_span_shot.csv", shot, digest)
    # linear power relative to shot noise, so no level overflows or underflows
    ref = s.detector.shot_noise_dbm
    mean_db, shot_db = (ref + 10.0 * math.log10(np.mean(10.0 ** ((t.values_dbm - ref) / 10.0)))
                        for t in (trace, shot))
    report.add("trace_points", s.analyzer.points)
    report.add("video_averages", s.analyzer.video_averages)
    report.add("trace_mean_dbm", mean_db)
    report.add("shot_mean_dbm", shot_db)
    report.add("relative_mean_db", mean_db - shot_db)
    locked, anti = measured_noise_ratio(s, s.analyzer.center_frequency_hz)
    report.add("model_locked_db", nz.to_db(locked))
    report.add("model_anti_db", nz.to_db(anti))
    if s.lock_mode == "scanned":
        top, bottom = trace_extrema(trace)
        report.add("trace_max_db", top - s.detector.shot_noise_dbm)
        report.add("trace_min_db", bottom - s.detector.shot_noise_dbm)


def _cmd_sweep(bundle, report, out_dir, args):
    sweep = sweep_frequency(
        bundle.scenario, bundle.sweep_f_min_hz, bundle.sweep_f_max_hz, bundle.sweep_points
    )
    for name, trace in (
        ("squeezed", sweep.squeezed),
        ("shot", sweep.shot),
        ("circuit", sweep.circuit),
        ("floor", sweep.floor),
    ):
        _write_trace_csv(out_dir / f"sweep_{name}.csv", trace, report.data["scenario_digest"])
    best = select_measurement_frequency(sweep)
    report.add("best_frequency_hz", best)
    report.add("max_clearance_db", float(np.max(sweep.clearance_db())))


def _cmd_bode(bundle, report, out_dir, args):
    grid = log_frequency_grid()
    for loop in bundle.loops:
        _write_csv(out_dir / f"bode_{loop.kind}.csv", "frequency_hz,gain_db,phase_deg",
                   grid, *bode(loop, grid))
        report.add(f"{loop.kind}_points", grid.size)


def _cmd_margins(bundle, report, out_dir, args):
    for loop in bundle.loops:
        m = stability_margins(loop)
        prefix = loop.kind
        report.add(f"{prefix}_phase_crossover_hz", m.phase_crossover_hz)
        report.add(f"{prefix}_gain_margin_db", m.gain_margin_db)
        report.add(f"{prefix}_gain_crossover_hz", m.gain_crossover_hz)
        report.add(f"{prefix}_phase_margin_deg", m.phase_margin_deg)
        if not m.stable:
            report.warn(f"{prefix}: loop margins indicate instability")


def _cmd_select_freq(bundle, report, out_dir, args):
    shift = select_shift_frequency(
        list(bundle.loops),
        list(bundle.shift_candidates_hz),
        min_gain_margin_db=bundle.min_gain_margin_db,
        min_phase_margin_deg=bundle.min_phase_margin_deg,
    )
    report.add("shift_frequency_hz", shift)
    report.add("opa_probe_demod_hz", demod_frequency(shift, "opa_probe"))
    report.add("probe_lo_demod_hz", demod_frequency(shift, "probe_lo"))


def _cmd_fit(bundle, report, out_dir, args):
    if not args.data:
        raise DomainError("fit requires --data CSV (pump_w,squeezing_db,antisqueezing_db)")
    data = _read_pump_sweep_csv(Path(args.data))
    result = fit_pump_sweep(data, bounds=bundle.fit_bounds)
    report.add("transmittance", result.transmittance)
    report.add("shg_efficiency_per_watt", result.shg_efficiency)
    report.add("jitter_deg", result.jitter_deg)
    sigma = np.sqrt(np.diag(result.covariance))
    report.add("transmittance_sigma", float(sigma[0]))
    report.add("shg_efficiency_sigma_per_watt", float(sigma[1]))
    report.add("jitter_sigma_deg", math.degrees(sigma[2]))
    report.add("residual_db2", result.residual)
    report.add("iterations", result.iterations)
    report.add("converged", result.converged)


def _cmd_optimize(bundle, report, out_dir, args):
    s = bundle.scenario
    eta = s.opa.transmittance * s.detection_transmittance
    alpha = s.opa.shg_efficiency
    theta = s.jitter.theta
    op = optimal_pump_power(eta, alpha, theta, detection_transmittance=s.detection_transmittance)
    if op.pump_power_w < _GRID_STEP_W:
        raise InfeasibleError(f"optimal pump power {op.pump_power_w:.6g} W lies below the grid "
                              f"oracle's first point, {_GRID_STEP_W} W, so the oracle cannot check it")
    grid_end = _grid_end(alpha)
    if op.pump_power_w > grid_end:
        raise InfeasibleError(f"optimal pump power {op.pump_power_w:.6g} W lies above the grid "
                              f"oracle's last point, {grid_end:.6g} W, so the oracle cannot check it")
    oracle = grid_search_optimal_pump(eta, alpha, theta)
    report.add("optimal_pump_w", op.pump_power_w)
    report.add("grid_oracle_pump_w", oracle)
    report.add("oracle_gap_w", abs(op.pump_power_w - oracle))
    report.add("predicted_squeezing_db", op.squeezing_db)
    report.add("predicted_anti_squeezing_db", op.anti_squeezing_db)
    report.add("source_squeezing_db", op.source_squeezing_db)


def _cmd_budget(bundle, report, out_dir, args):
    s = bundle.scenario
    rep = loss_budget_report(
        s.detection_budget, s.detector, s.analyzer.center_frequency_hz
    )
    for label, loss in rep.elements:
        report.add(f"loss_{label}", loss)
    report.add("circuit_equiv_loss", rep.circuit_equiv_loss)
    report.add("multiplicative_transmittance", rep.multiplicative_transmittance)
    report.add("additive_total_loss", rep.additive_total_loss)
    if rep.discrepancy > 1e-12:
        report.warn(
            f"additive total overstates the loss by {rep.discrepancy:.6f} "
            "versus multiplicative composition"
        )


def _cmd_report(bundle, report, out_dir, args):
    s = bundle.scenario
    locked, anti = measured_noise_ratio(s, s.analyzer.center_frequency_hz)
    report.add("measured_squeezing_db", nz.to_db(locked))
    report.add("measured_anti_squeezing_db", nz.to_db(anti))
    measured = _optical_pair(s)
    # the anti-squeezed branch first: its error is the one reported when both are infeasible
    source_anti = nz.invert_loss(measured.anti, s.detection_transmittance)
    report.add("source_squeezing_db", nz.to_db(nz.invert_loss(measured.sq, s.detection_transmittance)))
    report.add("source_anti_squeezing_db", nz.to_db(source_anti))
    _cmd_margins(bundle, report, out_dir, args)
    _cmd_budget(bundle, report, out_dir, args)


_DISPATCH = {
    "simulate": _cmd_simulate,
    "sweep": _cmd_sweep,
    "bode": _cmd_bode,
    "margins": _cmd_margins,
    "select-freq": _cmd_select_freq,
    "fit": _cmd_fit,
    "optimize": _cmd_optimize,
    "budget": _cmd_budget,
    "report": _cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="opasim",
        description="Squeezed-light experiment simulator and design toolkit",
    )
    parser.add_argument("command", choices=_DISPATCH)
    parser.add_argument("scenario", help="scenario file path")
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument("--out-dir", default=".", help="directory for artifacts")
    parser.add_argument("--format", choices=("csv", "kv"), default="kv",
                        help="stdout format for the report")
    parser.add_argument("--quiet", action="store_true", help="suppress stdout report")
    parser.add_argument("--data", default=None, help="pump-sweep CSV for the fit command")
    return parser


def run(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        bundle = load_scenario(args.scenario)
        if args.seed is not None:
            bundle = dataclasses.replace(
                bundle,
                scenario=dataclasses.replace(
                    bundle.scenario,
                    analyzer=dataclasses.replace(bundle.scenario.analyzer, seed=args.seed),
                ),
            )
        out_dir = Path(args.out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        digest = hashlib.sha256(serialize_scenario(bundle).encode()).hexdigest()[:16]
        report = RunReport(args.command, digest, bundle.scenario.analyzer.seed)
        _DISPATCH[args.command](bundle, report, out_dir, args)
        (out_dir / f"{args.command.replace('-', '_')}_report.json").write_text(report.as_json())
        if not args.quiet:
            sys.stdout.write(report.as_csv() if args.format == "csv" else report.as_kv())
        return 0
    except (ToolError, OSError) as exc:
        if isinstance(exc, OSError):  # an --out-dir that cannot be made or written
            exc = DomainError(f"cannot write output: {exc}")
        sys.stderr.write(f"error [{exc.category}]: {exc}\n")
        return exc.exit_code


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
