"""Declarative scenario files: INI-style sections with strictly-unit-suffixed
values ("660 mW", "0.8 deg", "3 percent").  Bare numbers are rejected for
physical quantities because the inputs mix %/W, mW, MHz and degrees and a
silent unit bug is the main hazard.  Unknown sections or keys are errors.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .errors import ScenarioParseError, ScenarioValidationError, DomainError
from . import noise as nz
from .detection import (
    MAX_POINTS, AnalyzerSettings, DetectorModel, Scenario, check_points, default_detector_model,
)
from .fitting import FitBounds
from .loop import LoopModel, default_lock_loops

__all__ = ["ScenarioBundle", "load_scenario", "loads_scenario", "serialize_scenario"]

_UNITS = {
    "power": {"W": 1.0, "mW": 1e-3, "uW": 1e-6},
    "frequency": {"Hz": 1.0, "kHz": 1e3, "MHz": 1e6, "GHz": 1e9},
    "angle": {"rad": 1.0, "deg": math.pi / 180.0},
    "angle_deg": {"deg": 1.0},
    "fraction": {"fraction": 1.0, "percent": 1e-2},
    "time": {"s": 1.0, "ms": 1e-3, "us": 1e-6, "ns": 1e-9},
    "db": {"dB": 1.0},
    "dbm": {"dBm": 1.0},
    "per_watt": {"per_watt": 1.0, "percent_per_watt": 1e-2},
    "slope": {"dB_per_decade": 1.0},
}


def _parse_quantity(text: str, kind: str, path: str, errors: list[str]) -> float | None:
    parts = text.split()
    if len(parts) != 2:
        errors.append(f"{path}: expected '<number> <unit>', got {text!r}")
        return None
    try:
        value = float(parts[0])
    except ValueError:
        errors.append(f"{path}: not a number: {parts[0]!r}")
        return None
    scale = _UNITS[kind].get(parts[1])
    if scale is None:
        errors.append(
            f"{path}: unit {parts[1]!r} invalid for {kind}; "
            f"allowed: {', '.join(_UNITS[kind])}"
        )
        return None
    return value * scale


def _parse_int(text: str, path: str, errors: list[str]) -> int | None:
    try:
        return int(text)
    except ValueError:
        errors.append(f"{path}: expected an integer, got {text!r}")
        return None


def _parse_choice(text: str, choices: tuple[str, ...], path: str, errors: list[str]) -> str | None:
    if text not in choices:
        errors.append(f"{path}: expected one of {choices}, got {text!r}")
        return None
    return text


@dataclass(frozen=True)
class ScenarioBundle:
    """A scenario plus the companion design inputs the CLI commands need."""

    scenario: Scenario
    loops: tuple[LoopModel, ...]
    crossover_targets_hz: tuple[float, float]  # (opa_probe, probe_lo)
    shift_candidates_hz: tuple[float, ...]
    min_gain_margin_db: float
    min_phase_margin_deg: float
    sweep_f_min_hz: float
    sweep_f_max_hz: float
    sweep_points: int
    fit_bounds: FitBounds


_SCHEMA = {
    "opa": {"pump_power", "shg_efficiency", "waveguide_loss"},
    "phase": {"jitter", "lock_mode", "scan_rate"},
    "detection_loss": None,  # free-form labeled losses
    "detector": {
        "shot_noise_level",
        "clearance",
        "clearance_frequency",
        "circuit_high_corner",
        "circuit_slope",
        "analyzer_floor_offset",
    },
    "analyzer": {"center_frequency", "span", "rbw", "vbw", "sweep_time", "points", "seed"},
    "lock_loops": {
        "opa_probe_crossover",
        "probe_lo_crossover",
        "shift_candidates",
        "min_gain_margin",
        "min_phase_margin",
    },
    "frequency_sweep": {"start", "stop", "points"},
    "fit_bounds": {"eta_min", "eta_max", "alpha_min", "alpha_max", "jitter_max"},
}

# Losses that act through the detection chain, not through detector settings.
_DETECTION_LOSS_KEYS = {
    "visibility": "the mode-mismatch loss 1 - V^2",
    "pd_quantum_efficiency": "the photodiode loss 1 - QE",
}

_REQUIRED = {
    "opa": {"pump_power", "shg_efficiency", "waveguide_loss"},
    "phase": {"jitter"},
    "analyzer": {"center_frequency", "span", "rbw", "vbw", "sweep_time", "points", "seed"},
}


def loads_scenario(text: str, name: str = "<string>") -> ScenarioBundle:
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
    parser.optionxform = str
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioParseError(f"{name}: {exc}") from exc
    if not parser.sections():
        raise ScenarioParseError(f"{name}: no sections found")

    errors: list[str] = []
    for section in parser.sections():
        if section not in _SCHEMA:
            errors.append(f"{section}: unknown section")
            continue
        allowed = _SCHEMA[section]
        if allowed is not None:
            for key in parser[section]:
                if section == "detector" and key in _DETECTION_LOSS_KEYS:
                    errors.append(
                        f"detector.{key}: not a detector setting; give "
                        f"{_DETECTION_LOSS_KEYS[key]} as an entry of [detection_loss]"
                    )
                elif key not in allowed:
                    errors.append(f"{section}.{key}: unknown key")
    for section, keys in _REQUIRED.items():
        if not parser.has_section(section):
            errors.append(f"{section}: required section missing")
            continue
        for key in keys:
            if key not in parser[section]:
                errors.append(f"{section}.{key}: required key missing")
    if errors:
        raise ScenarioValidationError(errors)

    def get(section, key, kind, default=None):
        if parser.has_section(section) and key in parser[section]:
            return _parse_quantity(parser[section][key], kind, f"{section}.{key}", errors)
        return default

    pump = get("opa", "pump_power", "power")
    alpha = get("opa", "shg_efficiency", "per_watt")
    wg_loss = get("opa", "waveguide_loss", "fraction")
    jitter_rad = get("phase", "jitter", "angle")
    lock_mode = "locked"
    if parser.has_option("phase", "lock_mode"):
        lock_mode = _parse_choice(
            parser["phase"]["lock_mode"], ("locked", "scanned"), "phase.lock_mode", errors
        ) or "locked"
    scan_rate = get("phase", "scan_rate", "frequency", 20.0)

    budget_elements = []
    if parser.has_section("detection_loss"):
        for label in parser["detection_loss"]:
            loss = _parse_quantity(
                parser["detection_loss"][label], "fraction", f"detection_loss.{label}", errors
            )
            if loss is not None:
                try:
                    budget_elements.append(nz.LossElement(label=label, loss=loss))
                except DomainError as exc:
                    errors.append(f"detection_loss.{label}: {exc}")

    det_kwargs = dict(
        shot_noise_dbm=get("detector", "shot_noise_level", "dbm", -83.0),
        clearance_db=get("detector", "clearance", "db", 25.0),
        clearance_frequency_hz=get("detector", "clearance_frequency", "frequency", 11e6),
        high_corner_hz=get("detector", "circuit_high_corner", "frequency", 30e6),
        slope_db_per_decade=get("detector", "circuit_slope", "slope", 20.0),
        analyzer_floor_offset_db=get("detector", "analyzer_floor_offset", "db", -10.0),
    )

    analyzer_vals = dict(
        center_frequency_hz=get("analyzer", "center_frequency", "frequency"),
        span_hz=get("analyzer", "span", "frequency"),
        rbw_hz=get("analyzer", "rbw", "frequency"),
        vbw_hz=get("analyzer", "vbw", "frequency"),
        sweep_time_s=get("analyzer", "sweep_time", "time"),
    )
    points = _parse_int(parser["analyzer"]["points"], "analyzer.points", errors) \
        if parser.has_option("analyzer", "points") else None
    seed = _parse_int(parser["analyzer"]["seed"], "analyzer.seed", errors) \
        if parser.has_option("analyzer", "seed") else None

    opa_xover = get("lock_loops", "opa_probe_crossover", "frequency", 4e6)
    lo_xover = get("lock_loops", "probe_lo_crossover", "frequency", 2e6)
    min_gm = get("lock_loops", "min_gain_margin", "db", 6.0)
    min_pm_deg = get("lock_loops", "min_phase_margin", "angle_deg", 30.0)
    candidates = (0.25e6, 0.5e6, 1e6, 2e6, 4e6)
    if parser.has_option("lock_loops", "shift_candidates"):
        items = parser["lock_loops"]["shift_candidates"].split(",")
        if len(items) > MAX_POINTS:
            errors.append(f"lock_loops.shift_candidates: at most {MAX_POINTS} candidates, got {len(items)}")
            items = []
        parsed = (_parse_quantity(item.strip(), "frequency", f"lock_loops.shift_candidates[{i}]", errors)
                  for i, item in enumerate(items))
        candidates = tuple(v for v in parsed if v is not None)

    sweep_start = get("frequency_sweep", "start", "frequency", 2e6)
    sweep_stop = get("frequency_sweep", "stop", "frequency", 50e6)
    sweep_points = _parse_int(parser["frequency_sweep"]["points"], "frequency_sweep.points", errors) \
        if parser.has_option("frequency_sweep", "points") else 97

    fb_kwargs = dict(
        eta_min=get("fit_bounds", "eta_min", "fraction", 0.5),
        eta_max=get("fit_bounds", "eta_max", "fraction", 1.0),
        alpha_min=get("fit_bounds", "alpha_min", "per_watt", 1.0),
        alpha_max=get("fit_bounds", "alpha_max", "per_watt", 20.0),
        jitter_max_rad=get("fit_bounds", "jitter_max", "angle", math.radians(5.0)),
    )

    if errors:
        raise ScenarioValidationError(errors)

    # construct the object graph, mapping invariant violations back to fields
    def build(path, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            errors.append(f"{path}: {exc}")
            return None

    opa = build("opa", nz.OpaParams, shg_efficiency=alpha, pump_power=pump,
                transmittance=1.0 - wg_loss if wg_loss is not None else None)
    jitter = build("phase.jitter", nz.PhaseJitter, jitter_rad)
    budget = nz.LossBudget(tuple(budget_elements))
    detector = build("detector", default_detector_model, **det_kwargs)
    analyzer = build("analyzer", AnalyzerSettings, points=points, seed=seed, **analyzer_vals)
    fit_bounds = build("fit_bounds", FitBounds, **fb_kwargs)
    build("frequency_sweep", check_points, sweep_points, 1)
    loops = None
    try:
        loops = default_lock_loops(opa_xover, lo_xover)
    except DomainError as exc:
        errors.append(f"lock_loops: {exc}")
    scenario = None
    if not errors:
        scenario = build(
            "scenario", Scenario,
            opa=opa, jitter=jitter, detection_budget=budget, detector=detector,
            analyzer=analyzer, lock_mode=lock_mode, scan_rate_hz=scan_rate,
        )
    if errors:
        raise ScenarioValidationError(errors)
    return ScenarioBundle(
        scenario=scenario,
        loops=tuple(loops),
        crossover_targets_hz=(opa_xover, lo_xover),
        shift_candidates_hz=tuple(candidates),
        min_gain_margin_db=min_gm,
        min_phase_margin_deg=min_pm_deg,
        sweep_f_min_hz=sweep_start,
        sweep_f_max_hz=sweep_stop,
        sweep_points=sweep_points,
        fit_bounds=fit_bounds,
    )


def load_scenario(path) -> ScenarioBundle:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    return loads_scenario(text, name=str(path))


def serialize_scenario(bundle: ScenarioBundle) -> str:
    """Render a bundle back to scenario-file text.  Loading the output
    reproduces an identical object graph."""
    s = bundle.scenario
    det = s.detector
    # recover the calibration inputs of the detector model
    clearance_f = det.design_frequency_hz
    clearance = float(det.clearance_db(clearance_f))
    out = io.StringIO()

    def sec(name):
        out.write(f"[{name}]\n")

    def kv(key, value, unit):
        out.write(f"{key} = {value!r} {unit}\n")

    sec("opa")
    kv("pump_power", s.opa.pump_power, "W")
    kv("shg_efficiency", s.opa.shg_efficiency, "per_watt")
    kv("waveguide_loss", 1.0 - s.opa.transmittance, "fraction")
    out.write("\n")
    sec("phase")
    kv("jitter", s.jitter.theta, "rad")
    out.write(f"lock_mode = {s.lock_mode}\n")
    kv("scan_rate", s.scan_rate_hz, "Hz")
    out.write("\n")
    sec("detection_loss")
    for e in s.detection_budget.elements:
        kv(e.label, e.loss, "fraction")
    out.write("\n")
    sec("detector")
    kv("shot_noise_level", det.shot_noise_dbm, "dBm")
    kv("clearance", clearance, "dB")
    kv("clearance_frequency", clearance_f, "Hz")
    kv("circuit_high_corner", det.circuit.high_corner_hz, "Hz")
    kv("circuit_slope", det.circuit.slope_db_per_decade, "dB_per_decade")
    kv("analyzer_floor_offset", det.analyzer_floor_dbm - det.circuit.floor_dbm, "dB")
    out.write("\n")
    sec("analyzer")
    a = s.analyzer
    kv("center_frequency", a.center_frequency_hz, "Hz")
    kv("span", a.span_hz, "Hz")
    kv("rbw", a.rbw_hz, "Hz")
    kv("vbw", a.vbw_hz, "Hz")
    kv("sweep_time", a.sweep_time_s, "s")
    out.write(f"points = {a.points}\n")
    out.write(f"seed = {a.seed}\n")
    out.write("\n")
    sec("lock_loops")
    kv("opa_probe_crossover", bundle.crossover_targets_hz[0], "Hz")
    kv("probe_lo_crossover", bundle.crossover_targets_hz[1], "Hz")
    kv("min_gain_margin", bundle.min_gain_margin_db, "dB")
    kv("min_phase_margin", bundle.min_phase_margin_deg, "deg")
    out.write(
        "shift_candidates = "
        + ", ".join(f"{c!r} Hz" for c in bundle.shift_candidates_hz)
        + "\n\n"
    )
    sec("frequency_sweep")
    kv("start", bundle.sweep_f_min_hz, "Hz")
    kv("stop", bundle.sweep_f_max_hz, "Hz")
    out.write(f"points = {bundle.sweep_points}\n\n")
    sec("fit_bounds")
    fb = bundle.fit_bounds
    kv("eta_min", fb.eta_min, "fraction")
    kv("eta_max", fb.eta_max, "fraction")
    kv("alpha_min", fb.alpha_min, "per_watt")
    kv("alpha_max", fb.alpha_max, "per_watt")
    kv("jitter_max", fb.jitter_max_rad, "rad")
    return out.getvalue()
