"""Declarative scenario files: INI-style sections with strictly-unit-suffixed
values ("660 mW", "0.8 deg", "3 percent").  Bare numbers are rejected for
physical quantities because the inputs mix %/W, mW, MHz and degrees and a
silent unit bug is the main hazard.  Unknown sections or keys are errors.

The table ``_FORMAT`` is the only definition of the format: every section,
key, unit kind, default and required key, and where each value lives in a
loaded bundle.  ``loads_scenario`` validates and parses by it, and
``serialize_scenario`` writes by it.
"""

from __future__ import annotations

import configparser
import io
import math
from dataclasses import dataclass

from .errors import ScenarioParseError, ScenarioValidationError, DomainError
from . import noise as nz
from .detection import (
    MAX_POINTS, AnalyzerSettings, DetectorModel, Scenario, check_points,
)
from .fitting import FitBounds
from .loop import LoopModel, default_lock_loops

__all__ = ["ScenarioBundle", "load_scenario", "loads_scenario", "serialize_scenario"]

# Largest scenario file load_scenario reads.  MAX_POINTS shift candidates of
# the longest float text ("-2.2250738585072014e-308 Hz, ") take 29 MB.
MAX_SCENARIO_BYTES = 32 * 2**20

# unit kind -> unit -> scale; the first unit of each kind is its scale-1 unit
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


_NO_DEFAULT = object()  # marks a key that every scenario file must give


# section -> key -> (kind, default or _NO_DEFAULT, value in a bundle).  A kind
# is a key of _UNITS, "int", "frequency_list" or a tuple of choices; values
# are in the kind's scale-1 unit.  A section with a key that has no default
# is required.  [detection_loss] has free-form keys, each a labelled fraction.
_FORMAT = {
    "opa": {
        "pump_power": ("power", _NO_DEFAULT, lambda b: b.scenario.opa.pump_power),
        "shg_efficiency": ("per_watt", _NO_DEFAULT, lambda b: b.scenario.opa.shg_efficiency),
        "waveguide_loss": ("fraction", _NO_DEFAULT, lambda b: 1.0 - b.scenario.opa.transmittance),
    },
    "phase": {
        "jitter": ("angle", _NO_DEFAULT, lambda b: b.scenario.jitter.theta),
        "lock_mode": (("locked", "scanned"), "locked", lambda b: b.scenario.lock_mode),
        "scan_rate": ("frequency", 20.0, lambda b: b.scenario.scan_rate_hz),
    },
    "detection_loss": None,
    "detector": {
        "shot_noise_level": ("dbm", -83.0, lambda b: b.scenario.detector.shot_noise_dbm),
        "clearance": ("db", 25.0, lambda b: b.scenario.detector.peak_clearance_db),
        "clearance_frequency": ("frequency", 11e6, lambda b: b.scenario.detector.peak_frequency_hz),
        "circuit_high_corner": ("frequency", 30e6, lambda b: b.scenario.detector.high_corner_hz),
        "circuit_slope": ("slope", 20.0, lambda b: b.scenario.detector.slope_db_per_decade),
        "analyzer_floor_offset": ("db", -10.0, lambda b: b.scenario.detector.analyzer_floor_offset_db),
    },
    "analyzer": {
        "center_frequency": ("frequency", _NO_DEFAULT, lambda b: b.scenario.analyzer.center_frequency_hz),
        "span": ("frequency", _NO_DEFAULT, lambda b: b.scenario.analyzer.span_hz),
        "rbw": ("frequency", _NO_DEFAULT, lambda b: b.scenario.analyzer.rbw_hz),
        "vbw": ("frequency", _NO_DEFAULT, lambda b: b.scenario.analyzer.vbw_hz),
        "sweep_time": ("time", _NO_DEFAULT, lambda b: b.scenario.analyzer.sweep_time_s),
        "points": ("int", _NO_DEFAULT, lambda b: b.scenario.analyzer.points),
        "seed": ("int", _NO_DEFAULT, lambda b: b.scenario.analyzer.seed),
    },
    "lock_loops": {
        "opa_probe_crossover": ("frequency", 4e6, lambda b: b.crossover_targets_hz[0]),
        "probe_lo_crossover": ("frequency", 2e6, lambda b: b.crossover_targets_hz[1]),
        "min_gain_margin": ("db", 6.0, lambda b: b.min_gain_margin_db),
        "min_phase_margin": ("angle_deg", 30.0, lambda b: b.min_phase_margin_deg),
        "shift_candidates": (
            "frequency_list", (0.25e6, 0.5e6, 1e6, 2e6, 4e6), lambda b: b.shift_candidates_hz
        ),
    },
    "frequency_sweep": {
        "start": ("frequency", 2e6, lambda b: b.sweep_f_min_hz),
        "stop": ("frequency", 50e6, lambda b: b.sweep_f_max_hz),
        "points": ("int", 97, lambda b: b.sweep_points),
    },
    "fit_bounds": {
        "eta_min": ("fraction", 0.5, lambda b: b.fit_bounds.eta_min),
        "eta_max": ("fraction", 1.0, lambda b: b.fit_bounds.eta_max),
        "alpha_min": ("per_watt", 1.0, lambda b: b.fit_bounds.alpha_min),
        "alpha_max": ("per_watt", 20.0, lambda b: b.fit_bounds.alpha_max),
        "jitter_max": ("angle", math.radians(5.0), lambda b: b.fit_bounds.jitter_max_rad),
    },
}

# Losses that act through the detection chain, not through detector settings.
_DETECTION_LOSS_KEYS = {
    "visibility": "the mode-mismatch loss 1 - V^2",
    "pd_quantum_efficiency": "the photodiode loss 1 - QE",
}


def _parse_value(text: str, kind, path: str, errors: list[str]):
    """The value of ``text`` as a ``kind``, or None after appending a
    violation to ``errors``."""
    if isinstance(kind, tuple):
        if text in kind:
            return text
        errors.append(f"{path}: expected one of {kind}, got {text!r}")
        return None
    if kind == "int":
        try:
            return int(text)
        except ValueError:
            errors.append(f"{path}: expected an integer, got {text!r}")
            return None
    if kind == "frequency_list":
        count = text.count(",") + 1  # counted before any item is built
        if count > MAX_POINTS:
            errors.append(f"{path}: at most {MAX_POINTS} candidates, got {count}")
            return None
        return tuple(_parse_value(item.strip(), "frequency", f"{path}[{i}]", errors)
                     for i, item in enumerate(text.split(",")))
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
    value *= scale
    if not math.isfinite(value):
        errors.append(f"{path}: not a finite value: {text!r}")
        return None
    return value


def _format_value(value, kind) -> str:
    """``value`` as scenario-file text, quantities in their scale-1 unit."""
    if isinstance(kind, tuple):
        return str(value)
    if kind == "int":
        return str(int(value))
    if kind == "frequency_list":
        return ", ".join(_format_value(v, "frequency") for v in value)
    return f"{float(value)!r} {next(iter(_UNITS[kind]))}"


def loads_scenario(text: str, name: str = "<string>") -> ScenarioBundle:
    # no header can be empty, so [DEFAULT] is an ordinary, unknown section
    parser = configparser.ConfigParser(interpolation=None, delimiters=("=",), default_section="")
    parser.optionxform = str
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ScenarioParseError(f"{name}: {exc}") from exc
    if not parser.sections():
        raise ScenarioParseError(f"{name}: no sections found")

    errors = [f"{section}: unknown section" for section in parser.sections() if section not in _FORMAT]
    values: dict[str, dict] = {}
    for section, keys in _FORMAT.items():
        given = parser[section] if parser.has_section(section) else {}
        if keys is None:
            values[section] = {
                label: _parse_value(given[label], "fraction", f"{section}.{label}", errors)
                for label in given
            }
            continue
        if not parser.has_section(section) and any(d is _NO_DEFAULT for _, d, _ in keys.values()):
            errors.append(f"{section}: required section missing")
            continue
        for key in given:
            if section == "detector" and key in _DETECTION_LOSS_KEYS:
                errors.append(
                    f"detector.{key}: not a detector setting; give "
                    f"{_DETECTION_LOSS_KEYS[key]} as an entry of [detection_loss]"
                )
            elif key not in keys:
                errors.append(f"{section}.{key}: unknown key")
        values[section] = {}
        for key, (kind, default, _) in keys.items():
            if key in given:
                values[section][key] = _parse_value(given[key], kind, f"{section}.{key}", errors)
            elif default is _NO_DEFAULT:
                errors.append(f"{section}.{key}: required key missing")
            else:
                values[section][key] = default
    if errors:
        raise ScenarioValidationError(errors)

    # construct the object graph, mapping invariant violations back to fields
    def build(path, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except DomainError as exc:
            errors.append(f"{path}: {exc}")
            return None

    o, ph, det, an, ll, fs, fb = (values[section] for section in (
        "opa", "phase", "detector", "analyzer", "lock_loops", "frequency_sweep", "fit_bounds"
    ))
    opa = build("opa", nz.OpaParams, shg_efficiency=o["shg_efficiency"], pump_power=o["pump_power"],
                transmittance=1.0 - o["waveguide_loss"])
    jitter = build("phase.jitter", nz.PhaseJitter, ph["jitter"])
    budget = nz.LossBudget(tuple(
        build(f"detection_loss.{label}", nz.LossElement, label=label, loss=loss)
        for label, loss in values["detection_loss"].items()
    ))
    detector = build(
        "detector", DetectorModel,
        shot_noise_dbm=det["shot_noise_level"],
        peak_clearance_db=det["clearance"],
        peak_frequency_hz=det["clearance_frequency"],
        high_corner_hz=det["circuit_high_corner"],
        slope_db_per_decade=det["circuit_slope"],
        analyzer_floor_offset_db=det["analyzer_floor_offset"],
    )
    analyzer = build(
        "analyzer", AnalyzerSettings,
        center_frequency_hz=an["center_frequency"], span_hz=an["span"], rbw_hz=an["rbw"],
        vbw_hz=an["vbw"], sweep_time_s=an["sweep_time"], points=an["points"], seed=an["seed"],
    )
    fit_bounds = build(
        "fit_bounds", FitBounds, eta_min=fb["eta_min"], eta_max=fb["eta_max"],
        alpha_min=fb["alpha_min"], alpha_max=fb["alpha_max"], jitter_max_rad=fb["jitter_max"],
    )
    build("frequency_sweep", check_points, fs["points"], 1)
    loops = build("lock_loops", default_lock_loops, ll["opa_probe_crossover"], ll["probe_lo_crossover"])
    scenario = None
    if not errors:
        scenario = build(
            "scenario", Scenario,
            opa=opa, jitter=jitter, detection_budget=budget, detector=detector,
            analyzer=analyzer, lock_mode=ph["lock_mode"], scan_rate_hz=ph["scan_rate"],
        )
    if errors:
        raise ScenarioValidationError(errors)
    return ScenarioBundle(
        scenario=scenario,
        loops=tuple(loops),
        crossover_targets_hz=(ll["opa_probe_crossover"], ll["probe_lo_crossover"]),
        shift_candidates_hz=ll["shift_candidates"],
        min_gain_margin_db=ll["min_gain_margin"],
        min_phase_margin_deg=ll["min_phase_margin"],
        sweep_f_min_hz=fs["start"],
        sweep_f_max_hz=fs["stop"],
        sweep_points=fs["points"],
        fit_bounds=fit_bounds,
    )


def load_scenario(path) -> ScenarioBundle:
    """Load a UTF-8 scenario file of at most MAX_SCENARIO_BYTES bytes.  It is
    read in chunks, never more than one byte past the cap, so a larger file
    costs memory in proportion to the cap, not to its size."""
    chunks, size = [], 0
    try:
        with open(path, "rb") as fh:
            while size <= MAX_SCENARIO_BYTES and (
                chunk := fh.read(min(2**16, MAX_SCENARIO_BYTES + 1 - size))
            ):
                chunks.append(chunk)
                size += len(chunk)
    except OSError as exc:
        raise ScenarioParseError(f"{path}: {exc}") from exc
    if size > MAX_SCENARIO_BYTES:
        raise ScenarioParseError(f"{path}: larger than {MAX_SCENARIO_BYTES} bytes")
    try:
        # decoded as text-mode open() would, universal newlines included
        text = io.TextIOWrapper(io.BytesIO(b"".join(chunks)), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise ScenarioParseError(f"{path}: not UTF-8 text: {exc}") from exc
    return loads_scenario(text, name=str(path))


def serialize_scenario(bundle: ScenarioBundle) -> str:
    """Render a bundle back to scenario-file text, every key of ``_FORMAT``
    included.  Loading the output reproduces an identical object graph."""
    blocks = []
    for section, keys in _FORMAT.items():
        if keys is None:
            items = [(e.label, e.loss, "fraction") for e in bundle.scenario.detection_budget.elements]
        else:
            items = [(key, value(bundle), kind) for key, (kind, _, value) in keys.items()]
        lines = [f"[{section}]"] + [f"{key} = {_format_value(v, kind)}" for key, v, kind in items]
        blocks.append("\n".join(lines) + "\n")
    return "\n".join(blocks)
