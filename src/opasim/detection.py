"""Measurement-chain emulation: homodyne detector noise levels and an
electrical spectrum analyzer (zero-span traces and frequency sweeps).

Displayed analyzer points follow standard noise statistics: each
RBW-filtered power sample is exponential (chi-squared, 2 DOF) and the video
filter averages K = RBW/VBW samples per point.  That average is exactly
Gamma(K, 1/K) times the point's mean power, so each point is drawn as one
gamma variate and a trace costs O(points) whatever K is.  Traces are
deterministic for a fixed seed.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError
from . import noise as nz

__all__ = [
    "DetectorModel",
    "AnalyzerSettings",
    "Scenario",
    "Trace",
    "FrequencySweep",
    "measured_noise_ratio",
    "simulate_zero_span",
    "sweep_frequency",
    "select_measurement_frequency",
    "MAX_POINTS",
    "check_points",
]

MAX_POINTS = 1_000_000  # cap on trace and sweep points, so no scenario asks for unbounded arrays


def check_points(points: int, minimum: int) -> None:
    """DomainError unless ``points`` is an integer in [minimum, MAX_POINTS]."""
    if not (isinstance(points, numbers.Integral) and minimum <= points <= MAX_POINTS):
        raise DomainError(f"points must be an integer in [{minimum}, {MAX_POINTS}], got {points}")


@dataclass(frozen=True)
class DetectorModel:
    """Homodyne detector noise levels, held as the ``[detector]`` section
    gives them.  Circuit noise has a flat floor with matching rises above
    ``high_corner_hz`` and below the low corner f_peak^2 / f_hi (1/f
    electronics), so the shot/circuit clearance peaks at
    ``peak_frequency_hz`` with the value ``peak_clearance_db``.  The
    analyzer floor sits ``analyzer_floor_offset_db`` from the circuit floor."""

    shot_noise_dbm: float = -83.0
    peak_clearance_db: float = 25.0
    peak_frequency_hz: float = 11e6
    high_corner_hz: float = 30e6
    slope_db_per_decade: float = 20.0
    analyzer_floor_offset_db: float = -10.0

    def __post_init__(self):
        for field in fields(self):
            nz._check_finite(field.name, getattr(self, field.name))
        if self.peak_frequency_hz <= 0:
            raise DomainError("peak_frequency_hz must be > 0")
        if self.high_corner_hz <= 0:
            raise DomainError("high_corner_hz must be > 0")
        if self.slope_db_per_decade <= 0:
            raise DomainError("slope must be > 0 dB/decade")
        if self.peak_clearance_db <= 0:
            raise DomainError("circuit noise is not below shot noise at the peak frequency")
        # the low corner and the circuit floor are derived once, as plain
        # attributes; the minimum of (f_lo/f)^n + (f/f_hi)^n sits at sqrt(f_lo f_hi)
        try:
            f_lo = self.peak_frequency_hz**2 / self.high_corner_hz
        except OverflowError:
            f_lo = math.inf
        object.__setattr__(self, "_f_lo", f_lo)
        shape_at_peak = float(self._shape_db(self.peak_frequency_hz))
        floor = self.shot_noise_dbm - self.peak_clearance_db - shape_at_peak
        nz._check_finite("circuit-noise floor", floor)
        object.__setattr__(self, "_floor_dbm", floor)

    @property
    def analyzer_floor_dbm(self) -> float:
        return self._floor_dbm + self.analyzer_floor_offset_db

    def _shape_db(self, f) -> np.ndarray:
        """The circuit-noise level over its floor (dB) at f > 0 Hz; inf where
        it overflows, which an infinite f does too."""
        f = np.asarray(f, dtype=float)
        if not f.min(initial=math.inf) > 0:  # NaN fails too
            raise DomainError(f"frequency must be finite and > 0 Hz, got {f[~(f > 0)][0]}")
        n = self.slope_db_per_decade / 10.0
        with np.errstate(all="ignore"):
            return 10.0 * np.log10(1.0 + (f / self.high_corner_hz) ** n + (self._f_lo / f) ** n)

    def circuit_level_dbm(self, f) -> np.ndarray:
        shape_db = self._shape_db(f)
        if not math.isfinite(shape_db.max(initial=0.0)):
            f = np.asarray(f, dtype=float)
            if f.max() == math.inf:
                raise DomainError(f"frequency must be finite and > 0 Hz, got {math.inf}")
            raise DomainError(
                f"circuit_slope {self.slope_db_per_decade:g} dB_per_decade overflows the "
                f"circuit-noise shape between {np.min(f):g} and {np.max(f):g} Hz"
            )
        return self._floor_dbm + shape_db

    def clearance_db(self, f) -> np.ndarray:
        return self.shot_noise_dbm - self.circuit_level_dbm(f)

    def circuit_ratio(self, f) -> np.ndarray:
        """Circuit noise as a linear power ratio relative to shot noise."""
        return 10.0 ** ((self.circuit_level_dbm(f) - self.shot_noise_dbm) / 10.0)


@dataclass(frozen=True)
class AnalyzerSettings:
    center_frequency_hz: float
    span_hz: float
    rbw_hz: float
    vbw_hz: float
    sweep_time_s: float
    points: int
    seed: int

    def __post_init__(self):
        for name in ("center_frequency_hz", "span_hz", "rbw_hz", "vbw_hz", "sweep_time_s"):
            nz._check_finite(name, getattr(self, name))
        if not self.center_frequency_hz > 0:
            raise DomainError("center_frequency must be > 0")
        if not self.vbw_hz > 0:
            raise DomainError("vbw must be > 0")
        nz._check_finite("rbw/vbw", self.rbw_hz / self.vbw_hz)
        if self.rbw_hz < self.vbw_hz:
            raise DomainError("rbw must be >= vbw")
        check_points(self.points, 2)
        if self.span_hz < 0:
            raise DomainError("span must be >= 0")
        if self.sweep_time_s <= 0:
            raise DomainError("sweep_time must be > 0")
        if self.seed < 0:
            raise DomainError(f"seed must be >= 0, got {self.seed}")

    @property
    def video_averages(self) -> int:
        return max(1, int(round(self.rbw_hz / self.vbw_hz)))


@dataclass(frozen=True)
class Scenario:
    """Complete experiment description.  ``opa.transmittance`` is the
    waveguide-internal transmittance; the detection chain is the loss
    budget, so the net squeezing transmittance is their product."""

    opa: nz.OpaParams
    jitter: nz.PhaseJitter
    detection_budget: nz.LossBudget
    detector: DetectorModel
    analyzer: AnalyzerSettings
    lock_mode: str = "locked"
    scan_rate_hz: float = 20.0

    def __post_init__(self):
        if self.lock_mode not in ("locked", "scanned"):
            raise DomainError(f"lock_mode must be 'locked' or 'scanned', got {self.lock_mode!r}")
        if self.lock_mode == "scanned" and not 0 < self.scan_rate_hz < math.inf:
            raise DomainError(f"scan_rate must be finite and > 0 for scanned mode, got {self.scan_rate_hz}")

    @property
    def detection_transmittance(self) -> float:
        return self.detection_budget.transmittance


@dataclass(frozen=True)
class Trace:
    axis: np.ndarray  # seconds (zero span) or Hz (sweeps)
    values_dbm: np.ndarray
    seed: int = 0
    label: str = ""

    def __post_init__(self):
        object.__setattr__(self, "axis", np.asarray(self.axis, dtype=float))
        object.__setattr__(self, "values_dbm", np.asarray(self.values_dbm, dtype=float))
        if self.axis.shape != self.values_dbm.shape:
            raise DomainError("axis and values must be the same length")
        if not np.all(np.isfinite(self.values_dbm)):
            raise DomainError("trace values must be finite")


def _optical_pair(s: Scenario) -> nz.QuadraturePair:
    q = nz.apply_loss(nz.opa_output_variances(s.opa), s.detection_transmittance)
    return nz.jitter_mix(q, s.jitter)


def measured_noise_ratio(s: Scenario, f: float) -> tuple[float, float]:
    """(locked, anti-locked) displayed noise ratios at sideband frequency f:
    optical variances through the full loss chain and jitter mixing, with
    circuit noise added as electrical power on top."""
    n_circ = float(s.detector.circuit_ratio(f))
    q = _optical_pair(s)
    return q.sq + n_circ, q.anti + n_circ


def _zero_span_trace(s: Scenario, sq: float, anti: float | None, seed: int, label: str) -> Trace:
    """Zero-span trace whose points have mean power ``sq`` (relative to shot
    noise) plus circuit noise, or, when ``anti`` is given, swing between
    ``anti`` and ``sq`` as the LO phase scans.  Each point is one
    Gamma(K, 1/K) draw times its mean: the video average of K exponential
    samples, drawn exactly."""
    a = s.analyzer
    t = np.linspace(0.0, a.sweep_time_s, a.points)
    n_circ = float(s.detector.circuit_ratio(a.center_frequency_hz))
    if anti is None:
        means = np.full(a.points, sq + n_circ)
    else:
        phase = 2.0 * math.pi * s.scan_rate_hz * t
        means = nz.mix(sq, anti, 1.0 - np.cos(phase) ** 2)[0] + n_circ
    k = a.video_averages
    draws = np.random.default_rng(seed).gamma(k, 1.0 / k, size=a.points)
    return Trace(
        axis=t,
        values_dbm=s.detector.shot_noise_dbm + 10.0 * np.log10(draws * means),
        seed=seed,
        label=label,
    )


def simulate_zero_span(s: Scenario) -> Trace:
    """Zero-span trace at the analyzer center frequency.

    Locked mode holds the squeezed quadrature; scanned mode ramps the LO
    phase linearly so the displayed level swings between the jittered
    anti-squeezed and squeezed envelopes.
    """
    if s.analyzer.span_hz != 0:
        raise DomainError("zero-span simulation requires span = 0")
    q = _optical_pair(s)
    anti = q.anti if s.lock_mode == "scanned" else None
    return _zero_span_trace(s, q.sq, anti, s.analyzer.seed, s.lock_mode)


def simulate_shot_reference(s: Scenario) -> Trace:
    """Zero-span trace with the pump blocked (shot noise + circuit noise),
    drawn with an offset seed so it is independent of the signal trace."""
    return _zero_span_trace(s, 1.0, None, s.analyzer.seed + 1, "shot")


@dataclass(frozen=True)
class FrequencySweep:
    frequencies_hz: np.ndarray
    squeezed: Trace
    shot: Trace
    circuit: Trace
    floor: Trace

    def clearance_db(self) -> np.ndarray:
        return self.shot.values_dbm - self.circuit.values_dbm


def sweep_frequency(s: Scenario, f_min: float, f_max: float, points: int = 97) -> FrequencySweep:
    """Analytic noise levels versus sideband frequency: squeezed, shot,
    circuit and analyzer-floor traces on a common linear grid."""
    if not 0 < f_min < f_max < math.inf:
        raise DomainError("need 0 < f_min < f_max < inf")
    check_points(points, 1)
    f = np.linspace(f_min, f_max, points)
    q = _optical_pair(s)
    circuit_dbm = s.detector.circuit_level_dbm(f)
    n_circ = 10.0 ** ((circuit_dbm - s.detector.shot_noise_dbm) / 10.0)  # circuit_ratio, from that level
    sq_dbm = s.detector.shot_noise_dbm + 10.0 * np.log10(q.sq + n_circ)

    def trace(values, label):
        return Trace(axis=f, values_dbm=values, seed=s.analyzer.seed, label=label)

    return FrequencySweep(
        frequencies_hz=f,
        squeezed=trace(sq_dbm, "squeezed"),
        shot=trace(np.full(points, s.detector.shot_noise_dbm), "shot"),
        circuit=trace(circuit_dbm, "circuit"),
        floor=trace(np.full(points, s.detector.analyzer_floor_dbm), "analyzer_floor"),
    )


def trace_extrema(trace: Trace) -> tuple[float, float]:
    """(max_dbm, min_dbm) envelope estimate of a scanned trace.

    The upper envelope is broad in the scan angle, so many displayed points
    sit near it and the raw maximum rides the upper tail of the averaging
    noise; a 9-point moving average in linear power removes that selection
    bias.  The lower envelope is sharp (anti-squeezed power grows
    quadratically off the null), so smoothing would blend it away and the
    raw minimum is the better estimator there.  A trace of fewer than 9
    points is one window, so its upper envelope is its mean, which is never
    below its minimum.
    """
    # linear power relative to the trace's top, so no level overflows
    top = trace.values_dbm.max()
    lin = 10.0 ** ((trace.values_dbm - top) / 10.0)
    if lin.size >= 9:
        upper = np.convolve(lin, np.full(9, 1.0 / 9), mode="valid").max()
    else:
        upper = lin.mean()
    return float(top + 10.0 * np.log10(upper)), float(trace.values_dbm.min())


def select_measurement_frequency(sweep: FrequencySweep) -> float:
    """Frequency maximizing the shot/circuit clearance; ties break toward
    the lower frequency."""
    if sweep.frequencies_hz.size == 0:
        raise DomainError("empty sweep")
    clearance = sweep.clearance_db()
    return float(sweep.frequencies_hz[int(np.argmax(clearance))])
