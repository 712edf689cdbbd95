"""LTI modeling of the two homodyne phase locks.

Open loop = PI controller x (fast actuator path + slow actuator path)
x loop transport delay.  The published constraints on the real loops are
only the -180 deg crossover frequencies (about 4 MHz for the squeezer/probe
lock and 2 MHz for the probe/LO lock) and a flat gain below 1 MHz, so the
default plants are first-order low-passes whose delay is solved to place
the crossover exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import zip_longest

import numpy as np

from .errors import (
    DomainError,
    InstabilityError,
    IntegrationError,
    NoFeasibleCandidateError,
    SingularityError,
)
from .detection import MAX_POINTS
from .noise import PhaseJitter

__all__ = [
    "TransferFunction",
    "PidController",
    "LoopModel",
    "StabilityMargins",
    "PhaseNoiseSpectrum",
    "bode",
    "stability_margins",
    "select_shift_frequency",
    "demod_frequency",
    "residual_jitter",
    "calibrate_jitter_amplitude",
    "default_lock_loops",
    "log_frequency_grid",
]

LOOP_KINDS = ("opa_probe", "probe_lo")


@dataclass(frozen=True)
class TransferFunction:
    """Rational transfer function in s (coefficients in ascending powers)."""

    num: tuple[float, ...]
    den: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "num", tuple(float(c) for c in self.num))
        object.__setattr__(self, "den", tuple(float(c) for c in self.den))
        if not all(map(math.isfinite, self.num + self.den)):
            raise DomainError(f"coefficients must be finite, got num {self.num}, den {self.den}")
        if not self.den or self.den[-1] == 0.0:
            raise DomainError("denominator needs a nonzero leading coefficient")

    @classmethod
    def flat(cls, gain: float = 1.0) -> "TransferFunction":
        return cls(num=(gain,), den=(1.0,))

    @classmethod
    def low_pass(cls, corner_hz: float, gain: float = 1.0) -> "TransferFunction":
        if corner_hz <= 0:
            raise DomainError(f"corner must be > 0 Hz, got {corner_hz}")
        return cls(num=(gain,), den=(1.0, 1.0 / (2.0 * math.pi * corner_hz)))

    def response(self, f) -> np.ndarray:
        """Complex response at s = i 2 pi f (f in Hz, scalar or array)."""
        return _rational(self.num, self.den, _laplace_s(f))


def _laplace_s(f) -> np.ndarray:
    """s = i 2 pi f for finite frequencies f > 0 Hz (scalar or array)."""
    f = np.asarray(f, dtype=float)
    if not (0 < f.min(initial=math.inf) and f.max(initial=0.0) < math.inf):  # NaN fails; empty f passes
        raise DomainError("frequencies must be > 0 Hz and finite")
    return (2j * math.pi) * f


def _rational(num: tuple[float, ...], den: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    """num(s) / den(s) for ascending coefficients: a complex array shaped
    like s.  A point where a polynomial overflows (only a huge |s| makes one
    overflow, and the floating-point flags tell) takes z^(len(den) - len(num))
    times the ratio of the reversed polynomials in z = 1/s instead."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            d, h = _horner(den, s), _horner(num, s)
    except FloatingPointError:
        with np.errstate(over="ignore", invalid="ignore"):
            z, d, h = 1.0 / s, _horner(den, s), _horner(num, s)
            huge = ~(np.isfinite(d) & np.isfinite(h))
            d = np.where(huge, _horner(den[::-1], z), d)
            h = np.where(huge, _horner(num[::-1], z) * z ** (len(den) - len(num)), h)
    if (d == 0).any():
        raise SingularityError("denominator vanishes on the evaluation grid")
    h /= d
    return h


def _horner(coeffs: tuple[float, ...], s: np.ndarray) -> np.ndarray:
    """Polynomial with ascending coefficients at s, by Horner's rule from
    the leading coefficient, in one array updated in place; a constant
    fills an array shaped like s."""
    if len(coeffs) < 2:
        return np.full_like(s, coeffs[0] if coeffs else 0.0)
    out = coeffs[-1] * s
    for c in coeffs[-2:0:-1]:
        out += c
        out *= s
    out += coeffs[0]
    return out


def _polymul(a: tuple[float, ...], b: tuple[float, ...]) -> tuple[float, ...]:
    """Product of two polynomials with ascending coefficients."""
    out = [0.0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


@dataclass(frozen=True)
class PidController:
    """Proportional-integral controller kp + ki/s."""

    kp: float = 0.0
    ki: float = 0.0  # gain on 1/s, i.e. rad/s scale

    def __post_init__(self):
        if not (math.isfinite(self.kp) and math.isfinite(self.ki)):
            raise DomainError(f"PI gains must be finite, got kp {self.kp}, ki {self.ki}")
        if self.kp == 0.0 and self.ki == 0.0:
            raise DomainError("at least one PI gain must be nonzero")

    def transfer_function(self) -> TransferFunction:
        if self.ki == 0.0:
            return TransferFunction(num=(self.kp,), den=(1.0,))
        # (ki + kp s) / s
        return TransferFunction(num=(self.ki, self.kp), den=(0.0, 1.0))


@dataclass(frozen=True)
class LoopModel:
    """One phase lock: controller driving a fast path (EOM-like) in parallel
    with a slow path (fiber-stretcher-like), plus a loop transport delay."""

    controller: PidController
    fast_plant: TransferFunction
    slow_plant: TransferFunction
    loop_delay: float = 0.0
    kind: str = "opa_probe"

    def __post_init__(self):
        if self.kind not in LOOP_KINDS:
            raise DomainError(f"kind must be one of {LOOP_KINDS}, got {self.kind!r}")
        if not 0 <= self.loop_delay < math.inf:
            raise DomainError(f"loop_delay must be finite and >= 0, got {self.loop_delay}")
        # the loop is frozen, so controller x (fast + slow), the delay-free
        # open loop, is folded into one rational (num, den) once
        c, fast, slow = self.controller.transfer_function(), self.fast_plant, self.slow_plant
        plant = tuple(x + y for x, y in zip_longest(
            _polymul(fast.num, slow.den), _polymul(slow.num, fast.den), fillvalue=0.0))
        object.__setattr__(self, "_num_den",
                           (_polymul(c.num, plant), _polymul(c.den, _polymul(fast.den, slow.den))))

    def response(self, f) -> np.ndarray:
        """Open-loop response at s = i 2 pi f: the folded rational times the
        delay factor exp(-s loop_delay)."""
        s = _laplace_s(f)
        h = _rational(*self._num_den, s)
        h *= np.exp(s * -self.loop_delay)
        return h

    @cached_property
    def _grid_analysis(self) -> tuple:
        """_analyse(self), computed on first use.  The loop is frozen, so it
        never goes stale; cached_property writes the instance __dict__,
        which the frozen dataclass leaves open."""
        return _analyse(self)


@dataclass(frozen=True)
class StabilityMargins:
    """Crossover frequencies and margins; fields are None when the
    corresponding crossover does not exist in the searched range."""

    phase_crossover_hz: float | None
    gain_margin_db: float | None
    gain_crossover_hz: float | None
    phase_margin_deg: float | None

    @property
    def stable(self) -> bool:
        gm_ok = self.gain_margin_db is None or self.gain_margin_db > 0
        pm_ok = self.phase_margin_deg is None or self.phase_margin_deg > 0
        return gm_ok and pm_ok


def log_frequency_grid(f_min: float = 1e3, f_max: float = 2e7, points_per_decade: int = 200) -> np.ndarray:
    if not (0 < f_min < f_max < math.inf and 0 < points_per_decade < math.inf):
        raise DomainError(f"need 0 < f_min < f_max < inf and 0 < points_per_decade < inf, got "
                          f"{f_min!r}, {f_max!r}, {points_per_decade!r}")
    decades = math.log10(f_max) - math.log10(f_min)
    n = max(2, int(round(min(points_per_decade * decades, MAX_POINTS))) + 1)  # min: the product may be inf
    if n > MAX_POINTS:
        raise DomainError(f"points_per_decade {points_per_decade!r} over {decades:.6g} decades "
                          f"gives more than {MAX_POINTS} points")
    return np.logspace(math.log10(f_min), math.log10(f_max), n)


# the grid the margins are searched on, 1 Hz to 20 MHz at 200 points/decade
_MARGINS_GRID = log_frequency_grid(1.0, 2e7, 200)
_MARGINS_GRID.flags.writeable = False


def bode(system, frequencies) -> tuple[np.ndarray, np.ndarray]:
    """(gain_db, phase_deg) arrays: gain (dB) and unwrapped phase (deg) of
    any object with .response(f) at each frequency."""
    f = np.asarray(frequencies, dtype=float)
    if not (np.diff(f) > 0).all():  # NaN fails too
        raise DomainError("frequencies must be sorted strictly ascending")
    h = system.response(f)
    mag = np.abs(h)
    if np.any(mag == 0):
        raise DomainError("zero response encountered; gain undefined in dB")
    gain_db = 20.0 * np.log10(mag)
    phase_deg = np.degrees(np.unwrap(np.angle(h)))
    return gain_db, phase_deg


_CROSSOVER_REL_TOL = 1e-3


def _refine_cell(loop, f_lo: float, f_hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Frequencies across one grid cell and the loop response there, from
    one call: nodes at most _CROSSOVER_REL_TOL apart (13 for a 200/decade
    cell) at the even indices, the geometric midpoint of each step between
    them at the odd ones."""
    steps = math.ceil(math.log(f_hi / f_lo) / -math.log1p(-_CROSSOVER_REL_TOL))
    f = f_lo * (f_hi / f_lo) ** (np.arange(2 * steps + 1) / (2 * steps))
    return f, loop.response(f)


def _crossing_index(target: np.ndarray) -> int:
    """Odd index of the midpoint of the first step between nodes across
    which target changes sign.  Where roundoff keeps the far end on the
    near side, the top step is taken."""
    nodes = target[::2]
    changes = np.nonzero(nodes[:-1] * nodes[1:] <= 0)[0]
    j = changes[0] if changes.size else nodes.size - 2
    return 2 * int(j) + 1


def stability_margins(loop: LoopModel) -> StabilityMargins:
    """Stability margins of a loop, computed once and kept by it."""
    return loop._grid_analysis[3]


def _analyse(loop: LoopModel) -> tuple:
    """(grid, response, unwrapped phase in deg, margins) of a loop on the
    margins grid.  The margins: the phase crossover (lowest f where the
    unwrapped phase hits -180 deg) with its gain margin, and the first
    downward unity-gain crossing with its phase margin, searched from 1 Hz
    to 20 MHz at 200 points/decade.  Each crossover is refined to 1e-3
    relative by one response call on a log grid across its bracketing grid
    cell, which also gives the response at the crossover."""
    grid = _MARGINS_GRID
    h = loop.response(grid)
    mag = np.abs(h)
    phase = np.degrees(np.unwrap(np.angle(h)))

    phase_crossover = gain_margin = None
    idx = np.nonzero(phase <= -180.0)[0]
    if idx.size and idx[0] > 0:
        i = idx[0]
        f, hf = _refine_cell(loop, grid[i - 1], grid[i])
        # continue the unwrapped phase locally from the lower grid point
        k = _crossing_index(phase[i - 1] + np.degrees(np.angle(hf / h[i - 1])) + 180.0)
        phase_crossover = float(f[k])
        gain_margin = -20.0 * math.log10(abs(hf[k]))
    elif idx.size and idx[0] == 0:
        phase_crossover = float(grid[0])
        gain_margin = -20.0 * math.log10(mag[0])

    gain_crossover = phase_margin = None
    down = np.nonzero((mag[:-1] >= 1.0) & (mag[1:] < 1.0))[0]
    if down.size:
        i = down[0]
        f, hf = _refine_cell(loop, grid[i], grid[i + 1])
        with np.errstate(divide="ignore"):
            k = _crossing_index(np.log10(np.abs(hf)))
        gain_crossover = float(f[k])
        # phase at the crossover, continued from the nearest grid point
        phase_margin = float(180.0 + phase[i] + math.degrees(np.angle(hf[k] / h[i])))

    return grid, h, phase, StabilityMargins(
        phase_crossover_hz=phase_crossover,
        gain_margin_db=gain_margin,
        gain_crossover_hz=gain_crossover,
        phase_margin_deg=phase_margin,
    )


def demod_frequency(shift_hz: float, loop_kind: str) -> float:
    """Beat frequency seen by a lock for a given AOM shift.  The squeezer
    lock beats at twice the shift (difference-frequency process in the OPA);
    the LO lock beats at the shift itself."""
    if not 0 < shift_hz < math.inf:
        raise DomainError(f"shift must be > 0 Hz, got {shift_hz}")
    if loop_kind not in LOOP_KINDS:
        raise DomainError(f"unknown loop kind {loop_kind!r}")
    return 2.0 * shift_hz if loop_kind == "opa_probe" else shift_hz


def select_shift_frequency(
    loops: list[LoopModel],
    candidates: list[float],
    min_gain_margin_db: float = 6.0,
    min_phase_margin_deg: float = 30.0,
    flat_band_db: float = 3.0,
) -> float:
    """Largest candidate AOM shift for which every lock's beat frequency sits
    in the flat-gain region (within flat_band_db of the gain at 10 kHz) and
    keeps both margins.  Higher is preferred so the locks can be driven as
    fast as the loops allow without oscillating."""
    if not (0 <= min_gain_margin_db < math.inf and 0 <= min_phase_margin_deg < math.inf
            and 0 <= flat_band_db < math.inf):
        raise DomainError("margins and flat band must be finite and >= 0")
    cands = sorted(candidates)
    if not cands:
        raise NoFeasibleCandidateError("empty candidate list")
    bad = [c for c in cands if not 0 < c < math.inf]
    if bad:
        raise DomainError(f"candidate shifts must be > 0 Hz, got {bad}")

    shifts = np.array(cands)
    accepted = np.ones(shifts.size, dtype=bool)
    for loop in loops:
        grid, h, phase, m = loop._grid_analysis
        keeps_margins = (m.gain_margin_db is None or m.gain_margin_db >= min_gain_margin_db) and (
            m.phase_margin_deg is None or m.phase_margin_deg >= min_phase_margin_deg
        )
        # the flat-band reference, 10 kHz, and the beats, linear in the shift
        f = np.concatenate(((1e4,), shifts * demod_frequency(1.0, loop.kind)))
        h_f = loop.response(f)
        beat, h_beat = f[1:], h_f[1:]
        with np.errstate(divide="ignore"):
            flat_db = 20.0 * np.log10(np.abs(h_beat) / np.abs(h_f[0]))
        # phase at the beat, continued from the grid node at or below it
        i = np.maximum(np.searchsorted(grid, beat, side="right") - 1, 0)
        phase_at = phase[i] + np.degrees(np.angle(h_beat / h[i]))
        accepted &= (
            keeps_margins
            & (beat <= grid[-1])
            & (np.abs(flat_db) <= flat_band_db)
            & (phase_at + 180.0 >= min_phase_margin_deg)
        )

    if accepted.any():
        return cands[np.flatnonzero(accepted)[-1]]
    raise NoFeasibleCandidateError(
        f"no candidate in {cands} satisfies the margin and flat-gain constraints"
    )


@dataclass(frozen=True)
class PhaseNoiseSpectrum:
    """One-sided phase-noise density S_phi(f) in rad^2/Hz.

    kind 'white': S = amplitude; kind 'one_over_f2': S = amplitude / f^2
    (amplitude is the density at 1 Hz); kind 'table': amplitude times the
    log-log interpolation of (frequencies_hz, densities).
    """

    kind: str = "one_over_f2"
    amplitude: float = 1.0
    f_min: float = 1.0
    f_max: float = 1e6
    frequencies_hz: tuple[float, ...] = ()
    densities: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in ("white", "one_over_f2", "table"):
            raise DomainError(f"unknown spectrum kind {self.kind!r}")
        if not 0 <= self.amplitude < math.inf:
            raise DomainError(f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not 0 < self.f_min < self.f_max < math.inf:
            raise DomainError(f"need 0 < f_min < f_max < inf, got {self.f_min}, {self.f_max}")
        if self.kind == "table":
            if len(self.frequencies_hz) != len(self.densities) or len(self.densities) < 2:
                raise DomainError("table spectrum needs >= 2 matched points")
            fs = self.frequencies_hz
            # np.interp in density() needs strictly increasing knots
            if not (all(math.isfinite(x) for x in fs) and fs[0] > 0
                    and all(a < b for a, b in zip(fs, fs[1:]))):
                raise DomainError("table frequencies must be finite, > 0 and strictly ascending")
            if not all(math.isfinite(d) and d >= 0 for d in self.densities):
                raise DomainError("densities must be finite and >= 0")

    def density(self, f) -> np.ndarray:
        f = np.asarray(f, dtype=float)
        if self.kind == "white":
            return np.full_like(f, self.amplitude)
        if self.kind == "one_over_f2":
            return self.amplitude / f**2
        return self.amplitude * np.exp(
            np.interp(
                np.log(f),
                np.log(np.asarray(self.frequencies_hz)),
                np.log(np.maximum(np.asarray(self.densities), 1e-300)),
            )
        )


_POINTS_PER_DECADE = 200
_MAX_DOUBLINGS = 4
_REL_TOL = 1e-8
# largest turn of the loop phase between adjacent nodes for which the
# N-vs-2N estimate is trusted: every other node then still samples each
# turn of the phase at least six times
_MAX_PHASE_STEP_DEG = 30.0


def _simpson(y: np.ndarray, h: float) -> float:
    return h / 3.0 * float(y[0] + y[-1] + 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum())


def _suppressed_variance(noise: PhaseNoiseSpectrum, loop, points_per_decade: int):
    """Composite Simpson in u = ln f of S(f) f / |1 + L(f)|^2, with panels
    split at every table knot inside the band so each panel is smooth.
    Returns the rule on the full grid, |S_2N - S_N| / 15, its error
    estimate from the same rule on every other point, and the largest
    turn (deg) of the loop phase between adjacent nodes."""
    knots = sorted({noise.f_min, noise.f_max}
                   | {f for f in noise.frequencies_hz if noise.f_min < f < noise.f_max})
    edges = np.log(knots).tolist()
    # intervals per panel: a multiple of 4, so both rules have even counts
    panels = [(a, b, 4 * max(1, math.ceil(points_per_decade * (b - a) / math.log(10.0) / 4)))
              for a, b in zip(edges[:-1], edges[1:])]
    f = np.exp(np.concatenate([np.linspace(a, b, n + 1) for a, b, n in panels]))
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        h = loop.response(f)
        y = noise.density(f) * f / np.abs(1.0 + h) ** 2
        phase_step = float(np.max(np.abs(np.angle(h[1:] * h[:-1].conj()))))
    fine = coarse = 0.0
    start = 0
    for a, b, n in panels:
        panel = y[start:start + n + 1]
        h = (b - a) / n
        fine += _simpson(panel, h)
        coarse += _simpson(panel[::2], 2.0 * h)
        start += n + 1
    return fine, abs(fine - coarse) / 15.0, math.degrees(phase_step)


def _residual_variance(noise: PhaseNoiseSpectrum, loop) -> float:
    """Closed-loop phase variance (rad^2) to 1e-8 relative.  The grid
    starts at 200 points/decade and doubles while the N-vs-2N estimate
    exceeds the tolerance, which only sharply peaked suppression needs, or
    while the loop phase turns too far between nodes for the estimate to
    be trusted, which only long delays over a wide band cause."""
    margins = stability_margins(loop)
    if not margins.stable:
        raise InstabilityError(
            f"loop is unstable (gain margin {margins.gain_margin_db}, "
            f"phase margin {margins.phase_margin_deg})"
        )
    for doubling in range(_MAX_DOUBLINGS + 1):
        var, err, phase_step = _suppressed_variance(noise, loop, _POINTS_PER_DECADE << doubling)
        if not (math.isfinite(var) and math.isfinite(err)) or var < 0:
            raise IntegrationError(f"phase-noise integral returned {var!r}")
        if err <= _REL_TOL * var and phase_step <= _MAX_PHASE_STEP_DEG:
            return var
    raise IntegrationError(
        f"phase-noise integral {var!r} not converged: error estimate {err:.3g}, "
        f"loop phase step {phase_step:.3g} deg "
        f"at {_POINTS_PER_DECADE << _MAX_DOUBLINGS} points/decade"
    )


def residual_jitter(noise: PhaseNoiseSpectrum, loop) -> PhaseJitter:
    """Rms in-loop phase error: closed-loop suppression 1/(1+L) applied to
    the free-running phase-noise spectrum and integrated over its band."""
    return PhaseJitter(math.sqrt(_residual_variance(noise, loop)))


def calibrate_jitter_amplitude(loop, target: PhaseJitter, template: PhaseNoiseSpectrum) -> PhaseNoiseSpectrum:
    """Scale a spectrum so the closed-loop rms equals the target.  The rms
    variance is linear in the amplitude, so the scale is solved exactly."""
    base = _residual_variance(replace(template, amplitude=1.0), loop)
    if base == 0:
        raise IntegrationError("template spectrum integrates to zero")
    return replace(template, amplitude=target.theta**2 / base)


def _solve_loop_delay(loop: LoopModel, target_crossover_hz: float) -> float:
    """Delay that places the -180 deg crossing of a delay-free loop at the
    target frequency.  The phase of its folded rational is continued from
    low frequency so the calibration is exact, not grid-limited.  Only the
    phase at the last node, the target itself, is read, so 4 points/decade
    suffice: the default loops turn at most ~17 deg between nodes, far
    inside the 180 deg that unwrapping allows."""
    grid = log_frequency_grid(1.0, target_crossover_hz, 4)
    h = _rational(*loop._num_den, _laplace_s(grid))
    phase_nodelay = float(np.degrees(np.unwrap(np.angle(h)))[-1])
    deficit = 180.0 + phase_nodelay  # phase still to be eaten by the delay
    if deficit <= 0:
        raise DomainError(
            f"plant already crosses -180 deg below {target_crossover_hz} Hz without delay"
        )
    return deficit / (360.0 * target_crossover_hz)


def default_lock_loops(
    opa_probe_crossover_hz: float = 4.0e6,
    probe_lo_crossover_hz: float = 2.0e6,
) -> list[LoopModel]:
    """Calibrated default models of the two locks.

    Fast path: first-order low-pass, 10 MHz corner, flat gain 0.1.  Slow
    path: 100 Hz low-pass at gain 0.05 (long-range actuator, irrelevant
    above audio).  The loop delay is solved so each -180 deg crossover
    lands on its measured frequency.
    """
    controller = PidController(kp=1.0, ki=2.0 * math.pi * 100.0)
    fast = TransferFunction.low_pass(1e7, gain=0.1)
    slow = TransferFunction.low_pass(100.0, gain=0.05)
    loops = []
    for kind, crossover in zip(LOOP_KINDS, (opa_probe_crossover_hz, probe_lo_crossover_hz)):
        loop = LoopModel(controller, fast, slow, kind=kind)
        loops.append(replace(loop, loop_delay=_solve_loop_delay(loop, crossover)))
    return loops
