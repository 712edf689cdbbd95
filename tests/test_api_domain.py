"""Calls of the public API outside its domain: each raises DomainError,
with no numpy warning on the way and no other exception type."""

import dataclasses
import math
import re

import numpy as np
import pytest

from opasim import detection as dt
from opasim import fitting as ft
from opasim import loop as lp
from opasim import noise as nz
from opasim.errors import DomainError, ToolError
from opasim.scenario import load_scenario

from conftest import SCENARIO_DIR

INF, NAN = math.inf, math.nan
IN_RANGE = r"must be finite and in \[1e-06, 1e\+15\] Hz, got"
SCENARIO = load_scenario(SCENARIO_DIR / "zero_span_locked.scenario").scenario
ETA, ALPHA, THETA = 0.88, 8.2, math.radians(0.8)

PROBES = {
    "loop_response_inf": (lambda: lp.default_lock_loops()[0].response(INF), f"frequency {IN_RANGE} inf"),
    "flat_response_inf": (lambda: lp.TransferFunction.flat(1.0).response([1.0, INF]), f"frequency {IN_RANGE} inf"),
    "bode_inf": (lambda: lp.bode(lp.default_lock_loops()[0], [1.0, INF]), f"frequency {IN_RANGE} inf"),
    # numpy refuses this grid without allocating it
    "oracle_p_max_inf": (lambda: ft.grid_search_optimal_pump(ETA, 1e-6, THETA, p_max=INF), "p_max"),
    "oracle_p_max_over_cap": (lambda: ft.grid_search_optimal_pump(ETA, ALPHA, THETA, p_max=100.01), "p_max"),
    "optimum_eta_2": (lambda: ft.optimal_pump_power(2.0, ALPHA, THETA), "eta"),
    "optimum_eta_negative": (lambda: ft.optimal_pump_power(-1.0, ALPHA, THETA), "eta"),
    "optimum_eta_nan": (lambda: ft.optimal_pump_power(NAN, ALPHA, THETA), "eta"),
    "optimum_alpha_inf": (lambda: ft.optimal_pump_power(ETA, INF, THETA), "alpha"),
    "optimum_alpha_nan": (lambda: ft.optimal_pump_power(ETA, NAN, THETA), "alpha"),
    "sweep_f_max_inf": (lambda: dt.sweep_frequency(SCENARIO, 1e6, INF), f"f_max {IN_RANGE} inf"),
    "sweep_points_fraction": (lambda: dt.sweep_frequency(SCENARIO, 1e6, 2e7, points=1.5), "integer"),
    "check_points_fraction": (lambda: dt.check_points(1.5, 1), "integer"),
    "circuit_level_nan": (lambda: SCENARIO.detector.circuit_level_dbm(NAN), "frequency .* got nan"),
    "clearance_nan": (lambda: SCENARIO.detector.clearance_db(np.array([1e6, NAN])), "frequency .* got nan"),
    "circuit_level_zero": (lambda: SCENARIO.detector.circuit_level_dbm(0.0), "frequency .* got 0.0"),
    "circuit_ratio_nan": (lambda: SCENARIO.detector.circuit_ratio(NAN), "frequency .* got nan"),
    # a negative f gives a finite shape when the exponent slope/10 is even (20 dB/decade here) ...
    "circuit_level_negative": (lambda: SCENARIO.detector.circuit_level_dbm(-1e6), "frequency .* got -1000000.0"),
    "circuit_level_negative_far": (lambda: SCENARIO.detector.circuit_level_dbm(-11e6),
                                   "frequency .* got -11000000.0"),
    "clearance_negative": (lambda: SCENARIO.detector.clearance_db(np.array([1e6, -1e6])),
                           "frequency .* got -1000000.0"),
    "circuit_ratio_negative": (lambda: SCENARIO.detector.circuit_ratio(-11e6), "frequency .* got -11000000.0"),
    # ... and at -11 MHz when it is odd
    "circuit_level_negative_odd": (lambda: dt.DetectorModel(slope_db_per_decade=30.0).circuit_level_dbm(-11e6),
                                   "frequency .* got -11000000.0"),
    "budget_report_nan": (lambda: ft.loss_budget_report(SCENARIO.detection_budget, SCENARIO.detector, NAN),
                          "frequency .* got nan"),
    "from_db_overflow": (lambda: nz.from_db(1e5), "dB value"),
    "grid_points_per_decade_nan": (lambda: lp.log_frequency_grid(1.0, 10.0, NAN), "points_per_decade"),
    # the grid is never allocated: its point count is checked first, and named by what sets it
    "grid_points_per_decade_huge": (lambda: lp.log_frequency_grid(1.0, 10.0, 1e300),
                                    r"points_per_decade 1e\+300 over 1 decades gives more than 1000000 points"),
    "grid_point_count_overflows": (lambda: lp.log_frequency_grid(1e-6, 1e15, 1e307),
                                   r"points_per_decade 1e\+307 over 21 decades"),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", PROBES)
def test_outside_the_domain_is_domain_error(name):
    call, message = PROBES[name]
    with pytest.raises(DomainError, match=message):
        call()


@pytest.mark.filterwarnings("error")
def test_grid_over_the_whole_frequency_range():
    grid = lp.log_frequency_grid(*dt.FREQUENCY_RANGE_HZ, 1)
    assert grid.size == 22 and grid[0] == 1e-6 and grid[-1] == pytest.approx(1e15, rel=1e-12)
    with pytest.raises(DomainError, match=f"f_min {IN_RANGE} 1e-300"):
        lp.log_frequency_grid(1e-300, 1e15, 1)


LOOP = lp.default_lock_loops()[0]
LOOPS = lp.default_lock_loops()
HALF_PI = math.pi / 2

# (call with the value, the parameter's name, lo, hi, open_lo, open_hi): each
# scalar domain as its check_scalar call declares it; the other arguments are valid
DECLARED = [
    (lambda v: nz.OpaParams(v, 0.5, 0.9), "shg_efficiency", 0.0, INF, False, False),
    (lambda v: nz.OpaParams(1.0, v, 0.9), "pump_power", 0.0, INF, False, False),
    (lambda v: nz.OpaParams(1.0, 0.5, v), "transmittance", 0.0, 1.0, False, False),
    (lambda v: nz.QuadraturePair(v, 0.5), "anti", 0.0, INF, True, False),
    (lambda v: nz.QuadraturePair(2.0, v), "sq", 0.0, INF, True, False),
    (lambda v: nz.PhaseJitter(v), "theta", 0.0, HALF_PI, False, False),
    (lambda v: nz.LossElement("lens", v), "loss[lens]", 0.0, 1.0, False, False),
    (lambda v: nz.from_db(v), "dB value", -INF, INF, False, False),
    (lambda v: nz.apply_loss(nz.QuadraturePair(2.0, 0.5), v), "transmittance", 0.0, 1.0, False, False),
    (lambda v: nz.invert_loss(1.5, v), "transmittance", 0.0, 1.0, True, False),
    (lambda v: nz.invert_loss(v, 0.9), "measured ratio", 0.0, INF, True, False),
    (lambda v: nz.visibility_to_loss(v), "visibility", 0.0, 1.0, False, False),
    (lambda v: nz.clearance_to_equiv_loss(v), "clearance", -INF, INF, False, False),
    (lambda v: lp.PidController(kp=v, ki=1.0), "kp", -INF, INF, False, False),
    (lambda v: lp.PidController(kp=1.0, ki=v), "ki", -INF, INF, False, False),
    (lambda v: lp.LoopModel(LOOP.controller, LOOP.fast_plant, LOOP.slow_plant, loop_delay=v),
     "loop_delay", 0.0, 1.0, False, False),
    (lambda v: lp.log_frequency_grid(1.0, 10.0, v), "points_per_decade", 0.0, INF, True, False),
    (lambda v: lp.select_shift_frequency(LOOPS, [1e6], min_gain_margin_db=v), "min_gain_margin_db",
     0.0, INF, False, False),
    (lambda v: lp.select_shift_frequency(LOOPS, [1e6], min_phase_margin_deg=v), "min_phase_margin_deg",
     0.0, INF, False, False),
    (lambda v: lp.select_shift_frequency(LOOPS, [1e6], flat_band_db=v), "flat_band_db", 0.0, INF, False, False),
    (lambda v: lp.PhaseNoiseSpectrum(amplitude=v), "amplitude", 0.0, INF, False, False),
    (lambda v: lp.PhaseNoiseSpectrum("table", frequencies_hz=(1.0, 10.0), densities=(1.0, v)),
     "densities[1]", 0.0, INF, False, False),
    (lambda v: ft.PumpSweepPoint(v, -5.0, 12.0), "pump_power_w", 0.0, INF, False, False),
    (lambda v: ft.PumpSweepPoint(0.3, v, 12.0), "squeezing_db", -INF, INF, False, False),
    (lambda v: ft.PumpSweepPoint(0.3, -5.0, v), "anti_squeezing_db", -INF, INF, False, False),
    (lambda v: ft.FitBounds(eta_min=v), "eta_min", 0.0, 1.0, False, True),
    (lambda v: ft.FitBounds(eta_max=v), "eta_max", 0.5, 1.0, True, False),
    (lambda v: ft.FitBounds(alpha_min=v), "alpha_min", 0.0, INF, True, False),
    (lambda v: ft.FitBounds(alpha_max=v), "alpha_max", 1.0, INF, True, False),
    (lambda v: ft.FitBounds(jitter_max_rad=v), "jitter_max_rad", 0.0, HALF_PI, True, True),
    (lambda v: ft.optimal_pump_power(ETA, v, THETA), "alpha", 0.0, INF, True, False),
    (lambda v: ft.optimal_pump_power(v, ALPHA, THETA), "eta", 0.0, 1.0, False, False),
    (lambda v: ft.optimal_pump_power(ETA, ALPHA, v), "theta", 0.0, HALF_PI, False, True),
    (lambda v: ft.grid_search_optimal_pump(v, ALPHA, THETA), "eta", 0.0, 1.0, False, False),
    (lambda v: ft.grid_search_optimal_pump(ETA, v, THETA), "alpha", 0.0, INF, True, False),
    (lambda v: ft.grid_search_optimal_pump(ETA, ALPHA, v), "theta", 0.0, HALF_PI, False, True),
    (lambda v: ft.grid_search_optimal_pump(ETA, ALPHA, THETA, p_max=v), "p_max", 1e-4, 100.0, False, False),
    (lambda v: dt.DetectorModel(shot_noise_dbm=v), "shot_noise_dbm", -INF, INF, False, False),
    (lambda v: dt.DetectorModel(peak_clearance_db=v), "peak_clearance_db", 0.0, INF, True, False),
    (lambda v: dt.DetectorModel(slope_db_per_decade=v), "slope_db_per_decade", 0.0, INF, True, False),
    (lambda v: dt.DetectorModel(analyzer_floor_offset_db=v), "analyzer_floor_offset_db", -INF, INF, False, False),
    (lambda v: dataclasses.replace(SCENARIO.analyzer, span_hz=v), "span_hz", 0.0, 1e15, False, False),
    (lambda v: dataclasses.replace(SCENARIO.analyzer, sweep_time_s=v), "sweep_time_s", 0.0, INF, True, False),
]


def _declared_cases():
    """(entry, value, rejected) for every declared parameter: NaN and +-inf
    are rejected; at each finite end, a closed end is accepted and the value
    just outside it rejected, an open end rejected and the value just inside
    it accepted."""
    for i, (_, name, lo, hi, open_lo, open_hi) in enumerate(DECLARED):
        for value in (NAN, INF, -INF):
            yield pytest.param(i, value, True, id=f"{name}[{i}]={value}")
        for end, is_open, outward in ((lo, open_lo, -INF), (hi, open_hi, INF)):
            if math.isfinite(end):
                beyond, within = end, math.nextafter(end, -outward)
                if not is_open:
                    beyond, within = math.nextafter(end, outward), end
                yield pytest.param(i, beyond, True, id=f"{name}[{i}]={beyond!r}")
                yield pytest.param(i, within, False, id=f"{name}[{i}]={within!r}")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("entry, value, rejected", _declared_cases())
def test_declared_scalar_domain(entry, value, rejected):
    call, name = DECLARED[entry][:2]
    if rejected:
        with pytest.raises(DomainError, match=f"^{re.escape(name)} (variance )?must be"):
            call(value)
    else:
        try:
            call(value)
        except DomainError as exc:
            pytest.fail(f"{name} = {value!r} lies in its domain, but: {exc}")
        except ToolError:  # a value in its domain may still have no optimum or no feasible answer
            pass
