"""Calls of the public API outside its domain: each raises DomainError,
with no numpy warning on the way and no other exception type."""

import math

import numpy as np
import pytest

from opasim import detection as dt
from opasim import fitting as ft
from opasim import loop as lp
from opasim import noise as nz
from opasim.errors import DomainError
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
