"""Simulator and design-optimization toolkit for waveguide-OPA
squeezed-light experiments: closed-form noise modeling under loss and phase
jitter, phase-lock Bode/stability analysis, spectrum-analyzer emulation,
parameter fitting and pump-power optimization."""

__version__ = "0.1.0"

from .noise import (  # noqa: F401
    LossBudget,
    LossElement,
    OpaParams,
    PhaseJitter,
    QuadraturePair,
    apply_loss,
    clearance_to_equiv_loss,
    from_db,
    invert_loss,
    jitter_mix,
    opa_output_variances,
    to_db,
    visibility_to_loss,
)
from .loop import (  # noqa: F401
    LoopModel,
    PhaseNoiseSpectrum,
    PidController,
    TransferFunction,
    bode,
    calibrate_jitter_amplitude,
    default_lock_loops,
    demod_frequency,
    log_frequency_grid,
    residual_jitter,
    select_shift_frequency,
    stability_margins,
)
from .detection import (  # noqa: F401
    AnalyzerSettings,
    DetectorModel,
    Scenario,
    Trace,
    measured_noise_ratio,
    select_measurement_frequency,
    simulate_zero_span,
    sweep_frequency,
    trace_extrema,
)
from .fitting import (  # noqa: F401
    FitBounds,
    FitResult,
    OperatingPoint,
    PumpSweepPoint,
    fit_pump_sweep,
    grid_search_optimal_pump,
    loss_budget_report,
    optimal_pump_power,
)
from .scenario import ScenarioBundle, load_scenario, loads_scenario, serialize_scenario  # noqa: F401
