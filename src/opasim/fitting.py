"""Inverse problems: fit (transmittance, SHG efficiency, phase jitter) to
pump-sweep data, closed-form optimal pump power with a grid-search oracle,
loss-corrected source squeezing, and loss-budget reports.

The fit is a damped Gauss-Newton (Levenberg-Marquardt) over the summed
squared dB residuals of both branches, with an analytic Jacobian.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, UnboundedOptimumError
from . import noise as nz
from .detection import DetectorModel

__all__ = [
    "PumpSweepPoint",
    "FitBounds",
    "FitResult",
    "OperatingPoint",
    "model_levels_db",
    "fit_pump_sweep",
    "optimal_pump_power",
    "grid_search_optimal_pump",
    "loss_budget_report",
    "BudgetReport",
]

_DB = 10.0 / math.log(10.0)


@dataclass(frozen=True)
class PumpSweepPoint:
    pump_power_w: float
    squeezing_db: float  # negative = below shot
    anti_squeezing_db: float

    def __post_init__(self):
        if self.pump_power_w < 0:
            raise DomainError(f"pump power must be >= 0, got {self.pump_power_w}")


@dataclass(frozen=True)
class FitBounds:
    eta_min: float = 0.5
    eta_max: float = 1.0
    alpha_min: float = 1.0
    alpha_max: float = 20.0
    jitter_max_rad: float = math.radians(5.0)

    def __post_init__(self):
        if not 0 <= self.eta_min < self.eta_max <= 1:
            raise DomainError("need 0 <= eta_min < eta_max <= 1")
        if not 0 < self.alpha_min < self.alpha_max:
            raise DomainError("need 0 < alpha_min < alpha_max")
        if not 0 < self.jitter_max_rad < math.pi / 2:
            raise DomainError("jitter_max must be in (0, pi/2) rad")

    @property
    def lower(self) -> np.ndarray:
        return np.array([self.eta_min, self.alpha_min, 0.0])

    @property
    def upper(self) -> np.ndarray:
        return np.array([self.eta_max, self.alpha_max, self.jitter_max_rad])


@dataclass(frozen=True)
class FitResult:
    transmittance: float
    shg_efficiency: float
    jitter_rad: float
    residual: float  # sum of squared dB errors
    covariance: np.ndarray
    converged: bool
    iterations: int

    @property
    def jitter_deg(self) -> float:
        return math.degrees(self.jitter_rad)


@dataclass(frozen=True)
class OperatingPoint:
    pump_power_w: float
    squeezing_db: float
    anti_squeezing_db: float
    source_squeezing_db: float


def _mixed_pair(powers: np.ndarray, eta: float, alpha: float, theta: float):
    g = 2.0 * np.sqrt(alpha * powers)
    rp = (1.0 - eta) + eta * np.exp(g)
    rm = (1.0 - eta) + eta * np.exp(-g)
    c2 = math.cos(theta) ** 2
    s2 = 1.0 - c2
    return rm * c2 + rp * s2, rp * c2 + rm * s2, rp, rm


def model_levels_db(powers, eta: float, alpha: float, theta: float):
    """(squeezing_db, anti_squeezing_db) of the jitter-mixed model."""
    powers = np.asarray(powers, dtype=float)
    mm, mp, _, _ = _mixed_pair(powers, eta, alpha, theta)
    return 10.0 * np.log10(mm), 10.0 * np.log10(mp)


def _residuals_and_jacobian(x, powers, sq_db, anti_db, with_jacobian=True):
    eta, alpha, theta = x
    g = 2.0 * np.sqrt(alpha * powers)
    ep, em = np.exp(g), np.exp(-g)
    rp = (1.0 - eta) + eta * ep
    rm = (1.0 - eta) + eta * em
    c2 = math.cos(theta) ** 2
    s2 = 1.0 - c2
    mm = rm * c2 + rp * s2  # mixed squeezed branch
    mp = rp * c2 + rm * s2
    res = np.concatenate([10.0 * np.log10(mm) - sq_db, 10.0 * np.log10(mp) - anti_db])
    if not with_jacobian:
        return res, None
    dg = np.sqrt(powers / alpha)  # d g / d alpha
    drp_deta = ep - 1.0
    drm_deta = em - 1.0
    drp_da = eta * ep * dg
    drm_da = -eta * em * dg
    sin2t = math.sin(2.0 * theta)
    jac = np.empty((res.size, 3))
    for row, (m, ra_e, rb_e, ra_a, rb_a, sign) in enumerate(
        (
            (mm, drm_deta, drp_deta, drm_da, drp_da, +1.0),
            (mp, drp_deta, drm_deta, drp_da, drm_da, -1.0),
        )
    ):
        sl = slice(row * powers.size, (row + 1) * powers.size)
        jac[sl, 0] = _DB * (ra_e * c2 + rb_e * s2) / m
        jac[sl, 1] = _DB * (ra_a * c2 + rb_a * s2) / m
        jac[sl, 2] = _DB * (sign * (rp - rm) * sin2t) / m
    return res, jac


def _levenberg_marquardt(x0, powers, sq_db, anti_db, bounds, max_iter=200, tol=1e-9):
    lo, hi = bounds.lower, bounds.upper
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    res, jac = _residuals_and_jacobian(x, powers, sq_db, anti_db)
    cost = float(res @ res)
    lam = 1e-3
    converged = False
    it = 0
    for it in range(1, max_iter + 1):
        jtj = jac.T @ jac
        jtr = jac.T @ res
        step = None
        for _ in range(30):
            try:
                step = np.linalg.solve(jtj + lam * np.diag(np.diag(jtj)) + 1e-300 * np.eye(3), -jtr)
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + step, lo, hi)
            res_new, jac_new = _residuals_and_jacobian(x_new, powers, sq_db, anti_db)
            cost_new = float(res_new @ res_new)
            if cost_new <= cost:
                break
            lam *= 4.0
        else:
            break
        rel_step = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-30)
        x, res, jac, cost = x_new, res_new, jac_new, cost_new
        lam = max(lam / 3.0, 1e-12)
        if rel_step < tol:
            converged = True
            break
    return x, res, jac, cost, converged, it


def _default_starts(bounds: FitBounds):
    lo, hi = bounds.lower, bounds.upper
    mids = [0.2, 0.35, 0.5, 0.65, 0.8]
    return [lo + t * (hi - lo) for t in mids]


def initial_guess(data: list[PumpSweepPoint], bounds: FitBounds) -> np.ndarray:
    """Two-stage heuristic: fit the jitter-free model first, then release
    the jitter from a small starting value."""
    powers = np.array([d.pump_power_w for d in data])
    sq = np.array([d.squeezing_db for d in data])
    anti = np.array([d.anti_squeezing_db for d in data])
    x0 = np.array([0.8, 5.0, 0.0])
    x, *_ = _levenberg_marquardt(x0, powers, sq, anti, bounds, max_iter=60)
    x[2] = min(math.radians(0.5), bounds.jitter_max_rad / 2.0)
    return x


def fit_pump_sweep(
    data: list[PumpSweepPoint],
    initial: np.ndarray | None = None,
    bounds: FitBounds | None = None,
) -> FitResult:
    """Joint least-squares fit of both branches in dB.

    Falls back to five deterministic multi-starts when the first solution
    fails a gradient-norm test; raises NonConvergenceError (carrying the
    best iterate) if nothing converges.
    """
    bounds = bounds or FitBounds()
    if len(data) < 3:
        raise DomainError("need at least 3 sweep points")
    powers = np.array([d.pump_power_w for d in data])
    if np.unique(powers).size < 2:
        raise DomainError("sweep points must span at least 2 distinct pump powers")
    sq = np.array([d.squeezing_db for d in data])
    anti = np.array([d.anti_squeezing_db for d in data])

    starts = [initial_guess(data, bounds)]
    if initial is not None:
        starts.insert(0, np.asarray(initial, dtype=float))
    best = None
    for x0 in starts + _default_starts(bounds):
        x, res, jac, cost, converged, it = _levenberg_marquardt(x0, powers, sq, anti, bounds)
        candidate = (cost, x, res, jac, converged, it)
        prev = best
        if best is None or (converged and not best[4]) or (converged == best[4] and cost < best[0]):
            best = candidate
        # an essentially perfect fit cannot be improved by more starts
        if converged and cost < 1e-18 * max(1.0, float(sq @ sq + anti @ anti)):
            break
        # two independent starts agreeing on the optimum is consensus enough
        if (
            prev is not None
            and converged
            and prev[4]
            and abs(cost - prev[0]) <= 1e-6 * max(cost, prev[0], 1e-30)
        ):
            break
    cost, x, res, jac, converged, it = best
    dof = max(res.size - 3, 1)
    sigma2 = cost / dof
    try:
        cov = sigma2 * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    result = FitResult(
        transmittance=float(x[0]),
        shg_efficiency=float(x[1]),
        jitter_rad=float(x[2]),
        residual=cost,
        covariance=cov,
        converged=converged,
        iterations=it,
    )
    if not converged:
        raise NonConvergenceError("pump-sweep fit did not converge", best=result)
    return result


def optimal_pump_power(
    eta: float,
    alpha: float,
    theta_rad: float,
    detection_transmittance: float = 1.0,
) -> OperatingPoint:
    """Pump power minimizing the jitter-mixed squeezed level:
    P* = (ln cot theta)^2 / (4 alpha), independent of the transmittance.

    With theta = 0 the squeezing improves monotonically with pump power and
    there is no interior optimum.
    """
    if alpha <= 0:
        raise DomainError(f"alpha must be > 0, got {alpha}")
    if not 0 <= theta_rad < math.pi / 2:
        raise DomainError(f"theta must be in [0, pi/2) rad, got {theta_rad}")
    if theta_rad == 0.0:
        raise UnboundedOptimumError(
            "no jitter: squeezing improves without bound as pump power grows"
        )
    p_star = math.log(1.0 / math.tan(theta_rad)) ** 2 / (4.0 * alpha)
    sq_db, anti_db = model_levels_db(np.array([p_star]), eta, alpha, theta_rad)
    mm, _, _, _ = _mixed_pair(np.array([p_star]), eta, alpha, theta_rad)
    source_db = nz.to_db(nz.invert_loss(float(mm[0]), detection_transmittance))
    return OperatingPoint(
        pump_power_w=p_star,
        squeezing_db=float(sq_db[0]),
        anti_squeezing_db=float(anti_db[0]),
        source_squeezing_db=source_db,
    )


def grid_search_optimal_pump(
    eta: float,
    alpha: float,
    theta_rad: float,
    p_max: float = 2.0,
    step: float = 1e-4,
) -> float:
    """Brute-force oracle for the optimal pump power: coarse 0.1-mW grid
    over (0, p_max], refined on a fine grid over the two cells around the
    coarse minimum to step * 5e-4.  The squeezed variance is searched in
    linear units, which share their argmin with the dB levels."""
    if theta_rad <= 0:
        raise UnboundedOptimumError("grid search needs theta > 0")
    grid = np.arange(step, p_max + step / 2, step)
    i = int(np.argmin(_mixed_pair(grid, eta, alpha, theta_rad)[0]))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 4001)
    return float(fine[np.argmin(_mixed_pair(fine, eta, alpha, theta_rad)[0])])


@dataclass(frozen=True)
class BudgetReport:
    elements: tuple[tuple[str, float], ...]
    circuit_equiv_loss: float
    frequency_hz: float
    multiplicative_transmittance: float
    additive_total_loss: float

    @property
    def discrepancy(self) -> float:
        """Gap between the additive total and the multiplicative loss."""
        return self.additive_total_loss - (1.0 - self.multiplicative_transmittance)


def loss_budget_report(budget: nz.LossBudget, detector: DetectorModel | None, f_hz: float) -> BudgetReport:
    """Per-element losses with the circuit-noise equivalent loss at f,
    composed both multiplicatively (physical) and additively (for
    comparison against plain-sum bookkeeping)."""
    elements = [(e.label, e.loss) for e in budget.elements]
    circ = 0.0
    if detector is not None:
        circ = float(nz.clearance_to_equiv_loss(float(detector.clearance_db(f_hz))))
    mult = budget.transmittance * (1.0 - circ)
    add = budget.additive_total + circ
    return BudgetReport(
        elements=tuple(elements),
        circuit_equiv_loss=circ,
        frequency_hz=f_hz,
        multiplicative_transmittance=mult,
        additive_total_loss=add,
    )
