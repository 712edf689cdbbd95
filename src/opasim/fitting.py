"""Inverse problems: fit (transmittance, SHG efficiency, phase jitter) to
pump-sweep data, closed-form optimal pump power with a grid-search oracle,
loss-corrected source squeezing, and loss-budget reports.

The fit is a damped Gauss-Newton (Levenberg-Marquardt) over the summed
squared dB residuals of both branches, with an analytic Jacobian.  It works
in (eta, alpha, s) with s = sin^2 theta in [0, sin^2 jitter_max]: the mixed
levels are linear in s, so the jitter column of the Jacobian does not vanish
at theta = 0 and the fit cannot stall there.  One start (the middle of the
bounds, or the caller's guess) suffices; steps are taken over the
parameters not held at a bound, and the fit stops on a small relative step
or on a projected-gradient (KKT) test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonConvergenceError, UnboundedOptimumError
from . import noise as nz
from .detection import MAX_POINTS, DetectorModel

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


def _mixed_pair(powers: np.ndarray, eta: float, alpha: float, s: float):
    """(R'-, R'+), the jitter-mixed squeezed and anti-squeezed variances,
    linear in s = sin^2 theta."""
    g = 2.0 * np.sqrt(alpha * powers)
    return nz.mix(nz.lossy(np.exp(-g), eta), nz.lossy(np.exp(g), eta), s)


def model_levels_db(powers, eta: float, alpha: float, theta: float):
    """(squeezing_db, anti_squeezing_db) of the jitter-mixed model."""
    mm, mp = _mixed_pair(np.asarray(powers, dtype=float), eta, alpha, nz.sin2(theta))
    return 10.0 * np.log10(mm), 10.0 * np.log10(mp)


def _residuals(x, powers, sq_db, anti_db):
    """dB residuals of both branches at x = (eta, alpha, s)."""
    mm, mp = _mixed_pair(powers, *x)
    return np.concatenate([10.0 * np.log10(mm) - sq_db, 10.0 * np.log10(mp) - anti_db])


def _jacobian(x, powers):
    """Jacobian of the dB residuals in x = (eta, alpha, s).  The mix is
    linear, so each column is the mix of the branch derivatives over the
    mixed level."""
    eta, alpha, s = x
    g = 2.0 * np.sqrt(alpha * powers)
    ep, em = np.exp(g), np.exp(-g)
    rp, rm = nz.lossy(ep, eta), nz.lossy(em, eta)
    dg = np.sqrt(powers / alpha)  # d g / d alpha
    n = powers.size
    jac = np.empty((2 * n, 3))
    jac[:n, 0], jac[n:, 0] = nz.mix(em - 1.0, ep - 1.0, s)
    jac[:n, 1], jac[n:, 1] = nz.mix(-eta * em * dg, eta * ep * dg, s)
    # the s column stays nonzero at s = 0, so theta = 0 is no stationary trap
    jac[:n, 2] = rp - rm
    jac[n:, 2] = rm - rp
    jac /= np.concatenate(nz.mix(rm, rp, s))[:, None]  # the mixed levels
    jac *= _DB
    return jac


# Largest gain g = 2 sqrt(alpha P) for which J^T J stays finite with
# MAX_POINTS data rows.  Each entry of the Jacobian is _DB times a branch
# derivative over a mixed level.  The derivative is at most e^g in magnitude,
# times d g / d alpha = sqrt(P / alpha) in the alpha column; the level is at
# least e^-g.  So every entry is at most _DB e^2g max(1, sqrt(P / alpha)), and
# every entry of J^T J, a sum over the 2 n rows, at most
# 2 n _DB^2 e^4g max(1, P / alpha).  That stays below float max, e^_MAX_GAIN,
# while
#   4 g + ln max(1, P / alpha) <= _MAX_GAIN - ln(2 MAX_POINTS _DB^2),
# which at P <= alpha is g <= 173.1, against 709.8 for exp alone.
_MAX_FIT_GAIN = (nz._MAX_GAIN - math.log(2 * MAX_POINTS * _DB**2)) / 4.0
_MAX_ITER = 200
_STEP_TOL = 1e-9  # relative step
_KKT_TOL = 1e-10  # projected, box-scaled gradient over sqrt(cost)


def _levenberg_marquardt(x0, powers, sq_db, anti_db, lo, hi):
    """Box-constrained Levenberg-Marquardt from x0 in (eta, alpha, s).

    Each step fixes the parameters that sit on a bound with the descent
    direction pointing out of the box, solves the damped normal equations
    over the rest and clips, so a parameter held at a bound takes no step.
    It stops when the relative step falls below _STEP_TOL or when the
    projected gradient, scaled by the box width, is below
    _KKT_TOL * sqrt(cost): a KKT test, which ends a fit whose first-order
    conditions already hold (such as one on a corner of the box) without a
    further step.
    """
    width = hi - lo
    x = np.clip(np.asarray(x0, dtype=float), lo, hi)
    res = _residuals(x, powers, sq_db, anti_db)
    jac = _jacobian(x, powers)
    cost = float(res @ res)
    lam = 1e-3
    converged = False
    it = 0
    while True:
        jtr = jac.T @ res
        blocked = ((x <= lo) & (jtr > 0)) | ((x >= hi) & (jtr < 0))
        free = ~blocked
        if np.linalg.norm(jtr[free] * width[free]) <= _KKT_TOL * math.sqrt(cost):
            converged = True
            break
        if it == _MAX_ITER:
            break
        it += 1
        jtj = (jac.T @ jac)[np.ix_(free, free)]
        damping = np.diag(np.diag(jtj))
        for _ in range(30):
            step = np.zeros(3)
            try:
                step[free] = np.linalg.solve(jtj + lam * damping, -jtr[free])
            except np.linalg.LinAlgError:
                lam *= 10.0
                continue
            x_new = np.clip(x + step, lo, hi)
            res_new = _residuals(x_new, powers, sq_db, anti_db)
            cost_new = float(res_new @ res_new)
            if cost_new <= cost:
                break
            lam *= 4.0
        else:
            break
        rel_step = np.linalg.norm(x_new - x) / max(np.linalg.norm(x), 1e-30)
        x, res, cost = x_new, res_new, cost_new
        jac = _jacobian(x, powers)
        lam = max(lam / 3.0, 1e-12)
        if rel_step < _STEP_TOL:
            converged = True
            break
    return x, jac, cost, converged, it


def fit_pump_sweep(
    data: list[PumpSweepPoint],
    initial: np.ndarray | None = None,
    bounds: FitBounds | None = None,
) -> FitResult:
    """Joint least-squares fit of both branches in dB.

    One Levenberg-Marquardt run in (eta, alpha, s = sin^2 theta), started
    from ``initial`` (eta, alpha, theta) or else from the middle of the
    bounds.  The covariance is sigma^2 (J^T J)^-1 mapped back to
    (eta, alpha, theta); its theta row and column are inf when the fit ends
    at theta = 0, where d theta / d s diverges.  Raises NonConvergenceError,
    carrying the last iterate, if the fit does not converge.
    """
    bounds = bounds or FitBounds()
    if len(data) < 3:
        raise DomainError("need at least 3 sweep points")
    powers = np.array([d.pump_power_w for d in data])
    if np.unique(powers).size < 2:
        raise DomainError("sweep points must span at least 2 distinct pump powers")
    # every iterate has alpha in [alpha_min, alpha_max], so this bounds every
    # exp the fit takes and keeps J^T J finite (see _MAX_FIT_GAIN)
    p_max = float(powers.max())
    limit = _MAX_FIT_GAIN - max(0.0, math.log(p_max) - math.log(bounds.alpha_min)) / 4.0
    if not 2.0 * math.sqrt(bounds.alpha_max * p_max) <= limit:
        raise DomainError(f"parametric gain 2 sqrt(alpha P) must be <= {limit:.1f} for this fit, got "
                          f"alpha_max {bounds.alpha_max} /W at P {p_max} W")
    sq = np.array([d.squeezing_db for d in data])
    anti = np.array([d.anti_squeezing_db for d in data])

    lo, hi = bounds.lower, bounds.upper
    hi[2] = nz.sin2(hi[2])
    if initial is None:
        x0 = (lo + hi) / 2.0
    else:
        eta0, alpha0, theta0 = initial
        x0 = np.array([eta0, alpha0, nz.sin2(theta0)])
    x, jac, cost, converged, it = _levenberg_marquardt(x0, powers, sq, anti, lo, hi)
    s = float(x[2])
    theta = math.asin(math.sqrt(s))
    try:
        cov = (cost / max(sq.size + anti.size - 3, 1)) * np.linalg.inv(jac.T @ jac)
    except np.linalg.LinAlgError:
        cov = np.full((3, 3), np.nan)
    if s > 0.0:
        scale = np.array([1.0, 1.0, 1.0 / math.sin(2.0 * theta)])  # d theta / d s
        cov = cov * np.outer(scale, scale)
    else:
        cov[2, :] = cov[:, 2] = math.inf
    result = FitResult(
        transmittance=float(x[0]),
        shg_efficiency=float(x[1]),
        jitter_rad=theta,
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
    mm, mp = _mixed_pair(np.array([p_star]), eta, alpha, nz.sin2(theta_rad))
    return OperatingPoint(
        pump_power_w=p_star,
        squeezing_db=float(10.0 * np.log10(mm)[0]),
        anti_squeezing_db=float(10.0 * np.log10(mp)[0]),
        source_squeezing_db=nz.to_db(nz.invert_loss(float(mm[0]), detection_transmittance)),
    )


def grid_search_optimal_pump(
    eta: float,
    alpha: float,
    theta_rad: float,
    p_max: float = 2.0,
) -> float:
    """Brute-force oracle for the optimal pump power: coarse 0.1-mW grid
    over (0, p_max], refined on a fine grid over the two cells around the
    coarse minimum to 5e-8 W.  The squeezed variance is searched in
    linear units, which share their argmin with the dB levels."""
    if theta_rad <= 0:
        raise UnboundedOptimumError("grid search needs theta > 0")
    s = nz.sin2(theta_rad)
    step = 1e-4
    grid = np.arange(step, p_max + step / 2, step)
    i = _argmin_squeezed(grid, eta, alpha, s)
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 4001)
    return float(fine[_argmin_squeezed(fine, eta, alpha, s)])


# Points per block of the grid search.  Blocks this small let malloc reuse
# the heap memory the previous block freed: amid the design workload's other
# work, whole-grid temporaries (400 KiB at p_max 5 W) page-faulted ~550 times
# per call, 8192-point blocks still ~160 times in traced runs, and 5120-point
# blocks (40 KiB temporaries) not at all.
_GRID_BLOCK = 5120


def _argmin_squeezed(powers: np.ndarray, eta: float, alpha: float, s: float) -> int:
    """np.argmin of the squeezed level R'- of _mixed_pair over powers, by
    the same operations in the same order, block by block: the first index
    of the minimum, or of the first NaN."""
    c = 1.0 - s
    best, best_i = math.inf, 0
    for start in range(0, powers.size, _GRID_BLOCK):
        g = 2.0 * np.sqrt(alpha * powers[start:start + _GRID_BLOCK])
        level = nz.lossy(np.exp(-g), eta) * c + nz.lossy(np.exp(g), eta) * s
        j = int(np.argmin(level))
        if not level[j] >= best:  # smaller, or NaN
            best, best_i = level[j], start + j
            if math.isnan(best):
                break
    return best_i


@dataclass(frozen=True)
class BudgetReport:
    elements: tuple[tuple[str, float], ...]
    circuit_equiv_loss: float
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
        multiplicative_transmittance=mult,
        additive_total_loss=add,
    )
