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
from dataclasses import dataclass, fields

import numpy as np

from .errors import DomainError, InfeasibleError, NonConvergenceError, UnboundedOptimumError
from . import noise as nz
from .detection import MAX_POINTS, DetectorModel

__all__ = [
    "PumpSweepPoint",
    "FitBounds",
    "FitResult",
    "OperatingPoint",
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
        if not (0.0 <= self.pump_power_w < math.inf and -math.inf < self.squeezing_db < math.inf
                and -math.inf < self.anti_squeezing_db < math.inf):  # one comparison chain when valid
            for field in fields(self):
                nz._check_finite(field.name, getattr(self, field.name))
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
        if not 0 < self.alpha_min < self.alpha_max < math.inf:
            raise DomainError("need 0 < alpha_min < alpha_max < inf")
        if not 0 < self.jitter_max_rad < math.pi / 2:
            raise DomainError("jitter_max must be in (0, pi/2) rad")


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


def _stacked_levels(x, root_p, data):
    """dB residuals of both branches at x = (eta, alpha, s), stacked, with
    the pieces _jacobian needs.  root_p is (-sqrt P, reversed +sqrt P) and
    data (sq_db, reversed anti_db), so a stacked vector reversed pairs each
    row with the other branch at the same pump power."""
    eta, alpha, s = x
    e = np.exp((2.0 * math.sqrt(alpha)) * root_p)  # (e^-g, e^g)
    r = nz.lossy(e, eta)
    mixed = r * (1.0 - s) + r[::-1] * s  # nz.mix over the stacked branches
    return 10.0 * np.log10(mixed) - data, (e, r, mixed)


def _jacobian(x, root_p, e, r, mixed):
    """Jacobian in x of the _stacked_levels residuals, from its pieces.  The
    mix is linear, so each column is the mix of the branch derivatives over
    the mixed level."""
    eta, alpha, s = x
    jac = np.empty((3, root_p.size))
    jac[0] = e - 1.0  # d R / d eta of each branch
    jac[1] = e * root_p  # d R / d alpha over eta / sqrt(alpha)
    jac[:2] = jac[:2] * (1.0 - s) + jac[:2, ::-1] * s
    jac[1] *= eta / math.sqrt(alpha)
    # the s column stays nonzero at s = 0, so theta = 0 is no stationary trap
    jac[2] = r[::-1] - r
    jac *= _DB / mixed
    return jac.T


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
# Largest |dB| of a data level.  Every mixed level lies between e^-g and e^g,
# so with g <= _MAX_FIT_GAIN the model's levels stay within _DB _MAX_FIT_GAIN
# = 751.7 dB of shot noise, and a level beyond that cannot be fit.  Within
# the bound each residual is at most 2 _MAX_LEVEL_DB, so the squared sum over
# 2 MAX_POINTS rows stays below 8 MAX_POINTS _MAX_LEVEL_DB^2 = 4.5e12, and
# J^T res stays finite wherever J^T J does.
_MAX_LEVEL_DB = _DB * _MAX_FIT_GAIN
_MAX_ITER = 200
_STEP_TOL = 1e-9  # relative step
_KKT_TOL = 1e-10  # projected, box-scaled gradient over sqrt(cost)


def _cholesky_solve(a, b):
    """Solution of a y = b for a small symmetric positive-definite a (lists
    of floats), by a Cholesky factorization a = L L^T on floats; None when
    a pivot is not positive."""
    low, y = [], []
    for i, (a_row, b_i) in enumerate(zip(a, b)):
        row = []
        for j in range(i):
            v = a_row[j]
            for l_ik, l_jk in zip(row, low[j]):
                v -= l_ik * l_jk
            row.append(v / low[j][j])
        v = a_row[i]
        for l_ik in row:
            v -= l_ik * l_ik
        if not v > 0.0:
            return None
        row.append(math.sqrt(v))
        low.append(row)
        for l_ik, y_k in zip(row, y):  # L z = b
            b_i -= l_ik * y_k
        y.append(b_i / row[i])
    for i in reversed(range(len(y))):  # L^T y = z
        for k in range(i + 1, len(y)):
            y[i] -= low[k][i] * y[k]
        y[i] /= low[i][i]
    return y


def _levenberg_marquardt(x0, root_p, data, lo, hi):
    """Box-constrained Levenberg-Marquardt from x0 in (eta, alpha, s).

    Each step fixes the parameters that sit on a bound with the descent
    direction pointing out of the box, solves the damped normal equations
    over the rest and clips, so a parameter held at a bound takes no step.
    It stops when the relative step falls below _STEP_TOL or when the
    projected gradient, scaled by the box width, is below
    _KKT_TOL * sqrt(cost): a KKT test, which ends a fit whose first-order
    conditions already hold (such as one on a corner of the box) without a
    further step.  The step logic runs on floats over the 3 parameters, and
    the Jacobian is built only at the points a step accepts.
    """
    width = [h - l for l, h in zip(lo, hi)]
    x = [min(max(float(v), l), h) for v, l, h in zip(x0, lo, hi)]
    res, levels = _stacked_levels(x, root_p, data)
    cost = float(res @ res)
    jac = _jacobian(x, root_p, *levels)
    lam = 1e-3
    converged = False
    it = 0
    while True:
        jtr = (jac.T @ res).tolist()
        free = [k for k in range(3)
                if not ((x[k] <= lo[k] and jtr[k] > 0) or (x[k] >= hi[k] and jtr[k] < 0))]
        if math.hypot(*[jtr[k] * width[k] for k in free]) <= _KKT_TOL * math.sqrt(cost):
            converged = True
            break
        if it == _MAX_ITER:
            break
        it += 1
        jtj = (jac.T @ jac).tolist()
        rhs = [-jtr[k] for k in free]
        for _ in range(30):
            damped = [[jtj[i][j] + lam * jtj[i][j] if i == j else jtj[i][j] for j in free] for i in free]
            step = _cholesky_solve(damped, rhs)
            if step is None:  # not positive definite
                lam *= 10.0
                continue
            x_new = x.copy()
            for k, dk in zip(free, step):
                x_new[k] = min(max(x[k] + dk, lo[k]), hi[k])
            res_new, levels = _stacked_levels(x_new, root_p, data)
            cost_new = float(res_new @ res_new)
            if cost_new <= cost:
                break
            lam *= 4.0
        else:
            break
        rel_step = math.hypot(*[a - b for a, b in zip(x_new, x)]) / max(math.hypot(*x), 1e-30)
        x, res, cost = x_new, res_new, cost_new
        jac = _jacobian(x, root_p, *levels)
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
    worst = float(np.max(np.abs([sq, anti])))
    if not worst <= _MAX_LEVEL_DB:  # NaN fails too
        raise DomainError(f"dB levels must lie within +-{_MAX_LEVEL_DB:.1f} dB, got {worst!r}")

    lo = [bounds.eta_min, bounds.alpha_min, 0.0]
    hi = [bounds.eta_max, bounds.alpha_max, nz.sin2(bounds.jitter_max_rad)]
    if initial is None:
        x0 = [(l + h) / 2.0 for l, h in zip(lo, hi)]
    else:
        eta0, alpha0, theta0 = initial
        x0 = [eta0, alpha0, nz.sin2(theta0)]
    root_p = np.sqrt(powers)
    root_p = np.concatenate((-root_p, root_p[::-1]))
    x, jac, cost, converged, it = _levenberg_marquardt(
        x0, root_p, np.concatenate((sq, anti[::-1])), lo, hi)
    s = x[2]
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


_GRID_STEP_W = 1e-4  # the grid oracle's step and first point
_GRID_MAX_W = 2.0  # the grid oracle's default last point


def _grid_end(alpha: float, p_max: float = _GRID_MAX_W) -> float:
    """The last pump power the grid oracle searches: p_max, or a step below
    the pump power where the gain 2 sqrt(alpha P) reaches nz._MAX_GAIN."""
    if 4.0 * alpha * p_max > nz._MAX_GAIN**2:
        p_max = _GRID_STEP_W * (math.floor(nz._MAX_GAIN**2 / (4.0 * alpha * _GRID_STEP_W)) - 1)
        if p_max < _GRID_STEP_W:
            raise InfeasibleError(f"the gain limit lies below the grid's first point, {_GRID_STEP_W} W")
    return p_max


def grid_search_optimal_pump(
    eta: float,
    alpha: float,
    theta_rad: float,
    p_max: float = _GRID_MAX_W,
) -> float:
    """Brute-force oracle for the optimal pump power: coarse 0.1-mW grid
    over (0, p_max], refined on a fine grid over the two cells around the
    coarse minimum to 5e-8 W.  The squeezed variance is searched in
    linear units, which share their argmin with the dB levels.  The grid
    ends a step below the pump power where the gain 2 sqrt(alpha P)
    reaches nz._MAX_GAIN, so every exp it takes is finite."""
    if not (0.0 <= eta <= 1.0 and 0.0 < alpha < math.inf and theta_rad < math.pi / 2
            and p_max >= _GRID_STEP_W):
        raise DomainError(f"need 0 <= eta <= 1, 0 < alpha < inf, theta < pi/2 rad and p_max >= "
                          f"{_GRID_STEP_W} W, got {eta}, {alpha} /W, {theta_rad} rad, {p_max} W")
    if theta_rad <= 0:
        raise UnboundedOptimumError("grid search needs theta > 0")
    s = nz.sin2(theta_rad)
    step = _GRID_STEP_W
    grid = np.arange(step, _grid_end(alpha, p_max) + step / 2, step)
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
    the same operations in the same order, block by block in two buffers
    updated in place: the first index of the minimum, or of the first
    NaN."""
    c = 1.0 - s
    loss = 1.0 - eta  # nz.lossy(r, eta) = (1 - eta) + eta * r
    size = min(powers.size, _GRID_BLOCK)
    g_buf, level_buf = np.empty(size), np.empty(size)
    best, best_i = math.inf, 0
    for start in range(0, powers.size, _GRID_BLOCK):
        block = powers[start:start + _GRID_BLOCK]
        g, level = g_buf[:block.size], level_buf[:block.size]
        np.multiply(alpha, block, out=g)
        np.sqrt(g, out=g)
        g *= 2.0
        np.negative(g, out=level)
        np.exp(level, out=level)  # the squeezed branch, e^-g
        level *= eta
        level += loss
        level *= c
        np.exp(g, out=g)  # the anti-squeezed branch, e^g
        g *= eta
        g += loss
        g *= s
        level += g
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
