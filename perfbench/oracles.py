"""Independent correctness oracles, written from the documented physics in
plain ``math``/``cmath`` and never from package functions.

- Squeezing model: R+- = (1 - eta) + eta exp(+-2 sqrt(alpha P)), mixed by
  the jitter angle: R'+- = R+- cos^2 theta + R-+ sin^2 theta.
- Detector: the circuit noise relative to shot noise is
  10^(-C/10) * shape(f)/shape(f_c) with shape(f) = 1 + (f/f_hi)^n + (f_lo/f)^n,
  n = slope/10 and f_lo = f_c^2/f_hi (the clearance peak sits at f_c).
- Lock loops (``opasim.loop.default_lock_loops``): controller 1 + K_I/s with
  K_I = 2 pi 100 Hz, plant 0.1/(1 + s/(2 pi 10 MHz)) + 0.05/(1 + s/(2 pi 100 Hz)),
  and a pure delay that puts the -180 deg crossing at the requested
  crossover.  The delay does not change |L|, so the gain margin and the
  flat-band test have closed forms.
"""

from __future__ import annotations

import cmath
import math


class Checker:
    """Collects failed comparisons for one operation."""

    def __init__(self):
        self.errors: list[str] = []

    def close(self, label: str, got, want, rel: float = 0.0, abs_: float = 0.0) -> None:
        tol = max(abs_, rel * abs(want))
        if not (isinstance(got, (int, float)) and abs(got - want) <= tol):
            self.errors.append(f"{label}: got {got!r}, want {want!r} (tol {tol:.3g})")

    def true(self, label: str, ok: bool) -> None:
        if not ok:
            self.errors.append(label)


# ---- squeezing model -------------------------------------------------------

def mixed_pair(eta: float, alpha: float, pump_w: float, theta: float) -> tuple[float, float]:
    """(squeezed, anti-squeezed) variances after loss and jitter mixing."""
    g = 2.0 * math.sqrt(alpha * pump_w)
    r_plus = (1.0 - eta) + eta * math.exp(g)
    r_minus = (1.0 - eta) + eta * math.exp(-g)
    c2 = math.cos(theta) ** 2
    s2 = 1.0 - c2
    return r_minus * c2 + r_plus * s2, r_plus * c2 + r_minus * s2


def db(ratio: float) -> float:
    return 10.0 * math.log10(ratio)


def p_star(alpha: float, theta: float) -> float:
    return math.log(1.0 / math.tan(theta)) ** 2 / (4.0 * alpha)


def fit_cost(rows, eta: float, alpha: float, theta: float) -> float:
    """Sum of squared dB residuals of both branches."""
    total = 0.0
    for pump, sq_db, anti_db in rows:
        sq, anti = mixed_pair(eta, alpha, pump, theta)
        total += (db(sq) - sq_db) ** 2 + (db(anti) - anti_db) ** 2
    return total


# ---- detection chain -------------------------------------------------------

def _shape(p: dict, f: float) -> float:
    n = p["slope_db_per_decade"] / 10.0
    f_lo = p["clearance_hz"] ** 2 / p["high_corner_hz"]
    return 1.0 + (f / p["high_corner_hz"]) ** n + (f_lo / f) ** n


def circuit_ratio(p: dict, f: float) -> float:
    return 10.0 ** (-p["clearance_db"] / 10.0) * _shape(p, f) / _shape(p, p["clearance_hz"])


def detection_transmittance(p: dict) -> float:
    t = 1.0
    for loss in p["losses"].values():
        t *= 1.0 - loss
    return t


def optical_pair(p: dict) -> tuple[float, float]:
    eta = (1.0 - p["wg_loss"]) * detection_transmittance(p)
    return mixed_pair(eta, p["alpha"], p["pump_w"], p["theta"])


def trace_means(p: dict, points: int, lock_mode: str) -> list[float]:
    """Expected linear power (relative to shot noise) of each displayed
    zero-span point."""
    sq, anti = optical_pair(p)
    n_circ = circuit_ratio(p, p["center_hz"])
    if lock_mode == "locked":
        return [sq + n_circ] * points
    step = p["sweep_time_s"] / (points - 1)
    out = []
    for i in range(points):
        c2 = math.cos(2.0 * math.pi * p["scan_rate_hz"] * i * step) ** 2
        out.append(sq * c2 + anti * (1.0 - c2) + n_circ)
    return out


def mean_and_se(means, k: int) -> tuple[float, float]:
    """Mean of the displayed linear powers and its standard error: each
    point averages k Exp(1) draws, so its variance is m^2/k."""
    n = len(means)
    return sum(means) / n, math.sqrt(sum(m * m for m in means) / k) / n


def clearance_db(p: dict, f: float) -> float:
    return -db(circuit_ratio(p, f))


# ---- lock loops ------------------------------------------------------------

_KP = 1.0
_KI = 2.0 * math.pi * 100.0
_FLAT = 0.1
_FAST_HZ = 1e7
_SLOW_HZ = 100.0
_F_MAX = 2e7  # upper end of the margin and shift-selection searches
# select_shift_frequency's defaults: minimum margins, flat-band limit and its
# reference frequency, and how close to a threshold a candidate may go
# either way
_MIN_GM_DB = 6.0
_MIN_PM_DEG = 30.0
_FLAT_DB = 3.0
_FLAT_REF_HZ = 1e4
_EPS_DB = 0.01
_EPS_DEG = 0.05
_POINTS_PER_DECADE = 200  # residual-jitter quadrature


def loop_no_delay(f: float) -> complex:
    s = 2j * math.pi * f
    plant = _FLAT / (1.0 + s / (2.0 * math.pi * _FAST_HZ)) + (_FLAT / 2.0) / (
        1.0 + s / (2.0 * math.pi * _SLOW_HZ)
    )
    return (_KP + _KI / s) * plant


def loop_delay(crossover_hz: float) -> float:
    """Delay placing the -180 deg crossing at the crossover.  Controller and
    plant each lag by less than 90 deg, so the principal angle is the
    continuous phase."""
    lag = math.degrees(cmath.phase(loop_no_delay(crossover_hz)))
    return (180.0 + lag) / (360.0 * crossover_hz)


def loop_phase_deg(f: float, delay: float) -> float:
    return math.degrees(cmath.phase(loop_no_delay(f))) - 360.0 * f * delay


def gain_margin_db(f: float) -> float:
    return -20.0 * math.log10(abs(loop_no_delay(f)))


def gain_crossover_hz() -> float:
    """Unity-gain frequency; |L| falls monotonically, so bisect in log f."""
    lo, hi = 1.0, _F_MAX
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if abs(loop_no_delay(mid)) >= 1.0:
            lo = mid
        else:
            hi = mid
        if hi / lo - 1.0 < 1e-13:
            break
    return math.sqrt(lo * hi)


def phase_margin_deg(crossover_hz: float) -> float:
    return 180.0 + loop_phase_deg(gain_crossover_hz(), loop_delay(crossover_hz))


def accepted_shifts(candidates, crossovers: dict) -> set[float]:
    """Shifts an exact implementation of the selection rule may return.

    The rule: the largest candidate for which each lock's beat frequency
    (twice the shift for opa_probe, the shift for probe_lo) is at most
    20 MHz, has |gain| within 3 dB of its value at 10 kHz and phase at
    least 30 deg above -180 deg, on loops that keep both margins (6 dB,
    30 deg).  A candidate within eps of a threshold may go either way, so
    every such candidate above the first clear pass is accepted too.
    """
    accepted = set()
    for shift in sorted(candidates, reverse=True):
        clear_fail = edge = False
        for kind, xover in crossovers.items():
            if gain_margin_db(xover) < _MIN_GM_DB or phase_margin_deg(xover) < _MIN_PM_DEG:
                clear_fail = True
                break
            fd = 2.0 * shift if kind == "opa_probe" else shift
            if fd > _F_MAX:
                clear_fail = True
                break
            flat_slack = _FLAT_DB - abs(
                20.0 * math.log10(abs(loop_no_delay(fd)) / abs(loop_no_delay(_FLAT_REF_HZ)))
            )
            phase_slack = loop_phase_deg(fd, loop_delay(xover)) + 180.0 - _MIN_PM_DEG
            if flat_slack < -_EPS_DB or phase_slack < -_EPS_DEG:
                clear_fail = True
                break
            if flat_slack <= _EPS_DB or phase_slack <= _EPS_DEG:
                edge = True
        if clear_fail:
            continue
        accepted.add(shift)
        if not edge:
            break
    return accepted


def table_density(frequencies_hz, densities):
    """Log-log interpolation of a tabulated spectrum, held constant beyond
    its end points."""
    lf = [math.log(f) for f in frequencies_hz]
    ld = [math.log(max(d, 1e-300)) for d in densities]

    def density(f: float) -> float:
        u = math.log(f)
        if u <= lf[0]:
            return math.exp(ld[0])
        for j in range(len(lf) - 1):
            if u <= lf[j + 1]:
                t = (u - lf[j]) / (lf[j + 1] - lf[j])
                return math.exp(ld[j] + t * (ld[j + 1] - ld[j]))
        return math.exp(ld[-1])

    return density


def residual_jitter_rad(density, f_min: float, f_max: float, crossover_hz: float) -> float:
    """Rms closed-loop phase error: composite Simpson in ln f of
    S(f) f / |1 + L(f)|^2 over [f_min, f_max]."""
    delay = loop_delay(crossover_hz)
    n = max(2, math.ceil(_POINTS_PER_DECADE * math.log10(f_max / f_min)))
    n += n % 2
    a, b = math.log(f_min), math.log(f_max)
    h = (b - a) / n
    total = 0.0
    for i in range(n + 1):
        f = math.exp(a + i * h)
        loop = loop_no_delay(f) * cmath.exp(-2j * math.pi * f * delay)
        w = 1.0 if i in (0, n) else (4.0 if i % 2 else 2.0)
        total += w * density(f) * f / abs(1.0 + loop) ** 2
    return math.sqrt(total * h / 3.0)
