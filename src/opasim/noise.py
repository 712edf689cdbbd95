"""Closed-form quantum-noise arithmetic for a single-pass waveguide squeezer.

Quadrature variances are linear power ratios normalized to shot noise = 1.
The model is the loss-degraded parametric gain

    R_plus/minus = (1 - eta) + eta * exp(+-2 * sqrt(alpha * P))

mixed by the rms residual phase error theta of the lock, linearly in
s = sin^2(theta):

    R'_plus/minus = R_plus/minus * (1 - s) + R_minus/plus * s

The kernels ``lossy`` and ``mix`` write the loss and the mix; the dataclass
API, the analyzer means and P* call them; the fit and grid oracle inline them.
They use no numpy calls, so floats stay Python floats (a numpy call costs
about a microsecond per scalar) and arrays pass through the same arithmetic.
Dataclasses only validate their invariants.
"""

from __future__ import annotations

import math
import sys
import warnings
from dataclasses import dataclass, field

from .errors import DomainError, InfeasibleError

__all__ = [
    "OpaParams",
    "QuadraturePair",
    "PhaseJitter",
    "LossElement",
    "LossBudget",
    "opa_output_variances",
    "jitter_mix",
    "to_db",
    "from_db",
    "apply_loss",
    "invert_loss",
    "visibility_to_loss",
    "clearance_to_equiv_loss",
]

_LN10_OVER_10 = math.log(10.0) / 10.0
_MAX_GAIN = math.log(sys.float_info.max)  # largest 2 sqrt(alpha P) whose exp is finite


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {value!r}")


@dataclass(frozen=True)
class OpaParams:
    """Squeezer operating point: SHG efficiency [1/W], pump power [W],
    effective transmittance of the squeezed light [0..1]."""

    shg_efficiency: float
    pump_power: float
    transmittance: float

    def __post_init__(self):
        alpha, power = self.shg_efficiency, self.pump_power
        # valid input passes here; the checks below say what is wrong
        if (0.0 <= self.transmittance <= 1.0 and alpha >= 0.0 and power >= 0.0
                and 2.0 * math.sqrt(alpha * power) <= _MAX_GAIN):
            return
        _check_finite("shg_efficiency", self.shg_efficiency)
        _check_finite("pump_power", self.pump_power)
        _check_finite("transmittance", self.transmittance)
        if self.shg_efficiency < 0:
            raise DomainError(f"shg_efficiency must be >= 0, got {self.shg_efficiency}")
        if self.pump_power < 0:
            raise DomainError(f"pump_power must be >= 0, got {self.pump_power}")
        if not 0.0 <= self.transmittance <= 1.0:
            raise DomainError(f"transmittance must be in [0, 1], got {self.transmittance}")
        raise DomainError(
            f"parametric gain 2 sqrt(alpha P) must be <= {_MAX_GAIN:.1f}, got "
            f"alpha {self.shg_efficiency} /W at P {self.pump_power} W"
        )


@dataclass(frozen=True)
class QuadraturePair:
    """Anti-squeezed and squeezed variances relative to shot noise."""

    anti: float
    sq: float

    def __post_init__(self):
        if 0.0 < self.anti < math.inf and 0.0 < self.sq < math.inf:
            return
        for name, v in (("anti", self.anti), ("sq", self.sq)):
            _check_finite(name, v)
            if v <= 0:
                raise DomainError(f"{name} variance must be > 0, got {v}")


@dataclass(frozen=True)
class PhaseJitter:
    """Rms phase error of the homodyne lock, stored in radians."""

    theta: float

    def __post_init__(self):
        if 0.0 <= self.theta <= math.pi / 2:
            return
        _check_finite("theta", self.theta)
        # pi/2 is allowed as the quadrature-swap limit
        raise DomainError(f"theta must be in [0, pi/2] rad, got {self.theta}")

    @classmethod
    def from_degrees(cls, degrees: float) -> "PhaseJitter":
        return cls(math.radians(degrees))

    @property
    def degrees(self) -> float:
        return math.degrees(self.theta)


@dataclass(frozen=True)
class LossElement:
    label: str
    loss: float

    def __post_init__(self):
        _check_finite(f"loss[{self.label}]", self.loss)
        if not 0.0 <= self.loss <= 1.0:
            raise DomainError(f"loss[{self.label}] must be in [0, 1], got {self.loss}")


@dataclass(frozen=True)
class LossBudget:
    elements: tuple[LossElement, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))

    @property
    def transmittance(self) -> float:
        """Effective transmittance of the chain: the product of the
        complements of its losses, in any order."""
        t = 1.0
        for e in self.elements:
            t *= 1.0 - e.loss
        return t

    @property
    def additive_total(self) -> float:
        """Sum of losses.  Physically an approximation; kept for comparison
        against budgets quoted as plain sums."""
        return sum(e.loss for e in self.elements)


def lossy(r, eta):
    """Variance r after a beamsplitter-type loss of transmittance eta:
    (1 - eta) + eta * r, for floats or arrays."""
    return (1.0 - eta) + eta * r


def mix(a, b, s):
    """Jitter mixing with s = sin^2 theta: (a (1 - s) + b s, b (1 - s) + a s),
    for floats or arrays."""
    c = 1.0 - s
    return a * c + b * s, b * c + a * s


def sin2(theta: float) -> float:
    # 1 - cos^2 rather than sin^2, so (1 - s) is exactly cos^2 theta up to 45 deg
    return 1.0 - math.cos(theta) ** 2


def opa_output_variances(p: OpaParams) -> QuadraturePair:
    """Anti-squeezed / squeezed variances of the squeezer output after loss."""
    gain = 2.0 * math.sqrt(p.shg_efficiency * p.pump_power)
    eta = p.transmittance
    return QuadraturePair(anti=lossy(math.exp(gain), eta), sq=lossy(math.exp(-gain), eta))


def jitter_mix(q: QuadraturePair, j: PhaseJitter) -> QuadraturePair:
    """Mix the quadratures by the residual lock phase error, used directly
    as the mixing angle."""
    anti, sq = mix(q.anti, q.sq, sin2(j.theta))
    return QuadraturePair(anti=anti, sq=sq)


def to_db(ratio: float) -> float:
    if not 0.0 < ratio < math.inf:
        raise DomainError(f"power ratio must be > 0 and finite, got {ratio!r}")
    return 10.0 * math.log10(ratio)


def from_db(db: float) -> float:
    _check_finite("dB value", db)
    if db * _LN10_OVER_10 > _MAX_GAIN:
        raise DomainError(f"dB value must be <= {_MAX_GAIN / _LN10_OVER_10:.1f}, got {db}")
    return math.exp(db * _LN10_OVER_10)


def apply_loss(q: QuadraturePair, transmittance: float) -> QuadraturePair:
    """Propagate both variances through a beamsplitter-type loss:
    R -> (1 - eta) + eta * R."""
    if not 0.0 <= transmittance <= 1.0:
        raise DomainError(f"transmittance must be in [0, 1], got {transmittance}")
    return QuadraturePair(anti=lossy(q.anti, transmittance), sq=lossy(q.sq, transmittance))


def invert_loss(r_measured: float, transmittance: float) -> float:
    """Undo a known loss on a measured variance: (R - (1 - eta)) / eta.

    Raises InfeasibleError when the measured value is below the vacuum
    contribution of the loss itself, i.e. inconsistent with the claimed
    transmittance.
    """
    if not 0.0 < transmittance <= 1.0:
        raise DomainError(f"transmittance must be in (0, 1], got {transmittance}")
    if r_measured <= 0 or not math.isfinite(r_measured):
        raise DomainError(f"measured ratio must be > 0, got {r_measured!r}")
    out = (r_measured - (1.0 - transmittance)) / transmittance
    if out <= 0:
        raise InfeasibleError(
            f"measured ratio {r_measured} is below the vacuum floor "
            f"{1.0 - transmittance:.6g} implied by transmittance {transmittance}"
        )
    return out


def visibility_to_loss(visibility: float) -> float:
    """Mode-mismatch loss implied by a fringe visibility: 1 - V^2."""
    if not 0.0 <= visibility <= 1.0:
        raise DomainError(f"visibility must be in [0, 1], got {visibility}")
    return 1.0 - visibility**2


def clearance_to_equiv_loss(clearance_db: float) -> float:
    """Optical loss equivalent to electronic noise a given clearance (dB)
    below shot noise: 10^(-C/10).  Clearance <= 0 dB (noise at or above
    shot) is allowed but flagged with a warning."""
    _check_finite("clearance", clearance_db)
    loss = from_db(-clearance_db)
    if loss >= 1.0:
        warnings.warn(
            f"clearance {clearance_db} dB puts circuit noise at or above shot "
            f"noise (equivalent loss {loss:.3g} >= 1)",
            stacklevel=2,
        )
    return loss
