"""Exception hierarchy shared by all modules.

Each error carries an exit code so the CLI can map failures onto the
documented process exit statuses (2 validation, 3 numerical, 4 infeasible).
"""

import math


class ToolError(Exception):
    exit_code = 1
    category = "error"


class DomainError(ToolError, ValueError):
    """A physical parameter violates its invariant."""

    exit_code = 2
    category = "validation"


def check_scalar(value, name, lo=-math.inf, hi=math.inf, *, open_lo=False, open_hi=False, unit=""):
    """``value`` when it is finite and lies in [lo, hi], an end open where
    ``open_lo`` or ``open_hi`` says; else a DomainError naming ``name`` and
    the value.  For floats: math.isfinite overflows on huge integers."""
    if not math.isfinite(value):
        raise DomainError(f"{name} must be finite, got {float(value)!r}")
    if (lo < value if open_lo else lo <= value) and (value < hi if open_hi else value <= hi):
        return value
    if hi == math.inf:
        where = f"{'>' if open_lo else '>='} {lo:g}"
    elif lo == -math.inf:
        where = f"{'<' if open_hi else '<='} {hi:g}"
    else:
        where = f"in {'(' if open_lo else '['}{lo:g}, {hi:g}{')' if open_hi else ']'}"
    raise DomainError(f"{name} must be {where}{unit}, got {float(value)}")


class ScenarioParseError(DomainError):
    """Scenario file could not be parsed at all."""


class ScenarioValidationError(DomainError):
    """Scenario parsed but one or more fields are invalid.

    ``violations`` is a list of ``section.key: message`` strings covering
    every problem found, not just the first.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("; ".join(self.violations))


class NumericalError(ToolError):
    """A computation failed on inputs inside their domain."""

    exit_code = 3
    category = "numerical"


class SingularityError(NumericalError):
    """Transfer-function denominator vanished at an evaluation point."""


class IntegrationError(NumericalError):
    pass


class InstabilityError(NumericalError):
    """Closed-loop analysis requested on an unstable loop."""


class NonConvergenceError(NumericalError):
    """Fit did not converge; ``best`` holds the last iterate."""

    def __init__(self, message, best=None):
        self.best = best
        super().__init__(message)


class InfeasibleError(ToolError):
    """Inputs are mutually inconsistent (e.g. loss inversion below zero)."""

    exit_code = 4
    category = "infeasible"


class NoFeasibleCandidateError(InfeasibleError):
    pass


class UnboundedOptimumError(InfeasibleError):
    """No interior optimum exists (jitter-free squeezing improves without bound)."""
