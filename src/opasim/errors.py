"""Exception hierarchy shared by all modules.

Each error carries an exit code so the CLI can map failures onto the
documented process exit statuses (2 validation, 3 numerical, 4 infeasible).
"""


class ToolError(Exception):
    exit_code = 1
    category = "error"


class DomainError(ToolError, ValueError):
    """A physical parameter violates its invariant."""

    exit_code = 2
    category = "validation"


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
