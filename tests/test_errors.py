"""Each error class keeps the exit code and category the CLI maps it to."""

import pytest

from opasim import errors

TABLE = {
    "ToolError": (1, "error"),
    "DomainError": (2, "validation"),
    "ScenarioParseError": (2, "validation"),
    "ScenarioValidationError": (2, "validation"),
    "NumericalError": (3, "numerical"),
    "SingularityError": (3, "numerical"),
    "IntegrationError": (3, "numerical"),
    "InstabilityError": (3, "numerical"),
    "NonConvergenceError": (3, "numerical"),
    "InfeasibleError": (4, "infeasible"),
    "NoFeasibleCandidateError": (4, "infeasible"),
    "UnboundedOptimumError": (4, "infeasible"),
}


def test_every_error_class_is_in_the_table():
    classes = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, Exception)}
    assert classes == set(TABLE)


@pytest.mark.parametrize("name", TABLE)
def test_exit_code_and_category(name):
    cls = getattr(errors, name)
    assert issubclass(cls, errors.ToolError)
    assert (cls.exit_code, cls.category) == TABLE[name]
