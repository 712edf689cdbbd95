"""Each error class keeps the exit code and category the CLI maps it to."""

import math

import numpy as np
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


@pytest.mark.parametrize(
    "value, bounds, message",
    [
        (-1.0, dict(lo=0.0), "x must be >= 0, got -1.0"),
        (0.0, dict(lo=0.0, open_lo=True), "x must be > 0, got 0.0"),
        (2.0, dict(hi=1.0, open_hi=True), "x must be < 1, got 2.0"),
        (2.0, dict(hi=1.0), "x must be <= 1, got 2.0"),
        (1.5, dict(lo=0.0, hi=1.0), "x must be in [0, 1], got 1.5"),
        (0.5, dict(lo=0.5, hi=1.0, open_lo=True), "x must be in (0.5, 1], got 0.5"),
        (np.float64(2.0), dict(lo=0.0, hi=math.pi / 2, open_lo=True, open_hi=True, unit=" rad"),
         "x must be in (0, 1.5708) rad, got 2.0"),
        (2e15, dict(lo=0.0, hi=1e15, unit=" Hz"), "x must be in [0, 1e+15] Hz, got 2000000000000000.0"),
        (np.float64(math.nan), dict(lo=0.0), "x must be finite, got nan"),
        (-math.inf, {}, "x must be finite, got -inf"),
    ],
)
def test_check_scalar_message(value, bounds, message):
    with pytest.raises(errors.DomainError) as err:
        errors.check_scalar(value, "x", **bounds)
    assert str(err.value) == message


@pytest.mark.parametrize("value, bounds", [
    (0.0, dict(lo=0.0)), (1.0, dict(hi=1.0)), (5e-324, dict(lo=0.0, open_lo=True)),
    (-1e308, {}), (np.float64(0.25), dict(lo=0.0, hi=1.0)),
])
def test_check_scalar_returns_a_value_in_its_domain(value, bounds):
    assert errors.check_scalar(value, "x", **bounds) is value
