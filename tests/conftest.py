from pathlib import Path

import numpy as np
import pytest

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


@pytest.fixture(scope="session")
def locked_bundle():
    from opasim.scenario import load_scenario

    return load_scenario(SCENARIO_DIR / "zero_span_locked.scenario")


@pytest.fixture(scope="session")
def scanned_bundle():
    from opasim.scenario import load_scenario

    return load_scenario(SCENARIO_DIR / "zero_span_scanned.scenario")


def series(a, b):
    """The series connection of two TransferFunctions, built from their
    ascending coefficients."""
    from opasim.loop import TransferFunction

    def polymul(p, q):
        return tuple(np.polymul(p[::-1], q[::-1])[::-1])

    return TransferFunction(polymul(a.num, b.num), polymul(a.den, b.den))
