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


def model_levels_db(powers, eta, alpha, theta):
    """(squeezing_db, anti_squeezing_db) of the jitter-mixed model at each
    pump power, from the array model the fit runs."""
    from opasim import fitting, noise

    mm, mp = fitting._mixed_pair(np.asarray(powers, dtype=float), eta, alpha, noise.sin2(theta))
    return 10.0 * np.log10(mm), 10.0 * np.log10(mp)


def series(a, b):
    """The series connection of two TransferFunctions, built from their
    ascending coefficients."""
    from opasim.loop import TransferFunction

    def polymul(p, q):
        return tuple(np.polymul(p[::-1], q[::-1])[::-1])

    return TransferFunction(polymul(a.num, b.num), polymul(a.den, b.den))
