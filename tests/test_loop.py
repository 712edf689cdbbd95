import math
import re

import numpy as np
import pytest

from opasim import loop as lp
from opasim.errors import (
    DomainError,
    InstabilityError,
    IntegrationError,
    NoFeasibleCandidateError,
    NumericalError,
    SingularityError,
)
from opasim.noise import PhaseJitter

from conftest import series


def pure_delay_loop(tau, gain=1.0, kind="opa_probe"):
    return lp.LoopModel(
        controller=lp.PidController(kp=1.0),
        fast_plant=lp.TransferFunction.flat(gain),
        slow_plant=lp.TransferFunction.flat(0.0),
        loop_delay=tau,
        kind=kind,
    )


INTEGRATOR = lp.TransferFunction((1.0,), (0.0, 1.0))
# open loop: a zero plant, so no suppression anywhere
ZERO_LOOP = pure_delay_loop(0.0, gain=0.0)


@pytest.fixture
def response_calls(monkeypatch):
    """(loop, number of frequencies) of each LoopModel response call."""
    calls = []
    respond = lp.LoopModel.response
    monkeypatch.setattr(lp.LoopModel, "response",
                        lambda loop, f: calls.append((loop, np.size(f))) or respond(loop, f))
    return calls


@pytest.fixture
def nan_loop(monkeypatch):
    """A loop whose response is undefined everywhere."""
    monkeypatch.setattr(lp.LoopModel, "response",
                        lambda loop, f: np.full(np.shape(f), np.nan, dtype=complex))
    return pure_delay_loop(0.0)


def dense_crossovers(loop, f_min=1.0, f_max=2e7, points=200_001):
    """Reference (phase, gain) crossovers on a geometric grid ~8.4e-5 apart:
    the first node at or below -180 deg and the first node where |L| falls
    below 1, each reported as the geometric midpoint of its cell."""
    f = np.geomspace(f_min, f_max, points)
    h = loop.response(f)
    phase = np.degrees(np.unwrap(np.angle(h)))
    mag = np.abs(h)
    below = np.nonzero(phase <= -180.0)[0]
    down = np.nonzero((mag[:-1] >= 1.0) & (mag[1:] < 1.0))[0]
    phase_crossover = math.sqrt(f[below[0] - 1] * f[below[0]]) if below.size else None
    gain_crossover = math.sqrt(f[down[0]] * f[down[0] + 1]) if down.size else None
    return phase_crossover, gain_crossover


class TestTransferFunction:
    def test_integrator_identities(self):
        for f in (10.0, 1e3, 2.5e6):
            h = complex(INTEGRATOR.response(f))
            assert 20 * math.log10(abs(h)) == pytest.approx(-20 * math.log10(2 * math.pi * f), abs=1e-9)
            assert math.degrees(np.angle(h)) == pytest.approx(-90.0, abs=1e-9)

    def test_pure_delay_identities(self):
        tau, gain = 125e-9, 0.7
        loop = pure_delay_loop(tau, gain=gain)
        f = 1.3e6
        h = complex(loop.response(f))
        assert abs(h) == pytest.approx(gain, rel=1e-12)
        # phase is -360 f tau degrees modulo 360
        expected = (-360.0 * f * tau) % 360.0
        assert math.degrees(np.angle(h)) % 360.0 == pytest.approx(expected, abs=1e-9)

    def test_product_homomorphism(self):
        a = lp.TransferFunction.low_pass(2e6, gain=0.7)
        b = lp.TransferFunction((3.0, 3.0 * 2e-7), (1.0, 5e-8))
        grid = lp.log_frequency_grid(1e2, 1e7, 100)
        gain_a, phase_a = lp.bode(a, grid)
        gain_b, phase_b = lp.bode(b, grid)
        gain_ab, phase_ab = lp.bode(series(a, b), grid)
        assert gain_ab == pytest.approx(gain_a + gain_b, abs=1e-9)
        assert phase_ab == pytest.approx(phase_a + phase_b, abs=1e-7)

    def test_invalid_denominator(self):
        with pytest.raises(DomainError):
            lp.TransferFunction((1.0,), (0.0,))


def product_response(loop, f):
    """The open loop as the product of its parts: controller x (fast +
    slow) x delay, each part evaluated on its own."""
    plant = loop.fast_plant.response(f) + loop.slow_plant.response(f)
    return (loop.controller.transfer_function().response(f) * plant
            * np.exp(-2j * np.pi * f * loop.loop_delay))


def random_loop(rng):
    """A PI controller (or P alone) driving a low-pass fast path and a
    low-pass or absent slow path, with a delay of up to 0.5 us."""
    ki = 0.0 if rng.random() < 0.2 else 2 * math.pi * 10 ** rng.uniform(0.0, 4.0)
    slow = (lp.TransferFunction.flat(0.0) if rng.random() < 0.2 else
            lp.TransferFunction.low_pass(10 ** rng.uniform(0.0, 3.0), 10 ** rng.uniform(-2.0, 0.0)))
    return lp.LoopModel(
        controller=lp.PidController(kp=10 ** rng.uniform(-1.0, 1.0), ki=ki),
        fast_plant=lp.TransferFunction.low_pass(10 ** rng.uniform(5.0, 8.0), 10 ** rng.uniform(-2.0, 0.0)),
        slow_plant=slow,
        loop_delay=rng.uniform(0.0, 5e-7),
    )


class TestFoldedResponse:
    """A LoopModel evaluates controller x (fast + slow) as one rational."""

    def test_matches_product_on_random_loops(self):
        rng = np.random.default_rng(19)
        f = lp._MARGINS_GRID
        for _ in range(200):
            loop = random_loop(rng)
            ref = product_response(loop, f)
            assert np.all(np.abs(loop.response(f) - ref) <= 1e-13 * np.abs(ref))

    def test_matches_product_on_bundled_loops(self, locked_bundle, scanned_bundle):
        f = np.geomspace(0.1, 1e8, 2001)
        for loop in locked_bundle.loops + scanned_bundle.loops:
            ref = product_response(loop, f)
            assert np.all(np.abs(loop.response(f) - ref) <= 1e-13 * np.abs(ref))

    def test_scalar_frequency(self):
        loop = lp.default_lock_loops()[0]
        h = loop.response(1.3e6)
        assert np.shape(h) == ()
        assert complex(h) == pytest.approx(complex(product_response(loop, 1.3e6)), rel=1e-13)

    @pytest.mark.parametrize("f", [2.5, [1.0, 2.0, 3.0], [[1.0, 2.0], [3.0, 4.0]]])
    def test_constant_polynomial_response_is_shaped_like_f(self, f):
        h = lp.TransferFunction.flat(0.3).response(f)
        assert np.shape(h) == np.shape(f) and np.asarray(h).dtype == complex
        assert np.all(h == 0.3)

    def test_nonpositive_frequency_and_vanishing_denominator(self):
        with pytest.raises(DomainError):
            lp.default_lock_loops()[0].response([1.0, 0.0])
        with pytest.raises(SingularityError):
            lp.TransferFunction((1.0,), (1.0, 0.0, 1.0 / (2 * math.pi) ** 2)).response([0.5, 1.0])

    def test_huge_coefficients_are_a_numerical_error(self):
        with pytest.raises(NumericalError, match=r"num \(0\.0, 0\.0, 1e\+300\) / den \(1\.0,\) overflows"):
            lp.TransferFunction((0, 0, 1e300), (1,)).response(1e15)

    @pytest.mark.parametrize("f", [math.nan, [1.0, math.nan]])
    def test_nan_frequency_rejected(self, f):
        for system in (lp.default_lock_loops()[0], lp.TransferFunction.flat(1.0)):
            with pytest.raises(DomainError, match=r"frequency must be finite and in \[1e-06, 1e\+15\] Hz, got nan"):
                system.response(f)

    def test_huge_frequencies_match_product(self):
        # the folded rational at both ends of the frequency range
        loop = lp.default_lock_loops()[0]
        probe = lp.LoopModel(loop.controller, loop.fast_plant, loop.slow_plant)
        for f in (np.geomspace(1e9, 1e15, 211), np.geomspace(1e-6, 1.0, 211)):
            ref = product_response(probe, f)
            assert np.all(np.abs(probe.response(f) - ref) <= 1e-13 * np.abs(ref))

    def test_margins_grid_is_read_only(self):
        grid = lp._MARGINS_GRID
        assert grid.size == 1461 and grid[0] == 1.0 and grid[-1] == pytest.approx(2e7, rel=1e-12)
        with pytest.raises(ValueError):
            grid[0] = 2.0
        assert lp.default_lock_loops()[0]._grid_analysis[0] is grid


class TestNonFiniteLoopInputs:
    @pytest.mark.parametrize("num, den", [((math.nan,), (1.0,)), ((1.0,), (1.0, math.inf)),
                                          ((1.0, -math.inf), (1.0, 2.0))])
    def test_transfer_function_coefficients(self, num, den):
        with pytest.raises(DomainError):
            lp.TransferFunction(num, den)

    @pytest.mark.parametrize("kp, ki", [(math.nan, 0.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_pi_gains(self, kp, ki):
        with pytest.raises(DomainError):
            lp.PidController(kp=kp, ki=ki)

    @pytest.mark.parametrize("delay", [math.nan, math.inf])
    def test_loop_delay(self, delay):
        with pytest.raises(DomainError):
            pure_delay_loop(delay)

    @pytest.mark.filterwarnings("error")
    def test_loop_delay_that_overflows_the_delay_factor(self):
        # exp(-s delay) at 1e15 Hz overflowed for this delay; it lies outside [0, 1] s
        loop = lp.default_lock_loops()[0]
        with pytest.raises(DomainError, match=r"loop_delay must be in \[0, 1\] s, got 1e\+300"):
            lp.LoopModel(loop.controller, loop.fast_plant, loop.slow_plant, loop_delay=1e300).response(1e15)


class TestLoopLayerFloats:
    def test_margins_are_floats(self):
        for loop in lp.default_lock_loops():
            m = lp.stability_margins(loop)
            assert all(type(x) is float for x in (m.phase_crossover_hz, m.gain_margin_db,
                                                  m.gain_crossover_hz, m.phase_margin_deg))

    def test_calibrated_amplitude_is_float(self):
        template = lp.PhaseNoiseSpectrum(kind="one_over_f2", f_min=1.0, f_max=1e6)
        spec = lp.calibrate_jitter_amplitude(lp.default_lock_loops()[0], PhaseJitter.from_degrees(0.8),
                                             template)
        assert type(spec.amplitude) is float

    def test_integration_error_prints_a_float(self, nan_loop):
        spec = lp.PhaseNoiseSpectrum(kind="white", amplitude=1e-6, f_min=1.0, f_max=1e4)
        with pytest.raises(IntegrationError, match=r"returned nan$"):
            lp.residual_jitter(spec, nan_loop)


class TestPidController:
    def test_needs_a_gain(self):
        with pytest.raises(DomainError):
            lp.PidController()

    def test_pi_response(self):
        c = lp.PidController(kp=2.0, ki=100.0)
        f = 50.0
        w = 2 * math.pi * f
        expected = 2.0 + 100.0 / (1j * w)
        assert complex(c.transfer_function().response(f)) == pytest.approx(expected, rel=1e-12)


class TestBode:
    def test_empty_frequency_list(self):
        gain, phase = lp.bode(INTEGRATOR, [])
        assert gain.size == phase.size == 0

    @pytest.mark.parametrize("f_min, f_max", [(1.0, math.inf), (math.nan, 10.0)])
    def test_grid_rejects_non_finite_bounds(self, f_min, f_max):
        with pytest.raises(DomainError):
            lp.log_frequency_grid(f_min, f_max)

    def test_nan_frequency_rejected(self):
        with pytest.raises(DomainError, match="strictly ascending"):
            lp.bode(INTEGRATOR, [1.0, math.nan])

    def test_phase_unwrap_is_continuous(self):
        loop = lp.default_lock_loops()[0]
        _, phases = lp.bode(loop, lp.log_frequency_grid(1e3, 2e7, 200))
        assert np.all(np.abs(np.diff(phases)) < 180.0)

    def test_delay_crossover_frequencies(self):
        # flat-gain plant with pure delay tau crosses -180 deg at 1/(2 tau)
        for tau, f180 in ((125e-9, 4.0e6), (250e-9, 2.0e6)):
            m = lp.stability_margins(pure_delay_loop(tau))
            assert m.phase_crossover_hz == pytest.approx(f180, rel=2e-3)


class TestStabilityMargins:
    def test_pure_delay_analytic(self):
        m = lp.stability_margins(pure_delay_loop(125e-9))
        assert m.phase_crossover_hz == pytest.approx(4.0e6, rel=2e-3)
        assert m.gain_margin_db == pytest.approx(0.0, abs=1e-9)

    def test_integrator_limit_phase_margin(self):
        loop = lp.LoopModel(
            controller=lp.PidController(ki=2 * math.pi * 10.0),
            fast_plant=lp.TransferFunction.flat(1.0),
            slow_plant=lp.TransferFunction.flat(0.0),
            loop_delay=1e-9,
        )
        m = lp.stability_margins(loop)
        assert m.phase_margin_deg == pytest.approx(90.0, abs=0.1)

    def test_calibrated_default_crossovers(self):
        loops = lp.default_lock_loops()
        m_fast = lp.stability_margins(loops[0])
        m_slow = lp.stability_margins(loops[1])
        assert m_fast.phase_crossover_hz == pytest.approx(4.0e6, rel=0.02)
        assert m_slow.phase_crossover_hz == pytest.approx(2.0e6, rel=0.02)
        assert m_fast.stable and m_slow.stable

    @pytest.mark.parametrize("crossover", [1.5e6, 2e6, 3e6, 4e6, 5e6, 6e6])
    def test_delay_solve_matches_dense_phase_grid(self, crossover):
        loop = lp.default_lock_loops(opa_probe_crossover_hz=crossover)[0]
        probe = lp.LoopModel(loop.controller, loop.fast_plant, loop.slow_plant, loop_delay=0.0)
        phase = lp.bode(probe, lp.log_frequency_grid(1.0, crossover, 400))[1][-1]
        assert loop.loop_delay == (180.0 + phase) / (360.0 * crossover)

    @pytest.mark.parametrize("crossover", [1e110, 1e200])
    def test_crossover_where_the_folded_rational_overflows(self, crossover):
        # a crossover this high lies outside the frequency range, and is named
        message = f"opa_probe_crossover_hz must be finite and in [1e-06, 1e+15] Hz, got {crossover}"
        with pytest.raises(DomainError, match=re.escape(message)):
            lp.default_lock_loops(opa_probe_crossover_hz=crossover)

    def test_crossover_near_the_top_of_the_range(self):
        # at 1e14 Hz the delay-free loop turns ~-90 deg, so the delay eats ~90
        crossover = 1e14
        loop = lp.default_lock_loops(opa_probe_crossover_hz=crossover)[0]
        probe = lp.LoopModel(loop.controller, loop.fast_plant, loop.slow_plant)
        phase = math.degrees(np.angle(product_response(probe, crossover)))
        assert loop.loop_delay == pytest.approx((180.0 + phase) / (360.0 * crossover), rel=1e-12)
        assert loop.loop_delay == pytest.approx(0.25 / crossover, rel=1e-6)
        m = lp.stability_margins(loop)
        assert m.phase_crossover_hz is None and m.gain_margin_db is None

    def test_refine_makes_three_response_calls(self, response_calls):
        m = lp.stability_margins(lp.default_lock_loops()[0])
        assert m.phase_crossover_hz is not None and m.gain_crossover_hz is not None
        assert len(response_calls) <= 3

    @pytest.mark.parametrize(
        "kind, param",
        [("default", xo) for xo in (1.5e6, 2e6, 3e6, 4e6, 5e6, 6e6)]
        + [("pure_delay", tau) for tau in (125e-9, 250e-9)],
    )
    def test_crossovers_match_dense_oracle(self, kind, param):
        if kind == "default":
            loop = lp.default_lock_loops(opa_probe_crossover_hz=param)[0]
        else:
            # gain 0.5 keeps |L| off 1, so only the phase crossover exists
            loop = pure_delay_loop(param, gain=0.5)
        m = lp.stability_margins(loop)
        phase_ref, gain_ref = dense_crossovers(loop)
        for got, ref in ((m.phase_crossover_hz, phase_ref), (m.gain_crossover_hz, gain_ref)):
            if ref is None:
                assert got is None
            else:
                assert got == pytest.approx(ref, rel=1e-3)

    def test_no_crossover_reports_none(self):
        loop = lp.LoopModel(
            controller=lp.PidController(kp=0.5),
            fast_plant=lp.TransferFunction.flat(1.0),
            slow_plant=lp.TransferFunction.flat(0.0),
        )
        m = lp.stability_margins(loop)
        assert m.phase_crossover_hz is None
        assert m.gain_crossover_hz is None
        assert m.stable


@pytest.fixture
def margins_calls(monkeypatch):
    """The loops whose margins are computed, in order."""
    calls = []
    compute = lp._analyse
    monkeypatch.setattr(lp, "_analyse", lambda loop: calls.append(loop) or compute(loop))
    return calls


class TestMarginsOncePerLoop:
    def test_lock_study_computes_margins_once_per_loop(self, margins_calls):
        loops = lp.default_lock_loops()
        margins = [lp.stability_margins(loop) for loop in loops]
        lp.select_shift_frequency(loops, [0.25e6, 0.5e6, 1e6, 2e6, 4e6])
        template = lp.PhaseNoiseSpectrum(kind="one_over_f2", f_min=1.0, f_max=1e6)
        spectrum = lp.calibrate_jitter_amplitude(loops[1], PhaseJitter.from_degrees(0.8), template)
        lp.residual_jitter(spectrum, loops[1])
        lp.residual_jitter(lp.PhaseNoiseSpectrum(kind="white", amplitude=1e-12), loops[1])
        assert margins_calls == loops
        assert [lp.stability_margins(loop) for loop in loops] == margins

    def test_lock_study_evaluates_the_margins_grid_once_per_loop(self, response_calls):
        loops = lp.default_lock_loops()
        margins = [lp.stability_margins(loop) for loop in loops]
        shift = lp.select_shift_frequency(loops, [0.25e6, 0.5e6, 1e6, 2e6, 4e6])
        assert shift == 1e6 and all(m.stable for m in margins)
        grid = lp.log_frequency_grid(1.0, 2e7, 200)
        assert [(loop, n) for loop, n in response_calls if n > 100] == [(loop, grid.size) for loop in loops]


class TestShiftSelection:
    def test_default_loops_select_1mhz(self):
        shift = lp.select_shift_frequency(
            lp.default_lock_loops(), [0.25e6, 0.5e6, 1e6, 2e6, 4e6]
        )
        assert shift == 1e6

    def test_empty_candidates(self):
        with pytest.raises(NoFeasibleCandidateError):
            lp.select_shift_frequency(lp.default_lock_loops(), [])

    def test_nonpositive_candidate_rejected_up_front(self):
        loops = lp.default_lock_loops()
        for cands in ([-1.0, 1e6], [0.0, 0.5e6, 1e6], [1e6, float("nan")]):
            with pytest.raises(DomainError):
                lp.select_shift_frequency(loops, cands)

    @pytest.mark.parametrize("cands", [[math.inf, 1e6], [1e6, -math.inf]])
    def test_non_finite_candidate_rejected_up_front(self, cands):
        with pytest.raises(DomainError, match=r"candidates must be finite and in \[1e-06, 1e\+15\] Hz, got -?inf"):
            lp.select_shift_frequency(lp.default_lock_loops(), cands)

    @pytest.mark.parametrize(
        "rules",
        [{"min_gain_margin_db": math.nan}, {"min_phase_margin_deg": math.inf},
         {"flat_band_db": math.nan}, {"flat_band_db": -1.0}],
        ids=["nan_gain_margin", "inf_phase_margin", "nan_flat_band", "negative_flat_band"],
    )
    def test_invalid_rule_rejected_up_front(self, rules):
        with pytest.raises(DomainError):
            lp.select_shift_frequency(lp.default_lock_loops(), [0.5e6, 1e6], **rules)

    def test_candidate_whose_beat_overflows_the_rational_is_rejected(self):
        # 1e200 Hz lies outside the frequency range; 1e15 Hz does not, but
        # its opa_probe beat does, and that beat is rejected, not evaluated
        with pytest.raises(DomainError, match=r"candidates must be finite and in \[1e-06, 1e\+15\] Hz, got 1e\+200"):
            lp.select_shift_frequency(lp.default_lock_loops(), [1e200, 1e6])
        assert lp.select_shift_frequency(lp.default_lock_loops(), [1e15, 1e6]) == 1e6

    def test_relaxing_margins_is_monotone(self):
        loops = lp.default_lock_loops()
        cands = [0.25e6, 0.5e6, 1e6, 2e6, 4e6]
        strict = lp.select_shift_frequency(loops, cands, min_phase_margin_deg=60.0)
        relaxed = lp.select_shift_frequency(loops, cands, min_phase_margin_deg=5.0)
        assert relaxed >= strict

    def test_pure_delay_margin_arithmetic(self):
        # single opa_probe loop with delay tau: the 2x-shift beat must keep
        # phase above -180 + margin, so shift < (180 - margin)/(2 * 360 tau)
        tau = 125e-9
        loop = pure_delay_loop(tau)
        margin = 10.0
        limit = (180.0 - margin) / (2 * 360.0 * tau)
        cands = [0.5e6, 1e6, 1.5e6, 1.8e6, 2.1e6]
        best = lp.select_shift_frequency(
            [loop], cands, min_gain_margin_db=0.0, min_phase_margin_deg=margin,
            flat_band_db=10.0,
        )
        assert best == max(c for c in cands if c < limit)

    @pytest.mark.parametrize(
        "crossovers, pm, flat_db",
        [
            ((1.5e6, 1.5e6), 5.0, 1.0),
            ((1.5e6, 3e6), 30.0, 3.0),
            ((3e6, 1.5e6), 60.0, 10.0),
            ((4e6, 2e6), 30.0, 3.0),
            ((4e6, 2e6), 45.0, 1.0),
            ((6e6, 3e6), 5.0, 10.0),
            ((6e6, 6e6), 20.0, 2.0),
            ((2e6, 5e6), 60.0, 5.0),
        ],
    )
    def test_matches_scalar_reference(self, crossovers, pm, flat_db):
        loops = lp.default_lock_loops(*crossovers)
        cands = list(np.geomspace(0.05e6, 12e6, 41))
        rules = {"min_phase_margin_deg": pm, "flat_band_db": flat_db}
        expected = scalar_select_shift(loops, cands, **rules)
        assert expected is not None
        assert lp.select_shift_frequency(loops, cands, **rules) == expected

    def test_matches_exact_phase_rule_on_random_studies(self):
        rng = np.random.default_rng(16)
        chosen = set()
        for _ in range(200):
            crossovers = 10 ** rng.uniform(6.0, 6.9, 2)  # 1 to 8 MHz
            loops = lp.default_lock_loops(*crossovers)
            # shifts from below 1 Hz to past 20 MHz, whose beats bracket both grid ends
            low = rng.uniform(-0.5, 6.0)
            cands = list(10 ** rng.uniform(low, min(low + 3.0, 7.5), 10))
            rules = {
                "min_gain_margin_db": rng.uniform(0.0, 12.0),
                "min_phase_margin_deg": rng.uniform(0.0, 90.0),
                "flat_band_db": rng.uniform(0.1, 10.0),
            }
            expected = scalar_select_shift(loops, cands, **rules)
            if expected is None:
                with pytest.raises(NoFeasibleCandidateError):
                    lp.select_shift_frequency(loops, cands, **rules)
            else:
                assert lp.select_shift_frequency(loops, cands, **rules) == expected
                chosen.add(math.floor(math.log10(expected)))
        # selections in every decade from sub-kHz beats up (below ~100 Hz no
        # beat is within the flat band)
        assert {2, 3, 4, 5, 6} <= chosen

    @pytest.mark.parametrize(
        "cands, kwargs",
        [
            ([0.25e6, 0.5e6, 1e6, 2e6, 4e6], {"min_gain_margin_db": 60.0}),
            ([12e6, 15e6, 30e6], {}),
            ([2.5e6, 3e6, 4e6], {}),
            ([0.25e6, 0.5e6, 1e6, 2e6, 4e6], {"flat_band_db": 0.01}),
        ],
        ids=["margins", "beyond_grid", "phase_at_beat", "flat_band"],
    )
    def test_all_infeasible_matches_scalar_reference(self, cands, kwargs):
        loops = lp.default_lock_loops()
        assert scalar_select_shift(loops, cands, **kwargs) is None
        with pytest.raises(NoFeasibleCandidateError):
            lp.select_shift_frequency(loops, cands, **kwargs)


def scalar_select_shift(loops, candidates, min_gain_margin_db=6.0, min_phase_margin_deg=30.0,
                        flat_band_db=3.0):
    """The selection rule checked one candidate and one loop at a time:
    the largest shift whose beat frequency, on every loop that keeps both
    margins, lies below 20 MHz, within flat_band_db of the gain at 10 kHz
    and at least min_phase_margin_deg above -180 deg in the loop's phase
    unwrapped from 1 Hz.  None when no candidate passes."""

    def accepts(loop, shift):
        m = lp.stability_margins(loop)
        if m.gain_margin_db is not None and m.gain_margin_db < min_gain_margin_db:
            return False
        if m.phase_margin_deg is not None and m.phase_margin_deg < min_phase_margin_deg:
            return False
        fd = lp.demod_frequency(shift, loop.kind)
        if fd > 2e7:
            return False
        ref = abs(complex(loop.response(1e4)))
        at = abs(complex(loop.response(fd)))
        if abs(20.0 * math.log10(at / ref)) > flat_band_db:
            return False
        # the exact phase at the beat: unwrapped from 1 Hz along a dense grid ending on it
        path = np.geomspace(1.0, fd, 2 + math.ceil(400 * abs(math.log10(fd))))
        phase_at = float(np.degrees(np.unwrap(np.angle(loop.response(path))))[-1])
        return phase_at + 180.0 >= min_phase_margin_deg

    for shift in sorted(candidates, reverse=True):
        if all(accepts(loop, shift) for loop in loops):
            return shift
    return None


class TestDemodFrequency:
    def test_opa_loop_doubles(self):
        assert lp.demod_frequency(1e6, "opa_probe") == 2e6
        assert lp.demod_frequency(0.5e6, "opa_probe") == 1e6

    def test_lo_loop_passes_through(self):
        assert lp.demod_frequency(1e6, "probe_lo") == 1e6

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            lp.demod_frequency(-1.0, "opa_probe")
        with pytest.raises(DomainError):
            lp.demod_frequency(1e6, "banana")

    @pytest.mark.parametrize("shift", [math.nan, math.inf])
    def test_non_finite_shift_rejected(self, shift):
        with pytest.raises(DomainError, match=rf"shift_hz must be finite and in \[1e-06, 1e\+15\] Hz, got {shift}"):
            lp.demod_frequency(shift, "opa_probe")


def dense_jitter(noise, loop, points_per_decade=100_000):
    """Reference rms phase: uniform composite Simpson in ln f at 500 times
    the library's density, with no panel edges at table knots."""
    n = 2 * math.ceil(points_per_decade * math.log10(noise.f_max / noise.f_min) / 2)
    u = np.linspace(math.log(noise.f_min), math.log(noise.f_max), n + 1)
    f = np.exp(u)
    y = noise.density(f) * f / np.abs(1.0 + loop.response(f)) ** 2
    w = np.full(n + 1, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    return math.sqrt((u[1] - u[0]) / 3.0 * float(w @ y))


def open_loop_jitter(noise):
    """Free-running rms phase (radians) with no suppression."""
    return dense_jitter(noise, ZERO_LOOP)


TABLE_KNOTS_HZ = (1.0, 1e2, 1e4, 1e6)
TABLE_DENSITIES = (1.7357e-4, 3.7895e-9, 5.2944e-12, 3.8415e-13)


class TestResidualJitter:
    def test_open_loop_equals_free_running_rms(self):
        spec = lp.PhaseNoiseSpectrum(kind="white", amplitude=1e-4, f_min=1.0, f_max=10.0)
        out = lp.residual_jitter(spec, ZERO_LOOP)
        assert out.theta == pytest.approx(math.sqrt(1e-4 * 9.0), rel=1e-6)
        assert out.theta == pytest.approx(open_loop_jitter(spec), rel=1e-6)

    def test_gain_increase_reduces_jitter(self):
        spec = lp.PhaseNoiseSpectrum(kind="one_over_f2", amplitude=1e-3, f_min=1.0, f_max=1e5)

        def integ_loop(gain):
            return lp.LoopModel(
                controller=lp.PidController(ki=2 * math.pi * 1e3 * gain),
                fast_plant=lp.TransferFunction.flat(1.0),
                slow_plant=lp.TransferFunction.flat(0.0),
                loop_delay=1e-9,
            )

        low = lp.residual_jitter(spec, integ_loop(1.0)).theta
        high = lp.residual_jitter(spec, integ_loop(10.0)).theta
        assert high < low

    def test_amplitude_calibration_hits_target(self):
        loop = lp.default_lock_loops()[0]
        target = PhaseJitter.from_degrees(0.8)
        template = lp.PhaseNoiseSpectrum(kind="one_over_f2", amplitude=1.0, f_min=1.0, f_max=1e6)
        spec = lp.calibrate_jitter_amplitude(loop, target, template)
        assert lp.residual_jitter(spec, loop).degrees == pytest.approx(0.8, rel=1e-6)

    @pytest.mark.parametrize("kind", ["white", "table"])
    def test_calibration_hits_target_for_white_and_table_templates(self, kind):
        loop = lp.default_lock_loops()[0]
        target = PhaseJitter.from_degrees(1.0)
        template = lp.PhaseNoiseSpectrum(
            kind=kind, f_min=1.0, f_max=1e6,
            frequencies_hz=TABLE_KNOTS_HZ if kind == "table" else (),
            densities=TABLE_DENSITIES if kind == "table" else (),
        )
        spec = lp.calibrate_jitter_amplitude(loop, target, template)
        assert lp.residual_jitter(spec, loop).degrees == pytest.approx(1.0, rel=1e-6)

    def test_table_amplitude_scales_density(self):
        base = lp.PhaseNoiseSpectrum(
            kind="table", f_min=1.0, f_max=1e6,
            frequencies_hz=TABLE_KNOTS_HZ, densities=TABLE_DENSITIES,
        )
        scaled = lp.PhaseNoiseSpectrum(
            kind="table", amplitude=7.0, f_min=1.0, f_max=1e6,
            frequencies_hz=TABLE_KNOTS_HZ, densities=TABLE_DENSITIES,
        )
        f = np.logspace(0, 6, 13)
        np.testing.assert_allclose(scaled.density(f), 7.0 * base.density(f), rtol=1e-12)

    def test_table_with_interior_knots_matches_dense_reference(self):
        # a steep table whose knots kink the integrand; adaptive quadrature
        # across the kinks once missed this case by 4.7e-4
        spec = lp.PhaseNoiseSpectrum(
            kind="table", f_min=1.0, f_max=1e6,
            frequencies_hz=TABLE_KNOTS_HZ, densities=TABLE_DENSITIES,
        )
        loop = lp.default_lock_loops(5.4e6)[0]
        out = lp.residual_jitter(spec, loop).theta
        assert out == pytest.approx(dense_jitter(spec, loop), rel=1e-7)

    def test_open_loop_table_band_inside_knots(self):
        # f_min and f_max fall between knots, so the band ends on kinks and
        # holds the last density constant beyond the table
        spec = lp.PhaseNoiseSpectrum(
            kind="table", f_min=3.0, f_max=2e6,
            frequencies_hz=TABLE_KNOTS_HZ, densities=TABLE_DENSITIES,
        )
        out = lp.residual_jitter(spec, ZERO_LOOP).theta
        assert out == pytest.approx(open_loop_jitter(spec), rel=1e-7)

    def test_fast_phase_loop_meets_tolerance(self):
        # integrator with a 2.3 us delay (phase margin 7.2 deg) and a white
        # band to 20 MHz: the loop phase turns ~190 deg between nodes at the
        # top of a 200/decade grid, and at 400/decade the N-vs-2N estimate
        # reads 8e-9 while the variance is 3.3e-7 off
        loop = lp.LoopModel(
            controller=lp.PidController(ki=2 * math.pi * 1e5),
            fast_plant=lp.TransferFunction.flat(1.0),
            slow_plant=lp.TransferFunction.flat(0.0),
            loop_delay=2.3e-6,
        )
        assert lp.stability_margins(loop).phase_margin_deg == pytest.approx(7.2, abs=0.05)
        spec = lp.PhaseNoiseSpectrum(kind="white", amplitude=1e-12, f_min=1.0, f_max=2e7)
        variance = lp.residual_jitter(spec, loop).theta ** 2
        assert variance == pytest.approx(dense_jitter(spec, loop, 200_000) ** 2, rel=1e-8)

    def test_nan_loop_response_is_integration_error(self, nan_loop):
        spec = lp.PhaseNoiseSpectrum(kind="white", amplitude=1e-6, f_min=1.0, f_max=1e4)
        with pytest.raises(IntegrationError):
            lp.residual_jitter(spec, nan_loop)

    def test_unstable_loop_rejected(self):
        spec = lp.PhaseNoiseSpectrum(kind="white", amplitude=1e-6, f_min=1.0, f_max=1e4)
        with pytest.raises(InstabilityError):
            lp.residual_jitter(spec, pure_delay_loop(125e-9, gain=2.0))

    @pytest.mark.parametrize(
        "freqs, dens",
        [
            ((100.0, 1.0), (1e-6, 1e-4)),
            ((1.0, 1.0, 100.0), (1e-4, 1e-5, 1e-6)),
            ((0.0, 100.0), (1e-4, 1e-6)),
            ((-1.0, 100.0), (1e-4, 1e-6)),
            ((1.0, math.inf), (1e-4, 1e-6)),
            ((math.nan, 100.0), (1e-4, 1e-6)),
            ((1.0, 100.0), (1e-4, math.nan)),
            ((1.0, 100.0), (math.inf, 1e-6)),
        ],
        ids=["descending", "repeated", "zero", "negative", "inf_knot", "nan_knot",
             "nan_density", "inf_density"],
    )
    def test_bad_table_rejected(self, freqs, dens):
        with pytest.raises(DomainError):
            lp.PhaseNoiseSpectrum(
                kind="table", f_min=1.0, f_max=100.0, frequencies_hz=freqs, densities=dens
            )

    @pytest.mark.parametrize(
        "fields",
        [{"f_max": math.inf}, {"f_min": math.inf}, {"f_min": math.nan}, {"amplitude": math.nan},
         {"amplitude": math.inf}],
        ids=["inf_f_max", "inf_f_min", "nan_f_min", "nan_amplitude", "inf_amplitude"],
    )
    def test_non_finite_band_and_amplitude_rejected(self, fields):
        with pytest.raises(DomainError):
            lp.PhaseNoiseSpectrum(kind="white", **{"amplitude": 1e-12, "f_min": 1.0, **fields})

    def test_table_spectrum_interpolates(self):
        spec = lp.PhaseNoiseSpectrum(
            kind="table",
            f_min=1.0,
            f_max=100.0,
            frequencies_hz=(1.0, 100.0),
            densities=(1e-4, 1e-6),
        )
        # log-log interpolation: exact power law between the endpoints
        assert float(spec.density(10.0)) == pytest.approx(1e-5, rel=1e-9)
