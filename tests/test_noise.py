import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim import detection as det
from opasim import noise as nz
from opasim.errors import DomainError, InfeasibleError

from conftest import model_levels_db

# frozen oracle values: direct high-precision evaluation of the closed forms
R_ANTI = 92.40741247968393
R_SQ = 0.1283911768592545
R_SQ_JITTERED = 0.1463802781076495  # 0.8 deg rms mixing


class TestOpaOutputVariances:
    def test_no_pump_gives_vacuum(self):
        q = nz.opa_output_variances(nz.OpaParams(8.2, 0.0, 0.88))
        assert q.anti == 1.0 and q.sq == 1.0

    def test_full_loss_gives_shot_noise(self):
        q = nz.opa_output_variances(nz.OpaParams(8.2, 0.66, 0.0))
        assert q.anti == 1.0 and q.sq == 1.0

    def test_operating_point(self):
        q = nz.opa_output_variances(nz.OpaParams(8.2, 0.66, 0.88))
        assert q.anti == pytest.approx(R_ANTI, rel=1e-12)
        assert q.sq == pytest.approx(R_SQ, rel=1e-12)
        assert nz.to_db(q.anti) == pytest.approx(19.66, abs=0.005)
        assert nz.to_db(q.sq) == pytest.approx(-8.92, abs=0.01)

    @pytest.mark.parametrize(
        "alpha,pump,eta",
        # the last: 2 sqrt(alpha P) ~ 810 > ln(float max) ~ 709.8, where exp overflows
        [(-1.0, 0.5, 0.9), (8.2, -0.1, 0.9), (8.2, 0.5, 1.2), (8.2, 0.5, -0.1), (8.2, 2e4, 0.9)],
    )
    def test_invalid_params_rejected(self, alpha, pump, eta):
        with pytest.raises(DomainError):
            nz.OpaParams(alpha, pump, eta)

    def test_gain_below_bound_stays_finite(self):
        q = nz.opa_output_variances(nz.OpaParams(8.2, 350.0**2 / 8.2, 0.9))
        assert math.isfinite(q.anti) and q.sq > 0

    def test_squeezing_monotone_in_pump_and_transmittance(self):
        pumps = np.linspace(0.01, 1.5, 40)
        sq = [nz.opa_output_variances(nz.OpaParams(8.2, p, 0.88)).sq for p in pumps]
        assert np.all(np.diff(sq) < 0)
        etas = np.linspace(0.05, 1.0, 40)
        sq = [nz.opa_output_variances(nz.OpaParams(8.2, 0.66, e)).sq for e in etas]
        assert np.all(np.diff(sq) < 0)

    def test_uncertainty_product_on_grid(self):
        alphas = np.linspace(0.5, 15, 10)
        pumps = np.linspace(0.0, 2.0, 100)
        etas = np.linspace(0.0, 1.0, 10)
        for a in alphas:
            for e in etas:
                for p in pumps:
                    q = nz.opa_output_variances(nz.OpaParams(a, p, e))
                    assert q.anti * q.sq >= 1.0 - 1e-12
                    if p == 0.0:
                        assert q.anti * q.sq == pytest.approx(1.0, rel=1e-14)


class TestJitterMix:
    def q(self):
        return nz.QuadraturePair(anti=R_ANTI, sq=R_SQ)

    def test_zero_jitter_is_identity(self):
        assert nz.jitter_mix(self.q(), nz.PhaseJitter(0.0)) == self.q()

    def test_quarter_turn_swaps_quadratures(self):
        out = nz.jitter_mix(self.q(), nz.PhaseJitter.from_degrees(90.0))
        assert out.anti == pytest.approx(R_SQ, rel=1e-12)
        assert out.sq == pytest.approx(R_ANTI, rel=1e-12)

    def test_operating_point(self):
        out = nz.jitter_mix(self.q(), nz.PhaseJitter.from_degrees(0.8))
        assert out.sq == pytest.approx(R_SQ_JITTERED, rel=1e-12)
        assert nz.to_db(out.sq) == pytest.approx(-8.35, abs=0.01)

    @given(
        anti=st.floats(1.0, 1e4),
        sq=st.floats(1e-4, 1.0),
        deg=st.floats(0.0, 90.0),
    )
    @settings(max_examples=200)
    def test_trace_preserved(self, anti, sq, deg):
        q = nz.QuadraturePair(anti=anti, sq=sq)
        out = nz.jitter_mix(q, nz.PhaseJitter.from_degrees(deg))
        assert out.anti + out.sq == pytest.approx(q.anti + q.sq, rel=1e-12)
        assert out.sq >= q.sq - 1e-15

    def test_jitter_bounds(self):
        with pytest.raises(DomainError):
            nz.PhaseJitter(-0.1)
        with pytest.raises(DomainError):
            nz.PhaseJitter(math.pi / 2 + 0.01)


class TestOneModel:
    """The dataclass chain, the fit's array model and the analyzer means are
    one forward model."""

    @given(
        eta_opa=st.floats(0.0, 1.0, exclude_min=True),
        eta_det=st.floats(0.0, 1.0, exclude_min=True),
        alpha=st.floats(1.0, 20.0),
        pump=st.floats(0.0, 2.0),
        deg=st.floats(0.0, 10.0),
    )
    @settings(max_examples=300)
    def test_scalar_chain_is_the_array_model(self, eta_opa, eta_det, alpha, pump, deg):
        theta = math.radians(deg)
        q = nz.opa_output_variances(nz.OpaParams(alpha, pump, eta_opa))
        m = nz.jitter_mix(nz.apply_loss(q, eta_det), nz.PhaseJitter(theta))
        sq_db, anti_db = model_levels_db([pump], eta_opa * eta_det, alpha, theta)
        # two losses in a row against one loss at the rounded product: the
        # vacuum terms may differ by a few ulps of 1, which is all the
        # absolute tolerance allows (sq can be as small as ~3e-6)
        assert 10.0 ** (sq_db[0] / 10.0) == pytest.approx(m.sq, rel=1e-12, abs=1e-15)
        assert 10.0 ** (anti_db[0] / 10.0) == pytest.approx(m.anti, rel=1e-12, abs=1e-15)

    def test_scanned_trace_means_are_the_mixed_pair(self, scanned_bundle, monkeypatch):
        class UnitDraws:  # every video average equal to its mean
            def __init__(self, seed):
                pass

            def gamma(self, shape, scale, size):
                return np.ones(size)

        monkeypatch.setattr(np.random, "default_rng", UnitDraws)
        s = scanned_bundle.scenario
        trace = det.simulate_zero_span(s)
        q = nz.jitter_mix(
            nz.apply_loss(nz.opa_output_variances(s.opa), s.detection_transmittance), s.jitter
        )
        sin2 = np.sin(2.0 * math.pi * s.scan_rate_hz * trace.axis) ** 2
        n_circ = float(s.detector.circuit_ratio(s.analyzer.center_frequency_hz))
        expected = q.sq * (1.0 - sin2) + q.anti * sin2 + n_circ
        means = 10.0 ** ((trace.values_dbm - s.detector.shot_noise_dbm) / 10.0)
        np.testing.assert_allclose(means, expected, rtol=1e-12)
        assert means.min() < 2.0 * q.sq and means.max() > 0.5 * q.anti  # both envelopes reached


class TestDecibels:
    def test_reference_points(self):
        assert nz.to_db(1.0) == 0.0
        assert nz.to_db(0.1) == pytest.approx(-10.0, abs=1e-12)
        assert nz.to_db(0.146381) == pytest.approx(-8.346, abs=1e-3)

    def test_nonpositive_rejected(self):
        with pytest.raises(DomainError):
            nz.to_db(0.0)
        with pytest.raises(DomainError):
            nz.to_db(-2.0)

    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=300)
    def test_round_trip(self, r):
        assert nz.from_db(nz.to_db(r)) == pytest.approx(r, rel=1e-12)


class TestLossComposition:
    def test_empty_budget(self):
        assert nz.LossBudget().transmittance == 1.0

    def test_opaque_element(self):
        b = nz.LossBudget((nz.LossElement("block", 1.0),))
        assert b.transmittance == 0.0

    def test_detection_chain(self):
        b = nz.LossBudget(
            (
                nz.LossElement("visibility", 0.03),
                nz.LossElement("path_and_tap", 0.03),
                nz.LossElement("photodiode", 0.02),
            )
        )
        assert b.transmittance == pytest.approx(0.92208, abs=1e-5)
        assert 1.0 - b.transmittance == pytest.approx(0.0779, abs=2e-4)

    @given(st.lists(st.floats(0.0, 1.0), max_size=6), st.randoms())
    @settings(max_examples=200)
    def test_permutation_invariant(self, losses, rnd):
        b1 = nz.LossBudget(tuple(nz.LossElement(str(i), x) for i, x in enumerate(losses)))
        shuffled = list(losses)
        rnd.shuffle(shuffled)
        b2 = nz.LossBudget(tuple(nz.LossElement(str(i), x) for i, x in enumerate(shuffled)))
        assert b1.transmittance == pytest.approx(b2.transmittance, rel=1e-12)


class TestApplyInvertLoss:
    def q(self):
        return nz.QuadraturePair(anti=R_ANTI, sq=R_SQ)

    def test_unity_transmittance_is_identity(self):
        assert nz.apply_loss(self.q(), 1.0) == self.q()

    def test_vacuum_is_invariant(self):
        v = nz.QuadraturePair(1.0, 1.0)
        for eta in (0.0, 0.3, 0.92, 1.0):
            assert nz.apply_loss(v, eta) == v

    @given(
        anti=st.floats(1.0, 1e4),
        sq=st.floats(1e-4, 1.0),
        a=st.floats(0.0, 1.0),
        b=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200)
    def test_composition_multiplies_transmittances(self, anti, sq, a, b):
        q = nz.QuadraturePair(anti=anti, sq=sq)
        two_step = nz.apply_loss(nz.apply_loss(q, a), b)
        one_step = nz.apply_loss(q, a * b)
        assert two_step.anti == pytest.approx(one_step.anti, rel=1e-12, abs=1e-12)
        assert two_step.sq == pytest.approx(one_step.sq, rel=1e-12, abs=1e-12)

    def test_invert_identity_at_unity(self):
        assert nz.invert_loss(0.3, 1.0) == 0.3

    def test_loss_corrected_squeezing(self):
        out = nz.invert_loss(R_SQ_JITTERED, 0.92)
        assert out == pytest.approx(0.072153, abs=1e-5)
        assert nz.to_db(out) == pytest.approx(-11.42, abs=0.01)
        assert nz.to_db(out) < -10.0

    def test_infeasible_inversion(self):
        with pytest.raises(InfeasibleError):
            nz.invert_loss(0.05, 0.92)

    @given(r=st.floats(1e-3, 1e3), eta=st.floats(0.05, 1.0))
    @settings(max_examples=200)
    def test_invert_is_left_inverse_of_apply(self, r, eta):
        q = nz.QuadraturePair(anti=r * 2, sq=r)
        lossy = nz.apply_loss(q, eta)
        assert nz.invert_loss(lossy.sq, eta) == pytest.approx(r, rel=1e-12)


class TestLossEquivalents:
    def test_visibility_extremes(self):
        assert nz.visibility_to_loss(1.0) == 0.0
        assert nz.visibility_to_loss(0.0) == 1.0

    def test_visibility_operating_point(self):
        assert nz.visibility_to_loss(0.985) == pytest.approx(0.029775, abs=1e-9)

    def test_clearance_values(self):
        assert nz.clearance_to_equiv_loss(25.0) == pytest.approx(0.0031623, abs=1e-7)
        assert nz.clearance_to_equiv_loss(10.0) == pytest.approx(0.1, rel=1e-12)

    def test_zero_clearance_flagged(self):
        with pytest.warns(UserWarning):
            assert nz.clearance_to_equiv_loss(0.0) == pytest.approx(1.0, rel=1e-12)


INF, NAN = math.inf, math.nan


class TestValidationMessages:
    """Valid scalars pass one comparison chain; every invalid one still gets
    the message that names its fault."""

    @pytest.mark.parametrize(
        "make, message",
        [
            (lambda: nz.OpaParams(NAN, 1.0, 0.5), "shg_efficiency must be finite, got nan"),
            (lambda: nz.OpaParams(1.0, INF, 0.5), "pump_power must be finite, got inf"),
            (lambda: nz.OpaParams(1.0, 1.0, -INF), "transmittance must be finite, got -inf"),
            (lambda: nz.OpaParams(-1.0, 1.0, 0.5), "shg_efficiency must be >= 0, got -1.0"),
            (lambda: nz.OpaParams(1.0, -0.5, 0.5), "pump_power must be >= 0, got -0.5"),
            (lambda: nz.OpaParams(1.0, 1.0, 1.5), "transmittance must be in [0, 1], got 1.5"),
            (lambda: nz.OpaParams(NAN, -1.0, 2.0), "shg_efficiency must be finite, got nan"),
            (lambda: nz.OpaParams(1e5, 2.0, 0.5),
             "parametric gain 2 sqrt(alpha P) must be <= 709.8, got alpha 100000.0 /W at P 2.0 W"),
            (lambda: nz.OpaParams(1e300, 1e300, 0.5),
             "parametric gain 2 sqrt(alpha P) must be <= 709.8, got alpha 1e+300 /W at P 1e+300 W"),
            (lambda: nz.QuadraturePair(NAN, 1.0), "anti must be finite, got nan"),
            (lambda: nz.QuadraturePair(1.0, INF), "sq must be finite, got inf"),
            (lambda: nz.QuadraturePair(-INF, 1.0), "anti must be finite, got -inf"),
            (lambda: nz.QuadraturePair(2.0, -0.1), "sq variance must be > 0, got -0.1"),
            (lambda: nz.QuadraturePair(0.0, 1.0), "anti variance must be > 0, got 0.0"),
            (lambda: nz.PhaseJitter(NAN), "theta must be finite, got nan"),
            (lambda: nz.PhaseJitter(INF), "theta must be finite, got inf"),
            (lambda: nz.PhaseJitter(-INF), "theta must be finite, got -inf"),
            (lambda: nz.PhaseJitter(-0.1), "theta must be in [0, pi/2] rad, got -0.1"),
            (lambda: nz.PhaseJitter(2.0), "theta must be in [0, pi/2] rad, got 2.0"),
            (lambda: nz.to_db(NAN), "power ratio must be > 0 and finite, got nan"),
            (lambda: nz.to_db(INF), "power ratio must be > 0 and finite, got inf"),
            (lambda: nz.to_db(-INF), "power ratio must be > 0 and finite, got -inf"),
            (lambda: nz.to_db(-1.0), "power ratio must be > 0 and finite, got -1.0"),
            (lambda: nz.to_db(0.0), "power ratio must be > 0 and finite, got 0.0"),
        ],
    )
    def test_invalid_value_message(self, make, message):
        with pytest.raises(DomainError) as err:
            make()
        assert str(err.value) == message

    def test_boundary_values_accepted(self):
        nz.OpaParams(0.0, 0.0, 0.0)
        nz.OpaParams(1.0, (nz._MAX_GAIN / 2.0) ** 2, 1.0)
        nz.QuadraturePair(5e-324, 1.7e308)
        nz.PhaseJitter(0.0)
        nz.PhaseJitter(math.pi / 2)
        assert nz.to_db(5e-324) == pytest.approx(-3233.0, abs=0.1)
