import math

import numpy as np
import pytest

from opasim import fitting as ft
from opasim import noise as nz
from opasim.detection import default_detector_model
from opasim.errors import DomainError, UnboundedOptimumError

TRUE_ETA, TRUE_ALPHA, TRUE_THETA = 0.88, 8.2, math.radians(0.8)
POWERS = np.linspace(0.1, 1.6, 8)


def synthetic_data(eta=TRUE_ETA, alpha=TRUE_ALPHA, theta=TRUE_THETA, powers=POWERS, rng=None, noise_db=0.0):
    sq, anti = ft.model_levels_db(powers, eta, alpha, theta)
    if rng is not None and noise_db > 0:
        sq = sq + rng.uniform(-noise_db, noise_db, sq.size)
        anti = anti + rng.uniform(-noise_db, noise_db, anti.size)
    return [ft.PumpSweepPoint(p, s, a) for p, s, a in zip(powers, sq, anti)]


class TestFitPumpSweep:
    def test_noiseless_round_trip(self):
        r = ft.fit_pump_sweep(synthetic_data())
        assert r.transmittance == pytest.approx(TRUE_ETA, rel=1e-6)
        assert r.shg_efficiency == pytest.approx(TRUE_ALPHA, rel=1e-6)
        assert r.jitter_rad == pytest.approx(TRUE_THETA, rel=1e-6)
        assert r.converged

    @pytest.mark.parametrize("scale", [0.5, 0.75, 1.4])
    def test_round_trip_from_offset_starts(self, scale):
        start = np.array([
            min(max(TRUE_ETA * scale, 0.5), 1.0),
            min(max(TRUE_ALPHA * scale, 1.0), 20.0),
            TRUE_THETA * scale,
        ])
        r = ft.fit_pump_sweep(synthetic_data(), initial=start)
        assert r.transmittance == pytest.approx(TRUE_ETA, rel=1e-6)
        assert r.shg_efficiency == pytest.approx(TRUE_ALPHA, rel=1e-6)
        assert r.jitter_rad == pytest.approx(TRUE_THETA, rel=1e-6)

    def test_noisy_recovery_rate(self):
        ok = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            data = synthetic_data(rng=rng, noise_db=0.1)
            r = ft.fit_pump_sweep(data)
            close = (
                abs(r.transmittance - TRUE_ETA) / TRUE_ETA < 0.05
                and abs(r.shg_efficiency - TRUE_ALPHA) / TRUE_ALPHA < 0.05
                and abs(r.jitter_rad - TRUE_THETA) / TRUE_THETA < 0.05
            )
            ok += close
        assert ok >= 95

    def test_jitter_free_data_recovers_boundary(self):
        r = ft.fit_pump_sweep(synthetic_data(theta=0.0))
        assert r.jitter_deg <= 0.05
        assert r.transmittance == pytest.approx(TRUE_ETA, rel=1e-4)
        assert r.shg_efficiency == pytest.approx(TRUE_ALPHA, rel=1e-4)

    def test_too_few_points_rejected(self):
        with pytest.raises(DomainError):
            ft.fit_pump_sweep(synthetic_data()[:2])

    def test_degenerate_powers_rejected(self):
        d = synthetic_data()
        clones = [ft.PumpSweepPoint(0.5, d[0].squeezing_db, d[0].anti_squeezing_db)] * 4
        with pytest.raises(DomainError):
            ft.fit_pump_sweep(clones)

    def test_analytic_jacobian_matches_finite_differences(self):
        powers = POWERS
        sq, anti = ft.model_levels_db(powers, TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        rng = np.random.default_rng(3)
        for _ in range(5):
            x = np.array([
                rng.uniform(0.6, 0.98),
                rng.uniform(2.0, 15.0),
                rng.uniform(math.radians(0.1), math.radians(3.0)),
            ])
            _, jac = ft._residuals_and_jacobian(x, powers, sq, anti)
            eps = 1e-7
            for k in range(3):
                h = max(abs(x[k]), 1.0) * eps
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                rp, _ = ft._residuals_and_jacobian(xp, powers, sq, anti, with_jacobian=False)
                rm, _ = ft._residuals_and_jacobian(xm, powers, sq, anti, with_jacobian=False)
                fd = (rp - rm) / (2 * h)
                assert np.allclose(jac[:, k], fd, rtol=1e-6, atol=1e-8)


class TestOptimalPumpPower:
    def test_closed_form_operating_point(self):
        op = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        assert op.pump_power_w == pytest.approx(0.5562, abs=2e-4)
        assert op.squeezing_db == pytest.approx(-8.40, abs=0.01)

    def test_zero_jitter_is_unbounded(self):
        with pytest.raises(UnboundedOptimumError):
            ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, 0.0)

    def test_transmittance_invariance(self):
        ref = ft.optimal_pump_power(0.88, TRUE_ALPHA, TRUE_THETA).pump_power_w
        for eta in (0.3, 0.6, 1.0):
            p = ft.optimal_pump_power(eta, TRUE_ALPHA, TRUE_THETA).pump_power_w
            assert p == pytest.approx(ref, rel=1e-12)

    def test_grid_oracle_agreement(self):
        grid_p = ft.grid_search_optimal_pump(TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        closed = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, TRUE_THETA).pump_power_w
        assert abs(grid_p - closed) < 1e-4

    def test_grid_oracle_wide_range(self):
        for theta_deg in (0.2, 0.8, 2.0):
            theta = math.radians(theta_deg)
            closed = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, theta).pump_power_w
            grid_p = ft.grid_search_optimal_pump(TRUE_ETA, TRUE_ALPHA, theta, p_max=5.0)
            assert abs(grid_p - closed) < 1e-6

    def test_optimum_is_global_on_grid(self):
        closed = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, TRUE_THETA).pump_power_w
        grid = np.arange(1e-4, 2.0, 1e-4)
        sq, _ = ft.model_levels_db(grid, TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        at_opt, _ = ft.model_levels_db(np.array([closed]), TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        assert np.all(sq >= at_opt[0] - 1e-12)
        # convex around the minimum: positive second difference at the argmin
        i = int(np.argmin(sq))
        assert sq[i - 1] - 2 * sq[i] + sq[i + 1] > 0

    def test_flat_optimum_near_empirical_choice(self):
        # the model curve is flat: the 0.66 W empirical choice costs < 0.1 dB
        sq_opt = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, TRUE_THETA).squeezing_db
        sq_066, _ = ft.model_levels_db(np.array([0.66]), TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        assert abs(sq_066[0] - sq_opt) < 0.1


class TestSourceSqueezing:
    def test_operating_point(self):
        measured = nz.QuadraturePair(anti=92.39, sq=0.14638)
        src = nz.source_variances(measured, 0.92)
        assert src.sq == pytest.approx(0.07215, abs=2e-5)
        assert nz.to_db(src.sq) == pytest.approx(-11.42, abs=0.01)

    def test_identity_without_loss(self):
        measured = nz.QuadraturePair(anti=92.39, sq=0.14638)
        assert nz.source_variances(measured, 1.0) == measured

    def test_round_trip_with_apply_loss(self):
        q = nz.QuadraturePair(anti=50.0, sq=0.2)
        back = nz.source_variances(nz.apply_loss(q, 0.92), 0.92)
        assert back.anti == pytest.approx(q.anti, rel=1e-12)
        assert back.sq == pytest.approx(q.sq, rel=1e-12)


class TestLossBudgetReport:
    def test_quoted_budget(self):
        budget = nz.LossBudget(
            (nz.LossElement("detection", 0.08), nz.LossElement("waveguide", 0.04))
        )
        rep = ft.loss_budget_report(budget, default_detector_model(), 11e6)
        assert rep.circuit_equiv_loss == pytest.approx(0.0031623, abs=1e-6)
        assert rep.additive_total_loss == pytest.approx(0.123, abs=5e-4)
        assert rep.multiplicative_transmittance == pytest.approx(0.8804, abs=5e-4)
        assert rep.discrepancy > 0

    def test_empty_budget_no_detector(self):
        rep = ft.loss_budget_report(nz.LossBudget(), None, 11e6)
        assert rep.multiplicative_transmittance == 1.0
        assert rep.additive_total_loss == 0.0

    def test_opaque_element(self):
        budget = nz.LossBudget((nz.LossElement("block", 1.0),))
        rep = ft.loss_budget_report(budget, None, 11e6)
        assert rep.multiplicative_transmittance == 0.0
