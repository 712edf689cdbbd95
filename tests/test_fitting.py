import math
import tracemalloc

import numpy as np
import pytest

from opasim import fitting as ft
from opasim import noise as nz
from opasim.detection import MAX_POINTS, DetectorModel
from opasim.errors import DomainError, UnboundedOptimumError

TRUE_ETA, TRUE_ALPHA, TRUE_THETA = 0.88, 8.2, math.radians(0.8)
POWERS = np.linspace(0.1, 1.6, 8)


def synthetic_data(eta=TRUE_ETA, alpha=TRUE_ALPHA, theta=TRUE_THETA, powers=POWERS, rng=None, noise_db=0.0):
    sq, anti = ft.model_levels_db(powers, eta, alpha, theta)
    if rng is not None and noise_db > 0:
        sq = sq + rng.uniform(-noise_db, noise_db, sq.size)
        anti = anti + rng.uniform(-noise_db, noise_db, anti.size)
    return [ft.PumpSweepPoint(p, s, a) for p, s, a in zip(powers, sq, anti)]


def reference_grid_search(eta, alpha, theta, p_max):
    """grid_search_optimal_pump as one np.argmin over each whole grid."""
    s = nz.sin2(theta)
    grid = np.arange(1e-4, p_max + 0.5e-4, 1e-4)
    i = int(np.argmin(ft._mixed_pair(grid, eta, alpha, s)[0]))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 4001)
    return float(fine[np.argmin(ft._mixed_pair(fine, eta, alpha, s)[0])])


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

    @pytest.mark.parametrize(
        "pump_w, alpha_max", [(1e5, 20.0), (1e3, 200.0), (math.inf, 20.0)],
        ids=["huge_pump", "wide_alpha_bound", "inf_pump"],
    )
    def test_overflowing_gain_rejected_before_fitting(self, pump_w, alpha_max):
        data = synthetic_data()[:2] + [ft.PumpSweepPoint(pump_w, -5.0, 12.0)]
        with pytest.raises(DomainError, match="parametric gain"):
            ft.fit_pump_sweep(data, bounds=ft.FitBounds(alpha_max=alpha_max))

    @pytest.mark.parametrize("alpha_min, alpha_max", [(1.0, 20.0), (1e-3, 20.0), (1e-3, 1e-2)])
    def test_normal_matrix_finite_up_to_the_gain_limit(self, alpha_min, alpha_max):
        p = 1.0
        for _ in range(60):  # the largest pump power the gain check admits
            limit = ft._MAX_FIT_GAIN - max(0.0, math.log(p / alpha_min)) / 4.0
            p = (limit / 2.0) ** 2 / alpha_max
        bounds = ft.FitBounds(alpha_min=alpha_min, alpha_max=alpha_max)
        over = synthetic_data()[:2] + [ft.PumpSweepPoint(p * (1 + 1e-9), -5.0, 12.0)]
        with pytest.raises(DomainError, match="parametric gain"):
            ft.fit_pump_sweep(over, bounds=bounds)
        # MAX_POINTS rows at p, at the iterates where the entries peak (eta = 1, s = 0)
        for alpha in (alpha_min, alpha_max):
            jac = ft._jacobian(np.array([1.0, alpha, 0.0]), np.array([p * (1 - 1e-12)]))
            assert np.isfinite(MAX_POINTS * (jac.T @ jac)).all()

    def test_degenerate_powers_rejected(self):
        d = synthetic_data()
        clones = [ft.PumpSweepPoint(0.5, d[0].squeezing_db, d[0].anti_squeezing_db)] * 4
        with pytest.raises(DomainError):
            ft.fit_pump_sweep(clones)

    def test_analytic_jacobian_matches_finite_differences(self):
        # x = (eta, alpha, s = sin^2 theta); the last sample sits on s = 0
        powers = POWERS
        sq, anti = ft.model_levels_db(powers, TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        rng = np.random.default_rng(3)
        samples = [
            np.array([
                rng.uniform(0.6, 0.98),
                rng.uniform(2.0, 15.0),
                math.sin(rng.uniform(math.radians(0.1), math.radians(3.0))) ** 2,
            ])
            for _ in range(5)
        ]
        samples.append(np.array([0.8, 6.0, 0.0]))
        for x in samples:
            jac = ft._jacobian(x, powers)
            eps = 1e-7
            for k in range(3):
                h = max(abs(x[k]), 1.0) * eps
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                rp = ft._residuals(xp, powers, sq, anti)
                rm = ft._residuals(xm, powers, sq, anti)
                fd = (rp - rm) / (2 * h)
                assert np.allclose(jac[:, k], fd, rtol=1e-6, atol=1e-8)
        # at theta = 0 the s column still pulls: no stationary point there
        assert np.all(np.abs(jac[:, 2]) > 1.0)

    def test_covariance_is_scaled_inverse_normal_matrix_in_theta(self):
        r = ft.fit_pump_sweep(synthetic_data(rng=np.random.default_rng(7), noise_db=0.05))
        x = np.array([r.transmittance, r.shg_efficiency, r.jitter_rad])
        bounds = ft.FitBounds()
        assert np.all(x > bounds.lower) and np.all(x < bounds.upper)
        jac = np.empty((2 * POWERS.size, 3))
        for k in range(3):
            h = x[k] * 1e-6
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            jac[:, k] = (
                np.concatenate(ft.model_levels_db(POWERS, *xp))
                - np.concatenate(ft.model_levels_db(POWERS, *xm))
            ) / (2 * h)
        sigma2 = r.residual / (2 * POWERS.size - 3)
        np.testing.assert_allclose(r.covariance, sigma2 * np.linalg.inv(jac.T @ jac), rtol=1e-4)

    def test_covariance_theta_row_is_inf_at_zero_jitter(self):
        r = ft.fit_pump_sweep(beyond_zero_jitter_data())
        assert r.converged and r.jitter_rad == 0.0
        assert np.all(np.isinf(r.covariance[2, :])) and np.all(np.isinf(r.covariance[:, 2]))
        assert np.all(np.isfinite(r.covariance[:2, :2]))

    def test_start_on_kkt_corner_stops_without_a_step(self):
        # with eta and alpha capped below the data's values, the optimum is the
        # corner (eta_max, alpha_max, theta = 0), where every gradient points out
        bounds = ft.FitBounds(eta_max=0.8, alpha_max=5.0)
        corner = np.array([0.8, 5.0, 0.0])
        r = ft.fit_pump_sweep(beyond_zero_jitter_data(), initial=corner, bounds=bounds)
        assert r.converged and r.iterations == 0
        assert (r.transmittance, r.shg_efficiency, r.jitter_rad) == (0.8, 5.0, 0.0)


def beyond_zero_jitter_data():
    """Levels continued to s = sin^2 theta = -1e-5, outside the box: the best
    fit in the box has theta = 0."""
    mm, mp = ft._mixed_pair(POWERS, TRUE_ETA, TRUE_ALPHA, -1e-5)
    sq, anti = 10.0 * np.log10(mm), 10.0 * np.log10(mp)
    return [ft.PumpSweepPoint(p, s, a) for p, s, a in zip(POWERS, sq, anti)]


def sweep_cost(rows, eta, alpha, theta):
    rows = np.asarray(rows)
    sq, anti = ft.model_levels_db(rows[:, 0], eta, alpha, theta)
    return float(np.sum((sq - rows[:, 1]) ** 2) + np.sum((anti - rows[:, 2]) ** 2))


# Noisy six-row sweeps and their generating (eta, alpha, theta): the benchmark's
# design fit inputs at seed 33, index 250 and seed 13, index 148
# (``perfbench/inputs.fit_params`` over ``latin_hypercube(deck_rng(seed, "design", 0), 324, 6)``).
STALL_AT_ZERO_JITTER = (
    (0.9453875182768291, 2.307048083511378, 0.03914496136816946),
    [
        (0.05897110672154664, -3.0636222015506336, 3.1183673865186945),
        (0.16887825627495662, -5.005074996955731, 5.238988888956725),
        (0.2126082326044487, -5.397631149462867, 5.820488453363487),
        (0.2577065353257639, -5.755928828906546, 6.572802144816798),
        (0.3244695040090514, -6.115457704697588, 7.240893105015342),
        (0.40431679814948496, -6.953975277555436, 8.059603315209175),
    ],
)
STALL_AT_JITTER_BOUND = (
    (0.6968693287204988, 2.1453626924803006, 0.03918369393270214),
    [
        (0.04008224016272066, -1.6189644015367306, 1.9948350803496788),
        (0.24274351484014114, -3.3895403555900807, 5.01124177687319),
        (0.27176940002383904, -3.1890282045971015, 5.473860741293976),
        (0.30560673016549733, -3.6312458305892843, 5.868844352544564),
        (0.35257854672384176, -3.705919043909226, 6.240471979739685),
        (0.3913162715107319, -3.6246998344110013, 6.833165464898468),
    ],
)


class TestFitRegressions:
    @pytest.mark.parametrize(
        "case", [STALL_AT_ZERO_JITTER, STALL_AT_JITTER_BOUND], ids=["zero_jitter", "jitter_bound"]
    )
    def test_fit_reaches_generating_cost(self, case):
        truth, rows = case
        r = ft.fit_pump_sweep([ft.PumpSweepPoint(*row) for row in rows])
        assert r.converged
        fitted = sweep_cost(rows, r.transmittance, r.shg_efficiency, r.jitter_rad)
        assert fitted <= sweep_cost(rows, *truth) * (1.0 + 1e-9)


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

    def test_grid_oracle_matches_unblocked_reference(self):
        rng = np.random.default_rng(20261019)
        cases = [(rng.uniform(0.3, 1.0), rng.uniform(2.0, 20.0),
                  math.radians(rng.uniform(0.05, 5.0)), rng.uniform(0.05, 6.0)) for _ in range(200)]
        theta = math.radians(1.0)
        edge_alpha = math.log(1.0 / math.tan(theta)) ** 2 / (4.0 * ft._GRID_BLOCK * 1e-4)
        cases += [
            (0.9, edge_alpha, theta, 2.0),  # minimum on the edge of the first block
            (0.9, edge_alpha * (1 - 1e-4), theta, 2.0),
            (0.9, 200.0, math.radians(40.0), 3.0),  # minimum at the first grid point
            (0.9, 2.0, math.radians(0.05), 2.0),  # minimum at the last grid point
            (0.0, 8.0, theta, 2.0),  # a flat level: every point ties
            (0.9, 8.0, theta, 2 * ft._GRID_BLOCK * 1e-4),  # whole blocks only
            # no loss term: exp overflows to NaN levels from 1 W, in the second block
            (0.0, 354.9**2, theta, 2.0),
        ]
        with np.errstate(over="ignore", invalid="ignore"):
            coarse = {int(np.argmin(ft._mixed_pair(np.arange(1e-4, p_max + 0.5e-4, 1e-4), eta, alpha,
                                                   nz.sin2(th))[0])) for eta, alpha, th, p_max in cases[200:]}
            assert {0, ft._GRID_BLOCK - 1, ft._GRID_BLOCK, 19_999, 9_999} <= coarse
            for eta, alpha, th, p_max in cases:
                got = ft.grid_search_optimal_pump(eta, alpha, th, p_max=p_max)
                assert got == reference_grid_search(eta, alpha, th, p_max), (eta, alpha, th, p_max)

    def test_grid_oracle_memory(self):
        ft.grid_search_optimal_pump(TRUE_ETA, TRUE_ALPHA, TRUE_THETA, p_max=5.0)
        tracemalloc.start()
        try:
            ft.grid_search_optimal_pump(TRUE_ETA, TRUE_ALPHA, TRUE_THETA, p_max=5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the 50 000-point grid (391 KiB) and one block of temporaries at a time
        assert peak < 2**20, f"peak {peak / 2**10:.0f} KiB"

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
        rep = ft.loss_budget_report(budget, DetectorModel(), 11e6)
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
