import math
import tracemalloc

import numpy as np
import pytest

from opasim import fitting as ft
from opasim import noise as nz
from opasim.detection import MAX_POINTS, DetectorModel
from opasim.errors import DomainError, UnboundedOptimumError

from conftest import model_levels_db

TRUE_ETA, TRUE_ALPHA, TRUE_THETA = 0.88, 8.2, math.radians(0.8)
POWERS = np.linspace(0.1, 1.6, 8)


def synthetic_data(eta=TRUE_ETA, alpha=TRUE_ALPHA, theta=TRUE_THETA, powers=POWERS, rng=None, noise_db=0.0):
    sq, anti = model_levels_db(powers, eta, alpha, theta)
    if rng is not None and noise_db > 0:
        sq = sq + rng.uniform(-noise_db, noise_db, sq.size)
        anti = anti + rng.uniform(-noise_db, noise_db, anti.size)
    return [ft.PumpSweepPoint(p, s, a) for p, s, a in zip(powers, sq, anti)]


def stacked(powers, sq, anti):
    """(root_p, data) stacked as fit_pump_sweep stacks them for _stacked_levels."""
    root = np.sqrt(powers)
    return np.concatenate((-root, root[::-1])), np.concatenate((sq, anti[::-1]))


def residuals_and_jacobian(x, powers, sq, anti):
    root_p, data = stacked(powers, sq, anti)
    res, levels = ft._stacked_levels(x, root_p, data)
    return res, ft._jacobian(x, root_p, *levels)


def reference_grid_search(eta, alpha, theta, p_max):
    """grid_search_optimal_pump as one np.argmin over each whole grid."""
    s = nz.sin2(theta)
    grid = np.arange(1e-4, p_max + 0.5e-4, 1e-4)
    i = int(np.argmin(ft._mixed_pair(grid, eta, alpha, s)[0]))
    fine = np.linspace(grid[max(i - 1, 0)], grid[min(i + 1, grid.size - 1)], 4001)
    return float(fine[np.argmin(ft._mixed_pair(fine, eta, alpha, s)[0])])


class TestPumpSweepPoint:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
    @pytest.mark.parametrize("field", ["pump_power_w", "squeezing_db", "anti_squeezing_db"])
    def test_non_finite_value_rejected(self, field, value):
        row = [0.3, -5.0, 12.0]
        row[["pump_power_w", "squeezing_db", "anti_squeezing_db"].index(field)] = value
        with pytest.raises(DomainError, match=f"^{field} must be finite"):
            ft.PumpSweepPoint(*row)

    def test_negative_pump_power_rejected(self):
        with pytest.raises(DomainError, match="pump_power_w must be >= 0, got -0.1"):
            ft.PumpSweepPoint(-0.1, -5.0, 12.0)


class TestFitBounds:
    def test_infinite_alpha_max_rejected(self):
        with pytest.raises(DomainError, match="alpha_max must be finite, got inf"):
            ft.FitBounds(alpha_max=math.inf)


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

    @pytest.mark.parametrize("entry", range(3))
    def test_nan_start_rejected(self, entry):
        # min(max(nan, lo), hi) is nan, so clipping does not move a NaN start into the box
        start = [0.9, 8.0, 0.01]
        start[entry] = math.nan
        with pytest.raises(DomainError, match=f"initial {['eta', 'alpha', 'theta'][entry]} must be finite, got nan"):
            ft.fit_pump_sweep(synthetic_data(), initial=start)

    @pytest.mark.parametrize("theta", [math.inf, -math.inf])
    def test_infinite_theta_start_rejected(self, theta):
        with pytest.raises(DomainError, match=f"initial theta must be finite, got {theta}"):
            ft.fit_pump_sweep(synthetic_data(), initial=[0.9, 8.0, theta])

    @pytest.mark.parametrize("eta, alpha", [(0.9, math.inf), (-math.inf, math.inf), (math.inf, -math.inf)])
    def test_infinite_start_is_clipped_into_the_bounds(self, eta, alpha):
        r = ft.fit_pump_sweep(synthetic_data(), initial=[eta, alpha, 0.01])
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
        # an infinite pump power is rejected when its point is built
        with pytest.raises(DomainError, match="parametric gain" if math.isfinite(pump_w)
                           else "pump_power_w must be finite"):
            data = synthetic_data()[:2] + [ft.PumpSweepPoint(pump_w, -5.0, 12.0)]
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
            _, jac = residuals_and_jacobian(
                np.array([1.0, alpha, 0.0]), np.array([p * (1 - 1e-12)]), np.zeros(1), np.zeros(1)
            )
            assert np.isfinite(MAX_POINTS * (jac.T @ jac)).all()

    @pytest.mark.parametrize("level", [1e300, -1e300, math.nan, math.inf, 752.0, -752.0])
    @pytest.mark.parametrize("branch", [1, 2])
    def test_level_beyond_the_model_reach_rejected(self, level, branch):
        row = [0.3, -5.0, 12.0]
        row[branch] = level
        # a non-finite level is rejected when its point is built
        with pytest.raises(DomainError, match="dB levels" if math.isfinite(level) else "_db must be finite"):
            ft.fit_pump_sweep(synthetic_data()[:2] + [ft.PumpSweepPoint(*row)])

    def test_level_bound_is_the_model_reach(self):
        # both branches reach +-_MAX_LEVEL_DB at the largest gain, and the bound admits them
        g = ft._MAX_FIT_GAIN
        sq, anti = model_levels_db(np.array([(g / 2.0) ** 2]), 1.0, 1.0, 0.0)
        assert -sq[0] == pytest.approx(ft._MAX_LEVEL_DB, rel=1e-12)
        assert anti[0] == pytest.approx(ft._MAX_LEVEL_DB, rel=1e-12)

    def test_degenerate_powers_rejected(self):
        d = synthetic_data()
        clones = [ft.PumpSweepPoint(0.5, d[0].squeezing_db, d[0].anti_squeezing_db)] * 4
        with pytest.raises(DomainError):
            ft.fit_pump_sweep(clones)

    def test_analytic_jacobian_matches_finite_differences(self):
        # x = (eta, alpha, s = sin^2 theta); the last sample sits on s = 0
        powers = POWERS
        sq, anti = model_levels_db(powers, TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
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
            _, jac = residuals_and_jacobian(x, powers, sq, anti)
            eps = 1e-7
            for k in range(3):
                h = max(abs(x[k]), 1.0) * eps
                xp, xm = x.copy(), x.copy()
                xp[k] += h
                xm[k] -= h
                rp, _ = residuals_and_jacobian(xp, powers, sq, anti)
                rm, _ = residuals_and_jacobian(xm, powers, sq, anti)
                fd = (rp - rm) / (2 * h)
                assert np.allclose(jac[:, k], fd, rtol=1e-6, atol=1e-8)
        # at theta = 0 the s column still pulls: no stationary point there
        assert np.all(np.abs(jac[:, 2]) > 1.0)

    def test_jacobian_built_only_at_accepted_points(self, monkeypatch):
        calls = {"levels": 0, "jacobian": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ft, "_stacked_levels", counted("levels", ft._stacked_levels))
        monkeypatch.setattr(ft, "_jacobian", counted("jacobian", ft._jacobian))
        evaluations = builds = 0
        for seed in range(40):
            calls.update(levels=0, jacobian=0)
            r = ft.fit_pump_sweep(synthetic_data(rng=np.random.default_rng(seed), noise_db=0.1))
            # one at the start and one per accepted step, none at a rejected trial point
            assert calls["jacobian"] == r.iterations + 1, seed
            evaluations += calls["levels"]
            builds += calls["jacobian"]
        assert evaluations > builds  # some trial points were rejected

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_cholesky_solve_matches_numpy(self, n):
        rng = np.random.default_rng(n)
        for _ in range(200):
            m = rng.normal(size=(n, n))
            scale = np.diag(10.0 ** rng.uniform(-3.0, 3.0, n))  # as badly scaled as (eta, alpha, s)
            a = scale @ (m @ m.T + n * np.eye(n)) @ scale
            b = rng.normal(size=n)
            got = np.array(ft._cholesky_solve(a.tolist(), b.tolist()))
            want = np.linalg.solve(a, b)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("a", [
        [[0.0]], [[-1.0]], [[math.nan]],
        [[1.0, 1.0], [1.0, 1.0]],
        [[4.0, 2.0, 1.0], [2.0, 1.0, 3.0], [1.0, 3.0, 5.0]],
    ], ids=["zero", "negative", "nan", "zero_second_pivot", "zero_second_of_three"])
    def test_cholesky_solve_refuses_a_pivot_that_is_not_positive(self, a):
        assert ft._cholesky_solve(a, [1.0] * len(a)) is None

    def test_reported_sigma_covers_the_error(self):
        # 400 refits of 20-point sweeps with 0.1 dB Gaussian noise at the
        # pump_sweep.csv truth.  For a calibrated 1 sigma, |error| < 1 sigma
        # in 68.3 % of fits; its binomial spread over 400 fits is
        # sqrt(0.683 * 0.317 / 400) = 0.023, and the band is 4 of those
        # either side, so a calibrated sigma leaves it for one parameter or
        # the other about once in 8 000 seeds.  4 000 refits measured 0.68
        # for both.
        powers = np.linspace(0.1, 1.6, 20)
        sq, anti = model_levels_db(powers, TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        rng = np.random.default_rng(2026)
        n, covered = 400, np.zeros(2)
        for _ in range(n):
            rows = zip(powers, sq + rng.normal(0.0, 0.1, 20), anti + rng.normal(0.0, 0.1, 20))
            r = ft.fit_pump_sweep([ft.PumpSweepPoint(*row) for row in rows])
            err = np.abs([r.transmittance - TRUE_ETA, r.shg_efficiency - TRUE_ALPHA])
            covered += err < np.sqrt(np.diag(r.covariance)[:2])
        p = 0.6827
        half = 4.0 * math.sqrt(p * (1.0 - p) / n)
        assert np.all(np.abs(covered / n - p) <= half), covered / n

    def test_covariance_is_scaled_inverse_normal_matrix_in_theta(self):
        r = ft.fit_pump_sweep(synthetic_data(rng=np.random.default_rng(7), noise_db=0.05))
        x = np.array([r.transmittance, r.shg_efficiency, r.jitter_rad])
        b = ft.FitBounds()
        assert np.all(x > [b.eta_min, b.alpha_min, 0.0])
        assert np.all(x < [b.eta_max, b.alpha_max, b.jitter_max_rad])
        jac = np.empty((2 * POWERS.size, 3))
        for k in range(3):
            h = x[k] * 1e-6
            xp, xm = x.copy(), x.copy()
            xp[k] += h
            xm[k] -= h
            jac[:, k] = (
                np.concatenate(model_levels_db(POWERS, *xp))
                - np.concatenate(model_levels_db(POWERS, *xm))
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
    sq, anti = model_levels_db(rows[:, 0], eta, alpha, theta)
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

    def test_subnormal_jitter_is_unbounded(self):
        # cot(5e-324) overflows, so P* would be inf
        with pytest.raises(UnboundedOptimumError, match="5e-324 rad is too small"):
            ft.optimal_pump_power(0.88, 8.2, 5e-324)

    def test_transmittance_invariance(self):
        ref = ft.optimal_pump_power(0.88, TRUE_ALPHA, TRUE_THETA).pump_power_w
        for eta in (0.3, 0.6, 1.0):
            p = ft.optimal_pump_power(eta, TRUE_ALPHA, TRUE_THETA).pump_power_w
            assert p == pytest.approx(ref, rel=1e-12)

    def test_grid_oracle_agreement(self):
        grid_p = ft.grid_search_optimal_pump(TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        closed = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, TRUE_THETA).pump_power_w
        assert abs(grid_p - closed) < 1e-4

    @pytest.mark.parametrize(
        "args",
        [(TRUE_ETA, TRUE_ALPHA, TRUE_THETA, math.nan), (TRUE_ETA, TRUE_ALPHA, TRUE_THETA, -1.0),
         (TRUE_ETA, TRUE_ALPHA, TRUE_THETA, 5e-5), (TRUE_ETA, math.nan, TRUE_THETA, 2.0),
         (TRUE_ETA, TRUE_ALPHA, math.nan, 2.0), (math.nan, TRUE_ALPHA, TRUE_THETA, 2.0)],
        ids=["nan_p_max", "negative_p_max", "p_max_below_first_point", "nan_alpha", "nan_theta",
             "nan_eta"],
    )
    def test_grid_oracle_outside_its_domain(self, args):
        with pytest.raises(DomainError):
            ft.grid_search_optimal_pump(*args)

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
        # alpha putting P* on grid point i, at (i + 1) * 1e-4 W
        edge_alpha = [math.log(1.0 / math.tan(theta)) ** 2 / (4.0 * (i + 1) * 1e-4)
                      for i in (ft._GRID_BLOCK - 1, ft._GRID_BLOCK)]
        cases += [
            (0.9, edge_alpha[0], theta, 2.0),  # minimum on the last point of the first block
            (0.9, edge_alpha[1], theta, 2.0),  # and on the first point of the second
            (0.9, 200.0, math.radians(40.0), 3.0),  # minimum at the first grid point
            (0.9, 2.0, math.radians(0.05), 2.0),  # minimum at the last grid point
            (0.0, 8.0, theta, 2.0),  # a flat level: every point ties
            (0.9, 8.0, theta, 2 * ft._GRID_BLOCK * 1e-4),  # whole blocks only
        ]
        coarse = {int(np.argmin(ft._mixed_pair(np.arange(1e-4, p_max + 0.5e-4, 1e-4), eta, alpha,
                                               nz.sin2(th))[0])) for eta, alpha, th, p_max in cases[200:]}
        assert {0, ft._GRID_BLOCK - 1, ft._GRID_BLOCK, 19_999} <= coarse
        for eta, alpha, th, p_max in cases:
            got = ft.grid_search_optimal_pump(eta, alpha, th, p_max=p_max)
            assert got == reference_grid_search(eta, alpha, th, p_max), (eta, alpha, th, p_max)

    @pytest.mark.parametrize("eta, alpha, theta_deg", [(0.9, 7e4, 0.1), (0.0, 354.9**2, 1.0)])
    def test_grid_oracle_stops_below_the_gain_limit(self, eta, alpha, theta_deg):
        # 2 sqrt(alpha P) passes log(float max) below p_max = 2 W; no overflow
        # warning either, as pytest turns warnings into errors
        assert 2.0 * math.sqrt(alpha * 2.0) > nz._MAX_GAIN
        theta = math.radians(theta_deg)
        got = ft.grid_search_optimal_pump(eta, alpha, theta)
        assert 2.0 * math.sqrt(alpha * got) < nz._MAX_GAIN
        if eta > 0:
            assert got == pytest.approx(ft.optimal_pump_power(eta, alpha, theta).pump_power_w, abs=1e-6)

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
        sq, _ = model_levels_db(grid, TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        at_opt, _ = model_levels_db(np.array([closed]), TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        assert np.all(sq >= at_opt[0] - 1e-12)
        # convex around the minimum: positive second difference at the argmin
        i = int(np.argmin(sq))
        assert sq[i - 1] - 2 * sq[i] + sq[i + 1] > 0

    def test_flat_optimum_near_empirical_choice(self):
        # the model curve is flat: the 0.66 W empirical choice costs < 0.1 dB
        sq_opt = ft.optimal_pump_power(TRUE_ETA, TRUE_ALPHA, TRUE_THETA).squeezing_db
        sq_066, _ = model_levels_db(np.array([0.66]), TRUE_ETA, TRUE_ALPHA, TRUE_THETA)
        assert abs(sq_066[0] - sq_opt) < 0.1


class TestSourceSqueezing:
    def test_operating_point(self):
        src_sq = nz.invert_loss(0.14638, 0.92)
        assert src_sq == pytest.approx(0.07215, abs=2e-5)
        assert nz.to_db(src_sq) == pytest.approx(-11.42, abs=0.01)

    def test_identity_without_loss(self):
        assert nz.invert_loss(92.39, 1.0) == 92.39
        assert nz.invert_loss(0.14638, 1.0) == 0.14638

    def test_round_trip_with_apply_loss(self):
        q = nz.QuadraturePair(anti=50.0, sq=0.2)
        measured = nz.apply_loss(q, 0.92)
        assert nz.invert_loss(measured.anti, 0.92) == pytest.approx(q.anti, rel=1e-12)
        assert nz.invert_loss(measured.sq, 0.92) == pytest.approx(q.sq, rel=1e-12)


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
