import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from opasim import detection as det
from opasim import noise as nz
from opasim.errors import DomainError


def with_analyzer(scenario, **kwargs):
    return dataclasses.replace(
        scenario, analyzer=dataclasses.replace(scenario.analyzer, **kwargs)
    )


class TestAnalyzerSettings:
    @pytest.mark.parametrize("value", [math.inf, math.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize(
        "field", ["center_frequency_hz", "span_hz", "rbw_hz", "vbw_hz", "sweep_time_s"]
    )
    def test_non_finite_field_rejected(self, locked_bundle, field, value):
        with pytest.raises(DomainError, match=field):
            dataclasses.replace(locked_bundle.scenario.analyzer, **{field: value})

    def test_overflowing_video_averages_rejected(self, locked_bundle):
        # rbw/vbw would overflow, but rbw is outside the frequency range
        with pytest.raises(DomainError, match=r"rbw_hz must be finite and in \[1e-06, 1e\+15\] Hz, got 1e\+300"):
            dataclasses.replace(locked_bundle.scenario.analyzer, rbw_hz=1e300, vbw_hz=1e-300)

    def test_negative_seed_rejected(self, locked_bundle):
        with pytest.raises(DomainError, match="seed must be >= 0"):
            dataclasses.replace(locked_bundle.scenario.analyzer, seed=-1)

    @pytest.mark.parametrize("seed", [1.5, 2.0, "3"])
    def test_non_integer_seed_rejected(self, locked_bundle, seed):
        # numpy's SeedSequence takes integers only
        with pytest.raises(DomainError, match=f"seed must be >= 0 and an integer, got {seed}"):
            dataclasses.replace(locked_bundle.scenario.analyzer, seed=seed)

    def test_numpy_integer_seed_accepted(self, locked_bundle):
        analyzer = dataclasses.replace(locked_bundle.scenario.analyzer, seed=np.int64(7))
        trace = det.simulate_zero_span(dataclasses.replace(locked_bundle.scenario, analyzer=analyzer))
        assert trace.seed == 7

    def test_points_capped(self, locked_bundle):
        at_cap = dataclasses.replace(locked_bundle.scenario.analyzer, points=det.MAX_POINTS)
        assert at_cap.points == 1_000_000
        with pytest.raises(DomainError, match="points"):
            dataclasses.replace(at_cap, points=det.MAX_POINTS + 1)


class TestDetectorModel:
    def test_clearance_calibration(self):
        d = det.DetectorModel()
        assert float(d.clearance_db(11e6)) == pytest.approx(25.0, abs=1e-9)
        # 11 MHz is the clearance maximum on the sweep grid
        f = np.linspace(2e6, 50e6, 97)
        c = np.asarray(d.clearance_db(f))
        assert f[int(np.argmax(c))] == pytest.approx(11e6)

    def test_circuit_must_clear_shot(self):
        with pytest.raises(DomainError):
            det.DetectorModel(peak_clearance_db=-3.0)

    def test_levels_follow_the_closed_form(self):
        d = det.DetectorModel(-70.0, 17.3, 9e6, 25e6, 30.0, -7.1)
        f_lo = 9e6**2 / 25e6

        def shape(f):
            return 1.0 + (f / 25e6) ** 3.0 + (f_lo / f) ** 3.0

        f = np.geomspace(1e5, 1e9, 41)
        want = 17.3 - 10.0 * np.log10(shape(f) / shape(9e6))
        assert np.allclose(d.clearance_db(f), want, rtol=0.0, atol=1e-9)
        assert np.allclose(d.circuit_ratio(f), 10.0 ** (-want / 10.0), rtol=1e-12, atol=0.0)
        floor = -70.0 - 17.3 - 10.0 * math.log10(shape(9e6))
        assert d.analyzer_floor_dbm == pytest.approx(floor - 7.1, abs=1e-9)

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(det.DetectorModel)])
    def test_non_finite_field_rejected(self, field, value):
        with pytest.raises(DomainError, match=field):
            det.DetectorModel(**{field: value})

    @pytest.mark.parametrize("f_peak", [0.0, -11e6], ids=["zero", "negative"])
    def test_peak_frequency_must_be_positive(self, f_peak):
        with pytest.raises(DomainError, match="peak_frequency_hz"):
            det.DetectorModel(peak_frequency_hz=f_peak)

    @pytest.mark.parametrize(
        "fields, message",
        [({"peak_frequency_hz": 1e300},
          r"peak_frequency_hz must be finite and in \[1e-06, 1e\+15\] Hz, got 1e\+300"),
         ({"peak_frequency_hz": 100e6, "slope_db_per_decade": 1e5}, "circuit-noise floor")],
        ids=["squared_peak", "steep_slope"],
    )
    def test_overflowing_circuit_floor_rejected(self, fields, message):
        # a squared peak that would overflow lies outside the frequency range;
        # no RuntimeWarning either: pytest turns warnings into errors
        with pytest.raises(DomainError, match=message):
            det.DetectorModel(**fields)


class TestScenario:
    @pytest.mark.parametrize("rate", [math.nan, math.inf, 0.0])
    def test_scanned_mode_needs_a_finite_positive_scan_rate(self, scanned_bundle, rate):
        with pytest.raises(DomainError, match="scan_rate"):
            dataclasses.replace(scanned_bundle.scenario, scan_rate_hz=rate)


class TestMeasuredNoiseRatio:
    @pytest.mark.parametrize("f", [math.nan, math.inf, 0.0, -1e6])
    def test_bad_frequency_is_named(self, locked_bundle, f):
        with pytest.raises(DomainError, match=rf"frequency must be finite and in \[1e-06, 1e\+15\] Hz, got {f}"):
            det.measured_noise_ratio(locked_bundle.scenario, f)

    def test_operating_point(self, locked_bundle):
        s = locked_bundle.scenario
        locked, anti = det.measured_noise_ratio(s, 11e6)
        assert nz.to_db(locked) == pytest.approx(-8.30, abs=0.05)
        assert nz.to_db(anti) == pytest.approx(19.66, abs=0.01)

    def test_pump_off_is_shot_plus_circuit(self, locked_bundle):
        s = locked_bundle.scenario
        s_off = dataclasses.replace(s, opa=dataclasses.replace(s.opa, pump_power=0.0))
        locked, anti = det.measured_noise_ratio(s_off, 11e6)
        n_circ = float(s.detector.circuit_ratio(11e6))
        assert locked == pytest.approx(1.0 + n_circ, rel=1e-12)
        assert anti == locked
        assert nz.to_db(locked) == pytest.approx(0.014, abs=0.002)

    def test_full_detection_loss_is_shot_plus_circuit(self, locked_bundle):
        s = locked_bundle.scenario
        opaque = nz.LossBudget((nz.LossElement("blocked", 1.0),))
        s_blocked = dataclasses.replace(s, detection_budget=opaque)
        locked, _ = det.measured_noise_ratio(s_blocked, 11e6)
        assert locked == pytest.approx(1.0 + float(s.detector.circuit_ratio(11e6)), rel=1e-12)


class TestZeroSpan:
    def test_deterministic_under_seed(self, locked_bundle):
        t1 = det.simulate_zero_span(locked_bundle.scenario)
        t2 = det.simulate_zero_span(locked_bundle.scenario)
        assert np.array_equal(t1.values_dbm, t2.values_dbm)

    def test_different_seed_differs(self, locked_bundle):
        s2 = with_analyzer(locked_bundle.scenario, seed=7)
        t1 = det.simulate_zero_span(locked_bundle.scenario)
        t2 = det.simulate_zero_span(s2)
        assert not np.array_equal(t1.values_dbm, t2.values_dbm)

    def test_locked_mean_matches_model(self, locked_bundle):
        s = locked_bundle.scenario
        trace = det.simulate_zero_span(s)
        locked, _ = det.measured_noise_ratio(s, s.analyzer.center_frequency_hz)
        mean_db = 10 * np.log10(np.mean(10 ** ((trace.values_dbm - s.detector.shot_noise_dbm) / 10)))
        assert mean_db == pytest.approx(nz.to_db(locked), abs=0.05)

    def test_shot_normalization(self, locked_bundle):
        s = locked_bundle.scenario
        quiet_detector = det.DetectorModel(peak_clearance_db=200.0)
        s_off = dataclasses.replace(
            s,
            opa=dataclasses.replace(s.opa, pump_power=0.0),
            detector=quiet_detector,
        )
        trace = det.simulate_zero_span(s_off)
        mean_db = 10 * np.log10(np.mean(10 ** ((trace.values_dbm - quiet_detector.shot_noise_dbm) / 10)))
        assert mean_db == pytest.approx(0.0, abs=0.02)

    def test_single_draw_statistics_at_equal_bandwidths(self, locked_bundle):
        s = with_analyzer(locked_bundle.scenario, vbw_hz=1e6, points=4000)
        assert s.analyzer.video_averages == 1
        trace = det.simulate_zero_span(s)
        # dB of one exponential power draw has std ~5.57 dB
        assert float(np.std(trace.values_dbm)) == pytest.approx(5.57, abs=0.3)

    @pytest.mark.parametrize("k", [3, 50])
    def test_video_averaged_distribution(self, locked_bundle, k):
        # each point is the mean of k Exp(1) draws times its mean power:
        # normalised, mean 1 and variance 1/k
        s = with_analyzer(locked_bundle.scenario, vbw_hz=1e6 / k, points=100_000)
        assert s.analyzer.video_averages == k
        trace = det.simulate_zero_span(s)
        locked, _ = det.measured_noise_ratio(s, s.analyzer.center_frequency_hz)
        x = 10 ** ((trace.values_dbm - s.detector.shot_noise_dbm) / 10) / locked
        assert abs(float(x.mean()) - 1.0) <= 6 * math.sqrt(1.0 / k / x.size)
        assert float(x.var()) == pytest.approx(1.0 / k, rel=0.05)

    def test_scanned_envelope(self, scanned_bundle):
        s = scanned_bundle.scenario
        trace = det.simulate_zero_span(s)
        mx, mn = det.trace_extrema(trace)
        assert mx - s.detector.shot_noise_dbm == pytest.approx(19.66, abs=0.2)
        assert mn - s.detector.shot_noise_dbm == pytest.approx(-8.35, abs=0.2)

    def test_empty_trace_has_no_envelope(self):
        with pytest.raises(DomainError, match="empty trace"):
            det.trace_extrema(det.Trace(axis=[], values_dbm=[]))

    @pytest.mark.parametrize("points", range(1, 12))
    def test_short_trace_envelope_is_ordered(self, points):
        rng = np.random.default_rng(points)
        for values in (rng.normal(-70.0, 5.0, points), np.full(points, -70.0)):
            mx, mn = det.trace_extrema(det.Trace(axis=np.arange(points), values_dbm=values))
            assert mx >= mn, values

    def test_long_trace_envelope_is_the_9_point_average(self, scanned_bundle):
        values = det.simulate_zero_span(scanned_bundle.scenario).values_dbm
        for trace_values in (values, values[:9], values[:100]):
            top = trace_values.max()
            lin = 10.0 ** ((trace_values - top) / 10.0)
            want = top + 10.0 * np.log10(np.convolve(lin, np.full(9, 1.0 / 9), mode="valid").max())
            got, _ = det.trace_extrema(det.Trace(axis=np.arange(trace_values.size), values_dbm=trace_values))
            assert got == want

    def test_scanned_samples_below_five_sigma_bound(self, scanned_bundle):
        s = scanned_bundle.scenario
        trace = det.simulate_zero_span(s)
        q = det._optical_pair(s)
        sigma_db = (10 / math.log(10)) / math.sqrt(s.analyzer.video_averages)
        bound = s.detector.shot_noise_dbm + nz.to_db(q.anti) + 5 * sigma_db
        assert float(trace.values_dbm.max()) <= bound

    def test_requires_zero_span(self, locked_bundle):
        s = with_analyzer(locked_bundle.scenario, span_hz=1e6)
        with pytest.raises(DomainError):
            det.simulate_zero_span(s)


def peak_traced_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestZeroSpanCost:
    # memory must scale with the displayed points, not with K = RBW/VBW
    @pytest.mark.parametrize(
        "vbw_hz, points, k", [(100.0, 500, 10**4), (1e-6, 1000, 10**12)], ids=["k1e4", "k1e12"]
    )
    def test_peak_memory_independent_of_video_averages(self, locked_bundle, vbw_hz, points, k):
        s = with_analyzer(locked_bundle.scenario, vbw_hz=vbw_hz, points=points)
        assert s.analyzer.video_averages == k
        assert peak_traced_bytes(det.simulate_zero_span, s) < 2**20


class TestFrequencySweep:
    def test_points_capped(self, locked_bundle):
        with pytest.raises(DomainError, match="points"):
            det.sweep_frequency(locked_bundle.scenario, 2e6, 50e6, det.MAX_POINTS + 1)

    def test_peak_clearance_and_selection(self, locked_bundle):
        sweep = det.sweep_frequency(locked_bundle.scenario, 2e6, 50e6, 97)
        assert float(np.max(sweep.clearance_db())) == pytest.approx(25.0, abs=0.01)
        assert det.select_measurement_frequency(sweep) == pytest.approx(11e6)

    def test_traces_are_the_detector_levels(self, locked_bundle):
        s = locked_bundle.scenario
        sweep = det.sweep_frequency(s, 2e6, 50e6, 97)
        f, ratio = sweep.frequencies_hz, s.detector.circuit_ratio(sweep.frequencies_hz)
        assert np.array_equal(sweep.circuit.values_dbm, s.detector.circuit_level_dbm(f))
        want = s.detector.shot_noise_dbm + 10.0 * np.log10(det._optical_pair(s).sq + ratio)
        assert np.array_equal(sweep.squeezed.values_dbm, want)

    def test_squeezing_degrades_with_circuit_noise(self, locked_bundle):
        sweep = det.sweep_frequency(locked_bundle.scenario, 11e6, 50e6, 40)
        # above the clearance peak the displayed squeezing worsens monotonically
        assert np.all(np.diff(sweep.squeezed.values_dbm) > 0)

    def test_no_circuit_noise_gives_flat_trace(self, locked_bundle):
        s = locked_bundle.scenario
        quiet = dataclasses.replace(s, detector=det.DetectorModel(peak_clearance_db=300.0))
        sweep = det.sweep_frequency(quiet, 2e6, 50e6, 30)
        assert float(np.ptp(sweep.squeezed.values_dbm)) < 1e-6

    def test_clearance_invariant_under_common_offset(self, locked_bundle):
        s = locked_bundle.scenario
        shifted = dataclasses.replace(
            s, detector=det.DetectorModel(shot_noise_dbm=-73.0)
        )
        c1 = det.sweep_frequency(s, 2e6, 50e6, 30).clearance_db()
        c2 = det.sweep_frequency(shifted, 2e6, 50e6, 30).clearance_db()
        assert np.allclose(c1, c2, atol=1e-9)

    def test_tie_breaks_toward_lower_frequency(self, locked_bundle):
        f = np.linspace(2e6, 50e6, 30)
        flat = det.Trace(axis=f, values_dbm=np.full(f.size, -108.0))
        shot = det.Trace(axis=f, values_dbm=np.full(f.size, -83.0))
        sweep = det.FrequencySweep(f, squeezed=shot, shot=shot, circuit=flat, floor=flat)
        assert det.select_measurement_frequency(sweep) == pytest.approx(2e6)

    def test_single_point_sweep(self, locked_bundle):
        sweep = det.sweep_frequency(locked_bundle.scenario, 7e6, 9e6, 1)
        assert det.select_measurement_frequency(sweep) == pytest.approx(7e6)
