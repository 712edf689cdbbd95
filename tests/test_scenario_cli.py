import configparser
import dataclasses
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from opasim.cli import _CSV_CHUNK_ROWS, _fmt, _write_csv, run
from opasim.detection import MAX_POINTS, Trace, trace_extrema
from opasim.errors import ScenarioParseError, ScenarioValidationError
from opasim.scenario import (
    _FORMAT, MAX_SCENARIO_BYTES, _lines, load_scenario, loads_scenario, serialize_scenario,
)

from conftest import SCENARIO_DIR, model_levels_db

REPO = SCENARIO_DIR.parent

MINIMAL = """
[opa]
pump_power = 660 mW
shg_efficiency = 820 percent_per_watt
waveguide_loss = 4.5636 percent

[phase]
jitter = 0.8 deg

[analyzer]
center_frequency = 11 MHz
span = 0 Hz
rbw = 1 MHz
vbw = 1 kHz
sweep_time = 0.1 s
points = 500
seed = 1
"""

# every key of the format, each set to a value other than its default
EVERY_KEY = """
[opa]
pump_power = 1.2 W
shg_efficiency = 6.5 per_watt
waveguide_loss = 0.03 fraction

[phase]
jitter = 0.02 rad
lock_mode = scanned
scan_rate = 35 Hz

[detection_loss]
mode_mismatch = 2 percent
photodiode = 1.5 percent

[detector]
shot_noise_level = -80 dBm
clearance = 20 dB
clearance_frequency = 9 MHz
circuit_high_corner = 25 MHz
circuit_slope = 30 dB_per_decade
analyzer_floor_offset = -12 dB

[analyzer]
center_frequency = 9 MHz
span = 0 Hz
rbw = 300 kHz
vbw = 30 kHz
sweep_time = 50 ms
points = 401
seed = 3

[lock_loops]
opa_probe_crossover = 5 MHz
probe_lo_crossover = 2.5 MHz
min_gain_margin = 8 dB
min_phase_margin = 40 deg
shift_candidates = 300 kHz, 0.6 MHz, 1.2 MHz

[frequency_sweep]
start = 1 MHz
stop = 40 MHz
points = 51

[fit_bounds]
eta_min = 60 percent
eta_max = 0.98 fraction
alpha_min = 200 percent_per_watt
alpha_max = 15 per_watt
jitter_max = 4 deg
"""


def huge_points(section):
    """MINIMAL with 10^12 points in ``section``; only ever loaded, never run."""
    if section == "analyzer":
        return MINIMAL.replace("points = 500", "points = 1000000000000")
    return MINIMAL + "\n[frequency_sweep]\npoints = 1000000000000\n"


@st.composite
def scenario_texts(draw):
    """(text, [detector] lines) of a random valid scenario.  The detector
    values are written in their scale-1 units; the rest in any unit."""

    def q(lo, hi, *units):
        unit, scale = draw(st.sampled_from(units))
        return f"{draw(st.floats(lo / scale, hi / scale))!r} {unit}"

    hz = (("Hz", 1.0), ("kHz", 1e3), ("MHz", 1e6))
    detector = [
        f"shot_noise_level = {draw(st.floats(-120.0, -40.0))!r} dBm",
        f"clearance = {draw(st.floats(0.1, 60.0))!r} dB",
        f"clearance_frequency = {draw(st.floats(1e5, 1e8))!r} Hz",
        f"circuit_high_corner = {draw(st.floats(1e6, 1e9))!r} Hz",
        f"circuit_slope = {draw(st.floats(1.0, 60.0))!r} dB_per_decade",
        f"analyzer_floor_offset = {draw(st.floats(-30.0, 30.0))!r} dB",
    ]
    losses = draw(st.dictionaries(
        st.sampled_from(["mode_mismatch", "photodiode", "optics"]), st.floats(0.0, 0.5), max_size=3
    ))
    vbw = draw(st.floats(1.0, 1e6))
    candidates = draw(st.lists(st.floats(1e4, 1e7), min_size=1, max_size=5))
    loss_lines = "".join(f"{label} = {loss!r} fraction\n" for label, loss in losses.items())
    detector_lines = "\n".join(detector)
    text = f"""
[opa]
pump_power = {q(0.0, 2.0, ("W", 1.0), ("mW", 1e-3))}
shg_efficiency = {q(0.5, 20.0, ("per_watt", 1.0), ("percent_per_watt", 1e-2))}
waveguide_loss = {q(0.0, 0.3, ("fraction", 1.0), ("percent", 1e-2))}

[phase]
jitter = {q(0.0, 0.08, ("rad", 1.0), ("deg", math.pi / 180.0))}
lock_mode = {draw(st.sampled_from(["locked", "scanned"]))}
scan_rate = {q(1.0, 100.0, *hz)}

[detection_loss]
{loss_lines}
[detector]
{detector_lines}

[analyzer]
center_frequency = {q(1e5, 1e8, *hz)}
span = {q(0.0, 1e7, *hz)}
rbw = {vbw * draw(st.floats(1.0, 1e4))!r} Hz
vbw = {vbw!r} Hz
sweep_time = {q(1e-3, 10.0, ("s", 1.0), ("ms", 1e-3))}
points = {draw(st.integers(2, 2000))}
seed = {draw(st.integers(0, 2**32))}

[lock_loops]
opa_probe_crossover = {q(1.5e6, 6e6, *hz)}
probe_lo_crossover = {q(1e6, 3e6, *hz)}
min_gain_margin = {draw(st.floats(0.0, 20.0))!r} dB
min_phase_margin = {draw(st.floats(0.0, 80.0))!r} deg
shift_candidates = {", ".join(f"{c!r} Hz" for c in candidates)}

[frequency_sweep]
start = {q(1e5, 1e7, *hz)}
stop = {q(2e7, 1e8, *hz)}
points = {draw(st.integers(1, 500))}

[fit_bounds]
eta_min = {q(0.0, 0.5, ("fraction", 1.0), ("percent", 1e-2))}
eta_max = {q(0.6, 1.0, ("fraction", 1.0), ("percent", 1e-2))}
alpha_min = {q(0.1, 5.0, ("per_watt", 1.0), ("percent_per_watt", 1e-2))}
alpha_max = {q(6.0, 50.0, ("per_watt", 1.0), ("percent_per_watt", 1e-2))}
jitter_max = {q(0.002, 0.5, ("rad", 1.0), ("deg", math.pi / 180.0))}
"""
    return text, detector


class TestLoadScenario:
    def test_bundled_scenario_fields(self, locked_bundle):
        s = locked_bundle.scenario
        assert s.opa.pump_power == pytest.approx(0.66)
        assert s.opa.shg_efficiency == pytest.approx(8.2)
        assert s.jitter.degrees == pytest.approx(0.8)
        assert s.detection_transmittance == pytest.approx(0.92208, abs=1e-5)
        assert s.opa.transmittance * s.detection_transmittance == pytest.approx(0.88, abs=1e-5)
        assert s.analyzer.center_frequency_hz == 11e6
        assert s.analyzer.rbw_hz == 1e6
        assert s.analyzer.vbw_hz == 1e3
        assert s.analyzer.video_averages == 1000
        assert locked_bundle.shift_candidates_hz == (0.25e6, 0.5e6, 1e6, 2e6, 4e6)

    def test_minimal_defaults(self):
        b = loads_scenario(MINIMAL)
        assert b.crossover_targets_hz == (4e6, 2e6)
        assert b.sweep_points == 97
        assert b.fit_bounds.eta_min == 0.5

    @pytest.mark.parametrize("key", ["visibility", "pd_quantum_efficiency"])
    def test_detector_loss_keys_point_to_detection_loss(self, key):
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(MINIMAL + f"\n[detector]\n{key} = 98.5 percent\n")
        assert any(
            f"detector.{key}" in v and "[detection_loss]" in v for v in err.value.violations
        ), err.value.violations

    @pytest.mark.parametrize("section", ["analyzer", "frequency_sweep"])
    def test_huge_point_count_rejected(self, section):
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(huge_points(section))
        assert any(v.startswith(section) and "1000000" in v for v in err.value.violations), (
            err.value.violations
        )

    def test_empty_file_is_parse_error(self):
        with pytest.raises(ScenarioParseError):
            loads_scenario("")

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ScenarioParseError):
            load_scenario(tmp_path / "nope.scenario")

    def test_out_of_range_field_named_in_error(self):
        bad = MINIMAL.replace("4.5636 percent", "130 percent")
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(bad)
        assert any("opa" in v for v in err.value.violations)

    def test_unknown_key_rejected(self):
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(MINIMAL + "\n[opa2]\nx = 1 W\n")
        assert any("opa2" in v for v in err.value.violations)
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(MINIMAL.replace("pump_power", "pumppower"))
        msgs = "\n".join(err.value.violations)
        assert "pumppower" in msgs and "pump_power" in msgs

    def test_bare_number_rejected(self):
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(MINIMAL.replace("660 mW", "0.66"))
        assert any("opa.pump_power" in v for v in err.value.violations)

    def test_wrong_unit_rejected(self):
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(MINIMAL.replace("660 mW", "660 MHz"))
        assert any("opa.pump_power" in v for v in err.value.violations)

    def test_all_violations_reported_together(self):
        bad = MINIMAL.replace("660 mW", "x mW").replace("0.8 deg", "0.8")
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(bad)
        assert len(err.value.violations) >= 2

    def test_serialize_round_trip(self, locked_bundle, scanned_bundle):
        for bundle in (locked_bundle, scanned_bundle):
            assert loads_scenario(serialize_scenario(bundle)) == bundle

    def test_serialize_round_trip_of_every_key(self):
        bundle = loads_scenario(EVERY_KEY)
        for section, keys in _FORMAT.items():
            for key, (_, default, value) in (keys or {}).items():
                assert value(bundle) != default, f"{section}.{key} is at its default"
        text = serialize_scenario(bundle)
        assert loads_scenario(text) == bundle
        parser = configparser.ConfigParser(interpolation=None, delimiters=("=",))
        parser.optionxform = str
        parser.read_string(text)
        assert parser.sections() == list(_FORMAT)
        for section, keys in _FORMAT.items():
            want = ["mode_mismatch", "photodiode"] if keys is None else list(keys)
            assert list(parser[section]) == want, section

    @given(scenario_texts())
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_serialize_round_trip_property(self, case):
        text, detector = case
        bundle = loads_scenario(text)
        out = serialize_scenario(bundle)
        assert loads_scenario(out) == bundle
        assert serialize_scenario(loads_scenario(out)) == out
        # the [detector] section is held, and so written, as given
        assert out.split("[detector]\n")[1].split("\n\n")[0].splitlines() == detector

    def test_detector_section_serialized_as_given(self):
        text = MINIMAL + "\n[detector]\nclearance = 17.3 dB\nanalyzer_floor_offset = -7.1 dB\n"
        out = serialize_scenario(loads_scenario(text)).splitlines()
        assert "clearance = 17.3 dB" in out
        assert "analyzer_floor_offset = -7.1 dB" in out

    def test_byte_cap_holds_the_longest_candidate_list(self):
        # no float is written in more characters than this one
        longest = -2.2250738585072014e-308
        bundle = dataclasses.replace(loads_scenario(EVERY_KEY), shift_candidates_hz=(longest,))
        one = len(serialize_scenario(bundle).encode())
        assert one + (MAX_POINTS - 1) * len(f", {longest!r} Hz") <= MAX_SCENARIO_BYTES

    def test_any_line_ending_loads(self, tmp_path, locked_bundle):
        text = (SCENARIO_DIR / "zero_span_locked.scenario").read_text()
        for name, newline in (("crlf", "\r\n"), ("cr", "\r")):
            scn = tmp_path / f"{name}.scenario"
            scn.write_bytes(text.replace("\n", newline).encode())
            assert load_scenario(scn) == locked_bundle, name

    def test_parse_memory_is_a_few_copies_of_the_text(self):
        text = (MINIMAL + "\n[lock_loops]\nshift_candidates = "
                + ", ".join(["1.5 MHz"] * (MAX_POINTS + 1)) + "\n")
        tracemalloc.start()
        try:
            with pytest.raises(ScenarioValidationError, match="at most"):
                loads_scenario(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the long line, its stripped value and the joined value: about three
        # copies of the 8.6 MB text; configparser.read_string peaks at 7
        assert peak < 3.5 * len(text), f"peak {peak / len(text):.1f} x the text"

    @pytest.mark.parametrize("text", ["", "\n", "a\n\nb", "a\r\nb\rc\n", "x\x0cy\u2028z\n\n"])
    def test_lines_split_as_stringio(self, text):
        assert list(_lines(text)) == list(io.StringIO(text))

    def test_non_utf8_file_is_parse_error(self, tmp_path):
        scn = tmp_path / "latin1.scenario"
        scn.write_bytes(("# pump: 660 \u00b5W\n" + MINIMAL).encode("latin-1"))
        with pytest.raises(ScenarioParseError, match="UTF-8"):
            load_scenario(scn)

    def test_serialize_numpy_scalars_as_plain_numbers(self, locked_bundle):
        plain = dataclasses.replace(locked_bundle, sweep_f_min_hz=2e6, sweep_points=51)
        numpy = dataclasses.replace(
            locked_bundle, sweep_f_min_hz=np.float64(2e6), sweep_points=np.int64(51)
        )
        text = serialize_scenario(numpy)
        assert text == serialize_scenario(plain)
        assert loads_scenario(text) == plain

    def test_default_section_reported_by_name(self):
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario("[DEFAULT]\nfoo = 3 percent\n" + MINIMAL)
        assert err.value.violations == ["DEFAULT: unknown section"]

    def test_unknown_key_and_bad_value_reported_together(self):
        bad = MINIMAL.replace("660 mW", "660 MHz") + "\n[lock_loops]\ncolour = 3 percent\n"
        with pytest.raises(ScenarioValidationError) as err:
            loads_scenario(bad)
        violations = err.value.violations
        assert any(v.startswith("opa.pump_power: unit") for v in violations), violations
        assert any(v.startswith("lock_loops.colour: unknown key") for v in violations), violations


def run_cli(*argv):
    return run(list(argv))


def _reject_constant(name):
    raise ValueError(f"non-finite number {name} in a report")


class TestCsvWriter:
    @pytest.mark.parametrize("x", [-0.0, 5e-324, 1e300, -1e300, 1e-300, -1e-300, 3.0,
                                   math.nan, math.inf, -math.inf])
    def test_row_format_is_fmt(self, x):
        assert "%.10g" % x == _fmt(np.float64(x))

    def test_rows_across_chunks(self, tmp_path):
        n = 2 * _CSV_CHUNK_ROWS + 3
        a, b = np.linspace(-1.0, 1.0, n), np.random.default_rng(0).normal(size=n) * 1e300
        _write_csv(tmp_path / "t.csv", "# head\na,b", a, b)
        want = ["# head", "a,b"] + [f"{_fmt(x)},{_fmt(y)}" for x, y in zip(a, b)]
        assert (tmp_path / "t.csv").read_text() == "\n".join(want) + "\n"

    def test_memory_is_per_chunk(self, tmp_path):
        a = np.linspace(0.0, 1.0, 200_000)
        b = np.sin(a)
        tracemalloc.start()
        try:
            _write_csv(tmp_path / "t.csv", "a,b", a, b)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestCli:
    SCN = str(SCENARIO_DIR / "zero_span_locked.scenario")

    def test_simulate_writes_deterministic_csv(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run_cli("simulate", self.SCN, "--out-dir", str(a), "--quiet") == 0
        assert run_cli("simulate", self.SCN, "--out-dir", str(b), "--quiet") == 0
        assert (a / "zero_span.csv").read_bytes() == (b / "zero_span.csv").read_bytes()

    def test_seed_override_changes_trace(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_cli("simulate", self.SCN, "--out-dir", str(a), "--quiet")
        run_cli("simulate", self.SCN, "--out-dir", str(b), "--seed", "99", "--quiet")
        assert (a / "zero_span.csv").read_bytes() != (b / "zero_span.csv").read_bytes()

    def test_simulate_report_hits_target(self, tmp_path):
        assert run_cli("simulate", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 0
        report = json.loads((tmp_path / "simulate_report.json").read_text())
        assert report["schema_version"] == 2
        assert abs(report["results"]["relative_mean_db"] - (-8.30)) <= 0.10

    def test_bode_csv_format(self, tmp_path):
        assert run_cli("bode", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 0
        lines = (tmp_path / "bode_opa_probe.csv").read_text().splitlines()
        assert lines[0] == "frequency_hz,gain_db,phase_deg"
        assert len(lines[1].split(",")) == 3

    def test_margins_and_select_freq(self, tmp_path, capsys):
        assert run_cli("margins", self.SCN, "--out-dir", str(tmp_path)) == 0
        out = capsys.readouterr().out
        assert "opa_probe_phase_crossover_hz" in out
        assert run_cli("select-freq", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 0
        report = json.loads((tmp_path / "select_freq_report.json").read_text())
        assert report["results"]["shift_frequency_hz"] == 1e6
        assert report["results"]["opa_probe_demod_hz"] == 2e6
        assert report["results"]["probe_lo_demod_hz"] == 1e6

    def test_fit_command(self, tmp_path):
        powers = np.linspace(0.1, 1.6, 8)
        sq, anti = model_levels_db(powers, 0.88, 8.2, math.radians(0.8))
        csv = tmp_path / "sweep.csv"
        csv.write_text(
            "pump_w,squeezing_db,antisqueezing_db\n"
            + "\n".join(f"{p},{s},{a}" for p, s, a in zip(powers, sq, anti))
            + "\n"
        )
        assert run_cli(
            "fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet"
        ) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text())
        assert report["results"]["transmittance"] == pytest.approx(0.88, rel=1e-5)
        assert report["results"]["jitter_deg"] == pytest.approx(0.8, rel=1e-5)

    @pytest.mark.parametrize("section", ["analyzer", "frequency_sweep"])
    def test_huge_point_count_exits_2(self, tmp_path, section):
        # margins never allocates points, so this is safe even without the cap
        scn = tmp_path / "huge.scenario"
        scn.write_text(huge_points(section))
        assert run_cli("margins", str(scn), "--out-dir", str(tmp_path), "--quiet") == 2

    def test_huge_shift_candidate_count_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "huge.scenario"
        scn.write_text(
            MINIMAL + "\n[lock_loops]\nshift_candidates = "
            + ", ".join(["1 MHz"] * (MAX_POINTS + 1)) + "\n"
        )
        assert run_cli("margins", str(scn), "--out-dir", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err
        assert "lock_loops.shift_candidates" in err and str(MAX_POINTS) in err

    def test_huge_data_row_count_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        csv.write_text("pump_w,squeezing_db,antisqueezing_db\n" + "0.1,-3,5\n0.2,-5,8\n" * (MAX_POINTS // 2 + 1))
        tracemalloc.start()
        try:
            code = run_cli("fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        err = capsys.readouterr().err
        assert str(csv) in err and str(MAX_POINTS) in err
        # the rows are counted a line at a time, not read into memory at once
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_long_data_line_exits_2(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        csv.write_text("pump_w,squeezing_db,antisqueezing_db\n" + "x" * 20 * 2**20 + "\n0.1,-3,5\n")
        tracemalloc.start()
        try:
            code = run_cli("fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each line is read up to the limit, not whole
        assert peak < 4 * 2**20, f"peak {peak / 2**20:.1f} MiB"
        assert code == 2
        assert f"{csv}:2: longer than 4096 characters" in capsys.readouterr().err

    @pytest.mark.parametrize("width, code", [(4095, 0), (4096, 2)])
    def test_data_line_at_the_limit(self, tmp_path, width, code):
        csv = tmp_path / "sweep.csv"
        row = "0.1,-3,5".ljust(width)  # 4096 characters with its newline at width 4095
        csv.write_text(f"{row}\n0.2,-5,8\n0.3,-6,10\n")
        assert run_cli("fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet") == code

    def test_file_over_byte_cap_exits_2(self, tmp_path, capsys):
        scn = tmp_path / "huge.scenario"
        with scn.open("wb") as fh:
            fh.truncate(2**30)  # a sparse 1 GiB file of zero bytes
        tracemalloc.start()
        try:
            code = run_cli("margins", str(scn), "--out-dir", str(tmp_path), "--quiet")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 2
        assert str(MAX_SCENARIO_BYTES) in capsys.readouterr().err
        # one byte past the cap is read, never the whole file
        assert peak < 1.25 * MAX_SCENARIO_BYTES, f"peak {peak / 2**20:.1f} MiB"

    def test_fit_gain_overflow_is_validation_error(self, tmp_path, capsys):
        csv = tmp_path / "sweep.csv"
        csv.write_text("pump_w,squeezing_db,antisqueezing_db\n0.1,-3,5\n0.2,-5,8\n1e5,-5,12\n")
        assert run_cli(
            "fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet"
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [validation]: parametric gain"), err

    @pytest.mark.parametrize("row", ["6290,-5,3000", "6296,-5,3082"])
    def test_fit_normal_matrix_overflow_is_validation_error(self, tmp_path, capsys, row):
        # inside the gain bound of exp alone, but J^T J of the fit overflows
        csv = tmp_path / "sweep.csv"
        csv.write_text(f"pump_w,squeezing_db,antisqueezing_db\n0.1,-3,5\n0.2,-5,8\n{row}\n")
        assert run_cli(
            "fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet"
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [validation]: parametric gain"), err

    @pytest.mark.parametrize("row", ["0.3,-5,1e300", "0.3,-1e300,5", "0.3,-5,3000"])
    def test_fit_level_beyond_the_model_is_validation_error(self, tmp_path, capsys, row):
        csv = tmp_path / "sweep.csv"
        csv.write_text(f"pump_w,squeezing_db,antisqueezing_db\n0.1,-3,5\n0.2,-5,8\n{row}\n")
        assert run_cli(
            "fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet"
        ) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [validation]: dB levels"), err
        assert not (tmp_path / "fit_report.json").exists()

    @pytest.mark.parametrize("scenario", ["zero_span_locked", "zero_span_scanned"])
    @pytest.mark.parametrize("shot", ["-83000 dBm", "4000 dBm"])
    def test_simulate_at_extreme_shot_noise_level(self, tmp_path, scenario, shot):
        text = (SCENARIO_DIR / f"{scenario}.scenario").read_text()
        scn = tmp_path / "extreme.scenario"
        scn.write_text(text.replace("shot_noise_level = -83.0 dBm", f"shot_noise_level = {shot}"))
        assert run_cli("simulate", str(scn), "--out-dir", str(tmp_path / "x"), "--quiet") == 0
        assert run_cli("simulate", str(SCENARIO_DIR / f"{scenario}.scenario"),
                       "--out-dir", str(tmp_path / "ref"), "--quiet") == 0

        def results(name):
            text = (tmp_path / name / "simulate_report.json").read_text()
            return json.loads(text, parse_constant=_reject_constant)["results"]

        got, ref = results("x"), results("ref")
        assert all(math.isfinite(v) for v in got.values())
        # every level relative to shot noise is the bundled one: same draws
        shift = float(shot.split()[0]) - (-83.0)
        assert got["trace_mean_dbm"] == pytest.approx(ref["trace_mean_dbm"] + shift, abs=1e-6)
        assert got["shot_mean_dbm"] == pytest.approx(ref["shot_mean_dbm"] + shift, abs=1e-6)
        for key in set(ref) - {"trace_mean_dbm", "shot_mean_dbm"}:
            assert got[key] == pytest.approx(ref[key], abs=1e-6), key

    def test_optimize_refuses_an_optimum_below_the_oracle_grid(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("660 mW", "1 uW").replace("820 percent", "1e7 percent"))
        assert run_cli("optimize", str(bad), "--out-dir", str(tmp_path), "--quiet") == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [infeasible]: optimal pump power"), err

    def test_optimize_refuses_an_optimum_above_the_oracle_grid(self, tmp_path, capsys):
        # P* = 10.08 W, above the grid's last point, 2 W
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("820 percent", "100 percent").replace("0.8 deg", "0.1 deg"))
        assert run_cli("optimize", str(bad), "--out-dir", str(tmp_path), "--quiet") == 4
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [infeasible]: optimal pump power"), err
        assert "last point" in err[0], err

    def test_optimize_oracle_stops_below_the_gain_limit(self, tmp_path):
        # 2 sqrt(alpha P) passes log(float max) at P = 1.8 W, inside the 2 W grid
        scn = tmp_path / "steep.scenario"
        scn.write_text(MINIMAL.replace("660 mW", "1 mW").replace("820 percent", "7e6 percent")
                       .replace("0.8 deg", "0.1 deg"))
        assert run_cli("optimize", str(scn), "--out-dir", str(tmp_path), "--quiet") == 0
        r = json.loads((tmp_path / "optimize_report.json").read_text())["results"]
        assert r["grid_oracle_pump_w"] == pytest.approx(r["optimal_pump_w"], abs=1e-6)

    @pytest.mark.parametrize("center", ["0 Hz", "-11 MHz"])
    def test_non_positive_center_frequency_is_validation_error(self, tmp_path, capsys, center):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("center_frequency = 11 MHz", f"center_frequency = {center}"))
        assert run_cli("report", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "center_frequency must be > 0" in err[0], err

    @pytest.mark.parametrize("command", ["report", "budget", "simulate", "sweep"])
    def test_steep_circuit_slope_is_validation_error(self, tmp_path, capsys, command):
        # the circuit shape overflows above the 30 MHz corner, at the 40 MHz center
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            (SCENARIO_DIR / "zero_span_locked.scenario").read_text()
            .replace("center_frequency = 11 MHz", "center_frequency = 40 MHz")
            .replace("clearance_frequency = 11 MHz",
                     "clearance_frequency = 11 MHz\ncircuit_slope = 1e5 dB_per_decade")
        )
        assert run_cli(command, str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [validation]: circuit_slope"), err

    @pytest.mark.parametrize(
        "value", ["1e300 Hz", "0 Hz"], ids=["overflowing_square", "zero"]
    )
    def test_bad_clearance_frequency_is_validation_error(self, tmp_path, capsys, value):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL + f"\n[detector]\nclearance_frequency = {value}\n")
        assert run_cli("report", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error [validation]: detector"), err

    @pytest.mark.parametrize(
        "name, digest",
        [("zero_span_locked", "c7d09092898e6184"), ("zero_span_scanned", "b96c635257175ade")],
    )
    def test_bundled_scenario_digest(self, tmp_path, name, digest):
        scn = SCENARIO_DIR / f"{name}.scenario"
        assert run_cli("report", str(scn), "--out-dir", str(tmp_path), "--quiet") == 0
        report = json.loads((tmp_path / "report_report.json").read_text())
        assert report["scenario_digest"] == digest

    @pytest.mark.parametrize(
        "extra",
        [
            "[lock_loops]\nmin_gain_margin = 7 dB\n",
            "[frequency_sweep]\nstop = 40 MHz\n",
            "[fit_bounds]\neta_min = 40 percent\n",
        ],
        ids=["lock_loops", "frequency_sweep", "fit_bounds"],
    )
    def test_digest_covers_every_section(self, tmp_path, extra):
        digests = []
        for name, text in (("base", MINIMAL), ("changed", MINIMAL + "\n" + extra)):
            scn = tmp_path / f"{name}.scenario"
            scn.write_text(text)
            out = tmp_path / name
            assert run_cli("margins", str(scn), "--out-dir", str(out), "--quiet") == 0
            digests.append(json.loads((out / "margins_report.json").read_text())["scenario_digest"])
        assert digests[0] != digests[1]

    def test_fit_without_data_is_validation_error(self, tmp_path):
        assert run_cli("fit", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 2

    @pytest.mark.parametrize(
        "bad_row",
        ["0.5,-6.1,abc", "0.5,-6.1", "0.5,nan,12.0"],
        ids=["non_numeric", "two_columns", "non_finite"],
    )
    def test_fit_bad_data_row_names_file_and_line(self, tmp_path, capsys, bad_row):
        csv = tmp_path / "sweep.csv"
        csv.write_text(f"pump_w,squeezing_db,antisqueezing_db\n0.2,-3.0,5.0\n{bad_row}\n")
        assert run_cli(
            "fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path), "--quiet"
        ) == 2
        assert f"{csv}:3" in capsys.readouterr().err

    def test_fit_missing_data_file_is_validation_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        assert run_cli(
            "fit", self.SCN, "--data", str(missing), "--out-dir", str(tmp_path), "--quiet"
        ) == 2
        assert str(missing) in capsys.readouterr().err

    def test_optimize_report(self, tmp_path):
        assert run_cli("optimize", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 0
        report = json.loads((tmp_path / "optimize_report.json").read_text())
        assert report["results"]["optimal_pump_w"] == pytest.approx(0.5562, abs=2e-4)
        assert report["results"]["oracle_gap_w"] < 1e-4

    def test_budget_warns_about_additive_gap(self, tmp_path):
        assert run_cli("budget", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 0
        report = json.loads((tmp_path / "budget_report.json").read_text())
        assert report["warnings"]
        assert report["results"]["additive_total_loss"] > 1.0 - report["results"][
            "multiplicative_transmittance"
        ]

    def test_fit_bundled_pump_sweep(self, tmp_path):
        # the data file is the model at (0.88, 8.2 /W, 0.8 deg), rounded to 1e-4 dB
        rows = np.loadtxt(REPO / "scenarios" / "pump_sweep.csv", delimiter=",", skiprows=1)
        assert rows.shape == (8, 3)
        sq, anti = model_levels_db(rows[:, 0], 0.88, 8.2, math.radians(0.8))
        assert np.max(np.abs(rows[:, 1] - sq)) <= 5e-5
        assert np.max(np.abs(rows[:, 2] - anti)) <= 5e-5
        assert run_cli(
            "fit", self.SCN, "--data", str(REPO / "scenarios" / "pump_sweep.csv"),
            "--out-dir", str(tmp_path), "--quiet",
        ) == 0
        r = json.loads((tmp_path / "fit_report.json").read_text())["results"]
        assert r["converged"] is True
        assert r["transmittance"] == pytest.approx(0.88, rel=1e-4)
        assert r["shg_efficiency_per_watt"] == pytest.approx(8.2, rel=1e-4)
        assert r["jitter_deg"] == pytest.approx(0.8, rel=1e-4)
        # the data are rounded to 1e-4 dB, so every 1-sigma error is tiny but nonzero
        for key in ("transmittance_sigma", "shg_efficiency_sigma_per_watt", "jitter_sigma_deg"):
            assert 0 < r[key] < 1e-4, key

    def test_fit_report_is_strict_json(self, tmp_path, capsys):
        # noiseless data at theta = 0 fit exactly, and the jitter's 1-sigma is infinite there
        powers = np.linspace(0.2, 1.2, 6)
        sq, anti = model_levels_db(powers, 0.85, 8.0, 0.0)
        csv = tmp_path / "sweep.csv"
        csv.write_text("".join(f"{p},{s},{a}\n" for p, s, a in zip(powers, sq, anti)))
        assert run_cli("fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path)) == 0
        report = json.loads((tmp_path / "fit_report.json").read_text(), parse_constant=_reject_constant)
        assert report["results"]["jitter_sigma_deg"] is None
        assert report["warnings"] == ["jitter_sigma_deg is inf, reported as null"]
        out = capsys.readouterr().out
        assert "jitter_sigma_deg = None\n" in out and "warning = jitter_sigma_deg is inf" in out

    def test_fit_data_with_leading_comment(self, tmp_path):
        data = REPO / "scenarios" / "pump_sweep.csv"
        commented = tmp_path / "commented.csv"
        commented.write_text("# pump sweep, 2023-08-11\n" + data.read_text())
        reports = []
        for name, csv in (("plain", data), ("commented", commented)):
            assert run_cli(
                "fit", self.SCN, "--data", str(csv), "--out-dir", str(tmp_path / name), "--quiet"
            ) == 0
            report = json.loads((tmp_path / name / "fit_report.json").read_text())
            reports.append(report["results"])
        assert reports[1] == reports[0]

    def test_scanned_simulate_reports_trace_extrema(self, tmp_path):
        scn = str(SCENARIO_DIR / "zero_span_scanned.scenario")
        assert run_cli("simulate", scn, "--out-dir", str(tmp_path), "--quiet") == 0
        r = json.loads((tmp_path / "simulate_report.json").read_text())["results"]
        axis, values = np.loadtxt(
            tmp_path / "zero_span.csv", delimiter=",", skiprows=2, unpack=True
        )
        top, bottom = trace_extrema(Trace(axis=axis, values_dbm=values))
        shot = load_scenario(scn).scenario.detector.shot_noise_dbm
        assert r["trace_max_db"] == pytest.approx(top - shot, abs=1e-6)
        assert r["trace_min_db"] == pytest.approx(bottom - shot, abs=1e-6)
        assert r["trace_max_db"] > 15.0 and r["trace_min_db"] < -8.0

    def test_scanned_simulate_short_trace_extrema_ordered(self, tmp_path):
        # a 5-point trace is shorter than the 9-point smoothing window
        scn = tmp_path / "short.scenario"
        scn.write_text((SCENARIO_DIR / "zero_span_scanned.scenario").read_text()
                       .replace("points = 1000", "points = 5"))
        assert run_cli("simulate", str(scn), "--out-dir", str(tmp_path), "--quiet") == 0
        r = json.loads((tmp_path / "simulate_report.json").read_text())["results"]
        assert r["trace_max_db"] >= r["trace_min_db"]

    def test_locked_simulate_report_keys(self, tmp_path):
        assert run_cli("simulate", self.SCN, "--out-dir", str(tmp_path), "--quiet") == 0
        r = json.loads((tmp_path / "simulate_report.json").read_text())["results"]
        assert set(r) == {
            "trace_points", "video_averages", "trace_mean_dbm", "shot_mean_dbm",
            "relative_mean_db", "model_locked_db", "model_anti_db",
        }

    def test_detector_loss_key_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL + "\n[detector]\nvisibility = 98.5 percent\n")
        assert run_cli("report", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        assert "[detection_loss]" in capsys.readouterr().err

    def test_validation_exit_code(self, tmp_path):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("4.5636 percent", "130 percent"))
        assert run_cli("report", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2

    def test_infeasible_exit_code(self, tmp_path):
        jitter_free = tmp_path / "nojitter.scenario"
        jitter_free.write_text(MINIMAL.replace("0.8 deg", "0 deg"))
        assert run_cli("optimize", str(jitter_free), "--out-dir", str(tmp_path), "--quiet") == 4

    @pytest.mark.parametrize(
        "rbw, vbw",
        [("inf Hz", "1 kHz"), ("nan Hz", "1 kHz"), ("1e300 Hz", "1e-300 Hz")],
        ids=["inf", "nan", "overflowing_ratio"],
    )
    def test_non_finite_analyzer_bandwidth_is_validation_error(
        self, tmp_path, capsys, rbw, vbw
    ):
        bad = tmp_path / "bad.scenario"
        bad.write_text(
            MINIMAL.replace("rbw = 1 MHz", f"rbw = {rbw}").replace("vbw = 1 kHz", f"vbw = {vbw}")
        )
        assert run_cli("simulate", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        assert "analyzer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "crossover", ["inf MHz", "nan MHz", "1e308 GHz"], ids=["inf", "nan", "overflow"]
    )
    def test_non_finite_crossover_is_validation_error(self, tmp_path, capsys, crossover):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL + f"\n[lock_loops]\nopa_probe_crossover = {crossover}\n")
        assert run_cli("budget", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err
        assert "lock_loops.opa_probe_crossover" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["report", "simulate", "sweep"])
    def test_parametric_gain_overflow_is_validation_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("660 mW", "2e7 mW"))
        assert run_cli(command, str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        err = capsys.readouterr().err
        assert "opa" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("where", ["file", "under_file", "report_is_dir"])
    def test_unwritable_output_is_validation_error(self, tmp_path, capsys, where):
        out = tmp_path / "out"
        if where == "report_is_dir":
            (out / "margins_report.json").mkdir(parents=True)
        else:
            out.write_text("")
            out = out / "sub" if where == "under_file" else out
        assert run_cli("margins", self.SCN, "--out-dir", str(out), "--quiet") == 2
        err = capsys.readouterr().err
        assert err.startswith("error [validation]: cannot write output:")
        assert "Traceback" not in err

    def test_negative_seed_is_validation_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.scenario"
        bad.write_text(MINIMAL.replace("seed = 1", "seed = -3"))
        assert run_cli("simulate", str(bad), "--out-dir", str(tmp_path), "--quiet") == 2
        assert "analyzer: seed must be >= 0" in capsys.readouterr().err
        assert run_cli("simulate", self.SCN, "--seed", "-1", "--out-dir", str(tmp_path), "--quiet") == 2
        assert "seed must be >= 0, got -1" in capsys.readouterr().err

    def test_csv_report_format(self, tmp_path, capsys):
        assert run_cli(
            "budget", self.SCN, "--out-dir", str(tmp_path), "--format", "csv"
        ) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "key,value"


def src_env():
    src = Path(__file__).resolve().parent.parent / "src"
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p
    ))


def test_import_does_not_load_scipy():
    code = "import opasim, sys; assert not any(m.split('.')[0] == 'scipy' for m in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], env=src_env(), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_frequencies_past_overflow_in_s_run_without_warnings(tmp_path):
    # above ~1e102 Hz the loops' cubic denominator overflows in s; numpy
    # would warn on stderr, which the in-process tests turn into errors
    scn = tmp_path / "huge.scenario"
    scn.write_text(MINIMAL + "\n[lock_loops]\nopa_probe_crossover = 1e110 Hz\n"
                   "shift_candidates = 1e200 Hz, 1 MHz\n")
    proc = subprocess.run(
        [sys.executable, "-m", "opasim", "select-freq", str(scn), "--out-dir", str(tmp_path)],
        env=src_env(), capture_output=True, text=True,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert "shift_frequency_hz = 1000000" in proc.stdout


def test_python_dash_m_runs_cli(tmp_path):
    scn = SCENARIO_DIR / "zero_span_locked.scenario"
    proc = subprocess.run(
        [sys.executable, "-m", "opasim", "margins", str(scn), "--out-dir", str(tmp_path)],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "margins_report.json").is_file()


def test_python_dash_m_opasim_cli_runs_cli(tmp_path):
    scn = SCENARIO_DIR / "zero_span_locked.scenario"
    proc = subprocess.run(
        [sys.executable, "-m", "opasim.cli", "margins", str(scn), "--out-dir", str(tmp_path)],
        env=src_env(), capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "margins_report.json").is_file()


def readme_cli_examples():
    text = (REPO / "README.md").read_text()
    block = re.search(r"### Command line\s+```sh\n(.*?)```", text, re.S).group(1)
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("opasim ")]


def test_readme_cli_examples_run(tmp_path, monkeypatch):
    examples = readme_cli_examples()
    assert len(examples) >= 5
    monkeypatch.chdir(REPO)
    for argv in examples:
        assert run([*argv, "--out-dir", str(tmp_path), "--quiet"]) == 0, argv
