"""Tests for dataset, params, and scenario file round-trips."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from packdiag.errors import ConfigError, DataFormatError
from packdiag.fusion import DetectorParams
from packdiag.io import (
    DATASET_HEADER,
    read_dataset,
    read_params,
    read_scenario,
    write_dataset,
    write_params,
    write_scenario,
)
from packdiag.pack import FaultSpec, SimConfig, simulate
from packdiag.pipeline import Telemetry

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture(scope="module")
def short_tele():
    cfg = SimConfig(duration=40.0, rng_seed=5,
                    fault=FaultSpec(fault_cell=7, r_short=10.0, onset=25.0))
    return Telemetry.from_frames(simulate(cfg))


class TestDatasetFile:
    def test_header_layout(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().split("\n")
        temps = ",".join(f"T{i:02d}" for i in range(1, 25))
        volts = ",".join(f"V{j}" for j in range(1, 7))
        assert lines[0] == f"t,{temps},{volts},I,label"
        assert lines[0] == DATASET_HEADER
        # one row per frame, trailing newline
        assert len(lines) == short_tele.n_frames + 2
        assert lines[-1] == ""

    def test_round_trip_values(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        back = read_dataset(path)
        np.testing.assert_allclose(back.times, short_tele.times, atol=1e-9)
        np.testing.assert_allclose(back.temps, short_tele.temps, atol=1e-9)
        np.testing.assert_allclose(back.volts, short_tele.volts, atol=1e-9)
        np.testing.assert_allclose(back.current, short_tele.current, atol=1e-9)
        assert np.array_equal(back.labels, short_tele.labels)
        assert back.labels.dtype.kind == "i"

    def test_label_column_is_integral(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        for line in path.read_text().splitlines()[1:]:
            assert line.rsplit(",", 1)[1] in ("0", "1")

    def test_write_is_deterministic(self, tmp_path, short_tele):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_dataset(a, short_tele)
        write_dataset(b, short_tele)
        assert a.read_bytes() == b.read_bytes()

    def test_wrong_field_count_names_line(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        lines[4] = lines[4].rsplit(",", 3)[0]  # drop three fields on line 5
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 5"):
            read_dataset(path)

    def test_non_numeric_field_names_line(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        parts = lines[2].split(",")
        parts[3] = "oops"
        lines[2] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 3"):
            read_dataset(path)

    def test_out_of_range_label_names_line(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0] + ",2"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 7"):
            read_dataset(path)

    @pytest.mark.parametrize("text", ["1.0", "one", ""])
    def test_non_integer_label_names_line(self, tmp_path, short_tele, text):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        lines[6] = lines[6].rsplit(",", 1)[0] + "," + text
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError,
                           match="line 7: label must be an integer"):
            read_dataset(path)

    @pytest.mark.parametrize("column, text", [(5, "nan"), (26, "inf"),
                                              (0, "-inf"), (31, "NaN")])
    def test_non_finite_field_names_line(self, tmp_path, short_tele, column,
                                         text):
        # column 5 is a cell temperature, 26 a group voltage, 31 the current
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        parts = lines[8].split(",")
        parts[column] = text
        lines[8] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match="line 9: non-finite"):
            read_dataset(path)

    @pytest.mark.parametrize("text", ["7", "4", "9"])
    def test_time_must_increase_names_line(self, tmp_path, short_tele, text):
        # line 9 carries t = 8; a repeat of the previous frame's time or a jump
        # back is rejected, and so is a jump ahead that the next frame undercuts
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        parts = lines[8].split(",")
        parts[0] = text
        lines[8] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        line = 10 if text == "9" else 9
        with pytest.raises(DataFormatError, match=f"line {line}: time"):
            read_dataset(path)

    def test_dropped_frame_names_line(self, tmp_path, short_tele):
        # line 10 (t = 9) goes, so line 10 then carries t = 10 two seconds
        # after t = 8: windows would span 28 s where training counts 27
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        del lines[9]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError,
                           match="line 10: sample interval 2 s"):
            read_dataset(path)

    def test_jitter_within_tolerance_accepted(self, tmp_path, short_tele):
        # t = 8.08 leaves intervals of 1.08 and 0.92 s, both within 10 %
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        lines = path.read_text().splitlines()
        parts = lines[8].split(",")
        parts[0] = "8.08"
        lines[8] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        assert read_dataset(path).times[7] == 8.08

    def test_wrong_header_rejected(self, tmp_path, short_tele):
        path = tmp_path / "run.csv"
        write_dataset(path, short_tele)
        body = path.read_text().split("\n", 1)[1]
        path.write_text("time,stuff\n" + body)
        with pytest.raises(DataFormatError, match="header"):
            read_dataset(path)

    def test_read_peak_is_text_lines_and_table(self, tmp_path):
        # rows are parsed straight into one float table, so the traced peak
        # is the file's text and its lines (about twice the file) or the
        # lines and the table; lists of Python floats took 1.9 KB a frame
        n = 2000
        rng = np.random.default_rng(6)
        tele = Telemetry(times=np.arange(1.0, n + 1),
                         temps=rng.normal(300.0, 1.0, (n, 24)),
                         volts=rng.normal(14.4, 0.1, (n, 6)),
                         current=rng.normal(-10.0, 1.0, n),
                         labels=np.zeros(n, dtype=int))
        path = tmp_path / "run.csv"
        write_dataset(path, tele)
        read_dataset(path)  # one-time allocations do not count
        tracemalloc.start()
        try:
            back = read_dataset(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        table = 8 * n * 32  # t, 24 temperatures, 6 voltages and I a row
        assert back.n_frames == n
        assert peak <= 2 * path.stat().st_size + table, peak

    def test_empty_body_rejected(self, tmp_path):
        path = tmp_path / "run.csv"
        path.write_text(DATASET_HEADER + "\n")
        with pytest.raises(DataFormatError):
            read_dataset(path)


class TestParamsFile:
    def test_write_read_write_is_byte_identical(self, tmp_path):
        p1, p2 = tmp_path / "a.params", tmp_path / "b.params"
        write_params(p1, DetectorParams())
        write_params(p2, read_params(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_calibrated_round_trip(self, tmp_path):
        params = DetectorParams(window=31, alpha=(0.25, 0.5, 0.25), beta=0.95,
                                train_len=500, max_hd=0.0932165712345,
                                max_hs=0.107 / 3.0, max_ht=1.25e-3,
                                h_r=0.6180339887498949)
        p1, p2 = tmp_path / "a.params", tmp_path / "b.params"
        write_params(p1, params)
        back = read_params(p1)
        assert back == params
        write_params(p2, back)
        assert p1.read_bytes() == p2.read_bytes()

    def test_types_restored(self, tmp_path):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        back = read_params(path)
        assert isinstance(back.window, int)
        assert isinstance(back.train_len, int)
        assert isinstance(back.alpha, tuple) and len(back.alpha) == 3
        assert all(isinstance(a, float) for a in back.alpha)
        assert back.max_hd is None and back.h_r is None

    def test_shipped_defaults_content(self, tmp_path):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        text = path.read_text()
        assert "window = 27" in text
        assert "alpha1 = 0.216" in text
        assert "alpha2 = 0.573" in text
        assert "alpha3 = 0.211" in text
        assert "beta = 0.99" in text

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        path.write_text(path.read_text() + "gamma = 1\n")
        with pytest.raises(ConfigError, match="gamma"):
            read_params(path)

    def test_first_fault_in_file_order_is_named(self, tmp_path):
        path = tmp_path / "a.params"
        path.write_text("zeta = 1\nwindow = soon\ngamma = 1\n")
        with pytest.raises(ConfigError, match="unknown params key 'zeta'"):
            read_params(path)

    def test_bad_value_names_key(self, tmp_path):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        path.write_text(path.read_text().replace("window = 27",
                                                 "window = soon"))
        with pytest.raises(ConfigError, match="window"):
            read_params(path)

    def test_window_below_floor_rejected_on_read(self, tmp_path):
        path = tmp_path / "p.params"
        path.write_text("window = 3\n")
        with pytest.raises(ConfigError, match="window"):
            read_params(path)

    def test_invalid_weights_rejected_on_read(self, tmp_path):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        path.write_text(path.read_text().replace("alpha1 = 0.216",
                                                 "alpha1 = 0.716"))
        with pytest.raises(ConfigError):
            read_params(path)

    def test_nan_weight_rejected_on_read(self, tmp_path):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        path.write_text(path.read_text().replace("alpha1 = 0.216",
                                                 "alpha1 = nan"))
        with pytest.raises(ConfigError, match="alpha"):
            read_params(path)

    @pytest.mark.parametrize("line", ["max_hd = nan", "max_hd = inf",
                                      "h_r = nan"])
    def test_non_finite_calibration_rejected_on_read(self, tmp_path, line):
        path = tmp_path / "a.params"
        write_params(path, DetectorParams())
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ConfigError, match="must be finite"):
            read_params(path)

    def test_non_positive_train_len_rejected_on_read(self, tmp_path):
        path = tmp_path / "a.params"
        path.write_text("train_len = -5\n")
        with pytest.raises(ConfigError, match="train_len must be positive"):
            read_params(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "a.params"
        path.write_text("window 27\n")
        with pytest.raises(ConfigError):
            read_params(path)


class TestScenarioFile:
    def test_round_trip_normal(self, tmp_path):
        cfg = SimConfig(duration=40.0, rng_seed=7)
        path = tmp_path / "normal.scenario"
        write_scenario(path, cfg)
        assert read_scenario(path) == cfg

    def test_round_trip_fault(self, tmp_path):
        cfg = SimConfig(duration=120.0, rng_seed=103, discharge_rate=1.0,
                        fault=FaultSpec(fault_cell=23, r_short=5.0,
                                        onset=60.0))
        path = tmp_path / "sc.scenario"
        write_scenario(path, cfg)
        back = read_scenario(path)
        assert back == cfg
        assert back.fault.fault_cell == 23
        assert back.fault.r_short == 5.0

    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "sparse.scenario"
        path.write_text("duration = 55.0\nrng_seed = 9\n")
        cfg = read_scenario(path)
        assert cfg == SimConfig(duration=55.0, rng_seed=9)

    def test_comments_and_blanks_ignored(self, tmp_path):
        path = tmp_path / "c.scenario"
        path.write_text("# demo run\n\nduration = 55.0\nrng_seed = 9\n")
        assert read_scenario(path) == SimConfig(duration=55.0, rng_seed=9)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "c.scenario"
        path.write_text("duration = 55.0\nvoltage_cap = 4\n")
        with pytest.raises(ConfigError, match="voltage_cap"):
            read_scenario(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key", [
        "dt", "duration", "ambient", "h_forced", "h_natural",
        "temp_noise_std", "volt_noise_std", "discharge_rate", "initial_soc",
        "sample_interval", "r_short", "onset"])
    def test_non_finite_value_named(self, tmp_path, key, value):
        # NaN passes every range rule, and inf overflows the frame count
        entries = {"duration": "55.0", "fault_cell": "4", "r_short": "10.0",
                   "onset": "30.0", key: value}
        path = tmp_path / "c.scenario"
        path.write_text("".join(f"{k} = {v}\n" for k, v in entries.items()))
        with pytest.raises(ConfigError, match=f"{key} must be finite"):
            read_scenario(path)

    def test_partial_fault_block_rejected(self, tmp_path):
        path = tmp_path / "c.scenario"
        path.write_text("duration = 55.0\nfault_cell = 4\n")
        with pytest.raises(ConfigError, match="r_short|onset"):
            read_scenario(path)

    def test_write_read_write_is_byte_identical(self, tmp_path):
        cfg = SimConfig(duration=120.0, rng_seed=103,
                        fault=FaultSpec(fault_cell=4, r_short=10.0,
                                        onset=60.0))
        p1, p2 = tmp_path / "a.scenario", tmp_path / "b.scenario"
        write_scenario(p1, cfg)
        write_scenario(p2, read_scenario(p1))
        assert p1.read_bytes() == p2.read_bytes()

    def test_shipped_files_rewritten_byte_for_byte(self, tmp_path):
        # the writer's key order is SimConfig's field order, fault last
        shipped = sorted(SCENARIOS.glob("*.scenario"))
        assert len(shipped) == 9
        for path in shipped:
            copy = tmp_path / path.name
            write_scenario(copy, read_scenario(path))
            assert copy.read_bytes() == path.read_bytes(), path.name
