"""Tests for fault localization: the excess-field map at an alarm."""

import dataclasses

import numpy as np
import pytest

from packdiag.errors import ConfigError
from packdiag.fusion import MIN_WINDOW, DetectorParams
from packdiag.locate import ContributionMap, contribution_rows, contributions_at
from packdiag.pack import LAYOUT, FaultSpec, SimConfig, simulate
from packdiag.pipeline import Telemetry, compensate, entropy_streams, run_detector


@pytest.fixture(scope="module")
def fault_tele():
    cfg = SimConfig(duration=260.0, rng_seed=10,
                    fault=FaultSpec(fault_cell=11, r_short=10.0, onset=150.0))
    return Telemetry.from_frames(simulate(cfg))


@pytest.fixture(scope="module")
def normal_tele():
    cfg = SimConfig(duration=120.0, rng_seed=21)
    return Telemetry.from_frames(simulate(cfg))


class TestLocalize:
    # the named cell is the argmax of the map, ties to the lowest serial
    def test_matches_map_serial(self, fault_tele, monkeypatch):
        excess = np.zeros((27, 24))
        excess[:, 16] = 0.3
        monkeypatch.setattr("packdiag.locate.compensate",
                            lambda temps: excess)
        cmap = contributions_at(fault_tele, 180.0, window=27)
        assert cmap.cell_serial - 1 == int(np.argmax(cmap.contributions)) == 16
        assert cmap.cell_serial == 17

    def test_scale_invariance(self, fault_tele):
        # a temperature unit five times finer scales the map, not the answer
        scaled = dataclasses.replace(fault_tele, temps=5.0 * fault_tele.temps)
        cmap = contributions_at(fault_tele, 180.0, window=27)
        cmap5 = contributions_at(scaled, 180.0, window=27)
        assert cmap5.cell_serial == cmap.cell_serial == 11
        np.testing.assert_allclose(cmap5.contributions, 5.0 * cmap.contributions,
                                   rtol=0, atol=1e-12)

    def test_exact_tie_takes_lower_serial(self, fault_tele, monkeypatch):
        excess = np.zeros((27, 24))
        excess[:, 6] = excess[:, 11] = 0.7
        monkeypatch.setattr("packdiag.locate.compensate",
                            lambda temps: excess)
        cmap = contributions_at(fault_tele, 180.0, window=27)
        assert cmap.contributions[6] == cmap.contributions[11]
        assert cmap.cell_serial - 1 == 6
        assert cmap.cell_serial == 7


class TestContributionRows:
    def test_export_shape_and_header(self):
        c = np.linspace(0.5, 1.0, 24)
        cmap = ContributionMap(contributions=c, t_start=1.0, t_f=27.0,
                               cell_serial=24)
        rows = contribution_rows(cmap)
        assert rows[0] == "cell,serial,x,y,C"
        assert len(rows) == 25
        fields = rows[4].split(",")
        assert fields[0] == "T04"
        assert fields[1] == "4"
        assert float(fields[2]) == pytest.approx(LAYOUT.cell_centers[3, 0], abs=1e-9)
        assert float(fields[3]) == pytest.approx(LAYOUT.cell_centers[3, 1], abs=1e-9)
        assert float(fields[4]) == pytest.approx(c[3], abs=1e-9)


class TestContributionsAt:
    def test_recovers_injected_cell(self, fault_tele):
        params = DetectorParams(window=27, train_len=120)
        report = run_detector(fault_tele, params)
        post = report.outcome.alarms & (fault_tele.labels == 1)
        t_f = float(report.outcome.times[post][0])
        cmap = contributions_at(fault_tele, t_f, window=27)
        assert cmap.cell_serial == 11
        assert cmap.t_f == t_f
        assert cmap.t_start == t_f - 26.0

    def test_matches_direct_recomputation(self, fault_tele):
        w = 27
        t_f = 180.0
        cmap = contributions_at(fault_tele, t_f, window=w)
        idx = int(np.searchsorted(fault_tele.times, t_f))
        excess = compensate(fault_tele.temps)
        acc = np.zeros(24)
        for k in range(idx - w + 1, idx + 1):
            acc += excess[k]
        np.testing.assert_allclose(cmap.contributions, acc / w,
                                   rtol=0, atol=1e-15)
        assert cmap.cell_serial == int(np.argmax(acc)) + 1

    def test_earliest_alarm_on_normal_data_is_quiet(self, normal_tele):
        # only one full window exists there; with no short, each cell's
        # mean excess is sensor noise averaged over the window (every
        # compensated cell is a unit-norm-or-less mix of sensors), and the
        # scores carry no common mode
        w = 27
        cmap = contributions_at(normal_tele, 27.0, window=w)
        noise = SimConfig().temp_noise_std / np.sqrt(w)
        assert np.abs(cmap.contributions).max() < 5.0 * noise
        assert abs(cmap.contributions.sum()) < 1e-12
        assert cmap.t_start == 1.0

    def test_kelvin_and_celsius_agree(self, fault_tele):
        celsius = dataclasses.replace(fault_tele,
                                      temps=fault_tele.temps - 273.15)
        params = DetectorParams(window=27, train_len=120)
        rep_k = run_detector(fault_tele, params)
        rep_c = run_detector(celsius, params)
        assert rep_k.outcome.alarms.any()
        np.testing.assert_allclose(rep_c.h_stream, rep_k.h_stream,
                                   rtol=0, atol=1e-12)
        np.testing.assert_array_equal(rep_c.outcome.alarms,
                                      rep_k.outcome.alarms)
        post = rep_k.outcome.alarms & (fault_tele.labels == 1)
        t_f = float(rep_k.outcome.times[post][0])
        map_k = contributions_at(fault_tele, t_f, window=27)
        map_c = contributions_at(celsius, t_f, window=27)
        assert map_c.cell_serial == map_k.cell_serial == 11
        np.testing.assert_allclose(map_c.contributions, map_k.contributions,
                                   rtol=0, atol=1e-12)

    def test_warmup_alarm_rejected(self, fault_tele):
        with pytest.raises(ConfigError, match="warm-up"):
            contributions_at(fault_tele, 5.0, window=27)

    def test_unsampled_time_rejected(self, fault_tele):
        with pytest.raises(ValueError):
            contributions_at(fault_tele, 177.5, window=27)

    def test_window_floor_is_the_detectors(self, fault_tele):
        # no detector window is shorter than MIN_WINDOW, so no alarm map is
        with pytest.raises(ConfigError, match=f"at least {MIN_WINDOW}"):
            contributions_at(fault_tele, 180.0, window=MIN_WINDOW - 1)
        contributions_at(fault_tele, 180.0, window=MIN_WINDOW)

    @pytest.mark.parametrize("measure", [
        entropy_streams, lambda tele, w: contributions_at(tele, 180.0, w)],
        ids=["entropy_streams", "contributions_at"])
    @pytest.mark.parametrize("window, match", [
        (27.5, "window must be an integer, got 27.5"),
        (True, "window must be an integer, got True"),
        (3, f"window must be at least {MIN_WINDOW}")],
        ids=["float", "bool", "short"])
    def test_window_is_checked_as_given(self, fault_tele, measure, window,
                                        match):
        # 27.5 used to run as 27 frames, and True to fail the floor as 1
        with pytest.raises(ConfigError, match=match):
            measure(fault_tele, window)
        assert measure(fault_tele, np.int64(27)) is not None
