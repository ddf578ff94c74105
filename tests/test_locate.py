"""Tests for fault localization: excess-field maps and basis-drift maps."""

import dataclasses

import numpy as np
import pytest

from packdiag.errors import ConfigError
from packdiag.fusion import DetectorParams
from packdiag.locate import (
    ContributionMap,
    contribution,
    contribution_rows,
    contributions_at,
)
from packdiag.pack import FaultSpec, SimConfig, build_layout, simulate
from packdiag.pipeline import Telemetry, run_detector
from packdiag.spacetime import Decomposition, compensate


def make_dec(phi: np.ndarray) -> Decomposition:
    phi = np.asarray(phi, dtype=float)
    order = phi.shape[1]
    return Decomposition(phi=phi, lam=np.ones(order),
                         coeffs=np.zeros((order, 3)), order=order,
                         effective_rank=order, degenerate=False)


def random_basis(rng, n, order):
    q, _ = np.linalg.qr(rng.normal(size=(n, order)))
    return q


@pytest.fixture(scope="module")
def fault_tele():
    cfg = SimConfig(duration=260.0, rng_seed=10,
                    fault=FaultSpec(fault_cell=11, r_short=10.0, onset=150.0))
    return Telemetry.from_frames(simulate(cfg))


@pytest.fixture(scope="module")
def normal_tele():
    cfg = SimConfig(duration=120.0, rng_seed=21)
    return Telemetry.from_frames(simulate(cfg))


class TestContribution:
    def test_identical_windows_score_zero(self):
        rng = np.random.default_rng(0)
        phi = random_basis(rng, 24, 2)
        initial = make_dec(phi)
        cmap = contribution([make_dec(phi.copy()) for _ in range(5)], initial)
        assert np.array_equal(cmap.contributions, np.zeros(24))
        assert cmap.cell_serial == 1  # all-equal tie resolves to the lowest

    def test_single_window_single_mode_is_plain_deviation(self):
        rng = np.random.default_rng(1)
        phi0 = random_basis(rng, 24, 1)
        phi1 = random_basis(rng, 24, 1)
        cmap = contribution([make_dec(phi1)], make_dec(phi0))
        expect = np.abs(phi1 - phi0)[:, 0]
        np.testing.assert_array_equal(cmap.contributions, expect)

    def test_point_perturbation_is_localized(self):
        rng = np.random.default_rng(2)
        phi0 = random_basis(rng, 24, 3)
        phi1 = phi0.copy()
        phi1[3] += 0.4
        cmap = contribution([make_dec(phi1)], make_dec(phi0))
        assert cmap.argmax_sensor == 3
        assert cmap.cell_serial == 4

    def test_averaging_over_windows_and_modes(self):
        rng = np.random.default_rng(3)
        phi0 = random_basis(rng, 6, 2)
        decs = [make_dec(random_basis(rng, 6, 2)) for _ in range(4)]
        cmap = contribution(decs, make_dec(phi0))
        manual = sum(np.abs(d.phi - phi0).sum(axis=1) for d in decs)
        manual /= 2 * 4
        np.testing.assert_allclose(cmap.contributions, manual, rtol=0, atol=1e-15)

    def test_mode_permutation_invariance(self):
        rng = np.random.default_rng(4)
        phi0 = random_basis(rng, 12, 3)
        phis = [random_basis(rng, 12, 3) for _ in range(3)]
        base = contribution([make_dec(p) for p in phis], make_dec(phi0))
        perm = [2, 0, 1]
        swapped = contribution([make_dec(p[:, perm]) for p in phis],
                               make_dec(phi0[:, perm]))
        np.testing.assert_allclose(swapped.contributions, base.contributions,
                                   rtol=0, atol=1e-15)

    def test_empty_window_list_rejected(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            contribution([], make_dec(random_basis(rng, 24, 1)))

    def test_order_mismatch_rejected(self):
        rng = np.random.default_rng(6)
        with pytest.raises(ValueError):
            contribution([make_dec(random_basis(rng, 24, 2))],
                         make_dec(random_basis(rng, 24, 1)))


class TestLocalize:
    # the named cell is the argmax of the map, ties to the lowest serial
    def test_matches_map_serial(self):
        rng = np.random.default_rng(7)
        phi0 = random_basis(rng, 24, 1)
        phi1 = phi0.copy()
        phi1[16] += 0.3
        cmap = contribution([make_dec(phi1)], make_dec(phi0))
        assert cmap.argmax_sensor == int(np.argmax(cmap.contributions)) == 16
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
                            lambda temps, coords: excess)
        cmap = contributions_at(fault_tele, 180.0, window=27)
        assert cmap.contributions[6] == cmap.contributions[11]
        assert cmap.argmax_sensor == 6
        assert cmap.cell_serial == 7

    def test_sensor_count_must_match_layout(self):
        layout = build_layout()
        cmap = ContributionMap(contributions=np.zeros(10), t_start=1.0,
                               t_f=27.0, argmax_sensor=0, cell_serial=1)
        with pytest.raises(ValueError):
            contribution_rows(cmap, layout)


class TestContributionRows:
    def test_export_shape_and_header(self):
        layout = build_layout()
        c = np.linspace(0.5, 1.0, 24)
        cmap = ContributionMap(contributions=c, t_start=1.0, t_f=27.0,
                               argmax_sensor=23, cell_serial=24)
        rows = contribution_rows(cmap, layout)
        assert rows[0] == "cell,serial,x,y,C"
        assert len(rows) == 25
        fields = rows[4].split(",")
        assert fields[0] == "T04"
        assert fields[1] == "4"
        assert float(fields[2]) == pytest.approx(layout.cell_centers[3, 0], abs=1e-9)
        assert float(fields[3]) == pytest.approx(layout.cell_centers[3, 1], abs=1e-9)
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
        excess = compensate(fault_tele.temps, build_layout().cell_centers)
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
