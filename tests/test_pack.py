"""Tests for the pack simulator: geometry, circuit, thermal stepping, end-to-end runs."""

import dataclasses
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from packdiag import pack
from packdiag.errors import ConfigError, SimulationError
from packdiag.io import read_scenario
from packdiag.pack import (
    CAPACITY_AH,
    HEIGHT,
    INTERNAL_RESISTANCE,
    LAYOUT,
    MAX_FRAMES,
    MAX_SUBSTEPS,
    N_CELLS,
    N_GROUPS,
    NODE,
    NX,
    NY,
    OCV_COEFFS,
    ROWS,
    STABLE_DT,
    VOLUMETRIC_HEAT_CAPACITY,
    FaultSpec,
    SimConfig,
    deposit_sources,
    heat_generation,
    initial_electrical_state,
    ocv_of_soc,
    step_electrical,
    step_thermal,
    simulate,
)
from paper_oracles import ledgered_simulate, stencil_simulate, stencil_step

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"

# cell indices, one row per series group (a column of parallel cells)
SERIES_GROUPS = np.arange(N_CELLS).reshape(N_GROUPS, ROWS)


def _footprints():
    return np.split(LAYOUT.footprint_nodes, np.cumsum(LAYOUT.footprint_counts)[:-1])


def _looped_step_electrical(state, pack_current, fault, t, dt):
    # reference: solve each series group's parallel network one group at a time
    ocv = ocv_of_soc(state.soc)
    r = INTERNAL_RESISTANCE
    active = fault is not None and t >= fault.onset
    fault_idx = fault.fault_cell - 1 if fault is not None else -1

    group_v = np.empty(N_GROUPS)
    branch = np.empty(N_CELLS)
    drain = np.zeros(N_CELLS)
    for g, grp in enumerate(SERIES_GROUPS):
        denom = len(grp) / r
        if active and fault_idx in grp:
            denom += 1.0 / fault.r_short
        if denom <= 0 or not np.isfinite(denom):
            raise SimulationError("singular parallel network")
        v = (ocv[grp].sum() / r - pack_current) / denom
        group_v[g] = v
        branch[grp] = (ocv[grp] - v) / r
        if active and fault_idx in grp:
            drain[fault_idx] = v / fault.r_short
            branch[fault_idx] -= drain[fault_idx]
    soc = state.soc - (branch + drain) * dt / (3600.0 * CAPACITY_AH)
    return soc, branch, drain, group_v


def _looped_heat(branch, drain, group_v, fault, t):
    # reference: Joule heat per cell, then the short's V_group * I_drain in the faulted one
    watts = (branch + drain) ** 2 * INTERNAL_RESISTANCE
    if fault is not None and t >= fault.onset:
        f = fault.fault_cell - 1
        watts[f] += group_v[f // ROWS] * drain[f]
    return watts


def _looped_deposit(cell_watts):
    # reference: fill one footprint at a time
    src = np.zeros(NX * NY)
    node_vol = NODE * NODE * HEIGHT
    for c, fp in enumerate(_footprints()):
        src[fp] = cell_watts[c] / (len(fp) * node_vol)
    return src.reshape(NX, NY)


def _ocv_power_sum(soc):
    # independent oracle: evaluate the open-circuit-voltage polynomial term by term
    coeffs = [-34.39, 127.38, -182.10, 127.24, -45.57, 8.40, 3.19]
    total = 0.0
    for k, c in enumerate(coeffs):
        total += c * soc ** (6 - k)
    return total


class TestCellModel:
    def test_ocv_endpoints(self):
        assert abs(ocv_of_soc(0.0) - 3.19) < 1e-12
        assert abs(ocv_of_soc(1.0) - 4.15) < 1e-12

    def test_ocv_matches_power_sum_oracle(self):
        rng = np.random.default_rng(7)
        for soc in rng.uniform(0.0, 1.0, 200):
            assert abs(ocv_of_soc(soc) - _ocv_power_sum(soc)) < 1e-12

    def test_ocv_is_polyval_bit_for_bit(self):
        socs = np.linspace(0.0, 1.0, 100_001)
        assert np.array_equal(ocv_of_soc(socs), np.polyval(OCV_COEFFS, socs))
        for soc in socs[::997]:
            assert ocv_of_soc(float(soc)) == np.polyval(OCV_COEFFS, soc)

    def test_ocv_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ocv_of_soc(-0.01)
        with pytest.raises(ValueError):
            ocv_of_soc(1.01)

    def test_ocv_vectorized(self):
        socs = np.array([0.0, 0.5, 1.0])
        out = ocv_of_soc(socs)
        assert out.shape == (3,)
        assert abs(out[2] - 4.15) < 1e-12


class TestLayout:
    def test_first_cell_center(self):
        assert abs(LAYOUT.cell_centers[0, 0] - 0.0115) < 1e-12
        assert abs(LAYOUT.cell_centers[0, 1] - 0.0115) < 1e-12

    def test_extent(self):
        # the thermal grid spans the whole pack
        assert abs(NX * NODE - 6 * 0.023) < 1e-12
        assert abs(NY * NODE - 4 * 0.023) < 1e-12

    def test_grid_spacing(self):
        assert abs(NODE - 0.023 / 4) < 1e-12
        assert NX == 24 and NY == 16

    def test_serials_column_major(self):
        # serial 5 starts the second column
        c5 = LAYOUT.cell_centers[4]
        assert abs(c5[0] - (0.023 + 0.0115)) < 1e-12
        assert abs(c5[1] - 0.0115) < 1e-12

    def test_groups_partition(self):
        # the simulator's (N_GROUPS, ROWS) reshape makes each column one group
        assert N_GROUPS == 6 and ROWS == 4
        for g, grp in enumerate(SERIES_GROUPS):
            assert np.allclose(LAYOUT.cell_centers[grp, 0], (g + 0.5) * 0.023,
                               rtol=0, atol=1e-12)
        # column-wise: first group is serials 1..4
        assert SERIES_GROUPS[0].tolist() == [0, 1, 2, 3]

    def test_footprints_nonempty_disjoint(self):
        all_nodes = LAYOUT.footprint_nodes
        assert len(all_nodes) == len(set(all_nodes.tolist()))
        for fp in _footprints():
            assert len(fp) >= 1

    def test_footprint_nodes_inside_circle(self):
        xs = (np.arange(NX) + 0.5) * NODE
        ys = (np.arange(NY) + 0.5) * NODE
        r = 0.021 / 2
        for c, fp in enumerate(_footprints()):
            i, j = np.unravel_index(fp, (NX, NY))
            d = np.hypot(xs[i] - LAYOUT.cell_centers[c, 0], ys[j] - LAYOUT.cell_centers[c, 1])
            assert (d <= r + 1e-12).all()


class TestElectrical:
    def test_symmetric_discharge(self):
        state = initial_electrical_state(initial_soc=0.9)
        nxt = step_electrical(state, 9.6, None, 0.0, 1.0)
        ocv = ocv_of_soc(0.9)
        assert np.allclose(nxt.branch_current, 2.4, atol=1e-12)
        assert np.allclose(nxt.group_voltage, ocv - 9.6 * 0.03 / 4, atol=1e-12)
        # coulomb counting moves every soc identically
        assert np.allclose(nxt.soc, 0.9 - 2.4 / (3600 * 4.8), atol=1e-15)

    def test_zero_current_open_circuit(self):
        state = initial_electrical_state(initial_soc=0.7)
        nxt = step_electrical(state, 0.0, None, 0.0, 1.0)
        assert np.allclose(nxt.branch_current, 0.0, atol=1e-12)
        assert np.allclose(nxt.group_voltage, ocv_of_soc(0.7), atol=1e-12)

    def test_fault_against_dense_solve(self):
        # oracle: set up the full linear system for the faulted group and solve it
        fault = FaultSpec(fault_cell=4, r_short=10.0, onset=0.0)
        rng = np.random.default_rng(3)
        soc = 0.9 + 0.02 * rng.uniform(-1, 1, 24)
        state = initial_electrical_state(initial_soc=0.9)
        state.soc[:] = soc
        nxt = step_electrical(state, 9.6, fault, 5.0, 1.0)

        grp = SERIES_GROUPS[0]  # fault cell 4 sits in the first group
        ocv = ocv_of_soc(soc[grp])
        r = INTERNAL_RESISTANCE
        # unknowns: four bus branch currents and the group voltage
        a = np.zeros((5, 5))
        b = np.zeros(5)
        for row, cell in enumerate(grp):
            a[row, row] = r
            a[row, 4] = 1.0 + (r / 10.0 if cell == 3 else 0.0)
            b[row] = ocv[row]
        a[4, :4] = 1.0
        b[4] = 9.6
        sol = np.linalg.solve(a, b)
        assert np.allclose(nxt.branch_current[grp], sol[:4], atol=1e-9)
        assert abs(nxt.group_voltage[0] - sol[4]) < 1e-9
        assert abs(nxt.drain_current[3] - sol[4] / 10.0) < 1e-9
        # the short pulls roughly V/R_short
        assert 0.3 < nxt.drain_current[3] < 0.45

    def test_branch_currents_sum_to_pack_current(self):
        fault = FaultSpec(fault_cell=11, r_short=5.0, onset=0.0)
        state = initial_electrical_state(initial_soc=0.95)
        rng = np.random.default_rng(11)
        state.soc[:] = 0.9 + 0.05 * rng.uniform(-1, 1, 24)
        for k in range(200):
            state = step_electrical(state, 9.6, fault, float(k), 0.5)
            for grp in SERIES_GROUPS:
                assert abs(state.branch_current[grp].sum() - 9.6) < 1e-9

    def test_fault_inactive_before_onset(self):
        fault = FaultSpec(fault_cell=4, r_short=10.0, onset=100.0)
        state = initial_electrical_state(initial_soc=0.9)
        nxt = step_electrical(state, 9.6, fault, 99.0, 1.0)
        assert nxt.drain_current.sum() == 0.0
        nxt2 = step_electrical(nxt, 9.6, fault, 100.0, 1.0)
        assert nxt2.drain_current[3] > 0.0

    def test_heat_generation_joule(self):
        state = initial_electrical_state(initial_soc=0.9)
        state.branch_current[:] = 2.4
        watts = heat_generation(state)
        assert np.allclose(watts, 2.4**2 * 0.03, atol=1e-12)
        assert abs(watts[0] - 0.1728) < 1e-12

    def test_matches_per_group_loop(self):
        # a fault in each group, before and after onset, from random states of charge
        rng = np.random.default_rng(19)
        for g in range(N_GROUPS):
            cell = g * ROWS + int(rng.integers(ROWS)) + 1
            fault = FaultSpec(fault_cell=cell, r_short=float(rng.uniform(2.0, 20.0)),
                              onset=50.0)
            for t in (49.5, 50.0, 80.0):
                state = initial_electrical_state(initial_soc=0.9)
                state.soc[:] = rng.uniform(0.2, 1.0, N_CELLS)
                nxt = step_electrical(state, 9.6, fault, t, 0.5)
                soc, branch, drain, group_v = _looped_step_electrical(
                    state, 9.6, fault, t, 0.5)
                assert np.array_equal(nxt.soc, soc)
                assert np.array_equal(nxt.branch_current, branch)
                assert np.array_equal(nxt.drain_current, drain)
                assert np.array_equal(nxt.group_voltage, group_v)
                assert (nxt.drain_current[cell - 1] > 0) == (t >= fault.onset)
                assert np.array_equal(
                    heat_generation(nxt),
                    _looped_heat(branch, drain, group_v, fault, t))

    def test_singular_network_raises(self):
        # 1 / 1e-320 overflows to inf, so the parallel conductance is not finite
        fault = FaultSpec(fault_cell=4, r_short=1e-320, onset=0.0)
        state = initial_electrical_state(initial_soc=0.9)
        for solve in (step_electrical, _looped_step_electrical):
            with pytest.raises(SimulationError):
                solve(state, 9.6, fault, 0.0, 0.5)

    def test_pack_current_from_rate(self):
        # a short changes the cells, not the load the pack is asked for
        fault = FaultSpec(fault_cell=4, r_short=10.0, onset=5.0)
        for rate, spec in ((2.0, None), (1.0, None), (1.0, fault)):
            cfg = SimConfig(duration=10.0, discharge_rate=rate, fault=spec,
                            volt_noise_std=0.0)
            currents = np.array([f.pack_current for f in simulate(cfg)])
            assert (abs(currents - rate * 4.8) < 1e-12).all()

    def test_fault_keeps_the_runs_c_rate(self):
        fault = FaultSpec(fault_cell=4, r_short=10.0, onset=5.0)
        for spec in (fault, None):
            cfg = SimConfig(duration=10.0, discharge_rate=1.0, fault=spec)
            drawn = np.mean([f.pack_current for f in simulate(cfg)])
            assert abs(drawn - 4.8) < 5 * cfg.volt_noise_std


class TestThermal:
    def _config(self, **kw):
        base = dict(dt=0.5, duration=10.0, temp_noise_std=0.0, volt_noise_std=0.0)
        base.update(kw)
        return SimConfig(**base)

    def test_stability_limit_value(self):
        want = (0.023 / 4) ** 2 / (2 * (1e-5 + 1e-5))
        assert abs(STABLE_DT - want) < 1e-12

    def test_uniform_field_stays_put(self):
        cfg = self._config(ambient=293.15)
        field = np.full((NX, NY), 293.15)
        src = np.zeros((NX, NY))
        nxt = step_thermal(field, src, cfg.dt, cfg)
        assert np.allclose(nxt, 293.15, atol=1e-12)

    def test_insulated_mean_conserved(self):
        cfg = self._config(h_forced=0.0, h_natural=0.0)
        rng = np.random.default_rng(5)
        t0 = 293.15 + rng.uniform(0, 10, (NX, NY))
        field = t0.copy()
        src = np.zeros_like(t0)
        for _ in range(50):
            field = step_thermal(field, src, cfg.dt, cfg)
        assert abs(field.mean() / t0.mean() - 1.0) < 1e-12

    def test_hot_node_diffuses(self):
        cfg = self._config(h_forced=0.0, h_natural=0.0)
        t0 = np.full((NX, NY), 293.15)
        t0[10, 8] += 5.0
        field = step_thermal(t0.copy(), np.zeros_like(t0), cfg.dt, cfg)
        assert field[10, 8] < t0[10, 8]
        assert field[9, 8] > 293.15
        assert field[10, 7] > 293.15

    def test_convection_pulls_toward_ambient(self):
        cfg = self._config(ambient=293.15)
        t0 = np.full((NX, NY), 303.15)
        field = t0
        for _ in range(200):
            field = step_thermal(field, np.zeros_like(t0), cfg.dt, cfg)
        assert (field < 303.15).all()
        assert (field >= 293.15 - 1e-9).all()
        # forced-air edge cools fastest
        assert field[0, 8] < field[-1, 8]

    def test_source_heats_footprint(self):
        cfg = self._config(h_forced=0.0, h_natural=0.0)
        t0 = np.full((NX, NY), 293.15)
        src = np.zeros_like(t0)
        fp = _footprints()[0]
        src.ravel()[fp] = 1e4
        field = step_thermal(t0, src, cfg.dt, cfg)
        i, j = np.unravel_index(fp[0], (NX, NY))
        assert abs(field[i, j] - (293.15 + 0.5 * 1e4 / 2e6)) < 1e-12

    @pytest.mark.parametrize("h_forced, h_natural", [(25.0, 5.0), (0.0, 0.0),
                                                     (400.0, 60.0)])
    def test_step_matches_stencil(self, h_forced, h_natural):
        # the Kronecker sum of the two chains is the 2-D stencil
        cfg = self._config(h_forced=h_forced, h_natural=h_natural)
        rng = np.random.default_rng(31)
        for _ in range(20):
            field = 293.15 + rng.uniform(-5.0, 15.0, (NX, NY))
            src = deposit_sources(rng.uniform(0.0, 3.0, N_CELLS))
            got = step_thermal(field, src, cfg.dt, cfg)
            want = stencil_step(field, src, cfg.dt, cfg)
            assert np.abs(got - want).max() <= 1e-12

    def test_deposit_matches_per_footprint_loop(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            watts = rng.uniform(0.0, 2.0, N_CELLS)
            assert np.array_equal(deposit_sources(watts),
                                  _looped_deposit(watts))


class TestSimulate:
    def test_rejects_unstable_dt(self):
        with pytest.raises(ConfigError):
            SimConfig(dt=0.9, duration=10.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(duration=10.0), dt=0.9)

    def test_rejects_zero_duration(self):
        with pytest.raises(ConfigError):
            SimConfig(duration=0.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(SimConfig(), duration=0.0)

    def test_rejects_bad_fault_cell(self):
        with pytest.raises(ConfigError):
            FaultSpec(fault_cell=25, r_short=10.0, onset=5.0)
        fault = FaultSpec(fault_cell=4, r_short=10.0, onset=5.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(fault, fault_cell=25)

    @pytest.mark.parametrize("value", [4.5, True, "4"])
    def test_fault_cell_must_be_an_integer(self, value):
        # 4.5 would index the cell array, and True would name cell 1
        with pytest.raises(ConfigError, match="fault_cell must be an integer"):
            FaultSpec(fault_cell=value, r_short=10.0, onset=5.0)
        fault = FaultSpec(fault_cell=4, r_short=10.0, onset=5.0)
        with pytest.raises(ConfigError, match="fault_cell must be an integer"):
            dataclasses.replace(fault, fault_cell=value)
        FaultSpec(fault_cell=np.int64(4), r_short=10.0, onset=5.0)

    @pytest.mark.parametrize("value", [1.5, True, "1"])
    def test_rng_seed_must_be_an_integer(self, value):
        with pytest.raises(ConfigError, match="rng_seed must be an integer"):
            SimConfig(rng_seed=value)
        with pytest.raises(ConfigError, match="rng_seed must be an integer"):
            dataclasses.replace(SimConfig(), rng_seed=value)
        SimConfig(rng_seed=np.int64(1))

    @pytest.mark.parametrize("duration, sample_interval, frames",
                             [(30.0, 1.0, 30), (25.0, 2.5, 10),
                              (12.0, 0.4, 30), (7.0, 2.0, 3), (0.3, 0.1, 3),
                              (0.6, 0.5, 1)])
    def test_n_frames_is_an_undepleted_runs_length(self, duration,
                                                   sample_interval, frames):
        # one frame at each multiple of the interval up to the duration,
        # also when the quotient falls just short of a whole number
        # (0.3 / 0.1) or the duration is shorter than dt, which is near the
        # stability bound here
        cfg = SimConfig(dt=0.8, duration=duration,
                        sample_interval=sample_interval)
        assert cfg.n_frames == frames
        run = simulate(cfg)
        assert len(run) == cfg.n_frames
        assert run[-1].t <= duration * (1 + 1e-9)

    def test_rejects_duration_under_one_sample_interval(self):
        for duration, sample_interval in ((0.5, 2.0), (0.6, 1.0)):
            with pytest.raises(ConfigError, match="duration shorter than "
                               "one sample interval"):
                SimConfig(duration=duration, sample_interval=sample_interval)

    def test_rejects_overflowing_frame_count(self):
        # duration / sample_interval is infinite here, so there is no frame
        # count to floor
        with pytest.raises(ConfigError, match="sample_interval 1e-310"):
            SimConfig(duration=2000.0, sample_interval=1e-310)
        # the quotient is finite, but the 1e-9 allowance n_frames adds to it
        # overflows
        with pytest.raises(ConfigError, match="sample_interval 1.0 makes"):
            SimConfig(duration=1.7976931348623157e308, sample_interval=1.0)
        with pytest.raises(ConfigError, match="sample_interval"):
            dataclasses.replace(SimConfig(), sample_interval=1e-310)

    def test_rejects_more_frames_than_the_cap(self):
        assert SimConfig(duration=float(MAX_FRAMES)).n_frames == MAX_FRAMES
        with pytest.raises(ConfigError, match=f"sample_interval 1.0 makes a "
                           f"{MAX_FRAMES + 1.0!r} s run {MAX_FRAMES + 1} "
                           "frames long, more than MAX_FRAMES"):
            SimConfig(duration=MAX_FRAMES + 1.0)
        # 2,000,000,002 frames
        with pytest.raises(ConfigError, match="sample_interval 1e-06 makes"):
            SimConfig(duration=2000.0, sample_interval=1e-6)
        with pytest.raises(ConfigError, match="sample_interval 1e-06"):
            dataclasses.replace(SimConfig(), sample_interval=1e-6)

    def test_rejects_more_substeps_than_the_cap(self):
        # checked on construction: the runs below are never simulated
        assert MAX_SUBSTEPS == 2 * MAX_FRAMES
        cfg = SimConfig(duration=float(MAX_FRAMES))
        assert cfg.n_frames * cfg.substeps == MAX_SUBSTEPS
        cfg = SimConfig(duration=1e6, sample_interval=1e6)
        assert (cfg.n_frames, cfg.substeps) == (1, MAX_SUBSTEPS)
        # one frame of 2,000,000,000 substeps: 384 GB of heats
        with pytest.raises(ConfigError, match="sample_interval 1000000000.0 "
                           "at dt 0.5 makes a 1000000000.0 s run more than "
                           "MAX_SUBSTEPS = 2000000 substeps long"):
            SimConfig(duration=1e9, sample_interval=1e9)
        with pytest.raises(ConfigError, match="at dt 0.1 .* MAX_SUBSTEPS"):
            SimConfig(duration=2e5 + 1.0, dt=0.1)
        with pytest.raises(ConfigError, match="sample_interval 1000000000.0"):
            dataclasses.replace(SimConfig(), duration=1e9, sample_interval=1e9)
        # the quotient overflows: no substep count to take the ceiling of
        with pytest.raises(ConfigError, match="MAX_SUBSTEPS"):
            SimConfig(duration=1e308, sample_interval=1e308, dt=0.25)
        # the frame cap is checked first, and keeps its message
        with pytest.raises(ConfigError, match="more than MAX_FRAMES"):
            SimConfig(duration=MAX_FRAMES + 1.0, dt=0.1)

    def test_substeps_per_frame(self):
        # equal substeps of at most dt, to a relative 1e-12
        assert SimConfig().substeps == 2
        assert SimConfig(sample_interval=2.4, dt=0.5).substeps == 5
        assert SimConfig(sample_interval=0.3, dt=0.1).substeps == 3
        assert SimConfig(sample_interval=0.25, dt=0.5).substeps == 1

    def test_rejects_negative_seed(self):
        # numpy's own message names neither the key nor the value
        with pytest.raises(ConfigError,
                           match="rng_seed must be non-negative, got -1"):
            SimConfig(rng_seed=-1)
        with pytest.raises(ConfigError, match="rng_seed"):
            dataclasses.replace(SimConfig(), rng_seed=-1)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            SimConfig().duration = 1.0

    def test_frame_times_and_labels(self):
        cfg = SimConfig(
            duration=30.0,
            rng_seed=1,
            fault=FaultSpec(fault_cell=4, r_short=10.0, onset=20.0),
        )
        frames = simulate(cfg)
        assert len(frames) == 30
        assert frames[0].t == 1.0
        assert frames[-1].t == 30.0
        labels = [f.label for f in frames]
        assert labels == [0] * 20 + [1] * 10

    def test_deterministic_given_seed(self):
        cfg = SimConfig(duration=25.0, rng_seed=42,
                        fault=FaultSpec(fault_cell=7, r_short=10.0, onset=10.0))
        a = simulate(cfg)
        b = simulate(cfg)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa.cell_temps, fb.cell_temps)
            assert np.array_equal(fa.group_volts, fb.group_volts)
            assert fa.pack_current == fb.pack_current

    def test_seed_changes_noise(self):
        cfg1 = SimConfig(duration=5.0, rng_seed=1)
        cfg2 = SimConfig(duration=5.0, rng_seed=2)
        a = simulate(cfg1)
        b = simulate(cfg2)
        assert not np.array_equal(a[0].cell_temps, b[0].cell_temps)

    def test_energy_accounting_insulated(self, monkeypatch):
        # no convection, no noise: field energy gain equals injected heat
        cfg = SimConfig(
            duration=120.0,
            h_forced=0.0,
            h_natural=0.0,
            temp_noise_std=0.0,
            volt_noise_std=0.0,
            fault=FaultSpec(fault_cell=4, r_short=10.0, onset=30.0),
        )
        run = ledgered_simulate(cfg, monkeypatch)
        node_vol = NODE * NODE * HEIGHT
        gained = ((run.field - cfg.ambient) * VOLUMETRIC_HEAT_CAPACITY).sum() * node_vol
        assert run.heat_j > 0
        assert abs(gained / run.heat_j - 1.0) < 0.005

    def test_non_finite_temperature_raises(self, monkeypatch):
        monkeypatch.setattr(pack, "heat_generation",
                            lambda state: np.full(N_CELLS, np.nan))
        with pytest.raises(SimulationError, match="non-finite temperature"):
            simulate(SimConfig(duration=10.0))

    def test_memory_holds_heats_not_modes(self):
        # one frame of 2000 or of 20,000 substeps: the run holds neither a
        # (substeps, NX * NY) block of modal deposits (6.1 MB at 2000) nor
        # each substep's 24 heats (3.8 MB at 20,000), so its peak does not
        # grow with the substeps
        for dt in (0.5, 0.05):
            cfg = SimConfig(duration=1000.0, sample_interval=1000.0, dt=dt)
            tracemalloc.start()
            try:
                simulate(cfg)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 1.5e6, (dt, peak)

    def test_depleted_run_truncates(self):
        # 2C drains a branch at about 1.4e-4 soc/s, so 5% of charge lasts ~360 s
        cfg = SimConfig(duration=500.0, rng_seed=0, initial_soc=0.05)
        frames = simulate(cfg)
        assert 0 < len(frames) < cfg.n_frames

    def test_halving_short_resistance_heats_more(self):
        def peak(r_short):
            cfg = SimConfig(
                duration=200.0,
                temp_noise_std=0.0,
                volt_noise_std=0.0,
                fault=FaultSpec(fault_cell=4, r_short=r_short, onset=50.0),
            )
            frames = simulate(cfg)
            return max(f.cell_temps[3] for f in frames)

        assert peak(5.0) > peak(10.0)

    def test_fault_cell_heats_past_pack_median(self):
        # first benchmark scenario, run to the end; margin is a frozen regression value
        cfg = SimConfig(
            duration=2000.0,
            rng_seed=101,
            fault=FaultSpec(fault_cell=4, r_short=10.0, onset=1000.0),
        )
        frames = simulate(cfg)
        last = frames[-1]
        margin = last.cell_temps[3] - np.median(last.cell_temps)
        assert margin > 0.5
        # deterministic given the seed; guards against silent physics drift
        assert abs(margin - FROZEN_MARGIN_K) < 1e-6

    def test_faulted_group_voltage_sags(self):
        cfg = SimConfig(
            duration=60.0,
            temp_noise_std=0.0,
            volt_noise_std=0.0,
            fault=FaultSpec(fault_cell=4, r_short=10.0, onset=30.0),
        )
        frames = simulate(cfg)
        before = frames[28].group_volts
        after = frames[-1].group_volts
        sag = before - after
        assert sag[0] > sag[1:].max()


ORACLE_RUNS = {
    "sc01": read_scenario(SCENARIO_DIR / "sc01.scenario"),
    # 1 C
    "sc07": read_scenario(SCENARIO_DIR / "sc07.scenario"),
    "insulated": SimConfig(duration=120.0, h_forced=0.0, h_natural=0.0,
                           temp_noise_std=0.0, volt_noise_std=0.0,
                           fault=FaultSpec(fault_cell=4, r_short=10.0,
                                           onset=30.0)),
    # the short starts between the two substeps of frame 21
    "mid_frame_onset": SimConfig(duration=60.0, rng_seed=5,
                                 fault=FaultSpec(fault_cell=17, r_short=10.0,
                                                 onset=20.25)),
    # at 16 C a cell runs dry at 810 s
    "depleting": SimConfig(duration=900.0, discharge_rate=16.0, rng_seed=3),
    # five substeps of 0.5 s per frame, and one of 0.4 s
    "interval_2.5": SimConfig(duration=300.0, sample_interval=2.5, rng_seed=8,
                              fault=FaultSpec(fault_cell=9, r_short=5.0,
                                              onset=100.0)),
    "interval_0.4": SimConfig(duration=120.0, sample_interval=0.4, rng_seed=9,
                              fault=FaultSpec(fault_cell=21, r_short=10.0,
                                              onset=50.0)),
}


class TestAgainstStencil:
    """simulate against the parent's whole-field stencil loop: the circuit
    and the noise bit for bit, the temperatures to rounding."""

    @pytest.mark.parametrize("name", list(ORACLE_RUNS))
    def test_matches_stencil_simulate(self, name):
        cfg = ORACLE_RUNS[name]
        got, want = simulate(cfg), stencil_simulate(cfg)
        assert len(got) == len(want)
        if name == "depleting":
            assert len(got) == 810
        else:
            assert len(got) == cfg.n_frames
        for a, b in zip(got, want):
            assert a.t == b.t and a.label == b.label
            assert np.array_equal(a.group_volts, b.group_volts)
            assert a.pack_current == b.pack_current
        deviation = max(np.abs(a.cell_temps - b.cell_temps).max()
                        for a, b in zip(got, want))
        print(f"{name}: largest temperature deviation {deviation:.2e} K")
        assert deviation <= 1e-10


# frozen from the first deterministic run of scenario 1 (seed 101)
FROZEN_MARGIN_K = 0.6714286787714627
