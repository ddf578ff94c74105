"""scripts/cost.py prints where the time of each stage goes."""

import hashlib
import subprocess
import sys
from pathlib import Path

import numpy as np

from packdiag.io import read_scenario, write_scenario
from packdiag.pack import FaultSpec, SimConfig, simulate

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "cost.py"


def cost(*argv: str, timeout: float = 300) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), *argv],
                          capture_output=True, text=True, timeout=timeout)


def test_sim_short_run(tmp_path):
    scenario = tmp_path / "short.scenario"
    write_scenario(scenario, SimConfig(duration=30.0, rng_seed=3,
                                       fault=FaultSpec(fault_cell=7,
                                                       r_short=10.0,
                                                       onset=15.0)))
    done = cost("sim", str(scenario))
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# short: 30 frames of 2 substeps; Python ")
    figures = dict(line.split() for line in lines[1:])
    assert list(figures) == ["simulate_ms", "substep_us", "peak_mb",
                             "frames_sha256"]
    # 30 frames of 2 substeps: the call's time over its 60 substeps, to
    # the printed rounding of both
    simulate_ms, substep_us = (float(figures[key]) for key in
                               ("simulate_ms", "substep_us"))
    assert simulate_ms > 0.0 and substep_us > 0.0
    assert abs(60 * substep_us / 1e3 - simulate_ms) <= 0.06
    assert 0.0 < float(figures["peak_mb"]) < 100.0
    # the digest of the frames that the same config simulates here
    digest = hashlib.sha256()
    for frame in simulate(read_scenario(scenario)):
        digest.update(np.array([frame.t, frame.label,
                                frame.pack_current]).tobytes())
        digest.update(frame.cell_temps.tobytes())
        digest.update(frame.group_volts.tobytes())
    assert figures["frames_sha256"] == digest.hexdigest()


def test_sim_missing_scenario_is_usage_error(tmp_path):
    done = cost("sim", str(tmp_path / "none.scenario"), timeout=60)
    assert done.returncode == 2
    assert "none.scenario" in done.stderr


def test_sim_run_dry_before_the_first_frame_is_simulation_error(tmp_path):
    scenario = tmp_path / "empty.scenario"
    write_scenario(scenario, SimConfig(duration=30.0, initial_soc=0.00001))
    done = cost("sim", str(scenario), timeout=60)
    assert done.returncode == 3
    assert done.stdout == ""
    assert done.stderr == ("cost.py sim: error: a cell ran out of charge at "
                           "t = 0.5 s, before the first frame\n")


def test_streams_two_window_grid():
    done = cost("streams", "5", "27")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# 1200 frames; Python ")
    assert lines[1].split() == ["window", "streams_ms", "modes_ms",
                                "kernel_ms", "other_ms", "peak_mb"]
    rows = [[float(x) for x in line.split()] for line in lines[2:]]
    assert [row[0] for row in rows] == [5, 27]
    for window, streams, modes, kernel, other, peak in rows:
        # the two h_t parts run inside the timed call, so they fit in it
        assert modes > 0.0 and kernel > 0.0
        assert modes + kernel < streams
        assert 0.0 < peak < 100.0


def test_streams_bad_window_is_usage_error():
    done = cost("streams", "soon", timeout=60)
    assert done.returncode == 2
    assert "usage" in done.stderr


def test_streams_window_below_floor_is_usage_error():
    # checked before the recording is simulated
    done = cost("streams", "27", "3", timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "cost.py streams: error: window must be at least 4\n"


def test_streams_window_beyond_recording_is_usage_error():
    # checked before the recording is simulated
    done = cost("streams", "27", "5000", timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("cost.py streams: error: recording has 1200 "
                           "frames, needs at least 5000\n")


def test_tune_tiny_search():
    done = cost("tune", "--population", "6", "--generations", "2",
                "--windows", "20", "22")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# 3 recordings of 1200 frames, windows 20-22, "
                               "population 6, 2 generations, seed 0; Python ")
    figures = dict(line.split() for line in lines[1:])
    assert list(figures) == ["streams_s", "search_s", "evaluate_calls",
                             "scored", "batches", "batch_rows_median",
                             "batch_rows_max", "threshold_s",
                             "thresholds_sha256"]
    assert float(figures["streams_s"]) > 0.0
    assert float(figures["search_s"]) > 0.0
    # one evaluate call per individual of the first population and of each
    # generation
    assert int(figures["evaluate_calls"]) == 6 * 3
    assert 0 < int(figures["scored"]) <= 6 * 3
    # every scored row was scored in one of the batches, and a batch holds
    # at most one population
    batches = int(figures["batches"])
    assert 0 < batches <= int(figures["scored"])
    assert 1 <= float(figures["batch_rows_median"]) \
        <= int(figures["batch_rows_max"]) <= 6
    # the threshold searches run inside the timed search
    assert 0.0 < float(figures["threshold_s"]) <= float(figures["search_s"])
    digest = figures["thresholds_sha256"]
    assert len(digest) == 64 and int(digest, 16) >= 0


def test_tune_window_beyond_recording_is_usage_error():
    # checked before the recordings are simulated
    done = cost("tune", "--population", "6", "--generations", "1",
                "--windows", "1190", "1300", timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == ("cost.py tune: error: recording has 1200 frames, "
                           "needs at least 1300\n")


def test_tune_bad_config_is_usage_error():
    done = cost("tune", "--population", "2", timeout=60)
    assert done.returncode == 2
    assert "population must exceed" in done.stderr
