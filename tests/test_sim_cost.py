"""scripts/sim_cost.py prints how a simulation's time divides."""

import subprocess
import sys
from pathlib import Path

from packdiag.io import write_scenario
from packdiag.pack import FaultSpec, SimConfig

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "sim_cost.py"


def test_short_run(tmp_path):
    scenario = tmp_path / "short.scenario"
    write_scenario(scenario, SimConfig(duration=30.0, rng_seed=3,
                                       fault=FaultSpec(fault_cell=7,
                                                       r_short=10.0,
                                                       onset=15.0)))
    done = subprocess.run([sys.executable, str(SCRIPT), str(scenario)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# short: 30 frames of 2 substeps; Python ")
    figures = {key: float(value) for key, value in
               (line.split() for line in lines[1:])}
    assert list(figures) == ["simulate_ms", "circuit_ms", "response_ms",
                             "peak_mb"]
    # the circuit's time is a part of the timed call and the response the
    # rest, so the two add up to it
    assert figures["circuit_ms"] > 0.0 and figures["response_ms"] > 0.0
    assert abs(figures["circuit_ms"] + figures["response_ms"]
               - figures["simulate_ms"]) <= 0.11
    assert 0.0 < figures["peak_mb"] < 100.0


def test_missing_scenario_is_usage_error(tmp_path):
    done = subprocess.run([sys.executable, str(SCRIPT),
                           str(tmp_path / "none.scenario")],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "none.scenario" in done.stderr
