"""scripts/tune_cost.py prints the stream and scoring time of a GA search."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "tune_cost.py"


def test_tiny_search():
    done = subprocess.run([sys.executable, str(SCRIPT), "--population", "6",
                           "--generations", "2", "--windows", "20", "22"],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].startswith("# 3 recordings of 1200 frames, windows 20-22, "
                               "population 6, 2 generations, seed 0; Python ")
    figures = dict(line.split() for line in lines[1:])
    assert list(figures) == ["streams_s", "search_s", "evaluate_calls",
                             "scored", "batches", "batch_rows_median",
                             "batch_rows_max"]
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


def test_bad_config_is_usage_error():
    done = subprocess.run([sys.executable, str(SCRIPT), "--population", "2"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "population must exceed" in done.stderr
