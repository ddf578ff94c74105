"""scripts/stream_cost.py prints where the stream time goes, per window."""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "stream_cost.py"


def test_two_window_grid():
    done = subprocess.run([sys.executable, str(SCRIPT), "5", "27"],
                          capture_output=True, text=True, timeout=300)
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


def test_bad_window_is_usage_error():
    done = subprocess.run([sys.executable, str(SCRIPT), "soon"],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert "usage" in done.stderr
