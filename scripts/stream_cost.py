"""Say where the time of the entropy streams goes, window by window.

Simulates one 1200-frame recording (the first fault run of the perfbench
`tune` workload: seed 201, a 10 ohm short in cell 4 from t = 700 s) and,
for each window of a grid, prints one row:

- `streams_ms`: the best wall time of `entropy_streams` over three calls;
- `modes_ms`: of that call, the time in `pipeline._leading_modes`, the
  Gram products, the top-eigenpair solves and the leading rows of h_t;
- `kernel_ms`: of that call, the time in `pipeline._fuzzy_entropies`, the
  fuzzy pair kernel of h_t;
- `other_ms`: the rest: h_d, the compensation, h_s and the projection;
- `peak_mb`: the tracemalloc peak of one further call.

The two h_t parts are timed by wrapping those functions for the call, one
clock pair per chunk of windows. The first line names the interpreter,
numpy, scipy and the CPU count; set OPENBLAS_NUM_THREADS (or your BLAS's
equivalent) to fix the BLAS thread count.

Usage, from anywhere:

    python3 scripts/stream_cost.py [WINDOW ...]

The windows default to 5 27 60 100 200. It measures the checkout holding
this script.
"""

from __future__ import annotations

import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from packdiag import pipeline  # noqa: E402
from packdiag.pack import FaultSpec, SimConfig, simulate  # noqa: E402

WINDOWS = (5, 27, 60, 100, 200)
REPEATS = 3
RECORDING = SimConfig(duration=1200.0, rng_seed=201,
                      fault=FaultSpec(fault_cell=4, r_short=10.0, onset=700.0))
PARTS = ("_leading_modes", "_fuzzy_entropies")


def timed_call(tele: pipeline.Telemetry, window: int) -> tuple[float, dict]:
    """Wall seconds of one entropy_streams call, and seconds in each part."""
    spent = dict.fromkeys(PARTS, 0.0)
    originals = {name: getattr(pipeline, name) for name in PARTS}

    def timer(name):
        def part(*args):
            start = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[name] += time.perf_counter() - start
        return part

    try:
        for name in PARTS:
            setattr(pipeline, name, timer(name))
        start = time.perf_counter()
        pipeline.entropy_streams(tele, window)
        wall = time.perf_counter() - start
    finally:
        for name, func in originals.items():
            setattr(pipeline, name, func)
    return wall, spent


def peak_bytes(tele: pipeline.Telemetry, window: int) -> int:
    """tracemalloc peak of one entropy_streams call."""
    tracemalloc.start()
    try:
        pipeline.entropy_streams(tele, window)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    try:
        windows = [int(w) for w in argv] or list(WINDOWS)
    except ValueError:
        print(f"usage: stream_cost.py [WINDOW ...], got {argv}",
              file=sys.stderr)
        return 2
    tele = pipeline.Telemetry.from_frames(simulate(RECORDING))
    pipeline.entropy_streams(tele, windows[0])  # lazy imports, warm caches
    print(f"# {tele.n_frames} frames; Python {platform.python_version()}, "
          f"numpy {np.__version__}, scipy {scipy.__version__}, "
          f"{os.cpu_count()} CPUs")
    print(f"{'window':>6} {'streams_ms':>10} {'modes_ms':>8} "
          f"{'kernel_ms':>9} {'other_ms':>8} {'peak_mb':>7}")
    for w in windows:
        wall, spent = min((timed_call(tele, w) for _ in range(REPEATS)),
                          key=lambda run: run[0])
        modes, kernel = (spent[name] for name in PARTS)
        print(f"{w:>6} {1e3 * wall:>10.1f} {1e3 * modes:>8.1f} "
              f"{1e3 * kernel:>9.1f} {1e3 * (wall - modes - kernel):>8.1f} "
              f"{peak_bytes(tele, w) / 1e6:>7.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
