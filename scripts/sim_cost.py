"""Say how the time of one simulation divides between circuit and heat.

Simulates one scenario file (by default `scenarios/sc01.scenario`, 2000
frames of two substeps each) and prints:

- `simulate_ms`: the best wall time of `pack.simulate` over three calls;
- `circuit_ms`: of that call, the time inside `pack.step_electrical` and
  `pack.heat_generation`, which step the circuit and compute the cell
  heats substep by substep;
- `response_ms`: the rest of that call: the modal thermal response, the
  substep loop itself, the noise and the frames;
- `peak_mb`: the tracemalloc peak of one further call.

The split is timed by wrapping those two functions for the call, one clock
pair per substep each. The first line names the scenario, its
frames and substeps per frame, the interpreter, numpy and the CPU count;
set OPENBLAS_NUM_THREADS (or your BLAS's equivalent) to fix the BLAS thread
count.

Usage, from anywhere:

    python3 scripts/sim_cost.py [SCENARIO]

It measures the checkout holding this script.
"""

from __future__ import annotations

import os
import platform
import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from packdiag import pack  # noqa: E402
from packdiag.io import read_scenario  # noqa: E402

SCENARIO = ROOT / "scenarios" / "sc01.scenario"
REPEATS = 3
PARTS = ("step_electrical", "heat_generation")


def timed_call(cfg: pack.SimConfig) -> tuple[float, float, int]:
    """Wall seconds of one simulate call, the seconds inside the circuit
    functions, and the frames it made."""
    spent = [0.0]
    originals = {name: getattr(pack, name) for name in PARTS}

    def timer(name):
        def part(*args):
            start = time.perf_counter()
            try:
                return originals[name](*args)
            finally:
                spent[0] += time.perf_counter() - start
        return part

    try:
        for name in PARTS:
            setattr(pack, name, timer(name))
        start = time.perf_counter()
        frames = pack.simulate(cfg)
        wall = time.perf_counter() - start
    finally:
        for name, func in originals.items():
            setattr(pack, name, func)
    return wall, spent[0], len(frames)


def peak_bytes(cfg: pack.SimConfig) -> int:
    """tracemalloc peak of one simulate call."""
    tracemalloc.start()
    try:
        pack.simulate(cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(f"usage: sim_cost.py [SCENARIO], got {argv}", file=sys.stderr)
        return 2
    path = Path(argv[0]) if argv else SCENARIO
    try:
        cfg = read_scenario(path)
    except (OSError, ValueError) as exc:
        print(f"sim_cost.py: error: {exc}", file=sys.stderr)
        return 2
    wall, circuit, frames = min(
        (timed_call(cfg) for _ in range(REPEATS)), key=lambda run: run[0])
    print(f"# {path.stem}: {frames} frames of {cfg.substeps} substeps; Python "
          f"{platform.python_version()}, numpy {np.__version__}, "
          f"{os.cpu_count()} CPUs")
    print(f"simulate_ms {1e3 * wall:.1f}")
    print(f"circuit_ms {1e3 * circuit:.1f}")
    print(f"response_ms {1e3 * (wall - circuit):.1f}")
    print(f"peak_mb {peak_bytes(cfg) / 1e6:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
