"""Reference figures for the layer baselines that ROADMAP item 1 quotes.

    python3 perfbench/reference.py

Prints the median of REPEATS timings of:
- simulating the 2000 s scenario sc01;
- entropy_streams on a 1200-frame fault recording at windows 27, 100, 200;
- one FitnessEvaluator.evaluate over the optimizer test's three recordings
  whose streams are cached and whose result is not memoized yet (a fresh
  weight vector each time), at window 27;
together with the machine, Python, numpy and scipy versions.
"""

from __future__ import annotations

import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from packdiag import io, pack, pipeline, tuning  # noqa: E402
from packdiag.fusion import DetectorParams  # noqa: E402
from workloads import optimizer_test_configs  # noqa: E402

REPEATS = 5


def _median_time(fn, repeats: int) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main() -> int:
    print(f"machine: {_cpu_model()}, {os.cpu_count()} CPUs; Python "
          f"{platform.python_version()}, numpy {np.__version__}, scipy "
          f"{scipy.__version__}; OPENBLAS_NUM_THREADS="
          f"{os.environ.get('OPENBLAS_NUM_THREADS', 'unset')}")

    sc01 = io.read_scenario(ROOT / "scenarios" / "sc01.scenario")
    t = _median_time(lambda: pack.simulate(sc01), REPEATS)
    print(f"simulate 2000 s (sc01): {t:.4f} s")

    recordings = [pipeline.Telemetry.from_frames(pack.simulate(cfg))
                  for cfg in optimizer_test_configs(1200.0).values()]
    for w in (27, 100, 200):
        t = _median_time(lambda: pipeline.entropy_streams(recordings[0], w),
                         REPEATS)
        print(f"entropy_streams, 1200 frames, w={w}: {t:.4f} s")

    evaluator = tuning.FitnessEvaluator(recordings, base=DetectorParams())
    evaluator.evaluate(27, DetectorParams().alpha)   # fills the stream cache
    rng = np.random.default_rng(0)
    alphas = iter(rng.dirichlet((1.0, 1.0, 1.0), 10 * REPEATS))
    t = _median_time(lambda: evaluator.evaluate(27, tuple(next(alphas))),
                     10 * REPEATS)
    print(f"evaluate, streams cached, three 1200-frame recordings, w=27: "
          f"{1e3 * t:.2f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
