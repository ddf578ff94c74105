"""Say how the time of one GA search divides between streams and scoring.

Simulates the three 1200-frame recordings of the perfbench `tune` workload
(seeds 201 and 202 with a 10 ohm short in cell 4 or 23 from t = 700 s,
seed 203 without a fault) and prints:

- `streams_s`: the wall time of `entropy_streams` on every recording at
  every window of the search's range, which a search with a fresh
  evaluator spends before it can score;
- `search_s`: the best wall time of one `mga_optimize` over three runs
  on an evaluator whose per-window records are already prepared and whose
  memo of scores is emptied before each run: the scoring alone;
- `evaluate_calls` and `scored`: the search's `evaluate` calls and the
  distinct candidates it scored;
- `batches`, `batch_rows_median` and `batch_rows_max`: the search's
  `evaluate_many` calls that scored at least one new row, and the median
  and largest number of rows they scored. Each scores its rows in one
  vectorised pass, so these say how much a pass shares.

The first line names the interpreter, numpy, scipy and the CPU count; set
OPENBLAS_NUM_THREADS (or your BLAS's equivalent) to fix the BLAS thread
count. The search is the `tune` workload's at GA seed 0; the defaults of
the flags are its population 30, 50 generations and windows 20 to 40.

Usage, from anywhere:

    python3 scripts/tune_cost.py [--population N] [--generations N]
                                 [--windows LO HI]

It measures the checkout holding this script.
"""

from __future__ import annotations

import argparse
import os
import platform
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from packdiag import pipeline, tuning  # noqa: E402
from packdiag.errors import ConfigError  # noqa: E402
from packdiag.fusion import DetectorParams  # noqa: E402
from packdiag.pack import FaultSpec, SimConfig, simulate  # noqa: E402

RECORDINGS = (
    SimConfig(duration=1200.0, rng_seed=201,
              fault=FaultSpec(fault_cell=4, r_short=10.0, onset=700.0)),
    SimConfig(duration=1200.0, rng_seed=202,
              fault=FaultSpec(fault_cell=23, r_short=10.0, onset=700.0)),
    SimConfig(duration=1200.0, rng_seed=203),
)
SEED = 0      # the GA seed
REPEATS = 3   # timed searches; the best is printed


def parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="tune_cost.py")
    parser.add_argument("--population", type=int, default=30)
    parser.add_argument("--generations", type=int, default=50)
    parser.add_argument("--windows", type=int, nargs=2, default=(20, 40),
                        metavar=("LO", "HI"))
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse(argv)
    try:
        ga = tuning.GaConfig(population=args.population,
                             generations=args.generations,
                             w_min=args.windows[0], w_max=args.windows[1],
                             rng_seed=SEED)
    except ConfigError as exc:
        print(f"tune_cost.py: error: {exc}", file=sys.stderr)
        return 2
    recordings = [pipeline.Telemetry.from_frames(simulate(cfg))
                  for cfg in RECORDINGS]
    pipeline.entropy_streams(recordings[0], ga.w_min)  # lazy imports
    print(f"# {len(recordings)} recordings of {recordings[0].n_frames} "
          f"frames, windows {ga.w_min}-{ga.w_max}, population "
          f"{ga.population}, {ga.generations} generations, seed "
          f"{ga.rng_seed}; Python {platform.python_version()}, numpy "
          f"{np.__version__}, scipy {scipy.__version__}, {os.cpu_count()} CPUs")

    start = time.perf_counter()
    for w in range(ga.w_min, ga.w_max + 1):
        for tele in recordings:
            pipeline.entropy_streams(tele, w)
    streams = time.perf_counter() - start

    evaluator = tuning.FitnessEvaluator(recordings, base=DetectorParams())
    calls = 0
    evaluate = evaluator.evaluate

    def counted(window, alpha):
        nonlocal calls
        calls += 1
        return evaluate(window, alpha)

    batches = []
    evaluate_many = evaluator.evaluate_many

    def sized(window, alphas):
        scored = len(evaluator._memo)
        results = evaluate_many(window, alphas)
        if len(evaluator._memo) > scored:
            batches.append(len(evaluator._memo) - scored)
        return results

    evaluator.evaluate, evaluator.evaluate_many = counted, sized
    tuning.mga_optimize(recordings, evaluator, ga)  # prepares every window
    searches = []
    for _ in range(REPEATS):
        evaluator._memo.clear()
        calls = 0
        batches.clear()
        start = time.perf_counter()
        tuning.mga_optimize(recordings, evaluator, ga)
        searches.append(time.perf_counter() - start)
    print(f"streams_s {streams:.3f}")
    print(f"search_s {min(searches):.3f}")
    print(f"evaluate_calls {calls}")
    print(f"scored {len(evaluator._memo)}")
    print(f"batches {len(batches)}")
    print(f"batch_rows_median {np.median(batches):g}")
    print(f"batch_rows_max {max(batches)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
