"""Say where the time of each stage of the method goes.

Usage, from anywhere; it measures the checkout holding this script:

    python3 scripts/cost.py sim [SCENARIO]
    python3 scripts/cost.py streams [WINDOW ...]
    python3 scripts/cost.py tune [--population N] [--generations N]
                                 [--windows LO HI]

The first line printed names the input, the interpreter, its libraries and
the CPU count; set OPENBLAS_NUM_THREADS (or your BLAS's equivalent) to fix
the BLAS thread count. A part of a call is timed by wrapping the module
function that does it for the call, one clock pair per call of it.

`sim` simulates one scenario file (sc01 by default: 2000 frames of two
substeps each) and prints `simulate_ms`, the best wall time of
`pack.simulate` over three calls; `substep_us`, that time over the
substeps of the frames it returned; `peak_mb`, the tracemalloc peak of one
further call; and `frames_sha256`, the SHA-256 of every frame's time,
label, pack current, cell temperatures and group voltages, frame by frame,
which a change that must leave every frame bit for bit compares across
checkouts.

`streams` simulates the first fault recording of the perfbench `tune`
workload (`workloads.optimizer_test_configs`, 1200 frames) and prints one
row per window (5 27 60 100 200 by default): `streams_ms`, the best wall
time of `entropy_streams` over three calls; of that call, `modes_ms` in
`pipeline._leading_modes` (the Gram products, their batched squaring to
the top eigenvector and the leading rows of h_t) and `kernel_ms` in
`pipeline._fuzzy_entropies` (h_t's fuzzy pair kernel); `other_ms`, the
rest: h_d, the compensation, h_s and the projection; and `peak_mb`, the
tracemalloc peak of one further call.

`tune` simulates the three 1200-frame recordings of that workload (two with
a short, one without a fault) and prints `streams_s`, the wall time of
`entropy_streams` on every recording at every window of the search's range,
which a search with a fresh evaluator spends before it can score;
`search_s`, the best wall time of one `mga_optimize` over three runs on an
evaluator whose per-window records are prepared and whose memo of scores is
emptied before each run: the scoring alone; `evaluate_calls` and `scored`,
the search's `evaluate` calls and the distinct candidates it scored; and
`batches`, `batch_rows_median` and `batch_rows_max`, the `evaluate_many`
calls that scored at least one new row and the median and largest number of
rows they scored, each in one vectorised pass; `threshold_s`, the time of
the fastest search inside `tuning.fit_threshold`, its stacked threshold
searches; and `thresholds_sha256`, the SHA-256 of every threshold those
calls returned, in call order, which a change that must leave every
threshold bit for bit compares across checkouts. The search is the
workload's: GA seed 0, and by default population 30, 50 generations and
windows 20 to 40.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import platform
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402

from packdiag import pack, pipeline, tuning  # noqa: E402
from packdiag.errors import ConfigError, SimulationError  # noqa: E402
from packdiag.fusion import DetectorParams, require_window  # noqa: E402
from packdiag.io import read_scenario  # noqa: E402
from workloads import optimizer_test_configs  # noqa: E402

SCENARIO = ROOT / "scenarios" / "sc01.scenario"
WINDOWS = (5, 27, 60, 100, 200)
RECORDINGS = tuple(optimizer_test_configs(1200.0).values())
REPEATS = 3  # timed calls; the best is printed


def machine(*libraries) -> str:
    """The interpreter, each library's version and the CPU count."""
    return ", ".join([f"Python {platform.python_version()}",
                      *(f"{lib.__name__} {lib.__version__}"
                        for lib in libraries),
                      f"{os.cpu_count()} CPUs"])


def timed_call(module, parts, call) -> tuple[float, dict, object]:
    """The fastest of REPEATS calls of call(): its wall seconds, its seconds
    in each function of module named in parts, and its result."""
    originals = {name: getattr(module, name) for name in parts}

    def once():
        spent = dict.fromkeys(parts, 0.0)

        def timer(name):
            def part(*args):
                start = time.perf_counter()
                try:
                    return originals[name](*args)
                finally:
                    spent[name] += time.perf_counter() - start
            return part

        try:
            for name in parts:
                setattr(module, name, timer(name))
            start = time.perf_counter()
            result = call()
            wall = time.perf_counter() - start
        finally:
            for name, func in originals.items():
                setattr(module, name, func)
        return wall, spent, result

    return min((once() for _ in range(REPEATS)), key=lambda run: run[0])


def peak_bytes(call) -> int:
    """tracemalloc peak of one call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def sim(args: argparse.Namespace) -> int:
    try:
        cfg = read_scenario(args.scenario)
    except (OSError, ValueError) as exc:
        print(f"cost.py sim: error: {exc}", file=sys.stderr)
        return 2
    call = partial(pack.simulate, cfg)
    try:
        wall, _, frames = timed_call(pack, (), call)
    except SimulationError as exc:
        print(f"cost.py sim: error: {exc}", file=sys.stderr)
        return 3
    digest = hashlib.sha256()
    for frame in frames:
        digest.update(np.array([frame.t, frame.label,
                                frame.pack_current]).tobytes())
        digest.update(frame.cell_temps.tobytes())
        digest.update(frame.group_volts.tobytes())
    print(f"# {args.scenario.stem}: {len(frames)} frames of {cfg.substeps} "
          f"substeps; {machine(np)}")
    print(f"simulate_ms {1e3 * wall:.1f}")
    print(f"substep_us {1e6 * wall / (len(frames) * cfg.substeps):.2f}")
    print(f"peak_mb {peak_bytes(call) / 1e6:.2f}")
    print(f"frames_sha256 {digest.hexdigest()}")
    return 0


def streams(args: argparse.Namespace) -> int:
    n = RECORDINGS[0].n_frames
    try:
        for w in args.windows:
            if require_window(w) > n:
                raise ConfigError(f"recording has {n} frames, needs at "
                                  f"least {w}")
    except ConfigError as exc:
        print(f"cost.py streams: error: {exc}", file=sys.stderr)
        return 2
    tele = pipeline.Telemetry.from_frames(pack.simulate(RECORDINGS[0]))
    pipeline.entropy_streams(tele, args.windows[0])  # warm-up, untimed
    print(f"# {tele.n_frames} frames; {machine(np)}")
    print(f"{'window':>6} {'streams_ms':>10} {'modes_ms':>8} "
          f"{'kernel_ms':>9} {'other_ms':>8} {'peak_mb':>7}")
    for w in args.windows:
        call = partial(pipeline.entropy_streams, tele, w)
        wall, spent, _ = timed_call(
            pipeline, ("_leading_modes", "_fuzzy_entropies"), call)
        modes, kernel = spent.values()
        print(f"{w:>6} {1e3 * wall:>10.1f} {1e3 * modes:>8.1f} "
              f"{1e3 * kernel:>9.1f} {1e3 * (wall - modes - kernel):>8.1f} "
              f"{peak_bytes(call) / 1e6:>7.2f}")
    return 0


def tune(args: argparse.Namespace) -> int:
    n = min(cfg.n_frames for cfg in RECORDINGS)
    try:
        ga = tuning.GaConfig(population=args.population,
                             generations=args.generations,
                             w_min=args.windows[0], w_max=args.windows[1],
                             rng_seed=0)
        if ga.w_max > n:
            raise ConfigError(f"recording has {n} frames, needs at least "
                              f"{ga.w_max}")
    except ValueError as exc:
        print(f"cost.py tune: error: {exc}", file=sys.stderr)
        return 2
    recordings = [pipeline.Telemetry.from_frames(pack.simulate(cfg))
                  for cfg in RECORDINGS]
    pipeline.entropy_streams(recordings[0], ga.w_min)  # warm-up, untimed
    print(f"# {len(recordings)} recordings of {recordings[0].n_frames} "
          f"frames, windows {ga.w_min}-{ga.w_max}, population "
          f"{ga.population}, {ga.generations} generations, seed "
          f"{ga.rng_seed}; {machine(np)}")

    start = time.perf_counter()
    for w in range(ga.w_min, ga.w_max + 1):
        for tele in recordings:
            pipeline.entropy_streams(tele, w)
    stream_time = time.perf_counter() - start

    evaluator = tuning.FitnessEvaluator(recordings, base=DetectorParams())
    calls, batches = [], []
    evaluate, evaluate_many = evaluator.evaluate, evaluator.evaluate_many

    def counted(window, alpha):
        calls.append(window)
        return evaluate(window, alpha)

    def sized(window, alphas):
        scored = len(evaluator._memo)
        results = evaluate_many(window, alphas)
        if len(evaluator._memo) > scored:
            batches.append(len(evaluator._memo) - scored)
        return results

    evaluator.evaluate, evaluator.evaluate_many = counted, sized
    tuning.mga_optimize(recordings, evaluator, ga)  # prepares every window
    fit_threshold, thresholds = tuning.fit_threshold, []

    def recorded(h_train, beta):
        h_r = fit_threshold(h_train, beta)
        thresholds.append(h_r)
        return h_r

    def search():
        evaluator._memo.clear()
        calls.clear()
        batches.clear()
        thresholds.clear()
        tuning.mga_optimize(recordings, evaluator, ga)
        return np.concatenate(thresholds)

    tuning.fit_threshold = recorded
    try:
        wall, spent, h_r = timed_call(tuning, ("fit_threshold",), search)
    finally:
        tuning.fit_threshold = fit_threshold
    print(f"streams_s {stream_time:.3f}")
    print(f"search_s {wall:.3f}")
    print(f"evaluate_calls {len(calls)}")
    print(f"scored {len(evaluator._memo)}")
    print(f"batches {len(batches)}")
    print(f"batch_rows_median {np.median(batches):g}")
    print(f"batch_rows_max {max(batches)}")
    print(f"threshold_s {spent['fit_threshold']:.3f}")
    print(f"thresholds_sha256 {hashlib.sha256(h_r.tobytes()).hexdigest()}")
    return 0


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(prog="cost.py")
    stages = parser.add_subparsers(required=True)
    stage = stages.add_parser("sim")
    stage.add_argument("scenario", nargs="?", type=Path, default=SCENARIO)
    stage.set_defaults(run=sim)
    stage = stages.add_parser("streams")
    stage.add_argument("windows", nargs="*", type=int, default=list(WINDOWS),
                       metavar="WINDOW")
    stage.set_defaults(run=streams)
    stage = stages.add_parser("tune")
    stage.add_argument("--population", type=int, default=30)
    stage.add_argument("--generations", type=int, default=50)
    stage.add_argument("--windows", type=int, nargs=2, default=(20, 40),
                       metavar=("LO", "HI"))
    stage.set_defaults(run=tune)
    args = parser.parse_args(argv)
    return args.run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
