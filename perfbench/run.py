"""Run one benchmark workload and print its metrics as the last line, in JSON.

    python3 perfbench/run.py --workload {suite,detect,tune} --seed N \
        --seconds S --trace {0,1}

Run from anywhere inside a checkout: packdiag is imported from the
checkout's own src/, and the shipped scenarios are read from scenarios/.
With --trace 0 the run is untraced and reports the end-to-end metrics,
in seconds corrected for the machine's speed: a SpeedProbe samples it all
through the set-up and, apart, all through the measured loop.
With --trace 1 it alternates untraced and traced operations, writes the
spans to perfbench/out/, and reports the per-layer metrics together with
the traced and untraced operation times, whose difference is the tracing
overhead. The exit code is 0 when every operation completed and every
output check passed, 1 otherwise, 2 when the checkout has no packdiag
sources. BLAS and OpenMP run one thread each, so that a run measures the
program and not how a shared machine schedules spinning worker threads.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

from speed import REF_S  # noqa: E402  (imports numpy)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 3
IMPORT_REPEATS = 5
IMPORT_SAMPLE_S = 0.3  # how long each import's interpreter samples its speed
IMPORTS = "import numpy, packdiag, oracles, tracing, workloads"


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("suite", "detect", "tune"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run whole rounds for about this long: the "
                             "last starts only if it should end less than "
                             "half a round past it")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_time(src: Path) -> tuple[float, float]:
    """Median time a fresh interpreter takes to import what a run imports,
    raw and corrected for the machine's speed.

    One import per process is a single, noisy sample, so set-up time takes
    the median of several, each in its own interpreter. Each interpreter
    samples its own speed right after its import: the waiting parent's
    samples say little about the child's.
    """
    path = [str(src), str(HERE), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = (f"import time; t = time.perf_counter(); {IMPORTS}; "
            "d = time.perf_counter() - t; import speed; "
            f"print(d, speed.busy_unit_s({IMPORT_SAMPLE_S}))")
    raw, corrected = [], []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        secs, unit_s = map(float, out.stdout.split())
        raw.append(secs)
        corrected.append(secs * REF_S / unit_s)
    return statistics.median(raw), statistics.median(corrected)


def share_lines(self_per_op: dict, op_mean: float) -> list[str]:
    """Self time per traced function as a share of the traced operation."""
    lines = []
    rows = sorted(self_per_op.items(), key=lambda kv: -kv[1])
    for name, secs in rows:
        lines.append(f"  {name:<32} {secs:10.4f} s  {100 * secs / op_mean:6.2f} %")
    rest = op_mean - sum(self_per_op.values())
    lines.append(f"  {'(outside traced calls)':<32} {rest:10.4f} s  "
                 f"{100 * rest / op_mean:6.2f} %")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "packdiag" / "__init__.py").is_file():
        print(f"error: no packdiag sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    import packdiag
    from speed import SpeedProbe
    from tracing import Tracer, layer_metrics, span_cost
    from workloads import FULL, WORKLOADS, timer
    if not Path(packdiag.__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: packdiag imported from {packdiag.__file__}, not {src}",
              file=sys.stderr)
        return 2
    from oracles import CheckFailed

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = Tracer() if args.trace else None
    setup_probe, probe = (None, None) if args.trace \
        else (SpeedProbe(), SpeedProbe())
    with tempfile.TemporaryDirectory(dir=out_dir) as work:
        wl = WORKLOADS[args.workload](ROOT, Path(work), args.seed, FULL)

        setup_times = []
        if tracer is None:
            setup_probe.start()
            try:
                import_s, import_corrected = import_time(src)
                for _ in range(SETUP_REPEATS):
                    sampled = setup_probe.sample_s
                    t0 = time.perf_counter()
                    wl.setup()
                    setup_times.append(time.perf_counter() - t0
                                       - (setup_probe.sample_s - sampled))
            finally:
                setup_probe.stop()
        else:
            tracer.install()
            try:
                with tracer.span("setup"):
                    wl.setup()
            finally:
                tracer.uninstall()

        times, traced_times, errors = [], [], []
        attempted = failed = rounds = 0
        start = time.perf_counter()
        if probe is not None:
            probe.start()
        try:
            while True:
                traced = tracer is not None and rounds % 2 == 1
                if traced:
                    tracer.install()
                try:
                    a, f = wl.round(timer(traced_times if traced else times,
                                          errors, tracer if traced else None,
                                          probe))
                finally:
                    if traced:
                        tracer.uninstall()
                attempted += a
                failed += f
                rounds += 1
                elapsed = time.perf_counter() - start
                if elapsed + elapsed / rounds / 2 >= args.seconds \
                        and (tracer is None or rounds >= 2):
                    break
        finally:
            if probe is not None:
                probe.stop()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
            * 1024 / 1e6

        for exc in errors:
            traceback.print_exception(exc, file=sys.stderr)
        # a failed operation leaves an older result behind, so the checks
        # run only when every operation of the run completed
        correct = failed == 0
        if correct:
            try:
                wl.check()
            except CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                correct = False
        if hasattr(wl, "quality"):
            for line in wl.quality():
                print(line)

    if not times or (tracer is not None and not traced_times):
        print("error: too few operations completed to report a time",
              file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": attempted,
                          "failed": failed, "metrics": {}}))
        return 1
    # the mean over whole rounds: a slow spell of the machine weighs in by
    # its length, where a median jumps once it covers half the run
    op_s = statistics.fmean(times)
    print(f"{args.workload}: {len(times)} untraced operations, mean "
          f"{op_s:.4f} s; {attempted} attempted, {failed} failed")
    if tracer is None:
        setup_one = statistics.median(setup_times)
        print(f"imports: {import_s:.4f} s, corrected {import_corrected:.4f} s")
        for phase, p, secs in (("set-up", setup_probe, setup_one),
                               ("loop", probe, op_s)):
            print(f"speed probe, {phase}: {p.samples} samples, mean "
                  f"{1e3 * p.unit_s():.4f} ms against {1e3 * REF_S:.1f} ms, "
                  f"so {secs:.4f} s reads {p.corrected(secs):.4f} s")
        metrics = {
            "setup_s": (import_corrected + setup_probe.corrected(setup_one),
                        "s"),
            "op_s": (probe.corrected(op_s), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        trace_path = out_dir / f"trace-{args.workload}-{args.seed}.json"
        tracer.write(trace_path)
        layers, self_per_op, spans_per_op = layer_metrics(tracer.spans)
        traced_s = statistics.fmean(traced_times)
        cost = span_cost()
        print(f"{len(traced_times)} traced operations, mean {traced_s:.4f} s"
              f" ({100 * (traced_s / op_s - 1):+.2f} % against untraced); "
              f"{len(tracer.spans)} spans in {trace_path.relative_to(ROOT)}")
        print(f"tracing cost: {1e6 * cost:.2f} us per span, "
              f"{spans_per_op:.0f} spans per operation, so about "
              f"{spans_per_op * cost:.4f} s ({100 * spans_per_op * cost / op_s:.2f} %)"
              f" per operation")
        print("self time per traced operation:")
        for line in share_lines(self_per_op, statistics.fmean(traced_times)):
            print(line)
        metrics = {name: (value, "count" if not name.endswith("_s") else "s")
                   for name, value in layers.items()}
        metrics["tuning.memo_hit_ratio"] = (layers["tuning.memo_hit_ratio"],
                                            "ratio")
        metrics["trace.op_s"] = (traced_s, "s")
        metrics["trace.untraced_op_s"] = (op_s, "s")

    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
