"""Command-line front end: simulate, fit, detect, localize, benchmark.

Exit codes: 0 success, 2 configuration problem (bad key, bad value, bad
argument), 3 simulator failure, 4 malformed data file, 5 benchmark below
its targets.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from pathlib import Path

import numpy as np

from .bench import report_lines, run_benchmark, summary_lines
from .errors import ConfigError, DataFormatError, SimulationError
from .fusion import DetectorParams
from .io import (
    read_dataset,
    read_params,
    read_scenario,
    write_dataset,
    write_lines,
    write_params,
    write_trace,
)
from .locate import contribution_rows, contributions_at
from .pack import simulate
from .pipeline import Telemetry, calibrate_pooled, entropy_streams, run_detector
from .tuning import FitnessEvaluator, GaConfig, mga_optimize


def cmd_simulate(args) -> int:
    cfg = read_scenario(args.config)
    if args.seed is not None:
        cfg = dataclasses.replace(cfg, rng_seed=args.seed)
    tele = Telemetry.from_frames(simulate(cfg))
    write_dataset(args.out, tele)
    n_abn = int((tele.labels == 1).sum())
    print(f"{tele.n_frames} frames: {tele.n_frames - n_abn} normal, "
          f"{n_abn} abnormal")
    if tele.n_frames < cfg.n_frames:
        print(f"warning: a cell ran out of charge; the run stopped at "
              f"{tele.times[-1]:.12g} s, {tele.n_frames} of {cfg.n_frames} "
              "frames", file=sys.stderr)
    print(f"wrote {args.out}")
    return 0


def cmd_fit(args) -> int:
    if args.fault and not args.optimize:
        raise ConfigError("--fault datasets are read only with --optimize")
    normals = [read_dataset(p) for p in args.normal]
    params = DetectorParams(beta=args.beta, train_len=args.train_len)
    if args.optimize:
        ga = GaConfig(population=args.population,
                      generations=args.generations,
                      rng_seed=0 if args.seed is None else args.seed)
        scenarios = normals + [read_dataset(p) for p in args.fault]
        evaluator = FitnessEvaluator(scenarios, base=params)
        params = mga_optimize(scenarios, evaluator, ga)
    streams = [entropy_streams(tele, params.window) for tele in normals]
    calibrated = calibrate_pooled(streams, params)
    write_params(args.out, calibrated)
    print(f"window={calibrated.window} alpha=({calibrated.alpha[0]:.6g}, "
          f"{calibrated.alpha[1]:.6g}, {calibrated.alpha[2]:.6g}) "
          f"beta={calibrated.beta:g} h_r={calibrated.h_r:.6g}")
    print(f"wrote {args.out}")
    return 0


def cmd_detect(args) -> int:
    tele = read_dataset(args.data)
    params = read_params(args.params)
    report = run_detector(tele, params, refit=not args.no_refit)
    write_trace(args.out, report)
    usable = int((~np.isnan(report.h_stream)).sum())
    alarms = int(report.outcome.alarms.sum())
    t_f = "none" if report.outcome.t_f is None \
        else f"{report.outcome.t_f:.12g}"
    rate = 100.0 * alarms / usable if usable else 0.0
    print(f"{tele.n_frames} frames, {usable} usable, {alarms} alarms "
          f"({rate:.2f}%), t_f={t_f}")
    print(f"wrote {args.out}")
    return 0


def cmd_localize(args) -> int:
    tele = read_dataset(args.data)
    params = read_params(args.params)
    cmap = contributions_at(tele, args.tf, params.window)
    print(f"#{cmap.cell_serial}")
    write_lines(args.out, contribution_rows(cmap))
    print(f"wrote {args.out}")
    return 0


def cmd_benchmark(args) -> int:
    directory = Path(args.scenarios)
    if not directory.is_dir():
        raise ConfigError(f"scenario directory not found: {directory}")
    files = sorted(directory.glob("*.scenario"))
    if not files:
        raise ConfigError(f"no *.scenario files in {directory}")
    scenarios = [(path.stem, read_scenario(path)) for path in files]
    params = read_params(args.params) if args.params else DetectorParams()
    rep = run_benchmark(scenarios, params, master_seed=args.seed)
    write_lines(args.out, report_lines(rep))
    for row in rep.rows:
        if row.status == "FAILED":
            print(f"{row.scenario} FAILED: {row.message}", file=sys.stderr)
    for line in summary_lines(rep):
        print(line)
    print(f"wrote {args.out}")
    return 0 if rep.passed else 5


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="packdiag",
        description="Battery-pack thermal fault detection toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="run one scenario to a dataset CSV")
    p.add_argument("config", help="scenario config file")
    p.add_argument("--out", required=True, help="output dataset CSV")
    p.add_argument("--seed", type=int, help="override the config's RNG seed")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("fit", help="calibrate (optionally tune) detector "
                                   "params from labeled datasets")
    p.add_argument("--normal", nargs="+", required=True,
                   help="normal dataset CSVs (calibration source)")
    p.add_argument("--fault", nargs="*", default=[],
                   help="fault dataset CSVs (for --optimize, which needs one)")
    p.add_argument("--optimize", action="store_true",
                   help="tune window and weights by the genetic search")
    p.add_argument("--beta", type=float, default=DetectorParams().beta,
                   help="threshold confidence level")
    p.add_argument("--train-len", type=int,
                   default=DetectorParams().train_len,
                   help="training prefix length, seconds")
    p.add_argument("--population", type=int, default=GaConfig().population)
    p.add_argument("--generations", type=int, default=GaConfig().generations)
    p.add_argument("--seed", type=int, help="genetic search RNG seed")
    p.add_argument("--out", required=True, help="output params file")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("detect", help="score a dataset and write the "
                                      "detection trace")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--params", required=True, help="params file")
    p.add_argument("--out", required=True, help="output trace CSV")
    p.add_argument("--no-refit", action="store_true",
                   help="use the stored calibration instead of refitting "
                        "on this dataset's training prefix")
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser("localize", help="rank cells by contribution at an "
                                        "alarm instant")
    p.add_argument("data", help="dataset CSV")
    p.add_argument("--params", required=True, help="params file")
    p.add_argument("--tf", type=float, required=True,
                   help="alarm instant, seconds (a sampled frame time)")
    p.add_argument("--out", required=True, help="output contribution CSV")
    p.set_defaults(func=cmd_localize)

    p = sub.add_parser("benchmark", help="run every shipped scenario and "
                                         "write the report")
    p.add_argument("scenarios", help="directory of *.scenario configs")
    p.add_argument("--params", help="params file (default: shipped defaults)")
    p.add_argument("--out", required=True, help="output report CSV")
    p.add_argument("--seed", type=int,
                   help="master seed overriding the configs' seeds")
    p.set_defaults(func=cmd_benchmark)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DataFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except SimulationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
