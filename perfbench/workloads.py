"""The benchmark's workloads: inputs from the seed, timed operations, checks.

Each workload runs in a closed loop in one process: the next operation
starts when the previous one has returned. It calls packdiag only through
the public functions of its modules, looked up on the module at call time
so that a Tracer can stand in for them.

- suite: `bench.run_benchmark` on each shipped scenario in turn at stock
  params, which is what `packdiag benchmark scenarios/` does. One operation
  is one scenario, a round is every scenario. The simulator does most of
  the work.
- detect: what `packdiag detect` then `packdiag localize` do with a params
  file at window 200, on recordings the set-up simulates and writes as CSV.
  One operation is one recording. The h_t stream does most of the work.
- tune: `tuning.mga_optimize` with the default GA on the three 1200-frame
  recordings of the optimizer acceptance test, windows 20-40. One
  operation is one search with a fresh evaluator, whose caches start
  empty. Calibration takes a far larger share than on detect.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from packdiag import bench, io, locate, pack, pipeline, tuning
from packdiag.fusion import DetectorParams

from oracles import CheckFailed, check_detection, check_localization, \
    check_trace_file, require


@dataclass(frozen=True)
class Size:
    """How much input each workload gets; TINY is the self-test's size."""

    suite_scenarios: int = 9
    detect_recordings: int = 3
    detect_window: int = 200
    tune_duration: float = 1200.0
    tune_population: int = 30
    tune_generations: int = 50
    tune_windows: tuple[int, int] = (20, 40)


FULL = Size()
TINY = Size(suite_scenarios=2, detect_recordings=1, detect_window=40,
            tune_duration=800.0, tune_population=6, tune_generations=2,
            tune_windows=(20, 23))


def _scenario_files(root: Path) -> list[Path]:
    files = sorted((root / "scenarios").glob("*.scenario"))
    if not files:
        raise FileNotFoundError(f"no scenario files under {root / 'scenarios'}")
    return files


def optimizer_test_configs(duration: float) -> dict[str, pack.SimConfig]:
    """The recordings of the optimizer acceptance test: two faults, one normal."""
    return {
        "fault_a": pack.SimConfig(duration=duration, rng_seed=201,
                                  fault=pack.FaultSpec(fault_cell=4,
                                                       r_short=10.0,
                                                       onset=700.0)),
        "fault_b": pack.SimConfig(duration=duration, rng_seed=202,
                                  fault=pack.FaultSpec(fault_cell=23,
                                                       r_short=10.0,
                                                       onset=700.0)),
        "normal": pack.SimConfig(duration=duration, rng_seed=203),
    }


class Suite:
    """The shipped scenarios at their files' own seeds, one operation each.

    The seed picks the scenario whose recording the oracles re-check.
    """

    name = "suite"

    def __init__(self, root: Path, workdir: Path, seed: int, size: Size):
        self.root, self.seed, self.size = root, seed, size
        self.rows = []

    def setup(self):
        files = _scenario_files(self.root)
        self.all_shipped = self.size.suite_scenarios >= len(files)
        self.scenarios = [(p.stem, io.read_scenario(p))
                          for p in files[: self.size.suite_scenarios]]

    def round(self, timed):
        """Every scenario in turn: simulated, detected, scored, localized.

        Each scenario is its own operation, so a run has many operations and
        their median stays steady while the machine's speed comes and goes.
        """
        rows, failed = [], 0
        for scenario in self.scenarios:
            rep = timed(lambda: bench.run_benchmark([scenario]))
            if rep is None or rep.rows[0].status != "ok":
                failed += 1
            if rep is not None:
                rows.append(rep.rows[0])
        self.rows = rows
        return len(self.scenarios), failed

    def check(self):
        rows = self.rows
        require(len(rows) == len(self.scenarios),
                f"{len(rows)} rows for {len(self.scenarios)} scenarios")
        for (name, cfg), row in zip(self.scenarios, rows):
            require(row.scenario == name and row.status == "ok",
                    f"{name}: row {row.scenario} status {row.status}")
            require(row.add_s is not None
                    and 0 < row.add_s <= bench.TARGET_ADD_S,
                    f"{name}: detection delay {row.add_s} s")
            require(row.estimated_cell == cfg.fault.fault_cell,
                    f"{name}: named cell {row.estimated_cell}, fault in "
                    f"{cfg.fault.fault_cell}")
        if self.all_shipped:
            detected = [r for r in rows if r.add_s <= bench.TARGET_ADD_S]
            localized = sum(r.match for r in rows)
            worst_far = max(r.far_pct for r in rows)
            min_adr = min(r.adr_pct for r in detected)
            require(len(detected) >= bench.TARGET_DETECTED
                    and localized >= bench.TARGET_LOCALIZED
                    and worst_far <= bench.TARGET_FAR_PCT
                    and min_adr >= bench.TARGET_ADR_PCT,
                    f"bench targets missed: detected {len(detected)}, "
                    f"localized {localized}, worst FAR {worst_far:.2f} %, "
                    f"lowest ADR {min_adr:.2f} %")

        idx = self.seed % len(self.scenarios)
        name, cfg = self.scenarios[idx]
        row = rows[idx]
        tele = pipeline.Telemetry.from_frames(pack.simulate(cfg))
        report = pipeline.run_detector(tele, DetectorParams())
        met = tuning.compute_metrics(report.outcome, tele.labels,
                                     tuning.MetricsConfig())
        require(met.t_detect - met.t_onset == row.add_s,
                f"{name}: re-run delay differs from the report row")
        cmap = locate.contributions_at(tele, met.t_detect,
                                       report.params.window)
        require(cmap.cell_serial == row.estimated_cell,
                f"{name}: re-run names cell {cmap.cell_serial}, report "
                f"{row.estimated_cell}")
        rng = np.random.default_rng(self.seed)
        excess = check_detection(tele, report, pack.build_layout().cell_centers,
                                 rng)
        check_localization(tele, cmap, report.params.window, excess)


class Detect:
    """Read, detect, write the trace and localize, one recording at a time.

    The seed picks which shipped scenarios are simulated and their noise.
    """

    name = "detect"

    def __init__(self, root: Path, workdir: Path, seed: int, size: Size):
        self.root, self.workdir, self.seed, self.size = root, workdir, seed, size
        self.results = {}

    def setup(self):
        rng = np.random.default_rng(self.seed)
        files = _scenario_files(self.root)
        picks = sorted(rng.choice(len(files), self.size.detect_recordings,
                                  replace=False))
        self.params_path = self.workdir / "detector.params"
        io.write_params(self.params_path,
                        DetectorParams(window=self.size.detect_window))
        self.recordings = []
        for i in picks:
            cfg = dataclasses.replace(io.read_scenario(files[i]),
                                      rng_seed=int(rng.integers(2**31)))
            tele = pipeline.Telemetry.from_frames(pack.simulate(cfg))
            data = self.workdir / f"{files[i].stem}.csv"
            io.write_dataset(data, tele)
            self.recordings.append((data, self.workdir
                                    / f"{files[i].stem}.trace.csv"))

    def _one(self, data: Path, trace: Path):
        params = io.read_params(self.params_path)
        tele = io.read_dataset(data)
        report = pipeline.run_detector(tele, params)
        io.write_trace(trace, report)
        cmap = None
        if report.outcome.t_f is not None:
            cmap = locate.contributions_at(tele, report.outcome.t_f,
                                           params.window)
        return tele, report, cmap

    def round(self, timed):
        failed = 0
        for data, trace in self.recordings:
            out = timed(lambda: self._one(data, trace))
            if out is None:
                failed += 1
            else:
                self.results[data] = (trace, *out)
        return len(self.recordings), failed

    def check(self):
        require(len(self.results) == len(self.recordings),
                "some recordings never completed")
        centers = pack.build_layout().cell_centers
        rng = np.random.default_rng(self.seed)
        for data, (trace, tele, report, cmap) in self.results.items():
            try:
                excess = check_detection(tele, report, centers, rng)
                check_trace_file(trace, report)
                if cmap is not None:
                    check_localization(tele, cmap, report.params.window,
                                       excess)
            except CheckFailed as exc:
                raise CheckFailed(f"{data.name}: {exc}") from None

    def quality(self) -> list[str]:
        """Alarm quality per recording, reported and not gated."""
        lines = []
        for data, (_, tele, report, cmap) in self.results.items():
            met = tuning.compute_metrics(report.outcome, tele.labels,
                                         tuning.MetricsConfig())
            delay = "none" if met.t_detect is None \
                else f"{met.t_detect - met.t_onset:g} s"
            cell = "-" if cmap is None else cmap.cell_serial
            lines.append(f"{data.stem}: FAR {100 * met.far:.2f} %, ADR "
                         f"{100 * met.adr:.2f} %, delay {delay}, first alarm "
                         f"names cell {cell}")
        return lines


class Tune:
    """Genetic search over (window, weights); the seed is the GA's seed."""

    name = "tune"

    def __init__(self, root: Path, workdir: Path, seed: int, size: Size):
        self.workdir, self.seed, self.size = workdir, seed, size
        self.last = None

    def setup(self):
        """Simulate the recordings and read them back, as `fit` would."""
        self.recordings = []
        for name, cfg in optimizer_test_configs(self.size.tune_duration).items():
            path = self.workdir / f"{name}.csv"
            io.write_dataset(path, pipeline.Telemetry.from_frames(
                pack.simulate(cfg)))
            self.recordings.append(io.read_dataset(path))
        lo, hi = self.size.tune_windows
        self.ga = tuning.GaConfig(population=self.size.tune_population,
                                  generations=self.size.tune_generations,
                                  w_min=lo, w_max=hi, rng_seed=self.seed)

    def _search(self):
        evaluator = tuning.FitnessEvaluator(self.recordings,
                                            base=DetectorParams())
        candidates = []
        evaluate = evaluator.evaluate

        def recording_evaluate(window, alpha):
            candidates.append((window, tuple(alpha)))
            return evaluate(window, alpha)

        evaluator.evaluate = recording_evaluate
        params = tuning.mga_optimize(self.recordings, evaluator, self.ga)
        del evaluator.evaluate  # back to the class's method
        return evaluator, candidates, params

    def round(self, timed):
        self.last = None  # the previous search's caches are not this one's memory
        out = timed(self._search)
        if out is None:
            return 1, 1
        self.last = out
        return 1, 0

    def check(self):
        evaluator, candidates, params = self.last
        ga = self.ga
        expected = ga.population * (ga.generations + 1)
        require(len(candidates) == expected,
                f"{len(candidates)} evaluate calls, expected {expected}")
        for window, alpha in candidates:
            require(isinstance(window, int)
                    and ga.w_min <= window <= ga.w_max,
                    f"window {window!r} outside {ga.w_min}..{ga.w_max}")
            require(min(alpha) >= 0.0 and abs(sum(alpha) - 1.0) <= 1e-9,
                    f"weights {alpha} off the simplex")
        seed_window, seed_alpha = candidates[0]
        stock = DetectorParams()
        require(seed_window == min(max(stock.window, ga.w_min), ga.w_max)
                and np.allclose(seed_alpha, stock.alpha, rtol=0, atol=1e-12),
                "first candidate is not the stock seed individual")
        seed_obj = tuning.objective(evaluator.evaluate(seed_window, seed_alpha))
        best = tuning.objective(evaluator.evaluate(params.window, params.alpha))
        require(best <= seed_obj,
                f"best objective {best} worse than the stock seed's {seed_obj}")
        fresh = tuning.FitnessEvaluator(self.recordings, base=DetectorParams())
        rescored = tuning.objective(fresh.evaluate(params.window, params.alpha))
        require(rescored == best,
                f"fresh evaluator scores {rescored!r}, search cache {best!r}")


WORKLOADS = {cls.name: cls for cls in (Suite, Detect, Tune)}


def timer(times: list, errors: list, tracer=None, probe=None):
    """Runs one operation: records its wall time, or the failure.

    With a tracer, the operation is the root span "op" of its calls. With a
    running SpeedProbe, the time its samples took is not the operation's.
    """
    def timed(fn):
        sampled = probe.sample_s if probe is not None else 0.0
        start = time.perf_counter()
        try:
            if tracer is None:
                out = fn()
            else:
                with tracer.span("op"):
                    out = fn()
        except Exception as exc:  # a failed operation is counted, not fatal
            errors.append(exc)
            return None
        wall = time.perf_counter() - start
        if probe is not None:
            wall -= probe.sample_s - sampled
        times.append(wall)
        return out
    return timed
