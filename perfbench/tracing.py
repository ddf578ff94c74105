"""Per-layer tracing of packdiag from outside the package.

The Tracer replaces each traced public function with a wrapper at the place
where its caller looks it up: `bench.simulate` for the scenario suite,
`pack.step_electrical` for the simulator's own substep, `pipeline.detect`
and `tuning.detect` for the two callers of the alarm rule, and so on.
Every call becomes one span (name, start, end, parent, count), kept in a
list until the run ends. Self times and counts are derived from the spans;
nothing inside the package is changed or needs to know.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager

from packdiag import bench, fusion, io, locate, pack, pipeline, tuning


def _windows(args, kwargs, result):
    """Sliding windows scored by one entropy_streams call."""
    return result.times.size - result.window + 1


def _rows(args, kwargs, result):
    return result.n_frames


# (owner, attribute, span name, count); the owner is the namespace the caller
# reads the function from, so one function can have several entries
SITES = (
    (bench, "simulate", "pack.simulate", None),
    (pack, "simulate", "pack.simulate", None),
    (pack, "step_electrical", "pack.step_electrical", None),
    (pack, "step_thermal", "pack.step_thermal", None),
    (pack, "deposit_sources", "pack.deposit_sources", None),
    (pack, "heat_generation", "pack.heat_generation", None),
    (bench, "run_detector", "pipeline.run_detector", None),
    (pipeline, "run_detector", "pipeline.run_detector", None),
    (pipeline, "entropy_streams", "pipeline.entropy_streams", _windows),
    (tuning, "entropy_streams", "pipeline.entropy_streams", _windows),
    (pipeline, "lumped_entropy_series", "lumped.h_d", None),
    (pipeline, "compensate", "spacetime.compensate", None),
    (locate, "compensate", "spacetime.compensate", None),
    (pipeline, "calibrate_pooled", "pipeline.calibrate", None),
    (pipeline, "fit_kde", "fusion.fit_kde", None),
    (pipeline, "threshold_from_kde", "fusion.threshold", None),
    (fusion.KdeModel, "cdf", "fusion.kde_cdf", None),
    (pipeline, "multiscale_statistic", "fusion.multiscale_statistic", None),
    (tuning, "multiscale_statistic", "fusion.multiscale_statistic", None),
    (pipeline, "detect", "fusion.detect", None),
    (tuning, "detect", "fusion.detect", None),
    (tuning.FitnessEvaluator, "evaluate", "tuning.evaluate", None),
    (bench, "compute_metrics", "tuning.compute_metrics", None),
    (tuning, "compute_metrics", "tuning.compute_metrics", None),
    (bench, "contributions_at", "locate.contributions_at", None),
    (locate, "contributions_at", "locate.contributions_at", None),
    (io, "read_dataset", "io.read_dataset", _rows),
    (io, "write_trace", "io.write_trace", None),
)

# per-layer metric -> (span name, what is summed): "total" is inclusive time,
# "self" is time net of child spans, "calls" counts spans, "count" sums the
# span's own count (windows scored, rows read)
LAYER_METRICS = {
    "pack.simulate_s": ("pack.simulate", "total"),
    "pack.step_electrical_s": ("pack.step_electrical", "total"),
    "pack.step_thermal_s": ("pack.step_thermal", "total"),
    "pack.deposit_sources_s": ("pack.deposit_sources", "total"),
    "pack.heat_generation_s": ("pack.heat_generation", "total"),
    "pack.substeps": ("pack.step_electrical", "calls"),
    "lumped.h_d_s": ("lumped.h_d", "total"),
    "spacetime.compensate_s": ("spacetime.compensate", "total"),
    "spacetime.compensate_calls": ("spacetime.compensate", "calls"),
    "pipeline.entropy_streams_s": ("pipeline.entropy_streams", "total"),
    "pipeline.entropy_streams_calls": ("pipeline.entropy_streams", "calls"),
    "pipeline.windows_scored": ("pipeline.entropy_streams", "count"),
    "pipeline.h_t_s": ("pipeline.entropy_streams", "self"),
    "pipeline.calibrate_s": ("pipeline.calibrate", "total"),
    "pipeline.calibrate_calls": ("pipeline.calibrate", "calls"),
    "fusion.fit_kde_s": ("fusion.fit_kde", "total"),
    "fusion.threshold_s": ("fusion.threshold", "total"),
    "fusion.kde_cdf_calls": ("fusion.kde_cdf", "calls"),
    "fusion.detect_s": ("fusion.detect", "total"),
    "fusion.multiscale_statistic_s": ("fusion.multiscale_statistic", "total"),
    "tuning.evaluate_calls": ("tuning.evaluate", "calls"),
    "tuning.evaluate_s": ("tuning.evaluate", "total"),
    "tuning.compute_metrics_s": ("tuning.compute_metrics", "total"),
    "locate.contributions_at_s": ("locate.contributions_at", "total"),
    "io.read_dataset_s": ("io.read_dataset", "total"),
    "io.write_trace_s": ("io.write_trace", "total"),
    "io.rows_read": ("io.read_dataset", "count"),
}


class Tracer:
    """Span recorder that patches the traced call sites while installed."""

    def __init__(self):
        self.spans: list[tuple] = []   # (name, start, end, parent, count)
        self._stack = [-1]
        self._saved: list[tuple] = []

    def _open(self) -> tuple[int, int]:
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent

    @contextmanager
    def span(self, name: str):
        """Root span around one set-up or one operation."""
        idx, parent = self._open()
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[idx] = (name, start, end, parent, 1)

    def _wrap(self, func, name, count):
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx, parent = tracer._open()
            start = time.perf_counter()
            n = 0
            try:
                result = func(*args, **kwargs)
                n = count(args, kwargs, result) if count else 1
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = (name, start, end, parent, n)

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, name, count in SITES:
            func = getattr(owner, attr)
            self._saved.append((owner, attr, func))
            setattr(owner, attr, self._wrap(func, name, count))

    def uninstall(self):
        while self._saved:
            owner, attr, func = self._saved.pop()
            setattr(owner, attr, func)

    def write(self, path):
        """Spans as JSON: one [name, start, end, parent, count] per call."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh, separators=(",", ":"))


def span_cost(calls: int = 200_000) -> float:
    """Seconds one traced call adds to the call, measured on a no-op."""
    def noop():
        return None

    traced = Tracer()._wrap(noop, "noop", None)
    elapsed = []
    for fn in (noop, traced):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        elapsed.append(time.perf_counter() - start)
    return (elapsed[1] - elapsed[0]) / calls


def _root_of(spans, idx: int) -> int:
    while spans[idx][3] != -1:
        idx = spans[idx][3]
    return idx


def layer_metrics(spans: list[tuple]) -> tuple[dict, dict, float]:
    """Per-layer figures from a list of spans.

    Roots are the "setup" and "op" spans. A layer's figure is what it did
    in one set-up plus what it did per operation, so each layer reads in
    the unit of work its workload repeats: the simulator runs inside the
    operation on `suite` but only in the set-up on `detect` and `tune`.
    Returns (metrics, self seconds per operation by span name, spans per
    operation).
    """
    n_roots = {"setup": 0, "op": 0}
    for name, _, _, parent, _ in spans:
        if parent == -1:
            n_roots[name] += 1
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent != -1:
            child_time[parent] += end - start

    sums: dict[tuple[str, str], float] = {}
    self_by_name: dict[str, float] = {}
    evaluate_calls = memo_hits = stream_misses = op_spans = 0
    for idx, (name, start, end, parent, count) in enumerate(spans):
        if parent == -1:
            continue
        root = spans[_root_of(spans, idx)][0]
        op_spans += root == "op"
        scale = 1.0 / max(n_roots[root], 1)
        total = end - start
        own = total - child_time[idx]
        for kind, value in (("total", total), ("self", own),
                            ("calls", 1), ("count", count)):
            key = (name, kind)
            sums[key] = sums.get(key, 0.0) + value * scale
        if root == "op":
            self_by_name[name] = self_by_name.get(name, 0.0) + own * scale
        if name == "tuning.evaluate":
            evaluate_calls += 1
            memo_hits += child_time[idx] == 0.0
        elif name == "pipeline.entropy_streams" and parent != -1 \
                and spans[parent][0] == "tuning.evaluate":
            stream_misses += 1

    metrics = {key: sums.get(source, 0.0)
               for key, source in LAYER_METRICS.items()}
    n_ops = max(n_roots["op"], 1)
    metrics["tuning.stream_misses"] = stream_misses / n_ops
    metrics["tuning.memo_hit_ratio"] = (memo_hits / evaluate_calls
                                        if evaluate_calls else 0.0)
    return metrics, self_by_name, op_spans / n_ops
