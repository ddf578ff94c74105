"""Detection quality metrics and the genetic search over (window, weights).

A candidate is scored by running the full detection pipeline on labeled
recordings: detection rate over abnormal frames, false-alarm rate over
post-warm-up normal frames, and detection delay relative to a reference
time, combined into one objective to minimize. The search is a real-coded
genetic algorithm whose individuals are always feasible by construction:
the weights live on the probability simplex via exact Euclidean projection
and the window length is an integer within fixed bounds.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_integers
from .fusion import (
    DEFAULT_ALPHA,
    MIN_WINDOW,
    DetectionOutcome,
    DetectorParams,
    detect,
    multiscale_statistic,
)
from .pipeline import (
    EntropyStreams,
    Telemetry,
    calibrate_from_streams,
    entropy_streams,
)


@dataclass(frozen=True)
class MetricsConfig:
    """Scaling constants for the delay term."""

    t_r: float = 1000.0   # reference time, seconds

    def __post_init__(self):
        if self.t_r <= 0:
            raise ConfigError("reference time must be positive")


@dataclass
class EvaluationResult:
    """Detection quality of one candidate on one or more recordings."""

    adr: float                      # detected fraction of abnormal frames
    far: float                      # alarmed fraction of normal frames
    relative_delay: float           # (t_detect - t_onset) / t_r
    detected_abnormal: int = 0
    total_abnormal: int = 0
    false_alarms: int = 0
    total_normal: int = 0
    t_detect: float | None = None
    t_onset: float | None = None
    objective_value: float | None = None


def frame_counts(outcome: DetectionOutcome,
                 labels: np.ndarray) -> tuple[int, int, int, int]:
    """Detected, abnormal, false-alarm and normal frames of one recording.

    Abnormal frames count toward the detection rate; post-warm-up normal
    frames toward the false-alarm rate.
    """
    abnormal = labels == 1
    normal = (labels == 0) & ~np.isnan(outcome.h_stream)
    return (int((outcome.alarms & abnormal).sum()), int(abnormal.sum()),
            int((outcome.alarms & normal).sum()), int(normal.sum()))


def compute_metrics(outcome: DetectionOutcome, labels: np.ndarray,
                    cfg: MetricsConfig) -> EvaluationResult:
    """Score one recording's alarms against its frame labels.

    Frames are counted by frame_counts. The delay runs from the last normal
    timestamp to the first alarm after it; a run with no such alarm is
    penalized with the full recording length.
    """
    labels = np.asarray(labels)
    times = outcome.times
    if labels.shape != times.shape:
        raise ValueError("labels and outcome cover different frame counts")
    detected, total_abnormal, false_alarms, total_normal = \
        frame_counts(outcome, labels)
    if total_abnormal == 0 or total_normal == 0:
        raise ValueError("unusable scenario labeling: need both normal and "
                         "abnormal frames")
    adr = detected / total_abnormal
    far = false_alarms / total_normal

    first = int(np.argmax(labels == 1))
    t_onset = float(times[first - 1]) if first > 0 else float(times[0])
    post = outcome.alarms & (times > t_onset)
    if post.any():
        t_detect = float(times[int(np.argmax(post))])
        relative_delay = (t_detect - t_onset) / cfg.t_r
    else:
        t_detect = None
        relative_delay = float(times[-1]) / cfg.t_r

    res = EvaluationResult(adr=adr, far=far, relative_delay=relative_delay,
                           detected_abnormal=detected,
                           total_abnormal=total_abnormal,
                           false_alarms=false_alarms,
                           total_normal=total_normal,
                           t_detect=t_detect, t_onset=t_onset)
    res.objective_value = objective(res)
    return res


def objective(result: EvaluationResult) -> float:
    """1/ADR + FAR + relative delay; zero detection scores +inf, not an error."""
    if not result.adr > 0.0:
        return math.inf
    return 1.0 / result.adr + result.far + result.relative_delay


def _infeasible() -> EvaluationResult:
    return EvaluationResult(adr=0.0, far=math.nan, relative_delay=math.nan,
                            objective_value=math.inf)


class FitnessEvaluator:
    """Shared pipeline runner for candidate (window, weights) pairs.

    Entropy streams depend on the window only, so they are cached per
    (recording, window) and reused across weight vectors; full evaluations
    are memoized as well. Both caches are value-transparent: they only skip
    repeated work.
    """

    def __init__(self, scenarios: list[Telemetry],
                 base: DetectorParams = DetectorParams()):
        if not scenarios:
            raise ValueError("need at least one recording")
        if not any((t.labels == 1).any() for t in scenarios):
            raise ValueError("need at least one fault recording to score "
                             "detection rate and delay")
        self.scenarios = scenarios
        self.base = base
        self.metrics = MetricsConfig()
        self._streams: dict[tuple[int, int], EntropyStreams] = {}
        self._memo: dict[tuple, EvaluationResult] = {}

    def _stream(self, idx: int, window: int) -> EntropyStreams:
        key = (idx, window)
        if key not in self._streams:
            self._streams[key] = entropy_streams(self.scenarios[idx], window)
        return self._streams[key]

    def evaluate(self, window: int, alpha) -> EvaluationResult:
        """Pooled metrics of one candidate across every recording.

        Counts pool over frames; the relative delay averages over the fault
        recordings, each missing detection contributing its full-duration
        penalty. A (window, alpha) that breaks a DetectorParams rule raises
        ConfigError; a window that cannot be calibrated (it outgrows the
        training prefix) scores +inf instead.
        """
        w = int(window)
        key = (w, tuple(float(a) for a in alpha))
        if key in self._memo:
            return self._memo[key]

        params = dataclasses.replace(self.base, window=w, alpha=key[1])
        counts = []
        delays = []
        try:
            for idx, tele in enumerate(self.scenarios):
                streams = self._stream(idx, w)
                cal = calibrate_from_streams(streams, params)
                h = multiscale_statistic(streams.h_d, streams.h_s,
                                         streams.h_t, cal)
                outcome = detect(streams.times, h, cal)
                counts.append(frame_counts(outcome, tele.labels))
                if (tele.labels == 1).any():
                    res = compute_metrics(outcome, tele.labels, self.metrics)
                    delays.append(res.relative_delay)
        except ValueError:
            result = _infeasible()
            self._memo[key] = result
            return result

        # compute_metrics has rejected a fault recording with no normal frames
        detected, total_abn, false, total_norm = (sum(c) for c in zip(*counts))
        result = EvaluationResult(adr=detected / total_abn,
                                  far=false / total_norm,
                                  relative_delay=float(np.mean(delays)),
                                  detected_abnormal=detected,
                                  total_abnormal=total_abn,
                                  false_alarms=false,
                                  total_normal=total_norm)
        result.objective_value = objective(result)
        self._memo[key] = result
        return result


def simplex_project(v: np.ndarray) -> np.ndarray:
    """Exact Euclidean projection onto the probability simplex."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("need a 1-D vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    ks = np.arange(1, v.size + 1)
    rho = int(np.nonzero(u - css / ks > 0)[0][-1])
    theta = css[rho] / (rho + 1)
    return np.maximum(v - theta, 0.0)


# operators of the genetic search
TOURNAMENT = 3
CROSSOVER_RATE = 0.9
MUTATION_PROB = 0.35
MUTATION_SCALE = 0.30   # initial sigma of the weight mutation
MUTATION_FLOOR = 0.05   # sigma after the linear decay
W_STEP = 8              # largest +- step of a window mutation
ELITE = 2
IMMIGRANTS = 2          # fresh random individuals per generation


@dataclass(frozen=True)
class GaConfig:
    """Size, window bounds and seed of the genetic search."""

    population: int = 30
    generations: int = 50
    w_min: int = 5
    w_max: int = 200
    rng_seed: int = 0

    def __post_init__(self):
        require_integers(self, "population", "generations", "w_min", "w_max",
                         "rng_seed")
        if self.population <= ELITE + IMMIGRANTS:
            raise ConfigError(f"population must exceed the {ELITE} elites "
                              f"plus {IMMIGRANTS} immigrants")
        if not MIN_WINDOW <= self.w_min <= self.w_max:
            raise ConfigError(f"window bounds must satisfy {MIN_WINDOW} <= w_min <= w_max")
        if self.generations < 1:
            raise ConfigError("need at least one generation")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be non-negative, got {self.rng_seed}")


def _clamp_window(w: float, ga: GaConfig) -> int:
    return int(min(max(int(round(w)), ga.w_min), ga.w_max))


def mga_optimize(scenarios: list[Telemetry],
                 evaluator: FitnessEvaluator,
                 ga: GaConfig = GaConfig(),
                 log: list[str] | None = None) -> DetectorParams:
    """Tune (window, weights) by tournament GA with elitism and immigrants.

    Every individual is made feasible before evaluation: weights projected
    onto the simplex, window rounded and clamped. Failure to find any
    candidate with nonzero detection falls back to the shipped defaults
    with a warning. The optional log collects one line per generation:
    generation, best objective, mean objective, best window, best weights.
    """
    if not any((t.labels == 1).any() for t in scenarios):
        raise ValueError("need at least one fault recording")
    if not any(not (t.labels == 1).any() for t in scenarios):
        raise ValueError("need at least one all-normal recording")
    base_params = evaluator.base
    rng = np.random.default_rng(ga.rng_seed)

    def random_individual():
        w = int(rng.integers(ga.w_min, ga.w_max + 1))
        return w, simplex_project(rng.dirichlet((1.0, 1.0, 1.0)))

    def fitness(ind):
        w, alpha = ind
        res = evaluator.evaluate(w, tuple(alpha))
        return objective(res)

    seed_ind = (_clamp_window(base_params.window, ga),
                simplex_project(np.asarray(base_params.alpha, dtype=float)))
    pop = [seed_ind] + [random_individual() for _ in range(ga.population - 1)]
    fit = [fitness(ind) for ind in pop]

    def tournament() -> int:
        picks = rng.integers(0, ga.population, TOURNAMENT)
        return int(min(picks, key=lambda i: (fit[i], i)))

    n_children = ga.population - ELITE - IMMIGRANTS
    denom = max(ga.generations - 1, 1)
    for gen in range(ga.generations):
        scale = MUTATION_SCALE + (MUTATION_FLOOR
                                  - MUTATION_SCALE) * gen / denom
        order = sorted(range(ga.population), key=lambda i: (fit[i], i))
        elites = [pop[i] for i in order[:ELITE]]
        children = []
        while len(children) < n_children:
            w1, a1 = pop[tournament()]
            w2, a2 = pop[tournament()]
            if rng.random() < CROSSOVER_RATE:
                u = rng.uniform(-0.1, 1.1, 3)
                alpha = simplex_project(u * a1 + (1.0 - u) * a2)
                t = rng.random()
                w = _clamp_window(t * w1 + (1.0 - t) * w2, ga)
            else:
                w, alpha = w1, a1.copy()
            if rng.random() < MUTATION_PROB:
                alpha = simplex_project(alpha + rng.normal(0.0, scale, 3))
            if rng.random() < MUTATION_PROB:
                step = int(rng.integers(1, W_STEP + 1))
                sign = 1 if rng.random() < 0.5 else -1
                w = _clamp_window(w + sign * step, ga)
            children.append((w, alpha))
        fresh = [random_individual() for _ in range(IMMIGRANTS)]
        pop = elites + children + fresh
        fit = [fitness(ind) for ind in pop]
        if log is not None:
            best_i = min(range(ga.population), key=lambda i: (fit[i], i))
            bw, ba = pop[best_i]
            mean = float(np.mean(fit))
            log.append(f"{gen},{fit[best_i]:.6g},{mean:.6g},{bw},"
                       f"{ba[0]:.6g},{ba[1]:.6g},{ba[2]:.6g}")

    best_i = min(range(ga.population), key=lambda i: (fit[i], i))
    w_best, a_best = pop[best_i]
    if math.isinf(fit[best_i]):
        warnings.warn("search found no feasible candidate with nonzero "
                      "detection; returning the shipped defaults")
        w_best, a_best = DetectorParams().window, DEFAULT_ALPHA
    return dataclasses.replace(base_params, window=int(w_best),
                               alpha=tuple(float(a) for a in a_best),
                               max_hd=None, max_hs=None, max_ht=None, h_r=None)
