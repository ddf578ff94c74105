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
    first_alarm,
    multiscale_statistic,
    require_window,
)
from .pipeline import (
    EntropyStreams,
    Telemetry,
    entropy_streams,
    fit_normalizers,
    fit_threshold,
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


def pooled_metrics(outcomes: list[DetectionOutcome], labels, t_r: float):
    """Detection quality of each candidate row, pooled over recordings.

    Each outcome is one recording's stream or (k, n) stack of rows; labels
    holds each one's frame labels. Abnormal frames count toward the
    detection rate, post-warm-up normal frames toward the false-alarm rate.
    A recording's t_onset is the timestamp before its first abnormal frame,
    or its first, and a row's t_detect its first alarm after t_onset. The
    relative delay, (t_detect - t_onset) / t_r or the recording's length /
    t_r with no such alarm, averages over the recordings with abnormal
    frames. Returns each row's EvaluationResult, None unless the pool holds
    an abnormal frame and every recording with one a post-warm-up normal
    frame; each recording's t_onset; and its (k,) t_detect, NaN for none.
    """
    detected = false_alarms = total_normal = total_abnormal = 0
    usable = True
    onsets, detects, delays = [], [], []
    for out, lab in zip(outcomes, labels):
        alarms, h = np.atleast_2d(out.alarms, out.h_stream)
        abnormal = lab == 1
        # NaN, never equal to itself, marks the warm-up
        normal = (lab == 0) & (h == h)
        first = int(np.argmax(abnormal))
        onsets.append(float(out.times[max(first - 1, 0)]))
        # from the first frame after t_onset
        detects.append(first_alarm(out.times, alarms, max(first, 1)))
        n_normal = normal.sum(axis=-1)
        detected = detected + (alarms & abnormal).sum(axis=-1)
        false_alarms = false_alarms + (alarms & normal).sum(axis=-1)
        total_normal = total_normal + n_normal
        if abnormal.any():
            total_abnormal += int(abnormal.sum())
            usable = usable & (n_normal > 0)
            delays.append(np.where(np.isnan(detects[-1]),
                                   float(out.times[-1]) / t_r,
                                   (detects[-1] - onsets[-1]) / t_r))
    results = [None] * len(total_normal)
    if delays:
        relative_delay = np.stack(delays, axis=-1).mean(axis=-1)
        for i in np.flatnonzero(usable):
            res = results[i] = EvaluationResult(
                adr=int(detected[i]) / total_abnormal,
                far=int(false_alarms[i]) / int(total_normal[i]),
                relative_delay=float(relative_delay[i]),
                detected_abnormal=int(detected[i]),
                total_abnormal=total_abnormal,
                false_alarms=int(false_alarms[i]),
                total_normal=int(total_normal[i]))
            res.objective_value = objective(res)
    return results, onsets, detects


def compute_metrics(outcome: DetectionOutcome, labels: np.ndarray,
                    cfg: MetricsConfig) -> EvaluationResult:
    """Score one recording's alarms against its frame labels.

    pooled_metrics of one recording, with its t_onset and t_detect. A
    labelling without both normal and abnormal frames raises ValueError.
    """
    labels = np.asarray(labels)
    if labels.shape != outcome.times.shape:
        raise ValueError("labels and outcome cover different frame counts")
    (res,), (t_onset,), ((t_detect,),) = pooled_metrics([outcome], [labels],
                                                        cfg.t_r)
    if res is None:
        raise ValueError("unusable scenario labeling: need both normal and "
                         "abnormal frames")
    res.t_onset = t_onset
    res.t_detect = None if math.isnan(t_detect) else float(t_detect)
    return res


def objective(result: EvaluationResult) -> float:
    """1/ADR + FAR + relative delay; zero detection scores +inf, not an error."""
    if not result.adr > 0.0:
        return math.inf
    return 1.0 / result.adr + result.far + result.relative_delay


def _infeasible() -> EvaluationResult:
    return EvaluationResult(adr=0.0, far=math.nan, relative_delay=math.nan,
                            objective_value=math.inf)


@dataclass(frozen=True)
class _Prepared:
    """One recording at one window: what scoring needs that no weight
    vector changes."""

    streams: EntropyStreams
    cal: DetectorParams   # the window and the three training maxima
    train: slice          # the training frames


class FitnessEvaluator:
    """Shared pipeline runner for candidate (window, weights) pairs.

    Everything but the weights' part depends on the window only: the
    streams, their training frames and maxima. So it is prepared once per
    (recording, window), and a stack of weight vectors at one window is
    scored in one vectorised pass per recording. Full evaluations are
    memoized as well. Both caches are value-transparent: they only skip
    repeated work, and a row's result does not depend on the other rows.
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
        # per window, one record per recording, or None if it cannot be
        # calibrated
        self._prepared: dict[int, list[_Prepared] | None] = {}
        self._memo: dict[tuple, EvaluationResult] = {}

    def _prepare(self, window: int) -> list[_Prepared] | None:
        if window not in self._prepared:
            params = dataclasses.replace(self.base, window=window)
            records = []
            try:
                for tele in self.scenarios:
                    streams = entropy_streams(tele, window)
                    cal, (train,) = fit_normalizers([streams], params)
                    records.append(_Prepared(streams, cal, train))
            except ValueError:
                records = None
            self._prepared[window] = records
        return self._prepared[window]

    def evaluate(self, window: int, alpha) -> EvaluationResult:
        """Pooled metrics of one candidate: evaluate_many with one row."""
        return self.evaluate_many(window, [alpha])[0]

    def evaluate_many(self, window: int, alphas) -> list[EvaluationResult]:
        """Pooled metrics of each weight vector at one window, in order.

        Counts pool over frames; the relative delay averages over the fault
        recordings, each missing detection contributing its full-duration
        penalty. A (window, alpha) that breaks a DetectorParams rule raises
        ConfigError before anything is scored. A window that cannot be
        calibrated (it outgrows the training prefix, say) scores +inf for
        every row; a row whose training statistic has no spread scores +inf
        alone.
        """
        w = require_window(window)
        keys = [(w, tuple(float(a) for a in alpha)) for alpha in alphas]
        todo = list(dict.fromkeys(k for k in keys if k not in self._memo))
        for _, alpha in todo:
            # ConfigError for a rule-breaking candidate
            dataclasses.replace(self.base, window=w, alpha=alpha)
        if todo:
            self._memo.update(zip(todo, self._score(
                w, np.array([alpha for _, alpha in todo]))))
        return [self._memo[k] for k in keys]

    def _score(self, w: int, alphas: np.ndarray) -> list[EvaluationResult]:
        records = self._prepare(w)
        if records is None:
            return [_infeasible() for _ in alphas]
        # the statistic is elementwise, so each recording's (k, n) stack is
        # computed once and its training columns are read from it
        hs = [multiscale_statistic(rec.streams.h_d, rec.streams.h_s,
                                   rec.streams.h_t, rec.cal, alphas)
              for rec in records]
        h_r = self._thresholds([h[:, rec.train]
                                for h, rec in zip(hs, records)])
        outcomes = [detect(tele.times, h, rec.cal, row_h_r)
                    for tele, h, rec, row_h_r
                    in zip(self.scenarios, hs, records, h_r)]
        results = pooled_metrics(outcomes, [t.labels for t in self.scenarios],
                                 self.metrics.t_r)[0]
        # a row whose threshold DetectorParams would reject, or unusable
        feasible = np.isfinite(h_r).all(axis=0)
        return [res if ok and res is not None else _infeasible()
                for res, ok in zip(results, feasible)]

    def _thresholds(self, trains: list[np.ndarray]) -> np.ndarray:
        """Alarm thresholds of each recording's (k, L) training rows, as a
        (recordings, k) array. Recordings with as many training frames
        share one stacked search."""
        h_r = np.empty((len(trains), trains[0].shape[0]))
        sizes = [train.shape[1] for train in trains]
        for size in set(sizes):
            group = [r for r, s in enumerate(sizes) if s == size]
            h_r[group] = fit_threshold(
                np.concatenate([trains[r] for r in group]),
                self.base.beta).reshape(len(group), -1)
        return h_r


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
    onto the simplex, window rounded and clamped. Each generation is scored
    in one evaluator.evaluate_many batch per window, then read back with one
    evaluator.evaluate call per individual. Failure to find any
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

    def fitness(pop):
        by_window = {}
        for w, alpha in pop:
            by_window.setdefault(w, []).append(tuple(alpha))
        for w, alphas in by_window.items():
            evaluator.evaluate_many(w, alphas)
        return [objective(evaluator.evaluate(w, tuple(alpha)))
                for w, alpha in pop]

    seed_ind = (_clamp_window(base_params.window, ga),
                simplex_project(np.asarray(base_params.alpha, dtype=float)))
    pop = [seed_ind] + [random_individual() for _ in range(ga.population - 1)]
    fit = fitness(pop)

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
        fit = fitness(pop)
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
