"""Tests for detection metrics, the tuning objective, and the genetic search."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from packdiag.errors import ConfigError
from packdiag.fusion import DetectionOutcome, DetectorParams, detect
from packdiag.pack import FaultSpec, SimConfig, simulate
from packdiag.pipeline import Telemetry, run_detector
from packdiag.tuning import (
    ELITE,
    IMMIGRANTS,
    EvaluationResult,
    FitnessEvaluator,
    GaConfig,
    MetricsConfig,
    compute_metrics,
    mga_optimize,
    objective,
    pooled_metrics,
    simplex_project,
)
from paper_oracles import looped_score


def synthetic_outcome(times, labels, alarm_times, warmup):
    times = np.asarray(times, dtype=float)
    h = np.where(np.arange(times.size) < warmup, np.nan, 0.5)
    alarms = np.isin(times, alarm_times) & ~np.isnan(h)
    t_f = float(times[np.argmax(alarms)]) if alarms.any() else None
    return DetectionOutcome(times=times, h_stream=h, alarms=alarms, t_f=t_f)


@pytest.fixture(scope="module")
def tiny_scenarios():
    """Two short fault runs plus one normal run for evaluator tests."""
    teles = []
    for cell, seed in ((11, 31), (4, 32)):
        cfg = SimConfig(duration=160.0, rng_seed=seed,
                        fault=FaultSpec(fault_cell=cell, r_short=10.0,
                                        onset=90.0))
        teles.append(Telemetry.from_frames(simulate(cfg)))
    teles.append(Telemetry.from_frames(simulate(SimConfig(duration=160.0,
                                                          rng_seed=33))))
    return teles


@pytest.fixture(scope="module")
def flat_lumped(tiny_scenarios):
    """tiny_scenarios with group voltages that alternate about fixed levels.

    Every level and swing is a binary fraction, so every window of an even
    length holds the same voltages in one of two orders with exactly the
    same statistics: h_d is one constant after its warm-up, and a weight
    vector on h_d alone has a training statistic with no spread.
    """
    sign = np.where(np.arange(tiny_scenarios[0].n_frames) % 2 == 0, 1.0, -1.0)
    levels = np.array([4.0, 4.0, 4.0, 3.5, 3.5, 3.0])
    swings = np.array([0.25, 0.125, 0.0625, 0.25, 0.5, 0.125])
    volts = levels + np.outer(sign, swings)
    return [dataclasses.replace(t, volts=volts) for t in tiny_scenarios]


def comparable(res):
    """An EvaluationResult's fields with their types, NaN made equal to NaN."""
    return [("nan" if isinstance(v, float) and math.isnan(v) else (type(v), v))
            for v in dataclasses.astuple(res)]


class TestComputeMetrics:
    def test_counts_by_hand(self):
        times = np.arange(1.0, 21.0)
        labels = (times > 10).astype(int)
        out = synthetic_outcome(times, labels, [7.0, 12.0, 14.0, 15.0, 16.0],
                                warmup=4)
        res = compute_metrics(out, labels, MetricsConfig(t_r=1000.0))
        assert res.detected_abnormal == 4
        assert res.total_abnormal == 10
        assert res.adr == 0.4
        # normal post-warm-up frames are t = 5..10; one of them alarmed
        assert res.total_normal == 6
        assert res.false_alarms == 1
        assert res.far == pytest.approx(1.0 / 6.0)
        assert res.t_detect == 12.0
        assert res.t_onset == 10.0
        assert res.relative_delay == pytest.approx(2.0 / 1000.0)

    def test_reference_row_arithmetic(self):
        times = np.arange(1.0, 2001.0)
        labels = (times > 1000).astype(int)
        alarmed = list(np.arange(1011.0, 1933.0))  # 922 abnormal alarms
        out = synthetic_outcome(times, labels, alarmed, warmup=26)
        res = compute_metrics(out, labels, MetricsConfig())
        assert res.detected_abnormal == 922
        assert res.total_abnormal == 1000
        assert f"{100.0 * res.adr:.2f}" == "92.20"
        assert res.t_detect == 1011.0
        assert res.relative_delay == pytest.approx(0.011)

    def test_missed_detection_gets_full_duration_penalty(self):
        times = np.arange(1.0, 101.0)
        labels = (times > 60).astype(int)
        out = synthetic_outcome(times, labels, [30.0], warmup=5)  # pre-onset only
        res = compute_metrics(out, labels, MetricsConfig(t_r=1000.0))
        assert res.t_detect is None
        assert res.relative_delay == pytest.approx(100.0 / 1000.0)
        assert res.adr == 0.0

    def test_perfect_detector(self):
        times = np.arange(1.0, 41.0)
        labels = (times > 20).astype(int)
        out = synthetic_outcome(times, labels, list(times[20:]), warmup=3)
        res = compute_metrics(out, labels, MetricsConfig())
        assert res.adr == 1.0
        assert res.far == 0.0

    def test_single_segment_labelings_rejected(self):
        times = np.arange(1.0, 31.0)
        all_normal = np.zeros(30, dtype=int)
        out = synthetic_outcome(times, all_normal, [], warmup=3)
        with pytest.raises(ValueError, match="unusable scenario labeling"):
            compute_metrics(out, all_normal, MetricsConfig())
        all_abnormal = np.ones(30, dtype=int)
        out = synthetic_outcome(times, all_abnormal, [], warmup=3)
        with pytest.raises(ValueError, match="unusable scenario labeling"):
            compute_metrics(out, all_abnormal, MetricsConfig())

    def test_reference_time_must_be_positive(self):
        with pytest.raises(ConfigError):
            MetricsConfig(t_r=0.0)
        with pytest.raises(ConfigError):
            dataclasses.replace(MetricsConfig(), t_r=0.0)


def random_recording(rng, kind, k):
    """Times, a (k, n) statistic stack with a NaN warm-up, per-row
    thresholds and labels of one of the kinds the score must handle."""
    n = int(rng.integers(6, 40))
    times = np.cumsum(rng.uniform(0.5, 2.0, n))
    warmup = int(rng.integers(0, n // 2))
    onset = int(rng.integers(1, n))
    labels = (np.arange(n) >= onset).astype(int)
    if kind == "onset at frame 0":
        labels = (np.arange(n) < onset).astype(int)
    elif kind == "back to normal":
        labels[int(rng.integers(onset, n)):] = 0
    elif kind == "normal only":
        labels[:] = 0
    elif kind == "normal frames in warm-up":
        warmup = max(warmup, onset)
    h = rng.uniform(0.0, 1.0, (k, n))
    h[:, :warmup] = np.nan
    return times, h, rng.uniform(0.3, 1.0, k), labels


KINDS = ("step", "onset at frame 0", "back to normal", "normal only",
         "normal frames in warm-up")


class TestPooledMetrics:
    """pooled_metrics and compute_metrics against a frame-by-frame loop."""

    def test_matches_loop_oracle_on_random_stacks(self):
        rng = np.random.default_rng(18)
        seen = {False: 0, True: 0}
        for trial in range(300):
            k = int(rng.integers(1, 5))
            recs = [random_recording(rng, KINDS[int(rng.integers(len(KINDS)))],
                                     k)
                    for _ in range(int(rng.integers(1, 4)))]
            outcomes = [detect(times, h, DetectorParams(), h_r=h_r)
                        for times, h, h_r, _ in recs]
            labels = [lab for *_, lab in recs]
            results, onsets, detects = pooled_metrics(outcomes, labels, 1e3)
            assert len(results) == k
            for i in range(k):
                want = looped_score(
                    [(out.times, out.h_stream[i], out.alarms[i], lab)
                     for out, lab in zip(outcomes, labels)], 1e3)
                seen[want.usable] += 1
                assert onsets == want.t_onsets
                assert [None if math.isnan(d[i]) else d[i]
                        for d in detects] == want.t_detects
                for out, onset, d in zip(outcomes, onsets, detects):
                    # the raw first alarm is the scored one once it
                    # follows the onset
                    if out.t_f[i] > onset:
                        assert out.t_f[i] == d[i]
                res = results[i]
                if not want.usable:
                    assert res is None
                    continue
                assert (res.detected_abnormal, res.total_abnormal,
                        res.false_alarms, res.total_normal) == (
                    want.detected, want.abnormal, want.false_alarms,
                    want.normal)
                assert res.adr == want.detected / want.abnormal
                assert res.far == want.false_alarms / want.normal
                assert res.relative_delay == want.relative_delay
                assert res.objective_value == objective(res)
                # a pooled result carries no one recording's times
                assert res.t_onset is None and res.t_detect is None
        assert seen[False] > 50 and seen[True] > 50

    @pytest.mark.parametrize("kind", KINDS)
    def test_compute_metrics_matches_loop_oracle(self, kind):
        rng = np.random.default_rng(KINDS.index(kind))
        for trial in range(40):
            times, h, h_r, labels = random_recording(rng, kind, 3)
            stack = detect(times, h, DetectorParams(), h_r=h_r)
            for i in range(3):
                out = detect(times, h[i], DetectorParams(h_r=float(h_r[i])))
                want = looped_score([(times, h[i], out.alarms, labels)], 1e3)
                if kind in ("normal only", "normal frames in warm-up"):
                    assert not want.usable
                if not want.usable:
                    with pytest.raises(ValueError,
                                       match="unusable scenario labeling"):
                        compute_metrics(out, labels, MetricsConfig())
                    continue
                res = compute_metrics(out, labels, MetricsConfig())
                assert (res.detected_abnormal, res.total_abnormal,
                        res.false_alarms, res.total_normal) == (
                    want.detected, want.abnormal, want.false_alarms,
                    want.normal)
                assert (res.adr, res.far) == (want.detected / want.abnormal,
                                              want.false_alarms / want.normal)
                assert res.relative_delay == want.relative_delay
                assert [res.t_onset] == want.t_onsets
                assert [res.t_detect] == want.t_detects
                # the raw first alarm is the scored one once it follows
                # the onset
                if out.t_f is not None and out.t_f > res.t_onset:
                    assert out.t_f == res.t_detect
                assert (np.isnan(stack.t_f[i]) if out.t_f is None
                        else stack.t_f[i] == out.t_f)


class TestObjective:
    def test_reference_arithmetic(self):
        res = EvaluationResult(adr=0.922, far=0.002, relative_delay=0.011)
        assert objective(res) == pytest.approx(1.0976, abs=5e-5)

    def test_perfect_lower_bound(self):
        res = EvaluationResult(adr=1.0, far=0.0, relative_delay=0.0)
        assert objective(res) == 1.0

    def test_zero_detection_is_infinite_not_an_error(self):
        res = EvaluationResult(adr=0.0, far=0.0, relative_delay=0.1)
        assert math.isinf(objective(res))


def nearest_simplex_point_oracle(v):
    """Exhaustive KKT support enumeration for the 3-simplex projection."""
    best, best_d = None, np.inf
    for mask in range(1, 8):
        support = [i for i in range(3) if mask >> i & 1]
        x = np.zeros(3)
        shift = (sum(v[i] for i in support) - 1.0) / len(support)
        for i in support:
            x[i] = v[i] - shift
        if (x < -1e-12).any():
            continue
        d = float(((x - v) ** 2).sum())
        if d < best_d - 1e-15:
            best, best_d = np.clip(x, 0.0, None), d
    return best


class TestSimplexProjection:
    def test_feasible_points_unchanged(self):
        for v in ([0.2, 0.3, 0.5], [1.0, 0.0, 0.0], [1 / 3] * 3):
            out = simplex_project(np.array(v))
            np.testing.assert_allclose(out, v, atol=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            v = rng.normal(0.4, 1.0, 3)
            got = simplex_project(v)
            want = nearest_simplex_point_oracle(v)
            assert got.sum() == pytest.approx(1.0, abs=1e-9)
            assert (got >= 0.0).all()
            np.testing.assert_allclose(got, want, atol=1e-9)

    def test_idempotent(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = simplex_project(rng.normal(0.0, 2.0, 3))
            np.testing.assert_allclose(simplex_project(p), p, atol=1e-12)


class TestFitnessEvaluator:
    def test_deterministic_and_cached(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        a = ev.evaluate(15, (0.3, 0.4, 0.3))
        b = ev.evaluate(15, (0.3, 0.4, 0.3))
        assert a == b
        ev.evaluate(15, (0.5, 0.25, 0.25))
        # one prepared record per scenario at the window, reused across
        # weight vectors
        assert list(ev._prepared) == [15]
        assert len(ev._prepared[15]) == 3

    def test_pooled_counts_match_per_scenario_metrics(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        pooled = ev.evaluate(15, (0.3, 0.4, 0.3))
        da = ta = f = tn = 0
        delays = []
        for tele in tiny_scenarios:
            params = dataclasses.replace(ev.base, window=15,
                                         alpha=(0.3, 0.4, 0.3))
            rep = run_detector(tele, params)
            labels = tele.labels
            post = rep.outcome.alarms & (labels == 1)
            da += int(post.sum())
            ta += int((labels == 1).sum())
            normal = (labels == 0) & ~np.isnan(rep.h_stream)
            f += int((rep.outcome.alarms & normal).sum())
            tn += int(normal.sum())
            if (labels == 1).any():
                res = compute_metrics(rep.outcome, labels, ev.metrics)
                delays.append(res.relative_delay)
        assert pooled.detected_abnormal == da
        assert pooled.total_abnormal == ta
        assert pooled.false_alarms == f
        assert pooled.total_normal == tn
        # the batched pass does the one-candidate arithmetic, bit for bit
        assert pooled.adr == da / ta
        assert pooled.far == f / tn
        assert pooled.relative_delay == float(np.mean(delays))

    def test_window_exceeding_training_prefix_is_infeasible(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        res = ev.evaluate(90, (0.3, 0.4, 0.3))
        assert math.isinf(objective(res))

    def test_rule_breaking_candidate_raises(self, tiny_scenarios):
        # only a calibration failure scores +inf; a candidate that no
        # DetectorParams may hold is a caller's error
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        with pytest.raises(ConfigError, match="at least 4"):
            ev.evaluate(3, (0.3, 0.4, 0.3))
        with pytest.raises(ConfigError, match="sum to 1"):
            ev.evaluate(15, (0.5, 0.4, 0.3))
        assert not ev._memo

    def test_needs_a_fault_scenario(self, tiny_scenarios):
        with pytest.raises(ValueError):
            FitnessEvaluator([tiny_scenarios[2]],
                             base=DetectorParams(train_len=60))


class TestEvaluateMany:
    @pytest.mark.parametrize("window", [6, 15, 40])
    def test_batch_equals_single_candidate_evaluate(self, tiny_scenarios,
                                                    window):
        rng = np.random.default_rng(window)
        alphas = [tuple(rng.dirichlet((1.0, 1.0, 1.0))) for _ in range(10)]
        alphas += [(1.0, 0.0, 0.0), (0.0, 0.0, 1.0), (1 / 3, 1 / 3, 1 / 3)]
        base = DetectorParams(train_len=60)
        batch = FitnessEvaluator(tiny_scenarios, base).evaluate_many(window,
                                                                     alphas)
        assert len(batch) == len(alphas)
        assert any(math.isfinite(res.objective_value) for res in batch)
        for alpha, res in zip(alphas, batch):
            single = FitnessEvaluator(tiny_scenarios, base).evaluate(window,
                                                                     alpha)
            assert comparable(res) == comparable(single)

    def test_row_without_spread_is_infeasible_alone(self, flat_lumped):
        rng = np.random.default_rng(7)
        alphas = [(0.5, 0.5, 0.0), (1.0, 0.0, 0.0)]
        alphas += [tuple(rng.dirichlet((1.0, 1.0, 1.0))) for _ in range(4)]
        base = DetectorParams(train_len=60)
        batch = FitnessEvaluator(flat_lumped, base).evaluate_many(16, alphas)
        finite = [math.isfinite(res.objective_value) for res in batch]
        assert finite == [True, False, True, True, True, True]
        assert math.isnan(batch[1].far)
        for alpha, res in zip(alphas, batch):
            single = FitnessEvaluator(flat_lumped, base).evaluate(16, alpha)
            assert comparable(res) == comparable(single)

    def test_recordings_with_different_training_lengths(self, tiny_scenarios):
        # a half-second recording has twice the training frames, so its
        # rows get a stacked threshold search of their own
        half = Telemetry.from_frames(simulate(SimConfig(
            duration=160.0, sample_interval=0.5, rng_seed=34)))
        teles = [tiny_scenarios[0], half, tiny_scenarios[1]]
        base = DetectorParams(train_len=60)
        rng = np.random.default_rng(8)
        alphas = [tuple(rng.dirichlet((1.0, 1.0, 1.0))) for _ in range(5)]
        batch = FitnessEvaluator(teles, base).evaluate_many(12, alphas)
        for alpha, res in zip(alphas, batch):
            params = dataclasses.replace(base, window=12, alpha=alpha)
            da = ta = f = tn = 0
            delays = []
            for tele in teles:
                rep = run_detector(tele, params)
                labels = tele.labels
                normal = (labels == 0) & ~np.isnan(rep.h_stream)
                da += int((rep.outcome.alarms & (labels == 1)).sum())
                ta += int((labels == 1).sum())
                f += int((rep.outcome.alarms & normal).sum())
                tn += int(normal.sum())
                if (labels == 1).any():
                    delays.append(compute_metrics(rep.outcome, labels,
                                                  MetricsConfig()).relative_delay)
            assert (res.detected_abnormal, res.total_abnormal,
                    res.false_alarms, res.total_normal) == (da, ta, f, tn)
            assert res.adr == da / ta and res.far == f / tn
            assert res.relative_delay == float(np.mean(delays))

    def test_window_failure_scores_every_row_infinite(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        batch = ev.evaluate_many(90, [(0.3, 0.4, 0.3), (1.0, 0.0, 0.0)])
        assert all(math.isinf(objective(res)) for res in batch)
        assert ev._prepared == {90: None}

    def test_repeated_rows_are_scored_once(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        a, b, c = ev.evaluate_many(15, [(0.3, 0.4, 0.3), (0.5, 0.25, 0.25),
                                        (0.3, 0.4, 0.3)])
        assert a is c and a is not b
        assert len(ev._memo) == 2
        assert ev.evaluate(15, np.array([0.5, 0.25, 0.25])) is b

    def test_rule_breaking_row_raises_before_scoring(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        with pytest.raises(ConfigError, match="sum to 1"):
            ev.evaluate_many(15, [(0.3, 0.4, 0.3), (0.5, 0.4, 0.3)])
        with pytest.raises(ConfigError, match="at least 4"):
            ev.evaluate_many(3, [(0.3, 0.4, 0.3)])
        assert not ev._memo
        assert not ev._prepared

    @pytest.mark.parametrize("window", [15.5, True])
    def test_window_is_checked_as_given(self, tiny_scenarios, window):
        # int() used to turn 15.5 into the memoised 15, and True into a
        # window of 1 that failed the floor instead of the integer rule
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        alpha = (0.3, 0.4, 0.3)
        first = ev.evaluate(15, alpha)
        with pytest.raises(ConfigError,
                           match=f"window must be an integer, got {window}"):
            ev.evaluate(window, alpha)
        with pytest.raises(ConfigError, match="window must be an integer"):
            ev.evaluate_many(window, [alpha])
        assert ev.evaluate(np.int64(15), alpha) is first


class TestGaConfig:
    def test_bounds(self):
        with pytest.raises(ConfigError):
            GaConfig(population=3)
        with pytest.raises(ConfigError):
            GaConfig(population=ELITE + IMMIGRANTS)
        with pytest.raises(ConfigError):
            dataclasses.replace(GaConfig(), population=ELITE + IMMIGRANTS)
        GaConfig(population=ELITE + IMMIGRANTS + 1)

    def test_window_floor_is_the_detectors(self):
        # a shorter window could never be scored, so the search may not
        # draw one
        with pytest.raises(ConfigError, match="4 <= w_min"):
            GaConfig(w_min=3)
        with pytest.raises(ConfigError, match="4 <= w_min"):
            dataclasses.replace(GaConfig(), w_min=3)
        GaConfig(w_min=4)

    @pytest.mark.parametrize("name, value", [
        ("population", 30.5), ("generations", 2.5), ("w_min", 5.5),
        ("w_max", 40.5), ("rng_seed", 1.5), ("population", True),
        ("rng_seed", True)])
    def test_integer_fields_must_be_integers(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            GaConfig(**{name: value})
        with pytest.raises(ConfigError, match=f"{name} must be an integer"):
            dataclasses.replace(GaConfig(), **{name: value})
        GaConfig(population=np.int64(30), rng_seed=np.int64(1))

    def test_negative_seed_named(self):
        # numpy's own message names neither the key nor the value
        with pytest.raises(ConfigError,
                           match="rng_seed must be non-negative, got -1"):
            GaConfig(rng_seed=-1)
        with pytest.raises(ConfigError, match="rng_seed"):
            dataclasses.replace(GaConfig(), rng_seed=-1)
        GaConfig(rng_seed=0)


@pytest.fixture(scope="module")
def ga_setup(tiny_scenarios):
    ev = FitnessEvaluator(tiny_scenarios, base=DetectorParams(train_len=60))
    ga = GaConfig(population=8, generations=5, w_min=5, w_max=40, rng_seed=11)
    return ev, ga


class TestMgaOptimize:
    def test_returns_feasible_params(self, tiny_scenarios, ga_setup):
        ev, ga = ga_setup
        log = []
        params = mga_optimize(tiny_scenarios, ev, ga, log=log)
        alpha = np.asarray(params.alpha)
        assert abs(alpha.sum() - 1.0) <= 1e-9
        assert (alpha >= 0.0).all()
        assert isinstance(params.window, int)
        assert 5 <= params.window <= 40
        assert len(log) == 5

    def test_deterministic(self, tiny_scenarios, ga_setup):
        ev, ga = ga_setup
        log_a, log_b = [], []
        pa = mga_optimize(tiny_scenarios, ev, ga, log=log_a)
        pb = mga_optimize(tiny_scenarios, ev, ga, log=log_b)
        assert pa.window == pb.window
        assert pa.alpha == pb.alpha
        assert log_a == log_b

    def test_elitism_monotone_and_log_shape(self, tiny_scenarios, ga_setup):
        ev, ga = ga_setup
        log = []
        mga_optimize(tiny_scenarios, ev, ga, log=log)
        best = [float(line.split(",")[1]) for line in log]
        assert all(b2 <= b1 + 1e-12 for b1, b2 in zip(best, best[1:]))
        for line in log:
            fields = line.split(",")
            assert len(fields) == 7  # gen, best, mean, W, a1, a2, a3

    def test_every_candidate_feasible_before_evaluation(self, tiny_scenarios,
                                                        ga_setup):
        _, ga = ga_setup
        ev_spy = FitnessEvaluator(tiny_scenarios,
                                  base=DetectorParams(train_len=60))
        seen = []
        real, real_many = ev_spy.evaluate, ev_spy.evaluate_many

        def spy(window, alpha):
            seen.append((window, tuple(alpha)))
            return real(window, alpha)

        def batch_spy(window, alphas):
            # checked here, before the batch is scored
            for alpha in alphas:
                seen.append((window, tuple(alpha)))
            check(seen)
            return real_many(window, alphas)

        def check(candidates):
            for w, alpha in candidates:
                assert isinstance(w, int) and 5 <= w <= 40
                a = np.asarray(alpha)
                assert abs(a.sum() - 1.0) <= 1e-9
                assert (a >= -1e-12).all()

        ev_spy.evaluate, ev_spy.evaluate_many = spy, batch_spy
        mga_optimize(tiny_scenarios, ev_spy, ga)
        assert seen
        check(seen)

    def test_one_evaluate_call_per_individual(self, tiny_scenarios, ga_setup):
        _, ga = ga_setup
        ev = FitnessEvaluator(tiny_scenarios, base=DetectorParams(train_len=60))
        calls = []
        real = ev.evaluate

        def spy(window, alpha):
            calls.append(window)
            return real(window, alpha)

        ev.evaluate = spy
        mga_optimize(tiny_scenarios, ev, ga)
        assert len(calls) == ga.population * (ga.generations + 1)

    def test_log_is_pinned(self, tiny_scenarios, ga_setup):
        # scoring each generation in batches must leave the search's path
        # as it is: these are the lines of the one-candidate-at-a-time search
        ev, ga = ga_setup
        log = []
        mga_optimize(tiny_scenarios, ev, ga, log=log)
        assert log == [
            "0,1.14753,4.55476,9,0.415635,0.518277,0.0660878",
            "1,1.12602,1.41886,8,0.40674,0.519736,0.0735235",
            "2,1.12602,1.16882,8,0.40674,0.519736,0.0735235",
            "3,1.12602,3.03477,8,0.40674,0.519736,0.0735235",
            "4,1.12602,1.16947,8,0.40674,0.519736,0.0735235"]

    def test_all_infeasible_falls_back_to_defaults(self, tiny_scenarios):
        ev = FitnessEvaluator(tiny_scenarios,
                              base=DetectorParams(train_len=60))
        ev.evaluate = lambda w, a: EvaluationResult(adr=0.0, far=0.0,
                                                    relative_delay=1.0)
        ga = GaConfig(population=6, generations=2, w_min=5, w_max=40,
                      rng_seed=3)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            params = mga_optimize(tiny_scenarios, ev, ga)
        assert any("no feasible" in str(w.message) for w in caught)
        assert params.window == 27
        assert params.alpha == DetectorParams().alpha

    def test_beats_its_own_initial_population(self, tiny_scenarios, ga_setup):
        ev, ga = ga_setup
        log = []
        mga_optimize(tiny_scenarios, ev, ga, log=log)
        first_best = float(log[0].split(",")[1])
        last_best = float(log[-1].split(",")[1])
        assert last_best <= first_best
