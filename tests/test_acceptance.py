"""Acceptance gate: end-to-end checks with fixed tolerances and budgets.

Each test prints one [PASS]/[FAIL] verdict line with the achieved numbers.
The shipped-defaults benchmark reports achieved values side by side with
its targets and fails when any target is missed.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from packdiag.bench import report_lines, run_benchmark, summary_lines
from packdiag.fusion import (
    DetectorParams,
    fit_kde,
    multiscale_statistic,
    threshold_from_kde,
)
from packdiag.io import read_scenario, write_dataset
from packdiag.pack import (
    HEIGHT,
    N_CELLS,
    N_GROUPS,
    NODE,
    ROWS,
    VOLUMETRIC_HEAT_CAPACITY,
    FaultSpec,
    SimConfig,
    simulate,
)
from packdiag.pipeline import (
    Telemetry,
    calibrate_pooled,
    entropy_streams,
)
from packdiag.tuning import (
    FitnessEvaluator,
    GaConfig,
    compute_metrics,
    mga_optimize,
    objective,
)
from packdiag.fusion import DetectionOutcome
from paper_oracles import (
    decompose_window,
    dissimilarity_entropy,
    exhaustive_fuzzy,
    fuzzy_entropy,
    kde_pdf,
    ledgered_simulate,
)

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _verdict(ok: bool, name: str, detail: str) -> bool:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    return ok


def test_entropy_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(0)

    # a symmetric two-valued multiset always scores exactly one
    worst_two_valued = 0.0
    for _ in range(25):
        a, b = rng.normal(size=2) * rng.uniform(0.5, 20.0)
        half = int(rng.integers(1, 12))
        z = rng.permutation(np.r_[np.full(half, a), np.full(half, b)])
        worst_two_valued = max(worst_two_valued,
                               abs(dissimilarity_entropy(z) - 1.0))
    assert worst_two_valued <= 1e-9
    assert dissimilarity_entropy(np.full(8, 3.3)) == 0.0

    assert abs(fuzzy_entropy(np.full(30, 2.5))) <= 1e-12

    elapsed = time.perf_counter() - start
    ok = elapsed < 1.0
    assert _verdict(ok, "entropy identities",
                    f"two-valued gap {worst_two_valued:.1e}, "
                    f"{elapsed:.2f}s < 1s")


def test_factorization_and_fuzzy_oracles():
    start = time.perf_counter()
    rng = np.random.default_rng(42)

    worst_recon = 0.0
    for _ in range(200):
        n_rows = int(rng.integers(2, 9))
        n_cols = int(rng.integers(2, 9))
        window = rng.normal(size=(n_rows, n_cols))
        order = int(rng.integers(1, min(n_rows, n_cols) + 1))
        dec = decompose_window(window, order=order)
        # independent route: eigenvectors of the spatial Gram matrix span
        # the same leading subspace, so the projections must agree
        eigvals, eigvecs = np.linalg.eigh(window @ window.T)
        lead = eigvecs[:, np.argsort(eigvals)[::-1][:order]]
        projected = lead @ (lead.T @ window)
        worst_recon = max(worst_recon,
                          float(np.abs(dec.reconstruct() - projected).max()))
    assert worst_recon <= 1e-8

    worst_fuzzy = 0.0
    for _ in range(100):
        length = int(rng.integers(5, 13))
        series = rng.normal(size=length)
        r = 0.2 * float(series.std()) + 0.05
        got = fuzzy_entropy(series, m=2, r=r)
        want = exhaustive_fuzzy(series, 2, r)
        worst_fuzzy = max(worst_fuzzy, abs(got - want))
    assert worst_fuzzy <= 1e-10

    elapsed = time.perf_counter() - start
    ok = elapsed < 10.0
    assert _verdict(ok, "factorization and fuzzy oracles",
                    f"reconstruction gap {worst_recon:.1e} <= 1e-8, "
                    f"fuzzy gap {worst_fuzzy:.1e} <= 1e-10, "
                    f"{elapsed:.2f}s < 10s")


def test_threshold_calibration():
    start = time.perf_counter()
    tele = Telemetry.from_frames(simulate(SimConfig(duration=650.0,
                                                    rng_seed=11)))
    params = DetectorParams()  # train_len 600, beta 0.99
    streams = entropy_streams(tele, params.window)
    cal = calibrate_pooled([streams], params)
    train = (streams.times <= params.train_len) & ~np.isnan(streams.h_d)
    h_train = multiscale_statistic(streams.h_d[train], streams.h_s[train],
                                   streams.h_t[train], cal)
    below = float((h_train < cal.h_r).mean())
    assert params.beta - 0.02 <= below <= 1.0

    model = fit_kde(h_train)
    grid = np.linspace(model.samples.min() - 10.0 * model.bandwidth,
                       model.samples.max() + 10.0 * model.bandwidth, 40001)
    integral = float(np.trapezoid(kde_pdf(model, grid), grid))
    assert abs(integral - 1.0) <= 1e-3
    # the fitted threshold is what the detector actually compares against
    assert cal.h_r == pytest.approx(threshold_from_kde(model, params.beta),
                                    abs=1e-9)

    elapsed = time.perf_counter() - start
    ok = elapsed < 5.0
    assert _verdict(ok, "threshold calibration",
                    f"{below:.4f} of training frames below threshold "
                    f"(floor {params.beta - 0.02:.2f}), density integral "
                    f"{integral:.6f}, {elapsed:.2f}s < 5s")


def test_metric_arithmetic():
    start = time.perf_counter()
    times = np.arange(1.0, 2001.0)
    labels = (times > 1000).astype(int)
    h = np.where(times < 27, np.nan, 0.5)
    alarm_times = np.arange(1011.0, 1933.0)
    alarms = np.isin(times, alarm_times)
    out = DetectionOutcome(times=times, h_stream=h, alarms=alarms,
                           t_f=1011.0)
    from packdiag.tuning import MetricsConfig
    res = compute_metrics(out, labels, MetricsConfig(t_r=1000.0))
    rate_text = f"{100.0 * res.adr:.2f}"
    delay_text = f"{res.relative_delay:.3f}"
    assert res.detected_abnormal == 922
    assert res.total_abnormal == 1000
    assert rate_text == "92.20"
    assert delay_text == "0.011"
    elapsed = time.perf_counter() - start
    assert _verdict(True, "metric arithmetic",
                    f"922/1000 -> {rate_text}%, delay 11/1000 -> "
                    f"{delay_text}, {elapsed:.2f}s")


def test_benchmark_at_shipped_defaults():
    start = time.perf_counter()

    scenario_files = sorted(SCENARIO_DIR.glob("*.scenario"))
    assert len(scenario_files) == 9
    scenarios = [(p.stem, read_scenario(p)) for p in scenario_files]
    rep = run_benchmark(scenarios, DetectorParams())
    elapsed = time.perf_counter() - start
    for line in report_lines(rep):
        print(line)
    assert len(rep.rows) == 9
    assert all(r.status == "ok" for r in rep.rows)
    assert elapsed < 300.0
    ok = rep.passed
    summary = "; ".join(summary_lines(rep))
    _verdict(ok, "benchmark at shipped defaults",
             f"{summary}, {elapsed:.1f}s < 300s")
    assert ok, summary


def test_optimizer_beats_random_search():
    start = time.perf_counter()
    fault_a = SimConfig(duration=1200.0, rng_seed=201,
                        fault=FaultSpec(fault_cell=4, r_short=10.0,
                                        onset=700.0))
    fault_b = SimConfig(duration=1200.0, rng_seed=202,
                        fault=FaultSpec(fault_cell=23, r_short=10.0,
                                        onset=700.0))
    normal = SimConfig(duration=1200.0, rng_seed=203)
    scenarios = [Telemetry.from_frames(simulate(cfg))
                 for cfg in (fault_a, fault_b, normal)]
    evaluator = FitnessEvaluator(scenarios, base=DetectorParams())

    emitted = []
    real_evaluate = evaluator.evaluate

    def spying_evaluate(window, alpha):
        emitted.append((window, tuple(float(a) for a in alpha)))
        return real_evaluate(window, alpha)

    wins = 0
    results = []
    for seed in range(10):
        evaluator.evaluate = spying_evaluate
        params = mga_optimize(scenarios, evaluator, GaConfig(rng_seed=seed))
        evaluator.evaluate = real_evaluate
        ga_best = objective(real_evaluate(params.window, params.alpha))

        rng = np.random.default_rng(1000 + seed)
        random_best = math.inf
        for _ in range(200):
            w = int(rng.integers(GaConfig().w_min, GaConfig().w_max + 1))
            alpha = tuple(rng.dirichlet((1.0, 1.0, 1.0)))
            random_best = min(random_best,
                              objective(real_evaluate(w, alpha)))
        results.append((ga_best, random_best))
        if ga_best < random_best:
            wins += 1

    assert emitted
    for window, alpha in emitted:
        assert isinstance(window, int)
        assert GaConfig().w_min <= window <= GaConfig().w_max
        total = sum(alpha)
        assert abs(total - 1.0) <= 1e-9
        assert all(a >= 0.0 for a in alpha)

    elapsed = time.perf_counter() - start
    detail = ", ".join(f"{g:.3f}v{r:.3f}" for g, r in results)
    ok = wins >= 9 and elapsed <= 600.0
    assert _verdict(ok, "optimizer beats random search",
                    f"{wins}/10 seeds won (GA vs best-of-200: {detail}), "
                    f"{len(emitted)} emitted candidates all feasible, "
                    f"{elapsed:.0f}s <= 600s")


def test_simulator_physics(tmp_path, monkeypatch):
    start = time.perf_counter()

    cfg = SimConfig(duration=120.0, h_forced=0.0, h_natural=0.0,
                    temp_noise_std=0.0, volt_noise_std=0.0,
                    fault=FaultSpec(fault_cell=4, r_short=10.0, onset=30.0))
    run = ledgered_simulate(cfg, monkeypatch)
    node_volume = NODE * NODE * HEIGHT
    gained = float(((run.field - cfg.ambient)
                    * VOLUMETRIC_HEAT_CAPACITY).sum() * node_volume)
    energy_err = abs(gained / run.heat_j - 1.0)
    assert run.heat_j > 0
    assert energy_err < 0.005

    # noise-free, so each frame reads the pack current exactly
    pack_current = run.frames[-1].pack_current
    worst_kcl = 0.0
    for grp in np.arange(N_CELLS).reshape(N_GROUPS, ROWS):
        worst_kcl = max(worst_kcl,
                        abs(float(run.elec.branch_current[grp].sum())
                            - pack_current))
    assert worst_kcl <= 1e-9

    seeded = SimConfig(duration=30.0, rng_seed=77,
                       fault=FaultSpec(fault_cell=9, r_short=10.0,
                                       onset=15.0))
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_dataset(a, Telemetry.from_frames(simulate(seeded)))
    write_dataset(b, Telemetry.from_frames(simulate(seeded)))
    assert a.read_bytes() == b.read_bytes()

    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    assert _verdict(ok, "simulator physics",
                    f"energy closure {100 * energy_err:.3f}% < 0.5%, "
                    f"branch-sum gap {worst_kcl:.1e} A <= 1e-9, "
                    f"same-seed datasets byte-identical, "
                    f"{elapsed:.1f}s < 30s")
