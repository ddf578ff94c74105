"""Tests for the end-to-end stream assembly: telemetry -> entropies -> alarms."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from packdiag import pipeline
from packdiag.errors import ConfigError
from packdiag.fusion import (
    DetectorParams,
    fit_kde,
    multiscale_statistic,
    threshold_from_kde,
)
from packdiag.pack import FaultSpec, SimConfig, simulate
from packdiag.pipeline import (
    CHUNK_BYTES,
    M,
    Telemetry,
    _fuzzy_entropies,
    _leading_modes,
    _rank1_temporal,
    calibrate_pooled,
    compensate,
    entropy_streams,
    lumped_entropy_series,
    run_detector,
)
from paper_oracles import fuzzy_entropy, looped_temporal, window_temporal

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def normal_tele():
    cfg = SimConfig(duration=260.0, rng_seed=9)
    return Telemetry.from_frames(simulate(cfg))


@pytest.fixture(scope="module")
def fault_tele():
    cfg = SimConfig(duration=260.0, rng_seed=10,
                    fault=FaultSpec(fault_cell=11, r_short=10.0, onset=150.0))
    return Telemetry.from_frames(simulate(cfg))


class TestTelemetry:
    @pytest.mark.parametrize("bad_t", [3.0, 2.0])
    def test_times_must_strictly_increase(self, bad_t):
        n = 5
        times = np.array([1.0, 2.0, 3.0, bad_t, 5.0])
        with pytest.raises(ValueError, match="index 3"):
            Telemetry(times=times, temps=np.zeros((n, 24)),
                      volts=np.zeros((n, 6)), current=np.zeros(n),
                      labels=np.zeros(n, dtype=int))

    def test_channel_counts_checked(self):
        n = 5
        good = dict(times=np.arange(1.0, n + 1), temps=np.zeros((n, 24)),
                    volts=np.ones((n, 6)), current=np.zeros(n),
                    labels=np.zeros(n, dtype=int))
        Telemetry(**good)
        for name, shape in (("temps", (n, 23)), ("volts", (n, 5))):
            with pytest.raises(ValueError, match=f"{name} has shape"):
                Telemetry(**dict(good, **{name: np.zeros(shape)}))

    @pytest.mark.parametrize("name, where", [("times", 4), ("temps", (4, 7)),
                                             ("volts", (4, 2)),
                                             ("current", 4)],
                             ids=["times", "temps", "volts", "current"])
    def test_non_finite_reading_names_index(self, name, where):
        # a NaN voltage would score h_d = 0 in every window holding it
        n = 6
        arrays = dict(times=np.arange(1.0, n + 1), temps=np.zeros((n, 24)),
                      volts=np.ones((n, 6)), current=np.zeros(n),
                      labels=np.zeros(n, dtype=int))
        arrays[name][where] = np.nan
        with pytest.raises(ValueError, match="index 4: non-finite"):
            Telemetry(**arrays)

    def test_labels_other_than_0_or_1_name_index(self):
        # frame_counts would count a frame labelled 2 as neither normal nor
        # abnormal, and compute_metrics would put the onset after it
        n = 10
        with pytest.raises(ValueError,
                           match="index 5: label must be 0 or 1, got 2"):
            Telemetry(times=np.arange(1.0, n + 1), temps=np.zeros((n, 24)),
                      volts=np.ones((n, 6)), current=np.zeros(n),
                      labels=np.array([0, 0, 0, 0, 0, 2, 2, 1, 1, 1]))

    def test_shapes_and_labels(self, fault_tele):
        t = fault_tele
        assert t.times.shape == (260,)
        assert t.temps.shape == (260, 24)
        assert t.volts.shape == (260, 6)
        assert t.labels.sum() == 110
        assert t.times[0] == 1.0

    def test_dropped_frame_names_index(self):
        # t = 4 is missing, so index 3 comes 2 s after the frame before it
        n = 6
        times = np.array([1.0, 2.0, 3.0, 5.0, 6.0, 7.0])
        with pytest.raises(ValueError, match="index 3: sample interval 2 s"):
            Telemetry(times=times, temps=np.zeros((n, 24)),
                      volts=np.zeros((n, 6)), current=np.zeros(n),
                      labels=np.zeros(n, dtype=int))


class TestEntropyStreams:
    def test_warmup_and_first_frame(self, normal_tele):
        w = 15
        streams = entropy_streams(normal_tele, window=w)
        assert np.isnan(streams.h_d[: w - 1]).all()
        assert np.isnan(streams.h_s[: w - 1]).all()
        assert np.isnan(streams.h_t[: w - 1]).all()
        # the first full window is scored on its own frames alone, with no
        # reference from elsewhere in the recording
        first = compensate(normal_tele.temps[:w])
        assert streams.h_s[w - 1] == pytest.approx(first.mean(axis=0).max(),
                                                   rel=0.0, abs=1e-15)
        # per frame the excess sums to zero, so the hottest cell is never
        # below zero
        assert (streams.h_s[w - 1 :] > 0.0).all()
        assert np.isfinite(streams.h_d[w - 1 :]).all()
        assert np.isfinite(streams.h_t[w - 1 :]).all()

    @pytest.mark.parametrize("w", [4, 6, 15, 27, 200])
    def test_matches_per_frame_recomputation(self, normal_tele, w):
        # direct frame-by-frame oracle over a handful of rows
        streams = entropy_streams(normal_tele, window=w)

        h_d = lumped_entropy_series(normal_tele.volts, w)
        # compensate() itself is checked against a least-squares oracle in
        # test_spacetime; here the streams are rebuilt window by window
        excess = compensate(normal_tele.temps)
        for k in [k for k in (w - 1, 40, 77, 201) if k >= w - 1]:
            win = excess[k - w + 1 : k + 1].T
            assert abs(streams.h_s[k] - win.mean(axis=1).max()) < 1e-12
            assert abs(streams.h_t[k] - window_temporal(win)) < 1e-12
            assert abs(streams.h_d[k] - h_d[k]) < 1e-12

    def test_window_longer_than_run_rejected(self, normal_tele):
        with pytest.raises(ValueError):
            entropy_streams(normal_tele, window=500)

    @pytest.mark.parametrize("window", [M + 2, 15, 27, 101, 200])
    def test_batched_path_matches_loop(self, fault_tele, window):
        # the single-mode vector path must reproduce the per-window loop
        excess = compensate(fault_tele.temps)
        h_t_fast = _rank1_temporal(excess, window)
        h_t_ref = looped_temporal(excess, window)
        np.testing.assert_allclose(h_t_fast, h_t_ref, rtol=1e-9, atol=1e-10)

    def test_batched_path_chunking_invariant(self, normal_tele,
                                             monkeypatch):
        # tiny chunks must stitch together to the same streams, bit for bit;
        # a window of the 24-channel excess takes 9,440 bytes at w = 20 and
        # 12,688 at w = 200, so each budget below fits `chunk` windows
        excess = compensate(normal_tele.temps)
        sizes = []
        unpatched = pipeline._leading_modes

        def leading_modes(block):
            sizes.append(block.shape[0])
            return unpatched(block)

        for window, window_bytes, chunks in ((20, 9440, (7,)),
                                             (200, 12688, (1, 7))):
            whole = _rank1_temporal(excess, window)
            for chunk in chunks:
                with monkeypatch.context() as m:
                    m.setattr(pipeline, "CHUNK_BYTES", chunk * window_bytes)
                    m.setattr(pipeline, "_leading_modes", leading_modes)
                    sizes.clear()
                    pieces = _rank1_temporal(excess, window)
                assert sizes[0] == chunk, (window, chunk)
                assert np.array_equal(whole, pieces, equal_nan=True), \
                    (window, chunk)

    def test_one_chunk_budget_for_both_windowed_streams(self, normal_tele,
                                                        monkeypatch):
        # h_d and h_t take their chunks by one rule within one budget, so a
        # single patch of the budget resizes both; at w = 20 a window of the
        # six voltages takes 1,152 bytes and one of the 18 excess
        # coordinates 5,360
        w = 20
        n_win = normal_tele.n_frames - w + 1
        calls = []
        unpatched = pipeline.window_chunks

        def window_chunks(n_win, window_bytes):
            parts = unpatched(n_win, window_bytes)
            calls.append((window_bytes, parts[0].stop - parts[0].start))
            return parts

        monkeypatch.setattr(pipeline, "window_chunks", window_chunks)
        whole = entropy_streams(normal_tele, w)
        assert calls == [(1152, n_win), (5360, n_win)]
        calls.clear()
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", 3 * 5360)
        pieces = entropy_streams(normal_tele, w)
        assert calls == [(1152, 13), (5360, 3)]
        for name in ("h_d", "h_s", "h_t"):
            assert np.array_equal(getattr(whole, name), getattr(pieces, name),
                                  equal_nan=True), name

    @pytest.mark.parametrize("w", [27, 200])
    def test_peak_memory_within_chunk_budget(self, w):
        # the windows are read through a view of the field, chunk by chunk,
        # so however long the recording the traced peak is the chunk's
        # budget plus the output and numpy's iteration buffers (about
        # 0.15 MB, whatever the chunk)
        field = np.random.default_rng(4).normal(0.0, 0.05, (2000, 18))
        _rank1_temporal(field[:w], w)  # one-time allocations do not count
        tracemalloc.start()
        try:
            h_t = _rank1_temporal(field, w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_BYTES + h_t.nbytes + 0.25e6, peak

    @pytest.mark.parametrize("kind", ["dead", "quiet", "gap"])
    def test_degenerate_windows_score_zero(self, kind, monkeypatch):
        # an all-zero excess has no leading mode; a time-constant one has a
        # leading coefficient with no spread; either way h_t is exactly 0;
        # so it is on the windows inside an all-zero stretch of a live
        # excess, which fall in the third and fourth chunks of 7 windows
        # (a window of the 24-channel excess takes 9,440 bytes at w = 15)
        n, w = 40, 15
        rng = np.random.default_rng(3)
        if kind == "dead":
            excess = np.zeros((n, 24))
        elif kind == "quiet":
            excess = np.tile(rng.normal(0.0, 0.05, 24), (n, 1))
        else:
            excess = rng.normal(0.0, 0.05, (n, 24))
            excess[20:38] = 0.0
        whole = _rank1_temporal(excess, w)
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", 7 * 9440)
        h_t = _rank1_temporal(excess, w)
        assert np.array_equal(h_t, whole, equal_nan=True)
        assert np.isnan(h_t[: w - 1]).all()
        loop = looped_temporal(excess, w)
        if kind == "gap":
            # the live windows match the loop to rounding only, as in
            # test_batched_path_matches_loop
            assert (h_t[34:38] == 0.0).all() and (h_t[38:] > 0.0).all()
            np.testing.assert_allclose(h_t, loop, rtol=1e-9, atol=1e-10)
        else:
            assert (h_t[w - 1 :] == 0.0).all()
            assert np.array_equal(h_t, loop, equal_nan=True)


class TestLeadingModes:
    def test_degenerate_windows_need_no_eigh(self, monkeypatch):
        # every window is solved by squaring alone, with no eigh: a zero
        # window has no Gram to square and keeps lam = 0 and a = 0; a Gram
        # that is exactly a multiple of the identity never nears rank 1
        # however often it is squared, so any unit vector is a leading one;
        # top singular values 1 and 1 - delta take more squarings the
        # smaller delta is; a rank-1 and a generic window converge quickly
        rng = np.random.default_rng(8)
        n, w = 18, 36
        eye = np.eye(n)
        windows = [np.zeros((n, w)),
                   np.outer(rng.normal(size=n), rng.normal(size=w)),
                   np.hstack([eye, -eye]),  # B B^T = 2 I
                   rng.normal(size=(n, w))]
        for delta in (1e-6, 1e-9, 1e-12):
            left = np.linalg.qr(rng.normal(size=(n, n)))[0]
            right = np.linalg.qr(rng.normal(size=(w, n)))[0]
            sv = np.concatenate([[1.0, 1.0 - delta],
                                 np.sort(rng.uniform(0.1, 0.9, n - 2))[::-1]])
            windows.append(left * sv @ right.T)
        block = np.stack(windows)
        solved = []
        unpatched = np.linalg.eigh

        def eigh(gram):
            solved.append(gram.shape[0])
            return unpatched(gram)

        monkeypatch.setattr(np.linalg, "eigh", eigh)
        lam, a = _leading_modes(block)
        assert solved == []
        top = np.linalg.svd(block, compute_uv=False)[:, 0]
        np.testing.assert_allclose(lam, top, rtol=1e-14, atol=0.0)
        assert lam[0] == 0.0 and (a[0] == 0.0).all()
        for b, lam_b, a_b in zip(block[1:], lam[1:], a[1:]):
            # a = u^T B / lam, so B a^T / lam is the unit vector u
            u = b @ a_b / lam_b
            assert abs(np.linalg.norm(u) - 1.0) < 1e-14
            residual = b @ (b.T @ u) - lam_b**2 * u
            assert np.linalg.norm(residual) <= 1e-14 * lam_b**2

    def test_dimension_m_kernel_reads_one_coordinate(self):
        # neighbours that straddle zero: the two baseline-free components
        # of a dimension-2 vector differ by an ulp in some pairs, and the
        # kernel reads only the first
        rng = np.random.default_rng(12)
        w = 40
        a = rng.uniform(0.1, 1.0, (60, w)) * (-1.0) ** np.arange(w)
        mid = (a[:, :-1] + a[:, 1:]) / 2
        assert (np.abs(a[:, :-1] - mid) != np.abs(a[:, 1:] - mid)).any()
        fast = _fuzzy_entropies(a, w - M)
        slow = [fuzzy_entropy(row) for row in a]
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-12)


class TestCalibration:
    def test_normalizers_are_training_maxima(self, normal_tele):
        params = DetectorParams(window=15, train_len=120)
        streams = entropy_streams(normal_tele, window=15)
        cal = calibrate_pooled([streams], params)
        train = normal_tele.times <= 120
        assert cal.max_hd == np.nanmax(streams.h_d[train])
        assert cal.max_hs == np.nanmax(streams.h_s[train])
        assert cal.max_ht == np.nanmax(streams.h_t[train])
        assert cal.h_r is not None
        # the original params object is untouched
        assert params.max_hd is None

    def test_pooled_over_recordings(self, normal_tele, fault_tele):
        # the normalizers are the maxima over every recording's training
        # frames, and one density is fitted to all their fused values
        params = DetectorParams(window=15, train_len=120)
        streams = [entropy_streams(t, window=15)
                   for t in (normal_tele, fault_tele)]
        cal = calibrate_pooled(streams, params)
        rows = np.concatenate(
            [np.stack([s.h_d, s.h_s, s.h_t])[:, (s.times <= 120)
                                             & ~np.isnan(s.h_d)]
             for s in streams], axis=1)
        assert (cal.max_hd, cal.max_hs, cal.max_ht) == tuple(rows.max(axis=1))
        # each recording holds the pooled maximum of at least one stream
        names = ("max_hd", "max_hs", "max_ht")
        for single in (calibrate_pooled([s], params) for s in streams):
            assert any(getattr(single, n) < getattr(cal, n) for n in names)
        h = multiscale_statistic(*rows, cal)
        assert cal.h_r == threshold_from_kde(fit_kde(h), params.beta)

    def test_threshold_covers_training(self, normal_tele):
        params = DetectorParams(window=15, train_len=120, beta=0.99)
        streams = entropy_streams(normal_tele, window=15)
        cal = calibrate_pooled([streams], params)
        train = (normal_tele.times <= 120) & ~np.isnan(streams.h_d)
        h = multiscale_statistic(streams.h_d[train], streams.h_s[train],
                                 streams.h_t[train], cal)
        assert (h < cal.h_r).mean() >= 0.97

    def test_train_len_counts_seconds_and_window_frames(self):
        # at 0.5 s sampling 27 frames span 13.5 s, so a 20 s prefix holds
        # the 14 frames t = 13.5 .. 20 with all three streams defined
        tele = Telemetry.from_frames(
            simulate(SimConfig(duration=60.0, sample_interval=0.5, rng_seed=9)))
        report = run_detector(tele, DetectorParams(window=27, train_len=20))
        train = (tele.times <= 20) & ~np.isnan(report.h_stream)
        assert train.sum() == 14
        assert report.params.max_hs == np.max(report.streams.h_s[train])

    def test_train_len_must_cover_window(self, normal_tele):
        params = DetectorParams(window=15, train_len=10)
        streams = entropy_streams(normal_tele, window=15)
        with pytest.raises(ConfigError):
            calibrate_pooled([streams], params)

    def test_flat_training_is_a_degenerate_normalizer(self):
        # a pack at rest with noise-free sensors leaves every stream at zero
        tele = Telemetry.from_frames(simulate(SimConfig(
            duration=700.0, discharge_rate=0.0, temp_noise_std=0.0,
            volt_noise_std=0.0)))
        streams = entropy_streams(tele, window=27)
        with pytest.raises(ConfigError, match="max_hd must be positive"):
            calibrate_pooled([streams], DetectorParams())


class TestRunDetector:
    def test_fault_detected_after_onset(self, fault_tele):
        params = DetectorParams(window=27, train_len=120)
        report = run_detector(fault_tele, params)
        assert report.outcome.t_f is not None
        post = report.outcome.alarms & (fault_tele.labels == 1)
        assert post.any()
        # the short drives a prompt alarm: the statistic crosses the
        # threshold within four window lengths of the onset
        first_post = report.outcome.times[post][0]
        assert 150.0 < first_post <= 210.0
        # and stays quiet before the onset
        pre = report.outcome.alarms[(fault_tele.labels == 0)
                                    & ~np.isnan(report.h_stream)]
        assert pre.mean() <= 0.05

    def test_normal_run_quiet(self, normal_tele):
        params = DetectorParams(window=27, train_len=120)
        report = run_detector(normal_tele, params)
        usable = ~np.isnan(report.h_stream)
        far = report.outcome.alarms[usable].mean()
        assert far <= 0.05

    def test_no_refit_needs_calibrated_params(self, fault_tele):
        # without stored normalizers and threshold there is nothing to use
        with pytest.raises(ConfigError, match="calibrated params"):
            run_detector(fault_tele, DetectorParams(train_len=60), refit=False)

    def test_deterministic(self, fault_tele):
        params = DetectorParams(window=27, train_len=120)
        a = run_detector(fault_tele, params)
        b = run_detector(fault_tele, params)
        assert np.array_equal(a.h_stream, b.h_stream, equal_nan=True)
        assert a.params.h_r == b.params.h_r


def test_package_runs_without_scipy():
    # the package needs numpy alone: importing its command line, scoring a
    # recording with calibration and the threshold search, and one GA
    # evaluation load no scipy module (scipy.special made a fresh import of
    # packdiag.cli take about 170 ms and 25 MB of peak RSS more)
    code = ("import sys\n"
            "import packdiag.cli\n"
            "from packdiag import pack, pipeline, tuning\n"
            "from packdiag.fusion import DetectorParams\n"
            "fault = pack.FaultSpec(fault_cell=4, r_short=10.0, onset=90.0)\n"
            "cfg = pack.SimConfig(duration=160.0, rng_seed=31, fault=fault)\n"
            "tele = pipeline.Telemetry.from_frames(pack.simulate(cfg))\n"
            "params = DetectorParams(window=15, train_len=60)\n"
            "report = pipeline.run_detector(tele, params)\n"
            "assert report.params.h_r is not None\n"
            "evaluator = tuning.FitnessEvaluator([tele], base=params)\n"
            "evaluator.evaluate(20, (0.3, 0.4, 0.3))\n"
            "print(sorted(m for m in sys.modules\n"
            "             if m.partition('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], cwd=SRC,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"
