"""Tests for the lumped (voltage-consistency) entropy chain."""

import tracemalloc

import numpy as np
import pytest

from packdiag import pipeline
from packdiag.pipeline import CHUNK_BYTES, SPREAD_FLOOR, lumped_entropy_series
from paper_oracles import dissimilarity_entropy, whole_view_lumped


# Streaming oracle: a ring buffer walked one frame at a time, scored with
# the per-window statistics the vectorized series computes all at once.
class SlidingWindowBuffer:
    """Fixed-width ring over the most recent samples of several signals."""

    def __init__(self, n_signals: int, window: int):
        if n_signals < 1:
            raise ValueError("need at least one signal")
        if window < 2:
            raise ValueError("window must be at least 2")
        self.n_signals = n_signals
        self.window = window
        self._data = np.zeros((n_signals, window))
        self._count = 0
        self._head = 0

    @property
    def warm(self) -> bool:
        return self._count >= self.window

    def push(self, values) -> None:
        values = np.asarray(values, dtype=float)
        if values.shape != (self.n_signals,):
            raise ValueError(f"expected {self.n_signals} values, got shape {values.shape}")
        self._data[:, self._head] = values
        self._head = (self._head + 1) % self.window
        self._count += 1

    def window_array(self) -> np.ndarray:
        """Samples in arrival order, oldest first, shape (n_signals, window)."""
        if not self.warm:
            raise ValueError("buffer not warm yet")
        return np.roll(self._data, -self._head, axis=1)


def sliding_cv(buffer: SlidingWindowBuffer, signal: int | None = None):
    """Coefficient of variation (population std / mean) over the buffered window.

    With signal=None returns the vector across all signals.
    """
    win = buffer.window_array()
    if signal is not None:
        win = win[signal:signal + 1]
    mu = win.mean(axis=1)
    if (np.abs(mu) < SPREAD_FLOOR).any():
        raise ValueError("zero-mean window has no coefficient of variation")
    out = win.std(axis=1) / mu
    if signal is not None:
        return float(out[0])
    return out


def z_scores(xi: np.ndarray) -> np.ndarray:
    """Absolute z-score of each signal's CV against the cross-signal spread.

    A degenerate spread (all CVs equal) scores every signal 0.
    """
    xi = np.asarray(xi, dtype=float)
    if xi.size < 2:
        raise ValueError("need at least two signals")
    sigma = xi.std()
    if sigma < SPREAD_FLOOR:
        return np.zeros_like(xi)
    return np.abs(xi - xi.mean()) / sigma


def _moments_oracle(z):
    # literal third-absolute-moment over variance^(3/2)
    z = np.asarray(z, float)
    mu = z.mean()
    third = np.mean(np.abs(z - mu) ** 3)
    var = np.mean((z - mu) ** 2)
    return third / var**1.5


def _two_valued_oracle(j, k):
    # closed form for a multiset with j copies of one value and k of another
    p = j + k
    return (j**2 + k**2) / (p * np.sqrt(j * k))


class TestBuffer:
    def test_warmup_and_eviction(self):
        buf = SlidingWindowBuffer(n_signals=2, window=3)
        assert not buf.warm
        buf.push([1.0, 10.0])
        buf.push([2.0, 20.0])
        assert not buf.warm
        buf.push([3.0, 30.0])
        assert buf.warm
        buf.push([4.0, 40.0])
        win = buf.window_array()
        assert win.shape == (2, 3)
        assert win[0].tolist() == [2.0, 3.0, 4.0]
        assert win[1].tolist() == [20.0, 30.0, 40.0]

    def test_push_shape_checked(self):
        buf = SlidingWindowBuffer(n_signals=2, window=3)
        with pytest.raises(ValueError):
            buf.push([1.0])

    def test_cold_buffer_rejected(self):
        buf = SlidingWindowBuffer(n_signals=1, window=4)
        buf.push([1.0])
        with pytest.raises(ValueError):
            sliding_cv(buf, 0)


class TestSlidingCv:
    def test_hand_window(self):
        buf = SlidingWindowBuffer(n_signals=1, window=2)
        buf.push([3.0])
        buf.push([5.0])
        assert abs(sliding_cv(buf, 0) - 0.25) < 1e-12

    def test_population_statistics(self):
        # population std over the window, not the sample estimator
        buf = SlidingWindowBuffer(n_signals=1, window=4)
        for v in [2.0, 4.0, 6.0, 8.0]:
            buf.push([v])
        want = np.std([2, 4, 6, 8]) / 5.0
        assert abs(sliding_cv(buf, 0) - want) < 1e-12

    def test_all_signals_vector(self):
        buf = SlidingWindowBuffer(n_signals=3, window=2)
        buf.push([3.0, 3.0, 1.0])
        buf.push([5.0, 3.0, 1.0])
        out = sliding_cv(buf)
        assert out.shape == (3,)
        assert abs(out[0] - 0.25) < 1e-12
        assert out[1] == 0.0
        assert out[2] == 0.0

    def test_zero_mean_window_rejected(self):
        buf = SlidingWindowBuffer(n_signals=1, window=2)
        buf.push([-1.0])
        buf.push([1.0])
        with pytest.raises(ValueError):
            sliding_cv(buf, 0)


class TestZScores:
    def test_hand_values(self):
        z = z_scores(np.array([1.0, 1.0, 1.0, 3.0]))
        want = np.array([0.5, 0.5, 0.5, 1.5]) / (np.sqrt(3) / 2)
        assert np.allclose(z, want, atol=1e-12)

    def test_absolute_deviations(self):
        # z-scores are non-negative magnitudes
        rng = np.random.default_rng(0)
        for _ in range(50):
            xi = rng.normal(0.1, 0.02, 6)
            z = z_scores(xi)
            assert (z >= 0).all()

    def test_degenerate_spread_gives_zeros(self):
        z = z_scores(np.full(6, 0.123))
        assert np.array_equal(z, np.zeros(6))

    def test_scale_invariance(self):
        rng = np.random.default_rng(1)
        xi = rng.uniform(0.05, 0.15, 6)
        assert np.allclose(z_scores(xi), z_scores(xi * 7.5), atol=1e-10)

    def test_needs_two_signals(self):
        with pytest.raises(ValueError):
            z_scores(np.array([1.0]))


class TestDissimilarityEntropy:
    def test_symmetric_two_valued_is_one(self):
        assert abs(dissimilarity_entropy(np.array([0.0, 0.0, 2.0, 2.0])) - 1.0) < 1e-12

    def test_skewed_two_valued(self):
        got = dissimilarity_entropy(np.array([0.0, 0.0, 0.0, 3.0]))
        assert abs(got - _two_valued_oracle(3, 1)) < 1e-12
        assert abs(got - 1.4433756729740645) < 1e-12

    def test_all_equal_is_zero(self):
        assert dissimilarity_entropy(np.full(6, 2.5)) == 0.0

    def test_matches_moment_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            z = rng.uniform(0, 3, 6)
            assert abs(dissimilarity_entropy(z) - _moments_oracle(z)) < 1e-10

    def test_two_valued_property(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            j = int(rng.integers(1, 8))
            k = int(rng.integers(1, 8))
            a, b = rng.uniform(-5, 5, 2)
            while abs(a - b) < 1e-3:
                b = rng.uniform(-5, 5)
            z = np.array([a] * j + [b] * k)
            assert abs(dissimilarity_entropy(z) - _two_valued_oracle(j, k)) < 1e-9

    def test_permutation_and_affine_invariance(self):
        rng = np.random.default_rng(4)
        z = rng.uniform(0, 2, 6)
        h = dissimilarity_entropy(z)
        assert abs(dissimilarity_entropy(z[::-1]) - h) < 1e-12
        assert abs(dissimilarity_entropy(3.0 * z + 1.0) - h) < 1e-10


class TestSeriesPath:
    def test_matches_buffer_walk(self):
        # the vectorized series agrees with an explicit buffer walk frame by frame
        rng = np.random.default_rng(5)
        volts = 4.0 + 0.01 * rng.standard_normal((40, 6))
        w = 9
        h_d = lumped_entropy_series(volts, w)
        buf = SlidingWindowBuffer(n_signals=6, window=w)
        for k in range(40):
            buf.push(volts[k])
            if k < w - 1:
                assert np.isnan(h_d[k])
                continue
            xi = sliding_cv(buf)
            z = z_scores(xi)
            assert abs(h_d[k] - dissimilarity_entropy(z)) < 1e-12

    def test_warmup_is_nan(self):
        volts = np.ones((5, 6)) * 4.0
        assert np.isnan(lumped_entropy_series(volts, 27)).all()


class TestChunking:
    @staticmethod
    def volts(n):
        # six drifting group voltages, one of which departs halfway
        rng = np.random.default_rng(6)
        volts = 4.0 - 1e-4 * np.arange(n)[:, None] \
            + 0.01 * rng.standard_normal((n, 6))
        volts[n // 2 :, 3] += 0.002 * rng.standard_normal(n - n // 2)
        return volts

    @pytest.mark.parametrize("w", [4, 27, 200])
    @pytest.mark.parametrize("per_chunk", [1, 7, None])
    def test_matches_whole_view_bit_for_bit(self, monkeypatch, w, per_chunk):
        # a window of six signals takes 8 * 6 * (w + 4) bytes; 601 frames
        # leave a partial last chunk of 7 windows at each w
        volts = self.volts(601)
        n_win = 601 - w + 1
        parts = []
        unpatched = pipeline.window_chunks

        def window_chunks(n_win, window_bytes):
            parts.extend(unpatched(n_win, window_bytes))
            return parts

        if per_chunk is not None:
            monkeypatch.setattr(pipeline, "CHUNK_BYTES",
                                per_chunk * 8 * 6 * (w + 4))
        monkeypatch.setattr(pipeline, "window_chunks", window_chunks)
        h_d = lumped_entropy_series(volts, w)
        sizes = [part.stop - part.start for part in parts]
        assert sum(sizes) == n_win
        if per_chunk is None:
            assert sizes == [n_win]
        else:
            assert sizes[0] == per_chunk
            assert 0 < sizes[-1] < per_chunk or per_chunk == 1
        assert np.array_equal(h_d, whole_view_lumped(volts, w),
                              equal_nan=True)

    def test_zero_mean_window_in_a_later_chunk(self, monkeypatch):
        # frames 500-503 of one signal average exactly zero; at seven
        # windows a chunk the window ending at frame 503 sits in the 72nd
        volts = self.volts(601)
        volts[500:504, 2] = [1.0, -1.0, 1.0, -1.0]
        monkeypatch.setattr(pipeline, "CHUNK_BYTES", 7 * 8 * 6 * (4 + 4))
        for series in (lumped_entropy_series, whole_view_lumped):
            with pytest.raises(ValueError, match="^zero-mean voltage window$"):
                series(volts, 4)

    def test_peak_memory_within_chunk_budget(self):
        # the windows are read through a view of volts, chunk by chunk, so
        # however long the recording the traced peak is the chunk's budget
        # plus the whole arrays of a few floats a frame from the
        # coefficients on, under six times the size of volts; the
        # whole-view formula holds 193 MB of deviations here
        volts = self.volts(20_000)
        lumped_entropy_series(volts[:300], 200)
        tracemalloc.start()
        try:
            lumped_entropy_series(volts, 200)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= CHUNK_BYTES + 6 * volts.nbytes, peak
