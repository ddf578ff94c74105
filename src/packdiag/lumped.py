"""Voltage-consistency ("lumped") entropy.

Each series group contributes one voltage signal. A sliding coefficient of
variation per signal is scored against the cross-group spread, and a
skewness-like statistic of those scores flags the window where one group
stops behaving like the others. All statistics are population statistics
over the window.

The chunk budget that both windowed streams (h_d here, h_t in
pipeline._rank1_temporal) score their sliding windows within lives here
too, where pipeline can import it.
"""

from __future__ import annotations

import numpy as np

# spreads below this are treated as exactly degenerate
SPREAD_FLOOR = 1e-15

# the windows of one chunk allocate at most this many bytes together. Larger
# chunks cost fewer calls per lag but at long windows spill h_t's lag
# buffers out of cache: at w = 200, 4 MB chunks scored 1200 frames about
# 20 % faster than 16 MB ones, and no shorter window was slower
CHUNK_BYTES = 4e6


def window_chunks(n_win: int, window_bytes: int) -> list[slice]:
    """Consecutive slices covering n_win windows, each of as many windows as
    CHUNK_BYTES holds at window_bytes a window, and at least one."""
    chunk = max(1, min(int(CHUNK_BYTES / window_bytes), n_win))
    return [slice(start, min(start + chunk, n_win))
            for start in range(0, n_win, chunk)]


def lumped_entropy_series(volts: np.ndarray, window: int) -> np.ndarray:
    """Per-frame dissimilarity entropy h_d over a (n_frames, n_signals) matrix.

    Row k is defined once the window ending at frame k is full; earlier rows
    are NaN. ValueError when a window of a signal has a zero mean.

    Each window's mean and coefficient of variation are taken chunk by
    chunk (see window_chunks) from the sliding-window view of volts, which
    is never copied; a chunk's std holds the deviations of all its
    windows. A window's reductions see the same values in the same layout
    in any chunk, so h_d does not depend on the chunking. Everything from
    the (n_frames - window + 1, n_signals) array of coefficients on is
    computed whole.
    """
    volts = np.asarray(volts, dtype=float)
    n, n_signals = volts.shape
    h_d = np.full(n, np.nan)
    if n < window:
        return h_d

    n_win = n - window + 1
    wins = np.lib.stride_tricks.sliding_window_view(volts, window, axis=0)  # (n-W+1, P, W)
    cv = np.empty((n_win, n_signals))
    # per window and signal: the window's deviations, the two means, the
    # std and the quotient
    for part in window_chunks(n_win, 8 * n_signals * (window + 4)):
        block = wins[part]
        mu = block.mean(axis=2)
        if (np.abs(mu) < SPREAD_FLOOR).any():
            raise ValueError("zero-mean voltage window")
        cv[part] = block.std(axis=2) / mu

    mu_cv = cv.mean(axis=1, keepdims=True)
    sd_cv = cv.std(axis=1)
    scores = np.abs(cv - mu_cv)
    ok = sd_cv >= SPREAD_FLOOR
    scores[ok] /= sd_cv[ok, None]
    scores[~ok] = 0.0

    # third absolute moment over variance^(3/2) of each frame's scores: 1
    # for any symmetric two-valued set, 0 when all scores coincide
    dev = scores - scores.mean(axis=1, keepdims=True)
    var = np.mean(dev**2, axis=1)
    third = np.mean(np.abs(dev) ** 3, axis=1)
    ent = np.zeros(len(var))
    good = np.sqrt(var) >= SPREAD_FLOOR
    ent[good] = third[good] / var[good] ** 1.5

    h_d[window - 1:] = ent
    return h_d
