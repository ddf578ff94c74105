"""Voltage-consistency ("lumped") entropy.

Each series group contributes one voltage signal. A sliding coefficient of
variation per signal is scored against the cross-group spread, and a
skewness-like statistic of those scores flags the window where one group
stops behaving like the others. All statistics are population statistics
over the window.
"""

from __future__ import annotations

import numpy as np

# spreads below this are treated as exactly degenerate
SPREAD_FLOOR = 1e-15


def lumped_entropy_series(volts: np.ndarray, window: int) -> np.ndarray:
    """Per-frame dissimilarity entropy h_d over a (n_frames, n_signals) matrix.

    Row k is defined once the window ending at frame k is full; earlier rows
    are NaN.
    """
    volts = np.asarray(volts, dtype=float)
    n = volts.shape[0]
    h_d = np.full(n, np.nan)
    if n < window:
        return h_d

    wins = np.lib.stride_tricks.sliding_window_view(volts, window, axis=0)  # (n-W+1, P, W)
    mu = wins.mean(axis=2)
    if (np.abs(mu) < SPREAD_FLOOR).any():
        raise ValueError("zero-mean voltage window")
    cv = wins.std(axis=2) / mu

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
