"""Correctness oracles, written from the definitions and apart from packdiag.

Each check raises CheckFailed with what disagreed. The oracles share no
code with the package: the excess field is a per-frame least-squares fit,
h_t comes from a per-window SVD and a fuzzy entropy spelled out pair by
pair, and the threshold is checked against scipy's own Gaussian KDE.
"""

from __future__ import annotations

import math

import numpy as np

# absolute tolerance on temperatures and excess (kelvin); sensor noise is
# 0.05 K, rounding in the fit stays below 1e-12 K
TEMP_ATOL = 1e-9
# relative tolerance between the package's batched streams and the
# per-window oracle; both are double precision over the same inputs
STREAM_RTOL = 1e-8
# how far the KDE mass below H_r may sit from beta: the package bisects to
# 1e-10 in H, and the density at H_r is of order one
CDF_TOL = 1e-7
TRACE_RTOL = 1e-11   # the trace file keeps 12 significant digits
SAMPLED_FRAMES = 40  # h_t is checked at this many frames in and past training


class CheckFailed(AssertionError):
    """An output of the program disagrees with its oracle."""


def require(ok: bool, message: str):
    if not ok:
        raise CheckFailed(message)


def excess_field(temps: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Residual of a per-frame least-squares fit of (1, x, y, x², xy, y²)."""
    # standardised positions span the same surfaces with a better-conditioned fit
    x, y = ((centers - centers.mean(axis=0)) / centers.std(axis=0)).T
    basis = np.column_stack([np.ones_like(x), x, y, x * x, x * y, y * y])
    out = np.empty_like(temps, dtype=float)
    for k, frame in enumerate(temps):
        coef, *_ = np.linalg.lstsq(basis, frame, rcond=None)
        out[k] = frame - basis @ coef
    return out


def h_s_series(excess: np.ndarray, w: int) -> np.ndarray:
    """Largest per-cell mean excess over each window; NaN before the first."""
    out = np.full(excess.shape[0], np.nan)
    for k in range(w - 1, excess.shape[0]):
        out[k] = excess[k - w + 1 : k + 1].mean(axis=0).max()
    return out


def h_d_series(volts: np.ndarray, w: int) -> np.ndarray:
    """CV per group, z-scored across groups, third absolute moment / var^1.5."""
    out = np.full(volts.shape[0], np.nan)
    for k in range(w - 1, volts.shape[0]):
        win = volts[k - w + 1 : k + 1]
        cv = win.std(axis=0) / win.mean(axis=0)
        spread = cv.std()
        z = np.abs(cv - cv.mean()) / spread if spread >= 1e-15 \
            else np.zeros_like(cv)
        dev = z - z.mean()
        var = np.mean(dev ** 2)
        out[k] = np.mean(np.abs(dev) ** 3) / var ** 1.5 \
            if math.sqrt(var) >= 1e-15 else 0.0
    return out


def fuzzy_entropy(a: np.ndarray, m: int = 2) -> float:
    """Fuzzy entropy with tolerance 0.2·std, as the package documents it.

    Delay vectors of length m and m+1 start at the same W-m positions, lose
    their own mean and keep absolute deviations. Similarity of two vectors
    is exp(-ln2 (d/r)²) for their Chebyshev distance d, averaged over
    ordered pairs of distinct vectors.
    """
    spread = a.std()
    if spread < 1e-15:
        return 0.0
    r = 0.2 * spread
    count = a.size - m

    def mean_similarity(mu: int) -> float:
        starts = np.lib.stride_tricks.sliding_window_view(a, mu)[:count]
        vecs = np.abs(starts - starts.mean(axis=1, keepdims=True)).T.copy()
        # Chebyshev distance: the largest component gap, components first
        dist = np.abs(vecs[:, :, None] - vecs[:, None, :]).max(axis=0)
        sim = np.exp(-math.log(2.0) * (dist / r) ** 2)
        return sim[~np.eye(count, dtype=bool)].sum() / (count * (count - 1))

    return math.log(mean_similarity(m)) - math.log(mean_similarity(m + 1))


def h_t_at(excess: np.ndarray, w: int, k: int) -> float:
    """Leading singular value times the fuzzy entropy of its time coefficients."""
    _, s, vt = np.linalg.svd(excess[k - w + 1 : k + 1].T, full_matrices=False)
    return float(s[0] * fuzzy_entropy(vt[0]))


def _close(a, b, rtol: float, atol: float = 0.0) -> bool:
    return bool(np.all(np.abs(np.asarray(a) - np.asarray(b))
                       <= atol + rtol * np.abs(np.asarray(b))))


def check_detection(tele, report, centers: np.ndarray,
                    rng: np.random.Generator) -> np.ndarray:
    """Streams, normalizers, threshold and alarms of one detector run.

    h_d and h_s are checked on every frame. h_t, an SVD and an O(w²) kernel
    per frame, is checked on SAMPLED_FRAMES training frames and as many
    later ones drawn by rng, and on the frames of its training maximum and
    of the first alarm. Returns the oracle's excess field.
    """
    from scipy.stats import gaussian_kde  # slow to import; only checks need it

    streams, params, outcome = report.streams, report.params, report.outcome
    w = params.window
    excess = excess_field(tele.temps, centers)

    h_d = h_d_series(tele.volts, w)
    require(np.array_equal(np.isnan(h_d), np.isnan(streams.h_d)),
            "h_d warm-up rows differ from the oracle's")
    defined = ~np.isnan(h_d)
    require(_close(streams.h_d[defined], h_d[defined], STREAM_RTOL, 1e-12),
            "h_d disagrees with its formula")
    h_s = h_s_series(excess, w)
    require(_close(streams.h_s[defined], h_s[defined], 0.0, TEMP_ATOL),
            "h_s disagrees with the largest window mean of the lstsq excess")

    train = (tele.times <= params.train_len) & defined
    train_idx = np.flatnonzero(train)
    frames = {int(train_idx[np.argmax(streams.h_t[train])])}
    for pool in (train_idx, np.flatnonzero(defined & ~train)):
        if pool.size:
            frames |= set(rng.choice(pool, min(SAMPLED_FRAMES, pool.size),
                                     replace=False).tolist())
    if outcome.t_f is not None:
        frames.add(int(np.argmax(outcome.alarms)))
    frames = np.array(sorted(frames))
    h_t = np.array([h_t_at(excess, w, k) for k in frames])
    require(_close(streams.h_t[frames], h_t, STREAM_RTOL, 1e-12),
            "h_t disagrees with the per-window SVD and fuzzy entropy")

    maxima = [float(np.max(h_d[train])), float(np.max(h_s[train])),
              float(np.max(streams.h_t[train]))]
    got = [params.max_hd, params.max_hs, params.max_ht]
    require(_close(got, maxima, STREAM_RTOL),
            f"normalizers {got} differ from training maxima {maxima}")

    a1, a2, a3 = params.alpha
    h_oracle = (a1 * h_d[frames] / maxima[0] + a2 * h_s[frames] / maxima[1]
                + a3 * h_t / maxima[2])
    require(_close(report.h_stream[frames], h_oracle, STREAM_RTOL),
            "H disagrees with the weighted normalized streams")

    kde = gaussian_kde(report.h_stream[train],
                       bw_method=1.06 * train_idx.size ** -0.2)
    mass = kde.integrate_box_1d(-np.inf, params.h_r)
    require(abs(mass - params.beta) <= CDF_TOL,
            f"KDE mass below H_r is {mass!r}, beta is {params.beta!r}")

    with np.errstate(invalid="ignore"):
        rule = report.h_stream > params.h_r
    require(np.array_equal(outcome.alarms, rule & ~np.isnan(report.h_stream)),
            "alarms are not exactly H > H_r")
    clear = np.abs(h_oracle - params.h_r) > STREAM_RTOL * params.h_r
    require(np.array_equal(outcome.alarms[frames][clear],
                           (h_oracle > params.h_r)[clear]),
            "alarms disagree with the oracle's H against H_r")
    first = tele.times[np.argmax(outcome.alarms)] if outcome.alarms.any() \
        else None
    require(outcome.t_f == first, f"t_f {outcome.t_f} is not the first alarm "
            f"{first}")
    return excess


def check_localization(tele, cmap, window: int, excess: np.ndarray):
    """The named cell is the argmax of the oracle's mean excess over the window."""
    idx = int(np.flatnonzero(tele.times == cmap.t_f)[0])
    means = excess[idx - window + 1 : idx + 1].mean(axis=0)
    require(_close(cmap.contributions, means, 0.0, TEMP_ATOL),
            "contributions differ from the oracle's mean excess")
    require(cmap.cell_serial == int(np.argmax(means)) + 1,
            f"named cell {cmap.cell_serial}, oracle argmax "
            f"{int(np.argmax(means)) + 1}")


def check_trace_file(path, report):
    """The written detection trace carries the report's H and alarms."""
    lines = open(path, encoding="utf-8").read().splitlines()
    require(len(lines) == report.h_stream.size + 1,
            f"trace has {len(lines) - 1} rows, expected {report.h_stream.size}")
    rows = [line.split(",") for line in lines[1:]]
    alarms = np.array([row[6] == "1" for row in rows])
    require(np.array_equal(alarms, report.outcome.alarms),
            "trace alarm column differs from the report")
    defined = ~np.isnan(report.h_stream)
    h = np.array([float(row[4]) for row, ok in zip(rows, defined) if ok])
    require(_close(h, report.h_stream[defined], TRACE_RTOL),
            "trace H column differs from the report")
