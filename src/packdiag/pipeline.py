"""End-to-end assembly: telemetry frames -> entropy streams -> alarm decisions.

This ties the three abnormality measures to the shared sliding window:
voltage dissimilarity across series groups (h_d), the hottest cell's excess
over the smooth temperature surface (h_s), and temporal irregularity of the
dominant mode of that excess field (h_t).

Each series group contributes one voltage signal to h_d. A sliding
coefficient of variation per signal is scored against the cross-group
spread, and a skewness-like statistic of those scores flags the window where
one group stops behaving like the others. All statistics are population
statistics over the window.

A normal pack warms as a whole and cools along a smooth pattern set by its
boundaries; a shorted cell is a hot spot on top of that. compensate() strips
the smooth part frame by frame (the pack mean and the best-fitting quadratic
surface over the cell positions), leaving each cell's excess over its
surroundings in the same unit as the input, whatever its zero. Both thermal
streams and localization read this excess field. The excess has as many
dimensions as cells but fills only the 18 of the pack's 24 that
COMPLEMENT_BASIS spans; h_t decomposes its windows in those coordinates. The
cells do not move, so that basis and the projector compensate() applies are
built once, at import.

Calibration takes each stream's maximum over a leading stretch of
presumed-normal frames as its normalizer, fuses the normalized streams
into one weighted sum, and places the alarm threshold on the density of
that sum over the same frames.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fusion import (
    CALIBRATION_KEYS,
    DetectionOutcome,
    DetectorParams,
    M,
    detect,
    fit_kde,
    multiscale_statistic,
    require_window,
    threshold_from_kde,
)
from .pack import LAYOUT, N_CELLS, N_GROUPS, TelemetryFrame

# largest relative departure of any sample interval from the median one
SAMPLING_TOLERANCE = 0.1

# spreads below this are treated as exactly degenerate
SPREAD_FLOOR = 1e-15

# the windows of one chunk allocate at most this many bytes together. Larger
# chunks cost fewer calls per lag but at long windows spill h_t's lag
# buffers out of cache: at w = 200, 4 MB chunks scored 1200 frames about
# 20 % faster than 16 MB ones, and no shorter window was slower
CHUNK_BYTES = 4e6


def first_bad_frame(times: np.ndarray, labels: np.ndarray,
                    *channels: np.ndarray) -> tuple[int, str] | None:
    """Index of the first frame that breaks the telemetry rules, and why.

    Every time and every channel reading must be finite, and every label 0
    (normal) or 1 (abnormal). Times must strictly increase, and every
    interval must lie within SAMPLING_TOLERANCE of the median interval:
    windows count frames while train_len counts seconds, so a dropped or
    doubled frame would silently stretch or shrink every window. channels
    are arrays with one row per frame. None when every frame is in line.
    """
    finite = np.isfinite(np.column_stack((times, *channels))).all(axis=1)
    if not finite.all():
        return int(np.argmin(finite)), "non-finite field"
    unlabelled = np.flatnonzero((labels != 0) & (labels != 1))
    if unlabelled.size:
        k = int(unlabelled[0])
        return k, f"label must be 0 or 1, got {labels[k]}"
    steps = np.diff(times)
    out_of_order = np.flatnonzero(~(steps > 0.0))
    if out_of_order.size:
        k = int(out_of_order[0]) + 1
        return k, (f"time {times[k]:.12g} does not exceed the previous "
                   f"{times[k - 1]:.12g}")
    typical = float(np.median(steps)) if steps.size else 0.0
    uneven = np.flatnonzero(np.abs(steps - typical)
                            > SAMPLING_TOLERANCE * typical)
    if uneven.size:
        k = int(uneven[0]) + 1
        return k, (f"sample interval {steps[k - 1]:.12g} s is more than "
                   f"{SAMPLING_TOLERANCE:.0%} off the median {typical:.12g} s")
    return None


@dataclass
class Telemetry:
    """Column-stacked sensor history for one recording, shape-checked and
    held to first_bad_frame's rules on construction."""

    times: np.ndarray    # (n,) seconds
    temps: np.ndarray    # (n, N_CELLS) cell surface temperatures, K
    volts: np.ndarray    # (n, N_GROUPS) series-group terminal voltages, V
    current: np.ndarray  # (n,) pack current, A
    labels: np.ndarray   # (n,) 0 normal / 1 abnormal

    def __post_init__(self):
        n = self.times.shape[0]
        for name, shape in (("times", (n,)), ("temps", (n, N_CELLS)),
                            ("volts", (n, N_GROUPS)), ("current", (n,)),
                            ("labels", (n,))):
            got = getattr(self, name).shape
            if got != shape:
                raise ValueError(f"{name} has shape {got}, expected {shape}")
        bad = first_bad_frame(self.times, self.labels, self.temps,
                              self.volts, self.current)
        if bad is not None:
            k, why = bad
            raise ValueError(f"frame at index {k}: {why}")

    @classmethod
    def from_frames(cls, frames: list[TelemetryFrame]) -> "Telemetry":
        if not frames:
            raise ValueError("empty frame list")
        return cls(
            times=np.array([f.t for f in frames]),
            temps=np.array([f.cell_temps for f in frames]),
            volts=np.array([f.group_volts for f in frames]),
            current=np.array([f.pack_current for f in frames]),
            labels=np.array([f.label for f in frames], dtype=int),
        )

    @property
    def n_frames(self) -> int:
        return self.times.shape[0]


@dataclass
class EntropyStreams:
    """Per-frame abnormality streams; NaN over the warm-up prefix."""

    times: np.ndarray
    h_d: np.ndarray
    h_s: np.ndarray
    h_t: np.ndarray
    window: int


def window_chunks(n_win: int, window_bytes: int) -> list[slice]:
    """Consecutive slices covering n_win windows, each of as many windows as
    CHUNK_BYTES holds at window_bytes a window, and at least one."""
    chunk = max(1, min(int(CHUNK_BYTES / window_bytes), n_win))
    return [slice(start, min(start + chunk, n_win))
            for start in range(0, n_win, chunk)]


def _quadratic_surfaces() -> np.ndarray:
    """The surfaces 1, x, y, x^2, xy, y^2 over the cell centres, as columns."""
    # standardized positions span the same surfaces and keep the fit well
    # conditioned
    coords = LAYOUT.cell_centers
    x, y = ((coords - coords.mean(axis=0)) / coords.std(axis=0)).T
    return np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)


_SURFACES = _quadratic_surfaces()
# the thin SVD's left singular vectors span every quadratic surface
_SPAN = np.linalg.svd(_SURFACES, full_matrices=False)[0]
# orthogonal projector onto what no quadratic surface explains
_SMOOTH_PROJECTOR = np.eye(N_CELLS) - _SPAN @ _SPAN.T
# orthonormal (24, 18) columns spanning what _SMOOTH_PROJECTOR keeps: the
# full SVD's columns past the surfaces. Every compensated frame lies in
# their span, so `excess @ COMPLEMENT_BASIS` holds the same frames in 18
# coordinates, with the same norms and the same inner products between
# frames.
COMPLEMENT_BASIS = np.linalg.svd(_SURFACES)[0][:, _SPAN.shape[1]:]


def compensate(temps: np.ndarray) -> np.ndarray:
    """Each cell's excess over the smooth temperature surface, per frame.

    temps is (n_frames, N_CELLS), one column per cell in serial order.
    Every frame loses its mean (the common mode) and then its least-squares
    quadratic surface in x and y (the cooling gradient and its curvature).
    The result has the unit of the input but not its zero: kelvin and
    Celsius input give the same excess, and each frame of it sums to zero.
    """
    t = np.asarray(temps, dtype=float)
    # centring first keeps the projection working on tenths of a kelvin
    # rather than hundreds, so the unit's zero leaves no rounding trace
    centred = t - t.mean(axis=1, keepdims=True)
    return centred @ _SMOOTH_PROJECTOR


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


def entropy_streams(tele: Telemetry, window: int) -> EntropyStreams:
    """Compute all three streams over a recording with a shared window length.

    The window is checked by fusion.require_window (ConfigError). Row k is
    defined once k+1 >= window; earlier rows are NaN. Both thermal
    streams read the compensated temperatures (see compensate), so neither
    depends on the temperature unit's zero and neither needs a reference
    taken elsewhere in the recording:

    - h_s is the largest per-cell mean excess over the window, in the
      temperature unit. Sensor noise averages out over the window; a
      shorted cell holds it up for as long as the short lasts.
    - h_t is the singular-value-weighted fuzzy entropy of the dominant
      temporal mode of the excess window. The higher modes sit at the
      sensor-noise floor, so only the first is kept.

    Both windowed streams, h_d (lumped_entropy_series) and h_t
    (_rank1_temporal), score their windows in chunks within one budget,
    CHUNK_BYTES, by one rule, window_chunks, so only arrays of a few floats
    a frame grow with the recording.
    """
    n = tele.n_frames
    w = require_window(window)
    if n < w:
        raise ValueError(f"recording has {n} frames, needs at least {w}")

    h_d = lumped_entropy_series(tele.volts, w)
    excess = compensate(tele.temps)
    h_s = np.full(n, np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(excess, w, axis=0)
    h_s[w - 1 :] = windows.mean(axis=2).max(axis=1)
    h_t = _rank1_temporal(excess @ COMPLEMENT_BASIS, w)

    return EntropyStreams(times=tele.times.copy(), h_d=h_d, h_s=h_s, h_t=h_t,
                          window=w)


LN2 = math.log(2.0)


def _rank1_temporal(field: np.ndarray, w: int) -> np.ndarray:
    """Single-mode temporal stream over every sliding window at once.

    Per window: the leading singular value of the (n_channels, w) field
    window times the fuzzy entropy of its leading temporal coefficient row
    (right singular vector), over the first w - M baseline-free delay
    vectors at dimensions M and M + 1, with Gaussian similarity
    exp(-ln 2 (d / r)^2) of their Chebyshev distance d and r at 0.2 times
    the row's spread. No leading mode or no spread scores 0.
    tests/paper_oracles.looped_temporal is this definition written window
    by window.

    The windows are taken chunk by chunk from the sliding-window view of
    the field, which is never copied; _leading_modes and _fuzzy_entropies
    score a chunk, and each window's result depends on that window alone,
    so not on the chunk. Per window of a chunk they hold either two
    (n_channels, n_channels) matrices, the Gram power that _leading_modes
    squares and its square or compacted copy, with the leading vector
    (n_channels) and four floats of traces and indices beside them, or the
    leading row (w) with, at dimension M + 1, the scaled, lag-ordered
    delay-vector components and their means ((M + 2) count, count = w - M)
    and three lag buffers (3 count); window_chunks holds a chunk's larger
    need to CHUNK_BYTES.
    The output and numpy's fixed-size iteration buffers come on top.
    """
    n, n_channels = field.shape
    n_win = n - w + 1
    count = w - M

    window_bytes = 8 * max(n_channels * (2 * n_channels + 1) + 4,
                           w + (M + 5) * count)

    h_t = np.full(n, np.nan)
    windows = np.lib.stride_tricks.sliding_window_view(field, w, axis=0)
    for part in window_chunks(n_win, window_bytes):
        lam, a = _leading_modes(windows[part])
        h_t[w - 1 :][part] = lam * _fuzzy_entropies(a, count)
        # the next chunk's squaring buffers take this chunk's rows' place
        del lam, a
    return h_t


# every window's Gram is squared this many times before any is tested
SQUARINGS = 8
# a window still live after this many squarings is degenerate to rounding:
# a top-two gap of 2.2e-16 relative, the smallest a double can hold, brings
# the off-leading mass down to CONVERGED by about the 58th
MAX_SQUARINGS = 64
# the off-leading mass, 1 - |P|_F^2 of a unit-trace P, at which the
# leading direction is taken as exact
CONVERGED = 1e-15
# squarings between rescalings to unit trace; see _leading_modes
RESCALE_EVERY = 4


def _leading_modes(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Leading singular value and unit leading temporal row of each window
    of a (c, n_channels, w) stack.

    The leading pair comes from the (n_channels, n_channels) Gram matrix
    G = B B^T of each window B, not from an SVD: its top eigenvector u is
    the leading left singular vector, so a = u^T B is the leading singular
    value times the leading temporal row, lam = |a| and a / lam is that
    row. The singular values and right singular vectors of B depend on B
    only through B^T B, which is unchanged when B is rewritten in any
    orthonormal basis of a subspace holding its columns. Every compensated
    frame lies in the 18-dimensional span of COMPLEMENT_BASIS, so
    entropy_streams passes the excess in those 18 coordinates and the Gram
    is 18 x 18 instead of 24 x 24. Fuzzy entropy does not see the sign of
    the row, so rows are not sign-aligned.

    u comes from repeated squaring, the power method on G^(2^k) (Golub and
    Van Loan, Matrix Computations, section 8.2), batched over the stack
    with np.matmul. P starts as G at unit trace; its eigenvalues are then
    weights summing to 1, and each squaring squares them, so all but the
    largest fade. 1 - |P|_F^2 / tr(P)^2 is about twice the weight left
    outside the leading direction. Every window is squared SQUARINGS
    times; from then on, a window whose last P was within CONVERGED of
    rank 1 leaves the stack, and u is the column of its P at the largest
    diagonal entry, normalized. P is rescaled to unit trace only every
    RESCALE_EVERY squarings: its top eigenvalue is at least 1/n_channels
    of its trace, so in between the trace cannot fall below
    n_channels^-16 of its last value, far from underflow. A window still
    in the stack after MAX_SQUARINGS has top eigenvalues equal to within
    rounding, so every unit vector of their eigenspace is a leading
    vector, and it takes its u the same way. A window whose Gram is
    exactly zero never enters the stack: it keeps u = 0, so its lam and a
    are 0. What a window computes depends on that window alone.
    """
    c, n_channels, _ = block.shape
    u = np.zeros((c, n_channels))
    p = block @ block.transpose(0, 2, 1)
    trace = np.einsum("ijj->i", p)
    live = np.flatnonzero(trace)
    if live.size < c:
        p, trace = p[live], trace[live]
    p /= trace[:, None, None]
    trace = np.ones(live.size)
    for step in range(1, MAX_SQUARINGS + 1):
        if not live.size:
            break
        p = p @ p
        # tr(P^2) is |P|_F^2 of the P just squared, whose trace was `trace`
        frob = np.einsum("ijj->i", p)
        done = trace * trace - frob <= CONVERGED * trace * trace
        # a window live at the cap is degenerate to rounding
        done |= step == MAX_SQUARINGS
        if step % RESCALE_EVERY == 0:
            p /= frob[:, None, None]
            frob = np.ones(live.size)
        trace = frob
        if step < SQUARINGS or not done.any():
            continue
        rows = np.flatnonzero(done)
        top = np.diagonal(p, axis1=1, axis2=2)[rows].argmax(axis=1)
        col = p[rows, :, top]
        u[live[rows]] = col / np.sqrt(np.einsum("ij,ij->i", col, col))[:, None]
        keep = ~done
        p, live, trace = p[keep], live[keep], trace[keep]
    a = (u[:, None, :] @ block)[:, 0, :]
    lam = np.sqrt(np.einsum("ij,ij->i", a, a))
    # an all-zero window keeps lam = 0 and a = 0, which has no spread:
    # it scores 0, as the loop's zero-filled degenerate mode does
    a /= np.where(lam > 0.0, lam, 1.0)[:, None]
    return lam, a


def _fuzzy_entropies(a: np.ndarray, count: int) -> np.ndarray:
    """Fuzzy entropy of each row of a (c, w) array over its first count
    delay vectors, with r at 0.2 times the row's spread; 0 with no spread.

    The similarity of two delay vectors is symmetric and self-pairs are
    excluded, so each pair sum is twice the half sum over lags
    k = 1 .. count-1: with every delay-vector component laid out as a
    (count, c) array, the pairs (i, i+k) of all rows are two contiguous row
    slices. Each component is scaled by sqrt(ln 2) / r once, so a pair's
    similarity exp(-ln 2 (d / r)^2) is exp(-the largest squared component
    difference). A baseline-free vector of dimension 2 is (-d/2, d/2) for
    the step d between its two samples, so both its absolute components
    are |d|/2 and the distance between two such vectors is read from one
    coordinate. No pairwise (count, count) array is formed. Each pair's
    similarity is summed over lags into its first index, then over that
    index, so a row's result does not depend on the other rows.
    """
    c = a.shape[0]
    spread = a.std(axis=1)
    quiet = spread < SPREAD_FLOOR
    scale = math.sqrt(LN2) / (0.2 * np.where(quiet, 1.0, spread))
    comps_buf = np.empty((M + 1, count, c))
    dist = np.empty((count, c))
    diff = np.empty((count, c))
    acc = np.empty((count, c))
    log_sim = np.zeros((2, c))
    for j, mu in enumerate((M, M + 1)):
        vecs = np.lib.stride_tricks.sliding_window_view(a, mu, axis=1)[:, :count]
        used = 1 if mu == 2 else mu
        comps = comps_buf[:used]  # (used, count, c)
        np.subtract(vecs[:, :, :used].transpose(2, 1, 0),
                    vecs.mean(axis=2).T, out=comps)
        np.abs(comps, out=comps)
        comps *= scale
        acc.fill(0.0)
        for k in range(1, count):
            # largest squared component difference of pairs (i, i+k), one
            # component at a time
            d = dist[: count - k]
            np.subtract(comps[0, k:], comps[0, :-k], out=d)
            np.multiply(d, d, out=d)
            for dim in range(1, used):
                dd = diff[: count - k]
                np.subtract(comps[dim, k:], comps[dim, :-k], out=dd)
                np.multiply(dd, dd, out=dd)
                np.maximum(d, dd, out=d)
            # in-place Gaussian similarity
            np.negative(d, out=d)
            np.exp(d, out=d)
            acc[: count - k] += d
        total = 2.0 * np.ascontiguousarray(acc.T).sum(axis=1)
        log_sim[j] = np.log(total / (count * (count - 1)))
    fe = log_sim[0] - log_sim[1]
    fe[quiet] = 0.0
    return fe


def training_frames(streams: EntropyStreams, train_len: int) -> slice:
    """The training frames of a recording: those with t <= train_len that
    already have stream values.

    The streams share one warm-up of window - 1 frames and times increase,
    so the frames form one slice. ConfigError when train_len passes the
    end of the recording or the slice is empty.
    """
    if train_len > streams.times[-1]:
        raise ConfigError("train_len exceeds the recording length")
    start = streams.window - 1
    stop = int(np.searchsorted(streams.times, train_len, side="right"))
    if stop <= start:
        raise ConfigError("training prefix has no usable frames; "
                          "increase train_len or shorten the window")
    return slice(start, stop)


def fit_normalizers(streams_list: list[EntropyStreams],
                    params: DetectorParams) -> tuple[DetectorParams, list[slice]]:
    """Fill in the normalizers: each stream's maximum over the training
    frames (see training_frames) of every given recording.

    Returns the new parameter set and each recording's training frames.
    DetectorParams rejects a normalizer that is not positive (ConfigError).
    """
    if not streams_list:
        raise ConfigError("need at least one stream set to calibrate")
    trains = [training_frames(s, params.train_len) for s in streams_list]
    max_hd, max_hs, max_ht = (float(m) for m in np.max(
        [(s.h_d[t].max(), s.h_s[t].max(), s.h_t[t].max())
         for s, t in zip(streams_list, trains)], axis=0))
    cal = dataclasses.replace(params, max_hd=max_hd, max_hs=max_hs,
                              max_ht=max_ht)
    return cal, trains


def fit_threshold(h_train, beta: float):
    """Alarm threshold: the beta-point of the training statistic's kernel
    density (see fit_kde and threshold_from_kde). A (k, L) stack of
    training statistics gets one threshold per row, NaN for a row without
    density."""
    return threshold_from_kde(fit_kde(h_train), beta)


def calibrate_pooled(streams_list: list[EntropyStreams],
                     params: DetectorParams) -> DetectorParams:
    """Fill in normalizers and alarm threshold from pooled training prefixes.

    The normalizers come from fit_normalizers, and the threshold from the
    fused statistic over every recording's training frames. Returns a new
    parameter set; the inputs are not modified.
    """
    cal, trains = fit_normalizers(streams_list, params)
    h_train = np.concatenate([
        multiscale_statistic(s.h_d[t], s.h_s[t], s.h_t[t], cal)
        for s, t in zip(streams_list, trains)])
    return dataclasses.replace(cal, h_r=fit_threshold(h_train, params.beta))


@dataclass
class DetectorReport:
    """Everything one detection pass produced."""

    streams: EntropyStreams
    h_stream: np.ndarray
    params: DetectorParams        # the calibrated set actually used
    outcome: DetectionOutcome


def run_detector(tele: Telemetry, params: DetectorParams,
                 refit: bool = True) -> DetectorReport:
    """Score a recording and raise alarms.

    With refit=True (default) the normalizers and threshold are re-derived
    from this recording's own training prefix; otherwise params must already
    be calibrated (ConfigError if not) and is used as-is.
    """
    streams = entropy_streams(tele, params.window)
    if refit:
        params = calibrate_pooled([streams], params)
    else:
        for name in CALIBRATION_KEYS:
            if getattr(params, name) is None:
                raise ConfigError(f"calibrated params need {name}")
    h = multiscale_statistic(streams.h_d, streams.h_s, streams.h_t, params)
    outcome = detect(streams.times, h, params)
    return DetectorReport(streams=streams, h_stream=h, params=params,
                          outcome=outcome)
