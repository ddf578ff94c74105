"""Fusing the three entropy channels into one alarmed statistic.

Each channel is scaled by its maximum over the normal training segment, the
scaled values are blended by the weight vector, and a Gaussian kernel density
fit of the training statistic sets the alarm threshold at a chosen
confidence. Test-time values are deliberately not clipped at 1: exceeding
the training maximum is the whole point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import ndtr

from .errors import ConfigError

DEFAULT_ALPHA = (0.216, 0.573, 0.211)
# width at which the threshold bisection stops
THRESHOLD_TOL = 1e-10


@dataclass
class DetectorParams:
    """Window, channel weights, confidence, and calibration artifacts."""

    window: int = 27
    alpha: tuple = DEFAULT_ALPHA
    beta: float = 0.99
    train_len: int = 600
    max_hd: float | None = None
    max_hs: float | None = None
    max_ht: float | None = None
    h_r: float | None = None

    def validate(self, calibrated: bool = False):
        if not isinstance(self.window, (int, np.integer)) or self.window < 1:
            raise ConfigError("window must be a positive integer")
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (3,):
            raise ConfigError("alpha must have three entries")
        if (alpha < 0).any() or (alpha > 1).any():
            raise ConfigError("alpha entries must lie in [0, 1]")
        if abs(alpha.sum() - 1.0) > 1e-9:
            raise ConfigError("alpha entries must sum to 1")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie strictly between 0 and 1")
        if self.train_len < self.window:
            raise ConfigError("training segment shorter than the window")
        if calibrated:
            for name in ("max_hd", "max_hs", "max_ht"):
                v = getattr(self, name)
                if v is None or v <= 0:
                    raise ConfigError(f"calibrated params need positive {name}")
            if self.h_r is None:
                raise ConfigError("calibrated params need a threshold")


def normalize(value, training_max: float):
    """Scale by the training maximum. No clipping: ratios above 1 carry signal."""
    if training_max is None or training_max <= 0:
        raise ConfigError("training maximum must be positive")
    return value / training_max


def multiscale_statistic(h_d, h_s, h_t, params: DetectorParams):
    """Weighted sum of the training-normalized entropy channels."""
    a1, a2, a3 = params.alpha
    return (a1 * normalize(h_d, params.max_hd)
            + a2 * normalize(h_s, params.max_hs)
            + a3 * normalize(h_t, params.max_ht))


@dataclass
class KdeModel:
    """Gaussian kernel mixture over the training statistic."""

    samples: np.ndarray
    bandwidth: float

    def cdf(self, x):
        u = (np.asarray(x, dtype=float)[..., None] - self.samples) / self.bandwidth
        return ndtr(u).mean(axis=-1)


def fit_kde(samples: np.ndarray) -> KdeModel:
    """Kernel density of the training statistic, bandwidth 1.06 s L^(-1/5).

    s is the sample (ddof=1) standard deviation over the L training values.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.ndim != 1 or samples.size < 2:
        raise ValueError("need at least two training values")
    if not np.isfinite(samples).all():
        raise ValueError("training values must be finite")
    sigma = samples.std(ddof=1)
    if sigma <= 0:
        raise ValueError("training statistic has zero spread")
    bandwidth = 1.06 * sigma * samples.size ** (-0.2)
    return KdeModel(samples=samples.copy(), bandwidth=bandwidth)


def threshold_from_kde(model: KdeModel, beta: float) -> float:
    """Smallest value whose mixture CDF reaches beta, found by bisection.

    The CDF runs from minus infinity, so any density mass below zero counts
    toward beta.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    lo = float(model.samples.min() - 10.0 * model.bandwidth)
    hi = float(model.samples.max() + 10.0 * model.bandwidth)
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) >= beta:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass
class DetectionOutcome:
    """Alarm flags over a statistic stream plus the first-alarm time."""

    times: np.ndarray
    h_stream: np.ndarray
    alarms: np.ndarray
    t_f: float | None


def detect(times: np.ndarray, h_stream: np.ndarray,
           params: DetectorParams) -> DetectionOutcome:
    """Alarm wherever the statistic strictly exceeds the threshold.

    Warm-up entries arrive as NaN and can never alarm.
    """
    params.validate(calibrated=True)
    times = np.asarray(times, dtype=float)
    h = np.asarray(h_stream, dtype=float)
    if times.shape != h.shape:
        raise ValueError("times and statistic stream differ in length")
    with np.errstate(invalid="ignore"):
        alarms = h > params.h_r
    alarms &= ~np.isnan(h)
    t_f = float(times[int(np.argmax(alarms))]) if alarms.any() else None
    return DetectionOutcome(times=times, h_stream=h, alarms=alarms, t_f=t_f)
