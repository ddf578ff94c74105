"""Fusing the three entropy channels into one alarmed statistic.

Each channel is scaled by its maximum over the normal training segment, the
scaled values are blended by the weight vector, and a Gaussian kernel density
fit of the training statistic sets the alarm threshold at a chosen
confidence. Test-time values are deliberately not clipped at 1: exceeding
the training maximum is the whole point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, require_integer, require_integers

DEFAULT_ALPHA = (0.216, 0.573, 0.211)
# the temporal stream's embedding dimension; its fuzzy entropy pairs up
# w - M delay vectors, so a window needs at least M + 2 frames
M = 2
MIN_WINDOW = M + 2
# the threshold search stops once it has a point with CDF below beta and one
# with CDF at or above it at most this far apart, and returns the upper one
THRESHOLD_TOL = 1e-10
SQRT_2PI = math.sqrt(2.0 * math.pi)
SQRT1_2 = math.sqrt(0.5)
# ndtr returns exactly 1.0 at every standardized offset above this one (from
# 8.292362 on, by a 1e-6 grid and 1e7 random draws up to 1e6)
NDTR_ONE = 8.3
# the values calibration fills in: the three normalizers and the threshold
CALIBRATION_KEYS = ("max_hd", "max_hs", "max_ht", "h_r")


def _coefficients(*values):
    """A polynomial's coefficients, highest power first, as 0-d arrays:
    numpy's operators take those faster than Python floats."""
    return tuple(np.array(v) for v in values)


# Cody's rational forms of erf and erfc with the coefficients of Moshier's
# Cephes ndtr.c, whose code scipy.special.ndtr runs. Each denominator's
# leading coefficient is 1 and left out, as in Cephes.
# erf(x) = x T(x^2) / U(x^2) for |x| < 1
ERF_T = _coefficients(
    9.60497373987051638749e0, 9.00260197203842689217e1,
    2.23200534594684319226e3, 7.00332514112805075473e3,
    5.55923013010394962768e4)
ERF_U = _coefficients(
    3.35617141647503099647e1, 5.21357949780152679795e2,
    4.59432382970980127987e3, 2.26290000613890934246e4,
    4.92673942608635921086e4)
# erfc(x) = exp(-x^2) P(x) / Q(x) for x in [1, 8)
ERFC_P = _coefficients(
    2.46196981473530512524e-10, 5.64189564831068821977e-1,
    7.46321056442269912687e0, 4.86371970985681366614e1,
    1.96520832956077098242e2, 5.26445194995477358631e2,
    9.34528527171957607540e2, 1.02755188689515710272e3,
    5.57535335369399327526e2)
ERFC_Q = _coefficients(
    1.32281951154744992508e1, 8.67072140885989742329e1,
    3.54937778887819891062e2, 9.75708501743205489753e2,
    1.82390916687909736289e3, 2.24633760818710981792e3,
    1.65666309194161350182e3, 5.57535340817727675546e2)
# erfc(x) = exp(-x^2) R(x) / S(x) for x from 8 up
ERFC_R = _coefficients(
    5.64189583547755073984e-1, 1.27536670759978104416e0,
    5.01905042251180477414e0, 6.16021097993053585195e0,
    7.40974269950448939160e0, 2.97886665372100240670e0)
ERFC_S = _coefficients(
    2.26052863220117276590e0, 9.39603524938001434673e0,
    1.20489539808096656605e1, 1.70814450747565897222e1,
    9.60896809063285878198e0, 3.36907645100081516050e0)
# log of the largest double: erfc is 0 once x^2 passes it
MAXLOG = 7.09782712893383996843e2


def require_window(window) -> int:
    """The window as an int; ConfigError unless it is an integer as given
    (a bool or 27.5 is not) of at least MIN_WINDOW frames."""
    require_integer("window", window)
    if window < MIN_WINDOW:
        raise ConfigError(f"window must be at least {MIN_WINDOW}")
    return int(window)


@dataclass(frozen=True)
class DetectorParams:
    """Window, channel weights, confidence, and calibration artifacts.

    Checked on construction, dataclasses.replace's included (ConfigError
    otherwise). The calibration values may be absent.
    """

    window: int = 27
    alpha: tuple = DEFAULT_ALPHA
    beta: float = 0.99
    train_len: int = 600
    max_hd: float | None = None
    max_hs: float | None = None
    max_ht: float | None = None
    h_r: float | None = None

    def __post_init__(self):
        require_window(self.window)
        require_integers(self, "train_len")
        alpha = np.asarray(self.alpha, dtype=float)
        if alpha.shape != (3,):
            raise ConfigError("alpha must have three entries")
        # written so that NaN fails it too
        if not ((alpha >= 0) & (alpha <= 1)).all():
            raise ConfigError("alpha entries must lie in [0, 1]")
        if abs(alpha.sum() - 1.0) > 1e-9:
            raise ConfigError("alpha entries must sum to 1")
        if not 0.0 < self.beta < 1.0:
            raise ConfigError("beta must lie strictly between 0 and 1")
        if not self.train_len > 0:
            raise ConfigError(f"train_len must be positive, got {self.train_len}")
        # a NaN normalizer or threshold would make every H NaN or no H alarm
        for name in CALIBRATION_KEYS:
            v = getattr(self, name)
            if v is None:
                continue
            if not math.isfinite(v):
                raise ConfigError(f"{name} must be finite, got {v}")
            if name != "h_r" and v <= 0:
                raise ConfigError(f"{name} must be positive, got {v}")


def multiscale_statistic(h_d, h_s, h_t, params: DetectorParams, alpha=None):
    """Weighted sum of the channels, each divided by its training maximum.

    alpha, when given, replaces params.alpha; a (k, 3) stack of weight
    vectors gives the statistic a leading axis of k candidates.
    """
    a1, a2, a3 = (params.alpha if alpha is None
                  else np.asarray(alpha, dtype=float).T[..., None])
    return (a1 * (h_d / params.max_hd) + a2 * (h_s / params.max_hs)
            + a3 * (h_t / params.max_ht))


def _polevl(z, coefficients):
    """The polynomial at z by Horner's rule, as Cephes' polevl rounds it."""
    term = coefficients[0] * z
    term += coefficients[1]
    for c in coefficients[2:]:
        term *= z
        term += c
    return term


def _p1evl(z, coefficients):
    """_polevl with a leading coefficient of 1 left out (Cephes' p1evl)."""
    term = z + coefficients[0]
    for c in coefficients[1:]:
        term *= z
        term += c
    return term


def ndtr(a):
    """The standard normal CDF at each entry of a, as an array of a's shape.

    Cephes' ndtr, vectorised, with its branches and rounding. With
    x = a / sqrt(2), it is 0.5 + 0.5 erf(x) for |x| < 1/sqrt(2), and
    otherwise 0.5 erfc(|x|), taken from 1 when x > 0. erfc(z) is 1 - erf(z)
    below 1, exp(-z^2) P(z)/Q(z) up to 8 and exp(-z^2) R(z)/S(z) from
    there, and 0 once z^2 passes MAXLOG. For |x| in [1/sqrt(2), 1), erf
    lies in [0.68, 0.85], so 1 - erf is exact and the erfc form rounds to
    0.5 + 0.5 erf(x) bit for bit: that one form serves all |x| < 1. NaN
    stays NaN. numpy's exp may differ from the C library's in the last
    bit, so a value may differ from scipy.special.ndtr's in its last few
    bits.
    """
    a = np.asarray(a, dtype=float)
    x = a.ravel() * SQRT1_2
    z = np.abs(x)
    # every entry takes the [1, 8) branch, which holds most offsets a
    # threshold search meets; the other branches then gather their entries
    # and overwrite them, whose values here may have overflowed
    with np.errstate(over="ignore", invalid="ignore"):
        y = z * z
        np.negative(y, out=y)
        np.exp(y, out=y)
        y *= _polevl(z, ERFC_P)
        y /= _p1evl(z, ERFC_Q)
        far = np.flatnonzero(z >= 8.0)
        if far.size:
            zf = z[far]
            erfc = np.exp(-(zf * zf)) * _polevl(zf, ERFC_R)
            erfc /= _p1evl(zf, ERFC_S)
            erfc[zf * zf > MAXLOG] = 0.0
            y[far] = erfc
    y *= 0.5
    np.subtract(1.0, y, out=y, where=x > 0.0)
    near = np.flatnonzero(z < 1.0)
    if near.size:
        xn = x[near]
        z2 = xn * xn
        erf = xn * _polevl(z2, ERF_T)
        erf /= _p1evl(z2, ERF_U)
        y[near] = 0.5 + 0.5 * erf
    return y.reshape(a.shape)


@dataclass
class KdeModel:
    """Gaussian kernel mixture over the training statistic: one mixture, or
    a (k, L) stack of them with a (k,) bandwidth, one per row."""

    samples: np.ndarray
    bandwidth: float | np.ndarray

    def cdf(self, x):
        """Mixture CDF at x; with a stack, x holds one point per mixture."""
        u = ((np.asarray(x, dtype=float)[..., None] - self.samples)
             / np.asarray(self.bandwidth)[..., None])
        return ndtr(u).mean(axis=-1)


def fit_kde(samples) -> KdeModel:
    """Kernel density of the training statistic, bandwidth 1.06 s L^(-1/5).

    samples holds L training values, or a (k, L) stack of them, one row per
    training statistic. s is a row's sample (ddof=1) standard deviation. A
    row with a value that is not finite, or with no spread, has no density:
    in a stack its bandwidth is NaN, and a single row raises ValueError.
    """
    samples = np.array(samples, dtype=float)
    if samples.ndim not in (1, 2) or samples.shape[-1] < 2:
        raise ValueError("need at least two training values")
    finite = np.isfinite(samples).all(axis=-1)
    with np.errstate(invalid="ignore"):
        sigma = samples.std(ddof=1, axis=-1)
        bandwidth = np.where(finite & (sigma > 0),
                             1.06 * sigma * samples.shape[-1] ** (-0.2), np.nan)
    if samples.ndim == 1:
        if not finite:
            raise ValueError("training values must be finite")
        if not sigma > 0:
            raise ValueError("training statistic has zero spread")
        bandwidth = float(bandwidth)
    return KdeModel(samples=samples, bandwidth=bandwidth)


def threshold_from_kde(model: KdeModel, beta: float):
    """Smallest value whose mixture CDF reaches beta, by safeguarded Newton.

    A stacked model is searched row by row in one vectorised pass, and gets
    one threshold per row; a row with a NaN bandwidth gets NaN. Per row,
    the search starts at the empirical beta-quantile of the samples. The
    CDF's slope is the mixture density: the mean Gaussian kernel at the
    same standardized offsets u the CDF averages ndtr over, so both come
    from one set of offsets. Every point evaluated narrows a bracket
    [lo, hi] with cdf(lo) < beta <= cdf(hi). A Newton step that would
    leave the bracket, or that is not shorter than half the step before the
    previous one, bisects the bracket instead. Each Newton target is moved
    a quarter of THRESHOLD_TOL past the predicted root, toward the end of
    the bracket still to be closed, so that once Newton has converged the
    next point lands on the other side of the root and the bracket shrinks
    below THRESHOLD_TOL. The result is hi: its CDF is at least beta and the
    root lies at most THRESHOLD_TOL below it. A row leaves the pass once
    its bracket has closed, so its result does not depend on the other
    rows. It takes a median of 5 CDF evaluations on random mixtures of 300
    to 1800 samples, against 34 for plain bisection to the same width.

    The CDF runs from minus infinity, so any density mass below zero counts
    toward beta.
    """
    if not 0.0 < beta < 1.0:
        raise ValueError("beta must lie strictly between 0 and 1")
    bandwidth = np.atleast_1d(model.bandwidth)
    h_r = np.full(bandwidth.shape, np.nan)
    rows = np.flatnonzero(np.isfinite(bandwidth))
    samples = np.atleast_2d(model.samples)
    if rows.size < len(bandwidth):
        samples, bandwidth = samples[rows], bandwidth[rows]
    size = samples.shape[1]
    # the start point is np.quantile's default ("linear") beta-quantile,
    # written out so that one partition also yields each row's extremes
    below = min(math.floor((size - 1) * beta), size - 2)
    gamma = (size - 1) * beta - below
    least, a, b, most = np.partition(
        samples, (0, below, below + 1, size - 1),
        axis=1)[:, [0, below, below + 1, -1]].T
    x = b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma
    lo = least - 10.0 * bandwidth
    hi = most + 10.0 * bandwidth
    scale = bandwidth[:, None]
    norm = SQRT_2PI * bandwidth
    step = older_step = hi - lo
    # a zero density makes the Newton point infinite or NaN, which no
    # bracket holds
    with np.errstate(divide="ignore", invalid="ignore"):
        while rows.size:
            u = x[:, None] - samples
            u /= scale
            kernels = -0.5 * u
            kernels *= u
            np.exp(kernels, out=kernels)
            # ndtr only where it is not exactly 1.0, gathered by index: at a
            # high beta most offsets lie far above the threshold. u is a
            # fresh C-ordered array, so its ravel is a view
            flat = u.ravel()
            rest = np.flatnonzero(flat <= NDTR_ONE)
            cdfs = ndtr(flat[rest])
            flat.fill(1.0)
            flat[rest] = cdfs
            # a sum over the count is what .mean computes, without the
            # Python wrapper that costs more than a small row's sum
            miss = np.add.reduce(u, axis=1) / size - beta
            above = miss >= 0.0
            np.copyto(hi, x, where=above)
            np.copyto(lo, x, where=~above)
            done = hi - lo <= THRESHOLD_TOL
            if done.any():
                h_r[rows[done]] = hi[done]
                live = ~done
                rows, samples, scale, norm, kernels = (
                    rows[live], samples[live], scale[live], norm[live],
                    kernels[live])
                lo, hi, x, miss, step, older_step = (
                    lo[live], hi[live], x[live], miss[live], step[live],
                    older_step[live])
            density = np.add.reduce(kernels, axis=1) / size / norm
            newton = x - miss / density
            newton -= np.copysign(0.25 * THRESHOLD_TOL, miss)
            take = (lo < newton) & (newton < hi)
            take &= np.abs(newton - x) <= 0.5 * np.abs(older_step)
            target = lo + hi
            target *= 0.5
            np.copyto(target, newton, where=take)
            older_step, step = step, target - x
            x = target
    return float(h_r[0]) if np.ndim(model.bandwidth) == 0 else h_r


@dataclass
class DetectionOutcome:
    """Alarm flags over a statistic stream, or a stack of them, plus the
    first-alarm time (see detect)."""

    times: np.ndarray
    h_stream: np.ndarray
    alarms: np.ndarray
    t_f: float | np.ndarray | None


def first_alarm(times: np.ndarray, alarms: np.ndarray, start: int = 0):
    """Each row's first alarm time at or after frame start, NaN for none;
    alarms is one stream of flags or a (k, n) stack over the same times."""
    after = alarms[..., start:]
    return np.where(after.any(axis=-1),
                    times[start + after.argmax(axis=-1)], np.nan)


def detect(times: np.ndarray, h_stream: np.ndarray,
           params: DetectorParams, h_r=None) -> DetectionOutcome:
    """Alarm wherever the statistic strictly exceeds the threshold.

    h_stream is one stream or a (k, n) stack of candidate streams over the
    same times; a (k,) h_r then replaces params.h_r, one threshold per row,
    and t_f holds each row's first_alarm, NaN for none (None for one
    stream). NaN warm-up entries never alarm; params must be calibrated.
    """
    times = np.asarray(times, dtype=float)
    h = np.asarray(h_stream, dtype=float)
    if times.shape != h.shape[-1:]:
        raise ValueError("times and statistic stream differ in length")
    threshold = params.h_r if h_r is None else np.asarray(h_r)[..., None]
    # NaN compares False: warm-up frames never alarm
    alarms = h > threshold
    t_f = first_alarm(times, alarms)
    if h.ndim == 1:
        t_f = None if np.isnan(t_f) else float(t_f)
    return DetectionOutcome(times=times, h_stream=h, alarms=alarms, t_f=t_f)
