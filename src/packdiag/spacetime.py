"""Space-time separation of temperature windows and the entropies built on it.

A normal pack warms as a whole and cools along a smooth pattern set by its
boundaries; a shorted cell is a hot spot on top of that. compensate() strips
the smooth part frame by frame (the pack mean and the best-fitting quadratic
surface over the cell positions), leaving each cell's excess over its
surroundings in the same unit as the input, whatever its zero. A sliding
N x W window of that excess field is factored by truncated SVD into spatial
basis functions, singular values, and temporal coefficients; fuzzy entropy
of the temporal coefficients, weighted by the singular values, measures how
irregular the dynamics became (temporal entropy). The detector scores the
dominant mode alone with the default FuzzyParams, through a batched path in
pipeline; decompose_window and temporal_entropy are the per-window
definition it reproduces.

Basis drift against a reference decomposition, scored as a two-bin spatial
entropy, is kept as a primitive (sbf_variation, spatial_entropy); the
detector itself reads the hot spot straight off the excess field.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

LN2 = math.log(2.0)
SPREAD_FLOOR = 1e-15
# total basis variation below this is treated as a null pdf
NULL_MASS_FLOOR = 1e-12


def _smooth_projector(coords: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto what no quadratic surface over coords explains."""
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be (n_sensors, 2)")
    # standardized positions span the same surfaces and keep the fit well
    # conditioned; a flat axis is left unscaled and drops out by rank
    spread = coords.std(axis=0)
    x, y = ((coords - coords.mean(axis=0)) / np.where(spread > 0, spread, 1.0)).T
    basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
    u, s, _ = np.linalg.svd(basis, full_matrices=False)
    span = u[:, s > s[0] * coords.shape[0] * np.finfo(float).eps]
    if span.shape[1] >= coords.shape[0]:
        raise ValueError("too few sensors to separate a hot spot from the "
                         "smooth temperature surface")
    return np.eye(coords.shape[0]) - span @ span.T


def compensate(temps: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """Each sensor's excess over the smooth temperature surface, per frame.

    temps is (n_frames, n_sensors) and coords holds each sensor's (x, y)
    position. Every frame loses its mean (the common mode) and then its
    least-squares quadratic surface in x and y (the cooling gradient and its
    curvature). The result has the unit of the input but not its zero:
    kelvin and Celsius input give the same excess, and each frame of it sums
    to zero.
    """
    t = np.asarray(temps, dtype=float)
    if t.ndim != 2 or t.shape[1] != np.shape(coords)[0]:
        raise ValueError("temps must be (n_frames, n_sensors) matching coords")
    if not np.isfinite(t).all():
        raise ValueError("temperatures contain non-finite values")
    # centring first keeps the projection working on tenths of a kelvin
    # rather than hundreds, so the unit's zero leaves no rounding trace
    centred = t - t.mean(axis=1, keepdims=True)
    return centred @ _smooth_projector(coords)


@dataclass
class Decomposition:
    """Truncated factorization window = phi @ diag(lam) @ coeffs."""

    phi: np.ndarray        # (n_sensors, order) spatial basis, columns orthonormal
    lam: np.ndarray        # (order,) singular values, descending
    coeffs: np.ndarray     # (order, window) temporal coefficients, rows orthonormal
    order: int
    effective_rank: int
    degenerate: bool

    def reconstruct(self) -> np.ndarray:
        return self.phi @ (self.lam[:, None] * self.coeffs)


def decompose_window(window: np.ndarray, order: int = 5,
                     reference: Decomposition | None = None) -> Decomposition:
    """Truncated SVD of a sensors-by-time window.

    When a reference decomposition is given, each basis column is flipped
    (together with its coefficient row) so its inner product with the
    reference column is non-negative; the reconstruction is unchanged.
    A window of rank below the requested order gets its missing modes
    zero-filled and the degenerate flag set.
    """
    y = np.asarray(window, dtype=float)
    if y.ndim != 2:
        raise ValueError("window must be 2-D (sensors x time)")
    if not np.isfinite(y).all():
        raise ValueError("window contains non-finite values")
    n, w = y.shape
    if order < 1:
        raise ValueError("order must be at least 1")
    if order > min(n, w):
        raise ValueError(f"order {order} exceeds min(window shape) {min(n, w)}")
    if reference is not None and reference.order != order:
        raise ValueError("reference order does not match")

    u, s, vt = np.linalg.svd(y, full_matrices=False)
    phi = u[:, :order].copy()
    lam = s[:order].copy()
    coeffs = vt[:order].copy()

    tol = max(n, w) * np.finfo(float).eps * (s[0] if s.size else 0.0)
    effective_rank = int((s > tol).sum())
    degenerate = effective_rank < order
    if degenerate:
        keep = min(effective_rank, order)
        phi[:, keep:] = 0.0
        lam[keep:] = 0.0
        coeffs[keep:] = 0.0

    if reference is not None:
        for i in range(order):
            if phi[:, i] @ reference.phi[:, i] < 0:
                phi[:, i] = -phi[:, i]
                coeffs[i] = -coeffs[i]

    return Decomposition(phi=phi, lam=lam, coeffs=coeffs, order=order,
                         effective_rank=effective_rank, degenerate=degenerate)


@dataclass
class SpatialPdf:
    """Normalized basis variation per sensor plus its half-pack masses."""

    variation: np.ndarray   # (n_sensors,) summed |phi_k - phi_0| over modes
    total: float            # mass before normalization
    p: np.ndarray           # (n_sensors,) variation / total, zeros when null
    p1: np.ndarray          # (2,) lower-half mass along x then y
    p2: np.ndarray          # (2,) complementary mass, p1 + p2 == 1 exactly
    null: bool


def sbf_variation(current: Decomposition, initial: Decomposition,
                  coords: np.ndarray) -> SpatialPdf:
    """Basis drift of the current window against the initial one, as a pdf.

    coords holds each sensor's (x, y) position; per axis the sensors are
    split into a lower-coordinate half (ceil(N/2) of them, stable order on
    ties) and the rest.
    """
    if current.order != initial.order:
        raise ValueError("decompositions have different orders")
    coords = np.asarray(coords, dtype=float)
    n = current.phi.shape[0]
    if coords.shape != (n, 2):
        raise ValueError("coords must be (n_sensors, 2)")

    variation = np.abs(current.phi - initial.phi).sum(axis=1)
    total = float(variation.sum())
    null = total < NULL_MASS_FLOOR
    p = np.zeros(n) if null else variation / total

    half = math.ceil(n / 2)
    p1 = np.zeros(2)
    for ax in range(2):
        order = np.argsort(coords[:, ax], kind="stable")
        p1[ax] = p[order[:half]].sum()
    p2 = 1.0 - p1
    return SpatialPdf(variation=variation, total=total, p=p, p1=p1, p2=p2, null=null)


def spatial_entropy(pdf: SpatialPdf) -> float:
    """Mean of the per-axis two-bin entropies, in [0, 1].

    0 when the variation splits evenly along both axes, 1 when it is fully
    one-sided; a null pdf scores 0.
    """
    if pdf.null:
        return 0.0

    def xlog2(v: float) -> float:
        return v * math.log2(v) if v > 0.0 else 0.0

    h = 0.0
    for ax in range(2):
        h += 1.0 + xlog2(pdf.p1[ax]) + xlog2(pdf.p2[ax])
    return h / 2.0


@dataclass(frozen=True)
class FuzzyParams:
    """Embedding dimension and similarity tolerance.

    r=None sets the tolerance per series as 0.2 times its population
    standard deviation.
    """

    m: int = 2
    r: float | None = None

    def validate(self):
        if self.m < 1:
            raise ValueError("embedding dimension must be at least 1")
        if self.r is not None and self.r <= 0:
            raise ValueError("tolerance must be positive")


def _abs_dev_vectors(a: np.ndarray, mu: int, count: int) -> np.ndarray:
    """First `count` delay vectors of length mu, baseline removed, absolute."""
    win = np.lib.stride_tricks.sliding_window_view(a, mu)[:count]
    return np.abs(win - win.mean(axis=1, keepdims=True))


def _similarity_mean(b: np.ndarray, r: float) -> float:
    """Mean Gaussian similarity over ordered pairs of distinct vectors."""
    d = np.abs(b[:, None, :] - b[None, :, :]).max(axis=2)
    dm = np.exp(-LN2 * (d / r) ** 2)
    # drop the self-pairs before summing: subtracting their exact 1.0 after
    # the fact cancels away the tiny off-diagonal mass
    np.fill_diagonal(dm, 0.0)
    v = b.shape[0]
    return float(dm.sum() / (v * (v - 1)))


def fuzzy_entropy(series: np.ndarray, params: FuzzyParams) -> float:
    """Fuzzy entropy of one series over a full window.

    Both embedding dimensions use the first W-m delay vectors, so the two
    similarity means average the same number of ordered pairs. A constant
    series scores exactly 0.
    """
    params.validate()
    a = np.asarray(series, dtype=float)
    if a.ndim != 1:
        raise ValueError("series must be 1-D")
    m = params.m
    w = a.size
    if w < m + 2:
        raise ValueError("window too short: need at least m+2 samples")

    r = params.r
    if r is None:
        spread = a.std()
        if spread < SPREAD_FLOOR:
            return 0.0
        r = 0.2 * spread

    count = w - m
    s_lo = _similarity_mean(_abs_dev_vectors(a, m, count), r)
    s_hi = _similarity_mean(_abs_dev_vectors(a, m + 1, count), r)
    return float(np.log(s_lo) - np.log(s_hi))


def temporal_entropy(dec: Decomposition, params: FuzzyParams) -> float:
    """Singular-value-weighted sum of per-mode fuzzy entropies."""
    total = 0.0
    for i in range(dec.order):
        if dec.lam[i] == 0.0:
            continue
        total += dec.lam[i] * fuzzy_entropy(dec.coeffs[i], params)
    return total
