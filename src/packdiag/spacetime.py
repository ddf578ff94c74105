"""Smooth-surface compensation of the cell temperature field.

A normal pack warms as a whole and cools along a smooth pattern set by its
boundaries; a shorted cell is a hot spot on top of that. compensate() strips
the smooth part frame by frame (the pack mean and the best-fitting quadratic
surface over the cell positions), leaving each cell's excess over its
surroundings in the same unit as the input, whatever its zero. Both thermal
streams and localization read this excess field: the spatial stream is its
largest per-cell window mean, and the temporal stream is the fuzzy entropy
of its dominant window mode (see pipeline._rank1_temporal).
"""

from __future__ import annotations

import numpy as np


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
