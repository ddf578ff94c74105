"""Smooth-surface compensation of the cell temperature field.

A normal pack warms as a whole and cools along a smooth pattern set by its
boundaries; a shorted cell is a hot spot on top of that. compensate() strips
the smooth part frame by frame (the pack mean and the best-fitting quadratic
surface over the cell positions), leaving each cell's excess over its
surroundings in the same unit as the input, whatever its zero. Both thermal
streams and localization read this excess field: the spatial stream is its
largest per-cell window mean, and the temporal stream is the fuzzy entropy
of its dominant window mode (see pipeline._rank1_temporal). The excess
has as many dimensions as sensors but fills only those that
complement_basis() spans, 18 of the pack's 24; the temporal stream
decomposes its windows in those coordinates.
"""

from __future__ import annotations

import numpy as np


def _surface_svd(coords: np.ndarray, full: bool) -> tuple[np.ndarray, int]:
    """Left singular vectors of the quadratic surfaces over coords, and their rank.

    The first rank columns span every quadratic surface in x and y; with
    full=True the remaining columns span what no such surface explains.
    """
    coords = np.asarray(coords, dtype=float)
    if coords.ndim != 2 or coords.shape[1] != 2:
        raise ValueError("coords must be (n_sensors, 2)")
    # standardized positions span the same surfaces and keep the fit well
    # conditioned; a flat axis is left unscaled and drops out by rank
    spread = coords.std(axis=0)
    x, y = ((coords - coords.mean(axis=0)) / np.where(spread > 0, spread, 1.0)).T
    basis = np.stack([np.ones_like(x), x, y, x * x, x * y, y * y], axis=1)
    u, s, _ = np.linalg.svd(basis, full_matrices=full)
    rank = int((s > s[0] * coords.shape[0] * np.finfo(float).eps).sum())
    if rank >= coords.shape[0]:
        raise ValueError("too few sensors to separate a hot spot from the "
                         "smooth temperature surface")
    return u, rank


def _smooth_projector(coords: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto what no quadratic surface over coords explains."""
    u, rank = _surface_svd(coords, full=False)
    span = u[:, :rank]
    return np.eye(span.shape[0]) - span @ span.T


def complement_basis(coords: np.ndarray) -> np.ndarray:
    """Orthonormal columns spanning what _smooth_projector keeps.

    For the 24-cell pack this is (24, 18): every compensated frame lies in
    its span, so `excess @ complement_basis(coords)` holds the same frames
    in 18 coordinates, with the same norms and the same inner products
    between frames.
    """
    u, rank = _surface_svd(coords, full=True)
    return u[:, rank:]


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
