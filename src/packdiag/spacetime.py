"""Smooth-surface compensation of the cell temperature field.

A normal pack warms as a whole and cools along a smooth pattern set by its
boundaries; a shorted cell is a hot spot on top of that. compensate() strips
the smooth part frame by frame (the pack mean and the best-fitting quadratic
surface over the cell positions), leaving each cell's excess over its
surroundings in the same unit as the input, whatever its zero. Both thermal
streams and localization read this excess field: the spatial stream is its
largest per-cell window mean, and the temporal stream is the fuzzy entropy
of its dominant window mode (see pipeline._rank1_temporal). The excess
has as many dimensions as cells but fills only the 18 of the pack's 24
that COMPLEMENT_BASIS spans; the temporal stream decomposes its windows in
those coordinates. The cells do not move, so that basis and the projector
compensate() applies are built once, at import.
"""

from __future__ import annotations

import numpy as np

from .pack import LAYOUT, N_CELLS


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
