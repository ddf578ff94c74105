"""Locating the faulted cell once an alarm has fired.

At the alarm, each sensor is scored by its mean excess over the smooth
temperature surface across the window that ends there: the same
compensated field whose largest window mean is the detector's spatial
stream, so the cell named is the one that drove that stream. With one
sensor per cell the argmax maps straight to a cell serial number.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .fusion import require_window
from .pack import LAYOUT
from .pipeline import Telemetry, compensate


@dataclass
class ContributionMap:
    """Per-sensor evidence over the alarm window; larger is more suspect."""

    contributions: np.ndarray   # (N_CELLS,) one score per cell sensor
    t_start: float              # first frame covered, seconds
    t_f: float                  # alarm time, seconds
    cell_serial: int            # 1-based cell of the top score, ties -> lowest


def contributions_at(tele: Telemetry, t_f: float, window: int) -> ContributionMap:
    """Mean excess temperature per cell over the window ending at the alarm.

    The excess is pipeline.compensate of the raw telemetry: each cell's
    temperature less the pack mean and the smooth surface fitted to the
    frame, so the scores sum to zero, are in the temperature unit, and do
    not depend on its zero. The map covers the `window` frames ending at
    t_f, checked by fusion.require_window; an alarm earlier than the first
    full window cannot be attributed.
    """
    w = require_window(window)
    hits = np.isclose(tele.times, t_f, rtol=0.0, atol=1e-9)
    if not hits.any():
        raise ValueError(f"t_f={t_f} is not a sampled frame time")
    idx = int(np.nonzero(hits)[0][0])
    if idx < w - 1:
        raise ConfigError("alarm in warm-up: no full window ends by t_f")

    first = idx - w + 1
    excess = compensate(tele.temps[first : idx + 1])
    scores = excess.mean(axis=0)
    return ContributionMap(contributions=scores,
                           t_start=float(tele.times[first]),
                           t_f=float(tele.times[idx]),
                           cell_serial=int(np.argmax(scores)) + 1)


def contribution_rows(cmap: ContributionMap) -> list[str]:
    """Plot-ready export: one row per sensor with its position and mass."""
    rows = ["cell,serial,x,y,C"]
    for i, ((x, y), c) in enumerate(zip(LAYOUT.cell_centers,
                                        cmap.contributions), start=1):
        rows.append(f"T{i:02d},{i},{x:.12g},{y:.12g},{c:.12g}")
    return rows
