"""Full detection pass on a faulted recording, then locate the cell.

Calibrates the detector on the recording's own normal prefix, fuses the
three abnormality streams into one statistic, raises alarms against the
density-based threshold, and finally ranks the cells by their mean excess
over the smooth temperature surface in the window ending at the first alarm
after the fault started.
"""

import numpy as np

from packdiag import (
    DetectorParams,
    FaultSpec,
    SimConfig,
    Telemetry,
    build_layout,
    contributions_at,
    run_detector,
    simulate,
)
from packdiag.tuning import MetricsConfig, compute_metrics

FAULT_CELL = 4
ONSET = 1000.0


def main():
    cfg = SimConfig(duration=2000.0, rng_seed=101,
                    fault=FaultSpec(fault_cell=FAULT_CELL, r_short=10.0,
                                    onset=ONSET))
    print(f"simulating {cfg.duration:.0f}s, short in cell {FAULT_CELL} "
          f"at t={ONSET:.0f}s...")
    tele = Telemetry.from_frames(simulate(cfg))

    params = DetectorParams()
    report = run_detector(tele, params)
    cal = report.params
    print(f"calibrated on first {params.train_len:.0f}s: "
          f"threshold H_r = {cal.h_r:.5f}")

    # scored against the frame labels: the false-alarm rate counts the
    # post-warm-up normal frames, and the alarm to localize is the first
    # one after the labelled onset
    met = compute_metrics(report.outcome, tele.labels, MetricsConfig())
    print(f"alarms: {int(report.outcome.alarms.sum())} total, "
          f"{met.detected_abnormal} after onset, false-alarm rate "
          f"{100 * met.far:.2f}% of {met.total_normal} normal frames")

    if met.t_detect is None:
        print("no alarm after the onset; nothing to localize")
        return

    t_first = met.t_detect
    print(f"first post-onset alarm at t={t_first:.0f}s "
          f"({t_first - met.t_onset:.0f}s after the short began)")

    cmap = contributions_at(tele, t_first, cal.window)
    excess = cmap.contributions
    order = np.argsort(excess)[::-1]
    layout = build_layout()
    print("top contributing cells (mean excess over the smooth surface):")
    for i in order[:5]:
        x, y = layout.cell_centers[i]
        print(f"  cell {i + 1:2d} at ({x:.3f}, {y:.3f}) m: "
              f"{1000.0 * excess[i]:+6.1f} mK")
    verdict = "correct" if order[0] + 1 == FAULT_CELL else "wrong"
    print(f"estimated fault cell: {order[0] + 1} "
          f"(true {FAULT_CELL}, {verdict})")


if __name__ == "__main__":
    main()
