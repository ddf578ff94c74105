"""Per-window definitions of the paper's streams, kept as test references.

The detector computes each stream for all windows at once; these functions
state the same quantities one window (or one score vector) at a time, in
the plainest form, so tests can compare the vectorised paths against them.
The lumped stream is also here as one whole-view formula over every
window at once, which the chunked series must match bit for bit.
The threshold's kernel density is here too, with the plain bisection for
the threshold that the detector's Newton search is checked against. So are
the simulator's explicit finite-volume stencil and the substep loop that
stepped it, which the modal thermal response is checked against, and the
simulator's heat ledger, which energy-closure tests balance the thermal
field against, and a frame-by-frame loop that scores one candidate's alarms
the way tuning.pooled_metrics scores a stack of them.
"""

import math
from typing import NamedTuple

import numpy as np

from packdiag import pack
from packdiag.errors import SimulationError
from packdiag.fusion import SQRT_2PI, THRESHOLD_TOL
from packdiag.pack import (
    DIFFUSIVITY,
    LAYOUT,
    N_CELLS,
    N_GROUPS,
    NODE,
    NX,
    NY,
    VOLUMETRIC_HEAT_CAPACITY,
)
from packdiag.pipeline import SPREAD_FLOOR

M = 2  # embedding dimension of the temporal stream


class Decomposition(NamedTuple):
    """Truncated factorization window = phi @ diag(lam) @ coeffs."""

    phi: np.ndarray      # (n_sensors, order) spatial basis
    lam: np.ndarray      # (order,) singular values, descending
    coeffs: np.ndarray   # (order, window) temporal coefficients
    effective_rank: int

    @property
    def degenerate(self) -> bool:
        return self.effective_rank < self.lam.size

    def reconstruct(self) -> np.ndarray:
        return self.phi @ (self.lam[:, None] * self.coeffs)


def decompose_window(window: np.ndarray, order: int) -> Decomposition:
    """Truncated SVD of a sensors-by-time window; modes past the rank are 0."""
    y = np.asarray(window, dtype=float)
    if not 1 <= order <= min(y.shape):
        raise ValueError(f"order {order} outside 1 .. {min(y.shape)}")
    u, s, vt = np.linalg.svd(y, full_matrices=False)
    phi, lam, coeffs = u[:, :order].copy(), s[:order].copy(), vt[:order].copy()
    effective_rank = int((s > max(y.shape) * np.finfo(float).eps * s[0]).sum())
    phi[:, effective_rank:] = 0.0
    lam[effective_rank:] = 0.0
    coeffs[effective_rank:] = 0.0
    return Decomposition(phi, lam, coeffs, effective_rank)


def _similarity_mean(a: np.ndarray, mu: int, count: int, r: float) -> float:
    """Mean Gaussian similarity over ordered pairs of distinct delay vectors."""
    win = np.lib.stride_tricks.sliding_window_view(a, mu)[:count]
    b = np.abs(win - win.mean(axis=1, keepdims=True))
    d = np.abs(b[:, None, :] - b[None, :, :]).max(axis=2)
    dm = np.exp(-math.log(2.0) * (d / r) ** 2)
    # drop the self-pairs before summing: subtracting their exact 1.0 after
    # the fact cancels away the tiny off-diagonal mass
    np.fill_diagonal(dm, 0.0)
    return float(dm.sum() / (count * (count - 1)))


def fuzzy_entropy(series: np.ndarray, m: int = M, r: float | None = None) -> float:
    """Fuzzy entropy of one series, both dimensions over its first W-m vectors.

    r=None sets the tolerance at 0.2 times the population standard
    deviation, and a series with no spread scores exactly 0.
    """
    a = np.asarray(series, dtype=float)
    if a.size < m + 2:
        raise ValueError("window too short: need at least m+2 samples")
    if r is None:
        spread = a.std()
        if spread < 1e-15:
            return 0.0
        r = 0.2 * spread
    count = a.size - m
    return float(np.log(_similarity_mean(a, m, count, r))
                 - np.log(_similarity_mean(a, m + 1, count, r)))


def window_temporal(window: np.ndarray) -> float:
    """h_t of one (n_cells, w) window; a rank-0 window's zero row scores 0."""
    dec = decompose_window(window, order=1)
    return float(dec.lam[0] * fuzzy_entropy(dec.coeffs[0]))


def looped_temporal(excess: np.ndarray, w: int) -> np.ndarray:
    """h_t for every frame of an (n_frames, n_cells) excess field, NaN in warm-up."""
    h_t = np.full(excess.shape[0], np.nan)
    for k in range(w - 1, excess.shape[0]):
        h_t[k] = window_temporal(excess[k - w + 1 : k + 1].T)
    return h_t


def dissimilarity_entropy(z: np.ndarray) -> float:
    """Third absolute moment over variance^(3/2) of one frame's scores."""
    z = np.asarray(z, dtype=float)
    dev = z - z.mean()
    var = np.mean(dev**2)
    if np.sqrt(var) < 1e-15:
        return 0.0
    return float(np.mean(np.abs(dev) ** 3) / var**1.5)


def whole_view_lumped(volts: np.ndarray, window: int) -> np.ndarray:
    """h_d with every window's mean and coefficient of variation taken from
    the whole (n - window + 1, n_signals, window) view in one call, so the
    deviations of all windows are held at once."""
    volts = np.asarray(volts, dtype=float)
    n = volts.shape[0]
    h_d = np.full(n, np.nan)
    if n < window:
        return h_d
    wins = np.lib.stride_tricks.sliding_window_view(volts, window, axis=0)
    mu = wins.mean(axis=2)
    if (np.abs(mu) < SPREAD_FLOOR).any():
        raise ValueError("zero-mean voltage window")
    cv = wins.std(axis=2) / mu
    mu_cv = cv.mean(axis=1, keepdims=True)
    sd_cv = cv.std(axis=1)
    scores = np.abs(cv - mu_cv)
    ok = sd_cv >= SPREAD_FLOOR
    scores[ok] /= sd_cv[ok, None]
    scores[~ok] = 0.0
    dev = scores - scores.mean(axis=1, keepdims=True)
    var = np.mean(dev**2, axis=1)
    third = np.mean(np.abs(dev) ** 3, axis=1)
    ent = np.zeros(len(var))
    good = np.sqrt(var) >= SPREAD_FLOOR
    ent[good] = third[good] / var[good] ** 1.5
    h_d[window - 1:] = ent
    return h_d


def exhaustive_fuzzy(series, m: int, r: float) -> float:
    """Fuzzy entropy by plain loops over every ordered pair of delay vectors."""
    x = [float(v) for v in series]
    count = len(x) - m

    def mean_similarity(mu: int) -> float:
        vecs = []
        for i in range(count):
            seg = x[i:i + mu]
            vecs.append([abs(v - sum(seg) / mu) for v in seg])
        total = 0.0
        for i, a in enumerate(vecs):
            for j, b in enumerate(vecs):
                if i != j:
                    d = max(abs(p - q) for p, q in zip(a, b))
                    total += math.exp(-math.log(2.0) * (d / r) ** 2)
        return total / (count * (count - 1))

    return math.log(mean_similarity(m)) - math.log(mean_similarity(m + 1))


def kde_pdf(model, x):
    """Density of a fusion.KdeModel: the mean of its Gaussian kernels at x."""
    u = (np.asarray(x, dtype=float)[..., None] - model.samples) / model.bandwidth
    k = np.exp(-0.5 * u**2) / math.sqrt(2.0 * math.pi)
    return k.mean(axis=-1) / model.bandwidth


def bisect_threshold(model, beta: float) -> float:
    """Smallest x with model.cdf(x) >= beta, by bisection to THRESHOLD_TOL.

    Returns the upper end of the final bracket, so its CDF reaches beta and
    the root lies at most THRESHOLD_TOL below it.
    """
    lo = float(model.samples.min() - 10.0 * model.bandwidth)
    hi = float(model.samples.max() + 10.0 * model.bandwidth)
    while hi - lo > THRESHOLD_TOL:
        mid = 0.5 * (lo + hi)
        if model.cdf(mid) >= beta:
            hi = mid
        else:
            lo = mid
    return hi


def scalar_newton_threshold(model, beta: float) -> float:
    """fusion.threshold_from_kde for one mixture, one candidate at a time.

    The same safeguarded Newton search in Python scalars, starting from
    np.quantile and taking every CDF through model.cdf: the search as it
    was before it took a stack of candidates, kept as the reference the
    stacked search must match bit for bit.
    """
    lo = float(model.samples.min() - 10.0 * model.bandwidth)
    hi = float(model.samples.max() + 10.0 * model.bandwidth)
    x = float(np.quantile(model.samples, beta))
    step = older_step = hi - lo
    while True:
        miss = float(model.cdf(x)) - beta
        if miss >= 0.0:
            hi = x
        else:
            lo = x
        if hi - lo <= THRESHOLD_TOL:
            return hi
        u = (x - model.samples) / model.bandwidth
        density = (float(np.exp(-0.5 * u * u).mean())
                   / (SQRT_2PI * model.bandwidth))
        target = 0.5 * (lo + hi)
        if density > 0.0:
            newton = (x - miss / density
                      - math.copysign(0.25 * THRESHOLD_TOL, miss))
            if lo < newton < hi and abs(newton - x) <= 0.5 * abs(older_step):
                target = newton
        older_step, step = step, target - x
        x = target


def stencil_step(t: np.ndarray, sources: np.ndarray, dt: float,
                 cfg) -> np.ndarray:
    """One explicit finite-volume step of dt seconds of the 2-D heat equation.

    Interior faces carry diffusive flux; edges exchange heat with ambient air
    (forced coefficient on the left edge, natural elsewhere). Insulated edges
    (both coefficients zero) conserve the spatial mean exactly.
    """
    c_vol = VOLUMETRIC_HEAT_CAPACITY

    rate = np.zeros_like(t)
    fx = (t[1:, :] - t[:-1, :]) * (DIFFUSIVITY / NODE**2)
    rate[:-1, :] += fx
    rate[1:, :] -= fx
    fy = (t[:, 1:] - t[:, :-1]) * (DIFFUSIVITY / NODE**2)
    rate[:, :-1] += fy
    rate[:, 1:] -= fy

    # convective edges; corners see two faces
    rate[0, :] += cfg.h_forced / (c_vol * NODE) * (cfg.ambient - t[0, :])
    rate[-1, :] += cfg.h_natural / (c_vol * NODE) * (cfg.ambient - t[-1, :])
    rate[:, 0] += cfg.h_natural / (c_vol * NODE) * (cfg.ambient - t[:, 0])
    rate[:, -1] += cfg.h_natural / (c_vol * NODE) * (cfg.ambient - t[:, -1])

    new_t = t + dt * (rate + sources / c_vol)
    if not np.isfinite(new_t).all():
        bad = np.argwhere(~np.isfinite(new_t))[0]
        raise SimulationError(f"non-finite temperature at node {tuple(bad)}")
    return new_t


def stencil_simulate(cfg) -> list:
    """pack.simulate stepping the whole field with stencil_step each substep.

    Each substep steps the circuit, turns its currents into heat, deposits
    that heat on the footprints and steps the field, and each frame draws
    its noise as it is made: 24 temperatures, 6 voltages, then the current.
    The run stops at the circuit step that leaves a cell at 0 state of
    charge or below, with the frames made before it.
    """
    steps = max(1, math.ceil(cfg.sample_interval / cfg.dt - 1e-12))
    dt = cfg.sample_interval / steps
    rng = np.random.default_rng(cfg.rng_seed)
    field = np.full((NX, NY), cfg.ambient)
    soc = np.full(N_CELLS, float(cfg.initial_soc))
    pack_current = cfg.discharge_rate * pack.CAPACITY_AH
    fault = cfg.fault
    counts = LAYOUT.footprint_counts
    starts = np.cumsum(counts) - counts    # where each cell's nodes begin
    frames = []
    for k in range(cfg.n_frames):
        base = k * cfg.sample_interval
        for s in range(steps):
            t0 = base + s * dt
            elec = pack.step_electrical(soc, pack_current, fault, t0, dt)
            soc = elec.soc
            if soc.min() <= 0:
                break
            src = pack.deposit_sources(pack.heat_generation(elec))
            field = stencil_step(field, src, dt, cfg)
        if soc.min() <= 0:
            if not frames:
                raise SimulationError(
                    f"a cell ran out of charge at t = {t0 + dt:.12g} s, "
                    "before the first frame")
            break
        t_frame = (k + 1) * cfg.sample_interval
        flat = field.ravel()[LAYOUT.footprint_nodes]
        temps = (np.add.reduceat(flat, starts) / counts
                 + rng.normal(0.0, cfg.temp_noise_std, N_CELLS))
        volts = elec.group_voltage + rng.normal(0.0, cfg.volt_noise_std,
                                                N_GROUPS)
        current = pack_current + rng.normal(0.0, cfg.volt_noise_std)
        label = int(fault is not None and t_frame > fault.onset)
        frames.append(pack.TelemetryFrame(t=t_frame, cell_temps=temps,
                                          group_volts=volts,
                                          pack_current=current, label=label))
    return frames


class Ledger(NamedTuple):
    """A run's frames with the books the simulator itself does not keep."""

    frames: list
    heat_j: float                 # heat the cells generated, J
    field: np.ndarray             # the thermal field after the last step, K
    elec: pack.ElectricalState    # the circuit after the last step


def ledgered_simulate(cfg, monkeypatch) -> Ledger:
    """pack.simulate(cfg), with spies on the functions it calls.

    Each substep's cell heat, in watts, is booked over the dt its circuit
    step advanced, so the ledger counts heat before it reaches the thermal
    field. The last field is the one simulate rebuilds from its modes and
    hands to pack._require_finite_field, and the last circuit state the
    one of the last step. Every booked substep reaches the field. A run
    that stops ends with the step that emptied a cell: its circuit state is
    the last one, and its heat is neither booked nor in the field.
    """
    seen = {"heat_j": 0.0}
    step_electrical = pack.step_electrical
    heat_generation = pack.heat_generation
    require_finite_field = pack._require_finite_field

    def electrical(state, pack_current, fault, t, dt):
        seen["dt"] = dt
        seen["elec"] = step_electrical(state, pack_current, fault, t, dt)
        return seen["elec"]

    def generation(state):
        watts = heat_generation(state)
        seen["heat_j"] += watts.sum() * seen["dt"]
        return watts

    def finite_field(field):
        seen["field"] = field
        require_finite_field(field)

    monkeypatch.setattr(pack, "step_electrical", electrical)
    monkeypatch.setattr(pack, "heat_generation", generation)
    monkeypatch.setattr(pack, "_require_finite_field", finite_field)
    frames = pack.simulate(cfg)
    return Ledger(frames, seen["heat_j"], seen["field"], seen["elec"])


class LoopedScore(NamedTuple):
    """One candidate's detection quality over labelled recordings."""

    detected: int
    abnormal: int
    false_alarms: int
    normal: int
    t_onsets: list        # one per recording
    t_detects: list       # one per recording, None for no alarm after onset
    relative_delay: float | None   # None without a fault recording
    usable: bool


def looped_score(recordings, t_r: float) -> LoopedScore:
    """Score one candidate's alarms one frame at a time.

    recordings holds (times, h, alarms, labels) per recording, each one row
    of frames. An abnormal frame (label 1) counts toward the detection
    rate, a normal frame whose statistic is not NaN (past the warm-up)
    toward the false-alarm rate. A recording's onset time is the timestamp
    of the frame before its first abnormal frame, or of its first frame if
    that one is abnormal or none is; its detection time the first alarm
    after that. Each recording with an abnormal frame adds its delay,
    (detection - onset) / t_r, or its last timestamp / t_r with no
    detection, to a plain mean. The candidate can be scored when some
    frame is abnormal and every recording with an abnormal frame has a
    normal frame past its warm-up.
    """
    detected = abnormal = false_alarms = normal = 0
    onsets, detects, delays = [], [], []
    usable = True
    for times, h, alarms, labels in recordings:
        first_abnormal = None
        own_normal = 0
        for i in range(len(times)):
            if labels[i] == 1:
                abnormal += 1
                detected += int(bool(alarms[i]))
                if first_abnormal is None:
                    first_abnormal = i
            elif labels[i] == 0 and not math.isnan(h[i]):
                own_normal += 1
                false_alarms += int(bool(alarms[i]))
        normal += own_normal
        if first_abnormal is None or first_abnormal == 0:
            onset = float(times[0])
        else:
            onset = float(times[first_abnormal - 1])
        found = None
        for i in range(len(times)):
            if alarms[i] and times[i] > onset:
                found = float(times[i])
                break
        onsets.append(onset)
        detects.append(found)
        if first_abnormal is not None:
            usable = usable and own_normal > 0
            delays.append(float(times[-1]) / t_r if found is None
                          else (found - onset) / t_r)
    delay = sum(delays) / len(delays) if delays else None
    return LoopedScore(detected, abnormal, false_alarms, normal, onsets,
                       detects, delay, usable and abnormal > 0)
