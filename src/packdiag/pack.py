"""Electro-thermal simulation of a 24-cell battery pack.

The pack is six series groups of four parallel cylindrical cells on a 4 x 6
grid. Heat spreads over a 2-D cross-section by explicit finite volumes with
convective edges; each group is a parallel resistor network around the
open-circuit voltage curve. An internal short circuit is modeled as an extra
resistor inside one cell: it drains that cell's charge and dumps Joule heat
onto its footprint.

The pack and its cell are fixed: the module constants below are the one
place they are set.

Each substep is whole-array work: the groups are contiguous runs of ROWS
serials, so one reshape solves every group's network, and the footprints are
stored flat, so one scatter deposits every cell's heat. The thermal field is
a plain (NX, NY) array of kelvin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, SimulationError, require_integers

# open-circuit voltage vs state of charge, degree-6 fit (volts), highest power first
OCV_COEFFS = np.array([-34.39, 127.38, -182.10, 127.24, -45.57, 8.40, 3.19])

# the pack: COLS series groups of ROWS parallel cells, one group per column
ROWS = 4
COLS = 6
N_CELLS = ROWS * COLS
N_GROUPS = COLS
GAP = 0.002          # m between neighbouring cells
GRID_RES = 4         # thermal nodes per cell pitch, in each direction

# one cell
DIAMETER = 0.021                 # m
HEIGHT = 0.070                   # m
CAPACITY_AH = 4.8
INTERNAL_RESISTANCE = 0.03       # ohm
VOLUMETRIC_HEAT_CAPACITY = 2.0e6  # J/(m^3 K)
DIFFUSIVITY = 1.0e-5             # m^2/s, the same in both directions

PITCH = DIAMETER + GAP
# the thermal grid: square nodes NODE apart, NX along the groups, NY across
NODE = PITCH / GRID_RES
NX = COLS * GRID_RES
NY = ROWS * GRID_RES
# largest stable explicit step of the diffusion scheme on that grid
STABLE_DT = NODE**2 / (4.0 * DIFFUSIVITY)


def _require_finite(cfg):
    """Reject a NaN or infinite float field; range checks pass NaN."""
    for field in fields(cfg):
        value = getattr(cfg, field.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{field.name} must be finite, got {value}")


@dataclass(frozen=True)
class FaultSpec:
    """One internal short circuit: which cell, how hard, and when."""

    fault_cell: int          # serial number, 1-based
    r_short: float           # ohm
    onset: float             # seconds

    def __post_init__(self):
        _require_finite(self)
        require_integers(self, "fault_cell")
        if not 1 <= self.fault_cell <= N_CELLS:
            raise ConfigError(f"fault_cell {self.fault_cell} outside 1..{N_CELLS}")
        if self.r_short <= 0:
            raise ConfigError("r_short must be positive")
        if self.onset < 0:
            raise ConfigError("onset must be non-negative")


@dataclass(frozen=True)
class SimConfig:
    """Run settings for one simulation.

    Checked on construction, as FaultSpec is, dataclasses.replace's
    included (ConfigError otherwise). The fields, in this order, are a
    scenario file's keys.
    """

    dt: float = 0.5                 # integrator step, seconds
    duration: float = 2000.0        # seconds
    ambient: float = 293.15         # K
    h_forced: float = 25.0          # W/(m^2 K), left edge
    h_natural: float = 5.0          # W/(m^2 K), other edges
    temp_noise_std: float = 0.05    # K
    volt_noise_std: float = 0.001   # V
    discharge_rate: float = 2.0     # C-rate of the whole run
    initial_soc: float = 0.90
    sample_interval: float = 1.0    # seconds between telemetry frames
    rng_seed: int = 0
    fault: FaultSpec | None = None

    def __post_init__(self):
        _require_finite(self)
        require_integers(self, "rng_seed")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.dt > STABLE_DT + 1e-12:
            raise ConfigError(
                f"dt={self.dt} violates the explicit stability bound {STABLE_DT:.6g} s")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        if self.n_frames < 1:
            raise ConfigError("duration shorter than one sample interval")
        if self.ambient <= 0:
            raise ConfigError("ambient must be positive kelvin")
        if self.temp_noise_std < 0 or self.volt_noise_std < 0:
            raise ConfigError("noise levels must be non-negative")
        if not 0.0 < self.initial_soc <= 1.0:
            raise ConfigError("initial_soc must lie in (0, 1]")
        if self.discharge_rate < 0:
            raise ConfigError("discharge_rate must be non-negative")
        if self.rng_seed < 0:
            raise ConfigError(f"rng_seed must be non-negative, got {self.rng_seed}")

    @property
    def n_frames(self) -> int:
        """Telemetry frames of a run that no cell runs dry in: one at each
        multiple of sample_interval up to the duration. The quotient is
        taken to a relative 1e-9, since 0.3 / 0.1 is 2.9999999999999996.
        ConfigError, naming sample_interval, when it overflows."""
        frames = self.duration / self.sample_interval * (1 + 1e-9)
        if not math.isfinite(frames):
            raise ConfigError(f"sample_interval {self.sample_interval!r} "
                              f"makes the frame count of a {self.duration!r} s "
                              "run overflow")
        return math.floor(frames)


@dataclass
class PackLayout:
    """Cell placement and each cell's footprint on the thermal grid."""

    cell_centers: np.ndarray                  # (N_CELLS, 2)
    footprint_nodes: np.ndarray               # flat node indices, cell by cell
    footprint_counts: np.ndarray              # (N_CELLS,) nodes per cell
    footprint_offsets: np.ndarray             # (N_CELLS,) start of each cell's run


def build_layout() -> PackLayout:
    """Place the cells PITCH apart and grid the pack plane.

    Serial numbers run down each column ("column-major"), and each column is
    one series group of parallel cells. A cell's footprint is the grid nodes
    within its radius. The pack is fixed, so LAYOUT holds the one result.
    """
    centers = np.zeros((N_CELLS, 2))
    for serial0 in range(N_CELLS):
        col = serial0 // ROWS
        row = serial0 % ROWS
        centers[serial0] = ((col + 0.5) * PITCH, (row + 0.5) * PITCH)

    node_x = (np.arange(NX) + 0.5) * NODE
    node_y = (np.arange(NY) + 0.5) * NODE
    gx, gy = np.meshgrid(node_x, node_y, indexing="ij")
    radius = DIAMETER / 2
    footprints = []
    for c in range(N_CELLS):
        inside = np.hypot(gx - centers[c, 0], gy - centers[c, 1]) <= radius
        footprints.append(np.flatnonzero(inside.ravel()))
    counts = np.array([len(fp) for fp in footprints])

    return PackLayout(cell_centers=centers,
                      footprint_nodes=np.concatenate(footprints),
                      footprint_counts=counts,
                      footprint_offsets=np.cumsum(counts) - counts)


LAYOUT = build_layout()


@dataclass
class ElectricalState:
    soc: np.ndarray             # (N_CELLS,)
    branch_current: np.ndarray  # (N_CELLS,) bus-side branch currents, A
    drain_current: np.ndarray   # (N_CELLS,) internal short currents, A
    group_voltage: np.ndarray   # (N_GROUPS,) V


@dataclass
class TelemetryFrame:
    t: float
    cell_temps: np.ndarray    # (N_CELLS,) K
    group_volts: np.ndarray   # (N_GROUPS,) V
    pack_current: float
    label: int


class Depleted(Exception):
    """Internal signal: a cell ran out of charge during discharge."""


def ocv_of_soc(soc):
    """Open-circuit voltage (V) for a state of charge in [0, 1]."""
    arr = np.asarray(soc, dtype=float)
    if (arr < 0).any() or (arr > 1).any():
        raise ValueError("state of charge outside [0, 1]")
    out = np.polyval(OCV_COEFFS, arr)
    if np.isscalar(soc) or arr.ndim == 0:
        return float(out)
    return out


def step_electrical(state: ElectricalState, pack_current: float,
                    fault: FaultSpec | None, t: float, dt: float) -> ElectricalState:
    """Advance the circuit by dt: solve each group's parallel network, count coulombs.

    Every branch obeys V_group = OCV_i - I_i * R_int. An active short adds an
    internal drain of V_group / r_short inside the faulted cell, so bus-side
    branch currents still sum exactly to the pack current. Group g holds
    serials g*ROWS .. (g+1)*ROWS - 1, so (N_GROUPS, ROWS) views solve all
    groups at once.
    """
    r = INTERNAL_RESISTANCE
    ocv = ocv_of_soc(state.soc).reshape(N_GROUPS, ROWS)

    denom = np.full(N_GROUPS, ROWS / r)
    active = fault is not None and t >= fault.onset
    if active:
        f = fault.fault_cell - 1
        denom[f // ROWS] += 1.0 / fault.r_short
    if not ((denom > 0) & np.isfinite(denom)).all():
        raise SimulationError("singular parallel network")
    group_v = (ocv.sum(axis=1) / r - pack_current) / denom
    branch = ((ocv - group_v[:, None]) / r).ravel()
    drain = np.zeros(N_CELLS)
    if active:
        drain[f] = group_v[f // ROWS] / fault.r_short
        branch[f] -= drain[f]

    new_soc = state.soc - (branch + drain) * dt / (3600.0 * CAPACITY_AH)
    if (new_soc <= 0).any():
        raise Depleted()
    np.clip(new_soc, 0.0, 1.0, out=new_soc)

    return ElectricalState(soc=new_soc, branch_current=branch, drain_current=drain,
                           group_voltage=group_v)


def heat_generation(state: ElectricalState) -> np.ndarray:
    """Heat per cell (W): Joule heat of the current through the cell's
    resistance, plus V_group * I_drain dissipated in a short."""
    internal = state.branch_current + state.drain_current
    short = np.repeat(state.group_voltage, ROWS) * state.drain_current
    return internal**2 * INTERNAL_RESISTANCE + short


def deposit_sources(cell_watts: np.ndarray) -> np.ndarray:
    """Spread per-cell watts uniformly over each footprint as W/m^3."""
    src = np.zeros(NX * NY)
    node_vol = NODE * NODE * HEIGHT
    counts = LAYOUT.footprint_counts
    src[LAYOUT.footprint_nodes] = np.repeat(cell_watts / (counts * node_vol), counts)
    return src.reshape(NX, NY)


def step_thermal(t: np.ndarray, sources: np.ndarray, dt: float,
                 cfg: SimConfig) -> np.ndarray:
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


def initial_electrical_state(initial_soc: float) -> ElectricalState:
    """Every cell at initial_soc with no current, each group at its OCV."""
    soc = np.full(N_CELLS, float(initial_soc))
    v = float(ocv_of_soc(initial_soc))
    return ElectricalState(soc=soc, branch_current=np.zeros(N_CELLS),
                           drain_current=np.zeros(N_CELLS),
                           group_voltage=np.full(N_GROUPS, v))


def simulate(cfg: SimConfig) -> list[TelemetryFrame]:
    """Run a scenario and return one telemetry frame per sample_interval.

    Each frame is reached in equal substeps of at most cfg.dt. A substep
    steps the circuit, turns its currents into heat, deposits that heat on
    the footprints and steps the thermal field, all over the same dt. A run
    in which a cell runs out of charge stops there and returns the frames
    made so far, fewer than cfg.n_frames; if no frame was made, it raises
    SimulationError.
    """
    steps = max(1, math.ceil(cfg.sample_interval / cfg.dt - 1e-12))
    dt = cfg.sample_interval / steps
    rng = np.random.default_rng(cfg.rng_seed)
    field = np.full((NX, NY), cfg.ambient)
    elec = initial_electrical_state(cfg.initial_soc)
    # the C-rate is taken against one cell's capacity
    pack_current = cfg.discharge_rate * CAPACITY_AH
    fault = cfg.fault
    frames: list[TelemetryFrame] = []
    for k in range(cfg.n_frames):
        base = k * cfg.sample_interval
        try:
            for s in range(steps):
                t0 = base + s * dt
                elec = step_electrical(elec, pack_current, fault, t0, dt)
                src = deposit_sources(heat_generation(elec))
                field = step_thermal(field, src, dt, cfg)
        except Depleted:
            if not frames:
                raise SimulationError(
                    f"a cell ran out of charge at t = {t0 + dt:.12g} s, "
                    "before the first frame") from None
            break
        t_frame = (k + 1) * cfg.sample_interval
        flat = field.ravel()[LAYOUT.footprint_nodes]
        temps = (np.add.reduceat(flat, LAYOUT.footprint_offsets) / LAYOUT.footprint_counts
                 + rng.normal(0.0, cfg.temp_noise_std, N_CELLS))
        volts = elec.group_voltage + rng.normal(0.0, cfg.volt_noise_std,
                                                N_GROUPS)
        current = pack_current + rng.normal(0.0, cfg.volt_noise_std)
        label = int(fault is not None and t_frame > fault.onset)
        frames.append(TelemetryFrame(t=t_frame, cell_temps=temps,
                                     group_volts=volts, pack_current=current,
                                     label=label))
    return frames
