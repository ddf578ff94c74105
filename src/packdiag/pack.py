"""Electro-thermal simulation of a 24-cell battery pack.

The pack is six series groups of four parallel cylindrical cells on a 4 x 6
grid. Heat spreads over a 2-D cross-section by explicit finite volumes with
convective edges; each group is a parallel resistor network around the
open-circuit voltage curve. An internal short circuit is modeled as an extra
resistor inside one cell: it drains that cell's charge and dumps Joule heat
onto its footprint.

Each substep is whole-array work: the groups are contiguous runs of `rows`
serials, so one reshape solves every group's network, and the footprints are
stored flat, so one scatter deposits every cell's heat. The thermal field is
a plain (nx, ny) array of kelvin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, SimulationError

# open-circuit voltage vs state of charge, degree-6 fit (volts), highest power first
OCV_COEFFS = np.array([-34.39, 127.38, -182.10, 127.24, -45.57, 8.40, 3.19])

DEFAULT_ROWS = 4
DEFAULT_COLS = 6
DEFAULT_GAP_M = 0.002
DEFAULT_GRID_RES = 4


@dataclass(frozen=True)
class CellSpec:
    """Geometry, electrical, and thermal constants of one cell."""

    diameter: float = 0.021            # m
    height: float = 0.070              # m
    capacity_ah: float = 4.8
    nominal_voltage: float = 3.7
    internal_resistance: float = 0.03  # ohm
    volumetric_heat_capacity: float = 2.0e6   # J/(m^3 K)
    diffusivity_x: float = 1.0e-5      # m^2/s
    diffusivity_y: float = 1.0e-5

    def validate(self):
        for name in ("diameter", "height", "capacity_ah", "nominal_voltage",
                     "internal_resistance", "volumetric_heat_capacity",
                     "diffusivity_x", "diffusivity_y"):
            if getattr(self, name) <= 0:
                raise ConfigError(f"cell spec field {name} must be positive")


@dataclass(frozen=True)
class FaultSpec:
    """One internal short circuit: which cell, how hard, and when."""

    fault_cell: int          # serial number, 1-based
    r_short: float           # ohm
    onset: float             # seconds

    def validate(self):
        if self.r_short <= 0:
            raise ConfigError("r_short must be positive")
        if self.onset < 0:
            raise ConfigError("onset must be non-negative")


@dataclass
class SimConfig:
    """Run settings for one simulation."""

    dt: float = 0.5                 # integrator step, seconds
    duration: float = 2000.0        # seconds
    ambient: float = 293.15         # K
    h_forced: float = 25.0          # W/(m^2 K), left edge
    h_natural: float = 5.0          # W/(m^2 K), other edges
    temp_noise_std: float = 0.05    # K
    volt_noise_std: float = 0.001   # V
    rng_seed: int = 0
    discharge_rate: float = 2.0     # C-rate of the whole run
    initial_soc: float = 0.90
    sample_interval: float = 1.0    # seconds between telemetry frames
    fault: FaultSpec | None = None

    def validate(self):
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if self.duration < self.dt:
            raise ConfigError("duration must cover at least one step")
        if self.sample_interval <= 0:
            raise ConfigError("sample_interval must be positive")
        if self.ambient <= 0:
            raise ConfigError("ambient must be positive kelvin")
        if self.temp_noise_std < 0 or self.volt_noise_std < 0:
            raise ConfigError("noise levels must be non-negative")
        if not 0.0 < self.initial_soc <= 1.0:
            raise ConfigError("initial_soc must lie in (0, 1]")
        if self.discharge_rate < 0:
            raise ConfigError("discharge_rate must be non-negative")
        if self.fault is not None:
            self.fault.validate()


@dataclass
class PackLayout:
    """Cell placement, series wiring, and the thermal grid derived from them."""

    rows: int
    cols: int
    gap: float
    grid_res: int
    dx: float
    dy: float
    nx: int
    ny: int
    extent: tuple[float, float]
    cell_centers: np.ndarray                  # (n_cells, 2)
    footprint_nodes: np.ndarray               # flat node indices, cell by cell
    footprint_counts: np.ndarray              # (n_cells,) nodes per cell
    footprint_offsets: np.ndarray             # (n_cells,) start of each cell's run

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def n_groups(self) -> int:
        return self.cols

    @property
    def series_groups(self) -> np.ndarray:
        """Cell indices, one row per series group (a column of parallel cells)."""
        return np.arange(self.n_cells).reshape(self.n_groups, self.rows)


def build_layout(rows: int = DEFAULT_ROWS, cols: int = DEFAULT_COLS,
                 spec: CellSpec | None = None, gap: float = DEFAULT_GAP_M,
                 grid_res: int = DEFAULT_GRID_RES,
                 enforce_pack_size: bool = True) -> PackLayout:
    """Place rows x cols cells on a pitch of diameter+gap and grid the domain.

    Serial numbers run down each column ("column-major"), and each column is
    one series group of parallel cells. grid_res is the node count per cell
    pitch in each direction.
    """
    spec = spec or CellSpec()
    spec.validate()
    if rows < 1 or cols < 1:
        raise ConfigError("rows and cols must be at least 1")
    if enforce_pack_size and rows * cols != 24:
        raise ConfigError("benchmark topology requires rows*cols == 24")
    if grid_res < 2:
        raise ConfigError("grid_res must be at least 2")
    if gap < 0:
        raise ConfigError("gap must be non-negative")

    pitch = spec.diameter + gap
    x_b = cols * pitch
    y_b = rows * pitch
    nx = cols * grid_res
    ny = rows * grid_res
    dx = x_b / nx
    dy = y_b / ny

    n_cells = rows * cols
    centers = np.zeros((n_cells, 2))
    for serial0 in range(n_cells):
        col = serial0 // rows
        row = serial0 % rows
        centers[serial0] = ((col + 0.5) * pitch, (row + 0.5) * pitch)

    node_x = (np.arange(nx) + 0.5) * dx
    node_y = (np.arange(ny) + 0.5) * dy
    gx, gy = np.meshgrid(node_x, node_y, indexing="ij")
    radius = spec.diameter / 2
    footprints = []
    for c in range(n_cells):
        inside = np.hypot(gx - centers[c, 0], gy - centers[c, 1]) <= radius
        idx = np.flatnonzero(inside.ravel())
        if len(idx) == 0:
            raise ConfigError(f"grid too coarse: cell {c + 1} has no interior node")
        footprints.append(idx)

    nodes = np.concatenate(footprints)
    if len(nodes) != len(np.unique(nodes)):
        raise ConfigError("cell footprints overlap; increase the gap or grid_res")
    counts = np.array([len(fp) for fp in footprints])

    return PackLayout(rows=rows, cols=cols, gap=gap, grid_res=grid_res,
                      dx=dx, dy=dy, nx=nx, ny=ny, extent=(x_b, y_b),
                      cell_centers=centers,
                      footprint_nodes=nodes, footprint_counts=counts,
                      footprint_offsets=np.cumsum(counts) - counts)


@dataclass
class ElectricalState:
    soc: np.ndarray             # (n_cells,)
    branch_current: np.ndarray  # (n_cells,) bus-side branch currents, A
    drain_current: np.ndarray   # (n_cells,) internal short currents, A
    group_voltage: np.ndarray   # (n_groups,) V


@dataclass
class TelemetryFrame:
    t: float
    cell_temps: np.ndarray    # (n_cells,) K
    group_volts: np.ndarray   # (n_groups,) V
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


def pack_current_a(rate_c: float, capacity_ah: float = 4.8) -> float:
    """Pack discharge current (A) for a C-rate against the single-cell capacity."""
    return rate_c * capacity_ah


def step_electrical(state: ElectricalState, pack_current: float,
                    layout: PackLayout, spec: CellSpec,
                    fault: FaultSpec | None, t: float, dt: float) -> ElectricalState:
    """Advance the circuit by dt: solve each group's parallel network, count coulombs.

    Every branch obeys V_group = OCV_i - I_i * R_int. An active short adds an
    internal drain of V_group / r_short inside the faulted cell, so bus-side
    branch currents still sum exactly to the pack current. Group g holds
    serials g*rows .. (g+1)*rows - 1 (`layout.series_groups`), so
    (n_groups, rows) views solve all groups at once.
    """
    r = spec.internal_resistance
    ocv = ocv_of_soc(state.soc).reshape(layout.n_groups, layout.rows)

    denom = np.full(layout.n_groups, layout.rows / r)
    active = fault is not None and t >= fault.onset
    if active:
        f = fault.fault_cell - 1
        denom[f // layout.rows] += 1.0 / fault.r_short
    if not ((denom > 0) & np.isfinite(denom)).all():
        raise SimulationError("singular parallel network")
    group_v = (ocv.sum(axis=1) / r - pack_current) / denom
    branch = ((ocv - group_v[:, None]) / r).ravel()
    drain = np.zeros(layout.n_cells)
    if active:
        drain[f] = group_v[f // layout.rows] / fault.r_short
        branch[f] -= drain[f]

    new_soc = state.soc - (branch + drain) * dt / (3600.0 * spec.capacity_ah)
    if (new_soc <= 0).any():
        raise Depleted()
    np.clip(new_soc, 0.0, 1.0, out=new_soc)

    return ElectricalState(soc=new_soc, branch_current=branch, drain_current=drain,
                           group_voltage=group_v)


def heat_generation(state: ElectricalState, spec: CellSpec) -> np.ndarray:
    """Heat per cell (W): Joule heat of the current through the cell's
    resistance, plus V_group * I_drain dissipated in a short."""
    internal = state.branch_current + state.drain_current
    rows = state.soc.size // state.group_voltage.size
    short = np.repeat(state.group_voltage, rows) * state.drain_current
    return internal**2 * spec.internal_resistance + short


def deposit_sources(cell_watts: np.ndarray, layout: PackLayout,
                    spec: CellSpec) -> np.ndarray:
    """Spread per-cell watts uniformly over each footprint as W/m^3."""
    src = np.zeros(layout.nx * layout.ny)
    node_vol = layout.dx * layout.dy * spec.height
    counts = layout.footprint_counts
    src[layout.footprint_nodes] = np.repeat(cell_watts / (counts * node_vol), counts)
    return src.reshape(layout.nx, layout.ny)


def stability_limit(layout: PackLayout, spec: CellSpec) -> float:
    """Largest stable explicit step for the diffusion scheme."""
    return min(layout.dx, layout.dy) ** 2 / (2.0 * (spec.diffusivity_x + spec.diffusivity_y))


def step_thermal(t: np.ndarray, sources: np.ndarray, dt: float, cfg: SimConfig,
                 layout: PackLayout, spec: CellSpec) -> np.ndarray:
    """One explicit finite-volume step of dt seconds of the 2-D heat equation.

    Interior faces carry diffusive flux; edges exchange heat with ambient air
    (forced coefficient on the left edge, natural elsewhere). Insulated edges
    (both coefficients zero) conserve the spatial mean exactly.
    """
    kx = spec.diffusivity_x
    ky = spec.diffusivity_y
    dx, dy = layout.dx, layout.dy
    c_vol = spec.volumetric_heat_capacity

    rate = np.zeros_like(t)
    fx = (t[1:, :] - t[:-1, :]) * (kx / dx**2)
    rate[:-1, :] += fx
    rate[1:, :] -= fx
    fy = (t[:, 1:] - t[:, :-1]) * (ky / dy**2)
    rate[:, :-1] += fy
    rate[:, 1:] -= fy

    # convective edges; corners see two faces
    rate[0, :] += cfg.h_forced / (c_vol * dx) * (cfg.ambient - t[0, :])
    rate[-1, :] += cfg.h_natural / (c_vol * dx) * (cfg.ambient - t[-1, :])
    rate[:, 0] += cfg.h_natural / (c_vol * dy) * (cfg.ambient - t[:, 0])
    rate[:, -1] += cfg.h_natural / (c_vol * dy) * (cfg.ambient - t[:, -1])

    new_t = t + dt * (rate + sources / c_vol)
    if not np.isfinite(new_t).all():
        bad = np.argwhere(~np.isfinite(new_t))[0]
        raise SimulationError(f"non-finite temperature at node {tuple(bad)}")
    return new_t


class PackSimulator:
    """Owns the coupled electro-thermal state and produces telemetry frames."""

    def __init__(self, cfg: SimConfig, layout: PackLayout | None = None,
                 spec: CellSpec | None = None):
        cfg.validate()
        self.spec = spec or CellSpec()
        self.spec.validate()
        self.layout = layout or build_layout(spec=self.spec)
        self.cfg = cfg

        limit = stability_limit(self.layout, self.spec)
        if cfg.dt > limit + 1e-12:
            raise ConfigError(
                f"dt={cfg.dt} violates the explicit stability bound {limit:.6g} s")
        if cfg.fault is not None:
            if not 1 <= cfg.fault.fault_cell <= self.layout.n_cells:
                raise ConfigError(
                    f"fault_cell {cfg.fault.fault_cell} outside 1..{self.layout.n_cells}")

        self.steps_per_frame = max(1, math.ceil(cfg.sample_interval / cfg.dt - 1e-12))
        self.eff_dt = cfg.sample_interval / self.steps_per_frame
        self.n_frames = int(round(cfg.duration / cfg.sample_interval))
        if self.n_frames < 1:
            raise ConfigError("duration shorter than one sample interval")

        self.rng = np.random.default_rng(cfg.rng_seed)
        self.field = np.full((self.layout.nx, self.layout.ny), cfg.ambient)
        self.elec = self.initial_electrical_state(self.layout, cfg.initial_soc)
        self.pack_current = pack_current_a(cfg.discharge_rate, self.spec.capacity_ah)
        self.status = "ok"
        self.heat_injected_j = 0.0

    @staticmethod
    def initial_electrical_state(layout: PackLayout, initial_soc: float) -> ElectricalState:
        n = layout.n_cells
        soc = np.full(n, float(initial_soc))
        v = float(ocv_of_soc(initial_soc))
        return ElectricalState(soc=soc, branch_current=np.zeros(n),
                               drain_current=np.zeros(n),
                               group_voltage=np.full(layout.n_groups, v))

    def cell_mean_temps(self) -> np.ndarray:
        lay = self.layout
        flat = self.field.ravel()[lay.footprint_nodes]
        return np.add.reduceat(flat, lay.footprint_offsets) / lay.footprint_counts

    def _substep(self, t0: float):
        elec = step_electrical(self.elec, self.pack_current, self.layout,
                               self.spec, self.cfg.fault, t0, self.eff_dt)
        watts = heat_generation(elec, self.spec)
        src = deposit_sources(watts, self.layout, self.spec)
        # circuit, heat books and thermal step share one dt, so the books balance
        self.heat_injected_j += watts.sum() * self.eff_dt
        self.field = step_thermal(self.field, src, self.eff_dt, self.cfg,
                                  self.layout, self.spec)
        self.elec = elec

    def run(self) -> list[TelemetryFrame]:
        cfg = self.cfg
        frames: list[TelemetryFrame] = []
        fault = cfg.fault
        for k in range(self.n_frames):
            base = k * cfg.sample_interval
            try:
                for s in range(self.steps_per_frame):
                    self._substep(base + s * self.eff_dt)
            except Depleted:
                self.status = "depleted"
                break
            t_frame = (k + 1) * cfg.sample_interval
            temps = self.cell_mean_temps() + self.rng.normal(0.0, cfg.temp_noise_std,
                                                             self.layout.n_cells)
            volts = self.elec.group_voltage + self.rng.normal(0.0, cfg.volt_noise_std,
                                                              self.layout.n_groups)
            current = self.pack_current + self.rng.normal(0.0, cfg.volt_noise_std)
            label = int(fault is not None and t_frame > fault.onset)
            frames.append(TelemetryFrame(t=t_frame, cell_temps=temps,
                                         group_volts=volts, pack_current=current,
                                         label=label))
        return frames


def simulate(cfg: SimConfig, layout: PackLayout | None = None,
             spec: CellSpec | None = None) -> list[TelemetryFrame]:
    """Run a full scenario and return its telemetry frames (1 Hz by default)."""
    return PackSimulator(cfg, layout=layout, spec=spec).run()
