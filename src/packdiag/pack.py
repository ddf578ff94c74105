"""Electro-thermal simulation of a 24-cell battery pack.

The pack is six series groups of four parallel cylindrical cells on a 4 x 6
grid. Heat spreads over a 2-D cross-section by explicit finite volumes with
convective edges; each group is a parallel resistor network around the
open-circuit voltage curve. An internal short circuit is modeled as an extra
resistor inside one cell: it drains that cell's charge and dumps Joule heat
onto its footprint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dataclass_field

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
    r_equiv: float = 0.005   # m, equivalent radius of the shorted region

    def validate(self):
        if self.r_short <= 0:
            raise ConfigError("r_short must be positive")
        if self.r_equiv <= 0:
            raise ConfigError("r_equiv must be positive")
        if self.onset < 0:
            raise ConfigError("onset must be non-negative")


@dataclass
class SimConfig:
    """Run settings for one simulation."""

    dt: float = 0.5                 # integrator step, seconds
    duration: float = 2000.0        # seconds
    ambient: float = 293.15         # K
    airflow_speed: float = 1.0      # m/s on the forced-air edge (informational)
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
    series_groups: list[np.ndarray]           # cell indices per group, column-wise
    footprints: list[np.ndarray]              # flat node indices per cell

    @property
    def n_cells(self) -> int:
        return self.rows * self.cols

    @property
    def n_groups(self) -> int:
        return len(self.series_groups)


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

    groups = [np.arange(c * rows, (c + 1) * rows) for c in range(cols)]

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

    all_idx = np.concatenate(footprints)
    if len(all_idx) != len(np.unique(all_idx)):
        raise ConfigError("cell footprints overlap; increase the gap or grid_res")

    return PackLayout(rows=rows, cols=cols, gap=gap, grid_res=grid_res,
                      dx=dx, dy=dy, nx=nx, ny=ny, extent=(x_b, y_b),
                      cell_centers=centers, series_groups=groups,
                      footprints=footprints)


@dataclass
class ThermalField:
    temperatures: np.ndarray   # (nx, ny), kelvin
    time: float


@dataclass
class ElectricalState:
    soc: np.ndarray             # (n_cells,)
    branch_current: np.ndarray  # (n_cells,) bus-side branch currents, A
    drain_current: np.ndarray   # (n_cells,) internal short currents, A
    group_voltage: np.ndarray   # (n_groups,) V
    pack_current: float
    time: float


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


def isc_power_density(voltage: float, r_short: float, r_equiv: float) -> float:
    """Volumetric heat rate (W/m^3) of a short, spread over a sphere of r_equiv."""
    if r_short <= 0 or r_equiv <= 0:
        raise ValueError("r_short and r_equiv must be positive")
    return 3.0 * voltage**2 / (4.0 * math.pi * r_equiv**3 * r_short)


def pack_current_a(rate_c: float, capacity_ah: float = 4.8) -> float:
    """Pack discharge current (A) for a C-rate against the single-cell capacity."""
    return rate_c * capacity_ah


def step_electrical(state: ElectricalState, pack_current: float,
                    layout: PackLayout, spec: CellSpec,
                    fault: FaultSpec | None, t: float, dt: float) -> ElectricalState:
    """Advance the circuit by dt: solve each group's parallel network, count coulombs.

    Every branch obeys V_group = OCV_i - I_i * R_int. An active short adds an
    internal drain of V_group / r_short inside the faulted cell, so bus-side
    branch currents still sum exactly to the pack current.
    """
    ocv = ocv_of_soc(state.soc)
    r = spec.internal_resistance
    n_rows = layout.rows

    active = fault is not None and t >= fault.onset
    fault_idx = fault.fault_cell - 1 if fault is not None else -1

    group_v = np.empty(layout.n_groups)
    branch = np.empty(layout.n_cells)
    drain = np.zeros(layout.n_cells)
    for g, grp in enumerate(layout.series_groups):
        denom = len(grp) / r
        if active and fault_idx in grp:
            denom += 1.0 / fault.r_short
        if denom <= 0 or not math.isfinite(denom):
            raise SimulationError("singular parallel network")
        v = (ocv[grp].sum() / r - pack_current) / denom
        group_v[g] = v
        branch[grp] = (ocv[grp] - v) / r
        if active and fault_idx in grp:
            drain[fault_idx] = v / fault.r_short
            branch[fault_idx] -= drain[fault_idx]

    new_soc = state.soc - (branch + drain) * dt / (3600.0 * spec.capacity_ah)
    if (new_soc <= 0).any():
        raise Depleted()
    np.clip(new_soc, 0.0, 1.0, out=new_soc)

    return ElectricalState(soc=new_soc, branch_current=branch, drain_current=drain,
                           group_voltage=group_v, pack_current=pack_current,
                           time=state.time + dt)


def heat_generation(state: ElectricalState, spec: CellSpec) -> np.ndarray:
    """Irreversible Joule heat per cell (W) from the current through each cell."""
    internal = state.branch_current + state.drain_current
    return internal**2 * spec.internal_resistance


def deposit_sources(cell_watts: np.ndarray, layout: PackLayout,
                    spec: CellSpec) -> np.ndarray:
    """Spread per-cell watts uniformly over each footprint as W/m^3."""
    src = np.zeros(layout.nx * layout.ny)
    node_vol = layout.dx * layout.dy * spec.height
    for c, fp in enumerate(layout.footprints):
        src[fp] = cell_watts[c] / (len(fp) * node_vol)
    return src.reshape(layout.nx, layout.ny)


def stability_limit(layout: PackLayout, spec: CellSpec) -> float:
    """Largest stable explicit step for the diffusion scheme."""
    return min(layout.dx, layout.dy) ** 2 / (2.0 * (spec.diffusivity_x + spec.diffusivity_y))


def step_thermal(field: ThermalField, sources: np.ndarray, cfg: SimConfig,
                 layout: PackLayout, spec: CellSpec) -> ThermalField:
    """One explicit finite-volume step of the 2-D heat equation.

    Interior faces carry diffusive flux; edges exchange heat with ambient air
    (forced coefficient on the left edge, natural elsewhere). Insulated edges
    (both coefficients zero) conserve the spatial mean exactly.
    """
    t = field.temperatures
    dt = cfg.dt
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
    return ThermalField(new_t, field.time + dt)


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
        self.field = ThermalField(
            np.full((self.layout.nx, self.layout.ny), cfg.ambient), 0.0)
        self.elec = self.initial_electrical_state(self.layout, cfg.initial_soc)
        self.pack_current = pack_current_a(cfg.discharge_rate, self.spec.capacity_ah)
        self.status = "ok"
        self.heat_injected_j = 0.0

        # flattened footprint bookkeeping for fast per-cell means
        self._fp_concat = np.concatenate(self.layout.footprints)
        self._fp_counts = np.array([len(fp) for fp in self.layout.footprints])
        self._fp_offsets = np.concatenate([[0], np.cumsum(self._fp_counts)[:-1]])

    @staticmethod
    def initial_electrical_state(layout: PackLayout, initial_soc: float) -> ElectricalState:
        n = layout.n_cells
        soc = np.full(n, float(initial_soc))
        v = float(ocv_of_soc(initial_soc))
        return ElectricalState(soc=soc, branch_current=np.zeros(n),
                               drain_current=np.zeros(n),
                               group_voltage=np.full(layout.n_groups, v),
                               pack_current=0.0, time=0.0)

    def cell_mean_temps(self) -> np.ndarray:
        flat = self.field.temperatures.ravel()[self._fp_concat]
        return np.add.reduceat(flat, self._fp_offsets) / self._fp_counts

    def _substep(self, t0: float):
        cfg = self.cfg
        fault = cfg.fault
        elec = step_electrical(self.elec, self.pack_current, self.layout,
                               self.spec, fault, t0, self.eff_dt)
        watts = heat_generation(elec, self.spec)
        if fault is not None and t0 >= fault.onset:
            g = (fault.fault_cell - 1) // self.layout.rows
            watts = watts.copy()
            watts[fault.fault_cell - 1] += elec.group_voltage[g] * elec.drain_current[fault.fault_cell - 1]
        src = deposit_sources(watts, self.layout, self.spec)
        # dt must match the thermal step below for the energy books to balance
        self.heat_injected_j += watts.sum() * self.eff_dt
        step_cfg = cfg if abs(cfg.dt - self.eff_dt) < 1e-15 else self._cfg_with_dt()
        self.field = step_thermal(self.field, src, step_cfg, self.layout, self.spec)
        self.elec = elec

    def _cfg_with_dt(self):
        import copy
        c = copy.copy(self.cfg)
        c.dt = self.eff_dt
        return c

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
