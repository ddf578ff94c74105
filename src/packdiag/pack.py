"""Electro-thermal simulation of a 24-cell battery pack.

The pack is six series groups of four parallel cylindrical cells on a 4 x 6
grid. Heat spreads over a 2-D cross-section by explicit finite volumes with
convective edges; each group is a parallel resistor network around the
open-circuit voltage curve. An internal short circuit is modeled as an extra
resistor inside one cell: it drains that cell's charge and dumps Joule heat
onto its footprint.

The pack and its cell are fixed: the module constants below are the one
place they are set.

A run is one substep loop. Each substep steps every group's network at
once (the groups are contiguous runs of ROWS serials, so one reshape solves
them all), then the thermal field with that substep's cell heats. Relative
to ambient, the explicit scheme is linear with constant coefficients, and
its rate operator is a Kronecker sum: a chain of NX nodes along x plus a
chain of NY nodes along y (`thermal_operators`). The eigenvectors of the two
chains therefore diagonalise the whole scheme, so a substep steps the NX * NY
modal amplitudes of exactly the explicit scheme (`_modal_step`), and each
frame reads its cell means from them. The thermal field is a plain (NX, NY)
array of kelvin.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, SimulationError, require_integers

# open-circuit voltage vs state of charge, degree-6 fit (volts), highest power first
OCV_COEFFS = (-34.39, 127.38, -182.10, 127.24, -45.57, 8.40, 3.19)

# the most telemetry frames one run may ask for: 11.6 days at 1 Hz; the
# simulator holds its arrays for the whole run at once
MAX_FRAMES = 1_000_000
# the most substeps one run may take: a MAX_FRAMES run's at the default dt
# and sample_interval; it bounds a run's work
MAX_SUBSTEPS = 2 * MAX_FRAMES

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
        if not math.isfinite(ROWS / INTERNAL_RESISTANCE + 1.0 / self.r_short):
            raise ConfigError(f"r_short {self.r_short!r} makes its group's "
                              "parallel conductance overflow")
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
        frames = self.n_frames
        if frames < 1:
            raise ConfigError("duration shorter than one sample interval")
        if frames > MAX_FRAMES:
            raise ConfigError(f"sample_interval {self.sample_interval!r} "
                              f"makes a {self.duration!r} s run {frames} "
                              f"frames long, more than MAX_FRAMES = "
                              f"{MAX_FRAMES}")
        # the quotient first: an infinite one has no ceiling to take
        if (self.sample_interval / self.dt > MAX_SUBSTEPS
                or frames * self.substeps > MAX_SUBSTEPS):
            raise ConfigError(f"sample_interval {self.sample_interval!r} "
                              f"at dt {self.dt!r} makes a {self.duration!r}"
                              f" s run more than MAX_SUBSTEPS = "
                              f"{MAX_SUBSTEPS} substeps long")
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

    @property
    def substeps(self) -> int:
        """Equal substeps of at most dt that make up one frame's interval."""
        return max(1, math.ceil(self.sample_interval / self.dt - 1e-12))


@dataclass
class PackLayout:
    """Cell placement and each cell's footprint on the thermal grid."""

    cell_centers: np.ndarray                  # (N_CELLS, 2)
    footprint_nodes: np.ndarray               # flat node indices, cell by cell
    footprint_counts: np.ndarray              # (N_CELLS,) nodes per cell


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
    return PackLayout(cell_centers=centers,
                      footprint_nodes=np.concatenate(footprints),
                      footprint_counts=np.array([len(fp) for fp in footprints]))


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


def ocv_of_soc(soc):
    """Open-circuit voltage (V) for a state of charge in [0, 1], a range
    the caller keeps: in simulate, SimConfig bounds the start to (0, 1],
    step_electrical clips at 1, and the run stops at 0.

    Horner's rule in np.polyval's order, so the bits are np.polyval's.
    """
    out = OCV_COEFFS[0] * soc + OCV_COEFFS[1]
    for coeff in OCV_COEFFS[2:]:
        out *= soc
        out += coeff
    return out


# every group's parallel conductance, 1/ohm, while no short is active
HEALTHY_CONDUCTANCE = np.full(N_GROUPS, ROWS / INTERNAL_RESISTANCE)
HEALTHY_CONDUCTANCE.flags.writeable = False


def step_electrical(soc: np.ndarray, pack_current: float,
                    fault: FaultSpec | None, t: float, dt: float) -> ElectricalState:
    """Advance the circuit by dt: solve each group's parallel network, count coulombs.

    Every branch obeys V_group = OCV_i - I_i * R_int. An active short adds an
    internal drain of V_group / r_short inside the faulted cell, so bus-side
    branch currents still sum exactly to the pack current. Group g holds
    serials g*ROWS .. (g+1)*ROWS - 1, so (N_GROUPS, ROWS) views solve all
    groups at once. soc holds every cell's state of charge; the new ones
    are clipped at 1, and simulate stops at a step that leaves one at 0 or below.
    """
    r = INTERNAL_RESISTANCE
    ocv = ocv_of_soc(soc).reshape(N_GROUPS, ROWS)

    denom = HEALTHY_CONDUCTANCE
    active = fault is not None and t >= fault.onset
    if active:
        f = fault.fault_cell - 1
        denom = denom.copy()
        denom[f // ROWS] += 1.0 / fault.r_short
    group_v = (ocv.sum(axis=1) / r - pack_current) / denom
    branch = ((ocv - group_v[:, None]) / r).ravel()
    drain = np.zeros(N_CELLS)
    if active:
        drain[f] = group_v[f // ROWS] / fault.r_short
        branch[f] -= drain[f]

    new_soc = soc - (branch + drain) * dt / (3600.0 * CAPACITY_AH)
    np.minimum(new_soc, 1.0, out=new_soc)

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


def _chain(n: int, h_first: float, h_last: float) -> np.ndarray:
    """Rate operator (1/s) of n nodes in a row: diffusion between
    neighbours, and convection to ambient through each end face."""
    k = DIFFUSIVITY / NODE**2
    op = k * (np.eye(n, k=1) + np.eye(n, k=-1))
    op[np.diag_indices(n)] = -op.sum(axis=1)
    op[0, 0] -= h_first / (VOLUMETRIC_HEAT_CAPACITY * NODE)
    op[-1, -1] -= h_last / (VOLUMETRIC_HEAT_CAPACITY * NODE)
    return op


def thermal_operators(cfg: SimConfig) -> tuple[np.ndarray, np.ndarray]:
    """The thermal physics: the rate operators along x (NX, NX) and y (NY, NY).

    The field's excess over ambient, u (NX, NY), changes at the rate
    ax @ u + u @ ay + sources / VOLUMETRIC_HEAT_CAPACITY. Interior faces
    carry diffusive flux; the left edge (x = 0) exchanges heat with ambient
    air at the forced coefficient and the other three edges at the natural
    one, so corners see two faces. Both operators are symmetric, and with
    both coefficients zero their rows sum to zero, which conserves the
    field's mean.
    """
    return (_chain(NX, cfg.h_forced, cfg.h_natural),
            _chain(NY, cfg.h_natural, cfg.h_natural))


def _require_finite_field(field: np.ndarray):
    """SimulationError naming the first node of a field that is not finite."""
    if not np.isfinite(field).all():
        bad = np.argwhere(~np.isfinite(field))[0]
        raise SimulationError(f"non-finite temperature at node {tuple(bad)}")


def step_thermal(t: np.ndarray, sources: np.ndarray, dt: float,
                 cfg: SimConfig) -> np.ndarray:
    """One explicit step of dt seconds of the 2-D heat equation, on a field
    of kelvin and sources of W/m^3 (see thermal_operators)."""
    ax, ay = thermal_operators(cfg)
    u = t - cfg.ambient
    new_t = t + dt * (ax @ u + u @ ay + sources / VOLUMETRIC_HEAT_CAPACITY)
    _require_finite_field(new_t)
    return new_t


def _modal_step(dt: float, cfg: SimConfig):
    """The explicit thermal scheme for substeps of dt seconds, in its modes.

    With ax = Qx diag(mx) Qx^T and ay = Qy diag(my) Qy^T, an explicit step
    multiplies the amplitude of mode (i, j) by 1 + dt (mx_i + my_j) and adds
    that mode's share of the substep's sources. Each cell's heat spreads
    over its footprint (deposit_sources), so a watt in a cell has a fixed
    share in each mode, and the footprint mean reads the same shares back.
    Returns the gains (NX * NY,), the amplitudes one watt in each cell adds
    in a substep (N_CELLS, NX * NY), the map from amplitudes to each cell's
    mean excess over ambient (N_CELLS, NX * NY), and the bases (qx, qy)
    that turn amplitudes a back into the field qx @ a @ qy.T of excess.
    """
    ax, ay = thermal_operators(cfg)
    mx, qx = np.linalg.eigh(ax)
    my, qy = np.linalg.eigh(ay)
    gain = (1.0 + dt * (mx[:, None] + my[None, :])).ravel()

    # a watt in every cell: footprints are disjoint, so each node's density
    # belongs to the one cell over it
    density = deposit_sources(np.ones(N_CELLS)).ravel()
    per_cell = np.zeros((N_CELLS, NX * NY))
    owner = np.repeat(np.arange(N_CELLS), LAYOUT.footprint_counts)
    per_cell[owner, LAYOUT.footprint_nodes] = density[LAYOUT.footprint_nodes]
    shares = (qx.T @ per_cell.reshape(N_CELLS, NX, NY) @ qy).reshape(N_CELLS, -1)
    return (gain, shares * (dt / VOLUMETRIC_HEAT_CAPACITY),
            shares * (NODE * NODE * HEIGHT), (qx, qy))


def simulate(cfg: SimConfig) -> list[TelemetryFrame]:
    """Run a scenario and return one telemetry frame per sample_interval.

    Each frame is reached in cfg.substeps equal substeps of at most cfg.dt,
    all stepped by one loop from every cell at cfg.initial_soc. A substep
    steps the circuit, turns its currents into heat and steps the thermal
    field's modes with it (_modal_step); a frame reads its cell temperatures
    from the modes after its last substep. A run stops at the step that
    leaves a cell at 0 state of charge or below and returns the frames made
    before it, fewer than cfg.n_frames; if no frame was made, it raises
    SimulationError, as it does for a non-finite temperature.
    """
    steps = cfg.substeps
    dt = cfg.sample_interval / steps
    gain, source, read, (qx, qy) = _modal_step(dt, cfg)
    soc = np.full(N_CELLS, float(cfg.initial_soc))
    # the C-rate is taken against one cell's capacity
    pack_current = cfg.discharge_rate * CAPACITY_AH
    fault = cfg.fault
    n = cfg.n_frames
    amp = np.zeros(NX * NY)
    temps = np.empty((n, N_CELLS))
    group_v = np.empty((n, N_GROUPS))
    for i in range(n * steps):
        k, s = divmod(i, steps)
        t0 = k * cfg.sample_interval + s * dt
        elec = step_electrical(soc, pack_current, fault, t0, dt)
        soc = elec.soc
        if soc.min() <= 0:
            if k == 0:
                raise SimulationError(
                    f"a cell ran out of charge at t = {t0 + dt:.12g} s, "
                    "before the first frame")
            n = k
            break
        amp *= gain
        amp += heat_generation(elec) @ source
        if s == steps - 1:
            temps[k] = read @ amp
            group_v[k] = elec.group_voltage

    _require_finite_field(qx @ amp.reshape(NX, NY) @ qy.T + cfg.ambient)
    del gain, source, read, qx, qy, amp  # spent: a run's peak is its frames'
    temps = temps[:n]
    temps += cfg.ambient
    # the draws of frame after frame: 24 temperatures, 6 voltages, 1 current
    noise = np.random.default_rng(cfg.rng_seed).standard_normal(
        (n, N_CELLS + N_GROUPS + 1))
    temps += cfg.temp_noise_std * noise[:, :N_CELLS]
    volts = group_v[:n] + cfg.volt_noise_std * noise[:, N_CELLS:-1]
    current = pack_current + cfg.volt_noise_std * noise[:, -1]
    frames = []
    for k in range(n):
        t_frame = (k + 1) * cfg.sample_interval
        label = int(fault is not None and t_frame > fault.onset)
        frames.append(TelemetryFrame(t=t_frame, cell_temps=temps[k],
                                     group_volts=volts[k],
                                     pack_current=float(current[k]),
                                     label=label))
    return frames
