"""Plain-text persistence for telemetry datasets, detector params, run configs.

All files are UTF-8 with LF line endings. Datasets are comma-separated with
a mandatory header; params and scenario files are flat `key = value` text
with `#` comments. Writers emit keys in one canonical order with exact
float formatting, so write -> read -> write reproduces the bytes.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import ConfigError, DataFormatError
from .fusion import CALIBRATION_KEYS, DetectorParams
from .pack import N_CELLS, N_GROUPS, FaultSpec, SimConfig
from .pipeline import DetectorReport, Telemetry, first_bad_frame

# one temperature channel per cell, one voltage channel per series group
DATASET_HEADER = ("t,"
                  + ",".join(f"T{i:02d}" for i in range(1, N_CELLS + 1))
                  + ","
                  + ",".join(f"V{j}" for j in range(1, N_GROUPS + 1))
                  + ",I,label")
_N_FIELDS = 3 + N_CELLS + N_GROUPS  # t, channels, I, label


def _g(x) -> str:
    """Dataset float formatting: 12 significant digits."""
    return f"{float(x):.12g}"


def _exact(x) -> str:
    """Shortest decimal text that parses back to the identical float."""
    return repr(float(x))


def write_lines(path, lines: list[str]):
    """Write the lines as UTF-8 text, each ended by one LF."""
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8",
                          newline="\n")


def write_dataset(path, tele: Telemetry):
    """Write one recording as the standard telemetry CSV."""
    lines = [DATASET_HEADER]
    for k in range(tele.n_frames):
        fields = [_g(tele.times[k])]
        fields += [_g(v) for v in tele.temps[k]]
        fields += [_g(v) for v in tele.volts[k]]
        fields.append(_g(tele.current[k]))
        fields.append(str(int(tele.labels[k])))
        lines.append(",".join(fields))
    write_lines(path, lines)


def read_dataset(path) -> Telemetry:
    """Parse a telemetry CSV; malformed content names the offending line."""
    text = Path(path).read_text(encoding="utf-8")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != DATASET_HEADER:
        raise DataFormatError("bad dataset header; expected "
                              f"'{DATASET_HEADER[:24]}...'")
    times, rows, currents, labels = [], [], [], []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != _N_FIELDS:
            raise DataFormatError(f"line {lineno}: expected {_N_FIELDS} "
                                  f"fields, got {len(parts)}")
        try:
            values = [float(p) for p in parts[:-1]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric field") from None
        try:
            labels.append(int(parts[-1]))
        except ValueError:
            raise DataFormatError(f"line {lineno}: label must be an integer, "
                                  f"got {parts[-1]!r}") from None
        times.append(values[0])
        rows.append(values[1:-1])
        currents.append(values[-1])
    if not times:
        raise DataFormatError("dataset has a header but no rows")
    times, rows, currents, labels = (np.asarray(v) for v in
                                     (times, rows, currents, labels))
    bad = first_bad_frame(times, labels, rows, currents)
    if bad is not None:
        k, why = bad
        raise DataFormatError(f"line {k + 2}: {why}")
    return Telemetry(times=times,
                     temps=rows[:, :N_CELLS],
                     volts=rows[:, N_CELLS:],
                     current=currents,
                     labels=np.asarray(labels, dtype=int))


TRACE_HEADER = "t,h_d,h_s,h_t,H,H_r,alarm"


def write_trace(path, report: DetectorReport):
    """Per-frame detection trace; warm-up rows carry empty entropy fields."""
    streams = report.streams
    h = report.h_stream
    h_r = _g(report.params.h_r)
    lines = [TRACE_HEADER]
    for k in range(streams.times.size):
        t = _g(streams.times[k])
        if np.isnan(h[k]):
            lines.append(f"{t},,,,,{h_r},0")
        else:
            lines.append(f"{t},{_g(streams.h_d[k])},{_g(streams.h_s[k])},"
                         f"{_g(streams.h_t[k])},{_g(h[k])},{h_r},"
                         f"{int(report.outcome.alarms[k])}")
    write_lines(path, lines)


def _parse_kv(path, what: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    text = Path(path).read_text(encoding="utf-8")
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{what} line {lineno}: expected 'key = value',"
                              f" got {line!r}")
        if key in entries:
            raise ConfigError(f"{what} line {lineno}: duplicate key '{key}'")
        entries[key] = value
    return entries


def _converted(entries: dict[str, str], key: str, conv, default):
    if key not in entries:
        return default
    try:
        return conv(entries[key])
    except ValueError:
        raise ConfigError(f"bad value for '{key}': {entries[key]!r}") from None


def _reject_unknown(entries: dict[str, str], known, what: str):
    unknown = sorted(set(entries) - set(known))
    if unknown:
        raise ConfigError(f"unknown {what} key '{unknown[0]}'")


_PARAM_KEYS = ("window", "alpha1", "alpha2", "alpha3", "beta",
               "train_len") + CALIBRATION_KEYS


def write_params(path, params: DetectorParams):
    """Write detector parameters; calibration keys only when present."""
    lines = [f"window = {params.window}"]
    for i, a in enumerate(params.alpha, start=1):
        lines.append(f"alpha{i} = {_exact(a)}")
    lines.append(f"beta = {_exact(params.beta)}")
    lines.append(f"train_len = {params.train_len}")
    for key in CALIBRATION_KEYS:
        value = getattr(params, key)
        if value is not None:
            lines.append(f"{key} = {_exact(value)}")
    write_lines(path, lines)


def read_params(path) -> DetectorParams:
    entries = _parse_kv(path, "params")
    _reject_unknown(entries, _PARAM_KEYS, "params")
    defaults = DetectorParams()
    alpha = tuple(
        _converted(entries, f"alpha{i}", float, defaults.alpha[i - 1])
        for i in (1, 2, 3))
    return DetectorParams(
        window=_converted(entries, "window", int, defaults.window),
        alpha=alpha,
        beta=_converted(entries, "beta", float, defaults.beta),
        train_len=_converted(entries, "train_len", int, defaults.train_len),
        **{key: _converted(entries, key, float, None)
           for key in CALIBRATION_KEYS})


_SCENARIO_FLOATS = ("dt", "duration", "ambient", "h_forced", "h_natural",
                    "temp_noise_std", "volt_noise_std", "discharge_rate",
                    "initial_soc", "sample_interval")
_FAULT_KEYS = ("fault_cell", "r_short", "onset")
_SCENARIO_KEYS = _SCENARIO_FLOATS + ("rng_seed",) + _FAULT_KEYS


def write_scenario(path, cfg: SimConfig):
    """Write a run config, the fault block last when there is one."""
    lines = [f"{key} = {_exact(getattr(cfg, key))}" for key in _SCENARIO_FLOATS]
    lines.append(f"rng_seed = {cfg.rng_seed}")
    if cfg.fault is not None:
        lines.append(f"fault_cell = {cfg.fault.fault_cell}")
        lines.append(f"r_short = {_exact(cfg.fault.r_short)}")
        lines.append(f"onset = {_exact(cfg.fault.onset)}")
    write_lines(path, lines)


def read_scenario(path) -> SimConfig:
    entries = _parse_kv(path, "scenario")
    _reject_unknown(entries, _SCENARIO_KEYS, "scenario")
    defaults = SimConfig()
    kwargs = {key: _converted(entries, key, float, getattr(defaults, key))
              for key in _SCENARIO_FLOATS}
    kwargs["rng_seed"] = _converted(entries, "rng_seed", int,
                                    defaults.rng_seed)
    fault = None
    if any(key in entries for key in _FAULT_KEYS):
        missing = [k for k in _FAULT_KEYS if k not in entries]
        if missing:
            raise ConfigError("fault block needs fault_cell, r_short and "
                              f"onset; missing '{missing[0]}'")
        fault = FaultSpec(
            fault_cell=_converted(entries, "fault_cell", int, None),
            r_short=_converted(entries, "r_short", float, None),
            onset=_converted(entries, "onset", float, None),
        )
    return SimConfig(fault=fault, **kwargs)
