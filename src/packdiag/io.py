"""Plain-text persistence for telemetry datasets, detector params, run configs.

All files are UTF-8 with LF line endings. Datasets are comma-separated with
a mandatory header; params and scenario files are flat `key = value` text
with `#` comments, whose keys are the fields of the config they hold:
DetectorParams, or SimConfig with its FaultSpec last. Writers emit the keys
in field order with exact float formatting, so write -> read -> write
reproduces the bytes.
"""

from __future__ import annotations

from dataclasses import fields
from pathlib import Path
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, DataFormatError
from .fusion import DEFAULT_ALPHA, DetectorParams
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
    """Write one recording as the standard telemetry CSV: 12 significant
    digits a value, as _g gives them, and the integer label."""
    table = np.column_stack((tele.times, tele.temps, tele.volts, tele.current,
                             tele.labels))
    with open(path, "w", encoding="utf-8", newline="\n") as out:
        np.savetxt(out, table, fmt=["%.12g"] * (_N_FIELDS - 1) + ["%d"],
                   delimiter=",", header=DATASET_HEADER, comments="")


def _utf8_text(path) -> str:
    """The file's text, with newlines as a text-mode read gives them;
    DataFormatError naming the line of the first byte that is not UTF-8."""
    # no UTF-8 sequence holds a CR or LF byte, so translating the bytes
    # first keeps lines whole
    data = Path(path).read_bytes().replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        lineno = data.count(b"\n", 0, exc.start) + 1
        raise DataFormatError(f"line {lineno}: not UTF-8 text "
                              f"({exc.reason})") from None


def read_dataset(path) -> Telemetry:
    """Parse a telemetry CSV; malformed content names the offending line.

    Each row's fields go straight into one preallocated float table, so
    beyond the file's text and lines only the arrays themselves grow with
    the recording.
    """
    lines = _utf8_text(path).split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines or lines[0] != DATASET_HEADER:
        raise DataFormatError("bad dataset header; expected "
                              f"'{DATASET_HEADER[:24]}...'")
    if len(lines) == 1:
        raise DataFormatError("dataset has a header but no rows")
    # t, the channels and I; the labels stay Python ints until every line
    # is read, so that first_bad_frame can name any integer it rejects
    table = np.empty((len(lines) - 1, _N_FIELDS - 1))
    labels = []
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != _N_FIELDS:
            raise DataFormatError(f"line {lineno}: expected {_N_FIELDS} "
                                  f"fields, got {len(parts)}")
        try:
            table[lineno - 2] = [float(p) for p in parts[:-1]]
        except ValueError:
            raise DataFormatError(f"line {lineno}: non-numeric field") from None
        try:
            labels.append(int(parts[-1]))
        except ValueError:
            raise DataFormatError(f"line {lineno}: label must be an integer, "
                                  f"got {parts[-1]!r}") from None
    # the checks below copy the table; the lines need not outlive the parse
    del lines
    times, channels, currents = table[:, 0], table[:, 1:-1], table[:, -1]
    labels = np.asarray(labels)
    bad = first_bad_frame(times, labels, channels, currents)
    if bad is not None:
        k, why = bad
        raise DataFormatError(f"line {k + 2}: {why}")
    return Telemetry(times=times,
                     temps=channels[:, :N_CELLS],
                     volts=channels[:, N_CELLS:],
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


_ALPHA_KEYS = ("alpha1", "alpha2", "alpha3")


def _file_format(cls, leave_out: str = "") -> dict[str, type]:
    """Each field's key, in field order, and the int or float its value is
    read as; the weights alpha are keyed one per entry, alpha1..alpha3."""
    hints = get_type_hints(cls)
    keys: dict[str, type] = {}
    for field in fields(cls):
        if field.name == "alpha":
            keys.update(dict.fromkeys(_ALPHA_KEYS, float))
        elif field.name != leave_out:
            keys[field.name] = int if hints[field.name] is int else float
    return keys


_PARAMS = _file_format(DetectorParams)
_SCENARIO = _file_format(SimConfig, leave_out="fault")
_FAULT = _file_format(FaultSpec)


def _kv_lines(keys: dict[str, type], values: dict) -> list[str]:
    """A `key = value` line per key in order, skipping absent (None) values."""
    return [f"{key} = {values[key] if kind is int else _exact(values[key])}"
            for key, kind in keys.items() if values[key] is not None]


def _read_kv(path, keys: dict[str, type], what: str) -> dict:
    """The file's entries, each converted by its key's type, in file order."""
    values = {}
    try:
        text = _utf8_text(path)
    except DataFormatError as exc:
        raise ConfigError(f"{what} {exc}") from None
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"{what} line {lineno}: expected 'key = value',"
                              f" got {line!r}")
        if key in values:
            raise ConfigError(f"{what} line {lineno}: duplicate key '{key}'")
        if key not in keys:
            raise ConfigError(f"unknown {what} key '{key}'")
        try:
            values[key] = keys[key](value)
        except ValueError:
            raise ConfigError(f"bad value for '{key}': {value!r}") from None
    return values


def write_params(path, params: DetectorParams):
    """Write detector parameters; calibration keys only when present."""
    write_lines(path, _kv_lines(
        _PARAMS, vars(params) | dict(zip(_ALPHA_KEYS, params.alpha))))


def read_params(path) -> DetectorParams:
    values = _read_kv(path, _PARAMS, "params")
    # a weight the file leaves out keeps its stock value
    values["alpha"] = tuple(values.pop(key, stock)
                            for key, stock in zip(_ALPHA_KEYS, DEFAULT_ALPHA))
    return DetectorParams(**values)


def write_scenario(path, cfg: SimConfig):
    """Write a run config, the fault block last when there is one."""
    lines = _kv_lines(_SCENARIO, vars(cfg))
    if cfg.fault is not None:
        lines += _kv_lines(_FAULT, vars(cfg.fault))
    write_lines(path, lines)


def read_scenario(path) -> SimConfig:
    values = _read_kv(path, _SCENARIO | _FAULT, "scenario")
    fault = {key: values.pop(key) for key in _FAULT if key in values}
    if fault:
        missing = [key for key in _FAULT if key not in fault]
        if missing:
            raise ConfigError("fault block needs fault_cell, r_short and "
                              f"onset; missing '{missing[0]}'")
        values["fault"] = FaultSpec(**fault)
    return SimConfig(**values)
