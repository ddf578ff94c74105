"""Shared exception types, mapped to CLI exit codes by the command layer,
and the one rule the configs' integer fields share."""

from numbers import Integral


class ConfigError(ValueError):
    """Invalid configuration: bad value, unknown key, unstable time step."""


class SimulationError(RuntimeError):
    """Failure inside the simulator: a non-finite field, or a cell out of
    charge before the first frame."""


class DataFormatError(ValueError):
    """Malformed dataset, params, or trace file."""


def require_integer(name, value):
    """Reject a value that is a bool or not an int or NumPy integer."""
    if isinstance(value, bool) or not isinstance(value, Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def require_integers(cfg, *names):
    """require_integer on each named field of cfg."""
    for name in names:
        require_integer(name, getattr(cfg, name))
