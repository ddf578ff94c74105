"""Battery pack simulation and entropy-based thermal fault diagnosis.

The names below cover simulating a pack, detecting and localizing a short,
and tuning the detector; everything else is reached through its module
(packdiag.pack, packdiag.pipeline, packdiag.fusion, ...).
"""

from .errors import ConfigError, DataFormatError, SimulationError
from .fusion import DetectorParams
from .io import write_dataset
from .locate import contributions_at
from .pack import FaultSpec, SimConfig, build_layout, simulate
from .pipeline import Telemetry, entropy_streams, run_detector
from .tuning import FitnessEvaluator, GaConfig, mga_optimize, objective

__version__ = "0.1.0"

__all__ = [
    # simulate a pack
    "FaultSpec",
    "SimConfig",
    "build_layout",
    "simulate",
    "write_dataset",
    # detect and localize
    "DetectorParams",
    "Telemetry",
    "contributions_at",
    "entropy_streams",
    "run_detector",
    # tune the detector
    "FitnessEvaluator",
    "GaConfig",
    "mga_optimize",
    "objective",
    # errors
    "ConfigError",
    "DataFormatError",
    "SimulationError",
]
