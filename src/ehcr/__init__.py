"""Energy-harvesting interweave cognitive-radio link: analysis and simulation."""

from .analysis import MetricPoint, SystemConfig
from .fading import FadingParams
from .numerics import AccuracySpec
from .sim import EnergyBuffer, SimEstimate

__all__ = [
    "AccuracySpec",
    "EnergyBuffer",
    "FadingParams",
    "MetricPoint",
    "SimEstimate",
    "SystemConfig",
]
