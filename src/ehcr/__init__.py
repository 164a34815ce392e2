"""Energy-harvesting interweave cognitive-radio link: analysis and simulation."""

from .analysis import MetricPoint, SystemConfig
from .fading import FadingParams
from .sim import SimEstimate

__all__ = [
    "FadingParams",
    "MetricPoint",
    "SimEstimate",
    "SystemConfig",
]
