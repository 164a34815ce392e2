"""Energy-harvesting interweave cognitive-radio link: analysis and simulation."""

from .analysis import MetricPoint, SystemConfig
from .fading import FadingParams
from .numerics import AccuracySpec
from .sim import SimEstimate

__all__ = [
    "AccuracySpec",
    "FadingParams",
    "MetricPoint",
    "SimEstimate",
    "SystemConfig",
]
