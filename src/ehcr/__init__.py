"""Energy-harvesting interweave cognitive-radio link: analysis and simulation."""

from .analysis import SystemConfig
from .fading import FadingParams
from .sim import SimEstimate

__all__ = [
    "FadingParams",
    "SimEstimate",
    "SystemConfig",
]
