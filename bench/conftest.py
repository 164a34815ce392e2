"""Import the package from this checkout's ``src`` when it is not installed."""

import pathlib
import sys

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))
