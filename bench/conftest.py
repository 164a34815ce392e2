"""The fixture every bench case takes: ``ehcr``, the package it runs against.

Under pytest-benchmark that is this checkout's ``src``, imported from there
when the package is not installed. ``ab.py`` calls the same case functions
with a base revision's package as well, so a case reaches the package only
through this fixture, never through a module-level import.
"""

import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))


@pytest.fixture
def ehcr():
    import ehcr.cli  # the command layer imports every module of the package

    return ehcr
