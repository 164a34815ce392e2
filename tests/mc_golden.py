"""Golden Monte Carlo estimates: the cases, and a writer for their data file.

    PYTHONPATH=src python tests/mc_golden.py

writes ``tests/data/mc_golden.json``: every `SimEstimate` field of every
case, floats as ``float.hex``, with the numpy version that drew them.
numpy does not promise `Generator` streams across versions (NEP 19), so a
numpy upgrade may need the file written again; that is a test-data change.
"""

import dataclasses
import json
import pathlib
import sys

import numpy as np

from ehcr import sim
from ehcr.analysis import SystemConfig
from ehcr.fading import FadingParams

PATH = pathlib.Path(__file__).resolve().parent / "data" / "mc_golden.json"
TAUS = [0.1 * i for i in range(1, 10)]
SEED = 20261019


def setup(antennas, ideal, **overrides):
    return SystemConfig(ideal=ideal, fading_pb_st=FadingParams(7.0, antennas, 20), **overrides)


def cases():
    """Name -> (config, placements, slots, mode) of every golden case."""
    out = {}
    for antennas in (1, 16):
        for ideal in (True, False):
            for mode in sim.MODES:
                name = f"L{antennas}-{'ideal' if ideal else 'nonideal'} {mode} 40x300"
                out[name] = (setup(antennas, ideal), 40, 300, mode)
    # an odd placement count (a last stratum of three), one slot, a slot
    # count off every block edge, and a run past the edge of a gain chunk
    for placements, slots in ((3, 1), (3, 13), (5, 5000)):
        for mode in sim.MODES:
            out[f"L1-ideal {mode} {placements}x{slots}"] = (setup(1, True), placements, slots, mode)
    # a rate at which the ST-SR link fails about half the time
    for mode in sim.MODES:
        out[f"L1-ideal link-limited {mode} 40x300"] = (setup(1, True, rate=25.4), 40, 300, mode)
    return out


def encode(estimate):
    """The fields of one estimate in order; floats as ``float.hex``."""
    return {
        f.name: value.hex() if isinstance(value, float) else value
        for f in dataclasses.fields(estimate)
        for value in [getattr(estimate, f.name)]
    }


def estimates(case):
    cfg, placements, slots, mode = case
    return [encode(e) for e in sim.run_sweep(cfg, TAUS, placements, slots, SEED, mode)]


def main():
    data = {
        "numpy": np.__version__,
        "seed": SEED,
        "taus": [tau.hex() for tau in TAUS],
        "cases": {name: estimates(case) for name, case in cases().items()},
    }
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data['cases'])} cases to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
