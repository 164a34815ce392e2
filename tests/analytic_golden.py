"""Golden closed-form columns: the cases, and a writer for their data file.

    PYTHONPATH=src python tests/analytic_golden.py

writes ``tests/data/analytic_golden.json``: every column of ``ehcr analyze``
on the four paper setups (L = 1 and 16, ideal and non-ideal hardware),
floats as ``float.hex``, with the scipy version that computed them. The tau
grid reaches past both ends of the effective range, so it holds rows whose
inside branch is empty (d_star <= d_min) and rows whose outside branch is
empty (d_star >= d_max). scipy does not promise the last bits of its
incomplete gamma across versions, so a scipy upgrade may need the file
written again; that is a test-data change.
"""

import json
import pathlib
import sys

import scipy

from ehcr import cli

PATH = pathlib.Path(__file__).resolve().parent / "data" / "analytic_golden.json"
SETUPS = {
    "L1-ideal": (1, True),
    "L1-nonideal": (1, False),
    "L16-ideal": (16, True),
    "L16-nonideal": (16, False),
}
TAUS = [1e-300, 1e-6] + [0.005 + 0.01 * i for i in range(100)] + [0.9999, 1.0 - 1e-12]


def config(antennas, ideal):
    return cli.build_config({**cli.CONFIG_DEFAULTS, "L": antennas, "ideal": ideal})


def report(setup):
    return cli.cmd_analyze(config(*SETUPS[setup]), TAUS)


def encode(rows):
    """Column name -> the column's values as ``float.hex``, in CSV order."""
    return {name: [row[name].hex() for row in rows] for name in rows[0]}


def main():
    data = {
        "scipy": scipy.__version__,
        "taus": [tau.hex() for tau in TAUS],
        "setups": {setup: encode(report(setup).rows) for setup in SETUPS},
    }
    PATH.parent.mkdir(exist_ok=True)
    PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {len(data['setups'])} setups to {PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
