"""The closed forms: `ehcr analyze` reproduces its golden columns bit for bit, and writes them byte for byte."""

import json

from analytic_golden import PATH, SETUPS, TAUS, encode, report


def test_analyze_matches_golden_file():
    golden = json.loads(PATH.read_text())
    assert golden["taus"] == [tau.hex() for tau in TAUS]
    assert sorted(golden["setups"]) == sorted(SETUPS)
    for setup, expected in golden["setups"].items():
        got = report(setup)
        columns = encode(got.rows)
        assert list(columns) == list(expected)
        for name, values in expected.items():
            for tau, value, want in zip(TAUS, columns[name], values):
                assert value == want, (
                    f"{setup}, tau={tau!r}: {name} {value} != {want}"
                    f" (file written with scipy {golden['scipy']}; rewrite it with"
                    " `python tests/analytic_golden.py` only for a scipy upgrade)"
                )
        # the CSV writes each stored value with 17 digits after the point
        lines = [",".join(expected)] + [
            ",".join(format(float.fromhex(v), ".17e") for v in row)
            for row in zip(*expected.values())
        ]
        assert got.to_csv() == "\n".join(lines) + "\n"


def test_grid_empties_each_branch():
    # rows whose inside branch is empty (d_star <= d_min = 1 m) and rows whose
    # outside branch is empty (d_star >= d_max = 15 m), on every setup
    golden = json.loads(PATH.read_text())
    for columns in golden["setups"].values():
        d_star = [float.fromhex(v) for v in columns["d_star"]]
        phi1 = [float.fromhex(v) for v in columns["phi1"]]
        phi2 = [float.fromhex(v) for v in columns["phi2"]]
        assert any(d <= 1.0 and p == 0.0 for d, p in zip(d_star, phi1))
        assert any(d >= 15.0 and p == 0.0 for d, p in zip(d_star, phi2))
