"""The frozen Monte Carlo stream: `sim.run_sweep` reproduces its golden estimates bit for bit."""

import json

from mc_golden import PATH, SEED, TAUS, cases, estimates


def test_run_sweep_matches_golden_file():
    golden = json.loads(PATH.read_text())
    assert golden["seed"] == SEED and golden["taus"] == [tau.hex() for tau in TAUS]
    expected_cases = golden["cases"]
    assert sorted(expected_cases) == sorted(cases())
    for name, case in cases().items():
        for tau, got, expected in zip(TAUS, estimates(case), expected_cases[name]):
            for field, value in expected.items():
                assert got[field] == value, (
                    f"{name}, tau={tau:.1f}: first differing field {field}: {got[field]} != {value}"
                    f" (file written with numpy {golden['numpy']}; rewrite it with"
                    " `python tests/mc_golden.py` only for a numpy upgrade)"
                )
