"""`bench/ab.py`'s refusal of a ``-k`` text that no bench case name contains."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]


def test_unmatched_pattern_is_usage_error():
    # ``-k`` is plain text, not a pytest expression, so this selects no case;
    # the script once printed only its header and exited 0. ``--base ROOT``
    # skips ``git archive``, and no timed process is started
    argv = [sys.executable, str(ROOT / "bench" / "ab.py"), "--base", str(ROOT),
            "-k", "evaluate or sweep", "--processes", "1", "--rounds", "1"]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == "error: no bench case name contains 'evaluate or sweep'\n"
