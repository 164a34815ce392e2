"""Every input to ``cli.main`` ends in exit 0 or exit 2: a fuzz of the input surface.

Each example writes a config file of drawn keys, then runs one command on it
with drawn options. The contract:

- exit 0, with every output value finite and valid JSON under ``--format
  json``, and nothing on stderr; ``d_star`` may be +inf, its exact value
  where the effective range lies beyond every distance, or 0.0, where it
  underflows; or
- exit 2, with one ``error:`` line on stderr and nothing on stdout; or,
  for ``validate`` only, exit 1 with its nine verdict lines, one of them a
  ``FAIL``: a suite's verdict on the config, such as ``j-magnitude`` at
  ``M_dbm = 0``, where the paper's neglected J(2) is 0.02.

An exception that escapes ``main``, a traceback, fails the example, and so
does a numpy warning (a ``RuntimeWarning`` is an error here). Keys are drawn
log-uniformly across the whole float range, or from edge values; ``m``,
``L``, the placements and the slots stay small, since sizes are a separate
question.
The examples are derandomised, so the suite sees the same inputs on every run.
"""

import json
import math
import warnings

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from ehcr import cli

EDGES = [0.0, -0.0, -1.0, 1.0, 5e-324, 1e-320, 1e-300, 1e300, 1.7976931348623157e308,
         -1e300, math.inf, -math.inf, math.nan]
FLOAT_KEYS = ["P_b_dbm", "M_dbm", "N0_dbm", "P_c_dbm", "eta", "tau", "T", "R", "alpha",
              "alpha_s", "d_min", "d_max", "d_stsr", "rho", "K", "K_s"]


@st.composite
def log_uniform(draw):
    exponent = draw(st.integers(-323, 307))
    mantissa = draw(st.floats(1.0, 10.0, exclude_max=True))
    return draw(st.sampled_from([1.0, -1.0])) * mantissa * 10.0**exponent


floats = st.one_of(st.sampled_from(EDGES), log_uniform(), st.floats(0.0, 1.0))
config_values = st.one_of(
    st.dictionaries(st.sampled_from(FLOAT_KEYS), floats, max_size=4),
    st.just({}),
).flatmap(lambda values: st.fixed_dictionaries({
    **{key: st.just(value) for key, value in values.items()},
    **{key: st.none() | st.integers(0, 6) for key in ("L", "m", "m_s")},
    "ideal": st.none() | st.booleans(),
}))


@st.composite
def tau_grids(draw):
    """An ``a:b:step`` grid of one to four points, or one of two drawn ends."""
    start, step = draw(floats), draw(floats)
    if draw(st.booleans()):
        return f"{start!r}:{start!r}:{step!r}"
    if draw(st.booleans()):
        return f"{start!r}:{draw(floats)!r}:{step!r}"  # mostly refused
    return f"{start!r}:{start + draw(st.integers(0, 3)) * step!r}:{step!r}"


def _config_text(values):
    return "".join(f"{key} = {value!r}\n" for key, value in values.items() if value is not None)


def _argv(draw, command):
    # each option as --name=value, so that argparse takes a negative value as one
    argv = [command]
    if draw(st.booleans()):
        argv.append(f"--L={draw(st.integers(-1, 6))}")
    argv += draw(st.sampled_from([[], ["--ideal"], ["--non-ideal"]]))
    if command != "range" and draw(st.booleans()):
        argv.append(f"--rate={draw(floats)!r}")
    if command in ("range", "validate") and draw(st.booleans()):
        argv.append(f"--tau={draw(floats)!r}")
    if command in ("analyze", "simulate"):
        if draw(st.booleans()):
            argv.append(f"--tau-grid={draw(tau_grids())}")
        argv.append(f"--format={draw(st.sampled_from(['csv', 'json']))}")
    if command == "simulate":
        argv += [f"--placements={draw(st.integers(-1, 6))}", f"--slots={draw(st.integers(-1, 40))}",
                 f"--seed={draw(st.integers(-1, 2**70))}"]
    return argv


def _check_contract(argv, capsys):
    capsys.readouterr()  # what an example that raised left behind
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(argv)
    out, err = capsys.readouterr()
    if code == 2:
        assert out == ""
        [line] = err.splitlines()
        assert line.startswith("error:")
        return
    assert err == ""
    if argv[0] == "validate":
        verdicts = out.splitlines()
        assert len(verdicts) == 9
        assert code == (1 if any(v.startswith("FAIL") for v in verdicts) else 0), out
        return
    assert code == 0, (code, out)
    if argv[0] == "range":
        assert float(out) >= 0.0
    elif "--format=json" in argv:
        rows = json.loads(out, parse_constant=pytest.fail)["rows"]
        assert all(math.isfinite(v) for row in rows for v in row.values())
    else:
        for row in cli.rows_from_csv(out):
            assert all(math.isfinite(v) for c, v in row.items() if c != "d_star"), row
            assert row["d_star"] >= 0.0


def _fuzz(max_examples, commands):
    @settings(max_examples=max_examples, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
    @given(values=config_values, data=st.data())
    def test(tmp_path, capsys, values, data):
        path = tmp_path / "fuzz.cfg"
        path.write_text(_config_text(values))
        command = data.draw(st.sampled_from(commands))
        argv = _argv(data.draw, command)
        _check_contract([*argv, "--config", str(path)], capsys)

    return test


test_fuzz_analyze_range_simulate = _fuzz(2000, ["analyze", "range", "simulate"])
# one validate job takes about 0.3 s
test_fuzz_validate = _fuzz(12, ["validate"])
