"""Output identity of the ``ehcr`` commands between a base revision and this checkout.

    python bench/same_output.py [--base REV_OR_DIR]

The base is a directory holding ``src/ehcr``, or a git revision (default
HEAD) extracted into ``.bench_build/<commit>`` as ``ab.py`` extracts one;
the change is this checkout's working tree. Each command of `COMMANDS` runs
in a fresh interpreter on each side, with that side's ``src`` as
``PYTHONPATH``, and its stdout, stderr and exit code must be the same on
both, but for the ``duration_s`` of a JSON report, which is dropped. The
script prints one line per command and exits 1 if any command differs.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile

from ab import extract

SETUPS = (["--L", "1", "--ideal"], ["--L", "1", "--non-ideal"],
          ["--L", "16", "--ideal"], ["--L", "16", "--non-ideal"])
GRID = ["--tau-grid", "0.001:0.999:0.001"]
# a config file that closes the annulus on d = 5 m; `{point}` is its path
POINT = "d_min = 5\nd_max = 5\n"


def _commands():
    for setup in SETUPS:
        for where in ([], ["--config", "{point}"]):
            for fmt in ("csv", "json"):
                yield ["analyze", *setup, *where, *GRID, "--format", fmt]
    yield ["simulate", "--L", "16", "--non-ideal", "--tau-grid", "0.1:0.9:0.1",
           "--placements", "200", "--slots", "1000", "--seed", "7"]
    yield ["simulate", "--config", "{point}", "--tau-grid", "0.1:0.9:0.2",
           "--placements", "100", "--slots", "2000", "--seed", "3", "--format", "json"]
    for setup in SETUPS:
        yield ["validate", *setup]
    yield ["validate", "--config", "{point}"]
    yield ["range"]
    yield ["range", "--config", "{point}", "--tau", "0.3"]


COMMANDS = list(_commands())


def run(src, argv, cwd):
    """``(stdout, stderr, exit code)`` of ``ehcr argv`` on the package under ``src``."""
    result = subprocess.run([sys.executable, "-m", "ehcr.cli", *argv], cwd=cwd,
                            env={**os.environ, "PYTHONPATH": str(src)},
                            capture_output=True, text=True)
    out = result.stdout
    if "json" in argv and result.returncode == 0:
        report = json.loads(out)
        report.pop("duration_s", None)
        out = json.dumps(report, indent=2)
    return out, result.stderr, result.returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision or checkout directory")
    args = parser.parse_args(argv)
    base = pathlib.Path(args.base)
    base = base.resolve() if (base / "src" / "ehcr").is_dir() else extract(args.base)
    sides = {"base": base / "src", "change": pathlib.Path(__file__).resolve().parents[1] / "src"}
    differ = 0
    with tempfile.TemporaryDirectory() as tmp:
        point = pathlib.Path(tmp) / "point.cfg"
        point.write_text(POINT)
        for command in COMMANDS:
            command = [arg.format(point=point) for arg in command]
            results = {side: run(src, command, tmp) for side, src in sides.items()}
            fields = [name for name, a, b in zip(("stdout", "stderr", "exit code"),
                                                 results["base"], results["change"]) if a != b]
            differ += bool(fields)
            verdict = f"DIFFERS in {', '.join(fields)}" if fields else "same"
            print(f"{verdict:<30} ehcr {' '.join(command).replace(tmp, '$TMP')}")
    print(f"{differ} of {len(COMMANDS)} commands differ; base {base}")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
