"""Locating the package under test and running its CLI jobs in-process."""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"
REFERENCE_DIR = BENCH_DIR / "reference"

# One BLAS/OpenMP thread: the jobs are single-threaded and the machine is shared.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


class MissingSource(RuntimeError):
    """The checkout holds no `src/ehcr` package to benchmark."""


def pin_threads() -> None:
    """Set the thread variables in this process's environment (and its children's)."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def import_cli():
    """Import `ehcr.cli` from this checkout's `src/`, never from site-packages."""
    if not (SRC / "ehcr" / "__init__.py").is_file():
        raise MissingSource(f"no ehcr package under {SRC}")
    sys.path.insert(0, str(SRC))
    from ehcr import cli

    if Path(cli.__file__).resolve().parent != (SRC / "ehcr").resolve():
        raise MissingSource(f"imported ehcr from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, argv) -> tuple:
    """Run `ehcr <argv>` through `cli.main`; returns (exit code, seconds, stdout).

    Stdout is captured into memory, which stands in for the file or pipe a
    user would write to; the CSV is formatted inside the timed region.
    """
    out = io.StringIO()
    started = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
    except SystemExit as exc:  # argparse exits on arguments it rejects
        code = exc.code
    except Exception as exc:  # a job that crashes is a failed job, not a failed benchmark
        code = f"raised {type(exc).__name__}: {exc}"
    return code, time.perf_counter() - started, out.getvalue()


def parse_csv(text: str) -> list:
    """Rows of a CSV result as dicts of floats; `#` lines are skipped."""
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if not lines:
        return []
    columns = lines[0].split(",")
    rows = []
    for ln in lines[1:]:
        values = ln.split(",")
        if len(values) != len(columns):
            raise ValueError(f"row has {len(values)} fields, header has {len(columns)}")
        rows.append({c: float(v) for c, v in zip(columns, values)})
    return rows


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least 10 of n samples beyond it.

    Floored at 50: with fewer than 20 samples no percentile above the median
    has 10 samples beyond it, and the tail is reported as the median.
    """
    return max(50, min(99, math.floor(100.0 * (n - 10) / n))) if n > 0 else 50
