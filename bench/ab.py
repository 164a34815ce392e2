"""Same-session A/B of the bench/ cases: a base revision against this checkout.

    python bench/ab.py [--base REV] [--pairs N]

The base revision (default HEAD) is extracted with ``git archive`` into
``.bench_build/<commit>``; the change is this checkout's working tree. Each
side runs ``python -m pytest bench --benchmark-json=...`` on its own source
and bench files, N times (default 10), alternating which side goes first.
The JSON files go to ``.bench_build/ab/``. For each case the script prints
each side's median of its per-run medians, the relative change, the
interquartile range of the base's per-run medians, and the share of pairs
the change won (lower median; ties count for neither side).
"""

import argparse
import os
import pathlib
import statistics
import subprocess
import sys
import tarfile

from delta import load

ROOT = pathlib.Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"


def extract(rev):
    """The checkout of ``rev`` under ``.bench_build``, made once per commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    target = BUILD / commit
    if not target.exists():
        partial = BUILD / f"{commit}.partial"
        partial.mkdir(parents=True, exist_ok=True)
        archive = subprocess.Popen(["git", "archive", commit], cwd=ROOT, stdout=subprocess.PIPE)
        with tarfile.open(fileobj=archive.stdout, mode="r|") as tar:
            tar.extractall(partial, filter="data")
        if archive.wait():
            raise SystemExit(f"git archive {commit} failed")
        partial.rename(target)
    return target


def run(checkout, out):
    """One pytest-benchmark run of ``checkout``'s bench/ on its own ``src``."""
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    argv = [sys.executable, "-m", "pytest", "bench", "-q", "-p", "no:cacheprovider",
            f"--benchmark-json={out}"]
    done = subprocess.run(argv, cwd=checkout, env=env, capture_output=True, text=True)
    if done.returncode:
        raise SystemExit(f"bench run in {checkout} failed:\n{done.stdout}{done.stderr}")
    return {name: stats["median"] for name, stats in load(out).items()}


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision to compare against")
    parser.add_argument("--pairs", type=int, default=10, help="runs per side")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    sides = {"base": extract(args.base), "change": ROOT}
    results = {"base": [], "change": []}
    (BUILD / "ab").mkdir(parents=True, exist_ok=True)
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            out = BUILD / "ab" / f"{side}-{i}.json"
            results[side].append(run(sides[side], out))
            print(f"pair {i + 1}/{args.pairs}: {side} done", file=sys.stderr)
    names = sorted(set().union(*results["base"], *results["change"]))
    for name in names:
        base = [r[name] for r in results["base"] if name in r]
        change = [r[name] for r in results["change"] if name in r]
        if len(base) < args.pairs or len(change) < args.pairs:
            print(f"{name:<28} only in {'base' if base else 'change'}")
            continue
        a, b = statistics.median(base), statistics.median(change)
        won = sum(c < p for p, c in zip(base, change))
        print(f"{name:<28} {a * 1e3:9.3f} ms -> {b * 1e3:9.3f} ms  {b / a - 1.0:+7.1%}"
              f"  (base IQR {iqr(base) * 1e3:.3f} ms, change won {won}/{args.pairs})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
