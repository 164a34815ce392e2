"""Median change per case between two pytest-benchmark JSON files.

    python bench/delta.py BENCH_4.json BENCH_5.json

Cases are matched by name. Each line gives the old and new median, the
relative change and the old file's interquartile range, so a change smaller
than the run-to-run spread reads as such.
"""

import json
import sys


def load(path):
    with open(path) as f:
        return {b["name"]: b["stats"] for b in json.load(f)["benchmarks"]}


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    old, new = load(argv[1]), load(argv[2])
    for name in sorted(old.keys() | new.keys()):
        if name not in new or name not in old:
            print(f"{name:<28} only in {argv[1] if name in old else argv[2]}")
            continue
        a, b = old[name], new[name]
        print(
            f"{name:<28} {a['median'] * 1e3:9.2f} ms -> {b['median'] * 1e3:9.2f} ms"
            f"  {b['median'] / a['median'] - 1.0:+7.1%}"
            f"  (old IQR {a['iqr'] * 1e3:.2f} ms)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
