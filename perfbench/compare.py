"""Summarise one result set, or compare two, against BENCHMARK.json's bounds.

    python3 perfbench/compare.py RESULTS_DIR            # one set: medians, quartiles, spread
    python3 perfbench/compare.py PARENT_DIR CHANGE_DIR  # two sets: verdict per metric

A result set is a directory of the per-run JSON files run.py writes. For each
workload and end-to-end metric it prints the median and quartiles
(statistics.quantiles, n=4) of each set and the spread, (q3 - q1) / median.

With one set a metric is flagged `SPREAD` when its spread exceeds its bound
(setup_s excepted: set-up time is checked by its median only). With two sets a metric is
`WORSE` when the change's median is worse than the parent's by more than the
bound, `unresolved` when either set spreads wider than the bound and not
every change run beats every parent run, and `ok` otherwise. Per-layer
(traced) metrics are printed side by side without a verdict. Exit code 1
when any metric is WORSE or SPREAD, or any run failed.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load_set(directory: Path) -> dict:
    """{(workload, trace): [record, ...]} from the run files in `directory`."""
    runs = {}
    for path in sorted(directory.glob("*.json")):
        if path.name.endswith("-spans.json"):
            continue
        record = json.loads(path.read_text())
        runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else float("inf")


def values_of(records, metric):
    return [r["result"]["metrics"][metric]["value"] for r in records
            if metric in r["result"]["metrics"]]


def describe(values, unit) -> str:
    q1, med, q3 = quartiles(values)
    return f"{med:11.5g} [{q1:.5g}, {q3:.5g}] {unit:6s} n={len(values):2d} spread {spread(values):6.1%}"


def worse_by(parent, change, better) -> float:
    """Relative worsening of the change's median over the parent's."""
    p, c = statistics.median(parent), statistics.median(change)
    return (c - p) / p if better == "lower" else (p - c) / p


def all_better(parent, change, better) -> bool:
    if better == "lower":
        return max(change) < min(parent)
    return min(change) > max(parent)


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    sets = [load_set(Path(a)) for a in argv]
    status = 0
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, metrics in ((0, spec["end_to_end"]), (1, None)):
            groups = [s.get((name, trace), []) for s in sets]
            if not any(groups):
                continue
            print(f"== {name} (trace {trace}) runs: {', '.join(str(len(g)) for g in groups)}")
            for g, label in zip(groups, ("parent", "change") if len(sets) == 2 else ("set",)):
                failed = sum(r["result"]["failed"] for r in g)
                incorrect = sum(not r["result"]["correct"] for r in g)
                print(f"   {label}: failed jobs {failed}, incorrect runs {incorrect}")
                status |= 1 if failed or incorrect else 0
            if metrics is None:
                names = sorted({m for g in groups for r in g for m in r["result"]["metrics"]})
                metrics = [{"name": m, "unit": None, "better": None, "bound": None} for m in names]
            for m in metrics:
                series = [values_of(g, m["name"]) for g in groups]
                if not all(series):
                    print(f"   {m['name']:28s} missing in a set")
                    continue
                unit = m["unit"] or groups[0][0]["result"]["metrics"][m["name"]]["unit"]
                line = "   " + f"{m['name']:28s}" + "  |  ".join(describe(v, unit) for v in series)
                verdict = ""
                if m["bound"] is not None and len(series) == 1:
                    if m["name"] != "setup_s" and spread(series[0]) > m["bound"]:
                        verdict = f"SPREAD > bound {m['bound']}"
                        status = 1
                    else:
                        verdict = f"ok (bound {m['bound']}, a third is {m['bound'] / 3:.3f})"
                elif m["bound"] is not None:
                    parent, change = series
                    delta = worse_by(parent, change, m["better"])
                    if delta > m["bound"]:
                        verdict = f"WORSE by {delta:.1%} (bound {m['bound']:.0%})"
                        status = 1
                    elif max(spread(parent), spread(change)) > m["bound"] and not all_better(
                        parent, change, m["better"]
                    ):
                        verdict = f"unresolved: spread wider than bound {m['bound']:.0%}"
                    else:
                        verdict = f"ok ({'worse' if delta > 0 else 'better'} by {abs(delta):.1%})"
                print(line + ("   " + verdict if verdict else ""))
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
