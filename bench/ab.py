"""Same-session A/B of the bench/ cases, both sides in one process, call by call.

    python bench/ab.py [--base REV_OR_DIR] [--processes N] [--rounds R] [-k TEXT]

The base is a directory holding ``src/ehcr``, or a git revision (default
HEAD) extracted with ``git archive`` into ``.bench_build/<commit>``; the
change is this checkout's working tree. Each of N fresh processes (default
5, run one after another) imports the change's package as ``ehcr`` and the
base's as ``ehcr_base``, and runs every case of ``bench/test_*.py`` whose
name contains TEXT; a TEXT that no case name contains exits 2 before any
process starts. A case is a test function that pytest-benchmark runs as
it is; here it is called once per side with the package as its ``ehcr``
fixture and a stand-in ``benchmark`` that keeps the job it is given (and
runs it once, so the case's checks still hold). The two jobs then run
alternately, R rounds (default 20), the order flipped each round; a short
job is repeated within a round until the faster side takes about 20 ms.

For each case the script prints the median of the per-round ratios
change/base over all rounds of all processes, their quartiles, the range of
the per-process medians, and the share of rounds the change won. Alternating
within one process cancels the drift of the machine's speed, which moves
per-process medians by 10-45 %. Both sides share one heap and one set of
imported libraries, so this measures time, not memory.
"""

import argparse
import contextlib
import importlib.util
import io
import json
import math
import pathlib
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
BUILD = ROOT / ".bench_build"
ROUND_TARGET_S = 0.02


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


def load_base(base):
    """The base checkout's package, imported under the name ``ehcr_base``."""
    package = base / "src" / "ehcr"
    spec = importlib.util.spec_from_file_location(
        "ehcr_base", package / "__init__.py", submodule_search_locations=[str(package)])
    module = importlib.util.module_from_spec(spec)
    sys.modules["ehcr_base"] = module
    spec.loader.exec_module(module)
    importlib.import_module("ehcr_base.cli")  # the command layer imports every module
    return module


class Recorder:
    """Stands in for pytest-benchmark's fixture: keeps the job and runs it once."""

    def __call__(self, fn, *args, **kwargs):
        return self.pedantic(fn, args, kwargs)

    def pedantic(self, fn, args=(), kwargs=None, setup=None, **_):
        def call():
            a, k = setup() if setup else (args, kwargs or {})
            started = time.perf_counter()
            fn(*a, **k)
            return time.perf_counter() - started

        self.call, self.fresh_setup = call, setup is not None
        a, k = setup() if setup else (args, kwargs or {})
        return fn(*a, **k)


class Capture(io.StringIO):
    """Stands in for ``capsys``: stdout is redirected here, and ``readouterr`` empties it."""

    def readouterr(self):
        out = self.getvalue()
        self.seek(0)
        self.truncate()
        return out, ""


class _Collector:
    def pytest_collection_modifyitems(self, items):
        self.items = items


def cases(pattern):
    """``(name, function, parameters)`` of each bench case, as pytest collects them."""
    import pytest

    collector = _Collector()
    with contextlib.redirect_stdout(io.StringIO()):
        pytest.main([str(ROOT / "bench"), "--collect-only", "-q", "-p", "no:cacheprovider"],
                    plugins=[collector])
    for item in collector.items:
        if pattern in item.name:
            params = item.callspec.params if hasattr(item, "callspec") else {}
            yield item.name, item.function, params


def job(function, params, package, capture, monkeypatch):
    """The case's job against ``package``, as the case hands it to ``benchmark``."""
    recorder = Recorder()
    fixtures = {"benchmark": recorder, "ehcr": package, "capsys": capture,
                "monkeypatch": monkeypatch, **params}
    names = function.__code__.co_varnames[:function.__code__.co_argcount]
    function(**{name: fixtures[name] for name in names})
    return recorder


def child(base, rounds, pattern, out):
    sys.path.insert(0, str(ROOT / "src"))
    import ehcr.cli  # noqa: F401  (this checkout's package)
    import pytest

    packages = {"base": load_base(base), "change": sys.modules["ehcr"]}
    results = {}
    capture = Capture()
    with contextlib.redirect_stdout(capture):
        for name, function, params in cases(pattern):
            patches = {side: pytest.MonkeyPatch() for side in packages}
            try:
                jobs = {side: job(function, params, package, capture, patches[side])
                        for side, package in packages.items()}
                warm = min(jobs[side].call() for side in jobs for _ in range(2))
                repeat = 1 if jobs["base"].fresh_setup else max(1, math.ceil(ROUND_TARGET_S / warm))
                ratios = []
                for r in range(rounds):
                    order = ("base", "change") if r % 2 == 0 else ("change", "base")
                    seconds = {side: sum(jobs[side].call() for _ in range(repeat)) for side in order}
                    ratios.append(seconds["change"] / seconds["base"])
                results[name] = ratios
            except Exception as exc:  # a case the base cannot run, for one
                results[name] = f"{type(exc).__name__}: {exc}"
            finally:
                for patch in patches.values():
                    patch.undo()
            capture.readouterr()
    out.write_text(json.dumps(results))


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git revision or checkout directory")
    parser.add_argument("--processes", type=int, default=5, help="fresh processes, one at a time")
    parser.add_argument("--rounds", type=int, default=20, help="alternating rounds per process")
    parser.add_argument("-k", dest="pattern", default="", help="run the cases whose name has this")
    parser.add_argument("--child", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.processes < 1 or args.rounds < 1:
        parser.error("--processes and --rounds must be at least 1")
    # one collection here, before the base is extracted or a timed process started
    if not args.child and next(cases(args.pattern), None) is None:
        print(f"error: no bench case name contains {args.pattern!r}", file=sys.stderr)
        return 2
    base = pathlib.Path(args.base)
    base = base.resolve() if (base / "src" / "ehcr").is_dir() else extract(args.base)
    if args.child:
        child(base, args.rounds, args.pattern, args.child)
        return 0
    runs = []
    with tempfile.TemporaryDirectory() as tmp:
        for i in range(args.processes):
            out = pathlib.Path(tmp) / f"{i}.json"
            subprocess.run([sys.executable, __file__, "--base", str(base), "--rounds",
                            str(args.rounds), "-k", args.pattern, "--child", str(out)],
                           cwd=ROOT, check=True)
            runs.append(json.loads(out.read_text()))
            print(f"process {i + 1}/{args.processes} done", file=sys.stderr)
    print(f"change/base per round, {args.processes} processes x {args.rounds} rounds; base {base}")
    for name in runs[0]:
        failed = [r[name] for r in runs if isinstance(r[name], str)]
        if failed:
            print(f"{name:<40} not run: {failed[0]}")
            continue
        pooled = [x for r in runs for x in r[name]]
        medians = [statistics.median(r[name]) for r in runs]
        q1, q3 = quartiles(pooled)
        won = sum(x < 1.0 for x in pooled)
        print(f"{name:<40} {statistics.median(pooled):6.3f} [{q1:.3f}, {q3:.3f}]"
              f"  process medians {min(medians):.3f}-{max(medians):.3f}"
              f"  change won {won}/{len(pooled)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
