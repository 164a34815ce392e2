"""ehcr benchmark: times `ehcr` CLI jobs in-process and checks every output.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a checkout holding `src/ehcr`. The last line of stdout
is one JSON object: correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they
are the per-layer ones, from a separate run with the package's functions
wrapped. `--workload all` runs every workload in its own process and prints
every end-to-end metric with failed_frac. Details and provenance go to
perfbench/results/. Exit code 0 when every output check passes, 1 when one
fails, 2 when the checkout has no package to benchmark.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time

import harness
import speed
import workloads
from harness import percentile, tail_percentile

SETUP_WARMUPS = 1
SETUP_SAMPLES = 3
QUAD_SAMPLES = 8
TRACED_ROUNDS = 2
UNTRACED_ROUNDS = 1

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_p50_s": "s",
    "job_tail_s": "s",
    "work_per_s": "1/s",
    "peak_rss_mb": "MB",
}

SETUP_CODE = """
import sys
sys.path.insert(0, {bench!r})
import speed
with speed.Sampler() as sampler:
    sys.path.insert(0, {src!r})
    import ehcr.cli
    from ehcr.analysis import SystemConfig
    from ehcr.fading import FadingParams
    configs = [SystemConfig(ideal=ideal, fading_pb_st=FadingParams(7.0, n, 20)) for n, ideal in {setups!r}]
sys.stdout.write(f"ready {{sampler.factor()}} {{len(sampler.samples)}}\\n")
sys.stdout.flush()
"""


def measure_setup(setups) -> tuple:
    """Seconds from spawning a fresh interpreter until it has imported
    `ehcr.cli` and built the workload's configs, one sample per spawn, and
    the speed factor sampled in each child while it imported."""
    code = SETUP_CODE.format(bench=str(harness.BENCH_DIR), src=str(harness.SRC),
                             setups=[workloads.SETUPS[s] for s in setups])
    samples, factors, counts = [], [], []
    for i in range(SETUP_WARMUPS + SETUP_SAMPLES):
        started = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-c", code], cwd=harness.ROOT,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - started
            _, err = child.communicate(timeout=120)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
        words = line.split()
        if not words or words[0] != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up interpreter failed (exit {child.returncode}): {err.strip()}")
        if i >= SETUP_WARMUPS:
            samples.append(elapsed)
            factors.append(None if words[1] == "None" else float(words[1]))
            counts.append(int(words[2]))
    return samples, speed.job_factors(counts, factors)


class Bench:
    """Runs a workload's jobs, checks each output and keeps the timings."""

    def __init__(self, cli, workload, seed):
        import oracle  # numpy/scipy: only after pin_threads() has set the thread variables

        self.cli = cli
        self.oracle = oracle
        self.workload = workload
        self.seed = seed
        self.jobs = workload.round_jobs(seed)
        self.records = []  # one dict per job run
        self.problems = []  # problems not tied to one job
        self.quad_pool = {}  # (setup, tau) -> row: candidates for the quadrature check
        self.mc_reference = None
        if any(j.kind == "simulate" for j in self.jobs):
            self.mc_reference = oracle.load_reference("mc")[workload.name]

    def self_checks(self):
        self.problems += self.oracle.oracle_anchor_problems()
        if self.mc_reference is not None:
            self.problems += self.oracle.renewal_rejection_problems(self.mc_reference)

    def run_round(self, phase, tracer=None, sample_speed=False, jobs=None) -> float:
        """Run each job once; returns the wall seconds the jobs took."""
        total = 0.0
        for k, job in enumerate(self.jobs if jobs is None else jobs):
            factor, n_samples = None, 0
            if tracer is not None:
                tracer.job = f"{phase}:{job.setup}:{k}"
            if sample_speed:
                with speed.Sampler() as sampler:
                    code, seconds, out = harness.run_job(self.cli, job.argv)
                factor, n_samples = sampler.factor(), len(sampler.samples)
            else:
                code, seconds, out = harness.run_job(self.cli, job.argv)
            problems, work = self.check(job, code, out)
            self.records.append({
                "phase": phase, "setup": job.setup, "seconds": seconds,
                "speed_factor": factor, "speed_samples": n_samples,
                "work": work, "exit_code": code,
                "problems": problems[:5],
            })
            total += seconds
        return total

    def check(self, job, code, out):
        """Problems with one job's output, and the work it reports."""
        if code != 0:
            return [f"exit code {code}"], 0
        if job.kind == "validate":
            verdicts = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL"))]
            return [], len(verdicts)
        try:
            rows = harness.parse_csv(out)
        except ValueError as exc:
            return [f"unreadable CSV: {exc}"], 0
        expected = set(self.oracle.ANALYTIC_COLUMNS)
        if job.kind == "simulate":
            expected |= set(self.oracle.MC_COLUMNS + self.oracle.CI_COLUMNS)
        if len(rows) != job.n_rows or (rows and not expected <= rows[0].keys()):
            return [f"{len(rows)} rows with columns {sorted(rows[0]) if rows else []}"], 0
        problems = self.oracle.analytic_problems(job.setup, rows)
        if job.kind == "simulate":
            problems += self.oracle.mc_problems(job.setup, rows, self.mc_reference)
        if len(self.quad_pool) < 20_000:
            for row in rows:
                self.quad_pool.setdefault((job.setup, row["tau"]), row)
        work = job.reported_slots if job.kind == "simulate" else len(rows)
        return problems, work

    def quadrature_check(self):
        """phi1/phi2 of sampled rows against the package's quadrature oracle."""
        from ehcr import analysis
        from ehcr.fading import FadingParams

        rng = random.Random(self.seed)
        keys = sorted(self.quad_pool)
        checked = []
        for setup, tau in rng.sample(keys, min(QUAD_SAMPLES, len(keys))):
            row = self.quad_pool[(setup, tau)]
            n_antennas, ideal = workloads.SETUPS[setup]
            cfg = analysis.SystemConfig(
                tau=tau, ideal=ideal, fading_pb_st=FadingParams(7.0, n_antennas, 20)
            )
            for col, oracle_fn in (("phi1", analysis.phi1_quadrature),
                                   ("phi2", analysis.phi2_quadrature)):
                want = oracle_fn(cfg)
                if abs(row[col] - want) > self.oracle.QUAD_REL * max(abs(want), 1e-12):
                    self.problems.append(
                        f"{setup} tau={tau!r} {col}: {row[col]!r} vs quadrature {want!r}"
                    )
            checked.append([setup, tau])
        return checked


def end_to_end(bench, setup):
    """End-to-end metrics from the timed jobs; times at the reference speed."""
    timed = [r for r in bench.records if r["phase"] == "timed"]
    wall = [r["seconds"] for r in timed]
    factors = speed.job_factors([r["speed_samples"] for r in timed],
                                [r["speed_factor"] for r in timed])
    times = [w / f for w, f in zip(wall, factors)]
    setup_wall, setup_factors = setup
    q = tail_percentile(len(times))
    metrics = {
        "setup_s": statistics.median(w / f for w, f in zip(setup_wall, setup_factors)),
        "job_p50_s": statistics.median(times),
        "job_tail_s": percentile(times, q),
        "work_per_s": sum(r["work"] for r in timed) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    detail = {"jobs_timed": len(times), "tail_percentile": q,
              "tail_samples_beyond": len(times) * (100 - q) / 100.0,
              "wall": {"setup_s": statistics.median(setup_wall),
                       "job_p50_s": statistics.median(wall),
                       "job_tail_s": percentile(wall, q),
                       "work_per_s": sum(r["work"] for r in timed) / sum(wall)},
              "speed_factor_median": statistics.median(factors),
              "setup_samples_s": setup_wall, "setup_speed_factors": setup_factors,
              "work_unit": bench.workload.work_unit}
    return metrics, detail


def traced_metrics(bench):
    """Per-layer metrics from TRACED_ROUNDS traced rounds, plus overhead."""
    import spans

    modules = {layer: importlib.import_module(f"ehcr.{layer}") for layer in spans.LAYERS}
    untraced = [bench.run_round("untraced") for _ in range(UNTRACED_ROUNDS)]
    rounds, traced = [], []
    reported = sum(j.reported_slots for j in bench.jobs) or None
    for i in range(TRACED_ROUNDS):
        with spans.Tracer(modules) as tracer:
            traced.append(bench.run_round(f"traced{i}", tracer))
        rounds.append(tracer.metrics(reported))
        if i == 0:
            first = tracer
    for name in spans.EXACT_COUNTS:
        values = [r[name] for r in rounds]
        if len(set(values)) != 1:
            bench.problems.append(f"exact count {name} differs between traced rounds: {values}")
    metrics = {}
    for name, _ in spans.METRICS:
        values = [r[name] for r in rounds]
        if None in values:
            continue  # the functions behind it no longer exist
        metrics[name] = statistics.fmean(values) if spans.UNITS[name] != "count" else values[0]
    metrics["trace_overhead_frac"] = statistics.fmean(traced) / statistics.fmean(untraced)
    units = {**spans.UNITS, "trace_overhead_frac": "ratio"}
    absent = [name for name, _ in spans.METRICS if name not in metrics]
    detail = {"round_seconds_untraced": untraced, "round_seconds_traced": traced,
              "absent_metrics": absent, "profile_first_round": first.profile(),
              "spans_kept": len(first.spans),
              "spans_dropped": first.dropped}
    return metrics, units, detail, first


def run_workload(args) -> int:
    workload = workloads.WORKLOADS[args.workload]
    started = time.time()
    try:
        cli = harness.import_cli()
    except harness.MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from provenance import provenance

    if not args.trace:
        setup = measure_setup([j.setup for j in workload.round_jobs(args.seed)])

    bench = Bench(cli, workload, args.seed)
    bench.self_checks()
    bench.run_round("warmup", jobs=bench.jobs[:1])  # imports and lazy set-up, untimed
    tracer = None
    if args.trace:
        metrics, units, detail, tracer = traced_metrics(bench)
    else:
        elapsed = 0.0
        while elapsed < args.seconds:
            elapsed += bench.run_round("timed", sample_speed=True)
        metrics, detail = end_to_end(bench, setup)
        units = END_TO_END_UNITS
    detail["quadrature_checked"] = bench.quadrature_check()

    failed = sum(1 for r in bench.records if r["problems"])
    attempted = len(bench.records)
    correct = failed == 0 and not bench.problems
    stem = (f"{workload.name}-seed{args.seed}-trace{args.trace}"
            f"-{time.strftime('%Y%m%dT%H%M%S')}-{os.getpid()}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance(),
        "sizes": workload.sizes(args.seed),
        "wall_s": time.time() - started,
        "failed_frac": failed / attempted,
        "problems": bench.problems[:20],
        "jobs": bench.records,
        **detail,
        "result": result,
    }
    out_dir = args.results_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        tracer.write_spans(out_dir / f"{stem}-spans.json")

    for name, value in metrics.items():
        note = f"  ({workload.rate_name}: {workload.work_unit} per s)" if name == "work_per_s" else ""
        print(f"{workload.name:14s} {name:32s} {value:14.6g} {units[name]}{note}")
    print(f"{workload.name:14s} {'failed_frac':32s} {failed / attempted:14.6g} fraction"
          f"  ({failed} of {attempted} jobs)")
    if "tail_percentile" in detail:
        print(f"{workload.name:14s} job_tail_s is p{detail['tail_percentile']}"
              f" of {detail['jobs_timed']} timed jobs")
    for problem in bench.problems[:10] + [p for r in bench.records for p in r["problems"]][:10]:
        print(f"{workload.name:14s} PROBLEM {problem}")
    print(json.dumps({"provenance": record["provenance"], "sizes": record["sizes"]}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--results-dir", str(args.results_dir)]
        done = subprocess.run(argv, cwd=harness.ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(ln + "\n" for ln in lines[:-2]))
        sys.stderr.write(done.stderr)
        status = max(status, done.returncode)
        if done.returncode not in (0, 1) or not lines:
            combined["correct"] = False
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--results-dir", type=harness.Path, default=harness.RESULTS_DIR)
    args = parser.parse_args(argv)
    harness.pin_threads()
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
