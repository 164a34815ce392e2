"""Regenerate the frozen reference outputs in perfbench/reference/.

    python3 perfbench/make_reference.py [--seeds 40]

Writes `analytic.json` (analytic rows at 40 anchor taus for the four setups)
and `mc.json` (per MC workload, setup and tau: mean and standard deviation of
each MC column over `--seeds` seeds at the workload's budget, plus the
slot-renewal estimate at one seed for the rejection self-check). Run it only
on the commit whose outputs the benchmark should hold later commits to; it
takes several minutes.
"""

from __future__ import annotations

import argparse
import json
import statistics

import harness
import workloads
from provenance import provenance

ANCHOR_GRID = "0.0125:0.9875:0.025"
REF_SEED0 = 900_001
RENEWAL_SEED = 17


def analytic_reference(cli) -> dict:
    rows = {}
    for setup in workloads.SETUPS:
        code, _, out = harness.run_job(
            cli, ["analyze", "--tau-grid", ANCHOR_GRID, *workloads.setup_flags(setup)]
        )
        if code != 0:
            raise SystemExit(f"analyze failed for {setup}")
        rows[setup] = harness.parse_csv(out)
    return {"grid": ANCHOR_GRID, "rows": rows}


def mc_reference(cli, workload, n_seeds: int) -> dict:
    from ehcr import sim

    samples = {}  # (setup, tau index) -> list of rows
    for seed in range(REF_SEED0, REF_SEED0 + n_seeds):
        for job in workload.round_jobs(seed):
            code, _, out = harness.run_job(cli, job.argv)
            if code != 0:
                raise SystemExit(f"simulate failed: {job.argv}")
            for i, row in enumerate(harness.parse_csv(out)):
                samples.setdefault((job.setup, i), []).append(row)
    jobs = workload.round_jobs(RENEWAL_SEED)
    setups = {}
    for job in jobs:
        n_antennas, ideal = workloads.SETUPS[job.setup]
        cfg = cli.build_config({**cli.CONFIG_DEFAULTS, "L": n_antennas, "ideal": ideal})
        points = []
        for i in range(job.n_rows):
            rows = samples[(job.setup, i)]
            tau = rows[0]["tau"]
            point = {"tau": tau}
            for col in ("p_tr_mc", "p_out_mc", "thr_mc"):
                values = [r[col] for r in rows]
                point[col] = {
                    "mean": statistics.fmean(values),
                    "sd": statistics.stdev(values),
                    "n": len(values),
                }
            est = sim.run(cfg.with_tau(tau), job.placements, job.slots, RENEWAL_SEED,
                          mode="slot-renewal")
            point["renewal"] = {
                "p_tr_mc": est.p_tr_hat,
                "p_out_mc": est.p_out_hat,
                "thr_mc": est.throughput_hat,
            }
            points.append(point)
        setups[job.setup] = points
    return {
        "budget": {"placements": jobs[0].placements, "slots": jobs[0].slots},
        "seeds": [REF_SEED0, REF_SEED0 + n_seeds - 1],
        "renewal_seed": RENEWAL_SEED,
        "setups": setups,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=40)
    args = parser.parse_args()
    harness.pin_threads()
    cli = harness.import_cli()
    harness.REFERENCE_DIR.mkdir(exist_ok=True)
    prov = provenance()
    analytic = {"provenance": prov, **analytic_reference(cli)}
    (harness.REFERENCE_DIR / "analytic.json").write_text(json.dumps(analytic, indent=1))
    mc = {"provenance": prov}
    for name in ("mc-sweep", "mc-long"):
        mc[name] = mc_reference(cli, workloads.WORKLOADS[name], args.seeds)
    (harness.REFERENCE_DIR / "mc.json").write_text(json.dumps(mc, indent=1))


if __name__ == "__main__":
    main()
