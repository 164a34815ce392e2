"""Workload definitions: which `ehcr` CLI jobs one round of a workload runs.

A round is one job per setup of the workload. Runs repeat whole rounds, so
every setup contributes the same number of job times to the medians.
"""

from __future__ import annotations

from dataclasses import dataclass

# The four paper setups: beacon antenna count L x ideal/non-ideal hardware.
SETUPS = {
    "L1-ideal": (1, True),
    "L1-nonideal": (1, False),
    "L16-ideal": (16, True),
    "L16-nonideal": (16, False),
}

ANALYTIC_STEP = 0.001
ANALYTIC_POINTS = 999
SWEEP_GRID = "0.1:0.9:0.1"
SWEEP_TAUS = 9
SWEEP_PLACEMENTS = 500
SWEEP_SLOTS = 1000
LONG_GRID = "0.5:0.5:0.1"
LONG_PLACEMENTS = 200
LONG_SLOTS = 25_000
LONG_SETUP = "L1-ideal"
VALIDATE_SETUPS = ("L1-ideal", "L16-nonideal")


def setup_flags(setup: str) -> list:
    n_antennas, ideal = SETUPS[setup]
    return ["--L", str(n_antennas), "--ideal" if ideal else "--non-ideal"]


@dataclass(frozen=True)
class Job:
    """One `ehcr` invocation and what its output must contain."""

    setup: str
    argv: tuple
    kind: str  # "analyze", "simulate" or "validate"
    n_rows: int = 0  # analytic rows expected in the CSV
    placements: int = 0
    slots: int = 0

    @property
    def reported_slots(self) -> int:
        """Placement-slots the job reports on: taus x placements x slots."""
        return self.n_rows * self.placements * self.slots if self.kind == "simulate" else 0


def analytic_grid_spec(seed: int) -> str:
    """Dense tau grid whose offset is derived from the seed.

    The grid has ANALYTIC_POINTS points spaced ANALYTIC_STEP apart, starting in
    [0.0005, 0.0015); the seed moves the start so that different seeds
    evaluate different taus.
    """
    start = 0.0005 + (seed % 1000) * 1e-6
    stop = start + (ANALYTIC_POINTS - 1) * ANALYTIC_STEP
    return f"{start!r}:{stop!r}:{ANALYTIC_STEP!r}"


def _simulate(setup, grid, n_taus, placements, slots, seed) -> Job:
    argv = ["simulate", "--tau-grid", grid, "--placements", str(placements),
            "--slots", str(slots), "--seed", str(seed), *setup_flags(setup)]
    return Job(setup, tuple(argv), "simulate", n_taus, placements, slots)


def analytic_grid(seed: int) -> list:
    grid = analytic_grid_spec(seed)
    return [
        Job(s, ("analyze", "--tau-grid", grid, *setup_flags(s)), "analyze", ANALYTIC_POINTS)
        for s in SETUPS
    ]


def mc_sweep(seed: int) -> list:
    return [
        _simulate(s, SWEEP_GRID, SWEEP_TAUS, SWEEP_PLACEMENTS, SWEEP_SLOTS, seed)
        for s in SETUPS
    ]


def mc_long(seed: int) -> list:
    return [_simulate(LONG_SETUP, LONG_GRID, 1, LONG_PLACEMENTS, LONG_SLOTS, seed)]


def validate(seed: int) -> list:
    # The suites use their own fixed seeds; the benchmark seed does not reach them.
    return [Job(s, ("validate", *setup_flags(s)), "validate") for s in VALIDATE_SETUPS]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    work_unit: str
    rate_name: str  # what work_per_s is on this workload
    round_jobs: object  # seed -> list of Job

    def sizes(self, seed: int) -> dict:
        jobs = self.round_jobs(seed)
        return {
            "jobs_per_round": len(jobs),
            "setups": [j.setup for j in jobs],
            "argv": [list(j.argv) for j in jobs],
            "work_unit": self.work_unit,
            "rate_name": self.rate_name,
        }


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "analytic-grid",
            "ehcr analyze on 999 seed-offset taus for the four paper setups: "
            "closed forms only (numerics, analysis, fading.survival), no simulation",
            "analytic rows",
            "points_per_s",
            analytic_grid,
        ),
        Workload(
            "mc-sweep",
            "ehcr simulate, 9 taus x 500 placements x 1000 slots, four setups: "
            "gain streams redrawn per tau dominate",
            "placement-slots",
            "slot_steps_per_s",
            mc_sweep,
        ),
        Workload(
            "mc-long",
            "ehcr simulate, one tau x 200 placements x 25000 slots: "
            "nothing to share across taus; pre-drawn gain arrays and slot loop dominate",
            "placement-slots",
            "slot_steps_per_s",
            mc_long,
        ),
        Workload(
            "validate",
            "ehcr validate on two setups: the only path through the quadrature "
            "oracle, fading.pdf and the KS sampler check",
            "suite verdicts",
            "verdicts_per_s",
            validate,
        ),
    )
}
