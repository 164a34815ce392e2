"""Output checks: an independent closed-form reference and the MC tolerance.

The closed forms are re-derived here with `scipy.special` and vectorised over
tau, so the check does not call the code it checks. `reference/analytic.json`
holds rows written by the package at the commit that defined the benchmark;
each run first checks this module against those rows, so agreement with the
oracle is agreement with that commit.
"""

from __future__ import annotations

import json
import math

import numpy as np
from scipy import special

from harness import REFERENCE_DIR
from workloads import SETUPS

ANALYTIC_COLUMNS = ("tau", "d_star", "phi1", "phi2", "p_tr", "f_snr", "p_out", "throughput")
MC_COLUMNS = ("p_tr_mc", "p_out_mc", "thr_mc")
CI_COLUMNS = ("ci99_ptr", "ci99_pout")

# |x - ref| <= ANALYTIC_REL * |ref| + ANALYTIC_ABS. The absolute term covers
# probabilities formed as 1 - x from sums of ~20 terms near 1: e.g. p_out
# = p_tr * f_snr + (1 - p_tr) is ~4e-10 at p_tr ~ 1 and inherits p_tr's
# rounding of a few 1e-16, which is ~1e-6 relative to p_out.
ANALYTIC_REL = 1e-9
ANALYTIC_ABS = 1e-14
# phi1/phi2 against analysis.phi*_quadrature, as the package's own suite does.
QUAD_REL = 1e-7
# MC estimate vs the reference mean: MC_Z standard deviations of the
# estimator at the job's budget (measured over reference seeds), plus the
# uncertainty of the reference mean itself.
MC_Z = 5.0


def _dbm(p_dbm: float) -> float:
    return 10.0 ** ((p_dbm - 30.0) / 10.0)


# The CLI defaults (ehcr.cli.CONFIG_DEFAULTS) in SI units.
P_BEACON = _dbm(33.0)
P_ST = _dbm(20.0)
NOISE = _dbm(-101.0)
P_CIRCUIT = _dbm(-30.0)
ETA, RATE, RHO = 0.85, 1.0, 1.2
ALPHA, ALPHA_S = 2.4, 3.0
D_MIN, D_MAX, D_ST_SR = 1.0, 15.0, 30.0
RICIAN_K, SHAPE_M = 7.0, 20


class Mixture:
    """Unit-mean gamma mixture with integer shapes m - j and common scale."""

    def __init__(self, rician_k: float, mu: int, m: int):
        n_mix = m - mu
        p = m / (mu * rician_k + m)
        q = mu * rician_k / (mu * rician_k + m)
        self.m = m
        self.omega = (mu * rician_k + m) / (m * mu * (1.0 + rician_k))
        weights = np.array([math.comb(n_mix, j) * p**j * q ** (n_mix - j) for j in range(n_mix + 1)])
        shapes = np.arange(m, m - n_mix - 1, -1, dtype=float)
        # P(G > x) = sum_r tail[r] (x/omega)^r e^(-x/omega) / r!
        self.tail = np.array([weights[shapes > r].sum() for r in range(m)])
        self.log_moment = float(weights @ (special.digamma(shapes) + math.log(self.omega)))

    def survival(self, x: float) -> float:
        t = x / self.omega
        r = np.arange(self.m)
        sf = float(self.tail @ np.exp(r * math.log(t) - t - special.gammaln(r + 1.0)))
        return min(1.0, max(0.0, sf))


def _gamma_p_diff(s, a, b):
    # P(s, b) - P(s, a) for a <= b, using the tail that avoids cancellation.
    pb = special.gammainc(s, b)
    qa = special.gammaincc(s, a)
    lower = pb - special.gammainc(s, a)
    upper = qa - special.gammaincc(s, b)
    return np.where(pb <= 0.5, lower, np.where(qa <= 0.5, upper, lower))


def _phi(link: Mixture, coeff, lo, hi):
    # Closed-form integral of the gain survival at coeff * d^alpha against the
    # annulus density of d over [lo, hi], one column per tau.
    c = coeff / link.omega
    r = np.arange(link.m, dtype=float)[:, None]
    s = r + 2.0 / ALPHA
    diff = _gamma_p_diff(s, c * lo**ALPHA, c * np.maximum(hi, lo) ** ALPHA)
    terms = link.tail[:, None] * np.exp(special.gammaln(s) - special.gammaln(r + 1.0)) * diff
    total = 2.0 * c ** (-2.0 / ALPHA) * terms.sum(axis=0) / (ALPHA * (D_MAX**2 - D_MIN**2))
    return np.where(hi > lo, total, 0.0)


def analytic(setup: str, taus) -> dict:
    """Every analytic CSV column at each tau, for one of the paper setups."""
    n_antennas, ideal = SETUPS[setup]
    tau = np.asarray(taus, dtype=float)
    beacon = Mixture(RICIAN_K, n_antennas, SHAPE_M)
    data = Mixture(RICIAN_K, 1, SHAPE_M)
    p_eff = P_ST if ideal else RHO * P_ST + P_CIRCUIT
    base = ETA * P_BEACON * (1.0 - tau) / (tau * p_eff) * math.exp(beacon.log_moment)
    d_star = base ** (1.0 / ALPHA)
    coeff2 = tau * p_eff / (ETA * P_BEACON)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        phi1 = np.where(
            d_star < D_MIN, 0.0,
            _phi(beacon, coeff2 / (1.0 - tau), D_MIN, np.minimum(d_star, D_MAX)),
        )
        phi2 = np.where(
            d_star > D_MAX, 0.0,
            _phi(beacon, coeff2, np.maximum(d_star, D_MIN), D_MAX),
        )
    p_tr = np.clip(phi1 + phi2, 0.0, 1.0)
    gamma_th = 2.0**RATE - 1.0
    f_snr = 1.0 - data.survival(gamma_th * NOISE * D_ST_SR**ALPHA_S / P_ST)
    p_out = p_tr * f_snr + (1.0 - p_tr)
    throughput = tau * RATE * (1.0 - p_out)
    values = (tau, d_star, phi1, phi2, p_tr, np.full_like(tau, f_snr), p_out, throughput)
    return dict(zip(ANALYTIC_COLUMNS, values))


def analytic_problems(setup: str, rows: list) -> list:
    """Rows that differ from the oracle by more than the analytic tolerance."""
    taus = [row["tau"] for row in rows]
    ref = analytic(setup, taus)
    problems = []
    for i, row in enumerate(rows):
        for col in ANALYTIC_COLUMNS[1:]:
            want = float(ref[col][i])
            if not abs(row[col] - want) <= ANALYTIC_REL * abs(want) + ANALYTIC_ABS:
                problems.append(f"{setup} tau={row['tau']:.6g} {col}: {row[col]!r} vs {want!r}")
    return problems


def load_reference(name: str) -> dict:
    with open(REFERENCE_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def oracle_anchor_problems() -> list:
    """The oracle against rows the package wrote when the benchmark was defined."""
    ref = load_reference("analytic")
    problems = []
    for setup, rows in ref["rows"].items():
        problems += analytic_problems(setup, rows)
    return problems


def mc_tolerance(stats: dict) -> float:
    return MC_Z * stats["sd"] * math.sqrt(1.0 + 1.0 / stats["n"])


def mc_problems(setup: str, rows: list, reference: dict) -> list:
    """MC columns outside the statistical tolerance of the reference.

    `reference` is one workload's entry of `reference/mc.json`: per setup and
    tau index, the mean and standard deviation of each MC column over the
    reference seeds at the workload's budget.
    """
    points = reference["setups"][setup]
    if len(rows) != len(points):
        return [f"{setup}: {len(rows)} MC rows, reference has {len(points)}"]
    problems = []
    for row, point in zip(rows, points):
        if abs(row["tau"] - point["tau"]) > 1e-12:
            problems.append(f"{setup}: tau {row['tau']!r} where the reference has {point['tau']!r}")
            continue
        for col in MC_COLUMNS:
            stats = point[col]
            gap = row[col] - stats["mean"]
            if not abs(gap) <= mc_tolerance(stats):
                problems.append(
                    f"{setup} tau={row['tau']:.3g} {col}: {row[col]:.5f} vs reference "
                    f"{stats['mean']:.5f} (gap {gap:+.5f}, tolerance {mc_tolerance(stats):.5f})"
                )
        for col in CI_COLUMNS:
            if not (math.isfinite(row[col]) and row[col] >= 0.0):
                problems.append(f"{setup} tau={row['tau']:.3g} {col}: {row[col]!r}")
    return problems


def renewal_rejection_problems(reference: dict) -> list:
    """Self-check: slot-renewal numbers put in place of buffer-mode numbers.

    The MC check must flag every such point; a point it lets through means
    the tolerance is too loose to tell the two simulator modes apart.
    """
    problems = []
    for setup, points in reference["setups"].items():
        for point in points:
            row = {"tau": point["tau"], **point["renewal"], "ci99_ptr": 0.0, "ci99_pout": 0.0}
            if not mc_problems(setup, [row], {"setups": {setup: [point]}}):
                problems.append(f"MC check accepts slot-renewal numbers at {setup} tau={point['tau']:.3g}")
    return problems
