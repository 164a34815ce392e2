"""Invariant suites behind ``ehcr validate``.

Each suite takes a `SystemConfig` and returns a list of notes: a note is a
failure unless it starts with ``INFO``. `SUITES` lists them, by the name
that ``ehcr validate`` prints, in the order in which `run` runs them.

The fading suites run the per-law checks `law_weights`, `law_mass` and
`law_sample` on the ``pb_st`` law and then on the ``st_sr`` law; the
acceptance tests run the same checks on 88 laws.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

from . import analysis, fading, numerics, sim

# samples per chunk of the Jensen suite's draws
_CHUNK = 1 << 16
# the taus at which the closed form meets its quadrature oracle
_TAUS = [i / 10 for i in range(1, 10)]


def numerics_reference(cfg):
    problems = []
    for s in [0.1 * i for i in range(1, 251, 10)]:
        ref = math.exp(math.lgamma(s))
        val = numerics.upper_incomplete_gamma(s, 0.0)
        if abs(val - ref) > 1e-12 * ref:
            problems.append(f"Gamma(s,0) mismatch at s={s}")
        x = 0.5 + s
        lhs = numerics.upper_incomplete_gamma(s + 1.0, x)
        rhs = s * numerics.upper_incomplete_gamma(s, x) + x**s * math.exp(-x)
        if abs(lhs - rhs) > 1e-9 * max(abs(lhs), 1e-300):
            problems.append(f"recurrence mismatch at s={s}")
    for n in range(1, 40):
        if abs(numerics.digamma_integer(n + 1) - numerics.digamma_integer(n) - 1.0 / n) > 1e-12:
            problems.append(f"digamma recurrence fails at n={n}")
    for x in (-20.0, 0.0, 13.0, 60.0):
        prod = numerics.dbm_to_watts(x) * numerics.dbm_to_watts(60.0 - x)
        if abs(prod - 1.0) > 1e-12:
            problems.append(f"dBm log-linearity fails at {x}")
    return problems


def law_weights(name, law):
    problems = []
    if abs(math.fsum(law.weights) - 1.0) > 1e-12:
        problems.append(f"{name}: mixture weights do not sum to 1")
    mean = math.fsum(w * mj * law.omega for w, mj in zip(law.weights, law.shapes))
    if abs(mean - 1.0) > 1e-12:
        problems.append(f"{name}: unit-mean identity violated (mean={mean:.6g})")
    return problems


def law_mass(name, law):
    mass = numerics.integrate_adaptive(lambda x: fading.pdf(law, x), 0.0, 50.0)
    return [f"{name}: pdf mass {mass:.12g} != 1"] if abs(mass - 1.0) > 1e-9 else []


def law_sample(name, law, gen):
    draws = fading.sample(law, gen, size=100_000)
    draws.sort()  # the statistic reads the CDF at the draws in order
    _, pvalue = _ks_test(fading.cdf(law, draws))
    return [f"{name}: KS p-value {pvalue:.4g} <= 0.01"] if pvalue <= 0.01 else []


def _per_link(cfg, check, *args):
    links = (("pb_st", cfg.fading_pb_st), ("st_sr", cfg.fading_st_sr))
    return [note for name, law in links for note in check(name, law, *args)]


def fading_weights(cfg):
    return _per_link(cfg, law_weights)


def fading_normalization(cfg):
    return _per_link(cfg, law_mass)


def fading_sampler(cfg):
    return _per_link(cfg, law_sample, np.random.default_rng(20260824))


def _ks_test(cdf_values):
    """``(D, p)`` of the two-sided one-sample KS test, given the CDF at sorted draws.

    D is ``scipy.stats.kstest``'s statistic bit for bit: the larger of
    ``max(i/n - F)`` over ``i = 1..n`` and ``max(F - i/n)`` over ``i = 0..n-1``.
    From ``n D² >= 2.2`` the p-value is kstest's exact one as well: for
    ``n > 140`` scipy's ``kstwo.sf`` (Simard & L'Ecuyer 2011, J. Stat. Softw.
    39(11)) is ``2 smirnov(n, D)``, clipped to [0, 1], there and 0.0 from
    ``n D² >= 370``. Below 2.2 both that p-value and the asymptotic
    ``kolmogorov(D √n)`` returned there exceed 0.024, so neither can fail a
    0.01 gate; at ``n = 10⁵`` one ``smirnov`` call costs about 0.1 s.
    """
    n = len(cdf_values)
    assert n > 140, "the p-value follows scipy's branch for samples of more than 140"
    d_plus = (np.arange(1.0, n + 1) / n - cdf_values).max()
    d_minus = (cdf_values - np.arange(0.0, n) / n).max()
    d = max(d_plus, d_minus)
    nd2 = n * d * d
    if nd2 >= 370.0:
        return d, 0.0
    if nd2 >= 2.2:
        return d, float(np.clip(2.0 * special.smirnov(n, d), 0.0, 1.0))
    return d, float(special.kolmogorov(d * math.sqrt(n)))


def phi_closed_vs_quadrature(cfg):
    problems = []
    columns = analysis.sweep_columns(cfg, _TAUS)
    for tau, phi1, phi2 in zip(_TAUS, columns["phi1"], columns["phi2"]):
        c = cfg.with_tau(tau)
        for label, closed, oracle in (
            ("phi1", phi1, analysis.phi1_quadrature(c)),
            ("phi2", phi2, analysis.phi2_quadrature(c)),
        ):
            tol = 1e-7 * max(abs(oracle), 1e-300)
            if abs(closed - oracle) > tol:
                problems.append(
                    f"{label} at tau={tau:.1f}: closed {closed:.12g} vs quad {oracle:.12g}"
                )
    return problems


def jensen_bounds(cfg):
    problems = []
    gen_p, gen_s = (np.random.default_rng(s) for s in np.random.SeedSequence(7_031).spawn(2))
    n = 1_000_000
    d_mid = 0.5 * (cfg.d_min + cfg.d_max)
    log2_harvest, log2_benchmark = analysis._log2_snr(cfg, d_mid), analysis._log2_snr(cfg)

    def fold(moments, gains, log2_scale):
        # the capacity per unit tau, log2(1 + 2**log2_scale * gains), in place
        # and finite, as `analysis._capacity` forms it, merged into the (count,
        # mean, sum of squared deviations) of the samples so far by Chan et
        # al.'s pairwise update, which does not cancel as one-pass sums of x
        # and x^2 do; `exceeds` applies tau, whose square may underflow
        if log2_scale > 0.0:
            gains += 2.0**-log2_scale
            np.log2(gains, out=gains)
            gains += log2_scale
        else:
            gains *= 2.0**log2_scale
            gains += 1.0
            np.log2(gains, out=gains)
        count, mean, m2 = moments
        k = len(gains)
        chunk_mean = float(gains.mean())
        gains -= chunk_mean
        np.square(gains, out=gains)
        total = count + k
        delta = chunk_mean - mean
        return (
            total,
            mean + delta * (k / total),
            m2 + float(gains.sum()) + delta * delta * (count * k / total),
        )

    harvest_moments = benchmark_moments = (0, 0.0, 0.0)
    for lo in range(0, n, _CHUNK):
        # each link from its own stream, so both are read in step
        gp = fading.sample(cfg.fading_pb_st, gen_p, size=min(_CHUNK, n - lo))
        gs = fading.sample(cfg.fading_st_sr, gen_s, size=len(gp))
        gp *= gs  # the harvested-power link's gain, in gp's buffer
        harvest_moments = fold(harvest_moments, gp, log2_harvest)
        benchmark_moments = fold(benchmark_moments, gs, log2_benchmark)

    def exceeds(bound, moments):
        _, mean, m2 = moments
        return bound > cfg.tau * (mean + 3.0 * math.sqrt(m2 / n) / math.sqrt(n))

    if exceeds(analysis.capacity_lower_bound(cfg, d_mid), harvest_moments):
        problems.append("harvested-power Jensen bound exceeds Monte Carlo mean")
    if exceeds(analysis.benchmark_capacity_lower_bound(cfg), benchmark_moments):
        problems.append("benchmark Jensen bound exceeds Monte Carlo mean")
    return problems


def j_magnitude(cfg):
    problems = []
    m = cfg.fading_pb_st.m
    for l, bound in ((2, "1e-5"), (3, "1e-7")):
        # `analysis.j_correction` is defined only for l <= m
        if l > m:
            problems.append(f"INFO J({l}, d_max) skipped: m = {m} < {l}")
            continue
        j = analysis.j_correction(cfg, l, cfg.d_max)
        if j > float(bound):
            problems.append(f"J({l}, d_max) = {j:.3g} > {bound}")
    return problems


def sim_conservation(cfg):
    problems = []
    gen = np.random.default_rng(99)
    d = sim._distance(cfg, gen.random())
    capacity, consumption, path_gain, tx_gain = analysis._buffer_terms(cfg, cfg.tau, d)
    stored = np.array([capacity])
    idle, after_tx, level = np.empty(1), np.empty(1), np.empty(1)
    silent = np.empty(1, dtype=bool)
    for _ in range(500):
        gp = fading.sample(cfg.fading_pb_st, gen)
        if stored[0] >= capacity:  # full: it transmits and harvests for 1 - tau of the frame
            expected = min(capacity, stored[0] - consumption + (1.0 - cfg.tau) * path_gain * gp)
        else:
            expected = min(capacity, stored[0] + path_gain * gp)
        sim._slot_terms(capacity, consumption, path_gain, tx_gain, gp, idle, after_tx)
        sim._step_slot(stored, capacity, idle, after_tx, silent, level)
        if stored[0] != expected:
            problems.append("per-slot energy bookkeeping mismatch")
            break
        if not 0.0 <= stored[0] <= capacity:
            problems.append("buffer bounds violated")
            break
    a = sim.run(cfg, 50, 200, seed=5)
    b = sim.run(cfg, 50, 200, seed=5)
    if a != b:
        problems.append("simulator is not deterministic for a fixed seed")
    return problems


def sim_model_agreement(cfg):
    # The renewal-mode simulator integrates exactly the closed-form model,
    # so it must reproduce the analytic probabilities; the buffer-mode gap
    # (multi-slot accumulation) is reported but not gated here. Both modes
    # run on one draw of the placements and fades.
    problems = []
    point = analysis.evaluate(cfg)
    estimates = sim._sweep_modes(cfg, [cfg.tau], 500, 500, 11, sim.MODES)
    [renewal], [buffered] = estimates["slot-renewal"], estimates["buffer"]
    tol = max(2.0 * renewal.ci99_p_out, 0.02)
    if abs(renewal.p_out_hat - point["p_out"]) > tol:
        problems.append(
            f"slot-renewal p_out {renewal.p_out_hat:.4f} vs analytic {point['p_out']:.4f}"
        )
    gap = buffered.p_tr_hat - point["p_tr"]
    problems.append(
        f"INFO buffer-mode accumulation surplus: p_tr {buffered.p_tr_hat:.4f}"
        f" vs closed form {point['p_tr']:.4f} (gap {gap:+.4f})"
    )
    return problems


SUITES = (
    ("numerics-reference", numerics_reference),
    ("fading-weights", fading_weights),
    ("fading-normalization", fading_normalization),
    ("fading-sampler-ks", fading_sampler),
    ("phi-closed-vs-quadrature", phi_closed_vs_quadrature),
    ("jensen-bounds", jensen_bounds),
    ("j-magnitude", j_magnitude),
    ("sim-conservation", sim_conservation),
    ("sim-model-agreement", sim_model_agreement),
)


class Refused(ValueError):
    """A config that the suites cannot check, refused before any of them runs."""


def run(cfg) -> tuple:
    """Run `SUITES` in order: ``(exit code, text)``, one verdict line per suite.

    A line reads ``PASS`` or ``FAIL``, the suite's name and, in brackets, its
    failures and then its ``INFO`` notes. The code is 0 iff no suite fails.
    Raises `Refused`, naming the tau, where the closed form is not finite at
    a tau that a suite reads.
    """
    try:
        analysis.sweep_columns(cfg, [*_TAUS, cfg.tau])
    except ValueError as exc:
        raise Refused(f"cannot validate: {exc}") from None
    code = 0
    text = ""
    for name, suite in SUITES:
        notes = suite(cfg)
        failures = [n for n in notes if not n.startswith("INFO")]
        detail = "; ".join(failures + [n for n in notes if n.startswith("INFO")])
        line = f"{'FAIL' if failures else 'PASS'}  {name}"
        text += (f"{line}  [{detail}]" if detail else line) + "\n"
        if failures:
            code = 1
    return code, text
