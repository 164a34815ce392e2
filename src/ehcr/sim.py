"""Time-slotted Monte Carlo simulator of the one-shot energy-buffer policy.

The default ``buffer`` mode tracks the stored energy across slots and is the
ground truth the closed forms are measured against. Its rule is the one
in-place update ``_step_slot``: a full buffer transmits, spends ``tau·C`` and
harvests for the rest of the frame; any other buffer harvests for the whole
frame; the level is capped at the capacity ``C``. The update works on arrays,
so one call advances every (tau, placement) buffer of a sweep, and the
validate suite drives the same update on a one-element buffer.

The ``slot-renewal`` mode reproduces the modeling assumptions behind the
closed-form transmission probability (each slot judged on the previous
slot's harvest alone, leftover pinned at the post-transmission level), which
is useful for isolating the effect of multi-slot energy accumulation.

``run_sweep`` estimates a whole tau grid from one draw of the gain streams:
the streams depend only on the seed and the placement index, so every tau
sees the same placements and fades, and each tau's estimate is exactly what
``run`` gives for that tau alone. ``run`` is the one-tau case. Confidence
half-widths are placement-level: slots of one placement share its distance
and its buffer, so the per-placement fractions, not the slots, are the
independent samples, and at least two placements are needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import analysis, fading
from .analysis import SystemConfig

# two-sided 99% normal quantile
_Z99 = 2.5758293035489004

MODES = ("buffer", "slot-renewal")


class SimConfigurationError(ValueError):
    """Invalid Monte Carlo budget or mode."""


@dataclass(frozen=True)
class SimEstimate:
    """Monte Carlo estimates with 99% confidence half-widths."""

    p_tr_hat: float
    p_out_hat: float
    throughput_hat: float
    ci99_p_tr: float
    ci99_p_out: float
    ci99_throughput: float
    n_slots: int
    n_placements: int
    seed: int


def sample_distance(cfg: SystemConfig, gen: np.random.Generator) -> float:
    """Inverse-CDF draw from the linear annulus density on [d_min, d_max]."""
    u = gen.random()
    return math.sqrt(cfg.d_min**2 + u * (cfg.d_max**2 - cfg.d_min**2))


def placement_streams(cfg: SystemConfig, n_placements: int, n_total: int, seed: int):
    """Per-placement distances and pre-drawn gain series.

    Each placement owns a generator seeded from (seed, placement index), so
    results are independent of execution order and bit-reproducible.
    """
    distances = np.empty(n_placements)
    gains_p = np.empty((n_placements, n_total))
    gains_s = np.empty((n_placements, n_total))
    base = int(seed) % 2**63
    for i in range(n_placements):
        gen = np.random.default_rng(np.random.SeedSequence([base, i]))
        distances[i] = sample_distance(cfg, gen)
        gains_p[i] = fading.sample(cfg.fading_pb_st, gen, size=n_total)
        gains_s[i] = fading.sample(cfg.fading_st_sr, gen, size=n_total)
    return distances, gains_p, gains_s


def warmup_slots(n_slots: int) -> int:
    return max(100, n_slots // 10)


def _step_slot(stored, capacity, consumption, path_gain, tx_gain, gain_p, snr_ok):
    """Advance energy buffers one frame in place; return (transmitted, succeeded).

    A full buffer transmits, spends ``consumption`` and harvests
    ``tx_gain * gain_p`` for the rest of the frame; any other buffer harvests
    ``path_gain * gain_p`` for the whole frame. ``stored`` is capped at
    ``capacity``. A transmission succeeds where ``snr_ok``. The arguments
    broadcast against ``stored`` (one element or ``(n_tau, n_placements)``),
    and every element sees the same operations in the same order whatever the
    shape, so a buffer's trajectory does not depend on what it is batched with.
    """
    full = stored >= capacity
    harvest = np.where(full, tx_gain, path_gain)
    harvest *= gain_p
    np.subtract(stored, consumption, out=stored, where=full)
    stored += harvest
    np.minimum(stored, capacity, out=stored)
    return full, full & snr_ok


def _buffer_counts(cfg, taus, distances, gains_p, snr_ok, warmup):
    """Per-(tau, placement) transmit and success counts of the energy buffer.

    One `_step_slot` per slot carries every tau's buffer state.
    ``tx_gain`` = (1 - tau) * path_gain is the harvest scale of a transmit slot.
    """
    t = cfg.t_frame
    capacity = cfg.p_st_eff * t
    consumption = taus[:, None] * capacity
    path_gain = cfg.eta * t * cfg.p_beacon / distances**cfg.alpha_pb_st
    tx_gain = (1.0 - taus)[:, None] * path_gain
    stored = np.full((len(taus), len(distances)), capacity)
    tx = np.zeros(stored.shape, dtype=np.int64)
    ok = np.zeros(stored.shape, dtype=np.int64)
    for n in range(gains_p.shape[1]):
        full, succeeded = _step_slot(
            stored, capacity, consumption, path_gain, tx_gain, gains_p[:, n], snr_ok[:, n]
        )
        if n >= warmup:
            tx += full
            ok += succeeded
    return tx, ok


def _renewal_counts(cfg, taus, distances, gains_p, snr_ok, warmup):
    """Per-(tau, placement) counts of the memoryless slot-renewal model.

    The previous slot's harvest alone (plus the fixed post-transmission
    leftover) decides transmission; thresholds differ inside/outside the
    effective range because the in-range branch harvests only the
    non-transmit fraction of the frame. No state links the slots, so every
    measured slot is judged at once.
    """
    d_star = np.array([analysis.effective_range(cfg.with_tau(t)) for t in taus.tolist()])[:, None]
    inside = distances <= d_star
    threshold = (
        taus[:, None]
        * cfg.p_st_eff
        * distances**cfg.alpha_pb_st
        / (cfg.eta * cfg.p_beacon * np.where(inside, 1.0 - taus[:, None], 1.0))
    )
    measured_p = gains_p[:, warmup:]
    measured_ok = snr_ok[:, warmup:]
    tx = np.empty(threshold.shape, dtype=np.int64)
    ok = np.empty(threshold.shape, dtype=np.int64)
    for k, row in enumerate(threshold):
        full = measured_p >= row[:, None]
        tx[k] = full.sum(axis=1)
        ok[k] = (full & measured_ok).sum(axis=1)
    return tx, ok


def _ci99(fractions: np.ndarray) -> float:
    """99% half-width of the mean of per-placement fractions.

    Slots of one placement share its distance and buffer, so they are
    correlated; placements are independent, so the placement is the sample.
    """
    return _Z99 * float(np.std(fractions, ddof=1)) / math.sqrt(len(fractions))


def run_sweep(
    cfg: SystemConfig,
    taus,
    n_placements: int,
    n_slots: int,
    seed: int,
    mode: str = "buffer",
) -> list:
    """One `SimEstimate` per tau, all from one draw of the gain streams.

    The streams depend only on the seed and the placement index, so every
    tau sees the same placements and fades (common random numbers). Each
    estimate equals ``run(cfg.with_tau(tau), ...)`` exactly.
    """
    if n_placements < 2 or n_slots < 1:
        raise SimConfigurationError(
            f"n_placements must be >= 2 and n_slots >= 1, got {n_placements}, {n_slots}"
        )
    if mode not in MODES:
        raise SimConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    configs = [cfg.with_tau(float(t)) for t in taus]
    if not configs:
        raise SimConfigurationError("taus must not be empty")
    taus = np.array([c.tau for c in configs])

    warmup = warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, gains_p, gains_s = placement_streams(cfg, n_placements, n_total, seed)
    snr_scale = cfg.p_st / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)
    # whether each slot's link would carry the rate; row by row, so no float
    # temporary as large as a gain array is made
    snr_ok = np.empty(gains_s.shape, dtype=bool)
    for i, row in enumerate(gains_s):
        np.greater(snr_scale * row, cfg.gamma_th, out=snr_ok[i])

    counts = _buffer_counts if mode == "buffer" else _renewal_counts
    tx, ok = counts(cfg, taus, distances, gains_p, snr_ok, warmup)

    total = n_placements * n_slots
    estimates = []
    for c, tx_k, ok_k in zip(configs, tx, ok):
        outage_count = total - int(ok_k.sum())
        ci99_p_out = _ci99((n_slots - ok_k) / n_slots)
        estimates.append(SimEstimate(
            p_tr_hat=int(tx_k.sum()) / total,
            p_out_hat=outage_count / total,
            throughput_hat=c.tau * c.rate * (total - outage_count) / total,
            ci99_p_tr=_ci99(tx_k / n_slots),
            ci99_p_out=ci99_p_out,
            ci99_throughput=c.tau * c.rate * ci99_p_out,
            n_slots=n_slots,
            n_placements=n_placements,
            seed=int(seed),
        ))
    return estimates


def run(
    cfg: SystemConfig,
    n_placements: int,
    n_slots: int,
    seed: int,
    mode: str = "buffer",
) -> SimEstimate:
    """Aggregate transmission/outage statistics over placements and slots.

    The one-tau case of `run_sweep`.
    """
    return run_sweep(cfg, [cfg.tau], n_placements, n_slots, seed, mode)[0]
