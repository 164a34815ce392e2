"""Time-slotted Monte Carlo simulator of the one-shot energy-buffer policy.

The default ``buffer`` mode tracks the stored energy across slots and is the
ground truth the closed forms are measured against. The ``slot-renewal`` mode
reproduces the modeling assumptions behind the closed-form transmission
probability (each slot judged on the previous slot's harvest alone, leftover
pinned at the post-transmission level), which is useful for isolating the
effect of multi-slot energy accumulation.

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
from typing import NamedTuple

import numpy as np

from . import analysis, fading
from .analysis import SystemConfig

# two-sided 99% normal quantile
_Z99 = 2.5758293035489004

MODES = ("buffer", "slot-renewal")


class SimConfigurationError(ValueError):
    """Invalid Monte Carlo budget or mode."""


@dataclass(frozen=True)
class EnergyBuffer:
    """Stored energy with a hard capacity, both in joules."""

    stored: float
    capacity: float

    def __post_init__(self):
        if self.capacity <= 0.0:
            raise ValueError("capacity must be positive")
        if not 0.0 <= self.stored <= self.capacity * (1.0 + 1e-12):
            raise ValueError(
                f"stored energy {self.stored} outside [0, {self.capacity}]"
            )

    @property
    def full(self) -> bool:
        return self.stored >= self.capacity


class SlotOutcome(NamedTuple):
    transmitted: bool
    outage: bool
    buffer: EnergyBuffer


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


def fresh_buffer(cfg: SystemConfig) -> EnergyBuffer:
    """Full buffer at the steady-state capacity implied by the config."""
    capacity = cfg.p_st_eff * cfg.t_frame
    return EnergyBuffer(stored=capacity, capacity=capacity)


def step_slot(
    buffer: EnergyBuffer,
    cfg: SystemConfig,
    d: float,
    gain_p: float,
    gain_s: float,
    strict_harvest_cap: bool = False,
) -> SlotOutcome:
    """Advance one frame: transmit if full, then harvest for the rest."""
    t = cfg.t_frame
    consumption = cfg.tau * cfg.p_st_eff * t
    if buffer.full:
        transmitted = True
        snr = cfg.p_st * gain_s / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)
        outage = snr <= cfg.gamma_th
        stored = buffer.stored - consumption
        harvest = cfg.eta * (1.0 - cfg.tau) * t * cfg.p_beacon * gain_p / d**cfg.alpha_pb_st
    else:
        transmitted = False
        outage = True
        stored = buffer.stored
        harvest = cfg.eta * t * cfg.p_beacon * gain_p / d**cfg.alpha_pb_st
    if strict_harvest_cap:
        harvest = min(harvest, consumption)
    stored = min(buffer.capacity, stored + harvest)
    return SlotOutcome(transmitted, outage, EnergyBuffer(stored, buffer.capacity))


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


def _buffer_counts(
    cfg, taus, distances, snr_scale, gains_p, gains_s, warmup, strict_harvest_cap
):
    """Per-(tau, placement) transmit and success counts of the energy buffer.

    One slot loop carries every tau's buffer state, updated in place.
    ``tx_gain`` = (1 - tau) * path_gain is the harvest scale of a transmit
    slot. Every element sees the same operations in the same order whatever
    the number of taus, so a tau's counts do not depend on its sweep.
    """
    t = cfg.t_frame
    capacity = cfg.p_st_eff * t
    consumption = taus[:, None] * capacity
    path_gain = cfg.eta * t * cfg.p_beacon / distances**cfg.alpha_pb_st
    tx_gain = (1.0 - taus)[:, None] * path_gain
    shape = (len(taus), gains_p.shape[0])
    stored = np.full(shape, capacity)
    full = np.empty(shape, dtype=bool)
    harvest = np.empty(shape)
    tx = np.zeros(shape, dtype=np.int64)
    ok = np.zeros(shape, dtype=np.int64)
    gamma_th = cfg.gamma_th
    for n in range(gains_p.shape[1]):
        np.greater_equal(stored, capacity, out=full)
        np.multiply(np.where(full, tx_gain, path_gain), gains_p[:, n], out=harvest)
        if strict_harvest_cap:
            np.minimum(harvest, consumption, out=harvest)
        if n >= warmup:
            tx += full
            ok += full & (snr_scale * gains_s[:, n] > gamma_th)
        np.subtract(stored, consumption, out=stored, where=full)
        stored += harvest
        np.minimum(stored, capacity, out=stored)
    return tx, ok


def _renewal_counts(cfg, taus, distances, snr_scale, gains_p, gains_s, warmup):
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
    # row by row, so no float temporary as large as a gain array is made
    snr_ok = np.empty(measured_p.shape, dtype=bool)
    for i, row in enumerate(gains_s[:, warmup:]):
        np.greater(snr_scale * row, cfg.gamma_th, out=snr_ok[i])
    tx = np.empty(threshold.shape, dtype=np.int64)
    ok = np.empty(threshold.shape, dtype=np.int64)
    for k, row in enumerate(threshold):
        full = measured_p >= row[:, None]
        tx[k] = full.sum(axis=1)
        ok[k] = (full & snr_ok).sum(axis=1)
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
    strict_harvest_cap: bool = False,
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

    if mode == "buffer":
        tx, ok = _buffer_counts(
            cfg, taus, distances, snr_scale, gains_p, gains_s, warmup, strict_harvest_cap
        )
    else:
        tx, ok = _renewal_counts(cfg, taus, distances, snr_scale, gains_p, gains_s, warmup)

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
    strict_harvest_cap: bool = False,
    mode: str = "buffer",
) -> SimEstimate:
    """Aggregate transmission/outage statistics over placements and slots.

    The one-tau case of `run_sweep`.
    """
    return run_sweep(
        cfg, [cfg.tau], n_placements, n_slots, seed, strict_harvest_cap, mode
    )[0]
