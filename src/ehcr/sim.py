"""Time-slotted Monte Carlo simulator of the one-shot energy-buffer policy.

The default ``buffer`` mode tracks the stored energy across slots and is the
ground truth the closed forms are measured against. The ``slot-renewal`` mode
reproduces the modeling assumptions behind the closed-form transmission
probability (each slot judged on the previous slot's harvest alone, leftover
pinned at the post-transmission level), which is useful for isolating the
effect of multi-slot energy accumulation.
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


def run(
    cfg: SystemConfig,
    n_placements: int,
    n_slots: int,
    seed: int,
    strict_harvest_cap: bool = False,
    mode: str = "buffer",
) -> SimEstimate:
    """Aggregate transmission/outage statistics over placements and slots."""
    if n_placements < 1 or n_slots < 1:
        raise SimConfigurationError(
            f"n_placements and n_slots must be >= 1, got {n_placements}, {n_slots}"
        )
    if mode not in MODES:
        raise SimConfigurationError(f"mode must be one of {MODES}, got {mode!r}")

    warmup = warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, gains_p, gains_s = placement_streams(cfg, n_placements, n_total, seed)

    t = cfg.t_frame
    capacity = cfg.p_st_eff * t
    consumption = cfg.tau * capacity
    path_gain = cfg.eta * t * cfg.p_beacon / distances**cfg.alpha_pb_st
    snr_scale = cfg.p_st / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)

    tx_count = 0
    outage_count = 0
    if mode == "buffer":
        stored = np.full(n_placements, capacity)
        for n in range(n_total):
            full = stored >= capacity
            harvest = np.where(full, (1.0 - cfg.tau), 1.0) * path_gain * gains_p[:, n]
            if strict_harvest_cap:
                harvest = np.minimum(harvest, consumption)
            if n >= warmup:
                snr_ok = snr_scale * gains_s[:, n] > cfg.gamma_th
                tx_count += int(full.sum())
                outage_count += n_placements - int((full & snr_ok).sum())
            stored = np.where(full, stored - consumption, stored)
            stored = np.minimum(capacity, stored + harvest)
    else:
        # Memoryless reconstruction of the closed-form model: the previous
        # slot's harvest alone (plus the fixed post-transmission leftover)
        # decides transmission; thresholds differ inside/outside the
        # effective range because the in-range branch harvests only the
        # non-transmit fraction of the frame.
        d_star = analysis.effective_range(cfg)
        inside = distances <= d_star
        threshold = (
            cfg.tau
            * cfg.p_st_eff
            * distances**cfg.alpha_pb_st
            / (cfg.eta * cfg.p_beacon * np.where(inside, 1.0 - cfg.tau, 1.0))
        )
        for n in range(warmup, n_total):
            full = gains_p[:, n] >= threshold
            snr_ok = snr_scale * gains_s[:, n] > cfg.gamma_th
            tx_count += int(full.sum())
            outage_count += n_placements - int((full & snr_ok).sum())

    total = n_placements * n_slots
    p_tr = tx_count / total
    p_out = outage_count / total
    throughput = cfg.tau * cfg.rate * (total - outage_count) / total

    def halfwidth(p: float) -> float:
        return _Z99 * math.sqrt(p * (1.0 - p) / total)

    return SimEstimate(
        p_tr_hat=p_tr,
        p_out_hat=p_out,
        throughput_hat=throughput,
        ci99_p_tr=halfwidth(p_tr),
        ci99_p_out=halfwidth(p_out),
        ci99_throughput=cfg.tau * cfg.rate * halfwidth(p_out),
        n_slots=n_slots,
        n_placements=n_placements,
        seed=int(seed),
    )
