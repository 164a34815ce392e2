"""Time-slotted Monte Carlo simulator of the one-shot energy-buffer policy.

The default ``buffer`` mode tracks the stored energy across slots and is the
ground truth the closed forms are measured against. Its rule is the one
in-place update ``_step_slot``: a full buffer transmits, spends ``tau·C`` and
harvests for the rest of the frame; any other buffer harvests for the whole
frame; the level is capped at the capacity ``C``. A full buffer holds exactly
``C``, so its level after a transmission depends on that slot's gain alone;
``_slot_terms`` computes it, and the idle harvest, for a block of slots at
once, and ``_step_slot`` then costs four array operations per slot. The
update works on arrays, so one call advances every (tau, placement) buffer
of a sweep, and the validate suite drives the same update on a one-element
buffer.

The ``slot-renewal`` mode reproduces the modeling assumptions behind the
closed-form transmission probability (each slot judged on the previous
slot's harvest alone, leftover pinned at the post-transmission level), which
is useful for isolating the effect of multi-slot energy accumulation.

``run_sweep`` estimates a whole tau grid from one draw of the gain streams:
the streams depend only on the seed and the placement index, so every tau
sees the same placements and fades, and each tau's estimate is exactly what
``run`` gives for that tau alone. ``run`` is the one-tau case.

The two modes share one draw as well: ``_sweep_modes`` feeds each harvest
chunk to every requested mode's counter and reads each link stream once,
and each mode's estimates are exactly those of its own ``run_sweep``.
``run_sweep`` is its one-mode view.

Placements are stratified over the annulus CDF: they pair up, the last
stratum holding three when their number is odd, and stratum ``k`` covers
the slice ``[s_k, s_k + n_k) / n`` of the CDF, where ``s_k`` is its first
placement and ``n_k`` its size. Each stratum's width is its share of the
placements, so the plain mean over placements is unbiased. Confidence
half-widths are placement-level, since slots of one placement share its
distance and its buffer, and come from the spread inside each stratum:
``var = Σ_k (n_k/n)² s_k² / n_k``, which for a pair is ``(f_a − f_b)² / n²``.
That needs at least two placements.

Each placement's generator yields, in order, the uniform that places its
distance inside its stratum, ``n_total`` component uniforms and ``n_total``
gammas of the harvest link, then the ST-SR link stream laid out the same
way. Both gain streams are read from two positions: a copy of the PCG64
state reads the uniforms, and the generator itself, advanced by ``n_total``
(one 64-bit output per uniform), reads the gammas. The harvest gains are
read in slot chunks of ``_CHUNK``, which join into exactly the eager draw,
so gain memory is O(placements × chunk). A read maps its uniforms to
mixture components through `fading.component_index`, a table lookup that
equals ``Generator.choice``'s search of the weight CDF, and draws
``standard_gamma(shape) * omega``, which is numpy's ``gamma(shape, omega)``
bit for bit without its scale argument's checks. The slot loop records,
per (tau, placement), how many measured slots transmit. A slot's link gain
matters only if it transmits, so the j-th measured transmission of a
placement gets the j-th gain of its link stream, and only as many link
gains are drawn as the placement's largest transmit count over the grid
and the modes, rounded up to a multiple of ``_LINK_QUANTUM``. The link
stream is read the same way whatever that count, so a tau's estimate does
not depend on the rest of its grid, nor on the other mode. The success count of a (tau, placement) is the
placement's cumulative link-success count at its transmit count.
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

# slots of harvest gain drawn per placement at a time; a multiple of _BLOCK
_CHUNK = 2048
# slots per block of the buffer update
_BLOCK = 32
# link gains are drawn in whole multiples of this many per placement: draws
# of a few sizes keep repeated runs from fragmenting the heap
_LINK_QUANTUM = 64


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


def _distance(cfg: SystemConfig, u: float) -> float:
    """Inverse CDF of the linear annulus density on [d_min, d_max] at ``u``."""
    return math.sqrt(cfg.d_min**2 + u * (cfg.d_max**2 - cfg.d_min**2))


def sample_distance(cfg: SystemConfig, gen: np.random.Generator) -> float:
    """Inverse-CDF draw from the linear annulus density on [d_min, d_max]."""
    return _distance(cfg, gen.random())


def _stratum(i: int, n_placements: int):
    """First placement and size of placement ``i``'s stratum of the annulus CDF.

    Placements pair up; for odd ``n_placements`` the last stratum holds three.
    """
    k = min(i // 2, n_placements // 2 - 1)
    return 2 * k, (2 + n_placements % 2 if k == n_placements // 2 - 1 else 2)


def placement_streams(cfg: SystemConfig, n_placements: int, n_total: int, seed: int):
    """Per-placement distances and the two read positions of each harvest stream.

    Each placement owns a generator seeded from (seed, placement index), so
    results are independent of execution order and bit-reproducible. Its
    first uniform places its distance inside its stratum's slice of the
    annulus CDF. Then the stream holds ``n_total`` component uniforms, the
    ``n_total`` harvest gammas and the ST-SR link stream. Returns the
    distances, each placement's uniform read position (a PCG64 state) and its
    generator, advanced past the uniforms to where the gammas start.
    """
    distances = np.empty(n_placements)
    uniform_states = []
    gens = []
    for i in range(n_placements):
        gen = np.random.default_rng(np.random.SeedSequence([int(seed), i]))
        start, size = _stratum(i, n_placements)
        distances[i] = _distance(cfg, (start + size * gen.random()) / n_placements)
        uniform_states.append(gen.bit_generator.state)
        # one 64-bit output per uniform double
        gen.bit_generator.advance(n_total)
        gens.append(gen)
    return distances, uniform_states, gens


def warmup_slots(n_slots: int) -> int:
    return max(100, n_slots // 10)


def _slot_edges(n_total: int, step: int):
    """Edges of the slot range ``[0, n_total)`` every ``step`` slots."""
    return [*range(0, n_total, step), n_total]


def _read_gains(p, reader, state, gen, size):
    """``size`` gains of a two-position stream, and the moved-on uniform position.

    The component uniforms are read at ``state`` with ``reader``, and the
    gammas from ``gen``, so consecutive reads join into exactly what one
    `fading.sample` of the whole stream gives.
    """
    reader.bit_generator.state = state
    j = fading.component_index(p, reader.random(size))
    return fading.component_gammas(p, gen, j), reader.bit_generator.state


def _gain_chunks(p, uniform_states, gens, chunks):
    """Yield ``(first slot, gains)`` per chunk, gains slot-major ``(slots, placements)``.

    Each chunk moves on the placements' uniform positions in ``uniform_states``.
    """
    reader = np.random.Generator(np.random.PCG64(0))
    out = np.empty((max(np.diff(chunks)), len(gens)))
    for lo, hi in zip(chunks, chunks[1:]):
        gains = out[: hi - lo]
        for i, gen in enumerate(gens):
            gains[:, i], uniform_states[i] = _read_gains(p, reader, uniform_states[i], gen, hi - lo)
        yield lo, gains


def _slot_terms(capacity, consumption, path_gain, tx_gain, gains, idle, after_tx):
    """Fill the two per-slot levels `_step_slot` reads, for a block of gains.

    ``idle`` is what a silent buffer harvests, ``path_gain * gain``. A buffer
    that transmits is full, so it holds exactly ``capacity`` (it starts there
    and is capped there), and its level afterwards depends on the gain alone:
    ``after_tx = min(capacity, (capacity - consumption) + tx_gain * gain)``.
    """
    np.multiply(path_gain, gains, out=idle)
    np.multiply(tx_gain, gains, out=after_tx)
    after_tx += capacity - consumption
    np.minimum(after_tx, capacity, out=after_tx)


def _step_slot(stored, capacity, idle, after_tx, full):
    """Advance energy buffers one frame in place; write into ``full`` which transmit.

    A full buffer transmits and ends at ``after_tx``; any other buffer adds
    ``idle``; the level is capped at ``capacity``. The arguments broadcast
    against ``stored`` (one element or ``(n_tau, n_placements)``), and every
    element sees the same operations in the same order whatever the shape, so
    a buffer's trajectory does not depend on what it is batched with.
    """
    np.greater_equal(stored, capacity, out=full)
    stored += idle
    np.minimum(stored, capacity, out=stored)
    np.copyto(stored, after_tx, where=full)


def _buffer_counts(cfg, taus, distances, chunks, blocks, warmup, tx):
    """Run the energy buffers; add to ``tx`` the measured slots that transmit.

    One `_step_slot` per slot carries every tau's buffer state; the per-slot
    levels are filled a block at a time. ``tx_gain`` = (1 - tau) * path_gain
    is the harvest scale of a transmit slot.
    """
    t = cfg.t_frame
    capacity = cfg.p_st_eff * t
    consumption = taus[:, None] * capacity
    path_gain = cfg.eta * t * cfg.p_beacon / distances**cfg.alpha_pb_st
    tx_gain = (1.0 - taus)[:, None] * path_gain
    stored = np.full(tx.shape, capacity)
    idle = np.empty((_BLOCK, 1, len(distances)))
    after_tx = np.empty((_BLOCK, *stored.shape))
    full = np.empty(after_tx.shape, dtype=bool)
    lo, gains = next(chunks)
    for a, b in zip(blocks, blocks[1:]):
        if a == lo + len(gains):
            lo, gains = next(chunks)
        n = b - a
        _slot_terms(capacity, consumption, path_gain, tx_gain,
                    gains[a - lo:b - lo, None], idle[:n], after_tx[:n])
        for slot in zip(idle[:n], after_tx[:n], full[:n]):
            _step_slot(stored, capacity, *slot)
        if b > warmup:
            tx += full[max(warmup - a, 0):n].sum(axis=0)


def _renewal_counts(cfg, taus, distances, chunks, warmup, tx):
    """Pass ``chunks`` on; add to ``tx`` the measured slots where the slot-renewal model transmits.

    The previous slot's harvest alone (plus the fixed post-transmission
    leftover) decides transmission, against the closed form's branch
    threshold at the placement's distance. No state links the slots, so
    every measured slot of a chunk is judged at once, before the chunk is
    yielded unchanged to whatever else counts on it.
    """
    d_star = analysis._d_star(cfg, taus)
    (inside, *_), (outside, *_) = analysis._branches(cfg, taus, d_star)
    coeff = np.where(distances <= d_star[:, None], inside[:, None], outside[:, None])
    threshold = coeff * distances**cfg.alpha_pb_st
    for lo, gains in chunks:
        measured = gains[max(warmup - lo, 0):]
        for k, row in enumerate(threshold):
            tx[k] += (measured >= row).sum(axis=0)
        yield lo, gains


def _link_successes(cfg, gens, n_total, most):
    """Yield each placement's cumulative ST-SR link successes over its transmissions.

    Called once every harvest chunk is drawn, when each generator stands at
    its placement's link stream: ``n_total`` component uniforms, then the
    gammas. Only the first ``most[i]`` gains, rounded up to a multiple of
    ``_LINK_QUANTUM``, are read, and they are the first ones of the eager
    draw. Entry ``j`` of the yielded array counts the successes among the
    first ``j`` transmissions, for ``j`` up to at least ``most[i]``.
    """
    p = cfg.fading_st_sr
    snr_scale = cfg.p_st / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)
    reader = np.random.Generator(np.random.PCG64(0))
    for gen, m in zip(gens, most.tolist()):
        m = min(-(-m // _LINK_QUANTUM) * _LINK_QUANTUM, n_total)
        state = gen.bit_generator.state
        # one 64-bit output per uniform double
        gen.bit_generator.advance(n_total)
        gains, _ = _read_gains(p, reader, state, gen, m)
        successes = np.zeros(m + 1, dtype=np.int64)
        np.cumsum(snr_scale * gains > cfg.gamma_th, out=successes[1:])
        yield successes


def _ci99(fractions: np.ndarray) -> float:
    """99% half-width of the mean of per-placement fractions.

    Slots of one placement share its distance and buffer, so they are
    correlated; placements are independent, so the placement is the sample.
    The variance of the mean is ``Σ_k (n_k/n)² s_k² / n_k`` over the strata,
    with ``s_k²`` the sample variance inside stratum ``k``: a pair adds
    ``(f_a − f_b)² / n²``, and a last triple ``3 s² / n²``.
    """
    n = len(fractions)
    triple = n % 2 * 3
    pairs = fractions[:n - triple].reshape(-1, 2)
    total = float(np.sum((pairs[:, 0] - pairs[:, 1]) ** 2))
    if triple:
        total += 3.0 * float(np.var(fractions[-3:], ddof=1))
    return _Z99 * math.sqrt(total) / n


def _estimates(cfg, taus, tx, ok, n_slots, seed):
    """One `SimEstimate` per tau from the (tau, placement) transmit and success counts."""
    n_placements = tx.shape[1]
    total = n_placements * n_slots
    estimates = []
    for tau, tx_k, ok_k in zip(taus.tolist(), tx, ok):
        outage_count = total - int(ok_k.sum())
        ci99_p_out = _ci99((n_slots - ok_k) / n_slots)
        estimates.append(SimEstimate(
            p_tr_hat=int(tx_k.sum()) / total,
            p_out_hat=outage_count / total,
            throughput_hat=tau * cfg.rate * (total - outage_count) / total,
            ci99_p_tr=_ci99(tx_k / n_slots),
            ci99_p_out=ci99_p_out,
            ci99_throughput=tau * cfg.rate * ci99_p_out,
            n_slots=n_slots,
            n_placements=n_placements,
            seed=int(seed),
        ))
    return estimates


def _sweep_modes(cfg: SystemConfig, taus, n_placements: int, n_slots: int, seed: int, modes):
    """``{mode: run_sweep(..., mode)}`` for each of ``modes``, from one draw of the streams.

    Each harvest chunk is drawn once and counted by every mode before the
    next is drawn; the renewal counter passes the chunks on to the buffer's.
    Each link stream is read once, as far as the largest transmit count
    over all modes, and link reads are prefix-stable, so every mode's
    estimates equal those of its own `run_sweep` exactly.
    """
    if n_placements < 2 or n_slots < 1:
        raise SimConfigurationError(
            f"n_placements must be >= 2 and n_slots >= 1, got {n_placements}, {n_slots}"
        )
    if not modes:
        raise SimConfigurationError("modes must not be empty")
    for mode in modes:
        if mode not in MODES:
            raise SimConfigurationError(f"mode must be one of {MODES}, got {mode!r}")
    if int(seed) < 0:
        raise SimConfigurationError(f"seed must be a non-negative integer, got {seed}")
    taus = analysis._checked_taus(cfg, taus)
    if not len(taus):
        raise SimConfigurationError("taus must not be empty")

    warmup = warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, uniform_states, gens = placement_streams(cfg, n_placements, n_total, seed)
    # measured slots that transmit, per mode and (tau, placement)
    tx = {mode: np.zeros((len(taus), n_placements), dtype=np.int64) for mode in modes}
    chunks = _gain_chunks(cfg.fading_pb_st, uniform_states, gens, _slot_edges(n_total, _CHUNK))
    if "slot-renewal" in tx:
        chunks = _renewal_counts(cfg, taus, distances, chunks, warmup, tx["slot-renewal"])
    if "buffer" in tx:
        _buffer_counts(cfg, taus, distances, chunks, _slot_edges(n_total, _BLOCK), warmup,
                       tx["buffer"])
    # run the chunks to their end: this drives the renewal counter when no buffer
    # counter pulls them, and the finished generators free the chunk buffer
    for _ in chunks:
        pass
    most = np.max([counts.max(axis=0) for counts in tx.values()], axis=0)
    ok = {mode: np.empty_like(counts) for mode, counts in tx.items()}
    for i, successes in enumerate(_link_successes(cfg, gens, n_total, most)):
        for mode, counts in tx.items():
            ok[mode][:, i] = successes[counts[:, i]]
    return {mode: _estimates(cfg, taus, tx[mode], ok[mode], n_slots, seed) for mode in tx}


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
    estimate equals ``run(cfg.with_tau(tau), ...)`` exactly. The one-mode
    case of `_sweep_modes`.
    """
    return _sweep_modes(cfg, taus, n_placements, n_slots, seed, (mode,))[mode]


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
