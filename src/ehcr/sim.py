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
``run`` gives for that tau alone. ``run`` is the one-tau case. Confidence
half-widths are placement-level: slots of one placement share its distance
and its buffer, so the per-placement fractions, not the slots, are the
independent samples, and at least two placements are needed.

Each placement's generator yields, in order, its distance, ``n_total``
component uniforms and ``n_total`` gammas of the harvest link, then the
ST-SR draws laid out the same way. The harvest gains are read in slot chunks
of ``_CHUNK`` from two positions in that stream: a copy of the PCG64 state
taken after the distance reads the uniforms, and the generator itself,
advanced by ``n_total`` (one 64-bit output per uniform), reads the gammas.
The chunks join into exactly the eager draw, so gain memory is
O(placements × chunk) and every estimate is the same as with the whole
stream drawn at once. Each slot that transmits sets one bit of a packed
record of the measured slots per (tau, placement). Once the last chunk is
read, each generator stands at its ST-SR draws; one placement's row is drawn
at a time, judged against the SNR threshold and packed, and the record and
the link bits reduce to the transmit and success counts.
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
# slots per block of the buffer update; a multiple of 8, so that a measured
# block packs into whole bytes of the transmit record
_BLOCK = 32
# number of set bits in each byte value
_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


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
    """Per-placement distances and the two read positions of each gain stream.

    Each placement owns a generator seeded from (seed, placement index), so
    results are independent of execution order and bit-reproducible. After
    the distance, the stream holds ``n_total`` component uniforms, then the
    ``n_total`` harvest gammas, then the ST-SR draws. Returns the distances,
    each placement's uniform read position (a PCG64 state) and its generator,
    advanced past the uniforms to where the gammas start.
    """
    distances = np.empty(n_placements)
    uniform_states = []
    gens = []
    base = int(seed) % 2**63
    for i in range(n_placements):
        gen = np.random.default_rng(np.random.SeedSequence([base, i]))
        distances[i] = sample_distance(cfg, gen)
        uniform_states.append(gen.bit_generator.state)
        # one 64-bit output per uniform double
        gen.bit_generator.advance(n_total)
        gens.append(gen)
    return distances, uniform_states, gens


def warmup_slots(n_slots: int) -> int:
    return max(100, n_slots // 10)


def _slot_edges(n_total: int, warmup: int):
    """Chunk and block edges of the slot range ``[0, n_total)``.

    Blocks start every ``_BLOCK`` slots from the end of the warm-up, so each
    measured block starts on a byte of the packed record. Chunks are whole
    blocks; the first one also holds the warm-up's remainder.
    """
    first = warmup % _BLOCK
    blocks = sorted({0, n_total, *range(first, n_total, _BLOCK)})
    chunks = sorted({0, n_total, *range(first + _CHUNK, n_total, _CHUNK)})
    return chunks, blocks


def _gain_chunks(p, uniform_states, gens, chunks):
    """Yield ``(first slot, gains)`` per chunk, gains slot-major ``(slots, placements)``.

    Each chunk reads its component uniforms at the placement's uniform
    position, which it moves on in ``uniform_states``, and its gammas from
    the placement's generator, so the chunks join into exactly what one
    `fading.sample` of the whole stream gives.
    """
    reader = np.random.Generator(np.random.PCG64(0))
    out = np.empty((max(np.diff(chunks)), len(gens)))
    for lo, hi in zip(chunks, chunks[1:]):
        gains = out[: hi - lo]
        for i, gen in enumerate(gens):
            reader.bit_generator.state = uniform_states[i]
            j = fading.component_index(p, reader.random(hi - lo))
            uniform_states[i] = reader.bit_generator.state
            gains[:, i] = gen.gamma(shape=p._shapes_arr[j], scale=p.omega)
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


def _buffer_record(cfg, taus, distances, chunks, blocks, warmup, record):
    """Run the energy buffers; set ``record`` bits of the measured slots that transmit.

    One `_step_slot` per slot carries every tau's buffer state; the per-slot
    levels are filled a block at a time. ``tx_gain`` = (1 - tau) * path_gain
    is the harvest scale of a transmit slot.
    """
    t = cfg.t_frame
    capacity = cfg.p_st_eff * t
    consumption = taus[:, None] * capacity
    path_gain = cfg.eta * t * cfg.p_beacon / distances**cfg.alpha_pb_st
    tx_gain = (1.0 - taus)[:, None] * path_gain
    stored = np.full((len(taus), len(distances)), capacity)
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
        if a >= warmup:
            byte = (a - warmup) // 8
            record[byte:byte + (n + 7) // 8] = np.packbits(full[:n], axis=0)


def _renewal_record(cfg, taus, distances, chunks, warmup, record):
    """Set ``record`` bits where the memoryless slot-renewal model transmits.

    The previous slot's harvest alone (plus the fixed post-transmission
    leftover) decides transmission, against the closed form's branch
    threshold at the placement's distance. No state links the slots, so
    every measured slot of a chunk is judged at once.
    """
    d_star = analysis._d_star(cfg, taus)
    (inside, *_), (outside, *_) = analysis._branches(cfg, taus, d_star)
    coeff = np.where(distances <= d_star[:, None], inside[:, None], outside[:, None])
    threshold = coeff * distances**cfg.alpha_pb_st
    for lo, gains in chunks:
        measured = gains[max(warmup - lo, 0):]
        if not len(measured):
            continue
        byte = (max(lo, warmup) - warmup) // 8
        for k, row in enumerate(threshold):
            bits = np.packbits(measured >= row, axis=0)
            record[byte:byte + len(bits), k] = bits


def _link_bits(cfg, gens, warmup, n_total):
    """Packed per-slot link success ``(bytes, placements)`` over the measured slots.

    Called once every harvest chunk is drawn, when each generator stands at
    its placement's ST-SR draws; one placement's row is drawn at a time.
    """
    snr_scale = cfg.p_st / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)
    bits = np.empty(((n_total - warmup + 7) // 8, len(gens)), dtype=np.uint8)
    for i, gen in enumerate(gens):
        row = fading.sample(cfg.fading_st_sr, gen, size=n_total)[warmup:]
        bits[:, i] = np.packbits(snr_scale * row > cfg.gamma_th)
    return bits


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
    taus = analysis._checked_taus(cfg, taus)
    if not len(taus):
        raise SimConfigurationError("taus must not be empty")

    warmup = warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, uniform_states, gens = placement_streams(cfg, n_placements, n_total, seed)
    chunk_edges, block_edges = _slot_edges(n_total, warmup)
    # one bit per (measured slot, tau, placement): set where the slot transmits
    record = np.zeros(((n_slots + 7) // 8, len(taus), n_placements), dtype=np.uint8)
    chunks = _gain_chunks(cfg.fading_pb_st, uniform_states, gens, chunk_edges)
    if mode == "buffer":
        _buffer_record(cfg, taus, distances, chunks, block_edges, warmup, record)
    else:
        _renewal_record(cfg, taus, distances, chunks, warmup, record)
    del chunks  # frees the chunk buffer before the ST-SR draws
    link = _link_bits(cfg, gens, warmup, n_total)
    tx = _POPCOUNT[record].sum(axis=0, dtype=np.int64)
    ok = _POPCOUNT[record & link[:, None, :]].sum(axis=0, dtype=np.int64)

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
