"""Time-slotted Monte Carlo simulator of the one-shot energy-buffer policy.

The default ``buffer`` mode tracks the stored energy across slots and is the
ground truth the closed forms are measured against. Its rule is the one
in-place update ``_step_slot``: a full buffer transmits, spends ``tau·C`` and
harvests for the rest of the frame; any other buffer harvests for the whole
frame; the level is capped at the capacity ``C``. ``_slot_terms`` fills the
two levels it reads for a block of slots at once, so that it costs five
array operations per slot and no branch. The update works on arrays, so one
call advances every (tau, placement) buffer of a sweep, and the validate
suite drives the same update on a one-element buffer.

The ``slot-renewal`` mode reproduces the modeling assumptions behind the
closed-form transmission probability (each slot judged on the previous
slot's harvest alone, leftover pinned at the post-transmission level), which
is useful for isolating the effect of multi-slot energy accumulation.
Both modes read a slot at a placement's distance from `analysis`: the
buffer's terms from ``_buffer_terms``, the threshold from ``_threshold``.

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

Each placement's stream yields, in order, the uniform that places its
distance inside its stratum, ``n_total`` component uniforms and ``n_total``
gammas of the harvest link, then the ST-SR link stream laid out the same
way. Two generators on the placement's seed read the harvest stream: a
reader takes the distance uniform and then the component uniforms, and the
generator proper, advanced by ``1 + n_total`` (one 64-bit output per
uniform), takes the gammas. Its gains are read in slot chunks of
``_CHUNK``, which join into exactly the eager draw, so gain memory is
O(placements × chunk). The link stream is read whole, so the generator
reads its uniforms itself and then skips the rest of them. Both
streams are read a group of placements at a time, about ``_GROUP_DOUBLES``
values per group: the group's uniforms go into one buffer, and one call of
`fading.component_shapes`, whose table lookup equals ``Generator.choice``'s
search of the weight CDF, maps them to gamma shapes. Each generator then
draws its ``standard_gamma(shape)``, and one multiplication by ``omega``
follows, which is numpy's ``gamma(shape, omega)`` bit for bit without its
scale argument's checks. The harvest gains land in a placement-major
buffer that the slot loop reads transposed, ``_BLOCK`` slots of the chunk
at a time. The slot loop records, per (tau, placement), how many measured
slots transmit. A slot's link gain
matters only if it transmits, so the j-th measured transmission of a
placement gets the j-th gain of its link stream, and only as many link
gains are drawn as the placement's largest transmit count over the grid
and the modes, rounded up to a multiple of ``_LINK_QUANTUM``. The link
stream is read the same way whatever that count, so a tau's estimate does
not depend on the rest of its grid, nor on the other mode. The success
count of a (tau, placement) is the placement's cumulative link-success
count at its transmit count.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import analysis, fading
from .analysis import SystemConfig

# two-sided 99% normal quantile
_Z99 = 2.5758293035489004

MODES = ("buffer", "slot-renewal")

# slots of harvest gain drawn per placement at a time; a multiple of _BLOCK, so
# that the blocks of a chunk are all full but the run's last
_CHUNK = 2048
# slots per block of the buffer update
_BLOCK = 32
# link gains are drawn in whole multiples of this many per placement: draws
# of a few sizes keep repeated runs from fragmenting the heap
_LINK_QUANTUM = 64
# doubles per group of placements read at once from the gain streams
_GROUP_DOUBLES = 8_192
# largest budgets a sweep takes; a larger one is refused before anything is drawn
_MAX_PLACEMENTS = 20_000
_MAX_SLOTS = 1_000_000
_MAX_CELLS = 1_000_000  # (tau, placement) cells


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


def _stratum(i: int, n_placements: int):
    """First placement and size of placement ``i``'s stratum of the annulus CDF.

    Placements pair up; for odd ``n_placements`` the last stratum holds three.
    """
    k = min(i // 2, n_placements // 2 - 1)
    return 2 * k, (2 + n_placements % 2 if k == n_placements // 2 - 1 else 2)


def _uint32_words(n: int) -> list:
    """The 32-bit words of ``n >= 0``, low word first; 0 is one word.

    This is how `numpy.random.SeedSequence` splits each int of a list of
    entropy, so the words of ``seed`` then of ``i``, as a ``uint32`` array,
    seed the same pool as ``SeedSequence([seed, i])`` without the list's
    coercion in Python.
    """
    words = [n & 0xFFFFFFFF]
    while n > 0xFFFFFFFF:
        n >>= 32
        words.append(n & 0xFFFFFFFF)
    return words


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """A seed sequence that hands out one fixed set of words.

    A `numpy.random.PCG64` takes its state from ``generate_state(4, uint64)``
    of its seed sequence, so two PCG64s built from one of these share the
    state that a `SeedSequence` holding those words' pool would give each,
    while the pool is hashed once.
    """

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != len(self.words) or np.dtype(dtype) != self.words.dtype:
            raise ValueError(f"holds {len(self.words)} {self.words.dtype} words")
        return self.words


def placement_streams(cfg: SystemConfig, n_placements: int, n_total: int, seed: int):
    """Per-placement distances and the two readers of each harvest stream.

    Each placement's stream is seeded from (seed, placement index), as
    ``SeedSequence([seed, i])`` would be (see `_uint32_words`), so
    results are independent of execution order and bit-reproducible. Its
    first uniform places its distance inside its stratum's slice of the
    annulus CDF. Then the stream holds ``n_total`` component uniforms, the
    ``n_total`` harvest gammas and the ST-SR link stream. Returns the
    distances, each placement's uniform reader, which stands at its
    component uniforms, and its generator, which stands where the gammas
    start. Both take the state words of one `SeedSequence`, so they share the
    stream.
    """
    distances = np.empty(n_placements)
    readers = []
    gens = []
    head = _uint32_words(int(seed))
    for i in range(n_placements):
        seq = np.random.SeedSequence(np.array(head + _uint32_words(i), dtype=np.uint32))
        words = _SeedWords(seq.generate_state(4, np.uint64))
        reader = np.random.Generator(np.random.PCG64(words))
        start, size = _stratum(i, n_placements)
        distances[i] = _distance(cfg, (start + size * reader.random()) / n_placements)
        readers.append(reader)
        gen = np.random.Generator(np.random.PCG64(words))
        # one 64-bit output per uniform double
        gen.bit_generator.advance(1 + n_total)
        gens.append(gen)
    return distances, readers, gens


def warmup_slots(n_slots: int) -> int:
    return max(100, n_slots // 10)


def _gain_chunks(p, readers, gens, chunks):
    """Yield ``(first slot, gains)`` per chunk, gains slot-major ``(slots, placements)``.

    The placements are read a group at a time: each placement's reader
    writes its uniforms into a row of the group buffer, one lookup maps the
    whole group to gamma shapes, and each generator draws its gammas into
    its row of a placement-major gain buffer. The yielded gains are that
    buffer's transposed view.
    """
    width = max(np.diff(chunks))
    group = max(1, _GROUP_DOUBLES // width)
    # the uniforms of a group, then in place their gamma shapes
    uniforms = np.empty(group * width)
    # an odd number of 64-byte lines per row, so that one slot's placements
    # fall in different cache sets; a pitch of a multiple of 4 096 bytes would
    # put them all in one
    gains = np.empty((len(gens), 8 * (-(-width // 8) | 1)))
    for lo, hi in zip(chunks, chunks[1:]):
        n = hi - lo
        for first in range(0, len(gens), group):
            rows = range(first, min(first + group, len(gens)))
            u = uniforms[:len(rows) * n].reshape(len(rows), n)
            for i, row in zip(rows, u):
                readers[i].random(out=row)
            fading.component_shapes(p, u, out=u)
            for i, shape in zip(rows, u):
                gens[i].standard_gamma(shape, out=gains[i, :n])
        block = gains[:, :n]
        block *= p.omega
        yield lo, block.T


def _slot_terms(capacity, consumption, path_gain, tx_gain, gains, idle, after_tx):
    """Fill the two per-slot levels `_step_slot` reads, for a block of gains.

    ``idle`` is what a silent buffer harvests, ``path_gain * gain``. A buffer
    that transmits is full, so it holds exactly ``capacity`` (it starts there
    and is capped there), and its level afterwards depends on the gain alone:
    ``after_tx = min(capacity, (capacity - consumption) + tx_gain * gain)``.
    The gains, perhaps a strided view, are first copied into ``idle``, so
    that the broadcast product over the taus reads them contiguously.
    """
    np.copyto(idle, gains)
    np.multiply(tx_gain, idle, out=after_tx)
    after_tx += capacity - consumption
    np.minimum(after_tx, capacity, out=after_tx)
    idle *= path_gain


def _step_slot(stored, capacity, idle, after_tx, silent, level):
    """Advance energy buffers one frame in place; write into ``silent`` which do not transmit.

    A full buffer transmits and ends at ``after_tx``; any other buffer adds
    ``idle``; the level is capped at ``capacity``. Written without a branch:
    a silent buffer's ceiling ``level`` is ``capacity``, a full one's is
    ``after_tx``, and ``stored + idle`` is cut at it. That is the rule exactly,
    float for float, because a full buffer holds ``capacity`` (it starts there
    and is capped there), ``0 <= after_tx <= capacity`` and ``idle >= 0``.
    ``level`` is scratch of ``stored``'s shape. The arguments broadcast
    against ``stored`` (one element or ``(n_tau, n_placements)``), and every
    element sees the same operations in the same order whatever the shape, so
    a buffer's trajectory does not depend on what it is batched with.
    """
    np.less(stored, capacity, out=silent)
    np.multiply(silent, capacity, out=level)
    np.maximum(level, after_tx, out=level)
    stored += idle
    np.minimum(stored, level, out=stored)


def _buffer_counts(cfg, taus, distances, chunks, warmup, tx):
    """Run the energy buffers; add to ``tx`` the measured slots that transmit.

    One `_step_slot` per slot carries every tau's buffer state; the per-slot
    levels are filled ``_BLOCK`` slots of a chunk at a time, from the
    `analysis._buffer_terms` of each (tau, placement). A harvest, or a level
    plus a harvest, that overflows to +inf is cut at the ceiling, as any
    value above it is, so inf is exact here and its overflow is no fault.
    """
    capacity, consumption, path_gain, tx_gain = analysis._buffer_terms(
        cfg, taus[:, None], distances)
    stored = np.full(tx.shape, capacity)
    level = np.empty_like(stored)
    idle = np.empty((_BLOCK, 1, len(distances)))
    after_tx = np.empty((_BLOCK, *stored.shape))
    silent = np.empty(after_tx.shape, dtype=bool)
    # each slot of a block steps on the same views, so build their argument
    # tuples once; a 0-d capacity spares each ufunc call converting a float
    ceiling = np.array(capacity)
    slots = [(stored, ceiling, *views, level) for views in zip(idle, after_tx, silent)]
    with np.errstate(over="ignore"):
        for lo, gains in chunks:
            for a in range(0, len(gains), _BLOCK):
                block = gains[a:a + _BLOCK, None]
                n = len(block)
                _slot_terms(capacity, consumption, path_gain, tx_gain, block, idle[:n],
                            after_tx[:n])
                for args in slots[:n]:
                    _step_slot(*args)
                first = max(warmup - lo - a, 0)
                if first < n:
                    tx += n - first
                    tx -= silent[first:n].sum(axis=0)


def _renewal_counts(cfg, taus, distances, chunks, warmup, tx):
    """Pass ``chunks`` on; add to ``tx`` the measured slots where the slot-renewal model transmits.

    The previous slot's harvest alone decides transmission, against the closed
    form's `analysis._threshold` at the placement's distance. No state links
    the slots, so every measured slot of a chunk is judged at once, before
    the chunk is yielded unchanged to whatever else counts on it.
    """
    threshold, _ = analysis._threshold(cfg, taus[:, None], distances)
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

    The placements are read a group at a time, their prefixes laid end to
    end in one flat buffer: each generator reads its own uniforms and then
    skips the rest of them, one lookup maps the group to gamma shapes, each
    generator draws its gammas, and one comparison judges the group's links.
    """
    p = cfg.fading_st_sr
    snr_scale = cfg.p_st / (cfg.d_st_sr**cfg.alpha_st_sr * cfg.noise_power)
    sizes = np.minimum(-(-most // _LINK_QUANTUM) * _LINK_QUANTUM, n_total).tolist()
    groups = [0]
    total = 0
    for i, m in enumerate(sizes):
        if total + m > _GROUP_DOUBLES and i > groups[-1]:
            groups.append(i)
            total = 0
        total += m
    groups.append(len(sizes))
    # the uniforms of a group, then in place their gamma shapes
    uniforms = np.empty(max([_GROUP_DOUBLES, *sizes]))
    gains = np.empty_like(uniforms)
    ok = np.empty(len(uniforms), dtype=bool)
    for first, last in zip(groups, groups[1:]):
        edges = [0, *itertools.accumulate(sizes[first:last])]
        spans = [slice(a, b) for a, b in zip(edges, edges[1:])]
        for gen, span, m in zip(gens[first:last], spans, sizes[first:last]):
            gen.random(out=uniforms[span])
            # one 64-bit output per uniform double
            gen.bit_generator.advance(n_total - m)
        n = edges[-1]
        fading.component_shapes(p, uniforms[:n], out=uniforms[:n])
        for gen, span in zip(gens[first:last], spans):
            gen.standard_gamma(uniforms[span], out=gains[span])
        g = gains[:n]
        g *= p.omega
        with np.errstate(over="ignore"):  # an SNR past every float passes, as inf does
            g *= snr_scale
        np.greater(g, cfg.gamma_th, out=ok[:n])
        for span in spans:
            successes = np.zeros(span.stop - span.start + 1, dtype=np.int64)
            np.cumsum(ok[span], out=successes[1:])
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


def check_budget(n_taus: int, n_placements: int, n_slots: int, seed: int):
    """Refuse a Monte Carlo budget, with `SimConfigurationError`, before any work.

    The caps bound what a sweep holds: about 18 KB a placement, 25 bytes a slot
    and 330 bytes a (tau, placement) cell, most of it the buffer update's scratch.
    """
    if n_placements < 2 or n_slots < 1:
        raise SimConfigurationError(
            f"n_placements must be >= 2 and n_slots >= 1, got {n_placements}, {n_slots}"
        )
    for name, value, cap in (("n_placements", n_placements, _MAX_PLACEMENTS),
                             ("n_slots", n_slots, _MAX_SLOTS)):
        if value > cap:
            raise SimConfigurationError(f"{name} must be at most {cap}, got {value}")
    if int(seed) < 0:
        raise SimConfigurationError(f"seed must be a non-negative integer, got {seed}")
    if n_taus < 1:
        raise SimConfigurationError("taus must not be empty")
    if n_taus * n_placements > _MAX_CELLS:
        raise SimConfigurationError(f"len(taus) * n_placements must be at most {_MAX_CELLS},"
                                    f" got {n_taus} * {n_placements}")


def _sweep_modes(cfg: SystemConfig, taus, n_placements: int, n_slots: int, seed: int, modes):
    """``{mode: run_sweep(..., mode)}`` for each of ``modes``, from one draw of the streams.

    Each harvest chunk is drawn once and counted by every mode before the
    next is drawn; the renewal counter passes the chunks on to the buffer's.
    Each link stream is read once, as far as the largest transmit count
    over all modes, and link reads are prefix-stable, so every mode's
    estimates equal those of its own `run_sweep` exactly.
    """
    check_budget(len(taus), n_placements, n_slots, seed)
    if not modes or not set(modes) <= set(MODES):
        raise SimConfigurationError(f"modes must be some of {MODES}, got {modes!r}")
    taus = analysis._checked_taus(cfg, taus)

    warmup = warmup_slots(n_slots)
    n_total = warmup + n_slots
    distances, readers, gens = placement_streams(cfg, n_placements, n_total, seed)
    # measured slots that transmit, per mode and (tau, placement)
    tx = {mode: np.zeros((len(taus), n_placements), dtype=np.int64) for mode in modes}
    chunks = _gain_chunks(cfg.fading_pb_st, readers, gens, [*range(0, n_total, _CHUNK), n_total])
    if "slot-renewal" in tx:
        chunks = _renewal_counts(cfg, taus, distances, chunks, warmup, tx["slot-renewal"])
    if "buffer" in tx:
        _buffer_counts(cfg, taus, distances, chunks, warmup, tx["buffer"])
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
