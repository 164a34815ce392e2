"""Machine-speed sampling, to take the host's speed swings out of job times.

On a shared host the speed of a vCPU swings by up to 2x over a few seconds
(a busy neighbour on the same physical core), so the median wall time of the
same job moved by ~15-20 % between runs minutes apart. While a job runs, a
`Sampler` times a fixed pure-Python kernel from a SIGALRM handler every
INTERVAL_S; the mean kernel time over REFERENCE_S is the job's speed factor,
and wall time divided by it is the job's time at the reference speed. The
kernel costs ~0.2 ms per sample, ~0.4 % of the job. Raw wall times are kept
next to the scaled ones in the result files.

Signal handlers run in the main thread between bytecodes, so a long native
call (a numpy draw, QUADPACK) delays a sample; it does not lose the job.
"""

from __future__ import annotations

import math
import signal
import statistics
import time

INTERVAL_S = 0.05
KERNEL_ITERATIONS = 1500
# Kernel time at the reference speed: its typical time on an unloaded vCPU
# of the machine the benchmark was defined on (Xeon, KVM guest, 2 vCPUs).
REFERENCE_S = 1.6e-4
MIN_SAMPLES = 3


def kernel_seconds() -> float:
    started = time.perf_counter()
    total = 0.0
    for i in range(1, KERNEL_ITERATIONS):
        total += math.sqrt(i)
    return time.perf_counter() - started


class Sampler:
    """Samples the kernel time while active; not reentrant."""

    def __init__(self):
        self.samples = []
        self._previous = None

    def _handler(self, signum, frame):
        self.samples.append(kernel_seconds())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def factor(self):
        """Mean kernel time over the reference; None without samples."""
        if not self.samples:
            return None
        return statistics.fmean(self.samples) / REFERENCE_S


def job_factors(counts, factors) -> list:
    """Per-job speed factors from (sample count, factor) pairs of one run.

    A job with fewer than MIN_SAMPLES samples (one shorter than ~0.15 s)
    takes the factor pooled over every sample of the run, or 1.0 when the
    run has none.
    """
    total = sum(counts)
    pooled = sum(c * f for c, f in zip(counts, factors) if c) / total if total else 1.0
    return [f if c >= MIN_SAMPLES else pooled for c, f in zip(counts, factors)]
