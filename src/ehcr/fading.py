"""Finite gamma-mixture fading model with integer cluster/shadowing parameters.

A channel power gain is distributed as a mixture of N+1 gamma components
with integer shapes ``m - j`` and a common scale ``omega``; the mixture is
unit-mean by construction. The number of clusters ``mu`` doubles as the
number of beacon antennas when the per-antenna gains are combined.

`pdf` and `survival` evaluate scalars and arrays alike with one chunked
Poisson-sum kernel; quadrature passes them all its nodes at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy import special

from .numerics import digamma_integer

# buckets of the component lookup table; a power of two, so ``u * _TABLE_SIZE``
# is exact and truncates to the bucket of ``u``
_TABLE_SIZE = 1 << 12
# points per pass of the Poisson-sum kernel; its buffer is (rows x _SUM_CHUNK)
_SUM_CHUNK = 2048


@dataclass(frozen=True)
class FadingParams:
    """Parameter set (rician_k, mu, m) plus derived mixture constants."""

    rician_k: float
    mu: int
    m: int
    n_mix: int = field(init=False)
    omega: float = field(init=False)
    weights: tuple = field(init=False)
    shapes: tuple = field(init=False)

    def __post_init__(self):
        if self.rician_k <= 0.0 or not math.isfinite(self.rician_k):
            raise ValueError(f"rician_k must be a positive real, got {self.rician_k}")
        if int(self.mu) != self.mu or self.mu < 1:
            raise ValueError(f"mu must be a positive integer, got {self.mu}")
        if int(self.m) != self.m or self.m < self.mu:
            raise ValueError(
                f"m must be an integer with m >= mu, got m={self.m}, mu={self.mu}"
            )
        mu, m, k = int(self.mu), int(self.m), float(self.rician_k)
        n_mix = m - mu
        omega = (mu * k + m) / (m * mu * (1.0 + k))
        p = m / (mu * k + m)
        q = mu * k / (mu * k + m)
        try:
            weights = tuple(math.comb(n_mix, j) * p**j * q ** (n_mix - j) for j in range(n_mix + 1))
        except OverflowError:  # C(m - mu, j) exceeds every float from m - mu = 1030 on
            raise ValueError(f"m - mu = {n_mix} is too large: weights overflow a float") from None
        shapes = tuple(m - j for j in range(n_mix + 1))
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n_mix", n_mix)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "shapes", shapes)

    @cached_property
    def _weight_cdf(self) -> np.ndarray:
        cdf = np.cumsum(self.weights)
        cdf /= cdf[-1]
        return cdf

    @cached_property
    def _component_table(self) -> np.ndarray:
        # entry b is the component of every u in [b, b + 1) / _TABLE_SIZE, or -1
        # where that bucket holds a step of the weight CDF; the end buckets are
        # -1 too, since the clipped lookup sends every u outside [0, 1) there
        cdf = self._weight_cdf
        edges = np.arange(_TABLE_SIZE + 1) / _TABLE_SIZE
        first = cdf.searchsorted(edges[:-1], side="right")
        last = cdf.searchsorted(np.nextafter(edges[1:], 0.0), side="right")
        table = np.where(first == last, first, -1)
        table[[0, -1]] = -1
        return table

    @cached_property
    def _shapes_float(self) -> np.ndarray:
        return np.asarray(self.shapes, dtype=float)

    @cached_property
    def _tail_weights(self) -> np.ndarray:
        # w[r] = sum of mixture weights whose shape exceeds r, for r = 0..m-1;
        # collapses the double sum of the CDF/survival into a single sum over r.
        w = np.zeros(self.m)
        for cj, mj in zip(self.weights, self.shapes):
            w[:mj] += cj
        return w

    @cached_property
    def _survival_rows(self) -> tuple:
        # survival = sum over r = 0..m-1 of tail weight w[r] times the Poisson
        # term t^r e^-t / r!
        r = np.arange(self.m, dtype=float)
        return _rows(r, self._tail_weights)

    @cached_property
    def _pdf_rows(self) -> tuple:
        # component j of shape s has density t^(s-1) e^-t / ((s-1)! omega), so
        # its row is r = s - 1, from mu - 1 to m - 1
        r = np.arange(self.mu - 1, self.m, dtype=float)
        return _rows(r, np.asarray(self.weights[::-1]) / self.omega)

    @cached_property
    def _log_moment(self) -> float:
        return math.fsum(cj * (digamma_integer(mj) + math.log(self.omega))
                         for cj, mj in zip(self.weights, self.shapes))


def _as_nonnegative_array(x):
    arr = np.asarray(x, dtype=float)
    if not (arr >= 0.0).all():  # also false for NaN
        raise ValueError("gain argument must be nonnegative, not NaN")
    return arr


def _rows(r, weights):
    """Column vectors (r, log r!, w_r) of one Poisson sum, for `_poisson_sum`."""
    return r[:, None], special.gammaln(r + 1.0)[:, None], weights[:, None]


def _chunk_edges(n):
    edges = list(range(0, n, _SUM_CHUNK)) + [n]
    # numpy sums one column by pairwise summation and wider blocks row by
    # row, so a lone last point is given a neighbour: every point is then
    # reduced as it would be in one pass over the whole array
    if n > 1 and edges[-1] - edges[-2] == 1:
        edges[-2] -= 1
    return edges


def _poisson_sum(arr, omega, rows):
    """The points ``t = arr / omega``, flattened, and at each of them
    ``sum_r w_r exp(r log t - log r! - t)``.

    Works through ``t`` in chunks of ``_SUM_CHUNK`` points in one buffer of
    (rows x chunk). Points at t = 0 and t = +inf come out NaN or arbitrary;
    the callers overwrite them with their exact limits. A finite point whose
    ``t`` overflows is one at t = +inf, where its limit is exact.
    """
    r, log_fact, weights = rows
    n = arr.size
    out = np.empty(n)
    buf = np.empty((len(r), min(n, _SUM_CHUNK)))
    log_t = np.empty(buf.shape[1])
    edges = _chunk_edges(n)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t = arr.ravel() / omega
        for lo, hi in zip(edges, edges[1:]):
            tc, lt, b = t[lo:hi], log_t[:hi - lo], buf[:, :hi - lo]
            np.log(tc, out=lt)
            np.multiply(r, lt, out=b)
            b -= log_fact
            b -= tc
            np.exp(b, out=b)
            b *= weights
            b.sum(axis=0, out=out[lo:hi])
    return t, out


def pdf(p: FadingParams, x):
    """Mixture density at x; accepts scalars or arrays. Zero at +inf."""
    arr = _as_nonnegative_array(x)
    t, out = _poisson_sum(arr, p.omega, p._pdf_rows)
    # the unit-shape component is the only one with mass density at 0
    out[t == 0.0] = p.weights[-1] / p.omega if p.shapes[-1] == 1 else 0.0
    out[t == math.inf] = 0.0
    return out.reshape(arr.shape) if np.ndim(x) else float(out[0])


def survival(p: FadingParams, x):
    """Complementary CDF at x; accepts scalars or arrays. Zero at +inf."""
    arr = _as_nonnegative_array(x)
    t, sf = _poisson_sum(arr, p.omega, p._survival_rows)
    sf[t == 0.0] = 1.0  # exact, avoids the rounding of the summed weights
    sf[t == math.inf] = 0.0  # the limit; the terms are inf - inf there
    sf = np.clip(sf, 0.0, 1.0).reshape(arr.shape)
    return sf if np.ndim(x) else float(sf)


def survival_end(p: FadingParams) -> float:
    """A gain at and beyond which `survival` is exactly 0.0.

    Past ``t = m - 1`` the largest of the survival's Poisson terms is the one
    of ``r = m - 1``, whose exponent ``(m - 1) log t - log (m - 1)! - t``
    falls, and ``exp`` underflows to 0.0 below about -745.13. The ``t`` returned
    puts that exponent at -746, found by iterating ``t = (m - 1) log t +
    log (m - 1)! + 746`` down from ``746 m``, above its root; the margin
    covers the rounding of the terms.
    """
    k = math.lgamma(p.m) + 746.0
    t = 746.0 * p.m
    while (nxt := (p.m - 1) * math.log(t) + k) < t:
        t = nxt
    return t * p.omega


def cdf(p: FadingParams, x):
    """Distribution function at x; accepts scalars or arrays. One at +inf."""
    return 1.0 - survival(p, x)


def log_moment(p: FadingParams) -> float:
    """Expected log-gain; strictly negative for any unit-mean fading law."""
    return p._log_moment


def component_index(p: FadingParams, u):
    """Mixture component of each uniform ``u`` in [0, 1).

    The inverse of the normalised weight CDF, the rule by which
    ``Generator.choice(p=weights)`` maps its uniforms, so a stream's indices
    do not depend on whether its uniforms are read at once or in chunks.
    It equals ``searchsorted(cdf, u, side="right")`` for every float64: an
    array is looked up in ``_component_table``, and only the uniforms whose
    bucket holds a step of the CDF, or that lie outside [0, 1), are searched.
    """
    cdf = p._weight_cdf
    u = np.asarray(u, dtype=float)
    if not u.ndim:
        return cdf.searchsorted(u, side="right")
    # the clip sends every u outside [0, 1) to an end bucket; NaN and inf cast
    # with numpy's RuntimeWarning, to an index that the clip sends there too
    j = p._component_table.take((u * _TABLE_SIZE).astype(np.intp), mode="clip")
    miss = np.flatnonzero(j < 0)
    if miss.size:
        j.flat[miss] = cdf.searchsorted(u.flat[miss], side="right")
    return j


def sample(p: FadingParams, gen: np.random.Generator, size=None):
    """Draw gains by component choice followed by an integer-shape gamma.

    numpy's gamma draw is ``scale * standard_gamma(shape)``, so this is
    ``gen.gamma(shape=shapes[j], scale=omega)`` bit for bit, without the
    checks and broadcasting of the scale argument.
    """
    j = component_index(p, gen.random(size))
    draws = gen.standard_gamma(p._shapes_float[j])
    draws *= p.omega
    return draws if size is not None else float(draws)


def sum_params(p: FadingParams, l: int) -> FadingParams:
    """The parameters of ``p`` with mu replaced by ``l``: the law that
    `analysis.j_correction` assigns to the sum of ``l`` harvests.

    Like every FadingParams its law is unit-mean, so it is not the law of a
    literal sum of ``l`` independent unit-mean gains, whose mean is ``l``.
    Nothing computes the literal sum yet; ROADMAP item 15 plans a literal
    ``J(l)`` next to the paper's.
    """
    if l < 1 or l > p.m:
        raise ValueError(f"l must satisfy 1 <= l <= m={p.m}, got {l}")
    return FadingParams(p.rician_k, int(l), p.m)
