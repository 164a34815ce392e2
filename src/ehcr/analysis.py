"""Closed-form performance engine for the harvesting-constrained secondary link.

Computes the effective harvesting range, the two-branch transmission
probability, outage and throughput, with ideal or lossy (rho, P_c) hardware.
``sweep_columns`` is the engine, one array pass over a tau grid that
returns one array per output column; ``evaluate`` is its one-tau row, a
dict keyed by those columns, ``effective_range`` and the three paper
metrics are one-tau views, and the quadrature oracles take only its branch
limits.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import fading, numerics
from .fading import FadingParams


def _default_link() -> FadingParams:
    return FadingParams(rician_k=7.0, mu=1, m=20)


@dataclass(frozen=True)
class SystemConfig:
    """Full parameter set of beacon, secondary link, geometry and hardware.

    Every config that constructs can be swept, simulated and validated; a
    refusal is a ValueError that names the fields. Those compute powers of
    Python floats, where an overflow raises OverflowError, and every distance
    they raise to ``alpha_pb_st`` is at most ``d_max``, the Jensen suite's
    ``d_mid`` included.
    """

    p_beacon: float = numerics.dbm_to_watts(33.0)
    p_st: float = numerics.dbm_to_watts(20.0)
    eta: float = 0.85
    tau: float = 0.5
    t_frame: float = 1.0
    noise_power: float = numerics.dbm_to_watts(-101.0)
    rate: float = 1.0
    alpha_pb_st: float = 2.4
    alpha_st_sr: float = 3.0
    d_min: float = 1.0
    d_max: float = 15.0
    d_st_sr: float = 30.0
    rho: float = 1.2
    p_circuit: float = numerics.dbm_to_watts(-30.0)
    ideal: bool = True
    fading_pb_st: FadingParams = field(default_factory=_default_link)
    fading_st_sr: FadingParams = field(default_factory=_default_link)

    def __post_init__(self):
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.p_beacon <= 0.0 or self.p_st <= 0.0:
            raise ValueError("transmit powers must be positive")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError(f"eta must be in (0, 1], got {self.eta}")
        if not 0.0 < self.tau < 1.0:
            raise ValueError(f"tau must be in (0, 1), got {self.tau}")
        if self.t_frame <= 0.0:
            raise ValueError("t_frame must be positive")
        if self.noise_power <= 0.0:
            raise ValueError("noise_power must be positive")
        if self.rate <= 0.0:
            raise ValueError("rate must be positive")
        if self.alpha_pb_st <= 0.0 or self.alpha_st_sr <= 0.0:
            raise ValueError("path-loss exponents must be positive")
        if not 0.0 < self.d_min <= self.d_max:
            raise ValueError(
                f"need 0 < d_min <= d_max, got d_min={self.d_min}, d_max={self.d_max}"
            )
        if self.d_st_sr <= 0.0:
            raise ValueError("d_st_sr must be positive")
        if self.rho < 1.0:
            raise ValueError(f"rho must be >= 1, got {self.rho}")
        if self.p_circuit < 0.0:
            raise ValueError("p_circuit must be nonnegative")
        if self.tau * self.p_st_eff == 0.0:
            raise ValueError(f"tau = {self.tau} spends no energy per frame (tau * p_st_eff is 0)")

        def named(*names):
            return ", ".join(f"{name} = {getattr(self, name)!r}" for name in names)

        if self.p_st_eff * self.t_frame == math.inf:
            raise ValueError("the buffer capacity p_st_eff * t_frame overflows a float"
                             f" ({named('p_st', 'rho', 'p_circuit', 't_frame')})")
        for power, names, base, exponent in (
            ("2**rate", ("rate",), 2.0, self.rate),
            ("d_st_sr**alpha_st_sr", ("d_st_sr", "alpha_st_sr"), self.d_st_sr, self.alpha_st_sr),
            ("d_max**2", ("d_max",), self.d_max, 2.0),
            ("d_max**alpha_pb_st", ("d_max", "alpha_pb_st"), self.d_max, self.alpha_pb_st),
        ):
            try:
                base**exponent
            except OverflowError:
                raise ValueError(f"{power} overflows a float ({named(*names)})") from None
        if self.d_st_sr**self.alpha_st_sr * self.noise_power == 0.0:
            raise ValueError("d_st_sr**alpha_st_sr * noise_power underflows to 0, an infinite SNR"
                             f" ({named('d_st_sr', 'alpha_st_sr', 'noise_power')})")
        nearest = self.d_min**self.alpha_pb_st
        if nearest == 0.0 or self.eta * self.t_frame * self.p_beacon / nearest == math.inf:
            fields = named("d_min", "alpha_pb_st", "eta", "t_frame", "p_beacon")
            raise ValueError("eta * t_frame * p_beacon / d_min**alpha_pb_st overflows, an infinite"
                             f" harvest ({fields})")
        # the simulator places by d_min**2, which must keep a normal float's precision
        if self.d_min**2 < sys.float_info.min:
            raise ValueError(f"d_min**2 is below the normal floats ({named('d_min')})")

    @property
    def gamma_th(self) -> float:
        """SNR threshold implied by the target rate."""
        return 2.0**self.rate - 1.0

    @property
    def p_st_eff(self) -> float:
        """Power the buffer must supply per unit transmit time."""
        if self.ideal:
            return self.p_st
        return self.rho * self.p_st + self.p_circuit

    def with_tau(self, tau: float) -> "SystemConfig":
        return dataclasses.replace(self, tau=tau)


def _log2_snr(cfg: SystemConfig, d_pbst: float | None = None) -> float:
    """log2 of a link's SNR per unit of its gain, summed from the logs of the factors.

    The harvested-power link's at beacon distance ``d_pbst``, or, with None,
    the benchmark link's at ``p_st``. No product of the factors is formed, so
    neither a subnormal noise power nor an SNR past every float moves it.
    """
    log2 = math.log2
    loss = log2(cfg.noise_power) + cfg.alpha_st_sr * log2(cfg.d_st_sr)
    if d_pbst is None:
        return log2(cfg.p_st) - loss
    return (log2(cfg.eta) + log2(cfg.p_beacon) + log2(1.0 - cfg.tau) - log2(cfg.tau)
            - cfg.alpha_pb_st * log2(d_pbst) - loss)


def _capacity(tau: float, log2_snr: float) -> float:
    """``tau * log2(1 + snr)`` from ``log2(snr)``, finite wherever that is."""
    if log2_snr > 0.0:
        return tau * (log2_snr + math.log2(1.0 + 2.0**-log2_snr))
    return tau * math.log2(1.0 + 2.0**log2_snr)


def capacity_lower_bound(cfg: SystemConfig, d_pbst: float) -> float:
    """Log-moment (Jensen) lower bound on capacity with harvested power."""
    if d_pbst <= 0.0:
        raise ValueError("d_pbst must be positive")
    e_p = fading.log_moment(cfg.fading_pb_st)
    e_s = fading.log_moment(cfg.fading_st_sr)
    return _capacity(cfg.tau, _log2_snr(cfg, d_pbst) + (e_p + e_s) / math.log(2.0))


def benchmark_capacity_lower_bound(cfg: SystemConfig) -> float:
    """Jensen lower bound on capacity with the fixed secondary transmit power."""
    e_s = fading.log_moment(cfg.fading_st_sr)
    return _capacity(cfg.tau, _log2_snr(cfg) + e_s / math.log(2.0))


def _checked_taus(cfg: SystemConfig, taus) -> np.ndarray:
    """The tau grid as a float array; the first tau `SystemConfig` rejects raises its error."""
    taus = np.asarray(taus, dtype=float)
    with np.errstate(over="ignore"):  # only a tau past 1 overflows, and it is refused
        ok = (taus > 0.0) & (taus < 1.0) & (taus * cfg.p_st_eff > 0.0)
    if not ok.all():
        cfg.with_tau(float(taus[~ok][0]))
    return taus


def _d_star(cfg: SystemConfig, taus: np.ndarray) -> np.ndarray:
    """Effective range at each tau; inf where it lies beyond every distance."""
    log_moment = fading.log_moment(cfg.fading_pb_st)
    with np.errstate(over="ignore"):
        base = cfg.eta * cfg.p_beacon * (1.0 - taus) / (taus * cfg.p_st_eff)
        d_star = (base * math.exp(log_moment)) ** (1.0 / cfg.alpha_pb_st)
        # a tiny tau overflows the ratio, not the range: sum the log of each factor
        big = np.isinf(base)
        log_base = (math.log(cfg.eta) + math.log(cfg.p_beacon) + np.log(1.0 - taus[big])
                    - np.log(taus[big]) - math.log(cfg.p_st_eff))
        d_star[big] = np.exp((log_base + log_moment) / cfg.alpha_pb_st)
    return d_star


def effective_range(cfg: SystemConfig) -> float:
    """Beacon distance at which the two capacity lower bounds coincide."""
    return float(_d_star(cfg, np.array([cfg.tau]))[0])


def snr_outage_cdf(cfg: SystemConfig) -> float:
    """Probability the data-link SNR falls below the rate threshold.

    Transmission always radiates p_st; hardware overhead raises the buffer
    threshold, not the radiated power.
    """
    x = cfg.gamma_th * cfg.noise_power * cfg.d_st_sr**cfg.alpha_st_sr / cfg.p_st
    return fading.cdf(cfg.fading_st_sr, x)


def _branches(cfg: SystemConfig, taus: np.ndarray, d_star: np.ndarray):
    """Per-tau (threshold coefficient, lo, hi) of the inside and outside branches.

    Inside the effective range the buffer refills from the non-transmit
    fraction of the frame only; beyond it, from the whole frame. A branch
    whose interval is empty (hi <= lo) contributes nothing.
    """
    need = taus * cfg.p_st_eff
    harvest = cfg.eta * cfg.p_beacon
    # a subnormal harvest sends a coefficient to +inf, its exact limit: no gain refills
    with np.errstate(divide="ignore", over="ignore"):
        inside = (need / (harvest * (1.0 - taus)), cfg.d_min, np.minimum(d_star, cfg.d_max))
        outside = (need / harvest, np.maximum(d_star, cfg.d_min), cfg.d_max)
    return np.broadcast_arrays(*inside), np.broadcast_arrays(*outside)


def _phi_closed_form(cfg: SystemConfig, threshold_coeff, lo, hi) -> np.ndarray:
    # Sum over survival-series terms r = 0..m-1 of the gain law, each integrated in closed
    # form against the annulus density on [lo, hi]; one row per non-empty branch, per r.
    out = np.zeros(len(lo))
    live = hi > lo
    p = cfg.fading_pb_st
    alpha = cfg.alpha_pb_st
    c = threshold_coeff[live, None] / p.omega
    a = c * lo[live, None] ** alpha
    b = c * hi[live, None] ** alpha
    r = np.arange(p.m, dtype=float)
    s = r + 2.0 / alpha
    # P(s, b) - P(s, a), taken from the upper tails Q(s, a) - Q(s, b) where P(s, b) > 0.5
    # and Q(s, a) <= 0.5, which avoids cancellation. Each cell evaluates only the side it
    # keeps, gathered by boolean masks: scipy 1.17.1's ufuncs go wrong under `where=`.
    diff = special.gammainc(s, b)  # P(s, b) until each cell's difference replaces it
    s_cells, a_cells, b_cells = np.broadcast_arrays(s, a, b)
    # Q(s, a) falls as a grows, so below a gate where Q(s, gate) exceeds 0.5 by far more
    # than rounding, Q(s, a) > 0.5 and the cell keeps the lower side without evaluating
    # Q(s, a). The gate sits just under the median of the gamma law of shape s; where
    # Q(s, gate) does not confirm it (gammaincinv inexact or NaN), it is 0 and gates nothing.
    gate = special.gammaincinv(s, 0.5) * (1.0 - 1e-6)
    gate = np.where(special.gammaincc(s, gate) > 0.5 + 1e-9, gate, 0.0)
    upper = (diff > 0.5) & (a_cells >= gate)
    qa = special.gammaincc(s_cells[upper], a_cells[upper])
    upper[upper] = qa <= 0.5
    diff[upper] = qa[qa <= 0.5] - special.gammaincc(s_cells[upper], b_cells[upper])
    del qa  # before the gathers of the lower side, which hold most cells
    lower = ~upper
    diff[lower] -= special.gammainc(s_cells[lower], a_cells[lower])
    terms = p._tail_weights * np.exp(special.gammaln(s) - special.gammaln(r + 1.0)) * diff
    norm = cfg.d_max**2 - cfg.d_min**2
    out[live] = 2.0 * c[:, 0] ** (-2.0 / alpha) * terms.sum(axis=1) / (alpha * norm)
    return out


def _point_mass(cfg: SystemConfig, branches, d_star: np.ndarray):
    """phi1 and phi2 where d_min = d_max = d: the closed form's limit as the annulus closes on d.

    The branch that holds d transmits with the gain survival at its threshold
    at d, and the other never; a tie goes inside, as in the simulator's
    slot-renewal mode.
    """
    (inside, *_), (outside, *_) = branches
    held = cfg.d_max <= d_star
    threshold = np.where(held, inside, outside) * cfg.d_max**cfg.alpha_pb_st
    sf = fading.survival(cfg.fading_pb_st, threshold)
    return np.where(held, sf, 0.0), np.where(held, 0.0, sf)


def _phi_quadrature(cfg: SystemConfig, branch: int) -> float:
    taus = np.array([cfg.tau])
    d_star = _d_star(cfg, taus)
    branches = _branches(cfg, taus, d_star)
    if cfg.d_min == cfg.d_max:  # nothing to integrate: the point mass is the oracle too
        return float(_point_mass(cfg, branches, d_star)[branch][0])
    coeff, lo, hi = (float(v[0]) for v in branches[branch])
    p = cfg.fading_pb_st
    alpha = cfg.alpha_pb_st
    # past the distance whose threshold reaches `fading.survival_end` the
    # integrand is 0.0; a steep path loss leaves a support too narrow for the
    # adaptive rule to find on the whole branch
    hi = min(hi, (fading.survival_end(p) / coeff) ** (1.0 / alpha))
    if hi <= lo:
        return 0.0
    norm = cfg.d_max**2 - cfg.d_min**2

    def integrand(x: float) -> float:
        return fading.survival(p, coeff * x**alpha) * 2.0 * x / norm

    return numerics.integrate_adaptive(integrand, lo, hi)


def phi1_quadrature(cfg: SystemConfig) -> float:
    """Independent quadrature route for phi1 (oracle, not the fast path)."""
    return _phi_quadrature(cfg, 0)


def phi2_quadrature(cfg: SystemConfig) -> float:
    """Independent quadrature route for phi2 (oracle, not the fast path)."""
    return _phi_quadrature(cfg, 1)


def j_correction(cfg: SystemConfig, l: int, d: float) -> float:
    """Probability that exactly the l-th consecutive harvest-only slot refills.

    Uses the combined-gain parameterization in which every sum law stays
    unit-mean; this is the term the closed-form transmission probability
    neglects.
    """
    if l < 2 or l > cfg.fading_pb_st.m:
        raise ValueError(f"l must satisfy 2 <= l <= m={cfg.fading_pb_st.m}, got {l}")
    if d <= 0.0:
        raise ValueError("d must be positive")
    x = cfg.tau * cfg.p_st_eff * d**cfg.alpha_pb_st / (cfg.eta * cfg.p_beacon)
    shorter = fading.cdf(fading.sum_params(cfg.fading_pb_st, l - 1), x)
    longer = fading.cdf(fading.sum_params(cfg.fading_pb_st, l), x)
    return max(0.0, shorter - longer)


def transmission_probability(cfg: SystemConfig) -> float:
    """Two-branch closed-form transmission probability, clamped to [0, 1]."""
    return evaluate(cfg)["p_tr"]


def outage_probability(cfg: SystemConfig) -> float:
    """Outage: silent slot, or transmission below the SNR threshold."""
    return evaluate(cfg)["p_out"]


def average_throughput(cfg: SystemConfig) -> float:
    """Effective throughput in bps/Hz; bounded above by tau * rate."""
    return evaluate(cfg)["throughput"]


def evaluate(cfg: SystemConfig) -> dict[str, float]:
    """All analytic metrics at the configured switching time: the one row of `sweep_columns`."""
    return {name: float(column[0]) for name, column in sweep_columns(cfg, [cfg.tau]).items()}


def sweep_columns(cfg: SystemConfig, tau_grid) -> dict[str, np.ndarray]:
    """The closed forms over a tau grid, in one array pass: the engine.

    Returns one float array per column, one entry per tau, in CSV order:
    ``tau`` and then the seven paper outputs. Raises ValueError, naming
    the first such tau, when the closed form is not finite at a tau of the
    grid.
    """
    taus = _checked_taus(cfg, tau_grid)
    d_star = _d_star(cfg, taus)
    branches = _branches(cfg, taus, d_star)
    # an underflowing threshold coefficient makes a branch 0 ** -x * 0, NaN, and a tiny
    # alpha overflows its terms; the check below names the tau instead of warning
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if cfg.d_min < cfg.d_max:
            v1, v2 = (_phi_closed_form(cfg, *branch) for branch in branches)
        else:
            v1, v2 = _point_mass(cfg, branches, d_star)
    # both branches, before the clip, which would hide an infinite one
    finite = np.isfinite(v1 + v2)
    if not finite.all():
        tau = float(taus[~finite][0])
        raise ValueError(f"the closed-form transmission probability is not finite at tau = {tau!r}")
    p_tr = np.clip(v1 + v2, 0.0, 1.0)
    f_snr = snr_outage_cdf(cfg)
    p_out = p_tr * f_snr + (1.0 - p_tr)
    throughput = taus * cfg.rate * (1.0 - p_out)
    return {
        "tau": taus,
        "d_star": d_star,
        "phi1": v1,
        "phi2": v2,
        "p_tr": p_tr,
        "f_snr": np.full_like(taus, f_snr),
        "p_out": p_out,
        "throughput": throughput,
    }
